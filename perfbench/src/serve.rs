//! The `serve-mlp` workload: `oppsla_serverd` at its default scheduler
//! settings, driven by one closed-loop tenant connection from this
//! process, each job the sketch attack on a correctly classified mlp
//! image. Every job is also run in process (its twin) to check the
//! daemon's `log_fnv` and to split job latency into compute, scheduler
//! and wire time. The client and every daemon it spawns share the CPU
//! the benchmark is pinned to (see `pin_to_one_cpu`).

use crate::inproc::{
    attack_layer_metrics, fill_end_to_end, infer_layer_metrics, set_up_repeated,
    setup_layer_metrics, OpResult, MIN_PASSES,
};
use crate::stats::{median, nearest_rank, PassTimes};
use crate::traced::{InferTally, Traced};
use crate::{peak_rss_mb, Args, Report};
use oppsla_attacks::{Attack, AttackOutcome, SketchProgramAttack};
use oppsla_core::dsl::Program;
use oppsla_core::image::Image;
use oppsla_core::oracle::{BatchClassifier, Classifier, Oracle};
use oppsla_eval::zoo::{Scale, ZooConfig};
use oppsla_nn::models::Arch;
use oppsla_server::protocol::{
    read_frame, write_frame, ImageSpec, JobOutcome, JobRequest, Request, Response,
};
use oppsla_server::session::digest_query_log;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Jobs in the op set.
const JOBS: usize = 100;
/// Oracle budget of every job. Jobs this short give a run many passes;
/// a budget of 500 adds no success on this op set.
const BUDGET: u64 = 200;
/// The daemon's attack test set: samples per class and dataset seed. The
/// client builds the same set to pick clean-correct indices and to run
/// the twins.
const TEST_PER_CLASS: usize = 20;
const TEST_SEED: u64 = crate::inproc::POOL_SEED;
/// Job `i` seeds its attack with `JOB_SEED + i`.
const JOB_SEED: u64 = crate::inproc::ATTACK_SEED;
/// The shard every job runs on, as the daemon labels it.
const SHARD: &str = "mlp/shapes32";
/// Socket timeout: a wedged daemon fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A spawned daemon; killed and reaped on drop unless shut down first.
struct Daemon {
    child: Child,
    addr: String,
    metrics_addr: String,
    // Held open so a late daemon stdout write never hits a closed pipe.
    stdout: Option<BufReader<ChildStdout>>,
}

impl Daemon {
    /// Spawns `oppsla_serverd` (built next to this binary) on ephemeral
    /// ports and waits for it to announce both addresses.
    fn spawn(config: &ZooConfig) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let path = exe.with_file_name("oppsla_serverd");
        let cache = config
            .cache_dir
            .as_ref()
            .expect("the benchmark caches weights");
        let child = Command::new(&path)
            .args(["--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0"])
            .args(["--train-per-class", &config.train_per_class.to_string()])
            .args(["--seed", &config.seed.to_string()])
            .arg("--cache-dir")
            .arg(cache)
            .args(["--test-per-class", &TEST_PER_CLASS.to_string()])
            .args(["--test-seed", &TEST_SEED.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", path.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            metrics_addr: String::new(),
            stdout: None,
        };
        let mut stdout = BufReader::new(daemon.child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        while daemon.addr.is_empty() || daemon.metrics_addr.is_empty() {
            line.clear();
            let n = stdout
                .read_line(&mut line)
                .map_err(|e| format!("daemon stdout: {e}"))?;
            if n == 0 {
                return Err("daemon exited before announcing its addresses".into());
            }
            let line = line.trim();
            if let Some(a) = line.strip_prefix("oppsla_serverd listening on ") {
                daemon.addr = a.to_owned();
            } else if let Some(a) = line.strip_prefix("oppsla_serverd metrics on http://") {
                daemon.metrics_addr = a.trim_end_matches("/metrics").to_owned();
            }
        }
        daemon.stdout = Some(stdout);
        Ok(daemon)
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn { stream })
    }

    /// The daemon's `/metrics` page, parsed.
    fn scrape(&self) -> Result<Scrape, String> {
        let mut s = TcpStream::connect(&self.metrics_addr)
            .map_err(|e| format!("connect {}: {e}", self.metrics_addr))?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
            .map_err(|e| format!("metrics request: {e}"))?;
        let mut page = String::new();
        s.read_to_string(&mut page)
            .map_err(|e| format!("metrics response: {e}"))?;
        let body = page
            .split_once("\r\n\r\n")
            .map(|(_, b)| b)
            .ok_or("metrics response has no body")?;
        Ok(Scrape::parse(body))
    }

    /// Asks the daemon to shut down and reaps it.
    fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        match conn.call(&Request::Shutdown)? {
            Response::ShuttingDown => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        let deadline = Instant::now() + IO_TIMEOUT;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let body = serde_json::to_string(req).map_err(|e| e.to_string())?;
        write_frame(&mut self.stream, &body).map_err(|e| format!("send: {e}"))?;
        let reply = read_frame(&mut self.stream)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("daemon closed the connection")?;
        serde_json::from_str(&reply).map_err(|e| format!("bad response: {e}"))
    }

    /// Runs one job, returning its outcome and client round-trip time.
    fn job(&mut self, req: &JobRequest) -> (Result<JobOutcome, String>, Duration) {
        let start = Instant::now();
        let reply = self.call(&Request::Attack(req.clone()));
        let elapsed = start.elapsed();
        let outcome = match reply {
            Ok(Response::Done(o)) => Ok(o),
            Ok(Response::Error(e)) => Err(format!("job refused: {e}")),
            Ok(other) => Err(format!("unexpected response {other:?}")),
            Err(e) => Err(e),
        };
        (outcome, elapsed)
    }
}

/// A histogram's cumulative `(upper bound, count)` pairs, ascending.
pub type Buckets = Vec<(u64, f64)>;

/// A parsed `/metrics` page: every sample by its full key.
#[derive(Debug, Default, Clone)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses the Prometheus text exposition.
    pub fn parse(page: &str) -> Scrape {
        Scrape(
            page.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.rsplit_once(' '))
                .filter_map(|(k, v)| Some((k.to_owned(), v.trim().parse().ok()?)))
                .collect(),
        )
    }

    /// The sum of every series of metric `name` (all label sets).
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Histogram `name`'s cumulative bucket counts as `(upper bound,
    /// count)`, ascending; `u64::MAX` stands for `+Inf`.
    pub fn buckets(&self, name: &str) -> Buckets {
        let prefix = format!("{name}_bucket{{");
        let mut out: Vec<(u64, f64)> = self
            .0
            .iter()
            .filter_map(|(k, v)| {
                let labels = k.strip_prefix(&prefix)?;
                let le = labels.split("le=\"").nth(1)?.split('"').next()?;
                let bound = if le == "+Inf" {
                    u64::MAX
                } else {
                    le.parse().ok()?
                };
                Some((bound, *v))
            })
            .collect();
        out.sort_by_key(|&(b, _)| b);
        out
    }
}

/// The nearest-rank `p`-th percentile of the observations histogram
/// `name` gained over `windows` (each a `(before, after)` scrape pair),
/// as the upper bound of the bucket it falls in. A page omits empty
/// buckets, so each page's count at a bound is its cumulative count at
/// the nearest listed bound below.
pub fn window_percentile(windows: &[(&Scrape, &Scrape)], name: &str, p: f64) -> Option<u64> {
    let cum_at = |bs: &[(u64, f64)], x: u64| {
        bs.iter()
            .take_while(|&&(le, _)| le <= x)
            .last()
            .map_or(0.0, |&(_, c)| c)
    };
    let pages: Vec<(Buckets, Buckets)> = windows
        .iter()
        .map(|(b, a)| (b.buckets(name), a.buckets(name)))
        .collect();
    let mut bounds: Vec<u64> = pages
        .iter()
        .flat_map(|(b, a)| b.iter().chain(a))
        .map(|&(le, _)| le)
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    let delta = |x: u64| -> f64 { pages.iter().map(|(b, a)| cum_at(a, x) - cum_at(b, x)).sum() };
    let total = delta(u64::MAX);
    if total < 1.0 {
        return None;
    }
    let rank = nearest_rank(total as usize, p) as f64;
    bounds.into_iter().find(|&le| delta(le) >= rank)
}

/// The in-process twin of job `i`: the same attack, seed and budget on an
/// isolated session, with the query log the daemon digests.
fn twin(
    classifier: &dyn Classifier,
    image: &Image,
    label: usize,
    i: usize,
) -> (JobOutcome, Duration) {
    let start = Instant::now();
    let mut oracle = Oracle::with_budget(classifier, BUDGET);
    oracle.enable_query_log();
    let attack = SketchProgramAttack::new(Program::paper_example());
    let mut rng = ChaCha8Rng::seed_from_u64(JOB_SEED + i as u64);
    let outcome = attack.attack(&mut oracle, image, label, &mut rng);
    let log = oracle.take_query_log();
    let elapsed = start.elapsed();
    let (status, location, pixel) = match &outcome {
        AttackOutcome::Success {
            location, pixel, ..
        } => (
            "success",
            Some([u64::from(location.row), u64::from(location.col)]),
            Some(pixel.0),
        ),
        AttackOutcome::Failure { .. } => ("failure", None, None),
        AttackOutcome::AlreadyMisclassified { .. } => ("already_misclassified", None, None),
    };
    let job = JobOutcome {
        status: status.into(),
        queries: outcome.queries(),
        location,
        pixel,
        log_len: log.len() as u64,
        memo_hits: 0,
        log_fnv: format!("{:016x}", digest_query_log(&log)),
    };
    (job, elapsed)
}

fn op_result(o: &JobOutcome) -> OpResult {
    let outcome = match (o.status.as_str(), o.location, o.pixel) {
        ("success", Some([row, col]), Some(rgb)) => crate::inproc::Outcome::Success {
            row: row as u16,
            col: col as u16,
            rgb: rgb.map(f32::to_bits),
        },
        ("already_misclassified", ..) => crate::inproc::Outcome::AlreadyMisclassified,
        _ => crate::inproc::Outcome::Failure,
    };
    OpResult {
        queries: o.queries,
        outcome,
    }
}

/// Runs the serve-mlp workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let config = ZooConfig {
        cache_dir: Some(args.cache_dir.clone()),
        ..ZooConfig::default()
    };
    // The client's own zoo load picks the clean-correct jobs and hosts
    // the twins.
    let (loaded, client_setup) = set_up_repeated(
        Arch::Mlp,
        Scale::Cifar,
        &config,
        TEST_PER_CLASS,
        TEST_SEED,
        JOBS,
    )?;
    let jobs: Vec<JobRequest> = loaded
        .indices
        .iter()
        .enumerate()
        .map(|(i, &index)| JobRequest {
            arch: "mlp".into(),
            scale: "shapes32".into(),
            image: ImageSpec {
                test_index: Some(index as u64),
                inline: None,
            },
            budget: BUDGET,
            program: None,
            seed: JOB_SEED + i as u64,
        })
        .collect();
    let session = loaded.classifier.session();
    let expected: Vec<JobOutcome> = loaded
        .images
        .iter()
        .enumerate()
        .map(|(i, (image, label))| twin(&*session, image, *label, i).0)
        .collect();
    drop(session);
    report.provenance_routes(loaded.model.network());

    // Every pass runs on a freshly spawned daemon, so each spawn is one
    // set-up repeat and every pass starts from the same daemon state. The
    // pass's job order is a shuffle drawn from the run seed.
    let mut bad = vec![false; JOBS];
    let mut times = PassTimes::new(JOBS);
    let mut passes: Vec<DaemonPass> = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let order = crate::inproc::pass_order(JOBS, args.seed, passes.len());
        let (pass, pass_times) = daemon_pass(&config, &jobs, &expected, &order, &mut bad)?;
        times.add_pass(&pass_times);
        passes.push(pass);
    }

    // Every pass's daemon-side deltas must match the client's tally.
    let queries: u64 = expected.iter().map(|o| o.queries).sum();
    for p in &passes {
        let (done, counted) = (p.delta("jobs_done"), p.delta("queries_total"));
        if done != JOBS as f64 || counted != queries as f64 {
            report.note(format!(
                "daemon counted {done} jobs / {counted} queries in a pass; client sent {JOBS} / {queries}"
            ));
            bad.iter_mut().for_each(|b| *b = true);
        }
    }
    let window = |name: &str| passes.iter().map(|p| p.delta(name)).sum::<f64>();
    let errored = window("jobs_errored");
    let rejected = window("jobs_rejected");
    let results: Vec<OpResult> = expected.iter().map(op_result).collect();
    for (r, b) in results.iter().zip(&mut bad) {
        if r.outcome == crate::inproc::Outcome::AlreadyMisclassified {
            *b = true;
        }
    }

    report.attempted = JOBS as u64;
    report.failed = bad.iter().filter(|&&b| b).count() as u64;
    report.note(format!(
        "{JOBS} jobs x {} passes; pass round trips (ms): {:.0?}",
        passes.len(),
        passes
            .iter()
            .map(|p| p.round_trip.as_secs_f64() * 1e3)
            .collect::<Vec<_>>()
    ));
    // Each job's minimum over the passes, as in process. With one tenant
    // the scheduler never coalesces two sessions' submissions, so every
    // pass does the same work.
    let op_ms = times.best_ms();
    let setup_s = median(&passes.iter().map(|p| p.ready + p.warm).collect::<Vec<_>>());
    let qps = queries as f64 / (op_ms.iter().sum::<f64>() / 1e3);
    fill_end_to_end(report, setup_s, &op_ms, &results, qps);
    let peak = passes.iter().map(|p| p.peak_rss_mb).fold(0.0, f64::max);
    report.end_to_end("peak_rss_mb", peak);

    if args.trace {
        setup_layer_metrics(report, &client_setup);
        let ready: Vec<f64> = passes.iter().map(|p| p.ready).collect();
        let warm: Vec<f64> = passes.iter().map(|p| p.warm).collect();
        report.layer("setup.daemon_ready_ms", median(&ready) * 1e3);
        report.layer("setup.shard_warm_ms", median(&warm) * 1e3);
        let twin = twin_passes(
            &loaded.classifier,
            &loaded.images,
            &expected,
            &mut bad,
            args,
        )?;
        report.failed = bad.iter().filter(|&&b| b).count() as u64;
        infer_layer_metrics(report, &results, twin.traced_time, &twin.tally);
        attack_layer_metrics(report, &["sketch"], &results);
        let compute_us = twin.untraced.total_s() * 1e6;
        report.layer("serve.compute_us_per_query", compute_us / queries as f64);
        // Per pass: daemon job time beyond twin compute, and client round
        // trip beyond daemon job time; the median of each over the passes.
        let per_pass =
            |f: &dyn Fn(&DaemonPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let sched = per_pass(&|p| (p.delta("job_latency_us_sum") - compute_us) / queries as f64);
        let wire = per_pass(&|p| {
            (p.round_trip.as_secs_f64() * 1e6 - p.delta("job_latency_us_sum")) / JOBS as f64
        });
        report.layer("serve.sched_us_per_query", sched);
        report.layer("serve.wire_us_per_job", wire);
        let shard = |name: &str| window(&format!("{name}{{shard=\"{SHARD}\"}}"));
        let windows: Vec<(&Scrape, &Scrape)> =
            passes.iter().map(|p| (&p.before, &p.after)).collect();
        if let Some(p50) = window_percentile(&windows, "sched_batch_size", 50.0) {
            report.layer("sched.batch_size_p50", p50 as f64);
        }
        let grouped = shard("sched_grouped_calls");
        let solo = shard("sched_solo_calls");
        report.layer("sched.grouped_share", grouped / (grouped + solo).max(1.0));
        let window_jobs = window("jobs_done").max(1.0);
        report.layer(
            "sched.coalesce_waits_per_job",
            shard("sched_coalesce_waits") / window_jobs,
        );
        let hits = shard("session_lru_hits");
        let lookups = hits + shard("session_lru_rebases") + shard("session_lru_colds");
        report.layer("session.lru_hit_share", hits / lookups.max(1.0));
        report.layer(
            "admission.waited_share",
            window("tenant_jobs_waited") / window("jobs_admitted").max(1.0),
        );
        report.layer("serve.jobs_errored", errored);
        report.layer("serve.jobs_rejected", rejected);
        report.layer(
            "trace.overhead_share",
            twin.traced.total_s() / twin.untraced.total_s() - 1.0,
        );
    }
    if errored != 0.0 || rejected != 0.0 {
        report.note(format!(
            "daemon errored {errored} and rejected {rejected} jobs"
        ));
        report.failed = report.failed.max(1);
    }
    Ok(())
}

/// One pass on its own daemon.
struct DaemonPass {
    /// Spawn until the first Ping is answered, in seconds.
    ready: f64,
    /// The warm-up job on the cold shard, in seconds.
    warm: f64,
    /// Summed client round trips of the pass's jobs.
    round_trip: Duration,
    /// `/metrics` before and after the pass's jobs.
    before: Scrape,
    after: Scrape,
    /// The daemon's peak RSS after the pass.
    peak_rss_mb: f64,
}

impl DaemonPass {
    /// What metric `name` gained during the pass.
    fn delta(&self, name: &str) -> f64 {
        self.after.sum(name) - self.before.sum(name)
    }
}

/// Spawns a daemon, times its set-up, runs every job once in `order` on
/// one tenant connection, and shuts it down. Marks jobs whose outcome
/// differs from their twin's in `bad`.
fn daemon_pass(
    config: &ZooConfig,
    jobs: &[JobRequest],
    expected: &[JobOutcome],
    order: &[usize],
    bad: &mut [bool],
) -> Result<(DaemonPass, Vec<Duration>), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(config)?;
    let mut conn = daemon.connect()?;
    match conn.call(&Request::Ping)? {
        Response::Pong => {}
        other => return Err(format!("ping answered {other:?}")),
    }
    let t1 = Instant::now();
    let (outcome, _) = conn.job(&jobs[0]);
    let t2 = Instant::now();
    if outcome.as_ref() != Ok(&expected[0]) {
        bad[0] = true;
    }
    let before = daemon.scrape()?;
    let mut times = vec![Duration::ZERO; jobs.len()];
    for &j in order {
        let (outcome, t) = conn.job(&jobs[j]);
        times[j] = t;
        if outcome.as_ref() != Ok(&expected[j]) {
            bad[j] = true;
        }
    }
    drop(conn);
    let after = daemon.scrape()?;
    let peak_rss_mb = peak_rss_mb(&daemon.child.id().to_string())?;
    daemon.shutdown()?;
    let pass = DaemonPass {
        ready: (t1 - t0).as_secs_f64(),
        warm: (t2 - t1).as_secs_f64(),
        round_trip: times.iter().sum(),
        before,
        after,
        peak_rss_mb,
    };
    Ok((pass, times))
}

/// Timed twin passes for the traced run.
struct TwinPasses {
    untraced: PassTimes,
    traced: PassTimes,
    /// Summed op time and inference tally of the fastest traced pass.
    traced_time: Duration,
    tally: InferTally,
}

/// Runs the twins in [`MIN_PASSES`] interleaved untraced and traced
/// passes, each on a fresh session, checking every outcome again.
fn twin_passes(
    classifier: &oppsla_eval::zoo::ZooClassifier,
    images: &[(Image, usize)],
    expected: &[JobOutcome],
    bad: &mut [bool],
    args: &Args,
) -> Result<TwinPasses, String> {
    let mut out = TwinPasses {
        untraced: PassTimes::new(images.len()),
        traced: PassTimes::new(images.len()),
        traced_time: Duration::MAX,
        tally: InferTally::default(),
    };
    for pass in 0..MIN_PASSES {
        let order = crate::inproc::pass_order(images.len(), args.seed, pass);
        for is_traced in [false, true] {
            let session = classifier.session();
            let wrapper = Traced::new(&*session);
            let target: &dyn Classifier = if is_traced { &wrapper } else { &*session };
            let mut t = vec![Duration::ZERO; images.len()];
            for &i in &order {
                let (image, label) = &images[i];
                let (o, dt) = twin(target, image, *label, i);
                if o != expected[i] {
                    bad[i] = true;
                }
                t[i] = dt;
            }
            let total: Duration = t.iter().sum();
            if is_traced {
                out.traced.add_pass(&t);
                if total < out.traced_time {
                    out.traced_time = total;
                    out.tally = wrapper.take();
                }
            } else {
                out.untraced.add_pass(&t);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = "\
# TYPE jobs_done counter
jobs_done 7
# TYPE sched_batch_size histogram
sched_batch_size_bucket{shard=\"mlp/shapes32\",le=\"1\"} 4
sched_batch_size_bucket{shard=\"mlp/shapes32\",le=\"3\"} 6
sched_batch_size_bucket{shard=\"mlp/shapes32\",le=\"+Inf\"} 6
sched_batch_size_sum{shard=\"mlp/shapes32\"} 9
tenant_jobs_waited{tenant=\"t0\"} 2
tenant_jobs_waited{tenant=\"t1\"} 3
tenant_jobs_waited_total 100
";

    #[test]
    fn scrape_sums_series_of_one_name() {
        let s = Scrape::parse(PAGE);
        assert_eq!(s.sum("jobs_done"), 7.0);
        assert_eq!(
            s.sum("tenant_jobs_waited"),
            5.0,
            "a longer name is another metric"
        );
        assert_eq!(s.sum("sched_batch_size_sum"), 9.0);
        assert_eq!(s.sum("absent"), 0.0);
    }

    #[test]
    fn window_percentile_diffs_cumulative_buckets() {
        // The earlier page omits the then-empty le=3 and le=7 buckets.
        let before = Scrape::parse(
            "sched_batch_size_bucket{shard=\"mlp/shapes32\",le=\"1\"} 4\n\
             sched_batch_size_bucket{shard=\"mlp/shapes32\",le=\"+Inf\"} 4\n",
        );
        let after = Scrape::parse(
            "sched_batch_size_bucket{shard=\"mlp/shapes32\",le=\"1\"} 8\n\
             sched_batch_size_bucket{shard=\"mlp/shapes32\",le=\"3\"} 9\n\
             sched_batch_size_bucket{shard=\"mlp/shapes32\",le=\"7\"} 20\n\
             sched_batch_size_bucket{shard=\"mlp/shapes32\",le=\"+Inf\"} 20\n",
        );
        // Window: 4 at <=1, 1 in (1, 3], 11 in (3, 7]: 16 observations.
        let p = |q| window_percentile(&[(&before, &after)], "sched_batch_size", q);
        assert_eq!(p(25.0), Some(1));
        assert_eq!(p(30.0), Some(3));
        assert_eq!(p(50.0), Some(7));
        assert_eq!(p(100.0), Some(7));
        assert_eq!(
            window_percentile(&[(&before, &before)], "sched_batch_size", 50.0),
            None
        );
        // Windows add: two copies double every count and keep the median.
        let twice = [(&before, &after), (&before, &after)];
        assert_eq!(window_percentile(&twice, "sched_batch_size", 50.0), Some(7));
    }
}
