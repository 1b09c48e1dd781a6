//! The OPPSLA benchmark: end-to-end and per-layer numbers for the
//! in-process attack path and the attack daemon.
//!
//! ```text
//! oppsla-perfbench --workload <attack-densenet64|serve-mlp>
//!                  --seed N --seconds S --trace <0|1>
//!                  [--cache-dir DIR] [--git-rev REV]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — every end-to-end metric with `--trace 0`,
//! every per-layer metric with `--trace 1`. The line before it carries
//! the run's provenance. See `perfbench/README.md`.

mod inproc;
mod serve;
mod stats;
mod traced;

use oppsla_eval::zoo::Scale;
use oppsla_nn::models::{Arch, ConvNet};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("queries_per_s", "1/s"),
    ("success_rate", "share"),
    ("queries_per_success", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload bypasses reads 0 there (see the README's layer map).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.zoo_load_ms", "ms"),
    ("setup.compile_ms", "ms"),
    ("setup.testset_ms", "ms"),
    ("setup.filter_ms", "ms"),
    ("infer.full.calls", "count"),
    ("infer.full.us_per_call", "us"),
    ("infer.delta.calls", "count"),
    ("infer.delta.us_per_call", "us"),
    ("infer.delta_batch.calls", "count"),
    ("infer.delta_batch.candidates", "count"),
    ("infer.delta_batch.us_per_candidate", "us"),
    ("infer.busy_share", "share"),
    ("infer.useful_share", "share"),
    ("attack.self_us_per_query", "us"),
    ("attack.sketch.queries", "count"),
    ("attack.sketch.successes", "count"),
    ("attack.sparse-rs.queries", "count"),
    ("attack.sparse-rs.successes", "count"),
    ("attack.suopa.queries", "count"),
    ("attack.suopa.successes", "count"),
    ("trace.overhead_share", "share"),
    ("setup.daemon_ready_ms", "ms"),
    ("setup.shard_warm_ms", "ms"),
    ("serve.compute_us_per_query", "us"),
    ("serve.sched_us_per_query", "us"),
    ("serve.wire_us_per_job", "us"),
    ("sched.batch_size_p50", "count"),
    ("sched.grouped_share", "share"),
    ("sched.coalesce_waits_per_job", "count"),
    ("session.lru_hit_share", "share"),
    ("admission.waited_share", "share"),
    ("serve.jobs_errored", "count"),
    ("serve.jobs_rejected", "count"),
];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed the run's inputs derive from.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Weight-cache directory shared by every run in a checkout.
    pub cache_dir: PathBuf,
    /// Source revision, for provenance only.
    pub git_rev: String,
    /// Only train and cache the workload's model (the child process
    /// [`prime`] spawns).
    pub prime: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        while let Some(key) = argv.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = argv.next().ok_or_else(|| format!("{key} needs a value"))?;
            map.insert(name.to_owned(), value);
        }
        let mut take = |k: &str| map.remove(k);
        let req = |v: Option<String>, k: &str| v.ok_or_else(|| format!("--{k} is required"));
        let workload = req(take("workload"), "workload")?;
        let seed = req(take("seed"), "seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = req(take("seconds"), "seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        let trace = match req(take("trace"), "trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
        };
        let cache_dir = PathBuf::from(
            take("cache-dir").unwrap_or_else(|| ".bench_build/perfbench-models".into()),
        );
        let git_rev = take("git-rev").unwrap_or_else(|| "unknown".into());
        let prime = take("prime").is_some_and(|v| v == "1");
        if let Some(k) = map.keys().next() {
            return Err(format!("unknown option --{k}"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            cache_dir,
            git_rev,
            prime,
        })
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    /// Ops the run attempted (its op set, counted once).
    pub attempted: u64,
    /// Ops that errored, were refused, or failed a correctness gate.
    pub failed: u64,
    end_to_end: BTreeMap<&'static str, f64>,
    per_layer: BTreeMap<String, f64>,
    provenance: Vec<(&'static str, String)>,
    notes: Vec<String>,
}

impl Report {
    /// Records end-to-end metric `name`.
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unlisted end-to-end metric {name}"
        );
        self.end_to_end.insert(name, value);
    }

    /// Records per-layer metric `name`.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted per-layer metric {name}"
        );
        self.per_layer.insert(name, value);
    }

    /// Adds a free-form line to the provenance record.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records the route fingerprint of a sibling compile of `net`: the
    /// tuner picks routes on best-of-2 timings at compile time, so two
    /// compiles of one network can differ, and a bimodal run can be
    /// traced to the routes it ran.
    pub fn provenance_routes(&mut self, net: &ConvNet) {
        let engine = oppsla_nn::infer::InferenceEngine::new(net);
        let full: Vec<&str> = engine
            .plan()
            .tuner_report()
            .iter()
            .map(|d| d.route())
            .collect();
        let delta: Vec<String> = engine
            .delta_plan()
            .tuner_report()
            .iter()
            .map(|d| d.route())
            .collect();
        self.provenance.push(("routes_full", full.join(",")));
        self.provenance.push(("routes_delta", delta.join(",")));
    }

    /// The final stdout line.
    fn result_line(&self, trace: bool) -> String {
        let (list, values): (Vec<&(&str, &str)>, BTreeMap<&str, f64>) = if trace {
            let values: BTreeMap<&str, f64> = self
                .per_layer
                .iter()
                .map(|(k, v)| (k.as_str(), *v))
                .collect();
            (PER_LAYER.iter().collect(), values)
        } else {
            (END_TO_END.iter().collect(), self.end_to_end.clone())
        };
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = Vec::with_capacity(list.len());
        for (name, unit) in list {
            assert!(stats::valid_metric_name(name) && stats::valid_unit(unit));
            // A layer the workload bypasses reads 0; an end-to-end metric
            // must always be measured, and every value must be finite.
            let value = values.get(name).copied().or(trace.then_some(0.0));
            correct &= value.is_some_and(f64::is_finite);
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value.filter(|v| v.is_finite()).unwrap_or(0.0))
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The provenance line printed before the result.
    fn provenance_line(&self, args: &Args) -> String {
        let mut fields = vec![
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("simd", oppsla_tensor::gemm::simd_isa().to_owned()),
            (
                "gemm_threads",
                oppsla_tensor::gemm::gemm_threads().to_string(),
            ),
            ("tune", format!("{:?}", oppsla_nn::tune::policy())),
            ("git_rev", args.git_rev.clone()),
        ];
        fields.extend(self.provenance.iter().cloned());
        let mut body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", json_escape(v)))
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect();
        body.push(format!("\"notes\": [{}]", notes.join(", ")));
        let e2e: Vec<String> = self
            .end_to_end
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
            .collect();
        body.push(format!("\"end_to_end\": {{{}}}", e2e.join(", ")));
        format!("{{\"provenance\": {{{}}}}}", body.join(", "))
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Peak resident set size of process `pid` (`self` for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

/// Pins the calling thread to the highest-numbered CPU it may run on, and
/// so every thread and process started from it afterwards (the daemons of
/// serve-mlp too). Each candidate of a served job crosses from a
/// connection thread to a scheduler worker and back; on a 2-vCPU VM a
/// wake-up on the other CPU costs several times one on the same CPU, and
/// which CPU the OS picked changed from pass to pass, so unpinned passes
/// of the same jobs took 0.9-2.4 s and pinned ones 0.43-0.63 s.
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the kernel writes at most `size` bytes into `mask`.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask is empty")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes from `one`.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// A workload: one in-process roster run, or the daemon.
enum Workload {
    InProcess(inproc::Spec),
    Serve,
}

impl Workload {
    fn named(name: &str) -> Result<Workload, String> {
        Ok(match name {
            // Conv inference dominates; single-candidate delta (sketch)
            // and speculative batched delta (Sparse-RS, SuOPA) split it.
            // At 64x64 a one-pixel dirty region is a small share of each
            // map, and concat rect algebra joins the dense blocks.
            "attack-densenet64" => Workload::InProcess(inproc::Spec {
                arch: Arch::DenseNetSmall,
                scale: Scale::ImageNetLike,
                pool_per_class: 4,
                images: 34,
                budget: 500,
            }),
            // mlp inference is ~10 us per candidate with no conv, so the
            // daemon's per-candidate handoff, framing and admission
            // dominate.
            "serve-mlp" => Workload::Serve,
            other => {
                return Err(format!(
                    "unknown workload {other:?} (attack-densenet64, serve-mlp)"
                ))
            }
        })
    }

    /// The zoo model the workload attacks.
    fn model(&self) -> (Arch, Scale) {
        match self {
            Workload::InProcess(spec) => (spec.arch, spec.scale),
            Workload::Serve => (Arch::Mlp, Scale::Cifar),
        }
    }
}

fn run(args: &Args, workload: &Workload, report: &mut Report) -> Result<(), String> {
    match workload {
        Workload::InProcess(spec) => {
            inproc::run(spec, args, report)?;
            report.end_to_end("peak_rss_mb", peak_rss_mb("self")?);
        }
        Workload::Serve => serve::run(args, report)?,
    }
    Ok(())
}

/// Trains and caches the workload's model in a child process when the
/// cache is cold, so training never touches the measured process (its
/// peak RSS included).
fn prime(args: &Args, workload: &Workload) -> Result<(), String> {
    if args.prime {
        let (arch, scale) = workload.model();
        let config = oppsla_eval::zoo::ZooConfig {
            cache_dir: Some(args.cache_dir.clone()),
            ..oppsla_eval::zoo::ZooConfig::default()
        };
        oppsla_eval::zoo::train_or_load(arch, scale, &config);
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(std::env::args().skip(1))
        .args(["--prime", "1"])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("priming: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("priming the weight cache failed: {status}"))
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oppsla-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // One worker thread: the attack path's own parallelism is not
    // measured here (see the README).
    oppsla_tensor::gemm::set_gemm_threads(1);
    let mut report = Report::default();
    // Counted before pinning, which narrows it to 1.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    report.provenance.push(("nproc", nproc.to_string()));
    match pin_to_one_cpu() {
        Ok(cpu) => report.provenance.push(("cpu", cpu.to_string())),
        Err(e) => {
            eprintln!("oppsla-perfbench: pinning to one CPU: {e}");
            std::process::exit(1);
        }
    }
    let outcome = Workload::named(&args.workload).and_then(|w| {
        prime(&args, &w)?;
        if args.prime {
            std::process::exit(0);
        }
        run(&args, &w, &mut report)
    });
    if let Err(e) = outcome {
        eprintln!("oppsla-perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    println!("{}", report.provenance_line(&args));
    println!("{}", report.result_line(args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listed_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::valid_metric_name(name), "bad name {name:?}");
            assert!(stats::valid_unit(unit), "bad unit {unit:?}");
            assert!(seen.insert(*name), "duplicate name {name:?}");
        }
    }

    /// BENCHMARK.json at the repository root lists exactly these metrics.
    #[test]
    fn benchmark_json_matches_the_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let listed = compact.matches("\"name\":").count();
        let workloads = compact.matches("\"why\":").count();
        assert_eq!(
            listed - workloads,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists metrics the benchmark does not report"
        );
    }

    #[test]
    fn result_line_reports_every_listed_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.end_to_end(name, 1.25);
        }
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.25, \"unit\": \"{unit}\"}}"
            )));
        }
        // Bypassed layers read 0 in the traced line.
        let traced = r.result_line(true);
        for (name, unit) in PER_LAYER {
            assert!(traced.contains(&format!(
                "\"{name}\": {{\"value\": 0.0, \"unit\": \"{unit}\"}}"
            )));
        }
        r.layer("serve.jobs_rejected", 2.0);
        assert!(r
            .result_line(true)
            .contains("\"serve.jobs_rejected\": {\"value\": 2.0, \"unit\": \"count\"}"));
        // A missing end-to-end metric or a failed op makes the run incorrect.
        let mut partial = Report {
            attempted: 3,
            ..Report::default()
        };
        partial.end_to_end("setup_s", 1.0);
        assert!(partial
            .result_line(false)
            .starts_with("{\"correct\": false"));
        r.failed = 1;
        assert!(r.result_line(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn args_reject_bad_input() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        assert!(parse("--workload w --seed 1 --seconds 2 --trace 0").is_ok());
        assert!(parse("--workload w --seed 1 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload w --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload w --seed 1 --trace 0").is_err());
        assert!(parse("--workload w --seed 1 --seconds 2 --trace 0 --bogus 1").is_err());
    }
}
