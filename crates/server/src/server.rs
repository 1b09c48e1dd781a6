//! The daemon: TCP accept loop, per-connection framing, and admission
//! control.
//!
//! Each connection gets its own thread reading [`Request`] frames and
//! answering with exactly one [`Response`] frame per request. Attack
//! jobs pass through an admission gate (bounded active + bounded
//! waiting) before they may submit work to the shared scheduler, so a
//! burst of tenants degrades into queueing and then *explicit* rejection
//! — never into unbounded memory growth or a dead daemon.
//!
//! Connection threads also do the model work: each job's queries go
//! through the scheduler, which runs them on the submitting thread
//! (merged with other tenants' pending queries) whenever fewer than
//! `workers` threads are dispatching and no open batch can take the query,
//! and otherwise parks the thread on its reply slot until another
//! dispatcher answers it — so a tenant past that cap costs one parked
//! thread, not a core.

use crate::metrics::{ServerMetrics, TenantMetrics};
use crate::metrics_http::MetricsServer;
use crate::protocol::{
    read_frame, write_frame, FrameError, JobRequest, Request, Response, SlowJob, StatsReport,
};
use crate::scheduler::{Scheduler, SchedulerConfig, SchedulerHandle};
use crate::zoo::ShardedZoo;
use oppsla_eval::zoo::ZooConfig;
use oppsla_obs::metrics::Gauge;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Scheduler sizing.
    pub scheduler: SchedulerConfig,
    /// Zoo training/caching configuration.
    pub zoo: ZooConfig,
    /// Attack test set size per class, per shard.
    pub test_per_class: usize,
    /// Attack test set seed.
    pub test_seed: u64,
    /// Jobs allowed to run concurrently; further jobs wait.
    pub max_active_jobs: usize,
    /// Jobs allowed to wait for a slot; further jobs are rejected with
    /// an error response.
    pub max_waiting_jobs: usize,
    /// Share a cross-tenant query memo per model shard (see
    /// [`crate::session::ShardMemos`]). Off by default: with a shared
    /// memo a job's query count and `log_fnv` digest depend on other
    /// tenants' history, so determinism-witness deployments must leave
    /// this disabled.
    pub memo: bool,
    /// Run the live metrics plane (see [`crate::metrics`]). On by
    /// default; the plane is passive (write-only from the job path), so
    /// disabling it changes overhead only, never outcomes — CI A/B-tests
    /// that `log_fnv` digests match across this switch.
    pub metrics: bool,
    /// Bind address for the plaintext `/metrics` listener, or `None` for
    /// no HTTP exposition (the `Stats` frame still works). Ignored when
    /// `metrics` is off.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig::default(),
            zoo: ZooConfig::default(),
            test_per_class: 4,
            test_seed: 9,
            max_active_jobs: 16,
            max_waiting_jobs: 64,
            memo: false,
            metrics: true,
            metrics_addr: None,
        }
    }
}

/// Bounded two-stage admission: `max_active` jobs run, `max_waiting`
/// wait, the rest are rejected immediately.
struct Admission {
    state: Mutex<AdmissionState>,
    cv: Condvar,
    max_active: usize,
    max_waiting: usize,
    /// `(jobs_active, jobs_waiting)` gauges, mirrored on every state
    /// transition (under the admission mutex, so readers never see an
    /// inconsistent pair). `None` when metrics are disabled.
    gauges: Option<(Arc<Gauge>, Arc<Gauge>)>,
}

struct AdmissionState {
    active: usize,
    waiting: usize,
}

impl Admission {
    fn new(
        max_active: usize,
        max_waiting: usize,
        gauges: Option<(Arc<Gauge>, Arc<Gauge>)>,
    ) -> Self {
        Admission {
            state: Mutex::new(AdmissionState {
                active: 0,
                waiting: 0,
            }),
            cv: Condvar::new(),
            max_active: max_active.max(1),
            max_waiting,
            gauges,
        }
    }

    fn mirror(&self, st: &AdmissionState) {
        if let Some((active, waiting)) = &self.gauges {
            active.set(st.active as i64);
            waiting.set(st.waiting as i64);
        }
    }

    /// Blocks until a slot is free, or rejects when the waiting room is
    /// full. On `Ok` the caller holds a slot and must call
    /// [`Admission::release`]; the `bool` reports whether the job had to
    /// wait for it.
    fn admit(&self) -> Result<bool, String> {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if st.active < self.max_active {
            st.active += 1;
            self.mirror(&st);
            return Ok(false);
        }
        if st.waiting >= self.max_waiting {
            return Err(format!(
                "server at capacity: {} jobs active, {} waiting",
                st.active, st.waiting
            ));
        }
        st.waiting += 1;
        self.mirror(&st);
        while st.active >= self.max_active {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        st.waiting -= 1;
        st.active += 1;
        self.mirror(&st);
        Ok(true)
    }

    fn release(&self) {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        st.active = st.active.saturating_sub(1);
        self.mirror(&st);
        drop(st);
        self.cv.notify_one();
    }

    /// Admits one job and runs `job` in its slot, passing whether it had
    /// to wait. The outer `Err` is a rejection at the door. The slot is
    /// released however `job` ends, and a panic inside it comes back as
    /// `Ok(Err(message))`, so one poisoned job can neither leak a slot
    /// nor take its connection down.
    fn run<T>(
        &self,
        job: impl FnOnce(bool) -> Result<T, String>,
    ) -> Result<Result<T, String>, String> {
        struct Slot<'a>(&'a Admission);
        impl Drop for Slot<'_> {
            fn drop(&mut self) {
                self.0.release();
            }
        }
        let waited = self.admit()?;
        let _slot = Slot(self);
        Ok(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(waited)))
                .unwrap_or_else(|panic| Err(format!("job panicked: {}", panic_message(&*panic)))),
        )
    }
}

/// The message of a caught panic payload (`panic!` with a literal or a
/// formatted string), or a placeholder for any other payload type.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

struct Shared {
    zoo: Arc<ShardedZoo>,
    handle: SchedulerHandle,
    admission: Admission,
    /// Per-shard cross-tenant memos; `None` when the deployment did not
    /// opt in.
    memos: Option<crate::session::ShardMemos>,
    /// The live metrics plane; `None` when the deployment disabled it.
    metrics: Option<Arc<ServerMetrics>>,
    /// Set by a `Shutdown` request or [`Server::request_shutdown`].
    shutdown: AtomicBool,
    /// Live connection threads (accept loop + drain accounting).
    connections: AtomicUsize,
}

/// A running attack daemon.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    scheduler: Option<Scheduler>,
    metrics_http: Option<MetricsServer>,
}

impl Server {
    /// Binds `cfg.addr` and starts the accept loop and scheduler.
    ///
    /// # Errors
    ///
    /// Returns an error when the address cannot be bound.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let metrics = cfg.metrics.then(|| Arc::new(ServerMetrics::new()));
        let zoo = Arc::new(ShardedZoo::new(
            cfg.zoo.clone(),
            cfg.test_per_class,
            cfg.test_seed,
        ));
        if let Some(m) = &metrics {
            zoo.set_train_counter(Arc::clone(&m.zoo_shard_trains));
        }
        let metrics_http = match (&metrics, &cfg.metrics_addr) {
            (Some(m), Some(addr)) => Some(MetricsServer::start(addr, Arc::clone(m))?),
            _ => None,
        };
        let scheduler =
            Scheduler::start_with_metrics(Arc::clone(&zoo), cfg.scheduler.clone(), metrics.clone());
        let admission_gauges = metrics
            .as_ref()
            .map(|m| (Arc::clone(&m.jobs_active), Arc::clone(&m.jobs_waiting)));
        let shared = Arc::new(Shared {
            zoo,
            handle: scheduler.handle(),
            admission: Admission::new(cfg.max_active_jobs, cfg.max_waiting_jobs, admission_gauges),
            memos: cfg.memo.then(crate::session::ShardMemos::default),
            metrics,
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("server-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(Server {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
            scheduler: Some(scheduler),
            metrics_http,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's model zoo (shared with the scheduler): lets
    /// in-process harnesses (the load test's single-session baseline)
    /// reuse the resident shards instead of retraining them.
    pub fn zoo(&self) -> Arc<ShardedZoo> {
        Arc::clone(&self.shared.zoo)
    }

    /// The live metrics plane, when the deployment enabled one. The
    /// daemon reads this on the shutdown path to flush a final snapshot.
    pub fn metrics(&self) -> Option<Arc<ServerMetrics>> {
        self.shared.metrics.clone()
    }

    /// The bound `/metrics` listener address (resolves port 0), when the
    /// deployment asked for HTTP exposition.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_http.as_ref().map(MetricsServer::local_addr)
    }

    /// True once a shutdown has been requested (by a client frame or
    /// [`Server::request_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown from within the process (same effect as a
    /// client's `Shutdown` frame).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until shutdown is requested, then drains: stops accepting,
    /// waits for connection threads to finish their in-flight requests,
    /// and closes the scheduler.
    pub fn wait(mut self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.drain();
    }

    fn drain(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        while self.shared.connections.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(s) = self.scheduler.take() {
            s.shutdown();
        }
        // The exposition listener outlives the job path on purpose: a
        // scraper can still read the final counters while connections
        // drain; it stops only once everything it reports is settled.
        if let Some(mut m) = self.metrics_http.take() {
            m.stop();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Responses are small request-reply frames; waiting for
                // ACKs to batch them only adds delayed-ACK latency.
                stream.set_nodelay(true).ok();
                let conn = Connection::open(shared);
                // On thread exhaustion `spawn` drops the closure, and with
                // it the guard: the connection is shed, the daemon keeps
                // serving.
                let _ = std::thread::Builder::new()
                    .name("server-conn".into())
                    .spawn(move || serve_connection(stream, &conn.0));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One live connection thread, counted from accept until the guard drops
/// — when the thread ends, even by a panic, or when it never started.
/// [`Server::drain`] waits for the count to reach zero.
struct Connection(Arc<Shared>);

impl Connection {
    fn open(shared: &Arc<Shared>) -> Self {
        shared.connections.fetch_add(1, Ordering::SeqCst);
        if let Some(m) = &shared.metrics {
            m.connections.inc();
        }
        Connection(Arc::clone(shared))
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        // This thread also ran scheduler batches: merge its buffered
        // telemetry while `drain` still waits on it.
        oppsla_core::telemetry::flush();
        oppsla_core::telemetry::trace::flush();
        if let Some(m) = &self.0.metrics {
            m.connections.dec();
        }
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    // One tenant per connection, labelled in accept order. Registered
    // lazily on the first attack job so Ping/Stats-only connections
    // (probes, `server_top`) never mint a tenant series.
    let mut tenant: Option<TenantMetrics> = None;
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            // Clean hang-up between frames.
            Ok(None) => return,
            Err(e @ (FrameError::TooLong(_) | FrameError::NotUtf8)) => {
                // The stream position is still frame-aligned only for
                // TooLong/NotUtf8 if we abandoned the payload — we did
                // not consume it, so answer once and close.
                let _ = respond(&mut stream, &Response::Error(e.to_string()));
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        let request: Request = match serde_json::from_str(&payload) {
            Ok(r) => r,
            Err(e) => {
                // JSON-level garbage leaves the framing intact: answer
                // and keep the connection.
                if respond(&mut stream, &Response::Error(format!("bad request: {e}"))).is_err() {
                    return;
                }
                continue;
            }
        };
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(match &shared.metrics {
                Some(m) => m.snapshot(),
                // Metrics disabled: an empty report, not an error, so
                // pollers need no capability probe.
                None => StatsReport {
                    uptime_ms: 0,
                    metrics: Vec::new(),
                    slow_jobs: Vec::new(),
                },
            }),
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = respond(&mut stream, &Response::ShuttingDown);
                return;
            }
            Request::Attack(job) => {
                if tenant.is_none() {
                    tenant = shared.metrics.as_ref().map(|m| m.tenant());
                }
                serve_attack(shared, tenant.as_ref(), &job)
            }
        };
        if respond(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Admission, the job itself, and — purely passively — the metrics
/// plane's accounting around it: counters, the end-to-end latency
/// histogram, and the slow-request log. Every metrics touch is
/// write-only, after the corresponding decision was already made. A job
/// that panics is answered with an error frame like any failed job.
fn serve_attack(shared: &Shared, tenant: Option<&TenantMetrics>, job: &JobRequest) -> Response {
    let ran = shared.admission.run(|waited| {
        let started = Instant::now();
        if let (Some(m), Some(t)) = (&shared.metrics, tenant) {
            m.jobs_admitted.inc();
            t.jobs_admitted.inc();
            if waited {
                t.jobs_waited.inc();
            }
            t.budget_granted.add(job.budget);
        }
        crate::session::run_job(&shared.handle, &shared.zoo, job, shared.memos.as_ref())
            .map(|done| (done, started.elapsed()))
    });
    match ran {
        Err(reason) => {
            if let (Some(m), Some(t)) = (&shared.metrics, tenant) {
                m.jobs_rejected.inc();
                t.jobs_rejected.inc();
            }
            Response::Error(reason)
        }
        Ok(Ok((done, wall))) => {
            if let (Some(m), Some(t)) = (&shared.metrics, tenant) {
                let wall_us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
                m.jobs_done.inc();
                m.queries_total.add(done.outcome.queries);
                m.memo_hits_total.add(done.outcome.memo_hits);
                m.job_latency_us.observe(wall_us);
                t.jobs_done.inc();
                t.queries.add(done.outcome.queries);
                t.memo_hits.add(done.outcome.memo_hits);
                t.budget_unspent
                    .add(job.budget.saturating_sub(done.outcome.queries));
                m.record_slow(SlowJob {
                    tenant: t.id.clone(),
                    arch: job.arch.clone(),
                    scale: job.scale.clone(),
                    status: done.outcome.status.clone(),
                    queries: done.outcome.queries,
                    full_queries: done.full_queries,
                    delta_queries: done.delta_queries,
                    memo_hits: done.outcome.memo_hits,
                    wall_us,
                    budget: job.budget,
                });
            }
            Response::Done(done.outcome)
        }
        Ok(Err(e)) => {
            if let (Some(m), Some(t)) = (&shared.metrics, tenant) {
                m.jobs_errored.inc();
                t.jobs_errored.inc();
            }
            Response::Error(e)
        }
    }
}

fn respond(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let json = serde_json::to_string(response)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(stream, &json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_runs_then_queues_then_rejects() {
        let adm = Admission::new(1, 1, None);
        assert!(!adm.admit().unwrap(), "free slot: no wait"); // active
        let adm = Arc::new(adm);
        let waiter = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || adm.admit())
        };
        // Give the waiter time to enter the waiting room, then a third
        // job must be rejected outright.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let waiting = {
                let st = adm.state.lock().unwrap();
                st.waiting
            };
            if waiting == 1 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "waiter never queued");
            std::thread::sleep(Duration::from_millis(1));
        }
        let err = adm.admit().unwrap_err();
        assert!(err.contains("capacity"), "{err}");
        adm.release();
        assert!(
            waiter.join().unwrap().unwrap(),
            "the queued job reports that it waited"
        );
        adm.release();
        assert!(adm.admit().is_ok(), "slots free again after releases");
    }

    #[test]
    fn a_panicking_job_errors_and_releases_its_slot() {
        let registry = oppsla_obs::metrics::Registry::new();
        let active = registry.gauge("jobs_active", &[]);
        let waiting = registry.gauge("jobs_waiting", &[]);
        let adm = Admission::new(1, 0, Some((Arc::clone(&active), waiting)));
        let ran: Result<Result<(), String>, String> = adm.run(|_| panic!("poisoned classifier"));
        let err = ran
            .expect("the job was admitted")
            .expect_err("a panic is an error");
        assert!(err.contains("poisoned classifier"), "{err}");
        assert_eq!(active.get(), 0, "the slot was released");
        assert!(!adm.admit().unwrap(), "the next job is admitted at once");
    }

    #[test]
    fn admission_mirrors_its_gauges() {
        let registry = oppsla_obs::metrics::Registry::new();
        let active = registry.gauge("jobs_active", &[]);
        let waiting = registry.gauge("jobs_waiting", &[]);
        let adm = Admission::new(2, 4, Some((Arc::clone(&active), Arc::clone(&waiting))));
        adm.admit().unwrap();
        adm.admit().unwrap();
        assert_eq!(active.get(), 2);
        assert_eq!(waiting.get(), 0);
        adm.release();
        assert_eq!(active.get(), 1);
        adm.release();
        assert_eq!(active.get(), 0, "gauge drains to zero with the jobs");
    }
}
