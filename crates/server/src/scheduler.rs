//! The cross-session batch scheduler — the server's tentpole.
//!
//! Every tenant session funnels its candidate queries through one shared
//! queue, and the tenants' own threads do the model work (caller-runs
//! dispatch, a form of flat combining). A submitter that finds fewer than
//! [`SchedulerConfig::workers`] dispatchers running becomes one: it takes
//! the *front* submission, *merges* any other pending submissions against
//! the same model shard, and dispatches them as one multi-base grouped
//! call ([`OwnedZooSession::scores_pixel_delta_grouped_into`]) on a
//! session checked out of a per-shard pool, until its own submission is
//! answered. Other submitters wait on their own reusable reply slots. A
//! delta submission joins a same-shard batch another dispatcher is holding
//! open rather than taking a free turn, and a dispatcher that leaves with
//! work pending hands its turn to the submitter at the front of the
//! queue. So a lone tenant serves its own queries on its own thread, with
//! no thread handoff at all.
//!
//! Candidates from different tenants — even attacking different images —
//! share one im2col + GEMM pass. The grouped entry point is bit-identical
//! per candidate to an isolated sequential query by construction, so
//! packing changes *throughput only*: per-tenant scores, query counts,
//! and query logs are exactly those of a private session (the scheduler
//! equivalence tests assert this byte-for-byte).
//!
//! Pooled sessions hold a base-snapshot LRU sized to the merge width, so
//! interleaving tenants does not rebase-thrash a single-slot cache. A
//! model call that panics is caught and its session discarded; a merged
//! batch is re-run one submission at a time, so only the submission at
//! fault fails (on its own submitter's thread).

use crate::metrics::{ServerMetrics, ShardMetrics};
use crate::zoo::{ShardKey, ShardedZoo};
use oppsla_core::image::Image;
use oppsla_core::oracle::Classifier;
use oppsla_core::pair::{Location, Pixel};
use oppsla_core::telemetry;
use oppsla_eval::zoo::{DeltaGroup, OwnedZooSession, SessionCacheStats};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Scheduler sizing.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Maximum submitting threads dispatching model work at once.
    pub workers: usize,
    /// Maximum tenant submissions merged into one grouped call. Also the
    /// pooled sessions' cache capacity, so a merged call can never touch
    /// more distinct bases than the LRU holds.
    pub max_merge: usize,
    /// How long a dispatcher may hold an under-full delta batch waiting
    /// for more tenants' submissions to arrive. Zero dispatches
    /// immediately. Waiting only happens while more sessions are live
    /// than the batch already covers, so a lone tenant never pays it;
    /// grouping changes throughput only, never scores (see module docs),
    /// so this trades bounded latency for merge depth with no effect on
    /// results.
    pub coalesce: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 2,
            max_merge: 8,
            coalesce: Duration::from_micros(200),
        }
    }
}

/// One unit of classifier work a tenant submitted.
enum Work {
    /// A full forward (baseline queries).
    Full(Image),
    /// One-pixel candidates against a shared base.
    Delta {
        base: Arc<Image>,
        candidates: Vec<(Location, Pixel)>,
    },
}

struct Submission {
    shard: ShardKey,
    work: Work,
    slot: Arc<Slot>,
    /// The submitter holds a dispatcher turn, so must not be handed one.
    owner_dispatching: bool,
}

/// A tenant's reply slot, reused for every submission it makes.
#[derive(Default)]
struct Slot {
    reply: Mutex<Reply>,
    cv: Condvar,
}

#[derive(Default)]
struct Reply {
    /// `None` while pending; `Err` carries the model call's panic message.
    result: Option<Result<(), String>>,
    /// A leaving dispatcher handed this submitter its turn.
    serve: bool,
    /// Flat scores, `num_classes` per candidate (one block for `Full`).
    scores: Vec<f32>,
    /// The answered work, handed back so the next submission reuses its
    /// candidate buffer and, when the base is unchanged, its base image.
    work: Option<Work>,
}

impl Slot {
    fn lock(&self) -> MutexGuard<'_, Reply> {
        self.reply
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl Submission {
    fn answer(self, result: Result<&[f32], String>) {
        let mut reply = self.slot.lock();
        reply.scores.clear();
        reply
            .scores
            .extend_from_slice(result.as_deref().unwrap_or(&[]));
        reply.result = Some(result.map(drop));
        reply.work = Some(self.work);
        drop(reply);
        self.slot.cv.notify_one();
    }
}

struct QueueState {
    pending: VecDeque<Submission>,
    open: bool,
    /// Threads holding a dispatcher turn (at most `cfg.workers`).
    dispatchers: usize,
    /// Shards of the delta batches dispatchers are holding open.
    coalescing: Vec<ShardKey>,
    /// Idle dispatch sessions per shard.
    idle: HashMap<ShardKey, Vec<Pooled>>,
}

/// A dispatch session, its scores buffer, and (metrics on) its shard's
/// handles plus the session's last cache-stat reading, diffed after each
/// batch so the shared counters see only that batch's activity.
struct Pooled {
    session: OwnedZooSession,
    out: Vec<f32>,
    metrics: Option<(Arc<ShardMetrics>, SessionCacheStats)>,
}

struct Inner {
    zoo: Arc<ShardedZoo>,
    state: Mutex<QueueState>,
    /// Wakes dispatchers holding a batch open for merge partners.
    cv: Condvar,
    cfg: SchedulerConfig,
    /// Live [`ScheduledClassifier`] sessions — the coalescing heuristic's
    /// estimate of how many tenants could still contribute to a batch.
    active_sessions: AtomicUsize,
    /// The live metrics plane, when the deployment enabled one. Strictly
    /// write-only from this module (queue-depth gauge, dispatch counters,
    /// batch-size histogram): scheduling decisions never read a metric,
    /// so results are identical with metrics on or off.
    metrics: Option<Arc<ServerMetrics>>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The scheduler: a shared queue and session pools. It owns no threads.
pub struct Scheduler {
    inner: Arc<Inner>,
}

/// A cloneable handle for submitting work (one per tenant session).
#[derive(Clone)]
pub struct SchedulerHandle {
    inner: Arc<Inner>,
}

impl Scheduler {
    /// Creates a scheduler over `zoo`, without metrics.
    pub fn start(zoo: Arc<ShardedZoo>, cfg: SchedulerConfig) -> Scheduler {
        Scheduler::start_with_metrics(zoo, cfg, None)
    }

    /// Creates the scheduler, publishing per-shard gauges and counters to
    /// `metrics` when one is given.
    pub fn start_with_metrics(
        zoo: Arc<ShardedZoo>,
        cfg: SchedulerConfig,
        metrics: Option<Arc<ServerMetrics>>,
    ) -> Scheduler {
        let cfg = SchedulerConfig {
            workers: cfg.workers.max(1),
            max_merge: cfg.max_merge.max(1),
            coalesce: cfg.coalesce,
        };
        let inner = Arc::new(Inner {
            zoo,
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                open: true,
                dispatchers: 0,
                coalescing: Vec::new(),
                idle: HashMap::new(),
            }),
            cv: Condvar::new(),
            cfg,
            active_sessions: AtomicUsize::new(0),
            metrics,
        });
        Scheduler { inner }
    }

    /// A submission handle sharing this scheduler's queue.
    pub fn handle(&self) -> SchedulerHandle {
        SchedulerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Threads holding a dispatcher turn right now (for tests).
    #[doc(hidden)]
    pub fn dispatchers(&self) -> usize {
        self.inner.lock().dispatchers
    }

    /// Closes the queue, as dropping does. Pending submissions are still
    /// served by their submitters; only *new* submissions are refused.
    pub fn shutdown(self) {}
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.inner.lock().open = false;
        self.inner.cv.notify_all();
    }
}

impl SchedulerHandle {
    /// A [`Classifier`] routing all queries for `shard` through the
    /// scheduler. Trains the shard now (blocking) if it is cold, so the
    /// first query doesn't pay the training run.
    pub fn classifier(&self, shard: ShardKey) -> ScheduledClassifier {
        let num_classes = self
            .inner
            .zoo
            .shard(shard.0, shard.1)
            .classifier
            .num_classes();
        self.inner.active_sessions.fetch_add(1, Ordering::Relaxed);
        // Resolve the shard's metric handles once here, so the per-query
        // submit path below touches only their atomics.
        let shard_metrics = self.inner.metrics.as_ref().map(|m| m.shard(shard));
        ScheduledClassifier {
            inner: Arc::clone(&self.inner),
            shard,
            num_classes,
            shard_metrics,
            slot: Arc::default(),
            _one_thread: std::marker::PhantomData,
        }
    }
}

/// A per-tenant [`Classifier`] whose queries run through the scheduler,
/// on this tenant's thread or another submitter's. Cheap to construct and
/// safe to move into a session thread; `!Sync`, as it owns one reply slot.
pub struct ScheduledClassifier {
    inner: Arc<Inner>,
    shard: ShardKey,
    num_classes: usize,
    shard_metrics: Option<Arc<ShardMetrics>>,
    slot: Arc<Slot>,
    _one_thread: std::marker::PhantomData<std::cell::Cell<()>>,
}

impl ScheduledClassifier {
    /// Enqueues `work` and blocks until `out` holds its scores, serving
    /// front batches whenever this thread holds a dispatcher turn. The
    /// queue-depth gauge takes +1 here; the dispatcher takes the −1.
    fn submit(&self, work: Work, out: &mut Vec<f32>) {
        let inner = &*self.inner;
        let mut st = inner.lock();
        assert!(st.open, "submission after scheduler shutdown");
        if let Some(sm) = &self.shard_metrics {
            sm.queue_depth.inc();
        }
        // A delta submission joins a batch another dispatcher is holding
        // open on this shard rather than opening a rival batch of its own.
        let joins = matches!(work, Work::Delta { .. }) && st.coalescing.contains(&self.shard);
        let dispatch = !joins && st.dispatchers < inner.cfg.workers;
        st.dispatchers += usize::from(dispatch);
        st.pending.push_back(Submission {
            shard: self.shard,
            work,
            slot: Arc::clone(&self.slot),
            owner_dispatching: dispatch,
        });
        if dispatch {
            dispatch_until_answered(inner, st, &self.slot);
        } else {
            drop(st);
            inner.cv.notify_all();
        }
        let mut reply = self.slot.lock();
        loop {
            if std::mem::take(&mut reply.serve) {
                drop(reply);
                dispatch_until_answered(inner, inner.lock(), &self.slot);
                reply = self.slot.lock();
            }
            match reply.result.take() {
                None => reply = self.slot.cv.wait(reply).unwrap_or_else(|p| p.into_inner()),
                Some(Ok(())) => break,
                Some(Err(message)) => {
                    drop(reply);
                    panic!("scheduled model call panicked: {message}");
                }
            }
        }
        out.clear();
        out.extend_from_slice(&reply.scores);
    }

    /// Submits `candidates` against `base`, reusing the last submission's
    /// candidate buffer and, while the base is bit-equal, its base image.
    fn submit_delta(&self, base: &Image, candidates: &[(Location, Pixel)], out: &mut Vec<f32>) {
        let (kept, mut buf) = match self.slot.lock().work.take() {
            Some(Work::Delta { base, candidates }) => (Some(base), candidates),
            _ => (None, Vec::new()),
        };
        let base = match kept {
            Some(kept) if kept.height() == base.height() && same_bits(&kept, base) => kept,
            _ => Arc::new(base.clone()),
        };
        buf.clear();
        buf.extend_from_slice(candidates);
        let work = Work::Delta {
            base,
            candidates: buf,
        };
        self.submit(work, out);
    }
}

/// Bit-pattern equality of the pixel data (`==` on `f32` conflates ±0
/// and never matches NaN), branch-free per chunk so it vectorizes: it
/// runs per candidate.
fn same_bits(a: &Image, b: &Image) -> bool {
    let (a, b) = (a.data(), b.data());
    a.len() == b.len()
        && a.chunks(64).zip(b.chunks(64)).all(|(x, y)| {
            let diff = x.iter().zip(y);
            diff.fold(0, |d, (p, q)| d | (p.to_bits() ^ q.to_bits())) == 0
        })
}

impl Drop for ScheduledClassifier {
    fn drop(&mut self) {
        self.inner.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Classifier for ScheduledClassifier {
    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        let mut out = Vec::new();
        self.scores_into(image, &mut out);
        out
    }

    fn scores_into(&self, image: &Image, out: &mut Vec<f32>) {
        self.submit(Work::Full(image.clone()), out);
    }

    fn scores_pixel_delta_into(
        &self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        self.submit_delta(base, &[(location, pixel)], out);
    }

    fn scores_pixel_delta_batch_into(
        &self,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        if !candidates.is_empty() {
            self.submit_delta(base, candidates, out);
        }
    }
}

/// Serves front batches on the calling thread, which holds a dispatcher
/// turn, until `own` is answered or nothing is pending. Then the turn
/// passes to the first pending submitter waiting without one (normally
/// the front of the queue), or is given up when there is none.
fn dispatch_until_answered<'a>(inner: &'a Inner, mut st: MutexGuard<'a, QueueState>, own: &Slot) {
    while !st.pending.is_empty() && own.lock().result.is_none() {
        let (mut st2, batch, coalesce_waited) = next_batch(inner, st);
        let shard = batch[0].shard;
        let pooled = st2.idle.get_mut(&shard).and_then(Vec::pop);
        drop(st2);
        let pooled = dispatch(inner, batch, coalesce_waited, pooled);
        st = inner.lock();
        st.idle.entry(shard).or_default().extend(pooled);
    }
    match st.pending.iter_mut().find(|s| !s.owner_dispatching) {
        Some(next) => {
            next.owner_dispatching = true;
            next.slot.lock().serve = true;
            next.slot.cv.notify_one();
        }
        None => st.dispatchers -= 1,
    }
}

/// Pops the front submission plus up to `max_merge - 1` further *delta*
/// submissions against the same shard. `Full` work is never merged (it
/// runs the plain forward path). The `bool` reports whether the batch
/// held the coalescing window open.
fn next_batch<'a>(
    inner: &'a Inner,
    mut st: MutexGuard<'a, QueueState>,
) -> (MutexGuard<'a, QueueState>, Vec<Submission>, bool) {
    let first = st.pending.pop_front().expect("caller checked the queue");
    let shard = first.shard;
    let mut batch = vec![first];
    let mut coalesce_waited = false;
    if matches!(batch[0].work, Work::Delta { .. }) {
        merge_pending(&mut st, &mut batch, shard, inner.cfg.max_merge);
        // Coalesce: while more sessions are live than this batch covers,
        // their next submissions are typically microseconds away (each
        // tenant is a closed loop around the oracle), so holding the
        // batch briefly buys merge depth. Bounded by `cfg.coalesce`; a
        // lone tenant never waits.
        let deadline = Instant::now() + inner.cfg.coalesce;
        while st.open
            && batch.len() < inner.cfg.max_merge
            && batch.len() < inner.active_sessions.load(Ordering::Relaxed)
        {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if !coalesce_waited {
                st.coalescing.push(shard);
            }
            coalesce_waited = true;
            st = inner
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
            merge_pending(&mut st, &mut batch, shard, inner.cfg.max_merge);
        }
        if coalesce_waited {
            let i = st.coalescing.iter().position(|s| *s == shard);
            st.coalescing
                .swap_remove(i.expect("pushed at the first wait"));
        }
    }
    (st, batch, coalesce_waited)
}

/// Moves every pending delta submission against `shard` into `batch`, up
/// to `max_merge` total.
fn merge_pending(
    st: &mut QueueState,
    batch: &mut Vec<Submission>,
    shard: ShardKey,
    max_merge: usize,
) {
    let mut i = 0;
    while i < st.pending.len() && batch.len() < max_merge {
        let mergeable =
            st.pending[i].shard == shard && matches!(st.pending[i].work, Work::Delta { .. });
        if mergeable {
            batch.push(st.pending.remove(i).expect("index checked"));
        } else {
            i += 1;
        }
    }
}

/// Runs one batch on `pooled` (a fresh session when the shard's pool was
/// empty) and answers every submitter. Returns the session for the pool,
/// or `None` when a panic discarded it.
fn dispatch(
    inner: &Inner,
    batch: Vec<Submission>,
    coalesce_waited: bool,
    pooled: Option<Pooled>,
) -> Option<Pooled> {
    let shard = batch[0].shard;
    let mut pooled = pooled.unwrap_or_else(|| Pooled::new(inner, shard));
    pooled.count(&batch, coalesce_waited);
    if pooled.run(&batch).is_ok() {
        pooled.answer(batch);
        return Some(pooled);
    }
    // The session may be mid-update: drop it, and re-run each submission
    // alone on a fresh one so only the one at fault fails.
    for sub in batch {
        let mut fresh = Pooled::new(inner, shard);
        match fresh.run(std::slice::from_ref(&sub)) {
            Ok(()) => fresh.answer(vec![sub]),
            Err(message) => sub.answer(Err(message)),
        }
    }
    None
}

impl Pooled {
    fn new(inner: &Inner, shard: ShardKey) -> Pooled {
        let model = inner.zoo.shard(shard.0, shard.1);
        Pooled {
            session: model.classifier.owned_session(inner.cfg.max_merge),
            out: Vec::new(),
            metrics: inner
                .metrics
                .as_ref()
                .map(|m| (m.shard(shard), SessionCacheStats::default())),
        }
    }

    /// Dispatch accounting for `batch` (write-only).
    fn count(&self, batch: &[Submission], coalesce_waited: bool) {
        let delta = matches!(batch[0].work, Work::Delta { .. });
        if delta {
            telemetry::count(telemetry::Counter::SchedGroupedCalls);
            telemetry::count_n(
                telemetry::Counter::SchedGroupedSubmissions,
                batch.len() as u64,
            );
        }
        let Some((sm, _)) = &self.metrics else {
            return;
        };
        sm.queue_depth.add(-(batch.len() as i64));
        if coalesce_waited {
            sm.coalesce_waits.inc();
        }
        if !delta {
            sm.full_calls.inc();
            return;
        }
        if batch.len() > 1 {
            sm.grouped_calls.inc();
        } else {
            sm.solo_calls.inc();
        }
        sm.merged_submissions.add(batch.len() as u64);
        sm.batch_size.observe(batch.len() as u64);
    }

    /// Scores `batch` into `self.out`, catching a panic in the model call.
    fn run(&mut self, batch: &[Submission]) -> Result<(), String> {
        let (session, out) = (&mut self.session, &mut self.out);
        catch_unwind(AssertUnwindSafe(|| match &batch[0].work {
            Work::Full(image) => session.scores_into(image, out),
            Work::Delta { .. } => {
                let groups: Vec<DeltaGroup<'_>> = batch
                    .iter()
                    .map(|s| match &s.work {
                        Work::Delta { base, candidates } => DeltaGroup { base, candidates },
                        Work::Full(_) => unreachable!("merge only packs delta work"),
                    })
                    .collect();
                session.scores_pixel_delta_grouped_into(&groups, out);
            }
        }))
        .map_err(|payload| {
            let text = payload.downcast_ref::<&str>().map(|s| (*s).to_owned());
            text.or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        })
    }

    /// Hands each submitter its slice of `self.out`, then publishes the
    /// session's cache activity.
    fn answer(&mut self, batch: Vec<Submission>) {
        let classes = self.session.num_classes();
        let mut offset = 0;
        for sub in batch {
            let n = match &sub.work {
                Work::Full(_) => classes,
                Work::Delta { candidates, .. } => candidates.len() * classes,
            };
            sub.answer(Ok(&self.out[offset..offset + n]));
            offset += n;
        }
        if let Some((sm, prev)) = &mut self.metrics {
            let now = self.session.cache_stats();
            sm.lru_hits.add(now.hits - prev.hits);
            sm.lru_rebases.add(now.rebases - prev.rebases);
            sm.lru_colds.add(now.colds - prev.colds);
            *prev = now;
        }
    }
}
