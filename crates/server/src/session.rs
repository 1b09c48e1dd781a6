//! Per-job attack sessions: validation, budget enforcement, and the
//! deterministic outcome report.
//!
//! A session is one tenant's attack job end to end: resolve the request
//! against a model shard, wrap a scheduler-routed classifier in a
//! budget-enforcing [`Oracle`] with the query log enabled, run the
//! sketch-program attack, and fold the log into a digest the client (and
//! CI) can compare across scheduler configurations. All request
//! validation happens here, *before* any model work, and every failure
//! is a recoverable error string — never a panic on the connection
//! thread that runs the job.

use crate::protocol::{ImageSpec, JobOutcome, JobRequest};
use crate::scheduler::SchedulerHandle;
use crate::zoo::{ShardKey, ShardedZoo};
use oppsla_attacks::{Attack, AttackOutcome, SketchProgramAttack};
use oppsla_core::dsl::{parse_program, Program};
use oppsla_core::image::Image;
use oppsla_core::oracle::{Classifier, Oracle, QueryLogEntry, QueryMemo, DEFAULT_MEMO_CAPACITY};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Budgets above this are rejected at admission: one tenant must not be
/// able to hold a connection thread on a near-infinite attack.
pub const MAX_JOB_BUDGET: u64 = 10_000_000;

/// FNV-1a 64 digest over a query log: seq, candidate, prediction and
/// per-query score hash of every counted query, in order. Two jobs saw
/// byte-identical oracle interactions iff their digests match.
pub fn digest_query_log(log: &[QueryLogEntry]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    fn mix(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h
    }
    let mut h = OFFSET;
    for e in log {
        h = mix(h, &e.seq.to_le_bytes());
        match e.pixel {
            None => h = mix(h, &[0]),
            Some((row, col, rgb)) => {
                h = mix(h, &[1]);
                h = mix(h, &row.to_le_bytes());
                h = mix(h, &col.to_le_bytes());
                for c in rgb {
                    h = mix(h, &c.to_le_bytes());
                }
            }
        }
        h = mix(h, &e.pred.to_le_bytes());
        h = mix(h, &e.score_hash.to_le_bytes());
    }
    h
}

/// Per-shard cross-tenant query memos, created lazily on first use.
///
/// Memo keys carry no classifier identity, so each shard — one trained
/// classifier — gets its own [`QueryMemo`] and banks are never shared
/// across shards. This is a deployment opt-in (default off): with a
/// shared memo a job's counted queries, and therefore its `log_fnv`
/// digest, depend on which candidates *other* tenants already paid for,
/// so the digest stops being a pure function of the request.
pub struct ShardMemos {
    cap: usize,
    memos: Mutex<HashMap<ShardKey, Arc<QueryMemo>>>,
}

impl ShardMemos {
    /// A registry whose per-shard memos hold at most `cap` entries each.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        ShardMemos {
            cap: cap.max(1),
            memos: Mutex::new(HashMap::new()),
        }
    }

    /// The memo for `shard`, creating it on first request.
    pub fn memo(&self, shard: ShardKey) -> Arc<QueryMemo> {
        let mut memos = self
            .memos
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Arc::clone(
            memos
                .entry(shard)
                .or_insert_with(|| Arc::new(QueryMemo::with_capacity(self.cap))),
        )
    }
}

impl Default for ShardMemos {
    fn default() -> Self {
        ShardMemos::new(DEFAULT_MEMO_CAPACITY)
    }
}

/// A validated job, ready to run.
struct ResolvedJob {
    image: Image,
    true_class: usize,
    program: Program,
    budget: u64,
    seed: u64,
}

fn resolve(zoo: &ShardedZoo, req: &JobRequest) -> Result<ResolvedJob, String> {
    let arch = crate::protocol::parse_arch(&req.arch)?;
    let scale = crate::protocol::parse_scale(&req.scale)?;
    if req.budget == 0 {
        return Err("budget must be at least 1".into());
    }
    if req.budget > MAX_JOB_BUDGET {
        return Err(format!(
            "budget {} exceeds the per-job limit of {MAX_JOB_BUDGET}",
            req.budget
        ));
    }
    let program = match &req.program {
        None => Program::paper_example(),
        Some(src) => parse_program(src).map_err(|e| format!("bad program: {e}"))?,
    };
    // Validation that needs the shard (class counts, image geometry)
    // happens after the cheap checks so garbage requests never trigger a
    // model load.
    let shard = zoo.shard(arch, scale);
    let num_classes = shard.classifier.num_classes();
    let (image, true_class) = match &req.image {
        ImageSpec {
            test_index: Some(i),
            inline: None,
        } => {
            let i = usize::try_from(*i).map_err(|_| "test_index out of range".to_string())?;
            let (image, label) = shard
                .test_set
                .get(i)
                .ok_or_else(|| {
                    format!(
                        "test_index {i} out of range (set has {})",
                        shard.test_set.len()
                    )
                })?
                .clone();
            (image, label)
        }
        ImageSpec {
            test_index: None,
            inline: Some(inline),
        } => {
            let spec = scale.input_spec();
            let (h, w) = (inline.height as usize, inline.width as usize);
            if h != spec.height || w != spec.width {
                return Err(format!(
                    "inline image is {h}x{w} but {} expects {}x{}",
                    req.scale, spec.height, spec.width
                ));
            }
            if inline.data.len() != h * w * 3 {
                return Err(format!(
                    "inline image data has {} values, expected {}",
                    inline.data.len(),
                    h * w * 3
                ));
            }
            if !inline
                .data
                .iter()
                .all(|v| v.is_finite() && (0.0..=1.0).contains(v))
            {
                return Err("inline image values must be finite and within [0, 1]".into());
            }
            let true_class = usize::try_from(inline.true_class)
                .map_err(|_| "true_class out of range".to_string())?;
            if true_class >= num_classes {
                return Err(format!(
                    "true_class {true_class} out of range for {num_classes} classes"
                ));
            }
            (Image::new(h, w, inline.data.clone()), true_class)
        }
        _ => {
            return Err("image must set exactly one of test_index or inline".into());
        }
    };
    Ok(ResolvedJob {
        image,
        true_class,
        program,
        budget: req.budget,
        seed: req.seed,
    })
}

/// A finished job: the wire-visible outcome plus route attribution the
/// observability plane uses (the outcome deliberately stays exactly the
/// client-facing report — the split lives beside it, not inside it).
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// The client-facing outcome, exactly as serialized on the wire.
    pub outcome: JobOutcome,
    /// Counted queries that took the full-image scoring route.
    pub full_queries: u64,
    /// Counted queries that took the sparse one-pixel delta route.
    pub delta_queries: u64,
}

/// Runs one attack job through the scheduler. When `memos` is set, the
/// job shares its shard's cross-tenant [`QueryMemo`] — candidates some
/// earlier job already paid for are served from the cache without
/// counting (reported via [`JobOutcome::memo_hits`]).
///
/// # Errors
///
/// Returns a human-readable message for every invalid request (unknown
/// model, bad image spec, bad program, out-of-range budget). Valid jobs
/// always produce an outcome — budget exhaustion is a `"failure"`
/// outcome, not an error.
pub fn run_job(
    scheduler: &SchedulerHandle,
    zoo: &ShardedZoo,
    req: &JobRequest,
    memos: Option<&ShardMemos>,
) -> Result<CompletedJob, String> {
    let job = resolve(zoo, req)?;
    let arch = crate::protocol::parse_arch(&req.arch).expect("validated");
    let scale = crate::protocol::parse_scale(&req.scale).expect("validated");
    let classifier = scheduler.classifier((arch, scale));
    let memo = memos.map(|m| m.memo((arch, scale)));
    let mut oracle = Oracle::with_budget(&classifier, job.budget);
    if let Some(memo) = &memo {
        oracle = oracle.with_memo(memo);
    }
    oracle.enable_query_log();
    let attack = SketchProgramAttack::new(job.program);
    let mut rng = ChaCha8Rng::seed_from_u64(job.seed);
    let outcome = attack.attack(&mut oracle, &job.image, job.true_class, &mut rng);
    let memo_hits = oracle.memo_hits();
    let log = oracle.take_query_log();
    let digest = digest_query_log(&log);
    let full_queries = log.iter().filter(|e| e.pixel.is_none()).count() as u64;
    let delta_queries = log.len() as u64 - full_queries;
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
    Ok(CompletedJob {
        outcome: JobOutcome {
            status: status.into(),
            queries: outcome.queries(),
            location,
            pixel,
            log_len: log.len() as u64,
            memo_hits,
            log_fnv: format!("{digest:016x}"),
        },
        full_queries,
        delta_queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Scheduler, SchedulerConfig};
    use oppsla_eval::zoo::ZooConfig;
    use std::sync::Arc;

    fn fast_zoo() -> Arc<ShardedZoo> {
        Arc::new(ShardedZoo::new(
            ZooConfig {
                train_per_class: 8,
                epochs: Some(2),
                learning_rate: 2e-3,
                seed: 1,
                cache_dir: None,
            },
            2,
            9,
        ))
    }

    fn mlp_request() -> JobRequest {
        JobRequest {
            arch: "mlp".into(),
            scale: "shapes32".into(),
            image: ImageSpec {
                test_index: Some(0),
                inline: None,
            },
            budget: 300,
            program: None,
            seed: 7,
        }
    }

    #[test]
    fn jobs_are_deterministic_given_the_request() {
        let zoo = fast_zoo();
        let scheduler = Scheduler::start(Arc::clone(&zoo), SchedulerConfig::default());
        let handle = scheduler.handle();
        let a = run_job(&handle, &zoo, &mlp_request(), None).unwrap();
        let b = run_job(&handle, &zoo, &mlp_request(), None).unwrap();
        assert_eq!(
            a.outcome, b.outcome,
            "same request, same scheduler => same outcome"
        );
        assert!(a.outcome.queries <= 300);
        assert_eq!(
            a.outcome.log_len, a.outcome.queries,
            "every counted query is logged"
        );
        assert_eq!(a.outcome.memo_hits, 0, "no memo registry, no hits");
        assert_eq!(
            a.full_queries + a.delta_queries,
            a.outcome.queries,
            "route attribution partitions the counted queries"
        );
        assert!(a.full_queries >= 1, "the baseline forward is a full query");
        scheduler.shutdown();
    }

    #[test]
    fn shard_memo_only_cheapens_repeat_jobs() {
        let zoo = fast_zoo();
        let scheduler = Scheduler::start(Arc::clone(&zoo), SchedulerConfig::default());
        let handle = scheduler.handle();
        let plain = run_job(&handle, &zoo, &mlp_request(), None)
            .unwrap()
            .outcome;
        let memos = ShardMemos::default();
        let cold = run_job(&handle, &zoo, &mlp_request(), Some(&memos))
            .unwrap()
            .outcome;
        // A cold memo changes nothing: every candidate is new, so the
        // job pays (and logs) exactly what an unmemoized job pays.
        assert_eq!(cold.status, plain.status);
        assert_eq!(cold.queries, plain.queries);
        assert_eq!(cold.log_fnv, plain.log_fnv);
        assert_eq!(cold.memo_hits, 0);
        let warm = run_job(&handle, &zoo, &mlp_request(), Some(&memos))
            .unwrap()
            .outcome;
        assert_eq!(warm.status, plain.status, "memo must not change outcomes");
        assert_eq!(warm.location, plain.location);
        assert_eq!(warm.pixel, plain.pixel);
        assert!(
            warm.queries <= plain.queries,
            "memo can only reduce queries"
        );
        assert_eq!(warm.log_len, warm.queries, "hits are never logged");
        assert!(warm.memo_hits > 0, "repeat job must hit the warm memo");
        assert!(warm.queries < plain.queries);
        scheduler.shutdown();
    }

    #[test]
    fn invalid_requests_are_rejected_before_model_work() {
        let zoo = fast_zoo();
        let scheduler = Scheduler::start(Arc::clone(&zoo), SchedulerConfig::default());
        let handle = scheduler.handle();
        let cases: Vec<(JobRequest, &str)> = vec![
            (
                JobRequest {
                    arch: "vgg".into(),
                    ..mlp_request()
                },
                "unknown arch",
            ),
            (
                JobRequest {
                    scale: "cifar".into(),
                    ..mlp_request()
                },
                "unknown scale",
            ),
            (
                JobRequest {
                    budget: 0,
                    ..mlp_request()
                },
                "budget",
            ),
            (
                JobRequest {
                    budget: MAX_JOB_BUDGET + 1,
                    ..mlp_request()
                },
                "per-job limit",
            ),
            (
                JobRequest {
                    program: Some("if garbage(".into()),
                    ..mlp_request()
                },
                "bad program",
            ),
            (
                JobRequest {
                    image: ImageSpec {
                        test_index: Some(10_000),
                        inline: None,
                    },
                    ..mlp_request()
                },
                "out of range",
            ),
            (
                JobRequest {
                    image: ImageSpec {
                        test_index: None,
                        inline: None,
                    },
                    ..mlp_request()
                },
                "exactly one",
            ),
        ];
        for (req, want) in cases {
            let err = run_job(&handle, &zoo, &req, None).unwrap_err();
            assert!(err.contains(want), "{req:?}: {err:?} missing {want:?}");
        }
        scheduler.shutdown();
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let a = QueryLogEntry {
            seq: 1,
            pixel: None,
            pred: 2,
            score_hash: 0xdead,
        };
        let b = QueryLogEntry {
            seq: 2,
            pixel: Some((3, 4, [1, 2, 3])),
            pred: 0,
            score_hash: 0xbeef,
        };
        assert_ne!(digest_query_log(&[a, b]), digest_query_log(&[b, a]));
        assert_ne!(digest_query_log(&[a]), digest_query_log(&[b]));
        assert_eq!(digest_query_log(&[a, b]), digest_query_log(&[a, b]));
    }
}
