//! The in-process workload: the paper's Fig. 3 roster attacking
//! correctly classified images of one zoo model on one worker thread.

use crate::stats::{median, percentile, PassTimes};
use crate::traced::{InferTally, Traced};
use crate::{Args, Report};
use oppsla_attacks::{
    Attack, AttackOutcome, SketchProgramAttack, SparseRs, SparseRsConfig, SuOpa, SuOpaConfig,
};
use oppsla_core::dsl::Program;
use oppsla_core::image::Image;
use oppsla_core::oracle::{BatchClassifier, Classifier, Oracle};
use oppsla_eval::zoo::{attack_test_set, train_or_load, Scale, ZooClassifier, ZooConfig, ZooModel};
use oppsla_nn::models::Arch;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// One in-process workload.
pub struct Spec {
    /// The zoo model attacked.
    pub arch: Arch,
    /// Its dataset scale.
    pub scale: Scale,
    /// Samples per class in the candidate pool the clean filter scans.
    pub pool_per_class: usize,
    /// Correctly classified images attacked (each by the whole roster).
    pub images: usize,
    /// Oracle query budget of every op.
    pub budget: u64,
}

/// Dataset seed of the attacked image pool. The pool is fixed so that
/// run-to-run spread measures the host rather than the sample; the run
/// seed orders the ops (see [`pass_order`]).
pub const POOL_SEED: u64 = 0x0B5E_55ED;

/// Base seed of each op's attack randomness (Sparse-RS and SuOPA draw
/// from it; op `i` uses `ATTACK_SEED + i`).
pub const ATTACK_SEED: u64 = 0xA77A_C4ED;

/// Whole set-up sequences timed per run; `setup_s` is their median. One
/// sequence takes 0.3-0.5 s, and five left its spread near 0.3.
pub const SETUP_REPEATS: usize = 15;

/// Fewest interleaved passes a run makes, whatever `--seconds` says.
pub const MIN_PASSES: usize = 3;

/// The Fig. 3 roster at one budget, each attack with the key its
/// `attack.<key>.*` metrics use: the OPPSLA sketch running the paper's
/// example program, Sparse-RS and SuOPA. SuOPA's population is a tenth
/// of the budget, so it runs about nine DE generations (and their
/// speculative prefetches) where the paper's 400 would leave it one.
pub fn roster(budget: u64) -> Vec<(&'static str, Box<dyn Attack>)> {
    vec![
        (
            "sketch",
            Box::new(SketchProgramAttack::new(Program::paper_example())),
        ),
        (
            "sparse-rs",
            Box::new(SparseRs::new(SparseRsConfig {
                max_iterations: budget,
                ..SparseRsConfig::default()
            })),
        ),
        (
            "suopa",
            Box::new(SuOpa::new(SuOpaConfig {
                population: (budget / 10) as usize,
                ..SuOpaConfig::default()
            })),
        ),
    ]
}

/// What one op produced; passes must reproduce it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResult {
    /// Counted oracle queries.
    pub queries: u64,
    /// The outcome, pixels compared by bit pattern.
    pub outcome: Outcome,
}

/// An attack outcome with exact (bit-pattern) equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The perturbation found.
    Success { row: u16, col: u16, rgb: [u32; 3] },
    /// Budget or search space exhausted.
    Failure,
    /// The clean image was already misclassified.
    AlreadyMisclassified,
}

impl From<&AttackOutcome> for OpResult {
    fn from(o: &AttackOutcome) -> Self {
        let outcome = match o {
            AttackOutcome::Success {
                location, pixel, ..
            } => Outcome::Success {
                row: location.row,
                col: location.col,
                rgb: pixel.0.map(f32::to_bits),
            },
            AttackOutcome::Failure { .. } => Outcome::Failure,
            AttackOutcome::AlreadyMisclassified { .. } => Outcome::AlreadyMisclassified,
        };
        OpResult {
            queries: o.queries(),
            outcome,
        }
    }
}

/// Runs op number `op` (one attack of one image) through a fresh budgeted
/// oracle over `classifier`, returning its result and wall time.
pub fn run_op(
    classifier: &dyn Classifier,
    attack: &dyn Attack,
    image: &Image,
    label: usize,
    budget: u64,
    op: u64,
) -> (OpResult, Duration) {
    let start = Instant::now();
    let mut oracle = Oracle::with_budget(classifier, budget);
    let mut rng = ChaCha8Rng::seed_from_u64(ATTACK_SEED + op);
    let outcome = attack.attack(&mut oracle, image, label, &mut rng);
    let elapsed = start.elapsed();
    (OpResult::from(&outcome), elapsed)
}

/// The image order of pass `pass`: a shuffle drawn from the run seed.
/// Each image's attacks run back to back in roster order, so the delta
/// cache does the same work whatever the order.
pub fn pass_order(images: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..images).collect();
    let mut rng =
        ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(pass as u64));
    order.shuffle(&mut rng);
    order
}

/// Timings of one whole set-up sequence, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `eval::zoo::train_or_load` on a primed weight cache.
    pub zoo_load: f64,
    /// `ZooModel::classifier`: plan compile and route tuning.
    pub compile: f64,
    /// `eval::zoo::attack_test_set` for the candidate pool.
    pub testset: f64,
    /// Classifying the pool to keep only clean-correct images.
    pub filter: f64,
}

impl SetupTimes {
    /// The whole sequence.
    pub fn total(&self) -> f64 {
        self.zoo_load + self.compile + self.testset + self.filter
    }
}

/// The loaded model plus the attacked images.
pub struct Loaded {
    /// The loaded model (its network feeds the sibling tuner compile).
    pub model: ZooModel,
    /// The compiled classifier.
    pub classifier: ZooClassifier,
    /// Correctly classified images with their labels.
    pub images: Vec<(Image, usize)>,
    /// Each image's index in the pool.
    pub indices: Vec<usize>,
}

/// One timed set-up sequence: load `arch`, compile, build the pool and
/// keep `count` clean-correct images spread evenly over it.
pub fn set_up(
    arch: Arch,
    scale: Scale,
    config: &ZooConfig,
    pool_per_class: usize,
    pool_seed: u64,
    count: usize,
) -> Result<(Loaded, SetupTimes), String> {
    let t0 = Instant::now();
    let model = train_or_load(arch, scale, config);
    let t1 = Instant::now();
    let classifier = model.classifier();
    let t2 = Instant::now();
    let pool = attack_test_set(scale, pool_per_class, pool_seed);
    let t3 = Instant::now();
    let session = classifier.session();
    let correct: Vec<usize> = (0..pool.len())
        .filter(|&i| session.classify(&pool[i].0) == pool[i].1)
        .collect();
    drop(session);
    let t4 = Instant::now();
    if correct.len() < count {
        return Err(format!(
            "{} of {} pool images are classified correctly; need {count}",
            correct.len(),
            pool.len()
        ));
    }
    let indices: Vec<usize> = (0..count)
        .map(|j| correct[j * correct.len() / count])
        .collect();
    let images = indices.iter().map(|&i| pool[i].clone()).collect();
    let times = SetupTimes {
        zoo_load: (t1 - t0).as_secs_f64(),
        compile: (t2 - t1).as_secs_f64(),
        testset: (t3 - t2).as_secs_f64(),
        filter: (t4 - t3).as_secs_f64(),
    };
    Ok((
        Loaded {
            model,
            classifier,
            images,
            indices,
        },
        times,
    ))
}

/// Times [`SETUP_REPEATS`] whole set-up sequences on a primed weight
/// cache. Returns the last sequence's result and every sequence's
/// timings.
pub fn set_up_repeated(
    arch: Arch,
    scale: Scale,
    config: &ZooConfig,
    pool_per_class: usize,
    pool_seed: u64,
    count: usize,
) -> Result<(Loaded, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous repeat's model before timing the next one.
        drop(last.take());
        let (loaded, t) = set_up(arch, scale, config, pool_per_class, pool_seed, count)?;
        times.push(t);
        last = Some(loaded);
    }
    Ok((last.expect("at least one set-up repeat"), times))
}

/// Adds the `setup.*` per-layer metrics: the median of each step.
pub fn setup_layer_metrics(report: &mut Report, times: &[SetupTimes]) {
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>()) * 1e3;
    report.layer("setup.zoo_load_ms", med(|t| t.zoo_load));
    report.layer("setup.compile_ms", med(|t| t.compile));
    report.layer("setup.testset_ms", med(|t| t.testset));
    report.layer("setup.filter_ms", med(|t| t.filter));
}

/// The ops of one pass in execution order: `(op id, image, attack)`.
fn pass_ops(order: &[usize], attacks: usize) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    order
        .iter()
        .flat_map(move |&i| (0..attacks).map(move |a| (i * attacks + a, i, a)))
}

/// One pass over every op; `traced` wraps the pass's session.
struct Pass {
    results: Vec<OpResult>,
    times: Vec<Duration>,
    /// The pass's inference tally (empty unless traced).
    tally: InferTally,
}

fn run_pass(
    classifier: &ZooClassifier,
    attacks: &[(&str, Box<dyn Attack>)],
    images: &[(Image, usize)],
    budget: u64,
    order: &[usize],
    traced: bool,
) -> Pass {
    let ops = images.len() * attacks.len();
    let mut pass = Pass {
        results: vec![
            OpResult {
                queries: 0,
                outcome: Outcome::Failure,
            };
            ops
        ],
        times: vec![Duration::ZERO; ops],
        tally: InferTally::default(),
    };
    // A fresh session per pass: no delta-cache state crosses passes.
    let session = classifier.session();
    let wrapper = Traced::new(&*session);
    let target: &dyn Classifier = if traced { &wrapper } else { &*session };
    for (op, i, a) in pass_ops(order, attacks.len()) {
        let (image, label) = &images[i];
        let (result, time) = run_op(target, &*attacks[a].1, image, *label, budget, op as u64);
        pass.results[op] = result;
        pass.times[op] = time;
    }
    pass.tally = wrapper.take();
    pass
}

/// Marks in `bad` every op whose result differs from `reference`.
fn check_pass(reference: &[OpResult], results: &[OpResult], bad: &mut [bool]) {
    for ((want, got), bad) in reference.iter().zip(results).zip(bad) {
        if want != got {
            *bad = true;
        }
    }
}

/// Runs one in-process workload and fills `report`.
pub fn run(spec: &Spec, args: &Args, report: &mut Report) -> Result<(), String> {
    let config = ZooConfig {
        cache_dir: Some(args.cache_dir.clone()),
        ..ZooConfig::default()
    };
    let (loaded, setup) = set_up_repeated(
        spec.arch,
        spec.scale,
        &config,
        spec.pool_per_class,
        POOL_SEED,
        spec.images,
    )?;
    report.provenance_routes(loaded.model.network());
    let attacks = roster(spec.budget);
    let ops = spec.images * attacks.len();

    let mut untraced = PassTimes::new(ops);
    let mut traced = PassTimes::new(ops);
    let mut reference: Option<Vec<OpResult>> = None;
    let mut bad = vec![false; ops];
    // The traced pass with the least op time supplies the layer split.
    let mut best_traced: Option<(Duration, InferTally)> = None;
    let mut pass_totals_ms = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    while pass < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let order = pass_order(spec.images, args.seed, pass);
        let kinds: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &is_traced in kinds {
            let p = run_pass(
                &loaded.classifier,
                &attacks,
                &loaded.images,
                spec.budget,
                &order,
                is_traced,
            );
            pass_totals_ms.push(p.times.iter().sum::<Duration>().as_secs_f64() * 1e3);
            match &reference {
                None => reference = Some(p.results.clone()),
                Some(r) => check_pass(r, &p.results, &mut bad),
            }
            if is_traced {
                traced.add_pass(&p.times);
                let total: Duration = p.times.iter().sum();
                if best_traced.as_ref().is_none_or(|(t, _)| total < *t) {
                    best_traced = Some((total, p.tally));
                }
            } else {
                untraced.add_pass(&p.times);
            }
        }
        pass += 1;
    }
    let results = reference.expect("at least one pass");
    for (r, bad) in results.iter().zip(&mut bad) {
        // The pool holds only clean-correct images.
        if r.outcome == Outcome::AlreadyMisclassified {
            *bad = true;
        }
    }

    report.attempted = ops as u64;
    report.failed = bad.iter().filter(|&&b| b).count() as u64;
    report.note(format!(
        "{} ops x {} untraced passes{}; pass op totals (ms): {:.0?}",
        ops,
        untraced.passes(),
        if args.trace {
            format!(" + {} traced passes", traced.passes())
        } else {
            String::new()
        },
        pass_totals_ms
    ));

    let setup_s = median(&setup.iter().map(SetupTimes::total).collect::<Vec<_>>());
    let queries: u64 = results.iter().map(|r| r.queries).sum();
    let op_ms = untraced.best_ms();
    let op_s = op_ms.iter().sum::<f64>() / 1e3;
    fill_end_to_end(report, setup_s, &op_ms, &results, queries as f64 / op_s);

    if args.trace {
        setup_layer_metrics(report, &setup);
        let (op_time, tally) = best_traced.expect("traced passes ran");
        let keys: Vec<&str> = attacks.iter().map(|(k, _)| *k).collect();
        infer_layer_metrics(report, &results, op_time, &tally);
        attack_layer_metrics(report, &keys, &results);
        report.layer(
            "trace.overhead_share",
            traced.total_s() / untraced.total_s() - 1.0,
        );
    }
    Ok(())
}

/// Every end-to-end metric but `peak_rss_mb`, whose process differs by
/// workload.
pub fn fill_end_to_end(
    report: &mut Report,
    setup_s: f64,
    op_ms: &[f64],
    results: &[OpResult],
    queries_per_s: f64,
) {
    let successes: Vec<u64> = results
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Success { .. }))
        .map(|r| r.queries)
        .collect();
    report.end_to_end("setup_s", setup_s);
    report.end_to_end("latency_ms_p50", percentile(op_ms, 50.0));
    report.end_to_end("latency_ms_p90", percentile(op_ms, 90.0));
    report.end_to_end("queries_per_s", queries_per_s);
    report.end_to_end(
        "success_rate",
        successes.len() as f64 / results.len() as f64,
    );
    report.end_to_end(
        "queries_per_success",
        successes.iter().sum::<u64>() as f64 / successes.len() as f64,
    );
}

/// The `infer.*` per-layer metrics and `attack.self_us_per_query` of
/// one traced pass: `op_time` is its summed op wall time and `tally` its
/// summed inference tally.
pub fn infer_layer_metrics(
    report: &mut Report,
    results: &[OpResult],
    op_time: Duration,
    tally: &InferTally,
) {
    let per = |d: Duration, n: u64| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    let queries: u64 = results.iter().map(|r| r.queries).sum();
    report.layer("infer.full.calls", tally.full_calls as f64);
    report.layer(
        "infer.full.us_per_call",
        per(tally.full_time, tally.full_calls),
    );
    report.layer("infer.delta.calls", tally.delta_calls as f64);
    report.layer(
        "infer.delta.us_per_call",
        per(tally.delta_time, tally.delta_calls),
    );
    report.layer("infer.delta_batch.calls", tally.batch_calls as f64);
    report.layer(
        "infer.delta_batch.candidates",
        tally.batch_candidates as f64,
    );
    report.layer(
        "infer.delta_batch.us_per_candidate",
        per(tally.batch_time, tally.batch_candidates),
    );
    report.layer(
        "infer.busy_share",
        tally.busy().as_secs_f64() / op_time.as_secs_f64(),
    );
    report.layer(
        "infer.useful_share",
        queries as f64 / tally.candidates().max(1) as f64,
    );
    report.layer(
        "attack.self_us_per_query",
        per(op_time.saturating_sub(tally.busy()), queries),
    );
}

/// The `attack.<key>.queries` and `.successes` metrics. `results` are in
/// op-id order: image-major, roster order within an image.
pub fn attack_layer_metrics(report: &mut Report, keys: &[&str], results: &[OpResult]) {
    for (a, key) in keys.iter().enumerate() {
        let (mut q, mut s) = (0u64, 0u64);
        for r in results.iter().skip(a).step_by(keys.len()) {
            q += r.queries;
            s += u64::from(matches!(r.outcome, Outcome::Success { .. }));
        }
        report.layer(format!("attack.{key}.queries"), q as f64);
        report.layer(format!("attack.{key}.successes"), s as f64);
    }
}
