//! OPPSLA: the Metropolis–Hastings program synthesizer (Algorithm 2 /
//! Appendix B of the paper).
//!
//! The search space is every instantiation of the sketch's four
//! conditions. Candidates are scored by the *average number of queries*
//! their attack needs over a training set, `S(P) = exp(−β·Q̄_P)`, and a
//! mutated candidate `P'` replaces the incumbent `P` with probability
//! `min(1, S(P')/S(P)) = min(1, exp(−β·(Q̄_{P'} − Q̄_P)))`. We compute the
//! ratio in the exponent domain so large `Q̄` never underflows.

use crate::dsl::{mutate_in, random_program_in, GrammarConfig, ImageDims, Program};
use crate::image::Image;
use crate::oracle::{BatchClassifier, Classifier, MemoBank, Oracle, QueryMemo};
use crate::parallel::parallel_map_with;
use crate::sketch::{run_sketch, SketchOutcome};
use crate::telemetry::trace;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A training example: an image with its true class label.
pub type Labeled = (Image, usize);

/// A prefilter callback: keeps the vulnerable subset of a training set
/// and reports the classifier queries spent deciding.
pub type FilterFn<'a> = dyn FnMut(&[Labeled]) -> (Vec<Labeled>, u64) + 'a;

/// Configuration of a synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// `MAX_ITER`: number of mutate-evaluate-accept iterations. The paper
    /// uses 210.
    pub max_iterations: usize,
    /// The score exponent `β` in `S(P) = exp(−β·Q̄_P)`.
    pub beta: f64,
    /// Seed for the initial program, mutations and acceptance sampling.
    pub seed: u64,
    /// Per-image query cap during candidate evaluation. `None` lets every
    /// attack run to completion (at most `8·d₁·d₂ + 1` queries). A cap
    /// bounds synthesis cost on hard images; capped runs count as
    /// failures, mirroring the paper's treatment of unsuccessful inputs.
    pub per_image_budget: Option<u64>,
    /// When true, training images with *no* one-pixel corner attack at all
    /// are dropped before the search starts (detected by one uncapped run
    /// of the fixed-prioritization program per image, whose queries count
    /// toward the synthesis total). The paper's score already ignores
    /// unsuccessful inputs — "their number of queries is fixed" — so
    /// re-paying that fixed cost every iteration is pure waste; filtering
    /// preserves the score semantics while making each iteration cheap.
    pub prefilter: bool,
    /// The condition grammar the search draws from: the paper's atomic
    /// grammar by default, or the extended boolean-combinator grammar
    /// ([`GrammarConfig::extended`]).
    pub grammar: GrammarConfig,
    /// Worker threads used by [`synthesize_parallel`] (and the other
    /// `*_parallel` entry points) to spread candidate evaluation over the
    /// training set. Ignored by the sequential [`synthesize`]. Any value
    /// produces a bit-identical [`SynthReport`]: per-image query counts
    /// are exact integers reduced by order-independent sums, and the MH
    /// random stream never leaves the main thread.
    pub threads: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            max_iterations: 210,
            beta: 0.01,
            seed: 0,
            per_image_budget: None,
            prefilter: false,
            grammar: GrammarConfig::paper(),
            threads: 1,
        }
    }
}

/// The evaluation of one candidate program on the training set.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// `Q̄_P`: mean queries over the training inputs the program attacked
    /// successfully (`f64::INFINITY` when it succeeded on none).
    pub avg_queries: f64,
    /// How many training inputs were attacked successfully.
    pub successes: usize,
    /// Total classifier queries this evaluation spent.
    pub queries_spent: u64,
}

/// One Metropolis–Hastings iteration, for trajectory analysis (Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration number, starting at 1 (0 is the initial program).
    pub iteration: usize,
    /// The mutated candidate proposed this iteration.
    pub candidate: Program,
    /// The candidate's evaluation.
    pub evaluation: Evaluation,
    /// Whether the candidate was accepted as the new incumbent.
    pub accepted: bool,
    /// Total synthesis queries spent up to and including this iteration.
    pub cumulative_queries: u64,
}

/// The result of a synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthReport {
    /// The final (incumbent) program.
    pub program: Program,
    /// How many training images the prefilter dropped as unattackable
    /// (0 when prefiltering is off).
    pub prefiltered: usize,
    /// The initial random program's evaluation.
    pub initial: Evaluation,
    /// The initial random program itself.
    pub initial_program: Program,
    /// Per-iteration records, in order.
    pub iterations: Vec<IterationRecord>,
    /// Total queries posed to the classifier during synthesis.
    pub total_queries: u64,
}

impl SynthReport {
    /// The accepted-program trajectory: `(iteration, cumulative_queries,
    /// program)` for the initial program and every accepted candidate —
    /// the x-axes and series of the paper's Figure 4.
    pub fn accepted_trajectory(&self) -> Vec<(usize, u64, Program)> {
        let initial_cumulative = self
            .iterations
            .first()
            .map(|r| r.cumulative_queries - r.evaluation.queries_spent)
            .unwrap_or(self.total_queries);
        let mut out = vec![(0, initial_cumulative, self.initial_program.clone())];
        for rec in &self.iterations {
            if rec.accepted {
                out.push((rec.iteration, rec.cumulative_queries, rec.candidate.clone()));
            }
        }
        out
    }
}

/// Attacks one training pair: `(queries spent, queries if successful)`.
fn attack_one(
    program: &Program,
    classifier: &dyn Classifier,
    image: &Image,
    true_class: usize,
    per_image_budget: Option<u64>,
    memo: Option<&QueryMemo>,
) -> (u64, Option<u64>) {
    let mut oracle = match per_image_budget {
        Some(b) => Oracle::with_budget(classifier, b),
        None => Oracle::new(classifier),
    };
    if let Some(memo) = memo {
        oracle = oracle.with_memo(memo);
    }
    let outcome = run_sketch(program, &mut oracle, image, true_class);
    let spent = outcome.queries();
    match outcome {
        SketchOutcome::Success { queries, .. } => (spent, Some(queries)),
        _ => (spent, None),
    }
}

/// [`attack_one`] bracketed by trace addressing: tags the worker's
/// subsequent records with the training-set index and closes the run
/// with its query count and outcome.
fn attack_one_traced(
    program: &Program,
    classifier: &dyn Classifier,
    index: usize,
    image: &Image,
    true_class: usize,
    per_image_budget: Option<u64>,
    memo: Option<&QueryMemo>,
) -> (u64, Option<u64>) {
    trace::set_image(index);
    let result = attack_one(
        program,
        classifier,
        image,
        true_class,
        per_image_budget,
        memo,
    );
    trace::record_run(result.0, result.1.is_some());
    result
}

/// Reduces per-image attack results into an [`Evaluation`]. All sums are
/// exact integers, so the result is independent of the order (and thus the
/// thread assignment) the per-image results were produced in.
fn reduce_evaluation(per_image: impl IntoIterator<Item = (u64, Option<u64>)>) -> Evaluation {
    let mut total_queries = 0u64;
    let mut success_queries = 0u64;
    let mut successes = 0usize;
    for (spent, success) in per_image {
        total_queries += spent;
        if let Some(queries) = success {
            success_queries += queries;
            successes += 1;
        }
    }
    Evaluation {
        avg_queries: if successes == 0 {
            f64::INFINITY
        } else {
            success_queries as f64 / successes as f64
        },
        successes,
        queries_spent: total_queries,
    }
}

/// Evaluates `program` on the training set: runs the sketch attack on
/// every `(image, true_class)` pair and averages the query counts of the
/// successful ones (Algorithm 2's inner loop).
///
/// # Panics
///
/// Panics if `train` is empty or a true class is out of range.
pub fn evaluate_program(
    program: &Program,
    classifier: &dyn Classifier,
    train: &[Labeled],
    per_image_budget: Option<u64>,
) -> Evaluation {
    assert!(!train.is_empty(), "training set is empty");
    reduce_evaluation(train.iter().enumerate().map(|(i, (image, c))| {
        attack_one_traced(program, classifier, i, image, *c, per_image_budget, None)
    }))
}

/// [`evaluate_program`] through a shared [`MemoBank`] (entry `i` serves
/// training image `i`): candidates already paid for by an earlier
/// evaluation through the same bank are served from the cache without
/// counting a query. Success/failure per image is identical to the
/// memo-less call; `avg_queries` and `queries_spent` measure only the
/// *marginal* (previously unpaid) queries.
///
/// # Panics
///
/// Panics if `train` is empty, a true class is out of range, or the bank
/// has fewer entries than `train`.
pub fn evaluate_program_with_memo(
    program: &Program,
    classifier: &dyn Classifier,
    train: &[Labeled],
    per_image_budget: Option<u64>,
    memo: &MemoBank,
) -> Evaluation {
    assert!(!train.is_empty(), "training set is empty");
    assert!(
        memo.len() >= train.len(),
        "memo bank has {} entries for {} training images",
        memo.len(),
        train.len()
    );
    reduce_evaluation(train.iter().enumerate().map(|(i, (image, c))| {
        attack_one_traced(
            program,
            classifier,
            i,
            image,
            *c,
            per_image_budget,
            Some(memo.memo(i)),
        )
    }))
}

/// [`evaluate_program`] fanned out over `threads` workers, each querying
/// through its own [`BatchClassifier::session`] handle. Returns the same
/// [`Evaluation`], bit for bit, as the sequential function for any thread
/// count: per-image query counts are exact and reduced order-independently.
///
/// # Panics
///
/// Panics if `train` is empty or a true class is out of range.
pub fn evaluate_program_parallel(
    program: &Program,
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    per_image_budget: Option<u64>,
    threads: usize,
) -> Evaluation {
    assert!(!train.is_empty(), "training set is empty");
    reduce_evaluation(parallel_map_with(
        threads,
        train,
        || classifier.session(),
        |session, i, (image, c)| {
            attack_one_traced(program, &**session, i, image, *c, per_image_budget, None)
        },
    ))
}

/// [`evaluate_program_with_memo`] fanned out over `threads` workers. The
/// bank is indexed by training-set position, so each worker only touches
/// its current image's memo: the [`Evaluation`] is bit-identical to the
/// sequential memo call for any thread count.
///
/// # Panics
///
/// Panics if `train` is empty, a true class is out of range, or the bank
/// has fewer entries than `train`.
pub fn evaluate_program_parallel_with_memo(
    program: &Program,
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    per_image_budget: Option<u64>,
    threads: usize,
    memo: &MemoBank,
) -> Evaluation {
    assert!(!train.is_empty(), "training set is empty");
    assert!(
        memo.len() >= train.len(),
        "memo bank has {} entries for {} training images",
        memo.len(),
        train.len()
    );
    reduce_evaluation(parallel_map_with(
        threads,
        train,
        || classifier.session(),
        |session, i, (image, c)| {
            attack_one_traced(
                program,
                &**session,
                i,
                image,
                *c,
                per_image_budget,
                Some(memo.memo(i)),
            )
        },
    ))
}

/// The MH acceptance probability `min(1, exp(−β·(q_new − q_old)))`,
/// computed in the exponent domain. Handles infinite averages: a finite
/// candidate always beats an infinite incumbent and vice versa; two
/// infinite averages tie (probability 1, as `Q̄' − Q̄ = 0` conceptually).
pub fn acceptance_probability(beta: f64, q_old: f64, q_new: f64) -> f64 {
    match (q_old.is_infinite(), q_new.is_infinite()) {
        (true, true) => 1.0,
        (true, false) => 1.0,
        (false, true) => 0.0,
        (false, false) => (-beta * (q_new - q_old)).exp().min(1.0),
    }
}

/// Splits `train` into its attackable subset: runs the fixed-prioritization
/// program uncapped on every image and keeps those with a successful
/// one-pixel corner attack (a program-independent property of the sketch).
/// Returns the kept images and the queries the filtering spent.
///
/// # Panics
///
/// Panics if `train` is empty or a true class is out of range.
pub fn filter_attackable(classifier: &dyn Classifier, train: &[Labeled]) -> (Vec<Labeled>, u64) {
    assert!(!train.is_empty(), "training set is empty");
    let fixed = Program::constant(false);
    let probes = train
        .iter()
        .enumerate()
        .map(|(i, (image, c))| probe_one_traced(&fixed, classifier, i, image, *c))
        .collect::<Vec<_>>();
    keep_attackable(train, probes)
}

/// [`filter_attackable`] fanned out over `threads` workers via per-worker
/// [`BatchClassifier::session`] handles. The kept set and query total are
/// identical to the sequential function for any thread count.
///
/// # Panics
///
/// Panics if `train` is empty or a true class is out of range.
pub fn filter_attackable_parallel(
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    threads: usize,
) -> (Vec<Labeled>, u64) {
    assert!(!train.is_empty(), "training set is empty");
    let fixed = Program::constant(false);
    let probes = parallel_map_with(
        threads,
        train,
        || classifier.session(),
        |session, i, (image, c)| probe_one_traced(&fixed, &**session, i, image, *c),
    );
    keep_attackable(train, probes)
}

/// Probes one training pair with the fixed-prioritization program:
/// `(queries spent, attackable?)`.
fn probe_one(
    fixed: &Program,
    classifier: &dyn Classifier,
    image: &Image,
    true_class: usize,
) -> (u64, bool) {
    let mut oracle = Oracle::new(classifier);
    let outcome = run_sketch(fixed, &mut oracle, image, true_class);
    (outcome.queries(), outcome.is_success())
}

/// [`probe_one`] bracketed by trace addressing, like [`attack_one_traced`].
fn probe_one_traced(
    fixed: &Program,
    classifier: &dyn Classifier,
    index: usize,
    image: &Image,
    true_class: usize,
) -> (u64, bool) {
    trace::set_image(index);
    let result = probe_one(fixed, classifier, image, true_class);
    trace::record_run(result.0, result.1);
    result
}

/// Zips probe results back onto `train`, keeping the attackable pairs and
/// summing queries (exact, order-independent).
fn keep_attackable(train: &[Labeled], probes: Vec<(u64, bool)>) -> (Vec<Labeled>, u64) {
    let mut kept = Vec::with_capacity(train.len());
    let mut kept_idx = Vec::with_capacity(train.len());
    let mut queries = 0u64;
    for (i, ((image, true_class), (spent, attackable))) in train.iter().zip(probes).enumerate() {
        queries += spent;
        if attackable {
            kept_idx.push(i);
            kept.push((image.clone(), *true_class));
        }
    }
    trace::record_filter(&kept_idx);
    (kept, queries)
}

/// Runs OPPSLA: synthesizes an adversarial program for `classifier` from
/// `train` (Algorithm 2).
///
/// # Panics
///
/// Panics if `train` is empty, images disagree on extents, or `beta` is
/// not positive.
pub fn synthesize(
    classifier: &dyn Classifier,
    train: &[Labeled],
    config: &SynthConfig,
) -> SynthReport {
    run_mh(
        train,
        config,
        &mut |t| filter_attackable(classifier, t),
        &mut |p, t| evaluate_program(p, classifier, t, config.per_image_budget),
    )
}

/// [`synthesize`] with candidate evaluation fanned out over
/// [`SynthConfig::threads`] workers. The Metropolis–Hastings chain itself
/// (mutation, acceptance sampling) stays on the calling thread, and every
/// [`Evaluation`] is bit-identical to the sequential one, so the returned
/// [`SynthReport`] is identical for any thread count — only wall-clock
/// time changes.
///
/// # Panics
///
/// Panics if `train` is empty, images disagree on extents, or `beta` is
/// not positive.
pub fn synthesize_parallel(
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    config: &SynthConfig,
) -> SynthReport {
    let threads = config.threads;
    run_mh(
        train,
        config,
        &mut |t| filter_attackable_parallel(classifier, t, threads),
        &mut |p, t| evaluate_program_parallel(p, classifier, t, config.per_image_budget, threads),
    )
}

/// [`synthesize`] with every candidate evaluation routed through one
/// shared [`MemoBank`]: a candidate query any earlier iteration already
/// paid for is served from the cache without touching the classifier.
/// Because memo hits are never counted as oracle queries, the MH score
/// ranks programs by their *marginal* query cost given the cache — a
/// deliberately different (and much cheaper) search mode than
/// [`synthesize`], whose trajectory it does not reproduce. Memo keys
/// carry full image content hashes, so the prefilter reindexing the
/// training set cannot cause false hits.
///
/// # Panics
///
/// Panics like [`synthesize`], or if the bank has fewer entries than
/// `train`.
pub fn synthesize_with_memo(
    classifier: &dyn Classifier,
    train: &[Labeled],
    config: &SynthConfig,
    memo: &MemoBank,
) -> SynthReport {
    assert!(
        memo.len() >= train.len(),
        "memo bank has {} entries for {} training images",
        memo.len(),
        train.len()
    );
    run_mh(
        train,
        config,
        &mut |t| filter_attackable(classifier, t),
        &mut |p, t| evaluate_program_with_memo(p, classifier, t, config.per_image_budget, memo),
    )
}

/// [`synthesize_with_memo`] with candidate evaluation fanned out over
/// [`SynthConfig::threads`] workers; the report is bit-identical to the
/// sequential memo call for any thread count.
///
/// # Panics
///
/// Panics like [`synthesize_with_memo`].
pub fn synthesize_parallel_with_memo(
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    config: &SynthConfig,
    memo: &MemoBank,
) -> SynthReport {
    assert!(
        memo.len() >= train.len(),
        "memo bank has {} entries for {} training images",
        memo.len(),
        train.len()
    );
    let threads = config.threads;
    run_mh(
        train,
        config,
        &mut |t| filter_attackable_parallel(classifier, t, threads),
        &mut |p, t| {
            evaluate_program_parallel_with_memo(
                p,
                classifier,
                t,
                config.per_image_budget,
                threads,
                memo,
            )
        },
    )
}

/// The Metropolis–Hastings core shared by [`synthesize`] and
/// [`synthesize_parallel`]: all classifier access goes through the
/// injected `filter` and `eval` closures, so the chain's control flow (and
/// its random stream) is written exactly once.
fn run_mh(
    train: &[Labeled],
    config: &SynthConfig,
    filter: &mut FilterFn<'_>,
    eval: &mut dyn FnMut(&Program, &[Labeled]) -> Evaluation,
) -> SynthReport {
    assert!(!train.is_empty(), "training set is empty");
    assert!(config.beta > 0.0, "beta must be positive");
    let dims = ImageDims::new(train[0].0.height(), train[0].0.width());
    for (img, _) in train {
        assert_eq!(
            (img.height(), img.width()),
            (dims.height, dims.width),
            "training images disagree on extents"
        );
    }

    // Optional prefilter: drop images that no instantiation can attack
    // (the sketch's success set is program-independent), so iterations
    // stop re-paying their fixed exhaustive cost.
    let mut prefilter_queries = 0u64;
    let mut prefiltered = 0usize;
    let filtered: Vec<Labeled>;
    let train: &[Labeled] = if config.prefilter {
        trace::begin_sweep("prefilter", train.len(), "");
        let (kept, queries) = filter(train);
        prefilter_queries = queries;
        if kept.is_empty() {
            // Nothing attackable: fall back to the full set so the run
            // still returns a (necessarily arbitrary) program.
            filtered = train.to_vec();
        } else {
            prefiltered = train.len() - kept.len();
            filtered = kept;
        }
        &filtered
    } else {
        train
    };

    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut incumbent = random_program_in(&mut rng, dims, config.grammar);
    let initial_program = incumbent.clone();
    if trace::armed() {
        trace::begin_sweep("eval", train.len(), &incumbent.to_string());
    }
    let initial = eval(&incumbent, train);
    crate::telemetry::count(crate::telemetry::Counter::SynthPrograms);
    if trace::armed() {
        // The initial program is the step-0 incumbent by definition.
        trace::record_synth(0, &initial_program.to_string(), initial.avg_queries, true);
    }
    let mut incumbent_avg = initial.avg_queries;
    let mut cumulative = prefilter_queries + initial.queries_spent;
    let mut iterations = Vec::with_capacity(config.max_iterations);

    for iteration in 1..=config.max_iterations {
        let candidate = mutate_in(&mut rng, &incumbent, dims, config.grammar);
        if trace::armed() {
            trace::begin_sweep("eval", train.len(), &candidate.to_string());
        }
        let evaluation = eval(&candidate, train);
        crate::telemetry::count(crate::telemetry::Counter::SynthPrograms);
        cumulative += evaluation.queries_spent;
        let p = acceptance_probability(config.beta, incumbent_avg, evaluation.avg_queries);
        let accepted = rng.gen::<f64>() < p;
        if trace::armed() {
            trace::record_synth(
                iteration,
                &candidate.to_string(),
                evaluation.avg_queries,
                accepted,
            );
        }
        if accepted {
            crate::telemetry::count(crate::telemetry::Counter::SynthAccepted);
            incumbent = candidate.clone();
            incumbent_avg = evaluation.avg_queries;
        }
        iterations.push(IterationRecord {
            iteration,
            candidate,
            evaluation,
            accepted,
            cumulative_queries: cumulative,
        });
    }

    SynthReport {
        program: incumbent,
        prefiltered,
        initial,
        initial_program,
        iterations,
        total_queries: cumulative,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::FnClassifier;
    use crate::pair::{Location, Pixel};

    /// Classifier with a one-pixel weakness near the centre: any corner
    /// with a red channel of 1 at a location in the central 3×3 flips it.
    fn center_weak_classifier() -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
        FnClassifier::new(2, |img: &Image| {
            for row in 3..6u16 {
                for col in 3..6u16 {
                    let p = img.pixel(Location::new(row, col));
                    if p.0[0] == 1.0 && p.0[1] == 1.0 && p.0[2] == 1.0 {
                        return vec![0.2, 0.8];
                    }
                }
            }
            vec![0.8, 0.2]
        })
    }

    fn train_set(n: usize) -> Vec<Labeled> {
        (0..n)
            .map(|i| {
                let v = 0.3 + 0.05 * (i % 5) as f32;
                (Image::filled(9, 9, Pixel([v, v, v])), 0)
            })
            .collect()
    }

    #[test]
    fn evaluate_program_counts_successes_and_averages() {
        let clf = center_weak_classifier();
        let train = train_set(4);
        let eval = evaluate_program(&Program::constant(false), &clf, &train, None);
        assert_eq!(eval.successes, 4);
        assert!(eval.avg_queries.is_finite());
        assert!(eval.avg_queries >= 2.0);
        assert!(eval.queries_spent >= eval.avg_queries as u64 * 4);
    }

    #[test]
    fn evaluate_program_with_no_successes_is_infinite() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let train = vec![(Image::filled(3, 3, Pixel([0.5, 0.5, 0.5])), 0)];
        let eval = evaluate_program(&Program::constant(false), &clf, &train, None);
        assert_eq!(eval.successes, 0);
        assert!(eval.avg_queries.is_infinite());
        assert_eq!(eval.queries_spent, 73);
    }

    #[test]
    fn memo_evaluation_preserves_successes_and_only_cheapens_requeries() {
        let clf = center_weak_classifier();
        let train = train_set(3);
        let program = Program::constant(false);
        let plain = evaluate_program(&program, &clf, &train, None);

        let bank = MemoBank::new(train.len(), crate::oracle::DEFAULT_MEMO_CAPACITY);
        let first = evaluate_program_with_memo(&program, &clf, &train, None, &bank);
        // A cold bank changes nothing: no candidate repeats within a run.
        assert_eq!(first, plain);

        // Re-evaluating the same program replays the same candidates, so
        // everything is served from the warm bank: successes unchanged,
        // counted queries only fall.
        let second = evaluate_program_with_memo(&program, &clf, &train, None, &bank);
        assert_eq!(second.successes, first.successes);
        assert!(second.queries_spent <= first.queries_spent);
        assert_eq!(
            second.queries_spent, 0,
            "a full replay through a warm memo must be free"
        );

        // Parallel memo evaluation is thread-count invariant.
        for threads in [1, 2, 4] {
            let bank_p = MemoBank::new(train.len(), crate::oracle::DEFAULT_MEMO_CAPACITY);
            let seq = evaluate_program_with_memo(&program, &clf, &train, None, &bank_p);
            assert_eq!(seq, first);
            let par =
                evaluate_program_parallel_with_memo(&program, &clf, &train, None, threads, &bank_p);
            // The sequential call warmed bank_p, so the parallel replay is
            // the "second" evaluation for every thread count.
            assert_eq!(par, second, "threads = {threads}");
        }
    }

    #[test]
    fn synthesize_with_memo_runs_and_is_thread_count_invariant() {
        let clf = center_weak_classifier();
        let train = train_set(2);
        let config = SynthConfig {
            max_iterations: 3,
            beta: 0.01,
            seed: 5,
            ..SynthConfig::default()
        };
        let bank = MemoBank::new(train.len(), crate::oracle::DEFAULT_MEMO_CAPACITY);
        let memoed = synthesize_with_memo(&clf, &train, &config, &bank);
        // The synthesized program still attacks the training set.
        let check = evaluate_program(&memoed.program, &clf, &train, None);
        assert!(check.avg_queries.is_finite());
        // And the parallel form agrees with the sequential one for any
        // thread count (fresh banks: the one above is warm).
        for threads in [1, 3] {
            let bank_a = MemoBank::new(train.len(), crate::oracle::DEFAULT_MEMO_CAPACITY);
            let bank_b = MemoBank::new(train.len(), crate::oracle::DEFAULT_MEMO_CAPACITY);
            let seq = synthesize_with_memo(&clf, &train, &config, &bank_a);
            let cfg_threads = SynthConfig {
                threads,
                ..config.clone()
            };
            let par = synthesize_parallel_with_memo(&clf, &train, &cfg_threads, &bank_b);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn per_image_budget_caps_spending() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let train = vec![
            (Image::filled(5, 5, Pixel([0.5, 0.5, 0.5])), 0),
            (Image::filled(5, 5, Pixel([0.2, 0.2, 0.2])), 0),
        ];
        let eval = evaluate_program(&Program::constant(false), &clf, &train, Some(10));
        assert_eq!(eval.queries_spent, 20);
        assert_eq!(eval.successes, 0);
    }

    #[test]
    fn acceptance_probability_behaves_like_mh() {
        // Better candidate (fewer queries) is always accepted.
        assert_eq!(acceptance_probability(0.01, 100.0, 50.0), 1.0);
        assert_eq!(acceptance_probability(0.01, 100.0, 100.0), 1.0);
        // Worse candidate is accepted with exp(-β·Δ).
        let p = acceptance_probability(0.01, 100.0, 200.0);
        assert!((p - (-1.0f64).exp()).abs() < 1e-12, "{p}");
        // Infinite incumbents are always replaced; infinite candidates never
        // replace finite incumbents.
        assert_eq!(acceptance_probability(0.01, f64::INFINITY, 10.0), 1.0);
        assert_eq!(acceptance_probability(0.01, 10.0, f64::INFINITY), 0.0);
        assert_eq!(
            acceptance_probability(0.01, f64::INFINITY, f64::INFINITY),
            1.0
        );
    }

    #[test]
    fn acceptance_probability_never_underflows_to_nan() {
        let p = acceptance_probability(1.0, 0.0, 1e6);
        assert!(p >= 0.0 && !p.is_nan());
    }

    #[test]
    fn synthesize_runs_all_iterations_and_tracks_queries() {
        let clf = center_weak_classifier();
        let train = train_set(2);
        let config = SynthConfig {
            max_iterations: 5,
            beta: 0.01,
            seed: 42,
            ..SynthConfig::default()
        };
        let report = synthesize(&clf, &train, &config);
        assert_eq!(report.iterations.len(), 5);
        let sum: u64 = report.initial.queries_spent
            + report
                .iterations
                .iter()
                .map(|r| r.evaluation.queries_spent)
                .sum::<u64>();
        assert_eq!(report.total_queries, sum);
        // cumulative_queries is non-decreasing.
        let mut prev = report.initial.queries_spent;
        for rec in &report.iterations {
            assert!(rec.cumulative_queries >= prev);
            prev = rec.cumulative_queries;
        }
    }

    #[test]
    fn synthesize_is_deterministic_under_seed() {
        let clf = center_weak_classifier();
        let train = train_set(2);
        let config = SynthConfig {
            max_iterations: 4,
            beta: 0.01,
            seed: 7,
            ..SynthConfig::default()
        };
        let a = synthesize(&clf, &train, &config);
        let b = synthesize(&clf, &train, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn synthesized_program_is_no_worse_than_initial_on_training() {
        // MH keeps the incumbent only through accepted moves; with the
        // always-accept-on-improvement rule the final program's training
        // average should not be dramatically worse than the initial one.
        // We check the weaker, deterministic property: the final program's
        // evaluation equals the evaluation of the last accepted candidate.
        let clf = center_weak_classifier();
        let train = train_set(3);
        let config = SynthConfig {
            max_iterations: 12,
            beta: 0.05,
            seed: 3,
            ..SynthConfig::default()
        };
        let report = synthesize(&clf, &train, &config);
        let last_accepted = report
            .iterations
            .iter()
            .rev()
            .find(|r| r.accepted)
            .map(|r| r.candidate.clone());
        let expected = last_accepted.unwrap_or(report.initial_program.clone());
        assert_eq!(report.program, expected);
        // And re-evaluating it reproduces a finite average on this
        // attackable classifier.
        let eval = evaluate_program(&report.program, &clf, &train, None);
        assert!(eval.avg_queries.is_finite());
    }

    #[test]
    fn accepted_trajectory_starts_at_initial_and_is_monotone_in_queries() {
        let clf = center_weak_classifier();
        let train = train_set(2);
        let config = SynthConfig {
            max_iterations: 8,
            beta: 0.01,
            seed: 11,
            ..SynthConfig::default()
        };
        let report = synthesize(&clf, &train, &config);
        let traj = report.accepted_trajectory();
        assert_eq!(traj[0].0, 0);
        for w in traj.windows(2) {
            assert!(w[0].0 < w[1].0, "iterations increase");
            assert!(w[0].1 <= w[1].1, "queries increase");
        }
    }

    #[test]
    fn filter_attackable_keeps_only_vulnerable_images() {
        let clf = center_weak_classifier();
        let mut train = train_set(2);
        // Labelled 1 while the classifier answers 0: already misclassified,
        // so the sketch never reports a Success for it.
        train.push((Image::filled(9, 9, Pixel([0.9, 0.9, 0.9])), 1));
        let (kept, queries) = filter_attackable(&clf, &train);
        assert_eq!(kept.len(), 2, "only the genuinely attackable images remain");
        assert!(queries >= 2);
    }

    #[test]
    fn prefilter_reduces_iteration_cost_without_changing_result_program_validity() {
        let clf = center_weak_classifier();
        let mut train = train_set(2);
        // An already-misclassified image never becomes a Success, so the
        // prefilter drops it.
        train.push((Image::filled(9, 9, Pixel([0.7, 0.7, 0.7])), 1));
        let base = SynthConfig {
            max_iterations: 4,
            beta: 0.01,
            seed: 9,
            ..SynthConfig::default()
        };
        let without = synthesize(&clf, &train, &base);
        let with = synthesize(
            &clf,
            &train,
            &SynthConfig {
                prefilter: true,
                ..base
            },
        );
        assert_eq!(with.prefiltered, 1);
        assert_eq!(without.prefiltered, 0);
        // The prefiltered run spends fewer queries per iteration (the
        // dropped image costs a fixed amount every iteration otherwise).
        let per_iter_with = with.iterations[0].evaluation.queries_spent;
        let per_iter_without = without.iterations[0].evaluation.queries_spent;
        assert!(per_iter_with < per_iter_without);
        // And the synthesized program still attacks the attackable set.
        let eval = evaluate_program(&with.program, &clf, &train_set(2), None);
        assert!(eval.avg_queries.is_finite());
    }

    #[test]
    fn prefilter_falls_back_when_nothing_is_attackable() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let train = vec![(Image::filled(3, 3, Pixel([0.5, 0.5, 0.5])), 0)];
        let report = synthesize(
            &clf,
            &train,
            &SynthConfig {
                max_iterations: 1,
                prefilter: true,
                ..SynthConfig::default()
            },
        );
        assert_eq!(report.prefiltered, 0, "fallback keeps the full set");
        assert!(report.initial.avg_queries.is_infinite());
    }

    #[test]
    fn extended_grammar_synthesis_runs_and_stays_well_typed() {
        let clf = center_weak_classifier();
        let train = train_set(2);
        let config = SynthConfig {
            max_iterations: 6,
            seed: 4,
            grammar: GrammarConfig::extended(3),
            ..SynthConfig::default()
        };
        let report = synthesize(&clf, &train, &config);
        let dims = ImageDims::new(9, 9);
        assert!(crate::dsl::is_well_typed(&report.program, dims));
        for rec in &report.iterations {
            assert!(
                crate::dsl::is_well_typed(&rec.candidate, dims),
                "{}",
                rec.candidate
            );
        }
        // And the result still attacks the training set.
        let eval = evaluate_program(&report.program, &clf, &train, None);
        assert!(eval.avg_queries.is_finite());
    }

    #[test]
    #[should_panic(expected = "training set is empty")]
    fn synthesize_rejects_empty_training_set() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        synthesize(&clf, &[], &SynthConfig::default());
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_sequential() {
        let clf = center_weak_classifier();
        let train = train_set(7);
        let program = Program::constant(false);
        for budget in [None, Some(10)] {
            let reference = evaluate_program(&program, &clf, &train, budget);
            for threads in [1, 2, 4, 16] {
                let parallel = evaluate_program_parallel(&program, &clf, &train, budget, threads);
                assert_eq!(
                    parallel, reference,
                    "threads = {threads}, budget = {budget:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_filter_is_identical_to_sequential() {
        let clf = center_weak_classifier();
        let mut train = train_set(5);
        train.push((Image::filled(9, 9, Pixel([0.9, 0.9, 0.9])), 1));
        let reference = filter_attackable(&clf, &train);
        for threads in [1, 2, 4] {
            assert_eq!(
                filter_attackable_parallel(&clf, &train, threads),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_the_synthesis_trajectory() {
        // The headline determinism guarantee: same seed, different worker
        // counts, identical accepted-program trajectory and query totals.
        let clf = center_weak_classifier();
        let train = train_set(3);
        let base = SynthConfig {
            max_iterations: 6,
            beta: 0.01,
            seed: 13,
            prefilter: true,
            threads: 1,
            ..SynthConfig::default()
        };
        let one = synthesize_parallel(&clf, &train, &base);
        let four = synthesize_parallel(
            &clf,
            &train,
            &SynthConfig {
                threads: 4,
                ..base.clone()
            },
        );
        assert_eq!(one.accepted_trajectory(), four.accepted_trajectory());
        assert_eq!(one.total_queries, four.total_queries);
        assert_eq!(one, four);
        // And both agree with the sequential entry point.
        let sequential = synthesize(&clf, &train, &base);
        assert_eq!(sequential, one);
    }
}
