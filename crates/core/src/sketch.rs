//! The one-pixel attack sketch (Algorithm 1 / Appendix A of the paper).
//!
//! The sketch is the fixed skeleton every adversarial program shares: it
//! exhaustively enumerates the `8·d₁·d₂` location–perturbation candidates
//! from a priority queue, querying the classifier for each, and uses four
//! synthesized conditions to *reorder* the remaining candidates after each
//! failure:
//!
//! * `B₁` — push the failed pair's location neighbours (same perturbation)
//!   to the back of the queue.
//! * `B₂` — push the next perturbation at the failed location to the back.
//! * `B₃` — eagerly check the location neighbours now (conceptual push to
//!   the front), recursively.
//! * `B₄` — eagerly check the next perturbation at the location now,
//!   recursively.
//!
//! Because reordering never drops a candidate, every instantiation of the
//! sketch finds a successful adversarial example whenever one exists in
//! the perturbation space — the conditions only change *how many queries*
//! that takes.

use crate::dsl::{CondCtx, Program};
use crate::goal::AttackGoal;
use crate::image::Image;
use crate::oracle::{argmax, Oracle};
use crate::pair::Pair;
use crate::queue::PairQueue;
use crate::telemetry::{self, trace, Counter};
use crate::tracing::record_oracle_query;
use std::collections::VecDeque;

/// Result of running the sketch on one image.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchOutcome {
    /// A successful one-pixel adversarial example was found.
    Success {
        /// The winning location–perturbation pair.
        pair: Pair,
        /// Queries spent by this run (including the baseline `N(x)` query).
        queries: u64,
    },
    /// Every candidate was tried; no one-pixel corner attack exists.
    Exhausted {
        /// Queries spent by this run.
        queries: u64,
    },
    /// The oracle's query budget ran out mid-attack.
    OutOfBudget {
        /// Queries spent by this run before the budget ended it.
        queries: u64,
    },
    /// The unperturbed image was already misclassified (the paper discards
    /// such images from its test sets).
    AlreadyMisclassified {
        /// Queries spent (the single baseline query).
        queries: u64,
    },
}

impl SketchOutcome {
    /// The queries spent by the run, regardless of outcome.
    pub fn queries(&self) -> u64 {
        match self {
            SketchOutcome::Success { queries, .. }
            | SketchOutcome::Exhausted { queries }
            | SketchOutcome::OutOfBudget { queries }
            | SketchOutcome::AlreadyMisclassified { queries } => *queries,
        }
    }

    /// True for [`SketchOutcome::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, SketchOutcome::Success { .. })
    }
}

/// Runs the sketch instantiated with `program` against `oracle` on
/// `image` with true class `true_class`, in the paper's untargeted
/// setting.
///
/// The run issues one baseline query for `N(x)` (counted), then one query
/// per candidate until success, exhaustion, or budget end. The returned
/// query count is this run's spend (`oracle` may carry counts from
/// previous runs; they are not included).
///
/// # Panics
///
/// Panics if `true_class` is out of range for the oracle's class count.
pub fn run_sketch(
    program: &Program,
    oracle: &mut Oracle<'_>,
    image: &Image,
    true_class: usize,
) -> SketchOutcome {
    run_sketch_with_goal(program, oracle, image, true_class, AttackGoal::Untargeted)
}

/// Goal-generic variant of [`run_sketch`]: succeeds when `goal` is met
/// (any flip, or a specific target class). The conditions still read the
/// true class's score drop, as in the paper.
///
/// # Panics
///
/// Panics if `true_class` is out of range for the oracle's class count or
/// the goal is unsatisfiable ([`AttackGoal::validate`]).
pub fn run_sketch_with_goal(
    program: &Program,
    oracle: &mut Oracle<'_>,
    image: &Image,
    true_class: usize,
    goal: AttackGoal,
) -> SketchOutcome {
    run_sketch_with_goal_prior(
        program,
        oracle,
        image,
        true_class,
        goal,
        &crate::prior::Uniform,
    )
}

/// Prior-aware variant of [`run_sketch_with_goal`]: the initial queue
/// is ordered by `prior` (see [`crate::prior::Prior`]); the
/// [`Uniform`](crate::prior::Uniform) prior reproduces
/// [`run_sketch_with_goal`] exactly. The prior only permutes the
/// starting order — conditions, removal discipline, and accounting are
/// identical for every prior.
///
/// # Panics
///
/// Panics if `true_class` is out of range for the oracle's class count or
/// the goal is unsatisfiable ([`AttackGoal::validate`]).
pub fn run_sketch_with_goal_prior(
    program: &Program,
    oracle: &mut Oracle<'_>,
    image: &Image,
    true_class: usize,
    goal: AttackGoal,
    prior: &dyn crate::prior::Prior,
) -> SketchOutcome {
    assert!(
        true_class < oracle.num_classes(),
        "true class {true_class} out of range ({} classes)",
        oracle.num_classes()
    );
    goal.validate(oracle.num_classes(), true_class);
    let start = oracle.queries();
    let spent = |oracle: &Oracle<'_>| oracle.queries() - start;

    // Baseline query: N(x), needed by the score_diff conditions. A
    // memo-attached oracle may serve it without counting; phase
    // attribution and the trace record belong to counted queries only.
    let before_baseline = oracle.queries();
    let orig_scores = match oracle.query(image) {
        Ok(s) => s,
        Err(_) => {
            return SketchOutcome::OutOfBudget {
                queries: spent(oracle),
            }
        }
    };
    if oracle.queries() > before_baseline {
        telemetry::count(Counter::QueryBaseline);
        record_oracle_query(
            "baseline",
            spent(oracle),
            None,
            &orig_scores,
            true_class,
            goal,
        );
    }
    if argmax(&orig_scores) != true_class {
        return SketchOutcome::AlreadyMisclassified {
            queries: spent(oracle),
        };
    }

    let mut queue = PairQueue::for_image_with_prior(image, true_class, prior);

    // Query hot path: every candidate is the base image with one pixel
    // replaced, submitted through [`Oracle::query_pixel_delta_into`] into
    // one reused score buffer. Incremental backends serve these from
    // cached base activations, recomputing only the dirty region; counts
    // and scores are identical to querying the perturbed image in full.
    oracle.begin_candidate_scope();
    let mut buf: Vec<f32> = Vec::with_capacity(orig_scores.len());

    // Submits a candidate; `Ok(true)` = adversarial (scores in `buf`),
    // `Ok(false)` = failed attack (scores in `buf`), `Err` = budget.
    // `phase` attributes the query to the sketch phase that issued it
    // (initial scan vs. eager refinement) for telemetry; `trace_phase` is
    // the finer-grained trace attribution (B3 vs. B4 refinement).
    let try_pair = |oracle: &mut Oracle<'_>,
                    buf: &mut Vec<f32>,
                    pair: Pair,
                    phase: Counter,
                    trace_phase: &'static str| {
        let before = oracle.queries();
        oracle
            .query_pixel_delta_into(image, pair.location, pair.corner.as_pixel(), buf)
            .map_err(|_| ())?;
        // A memo hit is not a counted query: no phase attribution, no
        // trace record — the trace stays a faithful per-counted-query
        // stream that replay can re-verify.
        if oracle.queries() > before {
            telemetry::count(phase);
            record_oracle_query(
                trace_phase,
                spent(oracle),
                Some((pair.location, pair.corner.as_pixel())),
                buf,
                true_class,
                goal,
            );
        }
        Ok::<bool, ()>(goal.is_adversarial(buf, true_class))
    };

    // Speculative prefetch: batch the next few init-scan candidates so a
    // batched backend evaluates them in one layer-major sweep. The peek
    // reflects queue order *now*; if a condition reorders the queue (B1/B2
    // push-backs) or B3/B4 queries a refined candidate first, the oracle
    // serves whichever batch entries still match (membership, not order)
    // and evaluates the others sequentially — query counts and scores are
    // unaffected either way, and because every batched pair is eventually
    // popped exactly once, the removal discipline's no-duplicate-queries
    // guarantee survives speculation.
    const PREFETCH_BATCH: usize = 8;
    let mut upcoming: Vec<(crate::pair::Location, crate::pair::Pixel)> =
        Vec::with_capacity(PREFETCH_BATCH);

    loop {
        if !oracle.has_prefetched() {
            upcoming.clear();
            upcoming.extend(
                queue
                    .iter()
                    .take(PREFETCH_BATCH)
                    .map(|p| (p.location, p.corner.as_pixel())),
            );
            oracle.prefetch_pixel_batch(image, &upcoming);
        }
        let Some(pair) = queue.pop() else { break };
        match try_pair(oracle, &mut buf, pair, Counter::QueryInitScan, "init_scan") {
            Ok(false) => {}
            Ok(true) => {
                return SketchOutcome::Success {
                    pair,
                    queries: spent(oracle),
                }
            }
            Err(()) => {
                return SketchOutcome::OutOfBudget {
                    queries: spent(oracle),
                }
            }
        }

        let ctx = CondCtx {
            image,
            location: pair.location,
            perturbation: pair.corner.as_pixel(),
            orig_scores: &orig_scores,
            pert_scores: &buf,
            true_class,
        };

        // B1: push back the closest pairs with respect to the location.
        if program.condition(1, &ctx) {
            telemetry::count(Counter::ReprioritizeB1);
            trace::record_cond("b1");
            for neighbor in queue.location_neighbors(pair.location, pair.corner) {
                queue.push_back(neighbor);
            }
        }
        // B2: push back the closest pair with respect to the perturbation.
        if program.condition(2, &ctx) {
            telemetry::count(Counter::ReprioritizeB2);
            trace::record_cond("b2");
            if let Some(next) = queue.next_at_location(pair.location) {
                queue.push_back(next);
            }
        }

        // B3/B4: eager front-checking (lines 7–24 of Algorithm 1). The
        // queues own their score vectors: `buf` is overwritten by the next
        // query, so entries must be snapshots.
        let mut loc_q: VecDeque<(Pair, Vec<f32>)> = VecDeque::new();
        let mut pert_q: VecDeque<(Pair, Vec<f32>)> = VecDeque::new();
        loc_q.push_back((pair, buf.clone()));
        pert_q.push_back((pair, buf.clone()));

        while !loc_q.is_empty() || !pert_q.is_empty() {
            while let Some((failed, failed_scores)) = loc_q.pop_front() {
                let ctx = CondCtx {
                    image,
                    location: failed.location,
                    perturbation: failed.corner.as_pixel(),
                    orig_scores: &orig_scores,
                    pert_scores: &failed_scores,
                    true_class,
                };
                if !program.condition(3, &ctx) {
                    continue;
                }
                trace::record_cond("b3");
                for candidate in queue.location_neighbors(failed.location, failed.corner) {
                    queue.remove(candidate);
                    match try_pair(
                        oracle,
                        &mut buf,
                        candidate,
                        Counter::QueryRefine,
                        "refine_b3",
                    ) {
                        Ok(false) => {
                            loc_q.push_back((candidate, buf.clone()));
                            pert_q.push_back((candidate, buf.clone()));
                        }
                        Ok(true) => {
                            return SketchOutcome::Success {
                                pair: candidate,
                                queries: spent(oracle),
                            }
                        }
                        Err(()) => {
                            return SketchOutcome::OutOfBudget {
                                queries: spent(oracle),
                            }
                        }
                    }
                }
            }
            while let Some((failed, failed_scores)) = pert_q.pop_front() {
                let ctx = CondCtx {
                    image,
                    location: failed.location,
                    perturbation: failed.corner.as_pixel(),
                    orig_scores: &orig_scores,
                    pert_scores: &failed_scores,
                    true_class,
                };
                if !program.condition(4, &ctx) {
                    continue;
                }
                trace::record_cond("b4");
                if let Some(candidate) = queue.next_at_location(failed.location) {
                    queue.remove(candidate);
                    match try_pair(
                        oracle,
                        &mut buf,
                        candidate,
                        Counter::QueryRefine,
                        "refine_b4",
                    ) {
                        Ok(false) => {
                            loc_q.push_back((candidate, buf.clone()));
                            pert_q.push_back((candidate, buf.clone()));
                        }
                        Ok(true) => {
                            return SketchOutcome::Success {
                                pair: candidate,
                                queries: spent(oracle),
                            }
                        }
                        Err(()) => {
                            return SketchOutcome::OutOfBudget {
                                queries: spent(oracle),
                            }
                        }
                    }
                }
            }
        }
    }

    SketchOutcome::Exhausted {
        queries: spent(oracle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::FnClassifier;
    use crate::pair::{Corner, Location, Pixel};

    /// A classifier that flips its decision iff the pixel at `target` is
    /// exactly `trigger`.
    fn trigger_classifier(
        target: Location,
        trigger: Pixel,
    ) -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
        FnClassifier::new(2, move |img: &Image| {
            if img.pixel(target) == trigger {
                vec![0.1, 0.9]
            } else {
                vec![0.9, 0.1]
            }
        })
    }

    fn grey(h: usize, w: usize) -> Image {
        Image::filled(h, w, Pixel([0.4, 0.4, 0.4]))
    }

    #[test]
    fn finds_the_unique_adversarial_pair() {
        let target = Location::new(2, 3);
        let trigger = Pixel([1.0, 1.0, 1.0]);
        let clf = trigger_classifier(target, trigger);
        let mut oracle = Oracle::new(&clf);
        let outcome = run_sketch(&Program::constant(false), &mut oracle, &grey(5, 5), 0);
        match outcome {
            SketchOutcome::Success { pair, queries } => {
                assert_eq!(pair.location, target);
                assert_eq!(pair.corner.as_pixel(), trigger);
                assert!(queries >= 2, "baseline + at least one candidate");
                assert!(queries <= 8 * 25 + 1);
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn every_program_finds_the_example_if_it_exists() {
        // The paper's guarantee: the success of the sketch is independent
        // of the conditions; only the query count varies.
        let target = Location::new(0, 4);
        let trigger = Pixel([0.0, 0.0, 1.0]);
        let clf = trigger_classifier(target, trigger);
        for program in [
            Program::constant(false),
            Program::constant(true),
            Program::paper_example(),
        ] {
            let mut oracle = Oracle::new(&clf);
            let outcome = run_sketch(&program, &mut oracle, &grey(5, 5), 0);
            assert!(outcome.is_success(), "{program} failed: {outcome:?}");
        }
    }

    #[test]
    fn exhausts_when_no_attack_exists() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let mut oracle = Oracle::new(&clf);
        let outcome = run_sketch(&Program::constant(false), &mut oracle, &grey(3, 3), 0);
        match outcome {
            SketchOutcome::Exhausted { queries } => {
                // 1 baseline + all 72 candidates, each queried exactly once.
                assert_eq!(queries, 73);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn exhausts_with_true_conditions_without_double_queries() {
        // With all conditions true, eager checking fires constantly; the
        // removal discipline must still query each candidate exactly once.
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let mut oracle = Oracle::new(&clf);
        let outcome = run_sketch(&Program::constant(true), &mut oracle, &grey(3, 3), 0);
        assert_eq!(outcome, SketchOutcome::Exhausted { queries: 73 });
    }

    #[test]
    fn reports_already_misclassified() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.1, 0.9]);
        let mut oracle = Oracle::new(&clf);
        let outcome = run_sketch(&Program::constant(false), &mut oracle, &grey(3, 3), 0);
        assert_eq!(outcome, SketchOutcome::AlreadyMisclassified { queries: 1 });
    }

    #[test]
    fn respects_the_query_budget() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let mut oracle = Oracle::with_budget(&clf, 10);
        let outcome = run_sketch(&Program::constant(false), &mut oracle, &grey(5, 5), 0);
        assert_eq!(outcome, SketchOutcome::OutOfBudget { queries: 10 });
    }

    #[test]
    fn budget_of_zero_spends_nothing() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let mut oracle = Oracle::with_budget(&clf, 0);
        let outcome = run_sketch(&Program::constant(false), &mut oracle, &grey(3, 3), 0);
        assert_eq!(outcome, SketchOutcome::OutOfBudget { queries: 0 });
    }

    #[test]
    fn helpful_conditions_reduce_queries_for_off_center_targets() {
        // Target far from the centre with the *second*-farthest corner:
        // the fixed order checks all farthest-corner pairs first, but a
        // program that pushes back unpromising location neighbours can
        // reshuffle. More directly: compare the constant-false program
        // with the always-eager program on a trigger adjacent to the first
        // popped pair.
        let img = grey(7, 7);
        // First popped pair: centre (3,3) with its farthest corner. Place
        // the trigger adjacent to the centre with the SAME corner: eager
        // B3 finds it on the very next query.
        let first_corner = Corner::ranked_by_distance(img.pixel(Location::new(3, 3)))[0];
        let target = Location::new(3, 4);
        let clf = trigger_classifier(target, first_corner.as_pixel());

        let mut eager_oracle = Oracle::new(&clf);
        let eager = run_sketch(&Program::constant(true), &mut eager_oracle, &img, 0);
        let mut fixed_oracle = Oracle::new(&clf);
        let fixed = run_sketch(&Program::constant(false), &mut fixed_oracle, &img, 0);
        assert!(eager.is_success() && fixed.is_success());
        assert!(
            eager.queries() <= fixed.queries(),
            "eager {} vs fixed {}",
            eager.queries(),
            fixed.queries()
        );
    }

    #[test]
    fn success_query_count_matches_oracle_delta() {
        let target = Location::new(1, 1);
        let clf = trigger_classifier(target, Pixel([1.0, 1.0, 1.0]));
        let mut oracle = Oracle::new(&clf);
        // Pre-spend some queries to check delta accounting.
        oracle.query(&grey(3, 3)).unwrap();
        oracle.query(&grey(3, 3)).unwrap();
        let outcome = run_sketch(&Program::constant(false), &mut oracle, &grey(3, 3), 0);
        assert_eq!(outcome.queries() + 2, oracle.queries());
    }

    #[test]
    fn a_good_prior_reduces_queries_without_changing_the_outcome() {
        // Trigger far from the centre: the uniform (centre-out) order
        // reaches it late, a prior that marks its cell hot reaches it
        // early. Success is guaranteed either way — priors only permute
        // the starting order.
        let img = grey(6, 6);
        let target = Location::new(0, 0);
        let trigger = Corner::ranked_by_distance(img.pixel(target))[0].as_pixel();
        let clf = trigger_classifier(target, trigger);

        let mut table = vec![0.0; 9];
        table[0] = 1.0; // top-left cell of a 3x3 grid
        let prior = crate::prior::SaliencyPrior::new(3, vec![table]);

        let mut with_prior = Oracle::new(&clf);
        let hot = run_sketch_with_goal_prior(
            &Program::constant(false),
            &mut with_prior,
            &img,
            0,
            AttackGoal::Untargeted,
            &prior,
        );
        let mut uniform = Oracle::new(&clf);
        let cold = run_sketch(&Program::constant(false), &mut uniform, &img, 0);
        assert!(hot.is_success() && cold.is_success());
        assert!(
            hot.queries() < cold.queries(),
            "prior {} vs uniform {}",
            hot.queries(),
            cold.queries()
        );
    }

    #[test]
    fn a_restart_with_a_shared_memo_repays_nothing() {
        use crate::oracle::QueryMemo;
        // No attack exists, so a run visits every candidate. A second
        // run (restart) over the same image with a shared memo must see
        // the identical outcome while paying zero fresh queries.
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let img = grey(3, 3);
        let memo = QueryMemo::new();
        let mut first = Oracle::new(&clf).with_memo(&memo);
        let a = run_sketch(&Program::constant(false), &mut first, &img, 0);
        assert_eq!(a, SketchOutcome::Exhausted { queries: 73 });

        let mut second = Oracle::new(&clf).with_memo(&memo);
        let b = run_sketch(&Program::constant(false), &mut second, &img, 0);
        assert_eq!(
            b,
            SketchOutcome::Exhausted { queries: 0 },
            "every candidate served from the memo"
        );
        assert_eq!(second.memo_hits(), 73);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_true_class() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let mut oracle = Oracle::new(&clf);
        run_sketch(&Program::constant(false), &mut oracle, &grey(3, 3), 5);
    }
}
