//! Transferability (Table 1): programs synthesized for one classifier are
//! run against the others, measuring the increase in query count.
//!
//! Success rate is unaffected by transfer — any sketch instantiation is
//! exhaustive — so the interesting quantity is the average query count of
//! source-classifier programs on each target classifier. The diagonal is
//! the self-attack baseline.

use crate::curves::{
    evaluate_attack, evaluate_attack_parallel, evaluate_attack_parallel_with_memo, AttackEval,
};
use crate::report::{fmt_stat, Table};
use crate::suite::{ProgramSuite, SuiteAttack};
use oppsla_core::image::Image;
use oppsla_core::oracle::{BatchClassifier, Classifier, MemoBank};
use oppsla_core::telemetry::trace;

/// The transferability matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferResult {
    /// Classifier labels, indexing both axes.
    pub labels: Vec<String>,
    /// `avg_queries[target][source]`: average queries on classifier
    /// `target` using the suite synthesized for classifier `source`
    /// (matching the paper's table orientation: rows = targets,
    /// columns = synthesized-for).
    pub avg_queries: Vec<Vec<f64>>,
    /// `success_rate[target][source]` on valid images.
    pub success_rate: Vec<Vec<f64>>,
}

/// Runs the transferability experiment: for every (source, target) pair,
/// evaluates `suites[source]` on `classifiers[target]` over `test`.
///
/// # Panics
///
/// Panics if the numbers of labels, classifiers and suites disagree or are
/// empty.
pub fn run_transfer(
    labels: &[String],
    classifiers: &[&dyn Classifier],
    suites: &[ProgramSuite],
    test: &[(Image, usize)],
    eval_budget: u64,
    seed: u64,
) -> TransferResult {
    transfer_core(
        labels,
        classifiers.len(),
        suites,
        &mut |_, target, attack| {
            evaluate_attack(attack, classifiers[target], test, eval_budget, seed)
        },
    )
}

/// [`run_transfer`] with each (source, target) evaluation fanned out over
/// `threads` workers. The matrix is identical to the sequential one for
/// any thread count.
pub fn run_transfer_parallel(
    labels: &[String],
    classifiers: &[&dyn BatchClassifier],
    suites: &[ProgramSuite],
    test: &[(Image, usize)],
    eval_budget: u64,
    seed: u64,
    threads: usize,
) -> TransferResult {
    transfer_core(
        labels,
        classifiers.len(),
        suites,
        &mut |_, target, attack| {
            evaluate_attack_parallel(
                attack,
                classifiers[target],
                test,
                eval_budget,
                seed,
                threads,
            )
        },
    )
}

/// [`run_transfer_parallel`] with trace sectioning: each (source, target)
/// cell becomes its own trace section, cloned from `meta` with the label,
/// target architecture, and attack provenance filled per cell (so
/// `trace_replay` can rebuild the target model and image set). The
/// returned matrix is identical to the untraced call.
#[allow(clippy::too_many_arguments)]
pub fn run_transfer_parallel_traced(
    labels: &[String],
    classifiers: &[&dyn BatchClassifier],
    suites: &[ProgramSuite],
    test: &[(Image, usize)],
    eval_budget: u64,
    seed: u64,
    threads: usize,
    meta: &trace::SectionMeta,
) -> TransferResult {
    transfer_core(
        labels,
        classifiers.len(),
        suites,
        &mut |source, target, attack| {
            if trace::armed() {
                let mut m = meta.clone();
                m.label = format!("{}/{}<-{}", meta.label, labels[target], labels[source]);
                m.arch.clone_from(&labels[target]);
                m.attack = format!("oppsla[{}]", labels[source]);
                trace::begin_section(m);
            }
            evaluate_attack_parallel(
                attack,
                classifiers[target],
                test,
                eval_budget,
                seed,
                threads,
            )
        },
    )
}

/// [`run_transfer_parallel_traced`] with one [`MemoBank`] per *target*
/// classifier: every source suite attacking target `t` shares
/// `banks[t]`, so candidate queries one source already paid for are
/// served to the others for free. Banks are strictly per target — memo
/// keys carry no classifier identity, so sharing one bank across
/// classifiers would serve wrong scores. Success rates are identical to
/// the memo-less run; only `avg_queries` can drop (and the drop is the
/// cross-source redundancy Table 1 quantifies).
///
/// # Panics
///
/// Panics like [`run_transfer_parallel_traced`], or if `banks` does not
/// hold exactly one bank per classifier.
#[allow(clippy::too_many_arguments)]
pub fn run_transfer_parallel_with_memo(
    labels: &[String],
    classifiers: &[&dyn BatchClassifier],
    suites: &[ProgramSuite],
    test: &[(Image, usize)],
    eval_budget: u64,
    seed: u64,
    threads: usize,
    meta: &trace::SectionMeta,
    banks: &[MemoBank],
) -> TransferResult {
    assert_eq!(
        banks.len(),
        classifiers.len(),
        "one memo bank per target classifier"
    );
    transfer_core(
        labels,
        classifiers.len(),
        suites,
        &mut |source, target, attack| {
            if trace::armed() {
                let mut m = meta.clone();
                m.label = format!("{}/{}<-{}", meta.label, labels[target], labels[source]);
                m.arch.clone_from(&labels[target]);
                m.attack = format!("oppsla[{}]", labels[source]);
                trace::begin_section(m);
            }
            evaluate_attack_parallel_with_memo(
                attack,
                classifiers[target],
                test,
                eval_budget,
                seed,
                threads,
                &banks[target],
            )
        },
    )
}

/// The (source, target) sweep shared by the sequential and parallel
/// transfer runners; `eval` evaluates one suite attack on one target.
fn transfer_core(
    labels: &[String],
    n: usize,
    suites: &[ProgramSuite],
    eval: &mut dyn FnMut(usize, usize, &SuiteAttack) -> AttackEval,
) -> TransferResult {
    assert!(n > 0, "no classifiers");
    assert_eq!(labels.len(), n, "one label per classifier");
    assert_eq!(suites.len(), n, "one suite per classifier");

    let mut avg_queries = vec![vec![f64::NAN; n]; n];
    let mut success_rate = vec![vec![0.0; n]; n];
    for (source, suite) in suites.iter().enumerate() {
        let attack = SuiteAttack::new(suite.clone());
        for target in 0..n {
            let result = eval(source, target, &attack);
            avg_queries[target][source] = result.avg_queries();
            success_rate[target][source] = result.success_rate();
        }
    }
    TransferResult {
        labels: labels.to_vec(),
        avg_queries,
        success_rate,
    }
}

/// Renders the result as the paper's Table 1.
pub fn transfer_table(result: &TransferResult) -> Table {
    let mut headers = vec!["Target \\ Synthesized for".to_owned()];
    headers.extend(result.labels.iter().cloned());
    let mut table = Table::new(
        "Table 1: transferability — avg #queries of programs synthesized for another classifier",
        headers,
    );
    for (target, label) in result.labels.iter().enumerate() {
        let mut row = vec![label.clone()];
        row.extend(result.avg_queries[target].iter().map(|&v| fmt_stat(v)));
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppsla_core::dsl::Program;
    use oppsla_core::oracle::FnClassifier;
    use oppsla_core::pair::{Location, Pixel};

    fn clf_at(target: Location) -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
        FnClassifier::new(2, move |img: &Image| {
            if img.pixel(target) == Pixel([1.0, 1.0, 1.0]) {
                vec![0.1, 0.9]
            } else {
                vec![0.9, 0.1]
            }
        })
    }

    #[test]
    fn transfer_matrix_has_expected_shape_and_success() {
        let a = clf_at(Location::new(1, 1));
        let b = clf_at(Location::new(3, 3));
        let classifiers: Vec<&dyn Classifier> = vec![&a, &b];
        let labels = vec!["A".to_owned(), "B".to_owned()];
        let suites = vec![
            ProgramSuite::shared(Program::constant(false)),
            ProgramSuite::shared(Program::paper_example()),
        ];
        let test = vec![
            (Image::filled(5, 5, Pixel([0.4, 0.4, 0.4])), 0),
            (Image::filled(5, 5, Pixel([0.5, 0.5, 0.5])), 0),
        ];
        let result = run_transfer(&labels, &classifiers, &suites, &test, 10_000, 0);
        assert_eq!(result.avg_queries.len(), 2);
        assert_eq!(result.avg_queries[0].len(), 2);
        // Exhaustive sketch: success everywhere within a generous budget.
        for row in &result.success_rate {
            for &s in row {
                assert_eq!(s, 1.0);
            }
        }
        // All averages are finite and at least 2 (baseline + one pair).
        for row in &result.avg_queries {
            for &q in row {
                assert!(q.is_finite() && q >= 2.0);
            }
        }
    }

    #[test]
    fn parallel_transfer_matches_sequential() {
        let a = clf_at(Location::new(1, 1));
        let b = clf_at(Location::new(3, 3));
        let labels = vec!["A".to_owned(), "B".to_owned()];
        let suites = vec![
            ProgramSuite::shared(Program::constant(false)),
            ProgramSuite::shared(Program::paper_example()),
        ];
        let test = vec![
            (Image::filled(5, 5, Pixel([0.4, 0.4, 0.4])), 0),
            (Image::filled(5, 5, Pixel([0.5, 0.5, 0.5])), 0),
        ];
        let sequential = {
            let classifiers: Vec<&dyn Classifier> = vec![&a, &b];
            run_transfer(&labels, &classifiers, &suites, &test, 10_000, 0)
        };
        let classifiers: Vec<&dyn BatchClassifier> = vec![&a, &b];
        for threads in [1, 4] {
            let parallel =
                run_transfer_parallel(&labels, &classifiers, &suites, &test, 10_000, 0, threads);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn memoized_transfer_keeps_success_and_never_raises_queries() {
        let a = clf_at(Location::new(1, 1));
        let b = clf_at(Location::new(3, 3));
        let labels = vec!["A".to_owned(), "B".to_owned()];
        let suites = vec![
            ProgramSuite::shared(Program::constant(false)),
            ProgramSuite::shared(Program::paper_example()),
        ];
        let test = vec![
            (Image::filled(5, 5, Pixel([0.4, 0.4, 0.4])), 0),
            (Image::filled(5, 5, Pixel([0.5, 0.5, 0.5])), 0),
        ];
        let classifiers: Vec<&dyn BatchClassifier> = vec![&a, &b];
        let meta = trace::SectionMeta::default();
        let plain = run_transfer_parallel(&labels, &classifiers, &suites, &test, 10_000, 0, 1);
        let banks: Vec<MemoBank> = (0..2)
            .map(|_| MemoBank::new(test.len(), oppsla_core::oracle::DEFAULT_MEMO_CAPACITY))
            .collect();
        let memoed = run_transfer_parallel_with_memo(
            &labels,
            &classifiers,
            &suites,
            &test,
            10_000,
            0,
            1,
            &meta,
            &banks,
        );
        assert_eq!(memoed.success_rate, plain.success_rate);
        for (mr, pr) in memoed.avg_queries.iter().zip(&plain.avg_queries) {
            for (m, p) in mr.iter().zip(pr) {
                assert!(*m <= *p, "memoized transfer spent more queries: {m} > {p}");
            }
        }
        // The first source to hit each target pays full price: the
        // diagonal-free column for source 0 matches the plain run.
        for target in 0..2 {
            assert_eq!(memoed.avg_queries[target][0], plain.avg_queries[target][0]);
        }
        // The second source reuses the first source's candidates.
        let improved = (0..2).any(|t| memoed.avg_queries[t][1] < plain.avg_queries[t][1]);
        assert!(improved, "a warm target bank must repay something");
    }

    #[test]
    fn table_renders_rows_per_target() {
        let result = TransferResult {
            labels: vec!["X".into(), "Y".into()],
            avg_queries: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            success_rate: vec![vec![1.0, 1.0], vec![1.0, 1.0]],
        };
        let s = transfer_table(&result).to_string();
        assert!(s.contains("| X "), "{s}");
        assert!(s.contains("| 3.00 "), "{s}");
    }
}
