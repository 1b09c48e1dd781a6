//! The benchmark's statistics: the nearest-rank percentile rule, the
//! min-over-passes per-op statistic, and metric-name validity.

use std::time::Duration;

/// The `p`-th percentile of `values` by the nearest-rank rule: the value
/// at rank `ceil(p/100 · n)` (1-based) of the ascending order. It is
/// always a sample, so a percentile never invents a latency no op had.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile rank {p} out of (0, 100]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile in `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The median of `values` (the mean of the two central values for an
/// even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Per-op wall times of one op set across interleaved passes. Every op is
/// deterministic, so the fastest pass is the op's cost with the least
/// interference from the shared host: a slow phase has to cover every
/// pass of an op before it moves that op's value.
#[derive(Debug, Clone)]
pub struct PassTimes {
    ops: usize,
    passes: Vec<Vec<Duration>>,
}

impl PassTimes {
    /// An empty record for `ops` ops.
    pub fn new(ops: usize) -> Self {
        PassTimes {
            ops,
            passes: Vec::new(),
        }
    }

    /// Folds in one pass: `times[i]` is op `i`'s wall time in that pass.
    ///
    /// # Panics
    ///
    /// Panics if the pass covered a different number of ops.
    pub fn add_pass(&mut self, times: &[Duration]) {
        assert_eq!(times.len(), self.ops, "a pass must run every op once");
        self.passes.push(times.to_vec());
    }

    /// Passes folded in so far.
    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Each op's minimum over the passes, in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics before the first pass.
    pub fn best_ms(&self) -> Vec<f64> {
        self.per_op(|ms| ms.iter().copied().fold(f64::INFINITY, f64::min))
    }

    /// The sum of the per-op minimums, in seconds.
    pub fn total_s(&self) -> f64 {
        self.best_ms().iter().sum::<f64>() / 1e3
    }

    fn per_op(&self, stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
        assert!(!self.passes.is_empty(), "no pass recorded");
        (0..self.ops)
            .map(|i| {
                let ms: Vec<f64> = self
                    .passes
                    .iter()
                    .map(|p| p[i].as_secs_f64() * 1e3)
                    .collect();
                stat(&ms)
            })
            .collect()
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters, all of them letters, digits, `_`, `.` or `-`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters, all of them
/// letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // 101 samples: rank ceil(0.9 · 101) = 91 leaves 10 samples above.
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 91.0);
        assert_eq!(101 - nearest_rank(101, 90.0), 10);
        // Order of input does not matter; a single sample is every rank.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        percentile(&[], 50.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn pass_statistics_are_per_op() {
        let ms = Duration::from_millis;
        let mut t = PassTimes::new(3);
        t.add_pass(&[ms(5), ms(9), ms(2)]);
        t.add_pass(&[ms(4), ms(11), ms(3)]);
        t.add_pass(&[ms(6), ms(10), ms(1)]);
        assert_eq!(t.passes(), 3);
        assert_eq!(t.best_ms(), vec![4.0, 9.0, 1.0]);
        assert!((t.total_s() - 0.014).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "every op once")]
    fn pass_must_cover_every_op() {
        let mut t = PassTimes::new(2);
        t.add_pass(&[Duration::ZERO]);
    }

    #[test]
    fn metric_name_validity() {
        for ok in [
            "latency_ms_p50",
            "setup_s",
            "attack.sparse-rs.queries",
            "9lives",
            &"a".repeat(64),
        ] {
            assert!(valid_metric_name(ok), "{ok:?} should be valid");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "brace{x}",
            "ünï",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn unit_validity() {
        for ok in ["ms", "s", "1/s", "count", "%", "share", "MB"] {
            assert!(valid_unit(ok), "{ok:?} should be valid");
        }
        for bad in ["", "two words", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?} should be invalid");
        }
    }
}
