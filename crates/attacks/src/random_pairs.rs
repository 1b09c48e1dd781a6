//! Uniform no-replacement sampling over the corner candidate space — the
//! simplest possible baseline: like the sketch it is exhaustive (finds an
//! attack whenever one exists), but with no prioritization at all.

use crate::traits::{Attack, AttackOutcome};
use oppsla_core::goal::AttackGoal;
use oppsla_core::image::Image;
use oppsla_core::oracle::{argmax, Oracle};
use oppsla_core::pair::{Corner, Location, Pair};
use oppsla_core::telemetry::{self, Counter};
use oppsla_core::tracing::record_oracle_query;
use rand::seq::SliceRandom;
use rand::RngCore;

/// Exhaustive random-order enumeration of all `8·d₁·d₂` candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RandomPairs {
    goal: AttackGoal,
}

impl RandomPairs {
    /// Sets the attack goal (untargeted by default).
    pub fn with_goal(mut self, goal: AttackGoal) -> Self {
        self.goal = goal;
        self
    }
}

impl Attack for RandomPairs {
    fn name(&self) -> &'static str {
        "random-pairs"
    }

    fn attack(
        &self,
        oracle: &mut Oracle<'_>,
        image: &Image,
        true_class: usize,
        rng: &mut dyn RngCore,
    ) -> AttackOutcome {
        let start = oracle.queries();
        let spent = |oracle: &Oracle<'_>| oracle.queries() - start;

        let before_baseline = oracle.queries();
        let clean = match oracle.query(image) {
            Ok(s) => s,
            Err(_) => {
                return AttackOutcome::Failure {
                    queries: spent(oracle),
                }
            }
        };
        // A memo-served baseline is not a counted query: no phase
        // attribution, no trace record.
        if oracle.queries() > before_baseline {
            telemetry::count(Counter::QueryBaseline);
            record_oracle_query(
                "baseline",
                spent(oracle),
                None,
                &clean,
                true_class,
                self.goal,
            );
        }
        self.goal.validate(oracle.num_classes(), true_class);
        if argmax(&clean) != true_class {
            return AttackOutcome::AlreadyMisclassified {
                queries: spent(oracle),
            };
        }

        let mut pairs: Vec<Pair> = (0..image.height() as u16)
            .flat_map(|row| {
                (0..image.width() as u16).flat_map(move |col| {
                    Corner::ALL
                        .into_iter()
                        .map(move |corner| Pair::new(Location::new(row, col), corner))
                })
            })
            .collect();
        pairs.shuffle(rng);

        // Candidates are one-pixel swaps of the base image: route them
        // through the pixel-delta query path so incremental backends reuse
        // cached base activations. The shuffle enumerates each candidate
        // exactly once, so the whole run shares one duplicate-guard scope.
        oracle.begin_candidate_scope();
        let mut scores: Vec<f32> = Vec::with_capacity(clean.len());
        // The visiting order is fixed once shuffled, so upcoming chunks can
        // be speculatively prefetched: a batched backend evaluates 8
        // candidates per sweep, and an early success simply abandons the
        // unconsumed tail (computed but never counted).
        const PREFETCH_BATCH: usize = 8;
        let mut upcoming: Vec<(Location, oppsla_core::pair::Pixel)> =
            Vec::with_capacity(PREFETCH_BATCH);
        for (i, &pair) in pairs.iter().enumerate() {
            if !oracle.has_prefetched() {
                upcoming.clear();
                upcoming.extend(
                    pairs[i..]
                        .iter()
                        .take(PREFETCH_BATCH)
                        .map(|p| (p.location, p.corner.as_pixel())),
                );
                oracle.prefetch_pixel_batch(image, &upcoming);
            }
            let before = oracle.queries();
            match oracle.query_pixel_delta_into(
                image,
                pair.location,
                pair.corner.as_pixel(),
                &mut scores,
            ) {
                Ok(()) => {
                    if oracle.queries() > before {
                        telemetry::count(Counter::QueryInitScan);
                        record_oracle_query(
                            "init_scan",
                            spent(oracle),
                            Some((pair.location, pair.corner.as_pixel())),
                            &scores,
                            true_class,
                            self.goal,
                        );
                    }
                    if self.goal.is_adversarial(&scores, true_class) {
                        return AttackOutcome::Success {
                            location: pair.location,
                            pixel: pair.corner.as_pixel(),
                            queries: spent(oracle),
                        };
                    }
                }
                Err(_) => {
                    return AttackOutcome::Failure {
                        queries: spent(oracle),
                    }
                }
            }
        }
        AttackOutcome::Failure {
            queries: spent(oracle),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppsla_core::oracle::FnClassifier;
    use oppsla_core::pair::Pixel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn exhaustive_hence_always_finds_existing_attack() {
        let target = Location::new(3, 3);
        let clf = FnClassifier::new(2, move |img: &Image| {
            if img.pixel(target) == Pixel([1.0, 0.0, 0.0]) {
                vec![0.1, 0.9]
            } else {
                vec![0.9, 0.1]
            }
        });
        let img = Image::filled(4, 4, Pixel([0.5, 0.5, 0.5]));
        for seed in 0..5 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut oracle = Oracle::new(&clf);
            let outcome = RandomPairs::default().attack(&mut oracle, &img, 0, &mut rng);
            match outcome {
                AttackOutcome::Success { location, .. } => assert_eq!(location, target),
                other => panic!("seed {seed}: expected success, got {other:?}"),
            }
        }
    }

    #[test]
    fn exhausts_whole_space_on_robust_classifier() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let img = Image::filled(3, 3, Pixel([0.5, 0.5, 0.5]));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut oracle = Oracle::new(&clf);
        let outcome = RandomPairs::default().attack(&mut oracle, &img, 0, &mut rng);
        assert_eq!(outcome, AttackOutcome::Failure { queries: 73 });
    }

    #[test]
    fn different_seeds_visit_in_different_orders() {
        // The expected query count differs across seeds for a fixed target.
        let target = Location::new(0, 0);
        let clf = FnClassifier::new(2, move |img: &Image| {
            if img.pixel(target) == Pixel([0.0, 0.0, 0.0]) {
                vec![0.1, 0.9]
            } else {
                vec![0.9, 0.1]
            }
        });
        let img = Image::filled(5, 5, Pixel([0.5, 0.5, 0.5]));
        let counts: Vec<u64> = (0..6)
            .map(|seed| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut oracle = Oracle::new(&clf);
                RandomPairs::default()
                    .attack(&mut oracle, &img, 0, &mut rng)
                    .queries()
            })
            .collect();
        let mut unique = counts.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() > 1, "all seeds gave {counts:?}");
    }
}
