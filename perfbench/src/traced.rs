//! The traced run's only probe into the inference layer: a [`Classifier`]
//! wrapper that times and counts every call into the wrapped session.
//!
//! It forwards all seven trait methods, default-implemented ones too, so
//! the wrapped classifier's own overrides keep deciding every route
//! (full, one-pixel delta, batched delta) exactly as without the wrapper.

use oppsla_core::image::Image;
use oppsla_core::oracle::Classifier;
use oppsla_core::pair::{Location, Pixel};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Calls, candidates and busy time per inference route.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InferTally {
    /// Full-image forwards (`scores`, `scores_into`, `classify`, and each
    /// image of `scores_batch_into`).
    pub full_calls: u64,
    /// Time inside full-image calls.
    pub full_time: Duration,
    /// Single-candidate one-pixel delta calls.
    pub delta_calls: u64,
    /// Time inside single-candidate delta calls.
    pub delta_time: Duration,
    /// Batched one-pixel delta calls.
    pub batch_calls: u64,
    /// Candidates scored by batched delta calls.
    pub batch_candidates: u64,
    /// Time inside batched delta calls.
    pub batch_time: Duration,
}

impl InferTally {
    /// Time inside any inference call.
    pub fn busy(&self) -> Duration {
        self.full_time + self.delta_time + self.batch_time
    }

    /// Score vectors computed, counted or speculative.
    pub fn candidates(&self) -> u64 {
        self.full_calls + self.delta_calls + self.batch_candidates
    }
}

/// A classifier that tallies every call into `inner` by route.
pub struct Traced<'a> {
    inner: &'a dyn Classifier,
    tally: Cell<InferTally>,
}

impl<'a> Traced<'a> {
    /// Wraps `inner` with an empty tally.
    pub fn new(inner: &'a dyn Classifier) -> Self {
        Traced {
            inner,
            tally: Cell::new(InferTally::default()),
        }
    }

    /// Returns the tally so far and resets it.
    pub fn take(&self) -> InferTally {
        self.tally.take()
    }

    fn full<R>(&self, images: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let dt = start.elapsed();
        let mut t = self.tally.get();
        t.full_calls += images;
        t.full_time += dt;
        self.tally.set(t);
        r
    }
}

impl Classifier for Traced<'_> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        self.full(1, || self.inner.scores(image))
    }

    fn scores_into(&self, image: &Image, out: &mut Vec<f32>) {
        self.full(1, || self.inner.scores_into(image, out));
    }

    fn classify(&self, image: &Image) -> usize {
        self.full(1, || self.inner.classify(image))
    }

    fn scores_pixel_delta_into(
        &self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        let start = Instant::now();
        self.inner
            .scores_pixel_delta_into(base, location, pixel, out);
        let dt = start.elapsed();
        let mut t = self.tally.get();
        t.delta_calls += 1;
        t.delta_time += dt;
        self.tally.set(t);
    }

    fn scores_batch_into(&self, images: &[Image], out: &mut Vec<f32>) {
        self.full(images.len() as u64, || {
            self.inner.scores_batch_into(images, out)
        });
    }

    fn scores_pixel_delta_batch_into(
        &self,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) {
        let start = Instant::now();
        self.inner
            .scores_pixel_delta_batch_into(base, candidates, out);
        let dt = start.elapsed();
        let mut t = self.tally.get();
        t.batch_calls += 1;
        t.batch_candidates += candidates.len() as u64;
        t.batch_time += dt;
        self.tally.set(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::{roster, run_op, OpResult};
    use oppsla_core::oracle::BatchClassifier;
    use oppsla_eval::zoo::{attack_test_set, train_or_load, Scale, ZooConfig};
    use oppsla_nn::models::Arch;

    /// Wrapped and unwrapped sessions give identical outcomes and query
    /// counts for every attack of the roster, and the wrapper sees every
    /// counted query on some route.
    #[test]
    fn wrapper_changes_no_outcome() {
        let config = ZooConfig {
            train_per_class: 20,
            epochs: Some(3),
            cache_dir: None,
            ..ZooConfig::default()
        };
        let model = train_or_load(Arch::Mlp, Scale::Cifar, &config);
        let classifier = model.classifier();
        let plain = classifier.session();
        // Clean-correct images only, as the benchmark attacks: a
        // misclassified one ends after its first query.
        let images: Vec<_> = attack_test_set(Scale::Cifar, 2, 5)
            .into_iter()
            .filter(|(image, label)| plain.classify(image) == *label)
            .collect();
        assert!(
            images.len() >= 3,
            "the test model classifies too few images"
        );
        let attacks = roster(300);
        let wrapped_session = classifier.session();
        let wrapped = Traced::new(&*wrapped_session);
        let mut queries = 0;
        for (i, (image, label)) in images.iter().enumerate() {
            for (a, (key, attack)) in attacks.iter().enumerate() {
                let op = (i * attacks.len() + a) as u64;
                let (want, _): (OpResult, _) = run_op(&*plain, &**attack, image, *label, 300, op);
                let (got, _) = run_op(&wrapped, &**attack, image, *label, 300, op);
                assert_eq!(got, want, "image {i}, attack {key}");
                queries += got.queries;
            }
        }
        let tally = wrapped.take();
        assert!(
            tally.candidates() >= queries,
            "every counted query is scored"
        );
        assert!(tally.full_calls > 0 && tally.delta_calls + tally.batch_candidates > 0);
        assert_eq!(
            wrapped.take(),
            InferTally::default(),
            "take resets the tally"
        );
    }
}
