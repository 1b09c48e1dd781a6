//! Model-based testing of the sketch's pair queue: the arena-backed
//! linked-list implementation must behave exactly like a naive
//! `VecDeque`-with-linear-scan reference model under arbitrary operation
//! sequences.
//!
//! The queue keeps a per-location side index (`closest_pert` support)
//! alongside the intrusive list; the full-state check after every
//! operation compares order, length, membership and that index against
//! the model, so a desync shows at the operation that caused it.

use oppsla::core::image::Image;
use oppsla::core::pair::{Corner, Location, Pair, Pixel};
use oppsla::core::queue::PairQueue;
use proptest::prelude::*;
use std::collections::VecDeque;

/// The obviously-correct reference model.
#[derive(Debug, Clone)]
struct NaiveQueue {
    pairs: VecDeque<Pair>,
    height: usize,
    width: usize,
}

impl NaiveQueue {
    fn from_real(real: &PairQueue, height: usize, width: usize) -> Self {
        NaiveQueue {
            pairs: real.iter().collect(),
            height,
            width,
        }
    }

    fn pop(&mut self) -> Option<Pair> {
        self.pairs.pop_front()
    }

    fn remove(&mut self, pair: Pair) -> bool {
        match self.pairs.iter().position(|&p| p == pair) {
            Some(i) => {
                self.pairs.remove(i);
                true
            }
            None => false,
        }
    }

    fn push_back(&mut self, pair: Pair) -> bool {
        if self.remove(pair) {
            self.pairs.push_back(pair);
            true
        } else {
            false
        }
    }

    fn contains(&self, pair: Pair) -> bool {
        self.pairs.contains(&pair)
    }

    fn next_at_location(&self, loc: Location) -> Option<Pair> {
        self.pairs.iter().find(|p| p.location == loc).copied()
    }

    fn location_neighbors(&self, loc: Location, corner: Corner) -> Vec<Pair> {
        loc.neighbors(self.height, self.width)
            .map(|n| Pair::new(n, corner))
            .filter(|p| self.contains(*p))
            .collect()
    }
}

/// Full-state equivalence: list order, length, membership of every pair,
/// and the per-location index all agree with the model.
fn check_state(real: &PairQueue, model: &NaiveQueue) -> Result<(), TestCaseError> {
    let iterated: Vec<Pair> = real.iter().collect();
    prop_assert_eq!(real.len(), iterated.len(), "len() disagrees with iter()");
    prop_assert!(
        iterated.iter().eq(model.pairs.iter()),
        "queue order desynced from the model"
    );
    for row in 0..model.height as u16 {
        for col in 0..model.width as u16 {
            let loc = Location::new(row, col);
            for k in 0..8 {
                let pair = Pair::new(loc, Corner::new(k));
                prop_assert_eq!(real.contains(pair), model.contains(pair));
            }
            prop_assert_eq!(
                real.next_at_location(loc),
                model.next_at_location(loc),
                "per-location index desynced at {:?}",
                loc
            );
        }
    }
    Ok(())
}

#[derive(Debug, Clone)]
enum Op {
    Pop,
    Remove(Pair),
    PushBack(Pair),
    CheckNextAt(Location),
    CheckNeighbors(Location, Corner),
}

fn arb_pair(h: u16, w: u16) -> impl Strategy<Value = Pair> {
    (0..h, 0..w, 0u8..8).prop_map(|(r, c, k)| Pair::new(Location::new(r, c), Corner::new(k)))
}

fn arb_op(h: u16, w: u16) -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Pop),
        3 => arb_pair(h, w).prop_map(Op::Remove),
        3 => arb_pair(h, w).prop_map(Op::PushBack),
        1 => (0..h, 0..w).prop_map(|(r, c)| Op::CheckNextAt(Location::new(r, c))),
        1 => arb_pair(h, w).prop_map(|p| Op::CheckNeighbors(p.location, p.corner)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queue_matches_reference_model(
        ops in proptest::collection::vec(arb_op(4, 4), 0..120),
        grey in 0u8..=255,
    ) {
        let v = grey as f32 / 255.0;
        let image = Image::filled(4, 4, Pixel([v, v, v]));
        let mut real = PairQueue::for_image(&image);
        let mut model = NaiveQueue::from_real(&real, 4, 4);
        prop_assert_eq!(real.len(), model.pairs.len());

        for op in ops {
            match op {
                Op::Pop => {
                    prop_assert_eq!(real.pop(), model.pop());
                }
                Op::Remove(p) => {
                    prop_assert_eq!(real.remove(p), model.remove(p));
                }
                Op::PushBack(p) => {
                    prop_assert_eq!(real.push_back(p), model.push_back(p));
                }
                Op::CheckNextAt(loc) => {
                    prop_assert_eq!(real.next_at_location(loc), model.next_at_location(loc));
                }
                Op::CheckNeighbors(loc, corner) => {
                    prop_assert_eq!(
                        real.location_neighbors(loc, corner),
                        model.location_neighbors(loc, corner)
                    );
                }
            }
            check_state(&real, &model)?;
        }
        // Draining by pops yields exactly the model's remaining pairs, in
        // order, and leaves the queue empty.
        let mut drained = Vec::new();
        while let Some(p) = real.pop() {
            drained.push(p);
        }
        let model_rest: Vec<Pair> = model.pairs.iter().copied().collect();
        prop_assert_eq!(drained, model_rest);
        prop_assert!(real.is_empty());
        prop_assert_eq!(real.len(), 0);
    }

    /// The initial ordering satisfies the paper's two sort keys.
    #[test]
    fn initial_order_keys_hold(fill in 0u8..11) {
        let v = (fill as f32 / 10.0).min(1.0);
        let image = Image::filled(5, 5, Pixel([v, v, v]));
        let queue = PairQueue::for_image(&image);
        let pairs: Vec<Pair> = queue.iter().collect();
        prop_assert_eq!(pairs.len(), 8 * 25);
        // Primary key: blocks of d1*d2 pairs with non-increasing pixel
        // distance of the corner from the (uniform) image pixel.
        let pix = Pixel([v, v, v]);
        for block in 0..8 {
            let d0 = pix.distance(pairs[block * 25].corner.as_pixel());
            for p in &pairs[block * 25..(block + 1) * 25] {
                prop_assert_eq!(pix.distance(p.corner.as_pixel()), d0,
                    "block {} mixes corner distances", block);
            }
            if block > 0 {
                let prev = pix.distance(pairs[(block - 1) * 25].corner.as_pixel());
                prop_assert!(prev >= d0, "blocks not sorted farthest-first");
            }
            // Secondary key: centre-out within the block.
            for w in pairs[block * 25..(block + 1) * 25].windows(2) {
                prop_assert!(
                    image.center_distance(w[0].location)
                        <= image.center_distance(w[1].location),
                    "block {} not centre-out", block
                );
            }
        }
    }
}
