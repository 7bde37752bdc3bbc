//! Equivalence of the two knowledge-set representations.
//!
//! Above `DENSE_KNOWLEDGE_MAX` nodes the runner swaps its dense `BitSet`
//! knowledge for the interval-coded `IntervalSet`; the swap is only sound
//! if the two structures are observationally identical. These properties
//! drive both through the same operation sequences — scattered singletons,
//! run-heavy interval fills, and the batched insert path delivery uses —
//! and require equal answers from `insert` (including its "was new"
//! return), `contains`, `len` and in-order iteration.

use proptest::prelude::*;

use ard_netsim::{BitSet, IntervalSet};

const UNIVERSE: usize = 4096;

/// Asserts every observable of the pair matches.
fn assert_equivalent(dense: &BitSet, runs: &IntervalSet) {
    assert_eq!(dense.len(), runs.len(), "len diverged");
    assert_eq!(dense.is_empty(), runs.is_empty());
    let dense_ids: Vec<usize> = dense.iter().collect();
    let run_ids: Vec<usize> = runs.iter().collect();
    assert_eq!(dense_ids, run_ids, "iteration order diverged");
    for probe in [0, 1, 63, 64, UNIVERSE / 2, UNIVERSE - 1] {
        assert_eq!(dense.contains(probe), runs.contains(probe), "contains({probe})");
    }
    // Canonical runs: sorted, disjoint and non-adjacent (touching runs
    // must have merged, batched ids included).
    let canonical: Vec<(u32, u32)> = runs.runs().collect();
    for w in canonical.windows(2) {
        assert!(w[0].1 < w[1].0, "runs {w:?} should have coalesced");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scattered single-id inserts: the adversarial case for a run coder.
    #[test]
    fn scattered_inserts_are_equivalent(ids in proptest::collection::vec(0..UNIVERSE, 0..300)) {
        let mut dense = BitSet::with_capacity(UNIVERSE);
        let mut runs = IntervalSet::new();
        for id in ids {
            prop_assert_eq!(dense.insert(id), runs.insert(id), "insert({}) newness", id);
        }
        assert_equivalent(&dense, &runs);
    }

    /// Interval fills in random order: the representative ARD workload
    /// (nodes learn whole contiguous clusters), which should coalesce runs.
    #[test]
    fn run_heavy_inserts_are_equivalent(
        intervals in proptest::collection::vec((0..UNIVERSE, 1..64usize), 0..20),
    ) {
        let mut dense = BitSet::with_capacity(UNIVERSE);
        let mut runs = IntervalSet::new();
        for (start, len) in intervals {
            for id in start..(start + len).min(UNIVERSE) {
                prop_assert_eq!(dense.insert(id), runs.insert(id));
            }
        }
        assert_equivalent(&dense, &runs);
    }

    /// The delivery path: single ids interleaved with payload runs, where
    /// runs of one or two ids are batched id by id and longer runs are
    /// merged whole. A prefix of up to 160 batched-only operations buffers
    /// past the 64-id batch, so it flushes on its own before the mixed
    /// tail; `contains` is checked on the touched ids and their neighbours
    /// after every operation.
    #[test]
    fn batched_delivery_inserts_are_equivalent(
        batched in proptest::collection::vec((0..UNIVERSE / 4, 0..3usize), 0..160),
        mixed in proptest::collection::vec((0..UNIVERSE / 4, 0..6usize), 0..120),
    ) {
        let mut dense = BitSet::with_capacity(UNIVERSE);
        let mut runs = IntervalSet::new();
        for (start, len) in batched.into_iter().chain(mixed) {
            // Length 0 means a single `insert`; 1–5 an `insert_run`.
            let end = if len == 0 {
                prop_assert_eq!(dense.insert(start), runs.insert(start));
                start + 1
            } else {
                for id in start..start + len {
                    dense.insert(id);
                }
                runs.insert_run(start as u32, (start + len) as u32);
                start + len
            };
            prop_assert_eq!(dense.len(), runs.len());
            for probe in start.saturating_sub(1)..=end {
                prop_assert_eq!(dense.contains(probe), runs.contains(probe), "contains({})", probe);
            }
        }
        assert_equivalent(&dense, &runs);
    }
}
