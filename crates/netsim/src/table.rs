//! Struct-of-arrays per-node simulator state.
//!
//! [`NodeTable`] keeps each per-node liveness flag as one [`BitSet`] plane
//! (one cache line covers 512 nodes) and stores knowledge behind
//! [`Knowledge`], which switches to interval coding above
//! [`DENSE_KNOWLEDGE_MAX`] nodes.

use crate::bitset::BitSet;
use crate::intset::IntervalSet;

/// Largest network size for which knowledge sets stay dense bitsets.
///
/// Below this, a knowledge set costs at most 1 KiB of words and dense
/// operations are fastest; above it, per-node O(n) bits stops scaling
/// (n = 10⁶ would need ~125 GB) and runs win. Measured with every
/// knowledge set run-coded instead, the n = 4096 random-scheduler workload
/// ran 12% slower and the n = 32 explorer workload 26% slower, so the
/// dense arm stays.
pub(crate) const DENSE_KNOWLEDGE_MAX: usize = 8192;

/// A node's knowledge set — the ids it may address.
///
/// Representation is chosen once per network size: dense [`BitSet`] up to
/// [`DENSE_KNOWLEDGE_MAX`] nodes, interval-coded [`IntervalSet`] beyond.
/// Both answer the same queries, so the engine treats them uniformly.
#[derive(Clone, Debug)]
pub(crate) enum Knowledge {
    /// Dense bit words — O(1) everything, O(n) bits per node.
    Dense(BitSet),
    /// Sorted runs plus a small insert batch — O(1) amortized insert,
    /// memory ≈ runs.
    Runs(IntervalSet),
}

impl Knowledge {
    /// An empty set sized (and representation-selected) for an `n`-node
    /// network.
    pub(crate) fn for_network(n: usize) -> Self {
        if n > DENSE_KNOWLEDGE_MAX {
            Knowledge::Runs(IntervalSet::new())
        } else {
            Knowledge::Dense(BitSet::with_capacity(n))
        }
    }

    /// Inserts `index`; `true` if it was not already present.
    #[inline]
    pub(crate) fn insert(&mut self, index: usize) -> bool {
        match self {
            Knowledge::Dense(s) => s.insert(index),
            Knowledge::Runs(s) => s.insert(index),
        }
    }

    /// Whether `index` is present.
    #[inline]
    pub(crate) fn contains(&self, index: usize) -> bool {
        match self {
            Knowledge::Dense(s) => s.contains(index),
            Knowledge::Runs(s) => s.contains(index),
        }
    }

    /// Heap bytes backing the set.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Knowledge::Dense(s) => s.heap_bytes(),
            Knowledge::Runs(s) => s.heap_bytes(),
        }
    }

    /// Mixes the set's *membership* into `d`, independent of insertion
    /// order and internal layout: dense sets digest their sorted members,
    /// run-coded sets their canonical runs.
    pub(crate) fn digest_into(&self, d: &mut crate::scheduler::StateDigest) {
        match self {
            Knowledge::Dense(s) => {
                d.mix(s.len() as u64);
                for i in s.iter() {
                    d.mix(i as u64);
                }
            }
            Knowledge::Runs(s) => {
                d.mix(s.runs().count() as u64);
                for (lo, hi) in s.runs() {
                    d.mix(u64::from(lo));
                    d.mix(u64::from(hi));
                }
            }
        }
    }

    /// Inserts the half-open run `[start, end)` — how a delivery absorbs
    /// a run-coded payload, with no staging set in between.
    #[inline]
    pub(crate) fn insert_run(&mut self, start: u32, end: u32) {
        match self {
            Knowledge::Dense(s) => {
                for i in start..end {
                    s.insert(i as usize);
                }
            }
            Knowledge::Runs(s) => s.insert_run(start, end),
        }
    }
}

/// Struct-of-arrays state for every node: four liveness flag planes plus
/// the knowledge sets, indexed by dense node index.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeTable {
    awake: BitSet,
    wake_enqueued: BitSet,
    crashed: BitSet,
    left: BitSet,
    pub(crate) knowledge: Vec<Knowledge>,
}

/// Writes flag `i` of one plane.
#[inline]
fn set_flag(plane: &mut BitSet, i: usize, value: bool) {
    if value {
        plane.insert(i);
    } else {
        plane.remove(i);
    }
}

impl NodeTable {
    /// A table for `n` sleeping, uncrashed, empty-knowledge nodes.
    pub(crate) fn new(n: usize) -> Self {
        NodeTable {
            awake: BitSet::with_capacity(n),
            wake_enqueued: BitSet::with_capacity(n),
            crashed: BitSet::with_capacity(n),
            left: BitSet::with_capacity(n),
            knowledge: Vec::with_capacity(n),
        }
    }

    #[inline]
    pub(crate) fn awake(&self, i: usize) -> bool {
        self.awake.contains(i)
    }

    #[inline]
    pub(crate) fn set_awake(&mut self, i: usize, value: bool) {
        set_flag(&mut self.awake, i, value);
    }

    #[inline]
    pub(crate) fn wake_enqueued(&self, i: usize) -> bool {
        self.wake_enqueued.contains(i)
    }

    #[inline]
    pub(crate) fn set_wake_enqueued(&mut self, i: usize, value: bool) {
        set_flag(&mut self.wake_enqueued, i, value);
    }

    #[inline]
    pub(crate) fn crashed(&self, i: usize) -> bool {
        self.crashed.contains(i)
    }

    #[inline]
    pub(crate) fn set_crashed(&mut self, i: usize, value: bool) {
        set_flag(&mut self.crashed, i, value);
    }

    #[inline]
    pub(crate) fn left(&self, i: usize) -> bool {
        self.left.contains(i)
    }

    #[inline]
    pub(crate) fn set_left(&mut self, i: usize, value: bool) {
        set_flag(&mut self.left, i, value);
    }

    /// Sum of heap bytes across all knowledge sets.
    pub(crate) fn knowledge_bytes(&self) -> usize {
        self.knowledge.iter().map(Knowledge::heap_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knowledge_representation_follows_network_size() {
        assert!(matches!(
            Knowledge::for_network(DENSE_KNOWLEDGE_MAX),
            Knowledge::Dense(_)
        ));
        assert!(matches!(
            Knowledge::for_network(DENSE_KNOWLEDGE_MAX + 1),
            Knowledge::Runs(_)
        ));
        let mut k = Knowledge::for_network(1 << 20);
        assert!(k.insert(7));
        assert!(!k.insert(7));
        assert!(k.contains(7));
        assert!(!k.contains(8));
        assert!(k.heap_bytes() < 1024, "interval coding stays tiny");
    }
}
