//! Run-length-coded id sequences for message payloads.
//!
//! A discovery run's large payloads (`info` handovers, query-family
//! replies) ship subsets of a component whose ids are dense ranges of the
//! simulator's index space — mostly *runs*, not scattered ids. An
//! [`IdSeq`] stores a payload as an ordered sequence of half-open runs, so
//! the endgame's O(component)-sized payloads collapse to a handful of words
//! instead of an O(component) `Vec<NodeId>` per message (the
//! allocation/memcpy traffic that dominated large-n throughput). A
//! singleton run is one word, the size of a plain id, so scattered
//! payloads cost no more than a `Vec` of ids would.
//!
//! Unlike [`IntervalSet`](crate::IntervalSet), an [`IdSeq`] is a
//! *sequence*, not a set: it preserves exactly the order ids were pushed
//! (including duplicates), because the [`Envelope`](crate::Envelope)
//! contract — visitor order, digests, bit metering — is defined over the
//! payload's id order and must stay byte-identical to the `Vec<NodeId>`
//! representation it replaces.

use crate::NodeId;

/// Packs a half-open run `[start, end)` into one word.
fn pack(start: u32, end: u32) -> u64 {
    (u64::from(start) << 32) | u64::from(end)
}

/// Unpacks a half-open run `[start, end)` from one word.
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// An ordered sequence of node ids with run-length compression.
///
/// Semantically a `Vec<NodeId>`: pushing ids and iterating yields exactly
/// the pushed sequence, in order, duplicates included. Representationally
/// it is one half-open `[start, end)` run per word, where a push of the
/// last run's `end` extends that run in place — so a payload built from
/// ascending iteration (every production site: the `BTreeSet` cluster
/// sets) stores long runs in O(1) words each.
///
/// # Example
///
/// ```
/// use ard_netsim::{IdSeq, NodeId};
///
/// let seq: IdSeq = (0..100).map(NodeId::new).collect();
/// assert_eq!(seq.len(), 100);
/// assert!(seq.heap_bytes() <= 40 * 8, "one ascending run stays compact");
/// assert_eq!(seq.iter().collect::<Vec<_>>(), (0..100).map(NodeId::new).collect::<Vec<_>>());
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct IdSeq {
    /// One half-open `[start, end)` run per word, `start` in the high 32
    /// bits. Each run is maximal: a run never ends where the next begins.
    words: Vec<u64>,
    /// Total ids in the sequence (sum of run lengths).
    len: u32,
}

impl IdSeq {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        IdSeq::default()
    }

    /// Creates an empty sequence reusing `buf`'s capacity (the buffer is
    /// cleared). Pair with [`into_words`](IdSeq::into_words) to recycle
    /// payload buffers through a [`MessageArena`](crate::MessageArena).
    pub fn with_buffer(mut buf: Vec<u64>) -> Self {
        buf.clear();
        IdSeq { words: buf, len: 0 }
    }

    /// Appends `id` to the sequence.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `id`'s index is `u32::MAX`, the one
    /// index a half-open `u32` run cannot end past.
    pub fn push(&mut self, id: NodeId) {
        let i = id.index() as u32;
        debug_assert!(i < u32::MAX, "id sequence index below u32::MAX");
        match self.words.last_mut() {
            // Extending the last run keeps ascending streams at one word
            // per run; anything else appends a fresh (possibly singleton)
            // run, preserving the exact push order.
            Some(w) if (*w as u32) == i => *w += 1,
            _ => self.words.push(pack(i, i + 1)),
        }
        self.len += 1;
    }

    /// Number of ids in the sequence.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Calls `f` with every id, in push order (the hot, allocation-free
    /// walk behind [`Envelope::for_each_carried_id`](crate::Envelope::for_each_carried_id)).
    pub fn for_each(&self, f: &mut dyn FnMut(NodeId)) {
        for &w in &self.words {
            let (start, end) = unpack(w);
            for i in start..end {
                f(NodeId::new(i as usize));
            }
        }
    }

    /// Calls `f` with the maximal `[start, end)` runs whose concatenation
    /// is exactly the id sequence, so knowledge absorption at delivery can
    /// learn a whole run per call instead of id-by-id.
    pub fn for_each_run(&self, f: &mut dyn FnMut(u32, u32)) {
        for &w in &self.words {
            let (start, end) = unpack(w);
            f(start, end);
        }
    }

    /// Iterates over the ids in push order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().flat_map(|&w| {
            let (start, end) = unpack(w);
            (start..end).map(|i| NodeId::new(i as usize))
        })
    }

    /// Whether `id` occurs anywhere in the sequence (linear scan; tests
    /// and assertions only).
    pub fn contains(&self, id: NodeId) -> bool {
        let i = id.index() as u32;
        self.words.iter().any(|&w| {
            let (start, end) = unpack(w);
            start <= i && i < end
        })
    }

    /// The ids collected into a `Vec`, in push order.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }

    /// Heap bytes backing the sequence (capacity, not just occupancy) —
    /// the payload-bytes metering the bench reports per event.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Consumes the sequence, returning its word buffer for recycling.
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }
}

impl std::fmt::Debug for IdSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for IdSeq {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut seq = IdSeq::new();
        for id in iter {
            seq.push(id);
        }
        seq
    }
}

impl Extend<NodeId> for IdSeq {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for id in iter {
            self.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(indices: &[usize]) -> Vec<NodeId> {
        indices.iter().copied().map(NodeId::new).collect()
    }

    fn roundtrip(oracle: &[NodeId]) {
        let seq: IdSeq = oracle.iter().copied().collect();
        assert_eq!(seq.len(), oracle.len());
        assert_eq!(seq.is_empty(), oracle.is_empty());
        assert_eq!(seq.to_vec(), oracle, "iter reproduces push order");
        let mut visited = Vec::new();
        seq.for_each(&mut |id| visited.push(id));
        assert_eq!(visited, oracle, "for_each matches iter");
        let mut by_runs = Vec::new();
        seq.for_each_run(&mut |s, e| by_runs.extend((s..e).map(|i| NodeId::new(i as usize))));
        assert_eq!(by_runs, oracle, "run decomposition concatenates to the sequence");
    }

    #[test]
    fn sequences_round_trip() {
        roundtrip(&[]);
        roundtrip(&ids(&[7]));
        roundtrip(&ids(&[5, 3, 9, 3, 0])); // unsorted, duplicate

        // Ascending: coalesces into one run.
        let asc: Vec<NodeId> = (10..200).map(NodeId::new).collect();
        roundtrip(&asc);
        let seq: IdSeq = asc.iter().copied().collect();
        assert_eq!(seq.words.len(), 1, "one ascending run is one word");

        // Segmented ascending (snapshot shape: more ++ done ++ unaware).
        let segs: Vec<NodeId> = (0..40).chain(100..140).chain(20..60).map(NodeId::new).collect();
        roundtrip(&segs);

        // Adversarially fragmented: every other id, no coalescing possible,
        // one word per id.
        let frag: Vec<NodeId> = (0..50).map(|i| NodeId::new(2 * i)).collect();
        roundtrip(&frag);
        let seq: IdSeq = frag.iter().copied().collect();
        assert_eq!(seq.words.len(), 50);

        // Descending (never produced, still must be exact).
        let desc: Vec<NodeId> = (0..50).rev().map(NodeId::new).collect();
        roundtrip(&desc);
    }

    #[test]
    fn equality_compares_the_sequence() {
        let a: IdSeq = (0..100).map(NodeId::new).collect();
        let mut b = IdSeq::new();
        b.extend((0..100).map(NodeId::new));
        assert_eq!(a, b);
        let short: IdSeq = ids(&[1, 2, 3]).into_iter().collect();
        assert_ne!(short, ids(&[1, 3, 2]).into_iter().collect::<IdSeq>());
        assert_ne!(short, ids(&[1, 2]).into_iter().collect::<IdSeq>());
    }

    #[test]
    fn buffer_recycling_round_trips() {
        let seq: IdSeq = (0..10).map(NodeId::new).collect();
        let words = seq.into_words();
        let cap = words.capacity();
        let mut reused = IdSeq::with_buffer(words);
        assert!(reused.is_empty());
        assert_eq!(reused.words.capacity(), cap);
        reused.push(NodeId::new(42));
        assert_eq!(reused.to_vec(), ids(&[42]));
    }

    #[test]
    fn contains_scans_every_run() {
        let scattered: IdSeq = ids(&[3, 8]).into_iter().collect();
        assert!(scattered.contains(NodeId::new(8)));
        assert!(!scattered.contains(NodeId::new(4)));
        let runs: IdSeq = (0..100).map(NodeId::new).collect();
        assert!(runs.contains(NodeId::new(99)));
        assert!(!runs.contains(NodeId::new(100)));
    }

    #[test]
    fn duplicate_of_run_end_starts_a_new_run() {
        // Pushing an id equal to the last run's *end* extends it; pushing
        // one equal to its last member must append, not extend.
        let mut seq = IdSeq::new();
        seq.extend((0..40).map(NodeId::new));
        seq.push(NodeId::new(39));
        let mut expected: Vec<NodeId> = (0..40).map(NodeId::new).collect();
        expected.push(NodeId::new(39));
        assert_eq!(seq.to_vec(), expected);
        assert_eq!(seq.len(), 41);
        assert_eq!(seq.words.len(), 2);
    }
}
