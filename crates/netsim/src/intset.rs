//! Interval-coded index sets for run-heavy knowledge at large `n`.
//!
//! A discovery run grows each node's knowledge toward "everyone in my
//! component", and component ids are dense ranges of the simulator's
//! index space — so the *steady state* of a knowledge set is a handful of
//! long runs, not scattered bits. An [`IntervalSet`] stores exactly those
//! runs (`[start, end)`, sorted, disjoint, non-adjacent), which makes its
//! memory proportional to the number of runs (≈ constant per component)
//! instead of the O(n) bits a dense [`BitSet`](crate::BitSet) pays per
//! node. At n = 10⁶ that is the difference between ~125 GB of bitset
//! words and a few MB of run pairs.

/// Once the insert batch reaches this many ids it is merged into the run
/// vector. Batching turns the per-id cost of a scattered insert stream from
/// O(runs) (a tail-memmove per new interior run) into O(runs / PENDING_MAX
/// + 1) amortized, while a lookup pays at most one extra binary search.
const PENDING_MAX: usize = 64;

/// A sorted-run set of `usize` indices below `u32::MAX`.
///
/// Semantically identical to [`BitSet`](crate::BitSet) (the property tests
/// in `crates/netsim/tests` hold the two to the same answers); the trade-off
/// is O(log runs) lookup against O(runs) memory. Single ids are buffered in
/// a small sorted batch and merged into the runs 64 at a time; every read
/// (`contains`, `len`, `iter`, `runs`, equality) sees the batch, so the
/// buffering is invisible except in [`heap_bytes`](IntervalSet::heap_bytes).
///
/// # Example
///
/// ```
/// use ard_netsim::IntervalSet;
///
/// let mut set = IntervalSet::new();
/// assert!(set.insert(3));
/// assert!(set.insert(4));
/// assert!(!set.insert(3), "second insert reports already-present");
/// assert_eq!(set.runs().collect::<Vec<_>>(), [(3, 5)], "adjacent ids coalesce");
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct IntervalSet {
    /// Sorted, disjoint, non-adjacent half-open runs `[start, end)`.
    runs: Vec<(u32, u32)>,
    /// Total membership of `runs`, kept in sync by every merge.
    runs_len: u64,
    /// Sorted ids not yet merged into `runs` (disjoint from them).
    pending: Vec<u32>,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Inserts `index`. Returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below `u32::MAX` (node indices are dense and
    /// far smaller in practice).
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        let i = u32::try_from(index).expect("interval set index fits u32");
        assert!(i < u32::MAX, "interval set index below u32::MAX");
        if self.runs_contain(i) {
            return false;
        }
        let Err(at) = self.pending.binary_search(&i) else {
            return false;
        };
        self.pending.insert(at, i);
        if self.pending.len() >= PENDING_MAX {
            self.flush();
        }
        true
    }

    /// Whether `index` is in the set.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        u32::try_from(index)
            .is_ok_and(|i| self.runs_contain(i) || self.pending.binary_search(&i).is_ok())
    }

    /// Inserts every index in the half-open run `[start, end)` — how a
    /// delivery absorbs a run-coded payload: O(runs per message), never
    /// O(ids). Runs of one or two ids go through the batched
    /// [`insert`](IntervalSet::insert); longer ones are first checked for
    /// coverage (one binary search — the common redelivery case) and
    /// otherwise merged into the run vector directly.
    pub fn insert_run(&mut self, start: u32, end: u32) {
        if end.saturating_sub(start) <= 2 {
            for i in start..end {
                self.insert(i as usize);
            }
        } else if !self.runs_cover(start, end) {
            self.flush();
            self.merge_run(start, end);
        }
    }

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        self.runs_len as usize + self.pending.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.pending.is_empty()
    }

    /// The set as sorted, disjoint, non-adjacent half-open `(start, end)`
    /// runs — the canonical form, independent of insertion order and of
    /// which ids are still batched.
    pub fn runs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let mut merged = self.runs.iter().copied().peekable();
        let mut batched = self.pending.iter().map(|&i| (i, i + 1)).peekable();
        let mut next_piece = move || match (merged.peek(), batched.peek()) {
            (Some(a), Some(b)) if a.0 > b.0 => batched.next(),
            (Some(_), _) => merged.next(),
            (None, _) => batched.next(),
        };
        let mut piece = next_piece();
        std::iter::from_fn(move || {
            let (start, mut end) = piece?;
            loop {
                piece = next_piece();
                match piece {
                    Some((s, e)) if s <= end => end = end.max(e),
                    _ => return Some((start, end)),
                }
            }
        })
    }

    /// Iterates over the set's indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs()
            .flat_map(|(start, end)| (start..end).map(|i| i as usize))
    }

    /// Heap bytes backing the set (capacity, not just occupancy).
    pub fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.pending.capacity() * std::mem::size_of::<u32>()
    }

    /// Whether `i` lies in a merged run.
    #[inline]
    fn runs_contain(&self, i: u32) -> bool {
        let at = self.runs.partition_point(|&(start, _)| start <= i);
        at > 0 && i < self.runs[at - 1].1
    }

    /// Whether every index in `[start, end)` lies in the merged runs (one
    /// binary search: a covered run lies inside a single stored run).
    fn runs_cover(&self, start: u32, end: u32) -> bool {
        let at = self.runs.partition_point(|&(s, _)| s <= start);
        at > 0 && end <= self.runs[at - 1].1
    }

    /// Merges the insert batch into the run vector: one
    /// [`merge_run`](IntervalSet::merge_run) per maximal consecutive
    /// stretch (allocation-free — this runs on the delivery hot path).
    fn flush(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            let start = self.pending[i];
            let mut end = start + 1;
            i += 1;
            while i < self.pending.len() && self.pending[i] == end {
                end += 1;
                i += 1;
            }
            self.merge_run(start, end);
        }
        self.pending.clear();
    }

    /// Merges the non-empty run `[start, end)` into the run vector,
    /// coalescing with any overlapping or adjacent runs, in
    /// O(log runs + runs moved).
    fn merge_run(&mut self, start: u32, end: u32) {
        // Runs strictly left of `start` (no overlap, not adjacent) …
        let lo = self.runs.partition_point(|&(_, e)| e < start);
        // … and the first run strictly right of `end`.
        let hi = self.runs.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.runs.insert(lo, (start, end));
            self.runs_len += u64::from(end - start);
            return;
        }
        // Every run in `lo..hi` overlaps or touches `[start, end)`, so the
        // union of all of them with it is one contiguous span `[s, e)`; the
        // net growth is that span minus what those runs already covered.
        let mut covered = 0u64;
        let mut s = start;
        let mut e = end;
        for &(rs, re) in &self.runs[lo..hi] {
            covered += u64::from(re - rs);
            s = s.min(rs);
            e = e.max(re);
        }
        self.runs[lo] = (s, e);
        self.runs.drain(lo + 1..hi);
        self.runs_len += u64::from(e - s) - covered;
    }
}

/// Equality is membership equality: two sets holding the same ids are
/// equal however much of each is still batched.
impl PartialEq for IntervalSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.runs().eq(other.runs())
    }
}

impl Eq for IntervalSet {}

impl FromIterator<usize> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = IntervalSet::new();
        for i in iter {
            set.insert(i);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_and_coalescing() {
        let mut s = IntervalSet::new();
        assert!(s.insert(5));
        assert!(s.insert(7));
        assert_eq!(s.runs().collect::<Vec<_>>(), [(5, 6), (7, 8)]);
        // Filling the gap coalesces the two runs into one.
        assert!(s.insert(6));
        assert_eq!(s.runs().collect::<Vec<_>>(), [(5, 8)]);
        assert!(!s.insert(6));
        assert!(s.contains(5) && s.contains(6) && s.contains(7));
        assert!(!s.contains(4) && !s.contains(8));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn insert_extends_runs_on_both_sides() {
        let mut s = IntervalSet::new();
        s.insert(10);
        s.insert(9); // extend a run's start
        s.insert(11); // extend a run's end
        assert_eq!(s.runs().collect::<Vec<_>>(), [(9, 12)]);
        s.insert(0); // fresh run before
        s.insert(100); // fresh run after
        assert_eq!(s.runs().collect::<Vec<_>>(), [(0, 1), (9, 12), (100, 101)]);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn iter_yields_sorted_members() {
        let s: IntervalSet = [5usize, 1, 200, 64, 2].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 5, 64, 200]);
    }

    #[test]
    fn insert_run_merges_overlaps_and_adjacency() {
        let mut s = IntervalSet::new();
        s.insert_run(10, 20);
        assert_eq!(s.runs().collect::<Vec<_>>(), [(10, 20)]);
        assert_eq!(s.len(), 10);
        // Disjoint run before.
        s.insert_run(0, 3);
        assert_eq!(s.runs().collect::<Vec<_>>(), [(0, 3), (10, 20)]);
        // Overlapping both plus the gap: one merged span.
        s.insert_run(2, 15);
        assert_eq!(s.runs().collect::<Vec<_>>(), [(0, 20)]);
        assert_eq!(s.len(), 20);
        // Fully covered: no change.
        s.insert_run(5, 10);
        assert_eq!(s.len(), 20);
        // Adjacent on the right coalesces.
        s.insert_run(20, 25);
        assert_eq!(s.runs().collect::<Vec<_>>(), [(0, 25)]);
        assert_eq!(s.len(), 25);
        // Empty run is a no-op.
        s.insert_run(30, 30);
        assert_eq!(s.runs().collect::<Vec<_>>(), [(0, 25)]);
    }

    #[test]
    fn insert_run_matches_per_id_inserts() {
        // Oracle: the same memberships built id-by-id.
        let runs = [(5u32, 9u32), (0, 2), (8, 20), (30, 31), (19, 30), (2, 5)];
        let mut by_run = IntervalSet::new();
        let mut by_id = IntervalSet::new();
        for &(a, b) in &runs {
            by_run.insert_run(a, b);
            for i in a..b {
                by_id.insert(i as usize);
            }
            assert_eq!(by_run, by_id);
            assert_eq!(by_run.len(), by_id.len());
        }
        assert_eq!(by_run.runs().collect::<Vec<_>>(), [(0, 31)]);
    }

    #[test]
    fn batched_ids_read_like_merged_ones() {
        let mut s = IntervalSet::new();
        s.insert_run(0, 10);
        assert!(s.insert(10)); // batched, adjacent to the merged run
        assert!(s.insert(20)); // batched, isolated
        assert!(s.contains(10) && s.contains(20) && !s.contains(11));
        assert!(!s.insert(10), "a batched id is already present");
        assert_eq!(s.len(), 12);
        assert_eq!(s.runs().collect::<Vec<_>>(), [(0, 11), (20, 21)]);
        let mut merged = IntervalSet::new();
        merged.insert_run(0, 11);
        merged.insert_run(20, 21);
        assert_eq!(s, merged, "equality ignores what is still batched");
        // The 64th batched id merges the whole batch into the runs.
        for i in (100..300).step_by(2).take(62) {
            s.insert(i);
        }
        assert!(s.pending.is_empty());
        assert_eq!(s.runs.len(), 64);
        assert_eq!(s.len(), 74);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s: IntervalSet = [1usize].into_iter().collect();
        assert!(!s.contains(usize::MAX));
    }
}
