//! A growable bitset for dense-index sets.
//!
//! Node ids are dense indices (see [`NodeId`](crate::NodeId)), so per-node
//! knowledge sets are kept as bitsets rather than hash sets: membership and
//! insertion are a word index and a mask — no hashing, no per-insert
//! allocation — which keeps the simulator's delivery hot path
//! allocation-free.

/// A growable set of `usize` indices backed by a `Vec<u64>` of bit words.
///
/// # Example
///
/// ```
/// use ard_netsim::BitSet;
///
/// let mut set = BitSet::new();
/// assert!(set.insert(3));
/// assert!(!set.insert(3), "second insert reports already-present");
/// assert!(set.contains(3));
/// assert!(!set.contains(200));
/// assert_eq!(set.len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Creates an empty set pre-sized to hold indices below `bits` without
    /// reallocating.
    pub fn with_capacity(bits: usize) -> Self {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Inserts `index`, growing the set as needed. Returns `true` if it was
    /// not already present.
    pub fn insert(&mut self, index: usize) -> bool {
        let word = index / 64;
        let mask = 1u64 << (index % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let old = self.words[word];
        self.words[word] = old | mask;
        old & mask == 0
    }

    /// Removes `index`. Returns `true` if it was present.
    pub fn remove(&mut self, index: usize) -> bool {
        let mask = 1u64 << (index % 64);
        match self.words.get_mut(index / 64) {
            Some(w) if *w & mask != 0 => {
                *w &= !mask;
                true
            }
            _ => false,
        }
    }

    /// Whether `index` is in the set.
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|w| w & (1u64 << (index % 64)) != 0)
    }

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the set's indices in increasing order.
    ///
    /// Empty words are skipped in one comparison and set bits are located
    /// with `trailing_zeros`, so iteration costs O(words + members) rather
    /// than O(64 · words) — the difference is large for the sparse sets the
    /// simulator's visitor path walks at n = 10⁶.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0)
            .flat_map(|(wi, &w)| {
                let mut rest = w;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Some(wi * 64 + b)
                })
            })
    }

    /// Heap bytes backing the set (capacity, not just occupancy).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = BitSet::new();
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
    fn insert_contains_and_growth() {
        let mut s = BitSet::new();
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert!(!s.insert(1000));
        for i in [0, 63, 64, 1000] {
            assert!(s.contains(i), "missing {i}");
        }
        for i in [1, 62, 65, 999, 1001, 100_000] {
            assert!(!s.contains(i), "phantom {i}");
        }
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn with_capacity_does_not_contain_anything() {
        let s = BitSet::with_capacity(500);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!((0..500).all(|i| !s.contains(i)));
    }

    #[test]
    fn iter_yields_sorted_members() {
        let s: BitSet = [5usize, 1, 200, 64].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5, 64, 200]);
    }

    #[test]
    fn equality_ignores_trailing_zero_words_only_if_same_shape() {
        let a: BitSet = [1usize, 2].into_iter().collect();
        let b: BitSet = [1usize, 2].into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn iter_skips_long_zero_runs() {
        let s: BitSet = [0usize, 10_000].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 10_000]);
    }

    #[test]
    fn remove_clears_only_present_members() {
        let mut s: BitSet = [3usize, 64].into_iter().collect();
        assert!(s.remove(64));
        assert!(!s.remove(64), "second remove reports already-absent");
        assert!(!s.remove(10_000), "removing past the words is a no-op");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3]);
    }
}
