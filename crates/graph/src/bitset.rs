//! A fixed-capacity bit set used by the closure and matching algorithms.
//!
//! We deliberately avoid external bit-set crates: the dependency-graph
//! algorithms in this workspace only need a small, predictable API and we
//! want dense `u64`-block storage with fast union/intersection for the
//! transitive-closure kernels (see [`crate::closure`]).

/// A fixed-capacity set of `usize` indices backed by `u64` blocks.
///
/// The capacity is set at construction; all indices passed to methods must be
/// `< len()`. Operations across two sets require equal capacity.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    blocks: Vec<u64>,
    len: usize,
}

const BITS: usize = 64;

impl BitSet {
    /// Creates an empty set with capacity for `len` indices.
    pub fn new(len: usize) -> Self {
        BitSet {
            blocks: vec![0; len.div_ceil(BITS)],
            len,
        }
    }

    /// Number of indices this set can hold (not the number of set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Sets `bit`. Panics if out of range.
    pub fn insert(&mut self, bit: usize) {
        assert!(bit < self.len, "bit {bit} out of range {}", self.len);
        self.blocks[bit / BITS] |= 1 << (bit % BITS);
    }

    /// Clears `bit`. Panics if out of range.
    pub fn remove(&mut self, bit: usize) {
        assert!(bit < self.len, "bit {bit} out of range {}", self.len);
        self.blocks[bit / BITS] &= !(1 << (bit % BITS));
    }

    /// True if `bit` is set. Panics if out of range.
    pub fn contains(&self, bit: usize) -> bool {
        assert!(bit < self.len, "bit {bit} out of range {}", self.len);
        self.blocks[bit / BITS] & (1 << (bit % BITS)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Clears all bits, keeping capacity.
    pub fn clear(&mut self) {
        self.blocks.iter_mut().for_each(|b| *b = 0);
    }

    /// `self |= other`. Returns true if any bit changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "capacity mismatch");
        let mut changed = false;
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            let before = *a;
            *a |= b;
            changed |= *a != before;
        }
        changed
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// `self -= other` (set difference).
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// True if `self` and `other` share at least one set bit
    /// (non-destructive intersection test).
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "capacity mismatch");
        self.blocks.iter().zip(&other.blocks).any(|(a, b)| a & b != 0)
    }

    /// True if every bit of `self` is also set in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "capacity mismatch");
        self.blocks.iter().zip(&other.blocks).all(|(a, b)| a & !b == 0)
    }

    /// Iterates over set bit indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(self.blocks.iter().copied())
    }

    /// Iterates over the indices set in `self` but not in `other`, in
    /// ascending order (a non-destructive `self - other`).
    pub fn iter_difference<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.len, other.len, "capacity mismatch");
        set_bits(self.blocks.iter().zip(&other.blocks).map(|(a, b)| a & !b))
    }

    /// The smallest set index `>= from`, if any — a scan that may resume
    /// while the set changes between calls.
    pub fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / BITS;
        let mut bits = *self.blocks.get(w)? & (!0u64 << (from % BITS));
        loop {
            if bits != 0 {
                return Some(w * BITS + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.blocks.get(w)?;
        }
    }

    /// The backing `u64` blocks, lowest indices first.
    pub fn words(&self) -> &[u64] {
        &self.blocks
    }
}

/// Set bit indices of a block sequence, ascending.
fn set_bits(blocks: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    blocks.enumerate().flat_map(|(i, block)| {
        let mut b = block;
        std::iter::from_fn(move || {
            if b == 0 {
                None
            } else {
                let tz = b.trailing_zeros() as usize;
                b &= b - 1;
                Some(i * BITS + tz)
            }
        })
    })
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set whose capacity is `max(indices) + 1` (or 0 when empty).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(len);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        assert_eq!(s.count(), 4);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn next_from_scans_across_blocks() {
        let mut s = BitSet::new(200);
        for i in [3, 64, 130] {
            s.insert(i);
        }
        let got: Vec<Option<usize>> = [0, 3, 4, 64, 65, 131, 200].map(|f| s.next_from(f)).to_vec();
        assert_eq!(got, [Some(3), Some(3), Some(64), Some(64), Some(130), None, None]);
        assert_eq!(BitSet::new(0).next_from(0), None);
    }

    #[test]
    fn intersects_is_non_destructive() {
        let mut a = BitSet::new(130);
        let mut b = BitSet::new(130);
        a.insert(5);
        a.insert(129);
        b.insert(64);
        assert!(!a.intersects(&b));
        b.insert(129);
        assert!(a.intersects(&b));
        assert_eq!(a.count(), 2, "operands untouched");
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        b.insert(3);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "second union is a no-op");
        assert!(a.contains(3));
    }

    #[test]
    fn subset_and_difference() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        a.insert(65);
        b.insert(1);
        b.insert(65);
        b.insert(2);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert_eq!(b.iter_difference(&a).collect::<Vec<_>>(), vec![2]);
        assert_eq!(b.count(), 3, "iter_difference leaves both operands intact");
        b.difference_with(&a);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn iter_ascending_across_blocks() {
        let mut s = BitSet::new(200);
        for i in [199, 0, 64, 127, 128, 5] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 64, 127, 128, 199]);
    }

    #[test]
    fn intersect() {
        let mut a = BitSet::new(8);
        let mut b = BitSet::new(8);
        a.insert(1);
        a.insert(2);
        b.insert(2);
        b.insert(3);
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn from_iter_capacity() {
        let s: BitSet = [4usize, 9].into_iter().collect();
        assert_eq!(s.len(), 10);
        assert!(s.contains(4) && s.contains(9));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let s = BitSet::new(4);
        s.contains(4);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = BitSet::new(100);
        s.insert(99);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 100);
    }
}
