//! Dense bitsets over basic blocks, used for natural-loop bodies.

use spike_isa::HeapSize;

use crate::block::BlockId;

/// A set of basic blocks within one routine, as a dense bitset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockSet {
    words: Vec<u64>,
    len: usize,
}

impl BlockSet {
    /// Creates an empty set over a universe of `len` blocks.
    pub fn new(len: usize) -> BlockSet {
        BlockSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// The universe size this set was created with.
    #[inline]
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Inserts a block, returning `true` if it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `b` is outside the universe.
    #[inline]
    pub fn insert(&mut self, b: BlockId) -> bool {
        let i = b.index();
        assert!(i < self.len, "block {i} outside universe {}", self.len);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let was = *w & bit != 0;
        *w |= bit;
        !was
    }

    /// Whether the set contains `b`.
    #[inline]
    pub fn contains(&self, b: BlockId) -> bool {
        let i = b.index();
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of blocks in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all blocks.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over members in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(BlockId::from_index(wi * 64 + bit))
            })
        })
    }
}

impl HeapSize for BlockSet {
    fn heap_bytes(&self) -> usize {
        self.words.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: usize) -> BlockId {
        BlockId::from_index(i)
    }

    #[test]
    fn insert_contains_count() {
        let mut s = BlockSet::new(130);
        assert!(s.insert(b(0)));
        assert!(s.insert(b(64)));
        assert!(s.insert(b(129)));
        assert!(!s.insert(b(64)));
        assert!(s.contains(b(0)));
        assert!(s.contains(b(129)));
        assert!(!s.contains(b(1)));
        assert_eq!(s.count(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn iter_ascending() {
        let mut s = BlockSet::new(200);
        for i in [5, 64, 65, 199, 0] {
            s.insert(b(i));
        }
        let v: Vec<usize> = s.iter().map(|x| x.index()).collect();
        assert_eq!(v, vec![0, 5, 64, 65, 199]);
    }

    #[test]
    fn clear_empties() {
        let mut s = BlockSet::new(10);
        s.insert(b(3));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        let mut s = BlockSet::new(4);
        s.insert(b(4));
    }
}
