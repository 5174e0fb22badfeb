//! Compressed-sparse-row tables: one offsets array plus one items array
//! for a whole relation, instead of one heap list per row.
//!
//! The graphs of this workspace are built once and then only read —
//! routine flow arcs ([`crate::FlowArcs`]), the PSG adjacency and its
//! call-return wiring — so a row never grows after construction and the
//! per-row allocations of a `Vec<Vec<_>>` buy nothing but allocator
//! traffic and 24 bytes of header per row.

use spike_isa::HeapSize;

/// A table of rows: row `i` is `items[offsets[i]..offsets[i + 1]]`.
///
/// `offsets` always holds `rows + 1` non-decreasing values starting at 0
/// and ending at `items.len()`; every constructor keeps that invariant.
#[derive(Clone, PartialEq, Eq)]
pub struct Csr<T> {
    pub(crate) offsets: Vec<u32>,
    pub(crate) items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Groups `(row, item)` pairs into `rows` rows by a stable counting
    /// sort: every row lists its items in the order the pairs arrive.
    ///
    /// The iterator is walked twice (count, then place), so it must be
    /// cheap to clone. Both arrays are allocated once, at their exact
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a row `>= rows`, or if there are `2³²` or
    /// more pairs.
    pub fn from_pairs<I>(rows: usize, pairs: I) -> Csr<T>
    where
        I: Iterator<Item = (usize, T)> + Clone,
    {
        let Some((_, fill)) = pairs.clone().next() else {
            return Csr::empty(rows);
        };
        let mut offsets = vec![0u32; rows + 1];
        for (row, _) in pairs.clone() {
            offsets[row + 1] += 1;
        }
        for i in 0..rows {
            offsets[i + 1] += offsets[i];
        }
        // `next[r]` is where row `r`'s next item goes; it ends at the
        // start of row `r + 1`.
        let mut next = offsets[..rows].to_vec();
        let mut items = vec![fill; offsets[rows] as usize];
        for (row, item) in pairs {
            items[next[row] as usize] = item;
            next[row] += 1;
        }
        Csr { offsets, items }
    }
}

impl<T> Csr<T> {
    /// A table of `rows` empty rows.
    pub fn empty(rows: usize) -> Csr<T> {
        Csr { offsets: vec![0; rows + 1], items: Vec::new() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Every item, row after row.
    #[inline]
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Iterates over the rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.offsets.windows(2).map(|w| &self.items[w[0] as usize..w[1] as usize])
    }
}

impl<T> std::ops::Index<usize> for Csr<T> {
    type Output = [T];

    /// Row `i`; see [`Csr::row`].
    #[inline]
    fn index(&self, i: usize) -> &[T] {
        self.row(i)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Csr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: HeapSize> HeapSize for Csr<T> {
    fn heap_bytes(&self) -> usize {
        self.offsets.heap_bytes() + self.items.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(t: &Csr<u32>) -> Vec<Vec<u32>> {
        t.iter().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn counting_sort_keeps_arrival_order_within_rows() {
        let pairs = [(2, 10), (0, 11), (2, 12), (2, 13), (0, 14)];
        let t = Csr::from_pairs(4, pairs.iter().copied());
        assert_eq!(t.rows(), 4);
        assert_eq!(rows_of(&t), vec![vec![11, 14], vec![], vec![10, 12, 13], vec![]]);
        assert_eq!(t.items(), &[11, 14, 10, 12, 13]);
        assert_eq!(t.heap_bytes(), 5 * 4 + 5 * 4);
        let none = Csr::<u32>::from_pairs(3, std::iter::empty());
        assert_eq!(none, Csr::empty(3));
        assert_eq!(rows_of(&none), vec![Vec::<u32>::new(); 3]);
    }
}
