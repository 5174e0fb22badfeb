//! Deterministic memory accounting for analysis structures.
//!
//! Table 2 and Figure 15 of the paper report the memory required to perform
//! interprocedural dataflow analysis. Resident-set measurements are not
//! reproducible across machines and allocators, so this workspace instead
//! counts the bytes of every live analysis structure with the [`HeapSize`]
//! trait: `size_of::<T>()` for the value itself plus all heap storage it
//! owns, recursively.

/// Types that can report the heap bytes they own.
///
/// [`HeapSize::heap_bytes`] counts owned heap allocations only; the
/// inline size of the value is `size_of::<Self>()` and is added by
/// [`HeapSize::total_bytes`]. Collections report their *capacity*, matching
/// what an allocator would have handed out.
///
/// ```
/// use spike_isa::HeapSize;
/// let v: Vec<u32> = Vec::with_capacity(8);
/// assert_eq!(v.heap_bytes(), 8 * 4);
/// assert_eq!(v.total_bytes(), std::mem::size_of::<Vec<u32>>() + 32);
/// ```
pub trait HeapSize {
    /// Bytes of owned heap storage, recursively.
    fn heap_bytes(&self) -> usize;

    /// Inline size plus owned heap storage.
    fn total_bytes(&self) -> usize
    where
        Self: Sized,
    {
        std::mem::size_of::<Self>() + self.heap_bytes()
    }
}

/// Deep clone that preserves every collection's *capacity*, so the clone
/// reports exactly the same [`HeapSize::heap_bytes`] as its source.
///
/// `Clone` on a `Vec` allocates exactly `len` elements, silently
/// compacting the growth slack the original accumulated — which changes
/// `heap_bytes` and with it `AnalysisStats::memory_bytes`. Pipelines
/// that fork an analysis and still promise capacity-exact accounting
/// (the incremental re-analysis contract) must clone through this trait
/// instead.
///
/// ```
/// use spike_isa::{CloneExact, HeapSize};
/// let mut v: Vec<u32> = Vec::with_capacity(8);
/// v.push(1);
/// assert_ne!(v.clone().heap_bytes(), v.heap_bytes());
/// assert_eq!(v.clone_exact().heap_bytes(), v.heap_bytes());
/// ```
pub trait CloneExact {
    /// Clones `self`, reproducing the exact heap capacities of every
    /// owned collection.
    fn clone_exact(&self) -> Self;
}

/// Implements [`CloneExact`] for `Copy` types (no owned heap, so a bit
/// copy is already exact).
#[macro_export]
macro_rules! impl_clone_exact_for_copy {
    ($($t:ty),* $(,)?) => {
        $(impl $crate::CloneExact for $t {
            #[inline]
            fn clone_exact(&self) -> Self { *self }
        })*
    };
}

/// Declares a struct together with field-wise [`HeapSize`],
/// [`CloneExact`] and [`Snap`](crate::Snap) impls, so its field list is
/// written once.
///
/// The struct is emitted exactly as written (attributes, doc comments,
/// field visibility), and every impl walks the fields in declaration
/// order. For `Snap` that order *is* the encoding: reordering the fields
/// of a type that reaches a snapshot changes the payload layout and needs
/// a format-version bump. Types whose representation is itself a format
/// decision — tagged enums, id newtypes, packed sets — keep hand-written
/// impls.
///
/// ```
/// use spike_isa::{CloneExact, HeapSize, RegSet, Snap, SnapReader, SnapWriter};
///
/// spike_isa::analysis_struct! {
///     /// Live registers and a scratch buffer.
///     #[derive(Debug, PartialEq)]
///     pub struct Frame {
///         pub live: RegSet,
///         pub(crate) scratch: Vec<u32>,
///     }
/// }
///
/// let f = Frame { live: RegSet::ALL, scratch: Vec::with_capacity(4) };
/// assert_eq!(f.heap_bytes(), 4 * 4);
/// assert_eq!(f.clone_exact().scratch.capacity(), 4);
/// let mut w = SnapWriter::new();
/// f.snap(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(Frame::unsnap(&mut SnapReader::new(&bytes)), Ok(f));
/// ```
#[macro_export]
macro_rules! analysis_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident : $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty,)*
        }

        impl $crate::HeapSize for $name {
            fn heap_bytes(&self) -> usize {
                0 $(+ $crate::HeapSize::heap_bytes(&self.$field))*
            }
        }

        impl $crate::CloneExact for $name {
            fn clone_exact(&self) -> Self {
                $name { $($field: $crate::CloneExact::clone_exact(&self.$field),)* }
            }
        }

        impl $crate::Snap for $name {
            fn snap(&self, w: &mut $crate::SnapWriter) {
                $($crate::Snap::snap(&self.$field, w);)*
            }
            fn unsnap(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                Ok($name { $($field: $crate::Snap::unsnap(r)?,)* })
            }
        }
    };
}

macro_rules! impl_heap_size_zero {
    ($($t:ty),* $(,)?) => {
        $(impl HeapSize for $t {
            #[inline]
            fn heap_bytes(&self) -> usize { 0 }
        })*
    };
}

impl_heap_size_zero!(
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64,
    bool,
    char,
    (),
    std::time::Duration,
    [u64; 2],
    crate::Reg,
    crate::RegSet,
    crate::MemWidth,
    crate::Instruction
);

impl_clone_exact_for_copy!(
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64,
    bool,
    char,
    (),
    std::time::Duration,
    [u64; 2],
    crate::Reg,
    crate::RegSet,
    crate::MemWidth,
    crate::Instruction
);

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl<T: CloneExact> CloneExact for Vec<T> {
    fn clone_exact(&self) -> Vec<T> {
        let mut v = Vec::with_capacity(self.capacity());
        v.extend(self.iter().map(CloneExact::clone_exact));
        v
    }
}

impl<T: CloneExact> CloneExact for Box<T> {
    fn clone_exact(&self) -> Box<T> {
        Box::new(self.as_ref().clone_exact())
    }
}

impl<T: CloneExact> CloneExact for Option<T> {
    fn clone_exact(&self) -> Option<T> {
        self.as_ref().map(CloneExact::clone_exact)
    }
}

impl CloneExact for String {
    fn clone_exact(&self) -> String {
        let mut s = String::with_capacity(self.capacity());
        s.push_str(self);
        s
    }
}

impl<A: CloneExact, B: CloneExact> CloneExact for (A, B) {
    fn clone_exact(&self) -> (A, B) {
        (self.0.clone_exact(), self.1.clone_exact())
    }
}

impl<A: CloneExact, B: CloneExact, C: CloneExact> CloneExact for (A, B, C) {
    fn clone_exact(&self) -> (A, B, C) {
        (self.0.clone_exact(), self.1.clone_exact(), self.2.clone_exact())
    }
}

impl<K: CloneExact + Ord, V: CloneExact> CloneExact for std::collections::BTreeMap<K, V> {
    fn clone_exact(&self) -> Self {
        // BTreeMap allocates per node from `len` alone, so rebuilding
        // from the entries reproduces the accounting exactly.
        self.iter().map(|(k, v)| (k.clone_exact(), v.clone_exact())).collect()
    }
}

impl<T: CloneExact + Ord> CloneExact for std::collections::BTreeSet<T> {
    fn clone_exact(&self) -> Self {
        self.iter().map(CloneExact::clone_exact).collect()
    }
}

impl<T: HeapSize> HeapSize for Box<T> {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<T>() + self.as_ref().heap_bytes()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_bytes)
    }
}

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

impl<A: HeapSize, B: HeapSize, C: HeapSize> HeapSize for (A, B, C) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes() + self.2.heap_bytes()
    }
}

impl<K: HeapSize, V: HeapSize> HeapSize for std::collections::BTreeMap<K, V> {
    fn heap_bytes(&self) -> usize {
        // BTreeMap nodes are opaque; approximate with entry payloads plus a
        // small per-entry node overhead, which is stable across runs.
        self.iter()
            .map(|(k, v)| {
                std::mem::size_of::<K>()
                    + std::mem::size_of::<V>()
                    + k.heap_bytes()
                    + v.heap_bytes()
            })
            .sum::<usize>()
            + self.len() * 2 * std::mem::size_of::<usize>()
    }
}

impl<T: HeapSize> HeapSize for std::collections::BTreeSet<T> {
    fn heap_bytes(&self) -> usize {
        self.iter().map(|v| std::mem::size_of::<T>() + v.heap_bytes()).sum::<usize>()
            + self.len() * 2 * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_own_no_heap() {
        assert_eq!(42u32.heap_bytes(), 0);
        assert_eq!(42u32.total_bytes(), 4);
        assert_eq!(crate::RegSet::ALL.heap_bytes(), 0);
    }

    #[test]
    fn vec_counts_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        v.push(1);
        assert_eq!(v.heap_bytes(), 16 * 8);
    }

    #[test]
    fn nested_vectors_count_recursively() {
        let v: Vec<Vec<u8>> = vec![Vec::with_capacity(10), Vec::with_capacity(20)];
        let inline = v.capacity() * std::mem::size_of::<Vec<u8>>();
        assert_eq!(v.heap_bytes(), inline + 30);
    }

    #[test]
    fn string_counts_capacity() {
        let s = String::from("hello");
        assert!(s.heap_bytes() >= 5);
    }

    #[test]
    fn option_and_box() {
        let b: Box<u64> = Box::new(7);
        assert_eq!(b.heap_bytes(), 8);
        let o: Option<Vec<u8>> = Some(Vec::with_capacity(4));
        assert_eq!(o.heap_bytes(), 4);
        assert_eq!(None::<Vec<u8>>.heap_bytes(), 0);
    }

    #[test]
    fn clone_exact_preserves_capacity_slack() {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        v.push(1);
        v.push(2);
        assert_eq!(v.clone().heap_bytes(), 2 * 8, "Clone compacts to len");
        assert_eq!(v.clone_exact().heap_bytes(), v.heap_bytes());
        assert_eq!(v.clone_exact(), v);

        let mut nested: Vec<Vec<u8>> = Vec::with_capacity(4);
        nested.push(Vec::with_capacity(32));
        assert_eq!(nested.clone_exact().heap_bytes(), nested.heap_bytes());

        let mut s = String::with_capacity(64);
        s.push_str("hi");
        assert_eq!(s.clone_exact().heap_bytes(), 64);
        assert_eq!(s.clone_exact(), s);

        let o: Option<Vec<u8>> = Some(Vec::with_capacity(4));
        assert_eq!(o.clone_exact().heap_bytes(), 4);
    }

    #[test]
    fn btree_map_is_deterministic() {
        let mut m = std::collections::BTreeMap::new();
        m.insert(1u32, 2u64);
        m.insert(3u32, 4u64);
        let a = m.heap_bytes();
        let m2 = m.clone();
        assert_eq!(a, m2.heap_bytes());
        assert!(a > 0);
    }
}
