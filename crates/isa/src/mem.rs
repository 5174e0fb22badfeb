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

/// Kept only so the standalone `benchmark/` package compiles
/// (`benchmark/src/run.rs` calls `analysis.clone_exact()`): an analysis
/// holds no capacity slack, so its plain `Clone` already holds what
/// [`HeapSize::heap_bytes`] charges, and this is that `Clone`.
pub trait CloneExact: Clone {
    /// `self.clone()`.
    fn clone_exact(&self) -> Self {
        self.clone()
    }
}

impl<T: Clone> CloneExact for T {}

/// Declares a struct together with a field-wise [`HeapSize`] impl, so
/// its field list is written once.
///
/// The struct is emitted exactly as written (attributes, doc comments,
/// field visibility), and the impl walks the fields in declaration
/// order. Types with a representation of their own — tagged enums, id
/// newtypes, packed sets — keep hand-written impls.
///
/// ```
/// use spike_isa::{HeapSize, RegSet};
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

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Box<T> {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<T>() + self.as_ref().heap_bytes()
    }
}

/// A shared value is charged as if owned: `total_bytes` of an `Arc<T>`
/// is the `T`'s, so a `Vec<Arc<T>>` charges what a `Vec<T>` of the same
/// length charges, however many holders share each value. The reference
/// counts and the pointer are left out so that sharing moves no number.
impl<T: HeapSize> HeapSize for std::sync::Arc<T> {
    fn heap_bytes(&self) -> usize {
        (std::mem::size_of::<T>() + self.as_ref().heap_bytes())
            .saturating_sub(std::mem::size_of::<Self>())
    }
}

/// A shared slice is charged as an owned `Vec` of its exact length.
impl<T: HeapSize> HeapSize for std::sync::Arc<[T]> {
    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>() + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
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
    fn a_shared_value_is_charged_as_if_owned() {
        use std::sync::Arc;
        let owned: Vec<Vec<u64>> = vec![vec![1, 2, 3], vec![4; 5]];
        let shared: Vec<Arc<Vec<u64>>> = owned.iter().cloned().map(Arc::new).collect();
        assert_eq!(shared.heap_bytes(), owned.heap_bytes());
        let arc = Arc::clone(&shared[0]);
        assert_eq!(arc.total_bytes(), owned[0].total_bytes());
        let slice: Arc<[u32]> = vec![1, 2, 3].into();
        assert_eq!(slice.heap_bytes(), vec![1u32, 2, 3].heap_bytes());
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
