//! `Snap`: a compact, versioned binary serialization for the analysis
//! structures, built for warm-cache snapshots.
//!
//! The encoding has one unusual obligation that rules out every
//! off-the-shelf format: it must round-trip **`Vec` capacities**, not
//! just contents. [`HeapSize`](crate::HeapSize) charges capacity, the
//! daemon's memory accounting is asserted bit-identical between
//! incremental and from-scratch runs, and a restored snapshot entry is
//! used as a re-analysis donor — so a `Vec` that comes back with a
//! different capacity would change `memory_bytes` and trip the
//! equality properties. `Vec<T>` therefore encodes as
//! `(capacity, len, items…)` and decodes via `Vec::with_capacity`.
//!
//! Everything else is deliberately plain: little-endian fixed-width
//! integers, `u8` enum tags, no self-description. Integrity is the job
//! of [`container`](crate::container) — snapshot and profile files carry
//! a format version and a checksum over the whole payload ([`fnv128`],
//! defined here), and decoding only runs after both check out. The
//! decoder still never panics on malformed input (every read is
//! bounds-checked and every tag validated), so a bad file costs an
//! error, not the daemon.

use std::time::Duration;

/// Errors a [`Snap`] decode can produce. Encoding is infallible.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapError {
    /// The buffer ended before the value did.
    Truncated,
    /// A tag or invariant check failed; the payload names the field.
    Malformed(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot payload is truncated"),
            SnapError::Malformed(what) => write!(f, "snapshot payload is malformed: {what}"),
        }
    }
}

/// Sink for [`Snap::snap`]. A thin wrapper over a byte vector.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// A fresh, empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Source for [`Snap::unsnap`]. Every read is bounds-checked.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole buffer has been consumed — decoders of
    /// containers check this to reject trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.get_u64()?).map_err(|_| SnapError::Malformed("usize overflow"))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }
}

/// Binary snapshot encoding: writes to a [`SnapWriter`], reads back
/// from a [`SnapReader`]. Round-trips values exactly, including `Vec`
/// capacities (see the module docs for why that matters).
pub trait Snap: Sized {
    /// Appends this value's encoding to `w`.
    fn snap(&self, w: &mut SnapWriter);
    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the buffer ends early,
    /// [`SnapError::Malformed`] on an invalid tag or invariant.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snap for bool {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(u8::from(*self));
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Malformed("bool tag")),
        }
    }
}

impl Snap for u8 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u8()
    }
}

impl Snap for u32 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u32()
    }
}

impl Snap for u64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u64()
    }
}

impl Snap for i64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_i64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_i64()
    }
}

impl Snap for usize {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_usize()
    }
}

impl Snap for Duration {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_secs());
        w.put_u32(self.subsec_nanos());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let secs = r.get_u64()?;
        let nanos = r.get_u32()?;
        if nanos >= 1_000_000_000 {
            return Err(SnapError::Malformed("duration nanos"));
        }
        Ok(Duration::new(secs, nanos))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            _ => Err(SnapError::Malformed("option tag")),
        }
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?))
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.capacity());
        w.put_usize(self.len());
        for item in self {
            item.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cap = r.get_usize()?;
        let len = r.get_usize()?;
        if len > cap {
            return Err(SnapError::Malformed("vec len > cap"));
        }
        // Every element encoding is at least one byte, so `len` is
        // bounded by the remaining payload; capacity can legitimately
        // exceed `len` (retained growth), but a corrupt header must
        // cost an error, not an allocation abort — bound it, and ask
        // for the memory fallibly: a long vector passes the bound with
        // a capacity no allocator can serve.
        if len > r.remaining() {
            return Err(SnapError::Truncated);
        }
        if cap > (len.max(1)) << 16 {
            return Err(SnapError::Malformed("vec capacity implausible"));
        }
        let mut v = Vec::new();
        v.try_reserve_exact(cap).map_err(|_| SnapError::Malformed("vec capacity"))?;
        for _ in 0..len {
            v.push(T::unsnap(r)?);
        }
        Ok(v)
    }
}

impl Snap for [u64; 2] {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self[0]);
        w.put_u64(self[1]);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok([r.get_u64()?, r.get_u64()?])
    }
}

/// `(len, (key, value)…)` in key order. Decoding requires strictly
/// increasing keys, so every map has exactly one encoding.
impl<K: Snap + Ord, V: Snap> Snap for std::collections::BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_usize()?;
        // Every entry encodes to at least one byte.
        if len > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut map = std::collections::BTreeMap::new();
        for _ in 0..len {
            let (k, v) = (K::unsnap(r)?, V::unsnap(r)?);
            if map.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(SnapError::Malformed("map keys out of order"));
            }
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        w.put_bytes(self.as_bytes());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_usize()?;
        let bytes = r.get_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Malformed("string utf-8"))
    }
}

impl Snap for crate::Reg {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(self.index() as u8);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_u8()?;
        if usize::from(n) >= crate::NUM_REGS {
            return Err(SnapError::Malformed("register index"));
        }
        Ok(crate::Reg::from_index(usize::from(n)))
    }
}

impl Snap for crate::RegSet {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.bits());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::RegSet::from_bits(r.get_u64()?))
    }
}

impl Snap for crate::MemWidth {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(match self {
            crate::MemWidth::L => 0,
            crate::MemWidth::Q => 1,
            crate::MemWidth::T => 2,
        });
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(crate::MemWidth::L),
            1 => Ok(crate::MemWidth::Q),
            2 => Ok(crate::MemWidth::T),
            _ => Err(SnapError::Malformed("mem width tag")),
        }
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// 64-bit FNV-1a of `bytes`. Not cryptographic: it guards against
/// accidental collisions between benign inputs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET_BASIS, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Two independent FNV-1a 64 lanes over `bytes`, 128 bits total: the
/// first is [`fnv64`], the second starts from a different offset basis
/// and salts every byte. Image content addressing (the daemon's cache
/// key, a profile's binding to its image) and the snapshot and profile
/// containers' payload checksums all use this one function, so they
/// agree about what "the same bytes" means; 2⁻¹²⁸ is beyond accidental.
pub fn fnv128(bytes: &[u8]) -> [u64; 2] {
    let mut a = FNV_OFFSET_BASIS;
    let mut b: u64 = 0x6C62_272E_07BB_0142;
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        b = (b ^ u64::from(byte ^ 0xA5)).wrapping_mul(FNV_PRIME);
    }
    [a, b]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CloneExact, HeapSize, MemWidth, Reg, RegSet};

    #[test]
    fn fnv_matches_the_published_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        let [a, b] = fnv128(b"foobar");
        assert_eq!(a, fnv64(b"foobar"));
        assert_ne!(a, b);
    }

    fn roundtrip<T: Snap>(v: &T) -> T {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::unsnap(&mut r).expect("roundtrip decodes");
        assert!(r.is_exhausted(), "decoder must consume every byte");
        back
    }

    #[test]
    fn scalars_roundtrip() {
        assert!(roundtrip(&true));
        assert!(!roundtrip(&false));
        assert_eq!(roundtrip(&0xAB_u8), 0xAB);
        assert_eq!(roundtrip(&0xDEAD_BEEF_u32), 0xDEAD_BEEF);
        assert_eq!(roundtrip(&u64::MAX), u64::MAX);
        assert_eq!(roundtrip(&-42_i64), -42);
        assert_eq!(roundtrip(&12345_usize), 12345);
        let d = Duration::new(7, 999_999_999);
        assert_eq!(roundtrip(&d), d);
        assert_eq!(roundtrip(&Some(9_u64)), Some(9));
        assert_eq!(roundtrip(&None::<u64>), None);
        assert_eq!(roundtrip(&"héllo".to_string()), "héllo");
        assert_eq!(roundtrip(&Reg::A0), Reg::A0);
        let set = RegSet::of(&[Reg::A0, Reg::V0, Reg::SP]);
        assert_eq!(roundtrip(&set), set);
        assert_eq!(roundtrip(&MemWidth::T), MemWidth::T);
    }

    #[test]
    fn vec_roundtrip_preserves_capacity() {
        // A vector whose capacity exceeds its length — the shape eviction
        // and incremental reuse leave behind — must come back with the
        // same heap charge, not a shrunk-to-fit one.
        let mut v: Vec<u64> = Vec::with_capacity(32);
        v.extend([1, 2, 3]);
        let back = roundtrip(&v);
        assert_eq!(back, v);
        assert_eq!(back.capacity(), 32);
        assert_eq!(back.heap_bytes(), v.heap_bytes());
        // And it matches what CloneExact produces, since the snapshot
        // path must be indistinguishable from an in-memory deep copy.
        assert_eq!(back.capacity(), v.clone_exact().capacity());
    }

    #[test]
    fn nested_vec_roundtrip() {
        let mut inner = Vec::with_capacity(8);
        inner.extend([RegSet::of(&[Reg::T0]), RegSet::new()]);
        let outer = vec![inner, Vec::with_capacity(4)];
        let back = roundtrip(&outer);
        assert_eq!(back, outer);
        assert_eq!(back.heap_bytes(), outer.heap_bytes());
        assert_eq!(back[0].capacity(), 8);
        assert_eq!(back[1].capacity(), 4);
    }

    #[test]
    fn truncated_and_malformed_inputs_error_cleanly() {
        let mut w = SnapWriter::new();
        vec![1_u64, 2, 3].snap(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(Vec::<u64>::unsnap(&mut r).is_err(), "cut at {cut} must not decode");
        }
        // A bad enum tag errors rather than panicking.
        let mut r = SnapReader::new(&[9]);
        assert_eq!(MemWidth::unsnap(&mut r), Err(SnapError::Malformed("mem width tag")));
        let mut r = SnapReader::new(&[7]);
        assert_eq!(bool::unsnap(&mut r), Err(SnapError::Malformed("bool tag")));
        // An absurd capacity claim is refused before allocating.
        let mut w = SnapWriter::new();
        w.put_usize(usize::MAX);
        w.put_usize(1);
        w.put_u64(0);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(Vec::<u64>::unsnap(&mut r).is_err());
    }

    #[test]
    fn maps_roundtrip_and_refuse_out_of_order_keys() {
        let map = std::collections::BTreeMap::from([((1_u32, 2_u32), 9_u64), ((1, 3), 0)]);
        assert_eq!(roundtrip(&map), map);
        assert_eq!(roundtrip(&[7_u64, u64::MAX]), [7, u64::MAX]);
        for keys in [[2_u32, 1], [4, 4]] {
            let mut w = SnapWriter::new();
            w.put_usize(2);
            for k in keys {
                w.put_u32(k);
                w.put_u8(0);
            }
            let bytes = w.into_bytes();
            let got = std::collections::BTreeMap::<u32, u8>::unsnap(&mut SnapReader::new(&bytes));
            assert_eq!(got, Err(SnapError::Malformed("map keys out of order")), "{keys:?}");
        }
    }

    /// A 1 MiB vector whose capacity field claims `1 << 36` elements is
    /// inside the plausibility bound; the allocation has to fail as an
    /// error, not as `handle_alloc_error`'s abort.
    #[test]
    fn a_capacity_no_allocator_can_serve_is_malformed_not_an_abort() {
        fn crafted<T: Snap + Default + Clone>() -> Vec<u8> {
            let mut w = SnapWriter::new();
            vec![T::default(); 1 << 20].snap(&mut w);
            let mut bytes = w.into_bytes();
            bytes[..8].copy_from_slice(&(1_u64 << 36).to_le_bytes());
            bytes
        }
        let bytes = crafted::<u8>();
        let got = Vec::<u8>::unsnap(&mut SnapReader::new(&bytes));
        assert_eq!(got, Err(SnapError::Malformed("vec capacity")));
        let bytes = crafted::<u64>();
        let got = Vec::<u64>::unsnap(&mut SnapReader::new(&bytes));
        assert_eq!(got, Err(SnapError::Malformed("vec capacity")));
    }
}
