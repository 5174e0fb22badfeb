//! The executable image format: writer and loader.
//!
//! Spike consumes linked executables. This module defines a compact binary
//! image for synthetic programs — a header, a symbol table describing each
//! routine (name, address, entrances, export flag), the encoded instruction
//! words, the jump tables, and the optional indirect-call target records
//! that §3.5 of the paper suggests a compiler or linker could provide.
//! Loading an image decodes every instruction word and re-validates all
//! whole-program invariants.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use spike_isa::{DecodeError, Instruction};

use crate::program::{IndirectTargets, Program, ProgramError};
use crate::routine::{Routine, RoutineId};

const MAGIC: u32 = 0x53504B45; // "SPKE"
const VERSION: u32 = 1;

/// Error produced by [`Program::from_image`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ImageError {
    /// The image ends before a field it promises.
    Truncated,
    /// The magic number is wrong.
    BadMagic(u32),
    /// The format version is unsupported.
    BadVersion(u32),
    /// A routine name is not valid UTF-8.
    BadName,
    /// An instruction word failed to decode.
    Decode { addr: u32, source: DecodeError },
    /// The decoded program failed validation.
    Invalid(ProgramError),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Truncated => write!(f, "image is truncated"),
            ImageError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            ImageError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            ImageError::BadName => write!(f, "routine name is not valid utf-8"),
            ImageError::Decode { addr, source } => {
                write!(f, "undecodable instruction at {addr:#x}: {source}")
            }
            ImageError::Invalid(e) => write!(f, "image contains an invalid program: {e}"),
        }
    }
}

impl std::error::Error for ImageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImageError::Decode { source, .. } => Some(source),
            ImageError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProgramError> for ImageError {
    fn from(e: ProgramError) -> ImageError {
        ImageError::Invalid(e)
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ImageError> {
        let end = self.pos.checked_add(n).ok_or(ImageError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ImageError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ImageError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ImageError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ImageError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ImageError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a count field, bounding it by the bytes that remain so a
    /// corrupt length cannot trigger a huge allocation.
    fn count(&mut self, elem_size: usize) -> Result<usize, ImageError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_size) > self.bytes.len() - self.pos {
            return Err(ImageError::Truncated);
        }
        Ok(n)
    }
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bytes before the first routine record: magic, version, entry and
/// routine count.
const HEADER_BYTES: usize = 16;

/// Skips one routine record of an image, returning its instruction words.
fn record_words<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], ImageError> {
    let name_len = r.u16()? as usize;
    r.take(name_len)?;
    r.u32()?; // addr
    let n_insns = r.count(4)?;
    r.u32()?; // flags
    let n_entries = r.count(4)?;
    r.take(4 * n_entries)?;
    r.take(4 * n_insns)
}

/// Decodes a routine's instruction words, based at `addr`, straight into
/// its array (one allocation, no copy). `like` holds the words and the
/// instructions of a donor routine of the same length: where a word
/// equals the donor's at the same index, the donor's instruction is
/// copied instead of decoded. Equal words decode to equal instructions,
/// and an undecodable word is never one of those, so the result, error
/// included, is the plain decode's.
fn decode_words(
    words: &[u8],
    addr: u32,
    like: Option<(&[u8], &[Instruction])>,
) -> Result<Arc<[Instruction]>, ImageError> {
    let word = |w: &[u8]| u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let (like_words, like_insns) = like.unwrap_or_default();
    let mut failed = None;
    let insns = words
        .chunks_exact(4)
        .enumerate()
        .map(|(i, w)| {
            let w = word(w);
            match like_words.get(4 * i..4 * i + 4) {
                Some(d) if word(d) == w => like_insns[i],
                _ => Instruction::decode(w).unwrap_or_else(|source| {
                    // `addr` is still unvalidated image data here; wrap
                    // rather than overflow when computing the diagnostic
                    // address.
                    failed.get_or_insert(ImageError::Decode {
                        addr: addr.wrapping_add(i as u32),
                        source,
                    });
                    Instruction::Halt
                }),
            }
        })
        .collect();
    match failed {
        Some(e) => Err(e),
        None => Ok(insns),
    }
}

impl Program {
    /// The entry routine index and routine count an image's header
    /// declares, read without looking further; `None` when the image is
    /// too short or not of this format. The image may still fail to
    /// load.
    pub fn image_shape(bytes: &[u8]) -> Option<(usize, usize)> {
        let mut r = Reader { bytes, pos: 0 };
        if r.u32().ok()? != MAGIC || r.u32().ok()? != VERSION {
            return None;
        }
        Some((r.u32().ok()? as usize, r.u32().ok()? as usize))
    }

    /// How many routine records of two images hold byte-identical
    /// instruction words at the same index: the routines a load of
    /// `image` against a donor loaded from `other` would share
    /// ([`Program::from_image_sharing`]), found without decoding either.
    /// Counting stops where either image stops parsing.
    pub fn routines_in_common(image: &[u8], other: &[u8]) -> usize {
        let mut a = Reader { bytes: image, pos: HEADER_BYTES };
        let mut b = Reader { bytes: other, pos: HEADER_BYTES };
        let mut common = 0;
        while let (Ok(x), Ok(y)) = (record_words(&mut a), record_words(&mut b)) {
            common += usize::from(x == y);
        }
        common
    }

    /// Serializes the program into a flat executable image.
    pub fn to_image(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.total_instructions() * 4);
        push_u32(&mut out, MAGIC);
        push_u32(&mut out, VERSION);
        push_u32(&mut out, self.entry().index() as u32);
        push_u32(&mut out, self.routines().len() as u32);
        for r in self.routines() {
            push_u16(&mut out, r.name().len() as u16);
            out.extend_from_slice(r.name().as_bytes());
            push_u32(&mut out, r.addr());
            push_u32(&mut out, r.len() as u32);
            push_u32(&mut out, r.exported() as u32);
            push_u32(&mut out, r.entry_offsets().len() as u32);
            for &o in r.entry_offsets() {
                push_u32(&mut out, o);
            }
            for insn in r.insns() {
                push_u32(&mut out, insn.encode());
            }
        }
        push_u32(&mut out, self.jump_tables().len() as u32);
        for (&addr, targets) in self.jump_tables() {
            push_u32(&mut out, addr);
            push_u32(&mut out, targets.len() as u32);
            for &t in targets {
                push_u32(&mut out, t);
            }
        }
        push_u32(&mut out, self.indirect_calls().len() as u32);
        for (&addr, targets) in self.indirect_calls() {
            push_u32(&mut out, addr);
            match targets {
                IndirectTargets::Unknown => out.push(0),
                IndirectTargets::Known(list) => {
                    out.push(1);
                    push_u32(&mut out, list.len() as u32);
                    for &t in list {
                        push_u32(&mut out, t);
                    }
                }
                IndirectTargets::Hinted { used, defined, killed } => {
                    out.push(2);
                    push_u64(&mut out, used.bits());
                    push_u64(&mut out, defined.bits());
                    push_u64(&mut out, killed.bits());
                }
            }
        }
        push_u32(&mut out, self.jump_hints().len() as u32);
        for (&addr, live) in self.jump_hints() {
            push_u32(&mut out, addr);
            push_u64(&mut out, live.bits());
        }
        push_u32(&mut out, self.relocations().len() as u32);
        for (&addr, &target) in self.relocations() {
            push_u32(&mut out, addr);
            push_u32(&mut out, target);
        }
        out
    }

    /// Loads a program from an executable image, decoding every
    /// instruction word and re-validating all invariants: the no-donor
    /// case of [`Program::from_image_sharing`].
    ///
    /// # Errors
    ///
    /// Returns an [`ImageError`] for structural corruption, undecodable
    /// instruction words, or validation failures of the decoded program.
    pub fn from_image(bytes: &[u8]) -> Result<Program, ImageError> {
        Program::from_image_sharing(bytes, None)
    }

    /// Loads a program from an executable image, sharing what it can
    /// with a `donor`: a program loaded earlier together with the image
    /// it was loaded from. A routine whose instruction words are
    /// byte-identical to the words of the donor's routine at the same
    /// index is not decoded; it shares that routine's instruction array
    /// ([`Routine::shares_insns_with`]). One of the same length whose
    /// words differ in places (a moved routine's relinked calls) decodes
    /// only those and copies the donor's instructions for the rest.
    /// Equal words decode to equal instructions, so the result —
    /// `Program` or error — is exactly [`Program::from_image`]'s, and
    /// [`Program::new`] validates it in full either way. Names,
    /// addresses, entrances and side tables are always read from
    /// `bytes`.
    ///
    /// The donor's image must be the bytes its program was loaded from
    /// (debug builds check every shared routine); a donor image that does
    /// not parse simply shares nothing from the point where it stops.
    ///
    /// # Errors
    ///
    /// As [`Program::from_image`].
    pub fn from_image_sharing(
        bytes: &[u8],
        donor: Option<(&Program, &[u8])>,
    ) -> Result<Program, ImageError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.u32()?;
        if magic != MAGIC {
            return Err(ImageError::BadMagic(magic));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(ImageError::BadVersion(version));
        }
        let entry = RoutineId::from_index(r.u32()? as usize);
        let n_routines = r.count(15)?; // name_len + addr + len + flags + n_entries minimum

        // The donor's routines and a reader positioned at its first
        // routine record; dropped at the first record it cannot read.
        let mut donor = donor.map(|(program, image)| {
            (program.routines(), Reader { bytes: image, pos: HEADER_BYTES })
        });
        let mut routines = Vec::with_capacity(n_routines);
        for i in 0..n_routines {
            let name_len = r.u16()? as usize;
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|_| ImageError::BadName)?
                .to_string();
            let addr = r.u32()?;
            let n_insns = r.count(4)?;
            let flags = r.u32()?;
            let n_entries = r.count(4)?;
            let mut entry_offsets = Vec::with_capacity(n_entries);
            for _ in 0..n_entries {
                entry_offsets.push(r.u32()?);
            }
            // `count` bounded `n_insns` by the bytes that remain.
            let words = r.take(4 * n_insns)?;
            // The donor's routine at this index, when it has as many
            // words: its words and its instructions.
            let mut like = None;
            if let Some((donors, d)) = &mut donor {
                match record_words(d) {
                    Ok(w) => like = donors.get(i).filter(|own| own.len() == n_insns).zip(Some(w)),
                    Err(_) => donor = None,
                }
            }
            let insns = match like {
                Some((own, w)) if w == words => Arc::clone(own.shared_insns()),
                _ => decode_words(words, addr, like.map(|(own, w)| (w, own.insns())))?,
            };
            debug_assert!(
                like.is_none() || decode_words(words, addr, None).ok().as_deref() == Some(&*insns),
                "a donor's image must be the bytes its program was loaded from"
            );
            if insns.is_empty() || entry_offsets.first() != Some(&0) {
                return Err(ImageError::Invalid(ProgramError::BadLayout { routine: name }));
            }
            if !entry_offsets.windows(2).all(|w| w[0] < w[1])
                || entry_offsets.iter().any(|&o| o as usize >= insns.len())
            {
                return Err(ImageError::Invalid(ProgramError::BadLayout { routine: name }));
            }
            routines.push(Routine::with_shared_insns(
                name,
                addr,
                insns,
                entry_offsets,
                flags & 1 != 0,
            ));
        }

        let n_tables = r.count(8)?;
        let mut jump_tables = BTreeMap::new();
        for _ in 0..n_tables {
            let addr = r.u32()?;
            let n = r.count(4)?;
            let mut targets = Vec::with_capacity(n);
            for _ in 0..n {
                targets.push(r.u32()?);
            }
            jump_tables.insert(addr, targets);
        }

        let n_indirect = r.count(5)?;
        let mut indirect_calls = BTreeMap::new();
        for _ in 0..n_indirect {
            let addr = r.u32()?;
            let t = match r.u8()? {
                0 => IndirectTargets::Unknown,
                2 => IndirectTargets::Hinted {
                    used: spike_isa::RegSet::from_bits(r.u64()?),
                    defined: spike_isa::RegSet::from_bits(r.u64()?),
                    killed: spike_isa::RegSet::from_bits(r.u64()?),
                },
                _ => {
                    let n = r.count(4)?;
                    let mut list = Vec::with_capacity(n);
                    for _ in 0..n {
                        list.push(r.u32()?);
                    }
                    IndirectTargets::Known(list)
                }
            };
            indirect_calls.insert(addr, t);
        }

        let n_hints = r.count(12)?;
        let mut jump_hints = BTreeMap::new();
        for _ in 0..n_hints {
            let addr = r.u32()?;
            jump_hints.insert(addr, spike_isa::RegSet::from_bits(r.u64()?));
        }

        let n_relocs = r.count(8)?;
        let mut relocations = BTreeMap::new();
        for _ in 0..n_relocs {
            let addr = r.u32()?;
            let target = r.u32()?;
            relocations.insert(addr, target);
        }

        Ok(Program::new(routines, jump_tables, indirect_calls, jump_hints, relocations, entry)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use spike_isa::{BranchCond, Reg};

    fn rich_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::A0)
            .label("loop")
            .op_imm(spike_isa::AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "loop")
            .call("helper")
            .switch(Reg::T0, &["a", "b"])
            .label("a")
            .br("out")
            .label("b")
            .def(Reg::T3)
            .label("out")
            .jsr_known(Reg::PV, &["helper"])
            .jsr_unknown(Reg::PV)
            .halt();
        b.routine("helper").export().def(Reg::V0).label("alt").alt_entry("alt").ret();
        b.build().unwrap()
    }

    #[test]
    fn image_round_trips() {
        let p = rich_program();
        let image = p.to_image();
        let loaded = Program::from_image(&image).unwrap();
        assert_eq!(loaded, p);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let p = rich_program();
        let mut image = p.to_image();
        image[0] ^= 0xFF;
        assert!(matches!(Program::from_image(&image), Err(ImageError::BadMagic(_))));
    }

    #[test]
    fn bad_version_is_rejected() {
        let p = rich_program();
        let mut image = p.to_image();
        image[4] = 99;
        assert!(matches!(Program::from_image(&image), Err(ImageError::BadVersion(99))));
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let image = rich_program().to_image();
        for len in 0..image.len() {
            let err = Program::from_image(&image[..len]).unwrap_err();
            assert!(
                matches!(err, ImageError::Truncated | ImageError::BadName),
                "unexpected error at {len}: {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_instruction_word_is_reported_with_address() {
        let p = rich_program();
        let mut image = p.to_image();
        // Find the first code word of "main" (encoded def A0 = lda a0,1(zero))
        let needle = spike_isa::Instruction::Lda { rd: Reg::A0, base: Reg::ZERO, disp: 1 }
            .encode()
            .to_le_bytes();
        let pos = image.windows(4).position(|w| w == needle).expect("code word present");
        // Opcode 0x3 is unassigned.
        image[pos..pos + 4].copy_from_slice(&(0x3u32 << 26).to_le_bytes());
        match Program::from_image(&image) {
            Err(ImageError::Decode { addr, .. }) => assert_eq!(addr, crate::BASE_ADDR),
            other => panic!("expected decode error, got {other:?}"),
        }
    }

    #[test]
    fn flipped_bits_never_panic() {
        // Robustness sweep: flipping any single byte must produce either a
        // clean error or a valid (possibly different) program.
        let image = rich_program().to_image();
        for i in 0..image.len() {
            let mut m = image.clone();
            m[i] ^= 0x41;
            let _ = Program::from_image(&m);
        }
    }
}
