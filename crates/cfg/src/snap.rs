//! [`Snap`] encodings for the CFG structures retained inside a cached
//! analysis. Capacity-preserving by construction: every `Vec` goes
//! through the `Snap` impl for `Vec`, which round-trips capacities so
//! a restored CFG carries the exact same `HeapSize` charge as the live
//! one (the daemon's memory accounting is asserted bit-identical).
//!
//! The block and CFG structs derive theirs from their field lists
//! through [`spike_isa::analysis_struct!`]; this module holds the
//! block-id width, the block-list layout and the tag numbers of the two
//! terminator enums.

use spike_isa::{Snap, SnapError, SnapReader, SnapWriter};

use crate::block::{BlockId, BlockList, CallTarget, TermKind};

impl Snap for BlockId {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.index() as u32);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(BlockId::from_index(r.get_u32()? as usize))
    }
}

/// `u32` length, then the ids. Inline or heap is not encoded: it follows
/// from the length, which is what keeps the representation canonical.
impl Snap for BlockList {
    fn snap(&self, w: &mut SnapWriter) {
        let ids = self.as_slice();
        w.put_u32(ids.len() as u32);
        for id in ids {
            id.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_u32()? as usize;
        if len > r.remaining() / 4 {
            return Err(SnapError::Truncated);
        }
        let mut id = || match r.get_u32()? {
            u32::MAX => Err(SnapError::Malformed("block list id")),
            id => Ok(BlockId::from_index(id as usize)),
        };
        if len <= 2 {
            let mut ids = [BlockId::from_index(0); 2];
            for slot in &mut ids[..len] {
                *slot = id()?;
            }
            return Ok(BlockList::from_slice(&ids[..len]));
        }
        (0..len).map(|_| id()).collect::<Result<Box<[BlockId]>, SnapError>>().map(BlockList::Heap)
    }
}

impl Snap for CallTarget {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            CallTarget::Direct(rid, entrance) => {
                w.put_u8(0);
                rid.snap(w);
                entrance.snap(w);
            }
            CallTarget::IndirectKnown(targets) => {
                w.put_u8(1);
                targets.snap(w);
            }
            CallTarget::IndirectUnknown => w.put_u8(2),
            CallTarget::IndirectHinted { used, defined, killed } => {
                w.put_u8(3);
                used.snap(w);
                defined.snap(w);
                killed.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(CallTarget::Direct(Snap::unsnap(r)?, Snap::unsnap(r)?)),
            1 => Ok(CallTarget::IndirectKnown(Snap::unsnap(r)?)),
            2 => Ok(CallTarget::IndirectUnknown),
            3 => Ok(CallTarget::IndirectHinted {
                used: Snap::unsnap(r)?,
                defined: Snap::unsnap(r)?,
                killed: Snap::unsnap(r)?,
            }),
            _ => Err(SnapError::Malformed("call target tag")),
        }
    }
}

impl Snap for TermKind {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            TermKind::FallThrough => w.put_u8(0),
            TermKind::CondBranch => w.put_u8(1),
            TermKind::Branch => w.put_u8(2),
            TermKind::MultiwayJump => w.put_u8(3),
            TermKind::UnknownJump => w.put_u8(4),
            TermKind::Call { target, return_to } => {
                w.put_u8(5);
                target.snap(w);
                return_to.snap(w);
            }
            TermKind::Ret => w.put_u8(6),
            TermKind::Halt => w.put_u8(7),
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(TermKind::FallThrough),
            1 => Ok(TermKind::CondBranch),
            2 => Ok(TermKind::Branch),
            3 => Ok(TermKind::MultiwayJump),
            4 => Ok(TermKind::UnknownJump),
            5 => Ok(TermKind::Call { target: Snap::unsnap(r)?, return_to: Snap::unsnap(r)? }),
            6 => Ok(TermKind::Ret),
            7 => Ok(TermKind::Halt),
            _ => Err(SnapError::Malformed("terminator tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProgramCfg, RoutineCfg};
    use spike_isa::{HeapSize, RegSet};
    use spike_program::RoutineId;

    fn roundtrip<T: Snap>(v: &T) -> T {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::unsnap(&mut r).expect("roundtrip decodes");
        assert!(r.is_exhausted());
        back
    }

    #[test]
    fn call_targets_and_terminators_roundtrip() {
        let targets = [
            CallTarget::Direct(RoutineId::from_index(3), 1),
            CallTarget::IndirectKnown(vec![(RoutineId::from_index(0), 0)]),
            CallTarget::IndirectUnknown,
            CallTarget::IndirectHinted {
                used: RegSet::from_bits(5),
                defined: RegSet::from_bits(9),
                killed: RegSet::from_bits(17),
            },
        ];
        for t in &targets {
            assert_eq!(&roundtrip(t), t);
        }
        let terms = [
            TermKind::FallThrough,
            TermKind::CondBranch,
            TermKind::Branch,
            TermKind::MultiwayJump,
            TermKind::UnknownJump,
            TermKind::Call {
                target: CallTarget::Direct(RoutineId::from_index(1), 0),
                return_to: Some(BlockId::from_index(4)),
            },
            TermKind::Ret,
            TermKind::Halt,
        ];
        for t in &terms {
            assert_eq!(&roundtrip(t), t);
        }
    }

    /// Short lists come back inline and long ones on the heap, with the
    /// same charge; a cut anywhere, a length past the payload and the
    /// inline slot marker as an id are all errors, never panics.
    #[test]
    fn block_lists_roundtrip_and_decode_defensively() {
        for len in 0..5 {
            let ids: Vec<BlockId> = (0..len).map(|i| BlockId::from_index(i * 3)).collect();
            let list = BlockList::from_slice(&ids);
            assert_eq!(list.as_slice(), &ids[..]);
            assert_eq!(matches!(list, BlockList::Inline(_)), len <= 2);
            let back = roundtrip(&list);
            assert_eq!(back, list);
            assert_eq!(back.heap_bytes(), list.heap_bytes());
            assert_eq!(list.heap_bytes(), if len <= 2 { 0 } else { 4 * len });

            let mut w = SnapWriter::new();
            list.snap(&mut w);
            let bytes = w.into_bytes();
            for cut in 0..bytes.len() {
                assert!(BlockList::unsnap(&mut SnapReader::new(&bytes[..cut])).is_err());
            }
        }
        let mut w = SnapWriter::new();
        w.put_u32(u32::MAX);
        w.put_u32(0);
        assert_eq!(
            BlockList::unsnap(&mut SnapReader::new(&w.into_bytes())),
            Err(SnapError::Truncated)
        );
        for len in [1u32, 3] {
            let mut w = SnapWriter::new();
            w.put_u32(len);
            for _ in 0..len {
                w.put_u32(u32::MAX);
            }
            assert_eq!(
                BlockList::unsnap(&mut SnapReader::new(&w.into_bytes())),
                Err(SnapError::Malformed("block list id"))
            );
        }
    }

    #[test]
    fn whole_program_cfgs_roundtrip_with_exact_heap_charge() {
        let mut b = spike_program::ProgramBuilder::new();
        b.routine("main").def(spike_isa::Reg::A0).call("leaf").put_int().halt();
        b.routine("leaf").copy(spike_isa::Reg::A0, spike_isa::Reg::V0).ret();
        let program = b.build().unwrap();
        let cfgs: Vec<RoutineCfg> =
            program.iter().map(|(rid, _)| RoutineCfg::build(&program, rid)).collect();
        let pcfg = ProgramCfg::from_cfgs(cfgs);
        let back = roundtrip(&pcfg);
        assert_eq!(back, pcfg);
        assert_eq!(back.heap_bytes(), pcfg.heap_bytes());
    }
}
