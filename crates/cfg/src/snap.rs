//! [`Snap`] encodings for the CFG structures retained inside a cached
//! analysis. Capacity-preserving by construction: every `Vec` goes
//! through the `Snap` impl for `Vec`, which round-trips capacities so
//! a restored CFG carries the exact same `HeapSize` charge as the live
//! one (the daemon's memory accounting is asserted bit-identical).
//!
//! The block and CFG structs derive theirs from their field lists
//! through [`spike_isa::analysis_struct!`]; this module holds the
//! block-id width and the tag numbers of the two terminator enums.

use spike_isa::{Snap, SnapError, SnapReader, SnapWriter};

use crate::block::{BlockId, CallTarget, TermKind};

impl Snap for BlockId {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.index() as u32);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(BlockId::from_index(r.get_u32()? as usize))
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
