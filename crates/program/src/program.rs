//! The validated whole-program container.

use std::collections::BTreeMap;
use std::fmt;

use spike_isa::{HeapSize, Instruction};

use crate::routine::{Routine, RoutineId};

/// Targets of an indirect call site (§3.5 of the paper).
///
/// A post-link optimizer can sometimes recover the possible targets of a
/// `jsr` (e.g. from relocation entries or compiler-provided side tables);
/// otherwise it must fall back to calling-standard assumptions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IndirectTargets {
    /// The target set could not be determined; the analysis assumes the
    /// call obeys the calling standard.
    Unknown,
    /// The call targets exactly one of these routine entry addresses.
    Known(Vec<u32>),
    /// The targets are outside the program, but the compiler or linker
    /// supplied the exact register effects (§3.5's suggested extension):
    /// the registers the call may read, must write, and may overwrite.
    Hinted {
        /// Registers the call may read (`call-used`).
        used: spike_isa::RegSet,
        /// Registers the call must write (`call-defined`).
        defined: spike_isa::RegSet,
        /// Registers the call may overwrite (`call-killed`).
        killed: spike_isa::RegSet,
    },
}

impl HeapSize for IndirectTargets {
    fn heap_bytes(&self) -> usize {
        match self {
            IndirectTargets::Unknown | IndirectTargets::Hinted { .. } => 0,
            IndirectTargets::Known(v) => v.heap_bytes(),
        }
    }
}

/// Error produced when assembling or validating a [`Program`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProgramError {
    /// The program has no routines.
    Empty,
    /// Two routines overlap or are out of layout order.
    BadLayout { routine: String },
    /// A branch displacement leaves its routine.
    BranchEscapesRoutine { routine: String, addr: u32, target: u32 },
    /// A direct call does not land on a routine entrance.
    CallToNonEntry { routine: String, addr: u32, target: u32 },
    /// A jump-table target is not an instruction address inside the jump's
    /// routine.
    BadJumpTableTarget { addr: u32, target: u32 },
    /// An indirect call's known target is not a routine entrance.
    BadIndirectTarget { addr: u32, target: u32 },
    /// A jump table or indirect-target record points at an address holding
    /// no instruction of the right kind.
    MisplacedAuxInfo { addr: u32 },
    /// A relocation record's target is not an instruction address, so the
    /// relinker could not say where the named code moved to.
    BadRelocationTarget { addr: u32, target: u32 },
    /// A routine's last instruction can fall through past the routine end.
    FallsThroughEnd { routine: String },
    /// An SP-relative `Load`/`Store` displacement is not a multiple of its
    /// access size, so the access straddles the natural slot grid.
    MisalignedStackAccess { routine: String, addr: u32, disp: i16, size: u8 },
    /// The entry routine id is out of range.
    BadEntry,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program contains no routines"),
            ProgramError::BadLayout { routine } => {
                write!(f, "routine {routine} overlaps another routine or is out of order")
            }
            ProgramError::BranchEscapesRoutine { routine, addr, target } => write!(
                f,
                "branch at {addr:#x} in {routine} targets {target:#x} outside the routine"
            ),
            ProgramError::CallToNonEntry { routine, addr, target } => write!(
                f,
                "call at {addr:#x} in {routine} targets {target:#x} which is not a routine entrance"
            ),
            ProgramError::BadJumpTableTarget { addr, target } => write!(
                f,
                "jump table at {addr:#x} has target {target:#x} outside the jump's routine"
            ),
            ProgramError::BadIndirectTarget { addr, target } => write!(
                f,
                "indirect call at {addr:#x} lists target {target:#x} which is not a routine entrance"
            ),
            ProgramError::MisplacedAuxInfo { addr } => write!(
                f,
                "auxiliary control-flow info at {addr:#x} does not match an instruction"
            ),
            ProgramError::BadRelocationTarget { addr, target } => write!(
                f,
                "relocation at {addr:#x} targets {target:#x} which holds no instruction"
            ),
            ProgramError::FallsThroughEnd { routine } => {
                write!(f, "routine {routine} can fall through past its last instruction")
            }
            ProgramError::MisalignedStackAccess { routine, addr, disp, size } => write!(
                f,
                "stack access at {addr:#x} in {routine} has displacement {disp} which is not a \
                 multiple of its {size}-byte access size"
            ),
            ProgramError::BadEntry => write!(f, "program entry routine does not exist"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A validated whole program: routines in layout order plus the auxiliary
/// control-flow information a post-link optimizer extracts from the image.
///
/// Invariants established by [`Program::new`]:
///
/// * routines are laid out at strictly increasing, non-overlapping word
///   addresses;
/// * every branch and direct call displacement resolves inside the program
///   (branches stay within their routine; calls land on routine entrances);
/// * every jump table is attached to a `jmp` instruction and its targets
///   lie inside that routine; every known indirect-target list is attached
///   to a `jsr` and lists routine entrances;
/// * every relocation record sits on the `lda zero`-based immediate it
///   describes and targets an instruction address;
/// * no routine falls through past its end: every routine's last
///   instruction transfers control unconditionally (`br`, `jmp`, `ret`,
///   or `halt`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    routines: Vec<Routine>,
    jump_tables: BTreeMap<u32, Vec<u32>>,
    indirect_calls: BTreeMap<u32, IndirectTargets>,
    /// §3.5 extension: for an indirect jump with no recovered table, the
    /// compiler-provided set of registers live at its (unknown) target.
    jump_hints: BTreeMap<u32, spike_isa::RegSet>,
    /// Address-materialization records: instruction address → the word
    /// address its immediate encodes. A post-link rewriter must update
    /// these immediates when code moves, exactly like linker relocations.
    relocations: BTreeMap<u32, u32>,
    entry: RoutineId,
    /// Map from entry address to (routine, entry index) for O(log n) call
    /// resolution.
    entry_index: BTreeMap<u32, (RoutineId, usize)>,
}

impl Program {
    /// Assembles and validates a program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] describing the first violated invariant;
    /// see the type-level documentation for the full list.
    pub fn new(
        routines: Vec<Routine>,
        jump_tables: BTreeMap<u32, Vec<u32>>,
        indirect_calls: BTreeMap<u32, IndirectTargets>,
        jump_hints: BTreeMap<u32, spike_isa::RegSet>,
        relocations: BTreeMap<u32, u32>,
        entry: RoutineId,
    ) -> Result<Program, ProgramError> {
        if routines.is_empty() {
            return Err(ProgramError::Empty);
        }
        if entry.index() >= routines.len() {
            return Err(ProgramError::BadEntry);
        }
        for r in &routines {
            // A routine whose address range wraps past `u32::MAX` has no
            // coherent layout, and every downstream `addr + offset`
            // computation (`end_addr`, instruction and entry addresses)
            // assumes the whole routine fits. Images are untrusted input,
            // so reject the wrap here instead of overflowing below.
            let fits = u32::try_from(r.len()).ok().and_then(|l| r.addr().checked_add(l));
            if fits.is_none() {
                return Err(ProgramError::BadLayout { routine: r.name().to_string() });
            }
        }
        for w in routines.windows(2) {
            if w[1].addr() < w[0].end_addr() {
                return Err(ProgramError::BadLayout { routine: w[1].name().to_string() });
            }
        }

        let mut entry_index = BTreeMap::new();
        for (ri, r) in routines.iter().enumerate() {
            for (ei, addr) in r.entry_addrs().enumerate() {
                entry_index.insert(addr, (RoutineId::from_index(ri), ei));
            }
        }

        let program = Program {
            routines,
            jump_tables,
            indirect_calls,
            jump_hints,
            relocations,
            entry,
            entry_index,
        };
        program.validate()?;
        Ok(program)
    }

    fn validate(&self) -> Result<(), ProgramError> {
        for r in &self.routines {
            // Execution must never run off the end of a routine: the last
            // instruction has to transfer control unconditionally. A
            // trailing conditional branch, call, or plain instruction
            // would fall through past the end, and the CFG builder
            // (`RoutineCfg::build_structure`) relies on this invariant
            // when it resolves fall-through and call-return successors.
            match r.insns().last() {
                Some(
                    Instruction::Br { .. }
                    | Instruction::Jmp { .. }
                    | Instruction::Ret { .. }
                    | Instruction::Halt,
                ) => {}
                _ => {
                    return Err(ProgramError::FallsThroughEnd { routine: r.name().to_string() });
                }
            }
            for (i, insn) in r.insns().iter().enumerate() {
                let addr = r.addr() + i as u32;
                match *insn {
                    Instruction::Br { disp } | Instruction::CondBranch { disp, .. } => {
                        let target = addr.wrapping_add(1).wrapping_add(disp as u32);
                        if !r.contains_addr(target) {
                            return Err(ProgramError::BranchEscapesRoutine {
                                routine: r.name().to_string(),
                                addr,
                                target,
                            });
                        }
                    }
                    Instruction::Bsr { disp } => {
                        let target = addr.wrapping_add(1).wrapping_add(disp as u32);
                        if !self.entry_index.contains_key(&target) {
                            return Err(ProgramError::CallToNonEntry {
                                routine: r.name().to_string(),
                                addr,
                                target,
                            });
                        }
                    }
                    // The stack-slot model keys frame slots by
                    // `(SP-relative offset, width)`; a displacement off
                    // the natural grid would let two accesses overlap
                    // without sharing a key, so reject it at load time
                    // like the other malformed-image shapes.
                    Instruction::Load { width, base, disp, .. }
                    | Instruction::Store { width, base, disp, .. }
                        if base == spike_isa::Reg::SP && (disp as i64) % width.bytes() != 0 =>
                    {
                        return Err(ProgramError::MisalignedStackAccess {
                            routine: r.name().to_string(),
                            addr,
                            disp,
                            size: width.bytes() as u8,
                        });
                    }
                    _ => {}
                }
            }
        }
        for (&addr, targets) in &self.jump_tables {
            let Some(rid) = self.routine_containing(addr) else {
                return Err(ProgramError::MisplacedAuxInfo { addr });
            };
            let r = self.routine(rid);
            if !matches!(r.insn_at(addr), Some(Instruction::Jmp { .. })) {
                return Err(ProgramError::MisplacedAuxInfo { addr });
            }
            for &t in targets {
                if !r.contains_addr(t) {
                    return Err(ProgramError::BadJumpTableTarget { addr, target: t });
                }
            }
        }
        for (&addr, targets) in &self.indirect_calls {
            let Some(rid) = self.routine_containing(addr) else {
                return Err(ProgramError::MisplacedAuxInfo { addr });
            };
            if !matches!(self.routine(rid).insn_at(addr), Some(Instruction::Jsr { .. })) {
                return Err(ProgramError::MisplacedAuxInfo { addr });
            }
            if let IndirectTargets::Known(list) = targets {
                for &t in list {
                    if !self.entry_index.contains_key(&t) {
                        return Err(ProgramError::BadIndirectTarget { addr, target: t });
                    }
                }
            }
        }
        for &addr in self.jump_hints.keys() {
            let is_unhinted_jmp = matches!(self.insn_at(addr), Some(Instruction::Jmp { .. }))
                && !self.jump_tables.contains_key(&addr);
            if !is_unhinted_jmp {
                return Err(ProgramError::MisplacedAuxInfo { addr });
            }
        }
        for (&addr, &target) in &self.relocations {
            let ok = match self.insn_at(addr) {
                Some(&Instruction::Lda { base, disp, .. }) => {
                    base == spike_isa::Reg::ZERO && disp as i64 == target as i64
                }
                _ => false,
            };
            if !ok {
                return Err(ProgramError::MisplacedAuxInfo { addr });
            }
            if self.insn_at(target).is_none() {
                return Err(ProgramError::BadRelocationTarget { addr, target });
            }
        }
        Ok(())
    }

    /// The routines in layout order.
    #[inline]
    pub fn routines(&self) -> &[Routine] {
        &self.routines
    }

    /// The routine with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    #[inline]
    pub fn routine(&self, id: RoutineId) -> &Routine {
        &self.routines[id.index()]
    }

    /// Iterates over `(id, routine)` pairs in layout order.
    pub fn iter(&self) -> impl Iterator<Item = (RoutineId, &Routine)> {
        self.routines.iter().enumerate().map(|(i, r)| (RoutineId::from_index(i), r))
    }

    /// The program's entry routine (where execution starts).
    #[inline]
    pub fn entry(&self) -> RoutineId {
        self.entry
    }

    /// Looks up a routine by symbol name (linear scan).
    pub fn routine_by_name(&self, name: &str) -> Option<RoutineId> {
        self.routines.iter().position(|r| r.name() == name).map(RoutineId::from_index)
    }

    /// The routine whose address range contains `addr`.
    pub fn routine_containing(&self, addr: u32) -> Option<RoutineId> {
        let idx = match self.routines.binary_search_by_key(&addr, Routine::addr) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let r = &self.routines[idx];
        r.contains_addr(addr).then(|| RoutineId::from_index(idx))
    }

    /// Resolves an entrance address to `(routine, entry index)`.
    pub fn entry_at(&self, addr: u32) -> Option<(RoutineId, usize)> {
        self.entry_index.get(&addr).copied()
    }

    /// Resolves the target of the direct call at `addr` (a `bsr`).
    pub fn direct_call_target(&self, addr: u32) -> Option<(RoutineId, usize)> {
        let rid = self.routine_containing(addr)?;
        match self.routine(rid).insn_at(addr) {
            Some(&Instruction::Bsr { disp }) => {
                self.entry_at(addr.wrapping_add(1).wrapping_add(disp as u32))
            }
            _ => None,
        }
    }

    /// The extracted jump table for the `jmp` at `addr`, if any.
    pub fn jump_table(&self, addr: u32) -> Option<&[u32]> {
        self.jump_tables.get(&addr).map(Vec::as_slice)
    }

    /// All jump tables, keyed by the address of their `jmp` instruction.
    #[inline]
    pub fn jump_tables(&self) -> &BTreeMap<u32, Vec<u32>> {
        &self.jump_tables
    }

    /// Target information for the indirect call (`jsr`) at `addr`.
    ///
    /// Returns [`IndirectTargets::Unknown`] for a `jsr` with no recorded
    /// side information.
    pub fn indirect_call_targets(&self, addr: u32) -> &IndirectTargets {
        self.indirect_calls.get(&addr).unwrap_or(&IndirectTargets::Unknown)
    }

    /// All recorded indirect-call target lists.
    #[inline]
    pub fn indirect_calls(&self) -> &BTreeMap<u32, IndirectTargets> {
        &self.indirect_calls
    }

    /// Address-materialization relocations: instruction address → the word
    /// address whose value the instruction's immediate encodes.
    #[inline]
    pub fn relocations(&self) -> &BTreeMap<u32, u32> {
        &self.relocations
    }

    /// The compiler-provided live-register hint for the unknown-target
    /// jump at `addr` (§3.5 extension), if any.
    pub fn jump_hint(&self, addr: u32) -> Option<spike_isa::RegSet> {
        self.jump_hints.get(&addr).copied()
    }

    /// All jump hints, keyed by the address of their `jmp` instruction.
    #[inline]
    pub fn jump_hints(&self) -> &BTreeMap<u32, spike_isa::RegSet> {
        &self.jump_hints
    }

    /// The instruction at word address `addr`.
    pub fn insn_at(&self, addr: u32) -> Option<&Instruction> {
        let rid = self.routine_containing(addr)?;
        self.routine(rid).insn_at(addr)
    }

    /// Total instruction count across all routines.
    pub fn total_instructions(&self) -> usize {
        self.routines.iter().map(Routine::len).sum()
    }
}

impl HeapSize for Program {
    fn heap_bytes(&self) -> usize {
        self.routines.heap_bytes()
            + self.jump_tables.heap_bytes()
            + self.indirect_calls.heap_bytes()
            + self.jump_hints.heap_bytes()
            + self.relocations.heap_bytes()
            + self.entry_index.heap_bytes()
    }
}

impl HeapSize for RoutineId {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.routines {
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use spike_isa::{BranchCond, Reg};

    fn two_routine_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("callee").halt();
        b.routine("callee").def(Reg::V0).ret();
        b.build().unwrap()
    }

    #[test]
    fn wrapping_address_ranges_are_rejected_not_overflowed() {
        // A routine whose body runs past u32::MAX (only constructible
        // from a corrupt image or by hand) must be a BadLayout error, not
        // an arithmetic overflow inside validation.
        let r = Routine::new(
            "edge",
            u32::MAX,
            vec![Instruction::Halt, Instruction::Halt],
            vec![0],
            false,
        );
        let err = Program::new(
            vec![r],
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            RoutineId::from_index(0),
        )
        .unwrap_err();
        assert!(matches!(err, ProgramError::BadLayout { .. }), "{err:?}");
    }

    #[test]
    fn relocation_to_a_non_instruction_address_is_rejected() {
        // The record sits on a matching `lda`, but names the word just
        // past the routine's end: nothing the relinker could follow.
        let base = 0x100;
        let target = base + 2;
        let r = Routine::new(
            "main",
            base,
            vec![
                Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: target as i16 },
                Instruction::Halt,
            ],
            vec![0],
            false,
        );
        let err = Program::new(
            vec![r],
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::from([(base, target)]),
            RoutineId::from_index(0),
        )
        .unwrap_err();
        assert_eq!(err, ProgramError::BadRelocationTarget { addr: base, target });
    }

    #[test]
    fn lookup_by_name_and_address() {
        let p = two_routine_program();
        let main = p.routine_by_name("main").unwrap();
        let callee = p.routine_by_name("callee").unwrap();
        assert_eq!(p.entry(), main);
        assert_eq!(p.routine(main).name(), "main");
        assert_eq!(p.routine_containing(p.routine(callee).addr()), Some(callee));
        assert_eq!(p.routine_containing(p.routine(callee).end_addr()), None);
        assert_eq!(p.routine_by_name("nope"), None);
    }

    #[test]
    fn direct_call_resolves_to_entry() {
        let p = two_routine_program();
        let main = p.routine_by_name("main").unwrap();
        let callee = p.routine_by_name("callee").unwrap();
        let call_addr = p.routine(main).addr() + 1;
        assert_eq!(p.direct_call_target(call_addr), Some((callee, 0)));
        // Not a call instruction.
        assert_eq!(p.direct_call_target(p.routine(main).addr()), None);
    }

    #[test]
    fn total_instructions_sums_routines() {
        let p = two_routine_program();
        assert_eq!(p.total_instructions(), 5);
    }

    #[test]
    fn rejects_branch_escaping_routine() {
        // Hand-assemble a routine whose branch leaves its body.
        let r = Routine::new(
            "bad",
            0x400,
            vec![
                Instruction::CondBranch { cond: BranchCond::Eq, ra: Reg::T0, disp: 100 },
                Instruction::Ret { base: Reg::RA },
            ],
            vec![0],
            false,
        );
        let err = Program::new(
            vec![r],
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            RoutineId::from_index(0),
        )
        .unwrap_err();
        assert!(matches!(err, ProgramError::BranchEscapesRoutine { .. }));
    }

    #[test]
    fn rejects_overlapping_layout() {
        let a = Routine::new("a", 0x400, vec![Instruction::Ret { base: Reg::RA }], vec![0], false);
        let b = Routine::new("b", 0x400, vec![Instruction::Ret { base: Reg::RA }], vec![0], false);
        let err = Program::new(
            vec![a, b],
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            RoutineId::from_index(0),
        )
        .unwrap_err();
        assert!(matches!(err, ProgramError::BadLayout { .. }));
    }

    #[test]
    fn rejects_empty_program() {
        let err = Program::new(
            Vec::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            RoutineId::from_index(0),
        )
        .unwrap_err();
        assert_eq!(err, ProgramError::Empty);
    }

    #[test]
    fn unknown_indirect_default() {
        let p = two_routine_program();
        assert_eq!(p.indirect_call_targets(0xDEAD), &IndirectTargets::Unknown);
    }

    /// Regression: `Program::new` used to accept routines whose last
    /// instruction falls through past the routine end. `ProgramBuilder`
    /// always rejected the shape, but direct `Program::new` callers (the
    /// rewriter, the image loader) could slip it through, and the CFG
    /// builder then either panicked ("offset N is not a block leader")
    /// or produced a call block with `return_to: None`, breaking the
    /// `cfg_structure_is_consistent` property.
    #[test]
    fn rejects_trailing_fall_through() {
        use spike_isa::AluOp;
        let one = |insns| {
            Program::new(
                vec![Routine::new("f", 0x400, insns, vec![0], false)],
                BTreeMap::new(),
                BTreeMap::new(),
                BTreeMap::new(),
                BTreeMap::new(),
                RoutineId::from_index(0),
            )
        };

        // A plain instruction at the end falls through.
        let err = one(vec![Instruction::Operate {
            op: AluOp::Add,
            ra: Reg::A0,
            rb: Reg::A1,
            rc: Reg::V0,
        }])
        .unwrap_err();
        assert_eq!(err, ProgramError::FallsThroughEnd { routine: "f".into() });

        // So does the not-taken side of a trailing conditional branch,
        // even when the taken side stays inside the routine.
        let err = one(vec![
            Instruction::Operate { op: AluOp::Add, ra: Reg::A0, rb: Reg::A1, rc: Reg::V0 },
            Instruction::CondBranch { cond: BranchCond::Ne, ra: Reg::V0, disp: -2 },
        ])
        .unwrap_err();
        assert_eq!(err, ProgramError::FallsThroughEnd { routine: "f".into() });

        // Unconditional control transfers at the end are fine.
        assert!(one(vec![Instruction::Ret { base: Reg::RA }]).is_ok());
        assert!(one(vec![Instruction::Halt]).is_ok());
        assert!(one(vec![
            Instruction::Operate { op: AluOp::Add, ra: Reg::A0, rb: Reg::A1, rc: Reg::V0 },
            Instruction::Br { disp: -2 },
        ])
        .is_ok());
    }

    /// SP-relative memory traffic must stay on the natural slot grid:
    /// a `stq`/`ldq` displacement that is not a multiple of 8 (or 4 for
    /// `ldl`/`stl`) would alias two different `(offset, width)` slot keys.
    #[test]
    fn rejects_misaligned_sp_relative_access() {
        use spike_isa::MemWidth;
        let one = |insns| {
            Program::new(
                vec![Routine::new("f", 0x400, insns, vec![0], false)],
                BTreeMap::new(),
                BTreeMap::new(),
                BTreeMap::new(),
                BTreeMap::new(),
                RoutineId::from_index(0),
            )
        };

        let err = one(vec![
            Instruction::Store { width: MemWidth::Q, rs: Reg::T0, base: Reg::SP, disp: -12 },
            Instruction::Ret { base: Reg::RA },
        ])
        .unwrap_err();
        assert_eq!(
            err,
            ProgramError::MisalignedStackAccess {
                routine: "f".into(),
                addr: 0x400,
                disp: -12,
                size: 8
            }
        );

        let err = one(vec![
            Instruction::Load { width: MemWidth::L, rd: Reg::T0, base: Reg::SP, disp: 6 },
            Instruction::Ret { base: Reg::RA },
        ])
        .unwrap_err();
        assert!(matches!(err, ProgramError::MisalignedStackAccess { size: 4, .. }), "{err:?}");

        // Aligned SP accesses and misaligned non-SP accesses are fine:
        // only the stack-slot grid is a program invariant.
        assert!(one(vec![
            Instruction::Store { width: MemWidth::Q, rs: Reg::T0, base: Reg::SP, disp: -16 },
            Instruction::Load { width: MemWidth::L, rd: Reg::T0, base: Reg::SP, disp: 4 },
            Instruction::Load { width: MemWidth::Q, rd: Reg::T0, base: Reg::A0, disp: 3 },
            Instruction::Ret { base: Reg::RA },
        ])
        .is_ok());
    }

    /// Companion to [`rejects_trailing_fall_through`]: a call expects
    /// execution to resume at the next address, so it cannot be a
    /// routine's last instruction either.
    #[test]
    fn rejects_trailing_call() {
        let main = Routine::new("main", 0x400, vec![Instruction::Bsr { disp: 0 }], vec![0], true);
        let f = Routine::new("f", 0x401, vec![Instruction::Ret { base: Reg::RA }], vec![0], false);
        let err = Program::new(
            vec![main, f],
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            RoutineId::from_index(0),
        )
        .unwrap_err();
        assert_eq!(err, ProgramError::FallsThroughEnd { routine: "main".into() });
    }
}
