//! Assembler-like builder for constructing programs with symbolic labels.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use spike_isa::{AluOp, BranchCond, FpOp, Instruction, MemWidth, Reg};

use crate::program::{IndirectTargets, Program, ProgramError};
use crate::routine::{Routine, RoutineId};
use crate::BASE_ADDR;

/// Error produced by [`ProgramBuilder::build`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// No routines were defined.
    NoRoutines,
    /// Two routines share a name.
    DuplicateRoutine(String),
    /// A label was defined twice within one routine.
    DuplicateLabel { routine: String, label: String },
    /// A branch or switch references an undefined label.
    UndefinedLabel { routine: String, label: String },
    /// A call references an undefined routine (or `routine:label` entry).
    UndefinedRoutine { routine: String, target: String },
    /// The requested entry routine does not exist.
    UndefinedEntry(String),
    /// A routine's last instruction can fall through past its end.
    FallsThroughEnd { routine: String },
    /// A displacement does not fit its 21-bit encoding.
    DisplacementOverflow { routine: String, offset: usize },
    /// The assembled program failed whole-program validation.
    Invalid(ProgramError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoRoutines => write!(f, "no routines defined"),
            BuildError::DuplicateRoutine(n) => write!(f, "duplicate routine {n}"),
            BuildError::DuplicateLabel { routine, label } => {
                write!(f, "duplicate label {label} in routine {routine}")
            }
            BuildError::UndefinedLabel { routine, label } => {
                write!(f, "undefined label {label} in routine {routine}")
            }
            BuildError::UndefinedRoutine { routine, target } => {
                write!(f, "call to undefined routine {target} from {routine}")
            }
            BuildError::UndefinedEntry(n) => write!(f, "entry routine {n} is not defined"),
            BuildError::FallsThroughEnd { routine } => {
                write!(f, "routine {routine} can fall through past its last instruction")
            }
            BuildError::DisplacementOverflow { routine, offset } => {
                write!(f, "displacement overflow in {routine} at offset {offset}")
            }
            BuildError::Invalid(e) => write!(f, "assembled program is invalid: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProgramError> for BuildError {
    fn from(e: ProgramError) -> BuildError {
        BuildError::Invalid(e)
    }
}

#[derive(Clone, Debug)]
enum Item {
    Insn(Instruction),
    BrTo(String),
    CondTo(BranchCond, Reg, String),
    Call(String),
    Switch(Reg, Vec<String>),
    JsrKnown(Reg, Vec<String>),
    JsrUnknown(Reg),
    JsrHinted(Reg, spike_isa::RegSet, spike_isa::RegSet, spike_isa::RegSet),
    JmpHinted(Reg, spike_isa::RegSet),
    LdaLabel(Reg, String),
    LdaRoutine(Reg, String),
}

/// Builds one routine; obtained from [`ProgramBuilder::routine`].
///
/// Every method appends exactly one instruction (labels and flags excepted)
/// and returns `&mut Self` for chaining.
#[derive(Debug)]
pub struct RoutineBuilder {
    name: String,
    exported: bool,
    items: Vec<Item>,
    labels: BTreeMap<String, usize>,
    alt_entries: Vec<String>,
    duplicate_label: Option<String>,
}

impl RoutineBuilder {
    fn new(name: String) -> RoutineBuilder {
        RoutineBuilder {
            name,
            exported: false,
            items: Vec::new(),
            labels: BTreeMap::new(),
            alt_entries: Vec::new(),
            duplicate_label: None,
        }
    }

    /// Appends a raw instruction.
    pub fn insn(&mut self, insn: Instruction) -> &mut Self {
        self.items.push(Item::Insn(insn));
        self
    }

    /// Appends an instruction that defines `r` without using any register
    /// (an immediate load). Mirrors the paper's `def Rx` pseudo-ops.
    pub fn def(&mut self, r: Reg) -> &mut Self {
        let insn = if r.is_fp() {
            Instruction::FpOperate { op: FpOp::Add, fa: Reg::FZERO, fb: Reg::FZERO, fc: r }
        } else {
            Instruction::Lda { rd: r, base: Reg::ZERO, disp: 1 }
        };
        self.insn(insn)
    }

    /// Appends an instruction that uses `r` without defining any register.
    /// Mirrors the paper's `use Rx` pseudo-ops.
    pub fn use_reg(&mut self, r: Reg) -> &mut Self {
        let insn = if r.is_fp() {
            Instruction::FpOperate { op: FpOp::Add, fa: r, fb: Reg::FZERO, fc: Reg::FZERO }
        } else {
            Instruction::Operate { op: AluOp::Add, ra: r, rb: Reg::ZERO, rc: Reg::ZERO }
        };
        self.insn(insn)
    }

    /// Appends `dst = src` (both integer registers).
    pub fn copy(&mut self, src: Reg, dst: Reg) -> &mut Self {
        self.insn(Instruction::Operate { op: AluOp::Or, ra: src, rb: src, rc: dst })
    }

    /// Appends an integer ALU operation `rc = ra <op> rb`.
    pub fn op(&mut self, op: AluOp, ra: Reg, rb: Reg, rc: Reg) -> &mut Self {
        self.insn(Instruction::Operate { op, ra, rb, rc })
    }

    /// Appends an integer ALU operation with immediate `rc = ra <op> imm`.
    pub fn op_imm(&mut self, op: AluOp, ra: Reg, imm: u8, rc: Reg) -> &mut Self {
        self.insn(Instruction::OperateImm { op, ra, imm, rc })
    }

    /// Appends `rd = base + disp`.
    pub fn lda(&mut self, rd: Reg, base: Reg, disp: i16) -> &mut Self {
        self.insn(Instruction::Lda { rd, base, disp })
    }

    /// Appends a 64-bit load `rd = mem[base + disp]`.
    pub fn load(&mut self, rd: Reg, base: Reg, disp: i16) -> &mut Self {
        self.insn(Instruction::Load { width: MemWidth::Q, rd, base, disp })
    }

    /// Appends a 64-bit store `mem[base + disp] = rs`.
    pub fn store(&mut self, rs: Reg, base: Reg, disp: i16) -> &mut Self {
        self.insn(Instruction::Store { width: MemWidth::Q, rs, base, disp })
    }

    /// Defines a label at the current position.
    ///
    /// Duplicate labels are reported by [`ProgramBuilder::build`].
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self.labels.insert(name.to_string(), self.items.len()).is_some() {
            self.duplicate_label.get_or_insert_with(|| name.to_string());
        }
        self
    }

    /// Marks a label as an alternate entrance to this routine; callers can
    /// target it with `call("routine:label")`.
    pub fn alt_entry(&mut self, label: &str) -> &mut Self {
        self.alt_entries.push(label.to_string());
        self
    }

    /// Appends an unconditional branch to `label`.
    pub fn br(&mut self, label: &str) -> &mut Self {
        self.items.push(Item::BrTo(label.to_string()));
        self
    }

    /// Appends a conditional branch on `r` to `label`.
    pub fn cond(&mut self, cond: BranchCond, r: Reg, label: &str) -> &mut Self {
        self.items.push(Item::CondTo(cond, r, label.to_string()));
        self
    }

    /// Appends a direct call (`bsr`) to `target`, which names a routine or
    /// a `routine:label` alternate entrance.
    pub fn call(&mut self, target: &str) -> &mut Self {
        self.items.push(Item::Call(target.to_string()));
        self
    }

    /// Appends a multiway branch: an indirect `jmp` through `base` whose
    /// extracted jump table lists the given labels (§3.5, §3.6).
    pub fn switch(&mut self, base: Reg, labels: &[&str]) -> &mut Self {
        self.items.push(Item::Switch(base, labels.iter().map(|s| s.to_string()).collect()));
        self
    }

    /// Appends an indirect call (`jsr` through `base`) whose possible
    /// targets are known to be the named routines.
    pub fn jsr_known(&mut self, base: Reg, targets: &[&str]) -> &mut Self {
        self.items.push(Item::JsrKnown(base, targets.iter().map(|s| s.to_string()).collect()));
        self
    }

    /// Appends an indirect call (`jsr` through `base`) to an unknown
    /// target; the analysis applies calling-standard assumptions (§3.5).
    pub fn jsr_unknown(&mut self, base: Reg) -> &mut Self {
        self.items.push(Item::JsrUnknown(base));
        self
    }

    /// Appends an indirect call to an external target whose exact register
    /// effects the compiler supplied (§3.5's suggested extension): the
    /// call may read `used`, must write `defined`, may overwrite `killed`.
    pub fn jsr_hinted(
        &mut self,
        base: Reg,
        used: spike_isa::RegSet,
        defined: spike_isa::RegSet,
        killed: spike_isa::RegSet,
    ) -> &mut Self {
        self.items.push(Item::JsrHinted(base, used, defined, killed));
        self
    }

    /// Appends an indirect jump with no recoverable table, annotated with
    /// the compiler-provided set of registers live at its target (§3.5's
    /// suggested extension).
    pub fn jmp_hinted(&mut self, base: Reg, live: spike_isa::RegSet) -> &mut Self {
        self.items.push(Item::JmpHinted(base, live));
        self
    }

    /// Appends `rd = <address of label>`: materializes a local label's word
    /// address, e.g. to feed an indirect `jmp`.
    pub fn lda_label(&mut self, rd: Reg, label: &str) -> &mut Self {
        self.items.push(Item::LdaLabel(rd, label.to_string()));
        self
    }

    /// Appends `rd = <address of routine entrance>`: materializes a call
    /// target's word address (a `routine` or `routine:label` name), e.g.
    /// to feed an indirect `jsr`.
    pub fn lda_routine(&mut self, rd: Reg, target: &str) -> &mut Self {
        self.items.push(Item::LdaRoutine(rd, target.to_string()));
        self
    }

    /// Appends a return through `ra`.
    pub fn ret(&mut self) -> &mut Self {
        self.insn(Instruction::Ret { base: Reg::RA })
    }

    /// Appends `halt` (program exit).
    pub fn halt(&mut self) -> &mut Self {
        self.insn(Instruction::Halt)
    }

    /// Appends `putint` (emit `v0` to the observable output).
    pub fn put_int(&mut self) -> &mut Self {
        self.insn(Instruction::PutInt)
    }

    /// Marks the routine as exported (callable from outside the program).
    pub fn export(&mut self) -> &mut Self {
        self.exported = true;
        self
    }

    /// Number of instructions appended so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no instructions have been appended.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Builds a [`Program`] from routines with symbolic labels and call targets.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    routines: Vec<RoutineBuilder>,
    entry: Option<String>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Starts (or resumes) building the routine named `name`.
    pub fn routine(&mut self, name: &str) -> &mut RoutineBuilder {
        if let Some(i) = self.routines.iter().position(|r| r.name == name) {
            return &mut self.routines[i];
        }
        self.routines.push(RoutineBuilder::new(name.to_string()));
        self.routines.last_mut().expect("just pushed")
    }

    /// Sets the program entry routine. Defaults to the first routine.
    pub fn set_entry(&mut self, name: &str) -> &mut Self {
        self.entry = Some(name.to_string());
        self
    }

    /// Assembles the program: lays out routines at consecutive addresses,
    /// resolves labels and call targets, and validates the result.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for unresolved or duplicate symbols,
    /// fall-through routine ends, displacement overflow, or whole-program
    /// validation failures.
    pub fn build(&self) -> Result<Program, BuildError> {
        if self.routines.is_empty() {
            return Err(BuildError::NoRoutines);
        }
        // Duplicate routine names are impossible via `routine()`, but guard
        // anyway in case of future construction paths.
        for (i, r) in self.routines.iter().enumerate() {
            if self.routines[..i].iter().any(|p| p.name == r.name) {
                return Err(BuildError::DuplicateRoutine(r.name.clone()));
            }
            if let Some(label) = &r.duplicate_label {
                return Err(BuildError::DuplicateLabel {
                    routine: r.name.clone(),
                    label: label.clone(),
                });
            }
        }

        // Pass 1: lay out routines; every item is exactly one word.
        let mut addrs = Vec::with_capacity(self.routines.len());
        let mut next = BASE_ADDR;
        for r in &self.routines {
            addrs.push(next);
            next += r.items.len() as u32;
        }

        // Entry-address resolution for `routine` / `routine:label` names.
        let resolve_target = |from: &RoutineBuilder, target: &str| -> Result<u32, BuildError> {
            let (rname, label) = match target.split_once(':') {
                Some((r, l)) => (r, Some(l)),
                None => (target, None),
            };
            let idx = self.routines.iter().position(|r| r.name == rname).ok_or_else(|| {
                BuildError::UndefinedRoutine {
                    routine: from.name.clone(),
                    target: target.to_string(),
                }
            })?;
            let base = addrs[idx];
            match label {
                None => Ok(base),
                Some(l) => {
                    let off = self.routines[idx].labels.get(l).ok_or_else(|| {
                        BuildError::UndefinedLabel {
                            routine: rname.to_string(),
                            label: l.to_string(),
                        }
                    })?;
                    Ok(base + *off as u32)
                }
            }
        };

        let mut routines = Vec::with_capacity(self.routines.len());
        let mut jump_tables = BTreeMap::new();
        let mut indirect_calls = BTreeMap::new();
        let mut jump_hints = BTreeMap::new();
        let mut relocations = BTreeMap::new();

        for (ri, rb) in self.routines.iter().enumerate() {
            let base = addrs[ri];
            let local_label = |label: &str| -> Result<u32, BuildError> {
                rb.labels.get(label).map(|&off| base + off as u32).ok_or_else(|| {
                    BuildError::UndefinedLabel {
                        routine: rb.name.clone(),
                        label: label.to_string(),
                    }
                })
            };
            // Conditional branches carry 21-bit displacements; `br`/`bsr`
            // have no register operand and carry 26 bits.
            let disp_to =
                |from_off: usize, target_addr: u32, bits: u32| -> Result<i32, BuildError> {
                    let pc_next = base + from_off as u32 + 1;
                    let d = target_addr as i64 - pc_next as i64;
                    let lim = 1i64 << (bits - 1);
                    if !(-lim..lim).contains(&d) {
                        return Err(BuildError::DisplacementOverflow {
                            routine: rb.name.clone(),
                            offset: from_off,
                        });
                    }
                    Ok(d as i32)
                };

            let mut resolve = |off: usize, item: &Item| -> Result<Instruction, BuildError> {
                Ok(match item {
                    Item::Insn(i) => *i,
                    Item::BrTo(l) => Instruction::Br { disp: disp_to(off, local_label(l)?, 26)? },
                    Item::CondTo(c, r, l) => Instruction::CondBranch {
                        cond: *c,
                        ra: *r,
                        disp: disp_to(off, local_label(l)?, 21)?,
                    },
                    Item::Call(t) => {
                        Instruction::Bsr { disp: disp_to(off, resolve_target(rb, t)?, 26)? }
                    }
                    Item::Switch(basereg, labels) => {
                        let targets: Result<Vec<u32>, BuildError> =
                            labels.iter().map(|l| local_label(l)).collect();
                        jump_tables.insert(base + off as u32, targets?);
                        Instruction::Jmp { base: *basereg }
                    }
                    Item::JsrKnown(basereg, names) => {
                        let targets: Result<Vec<u32>, BuildError> =
                            names.iter().map(|t| resolve_target(rb, t)).collect();
                        indirect_calls.insert(base + off as u32, IndirectTargets::Known(targets?));
                        Instruction::Jsr { base: *basereg }
                    }
                    Item::JsrUnknown(basereg) => {
                        indirect_calls.insert(base + off as u32, IndirectTargets::Unknown);
                        Instruction::Jsr { base: *basereg }
                    }
                    Item::JsrHinted(basereg, used, defined, killed) => {
                        indirect_calls.insert(
                            base + off as u32,
                            IndirectTargets::Hinted {
                                used: *used,
                                defined: *defined,
                                killed: *killed,
                            },
                        );
                        Instruction::Jsr { base: *basereg }
                    }
                    Item::JmpHinted(basereg, live) => {
                        jump_hints.insert(base + off as u32, *live);
                        Instruction::Jmp { base: *basereg }
                    }
                    Item::LdaLabel(rd, l) => {
                        let addr = local_label(l)?;
                        relocations.insert(base + off as u32, addr);
                        Instruction::Lda {
                            rd: *rd,
                            base: Reg::ZERO,
                            disp: i16::try_from(addr).map_err(|_| {
                                BuildError::DisplacementOverflow {
                                    routine: rb.name.clone(),
                                    offset: off,
                                }
                            })?,
                        }
                    }
                    Item::LdaRoutine(rd, t) => {
                        let addr = resolve_target(rb, t)?;
                        relocations.insert(base + off as u32, addr);
                        Instruction::Lda {
                            rd: *rd,
                            base: Reg::ZERO,
                            disp: i16::try_from(addr).map_err(|_| {
                                BuildError::DisplacementOverflow {
                                    routine: rb.name.clone(),
                                    offset: off,
                                }
                            })?,
                        }
                    }
                })
            };
            // Collected straight into the routine's shared array: one
            // allocation, no copy. The first error is the one returned.
            let mut failed = None;
            let insns: Arc<[Instruction]> = rb
                .items
                .iter()
                .enumerate()
                .map(|(off, item)| {
                    resolve(off, item).unwrap_or_else(|e| {
                        failed.get_or_insert(e);
                        Instruction::Halt
                    })
                })
                .collect();
            if let Some(e) = failed {
                return Err(e);
            }

            match insns.last() {
                Some(
                    Instruction::Br { .. }
                    | Instruction::Jmp { .. }
                    | Instruction::Ret { .. }
                    | Instruction::Halt,
                ) => {}
                _ => return Err(BuildError::FallsThroughEnd { routine: rb.name.clone() }),
            }

            let mut entry_offsets = vec![0u32];
            for l in &rb.alt_entries {
                entry_offsets.push(local_label(l)? - base);
            }
            entry_offsets.sort_unstable();
            entry_offsets.dedup();

            routines.push(Routine::with_shared_insns(
                rb.name.clone(),
                base,
                insns,
                entry_offsets,
                rb.exported,
            ));
        }

        let entry = match &self.entry {
            None => RoutineId::from_index(0),
            Some(name) => {
                let idx = self
                    .routines
                    .iter()
                    .position(|r| &r.name == name)
                    .ok_or_else(|| BuildError::UndefinedEntry(name.clone()))?;
                RoutineId::from_index(idx)
            }
        };

        Ok(Program::new(routines, jump_tables, indirect_calls, jump_hints, relocations, entry)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_calls_branches_and_switches() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::A0)
            .label("top")
            .cond(BranchCond::Ne, Reg::A0, "top")
            .call("f")
            .switch(Reg::T0, &["c0", "c1"])
            .label("c0")
            .br("end")
            .label("c1")
            .def(Reg::T1)
            .label("end")
            .halt();
        b.routine("f").def(Reg::V0).ret();
        let p = b.build().unwrap();

        let main = p.routine_by_name("main").unwrap();
        let f = p.routine_by_name("f").unwrap();
        let mbase = p.routine(main).addr();
        assert_eq!(mbase, BASE_ADDR);

        // Conditional branch to itself (label "top" is at offset 1).
        assert_eq!(
            p.routine(main).insns()[1],
            Instruction::CondBranch { cond: BranchCond::Ne, ra: Reg::A0, disp: -1 }
        );
        // The call resolves to f's entry.
        assert_eq!(p.direct_call_target(mbase + 2), Some((f, 0)));
        // The switch produced a jump table with in-routine targets.
        let table = p.jump_table(mbase + 3).unwrap();
        assert_eq!(table, &[mbase + 4, mbase + 5]);
    }

    #[test]
    fn alt_entries_are_callable() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f:mid").halt();
        b.routine("f").def(Reg::T0).label("mid").alt_entry("mid").def(Reg::V0).ret();
        let p = b.build().unwrap();
        let f = p.routine_by_name("f").unwrap();
        assert_eq!(p.routine(f).entry_offsets(), &[0, 1]);
        let main = p.routine_by_name("main").unwrap();
        assert_eq!(p.direct_call_target(p.routine(main).addr()), Some((f, 1)));
    }

    #[test]
    fn indirect_calls_record_target_info() {
        let mut b = ProgramBuilder::new();
        b.routine("main").jsr_known(Reg::PV, &["f", "g"]).jsr_unknown(Reg::PV).halt();
        b.routine("f").ret();
        b.routine("g").ret();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let f_addr = p.routine(p.routine_by_name("f").unwrap()).addr();
        let g_addr = p.routine(p.routine_by_name("g").unwrap()).addr();
        assert_eq!(p.indirect_call_targets(base), &IndirectTargets::Known(vec![f_addr, g_addr]));
        assert_eq!(p.indirect_call_targets(base + 1), &IndirectTargets::Unknown);
    }

    #[test]
    fn undefined_label_is_reported() {
        let mut b = ProgramBuilder::new();
        b.routine("main").br("nowhere").halt();
        assert!(matches!(b.build().unwrap_err(), BuildError::UndefinedLabel { .. }));
    }

    #[test]
    fn undefined_routine_is_reported() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("ghost").halt();
        assert!(matches!(b.build().unwrap_err(), BuildError::UndefinedRoutine { .. }));
    }

    #[test]
    fn duplicate_label_is_reported() {
        let mut b = ProgramBuilder::new();
        b.routine("main").label("x").def(Reg::T0).label("x").halt();
        assert!(matches!(b.build().unwrap_err(), BuildError::DuplicateLabel { .. }));
    }

    #[test]
    fn fall_through_end_is_reported() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0);
        assert!(matches!(b.build().unwrap_err(), BuildError::FallsThroughEnd { .. }));
        // A trailing call also falls through.
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f");
        b.routine("f").ret();
        assert!(matches!(b.build().unwrap_err(), BuildError::FallsThroughEnd { .. }));
    }

    #[test]
    fn set_entry_selects_routine() {
        let mut b = ProgramBuilder::new();
        b.routine("lib").ret();
        b.routine("start").halt();
        b.set_entry("start");
        let p = b.build().unwrap();
        assert_eq!(p.routine(p.entry()).name(), "start");

        let mut b = ProgramBuilder::new();
        b.routine("main").halt();
        b.set_entry("ghost");
        assert!(matches!(b.build().unwrap_err(), BuildError::UndefinedEntry(_)));
    }

    #[test]
    fn empty_builder_fails() {
        assert_eq!(ProgramBuilder::new().build().unwrap_err(), BuildError::NoRoutines);
    }

    #[test]
    fn resuming_a_routine_appends() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0);
        b.routine("main").halt();
        let p = b.build().unwrap();
        assert_eq!(p.routines()[0].len(), 2);
    }
}
