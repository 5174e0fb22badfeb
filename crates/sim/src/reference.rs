//! The interpreter and the four driving loops as they were before every
//! simulator mode ran on [`super::Machine::step`]: one hand-written loop
//! per mode, each advancing the machine with `run(program, 1)`. Kept as
//! the oracle the new runners are property-tested against
//! (`tests::runners_match_the_reference`).

use std::collections::BTreeMap;

use spike_isa::{FpOp, Instruction, MemWidth, Reg, RegSet, NUM_REGS};
use spike_program::Program;

use super::{
    alu, routine_name, shadow_uses, ExecutionProfile, Fault, Outcome, EXIT_ADDR, STACK_TOP,
};

/// [`super::run`] as it was.
pub(crate) fn run(program: &Program, fuel: u64) -> Outcome {
    Machine::new(program).run(program, fuel)
}

/// The machine as the old loops drove it: `run(program, 1)` per
/// step.
struct Machine {
    regs: [i64; NUM_REGS],
    mem: BTreeMap<i64, i64>,
    pc: u32,
    output: Vec<i64>,
    steps: u64,
}

impl Machine {
    /// Creates a machine poised at `program`'s entry routine, with `ra`
    /// pointing at [`EXIT_ADDR`] and `sp` at [`STACK_TOP`].
    fn new(program: &Program) -> Machine {
        let mut m = Machine {
            regs: [0; NUM_REGS],
            mem: BTreeMap::new(),
            pc: program.routine(program.entry()).addr(),
            output: Vec::new(),
            steps: 0,
        };
        m.regs[Reg::RA.index()] = EXIT_ADDR as i64;
        m.regs[Reg::SP.index()] = STACK_TOP;
        m
    }

    /// The value of `r`. Zero registers always read 0.
    fn reg(&self, r: Reg) -> i64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Sets `r` to `v`. Writes to zero registers are discarded.
    fn set_reg(&mut self, r: Reg, v: i64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// The current program counter (word address).
    fn pc(&self) -> u32 {
        self.pc
    }

    /// Instructions executed so far.
    fn steps(&self) -> u64 {
        self.steps
    }

    /// Output emitted so far.
    fn output(&self) -> &[i64] {
        &self.output
    }

    /// Executes until halt, fault, or `fuel` instructions have run.
    fn run(&mut self, program: &Program, fuel: u64) -> Outcome {
        for _ in 0..fuel {
            if self.pc == EXIT_ADDR {
                return Outcome::Halted { output: self.output.clone(), steps: self.steps };
            }
            let Some(&insn) = program.insn_at(self.pc) else {
                return Outcome::Fault(Fault::BadPc(self.pc));
            };
            self.steps += 1;
            let next = self.pc + 1;
            match insn {
                Instruction::Operate { op, ra, rb, rc } => {
                    let v = alu(op, self.reg(ra), self.reg(rb), self.reg(rc));
                    self.set_reg(rc, v);
                }
                Instruction::OperateImm { op, ra, imm, rc } => {
                    let v = alu(op, self.reg(ra), imm as i64, self.reg(rc));
                    self.set_reg(rc, v);
                }
                Instruction::Lda { rd, base, disp } => {
                    self.set_reg(rd, self.reg(base).wrapping_add(disp as i64));
                }
                Instruction::Ldah { rd, base, disp } => {
                    self.set_reg(rd, self.reg(base).wrapping_add((disp as i64) << 16));
                }
                Instruction::Load { width, rd, base, disp } => {
                    let addr = self.reg(base).wrapping_add(disp as i64);
                    let raw = self.mem.get(&addr).copied().unwrap_or(0);
                    let v = match width {
                        MemWidth::L => raw as i32 as i64,
                        MemWidth::Q | MemWidth::T => raw,
                    };
                    self.set_reg(rd, v);
                }
                Instruction::Store { width, rs, base, disp } => {
                    let addr = self.reg(base).wrapping_add(disp as i64);
                    let v = match width {
                        MemWidth::L => self.reg(rs) as i32 as i64,
                        MemWidth::Q | MemWidth::T => self.reg(rs),
                    };
                    self.mem.insert(addr, v);
                }
                Instruction::FpOperate { op, fa, fb, fc } => {
                    let a = f64::from_bits(self.reg(fa) as u64);
                    let b = f64::from_bits(self.reg(fb) as u64);
                    let v = match op {
                        FpOp::Add => a + b,
                        FpOp::Sub => a - b,
                        FpOp::Mul => a * b,
                        FpOp::CmpEq => {
                            if a == b {
                                2.0
                            } else {
                                0.0
                            }
                        }
                        FpOp::CmpLt => {
                            if a < b {
                                2.0
                            } else {
                                0.0
                            }
                        }
                    };
                    self.set_reg(fc, v.to_bits() as i64);
                }
                Instruction::Br { disp } => {
                    self.pc = next.wrapping_add(disp as u32);
                    continue;
                }
                Instruction::Bsr { disp } => {
                    self.set_reg(Reg::RA, next as i64);
                    self.pc = next.wrapping_add(disp as u32);
                    continue;
                }
                Instruction::CondBranch { cond, ra, disp } => {
                    if cond.eval(self.reg(ra)) {
                        self.pc = next.wrapping_add(disp as u32);
                        continue;
                    }
                }
                Instruction::Jmp { base } => {
                    self.pc = self.reg(base) as u32;
                    continue;
                }
                Instruction::Jsr { base } => {
                    let target = self.reg(base) as u32;
                    self.set_reg(Reg::RA, next as i64);
                    self.pc = target;
                    continue;
                }
                Instruction::Ret { base } => {
                    self.pc = self.reg(base) as u32;
                    continue;
                }
                Instruction::Halt => {
                    return Outcome::Halted { output: self.output.clone(), steps: self.steps };
                }
                Instruction::PutInt => {
                    self.output.push(self.reg(Reg::V0));
                }
            }
            self.pc = next;
        }
        Outcome::OutOfFuel { output: self.output.clone(), steps: self.steps }
    }
}

pub(crate) fn run_shadow(program: &Program, fuel: u64) -> Outcome {
    let mut m = Machine::new(program);
    let mut defined = RegSet::of(&[Reg::RA, Reg::SP, Reg::ZERO, Reg::FZERO]);
    loop {
        if m.steps() >= fuel {
            return Outcome::OutOfFuel { output: m.output().to_vec(), steps: m.steps() };
        }
        let pc = m.pc();
        if pc == EXIT_ADDR {
            return Outcome::Halted { output: m.output().to_vec(), steps: m.steps() };
        }
        let Some(&insn) = program.insn_at(pc) else {
            return Outcome::Fault(Fault::BadPc(pc));
        };
        let need = shadow_uses(&insn);
        if !need.is_subset(defined) {
            let reg = (need - defined).iter().next().expect("non-empty difference");
            return Outcome::Fault(Fault::UninitRead {
                pc,
                routine: routine_name(program, pc),
                reg,
            });
        }
        defined |= insn.defs();
        match m.run(program, 1) {
            Outcome::OutOfFuel { .. } => {} // single step executed; continue
            done => return done,
        }
    }
}

pub(crate) fn run_shadow_slots(program: &Program, fuel: u64) -> Outcome {
    let mut m = Machine::new(program);
    let mut defined = RegSet::of(&[Reg::RA, Reg::SP, Reg::ZERO, Reg::FZERO]);
    let mut frames: Vec<i64> = vec![STACK_TOP];
    let mut slots: std::collections::BTreeSet<i64> = std::collections::BTreeSet::new();
    loop {
        if m.steps() >= fuel {
            return Outcome::OutOfFuel { output: m.output().to_vec(), steps: m.steps() };
        }
        let pc = m.pc();
        if pc == EXIT_ADDR {
            return Outcome::Halted { output: m.output().to_vec(), steps: m.steps() };
        }
        let Some(&insn) = program.insn_at(pc) else {
            return Outcome::Fault(Fault::BadPc(pc));
        };
        let need = shadow_uses(&insn);
        if !need.is_subset(defined) {
            let reg = (need - defined).iter().next().expect("non-empty difference");
            return Outcome::Fault(Fault::UninitRead {
                pc,
                routine: routine_name(program, pc),
                reg,
            });
        }
        let sp = m.reg(Reg::SP);
        let entry_sp = *frames.last().expect("frame stack never empties");
        match insn {
            Instruction::Bsr { .. } | Instruction::Jsr { .. } => frames.push(sp),
            Instruction::Ret { .. } if frames.len() > 1 => {
                frames.pop();
            }
            Instruction::Lda { rd: Reg::SP, base: Reg::SP, disp } => {
                // The bytes the move crossed change frames; definedness
                // never survives the transition in either direction.
                let new_sp = sp.wrapping_add(disp as i64);
                let (lo, hi) = (sp.min(new_sp), sp.max(new_sp));
                let crossed: Vec<i64> = slots.range(lo..hi).copied().collect();
                for a in crossed {
                    slots.remove(&a);
                }
            }
            Instruction::Load { base: Reg::SP, disp, .. } => {
                let addr = sp.wrapping_add(disp as i64);
                if addr >= entry_sp || addr < sp {
                    return Outcome::Fault(Fault::OutOfFrame {
                        pc,
                        routine: routine_name(program, pc),
                        addr,
                    });
                }
                if !slots.contains(&addr) {
                    return Outcome::Fault(Fault::UninitStackRead {
                        pc,
                        routine: routine_name(program, pc),
                        offset: addr - entry_sp,
                    });
                }
            }
            Instruction::Store { base: Reg::SP, disp, .. } => {
                let addr = sp.wrapping_add(disp as i64);
                if addr >= entry_sp || addr < sp {
                    return Outcome::Fault(Fault::OutOfFrame {
                        pc,
                        routine: routine_name(program, pc),
                        addr,
                    });
                }
                slots.insert(addr);
            }
            _ => {}
        }
        defined |= insn.defs();
        match m.run(program, 1) {
            Outcome::OutOfFuel { .. } => {} // single step executed; continue
            done => return done,
        }
    }
}

pub(crate) fn run_profiled(program: &Program, fuel: u64) -> (Outcome, ExecutionProfile) {
    let callee_saved = spike_isa::CallingStandard::alpha_nt().callee_saved();
    let mut m = Machine::new(program);
    let code_base = program.routines().first().map(|r| r.addr()).unwrap_or(0);
    let code_end = program.routines().last().map(|r| r.end_addr()).unwrap_or(code_base);
    let mut profile = ExecutionProfile {
        steps_per_routine: vec![0; program.routines().len()],
        entries_per_routine: vec![0; program.routines().len()],
        code_base,
        insn_counts: vec![0; (code_end - code_base) as usize],
        ..ExecutionProfile::default()
    };
    profile.entries_per_routine[program.entry().index()] += 1;

    let outcome = loop {
        if profile.total_steps >= fuel {
            break Outcome::OutOfFuel { output: m.output().to_vec(), steps: m.steps() };
        }
        let pc = m.pc();
        if pc == EXIT_ADDR {
            break Outcome::Halted { output: m.output().to_vec(), steps: m.steps() };
        }
        let Some(&insn) = program.insn_at(pc) else {
            break Outcome::Fault(Fault::BadPc(pc));
        };
        if let Some(rid) = program.routine_containing(pc) {
            profile.steps_per_routine[rid.index()] += 1;
        }
        profile.total_steps += 1;
        profile.insn_counts[(pc - code_base) as usize] += 1;
        let overhead = match insn {
            Instruction::Bsr { .. } | Instruction::Jsr { .. } => {
                profile.calls += 1;
                true
            }
            Instruction::Ret { .. } => true,
            Instruction::Lda { rd: Reg::SP, base: Reg::SP, .. } => true,
            Instruction::Store { rs, base: Reg::SP, .. } => {
                rs == Reg::RA || callee_saved.contains(rs)
            }
            Instruction::Load { rd, base: Reg::SP, .. } => {
                rd == Reg::RA || callee_saved.contains(rd)
            }
            _ => false,
        };
        if overhead {
            profile.call_overhead_steps += 1;
        }
        match m.run(program, 1) {
            Outcome::OutOfFuel { .. } => {} // single step executed; continue
            done => break done,
        }
        // Record the control-transfer edge the step just took. The
        // fall-through of a conditional branch is an edge too; plain
        // straight-line flow is not.
        if insn.is_terminator() {
            *profile.edges.entry((pc, m.pc())).or_insert(0) += 1;
            if insn.is_call() {
                if let Some(callee) = program.routine_containing(m.pc()) {
                    profile.entries_per_routine[callee.index()] += 1;
                }
            }
        }
    };
    // A `halt` stops inside `m.run` without re-entering the loop; a
    // `ret` to the exit address records its edge before the loop's
    // EXIT_ADDR check stops the run. Nothing else to flush.
    (outcome, profile)
}

pub(crate) fn steps_to_output(program: &Program, fuel: u64, k: usize) -> Option<u64> {
    if k == 0 {
        return Some(0);
    }
    let mut m = Machine::new(program);
    loop {
        if m.output().len() >= k {
            return Some(m.steps());
        }
        if m.steps() >= fuel {
            return None;
        }
        match m.run(program, 1) {
            Outcome::OutOfFuel { .. } => {}
            Outcome::Halted { output, steps } => {
                return (output.len() >= k).then_some(steps);
            }
            Outcome::Fault(_) => return None,
        }
    }
}

mod tests {
    use proptest::prelude::*;
    use spike_isa::{AluOp, BranchCond, Instruction, MemWidth, Reg};
    use spike_program::{Program, ProgramBuilder};
    use spike_synth::{generate, generate_executable, generate_executable_with_defect, DefectKind};

    /// Fuel for programs that need not halt (the benchmark profiles).
    const CAP: u64 = 20_000;

    /// Runs every mode, new and reference, at fuels around `s` — the
    /// steps a plain run takes (`CAP` when it does not stop by then) —
    /// and requires identical outcomes, profiles and prefix counts.
    fn matches_reference(name: &str, p: &Program) -> Result<(), TestCaseError> {
        let s = super::run(p, CAP).steps().unwrap_or(CAP);
        for fuel in [0, 1, s / 2, s.saturating_sub(1), s, s + 1] {
            let at = format!("{name} at fuel {fuel} (s = {s})");
            let plain = super::run(p, fuel);
            prop_assert_eq!(crate::run(p, fuel), plain.clone(), "run: {}", at);
            prop_assert_eq!(
                crate::run_shadow(p, fuel),
                super::run_shadow(p, fuel),
                "shadow: {}",
                at
            );
            prop_assert_eq!(
                crate::run_shadow_slots(p, fuel),
                super::run_shadow_slots(p, fuel),
                "slots: {}",
                at
            );
            prop_assert_eq!(
                crate::run_profiled(p, fuel),
                super::run_profiled(p, fuel),
                "profiled: {}",
                at
            );
            let len = plain.output().map_or(0, <[i64]>::len);
            for k in [0, 1, len / 2, len, len + 1] {
                prop_assert_eq!(
                    crate::steps_to_output(p, fuel, k),
                    super::steps_to_output(p, fuel, k),
                    "steps_to_output k = {}: {}",
                    k,
                    at
                );
            }
        }
        Ok(())
    }

    /// One instruction of a random straight-line routine: SP traffic in
    /// and out of the frame, reads of registers nothing defined, jumps
    /// and branches anywhere, so every fault and stop is reachable.
    fn soup_insn(w: u32) -> Instruction {
        const REGS: [Reg; 8] =
            [Reg::T0, Reg::T1, Reg::V0, Reg::A0, Reg::SP, Reg::RA, Reg::ZERO, Reg::S0];
        let r = |shift: u32| REGS[(w >> shift) as usize & 7];
        let disp = ((w >> 16) & 7) as i16 * 8 - 32;
        let base = if w & 0x800 != 0 { Reg::SP } else { r(8) };
        match w % 12 {
            0 => Instruction::Lda { rd: r(4), base: r(8), disp },
            1 => Instruction::Lda { rd: Reg::SP, base: Reg::SP, disp },
            2 => {
                Instruction::OperateImm { op: AluOp::Add, ra: r(4), imm: (w >> 20) as u8, rc: r(8) }
            }
            3 => Instruction::Operate { op: AluOp::Mul, ra: r(4), rb: r(8), rc: r(12) },
            4 => Instruction::Store { width: MemWidth::Q, rs: r(4), base, disp },
            5 => Instruction::Load { width: MemWidth::L, rd: r(4), base, disp },
            6 => Instruction::PutInt,
            7 => Instruction::Jmp { base: r(4) },
            8 => Instruction::CondBranch { cond: BranchCond::Ne, ra: r(4), disp: disp as i32 / 8 },
            9 => Instruction::Ret { base: Reg::RA },
            10 => Instruction::Halt,
            _ => Instruction::Bsr { disp: disp as i32 / 8 },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every runner matches the old loops on executables, on
        /// every planted defect, and on random instruction soup.
        #[test]
        fn runners_match_the_reference(
            seed in any::<u64>(),
            size in 1usize..=40,
            soup in proptest::collection::vec(any::<u32>(), 1..48),
        ) {
            matches_reference("executable", &generate_executable(seed, size))?;
            for kind in [
                DefectKind::UninitRead,
                DefectKind::CalleeSavedClobber,
                DefectKind::UninitStackSlotRead,
                DefectKind::OutOfFrameStore,
            ] {
                let (p, _) = generate_executable_with_defect(seed, size.max(2), kind);
                matches_reference(&format!("{kind:?}"), &p)?;
            }
            let mut b = ProgramBuilder::new();
            let main = b.routine("main");
            for &w in &soup {
                main.insn(soup_insn(w));
            }
            main.halt();
            if let Ok(p) = b.build() {
                matches_reference("soup", &p)?;
            }
        }
    }

    /// The same on every benchmark profile at a small scale; they do not
    /// halt, so the boundary is the fuel cap itself.
    #[test]
    fn runners_match_the_reference_on_profiles() {
        for profile in spike_synth::profiles() {
            let p = generate(&profile, 0.05, 7);
            if let Err(e) = matches_reference(profile.name, &p) {
                panic!("{e:?}");
            }
        }
    }
}
