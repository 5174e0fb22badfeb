//! # spike-sim
//!
//! An interpreter for the synthetic Alpha-like ISA.
//!
//! The paper validates Spike by running optimized Alpha/NT executables.
//! This crate plays that role for the reproduction: it executes a
//! [`spike_program::Program`] and reports its observable behaviour — the
//! sequence of values emitted by `putint` — so tests can check that
//! summary-driven optimizations preserve semantics.
//!
//! # One interpreter loop
//!
//! [`Machine::step`] executes one instruction and builds an [`Outcome`]
//! only when the run stops; [`Machine::run`] and [`steps_to_output`]
//! loop it. The other modes are one private loop (`drive`) over the
//! same step with a hook that sees each instruction before it
//! executes, and may fault, and the machine after it: the register
//! tracker ([`run_shadow`]), that tracker plus the frame and slot
//! tracker ([`run_shadow_slots`]), or the counters ([`run_profiled`]).
//! A mode changes a run only by the fault it raises.
//!
//! # Example
//!
//! ```
//! use spike_isa::{AluOp, Reg};
//! use spike_program::ProgramBuilder;
//! use spike_sim::{run, Outcome};
//!
//! let mut b = ProgramBuilder::new();
//! b.routine("main")
//!     .lda(Reg::A0, Reg::ZERO, 21)
//!     .call("double")
//!     .put_int()
//!     .halt();
//! b.routine("double")
//!     .op(AluOp::Add, Reg::A0, Reg::A0, Reg::V0)
//!     .ret();
//! let program = b.build()?;
//!
//! match run(&program, 1_000) {
//!     Outcome::Halted { output, .. } => assert_eq!(output, vec![42]),
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use spike_isa::{AluOp, FpOp, Instruction, MemWidth, Reg, RegSet, NUM_REGS};
use spike_program::Program;

/// Return address loaded into `ra` at startup; returning to it ends the
/// program cleanly, as the OS loader would.
pub const EXIT_ADDR: u32 = 0xFFFF_0000;

/// Initial stack pointer (byte address).
pub const STACK_TOP: i64 = 1 << 20;

/// Why execution stopped.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum Outcome {
    /// The program executed `halt` or returned from its entry routine.
    Halted {
        /// Values emitted by `putint`, in order — the program's observable
        /// behaviour.
        output: Vec<i64>,
        /// Instructions executed.
        steps: u64,
    },
    /// The step budget was exhausted. Carries the output so far.
    OutOfFuel {
        /// Values emitted before the budget ran out.
        output: Vec<i64>,
        /// Instructions executed (the budget itself, counted the same
        /// way as [`Outcome::Halted`]'s `steps` so instrumented and
        /// plain runs report identical totals).
        steps: u64,
    },
    /// Execution faulted.
    Fault(Fault),
}

impl Outcome {
    /// Instructions executed, when the run stopped cleanly (`None` for
    /// faults, which stop mid-instruction).
    pub fn steps(&self) -> Option<u64> {
        match self {
            Outcome::Halted { steps, .. } | Outcome::OutOfFuel { steps, .. } => Some(*steps),
            Outcome::Fault(_) => None,
        }
    }

    /// The output emitted before the run stopped (`None` for faults).
    pub fn output(&self) -> Option<&[i64]> {
        match self {
            Outcome::Halted { output, .. } | Outcome::OutOfFuel { output, .. } => Some(output),
            Outcome::Fault(_) => None,
        }
    }
}

/// A simulated machine fault.
///
/// Faults raised by the shadow modes carry the name of the routine whose
/// instruction faulted (resolved from the routine map at raise time), so a
/// lint-oracle failure names the routine directly instead of only a raw
/// pc.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum Fault {
    /// Control transferred to an address holding no instruction.
    BadPc(u32),
    /// An instruction consumed a register no prior instruction had
    /// defined. Only raised by [`run_shadow`] / [`run_shadow_slots`]; the
    /// plain interpreter executes the same program without complaint
    /// (undefined registers read as whatever the machine happens to hold).
    UninitRead {
        /// Address of the consuming instruction.
        pc: u32,
        /// Name of the routine containing `pc`.
        routine: String,
        /// The undefined register it read.
        reg: Reg,
    },
    /// An SP-relative load read a stack slot of the current frame that no
    /// store had initialized. Only raised by [`run_shadow_slots`].
    UninitStackRead {
        /// Address of the loading instruction.
        pc: u32,
        /// Name of the routine containing `pc`.
        routine: String,
        /// The slot's byte offset relative to the frame's entry SP
        /// (negative: slots live below the SP the routine was entered
        /// with).
        offset: i64,
    },
    /// An SP-relative access landed outside the current frame — at or
    /// above the SP the routine was entered with (the caller's frame), or
    /// below the current SP (unallocated stack). Only raised by
    /// [`run_shadow_slots`].
    OutOfFrame {
        /// Address of the accessing instruction.
        pc: u32,
        /// Name of the routine containing `pc`.
        routine: String,
        /// The byte address the access computed.
        addr: i64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::BadPc(pc) => write!(f, "control reached non-code address {pc:#x}"),
            Fault::UninitRead { pc, routine, reg } => {
                write!(f, "read of uninitialized register {reg} at {pc:#x} in {routine}")
            }
            Fault::UninitStackRead { pc, routine, offset } => write!(
                f,
                "read of uninitialized stack slot at entry-SP{offset:+} at {pc:#x} in {routine}"
            ),
            Fault::OutOfFrame { pc, routine, addr } => write!(
                f,
                "stack access at {pc:#x} in {routine} touches {addr:#x} outside the frame"
            ),
        }
    }
}

/// The name of the routine containing `pc`, for fault messages.
fn routine_name(program: &Program, pc: u32) -> String {
    program
        .routine_containing(pc)
        .map(|rid| program.routine(rid).name().to_string())
        .unwrap_or_else(|| "<unknown>".to_string())
}

impl std::error::Error for Fault {}

/// The architectural state of the simulated machine.
#[derive(Clone, Debug)]
pub struct Machine {
    regs: [i64; NUM_REGS],
    mem: BTreeMap<i64, i64>,
    pc: u32,
    output: Vec<i64>,
    steps: u64,
}

impl Machine {
    /// Creates a machine poised at `program`'s entry routine, with `ra`
    /// pointing at [`EXIT_ADDR`] and `sp` at [`STACK_TOP`].
    pub fn new(program: &Program) -> Machine {
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
    pub fn reg(&self, r: Reg) -> i64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Sets `r` to `v`. Writes to zero registers are discarded.
    pub fn set_reg(&mut self, r: Reg, v: i64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// The current program counter (word address).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Output emitted so far.
    pub fn output(&self) -> &[i64] {
        &self.output
    }

    /// Executes until halt, fault, or `fuel` instructions have run.
    pub fn run(&mut self, program: &Program, fuel: u64) -> Outcome {
        for _ in 0..fuel {
            if let Some(stop) = self.step(program) {
                return stop;
            }
        }
        Outcome::OutOfFuel { output: self.output.clone(), steps: self.steps }
    }

    /// Executes the instruction at the pc. `None` while the program can
    /// go on; the run's [`Outcome`] once it stopped: at `halt`, at a pc
    /// holding no instruction, or at [`EXIT_ADDR`] (which executes
    /// nothing, like a fault). Only that last call builds an outcome or
    /// copies the output.
    pub fn step(&mut self, program: &Program) -> Option<Outcome> {
        match self.fetch(program) {
            Ok(insn) => self.execute(insn),
            Err(stop) => Some(stop),
        }
    }

    /// The instruction at the pc, or the outcome of a run that cannot
    /// fetch one.
    fn fetch(&self, program: &Program) -> Result<Instruction, Outcome> {
        if self.pc == EXIT_ADDR {
            return Err(Outcome::Halted { output: self.output.clone(), steps: self.steps });
        }
        match program.insn_at(self.pc) {
            Some(&insn) => Ok(insn),
            None => Err(Outcome::Fault(Fault::BadPc(self.pc))),
        }
    }

    /// Executes `insn`, the instruction at the pc: `Some` only for `halt`.
    fn execute(&mut self, insn: Instruction) -> Option<Outcome> {
        self.steps += 1;
        let next = self.pc + 1;
        let mut to = next;
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
                let truth = |t: bool| if t { 2.0 } else { 0.0 };
                let v = match op {
                    FpOp::Add => a + b,
                    FpOp::Sub => a - b,
                    FpOp::Mul => a * b,
                    FpOp::CmpEq => truth(a == b),
                    FpOp::CmpLt => truth(a < b),
                };
                self.set_reg(fc, v.to_bits() as i64);
            }
            Instruction::Br { disp } => to = next.wrapping_add(disp as u32),
            Instruction::Bsr { disp } => {
                self.set_reg(Reg::RA, next as i64);
                to = next.wrapping_add(disp as u32);
            }
            Instruction::CondBranch { cond, ra, disp } => {
                if cond.eval(self.reg(ra)) {
                    to = next.wrapping_add(disp as u32);
                }
            }
            Instruction::Jmp { base } | Instruction::Ret { base } => to = self.reg(base) as u32,
            Instruction::Jsr { base } => {
                to = self.reg(base) as u32;
                self.set_reg(Reg::RA, next as i64);
            }
            Instruction::Halt => {
                return Some(Outcome::Halted { output: self.output.clone(), steps: self.steps });
            }
            Instruction::PutInt => self.output.push(self.reg(Reg::V0)),
        }
        self.pc = to;
        None
    }
}

fn alu(op: AluOp, a: i64, b: i64, old_c: i64) -> i64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl(b as u32 & 63),
        AluOp::Srl => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        AluOp::Sra => a.wrapping_shr(b as u32 & 63),
        AluOp::CmpEq => (a == b) as i64,
        AluOp::CmpLt => (a < b) as i64,
        AluOp::CmpLe => (a <= b) as i64,
        AluOp::CmpUlt => ((a as u64) < (b as u64)) as i64,
        AluOp::CmovEq => {
            if a == 0 {
                b
            } else {
                old_c
            }
        }
        AluOp::CmovNe => {
            if a != 0 {
                b
            } else {
                old_c
            }
        }
    }
}

/// What a simulator mode adds to a plain run: a look at every
/// instruction before it executes, which may fault, and at the machine
/// after it executed.
trait Hook {
    /// Sees `insn`, the instruction at `m.pc()`, before it executes; an
    /// error stops the run with that fault.
    fn before(&mut self, m: &Machine, insn: Instruction) -> Result<(), Fault>;

    /// Sees the machine after `insn`, fetched at `pc`, executed, unless
    /// it stopped the run.
    fn after(&mut self, _m: &Machine, _pc: u32, _insn: Instruction) {}
}

/// Runs `program` from a fresh [`Machine`] for at most `fuel`
/// instructions, showing each one to `hook`.
fn drive(program: &Program, fuel: u64, hook: &mut impl Hook) -> Outcome {
    let mut m = Machine::new(program);
    while m.steps < fuel {
        let pc = m.pc;
        let insn = match m.fetch(program) {
            Ok(insn) => insn,
            Err(stop) => return stop,
        };
        if let Err(fault) = hook.before(&m, insn) {
            return Outcome::Fault(fault);
        }
        if let Some(stop) = m.execute(insn) {
            return stop;
        }
        hook.after(&m, pc, insn);
    }
    Outcome::OutOfFuel { output: m.output, steps: m.steps }
}

/// Runs `program` from a fresh [`Machine`] with the given step budget.
pub fn run(program: &Program, fuel: u64) -> Outcome {
    Machine::new(program).run(program, fuel)
}

/// The registers an instruction *consumes* as values in shadow-definedness
/// mode. This is [`Instruction::uses`] minus the data operand of a store:
/// spilling a register whose value was never computed is the universal
/// prologue idiom (callee-saved saves), and the definedness tracker treats
/// memory as always-defined anyway (unwritten addresses architecturally
/// read as zero), so only the *address* of a store must be defined.
fn shadow_uses(insn: &Instruction) -> RegSet {
    match *insn {
        Instruction::Store { base, .. } => RegSet::singleton(base),
        _ => insn.uses(),
    }
}

/// The register-definedness tracker of [`run_shadow`]: the registers
/// some executed instruction (or the loader) defined.
struct Registers<'p> {
    program: &'p Program,
    defined: RegSet,
}

impl Registers<'_> {
    fn at_load(program: &Program) -> Registers<'_> {
        Registers { program, defined: RegSet::of(&[Reg::RA, Reg::SP, Reg::ZERO, Reg::FZERO]) }
    }
}

impl Hook for Registers<'_> {
    fn before(&mut self, m: &Machine, insn: Instruction) -> Result<(), Fault> {
        if let Some(reg) = (shadow_uses(&insn) - self.defined).iter().next() {
            let pc = m.pc;
            return Err(Fault::UninitRead { pc, routine: routine_name(self.program, pc), reg });
        }
        self.defined |= insn.defs();
        Ok(())
    }
}

/// Runs `program` with per-register definedness tracking (the opt-in
/// shadow mode used as the soundness oracle for `spike-lint`).
///
/// The loader defines only `ra` and `sp`; every instruction thereafter
/// must consume only registers some earlier instruction defined, or the
/// run stops with [`Fault::UninitRead`]. Zero registers always read as a
/// defined 0. Loads always define their destination: memory in this
/// machine model is architecturally zero-initialized, so every load
/// produces a well-defined value. (The flip side is that a store/load
/// round trip launders definedness — exactly the boundary of what the
/// static checker can prove from registers alone.)
///
/// On a program that never trips the tracker, the outcome is identical to
/// [`run`] with the same fuel.
pub fn run_shadow(program: &Program, fuel: u64) -> Outcome {
    drive(program, fuel, &mut Registers::at_load(program))
}

/// The tracker of [`run_shadow_slots`]: [`Registers`], plus the entry SP
/// of every live activation and the stack addresses a store defined.
struct Slots<'p> {
    registers: Registers<'p>,
    frames: Vec<i64>,
    defined: BTreeSet<i64>,
}

impl Hook for Slots<'_> {
    fn before(&mut self, m: &Machine, insn: Instruction) -> Result<(), Fault> {
        self.registers.before(m, insn)?;
        let (pc, sp, program) = (m.pc, m.reg(Reg::SP), self.registers.program);
        let entry_sp = *self.frames.last().expect("frame stack never empties");
        let in_frame = |addr: i64| {
            if addr >= entry_sp || addr < sp {
                Err(Fault::OutOfFrame { pc, routine: routine_name(program, pc), addr })
            } else {
                Ok(addr)
            }
        };
        match insn {
            Instruction::Bsr { .. } | Instruction::Jsr { .. } => self.frames.push(sp),
            Instruction::Ret { .. } if self.frames.len() > 1 => {
                self.frames.pop();
            }
            Instruction::Lda { rd: Reg::SP, base: Reg::SP, disp } => {
                // The bytes the move crossed change frames; definedness
                // never survives the transition in either direction.
                let new_sp = sp.wrapping_add(disp as i64);
                let crossed = sp.min(new_sp)..sp.max(new_sp);
                while let Some(&a) = self.defined.range(crossed.clone()).next() {
                    self.defined.remove(&a);
                }
            }
            Instruction::Load { base: Reg::SP, disp, .. } => {
                let addr = in_frame(sp.wrapping_add(disp as i64))?;
                if !self.defined.contains(&addr) {
                    return Err(Fault::UninitStackRead {
                        pc,
                        routine: routine_name(program, pc),
                        offset: addr - entry_sp,
                    });
                }
            }
            Instruction::Store { base: Reg::SP, disp, .. } => {
                self.defined.insert(in_frame(sp.wrapping_add(disp as i64))?);
            }
            _ => {}
        }
        Ok(())
    }
}

/// Runs `program` with per-register *and* per-stack-slot definedness
/// tracking — the soundness oracle for the stack lints, strictly stronger
/// than [`run_shadow`].
///
/// On top of [`run_shadow`]'s register rules, the tracker maintains a
/// shadow frame stack: the entry SP of every live activation (calls push
/// the current SP, returns pop). SP-relative accesses are checked against
/// the current frame, the byte range `[sp, entry_sp)`:
///
/// * an access at or above `entry_sp` (the caller's frame) or below the
///   current `sp` (unallocated stack) is [`Fault::OutOfFrame`];
/// * a load inside the frame from an address no store initialized since
///   the frame covered it is [`Fault::UninitStackRead`];
/// * SP adjustments (`lda sp, sp, d`) *un*define every address in the
///   region the move crossed, in both directions — freshly allocated
///   frame bytes start undefined, and deallocated bytes do not carry
///   stale definedness into a later frame at the same addresses.
///
/// Only `sp`-based loads and stores are checked: the tracker has no alias
/// analysis, so an access through a copied or derived pointer is invisible
/// to it (and equally invisible to the static stack lints, which treat
/// such routines as having an escaped frame). On the SP-disciplined
/// programs `spike-synth` generates, lint-clean implies slots-clean; see
/// DESIGN.md's oracle-boundary discussion.
///
/// On a program that trips no tracker, the outcome is identical to
/// [`run`] with the same fuel.
pub fn run_shadow_slots(program: &Program, fuel: u64) -> Outcome {
    let mut slots = Slots {
        registers: Registers::at_load(program),
        frames: vec![STACK_TOP],
        defined: BTreeSet::new(),
    };
    drive(program, fuel, &mut slots)
}

spike_isa::analysis_struct! {
    /// Dynamic execution statistics, gathered by [`run_profiled`].
    ///
    /// `call_overhead_steps` counts the instructions that exist only to
    /// maintain the calling convention: calls and returns themselves, frame
    /// pointer adjustment, and saves/restores of `ra` and callee-saved
    /// registers through the stack. The paper's introduction cites call
    /// overhead of up to 16% of execution time as the motivation for the
    /// Figure 1(d) optimization; this profile measures how much of it the
    /// optimizer removed.
    ///
    /// Field order is the counter part of the `spikprof` payload layout
    /// (`spike-profile` encodes these fields in declaration order).
    #[derive(Clone, PartialEq, Eq, Debug, Default)]
    pub struct ExecutionProfile {
        /// Instructions executed per routine, indexed by routine id.
        pub steps_per_routine: Vec<u64>,
        /// Times each routine was entered through a call (plus one for the
        /// entry routine's initial activation), indexed by routine id.
        pub entries_per_routine: Vec<u64>,
        /// Calls executed (`bsr` + `jsr`).
        pub calls: u64,
        /// Calling-convention maintenance instructions executed (see type
        /// docs).
        pub call_overhead_steps: u64,
        /// Total instructions executed.
        pub total_steps: u64,
        /// Lowest code address; `insn_counts[addr - code_base]` is the
        /// execution count of the instruction at `addr`.
        pub code_base: u32,
        /// Per-instruction execution counts over the whole code range
        /// (block counts are the counts at block leaders).
        pub insn_counts: Vec<u64>,
        /// Control-transfer edge counts: `(source pc, destination pc) →
        /// times taken`, recorded for branches (both outcomes), jumps,
        /// calls, and returns. A `ret` from the entry activation records its
        /// edge to [`EXIT_ADDR`].
        pub edges: BTreeMap<(u32, u32), u64>,
    }
}

impl ExecutionProfile {
    /// Call overhead as a fraction of executed instructions.
    pub fn overhead_fraction(&self) -> f64 {
        if self.total_steps == 0 {
            0.0
        } else {
            self.call_overhead_steps as f64 / self.total_steps as f64
        }
    }

    /// Execution count of the instruction at `addr` (0 outside the
    /// profiled code range).
    pub fn count_at(&self, addr: u32) -> u64 {
        addr.checked_sub(self.code_base)
            .and_then(|off| self.insn_counts.get(off as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Times the control-transfer edge `src → dst` was taken.
    pub fn edge(&self, src: u32, dst: u32) -> u64 {
        self.edges.get(&(src, dst)).copied().unwrap_or(0)
    }

    /// Fraction of all executed instructions spent in routine `index`
    /// (0.0 when nothing ran).
    pub fn routine_fraction(&self, index: usize) -> f64 {
        let steps = self.steps_per_routine.get(index).copied().unwrap_or(0);
        if self.total_steps == 0 {
            0.0
        } else {
            steps as f64 / self.total_steps as f64
        }
    }
}

/// The counters of [`run_profiled`].
struct Counts<'p> {
    program: &'p Program,
    profile: ExecutionProfile,
    callee_saved: RegSet,
}

impl Hook for Counts<'_> {
    fn before(&mut self, m: &Machine, insn: Instruction) -> Result<(), Fault> {
        let (pc, profile) = (m.pc, &mut self.profile);
        if let Some(rid) = self.program.routine_containing(pc) {
            profile.steps_per_routine[rid.index()] += 1;
        }
        profile.total_steps += 1;
        profile.insn_counts[(pc - profile.code_base) as usize] += 1;
        let overhead = match insn {
            Instruction::Bsr { .. } | Instruction::Jsr { .. } => {
                profile.calls += 1;
                true
            }
            Instruction::Ret { .. } => true,
            Instruction::Lda { rd: Reg::SP, base: Reg::SP, .. } => true,
            Instruction::Store { rs, base: Reg::SP, .. } => {
                rs == Reg::RA || self.callee_saved.contains(rs)
            }
            Instruction::Load { rd, base: Reg::SP, .. } => {
                rd == Reg::RA || self.callee_saved.contains(rd)
            }
            _ => false,
        };
        profile.call_overhead_steps += u64::from(overhead);
        Ok(())
    }

    /// Records the control-transfer edge the step took. The fall-through
    /// of a conditional branch is an edge too; plain straight-line flow
    /// is not. A `halt` stops the run and records nothing.
    fn after(&mut self, m: &Machine, pc: u32, insn: Instruction) {
        if insn.is_terminator() {
            *self.profile.edges.entry((pc, m.pc)).or_insert(0) += 1;
            if insn.is_call() {
                if let Some(callee) = self.program.routine_containing(m.pc) {
                    self.profile.entries_per_routine[callee.index()] += 1;
                }
            }
        }
    }
}

/// Runs `program` and gathers an [`ExecutionProfile`] alongside the
/// outcome.
///
/// Instrumentation never changes the run: the outcome — output, step
/// total, and the fuel boundary — is identical to [`run`] with the same
/// budget (property-tested in `tests/prop_pgo.rs`).
pub fn run_profiled(program: &Program, fuel: u64) -> (Outcome, ExecutionProfile) {
    let code_base = program.routines().first().map(|r| r.addr()).unwrap_or(0);
    let code_end = program.routines().last().map(|r| r.end_addr()).unwrap_or(code_base);
    let mut counts = Counts {
        program,
        profile: ExecutionProfile {
            steps_per_routine: vec![0; program.routines().len()],
            entries_per_routine: vec![0; program.routines().len()],
            code_base,
            insn_counts: vec![0; (code_end - code_base) as usize],
            ..ExecutionProfile::default()
        },
        callee_saved: spike_isa::CallingStandard::alpha_nt().callee_saved(),
    };
    counts.profile.entries_per_routine[program.entry().index()] += 1;
    let outcome = drive(program, fuel, &mut counts);
    (outcome, counts.profile)
}

/// Runs `program` until it has emitted `k` output values, returning the
/// number of instructions that took. `None` if the run halted, faulted,
/// or exhausted `fuel` first — the program never produced `k` values.
///
/// This is the dynamic-instruction metric for non-terminating benchmark
/// profiles: two program variants are compared by the work each needs to
/// produce the same observable prefix.
pub fn steps_to_output(program: &Program, fuel: u64, k: usize) -> Option<u64> {
    let mut m = Machine::new(program);
    while m.output.len() < k {
        if m.steps >= fuel || m.step(program).is_some() {
            return None;
        }
    }
    Some(m.steps)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::BranchCond;
    use spike_program::ProgramBuilder;

    fn output_of(b: &ProgramBuilder) -> Vec<i64> {
        let p = b.build().unwrap();
        match run(&p, 100_000) {
            Outcome::Halted { output, .. } => output,
            other => panic!("program did not halt: {other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_output() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T0, Reg::ZERO, 6)
            .lda(Reg::T1, Reg::ZERO, 7)
            .op(AluOp::Mul, Reg::T0, Reg::T1, Reg::V0)
            .put_int()
            .halt();
        assert_eq!(output_of(&b), vec![42]);
    }

    #[test]
    fn loop_counts_down() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::A0, Reg::ZERO, 3)
            .label("top")
            .copy(Reg::A0, Reg::V0)
            .put_int()
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .halt();
        assert_eq!(output_of(&b), vec![3, 2, 1]);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new();
        b.routine("main").lda(Reg::A0, Reg::ZERO, 20).call("inc").put_int().halt();
        b.routine("inc").op_imm(AluOp::Add, Reg::A0, 1, Reg::V0).ret();
        assert_eq!(output_of(&b), vec![21]);
    }

    #[test]
    fn nested_calls_save_ra_on_stack() {
        let mut b = ProgramBuilder::new();
        b.routine("main").lda(Reg::A0, Reg::ZERO, 5).call("outer").put_int().halt();
        b.routine("outer")
            .lda(Reg::SP, Reg::SP, -8)
            .store(Reg::RA, Reg::SP, 0)
            .call("inner")
            .load(Reg::RA, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 8)
            .op_imm(AluOp::Add, Reg::V0, 1, Reg::V0)
            .ret();
        b.routine("inner").op(AluOp::Add, Reg::A0, Reg::A0, Reg::V0).ret();
        assert_eq!(output_of(&b), vec![11]);
    }

    #[test]
    fn memory_round_trips() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T0, Reg::ZERO, 99)
            .store(Reg::T0, Reg::SP, -16)
            .load(Reg::V0, Reg::SP, -16)
            .put_int()
            .halt();
        assert_eq!(output_of(&b), vec![99]);
    }

    #[test]
    fn ldl_truncates_to_32_bits() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T0, Reg::ZERO, 1)
            .lda(Reg::T1, Reg::ZERO, 33)
            .op(AluOp::Sll, Reg::T0, Reg::T1, Reg::T0) // bit 33: above 32-bit range
            .op_imm(AluOp::Add, Reg::T0, 7, Reg::T0)
            .insn(Instruction::Store { width: MemWidth::L, rs: Reg::T0, base: Reg::SP, disp: 0 })
            .insn(Instruction::Load { width: MemWidth::L, rd: Reg::V0, base: Reg::SP, disp: 0 })
            .put_int()
            .halt();
        assert_eq!(output_of(&b), vec![7]);
    }

    #[test]
    fn cmov_semantics() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T0, Reg::ZERO, 0) // condition: zero
            .lda(Reg::T1, Reg::ZERO, 5)
            .lda(Reg::V0, Reg::ZERO, 1)
            .op(AluOp::CmovEq, Reg::T0, Reg::T1, Reg::V0) // taken: v0 = 5
            .put_int()
            .op(AluOp::CmovNe, Reg::T0, Reg::ZERO, Reg::V0) // not taken
            .put_int()
            .halt();
        assert_eq!(output_of(&b), vec![5, 5]);
    }

    #[test]
    fn indirect_jump_through_register() {
        // Compute a label's address into t0 and jmp through it.
        let target = spike_program::BASE_ADDR as i16 + 3;
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T0, Reg::ZERO, target)
            .insn(Instruction::Jmp { base: Reg::T0 })
            .put_int() // skipped
            .lda(Reg::V0, Reg::ZERO, 77) // the jmp target
            .put_int()
            .halt();
        assert_eq!(output_of(&b), vec![77]);
    }

    #[test]
    fn indirect_call_through_register() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::A0, Reg::ZERO, 30)
            .lda(Reg::PV, Reg::ZERO, 0) // patched below
            .jsr_known(Reg::PV, &["callee"])
            .put_int()
            .halt();
        b.routine("callee").op_imm(AluOp::Add, Reg::A0, 3, Reg::V0).ret();
        // Resolve callee's address and patch the lda displacement.
        let p = b.build().unwrap();
        let callee_addr = p.routine(p.routine_by_name("callee").unwrap()).addr() as i16;
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::A0, Reg::ZERO, 30)
            .lda(Reg::PV, Reg::ZERO, callee_addr)
            .jsr_known(Reg::PV, &["callee"])
            .put_int()
            .halt();
        b.routine("callee").op_imm(AluOp::Add, Reg::A0, 3, Reg::V0).ret();
        assert_eq!(output_of(&b), vec![33]);
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let mut b = ProgramBuilder::new();
        b.routine("main").label("spin").br("spin");
        let p = b.build().unwrap();
        assert!(matches!(run(&p, 100), Outcome::OutOfFuel { .. }));
    }

    #[test]
    fn bad_pc_faults() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T0, Reg::ZERO, 5) // not a code address
            .insn(Instruction::Jmp { base: Reg::T0 })
            .halt();
        let p = b.build().unwrap();
        assert_eq!(run(&p, 100), Outcome::Fault(Fault::BadPc(5)));
    }

    #[test]
    fn entry_routine_returning_to_loader_halts() {
        let mut b = ProgramBuilder::new();
        b.routine("main").lda(Reg::V0, Reg::ZERO, 1).put_int().ret();
        let p = b.build().unwrap();
        match run(&p, 100) {
            Outcome::Halted { output, .. } => assert_eq!(output, vec![1]),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn zero_register_writes_are_discarded() {
        let mut b = ProgramBuilder::new();
        b.routine("main").lda(Reg::ZERO, Reg::ZERO, 7).copy(Reg::ZERO, Reg::V0).put_int().halt();
        assert_eq!(output_of(&b), vec![0]);
    }

    #[test]
    fn profiled_run_matches_plain_run() {
        let mut b = ProgramBuilder::new();
        b.routine("main").lda(Reg::A0, Reg::ZERO, 3).call("work").put_int().halt();
        b.routine("work")
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::RA, Reg::SP, 0)
            .op(AluOp::Add, Reg::A0, Reg::A0, Reg::V0)
            .load(Reg::RA, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        let p = b.build().unwrap();
        let (outcome, profile) = run_profiled(&p, 1_000);
        assert_eq!(outcome, run(&p, 1_000));
        assert_eq!(profile.calls, 1);
        // bsr + ret + 2 sp adjusts + ra save + ra reload = 6 overhead steps.
        assert_eq!(profile.call_overhead_steps, 6);
        assert_eq!(profile.total_steps, 10);
        let work = p.routine_by_name("work").unwrap();
        assert_eq!(profile.steps_per_routine[work.index()], 6);
        assert!(profile.overhead_fraction() > 0.5);
    }

    #[test]
    fn profile_counts_callee_saved_traffic() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .store(Reg::S0, Reg::SP, -8) // callee-saved save: overhead
            .store(Reg::T0, Reg::SP, -16) // plain spill: not call overhead
            .load(Reg::S0, Reg::SP, -8)
            .halt();
        let p = b.build().unwrap();
        let (_, profile) = run_profiled(&p, 100);
        assert_eq!(profile.call_overhead_steps, 2);
        assert_eq!(profile.calls, 0);
    }

    #[test]
    fn profiled_run_respects_fuel() {
        let mut b = ProgramBuilder::new();
        b.routine("main").label("spin").br("spin");
        let p = b.build().unwrap();
        let (outcome, profile) = run_profiled(&p, 50);
        assert!(matches!(outcome, Outcome::OutOfFuel { .. }));
        assert_eq!(profile.total_steps, 50);
    }

    #[test]
    fn shadow_run_matches_plain_run_on_clean_programs() {
        let mut b = ProgramBuilder::new();
        b.routine("main").lda(Reg::A0, Reg::ZERO, 20).call("inc").put_int().halt();
        b.routine("inc").op_imm(AluOp::Add, Reg::A0, 1, Reg::V0).ret();
        let p = b.build().unwrap();
        assert_eq!(run_shadow(&p, 1_000), run(&p, 1_000));
    }

    #[test]
    fn shadow_run_traps_uninitialized_read() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .op_imm(AluOp::Add, Reg::T0, 1, Reg::V0) // t0 was never written
            .put_int()
            .halt();
        let p = b.build().unwrap();
        let pc = p.routine(p.entry()).addr();
        assert_eq!(
            run_shadow(&p, 100),
            Outcome::Fault(Fault::UninitRead { pc, routine: "main".into(), reg: Reg::T0 })
        );
        // The plain interpreter is oblivious.
        assert!(matches!(run(&p, 100), Outcome::Halted { .. }));
    }

    /// Fault messages must name the routine, not just the raw pc: a lint
    /// oracle failure on a 400-routine image is otherwise unactionable.
    #[test]
    fn fault_display_includes_routine_name() {
        let f = Fault::UninitRead { pc: 0x412, routine: "quantize".into(), reg: Reg::T0 };
        assert_eq!(f.to_string(), "read of uninitialized register t0 at 0x412 in quantize");
        let f = Fault::UninitStackRead { pc: 0x413, routine: "quantize".into(), offset: -16 };
        assert_eq!(
            f.to_string(),
            "read of uninitialized stack slot at entry-SP-16 at 0x413 in quantize"
        );
        let f = Fault::OutOfFrame { pc: 0x414, routine: "quantize".into(), addr: 0x10_0008 };
        assert_eq!(
            f.to_string(),
            "stack access at 0x414 in quantize touches 0x100008 outside the frame"
        );
    }

    #[test]
    fn slots_run_matches_plain_run_on_disciplined_programs() {
        // A full prologue/epilogue discipline: allocate, save, store
        // before load, deallocate. Nested one call deep so the shadow
        // frame stack pushes and pops.
        let mut b = ProgramBuilder::new();
        b.routine("main").lda(Reg::A0, Reg::ZERO, 5).call("outer").put_int().halt();
        b.routine("outer")
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::RA, Reg::SP, 0)
            .store(Reg::A0, Reg::SP, 8)
            .call("inner")
            .load(Reg::T0, Reg::SP, 8)
            .op(AluOp::Add, Reg::V0, Reg::T0, Reg::V0)
            .load(Reg::RA, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        b.routine("inner").op(AluOp::Add, Reg::A0, Reg::A0, Reg::V0).ret();
        let p = b.build().unwrap();
        assert_eq!(run_shadow_slots(&p, 1_000), run(&p, 1_000));
        match run_shadow_slots(&p, 1_000) {
            Outcome::Halted { output, .. } => assert_eq!(output, vec![15]),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn slots_run_traps_uninit_stack_read() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::SP, Reg::SP, -16)
            .load(Reg::V0, Reg::SP, 8) // never stored
            .put_int()
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let p = b.build().unwrap();
        let pc = p.routine(p.entry()).addr() + 1;
        assert_eq!(
            run_shadow_slots(&p, 100),
            Outcome::Fault(Fault::UninitStackRead { pc, routine: "main".into(), offset: -8 })
        );
        // The register-only shadow mode is oblivious: loads define.
        assert!(matches!(run_shadow(&p, 100), Outcome::Halted { .. }));
    }

    #[test]
    fn slots_run_traps_out_of_frame_access() {
        // A store above the entry SP lands in the caller's frame.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::ZERO, Reg::SP, 24) // entry_sp + 8
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let p = b.build().unwrap();
        let pc = p.routine(p.entry()).addr() + 1;
        assert_eq!(
            run_shadow_slots(&p, 100),
            Outcome::Fault(Fault::OutOfFrame { pc, routine: "main".into(), addr: STACK_TOP + 8 })
        );
        // So is a red-zone access below the current SP.
        let mut b = ProgramBuilder::new();
        b.routine("main").store(Reg::ZERO, Reg::SP, -8).halt();
        let p = b.build().unwrap();
        assert!(matches!(run_shadow_slots(&p, 100), Outcome::Fault(Fault::OutOfFrame { .. })));
    }

    #[test]
    fn slots_run_undefines_on_frame_reuse() {
        // Deallocate a frame with a defined slot, then reallocate the
        // same bytes: the stale definedness must not survive.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::ZERO, Reg::SP, 8)
            .lda(Reg::SP, Reg::SP, 16)
            .lda(Reg::SP, Reg::SP, -16)
            .load(Reg::V0, Reg::SP, 8) // same address, new frame: undefined
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let p = b.build().unwrap();
        assert!(matches!(
            run_shadow_slots(&p, 100),
            Outcome::Fault(Fault::UninitStackRead { offset: -8, .. })
        ));
    }

    #[test]
    fn shadow_run_permits_save_restore_of_undefined_register() {
        // Spilling a callee-saved register the caller never defined is the
        // standard prologue idiom and must not trap; only a *value* use of
        // the undefined register does.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .store(Reg::S0, Reg::SP, -8) // s0 undefined: store data is exempt
            .load(Reg::S0, Reg::SP, -8) // load defines s0
            .copy(Reg::S0, Reg::V0) // now a legal value use
            .put_int()
            .halt();
        let p = b.build().unwrap();
        assert!(matches!(run_shadow(&p, 100), Outcome::Halted { .. }));
    }

    #[test]
    fn shadow_run_traps_undefined_branch_condition() {
        let mut b = ProgramBuilder::new();
        b.routine("main").cond(BranchCond::Eq, Reg::T2, "out").label("out").halt();
        let p = b.build().unwrap();
        match run_shadow(&p, 100) {
            Outcome::Fault(Fault::UninitRead { reg, .. }) => assert_eq!(reg, Reg::T2),
            other => panic!("expected uninit trap, got {other:?}"),
        }
    }

    #[test]
    fn fp_operations_compute() {
        // 2.0 stored via integer bit pattern is awkward; build 0.0 + 0.0
        // and compare equal → 2.0 truth value → compare again.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .insn(Instruction::FpOperate {
                op: FpOp::CmpEq,
                fa: Reg::FZERO,
                fb: Reg::FZERO,
                fc: Reg::fp(0),
            })
            // f0 == 2.0 now; f0 < f0 → 0.0
            .insn(Instruction::FpOperate {
                op: FpOp::CmpLt,
                fa: Reg::fp(0),
                fb: Reg::fp(0),
                fc: Reg::fp(1),
            })
            .halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p);
        m.run(&p, 100);
        assert_eq!(f64::from_bits(m.reg(Reg::fp(0)) as u64), 2.0);
        assert_eq!(f64::from_bits(m.reg(Reg::fp(1)) as u64), 0.0);
    }
}
