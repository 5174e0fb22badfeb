//! Generator for *executable* synthetic programs.
//!
//! Unlike the profile generator (which targets shape statistics and is
//! never run), these programs are guaranteed to terminate and to follow
//! the calling standard, so they can be executed by `spike-sim` before and
//! after optimization to check that summary-driven transformations
//! preserve observable behaviour.
//!
//! Guarantees:
//!
//! * the call graph is a DAG (routine `i` calls only `j > i`), loops run a
//!   bounded count held in a callee-saved register, and every multiway
//!   branch has a computed in-range index — execution always halts;
//! * non-leaf routines save and restore `ra` (and any callee-saved
//!   registers they use) with real frames;
//! * a register is read only if it provably holds a value: arguments at
//!   entry, results after calls, and explicit writes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spike_isa::{AluOp, BranchCond, Reg, RegSet};
use spike_program::{BuildError, Program, ProgramBuilder, RoutineBuilder};

const TEMPS: [Reg; 6] = [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::int(5), Reg::int(6)];
const COUNTERS: [Reg; 3] = [Reg::S0, Reg::S1, Reg::S2];

/// A temporary no generated instruction ever writes — reading it is a
/// guaranteed uninitialized-register defect.
const NEVER_WRITTEN_TEMP: Reg = Reg::int(7); // t6
/// A callee-saved register outside [`COUNTERS`] — writing it without a
/// save/restore is a guaranteed calling-standard violation.
const UNSAVED_CALLEE_SAVED: Reg = Reg::int(12); // s3

/// The kind of defect [`generate_executable_with_defect`] plants.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum DefectKind {
    /// Drop an initialization: the entry routine reads a register no
    /// instruction in the program ever writes.
    UninitRead,
    /// Overwrite a callee-saved register on a path to a routine's exit
    /// without saving and restoring it.
    CalleeSavedClobber,
    /// Read a freshly allocated stack slot no instruction ever stores —
    /// the memory analogue of [`DefectKind::UninitRead`].
    UninitStackSlotRead,
    /// Store above the entry stack pointer, into memory belonging to the
    /// caller's frame.
    OutOfFrameStore,
}

/// Where and what [`generate_executable_with_defect`] injected, so tests
/// can check the checker flags exactly this defect.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InjectedDefect {
    /// The planted defect kind.
    pub kind: DefectKind,
    /// Name of the routine holding the defective instruction.
    pub routine: String,
    /// The register the defect reads (uninit) or clobbers (callee-saved).
    pub reg: Reg,
    /// For stack defects, the entry-SP-relative byte offset of the slot
    /// the defective access touches; `None` for register defects.
    pub slot: Option<i64>,
}

#[derive(Clone, Debug)]
enum Stmt {
    Arith,
    PutInt,
    Call(usize),
    If(Vec<Stmt>),
    Loop(u8, Vec<Stmt>),
    Switch(Vec<Vec<Stmt>>),
}

fn gen_stmts(
    rng: &mut StdRng,
    routine: usize,
    n_routines: usize,
    budget: &mut usize,
    depth: usize,
) -> Vec<Stmt> {
    let mut out = Vec::new();
    let len = rng.gen_range(1..=4);
    for _ in 0..len {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        let can_call = routine + 1 < n_routines;
        let can_nest = depth < 2 && *budget > 2;
        let stmt = match rng.gen_range(0..10) {
            0..=3 => Stmt::Arith,
            4 => Stmt::PutInt,
            5 | 6 if can_call => Stmt::Call(rng.gen_range(routine + 1..n_routines)),
            7 if can_nest => Stmt::If(gen_stmts(rng, routine, n_routines, budget, depth + 1)),
            8 if can_nest => Stmt::Loop(
                rng.gen_range(1..=3),
                gen_stmts(rng, routine, n_routines, budget, depth + 1),
            ),
            9 if can_nest => {
                let k = rng.gen_range(2..=3);
                Stmt::Switch(
                    (0..k)
                        .map(|_| gen_stmts(rng, routine, n_routines, budget, depth + 1))
                        .collect(),
                )
            }
            _ => Stmt::Arith,
        };
        out.push(stmt);
    }
    if out.is_empty() {
        out.push(Stmt::Arith);
    }
    out
}

fn uses_calls(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Call(_) => true,
        Stmt::If(b) | Stmt::Loop(_, b) => uses_calls(b),
        Stmt::Switch(arms) => arms.iter().any(|a| uses_calls(a)),
        _ => false,
    })
}

fn count_loops(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::If(b) => count_loops(b),
            Stmt::Loop(_, b) => 1 + count_loops(b),
            Stmt::Switch(arms) => arms.iter().map(|a| count_loops(a)).sum(),
            _ => 0,
        })
        .sum()
}

struct Ctx<'a, 'b> {
    r: &'a mut RoutineBuilder,
    rng: &'b mut StdRng,
    /// Registers currently holding a defined value.
    valid: RegSet,
    /// Callee-saved counters not yet claimed by an enclosing loop.
    free_counters: Vec<Reg>,
    labels: usize,
    /// Frame offsets available for compiler-style spills around calls
    /// (Figure 1(c) patterns); 0 when the routine has no frame.
    spill_slots: Vec<i16>,
    next_spill: usize,
}

impl Ctx<'_, '_> {
    fn fresh(&mut self) -> String {
        self.labels += 1;
        format!("l{}", self.labels)
    }

    /// A register guaranteed to hold a value; materializes a constant if
    /// nothing is valid.
    fn source(&mut self) -> Reg {
        // SP is always valid but never a data source: arithmetic reading
        // the stack pointer into a general register is an SP leak, which
        // (rightly) makes the stack-slot analysis treat the whole frame
        // as escaped and masks every stack check on the routine.
        let candidates: Vec<Reg> =
            self.valid.iter().filter(|r| !r.is_fp() && *r != Reg::SP).collect();
        if candidates.is_empty() || self.rng.gen_bool(0.2) {
            let d = TEMPS[self.rng.gen_range(0..TEMPS.len())];
            let v = self.rng.gen_range(-50..=50i16);
            self.r.lda(d, Reg::ZERO, v);
            self.valid.insert(d);
            d
        } else {
            candidates[self.rng.gen_range(0..candidates.len())]
        }
    }

    fn dest(&mut self) -> Reg {
        let d = if self.rng.gen_bool(0.15) {
            Reg::V0
        } else {
            TEMPS[self.rng.gen_range(0..TEMPS.len())]
        };
        self.valid.insert(d);
        d
    }

    fn emit(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::Arith => {
                    let (a, b) = (self.source(), self.source());
                    let d = self.dest();
                    let op = [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::And, AluOp::Mul]
                        [self.rng.gen_range(0..5)];
                    self.r.op(op, a, b, d);
                }
                Stmt::PutInt => {
                    if !self.valid.contains(Reg::V0) {
                        let s = self.source();
                        self.r.copy(s, Reg::V0);
                        self.valid.insert(Reg::V0);
                    }
                    self.r.put_int();
                }
                Stmt::Call(callee) => {
                    // Arguments, then the call; afterwards only the result,
                    // the stack pointer and callee-saved values survive.
                    // Both argument registers are always written: callees
                    // assume `a0`/`a1` hold values at entry, so every call
                    // site must justify that assumption.
                    for a in [Reg::A0, Reg::A1] {
                        let s = self.source();
                        self.r.copy(s, a);
                        self.valid.insert(a);
                    }
                    // Compiler-style spill (Figure 1(c)): keep a live
                    // temporary across the call through a frame slot. If
                    // the callee happens not to kill the register, the
                    // optimizer can delete both halves.
                    let spill = if !self.spill_slots.is_empty() && self.rng.gen_bool(0.4) {
                        let live: Vec<Reg> =
                            TEMPS.iter().copied().filter(|t| self.valid.contains(*t)).collect();
                        if live.is_empty() {
                            None
                        } else {
                            let t = live[self.rng.gen_range(0..live.len())];
                            let slot = self.spill_slots[self.next_spill % self.spill_slots.len()];
                            self.next_spill += 1;
                            self.r.store(t, Reg::SP, slot);
                            Some((t, slot))
                        }
                    } else {
                        None
                    };
                    if self.rng.gen_bool(0.2) {
                        // Indirect call with a known target set.
                        let name = format!("x{callee}");
                        self.r.lda_routine(Reg::PV, &name);
                        self.r.jsr_known(Reg::PV, &[&name]);
                    } else {
                        self.r.call(&format!("x{callee}"));
                    }
                    let saved: RegSet = COUNTERS.iter().copied().collect();
                    self.valid &= saved | RegSet::of(&[Reg::SP, Reg::FP]);
                    self.valid.insert(Reg::V0);
                    if let Some((t, slot)) = spill {
                        self.r.load(t, Reg::SP, slot);
                        self.valid.insert(t);
                    }
                }
                Stmt::If(body) => {
                    let skip = self.fresh();
                    let c = self.source();
                    let cond = [BranchCond::Eq, BranchCond::Ne, BranchCond::Lt, BranchCond::Ge]
                        [self.rng.gen_range(0..4)];
                    self.r.cond(cond, c, &skip);
                    let valid_before = self.valid;
                    self.emit(body);
                    self.r.label(&skip);
                    // Writes inside the skipped region may not have run.
                    self.valid = valid_before;
                }
                Stmt::Loop(n, body) => {
                    let Some(counter) = self.free_counters.pop() else {
                        // No counter register free: run the body once.
                        self.emit(body);
                        continue;
                    };
                    let top = self.fresh();
                    self.r.lda(counter, Reg::ZERO, *n as i16);
                    self.valid.insert(counter);
                    self.r.label(&top);
                    let valid_before = self.valid;
                    self.emit(body);
                    // Only values valid on every iteration entry survive
                    // the back edge.
                    self.valid &= valid_before;
                    self.r.op_imm(AluOp::Sub, counter, 1, counter);
                    self.r.cond(BranchCond::Ne, counter, &top);
                    self.free_counters.push(counter);
                }
                Stmt::Switch(arms) => {
                    let k = arms.len();
                    let join = self.fresh();
                    let cases: Vec<String> = (0..k).map(|_| self.fresh()).collect();
                    // idx = source & (k-1) for k a power of two, else
                    // clamp via compare+cmov; here k ∈ {2,3}.
                    let x = self.source();
                    let idx = Reg::int(22); // t8: scratch for the selector
                    if k == 2 {
                        self.r.op_imm(AluOp::And, x, 1, idx);
                    } else {
                        // idx = x & 3; if idx >= k then idx = 0.
                        self.r.op_imm(AluOp::And, x, 3, idx);
                        let cmp = Reg::int(23);
                        self.r.op_imm(AluOp::CmpLt, idx, k as u8, cmp);
                        self.r.op(AluOp::CmovEq, cmp, Reg::ZERO, idx);
                    }
                    // Select the case address: start with case 0, then
                    // conditionally move each later case's address in.
                    let addr = Reg::int(24); // t10
                    let scratch = Reg::int(25); // t11
                    self.r.lda_label(addr, &cases[0]);
                    for (ci, c) in cases.iter().enumerate().skip(1) {
                        self.r.lda_label(scratch, c);
                        let cmp = Reg::int(23);
                        self.r.op_imm(AluOp::CmpEq, idx, ci as u8, cmp);
                        self.r.op(AluOp::CmovNe, cmp, scratch, addr);
                    }
                    let crefs: Vec<&str> = cases.iter().map(String::as_str).collect();
                    self.r.switch(addr, &crefs);
                    let valid_before = self.valid;
                    let mut valid_join = RegSet::ALL;
                    for (ci, arm) in arms.iter().enumerate() {
                        self.r.label(&cases[ci]);
                        self.valid = valid_before;
                        self.emit(arm);
                        valid_join &= self.valid;
                        if ci + 1 < k {
                            self.r.br(&join);
                        }
                    }
                    self.r.label(&join);
                    self.valid = valid_join;
                }
            }
        }
    }
}

/// Generates a terminating, calling-standard-conformant program with
/// roughly `n_routines` routines, deterministically from `seed`.
///
/// The entry routine is `main`; the others are named `x1`, `x2`, ….
///
/// # Panics
///
/// Panics where [`try_generate_executable`] returns an error.
pub fn generate_executable(seed: u64, n_routines: usize) -> Program {
    try_generate_executable(seed, n_routines)
        .unwrap_or_else(|e| panic!("generated executable must be valid: {e}"))
}

/// [`generate_executable`], returning the builder's error instead of
/// panicking: [`BuildError::NoRoutines`] when `n_routines` is zero, and
/// [`BuildError::DisplacementOverflow`] when the program outgrows a
/// 21-bit branch displacement (from about 2000 routines).
pub fn try_generate_executable(seed: u64, n_routines: usize) -> Result<Program, BuildError> {
    if n_routines == 0 {
        return Err(BuildError::NoRoutines);
    }
    Ok(generate_inner(seed, n_routines, None)?.0)
}

/// Like [`generate_executable`], but plants one seeded defect of the given
/// kind and reports where.
///
/// * [`DefectKind::UninitRead`] adds, on the entry routine's always-taken
///   final path, a read of a register nothing ever writes — the shadow
///   simulator traps on it and the checker must flag it.
/// * [`DefectKind::CalleeSavedClobber`] writes an unsaved callee-saved
///   register in one non-entry routine. Execution is unaffected (nothing
///   reads that register), which is exactly why only a static check can
///   catch it.
/// * [`DefectKind::UninitStackSlotRead`] dips the entry routine's stack
///   pointer on its final path and loads from a slot in the dip that no
///   store ever wrote — the per-slot shadow simulator traps on it.
/// * [`DefectKind::OutOfFrameStore`] stores 8 bytes above the entry
///   routine's entry SP — memory the frame model places in the caller.
///
/// # Panics
///
/// Panics if `n_routines` is zero, or below two for
/// [`DefectKind::CalleeSavedClobber`] (the defect needs a returning
/// routine), or where [`try_generate_executable`] returns an error.
pub fn generate_executable_with_defect(
    seed: u64,
    n_routines: usize,
    kind: DefectKind,
) -> (Program, InjectedDefect) {
    let (program, defect) = generate_inner(seed, n_routines, Some(kind))
        .unwrap_or_else(|e| panic!("generated executable must be valid: {e}"));
    (program, defect.expect("defect was injected"))
}

fn generate_inner(
    seed: u64,
    n_routines: usize,
    kind: Option<DefectKind>,
) -> Result<(Program, Option<InjectedDefect>), BuildError> {
    assert!(n_routines > 0, "need at least the entry routine");
    // The clobber goes in a returning (non-entry) routine chosen from the
    // seed, so different seeds exercise different call-graph positions.
    let clobber_target = match kind {
        Some(DefectKind::CalleeSavedClobber) => {
            assert!(n_routines >= 2, "a callee-saved clobber needs a non-entry routine");
            1 + (seed as usize) % (n_routines - 1)
        }
        _ => usize::MAX,
    };
    let mut defect = None;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new();

    for i in 0..n_routines {
        let name = if i == 0 { "main".to_string() } else { format!("x{i}") };
        let mut budget = rng.gen_range(4..=12);
        let mut stmts = gen_stmts(&mut rng, i, n_routines, &mut budget, 0);
        if i == 0 {
            // Drive the whole program several times: gives the dynamic
            // measurements enough executed instructions to be stable
            // without risking exponential blow-up deeper in the DAG.
            stmts = vec![Stmt::Loop(rng.gen_range(2..=4), stmts)];
        }

        let n_loops = count_loops(&stmts).min(COUNTERS.len());
        let saves_ra = uses_calls(&stmts);
        let used_counters: Vec<Reg> = COUNTERS[..n_loops].to_vec();
        // Frame layout: [0] ra, [8..] saved counters, then spill slots.
        let spill_base = 8 + 8 * used_counters.len() as i16;
        let spill_area: i16 = if saves_ra { 32 } else { 0 };
        let frame: i16 = if saves_ra || !used_counters.is_empty() {
            (spill_base + spill_area + 15) & !15
        } else {
            0
        };
        let spill_slots: Vec<i16> = (0..spill_area / 8).map(|i| spill_base + 8 * i).collect();

        let r = b.routine(&name);
        if frame > 0 {
            r.lda(Reg::SP, Reg::SP, -frame);
            if saves_ra {
                r.store(Reg::RA, Reg::SP, 0);
            }
            for (ci, &c) in used_counters.iter().enumerate() {
                r.store(c, Reg::SP, 8 + 8 * ci as i16);
            }
        }
        if i == clobber_target {
            // The planted defect: overwrite a callee-saved register the
            // prologue did not save. Every entry-to-exit path runs this.
            r.lda(UNSAVED_CALLEE_SAVED, Reg::ZERO, 7);
            defect = Some(InjectedDefect {
                kind: DefectKind::CalleeSavedClobber,
                routine: name.clone(),
                reg: UNSAVED_CALLEE_SAVED,
                slot: None,
            });
        }

        let mut valid = RegSet::of(&[Reg::SP]);
        if i != 0 {
            valid.insert(Reg::A0);
            valid.insert(Reg::A1);
        }
        let mut ctx = Ctx {
            r,
            rng: &mut rng,
            valid,
            free_counters: used_counters.clone(),
            labels: 0,
            spill_slots,
            next_spill: 0,
        };
        ctx.emit(&stmts);

        // Make sure the result register is defined, then return/halt.
        if !ctx.valid.contains(Reg::V0) {
            let s = ctx.source();
            ctx.r.copy(s, Reg::V0);
        }
        if i == 0 {
            match kind {
                Some(DefectKind::UninitRead) => {
                    // The planted defect: consume a register no instruction
                    // in the program writes, on the once-executed final path.
                    ctx.r.op(AluOp::Add, NEVER_WRITTEN_TEMP, Reg::ZERO, Reg::T0);
                    defect = Some(InjectedDefect {
                        kind: DefectKind::UninitRead,
                        routine: name.clone(),
                        reg: NEVER_WRITTEN_TEMP,
                        slot: None,
                    });
                }
                Some(DefectKind::UninitStackSlotRead) => {
                    // Dip SP below every slot the routine ever stores and
                    // read from the fresh region: a guaranteed uninitialized
                    // stack slot, on the once-executed final path.
                    ctx.r.lda(Reg::SP, Reg::SP, -16);
                    ctx.r.load(Reg::T0, Reg::SP, 8);
                    ctx.r.lda(Reg::SP, Reg::SP, 16);
                    defect = Some(InjectedDefect {
                        kind: DefectKind::UninitStackSlotRead,
                        routine: name.clone(),
                        reg: Reg::T0,
                        slot: Some(-(frame as i64) - 8),
                    });
                }
                Some(DefectKind::OutOfFrameStore) => {
                    // Store above the entry SP: the slot belongs to the
                    // caller's frame (for `main`, to nobody at all).
                    ctx.r.store(Reg::V0, Reg::SP, frame + 8);
                    defect = Some(InjectedDefect {
                        kind: DefectKind::OutOfFrameStore,
                        routine: name.clone(),
                        reg: Reg::V0,
                        slot: Some(8),
                    });
                }
                _ => {}
            }
            ctx.r.put_int();
            ctx.r.halt();
        } else {
            if frame > 0 {
                if saves_ra {
                    ctx.r.load(Reg::RA, Reg::SP, 0);
                }
                for (ci, &c) in used_counters.iter().enumerate() {
                    ctx.r.load(c, Reg::SP, 8 + 8 * ci as i16);
                }
                ctx.r.lda(Reg::SP, Reg::SP, frame);
            }
            ctx.r.ret();
        }
    }

    Ok((b.build()?, defect))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_sim::{run, Outcome};

    #[test]
    fn executables_halt_and_are_deterministic() {
        for seed in 0..30 {
            let p = generate_executable(seed, 5);
            let a = run(&p, 2_000_000);
            let b = run(&p, 2_000_000);
            assert!(matches!(a, Outcome::Halted { .. }), "seed {seed} did not halt: {a:?}");
            assert_eq!(a, b, "seed {seed} nondeterministic");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_executable(1, 4);
        let b = generate_executable(2, 4);
        assert_ne!(a, b);
    }

    #[test]
    fn image_round_trip_preserves_behaviour() {
        for seed in 0..10 {
            let p = generate_executable(seed, 4);
            let loaded = Program::from_image(&p.to_image()).unwrap();
            assert_eq!(run(&p, 2_000_000), run(&loaded, 2_000_000), "seed {seed}");
        }
    }

    #[test]
    fn single_routine_program_works() {
        let p = generate_executable(9, 1);
        assert!(matches!(run(&p, 1_000_000), Outcome::Halted { .. }));
    }

    #[test]
    fn clean_executables_pass_the_shadow_simulator() {
        for seed in 0..30 {
            let p = generate_executable(seed, 5);
            let shadow = spike_sim::run_shadow(&p, 2_000_000);
            assert!(matches!(shadow, Outcome::Halted { .. }), "seed {seed}: {shadow:?}");
            assert_eq!(shadow, run(&p, 2_000_000), "seed {seed}");
        }
    }

    #[test]
    fn injected_uninit_read_traps_in_shadow_mode() {
        for seed in 0..10 {
            let (p, d) = generate_executable_with_defect(seed, 4, DefectKind::UninitRead);
            assert_eq!(d.routine, "main");
            match spike_sim::run_shadow(&p, 2_000_000) {
                Outcome::Fault(spike_sim::Fault::UninitRead { reg, .. }) => {
                    assert_eq!(reg, d.reg, "seed {seed}")
                }
                other => panic!("seed {seed}: expected uninit trap, got {other:?}"),
            }
            // The plain interpreter runs the defective program happily.
            assert!(matches!(run(&p, 2_000_000), Outcome::Halted { .. }));
        }
    }

    #[test]
    fn injected_uninit_slot_read_traps_in_slot_shadow_mode() {
        for seed in 0..10 {
            let (p, d) = generate_executable_with_defect(seed, 4, DefectKind::UninitStackSlotRead);
            assert_eq!(d.routine, "main");
            let slot = d.slot.expect("stack defects carry a slot");
            match spike_sim::run_shadow_slots(&p, 2_000_000) {
                Outcome::Fault(spike_sim::Fault::UninitStackRead { routine, offset, .. }) => {
                    assert_eq!(routine, d.routine, "seed {seed}");
                    assert_eq!(offset, slot, "seed {seed}");
                }
                other => panic!("seed {seed}: expected uninit-slot trap, got {other:?}"),
            }
            // The plain interpreter runs the defective program happily.
            assert!(matches!(run(&p, 2_000_000), Outcome::Halted { .. }));
        }
    }

    #[test]
    fn injected_out_of_frame_store_traps_in_slot_shadow_mode() {
        for seed in 0..10 {
            let (p, d) = generate_executable_with_defect(seed, 4, DefectKind::OutOfFrameStore);
            assert_eq!(d.routine, "main");
            assert_eq!(d.slot, Some(8));
            match spike_sim::run_shadow_slots(&p, 2_000_000) {
                Outcome::Fault(spike_sim::Fault::OutOfFrame { routine, .. }) => {
                    assert_eq!(routine, d.routine, "seed {seed}");
                }
                other => panic!("seed {seed}: expected out-of-frame trap, got {other:?}"),
            }
            assert!(matches!(run(&p, 2_000_000), Outcome::Halted { .. }));
        }
    }

    #[test]
    fn injected_clobber_is_behaviorally_silent() {
        for seed in 0..10 {
            let (p, d) = generate_executable_with_defect(seed, 4, DefectKind::CalleeSavedClobber);
            assert_ne!(d.routine, "main");
            let clean = generate_executable(seed, 4);
            let (a, b) = (run(&p, 2_000_000), run(&clean, 2_000_000));
            let (Outcome::Halted { output: oa, .. }, Outcome::Halted { output: ob, .. }) = (a, b)
            else {
                panic!("seed {seed}: defective or clean program did not halt");
            };
            assert_eq!(oa, ob, "seed {seed}: the clobber must not change observable output");
        }
    }
}
