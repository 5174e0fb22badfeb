//! # spike-baseline
//!
//! Interprocedural dataflow over the **whole-program control-flow graph**,
//! in the style of Srivastava & Wall's OM system (`[Srivastava93]` in the
//! paper). This is the approach the Program Summary Graph is measured
//! against: same two phases, same meet-over-all-valid-paths answers, but
//! computed with per-basic-block dataflow values over every block and arc
//! of the supergraph instead of the compact PSG.
//!
//! Each basic block carries six dataflow sets (`MAY-USE`/`MAY-DEF`/
//! `MUST-DEF`, in and out) plus its `DEF`/`UBD` sets — the memory
//! comparison the paper makes in §4 ("the dataflow information that must
//! be maintained in each basic block is approximately equal to the
//! dataflow information contained in three PSG nodes").
//!
//! The crate exists for two purposes:
//!
//! * **correctness oracle** — `spike-core`'s PSG results must equal the
//!   full-CFG results on every program (tested on hand fixtures and
//!   property-tested over the synthetic generators);
//! * **cost comparator** — Tables 2/5 and Figures 14/15 compare analysis
//!   time and graph size between the two representations.
//!
//! # Example
//!
//! ```
//! use spike_isa::Reg;
//! use spike_program::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! b.routine("main").def(Reg::A0).call("id").put_int().halt();
//! b.routine("id").copy(Reg::A0, Reg::V0).ret();
//! let program = b.build()?;
//!
//! let psg = spike_core::analyze(&program);
//! let full = spike_baseline::analyze_baseline(&program);
//! let id = program.routine_by_name("id").unwrap();
//! assert_eq!(psg.summary.routine(id), &full.summaries[id.index()]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use spike_cfg::{BlockId, CallTarget, Csr, ProgramCfg, RoutineCfg, SupergraphCounts, TermKind};
use spike_core::{saved_restored_registers, AnalysisOptions, RoutineSummary};
use spike_isa::{HeapSize, RegSet};
use spike_program::{Program, RoutineId};

/// Result of the full-CFG analysis.
#[derive(Debug)]
pub struct BaselineAnalysis {
    /// Per-routine summaries, indexed by routine id; field-compatible with
    /// the PSG analysis results.
    pub summaries: Vec<RoutineSummary>,
    /// The supergraph the analysis ran over.
    pub cfg: ProgramCfg,
    /// Supergraph size (Table 5's "Basic Blocks" / "CFG Arcs").
    pub counts: SupergraphCounts,
    /// Stage timings and memory footprint.
    pub stats: BaselineStats,
}

/// Timing and memory of the baseline analysis.
#[derive(Clone, Copy, Debug, Default)]
pub struct BaselineStats {
    /// Time building CFG structure and `DEF`/`UBD` sets.
    pub cfg_build: Duration,
    /// Time for the first dataflow phase.
    pub phase1: Duration,
    /// Time for the second dataflow phase.
    pub phase2: Duration,
    /// Block evaluations in phase 1.
    pub phase1_visits: usize,
    /// Block evaluations in phase 2.
    pub phase2_visits: usize,
    /// Bytes of analysis structures (CFGs + per-block dataflow sets).
    pub memory_bytes: usize,
}

impl BaselineStats {
    /// Total analysis time.
    pub fn total(&self) -> Duration {
        self.cfg_build + self.phase1 + self.phase2
    }
}

/// Dense whole-program block numbering plus the interprocedural dependency
/// wiring the worklists need.
struct Super {
    /// Global id of block 0 of each routine.
    base: Vec<usize>,
    total: usize,
    /// Per routine: callee-saved registers filtered from its summary.
    csr: Vec<RegSet>,
    /// Per routine: global ids of the call blocks that may target it.
    callers: Vec<Vec<usize>>,
    /// Per routine: global ids of the return points of its callers.
    caller_returns: Vec<Vec<usize>>,
    /// Per global block id `b`: call blocks whose return point is `b`
    /// (they read `b`'s dataflow values across the call).
    rt_watch_calls: Vec<Vec<usize>>,
    /// Per global block id `b` (a return point): exit blocks of the
    /// callees that may return to `b` (phase 2 re-seeding).
    rt_watch_exits: Vec<Vec<usize>>,
    /// Per global block id `b`: global ids of its flow predecessors minus
    /// call blocks, whose arc to their return point the supergraph routes
    /// through the callee (the `rt_watch_calls` pushes).
    preds: Csr<u32>,
}

impl Super {
    fn build(program: &Program, cfg: &ProgramCfg, options: &AnalysisOptions) -> Super {
        let n_routines = cfg.cfgs().len();
        let mut base = Vec::with_capacity(n_routines);
        let mut total = 0usize;
        for c in cfg.cfgs() {
            base.push(total);
            total += c.blocks().len();
        }
        let csr = cfg
            .cfgs()
            .iter()
            .map(|c| {
                if options.callee_saved_filter {
                    saved_restored_registers(program, c, &options.calling_standard)
                } else {
                    RegSet::EMPTY
                }
            })
            .collect();

        let mut callers = vec![Vec::new(); n_routines];
        let mut caller_returns = vec![Vec::new(); n_routines];
        let mut rt_watch_calls = vec![Vec::new(); total];
        let mut rt_watch_exits = vec![Vec::new(); total];
        for (ri, c) in cfg.cfgs().iter().enumerate() {
            for (bi, b) in c.blocks().iter().enumerate() {
                let TermKind::Call { target, return_to } = b.term() else {
                    continue;
                };
                let call_gid = base[ri] + bi;
                let rt_gid = return_to.map(|rt| base[ri] + rt.index());
                if let Some(rt) = rt_gid {
                    rt_watch_calls[rt].push(call_gid);
                }
                let mut note = |rid: RoutineId| {
                    callers[rid.index()].push(call_gid);
                    if let Some(rt) = rt_gid {
                        caller_returns[rid.index()].push(rt);
                        for &x in cfg.routine_cfg(rid).exits() {
                            rt_watch_exits[rt].push(base[rid.index()] + x.index());
                        }
                    }
                };
                match target {
                    CallTarget::Direct(rid, _) => note(*rid),
                    CallTarget::IndirectKnown(list) => {
                        for (rid, _) in list {
                            note(*rid);
                        }
                    }
                    CallTarget::IndirectUnknown | CallTarget::IndirectHinted { .. } => {}
                }
            }
        }

        let rows = cfg.cfgs().iter().zip(&base).flat_map(|(c, &b0)| {
            (0..c.blocks().len()).flat_map(move |bi| {
                let preds = c.flow().preds(BlockId::from_index(bi)).iter();
                preds
                    .filter(|&&p| !c.block(p).is_call_block())
                    .map(move |p| (b0 + bi, (b0 + p.index()) as u32))
            })
        });
        let preds = Csr::from_pairs(total, rows);

        Super { base, total, csr, callers, caller_returns, rt_watch_calls, rt_watch_exits, preds }
    }

    fn gid(&self, routine: RoutineId, block: BlockId) -> usize {
        self.base[routine.index()] + block.index()
    }

    fn routine_of(&self, gid: usize) -> usize {
        match self.base.binary_search(&gid) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }
}

#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Triple {
    may_use: RegSet,
    may_def: RegSet,
    must_def: RegSet,
}

/// Analyzes `program` over the full supergraph with default options.
pub fn analyze_baseline(program: &Program) -> BaselineAnalysis {
    analyze_baseline_with(program, &AnalysisOptions::default())
}

/// Analyzes `program` over the full supergraph.
pub fn analyze_baseline_with(program: &Program, options: &AnalysisOptions) -> BaselineAnalysis {
    let t = Instant::now();
    let cfg = ProgramCfg::build(program);
    let cfg_build = t.elapsed();
    let sp = Super::build(program, &cfg, options);

    // The summary a call site sees for its callees: meet over targets,
    // callee-saved registers filtered (§3.4), calling-standard assumptions
    // for unknown targets (§3.5).
    let entry_gid = |rid: RoutineId, entry: usize| -> usize {
        sp.gid(rid, cfg.routine_cfg(rid).entries()[entry])
    };
    let call_effect = |ins: &[Triple], target: &CallTarget| -> Triple {
        let one = |ins: &[Triple], rid: RoutineId, entry: usize| -> Triple {
            let t = ins[entry_gid(rid, entry)];
            let f = sp.csr[rid.index()];
            Triple { may_use: t.may_use - f, may_def: t.may_def - f, must_def: t.must_def - f }
        };
        match target {
            CallTarget::Direct(rid, entry) => one(ins, *rid, *entry),
            CallTarget::IndirectKnown(list) => {
                let mut it = list.iter();
                let &(r0, e0) = it.next().expect("non-empty target list");
                let mut acc = one(ins, r0, e0);
                for &(r, e) in it {
                    let t = one(ins, r, e);
                    acc.may_use |= t.may_use;
                    acc.may_def |= t.may_def;
                    acc.must_def &= t.must_def;
                }
                acc
            }
            CallTarget::IndirectUnknown => Triple {
                may_use: options.calling_standard.unknown_call_used(),
                may_def: options.calling_standard.unknown_call_killed(),
                must_def: options.calling_standard.unknown_call_defined(),
            },
            // §3.5 extension: compiler-provided exact effects.
            CallTarget::IndirectHinted { used, defined, killed } => {
                Triple { may_use: *used, may_def: *killed, must_def: *defined }
            }
        }
    };

    // ---- Phase 1: MAY-USE / MAY-DEF / MUST-DEF per block (backward). ----
    // Stratified like the PSG solver: MAY-DEF/MUST-DEF first (their
    // equations are self-contained and monotone), then MAY-USE with the
    // frozen MUST-DEF kill sets.
    let t = Instant::now();
    // MUST-DEF iterates downward from ⊤ (greatest fixpoint); the MAY sets
    // grow from ⊥.
    let mut ins =
        vec![
            Triple { may_use: RegSet::EMPTY, may_def: RegSet::EMPTY, must_def: RegSet::ALL };
            sp.total
        ];
    let mut phase1_visits = 0usize;

    for stratum in [0, 1] {
        let mut queued = vec![true; sp.total];
        let mut wl: VecDeque<usize> = (0..sp.total).rev().collect();
        while let Some(g) = wl.pop_front() {
            queued[g] = false;
            phase1_visits += 1;
            let ri = sp.routine_of(g);
            let rcfg: &RoutineCfg = &cfg.cfgs()[ri];
            let b = BlockId::from_index(g - sp.base[ri]);
            let block = rcfg.block(b);

            let out = match block.term() {
                TermKind::Ret => Triple::default(),
                // After a halt nothing runs: the MAY sets are empty and
                // MUST-DEF is vacuously ⊤ — a path that never returns
                // must not weaken a caller-visible intersection.
                TermKind::Halt => {
                    Triple { may_use: RegSet::EMPTY, may_def: RegSet::EMPTY, must_def: RegSet::ALL }
                }
                TermKind::UnknownJump => Triple {
                    // A §3.5 hint narrows the live set at the unknown
                    // target; everything is still assumed clobbered.
                    may_use: program.jump_hint(block.term_addr()).unwrap_or(RegSet::ALL),
                    may_def: RegSet::ALL,
                    must_def: RegSet::EMPTY,
                },
                TermKind::Call { target, return_to } => {
                    let eff = call_effect(&ins, target);
                    match return_to {
                        Some(rt) => {
                            let after = ins[sp.base[ri] + rt.index()];
                            Triple {
                                may_use: eff.may_use | (after.may_use - eff.must_def),
                                may_def: eff.may_def | after.may_def,
                                must_def: eff.must_def | after.must_def,
                            }
                        }
                        None => eff,
                    }
                }
                _ => {
                    let mut acc = Triple::default();
                    let mut first = true;
                    for &s in rcfg.succs(b) {
                        let t = ins[sp.base[ri] + s.index()];
                        acc.may_use |= t.may_use;
                        acc.may_def |= t.may_def;
                        if first {
                            acc.must_def = t.must_def;
                            first = false;
                        } else {
                            acc.must_def &= t.must_def;
                        }
                    }
                    acc
                }
            };

            let new = if stratum == 0 {
                Triple {
                    may_use: RegSet::EMPTY,
                    may_def: block.def() | out.may_def,
                    must_def: block.def() | out.must_def,
                }
            } else {
                Triple { may_use: block.ubd() | (out.may_use - block.def()), ..ins[g] }
            };
            if new != ins[g] {
                ins[g] = new;
                let mut push = |x: usize| {
                    if !std::mem::replace(&mut queued[x], true) {
                        wl.push_back(x);
                    }
                };
                for &p in sp.preds.row(g) {
                    push(p as usize);
                }
                // Call blocks read their return point's values across the
                // call.
                for &c in &sp.rt_watch_calls[g] {
                    push(c);
                }
                // An entrance's values feed every call block targeting it.
                if rcfg.entries().contains(&b) {
                    for &c in &sp.callers[ri] {
                        push(c);
                    }
                }
            }
        }
    }
    let phase1 = t.elapsed();

    // ---- Phase 2: liveness per block (backward over valid paths). ----
    let t = Instant::now();
    let mut live_in = vec![RegSet::EMPTY; sp.total];
    let mut live_out = vec![RegSet::EMPTY; sp.total];
    let mut exit_seed = vec![RegSet::EMPTY; sp.total];
    for (rid, r) in program.iter() {
        if r.exported() || rid == program.entry() {
            for &x in cfg.routine_cfg(rid).exits() {
                exit_seed[sp.gid(rid, x)] = options.exported_live_at_exit;
            }
        }
    }

    let mut queued = vec![true; sp.total];
    let mut wl: VecDeque<usize> = (0..sp.total).rev().collect();
    let mut phase2_visits = 0usize;

    while let Some(g) = wl.pop_front() {
        queued[g] = false;
        phase2_visits += 1;
        let ri = sp.routine_of(g);
        let rcfg: &RoutineCfg = &cfg.cfgs()[ri];
        let b = BlockId::from_index(g - sp.base[ri]);
        let block = rcfg.block(b);

        let out = match block.term() {
            // Live at an exit: union over the return points of every call
            // that may target this routine, plus the external-caller seed.
            TermKind::Ret => {
                let mut acc = exit_seed[g];
                for &rt in &sp.caller_returns[ri] {
                    acc |= live_in[rt];
                }
                acc
            }
            TermKind::Halt => RegSet::EMPTY,
            TermKind::UnknownJump => program.jump_hint(block.term_addr()).unwrap_or(RegSet::ALL),
            TermKind::Call { target, return_to } => {
                let eff = call_effect(&ins, target);
                match return_to {
                    Some(rt) => eff.may_use | (live_in[sp.base[ri] + rt.index()] - eff.must_def),
                    None => eff.may_use,
                }
            }
            _ => {
                let mut acc = RegSet::EMPTY;
                for &s in rcfg.succs(b) {
                    acc |= live_in[sp.base[ri] + s.index()];
                }
                acc
            }
        };

        let new_in = block.ubd() | (out - block.def());
        if out != live_out[g] || new_in != live_in[g] {
            live_out[g] = out;
            live_in[g] = new_in;
            let mut push = |x: usize| {
                if !std::mem::replace(&mut queued[x], true) {
                    wl.push_back(x);
                }
            };
            for &p in sp.preds.row(g) {
                push(p as usize);
            }
            // Call blocks read their return point's liveness; callee exits
            // read the liveness of the return points they may return to.
            for &c in &sp.rt_watch_calls[g] {
                push(c);
            }
            for &x in &sp.rt_watch_exits[g] {
                push(x);
            }
        }
    }
    let phase2 = t.elapsed();

    // ---- Extract per-routine summaries. ----
    let mut summaries = Vec::with_capacity(cfg.cfgs().len());
    for (ri, rcfg) in cfg.cfgs().iter().enumerate() {
        let rid = RoutineId::from_index(ri);
        let f = sp.csr[ri];
        let entries = rcfg.entries();
        summaries.push(RoutineSummary {
            call_used: entries.iter().map(|&e| ins[sp.gid(rid, e)].may_use - f).collect(),
            call_defined: entries.iter().map(|&e| ins[sp.gid(rid, e)].must_def - f).collect(),
            call_killed: entries.iter().map(|&e| ins[sp.gid(rid, e)].may_def - f).collect(),
            live_at_entry: entries.iter().map(|&e| live_in[sp.gid(rid, e)]).collect(),
            live_at_exit: rcfg.exits().iter().map(|&x| live_out[sp.gid(rid, x)]).collect(),
            saved_restored: f,
        });
    }

    let counts = cfg.counts();
    // The paper's §4 accounting: each block holds six dataflow sets (three
    // in, three out) plus DEF/UBD; we keep `ins` as one Triple and the
    // transient out is recomputed, so charge both to match.
    let memory_bytes = cfg.heap_bytes()
        + ins.capacity() * std::mem::size_of::<Triple>() * 2
        + live_in.heap_bytes()
        + live_out.heap_bytes()
        + summaries.heap_bytes();

    BaselineAnalysis {
        summaries,
        cfg,
        counts,
        stats: BaselineStats {
            cfg_build,
            phase1,
            phase2,
            phase1_visits,
            phase2_visits,
            memory_bytes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::{BranchCond, Reg};
    use spike_program::ProgramBuilder;

    fn equivalent(program: &Program) {
        let psg = spike_core::analyze(program);
        let full = analyze_baseline(program);
        for (rid, r) in program.iter() {
            assert_eq!(
                psg.summary.routine(rid),
                &full.summaries[rid.index()],
                "summary mismatch for {} ({rid})",
                r.name()
            );
        }
    }

    #[test]
    fn paper_figure2_program_matches_psg() {
        let mut b = ProgramBuilder::new();
        b.routine("p1").def(Reg::V0).def(Reg::T0).call("p2").use_reg(Reg::V0).ret();
        b.routine("p2")
            .cond(BranchCond::Eq, Reg::T0, "else")
            .def(Reg::T1)
            .def(Reg::T2)
            .br("join")
            .label("else")
            .def(Reg::T1)
            .label("join")
            .ret();
        b.routine("p3").def(Reg::T0).call("p2").ret();
        equivalent(&b.build().unwrap());
    }

    #[test]
    fn recursion_matches_psg() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("fib").put_int().halt();
        b.routine("fib")
            .cond(BranchCond::Le, Reg::A0, "base")
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::RA, Reg::SP, 0)
            .op_imm(spike_isa::AluOp::Sub, Reg::A0, 1, Reg::A0)
            .call("fib")
            .load(Reg::RA, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .ret()
            .label("base")
            .lda(Reg::V0, Reg::ZERO, 1)
            .ret();
        equivalent(&b.build().unwrap());
    }

    #[test]
    fn mutual_recursion_matches_psg() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("even").put_int().halt();
        b.routine("even")
            .cond(BranchCond::Eq, Reg::A0, "yes")
            .call("odd")
            .ret()
            .label("yes")
            .lda(Reg::V0, Reg::ZERO, 1)
            .ret();
        b.routine("odd")
            .cond(BranchCond::Eq, Reg::A0, "no")
            .call("even")
            .ret()
            .label("no")
            .lda(Reg::V0, Reg::ZERO, 0)
            .ret();
        equivalent(&b.build().unwrap());
    }

    #[test]
    fn indirect_and_unknown_calls_match_psg() {
        let mut b = ProgramBuilder::new();
        b.routine("main").jsr_known(Reg::PV, &["a", "b"]).jsr_unknown(Reg::PV).halt();
        b.routine("a").def(Reg::V0).ret();
        b.routine("b").use_reg(Reg::A0).def(Reg::V0).def(Reg::T3).ret();
        equivalent(&b.build().unwrap());
    }

    #[test]
    fn callee_saved_filtering_matches_psg() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").halt();
        b.routine("f")
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::S0, Reg::SP, 0)
            .def(Reg::S0)
            .use_reg(Reg::S0)
            .load(Reg::S0, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        let p = b.build().unwrap();
        equivalent(&p);
        let full = analyze_baseline(&p);
        let f = p.routine_by_name("f").unwrap();
        assert!(!full.summaries[f.index()].call_killed[0].contains(Reg::S0));
        assert_eq!(full.summaries[f.index()].saved_restored, RegSet::of(&[Reg::S0]));
    }

    #[test]
    fn multiway_branches_match_psg() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .label("top")
            .switch(Reg::T0, &["c1", "c2", "c3"])
            .label("c1")
            .call("f")
            .br("top")
            .label("c2")
            .call("g")
            .br("top")
            .label("c3")
            .halt();
        b.routine("f").def(Reg::V0).ret();
        b.routine("g").use_reg(Reg::A1).ret();
        equivalent(&b.build().unwrap());
    }

    #[test]
    fn exported_routines_match_psg() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("api").halt();
        b.routine("api").export().def(Reg::V0).ret();
        equivalent(&b.build().unwrap());
    }

    #[test]
    fn synthetic_profiles_match_psg() {
        for name in ["compress", "li", "perl"] {
            let profile = spike_synth::profile(name).unwrap();
            let program = spike_synth::generate(&profile, 40.0 / profile.routines as f64, 17);
            equivalent(&program);
        }
    }

    #[test]
    fn executable_programs_match_psg() {
        for seed in 0..15 {
            let program = spike_synth::generate_executable(seed, 5);
            equivalent(&program);
        }
    }
}
