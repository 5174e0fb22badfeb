//! Equivalence of incremental re-analysis with from-scratch analysis.
//!
//! The optimizer's pass manager threads one [`spike::core::AnalysisCache`]
//! through its passes, re-running the analysis front-end only for routines
//! the previous pass edited. These properties pin the contract down hard:
//! the cached pipeline must emit bit-identical programs, summaries, PSGs
//! and deterministic `memory_bytes` — the latter is capacity-sensitive, so
//! every compared result must also hold no capacity slack: a plain
//! `clone` of it holds the bytes it holds.

use proptest::prelude::*;

use spike::core::{
    analyze_stack, analyze_with, query_analysis, AnalysisCache, AnalysisOptions, Query,
};
use spike::isa::{HeapSize, Instruction, Reg, RegSet};
use spike::opt::{optimize_with, OptOptions};
use spike::program::{Program, Rewriter, RoutineId};
use spike::sim::Outcome;

fn arb_program() -> impl Strategy<Value = Program> {
    (any::<u64>(), prop_oneof![Just("compress"), Just("li"), Just("perl"), Just("vortex")])
        .prop_map(|(seed, name)| {
            let p = spike::synth::profile(name).expect("known benchmark");
            spike::synth::generate(&p, 20.0 / p.routines as f64, seed)
        })
}

/// The capacity `v` holds beyond what a plain `clone` of it holds; 0 for
/// every analysis layer, incremental or from scratch.
fn slack<T: Clone + HeapSize>(v: &T) -> usize {
    v.heap_bytes() - v.clone().heap_bytes()
}

fn with_incremental(incremental: bool) -> OptOptions {
    OptOptions { incremental, ..OptOptions::default() }
}

/// The addresses of `program` an edit may name, with their instructions.
fn sites(program: &Program) -> impl Iterator<Item = (u32, &Instruction)> {
    program
        .iter()
        .flat_map(|(_, r)| r.insns().iter().enumerate().map(|(i, x)| (r.addr() + i as u32, x)))
}

/// Deletes the `pick`-th deletable instruction that has code behind it,
/// so every later address shifts.
fn shifting_delete(program: &Program, pick: usize) -> Option<(Program, Vec<RoutineId>)> {
    let last = program.routines().last().expect("programs are non-empty").addr();
    let victims: Vec<u32> = sites(program)
        .filter(|(addr, insn)| {
            *addr < last
                && !insn.is_terminator()
                && !program.relocations().contains_key(addr)
                && !program.iter().any(|(_, r)| r.entry_addrs().any(|e| e == *addr))
        })
        .map(|(addr, _)| addr)
        .collect();
    let victim = *victims.get(pick % victims.len().max(1))?;
    Rewriter::new(program).delete(victim).finish().ok()
}

/// Puts an instruction in front of the target of the `pick`-th
/// intra-routine branch and lets that branch bypass it — the shape of a
/// LICM preheader. Targets are restricted to block leaders that nothing
/// falls into mid-block and that have a call or a halt behind them, so
/// the insertion is a block of its own and renumbers a block some PSG
/// node names.
fn preheader(program: &Program, pick: usize) -> Option<(Program, Vec<RoutineId>)> {
    let branches: Vec<(u32, u32)> = sites(program)
        .filter_map(|(addr, insn)| match *insn {
            Instruction::Br { disp } | Instruction::CondBranch { disp, .. } => {
                Some((addr, addr.wrapping_add(1).wrapping_add(disp as u32)))
            }
            _ => None,
        })
        .filter(|&(addr, target)| {
            program.iter().any(|(_, r)| {
                let inside = |a: u32| (r.addr()..r.end_addr()).contains(&a);
                inside(addr)
                    && inside(target)
                    && !matches!(
                        r.insn_at(target),
                        Some(Instruction::Jmp { .. } | Instruction::Jsr { .. })
                    )
                    && (target == r.addr()
                        || r.insn_at(target - 1).is_some_and(Instruction::is_terminator))
                    && (target..r.end_addr()).filter_map(|a| r.insn_at(a)).any(|x| {
                        matches!(
                            x,
                            Instruction::Bsr { .. } | Instruction::Jsr { .. } | Instruction::Halt
                        )
                    })
            })
        })
        .collect();
    let &(branch, target) = branches.get(pick % branches.len().max(1))?;
    let mut rw = Rewriter::new(program);
    rw.insert_before(target, vec![Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: 1 }]);
    rw.bypass(branch);
    rw.finish().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The cached pass manager and the from-scratch pass manager agree on
    /// every observable output for the synthetic benchmark profiles: the
    /// optimized program bit-for-bit and every optimization count.
    #[test]
    fn incremental_optimize_matches_scratch_on_profiles(program in arb_program()) {
        let (scratch, srep) = optimize_with(&program, &with_incremental(false))
            .expect("optimization succeeds");
        let (incremental, irep) = optimize_with(&program, &with_incremental(true))
            .expect("optimization succeeds");

        prop_assert_eq!(&scratch, &incremental);
        prop_assert_eq!(srep.instructions_after, irep.instructions_after);
        prop_assert_eq!(srep.dead_deleted, irep.dead_deleted);
        prop_assert_eq!(srep.spill_pairs_removed, irep.spill_pairs_removed);
        prop_assert_eq!(srep.registers_reallocated, irep.registers_reallocated);
        prop_assert_eq!(srep.save_restores_deleted, irep.save_restores_deleted);
        prop_assert_eq!(srep.rounds, irep.rounds);
        // Scratch mode never reuses; incremental mode accounts for every
        // routine in every analysis run, one way or the other.
        prop_assert_eq!(srep.routines_reused, 0);
        prop_assert_eq!(
            (irep.routines_reanalyzed + irep.routines_reused)
                % program.routines().len().max(1),
            0
        );
    }

    /// On runnable executables the two modes also agree, and both preserve
    /// the simulated behaviour of the original program.
    #[test]
    fn incremental_optimize_matches_scratch_on_executables(seed in any::<u64>()) {
        let program = spike::synth::generate_executable(seed, 10);
        let (scratch, _) = optimize_with(&program, &with_incremental(false))
            .expect("optimization succeeds");
        let (incremental, irep) = optimize_with(&program, &with_incremental(true))
            .expect("optimization succeeds");
        prop_assert_eq!(&scratch, &incremental);

        let Outcome::Halted { output: before, .. } = spike::sim::run(&program, 10_000_000) else {
            panic!("generated executables must halt");
        };
        let Outcome::Halted { output: after, .. } = spike::sim::run(&incremental, 10_000_000)
        else {
            panic!("optimized executables must halt");
        };
        prop_assert_eq!(before, after);
        prop_assert!(irep.rounds >= 1);
    }

    /// `iterate` mode (bounded fixpoint) removes at least as much as a
    /// single round and still preserves simulated behaviour, in both
    /// re-analysis modes.
    #[test]
    fn iterate_mode_preserves_behaviour(seed in any::<u64>()) {
        let program = spike::synth::generate_executable(seed, 8);
        let (_, single) = optimize_with(&program, &with_incremental(true))
            .expect("optimization succeeds");
        for incremental in [false, true] {
            let options = OptOptions { iterate: true, ..with_incremental(incremental) };
            let (optimized, report) = optimize_with(&program, &options)
                .expect("optimization succeeds");
            prop_assert!(report.removed() >= single.removed());

            let Outcome::Halted { output: before, .. } = spike::sim::run(&program, 10_000_000)
            else {
                panic!("generated executables must halt");
            };
            let Outcome::Halted { output: after, .. } = spike::sim::run(&optimized, 10_000_000)
            else {
                panic!("optimized executables must halt");
            };
            prop_assert_eq!(before, after);
        }
    }

    /// Direct contract of [`AnalysisCache::reanalyze`]: after an edit, the
    /// seeded re-run over the dirty routines reaches exactly the solution
    /// a from-scratch analysis of the edited program computes — the same
    /// summaries, the same PSG node/edge sequences and labels, and the
    /// same deterministic memory accounting.
    #[test]
    fn cache_reanalyze_matches_scratch(seed in any::<u64>()) {
        let program = spike::synth::generate_executable(seed, 6);
        let options = AnalysisOptions::default();
        let mut cache = AnalysisCache::new(options.clone());
        cache.analyze(&program);

        // Delete the last deletable instruction in the program (not a
        // terminator, not a relocated constant) and let the rewriter
        // report which routines changed.
        let victim = program
            .iter()
            .flat_map(|(_, r)| {
                (0..r.len() as u32).map(move |i| (r.addr() + i, &r.insns()[i as usize]))
            })
            .filter(|(addr, insn)| {
                !insn.is_terminator() && !program.relocations().contains_key(addr)
            })
            .last()
            .map(|(addr, _)| addr);
        prop_assert!(victim.is_some(), "generated executables have deletable instructions");
        let (edited, changed) = Rewriter::new(&program)
            .delete(victim.unwrap())
            .finish()
            .expect("delete relinks");

        let incremental = cache.reanalyze(&edited, &changed);
        let scratch = analyze_with(&edited, &options);
        for (rid, r) in edited.iter() {
            prop_assert_eq!(
                incremental.summary.routine(rid),
                scratch.summary.routine(rid),
                "summary mismatch for {}",
                r.name()
            );
        }
        prop_assert_eq!(&incremental.psg, &scratch.psg);
        prop_assert_eq!(incremental.stats.memory_bytes, scratch.stats.memory_bytes);
        prop_assert_eq!(slack(incremental), 0);
        prop_assert_eq!(
            incremental.stats.routines_reanalyzed + incremental.stats.routines_reused,
            edited.routines().len()
        );
    }

    /// A cache warmed by queries alone: a cold `query` answers with the
    /// slice of the whole-program analysis while solving the register
    /// layers only, and the `reanalyze` after an edit patches that state
    /// forward and solves the stack layer once, over everything — the
    /// result equals a from-scratch run of the edited program in every
    /// layer.
    #[test]
    fn cold_query_then_reanalyze_matches_scratch(program in arb_program(), pick in any::<u16>()) {
        let options = AnalysisOptions::default();
        let full = analyze_with(&program, &options);
        let mut cache = AnalysisCache::new(options.clone());
        let n = program.routines().len();
        let (a, b) = (RoutineId::from_index(pick as usize % n), program.entry());
        for query in [
            Query::Summary(a),
            Query::LiveAtEntry(a),
            Query::Reaches { caller: b, callee: a },
            Query::Reaches { caller: a, callee: b },
        ] {
            let (answer, _) = cache.query(&program, &query);
            prop_assert_eq!(answer, query_analysis(&full, &program, &query));
        }
        prop_assert!(cache.analysis().is_none(), "no query reads the stack layer");
        prop_assert_eq!(cache.stack_solves(), 0);

        let Some((edited, dirty)) = shifting_delete(&program, pick as usize) else {
            return Ok(());
        };
        let scratch = analyze_with(&edited, &options);
        let incremental = cache.reanalyze(&edited, &dirty);
        prop_assert_eq!(incremental.stats.routines_reanalyzed, dirty.len());
        prop_assert_eq!(&incremental.summary, &scratch.summary);
        prop_assert_eq!(&incremental.psg, &scratch.psg);
        prop_assert_eq!(&incremental.stack, &scratch.stack);
        prop_assert_eq!(incremental.stats.memory_bytes, scratch.stats.memory_bytes);
        prop_assert_eq!(slack(incremental), 0);
        prop_assert_eq!(cache.stack_solves(), 1);
    }

    /// Dirty is *edited*, not *relinked*: deleting one instruction in the
    /// first routine shifts every other routine and relinks every call
    /// and relocation across the shift, yet the rewriter reports only
    /// that routine, and re-analysing only that routine (everything else
    /// is rebased) still equals a from-scratch run. The equalities are
    /// spelled out — not left to `reanalyze`'s debug-build self-check —
    /// so a release test run checks them too.
    #[test]
    fn shifting_delete_dirties_only_its_routine(program in arb_program()) {
        let options = AnalysisOptions::default();
        let mut cache = AnalysisCache::new(options.clone());
        cache.analyze(&program);

        let (first, routine) = program.iter().next().expect("programs are non-empty");
        let victim = (routine.addr()..routine.end_addr()).find(|addr| {
            let insn = routine.insn_at(*addr).expect("address in routine");
            !insn.is_terminator()
                && !program.relocations().contains_key(addr)
                && !routine.entry_addrs().any(|e| e == *addr)
        });
        let Some(victim) = victim else {
            return Ok(()); // a first routine with nothing deletable
        };
        let (edited, changed) = Rewriter::new(&program)
            .delete(victim)
            .finish()
            .expect("delete relinks");
        prop_assert_eq!(&changed, &vec![first]);
        let relinked = program
            .iter()
            .skip(1)
            .filter(|(rid, r)| r.insns() != edited.routine(*rid).insns())
            .count();

        let incremental = cache.reanalyze(&edited, &changed);
        prop_assert_eq!(incremental.stats.routines_reanalyzed, 1, "{} relinked", relinked);
        let scratch = analyze_with(&edited, &options);
        prop_assert_eq!(&incremental.summary, &scratch.summary);
        prop_assert_eq!(&incremental.psg, &scratch.psg);
        prop_assert_eq!(&incremental.stack, &scratch.stack);
        prop_assert_eq!(incremental.stats.memory_bytes, scratch.stats.memory_bytes);
        prop_assert_eq!(slack(incremental), 0);
    }

    /// The stack layer on demand: a chain of edits goes through one
    /// cache — the first shifts every later address, the second changes
    /// a routine's shape, the rest are either — and the stack layer is
    /// asked for after a random subset of them only (and after the
    /// last). The register layers equal scratch after every step; at
    /// every demand so do the stack layer, caught up over everything
    /// edited since it was last solved, and `memory_bytes`. Spelled out
    /// rather than left to the debug-build self-check, so a release run
    /// exercises the deferred, member-local catch-up on its own.
    #[test]
    fn deferred_stack_layer_matches_scratch_over_an_edit_chain(
        original in arb_program(),
        picks in proptest::collection::vec(any::<u16>(), 3..7),
        demands in any::<u8>(),
    ) {
        let mut program = original;
        let options = AnalysisOptions::default();
        let mut cache = AnalysisCache::new(options.clone());
        cache.analyze(&program);
        let mut solves = cache.stack_solves();

        for (step, &pick) in picks.iter().enumerate() {
            let shape = step == 1 || (step > 1 && pick % 2 == 1);
            let edit = if shape {
                preheader(&program, pick as usize / 2)
            } else {
                shifting_delete(&program, pick as usize / 2)
            };
            let Some((edited, changed)) = edit else { continue };
            program = edited;

            let scratch = analyze_with(&program, &options);
            if demands >> step & 1 == 1 || step + 1 == picks.len() {
                let a = cache.reanalyze(&program, &changed);
                prop_assert_eq!(&a.summary, &scratch.summary);
                prop_assert_eq!(&a.psg, &scratch.psg);
                prop_assert_eq!(&a.stack, &analyze_stack(&program, &a.cfg).0);
                prop_assert_eq!(a.stats.memory_bytes, scratch.stats.memory_bytes);
                prop_assert_eq!(slack(a), 0);
                solves += 1;
            } else {
                let facts = cache.reanalyze_registers(&program, &changed);
                prop_assert_eq!(facts.summary, &scratch.summary);
                prop_assert_eq!(facts.cfg, &scratch.cfg);
                prop_assert_eq!(slack(facts.summary) + slack(facts.cfg), 0);
                prop_assert!(cache.analysis().is_none(), "the stack layer is behind");
            }
            prop_assert_eq!(cache.stack_solves(), solves);
        }
    }
}

/// Replaces a plain instruction of a routine on a call-graph cycle with a
/// read and a write of a register that routine never defines, so a label
/// of the routine gains that register and the edit changes some
/// registers' equations, not every register's. `None` when the program has no such
/// routine and instruction.
fn define_on_a_cycle(program: &Program, pick: usize) -> Option<(Program, Vec<RoutineId>)> {
    let graph = spike::callgraph::CallGraph::build(
        program,
        &analyze_with(program, &AnalysisOptions::default()).cfg,
    );
    let sccs = graph.sccs();
    let cyclic: Vec<RoutineId> = program
        .iter()
        .map(|(rid, _)| rid)
        .filter(|&rid| {
            sccs.components()[sccs.component_of(rid)].len() > 1 || graph.callees(rid).contains(&rid)
        })
        .collect();
    let rid = *cyclic.get(pick % cyclic.len().max(1))?;
    let r = program.routine(rid);
    let defined = r.insns().iter().fold(RegSet::EMPTY, |acc, i| acc | i.defs());
    // The temporaries t0–t7: caller-saved, so no §3.4 filter hides them.
    let fresh = (1..=8).map(Reg::int).find(|&reg| !defined.contains(reg))?;
    let addr = (r.addr()..r.end_addr()).find(|a| {
        let insn = r.insn_at(*a).expect("address in routine");
        !insn.is_terminator()
            && !matches!(insn, Instruction::Bsr { .. } | Instruction::Jsr { .. })
            && !program.relocations().contains_key(a)
    })?;
    // Read before it is written: the register's uses and liveness change
    // as well as its definitions.
    let (ra, rb, rc) = (fresh, fresh, fresh);
    let op = Instruction::Operate { op: spike::isa::AluOp::Add, ra, rb, rc };
    Rewriter::new(program).replace(addr, op).finish().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An edit inside a recursive component that changes some registers'
    /// equations re-solves those registers only, over the caller/callee
    /// closure of the changed routine — a cycle, so the reset subspace
    /// and its converged neighbours meet around it — and still equals a
    /// from-scratch run.
    #[test]
    fn a_partial_resolve_on_a_cycle_matches_scratch(program in arb_program(), pick in any::<u16>()) {
        let Some((edited, dirty)) = define_on_a_cycle(&program, pick as usize) else {
            return Ok(());
        };
        // Both ways: the edit adds uses and definitions, its undo takes
        // them away again, so values grow in one run and shrink in the
        // other.
        let options = AnalysisOptions::default();
        for (before, after) in [(&program, &edited), (&edited, &program)] {
            let mut cache = AnalysisCache::new(options.clone());
            cache.analyze(before);
            let incremental = cache.reanalyze(after, &dirty);
            let resolved = incremental.stats.registers_resolved;
            prop_assert!((1..64).contains(&resolved), "{} register(s) re-solved", resolved);
            let scratch = analyze_with(after, &options);
            prop_assert_eq!(&incremental.summary, &scratch.summary);
            prop_assert_eq!(&incremental.psg, &scratch.psg);
            prop_assert_eq!(incremental.stats.memory_bytes, scratch.stats.memory_bytes);
            prop_assert_eq!(slack(incremental), 0);
        }
    }
}

/// The seven images of the benchmark's `optimize-exec` workload (five
/// paper profiles at scale 1 and two deep-condensation executables, at
/// its corpus seed): a default `optimize_with` brings the stack layer up
/// to date at most twice — in front of LICM and in front of dead-stack-
/// store elimination — and a run without those two passes never does.
#[test]
fn stack_layer_is_solved_only_for_the_passes_that_read_it() {
    const CORPUS_SEED: u64 = 4;
    let profiles = ["compress", "m88ksim", "go", "perl", "vortex"].map(|name| {
        let p = spike::synth::profile(name).expect("known benchmark");
        spike::synth::generate(&p, 1.0, CORPUS_SEED)
    });
    let execs = [0, 1].map(|e| spike::synth::generate_executable(CORPUS_SEED + e, 1000));
    let register_only = OptOptions { licm: false, stack: false, ..OptOptions::default() };
    for program in profiles.iter().chain(&execs) {
        let (_, report) =
            optimize_with(program, &OptOptions::default()).expect("optimization succeeds");
        assert!((1..=2).contains(&report.stack_solves), "{report:?}");
        let (_, report) = optimize_with(program, &register_only).expect("optimization succeeds");
        assert_eq!(report.stack_solves, 0, "{report:?}");
    }
}
