//! Dead-store and dead-argument warnings: Figure 1(a)/(b) of the paper as
//! diagnostics instead of deletions.
//!
//! Reuses the optimizer's interprocedural liveness (live-at-exit at rets,
//! call-used at call summaries) but reports rather than rewrites, and does
//! not cascade: each finding is a write that is dead in the program as it
//! stands, so the list is stable and reviewable. Block liveness comes from
//! the optimizer's one solver, [`block_liveness`], over the lint's shared
//! frame, with its buffers reused from routine to routine; only the
//! per-instruction scan that phrases the findings is this module's own.

use spike_cfg::BlockId;
use spike_core::Analysis;
use spike_isa::NUM_REGS;
use spike_opt::{block_liveness, step_back, LivenessScratch};
use spike_program::Program;

use crate::diag::{Check, Diagnostic, LintReport};
use crate::frame::LintFrame;

pub(crate) fn check(
    program: &Program,
    analysis: &Analysis,
    frame: &LintFrame,
    report: &mut LintReport,
) {
    let arg_regs = analysis.summary.calling_standard().argument();
    let mut scratch = LivenessScratch::default();
    // One message per register and check, built on first use: at most
    // 2 × 64 of them against up to ~100 k findings.
    let mut dead_argument: [Option<String>; NUM_REGS] = [const { None }; NUM_REGS];
    let mut dead_store: [Option<String>; NUM_REGS] = [const { None }; NUM_REGS];
    for (rid, routine) in program.iter() {
        let cfg = analysis.cfg.routine_cfg(rid);
        let f = frame.routine(rid);
        let live =
            block_liveness(program, analysis.registers(), rid, &f.arcs, &f.rank, &mut scratch);
        for (bi, block) in cfg.blocks().iter().enumerate() {
            let b = BlockId::from_index(bi);
            let mut l = live.live_end(b);
            for addr in (block.start()..block.end()).rev() {
                let insn = routine.insn_at(addr).expect("address in routine");
                let cs = (addr == block.term_addr() && insn.is_call())
                    .then(|| analysis.summary.call_site(&analysis.cfg, rid, b))
                    .flatten();
                let defs = insn.defs();
                if cs.is_none()
                    && insn.is_pure()
                    && !defs.is_empty()
                    && defs.is_disjoint(l)
                    && !program.relocations().contains_key(&addr)
                {
                    let reg = defs.iter().next().expect("non-empty def set");
                    let mut d = if block.is_call_block() && !(defs & arg_regs).is_empty() {
                        let message = dead_argument[reg.index()].get_or_insert_with(|| {
                            format!(
                                "argument register {reg} is set, but the call ending this block \
                                 does not read it"
                            )
                        });
                        Diagnostic::new(Check::DeadArgument, routine.name(), message.clone())
                    } else {
                        let message = dead_store[reg.index()].get_or_insert_with(|| {
                            format!("the value written to {reg} is never read on any valid path")
                        });
                        Diagnostic::new(Check::DeadStore, routine.name(), message.clone())
                    };
                    d.addr = Some(addr);
                    d.reg = Some(reg);
                    report.push(d);
                }
                l = step_back(l, insn, cs.as_ref());
            }
        }
    }
}
