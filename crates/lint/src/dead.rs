//! Dead-store and dead-argument warnings: Figure 1(a)/(b) of the paper as
//! diagnostics instead of deletions.
//!
//! Reuses the optimizer's interprocedural liveness (live-at-exit at rets,
//! call-used at call summaries) but reports rather than rewrites, and does
//! not cascade: each finding is a write that is dead in the program as it
//! stands, so the list is stable and reviewable. Block liveness comes from
//! the optimizer's one solver, [`block_liveness`], over each routine's
//! flow table, with its buffers reused from routine to routine; only the
//! per-instruction scan that phrases the findings is this module's own.

use spike_cfg::BlockId;
use spike_core::Analysis;
use spike_opt::{block_liveness, step_back, LivenessScratch};
use spike_program::Program;

use crate::diag::{Check, Diagnostic, LintReport};

pub(crate) fn check(program: &Program, analysis: &Analysis, report: &mut LintReport) {
    let arg_regs = analysis.summary.calling_standard().argument();
    let mut scratch = LivenessScratch::default();
    for (rid, routine) in program.iter() {
        let cfg = analysis.cfg.routine_cfg(rid);
        let live = block_liveness(program, analysis.registers(), rid, &mut scratch);
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
                    let check = if block.is_call_block() && !(defs & arg_regs).is_empty() {
                        Check::DeadArgument
                    } else {
                        Check::DeadStore
                    };
                    let mut d = Diagnostic::new(check, Some(rid), Some(addr));
                    d.reg = Some(reg);
                    report.push(d);
                }
                l = step_back(l, insn, cs.as_ref());
            }
        }
    }
}
