//! The callee-saved clobber check (§3.4 turned into a verifier).
//!
//! A caller is entitled to find every [`CallingStandard::callee_saved`]
//! register intact after a call. A routine that writes one — directly, in
//! code that can execute and then still return — breaks that contract
//! unless the §3.4 save/restore detection proves the register is restored
//! on every exit. The check is deliberately per-routine and direct-writes
//! only: a routine whose *callee* clobbers is not re-flagged here, the
//! defect is reported at its origin.

use spike_cfg::BlockId;
use spike_core::Analysis;
use spike_isa::RegSet;
use spike_program::Program;

use crate::diag::{Check, Diagnostic, LintReport, Note, Operands, Severity};

#[allow(unused_imports)]
use spike_isa::CallingStandard; // doc link

pub(crate) fn check(program: &Program, analysis: &Analysis, report: &mut LintReport) {
    let callee_saved = analysis.summary.calling_standard().callee_saved();
    for (rid, routine) in program.iter() {
        // The entry routine has no caller whose registers it could
        // clobber, and a routine that never returns never gives control
        // back with a clobbered register.
        if rid == program.entry() {
            continue;
        }
        let cfg = analysis.cfg.routine_cfg(rid);
        if cfg.exits().is_empty() {
            continue;
        }
        let suspicious = callee_saved - analysis.summary.routine(rid).saved_restored;
        if cfg.blocks().iter().all(|b| b.def().is_disjoint(suspicious)) {
            continue;
        }
        // With an unknown-target jump the path structure is uncertain, so
        // reachability-based claims lose confidence.
        let demote = !cfg.unknown_jumps().is_empty();
        // A call is assumed to return: both directions cross it.
        let arcs = cfg.flow();
        let live = arcs.reachable_from(cfg.entries());
        let returns = arcs.reaching(cfg.exits());
        let mut flagged = RegSet::EMPTY;
        for (bi, block) in cfg.blocks().iter().enumerate() {
            if !live[bi] || !returns[bi] || block.def().is_disjoint(suspicious) {
                continue;
            }
            let b = BlockId::from_index(bi);
            for addr in block.start()..block.end() {
                let insn = routine.insn_at(addr).expect("address in routine");
                for reg in (insn.defs() & suspicious).iter() {
                    if flagged.contains(reg) {
                        continue;
                    }
                    flagged.insert(reg);
                    let mut d = Diagnostic::new(Check::CalleeSavedClobber, Some(rid), Some(addr));
                    d.reg = Some(reg);
                    let mut note = Note::None;
                    if demote {
                        d.severity = Severity::Warning;
                        note = Note::Demoted;
                    }
                    let path = [cfg.block(b).start(), addr];
                    report.push_detailed(d, Operands::None, &path, note);
                }
            }
        }
    }
}
