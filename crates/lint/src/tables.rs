//! Jump-table sanity checks. Image validation already rejects targets
//! outside the jumping routine; what remains representable — and worth
//! flagging — is a table with no targets at all (the multiway jump has no
//! successors, so everything after it silently disappears from the CFG)
//! and a table listing the same target repeatedly.

use std::collections::BTreeMap;

use spike_program::Program;

use crate::diag::{Check, Diagnostic, LintReport, Note, Operands};

pub(crate) fn check(program: &Program, report: &mut LintReport) {
    for (&addr, targets) in program.jump_tables() {
        let routine = program.routine_containing(addr);
        if targets.is_empty() {
            report.push(Diagnostic::new(Check::EmptyJumpTable, routine, Some(addr)));
            continue;
        }
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for &t in targets {
            *counts.entry(t).or_insert(0) += 1;
        }
        for (target, count) in counts {
            if count > 1 {
                let d = Diagnostic::new(Check::DuplicateJumpTargets, routine, Some(addr));
                let operands = Operands::Duplicate { target, count };
                report.push_detailed(d, operands, &[], Note::None);
            }
        }
    }
}
