//! Per-routine and per-call-site register summaries (§2 of the paper).

use spike_cfg::{CallTarget, ProgramCfg, TermKind};
use spike_isa::{CallingStandard, RegSet};
use spike_program::RoutineId;

use crate::psg::Psg;

spike_isa::analysis_struct! {
    /// The interprocedural dataflow summary of one routine (§2).
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct RoutineSummary {
        /// Per entrance: registers that may be used by a call to this
        /// entrance before being defined (`MAY-USE`, callee-saved filtered).
        pub call_used: Vec<RegSet>,
        /// Per entrance: registers that must be defined by a call to this
        /// entrance (`MUST-DEF`, callee-saved filtered).
        pub call_defined: Vec<RegSet>,
        /// Per entrance: registers that may be overwritten by a call to this
        /// entrance (`MAY-DEF`, callee-saved filtered).
        pub call_killed: Vec<RegSet>,
        /// Per entrance: registers live at the entrance, including uses
        /// reached only after returning to a caller.
        pub live_at_entry: Vec<RegSet>,
        /// Per exit (in the CFG's exit order): registers live at the exit,
        /// i.e. that may be used along some valid return path.
        pub live_at_exit: Vec<RegSet>,
        /// Callee-saved registers the routine saves and restores (§3.4).
        pub saved_restored: RegSet,
    }
}

/// What a specific call site does to registers, as seen by the caller.
/// This is the label of the call-summary instruction of §2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CallSiteSummary {
    /// Registers the call may read (`call-used`).
    pub used: RegSet,
    /// Registers the call must write (`call-defined`).
    pub defined: RegSet,
    /// Registers the call may overwrite (`call-killed`).
    pub killed: RegSet,
}

spike_isa::analysis_struct! {
    /// The complete analysis result over a program: one [`RoutineSummary`] per
    /// routine, resolvable to per-call-site summaries.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct ProgramSummary {
        routines: Vec<RoutineSummary>,
        calling_standard: CallingStandard,
    }
}

impl ProgramSummary {
    /// Extracts the summaries from a converged PSG.
    pub(crate) fn from_psg(psg: &Psg, calling_standard: CallingStandard) -> ProgramSummary {
        let routines = psg
            .all_routine_nodes()
            .iter()
            .map(|rn| {
                let csr = rn.saved_restored();
                RoutineSummary {
                    call_used: rn.entries().iter().map(|&n| psg.may_use(n) - csr).collect(),
                    call_defined: rn.entries().iter().map(|&n| psg.must_def(n) - csr).collect(),
                    call_killed: rn.entries().iter().map(|&n| psg.may_def(n) - csr).collect(),
                    live_at_entry: rn.entries().iter().map(|&n| psg.live(n)).collect(),
                    live_at_exit: rn.exits().iter().map(|&n| psg.live(n)).collect(),
                    saved_restored: csr,
                }
            })
            .collect();
        ProgramSummary { routines, calling_standard }
    }

    /// The summary of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the analyzed program.
    #[inline]
    pub fn routine(&self, id: RoutineId) -> &RoutineSummary {
        &self.routines[id.index()]
    }

    /// All routine summaries, indexed by routine id.
    #[inline]
    pub fn routines(&self) -> &[RoutineSummary] {
        &self.routines
    }

    /// The calling standard the analysis assumed.
    #[inline]
    pub fn calling_standard(&self) -> &CallingStandard {
        &self.calling_standard
    }

    /// The call-summary label for one callee entrance.
    pub fn entry_summary(&self, id: RoutineId, entry: usize) -> CallSiteSummary {
        let r = self.routine(id);
        CallSiteSummary {
            used: r.call_used[entry],
            defined: r.call_defined[entry],
            killed: r.call_killed[entry],
        }
    }

    /// The conservative summary for a call to an unknown target (§3.5).
    pub fn unknown_call_summary(&self) -> CallSiteSummary {
        CallSiteSummary {
            used: self.calling_standard.unknown_call_used(),
            defined: self.calling_standard.unknown_call_defined(),
            killed: self.calling_standard.unknown_call_killed(),
        }
    }

    /// Resolves the call-summary for the call block `block` of routine
    /// `routine` in `cfg`. Multi-target indirect calls take the union of
    /// the targets' used/killed sets and the intersection of their defined
    /// sets.
    ///
    /// Returns `None` if the block is not a call block.
    pub fn call_site(
        &self,
        cfg: &ProgramCfg,
        routine: RoutineId,
        block: spike_cfg::BlockId,
    ) -> Option<CallSiteSummary> {
        let TermKind::Call { target, .. } = cfg.routine_cfg(routine).block(block).term() else {
            return None;
        };
        Some(match target {
            CallTarget::Direct(callee, entry) => self.entry_summary(*callee, *entry),
            CallTarget::IndirectKnown(list) => {
                let mut it = list.iter();
                let &(c0, e0) = it.next().expect("known target list is non-empty");
                let mut s = self.entry_summary(c0, e0);
                for &(c, e) in it {
                    let t = self.entry_summary(c, e);
                    s.used |= t.used;
                    s.killed |= t.killed;
                    s.defined &= t.defined;
                }
                s
            }
            CallTarget::IndirectUnknown => self.unknown_call_summary(),
            CallTarget::IndirectHinted { used, defined, killed } => {
                CallSiteSummary { used: *used, defined: *defined, killed: *killed }
            }
        })
    }
}
