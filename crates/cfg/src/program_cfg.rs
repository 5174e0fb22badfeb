//! The whole-program control-flow graph (supergraph).

use std::sync::Arc;

use spike_program::{Program, RoutineId};

use crate::block::{CallTarget, TermKind};
use crate::build::RoutineCfg;

/// Size of the whole-program CFG, as counted in Table 5 of the paper:
/// basic blocks and control-flow arcs *including* arcs representing calls
/// and returns.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SupergraphCounts {
    /// Total basic blocks across all routines.
    pub basic_blocks: usize,
    /// Intraprocedural arcs (branch, fall-through, jump-table arcs).
    pub intra_arcs: usize,
    /// Call arcs: one from each call block to each possible callee
    /// entrance (one to a virtual unknown node for unresolved indirect
    /// calls).
    pub call_arcs: usize,
    /// Return arcs: one from each possible callee exit back to each call's
    /// return point.
    pub return_arcs: usize,
}

impl SupergraphCounts {
    /// Total arcs including calls and returns (the paper's "CFG Arcs").
    pub fn total_arcs(&self) -> usize {
        self.intra_arcs + self.call_arcs + self.return_arcs
    }
}

spike_isa::analysis_struct! {
    /// The control-flow graphs of every routine in a program, plus the
    /// interprocedural (call/return) arc bookkeeping of the supergraph.
    ///
    /// The full-CFG baseline analysis (`spike-baseline`) runs over this
    /// structure; Spike itself only uses it transiently while building the
    /// much smaller program summary graph.
    ///
    /// Each routine's CFG sits behind an `Arc`, so a clone of the whole
    /// shares every routine's graph; an incremental re-analysis replaces
    /// the edited routines' and copies a shared one only to move it
    /// ([`Arc::make_mut`] around [`RoutineCfg::rebase`]). The memory walk
    /// charges each as if owned.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct ProgramCfg {
        cfgs: Vec<Arc<RoutineCfg>>,
    }
}

impl ProgramCfg {
    /// Builds the CFG of every routine.
    pub fn build(program: &Program) -> ProgramCfg {
        let cfgs = program.iter().map(|(id, _)| Arc::new(RoutineCfg::build(program, id))).collect();
        ProgramCfg { cfgs }
    }

    /// Wraps already-built routine CFGs. Used by pipelines that time CFG
    /// construction and `DEF`/`UBD` initialization as separate stages,
    /// and by incremental re-analysis to splice rebuilt CFGs for dirty
    /// routines in between reused clean ones.
    ///
    /// # Panics
    ///
    /// Panics if `cfgs` are not in routine-id order (`cfgs[i]` must
    /// describe routine `i`).
    pub fn from_cfgs(cfgs: Vec<Arc<RoutineCfg>>) -> ProgramCfg {
        for (i, c) in cfgs.iter().enumerate() {
            assert_eq!(c.routine().index(), i, "cfgs must be in routine-id order");
        }
        ProgramCfg { cfgs }
    }

    /// Consumes the program CFG, returning the per-routine CFGs in
    /// routine-id order, still shared with every clone.
    pub fn into_cfgs(self) -> Vec<Arc<RoutineCfg>> {
        self.cfgs
    }

    /// The CFG of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the program this was built from.
    #[inline]
    pub fn routine_cfg(&self, id: RoutineId) -> &RoutineCfg {
        &self.cfgs[id.index()]
    }

    /// All routine CFGs, indexed by routine id.
    #[inline]
    pub fn cfgs(&self) -> &[Arc<RoutineCfg>] {
        &self.cfgs
    }

    /// Counts the supergraph's blocks and arcs for the Table 5 comparison.
    pub fn counts(&self) -> SupergraphCounts {
        let mut c = SupergraphCounts::default();
        for cfg in &self.cfgs {
            c.basic_blocks += cfg.blocks().len();
            c.intra_arcs += cfg.arc_count();
            for b in cfg.blocks() {
                if let TermKind::Call { target, return_to } = b.term() {
                    let callees: usize = match target {
                        CallTarget::Direct(..) => 1,
                        CallTarget::IndirectKnown(list) => list.len(),
                        CallTarget::IndirectUnknown | CallTarget::IndirectHinted { .. } => 1,
                    };
                    c.call_arcs += callees;
                    if return_to.is_some() {
                        match target {
                            CallTarget::Direct(rid, _) => {
                                c.return_arcs += self.cfgs[rid.index()].exits().len().max(1);
                            }
                            CallTarget::IndirectKnown(list) => {
                                for (rid, _) in list {
                                    c.return_arcs += self.cfgs[rid.index()].exits().len().max(1);
                                }
                            }
                            CallTarget::IndirectUnknown | CallTarget::IndirectHinted { .. } => {
                                c.return_arcs += 1
                            }
                        }
                    }
                    // A call block flows into the callee; the fall-through
                    // arc to the return point exists only through the
                    // callee and is represented by the call/return arcs.
                }
            }
        }
        c
    }

    /// Total basic blocks (convenience for Table 2's "Basic Blocks").
    pub fn total_blocks(&self) -> usize {
        self.cfgs.iter().map(|c| c.blocks().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;

    #[test]
    fn counts_cover_calls_and_returns() {
        let mut b = ProgramBuilder::new();
        // main: one call to f; f: two exits.
        b.routine("main").call("f").halt();
        b.routine("f")
            .cond(spike_isa::BranchCond::Eq, Reg::A0, "second")
            .ret()
            .label("second")
            .ret();
        let p = b.build().unwrap();
        let pcfg = ProgramCfg::build(&p);

        let c = pcfg.counts();
        // main: 2 blocks (call, halt); f: 3 blocks (cond, ret, ret).
        assert_eq!(c.basic_blocks, 5);
        // intra arcs: f's cond has 2 successors.
        assert_eq!(c.intra_arcs, 2);
        // one call arc main->f; two return arcs f.exit{1,2}->main.return.
        assert_eq!(c.call_arcs, 1);
        assert_eq!(c.return_arcs, 2);
        assert_eq!(c.total_arcs(), 5);
        assert_eq!(pcfg.total_blocks(), 5);
    }

    #[test]
    fn indirect_calls_count_per_target() {
        let mut b = ProgramBuilder::new();
        b.routine("main").jsr_known(Reg::PV, &["f", "g"]).jsr_unknown(Reg::PV).halt();
        b.routine("f").ret();
        b.routine("g").ret();
        let p = b.build().unwrap();
        let c = ProgramCfg::build(&p).counts();
        // Known indirect: 2 call arcs + 2 return arcs. Unknown: 1 + 1.
        assert_eq!(c.call_arcs, 3);
        assert_eq!(c.return_arcs, 3);
    }

    #[test]
    fn routine_cfgs_are_indexed_by_id() {
        let mut b = ProgramBuilder::new();
        b.routine("a").halt();
        b.routine("b").ret();
        let p = b.build().unwrap();
        let pcfg = ProgramCfg::build(&p);
        let idb = p.routine_by_name("b").unwrap();
        assert_eq!(pcfg.routine_cfg(idb).routine(), idb);
        assert_eq!(pcfg.cfgs().len(), 2);
    }
}
