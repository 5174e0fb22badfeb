//! [`Snap`] encodings for the converged analysis: the PSG, routine
//! summaries, stack-slot analysis, CFGs, and the stage statistics —
//! everything `spike-served` keeps per warm cache entry.
//!
//! The contract mirrors [`CloneExact`](spike_isa::CloneExact): a
//! decoded `Analysis` is indistinguishable from a live one, down to
//! `Vec` capacities and therefore down to
//! [`AnalysisStats::memory_bytes`]. That is what lets a snapshot
//! restore feed [`AnalysisCache::from_analysis`](crate::AnalysisCache)
//! as a re-analysis donor without tripping the incremental engine's
//! bit-identical-to-scratch assertions.
//!
//! The [`Program`](spike_program::Program) itself is *not* encoded
//! here: image bytes are the canonical program representation, and
//! `Program::from_image` is deterministic — snapshot containers store
//! the image and re-parse.

use spike_isa::{fnv64, Snap, SnapError, SnapReader, SnapWriter};

use crate::analysis::{Analysis, AnalysisOptions, AnalysisStats};
use crate::psg::{Edge, EdgeId, EdgeKind, NodeId, NodeKind, Psg, RoutineNodes};
use crate::stack::{FrameModel, RoutineStack, Slot, StackSummary};
use crate::summary::RoutineSummary;

impl Snap for NodeId {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.index() as u32);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NodeId::from_index(r.get_u32()? as usize))
    }
}

impl Snap for EdgeId {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.index() as u32);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(EdgeId::from_index(r.get_u32()? as usize))
    }
}

impl Snap for NodeKind {
    fn snap(&self, w: &mut SnapWriter) {
        match *self {
            NodeKind::Entry { routine, index } => {
                w.put_u8(0);
                routine.snap(w);
                index.snap(w);
            }
            NodeKind::Exit { routine, index } => {
                w.put_u8(1);
                routine.snap(w);
                index.snap(w);
            }
            NodeKind::Call { routine, block } => {
                w.put_u8(2);
                routine.snap(w);
                block.snap(w);
            }
            NodeKind::Return { routine, block } => {
                w.put_u8(3);
                routine.snap(w);
                block.snap(w);
            }
            NodeKind::Branch { routine, block } => {
                w.put_u8(4);
                routine.snap(w);
                block.snap(w);
            }
            NodeKind::Halt { routine, block } => {
                w.put_u8(5);
                routine.snap(w);
                block.snap(w);
            }
            NodeKind::UnknownJump { routine, block } => {
                w.put_u8(6);
                routine.snap(w);
                block.snap(w);
            }
            NodeKind::Diverge { routine } => {
                w.put_u8(7);
                routine.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let tag = r.get_u8()?;
        let routine = Snap::unsnap(r)?;
        Ok(match tag {
            0 => NodeKind::Entry { routine, index: Snap::unsnap(r)? },
            1 => NodeKind::Exit { routine, index: Snap::unsnap(r)? },
            2 => NodeKind::Call { routine, block: Snap::unsnap(r)? },
            3 => NodeKind::Return { routine, block: Snap::unsnap(r)? },
            4 => NodeKind::Branch { routine, block: Snap::unsnap(r)? },
            5 => NodeKind::Halt { routine, block: Snap::unsnap(r)? },
            6 => NodeKind::UnknownJump { routine, block: Snap::unsnap(r)? },
            7 => NodeKind::Diverge { routine },
            _ => return Err(SnapError::Malformed("node kind tag")),
        })
    }
}

impl Snap for EdgeKind {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(match self {
            EdgeKind::FlowSummary => 0,
            EdgeKind::CallReturn => 1,
        });
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(EdgeKind::FlowSummary),
            1 => Ok(EdgeKind::CallReturn),
            _ => Err(SnapError::Malformed("edge kind tag")),
        }
    }
}

impl Snap for Edge {
    fn snap(&self, w: &mut SnapWriter) {
        self.from.snap(w);
        self.to.snap(w);
        self.kind.snap(w);
        self.may_use.snap(w);
        self.may_def.snap(w);
        self.must_def.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Edge {
            from: Snap::unsnap(r)?,
            to: Snap::unsnap(r)?,
            kind: Snap::unsnap(r)?,
            may_use: Snap::unsnap(r)?,
            may_def: Snap::unsnap(r)?,
            must_def: Snap::unsnap(r)?,
        })
    }
}

impl Snap for RoutineNodes {
    fn snap(&self, w: &mut SnapWriter) {
        self.entries.snap(w);
        self.exits.snap(w);
        self.calls.snap(w);
        self.branches.snap(w);
        self.halts.snap(w);
        self.unknown_jumps.snap(w);
        self.diverge.snap(w);
        self.saved_restored.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(RoutineNodes {
            entries: Snap::unsnap(r)?,
            exits: Snap::unsnap(r)?,
            calls: Snap::unsnap(r)?,
            branches: Snap::unsnap(r)?,
            halts: Snap::unsnap(r)?,
            unknown_jumps: Snap::unsnap(r)?,
            diverge: Snap::unsnap(r)?,
            saved_restored: Snap::unsnap(r)?,
        })
    }
}

impl Snap for Psg {
    fn snap(&self, w: &mut SnapWriter) {
        self.nodes.snap(w);
        self.edges.snap(w);
        self.out_edges.snap(w);
        self.in_edges.snap(w);
        self.routines.snap(w);
        self.cr_sources.snap(w);
        self.entry_cr_edges.snap(w);
        self.return_exit_targets.snap(w);
        self.pinned.snap(w);
        self.uj_live.snap(w);
        self.may_use.snap(w);
        self.may_def.snap(w);
        self.must_def.snap(w);
        self.live.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Psg {
            nodes: Snap::unsnap(r)?,
            edges: Snap::unsnap(r)?,
            out_edges: Snap::unsnap(r)?,
            in_edges: Snap::unsnap(r)?,
            routines: Snap::unsnap(r)?,
            cr_sources: Snap::unsnap(r)?,
            entry_cr_edges: Snap::unsnap(r)?,
            return_exit_targets: Snap::unsnap(r)?,
            pinned: Snap::unsnap(r)?,
            uj_live: Snap::unsnap(r)?,
            may_use: Snap::unsnap(r)?,
            may_def: Snap::unsnap(r)?,
            must_def: Snap::unsnap(r)?,
            live: Snap::unsnap(r)?,
        })
    }
}

impl Snap for RoutineSummary {
    fn snap(&self, w: &mut SnapWriter) {
        self.call_used.snap(w);
        self.call_defined.snap(w);
        self.call_killed.snap(w);
        self.live_at_entry.snap(w);
        self.live_at_exit.snap(w);
        self.saved_restored.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(RoutineSummary {
            call_used: Snap::unsnap(r)?,
            call_defined: Snap::unsnap(r)?,
            call_killed: Snap::unsnap(r)?,
            live_at_entry: Snap::unsnap(r)?,
            live_at_exit: Snap::unsnap(r)?,
            saved_restored: Snap::unsnap(r)?,
        })
    }
}

impl Snap for Slot {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_i64(self.entry_off);
        self.width.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Slot { entry_off: r.get_i64()?, width: Snap::unsnap(r)? })
    }
}

impl Snap for FrameModel {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_i64(self.frame_size);
        self.slots.snap(w);
        self.escaped.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FrameModel {
            frame_size: r.get_i64()?,
            slots: Snap::unsnap(r)?,
            escaped: Snap::unsnap(r)?,
        })
    }
}

impl Snap for StackSummary {
    fn snap(&self, w: &mut SnapWriter) {
        self.unbalanced.snap(w);
        self.opaque.snap(w);
        self.refs_above.snap(w);
        self.mods_above.snap(w);
        self.kills_above.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(StackSummary {
            unbalanced: Snap::unsnap(r)?,
            opaque: Snap::unsnap(r)?,
            refs_above: Snap::unsnap(r)?,
            mods_above: Snap::unsnap(r)?,
            kills_above: Snap::unsnap(r)?,
        })
    }
}

impl Snap for RoutineStack {
    fn snap(&self, w: &mut SnapWriter) {
        self.frame.snap(w);
        self.summary.snap(w);
        self.sp_disp_in.snap(w);
        self.must_defined_in.snap(w);
        self.live_out.snap(w);
        self.cyclic.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(RoutineStack {
            frame: Snap::unsnap(r)?,
            summary: Snap::unsnap(r)?,
            sp_disp_in: Snap::unsnap(r)?,
            must_defined_in: Snap::unsnap(r)?,
            live_out: Snap::unsnap(r)?,
            cyclic: Snap::unsnap(r)?,
        })
    }
}

impl Snap for AnalysisStats {
    fn snap(&self, w: &mut SnapWriter) {
        self.cfg_build.snap(w);
        self.init.snap(w);
        self.psg_build.snap(w);
        self.phase1.snap(w);
        self.phase2.snap(w);
        self.stack_build.snap(w);
        self.phase1_visits.snap(w);
        self.phase2_visits.snap(w);
        self.stack_forward_visits.snap(w);
        self.stack_backward_visits.snap(w);
        self.stack_summary_evals.snap(w);
        self.front_end_workers.snap(w);
        self.waves.snap(w);
        self.routines_reanalyzed.snap(w);
        self.routines_reused.snap(w);
        self.memory_bytes.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(AnalysisStats {
            cfg_build: Snap::unsnap(r)?,
            init: Snap::unsnap(r)?,
            psg_build: Snap::unsnap(r)?,
            phase1: Snap::unsnap(r)?,
            phase2: Snap::unsnap(r)?,
            stack_build: Snap::unsnap(r)?,
            phase1_visits: Snap::unsnap(r)?,
            phase2_visits: Snap::unsnap(r)?,
            stack_forward_visits: Snap::unsnap(r)?,
            stack_backward_visits: Snap::unsnap(r)?,
            stack_summary_evals: Snap::unsnap(r)?,
            front_end_workers: Snap::unsnap(r)?,
            waves: Snap::unsnap(r)?,
            routines_reanalyzed: Snap::unsnap(r)?,
            routines_reused: Snap::unsnap(r)?,
            memory_bytes: Snap::unsnap(r)?,
        })
    }
}

impl Snap for Analysis {
    fn snap(&self, w: &mut SnapWriter) {
        self.psg.snap(w);
        self.summary.snap(w);
        self.stack.snap(w);
        self.cfg.snap(w);
        self.stats.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Analysis {
            psg: Snap::unsnap(r)?,
            summary: Snap::unsnap(r)?,
            stack: Snap::unsnap(r)?,
            cfg: Snap::unsnap(r)?,
            stats: Snap::unsnap(r)?,
        })
    }
}

impl Snap for AnalysisOptions {
    fn snap(&self, w: &mut SnapWriter) {
        self.branch_nodes.snap(w);
        self.callee_saved_filter.snap(w);
        self.calling_standard.snap(w);
        self.exported_live_at_exit.snap(w);
        self.threads.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(AnalysisOptions {
            branch_nodes: Snap::unsnap(r)?,
            callee_saved_filter: Snap::unsnap(r)?,
            calling_standard: Snap::unsnap(r)?,
            exported_live_at_exit: Snap::unsnap(r)?,
            threads: Snap::unsnap(r)?,
        })
    }
}

/// A 64-bit FNV-1a fingerprint of the semantics-affecting analysis
/// options. Snapshot files carry it so a daemon only restores entries
/// produced under its *own* configuration — an entry analyzed with a
/// different calling standard or filter setting would be silently
/// wrong, not just stale.
///
/// `threads` is deliberately excluded: results (including
/// `memory_bytes`) are bit-identical at every worker count, so a
/// snapshot from a 4-worker daemon is valid donor state for an
/// 8-worker one.
pub fn options_fingerprint(options: &AnalysisOptions) -> u64 {
    let mut w = SnapWriter::new();
    AnalysisOptions { threads: 0, ..options.clone() }.snap(&mut w);
    fnv64(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_with;
    use spike_isa::{HeapSize, Reg, RegSet};
    use spike_program::ProgramBuilder;

    fn sample_analysis() -> (spike_program::Program, Analysis) {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("mid").put_int().halt();
        b.routine("mid").def(Reg::T0).call("leaf").ret();
        b.routine("leaf").copy(Reg::A0, Reg::V0).ret();
        let p = b.build().unwrap();
        let a = analyze_with(&p, &AnalysisOptions::default());
        (p, a)
    }

    #[test]
    fn analysis_roundtrips_bit_identically() {
        let (_, a) = sample_analysis();
        let mut w = SnapWriter::new();
        a.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = Analysis::unsnap(&mut r).expect("analysis decodes");
        assert!(r.is_exhausted(), "decoder must consume the whole payload");
        assert_eq!(back.psg, a.psg);
        assert_eq!(back.summary, a.summary);
        assert_eq!(back.stack, a.stack);
        assert_eq!(back.cfg, a.cfg);
        // Stats have no PartialEq; the Debug rendering covers every field.
        assert_eq!(format!("{:?}", back.stats), format!("{:?}", a.stats));
        // The capacity contract: the restored analysis charges exactly
        // the same memory as the live one, like CloneExact does.
        assert_eq!(
            back.cfg.heap_bytes()
                + back.psg.heap_bytes()
                + back.summary.heap_bytes()
                + back.stack.heap_bytes(),
            a.stats.memory_bytes
        );
    }

    #[test]
    fn restored_analysis_is_a_valid_incremental_donor() {
        // The real consumer: a decoded analysis seeds an AnalysisCache
        // and must behave exactly like a CloneExact fork of the live
        // one (debug builds assert equality with a scratch run inside
        // reanalyze, including memory_bytes).
        let (p, a) = sample_analysis();
        let mut w = SnapWriter::new();
        a.snap(&mut w);
        let bytes = w.into_bytes();
        let back = Analysis::unsnap(&mut SnapReader::new(&bytes)).unwrap();

        let mut cache = crate::AnalysisCache::from_analysis(AnalysisOptions::default(), back);
        let dirty: Vec<_> = p.iter().map(|(rid, _)| rid).take(1).collect();
        cache.reanalyze(&p, &dirty);
        let re = cache.into_analysis().unwrap();
        let scratch = analyze_with(&p, &AnalysisOptions::default());
        assert_eq!(re.summary, scratch.summary);
        assert_eq!(re.stats.memory_bytes, scratch.stats.memory_bytes);
    }

    #[test]
    fn truncated_analysis_payloads_error_cleanly() {
        let (_, a) = sample_analysis();
        let mut w = SnapWriter::new();
        a.snap(&mut w);
        let bytes = w.into_bytes();
        // Sample cut points across the payload (every offset would take
        // minutes on a payload this size).
        for cut in (0..bytes.len()).step_by(97) {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(Analysis::unsnap(&mut r).is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn options_fingerprint_tracks_semantics_not_threads() {
        let base = AnalysisOptions::default();
        let fp = options_fingerprint(&base);
        assert_eq!(fp, options_fingerprint(&AnalysisOptions { threads: 7, ..base.clone() }));
        assert_ne!(
            fp,
            options_fingerprint(&AnalysisOptions { branch_nodes: false, ..base.clone() })
        );
        assert_ne!(
            fp,
            options_fingerprint(&AnalysisOptions {
                exported_live_at_exit: RegSet::of(&[Reg::S0]),
                ..base
            })
        );
    }
}
