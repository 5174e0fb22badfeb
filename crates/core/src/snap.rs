//! [`Snap`] encodings for the converged analysis: the PSG, routine
//! summaries, stack-slot analysis, CFGs, and the stage statistics —
//! everything `spike-served` keeps per warm cache entry.
//!
//! Every struct among them is declared through
//! [`spike_isa::analysis_struct!`], which derives its `Snap` impl from
//! the field list together with `HeapSize` and `CloneExact`: a struct
//! encodes as its fields in declaration order, so reordering the fields
//! of one is a snapshot `FORMAT_VERSION` bump. This module holds only
//! what a field walk cannot infer: the id widths and the tag numbers of
//! [`NodeKind`] and [`EdgeKind`] (the CFG's own live in `spike-cfg`).
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

use crate::analysis::AnalysisOptions;
use crate::psg::{EdgeId, EdgeKind, NodeId, NodeKind};

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

/// A 64-bit FNV-1a fingerprint of the semantics-affecting analysis
/// options. Snapshot files carry it so a daemon only restores entries
/// produced under its *own* configuration — an entry analyzed with a
/// different calling standard or filter setting would be silently
/// wrong, not just stale.
///
/// `threads` is excluded because it is inert (the front end is serial);
/// zeroing it keeps existing fingerprints where they were.
pub fn options_fingerprint(options: &AnalysisOptions) -> u64 {
    let mut w = SnapWriter::new();
    AnalysisOptions { threads: 0, ..options.clone() }.snap(&mut w);
    fnv64(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_with, Analysis};
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
        assert_eq!(back.heap_bytes(), a.stats.memory_bytes);
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

    /// Every strict prefix of an encoding fails to decode — with an
    /// error, never a panic — whichever field the cut lands in.
    #[test]
    fn every_truncated_analysis_payload_errors_cleanly() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .switch(Reg::T0, &["a", "b", "c"])
            .label("a")
            .call("leaf")
            .label("b")
            .def(Reg::A0)
            .label("c")
            .halt();
        b.routine("leaf").copy(Reg::A0, Reg::V0).ret();
        let p = b.build().unwrap();
        let a = analyze_with(&p, &AnalysisOptions::default());
        let mut w = SnapWriter::new();
        a.snap(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(Analysis::unsnap(&mut r).is_err(), "cut at {cut} must not decode");
        }
        assert!(Analysis::unsnap(&mut SnapReader::new(&bytes)).is_ok());
    }

    #[test]
    fn tables_that_do_not_fit_the_graph_are_named() {
        let (_, a) = sample_analysis();
        assert_eq!(a.psg.check_tables(), Ok(()));
        let n = a.psg.nodes.len();
        let mut psg = a.psg.clone();
        psg.out_edges = spike_cfg::Csr::empty(n - 1);
        assert_eq!(psg.check_tables(), Err("out_edges"));
        let mut psg = a.psg.clone();
        psg.cr_sources = spike_cfg::Csr::empty(n);
        assert_eq!(psg.check_tables(), Err("cr_sources"), "one row per edge, not per node");
        let mut psg = a.psg.clone();
        psg.in_edges = spike_cfg::Csr::from_pairs(
            n,
            [(0, crate::EdgeId::from_index(psg.edges.len()))].into_iter(),
        );
        assert_eq!(psg.check_tables(), Err("in_edges"), "an edge id past the last edge");
        let mut psg = a.psg;
        psg.live.pop();
        assert_eq!(psg.check_tables(), Err("node values"));
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
