//! # spike-core
//!
//! The paper's primary contribution: interprocedural register dataflow
//! analysis over a compact **Program Summary Graph** (PSG), as implemented
//! in Spike, Digital's post-link-time optimizer for Alpha/NT executables
//! (Goodwin, *Interprocedural Dataflow Analysis in an Executable
//! Optimizer*, PLDI 1997).
//!
//! For every routine the analysis produces (§2):
//!
//! * **call-used** — registers a call to the routine may read before
//!   writing (`MAY-USE` at its entry),
//! * **call-defined** — registers a call must write (`MUST-DEF`),
//! * **call-killed** — registers a call may overwrite (`MAY-DEF`),
//! * **live-at-entry** / **live-at-exit** — registers live at each
//!   entrance and exit, computed as a meet-over-all-*valid*-paths solution
//!   (callee paths must return to their call site).
//!
//! The pipeline (§3) is: build each routine's CFG and `DEF`/`UBD` sets,
//! chop the CFG at summary points into PSG nodes (entry, exit, call,
//! return, and §3.6 branch nodes), label each flow-summary edge by solving
//! the Figure-6 equations over the edge's CFG subgraph, then run two
//! worklist phases: phase 1 (Figure 8) flows callee summaries to call
//! sites; phase 2 (Figure 10) flows caller liveness back into callees.
//!
//! # Quick start
//!
//! ```
//! use spike_isa::Reg;
//! use spike_program::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! b.routine("main").def(Reg::A0).call("double").put_int().halt();
//! b.routine("double")
//!     .op(spike_isa::AluOp::Add, Reg::A0, Reg::A0, Reg::V0)
//!     .ret();
//! let program = b.build()?;
//!
//! let analysis = spike_core::analyze(&program);
//! let double = program.routine_by_name("double").unwrap();
//! let summary = analysis.summary.routine(double);
//! assert!(summary.call_used[0].contains(Reg::A0));   // reads its argument
//! assert!(summary.call_defined[0].contains(Reg::V0)); // writes its result
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod analysis;
mod build;
mod callee_saved;
mod dataflow;
mod dot;
mod flow;
mod incremental;
pub mod json;
pub mod parallel;
mod psg;
mod query;
mod snap;
mod stack;
mod summary;
pub mod worklist;

pub use analysis::{
    analyze, analyze_with, Analysis, AnalysisOptions, AnalysisStats, RegisterFacts,
};
pub use callee_saved::saved_restored_registers;
pub use incremental::{query_analysis, reanalyze, AnalysisCache};
pub use psg::{Edge, EdgeId, EdgeKind, NodeId, NodeKind, Psg, PsgStats, RoutineNodes};
pub use query::{Query, QueryAnswer, QueryStats};
pub use snap::options_fingerprint;
pub use stack::{
    analyze_stack, reanalyze_stack, AccessKind, CallDigest, FrameModel, RoutineStack, Slot,
    SlotSet, StackAccess, StackAnalysis, StackStats, StackSummary,
};
pub use summary::{CallSiteSummary, ProgramSummary, RoutineSummary};
