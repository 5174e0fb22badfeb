//! # spike-cfg
//!
//! Control-flow graph construction over decoded routines.
//!
//! Spike's first analysis stage (the *CFG Build* and *Initialization*
//! stages of Figure 13 in the paper) turns each routine's instruction
//! sequence into basic blocks and computes, for every block, the `DEF` set
//! (registers defined in the block) and the `UBD` set (registers
//! used-before-defined in the block). Following the paper, **a basic block
//! is ended by a call instruction** as well as by branches; the
//! fall-through point after a call is the *return point* that later becomes
//! a PSG return node.
//!
//! The crate provides:
//!
//! * [`RoutineCfg`] — basic blocks, arcs, entry/exit blocks and per-block
//!   `DEF`/`UBD` for one routine ([`RoutineCfg::build`]),
//! * [`ProgramCfg`] — all routine CFGs plus the whole-program supergraph
//!   bookkeeping (call and return arcs) used by the full-CFG baseline
//!   analysis and by the Table 5 size comparison,
//! * the [`FlowArcs`] relation that adds the call → return-point arcs
//!   back, with its reverse-postorder ranks, shared by the dataflow
//!   solvers.
//!
//! # Example
//!
//! ```
//! use spike_isa::Reg;
//! use spike_program::ProgramBuilder;
//! use spike_cfg::RoutineCfg;
//!
//! let mut b = ProgramBuilder::new();
//! b.routine("main").def(Reg::A0).call("f").put_int().halt();
//! b.routine("f").use_reg(Reg::A0).def(Reg::V0).ret();
//! let program = b.build()?;
//!
//! let cfg = RoutineCfg::build(&program, program.routine_by_name("main").unwrap());
//! // `def a0; call f` — the call ends the first block.
//! assert_eq!(cfg.blocks().len(), 2);
//! assert!(cfg.blocks()[0].is_call_block());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod block;
mod blockset;
mod build;
mod dom;
mod flow;
mod loops;
mod program_cfg;
mod snap;

pub use block::{BasicBlock, BlockId, CallTarget, TermKind};
pub use blockset::BlockSet;
pub use build::RoutineCfg;
pub use dom::DomTree;
pub use flow::FlowArcs;
pub use loops::{LoopForest, NaturalLoop};
pub use program_cfg::{ProgramCfg, SupergraphCounts};
