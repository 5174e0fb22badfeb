//! # spike
//!
//! A Rust reproduction of **Spike**, Digital's post-link-time optimizer
//! for Alpha/NT executables, as described in David W. Goodwin,
//! *Interprocedural Dataflow Analysis in an Executable Optimizer*,
//! PLDI 1997.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`isa`] | `spike-isa` | registers, calling standard, instructions, binary encoding |
//! | [`program`] | `spike-program` | routines, jump tables, executable images, relinking rewriter |
//! | [`cfg`](mod@cfg) | `spike-cfg` | basic blocks, CFG construction, whole-program supergraph |
//! | [`callgraph`] | `spike-callgraph` | call graph, Tarjan SCCs, bottom-up ordering |
//! | [`asm`] | `spike-asm` | textual assembly: parser and writer with exact round-tripping |
//! | [`core`] | `spike-core` | the Program Summary Graph and the two-phase interprocedural dataflow |
//! | [`baseline`] | `spike-baseline` | the same analysis over the full CFG (comparison oracle) |
//! | [`opt`] | `spike-opt` | the Figure 1 summary-driven optimizations |
//! | [`lint`] | `spike-lint` | interprocedural static checks with a simulator-backed oracle |
//! | [`sim`] | `spike-sim` | an interpreter used as a soundness oracle |
//! | [`profile`] | `spike-profile` | versioned on-disk execution profiles: collect, merge, verify |
//! | [`synth`] | `spike-synth` | paper-calibrated synthetic benchmark generators |
//!
//! # Quick start
//!
//! ```
//! use spike::isa::Reg;
//! use spike::program::ProgramBuilder;
//!
//! // Assemble a two-routine program, as a linker would lay it out.
//! let mut b = ProgramBuilder::new();
//! b.routine("main").def(Reg::A0).call("double").put_int().halt();
//! b.routine("double")
//!     .op(spike::isa::AluOp::Add, Reg::A0, Reg::A0, Reg::V0)
//!     .ret();
//! let program = b.build()?;
//!
//! // Run Spike's interprocedural dataflow analysis.
//! let analysis = spike::core::analyze(&program);
//! let double = program.routine_by_name("double").unwrap();
//! let summary = analysis.summary.routine(double);
//! assert!(summary.call_used[0].contains(Reg::A0));
//! assert!(summary.call_defined[0].contains(Reg::V0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios: the worked
//! example from the paper, the Figure 1 optimizations, image round-trips,
//! and the PSG-vs-CFG comparison.

#![forbid(unsafe_code)]

pub use spike_asm as asm;
pub use spike_baseline as baseline;
pub use spike_callgraph as callgraph;
pub use spike_cfg as cfg;
pub use spike_core as core;
pub use spike_isa as isa;
pub use spike_lint as lint;
pub use spike_opt as opt;
pub use spike_profile as profile;
pub use spike_program as program;
pub use spike_sim as sim;
pub use spike_synth as synth;
