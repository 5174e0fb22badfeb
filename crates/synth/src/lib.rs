//! # spike-synth
//!
//! Synthetic benchmark generation for the Spike reproduction.
//!
//! The paper evaluates on the SPEC95 integer suite and eight commercial PC
//! applications — binaries we cannot ship. This crate substitutes
//! deterministic, seeded generators:
//!
//! * [`profiles`] / [`generate`] — one [`Profile`] per paper benchmark,
//!   calibrated to the shape statistics of Tables 2 and 3 (routines,
//!   basic blocks, instructions, calls/branches/exits per routine) and to
//!   the Figure-12 loop patterns that drive the Table 4 branch-node
//!   ablation. Analysis cost depends on exactly these statistics, so the
//!   paper's relative results are preserved.
//! * [`generate_executable`] — smaller programs with a DAG call graph,
//!   bounded loops and strict register discipline, which terminate under
//!   `spike-sim` and serve as oracles for optimization soundness tests.
//! * [`generate_executable_with_defect`] — the same programs with one
//!   seeded defect (an uninitialized read or a callee-saved clobber),
//!   used as ground truth when testing `spike-lint`.
//!
//! # Example
//!
//! ```
//! let profile = spike_synth::profile("compress").expect("known benchmark");
//! // Scale to 10% of the paper's size for a quick run.
//! let program = spike_synth::generate(&profile, 0.1, 42);
//! assert!(program.routines().len() >= 2);
//! ```

#![forbid(unsafe_code)]

mod exec;
mod gen;
mod profiles;

pub use exec::{
    generate_executable, generate_executable_with_defect, try_generate_executable, DefectKind,
    InjectedDefect,
};
pub use gen::generate;
pub use profiles::{profile, profiles, Profile, Suite};
