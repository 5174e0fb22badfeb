//! # spike-program
//!
//! Whole-program representation for the Spike reproduction: routines with
//! one or more entry points, jump tables for multiway branches, indirect
//! call target metadata, and a binary executable image format with a writer
//! and loader.
//!
//! Spike is a *post-link-time* optimizer: its input is a linked executable,
//! not compiler IR. This crate supplies that substrate:
//!
//! * [`Program`] — an immutable, validated whole program: a list of
//!   [`Routine`]s laid out at word addresses, the jump tables extracted
//!   from the image (§3.5 of the paper), and per-call-site indirect target
//!   information,
//! * [`ProgramBuilder`] — an assembler-like builder with labels, used by
//!   tests, fixtures and the synthetic benchmark generator,
//! * [`Program::to_image`] / [`Program::from_image`] — serialize a program
//!   into a flat binary image (magic, symbol table, code words, jump
//!   tables, auxiliary call-target info) and load it back by decoding every
//!   instruction word.
//!
//! # Example
//!
//! ```
//! use spike_isa::{AluOp, Reg};
//! use spike_program::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! b.routine("main")
//!     .def(Reg::A0)
//!     .call("double")
//!     .put_int()
//!     .halt();
//! b.routine("double")
//!     .op(AluOp::Add, Reg::A0, Reg::A0, Reg::V0)
//!     .ret();
//! let program = b.build()?;
//!
//! // Round-trip through the executable image.
//! let image = program.to_image();
//! let loaded = spike_program::Program::from_image(&image)?;
//! assert_eq!(loaded, program);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod builder;
mod image;
mod program;
mod rewrite;
mod routine;

pub use builder::{BuildError, ProgramBuilder, RoutineBuilder};
pub use image::ImageError;
pub use program::{IndirectTargets, Program, ProgramError};
pub use rewrite::{RewriteError, Rewriter};
pub use routine::{Routine, RoutineId};

/// Word address at which the first routine is laid out.
pub const BASE_ADDR: u32 = 0x400;
