//! # spike-isa
//!
//! The synthetic Alpha-like instruction set architecture used by the Spike
//! reproduction.
//!
//! The PLDI'97 paper analyzed Alpha/NT executables. This crate provides the
//! subset of architectural knowledge that Spike's interprocedural dataflow
//! analysis actually consumes:
//!
//! * a register file of 32 integer + 32 floating-point registers
//!   ([`Reg`]), with dense bitset operations over them ([`RegSet`]),
//! * the Alpha/NT calling standard register roles ([`CallingStandard`]):
//!   argument, return-value, temporary (caller-saved), callee-saved and
//!   special registers,
//! * a concrete instruction set ([`Instruction`]) with per-instruction
//!   definition and use sets, covering ALU operations, loads/stores,
//!   conditional branches, multiway (jump-table) jumps, direct and indirect
//!   calls, and returns,
//! * a 32-bit binary encoding ([`Instruction::encode`] /
//!   [`Instruction::decode`]) so that programs can round-trip through an
//!   executable image, exercising the *post-link-time* nature of the system,
//! * deterministic memory accounting ([`HeapSize`]) used to reproduce the
//!   paper's memory-usage results.
//!
//! # Example
//!
//! ```
//! use spike_isa::{AluOp, Instruction, Reg, RegSet};
//!
//! // t0 = a0 + a1
//! let insn = Instruction::Operate {
//!     op: AluOp::Add,
//!     ra: Reg::A0,
//!     rb: Reg::A1,
//!     rc: Reg::T0,
//! };
//! assert_eq!(insn.uses(), RegSet::of(&[Reg::A0, Reg::A1]));
//! assert_eq!(insn.defs(), RegSet::of(&[Reg::T0]));
//!
//! // Round-trip through the binary encoding.
//! let word = insn.encode();
//! assert_eq!(Instruction::decode(word).unwrap(), insn);
//! ```

#![forbid(unsafe_code)]

mod callstd;
mod insn;
mod mem;
mod reg;
mod regset;
mod snap;

pub use callstd::CallingStandard;
pub use insn::{AluOp, BranchCond, DecodeError, FpOp, Instruction, MemWidth};
pub use mem::{CloneExact, HeapSize};
pub use reg::{Reg, NUM_REGS};
pub use regset::RegSet;
pub use snap::{fnv128, fnv64, Snap, SnapError, SnapReader, SnapWriter};
