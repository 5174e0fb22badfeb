//! Basic blocks and their terminators.

use std::fmt;

use spike_isa::{HeapSize, RegSet};
use spike_program::RoutineId;

/// Identifies a basic block within one [`crate::RoutineCfg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates an id from a dense index.
    #[inline]
    pub const fn from_index(index: usize) -> BlockId {
        BlockId(index as u32)
    }

    /// The dense index of this block.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl HeapSize for BlockId {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// The callee(s) of a call-terminated block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CallTarget {
    /// Direct call to a known routine entrance (`bsr`).
    Direct(RoutineId, usize),
    /// Indirect call whose possible targets were recovered from the image.
    IndirectKnown(Vec<(RoutineId, usize)>),
    /// Indirect call to an unknown target; the analysis applies the
    /// calling-standard assumptions of §3.5.
    IndirectUnknown,
    /// Indirect call to an external target with compiler-provided exact
    /// register effects (§3.5's suggested extension).
    IndirectHinted {
        /// Registers the call may read.
        used: RegSet,
        /// Registers the call must write.
        defined: RegSet,
        /// Registers the call may overwrite.
        killed: RegSet,
    },
}

impl HeapSize for CallTarget {
    fn heap_bytes(&self) -> usize {
        match self {
            CallTarget::IndirectKnown(v) => {
                v.capacity() * std::mem::size_of::<(RoutineId, usize)>()
            }
            _ => 0,
        }
    }
}

/// How a basic block ends.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TermKind {
    /// Control continues into the next block (the block ended only because
    /// its successor starts at a branch target or entrance).
    FallThrough,
    /// Conditional branch; successors are the fall-through block and the
    /// branch target.
    CondBranch,
    /// Unconditional branch.
    Branch,
    /// Multiway branch through a jump table extracted from the image
    /// (§3.5); successors are the table targets.
    MultiwayJump,
    /// Indirect jump whose targets could not be recovered; all registers
    /// are assumed live at the unknown target (§3.5). No intraprocedural
    /// successors.
    UnknownJump,
    /// Call; intraprocedural control resumes at `return_to` *after the
    /// callee runs*. The return point is deliberately **not** a CFG
    /// successor ([`crate::RoutineCfg::succs`]): paths from the call to
    /// the return point exist only through the callee, which is exactly
    /// what the PSG call-return edge models. The flow table
    /// ([`crate::RoutineCfg::flow`]) carries the arc for the
    /// routine-local solvers.
    Call {
        /// Who the call may target.
        target: CallTarget,
        /// The block at the call's fall-through address (the return
        /// point), or `None` if the call never returns into this routine
        /// (a call in the final block position cannot be assembled, so
        /// this is always `Some` for validated programs).
        return_to: Option<BlockId>,
    },
    /// Return from the routine; an exit.
    Ret,
    /// Program termination.
    Halt,
}

impl HeapSize for TermKind {
    fn heap_bytes(&self) -> usize {
        match self {
            TermKind::Call { target, .. } => target.heap_bytes(),
            _ => 0,
        }
    }
}

spike_isa::analysis_struct! {
    /// A basic block: a maximal single-entry straight-line instruction
    /// sequence, additionally ended at call instructions (the paper's block
    /// convention).
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct BasicBlock {
        pub(crate) start: u32,
        pub(crate) len: u32,
        pub(crate) def: RegSet,
        pub(crate) ubd: RegSet,
        pub(crate) term: TermKind,
    }
}

impl BasicBlock {
    /// Word address of the first instruction.
    #[inline]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the block holds no instructions (never true once built).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the last word address.
    #[inline]
    pub fn end(&self) -> u32 {
        self.start + self.len
    }

    /// Word address of the terminator (last instruction).
    #[inline]
    pub fn term_addr(&self) -> u32 {
        self.start + self.len - 1
    }

    /// Registers defined by the block (the paper's `DEF` set).
    #[inline]
    pub fn def(&self) -> RegSet {
        self.def
    }

    /// Registers used before being defined in the block (the paper's
    /// `UBD` set).
    #[inline]
    pub fn ubd(&self) -> RegSet {
        self.ubd
    }

    /// How the block ends.
    #[inline]
    pub fn term(&self) -> &TermKind {
        &self.term
    }

    /// Whether the block ends in a call.
    #[inline]
    pub fn is_call_block(&self) -> bool {
        matches!(self.term, TermKind::Call { .. })
    }
}
