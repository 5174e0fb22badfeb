//! Routines: contiguous instruction sequences with one or more entrances.

use std::fmt;
use std::sync::Arc;

use spike_isa::{HeapSize, Instruction};

/// Identifies a routine within a [`crate::Program`].
///
/// Routine ids are dense indices assigned in layout order; they are only
/// meaningful relative to the program that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoutineId(u32);

impl RoutineId {
    /// Creates an id from a dense index.
    #[inline]
    pub const fn from_index(index: usize) -> RoutineId {
        RoutineId(index as u32)
    }

    /// The dense index of this routine.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RoutineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RoutineId({})", self.0)
    }
}

impl fmt::Display for RoutineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "routine#{}", self.0)
    }
}

/// A routine: the instructions generated for one high-level procedure.
///
/// Instructions occupy consecutive word addresses starting at
/// [`Routine::addr`]. A routine has one *primary* entrance at offset 0 and
/// may have alternate entrances (offsets in [`Routine::entry_offsets`]);
/// exits are its `ret` instructions. A routine marked
/// [`exported`](Routine::exported) may be called from outside the program,
/// so conservative calling-standard assumptions apply to its unseen callers
/// (§3.5 of the paper).
///
/// The instructions are an `Arc<[Instruction]>`: a routine an edit did
/// not touch shares its array with the program it came from (the donor
/// of [`Program::from_image_sharing`](crate::Program::from_image_sharing),
/// the input of [`Rewriter::finish`](crate::Rewriter::finish)), whatever
/// its address.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Routine {
    name: String,
    addr: u32,
    insns: Arc<[Instruction]>,
    entry_offsets: Vec<u32>,
    exported: bool,
}

impl Routine {
    /// Creates a routine; `insns` is copied into a new shared array.
    ///
    /// # Panics
    ///
    /// Panics if `insns` is empty, if `entry_offsets` is empty, does not
    /// start with 0, is not strictly increasing, or indexes past the end of
    /// `insns`.
    pub fn new(
        name: impl Into<String>,
        addr: u32,
        insns: Vec<Instruction>,
        entry_offsets: Vec<u32>,
        exported: bool,
    ) -> Routine {
        Routine::with_shared_insns(name, addr, insns.into(), entry_offsets, exported)
    }

    /// [`Routine::new`] over an instruction array that may be shared with
    /// other routines (of this program or another); nothing is copied.
    ///
    /// # Panics
    ///
    /// As [`Routine::new`].
    pub(crate) fn with_shared_insns(
        name: impl Into<String>,
        addr: u32,
        insns: Arc<[Instruction]>,
        entry_offsets: Vec<u32>,
        exported: bool,
    ) -> Routine {
        assert!(!insns.is_empty(), "routine must contain instructions");
        assert_eq!(entry_offsets.first(), Some(&0), "first entrance must be offset 0");
        assert!(
            entry_offsets.windows(2).all(|w| w[0] < w[1]),
            "entry offsets must be strictly increasing"
        );
        assert!(
            entry_offsets.iter().all(|&o| (o as usize) < insns.len()),
            "entry offset out of range"
        );
        Routine { name: name.into(), addr, insns, entry_offsets, exported }
    }

    /// The routine's symbol name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Word address of the first instruction.
    #[inline]
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The instructions, in address order.
    #[inline]
    pub fn insns(&self) -> &[Instruction] {
        &self.insns
    }

    /// The shared instruction array, for building another routine over
    /// the same instructions without copying them.
    #[inline]
    pub(crate) fn shared_insns(&self) -> &Arc<[Instruction]> {
        &self.insns
    }

    /// Whether this routine and `other` hold the very same instruction
    /// array (not merely equal instructions).
    #[inline]
    pub fn shares_insns_with(&self, other: &Routine) -> bool {
        Arc::ptr_eq(&self.insns, &other.insns)
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the routine is empty (never true for validated routines).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// One past the last word address of the routine.
    #[inline]
    pub fn end_addr(&self) -> u32 {
        self.addr + self.insns.len() as u32
    }

    /// Whether `addr` lies within this routine.
    #[inline]
    pub fn contains_addr(&self, addr: u32) -> bool {
        (self.addr..self.end_addr()).contains(&addr)
    }

    /// Instruction offsets (from [`Routine::addr`]) of each entrance; the
    /// first is always 0.
    #[inline]
    pub fn entry_offsets(&self) -> &[u32] {
        &self.entry_offsets
    }

    /// Word addresses of each entrance.
    pub fn entry_addrs(&self) -> impl Iterator<Item = u32> + '_ {
        self.entry_offsets.iter().map(move |&o| self.addr + o)
    }

    /// Whether the routine may be called from outside the program.
    #[inline]
    pub fn exported(&self) -> bool {
        self.exported
    }

    /// The instruction at word address `addr`, if it lies in this routine.
    pub fn insn_at(&self, addr: u32) -> Option<&Instruction> {
        if !self.contains_addr(addr) {
            return None;
        }
        self.insns.get((addr - self.addr) as usize)
    }
}

impl HeapSize for Routine {
    fn heap_bytes(&self) -> usize {
        self.name.heap_bytes() + self.insns.heap_bytes() + self.entry_offsets.heap_bytes()
    }
}

impl fmt::Display for Routine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:  ; addr={:#x} len={}", self.name, self.addr, self.insns.len())?;
        for (i, insn) in self.insns.iter().enumerate() {
            writeln!(f, "  {:#06x}: {insn}", self.addr + i as u32)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::Reg;

    fn r() -> Routine {
        Routine::new(
            "f",
            0x400,
            vec![
                Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: 1 },
                Instruction::Ret { base: Reg::RA },
            ],
            vec![0, 1],
            false,
        )
    }

    #[test]
    fn address_arithmetic() {
        let r = r();
        assert_eq!(r.addr(), 0x400);
        assert_eq!(r.end_addr(), 0x402);
        assert!(r.contains_addr(0x400));
        assert!(r.contains_addr(0x401));
        assert!(!r.contains_addr(0x402));
        assert!(!r.contains_addr(0x3FF));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn insn_at_indexes_by_address() {
        let r = r();
        assert_eq!(r.insn_at(0x401), Some(&Instruction::Ret { base: Reg::RA }));
        assert_eq!(r.insn_at(0x402), None);
    }

    #[test]
    fn entry_addrs_offset_from_base() {
        let r = r();
        let entries: Vec<u32> = r.entry_addrs().collect();
        assert_eq!(entries, vec![0x400, 0x401]);
    }

    #[test]
    #[should_panic(expected = "first entrance must be offset 0")]
    fn rejects_missing_primary_entry() {
        let _ = Routine::new("f", 0, vec![Instruction::Ret { base: Reg::RA }], vec![], false);
    }

    #[test]
    #[should_panic(expected = "entry offset out of range")]
    fn rejects_entry_past_end() {
        let _ = Routine::new("f", 0, vec![Instruction::Ret { base: Reg::RA }], vec![0, 5], false);
    }

    #[test]
    fn routine_id_round_trips() {
        let id = RoutineId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "routine#7");
    }
}
