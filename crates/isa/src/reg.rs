//! Architectural registers.

use std::fmt;

/// Total number of architectural registers: 32 integer + 32 floating-point.
pub const NUM_REGS: usize = 64;

/// An architectural register.
///
/// Registers `0..=31` are the integer registers `r0..r31`; registers
/// `32..=63` are the floating-point registers `f0..f31`. The Alpha
/// convention that `r31` and `f31` always read as zero (and writes to them
/// are discarded) is honoured by [`crate::Instruction::defs`] and
/// [`crate::Instruction::uses`].
///
/// ```
/// use spike_isa::Reg;
/// assert_eq!(Reg::V0.index(), 0);
/// assert_eq!(Reg::int(26), Reg::RA);
/// assert_eq!(Reg::RA.to_string(), "ra");
/// assert!(Reg::fp(2).is_fp());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Integer return-value register (`r0`, `v0`).
    pub const V0: Reg = Reg(0);
    /// First integer temporary (`r1`, `t0`).
    pub const T0: Reg = Reg(1);
    /// Second integer temporary (`r2`, `t1`).
    pub const T1: Reg = Reg(2);
    /// Third integer temporary (`r3`, `t2`).
    pub const T2: Reg = Reg(3);
    /// Fourth integer temporary (`r4`, `t3`).
    pub const T3: Reg = Reg(4);
    /// First callee-saved integer register (`r9`, `s0`).
    pub const S0: Reg = Reg(9);
    /// Second callee-saved integer register (`r10`, `s1`).
    pub const S1: Reg = Reg(10);
    /// Third callee-saved integer register (`r11`, `s2`).
    pub const S2: Reg = Reg(11);
    /// Frame pointer (`r15`, callee-saved).
    pub const FP: Reg = Reg(15);
    /// First integer argument register (`r16`, `a0`).
    pub const A0: Reg = Reg(16);
    /// Second integer argument register (`r17`, `a1`).
    pub const A1: Reg = Reg(17);
    /// Third integer argument register (`r18`, `a2`).
    pub const A2: Reg = Reg(18);
    /// Fourth integer argument register (`r19`, `a3`).
    pub const A3: Reg = Reg(19);
    /// Return-address register (`r26`, `ra`).
    pub const RA: Reg = Reg(26);
    /// Procedure-value register (`r27`, `pv`/`t12`); holds the address of
    /// the called routine at indirect call sites.
    pub const PV: Reg = Reg(27);
    /// Global pointer (`r29`, `gp`).
    pub const GP: Reg = Reg(29);
    /// Stack pointer (`r30`, `sp`).
    pub const SP: Reg = Reg(30);
    /// Integer zero register (`r31`); reads as zero, writes discarded.
    pub const ZERO: Reg = Reg(31);
    /// Floating-point return-value register (`f0`).
    pub const F0: Reg = Reg(32);
    /// Floating-point zero register (`f31`).
    pub const FZERO: Reg = Reg(63);

    /// Returns the integer register `rN`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[inline]
    pub const fn int(n: u8) -> Reg {
        assert!(n < 32, "integer register index out of range");
        Reg(n)
    }

    /// Returns the floating-point register `fN`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[inline]
    pub const fn fp(n: u8) -> Reg {
        assert!(n < 32, "floating-point register index out of range");
        Reg(32 + n)
    }

    /// Constructs a register from its dense index `0..64`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_REGS`.
    #[inline]
    pub const fn from_index(index: usize) -> Reg {
        assert!(index < NUM_REGS, "register index out of range");
        Reg(index as u8)
    }

    /// The dense index of this register in `0..64`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The register number within its bank (`0..32`).
    #[inline]
    pub const fn number(self) -> u8 {
        self.0 & 31
    }

    /// Whether this is a floating-point register.
    #[inline]
    pub const fn is_fp(self) -> bool {
        self.0 >= 32
    }

    /// Whether this is one of the hardwired zero registers (`r31`, `f31`),
    /// which never carry dataflow.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 31 || self.0 == 63
    }

    /// Iterates over every architectural register, `r0..r31` then `f0..f31`.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..NUM_REGS as u8).map(Reg)
    }

    /// The register's assembly name: the Alpha/NT software name for the
    /// integer bank (`v0`, `t0`, `s0`, `a0`, `ra`, `sp`, ...), `fN` for the
    /// floating-point bank.
    #[inline]
    pub const fn name(self) -> &'static str {
        NAMES[self.0 as usize]
    }
}

/// [`Reg::name`] by dense index.
const NAMES: [&str; NUM_REGS] = [
    "v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "s0", "s1", "s2", "s3", "s4", "s5", "fp",
    "a0", "a1", "a2", "a3", "a4", "a5", "t8", "t9", "t10", "t11", "ra", "pv", "at", "gp", "sp",
    "zero", "f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11", "f12", "f13",
    "f14", "f15", "f16", "f17", "f18", "f19", "f20", "f21", "f22", "f23", "f24", "f25", "f26",
    "f27", "f28", "f29", "f30", "f31",
];

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reg({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_constants_have_documented_indices() {
        assert_eq!(Reg::V0.index(), 0);
        assert_eq!(Reg::RA.index(), 26);
        assert_eq!(Reg::SP.index(), 30);
        assert_eq!(Reg::ZERO.index(), 31);
        assert_eq!(Reg::F0.index(), 32);
        assert_eq!(Reg::FZERO.index(), 63);
    }

    #[test]
    fn display_names_match_alpha_nt_convention() {
        assert_eq!(Reg::int(0).to_string(), "v0");
        assert_eq!(Reg::int(1).to_string(), "t0");
        assert_eq!(Reg::int(8).to_string(), "t7");
        assert_eq!(Reg::int(9).to_string(), "s0");
        assert_eq!(Reg::int(15).to_string(), "fp");
        assert_eq!(Reg::int(16).to_string(), "a0");
        assert_eq!(Reg::int(22).to_string(), "t8");
        assert_eq!(Reg::int(25).to_string(), "t11");
        assert_eq!(Reg::int(27).to_string(), "pv");
        assert_eq!(Reg::int(31).to_string(), "zero");
        assert_eq!(Reg::fp(7).to_string(), "f7");
    }

    #[test]
    fn name_table_follows_the_bank_layout() {
        for r in Reg::all() {
            let n = r.number();
            let expected = match r.index() {
                0 => "v0".to_string(),
                1..=8 => format!("t{}", n - 1),
                9..=14 => format!("s{}", n - 9),
                15 => "fp".to_string(),
                16..=21 => format!("a{}", n - 16),
                22..=25 => format!("t{}", n - 14),
                26 => "ra".to_string(),
                27 => "pv".to_string(),
                28 => "at".to_string(),
                29 => "gp".to_string(),
                30 => "sp".to_string(),
                31 => "zero".to_string(),
                _ => format!("f{n}"),
            };
            assert_eq!(r.name(), expected, "{}", r.index());
        }
    }

    #[test]
    fn zero_registers_are_recognized() {
        assert!(Reg::ZERO.is_zero());
        assert!(Reg::FZERO.is_zero());
        assert!(!Reg::V0.is_zero());
        assert!(!Reg::F0.is_zero());
    }

    #[test]
    fn all_enumerates_every_register_once() {
        let regs: Vec<Reg> = Reg::all().collect();
        assert_eq!(regs.len(), NUM_REGS);
        for (i, r) in regs.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "integer register index out of range")]
    fn int_rejects_out_of_range() {
        let _ = Reg::int(32);
    }

    #[test]
    fn fp_bank_round_trips() {
        for n in 0..32 {
            let r = Reg::fp(n);
            assert!(r.is_fp());
            assert_eq!(r.number(), n);
            assert_eq!(Reg::from_index(r.index()), r);
        }
    }
}
