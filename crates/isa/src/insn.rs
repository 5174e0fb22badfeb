//! Instructions, their def/use sets, and the 32-bit binary encoding.

use std::fmt;

use crate::reg::Reg;
use crate::regset::RegSet;

/// Integer ALU operations available in [`Instruction::Operate`] and
/// [`Instruction::OperateImm`].
///
/// `CmovEq`/`CmovNe` conditionally move `rb` into `rc` when `ra` is (not)
/// zero; because the destination keeps its old value on the untaken side,
/// they *use* `rc` in addition to defining it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// `rc = ra + rb`
    Add,
    /// `rc = ra - rb`
    Sub,
    /// `rc = ra * rb`
    Mul,
    /// `rc = ra & rb`
    And,
    /// `rc = ra | rb`
    Or,
    /// `rc = ra ^ rb`
    Xor,
    /// `rc = ra << (rb & 63)`
    Sll,
    /// `rc = (ra as u64) >> (rb & 63)`
    Srl,
    /// `rc = ra >> (rb & 63)` (arithmetic)
    Sra,
    /// `rc = (ra == rb) as i64`
    CmpEq,
    /// `rc = (ra < rb) as i64` (signed)
    CmpLt,
    /// `rc = (ra <= rb) as i64` (signed)
    CmpLe,
    /// `rc = ((ra as u64) < (rb as u64)) as i64`
    CmpUlt,
    /// `if ra == 0 { rc = rb }`
    CmovEq,
    /// `if ra != 0 { rc = rb }`
    CmovNe,
}

impl AluOp {
    const ALL: [AluOp; 15] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::CmpEq,
        AluOp::CmpLt,
        AluOp::CmpLe,
        AluOp::CmpUlt,
        AluOp::CmovEq,
        AluOp::CmovNe,
    ];

    fn func(self) -> u32 {
        self as u32
    }

    fn from_func(func: u32) -> Option<AluOp> {
        AluOp::ALL.get(func as usize).copied()
    }

    /// Whether this is a conditional move, which reads its destination.
    #[inline]
    pub fn is_cmov(self) -> bool {
        matches!(self, AluOp::CmovEq | AluOp::CmovNe)
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "addq",
            AluOp::Sub => "subq",
            AluOp::Mul => "mulq",
            AluOp::And => "and",
            AluOp::Or => "bis",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::CmpEq => "cmpeq",
            AluOp::CmpLt => "cmplt",
            AluOp::CmpLe => "cmple",
            AluOp::CmpUlt => "cmpult",
            AluOp::CmovEq => "cmoveq",
            AluOp::CmovNe => "cmovne",
        }
    }
}

/// Conditions for [`Instruction::CondBranch`]; all test register `ra`
/// against zero, as on Alpha.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchCond {
    /// Branch if `ra == 0`.
    Eq,
    /// Branch if `ra != 0`.
    Ne,
    /// Branch if `ra < 0`.
    Lt,
    /// Branch if `ra <= 0`.
    Le,
    /// Branch if `ra >= 0`.
    Ge,
    /// Branch if `ra > 0`.
    Gt,
    /// Branch if the low bit of `ra` is clear.
    Lbc,
    /// Branch if the low bit of `ra` is set.
    Lbs,
}

impl BranchCond {
    const ALL: [BranchCond; 8] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Le,
        BranchCond::Ge,
        BranchCond::Gt,
        BranchCond::Lbc,
        BranchCond::Lbs,
    ];

    fn index(self) -> u32 {
        self as u32
    }

    fn from_index(i: u32) -> Option<BranchCond> {
        BranchCond::ALL.get(i as usize).copied()
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Le => "ble",
            BranchCond::Ge => "bge",
            BranchCond::Gt => "bgt",
            BranchCond::Lbc => "blbc",
            BranchCond::Lbs => "blbs",
        }
    }

    /// Evaluates the condition against a register value.
    #[inline]
    pub fn eval(self, v: i64) -> bool {
        match self {
            BranchCond::Eq => v == 0,
            BranchCond::Ne => v != 0,
            BranchCond::Lt => v < 0,
            BranchCond::Le => v <= 0,
            BranchCond::Ge => v >= 0,
            BranchCond::Gt => v > 0,
            BranchCond::Lbc => v & 1 == 0,
            BranchCond::Lbs => v & 1 != 0,
        }
    }
}

/// Access widths for [`Instruction::Load`] and [`Instruction::Store`].
///
/// `L` and `Q` operate on the integer bank; `T` is the floating-point
/// load/store (`ldt`/`stt`) and requires a floating-point data register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemWidth {
    /// 32-bit integer (`ldl`/`stl`).
    L,
    /// 64-bit integer (`ldq`/`stq`).
    Q,
    /// 64-bit floating point (`ldt`/`stt`).
    T,
}

impl MemWidth {
    /// The access size in bytes.
    #[inline]
    pub fn bytes(self) -> i64 {
        match self {
            MemWidth::L => 4,
            MemWidth::Q | MemWidth::T => 8,
        }
    }
}

/// Floating-point compute operations for [`Instruction::FpOperate`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpOp {
    /// `fc = fa + fb`
    Add,
    /// `fc = fa - fb`
    Sub,
    /// `fc = fa * fb`
    Mul,
    /// `fc = (fa == fb)` as 0/2.0 (Alpha-style truth value)
    CmpEq,
    /// `fc = (fa < fb)` as 0/2.0
    CmpLt,
}

impl FpOp {
    const ALL: [FpOp; 5] = [FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::CmpEq, FpOp::CmpLt];

    fn func(self) -> u32 {
        self as u32
    }

    fn from_func(func: u32) -> Option<FpOp> {
        FpOp::ALL.get(func as usize).copied()
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpOp::Add => "addt",
            FpOp::Sub => "subt",
            FpOp::Mul => "mult",
            FpOp::CmpEq => "cmpteq",
            FpOp::CmpLt => "cmptlt",
        }
    }
}

/// A machine instruction of the synthetic Alpha-like ISA.
///
/// Control-flow displacement fields (`disp` on branches and calls) are in
/// units of instruction words relative to the *next* instruction, exactly as
/// on Alpha. Indirect jumps ([`Instruction::Jmp`]) find their targets
/// through a jump table stored in the program image (§3.5); the instruction
/// itself only names the base register holding the target address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instruction {
    /// Integer register-register ALU operation: `rc = ra <op> rb`.
    Operate { op: AluOp, ra: Reg, rb: Reg, rc: Reg },
    /// Integer register-immediate ALU operation: `rc = ra <op> imm`.
    OperateImm { op: AluOp, ra: Reg, imm: u8, rc: Reg },
    /// Load address: `rd = base + disp`.
    Lda { rd: Reg, base: Reg, disp: i16 },
    /// Load address high: `rd = base + (disp << 16)`.
    Ldah { rd: Reg, base: Reg, disp: i16 },
    /// Memory load: `rd = mem[base + disp]`.
    Load { width: MemWidth, rd: Reg, base: Reg, disp: i16 },
    /// Memory store: `mem[base + disp] = rs`.
    Store { width: MemWidth, rs: Reg, base: Reg, disp: i16 },
    /// Floating-point operate: `fc = fa <op> fb`.
    FpOperate { op: FpOp, fa: Reg, fb: Reg, fc: Reg },
    /// Unconditional branch.
    Br { disp: i32 },
    /// Direct call (branch-and-link); defines `ra`.
    Bsr { disp: i32 },
    /// Conditional branch on `ra`.
    CondBranch { cond: BranchCond, ra: Reg, disp: i32 },
    /// Indirect jump through `base` (multiway branch when a jump table is
    /// associated with this instruction's address).
    Jmp { base: Reg },
    /// Indirect call through `base`; defines `ra`.
    Jsr { base: Reg },
    /// Return through `base` (conventionally `ra`).
    Ret { base: Reg },
    /// Stop the machine (program exit).
    Halt,
    /// Emit the value of `v0` to the observable output stream. Gives the
    /// simulator an externally visible effect for soundness testing.
    PutInt,
}

/// Error returned by [`Instruction::decode`] for malformed words.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The primary opcode field names no instruction.
    UnknownOpcode(u32),
    /// The function field within a known opcode group is undefined.
    UnknownFunction(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownOpcode(w) => {
                write!(f, "unknown opcode {:#04x} in word {w:#010x}", w >> 26)
            }
            DecodeError::UnknownFunction(w) => {
                write!(f, "unknown function code in word {w:#010x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

// Primary opcodes.
const OP_PAL: u32 = 0x00;
const OP_LDA: u32 = 0x08;
const OP_LDAH: u32 = 0x09;
const OP_OPERATE: u32 = 0x10;
const OP_FPOP: u32 = 0x16;
const OP_JUMP: u32 = 0x1A;
const OP_LDT: u32 = 0x23;
const OP_STT: u32 = 0x27;
const OP_LDL: u32 = 0x28;
const OP_LDQ: u32 = 0x29;
const OP_STL: u32 = 0x2C;
const OP_STQ: u32 = 0x2D;
const OP_BR: u32 = 0x30;
const OP_BSR: u32 = 0x34;
const OP_CONDBR_BASE: u32 = 0x38; // 0x38..=0x3F, one per BranchCond

const PAL_HALT: u32 = 0;
const PAL_PUTINT: u32 = 1;

const JUMP_JMP: u32 = 0;
const JUMP_JSR: u32 = 1;
const JUMP_RET: u32 = 2;

const DISP21_MAX: i32 = (1 << 20) - 1;
const DISP21_MIN: i32 = -(1 << 20);
// `br`/`bsr` carry no register operand, so the whole 26-bit field below the
// opcode holds the displacement — large executables need calls that span
// millions of words.
const DISP26_MAX: i32 = (1 << 25) - 1;
const DISP26_MIN: i32 = -(1 << 25);

fn field_reg(word: u32, lo: u32, fp: bool) -> Reg {
    let n = ((word >> lo) & 31) as u8;
    if fp {
        Reg::fp(n)
    } else {
        Reg::int(n)
    }
}

fn sext21(v: u32) -> i32 {
    ((v << 11) as i32) >> 11
}

fn sext26(v: u32) -> i32 {
    ((v << 6) as i32) >> 6
}

impl Instruction {
    /// The registers this instruction may read. Zero registers are never
    /// reported.
    ///
    /// Conditional moves report their destination as a use (the old value
    /// survives on the untaken side). Calls and returns report only their
    /// architectural operands; the registers consumed *inside* a callee are
    /// exactly what the paper's interprocedural analysis reconstructs.
    pub fn uses(&self) -> RegSet {
        let mut s = RegSet::new();
        match *self {
            Instruction::Operate { op, ra, rb, rc } => {
                s.insert(ra);
                s.insert(rb);
                if op.is_cmov() {
                    s.insert(rc);
                }
            }
            Instruction::OperateImm { op, ra, rc, .. } => {
                s.insert(ra);
                if op.is_cmov() {
                    s.insert(rc);
                }
            }
            Instruction::Lda { base, .. } | Instruction::Ldah { base, .. } => {
                s.insert(base);
            }
            Instruction::Load { base, .. } => {
                s.insert(base);
            }
            Instruction::Store { rs, base, .. } => {
                s.insert(rs);
                s.insert(base);
            }
            Instruction::FpOperate { fa, fb, .. } => {
                s.insert(fa);
                s.insert(fb);
            }
            Instruction::CondBranch { ra, .. } => {
                s.insert(ra);
            }
            Instruction::Jmp { base } | Instruction::Jsr { base } | Instruction::Ret { base } => {
                s.insert(base);
            }
            Instruction::Br { .. } | Instruction::Bsr { .. } | Instruction::Halt => {}
            Instruction::PutInt => {
                s.insert(Reg::V0);
            }
        }
        s.remove(Reg::ZERO);
        s.remove(Reg::FZERO);
        s
    }

    /// The registers this instruction writes. Zero registers are never
    /// reported (writes to them are architecturally discarded).
    pub fn defs(&self) -> RegSet {
        let mut s = RegSet::new();
        match *self {
            Instruction::Operate { rc, .. } | Instruction::OperateImm { rc, .. } => {
                s.insert(rc);
            }
            Instruction::Lda { rd, .. }
            | Instruction::Ldah { rd, .. }
            | Instruction::Load { rd, .. } => {
                s.insert(rd);
            }
            Instruction::FpOperate { fc, .. } => {
                s.insert(fc);
            }
            Instruction::Bsr { .. } | Instruction::Jsr { .. } => {
                s.insert(Reg::RA);
            }
            Instruction::Store { .. }
            | Instruction::CondBranch { .. }
            | Instruction::Br { .. }
            | Instruction::Jmp { .. }
            | Instruction::Ret { .. }
            | Instruction::Halt
            | Instruction::PutInt => {}
        }
        s.remove(Reg::ZERO);
        s.remove(Reg::FZERO);
        s
    }

    /// Whether this instruction ends a basic block: branches, jumps, calls,
    /// returns, and halts all do. The paper additionally ends blocks at call
    /// instructions ("the basic block counts assume a basic block is ended
    /// by a call instruction"), which this predicate honours by returning
    /// `true` for [`Instruction::Bsr`] and [`Instruction::Jsr`].
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instruction::Br { .. }
                | Instruction::Bsr { .. }
                | Instruction::CondBranch { .. }
                | Instruction::Jmp { .. }
                | Instruction::Jsr { .. }
                | Instruction::Ret { .. }
                | Instruction::Halt
        )
    }

    /// Whether deleting this instruction can never change observable
    /// behaviour once its results are dead: pure register computations
    /// and loads (the machine model has no faulting loads). Stores,
    /// control flow and `put_int` are not.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            Instruction::Operate { .. }
                | Instruction::OperateImm { .. }
                | Instruction::Lda { .. }
                | Instruction::Ldah { .. }
                | Instruction::Load { .. }
                | Instruction::FpOperate { .. }
        )
    }

    /// Whether this is a call (direct or indirect).
    pub fn is_call(&self) -> bool {
        matches!(self, Instruction::Bsr { .. } | Instruction::Jsr { .. })
    }

    /// Encodes the instruction into a 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if a field is out of range for its encoding: branch/call
    /// displacements must fit in 21 signed bits, and the register banks
    /// must match the instruction (e.g. `Load` with [`MemWidth::T`]
    /// requires a floating-point data register, integer widths an integer
    /// register; `FpOperate` requires floating-point registers).
    pub fn encode(&self) -> u32 {
        fn ireg(r: Reg) -> u32 {
            assert!(!r.is_fp(), "expected integer register, got {r}");
            r.number() as u32
        }
        fn freg(r: Reg) -> u32 {
            assert!(r.is_fp(), "expected floating-point register, got {r}");
            r.number() as u32
        }
        fn disp21(d: i32) -> u32 {
            assert!(
                (DISP21_MIN..=DISP21_MAX).contains(&d),
                "branch displacement {d} out of 21-bit range"
            );
            (d as u32) & 0x1F_FFFF
        }
        fn disp26(d: i32) -> u32 {
            assert!(
                (DISP26_MIN..=DISP26_MAX).contains(&d),
                "branch displacement {d} out of 26-bit range"
            );
            (d as u32) & 0x03FF_FFFF
        }
        fn mem(op: u32, data: u32, base: Reg, disp: i16) -> u32 {
            (op << 26) | (data << 21) | (ireg(base) << 16) | (disp as u16 as u32)
        }

        match *self {
            Instruction::Operate { op, ra, rb, rc } => {
                (OP_OPERATE << 26)
                    | (ireg(ra) << 21)
                    | (ireg(rb) << 16)
                    | (op.func() << 5)
                    | ireg(rc)
            }
            Instruction::OperateImm { op, ra, imm, rc } => {
                (OP_OPERATE << 26)
                    | (ireg(ra) << 21)
                    | ((imm as u32) << 13)
                    | (1 << 12)
                    | (op.func() << 5)
                    | ireg(rc)
            }
            Instruction::Lda { rd, base, disp } => mem(OP_LDA, ireg(rd), base, disp),
            Instruction::Ldah { rd, base, disp } => mem(OP_LDAH, ireg(rd), base, disp),
            Instruction::Load { width, rd, base, disp } => match width {
                MemWidth::L => mem(OP_LDL, ireg(rd), base, disp),
                MemWidth::Q => mem(OP_LDQ, ireg(rd), base, disp),
                MemWidth::T => mem(OP_LDT, freg(rd), base, disp),
            },
            Instruction::Store { width, rs, base, disp } => match width {
                MemWidth::L => mem(OP_STL, ireg(rs), base, disp),
                MemWidth::Q => mem(OP_STQ, ireg(rs), base, disp),
                MemWidth::T => mem(OP_STT, freg(rs), base, disp),
            },
            Instruction::FpOperate { op, fa, fb, fc } => {
                (OP_FPOP << 26) | (freg(fa) << 21) | (freg(fb) << 16) | (op.func() << 5) | freg(fc)
            }
            Instruction::Br { disp } => (OP_BR << 26) | disp26(disp),
            Instruction::Bsr { disp } => (OP_BSR << 26) | disp26(disp),
            Instruction::CondBranch { cond, ra, disp } => {
                ((OP_CONDBR_BASE + cond.index()) << 26) | (ireg(ra) << 21) | disp21(disp)
            }
            Instruction::Jmp { base } => {
                (OP_JUMP << 26) | (31 << 21) | (ireg(base) << 16) | (JUMP_JMP << 14)
            }
            Instruction::Jsr { base } => {
                (OP_JUMP << 26)
                    | ((Reg::RA.number() as u32) << 21)
                    | (ireg(base) << 16)
                    | (JUMP_JSR << 14)
            }
            Instruction::Ret { base } => {
                (OP_JUMP << 26) | (31 << 21) | (ireg(base) << 16) | (JUMP_RET << 14)
            }
            Instruction::Halt => PAL_HALT,
            Instruction::PutInt => PAL_PUTINT,
        }
    }

    /// Decodes a 32-bit word into an instruction.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnknownOpcode`] if the primary opcode names no
    /// instruction, and [`DecodeError::UnknownFunction`] if a function code
    /// within a known group is undefined.
    pub fn decode(word: u32) -> Result<Instruction, DecodeError> {
        let opcode = word >> 26;
        let insn = match opcode {
            OP_PAL => match word & 0x03FF_FFFF {
                PAL_HALT => Instruction::Halt,
                PAL_PUTINT => Instruction::PutInt,
                _ => return Err(DecodeError::UnknownFunction(word)),
            },
            OP_LDA => Instruction::Lda {
                rd: field_reg(word, 21, false),
                base: field_reg(word, 16, false),
                disp: word as u16 as i16,
            },
            OP_LDAH => Instruction::Ldah {
                rd: field_reg(word, 21, false),
                base: field_reg(word, 16, false),
                disp: word as u16 as i16,
            },
            OP_OPERATE => {
                let op = AluOp::from_func((word >> 5) & 0x7F)
                    .ok_or(DecodeError::UnknownFunction(word))?;
                let ra = field_reg(word, 21, false);
                let rc = field_reg(word, 0, false);
                if word & (1 << 12) != 0 {
                    Instruction::OperateImm { op, ra, imm: ((word >> 13) & 0xFF) as u8, rc }
                } else {
                    Instruction::Operate { op, ra, rb: field_reg(word, 16, false), rc }
                }
            }
            OP_FPOP => {
                let op = FpOp::from_func((word >> 5) & 0x7F)
                    .ok_or(DecodeError::UnknownFunction(word))?;
                Instruction::FpOperate {
                    op,
                    fa: field_reg(word, 21, true),
                    fb: field_reg(word, 16, true),
                    fc: field_reg(word, 0, true),
                }
            }
            OP_JUMP => {
                let base = field_reg(word, 16, false);
                match (word >> 14) & 3 {
                    JUMP_JMP => Instruction::Jmp { base },
                    JUMP_JSR => Instruction::Jsr { base },
                    JUMP_RET => Instruction::Ret { base },
                    _ => return Err(DecodeError::UnknownFunction(word)),
                }
            }
            OP_LDL | OP_LDQ | OP_LDT => Instruction::Load {
                width: match opcode {
                    OP_LDL => MemWidth::L,
                    OP_LDQ => MemWidth::Q,
                    _ => MemWidth::T,
                },
                rd: field_reg(word, 21, opcode == OP_LDT),
                base: field_reg(word, 16, false),
                disp: word as u16 as i16,
            },
            OP_STL | OP_STQ | OP_STT => Instruction::Store {
                width: match opcode {
                    OP_STL => MemWidth::L,
                    OP_STQ => MemWidth::Q,
                    _ => MemWidth::T,
                },
                rs: field_reg(word, 21, opcode == OP_STT),
                base: field_reg(word, 16, false),
                disp: word as u16 as i16,
            },
            OP_BR => Instruction::Br { disp: sext26(word & 0x03FF_FFFF) },
            OP_BSR => Instruction::Bsr { disp: sext26(word & 0x03FF_FFFF) },
            op if (OP_CONDBR_BASE..OP_CONDBR_BASE + 8).contains(&op) => Instruction::CondBranch {
                cond: BranchCond::from_index(op - OP_CONDBR_BASE)
                    .expect("condition index in range"),
                ra: field_reg(word, 21, false),
                disp: sext21(word & 0x1F_FFFF),
            },
            _ => return Err(DecodeError::UnknownOpcode(word)),
        };
        Ok(insn)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Operate { op, ra, rb, rc } => {
                write!(f, "{} {ra}, {rb}, {rc}", op.mnemonic())
            }
            Instruction::OperateImm { op, ra, imm, rc } => {
                write!(f, "{} {ra}, #{imm}, {rc}", op.mnemonic())
            }
            Instruction::Lda { rd, base, disp } => write!(f, "lda {rd}, {disp}({base})"),
            Instruction::Ldah { rd, base, disp } => write!(f, "ldah {rd}, {disp}({base})"),
            Instruction::Load { width, rd, base, disp } => {
                let m = match width {
                    MemWidth::L => "ldl",
                    MemWidth::Q => "ldq",
                    MemWidth::T => "ldt",
                };
                write!(f, "{m} {rd}, {disp}({base})")
            }
            Instruction::Store { width, rs, base, disp } => {
                let m = match width {
                    MemWidth::L => "stl",
                    MemWidth::Q => "stq",
                    MemWidth::T => "stt",
                };
                write!(f, "{m} {rs}, {disp}({base})")
            }
            Instruction::FpOperate { op, fa, fb, fc } => {
                write!(f, "{} {fa}, {fb}, {fc}", op.mnemonic())
            }
            Instruction::Br { disp } => write!(f, "br {disp}"),
            Instruction::Bsr { disp } => write!(f, "bsr {disp}"),
            Instruction::CondBranch { cond, ra, disp } => {
                write!(f, "{} {ra}, {disp}", cond.mnemonic())
            }
            Instruction::Jmp { base } => write!(f, "jmp ({base})"),
            Instruction::Jsr { base } => write!(f, "jsr ({base})"),
            Instruction::Ret { base } => write!(f, "ret ({base})"),
            Instruction::Halt => f.write_str("halt"),
            Instruction::PutInt => f.write_str("putint"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instructions() -> Vec<Instruction> {
        let mut v = Vec::new();
        for op in AluOp::ALL {
            v.push(Instruction::Operate { op, ra: Reg::A0, rb: Reg::A1, rc: Reg::T0 });
            v.push(Instruction::OperateImm { op, ra: Reg::V0, imm: 0xAB, rc: Reg::S0 });
        }
        for op in FpOp::ALL {
            v.push(Instruction::FpOperate { op, fa: Reg::fp(16), fb: Reg::fp(17), fc: Reg::fp(0) });
        }
        v.push(Instruction::Lda { rd: Reg::SP, base: Reg::SP, disp: -64 });
        v.push(Instruction::Ldah { rd: Reg::GP, base: Reg::ZERO, disp: 0x1234u16 as i16 });
        for width in [MemWidth::L, MemWidth::Q] {
            v.push(Instruction::Load { width, rd: Reg::T1, base: Reg::SP, disp: 8 });
            v.push(Instruction::Store { width, rs: Reg::T1, base: Reg::SP, disp: -8 });
        }
        v.push(Instruction::Load { width: MemWidth::T, rd: Reg::fp(2), base: Reg::SP, disp: 16 });
        v.push(Instruction::Store { width: MemWidth::T, rs: Reg::fp(2), base: Reg::SP, disp: 16 });
        v.push(Instruction::Br { disp: -100 });
        v.push(Instruction::Br { disp: DISP26_MIN });
        v.push(Instruction::Bsr { disp: DISP26_MAX });
        for cond in BranchCond::ALL {
            v.push(Instruction::CondBranch { cond, ra: Reg::T2, disp: DISP21_MIN });
        }
        v.push(Instruction::Jmp { base: Reg::PV });
        v.push(Instruction::Jsr { base: Reg::PV });
        v.push(Instruction::Ret { base: Reg::RA });
        v.push(Instruction::Halt);
        v.push(Instruction::PutInt);
        v
    }

    #[test]
    fn encode_decode_round_trips_every_form() {
        for insn in sample_instructions() {
            let word = insn.encode();
            let back = Instruction::decode(word)
                .unwrap_or_else(|e| panic!("decode failed for {insn}: {e}"));
            assert_eq!(back, insn, "round trip for {insn} (word {word:#010x})");
        }
    }

    #[test]
    fn decode_rejects_unknown_opcode() {
        // Opcode 0x3 is unassigned.
        let err = Instruction::decode(0x3 << 26).unwrap_err();
        assert!(matches!(err, DecodeError::UnknownOpcode(_)));
        assert!(err.to_string().contains("unknown opcode"));
    }

    #[test]
    fn decode_rejects_unknown_function() {
        // Operate with function 0x7F is unassigned.
        let word = (OP_OPERATE << 26) | (0x7F << 5);
        assert!(matches!(Instruction::decode(word), Err(DecodeError::UnknownFunction(_))));
        // PAL with function 99 is unassigned.
        assert!(matches!(Instruction::decode(99), Err(DecodeError::UnknownFunction(_))));
    }

    #[test]
    fn defs_and_uses_for_alu() {
        let add = Instruction::Operate { op: AluOp::Add, ra: Reg::A0, rb: Reg::A1, rc: Reg::V0 };
        assert_eq!(add.uses(), RegSet::of(&[Reg::A0, Reg::A1]));
        assert_eq!(add.defs(), RegSet::of(&[Reg::V0]));

        let addi = Instruction::OperateImm { op: AluOp::Add, ra: Reg::A0, imm: 1, rc: Reg::V0 };
        assert_eq!(addi.uses(), RegSet::of(&[Reg::A0]));
        assert_eq!(addi.defs(), RegSet::of(&[Reg::V0]));
    }

    #[test]
    fn cmov_uses_its_destination() {
        let cmov =
            Instruction::Operate { op: AluOp::CmovNe, ra: Reg::T0, rb: Reg::T1, rc: Reg::V0 };
        assert_eq!(cmov.uses(), RegSet::of(&[Reg::T0, Reg::T1, Reg::V0]));
        assert_eq!(cmov.defs(), RegSet::of(&[Reg::V0]));
    }

    #[test]
    fn zero_registers_never_appear_in_def_use() {
        let i = Instruction::Operate { op: AluOp::Add, ra: Reg::ZERO, rb: Reg::T0, rc: Reg::ZERO };
        assert_eq!(i.uses(), RegSet::of(&[Reg::T0]));
        assert_eq!(i.defs(), RegSet::EMPTY);
        let f = Instruction::FpOperate {
            op: FpOp::Add,
            fa: Reg::FZERO,
            fb: Reg::fp(1),
            fc: Reg::FZERO,
        };
        assert_eq!(f.uses(), RegSet::of(&[Reg::fp(1)]));
        assert_eq!(f.defs(), RegSet::EMPTY);
    }

    #[test]
    fn calls_define_the_return_address() {
        assert_eq!(Instruction::Bsr { disp: 0 }.defs(), RegSet::of(&[Reg::RA]));
        let jsr = Instruction::Jsr { base: Reg::PV };
        assert_eq!(jsr.defs(), RegSet::of(&[Reg::RA]));
        assert_eq!(jsr.uses(), RegSet::of(&[Reg::PV]));
        let ret = Instruction::Ret { base: Reg::RA };
        assert_eq!(ret.uses(), RegSet::of(&[Reg::RA]));
        assert_eq!(ret.defs(), RegSet::EMPTY);
    }

    #[test]
    fn store_uses_data_and_base() {
        let st = Instruction::Store { width: MemWidth::Q, rs: Reg::S0, base: Reg::SP, disp: 0 };
        assert_eq!(st.uses(), RegSet::of(&[Reg::S0, Reg::SP]));
        assert_eq!(st.defs(), RegSet::EMPTY);
    }

    #[test]
    fn terminator_and_call_classification() {
        assert!(Instruction::Br { disp: 0 }.is_terminator());
        assert!(Instruction::Bsr { disp: 0 }.is_terminator());
        assert!(Instruction::Bsr { disp: 0 }.is_call());
        assert!(Instruction::Jsr { base: Reg::PV }.is_call());
        assert!(Instruction::Ret { base: Reg::RA }.is_terminator());
        assert!(Instruction::Halt.is_terminator());
        assert!(!Instruction::PutInt.is_terminator());
        assert!(!Instruction::Lda { rd: Reg::T0, base: Reg::SP, disp: 0 }.is_call());
    }

    #[test]
    #[should_panic(expected = "out of 26-bit range")]
    fn encode_rejects_oversized_branch_displacement() {
        let _ = Instruction::Br { disp: DISP26_MAX + 1 }.encode();
    }

    #[test]
    #[should_panic(expected = "out of 21-bit range")]
    fn encode_rejects_oversized_cond_displacement() {
        let _ = Instruction::CondBranch { cond: BranchCond::Eq, ra: Reg::T0, disp: DISP21_MAX + 1 }
            .encode();
    }

    #[test]
    #[should_panic(expected = "expected floating-point register")]
    fn encode_rejects_bank_mismatch() {
        let _ =
            Instruction::Load { width: MemWidth::T, rd: Reg::T0, base: Reg::SP, disp: 0 }.encode();
    }

    #[test]
    fn negative_displacements_sign_extend() {
        for d in [-1, -17, DISP26_MIN, 0, 1, DISP26_MAX] {
            let i = Instruction::Br { disp: d };
            assert_eq!(Instruction::decode(i.encode()).unwrap(), i);
        }
        for d in [-1, DISP21_MIN, DISP21_MAX] {
            let i = Instruction::CondBranch { cond: BranchCond::Ne, ra: Reg::T3, disp: d };
            assert_eq!(Instruction::decode(i.encode()).unwrap(), i);
        }
    }

    #[test]
    fn display_is_never_empty_and_readable() {
        for insn in sample_instructions() {
            let s = insn.to_string();
            assert!(!s.is_empty());
        }
        let add = Instruction::Operate { op: AluOp::Add, ra: Reg::A0, rb: Reg::A1, rc: Reg::V0 };
        assert_eq!(add.to_string(), "addq a0, a1, v0");
        assert_eq!(Instruction::Ret { base: Reg::RA }.to_string(), "ret (ra)");
    }

    #[test]
    fn branch_cond_eval_truth_table() {
        assert!(BranchCond::Eq.eval(0) && !BranchCond::Eq.eval(1));
        assert!(BranchCond::Ne.eval(-3) && !BranchCond::Ne.eval(0));
        assert!(BranchCond::Lt.eval(-1) && !BranchCond::Lt.eval(0));
        assert!(BranchCond::Le.eval(0) && !BranchCond::Le.eval(2));
        assert!(BranchCond::Ge.eval(0) && !BranchCond::Ge.eval(-2));
        assert!(BranchCond::Gt.eval(5) && !BranchCond::Gt.eval(0));
        assert!(BranchCond::Lbc.eval(2) && !BranchCond::Lbc.eval(3));
        assert!(BranchCond::Lbs.eval(3) && !BranchCond::Lbs.eval(2));
    }
}
