//! Interprocedural stack-slot analysis.
//!
//! Registers are not the only machine state the optimizer can reason
//! about: SP-relative `Load`/`Store` traffic addresses a routine's stack
//! frame, and frames compose across calls just like register summaries
//! do. This module builds a restricted memory abstraction — a
//! scalable cousin of generalized points-to summaries, limited to
//! compile-time-constant SP offsets — and runs two slot dataflows over
//! it, mirroring how phases 1–2 compose register facts:
//!
//! * a **frame model** per routine: the slots it addresses, keyed by
//!   `(entry-SP-relative offset, width)`, discovered from `Load`/`Store`
//!   with `base == SP` while symbolically tracking SP as
//!   `entry_SP + disp` through `lda sp, d(sp)` adjustments;
//! * a forward **MUST-defined** slot analysis (which slots certainly
//!   hold a stored value at each block entry) — the slot dual of the
//!   uninit-read register dataflow;
//! * a backward **MAY-live** slot analysis (which slots may still be
//!   read after each block exit) — the slot dual of phase-2 liveness;
//! * a per-routine **stack summary** of two bits, `opaque` and
//!   `unbalanced`, each the OR of the routine's own verdict and its
//!   callees' summaries, composed in one bottom-up pass over the
//!   call-graph SCC condensation. Both dataflows see a call as one bit:
//!   an opaque or unresolved callee may read every slot, and any other
//!   call is the identity on the caller's slots.
//!
//! # Escape rules
//!
//! The model stays sound by refusing to reason about frames it cannot
//! see completely. A routine's frame is marked **escaped** when
//!
//! * SP flows into another register or memory (`lda rX, d(sp)`,
//!   `store sp, ...`, any ALU use of SP) — a derived pointer could
//!   alias any slot;
//! * SP is redefined by anything but `lda sp, d(sp)` — the symbolic
//!   displacement is lost;
//! * two different access widths address the same offset — the machine
//!   keys memory by exact address, so same-offset width mixing is the
//!   one aliasing case the slot key cannot separate;
//! * SP displacements disagree at a join, or a callee is unbalanced —
//!   the displacement is no longer a compile-time constant.
//!
//! Escaped routines keep an empty slot universe, report no accesses,
//! and are **opaque** to callers (callers assume the callee may read or
//! write anything). So is a routine whose own tracked code reads or
//! writes at or above its entry SP, its callers' frames: that is an
//! `out-of-frame-access` lint error, and the layer does not model it.
//! Unknown-target calls and callees whose SP movement is merely
//! *untracked* are assumed SP-*balanced* (the calling standard) but
//! opaque; only a routine the scan can follow all the way to a `Ret`
//! with a nonzero displacement is **unbalanced**, and that is viral —
//! callers of an unbalanced routine lose SP tracking and are unbalanced
//! too.
//!
//! # Solving
//!
//! Each routine's instructions are scanned once per solve into a
//! `Digest` — SP-effect flags, per-block displacement deltas and the
//! SP-relative accesses with block-relative offsets — and displacement
//! propagation, slot discovery and the block transfer masks read the
//! digest together with the CFG's flow table (`RoutineCfg::flow`). The
//! digest's verdict on the routine's own code, callees aside, is itself
//! a [`StackSummary`], which every [`RoutineStack`] keeps as `own`: an
//! incremental solve composes an unedited routine's summary from the
//! kept verdict and scans the routine only if its slot dataflows must
//! run again. Both summary bits are monotone ORs, so composition needs
//! no fixpoint: a component's members all get the OR of their own
//! verdicts and their callees' summaries (see `Solver::phase_a`). The
//! two slot dataflows are rank-ordered worklist fixpoints over
//! [`SlotSet`]s, which own no heap memory for frames of up to 64 slots.
//!
//! The spike-lint stack checks and spike-opt's dead-stack-store
//! elimination consume [`StackAnalysis::accesses`]; the soundness
//! oracle is `spike_sim::run_shadow_slots`, which tracks the identical
//! `[sp, entry_sp)` frame rule and per-address definedness at run time.

use std::sync::Arc;

use spike_callgraph::CallGraph;
use spike_cfg::{BlockId, CallTarget, ProgramCfg, RoutineCfg, TermKind};
use spike_isa::{HeapSize, Instruction, MemWidth, Reg};
use spike_program::{Program, Routine, RoutineId};

use crate::analysis::Calls;
use crate::worklist::PriorityWorklist;

spike_isa::analysis_struct! {
    /// One stack slot of a routine's frame model: an access site class keyed
    /// by its entry-SP-relative byte offset and access width.
    ///
    /// Offsets are relative to the SP value *at routine entry*: negative
    /// offsets are the routine's own frame, offsets `>= 0` address its
    /// callers' frames. The machine keys memory cells by exact address, so
    /// two slots at different offsets never alias; a width conflict at one
    /// offset escapes the frame instead of modelling partial overlap.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct Slot {
        /// Byte offset from the routine's entry SP.
        pub entry_off: i64,
        /// The access width every site uses for this offset.
        pub width: MemWidth,
    }
}

/// A dense bitset over a routine's slot universe (indices into
/// [`FrameModel::slots`]).
///
/// Universes of at most 64 slots — every frame the calibrated corpus
/// produces — live in one inline word, so the per-block sets the solvers
/// keep own no heap memory; larger universes fall back to a boxed word
/// array. Two sets over the same universe always share a representation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SlotSet {
    repr: Repr,
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Repr {
    Inline(u64),
    Heap(Box<[u64]>),
}

impl Default for SlotSet {
    fn default() -> SlotSet {
        SlotSet::empty(0)
    }
}

impl SlotSet {
    /// The empty set over a universe of `n` slots.
    pub fn empty(n: usize) -> SlotSet {
        let repr =
            if n <= 64 { Repr::Inline(0) } else { Repr::Heap(vec![0; n.div_ceil(64)].into()) };
        SlotSet { repr }
    }

    /// The full set over a universe of `n` slots.
    pub fn full(n: usize) -> SlotSet {
        let mut set = SlotSet::empty(n);
        let words = set.words_mut();
        words.fill(u64::MAX);
        // Mask the partial last word (the whole inline word when `n` is 0).
        let tail = n % 64;
        if tail != 0 || n == 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        set
    }

    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => std::slice::from_ref(w),
            Repr::Heap(v) => v,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(w) => std::slice::from_mut(w),
            Repr::Heap(v) => v,
        }
    }

    /// Inserts slot `i`.
    pub fn insert(&mut self, i: usize) {
        self.words_mut()[i / 64] |= 1 << (i % 64);
    }

    /// Removes slot `i`.
    pub fn remove(&mut self, i: usize) {
        self.words_mut()[i / 64] &= !(1 << (i % 64));
    }

    /// Whether slot `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        (self.words()[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Unions `other` in; returns whether `self` changed.
    pub fn union_with(&mut self, other: &SlotSet) -> bool {
        let mut changed = false;
        for (a, &b) in self.words_mut().iter_mut().zip(other.words()) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Intersects `other` in.
    pub fn intersect_with(&mut self, other: &SlotSet) {
        for (a, &b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= b;
        }
    }

    /// Removes every slot in `other`.
    pub fn subtract(&mut self, other: &SlotSet) {
        for (a, &b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// Overwrites `self` with `other` (same universe).
    pub fn copy_from(&mut self, other: &SlotSet) {
        self.words_mut().copy_from_slice(other.words());
    }

    /// Whether no slot is set.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Number of slots in the set.
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set slot indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter(move |b| (w >> b) & 1 != 0).map(move |b| wi * 64 + b)
        })
    }
}

impl HeapSize for SlotSet {
    fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline(_) => 0,
            Repr::Heap(v) => std::mem::size_of_val::<[u64]>(v),
        }
    }
}

spike_isa::analysis_struct! {
    /// A routine's discovered stack frame.
    #[derive(Clone, PartialEq, Eq, Debug, Default)]
    pub struct FrameModel {
        /// Maximum bytes SP is lowered below its entry value on any tracked
        /// path (`max(0, -min(sp_disp))`). Zero for frameless or escaped
        /// routines.
        pub frame_size: i64,
        /// The slot universe, sorted by `entry_off`. Offsets are unique
        /// (a width conflict escapes the frame instead).
        pub slots: Vec<Slot>,
        /// Whether the frame escaped the model (see the module docs for the
        /// rules). Escaped routines report no accesses and empty dataflow
        /// sets, and are opaque to callers.
        pub escaped: bool,
    }
}

impl FrameModel {
    /// The index of the slot at `entry_off`, if modelled.
    pub fn slot_at(&self, entry_off: i64) -> Option<usize> {
        slot_index(&self.slots, entry_off)
    }
}

spike_isa::analysis_struct! {
    /// A routine's interprocedural stack effect, as seen by its callers:
    /// two bits, each monotone — a routine has one if its own code earns
    /// it or any callee has it.
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
    pub struct StackSummary {
        /// Whether the routine may return with SP different from its entry
        /// value: its own tracked code reaches a `Ret` at a nonzero
        /// displacement, or a callee is unbalanced. Viral: callers of an
        /// unbalanced routine lose SP tracking too. Untracked SP movement
        /// is *not* unbalanced — like unknown-target callees, such
        /// routines are assumed balanced per the calling standard, just
        /// opaque.
        pub unbalanced: bool,
        /// Whether callers must assume the routine may read or write any
        /// stack location: its frame escaped, it is unbalanced, it touches
        /// its callers' frames, it makes an unknown-target call, or a
        /// callee is opaque.
        pub opaque: bool,
    }
}

impl std::ops::BitOrAssign for StackSummary {
    fn bitor_assign(&mut self, other: StackSummary) {
        self.unbalanced |= other.unbalanced;
        self.opaque |= other.opaque;
    }
}

spike_isa::analysis_struct! {
    /// The converged per-routine stack facts. All vectors are indexed by
    /// [`BlockId`] within the routine's CFG; everything is block-index and
    /// offset based (address-free), so a pure rebase leaves it valid.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct RoutineStack {
        /// The frame model.
        pub frame: FrameModel,
        /// The summary callers compose with: `own` ORed with every
        /// callee's summary.
        pub summary: StackSummary,
        /// What the routine's own code earns, callees aside. Kept so an
        /// incremental solve can compose the summary of an unedited
        /// routine without scanning its instructions again.
        pub own: StackSummary,
        /// SP displacement (relative to entry SP) at each block's first
        /// instruction; `None` for blocks unreachable along tracked arcs or
        /// when tracking failed.
        pub sp_disp_in: Vec<Option<i64>>,
        /// Per block: slots certainly written on every path to the block's
        /// first instruction (greatest fixpoint; all-empty when escaped).
        pub must_defined_in: Vec<SlotSet>,
        /// Per block: slots that may still be read after the block's last
        /// instruction (least fixpoint; all-empty when escaped).
        pub live_out: Vec<SlotSet>,
    }
}

spike_isa::analysis_struct! {
    /// The whole-program stack-slot analysis, one [`RoutineStack`] per
    /// routine. Each record sits behind an `Arc`: a clone shares them, and
    /// an incremental solve hands every reused record over untouched (its
    /// facts are offset based, so a moved routine shares it too). The
    /// memory walk charges each as if owned.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct StackAnalysis {
        routines: Vec<Arc<RoutineStack>>,
    }
}

/// Fixpoint effort counters for the two slot dataflows, reported next
/// to the phase 1–2 visit counts. Kept outside [`StackAnalysis`] so
/// result equality checks exclude effort.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StackStats {
    /// Block evaluations of the forward MUST-defined solver.
    pub forward_visits: usize,
    /// Block evaluations of the backward MAY-live solver.
    pub backward_visits: usize,
    /// Routines whose instructions were scanned: every routine of a
    /// from-scratch solve, once; in an incremental solve only the edited
    /// routines and the ones phase B re-solves.
    pub scans: usize,
}

/// Whether a [`StackAccess`] reads or writes its slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// An SP-relative `Load`.
    Load,
    /// An SP-relative `Store`.
    Store,
}

/// One SP-relative memory access, annotated with the converged dataflow
/// facts at its program point. The single consumer API for the stack
/// lints and dead-stack-store elimination.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StackAccess {
    /// The instruction address.
    pub addr: u32,
    /// The block containing it.
    pub block: BlockId,
    /// Read or write.
    pub kind: AccessKind,
    /// Access width.
    pub width: MemWidth,
    /// Entry-SP-relative byte offset of the addressed slot.
    pub entry_off: i64,
    /// SP displacement (relative to entry SP) when the access executes.
    pub sp_disp: i64,
    /// Whether the address lies inside the live frame region
    /// `[sp, entry_sp)` at the access — the identical rule
    /// `spike_sim::run_shadow_slots` enforces.
    pub in_frame: bool,
    /// For loads: whether the slot is certainly written on every path
    /// here (true for stores' target too, pre-store).
    pub defined_before: bool,
    /// For stores: whether the slot may still be read after this store
    /// executes (always true for loads).
    pub live_after: bool,
}

// ---------------------------------------------------------------------
// The routine digest: one instruction scan, read by everything below.
// ---------------------------------------------------------------------

/// How one instruction affects the symbolic `SP = entry_SP + disp`
/// tracking.
enum SpEffect {
    /// `lda sp, d(sp)`: displacement moves by `d`.
    Adjust(i64),
    /// SP redefined any other way: tracking is lost.
    Untracked,
    /// SP's value flows somewhere the model cannot see.
    Leak,
    /// No effect on SP (SP-based loads/stores included).
    Neutral,
}

fn sp_effect(insn: &Instruction) -> SpEffect {
    match *insn {
        Instruction::Lda { rd: Reg::SP, base: Reg::SP, disp } => SpEffect::Adjust(disp as i64),
        _ if insn.defs().contains(Reg::SP) => SpEffect::Untracked,
        Instruction::Load { base: Reg::SP, .. } => SpEffect::Neutral,
        Instruction::Store { base: Reg::SP, rs, .. } if rs != Reg::SP => SpEffect::Neutral,
        _ if insn.uses().contains(Reg::SP) => SpEffect::Leak,
        _ => SpEffect::Neutral,
    }
}

/// The slot access an instruction performs, if any: `(kind, width,
/// instruction displacement)`. `store sp, d(sp)` is a leak, not an
/// access.
fn sp_access(insn: &Instruction) -> Option<(AccessKind, MemWidth, i16)> {
    match *insn {
        Instruction::Load { width, base: Reg::SP, rd, disp } if rd != Reg::SP => {
            Some((AccessKind::Load, width, disp))
        }
        Instruction::Store { width, base: Reg::SP, rs, disp } if rs != Reg::SP => {
            Some((AccessKind::Store, width, disp))
        }
        _ => None,
    }
}

/// One SP-relevant instruction of a block. Displacements are relative
/// to SP at the block's first instruction, so an event is independent
/// of how the block is reached; adding the block's entry displacement
/// makes them entry-SP-relative.
#[derive(Clone, Copy)]
enum SpEvent {
    /// An SP-relative load or store executing at displacement `rel` and
    /// addressing offset `off` (`rel` plus the instruction's own
    /// displacement).
    Access { addr: u32, kind: AccessKind, width: MemWidth, rel: i64, off: i64 },
    /// `lda sp, d(sp)` moving the displacement from `from` to `to`.
    Adjust { from: i64, to: i64 },
}

/// What scanning one block's instructions found besides its events.
#[derive(Default)]
struct BlockScan {
    /// Net SP movement across the block.
    delta: i64,
    /// Lowest displacement reached inside the block (at most 0).
    min_rel: i64,
    leaked: bool,
    untracked: bool,
}

/// Appends `block`'s SP events to `events`, in address order.
fn scan_block(
    routine: &Routine,
    block: &spike_cfg::BasicBlock,
    events: &mut Vec<SpEvent>,
) -> BlockScan {
    let mut scan = BlockScan::default();
    let mut rel = 0i64;
    for addr in block.start()..block.end() {
        let insn = routine.insn_at(addr).expect("address in routine");
        if let Some((kind, width, disp)) = sp_access(insn) {
            events.push(SpEvent::Access { addr, kind, width, rel, off: rel + disp as i64 });
            continue;
        }
        match sp_effect(insn) {
            SpEffect::Adjust(d) => {
                events.push(SpEvent::Adjust { from: rel, to: rel + d });
                rel += d;
                scan.min_rel = scan.min_rel.min(rel);
            }
            SpEffect::Untracked => scan.untracked = true,
            SpEffect::Leak => scan.leaked = true,
            SpEffect::Neutral => {}
        }
    }
    scan.delta = rel;
    scan
}

/// Calls `f` with every routine a call may target. Returns `false`
/// (calling nothing) for unknown-target calls.
fn for_each_callee(target: &CallTarget, mut f: impl FnMut(RoutineId)) -> bool {
    match target {
        CallTarget::Direct(c, _) => f(*c),
        CallTarget::IndirectKnown(list) => list.iter().for_each(|&(c, _)| f(c)),
        CallTarget::IndirectUnknown | CallTarget::IndirectHinted { .. } => return false,
    }
    true
}

/// Whether a call may read or write any of the caller's slots: its
/// target is unresolved or some callee is opaque. Any other call is the
/// identity on the caller's slots: a callee that is not opaque touches
/// nothing at or above its entry SP, the caller's SP at the call, and
/// the caller's slots below that SP were wiped when SP rose past them.
fn opaque_call(target: &CallTarget, opaque: impl Fn(RoutineId) -> bool) -> bool {
    let mut any = false;
    !for_each_callee(target, |c| any |= opaque(c)) || any
}

/// The index of the slot at `entry_off` in the offset-sorted `slots`.
fn slot_index(slots: &[Slot], entry_off: i64) -> Option<usize> {
    slots.binary_search_by_key(&entry_off, |s| s.entry_off).ok()
}

/// The indices of the slots whose offsets lie in `[lo, hi)`.
fn slot_range(slots: &[Slot], lo: i64, hi: i64) -> std::ops::Range<usize> {
    slots.partition_point(|s| s.entry_off < lo)..slots.partition_point(|s| s.entry_off < hi)
}

/// The frame a routine's own code describes while every callee is
/// SP-balanced, and the verdicts on that code. Nothing in it depends on
/// callee summaries.
struct TrackedFrame {
    sp_disp_in: Vec<Option<i64>>,
    slots: Vec<Slot>,
    frame_size: i64,
    /// Two access widths address one offset.
    width_conflict: bool,
    /// No tracked path reaches a `Ret` with a nonzero displacement.
    balanced: bool,
}

/// Everything the solvers need from a routine's instructions, scanned
/// once per solve of the routine.
struct Digest {
    /// The verdicts of the routine's own code, callees aside.
    own: StackSummary,
    /// SP's value flows somewhere the model cannot see.
    leaked: bool,
    /// `events[ev_off[b]..ev_off[b + 1]]` are block `b`'s SP events.
    ev_off: Vec<u32>,
    events: Vec<SpEvent>,
    /// Net SP movement across each block.
    delta: Vec<i64>,
    /// `None` when the routine's own code loses SP tracking: SP is
    /// redefined untracked, or displacements disagree at a join.
    frame: Option<TrackedFrame>,
}

impl Digest {
    fn scan(program: &Program, cfg: &RoutineCfg) -> Digest {
        let routine = program.routine(cfg.routine());
        let nb = cfg.blocks().len();
        let mut ev_off = Vec::with_capacity(nb + 1);
        let mut events = Vec::new();
        let (mut delta, mut min_rel) = (Vec::with_capacity(nb), Vec::with_capacity(nb));
        let (mut leaked, mut untracked, mut has_unknown_call) = (false, false, false);
        ev_off.push(0);
        for block in cfg.blocks() {
            let scan = scan_block(routine, block, &mut events);
            ev_off.push(events.len() as u32);
            delta.push(scan.delta);
            min_rel.push(scan.min_rel);
            leaked |= scan.leaked;
            untracked |= scan.untracked;
            if let TermKind::Call { target, .. } = block.term() {
                has_unknown_call |= !for_each_callee(target, |_| {});
            }
        }
        let mut digest =
            Digest { own: StackSummary::default(), leaked, ev_off, events, delta, frame: None };
        digest.frame = if untracked { None } else { digest.track(cfg, &min_rel) };
        let frame = digest.frame.as_ref();
        let unbalanced = frame.is_some_and(|f| !f.balanced);
        // The slots run up to the highest offset the routine addresses.
        let touches_callers =
            frame.is_some_and(|f| f.slots.last().is_some_and(|s| s.entry_off >= 0));
        let opaque = digest.escaped(frame) || unbalanced || touches_callers || has_unknown_call;
        digest.own = StackSummary { unbalanced, opaque };
        digest
    }

    fn events(&self, b: usize) -> &[SpEvent] {
        &self.events[self.ev_off[b] as usize..self.ev_off[b + 1] as usize]
    }

    /// Propagates entry-relative displacements over the flow arcs and
    /// reads the frame off the events, together with the verdicts on
    /// it. A disagreement at a join loses tracking for the whole
    /// routine.
    fn track(&self, cfg: &RoutineCfg, min_rel: &[i64]) -> Option<TrackedFrame> {
        let nb = min_rel.len();
        let mut sp_disp_in: Vec<Option<i64>> = vec![None; nb];
        let mut stack: Vec<BlockId> = Vec::new();
        for &e in cfg.entries() {
            if sp_disp_in[e.index()].is_none() {
                sp_disp_in[e.index()] = Some(0);
                stack.push(e);
            }
        }
        while let Some(b) = stack.pop() {
            let d_out = sp_disp_in[b.index()].expect("queued blocks have a displacement")
                + self.delta[b.index()];
            for &s in cfg.flow().succs(b) {
                match sp_disp_in[s.index()] {
                    None => {
                        sp_disp_in[s.index()] = Some(d_out);
                        stack.push(s);
                    }
                    Some(v) if v == d_out => {}
                    Some(_) => return None,
                }
            }
        }

        // Slot discovery (first width seen per offset wins; a second
        // width is a conflict), frame size and exit balance, over tracked
        // blocks.
        let mut seen: Vec<(i64, MemWidth)> = Vec::new();
        let mut min_disp = 0i64;
        let mut balanced = true;
        for (bi, block) in cfg.blocks().iter().enumerate() {
            let Some(d0) = sp_disp_in[bi] else { continue };
            min_disp = min_disp.min(d0 + min_rel[bi]);
            for ev in self.events(bi) {
                if let SpEvent::Access { width, off, .. } = *ev {
                    seen.push((d0 + off, width));
                }
            }
            if matches!(block.term(), TermKind::Ret) && d0 + self.delta[bi] != 0 {
                balanced = false;
            }
        }
        seen.sort_by_key(|&(off, _)| off);
        let mut width_conflict = false;
        let mut slots: Vec<Slot> = Vec::new();
        for (entry_off, width) in seen {
            match slots.last() {
                Some(s) if s.entry_off == entry_off => width_conflict |= s.width != width,
                _ => slots.push(Slot { entry_off, width }),
            }
        }
        Some(TrackedFrame {
            sp_disp_in,
            slots,
            frame_size: (-min_disp).max(0),
            width_conflict,
            balanced,
        })
    }

    /// The frame, unless an unbalanced callee clobbers the caller's
    /// displacement — viral loss of tracking. Unknown-target calls are
    /// assumed balanced (the calling standard).
    fn frame_under(&self, callee_unbalanced: bool) -> Option<&TrackedFrame> {
        self.frame.as_ref().filter(|_| !callee_unbalanced)
    }

    /// Whether the frame escapes the model, given the frame SP tracking
    /// leaves. Escaped frames report no accesses and are opaque to
    /// callers.
    fn escaped(&self, frame: Option<&TrackedFrame>) -> bool {
        self.leaked || frame.is_none_or(|f| f.width_conflict)
    }
}

// ---------------------------------------------------------------------
// Phase B: the two slot dataflows.
// ---------------------------------------------------------------------

/// A block's composed slot transfer functions.
struct BlockMasks {
    /// Forward: slots certainly defined at exit regardless of entry.
    gen: SlotSet,
    /// Forward: slots whose entry definedness does not survive.
    clear: SlotSet,
    /// Backward: slots live at entry regardless of exit liveness.
    used: SlotSet,
    /// Backward: slots whose exit liveness does not reach the entry.
    def: SlotSet,
}

/// Composes `events` (one block's, entered at displacement `d0`) and the
/// block's call terminator into its four masks; all-empty for a block
/// without a tracked displacement. `opaque` reads a callee's summary.
fn build_masks(
    events: &[SpEvent],
    term: &TermKind,
    d0: Option<i64>,
    slots: &[Slot],
    opaque: impl Fn(RoutineId) -> bool,
) -> BlockMasks {
    let n = slots.len();
    let mut m = BlockMasks {
        gen: SlotSet::empty(n),
        clear: SlotSet::empty(n),
        used: SlotSet::empty(n),
        def: SlotSet::empty(n),
    };
    let Some(d0) = d0 else { return m };
    let slot_of = |off: i64| slot_index(slots, d0 + off).expect("every tracked access has a slot");
    // An SP adjustment crossing an address region ends the existence of
    // the slots inside it.
    let wiped = |from: i64, to: i64| slot_range(slots, d0 + from.min(to), d0 + from.max(to));

    // Forward composition: out = (in − clear) ∪ gen. A call never
    // un-defines a slot: a write leaves it holding a stored value.
    for ev in events {
        match *ev {
            SpEvent::Access { kind: AccessKind::Store, off, .. } => {
                let i = slot_of(off);
                m.gen.insert(i);
                m.clear.remove(i);
            }
            SpEvent::Access { .. } => {}
            SpEvent::Adjust { from, to } => {
                for i in wiped(from, to) {
                    m.clear.insert(i);
                    m.gen.remove(i);
                }
            }
        }
    }

    // Backward composition: in = used ∪ (out − def), terminator first.
    if matches!(term, TermKind::Call { target, .. } if opaque_call(target, &opaque)) {
        m.used = SlotSet::full(n);
    }
    for ev in events.iter().rev() {
        match *ev {
            SpEvent::Access { kind: AccessKind::Load, off, .. } => m.used.insert(slot_of(off)),
            SpEvent::Access { off, .. } => {
                let i = slot_of(off);
                m.used.remove(i);
                m.def.insert(i);
            }
            SpEvent::Adjust { from, to } => {
                for i in wiped(from, to) {
                    m.used.remove(i);
                    m.def.insert(i);
                }
            }
        }
    }
    m
}

/// The two slot dataflows of one tracked frame: per block, the
/// MUST-defined slots at entry and the MAY-live slots at exit.
fn phase_b(
    cfg: &RoutineCfg,
    digest: &Digest,
    frame: &TrackedFrame,
    summaries: &[StackSummary],
    stats: &mut StackStats,
) -> (Vec<SlotSet>, Vec<SlotSet>) {
    let nb = cfg.blocks().len();
    let slots = &frame.slots[..];
    let n = slots.len();
    let arcs = cfg.flow();
    let empty = SlotSet::empty(n);
    let full = SlotSet::full(n);

    let masks: Vec<BlockMasks> = cfg
        .blocks()
        .iter()
        .enumerate()
        .map(|(bi, block)| {
            let d0 = frame.sp_disp_in[bi];
            build_masks(digest.events(bi), block.term(), d0, slots, |c| summaries[c.index()].opaque)
        })
        .collect();

    // Forward MUST-defined: greatest fixpoint of
    //   in[b] = constraint[b] ∩ ⋂_{p ∈ flow-preds} (in[p] − clear[p]) ∪ gen[p]
    // with constraint ∅ at entrances (no slot exists before the
    // prologue allocates it) and ⊤ elsewhere.
    let frank = arcs.rank();
    let mut is_entry = vec![false; nb];
    for &e in cfg.entries() {
        is_entry[e.index()] = true;
    }
    let mut must_in: Vec<SlotSet> = vec![full.clone(); nb];
    let mut wl = PriorityWorklist::new(nb);
    for (i, &r) in frank.iter().enumerate() {
        wl.push(i, r);
    }
    let mut acc = empty.clone();
    let mut tmp = empty.clone();
    while let Some(i) = wl.pop() {
        stats.forward_visits += 1;
        acc.copy_from(if is_entry[i] { &empty } else { &full });
        for &p in arcs.preds(BlockId::from_index(i)) {
            let p = p.index();
            tmp.copy_from(&must_in[p]);
            tmp.subtract(&masks[p].clear);
            tmp.union_with(&masks[p].gen);
            acc.intersect_with(&tmp);
        }
        if acc != must_in[i] {
            must_in[i].copy_from(&acc);
            for &s in arcs.succs(BlockId::from_index(i)) {
                wl.push(s.index(), frank[s.index()]);
            }
        }
    }

    // Backward MAY-live: least fixpoint of
    //   out[b] = boundary[b] ∪ ⋃_{s ∈ flow-succs} in[s]
    //   in[b]  = used[b] ∪ (out[b] − def[b])
    // with boundary(Ret) = the above-entry slots (the caller may read
    // them), boundary(Halt) = ∅, boundary(UnknownJump) = ⊤.
    let mut above = empty.clone();
    for i in slot_range(slots, 0, i64::MAX) {
        above.insert(i);
    }
    let ends: Vec<BlockId> =
        (0..nb).map(BlockId::from_index).filter(|&b| arcs.succs(b).is_empty()).collect();
    let brank = arcs.rpo_ranks_backward(&ends);
    let mut live_in: Vec<SlotSet> = vec![empty.clone(); nb];
    let mut live_out: Vec<SlotSet> = vec![empty.clone(); nb];
    for (i, &r) in brank.iter().enumerate() {
        wl.push(i, r);
    }
    let out = &mut acc;
    while let Some(i) = wl.pop() {
        stats.backward_visits += 1;
        let b = BlockId::from_index(i);
        out.copy_from(match cfg.block(b).term() {
            _ if !arcs.succs(b).is_empty() => &empty,
            TermKind::Ret => &above,
            TermKind::UnknownJump => &full,
            _ => &empty,
        });
        for &s in arcs.succs(b) {
            out.union_with(&live_in[s.index()]);
        }
        live_out[i].copy_from(out);
        out.subtract(&masks[i].def);
        out.union_with(&masks[i].used);
        if *out != live_in[i] {
            live_in[i].copy_from(out);
            for &p in arcs.preds(b) {
                wl.push(p.index(), brank[p.index()]);
            }
        }
    }

    (must_in, live_out)
}

// ---------------------------------------------------------------------
// Component driver.
// ---------------------------------------------------------------------

/// The bottom-up solve over the call-graph condensation: the summary
/// table every component reads its callees from, and the results.
struct Solver<'a> {
    program: &'a Program,
    pcfg: &'a ProgramCfg,
    cg: &'a CallGraph,
    summaries: Vec<StackSummary>,
    routines: Vec<Option<Arc<RoutineStack>>>,
    stats: StackStats,
}

impl<'a> Solver<'a> {
    fn new(program: &'a Program, pcfg: &'a ProgramCfg, cg: &'a CallGraph) -> Solver<'a> {
        let n = program.routines().len();
        Solver {
            program,
            pcfg,
            cg,
            summaries: vec![StackSummary::default(); n],
            routines: (0..n).map(|_| None).collect(),
            stats: StackStats::default(),
        }
    }

    fn finish(self) -> (StackAnalysis, StackStats) {
        let routines =
            self.routines.into_iter().map(|o| o.expect("every routine solved")).collect();
        (StackAnalysis { routines }, self.stats)
    }

    /// Solves one component. `prev` holds an earlier solve's facts of
    /// every routine not edited since (`None` for an edited one; empty
    /// for a from-scratch solve) and `prev_summaries` the summaries that
    /// solve ended with. Phase A reads a member with kept facts from its
    /// kept own verdict, unscanned; a full scan waits for phase B. A kept
    /// member whose own and callees' summaries all came out as before
    /// keeps its facts and skips phase B, so it is never scanned.
    fn solve_component(
        &mut self,
        component: &[RoutineId],
        prev: &mut [Option<Arc<RoutineStack>>],
        prev_summaries: &[StackSummary],
    ) {
        fn kept(prev: &[Option<Arc<RoutineStack>>], r: RoutineId) -> Option<&RoutineStack> {
            prev.get(r.index()).and_then(Option::as_deref)
        }
        let digests: Vec<Option<Digest>> = component
            .iter()
            .map(|&r| kept(prev, r).is_none().then(|| self.scan_routine(r)))
            .collect();
        let own: Vec<StackSummary> = digests
            .iter()
            .zip(component)
            .map(|(digest, &r)| match digest {
                Some(digest) => digest.own,
                None => kept(prev, r).expect("an unscanned member is kept").own,
            })
            .collect();
        self.phase_a(component, &own);
        let unchanged = |s: &Solver<'_>, r: RoutineId| {
            prev_summaries.get(r.index()) == Some(&s.summaries[r.index()])
        };
        for (digest, &rid) in digests.into_iter().zip(component) {
            let reusable = kept(prev, rid).is_some()
                && unchanged(self, rid)
                && self.cg.callees(rid).iter().all(|&c| unchanged(self, c));
            let solved = if reusable {
                prev[rid.index()].take().expect("kept routine present")
            } else {
                let digest = digest.unwrap_or_else(|| {
                    let digest = self.scan_routine(rid);
                    debug_assert_eq!(
                        Some(digest.own),
                        kept(prev, rid).map(|p| p.own),
                        "an unedited routine's own verdict must not change"
                    );
                    digest
                });
                Arc::new(self.phase_b(rid, &digest))
            };
            self.routines[rid.index()] = Some(solved);
        }
    }

    fn scan_routine(&mut self, rid: RoutineId) -> Digest {
        self.stats.scans += 1;
        Digest::scan(self.program, self.pcfg.routine_cfg(rid))
    }

    #[cfg(test)]
    fn scan(&mut self, component: &[RoutineId]) -> Vec<Digest> {
        component.iter().map(|&r| self.scan_routine(r)).collect()
    }

    /// Phase A: the members' summaries, from their own verdicts `own`.
    ///
    /// Both bits are monotone ORs over the call graph, so a routine's
    /// summary is the OR of its own verdict and its callees' summaries.
    /// Every member of a cycle reaches every other, so all of them get
    /// the same OR: of the members' own verdicts and the summaries of
    /// the callees below the component, which are final. Fellow members
    /// still hold the default here, which adds nothing.
    fn phase_a(&mut self, component: &[RoutineId], own: &[StackSummary]) {
        let mut summary = StackSummary::default();
        for (&own, &rid) in own.iter().zip(component) {
            summary |= own;
            for &c in self.cg.callees(rid) {
                summary |= self.summaries[c.index()];
            }
        }
        for &rid in component {
            self.summaries[rid.index()] = summary;
        }
    }

    /// Phase B of one member.
    ///
    /// The result is a function of the member's own text (`digest`), its
    /// own summary and its callees' summaries as the table holds them
    /// now — which for every callee is its final one, since phase A has
    /// run for the member's whole component. [`reanalyze_stack`] rests on
    /// that.
    fn phase_b(&mut self, rid: RoutineId, digest: &Digest) -> RoutineStack {
        let cfg = self.pcfg.routine_cfg(rid);
        let nb = cfg.blocks().len();
        let callee_unbalanced =
            self.cg.callees(rid).iter().any(|c| self.summaries[c.index()].unbalanced);
        let frame = digest.frame_under(callee_unbalanced);
        let escaped = digest.escaped(frame);
        let slots = frame.map_or(Vec::new(), |f| f.slots.clone());
        let empty = SlotSet::empty(slots.len());
        let (must_defined_in, live_out) = match frame {
            Some(frame) if !escaped => {
                phase_b(cfg, digest, frame, &self.summaries, &mut self.stats)
            }
            _ => (vec![empty.clone(); nb], vec![empty; nb]),
        };
        let frame_model =
            FrameModel { frame_size: frame.map_or(0, |f| f.frame_size), slots, escaped };
        let sp_disp_in = frame.map_or_else(|| vec![None; nb], |f| f.sp_disp_in.clone());
        RoutineStack {
            frame: frame_model,
            summary: self.summaries[rid.index()],
            own: digest.own,
            sp_disp_in,
            must_defined_in,
            live_out,
        }
    }
}

/// Runs the whole-program stack-slot analysis: frame models, the
/// two-bit summaries composed bottom-up over the call-graph
/// condensation, and the two slot dataflows per routine —
/// [`reanalyze_stack`] with nothing kept.
pub fn analyze_stack(program: &Program, cfg: &ProgramCfg) -> (StackAnalysis, StackStats) {
    reanalyze_stack(program, cfg, StackAnalysis::unsolved(), &[])
}

/// Incremental variant: `prev` is the analysis of an earlier version of
/// the program and `dirty` marks every routine edited since. Re-solves
/// only what those edits can reach, moving every other routine's facts
/// out of `prev` untouched: every call-graph component has its summaries
/// composed exactly as [`analyze_stack`] does, reading the kept own
/// verdict of each clean member and scanning only the dirty ones; the
/// slot dataflows run only for members that are dirty or whose own or
/// any callee's summary came out different from `prev`'s, and only those
/// are scanned in full. A component with no dirty member and unchanged
/// summaries below it is therefore reused whole, unscanned.
///
/// Bit-identical to [`analyze_stack`] on the same program, heap bytes
/// included: a clean routine's text is unchanged up to layout and its
/// own verdict holds no addresses, so the kept one equals a fresh
/// scan's; the slot dataflows of a routine are a deterministic function
/// of its instruction text, its composed summary and its callees' final
/// summaries (`Solver::phase_b`), and a reused member has all three
/// proven unchanged. Reused routines contribute nothing to the returned
/// [`StackStats`]. A `prev` of another routine count — the never-solved
/// layer of a register-only analysis in particular — keeps nothing, so
/// the solve is [`analyze_stack`]'s.
pub fn reanalyze_stack(
    program: &Program,
    cfg: &ProgramCfg,
    prev: StackAnalysis,
    dirty: &[bool],
) -> (StackAnalysis, StackStats) {
    reanalyze_stack_over(program, cfg, &Calls::of(program, cfg), prev, dirty)
}

/// [`reanalyze_stack`] over the caller's call graph of `(program, cfg)`.
pub(crate) fn reanalyze_stack_over(
    program: &Program,
    cfg: &ProgramCfg,
    calls: &Calls,
    prev: StackAnalysis,
    dirty: &[bool],
) -> (StackAnalysis, StackStats) {
    let mut prev = prev.routines;
    if prev.len() != program.routines().len() {
        prev.clear();
    }
    let prev_summaries: Vec<StackSummary> = prev.iter().map(|r| r.summary).collect();
    let mut kept: Vec<Option<Arc<RoutineStack>>> =
        prev.into_iter().zip(dirty).map(|(rs, &d)| (!d).then_some(rs)).collect();
    let mut solver = Solver::new(program, cfg, &calls.graph);
    for component in calls.sccs.bottom_up() {
        solver.solve_component(component, &mut kept, &prev_summaries);
    }
    solver.finish()
}

// ---------------------------------------------------------------------
// Consumer API.
// ---------------------------------------------------------------------

impl StackAnalysis {
    /// The layer before any solve: no routine has facts. What a
    /// register-only analysis carries until the layer is first asked
    /// for; [`reanalyze_stack`] solves it from scratch.
    pub(crate) fn unsolved() -> StackAnalysis {
        StackAnalysis { routines: Vec::new() }
    }

    /// The per-routine facts.
    pub fn routine(&self, rid: RoutineId) -> &RoutineStack {
        &self.routines[rid.index()]
    }

    /// Total slots modelled across all frames.
    pub fn slot_count(&self) -> usize {
        self.routines.iter().map(|r| r.frame.slots.len()).sum()
    }

    /// Routines whose frame escaped the model.
    pub fn escaped_count(&self) -> usize {
        self.routines.iter().filter(|r| r.frame.escaped).count()
    }

    /// Opaque routines: all of them, and those whose own code makes them
    /// opaque, callees aside.
    pub fn opaque_counts(&self) -> (usize, usize) {
        let count = |f: fn(&RoutineStack) -> bool| self.routines.iter().filter(|r| f(r)).count();
        (count(|r| r.summary.opaque), count(|r| r.own.opaque))
    }

    /// Every SP-relative access of `rid` with its converged dataflow
    /// facts, in address order. Empty for escaped routines (no access
    /// can be judged) and for blocks without a tracked displacement.
    pub fn accesses(
        &self,
        program: &Program,
        pcfg: &ProgramCfg,
        rid: RoutineId,
    ) -> Vec<StackAccess> {
        let rs = &self.routines[rid.index()];
        if rs.frame.escaped {
            return Vec::new();
        }
        let routine = program.routine(rid);
        let cfg = pcfg.routine_cfg(rid);
        let slots = &rs.frame.slots[..];
        let opaque = |c: RoutineId| self.routine(c).summary.opaque;
        let mut out: Vec<StackAccess> = Vec::new();
        let mut events: Vec<SpEvent> = Vec::new();
        for (bi, block) in cfg.blocks().iter().enumerate() {
            let Some(d0) = rs.sp_disp_in[bi] else { continue };
            events.clear();
            scan_block(routine, block, &mut events);
            let slot_of =
                |off: i64| slot_index(slots, d0 + off).expect("every tracked access has a slot");
            let wiped =
                |from: i64, to: i64| slot_range(slots, d0 + from.min(to), d0 + from.max(to));

            // Forward replay: definedness before each access.
            let first = out.len();
            let mut defined = rs.must_defined_in[bi].clone();
            for ev in &events {
                match *ev {
                    SpEvent::Access { addr, kind, width, rel, off } => {
                        let idx = slot_of(off);
                        let (entry_off, sp_disp) = (d0 + off, d0 + rel);
                        out.push(StackAccess {
                            addr,
                            block: BlockId::from_index(bi),
                            kind,
                            width,
                            entry_off,
                            sp_disp,
                            in_frame: entry_off < 0 && entry_off >= sp_disp,
                            defined_before: defined.contains(idx),
                            live_after: true,
                        });
                        if kind == AccessKind::Store {
                            defined.insert(idx);
                        }
                    }
                    SpEvent::Adjust { from, to } => wiped(from, to).for_each(|i| defined.remove(i)),
                }
            }

            // Backward replay: liveness after each store. The
            // terminator applies first (it executes last).
            let mut live = rs.live_out[bi].clone();
            if matches!(block.term(), TermKind::Call { target, .. } if opaque_call(target, opaque))
            {
                live = SlotSet::full(slots.len());
            }
            let mut here = out[first..].iter_mut().rev();
            for ev in events.iter().rev() {
                match *ev {
                    SpEvent::Access { kind, off, .. } => {
                        let access = here.next().expect("one access per access event");
                        let idx = slot_of(off);
                        match kind {
                            AccessKind::Store => {
                                access.live_after = live.contains(idx);
                                live.remove(idx);
                            }
                            AccessKind::Load => live.insert(idx),
                        }
                    }
                    SpEvent::Adjust { from, to } => wiped(from, to).for_each(|i| live.remove(i)),
                }
            }
        }
        out
    }

    /// The slots `b` certainly defines at its exit regardless of entry
    /// state (the forward *gen* mask) — a block "protects" a slot from
    /// an uninit read iff its bit is set. Used by the lint witness
    /// search; empty when the routine is escaped or the block has no
    /// tracked displacement.
    pub fn block_gen(
        &self,
        program: &Program,
        pcfg: &ProgramCfg,
        rid: RoutineId,
        b: BlockId,
    ) -> SlotSet {
        let rs = &self.routines[rid.index()];
        if rs.frame.escaped {
            return SlotSet::empty(rs.frame.slots.len());
        }
        let block = pcfg.routine_cfg(rid).block(b);
        let mut events = Vec::new();
        scan_block(program.routine(rid), block, &mut events);
        let d0 = rs.sp_disp_in[b.index()];
        let opaque = |c: RoutineId| self.routine(c).summary.opaque;
        build_masks(&events, block.term(), d0, &rs.frame.slots, opaque).gen
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::analyze_stack_reference;
    use super::*;
    use proptest::prelude::*;
    use spike_isa::AluOp;
    use spike_program::ProgramBuilder;

    /// The production solver against the iterate-everything reference:
    /// identical facts, footprint and slot-solver effort.
    fn assert_matches_reference(program: &Program) -> (StackAnalysis, StackStats) {
        let cfg = ProgramCfg::build(program);
        let (stack, stats) = analyze_stack(program, &cfg);
        let (ref_stack, ref_stats) = analyze_stack_reference(program, &cfg);
        assert_eq!(stack, ref_stack);
        assert_eq!(stack.heap_bytes(), ref_stack.heap_bytes());
        assert_eq!(stats.forward_visits, ref_stats.forward_visits);
        assert_eq!(stats.backward_visits, ref_stats.backward_visits);
        (stack, stats)
    }

    #[test]
    fn matches_reference_on_every_profile() {
        for profile in spike_synth::profiles() {
            for seed in 0..2u64 {
                let scale = 40.0 / profile.routines as f64;
                assert_matches_reference(&spike_synth::generate(&profile, scale, seed));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn matches_reference_on_random_executables(seed in any::<u64>(), size in 1usize..40) {
            assert_matches_reference(&spike_synth::generate_executable(seed, size));
        }
    }

    #[test]
    fn a_caller_frame_read_on_a_cycle_is_opaque_by_its_own_code() {
        // Each trip round the recursion pops 8 bytes before calling, so
        // the callee's reads land 8 higher in the caller's terms. The
        // read at the entry SP is a caller-frame access, so `climb` is
        // opaque by its own code and nothing is translated round the
        // cycle.
        let mut b = ProgramBuilder::new();
        b.routine("main").call("climb").halt();
        b.routine("climb")
            .load(Reg::T0, Reg::SP, 0)
            .cond(spike_isa::BranchCond::Eq, Reg::T0, "done")
            .lda(Reg::SP, Reg::SP, 8)
            .call("climb")
            .lda(Reg::SP, Reg::SP, -8)
            .label("done")
            .ret();
        let program = b.build().expect("valid program");
        let (stack, _) = assert_matches_reference(&program);
        let climb = stack.routine(rid(&program, "climb"));
        assert!(climb.own.opaque && climb.summary.opaque && !climb.summary.unbalanced);
        assert!(!climb.frame.escaped, "opacity is about callers; the frame itself is tracked");
        let main = stack.routine(rid(&program, "main"));
        assert!(main.summary.opaque && !main.own.opaque, "main inherits its callee's opacity");
    }

    #[test]
    fn an_unbalanced_cycle_is_unbalanced_in_every_member() {
        // `ping` and `pong` each return 8 bytes low when tracked. Both
        // bits are ORs over the component, so both members are
        // unbalanced, and each loses tracking to the other.
        let mut b = ProgramBuilder::new();
        b.routine("main").call("ping").call("pong").halt();
        b.routine("ping").lda(Reg::SP, Reg::SP, -8).call("pong").ret();
        b.routine("pong").lda(Reg::SP, Reg::SP, -8).call("ping").ret();
        let program = b.build().expect("valid program");
        let (stack, _) = assert_matches_reference(&program);
        for name in ["ping", "pong"] {
            let rs = stack.routine(rid(&program, name));
            assert!(rs.own.unbalanced, "{name}'s own code returns 8 bytes low");
            assert!(rs.summary.unbalanced && rs.summary.opaque && rs.frame.escaped);
        }
        let main = stack.routine(rid(&program, "main"));
        assert!(main.frame.escaped && main.summary.unbalanced, "unbalance is viral");
        assert!(!main.own.unbalanced);
    }

    #[test]
    fn frames_over_64_slots_use_the_heap() {
        const SLOTS: i16 = 70;
        let mut b = ProgramBuilder::new();
        {
            let main = b.routine("main");
            main.def(Reg::T0).lda(Reg::SP, Reg::SP, -8 * SLOTS);
            for i in 0..SLOTS {
                main.store(Reg::T0, Reg::SP, 8 * i);
            }
            main.load(Reg::T1, Reg::SP, 8 * (SLOTS - 1)).lda(Reg::SP, Reg::SP, 8 * SLOTS).halt();
        }
        let program = b.build().expect("valid program");
        let (stack, _) = assert_matches_reference(&program);
        let main = rid(&program, "main");
        let rs = stack.routine(main);
        assert_eq!(rs.frame.slots.len(), SLOTS as usize);
        assert_eq!(rs.must_defined_in[0].heap_bytes(), 16, "two heap words");
        assert_eq!(SlotSet::full(64).heap_bytes(), 0, "64 slots still fit the inline word");
        let cfg = ProgramCfg::build(&program);
        let acc = stack.accesses(&program, &cfg, main);
        assert_eq!(acc.len(), SLOTS as usize + 1);
        assert!(acc.last().expect("the load").defined_before);
        assert_eq!(acc.iter().filter(|a| !a.live_after).count(), SLOTS as usize - 1);
    }

    /// Builds and solves a hand-made program, checked against the
    /// reference: these programs reach corners the generated corpus
    /// rarely does, such as a slot at or above the entry SP live at a
    /// `Ret`.
    fn analyze(b: &ProgramBuilder) -> (Program, ProgramCfg, StackAnalysis, StackStats) {
        let program = b.build().expect("valid program");
        let cfg = ProgramCfg::build(&program);
        let (stack, stats) = assert_matches_reference(&program);
        (program, cfg, stack, stats)
    }

    fn rid(program: &Program, name: &str) -> RoutineId {
        program.routine_by_name(name).expect("routine exists")
    }

    #[test]
    fn slotset_tail_masking_and_ops() {
        let full = SlotSet::full(70);
        assert_eq!(full.count(), 70);
        assert!(full.contains(69));
        let mut s = SlotSet::empty(70);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(69);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 69]);
        let mut t = SlotSet::empty(70);
        assert!(t.union_with(&s));
        assert!(!t.union_with(&s), "second union is a no-op");
        t.remove(0);
        t.intersect_with(&s);
        assert_eq!(t.count(), 1);
        let mut u = SlotSet::full(70);
        u.subtract(&s);
        assert_eq!(u.count(), 68);
    }

    #[test]
    fn frame_discovery_and_dead_store() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::T0, Reg::SP, 0) // entry_off -16: never read → dead
            .store(Reg::T0, Reg::SP, 8) // entry_off -8: read below → live
            .load(Reg::T1, Reg::SP, 8)
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let (program, cfg, stack, _) = analyze(&b);
        let main = rid(&program, "main");
        let rs = stack.routine(main);
        assert!(!rs.frame.escaped);
        assert_eq!(rs.frame.frame_size, 16);
        assert_eq!(
            rs.frame.slots,
            vec![
                Slot { entry_off: -16, width: MemWidth::Q },
                Slot { entry_off: -8, width: MemWidth::Q }
            ]
        );
        let acc = stack.accesses(&program, &cfg, main);
        assert_eq!(acc.len(), 3);
        assert!(acc.iter().all(|a| a.in_frame));
        let dead = &acc[0];
        assert_eq!((dead.kind, dead.entry_off), (AccessKind::Store, -16));
        assert!(!dead.live_after, "never-read store is dead");
        assert!(!dead.defined_before);
        let live = &acc[1];
        assert_eq!((live.kind, live.entry_off), (AccessKind::Store, -8));
        assert!(live.live_after);
        let load = &acc[2];
        assert_eq!(load.kind, AccessKind::Load);
        assert!(load.defined_before, "store at -8 dominates the load");
    }

    #[test]
    fn store_dies_when_frame_is_popped() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::T0, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16) // wipes the slot before any read
            .halt();
        let (program, cfg, stack, _) = analyze(&b);
        let main = rid(&program, "main");
        let acc = stack.accesses(&program, &cfg, main);
        assert_eq!(acc.len(), 1);
        assert!(!acc[0].live_after);
    }

    #[test]
    fn uninit_and_out_of_frame_reads_are_visible() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::SP, Reg::SP, -16)
            .load(Reg::T0, Reg::SP, 8) // in frame, never stored
            .load(Reg::T1, Reg::SP, 24) // entry_off +8: out of frame
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let (program, cfg, stack, _) = analyze(&b);
        let main = rid(&program, "main");
        let acc = stack.accesses(&program, &cfg, main);
        assert_eq!(acc.len(), 2);
        assert!(acc[0].in_frame && !acc[0].defined_before);
        assert!(!acc[1].in_frame);
        assert_eq!(acc[1].entry_off, 8);
    }

    #[test]
    fn sp_leak_escapes_the_frame() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .lda(Reg::SP, Reg::SP, -16)
            .lda(Reg::T1, Reg::SP, 8) // derived pointer
            .store(Reg::T0, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let (program, cfg, stack, _) = analyze(&b);
        let main = rid(&program, "main");
        let rs = stack.routine(main);
        assert!(rs.frame.escaped);
        assert!(rs.summary.opaque);
        assert!(!rs.summary.unbalanced, "SP arithmetic itself is still tracked");
        assert!(stack.accesses(&program, &cfg, main).is_empty());
    }

    #[test]
    fn width_conflict_escapes_the_frame() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::T0, Reg::SP, 0)
            .insn(Instruction::Load { width: MemWidth::L, rd: Reg::T1, base: Reg::SP, disp: 0 })
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let (program, _, stack, _) = analyze(&b);
        assert!(stack.routine(rid(&program, "main")).frame.escaped);
    }

    #[test]
    fn unbalanced_callee_is_viral() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("leaky").halt();
        b.routine("leaky").lda(Reg::SP, Reg::SP, -8).ret();
        let (program, _, stack, _) = analyze(&b);
        let leaky = stack.routine(rid(&program, "leaky"));
        assert!(leaky.summary.unbalanced);
        assert!(leaky.summary.opaque);
        let main = stack.routine(rid(&program, "main"));
        assert!(main.frame.escaped, "caller of an unbalanced routine loses SP tracking");
        // The caller may return at any displacement too: unbalance is an
        // OR over callees, like opacity.
        assert!(main.summary.unbalanced && !main.own.unbalanced);
        assert!(main.summary.opaque);
    }

    #[test]
    fn a_callee_writing_the_callers_frame_is_opaque() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::SP, Reg::SP, -16)
            .call("init") // writes our slot at entry_off -16 (its +0)
            .load(Reg::T1, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        b.routine("init").def(Reg::T0).store(Reg::T0, Reg::SP, 0).ret();
        let (program, cfg, stack, _) = analyze(&b);
        let init = stack.routine(rid(&program, "init"));
        assert!(init.own.opaque && !init.frame.escaped);
        let main = rid(&program, "main");
        let acc = stack.accesses(&program, &cfg, main);
        let load = acc.iter().find(|a| a.kind == AccessKind::Load).expect("load present");
        assert!(!load.defined_before, "an opaque call defines no caller slot");
        assert!(load.in_frame);
    }

    #[test]
    fn callee_ref_keeps_caller_store_live() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::T0, Reg::SP, 0) // only read by the callee
            .call("reader")
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        b.routine("reader").load(Reg::V0, Reg::SP, 0).ret();
        let (program, cfg, stack, _) = analyze(&b);
        let reader = stack.routine(rid(&program, "reader"));
        assert!(reader.own.opaque, "reading the caller's frame is opaque");
        let main = rid(&program, "main");
        let acc = stack.accesses(&program, &cfg, main);
        let store = acc.iter().find(|a| a.kind == AccessKind::Store).expect("store present");
        assert!(store.live_after, "an opaque callee must keep the store live");
    }

    #[test]
    fn recursion_keeps_the_frame_tracked() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).call("rec").halt();
        b.routine("rec")
            .def(Reg::T1)
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::T1, Reg::SP, 0)
            .cond(spike_isa::BranchCond::Eq, Reg::T1, "done")
            .call("rec")
            .label("done")
            .load(Reg::T2, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        let (program, cfg, stack, _) = analyze(&b);
        let rec = stack.routine(rid(&program, "rec"));
        assert_eq!(rec.summary, StackSummary::default());
        assert!(!rec.frame.escaped);
        let acc = stack.accesses(&program, &cfg, rid(&program, "rec"));
        let load = acc.iter().find(|a| a.kind == AccessKind::Load).expect("load");
        assert!(load.defined_before, "store dominates the load on both paths");
    }

    #[test]
    fn unknown_call_makes_routine_opaque_and_loads_live() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .def(Reg::PV)
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::T0, Reg::SP, 0) // unknown callee may read it
            .jsr_unknown(Reg::PV)
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let (program, cfg, stack, _) = analyze(&b);
        let main = rid(&program, "main");
        assert!(stack.routine(main).summary.opaque);
        assert!(!stack.routine(main).frame.escaped, "unknown calls are assumed balanced");
        let acc = stack.accesses(&program, &cfg, main);
        let store = acc.iter().find(|a| a.kind == AccessKind::Store).expect("store");
        assert!(store.live_after);
    }

    #[test]
    fn sp_join_conflict_loses_tracking() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .cond(spike_isa::BranchCond::Eq, Reg::T0, "other")
            .lda(Reg::SP, Reg::SP, -16)
            .br("join")
            .label("other")
            .lda(Reg::SP, Reg::SP, -32)
            .br("join")
            .label("join")
            .store(Reg::T0, Reg::SP, 0)
            .halt();
        let (program, _, stack, _) = analyze(&b);
        let rs = stack.routine(rid(&program, "main"));
        assert!(rs.frame.escaped);
        // Untracked is not unbalanced: like an unknown callee, the
        // routine is assumed to obey the calling standard — it is merely
        // opaque, so its loss of tracking does not cascade to callers.
        assert!(!rs.summary.unbalanced);
        assert!(rs.summary.opaque);
    }

    #[test]
    fn block_gen_reports_protecting_blocks() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::T0, Reg::SP, 0)
            .load(Reg::T1, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let (program, cfg, stack, _) = analyze(&b);
        let main = rid(&program, "main");
        let rs = stack.routine(main);
        let idx = rs.frame.slot_at(-16).expect("slot modelled");
        let rcfg = cfg.routine_cfg(main);
        // The whole routine is one block here: the store's gen bit is
        // set despite the trailing pop... no — the pop wipes it.
        let g = stack.block_gen(&program, &cfg, main, rcfg.entries()[0]);
        assert!(!g.contains(idx), "the pop wipes the slot before block exit");
    }

    #[test]
    fn reanalyze_clean_is_identical_with_zero_visits() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).lda(Reg::SP, Reg::SP, -16).call("init").halt();
        b.routine("init").def(Reg::T1).store(Reg::T1, Reg::SP, 0).ret();
        let program = b.build().expect("valid");
        let cfg = ProgramCfg::build(&program);
        let (scratch, scratch_stats) = analyze_stack(&program, &cfg);
        let dirty = vec![false; program.routines().len()];
        let (re, re_stats) = reanalyze_stack(&program, &cfg, scratch.clone(), &dirty);
        assert_eq!(re, scratch);
        assert_eq!(re_stats, StackStats::default());
        assert_ne!(scratch_stats, StackStats::default());
        assert_eq!(re.heap_bytes(), scratch.heap_bytes(), "capacity-exact reuse");
    }

    #[test]
    fn reanalyze_dirty_matches_scratch() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).lda(Reg::SP, Reg::SP, -16).call("init").halt();
        b.routine("init").def(Reg::T1).store(Reg::T1, Reg::SP, 0).ret();
        let program = b.build().expect("valid");
        let cfg = ProgramCfg::build(&program);
        let (scratch, _) = analyze_stack(&program, &cfg);
        let mut dirty = vec![false; program.routines().len()];
        dirty[rid(&program, "init").index()] = true;
        let (re, _) = reanalyze_stack(&program, &cfg, scratch.clone(), &dirty);
        assert_eq!(re, scratch);
        assert_eq!(re.heap_bytes(), scratch.heap_bytes());
    }

    /// `prev` is the solve of `before`; `after` differs from it in the
    /// routines named `dirty`. Checks the incremental result against a
    /// from-scratch solve of `after` and returns both, with their effort.
    fn reanalyze_edit(
        before: &ProgramBuilder,
        after: &ProgramBuilder,
        dirty: &[&str],
    ) -> (Program, StackAnalysis, (StackAnalysis, StackStats), (StackAnalysis, StackStats)) {
        let (_, _, prev, _) = analyze(before);
        let (program, cfg, scratch, scratch_stats) = analyze(after);
        let mut mask = vec![false; program.routines().len()];
        for name in dirty {
            mask[rid(&program, name).index()] = true;
        }
        let (re, re_stats) = reanalyze_stack(&program, &cfg, prev.clone(), &mask);
        assert_eq!(re, scratch);
        assert_eq!(re.heap_bytes(), scratch.heap_bytes(), "capacity-exact reuse");
        (program, prev, (re, re_stats), (scratch, scratch_stats))
    }

    #[test]
    fn clean_member_is_resolved_when_only_its_callees_summary_changed() {
        // `a` is opaque by its own unknown call, so its summary cannot
        // move. The edit makes its callee `b` read the word at its entry
        // SP, which makes `b` opaque, so every slot of `a` is live at the
        // call to `b` — the one at -8 across the store before it too.
        // Only the callee clause of the reuse rule sees that.
        let build = |b_reads: bool| {
            let mut p = ProgramBuilder::new();
            p.routine("main").call("a").halt();
            p.routine("a")
                .def(Reg::T0)
                .def(Reg::PV)
                .lda(Reg::SP, Reg::SP, -16)
                .store(Reg::T0, Reg::SP, 8)
                .jsr_unknown(Reg::PV)
                .store(Reg::T0, Reg::SP, 0)
                .call("b")
                .lda(Reg::SP, Reg::SP, 16)
                .ret();
            let b = p.routine("b");
            if b_reads {
                b.load(Reg::T1, Reg::SP, 0);
            }
            b.ret();
            p
        };
        let (program, prev, (re, _), _) = reanalyze_edit(&build(false), &build(true), &["b"]);
        let a = rid(&program, "a");
        assert_eq!(re.routine(a).summary, prev.routine(a).summary);
        assert_ne!(re.routine(a).live_out, prev.routine(a).live_out);
        assert_ne!(
            re.routine(rid(&program, "b")).summary,
            prev.routine(rid(&program, "b")).summary
        );
    }

    /// A three-routine call cycle under `main`; `c` optionally spills
    /// one more word into its own frame, which no summary shows.
    fn ring(c_spills_twice: bool) -> ProgramBuilder {
        let mut p = ProgramBuilder::new();
        p.routine("main").call("a").halt();
        for (name, callee) in [("a", "b"), ("b", "c"), ("c", "a")] {
            let r = p.routine(name);
            r.def(Reg::T0).lda(Reg::SP, Reg::SP, -16).store(Reg::T0, Reg::SP, 0);
            if name == "c" && c_spills_twice {
                r.store(Reg::T0, Reg::SP, 8);
            }
            r.cond(spike_isa::BranchCond::Eq, Reg::T0, "out").call(callee);
            r.label("out").load(Reg::T1, Reg::SP, 0).lda(Reg::SP, Reg::SP, 16).ret();
        }
        p
    }

    #[test]
    fn clean_members_with_unchanged_inputs_cost_no_slot_dataflow() {
        // Editing `c` re-solves `c` alone; handing the result back with
        // everything but `c` marked re-solves the complement. Each
        // routine's dataflow is deterministic, so if — and only if — the
        // reused members contribute nothing, the two efforts add up to
        // one from-scratch solve.
        let (_, _, (_, only_c), (_, scratch)) = reanalyze_edit(&ring(false), &ring(true), &["c"]);
        let (_, _, (_, all_but_c), _) =
            reanalyze_edit(&ring(true), &ring(true), &["main", "a", "b"]);
        assert!(only_c.forward_visits > 0 && all_but_c.forward_visits > 0);
        assert_eq!(only_c.forward_visits + all_but_c.forward_visits, scratch.forward_visits);
        assert_eq!(only_c.backward_visits + all_but_c.backward_visits, scratch.backward_visits);
    }

    /// [`ring`] with one extra instruction in each member: an add in
    /// `b` whose source operands `swap` exchanges, and, when
    /// `c_writes_up`, a store from `c` into its caller's frame.
    fn ring_with(swap: bool, c_writes_up: bool) -> ProgramBuilder {
        let mut p = ProgramBuilder::new();
        p.routine("main").call("a").halt();
        for (name, callee) in [("a", "b"), ("b", "c"), ("c", "a")] {
            let r = p.routine(name);
            r.def(Reg::T0).def(Reg::T1).lda(Reg::SP, Reg::SP, -16).store(Reg::T0, Reg::SP, 0);
            match name {
                "b" if swap => r.op(AluOp::Add, Reg::T1, Reg::T0, Reg::T2),
                "b" => r.op(AluOp::Add, Reg::T0, Reg::T1, Reg::T2),
                "c" if c_writes_up => r.store(Reg::T0, Reg::SP, 16),
                _ => r,
            };
            r.cond(spike_isa::BranchCond::Eq, Reg::T0, "out").call(callee);
            r.label("out").load(Reg::T1, Reg::SP, 0).lda(Reg::SP, Reg::SP, 16).ret();
        }
        p
    }

    #[test]
    fn a_solve_scans_each_routine_it_must_once_and_no_other() {
        let (program, _, _, scratch) = analyze(&ring_with(false, false));
        assert_eq!(scratch.scans, program.routines().len(), "from scratch: each routine once");

        // An operand swap in `b` changes no summary: phase A composes
        // the whole cycle from `a`'s and `c`'s kept verdicts, and phase B
        // re-solves `b` alone, so `b` is the only routine scanned.
        let before = ring_with(false, false);
        let (_, _, (_, swapped), _) = reanalyze_edit(&before, &ring_with(true, false), &["b"]);
        assert_eq!(swapped.scans, 1);

        // `c` now writes its caller's frame: it is opaque, and so is the
        // whole cycle and `main` above it, so every routine is re-solved:
        // `c` is scanned in phase A, the others in phase B.
        let (program, prev, (re, wrote), _) =
            reanalyze_edit(&before, &ring_with(false, true), &["c"]);
        for name in ["a", "b", "c", "main"] {
            let r = rid(&program, name);
            assert!(re.routine(r).summary.opaque && !prev.routine(r).summary.opaque);
        }
        assert_eq!(wrote.scans, 4);
    }

    #[test]
    fn operate_on_sp_is_a_leak() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).op(AluOp::Add, Reg::SP, Reg::T0, Reg::T1).halt();
        let (program, _, stack, _) = analyze(&b);
        assert!(stack.routine(rid(&program, "main")).frame.escaped);
    }
}
