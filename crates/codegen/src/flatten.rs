//! The flattening back-end: lowers the structured step-IR into one linear
//! instruction array executed by a non-recursive, jump-threaded loop.
//!
//! The structured tree is pleasant to build and optimize but slow to run:
//! every `If` recurses, every `Call` chases a heap-allocated operand `Vec`,
//! and relational binops re-test their opcode on every execution. The flat
//! encoding fixes all three, then squeezes the hot loop further:
//!
//! * nested `If` arms become **relative forward jumps**
//!   ([`FlatOp::JumpIfZero`] / [`FlatOp::JumpIfNonZero`] / [`FlatOp::Jump`],
//!   `pc = pc + 1 + skip`), so dispatch is a single flat loop;
//! * call operands are stored **inline** as `[RegW; 3]` (the IR's maximum
//!   arity), eliminating the per-call pointer chase;
//! * small decision-condition lists (≤ 3, the overwhelmingly common case)
//!   are inlined the same way, with a side pool for wider decisions;
//! * relational comparisons get their own opcode ([`FlatOp::BinopCmp`]),
//!   selected once at lowering time via [`BinopCode::is_relational`]
//!   instead of a per-execution `matches!` test;
//! * every op is **12 bytes**: register operands, ids, and jump offsets
//!   narrow to `u16` (checked at lowering time: a model that outgrows it
//!   is a [`CompileError::Encoding`]) and `f64` immediates move to a
//!   deduplicated constant pool, so four ops share a cache line where the
//!   structured tree fits barely one `Instr`;
//! * the two instrumentation shapes every decision point emits are
//!   **fused**: `CondProbe` + single-condition `DecisionEval` on the same
//!   register becomes [`FlatOp::Decision1`], and the universal
//!   `If { Probe } else { Probe }` outcome pattern becomes
//!   [`FlatOp::ProbeSelect`] — turning the six-dispatch instrumentation
//!   preamble of a decision into three;
//! * beyond those, a catalog of **profile-driven pair fusions** collapses
//!   the adjacent-op pairs that dominate *executed* (not static) dispatch
//!   counts on the bundled benchmark models: paired loads/stores/consts/
//!   probes ([`FlatOp::Load2`], [`FlatOp::StoreState2`], [`FlatOp::Const2`],
//!   [`FlatOp::CondProbe2`]), cast/copy chains ([`FlatOp::CastSatCopy`],
//!   [`FlatOp::CopyCastSat`]), relational compares feeding a guard or a
//!   whole decision preamble ([`FlatOp::CmpJump`], [`FlatOp::CmpSel`]),
//!   state loads beside a guard ([`FlatOp::LoadJz`], [`FlatOp::JzLoad`]),
//!   a decision dispatch followed by the branch-entry guard on its outcome
//!   ([`FlatOp::DecisionSelJz`]), and nested one-armed guards
//!   ([`FlatOp::JzJz`]). Static histograms mislead here — cold chart-store
//!   blocks inflate them — so the catalog was chosen from dynamic
//!   (executed-op) profiles; the `flat_histo` bench binary prints both.
//!
//! Fusion never reorders or drops recorder events: every fused op replays
//! the exact event sequence of its constituents — `Decision1` performs the
//! same `condition` → `decision_eval` call sequence, `CmpSel` replays
//! `compare` → `condition` → `decision_eval` → `branch`, and `ProbeSelect`
//! fires exactly the one `branch` event the taken arm would have. Two
//! structural guards keep pair fusion sound: backward fusion (popping the
//! previous op into a guard) stops at a *fence* just past any
//! already-lowered `If`, because a patched inner jump may target the seam;
//! and `CondProbe` pairing yields to a following `Decision1`/`DecisionSel`
//! fusion rather than stealing its head probe.

use cftcg_model::DataType;

use crate::compile::CompileError;
use crate::ir::{BinopCode, FuncCode, Instr, Reg, UnopCode};

/// Maximum inline operand count — the IR's maximum call arity, reused for
/// inline decision-condition lists.
pub(crate) const MAX_INLINE: usize = 3;

/// A flat-encoded register operand. The mid-end's register compaction
/// keeps files dense and small, so 16 bits are plenty; [`flatten`] checks.
pub(crate) type RegW = u16;

/// One flat-encoded instruction. Mirrors [`Instr`] minus `If`, plus the
/// three jump forms and the relational/decision/probe specializations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FlatOp {
    /// `regs[dst] = const_pool[idx]`.
    Const {
        dst: RegW,
        idx: u16,
    },
    /// Two constant materializations in one dispatch.
    Const2 {
        dst1: RegW,
        idx1: u16,
        dst2: RegW,
        idx2: u16,
    },
    Copy {
        dst: RegW,
        src: RegW,
    },
    Input {
        dst: RegW,
        index: u16,
    },
    Output {
        index: u16,
        src: RegW,
    },
    Unop {
        dst: RegW,
        op: UnopCode,
        src: RegW,
    },
    /// A non-relational binop: pure arithmetic, no recorder interaction.
    Binop {
        dst: RegW,
        op: BinopCode,
        lhs: RegW,
        rhs: RegW,
    },
    /// A relational binop: fires `Recorder::compare` before applying.
    BinopCmp {
        dst: RegW,
        op: BinopCode,
        lhs: RegW,
        rhs: RegW,
    },
    /// [`FlatOp::BinopCmp`] fused with the `JumpIfZero` testing its result
    /// — the relational guard of an `if` with a real body. Fires the same
    /// `compare` event and still writes `dst` (later reads and signal
    /// probes see it); `skip` is relative to the next op, like all jumps.
    CmpJump {
        op: BinopCode,
        dst: RegW,
        lhs: RegW,
        rhs: RegW,
        skip: u16,
    },
    Call {
        dst: RegW,
        func: FuncCode,
        argc: u8,
        args: [RegW; MAX_INLINE],
    },
    CastSat {
        dst: RegW,
        src: RegW,
        ty: DataType,
    },
    /// [`FlatOp::CastSat`] whose result is immediately copied to a second
    /// register (the block-output + signal-register shape every saturating
    /// block lowers to): one dispatch, both registers written.
    CastSatCopy {
        dst: RegW,
        src: RegW,
        ty: DataType,
        dst2: RegW,
    },
    /// `Copy` whose destination immediately feeds a [`FlatOp::CastSat`]:
    /// `regs[dst] = regs[src]; regs[dst2] = cast(regs[dst])`.
    CopyCastSat {
        dst: RegW,
        src: RegW,
        dst2: RegW,
        ty: DataType,
    },
    LoadState {
        dst: RegW,
        slot: u16,
    },
    /// Two adjacent state loads in one dispatch.
    Load2 {
        dst1: RegW,
        slot1: u16,
        dst2: RegW,
        slot2: u16,
    },
    StoreState {
        slot: u16,
        src: RegW,
    },
    /// Two adjacent state stores in one dispatch (applied in order) — the
    /// most common adjacent pair in chart-heavy models, where transition
    /// actions write several chart variables back to back.
    StoreState2 {
        slot1: u16,
        src1: RegW,
        slot2: u16,
        src2: RegW,
    },
    ShiftState {
        base: u32,
        len: u32,
        src: RegW,
    },
    Lookup1 {
        dst: RegW,
        src: RegW,
        table: u16,
    },
    Lookup2 {
        dst: RegW,
        row: RegW,
        col: RegW,
        table: u16,
    },
    Probe {
        branch: u16,
    },
    CondProbe {
        cond: u16,
        src: RegW,
    },
    /// Two adjacent condition probes in one dispatch (events in order).
    CondProbe2 {
        cond1: u16,
        src1: RegW,
        cond2: u16,
        src2: RegW,
    },
    /// Fused `CondProbe` + single-condition `DecisionEval` over one
    /// register: `condition(cond, v)` then `decision_eval(decision, v, v)`.
    Decision1 {
        decision: u16,
        cond: u16,
        src: RegW,
    },
    /// [`FlatOp::Decision1`] further fused with the outcome probe-select
    /// that instrumentation emits right after it: `condition` →
    /// `decision_eval` → one `branch` event, all in one dispatch.
    DecisionSel {
        decision: u16,
        cond: u16,
        src: RegW,
        then_branch: u16,
        else_branch: u16,
    },
    /// [`FlatOp::BinopCmp`] fused with the [`FlatOp::DecisionSel`] that
    /// consumes its result — the dominant adjacent pair in decision-dense
    /// models, where every guard is `compare → condition → decision_eval →
    /// branch`. The four instrumentation ids narrow to `u8` to keep the
    /// variant inside the 12-byte envelope; pairs with wider ids simply
    /// stay unfused (two dispatches instead of one, same events).
    CmpSel {
        op: BinopCode,
        dst: RegW,
        lhs: RegW,
        rhs: RegW,
        decision: u8,
        cond: u8,
        then_branch: u8,
        else_branch: u8,
    },
    /// Decision evaluation with the condition registers inline.
    DecisionEvalSmall {
        decision: u16,
        outcome: RegW,
        len: u8,
        conds: [RegW; MAX_INLINE],
    },
    /// Decision evaluation reading `len` condition registers from the
    /// program's condition pool starting at `start`.
    DecisionEvalPool {
        decision: u16,
        outcome: RegW,
        start: u16,
        len: u16,
    },
    Assert {
        id: u16,
        cond: RegW,
    },
    /// Fused `If { Probe(then) } else { Probe(else) }`: fires exactly one
    /// branch event, no jumps executed.
    ProbeSelect {
        cond: RegW,
        then_branch: u16,
        else_branch: u16,
    },
    /// `if regs[cond] == 0 { pc += skip }` (relative to the next op).
    JumpIfZero {
        cond: RegW,
        skip: u16,
    },
    /// `JumpIfZero` fused with the state load that opens its fall-through
    /// body — the hottest executed pair in state-heavy models: taken, it
    /// skips like the jump; not taken, it also performs the load.
    JzLoad {
        cond: RegW,
        skip: u16,
        dst: RegW,
        slot: u16,
    },
    /// The mirror fusion: a state load immediately guarding an `If` (mode
    /// variables re-materialized then tested). Loads unconditionally, then
    /// jumps like `JumpIfZero` — `cond` is usually but not necessarily
    /// `dst`.
    LoadJz {
        dst: RegW,
        slot: u16,
        cond: RegW,
        skip: u16,
    },
    /// [`FlatOp::DecisionSel`] fused with the `JumpIfZero` entering the
    /// *real* branch body on the same register — the universal
    /// "instrument the decision, then take it" shape. Ids narrow to `u8`
    /// like [`FlatOp::CmpSel`]; wider ids stay unfused.
    DecisionSelJz {
        decision: u8,
        cond: u8,
        src: RegW,
        then_branch: u8,
        else_branch: u8,
        skip: u16,
    },
    /// Two nested entry guards in one dispatch: `if c1 == 0 { skip1 }
    /// else if c2 == 0 { skip2 }` — the `If c1 { If c2 { … } … }` shape.
    /// Both skips are relative to the next op, like all jumps.
    JzJz {
        cond1: RegW,
        skip1: u16,
        cond2: RegW,
        skip2: u16,
    },
    /// `if regs[cond] != 0 { pc += skip }` (relative to the next op).
    JumpIfNonZero {
        cond: RegW,
        skip: u16,
    },
    /// `pc += skip` (relative to the next op).
    Jump {
        skip: u16,
    },
}

/// A flat-encoded step program: the op array plus the side pools — `f64`
/// immediates (deduplicated by bit pattern) and wide decision-condition
/// lists.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatProgram {
    pub ops: Vec<FlatOp>,
    pub const_pool: Vec<f64>,
    pub cond_pool: Vec<RegW>,
    /// Registers the executor pre-loads once per session instead of the
    /// program re-materializing them every tick: top-level constants whose
    /// register has no other writer anywhere in the program. Hoisting them
    /// out of the step body is safe because the register file persists
    /// across ticks and lowering puts definitions before uses, so every
    /// tick (including the first) reads the same value the in-body `Const`
    /// would have just stored.
    pub reg_init: Vec<(RegW, f64)>,
}

impl FlatProgram {
    /// Number of flat ops (jumps included) — the dispatch loop's workload.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Interns `value` in the constant pool, deduplicating by bit pattern
    /// (NaN payloads included — the pool must reproduce folds bit-exactly).
    fn intern(&mut self, value: f64) -> Result<u16, CompileError> {
        let bits = value.to_bits();
        if let Some(i) = self.const_pool.iter().position(|c| c.to_bits() == bits) {
            return Ok(i as u16);
        }
        let idx = narrow(self.const_pool.len(), "constant pool index")?;
        self.const_pool.push(value);
        Ok(idx)
    }
}

/// Narrows an index to the flat encoding's 16-bit operand width, failing
/// with a named [`CompileError::Encoding`] if a model outgrows it (the
/// check is a compile-time guard, not a runtime branch in the VM).
fn narrow(value: usize, what: &'static str) -> Result<u16, CompileError> {
    u16::try_from(value).map_err(|_| CompileError::Encoding { what, value })
}

fn r(x: Reg) -> Result<RegW, CompileError> {
    narrow(x as usize, "register operand")
}

/// Lowers a structured body into flat form. `observed` lists registers
/// readable from outside the program between ticks (the signal-probe
/// surface of [`crate::Executor::reg`]) — they constrain hoisting.
///
/// # Errors
///
/// [`CompileError::Encoding`] when a register, constant-pool, state-slot,
/// port, id or jump operand does not fit the encoding's 16 bits.
pub(crate) fn flatten(
    body: &[Instr],
    observed: &std::collections::HashSet<Reg>,
) -> Result<FlatProgram, CompileError> {
    let mut p = FlatProgram::default();
    // Constant hoisting: a `Const` whose register has no other writer in
    // the whole program and whose every read is *dominated* by it (reads
    // occur only downstream of the write within its own arm) stores a
    // value no execution can ever observe differing from the constant —
    // so it moves to `reg_init` and out of the per-tick dispatch loop.
    // Top-level constants re-store unconditionally every tick, so they
    // hoist even when externally observed; conditional ones hoist only
    // when the register is invisible to the signal-probe surface (on
    // ticks where the arm never ran, the original register still holds
    // its initial zero, and an observer could tell the difference).
    let mut writes = std::collections::HashMap::new();
    count_writes(body, &mut writes);
    let mut consts = Vec::new();
    collect_consts(body, &mut consts);
    let mut hoisted = std::collections::HashSet::new();
    for (dst, value) in consts {
        if writes.get(&dst) != Some(&1) {
            continue;
        }
        let ok = match scan_dominance(body, dst) {
            Dom::Dominated => true,
            Dom::CondDominated => !observed.contains(&dst),
            _ => false,
        };
        if ok {
            hoisted.insert(dst);
            p.reg_init.push((r(dst)?, value));
        }
    }
    flatten_into(body, &mut p, &hoisted)?;
    Ok(p)
}

/// Collects every `Const` in the tree (register, value), any depth.
fn collect_consts(body: &[Instr], out: &mut Vec<(Reg, f64)>) {
    for instr in body {
        match instr {
            Instr::Const { dst, value } => out.push((*dst, *value)),
            Instr::If { then_body, else_body, .. } => {
                collect_consts(then_body, out);
                collect_consts(else_body, out);
            }
            _ => {}
        }
    }
}

/// Dominance state of one register's single `Const` write within a subtree.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dom {
    /// No write, no reads here.
    Clean,
    /// Reads but no write here.
    ReadsOnly,
    /// The write is in this body; every read in the subtree follows it.
    Dominated,
    /// The write sits dominated inside a nested arm; reads *after* that
    /// arm at any outer level would observe ticks where the arm never ran.
    CondDominated,
    /// Some read is not dominated by the write.
    Broken,
}

/// Walks `body` in execution order classifying whether every read of `dst`
/// is dominated by its single `Const` write (see [`Dom`]).
fn scan_dominance(body: &[Instr], dst: Reg) -> Dom {
    fn bump_read(state: Dom) -> Dom {
        match state {
            Dom::Clean => Dom::ReadsOnly,
            Dom::ReadsOnly => Dom::ReadsOnly,
            Dom::Dominated => Dom::Dominated,
            // A read downstream of a conditional write sees stale values
            // on ticks where the write's arm did not run.
            Dom::CondDominated | Dom::Broken => Dom::Broken,
        }
    }
    let mut state = Dom::Clean;
    for instr in body {
        match instr {
            Instr::Const { dst: d, .. } if *d == dst => {
                // The single global write: every later read (any depth,
                // any later instruction) executes after it this tick.
                return if state == Dom::Clean { Dom::Dominated } else { Dom::Broken };
            }
            Instr::If { cond, then_body, else_body } => {
                if *cond == dst {
                    state = bump_read(state);
                }
                for sub in [scan_dominance(then_body, dst), scan_dominance(else_body, dst)] {
                    state = match (state, sub) {
                        (Dom::Broken, _) | (_, Dom::Broken) => Dom::Broken,
                        (s, Dom::Clean) => s,
                        (Dom::Clean, Dom::ReadsOnly) | (Dom::ReadsOnly, Dom::ReadsOnly) => {
                            Dom::ReadsOnly
                        }
                        (Dom::Clean, Dom::Dominated | Dom::CondDominated) => Dom::CondDominated,
                        // Reads strictly before a conditional write, or in
                        // its sibling arm, are not dominated.
                        (Dom::ReadsOnly, Dom::Dominated | Dom::CondDominated) => Dom::Broken,
                        (Dom::CondDominated, _) => Dom::Broken,
                        (Dom::Dominated, _) => unreachable!("write returns early"),
                    };
                }
            }
            other => {
                if instr_reads(other, dst) {
                    state = bump_read(state);
                }
            }
        }
    }
    state
}

/// Whether `instr` reads register `dst` (source operands only; `If` conds
/// and nested bodies are handled by [`scan_dominance`]).
fn instr_reads(instr: &Instr, dst: Reg) -> bool {
    match instr {
        Instr::Copy { src, .. }
        | Instr::Output { src, .. }
        | Instr::Unop { src, .. }
        | Instr::CastSat { src, .. }
        | Instr::StoreState { src, .. }
        | Instr::ShiftState { src, .. }
        | Instr::Lookup1 { src, .. }
        | Instr::CondProbe { src, .. } => *src == dst,
        Instr::Binop { lhs, rhs, .. } => *lhs == dst || *rhs == dst,
        Instr::Lookup2 { row, col, .. } => *row == dst || *col == dst,
        Instr::Call { args, .. } => args.contains(&dst),
        Instr::DecisionEval { conds, outcome, .. } => *outcome == dst || conds.contains(&dst),
        Instr::Assert { cond, .. } => *cond == dst,
        Instr::Const { .. }
        | Instr::Input { .. }
        | Instr::LoadState { .. }
        | Instr::Probe { .. } => false,
        Instr::If { .. } => false,
    }
}

/// Counts static register writes across the whole tree.
fn count_writes(body: &[Instr], counts: &mut std::collections::HashMap<Reg, u32>) {
    for instr in body {
        match instr {
            Instr::Const { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Input { dst, .. }
            | Instr::Unop { dst, .. }
            | Instr::Binop { dst, .. }
            | Instr::Call { dst, .. }
            | Instr::CastSat { dst, .. }
            | Instr::LoadState { dst, .. }
            | Instr::Lookup1 { dst, .. }
            | Instr::Lookup2 { dst, .. } => *counts.entry(*dst).or_default() += 1,
            Instr::If { then_body, else_body, .. } => {
                count_writes(then_body, counts);
                count_writes(else_body, counts);
            }
            Instr::Output { .. }
            | Instr::StoreState { .. }
            | Instr::ShiftState { .. }
            | Instr::Probe { .. }
            | Instr::CondProbe { .. }
            | Instr::DecisionEval { .. }
            | Instr::Assert { .. } => {}
        }
    }
}

fn flatten_into(
    body: &[Instr],
    p: &mut FlatProgram,
    hoisted: &std::collections::HashSet<Reg>,
) -> Result<(), CompileError> {
    let mut i = 0;
    // Ops at positions below `fence` may be jump targets of already-patched
    // inner lowerings; backward fusion must never pop them (a patched skip
    // landing on a fused op would execute its extra effects on the taken
    // path). The fence advances past every completed `If` lowering.
    let mut fence = p.ops.len();
    while i < body.len() {
        let instr = &body[i];
        i += 1;
        match instr {
            Instr::Const { dst, value } => {
                // A hoisted register's single writer IS this instruction;
                // the executor pre-loads it, so emit nothing.
                if hoisted.contains(dst) {
                    continue;
                }
                let idx = p.intern(*value)?;
                // Un-hoistable constants cluster (multi-writer scratch
                // registers at block boundaries); pair adjacent ones up.
                if let Some(Instr::Const { dst: d2, value: v2 }) = body.get(i) {
                    if !hoisted.contains(d2) {
                        i += 1;
                        let idx2 = p.intern(*v2)?;
                        p.ops.push(FlatOp::Const2 {
                            dst1: r(*dst)?,
                            idx1: idx,
                            dst2: r(*d2)?,
                            idx2,
                        });
                        continue;
                    }
                }
                p.ops.push(FlatOp::Const { dst: r(*dst)?, idx });
            }
            Instr::Copy { dst, src } => {
                // A copy feeding straight into a saturating cast (block
                // input selection then quantization) is one dispatch.
                if let Some(Instr::CastSat { dst: d2, src: s2, ty }) = body.get(i) {
                    if s2 == dst {
                        i += 1;
                        p.ops.push(FlatOp::CopyCastSat {
                            dst: r(*dst)?,
                            src: r(*src)?,
                            dst2: r(*d2)?,
                            ty: *ty,
                        });
                        continue;
                    }
                }
                p.ops.push(FlatOp::Copy { dst: r(*dst)?, src: r(*src)? });
            }
            Instr::Input { dst, index } => {
                p.ops.push(FlatOp::Input { dst: r(*dst)?, index: narrow(*index, "input index")? });
            }
            Instr::Output { index, src } => {
                p.ops
                    .push(FlatOp::Output { index: narrow(*index, "output index")?, src: r(*src)? });
            }
            Instr::Unop { dst, op, src } => {
                p.ops.push(FlatOp::Unop { dst: r(*dst)?, op: *op, src: r(*src)? });
            }
            Instr::Binop { dst, op, lhs, rhs } => {
                if op.is_relational() {
                    // A relational guard almost always feeds straight into
                    // its decision preamble (CondProbe + DecisionEval +
                    // probe-only outcome If over the same register). When
                    // all four instrumentation ids fit in a byte, the whole
                    // compare-and-decide shape is one dispatch.
                    if let Some((decision, cond, t, e)) = peek_decision_preamble(&body[i..], *dst) {
                        i += 3;
                        p.ops.push(FlatOp::CmpSel {
                            op: *op,
                            dst: r(*dst)?,
                            lhs: r(*lhs)?,
                            rhs: r(*rhs)?,
                            decision,
                            cond,
                            then_branch: t,
                            else_branch: e,
                        });
                        continue;
                    }
                    p.ops.push(FlatOp::BinopCmp {
                        dst: r(*dst)?,
                        op: *op,
                        lhs: r(*lhs)?,
                        rhs: r(*rhs)?,
                    });
                } else {
                    p.ops.push(FlatOp::Binop {
                        dst: r(*dst)?,
                        op: *op,
                        lhs: r(*lhs)?,
                        rhs: r(*rhs)?,
                    });
                }
            }
            Instr::Call { dst, func, args } => {
                assert!(args.len() <= MAX_INLINE, "IR call arity exceeds inline operand space");
                let mut inline = [0 as RegW; MAX_INLINE];
                for (slot, a) in inline.iter_mut().zip(args) {
                    *slot = r(*a)?;
                }
                p.ops.push(FlatOp::Call {
                    dst: r(*dst)?,
                    func: *func,
                    argc: args.len() as u8,
                    args: inline,
                });
            }
            Instr::CastSat { dst, src, ty } => {
                // Every saturating block ends by publishing its quantized
                // result to a signal register: cast + copy, one dispatch.
                if let Some(Instr::Copy { dst: d2, src: s2 }) = body.get(i) {
                    if s2 == dst {
                        i += 1;
                        p.ops.push(FlatOp::CastSatCopy {
                            dst: r(*dst)?,
                            src: r(*src)?,
                            ty: *ty,
                            dst2: r(*d2)?,
                        });
                        continue;
                    }
                }
                p.ops.push(FlatOp::CastSat { dst: r(*dst)?, src: r(*src)?, ty: *ty });
            }
            Instr::LoadState { dst, slot } => {
                let (dst1, slot1) = (r(*dst)?, narrow(*slot, "state slot")?);
                // Blocks reading several state slots in a row (delays,
                // charts re-materializing variables) pair up like stores.
                if let Some(Instr::LoadState { dst: d2, slot: s2 }) = body.get(i) {
                    i += 1;
                    p.ops.push(FlatOp::Load2 {
                        dst1,
                        slot1,
                        dst2: r(*d2)?,
                        slot2: narrow(*s2, "state slot")?,
                    });
                    continue;
                }
                p.ops.push(FlatOp::LoadState { dst: dst1, slot: slot1 });
            }
            Instr::StoreState { slot, src } => {
                let (slot1, src1) = (narrow(*slot, "state slot")?, r(*src)?);
                // Chart transition actions store several variables in a
                // row; pair them up into one dispatch (order preserved).
                if let Some(Instr::StoreState { slot: slot2, src: src2 }) = body.get(i) {
                    i += 1;
                    p.ops.push(FlatOp::StoreState2 {
                        slot1,
                        src1,
                        slot2: narrow(*slot2, "state slot")?,
                        src2: r(*src2)?,
                    });
                } else {
                    p.ops.push(FlatOp::StoreState { slot: slot1, src: src1 });
                }
            }
            Instr::ShiftState { base, len, src } => {
                p.ops.push(FlatOp::ShiftState {
                    base: *base as u32,
                    len: *len as u32,
                    src: r(*src)?,
                });
            }
            Instr::Lookup1 { dst, src, table } => {
                p.ops.push(FlatOp::Lookup1 {
                    dst: r(*dst)?,
                    src: r(*src)?,
                    table: narrow(*table, "1-D table index")?,
                });
            }
            Instr::Lookup2 { dst, row, col, table } => {
                p.ops.push(FlatOp::Lookup2 {
                    dst: r(*dst)?,
                    row: r(*row)?,
                    col: r(*col)?,
                    table: narrow(*table, "2-D table index")?,
                });
            }
            Instr::Probe { branch } => {
                p.ops.push(FlatOp::Probe { branch: narrow(branch.index(), "branch id")? });
            }
            Instr::CondProbe { cond, src } => {
                // Fuse with the single-condition decision evaluation that
                // instrumentation emits immediately after (same register
                // as sole condition and outcome): one dispatch, identical
                // condition → decision_eval event order.
                if let Some(Instr::DecisionEval { decision, conds, outcome }) = body.get(i) {
                    if conds.as_slice() == [*src] && outcome == src {
                        i += 1;
                        let decision = narrow(decision.index(), "decision id")?;
                        let cond = narrow(cond.index(), "condition id")?;
                        // Single-condition decisions are always followed by
                        // their outcome probe-select on the same register;
                        // folding it in makes the whole instrumentation
                        // preamble of a decision one dispatch.
                        if let Some(Instr::If { cond: icond, then_body, else_body }) = body.get(i) {
                            if let (
                                true,
                                [Instr::Probe { branch: t }],
                                [Instr::Probe { branch: e }],
                            ) = (icond == src, then_body.as_slice(), else_body.as_slice())
                            {
                                i += 1;
                                p.ops.push(FlatOp::DecisionSel {
                                    decision,
                                    cond,
                                    src: r(*src)?,
                                    then_branch: narrow(t.index(), "branch id")?,
                                    else_branch: narrow(e.index(), "branch id")?,
                                });
                                continue;
                            }
                        }
                        p.ops.push(FlatOp::Decision1 { decision, cond, src: r(*src)? });
                        continue;
                    }
                }
                // Multi-condition decisions probe their conditions back to
                // back; pair adjacent probes (events stay in order). Only
                // when the next probe does not itself head a fusable
                // decision preamble — a greedy pair here would break it.
                if let Some(Instr::CondProbe { cond: c2, src: s2 }) = body.get(i) {
                    let next_fuses = matches!(
                        body.get(i + 1),
                        Some(Instr::DecisionEval { conds, outcome, .. })
                            if conds.as_slice() == [*s2] && outcome == s2
                    );
                    if !next_fuses {
                        i += 1;
                        p.ops.push(FlatOp::CondProbe2 {
                            cond1: narrow(cond.index(), "condition id")?,
                            src1: r(*src)?,
                            cond2: narrow(c2.index(), "condition id")?,
                            src2: r(*s2)?,
                        });
                        continue;
                    }
                }
                p.ops.push(FlatOp::CondProbe {
                    cond: narrow(cond.index(), "condition id")?,
                    src: r(*src)?,
                });
            }
            Instr::DecisionEval { decision, conds, outcome } => {
                let decision = narrow(decision.index(), "decision id")?;
                if conds.len() <= MAX_INLINE {
                    let mut inline = [0 as RegW; MAX_INLINE];
                    for (slot, c) in inline.iter_mut().zip(conds) {
                        *slot = r(*c)?;
                    }
                    p.ops.push(FlatOp::DecisionEvalSmall {
                        decision,
                        outcome: r(*outcome)?,
                        len: conds.len() as u8,
                        conds: inline,
                    });
                } else {
                    let start = narrow(p.cond_pool.len(), "condition pool offset")?;
                    for c in conds {
                        p.cond_pool.push(r(*c)?);
                    }
                    p.ops.push(FlatOp::DecisionEvalPool {
                        decision,
                        outcome: r(*outcome)?,
                        start,
                        len: narrow(conds.len(), "condition pool span")?,
                    });
                }
            }
            Instr::Assert { id, cond } => {
                p.ops.push(FlatOp::Assert {
                    id: narrow(id.index(), "assertion id")?,
                    cond: r(*cond)?,
                });
            }
            Instr::If { cond, then_body, else_body } => {
                // The universal decision-outcome shape — one probe per arm
                // — needs no control flow at all in flat form.
                if let ([Instr::Probe { branch: t }], [Instr::Probe { branch: e }]) =
                    (then_body.as_slice(), else_body.as_slice())
                {
                    p.ops.push(FlatOp::ProbeSelect {
                        cond: r(*cond)?,
                        then_branch: narrow(t.index(), "branch id")?,
                        else_branch: narrow(e.index(), "branch id")?,
                    });
                    continue;
                }
                if else_body.is_empty() {
                    // Nested one-armed guards collapse into one dispatch:
                    // `If c1 { If c2 { inner } rest }` tests both
                    // conditions in a single op, each skip patched to its
                    // own body end.
                    if let Some(Instr::If { cond: c2, then_body: tb2, else_body: eb2 }) =
                        then_body.first()
                    {
                        if eb2.is_empty() {
                            let pos = reserve(
                                p,
                                FlatOp::JzJz {
                                    cond1: r(*cond)?,
                                    skip1: 0,
                                    cond2: r(*c2)?,
                                    skip2: 0,
                                },
                            );
                            flatten_into(tb2, p, hoisted)?;
                            patch_jzjz(p, pos, false)?;
                            flatten_into(&then_body[1..], p, hoisted)?;
                            patch_jzjz(p, pos, true)?;
                            fence = p.ops.len();
                            continue;
                        }
                    }
                    let (jz, skipped) = reserve_guard(p, r(*cond)?, then_body, fence)?;
                    flatten_into(&then_body[skipped..], p, hoisted)?;
                    patch(p, jz)?;
                } else if then_body.is_empty() {
                    let jnz = reserve(p, FlatOp::JumpIfNonZero { cond: r(*cond)?, skip: 0 });
                    flatten_into(else_body, p, hoisted)?;
                    patch(p, jnz)?;
                } else {
                    let (jz, skipped) = reserve_guard(p, r(*cond)?, then_body, fence)?;
                    flatten_into(&then_body[skipped..], p, hoisted)?;
                    let jump = reserve(p, FlatOp::Jump { skip: 0 });
                    patch(p, jz)?;
                    flatten_into(else_body, p, hoisted)?;
                    patch(p, jump)?;
                }
                fence = p.ops.len();
            }
        }
    }
    Ok(())
}

/// Matches the full single-condition decision preamble over register `dst`
/// at the head of `rest` — `CondProbe` + `DecisionEval` + probe-only
/// outcome `If`, all on `dst` — returning the four instrumentation ids iff
/// every one fits the byte-wide [`FlatOp::CmpSel`] encoding.
fn peek_decision_preamble(rest: &[Instr], dst: Reg) -> Option<(u8, u8, u8, u8)> {
    let fits = |x: usize| u8::try_from(x).ok();
    match rest {
        [Instr::CondProbe { cond, src }, Instr::DecisionEval { decision, conds, outcome }, Instr::If { cond: icond, then_body, else_body }, ..]
            if *src == dst && conds.as_slice() == [dst] && *outcome == dst && *icond == dst =>
        {
            if let ([Instr::Probe { branch: t }], [Instr::Probe { branch: e }]) =
                (then_body.as_slice(), else_body.as_slice())
            {
                return Some((
                    fits(decision.index())?,
                    fits(cond.index())?,
                    fits(t.index())?,
                    fits(e.index())?,
                ));
            }
            None
        }
        _ => None,
    }
}

/// Stable display name of an op's variant, for diagnostics/histograms.
pub(crate) fn op_name(op: &FlatOp) -> &'static str {
    match op {
        FlatOp::Const { .. } => "Const",
        FlatOp::Const2 { .. } => "Const2",
        FlatOp::Copy { .. } => "Copy",
        FlatOp::Input { .. } => "Input",
        FlatOp::Output { .. } => "Output",
        FlatOp::Unop { .. } => "Unop",
        FlatOp::Binop { .. } => "Binop",
        FlatOp::BinopCmp { .. } => "BinopCmp",
        FlatOp::CmpJump { .. } => "CmpJump",
        FlatOp::Call { .. } => "Call",
        FlatOp::CastSat { .. } => "CastSat",
        FlatOp::CastSatCopy { .. } => "CastSatCopy",
        FlatOp::CopyCastSat { .. } => "CopyCastSat",
        FlatOp::LoadState { .. } => "LoadState",
        FlatOp::Load2 { .. } => "Load2",
        FlatOp::StoreState { .. } => "StoreState",
        FlatOp::StoreState2 { .. } => "StoreState2",
        FlatOp::ShiftState { .. } => "ShiftState",
        FlatOp::Lookup1 { .. } => "Lookup1",
        FlatOp::Lookup2 { .. } => "Lookup2",
        FlatOp::Probe { .. } => "Probe",
        FlatOp::CondProbe { .. } => "CondProbe",
        FlatOp::CondProbe2 { .. } => "CondProbe2",
        FlatOp::Decision1 { .. } => "Decision1",
        FlatOp::DecisionSel { .. } => "DecisionSel",
        FlatOp::CmpSel { .. } => "CmpSel",
        FlatOp::DecisionEvalSmall { .. } => "DecisionEvalSmall",
        FlatOp::DecisionEvalPool { .. } => "DecisionEvalPool",
        FlatOp::Assert { .. } => "Assert",
        FlatOp::ProbeSelect { .. } => "ProbeSelect",
        FlatOp::JumpIfZero { .. } => "JumpIfZero",
        FlatOp::JzLoad { .. } => "JzLoad",
        FlatOp::LoadJz { .. } => "LoadJz",
        FlatOp::DecisionSelJz { .. } => "DecisionSelJz",
        FlatOp::JzJz { .. } => "JzJz",
        FlatOp::JumpIfNonZero { .. } => "JumpIfNonZero",
        FlatOp::Jump { .. } => "Jump",
    }
}

/// Pushes a jump placeholder, returning its position for later patching.
fn reserve(p: &mut FlatProgram, op: FlatOp) -> usize {
    p.ops.push(op);
    p.ops.len() - 1
}

/// Reserves the entry guard of an `If` taken on zero, fusing where the
/// dynamic profile says it pays: backward with a just-emitted relational
/// compare producing the condition ([`FlatOp::CmpJump`] — legal only above
/// `fence`, i.e. no patched jump can land between the pair), else forward
/// with a state load opening the fall-through body ([`FlatOp::JzLoad`]).
/// Returns the placeholder position and how many leading body instructions
/// the guard already consumed.
fn reserve_guard(
    p: &mut FlatProgram,
    cond: RegW,
    then_body: &[Instr],
    fence: usize,
) -> Result<(usize, usize), CompileError> {
    if p.ops.len() > fence {
        match *p.ops.last().expect("len > fence >= 0") {
            FlatOp::BinopCmp { dst, op, lhs, rhs } if dst == cond => {
                p.ops.pop();
                return Ok((reserve(p, FlatOp::CmpJump { op, dst, lhs, rhs, skip: 0 }), 0));
            }
            FlatOp::LoadState { dst, slot } => {
                p.ops.pop();
                return Ok((reserve(p, FlatOp::LoadJz { dst, slot, cond, skip: 0 }), 0));
            }
            FlatOp::DecisionSel { decision, cond: cid, src, then_branch, else_branch }
                if src == cond =>
            {
                let fits = |x: u16| u8::try_from(x).ok();
                if let (Some(d), Some(c), Some(t), Some(e)) =
                    (fits(decision), fits(cid), fits(then_branch), fits(else_branch))
                {
                    p.ops.pop();
                    let op = FlatOp::DecisionSelJz {
                        decision: d,
                        cond: c,
                        src,
                        then_branch: t,
                        else_branch: e,
                        skip: 0,
                    };
                    return Ok((reserve(p, op), 0));
                }
            }
            _ => {}
        }
    }
    if let Some(Instr::LoadState { dst, slot }) = then_body.first() {
        let op =
            FlatOp::JzLoad { cond, skip: 0, dst: r(*dst)?, slot: narrow(*slot, "state slot")? };
        return Ok((reserve(p, op), 1));
    }
    Ok((reserve(p, FlatOp::JumpIfZero { cond, skip: 0 }), 0))
}

/// Patches the jump at `pos` to skip to the current end of the op array.
fn patch(p: &mut FlatProgram, pos: usize) -> Result<(), CompileError> {
    let skip = narrow(p.ops.len() - pos - 1, "jump offset")?;
    match &mut p.ops[pos] {
        FlatOp::JumpIfZero { skip: s, .. }
        | FlatOp::JumpIfNonZero { skip: s, .. }
        | FlatOp::Jump { skip: s, .. }
        | FlatOp::CmpJump { skip: s, .. }
        | FlatOp::JzLoad { skip: s, .. }
        | FlatOp::LoadJz { skip: s, .. }
        | FlatOp::DecisionSelJz { skip: s, .. } => *s = skip,
        other => unreachable!("patching a non-jump op {other:?}"),
    }
    Ok(())
}

/// Patches one of a [`FlatOp::JzJz`]'s two skips to the current end of the
/// op array: the outer guard's (`skip1`) or the inner's (`skip2`).
fn patch_jzjz(p: &mut FlatProgram, pos: usize, outer: bool) -> Result<(), CompileError> {
    let skip = narrow(p.ops.len() - pos - 1, "jump offset")?;
    match &mut p.ops[pos] {
        FlatOp::JzJz { skip1, skip2, .. } => *(if outer { skip1 } else { skip2 }) = skip,
        other => unreachable!("patching a non-JzJz op {other:?}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_coverage::{BranchId, ConditionId, DecisionId};

    #[test]
    fn flat_ops_stay_small() {
        // The whole point of the narrowed encoding: four ops per cache
        // line. Growing an op past 12 bytes is a throughput regression.
        assert!(std::mem::size_of::<FlatOp>() <= 12, "{}", std::mem::size_of::<FlatOp>());
    }

    #[test]
    fn operand_overflow_is_a_typed_compile_error() {
        let body = vec![Instr::Copy { dst: 70_000, src: 0 }];
        let err = flatten(&body, &Default::default()).unwrap_err();
        assert_eq!(err, CompileError::Encoding { what: "register operand", value: 70_000 });
        assert_eq!(err.to_string(), "register operand 70000 exceeds the flat encoding's u16 width");
        // The largest encodable register still lowers.
        let body = vec![Instr::Copy { dst: u16::MAX as Reg, src: 0 }];
        assert!(flatten(&body, &Default::default()).is_ok());
    }

    #[test]
    fn if_with_both_arms_uses_two_jumps() {
        let body = vec![Instr::If {
            cond: 0,
            then_body: vec![Instr::Const { dst: 1, value: 1.0 }],
            else_body: vec![Instr::Const { dst: 1, value: 2.0 }],
        }];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(
            p.ops,
            vec![
                FlatOp::JumpIfZero { cond: 0, skip: 2 },
                FlatOp::Const { dst: 1, idx: 0 },
                FlatOp::Jump { skip: 1 },
                FlatOp::Const { dst: 1, idx: 1 },
            ]
        );
        assert_eq!(p.const_pool, vec![1.0, 2.0]);
    }

    #[test]
    fn one_armed_ifs_use_a_single_conditional_jump() {
        let then_only = vec![Instr::If {
            cond: 0,
            then_body: vec![Instr::Copy { dst: 1, src: 2 }],
            else_body: vec![],
        }];
        let p = flatten(&then_only, &Default::default()).unwrap();
        assert_eq!(p.ops[0], FlatOp::JumpIfZero { cond: 0, skip: 1 });
        assert_eq!(p.ops.len(), 2);

        let else_only = vec![Instr::If {
            cond: 0,
            then_body: vec![],
            else_body: vec![Instr::Copy { dst: 1, src: 2 }],
        }];
        let p = flatten(&else_only, &Default::default()).unwrap();
        assert_eq!(p.ops[0], FlatOp::JumpIfNonZero { cond: 0, skip: 1 });
        assert_eq!(p.ops.len(), 2);
    }

    #[test]
    fn nested_one_armed_ifs_fuse_into_a_double_guard() {
        let body = vec![Instr::If {
            cond: 0,
            then_body: vec![
                Instr::If {
                    cond: 1,
                    then_body: vec![Instr::Copy { dst: 2, src: 3 }],
                    else_body: vec![],
                },
                Instr::Copy { dst: 4, src: 5 },
            ],
            else_body: vec![],
        }];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(
            p.ops,
            vec![
                // Outer guard skips both copies; inner only the first.
                FlatOp::JzJz { cond1: 0, skip1: 2, cond2: 1, skip2: 1 },
                FlatOp::Copy { dst: 2, src: 3 },
                FlatOp::Copy { dst: 4, src: 5 },
            ]
        );
    }

    #[test]
    fn nested_ifs_with_else_arms_keep_separate_jumps() {
        // An inner `If` with an else arm can't share the double-guard op.
        let body = vec![Instr::If {
            cond: 0,
            then_body: vec![Instr::If {
                cond: 1,
                then_body: vec![Instr::Copy { dst: 2, src: 3 }],
                else_body: vec![Instr::Copy { dst: 2, src: 4 }],
            }],
            else_body: vec![],
        }];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(
            p.ops,
            vec![
                FlatOp::JumpIfZero { cond: 0, skip: 4 },
                FlatOp::JumpIfZero { cond: 1, skip: 2 },
                FlatOp::Copy { dst: 2, src: 3 },
                FlatOp::Jump { skip: 1 },
                FlatOp::Copy { dst: 2, src: 4 },
            ]
        );
    }

    #[test]
    fn relational_binops_lower_to_cmp_opcode() {
        let body = vec![
            Instr::Binop { dst: 2, op: BinopCode::Lt, lhs: 0, rhs: 1 },
            Instr::Binop { dst: 3, op: BinopCode::Add, lhs: 0, rhs: 1 },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert!(matches!(p.ops[0], FlatOp::BinopCmp { op: BinopCode::Lt, .. }));
        assert!(matches!(p.ops[1], FlatOp::Binop { op: BinopCode::Add, .. }));
    }

    #[test]
    fn wide_decisions_spill_to_the_cond_pool() {
        let body = vec![Instr::DecisionEval {
            decision: DecisionId(0),
            conds: vec![0, 1, 2, 3, 4],
            outcome: 5,
        }];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(p.cond_pool, vec![0, 1, 2, 3, 4]);
        assert!(matches!(p.ops[0], FlatOp::DecisionEvalPool { start: 0, len: 5, .. }));
    }

    #[test]
    fn constants_dedupe_by_bit_pattern() {
        // Conditional constants read outside their arm stay in the body
        // (not hoistable) and share pool slots per bit pattern.
        let conditional = |dst, value| Instr::If {
            cond: 9,
            then_body: vec![Instr::Const { dst, value }],
            else_body: vec![],
        };
        let body = vec![
            conditional(0, 2.5),
            conditional(1, 2.5),
            conditional(2, -2.5),
            Instr::Output { index: 0, src: 0 },
            Instr::Output { index: 1, src: 1 },
            Instr::Output { index: 2, src: 2 },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert!(p.reg_init.is_empty());
        assert_eq!(p.const_pool, vec![2.5, -2.5]);
        assert_eq!(p.ops[1], FlatOp::Const { dst: 0, idx: 0 });
        assert_eq!(p.ops[3], FlatOp::Const { dst: 1, idx: 0 });
        assert_eq!(p.ops[5], FlatOp::Const { dst: 2, idx: 1 });
    }

    #[test]
    fn observed_registers_keep_conditional_constants_inline() {
        let body = vec![Instr::If {
            cond: 0,
            then_body: vec![Instr::Const { dst: 1, value: 3.0 }],
            else_body: vec![],
        }];
        // Register 1 is a signal probe surface: tracing would see 3.0 on
        // ticks where the arm never ran. Must stay in the body.
        let observed = std::collections::HashSet::from([1 as Reg]);
        let p = flatten(&body, &observed).unwrap();
        assert!(p.reg_init.is_empty());
        assert_eq!(p.ops.len(), 2);

        // Unobserved and dominated (no reads at all): hoists, and the
        // emptied arm collapses to a lone jump over nothing.
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(p.reg_init, vec![(1, 3.0)]);
        assert_eq!(p.ops, vec![FlatOp::JumpIfZero { cond: 0, skip: 0 }]);
    }

    #[test]
    fn single_writer_dominating_constants_hoist_to_reg_init() {
        let body = vec![
            Instr::Const { dst: 0, value: 4.0 },
            Instr::Const { dst: 1, value: 5.0 },
            // dst 1 has a second writer, so its const must stay inline.
            Instr::Copy { dst: 1, src: 0 },
            // dst 2's only read follows the write inside the same arm:
            // dominated, hoists even though the write is conditional.
            Instr::If {
                cond: 0,
                then_body: vec![
                    Instr::Const { dst: 2, value: 6.0 },
                    Instr::StoreState { slot: 0, src: 2 },
                ],
                else_body: vec![],
            },
            // dst 3's read sits *outside* the arm that writes it: on ticks
            // where the arm does not run the original program reads a
            // stale/zero value, so this const must stay inline.
            Instr::If {
                cond: 0,
                then_body: vec![Instr::Const { dst: 3, value: 7.0 }],
                else_body: vec![],
            },
            Instr::Output { index: 0, src: 3 },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(p.reg_init, vec![(0, 4.0), (2, 6.0)]);
        assert_eq!(
            p.ops,
            vec![
                FlatOp::Const { dst: 1, idx: 0 },
                FlatOp::Copy { dst: 1, src: 0 },
                FlatOp::JumpIfZero { cond: 0, skip: 1 },
                FlatOp::StoreState { slot: 0, src: 2 },
                FlatOp::JumpIfZero { cond: 0, skip: 1 },
                FlatOp::Const { dst: 3, idx: 1 },
                FlatOp::Output { index: 0, src: 3 },
            ]
        );
        assert_eq!(p.const_pool, vec![5.0, 7.0]);
    }

    #[test]
    fn adjacent_state_stores_pair_up() {
        let body = vec![
            Instr::StoreState { slot: 0, src: 1 },
            Instr::StoreState { slot: 1, src: 2 },
            Instr::StoreState { slot: 2, src: 3 },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(
            p.ops,
            vec![
                FlatOp::StoreState2 { slot1: 0, src1: 1, slot2: 1, src2: 2 },
                FlatOp::StoreState { slot: 2, src: 3 },
            ]
        );
    }

    #[test]
    fn single_condition_decisions_fuse_into_one_op() {
        let body = vec![
            Instr::CondProbe { cond: ConditionId(3), src: 7 },
            Instr::DecisionEval { decision: DecisionId(2), conds: vec![7], outcome: 7 },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(p.ops, vec![FlatOp::Decision1 { decision: 2, cond: 3, src: 7 }]);

        // A decision over a *different* register must not fuse.
        let body = vec![
            Instr::CondProbe { cond: ConditionId(3), src: 7 },
            Instr::DecisionEval { decision: DecisionId(2), conds: vec![8], outcome: 8 },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(p.ops.len(), 2);
        assert!(matches!(p.ops[0], FlatOp::CondProbe { .. }));
    }

    #[test]
    fn decision_preamble_fuses_into_a_single_dispatch() {
        // The full instrumentation shape of a single-condition decision:
        // CondProbe + DecisionEval + probe-only outcome If → one op.
        let body = vec![
            Instr::CondProbe { cond: ConditionId(3), src: 7 },
            Instr::DecisionEval { decision: DecisionId(2), conds: vec![7], outcome: 7 },
            Instr::If {
                cond: 7,
                then_body: vec![Instr::Probe { branch: BranchId(4) }],
                else_body: vec![Instr::Probe { branch: BranchId(5) }],
            },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(
            p.ops,
            vec![FlatOp::DecisionSel {
                decision: 2,
                cond: 3,
                src: 7,
                then_branch: 4,
                else_branch: 5,
            }]
        );

        // An outcome If over a different register must not fold in.
        let body = vec![
            Instr::CondProbe { cond: ConditionId(3), src: 7 },
            Instr::DecisionEval { decision: DecisionId(2), conds: vec![7], outcome: 7 },
            Instr::If {
                cond: 8,
                then_body: vec![Instr::Probe { branch: BranchId(4) }],
                else_body: vec![Instr::Probe { branch: BranchId(5) }],
            },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(p.ops.len(), 2);
        assert!(matches!(p.ops[0], FlatOp::Decision1 { .. }));
        assert!(matches!(p.ops[1], FlatOp::ProbeSelect { .. }));
    }

    #[test]
    fn relational_guards_fuse_with_their_decision_preamble() {
        let preamble = |branch_base: u32| {
            vec![
                Instr::Binop { dst: 2, op: BinopCode::Lt, lhs: 0, rhs: 1 },
                Instr::CondProbe { cond: ConditionId(3), src: 2 },
                Instr::DecisionEval { decision: DecisionId(2), conds: vec![2], outcome: 2 },
                Instr::If {
                    cond: 2,
                    then_body: vec![Instr::Probe { branch: BranchId(branch_base) }],
                    else_body: vec![Instr::Probe { branch: BranchId(branch_base + 1) }],
                },
            ]
        };
        let p = flatten(&preamble(4), &Default::default()).unwrap();
        assert_eq!(
            p.ops,
            vec![FlatOp::CmpSel {
                op: BinopCode::Lt,
                dst: 2,
                lhs: 0,
                rhs: 1,
                decision: 2,
                cond: 3,
                then_branch: 4,
                else_branch: 5,
            }]
        );

        // Ids past the byte-wide encoding stay unfused: two dispatches,
        // identical event sequence.
        let p = flatten(&preamble(400), &Default::default()).unwrap();
        assert_eq!(p.ops.len(), 2);
        assert!(matches!(p.ops[0], FlatOp::BinopCmp { op: BinopCode::Lt, .. }));
        assert!(matches!(p.ops[1], FlatOp::DecisionSel { then_branch: 400, else_branch: 401, .. }));
    }

    #[test]
    fn hot_adjacent_pairs_fuse_into_single_dispatches() {
        // Const+Const, Copy+CastSat, CastSat+Copy, Load+Load — the
        // profile-driven peephole pairs (each preserves write order).
        let body = vec![
            Instr::Const { dst: 0, value: 1.0 },
            Instr::Const { dst: 0, value: 2.0 },
            Instr::Copy { dst: 1, src: 0 },
            Instr::CastSat { dst: 2, src: 1, ty: DataType::I8 },
            Instr::CastSat { dst: 3, src: 2, ty: DataType::I8 },
            Instr::Copy { dst: 4, src: 3 },
            Instr::LoadState { dst: 5, slot: 0 },
            Instr::LoadState { dst: 6, slot: 1 },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(
            p.ops,
            vec![
                FlatOp::Const2 { dst1: 0, idx1: 0, dst2: 0, idx2: 1 },
                FlatOp::CopyCastSat { dst: 1, src: 0, dst2: 2, ty: DataType::I8 },
                FlatOp::CastSatCopy { dst: 3, src: 2, ty: DataType::I8, dst2: 4 },
                FlatOp::Load2 { dst1: 5, slot1: 0, dst2: 6, slot2: 1 },
            ]
        );
    }

    #[test]
    fn adjacent_condition_probes_pair_up() {
        let body = vec![
            Instr::CondProbe { cond: ConditionId(0), src: 1 },
            Instr::CondProbe { cond: ConditionId(1), src: 2 },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(p.ops, vec![FlatOp::CondProbe2 { cond1: 0, src1: 1, cond2: 1, src2: 2 }]);

        // A probe heading a fusable decision preamble must stay free for
        // the Decision1/DecisionSel fusion instead.
        let body = vec![
            Instr::CondProbe { cond: ConditionId(0), src: 1 },
            Instr::CondProbe { cond: ConditionId(1), src: 2 },
            Instr::DecisionEval { decision: DecisionId(0), conds: vec![2], outcome: 2 },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(
            p.ops,
            vec![
                FlatOp::CondProbe { cond: 0, src: 1 },
                FlatOp::Decision1 { decision: 0, cond: 1, src: 2 },
            ]
        );
    }

    #[test]
    fn relational_guards_of_real_bodies_fuse_into_cmp_jump() {
        let body = vec![
            Instr::Binop { dst: 2, op: BinopCode::Ge, lhs: 0, rhs: 1 },
            Instr::If {
                cond: 2,
                then_body: vec![Instr::Copy { dst: 3, src: 0 }],
                else_body: vec![],
            },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(
            p.ops,
            vec![
                FlatOp::CmpJump { op: BinopCode::Ge, dst: 2, lhs: 0, rhs: 1, skip: 1 },
                FlatOp::Copy { dst: 3, src: 0 },
            ]
        );
    }

    #[test]
    fn patched_jump_targets_block_backward_guard_fusion() {
        // The compare is the *last op of a completed inner lowering*: the
        // inner `If`'s patched jump lands right after it, so popping it
        // into a CmpJump would make the taken path recompute the compare
        // (an extra recorder event). The fence must force a plain jump.
        let body = vec![
            Instr::If {
                cond: 0,
                then_body: vec![Instr::Binop { dst: 2, op: BinopCode::Lt, lhs: 0, rhs: 1 }],
                else_body: vec![],
            },
            Instr::If {
                cond: 2,
                then_body: vec![Instr::Copy { dst: 3, src: 0 }],
                else_body: vec![],
            },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(
            p.ops,
            vec![
                FlatOp::JumpIfZero { cond: 0, skip: 1 },
                FlatOp::BinopCmp { dst: 2, op: BinopCode::Lt, lhs: 0, rhs: 1 },
                FlatOp::JumpIfZero { cond: 2, skip: 1 },
                FlatOp::Copy { dst: 3, src: 0 },
            ]
        );
    }

    #[test]
    fn state_loads_fuse_with_adjacent_guards() {
        // Backward: load feeding a guard → LoadJz.
        let body = vec![
            Instr::LoadState { dst: 0, slot: 3 },
            Instr::If {
                cond: 0,
                then_body: vec![Instr::Copy { dst: 1, src: 2 }],
                else_body: vec![],
            },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(
            p.ops,
            vec![
                FlatOp::LoadJz { dst: 0, slot: 3, cond: 0, skip: 1 },
                FlatOp::Copy { dst: 1, src: 2 },
            ]
        );

        // Forward: guard whose fall-through body opens with a load →
        // JzLoad (the load is conditional, exactly as in the tree).
        let body = vec![Instr::If {
            cond: 0,
            then_body: vec![Instr::LoadState { dst: 1, slot: 4 }, Instr::Copy { dst: 2, src: 1 }],
            else_body: vec![],
        }];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(
            p.ops,
            vec![
                FlatOp::JzLoad { cond: 0, skip: 1, dst: 1, slot: 4 },
                FlatOp::Copy { dst: 2, src: 1 },
            ]
        );
    }

    #[test]
    fn decision_dispatch_fuses_with_its_branch_entry_jump() {
        let body = vec![
            Instr::CondProbe { cond: ConditionId(3), src: 7 },
            Instr::DecisionEval { decision: DecisionId(2), conds: vec![7], outcome: 7 },
            Instr::If {
                cond: 7,
                then_body: vec![Instr::Probe { branch: BranchId(4) }],
                else_body: vec![Instr::Probe { branch: BranchId(5) }],
            },
            Instr::If {
                cond: 7,
                then_body: vec![Instr::Copy { dst: 1, src: 2 }],
                else_body: vec![],
            },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(
            p.ops,
            vec![
                FlatOp::DecisionSelJz {
                    decision: 2,
                    cond: 3,
                    src: 7,
                    then_branch: 4,
                    else_branch: 5,
                    skip: 1,
                },
                FlatOp::Copy { dst: 1, src: 2 },
            ]
        );
    }

    #[test]
    fn probe_only_arms_fuse_into_probe_select() {
        let body = vec![Instr::If {
            cond: 4,
            then_body: vec![Instr::Probe { branch: BranchId(0) }],
            else_body: vec![Instr::Probe { branch: BranchId(1) }],
        }];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(p.ops, vec![FlatOp::ProbeSelect { cond: 4, then_branch: 0, else_branch: 1 }]);

        // An arm with extra work keeps the jump lowering.
        let body = vec![Instr::If {
            cond: 4,
            then_body: vec![
                Instr::Probe { branch: BranchId(0) },
                Instr::Const { dst: 1, value: 1.0 },
            ],
            else_body: vec![Instr::Probe { branch: BranchId(1) }],
        }];
        let p = flatten(&body, &Default::default()).unwrap();
        assert!(matches!(p.ops[0], FlatOp::JumpIfZero { .. }));
    }
}
