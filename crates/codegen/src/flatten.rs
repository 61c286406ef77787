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
//!   structured tree fits barely one `Instr`.
//!
//! Otherwise the flat program is the step-IR **in order, one op per
//! instruction**, with exactly three exceptions: `If` becomes jumps,
//! single-writer constants hoist to [`FlatProgram::reg_init`], and the two
//! universal decision shapes get one op each — `CondProbe` +
//! single-condition `DecisionEval` on the same register becomes
//! [`FlatOp::Decision1`], and the `If { Probe } else { Probe }` outcome
//! pattern becomes [`FlatOp::ProbeSelect`], which has no control flow at
//! all. Both replay the exact event sequence of what they replace:
//! `Decision1` performs the same `condition` → `decision_eval` calls, and
//! `ProbeSelect` fires exactly the one `branch` event the taken arm would
//! have. No other ops fuse: the JIT, which runs the fuzz loop, lowers two
//! adjacent ops as their templates back to back, with its `xmm0`
//! forwarding cache eliding the reload between them — the code a fused op
//! would get. A pair opcode would only save flat-VM dispatches.
//!
//! One array is derived from the program rather than lowered:
//! [`FlatProgram::lean_ops`] drops the ops whose only effect is a
//! condition or decision event, for recorders that promise both classes
//! away (the fuzz loop's Algorithm-1 recorder does). Skipping a promised
//! no-op is observationally identical; the JIT skips the same events at
//! its null vtable slots.

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
    LoadState {
        dst: RegW,
        slot: u16,
    },
    StoreState {
        slot: u16,
        src: RegW,
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
    /// Fused `CondProbe` + single-condition `DecisionEval` over one
    /// register: `condition(cond, v)` then `decision_eval(decision, v, v)`.
    Decision1 {
        decision: u16,
        cond: u16,
        src: RegW,
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
    /// `ops` minus every op whose only effect is a condition or decision
    /// event (`CondProbe`, `Decision1`, `DecisionEvalSmall`,
    /// `DecisionEvalPool`), jumps re-aimed over the gaps: what the flat VM
    /// runs for a recorder that promises both event classes away.
    pub lean_ops: Vec<FlatOp>,
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
    flatten_hoisting(body, hoistable_consts(body, observed))
}

/// Flat-lowers `body` with `hoisted` (register, value) constants moved to
/// [`FlatProgram::reg_init`].
fn flatten_hoisting(body: &[Instr], hoisted: Vec<(Reg, f64)>) -> Result<FlatProgram, CompileError> {
    let mut p = FlatProgram::default();
    let mut hoisted_regs = std::collections::HashSet::new();
    for (dst, value) in hoisted {
        hoisted_regs.insert(dst);
        p.reg_init.push((r(dst)?, value));
    }
    flatten_into(body, &mut p, &hoisted_regs)?;
    p.lean_ops = without_mcdc_events(&p.ops);
    Ok(p)
}

/// Constant hoisting: a `Const` whose register has no other writer in the
/// whole program and whose every read is *dominated* by it (reads occur
/// only downstream of the write within its own arm) stores a value no
/// execution can ever observe differing from the constant — so it moves to
/// `reg_init` and out of the per-tick dispatch loop. Top-level constants
/// re-store unconditionally every tick, so they hoist even when externally
/// observed; conditional ones hoist only when the register is invisible to
/// the signal-probe surface (on ticks where the arm never ran, the
/// original register still holds its initial zero, and an observer could
/// tell the difference). Returns the hoisted constants in program order;
/// one walk of the body classifies every candidate.
fn hoistable_consts(body: &[Instr], observed: &std::collections::HashSet<Reg>) -> Vec<(Reg, f64)> {
    let mut writes = std::collections::HashMap::new();
    count_writes(body, &mut writes);
    let mut consts = Vec::new();
    collect_consts(body, &mut consts);
    consts.retain(|(dst, _)| writes.get(dst) == Some(&1));
    let candidates = consts.iter().map(|&(dst, _)| dst).collect();
    let dominance = classify_dominance(body, &candidates);
    consts.retain(|(dst, _)| match dominance.get(dst) {
        Some(Dom::Dominated) => true,
        Some(Dom::CondDominated) => !observed.contains(dst),
        _ => false,
    });
    consts
}

/// Drops the ops whose only effect is a condition or decision event and
/// re-aims every jump at the op its old target became (a dropped target
/// becomes the next kept op). Jumps only skip forward, so no skip grows.
fn without_mcdc_events(ops: &[FlatOp]) -> Vec<FlatOp> {
    let keep = |op: &FlatOp| {
        !matches!(
            op,
            FlatOp::CondProbe { .. }
                | FlatOp::Decision1 { .. }
                | FlatOp::DecisionEvalSmall { .. }
                | FlatOp::DecisionEvalPool { .. }
        )
    };
    // kept_before[i]: the new index of old op `i` (or of the next kept op).
    let mut kept_before = Vec::with_capacity(ops.len() + 1);
    let mut kept = 0usize;
    for op in ops {
        kept_before.push(kept);
        kept += usize::from(keep(op));
    }
    kept_before.push(kept);
    ops.iter()
        .enumerate()
        .filter(|(_, op)| keep(op))
        .map(|(i, &op)| {
            let mut op = op;
            if let FlatOp::JumpIfZero { skip, .. }
            | FlatOp::JumpIfNonZero { skip, .. }
            | FlatOp::Jump { skip } = &mut op
            {
                *skip = (kept_before[i + 1 + *skip as usize] - kept_before[i] - 1) as u16;
            }
            op
        })
        .collect()
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

/// A read of a candidate register in state `state`.
fn bump_read(state: Dom) -> Dom {
    match state {
        Dom::Clean | Dom::ReadsOnly => Dom::ReadsOnly,
        Dom::Dominated => Dom::Dominated,
        // A read downstream of a conditional write sees stale values on
        // ticks where the write's arm did not run.
        Dom::CondDominated | Dom::Broken => Dom::Broken,
    }
}

/// Folds the state an `If` arm left (`arm`) into the enclosing body's
/// `state`.
fn merge_arm(state: Dom, arm: Dom) -> Dom {
    match (state, arm) {
        (Dom::Broken, _) | (_, Dom::Broken) => Dom::Broken,
        // Every later read of a dominating write's register is dominated.
        (Dom::Dominated, _) => Dom::Dominated,
        (s, Dom::Clean) => s,
        (Dom::Clean | Dom::ReadsOnly, Dom::ReadsOnly) => Dom::ReadsOnly,
        (Dom::Clean, Dom::Dominated | Dom::CondDominated) => Dom::CondDominated,
        // Reads strictly before a conditional write, or in its sibling arm,
        // are not dominated.
        (Dom::ReadsOnly, Dom::Dominated | Dom::CondDominated) => Dom::Broken,
        (Dom::CondDominated, _) => Dom::Broken,
    }
}

/// Walks `body` once in execution order, classifying for every candidate
/// register whether each read is dominated by its single `Const` write
/// (see [`Dom`]). Candidates absent from the result are [`Dom::Clean`] in
/// `body`.
fn classify_dominance(
    body: &[Instr],
    candidates: &std::collections::HashSet<Reg>,
) -> std::collections::HashMap<Reg, Dom> {
    let mut states = std::collections::HashMap::new();
    let read = |states: &mut std::collections::HashMap<Reg, Dom>, reg: Reg| {
        if candidates.contains(&reg) {
            let state = states.entry(reg).or_insert(Dom::Clean);
            *state = bump_read(*state);
        }
    };
    for instr in body {
        match instr {
            Instr::Const { dst, .. } if candidates.contains(dst) => {
                // The single global write: every later read (any depth, any
                // later instruction) executes after it this tick.
                let state = states.entry(*dst).or_insert(Dom::Clean);
                *state = if *state == Dom::Clean { Dom::Dominated } else { Dom::Broken };
            }
            Instr::If { cond, then_body, else_body } => {
                read(&mut states, *cond);
                for arm in [then_body, else_body] {
                    for (reg, arm_state) in classify_dominance(arm, candidates) {
                        let state = states.entry(reg).or_insert(Dom::Clean);
                        *state = merge_arm(*state, arm_state);
                    }
                }
            }
            other => other.for_each_read(|reg| read(&mut states, reg)),
        }
    }
    states
}

/// Counts static register writes across the whole tree.
fn count_writes(body: &[Instr], counts: &mut std::collections::HashMap<Reg, u32>) {
    for instr in body {
        if let Some(dst) = instr.dst() {
            *counts.entry(dst).or_default() += 1;
        }
        if let Instr::If { then_body, else_body, .. } = instr {
            count_writes(then_body, counts);
            count_writes(else_body, counts);
        }
    }
}

fn flatten_into(
    body: &[Instr],
    p: &mut FlatProgram,
    hoisted: &std::collections::HashSet<Reg>,
) -> Result<(), CompileError> {
    let mut body = body.iter().peekable();
    while let Some(instr) = body.next() {
        match instr {
            Instr::Const { dst, value } => {
                // A hoisted register's single writer IS this instruction;
                // the executor pre-loads it, so emit nothing.
                if !hoisted.contains(dst) {
                    let idx = p.intern(*value)?;
                    p.ops.push(FlatOp::Const { dst: r(*dst)?, idx });
                }
            }
            Instr::Copy { dst, src } => p.ops.push(FlatOp::Copy { dst: r(*dst)?, src: r(*src)? }),
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
                let (dst, op, lhs, rhs) = (r(*dst)?, *op, r(*lhs)?, r(*rhs)?);
                p.ops.push(if op.is_relational() {
                    FlatOp::BinopCmp { dst, op, lhs, rhs }
                } else {
                    FlatOp::Binop { dst, op, lhs, rhs }
                });
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
                p.ops.push(FlatOp::CastSat { dst: r(*dst)?, src: r(*src)?, ty: *ty });
            }
            Instr::LoadState { dst, slot } => {
                p.ops.push(FlatOp::LoadState { dst: r(*dst)?, slot: narrow(*slot, "state slot")? });
            }
            Instr::StoreState { slot, src } => {
                p.ops
                    .push(FlatOp::StoreState { slot: narrow(*slot, "state slot")?, src: r(*src)? });
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
                let cond = narrow(cond.index(), "condition id")?;
                // Instrumentation follows the probe of a single-condition
                // decision's only condition with its evaluation (same
                // register as sole condition and outcome): one op, identical
                // condition → decision_eval event order.
                let single = |next: &&Instr| {
                    matches!(next, Instr::DecisionEval { conds, outcome, .. }
                        if conds.as_slice() == [*src] && outcome == src)
                };
                if let Some(Instr::DecisionEval { decision, .. }) = body.next_if(single) {
                    let decision = narrow(decision.index(), "decision id")?;
                    p.ops.push(FlatOp::Decision1 { decision, cond, src: r(*src)? });
                } else {
                    p.ops.push(FlatOp::CondProbe { cond, src: r(*src)? });
                }
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
                let cond = r(*cond)?;
                // The universal decision-outcome shape — one probe per arm
                // — needs no control flow at all in flat form.
                if let ([Instr::Probe { branch: t }], [Instr::Probe { branch: e }]) =
                    (then_body.as_slice(), else_body.as_slice())
                {
                    p.ops.push(FlatOp::ProbeSelect {
                        cond,
                        then_branch: narrow(t.index(), "branch id")?,
                        else_branch: narrow(e.index(), "branch id")?,
                    });
                } else if else_body.is_empty() {
                    let jz = reserve(p, FlatOp::JumpIfZero { cond, skip: 0 });
                    flatten_into(then_body, p, hoisted)?;
                    patch(p, jz)?;
                } else if then_body.is_empty() {
                    let jnz = reserve(p, FlatOp::JumpIfNonZero { cond, skip: 0 });
                    flatten_into(else_body, p, hoisted)?;
                    patch(p, jnz)?;
                } else {
                    let jz = reserve(p, FlatOp::JumpIfZero { cond, skip: 0 });
                    flatten_into(then_body, p, hoisted)?;
                    let jump = reserve(p, FlatOp::Jump { skip: 0 });
                    patch(p, jz)?;
                    flatten_into(else_body, p, hoisted)?;
                    patch(p, jump)?;
                }
            }
        }
    }
    Ok(())
}

impl FlatOp {
    /// Whether executing this op emits at least one recorder event.
    pub(crate) fn records(&self) -> bool {
        matches!(
            self,
            FlatOp::BinopCmp { .. }
                | FlatOp::Probe { .. }
                | FlatOp::CondProbe { .. }
                | FlatOp::Decision1 { .. }
                | FlatOp::DecisionEvalSmall { .. }
                | FlatOp::DecisionEvalPool { .. }
                | FlatOp::Assert { .. }
                | FlatOp::ProbeSelect { .. }
        )
    }
}

/// Pushes a jump placeholder, returning its position for later patching.
fn reserve(p: &mut FlatProgram, op: FlatOp) -> usize {
    p.ops.push(op);
    p.ops.len() - 1
}

/// Patches the jump at `pos` to skip to the current end of the op array.
fn patch(p: &mut FlatProgram, pos: usize) -> Result<(), CompileError> {
    let skip = narrow(p.ops.len() - pos - 1, "jump offset")?;
    match &mut p.ops[pos] {
        FlatOp::JumpIfZero { skip: s, .. }
        | FlatOp::JumpIfNonZero { skip: s, .. }
        | FlatOp::Jump { skip: s } => *s = skip,
        other => unreachable!("patching a non-jump op {other:?}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_coverage::{BranchId, ConditionId, DecisionId};

    mod recipes {
        include!("../tests/common/recipes.rs");
    }

    /// The hoisting oracle: each candidate classified by its own walk of
    /// the whole body (the one-walk [`hoistable_consts`] must agree).
    fn hoistable_consts_oracle(
        body: &[Instr],
        observed: &std::collections::HashSet<Reg>,
    ) -> Vec<(Reg, f64)> {
        let mut writes = std::collections::HashMap::new();
        count_writes(body, &mut writes);
        let mut consts = Vec::new();
        collect_consts(body, &mut consts);
        consts
            .into_iter()
            .filter(|&(dst, _)| {
                writes.get(&dst) == Some(&1)
                    && match scan_dominance(body, dst) {
                        Dom::Dominated => true,
                        Dom::CondDominated => !observed.contains(&dst),
                        _ => false,
                    }
            })
            .collect()
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

    /// Whether `instr` reads register `dst` (source operands only; nested
    /// bodies are handled by [`scan_dominance`]).
    fn instr_reads(instr: &Instr, dst: Reg) -> bool {
        let mut reads = false;
        instr.for_each_read(|r| reads |= r == dst);
        reads
    }

    /// The one-walk classification hoists the same constants as the
    /// oracle, and the flat program lowered from them is the same.
    fn assert_hoisting_matches_oracle(model: &cftcg_model::Model) {
        let compiled = crate::compile(model).expect("model compiles");
        let body = compiled.program();
        let observed = compiled.signals().iter().map(|s| s.reg).collect();
        let hoisted = hoistable_consts(body, &observed);
        assert_eq!(hoisted, hoistable_consts_oracle(body, &observed), "{}", model.name());
        let oracle = flatten_hoisting(body, hoistable_consts_oracle(body, &observed)).unwrap();
        let flat = flatten(body, &observed).unwrap();
        assert_eq!(format!("{flat:?}"), format!("{oracle:?}"), "{}", model.name());
        assert_eq!(format!("{:?}", compiled.flat), format!("{oracle:?}"), "{}", model.name());
    }

    #[test]
    fn one_walk_hoisting_matches_the_oracle_on_the_benchmarks() {
        for model in cftcg_benchmarks::all() {
            assert_hoisting_matches_oracle(&model);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn one_walk_hoisting_matches_the_oracle_on_random_models(
            recipes in proptest::collection::vec(recipes::arb_recipe(), 1..14),
            wiring in proptest::collection::vec(0usize..1000, 8..40),
        ) {
            let model = recipes::build_model(
                &recipes,
                &wiring,
                &[cftcg_model::DataType::F64, cftcg_model::DataType::I16],
            );
            if model.validate().is_ok() {
                assert_hoisting_matches_oracle(&model);
            }
        }
    }

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
    fn nested_ifs_with_else_arms_keep_separate_jumps() {
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
    fn flat_program_is_the_ir_in_order() {
        // One op per IR instruction, in order: each row is a shape the
        // benchmark models execute often.
        let guard = |cond, then_body| Instr::If { cond, then_body, else_body: vec![] };
        let preamble = || {
            vec![
                Instr::CondProbe { cond: ConditionId(3), src: 2 },
                Instr::DecisionEval { decision: DecisionId(2), conds: vec![2], outcome: 2 },
                Instr::If {
                    cond: 2,
                    then_body: vec![Instr::Probe { branch: BranchId(4) }],
                    else_body: vec![Instr::Probe { branch: BranchId(5) }],
                },
            ]
        };
        let decided = [
            FlatOp::Decision1 { decision: 2, cond: 3, src: 2 },
            FlatOp::ProbeSelect { cond: 2, then_branch: 4, else_branch: 5 },
        ];
        let lt = Instr::Binop { dst: 2, op: BinopCode::Lt, lhs: 0, rhs: 1 };
        let cmp = FlatOp::BinopCmp { dst: 2, op: BinopCode::Lt, lhs: 0, rhs: 1 };
        let cases: Vec<(&str, Vec<Instr>, Vec<FlatOp>)> = vec![
            (
                // Two writers of register 0: neither hoists.
                "Const;Const",
                vec![Instr::Const { dst: 0, value: 1.0 }, Instr::Const { dst: 0, value: 2.0 }],
                vec![FlatOp::Const { dst: 0, idx: 0 }, FlatOp::Const { dst: 0, idx: 1 }],
            ),
            (
                "CastSat;Copy",
                vec![
                    Instr::CastSat { dst: 3, src: 2, ty: DataType::I8 },
                    Instr::Copy { dst: 4, src: 3 },
                ],
                vec![
                    FlatOp::CastSat { dst: 3, src: 2, ty: DataType::I8 },
                    FlatOp::Copy { dst: 4, src: 3 },
                ],
            ),
            (
                "Copy;CastSat",
                vec![
                    Instr::Copy { dst: 1, src: 0 },
                    Instr::CastSat { dst: 2, src: 1, ty: DataType::I8 },
                ],
                vec![
                    FlatOp::Copy { dst: 1, src: 0 },
                    FlatOp::CastSat { dst: 2, src: 1, ty: DataType::I8 },
                ],
            ),
            (
                "LoadState;LoadState",
                vec![Instr::LoadState { dst: 5, slot: 0 }, Instr::LoadState { dst: 6, slot: 1 }],
                vec![FlatOp::LoadState { dst: 5, slot: 0 }, FlatOp::LoadState { dst: 6, slot: 1 }],
            ),
            (
                "StoreState;StoreState",
                vec![Instr::StoreState { slot: 0, src: 1 }, Instr::StoreState { slot: 1, src: 2 }],
                vec![
                    FlatOp::StoreState { slot: 0, src: 1 },
                    FlatOp::StoreState { slot: 1, src: 2 },
                ],
            ),
            (
                "CondProbe;CondProbe",
                vec![
                    Instr::CondProbe { cond: ConditionId(0), src: 1 },
                    Instr::CondProbe { cond: ConditionId(1), src: 2 },
                ],
                vec![FlatOp::CondProbe { cond: 0, src: 1 }, FlatOp::CondProbe { cond: 1, src: 2 }],
            ),
            (
                // The second probe, not the first, heads the decision.
                "CondProbe;decision preamble",
                [vec![Instr::CondProbe { cond: ConditionId(0), src: 1 }], preamble()].concat(),
                [vec![FlatOp::CondProbe { cond: 0, src: 1 }], decided.to_vec()].concat(),
            ),
            (
                "relational Binop;decision preamble",
                [vec![lt.clone()], preamble()].concat(),
                [vec![cmp], decided.to_vec()].concat(),
            ),
            (
                "LoadState;guard",
                vec![
                    Instr::LoadState { dst: 0, slot: 3 },
                    guard(0, vec![Instr::Copy { dst: 1, src: 2 }]),
                ],
                vec![
                    FlatOp::LoadState { dst: 0, slot: 3 },
                    FlatOp::JumpIfZero { cond: 0, skip: 1 },
                    FlatOp::Copy { dst: 1, src: 2 },
                ],
            ),
            (
                "guard opening with LoadState",
                vec![guard(
                    0,
                    vec![Instr::LoadState { dst: 1, slot: 4 }, Instr::Copy { dst: 2, src: 1 }],
                )],
                vec![
                    FlatOp::JumpIfZero { cond: 0, skip: 2 },
                    FlatOp::LoadState { dst: 1, slot: 4 },
                    FlatOp::Copy { dst: 2, src: 1 },
                ],
            ),
            (
                "relational Binop;guard",
                vec![lt.clone(), guard(2, vec![Instr::Copy { dst: 3, src: 0 }])],
                vec![cmp, FlatOp::JumpIfZero { cond: 2, skip: 1 }, FlatOp::Copy { dst: 3, src: 0 }],
            ),
            (
                "decision;guard",
                [preamble(), vec![guard(2, vec![Instr::Copy { dst: 1, src: 0 }])]].concat(),
                [
                    decided.to_vec(),
                    vec![FlatOp::JumpIfZero { cond: 2, skip: 1 }, FlatOp::Copy { dst: 1, src: 0 }],
                ]
                .concat(),
            ),
            (
                "nested one-armed Ifs",
                vec![guard(
                    0,
                    vec![
                        guard(1, vec![Instr::Copy { dst: 2, src: 3 }]),
                        Instr::Copy { dst: 4, src: 5 },
                    ],
                )],
                vec![
                    // Outer guard skips both copies; inner only the first.
                    FlatOp::JumpIfZero { cond: 0, skip: 3 },
                    FlatOp::JumpIfZero { cond: 1, skip: 1 },
                    FlatOp::Copy { dst: 2, src: 3 },
                    FlatOp::Copy { dst: 4, src: 5 },
                ],
            ),
            (
                // The inner guard's patched jump lands on the second guard.
                "completed If;guard",
                vec![guard(0, vec![lt]), guard(2, vec![Instr::Copy { dst: 3, src: 0 }])],
                vec![
                    FlatOp::JumpIfZero { cond: 0, skip: 1 },
                    cmp,
                    FlatOp::JumpIfZero { cond: 2, skip: 1 },
                    FlatOp::Copy { dst: 3, src: 0 },
                ],
            ),
        ];
        for (site, body, want) in cases {
            let p = flatten(&body, &Default::default()).unwrap();
            assert_eq!(p.ops, want, "{site}");
        }
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

    #[test]
    fn lean_ops_drop_mcdc_events_and_re_aim_jumps() {
        let body = vec![
            Instr::CondProbe { cond: ConditionId(0), src: 0 },
            Instr::If {
                cond: 0,
                then_body: vec![
                    Instr::CondProbe { cond: ConditionId(1), src: 1 },
                    Instr::DecisionEval { decision: DecisionId(0), conds: vec![1], outcome: 1 },
                    Instr::Copy { dst: 2, src: 1 },
                ],
                else_body: vec![Instr::Probe { branch: BranchId(0) }],
            },
            Instr::DecisionEval { decision: DecisionId(1), conds: vec![0, 1], outcome: 2 },
            Instr::DecisionEval { decision: DecisionId(2), conds: vec![0, 1, 2, 3], outcome: 2 },
            Instr::Probe { branch: BranchId(1) },
        ];
        let p = flatten(&body, &Default::default()).unwrap();
        assert_eq!(p.ops.len(), 9);
        // The then-arm's jump lands on the else-arm's probe, and the
        // else-skipping jump, whose old target was a dropped decision, on
        // the op after it.
        assert_eq!(
            p.lean_ops,
            vec![
                FlatOp::JumpIfZero { cond: 0, skip: 2 },
                FlatOp::Copy { dst: 2, src: 1 },
                FlatOp::Jump { skip: 1 },
                FlatOp::Probe { branch: 0 },
                FlatOp::Probe { branch: 1 },
            ]
        );
    }
}
