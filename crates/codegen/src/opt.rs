//! The step-IR mid-end: observation-preserving optimization passes.
//!
//! The paper runs Clang `-O2` over its generated C; this module is the
//! reproduction's stand-in for that back half. Three passes run over the
//! structured step-IR before flattening:
//!
//! 1. **Local value numbering** — one forward walk performing constant
//!    folding, copy propagation and common-subexpression elimination at
//!    once. Every fold reuses the *runtime* apply functions
//!    ([`BinopCode::apply`], [`FuncCode::apply`], `Value::from_f64`), so a
//!    compile-time fold is bit-identical to what the reference walker would
//!    have computed — including NaN payloads and signed zeros.
//! 2. **Dead-register elimination** — a fixpoint mark/sweep that removes
//!    pure definitions nothing reads.
//! 3. **Register-file compaction** — renumbers the surviving registers
//!    densely and remaps the [`SignalMeta`] table to match.
//!
//! # Observation preservation
//!
//! The optimizer must be invisible to every recorder and probe surface:
//!
//! * `Probe` / `CondProbe` / `DecisionEval` / `Assert` instructions are
//!   never reordered, shared, or deleted (except inside a branch that is
//!   *statically untaken*, which the reference walker would never execute
//!   either).
//! * Relational `Binop`s fire [`Recorder::compare`](cftcg_coverage::Recorder::compare)
//!   — the TORC mine — so they are pinned: never folded away, never CSE'd,
//!   never swept, even when both operands are constants (the destination is
//!   still *known* constant, which downstream `If` folding may exploit).
//! * Registers named by [`SignalMeta`] are the VM's signal-probe surface:
//!   every write to one is kept, and compaction remaps the table instead of
//!   discarding entries, so `cftcg-trace` probes and the lockstep auditor
//!   read the same values they would from the reference walker.
//! * `Output` sources are left untouched so the "outputs are driven by
//!   signal registers" contract (`ProbeMask::outputs`) survives rewriting.

use std::collections::{HashMap, HashSet};

use cftcg_model::{DataType, Value};

use crate::compile::SignalMeta;
use crate::ir::{instr_count, BinopCode, FuncCode, Instr, Reg, UnopCode};

/// Per-pass accounting for one mid-end run — the numbers behind
/// `results/BENCH_vm.json`'s instruction-reduction columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions in the unoptimized program (recursing into `If` arms).
    pub instrs_before: usize,
    /// Instructions after local value numbering (fold + copy-prop + CSE).
    pub instrs_after_lvn: usize,
    /// Instructions after dead-register elimination.
    pub instrs_after_dce: usize,
    /// Register-file size before compaction.
    pub regs_before: usize,
    /// Register-file size after compaction.
    pub regs_after: usize,
    /// Pure instructions replaced by a compile-time constant.
    pub consts_folded: usize,
    /// `If`s with a statically-known condition inlined to one arm.
    pub branches_folded: usize,
    /// Instructions replaced by a copy of an earlier identical computation.
    pub cse_hits: usize,
    /// Operand reads redirected to an equivalent earlier register.
    pub operands_forwarded: usize,
    /// `Truthy(x)` normalizations of an already-boolean `x` (relational or
    /// logical result) strength-reduced to plain copies.
    pub bools_reduced: usize,
    /// Dead pure instructions swept (including emptied `If`s).
    pub instrs_removed: usize,
}

/// The result of running the mid-end over one step program.
#[derive(Debug, Clone)]
pub(crate) struct Optimized {
    /// The optimized structured program, in the compacted register space.
    pub program: Vec<Instr>,
    /// Compacted register-file size.
    pub num_regs: usize,
    /// The signal table remapped into the compacted register space.
    pub signals: Vec<SignalMeta>,
    /// Per-pass accounting.
    pub stats: OptStats,
}

/// Runs the full mid-end pipeline: value numbering, DCE, compaction.
pub(crate) fn optimize(program: &[Instr], num_regs: usize, signals: &[SignalMeta]) -> Optimized {
    let mut stats = OptStats {
        instrs_before: instr_count(program),
        regs_before: num_regs,
        ..OptStats::default()
    };

    let mut lvn = Lvn::new(num_regs);
    let mut body = Vec::with_capacity(program.len());
    lvn.run_body(program, &mut body);
    stats.consts_folded = lvn.consts_folded;
    stats.branches_folded = lvn.branches_folded;
    stats.cse_hits = lvn.cse_hits;
    stats.operands_forwarded = lvn.operands_forwarded;
    stats.bools_reduced = lvn.bools_reduced;
    stats.instrs_after_lvn = instr_count(&body);

    let sig_regs: HashSet<Reg> = signals.iter().map(|m| m.reg).collect();
    stats.instrs_removed = dce(&mut body, &sig_regs);
    stats.instrs_after_dce = instr_count(&body);

    let mut signals = signals.to_vec();
    let num_regs = compact(&mut body, &mut signals);
    stats.regs_after = num_regs;

    Optimized { program: body, num_regs, signals, stats }
}

// ---------------------------------------------------------------------------
// Pass 1: local value numbering (constant folding + copy prop + CSE).
// ---------------------------------------------------------------------------

type Vn = u32;

/// A value-numbered pure expression. `Load` carries the store epoch at
/// which it was read, so any intervening `StoreState`/`ShiftState` (or a
/// branch that might contain one) keys later loads differently.
#[derive(Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    Input(usize),
    Unop(UnopCode, Vn),
    Binop(BinopCode, Vn, Vn),
    Call(FuncCode, Vec<Vn>),
    Cast(DataType, Vn),
    Load(usize, u64),
    Lookup1(usize, Vn),
    Lookup2(usize, Vn, Vn),
}

struct Lvn {
    /// Current value number per register. Registers start with a unique
    /// "program-entry value of r" number — *not* a constant: the register
    /// file persists across ticks, so the entry value is whatever last
    /// tick left behind.
    reg_vn: Vec<Vn>,
    next_vn: Vn,
    /// Value numbers with a known constant, by bit pattern.
    vn_const: HashMap<Vn, u64>,
    /// Dedup: identical constants share one value number.
    const_vn: HashMap<u64, Vn>,
    /// Preferred register currently holding a value number. Entries are
    /// only trusted when `reg_vn[home] == vn` still holds, which makes
    /// stale entries from sibling branches self-invalidating.
    home: HashMap<Vn, Reg>,
    /// Available pure expressions, validity-checked like `home`.
    exprs: HashMap<ExprKey, (Reg, Vn)>,
    /// Bumped by every state mutation; keys `ExprKey::Load`.
    store_epoch: u64,
    /// Value numbers proven to hold exactly 0.0 or 1.0 (relational and
    /// logical results) — the precondition for `Truthy` strength reduction.
    vn_bool: std::collections::HashSet<Vn>,
    consts_folded: usize,
    branches_folded: usize,
    cse_hits: usize,
    operands_forwarded: usize,
    bools_reduced: usize,
}

impl Lvn {
    fn new(num_regs: usize) -> Self {
        Lvn {
            reg_vn: (0..num_regs as Vn).collect(),
            next_vn: num_regs as Vn,
            vn_const: HashMap::new(),
            const_vn: HashMap::new(),
            home: HashMap::new(),
            exprs: HashMap::new(),
            store_epoch: 0,
            vn_bool: std::collections::HashSet::new(),
            consts_folded: 0,
            branches_folded: 0,
            cse_hits: 0,
            operands_forwarded: 0,
            bools_reduced: 0,
        }
    }

    /// Whether a value number is proven to be exactly 0.0 or 1.0.
    fn is_bool(&self, vn: Vn) -> bool {
        self.vn_bool.contains(&vn)
            || self
                .vn_const
                .get(&vn)
                .is_some_and(|&bits| bits == 0.0f64.to_bits() || bits == 1.0f64.to_bits())
    }

    fn fresh_vn(&mut self) -> Vn {
        let v = self.next_vn;
        self.next_vn += 1;
        v
    }

    fn vn_of(&self, reg: Reg) -> Vn {
        self.reg_vn[reg as usize]
    }

    /// The constant a register is known to hold, if any.
    fn const_of(&self, reg: Reg) -> Option<f64> {
        self.vn_const.get(&self.vn_of(reg)).map(|&bits| f64::from_bits(bits))
    }

    /// Redirects an operand read to the earliest register still holding the
    /// same value (copy propagation).
    fn resolve(&mut self, reg: Reg) -> Reg {
        let vn = self.vn_of(reg);
        if let Some(&h) = self.home.get(&vn) {
            if h != reg && self.reg_vn[h as usize] == vn {
                self.operands_forwarded += 1;
                return h;
            }
        }
        reg
    }

    /// Records that `dst` now holds `vn` and claims it as the value's home
    /// register when no earlier valid home exists.
    fn set(&mut self, dst: Reg, vn: Vn) {
        self.reg_vn[dst as usize] = vn;
        let valid = self.home.get(&vn).is_some_and(|&h| self.reg_vn[h as usize] == vn);
        if !valid {
            self.home.insert(vn, dst);
        }
    }

    /// Defines `dst` as a known constant, sharing the value number with any
    /// earlier identical constant so duplicates become copy-propagatable.
    fn set_const(&mut self, dst: Reg, value: f64) {
        let bits = value.to_bits();
        let vn = match self.const_vn.get(&bits) {
            Some(&vn) => vn,
            None => {
                let vn = self.fresh_vn();
                self.const_vn.insert(bits, vn);
                self.vn_const.insert(vn, bits);
                vn
            }
        };
        self.set(dst, vn);
    }

    /// Emits a folded constant definition.
    fn fold(&mut self, out: &mut Vec<Instr>, dst: Reg, value: f64) {
        self.consts_folded += 1;
        self.set_const(dst, value);
        out.push(Instr::Const { dst, value });
    }

    /// CSE lookup: reuse an earlier identical computation when its result
    /// register still holds the value, else emit `instr` as a new entry.
    fn cse(&mut self, out: &mut Vec<Instr>, key: ExprKey, dst: Reg, instr: Instr) {
        if let Some(&(r, vn)) = self.exprs.get(&key) {
            if self.reg_vn[r as usize] == vn {
                self.cse_hits += 1;
                out.push(Instr::Copy { dst, src: r });
                self.set(dst, vn);
                return;
            }
        }
        out.push(instr);
        let vn = self.fresh_vn();
        self.set(dst, vn);
        self.exprs.insert(key, (dst, vn));
    }

    fn run_body(&mut self, body: &[Instr], out: &mut Vec<Instr>) {
        for instr in body {
            match instr {
                Instr::Const { dst, value } => {
                    self.set_const(*dst, *value);
                    out.push(Instr::Const { dst: *dst, value: *value });
                }
                Instr::Copy { dst, src } => {
                    let s = self.resolve(*src);
                    let vn = self.vn_of(s);
                    out.push(Instr::Copy { dst: *dst, src: s });
                    self.set(*dst, vn);
                }
                Instr::Input { dst, index } => {
                    self.cse(
                        out,
                        ExprKey::Input(*index),
                        *dst,
                        Instr::Input { dst: *dst, index: *index },
                    );
                }
                // `Output` sources are deliberately not rewritten: outports
                // read their driver's signal register, and
                // `ProbeMask::outputs` matches on exactly that.
                Instr::Output { index, src } => {
                    out.push(Instr::Output { index: *index, src: *src });
                }
                Instr::Unop { dst, op, src } => {
                    let s = self.resolve(*src);
                    if let Some(x) = self.const_of(s) {
                        let value = match op {
                            UnopCode::Neg => -x,
                            UnopCode::Not => f64::from(x == 0.0),
                            UnopCode::Truthy => f64::from(x != 0.0),
                        };
                        self.fold(out, *dst, value);
                    } else if *op == UnopCode::Truthy && self.is_bool(self.vn_of(s)) {
                        // `Truthy` of a relational/logical result is the
                        // identity (those produce exactly 0.0 or 1.0):
                        // strength-reduce to a copy, which downstream
                        // copy-prop then forwards away entirely.
                        self.bools_reduced += 1;
                        out.push(Instr::Copy { dst: *dst, src: s });
                        self.set(*dst, self.vn_of(s));
                    } else {
                        self.cse(
                            out,
                            ExprKey::Unop(*op, self.vn_of(s)),
                            *dst,
                            Instr::Unop { dst: *dst, op: *op, src: s },
                        );
                        if matches!(op, UnopCode::Not | UnopCode::Truthy) {
                            self.vn_bool.insert(self.vn_of(*dst));
                        }
                    }
                }
                Instr::Binop { dst, op, lhs, rhs } => {
                    let l = self.resolve(*lhs);
                    let r = self.resolve(*rhs);
                    let consts = (self.const_of(l), self.const_of(r));
                    if op.is_relational() {
                        // Pinned: the instruction must execute so the TORC
                        // `compare` hook fires, but a constant *result*
                        // still feeds downstream `If` folding.
                        out.push(Instr::Binop { dst: *dst, op: *op, lhs: l, rhs: r });
                        match consts {
                            (Some(a), Some(b)) => self.set_const(*dst, op.apply(a, b)),
                            _ => {
                                let vn = self.fresh_vn();
                                self.set(*dst, vn);
                                self.vn_bool.insert(vn);
                            }
                        }
                    } else if let (Some(a), Some(b)) = consts {
                        self.fold(out, *dst, op.apply(a, b));
                    } else {
                        let (mut a, mut b) = (self.vn_of(l), self.vn_of(r));
                        if op.is_commutative_bitexact() && a > b {
                            std::mem::swap(&mut a, &mut b);
                        }
                        self.cse(
                            out,
                            ExprKey::Binop(*op, a, b),
                            *dst,
                            Instr::Binop { dst: *dst, op: *op, lhs: l, rhs: r },
                        );
                        if matches!(op, BinopCode::And | BinopCode::Or) {
                            self.vn_bool.insert(self.vn_of(*dst));
                        }
                    }
                }
                Instr::Call { dst, func, args } => {
                    let args: Vec<Reg> = args.iter().map(|a| self.resolve(*a)).collect();
                    let vals: Option<Vec<f64>> = args.iter().map(|&a| self.const_of(a)).collect();
                    if let Some(vals) = vals {
                        self.fold(out, *dst, func.apply(&vals));
                    } else {
                        let vns = args.iter().map(|&a| self.vn_of(a)).collect();
                        self.cse(
                            out,
                            ExprKey::Call(*func, vns),
                            *dst,
                            Instr::Call { dst: *dst, func: *func, args },
                        );
                    }
                }
                Instr::CastSat { dst, src, ty } => {
                    let s = self.resolve(*src);
                    if let Some(x) = self.const_of(s) {
                        self.fold(out, *dst, Value::from_f64(x, *ty).as_f64());
                    } else {
                        self.cse(
                            out,
                            ExprKey::Cast(*ty, self.vn_of(s)),
                            *dst,
                            Instr::CastSat { dst: *dst, src: s, ty: *ty },
                        );
                    }
                }
                Instr::LoadState { dst, slot } => {
                    self.cse(
                        out,
                        ExprKey::Load(*slot, self.store_epoch),
                        *dst,
                        Instr::LoadState { dst: *dst, slot: *slot },
                    );
                }
                Instr::StoreState { slot, src } => {
                    let s = self.resolve(*src);
                    out.push(Instr::StoreState { slot: *slot, src: s });
                    self.store_epoch += 1;
                    // Store-to-load forwarding: a load of this slot at the
                    // new epoch sees exactly the stored value.
                    self.exprs.insert(ExprKey::Load(*slot, self.store_epoch), (s, self.vn_of(s)));
                }
                Instr::ShiftState { base, len, src } => {
                    let s = self.resolve(*src);
                    out.push(Instr::ShiftState { base: *base, len: *len, src: s });
                    // A shift rewrites `len` slots at once; no forwarding.
                    self.store_epoch += 1;
                }
                Instr::Lookup1 { dst, src, table } => {
                    let s = self.resolve(*src);
                    self.cse(
                        out,
                        ExprKey::Lookup1(*table, self.vn_of(s)),
                        *dst,
                        Instr::Lookup1 { dst: *dst, src: s, table: *table },
                    );
                }
                Instr::Lookup2 { dst, row, col, table } => {
                    let r = self.resolve(*row);
                    let c = self.resolve(*col);
                    self.cse(
                        out,
                        ExprKey::Lookup2(*table, self.vn_of(r), self.vn_of(c)),
                        *dst,
                        Instr::Lookup2 { dst: *dst, row: r, col: c, table: *table },
                    );
                }
                Instr::Probe { branch } => out.push(Instr::Probe { branch: *branch }),
                Instr::CondProbe { cond, src } => {
                    let s = self.resolve(*src);
                    out.push(Instr::CondProbe { cond: *cond, src: s });
                }
                Instr::DecisionEval { decision, conds, outcome } => {
                    let conds = conds.iter().map(|c| self.resolve(*c)).collect();
                    let outcome = self.resolve(*outcome);
                    out.push(Instr::DecisionEval { decision: *decision, conds, outcome });
                }
                Instr::Assert { id, cond } => {
                    let c = self.resolve(*cond);
                    out.push(Instr::Assert { id: *id, cond: c });
                }
                Instr::If { cond, then_body, else_body } => {
                    let c = self.resolve(*cond);
                    if let Some(x) = self.const_of(c) {
                        // Statically-decided branch: inline the taken arm —
                        // but only when the untaken arm carries no declared
                        // instrumentation point. Runtime events would be
                        // identical either way (the arm never executes), but
                        // the emitted C must keep one probe site per branch
                        // the InstrumentationMap declares, even unreachable
                        // ones.
                        let (taken, dropped) =
                            if x != 0.0 { (then_body, else_body) } else { (else_body, then_body) };
                        if !contains_probe(dropped) {
                            self.branches_folded += 1;
                            self.run_body(taken, out);
                            continue;
                        }
                    }
                    let snapshot = self.reg_vn.clone();
                    let epoch_before = self.store_epoch;
                    let mut then_out = Vec::with_capacity(then_body.len());
                    self.run_body(then_body, &mut then_out);
                    let then_vns = std::mem::replace(&mut self.reg_vn, snapshot.clone());
                    // The else arm must not see the then arm's store-to-load
                    // forwarding entries (its stores never ran on this path),
                    // so move past every epoch the then arm touched.
                    if self.store_epoch != epoch_before {
                        self.store_epoch += 1;
                    }
                    let mut else_out = Vec::with_capacity(else_body.len());
                    self.run_body(else_body, &mut else_out);
                    // Merge: any register either arm may have written gets a
                    // fresh opaque value number in the join state.
                    for r in 0..self.reg_vn.len() {
                        if then_vns[r] != snapshot[r] || self.reg_vn[r] != snapshot[r] {
                            self.reg_vn[r] = self.fresh_vn();
                        }
                    }
                    // If either arm touched state, later loads must not
                    // match pre-branch (or in-branch) load/store entries.
                    if self.store_epoch != epoch_before {
                        self.store_epoch += 1;
                    }
                    out.push(Instr::If { cond: c, then_body: then_out, else_body: else_out });
                }
            }
        }
    }
}

/// Whether `body` contains a declared instrumentation point
/// (`Probe`/`CondProbe`/`DecisionEval`/`Assert`), recursively.
fn contains_probe(body: &[Instr]) -> bool {
    body.iter().any(|instr| match instr {
        Instr::Probe { .. }
        | Instr::CondProbe { .. }
        | Instr::DecisionEval { .. }
        | Instr::Assert { .. } => true,
        Instr::If { then_body, else_body, .. } => {
            contains_probe(then_body) || contains_probe(else_body)
        }
        _ => false,
    })
}

// ---------------------------------------------------------------------------
// Pass 2: dead-register elimination (fixpoint mark/sweep).
// ---------------------------------------------------------------------------

/// Removes pure definitions whose destination no surviving instruction
/// reads and that is not a signal register, iterating to a fixpoint
/// (removing a reader can kill its operands' definitions, and emptying an
/// `If` kills the condition read). Returns the number of instructions
/// removed. Relational binops are kept unconditionally (their `compare`
/// side effect).
fn dce(body: &mut Vec<Instr>, sig_regs: &HashSet<Reg>) -> usize {
    let mut removed = 0;
    loop {
        let mut needed: HashSet<Reg> = sig_regs.clone();
        collect_reads(body, &mut needed);
        let swept = sweep(body, &needed, sig_regs);
        if swept == 0 {
            return removed;
        }
        removed += swept;
    }
}

/// Adds every register read by any instruction in `body` to `needed`.
fn collect_reads(body: &[Instr], needed: &mut HashSet<Reg>) {
    for instr in body {
        instr.for_each_read(|r| {
            needed.insert(r);
        });
        if let Instr::If { then_body, else_body, .. } = instr {
            collect_reads(then_body, needed);
            collect_reads(else_body, needed);
        }
    }
}

/// One removal sweep against a fixed `needed` set. Returns removals.
fn sweep(body: &mut Vec<Instr>, needed: &HashSet<Reg>, sig_regs: &HashSet<Reg>) -> usize {
    let mut removed = 0;
    body.retain_mut(|instr| {
        let keep = match instr {
            // Externally-visible effects are never swept.
            Instr::Output { .. }
            | Instr::StoreState { .. }
            | Instr::ShiftState { .. }
            | Instr::Probe { .. }
            | Instr::CondProbe { .. }
            | Instr::DecisionEval { .. }
            | Instr::Assert { .. } => true,
            Instr::Binop { op, .. } if op.is_relational() => true,
            Instr::Const { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Input { dst, .. }
            | Instr::Unop { dst, .. }
            | Instr::Binop { dst, .. }
            | Instr::Call { dst, .. }
            | Instr::CastSat { dst, .. }
            | Instr::LoadState { dst, .. }
            | Instr::Lookup1 { dst, .. }
            | Instr::Lookup2 { dst, .. } => needed.contains(dst) || sig_regs.contains(dst),
            Instr::If { then_body, else_body, .. } => {
                removed += sweep(then_body, needed, sig_regs);
                removed += sweep(else_body, needed, sig_regs);
                !(then_body.is_empty() && else_body.is_empty())
            }
        };
        if !keep {
            removed += 1;
        }
        keep
    });
    removed
}

// ---------------------------------------------------------------------------
// Pass 3: register-file compaction.
// ---------------------------------------------------------------------------

/// Renumbers every register mentioned by `body` or the signal table into a
/// dense `0..n` space (ascending old-index order, so the remap is a stable
/// bijection) and rewrites both in place. Returns the new register count.
fn compact(body: &mut [Instr], signals: &mut [SignalMeta]) -> usize {
    let mut used: HashSet<Reg> = signals.iter().map(|m| m.reg).collect();
    collect_reads(body, &mut used);
    collect_writes(body, &mut used);
    let mut order: Vec<Reg> = used.into_iter().collect();
    order.sort_unstable();
    let map: HashMap<Reg, Reg> = order.iter().enumerate().map(|(i, &r)| (r, i as Reg)).collect();
    remap_body(body, &map);
    for meta in signals {
        meta.reg = map[&meta.reg];
    }
    order.len()
}

fn collect_writes(body: &[Instr], used: &mut HashSet<Reg>) {
    for instr in body {
        used.extend(instr.dst());
        if let Instr::If { then_body, else_body, .. } = instr {
            collect_writes(then_body, used);
            collect_writes(else_body, used);
        }
    }
}

fn remap_body(body: &mut [Instr], map: &HashMap<Reg, Reg>) {
    let m = |r: &mut Reg| *r = map[r];
    for instr in body {
        match instr {
            Instr::Const { dst, .. } | Instr::Input { dst, .. } | Instr::LoadState { dst, .. } => {
                m(dst);
            }
            Instr::Copy { dst, src }
            | Instr::Unop { dst, src, .. }
            | Instr::CastSat { dst, src, .. }
            | Instr::Lookup1 { dst, src, .. } => {
                m(dst);
                m(src);
            }
            Instr::Output { src, .. }
            | Instr::StoreState { src, .. }
            | Instr::ShiftState { src, .. }
            | Instr::CondProbe { src, .. } => m(src),
            Instr::Binop { dst, lhs, rhs, .. } => {
                m(dst);
                m(lhs);
                m(rhs);
            }
            Instr::Call { dst, args, .. } => {
                m(dst);
                args.iter_mut().for_each(&m);
            }
            Instr::Lookup2 { dst, row, col, .. } => {
                m(dst);
                m(row);
                m(col);
            }
            Instr::Probe { .. } => {}
            Instr::DecisionEval { conds, outcome, .. } => {
                conds.iter_mut().for_each(&m);
                m(outcome);
            }
            Instr::Assert { cond, .. } => m(cond),
            Instr::If { cond, then_body, else_body } => {
                m(cond);
                remap_body(then_body, map);
                remap_body(else_body, map);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::BinopCode;
    use cftcg_coverage::BranchId;

    fn sig(name: &str, reg: Reg) -> SignalMeta {
        SignalMeta { name: name.into(), dtype: cftcg_model::DataType::F64, reg }
    }

    #[test]
    fn folds_constants_through_arithmetic() {
        let program = vec![
            Instr::Const { dst: 0, value: 2.0 },
            Instr::Const { dst: 1, value: 3.0 },
            Instr::Binop { dst: 2, op: BinopCode::Mul, lhs: 0, rhs: 1 },
            Instr::Output { index: 0, src: 2 },
        ];
        let opt = optimize(&program, 3, &[sig("m/b:0", 2)]);
        assert!(opt.stats.consts_folded >= 1);
        // The output's driver register now holds a folded constant.
        assert!(opt
            .program
            .iter()
            .any(|i| matches!(i, Instr::Const { value, .. } if *value == 6.0)));
    }

    #[test]
    fn cse_shares_repeated_pure_expressions() {
        let program = vec![
            Instr::Input { dst: 0, index: 0 },
            Instr::Unop { dst: 1, op: UnopCode::Neg, src: 0 },
            Instr::Unop { dst: 2, op: UnopCode::Neg, src: 0 },
            Instr::Binop { dst: 3, op: BinopCode::Add, lhs: 1, rhs: 2 },
            Instr::Output { index: 0, src: 3 },
        ];
        let opt = optimize(&program, 4, &[sig("m/b:0", 3)]);
        assert_eq!(opt.stats.cse_hits, 1);
        let negs = opt
            .program
            .iter()
            .filter(|i| matches!(i, Instr::Unop { op: UnopCode::Neg, .. }))
            .count();
        assert_eq!(negs, 1, "second negation shares the first: {:?}", opt.program);
    }

    #[test]
    fn relational_binops_survive_even_when_dead() {
        // Nothing reads r2, but the comparison fires `compare` (TORC), so
        // the instrumented program must keep it.
        let program = vec![
            Instr::Input { dst: 0, index: 0 },
            Instr::Const { dst: 1, value: 5.0 },
            Instr::Binop { dst: 2, op: BinopCode::Lt, lhs: 0, rhs: 1 },
            Instr::Output { index: 0, src: 0 },
        ];
        let opt = optimize(&program, 3, &[sig("m/b:0", 0)]);
        assert!(
            opt.program.iter().any(|i| matches!(i, Instr::Binop { op: BinopCode::Lt, .. })),
            "pinned relational swept: {:?}",
            opt.program
        );
    }

    #[test]
    fn compaction_remaps_signal_registers() {
        let program = vec![
            Instr::Input { dst: 100, index: 0 },
            Instr::Copy { dst: 200, src: 100 },
            Instr::Output { index: 0, src: 200 },
        ];
        let opt = optimize(&program, 201, &[sig("m/b:0", 200)]);
        assert_eq!(opt.num_regs, 2);
        assert_eq!(opt.signals[0].reg, 1);
        assert!(opt.num_regs < opt.stats.regs_before);
    }

    #[test]
    fn state_stores_split_load_cse() {
        // load; store; load — the second load must NOT be CSE'd to the
        // first (the store changed the slot), but store-to-load forwarding
        // may redirect it to the stored register.
        let program = vec![
            Instr::Input { dst: 0, index: 0 },
            Instr::LoadState { dst: 1, slot: 0 },
            Instr::StoreState { slot: 0, src: 0 },
            Instr::LoadState { dst: 2, slot: 0 },
            Instr::Binop { dst: 3, op: BinopCode::Sub, lhs: 2, rhs: 1 },
            Instr::Output { index: 0, src: 3 },
        ];
        let opt = optimize(&program, 4, &[sig("m/b:0", 3)]);
        // The second load forwards from the store's source (input), so the
        // subtraction must read two *different* sources.
        let sub = opt
            .program
            .iter()
            .find_map(|i| match i {
                Instr::Binop { op: BinopCode::Sub, lhs, rhs, .. } => Some((*lhs, *rhs)),
                _ => None,
            })
            .expect("subtraction survives");
        assert_ne!(sub.0, sub.1, "store must split load CSE: {:?}", opt.program);
    }

    #[test]
    fn probes_in_runtime_dead_else_survive_dce() {
        // The else arm computes nothing anyone reads — but its probe is a
        // declared instrumentation point, so DCE may sweep the dead
        // arithmetic yet must keep the probe, the arm, and the `If`.
        let program = vec![
            Instr::Input { dst: 0, index: 0 },
            Instr::If {
                cond: 0,
                then_body: vec![Instr::Probe { branch: BranchId(0) }],
                else_body: vec![
                    Instr::Probe { branch: BranchId(1) },
                    Instr::Unop { dst: 1, op: UnopCode::Neg, src: 0 },
                ],
            },
            Instr::Output { index: 0, src: 0 },
        ];
        let opt = optimize(&program, 2, &[sig("m/b:0", 0)]);
        let (then_body, else_body) = opt
            .program
            .iter()
            .find_map(|i| match i {
                Instr::If { then_body, else_body, .. } => Some((then_body, else_body)),
                _ => None,
            })
            .expect("the branch survives");
        assert_eq!(then_body.as_slice(), &[Instr::Probe { branch: BranchId(0) }]);
        assert_eq!(
            else_body.as_slice(),
            &[Instr::Probe { branch: BranchId(1) }],
            "dead arithmetic swept, probe kept"
        );
    }

    #[test]
    fn statically_dead_arm_with_probe_blocks_branch_folding() {
        // A constant condition normally inlines the taken arm — but not
        // when the dropped arm declares a probe site: the emitted C must
        // keep one `CoverageStatistics` call per mapped branch, reachable
        // or not.
        let program = vec![
            Instr::Const { dst: 0, value: 1.0 },
            Instr::If {
                cond: 0,
                then_body: vec![Instr::Probe { branch: BranchId(0) }],
                else_body: vec![Instr::Probe { branch: BranchId(1) }],
            },
            Instr::Output { index: 0, src: 0 },
        ];
        let opt = optimize(&program, 1, &[sig("m/b:0", 0)]);
        assert_eq!(opt.stats.branches_folded, 0);
        assert!(
            opt.program.iter().any(|i| matches!(i, Instr::If { .. })),
            "probe-bearing arm must not be folded away: {:?}",
            opt.program
        );
    }

    #[test]
    fn shift_state_aliasing_blocks_load_cse() {
        // A delay-line shift writes `state[base..base+len]` wholesale, so a
        // load of any slot in (or near) the line must not be CSE'd across
        // it — the epoch scheme treats every state mutation as a full
        // barrier.
        let program = vec![
            Instr::Input { dst: 0, index: 0 },
            Instr::LoadState { dst: 1, slot: 1 },
            Instr::ShiftState { base: 0, len: 3, src: 0 },
            Instr::LoadState { dst: 2, slot: 1 },
            Instr::Binop { dst: 3, op: BinopCode::Sub, lhs: 2, rhs: 1 },
            Instr::Output { index: 0, src: 3 },
        ];
        let opt = optimize(&program, 4, &[sig("m/b:0", 3)]);
        let loads =
            opt.program.iter().filter(|i| matches!(i, Instr::LoadState { slot: 1, .. })).count();
        assert_eq!(loads, 2, "both loads must execute: {:?}", opt.program);
    }

    #[test]
    fn nan_constant_folds_are_bit_exact() {
        // Folding must use the exact runtime arithmetic: 0/0 and inf-inf
        // produce NaNs whose bit patterns the fold must reproduce, because
        // downstream relational compares feed those bits to TORC.
        for (op, a, b) in [
            (BinopCode::Div, 0.0f64, 0.0f64),
            (BinopCode::Sub, f64::INFINITY, f64::INFINITY),
            (BinopCode::Add, f64::NAN, 1.0),
        ] {
            let program = vec![
                Instr::Const { dst: 0, value: a },
                Instr::Const { dst: 1, value: b },
                Instr::Binop { dst: 2, op, lhs: 0, rhs: 1 },
                Instr::Output { index: 0, src: 2 },
            ];
            let opt = optimize(&program, 3, &[sig("m/b:0", 2)]);
            let folded = opt
                .program
                .iter()
                .find_map(|i| match i {
                    Instr::Const { value, .. } if value.is_nan() => Some(*value),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{op:?} fold produced no NaN const: {:?}", opt.program));
            assert_eq!(
                folded.to_bits(),
                op.apply(a, b).to_bits(),
                "{op:?}({a}, {b}) folded to different bits"
            );
        }
    }

    #[test]
    fn else_arm_loads_never_forward_then_arm_stores() {
        // Regression: a then-arm `StoreState` used to leave a store-to-load
        // forwarding entry the else arm could match when the stored source
        // was defined before the branch, silently turning the else path's
        // load into a copy of a value that was never stored on that path
        // (CPUTask's queue chart miscounted its length this way).
        let program = vec![
            Instr::Input { dst: 0, index: 0 },
            Instr::Input { dst: 1, index: 1 },
            Instr::If {
                cond: 0,
                then_body: vec![Instr::StoreState { slot: 0, src: 1 }],
                else_body: vec![Instr::LoadState { dst: 2, slot: 0 }],
            },
            Instr::Output { index: 0, src: 2 },
        ];
        let opt = optimize(&program, 3, &[sig("m/b:0", 2)]);
        let else_body = opt
            .program
            .iter()
            .find_map(|i| match i {
                Instr::If { else_body, .. } => Some(else_body),
                _ => None,
            })
            .expect("the branch survives");
        assert!(
            else_body.iter().any(|i| matches!(i, Instr::LoadState { slot: 0, .. })),
            "else arm must still load the slot: {:?}",
            opt.program
        );
    }
}
