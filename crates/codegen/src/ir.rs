//! The step-IR: a structured instruction tree over an `f64` register file.
//!
//! All numeric signals live in `f64` registers (every supported integer
//! type embeds exactly in `f64`); booleans are `0.0`/`1.0`. Typed storage
//! semantics are explicit [`Instr::CastSat`] instructions, so the VM stays a
//! tight scalar machine while reproducing saturating fixed-point behaviour.

use std::fmt;

use cftcg_coverage::{AssertionId, BranchId, ConditionId, DecisionId};
use cftcg_model::DataType;

/// A register index in the step program's `f64` register file.
pub type Reg = u32;

/// Unary operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnopCode {
    /// `-x`
    Neg,
    /// `(x == 0) ? 1 : 0`
    Not,
    /// `(x != 0) ? 1 : 0`
    Truthy,
}

/// Binary operation codes. Comparisons yield `0.0`/`1.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinopCode {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// C `fmod`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// both truthy
    And,
    /// either truthy
    Or,
}

impl BinopCode {
    /// Applies the operation.
    #[inline]
    pub fn apply(self, l: f64, r: f64) -> f64 {
        match self {
            BinopCode::Add => l + r,
            BinopCode::Sub => l - r,
            BinopCode::Mul => l * r,
            BinopCode::Div => l / r,
            BinopCode::Rem => l % r,
            BinopCode::Lt => bool_f64(l < r),
            BinopCode::Le => bool_f64(l <= r),
            BinopCode::Gt => bool_f64(l > r),
            BinopCode::Ge => bool_f64(l >= r),
            BinopCode::Eq => bool_f64(l == r),
            BinopCode::Ne => bool_f64(l != r),
            BinopCode::And => bool_f64(l != 0.0 && r != 0.0),
            BinopCode::Or => bool_f64(l != 0.0 || r != 0.0),
        }
    }

    /// Whether the operation is a relational comparison (`<`, `<=`, `>`,
    /// `>=`, `==`, `!=`).
    ///
    /// Relational binops are *observable*: executing one fires the
    /// recorder's [`compare`](cftcg_coverage::Recorder::compare) hook (the
    /// TORC mine), so the optimizer must never fold, share, or drop them,
    /// and the VM dispatches them through a dedicated opcode instead of
    /// re-testing the code at run time.
    #[inline]
    pub const fn is_relational(self) -> bool {
        matches!(
            self,
            BinopCode::Lt
                | BinopCode::Le
                | BinopCode::Gt
                | BinopCode::Ge
                | BinopCode::Eq
                | BinopCode::Ne
        )
    }

    /// Whether swapping the operands cannot change the result bit pattern.
    ///
    /// Deliberately excludes float `Add`/`Mul`: IEEE addition is commutative
    /// for numeric results but the NaN *payload* of `NaN + NaN` follows
    /// operand order on common hardware, and the optimizer promises
    /// bit-exact equivalence with the reference walker.
    #[inline]
    pub(crate) const fn is_commutative_bitexact(self) -> bool {
        matches!(self, BinopCode::And | BinopCode::Or)
    }

    /// The C operator spelling (for emission).
    pub const fn c_symbol(self) -> &'static str {
        match self {
            BinopCode::Add => "+",
            BinopCode::Sub => "-",
            BinopCode::Mul => "*",
            BinopCode::Div => "/",
            BinopCode::Rem => "%",
            BinopCode::Lt => "<",
            BinopCode::Le => "<=",
            BinopCode::Gt => ">",
            BinopCode::Ge => ">=",
            BinopCode::Eq => "==",
            BinopCode::Ne => "!=",
            BinopCode::And => "&&",
            BinopCode::Or => "||",
        }
    }
}

#[inline]
fn bool_f64(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Builtin function codes, unifying the expression-language builtins and the
/// Math block functions. Application delegates to the *same* definitions the
/// interpreter uses ([`cftcg_model::expr::apply_builtin`] /
/// [`cftcg_model::MathFunc::apply`]), so the engines cannot drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuncCode {
    /// One of the expression-language builtins, by table index into
    /// [`cftcg_model::expr::BUILTINS`].
    Builtin(u8),
    /// A Math block function.
    Math(cftcg_model::MathFunc),
}

impl FuncCode {
    /// Resolves an expression-language builtin by name.
    pub fn from_builtin_name(name: &str) -> Option<FuncCode> {
        cftcg_model::expr::BUILTINS
            .iter()
            .position(|(n, _)| *n == name)
            .map(|i| FuncCode::Builtin(i as u8))
    }

    /// The function's name (for C emission).
    pub fn name(self) -> &'static str {
        match self {
            FuncCode::Builtin(i) => cftcg_model::expr::BUILTINS[i as usize].0,
            FuncCode::Math(f) => f.name(),
        }
    }

    /// Applies the function.
    ///
    /// # Panics
    ///
    /// Panics on an arity mismatch — lowering always supplies the declared
    /// arity.
    #[inline]
    pub fn apply(self, args: &[f64]) -> f64 {
        match self {
            FuncCode::Builtin(i) => {
                let name = cftcg_model::expr::BUILTINS[i as usize].0;
                cftcg_model::expr::apply_builtin(name, args)
                    .expect("lowering supplies the declared arity")
            }
            FuncCode::Math(f) => f.apply(args),
        }
    }
}

/// One step-IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = value`
    Const {
        /// Destination register.
        dst: Reg,
        /// Immediate.
        value: f64,
    },
    /// `dst = src`
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = model_inputs[index]` (already cast to the inport type).
    Input {
        /// Destination register.
        dst: Reg,
        /// Inport index.
        index: usize,
    },
    /// `model_outputs[index] = src`
    Output {
        /// Outport index.
        index: usize,
        /// Source register.
        src: Reg,
    },
    /// `dst = op(src)`
    Unop {
        /// Destination register.
        dst: Reg,
        /// Operation.
        op: UnopCode,
        /// Operand register.
        src: Reg,
    },
    /// `dst = op(lhs, rhs)`
    Binop {
        /// Destination register.
        dst: Reg,
        /// Operation.
        op: BinopCode,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst = func(args...)`
    Call {
        /// Destination register.
        dst: Reg,
        /// Function.
        func: FuncCode,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// `dst = saturating_cast(src, ty)` — the value is stored back as `f64`.
    CastSat {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Storage type emulated.
        ty: DataType,
    },
    /// `dst = state[slot]`
    LoadState {
        /// Destination register.
        dst: Reg,
        /// State slot.
        slot: usize,
    },
    /// `state[slot] = src`
    StoreState {
        /// State slot.
        slot: usize,
        /// Source register.
        src: Reg,
    },
    /// Delay-line shift: `state[base..base+len-1] = state[base+1..]`,
    /// `state[base+len-1] = src`.
    ShiftState {
        /// First slot of the line.
        base: usize,
        /// Line length (≥ 1).
        len: usize,
        /// Newest value.
        src: Reg,
    },
    /// `dst = lookup1d(tables[table], src)`
    Lookup1 {
        /// Destination register.
        dst: Reg,
        /// Input register.
        src: Reg,
        /// 1-D table index.
        table: usize,
    },
    /// `dst = lookup2d(tables2[table], row, col)`
    Lookup2 {
        /// Destination register.
        dst: Reg,
        /// Row input register.
        row: Reg,
        /// Column input register.
        col: Reg,
        /// 2-D table index.
        table: usize,
    },
    /// `CoverageStatistics(branch)` — a branch probe (decision outcome hit).
    Probe {
        /// The branch.
        branch: BranchId,
    },
    /// Records the value of a coverage condition.
    CondProbe {
        /// The condition.
        cond: ConditionId,
        /// Register holding the (0/1) condition value.
        src: Reg,
    },
    /// Records a boolean decision evaluation for MCDC: the condition bit
    /// vector is assembled from `conds` (bit *i* ← `conds[i]`), the outcome
    /// from `outcome`.
    DecisionEval {
        /// The decision.
        decision: DecisionId,
        /// Condition registers in bit order.
        conds: Vec<Reg>,
        /// Register holding the (0/1) decision outcome.
        outcome: Reg,
    },
    /// Run-time assertion check: reports `cond != 0` to the recorder.
    Assert {
        /// The assertion.
        id: AssertionId,
        /// Register holding the asserted condition.
        cond: Reg,
    },
    /// Structured conditional.
    If {
        /// Condition register (truthy test).
        cond: Reg,
        /// Instructions when truthy.
        then_body: Vec<Instr>,
        /// Instructions otherwise.
        else_body: Vec<Instr>,
    },
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Const { dst, value } => write!(f, "r{dst} = {value}"),
            Instr::Copy { dst, src } => write!(f, "r{dst} = r{src}"),
            Instr::Input { dst, index } => write!(f, "r{dst} = input[{index}]"),
            Instr::Output { index, src } => write!(f, "output[{index}] = r{src}"),
            Instr::Unop { dst, op, src } => write!(f, "r{dst} = {op:?}(r{src})"),
            Instr::Binop { dst, op, lhs, rhs } => {
                write!(f, "r{dst} = r{lhs} {} r{rhs}", op.c_symbol())
            }
            Instr::Call { dst, func, args } => {
                write!(f, "r{dst} = {}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "r{a}")?;
                }
                write!(f, ")")
            }
            Instr::CastSat { dst, src, ty } => write!(f, "r{dst} = ({ty})r{src}"),
            Instr::LoadState { dst, slot } => write!(f, "r{dst} = state[{slot}]"),
            Instr::StoreState { slot, src } => write!(f, "state[{slot}] = r{src}"),
            Instr::ShiftState { base, len, src } => {
                write!(f, "shift state[{base}..{}] <- r{src}", base + len)
            }
            Instr::Lookup1 { dst, src, table } => {
                write!(f, "r{dst} = lookup1d(table{table}, r{src})")
            }
            Instr::Lookup2 { dst, row, col, table } => {
                write!(f, "r{dst} = lookup2d(table{table}, r{row}, r{col})")
            }
            Instr::Probe { branch } => write!(f, "CoverageStatistics({branch})"),
            Instr::CondProbe { cond, src } => write!(f, "ConditionProbe({cond}, r{src})"),
            Instr::DecisionEval { decision, conds, outcome } => {
                write!(f, "DecisionEval({decision}, {} conds, r{outcome})", conds.len())
            }
            Instr::Assert { id, cond } => write!(f, "assert({id}, r{cond})"),
            Instr::If { cond, then_body, else_body } => write!(
                f,
                "if r{cond} {{ {} instrs }} else {{ {} instrs }}",
                then_body.len(),
                else_body.len()
            ),
        }
    }
}

impl Instr {
    /// The register this instruction writes, if any. An `If` writes only
    /// through its arms, which are bodies of their own.
    #[inline]
    pub(crate) fn dst(&self) -> Option<Reg> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Input { dst, .. }
            | Instr::Unop { dst, .. }
            | Instr::Binop { dst, .. }
            | Instr::Call { dst, .. }
            | Instr::CastSat { dst, .. }
            | Instr::LoadState { dst, .. }
            | Instr::Lookup1 { dst, .. }
            | Instr::Lookup2 { dst, .. } => Some(*dst),
            Instr::Output { .. }
            | Instr::StoreState { .. }
            | Instr::ShiftState { .. }
            | Instr::Probe { .. }
            | Instr::CondProbe { .. }
            | Instr::DecisionEval { .. }
            | Instr::Assert { .. }
            | Instr::If { .. } => None,
        }
    }

    /// Calls `f` on every register this instruction reads. An `If` reads
    /// its condition here; its arms are bodies of their own.
    #[inline]
    pub(crate) fn for_each_read(&self, mut f: impl FnMut(Reg)) {
        match self {
            Instr::Const { .. } | Instr::Input { .. } | Instr::LoadState { .. } => {}
            Instr::Probe { .. } => {}
            Instr::Copy { src, .. }
            | Instr::Output { src, .. }
            | Instr::Unop { src, .. }
            | Instr::CastSat { src, .. }
            | Instr::StoreState { src, .. }
            | Instr::ShiftState { src, .. }
            | Instr::Lookup1 { src, .. }
            | Instr::CondProbe { src, .. } => f(*src),
            Instr::Binop { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Instr::Lookup2 { row, col, .. } => {
                f(*row);
                f(*col);
            }
            Instr::Call { args, .. } => args.iter().copied().for_each(f),
            Instr::DecisionEval { conds, outcome, .. } => {
                conds.iter().copied().for_each(&mut f);
                f(*outcome);
            }
            Instr::Assert { cond, .. } | Instr::If { cond, .. } => f(*cond),
        }
    }
}

/// The registers a tick of `body` can read before writing them: their
/// value is carried over from the previous tick, so a checkpoint of the
/// execution must hold them beside the state plane. `preloaded` registers
/// (hoisted constants, never written by the body) are excluded. A write in
/// only one arm of an `If` does not count as a write after it. Returns the
/// registers in ascending order.
pub(crate) fn carried_regs(
    body: &[Instr],
    num_regs: usize,
    preloaded: impl IntoIterator<Item = Reg>,
) -> Vec<Reg> {
    /// Register sets as bit words: a body's `If`s each copy one.
    type Set = Vec<u64>;
    fn has(set: &[u64], r: Reg) -> bool {
        set[r as usize / 64] >> (r % 64) & 1 != 0
    }
    fn add(set: &mut [u64], r: Reg) {
        set[r as usize / 64] |= 1 << (r % 64);
    }
    fn scan(body: &[Instr], written: &mut Set, carried: &mut Set) {
        for instr in body {
            instr.for_each_read(|r| {
                if !has(written, r) {
                    add(carried, r);
                }
            });
            if let Instr::If { then_body, else_body, .. } = instr {
                let mut then_written = written.clone();
                scan(then_body, &mut then_written, carried);
                scan(else_body, written, carried);
                for (w, t) in written.iter_mut().zip(then_written) {
                    *w &= t;
                }
            } else if let Some(dst) = instr.dst() {
                add(written, dst);
            }
        }
    }
    let mut written = vec![0; num_regs.div_ceil(64)];
    let mut carried = written.clone();
    scan(body, &mut written, &mut carried);
    for r in preloaded {
        carried[r as usize / 64] &= !(1 << (r % 64));
    }
    (0..num_regs as Reg).filter(|&r| has(&carried, r)).collect()
}

/// Counts instructions in a body, recursing into `If` arms (used by tests
/// and diagnostics).
pub(crate) fn instr_count(body: &[Instr]) -> usize {
    body.iter()
        .map(|i| match i {
            Instr::If { then_body, else_body, .. } => {
                1 + instr_count(then_body) + instr_count(else_body)
            }
            _ => 1,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_semantics() {
        assert_eq!(BinopCode::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinopCode::Rem.apply(-7.0, 3.0), -1.0);
        assert_eq!(BinopCode::Lt.apply(1.0, 2.0), 1.0);
        assert_eq!(BinopCode::Lt.apply(2.0, 2.0), 0.0);
        assert_eq!(BinopCode::And.apply(2.0, -1.0), 1.0);
        assert_eq!(BinopCode::And.apply(2.0, 0.0), 0.0);
        assert_eq!(BinopCode::Or.apply(0.0, 0.0), 0.0);
        assert_eq!(BinopCode::Div.apply(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn relational_predicate_matches_compare_semantics() {
        use BinopCode::*;
        for op in [Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne, And, Or] {
            let expected = matches!(op, Lt | Le | Gt | Ge | Eq | Ne);
            assert_eq!(op.is_relational(), expected, "{op:?}");
        }
        // And/Or are boolean combiners, not comparisons: they never fire
        // the TORC hook, so they must not be classified relational.
        assert!(!And.is_relational());
        assert!(!Or.is_relational());
    }

    #[test]
    fn func_codes_resolve_and_apply() {
        let abs = FuncCode::from_builtin_name("abs").unwrap();
        assert_eq!(abs.apply(&[-3.0]), 3.0);
        assert_eq!(abs.name(), "abs");
        let min = FuncCode::from_builtin_name("min").unwrap();
        assert_eq!(min.apply(&[4.0, 2.0]), 2.0);
        assert!(FuncCode::from_builtin_name("bogus").is_none());
        let sq = FuncCode::Math(cftcg_model::MathFunc::Square);
        assert_eq!(sq.apply(&[5.0]), 25.0);
        assert_eq!(sq.name(), "square");
    }

    #[test]
    fn instr_display_is_nonempty() {
        let instrs = vec![
            Instr::Const { dst: 0, value: 1.5 },
            Instr::Binop { dst: 1, op: BinopCode::Mul, lhs: 0, rhs: 0 },
            Instr::If { cond: 1, then_body: vec![], else_body: vec![] },
        ];
        for i in &instrs {
            assert!(!i.to_string().is_empty());
        }
    }

    #[test]
    fn instr_count_recurses() {
        let body = vec![
            Instr::Const { dst: 0, value: 0.0 },
            Instr::If {
                cond: 0,
                then_body: vec![Instr::Const { dst: 1, value: 1.0 }],
                else_body: vec![
                    Instr::Const { dst: 1, value: 2.0 },
                    Instr::Const { dst: 2, value: 3.0 },
                ],
            },
        ];
        assert_eq!(instr_count(&body), 5);
    }

    #[test]
    fn carried_regs_are_read_before_a_dominating_write() {
        let body = vec![
            Instr::Input { dst: 0, index: 0 },
            // r1 is read before anything writes it: carried.
            Instr::Binop { dst: 2, op: BinopCode::Add, lhs: 0, rhs: 1 },
            Instr::Const { dst: 1, value: 1.0 },
            Instr::If {
                cond: 2,
                // r3 is written in both arms, r4 only in one.
                then_body: vec![Instr::Copy { dst: 3, src: 0 }, Instr::Copy { dst: 4, src: 0 }],
                else_body: vec![Instr::Copy { dst: 3, src: 2 }],
            },
            Instr::Output { index: 0, src: 3 },
            Instr::Output { index: 1, src: 4 },
            // r5 is read but preloaded (a hoisted constant).
            Instr::Output { index: 2, src: 5 },
        ];
        assert_eq!(carried_regs(&body, 6, []), vec![1, 4, 5]);
        assert_eq!(carried_regs(&body, 6, [5]), vec![1, 4]);
    }
}
