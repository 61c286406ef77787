//! Model compilation: the paper's "Schedule Convert" + "Code Synthesis"
//! stages, with branch instrumentation woven in.
//!
//! A model compiles to one linear step program per top-level iteration:
//!
//! 1. a *prologue* publishing delay-class state as this step's outputs,
//! 2. every block in deterministic schedule order, instrumented,
//! 3. an *epilogue* absorbing this step's inputs into delay state.
//!
//! Subsystems compile recursively; conditionally-executed subsystems wrap
//! their region in `If (action) { ... }` with held-output state slots —
//! exactly the shape Simulink's own coder produces.

use std::error::Error;
use std::fmt;

use cftcg_coverage::{InstrumentationMap, MapBuilder};
use cftcg_model::expr::{exec_stmts, ExprEnv, MapEnv};
use cftcg_model::{
    BlockKind, DataType, EdgeKind, InputSign, LogicOp, MinMaxOp, Model, ModelError, PortRef,
    ProductOp, SwitchCriterion,
};

use crate::flatten::{flatten, FlatProgram};
use crate::ir::{BinopCode, FuncCode, Instr, Reg, UnopCode};
use crate::layout::TupleLayout;
use crate::lower::{lower_decision, lower_stmts, Scope};
use crate::opt::{optimize, OptStats};

/// Error produced by [`compile`].
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The model failed validation or structural analysis.
    Model(ModelError),
    /// A chart's initial-state entry action could not be evaluated at
    /// compile time (it may only reference chart variables and outputs).
    ChartInit {
        /// The chart block's path.
        block: String,
        /// The evaluation failure.
        detail: String,
    },
    /// The optimized program does not fit the flat encoding's 16-bit
    /// operands (a register, constant-pool, state-slot, port, id or jump
    /// index above 65 535).
    Encoding {
        /// Which operand overflowed, e.g. `"register operand"`.
        what: &'static str,
        /// The index that did not fit.
        value: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Model(e) => write!(f, "cannot compile model: {e}"),
            CompileError::ChartInit { block, detail } => {
                write!(f, "cannot initialize chart `{block}`: {detail}")
            }
            CompileError::Encoding { what, value } => {
                write!(f, "{what} {value} exceeds the flat encoding's u16 width")
            }
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Model(e) => Some(e),
            CompileError::ChartInit { .. } | CompileError::Encoding { .. } => None,
        }
    }
}

impl From<ModelError> for CompileError {
    fn from(e: ModelError) -> Self {
        CompileError::Model(e)
    }
}

/// A 2-D lookup table: row breakpoints, column breakpoints, value grid.
pub type Lookup2Table = (Vec<f64>, Vec<f64>, Vec<Vec<f64>>);

/// One entry of the compiled signal table: a block output port, its
/// hierarchical name, resolved data type, and the dedicated register that
/// carries its value after every tick.
///
/// `compile_region` allocates one register per block output port up front
/// and every block arm finishes by writing its (cast) outputs there, so the
/// register file doubles as a free signal probe surface: reading
/// [`Executor::reg`](crate::Executor::reg) after a tick observes the port's
/// current value with hold semantics identical to the interpreter's
/// persistent signal store — no extra instructions are emitted for tracing.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalMeta {
    /// Hierarchical signal name: `model/…/block:port`.
    pub name: String,
    /// The port's resolved output data type.
    pub dtype: DataType,
    /// Register holding the port's value after each tick.
    pub reg: Reg,
}

/// A compiled, instrumented model: the reproduction's "generated fuzz code".
///
/// Compilation runs the full back half: lowering produces the *reference*
/// structured program, the mid-end optimizes it, and the back-end lowers
/// the optimized tree to the flat jump-threaded form the production VM
/// executes. Both the optimized tree (for emission/inspection) and the
/// unoptimized reference (for the differential baseline) are carried.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    pub(crate) name: String,
    /// The optimized structured program, in the compacted register space.
    pub(crate) program: Vec<Instr>,
    /// The unoptimized program exactly as lowered — the reference walker's
    /// input and the optimizer's semantic baseline.
    pub(crate) reference: Vec<Instr>,
    /// Register-file size of the reference program (pre-compaction).
    pub(crate) reference_regs: usize,
    /// Signal table in the reference register space.
    pub(crate) reference_signals: Vec<SignalMeta>,
    /// The flat encoding of `program` (probes included).
    pub(crate) flat: FlatProgram,
    /// Per-pass mid-end accounting.
    pub(crate) opt_stats: OptStats,
    pub(crate) map: InstrumentationMap,
    pub(crate) layout: TupleLayout,
    pub(crate) state_init: Vec<f64>,
    pub(crate) num_regs: usize,
    pub(crate) input_types: Vec<DataType>,
    pub(crate) output_types: Vec<DataType>,
    pub(crate) tables1: Vec<(Vec<f64>, Vec<f64>)>,
    pub(crate) tables2: Vec<Lookup2Table>,
    pub(crate) signals: Vec<SignalMeta>,
    /// Lazily JIT-compiled native code for this instance. Clones restart
    /// empty (the machine code embeds instance-owned addresses).
    #[cfg(cftcg_jit)]
    pub(crate) jit: crate::jit::JitCache,
}

impl CompiledModel {
    /// The compiled model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instrumentation table produced by branch instrumentation.
    pub fn map(&self) -> &InstrumentationMap {
        &self.map
    }

    /// The fuzz driver's tuple layout (Section 3.1.1).
    pub fn layout(&self) -> &TupleLayout {
        &self.layout
    }

    /// The optimized step program (for emission and inspection) — the tree
    /// the flat engine's encoding was lowered from, in the compacted
    /// register space of [`CompiledModel::signals`].
    pub fn program(&self) -> &[Instr] {
        &self.program
    }

    /// The unoptimized step program exactly as lowered — what the
    /// reference tree walker ([`crate::Executor::new_reference`]) runs.
    pub fn reference_program(&self) -> &[Instr] {
        &self.reference
    }

    /// The signal table in the reference (pre-compaction) register space,
    /// for probing a reference executor. Same names/order/types as
    /// [`CompiledModel::signals`]; only the register indices differ.
    pub fn reference_signals(&self) -> &[SignalMeta] {
        &self.reference_signals
    }

    /// Mid-end pass accounting: instruction and register counts before and
    /// after each optimization pass.
    pub fn opt_stats(&self) -> &OptStats {
        &self.opt_stats
    }

    /// Number of flat ops the production dispatch loop executes over
    /// (jumps included), and how many of them emit at least one recorder
    /// event.
    pub fn flat_lens(&self) -> (usize, usize) {
        (self.flat.len(), self.flat.ops.iter().filter(|op| op.records()).count())
    }

    /// Static opcode histogram of the instrumented flat program, sorted by
    /// descending count — the tuning diagnostic behind the back-end's
    /// fusion choices (which op shapes are worth a dedicated opcode).
    pub fn flat_histogram(&self) -> Vec<(&'static str, usize)> {
        histogram(self.flat.ops.iter().map(crate::flatten::op_name))
    }

    /// Static adjacent-pair histogram of the instrumented flat program —
    /// the companion diagnostic to [`CompiledModel::flat_histogram`] for
    /// spotting fusion candidates.
    pub fn flat_pair_histogram(&self) -> Vec<(String, usize)> {
        use crate::flatten::op_name;
        histogram(
            self.flat.ops.windows(2).map(|w| format!("{}+{}", op_name(&w[0]), op_name(&w[1]))),
        )
    }

    /// Declared inport types, in port order.
    pub fn input_types(&self) -> &[DataType] {
        &self.input_types
    }

    /// Resolved outport types, in port order.
    pub fn output_types(&self) -> &[DataType] {
        &self.output_types
    }

    /// Number of state slots.
    pub fn state_len(&self) -> usize {
        self.state_init.len()
    }

    /// Total instruction count (recursing into branches).
    pub fn instr_count(&self) -> usize {
        crate::ir::instr_count(&self.program)
    }

    /// The signal table: every block output port in schedule order, with
    /// subsystem-inner signals preceding their container's own ports. The
    /// enumeration order and naming match
    /// `cftcg_sim::Simulator::signals` exactly, which is what lets the
    /// divergence auditor compare the two engines index-by-index.
    pub fn signals(&self) -> &[SignalMeta] {
        &self.signals
    }

    /// The lazily JIT-compiled native code for this model, or `None` when
    /// compilation is unavailable (non-x86-64, feature off, executable
    /// pages refused).
    #[cfg(cftcg_jit)]
    pub(crate) fn jit_program(&self) -> Option<&crate::jit::JitProgram> {
        self.jit.get_or_compile(self)
    }

    /// Native code-size accounting for the JIT tier: bytes emitted and
    /// straight-line block count of the compiled program. `None` when
    /// the JIT is unavailable on this build/host. Triggers JIT compilation
    /// on first call.
    pub fn jit_stats(&self) -> Option<crate::JitStats> {
        #[cfg(cftcg_jit)]
        {
            self.jit_program().map(|p| p.stats())
        }
        #[cfg(not(cftcg_jit))]
        {
            None
        }
    }
}

/// Counts each key, sorted by descending count, then key.
fn histogram<K: Ord + std::hash::Hash>(keys: impl Iterator<Item = K>) -> Vec<(K, usize)> {
    let mut counts: std::collections::HashMap<K, usize> = std::collections::HashMap::new();
    for key in keys {
        *counts.entry(key).or_default() += 1;
    }
    let mut v: Vec<_> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// The mutable compilation context shared across regions.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ctx {
    pub next_reg: Reg,
    pub state_init: Vec<f64>,
    pub map: MapBuilder,
    pub tables1: Vec<(Vec<f64>, Vec<f64>)>,
    pub tables2: Vec<Lookup2Table>,
    pub signals: Vec<SignalMeta>,
}

impl Ctx {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh register.
    pub fn reg(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    /// Allocates a state slot with an initial value.
    pub fn slot(&mut self, init: f64) -> usize {
        self.state_init.push(init);
        self.state_init.len() - 1
    }

    fn const_reg(&mut self, body: &mut Vec<Instr>, value: f64) -> Reg {
        let dst = self.reg();
        body.push(Instr::Const { dst, value });
        dst
    }

    fn unop(&mut self, body: &mut Vec<Instr>, op: UnopCode, src: Reg) -> Reg {
        let dst = self.reg();
        body.push(Instr::Unop { dst, op, src });
        dst
    }

    fn binop(&mut self, body: &mut Vec<Instr>, op: BinopCode, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.reg();
        body.push(Instr::Binop { dst, op, lhs, rhs });
        dst
    }

    fn cast(&mut self, body: &mut Vec<Instr>, src: Reg, ty: DataType) -> Reg {
        if ty == DataType::F64 {
            return src;
        }
        let dst = self.reg();
        body.push(Instr::CastSat { dst, src, ty });
        dst
    }

    /// Instruments a single-condition decision (Switch control, threshold
    /// checks, activation conditions, ...): condition probe, MCDC record,
    /// and outcome probes. Returns the outcome register unchanged.
    fn single_cond_decision(
        &mut self,
        body: &mut Vec<Instr>,
        cond: Reg,
        label: &str,
        true_label: &str,
        false_label: &str,
    ) -> Reg {
        self.single_cond_decision_with(body, cond, label, true_label, false_label, true)
    }

    /// Like [`Ctx::single_cond_decision`] but for decisions that compile
    /// *branchless* under `-O2` (comparisons, edge detection, min/max), so a
    /// code-level fuzzer gets no feedback from them.
    fn single_cond_branchless_decision(
        &mut self,
        body: &mut Vec<Instr>,
        cond: Reg,
        label: &str,
        true_label: &str,
        false_label: &str,
    ) -> Reg {
        self.single_cond_decision_with(body, cond, label, true_label, false_label, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn single_cond_decision_with(
        &mut self,
        body: &mut Vec<Instr>,
        cond: Reg,
        label: &str,
        true_label: &str,
        false_label: &str,
        code_level: bool,
    ) -> Reg {
        let decision = if code_level {
            self.map.begin_decision(label)
        } else {
            self.map.begin_branchless_decision(label)
        };
        let c = self.map.add_condition(decision, label.to_string());
        body.push(Instr::CondProbe { cond: c, src: cond });
        body.push(Instr::DecisionEval { decision, conds: vec![cond], outcome: cond });
        let t = self.map.add_outcome(decision, format!("{label}: {true_label}"));
        let f = self.map.add_outcome(decision, format!("{label}: {false_label}"));
        body.push(Instr::If {
            cond,
            then_body: vec![Instr::Probe { branch: t }],
            else_body: vec![Instr::Probe { branch: f }],
        });
        cond
    }
}

/// Compiles a validated model into an instrumented step program.
///
/// # Errors
///
/// Returns [`CompileError::Model`] when validation fails,
/// [`CompileError::ChartInit`] when a chart's initial entry action cannot be
/// evaluated at compile time, or [`CompileError::Encoding`] when the model
/// is too large for the flat VM's 16-bit operand encoding.
pub fn compile(model: &Model) -> Result<CompiledModel, CompileError> {
    model.validate()?;
    let mut ctx = Ctx::new();
    let mut body = Vec::new();

    // Top-level inputs: one raw register per inport, cast at the Inport
    // blocks themselves.
    let inports = model.inports();
    let mut input_regs = Vec::with_capacity(inports.len());
    let mut input_types = Vec::with_capacity(inports.len());
    for (_, index, dtype) in &inports {
        let dst = ctx.reg();
        body.push(Instr::Input { dst, index: *index });
        input_regs.push(dst);
        input_types.push(*dtype);
    }

    let out_regs = compile_region(&mut ctx, &mut body, model, &input_regs, model.name())?;

    let types = model.resolve_types()?;
    let mut output_types = Vec::new();
    for ((id, index), src) in model.outports().into_iter().zip(&out_regs) {
        body.push(Instr::Output { index, src: *src });
        let driver =
            model.source_of(PortRef::new(id, 0)).expect("validated outports are connected");
        output_types.push(types.output_type(driver));
    }

    // The compiler back half: mid-end passes over the lowered tree, then
    // flat lowering for the production VM. The unoptimized tree is kept as
    // the reference engine's program and differential baseline.
    let reference = body;
    let reference_regs = ctx.next_reg as usize;
    let reference_signals = ctx.signals;
    let opt = optimize(&reference, reference_regs, &reference_signals);
    // Signal registers are observable between ticks (`Executor::reg` is
    // the tracing layer's probe surface), so conditional constant hoisting
    // must leave them materialized in the body.
    let observed: std::collections::HashSet<_> = opt.signals.iter().map(|s| s.reg).collect();
    let flat = flatten(&opt.program, &observed)?;

    Ok(CompiledModel {
        name: model.name().to_string(),
        program: opt.program,
        reference,
        reference_regs,
        reference_signals,
        flat,
        opt_stats: opt.stats,
        map: ctx.map.finish(),
        layout: TupleLayout::for_model(model),
        state_init: ctx.state_init,
        num_regs: opt.num_regs,
        input_types,
        output_types,
        tables1: ctx.tables1,
        tables2: ctx.tables2,
        signals: opt.signals,
        #[cfg(cftcg_jit)]
        jit: Default::default(),
    })
}

/// Compiles one model level into `body`. Returns the outport source
/// registers in port order.
fn compile_region(
    ctx: &mut Ctx,
    body: &mut Vec<Instr>,
    model: &Model,
    input_regs: &[Reg],
    path: &str,
) -> Result<Vec<Reg>, CompileError> {
    let order = model.execution_order()?;
    let types = model.resolve_types()?;
    let n = model.blocks().len();

    // Output registers per block per port, allocated up front.
    let mut port_regs: Vec<Vec<Reg>> = Vec::with_capacity(n);
    for block in model.blocks() {
        port_regs.push((0..block.kind().num_outputs()).map(|_| ctx.reg()).collect());
    }
    // Activity registers for conditionally-executed subsystems (for Merge).
    let mut activity: Vec<Option<Reg>> = vec![None; n];
    // Delay-class state slots, allocated in block order: (block, base slot).
    let mut delay_slots: Vec<(usize, usize)> = Vec::new();
    for block in model.blocks() {
        let b = block.id().index();
        match block.kind() {
            BlockKind::UnitDelay { initial } | BlockKind::Memory { initial } => {
                delay_slots.push((b, ctx.slot(initial.as_f64())));
            }
            BlockKind::Delay { steps, initial } => {
                let base = ctx.slot(initial.as_f64());
                for _ in 1..*steps {
                    ctx.slot(initial.as_f64());
                }
                delay_slots.push((b, base));
            }
            BlockKind::DiscreteIntegrator { initial, lower, upper, .. } => {
                let mut x = *initial;
                if let Some(hi) = upper {
                    x = x.min(*hi);
                }
                if let Some(lo) = lower {
                    x = x.max(*lo);
                }
                delay_slots.push((b, ctx.slot(x)));
            }
            _ => {}
        }
    }

    // Prologue: publish delay-class state.
    for &(b, base) in &delay_slots {
        body.push(Instr::LoadState { dst: port_regs[b][0], slot: base });
    }

    let input_of = |model: &Model, b: usize, port: usize| -> PortRef {
        model
            .source_of(PortRef::new(model.blocks()[b].id(), port))
            .expect("validated inputs are connected")
    };
    // Resolves the register carrying block `b`'s input `port`.
    let in_reg = |port_regs: &Vec<Vec<Reg>>, b: usize, port: usize| -> Reg {
        let src = input_of(model, b, port);
        port_regs[src.block.index()][src.port]
    };

    for id in order {
        let b = id.index();
        let block = &model.blocks()[b];
        let label = format!("{path}/{}", block.name());
        let out_ty = |port: usize| types.output_type(PortRef::new(id, port));
        match block.kind().clone() {
            // Delay-class: prologue/epilogue handle them.
            BlockKind::UnitDelay { .. }
            | BlockKind::Delay { .. }
            | BlockKind::Memory { .. }
            | BlockKind::DiscreteIntegrator { .. } => {}
            BlockKind::Inport { index, dtype } => {
                let cast = ctx.cast(body, input_regs[index], dtype);
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::Outport { .. } | BlockKind::Terminator => {}
            BlockKind::Assertion => {
                // Pass/fail decision (Simulink counts assertion coverage)
                // plus the run-time violation report.
                let raw = in_reg(&port_regs, b, 0);
                let cond = ctx.unop(body, UnopCode::Truthy, raw);
                ctx.single_cond_decision(body, cond, &label, "pass", "fail");
                let id = ctx.map.add_assertion(label.clone());
                body.push(Instr::Assert { id, cond });
            }
            BlockKind::Constant { value } => {
                body.push(Instr::Const { dst: port_regs[b][0], value: value.as_f64() });
            }
            BlockKind::Ground { .. } => {
                body.push(Instr::Const { dst: port_regs[b][0], value: 0.0 });
            }
            BlockKind::Sum { signs } => {
                let mut acc = ctx.const_reg(body, 0.0);
                for (port, sign) in signs.iter().enumerate() {
                    let x = in_reg(&port_regs, b, port);
                    let op = match sign {
                        InputSign::Plus => BinopCode::Add,
                        InputSign::Minus => BinopCode::Sub,
                    };
                    acc = ctx.binop(body, op, acc, x);
                }
                let cast = ctx.cast(body, acc, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::Product { ops } => {
                let mut acc = ctx.const_reg(body, 1.0);
                for (port, op) in ops.iter().enumerate() {
                    let x = in_reg(&port_regs, b, port);
                    let code = match op {
                        ProductOp::Mul => BinopCode::Mul,
                        ProductOp::Div => BinopCode::Div,
                    };
                    acc = ctx.binop(body, code, acc, x);
                }
                let cast = ctx.cast(body, acc, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::Gain { gain } => {
                let g = ctx.const_reg(body, gain);
                let u = in_reg(&port_regs, b, 0);
                let y = ctx.binop(body, BinopCode::Mul, g, u);
                let cast = ctx.cast(body, y, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::Bias { bias } => {
                let c = ctx.const_reg(body, bias);
                let u = in_reg(&port_regs, b, 0);
                let y = ctx.binop(body, BinopCode::Add, u, c);
                let cast = ctx.cast(body, y, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::Abs => {
                let u = in_reg(&port_regs, b, 0);
                let func = FuncCode::from_builtin_name("abs").expect("abs is a builtin");
                let dst = ctx.reg();
                body.push(Instr::Call { dst, func, args: vec![u] });
                let cast = ctx.cast(body, dst, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::UnaryMinus => {
                let u = in_reg(&port_regs, b, 0);
                let y = ctx.unop(body, UnopCode::Neg, u);
                let cast = ctx.cast(body, y, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::Signum => {
                let u = in_reg(&port_regs, b, 0);
                let zero = ctx.const_reg(body, 0.0);
                let y = ctx.reg();
                let pos = ctx.binop(body, BinopCode::Gt, u, zero);
                ctx.single_cond_decision(body, pos, &format!("{label} (u > 0)"), "pos", "not-pos");
                let mut else_body = Vec::new();
                let neg = ctx.binop(&mut else_body, BinopCode::Lt, u, zero);
                ctx.single_cond_decision(
                    &mut else_body,
                    neg,
                    &format!("{label} (u < 0)"),
                    "neg",
                    "zero",
                );
                else_body.push(Instr::If {
                    cond: neg,
                    then_body: vec![Instr::Const { dst: y, value: -1.0 }],
                    else_body: vec![Instr::Const { dst: y, value: 0.0 }],
                });
                body.push(Instr::If {
                    cond: pos,
                    then_body: vec![Instr::Const { dst: y, value: 1.0 }],
                    else_body,
                });
                let cast = ctx.cast(body, y, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::MinMax { op, inputs } => {
                let mut acc = in_reg(&port_regs, b, 0);
                for port in 1..inputs {
                    let x = in_reg(&port_regs, b, port);
                    let cmp_op = match op {
                        MinMaxOp::Min => BinopCode::Lt,
                        MinMaxOp::Max => BinopCode::Gt,
                    };
                    let take = ctx.binop(body, cmp_op, x, acc);
                    ctx.single_cond_branchless_decision(
                        body,
                        take,
                        &format!("{label} (input {port} wins)"),
                        "wins",
                        "keeps",
                    );
                    let next = ctx.reg();
                    body.push(Instr::If {
                        cond: take,
                        then_body: vec![Instr::Copy { dst: next, src: x }],
                        else_body: vec![Instr::Copy { dst: next, src: acc }],
                    });
                    acc = next;
                }
                let cast = ctx.cast(body, acc, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::Math { func } => {
                let args: Vec<Reg> = (0..func.arity()).map(|p| in_reg(&port_regs, b, p)).collect();
                let dst = ctx.reg();
                body.push(Instr::Call { dst, func: FuncCode::Math(func), args });
                body.push(Instr::Copy { dst: port_regs[b][0], src: dst });
            }
            BlockKind::Saturation { lower, upper } => {
                let u = in_reg(&port_regs, b, 0);
                let y = ctx.reg();
                let hi = ctx.const_reg(body, upper);
                let lo = ctx.const_reg(body, lower);
                let above = ctx.binop(body, BinopCode::Gt, u, hi);
                ctx.single_cond_decision(
                    body,
                    above,
                    &format!("{label} (upper limit)"),
                    "clipped",
                    "pass",
                );
                let mut else_body = Vec::new();
                let below = ctx.binop(&mut else_body, BinopCode::Lt, u, lo);
                ctx.single_cond_decision(
                    &mut else_body,
                    below,
                    &format!("{label} (lower limit)"),
                    "clipped",
                    "pass",
                );
                else_body.push(Instr::If {
                    cond: below,
                    then_body: vec![Instr::Copy { dst: y, src: lo }],
                    else_body: vec![Instr::Copy { dst: y, src: u }],
                });
                body.push(Instr::If {
                    cond: above,
                    then_body: vec![Instr::Copy { dst: y, src: hi }],
                    else_body,
                });
                let cast = ctx.cast(body, y, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::DeadZone { start, end } => {
                let u = in_reg(&port_regs, b, 0);
                let y = ctx.reg();
                let e = ctx.const_reg(body, end);
                let s = ctx.const_reg(body, start);
                let above = ctx.binop(body, BinopCode::Gt, u, e);
                ctx.single_cond_decision(
                    body,
                    above,
                    &format!("{label} (above zone)"),
                    "above",
                    "not-above",
                );
                let mut else_body = Vec::new();
                let below = ctx.binop(&mut else_body, BinopCode::Lt, u, s);
                ctx.single_cond_decision(
                    &mut else_body,
                    below,
                    &format!("{label} (below zone)"),
                    "below",
                    "inside",
                );
                let sub_lo = ctx.reg();
                else_body.push(Instr::If {
                    cond: below,
                    then_body: vec![
                        Instr::Binop { dst: sub_lo, op: BinopCode::Sub, lhs: u, rhs: s },
                        Instr::Copy { dst: y, src: sub_lo },
                    ],
                    else_body: vec![Instr::Const { dst: y, value: 0.0 }],
                });
                let sub_hi = ctx.reg();
                body.push(Instr::If {
                    cond: above,
                    then_body: vec![
                        Instr::Binop { dst: sub_hi, op: BinopCode::Sub, lhs: u, rhs: e },
                        Instr::Copy { dst: y, src: sub_hi },
                    ],
                    else_body,
                });
                let cast = ctx.cast(body, y, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::Relay { on_threshold, off_threshold, on_output, off_output } => {
                let u = in_reg(&port_regs, b, 0);
                let slot = ctx.slot(0.0);
                let on = ctx.reg();
                body.push(Instr::LoadState { dst: on, slot });
                // While on: check the switch-off threshold.
                let mut on_body = Vec::new();
                let off_t = ctx.const_reg(&mut on_body, off_threshold);
                let turn_off = ctx.binop(&mut on_body, BinopCode::Le, u, off_t);
                ctx.single_cond_decision(
                    &mut on_body,
                    turn_off,
                    &format!("{label} (switch off)"),
                    "off",
                    "stay-on",
                );
                let zero = ctx.reg();
                on_body.push(Instr::If {
                    cond: turn_off,
                    then_body: vec![
                        Instr::Const { dst: zero, value: 0.0 },
                        Instr::StoreState { slot, src: zero },
                    ],
                    else_body: vec![],
                });
                // While off: check the switch-on threshold.
                let mut off_body = Vec::new();
                let on_t = ctx.const_reg(&mut off_body, on_threshold);
                let turn_on = ctx.binop(&mut off_body, BinopCode::Ge, u, on_t);
                ctx.single_cond_decision(
                    &mut off_body,
                    turn_on,
                    &format!("{label} (switch on)"),
                    "on",
                    "stay-off",
                );
                let one = ctx.reg();
                off_body.push(Instr::If {
                    cond: turn_on,
                    then_body: vec![
                        Instr::Const { dst: one, value: 1.0 },
                        Instr::StoreState { slot, src: one },
                    ],
                    else_body: vec![],
                });
                body.push(Instr::If { cond: on, then_body: on_body, else_body: off_body });
                let now_on = ctx.reg();
                body.push(Instr::LoadState { dst: now_on, slot });
                let y = ctx.reg();
                body.push(Instr::If {
                    cond: now_on,
                    then_body: vec![Instr::Const { dst: y, value: on_output }],
                    else_body: vec![Instr::Const { dst: y, value: off_output }],
                });
                let cast = ctx.cast(body, y, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::Quantizer { interval } => {
                let u = in_reg(&port_regs, b, 0);
                let step = ctx.const_reg(body, interval);
                let ratio = ctx.binop(body, BinopCode::Div, u, step);
                let func = FuncCode::from_builtin_name("round").expect("round is a builtin");
                let rounded = ctx.reg();
                body.push(Instr::Call { dst: rounded, func, args: vec![ratio] });
                let y = ctx.binop(body, BinopCode::Mul, step, rounded);
                let cast = ctx.cast(body, y, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::RateLimiter { rising, falling } => {
                let u = in_reg(&port_regs, b, 0);
                let slot = ctx.slot(0.0);
                let prev = ctx.reg();
                body.push(Instr::LoadState { dst: prev, slot });
                let delta = ctx.binop(body, BinopCode::Sub, u, prev);
                let y = ctx.reg();
                let r = ctx.const_reg(body, rising);
                let too_fast = ctx.binop(body, BinopCode::Gt, delta, r);
                ctx.single_cond_decision(
                    body,
                    too_fast,
                    &format!("{label} (rising limit)"),
                    "limited",
                    "pass",
                );
                let mut else_body = Vec::new();
                let nf = ctx.const_reg(&mut else_body, -falling);
                let too_slow = ctx.binop(&mut else_body, BinopCode::Lt, delta, nf);
                ctx.single_cond_decision(
                    &mut else_body,
                    too_slow,
                    &format!("{label} (falling limit)"),
                    "limited",
                    "pass",
                );
                let dn = ctx.reg();
                else_body.push(Instr::If {
                    cond: too_slow,
                    then_body: vec![
                        Instr::Binop { dst: dn, op: BinopCode::Add, lhs: prev, rhs: nf },
                        Instr::Copy { dst: y, src: dn },
                    ],
                    else_body: vec![Instr::Copy { dst: y, src: u }],
                });
                let up = ctx.reg();
                body.push(Instr::If {
                    cond: too_fast,
                    then_body: vec![
                        Instr::Binop { dst: up, op: BinopCode::Add, lhs: prev, rhs: r },
                        Instr::Copy { dst: y, src: up },
                    ],
                    else_body,
                });
                body.push(Instr::StoreState { slot, src: y });
                let cast = ctx.cast(body, y, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::Backlash { width, initial } => {
                let u = in_reg(&port_regs, b, 0);
                let slot = ctx.slot(initial);
                let y = ctx.reg();
                body.push(Instr::LoadState { dst: y, slot });
                let half = ctx.const_reg(body, width / 2.0);
                let hi_edge = ctx.binop(body, BinopCode::Add, y, half);
                let push_up = ctx.binop(body, BinopCode::Gt, u, hi_edge);
                ctx.single_cond_decision(
                    body,
                    push_up,
                    &format!("{label} (upper engage)"),
                    "engaged",
                    "free",
                );
                let mut else_body = Vec::new();
                let lo_edge = ctx.binop(&mut else_body, BinopCode::Sub, y, half);
                let push_dn = ctx.binop(&mut else_body, BinopCode::Lt, u, lo_edge);
                ctx.single_cond_decision(
                    &mut else_body,
                    push_dn,
                    &format!("{label} (lower engage)"),
                    "engaged",
                    "free",
                );
                let dn = ctx.reg();
                else_body.push(Instr::If {
                    cond: push_dn,
                    then_body: vec![
                        Instr::Binop { dst: dn, op: BinopCode::Add, lhs: u, rhs: half },
                        Instr::Copy { dst: y, src: dn },
                    ],
                    else_body: vec![],
                });
                let up = ctx.reg();
                body.push(Instr::If {
                    cond: push_up,
                    then_body: vec![
                        Instr::Binop { dst: up, op: BinopCode::Sub, lhs: u, rhs: half },
                        Instr::Copy { dst: y, src: up },
                    ],
                    else_body,
                });
                body.push(Instr::StoreState { slot, src: y });
                let cast = ctx.cast(body, y, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::CoulombFriction { offset, gain } => {
                let u = in_reg(&port_regs, b, 0);
                let y = ctx.reg();
                let zero = ctx.const_reg(body, 0.0);
                let g = ctx.const_reg(body, gain);
                let c = ctx.const_reg(body, offset);
                let pos = ctx.binop(body, BinopCode::Gt, u, zero);
                ctx.single_cond_decision(body, pos, &format!("{label} (u > 0)"), "pos", "not-pos");
                let gu = ctx.reg();
                let y_pos = ctx.reg();
                let y_neg = ctx.reg();
                let mut else_body = Vec::new();
                let neg = ctx.binop(&mut else_body, BinopCode::Lt, u, zero);
                ctx.single_cond_decision(
                    &mut else_body,
                    neg,
                    &format!("{label} (u < 0)"),
                    "neg",
                    "zero",
                );
                else_body.push(Instr::If {
                    cond: neg,
                    then_body: vec![
                        Instr::Binop { dst: gu, op: BinopCode::Mul, lhs: g, rhs: u },
                        Instr::Binop { dst: y_neg, op: BinopCode::Sub, lhs: gu, rhs: c },
                        Instr::Copy { dst: y, src: y_neg },
                    ],
                    else_body: vec![Instr::Const { dst: y, value: 0.0 }],
                });
                body.push(Instr::If {
                    cond: pos,
                    then_body: vec![
                        Instr::Binop { dst: gu, op: BinopCode::Mul, lhs: g, rhs: u },
                        Instr::Binop { dst: y_pos, op: BinopCode::Add, lhs: gu, rhs: c },
                        Instr::Copy { dst: y, src: y_pos },
                    ],
                    else_body,
                });
                let cast = ctx.cast(body, y, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::Logic { op, inputs } => {
                // Mode (a): every input is a probed condition. Boolean
                // blocks compile branchless, so the decision is invisible
                // to code-level feedback (the Fuzz-Only ablation).
                let n = if op == LogicOp::Not { 1 } else { inputs };
                let decision = ctx.map.begin_branchless_decision(label.clone());
                let mut conds = Vec::with_capacity(n);
                for port in 0..n {
                    let raw = in_reg(&port_regs, b, port);
                    let c = ctx.unop(body, UnopCode::Truthy, raw);
                    let cond = ctx.map.add_condition(decision, format!("{label}: input {port}"));
                    body.push(Instr::CondProbe { cond, src: c });
                    conds.push(c);
                }
                let mut acc = conds[0];
                match op {
                    LogicOp::And | LogicOp::Nand => {
                        for &c in &conds[1..] {
                            acc = ctx.binop(body, BinopCode::And, acc, c);
                        }
                    }
                    LogicOp::Or | LogicOp::Nor => {
                        for &c in &conds[1..] {
                            acc = ctx.binop(body, BinopCode::Or, acc, c);
                        }
                    }
                    LogicOp::Xor => {
                        for &c in &conds[1..] {
                            acc = ctx.binop(body, BinopCode::Ne, acc, c);
                        }
                    }
                    LogicOp::Not => {}
                }
                let out = if matches!(op, LogicOp::Nand | LogicOp::Nor | LogicOp::Not) {
                    ctx.unop(body, UnopCode::Not, acc)
                } else {
                    acc
                };
                body.push(Instr::DecisionEval { decision, conds, outcome: out });
                let t = ctx.map.add_outcome(decision, format!("{label}: true"));
                let f = ctx.map.add_outcome(decision, format!("{label}: false"));
                body.push(Instr::If {
                    cond: out,
                    then_body: vec![Instr::Probe { branch: t }],
                    else_body: vec![Instr::Probe { branch: f }],
                });
                body.push(Instr::Copy { dst: port_regs[b][0], src: out });
            }
            BlockKind::Relational { op } => {
                let l = in_reg(&port_regs, b, 0);
                let r = in_reg(&port_regs, b, 1);
                let code = rel_to_binop(op);
                let c = ctx.binop(body, code, l, r);
                ctx.single_cond_branchless_decision(body, c, &label, "true", "false");
                body.push(Instr::Copy { dst: port_regs[b][0], src: c });
            }
            BlockKind::Compare { op, constant } => {
                let u = in_reg(&port_regs, b, 0);
                let k = ctx.const_reg(body, constant);
                let code = rel_to_binop(op);
                let c = ctx.binop(body, code, u, k);
                ctx.single_cond_branchless_decision(body, c, &label, "true", "false");
                body.push(Instr::Copy { dst: port_regs[b][0], src: c });
            }
            BlockKind::Switch { criterion } => {
                // Mode (b): one probe per data-selection branch.
                let ctrl = in_reg(&port_regs, b, 1);
                let c = match criterion {
                    SwitchCriterion::GreaterEqual(t) => {
                        let k = ctx.const_reg(body, t);
                        ctx.binop(body, BinopCode::Ge, ctrl, k)
                    }
                    SwitchCriterion::Greater(t) => {
                        let k = ctx.const_reg(body, t);
                        ctx.binop(body, BinopCode::Gt, ctrl, k)
                    }
                    SwitchCriterion::NotZero => ctx.unop(body, UnopCode::Truthy, ctrl),
                };
                ctx.single_cond_decision(body, c, &label, "pass-first", "pass-third");
                let first = in_reg(&port_regs, b, 0);
                let third = in_reg(&port_regs, b, 2);
                let y = ctx.reg();
                body.push(Instr::If {
                    cond: c,
                    then_body: vec![Instr::Copy { dst: y, src: first }],
                    else_body: vec![Instr::Copy { dst: y, src: third }],
                });
                let cast = ctx.cast(body, y, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::MultiportSwitch { cases } => {
                let sel = in_reg(&port_regs, b, 0);
                let func = FuncCode::from_builtin_name("round").expect("round is a builtin");
                let r = ctx.reg();
                body.push(Instr::Call { dst: r, func, args: vec![sel] });
                // Clamp to [1, cases]; NaN normalizes to 1.
                let one = ctx.const_reg(body, 1.0);
                let ge1 = ctx.binop(body, BinopCode::Ge, r, one);
                let not_ge1 = ctx.unop(body, UnopCode::Not, ge1);
                body.push(Instr::If {
                    cond: not_ge1,
                    then_body: vec![Instr::Copy { dst: r, src: one }],
                    else_body: vec![],
                });
                let max = ctx.const_reg(body, cases as f64);
                let too_big = ctx.binop(body, BinopCode::Gt, r, max);
                body.push(Instr::If {
                    cond: too_big,
                    then_body: vec![Instr::Copy { dst: r, src: max }],
                    else_body: vec![],
                });
                // Dispatch decision: one outcome per data input (mode b).
                let decision = ctx.map.begin_decision(label.clone());
                let outcomes: Vec<_> = (1..=cases)
                    .map(|k| ctx.map.add_outcome(decision, format!("{label}: case {k}")))
                    .collect();
                let y = ctx.reg();
                let mut chain: Vec<Instr> = vec![
                    Instr::Probe { branch: outcomes[cases - 1] },
                    Instr::Copy { dst: y, src: in_reg(&port_regs, b, cases) },
                ];
                for k in (1..cases).rev() {
                    let kk = ctx.const_reg(body, k as f64);
                    let is_k = ctx.binop(body, BinopCode::Eq, r, kk);
                    chain = vec![Instr::If {
                        cond: is_k,
                        then_body: vec![
                            Instr::Probe { branch: outcomes[k - 1] },
                            Instr::Copy { dst: y, src: in_reg(&port_regs, b, k) },
                        ],
                        else_body: chain,
                    }];
                }
                body.extend(chain);
                let cast = ctx.cast(body, y, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::Merge { inputs } => {
                let slot = ctx.slot(0.0);
                let mut chain: Vec<Instr> = Vec::new();
                for port in (0..inputs).rev() {
                    let src = input_of(model, b, port);
                    let act = activity[src.block.index()]
                        .expect("merge inputs come from already-compiled subsystems");
                    let v = in_reg(&port_regs, b, port);
                    chain = vec![Instr::If {
                        cond: act,
                        then_body: vec![Instr::StoreState { slot, src: v }],
                        else_body: chain,
                    }];
                }
                body.extend(chain);
                let raw = ctx.reg();
                body.push(Instr::LoadState { dst: raw, slot });
                let cast = ctx.cast(body, raw, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::DataTypeConversion { to } => {
                let u = in_reg(&port_regs, b, 0);
                let cast = ctx.cast(body, u, to);
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::ZeroOrderHold => {
                let u = in_reg(&port_regs, b, 0);
                body.push(Instr::Copy { dst: port_regs[b][0], src: u });
            }
            BlockKind::CounterLimited { limit } => {
                let slot = ctx.slot(0.0);
                let c = ctx.reg();
                body.push(Instr::LoadState { dst: c, slot });
                let lim = ctx.const_reg(body, f64::from(limit));
                let wrap = ctx.binop(body, BinopCode::Ge, c, lim);
                ctx.single_cond_decision(body, wrap, &format!("{label} (wrap)"), "wrap", "count");
                let zero = ctx.reg();
                let one = ctx.const_reg(body, 1.0);
                let next = ctx.reg();
                body.push(Instr::If {
                    cond: wrap,
                    then_body: vec![
                        Instr::Const { dst: zero, value: 0.0 },
                        Instr::StoreState { slot, src: zero },
                    ],
                    else_body: vec![
                        Instr::Binop { dst: next, op: BinopCode::Add, lhs: c, rhs: one },
                        Instr::StoreState { slot, src: next },
                    ],
                });
                let cast = ctx.cast(body, c, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::CounterFreeRunning { bits } => {
                let slot = ctx.slot(0.0);
                let c = ctx.reg();
                body.push(Instr::LoadState { dst: c, slot });
                let one = ctx.const_reg(body, 1.0);
                let next = ctx.binop(body, BinopCode::Add, c, one);
                let modulus = ctx.const_reg(body, (1u64 << bits.min(32)) as f64);
                let wrapped = ctx.binop(body, BinopCode::Rem, next, modulus);
                body.push(Instr::StoreState { slot, src: wrapped });
                let cast = ctx.cast(body, c, out_ty(0));
                body.push(Instr::Copy { dst: port_regs[b][0], src: cast });
            }
            BlockKind::EdgeDetect { kind } => {
                let u = in_reg(&port_regs, b, 0);
                let slot = ctx.slot(0.0);
                let curr = ctx.unop(body, UnopCode::Truthy, u);
                let prev = ctx.reg();
                body.push(Instr::LoadState { dst: prev, slot });
                let y = match kind {
                    EdgeKind::Rising => {
                        let np = ctx.unop(body, UnopCode::Not, prev);
                        ctx.binop(body, BinopCode::And, np, curr)
                    }
                    EdgeKind::Falling => {
                        let nc = ctx.unop(body, UnopCode::Not, curr);
                        ctx.binop(body, BinopCode::And, prev, nc)
                    }
                    EdgeKind::Either => ctx.binop(body, BinopCode::Ne, prev, curr),
                };
                body.push(Instr::StoreState { slot, src: curr });
                ctx.single_cond_branchless_decision(body, y, &label, "edge", "no-edge");
                body.push(Instr::Copy { dst: port_regs[b][0], src: y });
            }
            BlockKind::Lookup1D { breakpoints, values } => {
                let u = in_reg(&port_regs, b, 0);
                let table = ctx.tables1.len();
                ctx.tables1.push((breakpoints, values));
                body.push(Instr::Lookup1 { dst: port_regs[b][0], src: u, table });
            }
            BlockKind::Lookup2D { row_breaks, col_breaks, values } => {
                let r = in_reg(&port_regs, b, 0);
                let c = in_reg(&port_regs, b, 1);
                let table = ctx.tables2.len();
                ctx.tables2.push((row_breaks, col_breaks, values));
                body.push(Instr::Lookup2 { dst: port_regs[b][0], row: r, col: c, table });
            }
            BlockKind::If { num_inputs, conditions, has_else } => {
                // Mode (c): the action dispatch is a multi-outcome decision;
                // each condition expression is additionally its own boolean
                // decision, evaluated lazily exactly like the generated C.
                let mut scope = Scope::new();
                for port in 0..num_inputs {
                    scope.bind_reg(&format!("u{}", port + 1), in_reg(&port_regs, b, port), None);
                }
                let dispatch = ctx.map.begin_decision(format!("{label} (action)"));
                let n_out = conditions.len() + usize::from(has_else);
                let outcomes: Vec<_> = (0..n_out)
                    .map(|i| {
                        let what = if i < conditions.len() {
                            format!("action {i}")
                        } else {
                            "else action".to_string()
                        };
                        ctx.map.add_outcome(dispatch, format!("{label}: {what}"))
                    })
                    .collect();
                for &dst in port_regs[b].iter().take(n_out) {
                    body.push(Instr::Const { dst, value: 0.0 });
                }
                let mut chain: Vec<Instr> = if has_else {
                    vec![
                        Instr::Probe { branch: outcomes[conditions.len()] },
                        Instr::Const { dst: port_regs[b][conditions.len()], value: 1.0 },
                    ]
                } else {
                    Vec::new()
                };
                for (i, cond_expr) in conditions.iter().enumerate().rev() {
                    let mut arm = Vec::new();
                    let c = lower_decision(
                        ctx,
                        &mut arm,
                        &scope,
                        cond_expr,
                        &format!("{label} (condition {i})"),
                    );
                    arm.push(Instr::If {
                        cond: c,
                        then_body: vec![
                            Instr::Probe { branch: outcomes[i] },
                            Instr::Const { dst: port_regs[b][i], value: 1.0 },
                        ],
                        else_body: chain,
                    });
                    chain = arm;
                }
                body.extend(chain);
            }
            BlockKind::SwitchCase { cases, has_default } => {
                let sel_raw = in_reg(&port_regs, b, 0);
                let func = FuncCode::from_builtin_name("round").expect("round is a builtin");
                let sel = ctx.reg();
                body.push(Instr::Call { dst: sel, func, args: vec![sel_raw] });
                let dispatch = ctx.map.begin_decision(format!("{label} (case)"));
                let n_out = cases.len() + usize::from(has_default);
                let outcomes: Vec<_> = (0..n_out)
                    .map(|i| {
                        let what = if i < cases.len() {
                            format!("case {:?}", cases[i])
                        } else {
                            "default".to_string()
                        };
                        ctx.map.add_outcome(dispatch, format!("{label}: {what}"))
                    })
                    .collect();
                for &dst in port_regs[b].iter().take(n_out) {
                    body.push(Instr::Const { dst, value: 0.0 });
                }
                let mut chain: Vec<Instr> = if has_default {
                    vec![
                        Instr::Probe { branch: outcomes[cases.len()] },
                        Instr::Const { dst: port_regs[b][cases.len()], value: 1.0 },
                    ]
                } else {
                    Vec::new()
                };
                for (i, labels) in cases.iter().enumerate().rev() {
                    let mut arm = Vec::new();
                    let mut hit: Option<Reg> = None;
                    for &l in labels {
                        let k = ctx.const_reg(&mut arm, l as f64);
                        let eq = ctx.binop(&mut arm, BinopCode::Eq, sel, k);
                        hit = Some(match hit {
                            None => eq,
                            Some(prev) => ctx.binop(&mut arm, BinopCode::Or, prev, eq),
                        });
                    }
                    let hit = hit.expect("validated cases are non-empty");
                    arm.push(Instr::If {
                        cond: hit,
                        then_body: vec![
                            Instr::Probe { branch: outcomes[i] },
                            Instr::Const { dst: port_regs[b][i], value: 1.0 },
                        ],
                        else_body: chain,
                    });
                    chain = arm;
                }
                body.extend(chain);
            }
            BlockKind::ActionSubsystem { model: inner } => {
                let act = in_reg(&port_regs, b, 0);
                compile_conditional_subsystem(
                    ctx, body, &inner, b, act, &port_regs, model, &label,
                )?;
                activity[b] = Some(act);
            }
            BlockKind::EnabledSubsystem { model: inner } => {
                let raw = in_reg(&port_regs, b, 0);
                let act = ctx.unop(body, UnopCode::Truthy, raw);
                ctx.single_cond_decision(
                    body,
                    act,
                    &format!("{label} (enable)"),
                    "enabled",
                    "disabled",
                );
                compile_conditional_subsystem(
                    ctx, body, &inner, b, act, &port_regs, model, &label,
                )?;
                activity[b] = Some(act);
            }
            BlockKind::TriggeredSubsystem { model: inner, edge } => {
                let raw = in_reg(&port_regs, b, 0);
                let trig = ctx.unop(body, UnopCode::Truthy, raw);
                let slot = ctx.slot(0.0);
                let prev = ctx.reg();
                body.push(Instr::LoadState { dst: prev, slot });
                let act = match edge {
                    EdgeKind::Rising => {
                        let np = ctx.unop(body, UnopCode::Not, prev);
                        ctx.binop(body, BinopCode::And, np, trig)
                    }
                    EdgeKind::Falling => {
                        let nt = ctx.unop(body, UnopCode::Not, trig);
                        ctx.binop(body, BinopCode::And, prev, nt)
                    }
                    EdgeKind::Either => ctx.binop(body, BinopCode::Ne, prev, trig),
                };
                body.push(Instr::StoreState { slot, src: trig });
                ctx.single_cond_decision(body, act, &format!("{label} (trigger)"), "fired", "idle");
                compile_conditional_subsystem(
                    ctx, body, &inner, b, act, &port_regs, model, &label,
                )?;
                activity[b] = Some(act);
            }
            BlockKind::Subsystem { model: inner } => {
                let data: Vec<Reg> =
                    (0..inner.num_inports()).map(|i| in_reg(&port_regs, b, i)).collect();
                let outs = compile_region(ctx, body, &inner, &data, &label)?;
                for (port, src) in outs.into_iter().enumerate() {
                    body.push(Instr::Copy { dst: port_regs[b][port], src });
                }
            }
            BlockKind::MatlabFunction { function } => {
                let mut scope = Scope::new();
                for (port, (name, ty)) in function.inputs().iter().enumerate() {
                    let raw = in_reg(&port_regs, b, port);
                    let cast = ctx.cast(body, raw, *ty);
                    scope.bind_reg(name, cast, Some(*ty));
                }
                for (name, ty) in function.outputs() {
                    let r = ctx.reg();
                    body.push(Instr::Const { dst: r, value: 0.0 });
                    scope.bind_reg(name, r, Some(*ty));
                }
                lower_stmts(ctx, body, &mut scope, function.body(), &label);
                for (port, (name, _)) in function.outputs().iter().enumerate() {
                    let binding = scope.get(name).expect("outputs pre-bound");
                    let src = match binding.place {
                        crate::lower::Place::Reg(r) => r,
                        crate::lower::Place::Slot(_) => unreachable!("outputs are registers"),
                    };
                    let cast = ctx.cast(body, src, out_ty(port));
                    body.push(Instr::Copy { dst: port_regs[b][port], src: cast });
                }
            }
            BlockKind::Chart { chart } => {
                compile_chart(ctx, body, &chart, b, &port_regs, model, &label, &types)?;
            }
            other => unreachable!("unhandled block kind {}", other.tag()),
        }
        // Signal table entries for this block's output ports. Recursive
        // `compile_region` calls inside the arm above have already pushed
        // the inner region's signals, so a container's own ports always
        // follow its children — the same order the interpreter enumerates.
        for (port, &reg) in port_regs[b].iter().enumerate() {
            ctx.signals.push(SignalMeta {
                name: format!("{label}:{port}"),
                dtype: out_ty(port),
                reg,
            });
        }
    }

    // Epilogue: delay-class state updates.
    for &(b, base) in &delay_slots {
        let u = in_reg(&port_regs, b, 0);
        match model.blocks()[b].kind() {
            BlockKind::UnitDelay { initial } | BlockKind::Memory { initial } => {
                let cast = ctx.cast(body, u, initial.data_type());
                body.push(Instr::StoreState { slot: base, src: cast });
            }
            BlockKind::Delay { steps, initial } => {
                let cast = ctx.cast(body, u, initial.data_type());
                body.push(Instr::ShiftState { base, len: *steps, src: cast });
            }
            BlockKind::DiscreteIntegrator { gain, lower, upper, .. } => {
                let label = format!("{path}/{}", model.blocks()[b].name());
                let x = ctx.reg();
                body.push(Instr::LoadState { dst: x, slot: base });
                let g = ctx.const_reg(body, *gain);
                let gu = ctx.binop(body, BinopCode::Mul, g, u);
                let next = ctx.binop(body, BinopCode::Add, x, gu);
                if let Some(hi) = upper {
                    let k = ctx.const_reg(body, *hi);
                    let over = ctx.binop(body, BinopCode::Gt, next, k);
                    ctx.single_cond_decision(
                        body,
                        over,
                        &format!("{label} (upper limit)"),
                        "clipped",
                        "pass",
                    );
                    body.push(Instr::If {
                        cond: over,
                        then_body: vec![Instr::Copy { dst: next, src: k }],
                        else_body: vec![],
                    });
                }
                if let Some(lo) = lower {
                    let k = ctx.const_reg(body, *lo);
                    let under = ctx.binop(body, BinopCode::Lt, next, k);
                    ctx.single_cond_decision(
                        body,
                        under,
                        &format!("{label} (lower limit)"),
                        "clipped",
                        "pass",
                    );
                    body.push(Instr::If {
                        cond: under,
                        then_body: vec![Instr::Copy { dst: next, src: k }],
                        else_body: vec![],
                    });
                }
                body.push(Instr::StoreState { slot: base, src: next });
            }
            other => unreachable!("delay-class kind {}", other.tag()),
        }
    }

    // Collect outport sources.
    let mut outs = Vec::new();
    for (id, _) in model.outports() {
        let src = model.source_of(PortRef::new(id, 0)).expect("validated outports are connected");
        outs.push(port_regs[src.block.index()][src.port]);
    }
    Ok(outs)
}

/// Compiles a conditionally-executed subsystem: `If (act) { region; hold }`.
#[allow(clippy::too_many_arguments)]
fn compile_conditional_subsystem(
    ctx: &mut Ctx,
    body: &mut Vec<Instr>,
    inner: &Model,
    b: usize,
    act: Reg,
    port_regs: &[Vec<Reg>],
    model: &Model,
    label: &str,
) -> Result<(), CompileError> {
    let data: Vec<Reg> = (0..inner.num_inports())
        .map(|i| {
            let src = model
                .source_of(PortRef::new(model.blocks()[b].id(), 1 + i))
                .expect("validated inputs are connected");
            port_regs[src.block.index()][src.port]
        })
        .collect();
    let held: Vec<usize> = (0..inner.num_outports()).map(|_| ctx.slot(0.0)).collect();
    let mut region = Vec::new();
    let outs = compile_region(ctx, &mut region, inner, &data, label)?;
    for (slot, src) in held.iter().zip(outs) {
        region.push(Instr::StoreState { slot: *slot, src });
    }
    body.push(Instr::If { cond: act, then_body: region, else_body: vec![] });
    for (port, slot) in held.into_iter().enumerate() {
        body.push(Instr::LoadState { dst: port_regs[b][port], slot });
    }
    Ok(())
}

/// Compiles a chart block: state dispatch decision + guarded transitions +
/// instrumented actions.
#[allow(clippy::too_many_arguments)]
fn compile_chart(
    ctx: &mut Ctx,
    body: &mut Vec<Instr>,
    chart: &cftcg_model::Chart,
    b: usize,
    port_regs: &[Vec<Reg>],
    model: &Model,
    label: &str,
    types: &cftcg_model::TypeMap,
) -> Result<(), CompileError> {
    // Compile-time initial environment: chart variables + outputs after the
    // initial state's entry action (mirrors the interpreter's init).
    let mut env = MapEnv::new();
    for (name, _, init) in &chart.variables {
        env.set(name, *init);
    }
    for (name, ty) in &chart.outputs {
        env.set(name, ty.zero());
    }
    exec_stmts(&chart.states[chart.initial].entry, &mut env)
        .map_err(|e| CompileError::ChartInit { block: label.to_string(), detail: e.to_string() })?;

    let active_slot = ctx.slot(chart.initial as f64);
    let mut scope = Scope::new();
    for (port, (name, ty)) in chart.inputs.iter().enumerate() {
        let src = model
            .source_of(PortRef::new(model.blocks()[b].id(), port))
            .expect("validated inputs are connected");
        let raw = port_regs[src.block.index()][src.port];
        let cast = ctx.cast(body, raw, *ty);
        scope.bind_reg(name, cast, Some(*ty));
    }
    for (name, ty, _) in &chart.variables {
        let init = env.get(name).expect("seeded above").as_f64();
        let slot = ctx.slot(init);
        scope.bind_slot(name, slot, *ty);
    }
    let mut out_slots = Vec::new();
    for (name, ty) in &chart.outputs {
        let init = env.get(name).expect("seeded above").as_f64();
        let slot = ctx.slot(init);
        scope.bind_slot(name, slot, *ty);
        out_slots.push(slot);
    }

    let active = ctx.reg();
    body.push(Instr::LoadState { dst: active, slot: active_slot });

    // State dispatch: a multi-outcome decision over the active state.
    let dispatch = ctx.map.begin_decision(format!("{label} (state)"));
    let state_probes: Vec<_> = chart
        .states
        .iter()
        .map(|s| ctx.map.add_outcome(dispatch, format!("{label}: state {}", s.name)))
        .collect();

    // Build per-state bodies, innermost states first for the else chain.
    let mut chain: Vec<Instr> = Vec::new();
    for (s, state) in chart.states.iter().enumerate().rev() {
        let mut state_body = vec![Instr::Probe { branch: state_probes[s] }];
        // Transition chain for this state, in priority order.
        let transitions: Vec<_> = chart.transitions_from(s).cloned().collect();
        let mut t_chain: Vec<Instr> = {
            // Fallback: no transition fired → during action.
            let mut during = Vec::new();
            lower_stmts(ctx, &mut during, &mut scope.clone(), &state.during, label);
            during
        };
        for (ti, t) in transitions.iter().enumerate().rev() {
            let mut arm = Vec::new();
            let fire = match &t.guard {
                Some(g) => lower_decision(
                    ctx,
                    &mut arm,
                    &scope,
                    g,
                    &format!("{label} ({} -> {} guard {ti})", state.name, chart.states[t.to].name),
                ),
                None => {
                    let one = ctx.reg();
                    arm.push(Instr::Const { dst: one, value: 1.0 });
                    one
                }
            };
            let mut fire_body = Vec::new();
            lower_stmts(ctx, &mut fire_body, &mut scope.clone(), &t.action, label);
            lower_stmts(ctx, &mut fire_body, &mut scope.clone(), &chart.states[t.to].entry, label);
            let target = ctx.reg();
            fire_body.push(Instr::Const { dst: target, value: t.to as f64 });
            fire_body.push(Instr::StoreState { slot: active_slot, src: target });
            arm.push(Instr::If { cond: fire, then_body: fire_body, else_body: t_chain });
            t_chain = arm;
        }
        state_body.extend(t_chain);

        if s == 0 {
            // Outermost arm of the dispatch chain.
            chain = if chart.states.len() == 1 {
                state_body
            } else {
                let k = ctx.const_reg(body, 0.0);
                let is_s = ctx.binop(body, BinopCode::Eq, active, k);
                vec![Instr::If { cond: is_s, then_body: state_body, else_body: chain }]
            };
        } else if s == chart.states.len() - 1 {
            chain = state_body; // innermost else: the last state
        } else {
            let mut cond_ir = Vec::new();
            let k = ctx.const_reg(&mut cond_ir, s as f64);
            let is_s = ctx.binop(&mut cond_ir, BinopCode::Eq, active, k);
            cond_ir.push(Instr::If { cond: is_s, then_body: state_body, else_body: chain });
            chain = cond_ir;
        }
    }
    body.extend(chain);

    // Publish outputs.
    let out_ty = |port: usize| types.output_type(PortRef::new(model.blocks()[b].id(), port));
    for (port, slot) in out_slots.into_iter().enumerate() {
        let raw = ctx.reg();
        body.push(Instr::LoadState { dst: raw, slot });
        let cast = ctx.cast(body, raw, out_ty(port));
        body.push(Instr::Copy { dst: port_regs[b][port], src: cast });
    }
    Ok(())
}

fn rel_to_binop(op: cftcg_model::RelOp) -> BinopCode {
    match op {
        cftcg_model::RelOp::Eq => BinopCode::Eq,
        cftcg_model::RelOp::Ne => BinopCode::Ne,
        cftcg_model::RelOp::Lt => BinopCode::Lt,
        cftcg_model::RelOp::Le => BinopCode::Le,
        cftcg_model::RelOp::Gt => BinopCode::Gt,
        cftcg_model::RelOp::Ge => BinopCode::Ge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_model::{DataType, ModelBuilder};

    #[test]
    fn compile_simple_model() {
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::F64);
        let sat = b.add("sat", BlockKind::Saturation { lower: 0.0, upper: 1.0 });
        let y = b.outport("y");
        b.wire(u, sat);
        b.wire(sat, y);
        let model = b.finish().unwrap();
        let compiled = compile(&model).unwrap();
        // Saturation: 2 decisions × 2 outcomes = 4 branch probes.
        assert_eq!(compiled.map().branch_count(), 4);
        assert_eq!(compiled.map().decision_count(), 2);
        assert_eq!(compiled.map().condition_count(), 2);
        assert_eq!(compiled.input_types(), &[DataType::F64]);
        assert_eq!(compiled.output_types(), &[DataType::F64]);
        assert!(compiled.instr_count() > 5);
        assert_eq!(compiled.layout().tuple_size(), 8);
    }

    #[test]
    fn invalid_model_is_rejected() {
        let mut b = ModelBuilder::new("m");
        b.add("g", BlockKind::Gain { gain: 1.0 });
        let model = b.finish_unchecked();
        assert!(matches!(compile(&model), Err(CompileError::Model(_))));
    }

    #[test]
    fn logic_block_instrumentation_counts() {
        let mut b = ModelBuilder::new("m");
        let a = b.inport("a", DataType::Bool);
        let c = b.inport("c", DataType::Bool);
        let and = b.add("and", BlockKind::Logic { op: LogicOp::And, inputs: 2 });
        let y = b.outport("y");
        b.connect(a, 0, and, 0);
        b.connect(c, 0, and, 1);
        b.wire(and, y);
        let compiled = compile(&b.finish().unwrap()).unwrap();
        // One decision, two outcomes, two conditions.
        assert_eq!(compiled.map().decision_count(), 1);
        assert_eq!(compiled.map().branch_count(), 2);
        assert_eq!(compiled.map().condition_count(), 2);
    }

    #[test]
    fn error_display() {
        let e = CompileError::ChartInit { block: "m/c".into(), detail: "boom".into() };
        assert!(e.to_string().contains("m/c"));
    }
}
