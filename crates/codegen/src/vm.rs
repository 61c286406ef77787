//! The step-program executor: the runtime of the "generated fuzz code".
//!
//! Where the paper compiles its generated C with Clang `-O2` and runs it
//! in-process under LibFuzzer, this reproduction executes the step-IR with a
//! register VM. Three execution engines share one `Executor` interface:
//!
//! * the **flat engine** (default) runs the optimized, flattened program —
//!   a non-recursive, jump-threaded dispatch loop over a linear op array
//!   (see [`crate::flatten`]); every recorder, `NullRecorder` included,
//!   runs the one instrumented program the fuzz loop runs;
//! * the **JIT engine** ([`Executor::new_jit`]) lowers the same flat
//!   program to native x86-64 machine code (see `crate::jit`) — available
//!   with the `jit` feature on x86-64 Linux, transparently falling back to
//!   the flat engine everywhere else;
//! * the **reference engine** ([`Executor::new_reference`]) walks the
//!   original unoptimized instruction tree — the semantic baseline the
//!   differential tests and byte-identity suites compare against.

use cftcg_coverage::{AssertionId, BranchId, ConditionId, DecisionId, Recorder};
use cftcg_model::interp::{lookup1d, lookup2d};
use cftcg_model::Value;

use crate::compile::CompiledModel;
use crate::flatten::{FlatOp, FlatProgram};
use crate::ir::Instr;
use crate::layout::TestCase;

/// Which execution engine an [`Executor`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The unoptimized recursive tree walker (semantic baseline).
    Reference,
    /// The optimized flat jump-threaded VM (always available).
    Flat,
    /// The native x86-64 JIT tier. Requesting it where unavailable (other
    /// architectures, `--no-default-features`, executable-page mapping
    /// refused) transparently resolves to [`Engine::Flat`].
    Jit,
}

impl Engine {
    /// Whether the JIT tier can be compiled in this build (the `jit`
    /// feature on x86-64 Linux). Individual models can still fall back at
    /// run time if executable pages cannot be mapped.
    pub const fn jit_supported() -> bool {
        cfg!(cftcg_jit)
    }

    /// The best engine this build offers: [`Engine::Jit`] when supported,
    /// otherwise [`Engine::Flat`].
    pub const fn best() -> Engine {
        if Engine::jit_supported() {
            Engine::Jit
        } else {
            Engine::Flat
        }
    }

    /// Reads the `CFTCG_ENGINE` environment override: `ref`/`reference`,
    /// `flat`, or `jit` (case-insensitive). Returns `None` when unset or
    /// unrecognized.
    pub fn from_env() -> Option<Engine> {
        let v = std::env::var("CFTCG_ENGINE").ok()?;
        match v.to_ascii_lowercase().as_str() {
            "ref" | "reference" => Some(Engine::Reference),
            "flat" => Some(Engine::Flat),
            "jit" => Some(Engine::Jit),
            _ => None,
        }
    }

    /// The engine's short name (`ref`/`flat`/`jit`) as logged into bench
    /// and campaign metadata.
    pub const fn name(self) -> &'static str {
        match self {
            Engine::Reference => "ref",
            Engine::Flat => "flat",
            Engine::Jit => "jit",
        }
    }
}

/// Resolves the effective engine from the three-level preference chain
/// every CLI entry point shares: the `CFTCG_ENGINE` environment override
/// wins, then the caller's configured preference, then `default`.
pub fn resolve_engine(preference: Option<Engine>, default: Engine) -> Engine {
    Engine::from_env().or(preference).unwrap_or(default)
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Native code-size accounting for one JIT-compiled model (see
/// [`CompiledModel::jit_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitStats {
    /// Machine-code bytes emitted.
    pub code_bytes: usize,
    /// Straight-line native blocks (jump targets plus entry).
    pub blocks: usize,
    /// Wall-clock cost of the compilation, nanoseconds.
    pub compile_ns: u64,
}

/// An execution session over one compiled model: registers + state.
///
/// See the crate-level example for usage. `step` is generic over the
/// [`Recorder`] so the fuzz loop's branch bitmap monomorphizes to direct
/// stores and a discarding recorder's no-op hooks inline away.
#[derive(Debug, Clone)]
pub struct Executor<'c> {
    compiled: &'c CompiledModel,
    regs: Vec<f64>,
    /// The canonical start-of-case register file (zeros plus hoisted
    /// constants): [`Executor::reset`] restores it so every case's
    /// execution is a pure function of its bytes, with no register residue
    /// from the previous case. Replay and minimization run each case on a
    /// fresh executor, so the fuzz loop's reused executor must see exactly
    /// what they see for a case's coverage to reproduce.
    reg_canon: Vec<f64>,
    state: Vec<f64>,
    inputs: Vec<f64>,
    outputs: Vec<f64>,
    engine: Engine,
    /// Native code, present exactly when `engine` is [`Engine::Jit`].
    #[cfg(cftcg_jit)]
    jit: Option<&'c crate::jit::JitProgram>,
}

impl<'c> Executor<'c> {
    /// Creates an executor with freshly initialized state, running the
    /// optimized flat program in the flat VM — the JIT's differential
    /// oracle, and the fuzz engine where [`Engine::best`] has no JIT.
    pub fn new(compiled: &'c CompiledModel) -> Self {
        Self::with_engine(compiled, Engine::Flat)
    }

    /// Creates an executor running the *unoptimized* structured program
    /// with the recursive tree walker — the reference semantics that the
    /// optimizer and flattener must preserve bit-for-bit.
    ///
    /// Note the reference register file is the pre-compaction one:
    /// [`Executor::reg`] on a reference executor must be indexed with
    /// [`CompiledModel::reference_signals`], not
    /// [`CompiledModel::signals`].
    pub fn new_reference(compiled: &'c CompiledModel) -> Self {
        Self::with_engine(compiled, Engine::Reference)
    }

    /// Creates an executor running native JIT-compiled code when the build
    /// and host support it, silently falling back to the flat VM otherwise
    /// — callers never need to feature-gate. [`Executor::engine`] reports
    /// which tier was actually selected.
    pub fn new_jit(compiled: &'c CompiledModel) -> Self {
        Self::with_engine(compiled, Engine::Jit)
    }

    /// Creates an executor with an explicit engine choice.
    /// [`Engine::Jit`] resolves to [`Engine::Flat`] when unavailable.
    pub fn with_engine(compiled: &'c CompiledModel, engine: Engine) -> Self {
        #[cfg(cftcg_jit)]
        let mut engine = engine;
        #[cfg(not(cftcg_jit))]
        let engine = if engine == Engine::Jit { Engine::Flat } else { engine };
        #[cfg(cftcg_jit)]
        let jit = if engine == Engine::Jit {
            let prog = compiled.jit_program();
            if prog.is_none() {
                engine = Engine::Flat;
            }
            prog
        } else {
            None
        };
        let reference = engine == Engine::Reference;
        let num_regs = if reference { compiled.reference_regs } else { compiled.num_regs };
        let mut regs = vec![0.0; num_regs];
        if !reference {
            // Hoisted constants: single-writer top-level `Const` registers
            // are pre-loaded once here instead of re-stored every tick by
            // the flat program.
            for &(r, v) in &compiled.flat.reg_init {
                regs[r as usize] = v;
            }
        }
        let reg_canon = regs.clone();
        Executor {
            regs,
            reg_canon,
            state: compiled.state_init.clone(),
            inputs: vec![0.0; compiled.input_types.len()],
            outputs: vec![0.0; compiled.output_types.len()],
            compiled,
            engine,
            #[cfg(cftcg_jit)]
            jit,
        }
    }

    /// The compiled model this executor runs.
    pub fn compiled(&self) -> &CompiledModel {
        self.compiled
    }

    /// Whether this executor runs the reference tree walker instead of the
    /// optimized flat program.
    pub fn is_reference(&self) -> bool {
        self.engine == Engine::Reference
    }

    /// The engine this executor actually runs (after JIT fallback
    /// resolution — a [`Executor::new_jit`] executor reports
    /// [`Engine::Flat`] when native code is unavailable).
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Resets all state to initial conditions — the generated driver's
    /// `Model_init()` call, executed once per test case. Also restores the
    /// canonical register file, so consecutive cases on one executor see
    /// exactly what a fresh executor would.
    pub fn reset(&mut self) {
        self.state.copy_from_slice(&self.compiled.state_init);
        self.regs.copy_from_slice(&self.reg_canon);
    }

    /// Executes one model iteration, collecting the outputs into a fresh
    /// `Vec`. Allocation-sensitive callers (per-iteration loops) should use
    /// [`Executor::step_into`] and reuse one buffer instead.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the model's inport count.
    pub fn step<R: Recorder>(&mut self, inputs: &[Value], recorder: &mut R) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.compiled.output_types.len());
        self.step_into(inputs, &mut out, recorder);
        out
    }

    /// Executes one model iteration, writing the outputs into `out`
    /// (cleared first, capacity reused) — [`Executor::step`] without the
    /// per-iteration `Vec` allocation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the model's inport count.
    pub fn step_into<R: Recorder>(
        &mut self,
        inputs: &[Value],
        out: &mut Vec<Value>,
        recorder: &mut R,
    ) {
        assert_eq!(inputs.len(), self.compiled.input_types.len(), "input arity mismatch");
        for (slot, v) in self.inputs.iter_mut().zip(inputs) {
            *slot = v.as_f64();
        }
        self.run_body_owned(recorder);
        out.clear();
        out.extend(
            self.compiled
                .output_types
                .iter()
                .zip(&self.outputs)
                .map(|(ty, &x)| Value::from_f64(x, *ty)),
        );
    }

    /// Executes one iteration from a raw input tuple (driver fast path: no
    /// `Value` allocation). On the JIT engine the native code decodes the
    /// tuple itself (see `crate::jit`).
    ///
    /// # Panics
    ///
    /// Panics if `tuple` is shorter than the layout's tuple size.
    pub fn step_tuple<R: Recorder>(&mut self, tuple: &[u8], recorder: &mut R) {
        #[cfg(cftcg_jit)]
        if let Some(jit) = self.jit {
            crate::jit::run_jit(
                jit,
                &mut self.regs,
                &mut self.state,
                &mut self.inputs,
                &mut self.outputs,
                Some(tuple),
                recorder,
            );
            return;
        }
        let layout = self.compiled.layout();
        for (i, field) in layout.fields().iter().enumerate() {
            let v = Value::from_le_bytes(&tuple[field.offset..], field.dtype);
            self.inputs[i] = v.as_f64();
        }
        self.run_body_owned(recorder);
    }

    /// Runs a whole test case: `Model_init()` then one iteration per tuple,
    /// exactly like the generated `FuzzTestOneInput` of the paper's
    /// Figure 3. Returns the number of iterations executed.
    pub fn run_case<R: Recorder>(&mut self, case: &TestCase, recorder: &mut R) -> usize {
        self.reset();
        // Copy the `&'c` reference out of `self` so iterating the layout
        // doesn't hold a borrow of `self` (and doesn't clone the layout).
        let compiled: &'c CompiledModel = self.compiled;
        let tuples = compiled.layout().split(&case.bytes);
        let iterations = tuples.len();
        for tuple in tuples {
            self.step_tuple(tuple, recorder);
        }
        iterations
    }

    /// The current state vector (delay lines, chart variables, held
    /// outputs, ...). Together with [`Executor::set_state`] this lets
    /// search-based generators (the SLDV-like baseline) snapshot and
    /// restore execution states.
    pub fn state(&self) -> &[f64] {
        &self.state
    }

    /// Restores a state vector captured with [`Executor::state`].
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong length for this model.
    pub fn set_state(&mut self, state: &[f64]) {
        self.state.copy_from_slice(state);
    }

    /// The registers a tick of this executor's program hands to the next
    /// ([`CompiledModel::carried_regs`] in this engine's register space).
    fn carried(&self) -> &'c [crate::ir::Reg] {
        let compiled: &'c CompiledModel = self.compiled;
        if self.is_reference() {
            &compiled.reference_carried
        } else {
            &compiled.carried
        }
    }

    /// Length of a checkpoint buffer: the state plane plus the carried
    /// registers.
    pub fn checkpoint_len(&self) -> usize {
        self.state.len() + self.carried().len()
    }

    /// Writes everything the next tick reads from earlier ticks — the
    /// state plane, then the carried registers — into `out`. Restoring it
    /// with [`Executor::restore`] resumes the execution exactly where it
    /// stood: the following ticks compute the same outputs, state and
    /// recorder events as if the execution had never stopped.
    ///
    /// # Panics
    ///
    /// Panics unless `out.len()` is [`Executor::checkpoint_len`].
    pub fn checkpoint(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.checkpoint_len(), "checkpoint length mismatch");
        let (state, regs) = out.split_at_mut(self.state.len());
        state.copy_from_slice(&self.state);
        for (slot, &r) in regs.iter_mut().zip(self.carried()) {
            *slot = self.regs[r as usize];
        }
    }

    /// Resumes from a buffer written by [`Executor::checkpoint`] on an
    /// executor of the same model and engine: [`Executor::reset`], then the
    /// state plane and the carried registers.
    ///
    /// # Panics
    ///
    /// Panics unless `checkpoint.len()` is [`Executor::checkpoint_len`].
    pub fn restore(&mut self, checkpoint: &[f64]) {
        assert_eq!(checkpoint.len(), self.checkpoint_len(), "checkpoint length mismatch");
        self.reset();
        let (state, regs) = checkpoint.split_at(self.state.len());
        self.state.copy_from_slice(state);
        for (&value, &r) in regs.iter().zip(self.carried()) {
            self.regs[r as usize] = value;
        }
    }

    /// Reads one register of the current register file.
    ///
    /// With the registers listed in
    /// [`CompiledModel::signals`](crate::CompiledModel::signals) this is the
    /// VM's signal probe: after a step, `reg(meta.reg)` is the value block
    /// port `meta.name` produced (or held) this tick. Reading costs one
    /// index per probed signal — tracing is O(probed), not O(model).
    ///
    /// A reference executor's register file predates compaction: index it
    /// with [`CompiledModel::reference_signals`](crate::CompiledModel::reference_signals).
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range for this model's register file.
    pub fn reg(&self, reg: crate::ir::Reg) -> f64 {
        self.regs[reg as usize]
    }

    /// Current outport values (after a step).
    pub fn outputs(&self) -> Vec<Value> {
        self.compiled
            .output_types
            .iter()
            .zip(&self.outputs)
            .map(|(ty, &x)| Value::from_f64(x, *ty))
            .collect()
    }

    fn run_body_owned<R: Recorder>(&mut self, recorder: &mut R) {
        if self.engine == Engine::Reference {
            run_tree(
                &self.compiled.reference,
                &mut self.regs,
                &mut self.state,
                &self.inputs,
                &mut self.outputs,
                &self.compiled.tables1,
                &self.compiled.tables2,
                recorder,
            );
            return;
        }
        #[cfg(cftcg_jit)]
        if let Some(jit) = self.jit {
            crate::jit::run_jit(
                jit,
                &mut self.regs,
                &mut self.state,
                &mut self.inputs,
                &mut self.outputs,
                None,
                recorder,
            );
            return;
        }
        run_flat(
            &self.compiled.flat,
            &mut self.regs,
            &mut self.state,
            &self.inputs,
            &mut self.outputs,
            &self.compiled.tables1,
            &self.compiled.tables2,
            recorder,
        );
    }
}

/// The dispatch loop over a flat program: no recursion, no per-call
/// operand chase, relational dispatch decided at lowering time. The loop
/// walks a slice iterator; a taken jump re-slices what is left of it.
#[allow(clippy::too_many_arguments)]
fn run_flat<R: Recorder>(
    program: &FlatProgram,
    regs: &mut [f64],
    state: &mut [f64],
    inputs: &[f64],
    outputs: &mut [f64],
    tables1: &[(Vec<f64>, Vec<f64>)],
    tables2: &[crate::compile::Lookup2Table],
    recorder: &mut R,
) {
    // Skipping events the recorder promises away is observationally
    // identical, and the fuzz loop's recorder promises away both classes
    // of MC/DC event: its ticks dispatch none of their ops.
    let ops: &[FlatOp] = if R::OBSERVES_CONDITIONS || R::OBSERVES_DECISIONS {
        &program.ops
    } else {
        &program.lean_ops
    };
    let const_pool: &[f64] = &program.const_pool;
    let mut rest = ops.iter();
    while let Some(op) = rest.next() {
        match *op {
            FlatOp::Const { dst, idx } => regs[dst as usize] = const_pool[idx as usize],
            FlatOp::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
            FlatOp::Input { dst, index } => regs[dst as usize] = inputs[index as usize],
            FlatOp::Output { index, src } => outputs[index as usize] = regs[src as usize],
            FlatOp::Unop { dst, op, src } => {
                let x = regs[src as usize];
                regs[dst as usize] = match op {
                    crate::ir::UnopCode::Neg => -x,
                    crate::ir::UnopCode::Not => f64::from(x == 0.0),
                    crate::ir::UnopCode::Truthy => f64::from(x != 0.0),
                };
            }
            FlatOp::Binop { dst, op, lhs, rhs } => {
                regs[dst as usize] = op.apply(regs[lhs as usize], regs[rhs as usize]);
            }
            FlatOp::BinopCmp { dst, op, lhs, rhs } => {
                let (l, r) = (regs[lhs as usize], regs[rhs as usize]);
                recorder.compare(l, r);
                regs[dst as usize] = op.apply(l, r);
            }
            FlatOp::Call { dst, func, argc, args } => {
                let mut xs = [0.0f64; crate::flatten::MAX_INLINE];
                for i in 0..argc as usize {
                    xs[i] = regs[args[i] as usize];
                }
                regs[dst as usize] = func.apply(&xs[..argc as usize]);
            }
            FlatOp::CastSat { dst, src, ty } => {
                regs[dst as usize] = Value::from_f64(regs[src as usize], ty).as_f64();
            }
            FlatOp::LoadState { dst, slot } => regs[dst as usize] = state[slot as usize],
            FlatOp::StoreState { slot, src } => state[slot as usize] = regs[src as usize],
            FlatOp::ShiftState { base, len, src } => {
                let (base, len) = (base as usize, len as usize);
                state.copy_within(base + 1..base + len, base);
                state[base + len - 1] = regs[src as usize];
            }
            FlatOp::Lookup1 { dst, src, table } => {
                let (breaks, values) = &tables1[table as usize];
                regs[dst as usize] = lookup1d(breaks, values, regs[src as usize]);
            }
            FlatOp::Lookup2 { dst, row, col, table } => {
                let (rb, cb, values) = &tables2[table as usize];
                regs[dst as usize] =
                    lookup2d(rb, cb, values, regs[row as usize], regs[col as usize]);
            }
            FlatOp::Probe { branch } => recorder.branch(BranchId(u32::from(branch))),
            FlatOp::CondProbe { cond, src } => {
                recorder.condition(ConditionId(u32::from(cond)), regs[src as usize] != 0.0);
            }
            FlatOp::Decision1 { decision, cond, src } => {
                // Fused CondProbe + single-condition DecisionEval: the
                // recorder sees the exact event sequence the unfused pair
                // produced — condition first, then the one-bit decision.
                let v = regs[src as usize] != 0.0;
                recorder.condition(ConditionId(u32::from(cond)), v);
                recorder.decision_eval(DecisionId(u32::from(decision)), u64::from(v), u32::from(v));
            }
            FlatOp::DecisionEvalSmall { decision, outcome, len, conds } => {
                let mut vector = 0u64;
                for (bit, c) in conds[..len as usize].iter().enumerate() {
                    if regs[*c as usize] != 0.0 {
                        vector |= 1 << bit;
                    }
                }
                let out = u32::from(regs[outcome as usize] != 0.0);
                recorder.decision_eval(DecisionId(u32::from(decision)), vector, out);
            }
            FlatOp::DecisionEvalPool { decision, outcome, start, len } => {
                let conds = &program.cond_pool[start as usize..start as usize + len as usize];
                let mut vector = 0u64;
                for (bit, c) in conds.iter().enumerate() {
                    if regs[*c as usize] != 0.0 {
                        vector |= 1 << bit;
                    }
                }
                let out = u32::from(regs[outcome as usize] != 0.0);
                recorder.decision_eval(DecisionId(u32::from(decision)), vector, out);
            }
            FlatOp::Assert { id, cond } => {
                recorder.assertion(AssertionId(u32::from(id)), regs[cond as usize] != 0.0);
            }
            FlatOp::ProbeSelect { cond, then_branch, else_branch } => {
                // Fused `if { Probe } else { Probe }`: fire exactly the
                // branch event the taken arm would have, with no jumps.
                let taken = if regs[cond as usize] != 0.0 { then_branch } else { else_branch };
                recorder.branch(BranchId(u32::from(taken)));
            }
            FlatOp::JumpIfZero { cond, skip } => {
                if regs[cond as usize] == 0.0 {
                    rest = rest.as_slice()[skip as usize..].iter();
                }
            }
            FlatOp::JumpIfNonZero { cond, skip } => {
                if regs[cond as usize] != 0.0 {
                    rest = rest.as_slice()[skip as usize..].iter();
                }
            }
            FlatOp::Jump { skip } => rest = rest.as_slice()[skip as usize..].iter(),
        }
    }
}

/// The reference tree walker over the unoptimized structured program — the
/// seed VM, kept verbatim as the semantic baseline for differential tests.
#[allow(clippy::too_many_arguments)]
fn run_tree<R: Recorder>(
    body: &[Instr],
    regs: &mut [f64],
    state: &mut [f64],
    inputs: &[f64],
    outputs: &mut [f64],
    tables1: &[(Vec<f64>, Vec<f64>)],
    tables2: &[crate::compile::Lookup2Table],
    recorder: &mut R,
) {
    for instr in body {
        match instr {
            Instr::Const { dst, value } => regs[*dst as usize] = *value,
            Instr::Copy { dst, src } => regs[*dst as usize] = regs[*src as usize],
            Instr::Input { dst, index } => regs[*dst as usize] = inputs[*index],
            Instr::Output { index, src } => outputs[*index] = regs[*src as usize],
            Instr::Unop { dst, op, src } => {
                let x = regs[*src as usize];
                regs[*dst as usize] = match op {
                    crate::ir::UnopCode::Neg => -x,
                    crate::ir::UnopCode::Not => f64::from(x == 0.0),
                    crate::ir::UnopCode::Truthy => f64::from(x != 0.0),
                };
            }
            Instr::Binop { dst, op, lhs, rhs } => {
                let (l, r) = (regs[*lhs as usize], regs[*rhs as usize]);
                if op.is_relational() {
                    recorder.compare(l, r);
                }
                regs[*dst as usize] = op.apply(l, r);
            }
            Instr::Call { dst, func, args } => {
                let mut xs = [0.0f64; 3];
                for (i, a) in args.iter().enumerate() {
                    xs[i] = regs[*a as usize];
                }
                regs[*dst as usize] = func.apply(&xs[..args.len()]);
            }
            Instr::CastSat { dst, src, ty } => {
                regs[*dst as usize] = Value::from_f64(regs[*src as usize], *ty).as_f64();
            }
            Instr::LoadState { dst, slot } => regs[*dst as usize] = state[*slot],
            Instr::StoreState { slot, src } => state[*slot] = regs[*src as usize],
            Instr::ShiftState { base, len, src } => {
                state.copy_within(base + 1..base + len, *base);
                state[base + len - 1] = regs[*src as usize];
            }
            Instr::Lookup1 { dst, src, table } => {
                let (breaks, values) = &tables1[*table];
                regs[*dst as usize] = lookup1d(breaks, values, regs[*src as usize]);
            }
            Instr::Lookup2 { dst, row, col, table } => {
                let (rb, cb, values) = &tables2[*table];
                regs[*dst as usize] =
                    lookup2d(rb, cb, values, regs[*row as usize], regs[*col as usize]);
            }
            Instr::Probe { branch } => recorder.branch(*branch),
            Instr::Assert { id, cond } => {
                recorder.assertion(*id, regs[*cond as usize] != 0.0);
            }
            Instr::CondProbe { cond, src } => {
                recorder.condition(*cond, regs[*src as usize] != 0.0);
            }
            Instr::DecisionEval { decision, conds, outcome } => {
                let mut vector = 0u64;
                for (bit, c) in conds.iter().enumerate() {
                    if regs[*c as usize] != 0.0 {
                        vector |= 1 << bit;
                    }
                }
                let out = u32::from(regs[*outcome as usize] != 0.0);
                recorder.decision_eval(*decision, vector, out);
            }
            Instr::If { cond, then_body, else_body } => {
                let taken = regs[*cond as usize] != 0.0;
                let branch = if taken { then_body } else { else_body };
                run_tree(branch, regs, state, inputs, outputs, tables1, tables2, recorder);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use cftcg_coverage::{BranchBitmap, FullTracker, NullRecorder};
    use cftcg_model::{BlockKind, DataType, ModelBuilder};

    fn saturation_model() -> CompiledModel {
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::F64);
        let sat = b.add("sat", BlockKind::Saturation { lower: -1.0, upper: 1.0 });
        let y = b.outport("y");
        b.wire(u, sat);
        b.wire(sat, y);
        compile(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn step_produces_expected_outputs() {
        let compiled = saturation_model();
        let mut exec = Executor::new(&compiled);
        let mut rec = NullRecorder;
        assert_eq!(exec.step(&[Value::F64(0.5)], &mut rec), vec![Value::F64(0.5)]);
        assert_eq!(exec.step(&[Value::F64(9.0)], &mut rec), vec![Value::F64(1.0)]);
        assert_eq!(exec.step(&[Value::F64(-9.0)], &mut rec), vec![Value::F64(-1.0)]);
    }

    #[test]
    fn reference_engine_matches_flat_engine() {
        let compiled = saturation_model();
        let mut flat = Executor::new(&compiled);
        let mut tree = Executor::new_reference(&compiled);
        let mut rec = NullRecorder;
        for x in [0.5, 9.0, -9.0, f64::NAN, 0.0] {
            let a = flat.step(&[Value::F64(x)], &mut rec);
            let b = tree.step(&[Value::F64(x)], &mut rec);
            let bits =
                |vs: &[Value]| -> Vec<u64> { vs.iter().map(|v| v.as_f64().to_bits()).collect() };
            assert_eq!(bits(&a), bits(&b), "input {x}");
        }
    }

    #[test]
    fn probes_fire_into_bitmap() {
        let compiled = saturation_model();
        let mut exec = Executor::new(&compiled);
        let mut cov = BranchBitmap::new(compiled.map().branch_count());
        exec.step(&[Value::F64(9.0)], &mut cov);
        // Upper-limit decision true outcome fired; lower-limit decision
        // never evaluated this iteration.
        assert_eq!(cov.count(), 1);
        cov.clear();
        exec.step(&[Value::F64(0.0)], &mut cov);
        // Upper false + lower false.
        assert_eq!(cov.count(), 2);
    }

    #[test]
    fn run_case_resets_and_counts_iterations() {
        let compiled = saturation_model();
        let mut exec = Executor::new(&compiled);
        let mut tracker = FullTracker::new(compiled.map());
        let case = TestCase::new(vec![0u8; 8 * 3 + 2]); // 3 tuples + fragment
        assert_eq!(exec.run_case(&case, &mut tracker), 3);
    }

    #[test]
    fn full_tracker_scores_saturation() {
        use cftcg_coverage::CoverageReport;
        let compiled = saturation_model();
        let mut exec = Executor::new(&compiled);
        let mut tracker = FullTracker::new(compiled.map());
        for x in [0.0, 9.0, -9.0] {
            exec.step(&[Value::F64(x)], &mut tracker);
        }
        let report = CoverageReport::score(compiled.map(), &tracker);
        assert_eq!(report.decision.covered, 4);
        assert_eq!(report.decision.total, 4);
        assert_eq!(report.condition.percent(), 100.0);
        assert_eq!(report.mcdc.percent(), 100.0);
    }

    #[test]
    fn jit_executor_matches_flat_on_saturation() {
        let compiled = saturation_model();
        let mut jit = Executor::new_jit(&compiled);
        let mut flat = Executor::new(&compiled);
        if Engine::jit_supported() {
            assert_eq!(jit.engine(), Engine::Jit, "jit requested and supported");
        } else {
            assert_eq!(jit.engine(), Engine::Flat, "transparent fallback");
        }
        let mut cov_j = BranchBitmap::new(compiled.map().branch_count());
        let mut cov_f = BranchBitmap::new(compiled.map().branch_count());
        for x in [0.5, 9.0, -9.0, 0.0, f64::NAN, -0.0] {
            let a = jit.step(&[Value::F64(x)], &mut cov_j);
            let b = flat.step(&[Value::F64(x)], &mut cov_f);
            let bits =
                |vs: &[Value]| -> Vec<u64> { vs.iter().map(|v| v.as_f64().to_bits()).collect() };
            assert_eq!(bits(&a), bits(&b), "input {x}");
            assert_eq!(cov_j, cov_f, "input {x}");
        }
    }

    #[test]
    fn jit_null_recorder_skips_events_but_computes_outputs() {
        let compiled = saturation_model();
        let mut jit = Executor::new_jit(&compiled);
        let mut rec = NullRecorder;
        assert_eq!(jit.step(&[Value::F64(9.0)], &mut rec), vec![Value::F64(1.0)]);
        assert_eq!(jit.step(&[Value::F64(-9.0)], &mut rec), vec![Value::F64(-1.0)]);
    }

    #[test]
    fn engine_env_parsing() {
        // Uses the parser directly (no env mutation: tests run threaded).
        assert_eq!(Engine::Flat.name(), "flat");
        assert_eq!(Engine::Jit.name(), "jit");
        assert_eq!(Engine::Reference.name(), "ref");
        assert_eq!(
            Engine::best(),
            if Engine::jit_supported() { Engine::Jit } else { Engine::Flat }
        );
    }

    #[test]
    fn null_recorder_fast_path_still_computes_outputs_and_state() {
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::F64);
        let d = b.add("d", BlockKind::UnitDelay { initial: Value::F64(0.0) });
        let y = b.outport("y");
        b.wire(u, d);
        b.wire(d, y);
        let compiled = compile(&b.finish().unwrap()).unwrap();
        let mut exec = Executor::new(&compiled);
        let mut rec = NullRecorder;
        // Unit delay: output lags input by one tick even when every
        // recorder event is discarded (state stores are effects, not probes).
        assert_eq!(exec.step(&[Value::F64(3.0)], &mut rec), vec![Value::F64(0.0)]);
        assert_eq!(exec.step(&[Value::F64(5.0)], &mut rec), vec![Value::F64(3.0)]);
    }
}
