//! Lockstep divergence auditor: runs the interpreter and the compiled VM
//! side by side over the same inputs and compares every probed signal per
//! tick. The two engines enumerate signals identically (see
//! `CompiledModel::signals` / `Simulator::signals`), so a comparison is an
//! index-for-index walk of two `f64` vectors.

use std::fmt;

use cftcg_codegen::{CompileError, CompiledModel, Engine};
use cftcg_coverage::NullRecorder;
use cftcg_model::{Model, Value};
use cftcg_sim::{SimError, Simulator};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::probe::decode_tuple;

/// Why an audit could not run (distinct from *finding* a divergence, which
/// is a successful audit with a [`Divergence`] result).
#[derive(Debug)]
pub enum AuditError {
    /// The model failed validation / compilation.
    Compile(CompileError),
    /// The interpreter failed to step (hand-built models only).
    Sim(SimError),
    /// The two engines disagree on the signal table itself — enumeration
    /// order or naming drifted, so per-index comparison is meaningless.
    SignalTable {
        /// First differing table index.
        index: usize,
        /// The interpreter's entry at that index (empty if missing).
        sim: String,
        /// The VM's entry at that index (empty if missing).
        vm: String,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Compile(e) => write!(f, "compile failed: {e}"),
            AuditError::Sim(e) => write!(f, "interpreter failed: {e}"),
            AuditError::SignalTable { index, sim, vm } => write!(
                f,
                "signal tables disagree at index {index}: interpreter has {sim:?}, VM has {vm:?}"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

impl From<CompileError> for AuditError {
    fn from(e: CompileError) -> Self {
        AuditError::Compile(e)
    }
}

impl From<SimError> for AuditError {
    fn from(e: SimError) -> Self {
        AuditError::Sim(e)
    }
}

/// The first point where the engines disagreed.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Label of the input that exposed the divergence (case id or
    /// `random#N`).
    pub case: String,
    /// Tick (0-based model iteration) of the first disagreement.
    pub tick: u64,
    /// Index of the earliest divergent signal in schedule order.
    pub signal_index: usize,
    /// Hierarchical block path / port of that signal.
    pub signal: String,
    /// The interpreter's value.
    pub sim_value: f64,
    /// The VM's value.
    pub vm_value: f64,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "case {} tick {}: signal [{}] {} diverges (interpreter {:?}, vm {:?})",
            self.case, self.tick, self.signal_index, self.signal, self.sim_value, self.vm_value
        )
    }
}

/// Summary of a finished audit.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Inputs audited.
    pub cases: usize,
    /// Total ticks executed across all inputs.
    pub ticks: u64,
    /// Signals compared per tick.
    pub signals: usize,
    /// The first divergence found, if any (the audit stops there).
    pub divergence: Option<Divergence>,
}

impl AuditReport {
    /// Whether the engines agreed on every signal of every tick.
    pub fn passed(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Bitwise equality with NaN treated as equal to NaN — signals travel as
/// raw `f64` through both engines, so representation equality is the
/// honest check (the differential tests use the same rule).
fn values_eq(a: f64, b: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    a.to_bits() == b.to_bits()
}

/// Localizes the earliest divergent signal of one tick by binary-searching
/// the schedule-ordered prefix: `predicate(m)` = "some signal in `[0, m)`
/// diverges" is monotone in `m`, so the earliest divergence is the smallest
/// `m` flipping it to true. (Scanning `[lo, mid)` suffices because the
/// invariant guarantees `[0, lo)` is clean.)
fn first_divergent(sim: &[f64], vm: &[f64]) -> usize {
    let mut lo = 0usize; // invariant: no divergence in [0, lo)
    let mut hi = sim.len(); // invariant: some divergence in [0, hi)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let diverged = sim[lo..mid].iter().zip(&vm[lo..mid]).any(|(a, b)| !values_eq(*a, *b));
        if diverged {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi - 1
}

/// A reusable lockstep auditor over one model/compiled pair.
///
/// Construction verifies the two engines agree on the signal table; each
/// audited input then runs on a **fresh** interpreter and VM (held signals
/// start from initial conditions on both sides) and compares every signal
/// after every tick, stopping at the first divergence.
#[derive(Debug)]
pub struct Auditor<'a> {
    model: &'a Model,
    compiled: &'a CompiledModel,
    /// The tier under audit (`Jit` cross-checks native code against the
    /// interpreter, `Reference` the tree walker).
    engine: Engine,
    names: Vec<String>,
    inputs: Vec<Value>,
    sim_buf: Vec<f64>,
    vm_buf: Vec<f64>,
}

impl<'a> Auditor<'a> {
    /// Builds an auditor of `compiled` running on `engine`, checking the
    /// signal-table contract up front.
    ///
    /// # Errors
    ///
    /// [`AuditError::SignalTable`] if the engines' tables differ in length,
    /// order, or naming; [`AuditError::Sim`] if the interpreter rejects the
    /// model.
    pub fn new(
        model: &'a Model,
        compiled: &'a CompiledModel,
        engine: Engine,
    ) -> Result<Self, AuditError> {
        let sim = Simulator::new(model).map_err(CompileError::from)?;
        let sim_table = sim.signals();
        let vm_table = compiled.signals();
        let n = sim_table.len().max(vm_table.len());
        for i in 0..n {
            let s = sim_table.get(i).map(|(name, _)| name.as_str()).unwrap_or("");
            let v = vm_table.get(i).map(|m| m.name.as_str()).unwrap_or("");
            if s != v {
                return Err(AuditError::SignalTable {
                    index: i,
                    sim: s.to_string(),
                    vm: v.to_string(),
                });
            }
        }
        let names = sim_table.into_iter().map(|(name, _)| name).collect();
        Ok(Auditor {
            model,
            compiled,
            engine,
            names,
            inputs: Vec::new(),
            sim_buf: Vec::new(),
            vm_buf: Vec::new(),
        })
    }

    /// Signals compared per tick.
    pub fn signal_count(&self) -> usize {
        self.names.len()
    }

    /// Audits one input byte string; returns the first divergence, or
    /// `None` with the tick count if the engines agree throughout.
    ///
    /// # Errors
    ///
    /// [`AuditError::Sim`] when the interpreter fails to step.
    pub fn audit_case(
        &mut self,
        label: &str,
        bytes: &[u8],
    ) -> Result<(u64, Option<Divergence>), AuditError> {
        let mut sim = Simulator::new(self.model).map_err(CompileError::from)?;
        let mut exec = cftcg_codegen::Executor::with_engine(self.compiled, self.engine);
        // The reference walker keeps the pre-compaction register file, so
        // its signal metas live in a different register space.
        let metas = if exec.engine() == Engine::Reference {
            self.compiled.reference_signals()
        } else {
            self.compiled.signals()
        };
        let mut recorder = NullRecorder;
        let mut ticks = 0u64;
        for tuple in self.compiled.layout().split(bytes) {
            decode_tuple(self.compiled, tuple, &mut self.inputs);
            sim.step(&self.inputs)?;
            exec.step_tuple(tuple, &mut recorder);
            sim.read_signals_into(&mut self.sim_buf);
            self.vm_buf.clear();
            self.vm_buf.extend(metas.iter().map(|m| exec.reg(m.reg)));
            let diverged = self.sim_buf.iter().zip(&self.vm_buf).any(|(a, b)| !values_eq(*a, *b));
            if diverged {
                let i = first_divergent(&self.sim_buf, &self.vm_buf);
                return Ok((
                    ticks + 1,
                    Some(Divergence {
                        case: label.to_string(),
                        tick: ticks,
                        signal_index: i,
                        signal: self.names[i].clone(),
                        sim_value: self.sim_buf[i],
                        vm_value: self.vm_buf[i],
                    }),
                ));
            }
            ticks += 1;
        }
        Ok((ticks, None))
    }

    /// Audits a batch of labelled inputs, stopping at the first divergence.
    ///
    /// # Errors
    ///
    /// Propagates [`Auditor::audit_case`] errors.
    pub fn audit_corpus(&mut self, cases: &[(String, Vec<u8>)]) -> Result<AuditReport, AuditError> {
        let mut report =
            AuditReport { cases: 0, ticks: 0, signals: self.signal_count(), divergence: None };
        for (label, bytes) in cases {
            let (ticks, divergence) = self.audit_case(label, bytes)?;
            report.cases += 1;
            report.ticks += ticks;
            if divergence.is_some() {
                report.divergence = divergence;
                break;
            }
        }
        Ok(report)
    }

    /// Audits `cases` random inputs of `ticks_per_case` ticks each, from a
    /// seeded generator (raw bytes, so decoded inputs cover NaNs, huge
    /// magnitudes, and denormals — exactly what a fuzzer would feed).
    ///
    /// # Errors
    ///
    /// Propagates [`Auditor::audit_case`] errors.
    pub fn audit_random(
        &mut self,
        cases: usize,
        ticks_per_case: usize,
        seed: u64,
    ) -> Result<AuditReport, AuditError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tuple_size = self.compiled.layout().tuple_size();
        let mut report =
            AuditReport { cases: 0, ticks: 0, signals: self.signal_count(), divergence: None };
        let mut bytes = vec![0u8; tuple_size * ticks_per_case];
        for n in 0..cases {
            rng.fill_bytes(&mut bytes);
            let (ticks, divergence) = self.audit_case(&format!("random#{n}"), &bytes)?;
            report.cases += 1;
            report.ticks += ticks;
            if divergence.is_some() {
                report.divergence = divergence;
                break;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_codegen::compile;
    use cftcg_model::{BlockKind, DataType, ModelBuilder};

    #[test]
    fn first_divergent_finds_the_earliest_index() {
        let sim = [1.0, 2.0, 3.0, 4.0];
        let mut vm = sim;
        for i in 0..4 {
            let mut v = vm;
            v[i] += 0.5;
            assert_eq!(first_divergent(&sim, &v), i);
        }
        vm[1] = 9.0;
        vm[3] = 9.0;
        assert_eq!(first_divergent(&sim, &vm), 1);
    }

    #[test]
    fn nan_values_compare_equal() {
        assert!(values_eq(f64::NAN, f64::NAN));
        assert!(!values_eq(0.0, -0.0) || 0.0f64.to_bits() == (-0.0f64).to_bits());
        assert!(values_eq(1.5, 1.5));
    }

    #[test]
    fn stateful_model_audits_clean_over_random_inputs() {
        let mut b = ModelBuilder::new("acc");
        let u = b.inport("u", DataType::F64);
        let sum = b.add("sum", BlockKind::Sum { signs: vec![cftcg_model::InputSign::Plus; 2] });
        let dly = b.add("dly", BlockKind::UnitDelay { initial: Value::F64(0.0) });
        let sat = b.add("sat", BlockKind::Saturation { lower: -10.0, upper: 10.0 });
        let y = b.outport("y");
        b.connect(u, 0, sum, 0);
        b.connect(dly, 0, sum, 1);
        b.connect(sum, 0, dly, 0);
        b.connect(sum, 0, sat, 0);
        b.wire(sat, y);
        let model = b.finish().unwrap();
        let compiled = compile(&model).unwrap();
        let mut auditor = Auditor::new(&model, &compiled, Engine::Flat).unwrap();
        let report = auditor.audit_random(8, 16, 7).unwrap();
        assert!(report.passed(), "unexpected divergence: {:?}", report.divergence);
        assert_eq!(report.cases, 8);
        assert_eq!(report.ticks, 8 * 16);
        assert_eq!(report.signals, 4); // u, sum, dly, sat (outport has no port)
    }
}
