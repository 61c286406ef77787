//! Signal probes: the probe mask, the bounded trace ring, and VM capture.

use cftcg_codegen::{CompiledModel, Engine, Executor, Instr, TestCase};
use cftcg_coverage::NullRecorder;
use cftcg_model::{DataType, Value};

/// One probed signal: the hierarchical port name and its resolved type.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSignal {
    /// Hierarchical signal name (`model/…/block:port`).
    pub name: String,
    /// The port's resolved data type (decides the VCD variable kind).
    pub dtype: DataType,
}

/// One sample: signal `signal` (an index into the trace's probed-signal
/// list) had value `value` after tick `tick`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Model iteration the sample was taken after (0-based).
    pub tick: u64,
    /// Index into [`Trace::signals`].
    pub signal: u32,
    /// Sampled value, widened to `f64` (how both engines carry signals).
    pub value: f64,
}

/// A selection of signal-table indices to probe.
///
/// Probing costs one register read (VM) or one signal-store read
/// (interpreter) per selected index per tick — O(probed), not O(model).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeMask {
    indices: Vec<usize>,
}

impl ProbeMask {
    /// Probes every signal of a table with `n` entries.
    pub fn all(n: usize) -> Self {
        ProbeMask { indices: (0..n).collect() }
    }

    /// Probes exactly the given signal-table indices (kept in given order).
    pub fn from_indices(indices: Vec<usize>) -> Self {
        ProbeMask { indices }
    }

    /// Probes every signal whose name contains one of `patterns`
    /// (case-sensitive substring match), in table order.
    ///
    /// # Errors
    ///
    /// Returns the first pattern that matches no signal.
    pub fn from_patterns(names: &[&str], patterns: &[String]) -> Result<Self, String> {
        for pattern in patterns {
            if !names.iter().any(|n| n.contains(pattern.as_str())) {
                return Err(format!("probe pattern {pattern:?} matches no signal"));
            }
        }
        let indices = (0..names.len())
            .filter(|&i| patterns.iter().any(|p| names[i].contains(p.as_str())))
            .collect();
        Ok(ProbeMask { indices })
    }

    /// Probes the signals that drive the model's outports, in outport
    /// order — the minimal mask that reproduces a Scope on every output.
    pub fn outputs(compiled: &CompiledModel) -> Self {
        let metas = compiled.signals();
        let mut indices = Vec::new();
        for instr in compiled.program() {
            if let Instr::Output { src, .. } = instr {
                if let Some(i) = metas.iter().position(|m| m.reg == *src) {
                    indices.push(i);
                }
            }
        }
        ProbeMask { indices }
    }

    /// The selected signal-table indices.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of probed signals.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the mask selects nothing.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// A captured waveform: the probed signals plus a bounded ring of samples.
///
/// The ring holds at most `capacity` records; older records are dropped
/// (and counted) when it overflows, so tracing a long case keeps the most
/// recent window instead of growing without bound.
#[derive(Debug, Clone)]
pub struct Trace {
    signals: Vec<TraceSignal>,
    records: std::collections::VecDeque<TraceRecord>,
    capacity: usize,
    ticks: u64,
    dropped: u64,
}

impl Trace {
    /// An empty trace over `signals` with a ring bound of `capacity`
    /// records (minimum 1).
    pub fn new(signals: Vec<TraceSignal>, capacity: usize) -> Self {
        Trace {
            signals,
            records: std::collections::VecDeque::new(),
            capacity: capacity.max(1),
            ticks: 0,
            dropped: 0,
        }
    }

    /// The probed signals, in record `signal`-index order.
    pub fn signals(&self) -> &[TraceSignal] {
        &self.signals
    }

    /// The retained samples, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Ticks the traced execution ran for.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Samples evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends one sample, evicting the oldest record when full.
    pub fn record(&mut self, tick: u64, signal: u32, value: f64) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord { tick, signal, value });
        self.ticks = self.ticks.max(tick + 1);
    }
}

/// Decodes one input tuple into `out` (cleared first) using the compiled
/// model's field layout — the same decode `Executor::step_tuple` performs.
pub fn decode_tuple(compiled: &CompiledModel, tuple: &[u8], out: &mut Vec<Value>) {
    out.clear();
    for field in compiled.layout().fields() {
        out.push(Value::from_le_bytes(&tuple[field.offset..], field.dtype));
    }
}

/// Replays `case` on the compiled model's `engine` with probes attached,
/// sampling every masked signal after each tick. A fresh executor is used
/// so held signals start from initial conditions, matching a fresh
/// interpreter.
///
/// The replay loop is allocation-free per tick: `step_tuple` decodes in
/// place and each probe is a single register read.
pub fn trace_vm_case(
    compiled: &CompiledModel,
    engine: Engine,
    case: &TestCase,
    mask: &ProbeMask,
    capacity: usize,
) -> Trace {
    // The JIT shares the flat register file, so probing is unchanged; the
    // reference walker needs its pre-compaction signal table.
    let mut exec = Executor::with_engine(compiled, engine);
    let metas = if exec.engine() == Engine::Reference {
        compiled.reference_signals()
    } else {
        compiled.signals()
    };
    let signals = mask
        .indices()
        .iter()
        .map(|&i| TraceSignal { name: metas[i].name.clone(), dtype: metas[i].dtype })
        .collect();
    let mut trace = Trace::new(signals, capacity);
    let mut recorder = NullRecorder;
    for (tick, tuple) in compiled.layout().split(&case.bytes).enumerate() {
        exec.step_tuple(tuple, &mut recorder);
        for (k, &i) in mask.indices().iter().enumerate() {
            trace.record(tick as u64, k as u32, exec.reg(metas[i].reg));
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_codegen::compile;
    use cftcg_model::{BlockKind, DataType, ModelBuilder};

    fn counter_model() -> CompiledModel {
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::F64);
        let g = b.add("g", BlockKind::Gain { gain: 2.0 });
        let y = b.outport("y");
        b.wire(u, g);
        b.wire(g, y);
        compile(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut t = Trace::new(vec![], 2);
        t.record(0, 0, 1.0);
        t.record(1, 0, 2.0);
        t.record(2, 0, 3.0);
        assert_eq!(t.dropped(), 1);
        let vals: Vec<f64> = t.records().map(|r| r.value).collect();
        assert_eq!(vals, vec![2.0, 3.0]);
        assert_eq!(t.ticks(), 3);
    }

    #[test]
    fn mask_patterns_select_by_substring() {
        let compiled = counter_model();
        let names: Vec<&str> = compiled.signals().iter().map(|m| m.name.as_str()).collect();
        let mask = ProbeMask::from_patterns(&names, &["/g:".into()]).unwrap();
        assert_eq!(mask.len(), 1);
        assert!(ProbeMask::from_patterns(&names, &["nope".into()]).is_err());
    }

    #[test]
    fn output_mask_traces_the_outport_driver() {
        let compiled = counter_model();
        let mask = ProbeMask::outputs(&compiled);
        assert_eq!(mask.len(), 1);
        let case = TestCase::new(3.0f64.to_le_bytes().to_vec());
        let trace = trace_vm_case(&compiled, Engine::Flat, &case, &mask, 64);
        assert_eq!(trace.signals()[0].name, "m/g:0");
        let recs: Vec<&TraceRecord> = trace.records().collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].value, 6.0);
    }
}
