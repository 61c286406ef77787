#![warn(missing_docs)]

//! Execution tracing for CFTCG: signal probes, waveform export, per-block
//! profiling, and a lockstep sim↔VM divergence auditor.
//!
//! A fuzzing campaign tells you *which* branches were reached; this crate
//! makes a *single execution* observable — the visibility Simulink users
//! get from Scope blocks, recovered for the compiled fuzzing path:
//!
//! * **Probes** ([`ProbeMask`], [`Trace`], [`trace_vm_case`]) — the
//!   compiler already dedicates one VM register per block output port
//!   ([`CompiledModel::signals`](cftcg_codegen::CompiledModel::signals)),
//!   so sampling a signal after a tick is one register read: tracing costs
//!   O(probed signals), not O(model), and zero extra instructions. Samples
//!   land in a bounded ring that keeps the most recent window.
//! * **Waveforms** ([`to_vcd`], [`to_csv`]) — captured traces export as
//!   VCD (viewable in GTKWave and friends) or CSV. `Bool` signals map to
//!   1-bit wires, numeric signals to 64-bit `real` variables.
//! * **Profiling** ([`BlockProfile`], [`profile_case`]) — the interpreter
//!   is generic over a [`BlockObserver`](cftcg_sim::BlockObserver); the
//!   profiler implementation attributes wall-clock nanoseconds per block
//!   kind into telemetry histograms ("hottest blocks").
//! * **Auditing** ([`Auditor`]) — both engines enumerate their signals in
//!   the same order with the same names, so the auditor steps them in
//!   lockstep over corpus or random inputs, compares every signal every
//!   tick, and localizes the first divergence (tick, block path, both
//!   values) by binary-searching the schedule order.
//!
//! Everything here runs at *replay* time. The fuzzing hot loop is
//! untouched: with tracing disabled, fuzzing outcomes are byte-identical.

mod audit;
mod probe;
mod profile;
mod vcd;

pub use audit::{AuditError, AuditReport, Auditor, Divergence};

/// The VM engine the replay paths (tracing, auditing) execute on: the
/// `CFTCG_ENGINE` override when set and supported on this build, otherwise
/// the flat VM. Replay favors the deterministic portable tier by default;
/// `CFTCG_ENGINE=jit` cross-checks native code, `=ref` the tree walker.
pub fn replay_engine() -> cftcg_codegen::Engine {
    cftcg_codegen::resolve_engine(None, cftcg_codegen::Engine::Flat)
}
pub use probe::{decode_tuple, trace_vm_case, ProbeMask, Trace, TraceRecord, TraceSignal};
pub use profile::{profile_case, BlockProfile};
pub use vcd::{to_csv, to_vcd};

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_codegen::{compile, TestCase};

    /// The whole benchmark suite must audit clean: the interpreter and the
    /// VM agree on every signal of every tick over random fuzz-like inputs.
    #[test]
    fn bundled_benchmarks_audit_clean() {
        for model in cftcg_benchmarks::all() {
            let compiled = compile(&model).unwrap();
            let mut auditor =
                Auditor::new(&model, &compiled).unwrap_or_else(|e| panic!("{}: {e}", model.name()));
            let report = auditor.audit_random(4, 24, 0xC0FFEE).unwrap();
            assert!(report.passed(), "{} diverged: {}", model.name(), report.divergence.unwrap());
        }
    }

    /// End-to-end: trace a case on a benchmark model and export both
    /// waveform formats.
    #[test]
    fn trace_and_export_roundtrip() {
        let model = cftcg_benchmarks::by_name("SolarPV").expect("bundled");
        let compiled = compile(&model).unwrap();
        let mask = ProbeMask::all(compiled.signals().len());
        let case = TestCase::new(vec![0x5A; compiled.layout().tuple_size() * 6]);
        let trace = trace_vm_case(&compiled, &case, &mask, 1 << 16);
        assert_eq!(trace.ticks(), 6);
        assert_eq!(trace.dropped(), 0);
        let vcd = to_vcd(&trace, compiled.name());
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("#5"));
        let csv = to_csv(&trace);
        assert_eq!(csv.lines().count(), 7); // header + 6 ticks
    }
}
