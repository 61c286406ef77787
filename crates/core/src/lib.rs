#![warn(missing_docs)]

//! The CFTCG pipeline — the paper's tool, end to end.
//!
//! [`Cftcg`] wires together the two halves of the paper's Figure 2:
//!
//! 1. **Fuzzing Code Generation** — construction parses and validates the
//!    model, generates the fuzz driver (tuple layout + emitted C), and
//!    compiles the branch-instrumented fuzz code ([`cftcg_codegen`]).
//! 2. **Model Oriented Fuzzing Loop** — [`Cftcg::generate`] runs the
//!    tuple-aware fuzzer with iteration-difference-coverage feedback
//!    ([`cftcg_fuzz`]) under a wall-clock or execution budget.
//!
//! The result is a [`Generation`] (the emitted test suite with timestamps)
//! which [`Cftcg::score`] replays through the instrumented program for the
//! paper's three metrics, and which can be exported to Simulink-style CSV.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use cftcg_core::Cftcg;
//! use cftcg_model::{BlockKind, DataType, ModelBuilder};
//!
//! let mut b = ModelBuilder::new("clip");
//! let u = b.inport("u", DataType::I16);
//! let sat = b.add("sat", BlockKind::Saturation { lower: -50.0, upper: 50.0 });
//! let y = b.outport("y");
//! b.wire(u, sat);
//! b.wire(sat, y);
//! let model = b.finish()?;
//!
//! let cftcg = Cftcg::new(&model)?;
//! let generation = cftcg.generate_executions(5_000, 7);
//! let report = cftcg.score(&generation);
//! assert_eq!(report.decision.percent(), 100.0);
//! assert!(cftcg.fuzz_driver_c().contains("FuzzTestOneInput"));
//! # Ok(())
//! # }
//! ```

mod campaign;
mod html;

pub use campaign::{parse_case_id, CampaignArtifact, CampaignCase, CampaignHit, HostMeta};
pub use html::campaign_explorer_html;

use std::time::Duration;

use cftcg_codegen::{
    compile, emit_c, emit_driver_c, replay_suite, CompileError, CompiledModel, TestCase,
};
use cftcg_coverage::CoverageReport;
use cftcg_fuzz::{FuzzConfig, Fuzzer, Generation, ParallelFuzzConfig, ParallelFuzzer};
use cftcg_model::Model;

/// A ready-to-fuzz model: the output of CFTCG's code generation stage.
#[derive(Debug, Clone)]
pub struct Cftcg {
    compiled: CompiledModel,
    config: FuzzConfig,
}

impl Cftcg {
    /// Runs fuzzing code generation on a model: validation, fuzz driver
    /// derivation, branch instrumentation, compilation.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the model is invalid.
    pub fn new(model: &Model) -> Result<Self, CompileError> {
        Ok(Cftcg { compiled: compile(model)?, config: FuzzConfig::default() })
    }

    /// Overrides the fuzzing-loop configuration (mutation/corpus/feedback
    /// knobs; the seed is supplied per run).
    pub fn with_config(mut self, config: FuzzConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs per-inport value-range constraints for input mutation — the
    /// paper's §5 extension for taming oversized integer domains. One range
    /// per inport, in port order.
    pub fn with_input_ranges(mut self, ranges: Vec<cftcg_fuzz::FieldRange>) -> Self {
        self.config.input_ranges = Some(ranges);
        self
    }

    /// Attaches a telemetry registry: the fuzzing loop (sequential or
    /// parallel) records counters/histograms into it and emits events to
    /// its sinks. Pure observation — the fuzzing trajectory is unchanged.
    pub fn with_telemetry(mut self, telemetry: std::sync::Arc<cftcg_telemetry::Telemetry>) -> Self {
        self.config.telemetry = Some(telemetry);
        self
    }

    /// Attaches a span-trace buffer: the fuzzing loop records sampled
    /// per-phase trace events (mutation, execution, sync, ...) into it for
    /// Chrome-trace export. Pure observation, like telemetry — the fuzzing
    /// trajectory is unchanged.
    pub fn with_span_trace(mut self, trace: cftcg_telemetry::SpanTrace) -> Self {
        self.config.span_trace = Some(trace);
        self
    }

    /// Arms the plateau watcher: with a telemetry registry attached, a
    /// `plateau` JSONL event fires — with a frontier diff naming the
    /// still-open goals — every time `window` executions pass without a
    /// coverage gain. Pure observation; the fuzzing trajectory is unchanged.
    pub fn with_plateau_window(mut self, window: u64) -> Self {
        self.config.plateau_window = Some(window);
        self
    }

    /// Installs a trace hook observing every coverage-earning case the
    /// fuzzing loop emits (`hook(case_bytes, case_id)`). Pure observation —
    /// the hook consumes no fuzzer RNG and fires after emission, so
    /// outcomes are byte-identical with or without it (enforced by test).
    pub fn with_trace_hook(mut self, hook: cftcg_fuzz::TraceHook) -> Self {
        self.config.trace_hook = Some(hook);
        self
    }

    /// The compiled, instrumented model.
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// The generated fuzz driver as C source (the paper's Figure 3).
    pub fn fuzz_driver_c(&self) -> String {
        emit_driver_c(&self.compiled)
    }

    /// The instrumented step function as C source (the paper's Figure 4
    /// instrumentation, synthesized).
    pub fn fuzz_code_c(&self) -> String {
        emit_c(&self.compiled)
    }

    /// The execution engine the fuzzing loops will run on, after applying
    /// the `CFTCG_ENGINE` override and unsupported-tier fallback — see
    /// [`FuzzConfig::resolved_engine`].
    pub fn engine(&self) -> cftcg_codegen::Engine {
        self.config.resolved_engine()
    }

    /// Runs the model-oriented fuzzing loop for a wall-clock budget.
    pub fn generate(&self, budget: Duration, seed: u64) -> Generation {
        let mut fuzzer = self.fuzzer(seed);
        let mut generation: Generation = fuzzer.run_for(budget).into();
        generation.notes = format!(
            "CFTCG: {} branches covered of {}",
            fuzzer.covered_branches(),
            self.compiled.map().branch_count()
        );
        generation
    }

    /// Runs the loop for an exact number of input executions
    /// (deterministic given the seed; used by tests and budget-matched
    /// experiments).
    pub fn generate_executions(&self, executions: u64, seed: u64) -> Generation {
        let mut fuzzer = self.fuzzer(seed);
        fuzzer.run_executions(executions).into()
    }

    /// Runs the sharded parallel fuzzing loop across `workers` shards for a
    /// wall-clock budget, merging coverage and corpora on a sync interval.
    /// With `workers == 1` this degrades gracefully to the sequential loop.
    pub fn generate_parallel(&self, budget: Duration, seed: u64, workers: usize) -> Generation {
        let fuzzer = self.parallel_fuzzer(seed, workers);
        let outcome = fuzzer.run_for(budget);
        let covered = outcome.covered_branches;
        let mut generation: Generation = outcome.into();
        generation.notes = format!(
            "CFTCG ({workers} workers): {} branches covered of {}",
            covered,
            self.compiled.map().branch_count()
        );
        generation
    }

    /// Runs the parallel loop for an exact number of executions split
    /// across `workers` shards (deterministic given seed and worker count;
    /// with one worker, byte-identical to [`Cftcg::generate_executions`]).
    pub fn generate_parallel_executions(
        &self,
        executions: u64,
        seed: u64,
        workers: usize,
    ) -> Generation {
        self.parallel_fuzzer(seed, workers).run_executions(executions).into()
    }

    /// Scores a generation's suite with the common replay yardstick.
    pub fn score(&self, generation: &Generation) -> CoverageReport {
        replay_suite(&self.compiled, &generation.suite)
    }

    /// Minimizes a generated suite: shrinks every case to the tuples its
    /// coverage needs, then drops cases contributing no unique coverage.
    /// The result covers the same *branches* (decision outcomes) with far
    /// fewer, shorter cases; condition/MCDC evidence is usually preserved
    /// but is not guaranteed (minimization tracks the branch bitmap only,
    /// like the fuzzing loop itself).
    pub fn minimize(&self, suite: &[TestCase]) -> Vec<TestCase> {
        let shrunk: Vec<TestCase> =
            suite.iter().map(|case| cftcg_fuzz::minimize_case(&self.compiled, case)).collect();
        cftcg_fuzz::minimize_suite(&self.compiled, &shrunk)
    }

    /// Exports a suite to Simulink-replayable CSV documents, one per test
    /// case (the paper's binary→CSV converter).
    pub fn export_csv(&self, suite: &[TestCase]) -> Vec<String> {
        suite
            .iter()
            .map(|case| cftcg_codegen::test_case_to_csv(self.compiled.layout(), case))
            .collect()
    }

    fn fuzzer(&self, seed: u64) -> Fuzzer<'_> {
        Fuzzer::new(&self.compiled, FuzzConfig { seed, ..self.config.clone() })
    }

    fn parallel_fuzzer(&self, seed: u64, workers: usize) -> ParallelFuzzer<'_> {
        ParallelFuzzer::new(
            &self.compiled,
            ParallelFuzzConfig {
                workers,
                fuzz: FuzzConfig { seed, ..self.config.clone() },
                ..ParallelFuzzConfig::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_model::{BlockKind, DataType, ModelBuilder};

    fn small_pipeline() -> Cftcg {
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::I8);
        let sat = b.add("sat", BlockKind::Saturation { lower: -10.0, upper: 10.0 });
        let y = b.outport("y");
        b.wire(u, sat);
        b.wire(sat, y);
        Cftcg::new(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn pipeline_emits_code_and_suite() {
        let cftcg = small_pipeline();
        assert!(cftcg.fuzz_driver_c().contains("dataLen = 1"));
        assert!(cftcg.fuzz_code_c().contains("CoverageStatistics"));
        let generation = cftcg.generate_executions(2_000, 1);
        assert!(!generation.suite.is_empty());
        let report = cftcg.score(&generation);
        assert_eq!(report.decision.percent(), 100.0);
        let csvs = cftcg.export_csv(&generation.suite);
        assert_eq!(csvs.len(), generation.suite.len());
        assert!(csvs[0].starts_with("u\n"));
    }

    #[test]
    fn invalid_model_is_rejected() {
        let mut b = ModelBuilder::new("m");
        b.add("g", BlockKind::Gain { gain: 1.0 });
        assert!(Cftcg::new(&b.finish_unchecked()).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let cftcg = small_pipeline();
        let a = cftcg.generate_executions(500, 42);
        let b = cftcg.generate_executions(500, 42);
        assert_eq!(a.suite, b.suite);
    }

    #[test]
    fn parallel_one_worker_matches_sequential_facade() {
        let cftcg = small_pipeline();
        let seq = cftcg.generate_executions(1_000, 11);
        let par = cftcg.generate_parallel_executions(1_000, 11, 1);
        assert_eq!(par.suite, seq.suite);
        assert_eq!(par.executions, seq.executions);
        assert_eq!(par.iterations, seq.iterations);
    }

    #[test]
    fn parallel_generation_scores_like_sequential() {
        let cftcg = small_pipeline();
        let generation = cftcg.generate_parallel_executions(2_000, 3, 2);
        let report = cftcg.score(&generation);
        assert_eq!(report.decision.percent(), 100.0);
    }

    #[test]
    fn pipeline_covers_solar_pv_reasonably_fast() {
        let cftcg = Cftcg::new(&cftcg_benchmarks::solar_pv::model()).unwrap();
        let generation = cftcg.generate_executions(6_000, 5);
        let report = cftcg.score(&generation);
        assert!(
            report.decision.percent() > 50.0,
            "6k executions should cover most of SolarPV, got {}",
            report.decision
        );
    }
}
