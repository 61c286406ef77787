//! The generator-agnostic outcome type shared by every test-case generator
//! in this reproduction (CFTCG itself and all baselines), plus the replay
//! helper that turns a suite into the coverage-vs-time curve of the paper's
//! Figure 7.

use std::time::Duration;

use cftcg_codegen::{CompiledModel, Executor, TestCase};
use cftcg_coverage::{BranchBitmap, ProvenanceTracker};

use crate::fuzzer::CaseMeta;
use crate::lineage::LineageRecord;

/// The output of one generator run.
#[derive(Debug, Clone, Default)]
pub struct Generation {
    /// Emitted test cases, in emission order.
    pub suite: Vec<TestCase>,
    /// Emission timestamp of each case (same length as `suite`).
    pub case_times: Vec<Duration>,
    /// Forensic metadata per suite entry (empty for generators that do not
    /// track it; same length and order as `suite` otherwise).
    pub suite_meta: Vec<CaseMeta>,
    /// Input lineage records, in mint order (empty for non-fuzzing
    /// generators, whose cases have no mutation ancestry).
    pub lineage: Vec<LineageRecord>,
    /// Per-goal first-hit provenance (`None` for generators that do not
    /// track it).
    pub provenance: Option<ProvenanceTracker>,
    /// Test inputs executed (or solver probes performed).
    pub executions: u64,
    /// Model iterations executed across all inputs.
    pub iterations: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Tool-specific diagnostics (e.g. "state explosion at depth 4").
    pub notes: String,
    /// Assertion violations discovered: `(assertion index, witness input)`.
    pub violations: Vec<(usize, TestCase)>,
    /// Per-operator × outcome yield matrix (empty for non-fuzzing
    /// generators; Table 1 order for fuzzing runs).
    pub yields: cftcg_telemetry::YieldMatrix,
}

impl Generation {
    /// Model iterations per second achieved by the generator's engine.
    /// Zero when no time has elapsed (see
    /// [`FuzzOutcome::iterations_per_second`](crate::FuzzOutcome::iterations_per_second)).
    pub fn iterations_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.iterations as f64 / secs
        }
    }

    /// The yield matrix as telemetry report rows (Table 1 order; empty for
    /// generators that recorded no yields).
    pub fn yield_reports(&self) -> Vec<cftcg_telemetry::YieldReport> {
        if self.yields.is_empty() {
            return Vec::new();
        }
        self.yields.reports(crate::MutationKind::ALL.map(crate::MutationKind::name))
    }
}

impl From<crate::FuzzOutcome> for Generation {
    fn from(outcome: crate::FuzzOutcome) -> Self {
        Generation {
            case_times: outcome.events.iter().map(|e| e.elapsed).collect(),
            suite: outcome.suite,
            suite_meta: outcome.suite_meta,
            lineage: outcome.lineage,
            provenance: Some(outcome.provenance),
            executions: outcome.executions,
            iterations: outcome.iterations,
            elapsed: outcome.elapsed,
            notes: String::new(),
            violations: outcome.violations,
            yields: outcome.yields,
        }
    }
}

/// Replays a generation's suite in emission order and returns the
/// branch-coverage growth curve `(elapsed, covered branches)` — the data
/// behind the paper's Figure 7. The curve ends with a final point at
/// `generation.elapsed`.
pub fn coverage_series(
    compiled: &CompiledModel,
    generation: &Generation,
) -> Vec<(Duration, usize)> {
    // Branch flags are sticky, so each case records straight into the
    // running total.
    let mut exec = Executor::new(compiled);
    let mut total = BranchBitmap::new(compiled.map().branch_count());
    let mut series = Vec::new();
    for (case, &at) in generation.suite.iter().zip(&generation.case_times) {
        exec.run_case(case, &mut total);
        let covered = total.count();
        if series.last().map(|&(_, c)| c) != Some(covered) {
            series.push((at, covered));
        }
    }
    series.push((generation.elapsed, total.count()));
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_generation_series_is_flat() {
        use cftcg_model::{BlockKind, DataType, ModelBuilder};
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::U8);
        let sat = b.add("s", BlockKind::Saturation { lower: 1.0, upper: 2.0 });
        let y = b.outport("y");
        b.wire(u, sat);
        b.wire(sat, y);
        let compiled = cftcg_codegen::compile(&b.finish().unwrap()).unwrap();
        let generation = Generation { elapsed: Duration::from_secs(1), ..Default::default() };
        let series = coverage_series(&compiled, &generation);
        assert_eq!(series, vec![(Duration::from_secs(1), 0)]);
    }

    #[test]
    fn fuzz_outcome_converts() {
        use cftcg_model::{BlockKind, DataType, ModelBuilder};
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::U8);
        let sat = b.add("s", BlockKind::Saturation { lower: 10.0, upper: 20.0 });
        let y = b.outport("y");
        b.wire(u, sat);
        b.wire(sat, y);
        let compiled = cftcg_codegen::compile(&b.finish().unwrap()).unwrap();
        let mut fuzzer = crate::Fuzzer::new(&compiled, crate::FuzzConfig::default());
        let outcome = fuzzer.run_executions(500);
        let generation: Generation = outcome.clone().into();
        assert_eq!(generation.suite.len(), outcome.suite.len());
        assert_eq!(generation.case_times.len(), generation.suite.len());
        let series = coverage_series(&compiled, &generation);
        assert_eq!(series.last().unwrap().1, outcome.covered_branches);
    }
}
