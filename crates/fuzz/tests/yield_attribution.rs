//! The mutation-yield accounting contract on a real (SolarPV smoke)
//! campaign: the outcome's per-operator yield matrix, the telemetry
//! registry's merged totals, and the `campaign-end` JSONL rows must all
//! agree — they are three views of the same counters.

use std::sync::Arc;

use cftcg_codegen::compile;
use cftcg_fuzz::{FuzzConfig, Fuzzer, ParallelFuzzConfig, ParallelFuzzer};
use cftcg_telemetry::json::Json;
use cftcg_telemetry::{Event, SharedBuf, Telemetry, YieldReport};

fn u(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("field {key} in {j:?}"))
}

#[test]
fn outcome_registry_and_jsonl_yield_rows_agree() {
    let model = cftcg_benchmarks::solar_pv::model();
    let compiled = compile(&model).expect("benchmark compiles");
    let jsonl = SharedBuf::new();
    let telemetry = Arc::new(Telemetry::new().with_jsonl(jsonl.clone()));

    let mut fuzzer = Fuzzer::new(
        &compiled,
        FuzzConfig { seed: 42, telemetry: Some(telemetry.clone()), ..FuzzConfig::default() },
    );
    let outcome = fuzzer.run_executions(4_000);
    let rows = outcome.yield_reports();
    assert!(rows.iter().any(|r| r.executed > 0), "the campaign executed mutated inputs");

    // View 2: the registry's merged shard totals.
    let registry_rows = telemetry.snapshot().yield_reports();
    assert_eq!(rows, registry_rows, "outcome and registry yield matrices agree");

    // Emit the campaign-end event the CLI would and read view 3 back from
    // the JSONL stream.
    telemetry.emit(&Event::CampaignEnd {
        executions: outcome.executions,
        iterations: outcome.iterations,
        covered: outcome.covered_branches,
        total: compiled.map().branch_count(),
        violations: outcome.violations.len(),
        elapsed_s: outcome.elapsed.as_secs_f64(),
        iterations_per_second: outcome.iterations_per_second(),
        yields: rows.clone(),
    });
    telemetry.flush();
    let log = jsonl.contents();
    let end = log
        .lines()
        .map(|l| Json::parse(l).expect("valid JSONL"))
        .find(|j| j.get("type").and_then(Json::as_str) == Some("campaign-end"))
        .expect("campaign-end event present");
    let event_rows: Vec<YieldReport> = end
        .get("yields")
        .and_then(Json::as_array)
        .expect("yields array on campaign-end")
        .iter()
        .map(|y| YieldReport {
            name: y.get("name").and_then(Json::as_str).unwrap().to_string(),
            executed: u(y, "executed"),
            new_coverage: u(y, "new_coverage"),
            corpus_insert: u(y, "corpus_insert"),
            violation: u(y, "violation"),
        })
        .collect();
    assert_eq!(rows, event_rows, "JSONL campaign-end rows round-trip the matrix");

    // Internal consistency of each row: outcomes are subsets of executed.
    for row in &rows {
        assert!(row.new_coverage <= row.executed, "{row:?}");
        assert!(row.corpus_insert <= row.executed, "{row:?}");
        assert!(row.violation <= row.executed, "{row:?}");
    }
}

#[test]
fn workers1_parallel_yield_matrix_matches_sequential() {
    let model = cftcg_benchmarks::solar_pv::model();
    let compiled = compile(&model).expect("benchmark compiles");

    let mut sequential = Fuzzer::new(&compiled, FuzzConfig { seed: 42, ..FuzzConfig::default() });
    let expected = sequential.run_executions(3_000);

    let parallel = ParallelFuzzer::new(
        &compiled,
        ParallelFuzzConfig {
            workers: 1,
            sync_interval: 512,
            fuzz: FuzzConfig { seed: 42, ..FuzzConfig::default() },
            ..ParallelFuzzConfig::default()
        },
    );
    let merged = parallel.run_executions(3_000);
    assert_eq!(
        expected.yield_reports(),
        merged.yield_reports(),
        "the merged workers=1 yield matrix is byte-identical to sequential"
    );
}
