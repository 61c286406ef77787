//! Integration tests of the sharded parallel engine: the `workers == 1`
//! determinism contract, per-worker-count reproducibility, and the
//! multi-worker coverage smoke test on a real benchmark model.

use std::sync::Arc;
use std::time::Duration;

use cftcg_codegen::compile;
use cftcg_coverage::{Goal, ProvenanceTracker};
use cftcg_fuzz::{FuzzConfig, FuzzOutcome, Fuzzer, ParallelFuzzConfig, ParallelFuzzer, TraceHook};
use cftcg_telemetry::{json::Json, SharedBuf, Telemetry};

fn config(seed: u64) -> FuzzConfig {
    FuzzConfig { seed, ..FuzzConfig::default() }
}

/// Provenance with wall-clock fields projected out: everything in a
/// [`FirstHit`](cftcg_coverage::FirstHit) except `elapsed`, which is the
/// one field that legitimately differs between a sequential run and its
/// `workers == 1` replay (discovery timestamps are wall-clock).
fn provenance_key(
    p: &ProvenanceTracker,
    map: &cftcg_coverage::InstrumentationMap,
) -> Vec<(Goal, u64, usize, u64, Vec<u8>)> {
    p.covered_goals(map)
        .into_iter()
        .map(|(goal, hit)| (goal, hit.executions, hit.shard, hit.case, hit.ops.clone()))
        .collect()
}

/// Asserts the forensic artifacts of a `workers == 1` run match the
/// sequential run's exactly (modulo wall-clock timestamps).
fn assert_forensics_match(
    merged: &FuzzOutcome,
    expected: &FuzzOutcome,
    map: &cftcg_coverage::InstrumentationMap,
) {
    assert_eq!(merged.suite_meta, expected.suite_meta, "suite metadata must be identical");
    assert_eq!(merged.lineage, expected.lineage, "lineage DAGs must be identical");
    assert_eq!(
        provenance_key(&merged.provenance, map),
        provenance_key(&expected.provenance, map),
        "per-goal provenance must be identical modulo elapsed"
    );
    assert_eq!(merged.provenance.tracker(), expected.provenance.tracker());
}

/// The determinism contract: one worker, same seed, execution budget ⇒ the
/// parallel engine is byte-identical to the sequential fuzzer. Nothing is
/// broadcast back to its own origin, so the single shard's trajectory is
/// exactly the sequential one, and the coordinator's re-execution merge
/// reconstructs the same suite, events, and counters.
#[test]
fn one_worker_matches_sequential_exactly() {
    let model = cftcg_benchmarks::solar_pv::model();
    let compiled = compile(&model).expect("benchmark compiles");

    let mut sequential = Fuzzer::new(&compiled, config(42));
    let expected = sequential.run_executions(4_000);

    let parallel = ParallelFuzzer::new(
        &compiled,
        ParallelFuzzConfig {
            workers: 1,
            sync_interval: 512, // several sync rounds, not one big batch
            fuzz: config(42),
            ..ParallelFuzzConfig::default()
        },
    );
    let merged = parallel.run_executions(4_000);

    assert_eq!(merged.suite, expected.suite, "suites must be byte-identical");
    assert_eq!(merged.executions, expected.executions);
    assert_eq!(merged.iterations, expected.iterations);
    assert_eq!(merged.branch_count, expected.branch_count);
    assert_eq!(merged.covered_branches, expected.covered_branches);
    assert_eq!(merged.events.len(), expected.events.len());
    for (m, e) in merged.events.iter().zip(&expected.events) {
        assert_eq!(m.executions, e.executions);
        assert_eq!(m.covered_branches, e.covered_branches);
    }
    assert_eq!(
        merged.violations.iter().map(|(a, c)| (*a, &c.bytes)).collect::<Vec<_>>(),
        expected.violations.iter().map(|(a, c)| (*a, &c.bytes)).collect::<Vec<_>>(),
    );
    assert_forensics_match(&merged, &expected, compiled.map());
    // Provenance's embedded tracker is the union of the suite's
    // observations, so its goal counts agree with scoring the suite.
    let (d, c, m) = merged.provenance.covered_counts();
    assert!(d > 0, "a real campaign hits decision goals");
    assert!(c > 0 && m <= compiled.map().condition_count());
}

/// Telemetry is pure observation: attaching a registry with live sinks must
/// not perturb the fuzzing trajectory. A `workers == 1` run with JSONL and
/// status sinks attached stays byte-identical to the bare sequential
/// fuzzer, the registry's totals agree with the outcome's counters, and
/// every logged line is valid JSON.
#[test]
fn one_worker_with_telemetry_stays_byte_identical() {
    let model = cftcg_benchmarks::solar_pv::model();
    let compiled = compile(&model).expect("benchmark compiles");

    let mut sequential = Fuzzer::new(&compiled, config(42));
    let expected = sequential.run_executions(4_000);

    let jsonl = SharedBuf::new();
    let telemetry = Arc::new(
        Telemetry::new()
            .with_jsonl(jsonl.clone())
            .with_status_to(Duration::from_millis(0), SharedBuf::new()),
    );
    let parallel = ParallelFuzzer::new(
        &compiled,
        ParallelFuzzConfig {
            workers: 1,
            sync_interval: 512,
            fuzz: FuzzConfig { telemetry: Some(telemetry.clone()), ..config(42) },
            ..ParallelFuzzConfig::default()
        },
    );
    let merged = parallel.run_executions(4_000);

    assert_eq!(merged.suite, expected.suite, "telemetry must not perturb the run");
    assert_eq!(merged.executions, expected.executions);
    assert_eq!(merged.iterations, expected.iterations);
    assert_eq!(merged.covered_branches, expected.covered_branches);
    assert_forensics_match(&merged, &expected, compiled.map());

    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.totals.executions, expected.executions);
    assert_eq!(snapshot.totals.iterations, expected.iterations);
    assert_eq!(snapshot.covered, merged.covered_branches);
    assert!(!snapshot.totals.exec_latency_ns.is_empty(), "latency timing was on");

    let log = jsonl.contents();
    assert!(!log.is_empty(), "sync rounds and discoveries were logged");
    for line in log.lines() {
        Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
    }

    // Attribution reached the outcome: every execution belongs to at least
    // one operator, and the per-operator totals are internally consistent.
    let rows = merged.yield_reports();
    let attributed: u64 = rows.iter().map(|row| row.executed).sum();
    assert!(attributed >= merged.executions, "every execution has ≥1 operator");
    for row in &rows {
        assert!(row.new_coverage <= row.executed, "{}", row.name);
    }
}

/// The tracing layer's byte-identity invariant: installing a trace hook —
/// or leaving tracing disabled — must not change anything the fuzzer
/// produces. The hook fires strictly after a case is booked and consumes
/// no fuzzer RNG, so a hooked run (sequential or `workers == 1`) is
/// byte-identical to the bare run, while the hook still observes every
/// emitted case with its stable id.
#[test]
fn trace_hook_does_not_perturb_fuzzing_outcomes() {
    let model = cftcg_benchmarks::solar_pv::model();
    let compiled = compile(&model).expect("benchmark compiles");

    let mut bare = Fuzzer::new(&compiled, config(42));
    let expected = bare.run_executions(4_000);

    type SeenCases = std::sync::Mutex<Vec<(u64, Vec<u8>)>>;
    let seen: Arc<SeenCases> = Arc::default();
    let sink = seen.clone();
    let hook = TraceHook::new(move |bytes, case| {
        sink.lock().unwrap().push((case, bytes.to_vec()));
    });
    let mut hooked =
        Fuzzer::new(&compiled, FuzzConfig { trace_hook: Some(hook.clone()), ..config(42) });
    let observed = hooked.run_executions(4_000);

    assert_eq!(observed.suite, expected.suite, "suites must be byte-identical");
    assert_eq!(observed.executions, expected.executions);
    assert_eq!(observed.iterations, expected.iterations);
    assert_eq!(observed.covered_branches, expected.covered_branches);
    assert_eq!(observed.events.len(), expected.events.len());
    for (o, e) in observed.events.iter().zip(&expected.events) {
        assert_eq!(o.executions, e.executions);
        assert_eq!(o.covered_branches, e.covered_branches);
    }
    assert_eq!(
        observed.violations.iter().map(|(a, c)| (*a, &c.bytes)).collect::<Vec<_>>(),
        expected.violations.iter().map(|(a, c)| (*a, &c.bytes)).collect::<Vec<_>>(),
    );
    assert_forensics_match(&observed, &expected, compiled.map());

    // The hook saw exactly the emitted suite, in order, with stable ids.
    {
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), expected.suite.len(), "hook fires once per emitted case");
        for ((case_id, bytes), (meta, case)) in
            seen.iter().zip(expected.suite_meta.iter().zip(&expected.suite))
        {
            assert_eq!(*case_id, meta.case);
            assert_eq!(bytes, &case.bytes);
        }
    }

    // Same contract through the parallel engine: a hooked `workers == 1`
    // run still reconstructs the sequential trajectory exactly.
    seen.lock().unwrap().clear();
    let parallel = ParallelFuzzer::new(
        &compiled,
        ParallelFuzzConfig {
            workers: 1,
            sync_interval: 512,
            fuzz: FuzzConfig { trace_hook: Some(hook), ..config(42) },
            ..ParallelFuzzConfig::default()
        },
    );
    let merged = parallel.run_executions(4_000);
    assert_eq!(merged.suite, expected.suite, "hooked parallel run must match");
    assert_forensics_match(&merged, &expected, compiled.map());
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), expected.suite.len(), "hook fires on the coordinator merge");
}

/// Execution-budget runs are deterministic for a fixed worker count: worker
/// RNGs are seed-derived (`seed ^ worker_id`), rounds are lockstep, and the
/// coordinator merges in a deterministic order.
#[test]
fn multi_worker_runs_are_deterministic_per_worker_count() {
    let model = cftcg_benchmarks::solar_pv::model();
    let compiled = compile(&model).expect("benchmark compiles");

    let run = || {
        ParallelFuzzer::new(
            &compiled,
            ParallelFuzzConfig {
                workers: 3,
                sync_interval: 256,
                fuzz: config(7),
                ..ParallelFuzzConfig::default()
            },
        )
        .run_executions(3_000)
    };
    let a = run();
    let b = run();
    assert_eq!(a.suite, b.suite);
    assert_eq!(a.covered_branches, b.covered_branches);
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.events.len(), b.events.len());
    assert_eq!(a.suite_meta, b.suite_meta);
    assert_eq!(a.lineage, b.lineage);
    assert_eq!(
        provenance_key(&a.provenance, compiled.map()),
        provenance_key(&b.provenance, compiled.map())
    );
}

/// Multi-worker smoke test: at an equal execution budget, four synced
/// shards must cover at least as much as one sequential fuzzer (cross-shard
/// corpus broadcast means shards build on each other's discoveries).
#[test]
fn four_workers_cover_at_least_sequential_at_equal_budget() {
    let model = cftcg_benchmarks::solar_pv::model();
    let compiled = compile(&model).expect("benchmark compiles");
    const BUDGET: u64 = 8_000;

    let mut sequential = Fuzzer::new(&compiled, config(5));
    let seq = sequential.run_executions(BUDGET);

    let par = ParallelFuzzer::new(
        &compiled,
        ParallelFuzzConfig {
            workers: 4,
            sync_interval: 250,
            fuzz: config(5),
            ..ParallelFuzzConfig::default()
        },
    )
    .run_executions(BUDGET);

    assert_eq!(par.executions, BUDGET, "budget is split exactly");
    assert!(
        par.covered_branches >= seq.covered_branches,
        "4 workers covered {} < sequential {}",
        par.covered_branches,
        seq.covered_branches
    );
    // The merged suite replays to the merged coverage claim.
    let replayed = cftcg_codegen::replay_suite(&compiled, &par.suite);
    assert_eq!(replayed.decision.covered, par.covered_branches);
    // Events carry a monotone global coverage total.
    for pair in par.events.windows(2) {
        assert!(pair[0].covered_branches < pair[1].covered_branches);
    }
    assert_eq!(par.events.last().map(|e| e.covered_branches), Some(par.covered_branches));
    // Every merged suite entry's lineage resolves across shard boundaries:
    // the chain walks to a generation-phase root, never a dangling parent.
    assert_eq!(par.suite_meta.len(), par.suite.len());
    let lineage = cftcg_fuzz::Lineage::from_records(par.lineage.clone());
    for meta in &par.suite_meta {
        let chain = lineage.chain(meta.case);
        assert!(!chain.is_empty(), "case {} missing from lineage", meta.case);
        let root = chain.last().unwrap();
        assert!(root.parent.is_none(), "case {} ancestry truncated", meta.case);
    }
    // Per-goal provenance attributes every hit to a real shard and case.
    for (_, hit) in par.provenance.covered_goals(compiled.map()) {
        assert!(hit.shard < 4);
        assert!(lineage.get(hit.case).is_some(), "provenance case {} unknown", hit.case);
    }
}

/// Wall-clock mode: runs finish, produce work from every shard, and stay
/// within a sane envelope of the deadline.
#[test]
fn wall_clock_mode_terminates_and_merges() {
    let model = cftcg_benchmarks::solar_pv::model();
    let compiled = compile(&model).expect("benchmark compiles");

    let outcome = ParallelFuzzer::new(
        &compiled,
        ParallelFuzzConfig {
            workers: 2,
            sync_period: Duration::from_millis(25),
            fuzz: config(9),
            ..ParallelFuzzConfig::default()
        },
    )
    .run_for(Duration::from_millis(120));

    assert!(outcome.executions > 0);
    assert!(outcome.covered_branches > 0);
    assert!(outcome.elapsed >= Duration::from_millis(120));
    for pair in outcome.events.windows(2) {
        assert!(pair[0].covered_branches < pair[1].covered_branches);
    }
}
