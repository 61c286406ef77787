//! Integration tests of the plateau detector wired into real campaigns:
//! event cadence on a synthetically stalled run, frontier-diff consistency
//! with `cftcg_coverage::frontier`, trajectory neutrality, and agreement
//! across worker counts.

use std::collections::BTreeMap;
use std::sync::Arc;

use cftcg_codegen::compile;
use cftcg_fuzz::{FuzzConfig, Fuzzer, ParallelFuzzConfig, ParallelFuzzer};
use cftcg_model::{BlockKind, DataType, ModelBuilder};
use cftcg_telemetry::{json::Json, SharedBuf, Telemetry};

/// A model whose lone saturation decision is covered within a handful of
/// random inputs — after that the campaign is permanently stalled, which is
/// exactly the synthetic plateau we want to watch.
fn trivial_model() -> cftcg_codegen::CompiledModel {
    let mut b = ModelBuilder::new("trivial");
    let u = b.inport("u", DataType::I16);
    let sat = b.add("sat", BlockKind::Saturation { lower: -100.0, upper: 100.0 });
    let y = b.outport("y");
    b.wire(u, sat);
    b.wire(sat, y);
    compile(&b.finish().expect("model builds")).expect("model compiles")
}

/// Parses the JSONL log and returns the `plateau` events.
fn plateau_events(log: &str) -> Vec<Json> {
    log.lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL {line:?}: {e}")))
        .filter(|j| j.get("type").and_then(Json::as_str) == Some("plateau"))
        .collect()
}

/// A stalled campaign fires exactly one `plateau` event per quiet window:
/// the event count equals the stalled executions divided by the window, and
/// each event's execution stamp advances.
#[test]
fn stalled_campaign_fires_one_event_per_quiet_window() {
    let compiled = trivial_model();
    let jsonl = SharedBuf::new();
    let telemetry = Arc::new(Telemetry::new().with_jsonl(jsonl.clone()));

    const WINDOW: u64 = 500;
    const EXECUTIONS: u64 = 3_000;
    let mut fuzzer = Fuzzer::new(
        &compiled,
        FuzzConfig {
            seed: 7,
            telemetry: Some(telemetry.clone()),
            plateau_window: Some(WINDOW),
            ..FuzzConfig::default()
        },
    );
    let outcome = fuzzer.run_executions(EXECUTIONS);
    assert_eq!(outcome.branch_coverage().percent(), 100.0, "trivial model saturates");

    // The detector re-anchors at the last coverage gain; after that the
    // run is one long stall, so the cadence is exact.
    let last_gain = outcome.events.last().expect("at least one discovery").executions;
    let expected = (EXECUTIONS - last_gain) / WINDOW;
    assert!(expected >= 2, "test needs a multi-window stall, got {expected}");

    let events = plateau_events(&jsonl.contents());
    assert_eq!(events.len() as u64, expected, "one event per quiet window");
    let mut previous = last_gain;
    for event in &events {
        let executions = event.get("executions").and_then(Json::as_f64).unwrap() as u64;
        assert_eq!(executions - previous, WINDOW, "windows tile the stall exactly");
        previous = executions;
        assert_eq!(event.get("window").and_then(Json::as_f64).unwrap() as u64, WINDOW);
        assert_eq!(event.get("open").and_then(Json::as_f64).unwrap(), 0.0, "fully covered");
        assert_eq!(event.get("frontier").and_then(Json::as_array).unwrap().len(), 0);
    }

    // The registry folded the same count.
    assert_eq!(telemetry.snapshot().plateaus, expected);
}

/// The frontier diff carried by a plateau event partitions cleanly against
/// `cftcg_coverage::frontier`: same open-goal count, and every diff row's
/// label and cause tag matches a frontier entry computed from the final
/// provenance.
#[test]
fn frontier_diff_partitions_against_coverage_frontier() {
    let model = cftcg_benchmarks::solar_pv::model();
    let compiled = compile(&model).expect("benchmark compiles");
    let jsonl = SharedBuf::new();
    let telemetry = Arc::new(Telemetry::new().with_jsonl(jsonl.clone()));

    let mut fuzzer = Fuzzer::new(
        &compiled,
        FuzzConfig {
            seed: 42,
            telemetry: Some(telemetry.clone()),
            plateau_window: Some(400),
            ..FuzzConfig::default()
        },
    );
    let outcome = fuzzer.run_executions(4_000);

    let events = plateau_events(&jsonl.contents());
    assert!(!events.is_empty(), "SolarPV under a 400-exec window must plateau at least once");

    // The final event's frontier must agree with the frontier recomputed
    // from the outcome's provenance (the run ends stalled, so the last
    // event saw the final coverage state).
    let entries = cftcg_coverage::frontier(compiled.map(), outcome.provenance.tracker());
    let last = events.last().unwrap();
    assert_eq!(
        last.get("open").and_then(Json::as_f64).unwrap() as usize,
        entries.len(),
        "open-goal count matches the coverage frontier"
    );
    let diff = last.get("frontier").and_then(Json::as_array).unwrap();
    assert_eq!(diff.len(), entries.len().min(cftcg_telemetry::PLATEAU_FRONTIER_CAP));
    for (row, entry) in diff.iter().zip(&entries) {
        assert_eq!(row.get("label").and_then(Json::as_str).unwrap(), entry.label);
        assert_eq!(row.get("cause").and_then(Json::as_str).unwrap(), entry.cause.tag());
    }

    // Covered + open partitions the goal universe: each event's covered
    // count plus its open count equals the total goal count it reports is
    // impossible to assert directly (open spans all goal kinds), but the
    // branch view must be consistent: covered <= total and open >= total -
    // covered (open includes condition/MC-DC goals beyond branches).
    for event in &events {
        let covered = event.get("covered").and_then(Json::as_f64).unwrap() as usize;
        let total = event.get("total").and_then(Json::as_f64).unwrap() as usize;
        let open = event.get("open").and_then(Json::as_f64).unwrap() as usize;
        assert!(covered <= total);
        assert!(open >= total - covered, "every uncovered branch goal is open");
    }
}

/// Arming the plateau detector must not perturb the fuzzing trajectory:
/// byte-identical suite and counters with and without it, sequential and
/// workers=1.
#[test]
fn plateau_detector_does_not_perturb_the_run() {
    let model = cftcg_benchmarks::solar_pv::model();
    let compiled = compile(&model).expect("benchmark compiles");

    let mut bare = Fuzzer::new(&compiled, FuzzConfig { seed: 42, ..FuzzConfig::default() });
    let expected = bare.run_executions(3_000);

    let telemetry = Arc::new(Telemetry::new().with_jsonl(SharedBuf::new()));
    let mut watched = Fuzzer::new(
        &compiled,
        FuzzConfig {
            seed: 42,
            telemetry: Some(telemetry.clone()),
            plateau_window: Some(250),
            ..FuzzConfig::default()
        },
    );
    let observed = watched.run_executions(3_000);
    assert_eq!(observed.suite, expected.suite);
    assert_eq!(observed.lineage, expected.lineage);
    assert_eq!(observed.covered_branches, expected.covered_branches);

    let par_telemetry = Arc::new(Telemetry::new().with_jsonl(SharedBuf::new()));
    let parallel = ParallelFuzzer::new(
        &compiled,
        ParallelFuzzConfig {
            workers: 1,
            sync_interval: 512,
            fuzz: FuzzConfig {
                seed: 42,
                telemetry: Some(par_telemetry),
                plateau_window: Some(250),
                ..FuzzConfig::default()
            },
            ..ParallelFuzzConfig::default()
        },
    );
    let merged = parallel.run_executions(3_000);
    assert_eq!(merged.suite, expected.suite);
    assert_eq!(merged.lineage, expected.lineage);
    assert_eq!(merged.covered_branches, expected.covered_branches);
}

/// The plateau watch runs in the campaign fold every worker count shares,
/// and fires at window boundaries rather than at observation points: a
/// sequential run and a `workers == 1` run (folded every 512 executions)
/// fire at the same executions and log the same events, and with two
/// workers no two events share an execution count.
#[test]
fn plateau_events_agree_across_worker_counts() {
    let model = cftcg_benchmarks::solar_pv::model();
    let compiled = compile(&model).expect("benchmark compiles");
    let config = |telemetry| FuzzConfig {
        seed: 42,
        telemetry: Some(telemetry),
        plateau_window: Some(250),
        ..FuzzConfig::default()
    };
    // The plateau stamps and per-kind event counts of one run.
    let run = |workers: Option<usize>| {
        let jsonl = SharedBuf::new();
        let telemetry = Arc::new(Telemetry::new().with_jsonl(jsonl.clone()));
        match workers {
            None => {
                Fuzzer::new(&compiled, config(telemetry)).run_executions(3_000);
            }
            Some(workers) => {
                let parallel = ParallelFuzzConfig {
                    workers,
                    sync_interval: 512,
                    fuzz: config(telemetry),
                    ..ParallelFuzzConfig::default()
                };
                ParallelFuzzer::new(&compiled, parallel).run_executions(3_000);
            }
        }
        let log = jsonl.contents();
        let stamps: Vec<u64> = plateau_events(&log)
            .iter()
            .map(|event| event.get("executions").and_then(Json::as_f64).unwrap() as u64)
            .collect();
        let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
        for line in log.lines() {
            let event = Json::parse(line).expect("valid JSONL");
            *kinds
                .entry(event.get("type").and_then(Json::as_str).unwrap().to_string())
                .or_default() += 1;
        }
        (stamps, kinds)
    };

    let (sequential, sequential_kinds) = run(None);
    assert!(sequential.len() >= 2, "SolarPV stalls past several 250-execution windows");
    assert!(!sequential_kinds.contains_key("sync-round"), "a sequential run has no sync rounds");

    let (one_worker, mut one_worker_kinds) = run(Some(1));
    assert_eq!(one_worker, sequential, "plateau stamps");
    assert!(one_worker_kinds.remove("sync-round").is_some());
    assert_eq!(one_worker_kinds, sequential_kinds, "per-kind event counts");

    let (two_workers, _) = run(Some(2));
    assert!(!two_workers.is_empty());
    assert!(
        two_workers.windows(2).all(|pair| pair[0] < pair[1]),
        "no two plateau events share an execution count: {two_workers:?}"
    );
}
