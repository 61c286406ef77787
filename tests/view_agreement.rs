//! Every view of a campaign reports the same numbers: the fuzzer's own
//! outcome, the Prometheus exposition, the `/snapshot` JSON, the final
//! status line and the JSONL event log all render one registry, so the
//! executions, resumed ticks, covered branches, violations, plateaus,
//! corpus evictions and execution rate each view exposes must agree —
//! including on a two-worker campaign where both shards witness the same
//! assertion.

use std::sync::Arc;
use std::time::Duration;

use cftcg::codegen::compile;
use cftcg::fuzz::{FuzzConfig, ParallelFuzzConfig, ParallelFuzzer};
use cftcg::model::{BlockKind, DataType, Model, ModelBuilder, RelOp};
use cftcg::observe::Observatory;
use cftcg::telemetry::json::Json;
use cftcg::telemetry::{SharedBuf, Telemetry};

/// A plant with the safety property "output stays below 100", which a
/// sustained positive input violates.
fn guarded_model() -> Model {
    let mut b = ModelBuilder::new("guarded");
    let u = b.inport("u", DataType::I8);
    let integ = b.add(
        "integ",
        BlockKind::DiscreteIntegrator {
            gain: 1.0,
            initial: 0.0,
            lower: Some(-500.0),
            upper: Some(500.0),
        },
    );
    let u_f = b.add("u_f", BlockKind::DataTypeConversion { to: DataType::F64 });
    b.wire(u, u_f);
    b.wire(u_f, integ);
    let ok = b.add("ok", BlockKind::Compare { op: RelOp::Lt, constant: 100.0 });
    b.wire(integ, ok);
    let guard = b.add("safety", BlockKind::Assertion);
    b.wire(ok, guard);
    let y = b.outport("y");
    b.wire(integ, y);
    b.finish().unwrap()
}

/// The value of an unlabeled Prometheus sample.
fn prom<T: std::str::FromStr<Err: std::fmt::Display>>(text: &str, name: &str) -> T {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from the exposition"))
        .parse()
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The number right after `key` in the status line (digit groups joined).
fn status(line: &str, key: &str) -> u64 {
    let rest = line.split(key).nth(1).unwrap_or_else(|| panic!("{key:?} missing: {line}"));
    let digits: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == ',')
        .filter(|c| *c != ',')
        .collect();
    digits.parse().unwrap_or_else(|e| panic!("{key:?} in {line}: {e}"))
}

#[test]
fn every_view_reports_the_same_campaign_numbers() {
    let compiled = compile(&guarded_model()).expect("model compiles");
    for seed in 0..=2u64 {
        let events = SharedBuf::new();
        let status_out = SharedBuf::new();
        let telemetry = Arc::new(
            Telemetry::new()
                .with_jsonl(events.clone())
                .with_status_to(Duration::from_secs(3600), status_out.clone())
                .with_plateau_window(250),
        );
        let outcome = ParallelFuzzer::new(
            &compiled,
            ParallelFuzzConfig {
                workers: 2,
                sync_interval: 512,
                fuzz: FuzzConfig {
                    seed,
                    telemetry: Some(Arc::clone(&telemetry)),
                    ..FuzzConfig::default()
                },
                ..ParallelFuzzConfig::default()
            },
        )
        .run_executions(4_000);
        telemetry.status_tick(true);
        telemetry.flush();
        assert!(!outcome.violations.is_empty(), "seed {seed}: the violation must be found");
        assert!(outcome.resumed_ticks > 0, "seed {seed}: mutants resume from checkpoints");

        let metrics = telemetry.prometheus_text();
        let snapshot =
            Json::parse(&Observatory::new(Arc::clone(&telemetry), "guarded").snapshot_json())
                .expect("snapshot is valid JSON");
        let field = |key: &str| snapshot.get(key).and_then(Json::as_u64).expect(key);
        let status_lines = status_out.contents();
        let line = status_lines.lines().last().expect("a final status line");
        let log = events.contents();
        let lines: Vec<Json> = log.lines().map(|l| Json::parse(l).expect("JSONL parses")).collect();
        let is = |e: &Json, kind: &str| e.get("type").and_then(Json::as_str) == Some(kind);
        let count = |kind: &str| lines.iter().filter(|e| is(e, kind)).count() as u64;
        let last_round =
            lines.iter().rfind(|e| is(e, "sync-round")).expect("sync rounds were logged");
        let round = |key: &str| last_round.get(key).and_then(Json::as_u64).expect(key);

        let executions = outcome.executions;
        let covered = outcome.covered_branches as u64;
        let violations = outcome.violations.len() as u64;
        let plateaus = count("plateau");
        let evictions = count("corpus-evict");
        let views = [
            (
                "executions",
                executions,
                vec![
                    ("prometheus", prom(&metrics, "cftcg_executions_total")),
                    ("/snapshot", field("executions")),
                    ("status line", status(line, "execs ")),
                    ("JSONL sync-round", round("executions")),
                ],
            ),
            (
                "resumed ticks",
                outcome.resumed_ticks,
                vec![
                    ("prometheus", prom(&metrics, "cftcg_resumed_ticks_total")),
                    ("/snapshot", field("resumed_ticks")),
                ],
            ),
            (
                "covered branches",
                covered,
                vec![
                    ("prometheus", prom(&metrics, "cftcg_covered_branches")),
                    ("/snapshot", field("covered")),
                    ("status line", status(line, "branches ")),
                    ("JSONL sync-round", round("covered")),
                ],
            ),
            (
                "violations",
                violations,
                vec![
                    ("prometheus", prom(&metrics, "cftcg_violations_total")),
                    ("/snapshot", field("violations")),
                    ("status line", status(line, "viols ")),
                    ("JSONL violation events", count("violation")),
                ],
            ),
            (
                "plateaus",
                plateaus,
                vec![
                    ("prometheus", prom(&metrics, "cftcg_plateaus_total")),
                    ("/snapshot", field("plateaus")),
                ],
            ),
            (
                "corpus evictions",
                evictions,
                vec![
                    ("prometheus", prom(&metrics, "cftcg_corpus_evictions_total")),
                    ("/snapshot", field("corpus_evictions")),
                ],
            ),
        ];
        for (number, expected, observed) in views {
            for (view, value) in observed {
                assert_eq!(value, expected, "seed {seed}: {number} in {view} (status: {line})");
            }
        }
        // The rate is a float; Prometheus prints it to one decimal.
        let prom_rate: f64 = prom(&metrics, "cftcg_execs_per_second");
        let snapshot_rate = snapshot.get("execs_per_sec").and_then(Json::as_f64).expect("rate");
        assert!(
            (prom_rate - snapshot_rate).abs() <= 0.05 + 1e-9 * snapshot_rate,
            "seed {seed}: execs/s in prometheus {prom_rate} vs /snapshot {snapshot_rate}"
        );
    }
}

/// `cftcg report` reads the campaign-end event of the JSONL log, which the
/// CLI renders from the same registry as the Prometheus file: both name the
/// same resumed-tick count.
#[test]
fn report_and_prometheus_agree_on_resumed_ticks() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (jsonl, metrics) = (dir.join("resume_view.jsonl"), dir.join("resume_view.prom"));
    let model = format!("{}/models/solarpv.mdlx", env!("CARGO_MANIFEST_DIR"));
    let cftcg = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cftcg"))
            .args(args)
            .output()
            .expect("cftcg runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("UTF-8 output")
    };
    cftcg(&[
        "fuzz",
        &model,
        "--budget-ms",
        "300",
        "--stats-jsonl",
        jsonl.to_str().unwrap(),
        "--prom",
        metrics.to_str().unwrap(),
    ]);
    let report = cftcg(&["report", jsonl.to_str().unwrap()]);
    let line = report.lines().find(|l| l.starts_with("resume")).expect("a resume line");
    let resumed: u64 = line.split_whitespace().nth(2).expect("a count").parse().expect("a number");
    let text = std::fs::read_to_string(&metrics).expect("Prometheus file");
    assert_eq!(resumed, prom::<u64>(&text, "cftcg_resumed_ticks_total"), "report: {report}");
    assert!(resumed > 0, "mutants resume from checkpoints");
}
