#![warn(missing_docs)]

//! Shared experiment-harness plumbing for the CFTCG evaluation binaries.
//!
//! Each binary regenerates one artifact of the paper's Section 4 (see
//! DESIGN.md's per-experiment index):
//!
//! | binary | artifact |
//! |---|---|
//! | `table2` | Table 2 — benchmark model statistics |
//! | `table3` | Table 3 — DC/CC/MCDC per tool per model + average improvements |
//! | `fig7` | Figure 7 — Decision Coverage vs time series per model |
//! | `fig8` | Figure 8 — CFTCG vs "Fuzz Only" |
//! | `speed` | §4 text — iterations/s: compiled loop vs simulation; SLDV memory blow-up |
//! | `ablation` | DESIGN.md A1/A2 — metric-weighted corpus and field-aware mutation |
//!
//! Budgets scale with the `CFTCG_BUDGET_MS` environment variable
//! (wall-clock per tool per model, default 3000) and `CFTCG_REPEATS`
//! (random-strategy repetitions averaged, default 3, paper: 10).

use std::time::Duration;

use cftcg_baselines::{fuzz_only, simcotest, sldv, Generation};
use cftcg_codegen::{compile, replay_suite, CompiledModel};
use cftcg_core::Cftcg;
use cftcg_coverage::CoverageReport;
use cftcg_model::Model;

pub mod paper;

/// Wall-clock budget per tool per model, from `CFTCG_BUDGET_MS` (ms).
pub fn budget() -> Duration {
    let ms = std::env::var("CFTCG_BUDGET_MS").ok().and_then(|s| s.parse().ok()).unwrap_or(3_000);
    Duration::from_millis(ms)
}

/// Number of repetitions for generators with random strategies, from
/// `CFTCG_REPEATS` (the paper repeats 10×).
pub fn repeats() -> u64 {
    std::env::var("CFTCG_REPEATS").ok().and_then(|s| s.parse().ok()).unwrap_or(3)
}

/// Fuzzing worker count for CFTCG runs: `--workers N` on the command line,
/// default 1 (sequential). Zero is clamped to 1.
pub fn workers() -> usize {
    let mut argv = std::env::args();
    let from_argv = loop {
        match argv.next() {
            Some(arg) if arg == "--workers" => {
                break argv.next().and_then(|v| v.parse().ok());
            }
            Some(arg) => {
                if let Some(v) = arg.strip_prefix("--workers=") {
                    break v.parse().ok();
                }
            }
            None => break None,
        }
    };
    from_argv.unwrap_or(1).max(1)
}

/// Records one benchmark observation into the append-only history
/// (`results/history/<bench>.jsonl` — the flat `results/BENCH_*.json`
/// snapshot still gets clobbered per run, but the history accumulates),
/// and, when the binary was invoked with `--check-regress`, gates the new
/// point against the trailing median of the *existing* history first.
///
/// Returns `false` when the gate tripped — the caller should exit
/// non-zero. A missing or incomparable history never fails the gate (first
/// run seeds it), and a broken history file only warns: recording
/// benchmarks must not make a bench run fail for bookkeeping reasons.
pub fn record_history(record: &cftcg_compare::HistoryRecord) -> bool {
    let check = std::env::args().any(|a| a == "--check-regress");
    let dir = std::path::Path::new("results");
    let mut ok = true;
    if check {
        match cftcg_compare::load_history(dir, &record.bench) {
            Ok(history) => {
                let violations =
                    cftcg_compare::check_regress(&history, record, cftcg_compare::DEFAULT_WINDOW);
                for v in &violations {
                    eprintln!("check-regress: {v}");
                }
                if violations.is_empty() {
                    println!(
                        "  check-regress: no regression against {} trailing record(s)",
                        history.len().min(cftcg_compare::DEFAULT_WINDOW)
                    );
                } else {
                    ok = false;
                }
            }
            Err(e) => eprintln!("check-regress: skipping gate, history unreadable: {e}"),
        }
    }
    match cftcg_compare::append_history(dir, record) {
        Ok(path) => println!("  appended history record to {}", path.display()),
        Err(e) => eprintln!("  could not append bench history: {e}"),
    }
    ok
}

/// Unix timestamp (seconds) for history records.
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// An optional shared telemetry registry for bench binaries, from the
/// `CFTCG_STATS_JSONL` environment variable: when set, a registry with a
/// JSONL sink writing to that path is returned and benchmark runs log
/// their campaign/bench events through it. `None` (no overhead) otherwise.
pub fn telemetry_from_env() -> Option<std::sync::Arc<cftcg_telemetry::Telemetry>> {
    let path = std::env::var("CFTCG_STATS_JSONL").ok()?;
    match std::fs::File::create(&path) {
        Ok(file) => Some(std::sync::Arc::new(
            cftcg_telemetry::Telemetry::new().with_jsonl(std::io::BufWriter::new(file)),
        )),
        Err(e) => {
            eprintln!("CFTCG_STATS_JSONL: cannot create {path}: {e}");
            None
        }
    }
}

/// The tools of the Table 3 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// The bounded constraint-solving baseline.
    Sldv,
    /// The simulation-based meta-heuristic baseline.
    SimCoTest,
    /// The paper's tool.
    Cftcg,
    /// The Figure 8 ablation.
    FuzzOnly,
}

impl Tool {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Tool::Sldv => "SLDV",
            Tool::SimCoTest => "SimCoTest",
            Tool::Cftcg => "CFTCG",
            Tool::FuzzOnly => "Fuzz Only",
        }
    }
}

/// Runs one tool once on one model and returns its generation.
pub fn run_tool(
    tool: Tool,
    model: &Model,
    compiled: &CompiledModel,
    budget: Duration,
    seed: u64,
) -> Generation {
    run_tool_with_workers(tool, model, compiled, budget, seed, 1)
}

/// Like [`run_tool`], but runs CFTCG with the sharded parallel engine when
/// `workers > 1`. The baselines are sequential by construction and ignore
/// the worker count.
pub fn run_tool_with_workers(
    tool: Tool,
    model: &Model,
    compiled: &CompiledModel,
    budget: Duration,
    seed: u64,
    workers: usize,
) -> Generation {
    if tool == Tool::Cftcg && workers > 1 {
        return Cftcg::new(model)
            .expect("benchmark model compiles")
            .generate_parallel(budget, seed, workers);
    }
    match tool {
        Tool::Sldv => {
            sldv::generate(model, compiled, &sldv::SldvConfig { budget, ..Default::default() })
        }
        Tool::SimCoTest => simcotest::generate(
            model,
            &simcotest::SimCoTestConfig { budget, seed, ..Default::default() },
        ),
        Tool::Cftcg => Cftcg::new(model).expect("benchmark model compiles").generate(budget, seed),
        Tool::FuzzOnly => {
            fuzz_only::generate(compiled, &fuzz_only::FuzzOnlyConfig { budget, seed })
        }
    }
}

/// Average coverage of a tool over `repeats` seeds (deterministic tools run
/// once). Returns the mean DC/CC/MCDC percentages.
pub fn averaged_coverage(
    tool: Tool,
    model: &Model,
    compiled: &CompiledModel,
    budget: Duration,
    repeats: u64,
) -> (f64, f64, f64) {
    let runs = if tool == Tool::Sldv { 1 } else { repeats };
    let mut acc = (0.0, 0.0, 0.0);
    for seed in 0..runs {
        let generation = run_tool(tool, model, compiled, budget, seed);
        let report = replay_suite(compiled, &generation.suite);
        acc.0 += report.decision.percent();
        acc.1 += report.condition.percent();
        acc.2 += report.mcdc.percent();
    }
    let n = runs as f64;
    (acc.0 / n, acc.1 / n, acc.2 / n)
}

/// Compiles all benchmark models once, in Table 2 order.
pub fn compiled_benchmarks() -> Vec<(Model, CompiledModel)> {
    cftcg_benchmarks::all()
        .into_iter()
        .map(|m| {
            let c = compile(&m).expect("benchmark model compiles");
            (m, c)
        })
        .collect()
}

/// Scores a suite against a compiled model (the common yardstick).
pub fn score(compiled: &CompiledModel, generation: &Generation) -> CoverageReport {
    replay_suite(compiled, &generation.suite)
}

/// Percentage-point-free relative improvement used by the paper's "Average
/// Improvement" rows: mean over models of `(ours - theirs) / theirs`,
/// skipping models where the baseline scored zero.
pub fn average_improvement(ours: &[f64], theirs: &[f64]) -> f64 {
    let mut acc = 0.0;
    let mut n = 0;
    for (&a, &b) in ours.iter().zip(theirs) {
        if b > 0.0 {
            acc += (a - b) / b;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        // ours = 2x theirs -> +100%.
        assert_eq!(average_improvement(&[80.0], &[40.0]), 100.0);
        // zero baselines are skipped.
        assert_eq!(average_improvement(&[80.0, 50.0], &[0.0, 50.0]), 0.0);
        assert_eq!(average_improvement(&[], &[]), 0.0);
    }

    #[test]
    fn tool_names() {
        assert_eq!(Tool::Sldv.name(), "SLDV");
        assert_eq!(Tool::FuzzOnly.name(), "Fuzz Only");
    }

    #[test]
    fn env_defaults() {
        assert!(budget() >= Duration::from_millis(1));
        assert!(repeats() >= 1);
        assert!(workers() >= 1);
    }
}
