//! End-to-end and per-layer benchmark of the CFTCG fuzz loop.
//!
//! ```sh
//! cargo run --release --offline --manifest-path loopbench/Cargo.toml -- \
//!     --workload solarpv-plateau --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root (models are read from `models/`). The last
//! line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones, and also writes its spans to `loopbench/out/`. See README.md.

mod budget;
mod calibrate;
mod catalog;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trace::Tracer;
use workloads::{Options, Report, Workload};

/// Environment variables that would silently change the program measured.
const PINNED_ENV: [&str; 2] = ["CFTCG_ENGINE", "CFTCG_WORKERS"];

struct Args {
    workload: Workload,
    options: Options,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {value}: expected 0..=600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let models_dir = PathBuf::from("models");
    Ok(Args { workload, options: Options { seed, seconds, trace, models_dir } })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(report: &Report, names: &[catalog::Metric]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in names {
        let value = report.get(m.name).ok_or_else(|| format!("metric {} missing", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", m.name));
        }
        metrics.push(format!("\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}", m.name, m.unit));
    }
    let ops = &report.ops;
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        metrics.join(",")
    ))
}

fn write_spans(tr: &Tracer, workload: Workload, seed: u64) {
    let dir = Path::new("loopbench").join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
    match written {
        Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}");
            eprintln!(
                "usage: loopbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "loopbench: {var} is set; unset it so the measured engine and workers are pinned"
        );
        return ExitCode::from(2);
    }
    let Options { seed, trace, .. } = args.options;
    let mut tracer = Tracer::new(trace);
    let report = match workloads::run(&args.workload.plan(), &args.options, &mut tracer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::from(1);
        }
    };
    let names: &[catalog::Metric] = if trace { &catalog::PER_LAYER } else { &catalog::END_TO_END };

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {seed} trace {}: engine {} jit_live true nproc {cores} arch {}",
        args.workload.name(),
        u8::from(trace),
        report.engine,
        std::env::consts::ARCH
    );
    for note in &report.notes {
        println!("{note}");
    }
    for m in names {
        if let Some(v) = report.get(m.name) {
            println!("  {:<34} {v:>16.4} {:<6} ({} is better)", m.name, m.unit, m.better.as_str());
        }
    }
    let ops = &report.ops;
    println!(
        "  {:<34} {:>16.4} ratio  ({} of {} operations failed)",
        "error_rate",
        ops.error_rate(),
        ops.failed,
        ops.attempted
    );
    for problem in &ops.problems {
        println!("  FAILED: {problem}");
    }
    if trace {
        write_spans(&tracer, args.workload, seed);
    }
    match result_json(&report, names) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loopbench: {e}");
            ExitCode::from(1)
        }
    }
}
