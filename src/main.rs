//! `cftcg` — the command-line front end of the pipeline.
//!
//! ```text
//! cftcg stats  <model.mdlx>                         instrumentation statistics
//! cftcg codegen <model.mdlx> [--driver]             emit instrumented C / fuzz driver
//! cftcg fuzz   <model.mdlx> [--budget-ms N] [--seed N] [--out DIR] [--workers N]
//!              [--engine ref|flat|jit]
//!              [--stats-jsonl FILE] [--status-every SECS] [--prom FILE]
//!              [--serve ADDR] [--trace-events FILE]
//!              [--trace-dir DIR] [--trace-every N] [--plateau-window N]
//!                                                   run the fuzzing loop, write CSV cases
//!                                                   + campaign.json forensics; --serve
//!                                                   exposes /metrics, /snapshot and a live
//!                                                   dashboard while the campaign runs
//! cftcg diff   <model.mdlx> <a.json> <b.json>       differential campaign comparison:
//!              [--json F] [--html F]                goals gained/lost, first-hit shifts,
//!              [--allow-mismatch] [--no-frontier]   yield/span deltas, frontier migration
//! cftcg ab     <model.mdlx> --a SPEC --b SPEC       paired A/B harness: interleaved
//!              [--trials N] [--executions N]        seeded trials, median/IQR summary,
//!              [--budget-ms N] [--json F] [--html F] representative-pair diff
//! cftcg explain <model.mdlx> <campaign.json> [CASE] frontier analysis; with CASE (s0:12),
//!                                                   the case's mutation lineage
//! cftcg trace  <model.mdlx> <campaign.json> <CASE>  replay one case with signal probes,
//!              [--probe PAT]... [--all] [--out F]   export a VCD (and --csv F) waveform;
//!              [--csv F] [--profile]                --profile adds per-block timing
//!              [--engine ref|flat|jit]
//! cftcg audit  <model.mdlx> [--campaign FILE]       lockstep interpreter<->VM divergence
//!              [--cases N] [--ticks N] [--seed N]   audit; non-zero exit on divergence
//!              [--engine ref|flat|jit]
//! cftcg report <stats.jsonl>                        summarize a campaign event log
//! cftcg report --html OUT --model M --campaign C    render the HTML campaign explorer
//! cftcg score  <model.mdlx> <case.csv>...           replay CSV test cases, print coverage
//! cftcg export-benchmarks <DIR>                     write the 8 Table-2 models as .mdlx
//! ```

use std::error::Error;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use cftcg::codegen::{
    compile, emit_c, emit_driver_c, replay_case, replay_suite, test_case_from_csv,
    test_case_to_csv, CompiledModel, Engine, TestCase,
};
use cftcg::compare::{
    ab_json, ab_report, diff_html, diff_json, replay_tracker, run_ab, terminal_report, AbBudget,
    ArtifactDiff, FrontierMigration, VariantSpec,
};
use cftcg::coverage::{detailed_report, frontier, CoverageReport, FullTracker};
use cftcg::fuzz::{format_chain, FuzzConfig};
use cftcg::model::{load_model, save_model, Model};
use cftcg::pipeline::{campaign_explorer_html, parse_case_id, CampaignArtifact, HostMeta};
use cftcg::telemetry::{json::Json, BlockCost, Event, Telemetry};
use cftcg::trace::{profile_case, to_csv, to_vcd, trace_vm_case, Auditor, BlockProfile, ProbeMask};
use cftcg::Cftcg;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(());
    };
    if let Some((values, switches)) = accepted_flags(command) {
        check_flags(command, &args[1..], values, switches)?;
    }
    match command.as_str() {
        "stats" => stats(&load(args.get(1))?),
        "codegen" => codegen(&load(args.get(1))?, args.contains(&"--driver".to_string())),
        "fuzz" => fuzz(&load(args.get(1))?, &args[2..]),
        "diff" => diff_cmd(&load(args.get(1))?, &args[2..]),
        "ab" => ab_cmd(&load(args.get(1))?, &args[2..]),
        "explain" => explain(&load(args.get(1))?, &args[2..]),
        "trace" => trace_cmd(&load(args.get(1))?, &args[2..]),
        "audit" => audit_cmd(&load(args.get(1))?, &args[2..]),
        "report" => report(&args[1..]),
        "score" => score(&load(args.get(1))?, &args[2..]),
        "export-benchmarks" => {
            export_benchmarks(args.get(1).map(String::as_str).unwrap_or("models"))
        }
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `cftcg help`)").into()),
    }
}

/// The flags a subcommand accepts, space-separated: those that take a
/// value, then bare switches. `None` for words that are not subcommands.
fn accepted_flags(command: &str) -> Option<(&'static str, &'static str)> {
    Some(match command {
        "stats" | "explain" | "export-benchmarks" => ("", ""),
        "codegen" => ("", "--driver"),
        "fuzz" => (
            "--budget-ms --seed --out --workers --engine --stats-jsonl --status-every --prom \
             --serve --trace-events --trace-dir --trace-every --plateau-window",
            "--minimize",
        ),
        "diff" => ("--json --html", "--allow-mismatch --no-frontier"),
        "ab" => ("--a --b --trials --seed --executions --budget-ms --json --html", ""),
        "trace" => ("--probe --out --csv --engine", "--all --profile"),
        "audit" => ("--campaign --cases --ticks --seed --engine", ""),
        "report" => ("--html --model --campaign", ""),
        "score" => ("", "--detailed"),
        _ => return None,
    })
}

/// Rejects a `--flag` the subcommand does not accept, and a value flag
/// with no value after it, naming the accepted flags either way.
fn check_flags(command: &str, rest: &[String], values: &str, switches: &str) -> Result<(), String> {
    let accepted = || {
        let values = values.split_whitespace().map(|f| format!("{f} <value>"));
        let all: Vec<String> =
            values.chain(switches.split_whitespace().map(String::from)).collect();
        format!("accepted: {}", if all.is_empty() { "none".to_string() } else { all.join(", ") })
    };
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") || switches.split_whitespace().any(|f| f == arg) {
            continue;
        }
        if !values.split_whitespace().any(|f| f == arg) {
            return Err(format!("`cftcg {command}` does not accept `{arg}` ({})", accepted()));
        }
        if args.next().is_none_or(|value| value.starts_with("--")) {
            return Err(format!("`cftcg {command} {arg}` needs a value ({})", accepted()));
        }
    }
    Ok(())
}

fn print_usage() {
    println!(
        "cftcg — test case generation for Simulink-style models through code-based fuzzing\n\n\
         USAGE:\n\
         \x20 cftcg stats  <model.mdlx>\n\
         \x20 cftcg codegen <model.mdlx> [--driver]\n\
         \x20 cftcg fuzz   <model.mdlx> [--budget-ms N] [--seed N] [--out DIR] [--workers N]\n\
         \x20              [--engine ref|flat|jit]\n\
         \x20              [--stats-jsonl FILE] [--status-every SECS] [--prom FILE]\n\
         \x20              [--serve ADDR] [--trace-events FILE]\n\
         \x20              [--trace-dir DIR] [--trace-every N] [--plateau-window N]\n\
         \x20 cftcg diff   <model.mdlx> <a/campaign.json> <b/campaign.json>\n\
         \x20              [--json OUT.json] [--html OUT.html] [--allow-mismatch]\n\
         \x20              [--no-frontier]\n\
         \x20 cftcg ab     <model.mdlx> [--a SPEC] [--b SPEC] [--trials N] [--seed N]\n\
         \x20              [--executions N | --budget-ms N] [--json OUT.json]\n\
         \x20              [--html OUT.html]   (SPEC: engine=flat,workers=2,\n\
         \x20              field-aware=off,metric-corpus=off)\n\
         \x20 cftcg explain <model.mdlx> <campaign.json> [CASE]\n\
         \x20 cftcg trace  <model.mdlx> <campaign.json> <CASE> [--probe PAT]... [--all]\n\
         \x20              [--out FILE.vcd] [--csv FILE.csv] [--profile] [--engine ref|flat|jit]\n\
         \x20 cftcg audit  <model.mdlx> [--campaign <campaign.json>] [--cases N] [--ticks N]\n\
         \x20              [--seed N] [--engine ref|flat|jit]\n\
         \x20 cftcg report <stats.jsonl>\n\
         \x20 cftcg report --html OUT.html --model <model.mdlx> --campaign <campaign.json>\n\
         \x20 cftcg score  <model.mdlx> <case.csv>...\n\
         \x20 cftcg export-benchmarks [DIR]"
    );
}

fn load(path: Option<&String>) -> Result<Model, Box<dyn Error>> {
    load_path(path.ok_or("missing <model.mdlx> argument")?)
}

fn load_path(path: &str) -> Result<Model, Box<dyn Error>> {
    let xml = fs::read_to_string(path)?;
    let model = load_model(&xml)?;
    model.validate()?;
    Ok(model)
}

/// Reads a persisted campaign and checks that it was recorded against
/// `compiled`'s model.
fn load_campaign(path: &str, compiled: &CompiledModel) -> Result<CampaignArtifact, Box<dyn Error>> {
    let artifact = CampaignArtifact::from_json(&fs::read_to_string(path)?)?;
    artifact.check_against(compiled.map()).map_err(|e| format!("{path}: {e}"))?;
    Ok(artifact)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// The engine named by `--engine`, or `default` when the flag is absent.
fn engine_flag(args: &[String], default: Engine) -> Result<Engine, String> {
    flag_value(args, "--engine").map_or(Ok(default), str::parse)
}

/// Every value of a repeatable flag (`--probe a --probe b` → `["a", "b"]`).
fn flag_values(args: &[String], name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < args.len() {
        if args[i] == name {
            out.push(args[i + 1].clone());
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn stats(model: &Model) -> Result<(), Box<dyn Error>> {
    let compiled = compile(model)?;
    println!("model     : {}", model.name());
    println!("blocks    : {} (including subsystems)", model.total_block_count());
    println!("branches  : {}", compiled.map().branch_count());
    println!("decisions : {}", compiled.map().decision_count());
    println!("conditions: {}", compiled.map().condition_count());
    println!("state     : {} slots", compiled.state_len());
    println!("driver    : {} bytes per iteration", compiled.layout().tuple_size());
    for field in compiled.layout().fields() {
        println!("  {:>12}  {:>8}  offset {}", field.name, field.dtype, field.offset);
    }
    Ok(())
}

fn codegen(model: &Model, driver: bool) -> Result<(), Box<dyn Error>> {
    let compiled = compile(model)?;
    if driver {
        print!("{}", emit_driver_c(&compiled));
    } else {
        print!("{}", emit_c(&compiled));
    }
    Ok(())
}

fn fuzz(model: &Model, rest: &[String]) -> Result<(), Box<dyn Error>> {
    let budget_ms: u64 =
        flag_value(rest, "--budget-ms").map(str::parse).transpose()?.unwrap_or(5_000);
    let seed: u64 = flag_value(rest, "--seed").map(str::parse).transpose()?.unwrap_or(0);
    let workers: usize = flag_value(rest, "--workers").map(str::parse).transpose()?.unwrap_or(1);
    let out = flag_value(rest, "--out");
    let minimize = rest.contains(&"--minimize".to_string());
    let stats_jsonl = flag_value(rest, "--stats-jsonl");
    let status_every: Option<f64> =
        flag_value(rest, "--status-every").map(str::parse).transpose()?;
    let prom = flag_value(rest, "--prom");
    let serve = flag_value(rest, "--serve");
    let trace_events = flag_value(rest, "--trace-events");
    let trace_dir = flag_value(rest, "--trace-dir").map(str::to_string);
    let trace_every: u64 =
        flag_value(rest, "--trace-every").map(str::parse).transpose()?.unwrap_or(1).max(1);
    let plateau_window: Option<u64> =
        flag_value(rest, "--plateau-window").map(str::parse).transpose()?;

    let engine = engine_flag(rest, Engine::best())?;

    // Build the telemetry registry only when an observer was requested;
    // without one the loop skips per-execution timing entirely. The
    // observatory reads the registry live, and the span-trace buffer and
    // the plateau window report through it.
    let span_trace = trace_events.map(|_| cftcg::telemetry::SpanTrace::new());
    let observed = [stats_jsonl, prom, serve, trace_events].iter().any(Option::is_some)
        || status_every.is_some()
        || plateau_window.is_some();
    let telemetry = if observed {
        let mut t = Telemetry::new();
        if let Some(path) = stats_jsonl {
            t = t.with_jsonl(std::io::BufWriter::new(fs::File::create(path)?));
        }
        if let Some(secs) = status_every {
            t = t.with_status(Duration::from_secs_f64(secs.max(0.0)));
        }
        if let Some(path) = prom {
            // Rewritten on the status cadence while the campaign runs, so
            // a file-based scrape sees live numbers, not just the final.
            let every = Duration::from_secs_f64(status_every.unwrap_or(1.0).max(0.0));
            t = t.with_prom_file(path, every);
        }
        // The span-trace buffer samples individual phase occurrences for
        // Chrome-trace export (the histograms in the registry are unsampled).
        if let Some(trace) = &span_trace {
            t = t.with_span_trace(trace.clone());
        }
        if let Some(window) = plateau_window {
            t = t.with_plateau_window(window);
        }
        Some(Arc::new(t))
    } else {
        None
    };

    let tool = Cftcg::new(model)?;
    let mut config =
        FuzzConfig { engine: Some(engine), telemetry: telemetry.clone(), ..FuzzConfig::default() };
    println!("engine: {engine} ({workers} workers)");
    if let Some(t) = &telemetry {
        t.emit(&Event::CampaignStart {
            model: model.name().to_string(),
            seed,
            workers,
            budget_ms: Some(budget_ms),
            branch_count: tool.compiled().map().branch_count(),
        });
    }
    let server = match (serve, &telemetry) {
        (Some(addr), Some(t)) => {
            let observatory = cftcg::observe::Observatory::new(t.clone(), model.name());
            let server = cftcg::observe::ObserveServer::bind(addr, observatory)
                .map_err(|e| format!("--serve {addr}: {e}"))?;
            println!("observatory: http://{}/ (also /metrics, /snapshot)", server.local_addr());
            Some(server)
        }
        _ => None,
    };

    // Sampled waveform capture of coverage-earning inputs: the hook fires
    // after each case is emitted (coordinator only), replays it on a private
    // executor, and writes the output waveform as a VCD file — pure
    // observation, so fuzzing outcomes stay byte-identical.
    let fired = Arc::new(std::sync::atomic::AtomicU64::new(0));
    if let Some(dir) = &trace_dir {
        fs::create_dir_all(dir)?;
        let compiled = tool.compiled().clone();
        let dir = dir.clone();
        let fired = fired.clone();
        config.trace_hook = Some(cftcg::fuzz::TraceHook::new(move |bytes, case_id| {
            let n = fired.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if !n.is_multiple_of(trace_every) {
                return;
            }
            let mask = ProbeMask::outputs(&compiled);
            let case = TestCase::new(bytes.to_vec());
            let trace = trace_vm_case(&compiled, Engine::Flat, &case, &mask, 1 << 16);
            let name =
                format!("{}.vcd", cftcg::coverage::format_case_id(case_id).replace(':', "_"));
            if let Err(e) = fs::write(Path::new(&dir).join(&name), to_vcd(&trace, compiled.name()))
            {
                eprintln!("warning: failed to write trace {name}: {e}");
            }
        }));
    }
    let tool = tool.with_config(config);

    let mut generation = if workers > 1 {
        tool.generate_parallel(Duration::from_millis(budget_ms), seed, workers)
    } else {
        tool.generate(Duration::from_millis(budget_ms), seed)
    };

    if let Some(t) = &telemetry {
        // Per-block cost attribution: replay the emitted suite (a few dozen
        // cases at most) on the observed interpreter so the "hottest blocks"
        // table and the Prometheus exposition carry per-kind timings.
        let mut profile = BlockProfile::new();
        for case in &generation.suite {
            profile_case(model, tool.compiled(), &case.bytes, &mut profile)?;
        }
        profile.merge_into(t);
        let report = tool.score(&generation);
        t.emit(&Event::CampaignEnd {
            executions: generation.executions,
            iterations: generation.iterations,
            resumed_ticks: t.snapshot().totals.resumed_ticks,
            covered: report.decision.covered,
            total: report.decision.total,
            violations: generation.violations.len(),
            elapsed_s: generation.elapsed.as_secs_f64(),
            iterations_per_second: generation.iterations_per_second(),
            yields: generation.yield_reports(),
        });
        t.status_tick(true);
    }
    // JIT-tier gauges and the compile span: the cache is already warm (the
    // campaign ran on it), so reading the stats is free. Recorded before
    // the final flush so the last Prometheus rewrite carries them.
    if let (Engine::Jit, Some(t)) = (engine, &telemetry) {
        if let Some(stats) = tool.compiled().jit_stats() {
            t.set_jit_stats(stats.code_bytes as u64, stats.compile_ns);
            if let Some(trace) = t.span_trace() {
                // The lazy compile ran inside the engine at first
                // execution; book it at the trace epoch.
                trace.record_raw(
                    cftcg::telemetry::SpanKind::JitCompile,
                    cftcg::telemetry::COORDINATOR_TID,
                    0,
                    stats.compile_ns,
                );
            }
        }
    }
    if let Some(t) = &telemetry {
        t.flush();
    }
    // Capture forensics before minimization: the artifact describes the
    // campaign as it ran (lineage ids, first hits, emission metadata), while
    // minimization rewrites the suite for export.
    let mut artifact = out.map(|_| {
        CampaignArtifact::from_generation(
            model.name(),
            seed,
            workers,
            &generation,
            tool.compiled().map(),
        )
    });
    // Persist the registry's time series into the artifact so the offline
    // explorer can render sampled campaign progress. Attached only when
    // telemetry ran: from_generation stays deterministic on its own.
    if let (Some(artifact), Some(t)) = (&mut artifact, &telemetry) {
        artifact.series = t.series_points();
        // Span-profile summary: wall-clock attribution per engine phase,
        // available only when telemetry profiled the run.
        artifact.spans = t.snapshot().totals.spans.reports();
    }
    // Run-identity metadata for `cftcg diff`: which engine actually executed
    // the campaign and on what host. CLI-attached, like the series — the
    // constructor's output must stay byte-identical across engines.
    if let Some(artifact) = &mut artifact {
        artifact.engine = Some(tool.engine().name().to_string());
        artifact.host = Some(HostMeta {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
            arch: std::env::consts::ARCH.to_string(),
        });
    }
    if minimize {
        let before = generation.suite.len();
        generation.suite = tool.minimize(&generation.suite);
        println!("minimized suite: {before} -> {} cases", generation.suite.len());
    }
    let report = tool.score(&generation);
    println!(
        "executed {} inputs / {} model iterations in {:?} ({:.0} iterations/s)",
        generation.executions,
        generation.iterations,
        generation.elapsed,
        generation.iterations_per_second()
    );
    println!("emitted {} test cases", generation.suite.len());
    println!("coverage: {report}");
    let yields = generation.yield_reports();
    if yields.iter().any(|y| y.executed > 0) {
        println!("mutation-yield matrix (per-operator outcomes):");
        print!("{}", yield_table(&yields));
    }
    if let Some(t) = &telemetry {
        let snapshot = t.snapshot();
        if !snapshot.block_costs.is_empty() {
            println!("hottest blocks (interpreter replay of the emitted suite):");
            print!("{}", block_table(&snapshot.block_costs));
        }
        let spans = snapshot.totals.spans;
        if !spans.is_empty() {
            println!("phase attribution (wall-clock share of profiled spans):");
            for row in spans.reports() {
                println!(
                    "  {:>16}  {:>10} spans  {:>12} ns total  p99 {:>10} ns",
                    row.name, row.count, row.total_ns, row.p99_ns
                );
            }
        }
    }
    if let Some(dir) = &trace_dir {
        let fired = fired.load(std::sync::atomic::Ordering::Relaxed);
        let written = fired.div_ceil(trace_every);
        println!("wrote {written} VCD waveforms of coverage-earning cases to {dir}/");
    }
    if !generation.violations.is_empty() {
        println!("assertion violations found:");
        for (idx, case) in &generation.violations {
            println!(
                "  {} (witness: {} iterations)",
                tool.compiled().map().assertions()[*idx],
                case.iterations(tool.compiled().layout())
            );
        }
    }
    if let Some(dir) = out {
        fs::create_dir_all(dir)?;
        for (i, case) in generation.suite.iter().enumerate() {
            let csv = test_case_to_csv(tool.compiled().layout(), case);
            fs::write(Path::new(dir).join(format!("case_{i:04}.csv")), csv)?;
        }
        if let Some(artifact) = &artifact {
            fs::write(Path::new(dir).join("campaign.json"), artifact.to_json())?;
        }
        println!("wrote {} CSV test cases and campaign.json to {dir}/", generation.suite.len());
    }
    if let (Some(path), Some(trace)) = (trace_events, &span_trace) {
        trace.write_chrome_json(Path::new(path))?;
        let dropped = trace.dropped();
        println!(
            "wrote {} span trace events to {path} (Perfetto/chrome://tracing loadable){}",
            trace.len(),
            if dropped > 0 { format!("; {dropped} dropped at capacity") } else { String::new() }
        );
    }
    if let Some(server) = server {
        server.shutdown();
    }
    Ok(())
}

/// `cftcg diff <model.mdlx> <a/campaign.json> <b/campaign.json>`: the
/// differential view of two persisted campaigns — goals gained/lost/shared
/// (with first-hit execution shifts), mutation-yield and span-profile
/// deltas, and the replay-based frontier-cause migration. Each campaign
/// must belong to the given model. Refuses apples-to-oranges comparisons
/// of A against B (different model/engine/workers/host) unless
/// `--allow-mismatch` downgrades the refusal to a loud annotation.
fn diff_cmd(model: &Model, rest: &[String]) -> Result<(), Box<dyn Error>> {
    let a_path =
        rest.first().filter(|a| !a.starts_with("--")).ok_or("missing <a/campaign.json>")?;
    let b_path = rest.get(1).filter(|a| !a.starts_with("--")).ok_or("missing <b/campaign.json>")?;
    let compiled = compile(model)?;
    let a = load_campaign(a_path, &compiled)?;
    let b = load_campaign(b_path, &compiled)?;
    let diff = ArtifactDiff::compute(&a, &b);
    if !diff.mismatches.is_empty() && !rest.contains(&"--allow-mismatch".to_string()) {
        return Err(format!(
            "refusing apples-to-oranges comparison — {}; rerun with --allow-mismatch to \
             annotate instead of refusing",
            diff.mismatches.join("; ")
        )
        .into());
    }
    // The frontier migration replays both suites through the compiled
    // model; --no-frontier skips it for huge campaigns.
    let migration = if rest.contains(&"--no-frontier".to_string()) {
        None
    } else {
        let tracker_a = replay_tracker(&compiled, &a);
        let tracker_b = replay_tracker(&compiled, &b);
        Some(FrontierMigration::compute(compiled.map(), &tracker_a, &tracker_b))
    };
    print!("{}", terminal_report(&diff, migration.as_ref(), compiled.map()));
    let json = diff_json(&diff, migration.as_ref(), compiled.map());
    write_diff_outputs(rest, &json, &diff, &a, &b, migration.as_ref(), &compiled)
}

/// `cftcg ab <model.mdlx> --a SPEC --b SPEC`: the paired A/B harness.
/// Runs interleaved trials (A₁ B₁ A₂ B₂ …) with shared per-trial seeds,
/// prints median/IQR of goals-at-budget, time-to-goal and
/// executions-to-goal, then feeds each variant's representative
/// (median-by-goals) artifact through the same diff pipeline as
/// `cftcg diff`. `--json` writes every trial beside that diff.
fn ab_cmd(model: &Model, rest: &[String]) -> Result<(), Box<dyn Error>> {
    let spec_a = VariantSpec::parse("A", flag_value(rest, "--a").unwrap_or(""))?;
    let spec_b = VariantSpec::parse("B", flag_value(rest, "--b").unwrap_or(""))?;
    let trials: usize =
        flag_value(rest, "--trials").map(str::parse).transpose()?.unwrap_or(3).max(1);
    let seed: u64 = flag_value(rest, "--seed").map(str::parse).transpose()?.unwrap_or(0);
    let budget = match flag_value(rest, "--executions") {
        Some(n) => AbBudget::Executions(n.parse()?),
        None => AbBudget::Millis(
            flag_value(rest, "--budget-ms").map(str::parse).transpose()?.unwrap_or(2_000),
        ),
    };
    let outcome = run_ab(model, &spec_a, &spec_b, trials, seed, budget)?;
    print!("{}", ab_report(&outcome, trials));
    let compiled = compile(model)?;
    let (a, b) = (&outcome.a.representative, &outcome.b.representative);
    let diff = ArtifactDiff::compute(a, b);
    let tracker_a = replay_tracker(&compiled, a);
    let tracker_b = replay_tracker(&compiled, b);
    let migration = FrontierMigration::compute(compiled.map(), &tracker_a, &tracker_b);
    print!("{}", terminal_report(&diff, Some(&migration), compiled.map()));
    let json = ab_json(&outcome, &diff_json(&diff, Some(&migration), compiled.map()));
    write_diff_outputs(rest, &json, &diff, a, b, Some(&migration), &compiled)
}

/// Shared tail of `diff` and `ab`: optional machine-JSON (`json`) and HTML
/// outputs, plus the `results/diff_latest.html` mirror the live
/// observatory's `/diff` route serves.
fn write_diff_outputs(
    rest: &[String],
    json: &str,
    diff: &ArtifactDiff,
    a: &CampaignArtifact,
    b: &CampaignArtifact,
    migration: Option<&FrontierMigration>,
    compiled: &CompiledModel,
) -> Result<(), Box<dyn Error>> {
    if let Some(path) = flag_value(rest, "--json") {
        fs::write(path, json)?;
        println!("wrote machine JSON to {path}");
    }
    let html = diff_html(diff, a, b, migration, compiled.map());
    if let Some(path) = flag_value(rest, "--html") {
        fs::write(path, &html)?;
        println!("wrote HTML diff report to {path}");
    }
    fs::create_dir_all("results")?;
    fs::write("results/diff_latest.html", &html)?;
    println!("mirrored HTML diff report to results/diff_latest.html (served at /diff)");
    Ok(())
}

/// `cftcg explain <model.mdlx> <campaign.json> [CASE]`: without a case
/// reference, prints the campaign's coverage partition and the frontier
/// analysis of every open goal; with one (`s0:12` or a raw lineage id),
/// prints that case's full mutation lineage back to its seed and the goals
/// it was first to demonstrate.
fn explain(model: &Model, rest: &[String]) -> Result<(), Box<dyn Error>> {
    let campaign_path =
        rest.first().filter(|a| !a.starts_with("--")).ok_or("missing <campaign.json>")?;
    let compiled = compile(model)?;
    let artifact = load_campaign(campaign_path, &compiled)?;
    let tracker = replay_tracker(&compiled, &artifact);
    let map = compiled.map();

    if let Some(case_ref) = rest.get(1) {
        let id = parse_case_id(case_ref)
            .ok_or_else(|| format!("bad case reference `{case_ref}` (expected s<shard>:<n>)"))?;
        let lineage = artifact.lineage_dag();
        let chain = lineage.chain(id);
        if chain.is_empty() {
            return Err(format!(
                "case `{case_ref}` is not in this campaign's lineage ({} records)",
                artifact.lineage.len()
            )
            .into());
        }
        let record = chain[0];
        println!(
            "case    : {} ({}, shard {}, minted at execution {})",
            cftcg::coverage::format_case_id(id),
            record.origin.tag(),
            record.shard,
            record.executions
        );
        if let Some(case) = artifact.case(id) {
            println!(
                "emitted : {} driver bytes at t={:.2}s, {} branches covered after",
                case.bytes.len(),
                case.t_s,
                case.covered_branches
            );
        } else {
            println!("emitted : no (corpus-retained only)");
        }
        println!("lineage : {}", format_chain(&chain));
        let firsts: Vec<_> = artifact.hits.iter().filter(|h| h.case == id).collect();
        if firsts.is_empty() {
            println!("goals   : none first-demonstrated by this case");
        } else {
            println!("goals first demonstrated by this case:");
            for hit in firsts {
                println!(
                    "  [{}] {} at execution {}",
                    hit.goal.metric(),
                    hit.goal.label(map),
                    hit.executions
                );
            }
        }
        return Ok(());
    }

    let report = CoverageReport::score(map, &tracker);
    let open = frontier(map, &tracker);
    println!(
        "campaign : model {} | seed {} | {} worker(s) | {} executions | {} cases",
        artifact.model,
        artifact.seed,
        artifact.workers,
        artifact.executions,
        artifact.cases.len()
    );
    println!("coverage : D {} | C {} | MCDC {}", report.decision, report.condition, report.mcdc);
    println!("goals    : {} covered with provenance, {} open", artifact.hits.len(), open.len());
    if open.is_empty() {
        println!("frontier : empty — every goal of the model is covered");
    } else {
        println!("frontier :");
        for entry in &open {
            println!("  {entry}");
        }
    }
    Ok(())
}

/// `cftcg trace <model.mdlx> <campaign.json> <CASE>`: replays one persisted
/// case on the compiled VM with signal probes attached and exports the
/// waveform as VCD (GTKWave-viewable) and optionally CSV. The probe mask
/// defaults to the outport drivers; `--probe PAT` (repeatable, substring
/// match) or `--all` widens it. `--profile` also replays the case on the
/// observed interpreter and prints the per-block cost table.
fn trace_cmd(model: &Model, rest: &[String]) -> Result<(), Box<dyn Error>> {
    let campaign_path =
        rest.first().filter(|a| !a.starts_with("--")).ok_or("missing <campaign.json>")?;
    let case_ref = rest
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or("missing <CASE> reference (s<shard>:<n>)")?;
    let engine = engine_flag(rest, Engine::Flat)?;
    let compiled = compile(model)?;
    let artifact = load_campaign(campaign_path, &compiled)?;
    let id = parse_case_id(case_ref)
        .ok_or_else(|| format!("bad case reference `{case_ref}` (expected s<shard>:<n>)"))?;
    let case = artifact.case(id).ok_or_else(|| {
        format!(
            "case `{case_ref}` was not emitted by this campaign ({} cases)",
            artifact.cases.len()
        )
    })?;

    let patterns = flag_values(rest, "--probe");
    let names: Vec<&str> = compiled.signals().iter().map(|m| m.name.as_str()).collect();
    let mask = if rest.contains(&"--all".to_string()) {
        ProbeMask::all(names.len())
    } else if patterns.is_empty() {
        ProbeMask::outputs(&compiled)
    } else {
        ProbeMask::from_patterns(&names, &patterns)?
    };

    let trace =
        trace_vm_case(&compiled, engine, &TestCase::new(case.bytes.clone()), &mask, 1 << 20);
    println!(
        "case {case_ref} ({engine} engine): {} ticks, {} probed signals, {} samples retained{}",
        trace.ticks(),
        mask.len(),
        trace.len(),
        if trace.dropped() > 0 {
            format!(" ({} dropped from the ring)", trace.dropped())
        } else {
            String::new()
        }
    );
    for signal in trace.signals() {
        println!("  {} ({})", signal.name, signal.dtype);
    }
    let out = flag_value(rest, "--out").unwrap_or("trace.vcd");
    fs::write(out, to_vcd(&trace, model.name()))?;
    println!("wrote VCD waveform to {out}");
    if let Some(csv_path) = flag_value(rest, "--csv") {
        fs::write(csv_path, to_csv(&trace))?;
        println!("wrote CSV waveform to {csv_path}");
    }
    if rest.contains(&"--profile".to_string()) {
        let mut profile = BlockProfile::new();
        let ticks = profile_case(model, &compiled, &case.bytes, &mut profile)?;
        println!("per-block cost over {ticks} interpreter ticks:");
        print!("{}", block_table(&profile.hottest()));
    }
    Ok(())
}

/// `cftcg audit <model.mdlx>`: runs the interpreter and the compiled VM in
/// lockstep and compares every signal after every tick — over the persisted
/// campaign suite when `--campaign` is given, and always over seeded random
/// fuzz-like inputs. Exits non-zero on the first divergence, printing its
/// exact tick, block path, and both values.
fn audit_cmd(model: &Model, rest: &[String]) -> Result<(), Box<dyn Error>> {
    let cases: usize = flag_value(rest, "--cases").map(str::parse).transpose()?.unwrap_or(32);
    let ticks: usize = flag_value(rest, "--ticks").map(str::parse).transpose()?.unwrap_or(64);
    let seed: u64 = flag_value(rest, "--seed").map(str::parse).transpose()?.unwrap_or(0);
    let engine = engine_flag(rest, Engine::Flat)?;
    let compiled = compile(model)?;
    let mut auditor = Auditor::new(model, &compiled, engine)?;
    println!(
        "auditing {} on the {engine} engine: {} signals compared per tick",
        model.name(),
        auditor.signal_count()
    );

    let mut total_cases = 0usize;
    let mut total_ticks = 0u64;
    if let Some(path) = flag_value(rest, "--campaign") {
        let artifact = load_campaign(path, &compiled)?;
        let corpus: Vec<(String, Vec<u8>)> = artifact
            .cases
            .iter()
            .map(|c| (cftcg::coverage::format_case_id(c.id), c.bytes.clone()))
            .collect();
        let report = auditor.audit_corpus(&corpus)?;
        if let Some(divergence) = report.divergence {
            return Err(format!("DIVERGENCE: {divergence}").into());
        }
        println!("corpus : {} cases, {} ticks — clean", report.cases, report.ticks);
        total_cases += report.cases;
        total_ticks += report.ticks;
    }
    let report = auditor.audit_random(cases, ticks, seed)?;
    if let Some(divergence) = report.divergence {
        return Err(format!("DIVERGENCE: {divergence}").into());
    }
    println!("random : {} cases x {ticks} ticks (seed {seed}) — clean", report.cases);
    total_cases += report.cases;
    total_ticks += report.ticks;
    println!(
        "audit passed: {total_cases} cases, {total_ticks} ticks, {} signals each",
        auditor.signal_count()
    );
    Ok(())
}

fn score(model: &Model, rest: &[String]) -> Result<(), Box<dyn Error>> {
    let detailed = rest.contains(&"--detailed".to_string());
    let csv_paths: Vec<&String> = rest.iter().filter(|a| !a.starts_with("--")).collect();
    if csv_paths.is_empty() {
        return Err("score needs at least one <case.csv>".into());
    }
    let compiled = compile(model)?;
    let mut suite = Vec::new();
    for path in csv_paths {
        let csv = fs::read_to_string(path)?;
        suite.push(test_case_from_csv(compiled.layout(), &csv)?);
    }
    if detailed {
        let mut tracker = FullTracker::new(compiled.map());
        for case in &suite {
            replay_case(&compiled, case, &mut tracker);
        }
        print!("{}", detailed_report(compiled.map(), &tracker));
    } else {
        let report = replay_suite(&compiled, &suite);
        println!("{} test cases: {report}", suite.len());
    }
    Ok(())
}

/// Renders the mutation-yield matrix (per-operator × outcome counters) as
/// an aligned table, sorted by executed inputs.
fn yield_table(rows: &[cftcg::telemetry::YieldReport]) -> String {
    let mut rows: Vec<&cftcg::telemetry::YieldReport> = rows.iter().collect();
    rows.sort_by_key(|r| (std::cmp::Reverse(r.executed), std::cmp::Reverse(r.new_coverage)));
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(8).max("operator".len());
    let mut out = format!(
        "  {:width$}  {:>12}  {:>12}  {:>13}  {:>10}\n",
        "operator", "executed", "new-coverage", "corpus-insert", "violation"
    );
    for row in rows {
        out.push_str(&format!(
            "  {:width$}  {:>12}  {:>12}  {:>13}  {:>10}\n",
            row.name, row.executed, row.new_coverage, row.corpus_insert, row.violation
        ));
    }
    out
}

/// Renders the per-block-kind "hottest blocks" profile as an aligned table
/// (rows already sorted hottest-first by
/// [`KindCost::rows`](cftcg::telemetry::KindCost::rows)).
fn block_table(rows: &[BlockCost]) -> String {
    let width = rows.iter().map(|r| r.kind.len()).max().unwrap_or(4).max("kind".len());
    let mut out = format!(
        "  {:width$}  {:>12}  {:>14}  {:>10}  {:>10}\n",
        "kind", "executions", "total ns", "mean ns", "p99 ns"
    );
    for row in rows {
        out.push_str(&format!(
            "  {:width$}  {:>12}  {:>14}  {:>10.1}  {:>10}\n",
            row.kind, row.executions, row.total_ns, row.mean_ns, row.p99_ns
        ));
    }
    out
}

/// `cftcg report <stats.jsonl>`: renders a campaign event log as a summary —
/// run identity, coverage growth, violations, sync behaviour, and the
/// mutation-yield table from the campaign-end event. With
/// `--html OUT --model M --campaign C` it instead renders the persisted
/// campaign artifact as the self-contained HTML campaign explorer.
fn report(rest: &[String]) -> Result<(), Box<dyn Error>> {
    if let Some(out) = flag_value(rest, "--html") {
        let model_path = flag_value(rest, "--model").ok_or("--html needs --model <model.mdlx>")?;
        let campaign_path =
            flag_value(rest, "--campaign").ok_or("--html needs --campaign <campaign.json>")?;
        let model = load_path(model_path)?;
        let compiled = compile(&model)?;
        let artifact = load_campaign(campaign_path, &compiled)?;
        let tracker = replay_tracker(&compiled, &artifact);
        let html = campaign_explorer_html(&compiled, &artifact, &tracker);
        fs::write(out, &html)?;
        println!("wrote campaign explorer to {out}");
        return Ok(());
    }
    let path = rest
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .ok_or("missing <stats.jsonl>")?;
    let text = fs::read_to_string(path)?;
    let mut campaign: Option<Json> = None;
    let mut end: Option<Json> = None;
    let mut coverage_events = 0u64;
    let mut last_coverage: Option<(u64, u64)> = None;
    let mut violations: Vec<String> = Vec::new();
    let mut sync_rounds = 0u64;
    let mut sync_ms_total = 0.0f64;
    let mut seeds = 0u64;
    let mut evictions = 0u64;
    let mut plateaus = 0u64;
    let mut last_plateau: Option<Json> = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event =
            Json::parse(line).map_err(|e| format!("{path}:{}: invalid JSONL: {e}", lineno + 1))?;
        let kind = event.get("type").and_then(Json::as_str).unwrap_or("?").to_string();
        match kind.as_str() {
            "campaign-start" => campaign = Some(event),
            "campaign-end" => end = Some(event),
            "new-coverage" => {
                coverage_events += 1;
                let covered = event.get("covered").and_then(Json::as_u64).unwrap_or(0);
                let total = event.get("total").and_then(Json::as_u64).unwrap_or(0);
                last_coverage = Some((covered, total));
            }
            "violation" => {
                let label = event.get("label").and_then(Json::as_str).unwrap_or("?").to_string();
                violations.push(label);
            }
            "sync-round" => {
                sync_rounds += 1;
                sync_ms_total += event.get("duration_ms").and_then(Json::as_f64).unwrap_or(0.0);
            }
            "seed-added" => seeds += 1,
            "corpus-evict" => evictions += 1,
            "plateau" => {
                plateaus += 1;
                last_plateau = Some(event);
            }
            _ => {}
        }
    }

    if let Some(start) = &campaign {
        println!(
            "campaign : model {} | seed {} | {} worker(s) | budget {} ms | {} branch probes",
            start.get("model").and_then(Json::as_str).unwrap_or("?"),
            start.get("seed").and_then(Json::as_u64).unwrap_or(0),
            start.get("workers").and_then(Json::as_u64).unwrap_or(1),
            start
                .get("budget_ms")
                .and_then(Json::as_u64)
                .map_or_else(|| "?".to_string(), |v| v.to_string()),
            start.get("branch_count").and_then(Json::as_u64).unwrap_or(0),
        );
    }
    if let Some(end) = &end {
        println!(
            "result   : {} executions / {} iterations in {:.2}s ({:.0} iterations/s)",
            end.get("executions").and_then(Json::as_u64).unwrap_or(0),
            end.get("iterations").and_then(Json::as_u64).unwrap_or(0),
            end.get("elapsed_s").and_then(Json::as_f64).unwrap_or(0.0),
            end.get("iterations_per_second").and_then(Json::as_f64).unwrap_or(0.0),
        );
        if let Some(resumed) = end.get("resumed_ticks").and_then(Json::as_u64) {
            println!("resume   : {resumed} iterations resumed from a corpus parent's checkpoint");
        }
        println!(
            "coverage : {}/{} branches",
            end.get("covered").and_then(Json::as_u64).unwrap_or(0),
            end.get("total").and_then(Json::as_u64).unwrap_or(0),
        );
    } else if let Some((covered, total)) = last_coverage {
        println!("coverage : {covered}/{total} branches (campaign still running)");
    }
    println!("progress : {coverage_events} new-coverage events, {seeds} seeds, {evictions} corpus evictions");
    if sync_rounds > 0 {
        println!(
            "sync     : {sync_rounds} rounds, {:.2} ms average merge cost",
            sync_ms_total / sync_rounds as f64
        );
    }
    if violations.is_empty() {
        println!("violations: none");
    } else {
        println!("violations:");
        for label in &violations {
            println!("  {label}");
        }
    }
    if let Some(last) = &last_plateau {
        println!(
            "plateaus : {plateaus} quiet window(s); last at {} executions with {} goal(s) open",
            last.get("executions").and_then(Json::as_u64).unwrap_or(0),
            last.get("open").and_then(Json::as_u64).unwrap_or(0),
        );
        if let Some(diff) = last.get("frontier").and_then(Json::as_array) {
            for row in diff.iter().take(8) {
                println!(
                    "  open: {} ({})",
                    row.get("label").and_then(Json::as_str).unwrap_or("?"),
                    row.get("cause").and_then(Json::as_str).unwrap_or("?"),
                );
            }
            if diff.len() > 8 {
                println!("  ... and {} more (see the event log)", diff.len() - 8);
            }
        }
    }
    if let Some(yields) = end.as_ref().and_then(|e| e.get("yields")).and_then(Json::as_array) {
        let rows = yields
            .iter()
            .map(cftcg::telemetry::YieldReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if rows.iter().any(|r| r.executed > 0) {
            println!("mutation-yield matrix (per-operator outcomes):");
            print!("{}", yield_table(&rows));
        }
    }
    Ok(())
}

fn export_benchmarks(dir: &str) -> Result<(), Box<dyn Error>> {
    fs::create_dir_all(dir)?;
    for model in cftcg::benchmarks::all() {
        let path = Path::new(dir).join(format!("{}.mdlx", model.name().to_lowercase()));
        fs::write(&path, save_model(&model))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
