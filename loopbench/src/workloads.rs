//! The workloads and the run that measures them.
//!
//! Every workload is a closed loop with one client: a campaign runs a fixed
//! number of executions, each input only after the previous one finished,
//! and throughput is that fixed work divided by the time it took. A *pass*
//! sets the workload's models up and runs its campaigns once; the run
//! repeats identical passes until `--seconds` have been measured, and times
//! each piece of a pass by its median over passes, scaled to nominal host
//! speed (see `calibrate.rs`).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cftcg_codegen::{compile, replay_suite, CompiledModel, Engine, Executor, TestCase};
use cftcg_core::CampaignArtifact;
use cftcg_fuzz::{FuzzConfig, FuzzOutcome, Fuzzer, Generation, ParallelFuzzConfig, ParallelFuzzer};
use cftcg_telemetry::{SpanKind, Telemetry};

use crate::budget::{Budget, CAMPAIGN};
use crate::calibrate;
use crate::layers::time_layers;
use crate::stats::{median, summarize};
use crate::trace::{Tracer, Work};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolarpvPlateau,
    AllModelsCold,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SolarpvPlateau, Workload::AllModelsCold];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolarpvPlateau => "solarpv-plateau",
            Workload::AllModelsCold => "all-models-cold",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The fixed work of one pass, sized for several passes in a 30-second
    /// run on a 2-vCPU x86-64 host.
    pub fn plan(self) -> Plan {
        match self {
            Workload::SolarpvPlateau => Plan {
                models: &["solarpv"],
                executions: 24_000,
                chunk: 4_000,
                setups: 5,
                replay_children: 2_000,
                layer_reps: 15,
            },
            Workload::AllModelsCold => Plan {
                models: &["afc", "cputask", "evcs", "rac", "solarpv", "tcp", "twc", "utpc"],
                executions: 3_000,
                chunk: 3_000,
                setups: 3,
                replay_children: 1_000,
                layer_reps: 11,
            },
        }
    }
}

/// Campaigns per model per pass, each from its own seed: enough that one
/// seed's trajectory does not set a workload's throughput.
const CAMPAIGNS: u64 = 4;

/// The fixed work of one workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// `models/<name>.mdlx` files, loaded from text.
    pub models: &'static [&'static str],
    /// Executions per campaign.
    pub executions: u64,
    /// Executions per timed chunk of a sequential campaign.
    pub chunk: u64,
    /// Timed set-ups of all models at the start of every pass.
    pub setups: usize,
    /// Replay-set size per model (traced run).
    pub replay_children: usize,
    /// Repetitions of each layer timing (traced run).
    pub layer_reps: usize,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub models_dir: PathBuf,
}

/// Failed and attempted operations: model loads, compiles, campaigns,
/// replays, artifact round-trips and the traced run's budget check.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ops {
    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What a run found.
#[derive(Debug)]
pub struct Report {
    pub ops: Ops,
    /// Metric name → value, for the mode's metric list.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable detail (sample summaries, the budget table).
    pub notes: Vec<String>,
    pub engine: Engine,
}

impl Report {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The exact, seed-determined shape of a finished campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    executions: u64,
    ticks: u64,
    emitted: usize,
    committed: usize,
    covered: usize,
}

fn shape(o: &FuzzOutcome) -> Shape {
    Shape {
        executions: o.executions,
        ticks: o.iterations,
        emitted: o.suite.len(),
        committed: o.lineage.len(),
        covered: o.covered_branches,
    }
}

/// SplitMix64 finalizer, for per-campaign seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fuzzing seed of campaign `k` on model `tag`. Kept below 2^32, the
/// range users pass on the command line: campaign artifacts store the seed
/// as a JSON number, which reads back exactly only below 2^53.
pub fn campaign_seed(seed: u64, tag: usize, k: u64) -> u64 {
    mix(mix(seed) ^ mix(((tag as u64) << 32) | k)) >> 32
}

/// Wall time from campaign start to the last goal it covered.
fn time_to_coverage(o: &FuzzOutcome, compiled: &CompiledModel) -> f64 {
    let goals = o.provenance.covered_goals(compiled.map());
    goals.iter().map(|(_, hit)| hit.elapsed).max().unwrap_or(Duration::ZERO).as_secs_f64()
}

/// Loads, compiles and JITs one model from its `.mdlx` text. Returns the
/// compiled model and whether native code is live for it.
fn set_up(
    tr: &mut Tracer,
    ops: &mut Ops,
    name: &str,
    text: &str,
    tag: usize,
) -> Option<(CompiledModel, bool)> {
    let open = tr.begin("model.load", tag);
    let model = cftcg_model::load_model(text);
    tr.end(open, Work::default());
    let model = match model {
        Ok(m) => m,
        Err(e) => {
            ops.check(false, || format!("{name}: load failed: {e}"));
            return None;
        }
    };
    ops.check(true, String::new);
    let open = tr.begin("codegen.compile", tag);
    let compiled = compile(&model);
    tr.end(open, Work::default());
    let compiled = match compiled {
        Ok(c) => c,
        Err(e) => {
            ops.check(false, || format!("{name}: compile failed: {e}"));
            return None;
        }
    };
    ops.check(true, String::new);
    let open = tr.begin("codegen.jit", tag);
    let engine = Executor::new_jit(&compiled).engine();
    tr.end(open, Work::default());
    Some((compiled, engine == Engine::Jit))
}

/// A timed call with the host slowdown measured around it.
#[derive(Debug, Clone, Copy)]
struct Timed {
    wall: f64,
    slowdown: f64,
    work: Work,
}

impl Timed {
    /// The wall time the call would have taken on a host at nominal speed.
    fn scaled(&self) -> f64 {
        self.wall / self.slowdown
    }
}

/// Times `f` as span `name` on `tag`, bracketed by calibration runs.
fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    tag: usize,
    f: impl FnOnce(&mut Tracer) -> (T, Work),
) -> (T, Timed) {
    let before = calibrate::run();
    let open = tr.begin(name, tag);
    let (value, work) = f(tr);
    let wall = tr.end(open, work).as_secs_f64();
    let slowdown = calibrate::slowdown(before, calibrate::run());
    (value, Timed { wall, slowdown, work })
}

/// Sets up every model `repeats` times, one timed sample per repeat, and
/// returns the last repeat's compiled models (`None` where set-up failed).
fn set_up_all(
    tr: &mut Tracer,
    ops: &mut Ops,
    texts: &[(&str, String)],
    repeats: usize,
    samples: &mut Vec<Timed>,
) -> Result<Vec<Option<CompiledModel>>, String> {
    let mut models = Vec::new();
    for _ in 0..repeats.max(1) {
        let (round, sample) = timed(tr, "setup", 0, |tr| {
            let round: Vec<_> = texts
                .iter()
                .enumerate()
                .map(|(tag, (name, text))| set_up(tr, ops, name, text, tag))
                .collect();
            (round, Work::default())
        });
        samples.push(sample);
        if let Some(i) = round.iter().position(|r| matches!(r, Some((_, false)))) {
            return Err(format!(
                "no native JIT on this host or build ({}, model {}); \
                 refusing to report flat-VM numbers as JIT numbers",
                std::env::consts::ARCH,
                texts[i].0
            ));
        }
        models = round.into_iter().map(|r| r.map(|(c, _)| c)).collect();
    }
    if models.iter().all(Option::is_none) {
        return Err("no model could be set up".to_string());
    }
    Ok(models)
}

/// Runs one campaign of `plan.executions` inputs. A sequential campaign
/// runs in chunks of `plan.chunk` executions (the same input sequence as
/// one call), each timed as its own span; a parallel one is one span.
/// Returns the outcome and each span's timing.
fn run_campaign(
    tr: &mut Tracer,
    span: &'static str,
    tag: usize,
    model: &CompiledModel,
    fuzz: FuzzConfig,
    plan: &Plan,
    workers: usize,
) -> (FuzzOutcome, Vec<Timed>) {
    let work = |o: &FuzzOutcome| Work {
        execs: o.executions,
        ticks: o.iterations,
        cases: o.suite.len() as u64,
    };
    if workers > 1 {
        let config = ParallelFuzzConfig { workers, fuzz, ..ParallelFuzzConfig::default() };
        let (outcome, t) = timed(tr, span, tag, |_| {
            let outcome = ParallelFuzzer::new(model, config).run_executions(plan.executions);
            let w = work(&outcome);
            (outcome, w)
        });
        return (outcome, vec![t]);
    }
    let mut fuzzer = Fuzzer::new(model, fuzz);
    let mut chunks = Vec::new();
    let mut before = Work::default();
    loop {
        let step = plan.chunk.max(1).min(plan.executions - before.execs);
        let (outcome, t) = timed(tr, span, tag, |_| {
            let outcome = fuzzer.run_executions(step);
            let after = work(&outcome);
            let w = Work {
                execs: after.execs - before.execs,
                ticks: after.ticks - before.ticks,
                cases: after.cases - before.cases,
            };
            (outcome, w)
        });
        chunks.push(t);
        before = work(&outcome);
        if before.execs >= plan.executions {
            return (outcome, chunks);
        }
    }
}

/// One timed piece of a pass: its (identical) work and its timing in
/// every pass.
struct Slot {
    work: Work,
    times: Vec<Timed>,
}

/// What the first pass keeps of each campaign.
struct Record {
    tag: usize,
    seed: u64,
    shape: Shape,
    goals: u64,
    last_goal_execs: u64,
    /// The emitted suite of each model's first campaign (replay-set source).
    suite: Option<Vec<TestCase>>,
}

impl Record {
    /// The campaign's fuzzing configuration, with a registry attached.
    fn config(&self, telemetry: Option<Arc<Telemetry>>) -> FuzzConfig {
        FuzzConfig { seed: self.seed, telemetry, ..FuzzConfig::default() }
    }
}

/// The correctness checks on a first-pass campaign: the replayed suite
/// reproduces the reported coverage, and the campaign artifact round-trips
/// through JSON byte for byte. Returns the goals the replay covers.
fn check_campaign(
    tr: &mut Tracer,
    ops: &mut Ops,
    name: &str,
    tag: usize,
    model: &CompiledModel,
    seed: u64,
    outcome: &FuzzOutcome,
) -> u64 {
    let report = replay_suite(model, &outcome.suite);
    ops.check(report.decision.covered == outcome.covered_branches, || {
        format!(
            "{name}: replay covers {} branches, campaign reported {} (seed {seed})",
            report.decision.covered, outcome.covered_branches
        )
    });
    let open = tr.begin("core.artifact", tag);
    let generation = Generation::from(outcome.clone());
    let artifact = CampaignArtifact::from_generation(name, seed, 1, &generation, model.map());
    let json = artifact.to_json();
    let again = CampaignArtifact::from_json(&json).map(|a| a.to_json());
    tr.end(open, Work::default());
    ops.check(again.as_deref() == Ok(json.as_str()), || {
        format!("{name}: campaign artifact does not round-trip (seed {seed})")
    });
    (report.decision.covered + report.condition.covered + report.mcdc.covered) as u64
}

/// Scaled wall time, executions and ticks of one traced leg.
#[derive(Debug, Default, Clone, Copy)]
struct Leg {
    wall_s: f64,
    execs: u64,
    ticks: u64,
}

impl Leg {
    fn add(&mut self, chunks: &[Timed]) {
        for t in chunks {
            self.wall_s += t.scaled();
            self.execs += t.work.execs;
            self.ticks += t.work.ticks;
        }
    }

    fn execs_per_s(&self) -> f64 {
        self.execs as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }
}

/// Peak resident set of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Runs a workload plan. `Err` means no result can be reported (models
/// missing, or no native JIT on this host).
pub fn run(plan: &Plan, opts: &Options, tr: &mut Tracer) -> Result<Report, String> {
    let mut texts = Vec::new();
    for name in plan.models {
        let path = opts.models_dir.join(format!("{name}.mdlx"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        texts.push((*name, text));
    }
    let mut ops = Ops::default();
    let mut setup_s = Vec::new();
    let mut compiled = Vec::new();
    let mut slots: Vec<Slot> = Vec::new();
    let mut records: Vec<Record> = Vec::new();
    let mut ttc: Vec<Vec<f64>> = Vec::new();
    let (mut passes, mut measured) = (0usize, 0.0);

    // Passes: set up every model from text, then run every campaign; the
    // same fixed work each time, until the time is measured.
    while passes == 0 || measured < opts.seconds {
        compiled = set_up_all(tr, &mut ops, &texts, plan.setups, &mut setup_s)?;
        let (mut slot, mut index) = (0, 0);
        for (tag, model) in compiled.iter().enumerate() {
            let Some(model) = model else { continue };
            let name = texts[tag].0;
            for k in 0..CAMPAIGNS {
                let seed = campaign_seed(opts.seed, tag, k);
                let fuzz = FuzzConfig { seed, ..FuzzConfig::default() };
                let (outcome, chunks) = run_campaign(tr, CAMPAIGN, tag, model, fuzz, plan, 1);
                for t in chunks {
                    if passes == 0 {
                        slots.push(Slot { work: t.work, times: Vec::new() });
                    }
                    match slots.get_mut(slot) {
                        Some(s) if s.work == t.work => s.times.push(t),
                        _ => {
                            ops.check(false, || format!("{name}: pass {passes} changed its work"));
                        }
                    }
                    measured += t.wall;
                    slot += 1;
                }
                ops.check(outcome.executions == plan.executions, || {
                    format!("{name}: campaign ran {} executions", outcome.executions)
                });
                if passes == 0 {
                    let goals = check_campaign(tr, &mut ops, name, tag, model, seed, &outcome);
                    let hits = outcome.provenance.covered_goals(model.map());
                    records.push(Record {
                        tag,
                        seed,
                        shape: shape(&outcome),
                        goals,
                        last_goal_execs: hits.iter().map(|(_, h)| h.executions).max().unwrap_or(0),
                        suite: (k == 0).then(|| outcome.suite.clone()),
                    });
                    ttc.push(Vec::new());
                } else if let Some(first) = records.get(index) {
                    ops.check(shape(&outcome) == first.shape, || {
                        format!("{name}: pass {passes} diverged from pass 0 (seed {seed})")
                    });
                }
                if let Some(t) = ttc.get_mut(index) {
                    t.push(time_to_coverage(&outcome, model));
                }
                index += 1;
            }
        }
        passes += 1;
    }

    // Each slot's time is its median over passes, scaled to nominal host
    // speed (see `calibrate.rs`); unscaled figures are printed beside.
    let slot_time = |f: fn(&Timed) -> f64| -> f64 {
        slots.iter().map(|s| median(&s.times.iter().map(f).collect::<Vec<_>>())).sum()
    };
    let (slot_s, raw_s) = (slot_time(Timed::scaled), slot_time(|t| t.wall));
    let execs: u64 = slots.iter().map(|s| s.work.execs).sum();
    let ticks: u64 = slots.iter().map(|s| s.work.ticks).sum();
    let all = |f: fn(&Timed) -> f64| setup_s.iter().map(f).collect::<Vec<_>>();
    let slowdowns: Vec<f64> =
        slots.iter().flat_map(|s| s.times.iter().map(|t| t.slowdown)).collect();
    let mut notes = vec![
        format!("passes: {passes}; host slowdown per slot: {}", summarize(&slowdowns)),
        format!("setup_s samples, scaled: {}", summarize(&all(Timed::scaled))),
        format!("setup_s samples, unscaled: {}", summarize(&all(|t| t.wall))),
        format!(
            "unscaled: {:.1} execs/s, {:.1} ticks/s",
            execs as f64 / raw_s,
            ticks as f64 / raw_s
        ),
    ];
    let goals: u64 = records.iter().map(|r| r.goals).sum();
    let engine = FuzzConfig::default().resolved_engine();

    if !opts.trace {
        let metrics = vec![
            ("setup_s", median(&all(Timed::scaled))),
            ("execs_per_s", execs as f64 / slot_s),
            ("ticks_per_s", ticks as f64 / slot_s),
            ("goals_covered", goals as f64),
            ("peak_rss_mb", peak_rss_mb().ok_or("no /proc/self/status on this host")?),
        ];
        return Ok(Report { ops, metrics, notes, engine });
    }

    // ---- traced run: per-layer numbers ----
    let model_of = |tag: usize| compiled[tag].as_ref().expect("model of a finished campaign");

    // The same campaigns with the telemetry registry attached.
    let mut observed = Leg::default();
    let mut corpus_inserts = 0;
    for r in &records {
        let registry = Arc::new(Telemetry::new());
        let telemetry = Some(registry.clone());
        let model = model_of(r.tag);
        let (_, chunks) =
            run_campaign(tr, "telemetry.campaign", r.tag, model, r.config(telemetry), plan, 1);
        observed.add(&chunks);
        corpus_inserts += registry.snapshot().totals.corpus_inserts;
    }
    let untraced = execs as f64 / slot_s;
    let overhead_pct = 100.0 * (untraced - observed.execs_per_s()) / untraced;

    // Layers in isolation, over each model's replay set.
    for r in records.iter().filter(|r| r.suite.is_some()) {
        let suite = r.suite.as_deref().unwrap_or_default();
        let (children, reps) = (plan.replay_children, plan.layer_reps);
        time_layers(tr, model_of(r.tag), suite, mix(r.seed), r.tag, children, reps);
    }

    // Scaling legs: the same campaigns at 1 and 2 workers (`Fuzzer`, then
    // `ParallelFuzzer`), registry attached for the sync share.
    let mut legs = [Leg::default(); 2];
    let (mut sync_weighted, mut sync_wall) = (0.0, 0.0);
    for (leg, workers, span) in [(0, 1, "parallel.w1"), (1, 2, "parallel.w2")] {
        for r in &records {
            let registry = Arc::new(Telemetry::new());
            let telemetry = Some(registry.clone());
            let model = model_of(r.tag);
            let (_, chunks) =
                run_campaign(tr, span, r.tag, model, r.config(telemetry), plan, workers);
            legs[leg].add(&chunks);
            if workers == 2 {
                let spans = registry.snapshot().totals.spans;
                let wall: f64 = chunks.iter().map(|c| c.wall).sum();
                let sync =
                    spans.phase_pct(SpanKind::SyncWait) + spans.phase_pct(SpanKind::SyncRound);
                sync_weighted += sync * wall;
                sync_wall += wall;
            }
        }
    }

    let budget = Budget::from_trace(tr);
    ops.check(budget.closes(), || {
        format!(
            "budget does not close: layers exceed the loop by {:.2} ns/tick (spread {:.2})",
            -budget.residual(),
            budget.tolerance()
        )
    });
    notes.push(format!(
        "ns/tick budget ({} ticks, {} executions, {} emitted):\n{}",
        budget.loop_work.ticks,
        budget.loop_work.execs,
        budget.loop_work.cases,
        budget.table()
    ));
    let sum = |f: fn(&Record) -> u64| records.iter().map(f).sum::<u64>();
    let artifact_s: f64 =
        tr.spans().iter().filter(|s| s.name == "core.artifact").map(|s| s.ns()).sum::<u64>() as f64
            / 1e9;
    let metrics = vec![
        ("model.load_s", median(&tr.child_sums_s("setup", "model.load"))),
        ("codegen.compile_s", median(&tr.child_sums_s("setup", "codegen.compile"))),
        ("codegen.jit_s", median(&tr.child_sums_s("setup", "codegen.jit"))),
        (
            "codegen.flat_ops",
            compiled.iter().flatten().map(|c| c.flat_lens().0).sum::<usize>() as f64,
        ),
        ("codegen.step_ns_per_tick", budget.row("step")),
        ("coverage.probe_ns_per_tick", budget.row("probe")),
        ("coverage.bookkeeping_ns_per_tick", budget.row("bookkeeping")),
        ("coverage.replay_ns_per_case", budget.replay_ns_per_case),
        ("fuzz.mutate_ns_per_exec", budget.mutate_ns_per_exec),
        ("fuzz.corpus_ns_per_exec", budget.corpus_ns_per_exec),
        ("fuzz.loop_ns_per_tick", budget.loop_ns_per_tick),
        ("fuzz.residual_ns_per_tick", budget.residual()),
        ("fuzz.ticks_per_exec", ratio(sum(|r| r.shape.ticks), sum(|r| r.shape.executions))),
        (
            "fuzz.useful_ratio",
            ratio(sum(|r| r.shape.committed as u64), sum(|r| r.shape.executions)),
        ),
        ("fuzz.emitted_cases", sum(|r| r.shape.emitted as u64) as f64),
        ("fuzz.corpus_inserts", corpus_inserts as f64),
        ("fuzz.time_to_coverage_s", ttc.iter().map(|t| median(t)).sum::<f64>()),
        ("fuzz.last_goal_execs", sum(|r| r.last_goal_execs) as f64),
        ("parallel.scaling", legs[1].execs_per_s() / legs[0].execs_per_s()),
        ("parallel.sync_pct", sync_weighted / sync_wall.max(f64::MIN_POSITIVE)),
        ("parallel.w1_ticks_per_exec", ratio(legs[0].ticks, legs[0].execs)),
        ("parallel.w2_ticks_per_exec", ratio(legs[1].ticks, legs[1].execs)),
        ("telemetry.overhead_pct", overhead_pct),
        ("core.artifact_s", artifact_s),
    ];
    Ok(Report { ops, metrics, notes, engine })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small plan over two models, fast enough for a debug build.
    fn tiny() -> Plan {
        Plan {
            models: &["solarpv", "tcp"],
            executions: 500,
            chunk: 200,
            setups: 1,
            replay_children: 30,
            layer_reps: 2,
        }
    }

    fn run_tiny(trace: bool) -> Report {
        let models_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../models"));
        let opts = Options { seed: 9, seconds: 0.0, trace, models_dir };
        let report = run(&tiny(), &opts, &mut Tracer::new(trace)).expect("tiny run");
        assert_eq!(report.ops.failed, 0, "{:?}", report.ops.problems);
        report
    }

    const EXACT: [&str; 7] = [
        "codegen.flat_ops",
        "fuzz.ticks_per_exec",
        "fuzz.emitted_cases",
        "fuzz.corpus_inserts",
        "fuzz.useful_ratio",
        "fuzz.last_goal_execs",
        "parallel.w2_ticks_per_exec",
    ];

    #[test]
    fn exact_counts_repeat_for_a_seed() {
        let (a, b) = (run_tiny(false), run_tiny(false));
        assert_eq!(a.get("goals_covered"), b.get("goals_covered"));
        assert!(a.get("goals_covered").unwrap_or(0.0) > 0.0);
        let (a, b) = (run_tiny(true), run_tiny(true));
        for name in EXACT {
            let (x, y) = (a.get(name), b.get(name));
            assert!(x.is_some_and(|v| v > 0.0), "{name} missing or zero");
            assert_eq!(x, y, "{name} differs between two runs of seed 9");
        }
    }

    #[test]
    fn campaign_seeds_differ_and_stay_below_2_pow_32() {
        let seeds: Vec<u64> = (0..4).flat_map(|k| [0, 1].map(|t| campaign_seed(7, t, k))).collect();
        assert!(seeds.iter().all(|&s| s < 1 << 32));
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_ne!(campaign_seed(7, 0, 0), campaign_seed(8, 0, 0));
    }
}
