//! The paired A/B harness: run two fuzzing-loop configurations against the
//! same model as interleaved trials (A₁ B₁ A₂ B₂ …) with per-trial seeds,
//! summarize each variant's goals-at-budget, time-to-goal and
//! executions-to-goal distributions (median / interquartile range), and
//! pick a representative artifact pair for the standard diff renderer.
//! [`ab_json`] writes every trial, so a verdict can be re-derived from the
//! output alone.
//!
//! Interleaving matters for wall-clock budgets: thermal drift, page-cache
//! warm-up, and background load then bias both variants equally instead of
//! whichever ran second. Under an execution budget every trial is
//! deterministic given its seed, so the harness doubles as a test surface.

use cftcg_codegen::Engine;
use cftcg_core::{CampaignArtifact, Cftcg};
use cftcg_coverage::InstrumentationMap;
use cftcg_fuzz::FuzzConfig;
use cftcg_model::Model;
use cftcg_telemetry::json::push_json_str;
use std::fmt::Write as _;
use std::time::Duration;

/// One side of an A/B experiment: a named fuzzing-loop configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantSpec {
    /// Display name (`A` / `B` by default, or the raw spec string).
    pub name: String,
    /// Execution engine; `None` runs the build's best tier, like the
    /// `fuzz` subcommand without `--engine`.
    pub engine: Option<Engine>,
    /// Worker shard count.
    pub workers: usize,
    /// Field-aware tuple mutation (ablation A2 when off).
    pub field_aware: bool,
    /// Metric-weighted corpus scheduling (ablation A1 when off).
    pub metric_weighted_corpus: bool,
}

impl Default for VariantSpec {
    fn default() -> Self {
        let defaults = FuzzConfig::default();
        VariantSpec {
            name: String::new(),
            engine: None,
            workers: 1,
            field_aware: defaults.field_aware,
            metric_weighted_corpus: defaults.metric_weighted_corpus,
        }
    }
}

impl VariantSpec {
    /// Parses a `key=value[,key=value…]` variant spec. Keys: `engine`
    /// (`ref`/`flat`/`jit`), `workers` (count), `field-aware` and
    /// `metric-corpus` (`on`/`off`). The empty string is the default
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending clause.
    pub fn parse(name: &str, spec: &str) -> Result<Self, String> {
        let mut out = VariantSpec { name: name.to_string(), ..VariantSpec::default() };
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("variant clause `{clause}` is not key=value"))?;
            match key.trim() {
                "engine" => out.engine = Some(value.parse()?),
                "workers" => {
                    out.workers = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("workers `{value}` is not a count"))?;
                    if out.workers == 0 {
                        return Err("workers must be at least 1".to_string());
                    }
                }
                "field-aware" => out.field_aware = parse_switch(value)?,
                "metric-corpus" => out.metric_weighted_corpus = parse_switch(value)?,
                other => return Err(format!("unknown variant key `{other}`")),
            }
        }
        Ok(out)
    }

    /// A compact one-line description of the non-default knobs.
    pub fn describe(&self) -> String {
        let mut parts = vec![format!(
            "engine={}",
            self.engine.map_or("auto".to_string(), |e| e.name().to_string())
        )];
        parts.push(format!("workers={}", self.workers));
        if !self.field_aware {
            parts.push("field-aware=off".to_string());
        }
        if !self.metric_weighted_corpus {
            parts.push("metric-corpus=off".to_string());
        }
        parts.join(",")
    }

    fn config(&self, seed: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            engine: self.engine,
            field_aware: self.field_aware,
            metric_weighted_corpus: self.metric_weighted_corpus,
            ..FuzzConfig::default()
        }
    }
}

fn parse_switch(value: &str) -> Result<bool, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "on" | "true" | "1" => Ok(true),
        "off" | "false" | "0" => Ok(false),
        other => Err(format!("switch value `{other}` is not on/off")),
    }
}

/// The per-trial budget of an A/B experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbBudget {
    /// Wall-clock budget per trial, milliseconds.
    Millis(u64),
    /// Exact execution count per trial (deterministic given the seed).
    Executions(u64),
}

/// One trial's outcome summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// The trial's RNG seed.
    pub seed: u64,
    /// Goals covered at budget exhaustion.
    pub goals: usize,
    /// Branches covered.
    pub covered: usize,
    /// Decision coverage of the emitted suite, percent.
    pub decision_pct: f64,
    /// Condition coverage, percent.
    pub condition_pct: f64,
    /// MC/DC coverage, percent.
    pub mcdc_pct: f64,
    /// Inputs executed.
    pub executions: u64,
    /// Executions completed when the last goal was first hit (0 when no
    /// goal was hit). Deterministic under an execution budget.
    pub executions_to_last_goal: u64,
    /// Wall-clock offset of the last goal hit, seconds (0 when no goal was
    /// hit).
    pub time_to_last_goal_s: f64,
}

/// Median and interquartile range of one metric across trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The distribution median.
    pub median: f64,
    /// 25th percentile.
    pub q1: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Spread {
    /// Computes the spread of a sample (empty samples yield all-zero).
    pub fn of(values: &[f64]) -> Spread {
        if values.is_empty() {
            return Spread { median: 0.0, q1: 0.0, q3: 0.0 };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric is never NaN"));
        Spread {
            median: percentile(&sorted, 0.50),
            q1: percentile(&sorted, 0.25),
            q3: percentile(&sorted, 0.75),
        }
    }

    /// Interquartile range (`q3 − q1`).
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Linear-interpolated percentile of an already-sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// One variant's half of the experiment: per-trial results, distribution
/// summaries, and the representative artifact.
#[derive(Debug, Clone)]
pub struct VariantOutcome {
    /// The configuration.
    pub spec: VariantSpec,
    /// Per-trial results, trial order.
    pub trials: Vec<TrialResult>,
    /// Goals-at-budget distribution.
    pub goals: Spread,
    /// Branches-covered distribution.
    pub covered: Spread,
    /// Time-to-last-goal distribution, seconds.
    pub time_to_goal_s: Spread,
    /// Executions-to-last-goal distribution.
    pub executions_to_goal: Spread,
    /// The artifact of the median-by-goals trial (ties: earliest trial),
    /// used as the variant's representative in the diff renderer.
    pub representative: CampaignArtifact,
    /// Trial index of the representative artifact.
    pub representative_trial: usize,
}

/// The full paired experiment outcome.
#[derive(Debug, Clone)]
pub struct AbOutcome {
    /// Variant A.
    pub a: VariantOutcome,
    /// Variant B.
    pub b: VariantOutcome,
}

/// Runs the paired experiment: `trials` interleaved A/B trial pairs with
/// seeds `base_seed + trial`, both sides of a pair sharing the seed.
///
/// # Errors
///
/// Returns the compile error when the model is invalid.
pub fn run_ab(
    model: &Model,
    a: &VariantSpec,
    b: &VariantSpec,
    trials: usize,
    base_seed: u64,
    budget: AbBudget,
) -> Result<AbOutcome, Box<dyn std::error::Error>> {
    let mut runs_a = Vec::with_capacity(trials);
    let mut runs_b = Vec::with_capacity(trials);
    for trial in 0..trials {
        let seed = base_seed + trial as u64;
        runs_a.push(run_trial(model, a, seed, budget)?);
        runs_b.push(run_trial(model, b, seed, budget)?);
    }
    Ok(AbOutcome { a: summarize(a, runs_a), b: summarize(b, runs_b) })
}

fn run_trial(
    model: &Model,
    spec: &VariantSpec,
    seed: u64,
    budget: AbBudget,
) -> Result<(TrialResult, CampaignArtifact), Box<dyn std::error::Error>> {
    let tool = Cftcg::new(model)?.with_config(spec.config(seed));
    let generation = match budget {
        AbBudget::Millis(ms) => {
            tool.generate_parallel(Duration::from_millis(ms), seed, spec.workers)
        }
        AbBudget::Executions(n) => tool.generate_parallel_executions(n, seed, spec.workers),
    };
    let map: &InstrumentationMap = tool.compiled().map();
    let mut artifact =
        CampaignArtifact::from_generation(model.name(), seed, spec.workers, &generation, map);
    artifact.engine = Some(tool.engine().name().to_string());
    let report = tool.score(&generation);
    let result = TrialResult {
        seed,
        goals: artifact.hits.len(),
        covered: artifact.covered_branches,
        decision_pct: report.decision.percent(),
        condition_pct: report.condition.percent(),
        mcdc_pct: report.mcdc.percent(),
        executions: artifact.executions,
        executions_to_last_goal: artifact.hits.iter().map(|h| h.executions).max().unwrap_or(0),
        time_to_last_goal_s: artifact.hits.iter().map(|h| h.elapsed_s).fold(0.0f64, f64::max),
    };
    Ok((result, artifact))
}

fn summarize(spec: &VariantSpec, runs: Vec<(TrialResult, CampaignArtifact)>) -> VariantOutcome {
    let metric = |f: fn(&TrialResult) -> f64| {
        Spread::of(&runs.iter().map(|(t, _)| f(t)).collect::<Vec<_>>())
    };
    let goals = metric(|t| t.goals as f64);
    // Representative: the trial whose goal count sits closest to the median
    // (earliest trial on ties), so the rendered diff shows a typical run,
    // not a lucky or unlucky tail.
    let representative_trial = runs
        .iter()
        .enumerate()
        .min_by(|(_, (x, _)), (_, (y, _))| {
            let dx = (x.goals as f64 - goals.median).abs();
            let dy = (y.goals as f64 - goals.median).abs();
            dx.partial_cmp(&dy).expect("goal distances are never NaN")
        })
        .map(|(i, _)| i)
        .expect("at least one trial");
    let representative = runs[representative_trial].1.clone();
    VariantOutcome {
        spec: spec.clone(),
        goals,
        covered: metric(|t| t.covered as f64),
        time_to_goal_s: metric(|t| t.time_to_last_goal_s),
        executions_to_goal: metric(|t| t.executions_to_last_goal as f64),
        trials: runs.into_iter().map(|(t, _)| t).collect(),
        representative,
        representative_trial,
    }
}

/// `median [IQR]` of a spread, to `decimals` places.
fn median_iqr(spread: &Spread, decimals: usize) -> String {
    format!("{:.decimals$} [{:.decimals$}]", spread.median, spread.iqr())
}

/// Renders the experiment summary as an aligned terminal table.
pub fn ab_report(outcome: &AbOutcome, trials: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "paired A/B: {trials} interleaved trial pairs, shared per-trial seeds");
    let _ = writeln!(
        out,
        "  {:8}  {:>20}  {:>20}  {:>22}  {:>22}",
        "variant", "goals", "branches", "t-to-goal s", "execs-to-goal"
    );
    for (name, v) in [("A", &outcome.a), ("B", &outcome.b)] {
        let _ = writeln!(
            out,
            "  {:8}  {:>20}  {:>20}  {:>22}  {:>22}",
            name,
            median_iqr(&v.goals, 1),
            median_iqr(&v.covered, 1),
            median_iqr(&v.time_to_goal_s, 3),
            median_iqr(&v.executions_to_goal, 0),
        );
        let _ = writeln!(out, "           config: {}", v.spec.describe());
    }
    let _ = writeln!(out, "  (every column: median [interquartile range] over the trials)");
    let _ = writeln!(
        out,
        "  representative trials: A#{} (seed {}), B#{} (seed {}) — diffed below",
        outcome.a.representative_trial,
        outcome.a.representative.seed,
        outcome.b.representative_trial,
        outcome.b.representative.seed
    );
    out
}

/// The experiment as one JSON document: each variant's config and every
/// trial (seed, goals, branches, DC/CC/MC-DC, executions, executions and
/// seconds to the last goal), plus `diff`, the representative pair's
/// machine diff (a [`crate::diff_json`] document).
pub fn ab_json(outcome: &AbOutcome, diff: &str) -> String {
    let mut out = String::from("{\n\"variants\":[");
    for (i, (name, v)) in [("A", &outcome.a), ("B", &outcome.b)].into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":");
        push_json_str(&mut out, name);
        out.push_str(",\"config\":");
        push_json_str(&mut out, &v.spec.describe());
        out.push_str(",\"trials\":[");
        for (j, t) in v.trials.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n  {{\"seed\":{},\"goals\":{},\"branches\":{},\"dc_pct\":{},\
                 \"cc_pct\":{},\"mcdc_pct\":{},\"executions\":{},\
                 \"executions_to_last_goal\":{},\"time_to_last_goal_s\":{}}}",
                if j > 0 { "," } else { "" },
                t.seed,
                t.goals,
                t.covered,
                t.decision_pct,
                t.condition_pct,
                t.mcdc_pct,
                t.executions,
                t.executions_to_last_goal,
                t.time_to_last_goal_s,
            );
        }
        out.push_str("]}");
    }
    let _ = write!(out, "],\n\"diff\":{}\n}}\n", diff.trim_end());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_variant_specs() {
        let v = VariantSpec::parse("B", "engine=flat, workers=2, field-aware=off").unwrap();
        assert_eq!(v.engine, Some(Engine::Flat));
        assert_eq!(v.workers, 2);
        assert!(!v.field_aware);
        assert!(v.metric_weighted_corpus);
        assert!(VariantSpec::parse("A", "").unwrap().engine.is_none());
        assert!(VariantSpec::parse("A", "engine=warp").is_err());
        assert!(VariantSpec::parse("A", "workers=0").is_err());
        assert!(VariantSpec::parse("A", "bogus").is_err());
    }

    #[test]
    fn spread_median_and_iqr() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(Spread::of(&[7.0]).median, 7.0);
        assert_eq!(Spread::of(&[]).median, 0.0);
    }

    #[test]
    fn execution_budget_trials_are_deterministic() {
        let model = cftcg_benchmarks::solar_pv::model();
        let spec = VariantSpec::parse("A", "engine=flat").unwrap();
        let first = run_trial(&model, &spec, 9, AbBudget::Executions(400)).unwrap();
        let second = run_trial(&model, &spec, 9, AbBudget::Executions(400)).unwrap();
        assert_eq!(first.0.goals, second.0.goals);
        // Wall clock legitimately differs between the two runs; the
        // deterministic remainder (goals, first hits, yields) must not —
        // exactly what the diff's identity check measures.
        let diff = crate::diff::ArtifactDiff::compute(&first.1, &second.1);
        assert!(diff.is_identity(), "same-seed trials drifted");
        assert!(diff.mismatches.is_empty());
    }

    #[test]
    fn ab_interleaves_and_summarizes() {
        let model = cftcg_benchmarks::solar_pv::model();
        let a = VariantSpec::parse("A", "engine=flat").unwrap();
        let b = VariantSpec::parse("B", "engine=flat,field-aware=off").unwrap();
        let outcome = run_ab(&model, &a, &b, 2, 7, AbBudget::Executions(300)).unwrap();
        assert_eq!(outcome.a.trials.len(), 2);
        assert_eq!(outcome.b.trials.len(), 2);
        assert_eq!(outcome.a.trials[0].seed, 7);
        assert_eq!(outcome.a.trials[1].seed, 8);
        assert_eq!(outcome.a.representative.engine.as_deref(), Some("flat"));
        assert!(outcome.a.goals.median >= 0.0);
        let report = ab_report(&outcome, 2);
        assert!(report.contains("variant"));
        assert!(report.contains("field-aware=off"));
        assert!(report.contains("execs-to-goal"));

        let json = cftcg_telemetry::json::Json::parse(&ab_json(&outcome, "{}")).unwrap();
        let b = &json.get("variants").and_then(|v| v.as_array()).unwrap()[1];
        let row = &b.get("trials").and_then(|t| t.as_array()).unwrap()[1];
        let field = |key: &str| row.get(key).and_then(|v| v.as_f64()).unwrap();
        let trial = &outcome.b.trials[1];
        assert_eq!(field("seed") as u64, trial.seed);
        assert_eq!(field("mcdc_pct"), trial.mcdc_pct);
        assert_eq!(field("executions_to_last_goal") as u64, trial.executions_to_last_goal);
        assert_eq!(field("time_to_last_goal_s"), trial.time_to_last_goal_s);
    }
}
