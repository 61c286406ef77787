//! The differential view of two persisted campaigns: per-goal coverage
//! partition, first-hit execution-index shifts, mutation-yield and
//! span-profile deltas, plus the run-identity checks that let the CLI
//! refuse (or loudly annotate) apples-to-oranges comparisons.
//!
//! The diff is computed from the artifacts alone — no replay, no model —
//! so it is cheap, deterministic, and testable against random artifacts.
//! The replay-based frontier migration lives in [`crate::FrontierMigration`]
//! because it needs the compiled model.

use std::collections::BTreeMap;

use cftcg_core::{CampaignArtifact, HostMeta};
use cftcg_coverage::Goal;
use cftcg_telemetry::SpanReport;
use cftcg_telemetry::YieldReport;

/// The identity card of one side of a comparison, echoed into every output
/// so a reader can always see what exactly was compared.
#[derive(Debug, Clone, PartialEq)]
pub struct RunIdentity {
    /// Model name the campaign ran against.
    pub model: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Worker shard count.
    pub workers: usize,
    /// Resolved execution engine, when the artifact recorded one.
    pub engine: Option<String>,
    /// Host identity, when the artifact recorded one.
    pub host: Option<HostMeta>,
    /// Total inputs executed.
    pub executions: u64,
    /// Wall-clock duration, seconds.
    pub elapsed_s: f64,
    /// Branches covered / branch-probe universe size.
    pub covered_branches: usize,
    /// Size of the branch-probe universe.
    pub branch_count: usize,
    /// Emitted test cases.
    pub cases: usize,
    /// Goals covered with provenance.
    pub goals: usize,
}

impl RunIdentity {
    fn of(artifact: &CampaignArtifact) -> Self {
        RunIdentity {
            model: artifact.model.clone(),
            seed: artifact.seed,
            workers: artifact.workers,
            engine: artifact.engine.clone(),
            host: artifact.host.clone(),
            executions: artifact.executions,
            elapsed_s: artifact.elapsed_s,
            covered_branches: artifact.covered_branches,
            branch_count: artifact.branch_count,
            cases: artifact.cases.len(),
            goals: artifact.hits.len(),
        }
    }
}

/// A goal covered by exactly one side, with its first-hit execution index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoalSide {
    /// The goal.
    pub goal: Goal,
    /// First-hit execution index on the side that covered it.
    pub executions: u64,
}

/// A goal both sides covered, with both first-hit execution indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoalShift {
    /// The goal.
    pub goal: Goal,
    /// First-hit execution index in campaign A.
    pub executions_a: u64,
    /// First-hit execution index in campaign B.
    pub executions_b: u64,
}

impl GoalShift {
    /// `B − A` first-hit shift: negative means B reached the goal with
    /// fewer executions.
    pub fn delta(&self) -> i64 {
        self.executions_b as i64 - self.executions_a as i64
    }
}

/// One mutation operator's yield-matrix rows from both sides
/// (`[executed, new_coverage, corpus_insert, violation]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YieldDelta {
    /// Operator name (Table 1 spelling).
    pub name: String,
    /// Campaign A's row (zeros when A never recorded the operator).
    pub a: [u64; 4],
    /// Campaign B's row.
    pub b: [u64; 4],
}

impl YieldDelta {
    /// Whether both rows are identical.
    pub fn is_zero(&self) -> bool {
        self.a == self.b
    }
}

/// One span kind's profile summary from both sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanDelta {
    /// Span kind name.
    pub name: String,
    /// Campaign A's summary, when A profiled this kind.
    pub a: Option<SpanReport>,
    /// Campaign B's summary.
    pub b: Option<SpanReport>,
}

/// The complete artifact-level diff of two campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactDiff {
    /// Identity of campaign A.
    pub a: RunIdentity,
    /// Identity of campaign B.
    pub b: RunIdentity,
    /// Apples-to-oranges annotations: run-identity dimensions on which the
    /// two campaigns are not comparable (different model, engine, worker
    /// count, or host). Empty for a clean comparison.
    pub mismatches: Vec<String>,
    /// Goals only campaign A covered, in canonical goal order.
    pub only_a: Vec<GoalSide>,
    /// Goals only campaign B covered, in canonical goal order.
    pub only_b: Vec<GoalSide>,
    /// Goals both covered, with first-hit shifts, in canonical goal order.
    pub both: Vec<GoalShift>,
    /// Mutation-yield rows, operators in first-seen order (A's order, then
    /// operators only B recorded).
    pub yields: Vec<YieldDelta>,
    /// Span-profile rows, kinds in first-seen order.
    pub spans: Vec<SpanDelta>,
}

impl ArtifactDiff {
    /// Computes the diff of two artifacts. Pure and total: mismatched
    /// models/engines are *reported* (see [`ArtifactDiff::mismatches`]),
    /// not rejected — the caller decides whether to refuse.
    pub fn compute(a: &CampaignArtifact, b: &CampaignArtifact) -> Self {
        let hits_a: BTreeMap<Goal, u64> = a.hits.iter().map(|h| (h.goal, h.executions)).collect();
        let hits_b: BTreeMap<Goal, u64> = b.hits.iter().map(|h| (h.goal, h.executions)).collect();

        let mut only_a = Vec::new();
        let mut both = Vec::new();
        for (&goal, &ea) in &hits_a {
            match hits_b.get(&goal) {
                Some(&eb) => both.push(GoalShift { goal, executions_a: ea, executions_b: eb }),
                None => only_a.push(GoalSide { goal, executions: ea }),
            }
        }
        let only_b = hits_b
            .iter()
            .filter(|(goal, _)| !hits_a.contains_key(goal))
            .map(|(&goal, &executions)| GoalSide { goal, executions })
            .collect();

        ArtifactDiff {
            a: RunIdentity::of(a),
            b: RunIdentity::of(b),
            mismatches: identity_mismatches(a, b),
            only_a,
            only_b,
            both,
            yields: yield_deltas(&a.yields, &b.yields),
            spans: span_deltas(&a.spans, &b.spans),
        }
    }

    /// Whether the two campaigns are observationally identical: no gained
    /// or lost goals, no first-hit shift, and identical yield matrices.
    /// (Span profiles are wall-clock derived and excluded — two runs of the
    /// same campaign legitimately differ there.)
    pub fn is_identity(&self) -> bool {
        self.only_a.is_empty()
            && self.only_b.is_empty()
            && self.both.iter().all(|s| s.delta() == 0)
            && self.yields.iter().all(YieldDelta::is_zero)
    }

    /// Net goal balance: `B − A` covered-goal count.
    pub fn goal_balance(&self) -> i64 {
        self.only_b.len() as i64 - self.only_a.len() as i64
    }
}

fn identity_mismatches(a: &CampaignArtifact, b: &CampaignArtifact) -> Vec<String> {
    let mut out = Vec::new();
    if a.model != b.model {
        out.push(format!("model: `{}` vs `{}`", a.model, b.model));
    }
    if a.workers != b.workers {
        out.push(format!("workers: {} vs {}", a.workers, b.workers));
    }
    if let (Some(ea), Some(eb)) = (&a.engine, &b.engine) {
        if ea != eb {
            out.push(format!("engine: {ea} vs {eb}"));
        }
    }
    if let (Some(ha), Some(hb)) = (&a.host, &b.host) {
        if ha.arch != hb.arch {
            out.push(format!("host arch: {} vs {}", ha.arch, hb.arch));
        }
        if ha.cores != hb.cores {
            out.push(format!("host cores: {} vs {}", ha.cores, hb.cores));
        }
    }
    out
}

fn yield_row(report: &YieldReport) -> [u64; 4] {
    [report.executed, report.new_coverage, report.corpus_insert, report.violation]
}

fn yield_deltas(a: &[YieldReport], b: &[YieldReport]) -> Vec<YieldDelta> {
    let by_name = |rows: &[YieldReport], name: &str| {
        rows.iter().find(|r| r.name == name).map(yield_row).unwrap_or_default()
    };
    let mut names: Vec<&str> = a.iter().map(|r| r.name.as_str()).collect();
    for name in b.iter().map(|r| r.name.as_str()) {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
        .into_iter()
        .map(|name| YieldDelta { name: name.to_string(), a: by_name(a, name), b: by_name(b, name) })
        .collect()
}

fn span_deltas(a: &[SpanReport], b: &[SpanReport]) -> Vec<SpanDelta> {
    let by_name = |rows: &[SpanReport], name: &str| rows.iter().find(|r| r.name == name).cloned();
    let mut names: Vec<&str> = a.iter().map(|r| r.name.as_str()).collect();
    for name in b.iter().map(|r| r.name.as_str()) {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
        .into_iter()
        .map(|name| SpanDelta { name: name.to_string(), a: by_name(a, name), b: by_name(b, name) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_core::CampaignHit;

    fn artifact(hits: &[(Goal, u64)]) -> CampaignArtifact {
        CampaignArtifact {
            model: "m".into(),
            seed: 1,
            workers: 1,
            executions: 100,
            iterations: 500,
            elapsed_s: 0.0,
            branch_count: 10,
            covered_branches: hits.len(),
            cases: Vec::new(),
            lineage: Vec::new(),
            hits: hits
                .iter()
                .map(|&(goal, executions)| CampaignHit {
                    goal,
                    executions,
                    elapsed_s: 0.0,
                    shard: 0,
                    case: 0,
                    ops: Vec::new(),
                })
                .collect(),
            series: Vec::new(),
            engine: None,
            host: None,
            yields: Vec::new(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn partitions_goals_and_computes_shifts() {
        let a = artifact(&[(Goal::Outcome(0), 10), (Goal::Outcome(1), 50)]);
        let b = artifact(&[(Goal::Outcome(1), 20), (Goal::Mcdc(0), 70)]);
        let diff = ArtifactDiff::compute(&a, &b);
        assert_eq!(diff.only_a, vec![GoalSide { goal: Goal::Outcome(0), executions: 10 }]);
        assert_eq!(diff.only_b, vec![GoalSide { goal: Goal::Mcdc(0), executions: 70 }]);
        assert_eq!(
            diff.both,
            vec![GoalShift { goal: Goal::Outcome(1), executions_a: 50, executions_b: 20 }]
        );
        assert_eq!(diff.both[0].delta(), -30);
        assert_eq!(diff.goal_balance(), 0);
        assert!(!diff.is_identity());
    }

    #[test]
    fn self_diff_is_identity() {
        let mut a = artifact(&[(Goal::Outcome(0), 10), (Goal::Condition(2, true), 30)]);
        a.yields = vec![YieldReport {
            name: "EraseTuples".into(),
            executed: 9,
            new_coverage: 1,
            corpus_insert: 1,
            violation: 0,
        }];
        let diff = ArtifactDiff::compute(&a, &a);
        assert!(diff.is_identity());
        assert!(diff.mismatches.is_empty());
    }

    #[test]
    fn mismatched_identities_are_annotated() {
        let mut a = artifact(&[]);
        let mut b = artifact(&[]);
        a.engine = Some("flat".into());
        b.engine = Some("jit".into());
        b.workers = 4;
        b.model = "other".into();
        let diff = ArtifactDiff::compute(&a, &b);
        assert_eq!(diff.mismatches.len(), 3, "{:?}", diff.mismatches);
        // Engine recorded on one side only is not a mismatch — just unknown.
        b.engine = None;
        b.workers = 1;
        b.model = "m".into();
        assert!(ArtifactDiff::compute(&a, &b).mismatches.is_empty());
    }
}
