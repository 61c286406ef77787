#![warn(missing_docs)]

//! Comparative observability for CFTCG campaigns.
//!
//! Everything upstream of this crate observes **one** run: the dashboard
//! streams it, the explorer renders it, the forensics tables dissect it.
//! This crate answers the question that actually drives engine and search
//! work — *did the change help?* — by comparing **two** runs:
//!
//! * [`ArtifactDiff`] — the pure, replay-free diff of two persisted
//!   [`CampaignArtifact`](cftcg_core::CampaignArtifact)s: the per-goal
//!   coverage partition (only-A / only-B / both, keyed by stable
//!   [`Goal`](cftcg_coverage::Goal) identity), first-hit execution-index
//!   shifts, mutation-yield-matrix and span-profile deltas, and the
//!   run-identity mismatch annotations that keep apples-to-oranges
//!   comparisons honest.
//! * [`FrontierMigration`] — the replay-based half: which blocked goals
//!   (e.g. pinned MCDC pairs) one side unblocked, and how the blocking
//!   causes of the still-open goals migrated.
//! * [`terminal_report`] / [`diff_json`] / [`diff_html`] — one diff, three
//!   renderings: aligned terminal table, machine JSON, and a
//!   self-contained side-by-side HTML report with a coverage-vs-time curve
//!   overlay in the explorer's visual language.
//! * [`run_ab`] — the paired A/B harness: interleaved trials with shared
//!   per-trial seeds, median/IQR summaries of goals-at-budget,
//!   time-to-goal and executions-to-goal, every trial as JSON
//!   ([`ab_json`]), and a representative artifact pair feeding the same
//!   diff renderers.
//! * [`append_history`] / [`check_regress`] — the bench-history gate:
//!   benchmarks append timestamped JSONL records under `results/history/`
//!   instead of clobbering a snapshot, and CI compares each new point
//!   against the trailing median (>15% throughput drop or any
//!   coverage-at-budget drop fails).
//!
//! Like every persistence layer in the tree, serialization is hand-rolled
//! over [`cftcg_telemetry::json`] — no new dependencies.

mod ab;
mod diff;
mod frontier;
mod history;
mod html;
mod render;

pub use ab::{
    ab_json, ab_report, run_ab, AbBudget, AbOutcome, Spread, TrialResult, VariantOutcome,
    VariantSpec,
};
pub use diff::{ArtifactDiff, GoalShift, GoalSide, RunIdentity, SpanDelta, YieldDelta};
pub use frontier::{replay_tracker, FrontierMigration, MigratedGoal, OpenBoth};
pub use history::{
    append_history, check_regress, history_path, load_history, HistoryRecord, Regression,
    DEFAULT_WINDOW, REGRESS_TOLERANCE,
};
pub use html::diff_html;
pub use render::{diff_json, terminal_report};
