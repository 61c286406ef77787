#![warn(missing_docs)]

//! Model-level coverage infrastructure for CFTCG.
//!
//! The paper instruments the generated code with `CoverageStatistics()`
//! probes (Figure 4) and measures three metrics over executed test suites
//! (Section 4): **Decision Coverage**, **Condition Coverage**, and
//! **MCDC**. This crate provides:
//!
//! * the [`InstrumentationMap`] that `cftcg-codegen` populates while
//!   converting a model — every *decision* (a selection point with ≥ 2
//!   outcomes), every *outcome* (one branch probe each, the slots of
//!   Algorithm 1's `branchCount`-long arrays), and every *condition*
//!   (a leaf boolean operand contributing to a boolean decision);
//! * [`Recorder`], the probe interface called by executing code, with two
//!   implementations: the fuzz-loop-fast [`BranchBitmap`] (just the
//!   per-iteration branch array of Algorithm 1) and the replay-time
//!   [`FullTracker`] that additionally records condition values and
//!   decision evaluation vectors;
//! * [`CompareTable`], the exact dedup set of a fuzzer's table of recent
//!   compares, laid out for native code to probe without calling back;
//! * [`CoverageReport`], the DC/CC/MCDC percentages computed from a
//!   [`FullTracker`] — the common yardstick every generator in this
//!   reproduction is scored with, like the paper replaying CSV test cases
//!   through Simulink's coverage tool.
//!
//! # Decision/condition model
//!
//! The mapping from blocks to decisions follows Simulink's coverage
//! semantics as summarized in the paper's Figure 4:
//!
//! | instrumented construct | outcomes | conditions |
//! |---|---|---|
//! | Logic block output | 2 | one per input |
//! | Relational / Compare / EdgeDetect | 2 | 1 |
//! | Switch control | 2 | 1 |
//! | MultiportSwitch | one per case | 0 |
//! | If block action dispatch | one per action (incl. else) | 0 |
//! | each If condition expression | 2 | its leaf conditions |
//! | SwitchCase dispatch | one per case (incl. default) | 0 |
//! | Saturation / DeadZone / Relay / RateLimiter / Backlash limits | 2 each | 1 each |
//! | MATLAB Function / chart-action `if` | 2 | leaf conditions |
//! | chart transition guard | 2 | leaf conditions |
//! | Enabled / Triggered subsystem activation | 2 | 1 |
//!
//! MCDC uses the unique-cause criterion: condition *c* of decision *d* is
//! demonstrated when two recorded evaluations of *d* differ only in *c* and
//! produce different outcomes. Conditions are fully evaluated (expressions
//! in this IR are side-effect-free), so masking from `&&`/`||`
//! short-circuiting does not hide vectors.

mod compare;
mod frontier;
mod map;
mod provenance;
mod recorder;
mod report;

pub use compare::{CompareSlot, CompareTable};
pub use frontier::{frontier, FrontierCause, FrontierEntry};
pub use map::{
    AssertionId, BranchId, BranchInfo, ConditionId, ConditionInfo, DecisionId, DecisionInfo,
    InstrumentationMap, MapBuilder,
};
pub use provenance::{format_case_id, FirstHit, Goal, ProvenanceTracker};
pub use recorder::{BranchBitmap, FullTracker, NullRecorder, Recorder};
pub use report::{detailed_report, CoverageReport, Ratio};
