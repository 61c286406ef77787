//! Scoring: turning recorded observations into the paper's three metrics.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::map::{DecisionInfo, InstrumentationMap};
use crate::recorder::FullTracker;

/// A covered/total pair with percentage helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    /// Items covered.
    pub covered: usize,
    /// Items in total.
    pub total: usize,
}

impl Ratio {
    /// Creates a ratio.
    pub fn new(covered: usize, total: usize) -> Self {
        Ratio { covered, total }
    }

    /// Percentage in `[0, 100]`. An empty total counts as fully covered,
    /// matching how coverage tools report models without such goals.
    pub fn percent(self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.covered as f64 / self.total as f64
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}% ({}/{})", self.percent(), self.covered, self.total)
    }
}

/// Decision / Condition / MCDC coverage of one measured run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageReport {
    /// Decision Coverage: executed decision outcomes over all outcomes.
    pub decision: Ratio,
    /// Condition Coverage: observed condition values over `2 × conditions`.
    pub condition: Ratio,
    /// Modified Condition/Decision Coverage: conditions shown to
    /// independently affect their decision, over all conditions.
    pub mcdc: Ratio,
}

impl CoverageReport {
    /// Scores a tracker against its instrumentation map.
    ///
    /// # Panics
    ///
    /// Panics if `tracker` was not built from `map`.
    pub fn score(map: &InstrumentationMap, tracker: &FullTracker) -> Self {
        assert_eq!(tracker.branch_hits().len(), map.branch_count(), "tracker does not match map");
        // Decision Coverage: every branch probe is one decision outcome.
        let decision = Ratio::new(tracker.branch_hits().count(), map.branch_count());

        // Condition Coverage: each condition must be seen false and true.
        let mut cond_covered = 0;
        for i in 0..map.condition_count() {
            cond_covered += usize::from(tracker.condition_seen(i, false));
            cond_covered += usize::from(tracker.condition_seen(i, true));
        }
        let condition = Ratio::new(cond_covered, 2 * map.condition_count());

        // MCDC (unique cause): condition demonstrated when two evaluations
        // of its decision differ only in that condition's bit and flip the
        // outcome.
        let mut mcdc_covered = 0;
        for (d, info) in map.decisions().iter().enumerate() {
            mcdc_covered += mcdc_demonstrated_for(tracker.decision_evals(d), info)
                .into_iter()
                .filter(|&shown| shown)
                .count();
        }
        let mcdc = Ratio::new(mcdc_covered, map.condition_count());

        CoverageReport { decision, condition, mcdc }
    }
}

/// Indexes a decision's recorded evaluations as `vector -> outcome bitset`
/// (bit 0 = outcome 0 seen, bit 1 = outcome 1 seen). Shared by the MCDC
/// scorer and the frontier analyzer; lets the unique-cause pair search probe
/// `vector ^ mask` in O(1) instead of scanning all pairs.
pub(crate) fn eval_index(evals: impl IntoIterator<Item = (u64, u32)>) -> HashMap<u64, u8> {
    let mut seen: HashMap<u64, u8> = HashMap::new();
    for (vector, outcome) in evals {
        *seen.entry(vector).or_insert(0) |= 1u8 << outcome.min(1);
    }
    seen
}

/// Per-condition MCDC status of one decision, aligned with
/// `info.conditions`: `true` when some recorded evaluation pair differs only
/// in that condition's bit and flips the outcome. O(E) in the number of
/// recorded evaluations: each vector probes its `vector ^ mask` partner in
/// the [`eval_index`].
pub(crate) fn mcdc_demonstrated_for(evals: &HashSet<(u64, u32)>, info: &DecisionInfo) -> Vec<bool> {
    if info.conditions.is_empty() {
        return Vec::new();
    }
    let index = eval_index(evals.iter().copied());
    info.conditions
        .iter()
        .enumerate()
        .map(|(bit, _)| {
            let mask = 1u64 << bit;
            evals.iter().any(|&(vector, outcome)| {
                let partner_outcomes = index.get(&(vector ^ mask)).copied().unwrap_or(0);
                // Demonstrated when the partner vector was seen with the
                // opposite outcome.
                partner_outcomes & (1u8 << (1 - outcome.min(1))) != 0
            })
        })
        .collect()
}

/// Renders a human-readable annotated coverage listing: every decision with
/// its outcome/condition status, uncovered goals marked. The textual
/// analogue of the HTML reports coverage tools generate.
///
/// ```
/// use cftcg_coverage::{detailed_report, FullTracker, MapBuilder};
/// let mut b = MapBuilder::new();
/// let d = b.begin_decision("m/sw");
/// b.add_outcome(d, "pass");
/// b.add_outcome(d, "block");
/// let map = b.finish();
/// let tracker = FullTracker::new(&map);
/// let text = detailed_report(&map, &tracker);
/// assert!(text.contains("[ ] pass"));
/// ```
pub fn detailed_report(map: &InstrumentationMap, tracker: &FullTracker) -> String {
    use std::fmt::Write as _;
    let report = CoverageReport::score(map, tracker);
    let mut out = String::new();
    let _ = writeln!(out, "coverage summary: {report}");
    for (d, decision) in map.decisions().iter().enumerate() {
        let covered = decision.outcomes.iter().filter(|&&o| tracker.branch_hit(o.index())).count();
        let _ = writeln!(
            out,
            "decision {d}: {} ({covered}/{} outcomes)",
            decision.label,
            decision.outcomes.len()
        );
        for &outcome in &decision.outcomes {
            let hit = tracker.branch_hit(outcome.index());
            let info = &map.branches()[outcome.index()];
            // Show only the outcome-specific suffix when the label repeats
            // the decision label.
            let label = info
                .label
                .strip_prefix(&decision.label)
                .map(|s| s.trim_start_matches([':', ' ']))
                .filter(|s| !s.is_empty())
                .unwrap_or(&info.label);
            let _ = writeln!(out, "  [{}] {label}", if hit { 'x' } else { ' ' });
        }
        let mcdc = mcdc_demonstrated_for(tracker.decision_evals(d), decision);
        for (&cond, shown) in decision.conditions.iter().zip(mcdc) {
            let i = cond.index();
            let f = tracker.condition_seen(i, false);
            let t = tracker.condition_seen(i, true);
            let _ = writeln!(
                out,
                "  condition {}: false {} / true {} / MCDC {}",
                map.conditions()[i].label,
                if f { "seen" } else { "MISSING" },
                if t { "seen" } else { "MISSING" },
                if shown { "demonstrated" } else { "not demonstrated" },
            );
        }
    }
    out
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decision {:.0}%, condition {:.0}%, MCDC {:.0}%",
            self.decision.percent(),
            self.condition.percent(),
            self.mcdc.percent()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapBuilder;
    use crate::recorder::Recorder;

    /// One boolean decision `a && b` with two outcomes and two conditions.
    fn and_map() -> InstrumentationMap {
        let mut b = MapBuilder::new();
        let d = b.begin_decision("and");
        b.add_outcome(d, "true");
        b.add_outcome(d, "false");
        b.add_condition(d, "a");
        b.add_condition(d, "b");
        b.finish()
    }

    /// Records one evaluation of `a && b` into the tracker.
    fn eval_and(tracker: &mut FullTracker, a: bool, b: bool) {
        use crate::map::{BranchId, ConditionId, DecisionId};
        let outcome = a && b;
        tracker.condition(ConditionId(0), a);
        tracker.condition(ConditionId(1), b);
        let vector = u64::from(a) | (u64::from(b) << 1);
        tracker.decision_eval(DecisionId(0), vector, u32::from(outcome));
        tracker.branch(if outcome { BranchId(0) } else { BranchId(1) });
    }

    #[test]
    fn empty_run_scores_zero() {
        let map = and_map();
        let tracker = FullTracker::new(&map);
        let report = CoverageReport::score(&map, &tracker);
        assert_eq!(report.decision, Ratio::new(0, 2));
        assert_eq!(report.condition, Ratio::new(0, 4));
        assert_eq!(report.mcdc, Ratio::new(0, 2));
    }

    #[test]
    fn single_eval_covers_one_outcome() {
        let map = and_map();
        let mut tracker = FullTracker::new(&map);
        eval_and(&mut tracker, true, true);
        let report = CoverageReport::score(&map, &tracker);
        assert_eq!(report.decision, Ratio::new(1, 2));
        assert_eq!(report.condition, Ratio::new(2, 4)); // a=T, b=T seen
        assert_eq!(report.mcdc, Ratio::new(0, 2)); // no pair yet
    }

    #[test]
    fn mcdc_pairs_demonstrate_independence() {
        let map = and_map();
        let mut tracker = FullTracker::new(&map);
        // (T,T) vs (F,T): only `a` flips, outcome flips -> a demonstrated.
        eval_and(&mut tracker, true, true);
        eval_and(&mut tracker, false, true);
        let report = CoverageReport::score(&map, &tracker);
        assert_eq!(report.mcdc, Ratio::new(1, 2));
        // (T,F) completes the pair for `b` against (T,T).
        eval_and(&mut tracker, true, false);
        let report = CoverageReport::score(&map, &tracker);
        assert_eq!(report.decision, Ratio::new(2, 2));
        assert_eq!(report.condition, Ratio::new(4, 4));
        assert_eq!(report.mcdc, Ratio::new(2, 2));
    }

    #[test]
    fn differing_in_two_bits_does_not_demonstrate() {
        let map = and_map();
        let mut tracker = FullTracker::new(&map);
        // (T,T)=T vs (F,F)=F differ in both bits: demonstrates neither.
        eval_and(&mut tracker, true, true);
        eval_and(&mut tracker, false, false);
        let report = CoverageReport::score(&map, &tracker);
        assert_eq!(report.mcdc, Ratio::new(0, 2));
    }

    #[test]
    fn multi_outcome_decision_has_no_mcdc_goal() {
        let mut b = MapBuilder::new();
        let d = b.begin_decision("dispatch");
        let o0 = b.add_outcome(d, "case1");
        b.add_outcome(d, "case2");
        b.add_outcome(d, "default");
        let map = b.finish();
        let mut tracker = FullTracker::new(&map);
        tracker.branch(o0);
        let report = CoverageReport::score(&map, &tracker);
        assert_eq!(report.decision, Ratio::new(1, 3));
        assert_eq!(report.condition.total, 0);
        assert_eq!(report.condition.percent(), 100.0);
        assert_eq!(report.mcdc.total, 0);
    }

    #[test]
    fn ratio_display() {
        let r = Ratio::new(1, 3);
        assert_eq!(r.to_string(), "33.3% (1/3)");
        let report = CoverageReport {
            decision: Ratio::new(1, 2),
            condition: Ratio::new(1, 4),
            mcdc: Ratio::new(0, 2),
        };
        assert_eq!(report.to_string(), "decision 50%, condition 25%, MCDC 0%");
    }
}
