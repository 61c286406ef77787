//! Per-goal provenance: *which input first earned each coverage goal*.
//!
//! The scoring side of this crate answers "how much is covered"
//! ([`CoverageReport`]); this module answers the forensic follow-up the
//! paper's evaluation tables beg for — for every Decision / Condition /
//! MCDC goal, **which** test case demonstrated it first, at what execution
//! index, on which shard, and through which mutation chain. The tracker is
//! fed one coverage-earning input at a time (each with its own per-case
//! [`FullTracker`] observations) and retains first-hit-wins metadata per
//! goal; merging two trackers keeps the hit with the smaller
//! `(executions, shard, case)` key, the same deterministic order the
//! parallel coordinator processes candidates in.

use std::time::Duration;

use crate::map::InstrumentationMap;
use crate::recorder::FullTracker;
use crate::report::mcdc_demonstrated_for;

/// One coverage goal of the paper's three metrics.
///
/// The goal universe of a model is fixed by its [`InstrumentationMap`]:
/// one [`Goal::Outcome`] per branch probe (Decision Coverage), two
/// [`Goal::Condition`]s per condition (Condition Coverage: each polarity),
/// and one [`Goal::Mcdc`] per condition (MCDC independence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Goal {
    /// Decision outcome `branch index` executed at least once.
    Outcome(usize),
    /// Condition `index` observed with the given value.
    Condition(usize, bool),
    /// Condition `index` shown to independently affect its decision.
    Mcdc(usize),
}

impl Goal {
    /// Every goal of `map`, in canonical order (outcomes, then condition
    /// polarities, then MCDC) — the fixed partition universe.
    pub fn all(map: &InstrumentationMap) -> Vec<Goal> {
        let mut goals = Vec::with_capacity(map.branch_count() + 3 * map.condition_count());
        goals.extend((0..map.branch_count()).map(Goal::Outcome));
        for c in 0..map.condition_count() {
            goals.push(Goal::Condition(c, false));
            goals.push(Goal::Condition(c, true));
        }
        goals.extend((0..map.condition_count()).map(Goal::Mcdc));
        goals
    }

    /// Human-readable goal label resolved against the map (block path plus
    /// the goal-specific qualifier).
    pub fn label(self, map: &InstrumentationMap) -> String {
        match self {
            Goal::Outcome(b) => {
                let info = &map.branches()[b];
                format!("decision outcome `{}`", info.label)
            }
            Goal::Condition(c, value) => {
                format!("condition `{}` = {value}", map.conditions()[c].label)
            }
            Goal::Mcdc(c) => format!("MCDC `{}`", map.conditions()[c].label),
        }
    }

    /// Short metric tag: `D` (decision outcome), `C` (condition polarity),
    /// or `MCDC`.
    pub fn metric(self) -> &'static str {
        match self {
            Goal::Outcome(_) => "D",
            Goal::Condition(..) => "C",
            Goal::Mcdc(_) => "MCDC",
        }
    }
}

/// First-hit metadata of one covered goal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstHit {
    /// Campaign execution index when the covering input ran (in parallel
    /// campaigns, the coordinator's global estimate at acceptance).
    pub executions: u64,
    /// Wall-clock offset of the covering input since campaign start.
    pub elapsed: Duration,
    /// Shard that discovered the input (0 for sequential runs).
    pub shard: usize,
    /// Lineage id of the covering test case (see `cftcg-fuzz`'s lineage
    /// DAG; resolves to the full mutation ancestry).
    pub case: u64,
    /// Mutation-operator indices (Table 1 order) applied in the final
    /// mutation step that produced the input. Empty for seeds/bootstraps.
    pub ops: Vec<u8>,
}

impl FirstHit {
    /// Deterministic merge key: earlier execution wins, ties broken by
    /// shard then case id.
    fn key(&self) -> (u64, usize, u64) {
        (self.executions, self.shard, self.case)
    }
}

/// Accumulates per-goal first-hit provenance across a campaign.
///
/// Feed it one coverage-earning case at a time via
/// [`absorb`](Self::absorb); it owns the cumulative [`FullTracker`]
/// union of everything absorbed, so the frontier and score derived from
/// [`tracker`](Self::tracker) are always consistent with the recorded
/// provenance partition.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceTracker {
    tracker: FullTracker,
    outcome_hits: Vec<Option<FirstHit>>,
    condition_hits: Vec<[Option<FirstHit>; 2]>,
    mcdc_hits: Vec<Option<FirstHit>>,
}

impl ProvenanceTracker {
    /// Creates an empty tracker sized for `map`.
    pub fn new(map: &InstrumentationMap) -> Self {
        ProvenanceTracker {
            tracker: FullTracker::new(map),
            outcome_hits: vec![None; map.branch_count()],
            condition_hits: vec![[None, None]; map.condition_count()],
            mcdc_hits: vec![None; map.condition_count()],
        }
    }

    /// The cumulative observations of every absorbed case.
    pub fn tracker(&self) -> &FullTracker {
        &self.tracker
    }

    /// Absorbs one executed case: `case_tracker` holds the observations of
    /// that input alone (recorded from freshly initialized model state).
    /// Every goal the case covers that the campaign had not covered before
    /// is credited to `hit`; returns the newly covered goals in canonical
    /// order.
    pub fn absorb(
        &mut self,
        map: &InstrumentationMap,
        case_tracker: &FullTracker,
        hit: &FirstHit,
    ) -> Vec<Goal> {
        let mut new_goals = Vec::new();
        for b in 0..map.branch_count() {
            if case_tracker.branch_hit(b) && self.outcome_hits[b].is_none() {
                self.outcome_hits[b] = Some(hit.clone());
                new_goals.push(Goal::Outcome(b));
            }
        }
        for c in 0..map.condition_count() {
            for value in [false, true] {
                if case_tracker.condition_seen(c, value)
                    && self.condition_hits[c][usize::from(value)].is_none()
                {
                    self.condition_hits[c][usize::from(value)] = Some(hit.clone());
                    new_goals.push(Goal::Condition(c, value));
                }
            }
        }
        self.tracker.merge(case_tracker);
        // MCDC is a pair property: the case may complete an independence
        // pair begun by an earlier input, so recheck every decision whose
        // evaluation set this case touched, against the cumulative union.
        for (d, info) in map.decisions().iter().enumerate() {
            if info.conditions.is_empty() || case_tracker.decision_evals(d).is_empty() {
                continue;
            }
            let demonstrated = mcdc_demonstrated_for(self.tracker.decision_evals(d), info);
            for (cond, shown) in info.conditions.iter().zip(demonstrated) {
                let slot = &mut self.mcdc_hits[cond.index()];
                if shown && slot.is_none() {
                    *slot = Some(hit.clone());
                    new_goals.push(Goal::Mcdc(cond.index()));
                }
            }
        }
        new_goals.sort();
        new_goals
    }

    /// First-hit metadata of a goal, `None` while it is still open.
    pub fn first_hit(&self, goal: Goal) -> Option<&FirstHit> {
        match goal {
            Goal::Outcome(b) => self.outcome_hits.get(b)?.as_ref(),
            Goal::Condition(c, value) => self.condition_hits.get(c)?[usize::from(value)].as_ref(),
            Goal::Mcdc(c) => self.mcdc_hits.get(c)?.as_ref(),
        }
    }

    /// Every covered goal with its provenance, in canonical goal order.
    pub fn covered_goals(&self, map: &InstrumentationMap) -> Vec<(Goal, &FirstHit)> {
        Goal::all(map)
            .into_iter()
            .filter_map(|goal| self.first_hit(goal).map(|hit| (goal, hit)))
            .collect()
    }

    /// Number of covered goals per metric as `(decision, condition, mcdc)`.
    pub fn covered_counts(&self) -> (usize, usize, usize) {
        let d = self.outcome_hits.iter().filter(|h| h.is_some()).count();
        let c = self.condition_hits.iter().flatten().filter(|h| h.is_some()).count();
        let m = self.mcdc_hits.iter().filter(|h| h.is_some()).count();
        (d, c, m)
    }

    /// Merges another tracker's provenance into this one. For goals both
    /// sides covered, the hit with the smaller `(executions, shard, case)`
    /// key wins — the same deterministic first-hit order the parallel
    /// coordinator uses when folding shard reports.
    ///
    /// # Panics
    ///
    /// Panics when the trackers were built from different maps.
    pub fn merge(&mut self, other: &ProvenanceTracker) {
        self.tracker.merge(&other.tracker);
        let pick = |mine: &mut Option<FirstHit>, theirs: &Option<FirstHit>| {
            if let Some(t) = theirs {
                if mine.as_ref().is_none_or(|m| t.key() < m.key()) {
                    *mine = Some(t.clone());
                }
            }
        };
        assert_eq!(self.outcome_hits.len(), other.outcome_hits.len(), "tracker shape mismatch");
        for (mine, theirs) in self.outcome_hits.iter_mut().zip(&other.outcome_hits) {
            pick(mine, theirs);
        }
        for (mine, theirs) in self.condition_hits.iter_mut().zip(&other.condition_hits) {
            pick(&mut mine[0], &theirs[0]);
            pick(&mut mine[1], &theirs[1]);
        }
        for (mine, theirs) in self.mcdc_hits.iter_mut().zip(&other.mcdc_hits) {
            pick(mine, theirs);
        }
    }
}

/// Renders a lineage id compactly as `s<shard>:<n>` using the shard-stride
/// encoding shared with `cftcg-fuzz` (ids are `shard * 2^40 + n`).
pub fn format_case_id(id: u64) -> String {
    const STRIDE: u64 = 1 << 40;
    format!("s{}:{}", id / STRIDE, id % STRIDE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{BranchId, ConditionId, DecisionId, MapBuilder};
    use crate::recorder::Recorder;

    fn and_map() -> InstrumentationMap {
        let mut b = MapBuilder::new();
        let d = b.begin_decision("and");
        b.add_outcome(d, "true");
        b.add_outcome(d, "false");
        b.add_condition(d, "a");
        b.add_condition(d, "b");
        b.finish()
    }

    fn case(map: &InstrumentationMap, a: bool, b: bool) -> FullTracker {
        let mut t = FullTracker::new(map);
        let outcome = a && b;
        t.condition(ConditionId(0), a);
        t.condition(ConditionId(1), b);
        t.decision_eval(DecisionId(0), u64::from(a) | (u64::from(b) << 1), u32::from(outcome));
        t.branch(if outcome { BranchId(0) } else { BranchId(1) });
        t
    }

    fn hit(executions: u64, shard: usize, case: u64) -> FirstHit {
        FirstHit {
            executions,
            elapsed: Duration::from_millis(executions),
            shard,
            case,
            ops: vec![0],
        }
    }

    #[test]
    fn absorb_credits_first_hits_only() {
        let map = and_map();
        let mut p = ProvenanceTracker::new(&map);

        let new = p.absorb(&map, &case(&map, true, true), &hit(1, 0, 0));
        assert_eq!(new, vec![Goal::Outcome(0), Goal::Condition(0, true), Goal::Condition(1, true)]);

        // Second (T,T) case adds nothing.
        assert!(p.absorb(&map, &case(&map, true, true), &hit(2, 0, 1)).is_empty());

        // (F,T) flips the outcome and completes the MCDC pair for `a`.
        let new = p.absorb(&map, &case(&map, false, true), &hit(3, 0, 2));
        assert_eq!(new, vec![Goal::Outcome(1), Goal::Condition(0, false), Goal::Mcdc(0)]);
        assert_eq!(p.first_hit(Goal::Mcdc(0)).unwrap().executions, 3);
        assert_eq!(p.first_hit(Goal::Outcome(0)).unwrap().executions, 1);
        assert_eq!(p.covered_counts(), (2, 3, 1));
    }

    #[test]
    fn merge_prefers_earlier_hits() {
        let map = and_map();
        let mut a = ProvenanceTracker::new(&map);
        a.absorb(&map, &case(&map, true, true), &hit(10, 0, 5));
        let mut b = ProvenanceTracker::new(&map);
        b.absorb(&map, &case(&map, true, true), &hit(4, 1, 7));

        a.merge(&b);
        assert_eq!(a.first_hit(Goal::Outcome(0)).unwrap().executions, 4);
        // Shard breaks execution-count ties.
        let mut c = ProvenanceTracker::new(&map);
        c.absorb(&map, &case(&map, true, true), &hit(4, 0, 9));
        a.merge(&c);
        assert_eq!(a.first_hit(Goal::Outcome(0)).unwrap().shard, 0);
    }

    #[test]
    fn merge_completes_mcdc_pairs_across_trackers() {
        let map = and_map();
        let mut left = ProvenanceTracker::new(&map);
        left.absorb(&map, &case(&map, true, true), &hit(1, 0, 0));
        let mut right = ProvenanceTracker::new(&map);
        right.absorb(&map, &case(&map, false, true), &hit(2, 1, 0));

        // Neither side alone demonstrated MCDC; the merged tracker holds
        // both vectors but merge() does not invent a first hit for the pair
        // (no single absorbed case completed it on either side).
        left.merge(&right);
        assert!(left.first_hit(Goal::Mcdc(0)).is_none());
        // A subsequent absorb against the merged union completes it.
        let new = left.absorb(&map, &case(&map, false, true), &hit(3, 0, 4));
        assert_eq!(new, vec![Goal::Mcdc(0)]);
    }

    #[test]
    fn covered_goals_are_in_canonical_order() {
        let map = and_map();
        let mut p = ProvenanceTracker::new(&map);
        p.absorb(&map, &case(&map, false, true), &hit(1, 0, 0));
        p.absorb(&map, &case(&map, true, true), &hit(2, 0, 1));
        let goals: Vec<Goal> = p.covered_goals(&map).into_iter().map(|(g, _)| g).collect();
        let mut sorted = goals.clone();
        sorted.sort();
        assert_eq!(goals, sorted);
    }

    #[test]
    fn goal_labels_resolve_block_paths() {
        let map = and_map();
        assert_eq!(Goal::Outcome(0).label(&map), "decision outcome `true`");
        assert_eq!(Goal::Condition(1, false).label(&map), "condition `b` = false");
        assert_eq!(Goal::Mcdc(0).label(&map), "MCDC `a`");
        assert_eq!(Goal::Mcdc(0).metric(), "MCDC");
    }

    #[test]
    fn case_id_formatting_uses_shard_stride() {
        assert_eq!(format_case_id(5), "s0:5");
        assert_eq!(format_case_id((3 << 40) + 17), "s3:17");
    }
}
