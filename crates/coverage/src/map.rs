//! The instrumentation map: the static description of every probe the code
//! generator inserted, against which recorded hits are scored.

use std::fmt;

/// Index of one branch probe — one decision *outcome*. These are the slots
/// of the `g_CurrCov` / `g_TotalCov` arrays in the paper's Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BranchId(pub u32);

impl BranchId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "br{}", self.0)
    }
}

/// Index of one decision (a selection point with two or more outcomes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DecisionId(pub u32);

impl DecisionId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DecisionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dec{}", self.0)
    }
}

/// Index of one condition (a leaf boolean operand of a boolean decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConditionId(pub u32);

impl ConditionId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ConditionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cond{}", self.0)
    }
}

/// Static description of one decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionInfo {
    /// Human-readable location, e.g. `"SolarPV/charge_switch"`.
    pub label: String,
    /// Whether this decision survives as a *jump* in optimized generated
    /// code. Boolean blocks, relational/compare blocks, and edge detectors
    /// compile branchless under `-O2` (the paper's "Fuzz Only" analysis:
    /// "the boolean operations did not have jump instruction and not
    /// instrumented"), so a code-level fuzzer cannot observe them.
    pub code_level: bool,
    /// The branch probes of this decision's outcomes, in outcome order.
    pub outcomes: Vec<BranchId>,
    /// The conditions feeding this decision (empty for multi-outcome
    /// dispatch decisions), in vector-bit order.
    pub conditions: Vec<ConditionId>,
}

/// Static description of one branch probe (a decision outcome).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchInfo {
    /// Human-readable outcome label, e.g. `"SolarPV/sw: pass-first"`.
    pub label: String,
    /// The owning decision.
    pub decision: DecisionId,
    /// This outcome's index within the decision.
    pub outcome: usize,
}

/// Static description of one condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConditionInfo {
    /// Human-readable label, e.g. `"guard(count > 5)"`.
    pub label: String,
    /// The owning decision.
    pub decision: DecisionId,
    /// The condition's bit position in the decision's evaluation vector.
    pub bit: usize,
}

/// Index of one run-time assertion (Simulink Assertion block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AssertionId(pub u32);

impl AssertionId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AssertionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "assert{}", self.0)
    }
}

/// The full static instrumentation table for one compiled model.
///
/// Built once per model by `cftcg-codegen`'s branch instrumentation pass;
/// immutable afterwards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstrumentationMap {
    branches: Vec<BranchInfo>,
    decisions: Vec<DecisionInfo>,
    conditions: Vec<ConditionInfo>,
    assertions: Vec<String>,
}

impl InstrumentationMap {
    /// Number of branch probes — the paper's `branchCount` and the
    /// `#Branch` column of its Table 2.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Number of decisions.
    pub fn decision_count(&self) -> usize {
        self.decisions.len()
    }

    /// Number of conditions.
    pub fn condition_count(&self) -> usize {
        self.conditions.len()
    }

    /// All branch probes, indexed by [`BranchId`].
    pub fn branches(&self) -> &[BranchInfo] {
        &self.branches
    }

    /// All decisions, indexed by [`DecisionId`].
    pub fn decisions(&self) -> &[DecisionInfo] {
        &self.decisions
    }

    /// All conditions, indexed by [`ConditionId`].
    pub fn conditions(&self) -> &[ConditionInfo] {
        &self.conditions
    }

    /// Looks up a decision.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this map.
    pub fn decision(&self, id: DecisionId) -> &DecisionInfo {
        &self.decisions[id.index()]
    }

    /// Looks up a branch probe.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this map.
    pub fn branch(&self, id: BranchId) -> &BranchInfo {
        &self.branches[id.index()]
    }

    /// Number of run-time assertions.
    pub fn assertion_count(&self) -> usize {
        self.assertions.len()
    }

    /// Assertion labels, indexed by [`AssertionId`].
    pub fn assertions(&self) -> &[String] {
        &self.assertions
    }

    /// Per-branch visibility to a *code-level* fuzzer: `false` for outcomes
    /// of branchless decisions (see [`DecisionInfo::code_level`]). This is
    /// the feedback mask of the paper's "Fuzz Only" baseline.
    pub fn code_level_mask(&self) -> crate::BranchBitmap {
        self.branches.iter().map(|b| self.decisions[b.decision.index()].code_level).collect()
    }
}

/// Incrementally builds an [`InstrumentationMap`] during code generation.
///
/// ```
/// use cftcg_coverage::MapBuilder;
///
/// let mut b = MapBuilder::new();
/// let dec = b.begin_decision("m/switch");
/// let pass = b.add_outcome(dec, "pass-first");
/// let block = b.add_outcome(dec, "pass-third");
/// let cond = b.add_condition(dec, "control >= 0");
/// let map = b.finish();
/// assert_eq!(map.branch_count(), 2);
/// assert_eq!(map.decision(dec).outcomes, vec![pass, block]);
/// assert_eq!(map.decision(dec).conditions, vec![cond]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MapBuilder {
    map: InstrumentationMap,
}

impl MapBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new decision and returns its id.
    pub fn begin_decision(&mut self, label: impl Into<String>) -> DecisionId {
        self.begin_decision_with(label, true)
    }

    /// Opens a decision that optimized generated code evaluates *without a
    /// jump* (boolean/relational blocks), invisible to code-level coverage.
    pub fn begin_branchless_decision(&mut self, label: impl Into<String>) -> DecisionId {
        self.begin_decision_with(label, false)
    }

    fn begin_decision_with(&mut self, label: impl Into<String>, code_level: bool) -> DecisionId {
        let id = DecisionId(self.map.decisions.len() as u32);
        self.map.decisions.push(DecisionInfo {
            label: label.into(),
            code_level,
            outcomes: Vec::new(),
            conditions: Vec::new(),
        });
        id
    }

    /// Adds an outcome (branch probe) to a decision and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `decision` was not returned by this builder.
    pub fn add_outcome(&mut self, decision: DecisionId, label: impl Into<String>) -> BranchId {
        let id = BranchId(self.map.branches.len() as u32);
        let info = &mut self.map.decisions[decision.index()];
        self.map.branches.push(BranchInfo {
            label: label.into(),
            decision,
            outcome: info.outcomes.len(),
        });
        info.outcomes.push(id);
        id
    }

    /// Adds a condition to a decision and returns its id. Conditions occupy
    /// successive bits of the decision's MCDC evaluation vector.
    ///
    /// # Panics
    ///
    /// Panics if `decision` was not returned by this builder, or if the
    /// decision already has 64 conditions (the vector is a `u64`).
    pub fn add_condition(&mut self, decision: DecisionId, label: impl Into<String>) -> ConditionId {
        let id = ConditionId(self.map.conditions.len() as u32);
        let info = &mut self.map.decisions[decision.index()];
        assert!(info.conditions.len() < 64, "decision has too many conditions for a u64 vector");
        self.map.conditions.push(ConditionInfo {
            label: label.into(),
            decision,
            bit: info.conditions.len(),
        });
        info.conditions.push(id);
        id
    }

    /// Registers a run-time assertion and returns its id.
    pub fn add_assertion(&mut self, label: impl Into<String>) -> AssertionId {
        let id = AssertionId(self.map.assertions.len() as u32);
        self.map.assertions.push(label.into());
        id
    }

    /// Finalizes the map.
    pub fn finish(self) -> InstrumentationMap {
        self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = MapBuilder::new();
        let d0 = b.begin_decision("a");
        let d1 = b.begin_decision("b");
        let o0 = b.add_outcome(d0, "t");
        let o1 = b.add_outcome(d1, "t");
        let o2 = b.add_outcome(d0, "f");
        let c0 = b.add_condition(d1, "x");
        let map = b.finish();
        assert_eq!((d0.index(), d1.index()), (0, 1));
        assert_eq!((o0.index(), o1.index(), o2.index()), (0, 1, 2));
        assert_eq!(c0.index(), 0);
        assert_eq!(map.decision(d0).outcomes, vec![o0, o2]);
        assert_eq!(map.branch(o2).outcome, 1);
        assert_eq!(map.branch(o1).decision, d1);
        assert_eq!(map.conditions()[0].bit, 0);
    }

    #[test]
    fn counts() {
        let mut b = MapBuilder::new();
        let d = b.begin_decision("d");
        b.add_outcome(d, "a");
        b.add_outcome(d, "b");
        b.add_outcome(d, "c");
        b.add_condition(d, "c1");
        b.add_condition(d, "c2");
        let map = b.finish();
        assert_eq!(map.branch_count(), 3);
        assert_eq!(map.decision_count(), 1);
        assert_eq!(map.condition_count(), 2);
        assert_eq!(map.conditions()[1].bit, 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(BranchId(3).to_string(), "br3");
        assert_eq!(DecisionId(1).to_string(), "dec1");
        assert_eq!(ConditionId(0).to_string(), "cond0");
    }

    #[test]
    fn empty_map() {
        let map = MapBuilder::new().finish();
        assert_eq!(map.branch_count(), 0);
        assert_eq!(map.decision_count(), 0);
        assert_eq!(map.condition_count(), 0);
    }
}
