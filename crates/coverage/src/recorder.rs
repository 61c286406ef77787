//! Probe recorders: the runtime half of `CoverageStatistics()`.

use std::collections::HashSet;

use crate::map::{AssertionId, BranchId, ConditionId, DecisionId, InstrumentationMap};

/// Receives probe events from executing instrumented code.
///
/// The compiled step program calls these methods; implementations choose
/// what to retain. Methods other than [`Recorder::branch`] default to no-ops
/// so the fuzz-loop-fast bitmap only pays for what it uses.
pub trait Recorder {
    /// Promise that [`Recorder::branch`] is a no-op for this type.
    ///
    /// These per-event promises are the native back-end's trampoline seam:
    /// the JIT compiles probe ops as calls through a per-recorder vtable,
    /// and an event class promised away gets a null vtable slot, letting
    /// the generated code skip both the callback *and* the argument
    /// recomputation feeding it. Leave the default `true` whenever the
    /// method is overridden; promising away a retained event silently
    /// loses coverage observations.
    const OBSERVES_BRANCHES: bool = true;

    /// Promise that [`Recorder::condition`] is a no-op for this type
    /// (see [`Recorder::OBSERVES_BRANCHES`]).
    const OBSERVES_CONDITIONS: bool = true;

    /// Promise that [`Recorder::decision_eval`] is a no-op for this type
    /// (see [`Recorder::OBSERVES_BRANCHES`]).
    const OBSERVES_DECISIONS: bool = true;

    /// Promise that [`Recorder::compare`] is a no-op for this type
    /// (see [`Recorder::OBSERVES_BRANCHES`]).
    const OBSERVES_COMPARES: bool = true;

    /// Promise that [`Recorder::assertion`] is a no-op for this type
    /// (see [`Recorder::OBSERVES_BRANCHES`]).
    const OBSERVES_ASSERTIONS: bool = true;

    /// A branch probe (decision outcome) was executed.
    fn branch(&mut self, id: BranchId);

    /// Dense branch-flags seam for native back-ends.
    ///
    /// A recorder whose [`Recorder::branch`] is observationally identical
    /// to `flags[id.index()] = 1` over a dense array of 0/1 bytes may expose
    /// that array here; the JIT then records branch probes as direct byte
    /// stores into it instead of calling back. The exposed buffer must
    /// stay valid and un-moved across any interleaving of this recorder's
    /// other event methods for the duration of a run, and must span every
    /// branch id of the executing program (callers fall back to
    /// [`Recorder::branch`] when it is too short). Ignored when
    /// [`Recorder::OBSERVES_BRANCHES`] is `false`. Default: no fast path.
    fn branch_flags(&mut self) -> Option<&mut [u8]> {
        None
    }

    /// A condition evaluated to `value`.
    fn condition(&mut self, id: ConditionId, value: bool) {
        let _ = (id, value);
    }

    /// A boolean decision was evaluated with the given condition bit
    /// `vector` and `outcome` (0 = false branch, 1 = true branch).
    fn decision_eval(&mut self, id: DecisionId, vector: u64, outcome: u32) {
        let _ = (id, vector, outcome);
    }

    /// A comparison executed with the given operands — LibFuzzer's
    /// table-of-recent-compares (TORC) hook, which the fuzzer mines for
    /// dictionary values that crack exact-match guards.
    fn compare(&mut self, lhs: f64, rhs: f64) {
        let _ = (lhs, rhs);
    }

    /// A run-time assertion evaluated with the given result (`false` is a
    /// violation — Simulink's Assertion block in warn-and-continue mode).
    fn assertion(&mut self, id: AssertionId, passed: bool) {
        let _ = (id, passed);
    }
}

/// Discards every event. Useful for pure-throughput benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const OBSERVES_BRANCHES: bool = false;
    const OBSERVES_CONDITIONS: bool = false;
    const OBSERVES_DECISIONS: bool = false;
    const OBSERVES_COMPARES: bool = false;
    const OBSERVES_ASSERTIONS: bool = false;

    fn branch(&mut self, _id: BranchId) {}
}

/// The per-iteration branch bitmap of the paper's Algorithm 1
/// (`g_CurrCov`): one flag per branch probe, cleared before every model
/// iteration by the fuzz driver.
///
/// Each flag is a 0/1 byte, so a native back-end records a hit as a plain
/// byte store (see [`Recorder::branch_flags`]). The bytes are zero-padded
/// to whole 8-byte words and every whole-bitmap operation runs a `u64`
/// word at a time: with every byte 0 or 1, `count_ones` of a word counts
/// its set flags. The padding is never visible — [`len`](Self::len),
/// [`as_slice`](Self::as_slice), [`set_indices`](Self::set_indices) and
/// the flags seam cover the real slots only, and padding bytes stay zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchBitmap {
    bytes: Vec<u8>,
    len: usize,
}

/// Bytes per bookkeeping word.
const WORD: usize = 8;

/// Loads one 8-byte chunk as a word (byte `i` lands in bits `8i..8i+8`).
#[inline]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

impl BranchBitmap {
    /// Creates a cleared bitmap with `branch_count` slots.
    pub fn new(branch_count: usize) -> Self {
        BranchBitmap { bytes: vec![0; branch_count.div_ceil(WORD) * WORD], len: branch_count }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the bitmap has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears all flags (start of a model iteration, Algorithm 1 line 11).
    pub fn clear(&mut self) {
        self.bytes.fill(0);
    }

    /// Whether branch `i` was hit this iteration.
    pub fn get(&self, i: usize) -> bool {
        self.as_slice()[i] != 0
    }

    /// The flags as 0/1 bytes, one per slot.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// The padded buffer as words.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.bytes.chunks_exact(WORD).map(word)
    }

    /// Panics unless `other` has as many slots as `self`.
    fn check_len(&self, other: &BranchBitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
    }

    /// Number of branches hit this iteration.
    pub fn count(&self) -> usize {
        self.words().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of positions where `self` and `other` differ — the
    /// per-iteration term of the paper's *Iteration Difference Coverage*
    /// metric (Algorithm 1 lines 17–18).
    ///
    /// # Panics
    ///
    /// Panics when the bitmaps have different lengths.
    pub fn diff_count(&self, other: &BranchBitmap) -> usize {
        self.check_len(other);
        self.words().zip(other.words()).map(|(a, b)| (a ^ b).count_ones() as usize).sum()
    }

    /// ORs this iteration's hits into `total`, returning how many branches
    /// were newly covered (Algorithm 1 lines 14–16).
    ///
    /// # Panics
    ///
    /// Panics when the bitmaps have different lengths.
    pub fn merge_into(&self, total: &mut BranchBitmap) -> usize {
        self.check_len(total);
        let mut new_hits = 0;
        for (c, t) in self.bytes.chunks_exact(WORD).zip(total.bytes.chunks_exact_mut(WORD)) {
            let (c, old) = (word(c), word(t));
            new_hits += (c & !old).count_ones() as usize;
            t.copy_from_slice(&(old | c).to_le_bytes());
        }
        new_hits
    }

    /// Copies another bitmap's flags into this one (Algorithm 1 line 19,
    /// `lastCov = g_CurrCov`).
    ///
    /// # Panics
    ///
    /// Panics when the bitmaps have different lengths.
    pub fn copy_from(&mut self, other: &BranchBitmap) {
        other.check_len(self);
        self.bytes.copy_from_slice(&other.bytes);
    }

    /// ORs `other`'s flags into this bitmap, returning how many were newly
    /// set here. The mirror of [`merge_into`](Self::merge_into), used by the
    /// parallel coordinator to fold worker shard bitmaps into `g_TotalCov`.
    ///
    /// # Panics
    ///
    /// Panics when the bitmaps have different lengths.
    pub fn merge_from(&mut self, other: &BranchBitmap) -> usize {
        other.merge_into(self)
    }

    /// How many branches are set in `self` but not in `baseline` — the
    /// non-mutating "would this be new coverage?" query the coordinator runs
    /// before deciding whether to broadcast a candidate corpus entry.
    ///
    /// # Panics
    ///
    /// Panics when the bitmaps have different lengths.
    pub fn new_vs(&self, baseline: &BranchBitmap) -> usize {
        self.check_len(baseline);
        self.words().zip(baseline.words()).map(|(s, b)| (s & !b).count_ones() as usize).sum()
    }

    /// Indices of the set branches, ascending.
    pub fn set_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().enumerate().flat_map(|(w, mut bits)| {
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = w * WORD + bits.trailing_zeros() as usize / 8;
                    bits &= bits - 1;
                    i
                })
            })
        })
    }

    /// Clears every flag not set in `mask` (code-level feedback mode
    /// restricts coverage to non-model-level probes).
    ///
    /// # Panics
    ///
    /// Panics when `mask` has a different length.
    pub fn retain_mask(&mut self, mask: &BranchBitmap) {
        self.check_len(mask);
        for (t, m) in self.bytes.chunks_exact_mut(WORD).zip(mask.bytes.chunks_exact(WORD)) {
            t.copy_from_slice(&(word(t) & word(m)).to_le_bytes());
        }
    }
}

/// Collects one slot per flag, set where the flag is `true`.
impl FromIterator<bool> for BranchBitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(flags: I) -> Self {
        let mut bytes: Vec<u8> = flags.into_iter().map(u8::from).collect();
        let len = bytes.len();
        bytes.resize(len.div_ceil(WORD) * WORD, 0);
        BranchBitmap { bytes, len }
    }
}

impl Recorder for BranchBitmap {
    /// Branch hits are all a bitmap retains.
    const OBSERVES_CONDITIONS: bool = false;
    const OBSERVES_DECISIONS: bool = false;
    const OBSERVES_COMPARES: bool = false;
    const OBSERVES_ASSERTIONS: bool = false;

    fn branch(&mut self, id: BranchId) {
        self.bytes[..self.len][id.index()] = 1;
    }

    fn branch_flags(&mut self) -> Option<&mut [u8]> {
        Some(&mut self.bytes[..self.len])
    }
}

/// Cap on distinct evaluation vectors retained per decision. Industrial
/// coverage tools bound this too; beyond the cap additional vectors cannot
/// demonstrate many new MCDC pairs in practice.
const MAX_VECTORS_PER_DECISION: usize = 1024;

/// The replay-time recorder: retains everything needed to score Decision,
/// Condition, and MCDC coverage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullTracker {
    branch_hits: BranchBitmap,
    /// `[false-seen, true-seen]` per condition.
    condition_values: Vec<[bool; 2]>,
    /// Distinct `(vector, outcome)` evaluations per decision.
    decision_vectors: Vec<HashSet<(u64, u32)>>,
    /// Violation counts per assertion.
    assertion_failures: Vec<u64>,
}

impl FullTracker {
    /// Creates an empty tracker sized for `map`.
    pub fn new(map: &InstrumentationMap) -> Self {
        FullTracker {
            branch_hits: BranchBitmap::new(map.branch_count()),
            condition_values: vec![[false; 2]; map.condition_count()],
            decision_vectors: vec![HashSet::new(); map.decision_count()],
            assertion_failures: vec![0; map.assertion_count()],
        }
    }

    /// Violation count of assertion `i`.
    pub fn assertion_failures(&self, i: usize) -> u64 {
        self.assertion_failures[i]
    }

    /// Whether branch `i` has ever been hit.
    pub fn branch_hit(&self, i: usize) -> bool {
        self.branch_hits.get(i)
    }

    /// The per-branch hit flags.
    pub fn branch_hits(&self) -> &BranchBitmap {
        &self.branch_hits
    }

    /// Whether condition `i` has been observed with `value`.
    pub fn condition_seen(&self, i: usize, value: bool) -> bool {
        self.condition_values[i][usize::from(value)]
    }

    /// The recorded `(vector, outcome)` evaluations of decision `i`.
    pub fn decision_evals(&self, i: usize) -> &HashSet<(u64, u32)> {
        &self.decision_vectors[i]
    }

    /// The recorded evaluations of decision `i` in ascending `(vector,
    /// outcome)` order. The backing store is a `HashSet` whose iteration
    /// order varies run to run; every rendered report must use this accessor
    /// so its output is byte-stable.
    pub fn decision_evals_sorted(&self, i: usize) -> Vec<(u64, u32)> {
        let mut evals: Vec<(u64, u32)> = self.decision_vectors[i].iter().copied().collect();
        evals.sort_unstable();
        evals
    }

    /// Merges another tracker's observations into this one (used to union
    /// coverage across repeated runs).
    ///
    /// # Panics
    ///
    /// Panics when the trackers were built from different maps.
    pub fn merge(&mut self, other: &FullTracker) {
        assert_eq!(self.branch_hits.len(), other.branch_hits.len(), "tracker shape mismatch");
        for (a, b) in self.assertion_failures.iter_mut().zip(&other.assertion_failures) {
            *a += b;
        }
        self.branch_hits.merge_from(&other.branch_hits);
        for (a, b) in self.condition_values.iter_mut().zip(&other.condition_values) {
            a[0] |= b[0];
            a[1] |= b[1];
        }
        for (a, b) in self.decision_vectors.iter_mut().zip(&other.decision_vectors) {
            if a.len() < MAX_VECTORS_PER_DECISION {
                a.extend(b.iter().copied());
            }
        }
    }
}

impl Recorder for FullTracker {
    /// Comparison operands feed the fuzzer's dictionary, not coverage.
    const OBSERVES_COMPARES: bool = false;

    fn branch(&mut self, id: BranchId) {
        self.branch_hits.branch(id);
    }

    fn branch_flags(&mut self) -> Option<&mut [u8]> {
        self.branch_hits.branch_flags()
    }

    fn condition(&mut self, id: ConditionId, value: bool) {
        self.condition_values[id.index()][usize::from(value)] = true;
    }

    fn decision_eval(&mut self, id: DecisionId, vector: u64, outcome: u32) {
        let set = &mut self.decision_vectors[id.index()];
        if set.len() < MAX_VECTORS_PER_DECISION {
            set.insert((vector, outcome));
        }
    }

    fn assertion(&mut self, id: AssertionId, passed: bool) {
        if !passed {
            self.assertion_failures[id.index()] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapBuilder;

    #[test]
    fn bitmap_basics() {
        let mut bm = BranchBitmap::new(4);
        assert_eq!(bm.len(), 4);
        assert!(!bm.is_empty());
        bm.branch(BranchId(1));
        bm.branch(BranchId(3));
        assert!(bm.get(1));
        assert!(!bm.get(0));
        assert_eq!(bm.count(), 2);
        bm.clear();
        assert_eq!(bm.count(), 0);
    }

    #[test]
    fn bitmap_diff_and_merge() {
        let mut a = BranchBitmap::new(4);
        let mut b = BranchBitmap::new(4);
        a.branch(BranchId(0));
        a.branch(BranchId(1));
        b.branch(BranchId(1));
        b.branch(BranchId(2));
        assert_eq!(a.diff_count(&b), 2); // positions 0 and 2 differ

        let mut total = BranchBitmap::new(4);
        assert_eq!(a.merge_into(&mut total), 2);
        assert_eq!(b.merge_into(&mut total), 1); // only branch 2 is new
        assert_eq!(total.count(), 3);

        let mut last = BranchBitmap::new(4);
        last.copy_from(&a);
        assert_eq!(last.diff_count(&a), 0);
    }

    #[test]
    fn bitmap_merge_from_and_delta_queries() {
        let mut a = BranchBitmap::new(5);
        let mut b = BranchBitmap::new(5);
        a.branch(BranchId(0));
        a.branch(BranchId(2));
        b.branch(BranchId(2));
        b.branch(BranchId(4));

        assert_eq!(a.new_vs(&b), 1); // only branch 0
        assert_eq!(b.new_vs(&a), 1); // only branch 4
        assert_eq!(a.set_indices().collect::<Vec<_>>(), vec![0, 2]);

        let mut total = a.clone();
        assert_eq!(total.merge_from(&b), 1);
        assert_eq!(total.set_indices().collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(total.merge_from(&b), 0, "second merge adds nothing");
        assert_eq!(a.new_vs(&total), 0, "total dominates a");
    }

    #[test]
    fn bitmap_retain_mask_clears_unmasked() {
        let mut bm = BranchBitmap::new(4);
        bm.branch(BranchId(0));
        bm.branch(BranchId(1));
        bm.branch(BranchId(3));
        bm.retain_mask(&[true, false, true, false].into_iter().collect());
        assert_eq!(bm.set_indices().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bitmap_length_mismatch_panics() {
        let a = BranchBitmap::new(3);
        let b = BranchBitmap::new(4);
        let _ = a.diff_count(&b);
    }

    #[test]
    fn full_tracker_records_everything() {
        let mut mb = MapBuilder::new();
        let d = mb.begin_decision("d");
        let t = mb.add_outcome(d, "true");
        mb.add_outcome(d, "false");
        let c = mb.add_condition(d, "c0");
        let map = mb.finish();

        let mut tracker = FullTracker::new(&map);
        tracker.branch(t);
        tracker.condition(c, true);
        tracker.decision_eval(d, 0b1, 1);
        assert!(tracker.branch_hit(0));
        assert!(!tracker.branch_hit(1));
        assert!(tracker.condition_seen(0, true));
        assert!(!tracker.condition_seen(0, false));
        assert!(tracker.decision_evals(0).contains(&(1, 1)));
    }

    #[test]
    fn tracker_merge_unions() {
        let mut mb = MapBuilder::new();
        let d = mb.begin_decision("d");
        let t = mb.add_outcome(d, "true");
        let f = mb.add_outcome(d, "false");
        let c = mb.add_condition(d, "c0");
        let map = mb.finish();

        let mut a = FullTracker::new(&map);
        a.branch(t);
        a.condition(c, true);
        a.decision_eval(d, 1, 1);
        let mut b = FullTracker::new(&map);
        b.branch(f);
        b.condition(c, false);
        b.decision_eval(d, 0, 0);

        a.merge(&b);
        assert!(a.branch_hit(0) && a.branch_hit(1));
        assert!(a.condition_seen(0, false) && a.condition_seen(0, true));
        assert_eq!(a.decision_evals(0).len(), 2);
    }

    #[test]
    fn null_recorder_ignores_everything() {
        let mut r = NullRecorder;
        r.branch(BranchId(0));
        r.condition(ConditionId(0), true);
        r.decision_eval(DecisionId(0), 0, 0);
    }
}
