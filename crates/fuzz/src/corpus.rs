//! The fuzzing corpus: interesting inputs retained for further mutation.
//!
//! The paper (§3.2.2): "input data that achieves specific coverage metrics
//! will be saved as interesting inputs in the corpus for the next round of
//! mutation" and "when saving interesting inputs, we prioritize those with
//! higher Iteration Difference Coverage". Entries therefore carry the
//! metric, and seed selection is energy-weighted by it (switchable for the
//! ablation study).
//!
//! Besides the entries themselves the corpus keeps per-entry *scheduling
//! forensics* — how often a seed was selected as a mutation base, how many
//! of its mutants were committed, the goal yield of its descendant
//! subtree, and its age — published to telemetry as
//! [`CorpusSeedReport`] rows. The accounting is plain integer bookkeeping
//! (no RNG, no clock), so it runs unconditionally without perturbing the
//! byte-identity contract.

use std::collections::HashMap;

use cftcg_telemetry::CorpusSeedReport;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::resume::Checkpoints;

/// One retained input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Stable lineage id of the input (shard-strided; see
    /// [`Lineage`](crate::Lineage)). Broadcast entries keep the id their
    /// originating shard minted.
    pub id: u64,
    /// The raw byte stream.
    pub bytes: Vec<u8>,
    /// Its Iteration Difference Coverage metric when executed.
    pub metric: usize,
    /// How many branches were newly covered when it was added.
    pub new_branches: usize,
}

/// What [`Corpus::insert`] did with the offered entry — the corpus-churn
/// signal the telemetry layer counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusInsertion {
    /// Stored in a free slot (corpus grew).
    Appended,
    /// Stored by evicting a retained entry (corpus churned).
    Replaced,
    /// Dropped: it did not beat the worst retained entry.
    Rejected,
}

/// Per-entry scheduling forensics, keyed by entry id. Lives and dies with
/// the entry: eviction drops the account.
#[derive(Debug, Clone, Default)]
struct SeedAccount {
    /// Parent entry the input was mutated from, for descendant crediting.
    parent: Option<u64>,
    /// Shard executions completed when the entry was committed.
    born_executions: u64,
    /// Times picked as a mutation base.
    selections: u64,
    /// Direct children committed (to the corpus or the suite).
    children: u64,
    /// New branches earned by the entry's descendants (transitive, while
    /// the ancestry chain remains resident).
    descendant_goals: u64,
}

/// A bounded corpus with metric-weighted seed selection.
#[derive(Debug, Clone)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    /// `energy(&entries[i])`, cached: entries never change once inserted.
    energies: Vec<u64>,
    /// The checkpoints of `entries[i]`'s execution, its mutants' resume
    /// points (empty for entries inserted without them).
    checkpoints: Vec<Checkpoints>,
    /// Exact sum of `energies` (a `u128` cannot overflow on `u64` addends
    /// at any realistic capacity); the lottery saturates it to `u64`.
    energy_sum: u128,
    /// Weighted-mode eviction candidate: the first entry with the least
    /// `(new_branches, metric)`, or `None` once an insertion made it stale.
    worst: Option<usize>,
    capacity: usize,
    /// When `false`, selection is uniform and replacement FIFO — the
    /// "no iteration-difference priority" ablation (A1).
    pub metric_weighted: bool,
    /// Scheduling forensics per resident entry id.
    accounts: HashMap<u64, SeedAccount>,
}

/// The selection energy of an entry: the iteration-difference metric with a
/// strong bonus for inputs that discovered new branches (they sit at the
/// coverage frontier). Saturating throughout — a pathological
/// `metric`/`new_branches` pair must skew the lottery, not overflow it.
fn energy(entry: &CorpusEntry) -> u64 {
    (entry.metric as u64)
        .saturating_add(1)
        .saturating_mul(1u64.saturating_add((entry.new_branches as u64).saturating_mul(8)))
}

impl Corpus {
    /// Creates an empty corpus holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Corpus {
            entries: Vec::new(),
            energies: Vec::new(),
            checkpoints: Vec::new(),
            energy_sum: 0,
            worst: None,
            capacity: capacity.max(1),
            metric_weighted: true,
            accounts: HashMap::new(),
        }
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retained entries.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Inserts an interesting input. When full, evicts the lowest-metric
    /// entry (metric-weighted mode) or the oldest (FIFO mode) — but only if
    /// the newcomer beats it. Returns what happened, for churn accounting.
    pub fn insert(&mut self, entry: CorpusEntry) -> CorpusInsertion {
        self.insert_with(entry, &mut Checkpoints::default())
    }

    /// [`Corpus::insert`] for an entry whose execution left the
    /// checkpoints `run`: a stored entry takes them, and `run` gets the
    /// buffers of the slot it filled back for reuse.
    pub(crate) fn insert_with(
        &mut self,
        entry: CorpusEntry,
        run: &mut Checkpoints,
    ) -> CorpusInsertion {
        if self.entries.len() < self.capacity {
            self.store(None, entry, run);
            return CorpusInsertion::Appended;
        }
        if self.metric_weighted {
            // Evict among non-finders first: inputs that discovered new
            // branches are the coverage frontier and must survive the flood
            // of high-metric-but-stale mutants.
            let worst = *self.worst.get_or_insert_with(|| {
                let key = |(_, e): &(usize, &CorpusEntry)| (e.new_branches, e.metric);
                self.entries.iter().enumerate().min_by_key(key).expect("corpus at capacity").0
            });
            let worst_entry = &self.entries[worst];
            let beats_worst =
                (entry.new_branches, entry.metric) > (worst_entry.new_branches, worst_entry.metric);
            if beats_worst {
                self.accounts.remove(&worst_entry.id);
                self.store(Some(worst), entry, run);
                CorpusInsertion::Replaced
            } else {
                CorpusInsertion::Rejected
            }
        } else {
            let evicted = self.entries.remove(0);
            self.energy_sum -= u128::from(self.energies.remove(0));
            self.accounts.remove(&evicted.id);
            let freed = self.checkpoints.remove(0);
            self.store(None, entry, run);
            *run = freed;
            CorpusInsertion::Replaced
        }
    }

    /// Stores `entry` with the checkpoints `run` over `slot`, or appends
    /// it, keeping the energy cache in step and opening the entry's
    /// account. `run` gets the overwritten slot's checkpoint buffers.
    fn store(&mut self, slot: Option<usize>, entry: CorpusEntry, run: &mut Checkpoints) {
        self.accounts.entry(entry.id).or_default();
        let e = energy(&entry);
        self.energy_sum += u128::from(e);
        match slot {
            Some(i) => {
                self.energy_sum -= u128::from(self.energies[i]);
                self.energies[i] = e;
                self.entries[i] = entry;
                std::mem::swap(&mut self.checkpoints[i], run);
            }
            None => {
                self.energies.push(e);
                self.entries.push(entry);
                self.checkpoints.push(std::mem::take(run));
            }
        }
        self.worst = None;
    }

    /// Picks a seed for the next mutation round, bumping its selection
    /// count. In weighted mode the energy combines the iteration-difference
    /// metric with a strong bonus for inputs that discovered new branches;
    /// uniform otherwise. Returns `None` on an empty corpus.
    pub fn pick(&mut self, rng: &mut SmallRng) -> Option<&CorpusEntry> {
        let slot = self.pick_slot(rng)?;
        Some(&self.entries[slot])
    }

    /// [`Corpus::pick`], returning the picked entry's slot in
    /// [`Corpus::entries`].
    pub(crate) fn pick_slot(&mut self, rng: &mut SmallRng) -> Option<usize> {
        let index = self.pick_index(rng)?;
        let id = self.entries[index].id;
        if let Some(account) = self.accounts.get_mut(&id) {
            account.selections += 1;
        }
        Some(index)
    }

    /// The checkpoints stored with the entry in `slot`.
    pub(crate) fn checkpoints(&self, slot: usize) -> &Checkpoints {
        &self.checkpoints[slot]
    }

    /// The selection lottery itself (no accounting side effects). Exactly
    /// one `rng.random_range` draw per call on a non-empty corpus, so the
    /// RNG stream is independent of the accounting layer.
    fn pick_index(&self, rng: &mut SmallRng) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        if !self.metric_weighted {
            return Some(rng.random_range(0..self.entries.len()));
        }
        // The saturating sum of the energies, as a left-to-right
        // `saturating_add` fold over non-negative terms would give.
        let total = u64::try_from(self.energy_sum).unwrap_or(u64::MAX);
        let mut ticket = rng.random_range(0..total);
        for (i, &e) in self.energies.iter().enumerate() {
            if ticket < e {
                return Some(i);
            }
            ticket -= e;
        }
        // Reachable only when the total saturated (per-entry energies sum
        // past u64::MAX): fall back to the last entry deterministically.
        Some(self.entries.len() - 1)
    }

    /// Picks a second, independent entry for crossover.
    pub fn pick_other(&mut self, rng: &mut SmallRng) -> Option<&CorpusEntry> {
        self.pick(rng)
    }

    /// Books a freshly committed entry's provenance: the parent it was
    /// mutated from and the shard executions at commit time (its birthday,
    /// for age accounting). No-op if the id is not resident.
    pub fn note_committed(&mut self, id: u64, parent: Option<u64>, executions: u64) {
        if let Some(account) = self.accounts.get_mut(&id) {
            account.parent = parent;
            account.born_executions = executions;
        }
    }

    /// Credits `parent` with one committed child (suite or corpus).
    pub fn credit_child(&mut self, parent: Option<u64>) {
        if let Some(account) = parent.and_then(|id| self.accounts.get_mut(&id)) {
            account.children += 1;
        }
    }

    /// Credits `goals` newly attained branch goals to every resident
    /// ancestor of the discovering input, walking parent links. The walk
    /// stops at the first evicted ancestor and is bounded, so corrupted
    /// links cannot hang it.
    pub fn credit_goals(&mut self, parent: Option<u64>, goals: u64) {
        let mut cursor = parent;
        let mut hops = 0usize;
        while let Some(id) = cursor {
            let Some(account) = self.accounts.get_mut(&id) else { break };
            account.descendant_goals = account.descendant_goals.saturating_add(goals);
            cursor = account.parent;
            hops += 1;
            if hops > self.accounts.len() {
                break;
            }
        }
    }

    /// The per-entry scheduling forensics, in entry order. `executions` is
    /// the shard's current execution count (for age computation).
    pub fn seed_reports(&self, executions: u64) -> Vec<CorpusSeedReport> {
        self.entries
            .iter()
            .zip(&self.energies)
            .map(|(entry, &energy)| {
                let account = self.accounts.get(&entry.id).cloned().unwrap_or_default();
                CorpusSeedReport {
                    id: entry.id,
                    size_bytes: entry.bytes.len() as u64,
                    metric: entry.metric as u64,
                    new_branches: entry.new_branches as u64,
                    energy,
                    selections: account.selections,
                    children: account.children,
                    descendant_goals: account.descendant_goals,
                    age_executions: executions.saturating_sub(account.born_executions),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn entry(metric: usize, tag: u8) -> CorpusEntry {
        CorpusEntry { id: u64::from(tag), bytes: vec![tag], metric, new_branches: 0 }
    }

    #[test]
    fn insert_and_len() {
        let mut c = Corpus::new(4);
        assert!(c.is_empty());
        c.insert(entry(1, 0));
        c.insert(entry(2, 1));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn capacity_eviction_prefers_high_metric() {
        let mut c = Corpus::new(2);
        c.insert(entry(5, 0));
        c.insert(entry(1, 1));
        c.insert(entry(10, 2)); // evicts the metric-1 entry
        let metrics: Vec<usize> = c.entries().iter().map(|e| e.metric).collect();
        assert_eq!(c.len(), 2);
        assert!(metrics.contains(&5) && metrics.contains(&10));
        c.insert(entry(0, 3)); // worse than both and no new coverage: dropped
        let metrics: Vec<usize> = c.entries().iter().map(|e| e.metric).collect();
        assert!(metrics.contains(&5) && metrics.contains(&10));
    }

    #[test]
    fn new_coverage_always_displaces_at_capacity() {
        let mut c = Corpus::new(1);
        c.insert(entry(100, 0));
        c.insert(CorpusEntry { id: 9, bytes: vec![9], metric: 0, new_branches: 3 });
        assert_eq!(c.entries()[0].bytes, vec![9]);
    }

    #[test]
    fn fifo_mode_evicts_oldest() {
        let mut c = Corpus::new(2);
        c.metric_weighted = false;
        c.insert(entry(100, 0));
        c.insert(entry(100, 1));
        c.insert(entry(0, 2));
        let tags: Vec<u8> = c.entries().iter().map(|e| e.bytes[0]).collect();
        assert_eq!(tags, vec![1, 2]);
    }

    #[test]
    fn weighted_pick_prefers_high_metric() {
        let mut c = Corpus::new(4);
        c.insert(entry(0, 0));
        c.insert(entry(99, 1));
        let mut rng = SmallRng::seed_from_u64(42);
        let mut high = 0;
        for _ in 0..1000 {
            if c.pick(&mut rng).unwrap().bytes[0] == 1 {
                high += 1;
            }
        }
        assert!(high > 900, "high-metric seed picked only {high}/1000 times");
    }

    #[test]
    fn uniform_pick_in_fifo_mode() {
        let mut c = Corpus::new(4);
        c.metric_weighted = false;
        c.insert(entry(0, 0));
        c.insert(entry(9999, 1));
        let mut rng = SmallRng::seed_from_u64(43);
        let mut high = 0;
        for _ in 0..1000 {
            if c.pick(&mut rng).unwrap().bytes[0] == 1 {
                high += 1;
            }
        }
        assert!((350..650).contains(&high), "uniform pick skewed: {high}/1000");
    }

    #[test]
    fn empty_pick_is_none() {
        let mut c = Corpus::new(4);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(c.pick(&mut rng).is_none());
    }

    #[test]
    fn huge_metrics_saturate_instead_of_overflowing() {
        // Entries whose individual energies and whose sum exceed u64::MAX:
        // the lottery must stay total-ordered, never panic, and still
        // return something.
        let mut c = Corpus::new(4);
        for tag in 0..3u8 {
            c.insert(CorpusEntry {
                id: u64::from(tag),
                bytes: vec![tag],
                metric: usize::MAX,
                new_branches: usize::MAX,
            });
        }
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert!(c.pick(&mut rng).is_some());
        }
        let reports = c.seed_reports(0);
        assert!(reports.iter().all(|r| r.energy == u64::MAX));
    }

    #[test]
    fn cached_energies_match_a_fresh_recompute() {
        // The lottery as it was before the cache: energies recomputed and
        // summed with a saturating fold on every pick.
        fn fresh_pick(entries: &[CorpusEntry], rng: &mut SmallRng) -> usize {
            let total = entries.iter().map(energy).fold(0u64, u64::saturating_add);
            let mut ticket = rng.random_range(0..total);
            for (i, entry) in entries.iter().enumerate() {
                if ticket < energy(entry) {
                    return i;
                }
                ticket -= energy(entry);
            }
            entries.len() - 1
        }
        // Eviction as it was before the cache: a fresh scan per insertion.
        fn fresh_insert(entries: &mut Vec<CorpusEntry>, entry: CorpusEntry, weighted: bool) {
            if entries.len() < 16 {
                entries.push(entry);
            } else if weighted {
                let key = |(_, e): &(usize, &CorpusEntry)| (e.new_branches, e.metric);
                let (worst, w) = entries.iter().enumerate().min_by_key(key).unwrap();
                if (entry.new_branches, entry.metric) > (w.new_branches, w.metric) {
                    entries[worst] = entry;
                }
            } else {
                entries.remove(0);
                entries.push(entry);
            }
        }
        let mut rng = SmallRng::seed_from_u64(11);
        for weighted in [true, false] {
            let mut c = Corpus::new(16);
            c.metric_weighted = weighted;
            let mut reference = Vec::new();
            for id in 0..600u64 {
                let huge = rng.random_range(0..50u32) == 0;
                let metric = if huge { usize::MAX } else { rng.random_range(0..40) };
                let new_branches =
                    if rng.random_range(0..8u32) == 0 { rng.random_range(1..4) } else { 0 };
                let entry = CorpusEntry { id, bytes: vec![], metric, new_branches };
                fresh_insert(&mut reference, entry.clone(), weighted);
                c.insert(entry);
                assert_eq!(c.entries, reference);
                let energies: Vec<u64> = c.entries.iter().map(energy).collect();
                assert_eq!(c.energies, energies);
                assert_eq!(c.energy_sum, energies.iter().map(|&e| u128::from(e)).sum());
                if weighted {
                    let mut a = rng.clone();
                    let mut b = rng.clone();
                    assert_eq!(c.pick_index(&mut a), Some(fresh_pick(&c.entries, &mut b)));
                    rng = a;
                }
            }
        }
    }

    #[test]
    fn accounting_tracks_selections_children_and_goals() {
        let mut c = Corpus::new(8);
        c.insert(entry(3, 1));
        c.note_committed(1, None, 10);
        c.insert(entry(5, 2));
        c.note_committed(2, Some(1), 50);

        let mut rng = SmallRng::seed_from_u64(5);
        let picked = c.pick(&mut rng).unwrap().id;
        c.credit_child(Some(1));
        c.credit_goals(Some(2), 3); // credits 2 and, transitively, 1

        let reports = c.seed_reports(100);
        let by_id = |id: u64| reports.iter().find(|r| r.id == id).unwrap().clone();
        assert_eq!(by_id(picked).selections, 1);
        assert_eq!(by_id(1).children, 1);
        assert_eq!(by_id(2).descendant_goals, 3);
        assert_eq!(by_id(1).descendant_goals, 3, "goals propagate up the chain");
        assert_eq!(by_id(1).age_executions, 90);
        assert_eq!(by_id(2).age_executions, 50);
    }

    #[test]
    fn eviction_drops_the_account() {
        let mut c = Corpus::new(1);
        c.insert(entry(1, 1));
        c.note_committed(1, None, 0);
        c.credit_child(Some(1));
        c.insert(CorpusEntry { id: 2, bytes: vec![2], metric: 0, new_branches: 1 });
        // Entry 1 is gone; crediting it is a no-op and its forensics reset.
        c.credit_child(Some(1));
        let reports = c.seed_reports(0);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].id, 2);
        assert_eq!(reports[0].children, 0);
    }
}
