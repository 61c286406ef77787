//! The fuzzing loop: compile once, then mutate → execute → collect coverage
//! (Algorithm 1) → save test cases and interesting inputs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cftcg_codegen::{CompiledModel, Engine, Executor, TestCase};
use cftcg_coverage::{BranchBitmap, FirstHit, FullTracker, ProvenanceTracker};
use cftcg_telemetry::{
    Event, PlateauGoal, ShardStats, SpanKind, SpanSampler, SpanTrace, Telemetry, YieldOutcome,
    PLATEAU_FRONTIER_CAP,
};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::corpus::{Corpus, CorpusEntry, CorpusInsertion};
use crate::lineage::{Lineage, LineageOrigin, LineageRecord, SHARD_ID_STRIDE};
use crate::mutate::{MutationKind, Mutator};
use crate::plateau::PlateauDetector;

/// LibFuzzer's table of recent compares, adapted to model fuzzing: a
/// bounded *deduplicated* dictionary of comparison operand values mined
/// from execution. Deduplication matters here — a model executes hundreds
/// of comparisons per iteration, and the rare run-time-computed operand
/// (a sequence number, a timer threshold) must survive the flood once
/// observed.
///
/// The table is a ring: once full, admitting a new pair evicts the oldest
/// one (round-robin), so the dictionary keeps tracking the operands of the
/// *current* frontier instead of freezing on whatever the first 512 were.
///
/// Every admissible compare a model executes probes the dedup set, so it
/// is a small fixed-size table ([`PairSet`]) rather than a general hashed
/// collection — like LibFuzzer's own table of recent compares.
#[derive(Debug, Clone)]
pub(crate) struct Torc {
    pub(crate) pairs: Vec<(f64, f64)>,
    /// The bit patterns of exactly the pairs in `pairs`.
    seen: PairSet,
    /// Ring cursor: the slot the next eviction replaces (oldest entry).
    next_evict: usize,
    /// When set, newly admitted pairs are also copied to `fresh` for the
    /// parallel coordinator to merge (drained by [`Torc::take_fresh`]).
    track_fresh: bool,
    fresh: Vec<(f64, f64)>,
}

impl Torc {
    pub(crate) const CAPACITY: usize = 512;

    pub(crate) fn new() -> Self {
        Torc {
            pairs: Vec::new(),
            seen: PairSet::new(),
            next_evict: 0,
            track_fresh: false,
            fresh: Vec::new(),
        }
    }

    /// The admission filter. Equal operands carry no information;
    /// non-finite values cannot be injected meaningfully; trivial pairs
    /// (both tiny) are already in the interesting-constant table.
    pub(crate) fn admissible(lhs: f64, rhs: f64) -> bool {
        lhs.is_finite() && rhs.is_finite() && lhs != rhs && !(lhs.abs() <= 1.0 && rhs.abs() <= 1.0)
    }

    pub(crate) fn push(&mut self, lhs: f64, rhs: f64) {
        if !Self::admissible(lhs, rhs) || !self.seen.insert(PairSet::key(lhs, rhs)) {
            return;
        }
        if self.pairs.len() >= Self::CAPACITY {
            let (old_l, old_r) = self.pairs[self.next_evict];
            self.seen.remove(PairSet::key(old_l, old_r));
            self.pairs[self.next_evict] = (lhs, rhs);
            self.next_evict = (self.next_evict + 1) % Self::CAPACITY;
        } else {
            self.pairs.push((lhs, rhs));
        }
        if self.track_fresh {
            self.fresh.push((lhs, rhs));
        }
    }

    /// Turns on fresh-pair tracking (parallel workers only; sequential use
    /// would buffer pairs nobody drains).
    pub(crate) fn enable_tracking(&mut self) {
        self.track_fresh = true;
    }

    /// Drains the pairs admitted since the previous call.
    pub(crate) fn take_fresh(&mut self) -> Vec<(f64, f64)> {
        std::mem::take(&mut self.fresh)
    }

    /// Merges pairs discovered elsewhere (another worker's shard) without
    /// echoing them back out through `fresh`.
    pub(crate) fn absorb(&mut self, pairs: &[(f64, f64)]) {
        let tracking = self.track_fresh;
        self.track_fresh = false;
        for &(lhs, rhs) in pairs {
            self.push(lhs, rhs);
        }
        self.track_fresh = tracking;
    }
}

/// The TORC ring's exact dedup set: a fixed open-addressed table of
/// `(lhs.to_bits(), rhs.to_bits())` keys with a multiply-shift hash,
/// linear probing and backward-shift deletion (no tombstones, so probe
/// runs never grow with eviction churn). It holds at most
/// `Torc::CAPACITY + 1` keys (a push inserts before it evicts), so the load
/// stays at or below one half. The key `(0, 0)` — the pair `(0.0, 0.0)` —
/// marks an empty slot: the admission filter rejects it (equal operands).
#[derive(Debug, Clone)]
struct PairSet {
    slots: Vec<(u64, u64)>,
}

// Probe runs end at an empty slot, so the table must never fill.
const _: () = assert!(2 * Torc::CAPACITY <= PairSet::MASK + 1);

impl PairSet {
    const SLOT_BITS: u32 = 10;
    const MASK: usize = (1 << Self::SLOT_BITS) - 1;
    const EMPTY: (u64, u64) = (0, 0);

    fn new() -> Self {
        PairSet { slots: vec![Self::EMPTY; Self::MASK + 1] }
    }

    fn key(lhs: f64, rhs: f64) -> (u64, u64) {
        (lhs.to_bits(), rhs.to_bits())
    }

    /// The home slot of `key`: the top bits of a two-round multiply mix.
    fn home(key: (u64, u64)) -> usize {
        let mixed =
            (key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ key.1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        (mixed >> (64 - Self::SLOT_BITS)) as usize
    }

    /// The slot holding `key`, or the empty slot ending its probe run.
    fn find(&self, key: (u64, u64)) -> usize {
        let mut i = Self::home(key);
        while self.slots[i] != key && self.slots[i] != Self::EMPTY {
            i = (i + 1) & Self::MASK;
        }
        i
    }

    /// Inserts `key`; `false` when it was already present.
    fn insert(&mut self, key: (u64, u64)) -> bool {
        debug_assert_ne!(key, Self::EMPTY, "the empty marker is not a key");
        let i = self.find(key);
        if self.slots[i] == key {
            return false;
        }
        self.slots[i] = key;
        true
    }

    /// Removes `key`, which must be present, then shifts later members of
    /// its probe run back so every key stays reachable from its home slot.
    fn remove(&mut self, key: (u64, u64)) {
        let mut hole = self.find(key);
        debug_assert_eq!(self.slots[hole], key, "removing an absent key");
        let mut j = hole;
        loop {
            j = (j + 1) & Self::MASK;
            let next = self.slots[j];
            if next == Self::EMPTY {
                break;
            }
            // `next` may fill the hole when the hole lies on its probe path,
            // i.e. no further from `j` than its home slot is.
            let from_home = j.wrapping_sub(Self::home(next)) & Self::MASK;
            if from_home >= (j.wrapping_sub(hole) & Self::MASK) {
                self.slots[hole] = next;
                hole = j;
            }
        }
        self.slots[hole] = Self::EMPTY;
    }
}

/// The fuzz loop's in-execution recorder: Algorithm 1's branch bitmap plus
/// the TORC ring and assertion-violation flags.
struct LoopRecorder<'a> {
    bitmap: &'a mut BranchBitmap,
    torc: &'a mut Torc,
    failed_assertions: &'a mut Vec<bool>,
}

impl cftcg_coverage::Recorder for LoopRecorder<'_> {
    /// The loop never retains condition or decision-vector events.
    const OBSERVES_CONDITIONS: bool = false;
    const OBSERVES_DECISIONS: bool = false;

    #[inline]
    fn branch(&mut self, id: cftcg_coverage::BranchId) {
        self.bitmap.branch(id);
    }

    #[inline]
    fn branch_flags(&mut self) -> Option<&mut [u8]> {
        self.bitmap.branch_flags()
    }

    #[inline]
    fn compare(&mut self, lhs: f64, rhs: f64) {
        self.torc.push(lhs, rhs);
    }

    #[inline]
    fn assertion(&mut self, id: cftcg_coverage::AssertionId, passed: bool) {
        if !passed {
            self.failed_assertions[id.index()] = true;
        }
    }
}

/// A callback fired for every coverage-earning test case the fuzzer emits,
/// carrying the case's input bytes and stable case id.
///
/// This is the seam the `trace` layer uses to capture sampled waveforms of
/// interesting inputs *without* perturbing the run: the hook fires after
/// the case is already booked (suite, coverage event, metadata), consumes
/// no fuzzer RNG, and on parallel runs fires only on the coordinator — so
/// fuzzing outcomes are byte-identical with or without a hook installed
/// (enforced by test).
#[derive(Clone)]
pub struct TraceHook(TraceHookFn);

type TraceHookFn = Arc<dyn Fn(&[u8], u64) + Send + Sync>;

impl TraceHook {
    /// Wraps a callback `f(case_bytes, case_id)`.
    pub fn new(f: impl Fn(&[u8], u64) + Send + Sync + 'static) -> Self {
        TraceHook(Arc::new(f))
    }

    pub(crate) fn call(&self, data: &[u8], case_id: u64) {
        (self.0)(data, case_id);
    }
}

impl std::fmt::Debug for TraceHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceHook(..)")
    }
}

/// What the fuzzer treats as coverage feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeedbackMode {
    /// Model-level branch probes — CFTCG proper.
    #[default]
    ModelLevel,
    /// Only probes that survive as real jumps in optimized code — the
    /// "Fuzz Only" baseline's view (boolean/relational ops are invisible).
    CodeLevelOnly,
}

/// Fuzzing-loop configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// RNG seed (runs are deterministic given a seed and a budget type).
    pub seed: u64,
    /// Maximum stream length in tuples after structural mutations.
    pub max_tuples: usize,
    /// Maximum model iterations executed per input (defence against huge
    /// streams; the paper's driver runs whole streams, which its mutation
    /// caps implicitly).
    pub max_iterations_per_input: usize,
    /// Corpus capacity.
    pub corpus_capacity: usize,
    /// Field-aware, tuple-aligned mutation (ablation A2 turns this off).
    pub field_aware: bool,
    /// Metric-weighted corpus scheduling (ablation A1 turns this off).
    pub metric_weighted_corpus: bool,
    /// Coverage feedback granularity (Figure 8's "Fuzz Only" uses
    /// [`FeedbackMode::CodeLevelOnly`]).
    pub feedback: FeedbackMode,
    /// Optional per-inport value ranges (paper §5): mutated values are
    /// clamped into these, shrinking the random exploration space.
    pub input_ranges: Option<Vec<crate::FieldRange>>,
    /// Optional telemetry registry. Attaching one enables per-execution
    /// latency timing and event emission; it never influences the fuzzing
    /// trajectory, so runs stay byte-identical with or without it.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Optional observer of coverage-earning cases (sampled waveform
    /// capture). Never consulted on worker shards and never fed RNG, so it
    /// cannot change what the fuzzer produces.
    pub trace_hook: Option<TraceHook>,
    /// Optional shared span-event buffer for Chrome trace-event export
    /// (`--trace-events`). Attaching one enables span timing even without a
    /// telemetry registry; like telemetry it only observes, so runs stay
    /// byte-identical with or without it.
    pub span_trace: Option<SpanTrace>,
    /// Run cases on the reference tree-walking engine instead of the
    /// optimized flat VM ([`Executor::new_reference`]). Slower; exists so
    /// campaigns can be cross-checked byte-for-byte against the optimizer
    /// (`tests/optimizer_byte_identity.rs`) — both settings must produce
    /// identical outcomes and artifacts.
    pub reference_vm: bool,
    /// Explicit execution engine. `None` (the default) resolves to the
    /// fastest engine available on this build ([`Engine::best`]), or the
    /// reference tree walker when [`FuzzConfig::reference_vm`] is set.
    /// The `CFTCG_ENGINE` environment variable (`ref` | `flat` | `jit`)
    /// overrides both — see [`FuzzConfig::resolved_engine`].
    pub engine: Option<Engine>,
    /// Plateau-watch window, in executions. When set (and a telemetry
    /// registry is attached), a [`PlateauDetector`] watches the covered-goal
    /// count and emits a `plateau` JSONL event — with a frontier diff naming
    /// the still-open goals — every time a full window passes without a
    /// coverage gain. Pure integer bookkeeping on observation points the
    /// loop already visits; the fuzzing trajectory is untouched.
    pub plateau_window: Option<u64>,
}

impl FuzzConfig {
    /// The engine a campaign with this config actually runs on. Precedence:
    /// the `CFTCG_ENGINE` env var, then [`FuzzConfig::engine`], then
    /// `reference_vm` (reference walker) or the best available tier. A
    /// resolved `Jit` on a build without the JIT still falls back to the
    /// flat VM inside [`Executor::with_engine`]; campaign artifacts are
    /// byte-identical either way.
    pub fn resolved_engine(&self) -> Engine {
        cftcg_codegen::resolve_engine(
            self.engine,
            if self.reference_vm { Engine::Reference } else { Engine::best() },
        )
    }
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            max_tuples: 96,
            max_iterations_per_input: 256,
            corpus_capacity: 256,
            field_aware: true,
            metric_weighted_corpus: true,
            feedback: FeedbackMode::ModelLevel,
            input_ranges: None,
            telemetry: None,
            trace_hook: None,
            span_trace: None,
            reference_vm: false,
            engine: None,
            plateau_window: None,
        }
    }
}

/// A coverage-growth event: total covered branches after `elapsed`, used to
/// draw the paper's Figure 7 coverage-vs-time curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageEvent {
    /// Wall-clock time since the run started.
    pub elapsed: Duration,
    /// Executions (test inputs) completed when the event fired.
    pub executions: u64,
    /// Total branches covered after this event.
    pub covered_branches: usize,
}

/// Forensic metadata of one emitted test case (parallel to
/// [`FuzzOutcome::suite`], same order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseMeta {
    /// Stable lineage id of the case (resolve via [`FuzzOutcome::lineage`]).
    pub case: u64,
    /// Shard that discovered it.
    pub shard: usize,
    /// Campaign executions completed when it was emitted.
    pub executions: u64,
    /// Total branches covered after it was emitted.
    pub covered_branches: usize,
}

/// The result of a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Emitted test cases (inputs that triggered new model coverage), in
    /// discovery order — the tool's actual output artifact.
    pub suite: Vec<TestCase>,
    /// Forensic metadata of each suite entry (same length and order).
    pub suite_meta: Vec<CaseMeta>,
    /// The lineage DAG: one record per committed input, in mint order (see
    /// [`Lineage`]); every suite entry's ancestry resolves here.
    pub lineage: Vec<LineageRecord>,
    /// Per-goal first-hit provenance of the emitted suite. Its embedded
    /// tracker is the union of the suite's observations, so scoring it
    /// reproduces the suite's replay coverage.
    pub provenance: ProvenanceTracker,
    /// First input found violating each assertion, as `(assertion index,
    /// input)` — look the label up via
    /// [`InstrumentationMap::assertions`](cftcg_coverage::InstrumentationMap::assertions).
    pub violations: Vec<(usize, TestCase)>,
    /// Timestamped coverage growth (one event per new-coverage input).
    pub events: Vec<CoverageEvent>,
    /// Inputs executed.
    pub executions: u64,
    /// Model iterations executed (inputs × tuples).
    pub iterations: u64,
    /// Total branch probes in the instrumentation map.
    pub branch_count: usize,
    /// Branches covered at the end of the run.
    pub covered_branches: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-operator × outcome yield matrix (Table 1 order × executed /
    /// new-coverage / corpus-insert / violation): the one per-operator
    /// tally every view renders.
    pub yields: cftcg_telemetry::YieldMatrix,
}

impl FuzzOutcome {
    /// Final branch (decision-outcome) coverage.
    pub fn branch_coverage(&self) -> cftcg_coverage::Ratio {
        cftcg_coverage::Ratio::new(self.covered_branches, self.branch_count)
    }

    /// Model iterations per second achieved by the loop. Zero when no time
    /// has elapsed (a zero-budget run did no measurable work; reporting
    /// infinity would poison downstream averages and JSON output).
    pub fn iterations_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.iterations as f64 / secs
        }
    }

    /// The yield matrix as telemetry report rows (Table 1 order; for the
    /// campaign-end event and CLI report).
    pub fn yield_reports(&self) -> Vec<cftcg_telemetry::YieldReport> {
        self.yields.reports(MutationKind::ALL.map(MutationKind::name))
    }
}

/// The model-oriented fuzzer.
pub struct Fuzzer<'c> {
    exec: Executor<'c>,
    /// The compiled model, kept for forensic replays (provenance absorbs
    /// re-execute coverage-earning inputs with a [`FullTracker`]).
    compiled: &'c CompiledModel,
    /// Cached copy of the compiled tuple layout (avoids cloning it on
    /// every execution just to iterate tuples).
    layout: cftcg_codegen::TupleLayout,
    mutator: Mutator,
    corpus: Corpus,
    rng: SmallRng,
    config: FuzzConfig,
    /// `g_TotalCov` of Algorithm 1.
    total: BranchBitmap,
    curr: BranchBitmap,
    last: BranchBitmap,
    /// Feedback visibility mask; `None` under model-level feedback, where
    /// every probe is visible.
    mask: Option<BranchBitmap>,
    /// Table of recent compares (LibFuzzer value-profile dictionary).
    torc: Torc,
    /// Per-assertion violation flags for the current execution.
    failed_assertions: Vec<bool>,
    /// Assertion labels from the instrumentation map (for violation events).
    assertion_labels: Vec<String>,
    /// Assertions already reported, with their witness inputs.
    violations: Vec<(usize, TestCase)>,
    suite: Vec<TestCase>,
    events: Vec<CoverageEvent>,
    /// Forensic metadata per suite entry (lockstep with `suite`).
    suite_meta: Vec<CaseMeta>,
    /// Shard id: 0 for sequential runs, the worker id on parallel shards.
    /// Lineage ids are minted as `shard * SHARD_ID_STRIDE + counter`.
    shard: usize,
    /// Shard-local counter of committed lineage records.
    next_case: u64,
    /// The lineage DAG of every committed input.
    lineage: Lineage,
    /// Per-goal first-hit provenance (sequential runs only; on worker
    /// shards the coordinator owns the global provenance).
    provenance: ProvenanceTracker,
    executions: u64,
    iterations: u64,
    started: Instant,
    elapsed: Duration,
    /// Locally owned telemetry counters (lock-free; cumulative).
    stats: ShardStats,
    /// Baseline of the last stats report, for delta computation.
    reported_stats: ShardStats,
    /// Telemetry registry, shared with the campaign owner.
    telemetry: Option<Arc<Telemetry>>,
    /// Per-execution latency timing (costs two clock reads per input), on
    /// only when a telemetry registry is attached.
    time_execs: bool,
    /// Span-phase timing (mutation/execution/coverage/corpus attribution),
    /// on when a telemetry registry or a span-trace buffer is attached —
    /// otherwise the hot loop never reads the clock for spans.
    time_spans: bool,
    /// Sampling front end for the shared trace-event buffer, when attached.
    span_sampler: Option<SpanSampler>,
    /// Plateau watcher (sequential runs with a telemetry registry and a
    /// configured window only; on parallel shards the coordinator owns it).
    plateau: Option<PlateauDetector>,
    /// Set on parallel worker shards: record local stats but never emit
    /// events or merge into the registry directly — the coordinator owns
    /// the global view and folds worker deltas at sync rounds.
    worker_mode: bool,
}

impl<'c> Fuzzer<'c> {
    /// Creates a fuzzer over a compiled model.
    pub fn new(compiled: &'c CompiledModel, config: FuzzConfig) -> Self {
        let branch_count = compiled.map().branch_count();
        let mut mutator = Mutator::new(compiled.layout().clone(), config.max_tuples);
        mutator.field_aware = config.field_aware;
        if let Some(ranges) = &config.input_ranges {
            mutator.set_ranges(ranges.clone());
        }
        let mut corpus = Corpus::new(config.corpus_capacity);
        corpus.metric_weighted = config.metric_weighted_corpus;
        let mask = match config.feedback {
            FeedbackMode::ModelLevel => None,
            FeedbackMode::CodeLevelOnly => Some(compiled.map().code_level_mask()),
        };
        let telemetry = config.telemetry.clone();
        if let Some(t) = &telemetry {
            let labels: Vec<&str> = MutationKind::ALL.iter().map(|k| k.name()).collect();
            t.set_operator_labels(&labels);
        }
        let time_execs = telemetry.is_some();
        let span_sampler = config.span_trace.clone().map(|trace| SpanSampler::new(trace, 0));
        let time_spans = time_execs || span_sampler.is_some();
        let plateau = match (&telemetry, config.plateau_window) {
            (Some(_), Some(window)) => Some(PlateauDetector::new(window)),
            _ => None,
        };
        Fuzzer {
            exec: Executor::with_engine(compiled, config.resolved_engine()),
            compiled,
            layout: compiled.layout().clone(),
            mutator,
            corpus,
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            total: BranchBitmap::new(branch_count),
            curr: BranchBitmap::new(branch_count),
            last: BranchBitmap::new(branch_count),
            mask,
            torc: Torc::new(),
            failed_assertions: vec![false; compiled.map().assertion_count()],
            assertion_labels: compiled.map().assertions().to_vec(),
            violations: Vec::new(),
            suite: Vec::new(),
            events: Vec::new(),
            suite_meta: Vec::new(),
            shard: 0,
            next_case: 0,
            lineage: Lineage::new(),
            provenance: ProvenanceTracker::new(compiled.map()),
            executions: 0,
            iterations: 0,
            started: Instant::now(),
            elapsed: Duration::ZERO,
            stats: ShardStats::new(MutationKind::ALL.len()),
            reported_stats: ShardStats::new(MutationKind::ALL.len()),
            telemetry,
            time_execs,
            time_spans,
            span_sampler,
            plateau,
            worker_mode: false,
        }
    }

    /// Records one completed span: always into the shard-local histogram
    /// stats, and (sampled) into the shared trace buffer when attached.
    /// Callers only construct the `start` timestamp when
    /// [`Fuzzer::time_spans`] is set, so uninstrumented runs skip the clock.
    #[inline]
    fn note_span(&mut self, kind: SpanKind, start: Instant) {
        let end = Instant::now();
        self.stats.spans.record(kind, end.saturating_duration_since(start).as_nanos() as u64);
        if let Some(sampler) = &mut self.span_sampler {
            sampler.record(kind, start, end);
        }
    }

    /// The emitted test suite so far.
    pub fn suite(&self) -> &[TestCase] {
        &self.suite
    }

    /// Adds an externally produced input (e.g. a constraint-solving
    /// witness) to the loop: it is executed immediately with full coverage
    /// accounting, emitted as a test case if it finds new coverage, and
    /// retained in the corpus for mutation — the hybrid bootstrap the
    /// paper's §5 proposes ("first apply constraint solving ... and then
    /// generate input data accordingly").
    pub fn add_seed(&mut self, bytes: Vec<u8>) {
        let (new_branches, metric) = self.execute(&bytes);
        self.executions += 1;
        self.stats.executions += 1;
        let case_id = self.shard as u64 * SHARD_ID_STRIDE + self.next_case;
        let emitted = new_branches > 0;
        if emitted {
            self.stats.discoveries += 1;
            self.emit_case(&bytes, case_id, &[], None, None);
        }
        let insertion =
            self.corpus.insert(CorpusEntry { id: case_id, bytes, metric, new_branches });
        self.record_insertion(insertion);
        if !matches!(insertion, CorpusInsertion::Rejected) {
            self.corpus.note_committed(case_id, None, self.executions);
        }
        if emitted || !matches!(insertion, CorpusInsertion::Rejected) {
            self.lineage.push(LineageRecord {
                id: case_id,
                parent: None,
                crossover: None,
                ops: Vec::new(),
                origin: LineageOrigin::External,
                shard: self.shard,
                executions: self.executions,
            });
            self.next_case += 1;
        }
        if !self.worker_mode {
            if let Some(t) = &self.telemetry {
                t.emit(&Event::SeedAdded {
                    shard: 0,
                    executions: self.executions,
                    t: t.elapsed_s(),
                });
            }
        }
    }

    /// Branches covered so far (under the configured feedback mask).
    pub fn covered_branches(&self) -> usize {
        self.total.count()
    }

    /// Runs until `budget` wall-clock time has elapsed (cumulative across
    /// calls). Returns the outcome snapshot.
    pub fn run_for(&mut self, budget: Duration) -> FuzzOutcome {
        let deadline = Instant::now() + budget;
        self.started = Instant::now() - self.elapsed;
        self.run_until(deadline);
        self.elapsed = self.started.elapsed();
        self.flush_telemetry();
        self.outcome()
    }

    /// Runs executions until `deadline`, checking the clock between
    /// *batches* rather than per input. The batch size adapts to the
    /// model's execution cost — doubling while a batch finishes quickly,
    /// halving when one overshoots — so the loop neither burns a clock
    /// read per 100ns execution on small models nor overruns the deadline
    /// by seconds on slow ones. Batching only affects when the clock is
    /// consulted; the input sequence is identical for any batch schedule.
    pub(crate) fn run_until(&mut self, deadline: Instant) {
        /// Below this per-batch cost the clock overhead is noise: grow.
        const GROW_BELOW: Duration = Duration::from_millis(2);
        /// Above this per-batch cost the deadline overshoot hurts: shrink.
        const SHRINK_ABOVE: Duration = Duration::from_millis(8);
        let mut batch: u64 = 16;
        let mut now = Instant::now();
        while now < deadline {
            self.fuzz_batch(batch);
            let after = Instant::now();
            let took = after - now;
            now = after;
            if took < GROW_BELOW {
                batch = (batch * 2).min(8192);
            } else if took > SHRINK_ABOVE {
                batch = (batch / 2).max(1);
            }
            self.flush_telemetry();
        }
    }

    /// Runs exactly `n` input executions (deterministic; used by tests and
    /// budget-matched experiments).
    pub fn run_executions(&mut self, n: u64) -> FuzzOutcome {
        self.started = Instant::now() - self.elapsed;
        self.fuzz_batch(n);
        self.elapsed = self.started.elapsed();
        self.flush_telemetry();
        self.outcome()
    }

    /// Reports the stats delta since the last flush into the attached
    /// registry and lets the status line tick. No-op on worker shards (the
    /// coordinator folds their deltas) and without a registry.
    fn flush_telemetry(&mut self) {
        if self.worker_mode {
            return;
        }
        if let Some(t) = self.telemetry.clone() {
            let delta = self.take_stats_delta();
            t.merge_shard(0, &delta, self.corpus.len());
            t.set_corpus_seeds(0, self.corpus.seed_reports(self.executions));
            t.status_tick(false);
        }
    }

    /// Feeds the plateau watcher one execution's outcome and emits a
    /// `plateau` event when a quiet window just completed, carrying a
    /// frontier diff of the still-open goals and their classifications.
    /// Costs one compare per execution when a watcher is armed (nothing
    /// otherwise); the frontier walk only runs on a fire.
    fn plateau_tick(&mut self, earned: bool) {
        let Some(detector) = &mut self.plateau else {
            return;
        };
        if !detector.tick(self.executions, earned) {
            return;
        }
        let window = detector.window();
        let Some(t) = &self.telemetry else {
            return;
        };
        let entries = cftcg_coverage::frontier(self.compiled.map(), self.provenance.tracker());
        let frontier: Vec<PlateauGoal> = entries
            .iter()
            .take(PLATEAU_FRONTIER_CAP)
            .map(|e| PlateauGoal { label: e.label.clone(), cause: e.cause.tag().to_string() })
            .collect();
        t.emit(&Event::Plateau {
            shard: self.shard,
            executions: self.executions,
            window,
            covered: self.total.count(),
            total: self.total.len(),
            open: entries.len() as u64,
            frontier,
            t: t.elapsed_s(),
        });
    }

    /// Assertion violations found so far: `(assertion index, first
    /// violating input)`.
    pub fn violations(&self) -> &[(usize, TestCase)] {
        &self.violations
    }

    /// Snapshot of the current results.
    pub fn outcome(&self) -> FuzzOutcome {
        FuzzOutcome {
            suite: self.suite.clone(),
            suite_meta: self.suite_meta.clone(),
            lineage: self.lineage.records().to_vec(),
            provenance: self.provenance.clone(),
            violations: self.violations.clone(),
            events: self.events.clone(),
            executions: self.executions,
            iterations: self.iterations,
            branch_count: self.total.len(),
            covered_branches: self.total.count(),
            elapsed: self.elapsed,
            yields: self.stats.yields.clone(),
        }
    }

    /// Generates one input (seed selection + mutation), executes it with
    /// Algorithm 1's coverage collection, and files the results.
    fn fuzz_one(&mut self) {
        let mutation_start = if self.time_spans { Some(Instant::now()) } else { None };
        let (mut data, parent, origin) = match self.corpus.pick(&mut self.rng) {
            Some(entry) => (entry.bytes.clone(), Some(entry.id), LineageOrigin::Mutant),
            None => {
                // Bootstrap: a single random tuple.
                (self.mutator.random_tuple(&mut self.rng), None, LineageOrigin::Bootstrap)
            }
        };
        // The crossover partner is borrowed from the corpus, which nothing
        // below touches until the mutation chain is done.
        let other = self.corpus.pick_other(&mut self.rng);
        let other_id = other.map(|e| e.id);
        // LibFuzzer stacks several mutations per generated input, with the
        // TORC comparison operands as a value dictionary. The operators
        // applied are remembered in application order, both for coverage
        // attribution (Table 1) and as the lineage edge of the new input.
        let rounds = 1 + (self.rng.next_u32() % 4);
        let mut operator_mask = 0u8;
        let mut ops = Vec::with_capacity(rounds as usize);
        for _ in 0..rounds {
            let kind = self.mutator.mutate_with_dictionary(
                &mut self.rng,
                &mut data,
                other.map(|e| e.bytes.as_slice()),
                &self.torc.pairs,
            );
            operator_mask |= 1 << kind.index();
            ops.push(kind);
        }
        if let Some(start) = mutation_start {
            self.note_span(SpanKind::Mutation, start);
        }

        let (new_branches, metric) = self.execute(&data);
        self.stats.mutation_depth.record(u64::from(rounds));
        self.executions += 1;
        self.stats.executions += 1;
        let earned = new_branches > 0;
        if earned {
            self.stats.discoveries += 1;
        }

        // Report first-time assertion violations with their witness input.
        let mut witnessed_violation = false;
        for i in 0..self.failed_assertions.len() {
            if self.failed_assertions[i] && !self.violations.iter().any(|&(a, _)| a == i) {
                self.violations.push((i, TestCase::new(data.clone())));
                self.stats.violations += 1;
                witnessed_violation = true;
                if !self.worker_mode {
                    if let Some(t) = &self.telemetry {
                        t.emit(&Event::Violation {
                            shard: 0,
                            assertion: i,
                            label: self.assertion_labels.get(i).cloned().unwrap_or_default(),
                            t: t.elapsed_s(),
                        });
                    }
                }
            }
        }
        let case_id = self.shard as u64 * SHARD_ID_STRIDE + self.next_case;
        // The crossover partner only enters the lineage when the operator
        // chain actually consulted it.
        let crossover = if ops.contains(&MutationKind::TuplesCrossOver) { other_id } else { None };
        if new_branches > 0 {
            // Algorithm 1 line 16: output the test case.
            let coverage_start = if self.time_spans { Some(Instant::now()) } else { None };
            self.emit_case(&data, case_id, &ops, parent, crossover);
            if let Some(start) = coverage_start {
                self.note_span(SpanKind::CoverageUpdate, start);
            }
        }
        let mut committed = new_branches > 0;
        let mut inserted = false;
        if new_branches > 0 || metric > 0 {
            let insert_start = if self.time_spans { Some(Instant::now()) } else { None };
            let insertion =
                self.corpus.insert(CorpusEntry { id: case_id, bytes: data, metric, new_branches });
            self.record_insertion(insertion);
            if let Some(start) = insert_start {
                self.note_span(SpanKind::CorpusInsert, start);
            }
            inserted = !matches!(insertion, CorpusInsertion::Rejected);
            if inserted {
                self.corpus.note_committed(case_id, parent, self.executions);
            }
            committed = committed || inserted;
        }
        // Seed-schedule forensics: the parent chain is credited with the
        // committed child and any newly covered goals (plain integer
        // bookkeeping — no RNG, no clock).
        if committed {
            self.corpus.credit_child(parent);
        }
        if earned {
            self.corpus.credit_goals(parent, new_branches as u64);
        }
        // Mutation-yield attribution: each operator in this input's chain is
        // charged with the execution and credited with whatever it earned.
        for kind in MutationKind::ALL {
            if operator_mask & (1 << kind.index()) != 0 {
                self.stats.yields.record(kind.index(), YieldOutcome::Executed);
                if earned {
                    self.stats.yields.record(kind.index(), YieldOutcome::NewCoverage);
                }
                if inserted {
                    self.stats.yields.record(kind.index(), YieldOutcome::CorpusInsert);
                }
                if witnessed_violation {
                    self.stats.yields.record(kind.index(), YieldOutcome::Violation);
                }
            }
        }
        // The id is only burned when the input survives somewhere (suite or
        // corpus); rejected mutants leave no lineage record, keeping the DAG
        // proportional to retained state rather than executions.
        if committed {
            self.lineage.push(LineageRecord {
                id: case_id,
                parent,
                crossover,
                ops,
                origin,
                shard: self.shard,
                executions: self.executions,
            });
            self.next_case += 1;
        }
        self.plateau_tick(earned);
    }

    /// Emits `data` as a test case: suite entry, coverage event, forensic
    /// metadata, per-goal first-hit provenance, and (sequential runs) the
    /// `new-coverage` / `case-lineage` telemetry events. Worker shards only
    /// record the local artifacts — the coordinator owns global provenance.
    fn emit_case(
        &mut self,
        data: &[u8],
        case_id: u64,
        ops: &[MutationKind],
        parent: Option<u64>,
        crossover: Option<u64>,
    ) {
        let elapsed = self.started.elapsed();
        self.suite.push(TestCase::new(data.to_vec()));
        self.events.push(CoverageEvent {
            elapsed,
            executions: self.executions,
            covered_branches: self.total.count(),
        });
        self.suite_meta.push(CaseMeta {
            case: case_id,
            shard: self.shard,
            executions: self.executions,
            covered_branches: self.total.count(),
        });
        if self.worker_mode {
            return;
        }
        if let Some(hook) = &self.config.trace_hook {
            hook.call(data, case_id);
        }
        let case_tracker = self.case_tracker(data);
        let hit = FirstHit {
            executions: self.executions,
            elapsed,
            shard: self.shard,
            case: case_id,
            ops: ops.iter().map(|k| k.index() as u8).collect(),
        };
        self.provenance.absorb(self.compiled.map(), &case_tracker, &hit);
        if let Some(t) = &self.telemetry {
            t.emit(&Event::NewCoverage {
                shard: 0,
                executions: self.executions,
                covered: self.total.count(),
                total: self.total.len(),
                t: t.elapsed_s(),
            });
            t.emit(&Event::CaseLineage {
                shard: self.shard,
                case: case_id,
                parent,
                crossover,
                ops: ops.iter().map(|k| k.name().to_string()).collect(),
                executions: self.executions,
                t: t.elapsed_s(),
            });
        }
    }

    /// Replays `data` with a [`FullTracker`] to collect the condition and
    /// decision-evaluation observations provenance needs. Only
    /// coverage-earning inputs (rare) are replayed; the executor is reset on
    /// every use and the tracker's compare hook is a no-op, so the replay
    /// cannot perturb the fuzzing trajectory.
    fn case_tracker(&mut self, data: &[u8]) -> FullTracker {
        let mut tracker = FullTracker::new(self.compiled.map());
        self.exec.reset();
        for tuple in self.layout.split(data).take(self.config.max_iterations_per_input) {
            self.exec.step_tuple(tuple, &mut tracker);
        }
        tracker
    }

    /// Books a corpus-insertion outcome into the shard stats and, on the
    /// sequential fuzzer, emits the eviction event.
    fn record_insertion(&mut self, insertion: CorpusInsertion) {
        match insertion {
            CorpusInsertion::Appended => self.stats.corpus_inserts += 1,
            CorpusInsertion::Replaced => {
                self.stats.corpus_inserts += 1;
                self.stats.corpus_evictions += 1;
                if !self.worker_mode {
                    if let Some(t) = &self.telemetry {
                        t.emit(&Event::CorpusEvict {
                            shard: 0,
                            corpus_len: self.corpus.len(),
                            t: t.elapsed_s(),
                        });
                    }
                }
            }
            CorpusInsertion::Rejected => {}
        }
    }

    /// Algorithm 1: runs one input, returning `(new branches, iteration
    /// difference metric)`.
    fn execute(&mut self, data: &[u8]) -> (usize, usize) {
        let timer = if self.time_spans { Some(Instant::now()) } else { None };
        self.exec.reset(); // Model_init()
        let mut new_branches = 0;
        let mut metric = 0;
        self.last.clear();
        self.failed_assertions.iter_mut().for_each(|f| *f = false);
        for tuple in self.layout.split(data).take(self.config.max_iterations_per_input) {
            self.curr.clear(); // line 11
            let mut recorder = LoopRecorder {
                bitmap: &mut self.curr,
                torc: &mut self.torc,
                failed_assertions: &mut self.failed_assertions,
            };
            self.exec.step_tuple(tuple, &mut recorder); // line 12
            if let Some(mask) = &self.mask {
                // Clear probe hits the configured feedback cannot observe.
                self.curr.retain_mask(mask);
            }
            new_branches += self.curr.merge_into(&mut self.total); // lines 13–16
            metric += self.curr.diff_count(&self.last); // lines 17–18
                                                        // Line 19 (`lastCov = g_CurrCov`) as a swap: the stale flags
                                                        // left in `curr` are cleared by the next tick's line 11.
            std::mem::swap(&mut self.last, &mut self.curr);
            self.iterations += 1;
            self.stats.iterations += 1;
        }
        if let Some(start) = timer {
            let end = Instant::now();
            let ns = end.saturating_duration_since(start).as_nanos() as u64;
            if self.time_execs {
                self.stats.exec_latency_ns.record(ns);
            }
            self.stats.spans.record(SpanKind::Execution, ns);
            if let Some(sampler) = &mut self.span_sampler {
                sampler.record(SpanKind::Execution, start, end);
            }
        }
        (new_branches, metric)
    }

    // ---- parallel-engine hooks (crate-private; see `parallel.rs`) ----

    /// Runs `n` inputs without touching the wall-clock bookkeeping — the
    /// unit of work a parallel worker performs between synchronizations.
    pub(crate) fn fuzz_batch(&mut self, n: u64) {
        for _ in 0..n {
            self.fuzz_one();
        }
    }

    /// Marks this fuzzer as a parallel worker shard: local stats keep
    /// accumulating, but events and registry merges are left to the
    /// coordinator (which owns the global view).
    pub(crate) fn set_worker_mode(&mut self) {
        self.worker_mode = true;
        // Worker shards never emit events; the coordinator owns the global
        // plateau watcher (a shard-local one would mistake cross-shard
        // discoveries for stalls).
        self.plateau = None;
    }

    /// Sets the shard id lineage ids are minted under (worker id on
    /// parallel shards; stays 0 on sequential runs, so shard 0's ids
    /// coincide with a sequential run's — the `workers == 1` byte-identity
    /// contract).
    pub(crate) fn set_worker_shard(&mut self, shard: usize) {
        self.shard = shard;
        if let Some(sampler) = &mut self.span_sampler {
            sampler.set_shard(shard as u32);
        }
    }

    /// `true` when span-phase timing is enabled (telemetry or trace buffer
    /// attached) — workers use this to decide whether to time sync waits.
    pub(crate) fn spans_enabled(&self) -> bool {
        self.time_spans
    }

    /// Books the time this worker spent blocked on the coordinator's
    /// broadcast as a [`SpanKind::SyncWait`] span — the lock-wait signal
    /// that diagnoses multi-core scaling.
    pub(crate) fn note_sync_wait(&mut self, start: Instant) {
        self.note_span(SpanKind::SyncWait, start);
    }

    /// The stats accumulated since the previous call (or since creation),
    /// advancing the report baseline. Merge-ordering of these deltas across
    /// shards is irrelevant: ShardStats addition is commutative.
    pub(crate) fn take_stats_delta(&mut self) -> ShardStats {
        let delta = self.stats.delta_since(&self.reported_stats);
        self.reported_stats = self.stats.clone();
        delta
    }

    /// Number of corpus entries currently retained.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// Per-corpus-entry scheduling forensics (parallel workers ship these
    /// to the coordinator at sync rounds for registry publication).
    pub(crate) fn corpus_seed_reports(&self) -> Vec<cftcg_telemetry::CorpusSeedReport> {
        self.corpus.seed_reports(self.executions)
    }

    /// Inputs executed so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Model iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Coverage-growth events so far (one per suite entry, same order).
    pub fn events(&self) -> &[CoverageEvent] {
        &self.events
    }

    /// Imports a corpus entry discovered by another worker shard: executes
    /// it so this shard's `g_TotalCov`, TORC, and corpus account for the
    /// broadcast coverage, without counting it as fuzzing work (the
    /// originating worker already counted the execution) and without
    /// re-reporting its discoveries (suite, events, and violations stay
    /// untouched — the coordinator owns the merged view).
    pub(crate) fn absorb_entry(&mut self, id: u64, bytes: Vec<u8>) {
        let iterations = self.iterations;
        let executions = self.executions;
        let stats = self.stats.clone();
        let tracking = std::mem::take(&mut self.torc.track_fresh);
        let (new_branches, metric) = self.execute(&bytes);
        self.torc.track_fresh = tracking;
        self.iterations = iterations;
        self.executions = executions;
        // The originating worker already counted this execution; rolling
        // the stats back keeps the telemetry totals double-count-free.
        self.stats = stats;
        // Only keep it if it taught this shard something; otherwise it
        // would crowd out locally interesting entries. The entry keeps the
        // lineage id its originating shard minted, so mutants of it trace
        // across the shard boundary.
        if new_branches > 0 || metric > 0 {
            let insertion = self.corpus.insert(CorpusEntry { id, bytes, metric, new_branches });
            if !matches!(insertion, CorpusInsertion::Rejected) {
                // Broadcast entries have no resident parent on this shard;
                // their age starts at absorption.
                self.corpus.note_committed(id, None, self.executions);
            }
        }
    }

    /// Merges compare-dictionary pairs broadcast by the coordinator.
    pub(crate) fn absorb_torc(&mut self, pairs: &[(f64, f64)]) {
        self.torc.absorb(pairs);
    }

    /// Turns on TORC fresh-pair tracking for coordinator syncs.
    pub(crate) fn enable_torc_tracking(&mut self) {
        self.torc.enable_tracking();
    }

    /// Drains TORC pairs admitted since the last drain.
    pub(crate) fn take_fresh_torc(&mut self) -> Vec<(f64, f64)> {
        self.torc.take_fresh()
    }

    /// Violations found since index `from`, as `(assertion, input bytes)`.
    pub(crate) fn violations_since(&self, from: usize) -> &[(usize, TestCase)] {
        &self.violations[from..]
    }

    /// Suite/event/meta triples since index `from` (the three vectors grow
    /// in lockstep: one event and one meta record per emitted test case).
    pub(crate) fn discoveries_since(
        &self,
        from: usize,
    ) -> (&[TestCase], &[CoverageEvent], &[CaseMeta]) {
        debug_assert_eq!(self.suite.len(), self.events.len());
        debug_assert_eq!(self.suite.len(), self.suite_meta.len());
        (&self.suite[from..], &self.events[from..], &self.suite_meta[from..])
    }

    /// Lineage records minted since index `from` (append-only stream).
    pub(crate) fn lineage_records_since(&self, from: usize) -> &[LineageRecord] {
        &self.lineage.records()[from..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_codegen::{compile, replay_suite};
    use cftcg_model::expr::parse_expr;
    use cftcg_model::{BlockKind, DataType, ModelBuilder, Value};

    /// A model with an easy branch and a magic-value branch.
    fn magic_model() -> cftcg_codegen::CompiledModel {
        let mut b = ModelBuilder::new("magic");
        let u = b.inport("u", DataType::U8);
        let iff = b.add(
            "if",
            BlockKind::If {
                num_inputs: 1,
                conditions: vec![parse_expr("u1 == 77").unwrap()],
                has_else: true,
            },
        );
        fn const_action(name: &str, v: f64) -> BlockKind {
            let mut b = ModelBuilder::new(name);
            let c = b.constant("c", v);
            let y = b.outport("y");
            b.wire(c, y);
            BlockKind::ActionSubsystem { model: Box::new(b.finish().unwrap()) }
        }
        let hit = b.add("hit", const_action("hm", 1.0));
        let miss = b.add("miss", const_action("mm", 0.0));
        let merge = b.add("merge", BlockKind::Merge { inputs: 2 });
        let y = b.outport("y");
        b.wire(u, iff);
        b.connect(iff, 0, hit, 0);
        b.connect(iff, 1, miss, 0);
        b.connect(hit, 0, merge, 0);
        b.connect(miss, 0, merge, 1);
        b.wire(merge, y);
        compile(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn torc_dedups_and_filters() {
        let mut t = Torc::new();
        t.push(5.0, 77.0);
        t.push(5.0, 77.0); // duplicate
        t.push(f64::NAN, 1.0); // non-finite
        t.push(3.0, 3.0); // equal operands
        t.push(0.5, -0.5); // both tiny
        assert_eq!(t.pairs, vec![(5.0, 77.0)]);
    }

    #[test]
    fn torc_ring_evicts_oldest_once_full() {
        let mut t = Torc::new();
        for i in 0..Torc::CAPACITY {
            t.push(2.0 + i as f64, 1.0);
        }
        assert_eq!(t.pairs.len(), Torc::CAPACITY);
        assert!(t.pairs.contains(&(2.0, 1.0)));

        // The table is full; a new pair must still be admitted…
        t.push(9_999.0, 1.0);
        assert_eq!(t.pairs.len(), Torc::CAPACITY, "stays bounded");
        assert!(t.pairs.contains(&(9_999.0, 1.0)), "new pair admitted");
        // …at the expense of the oldest entry.
        assert!(!t.pairs.contains(&(2.0, 1.0)), "oldest evicted");

        // The evicted pair's dedup slot was released: it can come back
        // (evicting the now-oldest survivor).
        t.push(2.0, 1.0);
        assert!(t.pairs.contains(&(2.0, 1.0)));
        assert!(!t.pairs.contains(&(3.0, 1.0)));
        assert_eq!(t.pairs.len(), Torc::CAPACITY);
    }

    #[test]
    fn torc_fresh_tracking_drains_and_skips_absorbed() {
        let mut t = Torc::new();
        t.push(10.0, 20.0); // before tracking: not recorded as fresh
        t.enable_tracking();
        t.push(30.0, 40.0);
        t.absorb(&[(50.0, 60.0), (10.0, 20.0)]); // imported, not echoed
        assert_eq!(t.take_fresh(), vec![(30.0, 40.0)]);
        assert!(t.take_fresh().is_empty(), "drained");
        assert!(t.pairs.contains(&(50.0, 60.0)), "absorbed pairs join the table");
        assert_eq!(t.pairs.len(), 3, "absorbed duplicate was deduped");
    }

    #[test]
    fn fuzzer_finds_magic_byte() {
        let compiled = magic_model();
        let mut fuzzer = Fuzzer::new(&compiled, FuzzConfig { seed: 3, ..Default::default() });
        let outcome = fuzzer.run_executions(5_000);
        assert_eq!(
            outcome.covered_branches, outcome.branch_count,
            "expected full coverage, got {}/{}",
            outcome.covered_branches, outcome.branch_count
        );
        // The emitted suite replays to the same decision coverage.
        let report = replay_suite(&compiled, &outcome.suite);
        assert_eq!(report.decision.percent(), 100.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let compiled = magic_model();
        let run = |seed| {
            let mut f = Fuzzer::new(&compiled, FuzzConfig { seed, ..Default::default() });
            let o = f.run_executions(500);
            (o.covered_branches, o.iterations, o.suite.len())
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn events_are_monotone() {
        let compiled = magic_model();
        let mut fuzzer = Fuzzer::new(&compiled, FuzzConfig { seed: 5, ..Default::default() });
        let outcome = fuzzer.run_executions(2_000);
        assert!(!outcome.events.is_empty());
        for pair in outcome.events.windows(2) {
            assert!(pair[0].covered_branches < pair[1].covered_branches);
            assert!(pair[0].executions <= pair[1].executions);
        }
        assert_eq!(outcome.events.last().unwrap().covered_branches, outcome.covered_branches);
    }

    #[test]
    fn iteration_difference_metric_prefers_state_visiting_inputs() {
        // A counter-driven model: inputs with more tuples exercise more
        // distinct branch sets across iterations, so their metric is larger.
        let mut b = ModelBuilder::new("counted");
        let u = b.inport("u", DataType::U8);
        let t = b.add("t", BlockKind::Terminator);
        b.wire(u, t);
        let cnt = b.add("cnt", BlockKind::CounterLimited { limit: 3 });
        let cmp = b.add("cmp", BlockKind::Compare { op: cftcg_model::RelOp::Ge, constant: 2.0 });
        let y = b.outport("y");
        b.wire(cnt, cmp);
        b.wire(cmp, y);
        let compiled = compile(&b.finish().unwrap()).unwrap();

        let mut fuzzer = Fuzzer::new(&compiled, FuzzConfig { seed: 1, ..Default::default() });
        let (_, metric_short) = fuzzer.execute(&[0]);
        let (_, metric_long) = fuzzer.execute(&[0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(
            metric_long > metric_short,
            "long state-visiting input should score higher: {metric_long} vs {metric_short}"
        );
    }

    /// Reproduces the statistical schematic of the paper's Figure 6: three
    /// iterations whose per-iteration branch sets give an Iteration
    /// Difference Coverage metric of 10 (= 3 + 4 + 3).
    ///
    /// A free-running counter drives k = 0, 1, 2 through a Saturation
    /// (thresholds 0.5 / 1.5, giving nested conditionally-evaluated
    /// decisions) and a Compare (k >= 1):
    ///
    /// * iteration 1 hits {upper:false, lower:true, cmp:false}      → diff 3
    /// * iteration 2 hits {upper:false, lower:false, cmp:true}      → diff 4
    /// * iteration 3 hits {upper:true, cmp:true} (lower not reached)→ diff 3
    #[test]
    fn figure_6_iteration_difference_metric() {
        let mut b = ModelBuilder::new("fig6");
        let u = b.inport("u", DataType::U8);
        let t = b.add("t", BlockKind::Terminator);
        b.wire(u, t);
        let k = b.add("k", BlockKind::CounterFreeRunning { bits: 8 });
        let sat = b.add("sat", BlockKind::Saturation { lower: 0.5, upper: 1.5 });
        let cmp = b.add("cmp", BlockKind::Compare { op: cftcg_model::RelOp::Ge, constant: 1.0 });
        let y0 = b.outport("y0");
        let y1 = b.outport("y1");
        b.wire(k, sat);
        b.feed(k, cmp, 0);
        b.wire(sat, y0);
        b.wire(cmp, y1);
        let compiled = compile(&b.finish().unwrap()).unwrap();
        // 3 decisions × 2 outcomes = 6 branch probes, as in the schematic.
        assert_eq!(compiled.map().branch_count(), 6);

        let mut fuzzer = Fuzzer::new(&compiled, FuzzConfig::default());
        let (new_branches, metric) = fuzzer.execute(&[0, 0, 0]);
        assert_eq!(metric, 10, "Figure 6: metric = 3 + 4 + 3");
        assert_eq!(new_branches, 6, "all six probes fire across the three iterations");
    }

    #[test]
    fn code_level_feedback_sees_fewer_branches() {
        // A pure boolean pipeline: AND gate → outport. Model-level feedback
        // sees its branches; code-level feedback sees nothing (branchless).
        let mut b = ModelBuilder::new("bool");
        let x = b.inport("x", DataType::Bool);
        let w = b.inport("w", DataType::Bool);
        let and = b.add("and", BlockKind::Logic { op: cftcg_model::LogicOp::And, inputs: 2 });
        let y = b.outport("y");
        b.connect(x, 0, and, 0);
        b.connect(w, 0, and, 1);
        b.wire(and, y);
        let compiled = compile(&b.finish().unwrap()).unwrap();

        let mut model_level = Fuzzer::new(&compiled, FuzzConfig { seed: 2, ..Default::default() });
        let m = model_level.run_executions(200);
        assert!(m.covered_branches > 0);

        let mut code_level = Fuzzer::new(
            &compiled,
            FuzzConfig { seed: 2, feedback: FeedbackMode::CodeLevelOnly, ..Default::default() },
        );
        let c = code_level.run_executions(200);
        assert_eq!(c.covered_branches, 0, "boolean branches must be invisible");
        // ... and therefore it emits no test cases at all for this model.
        assert!(c.suite.is_empty());
    }

    #[test]
    fn run_for_respects_wall_clock() {
        let compiled = magic_model();
        let mut fuzzer = Fuzzer::new(&compiled, FuzzConfig { seed: 9, ..Default::default() });
        let outcome = fuzzer.run_for(Duration::from_millis(30));
        assert!(outcome.executions > 0);
        assert!(outcome.elapsed >= Duration::from_millis(30));
        assert!(outcome.iterations_per_second() > 0.0);
    }

    #[test]
    fn suite_replay_matches_final_coverage() {
        let compiled = magic_model();
        let mut fuzzer = Fuzzer::new(&compiled, FuzzConfig { seed: 13, ..Default::default() });
        let outcome = fuzzer.run_executions(3_000);
        let report = replay_suite(&compiled, &outcome.suite);
        assert_eq!(report.decision.covered, outcome.covered_branches);
    }

    #[test]
    fn inputless_model_does_not_hang() {
        let mut b = ModelBuilder::new("none");
        let c = b.constant("c", Value::F64(5.0));
        let sat = b.add("sat", BlockKind::Saturation { lower: 0.0, upper: 1.0 });
        let y = b.outport("y");
        b.wire(c, sat);
        b.wire(sat, y);
        let compiled = compile(&b.finish().unwrap()).unwrap();
        let mut fuzzer = Fuzzer::new(&compiled, FuzzConfig { seed: 0, ..Default::default() });
        let outcome = fuzzer.run_executions(50);
        assert_eq!(outcome.executions, 50);
    }
}

/// Exactness of the TORC ring against a reference model built on
/// `std::collections::HashSet`: the same operation stream must leave the
/// same `pairs` and `fresh`, with the same admission result for every push.
#[cfg(test)]
mod torc_properties {
    use std::collections::HashSet;

    use proptest::prelude::*;

    use super::Torc;

    /// The ring as first written: a hashed dedup set beside the pairs.
    #[derive(Default)]
    struct Reference {
        pairs: Vec<(f64, f64)>,
        seen: HashSet<(u64, u64)>,
        next_evict: usize,
        track_fresh: bool,
        fresh: Vec<(f64, f64)>,
        /// Pairs this model admitted.
        admitted: u64,
    }

    impl Reference {
        fn push(&mut self, lhs: f64, rhs: f64) {
            let trivial = lhs.abs() <= 1.0 && rhs.abs() <= 1.0;
            if !lhs.is_finite() || !rhs.is_finite() || lhs == rhs || trivial {
                return;
            }
            if !self.seen.insert((lhs.to_bits(), rhs.to_bits())) {
                return;
            }
            if self.pairs.len() == Torc::CAPACITY {
                let (l, r) = self.pairs[self.next_evict];
                self.seen.remove(&(l.to_bits(), r.to_bits()));
                self.pairs[self.next_evict] = (lhs, rhs);
                self.next_evict = (self.next_evict + 1) % Torc::CAPACITY;
            } else {
                self.pairs.push((lhs, rhs));
            }
            if self.track_fresh {
                self.fresh.push((lhs, rhs));
            }
            self.admitted += 1;
        }

        fn absorb(&mut self, pairs: &[(f64, f64)]) {
            let tracking = std::mem::replace(&mut self.track_fresh, false);
            for &(lhs, rhs) in pairs {
                self.push(lhs, rhs);
            }
            self.track_fresh = tracking;
        }
    }

    /// Operand values every stream mixes in: signed zeros, non-finite
    /// values, subnormals, the trivial-pair boundary and extremes.
    const SPECIALS: [f64; 16] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 4.0,
        1.0,
        -1.0,
        0.5,
        1.0 + f64::EPSILON,
        2.0,
        -7.25,
        f64::MAX,
        f64::MIN,
    ];

    /// One operand: a special value for one draw in five, otherwise one of
    /// `spread` integers (a small spread duplicates heavily, a large one
    /// churns the ring).
    fn operand(x: u64, spread: u64) -> f64 {
        if x.is_multiple_of(5) {
            SPECIALS[(x / 5) as usize % SPECIALS.len()]
        } else {
            ((x / 5) % spread) as f64 - (spread / 2) as f64
        }
    }

    fn bits(pairs: &[(f64, f64)]) -> Vec<(u64, u64)> {
        pairs.iter().map(|&(l, r)| (l.to_bits(), r.to_bits())).collect()
    }

    /// Runs `ops` (selector, lhs draw, rhs draw) through both tables,
    /// checking them after every step; returns the admissions made.
    fn replay(ops: &[(u8, u64, u64)], spread: u64) -> Result<u64, TestCaseError> {
        let mut torc = Torc::new();
        let mut reference = Reference::default();
        for &(op, a, b) in ops {
            let (lhs, rhs) = (operand(a, spread), operand(b, spread));
            match op {
                0..=11 => {
                    torc.push(lhs, rhs);
                    reference.push(lhs, rhs);
                    // An admission either grows the ring or advances its
                    // eviction cursor, so equal (len, cursor) after every
                    // push means the two tables admitted the same pushes.
                    prop_assert_eq!(
                        (torc.pairs.len(), torc.next_evict),
                        (reference.pairs.len(), reference.next_evict),
                        "admission of ({:?}, {:?})",
                        lhs,
                        rhs
                    );
                }
                12 | 13 => {
                    let batch = [(lhs, rhs), (rhs, lhs), (lhs, operand(a ^ b, spread))];
                    torc.absorb(&batch);
                    reference.absorb(&batch);
                }
                14 => {
                    torc.enable_tracking();
                    reference.track_fresh = true;
                }
                _ => {
                    let fresh = torc.take_fresh();
                    prop_assert_eq!(bits(&fresh), bits(&std::mem::take(&mut reference.fresh)));
                }
            }
        }
        prop_assert_eq!(bits(&torc.pairs), bits(&reference.pairs));
        prop_assert_eq!(bits(&torc.take_fresh()), bits(&reference.fresh));
        Ok(reference.admitted)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Few distinct operands: nearly every push is a duplicate.
        #[test]
        fn torc_matches_reference_under_duplication(
            ops in prop::collection::vec((0u8..16, any::<u64>(), any::<u64>()), 1..1500),
            spread in 2u64..40,
        ) {
            replay(&ops, spread)?;
        }

        /// Far more distinct pairs than the ring and the table hold: the
        /// ring evicts continuously and deletions shift probe runs back.
        #[test]
        fn torc_matches_reference_under_eviction_churn(
            ops in prop::collection::vec((0u8..16, any::<u64>(), any::<u64>()), 2500..5000),
            spread in 200u64..100_000,
        ) {
            let admitted = replay(&ops, spread)?;
            prop_assert!(admitted > 1024, "only {} admissions", admitted);
        }
    }
}
