//! The fuzzing loop: compile once, then mutate → execute → collect coverage
//! (Algorithm 1) → save test cases and interesting inputs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cftcg_codegen::{CompiledModel, Engine, Executor, TestCase};
use cftcg_coverage::{BranchBitmap, CompareTable, ProvenanceTracker};
use cftcg_telemetry::{ShardStats, SpanKind, SpanSampler, Telemetry, YieldOutcome};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::campaign::{Campaign, Folding, ReportedCase, WorkerReport};
use crate::corpus::{Corpus, CorpusEntry, CorpusInsertion};
use crate::lineage::{LineageOrigin, LineageRecord, SHARD_ID_STRIDE};
use crate::mutate::{MutationKind, Mutator};
use crate::resume::{resume_point, Checkpoints, Shape, STRIDE};

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
/// is a small fixed-size [`CompareTable`] rather than a general hashed
/// collection — like LibFuzzer's own table of recent compares. The fuzz
/// loop's recorder exposes that table to the JIT, which skips the compares
/// it already holds without calling back.
///
/// Each shard keeps its own ring, fed only by what that shard executes.
/// Entries absorbed from peer shards run under the loop's recorder too, so
/// their compares reach the ring without any pair crossing a channel.
#[derive(Debug, Clone)]
pub(crate) struct Torc {
    pub(crate) pairs: Vec<(f64, f64)>,
    /// The bit patterns of exactly the pairs in `pairs`.
    seen: CompareTable,
    /// Ring cursor: the slot the next eviction replaces (oldest entry).
    next_evict: usize,
}

impl Torc {
    pub(crate) const CAPACITY: usize = 512;

    pub(crate) fn new() -> Self {
        Torc { pairs: Vec::new(), seen: CompareTable::new(), next_evict: 0 }
    }

    /// Admits `(lhs, rhs)` under [`CompareTable::admissible`] unless the
    /// ring already holds it — and changes nothing otherwise, the promise
    /// [`LoopRecorder`]'s compare-table seam rests on.
    pub(crate) fn push(&mut self, lhs: f64, rhs: f64) {
        if !CompareTable::admissible(lhs, rhs) || !self.seen.insert(lhs, rhs) {
            return;
        }
        if self.pairs.len() >= Self::CAPACITY {
            let (old_l, old_r) = self.pairs[self.next_evict];
            self.seen.remove(old_l, old_r);
            self.pairs[self.next_evict] = (lhs, rhs);
            self.next_evict = (self.next_evict + 1) % Self::CAPACITY;
        } else {
            self.pairs.push((lhs, rhs));
        }
    }
}

// Probe runs end at an empty slot, so the table must never fill: it holds
// at most `Torc::CAPACITY + 1` keys (a push inserts before it evicts).
const _: () = assert!(2 * Torc::CAPACITY <= CompareTable::SLOTS);

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

    /// `Torc::push` is a no-op for inadmissible pairs and pairs the ring
    /// holds, and the table lives as long as the fuzzer.
    #[inline]
    fn compare_table(&mut self) -> Option<&CompareTable> {
        Some(&self.torc.seen)
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
/// interesting inputs *without* perturbing the run: the hook fires from the
/// campaign fold after the case is already booked (suite, coverage event,
/// metadata), consumes no fuzzer RNG, and never runs on a fuzzing shard's
/// loop — so fuzzing outcomes are byte-identical with or without a hook
/// installed (enforced by test).
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
    /// capture). Called by the campaign fold only and never fed RNG, so it
    /// cannot change what the fuzzer produces.
    pub trace_hook: Option<TraceHook>,
    /// Explicit execution engine. `None` (the default) resolves to the
    /// fastest engine available on this build ([`Engine::best`]). Every
    /// engine produces identical outcomes and artifacts
    /// (`tests/optimizer_byte_identity.rs` cross-checks the reference tree
    /// walker against the optimized tiers).
    pub engine: Option<Engine>,
}

impl FuzzConfig {
    /// The engine a campaign with this config runs on: [`FuzzConfig::engine`]
    /// when set, otherwise the best available tier. A `Jit` on a build
    /// without the JIT still falls back to the flat VM inside
    /// [`Executor::with_engine`]; campaign artifacts are byte-identical
    /// either way.
    pub fn resolved_engine(&self) -> Engine {
        self.engine.unwrap_or(Engine::best())
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
            engine: None,
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
    /// [`Lineage`](crate::Lineage)); every suite entry's ancestry resolves here.
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
    /// Model iterations executed: input ticks, resumed prefixes included
    /// (inputs × tuples, each capped at the per-input iteration limit).
    pub iterations: u64,
    /// Input ticks not re-run because the input resumed from its corpus
    /// parent's last checkpoint before its first changed tuple (a subset
    /// of `iterations`; DESIGN.md, "Prefix resume").
    pub resumed_ticks: u64,
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

/// One execution's observable results, as
/// [`Fuzzer::resume_differential`] reports them. Floating-point state is
/// given as bit patterns, so NaN states compare exactly.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunProbe {
    /// Branches the run covered first (Algorithm 1's `new`).
    pub new_branches: usize,
    /// The iteration-difference metric.
    pub metric: usize,
    /// Input ticks, resumed ones included.
    pub ticks: u64,
    /// Ticks restored from a checkpoint instead of run.
    pub resumed_ticks: u64,
    /// The `last` bitmap after the run.
    pub last: Vec<u8>,
    /// The shard's total coverage after the run.
    pub total: Vec<u8>,
    /// Per-assertion violation flags of the run.
    pub failed_assertions: Vec<bool>,
    /// The executor's final state plane.
    pub state: Vec<u64>,
    /// The checkpoints the run leaves for a corpus insertion.
    pub checkpoints: Vec<u64>,
}

/// The model-oriented fuzzer: one shard of Algorithm 1 — pick, mutate,
/// execute, collect coverage, keep interesting inputs. What it finds
/// (coverage-earning cases, lineage, violations, stats) it queues for a
/// campaign fold. A sequential fuzzer owns its campaign and folds in-thread
/// after every batch; a parallel worker shard hands its reports to the
/// coordinator's campaign instead.
pub struct Fuzzer<'c> {
    exec: Executor<'c>,
    /// Cached copy of the compiled tuple layout (avoids cloning it on
    /// every execution just to iterate tuples).
    layout: cftcg_codegen::TupleLayout,
    mutator: Mutator,
    corpus: Corpus,
    rng: SmallRng,
    config: FuzzConfig,
    /// `g_TotalCov` of Algorithm 1 (shard-local).
    total: BranchBitmap,
    /// `g_CurrCov`: this tick's hits, all clear between ticks.
    curr: BranchBitmap,
    last: BranchBitmap,
    /// Feedback visibility mask; `None` under model-level feedback, where
    /// every probe is visible.
    mask: Option<BranchBitmap>,
    /// Table of recent compares (LibFuzzer value-profile dictionary).
    torc: Torc,
    /// Per-assertion violation flags for the current execution.
    failed_assertions: Vec<bool>,
    /// Assertions this shard has already witnessed violated.
    witnessed: Vec<bool>,
    /// The size of this model's execution checkpoints.
    shape: Shape,
    /// The running execution's checkpoints, which a corpus insertion
    /// takes (see [`crate::resume`]).
    run: Checkpoints,
    /// Found since the last report and moved out by
    /// [`Fuzzer::take_report`]: coverage-earning cases, first-witness
    /// violations, the executions at which external seeds were added, and
    /// lineage records.
    cases: Vec<ReportedCase>,
    violations: Vec<(usize, TestCase)>,
    seeds: Vec<u64>,
    lineage: Vec<LineageRecord>,
    /// Shard id: 0 for sequential runs, the worker id on parallel shards.
    /// Lineage ids are minted as `shard * SHARD_ID_STRIDE + counter`.
    shard: usize,
    /// Shard-local counter of committed lineage records.
    next_case: u64,
    executions: u64,
    iterations: u64,
    started: Instant,
    elapsed: Duration,
    /// Telemetry counters booked since the last report (lock-free); moved
    /// out by [`Fuzzer::take_report`].
    stats: ShardStats,
    /// Span-phase timing (mutation/execution/corpus attribution), on when a
    /// telemetry registry is attached — otherwise the hot loop never reads
    /// the clock for spans.
    time_spans: bool,
    /// Sampling front end for the shared trace-event buffer, when attached.
    span_sampler: Option<SpanSampler>,
    /// The sequential run's campaign; `None` on parallel worker shards.
    campaign: Option<Campaign<'c>>,
}

impl<'c> Fuzzer<'c> {
    /// Creates a fuzzer over a compiled model.
    pub fn new(compiled: &'c CompiledModel, config: FuzzConfig) -> Self {
        Fuzzer::build(compiled, config, None)
    }

    /// A parallel worker shard: lineage ids are minted under `worker`
    /// (shard 0's coincide with a sequential run's — the `workers == 1`
    /// byte-identity contract), and the shard owns no campaign.
    pub(crate) fn shard(compiled: &'c CompiledModel, config: FuzzConfig, worker: usize) -> Self {
        Fuzzer::build(compiled, config, Some(worker))
    }

    fn build(compiled: &'c CompiledModel, config: FuzzConfig, worker: Option<usize>) -> Self {
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
        let shard = worker.unwrap_or(0);
        let span_trace = config.telemetry.as_ref().and_then(|t| t.span_trace().cloned());
        let span_sampler = span_trace.map(|trace| SpanSampler::new(trace, shard as u32));
        let time_spans = config.telemetry.is_some();
        let campaign = match worker {
            None => Some(Campaign::new(compiled, &config, 1, Folding::InThread)),
            Some(_) => None,
        };
        let assertions = compiled.map().assertion_count();
        let exec = Executor::with_engine(compiled, config.resolved_engine());
        let last = BranchBitmap::new(branch_count);
        Fuzzer {
            shape: Shape::new(&exec, &last, assertions),
            run: Checkpoints::default(),
            exec,
            layout: compiled.layout().clone(),
            mutator,
            corpus,
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            total: BranchBitmap::new(branch_count),
            curr: BranchBitmap::new(branch_count),
            last,
            mask,
            torc: Torc::new(),
            failed_assertions: vec![false; assertions],
            witnessed: vec![false; assertions],
            cases: Vec::new(),
            violations: Vec::new(),
            seeds: Vec::new(),
            lineage: Vec::new(),
            shard,
            next_case: 0,
            executions: 0,
            iterations: 0,
            started: Instant::now(),
            elapsed: Duration::ZERO,
            stats: ShardStats::new(MutationKind::ALL.len()),
            time_spans,
            span_sampler,
            campaign,
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

    /// The sequential run's campaign.
    fn campaign(&self) -> &Campaign<'c> {
        self.campaign.as_ref().expect("only parallel worker shards fold elsewhere")
    }

    /// The emitted test suite so far.
    pub fn suite(&self) -> &[TestCase] {
        self.campaign().suite()
    }

    /// Adds an externally produced input (e.g. a constraint-solving
    /// witness) to the loop: it is executed immediately with full coverage
    /// accounting, emitted as a test case if it finds new coverage, and
    /// retained in the corpus for mutation — the hybrid bootstrap the
    /// paper's §5 proposes ("first apply constraint solving ... and then
    /// generate input data accordingly").
    pub fn add_seed(&mut self, bytes: Vec<u8>) {
        let (new_branches, metric) = self.execute_booked(&bytes, None);
        self.witness_violations(&bytes);
        let case_id = self.shard as u64 * SHARD_ID_STRIDE + self.next_case;
        let emitted = new_branches > 0;
        if emitted {
            self.stats.discoveries += 1;
            self.emit_case(&bytes, case_id);
        }
        let insertion = self
            .corpus
            .insert_with(CorpusEntry { id: case_id, bytes, metric, new_branches }, &mut self.run);
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
        self.seeds.push(self.executions);
        self.fold();
    }

    /// Branches covered so far (under the configured feedback mask).
    pub fn covered_branches(&self) -> usize {
        self.campaign().covered()
    }

    /// Runs until `budget` wall-clock time has elapsed (cumulative across
    /// calls). Returns the outcome snapshot.
    pub fn run_for(&mut self, budget: Duration) -> FuzzOutcome {
        let deadline = Instant::now() + budget;
        self.started = Instant::now() - self.elapsed;
        self.run_until(deadline);
        self.elapsed = self.started.elapsed();
        self.outcome()
    }

    /// Runs executions until `deadline`, checking the clock between
    /// *batches* rather than per input, and folding after every batch. The
    /// batch size adapts to the model's execution cost — doubling while a
    /// batch finishes quickly, halving when one overshoots — so the loop
    /// neither burns a clock read per 100ns execution on small models nor
    /// overruns the deadline by seconds on slow ones. Batching only affects
    /// when the clock is consulted; the input sequence is identical for any
    /// batch schedule.
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
            self.fold();
        }
    }

    /// Runs exactly `n` input executions (deterministic; used by tests and
    /// budget-matched experiments).
    pub fn run_executions(&mut self, n: u64) -> FuzzOutcome {
        self.started = Instant::now() - self.elapsed;
        self.fuzz_batch(n);
        self.fold();
        self.elapsed = self.started.elapsed();
        self.outcome()
    }

    /// Folds everything found since the last fold into this run's own
    /// campaign and lets the status line tick. A no-op on worker shards,
    /// whose reports go to the coordinator.
    fn fold(&mut self) {
        if self.campaign.is_none() {
            return;
        }
        let report = self.take_report();
        if let Some(campaign) = &mut self.campaign {
            campaign.fold(vec![report]);
        }
        if let Some(t) = &self.config.telemetry {
            t.status_tick(false);
        }
    }

    /// Moves everything found since the previous report out of the shard
    /// into a [`WorkerReport`], the stats booked since then included; the
    /// shard starts a fresh stats window.
    pub(crate) fn take_report(&mut self) -> WorkerReport {
        WorkerReport {
            worker: self.shard,
            cases: std::mem::take(&mut self.cases),
            violations: std::mem::take(&mut self.violations),
            seeds: std::mem::take(&mut self.seeds),
            lineage: std::mem::take(&mut self.lineage),
            stats: std::mem::replace(&mut self.stats, ShardStats::new(MutationKind::ALL.len())),
            corpus_len: self.corpus.len(),
            corpus_seeds: match self.config.telemetry {
                Some(_) => self.corpus.seed_reports(self.executions),
                None => Vec::new(),
            },
            done: false,
        }
    }

    /// Assertion violations found so far: `(assertion index, first
    /// violating input)`.
    pub fn violations(&self) -> &[(usize, TestCase)] {
        self.campaign().violations()
    }

    /// Snapshot of the current results.
    pub fn outcome(&self) -> FuzzOutcome {
        self.campaign().outcome(self.elapsed)
    }

    /// Generates one input (seed selection + mutation), executes it with
    /// Algorithm 1's coverage collection, and files the results.
    fn fuzz_one(&mut self) {
        let mutation_start = if self.time_spans { Some(Instant::now()) } else { None };
        let parent_slot = self.corpus.pick_slot(&mut self.rng);
        let (mut data, parent, origin) = match parent_slot {
            Some(slot) => {
                let entry = &self.corpus.entries()[slot];
                (entry.bytes.clone(), Some(entry.id), LineageOrigin::Mutant)
            }
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

        let (new_branches, metric) = self.execute_booked(&data, parent_slot);
        self.stats.mutation_depth.record(u64::from(rounds));
        let earned = new_branches > 0;
        if earned {
            self.stats.discoveries += 1;
        }
        let witnessed_violation = self.witness_violations(&data);
        let case_id = self.shard as u64 * SHARD_ID_STRIDE + self.next_case;
        // The crossover partner only enters the lineage when the operator
        // chain actually consulted it.
        let crossover = if ops.contains(&MutationKind::TuplesCrossOver) { other_id } else { None };
        if earned {
            self.emit_case(&data, case_id);
        }
        let mut committed = earned;
        let mut inserted = false;
        if new_branches > 0 || metric > 0 {
            let insert_start = if self.time_spans { Some(Instant::now()) } else { None };
            let entry = CorpusEntry { id: case_id, bytes: data, metric, new_branches };
            let insertion = self.corpus.insert_with(entry, &mut self.run);
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
    }

    /// Queues this execution's first-time assertion violations with `data`
    /// as their witness; returns whether there was one.
    fn witness_violations(&mut self, data: &[u8]) -> bool {
        let mut witnessed = false;
        for i in 0..self.failed_assertions.len() {
            if self.failed_assertions[i] && !self.witnessed[i] {
                self.witnessed[i] = true;
                self.violations.push((i, TestCase::new(data.to_vec())));
                witnessed = true;
            }
        }
        witnessed
    }

    /// Algorithm 1 line 16: outputs `data` as a test case — queued, with its
    /// discovery time and execution count, for the campaign fold, which
    /// decides global novelty and books it.
    fn emit_case(&mut self, data: &[u8], case: u64) {
        self.cases.push(ReportedCase {
            bytes: data.to_vec(),
            case,
            elapsed: self.started.elapsed(),
            executions: self.executions,
        });
    }

    /// Books a corpus-insertion outcome into the shard stats (the fold
    /// emits one `corpus-evict` event per counted eviction).
    fn record_insertion(&mut self, insertion: CorpusInsertion) {
        match insertion {
            CorpusInsertion::Appended => self.stats.corpus_inserts += 1,
            CorpusInsertion::Replaced => {
                self.stats.corpus_inserts += 1;
                self.stats.corpus_evictions += 1;
            }
            CorpusInsertion::Rejected => {}
        }
    }

    /// Runs one generated or seeded input and books it as fuzzing work:
    /// one execution, its ticks (resumed ones included) and its
    /// [`SpanKind::Execution`] span.
    fn execute_booked(&mut self, data: &[u8], parent: Option<usize>) -> (usize, usize) {
        let start = if self.time_spans { Some(Instant::now()) } else { None };
        let (new_branches, metric, ticks, resumed) = self.execute(data, parent);
        if let Some(start) = start {
            self.note_span(SpanKind::Execution, start);
        }
        self.executions += 1;
        self.stats.executions += 1;
        self.iterations += ticks;
        self.stats.iterations += ticks;
        self.stats.resumed_ticks += resumed;
        (new_branches, metric)
    }

    /// Algorithm 1: runs one input, returning `(new branches, iteration
    /// difference metric, ticks, resumed ticks)`, and leaves the run's
    /// checkpoints in `self.run` for a corpus insertion. With `parent` set
    /// to the corpus slot `data` was mutated from, the run resumes from
    /// the parent's last checkpoint before the first [`STRIDE`]-tuple
    /// block `data` changes: the ticks before it would recompute exactly
    /// the checkpointed state, `last` bitmap, metric and assertion flags,
    /// and would cover nothing new, since the parent's run already merged
    /// their branches into `total`. Books nothing: the caller decides
    /// whether the run counts as fuzzing work.
    fn execute(&mut self, data: &[u8], parent: Option<usize>) -> (usize, usize, u64, u64) {
        let shape = self.shape;
        let from = parent.map_or(0, |slot| {
            let held = self.corpus.checkpoints(slot).len();
            let bytes = &self.corpus.entries()[slot].bytes;
            resume_point(bytes, data, self.layout.tuple_size(), held)
        });
        let mut metric = 0;
        match parent.filter(|_| from > 0) {
            Some(slot) => {
                let parent = self.corpus.checkpoints(slot);
                metric = parent.restore(
                    from - 1,
                    shape,
                    &mut self.exec,
                    &mut self.last,
                    &mut self.failed_assertions,
                );
                self.run.inherit(parent, from, shape);
            }
            None => {
                self.exec.reset(); // Model_init()
                self.last.clear();
                self.failed_assertions.iter_mut().for_each(|f| *f = false);
                self.run.clear();
            }
        }
        let resumed = from * STRIDE;
        let mut new_branches = 0;
        let mut ticks = resumed;
        // Line 11: `curr` is clear here, and `commit_tick` clears it
        // again at the end of every tick.
        debug_assert_eq!(self.curr.count(), 0);
        let tuples = self.layout.split(data).take(self.config.max_iterations_per_input);
        self.run.reserve(tuples.len() / STRIDE - from, shape);
        for tuple in tuples.skip(resumed) {
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
            // Lines 13–19 in one pass: merge into the total, count the
            // iteration difference, `lastCov = g_CurrCov`, clear `curr`.
            let (new, diff) = self.curr.commit_tick(&mut self.total, &mut self.last);
            new_branches += new;
            metric += diff;
            ticks += 1;
            if ticks.is_multiple_of(STRIDE) {
                self.run.push(shape, &self.exec, &self.last, metric, &self.failed_assertions);
            }
        }
        (new_branches, metric, ticks as u64, resumed as u64)
    }

    /// The shard's corpus.
    #[doc(hidden)]
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Runs `data` twice from the same shard state: resumed from the
    /// checkpoints of the corpus entry in `parent` (its slot in
    /// [`Corpus::entries`]), then in full from `Model_init()`. The coverage
    /// total and the TORC ring are put back after each run, so neither run
    /// sees the other's effects and the shard is left as it was. The test
    /// seam of the resume differential; books nothing.
    #[doc(hidden)]
    pub fn resume_differential(&mut self, parent: usize, data: &[u8]) -> [RunProbe; 2] {
        let (total, torc) = (self.total.clone(), self.torc.clone());
        let probe = |fuzzer: &mut Self, parent| {
            let (new_branches, metric, ticks, resumed_ticks) = fuzzer.execute(data, parent);
            let probe = RunProbe {
                new_branches,
                metric,
                ticks,
                resumed_ticks,
                last: fuzzer.last.as_slice().to_vec(),
                total: fuzzer.total.as_slice().to_vec(),
                failed_assertions: fuzzer.failed_assertions.clone(),
                state: fuzzer.exec.state().iter().map(|x| x.to_bits()).collect(),
                checkpoints: fuzzer.run.to_bits(),
            };
            fuzzer.total.copy_from(&total);
            fuzzer.torc = torc.clone();
            probe
        };
        [probe(self, Some(parent)), probe(self, None)]
    }

    // ---- parallel-engine hooks (crate-private; see `parallel.rs`) ----

    /// Runs `n` inputs without touching the wall-clock bookkeeping — the
    /// unit of work a parallel worker performs between synchronizations.
    pub(crate) fn fuzz_batch(&mut self, n: u64) {
        for _ in 0..n {
            self.fuzz_one();
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

    /// Number of corpus entries currently retained.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// Inputs executed so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Model iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Imports a corpus entry discovered by another worker shard: executes
    /// it so this shard's `g_TotalCov`, TORC ring, and corpus account for
    /// the broadcast coverage and its compare operands, without counting it
    /// as fuzzing work (the originating worker already counted the
    /// execution, so no counter or span books it) and without re-reporting
    /// its discoveries (suite, events, and violations stay untouched — the
    /// coordinator owns the merged view).
    pub(crate) fn absorb_entry(&mut self, id: u64, bytes: Vec<u8>) {
        let (new_branches, metric, ..) = self.execute(&bytes, None);
        // Only keep it if it taught this shard something; otherwise it
        // would crowd out locally interesting entries. The entry keeps the
        // lineage id its originating shard minted, so mutants of it trace
        // across the shard boundary.
        if new_branches > 0 || metric > 0 {
            let entry = CorpusEntry { id, bytes, metric, new_branches };
            let insertion = self.corpus.insert_with(entry, &mut self.run);
            if !matches!(insertion, CorpusInsertion::Rejected) {
                // Broadcast entries have no resident parent on this shard;
                // their age starts at absorption.
                self.corpus.note_committed(id, None, self.executions);
            }
        }
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

    /// A peer's entry reaches this shard's ring by running here: absorbing
    /// an input that evaluates the `u1 == 77` guard admits its operands,
    /// and the absorbed run books no execution, tick or span.
    #[test]
    fn absorbed_entry_feeds_the_ring_and_books_nothing() {
        let compiled = magic_model();
        let telemetry = Some(Arc::new(Telemetry::new()));
        let mut shard = Fuzzer::shard(&compiled, FuzzConfig { telemetry, ..Default::default() }, 1);
        assert!(shard.torc.pairs.is_empty());
        shard.absorb_entry(7, vec![5]);
        assert!(shard.torc.pairs.contains(&(5.0, 77.0)), "ring: {:?}", shard.torc.pairs);
        let stats = shard.take_report().stats;
        assert_eq!((stats.executions, stats.iterations), (0, 0));
        assert!(stats.spans.is_empty(), "absorbed runs book no span");
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
        let (_, metric_short, ..) = fuzzer.execute(&[0], None);
        let (_, metric_long, ..) = fuzzer.execute(&[0, 0, 0, 0, 0, 0, 0, 0], None);
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
        let (new_branches, metric, ticks, _) = fuzzer.execute(&[0, 0, 0], None);
        assert_eq!(ticks, 3);
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
/// same `pairs`, with the same admission result for every push.
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
            self.admitted += 1;
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
    /// checking them after every push; returns the admissions made.
    fn replay(ops: &[(u8, u64, u64)], spread: u64) -> Result<u64, TestCaseError> {
        let mut torc = Torc::new();
        let mut reference = Reference::default();
        for &(op, a, b) in ops {
            let (lhs, rhs) = (operand(a, spread), operand(b, spread));
            // Most draws push one pair; the rest push a burst of three
            // related pairs, as one tick's compares often are.
            let burst = [(lhs, rhs), (rhs, lhs), (lhs, operand(a ^ b, spread))];
            let pairs = if op < 12 { &burst[..1] } else { &burst[..] };
            for &(lhs, rhs) in pairs {
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
        }
        prop_assert_eq!(bits(&torc.pairs), bits(&reference.pairs));
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
