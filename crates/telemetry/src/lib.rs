#![warn(missing_docs)]

//! Observability for the CFTCG fuzzing engine: structured metrics, a JSONL
//! event log, a live status line, and Prometheus text exposition — all
//! zero-dependency and offline-safe.
//!
//! # Architecture
//!
//! The hot path never takes a lock: each fuzzing shard (a worker thread, or
//! the one sequential fuzzer) owns a plain [`ShardStats`] — counters plus
//! log₂-scale [`Histogram`]s — and records into it with ordinary integer
//! arithmetic. At *sync rounds* (or after every batch of the sequential
//! loop) the shard hands over the stats booked since its last report and
//! starts a fresh window; the window is folded into the shared
//! [`Telemetry`] registry under a short mutex hold
//! ([`Telemetry::merge_shard`]). Merging is commutative and associative
//! (element-wise addition), so shard order never matters.
//!
//! Because telemetry only *observes* — it never touches the fuzzer's RNG,
//! corpus, or scheduling — enabling it cannot perturb a campaign: a
//! `workers = 1` run stays byte-identical to the sequential fuzzer with or
//! without sinks attached (enforced by `crates/fuzz` regression tests).
//!
//! # Sinks
//!
//! * **JSONL event log** ([`Telemetry::with_jsonl`]): one [`Event`] per
//!   line — campaign lifecycle, new-coverage discoveries, violations,
//!   corpus evictions, sync rounds, bench series points.
//! * **Status line** ([`Telemetry::with_status`]): an AFL-style periodic
//!   one-liner (execs/s, per-shard rates, corpus size, branch %, violation
//!   count, sync lag).
//! * **Prometheus** ([`Telemetry::prometheus_text`]): a pull-style text
//!   exposition dump of every counter, gauge, and histogram.
//!
//! # Example
//!
//! ```
//! use cftcg_telemetry::{Event, ShardStats, SpanKind, Telemetry, YieldOutcome};
//!
//! let telemetry = Telemetry::new().with_jsonl(Vec::new());
//! telemetry.set_operator_labels(&["EraseTuples", "InsertTuple"]);
//!
//! // A shard records locally, lock-free…
//! let mut stats = ShardStats::new(2);
//! stats.executions += 1;
//! stats.spans.record(SpanKind::Execution, 12_345);
//! stats.yields.record(0, YieldOutcome::Executed);
//!
//! // …and merges at a sync point.
//! telemetry.merge_shard(0, &stats, 1);
//! telemetry.emit(&Event::NewCoverage { shard: 0, executions: 1, covered: 3, total: 8, t: 0.1 });
//!
//! assert!(telemetry.prometheus_text().contains("cftcg_executions_total 1"));
//! ```

mod event;
mod histogram;
pub mod html;
pub mod json;
mod series;
mod span;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use event::{Event, PlateauGoal, YieldReport, PLATEAU_FRONTIER_CAP};
pub use histogram::{Histogram, BUCKETS};
pub use html::escape_html;
pub use series::{SeriesPoint, SeriesRing};
pub use span::{
    SpanKind, SpanReport, SpanSampler, SpanStats, SpanTrace, TraceEvent, COORDINATOR_TID,
};

/// What a candidate execution attributed to a mutation operator achieved —
/// the outcome axis of the [`YieldMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldOutcome {
    /// The candidate ran (every attributed execution lands here).
    Executed,
    /// The candidate covered at least one new (shard-local) branch.
    NewCoverage,
    /// The candidate was committed to the corpus (append or replace).
    CorpusInsert,
    /// The candidate first witnessed an assertion violation.
    Violation,
}

impl YieldOutcome {
    /// Number of outcome classes.
    pub const COUNT: usize = 4;

    /// All outcomes, in matrix-column order.
    pub const ALL: [YieldOutcome; YieldOutcome::COUNT] = [
        YieldOutcome::Executed,
        YieldOutcome::NewCoverage,
        YieldOutcome::CorpusInsert,
        YieldOutcome::Violation,
    ];

    /// Stable snake_case label (Prometheus `outcome` label value).
    pub fn name(self) -> &'static str {
        match self {
            YieldOutcome::Executed => "executed",
            YieldOutcome::NewCoverage => "new_coverage",
            YieldOutcome::CorpusInsert => "corpus_insert",
            YieldOutcome::Violation => "violation",
        }
    }

    /// The outcome's column index.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The per-operator × per-outcome yield matrix: for every mutation
/// operator, how many attributed candidate executions reached each
/// [`YieldOutcome`]. Its merge is element-wise addition, commutative and
/// associative, so it rides the shard merge machinery unchanged.
///
/// The operator index space is defined by the caller (the fuzz crate maps
/// its `MutationKind` table onto `0..n`); labels are attached once via
/// [`Telemetry::set_operator_labels`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct YieldMatrix {
    rows: Vec<[u64; YieldOutcome::COUNT]>,
}

impl YieldMatrix {
    /// A zeroed matrix with `n` operator rows.
    pub fn new(n: usize) -> Self {
        YieldMatrix { rows: vec![[0; YieldOutcome::COUNT]; n] }
    }

    /// Number of operator rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no operator rows exist.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Records one outcome for operator `operator`.
    #[inline]
    pub fn record(&mut self, operator: usize, outcome: YieldOutcome) {
        self.rows[operator][outcome.index()] += 1;
    }

    /// One cell of the matrix (0 for out-of-range rows).
    pub fn get(&self, operator: usize, outcome: YieldOutcome) -> u64 {
        self.rows.get(operator).map_or(0, |row| row[outcome.index()])
    }

    /// Column total across every operator.
    pub fn total(&self, outcome: YieldOutcome) -> u64 {
        self.rows.iter().map(|row| row[outcome.index()]).sum()
    }

    /// Folds another matrix into this one, growing if needed.
    pub fn merge_from(&mut self, other: &YieldMatrix) {
        if other.len() > self.len() {
            self.rows.resize(other.len(), [0; YieldOutcome::COUNT]);
        }
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
    }

    /// The matrix as reportable rows, row `i` under the `i`-th label
    /// (rows the matrix lacks read as zero).
    pub fn reports<'a>(&self, labels: impl IntoIterator<Item = &'a str>) -> Vec<YieldReport> {
        labels
            .into_iter()
            .enumerate()
            .map(|(i, name)| YieldReport {
                name: name.to_string(),
                executed: self.get(i, YieldOutcome::Executed),
                new_coverage: self.get(i, YieldOutcome::NewCoverage),
                corpus_insert: self.get(i, YieldOutcome::CorpusInsert),
                violation: self.get(i, YieldOutcome::Violation),
            })
            .collect()
    }
}

/// One corpus entry's scheduling forensics, published wholesale by the
/// owning shard at sync points (a gauge set, not a counter stream): how
/// often the seed was selected as a mutation base, how many of its mutants
/// were committed, the goal yield of its whole descendant subtree, and its
/// current energy/age in the schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorpusSeedReport {
    /// Stable lineage id of the retained input.
    pub id: u64,
    /// Input size in bytes.
    pub size_bytes: u64,
    /// Its iteration-difference metric.
    pub metric: u64,
    /// Branches newly covered when it was committed.
    pub new_branches: u64,
    /// Current energy (selection ticket weight).
    pub energy: u64,
    /// Times selected as a mutation base.
    pub selections: u64,
    /// Direct children committed to the corpus or emitted as cases.
    pub children: u64,
    /// New branches earned by the seed's descendants (transitive).
    pub descendant_goals: u64,
    /// Shard executions elapsed since the entry was committed.
    pub age_executions: u64,
}

/// The most recent plateau the registry saw (from a [`Event::Plateau`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PlateauSummary {
    /// Seconds since campaign start when the plateau fired.
    pub t: f64,
    /// Executions completed when the plateau fired.
    pub executions: u64,
    /// Open goals at the time of the plateau.
    pub open: u64,
}

/// One shard's locally owned metrics. Plain data, no locks: the owning
/// worker increments fields directly and hands each window of them to
/// [`Telemetry::merge_shard`] at sync points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Inputs executed.
    pub executions: u64,
    /// Model iterations executed: input ticks, resumed prefixes included.
    pub iterations: u64,
    /// Input ticks not re-run because the input resumed from its corpus
    /// parent's checkpoint (a subset of `iterations`).
    pub resumed_ticks: u64,
    /// Inputs that found new (shard-local) coverage.
    pub discoveries: u64,
    /// Corpus insertions (appends and replacements).
    pub corpus_inserts: u64,
    /// Corpus replacements (an older entry was evicted).
    pub corpus_evictions: u64,
    /// Mutation stacking depth per generated candidate.
    pub mutation_depth: Histogram,
    /// Per-operator × per-outcome mutation yield.
    pub yields: YieldMatrix,
    /// Span-based self-profiling: per-phase wall-clock attribution
    /// (recorded only when a telemetry handle or trace buffer is attached).
    /// Its [`SpanKind::Execution`] histogram is the per-input execution
    /// latency and its [`SpanKind::SyncRound`] histogram the coordinator's
    /// sync-round cost.
    pub spans: SpanStats,
}

impl ShardStats {
    /// Fresh stats with `operator_count` attribution slots.
    pub fn new(operator_count: usize) -> Self {
        ShardStats { yields: YieldMatrix::new(operator_count), ..Default::default() }
    }

    /// Folds another stats block into this one.
    pub fn merge_from(&mut self, other: &ShardStats) {
        self.executions += other.executions;
        self.iterations += other.iterations;
        self.resumed_ticks += other.resumed_ticks;
        self.discoveries += other.discoveries;
        self.corpus_inserts += other.corpus_inserts;
        self.corpus_evictions += other.corpus_evictions;
        self.mutation_depth.merge_from(&other.mutation_depth);
        self.yields.merge_from(&other.yields);
        self.spans.merge_from(&other.spans);
    }
}

/// A consistent point-in-time copy of the registry's merged state.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Campaign-wide merged stats.
    pub totals: ShardStats,
    /// Branches covered (from the latest coverage-bearing event).
    pub covered: usize,
    /// Total branch probes.
    pub branch_count: usize,
    /// Total corpus entries across shards (latest reports).
    pub corpus_size: u64,
    /// Wall-clock time since the registry was created.
    pub elapsed: Duration,
    /// Most recent per-shard execution rates (executions per second).
    pub shard_rates: Vec<f64>,
    /// Per-shard share of span-attributed wall-clock spent blocked on sync
    /// rounds, percent (0 for shards that never synced).
    pub shard_sync_pct: Vec<f64>,
    /// Operator labels (parallel to the rows of `totals.yields`).
    pub operator_labels: Vec<String>,
    /// Distinct assertions first witnessed campaign-wide: one per
    /// [`Event::Violation`] the campaign fold emitted.
    pub violations: u64,
    /// Most recent coordinator sync-round cost, milliseconds.
    pub last_sync_ms: f64,
    /// Native code bytes resident in the JIT cache, when the JIT tier ran.
    pub jit_code_bytes: Option<u64>,
    /// JIT compilation wall-clock cost in nanoseconds, when the tier ran.
    pub jit_compile_ns: Option<u64>,
    /// The retained coverage/throughput time series, oldest first.
    pub series: Vec<SeriesPoint>,
    /// Per-corpus-entry scheduling forensics, flattened across shards in
    /// shard order (empty until a shard publishes).
    pub corpus_seeds: Vec<CorpusSeedReport>,
    /// Plateau events witnessed so far.
    pub plateaus: u64,
    /// The most recent plateau, when one fired.
    pub last_plateau: Option<PlateauSummary>,
    /// The "hottest blocks" report: per-kind profiled cost, sorted by total
    /// attributed time descending (ties broken by kind name). Empty unless
    /// a profiled replay merged its [`Telemetry::merge_block_cost`] data.
    pub block_costs: Vec<BlockCost>,
    /// Every block kind's profiled latency distribution, merged.
    pub block_ns: Histogram,
}

impl TelemetrySnapshot {
    /// The mutation-yield matrix as reportable rows (one per operator).
    pub fn yield_reports(&self) -> Vec<YieldReport> {
        self.totals.yields.reports(self.operator_labels.iter().map(String::as_str))
    }

    /// Covered branches as a percentage of all probes (0 without probes).
    pub fn coverage_pct(&self) -> f64 {
        if self.branch_count == 0 {
            0.0
        } else {
            100.0 * self.covered as f64 / self.branch_count as f64
        }
    }

    /// The current execution rate: the latest series window's when one was
    /// sampled, the whole-campaign average otherwise.
    pub fn execs_per_sec(&self) -> f64 {
        let elapsed_s = self.elapsed.as_secs_f64();
        match self.series.last() {
            Some(point) => point.execs_per_sec,
            None if elapsed_s > 0.0 => self.totals.executions as f64 / elapsed_s,
            None => 0.0,
        }
    }

    /// Branch goals attained per wall-clock second.
    pub fn goals_per_second(&self) -> f64 {
        self.covered as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Branch goals attained per nanosecond spent mutating (joins the span
    /// profile: the mutation-phase histogram sum is the denominator).
    /// `None` until mutation spans were recorded.
    pub fn goals_per_mutation_ns(&self) -> Option<f64> {
        let mutation_ns = self.totals.spans.histogram(SpanKind::Mutation).sum();
        if mutation_ns == 0 {
            return None;
        }
        Some(self.covered as f64 / mutation_ns as f64)
    }
}

struct ShardCell {
    executions: u64,
    corpus_len: usize,
    last_merge: Option<Duration>,
    rate: f64,
    /// Cumulative nanoseconds this shard spent blocked on sync rounds, and
    /// its total span-attributed nanoseconds — together the per-worker
    /// sync-wait share the parallel-scaling benchmarks report.
    sync_wait_ns: u64,
    span_ns: u64,
}

/// The JSONL sink is flushed whenever an event lands and this much time
/// passed since the last flush, so `tail -f` of the file sink stays live.
const JSONL_FLUSH_EVERY: Duration = Duration::from_secs(1);

struct StatusSink {
    every: Duration,
    last: Option<Instant>,
    out: Box<dyn Write + Send>,
}

struct PromSink {
    path: PathBuf,
    every: Duration,
    last: Option<Instant>,
}

struct Inner {
    totals: ShardStats,
    shards: Vec<ShardCell>,
    covered: usize,
    branch_count: usize,
    violations: u64,
    last_sync_ms: f64,
    jsonl: Option<Box<dyn Write + Send>>,
    jsonl_last_flush: Option<Instant>,
    status: Option<StatusSink>,
    prom: Option<PromSink>,
    operator_labels: Vec<String>,
    /// Per-block-kind execution cost from profiled replays (`cftcg-trace`).
    /// A `BTreeMap` keeps reports and the Prometheus dump deterministic.
    block_costs: BTreeMap<String, KindCost>,
    /// Coverage/throughput time series, sampled on merge windows.
    series: SeriesRing,
    /// `(t_s, executions)` at the last retained series sample, for the
    /// windowed execution-rate estimate.
    series_last: Option<(f64, u64)>,
    jit_code_bytes: Option<u64>,
    jit_compile_ns: Option<u64>,
    /// Per-shard corpus scheduling forensics, replaced wholesale on publish.
    corpus_seeds: Vec<Vec<CorpusSeedReport>>,
    plateaus: u64,
    last_plateau: Option<PlateauSummary>,
}

/// The accumulated cost of one block kind across profiled replays — what a
/// replay profile (`cftcg-trace`) collects per kind and the registry merges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KindCost {
    /// Block executions observed.
    pub executions: u64,
    /// Total attributed wall-clock nanoseconds (subsystem containers are
    /// inclusive of their children, which are also counted individually).
    pub total_ns: u64,
    /// Per-execution latency distribution.
    pub ns: Histogram,
}

impl KindCost {
    /// Books one block execution that took `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.executions += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.ns.record(ns);
    }

    /// Folds another accumulator into this one (additive and commutative).
    pub fn merge_from(&mut self, other: &KindCost) {
        self.executions += other.executions;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.ns.merge_from(&other.ns);
    }

    /// The "hottest blocks" rows of `kinds`, sorted by total attributed
    /// time descending (ties broken by kind name).
    pub fn rows<'a>(kinds: impl IntoIterator<Item = (&'a str, &'a KindCost)>) -> Vec<BlockCost> {
        let mut rows: Vec<BlockCost> = kinds
            .into_iter()
            .map(|(kind, cost)| BlockCost {
                kind: kind.to_string(),
                executions: cost.executions,
                total_ns: cost.total_ns,
                mean_ns: if cost.executions > 0 {
                    cost.total_ns as f64 / cost.executions as f64
                } else {
                    0.0
                },
                p99_ns: cost.ns.quantile_upper_bound(0.99),
            })
            .collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.kind.cmp(&b.kind)));
        rows
    }
}

/// One row of the "hottest blocks" report: accumulated cost of a block
/// kind across profiled replays.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCost {
    /// The block kind's tag (e.g. `Gain`, `Chart`, `Subsystem`).
    pub kind: String,
    /// Block executions observed.
    pub executions: u64,
    /// Total attributed wall-clock nanoseconds.
    pub total_ns: u64,
    /// Mean nanoseconds per execution.
    pub mean_ns: f64,
    /// Upper bound of the 99th-percentile latency bucket.
    pub p99_ns: u64,
}

/// The shared metrics registry and sink multiplexer.
///
/// Cheap to share (`Arc<Telemetry>`); every method takes `&self`. With no
/// sinks attached the registry is a passive accumulator — queries like
/// [`Telemetry::snapshot`] and [`Telemetry::prometheus_text`] work either
/// way.
pub struct Telemetry {
    started: Instant,
    has_jsonl: AtomicBool,
    /// Settings of the observers that report through this registry, fixed
    /// at construction.
    span_trace: Option<SpanTrace>,
    plateau_window: Option<u64>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("jsonl", &self.has_jsonl.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A registry with no sinks attached.
    pub fn new() -> Self {
        Telemetry {
            started: Instant::now(),
            has_jsonl: AtomicBool::new(false),
            span_trace: None,
            plateau_window: None,
            inner: Mutex::new(Inner {
                totals: ShardStats::default(),
                shards: Vec::new(),
                covered: 0,
                branch_count: 0,
                violations: 0,
                last_sync_ms: 0.0,
                jsonl: None,
                jsonl_last_flush: None,
                status: None,
                prom: None,
                operator_labels: Vec::new(),
                block_costs: BTreeMap::new(),
                series: SeriesRing::default(),
                series_last: None,
                jit_code_bytes: None,
                jit_compile_ns: None,
                corpus_seeds: Vec::new(),
                plateaus: 0,
                last_plateau: None,
            }),
        }
    }

    /// Attaches a JSONL event-log writer (one [`Event`] per line). Callers
    /// should hand in a buffered writer for file sinks; [`Telemetry::flush`]
    /// and campaign end force the buffer out.
    pub fn with_jsonl(self, writer: impl Write + Send + 'static) -> Self {
        self.has_jsonl.store(true, Ordering::Relaxed);
        self.lock().jsonl = Some(Box::new(writer));
        self
    }

    /// Attaches the periodic status line, written to stderr.
    pub fn with_status(self, every: Duration) -> Self {
        self.with_status_to(every, std::io::stderr())
    }

    /// Attaches the periodic status line with a custom writer (tests).
    pub fn with_status_to(self, every: Duration, out: impl Write + Send + 'static) -> Self {
        self.lock().status = Some(StatusSink { every, last: None, out: Box::new(out) });
        self
    }

    /// Attaches a live Prometheus file sink: the full text exposition is
    /// rewritten to `path` on every elapsed `every` (checked at tick
    /// points) and once more at [`Telemetry::flush`], so file-based
    /// scrapers see the campaign while it runs — not only at exit.
    pub fn with_prom_file(self, path: impl Into<PathBuf>, every: Duration) -> Self {
        self.lock().prom = Some(PromSink { path: path.into(), every, last: None });
        self
    }

    /// Attaches a span-trace buffer: the fuzzing loop also records sampled
    /// per-phase trace events (mutation, execution, sync, ...) into it for
    /// Chrome-trace export. Like every observer it leaves the fuzzing
    /// trajectory unchanged.
    pub fn with_span_trace(mut self, trace: SpanTrace) -> Self {
        self.span_trace = Some(trace);
        self
    }

    /// The attached span-trace buffer, if any.
    pub fn span_trace(&self) -> Option<&SpanTrace> {
        self.span_trace.as_ref()
    }

    /// Arms the plateau watcher: a `plateau` event fires — with a frontier
    /// diff naming the still-open goals — every time `window` executions
    /// pass without a coverage gain. Pure integer bookkeeping in the
    /// campaign fold; the fuzzing trajectory is unchanged.
    pub fn with_plateau_window(mut self, window: u64) -> Self {
        self.plateau_window = Some(window);
        self
    }

    /// The plateau-watch window, in executions, if one is armed.
    pub fn plateau_window(&self) -> Option<u64> {
        self.plateau_window
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Telemetry must never take the engine down: a poisoned registry
        // (a panic while holding the lock) keeps serving the sane parts.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Seconds since the registry was created — the `t` timestamp base for
    /// every event.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Names the operator-attribution slots (idempotent; first caller with
    /// a non-empty list wins).
    pub fn set_operator_labels(&self, labels: &[&str]) {
        let mut inner = self.lock();
        if inner.operator_labels.is_empty() {
            inner.operator_labels = labels.iter().map(|s| (*s).to_string()).collect();
        }
    }

    /// Appends an event to the JSONL log (if attached) and folds any gauges
    /// the event carries (coverage totals, violation count, sync lag) into
    /// the registry so the status line and Prometheus dump stay current.
    pub fn emit(&self, event: &Event) {
        let mut inner = self.lock();
        match event {
            Event::CampaignStart { branch_count, .. } => inner.branch_count = *branch_count,
            Event::NewCoverage { covered, total, .. } => {
                inner.covered = inner.covered.max(*covered);
                inner.branch_count = *total;
            }
            Event::Violation { .. } => inner.violations += 1,
            Event::Plateau { executions, open, t, .. } => {
                inner.plateaus += 1;
                inner.last_plateau =
                    Some(PlateauSummary { t: *t, executions: *executions, open: *open });
            }
            Event::SyncRound { duration_ms, covered, total, .. } => {
                inner.last_sync_ms = *duration_ms;
                inner.covered = inner.covered.max(*covered);
                inner.branch_count = *total;
                inner.totals.spans.record(SpanKind::SyncRound, (duration_ms * 1e6) as u64);
            }
            _ => {}
        }
        let flush_due =
            inner.jsonl_last_flush.is_none_or(|at: Instant| at.elapsed() >= JSONL_FLUSH_EVERY);
        if let Some(w) = &mut inner.jsonl {
            let _ = writeln!(w, "{}", event.to_json());
            // Bounded-interval flush so `tail -f` of the event log works
            // during a campaign, not only after the sink drops.
            if flush_due {
                let _ = w.flush();
                inner.jsonl_last_flush = Some(Instant::now());
            }
        }
    }

    /// Folds one window of a shard's stats (booked since its previous
    /// merge) into the campaign totals and updates that shard's
    /// execution-rate estimate and corpus gauge.
    pub fn merge_shard(&self, shard: usize, delta: &ShardStats, corpus_len: usize) {
        let now = self.started.elapsed();
        let mut inner = self.lock();
        inner.totals.merge_from(delta);
        if inner.shards.len() <= shard {
            inner.shards.resize_with(shard + 1, || ShardCell {
                executions: 0,
                corpus_len: 0,
                last_merge: None,
                rate: 0.0,
                sync_wait_ns: 0,
                span_ns: 0,
            });
        }
        let cell = &mut inner.shards[shard];
        cell.executions += delta.executions;
        cell.corpus_len = corpus_len;
        cell.sync_wait_ns += delta.spans.total_ns(SpanKind::SyncWait);
        cell.span_ns += SpanKind::ALL.iter().map(|&k| delta.spans.total_ns(k)).sum::<u64>();
        if let Some(last) = cell.last_merge {
            let window = (now - last).as_secs_f64();
            if window > 1e-6 {
                cell.rate = delta.executions as f64 / window;
            }
        } else if now.as_secs_f64() > 1e-6 {
            cell.rate = delta.executions as f64 / now.as_secs_f64();
        }
        cell.last_merge = Some(now);
        sample_series(&mut inner, now.as_secs_f64());
    }

    /// The periodic maintenance tick: writes the AFL-style status line if
    /// the status sink is attached and its period elapsed (or `force` is
    /// set), rewrites the live Prometheus file if one is attached and due,
    /// and flushes the JSONL sink. Rate-limited internally, so callers can
    /// invoke it once per batch/round without bookkeeping.
    pub fn status_tick(&self, force: bool) {
        let elapsed = self.started.elapsed();
        let mut status_written = false;
        {
            let mut inner = self.lock();
            let status_due = match &inner.status {
                None => false,
                Some(status) => {
                    force || status.last.is_none_or(|at: Instant| at.elapsed() >= status.every)
                }
            };
            if status_due {
                let line = render_status(&snapshot_of(&inner, elapsed));
                if let Some(status) = &mut inner.status {
                    let _ = writeln!(status.out, "{line}");
                    let _ = status.out.flush();
                    status.last = Some(Instant::now());
                }
                if let Some(w) = &mut inner.jsonl {
                    let _ = w.flush();
                    inner.jsonl_last_flush = Some(Instant::now());
                }
                status_written = true;
            }
        }
        if status_written {
            self.emit_span_summary();
        }
        self.prom_tick(force);
    }

    /// Rewrites the Prometheus file sink if attached and due. The text is
    /// rendered outside the registry lock ([`Telemetry::prometheus_text`]
    /// snapshots internally).
    fn prom_tick(&self, force: bool) {
        let path = {
            let mut inner = self.lock();
            let Some(prom) = &mut inner.prom else { return };
            let due = force || prom.last.is_none_or(|at: Instant| at.elapsed() >= prom.every);
            if !due {
                return;
            }
            prom.last = Some(Instant::now());
            prom.path.clone()
        };
        let _ = std::fs::write(&path, self.prometheus_text());
    }

    /// Emits a [`Event::SpanSummary`] to the JSONL sink (no-op when no
    /// sink is attached or no span has been recorded yet).
    pub fn emit_span_summary(&self) {
        if !self.has_jsonl.load(Ordering::Relaxed) {
            return;
        }
        let spans = self.lock().totals.spans.reports();
        if spans.is_empty() {
            return;
        }
        self.emit(&Event::SpanSummary { spans, t: self.elapsed_s() });
    }

    /// Records the JIT tier's compilation outcome: resident native code
    /// bytes (gauge) and compile wall-clock cost (gauge + a
    /// [`SpanKind::JitCompile`] span).
    pub fn set_jit_stats(&self, code_bytes: u64, compile_ns: u64) {
        let mut inner = self.lock();
        inner.jit_code_bytes = Some(code_bytes);
        inner.jit_compile_ns = Some(compile_ns);
        inner.totals.spans.record(SpanKind::JitCompile, compile_ns);
    }

    /// The retained coverage/throughput time series, oldest first.
    pub fn series_points(&self) -> Vec<SeriesPoint> {
        self.lock().series.points().to_vec()
    }

    /// Publishes one shard's per-corpus-entry scheduling forensics,
    /// replacing that shard's previous publication (gauges, not counters).
    pub fn set_corpus_seeds(&self, shard: usize, seeds: Vec<CorpusSeedReport>) {
        let mut inner = self.lock();
        if inner.corpus_seeds.len() <= shard {
            inner.corpus_seeds.resize_with(shard + 1, Vec::new);
        }
        inner.corpus_seeds[shard] = seeds;
    }

    /// Flushes every sink, emits a final span summary, and rewrites the
    /// Prometheus file if attached (call at campaign end).
    pub fn flush(&self) {
        self.emit_span_summary();
        {
            let mut inner = self.lock();
            let t_s = self.started.elapsed().as_secs_f64();
            sample_series(&mut inner, t_s);
            if let Some(w) = &mut inner.jsonl {
                let _ = w.flush();
            }
            if let Some(status) = &mut inner.status {
                let _ = status.out.flush();
            }
        }
        self.prom_tick(true);
    }

    /// Folds one block kind's profiled cost into the registry (additive and
    /// commutative, like shard merging).
    pub fn merge_block_cost(&self, kind: &str, cost: &KindCost) {
        self.lock().block_costs.entry(kind.to_string()).or_default().merge_from(cost);
    }

    /// A point-in-time copy of the merged state.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let elapsed = self.started.elapsed();
        snapshot_of(&self.lock(), elapsed)
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (counters, gauges, the labeled per-operator yield matrix, and the three
    /// histograms with cumulative `le` buckets).
    pub fn prometheus_text(&self) -> String {
        let snapshot = self.snapshot();
        let t = &snapshot.totals;
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
        };
        counter("cftcg_executions_total", "Inputs executed", t.executions);
        counter("cftcg_iterations_total", "Model iterations executed", t.iterations);
        counter(
            "cftcg_resumed_ticks_total",
            "Input ticks resumed from a corpus parent's checkpoint instead of re-run",
            t.resumed_ticks,
        );
        counter("cftcg_discoveries_total", "Inputs that found new coverage", t.discoveries);
        counter(
            "cftcg_violations_total",
            "Distinct assertions first witnessed campaign-wide",
            snapshot.violations,
        );
        counter("cftcg_corpus_inserts_total", "Corpus insertions", t.corpus_inserts);
        counter("cftcg_corpus_evictions_total", "Corpus replacements", t.corpus_evictions);

        out.push_str("# HELP cftcg_covered_branches Branches covered so far\n");
        out.push_str("# TYPE cftcg_covered_branches gauge\n");
        out.push_str(&format!("cftcg_covered_branches {}\n", snapshot.covered));
        out.push_str("# HELP cftcg_branch_count Total branch probes\n");
        out.push_str("# TYPE cftcg_branch_count gauge\n");
        out.push_str(&format!("cftcg_branch_count {}\n", snapshot.branch_count));
        out.push_str("# HELP cftcg_corpus_size Retained corpus entries across shards\n");
        out.push_str("# TYPE cftcg_corpus_size gauge\n");
        out.push_str(&format!("cftcg_corpus_size {}\n", snapshot.corpus_size));
        out.push_str("# HELP cftcg_shard_execs_per_second Latest per-shard execution rate\n");
        out.push_str("# TYPE cftcg_shard_execs_per_second gauge\n");
        for (shard, rate) in snapshot.shard_rates.iter().enumerate() {
            out.push_str(&format!("cftcg_shard_execs_per_second{{shard=\"{shard}\"}} {rate:.1}\n"));
        }
        out.push_str("# HELP cftcg_frontier_open_branches Open branch goals (uncovered probes)\n");
        out.push_str("# TYPE cftcg_frontier_open_branches gauge\n");
        out.push_str(&format!(
            "cftcg_frontier_open_branches {}\n",
            snapshot.branch_count.saturating_sub(snapshot.covered)
        ));
        out.push_str(
            "# HELP cftcg_execs_per_second Execution rate over the latest series window\n",
        );
        out.push_str("# TYPE cftcg_execs_per_second gauge\n");
        out.push_str(&format!("cftcg_execs_per_second {:.1}\n", snapshot.execs_per_sec()));
        out.push_str("# HELP cftcg_series_points Retained coverage time-series samples\n");
        out.push_str("# TYPE cftcg_series_points gauge\n");
        out.push_str(&format!("cftcg_series_points {}\n", snapshot.series.len()));
        if let Some(bytes) = snapshot.jit_code_bytes {
            out.push_str(
                "# HELP cftcg_jit_code_bytes Native code bytes resident in the JIT cache\n",
            );
            out.push_str("# TYPE cftcg_jit_code_bytes gauge\n");
            out.push_str(&format!("cftcg_jit_code_bytes {bytes}\n"));
        }
        if let Some(ns) = snapshot.jit_compile_ns {
            out.push_str("# HELP cftcg_jit_compile_ns JIT compilation wall-clock cost (ns)\n");
            out.push_str("# TYPE cftcg_jit_compile_ns gauge\n");
            out.push_str(&format!("cftcg_jit_compile_ns {ns}\n"));
        }

        // The mutation-yield matrix: one labeled counter series per
        // operator × outcome cell, in stable (operator, outcome) order.
        out.push_str(
            "# HELP cftcg_mutation_yield Candidate executions per mutation operator and outcome\n",
        );
        out.push_str("# TYPE cftcg_mutation_yield counter\n");
        for (i, name) in snapshot.operator_labels.iter().enumerate() {
            for outcome in YieldOutcome::ALL {
                out.push_str(&format!(
                    "cftcg_mutation_yield{{kind=\"{name}\",outcome=\"{}\"}} {}\n",
                    outcome.name(),
                    snapshot.totals.yields.get(i, outcome)
                ));
            }
        }
        out.push_str("# HELP cftcg_goals_per_second Branch goals attained per wall-clock second\n");
        out.push_str("# TYPE cftcg_goals_per_second gauge\n");
        out.push_str(&format!("cftcg_goals_per_second {:.4}\n", snapshot.goals_per_second()));
        if let Some(rate) = snapshot.goals_per_mutation_ns() {
            out.push_str(
                "# HELP cftcg_goals_per_mutation_ns Branch goals attained per ns spent mutating\n",
            );
            out.push_str("# TYPE cftcg_goals_per_mutation_ns gauge\n");
            out.push_str(&format!("cftcg_goals_per_mutation_ns {rate:.6e}\n"));
        }
        out.push_str("# HELP cftcg_plateaus_total Plateau events witnessed\n");
        out.push_str("# TYPE cftcg_plateaus_total counter\n");
        out.push_str(&format!("cftcg_plateaus_total {}\n", snapshot.plateaus));

        let blocks = &snapshot.block_costs;
        if !blocks.is_empty() {
            out.push_str("# HELP cftcg_block_executions_total Profiled block executions by kind\n");
            out.push_str("# TYPE cftcg_block_executions_total counter\n");
            for row in blocks {
                out.push_str(&format!(
                    "cftcg_block_executions_total{{kind=\"{}\"}} {}\n",
                    row.kind, row.executions
                ));
            }
            out.push_str(
                "# HELP cftcg_block_exec_ns_total Profiled wall-clock ns attributed by block kind\n",
            );
            out.push_str("# TYPE cftcg_block_exec_ns_total counter\n");
            for row in blocks {
                out.push_str(&format!(
                    "cftcg_block_exec_ns_total{{kind=\"{}\"}} {}\n",
                    row.kind, row.total_ns
                ));
            }
        }

        for (name, help, histogram) in [
            (
                "cftcg_exec_latency_ns",
                "Per-input execution latency (ns)",
                t.spans.histogram(SpanKind::Execution),
            ),
            ("cftcg_mutation_depth", "Stacked mutations per candidate", &t.mutation_depth),
            (
                "cftcg_sync_duration_ns",
                "Coordinator sync-round cost (ns)",
                t.spans.histogram(SpanKind::SyncRound),
            ),
            (
                "cftcg_block_exec_ns",
                "Profiled per-block execution latency (ns)",
                &snapshot.block_ns,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            for (le, cumulative) in histogram.cumulative_buckets() {
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", histogram.count()));
            out.push_str(&format!("{name}_sum {}\n", histogram.sum()));
            out.push_str(&format!("{name}_count {}\n", histogram.count()));
        }

        // Span self-profiling: one labeled histogram family, one series per
        // non-empty span kind.
        out.push_str(
            "# HELP cftcg_span_ns Wall-clock attribution per engine phase (ns)\n# TYPE cftcg_span_ns histogram\n",
        );
        for kind in SpanKind::ALL {
            let histogram = t.spans.histogram(kind);
            if histogram.is_empty() {
                continue;
            }
            let label = kind.name();
            for (le, cumulative) in histogram.cumulative_buckets() {
                out.push_str(&format!(
                    "cftcg_span_ns_bucket{{kind=\"{label}\",le=\"{le}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "cftcg_span_ns_bucket{{kind=\"{label}\",le=\"+Inf\"}} {}\n",
                histogram.count()
            ));
            out.push_str(&format!("cftcg_span_ns_sum{{kind=\"{label}\"}} {}\n", histogram.sum()));
            out.push_str(&format!(
                "cftcg_span_ns_count{{kind=\"{label}\"}} {}\n",
                histogram.count()
            ));
        }
        out
    }
}

/// The registry's merged state as a [`TelemetrySnapshot`]: every view
/// (status line, Prometheus, `/snapshot`, dashboard) renders from one.
fn snapshot_of(inner: &Inner, elapsed: Duration) -> TelemetrySnapshot {
    let block_costs = KindCost::rows(inner.block_costs.iter().map(|(k, c)| (k.as_str(), c)));
    let mut block_ns = Histogram::new();
    for cell in inner.block_costs.values() {
        block_ns.merge_from(&cell.ns);
    }
    TelemetrySnapshot {
        totals: inner.totals.clone(),
        covered: inner.covered,
        branch_count: inner.branch_count,
        corpus_size: inner.shards.iter().map(|s| s.corpus_len as u64).sum(),
        elapsed,
        shard_rates: inner.shards.iter().map(|s| s.rate).collect(),
        shard_sync_pct: inner
            .shards
            .iter()
            .map(|s| {
                if s.span_ns == 0 {
                    0.0
                } else {
                    100.0 * s.sync_wait_ns as f64 / s.span_ns as f64
                }
            })
            .collect(),
        operator_labels: inner.operator_labels.clone(),
        violations: inner.violations,
        last_sync_ms: inner.last_sync_ms,
        jit_code_bytes: inner.jit_code_bytes,
        jit_compile_ns: inner.jit_compile_ns,
        series: inner.series.points().to_vec(),
        corpus_seeds: inner.corpus_seeds.iter().flatten().cloned().collect(),
        plateaus: inner.plateaus,
        last_plateau: inner.last_plateau.clone(),
        block_costs,
        block_ns,
    }
}

/// Offers one time-series sample built from the registry's merged state.
/// The ring rate-limits and compacts internally, so this is safe to call on
/// every merge window.
fn sample_series(inner: &mut Inner, t_s: f64) {
    let executions = inner.totals.executions;
    let execs_per_sec = match inner.series_last {
        Some((last_t, last_execs)) if t_s - last_t > 1e-6 => {
            executions.saturating_sub(last_execs) as f64 / (t_s - last_t)
        }
        _ if t_s > 1e-6 => executions as f64 / t_s,
        _ => 0.0,
    };
    let point = SeriesPoint {
        t_s,
        executions,
        covered: inner.covered,
        branch_count: inner.branch_count,
        corpus: inner.shards.iter().map(|s| s.corpus_len as u64).sum(),
        frontier_open: inner.branch_count.saturating_sub(inner.covered),
        execs_per_sec,
    };
    if inner.series.offer(point) {
        inner.series_last = Some((t_s, executions));
    }
}

/// Renders the one-line status summary.
fn render_status(snap: &TelemetrySnapshot) -> String {
    let t = &snap.totals;
    let mut line = format!(
        "[{:8.1}s] execs {} ({}/s)",
        snap.elapsed.as_secs_f64(),
        group_digits(t.executions),
        group_digits(snap.execs_per_sec() as u64)
    );
    if snap.shard_rates.len() > 1 {
        let min = snap.shard_rates.iter().copied().fold(f64::INFINITY, f64::min);
        let max = snap.shard_rates.iter().copied().fold(0.0f64, f64::max);
        line.push_str(&format!(
            " | shards {}x ({}-{}/s)",
            snap.shard_rates.len(),
            group_digits(min as u64),
            group_digits(max as u64)
        ));
    }
    line.push_str(&format!(
        " | corpus {} | branches {}/{} {:.1}% | viols {}",
        snap.corpus_size,
        snap.covered,
        snap.branch_count,
        snap.coverage_pct(),
        snap.violations
    ));
    if snap.last_sync_ms > 0.0 {
        line.push_str(&format!(" | sync {:.1}ms", snap.last_sync_ms));
    }
    let exec_ns = t.spans.histogram(SpanKind::Execution);
    if !exec_ns.is_empty() {
        // The latency is a histogram bucket's upper bound.
        line.push_str(&format!(" | p50 exec ≤{}", format_ns(exec_ns.quantile_upper_bound(0.5))));
    }
    line
}

/// `1234567` → `"1,234,567"`.
fn group_digits(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// Human-scale duration: picks ns/µs/ms/s by magnitude (`"512ns"`,
/// `"8.2µs"`, `"1.0ms"`, `"3.21s"`).
pub fn format_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Host metadata as a JSON object string — core count, target architecture
/// and an optional budget — so benchmark artifacts are self-describing.
pub fn host_metadata_json(budget_ms: Option<u64>) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let arch = std::env::consts::ARCH;
    let budget = budget_ms.map_or_else(|| "null".to_string(), |ms| ms.to_string());
    format!("{{\"cores\": {cores}, \"arch\": \"{arch}\", \"budget_ms\": {budget}}}")
}

/// A thread-safe shared byte buffer usable as a sink in tests and in-memory
/// campaigns: `SharedBuf::new()` clones share one underlying `Vec<u8>`.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffered bytes as a UTF-8 string (lossy).
    pub fn contents(&self) -> String {
        let buf = self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        String::from_utf8_lossy(&buf).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_shard_accumulates_and_tracks_rates() {
        let t = Telemetry::new();
        let mut a = ShardStats::new(2);
        a.executions = 100;
        a.iterations = 1_000;
        a.yields.record(0, YieldOutcome::Executed);
        a.yields.record(0, YieldOutcome::NewCoverage);
        let mut b = ShardStats::new(2);
        b.executions = 50;
        b.yields.record(1, YieldOutcome::Executed);
        t.merge_shard(0, &a, 10);
        t.merge_shard(1, &b, 20);
        let snap = t.snapshot();
        assert_eq!(snap.totals.executions, 150);
        assert_eq!(snap.totals.iterations, 1_000);
        assert_eq!(snap.corpus_size, 30);
        assert_eq!(snap.shard_rates.len(), 2);
        let column = |outcome| [0, 1].map(|i| snap.totals.yields.get(i, outcome));
        assert_eq!(column(YieldOutcome::Executed), [1, 1]);
        assert_eq!(column(YieldOutcome::NewCoverage), [1, 0]);
    }

    #[test]
    fn emit_updates_gauges_and_writes_jsonl() {
        let buf = SharedBuf::new();
        let t = Telemetry::new().with_jsonl(buf.clone());
        t.emit(&Event::NewCoverage { shard: 0, executions: 5, covered: 3, total: 10, t: 0.1 });
        t.emit(&Event::Violation { shard: 0, assertion: 1, label: "a".into(), t: 0.2 });
        t.flush();
        let snap = t.snapshot();
        assert_eq!(snap.covered, 3);
        assert_eq!(snap.branch_count, 10);
        assert_eq!(snap.violations, 1, "the violation event is the one violations count");
        let contents = buf.contents();
        let lines: Vec<&str> = contents.lines().map(str::trim).collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            json::Json::parse(line).expect("every JSONL line parses");
        }
    }

    #[test]
    fn status_line_renders_all_sections() {
        let buf = SharedBuf::new();
        let t = Telemetry::new().with_status_to(Duration::from_millis(0), buf.clone());
        let mut stats = ShardStats::new(1);
        stats.executions = 1_234;
        stats.spans.record(SpanKind::Execution, 5_000);
        t.merge_shard(0, &stats, 17);
        t.emit(&Event::NewCoverage { shard: 0, executions: 10, covered: 4, total: 8, t: 0.1 });
        t.status_tick(true);
        let line = buf.contents();
        assert!(line.contains("execs 1,234"), "{line}");
        assert!(line.contains("corpus 17"), "{line}");
        assert!(line.contains("branches 4/8 50.0%"), "{line}");
        assert!(line.contains("p50 exec"), "{line}");
    }

    #[test]
    fn prometheus_dump_is_well_formed() {
        let t = Telemetry::new();
        t.set_operator_labels(&["EraseTuples", "InsertTuple"]);
        let mut stats = ShardStats::new(2);
        stats.executions = 7;
        stats.spans.record(SpanKind::Execution, 100);
        stats.yields.record(0, YieldOutcome::Executed);
        t.merge_shard(0, &stats, 3);
        let text = t.prometheus_text();
        assert!(text.contains("cftcg_executions_total 7"));
        assert!(text.contains("cftcg_mutation_yield{kind=\"EraseTuples\",outcome=\"executed\"} 1"));
        assert!(text.contains("cftcg_exec_latency_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("cftcg_exec_latency_ns_count 1"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad exposition line: {line}");
        }
    }

    #[test]
    fn prometheus_exposition_covers_span_gauge_and_series_families() {
        let t = Telemetry::new();
        let mut stats = ShardStats::new(0);
        stats.executions = 1_000;
        stats.spans.record(SpanKind::Mutation, 400);
        stats.spans.record(SpanKind::Execution, 3_000);
        stats.spans.record(SpanKind::Execution, 5_000);
        t.merge_shard(0, &stats, 4);
        t.emit(&Event::NewCoverage { shard: 0, executions: 10, covered: 30, total: 56, t: 0.1 });
        t.set_jit_stats(8_192, 250_000);
        let text = t.prometheus_text();

        // New gauge families.
        assert!(text.contains("# TYPE cftcg_frontier_open_branches gauge"), "{text}");
        assert!(text.contains("cftcg_frontier_open_branches 26"), "{text}");
        assert!(text.contains("# TYPE cftcg_execs_per_second gauge"), "{text}");
        assert!(text.contains("cftcg_jit_code_bytes 8192"), "{text}");
        assert!(text.contains("cftcg_jit_compile_ns 250000"), "{text}");
        // Time-series gauge: merge_shard sampled at least one point.
        assert!(text.contains("# TYPE cftcg_series_points gauge"), "{text}");
        assert!(text.contains("cftcg_series_points 1"), "{text}");

        // Labeled span histogram family: per-kind bucket/sum/count series,
        // cumulative buckets monotone, count consistent.
        assert!(text.contains("# TYPE cftcg_span_ns histogram"), "{text}");
        assert!(text.contains("cftcg_span_ns_count{kind=\"mutation\"} 1"), "{text}");
        assert!(text.contains("cftcg_span_ns_count{kind=\"execution\"} 2"), "{text}");
        assert!(text.contains("cftcg_span_ns_sum{kind=\"execution\"} 8000"), "{text}");
        assert!(text.contains("cftcg_span_ns_count{kind=\"jit_compile\"} 1"), "{text}");
        let exec_buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("cftcg_span_ns_bucket{kind=\"execution\""))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!exec_buckets.is_empty());
        assert!(exec_buckets.windows(2).all(|w| w[0] <= w[1]), "cumulative: {exec_buckets:?}");
        assert_eq!(*exec_buckets.last().unwrap(), 2, "+Inf bucket equals count");

        // Every non-comment line still parses as `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad exposition line: {line}");
        }
    }

    #[test]
    fn prom_file_sink_rewrites_live() {
        let dir = std::env::temp_dir().join(format!("cftcg-prom-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let t = Telemetry::new().with_prom_file(&path, Duration::from_millis(0));
        let mut stats = ShardStats::new(0);
        stats.executions = 5;
        t.merge_shard(0, &stats, 1);
        t.status_tick(false);
        let first = std::fs::read_to_string(&path).expect("prom file written mid-campaign");
        assert!(first.contains("cftcg_executions_total 5"), "{first}");
        stats.executions = 2;
        t.merge_shard(0, &stats, 1);
        t.status_tick(false);
        let second = std::fs::read_to_string(&path).unwrap();
        assert!(second.contains("cftcg_executions_total 7"), "rewritten live: {second}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_flushes_on_bounded_interval() {
        let buf = SharedBuf::new();
        // SharedBuf "flushes" on every write, so observe the interval logic
        // indirectly: events emitted inside and after the flush interval all
        // land, and stay parseable.
        let t = Telemetry::new().with_jsonl(buf.clone());
        for i in 0..3 {
            t.emit(&Event::SeedAdded { shard: 0, executions: i, t: i as f64 });
        }
        let contents = buf.contents();
        assert_eq!(contents.lines().count(), 3);
        for line in contents.lines() {
            json::Json::parse(line).expect("parses");
        }
    }

    #[test]
    fn span_summary_event_rides_the_jsonl_sink() {
        let buf = SharedBuf::new();
        let t = Telemetry::new().with_jsonl(buf.clone());
        let mut stats = ShardStats::new(0);
        stats.spans.record(SpanKind::Execution, 1_000);
        stats.spans.record(SpanKind::SyncWait, 9_000);
        t.merge_shard(0, &stats, 1);
        t.flush();
        let contents = buf.contents();
        let line = contents
            .lines()
            .find(|l| l.contains("span-summary"))
            .expect("flush emits a span summary");
        let parsed = json::Json::parse(line).unwrap();
        let spans = parsed.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("execution"));
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("sync_wait"));
        assert_eq!(spans[1].get("total_ns").unwrap().as_u64(), Some(9_000));
    }

    #[test]
    fn series_sampling_rides_merge_shard() {
        let t = Telemetry::new();
        t.emit(&Event::NewCoverage { shard: 0, executions: 1, covered: 8, total: 56, t: 0.0 });
        let mut stats = ShardStats::new(0);
        stats.executions = 100;
        t.merge_shard(0, &stats, 7);
        let points = t.series_points();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].executions, 100);
        assert_eq!(points[0].covered, 8);
        assert_eq!(points[0].frontier_open, 48);
        assert_eq!(points[0].corpus, 7);
    }

    #[test]
    fn host_metadata_is_json() {
        let meta = host_metadata_json(Some(3_000));
        let parsed = json::Json::parse(&meta).unwrap();
        assert!(parsed.get("cores").unwrap().as_u64().unwrap() >= 1);
        assert_eq!(parsed.get("budget_ms").unwrap().as_u64(), Some(3_000));
    }

    #[test]
    fn yield_matrix_merges_commutatively() {
        let mut a = YieldMatrix::new(2);
        a.record(0, YieldOutcome::Executed);
        a.record(0, YieldOutcome::NewCoverage);
        a.record(1, YieldOutcome::Executed);
        let mut b = YieldMatrix::new(3);
        b.record(2, YieldOutcome::Violation);
        b.record(0, YieldOutcome::Executed);

        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.get(0, YieldOutcome::Executed), 2);
        assert_eq!(ab.get(2, YieldOutcome::Violation), 1);
        assert_eq!(ab.total(YieldOutcome::Executed), 3);
    }

    #[test]
    fn mutation_yield_family_rides_the_exposition() {
        let t = Telemetry::new();
        t.set_operator_labels(&["EraseTuples", "InsertTuple"]);
        let mut stats = ShardStats::new(2);
        stats.executions = 10;
        stats.yields.record(0, YieldOutcome::Executed);
        stats.yields.record(0, YieldOutcome::CorpusInsert);
        stats.yields.record(1, YieldOutcome::Executed);
        stats.spans.record(SpanKind::Mutation, 5_000);
        t.merge_shard(0, &stats, 2);
        t.emit(&Event::NewCoverage { shard: 0, executions: 10, covered: 4, total: 8, t: 0.1 });
        let text = t.prometheus_text();
        assert!(text.contains("# TYPE cftcg_mutation_yield counter"), "{text}");
        assert!(
            text.contains("cftcg_mutation_yield{kind=\"EraseTuples\",outcome=\"executed\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("cftcg_mutation_yield{kind=\"EraseTuples\",outcome=\"corpus_insert\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("cftcg_mutation_yield{kind=\"InsertTuple\",outcome=\"violation\"} 0"),
            "{text}"
        );
        assert!(text.contains("# TYPE cftcg_goals_per_second gauge"), "{text}");
        assert!(text.contains("# TYPE cftcg_goals_per_mutation_ns gauge"), "{text}");
        assert!(text.contains("cftcg_plateaus_total 0"), "{text}");
        // Every non-comment line still parses as `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad exposition line: {line}");
        }
        // The derived rate joins span data: covered=4 over 5000 mutation ns.
        let snap = t.snapshot();
        assert_eq!(snap.goals_per_mutation_ns(), Some(4.0 / 5_000.0));
        let rows = snap.yield_reports();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "EraseTuples");
        assert_eq!(rows[0].corpus_insert, 1);
    }

    #[test]
    fn corpus_seeds_and_plateau_fold_into_the_snapshot() {
        let t = Telemetry::new();
        t.set_corpus_seeds(
            1,
            vec![CorpusSeedReport {
                id: 7,
                size_bytes: 24,
                metric: 3,
                new_branches: 1,
                energy: 36,
                selections: 5,
                children: 2,
                descendant_goals: 4,
                age_executions: 100,
            }],
        );
        t.emit(&Event::Plateau {
            shard: 0,
            executions: 2_000,
            window: 1_000,
            covered: 5,
            total: 10,
            open: 5,
            frontier: vec![PlateauGoal { label: "g".into(), cause: "mcdc-pair".into() }],
            t: 1.5,
        });
        let snap = t.snapshot();
        assert_eq!(snap.corpus_seeds.len(), 1);
        assert_eq!(snap.corpus_seeds[0].id, 7);
        assert_eq!(snap.corpus_seeds[0].descendant_goals, 4);
        assert_eq!(snap.plateaus, 1);
        let plateau = snap.last_plateau.expect("plateau folded");
        assert_eq!(plateau.executions, 2_000);
        assert_eq!(plateau.open, 5);
        // Re-publishing shard 1 replaces, never accumulates.
        t.set_corpus_seeds(1, Vec::new());
        assert!(t.snapshot().corpus_seeds.is_empty());
    }

    #[test]
    fn format_ns_picks_sane_units() {
        assert_eq!(format_ns(12), "12ns");
        assert_eq!(format_ns(1_500), "1.5µs");
        assert_eq!(format_ns(2_500_000), "2.5ms");
        assert_eq!(format_ns(3_210_000_000), "3.21s");
    }

    #[test]
    fn group_digits_inserts_separators() {
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1_000), "1,000");
        assert_eq!(group_digits(1_234_567), "1,234,567");
    }
}
