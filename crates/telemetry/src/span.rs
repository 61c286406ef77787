//! Span-based self-profiling: wall-clock attribution for the fuzzing
//! engine's phases.
//!
//! Spans answer *where does campaign time go* — mutation vs execution vs
//! coverage bookkeeping vs corpus maintenance vs coordinator sync vs JIT
//! compilation — which is exactly the question behind the multi-core
//! scaling numbers: the loop benchmark's traced `parallel.scaling` and
//! `parallel.sync_pct` (`loopbench/`) are read off these spans.
//!
//! Two complementary representations:
//!
//! * [`SpanStats`] — per-shard log₂ [`Histogram`]s, one per [`SpanKind`],
//!   embedded in `ShardStats` so they ride the existing commutative merge
//!   algebra (record lock-free, fold each window at sync rounds). This is the
//!   *statistical* view: counts, totals, quantiles, phase percentages.
//! * [`SpanTrace`] — a bounded shared buffer of individual timestamped
//!   [`TraceEvent`]s, exportable as Chrome trace-event JSON
//!   ([`SpanTrace::to_chrome_json`]) loadable in Perfetto or
//!   `chrome://tracing`. Hot kinds are sampled (1-in-N per shard, via
//!   [`SpanSampler`]) so the buffer bounds both memory and lock traffic.
//!
//! Recording is gated by the caller: the fuzzer only reads the clock when a
//! telemetry registry is attached (a trace buffer is a setting of the
//! registry, [`crate::Telemetry::with_span_trace`]), so an uninstrumented
//! run pays nothing.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::histogram::Histogram;
use crate::json::{push_json_str, Json};

/// The span taxonomy: every profiled phase of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanKind {
    /// Building one candidate input: the stacked mutation rounds.
    Mutation = 0,
    /// Executing one candidate through the compiled model.
    Execution = 1,
    /// Booking a discovery: coverage diff, provenance replay, suite append.
    CoverageUpdate = 2,
    /// Inserting (or replacing) a corpus entry.
    CorpusInsert = 3,
    /// Worker-side wait for the coordinator's broadcast (lock-wait signal).
    SyncWait = 4,
    /// Coordinator-side sync-round merge: novelty re-execution + broadcast.
    SyncRound = 5,
    /// Native-code compilation of the model (JIT tier, once per campaign).
    JitCompile = 6,
}

impl SpanKind {
    /// Number of span kinds.
    pub const COUNT: usize = 7;

    /// Every kind, in index order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::Mutation,
        SpanKind::Execution,
        SpanKind::CoverageUpdate,
        SpanKind::CorpusInsert,
        SpanKind::SyncWait,
        SpanKind::SyncRound,
        SpanKind::JitCompile,
    ];

    /// Stable metric/JSON name for the kind.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Mutation => "mutation",
            SpanKind::Execution => "execution",
            SpanKind::CoverageUpdate => "coverage_update",
            SpanKind::CorpusInsert => "corpus_insert",
            SpanKind::SyncWait => "sync_wait",
            SpanKind::SyncRound => "sync_round",
            SpanKind::JitCompile => "jit_compile",
        }
    }

    /// Trace-event sampling factor: hot per-input kinds keep 1-in-N
    /// occurrences so the shared buffer bounds lock traffic; rare
    /// coordinator-scale kinds keep every occurrence.
    pub fn sample_every(self) -> u32 {
        match self {
            SpanKind::Mutation | SpanKind::Execution => 64,
            SpanKind::CorpusInsert => 16,
            _ => 1,
        }
    }
}

/// Per-shard span histograms — one log₂ latency distribution per
/// [`SpanKind`]. Plain data like the rest of `ShardStats`: the owning
/// worker records lock-free and windows merge commutatively.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    histograms: [Histogram; SpanKind::COUNT],
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats { histograms: std::array::from_fn(|_| Histogram::new()) }
    }
}

/// One row of a span summary: aggregate cost of one span kind. The one
/// span row every view writes and reads: the `span-summary` JSONL event,
/// campaign.json and `/snapshot`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanReport {
    /// Span kind name ([`SpanKind::name`]). Owned, because a parsed
    /// artifact may name a kind the taxonomy has since retired.
    pub name: String,
    /// Spans recorded.
    pub count: u64,
    /// Total attributed wall-clock nanoseconds.
    pub total_ns: u64,
    /// Upper bound of the median latency bucket.
    pub p50_ns: u64,
    /// Upper bound of the 99th-percentile latency bucket.
    pub p99_ns: u64,
}

impl SpanReport {
    /// Appends the row as one JSON object.
    pub fn push_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        push_json_str(out, &self.name);
        out.push_str(&format!(
            ",\"count\":{},\"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            self.count, self.total_ns, self.p50_ns, self.p99_ns
        ));
    }

    /// Parses a row written by [`SpanReport::push_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(value: &Json) -> Result<SpanReport, String> {
        let field = |key: &str| value.field_u64(key, "span row");
        Ok(SpanReport {
            name: value.field_str("name", "span row")?.into(),
            count: field("count")?,
            total_ns: field("total_ns")?,
            p50_ns: field("p50_ns")?,
            p99_ns: field("p99_ns")?,
        })
    }
}

impl SpanStats {
    /// Empty span stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one span occurrence of `kind` lasting `ns` nanoseconds.
    #[inline]
    pub fn record(&mut self, kind: SpanKind, ns: u64) {
        self.histograms[kind as usize].record(ns);
    }

    /// The latency distribution for one kind.
    pub fn histogram(&self, kind: SpanKind) -> &Histogram {
        &self.histograms[kind as usize]
    }

    /// Total attributed nanoseconds for one kind.
    pub fn total_ns(&self, kind: SpanKind) -> u64 {
        self.histograms[kind as usize].sum()
    }

    /// `true` when no span has been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.histograms.iter().all(Histogram::is_empty)
    }

    /// Folds another span block into this one (element-wise addition).
    pub fn merge_from(&mut self, other: &SpanStats) {
        for (mine, theirs) in self.histograms.iter_mut().zip(&other.histograms) {
            mine.merge_from(theirs);
        }
    }

    /// Summary rows for every non-empty kind, in taxonomy order.
    pub fn reports(&self) -> Vec<SpanReport> {
        SpanKind::ALL
            .iter()
            .filter(|kind| !self.histogram(**kind).is_empty())
            .map(|&kind| {
                let h = self.histogram(kind);
                SpanReport {
                    name: kind.name().to_string(),
                    count: h.count(),
                    total_ns: h.sum(),
                    p50_ns: h.quantile_upper_bound(0.5),
                    p99_ns: h.quantile_upper_bound(0.99),
                }
            })
            .collect()
    }

    /// Percentage of the total attributed time spent in `kind`
    /// (0 when nothing is recorded).
    pub fn phase_pct(&self, kind: SpanKind) -> f64 {
        let total: u64 = self.histograms.iter().map(Histogram::sum).sum();
        if total == 0 {
            0.0
        } else {
            100.0 * self.total_ns(kind) as f64 / total as f64
        }
    }
}

/// The `tid` used for coordinator-side trace events (workers use their
/// shard index).
pub const COORDINATOR_TID: u32 = u32::MAX;

/// One recorded span occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which phase.
    pub kind: SpanKind,
    /// Recording shard ([`COORDINATOR_TID`] for the coordinator).
    pub shard: u32,
    /// Start offset from the trace epoch, nanoseconds.
    pub ts_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
}

struct TraceInner {
    events: Vec<TraceEvent>,
    dropped: u64,
}

/// A bounded, shared buffer of timestamped span events, writable from every
/// shard and the coordinator, exportable as Chrome trace-event JSON.
///
/// Cloning shares the buffer. Once `capacity` events are held, further
/// events are counted as dropped rather than grown — a campaign's opening
/// window is captured in full, which is where JIT compile, corpus seeding,
/// and the sync cadence are visible.
#[derive(Clone)]
pub struct SpanTrace {
    epoch: Instant,
    capacity: usize,
    inner: Arc<Mutex<TraceInner>>,
}

impl std::fmt::Debug for SpanTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanTrace").field("capacity", &self.capacity).finish_non_exhaustive()
    }
}

impl Default for SpanTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanTrace {
    /// Default buffer capacity (events).
    pub const DEFAULT_CAPACITY: usize = 262_144;

    /// A trace buffer with the default capacity; the epoch is now.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A trace buffer holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanTrace {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            inner: Arc::new(Mutex::new(TraceInner { events: Vec::new(), dropped: 0 })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records one span occurrence bounded by two clock readings.
    pub fn record_span(&self, kind: SpanKind, shard: u32, start: Instant, end: Instant) {
        let ts_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.record_raw(kind, shard, ts_ns, dur_ns);
    }

    /// Records one span from raw epoch offsets — for phases whose clock
    /// readings are not available as [`Instant`]s (e.g. a lazy JIT compile
    /// that happened inside the engine before its cost was reported).
    pub fn record_raw(&self, kind: SpanKind, shard: u32, ts_ns: u64, dur_ns: u64) {
        let mut inner = self.lock();
        if inner.events.len() >= self.capacity {
            inner.dropped += 1;
        } else {
            inner.events.push(TraceEvent { kind, shard, ts_ns, dur_ns });
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Events rejected because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Renders the buffer as Chrome trace-event JSON (the object form, with
    /// `traceEvents`), loadable in Perfetto or `chrome://tracing`.
    /// Timestamps are microseconds from the trace epoch; each shard is a
    /// named thread, the coordinator is `tid` [`COORDINATOR_TID`].
    pub fn to_chrome_json(&self) -> String {
        let (mut events, dropped) = {
            let inner = self.lock();
            (inner.events.clone(), inner.dropped)
        };
        events.sort_by_key(|e| (e.ts_ns, e.shard));
        let mut tids: Vec<u32> = events.iter().map(|e| e.shard).collect();
        tids.sort_unstable();
        tids.dedup();
        let mut out = String::with_capacity(events.len() * 96 + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"cftcg\",");
        out.push_str(&format!("\"dropped\":{dropped}}},\"traceEvents\":[\n"));
        let mut first = true;
        for tid in &tids {
            let name = if *tid == COORDINATOR_TID {
                "coordinator".to_string()
            } else {
                format!("shard {tid}")
            };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        for e in &events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                e.kind.name(),
                e.shard,
                e.ts_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the Chrome trace-event JSON to `path`.
    pub fn write_chrome_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

/// A shard-local sampling front end for a [`SpanTrace`]: keeps per-kind
/// occurrence counters *outside* the shared buffer's lock so hot kinds only
/// touch the mutex once per [`SpanKind::sample_every`] occurrences.
#[derive(Debug, Clone)]
pub struct SpanSampler {
    trace: SpanTrace,
    shard: u32,
    counters: [u32; SpanKind::COUNT],
}

impl SpanSampler {
    /// A sampler recording as `shard` into `trace`.
    pub fn new(trace: SpanTrace, shard: u32) -> Self {
        SpanSampler { trace, shard, counters: [0; SpanKind::COUNT] }
    }

    /// Re-targets the sampler at another shard id (workers learn their
    /// shard after construction).
    pub fn set_shard(&mut self, shard: u32) {
        self.shard = shard;
    }

    /// Offers one span occurrence; forwards 1-in-`sample_every` to the
    /// shared buffer.
    #[inline]
    pub fn record(&mut self, kind: SpanKind, start: Instant, end: Instant) {
        let counter = &mut self.counters[kind as usize];
        *counter += 1;
        if *counter >= kind.sample_every() {
            *counter = 0;
            self.trace.record_span(kind, self.shard, start, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_skip_empty_kinds_and_order_by_taxonomy() {
        let mut s = SpanStats::new();
        s.record(SpanKind::SyncRound, 1_000_000);
        s.record(SpanKind::Mutation, 50);
        let rows = s.reports();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "mutation");
        assert_eq!(rows[1].name, "sync_round");
        assert_eq!(rows[1].total_ns, 1_000_000);
    }

    #[test]
    fn span_rows_round_trip_through_json() {
        let row = SpanReport {
            name: "retired_kind".into(),
            count: 3,
            total_ns: 9_000,
            p50_ns: 2_047,
            p99_ns: 4_095,
        };
        let mut out = String::new();
        row.push_json(&mut out);
        assert_eq!(
            out,
            "{\"name\":\"retired_kind\",\"count\":3,\"total_ns\":9000,\"p50_ns\":2047,\"p99_ns\":4095}"
        );
        assert_eq!(SpanReport::from_json(&Json::parse(&out).unwrap()), Ok(row));
        let err = SpanReport::from_json(&Json::parse("{\"name\":\"x\"}").unwrap()).unwrap_err();
        assert!(err.contains("count"), "{err}");
    }

    #[test]
    fn phase_pct_partitions_total_time() {
        let mut s = SpanStats::new();
        s.record(SpanKind::Execution, 750);
        s.record(SpanKind::Mutation, 250);
        assert!((s.phase_pct(SpanKind::Execution) - 75.0).abs() < 1e-9);
        assert!((s.phase_pct(SpanKind::Mutation) - 25.0).abs() < 1e-9);
        assert_eq!(SpanStats::new().phase_pct(SpanKind::Execution), 0.0);
    }

    #[test]
    fn trace_buffer_bounds_and_counts_drops() {
        let trace = SpanTrace::with_capacity(2);
        let t0 = Instant::now();
        for _ in 0..5 {
            trace.record_span(SpanKind::SyncRound, COORDINATOR_TID, t0, Instant::now());
        }
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 3);
    }

    #[test]
    fn chrome_json_is_loadable_shape() {
        let trace = SpanTrace::new();
        let t0 = Instant::now();
        trace.record_span(SpanKind::JitCompile, COORDINATOR_TID, t0, Instant::now());
        trace.record_span(SpanKind::SyncRound, 0, t0, Instant::now());
        let json = trace.to_chrome_json();
        let parsed = crate::json::Json::parse(&json).expect("chrome trace json parses");
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        // 2 thread_name metadata events + 2 span events.
        assert_eq!(events.len(), 4);
        let span = events.iter().find(|e| e.get("ph").unwrap().as_str() == Some("X")).unwrap();
        assert!(span.get("ts").is_some() && span.get("dur").is_some());
    }

    #[test]
    fn sampler_downsamples_hot_kinds() {
        let trace = SpanTrace::new();
        let mut sampler = SpanSampler::new(trace.clone(), 3);
        let t0 = Instant::now();
        for _ in 0..128 {
            sampler.record(SpanKind::Execution, t0, Instant::now());
        }
        assert_eq!(trace.len(), 2, "1-in-64 sampling for execution spans");
        for _ in 0..3 {
            sampler.record(SpanKind::SyncWait, t0, Instant::now());
        }
        assert_eq!(trace.len(), 5, "coarse kinds record every occurrence");
    }
}
