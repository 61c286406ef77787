//! Sharded parallel fuzzing with periodic coverage/corpus synchronization.
//!
//! AFL-style main/secondary parallelism adapted to the model fuzzing loop:
//! `N` workers each own a full [`Fuzzer`] — their own executor, mutator,
//! corpus shard, TORC dictionary, and a seed-derived RNG (`seed ^
//! worker_id`, so runs stay deterministic per worker count). Workers fuzz
//! independently between *sync rounds*; each round they report to a
//! coordinator which
//!
//! 1. folds the workers' coverage into a global `g_TotalCov` bitmap by
//!    **re-executing** each candidate test case (the re-execution, not the
//!    worker's shard-local claim, decides global novelty — two shards often
//!    find the same branch in the same round),
//! 2. broadcasts globally-new corpus entries back to every *other* shard,
//!    so discoveries propagate without the shards sharing mutable state,
//! 3. merges compare-dictionary (TORC) pairs and assertion violations with
//!    first-witness-wins semantics.
//!
//! The merged [`FuzzOutcome`] has the same shape as a sequential run:
//! executions/iterations are summed, events carry global coverage totals,
//! and with `workers == 1` the suite is byte-identical to [`Fuzzer`] under
//! the same seed (nothing is broadcast back to its own origin, so the
//! single worker's trajectory is untouched).

use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

use cftcg_codegen::{CompiledModel, Executor, TestCase, TupleLayout};
use cftcg_coverage::{BranchBitmap, FirstHit, FullTracker, ProvenanceTracker, Recorder};
use cftcg_telemetry::{
    CorpusSeedReport, Event, PlateauGoal, ShardStats, SpanKind, COORDINATOR_TID,
    PLATEAU_FRONTIER_CAP,
};

use crate::fuzzer::{
    CaseMeta, CoverageEvent, FeedbackMode, FuzzConfig, FuzzOutcome, Fuzzer, OperatorAttribution,
};
use crate::lineage::{Lineage, LineageRecord};
use crate::mutate::MutationKind;
use crate::plateau::PlateauDetector;

/// Configuration of the parallel engine.
#[derive(Debug, Clone)]
pub struct ParallelFuzzConfig {
    /// Number of worker shards (clamped to at least 1).
    pub workers: usize,
    /// Executions each worker runs between syncs (execution-budget runs).
    pub sync_interval: u64,
    /// Wall-clock length of a sync round (time-budget runs).
    pub sync_period: Duration,
    /// Per-worker fuzzing configuration; `fuzz.seed` is the base seed each
    /// worker XORs with its id.
    pub fuzz: FuzzConfig,
}

impl Default for ParallelFuzzConfig {
    fn default() -> Self {
        ParallelFuzzConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            sync_interval: 1024,
            sync_period: Duration::from_millis(200),
            fuzz: FuzzConfig::default(),
        }
    }
}

/// One globally-new discovery as reported by a worker.
struct ReportedCase {
    bytes: Vec<u8>,
    /// Stable lineage id the shard minted for this case.
    case: u64,
    /// Worker wall-clock at discovery.
    elapsed: Duration,
    /// Worker-local execution count at discovery.
    executions: u64,
}

/// What a worker sends the coordinator at the end of each sync round.
struct WorkerReport {
    worker: usize,
    /// New suite entries since the last report (shard-local novelty).
    cases: Vec<ReportedCase>,
    /// New `(assertion index, witness input)` pairs since the last report.
    violations: Vec<(usize, Vec<u8>)>,
    /// TORC pairs admitted to the shard dictionary since the last report.
    torc: Vec<(f64, f64)>,
    /// Lineage records minted since the last report (append-only stream;
    /// ids are shard-strided so streams from different workers never
    /// collide).
    lineage: Vec<LineageRecord>,
    /// Cumulative worker-local totals.
    executions: u64,
    iterations: u64,
    /// Telemetry-stats delta since the previous report (commutative to
    /// merge, so arrival order across workers is irrelevant).
    stats: ShardStats,
    /// Corpus entries currently retained by the shard.
    corpus_len: usize,
    /// Per-corpus-entry scheduling forensics (empty unless a telemetry
    /// registry is attached — nobody would read them).
    corpus_seeds: Vec<CorpusSeedReport>,
    /// The worker has exhausted its budget.
    done: bool,
}

/// What the coordinator sends every worker after processing a round.
struct Broadcast {
    /// Globally-new corpus entries discovered by *other* workers, with the
    /// lineage id their originating shard minted.
    entries: Vec<(u64, Vec<u8>)>,
    /// Globally-new TORC pairs discovered by *other* workers.
    torc: Vec<(f64, f64)>,
    /// Budget exhausted everywhere: exit after absorbing.
    stop: bool,
}

/// A worker's fuzzing budget.
#[derive(Clone, Copy)]
enum WorkerBudget {
    /// Run exactly `total` executions, `per_round` per sync round.
    Executions { total: u64, per_round: u64 },
    /// Run until `deadline`, syncing every `period`.
    WallClock { deadline: Instant, period: Duration },
}

/// The worker thread body: fuzz a round, report, absorb the broadcast,
/// repeat until the coordinator says stop (or hangs up).
fn worker_loop(
    compiled: &CompiledModel,
    config: FuzzConfig,
    budget: WorkerBudget,
    worker: usize,
    reports: Sender<WorkerReport>,
    broadcasts: Receiver<Broadcast>,
) {
    let publish_seeds = config.telemetry.is_some();
    let mut fuzzer = Fuzzer::new(compiled, config);
    fuzzer.enable_torc_tracking();
    // Workers record stats locally but never touch the shared registry;
    // the coordinator owns the global view (and the event log).
    fuzzer.set_worker_mode();
    // Lineage ids are minted under the worker's shard so streams from
    // different shards never collide (and shard 0 matches sequential).
    fuzzer.set_worker_shard(worker);
    let started = Instant::now();
    let mut reported_cases = 0usize;
    let mut reported_violations = 0usize;
    let mut reported_lineage = 0usize;
    let mut executed = 0u64;
    let mut round = 0u32;
    loop {
        let done = match budget {
            WorkerBudget::Executions { total, per_round } => {
                let batch = per_round.min(total - executed);
                fuzzer.fuzz_batch(batch);
                executed += batch;
                executed >= total
            }
            WorkerBudget::WallClock { deadline, period } => {
                let round_end = (started + period * (round + 1)).min(deadline);
                fuzzer.run_until(round_end);
                Instant::now() >= deadline
            }
        };

        let (suite, events, metas) = fuzzer.discoveries_since(reported_cases);
        let cases: Vec<ReportedCase> = suite
            .iter()
            .zip(events)
            .zip(metas)
            .map(|((case, event), meta)| ReportedCase {
                bytes: case.bytes.clone(),
                case: meta.case,
                elapsed: event.elapsed,
                executions: event.executions,
            })
            .collect();
        reported_cases += cases.len();
        let lineage = fuzzer.lineage_records_since(reported_lineage).to_vec();
        reported_lineage += lineage.len();
        let violations: Vec<(usize, Vec<u8>)> = fuzzer
            .violations_since(reported_violations)
            .iter()
            .map(|(assertion, case)| (*assertion, case.bytes.clone()))
            .collect();
        reported_violations += violations.len();

        let report = WorkerReport {
            worker,
            cases,
            violations,
            torc: fuzzer.take_fresh_torc(),
            lineage,
            executions: fuzzer.executions(),
            iterations: fuzzer.iterations(),
            stats: fuzzer.take_stats_delta(),
            corpus_len: fuzzer.corpus_len(),
            corpus_seeds: if publish_seeds { fuzzer.corpus_seed_reports() } else { Vec::new() },
            done,
        };
        if reports.send(report).is_err() {
            return; // Coordinator hung up (a peer died); just exit.
        }
        let wait_started = fuzzer.spans_enabled().then(Instant::now);
        let Ok(broadcast) = broadcasts.recv() else {
            return;
        };
        if let Some(start) = wait_started {
            fuzzer.note_sync_wait(start);
        }
        for (id, bytes) in broadcast.entries {
            fuzzer.absorb_entry(id, bytes);
        }
        fuzzer.absorb_torc(&broadcast.torc);
        if broadcast.stop {
            return;
        }
        round += 1;
    }
}

/// The coordinator's candidate recorder: the per-iteration branch bitmap
/// (which decides global novelty, exactly as a worker's loop would) plus a
/// [`FullTracker`] collecting the condition/decision-evaluation
/// observations provenance needs — both filled in one execution pass.
struct ForensicRecorder<'a> {
    bitmap: &'a mut BranchBitmap,
    tracker: &'a mut FullTracker,
}

impl Recorder for ForensicRecorder<'_> {
    /// Comparison operands are mined by workers, not the coordinator.
    const OBSERVES_COMPARES: bool = false;

    #[inline]
    fn branch(&mut self, id: cftcg_coverage::BranchId) {
        self.bitmap.branch(id);
        self.tracker.branch(id);
    }

    #[inline]
    fn condition(&mut self, id: cftcg_coverage::ConditionId, value: bool) {
        self.tracker.condition(id, value);
    }

    #[inline]
    fn decision_eval(&mut self, id: cftcg_coverage::DecisionId, vector: u64, outcome: u32) {
        self.tracker.decision_eval(id, vector, outcome);
    }

    #[inline]
    fn assertion(&mut self, id: cftcg_coverage::AssertionId, passed: bool) {
        self.tracker.assertion(id, passed);
    }
}

/// The coordinator's global coverage state: its own executor re-runs every
/// candidate case against `g_TotalCov` to judge global novelty.
struct GlobalCoverage<'c> {
    exec: Executor<'c>,
    map: &'c cftcg_coverage::InstrumentationMap,
    layout: TupleLayout,
    total: BranchBitmap,
    curr: BranchBitmap,
    /// Feedback visibility mask; `None` under model-level feedback.
    mask: Option<BranchBitmap>,
    max_iterations: usize,
}

impl<'c> GlobalCoverage<'c> {
    fn new(compiled: &'c CompiledModel, config: &FuzzConfig) -> Self {
        let branch_count = compiled.map().branch_count();
        let mask = match config.feedback {
            FeedbackMode::ModelLevel => None,
            FeedbackMode::CodeLevelOnly => Some(compiled.map().code_level_mask()),
        };
        let exec = Executor::with_engine(compiled, config.resolved_engine());
        GlobalCoverage {
            exec,
            map: compiled.map(),
            layout: compiled.layout().clone(),
            total: BranchBitmap::new(branch_count),
            curr: BranchBitmap::new(branch_count),
            mask,
            max_iterations: config.max_iterations_per_input,
        }
    }

    /// Re-executes `bytes` exactly as a worker would, merging its coverage
    /// into the global bitmap. Returns how many branches were new together
    /// with the case's full observation tracker (the masked feedback view
    /// governs novelty; the tracker is always unmasked — forensics are
    /// model-level regardless of feedback mode).
    fn absorb(&mut self, bytes: &[u8]) -> (usize, FullTracker) {
        self.exec.reset();
        let mut tracker = FullTracker::new(self.map);
        let mut new_branches = 0;
        for tuple in self.layout.split(bytes).take(self.max_iterations) {
            self.curr.clear();
            let mut recorder = ForensicRecorder { bitmap: &mut self.curr, tracker: &mut tracker };
            self.exec.step_tuple(tuple, &mut recorder);
            if let Some(mask) = &self.mask {
                self.curr.retain_mask(mask);
            }
            new_branches += self.curr.merge_into(&mut self.total);
        }
        (new_branches, tracker)
    }
}

/// The sharded parallel fuzzing engine. One-shot: construct, then call
/// [`run_for`](Self::run_for) or [`run_executions`](Self::run_executions)
/// once for a merged [`FuzzOutcome`].
pub struct ParallelFuzzer<'c> {
    compiled: &'c CompiledModel,
    config: ParallelFuzzConfig,
}

impl<'c> ParallelFuzzer<'c> {
    /// Creates a parallel fuzzer over a compiled model.
    pub fn new(compiled: &'c CompiledModel, config: ParallelFuzzConfig) -> Self {
        ParallelFuzzer { compiled, config }
    }

    /// Runs until `budget` wall-clock time has elapsed.
    pub fn run_for(&self, budget: Duration) -> FuzzOutcome {
        let deadline = Instant::now() + budget;
        self.run(WorkerBudget::WallClock { deadline, period: self.config.sync_period })
    }

    /// Runs exactly `n` executions split across the workers (remainder to
    /// the lowest worker ids). Deterministic for a given seed and worker
    /// count; with one worker, byte-identical to [`Fuzzer::run_executions`].
    pub fn run_executions(&self, n: u64) -> FuzzOutcome {
        self.run(WorkerBudget::Executions { total: n, per_round: self.config.sync_interval.max(1) })
    }

    fn run(&self, budget: WorkerBudget) -> FuzzOutcome {
        let workers = self.config.workers.max(1);
        let started = Instant::now();
        let compiled = self.compiled;

        let mut global = GlobalCoverage::new(compiled, &self.config.fuzz);
        let telemetry = self.config.fuzz.telemetry.clone();
        let span_trace = self.config.fuzz.span_trace.clone();
        // The coordinator owns case emission, so it also owns the trace
        // hook (workers run in worker mode, where the hook never fires).
        let trace_hook = self.config.fuzz.trace_hook.clone();
        // Campaign-wide stats, merged from worker deltas each round, so the
        // final outcome carries attribution even without a registry.
        let mut global_stats = ShardStats::new(MutationKind::ALL.len());
        // Coordinator-side plateau watcher over the *global* covered count
        // (worker-local watchers would mistake cross-shard discoveries for
        // stalls; workers run in worker mode, so theirs never instantiate).
        let mut plateau = match (&telemetry, self.config.fuzz.plateau_window) {
            (Some(_), Some(window)) => Some(PlateauDetector::new(window)),
            _ => None,
        };
        let mut round_idx = 0u64;
        let mut torc_seen = std::collections::HashSet::new();
        let mut suite: Vec<TestCase> = Vec::new();
        let mut events: Vec<CoverageEvent> = Vec::new();
        let mut suite_meta: Vec<CaseMeta> = Vec::new();
        // The merged lineage DAG (worker streams appended in worker-id
        // order each round) and the global per-goal provenance, fed by
        // re-executing accepted candidates.
        let mut lineage = Lineage::new();
        let mut provenance = ProvenanceTracker::new(compiled.map());
        let mut violations: Vec<(usize, TestCase)> = Vec::new();
        // Per-worker cumulative executions as of the end of the previous
        // round — the base for global execution estimates on events.
        let mut prev_execs = vec![0u64; workers];
        let mut iterations = vec![0u64; workers];

        let (report_tx, report_rx) = mpsc::channel::<WorkerReport>();
        std::thread::scope(|scope| {
            let mut broadcast_txs = Vec::with_capacity(workers);
            for worker in 0..workers {
                let (tx, rx) = mpsc::channel::<Broadcast>();
                broadcast_txs.push(tx);
                let mut fuzz = self.config.fuzz.clone();
                fuzz.seed ^= worker as u64;
                let worker_budget = match budget {
                    WorkerBudget::Executions { total, per_round } => {
                        // Split n across shards, remainder to low ids.
                        let base = total / workers as u64;
                        let extra = u64::from((worker as u64) < total % workers as u64);
                        WorkerBudget::Executions { total: base + extra, per_round }
                    }
                    wall => wall,
                };
                let report_tx = report_tx.clone();
                scope.spawn(move || {
                    worker_loop(compiled, fuzz, worker_budget, worker, report_tx, rx)
                });
            }
            drop(report_tx);

            let wall_mode = matches!(budget, WorkerBudget::WallClock { .. });
            'rounds: loop {
                // Collect exactly one report per worker (lockstep round).
                let mut reports: Vec<Option<WorkerReport>> = (0..workers).map(|_| None).collect();
                for _ in 0..workers {
                    match report_rx.recv() {
                        Ok(report) => {
                            let w = report.worker;
                            reports[w] = Some(report);
                        }
                        // A worker died (panic): drop the broadcast senders
                        // so the rest exit, and let scope join re-raise.
                        Err(_) => break 'rounds,
                    }
                }
                let reports: Vec<WorkerReport> =
                    reports.into_iter().map(|r| r.expect("one report per worker")).collect();

                let merge_started = Instant::now();
                let global_base: u64 = prev_execs.iter().sum();

                // Fold the workers' lineage streams first, so every
                // candidate processed below can resolve its own record
                // (parents may arrive in the same round as their children).
                for report in &reports {
                    for record in &report.lineage {
                        lineage.push(record.clone());
                    }
                }

                // Candidate cases, ordered deterministically: by discovery
                // timestamp for wall-clock runs, by (worker, index) for
                // execution-budget runs (where timestamps are not
                // reproducible but worker trajectories are).
                let mut candidates: Vec<(usize, usize, &ReportedCase)> = reports
                    .iter()
                    .flat_map(|r| r.cases.iter().enumerate().map(|(i, c)| (r.worker, i, c)))
                    .collect();
                if wall_mode {
                    candidates.sort_by_key(|&(w, i, c)| (c.elapsed, w, i));
                }

                // Re-execute each candidate against the global bitmap; only
                // globally-novel ones enter the merged suite and the
                // cross-shard broadcast.
                let mut accepted: Vec<(usize, u64, &[u8])> = Vec::new();
                for (worker, _, case) in candidates {
                    let (new_branches, tracker) = global.absorb(&case.bytes);
                    if new_branches > 0 {
                        suite.push(TestCase::new(case.bytes.clone()));
                        let executions = global_base + (case.executions - prev_execs[worker]);
                        events.push(CoverageEvent {
                            elapsed: case.elapsed,
                            executions,
                            covered_branches: global.total.count(),
                        });
                        suite_meta.push(CaseMeta {
                            case: case.case,
                            shard: worker,
                            executions,
                            covered_branches: global.total.count(),
                        });
                        if let Some(hook) = &trace_hook {
                            hook.call(&case.bytes, case.case);
                        }
                        let (parent, crossover, op_names, op_indices) = match lineage.get(case.case)
                        {
                            Some(r) => (
                                r.parent,
                                r.crossover,
                                r.ops.iter().map(|k| k.name().to_string()).collect(),
                                r.op_indices(),
                            ),
                            None => (None, None, Vec::new(), Vec::new()),
                        };
                        let hit = FirstHit {
                            executions,
                            elapsed: case.elapsed,
                            shard: worker,
                            case: case.case,
                            ops: op_indices,
                        };
                        provenance.absorb(compiled.map(), &tracker, &hit);
                        if let Some(t) = &telemetry {
                            t.emit(&Event::NewCoverage {
                                shard: worker,
                                executions,
                                covered: global.total.count(),
                                total: global.total.len(),
                                t: t.elapsed_s(),
                            });
                            t.emit(&Event::CaseLineage {
                                shard: worker,
                                case: case.case,
                                parent,
                                crossover,
                                ops: op_names,
                                executions,
                                t: t.elapsed_s(),
                            });
                        }
                        accepted.push((worker, case.case, &case.bytes));
                    }
                }

                // First witness wins: violations in worker-id order.
                for report in &reports {
                    for (assertion, bytes) in &report.violations {
                        if !violations.iter().any(|&(a, _)| a == *assertion) {
                            violations.push((*assertion, TestCase::new(bytes.clone())));
                            if let Some(t) = &telemetry {
                                t.emit(&Event::Violation {
                                    shard: report.worker,
                                    assertion: *assertion,
                                    label: compiled
                                        .map()
                                        .assertions()
                                        .get(*assertion)
                                        .cloned()
                                        .unwrap_or_default(),
                                    t: t.elapsed_s(),
                                });
                            }
                        }
                    }
                }

                // Fold worker stats deltas into the campaign totals (and
                // the registry, which also tracks per-shard rates).
                for report in &reports {
                    global_stats.merge_from(&report.stats);
                    if let Some(t) = &telemetry {
                        t.merge_shard(report.worker, &report.stats, report.corpus_len);
                        if !report.corpus_seeds.is_empty() {
                            t.set_corpus_seeds(report.worker, report.corpus_seeds.clone());
                        }
                    }
                }

                // Globally-new TORC pairs, first witness wins.
                let mut fresh_torc: Vec<(usize, (f64, f64))> = Vec::new();
                for report in &reports {
                    for &(lhs, rhs) in &report.torc {
                        if torc_seen.insert((lhs.to_bits(), rhs.to_bits())) {
                            fresh_torc.push((report.worker, (lhs, rhs)));
                        }
                    }
                }

                let all_done = reports.iter().all(|r| r.done);
                for report in &reports {
                    prev_execs[report.worker] = report.executions;
                    iterations[report.worker] = report.iterations;
                }

                // Plateau watch over the merged frontier: one event per
                // quiet window of global executions without a goal gained.
                if let (Some(detector), Some(t)) = (&mut plateau, &telemetry) {
                    let executions: u64 = prev_execs.iter().sum();
                    let covered = global.total.count();
                    while detector.observe(executions, covered) {
                        let entries =
                            cftcg_coverage::frontier(compiled.map(), provenance.tracker());
                        let frontier: Vec<PlateauGoal> = entries
                            .iter()
                            .take(PLATEAU_FRONTIER_CAP)
                            .map(|e| PlateauGoal {
                                label: e.label.clone(),
                                cause: e.cause.tag().to_string(),
                            })
                            .collect();
                        t.emit(&Event::Plateau {
                            shard: 0,
                            executions,
                            window: detector.window(),
                            covered,
                            total: global.total.len(),
                            open: entries.len() as u64,
                            frontier,
                            t: t.elapsed_s(),
                        });
                    }
                }

                for (worker, tx) in broadcast_txs.iter().enumerate() {
                    let broadcast = Broadcast {
                        entries: accepted
                            .iter()
                            .filter(|&&(origin, _, _)| origin != worker)
                            .map(|&(_, id, bytes)| (id, bytes.to_vec()))
                            .collect(),
                        torc: fresh_torc
                            .iter()
                            .filter(|&&(origin, _)| origin != worker)
                            .map(|&(_, pair)| pair)
                            .collect(),
                        stop: all_done,
                    };
                    // A send failure means that worker exited; the
                    // done-handshake below still terminates the round loop.
                    let _ = tx.send(broadcast);
                }
                // Book the merge as a coordinator-side SyncRound span: into
                // the campaign totals (always) and the trace buffer (when a
                // trace is attached), under the coordinator's synthetic tid.
                let merge_ended = Instant::now();
                let merge_ns =
                    merge_ended.saturating_duration_since(merge_started).as_nanos() as u64;
                global_stats.spans.record(SpanKind::SyncRound, merge_ns);
                if let Some(trace) = &span_trace {
                    trace.record_span(
                        SpanKind::SyncRound,
                        COORDINATOR_TID,
                        merge_started,
                        merge_ended,
                    );
                }
                if let Some(t) = &telemetry {
                    t.emit(&Event::SyncRound {
                        round: round_idx,
                        duration_ms: merge_ns as f64 / 1e6,
                        accepted: accepted.len(),
                        broadcast: accepted.len(),
                        executions: prev_execs.iter().sum(),
                        covered: global.total.count(),
                        total: global.total.len(),
                        t: t.elapsed_s(),
                    });
                    t.status_tick(false);
                }
                round_idx += 1;
                if all_done {
                    break;
                }
            }
        });

        // Coordinator-side sync cost lives in the registry (via SyncRound
        // events); the outcome carries the merged operator attribution.
        FuzzOutcome {
            suite,
            suite_meta,
            lineage: lineage.records().to_vec(),
            provenance,
            violations,
            events,
            executions: prev_execs.iter().sum(),
            iterations: iterations.iter().sum(),
            branch_count: global.total.len(),
            covered_branches: global.total.count(),
            elapsed: started.elapsed(),
            operators: OperatorAttribution::from_counters(&global_stats.operators),
            yields: global_stats.yields.clone(),
        }
    }
}
