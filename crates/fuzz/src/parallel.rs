//! Sharded parallel fuzzing with periodic coverage/corpus synchronization.
//!
//! AFL-style main/secondary parallelism adapted to the model fuzzing loop:
//! `N` workers each own a full [`Fuzzer`] shard — their own executor,
//! mutator, corpus, TORC dictionary, and a seed-derived RNG (`seed ^
//! worker_id`, so runs stay deterministic per worker count). Workers fuzz
//! independently between *sync rounds*; each round every worker sends the
//! coordinator a report, and the coordinator
//!
//! 1. folds the round's reports through the same campaign fold a
//!    sequential run uses after every batch (`campaign.rs`): candidates are
//!    **re-executed** against the global `g_TotalCov` (two shards often
//!    find the same branch in the same round), and the fold books the
//!    merged suite, provenance, lineage, first-witness violations, the
//!    plateau watch, every forensic event and the registry merge,
//! 2. broadcasts the globally-new corpus entries back to every *other*
//!    shard, so discoveries propagate without the shards sharing mutable
//!    state; a receiving shard runs each entry under its own loop recorder,
//!    which also admits the entry's compare operands into its TORC ring
//!    (no TORC pair is ever sent: each ring is fed only by what its shard
//!    executes),
//! 3. books the round as a `sync_round` span and `sync-round` event.
//!
//! A sequential run is the one-shard case of the same fold, so the merged
//! [`FuzzOutcome`] has the same shape and the same events: with
//! `workers == 1` it is byte-identical to [`Fuzzer`] under the same seed
//! (nothing is broadcast back to its own origin, so the single worker's
//! trajectory is untouched).

use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

use cftcg_codegen::CompiledModel;
use cftcg_telemetry::{Event, SpanKind, COORDINATOR_TID};

use crate::campaign::{Campaign, Folding, WorkerReport};
use crate::fuzzer::{FuzzConfig, FuzzOutcome, Fuzzer};

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

/// What the coordinator sends every worker after processing a round.
struct Broadcast {
    /// Globally-new corpus entries discovered by *other* workers, with the
    /// lineage id their originating shard minted.
    entries: Vec<(u64, Vec<u8>)>,
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
    let mut fuzzer = Fuzzer::shard(compiled, config, worker);
    let started = Instant::now();
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
        let report = WorkerReport { done, ..fuzzer.take_report() };
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
        if broadcast.stop {
            return;
        }
        round += 1;
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
        let by_time = matches!(budget, WorkerBudget::WallClock { .. });
        let mut campaign =
            Campaign::new(compiled, &self.config.fuzz, workers, Folding::Rounds { by_time });
        let telemetry = self.config.fuzz.telemetry.clone();
        let span_trace = self.config.fuzz.span_trace.clone();

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

            for round in 0u64.. {
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
                        Err(_) => return,
                    }
                }
                let reports: Vec<WorkerReport> =
                    reports.into_iter().map(|r| r.expect("one report per worker")).collect();

                let merge_started = Instant::now();
                let all_done = reports.iter().all(|r| r.done);
                let accepted_range = campaign.fold(reports);
                let accepted = &campaign.suite()[accepted_range.clone()];
                let accepted_meta = &campaign.suite_meta()[accepted_range];
                for (worker, tx) in broadcast_txs.iter().enumerate() {
                    let broadcast = Broadcast {
                        entries: accepted
                            .iter()
                            .zip(accepted_meta)
                            .filter(|(_, meta)| meta.shard != worker)
                            .map(|(case, meta)| (meta.case, case.bytes.clone()))
                            .collect(),
                        stop: all_done,
                    };
                    // A send failure means that worker exited; the
                    // done-handshake below still terminates the round loop.
                    let _ = tx.send(broadcast);
                }
                // Book the round as a coordinator-side SyncRound span: into
                // the trace buffer (when attached, under the coordinator's
                // synthetic tid) and the registry (via the event).
                let merge_ended = Instant::now();
                if let Some(trace) = &span_trace {
                    trace.record_span(
                        SpanKind::SyncRound,
                        COORDINATOR_TID,
                        merge_started,
                        merge_ended,
                    );
                }
                if let Some(t) = &telemetry {
                    let merge_ns = merge_ended.saturating_duration_since(merge_started).as_nanos();
                    t.emit(&Event::SyncRound {
                        round,
                        duration_ms: merge_ns as f64 / 1e6,
                        accepted: accepted.len(),
                        broadcast: accepted.len(),
                        executions: campaign.executions(),
                        covered: campaign.covered(),
                        total: campaign.branch_count(),
                        t: t.elapsed_s(),
                    });
                    t.status_tick(false);
                }
                if all_done {
                    return;
                }
            }
        });
        campaign.outcome(started.elapsed())
    }
}
