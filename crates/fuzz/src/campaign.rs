//! The campaign fold: one merged view of every shard's discoveries.
//!
//! A fuzzing shard ([`Fuzzer`](crate::Fuzzer)) only runs Algorithm 1 and
//! queues what it found — coverage-earning cases, lineage records,
//! first-witness violations, external seeds and the stats booked since its
//! last report — in a [`WorkerReport`]. A [`Campaign`] folds those reports into
//! the campaign's output: it re-executes each candidate case against the
//! global `g_TotalCov` (the re-execution, not the shard's claim, decides
//! novelty, and the same pass records the case's provenance), books the
//! suite, its metadata and provenance, runs the plateau watch, and emits
//! every forensic event. A sequential run is one shard folded in-thread
//! after every batch; the parallel coordinator folds all workers' reports
//! once per sync round. Either way the same code writes the output.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cftcg_codegen::{CompiledModel, Executor, TestCase, TupleLayout};
use cftcg_coverage::{BranchBitmap, FirstHit, FullTracker, ProvenanceTracker, Recorder};
use cftcg_telemetry::{
    CorpusSeedReport, Event, PlateauGoal, ShardStats, SpanKind, Telemetry, YieldMatrix,
    PLATEAU_FRONTIER_CAP,
};

use crate::fuzzer::{CaseMeta, CoverageEvent, FeedbackMode, FuzzConfig, FuzzOutcome, TraceHook};
use crate::lineage::{Lineage, LineageRecord};
use crate::mutate::MutationKind;
use crate::plateau::PlateauDetector;

/// A coverage-earning case as a shard found it (shard-local novelty).
pub(crate) struct ReportedCase {
    pub(crate) bytes: Vec<u8>,
    /// Stable lineage id the shard minted for this case.
    pub(crate) case: u64,
    /// Shard wall-clock at discovery.
    pub(crate) elapsed: Duration,
    /// Shard-local execution count at discovery.
    pub(crate) executions: u64,
}

/// What a shard hands the campaign at each fold. Everything in it is moved
/// out of the shard ([`Fuzzer::take_report`](crate::Fuzzer)), which keeps
/// no copy.
pub(crate) struct WorkerReport {
    pub(crate) worker: usize,
    /// Coverage-earning cases since the last report, in discovery order.
    pub(crate) cases: Vec<ReportedCase>,
    /// First `(assertion index, witness input)` pairs since the last report.
    pub(crate) violations: Vec<(usize, TestCase)>,
    /// Shard-local execution counts of the external seeds added since the
    /// last report.
    pub(crate) seeds: Vec<u64>,
    /// Lineage records minted since the last report (ids are shard-strided,
    /// so streams from different shards never collide).
    pub(crate) lineage: Vec<LineageRecord>,
    /// Stats booked since the previous report (commutative to merge, so the
    /// arrival order across shards is irrelevant). Its `executions` and
    /// `iterations` advance the campaign's totals; its
    /// `corpus_evictions` count is also the number of `corpus-evict` events
    /// the fold emits.
    pub(crate) stats: ShardStats,
    /// Corpus entries currently retained by the shard.
    pub(crate) corpus_len: usize,
    /// Per-corpus-entry scheduling forensics (empty unless a telemetry
    /// registry is attached — nobody would read them).
    pub(crate) corpus_seeds: Vec<CorpusSeedReport>,
    /// The shard has exhausted its budget.
    pub(crate) done: bool,
}

/// Where a campaign folds its shard reports.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Folding {
    /// In the fuzzing thread after every batch (a sequential run). A fold
    /// that emits cases is booked as the shard's `coverage_update` span.
    InThread,
    /// On the parallel coordinator once per sync round, which books the
    /// round as its own `sync_round` span. `by_time` orders a round's
    /// candidates by discovery time (wall-clock budgets, where worker
    /// trajectories are not reproducible anyway) instead of by (worker,
    /// index).
    Rounds { by_time: bool },
}

/// The fold's candidate recorder: the per-iteration branch bitmap (which
/// decides global novelty, exactly as a shard's loop would) plus a
/// [`FullTracker`] collecting the condition/decision-evaluation
/// observations provenance needs — both filled in one execution pass.
struct ForensicRecorder<'a> {
    bitmap: &'a mut BranchBitmap,
    tracker: &'a mut FullTracker,
}

impl Recorder for ForensicRecorder<'_> {
    /// Comparison operands are mined by shards, not the campaign.
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

/// The campaign's global coverage: its own executor re-runs every candidate
/// case against `g_TotalCov` to judge global novelty.
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
        GlobalCoverage {
            exec: Executor::with_engine(compiled, config.resolved_engine()),
            map: compiled.map(),
            layout: compiled.layout().clone(),
            total: BranchBitmap::new(branch_count),
            curr: BranchBitmap::new(branch_count),
            mask,
            max_iterations: config.max_iterations_per_input,
        }
    }

    /// Re-executes `bytes` exactly as a shard would, merging its coverage
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

/// The merged view of a campaign: global coverage, the emitted suite with
/// its metadata, lineage, provenance and violations, the plateau watch and
/// the telemetry it reports to. See the module docs.
pub(crate) struct Campaign<'c> {
    map: &'c cftcg_coverage::InstrumentationMap,
    folding: Folding,
    global: GlobalCoverage<'c>,
    suite: Vec<TestCase>,
    suite_meta: Vec<CaseMeta>,
    events: Vec<CoverageEvent>,
    /// The merged lineage DAG (shard streams appended in worker-id order).
    lineage: Lineage,
    /// Per-goal first-hit provenance, fed by the novelty re-execution.
    provenance: ProvenanceTracker,
    /// First witness of each assertion, campaign-wide.
    violations: Vec<(usize, TestCase)>,
    /// Watches the *global* covered count (a shard-local watcher would
    /// mistake another shard's discoveries for stalls). Armed when the
    /// telemetry registry carries a plateau window.
    plateau: Option<PlateauDetector>,
    trace_hook: Option<TraceHook>,
    telemetry: Option<Arc<Telemetry>>,
    /// Merged operator attribution (the outcome's yield matrix).
    yields: YieldMatrix,
    /// Per-shard executions summed over the folded reports — the base for
    /// the global execution stamps of the next fold's cases.
    executions: Vec<u64>,
    /// Model iterations summed over the folded reports.
    iterations: u64,
    /// Resumed input ticks summed over the folded reports.
    resumed_ticks: u64,
}

impl<'c> Campaign<'c> {
    /// A campaign over `shards` shards, with `config`'s feedback, engine,
    /// telemetry (and the plateau window it carries) and trace hook.
    pub(crate) fn new(
        compiled: &'c CompiledModel,
        config: &FuzzConfig,
        shards: usize,
        folding: Folding,
    ) -> Self {
        let telemetry = config.telemetry.clone();
        if let Some(t) = &telemetry {
            let labels: Vec<&str> = MutationKind::ALL.iter().map(|k| k.name()).collect();
            t.set_operator_labels(&labels);
        }
        Campaign {
            map: compiled.map(),
            folding,
            global: GlobalCoverage::new(compiled, config),
            suite: Vec::new(),
            suite_meta: Vec::new(),
            events: Vec::new(),
            lineage: Lineage::new(),
            provenance: ProvenanceTracker::new(compiled.map()),
            violations: Vec::new(),
            plateau: telemetry.as_ref().and_then(|t| t.plateau_window()).map(PlateauDetector::new),
            trace_hook: config.trace_hook.clone(),
            telemetry,
            yields: YieldMatrix::new(MutationKind::ALL.len()),
            executions: vec![0; shards],
            iterations: 0,
            resumed_ticks: 0,
        }
    }

    /// The emitted suite so far.
    pub(crate) fn suite(&self) -> &[TestCase] {
        &self.suite
    }

    /// Forensic metadata of each suite entry (same order).
    pub(crate) fn suite_meta(&self) -> &[CaseMeta] {
        &self.suite_meta
    }

    /// First witnesses of each violated assertion.
    pub(crate) fn violations(&self) -> &[(usize, TestCase)] {
        &self.violations
    }

    /// Branches covered campaign-wide (under the feedback mask).
    pub(crate) fn covered(&self) -> usize {
        self.global.total.count()
    }

    /// Branch probes in the instrumentation map.
    pub(crate) fn branch_count(&self) -> usize {
        self.global.total.len()
    }

    /// Executions folded so far, summed over shards.
    pub(crate) fn executions(&self) -> u64 {
        self.executions.iter().sum()
    }

    /// Folds one round of shard reports (one per shard on the coordinator,
    /// the lone shard's in-thread). Candidates are re-executed against the
    /// global bitmap; only globally-novel ones enter the suite and
    /// provenance. Returns the suite indices of those, the coordinator's
    /// broadcast set.
    pub(crate) fn fold(&mut self, mut reports: Vec<WorkerReport>) -> Range<usize> {
        let timed = matches!(self.folding, Folding::InThread)
            && reports.iter().any(|r| !r.cases.is_empty())
            && self.telemetry.is_some();
        let fold_started = timed.then(Instant::now);
        let base = self.executions();

        // Fold the lineage streams first, so every candidate below can
        // resolve its own record (parents may arrive in the same round as
        // their children).
        for report in &mut reports {
            for record in report.lineage.drain(..) {
                self.lineage.push(record);
            }
        }

        // Candidates in (worker, index) order, or by discovery time.
        let mut candidates: Vec<(usize, usize)> = reports
            .iter()
            .enumerate()
            .flat_map(|(r, report)| (0..report.cases.len()).map(move |i| (r, i)))
            .collect();
        if matches!(self.folding, Folding::Rounds { by_time: true }) {
            candidates.sort_by_key(|&(r, i)| (reports[r].cases[i].elapsed, reports[r].worker, i));
        }

        let first = self.suite.len();
        for (r, i) in candidates {
            let worker = reports[r].worker;
            let case = &reports[r].cases[i];
            let executions = base + (case.executions - self.executions[worker]);
            let covered_before = self.covered();
            let (new_branches, tracker) = self.global.absorb(&case.bytes);
            if new_branches == 0 {
                continue;
            }
            // Quiet windows that closed before this case, against the
            // frontier it has not yet moved; then the gain re-anchors.
            self.watch_plateau(executions, covered_before, true);
            self.emit(worker, case, executions, &tracker);
        }

        // First witness wins: violations in worker-id order.
        for report in &mut reports {
            for (assertion, case) in report.violations.drain(..) {
                if self.violations.iter().any(|&(a, _)| a == assertion) {
                    continue;
                }
                if let Some(t) = &self.telemetry {
                    t.emit(&Event::Violation {
                        shard: report.worker,
                        assertion,
                        label: self.map.assertions().get(assertion).cloned().unwrap_or_default(),
                        t: t.elapsed_s(),
                    });
                }
                self.violations.push((assertion, case));
            }
        }

        if let Some(start) = fold_started {
            let end = Instant::now();
            let ns = end.saturating_duration_since(start).as_nanos() as u64;
            for report in &mut reports {
                report.stats.spans.record(SpanKind::CoverageUpdate, ns);
                if let Some(trace) = self.telemetry.as_ref().and_then(|t| t.span_trace()) {
                    trace.record_span(SpanKind::CoverageUpdate, report.worker as u32, start, end);
                }
            }
        }

        // Shard stats deltas, seeds and evictions, into the campaign totals
        // and the registry (which also tracks per-shard rates).
        for report in reports {
            self.yields.merge_from(&report.stats.yields);
            if let Some(t) = &self.telemetry {
                t.merge_shard(report.worker, &report.stats, report.corpus_len);
                t.set_corpus_seeds(report.worker, report.corpus_seeds);
                for executions in report.seeds {
                    t.emit(&Event::SeedAdded {
                        shard: report.worker,
                        executions: base + (executions - self.executions[report.worker]),
                        t: t.elapsed_s(),
                    });
                }
                for _ in 0..report.stats.corpus_evictions {
                    t.emit(&Event::CorpusEvict {
                        shard: report.worker,
                        corpus_len: report.corpus_len,
                        t: t.elapsed_s(),
                    });
                }
            }
            self.executions[report.worker] += report.stats.executions;
            self.iterations += report.stats.iterations;
            self.resumed_ticks += report.stats.resumed_ticks;
        }

        // Quiet windows that closed by the end of the round.
        self.watch_plateau(self.executions(), self.covered(), false);
        first..self.suite.len()
    }

    /// Books a globally-new case: suite entry, coverage event, metadata,
    /// trace hook, provenance, and the `new-coverage` / `case-lineage`
    /// events.
    fn emit(&mut self, worker: usize, case: &ReportedCase, executions: u64, tracker: &FullTracker) {
        let covered = self.covered();
        self.suite.push(TestCase::new(case.bytes.clone()));
        self.events.push(CoverageEvent {
            elapsed: case.elapsed,
            executions,
            covered_branches: covered,
        });
        self.suite_meta.push(CaseMeta {
            case: case.case,
            shard: worker,
            executions,
            covered_branches: covered,
        });
        if let Some(hook) = &self.trace_hook {
            hook.call(&case.bytes, case.case);
        }
        let record = self.lineage.get(case.case);
        let hit = FirstHit {
            executions,
            elapsed: case.elapsed,
            shard: worker,
            case: case.case,
            ops: record.map(LineageRecord::op_indices).unwrap_or_default(),
        };
        self.provenance.absorb(self.map, tracker, &hit);
        if let Some(t) = &self.telemetry {
            t.emit(&Event::NewCoverage {
                shard: worker,
                executions,
                covered,
                total: self.branch_count(),
                t: t.elapsed_s(),
            });
            t.emit(&Event::CaseLineage {
                shard: worker,
                case: case.case,
                parent: record.and_then(|r| r.parent),
                crossover: record.and_then(|r| r.crossover),
                ops: record
                    .map(|r| r.ops.iter().map(|k| k.name().to_string()).collect())
                    .unwrap_or_default(),
                executions,
                t: t.elapsed_s(),
            });
        }
    }

    /// Emits a `plateau` event, stamped at its window boundary, for every
    /// quiet window that closed before `executions` (`gained`) or by it,
    /// with the `covered` count it closed on and a frontier diff of the
    /// still-open goals. The frontier walk only runs on a fire.
    fn watch_plateau(&mut self, executions: u64, covered: usize, gained: bool) {
        let (Some(detector), Some(t)) = (&mut self.plateau, &self.telemetry) else {
            return;
        };
        while let Some(boundary) = detector.observe(executions, gained) {
            let entries = cftcg_coverage::frontier(self.map, self.provenance.tracker());
            let frontier: Vec<PlateauGoal> = entries
                .iter()
                .take(PLATEAU_FRONTIER_CAP)
                .map(|e| PlateauGoal { label: e.label.clone(), cause: e.cause.tag().to_string() })
                .collect();
            t.emit(&Event::Plateau {
                shard: 0,
                executions: boundary,
                window: detector.window(),
                covered,
                total: self.global.total.len(),
                open: entries.len() as u64,
                frontier,
                t: t.elapsed_s(),
            });
        }
    }

    /// The campaign's result after `elapsed` of fuzzing.
    pub(crate) fn outcome(&self, elapsed: Duration) -> FuzzOutcome {
        FuzzOutcome {
            suite: self.suite.clone(),
            suite_meta: self.suite_meta.clone(),
            lineage: self.lineage.records().to_vec(),
            provenance: self.provenance.clone(),
            violations: self.violations.clone(),
            events: self.events.clone(),
            executions: self.executions(),
            iterations: self.iterations,
            resumed_ticks: self.resumed_ticks,
            branch_count: self.branch_count(),
            covered_branches: self.covered(),
            elapsed,
            yields: self.yields.clone(),
        }
    }
}
