//! The per-layer ns/tick budget of the fuzz loop, computed from spans.
//!
//! The loop's cost per model iteration (`fuzz.campaign` spans) is split into
//! rows, each timed in isolation over the replay set:
//!
//! | row | spans | per |
//! |---|---|---|
//! | step | `codegen.step` (NullRecorder) | tick |
//! | probe | `coverage.probe` (BranchBitmap) minus step | tick |
//! | bookkeeping | `coverage.bookkeeping` minus probe | tick |
//! | mutate | `fuzz.mutate` | execution |
//! | corpus | `fuzz.corpus` | execution |
//! | provenance | `coverage.replay` (FullTracker) | emitted case |
//!
//! Per-execution and per-case rows are charged at the loop's own execution
//! and emission counts. Whatever no public call isolates is the residual:
//! loop minus the rows. Workloads with several models weight each model's
//! rows by that model's loop ticks.

use crate::stats::{iqr, median};
use crate::trace::{Span, Tracer, Work};

pub const CAMPAIGN: &str = "fuzz.campaign";
pub const STEP: &str = "codegen.step";
pub const PROBE: &str = "coverage.probe";
pub const BOOKKEEPING: &str = "coverage.bookkeeping";
pub const MUTATE: &str = "fuzz.mutate";
pub const CORPUS: &str = "fuzz.corpus";
pub const REPLAY: &str = "coverage.replay";

/// One budget row: ns per loop tick and the spread (quartile distance) of
/// its own repetitions, in the same unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub ns_per_tick: f64,
    pub spread: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    pub loop_ns_per_tick: f64,
    /// Loop totals over the workload's traced campaigns.
    pub loop_work: Work,
    pub rows: Vec<Row>,
    /// Row costs in their own units, weighted across models.
    pub mutate_ns_per_exec: f64,
    pub corpus_ns_per_exec: f64,
    pub replay_ns_per_case: f64,
}

/// Per-span cost in ns per unit of work, for spans `name` on `tag`.
fn per_unit(tr: &Tracer, name: &str, tag: usize, unit: fn(&Work) -> u64) -> Vec<f64> {
    tr.named(name, tag)
        .filter(|s| unit(&s.work) > 0)
        .map(|s: &Span| s.ns() as f64 / unit(&s.work) as f64)
        .collect()
}

impl Budget {
    /// Builds the budget from a trace of sequential campaigns.
    pub fn from_trace(tr: &Tracer) -> Budget {
        let names = ["step", "probe", "bookkeeping", "mutate", "corpus", "provenance"];
        let mut ns = [0.0f64; 6];
        let mut spread = [0.0f64; 6];
        let mut loop_ns = 0.0;
        let mut work = Work::default();
        for tag in tr.tags(CAMPAIGN) {
            let camp: Vec<&Span> = tr.named(CAMPAIGN, tag).collect();
            let ticks = camp.iter().map(|s| s.work.ticks).sum::<u64>();
            let execs = camp.iter().map(|s| s.work.execs).sum::<u64>();
            let cases = camp.iter().map(|s| s.work.cases).sum::<u64>();
            loop_ns += camp.iter().map(|s| s.ns() as f64).sum::<f64>();
            work.ticks += ticks;
            work.execs += execs;
            work.cases += cases;

            let step = per_unit(tr, STEP, tag, |w| w.ticks);
            let probe = per_unit(tr, PROBE, tag, |w| w.ticks);
            let book = per_unit(tr, BOOKKEEPING, tag, |w| w.ticks);
            let mutate = per_unit(tr, MUTATE, tag, |w| w.execs);
            let corpus = per_unit(tr, CORPUS, tag, |w| w.execs);
            let replay = per_unit(tr, REPLAY, tag, |w| w.cases);
            let (ticks, execs, cases) = (ticks as f64, execs as f64, cases as f64);
            // Differential rows: each pass adds one layer on top of the
            // previous one over the same inputs.
            let costs = [
                (median(&step), iqr(&step), ticks),
                (median(&probe) - median(&step), iqr(&probe), ticks),
                (median(&book) - median(&probe), iqr(&book), ticks),
                (median(&mutate), iqr(&mutate), execs),
                (median(&corpus), iqr(&corpus), execs),
                (median(&replay), iqr(&replay), cases),
            ];
            for (i, (cost, q, count)) in costs.into_iter().enumerate() {
                ns[i] += cost * count;
                spread[i] += q * count;
            }
        }
        let per = |total: f64, count: u64| if count == 0 { 0.0 } else { total / count as f64 };
        Budget {
            loop_ns_per_tick: per(loop_ns, work.ticks),
            loop_work: work,
            rows: names
                .iter()
                .enumerate()
                .map(|(i, &name)| Row {
                    name,
                    ns_per_tick: per(ns[i], work.ticks),
                    spread: per(spread[i], work.ticks),
                })
                .collect(),
            mutate_ns_per_exec: per(ns[3], work.execs),
            corpus_ns_per_exec: per(ns[4], work.execs),
            replay_ns_per_case: per(ns[5], work.cases),
        }
    }

    /// A row's ns/tick by name (0 for unknown rows).
    pub fn row(&self, name: &str) -> f64 {
        self.rows.iter().find(|r| r.name == name).map_or(0.0, |r| r.ns_per_tick)
    }

    /// Loop ns/tick minus every measured row.
    pub fn residual(&self) -> f64 {
        self.loop_ns_per_tick - self.rows.iter().map(|r| r.ns_per_tick).sum::<f64>()
    }

    /// The benchmark's own spread on the rows: how far below zero the
    /// residual may fall before the rows overcount the loop.
    pub fn tolerance(&self) -> f64 {
        self.rows.iter().map(|r| r.spread).sum()
    }

    /// Whether the rows fit inside the loop (residual not negative beyond
    /// the spread).
    pub fn closes(&self) -> bool {
        self.residual() >= -self.tolerance()
    }

    /// The budget as a table whose rows sum to the loop's ns/tick.
    pub fn table(&self) -> String {
        let mut out = String::from("  layer                      ns/tick     share   spread\n");
        let loop_ns = self.loop_ns_per_tick.max(f64::MIN_POSITIVE);
        let mut line = |name: &str, ns: f64, spread: Option<f64>| {
            let spread = spread.map_or(String::new(), |s| format!("{s:>8.2}"));
            out.push_str(&format!(
                "  {name:<24} {ns:>9.2} {:>8.1}% {spread}\n",
                100.0 * ns / loop_ns
            ));
        };
        for r in &self.rows {
            line(r.name, r.ns_per_tick, Some(r.spread));
        }
        line("residual", self.residual(), None);
        line("= loop", self.loop_ns_per_tick, None);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tag: usize, ns: u64, work: Work) -> Span {
        Span { name, tag, start_ns: 0, end_ns: ns, parent: None, work }
    }

    fn ticks(execs: u64, ticks: u64) -> Work {
        Work { execs, ticks, cases: 0 }
    }

    /// One model: a 1000-tick, 10-execution, 2-case campaign taking
    /// 10 µs (10 ns/tick) and layer passes at known costs.
    fn synthetic(tag: usize, campaign_ns: u64) -> Vec<Span> {
        vec![
            span(CAMPAIGN, tag, campaign_ns, Work { execs: 10, ticks: 1000, cases: 2 }),
            span(STEP, tag, 290, ticks(4, 100)),
            span(STEP, tag, 300, ticks(4, 100)),
            span(STEP, tag, 310, ticks(4, 100)),
            span(PROBE, tag, 400, ticks(4, 100)),
            span(BOOKKEEPING, tag, 600, ticks(4, 100)),
            span(MUTATE, tag, 100, ticks(10, 0)),
            span(CORPUS, tag, 50, ticks(10, 0)),
            span(REPLAY, tag, 200, Work { execs: 0, ticks: 50, cases: 2 }),
        ]
    }

    fn trace(spans: Vec<Span>) -> Tracer {
        let mut tr = Tracer::new(true);
        spans.into_iter().for_each(|s| tr.push(s));
        tr
    }

    #[test]
    fn rows_and_residual_sum_to_the_loop() {
        let b = Budget::from_trace(&trace(synthetic(0, 10_000)));
        assert_eq!(b.loop_ns_per_tick, 10.0);
        assert_eq!(b.row("step"), 3.0);
        assert_eq!(b.row("probe"), 1.0);
        assert_eq!(b.row("bookkeeping"), 2.0);
        // 10 ns/exec × 10 execs over 1000 ticks, etc.
        assert_eq!(b.row("mutate"), 0.1);
        assert_eq!(b.row("corpus"), 0.05);
        // 100 ns/case × 2 emitted cases over 1000 ticks.
        assert_eq!(b.row("provenance"), 0.2);
        assert!((b.residual() - 3.65).abs() < 1e-9);
        let total: f64 = b.rows.iter().map(|r| r.ns_per_tick).sum::<f64>() + b.residual();
        assert!((total - b.loop_ns_per_tick).abs() < 1e-9);
        assert_eq!(
            (b.mutate_ns_per_exec, b.corpus_ns_per_exec, b.replay_ns_per_case),
            (10.0, 5.0, 100.0)
        );
        assert!(b.closes());
        assert!(b.table().contains("residual"));
    }

    #[test]
    fn models_are_weighted_by_their_loop_ticks() {
        let mut spans = synthetic(0, 10_000);
        // A second model whose loop is twice as slow per tick, with
        // identical layer costs: only the residual differs.
        spans.extend(synthetic(1, 20_000));
        let b = Budget::from_trace(&trace(spans));
        assert_eq!(b.loop_ns_per_tick, 15.0);
        assert_eq!(b.row("step"), 3.0);
        assert!((b.residual() - 8.65).abs() < 1e-9);
        assert_eq!(b.loop_work, Work { execs: 20, ticks: 2000, cases: 4 });
    }

    #[test]
    fn overcounting_rows_fail_to_close() {
        // A 5 µs campaign (5 ns/tick) cannot hold 6.35 ns/tick of rows.
        let b = Budget::from_trace(&trace(synthetic(0, 5_000)));
        assert!(b.residual() < 0.0);
        assert!(b.residual() < -b.tolerance());
        assert!(!b.closes());
    }
}
