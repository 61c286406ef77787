//! Times the fuzz loop's layers in isolation, through public calls only,
//! over one model's replay set.
//!
//! The replay set is a seeded sample of children that the public `Mutator`
//! produces from a campaign's own suite, so it has the input lengths the
//! loop executes. Every row of the budget (see `budget.rs`) is timed over
//! this same set, `reps` times, interleaved so drift hits all rows alike.

use std::collections::HashSet;
use std::hint::black_box;

use cftcg_codegen::{CompiledModel, Engine, Executor, TestCase, TupleLayout};
use cftcg_coverage::{BranchBitmap, BranchId, FullTracker, NullRecorder, Recorder};
use cftcg_fuzz::{Corpus, CorpusEntry, FuzzConfig, Mutator};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::budget::{BOOKKEEPING, CORPUS, MUTATE, PROBE, REPLAY, STEP};
use crate::trace::{Tracer, Work};

/// Collects the comparison operands a suite's execution observes — the
/// values the loop's compare dictionary holds (same admission filter,
/// deduplicated, at most 512 pairs).
#[derive(Default)]
struct CompareLog {
    pairs: Vec<(f64, f64)>,
    seen: HashSet<(u64, u64)>,
}

impl Recorder for CompareLog {
    const OBSERVES_CONDITIONS: bool = false;
    const OBSERVES_DECISIONS: bool = false;
    const OBSERVES_ASSERTIONS: bool = false;

    fn branch(&mut self, _: BranchId) {}

    fn compare(&mut self, lhs: f64, rhs: f64) {
        let trivial = lhs.abs() <= 1.0 && rhs.abs() <= 1.0;
        let admit =
            lhs.is_finite() && rhs.is_finite() && lhs != rhs && !trivial && self.pairs.len() < 512;
        if admit && self.seen.insert((lhs.to_bits(), rhs.to_bits())) {
            self.pairs.push((lhs, rhs));
        }
    }
}

/// Runs `data` from a reset executor, one step per tuple (capped like the
/// loop); returns the ticks run.
fn run_case<R: Recorder>(
    exec: &mut Executor<'_>,
    layout: &TupleLayout,
    data: &[u8],
    cap: usize,
    recorder: &mut R,
) -> u64 {
    exec.reset();
    let tuples = layout.split(data).take(cap);
    let ticks = tuples.len() as u64;
    for tuple in tuples {
        exec.step_tuple(tuple, recorder);
    }
    ticks
}

/// Algorithm 1 lines 11–19 over one case; returns (new branches, metric).
fn bookkeeping(
    exec: &mut Executor<'_>,
    layout: &TupleLayout,
    data: &[u8],
    cap: usize,
    curr: &mut BranchBitmap,
    last: &mut BranchBitmap,
    total: &mut BranchBitmap,
) -> (usize, usize) {
    exec.reset();
    last.clear();
    let (mut new_branches, mut metric) = (0, 0);
    for tuple in layout.split(data).take(cap) {
        curr.clear();
        exec.step_tuple(tuple, curr);
        new_branches += curr.merge_into(total);
        metric += curr.diff_count(last);
        last.copy_from(curr);
    }
    (new_branches, metric)
}

/// Times every layer row for one model (`tag`) over a replay set of
/// `children` inputs derived from `suite` with `seed`.
pub fn time_layers(
    tr: &mut Tracer,
    compiled: &CompiledModel,
    suite: &[TestCase],
    seed: u64,
    tag: usize,
    children: usize,
    reps: usize,
) {
    if suite.is_empty() || children == 0 {
        return;
    }
    let config = FuzzConfig::default();
    let cap = config.max_iterations_per_input;
    let layout = compiled.layout();
    let branches = compiled.map().branch_count();
    let mut exec = Executor::with_engine(compiled, Engine::best());

    // The compare dictionary the suite's execution would leave behind.
    let mut log = CompareLog::default();
    for case in suite {
        run_case(&mut exec, layout, &case.bytes, cap, &mut log);
    }

    // Parents, crossover partners and stacked rounds, drawn up front.
    let mut draw = SmallRng::seed_from_u64(seed);
    let pick = |rng: &mut SmallRng| (rng.next_u64() % suite.len() as u64) as usize;
    let plan: Vec<(usize, usize, u32)> = (0..children)
        .map(|_| (pick(&mut draw), pick(&mut draw), 1 + draw.next_u32() % 4))
        .collect();
    let mut mutator = Mutator::new(layout.clone(), config.max_tuples);
    mutator.field_aware = config.field_aware;
    let mutate_seed = draw.next_u64();
    let mutate_all = |tr: &mut Tracer| {
        let mut set: Vec<Vec<u8>> = plan.iter().map(|&(p, _, _)| suite[p].bytes.clone()).collect();
        let mut rng = SmallRng::seed_from_u64(mutate_seed);
        let open = tr.begin(MUTATE, tag);
        for (data, &(_, other, rounds)) in set.iter_mut().zip(&plan) {
            for _ in 0..rounds {
                black_box(mutator.mutate_with_dictionary(
                    &mut rng,
                    data,
                    Some(&suite[other].bytes),
                    &log.pairs,
                ));
            }
        }
        tr.end(open, Work { execs: children as u64, ..Work::default() });
        set
    };
    let set = mutate_all(&mut Tracer::new(false));
    let ticks: u64 = set.iter().map(|d| layout.split(d).len().min(cap) as u64).sum();
    let pass = Work { execs: children as u64, ticks, cases: 0 };

    // Untimed preparation: the suite's coverage (the loop's plateau), each
    // suite entry's corpus score, and each child's metric.
    let mut curr = BranchBitmap::new(branches);
    let mut last = BranchBitmap::new(branches);
    let mut plateau = BranchBitmap::new(branches);
    let mut base = Corpus::new(config.corpus_capacity);
    for (i, case) in suite.iter().enumerate() {
        let (new_branches, metric) =
            bookkeeping(&mut exec, layout, &case.bytes, cap, &mut curr, &mut last, &mut plateau);
        base.insert(CorpusEntry { id: i as u64, bytes: case.bytes.clone(), metric, new_branches });
    }
    let offset = suite.len() as u64;
    let metrics: Vec<usize> = set
        .iter()
        .map(|d| {
            bookkeeping(&mut exec, layout, d, cap, &mut curr, &mut last, &mut plateau.clone()).1
        })
        .collect();
    // Fill the corpus to its steady state, as on a plateau.
    for (i, (data, &metric)) in set.iter().zip(&metrics).enumerate() {
        let id = offset + i as u64;
        base.insert(CorpusEntry { id, bytes: data.clone(), metric, new_branches: 0 });
    }

    for _ in 0..reps {
        let open = tr.begin(STEP, tag);
        for data in &set {
            run_case(&mut exec, layout, data, cap, &mut NullRecorder);
        }
        tr.end(open, pass);

        let open = tr.begin(PROBE, tag);
        for data in &set {
            run_case(&mut exec, layout, data, cap, &mut curr);
        }
        tr.end(open, pass);
        black_box(curr.count());

        let mut total = plateau.clone();
        let open = tr.begin(BOOKKEEPING, tag);
        let mut sum = 0;
        for data in &set {
            sum += bookkeeping(&mut exec, layout, data, cap, &mut curr, &mut last, &mut total).1;
        }
        tr.end(open, pass);
        black_box(sum);

        mutate_all(tr);

        let mut corpus = base.clone();
        let entries: Vec<CorpusEntry> = set
            .iter()
            .zip(&metrics)
            .enumerate()
            .map(|(i, (data, &metric))| CorpusEntry {
                id: offset + (children + i) as u64,
                bytes: data.clone(),
                metric,
                new_branches: 0,
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(mutate_seed);
        let open = tr.begin(CORPUS, tag);
        for entry in entries {
            black_box(corpus.pick(&mut rng).map(|e| e.id));
            black_box(corpus.pick_other(&mut rng).map(|e| e.id));
            // The loop offers an input to the corpus only when it scored.
            if entry.metric > 0 {
                black_box(corpus.insert(entry));
            }
        }
        tr.end(open, Work { execs: children as u64, ..Work::default() });

        let open = tr.begin(REPLAY, tag);
        let mut replay_ticks = 0;
        for case in suite {
            let mut tracker = FullTracker::new(compiled.map());
            replay_ticks += run_case(&mut exec, layout, &case.bytes, cap, &mut tracker);
            black_box(&tracker);
        }
        tr.end(open, Work { execs: 0, ticks: replay_ticks, cases: suite.len() as u64 });
    }
}
