//! Benchmarks the execution tiers — reference tree walker, optimized flat
//! VM, and (where the build carries it) the native x86-64 JIT — on every
//! bundled benchmark model and writes the machine-readable
//! `results/BENCH_vm.json`: `run_case` iterations/s per engine, the
//! speedups, and the mid-end's per-pass instruction/register reductions.
//!
//! Two more columns measure the JIT the way the fuzz loop runs it, on the
//! loop's own kind of input — the suite a fixed-seed campaign emits — under
//! a loop-shaped recorder (Algorithm 1's branch flags plus a TORC ring
//! deduplicated by a `CompareTable`): once with the recorder exposing its
//! compare table to the JIT (`Recorder::compare_table`), once without. The
//! native code size per model is printed beside them.
//!
//! ```sh
//! cargo run --release -p cftcg-bench --bin vm_throughput
//! cargo run --release -p cftcg-bench --bin vm_throughput -- --check
//! ```
//!
//! `--check` additionally enforces the performance contracts and exits
//! nonzero when violated: the flat VM must be at least as fast as the
//! reference walker on *every* model, and at least 2× on SolarPV (the
//! paper's throughput showcase model); when the JIT tier is live, it must
//! additionally be at least as fast as the flat VM on every model and at
//! least 2× on SolarPV, and on SolarPV the loop-shaped rate with the
//! compare-table seam must be at least the rate without it. On hosts
//! without the JIT (non-x86-64, or a `--no-default-features` build) the
//! JIT gates are skipped gracefully.
//!
//! Besides the flat `results/BENCH_vm.json` snapshot (clobbered per run),
//! every run appends a timestamped record to `results/history/vm.jsonl`;
//! `--check-regress` gates the new point against the trailing median of
//! that history (>15% throughput drop fails) and exits non-zero on
//! regression.

use std::time::{Duration, Instant};

use cftcg_codegen::{compile, CompiledModel, Engine, Executor, TestCase};
use cftcg_coverage::{BranchBitmap, BranchId, CompareTable, Recorder};
use cftcg_fuzz::{FuzzConfig, Fuzzer};

/// Ticks per measured case: long enough that per-case reset cost is noise.
const CASE_TICKS: usize = 64;

/// Deterministic pseudo-random case bytes (an xorshift; no RNG dependency
/// in the binary target, and identical streams on every host).
fn case_for(compiled: &CompiledModel, seed: u64) -> TestCase {
    let size = compiled.layout().tuple_size().max(1);
    let mut x = seed | 1;
    let bytes = (0..size * CASE_TICKS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    TestCase::new(bytes)
}

/// Measurement slices per engine. Engines are measured round-robin (one
/// slice each, repeated) and each engine reports its *best* slice: a
/// transient host slowdown then hits all engines near-equally and the
/// affected slices are discarded symmetrically, stabilizing the ratio.
const ROUNDS: u32 = 4;

/// Whole-case iterations/s of one executor over one `slice` of wall-clock.
fn slice_rate<R: cftcg_coverage::Recorder>(
    exec: &mut Executor<'_>,
    case: &TestCase,
    recorder: &mut R,
    slice: Duration,
) -> f64 {
    let started = Instant::now();
    let mut cases = 0u64;
    while started.elapsed() < slice {
        exec.run_case(case, recorder);
        cases += 1;
    }
    cases as f64 / started.elapsed().as_secs_f64()
}

/// Executions of the fixed-seed campaign whose emitted suite feeds the
/// loop-shaped columns.
const SUITE_EXECUTIONS: u64 = 3_000;

/// The fuzz loop's recorder shape: Algorithm 1's branch flags plus a TORC
/// ring of admissible compare pairs, deduplicated by a [`CompareTable`].
/// With `SEAM` the table is exposed to the JIT, which then calls back only
/// for pairs the ring does not hold yet.
struct LoopShaped<const SEAM: bool> {
    flags: BranchBitmap,
    table: CompareTable,
    ring: Vec<(f64, f64)>,
    next_evict: usize,
}

impl<const SEAM: bool> LoopShaped<SEAM> {
    /// The fuzz loop's TORC ring size.
    const CAPACITY: usize = 512;

    fn new(branches: usize) -> Self {
        LoopShaped {
            flags: BranchBitmap::new(branches),
            table: CompareTable::new(),
            ring: Vec::new(),
            next_evict: 0,
        }
    }
}

impl<const SEAM: bool> Recorder for LoopShaped<SEAM> {
    const OBSERVES_CONDITIONS: bool = false;
    const OBSERVES_DECISIONS: bool = false;

    fn branch(&mut self, id: BranchId) {
        self.flags.branch(id);
    }

    fn branch_flags(&mut self) -> Option<&mut [u8]> {
        self.flags.branch_flags()
    }

    fn compare(&mut self, lhs: f64, rhs: f64) {
        if !CompareTable::admissible(lhs, rhs) || !self.table.insert(lhs, rhs) {
            return;
        }
        if self.ring.len() == Self::CAPACITY {
            let (l, r) = std::mem::replace(&mut self.ring[self.next_evict], (lhs, rhs));
            self.table.remove(l, r);
            self.next_evict = (self.next_evict + 1) % Self::CAPACITY;
        } else {
            self.ring.push((lhs, rhs));
        }
    }

    fn compare_table(&mut self) -> Option<&CompareTable> {
        SEAM.then_some(&self.table)
    }
}

/// Ticks/s of one executor replaying `suite` round-robin over one `slice`.
fn suite_slice_rate<R: Recorder>(
    exec: &mut Executor<'_>,
    suite: &[TestCase],
    recorder: &mut R,
    slice: Duration,
) -> f64 {
    let started = Instant::now();
    let mut ticks = 0usize;
    while started.elapsed() < slice {
        for case in suite {
            ticks += exec.run_case(case, recorder);
        }
    }
    ticks as f64 / started.elapsed().as_secs_f64()
}

/// Loop-shaped JIT rates on a campaign's emitted suite.
struct LoopRates {
    /// Ticks/s with the recorder's compare table exposed to the JIT.
    seam: f64,
    /// Ticks/s with the same recorder, table not exposed.
    no_seam: f64,
    suite_cases: usize,
    suite_ticks: usize,
    code_bytes: usize,
}

struct Row {
    model: &'static str,
    reference: f64,
    flat: f64,
    /// Best JIT slice, or `None` when the tier is unavailable on this build.
    jit: Option<f64>,
    /// Loop-shaped JIT rates, or `None` when the tier is unavailable.
    looped: Option<LoopRates>,
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let budget = cftcg_bench::budget().min(Duration::from_secs(2)) / 3;

    println!("run_case throughput, reference tree walker vs optimized flat VM:");
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for model in cftcg_benchmarks::all() {
        let compiled = compile(&model).expect("benchmark compiles");
        let case = case_for(&compiled, 0x5EED_CF7C);
        let branches = compiled.map().branch_count();

        let mut reference = Executor::new_reference(&compiled);
        let mut flat = Executor::new(&compiled);
        let mut jit = Executor::new_jit(&compiled);
        // `new_jit` silently falls back to the flat VM when the tier is
        // unavailable; measure it only when native code actually runs.
        let jit_live = jit.engine() == Engine::Jit;
        // Warm-up passes so lazily-faulted pages don't bill the first slice.
        reference.run_case(&case, &mut BranchBitmap::new(branches));
        flat.run_case(&case, &mut BranchBitmap::new(branches));
        if jit_live {
            jit.run_case(&case, &mut BranchBitmap::new(branches));
        }

        // The loop's own inputs: the suite a fixed-seed JIT campaign emits.
        let suite = if jit_live {
            let config = FuzzConfig { seed: 1, engine: Some(Engine::Jit), ..FuzzConfig::default() };
            Fuzzer::new(&compiled, config).run_executions(SUITE_EXECUTIONS).suite
        } else {
            Vec::new()
        };
        let (mut with_seam, mut without_seam) =
            (LoopShaped::<true>::new(branches), LoopShaped::<false>::new(branches));
        for case in &suite {
            jit.run_case(case, &mut with_seam);
            jit.run_case(case, &mut without_seam);
        }

        let slice = budget / ROUNDS;
        let (mut ref_rate, mut flat_rate, mut jit_rate) = (0.0f64, 0.0f64, 0.0f64);
        let (mut seam_rate, mut no_seam_rate) = (0.0f64, 0.0f64);
        for _ in 0..ROUNDS {
            ref_rate = ref_rate.max(slice_rate(
                &mut reference,
                &case,
                &mut BranchBitmap::new(branches),
                slice,
            ));
            flat_rate = flat_rate.max(slice_rate(
                &mut flat,
                &case,
                &mut BranchBitmap::new(branches),
                slice,
            ));
            if jit_live {
                jit_rate = jit_rate.max(slice_rate(
                    &mut jit,
                    &case,
                    &mut BranchBitmap::new(branches),
                    slice,
                ));
            }
            if !suite.is_empty() {
                seam_rate =
                    seam_rate.max(suite_slice_rate(&mut jit, &suite, &mut with_seam, slice));
                no_seam_rate =
                    no_seam_rate.max(suite_slice_rate(&mut jit, &suite, &mut without_seam, slice));
            }
        }
        let looped = compiled.jit_stats().filter(|_| !suite.is_empty()).map(|stats| LoopRates {
            seam: seam_rate,
            no_seam: no_seam_rate,
            suite_cases: suite.len(),
            suite_ticks: suite.iter().map(|c| compiled.layout().split(&c.bytes).len()).sum(),
            code_bytes: stats.code_bytes,
        });

        let stats = compiled.opt_stats();
        let (flat_ops, probe_ops) = compiled.flat_lens();
        let name: &'static str = Box::leak(model.name().to_string().into_boxed_str());
        let jit_col = if jit_live {
            format!(" -> jit {jit_rate:>9.0} (x{:.2})", jit_rate / flat_rate)
        } else {
            String::new()
        };
        let loop_line = match &looped {
            Some(l) => format!(
                "\n            loop-shaped jit on {} suite cases: {:.0} ticks/s with the \
                 compare-table seam, {:.0} without (x{:.2}); code {} bytes",
                l.suite_cases,
                l.seam,
                l.no_seam,
                l.seam / l.no_seam,
                l.code_bytes
            ),
            None => String::new(),
        };
        println!(
            "  {name:>8}: {ref_rate:>9.0} -> {flat_rate:>9.0} cases/s (x{:.2}){jit_col}, \
             instrs {} -> {} (lvn {}, dce -{}), regs {} -> {}{loop_line}",
            flat_rate / ref_rate,
            stats.instrs_before,
            stats.instrs_after_dce,
            stats.instrs_after_lvn,
            stats.instrs_removed,
            stats.regs_before,
            stats.regs_after,
        );
        let jit_fields = if jit_live {
            format!(
                "\"jit_cases_per_sec\": {jit_rate:.1}, \"jit_speedup\": {:.3}, ",
                jit_rate / flat_rate
            )
        } else {
            "\"jit_cases_per_sec\": null, \"jit_speedup\": null, ".to_string()
        };
        let loop_fields = match &looped {
            Some(l) => format!(
                "\"jit_code_bytes\": {}, \"loop_suite_cases\": {}, \"loop_suite_ticks\": {}, \
                 \"loop_seam_ticks_per_sec\": {:.1}, \"loop_no_seam_ticks_per_sec\": {:.1}, \
                 \"loop_seam_speedup\": {:.3}, ",
                l.code_bytes,
                l.suite_cases,
                l.suite_ticks,
                l.seam,
                l.no_seam,
                l.seam / l.no_seam
            ),
            None => "\"jit_code_bytes\": null, \"loop_suite_cases\": null, \
                     \"loop_suite_ticks\": null, \"loop_seam_ticks_per_sec\": null, \
                     \"loop_no_seam_ticks_per_sec\": null, \"loop_seam_speedup\": null, "
                .to_string(),
        };
        entries.push(format!(
            "    {{\"model\": \"{name}\", \"reference_cases_per_sec\": {ref_rate:.1}, \
             \"flat_cases_per_sec\": {flat_rate:.1}, \
             {jit_fields}{loop_fields}\
             \"speedup\": {:.3}, \"case_ticks\": {CASE_TICKS}, \
             \"opt\": {{\"instrs_before\": {}, \"instrs_after_lvn\": {}, \
             \"instrs_after_dce\": {}, \"instrs_removed\": {}, \"consts_folded\": {}, \
             \"branches_folded\": {}, \"cse_hits\": {}, \"operands_forwarded\": {}, \
             \"bools_reduced\": {}, \"regs_before\": {}, \"regs_after\": {}, \
             \"flat_ops\": {flat_ops}, \"probe_ops\": {probe_ops}}}}}",
            flat_rate / ref_rate,
            stats.instrs_before,
            stats.instrs_after_lvn,
            stats.instrs_after_dce,
            stats.instrs_removed,
            stats.consts_folded,
            stats.branches_folded,
            stats.cse_hits,
            stats.operands_forwarded,
            stats.bools_reduced,
            stats.regs_before,
            stats.regs_after,
        ));
        rows.push(Row {
            model: name,
            reference: ref_rate,
            flat: flat_rate,
            jit: jit_live.then_some(jit_rate),
            looped,
        });
    }

    let host = cftcg_telemetry::host_metadata_json(Some(budget.as_millis() as u64));
    let json = format!(
        "{{\n  \"bench\": \"vm_throughput\",\n  \"budget_ms_per_engine\": {},\n  \
         \"engine_best\": \"{}\",\n  \"jit_available\": {},\n  \
         \"host\": {host},\n  \"results\": [\n{}\n  ]\n}}\n",
        budget.as_millis(),
        Engine::best().name(),
        Engine::jit_supported(),
        entries.join(",\n")
    );
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    match std::fs::write(dir.join("BENCH_vm.json"), &json) {
        Ok(()) => println!("  wrote results/BENCH_vm.json"),
        Err(e) => eprintln!("  could not write results/BENCH_vm.json: {e}"),
    }

    // Append-only history + the optional `--check-regress` gate: per-model
    // per-engine throughput. No coverage axis here — this bench measures
    // raw executor speed only.
    let mut throughput = Vec::new();
    for row in &rows {
        throughput.push((format!("{}/ref", row.model), row.reference));
        throughput.push((format!("{}/flat", row.model), row.flat));
        if let Some(jit) = row.jit {
            throughput.push((format!("{}/jit", row.model), jit));
        }
        if let Some(l) = &row.looped {
            throughput.push((format!("{}/loop_seam", row.model), l.seam));
            throughput.push((format!("{}/loop_no_seam", row.model), l.no_seam));
        }
    }
    let record = cftcg_compare::HistoryRecord {
        t_unix: cftcg_bench::unix_now(),
        bench: "vm".to_string(),
        throughput,
        coverage: Vec::new(),
    };
    if !cftcg_bench::record_history(&record) {
        eprintln!("vm_throughput --check-regress FAILED (see violations above)");
        std::process::exit(1);
    }

    if check {
        let mut violations = Vec::new();
        for row in &rows {
            if row.flat < row.reference {
                violations.push(format!(
                    "{}: flat VM slower than reference ({:.0} vs {:.0} cases/s)",
                    row.model, row.flat, row.reference
                ));
            }
        }
        if let Some(solar) = rows.iter().find(|r| r.model == "SolarPV") {
            let speedup = solar.flat / solar.reference;
            if speedup < 2.0 {
                violations.push(format!(
                    "SolarPV: optimized VM only x{speedup:.2} over the reference (need >= 2.0)"
                ));
            }
        } else {
            violations.push("SolarPV missing from the benchmark sweep".to_string());
        }
        let jit_checked = rows.iter().any(|r| r.jit.is_some());
        if jit_checked {
            for row in &rows {
                let Some(jit) = row.jit else { continue };
                if jit < row.flat {
                    violations.push(format!(
                        "{}: JIT slower than flat VM ({:.0} vs {:.0} cases/s)",
                        row.model, jit, row.flat
                    ));
                }
            }
            if let Some(solar) = rows.iter().find(|r| r.model == "SolarPV") {
                if let Some(jit) = solar.jit {
                    let speedup = jit / solar.flat;
                    if speedup < 2.0 {
                        violations.push(format!(
                            "SolarPV: JIT only x{speedup:.2} over the flat VM (need >= 2.0)"
                        ));
                    }
                }
                if let Some(l) = &solar.looped {
                    if l.seam < l.no_seam {
                        violations.push(format!(
                            "SolarPV: loop-shaped JIT slower with the compare-table seam \
                             ({:.0} vs {:.0} ticks/s)",
                            l.seam, l.no_seam
                        ));
                    }
                }
            }
        } else {
            println!(
                "vm_throughput --check: JIT tier unavailable on this build/host, \
                 skipping the jit >= flat gates"
            );
        }
        if !violations.is_empty() {
            eprintln!("vm_throughput --check FAILED:");
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
        if jit_checked {
            println!(
                "vm_throughput --check passed: flat >= reference and jit >= flat everywhere, \
                 SolarPV >= 2x on both tiers, SolarPV loop-shaped seam >= no seam"
            );
        } else {
            println!("vm_throughput --check passed: flat >= reference everywhere, SolarPV >= 2x");
        }
    }
}
