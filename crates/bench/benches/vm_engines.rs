//! Criterion: whole-case execution cost (`Executor::run_case`) of the
//! optimized flat VM vs the reference tree walker — the statistical
//! counterpart to the `vm_throughput` binary's wall-clock sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cftcg_codegen::{compile, CompiledModel, Executor, TestCase};
use cftcg_coverage::BranchBitmap;

/// Ticks per case — matches the `vm_throughput` binary so numbers line up.
const CASE_TICKS: usize = 64;

/// Deterministic pseudo-random case bytes (xorshift, same stream as the
/// `vm_throughput` binary).
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

fn bench_run_case(c: &mut Criterion) {
    for model in cftcg_benchmarks::all() {
        let compiled = compile(&model).expect("benchmark compiles");
        let case = case_for(&compiled, 0x5EED_CF7C);
        let branches = compiled.map().branch_count();
        let mut group = c.benchmark_group(format!("run_case/{}", model.name()));

        let mut exec = Executor::new_reference(&compiled);
        let mut cov = BranchBitmap::new(branches);
        group.bench_function("reference", |b| {
            b.iter(|| black_box(exec.run_case(black_box(&case), &mut cov)));
        });

        let mut exec = Executor::new(&compiled);
        let mut cov = BranchBitmap::new(branches);
        group.bench_function("flat", |b| {
            b.iter(|| black_box(exec.run_case(black_box(&case), &mut cov)));
        });
        group.finish();
    }
}

criterion_group!(benches, bench_run_case);
criterion_main!(benches);
