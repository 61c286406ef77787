//! Static opcode histograms of the flattened benchmark programs — the
//! profile that drives fusion decisions in the flattening back-end (which
//! adjacent op pairs are frequent enough to deserve a fused opcode) — plus
//! the native code-size stats of the JIT tier when this build carries one.
//!
//! ```sh
//! cargo run --release -p cftcg-bench --bin flat_histo [model ...]
//! ```

use cftcg_codegen::Engine;

fn main() {
    let requested: Vec<String> = std::env::args().skip(1).collect();

    println!(
        "engine: best available = {} (jit {})",
        Engine::best(),
        if Engine::jit_supported() { "supported" } else { "not supported on this build/host" }
    );
    for model in cftcg_benchmarks::all() {
        let name = model.name().to_string();
        if !requested.is_empty() && !requested.iter().any(|m| m == &name) {
            continue;
        }
        let compiled = cftcg_codegen::compile(&model).unwrap();
        let (len, probe_ops) = compiled.flat_lens();
        println!("{name} ({len} flat ops, {probe_ops} emit recorder events):");
        for (op, count) in compiled.flat_histogram() {
            println!("  {op:<18} {count}");
        }
        println!("  top adjacent pairs:");
        let pairs = compiled.flat_pair_histogram();
        for (pair, count) in &pairs[..pairs.len().min(12)] {
            println!("  {pair:<32} {count}");
        }
        match compiled.jit_stats() {
            Some(stats) => {
                println!("  jit: {} blocks / {} bytes", stats.blocks, stats.code_bytes)
            }
            None => println!("  jit: unavailable (feature disabled or unsupported host)"),
        }
    }
}
