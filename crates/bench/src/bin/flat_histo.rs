//! Static opcode histograms of the flattened benchmark programs — the
//! profile that drives fusion decisions in the flattening back-end (which
//! adjacent op pairs are frequent enough to deserve a fused opcode) — plus
//! the native code-size stats of the JIT tier when this build carries one.
//!
//! ```sh
//! cargo run --release -p cftcg-bench --bin flat_histo [--program N] [model ...]
//! ```
//!
//! `--program 0` selects the instrumented flat program (the default),
//! `--program 1` the probe-stripped variant run under `NullRecorder`.
//! An out-of-range index is reported per model instead of panicking.

use cftcg_codegen::Engine;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut program: usize = 0;
    let mut requested: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--program" {
            match args.get(i + 1).and_then(|v| v.parse().ok()) {
                Some(n) => program = n,
                None => {
                    eprintln!("--program needs a numeric index (0=probed, 1=noprobe)");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else {
            requested.push(args[i].clone());
            i += 1;
        }
    }

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
        let (probed_len, noprobe_len) = compiled.flat_lens();
        let which = if program == 0 { "probed" } else { "noprobe" };
        let Some(histogram) = compiled.flat_histogram_at(program) else {
            println!(
                "{name}: program index {program} out of range (0=probed: {probed_len} ops, \
                 1=noprobe: {noprobe_len} ops)"
            );
            continue;
        };
        let len = if program == 0 { probed_len } else { noprobe_len };
        println!("{name} ({which} program, {len} flat ops):");
        for (op, count) in histogram {
            println!("  {op:<18} {count}");
        }
        println!("  top adjacent pairs:");
        let pairs = compiled.flat_pair_histogram_at(program).expect("index validated above");
        for (pair, count) in &pairs[..pairs.len().min(12)] {
            println!("  {pair:<32} {count}");
        }
        match compiled.jit_stats() {
            Some(stats) => println!(
                "  jit: probed {} blocks / {} bytes, noprobe {} blocks / {} bytes",
                stats.probed_blocks,
                stats.probed_code_bytes,
                stats.noprobe_blocks,
                stats.noprobe_code_bytes
            ),
            None => println!("  jit: unavailable (feature disabled or unsupported host)"),
        }
    }
}
