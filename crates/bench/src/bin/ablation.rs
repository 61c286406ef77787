//! Ablation study (DESIGN.md A1/A2) for CFTCG's two model-oriented design
//! choices, isolating them from each other and from the feedback mode:
//!
//! * **A1** — iteration-difference-coverage corpus priority vs FIFO;
//! * **A2** — field-aware tuple mutation vs blind byte mutation.
//!
//! ```sh
//! CFTCG_BUDGET_MS=3000 cargo run --release -p cftcg-bench --bin ablation
//! ```

use cftcg_baselines::relevance::suggested_input_ranges;
use cftcg_core::Cftcg;
use cftcg_fuzz::FuzzConfig;

/// A named configuration tweak applied on top of the default fuzzer config.
type Variant = (&'static str, fn(FuzzConfig) -> FuzzConfig);

fn main() {
    let budget = cftcg_bench::budget();
    let repeats = cftcg_bench::repeats();
    let variants: [Variant; 4] = [
        ("full CFTCG", |c| c),
        ("A1: FIFO corpus", |mut c| {
            c.metric_weighted_corpus = false;
            c
        }),
        ("A2: byte mutation", |mut c| {
            c.field_aware = false;
            c
        }),
        ("A1+A2 off", |mut c| {
            c.metric_weighted_corpus = false;
            c.field_aware = false;
            c
        }),
    ];
    println!("Ablation ({budget:?} per variant per model, {repeats} seeds averaged)\n");
    println!("{:<9} {:<18} {:>6} {:>6} {:>6}", "Model", "Variant", "DC%", "CC%", "MCDC%");
    for (model, compiled) in cftcg_bench::compiled_benchmarks() {
        let ranges = suggested_input_ranges(&model);
        // The named ablations plus the §5 extension (derived input ranges).
        let mut rows: Vec<(String, Cftcg)> = Vec::new();
        for (name, tweak) in &variants {
            rows.push((
                (*name).to_string(),
                Cftcg::new(&model)
                    .expect("benchmark compiles")
                    .with_config(tweak(FuzzConfig::default())),
            ));
        }
        rows.push((
            "§5: derived ranges".to_string(),
            Cftcg::new(&model)
                .expect("benchmark compiles")
                .with_config(FuzzConfig { input_ranges: Some(ranges), ..FuzzConfig::default() }),
        ));
        for (i, (name, tool)) in rows.iter().enumerate() {
            let mut acc = (0.0, 0.0, 0.0);
            for seed in 0..repeats {
                let generation = tool.generate(budget, seed);
                let report = cftcg_bench::score(&compiled, &generation);
                acc.0 += report.decision.percent();
                acc.1 += report.condition.percent();
                acc.2 += report.mcdc.percent();
            }
            let n = repeats as f64;
            println!(
                "{:<9} {:<18} {:>5.0} {:>5.0} {:>5.0}",
                if i == 0 { model.name() } else { "" },
                name,
                acc.0 / n,
                acc.1 / n,
                acc.2 / n,
            );
        }
    }
}
