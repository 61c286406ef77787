//! Regenerates the paper's §4 speed observations on SolarPV:
//!
//! * "SimCoTest can only execute 6 iterations per second, CFTCG achieved a
//!   superfast speed of over 26,000 iterations per second" — we measure the
//!   compiled fuzzing loop, the raw interpreter, and the interpreter with
//!   the calibrated Simulink-engine overhead model;
//! * "its memory usage exceeded 12 GB" — we report the SLDV-like search's
//!   state-space growth against its budget.
//!
//! Worker scaling is measured by the loop benchmark (`loopbench/`): its
//! traced runs report `parallel.scaling` and `parallel.sync_pct`.
//!
//! ```sh
//! cargo run --release -p cftcg-bench --bin speed
//! ```

use std::time::{Duration, Instant};

use cftcg_baselines::sldv;
use cftcg_bench::paper;
use cftcg_codegen::compile;
use cftcg_core::Cftcg;
use cftcg_model::Value;
use cftcg_sim::Simulator;

fn sim_rate(sim: &mut Simulator, budget: Duration) -> f64 {
    let tuple = vec![Value::I8(1), Value::I32(1000), Value::I32(1)];
    let started = Instant::now();
    let mut iters = 0u64;
    while started.elapsed() < budget {
        sim.step(&tuple).expect("solar pv steps");
        iters += 1;
    }
    iters as f64 / started.elapsed().as_secs_f64()
}

fn main() {
    let model = cftcg_benchmarks::solar_pv::model();
    let compiled = compile(&model).expect("solar pv compiles");
    let budget = cftcg_bench::budget().min(Duration::from_secs(3));

    // Compiled model-oriented fuzzing loop (mutation + coverage included).
    let tool = Cftcg::new(&model).expect("solar pv compiles");
    let generation = tool.generate(budget, 0);
    let fuzz_rate = generation.iterations_per_second();

    // Interpretive simulation, raw and with the engine-overhead model.
    let mut sim = Simulator::new(&model).expect("solar pv validates");
    let raw_rate = sim_rate(&mut sim, budget / 2);
    sim.set_engine_overhead(25_000);
    let modeled_rate = sim_rate(&mut sim, budget / 2);
    sim.set_engine_overhead(350_000);
    let calibrated_rate = sim_rate(&mut sim, budget / 2);

    println!("SolarPV iteration throughput:");
    println!("  compiled fuzzing loop : {fuzz_rate:>12.0} iterations/s");
    println!(
        "  interpreter (raw)     : {raw_rate:>12.0} iterations/s  (×{:.0} slower)",
        fuzz_rate / raw_rate
    );
    println!(
        "  interpreter (modelled): {modeled_rate:>12.0} iterations/s  (×{:.0} slower)",
        fuzz_rate / modeled_rate
    );
    println!(
        "  interpreter (paper-calibrated overhead): {calibrated_rate:>8.0} iterations/s  (×{:.0} slower)",
        fuzz_rate / calibrated_rate
    );
    println!(
        "  paper                 : {:>12.0} vs {:.0} iterations/s  (×{:.0})",
        paper::SOLARPV_CFTCG_ITERS_PER_SEC,
        paper::SOLARPV_SIMCOTEST_ITERS_PER_SEC,
        paper::SOLARPV_CFTCG_ITERS_PER_SEC / paper::SOLARPV_SIMCOTEST_ITERS_PER_SEC
    );

    // SLDV state-space growth.
    println!("\nSLDV-like bounded search on SolarPV:");
    for states_budget in [2_000usize, 20_000, 100_000] {
        let config = sldv::SldvConfig {
            state_budget: states_budget,
            budget: Duration::from_secs(5),
            ..Default::default()
        };
        let generation = sldv::generate(&model, &compiled, &config);
        println!("  budget {states_budget:>7} states -> {}", generation.notes);
    }
    println!(
        "  (the paper observed SLDV exceeding 12 GB on this model; the \
         explicit frontier grows the same way until its budget trips)"
    );
}
