//! Regenerates the paper's **Figure 7**: Decision Coverage (%) versus time
//! (s) for SLDV, SimCoTest, and CFTCG on each benchmark model, as CSV
//! series (one stanza per model) plus a coarse ASCII sparkline.
//!
//! Pass `--workers N` to run the CFTCG series with the sharded parallel
//! engine; the baselines stay sequential.
//!
//! ```sh
//! CFTCG_BUDGET_MS=3000 cargo run --release -p cftcg-bench --bin fig7
//! ```

use cftcg_baselines::coverage_series;
use cftcg_bench::{run_tool_with_workers, Tool};
use cftcg_telemetry::Event;

fn main() {
    let budget = cftcg_bench::budget();
    let workers = cftcg_bench::workers();
    // With CFTCG_STATS_JSONL set, every series point is also logged as a
    // `bench-point` event through the shared telemetry sink, so figure
    // tooling can consume the same JSONL stream as fuzzing campaigns.
    let telemetry = cftcg_bench::telemetry_from_env();
    let tools = [Tool::Sldv, Tool::SimCoTest, Tool::Cftcg];
    for (model, compiled) in cftcg_bench::compiled_benchmarks() {
        let branch_count = compiled.map().branch_count() as f64;
        println!("# model: {} ({} branches)", model.name(), branch_count);
        println!("tool,time_s,decision_coverage_pct");
        let mut finals = Vec::new();
        for tool in tools {
            let generation = run_tool_with_workers(tool, &model, &compiled, budget, 0, workers);
            let series = coverage_series(&compiled, &generation);
            for (at, covered) in &series {
                println!(
                    "{},{:.3},{:.1}",
                    tool.name(),
                    at.as_secs_f64(),
                    100.0 * *covered as f64 / branch_count
                );
                if let Some(t) = &telemetry {
                    t.emit(&Event::BenchPoint {
                        tool: tool.name().to_string(),
                        model: model.name().to_string(),
                        t: at.as_secs_f64(),
                        covered: *covered,
                        total: branch_count as usize,
                    });
                }
            }
            finals.push((tool, series.last().map_or(0, |&(_, c)| c)));
        }
        print!("# finals:");
        for (tool, covered) in finals {
            print!(" {}={:.0}%", tool.name(), 100.0 * covered as f64 / branch_count);
        }
        println!("\n");
    }
    if let Some(t) = &telemetry {
        t.flush();
    }
}
