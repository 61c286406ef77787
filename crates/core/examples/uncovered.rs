//! Lists the branch probes a CFTCG fuzzing run fails to cover on a
//! benchmark model — the triage loop used while tuning the fuzzer.
//!
//! ```sh
//! cargo run --release -p cftcg-core --example uncovered -- TCP 10000 [seed]
//! ```

use cftcg_codegen::compile;
use cftcg_core::Cftcg;
use cftcg_coverage::FullTracker;
use std::time::Duration;
fn main() {
    let name = std::env::args().nth(1).unwrap_or("TCP".into());
    let ms: u64 = std::env::args().nth(2).map(|s| s.parse().unwrap()).unwrap_or(5000);
    let model = cftcg_benchmarks::by_name(&name).unwrap();
    let compiled = compile(&model).unwrap();
    let tool = Cftcg::new(&model).unwrap();
    let seed: u64 = std::env::args().nth(3).map(|s| s.parse().unwrap()).unwrap_or(0);
    let g = tool.generate(Duration::from_millis(ms), seed);
    let mut tracker = FullTracker::new(compiled.map());
    for case in &g.suite {
        cftcg_codegen::replay_case(&compiled, case, &mut tracker);
    }
    println!("covered {}/{}", tracker.branch_hits().count(), compiled.map().branch_count());
    for (i, b) in compiled.map().branches().iter().enumerate() {
        if !tracker.branch_hit(i) {
            println!("  MISS {}", b.label);
        }
    }
}
