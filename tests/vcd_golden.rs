//! Golden-file test of the VCD waveform exporter: tracing a fixed-seed
//! SolarPV test case must serialize byte-identically across runs and
//! machines.
//!
//! The trace pipeline has no wall-clock inputs at all — the VCD timescale
//! is the model tick, the probed values come from the deterministic VM
//! replay, and the id-code assignment follows signal table order — so the
//! whole file is determined by the seed.
//!
//! After an *intentional* change to the VCD serialization, re-bless with:
//!
//! ```text
//! BLESS=1 cargo test --offline --test vcd_golden
//! ```

use std::fs;
use std::path::PathBuf;

use cftcg::codegen::{Engine, TestCase};
use cftcg::trace::{to_vcd, trace_vm_case, ProbeMask};
use cftcg::Cftcg;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace.vcd")
}

#[test]
fn vcd_export_matches_golden() {
    let model = cftcg::benchmarks::solar_pv::model();
    let tool = Cftcg::new(&model).expect("benchmark compiles");
    let generation = tool.generate_executions(3_000, 42);

    // The longest emitted case exercises the change-only dump format over
    // the most ticks; ties break on suite order, which is deterministic.
    let case = generation
        .suite
        .iter()
        .max_by_key(|c| c.bytes.len())
        .expect("fixed-seed campaign emits cases");
    let mask = ProbeMask::outputs(tool.compiled());
    let input = TestCase::new(case.bytes.clone());
    let trace = trace_vm_case(tool.compiled(), Engine::Flat, &input, &mask, 1 << 16);
    assert!(trace.ticks() > 1, "golden case should span several ticks, got {}", trace.ticks());
    assert_eq!(trace.dropped(), 0, "ring must not overflow for the golden case");
    let vcd = to_vcd(&trace, model.name());

    let golden = golden_path();
    if std::env::var_os("BLESS").is_some() {
        fs::write(&golden, &vcd).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!("missing golden file {} (run with BLESS=1 to create): {e}", golden.display())
    });
    if vcd != expected {
        let actual = golden.with_extension("actual.vcd");
        fs::write(&actual, &vcd).expect("write actual");
        panic!(
            "VCD exporter drifted from golden ({} bytes rendered vs {} expected); \
             actual output written to {} — re-bless with BLESS=1 if the change is intentional",
            vcd.len(),
            expected.len(),
            actual.display()
        );
    }
}
