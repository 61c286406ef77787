//! The `cftcg` binary refuses a `CFTCG_ENGINE` value it does not know
//! instead of silently running the default engine.

use std::process::{Command, Output};

fn fuzz_with_engine(value: &str) -> Output {
    let model = concat!(env!("CARGO_MANIFEST_DIR"), "/models/twc.mdlx");
    Command::new(env!("CARGO_BIN_EXE_cftcg"))
        .args(["fuzz", model, "--budget-ms", "50", "--seed", "1"])
        .env("CFTCG_ENGINE", value)
        .output()
        .expect("cftcg runs")
}

#[test]
fn unknown_engine_values_are_rejected() {
    for value in ["batch", "batch:8", "btach", ""] {
        let out = fuzz_with_engine(value);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "CFTCG_ENGINE={value:?} was accepted: {stderr}");
        assert!(
            stderr.contains("CFTCG_ENGINE") && stderr.contains("ref|reference|flat|jit"),
            "CFTCG_ENGINE={value:?}: unexpected message {stderr:?}"
        );
    }
}

#[test]
fn known_engine_values_run() {
    for (value, name) in [("flat", "flat"), ("REF", "ref")] {
        let out = fuzz_with_engine(value);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "CFTCG_ENGINE={value}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains(&format!("engine: {name}")), "CFTCG_ENGINE={value}: {stdout}");
    }
}
