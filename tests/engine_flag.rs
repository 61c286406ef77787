//! The engine is an argument: `--engine` on `fuzz`, `audit` and `trace`,
//! the `engine=` key of a `cftcg ab` variant. An unknown name is refused
//! with the accepted list. Every run sets `CFTCG_ENGINE=flat`, which
//! nothing reads any more.

use std::process::Output;

use cftcg::codegen::Engine;

fn cftcg(args: &[&str]) -> Output {
    // `ab` mirrors its HTML report under the working directory.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("engine_flag");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let model = format!("{}/models/{}.mdlx", env!("CARGO_MANIFEST_DIR"), args[1]);
    std::process::Command::new(env!("CARGO_BIN_EXE_cftcg"))
        .arg(args[0])
        .arg(model)
        .args(&args[2..])
        .current_dir(dir)
        .env("CFTCG_ENGINE", "flat")
        .output()
        .expect("cftcg runs")
}

#[test]
fn unknown_engine_values_are_rejected() {
    for command in ["fuzz", "audit", "trace"] {
        for value in ["batch", "jit2", ""] {
            let out = cftcg(&[command, "twc", "c.json", "s0:0", "--engine", value]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} --engine {value:?}: {stderr}");
            assert!(
                stderr.contains("unknown engine") && stderr.contains("ref|reference|flat|jit"),
                "{command} --engine {value:?}: unexpected message {stderr:?}"
            );
        }
    }
}

#[test]
fn known_engine_values_run() {
    for (value, name) in [("ref", "ref"), ("REF", "ref"), ("flat", "flat"), ("jit", "jit")] {
        let out = cftcg(&["fuzz", "twc", "--budget-ms", "50", "--seed", "1", "--engine", value]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "--engine {value}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout.contains(&format!("engine: {name}")), "--engine {value}: {stdout}");
    }
    let out = cftcg(&["audit", "twc", "--cases", "2", "--engine", "ref"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("on the ref engine"), "{out:?}");
}

/// Each `ab` side runs the engine its spec names, or the build's best tier
/// when it names none.
#[test]
fn ab_sides_run_their_own_engines() {
    let out = cftcg(&["ab", "afc", "--b", "engine=ref", "--trials", "1", "--executions", "2000"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "ab: {}", String::from_utf8_lossy(&out.stderr));
    let side = |label: &str| stdout.lines().find(|l| l.starts_with(label)).unwrap_or_default();
    let best = format!("| engine {} |", Engine::best());
    assert!(side("campaign A").contains(&best), "A: {stdout}");
    assert!(side("campaign B").contains("| engine ref |"), "B: {stdout}");
}
