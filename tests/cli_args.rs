//! The `cftcg` binary refuses what it cannot honour with a message and a
//! plain failure exit, never a silent default or a panic: unknown flags,
//! value flags without a value, and a campaign recorded against another
//! model.

use std::path::PathBuf;
use std::process::{Command, Output};

fn model(name: &str) -> String {
    format!("{}/models/{name}.mdlx", env!("CARGO_MANIFEST_DIR"))
}

fn cftcg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cftcg")).args(args).output().expect("cftcg runs")
}

/// Asserts a refusal: exit code 1 (not a panic's 101), and every `needle`
/// named on stderr.
fn assert_refused(out: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "expected a plain failure exit: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "stderr lacks {needle:?}: {stderr}");
    }
}

#[test]
fn unknown_flags_are_rejected_with_the_accepted_list() {
    let out = cftcg(&["fuzz", &model("solarpv"), "--budget-ms", "1", "--batch", "4"]);
    assert_refused(&out, &["--batch", "--budget-ms", "--workers"]);
    let out = cftcg(&["score", &model("twc"), "--detailed", "--verbose"]);
    assert_refused(&out, &["--verbose", "--detailed"]);
}

#[test]
fn value_flags_without_a_value_are_rejected() {
    let out = cftcg(&["audit", &model("tcp"), "--cases"]);
    assert_refused(&out, &["--cases", "needs a value", "--ticks"]);
    let out = cftcg(&["audit", &model("tcp"), "--cases", "--ticks", "4"]);
    assert_refused(&out, &["--cases", "needs a value"]);
    let out = cftcg(&["audit", &model("tcp"), "--cases", "2", "--ticks", "4", "--seed", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn another_models_campaign_is_refused() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_args_spv");
    let out = cftcg(&[
        "fuzz",
        &model("solarpv"),
        "--budget-ms",
        "200",
        "--seed",
        "1",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let campaign = dir.join("campaign.json");
    let campaign = campaign.to_str().unwrap();
    let tcp = model("tcp");
    let html = dir.join("explorer.html");
    let _ = std::fs::remove_file(&html);

    for args in [
        vec!["diff", &tcp, campaign, campaign, "--allow-mismatch"],
        vec!["explain", &tcp, campaign],
        vec!["trace", &tcp, campaign, "s0:0"],
        vec!["audit", &tcp, "--campaign", campaign, "--cases", "1"],
        vec!["report", "--html", html.to_str().unwrap(), "--model", &tcp, "--campaign", campaign],
    ] {
        let out = cftcg(&args);
        assert_refused(&out, &["campaign.json", "SolarPV", "branches"]);
    }
    assert!(!html.exists(), "no explorer is rendered for a mismatched campaign");

    // The campaign still loads against its own model.
    let out = cftcg(&["explain", &model("solarpv"), campaign]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}
