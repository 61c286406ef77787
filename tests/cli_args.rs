//! The `cftcg` binary refuses what it cannot honour with a message and a
//! plain failure exit, never a silent default or a panic: unknown flags,
//! value flags without a value, a campaign recorded against another model,
//! a model calling a function that is not a builtin, and input nested deeper
//! than a parser's depth limit. A reader that closes stdout early ends the
//! printing, not the command.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

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

#[test]
fn models_calling_unknown_or_misarity_functions_are_refused() {
    let text = std::fs::read_to_string(model("solarpv")).expect("SolarPV model");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for (guard, needles) in [
        ("nosuch(p) &gt; 100", &["unknown function `nosuch`"][..]),
        ("max(p, 1, 2, 3) &gt; 100", &["`max` expects 2 argument(s), found 4"][..]),
    ] {
        let bad = text.replacen("guard=\"p &gt; 100\"", &format!("guard=\"{guard}\""), 1);
        assert_ne!(bad, text, "SolarPV guard not found");
        let path = dir.join("cli_args_bad_call.mdlx");
        std::fs::write(&path, bad).expect("write model");
        let out = cftcg(&["fuzz", path.to_str().unwrap(), "--budget-ms", "50"]);
        assert_refused(&out, needles);
    }
}

#[test]
fn deeply_nested_inputs_are_refused_not_overflowed() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_args_deep");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write input");
        path.to_str().unwrap().to_string()
    };

    // A JSONL line of 200,000 open brackets.
    let jsonl = write("deep.jsonl", "[".repeat(200_000) + "\n");
    assert_refused(&cftcg(&["report", &jsonl]), &["MAX_DEPTH"]);

    // A model file of 20,000 nested subsystems.
    let level = "<block name=\"s\" kind=\"Subsystem\"><model name=\"m\">";
    let xml = format!(
        "<model name=\"Deep\">{}{}</model>",
        level.repeat(20_000),
        "</model></block>".repeat(20_000)
    );
    assert_refused(&cftcg(&["stats", &write("deep.mdlx", xml)]), &["deeper than 256"]);

    // SolarPV chart guards of 20,000 parentheses and 200,000 minus signs.
    let text = std::fs::read_to_string(model("solarpv")).expect("SolarPV model");
    let guards = [
        format!("{}p{} &gt; 100", "(".repeat(20_000), ")".repeat(20_000)),
        format!("{}p &gt; 100", "-".repeat(200_000)),
    ];
    for (i, guard) in guards.iter().enumerate() {
        let bad = text.replacen("guard=\"p &gt; 100\"", &format!("guard=\"{guard}\""), 1);
        assert_ne!(bad, text, "SolarPV guard not found");
        let path = write(&format!("deep_guard{i}.mdlx"), bad);
        assert_refused(&cftcg(&["stats", &path]), &["deeper than 256"]);
    }
}

#[test]
fn a_closed_stdout_ends_printing_but_not_the_command() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_args_closed_stdout");
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_cftcg"))
        .args(["fuzz", &model("afc"), "--budget-ms", "500", "--out", dir.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cftcg runs");
    let mut first = String::new();
    // Reading one line and dropping the reader closes the pipe's read end
    // while the campaign still runs, like `cftcg fuzz ... | head -1`.
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("a first line");
    assert!(first.starts_with("engine:"), "{first}");
    let out = child.wait_with_output().expect("cftcg exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "a panic's exit code: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{stderr}");
    assert!(dir.join("campaign.json").exists(), "--out is still written");
}
