//! `cftcg fuzz --trace-dir D --trace-every N` writes, when the campaign
//! ends, the waveform of every `N`-th emitted case, each byte-identical to
//! what `cftcg trace` exports for that case from the saved campaign.

use std::path::{Path, PathBuf};
use std::process::Command;

use cftcg::coverage::format_case_id;
use cftcg::pipeline::CampaignArtifact;

fn cftcg(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_cftcg")).args(args).output().expect("cftcg runs");
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
}

fn path(p: &Path) -> &str {
    p.to_str().expect("UTF-8 path")
}

#[test]
fn trace_dir_holds_every_nth_case_as_cftcg_trace_exports_it() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace_dir_every_2");
    let _ = std::fs::remove_dir_all(&root);
    let (waves, out, replay) = (root.join("waves"), root.join("out"), root.join("replay.vcd"));
    let model = format!("{}/models/afc.mdlx", env!("CARGO_MANIFEST_DIR"));
    cftcg(&[
        "fuzz",
        &model,
        "--budget-ms",
        "300",
        "--seed",
        "3",
        "--trace-dir",
        path(&waves),
        "--trace-every",
        "2",
        "--out",
        path(&out),
    ]);

    let campaign = out.join("campaign.json");
    let artifact = CampaignArtifact::from_json(&std::fs::read_to_string(&campaign).unwrap())
        .expect("campaign.json parses");
    assert!(artifact.cases.len() >= 2, "the campaign emitted cases: {}", artifact.cases.len());
    let expected: Vec<String> =
        artifact.cases.iter().step_by(2).map(|case| format_case_id(case.id)).collect();
    let mut written: Vec<String> = std::fs::read_dir(&waves)
        .expect("the trace dir exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    let mut named: Vec<String> =
        expected.iter().map(|id| format!("{}.vcd", id.replace(':', "_"))).collect();
    named.sort();
    assert_eq!(written.len(), artifact.cases.len().div_ceil(2));
    assert_eq!(written, named, "one file per second case, named by its id");

    for id in &expected {
        cftcg(&["trace", &model, path(&campaign), id, "--engine", "flat", "--out", path(&replay)]);
        let file = waves.join(format!("{}.vcd", id.replace(':', "_")));
        assert!(
            std::fs::read(&file).unwrap() == std::fs::read(&replay).unwrap(),
            "{id}: the --trace-dir waveform differs from `cftcg trace`"
        );
    }
}
