//! Campaign-level byte-identity of the optimizer: a fuzz run on the
//! optimized flat VM must produce the *same campaign* as one on the
//! reference tree walker (`FuzzConfig::reference_vm`). The fuzzing
//! trajectory depends only on per-iteration branch-event sets, compare
//! event streams and output values — all three of which the mid-end is
//! contractually required to preserve — so the emitted suite, lineage,
//! violations and `campaign.json` must match byte for byte (modulo
//! wall-clock fields, which differ between any two runs).

use cftcg::codegen::compile;
use cftcg::fuzz::{
    FuzzConfig, FuzzOutcome, Fuzzer, Generation, ParallelFuzzConfig, ParallelFuzzer,
};
use cftcg::pipeline::CampaignArtifact;

/// Zeroes every `"t_s"` / `"elapsed_s"` value in a campaign JSON document.
fn strip_wallclock(mut s: String) -> String {
    for key in ["\"t_s\":", "\"elapsed_s\":"] {
        let mut from = 0;
        while let Some(rel) = s[from..].find(key) {
            let start = from + rel + key.len();
            let end = s[start..].find([',', '}', '\n']).map_or(s.len(), |e| start + e);
            s.replace_range(start..end, "0");
            from = start + 1;
        }
    }
    s
}

/// Asserts every wall-clock-free surface of two outcomes is identical.
fn assert_outcomes_identical(flat: &FuzzOutcome, reference: &FuzzOutcome, context: &str) {
    let bytes = |o: &FuzzOutcome| o.suite.iter().map(|c| c.bytes.clone()).collect::<Vec<_>>();
    assert_eq!(bytes(flat), bytes(reference), "{context}: suite bytes");
    assert_eq!(flat.lineage, reference.lineage, "{context}: lineage records");
    assert_eq!(flat.executions, reference.executions, "{context}: executions");
    assert_eq!(flat.iterations, reference.iterations, "{context}: iterations");
    assert_eq!(flat.covered_branches, reference.covered_branches, "{context}: covered branches");
    let viol = |o: &FuzzOutcome| {
        o.violations.iter().map(|(i, c)| (*i, c.bytes.clone())).collect::<Vec<_>>()
    };
    assert_eq!(viol(flat), viol(reference), "{context}: assertion violations");
    assert_eq!(flat.yields, reference.yields, "{context}: mutation yield");
}

#[test]
fn reference_vm_campaign_is_byte_identical() {
    for name in ["SolarPV", "CPUTask"] {
        let model = cftcg::benchmarks::by_name(name).expect("bundled benchmark");
        let compiled = compile(&model).expect("benchmark compiles");

        let run = |reference_vm: bool| {
            let config = FuzzConfig { seed: 7, reference_vm, ..FuzzConfig::default() };
            let mut fuzzer = Fuzzer::new(&compiled, config);
            fuzzer.run_executions(3_000)
        };

        let flat = run(false);
        let reference = run(true);
        assert_outcomes_identical(&flat, &reference, name);

        let json = |outcome: FuzzOutcome| {
            let generation: Generation = outcome.into();
            let artifact =
                CampaignArtifact::from_generation(model.name(), 7, 1, &generation, compiled.map());
            strip_wallclock(artifact.to_json())
        };
        assert_eq!(json(flat), json(reference), "{name}: campaign.json must be byte-identical");
    }
}

/// The JIT tier must be campaign-invisible: a `workers = 1` run with
/// `engine: Jit` produces byte-for-byte the same `campaign.json` as one on
/// the flat VM. On hosts without the JIT tier `Engine::Jit` falls back to
/// the flat VM, so the test degrades to flat-vs-flat and still proves the
/// engine knob itself does not perturb the campaign.
#[test]
fn jit_campaign_json_is_byte_identical_with_one_worker() {
    use cftcg::codegen::Engine;

    let model = cftcg::benchmarks::by_name("SolarPV").expect("bundled benchmark");
    let compiled = compile(&model).expect("benchmark compiles");

    let run = |engine: Engine| {
        let config = ParallelFuzzConfig {
            workers: 1,
            sync_interval: 512,
            fuzz: FuzzConfig { seed: 23, engine: Some(engine), ..FuzzConfig::default() },
            ..ParallelFuzzConfig::default()
        };
        ParallelFuzzer::new(&compiled, config).run_executions(2_500)
    };

    let jit = run(Engine::Jit);
    let flat = run(Engine::Flat);
    assert_outcomes_identical(&jit, &flat, "SolarPV workers=1 jit");

    let json = |outcome: FuzzOutcome| {
        let generation: Generation = outcome.into();
        let artifact =
            CampaignArtifact::from_generation(model.name(), 23, 1, &generation, compiled.map());
        strip_wallclock(artifact.to_json())
    };
    assert_eq!(
        json(jit),
        json(flat),
        "SolarPV: campaign.json must be byte-identical regardless of engine"
    );
}

#[test]
fn reference_vm_is_byte_identical_through_the_parallel_engine() {
    let model = cftcg::benchmarks::by_name("TCP").expect("bundled benchmark");
    let compiled = compile(&model).expect("benchmark compiles");

    let run = |reference_vm: bool| {
        let config = ParallelFuzzConfig {
            workers: 1,
            sync_interval: 512,
            fuzz: FuzzConfig { seed: 11, reference_vm, ..FuzzConfig::default() },
            ..ParallelFuzzConfig::default()
        };
        ParallelFuzzer::new(&compiled, config).run_executions(2_000)
    };

    assert_outcomes_identical(&run(false), &run(true), "TCP workers=1");
}
