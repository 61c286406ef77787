//! Generator-output contracts: every tool's emitted test cases must be
//! well-formed and actually reproduce coverage when replayed — the property
//! the whole cross-tool comparison methodology rests on.

use std::time::Duration;

use cftcg_baselines::{fuzz_only, hybrid, simcotest, sldv};
use cftcg_codegen::{compile, replay_suite};
use cftcg_coverage::{BranchBitmap, FullTracker};
use cftcg_model::{BlockKind, DataType, FunctionDef, Model, ModelBuilder, RelOp};

/// A compact model with shallow logic, a two-port constraint, and a small
/// state machine — something every generator can chew on.
fn mixed_model() -> Model {
    let mut b = ModelBuilder::new("mixed");
    let x = b.inport("x", DataType::I16);
    let mode = b.inport("mode", DataType::U8);
    let f = FunctionDef::parse(
        &[("x", DataType::F64), ("mode", DataType::F64)],
        &[("y", DataType::F64)],
        "if (mode == 2 && x > 50) { y = x - 50; } else if (x < -50) { y = -50; } else { y = 0; }",
    )
    .unwrap();
    let x_f = b.add("x_f", BlockKind::DataTypeConversion { to: DataType::F64 });
    let mode_f = b.add("mode_f", BlockKind::DataTypeConversion { to: DataType::F64 });
    b.feed(x, x_f, 0);
    b.feed(mode, mode_f, 0);
    let func = b.add("logic", BlockKind::MatlabFunction { function: f });
    b.feed(x_f, func, 0);
    b.feed(mode_f, func, 1);
    let integ = b.add(
        "integ",
        BlockKind::DiscreteIntegrator {
            gain: 0.5,
            initial: 0.0,
            lower: Some(0.0),
            upper: Some(40.0),
        },
    );
    b.wire(func, integ);
    let over = b.add("over", BlockKind::Compare { op: RelOp::Ge, constant: 39.0 });
    b.wire(integ, over);
    let y = b.outport("y");
    let alarm = b.outport("alarm");
    b.wire(integ, y);
    b.wire(over, alarm);
    b.finish().unwrap()
}

/// Replays a suite case by case; every case must hit at least one branch,
/// and cumulative coverage must equal the report's decision numerator.
fn check_suite(compiled: &cftcg_codegen::CompiledModel, suite: &[cftcg_codegen::TestCase]) {
    let tuple = compiled.layout().tuple_size();
    let mut total = FullTracker::new(compiled.map());
    for (i, case) in suite.iter().enumerate() {
        assert!(
            case.bytes.len() >= tuple,
            "case {i} shorter than one tuple ({} bytes)",
            case.bytes.len()
        );
        let mut single = BranchBitmap::new(compiled.map().branch_count());
        let mut exec = cftcg_codegen::Executor::new(compiled);
        exec.run_case(case, &mut single);
        assert!(single.count() > 0, "case {i} exercises nothing");
        cftcg_codegen::replay_case(compiled, case, &mut total);
    }
    let report = replay_suite(compiled, suite);
    assert_eq!(report.decision.covered, total.branch_hits().count());
}

#[test]
fn sldv_witnesses_are_valid() {
    let model = mixed_model();
    let compiled = compile(&model).unwrap();
    let generation = sldv::generate(
        &model,
        &compiled,
        &sldv::SldvConfig { budget: Duration::from_millis(800), ..Default::default() },
    );
    assert!(!generation.suite.is_empty());
    check_suite(&compiled, &generation.suite);
    // The two-port constraint (mode == 2 && x > 50) must be solved.
    let report = replay_suite(&compiled, &generation.suite);
    assert!(
        report.condition.percent() > 50.0,
        "solver should crack the joint constraint: {report}"
    );
}

#[test]
fn simcotest_cases_are_valid() {
    let model = mixed_model();
    let compiled = compile(&model).unwrap();
    let generation = simcotest::generate(
        &model,
        &simcotest::SimCoTestConfig {
            budget: Duration::from_millis(400),
            seed: 3,
            engine_overhead_spins: 0,
            ..Default::default()
        },
    );
    assert!(!generation.suite.is_empty());
    check_suite(&compiled, &generation.suite);
}

#[test]
fn fuzz_only_cases_are_valid() {
    let model = mixed_model();
    let compiled = compile(&model).unwrap();
    let generation = fuzz_only::generate(
        &compiled,
        &fuzz_only::FuzzOnlyConfig { budget: Duration::from_millis(400), seed: 3 },
    );
    // Fuzz-only may legitimately emit nothing on boolean-only models, but
    // this model has real jumps, so it finds something.
    assert!(!generation.suite.is_empty());
    check_suite(&compiled, &generation.suite);
}

#[test]
fn hybrid_cases_are_valid_and_beat_solving_alone() {
    let model = mixed_model();
    let compiled = compile(&model).unwrap();
    let solver_only = sldv::generate(
        &model,
        &compiled,
        &sldv::SldvConfig { budget: Duration::from_millis(200), ..Default::default() },
    );
    let hybrid_gen = hybrid::generate(
        &model,
        &compiled,
        &hybrid::HybridConfig {
            seed: 9,
            budget: Duration::from_millis(1_000),
            ..Default::default()
        },
    );
    check_suite(&compiled, &hybrid_gen.suite);
    let solver_report = replay_suite(&compiled, &solver_only.suite);
    let hybrid_report = replay_suite(&compiled, &hybrid_gen.suite);
    assert!(
        hybrid_report.decision.covered >= solver_report.decision.covered,
        "hybrid must not lose coverage relative to its solving phase"
    );
}

#[test]
fn generation_case_times_are_monotone_for_every_tool() {
    let model = mixed_model();
    let compiled = compile(&model).unwrap();
    let generations = vec![
        sldv::generate(
            &model,
            &compiled,
            &sldv::SldvConfig { budget: Duration::from_millis(300), ..Default::default() },
        ),
        simcotest::generate(
            &model,
            &simcotest::SimCoTestConfig {
                budget: Duration::from_millis(300),
                seed: 1,
                engine_overhead_spins: 0,
                ..Default::default()
            },
        ),
        fuzz_only::generate(
            &compiled,
            &fuzz_only::FuzzOnlyConfig { budget: Duration::from_millis(300), seed: 1 },
        ),
    ];
    for generation in generations {
        assert_eq!(generation.suite.len(), generation.case_times.len());
        for pair in generation.case_times.windows(2) {
            assert!(pair[0] <= pair[1], "case timestamps must be monotone");
        }
        if let Some(&last) = generation.case_times.last() {
            assert!(last <= generation.elapsed + Duration::from_millis(50));
        }
    }
}

#[test]
fn solver_respects_iteration_depth_in_witness_length() {
    let model = mixed_model();
    let compiled = compile(&model).unwrap();
    let config =
        sldv::SldvConfig { max_depth: 3, budget: Duration::from_millis(500), ..Default::default() };
    let generation = sldv::generate(&model, &compiled, &config);
    let tuple = compiled.layout().tuple_size();
    for case in &generation.suite {
        assert!(
            case.bytes.len() <= 3 * tuple,
            "witness longer than the unrolling depth: {} bytes",
            case.bytes.len()
        );
    }
}

#[test]
fn value_encoding_of_witnesses_is_field_aligned() {
    let model = mixed_model();
    let compiled = compile(&model).unwrap();
    let generation = sldv::generate(
        &model,
        &compiled,
        &sldv::SldvConfig { budget: Duration::from_millis(300), ..Default::default() },
    );
    let tsize = compiled.layout().tuple_size();
    for case in &generation.suite {
        assert_eq!(case.bytes.len() % tsize, 0, "witnesses are whole tuples");
        // Every tuple decodes into typed values without panicking.
        for tuple in compiled.layout().split(&case.bytes) {
            let values = compiled.layout().decode(tuple);
            assert_eq!(values.len(), 2);
            assert_eq!(values[0].data_type(), DataType::I16);
            assert_eq!(values[1].data_type(), DataType::U8);
        }
    }
}
