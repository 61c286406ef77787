//! End-to-end tests of the Assertion block: instrumentation, violation
//! recording, engine agreement, and fuzzer-driven violation discovery.

use cftcg::codegen::{compile, Executor, TestCase};
use cftcg::coverage::FullTracker;
use cftcg::fuzz::{FuzzConfig, Fuzzer};
use cftcg::model::{BlockKind, DataType, LogicOp, Model, ModelBuilder, RelOp, Value};
use cftcg::sim::Simulator;

/// A plant with the safety property "output stays below 100", which a
/// sustained positive input violates.
fn guarded_model() -> Model {
    let mut b = ModelBuilder::new("guarded");
    let u = b.inport("u", DataType::I8);
    let integ = b.add(
        "integ",
        BlockKind::DiscreteIntegrator {
            gain: 1.0,
            initial: 0.0,
            lower: Some(-500.0),
            upper: Some(500.0),
        },
    );
    let u_f = b.add("u_f", BlockKind::DataTypeConversion { to: DataType::F64 });
    b.wire(u, u_f);
    b.wire(u_f, integ);
    let ok = b.add("ok", BlockKind::Compare { op: RelOp::Lt, constant: 100.0 });
    b.wire(integ, ok);
    let guard = b.add("safety", BlockKind::Assertion);
    b.wire(ok, guard);
    let y = b.outport("y");
    b.wire(integ, y);
    b.finish().unwrap()
}

#[test]
fn assertion_is_instrumented_and_recorded() {
    let model = guarded_model();
    let compiled = compile(&model).unwrap();
    assert_eq!(compiled.map().assertion_count(), 1);
    assert!(compiled.map().assertions()[0].contains("safety"));

    let mut exec = Executor::new(&compiled);
    let mut tracker = FullTracker::new(compiled.map());
    // 10 iterations of +20: the integrator passes 100 on iteration 6.
    for _ in 0..10 {
        exec.step(&[Value::I8(20)], &mut tracker);
    }
    assert_eq!(tracker.assertion_failures(0), 5, "iterations 6..10 violate");
}

#[test]
fn simulator_counts_the_same_violations() {
    let model = guarded_model();
    let compiled = compile(&model).unwrap();
    let mut sim = Simulator::new(&model).unwrap();
    let mut exec = Executor::new(&compiled);
    let mut tracker = FullTracker::new(compiled.map());
    for k in 0..40 {
        let v = Value::I8(if k % 3 == 0 { 30 } else { -5 });
        sim.step(&[v]).unwrap();
        exec.step(&[v], &mut tracker);
    }
    assert_eq!(sim.violations(), tracker.assertion_failures(0));
    sim.reset();
    assert_eq!(sim.violations(), 0, "reset clears the violation counter");
}

#[test]
fn fuzzer_finds_a_violating_input() {
    let model = guarded_model();
    let compiled = compile(&model).unwrap();
    let mut fuzzer = Fuzzer::new(&compiled, FuzzConfig { seed: 2, ..Default::default() });
    fuzzer.run_executions(3_000);
    let violations = fuzzer.violations();
    assert!(
        !violations.is_empty(),
        "the fuzzer must find an input driving the integrator past 100"
    );
    // The reported witness actually reproduces the violation.
    let (idx, case) = &violations[0];
    assert_eq!(*idx, 0);
    let mut exec = Executor::new(&compiled);
    let mut tracker = FullTracker::new(compiled.map());
    exec.run_case(case, &mut tracker);
    assert!(tracker.assertion_failures(0) > 0, "witness must reproduce");
}

/// A seed is executed like any generated input, so a violating seed is the
/// violation's first witness.
#[test]
fn a_violating_seed_is_booked_as_a_violation() {
    let compiled = compile(&guarded_model()).unwrap();
    let mut fuzzer = Fuzzer::new(&compiled, FuzzConfig::default());
    // Ten ticks of +20: the integrator passes 100 on tick 6.
    fuzzer.add_seed(vec![20; 10]);
    assert_eq!(fuzzer.violations(), &[(0, TestCase::new(vec![20; 10]))]);
    // A second violating seed is not a first witness.
    fuzzer.add_seed(vec![30; 10]);
    assert_eq!(fuzzer.violations().len(), 1);
}

#[test]
fn assertions_survive_xml_and_nested_subsystems() {
    // An assertion inside a subsystem: still instrumented, still counted.
    let mut inner = ModelBuilder::new("inner");
    let u = inner.inport("u", DataType::Bool);
    let not = inner.add("not", BlockKind::Logic { op: LogicOp::Not, inputs: 1 });
    inner.wire(u, not);
    let guard = inner.add("inner_guard", BlockKind::Assertion);
    inner.wire(not, guard);
    let y = inner.outport("y");
    inner.feed(u, y, 0);
    let inner = inner.finish().unwrap();

    let mut b = ModelBuilder::new("outer");
    let u = b.inport("u", DataType::Bool);
    let sub = b.add("sub", BlockKind::Subsystem { model: Box::new(inner) });
    let y = b.outport("y");
    b.wire(u, sub);
    b.wire(sub, y);
    let model = b.finish().unwrap();

    // XML roundtrip keeps the assertion.
    let xml = cftcg::model::save_model(&model);
    let reloaded = cftcg::model::load_model(&xml).unwrap();
    assert_eq!(reloaded, model);

    let compiled = compile(&reloaded).unwrap();
    assert_eq!(compiled.map().assertion_count(), 1);
    let mut exec = Executor::new(&compiled);
    let mut tracker = FullTracker::new(compiled.map());
    exec.step(&[Value::Bool(true)], &mut tracker); // !true = false -> violation
    exec.step(&[Value::Bool(false)], &mut tracker); // passes
    assert_eq!(tracker.assertion_failures(0), 1);
    let mut sim = Simulator::new(&model).unwrap();
    sim.step(&[Value::Bool(true)]).unwrap();
    sim.step(&[Value::Bool(false)]).unwrap();
    assert_eq!(sim.violations(), 1);
}

#[test]
fn assertion_decision_counts_toward_coverage() {
    let model = guarded_model();
    let compiled = compile(&model).unwrap();
    // The pass/fail decision exists in the map.
    let has_assert_decision = compiled.map().decisions().iter().any(|d| d.label.contains("safety"));
    assert!(has_assert_decision);
    let mut exec = Executor::new(&compiled);
    let mut tracker = FullTracker::new(compiled.map());
    exec.step(&[Value::I8(1)], &mut tracker); // pass outcome only
    let report = cftcg::coverage::CoverageReport::score(compiled.map(), &tracker);
    assert!(report.decision.covered < report.decision.total);
}
