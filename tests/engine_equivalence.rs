//! The paper's correctness argument at full scale: "we verified the
//! correctness of the generated code by comparing simulation results with
//! code execution results" — here across the whole benchmark suite with
//! structured input sequences, on the one instrumented program the fuzz
//! loop runs.

use cftcg::codegen::{compile, Engine, Executor};
use cftcg::coverage::{BranchBitmap, NullRecorder};
use cftcg::model::{DataType, Value};
use cftcg::sim::Simulator;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn values_eq(a: &Value, b: &Value) -> bool {
    let (x, y) = (a.as_f64(), b.as_f64());
    a.data_type() == b.data_type() && ((x.is_nan() && y.is_nan()) || x == y)
}

/// Draws an input that actually exercises control logic: small magnitudes,
/// constraint-scale values, booleans, with occasional extremes.
fn draw(rng: &mut SmallRng, ty: DataType) -> Value {
    let x = match rng.random_range(0..4u8) {
        0 => f64::from(rng.random_range(-5i8..=5)),
        1 => f64::from(rng.random_range(-200i16..=200)),
        2 => f64::from(rng.random_range(-10_000i32..=10_000)),
        _ => rng.random_range(-1e9f64..1e9),
    };
    Value::from_f64(x, ty)
}

fn bits(outputs: &[Value]) -> Vec<u64> {
    outputs.iter().map(|v| v.as_f64().to_bits()).collect()
}

/// The flat VM and the JIT each run under a discarding recorder (whose
/// promised-away events the JIT skips, branch events included) and under
/// the fuzz loop's branch bitmap; all four must match the simulator and
/// agree bit for bit.
#[test]
fn compiled_matches_interpreter_on_all_benchmarks() {
    const VARIANTS: [&str; 4] = ["flat/null", "flat/bitmap", "jit/null", "jit/bitmap"];
    for model in cftcg::benchmarks::all() {
        let compiled = compile(&model).unwrap();
        let types: Vec<DataType> = compiled.input_types().to_vec();
        let mut rng = SmallRng::seed_from_u64(2024);
        for run in 0..3 {
            let mut sim = Simulator::new(&model).unwrap();
            let mut flat_null = Executor::with_engine(&compiled, Engine::Flat);
            let mut flat_bitmap = Executor::with_engine(&compiled, Engine::Flat);
            let mut jit_null = Executor::new_jit(&compiled);
            let mut jit_bitmap = Executor::new_jit(&compiled);
            let mut bitmap = BranchBitmap::new(compiled.map().branch_count());
            // Long runs with persistent values drive the charts deep.
            let mut held: Vec<Value> = types.iter().map(|&t| draw(&mut rng, t)).collect();
            let mut actual: [Vec<Value>; 4] = Default::default();
            for step in 0..400 {
                if rng.random_bool(0.3) {
                    let i = rng.random_range(0..held.len());
                    held[i] = draw(&mut rng, types[i]);
                }
                let expected = sim.step(&held).unwrap();
                flat_null.step_into(&held, &mut actual[0], &mut NullRecorder);
                flat_bitmap.step_into(&held, &mut actual[1], &mut bitmap);
                jit_null.step_into(&held, &mut actual[2], &mut NullRecorder);
                jit_bitmap.step_into(&held, &mut actual[3], &mut bitmap);
                for (variant, outputs) in VARIANTS.iter().zip(&actual) {
                    for (port, (e, a)) in expected.iter().zip(outputs).enumerate() {
                        assert!(
                            values_eq(e, a),
                            "{} {variant} run {run} step {step} output {port}: sim {e:?} vs \
                             compiled {a:?} (inputs {held:?})",
                            model.name(),
                        );
                    }
                    assert_eq!(
                        bits(outputs),
                        bits(&actual[0]),
                        "{} {variant} run {run} step {step}: not bit-equal to flat/null",
                        model.name(),
                    );
                }
            }
        }
    }
}

/// Reset semantics agree: both engines return to identical initial
/// behaviour after a reset.
#[test]
fn reset_equivalence_on_all_benchmarks() {
    for model in cftcg::benchmarks::all() {
        let compiled = compile(&model).unwrap();
        let types: Vec<DataType> = compiled.input_types().to_vec();
        let mut rng = SmallRng::seed_from_u64(7);
        let inputs: Vec<Vec<Value>> =
            (0..50).map(|_| types.iter().map(|&t| draw(&mut rng, t)).collect()).collect();

        let mut sim = Simulator::new(&model).unwrap();
        let mut exec = Executor::new(&compiled);
        let mut rec = NullRecorder;
        let first: Vec<_> = inputs.iter().map(|i| exec.step(i, &mut rec)).collect();
        let _ = inputs.iter().map(|i| sim.step(i).unwrap()).count();

        exec.reset();
        sim.reset();
        for (k, input) in inputs.iter().enumerate() {
            let again = exec.step(input, &mut rec);
            assert_eq!(again, first[k], "{}: compiled reset diverged", model.name());
            let sim_out = sim.step(input).unwrap();
            for (e, a) in sim_out.iter().zip(&again) {
                assert!(values_eq(e, a), "{}: sim reset diverged", model.name());
            }
        }
    }
}
