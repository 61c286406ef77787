//! Property test: *randomly generated* layered models behave identically in
//! the compiled VM and the interpretive simulator — broad structural
//! coverage beyond the hand-written differential cases.

use cftcg_codegen::{compile, Executor};
use cftcg_coverage::NullRecorder;
use cftcg_model::{DataType, Value};
use cftcg_sim::Simulator;
use proptest::prelude::*;

#[path = "common/recipes.rs"]
mod recipes;
use recipes::{arb_recipe, build_model};

fn values_eq(a: &Value, b: &Value) -> bool {
    let (x, y) = (a.as_f64(), b.as_f64());
    a.data_type() == b.data_type() && ((x.is_nan() && y.is_nan()) || x == y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_models_are_engine_equivalent(
        recipes in prop::collection::vec(arb_recipe(), 1..14),
        wiring in prop::collection::vec(0usize..1000, 8..40),
        input_types in prop::collection::vec(
            prop_oneof![
                Just(DataType::Bool),
                Just(DataType::I8),
                Just(DataType::I16),
                Just(DataType::I32),
                Just(DataType::F32),
                Just(DataType::F64),
            ],
            1..4,
        ),
        steps in prop::collection::vec(
            prop::collection::vec(-50.0f64..50.0, 4),
            3..12,
        ),
    ) {
        let model = build_model(&recipes, &wiring, &input_types);
        // Random wiring can produce invalid models (type mismatches are not
        // possible here, but unconnected nothing... everything is wired);
        // validation failures are simply skipped.
        if model.validate().is_err() {
            return Ok(());
        }
        let compiled = compile(&model).expect("validated model compiles");
        // Lowering defines every signal before its uses in a tick, so no
        // register carries a value from one tick to the next.
        prop_assert!(compiled.carried_regs().is_empty(), "carried: {:?}", compiled.carried_regs());
        prop_assert!(
            compiled.reference_carried_regs().is_empty(),
            "reference carried: {:?}",
            compiled.reference_carried_regs()
        );
        let mut sim = Simulator::new(&model).expect("validated model simulates");
        let mut exec = Executor::new(&compiled);
        let mut jit = Executor::new_jit(&compiled);
        let jit_live = jit.engine() == cftcg_codegen::Engine::Jit;
        let mut rec = NullRecorder;
        let mut actual = Vec::new();
        let mut jit_out = Vec::new();
        for (k, row) in steps.iter().enumerate() {
            let inputs: Vec<Value> = input_types
                .iter()
                .zip(row)
                .map(|(&ty, &x)| Value::from_f64(x, ty))
                .collect();
            let expected = sim.step(&inputs).expect("sim step");
            exec.step_into(&inputs, &mut actual, &mut rec);
            for (port, (e, a)) in expected.iter().zip(&actual).enumerate() {
                prop_assert!(
                    values_eq(e, a),
                    "step {k} output {port}: sim {e:?} vs compiled {a:?}"
                );
            }
            if jit_live {
                jit.step_into(&inputs, &mut jit_out, &mut rec);
                for (port, (f, j)) in actual.iter().zip(&jit_out).enumerate() {
                    prop_assert!(
                        f.as_f64().to_bits() == j.as_f64().to_bits(),
                        "step {k} output {port}: flat {f:?} vs jit {j:?}"
                    );
                }
            }
        }
    }

    /// Random valid models also round-trip through XML to an equal model.
    #[test]
    fn random_models_roundtrip_xml(
        recipes in prop::collection::vec(arb_recipe(), 1..10),
        wiring in prop::collection::vec(0usize..1000, 8..30),
    ) {
        let model = build_model(&recipes, &wiring, &[DataType::F64, DataType::I16]);
        let xml = cftcg_model::save_model(&model);
        let reloaded = cftcg_model::load_model(&xml)
            .unwrap_or_else(|e| panic!("reload failed: {e}"));
        prop_assert_eq!(reloaded, model);
    }
}
