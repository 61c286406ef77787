//! Property test: *randomly generated* layered models behave identically in
//! the compiled VM and the interpretive simulator — broad structural
//! coverage beyond the hand-written differential cases.

use cftcg_codegen::{compile, Executor};
use cftcg_coverage::NullRecorder;
use cftcg_model::{
    BlockKind, DataType, EdgeKind, InputSign, LogicOp, MathFunc, MinMaxOp, Model, ModelBuilder,
    ProductOp, RelOp, SwitchCriterion, Value,
};
use cftcg_sim::Simulator;
use proptest::prelude::*;

/// A recipe for one random block: picked params only (wiring is derived).
#[derive(Debug, Clone)]
enum Recipe {
    Sum(usize),
    Product(usize),
    Gain(f64),
    Bias(f64),
    Abs,
    Neg,
    Signum,
    MinMax(bool, usize),
    Math(MathFunc),
    Saturation(f64, f64),
    DeadZone(f64, f64),
    Quantizer(f64),
    Relay(f64, f64),
    RateLimiter(f64, f64),
    Backlash(f64),
    Coulomb(f64, f64),
    Logic(LogicOp, usize),
    Relational(RelOp),
    Compare(RelOp, f64),
    Switch(SwitchCriterion),
    Cast(DataType),
    UnitDelay(f64),
    Delay(usize, f64),
    Integrator(f64, f64),
    EdgeDetect(EdgeKind),
    Lookup(Vec<f64>, Vec<f64>),
    CounterLimited(u32),
}

impl Recipe {
    fn kind(&self) -> BlockKind {
        match self.clone() {
            Recipe::Sum(n) => BlockKind::Sum {
                signs: (0..n)
                    .map(|i| if i % 2 == 0 { InputSign::Plus } else { InputSign::Minus })
                    .collect(),
            },
            Recipe::Product(n) => BlockKind::Product {
                ops: (0..n)
                    .map(|i| if i % 3 == 2 { ProductOp::Div } else { ProductOp::Mul })
                    .collect(),
            },
            Recipe::Gain(g) => BlockKind::Gain { gain: g },
            Recipe::Bias(b) => BlockKind::Bias { bias: b },
            Recipe::Abs => BlockKind::Abs,
            Recipe::Neg => BlockKind::UnaryMinus,
            Recipe::Signum => BlockKind::Signum,
            Recipe::MinMax(min, n) => {
                BlockKind::MinMax { op: if min { MinMaxOp::Min } else { MinMaxOp::Max }, inputs: n }
            }
            Recipe::Math(f) => BlockKind::Math { func: f },
            Recipe::Saturation(a, b) => BlockKind::Saturation { lower: a.min(b), upper: a.max(b) },
            Recipe::DeadZone(a, b) => BlockKind::DeadZone { start: a.min(b), end: a.max(b) },
            Recipe::Quantizer(q) => BlockKind::Quantizer { interval: q.abs().max(0.1) },
            Recipe::Relay(a, b) => BlockKind::Relay {
                on_threshold: a.max(b),
                off_threshold: a.min(b),
                on_output: 1.0,
                off_output: -1.0,
            },
            Recipe::RateLimiter(r, f) => {
                BlockKind::RateLimiter { rising: r.abs(), falling: f.abs() }
            }
            Recipe::Backlash(w) => BlockKind::Backlash { width: w.abs(), initial: 0.0 },
            Recipe::Coulomb(o, g) => BlockKind::CoulombFriction { offset: o, gain: g },
            Recipe::Logic(op, n) => BlockKind::Logic { op, inputs: n },
            Recipe::Relational(op) => BlockKind::Relational { op },
            Recipe::Compare(op, c) => BlockKind::Compare { op, constant: c },
            Recipe::Switch(c) => BlockKind::Switch { criterion: c },
            Recipe::Cast(ty) => BlockKind::DataTypeConversion { to: ty },
            Recipe::UnitDelay(x) => BlockKind::UnitDelay { initial: Value::F64(x) },
            Recipe::Delay(n, x) => BlockKind::Delay { steps: n, initial: Value::F64(x) },
            Recipe::Integrator(g, lim) => BlockKind::DiscreteIntegrator {
                gain: g,
                initial: 0.0,
                lower: Some(-lim.abs() - 1.0),
                upper: Some(lim.abs() + 1.0),
            },
            Recipe::EdgeDetect(k) => BlockKind::EdgeDetect { kind: k },
            Recipe::Lookup(mut breaks, values) => {
                breaks.sort_by(f64::total_cmp);
                breaks.dedup();
                let n = breaks.len().min(values.len()).max(2);
                let mut breaks: Vec<f64> = breaks.into_iter().take(n).collect();
                while breaks.len() < 2 {
                    breaks.push(breaks.last().copied().unwrap_or(0.0) + 1.0);
                }
                // Enforce strict increase.
                for i in 1..breaks.len() {
                    if breaks[i] <= breaks[i - 1] {
                        breaks[i] = breaks[i - 1] + 1.0;
                    }
                }
                let values = values.into_iter().take(breaks.len()).collect::<Vec<_>>();
                let mut values = values;
                while values.len() < breaks.len() {
                    values.push(0.0);
                }
                BlockKind::Lookup1D { breakpoints: breaks, values }
            }
            Recipe::CounterLimited(limit) => BlockKind::CounterLimited { limit: limit % 20 },
        }
    }
}

fn small() -> impl Strategy<Value = f64> {
    -20.0f64..20.0
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    prop_oneof![
        (2usize..4).prop_map(Recipe::Sum),
        (2usize..4).prop_map(Recipe::Product),
        small().prop_map(Recipe::Gain),
        small().prop_map(Recipe::Bias),
        Just(Recipe::Abs),
        Just(Recipe::Neg),
        Just(Recipe::Signum),
        (any::<bool>(), 2usize..4).prop_map(|(m, n)| Recipe::MinMax(m, n)),
        prop_oneof![
            Just(MathFunc::Sqrt),
            Just(MathFunc::Square),
            Just(MathFunc::Floor),
            Just(MathFunc::Ceil),
            Just(MathFunc::Round),
            Just(MathFunc::Rem),
            Just(MathFunc::Mod),
            Just(MathFunc::Hypot),
        ]
        .prop_map(Recipe::Math),
        (small(), small()).prop_map(|(a, b)| Recipe::Saturation(a, b)),
        (small(), small()).prop_map(|(a, b)| Recipe::DeadZone(a, b)),
        small().prop_map(Recipe::Quantizer),
        (small(), small()).prop_map(|(a, b)| Recipe::Relay(a, b)),
        (small(), small()).prop_map(|(a, b)| Recipe::RateLimiter(a, b)),
        small().prop_map(Recipe::Backlash),
        (small(), small()).prop_map(|(a, b)| Recipe::Coulomb(a, b)),
        (
            prop_oneof![
                Just(LogicOp::And),
                Just(LogicOp::Or),
                Just(LogicOp::Nand),
                Just(LogicOp::Nor),
                Just(LogicOp::Xor),
            ],
            2usize..4
        )
            .prop_map(|(op, n)| Recipe::Logic(op, n)),
        prop_oneof![
            Just(RelOp::Eq),
            Just(RelOp::Ne),
            Just(RelOp::Lt),
            Just(RelOp::Le),
            Just(RelOp::Gt),
            Just(RelOp::Ge),
        ]
        .prop_map(Recipe::Relational),
        (prop_oneof![Just(RelOp::Lt), Just(RelOp::Ge), Just(RelOp::Eq)], small())
            .prop_map(|(op, c)| Recipe::Compare(op, c)),
        prop_oneof![
            small().prop_map(SwitchCriterion::GreaterEqual),
            small().prop_map(SwitchCriterion::Greater),
            Just(SwitchCriterion::NotZero),
        ]
        .prop_map(Recipe::Switch),
        prop_oneof![
            Just(DataType::I8),
            Just(DataType::U8),
            Just(DataType::I16),
            Just(DataType::U16),
            Just(DataType::I32),
            Just(DataType::F32),
            Just(DataType::F64),
        ]
        .prop_map(Recipe::Cast),
        small().prop_map(Recipe::UnitDelay),
        ((1usize..4), small()).prop_map(|(n, x)| Recipe::Delay(n, x)),
        (small(), small()).prop_map(|(g, l)| Recipe::Integrator(g / 10.0, l)),
        prop_oneof![Just(EdgeKind::Rising), Just(EdgeKind::Falling), Just(EdgeKind::Either)]
            .prop_map(Recipe::EdgeDetect),
        (prop::collection::vec(small(), 2..5), prop::collection::vec(small(), 2..5))
            .prop_map(|(b, v)| Recipe::Lookup(b, v)),
        any::<u32>().prop_map(Recipe::CounterLimited),
    ]
}

/// Builds a random layered model: inports, then blocks wired to arbitrary
/// earlier outputs (delays may also close feedback loops legally), then one
/// outport per sink-ish signal.
fn build_model(recipes: &[Recipe], wiring: &[usize], input_types: &[DataType]) -> Model {
    let mut b = ModelBuilder::new("random");
    let mut sources = Vec::new();
    for (i, &ty) in input_types.iter().enumerate() {
        sources.push(b.inport(format!("in{i}"), ty));
    }
    let mut wire_iter = wiring.iter().copied().cycle();
    for (i, recipe) in recipes.iter().enumerate() {
        let kind = recipe.kind();
        let n_in = kind.num_inputs();
        let blk = b.add(format!("blk{i}"), kind);
        for port in 0..n_in {
            let pick = wire_iter.next().expect("cycle is infinite") % sources.len();
            b.connect(sources[pick], 0, blk, port);
        }
        sources.push(blk);
    }
    // One outport on the last few signals so everything downstream matters.
    let takeable = sources.len().min(3);
    let tail: Vec<_> = sources[sources.len() - takeable..].to_vec();
    for (i, src) in tail.into_iter().enumerate() {
        let y = b.outport(format!("out{i}"));
        b.connect(src, 0, y, 0);
    }
    b.finish_unchecked()
}

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
