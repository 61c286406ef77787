//! The auditor's core check as a unit-level property: over *random small
//! models* and *random input tuples*, the interpreter and the compiled VM
//! agree on **every signal** (not just the outports) after every tick.
//!
//! This is strictly stronger than the output-level differential tests in
//! `crates/codegen/tests/differential.rs`: a bug that cancels out before
//! reaching an outport (e.g. inside a held subsystem signal) still fails
//! here.

use cftcg_codegen::{compile, Engine};
use cftcg_model::expr::parse_expr;
use cftcg_model::{BlockKind, DataType, EdgeKind, ModelBuilder, RelOp, Value};
use cftcg_trace::Auditor;
use proptest::prelude::*;

/// A palette of 1-in/1-out block kinds, parameterized by one float so
/// proptest explores thresholds/gains too. Parameters are shaped to stay
/// valid (e.g. saturation bounds ordered).
fn palette(index: usize, p: f64) -> BlockKind {
    match index % 17 {
        0 => BlockKind::Gain { gain: p },
        1 => BlockKind::Bias { bias: p },
        2 => BlockKind::Abs,
        3 => BlockKind::Signum,
        4 => BlockKind::Saturation { lower: -p.abs(), upper: p.abs() },
        5 => BlockKind::DeadZone { start: -p.abs(), end: p.abs() },
        6 => BlockKind::Quantizer { interval: p.abs() + 0.25 },
        7 => BlockKind::RateLimiter { rising: p.abs() + 0.1, falling: p.abs() + 0.2 },
        8 => BlockKind::Backlash { width: p.abs() + 0.1, initial: 0.0 },
        9 => BlockKind::CoulombFriction { offset: p.abs(), gain: p },
        10 => BlockKind::UnitDelay { initial: Value::F64(p) },
        11 => BlockKind::Delay { steps: 2, initial: Value::F64(p) },
        12 => BlockKind::Memory { initial: Value::F64(p) },
        13 => BlockKind::DiscreteIntegrator {
            gain: p,
            initial: 0.0,
            lower: Some(-5.0),
            upper: Some(5.0),
        },
        14 => BlockKind::Relay {
            on_threshold: p.abs(),
            off_threshold: -p.abs(),
            on_output: 1.0,
            off_output: 0.0,
        },
        15 => BlockKind::Compare { op: RelOp::Gt, constant: p },
        _ => BlockKind::EdgeDetect { kind: EdgeKind::Rising },
    }
}

fn interesting_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -10.0f64..10.0,
        2 => prop_oneof![Just(0.0f64), Just(-0.0), Just(1.0), Just(-1.0), Just(0.5)],
        1 => -1e6f64..1e6,
        1 => prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(1e300f64),
        ],
    ]
}

fn encode_f64s(xs: &[f64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(xs.len() * 8);
    for x in xs {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random block chains: every signal of every tick matches.
    #[test]
    fn random_chains_agree_on_every_signal(
        picks in prop::collection::vec((0usize..17, -3.0f64..3.0), 1..6),
        xs in prop::collection::vec(interesting_f64(), 4..24),
    ) {
        let mut b = ModelBuilder::new("chain");
        let u = b.inport("u", DataType::F64);
        let mut prev = u;
        for (i, (k, p)) in picks.iter().enumerate() {
            let blk = b.add(format!("b{i}"), palette(*k, *p));
            b.connect(prev, 0, blk, 0);
            prev = blk;
        }
        let y = b.outport("y");
        b.connect(prev, 0, y, 0);
        let model = b.finish().unwrap();
        let compiled = compile(&model).unwrap();

        let mut auditor = Auditor::new(&model, &compiled, Engine::Flat).unwrap();
        prop_assert_eq!(auditor.signal_count(), picks.len() + 1);
        let bytes = encode_f64s(&xs);
        let (ticks, divergence) = auditor.audit_case("prop", &bytes).unwrap();
        prop_assert!(divergence.is_none(), "divergence: {}", divergence.unwrap());
        prop_assert_eq!(ticks, xs.len() as u64);
    }

    /// Conditional subsystems with held inner signals: the audit compares
    /// signals *inside* inactive subsystems too, so hold semantics must
    /// match exactly between the engines.
    #[test]
    fn conditional_subsystems_agree_on_held_inner_signals(
        xs in prop::collection::vec(interesting_f64(), 6..30),
        gains in (-4.0f64..4.0, -4.0f64..4.0),
    ) {
        fn gain_action(name: &str, gain: f64) -> BlockKind {
            let mut b = ModelBuilder::new(name);
            let u = b.inport("u", DataType::F64);
            let g = b.add("g", BlockKind::Gain { gain });
            let d = b.add("d", BlockKind::UnitDelay { initial: Value::F64(0.0) });
            let y = b.outport("y");
            b.wire(u, g);
            b.wire(g, d);
            b.wire(d, y);
            BlockKind::ActionSubsystem { model: Box::new(b.finish().unwrap()) }
        }
        let mut b = ModelBuilder::new("cond");
        let u = b.inport("u", DataType::F64);
        let iff = b.add("if", BlockKind::If {
            num_inputs: 1,
            conditions: vec![parse_expr("u1 > 0").unwrap()],
            has_else: true,
        });
        let pos = b.add("pos", gain_action("pos_m", gains.0));
        let neg = b.add("neg", gain_action("neg_m", gains.1));
        let merge = b.add("merge", BlockKind::Merge { inputs: 2 });
        let y = b.outport("y");
        b.connect(u, 0, iff, 0);
        b.connect(iff, 0, pos, 0);
        b.connect(iff, 1, neg, 0);
        b.connect(u, 0, pos, 1);
        b.connect(u, 0, neg, 1);
        b.connect(pos, 0, merge, 0);
        b.connect(neg, 0, merge, 1);
        b.wire(merge, y);
        let model = b.finish().unwrap();
        let compiled = compile(&model).unwrap();

        let mut auditor = Auditor::new(&model, &compiled, Engine::Flat).unwrap();
        let bytes = encode_f64s(&xs);
        let (_, divergence) = auditor.audit_case("prop", &bytes).unwrap();
        prop_assert!(divergence.is_none(), "divergence: {}", divergence.unwrap());
    }
}
