//! Differential battery: the optimized flat VM against the reference tree
//! walker — and, where supported, the native JIT tier against both — over
//! every bundled benchmark model and randomized input cases.
//!
//! Three surfaces must agree bit-for-bit — anything less would let the
//! optimizer silently change fuzz outcomes:
//!
//! 1. **Outputs**: every outport value of every tick.
//! 2. **Signal registers** (post-remap): `signals()` on the flat engine
//!    reads the same values `reference_signals()` reads on the reference
//!    engine — the contract `cftcg-trace` probes and the lockstep auditor
//!    rely on.
//! 3. **Recorder event sequences**: branch, condition, decision, compare
//!    and assertion events in identical order with identical payloads —
//!    the contract byte-identical fuzz campaigns rely on.
//!
//! A second flat executor runs under a recorder that promises condition
//! and decision events away, so it dispatches the lean op array; it must
//! match the first on every surface, minus exactly those events.

use cftcg::codegen::{compile, CompiledModel, Engine, Executor, TestCase};
use cftcg::coverage::{AssertionId, BranchId, ConditionId, DecisionId, Recorder};
use cftcg::model::{BlockKind, DataType, ModelBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every probe event, in execution order, with bit-exact payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    Branch(BranchId),
    Condition(ConditionId, bool),
    Decision(DecisionId, u64, u32),
    Compare(u64, u64),
    Assertion(AssertionId, bool),
}

/// Logs every event it is sent. With `MCDC = false` it promises condition
/// and decision events away, as the fuzz loop's recorder does.
#[derive(Default)]
struct EventLog<const MCDC: bool> {
    events: Vec<Event>,
}

impl<const MCDC: bool> Recorder for EventLog<MCDC> {
    const OBSERVES_CONDITIONS: bool = MCDC;
    const OBSERVES_DECISIONS: bool = MCDC;

    fn branch(&mut self, id: BranchId) {
        self.events.push(Event::Branch(id));
    }
    fn condition(&mut self, id: ConditionId, value: bool) {
        self.events.push(Event::Condition(id, value));
    }
    fn decision_eval(&mut self, id: DecisionId, vector: u64, outcome: u32) {
        self.events.push(Event::Decision(id, vector, outcome));
    }
    fn compare(&mut self, lhs: f64, rhs: f64) {
        self.events.push(Event::Compare(lhs.to_bits(), rhs.to_bits()));
    }
    fn assertion(&mut self, id: AssertionId, passed: bool) {
        self.events.push(Event::Assertion(id, passed));
    }
}

/// Random case bytes: `ticks` tuples of mostly-interesting values.
fn random_case(compiled: &CompiledModel, rng: &mut SmallRng, ticks: usize) -> TestCase {
    let size = compiled.layout().tuple_size().max(1);
    let mut bytes = Vec::with_capacity(size * ticks);
    for _ in 0..size * ticks {
        // Bias towards small values and boundary bytes so branches and
        // saturations actually flip.
        let b = match rng.random_range(0..4u32) {
            0 => 0u8,
            1 => 0xFF,
            2 => rng.random_range(0..4u32) as u8,
            _ => rng.random::<u8>(),
        };
        bytes.push(b);
    }
    TestCase::new(bytes)
}

/// Runs one case on all engines tick-by-tick, asserting the three
/// equivalence surfaces after every tick. The JIT engine (when this build
/// supports it) is held to the same contract as the flat VM: same signal
/// registers, same outputs, same state, same recorder event sequence.
fn assert_case_equivalent(compiled: &CompiledModel, case: &TestCase, context: &str) {
    let mut flat = Executor::new(compiled);
    let mut lean = Executor::new(compiled);
    let mut tree = Executor::new_reference(compiled);
    let mut jit = Executor::new_jit(compiled);
    let jit_live = jit.engine() == Engine::Jit;
    let mut flat_log = EventLog::<true>::default();
    let mut lean_log = EventLog::<false>::default();
    let mut tree_log = EventLog::<true>::default();
    let mut jit_log = EventLog::<true>::default();
    flat.reset();
    lean.reset();
    tree.reset();
    jit.reset();

    let metas = compiled.signals();
    let ref_metas = compiled.reference_signals();
    assert_eq!(metas.len(), ref_metas.len(), "{context}: signal table lengths");

    for (tick, tuple) in compiled.layout().split(&case.bytes).enumerate() {
        flat.step_tuple(tuple, &mut flat_log);
        lean.step_tuple(tuple, &mut lean_log);
        tree.step_tuple(tuple, &mut tree_log);
        if jit_live {
            jit.step_tuple(tuple, &mut jit_log);
        }

        for (m, rm) in metas.iter().zip(ref_metas) {
            assert_eq!(m.name, rm.name, "{context}: signal table order");
            assert_eq!(
                flat.reg(m.reg).to_bits(),
                tree.reg(rm.reg).to_bits(),
                "{context}: signal {} diverges at tick {tick}",
                m.name
            );
            assert_eq!(
                lean.reg(m.reg).to_bits(),
                flat.reg(m.reg).to_bits(),
                "{context}: lean signal {} diverges at tick {tick}",
                m.name
            );
            if jit_live {
                assert_eq!(
                    jit.reg(m.reg).to_bits(),
                    flat.reg(m.reg).to_bits(),
                    "{context}: jit signal {} diverges at tick {tick}",
                    m.name
                );
            }
        }

        let flat_out: Vec<u64> = flat.outputs().iter().map(|v| v.as_f64().to_bits()).collect();
        let tree_out: Vec<u64> = tree.outputs().iter().map(|v| v.as_f64().to_bits()).collect();
        assert_eq!(flat_out, tree_out, "{context}: outputs diverge at tick {tick}");
        let lean_out: Vec<u64> = lean.outputs().iter().map(|v| v.as_f64().to_bits()).collect();
        assert_eq!(lean_out, flat_out, "{context}: lean outputs diverge at tick {tick}");
        if jit_live {
            let jit_out: Vec<u64> = jit.outputs().iter().map(|v| v.as_f64().to_bits()).collect();
            assert_eq!(jit_out, flat_out, "{context}: jit outputs diverge at tick {tick}");
        }

        // State must match exactly too (same slots, all engines).
        let fs: Vec<u64> = flat.state().iter().map(|x| x.to_bits()).collect();
        let ts: Vec<u64> = tree.state().iter().map(|x| x.to_bits()).collect();
        assert_eq!(fs, ts, "{context}: state diverges at tick {tick}");
        let ls: Vec<u64> = lean.state().iter().map(|x| x.to_bits()).collect();
        assert_eq!(ls, fs, "{context}: lean state diverges at tick {tick}");
        if jit_live {
            let js: Vec<u64> = jit.state().iter().map(|x| x.to_bits()).collect();
            assert_eq!(js, fs, "{context}: jit state diverges at tick {tick}");
        }
    }

    assert_eq!(
        flat_log.events.len(),
        tree_log.events.len(),
        "{context}: event counts diverge ({} flat vs {} reference)",
        flat_log.events.len(),
        tree_log.events.len()
    );
    for (i, (f, t)) in flat_log.events.iter().zip(&tree_log.events).enumerate() {
        assert_eq!(f, t, "{context}: event {i} diverges");
    }
    // A recorder that promises MC/DC events away gets every other event,
    // in the same order, and none of those.
    let without_mcdc: Vec<&Event> = flat_log
        .events
        .iter()
        .filter(|e| !matches!(e, Event::Condition(..) | Event::Decision(..)))
        .collect();
    assert_eq!(
        lean_log.events.iter().collect::<Vec<_>>(),
        without_mcdc,
        "{context}: events diverge without MC/DC"
    );
    if jit_live {
        assert_eq!(
            jit_log.events.len(),
            flat_log.events.len(),
            "{context}: jit event counts diverge ({} jit vs {} flat)",
            jit_log.events.len(),
            flat_log.events.len()
        );
        for (i, (j, f)) in jit_log.events.iter().zip(&flat_log.events).enumerate() {
            assert_eq!(j, f, "{context}: jit event {i} diverges");
        }
    }
}

#[test]
fn flat_vm_matches_reference_on_all_benchmarks() {
    for model in cftcg::benchmarks::all() {
        let compiled = compile(&model).expect("benchmark compiles");
        let mut rng = SmallRng::seed_from_u64(0xCF7C6 ^ model.name().len() as u64);
        for round in 0..8 {
            let ticks = 1 + (round * 7) % 23;
            let case = random_case(&compiled, &mut rng, ticks);
            assert_case_equivalent(&compiled, &case, &format!("{} round {round}", model.name()));
        }
    }
}

#[test]
fn flat_vm_matches_reference_on_zero_and_saturating_inputs() {
    for model in cftcg::benchmarks::all() {
        let compiled = compile(&model).expect("benchmark compiles");
        let size = compiled.layout().tuple_size().max(1);
        for fill in [0x00u8, 0xFF, 0x7F, 0x80, 0x01] {
            let case = TestCase::new(vec![fill; size * 11]);
            let context = format!("{} fill 0x{fill:02X}", model.name());
            assert_case_equivalent(&compiled, &case, &context);
        }
    }
}

#[test]
fn optimizer_reduces_benchmark_instruction_counts() {
    // The mid-end must be a net win somewhere on the benchmark corpus:
    // every model at least doesn't grow, and the corpus shrinks overall.
    let mut before = 0usize;
    let mut after = 0usize;
    for model in cftcg::benchmarks::all() {
        let compiled = compile(&model).expect("benchmark compiles");
        let stats = compiled.opt_stats();
        assert!(
            stats.instrs_after_dce <= stats.instrs_before,
            "{}: optimizer grew the program ({} -> {})",
            model.name(),
            stats.instrs_before,
            stats.instrs_after_dce
        );
        assert!(
            stats.regs_after <= stats.regs_before,
            "{}: compaction grew the register file",
            model.name()
        );
        before += stats.instrs_before;
        after += stats.instrs_after_dce;
    }
    assert!(after < before, "mid-end removed nothing across the corpus ({before} -> {after})");
}

/// Asserts the JIT tier is live whenever this build supports it, so the
/// engine comparisons below cannot silently degrade to flat-vs-flat.
fn assert_jit_live(compiled: &CompiledModel) {
    if Engine::jit_supported() {
        assert_eq!(Executor::new_jit(compiled).engine(), Engine::Jit, "jit tier unavailable");
    }
}

/// A `double` inport converted to every data type, one outport each.
fn cast_model() -> CompiledModel {
    let mut b = ModelBuilder::new("Casts");
    let u = b.inport("u", DataType::F64);
    for ty in DataType::ALL {
        let dtc = b.add(format!("to_{}", ty.name()), BlockKind::DataTypeConversion { to: ty });
        let y = b.outport(format!("y_{}", ty.name()));
        b.wire(u, dtc);
        b.wire(dtc, y);
    }
    compile(&b.finish().expect("cast model is valid")).expect("cast model compiles")
}

/// The saturating-cast edge values: NaNs of both signs (quiet and
/// signalling), signed zeros, rounding ties and near-ties, infinities,
/// extremes, subnormals, and every type's bounds ±0.5 and ±1.
fn cast_edge_values() -> Vec<f64> {
    let mut xs = vec![
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001),
        f64::from_bits(0xFFF4_0000_0000_0000),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
    ];
    for x in [0.0, 0.5, 1.5, 2.5, 0.49999999999999994, 126.5, 127.5, 255.5, 65535.5] {
        xs.extend([x, -x]);
    }
    xs.extend([-f64::MIN_POSITIVE, -f64::from_bits(1), -f64::from_bits(0x000F_FFFF_FFFF_FFFF)]);
    for ty in DataType::ALL {
        for bound in [ty.min_f64(), ty.max_f64()] {
            xs.extend([-1.0, -0.5, 0.5, 1.0].map(|d| bound + d));
        }
    }
    xs
}

fn f64_case(xs: impl IntoIterator<Item = f64>) -> TestCase {
    TestCase::new(xs.into_iter().flat_map(f64::to_le_bytes).collect())
}

#[test]
fn saturating_casts_are_bit_identical_on_edge_values() {
    let compiled = cast_model();
    assert_jit_live(&compiled);
    assert_case_equivalent(&compiled, &f64_case(cast_edge_values()), "cast edge values");
    let mut rng = SmallRng::seed_from_u64(0xCA57);
    let random = f64_case((0..100_000).map(|_| f64::from_bits(rng.random::<u64>())));
    assert_case_equivalent(&compiled, &random, "cast random bit patterns");
}

#[test]
fn tuple_decode_is_bit_identical_for_every_dtype() {
    let mut b = ModelBuilder::new("Decode");
    for ty in DataType::ALL {
        let u = b.inport(format!("u_{}", ty.name()), ty);
        let y = b.outport(format!("y_{}", ty.name()));
        b.wire(u, y);
    }
    let compiled = compile(&b.finish().expect("decode model is valid")).expect("compiles");
    assert_jit_live(&compiled);
    let size = compiled.layout().tuple_size();
    // Every uniform fill: Bool bytes beyond 0/1 and negative I8/I16/I32.
    let fills = TestCase::new((0..=255u8).flat_map(|b| vec![b; size]).collect());
    assert_case_equivalent(&compiled, &fills, "uniform byte fills");
    let mut rng = SmallRng::seed_from_u64(0xDEC0DE);
    let random = TestCase::new((0..size * 4096).map(|_| rng.random::<u8>()).collect());
    assert_case_equivalent(&compiled, &random, "random tuples");
}
