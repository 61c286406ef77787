//! The JIT's compare-table fast path against the flat VM.
//!
//! A recorder exposing a [`CompareTable`] (see
//! [`Recorder::compare_table`]) promises that `compare` is a no-op for
//! inadmissible pairs and pairs the table holds, so the JIT skips exactly
//! those calls. This test holds it to that: the JIT's calls must equal the
//! flat VM's compare events filtered by `admissible && !contains` at the
//! moment each event fires, and the table and ring the recorder maintains
//! must end identical on both engines — over random cases of every bundled
//! model, and over a model whose compare operands are IEEE edge values.

use cftcg::codegen::{compile, CompiledModel, Engine, Executor, TestCase};
use cftcg::coverage::{BranchId, CompareTable, Recorder};
use cftcg::model::{BlockKind, DataType, ModelBuilder, RelOp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Ring size: the most a [`CompareTable`] may hold (half its slots), so
/// the table runs at full load and long cases evict continuously.
const CAPACITY: usize = CompareTable::SLOTS / 2;

/// A TORC-shaped recorder that also logs every `compare` call it receives,
/// with whether the call changed anything.
struct TableLog {
    table: CompareTable,
    ring: Vec<(u64, u64)>,
    next_evict: usize,
    /// `(lhs bits, rhs bits, admissible && !contained)` per call.
    calls: Vec<(u64, u64, bool)>,
}

impl TableLog {
    fn new() -> Self {
        TableLog { table: CompareTable::new(), ring: Vec::new(), next_evict: 0, calls: Vec::new() }
    }
}

impl Recorder for TableLog {
    const OBSERVES_BRANCHES: bool = false;
    const OBSERVES_CONDITIONS: bool = false;
    const OBSERVES_DECISIONS: bool = false;
    const OBSERVES_ASSERTIONS: bool = false;

    fn branch(&mut self, _id: BranchId) {}

    fn compare(&mut self, lhs: f64, rhs: f64) {
        let changes = CompareTable::admissible(lhs, rhs) && !self.table.contains(lhs, rhs);
        self.calls.push((lhs.to_bits(), rhs.to_bits(), changes));
        if !changes {
            return;
        }
        self.table.insert(lhs, rhs);
        let key = (lhs.to_bits(), rhs.to_bits());
        if self.ring.len() == CAPACITY {
            let (l, r) = self.ring[self.next_evict];
            self.table.remove(f64::from_bits(l), f64::from_bits(r));
            self.ring[self.next_evict] = key;
            self.next_evict = (self.next_evict + 1) % CAPACITY;
        } else {
            self.ring.push(key);
        }
    }

    fn compare_table(&mut self) -> Option<&CompareTable> {
        Some(&self.table)
    }
}

/// Runs `cases` in order on the flat VM and the JIT, one recorder each
/// (state carries across cases, as in the fuzz loop), and checks the
/// contract. Returns how many calls the JIT skipped.
fn assert_table_path_exact(compiled: &CompiledModel, cases: &[TestCase], context: &str) -> usize {
    if Engine::jit_supported() {
        assert_eq!(Executor::new_jit(compiled).engine(), Engine::Jit, "jit tier unavailable");
    }
    let (mut flat, mut jit) = (Executor::new(compiled), Executor::new_jit(compiled));
    let (mut flat_log, mut jit_log) = (TableLog::new(), TableLog::new());
    for case in cases {
        flat.run_case(case, &mut flat_log);
        jit.run_case(case, &mut jit_log);
    }
    let changing: Vec<_> = flat_log.calls.iter().filter(|c| c.2).collect();
    if jit.engine() == Engine::Jit {
        assert_eq!(
            jit_log.calls.iter().collect::<Vec<_>>(),
            changing,
            "{context}: the JIT's compare calls are not the flat VM's changing events"
        );
    } else {
        assert_eq!(jit_log.calls, flat_log.calls, "{context}: fallback engine diverges");
    }
    assert_eq!(jit_log.ring, flat_log.ring, "{context}: rings diverge");
    assert_eq!(jit_log.next_evict, flat_log.next_evict, "{context}: ring cursors diverge");
    assert!(jit_log.table == flat_log.table, "{context}: tables diverge");
    flat_log.calls.len() - jit_log.calls.len()
}

#[test]
fn jit_compare_calls_are_the_changing_flat_events_on_every_benchmark() {
    for model in cftcg::benchmarks::all() {
        let compiled = compile(&model).expect("benchmark compiles");
        let size = compiled.layout().tuple_size().max(1);
        let mut rng = SmallRng::seed_from_u64(0x7AB1E ^ model.name().len() as u64);
        let cases: Vec<TestCase> = (0..40)
            .map(|round| {
                let ticks = 1 + (round * 11) % 61;
                TestCase::new((0..size * ticks).map(|_| rng.random::<u8>()).collect())
            })
            .collect();
        let skipped = assert_table_path_exact(&compiled, &cases, model.name());
        if Engine::jit_supported() {
            assert!(skipped > 0, "{}: the table path never skipped a call", model.name());
        }
    }
}

/// Compare operands at the admission rule's edges: signed zeros, NaNs of
/// both signs (quiet and signalling), infinities, the trivial-pair bound
/// ±1 and its neighbours, the smallest normal, subnormals and extremes,
/// plus ordinary values so admissible pairs exist.
fn edge_values() -> Vec<f64> {
    let below_one = f64::from_bits(1.0f64.to_bits() - 1);
    let mut xs = vec![
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001),
        f64::from_bits(0xFFF4_0000_0000_0000),
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for x in [
        0.0,
        1.0,
        1.0 + f64::EPSILON,
        below_one,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::MAX,
        2.0,
        3.5,
        1e6,
    ] {
        xs.extend([x, -x]);
    }
    xs
}

/// Two `double` inports compared every way, both orientations, plus a
/// compare against a constant.
fn edge_model() -> CompiledModel {
    let mut b = ModelBuilder::new("CompareEdges");
    let u = b.inport("u", DataType::F64);
    let v = b.inport("v", DataType::F64);
    let ops = [RelOp::Eq, RelOp::Ne, RelOp::Lt, RelOp::Le, RelOp::Gt, RelOp::Ge];
    for (i, op) in ops.into_iter().enumerate() {
        let (l, r) = if i % 2 == 0 { (u, v) } else { (v, u) };
        let rel = b.add(format!("rel{i}"), BlockKind::Relational { op });
        let y = b.outport(format!("y{i}"));
        b.connect(l, 0, rel, 0);
        b.connect(r, 0, rel, 1);
        b.wire(rel, y);
    }
    let cmp = b.add("cmp", BlockKind::Compare { op: RelOp::Lt, constant: 2.0 });
    let y = b.outport("y_cmp");
    b.wire(u, cmp);
    b.wire(cmp, y);
    compile(&b.finish().expect("edge model is valid")).expect("edge model compiles")
}

fn pair_case(pairs: impl IntoIterator<Item = (f64, f64)>) -> TestCase {
    TestCase::new(
        pairs.into_iter().flat_map(|(u, v)| [u.to_le_bytes(), v.to_le_bytes()]).flatten().collect(),
    )
}

#[test]
fn jit_compare_calls_are_exact_on_edge_operands() {
    let compiled = edge_model();
    let xs = edge_values();
    // Every ordered pair, equal pairs included; the second case repeats
    // the first against a warm table, so the hit paths run too.
    let all_pairs: Vec<(f64, f64)> =
        xs.iter().flat_map(|&u| xs.iter().map(move |&v| (u, v))).collect();
    let mut cases = vec![pair_case(all_pairs.clone()), pair_case(all_pairs)];
    // Random bit patterns near the edges churn the ring past capacity.
    let mut rng = SmallRng::seed_from_u64(0xED6E);
    for _ in 0..4 {
        let near = |rng: &mut SmallRng| {
            let x = xs[rng.random_range(0..xs.len())];
            let bits = x.to_bits().wrapping_add(rng.random_range(0..5u64)).wrapping_sub(2);
            f64::from_bits(if rng.random_range(0..4u32) == 0 { rng.random() } else { bits })
        };
        cases.push(pair_case((0..1500).map(|_| (near(&mut rng), near(&mut rng)))));
    }
    let skipped = assert_table_path_exact(&compiled, &cases, "edge operands");
    if Engine::jit_supported() {
        assert!(skipped > 0, "the table path never skipped a call");
    }
}
