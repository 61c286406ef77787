//! Prefix resume is exact: a mutant resumed from its corpus parent's last
//! checkpoint before its first changed tuple block ends exactly where the
//! same input run in full from `Model_init()` ends — the same new-branch
//! count and iteration-difference metric, `last` bitmap, coverage total,
//! failed-assertion flags, final state and checkpoints — on every benchmark
//! model and on the reference, flat and JIT engines. Both runs start from
//! one shard state with the TORC ring frozen (put back after each run), so
//! the comparison isolates the resume. Small corpora that evict on nearly
//! every insertion, in both replacement policies, keep each entry with its
//! own checkpoints, and campaigns with resume stay identical across the
//! three engines.

use cftcg::codegen::{compile, CompiledModel, Engine};
use cftcg::fuzz::{FuzzConfig, FuzzOutcome, Fuzzer, Mutator, RunProbe};
use cftcg::model::{BlockKind, DataType, Model, ModelBuilder, RelOp};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const ENGINES: [Engine; 3] = [Engine::Reference, Engine::Flat, Engine::Jit];

/// A plant whose safety property "output stays below 100" a sustained
/// positive input violates: the benchmarks have no Assertion block, and the
/// checkpoints carry failed-assertion flags.
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

fn models() -> Vec<Model> {
    let mut models = cftcg::benchmarks::all();
    models.push(guarded_model());
    models
}

/// Children of `parent` that keep a prefix and change what follows: a
/// copy, single-byte edits around every block edge, truncations,
/// extensions and stacked Table 1 mutations.
fn children(parent: &[u8], compiled: &CompiledModel, rng: &mut SmallRng) -> Vec<Vec<u8>> {
    let tuple = compiled.layout().tuple_size().max(1);
    let mut out = vec![parent.to_vec()];
    for at in (0..parent.len()).step_by(4 * tuple).chain([parent.len().saturating_sub(1)]) {
        for pos in [at, at + tuple - 1].into_iter().filter(|&p| p < parent.len()) {
            let mut child = parent.to_vec();
            child[pos] ^= 0x5a;
            out.push(child);
        }
        out.push(parent[..at].to_vec());
    }
    let mut longer = parent.to_vec();
    longer.extend((0..9 * tuple).map(|i| i as u8 ^ 0x33));
    out.push(longer);
    let mutator = Mutator::new(compiled.layout().clone(), 96);
    for _ in 0..12 {
        let mut child = parent.to_vec();
        for _ in 0..3 {
            mutator.mutate(rng, &mut child, None);
        }
        out.push(child);
    }
    out
}

/// Fuzzes `config` for a while, then checks every child of the first
/// corpus entries: resumed and full runs must agree exactly.
fn check_resume(compiled: &CompiledModel, config: FuzzConfig, context: &str) {
    let mut fuzzer = Fuzzer::new(compiled, config);
    fuzzer.add_seed(vec![20; 40 * compiled.layout().tuple_size().max(1)]);
    fuzzer.run_executions(300);
    let mut rng = SmallRng::seed_from_u64(9);
    let (mut runs, mut resumed) = (0, 0);
    for slot in 0..fuzzer.corpus().len().min(24) {
        let parent = fuzzer.corpus().entries()[slot].bytes.clone();
        for child in children(&parent, compiled, &mut rng) {
            let [resumed_run, full_run] = fuzzer.resume_differential(slot, &child);
            assert_eq!(full_run.resumed_ticks, 0, "{context}");
            assert_eq!(
                resumed_run,
                RunProbe { resumed_ticks: resumed_run.resumed_ticks, ..full_run },
                "{context}: slot {slot}, child of {} bytes",
                child.len()
            );
            runs += 1;
            resumed += u64::from(resumed_run.resumed_ticks > 0);
        }
    }
    assert!(resumed * 4 > runs, "{context}: only {resumed} of {runs} runs resumed");
}

#[test]
fn resumed_and_full_executions_agree_on_every_model_and_engine() {
    for model in models() {
        let compiled = compile(&model).expect("model compiles");
        for engine in ENGINES {
            let config = FuzzConfig { seed: 5, engine: Some(engine), ..FuzzConfig::default() };
            check_resume(&compiled, config, &format!("{} on {engine}", model.name()));
        }
    }
}

/// A small corpus evicts constantly, in both replacement policies: every
/// entry must still hold its own execution's checkpoints.
#[test]
fn evicting_corpora_keep_each_entry_with_its_checkpoints() {
    for model in models() {
        let compiled = compile(&model).expect("model compiles");
        for metric_weighted_corpus in [true, false] {
            let config = FuzzConfig {
                seed: 6,
                corpus_capacity: 6,
                metric_weighted_corpus,
                ..FuzzConfig::default()
            };
            let context = format!("{}, metric-weighted {metric_weighted_corpus}", model.name());
            check_resume(&compiled, config, &context);
        }
    }
}

#[test]
fn campaigns_with_resume_are_identical_across_engines() {
    for model in models() {
        let compiled = compile(&model).expect("model compiles");
        let run = |engine| {
            let config = FuzzConfig { seed: 3, engine: Some(engine), ..FuzzConfig::default() };
            Fuzzer::new(&compiled, config).run_executions(600)
        };
        let key = |o: &FuzzOutcome| {
            let suite: Vec<_> = o.suite.iter().map(|c| c.bytes.clone()).collect();
            let violations: Vec<_> =
                o.violations.iter().map(|(i, c)| (*i, c.bytes.clone())).collect();
            (
                suite,
                violations,
                o.lineage.clone(),
                o.iterations,
                o.resumed_ticks,
                o.covered_branches,
            )
        };
        let reference = run(Engine::Reference);
        assert!(reference.resumed_ticks > 0, "{}: no tick resumed", model.name());
        for engine in [Engine::Flat, Engine::Jit] {
            assert!(key(&run(engine)) == key(&reference), "{} on {engine}", model.name());
        }
    }
}
