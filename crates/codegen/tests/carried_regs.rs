//! The carried-register invariant on the benchmark models: no register of
//! the optimized or the reference program holds a value from one tick to
//! the next, so an execution checkpoint is the state plane alone. The fuzz
//! loop's prefix resume does not rely on this (checkpoints save whatever
//! registers the set lists); it keeps checkpoints small.

use cftcg_codegen::{compile, Executor};

#[test]
fn benchmark_models_carry_no_registers() {
    for model in cftcg_benchmarks::all() {
        let compiled = compile(&model).expect("benchmark compiles");
        let name = model.name();
        assert_eq!(compiled.carried_regs(), &[] as &[u32], "{name}: optimized program");
        assert_eq!(compiled.reference_carried_regs(), &[] as &[u32], "{name}: reference program");
        for exec in [Executor::new(&compiled), Executor::new_reference(&compiled)] {
            assert_eq!(exec.checkpoint_len(), compiled.state_len(), "{name}: {}", exec.engine());
        }
    }
}
