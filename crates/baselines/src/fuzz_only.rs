//! The "Fuzz Only" ablation of the paper's Figure 8: a generic fuzzer
//! pointed at the generated code *without* the model-oriented pieces.
//!
//! Two things change relative to CFTCG, matching the paper's root-cause
//! analysis exactly:
//!
//! 1. **Feedback**: only code-level branches are observable. Boolean and
//!    relational blocks compile branchless under `-O2` ("the boolean
//!    operations did not have jump instruction and not instrumented"), so
//!    their coverage never guides the search.
//! 2. **Mutation**: blind byte-stream editing with arbitrary-length inserts
//!    and erases ("traditional input mutation methods can cause data
//!    misalignment when deleting or inserting data in the byte stream").

use std::time::Duration;

use cftcg_codegen::CompiledModel;
use cftcg_fuzz::{FeedbackMode, FuzzConfig, Fuzzer};

use crate::Generation;

/// Configuration of the ablated fuzzer.
#[derive(Debug, Clone)]
pub struct FuzzOnlyConfig {
    /// RNG seed.
    pub seed: u64,
    /// Wall-clock budget.
    pub budget: Duration,
}

impl Default for FuzzOnlyConfig {
    fn default() -> Self {
        FuzzOnlyConfig { seed: 0, budget: Duration::from_secs(10) }
    }
}

/// Runs the ablated fuzzer for the configured budget.
pub fn generate(compiled: &CompiledModel, config: &FuzzOnlyConfig) -> Generation {
    let fuzz_config = FuzzConfig {
        seed: config.seed,
        field_aware: false,
        metric_weighted_corpus: false,
        feedback: FeedbackMode::CodeLevelOnly,
        ..FuzzConfig::default()
    };
    let mut fuzzer = Fuzzer::new(compiled, fuzz_config);
    let outcome = fuzzer.run_for(config.budget);
    let mut generation: Generation = outcome.into();
    generation.notes = format!(
        "code-level feedback over {} of {} branches",
        compiled.map().code_level_mask().count(),
        compiled.map().branch_count()
    );
    generation
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_codegen::{compile, replay_suite};
    use cftcg_fuzz::Fuzzer;
    use cftcg_model::{BlockKind, DataType, LogicOp, ModelBuilder};

    /// Boolean-heavy model: fuzz-only is blind to most of it.
    fn boolean_model() -> cftcg_codegen::CompiledModel {
        let mut b = ModelBuilder::new("bools");
        let x = b.inport("x", DataType::Bool);
        let w = b.inport("w", DataType::Bool);
        let z = b.inport("z", DataType::Bool);
        let and = b.add("and", BlockKind::Logic { op: LogicOp::And, inputs: 3 });
        let or = b.add("or", BlockKind::Logic { op: LogicOp::Or, inputs: 2 });
        let y = b.outport("y");
        b.feed(x, and, 0);
        b.feed(w, and, 1);
        b.feed(z, and, 2);
        b.feed(and, or, 0);
        b.feed(z, or, 1);
        b.wire(or, y);
        compile(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn fuzz_only_lags_cftcg_on_boolean_logic() {
        let compiled = boolean_model();
        let ablated =
            generate(&compiled, &FuzzOnlyConfig { seed: 4, budget: Duration::from_millis(100) });
        let ablated_report = replay_suite(&compiled, &ablated.suite);

        let mut cftcg =
            Fuzzer::new(&compiled, cftcg_fuzz::FuzzConfig { seed: 4, ..Default::default() });
        let full = cftcg.run_for(Duration::from_millis(100));
        let full_report = replay_suite(&compiled, &full.suite);

        assert!(
            full_report.condition.percent() > ablated_report.condition.percent(),
            "model-oriented must beat fuzz-only on condition coverage: {} vs {}",
            full_report.condition.percent(),
            ablated_report.condition.percent()
        );
        assert!(ablated.notes.contains("code-level feedback"));
    }
}
