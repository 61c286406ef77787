#![warn(missing_docs)]

//! The **Model Oriented Fuzzing Loop** of CFTCG (paper Section 3.2).
//!
//! The paper builds its fuzzer on LibFuzzer; this reproduction implements
//! the whole in-process loop so the model-oriented pieces run exactly as
//! described:
//!
//! * **Model input mutation** (§3.2.1, Table 1, Figure 5) — eight
//!   tuple-aware strategies in [`Mutator`]. A *tuple* is one model
//!   iteration's worth of input bytes; field boundaries come from the fuzz
//!   driver's [`TupleLayout`](cftcg_codegen::TupleLayout), so structural
//!   mutations never misalign the remaining data.
//! * **Model coverage collection** (§3.2.2, Algorithm 1, Figure 6) — the
//!   per-iteration branch bitmap, total-coverage tracking, test-case output
//!   on new coverage, and the *Iteration Difference Coverage* metric that
//!   prioritizes corpus entries whose executions keep visiting different
//!   branches across iterations.
//!
//! [`Fuzzer`] drives a compiled model ([`cftcg_codegen::Executor`]) under a
//! wall-clock or execution budget and produces a [`FuzzOutcome`]: the
//! emitted test suite, timestamped coverage events (for the paper's
//! Figure 7 curves), and throughput counters.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use cftcg_codegen::compile;
//! use cftcg_fuzz::{FuzzConfig, Fuzzer};
//! use cftcg_model::{BlockKind, DataType, ModelBuilder};
//!
//! let mut b = ModelBuilder::new("m");
//! let u = b.inport("u", DataType::I16);
//! let sat = b.add("sat", BlockKind::Saturation { lower: -100.0, upper: 100.0 });
//! let y = b.outport("y");
//! b.wire(u, sat);
//! b.wire(sat, y);
//! let compiled = compile(&b.finish()?)?;
//!
//! let mut fuzzer = Fuzzer::new(&compiled, FuzzConfig { seed: 7, ..FuzzConfig::default() });
//! let outcome = fuzzer.run_executions(2_000);
//! assert_eq!(outcome.branch_coverage().percent(), 100.0);
//! assert!(!outcome.suite.is_empty());
//! # Ok(())
//! # }
//! ```

mod campaign;
mod corpus;
mod fuzzer;
mod generation;
mod lineage;
mod minimize;
mod mutate;
mod parallel;
mod plateau;
mod resume;

pub use corpus::{Corpus, CorpusEntry, CorpusInsertion};
pub use fuzzer::{
    CaseMeta, CoverageEvent, FeedbackMode, FuzzConfig, FuzzOutcome, Fuzzer, RunProbe,
};
pub use generation::{coverage_series, Generation};
pub use lineage::{format_chain, Lineage, LineageOrigin, LineageRecord, SHARD_ID_STRIDE};
pub use minimize::{minimize_case, minimize_suite};
pub use mutate::{FieldRange, MutationKind, Mutator};
pub use parallel::{ParallelFuzzConfig, ParallelFuzzer};
pub use plateau::PlateauDetector;
