#![warn(missing_docs)]

//! CFTCG fuzzing code generation.
//!
//! This crate implements the paper's **Fuzzing Code Generation** stage
//! (Section 3.1): it converts a validated model into executable, branch-
//! instrumented code plus the model-specific fuzz driver.
//!
//! * **Schedule conversion + code synthesis** — [`compile`] turns a
//!   [`Model`](cftcg_model::Model) into a [`CompiledModel`]: a structured
//!   step program (the *step-IR*) over an `f64` register file with explicit
//!   state slots, executed by the fast [`Executor`] VM. The step-IR plays
//!   the role of the generated C in the paper; [`emit_c`] additionally
//!   prints equivalent instrumented C source for inspection.
//! * **Branch instrumentation** — during conversion every decision point is
//!   annotated with probes following the four modes of the paper's
//!   Figure 4: (a) boolean-block inputs, (b) data-switch branches,
//!   (c) branch blocks (If / SwitchCase action subsystems), and
//!   (d) conditionals inside blocks (Saturation, MATLAB Function,
//!   charts, ...) including implicit `else` branches. The resulting
//!   [`InstrumentationMap`](cftcg_coverage::InstrumentationMap) is carried
//!   by the compiled model.
//! * **Fuzz driver generation** — [`TupleLayout`] is computed from the
//!   top-level inports (Section 3.1.1): per-iteration field offsets, sizes
//!   and types. It decodes fuzzer byte streams into input tuples exactly
//!   like the `memcpy` driver of the paper's Figure 3, whose C text
//!   [`emit_driver_c`] prints.
//! * **Replay** — [`replay_suite`] runs a finished test suite through the
//!   instrumented program with a full tracker and scores Decision /
//!   Condition / MCDC coverage; this is the common yardstick used by every
//!   experiment (the paper converts test cases to CSV and replays them in
//!   Simulink's coverage tool — [`test_case_to_csv`] mirrors that exporter).
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use cftcg_codegen::{compile, Executor};
//! use cftcg_coverage::BranchBitmap;
//! use cftcg_model::{BlockKind, DataType, ModelBuilder, Value};
//!
//! let mut b = ModelBuilder::new("clip");
//! let u = b.inport("u", DataType::F64);
//! let sat = b.add("sat", BlockKind::Saturation { lower: 0.0, upper: 1.0 });
//! let y = b.outport("y");
//! b.wire(u, sat);
//! b.wire(sat, y);
//! let model = b.finish()?;
//!
//! let compiled = compile(&model)?;
//! let mut exec = Executor::new(&compiled);
//! let mut cov = BranchBitmap::new(compiled.map().branch_count());
//! let out = exec.step(&[Value::F64(7.0)], &mut cov);
//! assert_eq!(out, vec![Value::F64(1.0)]); // clipped
//! assert!(cov.count() > 0); // the upper-limit branch probe fired
//! # Ok(())
//! # }
//! ```

mod cemit;
mod compile;
mod flatten;
mod ir;
#[cfg(cftcg_jit)]
mod jit;
mod layout;
mod lower;
mod opt;
mod replay;
mod vm;

pub use cemit::{emit_c, emit_driver_c};
pub use compile::{compile, CompileError, CompiledModel, SignalMeta};
pub use ir::{BinopCode, FuncCode, Instr, Reg, UnopCode};
pub use layout::{
    test_case_from_csv, test_case_to_csv, FieldLayout, ParseCsvError, TestCase, TupleLayout,
};
pub use opt::OptStats;
pub use replay::{replay_case, replay_suite};
pub use vm::{resolve_engine, Engine, Executor, JitStats};
