//! The CFTCG expression and statement language.
//!
//! Simulink models embed imperative logic in three places that CFTCG must
//! instrument (Figure 4(d) of the paper): `If` block condition expressions,
//! MATLAB Function block bodies, and Stateflow chart guards/actions. This
//! module provides a small C-like language for all three:
//!
//! * expressions with arithmetic, comparison, logical operators and a set of
//!   builtin math functions,
//! * statements: assignment and `if`/`else if`/`else`.
//!
//! Text is parsed with [`parse_expr`] / [`parse_stmts`], and ASTs print back
//! to parseable text via `Display`, which is also what the C emitter uses.
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use cftcg_model::expr::{parse_expr, ExprEnv, MapEnv};
//! use cftcg_model::Value;
//!
//! let e = parse_expr("u1 > 10 && u2 != 0")?;
//! let mut env = MapEnv::new();
//! env.set("u1", Value::F64(11.0));
//! env.set("u2", Value::I32(3));
//! assert_eq!(e.eval(&env)?, Value::Bool(true));
//! # Ok(())
//! # }
//! ```

mod ast;
mod eval;
mod lexer;
mod parser;

pub use ast::{format_stmts, BinOp, Expr, Stmt, UnaryOp};
pub use eval::{apply_builtin, exec_stmts, DynEnv, EvalExprError, ExprEnv, MapEnv, BUILTINS};
pub use parser::{parse_expr, parse_stmts, ParseExprError, MAX_DEPTH};
