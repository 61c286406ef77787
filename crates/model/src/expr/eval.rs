//! Direct AST evaluation, used by the interpretive simulator and by the
//! baselines. The compiled path in `cftcg-codegen` lowers the same AST to
//! step-IR instead; differential tests keep the two in agreement.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::{DataType, Value};

use super::ast::{BinOp, Expr, Stmt, UnaryOp};

/// A read/write variable environment for expression evaluation.
pub trait ExprEnv {
    /// Reads a variable, or `None` if it is not defined.
    fn get(&self, name: &str) -> Option<Value>;

    /// Writes a variable (used by statement execution).
    fn set(&mut self, name: &str, value: Value);
}

/// A simple `HashMap`-backed environment.
///
/// ```
/// use cftcg_model::expr::{ExprEnv, MapEnv};
/// use cftcg_model::Value;
/// let mut env = MapEnv::new();
/// env.set("x", Value::F64(2.0));
/// assert_eq!(env.get("x"), Some(Value::F64(2.0)));
/// assert_eq!(env.get("y"), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MapEnv {
    vars: HashMap<String, Value>,
}

impl MapEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterates over the defined variables in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Value)> {
        self.vars.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

impl ExprEnv for MapEnv {
    fn get(&self, name: &str) -> Option<Value> {
        self.vars.get(name).copied()
    }

    fn set(&mut self, name: &str, value: Value) {
        self.vars.insert(name.to_string(), value);
    }
}

/// Error produced when an expression cannot be evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalExprError {
    /// A referenced variable is not defined in the environment.
    UnknownVariable(String),
    /// A called function is not a known builtin.
    UnknownFunction(String),
    /// A builtin was called with the wrong number of arguments.
    BadArity {
        /// Function name.
        function: String,
        /// Number of arguments expected.
        expected: usize,
        /// Number of arguments given.
        found: usize,
    },
}

impl fmt::Display for EvalExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalExprError::UnknownVariable(name) => write!(f, "unknown variable `{name}`"),
            EvalExprError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            EvalExprError::BadArity { function, expected, found } => {
                write!(f, "function `{function}` expects {expected} argument(s), found {found}")
            }
        }
    }
}

impl Error for EvalExprError {}

/// Builtin math functions available in expressions.
///
/// `(name, arity)` pairs; semantics are the usual `f64` ones.
pub const BUILTINS: &[(&str, usize)] = &[
    ("abs", 1),
    ("sqrt", 1),
    ("floor", 1),
    ("ceil", 1),
    ("round", 1),
    ("exp", 1),
    ("ln", 1),
    ("log10", 1),
    ("sin", 1),
    ("cos", 1),
    ("tan", 1),
    ("sign", 1),
    ("min", 2),
    ("max", 2),
    ("pow", 2),
    ("atan2", 2),
    ("clamp", 3),
];

/// Checks a call of `name` with `found` arguments against [`BUILTINS`].
pub(crate) fn check_builtin(name: &str, found: usize) -> Result<(), EvalExprError> {
    let expected = BUILTINS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, arity)| *arity)
        .ok_or_else(|| EvalExprError::UnknownFunction(name.to_string()))?;
    if found != expected {
        return Err(EvalExprError::BadArity { function: name.to_string(), expected, found });
    }
    Ok(())
}

/// Applies a builtin by name. Returns `None` for unknown names or wrong
/// arity.
///
/// Exposed so the compiled execution path (`cftcg-codegen`) dispatches to
/// the *same* numeric definitions the interpreter uses.
pub fn apply_builtin(name: &str, args: &[f64]) -> Option<f64> {
    Some(match (name, args) {
        ("abs", [x]) => x.abs(),
        ("sqrt", [x]) => x.sqrt(),
        ("floor", [x]) => x.floor(),
        ("ceil", [x]) => x.ceil(),
        ("round", [x]) => round_half_away(*x),
        ("exp", [x]) => x.exp(),
        ("ln", [x]) => x.ln(),
        ("log10", [x]) => x.log10(),
        ("sin", [x]) => x.sin(),
        ("cos", [x]) => x.cos(),
        ("tan", [x]) => x.tan(),
        ("sign", [x]) => {
            if *x > 0.0 {
                1.0
            } else if *x < 0.0 {
                -1.0
            } else {
                0.0
            }
        }
        ("min", [a, b]) => a.min(*b),
        ("max", [a, b]) => a.max(*b),
        ("pow", [a, b]) => a.powf(*b),
        ("atan2", [a, b]) => a.atan2(*b),
        ("clamp", [x, lo, hi]) => x.clamp(*lo, *hi),
        _ => return None,
    })
}

/// Rounds half away from zero (Simulink's `round`), unlike Rust's
/// banker-ish `f64::round` which already rounds half away — kept as a named
/// function so every engine shares one definition.
pub(crate) fn round_half_away(x: f64) -> f64 {
    x.round()
}

impl Expr {
    /// Evaluates the expression against `env`.
    ///
    /// Arithmetic is carried out in `f64`; comparisons and logical
    /// connectives produce `Bool`. Logical `&&`/`||` short-circuit, matching
    /// the generated C.
    ///
    /// # Errors
    ///
    /// Returns [`EvalExprError`] for unknown variables or functions.
    pub fn eval<E: DynEnv + ?Sized>(&self, env: &E) -> Result<Value, EvalExprError> {
        match self {
            Expr::Literal(v) => Ok(*v),
            Expr::Var(name) => {
                env.get_var(name).ok_or_else(|| EvalExprError::UnknownVariable(name.clone()))
            }
            Expr::Unary(op, inner) => {
                let v = inner.eval(env)?;
                Ok(match op {
                    UnaryOp::Neg => Value::F64(-v.as_f64()),
                    UnaryOp::Not => Value::Bool(!v.is_truthy()),
                })
            }
            Expr::Binary(op, lhs, rhs) => {
                match op {
                    BinOp::And => {
                        let l = lhs.eval(env)?.is_truthy();
                        if !l {
                            return Ok(Value::Bool(false));
                        }
                        return Ok(Value::Bool(rhs.eval(env)?.is_truthy()));
                    }
                    BinOp::Or => {
                        let l = lhs.eval(env)?.is_truthy();
                        if l {
                            return Ok(Value::Bool(true));
                        }
                        return Ok(Value::Bool(rhs.eval(env)?.is_truthy()));
                    }
                    _ => {}
                }
                let l = lhs.eval(env)?.as_f64();
                let r = rhs.eval(env)?.as_f64();
                Ok(match op {
                    BinOp::Add => Value::F64(l + r),
                    BinOp::Sub => Value::F64(l - r),
                    BinOp::Mul => Value::F64(l * r),
                    BinOp::Div => Value::F64(l / r),
                    BinOp::Rem => Value::F64(l % r),
                    BinOp::Lt => Value::Bool(l < r),
                    BinOp::Le => Value::Bool(l <= r),
                    BinOp::Gt => Value::Bool(l > r),
                    BinOp::Ge => Value::Bool(l >= r),
                    BinOp::Eq => Value::Bool(l == r),
                    BinOp::Ne => Value::Bool(l != r),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                })
            }
            Expr::Call(name, args) => {
                check_builtin(name, args.len())?;
                let mut xs = Vec::with_capacity(args.len());
                for arg in args {
                    xs.push(arg.eval(env)?.as_f64());
                }
                let y = apply_builtin(name, &xs).expect("arity checked against BUILTINS");
                Ok(Value::F64(y))
            }
        }
    }
}

/// Object-safe read view of an environment, so `Expr::eval` can take either
/// a `&MapEnv` or any custom environment without generics.
pub trait DynEnv {
    /// Reads a variable, or `None` if it is not defined.
    fn get_var(&self, name: &str) -> Option<Value>;
}

impl<T: ExprEnv + ?Sized> DynEnv for T {
    fn get_var(&self, name: &str) -> Option<Value> {
        self.get(name)
    }
}

/// Executes a statement list against a mutable environment.
///
/// Assigned variables keep the data type they already have in `env` (the
/// value is cast), or default to `double` when newly introduced — matching
/// how typed output/local variables behave in the generated code.
///
/// # Errors
///
/// Returns [`EvalExprError`] for unknown variables or functions in any
/// evaluated expression.
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use cftcg_model::expr::{exec_stmts, parse_stmts, ExprEnv, MapEnv};
/// use cftcg_model::Value;
///
/// let body = parse_stmts("if (u > 3) { y = u * 2; } else { y = 0; }")?;
/// let mut env = MapEnv::new();
/// env.set("u", Value::F64(5.0));
/// exec_stmts(&body, &mut env)?;
/// assert_eq!(env.get("y"), Some(Value::F64(10.0)));
/// # Ok(())
/// # }
/// ```
pub fn exec_stmts(stmts: &[Stmt], env: &mut dyn ExprEnv) -> Result<(), EvalExprError> {
    for stmt in stmts {
        exec_stmt(stmt, env)?;
    }
    Ok(())
}

fn exec_stmt(stmt: &Stmt, env: &mut dyn ExprEnv) -> Result<(), EvalExprError> {
    match stmt {
        Stmt::Assign(name, value) => {
            let v = value.eval(&*env)?;
            let ty = env.get(name).map_or(DataType::F64, |old| old.data_type());
            env.set(name, v.cast(ty));
            Ok(())
        }
        Stmt::If { cond, then_body, else_body } => {
            if cond.eval(&*env)?.is_truthy() {
                exec_stmts(then_body, env)
            } else {
                exec_stmts(else_body, env)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{parse_expr, parse_stmts};

    fn eval(src: &str, vars: &[(&str, Value)]) -> Value {
        let mut env = MapEnv::new();
        for (k, v) in vars {
            env.set(k, *v);
        }
        parse_expr(src).unwrap().eval(&env).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval("1 + 2 * 3", &[]), Value::F64(7.0));
        assert_eq!(eval("(1 + 2) * 3", &[]), Value::F64(9.0));
        assert_eq!(eval("7 % 3", &[]), Value::F64(1.0));
        assert_eq!(eval("-7 % 3", &[]), Value::F64(-1.0)); // C fmod sign
        assert_eq!(eval("10 / 4", &[]), Value::F64(2.5));
    }

    #[test]
    fn division_by_zero_is_infinite_not_error() {
        assert_eq!(eval("1 / 0", &[]), Value::F64(f64::INFINITY));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval("3 > 2 && 1 <= 1", &[]), Value::Bool(true));
        assert_eq!(eval("3 == 3 || false", &[]), Value::Bool(true));
        assert_eq!(eval("!(2 != 2)", &[]), Value::Bool(true));
        assert_eq!(eval("1 && 0", &[]), Value::Bool(false));
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        // `y` is undefined, but the rhs must not be evaluated.
        assert_eq!(eval("false && y > 0", &[]), Value::Bool(false));
        assert_eq!(eval("true || y > 0", &[]), Value::Bool(true));
        // Without short circuit it errors:
        let e = parse_expr("true && y > 0").unwrap();
        assert_eq!(e.eval(&MapEnv::new()).unwrap_err(), EvalExprError::UnknownVariable("y".into()));
    }

    #[test]
    fn variables_of_any_type_promote() {
        assert_eq!(eval("u + 1", &[("u", Value::I8(-3))]), Value::F64(-2.0));
        assert_eq!(eval("b && true", &[("b", Value::U16(7))]), Value::Bool(true));
    }

    #[test]
    fn builtins() {
        assert_eq!(eval("abs(-3)", &[]), Value::F64(3.0));
        assert_eq!(eval("min(2, 5)", &[]), Value::F64(2.0));
        assert_eq!(eval("max(2, 5)", &[]), Value::F64(5.0));
        assert_eq!(eval("clamp(10, 0, 4)", &[]), Value::F64(4.0));
        assert_eq!(eval("pow(2, 10)", &[]), Value::F64(1024.0));
        assert_eq!(eval("sign(-0.5)", &[]), Value::F64(-1.0));
        assert_eq!(eval("floor(2.9) + ceil(2.1)", &[]), Value::F64(5.0));
        assert_eq!(eval("round(2.5)", &[]), Value::F64(3.0));
        assert_eq!(eval("round(-2.5)", &[]), Value::F64(-3.0));
    }

    #[test]
    fn unknown_function_and_arity_errors() {
        let env = MapEnv::new();
        assert_eq!(
            parse_expr("mystery(1)").unwrap().eval(&env).unwrap_err(),
            EvalExprError::UnknownFunction("mystery".into())
        );
        let err = parse_expr("min(1)").unwrap().eval(&env).unwrap_err();
        assert_eq!(err, EvalExprError::BadArity { function: "min".into(), expected: 2, found: 1 });
        assert!(err.to_string().contains("min"));
    }

    #[test]
    fn stmt_execution_with_branching() {
        let body = parse_stmts(
            "if (mode == 1) { out = x + 1; } else if (mode == 2) { out = x * 2; } else { out = 0; }",
        )
        .unwrap();
        for (mode, x, expected) in [(1.0, 10.0, 11.0), (2.0, 10.0, 20.0), (9.0, 10.0, 0.0)] {
            let mut env = MapEnv::new();
            env.set("mode", Value::F64(mode));
            env.set("x", Value::F64(x));
            exec_stmts(&body, &mut env).unwrap();
            assert_eq!(env.get("out"), Some(Value::F64(expected)));
        }
    }

    #[test]
    fn assignment_preserves_declared_type() {
        let body = parse_stmts("y = 300.7;").unwrap();
        let mut env = MapEnv::new();
        env.set("y", Value::U8(0)); // pre-declared as uint8
        exec_stmts(&body, &mut env).unwrap();
        assert_eq!(env.get("y"), Some(Value::U8(255))); // saturating cast

        let mut env = MapEnv::new(); // undeclared → double
        exec_stmts(&body, &mut env).unwrap();
        assert_eq!(env.get("y"), Some(Value::F64(300.7)));
    }

    #[test]
    fn builtins_table_matches_apply() {
        for (name, arity) in BUILTINS {
            let args = vec![0.5; *arity];
            assert!(
                apply_builtin(name, &args).is_some(),
                "builtin `{name}` missing from apply_builtin"
            );
        }
        assert!(apply_builtin("nope", &[1.0]).is_none());
    }
}
