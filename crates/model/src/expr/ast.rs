//! Expression and statement AST, with parseable `Display` output.

use std::collections::BTreeSet;
use std::fmt;

use super::eval::{check_builtin, EvalExprError};
use crate::Value;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation, `-x`.
    Neg,
    /// Logical not, `!x`.
    Not,
}

/// Binary operators, C-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (C `fmod` semantics: result takes the dividend's sign)
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&` — a *condition boundary* for Condition/MCDC coverage
    And,
    /// `||` — a *condition boundary* for Condition/MCDC coverage
    Or,
}

impl BinOp {
    /// The operator's source text.
    pub const fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// `true` for operators that produce a boolean.
    pub const fn is_boolean(self) -> bool {
        matches!(
            self,
            BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::And
                | BinOp::Or
        )
    }

    /// `true` for the short-circuiting logical connectives.
    pub const fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div | BinOp::Rem => 5,
        }
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value (`3`, `2.5`, `true`).
    Literal(Value),
    /// A variable reference.
    Var(String),
    /// A unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A builtin function call (`min(a, b)`, `abs(x)`, ...).
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Shorthand for a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Shorthand for a numeric literal.
    pub fn num(x: f64) -> Expr {
        Expr::Literal(Value::F64(x))
    }

    /// Shorthand for a binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Collects the free variable names referenced by the expression.
    ///
    /// ```
    /// # use cftcg_model::expr::parse_expr;
    /// let e = parse_expr("a + min(b, a)").unwrap();
    /// let vars = e.free_vars();
    /// assert_eq!(vars.into_iter().collect::<Vec<_>>(), vec!["a", "b"]);
    /// ```
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Literal(_) => {}
            Expr::Var(name) => {
                out.insert(name.clone());
            }
            Expr::Unary(_, inner) => inner.collect_vars(out),
            Expr::Binary(_, lhs, rhs) => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
            Expr::Call(_, args) => {
                for arg in args {
                    arg.collect_vars(out);
                }
            }
        }
    }

    /// Checks every function call in the expression against
    /// [`BUILTINS`](super::BUILTINS), by name and arity — so a validated
    /// model never reaches the compiler with a call it cannot lower.
    ///
    /// ```
    /// # use cftcg_model::expr::{parse_expr, EvalExprError};
    /// assert!(parse_expr("max(a, 1) > 0").unwrap().check_calls().is_ok());
    /// assert_eq!(
    ///     parse_expr("nosuch(a)").unwrap().check_calls(),
    ///     Err(EvalExprError::UnknownFunction("nosuch".into()))
    /// );
    /// ```
    pub fn check_calls(&self) -> Result<(), EvalExprError> {
        match self {
            Expr::Literal(_) | Expr::Var(_) => Ok(()),
            Expr::Unary(_, inner) => inner.check_calls(),
            Expr::Binary(_, lhs, rhs) => {
                lhs.check_calls()?;
                rhs.check_calls()
            }
            Expr::Call(name, args) => {
                check_builtin(name, args.len())?;
                args.iter().try_for_each(Expr::check_calls)
            }
        }
    }

    /// Counts the *leaf conditions* of the expression when it is used as a
    /// decision: the operands that are not themselves `&&`/`||`/`!` nodes.
    ///
    /// This is the unit Condition Coverage and MCDC count over.
    ///
    /// ```
    /// # use cftcg_model::expr::parse_expr;
    /// assert_eq!(parse_expr("a && (b || !c)").unwrap().count_conditions(), 3);
    /// assert_eq!(parse_expr("a + b > 0").unwrap().count_conditions(), 1);
    /// ```
    pub fn count_conditions(&self) -> usize {
        match self {
            Expr::Binary(op, lhs, rhs) if op.is_logical() => {
                lhs.count_conditions() + rhs.count_conditions()
            }
            Expr::Unary(UnaryOp::Not, inner) => inner.count_conditions(),
            _ => 1,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Var(name) => f.write_str(name),
            Expr::Unary(op, inner) => {
                f.write_str(match op {
                    UnaryOp::Neg => "-",
                    UnaryOp::Not => "!",
                })?;
                // Unary binds tightest; parenthesize any non-primary operand.
                match inner.as_ref() {
                    Expr::Literal(_) | Expr::Var(_) | Expr::Call(..) | Expr::Unary(..) => {
                        inner.fmt_prec(f, 6)
                    }
                    _ => {
                        f.write_str("(")?;
                        inner.fmt_prec(f, 0)?;
                        f.write_str(")")
                    }
                }
            }
            Expr::Binary(op, lhs, rhs) => {
                let prec = op.precedence();
                let need_parens = prec < parent_prec;
                if need_parens {
                    f.write_str("(")?;
                }
                lhs.fmt_prec(f, prec)?;
                write!(f, " {} ", op.symbol())?;
                // Right operand needs parens at equal precedence to preserve
                // left associativity (a - (b - c)).
                rhs.fmt_prec(f, prec + 1)?;
                if need_parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    arg.fmt_prec(f, 0)?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// A statement in a MATLAB Function body or chart action.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `name = expr;`
    Assign(String, Expr),
    /// `if (cond) { ... } else { ... }` — `else if` chains nest in
    /// `else_body`. Every `cond` is a *decision* for coverage purposes.
    If {
        /// The decision expression.
        cond: Expr,
        /// Statements executed when `cond` is truthy.
        then_body: Vec<Stmt>,
        /// Statements executed otherwise (empty for a bare `if`).
        else_body: Vec<Stmt>,
    },
}

impl Stmt {
    /// Shorthand for an assignment statement.
    pub fn assign(name: impl Into<String>, value: Expr) -> Stmt {
        Stmt::Assign(name.into(), value)
    }

    /// Collects variables read by this statement (not assignment targets).
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_read_vars(&mut out);
        out
    }

    fn collect_read_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Stmt::Assign(_, value) => value.collect_vars(out),
            Stmt::If { cond, then_body, else_body } => {
                cond.collect_vars(out);
                for s in then_body.iter().chain(else_body) {
                    s.collect_read_vars(out);
                }
            }
        }
    }

    /// Checks every function call in this statement (conditions and nested
    /// bodies included), like [`Expr::check_calls`].
    pub fn check_calls(&self) -> Result<(), EvalExprError> {
        match self {
            Stmt::Assign(_, value) => value.check_calls(),
            Stmt::If { cond, then_body, else_body } => {
                cond.check_calls()?;
                then_body.iter().chain(else_body).try_for_each(Stmt::check_calls)
            }
        }
    }

    /// Collects variables assigned anywhere in this statement.
    pub fn assigned_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_assigned_vars(&mut out);
        out
    }

    fn collect_assigned_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Stmt::Assign(name, _) => {
                out.insert(name.clone());
            }
            Stmt::If { then_body, else_body, .. } => {
                for s in then_body.iter().chain(else_body) {
                    s.collect_assigned_vars(out);
                }
            }
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            Stmt::Assign(name, value) => writeln!(f, "{pad}{name} = {value};"),
            Stmt::If { cond, then_body, else_body } => {
                writeln!(f, "{pad}if ({cond}) {{")?;
                for s in then_body {
                    s.fmt_indented(f, depth + 1)?;
                }
                if else_body.is_empty() {
                    writeln!(f, "{pad}}}")
                } else {
                    writeln!(f, "{pad}}} else {{")?;
                    for s in else_body {
                        s.fmt_indented(f, depth + 1)?;
                    }
                    writeln!(f, "{pad}}}")
                }
            }
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

/// Formats a statement list as a block body (each statement on its own line).
///
/// The output reparses with [`crate::expr::parse_stmts`] to the same AST.
pub fn format_stmts(stmts: &[Stmt]) -> String {
    use fmt::Write as _;
    let mut out = String::new();
    for s in stmts {
        let _ = write!(out, "{s}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_minimal_parens() {
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
            Expr::var("c"),
        );
        assert_eq!(e.to_string(), "(a + b) * c");

        let e = Expr::bin(
            BinOp::Add,
            Expr::var("a"),
            Expr::bin(BinOp::Mul, Expr::var("b"), Expr::var("c")),
        );
        assert_eq!(e.to_string(), "a + b * c");
    }

    #[test]
    fn display_preserves_right_nesting() {
        let e = Expr::bin(
            BinOp::Sub,
            Expr::var("a"),
            Expr::bin(BinOp::Sub, Expr::var("b"), Expr::var("c")),
        );
        assert_eq!(e.to_string(), "a - (b - c)");
    }

    #[test]
    fn display_unary() {
        let e = Expr::Unary(
            UnaryOp::Neg,
            Box::new(Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b"))),
        );
        assert_eq!(e.to_string(), "-(a + b)");
        let e = Expr::Unary(UnaryOp::Not, Box::new(Expr::var("x")));
        assert_eq!(e.to_string(), "!x");
    }

    #[test]
    fn condition_counting() {
        use crate::expr::parse_expr;
        assert_eq!(parse_expr("a").unwrap().count_conditions(), 1);
        assert_eq!(parse_expr("a && b").unwrap().count_conditions(), 2);
        assert_eq!(parse_expr("a && b || c > 1").unwrap().count_conditions(), 3);
        assert_eq!(parse_expr("!(a || b)").unwrap().count_conditions(), 2);
        assert_eq!(parse_expr("min(a, b) > 0").unwrap().count_conditions(), 1);
    }

    #[test]
    fn stmt_variable_analysis() {
        use crate::expr::parse_stmts;
        let stmts = parse_stmts("if (x > 0) { y = x + z; } else { y = 0; w = q; }").unwrap();
        let read: Vec<_> = stmts[0].free_vars().into_iter().collect();
        assert_eq!(read, vec!["q", "x", "z"]);
        let written: Vec<_> = stmts[0].assigned_vars().into_iter().collect();
        assert_eq!(written, vec!["w", "y"]);
    }

    #[test]
    fn stmt_display_roundtrips() {
        use crate::expr::parse_stmts;
        let src = "if (x > 0) { y = 1; } else { y = 2; }";
        let stmts = parse_stmts(src).unwrap();
        let printed = format_stmts(&stmts);
        assert_eq!(parse_stmts(&printed).unwrap(), stmts);
    }
}
