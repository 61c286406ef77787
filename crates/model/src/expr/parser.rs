//! Recursive-descent parser for expressions and statement lists.

use std::error::Error;
use std::fmt;

use crate::Value;

use super::ast::{BinOp, Expr, Stmt, UnaryOp};
use super::lexer::{tokenize, Spanned, Token};

/// Error produced when expression/statement text is malformed.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseExprError {
    message: String,
    offset: usize,
}

impl ParseExprError {
    /// Human-readable description of the problem.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Byte offset of the offending token in the source text.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl Error for ParseExprError {}

/// Deepest nesting the parser accepts: at most this many nested groups
/// (parentheses, call argument lists, prefix operators, `if` statements)
/// around any token, and at most this many operator and call nodes on any
/// root-to-leaf path of a built expression. Deeper input is a
/// [`ParseExprError`] rather than a stack overflow, and no deeper tree is
/// ever built, so recursive passes over the AST (evaluation, lowering,
/// printing, drop) stay bounded too.
pub const MAX_DEPTH: usize = 256;

/// Parses a single expression.
///
/// # Errors
///
/// Returns [`ParseExprError`] on malformed input, trailing tokens, or
/// nesting deeper than [`MAX_DEPTH`].
///
/// ```
/// # use cftcg_model::expr::parse_expr;
/// assert!(parse_expr("u1 >= 2 && !u2").is_ok());
/// assert!(parse_expr("u1 +").is_err());
/// ```
pub fn parse_expr(src: &str) -> Result<Expr, ParseExprError> {
    let tokens = tokenize(src).map_err(|(offset, message)| ParseExprError { message, offset })?;
    let mut p = Parser::new(tokens, src.len());
    let expr = p.expr()?;
    p.expect_end()?;
    Ok(expr)
}

/// Parses a statement list (a MATLAB Function body or a chart action).
///
/// # Errors
///
/// Returns [`ParseExprError`] on malformed input or nesting deeper than
/// [`MAX_DEPTH`].
///
/// ```
/// # use cftcg_model::expr::parse_stmts;
/// let body = parse_stmts("y = 0; if (u > 5) { y = 1; }").unwrap();
/// assert_eq!(body.len(), 2);
/// ```
pub fn parse_stmts(src: &str) -> Result<Vec<Stmt>, ParseExprError> {
    let tokens = tokenize(src).map_err(|(offset, message)| ParseExprError { message, offset })?;
    let mut p = Parser::new(tokens, src.len());
    let stmts = p.stmt_list_until_end()?;
    Ok(stmts)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    src_len: usize,
    /// Groups open at `pos` (see [`MAX_DEPTH`]).
    nesting: usize,
    /// Operator/call nodes on the longest path of the expression parsed
    /// last (0 for a leaf).
    height: usize,
}

impl Parser {
    fn new(tokens: Vec<Spanned>, src_len: usize) -> Self {
        Parser { tokens, pos: 0, src_len, nesting: 0, height: 0 }
    }

    fn too_deep(&self) -> ParseExprError {
        self.error(format!("expression nests deeper than {MAX_DEPTH} levels"))
    }

    /// Runs `parse` one group deeper.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseExprError>,
    ) -> Result<T, ParseExprError> {
        if self.nesting == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let parsed = parse(self);
        self.nesting -= 1;
        parsed
    }

    /// The height of a node over children at most `child` high.
    fn node_height(&self, child: usize) -> Result<usize, ParseExprError> {
        if child == MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(child + 1)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.src_len, |s| s.offset)
    }

    fn error(&self, message: impl Into<String>) -> ParseExprError {
        ParseExprError { message: message.into(), offset: self.offset() }
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, token: &Token) -> bool {
        if self.peek() == Some(token) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &Token) -> Result<(), ParseExprError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected `{token}`, found {}",
                self.peek().map_or("end of input".to_string(), |t| format!("`{t}`"))
            )))
        }
    }

    fn expect_end(&self) -> Result<(), ParseExprError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.error("unexpected trailing input"))
        }
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseExprError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseExprError> {
        let mut lhs = self.and_expr()?;
        let mut height = self.height;
        while self.eat(&Token::OrOr) {
            let rhs = self.and_expr()?;
            height = self.node_height(height.max(self.height))?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        self.height = height;
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseExprError> {
        let mut lhs = self.cmp_expr()?;
        let mut height = self.height;
        while self.eat(&Token::AndAnd) {
            let rhs = self.cmp_expr()?;
            height = self.node_height(height.max(self.height))?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        self.height = height;
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseExprError> {
        let lhs = self.add_expr()?;
        let lhs_height = self.height;
        let op = match self.peek() {
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            Some(Token::EqEq) => BinOp::Eq,
            Some(Token::Ne) => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        self.height = self.node_height(lhs_height.max(self.height))?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr, ParseExprError> {
        let mut lhs = self.mul_expr()?;
        let mut height = self.height;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            height = self.node_height(height.max(self.height))?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        self.height = height;
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseExprError> {
        let mut lhs = self.unary_expr()?;
        let mut height = self.height;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Rem,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            height = self.node_height(height.max(self.height))?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        self.height = height;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseExprError> {
        let op = if self.eat(&Token::Minus) {
            UnaryOp::Neg
        } else if self.eat(&Token::Bang) {
            UnaryOp::Not
        } else {
            return self.primary_expr();
        };
        let inner = self.nested(Self::unary_expr)?;
        // Fold negation of literals so `-1` is a literal, not an op.
        if let (UnaryOp::Neg, Expr::Literal(Value::F64(x))) = (op, &inner) {
            return Ok(Expr::Literal(Value::F64(-x)));
        }
        self.height = self.node_height(self.height)?;
        Ok(Expr::Unary(op, Box::new(inner)))
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseExprError> {
        self.height = 0;
        match self.bump() {
            Some(Token::Number(x)) => Ok(Expr::Literal(Value::F64(x))),
            Some(Token::True) => Ok(Expr::Literal(Value::Bool(true))),
            Some(Token::False) => Ok(Expr::Literal(Value::Bool(false))),
            Some(Token::Ident(name)) => {
                if self.eat(&Token::LParen) {
                    let (args, height) = self.nested(|p| {
                        let (mut args, mut height) = (Vec::new(), 0);
                        if !p.eat(&Token::RParen) {
                            loop {
                                args.push(p.expr()?);
                                height = height.max(p.height);
                                if p.eat(&Token::RParen) {
                                    break;
                                }
                                p.expect(&Token::Comma)?;
                            }
                        }
                        Ok((args, height))
                    })?;
                    self.height = self.node_height(height)?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            Some(Token::LParen) => self.nested(|p| {
                let inner = p.expr()?;
                p.expect(&Token::RParen)?;
                Ok(inner)
            }),
            Some(other) => Err(ParseExprError {
                message: format!("unexpected token `{other}`"),
                offset: self.tokens[self.pos - 1].offset,
            }),
            None => Err(self.error("unexpected end of input")),
        }
    }

    // ---- statements ------------------------------------------------------

    fn stmt_list_until_end(&mut self) -> Result<Vec<Stmt>, ParseExprError> {
        let mut stmts = Vec::new();
        while self.peek().is_some() {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseExprError> {
        if self.eat(&Token::If) {
            return self.nested(Self::if_stmt);
        }
        match self.bump() {
            Some(Token::Ident(name)) => {
                self.expect(&Token::Assign)?;
                let value = self.expr()?;
                self.expect(&Token::Semicolon)?;
                Ok(Stmt::Assign(name, value))
            }
            Some(other) => Err(ParseExprError {
                message: format!("expected a statement, found `{other}`"),
                offset: self.tokens[self.pos - 1].offset,
            }),
            None => Err(self.error("expected a statement")),
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseExprError> {
        self.expect(&Token::LParen)?;
        let cond = self.expr()?;
        self.expect(&Token::RParen)?;
        let then_body = self.block()?;
        let else_body = if self.eat(&Token::Else) {
            if self.eat(&Token::If) {
                vec![self.nested(Self::if_stmt)?] // `else if` chains
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If { cond, then_body, else_body })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseExprError> {
        self.expect(&Token::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&Token::RBrace) {
            if self.peek().is_none() {
                return Err(self.error("unclosed `{` block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence() {
        let e = parse_expr("a + b * c").unwrap();
        assert_eq!(e.to_string(), "a + b * c");
        let e = parse_expr("(a + b) * c").unwrap();
        assert_eq!(e.to_string(), "(a + b) * c");
        let e = parse_expr("a || b && c").unwrap();
        assert_eq!(
            e,
            Expr::bin(
                BinOp::Or,
                Expr::var("a"),
                Expr::bin(BinOp::And, Expr::var("b"), Expr::var("c"))
            )
        );
    }

    #[test]
    fn comparison_binds_between_logic_and_arith() {
        let e = parse_expr("a + 1 > b && c < 2").unwrap();
        assert_eq!(e.to_string(), "a + 1 > b && c < 2");
    }

    #[test]
    fn unary_folding_and_nesting() {
        assert_eq!(parse_expr("-1").unwrap(), Expr::num(-1.0));
        assert_eq!(parse_expr("- 2.5").unwrap(), Expr::num(-2.5));
        let e = parse_expr("--x").unwrap();
        assert_eq!(e.to_string(), "--x");
        let e = parse_expr("!!b").unwrap();
        assert_eq!(e.to_string(), "!!b");
    }

    #[test]
    fn calls() {
        let e = parse_expr("min(a, max(b, 3))").unwrap();
        assert_eq!(e.to_string(), "min(a, max(b, 3))");
        let e = parse_expr("rand()").unwrap();
        assert_eq!(e, Expr::Call("rand".into(), vec![]));
    }

    #[test]
    fn matlab_not_equal_alias() {
        let e = parse_expr("a ~= b").unwrap();
        assert_eq!(e.to_string(), "a != b");
    }

    #[test]
    fn rejects_trailing_tokens() {
        let err = parse_expr("a b").unwrap_err();
        assert!(err.message().contains("trailing"));
        assert_eq!(err.offset(), 2);
    }

    #[test]
    fn rejects_missing_operand() {
        assert!(parse_expr("a +").is_err());
        assert!(parse_expr("(a").is_err());
        assert!(parse_expr("").is_err());
        assert!(parse_expr("f(a,)").is_err());
    }

    #[test]
    fn statements() {
        let stmts = parse_stmts("x = 1; y = x + 2;").unwrap();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0], Stmt::assign("x", Expr::num(1.0)));
    }

    #[test]
    fn if_else_chain() {
        let stmts = parse_stmts("if (a > 1) { x = 1; } else if (a > 0) { x = 2; } else { x = 3; }")
            .unwrap();
        assert_eq!(stmts.len(), 1);
        match &stmts[0] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0], Stmt::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_statements() {
        assert!(parse_stmts("x = 1").is_err()); // missing semicolon
        assert!(parse_stmts("if (a) x = 1;").is_err()); // missing braces
        assert!(parse_stmts("if (a) { x = 1;").is_err()); // unclosed block
        assert!(parse_stmts("1 = x;").is_err());
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let parens = |n: usize| format!("{}x{}", "(".repeat(n), ")".repeat(n));
        let calls = |n: usize| format!("{}x{}", "abs(".repeat(n), ")".repeat(n));
        let chain = |n: usize| format!("x{}", "+x".repeat(n));
        let prefixes = |n: usize, op: &str| format!("{}x", op.repeat(n));
        let negated_literal = |n: usize| format!("{}1", "-".repeat(n));
        let deep: [&dyn Fn(usize) -> String; 6] = [
            &parens,
            &calls,
            &chain,
            &|n| prefixes(n, "-"),
            &|n| prefixes(n, "!"),
            &negated_literal,
        ];
        for (i, text) in deep.iter().enumerate() {
            assert!(parse_expr(&text(MAX_DEPTH)).is_ok(), "shape {i} at the limit");
            let err = parse_expr(&text(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.message().contains("deeper than 256"), "shape {i}: {err}");
        }
        let ifs = |n: usize| format!("{}y = 1;{}", "if (x) { ".repeat(n), "}".repeat(n));
        let else_ifs = |n: usize| format!("if (x) {{}}{}", " else if (x) {}".repeat(n - 1));
        for text in [ifs, else_ifs] {
            assert!(parse_stmts(&text(MAX_DEPTH)).is_ok());
            let err = parse_stmts(&text(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.message().contains("deeper than 256"), "{err}");
        }
        // A chain's operators stack on top of its deepest operand.
        let half = MAX_DEPTH / 2;
        assert!(parse_expr(&format!("{}{}", "-".repeat(half), chain(half))).is_ok());
        assert!(parse_expr(&format!("{}{}", "-".repeat(half), chain(half + 1))).is_err());
    }

    #[test]
    fn expr_display_reparses_to_same_ast() {
        let sources = [
            "a && (b || c) && !(d > 1)",
            "-x * (y - -3) % 2",
            "min(a + 1, abs(b)) >= c / 4",
            "a - (b - c) - d",
            "!(a != b) || c % 2 == 0",
        ];
        for src in sources {
            let e = parse_expr(src).unwrap();
            let printed = e.to_string();
            let reparsed = parse_expr(&printed)
                .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
            assert_eq!(reparsed, e, "source `{src}` printed as `{printed}`");
        }
    }
}
