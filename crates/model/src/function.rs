//! MATLAB Function block definitions.
//!
//! A [`FunctionDef`] is a small imperative function over the block's typed
//! inputs producing typed outputs, written in the statement language of
//! [`crate::expr`]. Every `if` in the body is a coverage decision and gets
//! instrumented (Figure 4(d) of the CFTCG paper).

use std::collections::BTreeSet;
use std::fmt;

use crate::expr::{parse_stmts, EvalExprError, ParseExprError, Stmt};
use crate::DataType;

/// The body and signature of a MATLAB Function block.
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use cftcg_model::{DataType, FunctionDef};
///
/// let f = FunctionDef::parse(
///     &[("u", DataType::F64)],
///     &[("y", DataType::I32)],
///     "if (u > 100) { y = 100; } else { y = u; }",
/// )?;
/// assert_eq!(f.inputs().len(), 1);
/// f.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    inputs: Vec<(String, DataType)>,
    outputs: Vec<(String, DataType)>,
    body: Vec<Stmt>,
}

impl FunctionDef {
    /// Builds a function from an already-parsed body.
    pub fn new(
        inputs: Vec<(String, DataType)>,
        outputs: Vec<(String, DataType)>,
        body: Vec<Stmt>,
    ) -> Self {
        FunctionDef { inputs, outputs, body }
    }

    /// Parses the body text and builds the function.
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] when the body does not parse.
    pub fn parse(
        inputs: &[(&str, DataType)],
        outputs: &[(&str, DataType)],
        body: &str,
    ) -> Result<Self, ParseExprError> {
        Ok(FunctionDef {
            inputs: inputs.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
            outputs: outputs.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
            body: parse_stmts(body)?,
        })
    }

    /// The typed input parameters, in port order.
    pub fn inputs(&self) -> &[(String, DataType)] {
        &self.inputs
    }

    /// The typed output values, in port order.
    pub fn outputs(&self) -> &[(String, DataType)] {
        &self.outputs
    }

    /// The statement body.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Checks that every variable read has a definition (input, output, or
    /// a local assigned earlier at the top level) and every output is
    /// assigned on at least one path.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateFunctionError`] describing the first problem found.
    pub fn validate(&self) -> Result<(), ValidateFunctionError> {
        for stmt in &self.body {
            stmt.check_calls().map_err(ValidateFunctionError::BadCall)?;
        }
        let mut defined: BTreeSet<String> =
            self.inputs.iter().chain(&self.outputs).map(|(n, _)| n.clone()).collect();
        let mut maybe_assigned = BTreeSet::new();
        check_definite_assignment(&self.body, &mut defined, &mut maybe_assigned)?;
        for (name, _) in &self.outputs {
            if !maybe_assigned.contains(name) {
                return Err(ValidateFunctionError::UnassignedOutput(name.clone()));
            }
        }
        Ok(())
    }

    /// Serializes the body back to parseable statement text.
    pub fn body_text(&self) -> String {
        crate::expr::format_stmts(&self.body)
    }
}

/// Definite-assignment flow analysis: a variable may only be read where it
/// is defined on *every* path (inputs and outputs are always defined —
/// outputs are zero-initialized by the engines). After an `if`, only
/// variables assigned in *both* arms become definitely assigned;
/// `maybe_assigned` takes the union (used for the output-assignment check).
fn check_definite_assignment(
    stmts: &[Stmt],
    defined: &mut BTreeSet<String>,
    maybe_assigned: &mut BTreeSet<String>,
) -> Result<(), ValidateFunctionError> {
    for stmt in stmts {
        match stmt {
            Stmt::Assign(name, value) => {
                for var in value.free_vars() {
                    if !defined.contains(&var) {
                        return Err(ValidateFunctionError::UndefinedVariable(var));
                    }
                }
                defined.insert(name.clone());
                maybe_assigned.insert(name.clone());
            }
            Stmt::If { cond, then_body, else_body } => {
                for var in cond.free_vars() {
                    if !defined.contains(&var) {
                        return Err(ValidateFunctionError::UndefinedVariable(var));
                    }
                }
                let mut then_defined = defined.clone();
                check_definite_assignment(then_body, &mut then_defined, maybe_assigned)?;
                let mut else_defined = defined.clone();
                check_definite_assignment(else_body, &mut else_defined, maybe_assigned)?;
                *defined = then_defined.intersection(&else_defined).cloned().collect();
            }
        }
    }
    Ok(())
}

/// Error reported by [`FunctionDef::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateFunctionError {
    /// A variable is read before any assignment and is not a parameter.
    UndefinedVariable(String),
    /// A declared output is never assigned.
    UnassignedOutput(String),
    /// The body calls an unknown function, or a builtin with the wrong
    /// number of arguments.
    BadCall(EvalExprError),
}

impl fmt::Display for ValidateFunctionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateFunctionError::UndefinedVariable(name) => {
                write!(f, "variable `{name}` is read before being defined")
            }
            ValidateFunctionError::UnassignedOutput(name) => {
                write!(f, "output `{name}` is never assigned")
            }
            ValidateFunctionError::BadCall(e) => write!(f, "bad call in function body: {e}"),
        }
    }
}

impl std::error::Error for ValidateFunctionError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sat() -> FunctionDef {
        FunctionDef::parse(
            &[("u", DataType::F64)],
            &[("y", DataType::F64)],
            "if (u > 10) { y = 10; } else if (u < -10) { y = -10; } else { y = u; }",
        )
        .unwrap()
    }

    #[test]
    fn parse_and_accessors() {
        let f = sat();
        assert_eq!(f.inputs()[0].0, "u");
        assert_eq!(f.outputs()[0].1, DataType::F64);
        assert_eq!(f.body().len(), 1);
    }

    #[test]
    fn validate_accepts_well_formed() {
        sat().validate().unwrap();
    }

    #[test]
    fn validate_rejects_undefined_read() {
        let f = FunctionDef::parse(&[], &[("y", DataType::F64)], "y = ghost + 1;").unwrap();
        assert_eq!(
            f.validate().unwrap_err(),
            ValidateFunctionError::UndefinedVariable("ghost".into())
        );
    }

    #[test]
    fn validate_accepts_locals_assigned_before_use() {
        let f = FunctionDef::parse(
            &[("u", DataType::F64)],
            &[("y", DataType::F64)],
            "tmp = u * 2; y = tmp + 1;",
        )
        .unwrap();
        f.validate().unwrap();
    }

    #[test]
    fn validate_rejects_unassigned_output() {
        let f = FunctionDef::parse(
            &[("u", DataType::F64)],
            &[("y", DataType::F64), ("z", DataType::F64)],
            "y = u;",
        )
        .unwrap();
        assert_eq!(f.validate().unwrap_err(), ValidateFunctionError::UnassignedOutput("z".into()));
    }

    #[test]
    fn validate_rejects_unknown_or_misarity_calls() {
        let f = FunctionDef::parse(
            &[("u", DataType::F64)],
            &[("y", DataType::F64)],
            "if (u > 0) { y = nosuch(u); } else { y = u; }",
        )
        .unwrap();
        assert_eq!(
            f.validate().unwrap_err(),
            ValidateFunctionError::BadCall(EvalExprError::UnknownFunction("nosuch".into()))
        );
        let f = FunctionDef::parse(&[("u", DataType::F64)], &[("y", DataType::F64)], "y = abs();")
            .unwrap();
        assert_eq!(
            f.validate().unwrap_err(),
            ValidateFunctionError::BadCall(EvalExprError::BadArity {
                function: "abs".into(),
                expected: 1,
                found: 0
            })
        );
    }

    #[test]
    fn body_text_reparses() {
        let f = sat();
        let text = f.body_text();
        let reparsed =
            FunctionDef::parse(&[("u", DataType::F64)], &[("y", DataType::F64)], &text).unwrap();
        assert_eq!(reparsed.body(), f.body());
    }

    #[test]
    fn error_display() {
        let e = ValidateFunctionError::UndefinedVariable("q".into());
        assert!(e.to_string().contains("`q`"));
    }
}
