//! Stateflow-style state charts.
//!
//! A [`Chart`] is a flat finite-state machine with typed inputs, outputs and
//! chart-local persistent variables. On every model step exactly one of the
//! following happens:
//!
//! 1. the outgoing transitions of the active state are tried in priority
//!    order; the first whose guard holds *fires*: its action runs, then the
//!    target state's `entry` action runs, and the target becomes active; or
//! 2. no guard holds, and the active state's `during` action runs.
//!
//! Every transition guard is a coverage decision, and each `if` inside
//! entry/during/transition actions is too — instrumentation mode (d) of the
//! CFTCG paper.

use std::collections::BTreeSet;
use std::fmt;

use crate::expr::{EvalExprError, Expr, Stmt};
use crate::{DataType, Value};

/// A chart state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct State {
    /// State name, unique within the chart.
    pub name: String,
    /// Statements run when the state is entered by a firing transition.
    pub entry: Vec<Stmt>,
    /// Statements run on steps where the state stays active.
    pub during: Vec<Stmt>,
}

impl State {
    /// Creates a state with empty actions.
    pub fn new(name: impl Into<String>) -> Self {
        State { name: name.into(), entry: Vec::new(), during: Vec::new() }
    }

    /// Sets the entry action, builder style.
    pub fn with_entry(mut self, entry: Vec<Stmt>) -> Self {
        self.entry = entry;
        self
    }

    /// Sets the during action, builder style.
    pub fn with_during(mut self, during: Vec<Stmt>) -> Self {
        self.during = during;
        self
    }
}

/// A transition between chart states.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Index of the source state in [`Chart::states`].
    pub from: usize,
    /// Index of the target state in [`Chart::states`].
    pub to: usize,
    /// Guard expression; `None` is an unconditional transition.
    pub guard: Option<Expr>,
    /// Statements run when the transition fires, before the target's entry.
    pub action: Vec<Stmt>,
}

impl Transition {
    /// Creates a guarded transition with no action.
    pub fn new(from: usize, to: usize, guard: Expr) -> Self {
        Transition { from, to, guard: Some(guard), action: Vec::new() }
    }

    /// Creates an unconditional transition with no action.
    pub fn unconditional(from: usize, to: usize) -> Self {
        Transition { from, to, guard: None, action: Vec::new() }
    }

    /// Sets the transition action, builder style.
    pub fn with_action(mut self, action: Vec<Stmt>) -> Self {
        self.action = action;
        self
    }
}

/// A flat Stateflow-style chart.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Chart {
    /// Typed input variables, bound to the block's input ports in order.
    pub inputs: Vec<(String, DataType)>,
    /// Typed output variables, bound to the block's output ports in order.
    /// Outputs hold their last written value across steps.
    pub outputs: Vec<(String, DataType)>,
    /// Chart-local persistent variables with initial values.
    pub variables: Vec<(String, DataType, Value)>,
    /// The states; must be non-empty.
    pub states: Vec<State>,
    /// Index of the initially active state.
    pub initial: usize,
    /// Transitions; priority is list order (global order, filtered by the
    /// active state at runtime).
    pub transitions: Vec<Transition>,
}

impl Chart {
    /// Creates an empty chart.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state and returns its index.
    pub fn add_state(&mut self, state: State) -> usize {
        self.states.push(state);
        self.states.len() - 1
    }

    /// Adds a transition.
    pub fn add_transition(&mut self, transition: Transition) {
        self.transitions.push(transition);
    }

    /// Outgoing transitions of `state`, in priority order.
    pub fn transitions_from(&self, state: usize) -> impl Iterator<Item = &Transition> {
        self.transitions.iter().filter(move |t| t.from == state)
    }

    /// Checks structural well-formedness: non-empty states, in-range indices,
    /// unique state names, and all variables referenced by guards/actions
    /// declared (inputs, outputs, locals, or the builtin `t` step counter).
    ///
    /// # Errors
    ///
    /// Returns [`ValidateChartError`] describing the first problem found.
    pub fn validate(&self) -> Result<(), ValidateChartError> {
        if self.states.is_empty() {
            return Err(ValidateChartError::NoStates);
        }
        if self.initial >= self.states.len() {
            return Err(ValidateChartError::BadStateIndex(self.initial));
        }
        let mut names = BTreeSet::new();
        for state in &self.states {
            if !names.insert(state.name.as_str()) {
                return Err(ValidateChartError::DuplicateState(state.name.clone()));
            }
        }
        let declared: BTreeSet<&str> = self
            .inputs
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(self.outputs.iter().map(|(n, _)| n.as_str()))
            .chain(self.variables.iter().map(|(n, _, _)| n.as_str()))
            .collect();
        let check_vars = |vars: BTreeSet<String>| -> Result<(), ValidateChartError> {
            for v in vars {
                if !declared.contains(v.as_str()) {
                    return Err(ValidateChartError::UndeclaredVariable(v));
                }
            }
            Ok(())
        };
        for t in &self.transitions {
            if t.from >= self.states.len() {
                return Err(ValidateChartError::BadStateIndex(t.from));
            }
            if t.to >= self.states.len() {
                return Err(ValidateChartError::BadStateIndex(t.to));
            }
            if let Some(guard) = &t.guard {
                check_vars(guard.free_vars())?;
                guard.check_calls().map_err(ValidateChartError::BadCall)?;
            }
            for s in &t.action {
                check_vars(s.free_vars())?;
                check_assignable(&declared, s)?;
                s.check_calls().map_err(ValidateChartError::BadCall)?;
            }
        }
        for state in &self.states {
            for s in state.entry.iter().chain(&state.during) {
                check_vars(s.free_vars())?;
                check_assignable(&declared, s)?;
                s.check_calls().map_err(ValidateChartError::BadCall)?;
            }
        }
        Ok(())
    }

    /// Total number of coverage decisions contributed by this chart: one per
    /// guarded transition plus one per `if` statement in any action.
    pub fn decision_count(&self) -> usize {
        let mut n = self.transitions.iter().filter(|t| t.guard.is_some()).count();
        for state in &self.states {
            n += count_ifs(&state.entry) + count_ifs(&state.during);
        }
        for t in &self.transitions {
            n += count_ifs(&t.action);
        }
        n
    }
}

fn check_assignable(declared: &BTreeSet<&str>, stmt: &Stmt) -> Result<(), ValidateChartError> {
    for v in stmt.assigned_vars() {
        if !declared.contains(v.as_str()) {
            return Err(ValidateChartError::UndeclaredVariable(v));
        }
    }
    Ok(())
}

fn count_ifs(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Assign(..) => 0,
            Stmt::If { then_body, else_body, .. } => {
                1 + count_ifs(then_body) + count_ifs(else_body)
            }
        })
        .sum()
}

/// Error reported by [`Chart::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateChartError {
    /// The chart has no states.
    NoStates,
    /// A state index (initial or transition endpoint) is out of range.
    BadStateIndex(usize),
    /// Two states share a name.
    DuplicateState(String),
    /// A guard or action references an undeclared variable.
    UndeclaredVariable(String),
    /// A guard or action calls an unknown function, or a builtin with the
    /// wrong number of arguments.
    BadCall(EvalExprError),
}

impl fmt::Display for ValidateChartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateChartError::NoStates => f.write_str("chart has no states"),
            ValidateChartError::BadStateIndex(i) => write!(f, "state index {i} out of range"),
            ValidateChartError::DuplicateState(name) => {
                write!(f, "duplicate state name `{name}`")
            }
            ValidateChartError::UndeclaredVariable(name) => {
                write!(f, "chart references undeclared variable `{name}`")
            }
            ValidateChartError::BadCall(e) => write!(f, "bad call in chart: {e}"),
        }
    }
}

impl std::error::Error for ValidateChartError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{parse_expr, parse_stmts};

    fn toggle_chart() -> Chart {
        let mut chart = Chart::new();
        chart.inputs.push(("go".into(), DataType::Bool));
        chart.outputs.push(("on".into(), DataType::Bool));
        chart.variables.push(("count".into(), DataType::I32, Value::I32(0)));
        let off = chart.add_state(State::new("Off").with_entry(parse_stmts("on = 0;").unwrap()));
        let on = chart.add_state(
            State::new("On")
                .with_entry(parse_stmts("on = 1;").unwrap())
                .with_during(parse_stmts("count = count + 1;").unwrap()),
        );
        chart.initial = off;
        chart.add_transition(Transition::new(off, on, parse_expr("go").unwrap()));
        chart.add_transition(Transition::new(on, off, parse_expr("!go").unwrap()));
        chart
    }

    #[test]
    fn validates_well_formed_chart() {
        toggle_chart().validate().unwrap();
    }

    #[test]
    fn rejects_empty_chart() {
        assert_eq!(Chart::new().validate().unwrap_err(), ValidateChartError::NoStates);
    }

    #[test]
    fn rejects_bad_indices() {
        let mut chart = toggle_chart();
        chart.initial = 9;
        assert_eq!(chart.validate().unwrap_err(), ValidateChartError::BadStateIndex(9));

        let mut chart = toggle_chart();
        chart.add_transition(Transition::unconditional(0, 7));
        assert_eq!(chart.validate().unwrap_err(), ValidateChartError::BadStateIndex(7));
    }

    #[test]
    fn rejects_duplicate_state_names() {
        let mut chart = toggle_chart();
        chart.add_state(State::new("Off"));
        assert_eq!(chart.validate().unwrap_err(), ValidateChartError::DuplicateState("Off".into()));
    }

    #[test]
    fn rejects_undeclared_guard_variable() {
        let mut chart = toggle_chart();
        chart.add_transition(Transition::new(0, 1, parse_expr("phantom > 0").unwrap()));
        assert_eq!(
            chart.validate().unwrap_err(),
            ValidateChartError::UndeclaredVariable("phantom".into())
        );
    }

    #[test]
    fn rejects_undeclared_assignment_target() {
        let mut chart = toggle_chart();
        chart.states[0].during = parse_stmts("mystery = 1;").unwrap();
        assert_eq!(
            chart.validate().unwrap_err(),
            ValidateChartError::UndeclaredVariable("mystery".into())
        );
    }

    #[test]
    fn rejects_unknown_or_misarity_calls_everywhere() {
        let unknown = ValidateChartError::BadCall(EvalExprError::UnknownFunction("nosuch".into()));
        let mut chart = toggle_chart();
        chart.add_transition(Transition::new(0, 1, parse_expr("nosuch(count) > 0").unwrap()));
        assert_eq!(chart.validate().unwrap_err(), unknown);

        let mut chart = toggle_chart();
        chart.transitions[0].action = parse_stmts("count = nosuch(count);").unwrap();
        assert_eq!(chart.validate().unwrap_err(), unknown);

        let mut chart = toggle_chart();
        chart.states[0].entry = parse_stmts("if (nosuch(count) > 1) { on = 1; }").unwrap();
        assert_eq!(chart.validate().unwrap_err(), unknown);

        let mut chart = toggle_chart();
        chart.states[1].during = parse_stmts("count = max(count, 1, 2, 3);").unwrap();
        assert_eq!(
            chart.validate().unwrap_err(),
            ValidateChartError::BadCall(EvalExprError::BadArity {
                function: "max".into(),
                expected: 2,
                found: 4
            })
        );
        assert!(chart.validate().unwrap_err().to_string().contains("`max` expects 2"));
    }

    #[test]
    fn decision_count_counts_guards_and_ifs() {
        let mut chart = toggle_chart(); // 2 guarded transitions
        assert_eq!(chart.decision_count(), 2);
        chart.states[1].during =
            parse_stmts("if (count > 5) { count = 0; } else { count = count + 1; }").unwrap();
        assert_eq!(chart.decision_count(), 3);
    }

    #[test]
    fn transitions_from_filters_by_source() {
        let chart = toggle_chart();
        assert_eq!(chart.transitions_from(0).count(), 1);
        assert_eq!(chart.transitions_from(1).count(), 1);
        assert_eq!(chart.transitions_from(0).next().unwrap().to, 1);
    }
}
