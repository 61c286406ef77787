//! Terminal and machine-JSON renderers of an [`ArtifactDiff`]. Both are
//! byte-stable functions of their inputs: collections are walked in the
//! diff's deterministic order, and floats go through the telemetry JSON
//! writer used by every other persisted document.

use std::fmt::Write as _;

use cftcg_coverage::InstrumentationMap;
use cftcg_telemetry::json::{push_json_f64, push_json_str};

use crate::diff::{ArtifactDiff, RunIdentity};
use crate::frontier::FrontierMigration;

/// Renders the diff as an aligned terminal report. `map` resolves goal
/// labels to model block paths.
pub fn terminal_report(
    diff: &ArtifactDiff,
    migration: Option<&FrontierMigration>,
    map: &InstrumentationMap,
) -> String {
    let mut out = String::new();
    let side = |id: &RunIdentity| {
        format!(
            "seed {} | {} worker(s) | engine {} | {} executions | {}/{} branches | {} goals",
            id.seed,
            id.workers,
            id.engine.as_deref().unwrap_or("?"),
            id.executions,
            id.covered_branches,
            id.branch_count,
            id.goals
        )
    };
    let _ = writeln!(out, "campaign A : model {} | {}", diff.a.model, side(&diff.a));
    let _ = writeln!(out, "campaign B : model {} | {}", diff.b.model, side(&diff.b));
    if !diff.mismatches.is_empty() {
        let _ = writeln!(out, "WARNING    : apples-to-oranges comparison —");
        for m in &diff.mismatches {
            let _ = writeln!(out, "  mismatch : {m}");
        }
    }
    let _ = writeln!(
        out,
        "goals      : {} both | {} only A | {} only B (net B−A: {:+})",
        diff.both.len(),
        diff.only_a.len(),
        diff.only_b.len(),
        diff.goal_balance()
    );
    if diff.is_identity() {
        let _ = writeln!(out, "verdict    : identical coverage outcomes");
    }
    for (title, rows) in
        [("goals only A covered", &diff.only_a), ("goals only B covered", &diff.only_b)]
    {
        if rows.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{title}:");
        for row in rows {
            let _ = writeln!(
                out,
                "  [{}] {} (first hit at execution {})",
                row.goal.metric(),
                row.goal.label(map),
                row.executions
            );
        }
    }
    let shifted: Vec<_> = diff.both.iter().filter(|s| s.delta() != 0).collect();
    if !shifted.is_empty() {
        let _ = writeln!(out, "first-hit shifts (goals both covered, B−A executions):");
        for shift in shifted {
            let _ = writeln!(
                out,
                "  [{}] {}  A@{} B@{} ({:+})",
                shift.goal.metric(),
                shift.goal.label(map),
                shift.executions_a,
                shift.executions_b,
                shift.delta()
            );
        }
    }
    let changed: Vec<_> = diff.yields.iter().filter(|y| !y.is_zero()).collect();
    if !changed.is_empty() {
        let width = changed.iter().map(|y| y.name.len()).max().unwrap_or(8).max("operator".len());
        let _ = writeln!(
            out,
            "mutation-yield deltas (B−A):\n  {:width$}  {:>10}  {:>12}  {:>13}  {:>10}",
            "operator", "executed", "new-coverage", "corpus-insert", "violation"
        );
        for y in changed {
            let d = |i: usize| y.b[i] as i64 - y.a[i] as i64;
            let _ = writeln!(
                out,
                "  {:width$}  {:>+10}  {:>+12}  {:>+13}  {:>+10}",
                y.name,
                d(0),
                d(1),
                d(2),
                d(3)
            );
        }
    }
    if !diff.spans.is_empty() {
        let width = diff.spans.iter().map(|s| s.name.len()).max().unwrap_or(8).max("phase".len());
        let _ = writeln!(
            out,
            "span-profile totals (wall-clock ns):\n  {:width$}  {:>14}  {:>14}",
            "phase", "A total", "B total"
        );
        for span in &diff.spans {
            let total = |s: &Option<cftcg_telemetry::SpanReport>| {
                s.as_ref().map_or("-".to_string(), |s| s.total_ns.to_string())
            };
            let _ = writeln!(
                out,
                "  {:width$}  {:>14}  {:>14}",
                span.name,
                total(&span.a),
                total(&span.b)
            );
        }
    }
    if let Some(migration) = migration {
        for (title, rows) in [
            ("frontier goals B unblocked (A's blocking cause shown)", &migration.unblocked_by_b),
            ("frontier goals A unblocked (B's blocking cause shown)", &migration.unblocked_by_a),
        ] {
            if rows.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{title}:");
            for row in rows {
                let _ = writeln!(
                    out,
                    "  [{}] {} — {}: {}",
                    row.goal.metric(),
                    row.label,
                    row.cause,
                    row.detail
                );
            }
        }
        let moved: Vec<_> = migration.open_both.iter().filter(|g| g.cause_a != g.cause_b).collect();
        if !moved.is_empty() {
            let _ = writeln!(out, "still open on both sides, cause migrated:");
            for g in moved {
                let _ = writeln!(
                    out,
                    "  [{}] {} — {} → {}",
                    g.goal.metric(),
                    g.label,
                    g.cause_a,
                    g.cause_b
                );
            }
        }
    }
    out
}

/// Renders the diff as one machine-readable JSON document.
pub fn diff_json(
    diff: &ArtifactDiff,
    migration: Option<&FrontierMigration>,
    map: &InstrumentationMap,
) -> String {
    let mut out = String::new();
    out.push_str("{\n\"a\":");
    push_identity(&mut out, &diff.a);
    out.push_str(",\n\"b\":");
    push_identity(&mut out, &diff.b);
    out.push_str(",\n\"mismatches\":[");
    for (i, m) in diff.mismatches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, m);
    }
    let _ = write!(
        out,
        "],\n\"identity\":{},\n\"goal_balance\":{}",
        diff.is_identity(),
        diff.goal_balance()
    );
    for (key, rows) in [("only_a", &diff.only_a), ("only_b", &diff.only_b)] {
        let _ = write!(out, ",\n\"{key}\":[");
        for (i, row) in rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("{\"goal\":");
            push_json_str(&mut out, &row.goal.label(map));
            let _ = write!(
                out,
                ",\"metric\":\"{}\",\"executions\":{}}}",
                row.goal.metric(),
                row.executions
            );
        }
        out.push(']');
    }
    out.push_str(",\n\"both\":[");
    for (i, shift) in diff.both.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("{\"goal\":");
        push_json_str(&mut out, &shift.goal.label(map));
        let _ = write!(
            out,
            ",\"metric\":\"{}\",\"executions_a\":{},\"executions_b\":{},\"delta\":{}}}",
            shift.goal.metric(),
            shift.executions_a,
            shift.executions_b,
            shift.delta()
        );
    }
    out.push_str("],\n\"yields\":[");
    for (i, y) in diff.yields.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("{\"name\":");
        push_json_str(&mut out, &y.name);
        let _ = write!(
            out,
            ",\"a\":[{},{},{},{}],\"b\":[{},{},{},{}]}}",
            y.a[0], y.a[1], y.a[2], y.a[3], y.b[0], y.b[1], y.b[2], y.b[3]
        );
    }
    out.push_str("],\n\"spans\":[");
    for (i, span) in diff.spans.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("{\"name\":");
        push_json_str(&mut out, &span.name);
        for (key, side) in [("a", &span.a), ("b", &span.b)] {
            let _ = write!(out, ",\"{key}\":");
            match side {
                Some(s) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                        s.count, s.total_ns, s.p50_ns, s.p99_ns
                    );
                }
                None => out.push_str("null"),
            }
        }
        out.push('}');
    }
    out.push(']');
    if let Some(migration) = migration {
        for (key, rows) in [
            ("unblocked_by_b", &migration.unblocked_by_b),
            ("unblocked_by_a", &migration.unblocked_by_a),
        ] {
            let _ = write!(out, ",\n\"{key}\":[");
            for (i, row) in rows.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str("{\"label\":");
                push_json_str(&mut out, &row.label);
                out.push_str(",\"cause\":");
                push_json_str(&mut out, &row.cause);
                out.push_str(",\"detail\":");
                push_json_str(&mut out, &row.detail);
                out.push('}');
            }
            out.push(']');
        }
        out.push_str(",\n\"open_both\":[");
        for (i, g) in migration.open_both.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("{\"label\":");
            push_json_str(&mut out, &g.label);
            out.push_str(",\"cause_a\":");
            push_json_str(&mut out, &g.cause_a);
            out.push_str(",\"cause_b\":");
            push_json_str(&mut out, &g.cause_b);
            out.push('}');
        }
        out.push(']');
    }
    out.push_str("\n}\n");
    out
}

fn push_identity(out: &mut String, id: &RunIdentity) {
    out.push_str("{\"model\":");
    push_json_str(out, &id.model);
    let _ = write!(out, ",\"seed\":{},\"workers\":{},\"engine\":", id.seed, id.workers);
    match &id.engine {
        Some(e) => push_json_str(out, e),
        None => out.push_str("null"),
    }
    out.push_str(",\"host\":");
    match &id.host {
        Some(h) => {
            let _ = write!(out, "{{\"cores\":{},\"arch\":", h.cores);
            push_json_str(out, &h.arch);
            out.push('}');
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"executions\":{},\"elapsed_s\":", id.executions);
    push_json_f64(out, id.elapsed_s);
    let _ = write!(
        out,
        ",\"covered_branches\":{},\"branch_count\":{},\"cases\":{},\"goals\":{}}}",
        id.covered_branches, id.branch_count, id.cases, id.goals
    );
}
