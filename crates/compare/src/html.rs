//! The side-by-side HTML diff report: one self-contained document (inline
//! CSS, inline SVG, zero JavaScript) rendering two campaigns against each
//! other — identity cards, the goal partition, a coverage-vs-time curve
//! overlay, first-hit shifts, yield/span deltas, and the frontier-cause
//! migration. Reuses the campaign explorer's visual language: blue
//! (`#2a6fb0`) is campaign A, orange (`#b0572a`) is campaign B.
//!
//! Byte-stable like the explorer: every collection is walked in the diff's
//! deterministic order, so the golden-file test in the umbrella crate can
//! pin the output.

use std::fmt::Write as _;

use cftcg_core::CampaignArtifact;
use cftcg_coverage::InstrumentationMap;
use cftcg_telemetry::escape_html as esc;
use cftcg_telemetry::html::{page_close, page_open, step_points, tiles, Chart, Line};

use crate::diff::{ArtifactDiff, GoalSide};
use crate::frontier::FrontierMigration;

const A_COLOR: &str = "#2a6fb0";
const B_COLOR: &str = "#b0572a";

const STYLE: &str = "<style>\n\
body{font:14px/1.45 system-ui,sans-serif;margin:2rem auto;max-width:70rem;color:#1a1a2a;padding:0 1rem}\n\
h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem;border-bottom:1px solid #ccd;padding-bottom:.2rem}\n\
.tiles{display:flex;flex-wrap:wrap;gap:.6rem;margin:1rem 0}\n\
.tile{border:1px solid #ccd;border-radius:6px;padding:.5rem .8rem;background:#f7f8fb}\n\
.tile b{display:block;font-size:1.15rem}.tile span{color:#567;font-size:.8rem}\n\
.cols{display:flex;gap:1rem;flex-wrap:wrap}.col{flex:1 1 20rem}\n\
.col.a h3{color:#2a6fb0}.col.b h3{color:#b0572a}\n\
table{border-collapse:collapse;width:100%;margin:.6rem 0}\n\
th,td{border:1px solid #dde;padding:.25rem .5rem;text-align:left;vertical-align:top}\n\
th{background:#eef0f6}tr.gain td{background:#f4fbf4}tr.loss td{background:#fff4f2}\n\
code{background:#eef;padding:0 .2rem;border-radius:3px;font-size:.92em}\n\
.warn{border:1px solid #c66;border-radius:6px;background:#fff4f2;padding:.6rem .8rem;margin:1rem 0}\n\
.pos{color:#1a7a2a;font-weight:600}.neg{color:#b03030;font-weight:600}\n\
svg{background:#fbfcff;border:1px solid #ccd;border-radius:6px}\n\
.legend span{display:inline-block;margin-right:1.2rem;font-size:.85em;color:#567}\n\
.swatch{display:inline-block;width:1.6em;height:.5em;border-radius:2px;margin-right:.35em;vertical-align:middle}\n\
</style>\n";

/// Renders the side-by-side diff report.
pub fn diff_html(
    diff: &ArtifactDiff,
    a: &CampaignArtifact,
    b: &CampaignArtifact,
    migration: Option<&FrontierMigration>,
    map: &InstrumentationMap,
) -> String {
    let mut out = String::with_capacity(32 * 1024);
    page_open(&mut out, &format!("CFTCG campaign diff — {}", diff.a.model), STYLE);

    if !diff.mismatches.is_empty() {
        out.push_str("<div class=\"warn\"><b>Apples-to-oranges comparison.</b> The two campaigns differ on:<ul>\n");
        for m in &diff.mismatches {
            let _ = writeln!(out, "<li>{}</li>", esc(m));
        }
        out.push_str("</ul></div>\n");
    }

    render_identities(&mut out, diff);
    render_partition_tiles(&mut out, diff);
    render_curve_overlay(&mut out, a, b);
    render_goal_tables(&mut out, diff, map);
    render_shifts(&mut out, diff, map);
    render_yields(&mut out, diff);
    render_spans(&mut out, diff);
    if let Some(migration) = migration {
        render_migration(&mut out, migration);
    }
    page_close(&mut out);
    out
}

fn render_identities(out: &mut String, diff: &ArtifactDiff) {
    out.push_str("<div class=\"cols\">\n");
    for (class, title, id) in [("a", "Campaign A", &diff.a), ("b", "Campaign B", &diff.b)] {
        let _ = writeln!(out, "<div class=\"col {class}\"><h3>{title}</h3>");
        out.push_str("<table>\n");
        let mut row = |k: &str, v: String| {
            let _ = writeln!(out, "<tr><th>{k}</th><td>{v}</td></tr>");
        };
        row("model", esc(&id.model));
        row("seed", id.seed.to_string());
        row("workers", id.workers.to_string());
        row("engine", esc(id.engine.as_deref().unwrap_or("(not recorded)")));
        row(
            "host",
            id.host.as_ref().map_or("(not recorded)".to_string(), |h| {
                format!("{} cores, {}", h.cores, esc(&h.arch))
            }),
        );
        row("executions", id.executions.to_string());
        row("wall clock", format!("{:.2}s", id.elapsed_s));
        row("branches", format!("{}/{}", id.covered_branches, id.branch_count));
        row("test cases", id.cases.to_string());
        row("goals covered", id.goals.to_string());
        out.push_str("</table></div>\n");
    }
    out.push_str("</div>\n");
}

fn render_partition_tiles(out: &mut String, diff: &ArtifactDiff) {
    let faster_b = diff.both.iter().filter(|s| s.delta() < 0).count();
    tiles(
        out,
        [
            (diff.both.len().to_string(), "goals both covered"),
            (diff.only_a.len().to_string(), "goals only A"),
            (diff.only_b.len().to_string(), "goals only B"),
            (format!("{:+}", diff.goal_balance()), "net goal balance (B−A)"),
            (faster_b.to_string(), "shared goals B hit earlier"),
        ],
    );
    if diff.is_identity() {
        out.push_str("<p><b>Identical coverage outcomes</b>: no gained or lost goals, no first-hit shifts, identical yield matrices.</p>\n");
    }
}

/// The coverage-vs-time curve overlay: both campaigns' sampled telemetry
/// series (falling back to the per-case emission steps when a side ran
/// without telemetry) on one normalized time axis.
fn render_curve_overlay(out: &mut String, a: &CampaignArtifact, b: &CampaignArtifact) {
    let curve_a = coverage_curve(a);
    let curve_b = coverage_curve(b);
    if curve_a.is_empty() && curve_b.is_empty() {
        return;
    }
    out.push_str("<h2>Coverage over time</h2>\n");
    let max_t = curve_a
        .iter()
        .chain(&curve_b)
        .map(|p| p.0)
        .fold(a.elapsed_s.max(b.elapsed_s), f64::max)
        .max(1e-9);
    let branches = a.branch_count.max(b.branch_count);
    Chart {
        height: 220.0,
        aria_label: "covered branches over time, both campaigns".into(),
        x_labels: ["0s".into(), format!("{max_t:.2}s")],
        y_labels: ["0".into(), branches.to_string()],
        x_max: max_t,
        y_range: (0.0, branches.max(1) as f64),
        lines: vec![
            Line { points: step_points(curve_a, max_t), color: A_COLOR, width: 2.0, dash: None },
            Line {
                points: step_points(curve_b, max_t),
                color: B_COLOR,
                width: 2.0,
                dash: Some("6 3"),
            },
        ],
    }
    .render(out);
    let _ = writeln!(
        out,
        "<p class=\"legend\"><span><i class=\"swatch\" style=\"background:{A_COLOR}\"></i>campaign A \
         ({}/{} branches)</span><span><i class=\"swatch\" style=\"background:{B_COLOR}\"></i>campaign B \
         ({}/{} branches)</span></p>",
        a.covered_branches, a.branch_count, b.covered_branches, b.branch_count
    );
}

/// `(t_s, covered)` points of one campaign: the sampled telemetry series
/// when present, else the per-case emission steps.
fn coverage_curve(artifact: &CampaignArtifact) -> Vec<(f64, f64)> {
    if !artifact.series.is_empty() {
        return artifact.series.iter().map(|p| (p.t_s, p.covered as f64)).collect();
    }
    artifact.cases.iter().map(|c| (c.t_s, c.covered_branches as f64)).collect()
}

fn render_goal_tables(out: &mut String, diff: &ArtifactDiff, map: &InstrumentationMap) {
    let mut table = |title: &str, rows: &[GoalSide], class: &str| {
        if rows.is_empty() {
            return;
        }
        let _ = writeln!(out, "<h2>{title} ({})</h2>", rows.len());
        out.push_str(
            "<table>\n<tr><th>metric</th><th>goal</th><th>first hit (executions)</th></tr>\n",
        );
        for row in rows {
            let _ = writeln!(
                out,
                "<tr class=\"{class}\"><td>{}</td><td><code>{}</code></td><td>{}</td></tr>",
                row.goal.metric(),
                esc(&row.goal.label(map)),
                row.executions
            );
        }
        out.push_str("</table>\n");
    };
    table("Goals only campaign A covered", &diff.only_a, "loss");
    table("Goals only campaign B covered", &diff.only_b, "gain");
}

fn render_shifts(out: &mut String, diff: &ArtifactDiff, map: &InstrumentationMap) {
    let shifted: Vec<_> = diff.both.iter().filter(|s| s.delta() != 0).collect();
    if shifted.is_empty() {
        return;
    }
    let _ = writeln!(out, "<h2>First-hit shifts ({} shared goals moved)</h2>", shifted.len());
    out.push_str(
        "<table>\n<tr><th>metric</th><th>goal</th><th>A first hit</th><th>B first hit</th>\
         <th>shift (B−A)</th></tr>\n",
    );
    for shift in shifted {
        let delta = shift.delta();
        let class = if delta < 0 { "pos" } else { "neg" };
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td><code>{}</code></td><td>{}</td><td>{}</td>\
             <td class=\"{class}\">{delta:+}</td></tr>",
            shift.goal.metric(),
            esc(&shift.goal.label(map)),
            shift.executions_a,
            shift.executions_b
        );
    }
    out.push_str("</table>\n<p>Negative shifts mean campaign B reached the goal with fewer executions.</p>\n");
}

fn render_yields(out: &mut String, diff: &ArtifactDiff) {
    let changed: Vec<_> = diff.yields.iter().filter(|y| !y.is_zero()).collect();
    if changed.is_empty() {
        return;
    }
    out.push_str(
        "<h2>Mutation-yield deltas (B−A)</h2>\n<table>\n<tr><th>operator</th>\
        <th>executed</th><th>new coverage</th><th>corpus insert</th><th>violation</th></tr>\n",
    );
    for y in changed {
        let _ = write!(out, "<tr><td><code>{}</code></td>", esc(&y.name));
        for i in 0..4 {
            let delta = y.b[i] as i64 - y.a[i] as i64;
            let _ = write!(
                out,
                "<td>{delta:+} <span style=\"color:#567\">({} → {})</span></td>",
                y.a[i], y.b[i]
            );
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n");
}

fn render_spans(out: &mut String, diff: &ArtifactDiff) {
    if diff.spans.is_empty() {
        return;
    }
    out.push_str(
        "<h2>Span-profile comparison</h2>\n<table>\n<tr><th>phase</th>\
        <th>A spans</th><th>A total ns</th><th>A p99 ns</th>\
        <th>B spans</th><th>B total ns</th><th>B p99 ns</th></tr>\n",
    );
    for span in &diff.spans {
        let _ = write!(out, "<tr><td><code>{}</code></td>", esc(&span.name));
        for side in [&span.a, &span.b] {
            match side {
                Some(s) => {
                    let _ = write!(
                        out,
                        "<td>{}</td><td>{}</td><td>{}</td>",
                        s.count, s.total_ns, s.p99_ns
                    );
                }
                None => out.push_str("<td>-</td><td>-</td><td>-</td>"),
            }
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n");
}

fn render_migration(out: &mut String, migration: &FrontierMigration) {
    let mut table = |title: &str, rows: &[crate::frontier::MigratedGoal], class: &str| {
        if rows.is_empty() {
            return;
        }
        let _ = writeln!(out, "<h2>{title} ({})</h2>", rows.len());
        out.push_str("<table>\n<tr><th>metric</th><th>goal</th><th>blocking cause</th><th>detail</th></tr>\n");
        for row in rows {
            let _ = writeln!(
                out,
                "<tr class=\"{class}\"><td>{}</td><td><code>{}</code></td><td><code>{}</code></td><td>{}</td></tr>",
                row.goal.metric(),
                esc(&row.label),
                esc(&row.cause),
                esc(&row.detail)
            );
        }
        out.push_str("</table>\n");
    };
    table("Frontier goals campaign B unblocked", &migration.unblocked_by_b, "gain");
    table("Frontier goals campaign A unblocked", &migration.unblocked_by_a, "loss");
    let moved: Vec<_> = migration.open_both.iter().filter(|g| g.cause_a != g.cause_b).collect();
    if !moved.is_empty() {
        let _ =
            writeln!(out, "<h2>Still open on both sides, cause migrated ({})</h2>", moved.len());
        out.push_str("<table>\n<tr><th>metric</th><th>goal</th><th>cause in A</th><th>cause in B</th></tr>\n");
        for g in moved {
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td><code>{}</code></td><td><code>{}</code></td><td><code>{}</code></td></tr>",
                g.goal.metric(),
                esc(&g.label),
                esc(&g.cause_a),
                esc(&g.cause_b)
            );
        }
        out.push_str("</table>\n");
    }
}
