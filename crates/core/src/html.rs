//! The HTML campaign explorer: one self-contained document (inline CSS,
//! inline SVG, zero JavaScript, zero external requests) that renders a
//! persisted campaign for a human — summary tiles, the coverage-vs-time
//! curve, a per-decision annotated goal listing with first-hit provenance,
//! the frontier table of every open goal with its cause classification,
//! and the suite with full mutation lineage chains.
//!
//! The renderer is a pure function of its inputs and byte-stable: every
//! collection it walks is in a deterministic order (map index order,
//! emission order, canonical goal order), so two renders of the same
//! artifact are identical — which is what the golden-file test in the
//! umbrella crate pins down.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use cftcg_codegen::{replay_case, CompiledModel, TestCase};
use cftcg_coverage::{
    format_case_id, frontier, CoverageReport, FullTracker, Goal, InstrumentationMap, Ratio,
};
use cftcg_fuzz::{format_chain, MutationKind};
use cftcg_telemetry::escape_html as esc;
use cftcg_trace::{trace_vm_case, ProbeMask, Trace};

use crate::campaign::{CampaignArtifact, CampaignCase, CampaignHit};

/// Renders the campaign explorer. `tracker` must hold the replayed
/// observations of the artifact's suite (the CLI rebuilds it by replaying
/// the embedded case bytes through the compiled model), so the coverage,
/// per-goal status, and frontier shown all derive from the same evidence.
/// The compiled model (not just its instrumentation map) is needed to
/// replay violation witnesses and capture their output waveforms.
pub fn campaign_explorer_html(
    compiled: &CompiledModel,
    artifact: &CampaignArtifact,
    tracker: &FullTracker,
) -> String {
    let map = compiled.map();
    let report = CoverageReport::score(map, tracker);
    let open = frontier(map, tracker);
    let open_goals: HashSet<Goal> = open.iter().map(|e| e.goal).collect();
    let hit_by_goal: HashMap<Goal, &CampaignHit> =
        artifact.hits.iter().map(|h| (h.goal, h)).collect();
    let lineage = artifact.lineage_dag();

    let mut out = String::with_capacity(64 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(out, "<title>CFTCG campaign explorer — {}</title>", esc(&artifact.model));
    out.push_str(STYLE);
    out.push_str("</head>\n<body>\n");
    let _ = writeln!(out, "<h1>CFTCG campaign explorer — {}</h1>", esc(&artifact.model));

    render_summary(&mut out, artifact, &report);
    render_series(&mut out, artifact);
    render_telemetry_series(&mut out, artifact);
    render_goals(&mut out, map, tracker, &open_goals, &hit_by_goal);
    render_frontier(&mut out, &open);
    render_forensics(&mut out, artifact, &lineage);
    render_waveforms(&mut out, compiled, artifact);
    render_cases(&mut out, artifact, &lineage);

    out.push_str("</body>\n</html>\n");
    out
}

const STYLE: &str = "<style>\n\
body{font:14px/1.45 system-ui,sans-serif;margin:2rem auto;max-width:70rem;color:#1a1a2a;padding:0 1rem}\n\
h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem;border-bottom:1px solid #ccd;padding-bottom:.2rem}\n\
.tiles{display:flex;flex-wrap:wrap;gap:.6rem;margin:1rem 0}\n\
.tile{border:1px solid #ccd;border-radius:6px;padding:.5rem .8rem;background:#f7f8fb}\n\
.tile b{display:block;font-size:1.15rem}.tile span{color:#567;font-size:.8rem}\n\
table{border-collapse:collapse;width:100%;margin:.6rem 0}\n\
th,td{border:1px solid #dde;padding:.25rem .5rem;text-align:left;vertical-align:top}\n\
th{background:#eef0f6}tr.open td{background:#fff4f2}tr.hit td{background:#f4fbf4}\n\
code{background:#eef;padding:0 .2rem;border-radius:3px;font-size:.92em}\n\
.cov{color:#1a7a2a;font-weight:600}.miss{color:#b03030;font-weight:600}\n\
details{margin:.6rem 0}summary{cursor:pointer;font-weight:600}\n\
svg{background:#fbfcff;border:1px solid #ccd;border-radius:6px}\n\
.chain{font-family:ui-monospace,monospace;font-size:.85em;word-break:break-word}\n\
</style>\n";

fn render_summary(out: &mut String, artifact: &CampaignArtifact, report: &CoverageReport) {
    out.push_str("<div class=\"tiles\">\n");
    let mut tile = |value: String, label: &str| {
        let _ = writeln!(out, "<div class=\"tile\"><b>{value}</b><span>{label}</span></div>");
    };
    tile(artifact.seed.to_string(), "seed");
    tile(artifact.workers.to_string(), "workers");
    tile(artifact.executions.to_string(), "inputs executed");
    tile(artifact.iterations.to_string(), "model iterations");
    tile(format!("{:.2}s", artifact.elapsed_s), "wall clock");
    tile(artifact.cases.len().to_string(), "test cases");
    tile(ratio_text(report.decision), "decision coverage");
    tile(ratio_text(report.condition), "condition coverage");
    tile(ratio_text(report.mcdc), "MCDC");
    out.push_str("</div>\n");
}

fn ratio_text(ratio: Ratio) -> String {
    format!("{}/{} ({:.1}%)", ratio.covered, ratio.total, ratio.percent())
}

/// Inline-SVG coverage-vs-time curve built from the per-case emission
/// metadata: each emitted case is one step of the cumulative covered-branch
/// count (the data behind the paper's Figure 7, per campaign).
fn render_series(out: &mut String, artifact: &CampaignArtifact) {
    out.push_str("<h2>Coverage over time</h2>\n");
    if artifact.cases.is_empty() {
        out.push_str("<p>No test cases were emitted.</p>\n");
        return;
    }
    const W: f64 = 680.0;
    const H: f64 = 200.0;
    const PAD: f64 = 42.0;
    let max_t = artifact.cases.iter().map(|c| c.t_s).fold(artifact.elapsed_s, f64::max).max(1e-9);
    let max_c = artifact.branch_count.max(1) as f64;
    let x = |t: f64| PAD + (W - 2.0 * PAD) * (t / max_t);
    let y = |c: f64| H - PAD + (2.0 * PAD - H) * (c / max_c);

    let mut points = String::new();
    let mut last = 0.0f64;
    let _ = write!(points, "{:.1},{:.1}", x(0.0), y(0.0));
    for case in &artifact.cases {
        // Step function: hold the previous level until the case landed.
        let _ = write!(points, " {:.1},{:.1}", x(case.t_s), y(last));
        last = case.covered_branches as f64;
        let _ = write!(points, " {:.1},{:.1}", x(case.t_s), y(last));
    }
    let _ = write!(points, " {:.1},{:.1}", x(max_t), y(last));

    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\" \
         aria-label=\"covered branches over time\">\n\
         <line x1=\"{p}\" y1=\"{yb:.1}\" x2=\"{xe:.1}\" y2=\"{yb:.1}\" stroke=\"#99a\"/>\n\
         <line x1=\"{p}\" y1=\"{yt:.1}\" x2=\"{p}\" y2=\"{yb:.1}\" stroke=\"#99a\"/>\n\
         <text x=\"{p}\" y=\"{H}\" font-size=\"11\" fill=\"#567\">0s</text>\n\
         <text x=\"{xe:.1}\" y=\"{H}\" font-size=\"11\" fill=\"#567\" text-anchor=\"end\">{max_t:.2}s</text>\n\
         <text x=\"4\" y=\"{yt2:.1}\" font-size=\"11\" fill=\"#567\">{branches}</text>\n\
         <text x=\"4\" y=\"{yb:.1}\" font-size=\"11\" fill=\"#567\">0</text>\n\
         <polyline fill=\"none\" stroke=\"#2a6fb0\" stroke-width=\"2\" points=\"{points}\"/>\n\
         </svg>\n",
        p = PAD,
        yb = y(0.0),
        yt = y(max_c),
        yt2 = y(max_c) + 4.0,
        xe = x(max_t),
        branches = artifact.branch_count,
    );
    let _ = writeln!(
        out,
        "<p>{} of {} branch probes covered.</p>",
        artifact.covered_branches, artifact.branch_count
    );
}

/// The telemetry time-series panel: sampled campaign progress (covered
/// branches plus execution rate) from the bounded registry ring persisted
/// into the artifact. Skipped entirely when the campaign ran without
/// telemetry — the per-case curve above is always available.
fn render_telemetry_series(out: &mut String, artifact: &CampaignArtifact) {
    if artifact.series.is_empty() {
        return;
    }
    out.push_str("<h2>Sampled campaign progress</h2>\n");
    const W: f64 = 680.0;
    const H: f64 = 200.0;
    const PAD: f64 = 42.0;
    let series = &artifact.series;
    let max_t = series.iter().map(|p| p.t_s).fold(artifact.elapsed_s, f64::max).max(1e-9);
    let max_c = artifact.branch_count.max(1) as f64;
    let max_rate = series.iter().map(|p| p.execs_per_sec).fold(1e-9, f64::max);
    let x = |t: f64| PAD + (W - 2.0 * PAD) * (t / max_t);
    let y = |frac: f64| H - PAD + (2.0 * PAD - H) * frac;

    let mut coverage = String::new();
    let mut rate = String::new();
    for (i, p) in series.iter().enumerate() {
        let sep = if i == 0 { "" } else { " " };
        let _ = write!(coverage, "{sep}{:.1},{:.1}", x(p.t_s), y(p.covered as f64 / max_c));
        let _ = write!(rate, "{sep}{:.1},{:.1}", x(p.t_s), y(p.execs_per_sec / max_rate));
    }

    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\" \
         aria-label=\"sampled coverage and execution rate over time\">\n\
         <line x1=\"{p}\" y1=\"{yb:.1}\" x2=\"{xe:.1}\" y2=\"{yb:.1}\" stroke=\"#99a\"/>\n\
         <line x1=\"{p}\" y1=\"{yt:.1}\" x2=\"{p}\" y2=\"{yb:.1}\" stroke=\"#99a\"/>\n\
         <text x=\"{p}\" y=\"{H}\" font-size=\"11\" fill=\"#567\">0s</text>\n\
         <text x=\"{xe:.1}\" y=\"{H}\" font-size=\"11\" fill=\"#567\" text-anchor=\"end\">{max_t:.2}s</text>\n\
         <text x=\"4\" y=\"{yt2:.1}\" font-size=\"11\" fill=\"#567\">{branches}</text>\n\
         <text x=\"4\" y=\"{yb:.1}\" font-size=\"11\" fill=\"#567\">0</text>\n\
         <polyline fill=\"none\" stroke=\"#2a6fb0\" stroke-width=\"2\" points=\"{coverage}\"/>\n\
         <polyline fill=\"none\" stroke=\"#b0572a\" stroke-width=\"1.5\" stroke-dasharray=\"4 3\" points=\"{rate}\"/>\n\
         </svg>\n",
        p = PAD,
        yb = y(0.0),
        yt = y(1.0),
        yt2 = y(1.0) + 4.0,
        xe = x(max_t),
        branches = artifact.branch_count,
    );
    let _ = writeln!(
        out,
        "<p>{} telemetry samples; <span style=\"color:#2a6fb0\">covered branches</span> and \
         <span style=\"color:#b0572a\">execution rate</span> (dashed, peak {:.0}/s).</p>",
        series.len(),
        max_rate,
    );
}

/// Per-decision annotated goal listing: every outcome, condition polarity,
/// and MCDC goal of each decision, with covered/open status and first-hit
/// provenance where recorded.
fn render_goals(
    out: &mut String,
    map: &InstrumentationMap,
    tracker: &FullTracker,
    open_goals: &HashSet<Goal>,
    hit_by_goal: &HashMap<Goal, &CampaignHit>,
) {
    out.push_str("<h2>Goals by decision</h2>\n");
    for decision in map.decisions() {
        let total = decision.outcomes.len() + 3 * decision.conditions.len();
        let covered = decision.outcomes.iter().filter(|b| tracker.branch_hit(b.index())).count()
            + decision
                .conditions
                .iter()
                .flat_map(|c| {
                    [
                        !open_goals.contains(&Goal::Condition(c.index(), false)),
                        !open_goals.contains(&Goal::Condition(c.index(), true)),
                        !open_goals.contains(&Goal::Mcdc(c.index())),
                    ]
                })
                .filter(|&v| v)
                .count();
        let _ = writeln!(
            out,
            "<details{}><summary><code>{}</code> — {covered}/{total} goals</summary>",
            if covered < total { " open" } else { "" },
            esc(&decision.label),
        );
        out.push_str("<table>\n<tr><th>goal</th><th>status</th><th>first hit</th></tr>\n");
        for &branch in &decision.outcomes {
            let b = branch.index();
            goal_row(out, map, Goal::Outcome(b), tracker.branch_hit(b), hit_by_goal);
        }
        for &cond in &decision.conditions {
            let c = cond.index();
            for value in [false, true] {
                let goal = Goal::Condition(c, value);
                goal_row(out, map, goal, !open_goals.contains(&goal), hit_by_goal);
            }
            let goal = Goal::Mcdc(c);
            goal_row(out, map, goal, !open_goals.contains(&goal), hit_by_goal);
        }
        out.push_str("</table>\n</details>\n");
    }
}

fn goal_row(
    out: &mut String,
    map: &InstrumentationMap,
    goal: Goal,
    covered: bool,
    hit_by_goal: &HashMap<Goal, &CampaignHit>,
) {
    let hit = hit_by_goal.get(&goal);
    let provenance = match hit {
        Some(h) => format!(
            "<code>{}</code> at execution {} via {}",
            format_case_id(h.case),
            h.executions,
            esc(&op_chain(&h.ops)),
        ),
        None if covered => "—".to_string(),
        None => String::new(),
    };
    let _ = writeln!(
        out,
        "<tr class=\"{}\"><td>[{}] {}</td><td class=\"{}\">{}</td><td>{provenance}</td></tr>",
        if covered { "hit" } else { "open" },
        goal.metric(),
        esc(&goal.label(map)),
        if covered { "cov" } else { "miss" },
        if covered { "covered" } else { "open" },
    );
}

/// Operator chain of a first hit rendered with Table-1 names.
fn op_chain(ops: &[u8]) -> String {
    if ops.is_empty() {
        return "seed/bootstrap".to_string();
    }
    ops.iter()
        .map(|&i| MutationKind::ALL.get(i as usize).map_or("?", |k| k.name()))
        .collect::<Vec<_>>()
        .join("+")
}

/// The frontier table: every open goal with its cause classification and
/// the byte-stable detail line from the frontier analyzer.
fn render_frontier(out: &mut String, open: &[cftcg_coverage::FrontierEntry]) {
    let _ = writeln!(out, "<h2>Frontier — {} open goal{}</h2>", open.len(), plural(open.len()));
    if open.is_empty() {
        out.push_str("<p>Every goal of the model is covered.</p>\n");
        return;
    }
    out.push_str("<table>\n<tr><th>metric</th><th>goal</th><th>cause</th><th>detail</th></tr>\n");
    for entry in open {
        let _ = writeln!(
            out,
            "<tr class=\"open\"><td>{}</td><td>{}</td><td><code>{}</code></td><td>{}</td></tr>",
            entry.goal.metric(),
            esc(&entry.label),
            entry.cause.tag(),
            esc(&entry.detail),
        );
    }
    out.push_str("</table>\n");
}

/// Search forensics: which mutation operators actually earned the covered
/// goals (from first-hit provenance chains) and which emitted cases were
/// productive ancestors (from the lineage DAG). The post-mortem counterpart
/// of the live dashboard's yield table.
fn render_forensics(out: &mut String, artifact: &CampaignArtifact, lineage: &cftcg_fuzz::Lineage) {
    out.push_str("<h2>Search forensics</h2>\n");

    out.push_str("<h3>Operator yield at first hit</h3>\n");
    if artifact.hits.is_empty() {
        out.push_str("<p>No first-hit provenance recorded.</p>\n");
    } else {
        let bootstrap = artifact.hits.iter().filter(|h| h.ops.is_empty()).count();
        out.push_str("<table>\n<tr><th>operator</th><th>goals whose first hit used it</th></tr>\n");
        for (i, kind) in MutationKind::ALL.iter().enumerate() {
            let count = artifact.hits.iter().filter(|h| h.ops.contains(&(i as u8))).count();
            if count == 0 {
                continue;
            }
            let _ = writeln!(out, "<tr><td>{}</td><td>{count}</td></tr>", kind.name());
        }
        if bootstrap > 0 {
            let _ = writeln!(out, "<tr><td>seed/bootstrap</td><td>{bootstrap}</td></tr>");
        }
        out.push_str("</table>\n");
    }

    out.push_str("<h3>Productive ancestors</h3>\n");
    let mut rows = Vec::new();
    for case in &artifact.cases {
        let children = lineage.records().iter().filter(|r| r.parent == Some(case.id)).count();
        let goals = artifact.hits.iter().filter(|h| h.case == case.id).count();
        if children == 0 && goals == 0 {
            continue;
        }
        let depth = lineage.chain(case.id).len().saturating_sub(1);
        rows.push((case.id, depth, children, goals));
    }
    if rows.is_empty() {
        out.push_str("<p>No emitted case has recorded descendants or first hits.</p>\n");
        return;
    }
    out.push_str(
        "<table>\n<tr><th>case</th><th>mutation depth</th><th>children minted</th>\
         <th>goals first hit</th></tr>\n",
    );
    for (id, depth, children, goals) in rows {
        let _ = writeln!(
            out,
            "<tr><td><code>{}</code></td><td>{depth}</td><td>{children}</td><td>{goals}</td></tr>",
            format_case_id(id),
        );
    }
    out.push_str("</table>\n");
}

/// Violation witnesses to plot at most; the remainder is summarized.
const MAX_WAVEFORM_CASES: usize = 4;

/// Trace-ring bound per plotted witness (records, not ticks): generous
/// enough for every output of every bundled model over the iteration cap,
/// while still bounding a pathological case.
const WAVEFORM_CAPACITY: usize = 1 << 16;

/// Inline output waveforms for every assertion-violating case: each suite
/// case is replayed to see whether it fails an assertion, and the first few
/// witnesses get one step-line plot per model output (the Scope view of the
/// failure). Absent when the model has no assertions or no case violates.
fn render_waveforms(out: &mut String, compiled: &CompiledModel, artifact: &CampaignArtifact) {
    let map = compiled.map();
    if map.assertions().is_empty() {
        return;
    }
    let mut witnesses: Vec<(&CampaignCase, Vec<usize>)> = Vec::new();
    for case in &artifact.cases {
        let mut tracker = FullTracker::new(map);
        replay_case(compiled, &TestCase::new(case.bytes.clone()), &mut tracker);
        let failed: Vec<usize> =
            (0..map.assertions().len()).filter(|&i| tracker.assertion_failures(i) > 0).collect();
        if !failed.is_empty() {
            witnesses.push((case, failed));
        }
    }
    if witnesses.is_empty() {
        return;
    }
    let _ = writeln!(
        out,
        "<h2>Violation waveforms — {} witness case{}</h2>",
        witnesses.len(),
        plural(witnesses.len()),
    );
    if witnesses.len() > MAX_WAVEFORM_CASES {
        let _ = writeln!(out, "<p>Showing the first {MAX_WAVEFORM_CASES} witnesses.</p>");
    }
    let mask = ProbeMask::outputs(compiled);
    for (case, failed) in witnesses.iter().take(MAX_WAVEFORM_CASES) {
        let labels: Vec<String> = failed
            .iter()
            .map(|&i| map.assertions().get(i).cloned().unwrap_or_else(|| format!("#{i}")))
            .collect();
        let _ = writeln!(
            out,
            "<h3><code>{}</code> — violates {}</h3>",
            format_case_id(case.id),
            esc(&labels.join(", ")),
        );
        let trace =
            trace_vm_case(compiled, &TestCase::new(case.bytes.clone()), &mask, WAVEFORM_CAPACITY);
        if trace.dropped() > 0 {
            let _ =
                writeln!(out, "<p>Long case: showing the most recent {} samples.</p>", trace.len());
        }
        render_waveform_svgs(out, &trace);
    }
}

/// One compact step-line SVG per probed signal of a captured trace.
fn render_waveform_svgs(out: &mut String, trace: &Trace) {
    const W: f64 = 680.0;
    const H: f64 = 90.0;
    const PAD: f64 = 42.0;
    let last_tick = trace.records().map(|r| r.tick).max().unwrap_or(0);
    for (k, signal) in trace.signals().iter().enumerate() {
        let series: Vec<(u64, f64)> =
            trace.records().filter(|r| r.signal == k as u32).map(|r| (r.tick, r.value)).collect();
        if series.is_empty() {
            continue;
        }
        let (mut lo, mut hi) = series
            .iter()
            .filter(|(_, v)| v.is_finite())
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(_, v)| (lo.min(v), hi.max(v)));
        if !lo.is_finite() || !hi.is_finite() {
            (lo, hi) = (0.0, 1.0); // no finite samples: arbitrary fixed frame
        }
        if lo == hi {
            // A flat signal still needs a non-degenerate y range.
            (lo, hi) = (lo - 1.0, hi + 1.0);
        }
        let span = (last_tick.max(1)) as f64;
        let x = |t: u64| PAD + (W - 2.0 * PAD) * (t as f64 / span);
        let y = |v: f64| H - 22.0 + (14.0 - (H - 22.0)) * ((v - lo) / (hi - lo));
        // Step polylines, broken at non-finite samples (NaN/±inf have no
        // plottable y; the gap makes them visible instead of lying).
        let mut segments: Vec<String> = Vec::new();
        let mut current = String::new();
        let mut prev: Option<(u64, f64)> = None;
        for &(t, v) in &series {
            if !v.is_finite() {
                if !current.is_empty() {
                    segments.push(std::mem::take(&mut current));
                }
                prev = None;
                continue;
            }
            if let Some((_, pv)) = prev {
                let _ = write!(current, " {:.1},{:.1}", x(t), y(pv));
            }
            if !current.is_empty() {
                current.push(' ');
            }
            let _ = write!(current, "{:.1},{:.1}", x(t), y(v));
            prev = Some((t, v));
        }
        if !current.is_empty() {
            segments.push(current);
        }
        let _ = writeln!(
            out,
            "<p><code>{}</code> <span class=\"range\">[{lo:.4} .. {hi:.4}]</span></p>",
            esc(&signal.name),
        );
        let _ = write!(
            out,
            "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\" \
             aria-label=\"waveform of {}\">\n\
             <line x1=\"{p}\" y1=\"{yb:.1}\" x2=\"{xe:.1}\" y2=\"{yb:.1}\" stroke=\"#99a\"/>\n\
             <text x=\"{p}\" y=\"{H}\" font-size=\"11\" fill=\"#567\">tick 0</text>\n\
             <text x=\"{xe:.1}\" y=\"{H}\" font-size=\"11\" fill=\"#567\" \
             text-anchor=\"end\">tick {last_tick}</text>\n",
            esc(&signal.name),
            p = PAD,
            yb = H - 22.0,
            xe = x(last_tick.max(1)),
        );
        for points in &segments {
            let _ = writeln!(
                out,
                "<polyline fill=\"none\" stroke=\"#b0572a\" stroke-width=\"2\" points=\"{points}\"/>"
            );
        }
        out.push_str("</svg>\n");
    }
}

/// The emitted suite with full mutation lineage chains.
fn render_cases(out: &mut String, artifact: &CampaignArtifact, lineage: &cftcg_fuzz::Lineage) {
    let _ = writeln!(out, "<h2>Test cases — {} emitted</h2>", artifact.cases.len());
    if artifact.cases.is_empty() {
        return;
    }
    out.push_str(
        "<table>\n<tr><th>case</th><th>shard</th><th>execution</th><th>t</th>\
         <th>covered after</th><th>bytes</th><th>lineage</th></tr>\n",
    );
    for case in &artifact.cases {
        let chain = lineage.chain(case.id);
        let chain_text = if chain.is_empty() {
            "(no lineage recorded)".to_string()
        } else {
            format_chain(&chain)
        };
        let _ = writeln!(
            out,
            "<tr><td><code>{}</code></td><td>{}</td><td>{}</td><td>{:.2}s</td>\
             <td>{}</td><td>{}</td><td class=\"chain\">{}</td></tr>",
            format_case_id(case.id),
            case.shard,
            case.executions,
            case.t_s,
            case.covered_branches,
            case.bytes.len(),
            esc(&chain_text),
        );
    }
    out.push_str("</table>\n");
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_model::{BlockKind, DataType, LogicOp, ModelBuilder, RelOp};

    fn tool() -> crate::Cftcg {
        let mut b = ModelBuilder::new("explorer<&>test");
        let x = b.inport("x", DataType::Bool);
        let z = b.inport("z", DataType::Bool);
        let and = b.add("and", BlockKind::Logic { op: LogicOp::And, inputs: 2 });
        let y = b.outport("y");
        b.feed(x, and, 0);
        b.feed(z, and, 1);
        b.wire(and, y);
        crate::Cftcg::new(&b.finish().unwrap()).unwrap()
    }

    fn render(tool: &crate::Cftcg, executions: u64) -> (CampaignArtifact, String) {
        let generation = tool.generate_executions(executions, 11);
        let map = tool.compiled().map();
        let artifact =
            CampaignArtifact::from_generation("explorer<&>test", 11, 1, &generation, map);
        let mut tracker = FullTracker::new(map);
        for case in &artifact.cases {
            replay_case(tool.compiled(), &TestCase::new(case.bytes.clone()), &mut tracker);
        }
        let html = campaign_explorer_html(tool.compiled(), &artifact, &tracker);
        (artifact, html)
    }

    #[test]
    fn explorer_is_self_contained_and_escaped() {
        let tool = tool();
        let (_, html) = render(&tool, 800);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
        // Self-contained: no external fetches, no scripts.
        assert!(!html.contains("<script"));
        assert!(!html.contains("http://") && !html.contains("https://"));
        // The model name needed escaping and got it.
        assert!(html.contains("explorer&lt;&amp;&gt;test"));
        assert!(!html.contains("explorer<&>test"));
        // All sections render.
        for section in [
            "Coverage over time",
            "Goals by decision",
            "Frontier",
            "Search forensics",
            "Test cases",
        ] {
            assert!(html.contains(section), "missing section {section}");
        }
        assert!(html.contains("Operator yield at first hit"));
        assert!(html.contains("Productive ancestors"));
        // No assertions in the model: the waveform section stays absent.
        assert!(!html.contains("Violation waveforms"));
    }

    #[test]
    fn violation_witnesses_get_waveforms() {
        // The guarded integrator: "output stays below 100", violated by a
        // sustained positive input — which the fuzzer reliably finds.
        let mut b = ModelBuilder::new("guarded");
        let u = b.inport("u", DataType::I8);
        let u_f = b.add("u_f", BlockKind::DataTypeConversion { to: DataType::F64 });
        let integ = b.add(
            "integ",
            BlockKind::DiscreteIntegrator {
                gain: 1.0,
                initial: 0.0,
                lower: Some(-500.0),
                upper: Some(500.0),
            },
        );
        b.wire(u, u_f);
        b.wire(u_f, integ);
        let ok = b.add("ok", BlockKind::Compare { op: RelOp::Lt, constant: 100.0 });
        b.wire(integ, ok);
        let guard = b.add("safety", BlockKind::Assertion);
        b.wire(ok, guard);
        let y = b.outport("y");
        b.wire(integ, y);
        let tool = crate::Cftcg::new(&b.finish().unwrap()).unwrap();

        let generation = tool.generate_executions(3_000, 2);
        assert!(!generation.violations.is_empty(), "the violation must be found");
        let map = tool.compiled().map();
        let artifact = CampaignArtifact::from_generation("guarded", 2, 1, &generation, map);
        let mut tracker = FullTracker::new(map);
        for case in &artifact.cases {
            replay_case(tool.compiled(), &TestCase::new(case.bytes.clone()), &mut tracker);
        }
        let html = campaign_explorer_html(tool.compiled(), &artifact, &tracker);
        assert!(html.contains("Violation waveforms"), "witness section renders");
        assert!(html.contains("safety"), "the failed assertion is named");
        assert!(html.contains("aria-label=\"waveform of"), "an output waveform is plotted");
    }

    #[test]
    fn every_open_goal_appears_with_a_cause() {
        let tool = tool();
        // A tiny budget leaves goals open (at minimum the run is unlikely to
        // demonstrate all MCDC pairs in 30 executions; if it does, the
        // frontier section must say so instead).
        let (artifact, html) = render(&tool, 30);
        let map = tool.compiled().map();
        let mut tracker = FullTracker::new(map);
        for case in &artifact.cases {
            replay_case(tool.compiled(), &TestCase::new(case.bytes.clone()), &mut tracker);
        }
        let open = frontier(map, &tracker);
        if open.is_empty() {
            assert!(html.contains("Every goal of the model is covered."));
        }
        for entry in &open {
            assert!(html.contains(&esc(&entry.label)), "missing open goal {}", entry.label);
            assert!(html.contains(entry.cause.tag()), "missing cause {}", entry.cause.tag());
        }
        // And every covered goal carries its provenance annotation.
        for hit in &artifact.hits {
            assert!(
                html.contains(&format!("<code>{}</code>", format_case_id(hit.case))),
                "missing provenance case {}",
                hit.case
            );
        }
    }

    #[test]
    fn rendering_is_byte_stable() {
        let tool = tool();
        let (artifact, first) = render(&tool, 500);
        let map = tool.compiled().map();
        for _ in 0..3 {
            let mut tracker = FullTracker::new(map);
            for case in &artifact.cases {
                replay_case(tool.compiled(), &TestCase::new(case.bytes.clone()), &mut tracker);
            }
            assert_eq!(campaign_explorer_html(tool.compiled(), &artifact, &tracker), first);
        }
    }
}
