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
use cftcg_telemetry::html::{page_close, page_open, step_points, tiles, y_range, Chart, Line};
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
    page_open(&mut out, &format!("CFTCG campaign explorer — {}", artifact.model), STYLE);

    render_summary(&mut out, artifact, &report);
    render_series(&mut out, artifact);
    render_telemetry_series(&mut out, artifact);
    render_goals(&mut out, map, tracker, &open_goals, &hit_by_goal);
    render_frontier(&mut out, &open);
    render_forensics(&mut out, artifact, &lineage);
    render_waveforms(&mut out, compiled, artifact);
    render_cases(&mut out, artifact, &lineage);
    page_close(&mut out);
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
    tiles(
        out,
        [
            (artifact.seed.to_string(), "seed"),
            (artifact.workers.to_string(), "workers"),
            (artifact.executions.to_string(), "inputs executed"),
            (artifact.iterations.to_string(), "model iterations"),
            (format!("{:.2}s", artifact.elapsed_s), "wall clock"),
            (artifact.cases.len().to_string(), "test cases"),
            (ratio_text(report.decision), "decision coverage"),
            (ratio_text(report.condition), "condition coverage"),
            (ratio_text(report.mcdc), "MCDC"),
        ],
    );
}

fn ratio_text(ratio: Ratio) -> String {
    format!("{}/{} ({:.1}%)", ratio.covered, ratio.total, ratio.percent())
}

/// The coverage-vs-time curve built from the per-case emission metadata:
/// each emitted case is one step of the cumulative covered-branch count
/// (the data behind the paper's Figure 7, per campaign).
fn render_series(out: &mut String, artifact: &CampaignArtifact) {
    out.push_str("<h2>Coverage over time</h2>\n");
    if artifact.cases.is_empty() {
        out.push_str("<p>No test cases were emitted.</p>\n");
        return;
    }
    let max_t = artifact.cases.iter().map(|c| c.t_s).fold(artifact.elapsed_s, f64::max).max(1e-9);
    let steps = artifact.cases.iter().map(|c| (c.t_s, c.covered_branches as f64));
    Chart {
        height: 200.0,
        aria_label: "covered branches over time".into(),
        x_labels: ["0s".into(), format!("{max_t:.2}s")],
        y_labels: ["0".into(), artifact.branch_count.to_string()],
        x_max: max_t,
        y_range: (0.0, artifact.branch_count.max(1) as f64),
        lines: vec![Line {
            points: step_points(steps, max_t),
            color: "#2a6fb0",
            width: 2.0,
            dash: None,
        }],
    }
    .render(out);
    let _ = writeln!(
        out,
        "<p>{} of {} branch probes covered.</p>",
        artifact.covered_branches, artifact.branch_count
    );
}

/// The telemetry time-series panel: sampled campaign progress (covered
/// branches plus execution rate, each as a share of its peak scale) from
/// the bounded registry ring persisted into the artifact. Skipped entirely
/// when the campaign ran without telemetry — the per-case curve above is
/// always available.
fn render_telemetry_series(out: &mut String, artifact: &CampaignArtifact) {
    let series = &artifact.series;
    if series.is_empty() {
        return;
    }
    out.push_str("<h2>Sampled campaign progress</h2>\n");
    let max_t = series.iter().map(|p| p.t_s).fold(artifact.elapsed_s, f64::max).max(1e-9);
    let max_c = artifact.branch_count.max(1) as f64;
    let max_rate = series.iter().map(|p| p.execs_per_sec).fold(1e-9, f64::max);
    let coverage = series.iter().map(|p| (p.t_s, p.covered as f64 / max_c)).collect();
    let rate = series.iter().map(|p| (p.t_s, p.execs_per_sec / max_rate)).collect();
    Chart {
        height: 200.0,
        aria_label: "sampled coverage and execution rate over time".into(),
        x_labels: ["0s".into(), format!("{max_t:.2}s")],
        y_labels: ["0".into(), artifact.branch_count.to_string()],
        x_max: max_t,
        y_range: (0.0, 1.0),
        lines: vec![
            Line { points: coverage, color: "#2a6fb0", width: 2.0, dash: None },
            Line { points: rate, color: "#b0572a", width: 1.5, dash: Some("4 3") },
        ],
    }
    .render(out);
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

/// One compact step-line chart per probed signal of a captured trace.
fn render_waveform_svgs(out: &mut String, trace: &Trace) {
    let last_tick = trace.records().map(|r| r.tick).max().unwrap_or(0);
    for (k, signal) in trace.signals().iter().enumerate() {
        // Each sample holds until the next one; a non-finite sample (NaN or
        // ±inf has no plottable y) breaks the line, so the gap shows.
        let mut points: Vec<(f64, f64)> = Vec::new();
        let mut prev = f64::NAN;
        for record in trace.records().filter(|r| r.signal == k as u32) {
            let (t, v) = (record.tick as f64, record.value);
            if v.is_finite() && prev.is_finite() {
                points.push((t, prev));
            }
            points.push((t, v));
            prev = v;
        }
        if points.is_empty() {
            continue;
        }
        let (lo, hi) = y_range(points.iter().map(|&(_, v)| v));
        let _ = writeln!(
            out,
            "<p><code>{}</code> <span class=\"range\">[{lo:.4} .. {hi:.4}]</span></p>",
            esc(&signal.name),
        );
        Chart {
            height: 140.0,
            aria_label: format!("waveform of {}", signal.name),
            x_labels: ["tick 0".into(), format!("tick {last_tick}")],
            y_labels: [String::new(), String::new()],
            x_max: last_tick.max(1) as f64,
            y_range: (lo, hi),
            lines: vec![Line { points, color: "#b0572a", width: 2.0, dash: None }],
        }
        .render(out);
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
    fn sampled_progress_panel_renders_only_with_a_series() {
        let tool = tool();
        let (mut artifact, html) = render(&tool, 800);
        assert!(artifact.series.is_empty());
        assert!(!html.contains("Sampled campaign progress"), "no series, no panel");

        artifact.series = (1..=3)
            .map(|i| cftcg_telemetry::SeriesPoint {
                t_s: 0.1 * i as f64,
                executions: 100 * i,
                covered: i as usize,
                branch_count: artifact.branch_count,
                corpus: i,
                frontier_open: artifact.branch_count.saturating_sub(i as usize),
                execs_per_sec: 1_000.0 * i as f64,
            })
            .collect();
        let map = tool.compiled().map();
        let mut tracker = FullTracker::new(map);
        for case in &artifact.cases {
            replay_case(tool.compiled(), &TestCase::new(case.bytes.clone()), &mut tracker);
        }
        let html = campaign_explorer_html(tool.compiled(), &artifact, &tracker);
        let panel = html.split("<h2>Sampled campaign progress</h2>").nth(1).expect("panel renders");
        let chart = &panel[..panel.find("</svg>").expect("panel has a chart")];
        assert_eq!(chart.matches("<polyline").count(), 2, "coverage and rate lines: {chart}");
        assert!(chart.contains("stroke-dasharray=\"4 3\""), "the rate line is dashed");
        assert!(panel.contains("3 telemetry samples"));
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
