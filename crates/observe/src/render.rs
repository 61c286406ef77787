//! Endpoint bodies: the JSON snapshot and the HTML dashboard.
//!
//! Both render from one [`TelemetrySnapshot`], so every number on a page
//! comes from the same registry lock acquisition — a dashboard refresh can
//! never show executions from one instant next to coverage from another.

use std::fmt::Write;

use cftcg_telemetry::html::{page_close, page_open, tiles, Chart, Line};
use cftcg_telemetry::json::{push_json_f64, push_json_str};
use cftcg_telemetry::{
    escape_html, format_ns, CorpusSeedReport, SeriesPoint, SpanKind, TelemetrySnapshot, SCALARS,
};

/// The `/snapshot` body: every [`SCALARS`] entry under its key, plus the
/// per-shard rates, span attribution, operator attribution, corpus
/// forensics, the latest plateau and the retained time series, as one JSON
/// object.
pub fn snapshot_json(model: &str, snap: &TelemetrySnapshot) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\"model\":");
    push_json_str(&mut out, model);
    for scalar in SCALARS {
        let _ = write!(out, ",\"{}\":", scalar.key);
        match (scalar.value)(snap) {
            Some(value) => push_json_f64(&mut out, value),
            None => out.push_str("null"),
        }
        match scalar.key {
            "series_points" => {
                push_array(&mut out, "shard_rates", &snap.shard_rates, |out, rate| {
                    push_json_f64(out, *rate)
                });
            }
            "jit_compile_ns" => {
                let spans = snap.totals.spans.reports();
                let span_ns: u64 = spans.iter().map(|row| row.total_ns).sum();
                push_array(&mut out, "spans", &spans, |out, row| {
                    row.push_json(out);
                    // Reopen the row to add the phase's share of attributed time.
                    out.pop();
                    out.push_str(",\"pct\":");
                    push_json_f64(out, 100.0 * row.total_ns as f64 / span_ns.max(1) as f64);
                    out.push('}');
                });
                push_array(&mut out, "yields", &snap.yield_reports(), |out, row| {
                    row.push_json(out)
                });
            }
            "goals_per_mutation_ns" => {
                push_array(&mut out, "corpus_seeds", &snap.corpus_seeds, |out, seed| {
                    let _ = write!(
                        out,
                        "{{\"id\":{},\"size_bytes\":{},\"metric\":{},\"new_branches\":{},\
                         \"energy\":{},\"selections\":{},\"children\":{},\
                         \"descendant_goals\":{},\"age_executions\":{}}}",
                        seed.id,
                        seed.size_bytes,
                        seed.metric,
                        seed.new_branches,
                        seed.energy,
                        seed.selections,
                        seed.children,
                        seed.descendant_goals,
                        seed.age_executions,
                    );
                });
            }
            _ => {}
        }
    }
    match &snap.last_plateau {
        Some(plateau) => {
            out.push_str(",\"plateau\":{\"t_s\":");
            push_json_f64(&mut out, plateau.t);
            let _ =
                write!(out, ",\"executions\":{},\"open\":{}}}", plateau.executions, plateau.open);
        }
        None => out.push_str(",\"plateau\":null"),
    }
    push_array(&mut out, "series", &snap.series, |out, point| point.push_json(out));
    out.push('}');
    out
}

/// Appends `,"key":[...]`, writing each item with `push`.
fn push_array<'a, T>(
    out: &mut String,
    key: &str,
    items: &'a [T],
    mut push: impl FnMut(&mut String, &'a T),
) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
    out.push(']');
}

/// The dashboard's head markup: the 2 s self-refresh and page chrome
/// matching the offline campaign explorer's styling, so the live dashboard
/// and the post-mortem report read as one tool.
const HEAD: &str = "<meta http-equiv=\"refresh\" content=\"2\">\n<style>\n\
body{font:14px/1.45 system-ui,sans-serif;margin:2rem auto;max-width:70rem;color:#1a1a2a;padding:0 1rem}\n\
h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem;border-bottom:1px solid #ccd;padding-bottom:.2rem}\n\
.tiles{display:flex;flex-wrap:wrap;gap:.6rem;margin:1rem 0}\n\
.tile{border:1px solid #ccd;border-radius:6px;padding:.5rem .8rem;background:#f7f8fb}\n\
.tile b{display:block;font-size:1.15rem}.tile span{color:#567;font-size:.8rem}\n\
table{border-collapse:collapse;width:100%;margin:.6rem 0}\n\
th,td{border:1px solid #dde;padding:.25rem .5rem;text-align:left}\n\
th{background:#eef0f6}\n\
svg{background:#fbfcff;border:1px solid #ccd;border-radius:6px}\n\
.banner{border:1px solid #c98;border-radius:6px;background:#fdf3ec;color:#742;padding:.5rem .8rem;margin:1rem 0}\n\
.bar{color:#2a6fb0;letter-spacing:-1px}\n\
footer{color:#567;font-size:.8rem;margin-top:2rem}\n\
</style>\n";

/// The `/` body: a self-refreshing dashboard — summary tiles, the
/// coverage-vs-time curve, and the span phase table.
pub(crate) fn dashboard_html(model: &str, snap: &TelemetrySnapshot) -> String {
    let (covered, branch_count) = (snap.covered, snap.branch_count);
    let mut out = String::with_capacity(8192);
    page_open(&mut out, &format!("cftcg observatory — {model}"), HEAD);
    let jit_code =
        snap.jit_code_bytes.map(|bytes| (format!("{:.1} KiB", bytes as f64 / 1024.0), "JIT code"));
    tiles(
        &mut out,
        [
            (format!("{:.1}s", snap.elapsed.as_secs_f64()), "elapsed"),
            (snap.totals.executions.to_string(), "inputs executed"),
            (format!("{:.0}/s", snap.execs_per_sec()), "execution rate"),
            (format!("{covered}/{branch_count} ({:.1}%)", snap.coverage_pct()), "branch coverage"),
            (branch_count.saturating_sub(covered).to_string(), "open frontier"),
            (snap.corpus_size.to_string(), "corpus entries"),
            (snap.violations.to_string(), "violations"),
            (format!("{:.2}/s", snap.goals_per_second()), "goal rate"),
        ]
        .into_iter()
        .chain(jit_code),
    );

    if let Some(plateau) = &snap.last_plateau {
        let _ = writeln!(
            out,
            "<div class=\"banner\"><b>search plateau</b> — {} quiet window(s) so far; \
             last fired at {} executions (t={:.1}s) with {} goal(s) still open. \
             See <a href=\"/snapshot\">/snapshot</a> and the JSONL event log for the frontier diff.</div>",
            snap.plateaus, plateau.executions, plateau.t, plateau.open
        );
    }

    render_series_svg(&mut out, &snap.series, branch_count);
    render_span_table(&mut out, snap);
    render_search_health(&mut out, snap);

    out.push_str(
        "<footer>live: <a href=\"/metrics\">/metrics</a> (Prometheus) · \
         <a href=\"/snapshot\">/snapshot</a> (JSON) · \
         <a href=\"/diff\">/diff</a> (latest campaign diff) · page refreshes every 2s</footer>\n",
    );
    page_close(&mut out);
    out
}

/// The coverage-vs-time curve from the retained series ring — the live
/// counterpart of the campaign explorer's post-mortem chart.
fn render_series_svg(out: &mut String, series: &[SeriesPoint], branch_count: usize) {
    out.push_str("<h2>Coverage over time</h2>\n");
    let Some(last) = series.last() else {
        out.push_str("<p>No samples yet — the series fills as sync rounds land.</p>\n");
        return;
    };
    let max_t = series.iter().map(|p| p.t_s).fold(1e-9, f64::max);
    Chart {
        height: 200.0,
        aria_label: "covered branches over time".into(),
        x_labels: ["0s".into(), format!("{max_t:.1}s")],
        y_labels: ["0".into(), branch_count.to_string()],
        x_max: max_t,
        y_range: (0.0, branch_count.max(1) as f64),
        lines: vec![Line {
            points: std::iter::once((0.0, 0.0))
                .chain(series.iter().map(|p| (p.t_s, p.covered as f64)))
                .collect(),
            color: "#2a6fb0",
            width: 2.0,
            dash: None,
        }],
    }
    .render(out);
    let _ = writeln!(
        out,
        "<p>{} samples retained; latest: {} covered at t={:.1}s.</p>",
        series.len(),
        last.covered,
        last.t_s
    );
}

/// Where campaign time goes: one row per non-empty span kind.
fn render_span_table(out: &mut String, snap: &TelemetrySnapshot) {
    let spans = &snap.totals.spans;
    out.push_str("<h2>Phase attribution</h2>\n");
    if spans.is_empty() {
        out.push_str("<p>No spans recorded yet.</p>\n");
        return;
    }
    out.push_str(
        "<table><tr><th>phase</th><th>count</th><th>total</th><th>share</th>\
         <th>p50</th><th>p99</th></tr>\n",
    );
    for kind in SpanKind::ALL {
        let h = spans.histogram(kind);
        if h.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{:.1}%</td><td>{}</td><td>{}</td></tr>",
            kind.name(),
            h.count(),
            format_ns(h.sum()),
            spans.phase_pct(kind),
            format_ns(h.quantile_upper_bound(0.5)),
            format_ns(h.quantile_upper_bound(0.99)),
        );
    }
    out.push_str("</table>\n");
}

/// The "Search health" panel: per-operator yield table, the corpus age
/// histogram, and the mutation-time goal rate — the live view of where the
/// search's effort goes and whether it is still paying off.
fn render_search_health(out: &mut String, snap: &TelemetrySnapshot) {
    out.push_str("<h2>Search health</h2>\n");

    let yields = snap.yield_reports();
    if yields.iter().all(|row| row.executed == 0) {
        out.push_str("<p>No mutation yields recorded yet.</p>\n");
    } else {
        out.push_str(
            "<table><tr><th>operator</th><th>executed</th><th>new coverage</th>\
             <th>corpus insert</th><th>violation</th><th>hit rate</th></tr>\n",
        );
        for row in &yields {
            let hit_rate = if row.executed == 0 {
                0.0
            } else {
                100.0 * row.new_coverage as f64 / row.executed as f64
            };
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{hit_rate:.2}%</td></tr>",
                escape_html(&row.name),
                row.executed,
                row.new_coverage,
                row.corpus_insert,
                row.violation,
            );
        }
        out.push_str("</table>\n");
        if let Some(rate) = snap.goals_per_mutation_ns() {
            let _ = writeln!(
                out,
                "<p>goal rate: {:.2} goals/s wall-clock; {:.3} goals per ms spent mutating.</p>",
                snap.goals_per_second(),
                rate * 1e6
            );
        }
    }

    render_corpus_age_histogram(out, &snap.corpus_seeds);
}

/// Corpus age distribution: equal-width buckets over the age range with
/// text bars. A corpus whose mass sits in the oldest buckets has stopped
/// committing children — the visual signature of a plateau.
fn render_corpus_age_histogram(out: &mut String, seeds: &[CorpusSeedReport]) {
    out.push_str("<h3>Corpus age</h3>\n");
    if seeds.is_empty() {
        out.push_str("<p>No corpus forensics published yet.</p>\n");
        return;
    }
    const BUCKETS: usize = 8;
    const BAR_CELLS: usize = 24;
    let max_age = seeds.iter().map(|s| s.age_executions).max().unwrap_or(0);
    let width = (max_age / BUCKETS as u64 + 1).max(1);
    let mut counts = [0usize; BUCKETS];
    for seed in seeds {
        counts[((seed.age_executions / width) as usize).min(BUCKETS - 1)] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    out.push_str("<table><tr><th>age (executions)</th><th>seeds</th><th></th></tr>\n");
    for (i, count) in counts.iter().enumerate() {
        let lo = i as u64 * width;
        let hi = lo + width;
        let cells = (count * BAR_CELLS).div_ceil(peak).min(BAR_CELLS);
        let _ = writeln!(
            out,
            "<tr><td>{lo}–{hi}</td><td>{count}</td><td><span class=\"bar\">{}</span></td></tr>",
            "▮".repeat(if *count == 0 { 0 } else { cells }),
        );
    }
    out.push_str("</table>\n");
    let selections: u64 = seeds.iter().map(|s| s.selections).sum();
    let goals: u64 = seeds.iter().map(|s| s.descendant_goals).sum();
    let _ = writeln!(
        out,
        "<p>{} seed(s) under schedule; {selections} selections; {goals} descendant goal(s) credited.</p>",
        seeds.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_telemetry::json::Json;
    use cftcg_telemetry::{Event, ShardStats, Telemetry};

    fn populated_snapshot() -> TelemetrySnapshot {
        let t = Telemetry::new();
        t.set_operator_labels(&["FlipBits", "InsertTuple"]);
        t.emit(&Event::CampaignStart {
            model: "M".into(),
            seed: 1,
            workers: 2,
            budget_ms: Some(1_000),
            branch_count: 20,
        });
        let mut stats = ShardStats::new(2);
        stats.executions = 500;
        stats.spans.record(SpanKind::Execution, 1_500);
        stats.spans.record(SpanKind::Mutation, 500);
        stats.yields.record(0, cftcg_telemetry::YieldOutcome::Executed);
        stats.yields.record(0, cftcg_telemetry::YieldOutcome::NewCoverage);
        stats.yields.record(1, cftcg_telemetry::YieldOutcome::Executed);
        t.merge_shard(0, &stats, 5);
        t.emit(&Event::NewCoverage { shard: 0, executions: 500, covered: 8, total: 20, t: 0.2 });
        t.set_corpus_seeds(
            0,
            vec![
                CorpusSeedReport {
                    id: 1,
                    size_bytes: 16,
                    metric: 3,
                    new_branches: 1,
                    energy: 36,
                    selections: 9,
                    children: 2,
                    descendant_goals: 4,
                    age_executions: 480,
                },
                CorpusSeedReport {
                    id: 2,
                    size_bytes: 8,
                    metric: 1,
                    new_branches: 0,
                    energy: 2,
                    selections: 1,
                    children: 0,
                    descendant_goals: 0,
                    age_executions: 40,
                },
            ],
        );
        t.snapshot()
    }

    #[test]
    fn snapshot_json_parses_and_carries_spans_and_series() {
        let snap = populated_snapshot();
        let body = snapshot_json("M&M", &snap);
        let parsed = Json::parse(&body).expect("snapshot JSON parses");
        assert_eq!(parsed.get("model").unwrap().as_str(), Some("M&M"));
        assert_eq!(parsed.get("executions").unwrap().as_u64(), Some(500));
        assert_eq!(parsed.get("covered").unwrap().as_u64(), Some(8));
        assert_eq!(parsed.get("frontier_open").unwrap().as_u64(), Some(12));
        let spans = parsed.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2, "two non-empty span kinds");
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("mutation"));
        let pct: f64 = spans.iter().map(|s| s.get("pct").unwrap().as_f64().unwrap()).sum();
        assert!((pct - 100.0).abs() < 1e-6, "phase shares partition: {pct}");
        let series = parsed.get("series").unwrap().as_array().unwrap();
        assert!(!series.is_empty(), "merge_shard sampled the series");
        assert!(series[0].get("t_s").is_some());
    }

    #[test]
    fn snapshot_json_carries_search_forensics() {
        let snap = populated_snapshot();
        let body = snapshot_json("M", &snap);
        let parsed = Json::parse(&body).expect("snapshot JSON parses");

        let yields = parsed.get("yields").unwrap().as_array().unwrap();
        assert_eq!(yields.len(), 2, "one row per labeled operator");
        assert_eq!(yields[0].get("name").unwrap().as_str(), Some("FlipBits"));
        assert_eq!(yields[0].get("executed").unwrap().as_u64(), Some(1));
        assert_eq!(yields[0].get("new_coverage").unwrap().as_u64(), Some(1));
        assert_eq!(yields[1].get("executed").unwrap().as_u64(), Some(1));
        assert_eq!(yields[1].get("new_coverage").unwrap().as_u64(), Some(0));

        assert!(parsed.get("goals_per_second").unwrap().as_f64().unwrap() >= 0.0);
        // covered=8 over 500ns of mutation spans.
        let per_ns = parsed.get("goals_per_mutation_ns").unwrap().as_f64().unwrap();
        assert!((per_ns - 8.0 / 500.0).abs() < 1e-12, "joins the span profile: {per_ns}");

        let seeds = parsed.get("corpus_seeds").unwrap().as_array().unwrap();
        assert_eq!(seeds.len(), 2);
        assert_eq!(seeds[0].get("id").unwrap().as_u64(), Some(1));
        assert_eq!(seeds[0].get("selections").unwrap().as_u64(), Some(9));
        assert_eq!(seeds[0].get("descendant_goals").unwrap().as_u64(), Some(4));
        assert_eq!(seeds[0].get("age_executions").unwrap().as_u64(), Some(480));

        assert_eq!(parsed.get("plateaus").unwrap().as_u64(), Some(0));
        assert!(parsed.get("plateau").is_some(), "plateau key present (null)");
    }

    #[test]
    fn snapshot_json_folds_plateau_events() {
        let t = Telemetry::new();
        t.emit(&Event::Plateau {
            shard: 0,
            executions: 2_000,
            window: 500,
            covered: 7,
            total: 12,
            open: 5,
            frontier: Vec::new(),
            t: 1.25,
        });
        let body = snapshot_json("M", &t.snapshot());
        let parsed = Json::parse(&body).expect("snapshot JSON parses");
        assert_eq!(parsed.get("plateaus").unwrap().as_u64(), Some(1));
        let plateau = parsed.get("plateau").unwrap();
        assert_eq!(plateau.get("executions").unwrap().as_u64(), Some(2_000));
        assert_eq!(plateau.get("open").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn dashboard_renders_curve_and_span_table() {
        let snap = populated_snapshot();
        let html = dashboard_html("Tiny<PV>", &snap);
        assert!(html.contains("Tiny&lt;PV&gt;"), "model name is escaped");
        assert!(html.contains("<polyline"), "series curve rendered");
        assert!(html.contains("Phase attribution"));
        assert!(html.contains("<td>execution</td>"));
        assert!(html.contains("http-equiv=\"refresh\""));
    }

    #[test]
    fn dashboard_renders_the_search_health_panel() {
        let snap = populated_snapshot();
        let html = dashboard_html("PV", &snap);
        assert!(html.contains("Search health"));
        assert!(html.contains("<td>FlipBits</td>"), "yield table row: {html}");
        assert!(html.contains("100.00%"), "FlipBits hit rate");
        assert!(html.contains("Corpus age"), "age histogram present");
        assert!(html.contains("2 seed(s) under schedule"));
        assert!(!html.contains("search plateau"), "no banner before a plateau fires");
    }

    #[test]
    fn dashboard_shows_a_plateau_banner() {
        let t = Telemetry::new();
        t.emit(&Event::Plateau {
            shard: 0,
            executions: 4_000,
            window: 1_000,
            covered: 9,
            total: 12,
            open: 3,
            frontier: Vec::new(),
            t: 2.0,
        });
        let html = dashboard_html("PV", &t.snapshot());
        assert!(html.contains("search plateau"), "banner rendered: {html}");
        assert!(html.contains("4000 executions"));
        assert!(html.contains("3 goal(s) still open"));
    }

    #[test]
    fn dashboard_degrades_gracefully_when_empty() {
        let t = Telemetry::new();
        let html = dashboard_html("Empty", &t.snapshot());
        assert!(html.contains("No samples yet"));
        assert!(html.contains("No spans recorded yet"));
        assert!(html.contains("No mutation yields recorded yet"));
        assert!(html.contains("No corpus forensics published yet"));
    }
}
