//! Endpoint bodies: the JSON snapshot and the HTML dashboard.
//!
//! Both render from one [`TelemetrySnapshot`], so every number on a page
//! comes from the same registry lock acquisition — a dashboard refresh can
//! never show executions from one instant next to coverage from another.

use std::fmt::Write;

use cftcg_telemetry::json::{push_json_f64, push_json_str};
use cftcg_telemetry::{escape_html, CorpusSeedReport, SeriesPoint, SpanKind, TelemetrySnapshot};

/// The `/snapshot` body: campaign totals, coverage, span attribution,
/// operator attribution, and the retained time series, as one JSON object.
pub(crate) fn snapshot_json(model: &str, snap: &TelemetrySnapshot) -> String {
    let t = &snap.totals;
    let covered = snap.covered;
    let branch_count = snap.branch_count;
    let frontier_open = branch_count.saturating_sub(covered);
    let coverage_pct =
        if branch_count == 0 { 0.0 } else { 100.0 * covered as f64 / branch_count as f64 };
    let elapsed_s = snap.elapsed.as_secs_f64();
    // Rate from the latest series window when available (reflects *current*
    // throughput); whole-campaign average otherwise.
    let execs_per_sec = match snap.series.last() {
        Some(point) => point.execs_per_sec,
        None if elapsed_s > 0.0 => t.executions as f64 / elapsed_s,
        None => 0.0,
    };

    let mut out = String::with_capacity(2048);
    out.push_str("{\"model\":");
    push_json_str(&mut out, model);
    out.push_str(",\"elapsed_s\":");
    push_json_f64(&mut out, elapsed_s);
    let _ = write!(
        out,
        ",\"executions\":{},\"iterations\":{},\"discoveries\":{},\"violations\":{}",
        t.executions, t.iterations, t.discoveries, t.violations
    );
    let _ = write!(
        out,
        ",\"corpus_size\":{},\"corpus_inserts\":{},\"corpus_evictions\":{}",
        snap.corpus_size, t.corpus_inserts, t.corpus_evictions
    );
    let _ = write!(out, ",\"covered\":{covered},\"branch_count\":{branch_count}");
    out.push_str(",\"coverage_pct\":");
    push_json_f64(&mut out, coverage_pct);
    let _ = write!(out, ",\"frontier_open\":{frontier_open}");
    out.push_str(",\"execs_per_sec\":");
    push_json_f64(&mut out, execs_per_sec);
    out.push_str(",\"last_sync_ms\":");
    push_json_f64(&mut out, snap.last_sync_ms);

    out.push_str(",\"shard_rates\":[");
    for (i, rate) in snap.shard_rates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_f64(&mut out, *rate);
    }
    out.push(']');

    match snap.jit_code_bytes {
        Some(bytes) => {
            let _ = write!(out, ",\"jit_code_bytes\":{bytes}");
        }
        None => out.push_str(",\"jit_code_bytes\":null"),
    }
    match snap.jit_compile_ns {
        Some(ns) => {
            let _ = write!(out, ",\"jit_compile_ns\":{ns}");
        }
        None => out.push_str(",\"jit_compile_ns\":null"),
    }

    out.push_str(",\"spans\":[");
    let mut first = true;
    for kind in SpanKind::ALL {
        let h = t.spans.histogram(kind);
        if h.is_empty() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"pct\":",
            kind.name(),
            h.count(),
            h.sum(),
            h.quantile_upper_bound(0.5),
            h.quantile_upper_bound(0.99),
        );
        push_json_f64(&mut out, t.spans.phase_pct(kind));
        out.push('}');
    }
    out.push(']');

    out.push_str(",\"yields\":[");
    for (i, row) in snap.yield_reports().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        row.push_json(&mut out);
    }
    out.push(']');

    out.push_str(",\"goals_per_second\":");
    push_json_f64(&mut out, snap.goals_per_second());
    match snap.goals_per_mutation_ns() {
        Some(rate) => {
            out.push_str(",\"goals_per_mutation_ns\":");
            push_json_f64(&mut out, rate);
        }
        None => out.push_str(",\"goals_per_mutation_ns\":null"),
    }

    out.push_str(",\"corpus_seeds\":[");
    for (i, seed) in snap.corpus_seeds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"size_bytes\":{},\"metric\":{},\"new_branches\":{},\"energy\":{},\
             \"selections\":{},\"children\":{},\"descendant_goals\":{},\"age_executions\":{}}}",
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
    }
    out.push(']');

    let _ = write!(out, ",\"plateaus\":{}", snap.plateaus);
    match &snap.last_plateau {
        Some(plateau) => {
            out.push_str(",\"plateau\":{\"t_s\":");
            push_json_f64(&mut out, plateau.t);
            let _ =
                write!(out, ",\"executions\":{},\"open\":{}}}", plateau.executions, plateau.open);
        }
        None => out.push_str(",\"plateau\":null"),
    }

    out.push_str(",\"series\":[");
    for (i, point) in snap.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_series_point(&mut out, point);
    }
    out.push_str("]}");
    out
}

fn push_series_point(out: &mut String, point: &SeriesPoint) {
    out.push_str("{\"t_s\":");
    push_json_f64(out, point.t_s);
    let _ = write!(
        out,
        ",\"executions\":{},\"covered\":{},\"branch_count\":{},\"corpus\":{},\"frontier_open\":{},\"execs_per_sec\":",
        point.executions, point.covered, point.branch_count, point.corpus, point.frontier_open
    );
    push_json_f64(out, point.execs_per_sec);
    out.push('}');
}

/// Shared page chrome, matching the offline campaign explorer's styling so
/// the live dashboard and the post-mortem report read as one tool.
const STYLE: &str = "<style>\n\
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
    let covered = snap.covered;
    let branch_count = snap.branch_count;
    let coverage_pct =
        if branch_count == 0 { 0.0 } else { 100.0 * covered as f64 / branch_count as f64 };
    let execs_per_sec = match snap.series.last() {
        Some(point) => point.execs_per_sec,
        None if snap.elapsed.as_secs_f64() > 0.0 => {
            snap.totals.executions as f64 / snap.elapsed.as_secs_f64()
        }
        None => 0.0,
    };

    let mut out = String::with_capacity(8192);
    out.push_str("<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n");
    out.push_str("<meta http-equiv=\"refresh\" content=\"2\">\n");
    let _ = writeln!(out, "<title>cftcg observatory — {}</title>", escape_html(model));
    out.push_str(STYLE);
    out.push_str("</head><body>\n");
    let _ = writeln!(out, "<h1>cftcg observatory — {}</h1>", escape_html(model));

    out.push_str("<div class=\"tiles\">\n");
    let mut tile = |value: String, label: &str| {
        let _ = writeln!(out, "<div class=\"tile\"><b>{value}</b><span>{label}</span></div>");
    };
    tile(format!("{:.1}s", snap.elapsed.as_secs_f64()), "elapsed");
    tile(snap.totals.executions.to_string(), "inputs executed");
    tile(format!("{execs_per_sec:.0}/s"), "execution rate");
    tile(format!("{covered}/{branch_count} ({coverage_pct:.1}%)"), "branch coverage");
    tile(branch_count.saturating_sub(covered).to_string(), "open frontier");
    tile(snap.corpus_size.to_string(), "corpus entries");
    tile(snap.totals.violations.to_string(), "violations");
    tile(format!("{:.2}/s", snap.goals_per_second()), "goal rate");
    if let Some(bytes) = snap.jit_code_bytes {
        tile(format!("{:.1} KiB", bytes as f64 / 1024.0), "JIT code");
    }
    out.push_str("</div>\n");

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
    out.push_str("</body></html>\n");
    out
}

/// Inline-SVG coverage-vs-time curve from the retained series ring — the
/// live counterpart of the campaign explorer's post-mortem chart (same
/// geometry and palette).
fn render_series_svg(out: &mut String, series: &[SeriesPoint], branch_count: usize) {
    out.push_str("<h2>Coverage over time</h2>\n");
    if series.is_empty() {
        out.push_str("<p>No samples yet — the series fills as sync rounds land.</p>\n");
        return;
    }
    const W: f64 = 680.0;
    const H: f64 = 200.0;
    const PAD: f64 = 42.0;
    let max_t = series.iter().map(|p| p.t_s).fold(1e-9, f64::max);
    let max_c = branch_count.max(1) as f64;
    let x = |t: f64| PAD + (W - 2.0 * PAD) * (t / max_t);
    let y = |c: f64| H - PAD + (2.0 * PAD - H) * (c / max_c);

    let mut points = String::new();
    let _ = write!(points, "{:.1},{:.1}", x(0.0), y(0.0));
    for point in series {
        let _ = write!(points, " {:.1},{:.1}", x(point.t_s), y(point.covered as f64));
    }

    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\" \
         aria-label=\"covered branches over time\">\n\
         <line x1=\"{p}\" y1=\"{yb:.1}\" x2=\"{xe:.1}\" y2=\"{yb:.1}\" stroke=\"#99a\"/>\n\
         <line x1=\"{p}\" y1=\"{yt:.1}\" x2=\"{p}\" y2=\"{yb:.1}\" stroke=\"#99a\"/>\n\
         <text x=\"{p}\" y=\"{H}\" font-size=\"11\" fill=\"#567\">0s</text>\n\
         <text x=\"{xe:.1}\" y=\"{H}\" font-size=\"11\" fill=\"#567\" text-anchor=\"end\">{max_t:.1}s</text>\n\
         <text x=\"4\" y=\"{yt2:.1}\" font-size=\"11\" fill=\"#567\">{branch_count}</text>\n\
         <text x=\"4\" y=\"{yb:.1}\" font-size=\"11\" fill=\"#567\">0</text>\n\
         <polyline fill=\"none\" stroke=\"#2a6fb0\" stroke-width=\"2\" points=\"{points}\"/>\n\
         </svg>\n",
        p = PAD,
        yb = y(0.0),
        yt = y(max_c),
        yt2 = y(max_c) + 4.0,
        xe = x(max_t),
    );
    let last = &series[series.len() - 1];
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

/// Human-scale duration: picks ns/µs/ms/s by magnitude.
fn format_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
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

    #[test]
    fn format_ns_picks_sane_units() {
        assert_eq!(format_ns(12), "12ns");
        assert_eq!(format_ns(1_500), "1.5µs");
        assert_eq!(format_ns(2_500_000), "2.5ms");
        assert_eq!(format_ns(3_210_000_000), "3.21s");
    }
}
