//! The HTML rendering kit every report page shares: the escaper, the page
//! shell, the summary-tile row and the one line chart.
//!
//! The campaign explorer, the campaign diff report and the live dashboard
//! all draw through these helpers, so a tile or a coverage curve looks the
//! same on every page and each kind of markup is written in one place. Each
//! page keeps its own style block.

use std::fmt::Write as _;

/// Escapes text for HTML element content and attribute values — the one
/// escaper every HTML renderer (campaign explorer, campaign diff, live
/// dashboard) shares.
pub fn escape_html(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// Opens a self-contained document: the preamble, a `<head>` holding the
/// escaped `title` and the page's own `head` markup (its style block and
/// any meta tags), and an `<h1>` repeating the title.
pub fn page_open(out: &mut String, title: &str, head: &str) {
    let title = escape_html(title);
    let _ = write!(
        out,
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>{title}</title>\n{head}</head>\n<body>\n<h1>{title}</h1>\n"
    );
}

/// Closes a document opened by [`page_open`].
pub fn page_close(out: &mut String) {
    out.push_str("</body>\n</html>\n");
}

/// A row of summary tiles, one per `(value, label)` pair, in order. Both
/// are written as given: callers escape anything user-supplied.
pub fn tiles<'a>(out: &mut String, tiles: impl IntoIterator<Item = (String, &'a str)>) {
    out.push_str("<div class=\"tiles\">\n");
    for (value, label) in tiles {
        let _ = writeln!(out, "<div class=\"tile\"><b>{value}</b><span>{label}</span></div>");
    }
    out.push_str("</div>\n");
}

/// Chart width, pixels.
const WIDTH: f64 = 680.0;
/// Distance from the plot area to every edge of the chart, pixels.
const PAD: f64 = 42.0;

/// One polyline of a [`Chart`], in data coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// `(x, y)` points in drawing order. A non-finite `y` breaks the line:
    /// the points on either side become separate polylines.
    pub points: Vec<(f64, f64)>,
    /// Stroke colour.
    pub color: &'static str,
    /// Stroke width, pixels.
    pub width: f64,
    /// SVG dash pattern (e.g. `"6 3"`), or `None` for a solid stroke.
    pub dash: Option<&'static str>,
}

/// The one inline-SVG line chart: 680 pixels wide, an x axis from 0 to
/// `x_max` and a y axis over `y_range`, each with its end labels, and one
/// or more [`Line`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Chart {
    /// Chart height, pixels.
    pub height: f64,
    /// Accessible description of the chart (escaped on output).
    pub aria_label: String,
    /// Labels under the left and right end of the x axis.
    pub x_labels: [String; 2],
    /// Labels beside the bottom and top of the y axis; empty labels are
    /// not drawn.
    pub y_labels: [String; 2],
    /// The x value at the right end of the axis.
    pub x_max: f64,
    /// The y values at the bottom and top of the axis.
    pub y_range: (f64, f64),
    /// The plotted lines, drawn in order.
    pub lines: Vec<Line>,
}

impl Chart {
    /// Appends the chart as one inline SVG element.
    pub fn render(&self, out: &mut String) {
        let (w, h, p) = (WIDTH, self.height, PAD);
        let (lo, hi) = self.y_range;
        let x = |t: f64| p + (w - 2.0 * p) * (t / self.x_max);
        let y = |v: f64| h - p + (2.0 * p - h) * ((v - lo) / (hi - lo));
        let (xe, yb, yt) = (x(self.x_max), y(lo), y(hi));
        let label = |text: &str| escape_html(text);
        let _ = write!(
            out,
            "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" role=\"img\" aria-label=\"{}\">\n\
             <line x1=\"{p}\" y1=\"{yb:.1}\" x2=\"{xe:.1}\" y2=\"{yb:.1}\" stroke=\"#99a\"/>\n\
             <line x1=\"{p}\" y1=\"{yt:.1}\" x2=\"{p}\" y2=\"{yb:.1}\" stroke=\"#99a\"/>\n\
             <text x=\"{p}\" y=\"{h}\" font-size=\"11\" fill=\"#567\">{}</text>\n\
             <text x=\"{xe:.1}\" y=\"{h}\" font-size=\"11\" fill=\"#567\" text-anchor=\"end\">{}</text>\n",
            label(&self.aria_label),
            label(&self.x_labels[0]),
            label(&self.x_labels[1]),
        );
        for (text, at) in [(&self.y_labels[1], yt + 4.0), (&self.y_labels[0], yb)] {
            if !text.is_empty() {
                let _ = writeln!(
                    out,
                    "<text x=\"4\" y=\"{at:.1}\" font-size=\"11\" fill=\"#567\">{}</text>",
                    label(text)
                );
            }
        }
        for line in &self.lines {
            let dash = line.dash.map_or(String::new(), |d| format!(" stroke-dasharray=\"{d}\""));
            for run in line.points.split(|(_, v)| !v.is_finite()).filter(|run| !run.is_empty()) {
                let _ = write!(
                    out,
                    "<polyline fill=\"none\" stroke=\"{}\" stroke-width=\"{}\"{dash} points=\"",
                    line.color, line.width
                );
                for (i, &(t, v)) in run.iter().enumerate() {
                    let _ = write!(out, "{}{:.1},{:.1}", if i == 0 { "" } else { " " }, x(t), y(v));
                }
                out.push_str("\"/>\n");
            }
        }
        out.push_str("</svg>\n");
    }
}

/// The step line of a cumulative count: from the origin, each `(t, level)`
/// sample holds the previous level until `t` and then rises to its own; the
/// last level is held until `end`.
pub fn step_points(samples: impl IntoIterator<Item = (f64, f64)>, end: f64) -> Vec<(f64, f64)> {
    let mut points = vec![(0.0, 0.0)];
    let mut last = 0.0;
    for (t, level) in samples {
        points.push((t, last));
        last = level;
        points.push((t, last));
    }
    points.push((end, last));
    points
}

/// A y range spanning every finite value: widened by one on each side when
/// the values are flat, and `(0, 1)` when none is finite, so the chart never
/// divides by a zero-height range.
pub fn y_range(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let (lo, hi) = values
        .into_iter()
        .filter(|v| v.is_finite())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)));
    if lo > hi {
        (0.0, 1.0)
    } else if lo == hi {
        (lo - 1.0, hi + 1.0)
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart(lines: Vec<Line>) -> String {
        let mut out = String::new();
        Chart {
            height: 200.0,
            aria_label: "a<b".into(),
            x_labels: ["0s".into(), "1.00s".into()],
            y_labels: ["0".into(), "10".into()],
            x_max: 1.0,
            y_range: (0.0, 10.0),
            lines,
        }
        .render(&mut out);
        out
    }

    fn line(points: Vec<(f64, f64)>) -> Line {
        Line { points, color: "#2a6fb0", width: 2.0, dash: None }
    }

    #[test]
    fn escape_html_covers_markup_and_both_quotes() {
        assert_eq!(escape_html(r#"a<b>&"c'"#), "a&lt;b&gt;&amp;&quot;c&#39;");
        assert_eq!(escape_html("plain µs"), "plain µs");
    }

    #[test]
    fn a_non_finite_sample_splits_a_line_into_two_polylines() {
        let svg = chart(vec![line(vec![(0.0, 1.0), (0.5, f64::NAN), (0.75, 4.0), (1.0, 5.0)])]);
        let polylines: Vec<&str> = svg.lines().filter(|l| l.starts_with("<polyline")).collect();
        assert_eq!(polylines.len(), 2, "{svg}");
        assert!(polylines[0].ends_with("points=\"42.0,146.4\"/>"), "{}", polylines[0]);
        assert!(polylines[1].ends_with("points=\"489.0,111.6 638.0,100.0\"/>"), "{}", polylines[1]);
        // An infinite sample breaks the line the same way.
        let svg = chart(vec![line(vec![(0.0, 1.0), (0.5, f64::INFINITY), (1.0, 5.0)])]);
        assert_eq!(svg.matches("<polyline").count(), 2);
    }

    #[test]
    fn the_chart_draws_axes_labels_and_styled_lines() {
        let dashed =
            Line { points: vec![(0.0, 0.0)], color: "#b0572a", width: 1.5, dash: Some("4 3") };
        let svg = chart(vec![line(vec![(0.0, 0.0), (1.0, 10.0)]), dashed]);
        assert!(svg.starts_with(
            "<svg viewBox=\"0 0 680 200\" width=\"680\" height=\"200\" role=\"img\" aria-label=\"a&lt;b\">\n"
        ));
        assert!(svg
            .contains("<line x1=\"42\" y1=\"158.0\" x2=\"638.0\" y2=\"158.0\" stroke=\"#99a\"/>"));
        assert!(svg.contains("text-anchor=\"end\">1.00s</text>"));
        assert!(svg.contains("<text x=\"4\" y=\"46.0\" font-size=\"11\" fill=\"#567\">10</text>"));
        assert!(
            svg.contains("stroke=\"#2a6fb0\" stroke-width=\"2\" points=\"42.0,158.0 638.0,42.0\"")
        );
        assert!(svg.contains("stroke-width=\"1.5\" stroke-dasharray=\"4 3\" points=\"42.0,158.0\""));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn a_flat_or_non_finite_series_gets_a_non_degenerate_y_range() {
        assert_eq!(y_range([3.0, 3.0, f64::NAN]), (2.0, 4.0));
        assert_eq!(y_range([f64::NAN, f64::INFINITY]), (0.0, 1.0));
        assert_eq!(y_range([]), (0.0, 1.0));
        assert_eq!(y_range([-2.0, 5.0, f64::NEG_INFINITY]), (-2.0, 5.0));
        // A flat series plots mid-height instead of dividing by zero.
        let (lo, hi) = y_range([7.0; 4]);
        let mut out = String::new();
        Chart {
            height: 200.0,
            aria_label: "flat".into(),
            x_labels: ["0".into(), "1".into()],
            y_labels: [String::new(), String::new()],
            x_max: 1.0,
            y_range: (lo, hi),
            lines: vec![line(vec![(0.0, 7.0), (1.0, 7.0)])],
        }
        .render(&mut out);
        assert!(out.contains("points=\"42.0,100.0 638.0,100.0\""), "{out}");
        assert!(!out.contains("<text x=\"4\""), "empty y labels are not drawn");
    }

    #[test]
    fn step_points_hold_then_rise_from_the_origin_to_the_end() {
        let points = step_points([(1.0, 3.0), (2.5, 7.0)], 4.0);
        assert_eq!(
            points,
            vec![(0.0, 0.0), (1.0, 0.0), (1.0, 3.0), (2.5, 3.0), (2.5, 7.0), (4.0, 7.0)]
        );
        assert_eq!(step_points([], 2.0), vec![(0.0, 0.0), (2.0, 0.0)]);
    }

    #[test]
    fn the_page_shell_and_tiles_share_one_spelling() {
        let mut out = String::new();
        page_open(&mut out, "CFTCG x — a<b", "<style>\n</style>\n");
        tiles(&mut out, [("42".to_string(), "seed")]);
        page_close(&mut out);
        assert_eq!(
            out,
            "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
             <title>CFTCG x — a&lt;b</title>\n<style>\n</style>\n</head>\n<body>\n\
             <h1>CFTCG x — a&lt;b</h1>\n<div class=\"tiles\">\n\
             <div class=\"tile\"><b>42</b><span>seed</span></div>\n</div>\n</body>\n</html>\n"
        );
    }
}
