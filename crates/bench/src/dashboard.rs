//! Zero-dependency static status dashboard for the perf trajectory.
//!
//! `dnc bench --dashboard <dir>` renders everything offline
//! from the parsed `BENCH_*.json` trajectories: one hand-rolled
//! `index.html` (no scripts, no external assets) with a regression
//! status banner, a latest-run summary table per trajectory, and one
//! SVG trend chart per metric reusing [`crate::chart`]. Each chart is
//! both written as a standalone `.svg` (for CI artifacts) and inlined
//! into the page, so the directory is self-contained either way.
//!
//! Rendering is a pure function of the trajectory records and gate
//! reports — no clock reads, BTreeMap iteration order throughout — so
//! identical inputs produce byte-identical output (golden-tested).

use crate::chart::{Chart, Series};
use crate::trajectory::{render_gate_table, BenchRecord, Direction, GateReport};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One trajectory's panel on the dashboard.
#[derive(Clone, Copy, Debug)]
pub struct Panel<'a> {
    /// Trajectory name (`throughput`, `churn`).
    pub name: &'a str,
    /// Parsed records, oldest first.
    pub records: &'a [BenchRecord],
    /// The gate's verdicts over those records.
    pub gate: &'a GateReport,
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// File-name-safe slug of a metric name.
fn metric_slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

fn value_text(v: f64) -> String {
    if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Trend chart of one metric over the trajectory (x = run index).
fn metric_chart(panel: &Panel, metric: &str) -> Chart {
    let points: Vec<(f64, f64)> = panel
        .records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.metrics.get(metric).map(|&v| (i as f64, v)))
        .collect();
    Chart {
        title: format!("{} · {metric}", panel.name),
        x_label: "run index".to_string(),
        y_label: metric.to_string(),
        series: vec![Series {
            label: metric.to_string(),
            points,
        }],
    }
}

fn push_panel(html: &mut String, dir: &Path, panel: &Panel) -> std::io::Result<()> {
    let _ = writeln!(html, "<section>");
    let _ = writeln!(html, "<h2>{}</h2>", html_escape(panel.name));
    let Some(latest) = panel.records.last() else {
        let _ = writeln!(html, "<p>no records yet</p>\n</section>");
        return Ok(());
    };
    let _ = writeln!(
        html,
        "<p class=\"stamp\">{} run(s) · latest {} · {} · {}</p>",
        panel.records.len(),
        html_escape(&latest.timestamp),
        html_escape(&latest.git_sha),
        html_escape(&latest.toolchain),
    );
    let knobs: Vec<String> = latest
        .knobs
        .iter()
        .map(|(k, v)| format!("{}={}", html_escape(k), html_escape(v)))
        .collect();
    let _ = writeln!(html, "<p class=\"stamp\">knobs: {}</p>", knobs.join(" "));

    // Latest-run summary: every metric of the latest record, with the
    // gate's verdict where one exists (none on a first run or for
    // metrics that just appeared).
    let _ = writeln!(
        html,
        "<table><tr><th>metric</th><th>latest</th><th>baseline</th>\
         <th>delta</th><th>status</th></tr>"
    );
    for (name, &value) in &latest.metrics {
        let verdict = panel.gate.verdicts.iter().find(|v| v.metric == *name);
        let (baseline, delta, status, class) = match verdict {
            Some(v) => (
                value_text(v.baseline),
                format!("{:+.1}%", v.delta_pct),
                if v.regressed {
                    "REGRESSED"
                } else if v.direction == Direction::Informational {
                    "info"
                } else {
                    "ok"
                },
                if v.regressed { "bad" } else { "ok" },
            ),
            None => ("—".to_string(), "—".to_string(), "new", "new"),
        };
        let _ = writeln!(
            html,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td class=\"{class}\">{status}</td></tr>",
            html_escape(name),
            value_text(value),
            baseline,
            delta,
        );
    }
    let _ = writeln!(html, "</table>");
    let _ = writeln!(
        html,
        "<pre>{}</pre>",
        html_escape(&render_gate_table(panel.name, panel.gate))
    );

    let _ = writeln!(html, "<div class=\"charts\">");
    for name in latest.metrics.keys() {
        let svg = metric_chart(panel, name).to_svg();
        let file = format!("{}-{}.svg", panel.name, metric_slug(name));
        std::fs::write(dir.join(&file), &svg)?;
        let _ = writeln!(html, "<figure id=\"{file}\">{svg}</figure>");
    }
    let _ = writeln!(html, "</div>\n</section>");
    Ok(())
}

/// Render the dashboard into `dir` (created if missing): `index.html`
/// plus one `<panel>-<metric>.svg` per tracked metric. Returns the
/// index path.
pub fn render_dashboard(dir: &Path, panels: &[Panel]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let regressions: usize = panels.iter().map(|p| p.gate.regressions().len()).sum();
    let runs: usize = panels.iter().map(|p| p.records.len()).sum();

    let mut html = String::new();
    html.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>dnc perf trajectory</title>\n<style>\n\
         body { font-family: sans-serif; margin: 2em auto; max-width: 70em; }\n\
         .banner { padding: 0.8em 1em; border-radius: 6px; font-weight: bold; }\n\
         .banner.ok { background: #e6f4e6; color: #1d6b1d; }\n\
         .banner.bad { background: #fbe3e3; color: #9c1f1f; }\n\
         .stamp { color: #555; font-size: 0.9em; }\n\
         table { border-collapse: collapse; margin: 1em 0; }\n\
         th, td { border: 1px solid #ccc; padding: 0.3em 0.7em; text-align: right; }\n\
         th:first-child, td:first-child { text-align: left; }\n\
         td.bad { color: #9c1f1f; font-weight: bold; }\n\
         td.ok { color: #1d6b1d; }\n\
         td.new { color: #555; }\n\
         figure { display: inline-block; margin: 0.5em; }\n\
         </style>\n</head>\n<body>\n<h1>dnc perf trajectory</h1>\n",
    );
    if regressions == 0 {
        let _ = writeln!(
            html,
            "<div class=\"banner ok\">OK — no gated metric out of band \
             ({runs} record(s) tracked)</div>"
        );
    } else {
        let _ = writeln!(
            html,
            "<div class=\"banner bad\">REGRESSED — {regressions} metric(s) \
             out of band ({runs} record(s) tracked)</div>"
        );
    }
    for panel in panels {
        push_panel(&mut html, dir, panel)?;
    }
    html.push_str("</body>\n</html>\n");
    let index = dir.join("index.html");
    std::fs::write(&index, html)?;
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::{evaluate_gate, GateConfig};
    use std::collections::BTreeMap;

    fn record(wall: f64) -> BenchRecord {
        BenchRecord {
            timestamp: "2026-08-08T00:00:00Z".to_string(),
            git_sha: "abc123".to_string(),
            toolchain: "rustc test".to_string(),
            knobs: BTreeMap::from([("seed".to_string(), "1".to_string())]),
            metrics: BTreeMap::from([("t.wall_us".to_string(), wall)]),
            counters: BTreeMap::new(),
        }
    }

    #[test]
    fn dashboard_renders_banner_table_and_svgs() {
        let records: Vec<BenchRecord> = [100.0, 104.0, 300.0].iter().map(|&v| record(v)).collect();
        let gate = evaluate_gate(&records, &GateConfig::default());
        assert!(gate.regressed());
        let dir = dnc_service::fs::ScratchDir::new("dashboard");
        let index = render_dashboard(
            &dir,
            &[Panel {
                name: "throughput",
                records: &records,
                gate: &gate,
            }],
        )
        .unwrap();
        let html = std::fs::read_to_string(&index).unwrap();
        assert!(html.contains("banner bad"), "regression banner");
        assert!(html.contains("t.wall_us"));
        assert!(html.contains("<svg"), "charts inlined");
        assert!(dir.join("throughput-t-wall-us.svg").exists());
    }
}
