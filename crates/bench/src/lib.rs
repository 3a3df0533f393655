#![warn(missing_docs)]

//! # dnc-bench — harness regenerating the paper's evaluation
//!
//! Every harness is a library function shaped the same way: a config
//! goes in, a report comes out, and the report renders as text, as
//! `dnc-metrics/v1` series, and as a soundness verdict, bundled in a
//! [`HarnessOutput`]. The `dnc` CLI is the one entry point: each
//! harness is a `dnc <name>` command that prints the text, writes the
//! files under `--out-dir` (default `results/`), and exits 1 when the
//! run is unsound.
//!
//! | command | module | what it checks or regenerates |
//! |---------|--------|-------------------------------|
//! | `dnc figure <4\|5\|6>`, `modern`, `validate`, `admission`, `tightness`, `disciplines` | [`experiments`] | the paper's figures and our extensions of its evaluation |
//! | `dnc chaos` | [`chaos`] | bounds under injected faults |
//! | `dnc churn` | [`churn`] | online admission and crash recovery |
//! | `dnc torture` | [`torture`] | recovery from storage faults |
//! | `dnc socket` | [`socket`] | group commit vs per-op fsync |
//! | `dnc throughput` | [`throughput`] | incremental vs from-scratch certification |
//! | `dnc bench` | [`runner`] | the exact perf record: bounds and work counters, gated by equality |
//!
//! The shared machinery here serves them and the Criterion benches:
//! tandem parameter sweeps over network size `n` and work load
//! `U = 4ρ`, parallelized with crossbeam, plus small CSV/table writers.
//!
//! The paper's evaluation reports, for Connection 0 of the tandem
//! network:
//!
//! * Figure 4 — Decomposed vs Service Curve (delays and `R_{SC,D}`),
//! * Figure 5 — Integrated vs Decomposed (delays and `R_{D,I}`),
//! * Figure 6 — Integrated vs Service Curve (delays and `R_{SC,I}`),
//!
//! each for several network sizes as functions of `U`. Absolute numbers
//! differ from the paper (whose exact parameters are lost to OCR); the
//! *shapes* — orderings, growth with load and size, crossovers — are the
//! reproduction target, recorded in `EXPERIMENTS.md`.

pub mod chaos;
pub mod chart;
pub mod churn;
pub mod exit;
pub mod experiments;
pub mod profile;
pub mod runner;
pub mod socket;
pub mod throughput;
pub mod torture;
pub mod trajectory;

use dnc_core::{
    decomposed::Decomposed, fifo_family::FifoFamily, integrated::Integrated,
    service_curve::ServiceCurve, AnalysisReport, DelayAnalysis,
};
use dnc_net::builders::{tandem, Tandem, TandemOptions};
use dnc_num::Rat;
use dnc_telemetry::export::Series;
use dnc_telemetry::schema::ColumnMeta;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The three algorithms under comparison, as a sendable enum (the benches
/// fan sweeps out across threads).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Algorithm Decomposed (Cruz).
    Decomposed,
    /// Algorithm Service Curve (induced FIFO curves).
    ServiceCurve,
    /// Algorithm Integrated (the paper's contribution).
    Integrated,
    /// θ-parameterized FIFO service-curve family (post-paper baseline).
    FifoFamily,
}

impl Algo {
    /// Short label used in CSV headers (matches the paper's terminology).
    pub fn label(self) -> &'static str {
        match self {
            Algo::Decomposed => "decomposed",
            Algo::ServiceCurve => "service_curve",
            Algo::Integrated => "integrated",
            Algo::FifoFamily => "fifo_family",
        }
    }

    /// Run the algorithm.
    pub fn analyze(
        self,
        net: &dnc_net::Network,
    ) -> Result<AnalysisReport, dnc_core::AnalysisError> {
        match self {
            Algo::Decomposed => Decomposed::paper().analyze(net),
            Algo::ServiceCurve => ServiceCurve::paper().analyze(net),
            Algo::Integrated => Integrated::paper().analyze(net),
            Algo::FifoFamily => FifoFamily::default().analyze(net),
        }
    }
}

/// One point of a tandem sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Network size (number of switches / hops of Connection 0).
    pub n: usize,
    /// Work load `U` (interior-link utilization), exact.
    pub u: Rat,
    /// Connection 0's end-to-end bound per algorithm, in `algos` order;
    /// `None` when the algorithm diverged at this load.
    pub bounds: Vec<Option<Rat>>,
}

/// The standard work-load grid `U = k/20, k = 1..=19` (0.05 … 0.95).
pub fn u_grid() -> Vec<Rat> {
    (1..=19).map(|k| Rat::new(k, 20)).collect()
}

/// Build the paper's tandem for a given size and work load (`ρ = U/4`,
/// `σ = 1`).
pub fn paper_tandem(n: usize, u: Rat) -> Tandem {
    tandem(n, Rat::ONE, u / Rat::from(4), TandemOptions::default())
}

/// Sweep `algos` over all `(n, U)` combinations, in parallel.
pub fn sweep(ns: &[usize], us: &[Rat], algos: &[Algo], workers: usize) -> Vec<SweepPoint> {
    let combos: Vec<(usize, Rat)> = ns
        .iter()
        .flat_map(|&n| us.iter().map(move |&u| (n, u)))
        .collect();
    let mut results: Vec<Option<SweepPoint>> = vec![None; combos.len()];
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slot = std::sync::Mutex::new(&mut results);

    crossbeam::scope(|scope| {
        for _ in 0..workers.max(1).min(combos.len()) {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= combos.len() {
                    break;
                }
                let (n, u) = combos[i];
                let t = paper_tandem(n, u);
                let bounds = algos
                    .iter()
                    .map(|a| a.analyze(&t.net).ok().map(|r| r.bound(t.conn0)))
                    .collect();
                slot.lock().unwrap()[i] = Some(SweepPoint { n, u, bounds });
            });
        }
    })
    .expect("sweep worker panicked");

    results
        .into_iter()
        .map(|p| p.expect("all points run"))
        .collect()
}

/// The paper's relative-improvement metric `R_{X,Y} = (D_X − D_Y)/D_X`.
pub fn relative_improvement(dx: Rat, dy: Rat) -> Rat {
    if dx.is_zero() {
        Rat::ZERO
    } else {
        (dx - dy) / dx
    }
}

/// Sweep results as CSV: one row per `(n, U)`, a `bound_<algo>`
/// column per algorithm, plus `R_first_second` when two algorithms are
/// present (the paper's pairing convention: `R_{X,Y}` with `X` the first
/// algorithm).
pub fn sweep_csv(points: &[SweepPoint], algos: &[Algo]) -> String {
    let mut out = String::from("n,u");
    for a in algos {
        let _ = write!(out, ",bound_{}", a.label());
    }
    out.push_str(if algos.len() == 2 {
        ",rel_improvement\n"
    } else {
        "\n"
    });
    for p in points {
        let _ = write!(out, "{},{:.4}", p.n, p.u.to_f64());
        for b in &p.bounds {
            match b {
                Some(v) => {
                    let _ = write!(out, ",{:.6}", v.to_f64());
                }
                None => out.push_str(",inf"),
            }
        }
        if algos.len() == 2 {
            if let (Some(x), Some(y)) = (&p.bounds[0], &p.bounds[1]) {
                let _ = write!(out, ",{:.6}", relative_improvement(*x, *y).to_f64());
            } else {
                out.push(',');
            }
        }
        out.push('\n');
    }
    out
}

/// Render a sweep as a fixed-width text table (one block per `n`),
/// mirroring the series the paper plots.
pub fn render_table(points: &[SweepPoint], algos: &[Algo]) -> String {
    let mut s = String::new();
    let mut ns: Vec<usize> = points.iter().map(|p| p.n).collect();
    ns.sort_unstable();
    ns.dedup();
    for n in ns {
        let _ = writeln!(s, "== n = {n} hops ==");
        let _ = write!(s, "{:>6}", "U");
        for a in algos {
            let _ = write!(s, "{:>16}", a.label());
        }
        if algos.len() == 2 {
            let _ = write!(s, "{:>10}", "R");
        }
        let _ = writeln!(s);
        for p in points.iter().filter(|p| p.n == n) {
            let _ = write!(s, "{:>6.2}", p.u.to_f64());
            for b in &p.bounds {
                match b {
                    Some(v) => {
                        let _ = write!(s, "{:>16.4}", v.to_f64());
                    }
                    None => {
                        let _ = write!(s, "{:>16}", "inf");
                    }
                }
            }
            if algos.len() == 2 {
                if let (Some(x), Some(y)) = (&p.bounds[0], &p.bounds[1]) {
                    let _ = write!(s, "{:>10.4}", relative_improvement(*x, *y).to_f64());
                }
            }
            let _ = writeln!(s);
        }
        let _ = writeln!(s);
    }
    s
}

/// Sweep results as `dnc-metrics/v1` series: a long-format `bounds`
/// table (one row per `(n, U, algorithm)`) and, for two-algorithm
/// sweeps, the paper's `rel_improvement` series.
pub fn sweep_series(points: &[SweepPoint], algos: &[Algo]) -> Vec<dnc_telemetry::export::Series> {
    use dnc_telemetry::export::{Cell, Series};
    use dnc_telemetry::schema;
    let mut bounds = Series::new(
        "bounds",
        vec![
            schema::NETWORK_SIZE,
            schema::WORK_LOAD,
            schema::LABEL,
            schema::bound_column(),
        ],
    );
    for p in points {
        for (a, b) in algos.iter().zip(&p.bounds) {
            bounds.push_row(vec![
                Cell::int(p.n as u64),
                Cell::Num(p.u.to_f64()),
                Cell::Text(a.label().to_string()),
                b.map_or(Cell::Null, |v| Cell::Num(v.to_f64())),
            ]);
        }
    }
    let mut out = vec![bounds];
    if algos.len() == 2 {
        let mut rel = Series::new(
            "rel_improvement",
            vec![
                schema::NETWORK_SIZE,
                schema::WORK_LOAD,
                schema::REL_IMPROVEMENT,
            ],
        );
        for p in points {
            let cell = match (&p.bounds[0], &p.bounds[1]) {
                (Some(x), Some(y)) => Cell::Num(relative_improvement(*x, *y).to_f64()),
                _ => Cell::Null,
            };
            rel.push_row(vec![Cell::int(p.n as u64), Cell::Num(p.u.to_f64()), cell]);
        }
        out.push(rel);
    }
    out
}

/// Metadata of a harness's own `dnc-metrics/v1` series column.
pub const fn column(label: &'static str, unit: &'static str) -> ColumnMeta {
    ColumnMeta { label, unit }
}

/// Write `<dir>/metrics-<name>.json`: the given series wrapped around
/// whatever the telemetry registry aggregated since the last reset (an
/// empty snapshot in builds without `--features telemetry`). Returns the
/// path written.
pub fn write_metrics_doc(dir: &Path, name: &str, series: Vec<Series>) -> std::io::Result<PathBuf> {
    let telemetry = if dnc_telemetry::enabled() {
        "on"
    } else {
        "off"
    };
    let mut doc = dnc_telemetry::export::MetricsDoc::new(name, dnc_telemetry::snapshot())
        .with_meta("telemetry", telemetry);
    doc.series = series;
    let path = dir.join(format!("metrics-{name}.json"));
    dnc_telemetry::export::write_metrics(&doc, &path)?;
    Ok(path)
}

/// One harness run as `dnc <harness>` emits it: the report text, its
/// `dnc-metrics/v1` series, the CSV/SVG files written beside them, and
/// the soundness verdict.
#[derive(Clone, Debug)]
pub struct HarnessOutput {
    /// Names the metrics document `metrics-<name>.json`.
    pub name: &'static str,
    /// The human-readable report.
    pub text: String,
    /// The metrics series; `None` for a single-case replay, which
    /// writes no metrics document.
    pub series: Option<Vec<Series>>,
    /// Files written beside the metrics document, `(file name, body)`.
    pub files: Vec<(String, String)>,
    /// False when a falsifier fired or a built-in check failed.
    pub sound: bool,
}

impl HarnessOutput {
    /// A run whose only file is its metrics document.
    pub fn new(name: &'static str, text: String, series: Vec<Series>, sound: bool) -> Self {
        HarnessOutput {
            name,
            text,
            series: Some(series),
            files: Vec::new(),
            sound,
        }
    }

    /// A single-case replay: printed, never written.
    pub fn replay(name: &'static str, text: String, sound: bool) -> Self {
        let out = HarnessOutput::new(name, text, Vec::new(), sound);
        HarnessOutput {
            series: None,
            ..out
        }
    }

    /// Add a file to write beside the metrics document.
    pub fn with_file(mut self, name: String, body: String) -> Self {
        self.files.push((name, body));
        self
    }

    /// Write the files, then the metrics document, under `dir`; returns
    /// the paths in write order.
    pub fn write(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        for (name, body) in &self.files {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(name);
            std::fs::write(&path, body)?;
            written.push(path);
        }
        if let Some(series) = &self.series {
            written.push(write_metrics_doc(dir, self.name, series.clone())?);
        }
        Ok(written)
    }
}

/// Validate `series` as a `dnc-metrics/v1` document; returns its JSON.
#[cfg(test)]
pub(crate) fn validated_json(series: Vec<Series>) -> String {
    let mut doc =
        dnc_telemetry::export::MetricsDoc::new("test", dnc_telemetry::Snapshot::default());
    doc.series = series;
    let json = dnc_telemetry::export::metrics_json(&doc);
    dnc_telemetry::schema::validate_metrics(&json).unwrap();
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_num::rat;

    #[test]
    fn sweep_produces_all_points() {
        let pts = sweep(&[2, 4], &[rat(1, 4), rat(1, 2)], &[Algo::Decomposed], 2);
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().all(|p| p.bounds[0].is_some()));
    }

    #[test]
    fn parallel_equals_sequential() {
        let us = [rat(1, 4), rat(1, 2), rat(3, 4)];
        let a = sweep(&[2, 4], &us, &[Algo::Integrated, Algo::Decomposed], 4);
        let b = sweep(&[2, 4], &us, &[Algo::Integrated, Algo::Decomposed], 1);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.bounds, y.bounds);
        }
    }

    #[test]
    fn sweep_series_validates_against_schema() {
        let algos = [Algo::Decomposed, Algo::Integrated];
        let pts = sweep(&[2], &[rat(1, 4), rat(1, 2)], &algos, 1);
        let series = sweep_series(&pts, &algos);
        assert_eq!(series.len(), 2, "bounds + rel_improvement");
        assert_eq!(series[0].rows.len(), 4, "one row per (n, U, algorithm)");
        assert_eq!(series[1].rows.len(), 2, "one row per (n, U)");
        let json = crate::validated_json(series);
        assert!(json.contains("\"decomposed\""));
        assert!(json.contains("relative improvement"));
    }

    #[test]
    fn metrics_doc_written_to_results_dir() {
        let dir = dnc_service::fs::ScratchDir::new("bench-metrics");
        let algos = [Algo::Decomposed];
        let pts = sweep(&[2], &[rat(1, 2)], &algos, 1);
        let path = write_metrics_doc(&dir, "smoke", sweep_series(&pts, &algos)).unwrap();
        assert!(path.ends_with("metrics-smoke.json"), "{path:?}");
        let json = std::fs::read_to_string(&path).unwrap();
        dnc_telemetry::schema::validate_metrics(&json).unwrap();
    }

    #[test]
    fn table_and_csv_smoke() {
        let algos = [Algo::Decomposed, Algo::Integrated];
        let pts = sweep(&[2], &[rat(1, 2)], &algos, 1);
        let table = render_table(&pts, &algos);
        assert!(table.contains("n = 2"));
        let out = HarnessOutput::new("smoke", table, sweep_series(&pts, &algos), true)
            .with_file("smoke.csv".to_string(), sweep_csv(&pts, &algos));
        let dir = dnc_service::fs::ScratchDir::new("bench-csv");
        let written = out.write(&dir).unwrap();
        assert_eq!(
            written,
            [dir.join("smoke.csv"), dir.join("metrics-smoke.json")]
        );
        let content = std::fs::read_to_string(&written[0]).unwrap();
        assert!(content.starts_with("n,u,bound_decomposed,bound_integrated,rel_improvement"));
        assert_eq!(content.lines().count(), 2);
    }
}
