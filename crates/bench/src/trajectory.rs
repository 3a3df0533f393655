//! The `dnc-bench/v1` perf-trajectory layer.
//!
//! `dnc bench` appends one record per run to
//! the repo-root trajectory files `BENCH_throughput.json` and
//! `BENCH_churn.json`. The files are JSON Lines — one self-contained
//! record object per line — because append-only is the whole contract:
//! a run never rewrites history, a truncated tail line (crash mid-append)
//! is detected by the validator without poisoning earlier records, and
//! `git diff` shows exactly one added line per run.
//!
//! A record carries the run identity (timestamp, git SHA, toolchain),
//! the knob settings that produced it, and two flat maps: `metrics`
//! (per-harness measurements) and `counters` (telemetry totals). The
//! identity fields flow in through [`Stamp`], never from ad-hoc clock
//! reads at the emit site: [`resolve_stamp`] is the single wall-clock
//! read, and callers that need byte-identical records (tests, replays)
//! inject a fixed `Stamp` through `BenchOptions::stamp` instead, so
//! the `det-wall-clock` deepcheck lint has a single site to reason
//! about.
//!
//! On top of the parsed trajectory sits the regression gate: for every
//! metric of the latest record it takes the median of up to the last K
//! prior samples as the baseline, allows a configurable percentage band
//! around it, and classifies the metric by name into lower-is-better,
//! higher-is-better, or informational (see [`metric_direction`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use dnc_telemetry::export::escape_json;
use dnc_telemetry::json::{self, Value};
use dnc_telemetry::schema;

/// Run identity written into every record: the injected clock source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stamp {
    /// UTC timestamp, `YYYY-MM-DDTHH:MM:SSZ`.
    pub timestamp: String,
    /// Short git commit SHA (or `unknown` outside a checkout).
    pub git_sha: String,
    /// `rustc --version` line (or `unknown`).
    pub toolchain: String,
}

impl Stamp {
    /// Directory-name-safe `<sha>-<ts>` slug for archiving a run's raw
    /// metrics under `results/runs/`.
    pub fn run_slug(&self) -> String {
        let mut slug = String::new();
        for c in self
            .git_sha
            .chars()
            .chain("-".chars())
            .chain(self.timestamp.chars())
        {
            if c.is_ascii_alphanumeric() || c == '-' {
                slug.push(c);
            } else {
                slug.push('-');
            }
        }
        slug
    }
}

/// Resolve the ambient run stamp: the wall clock, `git rev-parse`, and
/// `rustc --version`. This is the one sanctioned wall-clock read of the
/// bench recorder — every timestamp in a record or archive path derives
/// from the `Stamp` it returns.
pub fn resolve_stamp() -> Stamp {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let first_line_of = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    Stamp {
        timestamp: format_utc(secs),
        git_sha: first_line_of("git", &["rev-parse", "--short=12", "HEAD"]),
        toolchain: first_line_of("rustc", &["--version"]),
    }
}

/// Run `f` and return its result plus elapsed wall-clock microseconds.
/// The harnesses' single sanctioned stopwatch: here wall time *is* the
/// measurement (it lands in the trajectory as `*.wall_us`), not state
/// a deterministic replay must reproduce — see DESIGN §15.2.
pub fn time_micros<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = std::time::Instant::now();
    let out = f();
    let elapsed = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    (out, elapsed)
}

/// Render seconds-since-epoch as `YYYY-MM-DDTHH:MM:SSZ` (proleptic
/// Gregorian, civil-from-days per Hinnant's algorithm — no locale, no
/// libc).
pub fn format_utc(secs_since_epoch: u64) -> String {
    let secs = secs_since_epoch;
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);

    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mth = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mth <= 2 { y + 1 } else { y };
    format!("{y:04}-{mth:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

/// One `dnc-bench/v1` trajectory record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchRecord {
    /// UTC timestamp of the run.
    pub timestamp: String,
    /// Git SHA the run was built from.
    pub git_sha: String,
    /// Toolchain version line.
    pub toolchain: String,
    /// Knob settings as strings (seed, quick, harness configs).
    pub knobs: BTreeMap<String, String>,
    /// Per-harness measurements, flat `harness.qualifier` names.
    pub metrics: BTreeMap<String, f64>,
    /// Telemetry counter/span totals captured around the harnesses.
    pub counters: BTreeMap<String, u64>,
}

impl BenchRecord {
    /// A record carrying the given stamp and no measurements yet.
    pub fn stamped(stamp: &Stamp) -> BenchRecord {
        BenchRecord {
            timestamp: stamp.timestamp.clone(),
            git_sha: stamp.git_sha.clone(),
            toolchain: stamp.toolchain.clone(),
            ..BenchRecord::default()
        }
    }
}

/// JSON for one metric value: integers render without a fraction,
/// non-finite values (which no harness should produce) clamp to 0 so
/// the record always validates.
fn metric_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Serialize a record as one JSON line (no trailing newline). Key order
/// is fixed; map entries are BTreeMap-ordered, so equal records always
/// produce byte-identical lines.
pub fn record_line(record: &BenchRecord) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"schema\": \"{}\"", schema::BENCH_SCHEMA);
    for (key, value) in [
        ("timestamp", &record.timestamp),
        ("git_sha", &record.git_sha),
        ("toolchain", &record.toolchain),
    ] {
        let _ = write!(s, ", \"{key}\": \"{}\"", escape_json(value));
    }
    let _ = write!(s, ", \"knobs\": {{");
    for (i, (k, v)) in record.knobs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": \"{}\"", escape_json(k), escape_json(v));
    }
    let _ = write!(s, "}}, \"metrics\": {{");
    for (i, (k, v)) in record.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {}", escape_json(k), metric_number(*v));
    }
    let _ = write!(s, "}}, \"counters\": {{");
    for (i, (k, v)) in record.counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {v}", escape_json(k));
    }
    s.push_str("}}");
    s
}

fn string_field(obj: &Value, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(format!("missing string field `{key}`"))
}

/// Parse a trajectory file (JSON Lines) into records, oldest first.
/// Blank lines are skipped; any malformed line is an error naming its
/// line number.
pub fn parse_trajectory(input: &str) -> Result<Vec<BenchRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        let doc = json::parse(line).map_err(|e| at(e.to_string()))?;
        match doc.get("schema").and_then(Value::as_str) {
            Some(s) if s == schema::BENCH_SCHEMA => {}
            Some(s) => {
                return Err(at(format!(
                    "schema is `{s}`, expected `{}`",
                    schema::BENCH_SCHEMA
                )))
            }
            None => return Err(at("missing string field `schema`".to_string())),
        }
        let mut record = BenchRecord {
            timestamp: string_field(&doc, "timestamp").map_err(&at)?,
            git_sha: string_field(&doc, "git_sha").map_err(&at)?,
            toolchain: string_field(&doc, "toolchain").map_err(&at)?,
            ..BenchRecord::default()
        };
        let knobs = doc
            .get("knobs")
            .and_then(Value::as_object)
            .ok_or_else(|| at("missing object field `knobs`".to_string()))?;
        for (k, v) in knobs {
            let s = v
                .as_str()
                .ok_or_else(|| at(format!("knobs.{k} must be a string")))?;
            record.knobs.insert(k.clone(), s.to_string());
        }
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| at("missing object field `metrics`".to_string()))?;
        for (k, v) in metrics {
            let n = v
                .as_number()
                .ok_or_else(|| at(format!("metrics.{k} must be a number")))?;
            record.metrics.insert(k.clone(), n);
        }
        let counters = doc
            .get("counters")
            .and_then(Value::as_object)
            .ok_or_else(|| at("missing object field `counters`".to_string()))?;
        for (k, v) in counters {
            let n = v
                .as_number()
                .ok_or_else(|| at(format!("counters.{k} must be a number")))?;
            record.counters.insert(k.clone(), n.max(0.0) as u64);
        }
        records.push(record);
    }
    Ok(records)
}

/// Append one record to a trajectory file as a single line, creating
/// the file (and parent directory) on first use. Never rewrites
/// existing content — the append-only invariant of the trajectory.
pub fn append_record(path: &Path, record: &BenchRecord) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)?;
    writeln!(f, "{}", record_line(record))
}

/// Read and parse a trajectory file; a missing file is an empty
/// trajectory, any other error is reported as a string.
pub fn load_trajectory(path: &Path) -> Result<Vec<BenchRecord>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_trajectory(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Regression-gate knobs.
#[derive(Clone, Copy, Debug)]
pub struct GateConfig {
    /// How many prior records the baseline median is taken over.
    pub window: usize,
    /// Noise band around the baseline, in percent.
    pub threshold_pct: u32,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            window: 5,
            threshold_pct: 25,
        }
    }
}

/// Which way a metric is allowed to drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Growth past the band is a regression (wall times, violations).
    LowerIsBetter,
    /// Shrinkage past the band is a regression (rates, speedups).
    HigherIsBetter,
    /// Tracked but never gated (commit counts, scenario totals).
    Informational,
}

/// Classify a metric by name. The table is deliberately substring-based
/// so new harness metrics inherit a sensible direction from their
/// naming convention without touching the gate.
pub fn metric_direction(name: &str) -> Direction {
    const LOWER: &[&str] = &["wall_us", "violations", "mismatches", "failures"];
    const HIGHER: &[&str] = &["admissions_per_sec", "speedup", "hit_rate"];
    if LOWER.iter().any(|p| name.contains(p)) {
        Direction::LowerIsBetter
    } else if HIGHER.iter().any(|p| name.contains(p)) {
        Direction::HigherIsBetter
    } else {
        Direction::Informational
    }
}

/// One metric's gate verdict.
#[derive(Clone, Debug)]
pub struct MetricVerdict {
    /// Metric name.
    pub metric: String,
    /// Median of the prior window.
    pub baseline: f64,
    /// The latest record's value.
    pub latest: f64,
    /// Signed drift from the baseline, in percent (0 when the baseline
    /// is 0).
    pub delta_pct: f64,
    /// Gating direction the metric was classified into.
    pub direction: Direction,
    /// True when the drift left the noise band against the direction.
    pub regressed: bool,
}

/// The gate's result over one trajectory.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// Prior records the baseline could draw on (0 = nothing to gate).
    pub priors: usize,
    /// Band width used, in percent.
    pub threshold_pct: u32,
    /// One verdict per latest-record metric with at least one prior
    /// sample.
    pub verdicts: Vec<MetricVerdict>,
}

impl GateReport {
    /// Verdicts that tripped the gate.
    pub fn regressions(&self) -> Vec<&MetricVerdict> {
        self.verdicts.iter().filter(|v| v.regressed).collect()
    }

    /// True when any gated metric left its band.
    pub fn regressed(&self) -> bool {
        self.verdicts.iter().any(|v| v.regressed)
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Absolute slack added to every band so a 0-valued baseline still
/// gates cleanly: `violations` at 0 regresses on the first real hit,
/// not on floating-point dust.
const ABS_SLACK: f64 = 1e-9;

/// Gate the latest record of a trajectory against the median of up to
/// `cfg.window` prior records. With no prior records (first run ever)
/// nothing is gated.
pub fn evaluate_gate(records: &[BenchRecord], cfg: &GateConfig) -> GateReport {
    let Some((latest, prior)) = records.split_last() else {
        return GateReport {
            threshold_pct: cfg.threshold_pct,
            ..GateReport::default()
        };
    };
    let window = &prior[prior.len().saturating_sub(cfg.window)..];
    let mut verdicts = Vec::new();
    for (name, &value) in &latest.metrics {
        let mut history: Vec<f64> = window
            .iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect();
        if history.is_empty() {
            continue; // new metric: nothing to compare against yet
        }
        let baseline = median(&mut history);
        let band = baseline.abs() * f64::from(cfg.threshold_pct) / 100.0 + ABS_SLACK;
        let delta = value - baseline;
        let direction = metric_direction(name);
        let regressed = match direction {
            Direction::LowerIsBetter => delta > band,
            Direction::HigherIsBetter => -delta > band,
            Direction::Informational => false,
        };
        let delta_pct = if baseline.abs() > ABS_SLACK {
            delta / baseline * 100.0
        } else {
            0.0
        };
        verdicts.push(MetricVerdict {
            metric: name.clone(),
            baseline,
            latest: value,
            delta_pct,
            direction,
            regressed,
        });
    }
    GateReport {
        priors: window.len(),
        threshold_pct: cfg.threshold_pct,
        verdicts,
    }
}

fn gate_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Render a gate report as a fixed-width diff table.
pub fn render_gate_table(name: &str, report: &GateReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "gate[{name}]: band ±{}% around median of last {} prior run(s)",
        report.threshold_pct, report.priors
    );
    if report.priors == 0 {
        let _ = writeln!(s, "  no prior records — nothing gated");
        return s;
    }
    let _ = writeln!(
        s,
        "  {:<46} {:>14} {:>14} {:>9}  status",
        "metric", "baseline", "latest", "delta"
    );
    for v in &report.verdicts {
        let status = if v.regressed {
            "REGRESSED"
        } else if v.direction == Direction::Informational {
            "info"
        } else {
            "ok"
        };
        let _ = writeln!(
            s,
            "  {:<46} {:>14} {:>14} {:>+8.1}%  {}",
            v.metric,
            gate_number(v.baseline),
            gate_number(v.latest),
            v.delta_pct,
            status
        );
    }
    let regressions = report.regressions();
    if regressions.is_empty() {
        let _ = writeln!(s, "  all gated metrics within band");
    } else {
        let _ = writeln!(
            s,
            "  REGRESSED: {} metric(s) out of band",
            regressions.len()
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(metrics: &[(&str, f64)]) -> BenchRecord {
        BenchRecord {
            timestamp: "2026-08-08T00:00:00Z".to_string(),
            git_sha: "abc123".to_string(),
            toolchain: "rustc test".to_string(),
            knobs: BTreeMap::from([("seed".to_string(), "1".to_string())]),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            counters: BTreeMap::from([("curve.conv".to_string(), 7u64)]),
        }
    }

    #[test]
    fn utc_formatting_matches_known_instants() {
        assert_eq!(format_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(format_utc(86_399), "1970-01-01T23:59:59Z");
        // leap-year day: 2024-02-29
        assert_eq!(format_utc(1_709_164_800), "2024-02-29T00:00:00Z");
        assert_eq!(format_utc(1_754_611_200), "2025-08-08T00:00:00Z");
    }

    #[test]
    fn stamp_slug_is_directory_safe() {
        let stamp = Stamp {
            timestamp: "2001-01-01T00:00:00Z".to_string(),
            git_sha: "feedface".to_string(),
            toolchain: "rustc 0.0-test".to_string(),
        };
        assert_eq!(stamp.run_slug(), "feedface-2001-01-01T00-00-00Z");
        let ambient = resolve_stamp();
        assert!(ambient.timestamp.ends_with('Z'), "{ambient:?}");
        assert!(!ambient.git_sha.is_empty() && !ambient.toolchain.is_empty());
    }

    #[test]
    fn record_round_trips_and_validates() {
        let rec = record(&[("throughput.speedup", 1.75), ("x.wall_us", 1200.0)]);
        let line = record_line(&rec);
        dnc_telemetry::schema::validate_bench_record(&line).unwrap();
        let parsed = parse_trajectory(&line).unwrap();
        assert_eq!(parsed, vec![rec.clone()]);
        // byte-identical re-serialization: deterministic replay contract
        assert_eq!(record_line(&parsed[0]), line);
    }

    #[test]
    fn append_grows_one_line_per_run() {
        let dir = dnc_service::fs::ScratchDir::new("trajectory");
        let path = dir.join("BENCH_test.json");
        let rec = record(&[("m", 1.0)]);
        append_record(&path, &rec).unwrap();
        append_record(&path, &rec).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        dnc_telemetry::schema::validate_bench(&text).unwrap();
        assert_eq!(load_trajectory(&path).unwrap().len(), 2);
        drop(dir);
        assert_eq!(load_trajectory(&path).unwrap().len(), 0, "missing = empty");
    }

    #[test]
    fn parse_rejects_malformed_lines_by_number() {
        let good = record_line(&record(&[("m", 1.0)]));
        let err = parse_trajectory(&format!("{good}\n{{\"schema\": \"nope\"}}\n")).unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
    }

    #[test]
    fn gate_flat_trajectory_is_quiet() {
        let recs: Vec<BenchRecord> = (0..6).map(|_| record(&[("a.wall_us", 100.0)])).collect();
        let report = evaluate_gate(&recs, &GateConfig::default());
        assert_eq!(report.priors, 5);
        assert!(!report.regressed(), "{:?}", report.verdicts);
    }

    #[test]
    fn gate_tolerates_in_band_noise() {
        let mut recs: Vec<BenchRecord> = [100.0, 110.0, 92.0, 105.0, 97.0]
            .iter()
            .map(|&v| record(&[("a.wall_us", v)]))
            .collect();
        recs.push(record(&[("a.wall_us", 118.0)])); // +18% of median 100
        let report = evaluate_gate(&recs, &GateConfig::default());
        assert!(!report.regressed(), "{:?}", report.verdicts);
    }

    #[test]
    fn gate_flags_genuine_regressions_both_directions() {
        let mut recs: Vec<BenchRecord> = (0..4)
            .map(|_| record(&[("a.wall_us", 100.0), ("b.admissions_per_sec", 1000.0)]))
            .collect();
        recs.push(record(&[
            ("a.wall_us", 210.0),
            ("b.admissions_per_sec", 400.0),
        ]));
        let report = evaluate_gate(&recs, &GateConfig::default());
        let regressed: Vec<&str> = report
            .regressions()
            .iter()
            .map(|v| v.metric.as_str())
            .collect();
        assert_eq!(regressed, ["a.wall_us", "b.admissions_per_sec"]);
        let table = render_gate_table("throughput", &report);
        assert!(table.contains("REGRESSED: 2 metric(s)"), "{table}");
    }

    #[test]
    fn gate_zero_baseline_counts_trip_on_first_hit() {
        let mut recs: Vec<BenchRecord> = (0..3).map(|_| record(&[("violations", 0.0)])).collect();
        recs.push(record(&[("violations", 1.0)]));
        let report = evaluate_gate(&recs, &GateConfig::default());
        assert!(report.regressed());
    }

    #[test]
    fn gate_first_run_and_informational_never_trip() {
        let report = evaluate_gate(&[record(&[("a.wall_us", 9e9)])], &GateConfig::default());
        assert_eq!(report.priors, 0);
        assert!(!report.regressed());
        let recs = vec![record(&[("commits", 100.0)]), record(&[("commits", 1.0)])];
        let report = evaluate_gate(&recs, &GateConfig::default());
        assert!(!report.regressed(), "informational metrics never gate");
        assert_eq!(report.verdicts.len(), 1);
        assert_eq!(report.verdicts[0].direction, Direction::Informational);
    }

    #[test]
    fn direction_table_covers_harness_metrics() {
        assert_eq!(
            metric_direction("throughput.incremental.wall_us"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            metric_direction("throughput.speedup"),
            Direction::HigherIsBetter
        );
        assert_eq!(metric_direction("churn.commits"), Direction::Informational);
    }
}
