//! The `dnc-bench/v1` record format and its equality gate. This module
//! is the format's only writer ([`record_line`]) and only reader
//! ([`parse_trajectory`]).
//!
//! `dnc bench` appends one record per run to each of the repo-root
//! files `BENCH_throughput.json` and `BENCH_churn.json`. The files are
//! JSON Lines — one self-contained record object per line — because
//! append-only is the whole contract: a run never rewrites history, a
//! truncated tail line (crash mid-append) fails the parse with its line
//! number, and `git diff` shows exactly one added line per run.
//!
//! A record carries the run identity (timestamp, git SHA, toolchain),
//! the knob settings that produced it, and two flat maps of exact
//! values: `metrics` (bounds and harness counts) and `counters`
//! (telemetry work counters). The identity fields flow in through
//! [`Stamp`], never from ad-hoc clock reads at the emit site:
//! [`resolve_stamp`] is the single wall-clock read, and tests inject a
//! fixed `Stamp` through `BenchOptions::stamp` instead, so the
//! `det-wall-clock` deepcheck lint has a single site to reason about.
//!
//! The gate is equality: a new record must carry exactly the metrics
//! and counters of its [`pinned_record`], the latest earlier record of
//! the same knobs; [`record_diff`] names every key that differs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use dnc_telemetry::export::escape_json;
use dnc_telemetry::json::{self, Value};

/// Schema identifier of the records in the repo-root `BENCH_*.json`
/// files that `dnc bench` appends.
pub const BENCH_SCHEMA: &str = "dnc-bench/v1";

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

/// Resolve the ambient run stamp: the wall clock, `git rev-parse`, and
/// `rustc --version`. This is the one sanctioned wall-clock read of the
/// bench recorder — every timestamp in a record derives from the
/// `Stamp` it returns.
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
/// measurement (the `dnc profile`, `throughput` and `socket` reports
/// print it), not state a deterministic replay must reproduce. No bench
/// record carries it — see DESIGN §15.2.
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
    /// Knob settings as strings (seed, harness configs, telemetry).
    pub knobs: BTreeMap<String, String>,
    /// Exact per-stage values (bounds, counts), flat `stage.qualifier` names.
    pub metrics: BTreeMap<String, f64>,
    /// Telemetry counters and span counts, `stage/` namespaced.
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

    /// Record an exact count under `metrics`.
    pub fn count(&mut self, key: impl Into<String>, n: u64) {
        self.metrics.insert(key.into(), n as f64);
    }

    /// Record a bound under `metrics`, as its nearest `f64`.
    pub fn bound(&mut self, key: impl Into<String>, bound: dnc_num::Rat) {
        self.metrics.insert(key.into(), bound.to_f64());
    }
}

/// JSON for one metric value: integers render without a fraction,
/// others as the shortest decimal that parses back to the same `f64`,
/// and non-finite values (which no harness should produce) clamp to 0
/// so the record always parses.
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
    let _ = write!(s, "{{\"schema\": \"{BENCH_SCHEMA}\"");
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
            Some(s) if s == BENCH_SCHEMA => {}
            Some(s) => return Err(at(format!("schema is `{s}`, expected `{BENCH_SCHEMA}`"))),
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

/// The pinned record of a trajectory: the latest record before the last
/// one whose knobs equal the last one's. `None` when the last record's
/// configuration was never recorded before.
pub fn pinned_record(records: &[BenchRecord]) -> Option<&BenchRecord> {
    let (latest, prior) = records.split_last()?;
    prior.iter().rev().find(|r| r.knobs == latest.knobs)
}

/// One line per key of `metrics` or `counters` whose value differs
/// between `pinned` and `latest`: the key, the pinned value and the new
/// one (`absent` when a side lacks the key). Values compare as the
/// record prints them, so "equal" means "the same text in the file".
/// Stamp fields are not compared. Empty when the records agree.
pub fn record_diff(pinned: &BenchRecord, latest: &BenchRecord) -> Vec<String> {
    fn diff<V>(
        lines: &mut Vec<String>,
        old: &BTreeMap<String, V>,
        new: &BTreeMap<String, V>,
        show: impl Fn(&V) -> String,
    ) {
        let keys: std::collections::BTreeSet<&String> = old.keys().chain(new.keys()).collect();
        for key in keys {
            let text = |map: &BTreeMap<String, V>| map.get(key).map_or("absent".to_string(), &show);
            let (was, now) = (text(old), text(new));
            if was != now {
                lines.push(format!("{key}: pinned {was}, new {now}"));
            }
        }
    }
    let mut lines = Vec::new();
    diff(&mut lines, &pinned.metrics, &latest.metrics, |v| {
        metric_number(*v)
    });
    diff(
        &mut lines,
        &pinned.counters,
        &latest.counters,
        u64::to_string,
    );
    lines
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
    fn ambient_stamp_is_complete() {
        let ambient = resolve_stamp();
        assert!(ambient.timestamp.ends_with('Z'), "{ambient:?}");
        assert!(!ambient.git_sha.is_empty() && !ambient.toolchain.is_empty());
    }

    #[test]
    fn record_round_trips_and_validates() {
        let rec = record(&[("chaos.scenarios", 4.0), ("x.bound", 1200.5)]);
        let line = record_line(&rec);
        let parsed = parse_trajectory(&line).unwrap();
        assert_eq!(parsed, vec![rec.clone()]);
        // byte-identical re-serialization: deterministic replay contract
        assert_eq!(record_line(&parsed[0]), line);
    }

    #[test]
    fn bound_survives_the_record_bit_for_bit() {
        // The worst Integrated and FIFO-family bounds of `dnc tandem 6
        // 3/5`, and values whose shortest decimal needs 17 digits.
        let bounds = [
            dnc_num::Rat::new(876_101, 34_300).to_f64(),
            dnc_num::Rat::new(23_186_143, 935_000).to_f64(),
            dnc_num::Rat::new(1, 3).to_f64(),
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            9.0e15 + 2.0,
        ];
        for b in bounds {
            let line = record_line(&record(&[("profile.integrated.bound", b)]));
            let parsed = parse_trajectory(&line).unwrap();
            let back = parsed[0].metrics["profile.integrated.bound"];
            assert_eq!(back.to_bits(), b.to_bits(), "{b} came back as {back}");
        }
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
        assert_eq!(load_trajectory(&path).unwrap().len(), 2);
        drop(dir);
        assert_eq!(load_trajectory(&path).unwrap().len(), 0, "missing = empty");
    }

    #[test]
    fn bench_record_round_trips() {
        // A hand-written record: key order and spacing unlike `record_line`.
        let rec = concat!(
            r#"{"counters": {"curve.conv": 42}, "metrics": {"x.bound": 25.5}, "#,
            r#""knobs": {"seed": "1", "telemetry": "off"}, "toolchain": "rustc 1.75.0", "#,
            r#""git_sha": "abc1234", "timestamp": "2026-08-08T00:00:00Z", "#,
            r#""schema": "dnc-bench/v1"}"#,
        );
        let parsed = parse_trajectory(rec).unwrap();
        assert_eq!(parsed.len(), 1);
        let r = &parsed[0];
        assert_eq!(r.timestamp, "2026-08-08T00:00:00Z");
        assert_eq!(r.git_sha, "abc1234");
        assert_eq!(r.toolchain, "rustc 1.75.0");
        assert_eq!(r.knobs["telemetry"], "off");
        assert_eq!(r.metrics["x.bound"], 25.5);
        assert_eq!(r.counters["curve.conv"], 42);
        let trajectory = format!("{rec}\n\n{}\n", record_line(r));
        assert_eq!(
            parse_trajectory(&trajectory).unwrap(),
            [r.clone(), r.clone()]
        );
    }

    #[test]
    fn parse_rejects_malformed_lines_by_number() {
        let good = record_line(&record(&[("m", 1.0)]));
        let line2 = |bad: &str| parse_trajectory(&format!("{good}\n{bad}\n")).unwrap_err();
        let err = line2("{\"schema\": \"nope\"}");
        assert!(err.starts_with("line 2"), "{err}");
        let torn = &good[..good.len() / 2];
        assert!(line2(torn).starts_with("line 2"));
    }

    #[test]
    fn parse_rejects_wrong_schema_and_shapes() {
        let good = record_line(&record(&[("m", 1.0)]));
        let line2 = |bad: &str| parse_trajectory(&format!("{good}\n{bad}\n")).unwrap_err();
        let err = line2("{\"schema\": 1}");
        assert!(err.starts_with("line 2") && err.contains("schema"), "{err}");
        let wrong_tag = good.replace(BENCH_SCHEMA, "dnc-bench/v0");
        let err = line2(&wrong_tag);
        assert!(
            err.starts_with("line 2") && err.contains("dnc-bench/v0"),
            "{err}"
        );
        let text_metric = good.replace("\"m\": 1", "\"m\": \"oops\"");
        let err = line2(&text_metric);
        assert!(
            err.starts_with("line 2") && err.contains("metrics.m"),
            "{err}"
        );
        let number_knob = good.replace("\"seed\": \"1\"", "\"seed\": 1");
        let err = line2(&number_knob);
        assert!(
            err.starts_with("line 2") && err.contains("knobs.seed"),
            "{err}"
        );
    }

    #[test]
    fn pinned_record_is_the_latest_earlier_one_with_equal_knobs() {
        let mut other = record(&[("m", 9.0)]);
        other
            .knobs
            .insert("telemetry".to_string(), "on".to_string());
        let records = [record(&[("m", 1.0)]), record(&[("m", 2.0)]), other];
        assert_eq!(pinned_record(&records[..1]), None, "nothing before it");
        assert_eq!(pinned_record(&records[..2]), Some(&records[0]));
        assert_eq!(
            pinned_record(&records),
            None,
            "no earlier record has its knobs"
        );
        let again = [records[0].clone(), records[2].clone(), records[1].clone()];
        assert_eq!(pinned_record(&again), Some(&records[0]));
    }

    #[test]
    fn diff_names_every_changed_or_missing_key() {
        let pinned = record(&[("a.bound", 10.5), ("b.count", 3.0)]);
        assert!(record_diff(&pinned, &pinned).is_empty());
        let mut new = record(&[("a.bound", 10.25), ("c.count", 1.0)]);
        new.counters.insert("curve.conv".to_string(), 8);
        new.timestamp = "2026-10-19T00:00:00Z".to_string();
        assert_eq!(
            record_diff(&pinned, &new),
            [
                "a.bound: pinned 10.5, new 10.25",
                "b.count: pinned 3, new absent",
                "c.count: pinned absent, new 1",
                "curve.conv: pinned 7, new 8",
            ]
        );
    }
}
