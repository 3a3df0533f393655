//! End-to-end tests of `dnc bench` and its equality gate.
//!
//! Every run is a fresh `dnc` process. Memos and telemetry are
//! process-global: a second run inside one process sees warm memos (and,
//! in a telemetry build, other tests' counters), so only a fresh process
//! reproduces a pinned record's counters.

use dnc_bench::exit;
use dnc_bench::trajectory::{load_trajectory, record_line};
use dnc_service::fs::ScratchDir;
use std::path::Path;
use std::process::{Command, Output};

/// Run `dnc bench --bench-dir <dir> [--gate]` in a fresh process.
fn bench(dir: &Path, gate: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dnc"));
    cmd.arg("bench").arg("--bench-dir").arg(dir);
    if gate {
        cmd.arg("--gate");
    }
    cmd.output().expect("dnc starts")
}

/// Everything the run printed, stdout then stderr.
fn report(out: &Output) -> String {
    let mut s = String::from_utf8_lossy(&out.stdout).into_owned();
    s.push_str(&String::from_utf8_lossy(&out.stderr));
    s
}

fn lines(dir: &Path, file: &str) -> usize {
    std::fs::read_to_string(dir.join(file))
        .unwrap()
        .lines()
        .count()
}

/// A counter every telemetry build records; absent without telemetry.
const COUNTER: &str = "profile/integrated/core.pair_bound.calls";

/// Pin one run's records, then change one metric value and one counter
/// value of the pinned throughput record.
fn tampered_pin(tag: &str) -> ScratchDir {
    let dir = ScratchDir::new(tag);
    let first = bench(&dir, false);
    assert_eq!(first.status.code(), Some(exit::OK), "{}", report(&first));
    let path = dir.join("BENCH_throughput.json");
    let mut records = load_trajectory(&path).unwrap();
    let pinned = &mut records[0];
    *pinned.metrics.get_mut("throughput.commits").unwrap() += 1.0;
    *pinned.counters.entry(COUNTER.to_string()).or_insert(0) += 1;
    std::fs::write(&path, format!("{}\n", record_line(pinned))).unwrap();
    dir
}

#[test]
fn bench_then_gate_passes() {
    let dir = ScratchDir::new("bench-cli-pin");
    let first = bench(&dir, false);
    assert_eq!(first.status.code(), Some(exit::OK), "{}", report(&first));
    assert!(report(&first).contains("no pinned record"));
    // Only the profile's service-curve and FIFO-family work interns
    // curves: every FIFO certification takes the one-pass deviation.
    let tp = &load_trajectory(&dir.join("BENCH_throughput.json")).unwrap()[0];
    let churn = &load_trajectory(&dir.join("BENCH_churn.json")).unwrap()[0];
    assert!(tp.metrics["profile.intern_added"] > 0.0);
    for (record, stage) in [(tp, "throughput"), (churn, "chaos"), (churn, "churn")] {
        let added = record.metrics[&format!("{stage}.intern_added")];
        assert_eq!(added, 0.0, "{stage} interned {added} curves");
    }
    let gated = bench(&dir, true);
    assert_eq!(gated.status.code(), Some(exit::OK), "{}", report(&gated));
    assert_eq!(
        report(&gated).matches(": equals the pinned record").count(),
        2
    );
    for file in ["BENCH_throughput.json", "BENCH_churn.json"] {
        assert_eq!(lines(&dir, file), 2, "{file}: one appended line per run");
    }
}

#[test]
fn bench_gate_trips_on_synthetic_regression_fixture() {
    let dir = tampered_pin("bench-cli-gate");
    let out = bench(&dir, true);
    assert_eq!(
        out.status.code(),
        Some(exit::REGRESSION),
        "{}",
        report(&out)
    );
    let text = report(&out);
    assert!(text.contains("2 key(s) differ"), "{text}");
    assert!(text.contains("throughput.commits: pinned "), "{text}");
    assert!(text.contains(&format!("{COUNTER}: pinned ")), "{text}");
    assert!(text.contains("gate failed"), "{text}");
    // The record is appended even when the gate fails: the files log
    // what happened, not what passed.
    assert_eq!(lines(&dir, "BENCH_throughput.json"), 2);
}

#[test]
fn bench_without_gate_reports_but_does_not_fail() {
    let dir = tampered_pin("bench-cli-nogate");
    let out = bench(&dir, false);
    assert_eq!(out.status.code(), Some(exit::OK), "{}", report(&out));
    let text = report(&out);
    assert!(text.contains("throughput.commits: pinned "), "{text}");
    assert!(text.contains(&format!("{COUNTER}: pinned ")), "{text}");
}

#[test]
fn gate_without_a_pinned_record_exits_4_with_the_repin_message() {
    let dir = ScratchDir::new("bench-cli-empty");
    let out = bench(&dir, true);
    assert_eq!(
        out.status.code(),
        Some(exit::REGRESSION),
        "{}",
        report(&out)
    );
    let text = report(&out);
    assert_eq!(
        text.matches(": no pinned record with these knobs").count(),
        2
    );
    assert!(
        text.contains("run `dnc bench` and commit the appended lines"),
        "{text}"
    );
}

#[test]
fn a_malformed_line_fails_the_run() {
    let dir = ScratchDir::new("bench-cli-torn");
    std::fs::write(dir.join("BENCH_churn.json"), "{\"schema\": \"dnc-be\n").unwrap();
    let out = bench(&dir, false);
    assert_eq!(out.status.code(), Some(exit::USAGE), "{}", report(&out));
    assert!(report(&out).contains("line 1"), "{}", report(&out));
}
