//! End-to-end test of `dnc bench`: a synthetic regression fixture in
//! the trajectory must trip `--gate` with the dedicated exit code, and
//! every side artifact (appended record, raw-metrics archive,
//! dashboard) must land where the flags say.
//!
//! The fixture seeds `BENCH_throughput.json` with prior runs claiming
//! an absurd `throughput.speedup` (1e12, higher-is-better), so the
//! real quick run is guaranteed to fall below the noise band on any
//! machine — the regression verdict is deterministic even though the
//! measured timings are not.

use dnc_bench::trajectory::{append_record, BenchRecord};
use dnc_cli::commands::{run, EXIT_REGRESSION};
use dnc_service::fs::ScratchDir;
use dnc_telemetry::schema;
use std::collections::BTreeMap;
use std::path::Path;

fn prior(speedup: f64) -> BenchRecord {
    BenchRecord {
        timestamp: "2026-08-07T00:00:00Z".to_string(),
        git_sha: "fixture00000".to_string(),
        toolchain: "rustc fixture".to_string(),
        knobs: BTreeMap::from([("profile".to_string(), "quick".to_string())]),
        metrics: BTreeMap::from([("throughput.speedup".to_string(), speedup)]),
        counters: BTreeMap::new(),
    }
}

/// Run one `dnc` command line, its arguments split on whitespace.
fn dnc(line: &str) -> Result<String, dnc_cli::commands::CliError> {
    run(&line
        .split_whitespace()
        .map(String::from)
        .collect::<Vec<_>>())
}

fn read_lines(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn bench_gate_trips_on_synthetic_regression_fixture() {
    let dir = ScratchDir::new("bench-cli-gate");
    let bench_dir = dir.join("trajectories");
    let traj = bench_dir.join("BENCH_throughput.json");
    append_record(&traj, &prior(1.0e12)).expect("seed prior 1");
    append_record(&traj, &prior(1.0e12)).expect("seed prior 2");

    let out_dir = dir.join("results");
    let dash = dir.join("dashboard");
    let (b, o, d) = (bench_dir.display(), out_dir.display(), dash.display());
    let err = dnc(&format!(
        "bench --quick --gate --bench-dir {b} --out-dir {o} --dashboard {d}"
    ))
    .expect_err("a speedup baseline of 1e12 must trip the gate");
    assert_eq!(err.code, EXIT_REGRESSION, "dedicated gate exit code");
    assert!(
        err.message.contains("regression gate tripped"),
        "message explains the failure:\n{}",
        err.message
    );
    assert!(
        err.message.contains("throughput.speedup"),
        "diff table names the out-of-band metric:\n{}",
        err.message
    );

    // The run still appended its record (the trajectory is the log of
    // what happened, not of what passed) and the file stays schema-valid.
    assert_eq!(read_lines(&traj).len(), 3, "fixture priors + the new run");
    let text = std::fs::read_to_string(&traj).unwrap();
    schema::validate_bench(&text).expect("trajectory stays dnc-bench/v1 after append");
    let churn = std::fs::read_to_string(bench_dir.join("BENCH_churn.json")).unwrap();
    schema::validate_bench(&churn).expect("churn trajectory is dnc-bench/v1");

    // Raw metrics were archived under results/runs/<slug>/ and the
    // dashboard rendered despite the gate verdict.
    let runs: Vec<_> = std::fs::read_dir(out_dir.join("runs"))
        .expect("archive root exists")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(runs.len(), 1, "one archive directory per run");
    for doc in ["throughput", "profile", "chaos", "churn"] {
        let path = runs[0].join(format!("metrics-{doc}.json"));
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("archived {}: {e}", path.display()));
        schema::validate_metrics(&body).expect("archived doc is dnc-metrics/v1");
    }
    let html = std::fs::read_to_string(dash.join("index.html")).expect("dashboard rendered");
    assert!(
        html.contains("banner bad"),
        "dashboard shows the regression"
    );
}

#[test]
fn bench_without_gate_reports_but_does_not_fail() {
    let dir = ScratchDir::new("bench-cli-nogate");
    let bench_dir = dir.join("trajectories");
    append_record(&bench_dir.join("BENCH_throughput.json"), &prior(1.0e12)).expect("seed prior");

    // Same regressing fixture, no --gate: the run reports the verdict
    // in its text but exits clean.
    let (b, o) = (bench_dir.display(), dir.join("results"));
    let out = dnc(&format!(
        "bench --quick --bench-dir {b} --out-dir {}",
        o.display()
    ))
    .expect("without --gate the verdict is advisory");
    assert!(out.contains("REGRESSED"), "verdict still reported:\n{out}");
}
