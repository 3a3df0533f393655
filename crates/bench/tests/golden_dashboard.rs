//! Golden-file test pinning the static dashboard output.
//!
//! The trajectory records are hand-built (no real timings, no clock
//! reads), so `render_dashboard` is byte-deterministic. If this test
//! fails because the page layout changed on purpose, regenerate the
//! fixtures by running with `UPDATE_GOLDEN=1` and review the diff —
//! the dashboard is a published artifact (CI uploads it), so drift
//! should be deliberate.

use dnc_bench::dashboard::{render_dashboard, Panel};
use dnc_bench::trajectory::{evaluate_gate, BenchRecord, GateConfig};
use dnc_service::fs::ScratchDir;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn record(sha: &str, wall_us: f64, admissions: f64) -> BenchRecord {
    BenchRecord {
        timestamp: "2026-08-08T00:00:00Z".to_string(),
        git_sha: sha.to_string(),
        toolchain: "rustc 1.0.0-golden".to_string(),
        knobs: BTreeMap::from([
            ("profile".to_string(), "quick".to_string()),
            ("seed".to_string(), "42".to_string()),
        ]),
        metrics: BTreeMap::from([
            ("throughput.incremental.wall_us".to_string(), wall_us),
            (
                "throughput.incremental.admissions_per_sec".to_string(),
                admissions,
            ),
            ("throughput.mismatches".to_string(), 0.0),
        ]),
        counters: BTreeMap::from([("core.local_delay.calls".to_string(), 8)]),
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_against_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    assert_eq!(
        rendered, want,
        "{name} drifted from the checked-in fixture; if intentional, \
         rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn dashboard_matches_golden() {
    // Three runs: two flat, then wall time triples and throughput
    // craters — both directions of the gate trip, so the fixture pins
    // the regression banner, the REGRESSED table rows, and the charts.
    let records = vec![
        record("aaaaaaaaaaaa", 100.0, 5000.0),
        record("bbbbbbbbbbbb", 104.0, 4900.0),
        record("cccccccccccc", 300.0, 1200.0),
    ];
    let gate = evaluate_gate(&records, &GateConfig::default());
    assert!(
        gate.regressed(),
        "fixture must exercise the regression path"
    );

    let dir = ScratchDir::new("golden-dash");
    let index = render_dashboard(
        &dir,
        &[Panel {
            name: "throughput",
            records: &records,
            gate: &gate,
        }],
    )
    .expect("render dashboard");

    let html = std::fs::read_to_string(&index).expect("read index.html");
    check_against_golden("dashboard-index.html", &html);

    let svg = std::fs::read_to_string(dir.join("throughput-throughput-incremental-wall-us.svg"))
        .expect("per-metric svg written next to index.html");
    check_against_golden("dashboard-wall-us.svg", &svg);
}

#[test]
fn empty_dashboard_is_still_valid_html() {
    let gate = evaluate_gate(&[], &GateConfig::default());
    let dir = ScratchDir::new("golden-dash-empty");
    let index = render_dashboard(
        &dir,
        &[Panel {
            name: "churn",
            records: &[],
            gate: &gate,
        }],
    )
    .expect("render empty dashboard");
    let html = std::fs::read_to_string(&index).expect("read index.html");
    assert!(
        html.contains("banner ok"),
        "no records means no regressions"
    );
    assert!(html.contains("no records yet"));
}
