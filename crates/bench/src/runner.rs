//! One-command bench recorder: run every harness with pinned seeds,
//! archive their raw `dnc-metrics/v1` outputs, and append one
//! `dnc-bench/v1` record per trajectory.
//!
//! `run_bench` is the engine behind `dnc bench`. One invocation:
//!
//! 1. runs throughput + profile inside one telemetry window and
//!    chaos + churn inside a second,
//! 2. archives each harness's raw metrics doc under
//!    `<out_dir>/runs/<sha>-<ts>/` (validated against the
//!    `dnc-metrics/v1` schema) so repeated runs stop silently
//!    overwriting `results/metrics-*.json`,
//! 3. appends a throughput-family record to `BENCH_throughput.json`
//!    and a churn-family record to `BENCH_churn.json`,
//! 4. gates the grown trajectories and, on request, renders the static
//!    dashboard.
//!
//! The runner never decides exit codes — it reports soundness failures
//! and gate verdicts, and the callers map those onto
//! [`crate::exit::VIOLATION`] / [`crate::exit::REGRESSION`].

use crate::dashboard::{render_dashboard, Panel};
use crate::trajectory::{
    append_record, evaluate_gate, load_trajectory, render_gate_table, resolve_stamp, BenchRecord,
    GateConfig, GateReport, Stamp,
};
use crate::{chaos, churn, profile, socket, throughput, write_metrics_doc};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Knobs of one recorded bench run.
#[derive(Clone, Debug)]
pub struct BenchOptions {
    /// Shrunk harness configs for CI and smoke runs.
    pub quick: bool,
    /// Master seed handed to every harness.
    pub seed: u64,
    /// Root for raw-metrics archives (`<out_dir>/runs/<slug>/`).
    pub out_dir: PathBuf,
    /// Directory holding the `BENCH_*.json` trajectories (repo root).
    pub bench_dir: PathBuf,
    /// Gate window/threshold used for the verdicts.
    pub gate: GateConfig,
    /// Render the static dashboard into this directory.
    pub dashboard: Option<PathBuf>,
    /// Injected run identity; `None` resolves the ambient stamp.
    pub stamp: Option<Stamp>,
}

impl Default for BenchOptions {
    fn default() -> BenchOptions {
        BenchOptions {
            quick: false,
            seed: 1,
            out_dir: PathBuf::from("results"),
            bench_dir: PathBuf::from("."),
            gate: GateConfig::default(),
            dashboard: None,
            stamp: None,
        }
    }
}

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct BenchSummary {
    /// The stamp written into both records.
    pub stamp: Stamp,
    /// Where the raw metrics docs were archived.
    pub archive_dir: PathBuf,
    /// The two trajectory files appended to.
    pub trajectory_paths: [PathBuf; 2],
    /// Soundness failures any harness reported (empty = all sound).
    pub harness_failures: Vec<String>,
    /// Gate verdicts per trajectory, `(name, report)`.
    pub gates: Vec<(String, GateReport)>,
    /// `index.html` path when a dashboard was rendered.
    pub dashboard_index: Option<PathBuf>,
    /// Human-readable run summary (harness lines + gate tables).
    pub text: String,
}

impl BenchSummary {
    /// True when any gated metric of any trajectory left its band.
    pub fn regressed(&self) -> bool {
        self.gates.iter().any(|(_, g)| g.regressed())
    }

    /// True when every harness was sound.
    pub fn sound(&self) -> bool {
        self.harness_failures.is_empty()
    }
}

fn throughput_config(opts: &BenchOptions) -> throughput::ThroughputConfig {
    if opts.quick {
        throughput::ThroughputConfig {
            n: 6,
            ops: 16,
            seed: opts.seed,
            ..throughput::ThroughputConfig::default()
        }
    } else {
        throughput::ThroughputConfig {
            seed: opts.seed,
            ..throughput::ThroughputConfig::default()
        }
    }
}

fn profile_config(opts: &BenchOptions) -> profile::ProfileConfig {
    if opts.quick {
        profile::ProfileConfig {
            n: 4,
            repeats: 1,
            ..profile::ProfileConfig::default()
        }
    } else {
        profile::ProfileConfig::default()
    }
}

fn socket_config(opts: &BenchOptions) -> socket::SocketConfig {
    if opts.quick {
        socket::SocketConfig {
            ops_per_client: 6,
            seed: opts.seed,
            ..socket::SocketConfig::default()
        }
    } else {
        socket::SocketConfig {
            seed: opts.seed,
            ..socket::SocketConfig::default()
        }
    }
}

fn chaos_config(opts: &BenchOptions) -> chaos::ChaosConfig {
    if opts.quick {
        chaos::ChaosConfig {
            scenarios: 4,
            seed: opts.seed,
            ticks: 256,
        }
    } else {
        chaos::ChaosConfig {
            seed: opts.seed,
            ..chaos::ChaosConfig::default()
        }
    }
}

fn churn_config(opts: &BenchOptions) -> churn::ChurnConfig {
    if opts.quick {
        churn::ChurnConfig {
            seqs: 2,
            ops: 12,
            seed: opts.seed,
            kill_points: 2,
            snapshot_every: None,
        }
    } else {
        churn::ChurnConfig {
            seed: opts.seed,
            ..churn::ChurnConfig::default()
        }
    }
}

/// Counter map of a snapshot: raw counters plus per-span call counts.
fn snapshot_counters(snap: &dnc_telemetry::Snapshot) -> BTreeMap<String, u64> {
    let mut map = snap.counters.clone();
    for (name, stat) in &snap.spans {
        map.insert(format!("span.{name}.count"), stat.count);
    }
    map
}

/// Derived cache hit rate of a snapshot window, when the cache saw
/// traffic at all.
fn cache_hit_rate(snap: &dnc_telemetry::Snapshot) -> Option<f64> {
    let hit = snap.counter_value("cache.hit");
    let miss = snap.counter_value("cache.miss");
    let total = hit + miss;
    if total == 0 {
        None
    } else {
        Some(hit as f64 / total as f64)
    }
}

fn shared_knobs(opts: &BenchOptions) -> BTreeMap<String, String> {
    BTreeMap::from([
        ("quick".to_string(), opts.quick.to_string()),
        ("seed".to_string(), opts.seed.to_string()),
    ])
}

/// Read a just-written metrics doc back and check it against the
/// `dnc-metrics/v1` schema, so a malformed archive fails the run
/// instead of poisoning the trajectory's provenance.
fn check_archived(path: &std::path::Path) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path)?;
    dnc_telemetry::schema::validate_metrics(&text).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Run all four harnesses, archive, append, gate, and (optionally)
/// render the dashboard. See the module docs for the exact sequence.
pub fn run_bench(opts: &BenchOptions) -> std::io::Result<BenchSummary> {
    let stamp = opts.stamp.clone().unwrap_or_else(resolve_stamp);
    // Same SHA + same second (back-to-back runs) must not silently
    // overwrite an earlier run's raw archive: suffix until fresh.
    let runs = opts.out_dir.join("runs");
    let mut archive_dir = runs.join(stamp.run_slug());
    let mut nth = 1u32;
    while archive_dir.exists() {
        nth += 1;
        archive_dir = runs.join(format!("{}-{nth}", stamp.run_slug()));
    }
    std::fs::create_dir_all(&archive_dir)?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "bench: {} run, seed {}, {} @ {}",
        if opts.quick { "quick" } else { "full" },
        opts.seed,
        stamp.git_sha,
        stamp.timestamp
    );
    let mut failures = Vec::new();

    // Window 1: throughput + profile + socket → BENCH_throughput.json.
    let tcfg = throughput_config(opts);
    let pcfg = profile_config(opts);
    let scfg = socket_config(opts);
    dnc_telemetry::reset();
    let tp = throughput::run_throughput(&tcfg);
    let prof = profile::run_profile(&pcfg);
    let sock = socket::run_socket(&scfg);
    let snap1 = dnc_telemetry::snapshot();
    for (name, series) in [
        ("throughput", throughput::throughput_series(&tp)),
        ("profile", profile::profile_series(&prof)),
        ("socket", socket::socket_series(&sock)),
    ] {
        check_archived(&write_metrics_doc(&archive_dir, name, series)?)?;
    }

    if !tp.sound() {
        failures.push(format!(
            "throughput: {} cross-mode mismatch(es)",
            tp.mismatches.len()
        ));
    }
    if !sock.sound() {
        failures.push(format!(
            "socket: {} soundness mismatch(es)",
            sock.mismatches.len()
        ));
    }
    let mut throughput_record = BenchRecord::stamped(&stamp);
    throughput_record.knobs = shared_knobs(opts);
    for (k, v) in [
        ("throughput.n", tcfg.n.to_string()),
        ("throughput.ops", tcfg.ops.to_string()),
        ("profile.n", pcfg.n.to_string()),
        ("profile.repeats", pcfg.repeats.to_string()),
        ("socket.clients", scfg.clients.to_string()),
        ("socket.ops", scfg.ops_per_client.to_string()),
        ("socket.batch", scfg.batch.to_string()),
    ] {
        throughput_record.knobs.insert(k.to_string(), v);
    }
    for mode in &tp.modes {
        throughput_record.metrics.insert(
            format!("throughput.{}.wall_us", mode.label),
            mode.wall_us as f64,
        );
        throughput_record.metrics.insert(
            format!("throughput.{}.admissions_per_sec", mode.label),
            mode.admissions_per_sec,
        );
        throughput_record.metrics.insert(
            format!("throughput.{}.units", mode.label),
            mode.units as f64,
        );
    }
    throughput_record
        .metrics
        .insert("throughput.speedup".to_string(), tp.speedup());
    throughput_record.metrics.insert(
        "throughput.mismatches".to_string(),
        tp.mismatches.len() as f64,
    );
    if let Some(base) = tp.mode("scratch-seq") {
        throughput_record
            .metrics
            .insert("throughput.commits".to_string(), base.commits as f64);
    }
    for a in &prof.algos {
        throughput_record
            .metrics
            .insert(format!("profile.{}.wall_us", a.label), a.wall_us as f64);
        if let Some(b) = a.bound {
            throughput_record
                .metrics
                .insert(format!("profile.{}.bound", a.label), b.to_f64());
        }
    }
    for m in &sock.modes {
        let key = m.label.replace('-', "_");
        throughput_record
            .metrics
            .insert(format!("socket.{key}.acks_per_sec"), m.acks_per_sec);
        throughput_record
            .metrics
            .insert(format!("socket.{key}.wall_us"), m.wall_us as f64);
        throughput_record.metrics.insert(
            format!("socket.{key}.group_commits"),
            m.group_commits as f64,
        );
    }
    throughput_record
        .metrics
        .insert("socket.speedup".to_string(), sock.speedup());
    throughput_record.metrics.insert(
        "socket.mismatches".to_string(),
        sock.mismatches.len() as f64,
    );
    if let Some(rate) = cache_hit_rate(&snap1) {
        throughput_record
            .metrics
            .insert("cache.hit_rate".to_string(), rate);
    }
    throughput_record.counters = snapshot_counters(&snap1);

    let _ = writeln!(text, "  {}", throughput_one_liner(&tp));
    let _ = writeln!(text, "  {}", profile_one_liner(&prof));
    let _ = writeln!(text, "  {}", socket_one_liner(&sock));

    // Window 2: chaos + churn → BENCH_churn.json.
    let ccfg = chaos_config(opts);
    let ucfg = churn_config(opts);
    dnc_telemetry::reset();
    let chaos_rep = chaos::run_chaos(&ccfg);
    let churn_rep = churn::run_churn(&ucfg);
    let snap2 = dnc_telemetry::snapshot();
    for (name, series) in [
        ("chaos", chaos::chaos_series(&chaos_rep)),
        ("churn", churn::churn_series(&churn_rep)),
    ] {
        check_archived(&write_metrics_doc(&archive_dir, name, series)?)?;
    }

    if chaos_rep.violation_count() > 0 {
        failures.push(format!(
            "chaos: {} bound violation(s)",
            chaos_rep.violation_count()
        ));
    }
    if !churn_rep.sound() {
        failures.push(format!(
            "churn: {} violation(s), {} recovery failure(s)",
            churn_rep.violation_count(),
            churn_rep.recovery_failure_count()
        ));
    }
    let mut churn_record = BenchRecord::stamped(&stamp);
    churn_record.knobs = shared_knobs(opts);
    for (k, v) in [
        ("chaos.scenarios", ccfg.scenarios.to_string()),
        ("chaos.ticks", ccfg.ticks.to_string()),
        ("churn.seqs", ucfg.seqs.to_string()),
        ("churn.ops", ucfg.ops.to_string()),
        ("churn.kill_points", ucfg.kill_points.to_string()),
    ] {
        churn_record.knobs.insert(k.to_string(), v);
    }
    let m = &mut churn_record.metrics;
    m.insert(
        "chaos.scenarios".to_string(),
        chaos_rep.outcomes.len() as f64,
    );
    m.insert(
        "chaos.checked_claims".to_string(),
        chaos_rep.checked_count() as f64,
    );
    m.insert(
        "chaos.violations".to_string(),
        chaos_rep.violation_count() as f64,
    );
    m.insert(
        "churn.sequences".to_string(),
        churn_rep.outcomes.len() as f64,
    );
    for (key, total) in [
        (
            "churn.commits",
            churn_rep.outcomes.iter().map(|o| o.commits).sum::<u64>(),
        ),
        (
            "churn.rollbacks",
            churn_rep.outcomes.iter().map(|o| o.rollbacks).sum::<u64>(),
        ),
        (
            "churn.cert_checks",
            churn_rep
                .outcomes
                .iter()
                .map(|o| o.cert_checks as u64)
                .sum::<u64>(),
        ),
        (
            "churn.recovery_checks",
            churn_rep
                .outcomes
                .iter()
                .map(|o| o.recovery_checks as u64)
                .sum::<u64>(),
        ),
    ] {
        m.insert(key.to_string(), total as f64);
    }
    m.insert(
        "churn.violations".to_string(),
        churn_rep.violation_count() as f64,
    );
    m.insert(
        "churn.recovery_failures".to_string(),
        churn_rep.recovery_failure_count() as f64,
    );
    churn_record.counters = snapshot_counters(&snap2);

    let _ = writeln!(
        text,
        "  chaos: {} scenario(s), {} claim(s) checked, {} violation(s)",
        chaos_rep.outcomes.len(),
        chaos_rep.checked_count(),
        chaos_rep.violation_count()
    );
    let _ = writeln!(
        text,
        "  churn: {} sequence(s), {} violation(s), {} recovery failure(s)",
        churn_rep.outcomes.len(),
        churn_rep.violation_count(),
        churn_rep.recovery_failure_count()
    );
    let _ = writeln!(text, "  archived raw metrics: {}", archive_dir.display());

    // Append one record per trajectory, then gate the grown files.
    let throughput_path = opts.bench_dir.join("BENCH_throughput.json");
    let churn_path = opts.bench_dir.join("BENCH_churn.json");
    append_record(&throughput_path, &throughput_record)?;
    append_record(&churn_path, &churn_record)?;

    let mut gates = Vec::new();
    let mut panels_data = Vec::new();
    for (name, path) in [("throughput", &throughput_path), ("churn", &churn_path)] {
        let records = load_trajectory(path)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let _ = writeln!(
            text,
            "  appended: {} (now {} record(s))",
            path.display(),
            records.len()
        );
        let gate = evaluate_gate(&records, &opts.gate);
        let _ = write!(text, "{}", render_gate_table(name, &gate));
        gates.push((name.to_string(), gate));
        panels_data.push((name, records));
    }

    let dashboard_index = match &opts.dashboard {
        Some(dir) => {
            let panels: Vec<Panel> = panels_data
                .iter()
                .zip(&gates)
                .map(|((name, records), (_, gate))| Panel {
                    name,
                    records,
                    gate,
                })
                .collect();
            let index = render_dashboard(dir, &panels)?;
            let _ = writeln!(text, "  dashboard: {}", index.display());
            Some(index)
        }
        None => None,
    };
    for f in &failures {
        let _ = writeln!(text, "  HARNESS FAILURE: {f}");
    }

    Ok(BenchSummary {
        stamp,
        archive_dir,
        trajectory_paths: [throughput_path, churn_path],
        harness_failures: failures,
        gates,
        dashboard_index,
        text,
    })
}

fn throughput_one_liner(tp: &throughput::ThroughputReport) -> String {
    let rates: Vec<String> = tp
        .modes
        .iter()
        .map(|mode| format!("{} {:.0}/s", mode.label, mode.admissions_per_sec))
        .collect();
    format!(
        "throughput: {}; speedup {:.2}x; {} mismatch(es)",
        rates.join(", "),
        tp.speedup(),
        tp.mismatches.len()
    )
}

fn socket_one_liner(sock: &socket::SocketReport) -> String {
    let rates: Vec<String> = sock
        .modes
        .iter()
        .map(|m| format!("{} {:.0} acks/s", m.label, m.acks_per_sec))
        .collect();
    format!(
        "socket: {}; group-commit speedup {:.2}x; {} mismatch(es)",
        rates.join(", "),
        sock.speedup(),
        sock.mismatches.len()
    )
}

fn profile_one_liner(prof: &profile::ProfileReport) -> String {
    let cells: Vec<String> = prof
        .algos
        .iter()
        .map(|a| format!("{} {}us", a.label, a.wall_us))
        .collect();
    format!("profile: {}", cells.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_stamp() -> Stamp {
        Stamp {
            timestamp: "2026-08-08T00:00:00Z".to_string(),
            git_sha: "cafe0001".to_string(),
            toolchain: "rustc test".to_string(),
        }
    }

    #[test]
    fn quick_run_appends_valid_records_and_archives() {
        let root = dnc_service::fs::ScratchDir::new("runner");
        let opts = BenchOptions {
            quick: true,
            seed: 3,
            out_dir: root.join("results"),
            bench_dir: root.to_path_buf(),
            stamp: Some(test_stamp()),
            dashboard: Some(root.join("dashboard")),
            ..BenchOptions::default()
        };
        let summary = run_bench(&opts).unwrap();
        assert!(summary.sound(), "{:?}", summary.harness_failures);
        assert!(!summary.regressed(), "first run has nothing to gate");
        for path in &summary.trajectory_paths {
            let text = std::fs::read_to_string(path).unwrap();
            dnc_telemetry::schema::validate_bench(&text).unwrap();
        }
        // The record carries each throughput mode's computed pairing
        // units, and incremental re-certification computes strictly
        // fewer than from-scratch. The derived `cache.hit_rate` is
        // present whenever counters are compiled in (the telemetry
        // feature — CI's bench-record job).
        let records = load_trajectory(&summary.trajectory_paths[0]).unwrap();
        let units = |mode: &str| {
            records[0]
                .metrics
                .get(&format!("throughput.{mode}.units"))
                .copied()
                .unwrap_or(0.0)
        };
        assert!(
            units("incremental") < units("scratch-seq"),
            "incremental {} units, scratch-seq {}",
            units("incremental"),
            units("scratch-seq")
        );
        if cfg!(feature = "telemetry") {
            let rate = records[0]
                .metrics
                .get("cache.hit_rate")
                .copied()
                .unwrap_or(0.0);
            assert!(rate > 0.0, "cache.hit_rate missing or zero: {rate}");
        }
        // All four harness docs archived under runs/<slug>/.
        let slug_dir = &summary.archive_dir;
        for name in ["throughput", "profile", "socket", "chaos", "churn"] {
            assert!(
                slug_dir.join(format!("metrics-{name}.json")).exists(),
                "missing archived metrics-{name}.json"
            );
        }
        assert!(summary.dashboard_index.as_ref().unwrap().exists());

        // A second run appends (not overwrites) and gates quietly
        // against the identical first record.
        let summary2 = run_bench(&opts).unwrap();
        let records = load_trajectory(&summary2.trajectory_paths[0]).unwrap();
        assert_eq!(records.len(), 2, "append-only trajectory");
        assert_eq!(summary2.gates[0].1.priors, 1);
    }

    #[test]
    fn quick_configs_shrink_every_harness() {
        let opts = BenchOptions {
            quick: true,
            seed: 9,
            ..BenchOptions::default()
        };
        assert!(throughput_config(&opts).ops < throughput::ThroughputConfig::default().ops);
        assert!(chaos_config(&opts).scenarios < chaos::ChaosConfig::default().scenarios);
        assert!(churn_config(&opts).seqs < churn::ChurnConfig::default().seqs);
        assert!(profile_config(&opts).n < profile::ProfileConfig::default().n);
        assert_eq!(throughput_config(&opts).seed, 9);
        assert_eq!(chaos_config(&opts).seed, 9);
    }
}
