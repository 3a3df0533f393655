//! `dnc bench`: one exact perf record per run, gated by equality.
//!
//! [`run_bench`] runs five stages in one process, each in one fixed
//! configuration, in this order:
//!
//! 1. `profile` — Service Curve, Decomposed, Integrated and FIFO-family
//!    on `paper_tandem(6, 3/5)` (the network of `dnc tandem 6 3/5`).
//!    It runs first, so it sees cold memos exactly as `dnc profile`
//!    does;
//! 2. `throughput`;
//! 3. `socket`;
//! 4. `chaos`;
//! 5. `churn`.
//!
//! Every stage except `socket` runs in its own telemetry window; the
//! window's counters and span counts land in the record's `counters`
//! under `<stage>/` (`profile/<algo>/` for the profile stage's one window
//! per algorithm). `socket` runs outside every window: how its clients'
//! requests group into commits depends on arrival timing, so the record
//! keeps only its acked and mismatch counts. `metrics` holds exact
//! values only — bounds, unit, commit and soundness counts, and the
//! number of curves each windowed stage added to the interner
//! (`<stage>.intern_added`). No wall time enters a record.
//!
//! The profile, throughput and socket stages append one record to
//! `BENCH_throughput.json`, chaos and churn one to `BENCH_churn.json`.
//! Each file is then parsed whole and its new record compared with its
//! pinned record ([`crate::trajectory::pinned_record`]). The runner never
//! decides exit codes: it reports soundness failures and differences,
//! and the caller maps them onto [`crate::exit::VIOLATION`] /
//! [`crate::exit::REGRESSION`].

use crate::profile::{self, ProfileRow};
use crate::trajectory::{
    append_record, load_trajectory, pinned_record, record_diff, resolve_stamp, BenchRecord, Stamp,
};
use crate::{chaos, churn, paper_tandem, socket, throughput};
use dnc_num::Rat;
use dnc_telemetry::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Where a recorded bench run goes. The stages' configuration is fixed.
#[derive(Clone, Debug)]
pub struct BenchOptions {
    /// Directory holding the `BENCH_*.json` trajectories (repo root).
    pub bench_dir: PathBuf,
    /// Injected run identity; `None` resolves the ambient stamp.
    pub stamp: Option<Stamp>,
}

impl Default for BenchOptions {
    fn default() -> BenchOptions {
        BenchOptions {
            bench_dir: PathBuf::from("."),
            stamp: None,
        }
    }
}

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct BenchSummary {
    /// Soundness failures any stage reported (empty = all sound).
    pub harness_failures: Vec<String>,
    /// Per trajectory file, the keys whose values differ from its pinned
    /// record; `None` when no earlier record has the same knobs.
    pub diffs: Vec<Option<Vec<String>>>,
    /// Human-readable run summary (stage lines + comparisons).
    pub text: String,
}

impl BenchSummary {
    /// True when every stage was sound.
    pub fn sound(&self) -> bool {
        self.harness_failures.is_empty()
    }

    /// True when every new record equals its pinned record.
    pub fn matches_pins(&self) -> bool {
        self.diffs
            .iter()
            .all(|d| d.as_ref().is_some_and(Vec::is_empty))
    }
}

/// The seed of every stage.
const SEED: u64 = 1;

/// Size and load of the profile stage's tandem.
fn profile_tandem() -> (usize, Rat) {
    (6, Rat::new(3, 5))
}

fn throughput_config() -> throughput::ThroughputConfig {
    throughput::ThroughputConfig {
        n: 6,
        ops: 16,
        seed: SEED,
        ..throughput::ThroughputConfig::default()
    }
}

fn socket_config() -> socket::SocketConfig {
    socket::SocketConfig {
        ops_per_client: 6,
        seed: SEED,
        ..socket::SocketConfig::default()
    }
}

fn chaos_config() -> chaos::ChaosConfig {
    chaos::ChaosConfig {
        scenarios: 4,
        seed: SEED,
        ticks: 256,
    }
}

fn churn_config() -> churn::ChurnConfig {
    churn::ChurnConfig {
        seqs: 2,
        ops: 12,
        seed: SEED,
        kill_points: 2,
        snapshot_every: None,
    }
}

/// A stamped record whose knobs are `knobs` plus the seed and whether
/// this build records telemetry.
fn new_record(stamp: &Stamp, knobs: &[(&str, String)]) -> BenchRecord {
    let mut record = BenchRecord::stamped(stamp);
    let telemetry = if dnc_telemetry::enabled() {
        "on"
    } else {
        "off"
    };
    record.knobs = BTreeMap::from([
        ("seed".to_string(), SEED.to_string()),
        ("telemetry".to_string(), telemetry.to_string()),
    ]);
    for (k, v) in knobs {
        record.knobs.insert(k.to_string(), v.clone());
    }
    record
}

/// Add one telemetry window's counters and span counts under `prefix/`.
fn add_window(record: &mut BenchRecord, prefix: &str, snap: &Snapshot) {
    for (name, &value) in &snap.counters {
        record.counters.insert(format!("{prefix}/{name}"), value);
    }
    for (name, stat) in &snap.spans {
        record
            .counters
            .insert(format!("{prefix}/span.{name}.count"), stat.count);
    }
}

/// Run `stage` in its own telemetry window, adding the window to
/// `record` under `name/` and the curves it interned as
/// `name.intern_added`.
fn windowed<T>(record: &mut BenchRecord, name: &str, stage: impl FnOnce() -> T) -> T {
    let interned = dnc_curves::intern::store_len();
    dnc_telemetry::reset();
    let out = stage();
    add_window(record, name, &dnc_telemetry::snapshot());
    add_interned(record, name, interned);
    out
}

/// Record as `<stage>.intern_added` how many curves the stage added to
/// the interner, which held `before` curves when it started. The
/// interner's total size is not recorded: it includes the socket
/// stage's curves, and which aggregates those clients build depends on
/// their arrival timing.
fn add_interned(record: &mut BenchRecord, stage: &str, before: usize) {
    let added = dnc_curves::intern::store_len().saturating_sub(before);
    record.count(format!("{stage}.intern_added"), added as u64);
}

/// Run the five stages, append one record per trajectory, and compare
/// each with its pinned record. See the module docs for the sequence.
pub fn run_bench(opts: &BenchOptions) -> std::io::Result<BenchSummary> {
    let stamp = opts.stamp.clone().unwrap_or_else(resolve_stamp);
    let mut text = String::new();
    let _ = writeln!(text, "bench: {} @ {}", stamp.git_sha, stamp.timestamp);
    let mut failures = Vec::new();

    // Stage 1: profile, one window per algorithm.
    let (n, u) = profile_tandem();
    let interned = dnc_curves::intern::store_len();
    let rows = profile::profile_all(&paper_tandem(n, u).net);
    let (tcfg, scfg) = (throughput_config(), socket_config());
    let algorithms: Vec<&str> = rows.iter().map(|r| r.name).collect();
    let mut tp_record = new_record(
        &stamp,
        &[
            ("profile.n", n.to_string()),
            ("profile.u", u.to_string()),
            ("profile.algorithms", algorithms.join(",")),
            ("throughput.n", tcfg.n.to_string()),
            ("throughput.u", tcfg.u.to_string()),
            ("throughput.ops", tcfg.ops.to_string()),
            ("socket.clients", scfg.clients.to_string()),
            ("socket.ops", scfg.ops_per_client.to_string()),
            ("socket.batch", scfg.batch.to_string()),
        ],
    );
    for row in &rows {
        add_window(&mut tp_record, &format!("profile/{}", row.name), &row.snap);
        if let Some(b) = row.bound() {
            tp_record.bound(format!("profile.{}.bound", row.name), b);
        }
    }
    add_interned(&mut tp_record, "profile", interned);
    let _ = writeln!(text, "  {}", profile_one_liner(&rows));

    // Stage 2: throughput.
    let tp = windowed(&mut tp_record, "throughput", || {
        throughput::run_throughput(&tcfg)
    });
    if !tp.sound() {
        failures.push(format!(
            "throughput: {} cross-mode mismatch(es)",
            tp.mismatches.len()
        ));
    }
    for mode in &tp.modes {
        tp_record.count(format!("throughput.{}.units", mode.label), mode.units);
    }
    if let Some(base) = tp.mode("scratch-seq") {
        tp_record.count("throughput.commits", base.commits);
    }
    tp_record.count("throughput.mismatches", tp.mismatches.len() as u64);
    let _ = writeln!(text, "  {}", throughput_one_liner(&tp));

    // Stage 3: socket, outside every window.
    let sock = socket::run_socket(&scfg);
    if !sock.sound() {
        failures.push(format!(
            "socket: {} soundness mismatch(es)",
            sock.mismatches.len()
        ));
    }
    for m in &sock.modes {
        let key = m.label.replace('-', "_");
        tp_record.count(format!("socket.{key}.acked"), m.acked);
    }
    tp_record.count("socket.mismatches", sock.mismatches.len() as u64);
    let _ = writeln!(text, "  {}", socket_one_liner(&sock));

    // Stages 4 and 5: chaos and churn.
    let (ccfg, ucfg) = (chaos_config(), churn_config());
    let mut churn_record = new_record(
        &stamp,
        &[
            ("chaos.scenarios", ccfg.scenarios.to_string()),
            ("chaos.ticks", ccfg.ticks.to_string()),
            ("churn.seqs", ucfg.seqs.to_string()),
            ("churn.ops", ucfg.ops.to_string()),
            ("churn.kill_points", ucfg.kill_points.to_string()),
        ],
    );
    let chaos_rep = windowed(&mut churn_record, "chaos", || chaos::run_chaos(&ccfg));
    let churn_rep = windowed(&mut churn_record, "churn", || churn::run_churn(&ucfg));
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
    let outcomes = &churn_rep.outcomes;
    for (key, n) in [
        ("chaos.scenarios", chaos_rep.outcomes.len() as u64),
        ("chaos.checked_claims", chaos_rep.checked_count() as u64),
        ("chaos.violations", chaos_rep.violation_count() as u64),
        ("churn.sequences", outcomes.len() as u64),
        ("churn.commits", outcomes.iter().map(|o| o.commits).sum()),
        (
            "churn.rollbacks",
            outcomes.iter().map(|o| o.rollbacks).sum(),
        ),
        (
            "churn.cert_checks",
            outcomes.iter().map(|o| o.cert_checks as u64).sum(),
        ),
        (
            "churn.recovery_checks",
            outcomes.iter().map(|o| o.recovery_checks as u64).sum(),
        ),
        ("churn.violations", churn_rep.violation_count() as u64),
        (
            "churn.recovery_failures",
            churn_rep.recovery_failure_count() as u64,
        ),
    ] {
        churn_record.count(key, n);
    }
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
        outcomes.len(),
        churn_rep.violation_count(),
        churn_rep.recovery_failure_count()
    );

    // Append, then parse each whole file and compare with the pin.
    let mut diffs = Vec::new();
    for (file, record) in [
        ("BENCH_throughput.json", &tp_record),
        ("BENCH_churn.json", &churn_record),
    ] {
        let path = &opts.bench_dir.join(file);
        append_record(path, record)?;
        let records = load_trajectory(path)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let name = path.display();
        match pinned_record(&records).zip(records.last()) {
            None => {
                let _ = writeln!(text, "  {name}: no pinned record with these knobs");
                diffs.push(None);
            }
            Some((pinned, latest)) => {
                let lines = record_diff(pinned, latest);
                let at = format!(
                    "the pinned record of {} ({})",
                    pinned.timestamp, pinned.git_sha
                );
                if lines.is_empty() {
                    let _ = writeln!(text, "  {name}: equals {at}");
                } else {
                    let _ = writeln!(text, "  {name}: {} key(s) differ from {at}:", lines.len());
                    for line in &lines {
                        let _ = writeln!(text, "    {line}");
                    }
                }
                diffs.push(Some(lines));
            }
        }
    }
    let mut summary = BenchSummary {
        harness_failures: failures,
        diffs,
        text,
    };
    if !summary.matches_pins() {
        let _ = writeln!(
            summary.text,
            "  to pin the new records, run `dnc bench` and commit the appended lines"
        );
    }
    for f in &summary.harness_failures {
        let _ = writeln!(summary.text, "  HARNESS FAILURE: {f}");
    }
    Ok(summary)
}

fn profile_one_liner(rows: &[ProfileRow]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|r| match r.bound() {
            Some(b) => format!("{} {:.4}", r.name, b.to_f64()),
            None => format!("{} -", r.name),
        })
        .collect();
    format!("profile: worst bounds {}", cells.join(", "))
}

fn throughput_one_liner(tp: &throughput::ThroughputReport) -> String {
    let units: Vec<String> = tp
        .modes
        .iter()
        .map(|mode| format!("{} {} units", mode.label, mode.units))
        .collect();
    format!(
        "throughput: {}; {} mismatch(es)",
        units.join(", "),
        tp.mismatches.len()
    )
}

fn socket_one_liner(sock: &socket::SocketReport) -> String {
    let acked: Vec<String> = sock
        .modes
        .iter()
        .map(|m| format!("{} {} acked", m.label, m.acked))
        .collect();
    format!(
        "socket: {}; {} mismatch(es)",
        acked.join(", "),
        sock.mismatches.len()
    )
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

    /// Memos and telemetry are process-global, so a second in-process
    /// run sees warm memos (and, in a telemetry build, other tests'
    /// counters): this test never compares two runs' values. The
    /// `bench_cli` tests compare runs, each in a fresh process.
    #[test]
    fn record_holds_only_exact_values() {
        let root = dnc_service::fs::ScratchDir::new("runner");
        let opts = BenchOptions {
            bench_dir: root.to_path_buf(),
            stamp: Some(test_stamp()),
        };
        let summary = run_bench(&opts).unwrap();
        assert!(summary.sound(), "{:?}", summary.harness_failures);
        assert_eq!(
            summary.diffs,
            [None, None],
            "a fresh directory pins nothing"
        );
        assert!(!summary.matches_pins());
        assert!(summary.text.contains("run `dnc bench` and commit"));

        let tp = &load_trajectory(&root.join("BENCH_throughput.json")).unwrap()[0];
        let churn = &load_trajectory(&root.join("BENCH_churn.json")).unwrap()[0];
        for record in [tp, churn] {
            for key in record.metrics.keys().chain(record.counters.keys()) {
                for timing in ["wall_us", "per_sec", "speedup"] {
                    assert!(!key.contains(timing), "{key} is not an exact value");
                }
            }
            assert_eq!(record.knobs["seed"], "1");
        }
        for algo in ["service-curve", "decomposed", "integrated", "fifo-family"] {
            assert!(
                tp.metrics.contains_key(&format!("profile.{algo}.bound")),
                "{algo}"
            );
        }
        // Which stages intern nothing is asserted in a fresh process
        // (`bench_cli`): here other tests intern concurrently.
        assert!(tp.metrics["profile.intern_added"] > 0.0);
        assert!(tp.metrics.contains_key("throughput.intern_added"));
        let socket: Vec<&String> = tp
            .metrics
            .keys()
            .filter(|k| k.starts_with("socket."))
            .collect();
        assert_eq!(
            socket,
            [
                "socket.grouped.acked",
                "socket.mismatches",
                "socket.per_op.acked"
            ]
        );
        assert_eq!(tp.metrics["socket.per_op.acked"], 48.0);
        assert_eq!(tp.metrics["socket.grouped.acked"], 48.0);
        // Incremental re-certification computes strictly fewer pairing
        // units than from scratch.
        let units = |mode: &str| tp.metrics[&format!("throughput.{mode}.units")];
        assert!(
            units("incremental") < units("scratch-seq"),
            "incremental {} units, scratch-seq {}",
            units("incremental"),
            units("scratch-seq")
        );
        assert!(churn.metrics.contains_key("churn.intern_added"));
        if dnc_telemetry::enabled() {
            assert!(tp
                .counters
                .keys()
                .any(|k| k.starts_with("profile/integrated/")));
            assert!(!tp.counters.keys().any(|k| k.starts_with("socket")));
        }
    }
}
