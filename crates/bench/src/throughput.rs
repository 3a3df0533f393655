//! Throughput harness: admissions/sec of the churn engine across three
//! certification modes over one deterministic request sequence.
//!
//! The modes differ **only** in how the engine certifies — never in what
//! it answers:
//!
//! * `scratch-seq` — every certification from scratch, sequential,
//!   with a cold private cache: the honest baseline.
//! * `parallel` — from scratch, pairing groups fanned out over
//!   `workers` scoped threads, certifying against the run's shared
//!   memo cache.
//! * `incremental` — the full fast path: the same shared memo cache,
//!   parallel fan-out, and incremental re-certification off the
//!   previous accepted analysis.
//!
//! The `parallel` and `incremental` stages thread **one**
//! [`AnalysisCache`] between them (the workload replays the same
//! request list, so the cache genuinely hits); `scratch-seq` keeps a
//! cold cache so the baseline stays honest. The run's `cache.hit` /
//! `cache.miss` telemetry — and the derived `cache.hit_rate` bench
//! metric — therefore reflect real cross-stage reuse instead of the
//! perpetual zero that per-stage private caches used to report.
//!
//! Every mode replays the *same* pre-drawn request list against the
//! same base network, and the harness fingerprints every response
//! (names, exact `Rat` bounds, deadlines) plus the final engine state
//! digest. Any cross-mode difference is a soundness violation, reported
//! in [`ThroughputReport::mismatches`] — speed is only meaningful if
//! the answers are bit-identical.

use crate::chaos::scenario_rng;
use crate::{paper_tandem, HarnessOutput};
use dnc_core::cache::AnalysisCache;
use dnc_num::Rat;
use dnc_service::{AdmitRequest, ChurnEngine, EngineConfig, Request, Response};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write as _;
use std::sync::Arc;

/// Knobs of a throughput run.
#[derive(Clone, Debug)]
pub struct ThroughputConfig {
    /// Tandem size the engines run against.
    pub n: usize,
    /// Base work load `U` of the tandem.
    pub u: Rat,
    /// Requests in the churn sequence.
    pub ops: usize,
    /// Master seed: the request list is a pure function of it.
    pub seed: u64,
    /// Fan-out width for the `parallel` and `incremental` modes.
    pub workers: usize,
}

impl Default for ThroughputConfig {
    fn default() -> ThroughputConfig {
        ThroughputConfig {
            n: 10,
            u: Rat::new(6, 20),
            ops: 48,
            seed: 1,
            workers: 4,
        }
    }
}

/// One certification mode's measurement.
#[derive(Clone, Debug)]
pub struct ModeOutcome {
    /// Mode label (`scratch-seq`, `parallel`, `incremental`).
    pub label: &'static str,
    /// Committed operations (admits + releases).
    pub commits: u64,
    /// Rejections rolled back.
    pub rollbacks: u64,
    /// Wall time for the whole sequence, in microseconds.
    pub wall_us: u64,
    /// Committed admissions+releases per second of wall time.
    pub admissions_per_sec: f64,
}

/// A full throughput run: one outcome per mode plus every cross-mode
/// divergence found (empty = all modes answered identically).
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Configuration the run used.
    pub cfg: ThroughputConfig,
    /// One outcome per mode, baseline first.
    pub modes: Vec<ModeOutcome>,
    /// Responses or final states that differed from the baseline mode.
    pub mismatches: Vec<String>,
    /// Entries left in the cache the fast stages shared — nonzero
    /// whenever the workload actually reused memoized analyses.
    pub cache_entries: usize,
}

impl ThroughputReport {
    /// Look a mode up by label.
    pub fn mode(&self, label: &str) -> Option<&ModeOutcome> {
        self.modes.iter().find(|m| m.label == label)
    }

    /// True when every mode produced bit-identical responses and final
    /// engine state.
    pub fn sound(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Admissions/sec of the fast path relative to the from-scratch
    /// sequential baseline (> 1.0 means the fast path is faster).
    pub fn speedup(&self) -> f64 {
        match (self.mode("incremental"), self.mode("scratch-seq")) {
            (Some(inc), Some(base)) if base.admissions_per_sec > 0.0 => {
                inc.admissions_per_sec / base.admissions_per_sec
            }
            _ => 0.0,
        }
    }
}

/// Draw the request sequence: a churn mix of admits (downstream tandem
/// spans, small buckets, moderately tight deadlines) and releases of
/// previously drawn names. The list is drawn once and replayed by every
/// mode, so generation cannot couple to engine behavior.
fn draw_requests(cfg: &ThroughputConfig) -> Vec<Request> {
    let mut rng: StdRng = scenario_rng(cfg.seed, 0);
    let mut reqs = Vec::with_capacity(cfg.ops);
    let mut assumed_live: Vec<String> = Vec::new();
    let mut next = 0usize;
    for _ in 0..cfg.ops {
        if assumed_live.is_empty() || rng.gen_ratio(3, 5) {
            next += 1;
            let name = format!("t{next}");
            // Short spans, as real connections have: the incremental
            // mode's dirty closure then stays a small suffix of the
            // tandem, which is exactly the workload it exists for.
            let start = rng.gen_range(0..cfg.n);
            let len = rng.gen_range(1..=(cfg.n - start).min(3));
            reqs.push(Request::Admit(AdmitRequest {
                name: name.clone(),
                route: (start..start + len).map(dnc_net::ServerId).collect(),
                buckets: vec![(
                    Rat::from(rng.gen_range(1i64..=4)),
                    Rat::new(rng.gen_range(1i128..=3), 40),
                )],
                peak: None,
                priority: 1,
                deadline: Rat::from(rng.gen_range(4i64..=120)),
            }));
            assumed_live.push(name);
        } else {
            let k = rng.gen_range(0..assumed_live.len());
            reqs.push(Request::Release {
                name: assumed_live.remove(k),
            });
        }
    }
    reqs
}

/// A response's identity for cross-mode comparison: names, exact
/// rational bounds and deadlines — everything a client would act on.
fn fingerprint(resp: &Response) -> String {
    match resp {
        Response::Admitted {
            name,
            flow,
            bound,
            deadline,
            ..
        } => format!("admitted {name} {flow} bound {bound} deadline {deadline}"),
        Response::Rejected { name, .. } => format!("rejected {name}"),
        Response::Released { name } => format!("released {name}"),
        Response::ReleaseFailed { name, .. } => format!("release-failed {name}"),
        Response::Shed { name, .. } => format!("shed {name}"),
        Response::Queried { entries } => format!("queried {}", entries.len()),
    }
}

/// Drive one engine through the request list and measure it.
fn run_mode(
    label: &'static str,
    engine_cfg: EngineConfig,
    cfg: &ThroughputConfig,
    reqs: &[Request],
) -> (ModeOutcome, Vec<String>, u64) {
    let base = paper_tandem(cfg.n, cfg.u).net;
    let mut engine =
        ChurnEngine::new(base, Vec::new(), engine_cfg).expect("base tandem is structurally valid");
    let mut prints = Vec::with_capacity(reqs.len());
    let ((), wall_us) = crate::trajectory::time_micros(|| {
        for req in reqs {
            match engine.process(req.clone()) {
                Ok(resp) => prints.push(fingerprint(&resp)),
                Err(e) => prints.push(format!("engine-error {e}")),
            }
        }
    });
    let stats = engine.stats();
    let secs = (wall_us.max(1)) as f64 / 1_000_000.0;
    (
        ModeOutcome {
            label,
            commits: stats.commits,
            rollbacks: stats.rollbacks,
            wall_us,
            admissions_per_sec: stats.commits as f64 / secs,
        },
        prints,
        engine.state_digest(),
    )
}

/// Run the three modes over one request list and cross-check them.
pub fn run_throughput(cfg: &ThroughputConfig) -> ThroughputReport {
    let _span = dnc_telemetry::span("throughput.run");
    let reqs = draw_requests(cfg);
    // One cache threaded through the two fast stages; the baseline
    // stage gets none (a cold private cache) so its numbers stay an
    // honest from-scratch measurement.
    let shared = Arc::new(AnalysisCache::new());
    let plan: [(&'static str, EngineConfig); 3] = [
        (
            "scratch-seq",
            EngineConfig {
                workers: 1,
                incremental: false,
                ..EngineConfig::default()
            },
        ),
        (
            "parallel",
            EngineConfig {
                workers: cfg.workers,
                incremental: false,
                cache: Some(Arc::clone(&shared)),
                ..EngineConfig::default()
            },
        ),
        (
            "incremental",
            EngineConfig {
                workers: cfg.workers,
                incremental: true,
                cache: Some(Arc::clone(&shared)),
                ..EngineConfig::default()
            },
        ),
    ];
    let mut modes = Vec::new();
    let mut mismatches = Vec::new();
    let mut baseline: Option<(Vec<String>, u64)> = None;
    for (label, engine_cfg) in plan {
        let (outcome, prints, digest) = run_mode(label, engine_cfg, cfg, &reqs);
        match &baseline {
            None => baseline = Some((prints, digest)),
            Some((want_prints, want_digest)) => {
                for (step, (got, want)) in prints.iter().zip(want_prints).enumerate() {
                    if got != want {
                        mismatches
                            .push(format!("{label} step {step}: {got:?} != baseline {want:?}"));
                    }
                }
                if digest != *want_digest {
                    mismatches.push(format!(
                        "{label}: final state digest {digest:#x} != baseline {want_digest:#x}"
                    ));
                }
            }
        }
        modes.push(outcome);
    }
    ThroughputReport {
        cfg: cfg.clone(),
        modes,
        mismatches,
        cache_entries: shared.len(),
    }
}

/// The run as `dnc-metrics/v1` series: one row per mode.
pub fn throughput_series(report: &ThroughputReport) -> Vec<dnc_telemetry::export::Series> {
    use crate::column;
    use dnc_telemetry::export::{Cell, Series};
    use dnc_telemetry::schema::{self, ColumnMeta};
    const MODE: ColumnMeta = column("mode", "");
    const COMMITS: ColumnMeta = column("commits", "");
    const ROLLBACKS: ColumnMeta = column("rollbacks", "");
    const WALL: ColumnMeta = column("wall time", "us");
    const RATE: ColumnMeta = column("admissions per second", "1/s");
    const MISMATCHES: ColumnMeta = column("cross-mode mismatches", "");
    let mut s = Series::new(
        "throughput",
        vec![
            MODE,
            schema::NETWORK_SIZE,
            schema::WORK_LOAD,
            COMMITS,
            ROLLBACKS,
            WALL,
            RATE,
            MISMATCHES,
        ],
    );
    for m in &report.modes {
        s.push_row(vec![
            Cell::Text(m.label.to_string()),
            Cell::int(report.cfg.n as u64),
            Cell::Num(report.cfg.u.to_f64()),
            Cell::int(m.commits),
            Cell::int(m.rollbacks),
            Cell::int(m.wall_us),
            Cell::Num(m.admissions_per_sec),
            Cell::int(report.mismatches.len() as u64),
        ]);
    }
    vec![s]
}

/// `dnc throughput`: run all three modes. Unsound on any cross-mode
/// mismatch, or — with `check` — when the incremental fast path falls
/// below the from-scratch sequential admissions/sec.
pub fn harness(cfg: &ThroughputConfig, check: bool) -> HarnessOutput {
    let report = run_throughput(cfg);
    let mut text = render_report(&report);
    let mut sound = report.sound();
    if sound && check && report.speedup() < 1.0 {
        let _ = writeln!(
            text,
            "check failed: incremental fast path slower than from-scratch sequential ({:.2}x)",
            report.speedup()
        );
        sound = false;
    }
    HarnessOutput::new("throughput", text, throughput_series(&report), sound)
}

/// Render the run as a fixed-width text report.
pub fn render_report(report: &ThroughputReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "throughput: tandem n={} U={:.2}, {} ops, seed {}, {} workers",
        report.cfg.n,
        report.cfg.u.to_f64(),
        report.cfg.ops,
        report.cfg.seed,
        report.cfg.workers
    );
    let _ = writeln!(
        s,
        "{:<12} {:>8} {:>10} {:>12} {:>14}",
        "mode", "commits", "rollbacks", "wall_ms", "admits/sec"
    );
    for m in &report.modes {
        let _ = writeln!(
            s,
            "{:<12} {:>8} {:>10} {:>12.2} {:>14.1}",
            m.label,
            m.commits,
            m.rollbacks,
            m.wall_us as f64 / 1000.0,
            m.admissions_per_sec
        );
    }
    for m in &report.mismatches {
        let _ = writeln!(s, "MISMATCH: {m}");
    }
    if report.sound() {
        let _ = writeln!(
            s,
            "all modes bit-identical; incremental speedup over scratch-seq: {:.2}x",
            report.speedup()
        );
    } else {
        let _ = writeln!(s, "MISMATCHES: {}", report.mismatches.len());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ThroughputConfig {
        ThroughputConfig {
            n: 3,
            ops: 14,
            seed: 5,
            workers: 2,
            ..ThroughputConfig::default()
        }
    }

    #[test]
    fn all_modes_agree_and_commit() {
        let report = run_throughput(&small());
        assert!(report.sound(), "{}", render_report(&report));
        assert_eq!(report.modes.len(), 3);
        for m in &report.modes {
            assert!(m.commits > 0, "{} committed nothing", m.label);
        }
        assert!(
            report.cache_entries > 0,
            "the shared cache memoized nothing across the fast stages"
        );
        let (a, b, c) = (
            report.modes[0].commits,
            report.modes[1].commits,
            report.modes[2].commits,
        );
        assert!(a == b && b == c, "commit counts diverge: {a} {b} {c}");
    }

    #[test]
    fn request_list_is_deterministic() {
        let cfg = small();
        let a = draw_requests(&cfg);
        let b = draw_requests(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn series_validate_against_schema() {
        let report = run_throughput(&ThroughputConfig {
            n: 2,
            ops: 8,
            seed: 3,
            workers: 2,
            ..ThroughputConfig::default()
        });
        crate::validated_json(throughput_series(&report));
        let text = render_report(&report);
        assert!(text.contains("scratch-seq"), "{text}");
    }
}
