//! Throughput harness: certification work and admissions/sec of the
//! churn engine across two certification modes over one deterministic
//! request sequence.
//!
//! The modes differ **only** in how the engine certifies — never in what
//! it answers:
//!
//! * `scratch-seq` — every certification from scratch: the baseline.
//! * `incremental` — re-certification off the previous accepted
//!   analysis, recomputing only the pairing groups a mutation reaches.
//!
//! Both share the process-wide memo tables, so the work measure is not
//! wall time but [`ModeOutcome::units`]: the pairing units the
//! Integrated certifications computed, whatever ran before.
//!
//! Every mode replays the *same* pre-drawn request list against the
//! same base network, and the harness fingerprints every response
//! (names, exact `Rat` bounds, deadlines) plus the final engine state
//! digest. Any cross-mode difference is a soundness violation, reported
//! in [`ThroughputReport::mismatches`] — saved work is only meaningful if
//! the answers are bit-identical.

use crate::chaos::scenario_rng;
use crate::{paper_tandem, HarnessOutput};
use dnc_num::Rat;
use dnc_service::{AdmitRequest, ChurnEngine, EngineConfig, Request, Response};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write as _;

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
}

impl Default for ThroughputConfig {
    fn default() -> ThroughputConfig {
        ThroughputConfig {
            n: 10,
            u: Rat::new(6, 20),
            ops: 48,
            seed: 1,
        }
    }
}

/// One certification mode's measurement.
#[derive(Clone, Debug)]
pub struct ModeOutcome {
    /// Mode label (`scratch-seq`, `incremental`).
    pub label: &'static str,
    /// Committed operations (admits + releases).
    pub commits: u64,
    /// Rejections rolled back.
    pub rollbacks: u64,
    /// Pairing units the Integrated certifications computed
    /// ([`dnc_service::EngineStats::units_computed`]).
    pub units: u64,
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

    /// True when the incremental mode computed strictly fewer pairing
    /// units than the from-scratch sequential baseline.
    pub fn incremental_saves_work(&self) -> bool {
        match (self.mode("incremental"), self.mode("scratch-seq")) {
            (Some(inc), Some(base)) => inc.units < base.units,
            _ => false,
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
            units: stats.units_computed,
            wall_us,
            admissions_per_sec: stats.commits as f64 / secs,
        },
        prints,
        engine.state_digest(),
    )
}

/// Run both modes over one request list and cross-check them.
pub fn run_throughput(cfg: &ThroughputConfig) -> ThroughputReport {
    let _span = dnc_telemetry::span("throughput.run");
    let reqs = draw_requests(cfg);
    let plan: [(&'static str, EngineConfig); 2] = [
        (
            "scratch-seq",
            EngineConfig {
                incremental: false,
                ..EngineConfig::default()
            },
        ),
        (
            "incremental",
            EngineConfig {
                incremental: true,
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
    const UNITS: ColumnMeta = column("pairing units computed", "");
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
            UNITS,
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
            Cell::int(m.units),
            Cell::int(m.wall_us),
            Cell::Num(m.admissions_per_sec),
            Cell::int(report.mismatches.len() as u64),
        ]);
    }
    vec![s]
}

/// `dnc throughput`: run both modes. Unsound on any cross-mode
/// mismatch, or — with `check` — unless the incremental mode computed
/// strictly fewer pairing units than from-scratch sequential. Wall times
/// are reported, never checked.
pub fn harness(cfg: &ThroughputConfig, check: bool) -> HarnessOutput {
    let report = run_throughput(cfg);
    let mut text = render_report(&report);
    let mut sound = report.sound();
    if sound && check && !report.incremental_saves_work() {
        let _ = writeln!(
            text,
            "check failed: incremental mode computed no fewer pairing units than scratch-seq"
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
        "throughput: tandem n={} U={:.2}, {} ops, seed {}",
        report.cfg.n,
        report.cfg.u.to_f64(),
        report.cfg.ops,
        report.cfg.seed
    );
    let _ = writeln!(
        s,
        "{:<12} {:>8} {:>10} {:>8} {:>12} {:>14}",
        "mode", "commits", "rollbacks", "units", "wall_ms", "admits/sec"
    );
    for m in &report.modes {
        let _ = writeln!(
            s,
            "{:<12} {:>8} {:>10} {:>8} {:>12.2} {:>14.1}",
            m.label,
            m.commits,
            m.rollbacks,
            m.units,
            m.wall_us as f64 / 1000.0,
            m.admissions_per_sec
        );
    }
    for m in &report.mismatches {
        let _ = writeln!(s, "MISMATCH: {m}");
    }
    if report.sound() {
        let units = |label| report.mode(label).map_or(0, |m| m.units);
        let (inc, base) = (units("incremental"), units("scratch-seq"));
        let _ = writeln!(
            s,
            "all modes bit-identical; incremental computed {inc} of scratch-seq's {base} pairing units ({:.2}x)",
            inc as f64 / base.max(1) as f64
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
            ..ThroughputConfig::default()
        }
    }

    #[test]
    fn all_modes_agree_and_commit() {
        let report = run_throughput(&small());
        assert!(report.sound(), "{}", render_report(&report));
        assert_eq!(report.modes.len(), 2);
        for m in &report.modes {
            assert!(m.commits > 0, "{} committed nothing", m.label);
        }
        let units = |label| report.mode(label).map(|m| m.units).unwrap_or(0);
        assert!(units("scratch-seq") > 0);
        assert!(
            report.incremental_saves_work(),
            "incremental computed {} units, scratch-seq {}",
            units("incremental"),
            units("scratch-seq")
        );
        let (a, b) = (report.modes[0].commits, report.modes[1].commits);
        assert_eq!(a, b, "commit counts diverge");
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
            ..ThroughputConfig::default()
        });
        crate::validated_json(throughput_series(&report));
        let text = render_report(&report);
        assert!(text.contains("scratch-seq"), "{text}");
    }
}
