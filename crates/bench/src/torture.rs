//! Disk-fault torture falsifier: enumerate every storage failpoint of
//! the durable admission engine and prove fail-stop recovery at each.
//!
//! Each scenario first runs a **probe**: the full deterministic
//! admit/release workload through a counting (never-faulting) storage
//! backend, which enumerates every syscall site the run touches —
//! journal creation, each record append and fsync, every snapshot
//! publish (temp write, fsync, rename, directory fsync), and every
//! journal rotation. The probe also checks the compaction contract:
//! recovery after the run must load the newest snapshot and replay
//! *only* the journal tail past it.
//!
//! Then, for every enumerated site (times every fault kind — EIO,
//! ENOSPC, short write, crash before, crash after), the same workload
//! runs against a fresh journal with a [`FaultFs`] armed to fail at
//! exactly that site. The engine is expected to **fail stop**: the
//! in-flight operation errs, the journal handle is poisoned, and no
//! further work is acknowledged. Recovery then runs with the *real*
//! backend and must land exactly on `fold(schedule[..k])` for some `k`
//! between the acked count and acked + in-flight — folded by plain
//! list arithmetic, never the engine's replay code — twice (recovery
//! must be deterministic). An acked operation missing after recovery,
//! an operation appearing that was never journaled, a recovery error
//! (e.g. a torn snapshot accepted or a layout the stitcher cannot
//! explain), or divergent recovery rounds are all violations.
//!
//! Scenario seeds derive exactly as in the chaos/churn harnesses, so a
//! sweep is a pure function of its config.

use crate::chaos::scenario_rng;
use crate::churn::expected_state;
use crate::{paper_tandem, HarnessOutput};
use dnc_net::{Network, ServerId};
use dnc_num::Rat;
use dnc_service::fs::ScratchDir;
use dnc_service::{
    AdmitRequest, ChurnEngine, EngineConfig, FaultFs, Op, Request, StorageHandle, FAULT_KINDS,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Knobs of a torture sweep.
#[derive(Clone, Debug)]
pub struct TortureConfig {
    /// Independent scenarios (workload + site sweep) per run.
    pub scenarios: usize,
    /// Requests per scenario workload.
    pub ops: usize,
    /// Master seed: the whole sweep is a pure function of it.
    pub seed: u64,
    /// Snapshot-and-rotate the journal every N committed ops (the
    /// sweep exists to hit the publish/rotate failpoints, so this is
    /// always on; keep it small relative to `ops`).
    pub snapshot_every: u64,
    /// Visit every `stride`-th failpoint (1 = all of them).
    pub stride: usize,
}

impl Default for TortureConfig {
    fn default() -> TortureConfig {
        TortureConfig {
            scenarios: 2,
            ops: 12,
            seed: 1,
            snapshot_every: 4,
            stride: 1,
        }
    }
}

/// One workload step: a single request, or a group-committed batch.
#[derive(Clone, Debug)]
enum Step {
    One(Request),
    Batch(Vec<Request>),
}

/// One scenario's outcome.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scenario index within the sweep.
    pub scenario: usize,
    /// Tandem size the workload ran against.
    pub n: usize,
    /// Base work load `U` of the tandem.
    pub u: Rat,
    /// Storage syscall sites the probe enumerated.
    pub sites: u64,
    /// Fault-injection runs (visited sites x fault kinds).
    pub runs: usize,
    /// Runs in which the armed fault actually tripped.
    pub faults_tripped: usize,
    /// Post-fault recoveries performed (two per run).
    pub recoveries: usize,
    /// Operations acknowledged across all fault runs.
    pub acked_total: u64,
    /// Falsifier hits: lost acks, phantom ops, recovery errors,
    /// non-deterministic recovery, or a broken compaction contract.
    pub violations: Vec<String>,
}

/// A full torture sweep.
#[derive(Clone, Debug)]
pub struct TortureReport {
    /// Configuration the sweep used.
    pub cfg: TortureConfig,
    /// One outcome per scenario.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl TortureReport {
    /// Total falsifier hits across all scenarios.
    pub fn violation_count(&self) -> usize {
        self.outcomes.iter().map(|o| o.violations.len()).sum()
    }

    /// Whether every injected fault was survived without loss.
    pub fn sound(&self) -> bool {
        self.violation_count() == 0
    }
}

/// Draw a deterministic workload whose every request commits on a
/// fault-free run: admits carry deadlines far above any bound the
/// small tandem can produce, and releases target names the schedule
/// itself knows are live — so the acked/pending ledger in a fault run
/// is exact without consulting engine state.
fn draw_schedule(rng: &mut StdRng, scenario: usize, servers: usize, ops: usize) -> Vec<Step> {
    let mut live: Vec<String> = Vec::new();
    let mut next = 0usize;
    let mut draw_one = |rng: &mut StdRng, live: &mut Vec<String>| -> Request {
        if live.is_empty() || rng.gen_ratio(7, 10) {
            next += 1;
            let name = format!("t{scenario}-{next}");
            live.push(name.clone());
            let start = rng.gen_range(0..servers);
            let len = rng.gen_range(1..=servers - start);
            Request::Admit(AdmitRequest {
                name,
                route: (start..start + len).map(ServerId).collect(),
                buckets: vec![(
                    Rat::from(rng.gen_range(1i64..=2)),
                    Rat::new(rng.gen_range(1i128..=2), 40),
                )],
                peak: None,
                priority: 1,
                deadline: Rat::from(rng.gen_range(1000i64..=2000)),
            })
        } else {
            let victim = rng.gen_range(0..live.len());
            Request::Release {
                name: live.remove(victim),
            }
        }
    };
    (0..ops)
        .map(|step| {
            if step % 5 == 4 {
                Step::Batch(vec![draw_one(rng, &mut live), draw_one(rng, &mut live)])
            } else {
                Step::One(draw_one(rng, &mut live))
            }
        })
        .collect()
}

/// The committed operation a request journals (admits and releases
/// only — the workload never draws queries).
fn op_of(req: &Request) -> Option<Op> {
    match req {
        Request::Admit(a) => Some(Op::Admit(a.clone())),
        Request::Release { name } => Some(Op::Release { name: name.clone() }),
        Request::Query { .. } => None,
    }
}

/// Flatten the schedule into journal order.
fn flatten(schedule: &[Step]) -> Vec<Op> {
    let mut ops = Vec::new();
    for step in schedule {
        match step {
            Step::One(req) => ops.extend(op_of(req)),
            Step::Batch(reqs) => ops.extend(reqs.iter().filter_map(op_of)),
        }
    }
    ops
}

fn engine_cfg(cfg: &TortureConfig) -> EngineConfig {
    EngineConfig {
        snapshot_every: Some(cfg.snapshot_every.max(1)),
        ..EngineConfig::default()
    }
}

/// Drive the workload against a fault-armed backend; returns the count
/// of acked ops, the ops in flight when the fault struck, and protocol
/// violations seen *before* recovery (an op acked after the engine
/// first errored would show up here).
fn drive_faulted(
    base: &Network,
    cfg: &TortureConfig,
    schedule: &[Step],
    path: &Path,
    fs: StorageHandle,
    tag: &str,
) -> (usize, usize, Vec<String>) {
    let mut violations = Vec::new();
    let mut acked = 0usize;
    let mut pending = 0usize;
    match ChurnEngine::open_with(base.clone(), Vec::new(), engine_cfg(cfg), path, fs) {
        Err(_) => {} // fault during journal creation: nothing acked
        Ok((mut engine, _)) => {
            'drive: for (stepno, step) in schedule.iter().enumerate() {
                match step {
                    Step::One(req) => match engine.process(req.clone()) {
                        Ok(resp) => {
                            if resp.committed() {
                                acked += 1;
                            } else {
                                violations.push(format!(
                                    "{tag} step {stepno}: fault-free prefix refused {resp:?}"
                                ));
                            }
                        }
                        Err(_) => {
                            pending = 1;
                            break 'drive;
                        }
                    },
                    Step::Batch(reqs) => {
                        let size = reqs.len();
                        match engine.process_batch(reqs.clone()) {
                            Ok(resps) => {
                                for resp in &resps {
                                    if resp.committed() {
                                        acked += 1;
                                    } else {
                                        violations.push(format!(
                                            "{tag} step {stepno}: fault-free prefix refused {resp:?}"
                                        ));
                                    }
                                }
                            }
                            Err(_) => {
                                pending = size;
                                break 'drive;
                            }
                        }
                    }
                }
            }
        }
    }
    (acked, pending, violations)
}

/// Recover `path` with the real backend, twice, and check the landed
/// state against the independent prefix oracle: it must equal
/// `fold(ops[..k])` for exactly one `k` in `acked..=acked+pending`,
/// with `committed_seq == k`, identically across both rounds.
fn check_recovery(
    base: &Network,
    cfg: &TortureConfig,
    path: &Path,
    ops: &[Op],
    acked: usize,
    pending: usize,
    tag: &str,
) -> (usize, Vec<String>) {
    let mut violations = Vec::new();
    let mut recoveries = 0;
    let base_flows = base.flows().len();
    let hi = (acked + pending).min(ops.len());
    let mut first: Option<(u64, u64)> = None; // (digest, committed_seq)
    for round in 0..2 {
        match ChurnEngine::open(base.clone(), Vec::new(), engine_cfg(cfg), path) {
            Err(e) => {
                violations.push(format!("{tag} recovery round {round}: {e}"));
                return (recoveries, violations);
            }
            Ok((engine, info)) => {
                recoveries += 1;
                let state = engine.canonical_state();
                let matched = (acked..=hi).find(|&k| {
                    expected_state(base_flows, &ops[..k]) == state && info.committed_seq == k as u64
                });
                match matched {
                    None => violations.push(format!(
                        "{tag} recovery round {round}: state (seq {}) is not \
                         fold(schedule[..k]) for any k in {acked}..={hi} — an acked op \
                         was lost or a phantom op appeared",
                        info.committed_seq
                    )),
                    Some(k) => {
                        if let Some((_, snap_seq)) = info.snapshot {
                            if info.ops_replayed as u64 != (k as u64).saturating_sub(snap_seq) {
                                violations.push(format!(
                                    "{tag} recovery round {round}: snapshot at seq {snap_seq} \
                                     but {} op(s) replayed to reach seq {k} — not tail-only",
                                    info.ops_replayed
                                ));
                            }
                        }
                    }
                }
                match first {
                    None => first = Some((engine.state_digest(), info.committed_seq)),
                    Some(want) => {
                        if want != (engine.state_digest(), info.committed_seq) {
                            violations.push(format!("{tag}: recovery is not deterministic"));
                        }
                    }
                }
            }
        }
    }
    (recoveries, violations)
}

/// Remove a fault run's journal plus its snapshot/rotation siblings.
fn cleanup(path: &Path) {
    if let (Some(dir), Some(stem)) = (path.parent(), path.file_name().and_then(|s| s.to_str())) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().starts_with(stem) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// Run one scenario: probe the failpoint count and compaction
/// contract, then sweep every visited site across every fault kind.
pub fn run_scenario(scenario: usize, cfg: &TortureConfig, dir: &Path) -> ScenarioOutcome {
    let mut rng = scenario_rng(cfg.seed, scenario);
    let n = rng.gen_range(2usize..=3);
    let u = Rat::new(rng.gen_range(2i128..=8), 20);
    let base = paper_tandem(n, u).net;
    let schedule = draw_schedule(&mut rng, scenario, n, cfg.ops);
    let ops = flatten(&schedule);
    let mut violations = Vec::new();

    // Probe: enumerate sites on a fault-free run, then hold recovery to
    // the compaction contract (newest snapshot + tail-only replay).
    let probe_path = dir.join(format!("t{scenario}-probe.wal"));
    let probe = Arc::new(FaultFs::probe());
    let (acked, pending, mut early) = drive_faulted(
        &base,
        cfg,
        &schedule,
        &probe_path,
        probe.clone() as StorageHandle,
        &format!("scenario {scenario} probe"),
    );
    violations.append(&mut early);
    let sites = probe.sites_visited();
    if acked != ops.len() || pending != 0 {
        violations.push(format!(
            "scenario {scenario} probe: {acked} of {} ops acked with no fault armed",
            ops.len()
        ));
    }
    let (_, mut probe_violations) = check_recovery(
        &base,
        cfg,
        &probe_path,
        &ops,
        acked,
        pending,
        &format!("scenario {scenario} probe"),
    );
    violations.append(&mut probe_violations);
    if acked as u64 >= cfg.snapshot_every.max(1) {
        match ChurnEngine::open(base.clone(), Vec::new(), engine_cfg(cfg), &probe_path) {
            Ok((_, info)) if info.snapshot.is_none() => violations.push(format!(
                "scenario {scenario} probe: {acked} commits at cadence {} but recovery \
                 found no snapshot — compaction never happened",
                cfg.snapshot_every
            )),
            Ok(_) => {}
            Err(e) => violations.push(format!("scenario {scenario} probe re-open: {e}")),
        }
    }
    cleanup(&probe_path);

    // The sweep: every stride-th site, every fault kind.
    let mut runs = 0usize;
    let mut faults_tripped = 0usize;
    let mut recoveries = 0usize;
    let mut acked_total = 0u64;
    let mut site = 0u64;
    while site < sites {
        for kind in FAULT_KINDS {
            runs += 1;
            let tag = format!("scenario {scenario} site {site} kind {kind}");
            let path = dir.join(format!("t{scenario}-s{site}-{kind}.wal"));
            let fault = Arc::new(FaultFs::new(site, kind));
            let (acked, pending, mut early) = drive_faulted(
                &base,
                cfg,
                &schedule,
                &path,
                fault.clone() as StorageHandle,
                &tag,
            );
            violations.append(&mut early);
            if fault.tripped() {
                faults_tripped += 1;
            } else {
                violations.push(format!("{tag}: the armed fault never tripped"));
            }
            acked_total += acked as u64;
            let (recs, mut fails) = check_recovery(&base, cfg, &path, &ops, acked, pending, &tag);
            recoveries += recs;
            violations.append(&mut fails);
            cleanup(&path);
        }
        site += cfg.stride.max(1) as u64;
    }

    dnc_telemetry::counter("torture.scenarios", 1);
    if !violations.is_empty() {
        dnc_telemetry::counter("torture.violations", violations.len() as u64);
    }

    ScenarioOutcome {
        scenario,
        n,
        u,
        sites,
        runs,
        faults_tripped,
        recoveries,
        acked_total,
        violations,
    }
}

/// Run the whole sweep. Deterministic in `cfg` (journals live in a
/// private scratch directory, removed when the sweep ends).
pub fn run_torture(cfg: &TortureConfig) -> TortureReport {
    let _span = dnc_telemetry::span("torture.run");
    let dir = ScratchDir::new("torture");
    let outcomes = (0..cfg.scenarios)
        .map(|scenario| run_scenario(scenario, cfg, &dir))
        .collect();
    TortureReport {
        cfg: cfg.clone(),
        outcomes,
    }
}

/// `dnc torture`: the whole sweep. Unsound on any lost ack or
/// recovery divergence.
pub fn harness(cfg: &TortureConfig) -> HarnessOutput {
    let report = run_torture(cfg);
    let (text, series) = (render_report(&report), torture_series(&report));
    HarnessOutput::new("torture", text, series, report.sound())
}

/// The sweep as `dnc-metrics/v1` series: one row per scenario.
pub fn torture_series(report: &TortureReport) -> Vec<dnc_telemetry::export::Series> {
    use crate::column;
    use dnc_telemetry::export::{Cell, Series};
    use dnc_telemetry::schema::{self, ColumnMeta};
    const SCENARIO: ColumnMeta = column("scenario", "");
    const SITES: ColumnMeta = column("failpoint sites", "");
    const RUNS: ColumnMeta = column("fault runs", "");
    const TRIPPED: ColumnMeta = column("faults tripped", "");
    const RECOVERIES: ColumnMeta = column("recoveries", "");
    const ACKED: ColumnMeta = column("ops acked", "");
    const VIOLATIONS: ColumnMeta = column("violations", "");
    let mut s = Series::new(
        "torture",
        vec![
            SCENARIO,
            schema::NETWORK_SIZE,
            schema::WORK_LOAD,
            SITES,
            RUNS,
            TRIPPED,
            RECOVERIES,
            ACKED,
            VIOLATIONS,
        ],
    );
    for o in &report.outcomes {
        s.push_row(vec![
            Cell::int(o.scenario as u64),
            Cell::int(o.n as u64),
            Cell::Num(o.u.to_f64()),
            Cell::int(o.sites),
            Cell::int(o.runs as u64),
            Cell::int(o.faults_tripped as u64),
            Cell::int(o.recoveries as u64),
            Cell::int(o.acked_total),
            Cell::int(o.violations.len() as u64),
        ]);
    }
    vec![s]
}

/// Render the sweep as a fixed-width text report.
pub fn render_report(report: &TortureReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "torture: {} scenario(s) x {} ops, seed {}, snapshot every {}, site stride {}",
        report.cfg.scenarios,
        report.cfg.ops,
        report.cfg.seed,
        report.cfg.snapshot_every,
        report.cfg.stride
    );
    let _ = writeln!(
        s,
        "{:>4} {:>3} {:>5} {:>6} {:>6} {:>8} {:>11} {:>7} {:>10}",
        "scn", "n", "U", "sites", "runs", "tripped", "recoveries", "acked", "violations"
    );
    for o in &report.outcomes {
        let _ = writeln!(
            s,
            "{:>4} {:>3} {:>5.2} {:>6} {:>6} {:>8} {:>11} {:>7} {:>10}",
            o.scenario,
            o.n,
            o.u.to_f64(),
            o.sites,
            o.runs,
            o.faults_tripped,
            o.recoveries,
            o.acked_total,
            o.violations.len()
        );
    }
    for o in &report.outcomes {
        for v in &o.violations {
            let _ = writeln!(s, "VIOLATION: {v}");
        }
    }
    if report.sound() {
        let _ = writeln!(
            s,
            "no torture violations — every acked op survived every injected fault"
        );
    } else {
        let _ = writeln!(s, "VIOLATIONS: {}", report.violation_count());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TortureConfig {
        TortureConfig {
            scenarios: 1,
            ops: 5,
            seed: 11,
            snapshot_every: 2,
            stride: 3,
        }
    }

    #[test]
    fn torture_sweep_is_sound_and_trips_every_armed_fault() {
        let report = run_torture(&tiny());
        assert!(report.sound(), "{}", render_report(&report));
        let o = &report.outcomes[0];
        assert!(o.sites > 0, "probe enumerated no failpoints");
        assert!(o.runs > 0 && o.faults_tripped == o.runs, "{o:?}");
        assert!(o.recoveries == 2 * o.runs, "{o:?}");
    }

    #[test]
    fn torture_is_deterministic_in_its_seed() {
        let a = run_torture(&tiny());
        let b = run_torture(&tiny());
        assert_eq!(a.outcomes[0].sites, b.outcomes[0].sites);
        assert_eq!(a.outcomes[0].acked_total, b.outcomes[0].acked_total);
        assert_eq!(a.outcomes[0].violations, b.outcomes[0].violations);
    }

    #[test]
    fn a_lost_ack_is_flagged() {
        // Feed the oracle a recovered journal that is missing the last
        // acked op: pretend one more op was acked than was journaled.
        let dir = ScratchDir::new("torture-lost-ack");
        let cfg = tiny();
        let mut rng = scenario_rng(cfg.seed, 0);
        let n = rng.gen_range(2usize..=3);
        let u = Rat::new(rng.gen_range(2i128..=8), 20);
        let base = paper_tandem(n, u).net;
        let schedule = draw_schedule(&mut rng, 0, n, cfg.ops);
        let ops = flatten(&schedule);
        let path = dir.join("lost-ack.wal");
        let probe = Arc::new(FaultFs::probe());
        let (acked, _, _) = drive_faulted(
            &base,
            &cfg,
            &schedule,
            &path,
            probe as StorageHandle,
            "lost-ack",
        );
        assert_eq!(acked, ops.len());
        // Claim one phantom ack beyond the journaled history: recovery
        // cannot produce it, so the oracle must flag the loss.
        let (_, violations) = check_recovery(&base, &cfg, &path, &ops, acked + 1, 0, "lost-ack");
        assert!(
            violations.iter().any(|v| v.contains("acked op was lost")),
            "{violations:?}"
        );
    }

    #[test]
    fn series_validate_against_schema() {
        let report = run_torture(&tiny());
        crate::validated_json(torture_series(&report));
        let text = render_report(&report);
        assert!(text.contains("1 scenario(s)"), "{text}");
    }
}
