//! Churn soundness harness: randomized admit/release sequences against
//! the durable admission engine, with two independent falsifiers.
//!
//! 1. **Certification falsifier** — the engine claims every commit
//!    leaves all live deadlines certified. After every commit the
//!    harness re-derives every bound with an *independent* analysis
//!    run ([`Integrated::paper`] through [`certify`], not the engine's
//!    guarded runner) and flags any deadline the independent run says
//!    is missed. A flagged deadline means the engine acknowledged a
//!    mutation its own certificate does not cover — the one thing this
//!    harness exists to catch.
//! 2. **Durability falsifier** — after the sequence, the write-ahead
//!    journal is cut at random byte offsets (a simulated crash
//!    mid-write). Recovery from each cut must land *exactly* on the
//!    state after some prefix of committed operations: the replayed
//!    prefix is folded by plain list arithmetic — no engine code — and
//!    the recovered engine's canonical state must match it
//!    byte-for-byte, twice (recovery itself must be deterministic).
//!
//! Sequences use the same per-scenario seed derivation as the chaos
//! harness, so `--seq K` of a master seed replays alone, bit-exact.

use crate::chaos::scenario_rng;
use crate::{paper_tandem, HarnessOutput};
use dnc_core::admission::certify;
use dnc_core::integrated::Integrated;
use dnc_net::{Network, ServerId};
use dnc_num::Rat;
use dnc_service::fs::ScratchDir;
use dnc_service::journal::replay;
use dnc_service::{AdmitRequest, ChurnEngine, EngineConfig, Op, Request, Response};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write as _;
use std::path::Path;

/// Knobs of a churn run.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Number of randomized admit/release sequences.
    pub seqs: usize,
    /// Requests per sequence.
    pub ops: usize,
    /// Master seed: the whole run is a pure function of it.
    pub seed: u64,
    /// Random journal-truncation offsets tried per sequence.
    pub kill_points: usize,
    /// Snapshot-and-rotate the journal every N committed ops. `None`
    /// (the default) keeps the full journal, which is what the raw
    /// truncation falsifier assumes; with a cadence set, the harness
    /// instead checks that recovery replays only the tail past the
    /// newest snapshot and still lands on the live state.
    pub snapshot_every: Option<u64>,
}

impl Default for ChurnConfig {
    fn default() -> ChurnConfig {
        ChurnConfig {
            seqs: 6,
            ops: 40,
            seed: 1,
            kill_points: 8,
            snapshot_every: None,
        }
    }
}

/// One sequence's outcome.
#[derive(Clone, Debug)]
pub struct SequenceOutcome {
    /// Sequence index within the run.
    pub seq: usize,
    /// Tandem size the sequence ran against.
    pub n: usize,
    /// Base work load `U` of the tandem.
    pub u: Rat,
    /// Committed operations (admits + releases).
    pub commits: u64,
    /// Rejected admits (rolled back, never journaled).
    pub rollbacks: u64,
    /// Connections still live at the end.
    pub live: usize,
    /// Independent re-certifications run (one per commit).
    pub cert_checks: usize,
    /// Certification falsifier hits: deadlines the engine left
    /// uncovered after an acknowledged commit.
    pub violations: Vec<String>,
    /// Journal truncation offsets recovered from (plus the final
    /// whole-journal recovery rounds).
    pub recovery_checks: usize,
    /// Durability falsifier hits: recoveries that did not land on a
    /// committed prefix, or were not deterministic.
    pub recovery_failures: Vec<String>,
    /// Valid journal bytes seen by the final recovery.
    pub journal_bytes: u64,
    /// Newest snapshot the final recovery loaded: `(generation, seq)`.
    pub snapshot_gen: Option<(u64, u64)>,
    /// Operations the final recovery replayed past the snapshot (the
    /// whole journal when no snapshot exists).
    pub tail_replayed: usize,
}

/// A full churn run.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// Configuration the run used.
    pub cfg: ChurnConfig,
    /// One outcome per sequence.
    pub outcomes: Vec<SequenceOutcome>,
}

impl ChurnReport {
    /// Total certification-falsifier hits across all sequences.
    pub fn violation_count(&self) -> usize {
        self.outcomes.iter().map(|o| o.violations.len()).sum()
    }

    /// Total durability-falsifier hits across all sequences.
    pub fn recovery_failure_count(&self) -> usize {
        self.outcomes
            .iter()
            .map(|o| o.recovery_failures.len())
            .sum()
    }

    /// Whether every falsifier came up empty.
    pub fn sound(&self) -> bool {
        self.violation_count() == 0 && self.recovery_failure_count() == 0
    }
}

/// Draw one admit request: a contiguous downstream span of the tandem,
/// a small token bucket, no peak cap (so even a lone flow has a
/// strictly positive bound), and a deadline tight enough to force some
/// rejections.
fn draw_admit(rng: &mut StdRng, seq: usize, k: usize, servers: usize) -> Request {
    let start = rng.gen_range(0..servers);
    let len = rng.gen_range(1..=servers - start);
    Request::Admit(AdmitRequest {
        name: format!("c{seq}-{k}"),
        route: (start..start + len).map(ServerId).collect(),
        buckets: vec![(
            Rat::from(rng.gen_range(1i64..=4)),
            Rat::new(rng.gen_range(1i128..=3), 40),
        )],
        peak: None,
        priority: 1,
        deadline: Rat::from(rng.gen_range(4i64..=120)),
    })
}

/// Fold a committed-operation prefix into the canonical state string by
/// plain list arithmetic — deliberately *not* the engine's replay code,
/// so the durability falsifiers (churn and torture) have an independent
/// oracle.
pub(crate) fn expected_state(base_flows: usize, ops: &[Op]) -> String {
    let mut admitted: Vec<&dnc_service::AdmitRequest> = Vec::new();
    for op in ops {
        match op {
            Op::Admit(a) => admitted.push(a),
            Op::Release { name } => {
                if let Some(i) = admitted.iter().position(|a| a.name == *name) {
                    admitted.remove(i);
                }
            }
        }
    }
    let mut s = format!("base {base_flows}\n");
    for a in admitted {
        s.push_str(&Op::Admit((*a).clone()).encode());
        s.push('\n');
    }
    s
}

/// Re-certify every live deadline with an independent analysis run;
/// returns falsifier hits (empty = the engine's claim holds).
fn independent_recheck(engine: &ChurnEngine, seq: usize, step: usize) -> Vec<String> {
    let deadlines = engine.deadlines();
    if deadlines.is_empty() {
        return Vec::new();
    }
    match certify(engine.network(), &deadlines, &Integrated::paper()) {
        Ok(cert) => cert
            .violations
            .iter()
            .map(|d| {
                format!(
                    "seq {seq} step {step}: flow {:?} bound {} > deadline {} under independent analysis",
                    d.flow,
                    cert.report.bound(d.flow),
                    d.deadline
                )
            })
            .collect(),
        Err(e) => vec![format!(
            "seq {seq} step {step}: independent analysis failed on committed state: {e}"
        )],
    }
}

/// Cut the journal at `kill_points` random offsets and check each
/// recovery against the independent prefix oracle.
fn kill_point_checks(
    rng: &mut StdRng,
    journal: &Path,
    base: &Network,
    kill_points: usize,
    seq: usize,
) -> (usize, Vec<String>) {
    let mut failures = Vec::new();
    let mut checks = 0;
    let Ok(bytes) = std::fs::read(journal) else {
        return (0, vec![format!("seq {seq}: cannot re-read journal")]);
    };
    let magic = dnc_service::journal::HEADER_LEN;
    if bytes.len() <= magic {
        return (0, Vec::new());
    }
    let Ok(full) = replay(journal) else {
        return (0, vec![format!("seq {seq}: full journal does not replay")]);
    };
    let killed_path = journal.with_extension("killed");
    for point in 0..kill_points {
        let cut = rng.gen_range(magic..=bytes.len());
        checks += 1;
        let fail = |m: String| format!("seq {seq} kill {point} (cut {cut}): {m}");
        if std::fs::write(&killed_path, &bytes[..cut]).is_err() {
            failures.push(fail("cannot write truncated copy".into()));
            continue;
        }
        let Ok(prefix) = replay(&killed_path) else {
            failures.push(fail("truncated journal does not replay".into()));
            continue;
        };
        // The surviving ops must be a prefix of the committed sequence.
        let committed: Vec<String> = full.ops.iter().map(Op::encode).collect();
        let survived: Vec<String> = prefix.ops.iter().map(Op::encode).collect();
        if survived.len() > committed.len() || survived[..] != committed[..survived.len()] {
            failures.push(fail("recovered ops are not a committed prefix".into()));
            continue;
        }
        let want = expected_state(base.flows().len(), &prefix.ops);
        let mut digests = Vec::new();
        let mut recovered_ok = true;
        // Recover twice: the second open sees the already-truncated
        // file and must land on the identical state (determinism).
        for round in 0..2 {
            match ChurnEngine::open(
                base.clone(),
                Vec::new(),
                EngineConfig::default(),
                &killed_path,
            ) {
                Ok((engine, info)) => {
                    if round == 0 && info.ops_replayed != prefix.ops.len() {
                        failures.push(fail(format!(
                            "replayed {} ops, journal holds {}",
                            info.ops_replayed,
                            prefix.ops.len()
                        )));
                        recovered_ok = false;
                        break;
                    }
                    if engine.canonical_state() != want {
                        failures.push(fail(format!(
                            "recovered state diverges from the committed prefix:\n{}\nvs expected\n{want}",
                            engine.canonical_state()
                        )));
                        recovered_ok = false;
                        break;
                    }
                    digests.push(engine.state_digest());
                }
                Err(e) => {
                    failures.push(fail(format!("recovery failed: {e}")));
                    recovered_ok = false;
                    break;
                }
            }
        }
        if recovered_ok && digests.windows(2).any(|w| w[0] != w[1]) {
            failures.push(fail("recovery is not deterministic".into()));
        }
    }
    let _ = std::fs::remove_file(&killed_path);
    (checks, failures)
}

/// Run one churn sequence: drive the engine through a randomized
/// admit/release mix with both falsifiers armed.
pub fn run_sequence(seq: usize, cfg: &ChurnConfig, dir: &Path) -> SequenceOutcome {
    let mut rng = scenario_rng(cfg.seed, seq);
    let n = rng.gen_range(2usize..=4);
    let u = Rat::new(rng.gen_range(2i128..=10), 20);
    let base = paper_tandem(n, u).net;
    let journal = dir.join(format!("seq{seq}.wal"));
    let _ = std::fs::remove_file(&journal);

    let mut violations = Vec::new();
    let mut cert_checks = 0;
    let mut next_name = 0usize;
    let engine_cfg = || EngineConfig {
        snapshot_every: cfg.snapshot_every,
        ..EngineConfig::default()
    };
    let (commits, rollbacks, live, live_digest) = match ChurnEngine::open(
        base.clone(),
        Vec::new(),
        engine_cfg(),
        &journal,
    ) {
        Err(e) => {
            violations.push(format!("seq {seq}: engine failed to open: {e}"));
            (0, 0, 0, None)
        }
        Ok((mut engine, _)) => {
            for step in 0..cfg.ops {
                let live_names: Vec<String> = engine.admitted().map(|q| q.name).collect();
                let req = if live_names.is_empty() || rng.gen_ratio(3, 5) {
                    next_name += 1;
                    draw_admit(&mut rng, seq, next_name, n)
                } else {
                    let victim = rng.gen_range(0..live_names.len());
                    Request::Release {
                        name: live_names.get(victim).cloned().unwrap_or_default(),
                    }
                };
                match engine.process(req) {
                    Err(e) => {
                        violations.push(format!("seq {seq} step {step}: engine error: {e}"));
                        break;
                    }
                    Ok(resp) => {
                        if resp.committed() {
                            cert_checks += 1;
                            violations.extend(independent_recheck(&engine, seq, step));
                        }
                        if let Response::Admitted {
                            bound, deadline, ..
                        } = &resp
                        {
                            if bound > deadline {
                                violations.push(format!(
                                    "seq {seq} step {step}: acknowledged bound {bound} above deadline {deadline}"
                                ));
                            }
                        }
                    }
                }
            }
            let stats = engine.stats();
            let digest = engine.state_digest();
            (
                stats.commits,
                stats.rollbacks,
                engine.admitted().count(),
                Some(digest),
            )
        }
    };

    // Final whole-journal recovery, twice: collect the recovery-banner
    // facts (journal bytes, snapshot generation, tail replayed) and
    // check the recovered state digest against the live engine and the
    // second round against the first (determinism).
    let mut recovery_checks = 0usize;
    let mut recovery_failures: Vec<String> = Vec::new();
    let mut journal_bytes = 0u64;
    let mut snapshot_gen = None;
    let mut tail_replayed = 0usize;
    let mut digests: Vec<u64> = Vec::new();
    for round in 0..2 {
        match ChurnEngine::open(base.clone(), Vec::new(), engine_cfg(), &journal) {
            Ok((engine, info)) => {
                recovery_checks += 1;
                if round == 0 {
                    journal_bytes = info.valid_len;
                    snapshot_gen = info.snapshot;
                    tail_replayed = info.ops_replayed;
                    if let Some((gen, snap_seq)) = info.snapshot {
                        if info.ops_replayed as u64 != info.committed_seq.saturating_sub(snap_seq) {
                            recovery_failures.push(format!(
                                "seq {seq}: snapshot gen {gen} at seq {snap_seq} but {} op(s) \
                                 replayed to reach seq {} — recovery is not tail-only",
                                info.ops_replayed, info.committed_seq
                            ));
                        }
                    }
                    if let Some(every) = cfg.snapshot_every {
                        if info.ops_replayed as u64 >= every.max(1) * 2 {
                            recovery_failures.push(format!(
                                "seq {seq}: replayed {} op(s) at snapshot cadence {every} — \
                                 compaction is not bounding the tail",
                                info.ops_replayed
                            ));
                        }
                    }
                }
                digests.push(engine.state_digest());
            }
            Err(e) => recovery_failures.push(format!("seq {seq} recovery round {round}: {e}")),
        }
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        recovery_failures.push(format!("seq {seq}: final recovery is not deterministic"));
    }
    if let (Some(live), Some(rec)) = (&live_digest, digests.first()) {
        if live != rec {
            recovery_failures.push(format!(
                "seq {seq}: recovered state digest diverges from the live engine"
            ));
        }
    }

    // The raw truncation falsifier assumes an unrotated journal whose
    // first op is seq 0; with compaction on, the tail-only checks above
    // replace it.
    if cfg.snapshot_every.is_none() {
        let (kp_checks, kp_failures) =
            kill_point_checks(&mut rng, &journal, &base, cfg.kill_points, seq);
        recovery_checks += kp_checks;
        recovery_failures.extend(kp_failures);
    }
    let _ = std::fs::remove_file(&journal);

    dnc_telemetry::counter("churn.sequences", 1);
    if !violations.is_empty() {
        dnc_telemetry::counter("churn.violations", violations.len() as u64);
    }
    if !recovery_failures.is_empty() {
        dnc_telemetry::counter("churn.recovery_failures", recovery_failures.len() as u64);
    }

    SequenceOutcome {
        seq,
        n,
        u,
        commits,
        rollbacks,
        live,
        cert_checks,
        violations,
        recovery_checks,
        recovery_failures,
        journal_bytes,
        snapshot_gen,
        tail_replayed,
    }
}

/// Run the whole harness. Deterministic in `cfg` (journals live in a
/// private scratch directory, removed when the run ends).
pub fn run_churn(cfg: &ChurnConfig) -> ChurnReport {
    let _span = dnc_telemetry::span("churn.run");
    let dir = ScratchDir::new("churn");
    let outcomes = (0..cfg.seqs)
        .map(|seq| run_sequence(seq, cfg, &dir))
        .collect();
    ChurnReport {
        cfg: cfg.clone(),
        outcomes,
    }
}

/// Replay one sequence of the run `cfg` describes, alone and bit-exact.
pub fn replay_sequence(cfg: &ChurnConfig, seq: usize) -> SequenceOutcome {
    run_sequence(seq, cfg, &ScratchDir::new("churn"))
}

/// `dnc churn`: the whole sweep, or sequence `replay` of it alone
/// (bit-exact, written nowhere). Unsound when either falsifier fires.
pub fn harness(cfg: &ChurnConfig, replay: Option<usize>) -> HarnessOutput {
    match replay {
        Some(seq) => {
            let report = ChurnReport {
                cfg: cfg.clone(),
                outcomes: vec![replay_sequence(cfg, seq)],
            };
            HarnessOutput::replay("churn", render_report(&report), report.sound())
        }
        None => {
            let report = run_churn(cfg);
            let (text, sound) = (render_report(&report), report.sound());
            HarnessOutput::new("churn", text, churn_series(&report), sound)
        }
    }
}

/// The run as `dnc-metrics/v1` series: one row per sequence.
pub fn churn_series(report: &ChurnReport) -> Vec<dnc_telemetry::export::Series> {
    use crate::column;
    use dnc_telemetry::export::{Cell, Series};
    use dnc_telemetry::schema::{self, ColumnMeta};
    const SEQ: ColumnMeta = column("sequence", "");
    const COMMITS: ColumnMeta = column("commits", "");
    const ROLLBACKS: ColumnMeta = column("rollbacks", "");
    const LIVE: ColumnMeta = column("live connections", "");
    const CERT_CHECKS: ColumnMeta = column("independent re-certifications", "");
    const VIOLATIONS: ColumnMeta = column("certification violations", "");
    const RECOVERIES: ColumnMeta = column("kill-point recoveries", "");
    const RECOVERY_FAILURES: ColumnMeta = column("recovery failures", "");
    const JOURNAL_BYTES: ColumnMeta = column("journal bytes", "B");
    const TAIL_REPLAYED: ColumnMeta = column("tail ops replayed", "");
    let mut s = Series::new(
        "churn",
        vec![
            SEQ,
            schema::NETWORK_SIZE,
            schema::WORK_LOAD,
            COMMITS,
            ROLLBACKS,
            LIVE,
            CERT_CHECKS,
            VIOLATIONS,
            RECOVERIES,
            RECOVERY_FAILURES,
            JOURNAL_BYTES,
            TAIL_REPLAYED,
        ],
    );
    for o in &report.outcomes {
        s.push_row(vec![
            Cell::int(o.seq as u64),
            Cell::int(o.n as u64),
            Cell::Num(o.u.to_f64()),
            Cell::int(o.commits),
            Cell::int(o.rollbacks),
            Cell::int(o.live as u64),
            Cell::int(o.cert_checks as u64),
            Cell::int(o.violations.len() as u64),
            Cell::int(o.recovery_checks as u64),
            Cell::int(o.recovery_failures.len() as u64),
            Cell::int(o.journal_bytes),
            Cell::int(o.tail_replayed as u64),
        ]);
    }
    vec![s]
}

/// Render the run as a fixed-width text report.
pub fn render_report(report: &ChurnReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "churn: {} sequences x {} ops, seed {}, {} kill points each{}",
        report.cfg.seqs,
        report.cfg.ops,
        report.cfg.seed,
        report.cfg.kill_points,
        match report.cfg.snapshot_every {
            Some(every) => format!(", snapshot every {every}"),
            None => String::new(),
        }
    );
    let _ = writeln!(
        s,
        "{:>4} {:>3} {:>5} {:>8} {:>10} {:>5} {:>7} {:>10} {:>10} {:>9}",
        "seq",
        "n",
        "U",
        "commits",
        "rollbacks",
        "live",
        "cert",
        "cert_viol",
        "recoveries",
        "rec_fail"
    );
    for o in &report.outcomes {
        let _ = writeln!(
            s,
            "{:>4} {:>3} {:>5.2} {:>8} {:>10} {:>5} {:>7} {:>10} {:>10} {:>9}",
            o.seq,
            o.n,
            o.u.to_f64(),
            o.commits,
            o.rollbacks,
            o.live,
            o.cert_checks,
            o.violations.len(),
            o.recovery_checks,
            o.recovery_failures.len()
        );
    }
    for o in &report.outcomes {
        let _ = writeln!(
            s,
            "seq {} recovery: journal {} byte(s), {}, {} op(s) replayed since snapshot",
            o.seq,
            o.journal_bytes,
            match o.snapshot_gen {
                Some((gen, seq)) => format!("snapshot generation {gen} (seq {seq})"),
                None => "no snapshot".to_string(),
            },
            o.tail_replayed
        );
    }
    for o in &report.outcomes {
        for v in o.violations.iter().chain(&o.recovery_failures) {
            let _ = writeln!(s, "VIOLATION: {v}");
        }
    }
    if report.sound() {
        let _ = writeln!(s, "no certification or recovery violations");
    } else {
        let _ = writeln!(
            s,
            "VIOLATIONS: {} certification, {} recovery",
            report.violation_count(),
            report.recovery_failure_count()
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChurnConfig {
        ChurnConfig {
            seqs: 2,
            ops: 16,
            seed: 7,
            kill_points: 4,
            snapshot_every: None,
        }
    }

    #[test]
    fn churn_run_is_sound_and_exercises_both_paths() {
        let report = run_churn(&small());
        assert!(report.sound(), "{}", render_report(&report));
        let commits: u64 = report.outcomes.iter().map(|o| o.commits).sum();
        assert!(commits > 0, "no sequence committed anything");
        let recoveries: usize = report.outcomes.iter().map(|o| o.recovery_checks).sum();
        assert!(recoveries > 0, "no kill point was exercised");
    }

    #[test]
    fn sequence_replay_matches_the_full_run() {
        let cfg = small();
        let full = run_churn(&cfg);
        for want in &full.outcomes {
            let got = replay_sequence(&cfg, want.seq);
            assert_eq!(got.n, want.n);
            assert_eq!(got.u, want.u);
            assert_eq!(got.commits, want.commits);
            assert_eq!(got.rollbacks, want.rollbacks);
            assert_eq!(got.live, want.live);
            assert_eq!(got.violations, want.violations);
            assert_eq!(got.recovery_failures, want.recovery_failures);
        }
    }

    #[test]
    fn series_validate_against_schema() {
        let report = run_churn(&ChurnConfig {
            seqs: 1,
            ops: 8,
            seed: 3,
            kill_points: 2,
            snapshot_every: None,
        });
        crate::validated_json(churn_series(&report));
        let text = render_report(&report);
        assert!(text.contains("1 sequences"), "{text}");
    }

    #[test]
    fn churn_with_compaction_stays_sound_and_bounds_the_tail() {
        let report = run_churn(&ChurnConfig {
            snapshot_every: Some(3),
            ..small()
        });
        assert!(report.sound(), "{}", render_report(&report));
        let snapped = report
            .outcomes
            .iter()
            .filter(|o| o.snapshot_gen.is_some())
            .count();
        assert!(snapped > 0, "no sequence ever snapshotted");
        for o in &report.outcomes {
            assert!(
                (o.tail_replayed as u64) < 6,
                "seq {} replayed {} ops at cadence 3",
                o.seq,
                o.tail_replayed
            );
        }
        let text = render_report(&report);
        assert!(text.contains("snapshot generation"), "{text}");
        assert!(text.contains("snapshot every 3"), "{text}");
    }

    #[test]
    fn expected_state_folds_releases() {
        let a = |name: &str| {
            Op::Admit(dnc_service::AdmitRequest {
                name: name.into(),
                route: vec![ServerId(0)],
                buckets: vec![(Rat::ONE, Rat::new(1, 8))],
                peak: None,
                priority: 1,
                deadline: Rat::from(10),
            })
        };
        let ops = vec![a("x"), a("y"), Op::Release { name: "x".into() }];
        let state = expected_state(3, &ops);
        assert!(state.starts_with("base 3\n"), "{state}");
        assert!(state.contains("admit y"), "{state}");
        assert!(!state.contains("admit x"), "{state}");
    }
}
