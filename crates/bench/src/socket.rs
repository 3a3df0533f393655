//! Socket acks/sec harness: group commit vs per-op fsync over the real
//! TCP front end.
//!
//! Eight (configurable) concurrent clients pipeline the same
//! admit/release workload through `dnc_service::server` twice — once
//! with `batch = 1` (every committed op pays its own journal fsync) and
//! once with the configured group-commit batch — and the harness
//! reports the journal group commits and the end-to-end acknowledged
//! operations per second of each mode. `--check` asks only the
//! timing-free question: did grouping write strictly fewer commits?
//!
//! Like the throughput harness, speed is only meaningful if the answers
//! are right: after each mode the journal is replayed into a fresh
//! engine and its state digest must equal the served engine's, every
//! reply must be a positive acknowledgment, and the journal must hold
//! exactly one op per acknowledgment. Divergences land in
//! [`SocketReport::mismatches`].
//!
//! The workload is deliberately certification-light (a single-server
//! network, one tiny bucket per admit, alternating admit/release so the
//! live set stays bounded): the harness isolates the *commit path* —
//! fsync amortization — not the analysis engine, which the throughput
//! harness already covers.

use crate::trajectory::time_micros;
use crate::HarnessOutput;
use dnc_net::{Network, Server};
use dnc_service::fs::ScratchDir;
use dnc_service::server::{self, ServerConfig};
use dnc_service::{ChurnEngine, EngineConfig, Journal, Op, Request, Response};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Knobs of a socket bench run.
#[derive(Clone, Debug)]
pub struct SocketConfig {
    /// Concurrent pipelining clients.
    pub clients: usize,
    /// Requests each client sends (alternating admit/release).
    pub ops_per_client: usize,
    /// Group-commit batch of the `grouped` mode (`per-op` pins 1).
    pub batch: usize,
    /// Run seed (names only — the workload is otherwise fixed).
    pub seed: u64,
}

impl Default for SocketConfig {
    fn default() -> SocketConfig {
        SocketConfig {
            clients: 8,
            ops_per_client: 12,
            batch: 8,
            seed: 1,
        }
    }
}

/// One commit mode's measurement.
#[derive(Clone, Debug)]
pub struct SocketOutcome {
    /// `per-op` (batch 1) or `grouped` (batch = cfg.batch).
    pub label: &'static str,
    /// Acknowledged committed operations across all clients.
    pub acked: u64,
    /// Concurrent window: the slowest client's request→last-ack wall.
    pub wall_us: u64,
    /// `acked` per second of that window.
    pub acks_per_sec: f64,
    /// Journal records written (group commits; == `acked` when batch=1).
    pub group_commits: u64,
}

/// A full socket bench run: both modes plus soundness divergences.
#[derive(Clone, Debug)]
pub struct SocketReport {
    /// Configuration the run used.
    pub cfg: SocketConfig,
    /// `per-op` first, then `grouped`.
    pub modes: Vec<SocketOutcome>,
    /// Wrong replies, journal/state divergences (empty = sound).
    pub mismatches: Vec<String>,
}

impl SocketReport {
    /// Look a mode up by label.
    pub fn mode(&self, label: &str) -> Option<&SocketOutcome> {
        self.modes.iter().find(|m| m.label == label)
    }

    /// True when every reply and both journals checked out.
    pub fn sound(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// True when grouped mode wrote strictly fewer journal group commits
    /// than per-op mode (which writes one per acknowledged op).
    pub fn grouping_saves_commits(&self) -> bool {
        match (self.mode("grouped"), self.mode("per-op")) {
            (Some(g), Some(p)) => g.group_commits < p.group_commits,
            _ => false,
        }
    }

    /// Grouped acks/sec over per-op acks/sec (> 1.0 = batching wins).
    /// Reported only: wall time depends on the machine and its load.
    pub fn speedup(&self) -> f64 {
        match (self.mode("grouped"), self.mode("per-op")) {
            (Some(g), Some(p)) if p.acks_per_sec > 0.0 => g.acks_per_sec / p.acks_per_sec,
            _ => 0.0,
        }
    }
}

/// Single-server base: admission cost is a few curve operations, so the
/// journal fsync dominates each commit.
fn tiny_net() -> Network {
    let mut net = Network::new();
    net.add_server(Server::unit_fifo("hop0"));
    net
}

/// The line a client sends for its `k`-th request: alternating
/// admit/release of a per-client connection name, so the live set never
/// exceeds the client count and certification cost stays flat.
fn request_line(seed: u64, client: usize, k: usize) -> String {
    let name = format!("s{seed}c{client}o{}", k / 2);
    if k.is_multiple_of(2) {
        format!("admit {name} deadline 1000 prio 0 peak - route 0 buckets 1 1/4096")
    } else {
        format!("release {name}")
    }
}

fn decode(line: &str) -> Result<Request, String> {
    match Op::decode(line) {
        Ok(Op::Admit(a)) => Ok(Request::Admit(a.into())),
        Ok(Op::Release { name }) => Ok(Request::Release { name }),
        Err(e) => Err(format!("ERR {e}")),
    }
}

fn render(r: &Response) -> String {
    match r {
        Response::Admitted { name, .. } => format!("ADMIT {name}"),
        Response::Rejected { name, reason } => format!("REJECT {name}: {reason}"),
        Response::Released { name } => format!("RELEASE {name}"),
        Response::ReleaseFailed { name, reason } => format!("RELFAIL {name}: {reason}"),
        Response::Queried { entries } => format!("QUERY {}", entries.len()),
        Response::Shed { name, reason, .. } => format!("SHED {name}: {reason}"),
    }
}

/// One pipelining client: write every request line, then read exactly
/// one reply per request. Returns (wall_us, positive acks, problems).
fn client_session(
    addr: std::net::SocketAddr,
    seed: u64,
    client: usize,
    ops: usize,
) -> (u64, u64, Vec<String>) {
    let mut problems = Vec::new();
    let Ok(stream) = TcpStream::connect(addr) else {
        return (0, 0, vec![format!("client {client}: connect failed")]);
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => return (0, 0, vec![format!("client {client}: clone: {e}")]),
    };
    let mut reader = BufReader::new(stream);
    let mut acked = 0u64;
    let ((), wall_us) = time_micros(|| {
        let mut script = String::new();
        for k in 0..ops {
            let _ = writeln!(script, "{}", request_line(seed, client, k));
        }
        if writer.write_all(script.as_bytes()).is_err() || writer.flush().is_err() {
            problems.push(format!("client {client}: request write failed"));
            return;
        }
        let mut line = String::new();
        for k in 0..ops {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    problems.push(format!("client {client}: EOF at reply {k}"));
                    return;
                }
                Ok(_) => {
                    let reply = line.trim();
                    if reply.starts_with("ADMIT ") || reply.starts_with("RELEASE ") {
                        acked += 1;
                    } else {
                        problems.push(format!("client {client} reply {k}: {reply:?}"));
                    }
                }
                Err(e) => {
                    problems.push(format!("client {client}: read: {e}"));
                    return;
                }
            }
        }
    });
    (wall_us, acked, problems)
}

/// Serve one mode's full session and measure it.
fn run_mode(
    label: &'static str,
    batch: usize,
    cfg: &SocketConfig,
    wal: PathBuf,
) -> (SocketOutcome, Vec<String>) {
    let mut mismatches = Vec::new();
    let (engine, _) = ChurnEngine::open(tiny_net(), Vec::new(), EngineConfig::default(), &wal)
        .expect("fresh journal on a tiny base opens");
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener binds");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let server_cfg = ServerConfig {
        batch,
        max_conns: cfg.clients + 2,
        // Pipelined bursts must queue, not shed: shed replies would be
        // (correct) negative answers and a soundness mismatch below.
        queue_capacity: (cfg.clients * cfg.ops_per_client + 8).max(64),
        drain_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = std::thread::spawn(move || {
        server::run(
            listener,
            engine,
            server_cfg,
            Arc::new(decode),
            Arc::new(render),
            Arc::new(AtomicBool::new(false)),
        )
    });

    let clients: Vec<_> = (0..cfg.clients)
        .map(|c| {
            let seed = cfg.seed;
            let ops = cfg.ops_per_client;
            std::thread::spawn(move || client_session(addr, seed, c, ops))
        })
        .collect();
    let mut acked = 0u64;
    let mut wall_us = 0u64;
    for c in clients {
        let (w, a, problems) = c.join().expect("client thread completes");
        acked += a;
        wall_us = wall_us.max(w);
        mismatches.extend(problems);
    }

    // Drain the server, then check the journal against what was acked.
    if let Ok(stream) = TcpStream::connect(addr) {
        let mut w = &stream;
        let _ = writeln!(w, "shutdown");
        let mut bye = String::new();
        let _ = BufReader::new(&stream).read_line(&mut bye);
    }
    let (served, report) = match server.join().expect("server thread completes") {
        Ok(ok) => ok,
        Err(e) => {
            mismatches.push(format!("{label}: server failed: {e}"));
            return (
                SocketOutcome {
                    label,
                    acked,
                    wall_us,
                    acks_per_sec: 0.0,
                    group_commits: 0,
                },
                mismatches,
            );
        }
    };
    if !report.drained_clean {
        mismatches.push(format!("{label}: drain timed out with stragglers"));
    }
    let (_, replay) = Journal::resume(&wal).expect("served journal replays");
    if replay.ops.len() as u64 != acked {
        mismatches.push(format!(
            "{label}: journal holds {} op(s) but {} were acknowledged",
            replay.ops.len(),
            acked
        ));
    }
    let (recovered, _) = ChurnEngine::open(tiny_net(), Vec::new(), EngineConfig::default(), &wal)
        .expect("served journal recovers");
    if recovered.state_digest() != served.state_digest() {
        mismatches.push(format!(
            "{label}: recovered state digest {:#x} != served {:#x}",
            recovered.state_digest(),
            served.state_digest()
        ));
    }

    let secs = wall_us.max(1) as f64 / 1_000_000.0;
    (
        SocketOutcome {
            label,
            acked,
            wall_us,
            acks_per_sec: acked as f64 / secs,
            group_commits: report.stats.group_commits,
        },
        mismatches,
    )
}

/// Run both commit modes over the same workload and cross-check them.
pub fn run_socket(cfg: &SocketConfig) -> SocketReport {
    let _span = dnc_telemetry::span("socket.run");
    let dir = ScratchDir::new("socket");
    let mut modes = Vec::new();
    let mut mismatches = Vec::new();
    for (label, batch) in [("per-op", 1), ("grouped", cfg.batch.max(2))] {
        let (outcome, problems) = run_mode(label, batch, cfg, dir.join(format!("{label}.wal")));
        mismatches.extend(problems);
        modes.push(outcome);
    }
    // Same workload ⇒ both modes must acknowledge the same op count.
    if let (Some(p), Some(g)) = (modes.first(), modes.get(1)) {
        if p.acked != g.acked {
            mismatches.push(format!(
                "acked counts diverge: per-op {} vs grouped {}",
                p.acked, g.acked
            ));
        }
    }
    SocketReport {
        cfg: cfg.clone(),
        modes,
        mismatches,
    }
}

/// The run as `dnc-metrics/v1` series: one row per commit mode.
pub fn socket_series(report: &SocketReport) -> Vec<dnc_telemetry::export::Series> {
    use crate::column;
    use dnc_telemetry::export::{Cell, Series};
    use dnc_telemetry::schema::ColumnMeta;
    const MODE: ColumnMeta = column("mode", "");
    const CLIENTS: ColumnMeta = column("clients", "");
    const ACKED: ColumnMeta = column("acknowledged ops", "");
    const GROUPS: ColumnMeta = column("group commits", "");
    const WALL: ColumnMeta = column("slowest client wall", "us");
    const RATE: ColumnMeta = column("acks per second", "1/s");
    const MISMATCHES: ColumnMeta = column("soundness mismatches", "");
    let mut s = Series::new(
        "socket",
        vec![MODE, CLIENTS, ACKED, GROUPS, WALL, RATE, MISMATCHES],
    );
    for m in &report.modes {
        s.push_row(vec![
            Cell::Text(m.label.to_string()),
            Cell::int(report.cfg.clients as u64),
            Cell::int(m.acked),
            Cell::int(m.group_commits),
            Cell::int(m.wall_us),
            Cell::Num(m.acks_per_sec),
            Cell::int(report.mismatches.len() as u64),
        ]);
    }
    vec![s]
}

/// `dnc socket`: run both commit modes. Unsound on any soundness
/// mismatch, or — with `check` — unless group commit wrote strictly
/// fewer journal commits than per-op fsync. A commit count, not a
/// wall-clock ratio: acks/sec are reported, never checked.
pub fn harness(cfg: &SocketConfig, check: bool) -> HarnessOutput {
    output(run_socket(cfg), check)
}

fn output(report: SocketReport, check: bool) -> HarnessOutput {
    let mut text = render_report(&report);
    let mut sound = report.sound();
    if sound && check && !report.grouping_saves_commits() {
        let _ = writeln!(
            text,
            "check failed: group commit wrote no fewer journal commits than per-op fsync"
        );
        sound = false;
    }
    HarnessOutput::new("socket", text, socket_series(&report), sound)
}

/// Render the run as a fixed-width text report.
pub fn render_report(report: &SocketReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "socket: {} client(s) x {} op(s), grouped batch {}, seed {}",
        report.cfg.clients, report.cfg.ops_per_client, report.cfg.batch, report.cfg.seed
    );
    let _ = writeln!(
        s,
        "{:<10} {:>7} {:>14} {:>12} {:>12}",
        "mode", "acked", "group commits", "wall_ms", "acks/sec"
    );
    for m in &report.modes {
        let _ = writeln!(
            s,
            "{:<10} {:>7} {:>14} {:>12.2} {:>12.1}",
            m.label,
            m.acked,
            m.group_commits,
            m.wall_us as f64 / 1000.0,
            m.acks_per_sec
        );
    }
    for m in &report.mismatches {
        let _ = writeln!(s, "MISMATCH: {m}");
    }
    if report.sound() {
        let _ = writeln!(
            s,
            "both modes sound; group-commit speedup over per-op fsync: {:.2}x (wall clock, not checked)",
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

    #[test]
    fn both_modes_sound_and_batching_reduces_journal_records() {
        let report = run_socket(&SocketConfig {
            clients: 4,
            ops_per_client: 6,
            batch: 8,
            seed: 11,
        });
        assert!(report.sound(), "{}", render_report(&report));
        let per_op = report.mode("per-op").unwrap();
        let grouped = report.mode("grouped").unwrap();
        assert_eq!(per_op.acked, 24);
        assert_eq!(grouped.acked, 24);
        // batch=1 ⇒ one record per ack; batching must consolidate.
        assert_eq!(per_op.group_commits, per_op.acked);
        assert!(
            grouped.group_commits < grouped.acked,
            "grouped wrote {} records for {} acks",
            grouped.group_commits,
            grouped.acked
        );
    }

    #[test]
    fn series_validate_against_schema() {
        let report = run_socket(&SocketConfig {
            clients: 2,
            ops_per_client: 4,
            batch: 4,
            seed: 7,
        });
        crate::validated_json(socket_series(&report));
        assert!(render_report(&report).contains("per-op"));
    }

    #[test]
    fn check_fails_when_grouping_writes_as_many_commits() {
        let mode = |label, group_commits| SocketOutcome {
            label,
            acked: 8,
            wall_us: 1000,
            acks_per_sec: 8000.0,
            group_commits,
        };
        let report = |grouped| SocketReport {
            cfg: SocketConfig::default(),
            modes: vec![mode("per-op", 8), mode("grouped", grouped)],
            mismatches: Vec::new(),
        };
        assert!(output(report(2), true).sound);
        let out = output(report(8), true);
        assert!(!out.sound, "{}", out.text);
        assert!(out.text.contains("check failed"), "{}", out.text);
        assert!(output(report(8), false).sound, "no --check, no verdict");
    }
}
