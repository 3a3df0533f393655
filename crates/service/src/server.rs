//! Concurrent socket front end for the churn engine.
//!
//! [`run`] turns a bound [`TcpListener`] into a line-protocol admission
//! server: one **acceptor** thread hands each connection a **reader**
//! and a **writer** thread, readers decode lines into [`Job`]s, and the
//! calling thread becomes the single **commit loop** owning a
//! [`Batcher`] — so every mutation still flows through one engine, and
//! group commits batch concurrent clients' ops into one journal fsync.
//!
//! ## Ordering
//!
//! * Per connection, replies arrive in request order: the reader feeds
//!   one FIFO job channel, the batcher stages FIFO (protocol errors
//!   ride the queue as pre-rendered lines), and each connection's
//!   writer drains one ordered channel.
//! * Acknowledgments are released only after the journal fsync of the
//!   group commit containing the op ([`Batcher::flush`]), and in
//!   staging order — acknowledged commits are never reordered.
//! * Shed and displaced jobs are answered immediately with the
//!   deterministic retry-after hint; they were never committed.
//!
//! ## Drain
//!
//! A `shutdown` protocol line (or the shared flag, for embedders) stops
//! the acceptor, winds down readers at their next tick, flushes and
//! fsyncs the remaining backlog, and returns the engine. The drain
//! budget is counted in commit-loop ticks rather than wall-clock reads,
//! so the server adds no nondeterministic clock sites.

use crate::batch::{Batcher, Job, RenderFn, Work, FAIL_STOP_PREFIX};
use crate::engine::{ChurnEngine, EngineError, EngineStats};
use crate::request::Request;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Decodes one trimmed, non-empty protocol line into a [`Request`].
/// `Err` is the **complete reply line** to send back (the front end
/// owns presentation, including its error tag).
pub type DecodeFn = dyn Fn(&str) -> Result<Request, String> + Send + Sync;

/// Commit-loop tick: how often the batcher sweeps its job channel, and
/// the poll interval for the acceptor and idle readers.
const TICK_MS: u64 = 25;

/// Reader poll quantum so blocked reads notice a drain promptly.
const READ_TICK: Duration = Duration::from_millis(250);

/// Reply to a connection past `max_conns` (sent before closing).
const AT_CAPACITY_LINE: &str = "ERR     server at connection capacity; retry later";

/// Reply to the `shutdown` command, delivered after the final flush.
const GOODBYE_LINE: &str = "BYE     draining; goodbye";

/// Tuning for [`run`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Max ops per group commit (one journal record + fsync each).
    pub batch: usize,
    /// Concurrent connection cap; extras get [`AT_CAPACITY_LINE`].
    pub max_conns: usize,
    /// Pending-job capacity of the shed queue.
    pub queue_capacity: usize,
    /// Seed for deterministic retry-after hints on SHED replies.
    pub shed_seed: u64,
    /// Close a connection silent for this long (zero = never).
    pub idle_timeout: Duration,
    /// Per-connection socket write deadline (zero = none).
    pub write_timeout: Duration,
    /// How long the drain phase may wait for stragglers.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            batch: 8,
            max_conns: 64,
            queue_capacity: 64,
            shed_seed: crate::queue::DEFAULT_RETRY_SEED,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Why [`run`] stopped serving.
#[derive(Debug)]
pub enum ServerError {
    /// Listener/socket failure outside any one connection.
    Io(std::io::Error),
    /// The engine (typically its journal) failed; nothing from the
    /// failed chunk was acknowledged.
    Engine(EngineError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o: {e}"),
            ServerError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> ServerError {
        ServerError::Engine(e)
    }
}

/// What one serving run did, for footers and smoke tests.
#[derive(Clone, Debug, Default)]
pub struct ServerReport {
    /// Connections accepted (including later-rejected ones).
    pub connections: u64,
    /// Connections turned away at the `max_conns` cap.
    pub rejected_connections: u64,
    /// Protocol lines decoded into engine requests.
    pub requests: u64,
    /// Lines answered with a decode-error reply.
    pub protocol_errors: u64,
    /// Jobs answered with a SHED reply under overload.
    pub sheds: u64,
    /// Whether the drain finished with an empty backlog and no live
    /// connections inside the drain budget.
    pub drained_clean: bool,
    /// Final engine counters.
    pub stats: EngineStats,
}

/// Shared connection counters between acceptor/readers and the report.
#[derive(Default)]
struct Tallies {
    connections: AtomicU64,
    rejected: AtomicU64,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    live: AtomicUsize,
}

/// Serve `listener` until a client sends `shutdown` (or `shutdown` is
/// set by the embedder), then drain and return the engine with a
/// report. The calling thread runs the commit loop; accept and
/// per-connection I/O run on background threads.
///
/// # Errors
/// [`ServerError::Engine`] if a group commit fails (acknowledged state
/// is still exactly the journal's committed prefix), [`ServerError::Io`]
/// if the listener cannot be polled.
pub fn run(
    listener: TcpListener,
    engine: ChurnEngine,
    cfg: ServerConfig,
    decode: Arc<DecodeFn>,
    render: Arc<RenderFn>,
    shutdown: Arc<AtomicBool>,
) -> Result<(ChurnEngine, ServerReport), ServerError> {
    let _span = dnc_telemetry::span("server.run");
    listener.set_nonblocking(true)?;
    let mut batcher = Batcher::new(engine, cfg.queue_capacity, cfg.shed_seed, cfg.batch);
    let tallies = Arc::new(Tallies::default());
    let (job_tx, job_rx) = mpsc::channel::<Job>();

    let acceptor = {
        let cfg = cfg.clone();
        let shutdown = Arc::clone(&shutdown);
        let tallies = Arc::clone(&tallies);
        let decode = Arc::clone(&decode);
        std::thread::spawn(move || accept_loop(listener, job_tx, cfg, shutdown, tallies, decode))
    };

    let mut drained_clean = false;
    // Drain budget in commit-loop ticks (no wall-clock reads needed).
    let mut drain_ticks: Option<u64> = None;
    let serve_result: Result<(), ServerError> = loop {
        match job_rx.recv_timeout(Duration::from_millis(TICK_MS)) {
            Ok(job) => {
                batcher.enqueue(job, &*render);
                while let Ok(more) = job_rx.try_recv() {
                    batcher.enqueue(more, &*render);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Acceptor and every reader are gone; whatever is
                // queued is all there will ever be.
                if let Err(e) = batcher.flush(&*render) {
                    break Err(ServerError::Engine(e));
                }
                drained_clean = batcher.backlog() == 0;
                break Ok(());
            }
        }
        if let Err(e) = batcher.flush(&*render) {
            break Err(ServerError::Engine(e));
        }
        if drain_ticks.is_none() && shutdown.load(Ordering::SeqCst) {
            drain_ticks = Some((cfg.drain_timeout.as_millis() as u64 / TICK_MS).max(1));
        }
        if let Some(left) = drain_ticks {
            if tallies.live.load(Ordering::SeqCst) == 0 && batcher.backlog() == 0 {
                // Everything flushed and nobody left to produce more —
                // modulo a job racing into the channel; the sweep at
                // the top of the next iteration would have caught it,
                // so take one more sweep here instead of looping.
                let mut late = false;
                while let Ok(more) = job_rx.try_recv() {
                    batcher.enqueue(more, &*render);
                    late = true;
                }
                if late {
                    if let Err(e) = batcher.flush(&*render) {
                        break Err(ServerError::Engine(e));
                    }
                }
                drained_clean = batcher.backlog() == 0;
                break Ok(());
            }
            if left == 0 {
                break Ok(());
            }
            drain_ticks = Some(left - 1);
        }
    };

    // Stop accepting regardless of why we are leaving, then wait for
    // the acceptor (it polls every tick, so this is prompt). Reader
    // threads notice the flag at their next read tick and exit on
    // their own; their sends fail harmlessly once `job_rx` drops.
    shutdown.store(true, Ordering::SeqCst);
    let _ = acceptor.join();

    if let Err(ServerError::Engine(e)) = &serve_result {
        // Fail-stop: the journal is poisoned and nothing further will
        // ever commit. Answer every job still queued — or racing in
        // from a reader — with the terminal ERR so no client waits on
        // an acknowledgment that cannot come. (The chunk that hit the
        // failure was already answered by the batcher itself.)
        let line = format!("{FAIL_STOP_PREFIX}{e}");
        batcher.fail_pending(&line);
        while let Ok(job) = job_rx.try_recv() {
            let _ = match job.work {
                Work::Line(l) => job.reply.send(l),
                Work::Op(_) => job.reply.send(line.clone()),
            };
        }
        dnc_telemetry::counter("server.fail_stop", 1);
    }

    let report_base = ServerReport {
        connections: tallies.connections.load(Ordering::SeqCst),
        rejected_connections: tallies.rejected.load(Ordering::SeqCst),
        requests: tallies.requests.load(Ordering::SeqCst),
        protocol_errors: tallies.protocol_errors.load(Ordering::SeqCst),
        sheds: batcher.sheds(),
        drained_clean,
        stats: batcher.engine().stats(),
    };
    serve_result?;
    Ok((batcher.into_engine(), report_base))
}

/// Accept until `shutdown`; spawn a reader + writer pair per
/// connection, enforcing `max_conns` with an immediate reject line.
fn accept_loop(
    listener: TcpListener,
    job_tx: Sender<Job>,
    cfg: ServerConfig,
    shutdown: Arc<AtomicBool>,
    tallies: Arc<Tallies>,
    decode: Arc<DecodeFn>,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(TICK_MS));
                continue;
            }
            Err(_) => {
                // Transient accept failure (e.g. aborted handshake).
                std::thread::sleep(Duration::from_millis(TICK_MS));
                continue;
            }
        };
        tallies.connections.fetch_add(1, Ordering::SeqCst);
        // The accepted socket must block: readers/writers use timeouts.
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        if tallies.live.load(Ordering::SeqCst) >= cfg.max_conns {
            tallies.rejected.fetch_add(1, Ordering::SeqCst);
            dnc_telemetry::counter("server.rejected_connections", 1);
            let mut s = &stream;
            let _ = writeln!(s, "{AT_CAPACITY_LINE}");
            continue;
        }
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        tallies.live.fetch_add(1, Ordering::SeqCst);
        dnc_telemetry::counter("server.connections", 1);
        let (reply_tx, reply_rx) = mpsc::channel::<String>();
        let write_timeout = cfg.write_timeout;
        std::thread::spawn(move || write_loop(write_half, reply_rx, write_timeout));
        let job_tx = job_tx.clone();
        let shutdown = Arc::clone(&shutdown);
        let tallies = Arc::clone(&tallies);
        let decode = Arc::clone(&decode);
        let idle = cfg.idle_timeout;
        std::thread::spawn(move || {
            read_loop(stream, job_tx, reply_tx, shutdown, &tallies, &*decode, idle);
            tallies.live.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// Read protocol lines until EOF, idle timeout, a fatal read error, or
/// drain. Reads poll at [`READ_TICK`] so a blocked connection still
/// notices `shutdown`; partial lines accumulate across polls.
fn read_loop(
    stream: TcpStream,
    job_tx: Sender<Job>,
    reply_tx: Sender<String>,
    shutdown: Arc<AtomicBool>,
    tallies: &Tallies,
    decode: &DecodeFn,
    idle: Duration,
) {
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    let mut idle_for = Duration::ZERO;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match reader.read_line(&mut buf) {
            Ok(0) => return,
            Ok(_) => idle_for = Duration::ZERO,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // `buf` keeps any partial line for the next poll.
                idle_for += READ_TICK;
                if !idle.is_zero() && idle_for >= idle {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') {
            buf.clear();
            continue;
        }
        if line == "shutdown" {
            shutdown.store(true, Ordering::SeqCst);
            let _ = job_tx.send(Job {
                work: Work::Line(GOODBYE_LINE.to_string()),
                reply: reply_tx,
            });
            return;
        }
        let work = match decode(line) {
            Ok(req) => {
                tallies.requests.fetch_add(1, Ordering::SeqCst);
                Work::Op(req)
            }
            Err(reply_line) => {
                tallies.protocol_errors.fetch_add(1, Ordering::SeqCst);
                dnc_telemetry::counter("server.protocol_errors", 1);
                Work::Line(reply_line)
            }
        };
        if job_tx
            .send(Job {
                work,
                reply: reply_tx.clone(),
            })
            .is_err()
        {
            // Commit loop is gone; nothing more to do here.
            return;
        }
        buf.clear();
    }
}

/// Forward reply lines to the socket until every sender for this
/// connection (reader + queued jobs) is gone, batching opportunistic
/// back-to-back replies into one flush.
fn write_loop(stream: TcpStream, replies: Receiver<String>, write_timeout: Duration) {
    if !write_timeout.is_zero() && stream.set_write_timeout(Some(write_timeout)).is_err() {
        return;
    }
    let mut out = BufWriter::new(stream);
    while let Ok(line) = replies.recv() {
        if writeln!(out, "{line}").is_err() {
            return;
        }
        while let Ok(more) = replies.try_recv() {
            if writeln!(out, "{more}").is_err() {
                return;
            }
        }
        if out.flush().is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, Response};
    use crate::fs::ScratchDir;
    use crate::journal::{Journal, Op};
    use crate::request::Request;
    use dnc_net::{Network, Server};
    use std::net::SocketAddr;
    use std::path::PathBuf;

    fn base() -> Network {
        let mut net = Network::new();
        for i in 0..2 {
            net.add_server(Server::unit_fifo(format!("hop{i}")));
        }
        net
    }

    fn decode(line: &str) -> Result<Request, String> {
        if line == "query" {
            return Ok(Request::Query { name: None });
        }
        match Op::decode(line) {
            Ok(Op::Admit(a)) => Ok(Request::Admit(a.into())),
            Ok(Op::Release { name }) => Ok(Request::Release { name }),
            Err(e) => Err(format!("ERR     {e}")),
        }
    }

    fn render(r: &Response) -> String {
        match r {
            Response::Admitted { name, .. } => format!("ADMIT {name}"),
            Response::Rejected { name, reason } => format!("REJECT {name}: {reason}"),
            Response::Released { name } => format!("RELEASE {name}"),
            Response::ReleaseFailed { name, reason } => format!("RELFAIL {name}: {reason}"),
            Response::Queried { entries } => format!("QUERY {}", entries.len()),
            Response::Shed {
                name, retry_after, ..
            } => format!("SHED {name} retry {retry_after}"),
        }
    }

    fn admit_line(name: &str, deadline: u32) -> String {
        format!("admit {name} deadline {deadline} prio 0 peak - route 0 1 buckets 1 1/64")
    }

    /// Spawn a server over a journaled engine; returns its address and
    /// the join handle yielding (engine, report).
    #[allow(clippy::type_complexity)]
    fn spawn_server(
        journal: PathBuf,
        cfg: ServerConfig,
    ) -> (
        SocketAddr,
        std::thread::JoinHandle<Result<(ChurnEngine, ServerReport), ServerError>>,
    ) {
        let (engine, _) =
            ChurnEngine::open(base(), Vec::new(), EngineConfig::default(), &journal).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            run(
                listener,
                engine,
                cfg,
                Arc::new(decode),
                Arc::new(render),
                Arc::new(AtomicBool::new(false)),
            )
        });
        (addr, handle)
    }

    fn send_script(addr: SocketAddr, lines: &[String]) -> Vec<String> {
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        for l in lines {
            writeln!(w, "{l}").unwrap();
        }
        w.flush().unwrap();
        let reader = BufReader::new(stream);
        reader.lines().map(|l| l.unwrap()).collect()
    }

    #[test]
    fn concurrent_clients_group_commit_and_replay_in_ack_order() {
        let dir = ScratchDir::new("server-concurrent");
        let wal = dir.join("wal");
        let (addr, server) = spawn_server(
            wal.clone(),
            ServerConfig {
                batch: 8,
                drain_timeout: Duration::from_secs(10),
                ..ServerConfig::default()
            },
        );

        let clients: Vec<_> = (0..4)
            .map(|c| {
                std::thread::spawn(move || {
                    let lines = vec![
                        admit_line(&format!("c{c}a"), 40 + c),
                        admit_line(&format!("c{c}b"), 50 + c),
                        "query".to_string(),
                        format!("release c{c}a"),
                    ];
                    send_script(addr, &lines)
                })
            })
            .collect();
        let replies: Vec<Vec<String>> = clients.into_iter().map(|c| c.join().unwrap()).collect();

        // Per-connection replies arrive in request order.
        for (c, got) in replies.iter().enumerate() {
            assert_eq!(got.len(), 4, "client {c}: {got:?}");
            assert_eq!(got[0], format!("ADMIT c{c}a"));
            assert_eq!(got[1], format!("ADMIT c{c}b"));
            assert!(got[2].starts_with("QUERY "), "client {c}: {got:?}");
            assert_eq!(got[3], format!("RELEASE c{c}a"));
        }

        let shutdown: Vec<String> = send_script(addr, &["shutdown".to_string()]);
        assert_eq!(shutdown, [GOODBYE_LINE.to_string()]);
        let (engine, report) = server.join().unwrap().unwrap();
        assert!(report.drained_clean, "{report:?}");
        assert_eq!(report.requests, 16);
        assert_eq!(report.protocol_errors, 0);
        assert!(report.stats.group_commits >= 1, "{report:?}");

        // The journal's committed prefix replays to the final state:
        // every acked admit/release, nothing else.
        let (_, replay) = Journal::resume(&wal).unwrap();
        assert!(replay.tail.is_none());
        assert_eq!(replay.ops.len(), 12, "8 admits + 4 releases");
        let admitted: Vec<String> = engine.admitted().map(|e| e.name).collect();
        assert_eq!(admitted.len(), 4);
        for c in 0..4 {
            assert!(admitted.contains(&format!("c{c}b")), "{admitted:?}");
        }
    }

    #[test]
    fn storage_failure_answers_clients_with_terminal_err() {
        use crate::fs::{FaultFs, FaultKind};
        let dir = ScratchDir::new("server-failstop");
        let wal = dir.join("wal");
        // Journal creation consumes sites 0..3; site 3 is the first
        // commit's append write.
        let fs: crate::fs::StorageHandle = Arc::new(FaultFs::new(3, FaultKind::Eio));
        let (engine, _) =
            ChurnEngine::open_with(base(), Vec::new(), EngineConfig::default(), &wal, fs).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            run(
                listener,
                engine,
                ServerConfig::default(),
                Arc::new(decode),
                Arc::new(render),
                Arc::new(AtomicBool::new(false)),
            )
        });
        let got = send_script(addr, &[admit_line("doomed", 60)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(
            got[0].starts_with(FAIL_STOP_PREFIX),
            "the client must see the terminal fail-stop ERR, got {got:?}"
        );
        let result = handle.join().unwrap();
        assert!(
            matches!(result, Err(ServerError::Engine(_))),
            "the server must exit with the engine failure"
        );
        // Nothing was acknowledged, and recovery agrees: empty history.
        let (recovered, info) =
            ChurnEngine::open(base(), Vec::new(), EngineConfig::default(), &wal).unwrap();
        assert_eq!(info.committed_seq, 0);
        assert_eq!(recovered.network().flows().len(), 0);
    }

    #[test]
    fn connection_cap_rejects_with_err_line() {
        let dir = ScratchDir::new("server-cap");
        let (addr, server) = spawn_server(
            dir.join("wal"),
            ServerConfig {
                max_conns: 1,
                ..ServerConfig::default()
            },
        );
        // Hold one connection open (unfinished script keeps it live).
        let held = TcpStream::connect(addr).unwrap();
        // Give the acceptor time to register it as live.
        std::thread::sleep(Duration::from_millis(200));
        let got = send_script(addr, &[]);
        assert_eq!(got, [AT_CAPACITY_LINE.to_string()]);
        drop(held);
        std::thread::sleep(Duration::from_millis(200));
        let bye = send_script(addr, &["shutdown".to_string()]);
        assert_eq!(bye, [GOODBYE_LINE.to_string()]);
        let (_, report) = server.join().unwrap().unwrap();
        assert_eq!(report.rejected_connections, 1, "{report:?}");
    }

    #[test]
    fn protocol_errors_answer_in_order_and_do_not_kill_the_connection() {
        let dir = ScratchDir::new("server-proto");
        let (addr, server) = spawn_server(dir.join("wal"), ServerConfig::default());
        let got = send_script(
            addr,
            &[
                "# comment lines are ignored".to_string(),
                "frobnicate everything".to_string(),
                admit_line("ok", 60),
                "admit broken deadline".to_string(),
                "query".to_string(),
            ],
        );
        assert_eq!(got.len(), 4, "{got:?}");
        assert!(got[0].starts_with("ERR     "), "{got:?}");
        assert_eq!(got[1], "ADMIT ok");
        assert!(got[2].starts_with("ERR     "), "{got:?}");
        assert_eq!(got[3], "QUERY 1");
        let _ = send_script(addr, &["shutdown".to_string()]);
        let (_, report) = server.join().unwrap().unwrap();
        assert_eq!(report.protocol_errors, 2, "{report:?}");
        assert_eq!(report.requests, 2, "{report:?}");
    }
}
