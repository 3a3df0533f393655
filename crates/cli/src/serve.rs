//! `dnc serve` — drive the durable churn engine from a request script
//! or a TCP listener.
//!
//! Both modes speak the same line protocol (`#` comments), one request
//! per line:
//!
//! ```text
//! admit <name> route <server>... bucket <σ> <ρ> [bucket ...]
//!       [peak <r>] [prio <n>] deadline <d>
//! release <name>
//! query [<name>]
//! ```
//!
//! `admit` lines share the `.dnc` flow grammar (same keywords, server
//! *names* resolved against the network file).
//!
//! **Scripted mode** (`--script`): all requests are fed through the
//! same bounded shed queue the socket mode uses first — so overload
//! behavior is observable with scripts longer than `--queue`, and sheds
//! answer first — then committed in FIFO order, one journal record per
//! request, one answer per request.
//!
//! **Socket mode** (`--listen <addr>`): many concurrent clients send
//! the same request lines over TCP; replies are one line per request,
//! in each connection's request order. Committed ops are *group
//! committed* — up to `--batch` ops share one journal record and one
//! fsync — and acknowledged only after that fsync. A `shutdown` line
//! from any client drains the server: it stops accepting, flushes and
//! fsyncs the remaining batch, and exits 0.
//!
//! With `--journal <path>`, committed operations are written ahead of
//! acknowledgment; re-running `dnc serve` against an existing journal
//! first **recovers** the committed state (truncating any torn tail)
//! and then applies the script on top (or serves on top of it).

use crate::commands::CliError;
use crate::parse::{self, FlowDecl, ParseError};
use dnc_core::admission::Deadline;
use dnc_net::{Network, ServerId};
use dnc_service::server::{self, ServerConfig};
use dnc_service::{AdmitRequest, Batcher, ChurnEngine, EngineConfig, Job, Request, Response, Work};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};

/// Options for one `dnc serve` run.
pub struct ServeOptions {
    /// The `.dnc` network file (base topology + pre-existing flows).
    pub network: String,
    /// The request script (`None` only with `listen`).
    pub script: Option<String>,
    /// Write-ahead journal path (`None` = volatile engine).
    pub journal: Option<String>,
    /// Bound on the pending-request queue.
    pub queue: usize,
    /// Socket mode: address to listen on (e.g. `127.0.0.1:7000`).
    pub listen: Option<String>,
    /// Socket mode: concurrent connection cap.
    pub max_conns: usize,
    /// Socket mode: max ops per group commit (one fsync each).
    pub batch: usize,
    /// Socket mode: drain budget in seconds after `shutdown`.
    pub drain_timeout: u64,
    /// Snapshot-and-rotate the journal every N committed ops
    /// (`None` = never compact).
    pub snapshot_every: Option<u64>,
}

/// Parse one non-empty, comment-stripped request line (shared by the
/// script reader and the socket decoder).
pub fn parse_request_line(
    line: &str,
    line_no: usize,
    names: &HashMap<String, ServerId>,
) -> Result<Request, ParseError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let bad = |m: String| ParseError {
        line: line_no,
        message: m,
    };
    match toks.first().copied() {
        Some("admit") => {
            let decl: FlowDecl = parse::parse_flow(&toks, line_no)?;
            if decl.reserve.is_some() || decl.local_deadline.is_some() {
                return Err(bad(
                    "admit does not take `reserve`/`ldl` (set them in the network file)".into(),
                ));
            }
            let Some(deadline) = decl.deadline else {
                return Err(bad(format!(
                    "admit {:?} needs a `deadline <d>` to certify",
                    decl.name
                )));
            };
            let route = decl
                .route
                .iter()
                .map(|n| {
                    names
                        .get(n)
                        .copied()
                        .ok_or_else(|| bad(format!("unknown server {n:?}")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Admit(AdmitRequest {
                name: decl.name,
                route,
                buckets: decl.buckets,
                peak: decl.peak,
                priority: decl.priority,
                deadline,
            }))
        }
        Some("release") => match (toks.get(1), toks.len()) {
            (Some(name), 2) => Ok(Request::Release {
                name: (*name).to_string(),
            }),
            _ => Err(bad("usage: release <name>".into())),
        },
        Some("query") => match toks.len() {
            1 => Ok(Request::Query { name: None }),
            2 => Ok(Request::Query {
                name: toks.get(1).map(|s| (*s).to_string()),
            }),
            _ => Err(bad("usage: query [<name>]".into())),
        },
        other => Err(bad(format!(
            "unknown request {other:?} (expected admit, release, or query)"
        ))),
    }
}

/// Parse the script into requests, resolving server names via `names`.
fn parse_script(text: &str, names: &HashMap<String, ServerId>) -> Result<Vec<Request>, ParseError> {
    let mut requests = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        requests.push(parse_request_line(line, idx + 1, names)?);
    }
    Ok(requests)
}

/// One reply line (no trailing newline) per response — the socket
/// protocol's framing, and the scripted rendering of every answer but a
/// query's.
fn render_line(r: &Response) -> String {
    match r {
        Response::Admitted {
            name,
            bound,
            deadline,
            tier,
            retried,
            ..
        } => format!(
            "ADMIT   {name}: certified, bound {bound} <= deadline {deadline} (tier {tier}{})",
            if *retried { ", after budget retry" } else { "" }
        ),
        Response::Rejected { name, reason } => format!("REJECT  {name}: {reason}"),
        Response::Released { name } => format!("RELEASE {name}: ok, remaining set re-certified"),
        Response::ReleaseFailed { name, reason } => format!("RELEASE {name}: refused: {reason}"),
        Response::Queried { entries } => {
            let mut s = format!("QUERY   {} admitted", entries.len());
            for e in entries {
                let _ = write!(s, " {}", e.name);
            }
            s
        }
        Response::Shed {
            name,
            reason,
            retry_after,
        } => format!("SHED    {name}: {reason}; retry after {retry_after} tick(s)"),
    }
}

/// The scripted rendering (no trailing newline): [`render_line`], except
/// that a query lists one indented row per connection.
fn render_block(r: &Response) -> String {
    let Response::Queried { entries } = r else {
        return render_line(r);
    };
    let mut s = format!("QUERY   {} admitted", entries.len());
    for e in entries {
        let _ = write!(
            s,
            "\n        {} ({}) deadline {}",
            e.name, e.flow, e.deadline
        );
    }
    s
}

/// Build the engine (recovering the journal when given), appending any
/// recovery lines to `out`.
fn open_engine(
    opts: &ServeOptions,
    built_net: Network,
    base_deadlines: Vec<Deadline>,
    out: &mut String,
) -> Result<ChurnEngine, CliError> {
    let usage = |m: String| CliError {
        message: m,
        code: crate::commands::EXIT_USAGE,
    };
    let config = EngineConfig {
        snapshot_every: opts.snapshot_every,
        ..EngineConfig::default()
    };
    match &opts.journal {
        Some(journal) => {
            let (engine, info) = ChurnEngine::open(
                built_net,
                base_deadlines,
                config,
                std::path::Path::new(journal),
            )
            .map_err(|e| usage(format!("{journal}: {e}")))?;
            if let Some((defect, total)) = &info.tail {
                let _ = writeln!(
                    out,
                    "recovery: {defect} at byte {} of {total}; torn tail truncated",
                    info.valid_len
                );
            }
            if let Some((gen, seq)) = info.snapshot {
                let _ = writeln!(
                    out,
                    "recovery: snapshot generation {gen} restored through seq {seq}{}; \
                     journal tail {} byte(s), {} op(s) replayed since snapshot",
                    if info.snapshots_skipped > 0 {
                        format!(
                            " ({} torn/stale snapshot(s) skipped)",
                            info.snapshots_skipped
                        )
                    } else {
                        String::new()
                    },
                    info.valid_len,
                    info.ops_replayed
                );
            }
            if info.ops_replayed > 0 {
                let _ = writeln!(
                    out,
                    "recovery: replayed {} committed operation(s), {} connection(s) live",
                    info.ops_replayed,
                    engine.admitted().count()
                );
            }
            Ok(engine)
        }
        None => ChurnEngine::new(built_net, base_deadlines, config)
            .map_err(|e| usage(format!("{}: {e}", opts.network))),
    }
}

/// Run one serve session — scripted, or listening on a socket.
/// Rejections and sheds are normal service answers (exit 0); only
/// usage/script errors and journal failures are [`CliError`]s.
pub fn serve(
    opts: &ServeOptions,
    built_net: Network,
    base_deadlines: Vec<Deadline>,
) -> Result<String, CliError> {
    let usage = |m: String| CliError {
        message: m,
        code: crate::commands::EXIT_USAGE,
    };
    let names: HashMap<String, ServerId> = built_net
        .servers()
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.clone(), ServerId(i)))
        .collect();

    if opts.listen.is_some() {
        return serve_listen(opts, built_net, base_deadlines, names);
    }

    let script = opts
        .script
        .as_ref()
        .ok_or_else(|| usage("serve needs --script <requests> (or --listen <addr>)".into()))?;
    let script_text =
        std::fs::read_to_string(script).map_err(|e| usage(format!("cannot read {script}: {e}")))?;
    let requests =
        parse_script(&script_text, &names).map_err(|e| usage(format!("{script}: {e}")))?;

    let mut out = String::new();
    let engine = open_engine(opts, built_net, base_deadlines, &mut out)?;

    // Enqueue everything first so the shed policy sees the whole burst
    // (sheds are answered at once), then commit FIFO, one request per
    // journal record.
    let mut batcher = Batcher::new(engine, opts.queue, 1);
    let (reply, replies) = mpsc::channel();
    for req in requests {
        let job = Job {
            work: Work::Op(req),
            reply: reply.clone(),
        };
        batcher.enqueue(job, &render_block);
    }
    batcher
        .flush(&render_block)
        .map_err(|e| usage(format!("journal failure mid-drain: {e}")))?;
    for line in replies.try_iter() {
        let _ = writeln!(out, "{line}");
    }

    let stats = batcher.engine().stats();
    let _ = writeln!(
        out,
        "done: {} commit(s), {} rollback(s), {} shed(s), {} budget retr{}, {} connection(s) admitted",
        stats.commits,
        stats.rollbacks,
        batcher.sheds(),
        stats.retries,
        if stats.retries == 1 { "y" } else { "ies" },
        batcher.engine().admitted().count()
    );
    Ok(out)
}

/// Socket mode: serve the line protocol to concurrent TCP clients with
/// group-committed durability, then report the drained session.
fn serve_listen(
    opts: &ServeOptions,
    built_net: Network,
    base_deadlines: Vec<Deadline>,
    names: HashMap<String, ServerId>,
) -> Result<String, CliError> {
    let usage = |m: String| CliError {
        message: m,
        code: crate::commands::EXIT_USAGE,
    };
    let addr = opts.listen.as_deref().unwrap_or_default();
    let mut out = String::new();
    let engine = open_engine(opts, built_net, base_deadlines, &mut out)?;
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| usage(format!("cannot listen on {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| usage(format!("{addr}: {e}")))?;

    let cfg = ServerConfig {
        batch: opts.batch.max(1),
        max_conns: opts.max_conns.max(1),
        queue_capacity: opts.queue,
        drain_timeout: std::time::Duration::from_secs(opts.drain_timeout),
        ..ServerConfig::default()
    };

    // Recovery lines and the readiness banner must be visible *before*
    // the blocking serve loop: clients (and the CI smoke) wait on them.
    print!("{out}");
    println!(
        "listening on {local} (batch {}, queue {}, max {} conns); send `shutdown` to drain",
        cfg.batch, cfg.queue_capacity, cfg.max_conns
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    out.clear();

    let decode = move |line: &str| -> Result<Request, String> {
        parse_request_line(line, 0, &names).map_err(|e| format!("ERR     {}", e.message))
    };
    let (engine, report) = server::run(
        listener,
        engine,
        cfg,
        Arc::new(decode),
        Arc::new(render_line),
        Arc::new(AtomicBool::new(false)),
    )
    .map_err(|e| usage(format!("serve --listen: {e}")))?;

    let stats = report.stats;
    let _ = writeln!(
        out,
        "drained: {}; {} connection(s) ({} rejected), {} request(s), {} protocol error(s)",
        if report.drained_clean {
            "clean"
        } else {
            "timed out with stragglers"
        },
        report.connections,
        report.rejected_connections,
        report.requests,
        report.protocol_errors,
    );
    let _ = writeln!(
        out,
        "done: {} commit(s) in {} group commit(s) ({} op(s) batched), {} rollback(s), {} shed(s), {} connection(s) admitted",
        stats.commits,
        stats.group_commits,
        stats.batched_ops,
        stats.rollbacks,
        report.sheds,
        engine.admitted().count()
    );
    Ok(out)
}
