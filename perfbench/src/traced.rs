//! The traced run: per-layer numbers for one workload and seed.
//!
//! It first runs the untraced benchmark (the `--plain` binary) on the
//! same workload and seed, then repeats the workload in this
//! telemetry-enabled build and reports its per-layer metrics together
//! with its own end-to-end numbers and their ratio to the untraced ones
//! (the tracing overhead).
//!
//! Serve workloads host `dnc_service::server::run` in this process. Each
//! layer is timed from outside through its public functions: the
//! request decoder passed to the server wraps
//! `dnc_cli::serve::parse_request_line`, the journal's storage backend is
//! a timing wrapper around `RealFs` passed to `ChurnEngine::open_with`,
//! certification is timed by replaying the served requests through an
//! in-memory `ChurnEngine::process_batch`, and the core, net and curve
//! layers are read from the existing counters and spans through
//! `dnc_telemetry::snapshot()`. Requests are mapped to their group commit
//! through the journal bytes the storage wrapper sees.

use crate::loadgen::{self, Gen, Kind, Mix};
use crate::serve::{self, Outcome};
use crate::util::{self, Metrics};
use crate::Args;
use dnc_service::server::{self, ServerConfig};
use dnc_service::{ChurnEngine, EngineConfig, RealFs, Request, Response, StorageFs};
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every per-layer metric a traced run reports, with its unit. Metrics
/// that do not apply to a workload read 0 there (see the README's map).
pub const PER_LAYER: [(&str, &str); 52] = [
    ("loadgen.lag_p99_us", "us"),
    ("ack.samples", "count"),
    ("ack.tail_pct", "%"),
    ("requests", "count"),
    ("fail_ratio", "ratio"),
    ("cli.decode_us", "us"),
    ("cli.protocol_errors", "count"),
    ("server.wait_p50_us", "us"),
    ("server.wait_p99_us", "us"),
    ("batch.commits", "count"),
    ("batch.ops_per_commit", "ops"),
    ("batch.sheds", "count"),
    ("engine.certify_p50_us", "us"),
    ("engine.certify_p99_us", "us"),
    ("engine.admits", "count"),
    ("engine.rejects", "count"),
    ("engine.replay_mismatches", "count"),
    ("core.certifications", "count"),
    ("core.incremental_ratio", "ratio"),
    ("core.fallback_ratio", "ratio"),
    ("core.dirty_groups_per_op", "groups/op"),
    ("core.pair_bound_calls", "count"),
    ("core.propagate_calls", "count"),
    ("net.partition_calls", "count"),
    ("net.partition_us", "us"),
    ("net.pairs", "count"),
    ("curves.op_calls", "count"),
    ("curves.conv_calls", "count"),
    ("curves.deconv_calls", "count"),
    ("curves.hdev_calls", "count"),
    ("curves.hdev_general_calls", "count"),
    ("curves.conv_ms", "ms"),
    ("curves.hdev_ms", "ms"),
    ("curves.hdev_general_ms", "ms"),
    ("curves.fast_path_ratio", "ratio"),
    ("curves.memo_lookups", "count"),
    ("curves.memo_hit_ratio", "ratio"),
    ("curves.intern_lookups", "count"),
    ("curves.intern_hit_ratio", "ratio"),
    ("curves.intern_len", "count"),
    ("curves.clone_heap", "count"),
    ("journal.ops", "count"),
    ("journal.write_p50_us", "us"),
    ("journal.write_p99_us", "us"),
    ("journal.fsync_p50_us", "us"),
    ("journal.fsync_p99_us", "us"),
    ("journal.bytes_per_op", "B/op"),
    ("journal.fsyncs_per_op", "1/op"),
    ("snapshot.publish_us", "us"),
    ("snapshot.count", "count"),
    ("recover.open_us", "us"),
    ("recover.ops_replayed", "count"),
];

/// Every per-layer metric name with its unit: [`PER_LAYER`], then each
/// end-to-end metric under tracing (`traced.<m>`) and as the
/// traced/untraced ratio (`overhead.<m>`).
pub fn all_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_string(), *u))
        .collect();
    for m in crate::E2E {
        let unit = unit_of(m);
        v.push((format!("traced.{m}"), unit));
        v.push((format!("overhead.{m}"), "ratio"));
    }
    v
}

fn unit_of(e2e: &str) -> &'static str {
    match e2e {
        "setup_s" => "s",
        "sat_ops_s" => "1/s",
        "peak_rss_mb" => "MiB",
        _ => "ms",
    }
}

pub fn run(args: &Args, exe: &Path, plain: &Path) -> i32 {
    // The untraced reference run, same workload and seed.
    let mut cmd = Command::new(plain);
    cmd.args([
        "run",
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    if let Some(dnc) = &args.dnc {
        cmd.arg("--dnc").arg(dnc);
    }
    let untraced = match cmd.output() {
        Ok(o) if o.status.success() => {
            eprint!("{}", String::from_utf8_lossy(&o.stderr));
            let text = String::from_utf8_lossy(&o.stdout).to_string();
            print!(
                "{}",
                text.lines()
                    .filter(|l| !l.starts_with('{'))
                    .map(|l| format!("untraced {l}\n"))
                    .collect::<String>()
            );
            parse_result(text.lines().last().unwrap_or(""))
        }
        Ok(o) => {
            eprintln!(
                "untraced reference run failed ({}): {}",
                o.status,
                String::from_utf8_lossy(&o.stderr)
            );
            return 1;
        }
        Err(e) => {
            eprintln!("cannot start the untraced reference run: {e}");
            return 1;
        }
    };
    let Some((untraced_ok, untraced_e2e)) = untraced else {
        eprintln!("untraced reference run printed no result line");
        return 1;
    };

    let traced = if args.workload == "analyze-sweep" {
        Ok(sweep(exe, args.seed, args.seconds))
    } else {
        let Some(dnc) = &args.dnc else {
            eprintln!("perfbench: serve workloads need --dnc <path>");
            return 2;
        };
        serve_traced(&args.workload, args.seed, args.seconds, &[exe, dnc])
    };
    let (outcome, mut layers) = match traced {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    for m in crate::E2E {
        let t = outcome.e2e.get(m).map_or(0.0, |x| x.value);
        let u = untraced_e2e.get(m).copied().unwrap_or(0.0);
        util::put(&mut layers, &format!("traced.{m}"), t, unit_of(m));
        let ratio = if u != 0.0 { t / u } else { 0.0 };
        util::put(&mut layers, &format!("overhead.{m}"), ratio, "ratio");
    }
    let mut m = Metrics::new();
    for (name, unit) in all_names() {
        let v = layers.get(&name).map_or(0.0, |x| x.value);
        util::put(&mut m, &name, v, unit);
    }
    println!(
        "{}",
        util::result_line(
            outcome.correct && untraced_ok,
            outcome.attempted,
            outcome.failed,
            &m
        )
    );
    0
}

/// Read `correct` and the metric values out of a result line.
fn parse_result(line: &str) -> Option<(bool, HashMap<String, f64>)> {
    let correct = line.contains("\"correct\": true");
    let body = line.split("\"metrics\": {").nth(1)?;
    let mut out = HashMap::new();
    for part in body.split("}, ") {
        let name = part.split('"').nth(1)?;
        let value = part.split("\"value\": ").nth(1)?.split(',').next()?;
        out.insert(name.to_string(), value.parse().ok()?);
    }
    Some((correct, out))
}

/// Per-layer metrics of `analyze-sweep`: telemetry summed over the
/// fresh-process sweeps of this traced build, given per sweep.
fn sweep(exe: &Path, seed: u64, seconds: u64) -> (Outcome, Metrics) {
    let r = crate::sweep::run(exe, seed, seconds);
    println!(
        "traced analyze-sweep: {} fresh-process sweep(s), {} analyses",
        r.children, r.attempted
    );
    let per = r.children.max(1) as f64;
    let counter = |n: &str| r.counters.get(n).copied().unwrap_or(0.0) / per;
    let span = |n: &str| r.spans.get(n).copied().unwrap_or((0.0, 0.0));
    let span_count = |n: &str| span(n).0 / per;
    let span_ms = |n: &str| span(n).1 / per / 1e6;
    let mut m = Metrics::new();
    layer_common(&mut m, &counter, &span_count, &span_ms, &|n: &str| {
        span(n).1 / per
    });
    util::put(&mut m, "curves.intern_len", r.intern_len, "count");
    util::put(&mut m, "requests", r.attempted as f64, "count");
    util::put(
        &mut m,
        "fail_ratio",
        ratio(r.failed as f64, r.attempted as f64),
        "ratio",
    );
    util::put(&mut m, "ack.samples", r.attempted as f64 / per, "count");
    util::put(&mut m, "ack.tail_pct", r.tail_q * 100.0, "%");
    (
        Outcome {
            correct: r.correct,
            attempted: r.attempted,
            failed: r.failed,
            e2e: r.e2e,
        },
        m,
    )
}

fn ratio(num: f64, base: f64) -> f64 {
    if base > 0.0 {
        num / base
    } else {
        0.0
    }
}

/// Core, net and curve metrics from counters and span totals.
fn layer_common(
    m: &mut Metrics,
    counter: &dyn Fn(&str) -> f64,
    span_count: &dyn Fn(&str) -> f64,
    span_ms: &dyn Fn(&str) -> f64,
    span_ns: &dyn Fn(&str) -> f64,
) {
    let answers: f64 = [
        "core.resilient.incremental_answers",
        "core.resilient.integrated_answers",
        "core.resilient.decomposed_answers",
        "core.resilient.unbounded_answers",
    ]
    .iter()
    .map(|n| counter(n))
    .sum();
    util::put(m, "core.certifications", answers, "count");
    util::put(
        m,
        "core.incremental_ratio",
        ratio(counter("core.resilient.incremental_answers"), answers),
        "ratio",
    );
    util::put(
        m,
        "core.fallback_ratio",
        ratio(
            counter("core.resilient.decomposed_answers")
                + counter("core.resilient.unbounded_answers"),
            answers,
        ),
        "ratio",
    );
    util::put(
        m,
        "core.dirty_groups_per_op",
        ratio(counter("churn.dirty_groups"), answers),
        "groups/op",
    );
    util::put(
        m,
        "core.pair_bound_calls",
        counter("core.pair_bound.calls"),
        "count",
    );
    util::put(
        m,
        "core.propagate_calls",
        counter("core.propagate_output.calls"),
        "count",
    );
    let partitions = span_count("net.partition");
    util::put(m, "net.partition_calls", partitions, "count");
    util::put(
        m,
        "net.partition_us",
        ratio(span_ns("net.partition") / 1e3, partitions),
        "us",
    );
    util::put(m, "net.pairs", counter("net.pairing.pairs"), "count");
    let conv = span_count("curve.conv");
    let deconv = span_count("curve.deconv");
    let hdev = span_count("curve.hdev");
    let hdev_general = span_count("curve.hdev_general");
    let ops = conv + deconv + hdev + hdev_general;
    util::put(m, "curves.op_calls", ops, "count");
    util::put(m, "curves.conv_calls", conv, "count");
    util::put(m, "curves.deconv_calls", deconv, "count");
    util::put(m, "curves.hdev_calls", hdev, "count");
    util::put(m, "curves.hdev_general_calls", hdev_general, "count");
    util::put(m, "curves.conv_ms", span_ms("curve.conv"), "ms");
    util::put(m, "curves.hdev_ms", span_ms("curve.hdev"), "ms");
    util::put(
        m,
        "curves.hdev_general_ms",
        span_ms("curve.hdev_general"),
        "ms",
    );
    let fast = counter("curve.conv.fast_path")
        + counter("curve.deconv.fast_path")
        + counter("curve.hdev.fast_path");
    util::put(m, "curves.fast_path_ratio", ratio(fast, ops), "ratio");
    let memo = counter("cache.hit") + counter("cache.miss");
    util::put(m, "curves.memo_lookups", memo, "count");
    util::put(
        m,
        "curves.memo_hit_ratio",
        ratio(counter("cache.hit"), memo),
        "ratio",
    );
    let intern = counter("intern.hit") + counter("intern.miss");
    util::put(m, "curves.intern_lookups", intern, "count");
    util::put(
        m,
        "curves.intern_hit_ratio",
        ratio(counter("intern.hit"), intern),
        "ratio",
    );
    util::put(m, "curves.clone_heap", counter("curve.clone.heap"), "count");
}

/// One storage call as the timing wrapper saw it.
#[derive(Clone, Debug)]
struct FsEvent {
    kind: FsKind,
    start: Instant,
    dur: Duration,
    bytes: usize,
    /// What the last write was (a sync inherits it).
    class: WriteClass,
    /// Journal appends: the ops in the frame, as (is_admit, name).
    ops: Vec<(bool, String)>,
    /// Renames: the destination file name.
    to: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FsKind {
    Write,
    SyncData,
    SyncDir,
    Rename,
    Other,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WriteClass {
    /// A group-commit frame appended to the journal.
    Append,
    /// A snapshot image.
    Snapshot,
    /// A fresh journal segment (creation or rotation).
    Segment,
}

/// `RealFs` with every call timed and every journal frame decoded.
#[derive(Debug)]
struct TimingFs {
    events: Mutex<Vec<FsEvent>>,
}

impl TimingFs {
    fn record<T>(
        &self,
        kind: FsKind,
        bytes: &[u8],
        to: &Path,
        call: impl FnOnce() -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let start = Instant::now();
        let r = call();
        let dur = start.elapsed();
        let mut events = self.events.lock().expect("timing log poisoned");
        let (class, ops) = if kind == FsKind::Write {
            classify_write(bytes)
        } else {
            let last = events.iter().rev().find(|e| e.kind == FsKind::Write);
            (last.map_or(WriteClass::Segment, |e| e.class), Vec::new())
        };
        events.push(FsEvent {
            kind,
            start,
            dur,
            bytes: bytes.len(),
            class,
            ops,
            to: to
                .file_name()
                .map(|n| n.to_string_lossy().to_string())
                .unwrap_or_default(),
        });
        r
    }
}

fn classify_write(buf: &[u8]) -> (WriteClass, Vec<(bool, String)>) {
    if buf.starts_with(b"DNCS1\n") {
        return (WriteClass::Snapshot, Vec::new());
    }
    if buf.starts_with(b"DNCJ1\n") || buf.len() < 8 {
        return (WriteClass::Segment, Vec::new());
    }
    // A journal frame: u32 length, u32 CRC, then newline-joined ops.
    let ops = String::from_utf8_lossy(&buf[8..])
        .lines()
        .filter_map(|l| {
            let mut t = l.split_whitespace();
            let admit = match t.next()? {
                "admit" => true,
                "release" => false,
                _ => return None,
            };
            Some((admit, t.next()?.to_string()))
        })
        .collect();
    (WriteClass::Append, ops)
}

impl StorageFs for TimingFs {
    fn write(&self, file: &mut File, buf: &[u8]) -> std::io::Result<()> {
        self.record(FsKind::Write, buf, Path::new(""), || {
            RealFs.write(file, buf)
        })
    }
    fn sync_data(&self, file: &File) -> std::io::Result<()> {
        self.record(FsKind::SyncData, &[], Path::new(""), || {
            RealFs.sync_data(file)
        })
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.record(FsKind::SyncDir, &[], Path::new(""), || RealFs.sync_dir(dir))
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.record(FsKind::Rename, &[], to, || RealFs.rename(from, to))
    }
    fn set_len(&self, file: &File, len: u64) -> std::io::Result<()> {
        self.record(FsKind::Other, &[], Path::new(""), || {
            RealFs.set_len(file, len)
        })
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.record(FsKind::Other, &[], Path::new(""), || {
            RealFs.remove_file(path)
        })
    }
}

/// One decoded protocol line.
struct Decoded {
    at: Instant,
    dur: Duration,
    line: String,
}

/// The reply line `dnc serve --listen` sends for `r` (same format as the
/// CLI's renderer, which is private to it).
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
                s.push(' ');
                s.push_str(&e.name);
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

/// The traced run of a serve workload, with `server::run` in-process.
fn serve_traced(
    workload: &str,
    seed: u64,
    seconds: u64,
    code: &[&Path],
) -> Result<(Outcome, Metrics), String> {
    let spec = serve::spec(workload);
    let root = serve::work_root();
    std::fs::create_dir_all(&root).map_err(|e| e.to_string())?;
    let prep = serve::prepare(&spec, &root, code)?;
    let live: PathBuf = root.join(format!("{}-traced-{}", spec.name, std::process::id()));
    serve::restore(&prep, &live)?;
    let base = serve::load_base(&prep.base_text)?;
    let names = base.names.clone();
    let fs = Arc::new(TimingFs {
        events: Mutex::new(Vec::new()),
    });
    let config = EngineConfig {
        workers: 1,
        queue_capacity: 4096,
        snapshot_every: spec.snapshot_every,
        ..EngineConfig::default()
    };

    dnc_telemetry::reset();
    let t_setup = Instant::now();
    let (engine, info) = ChurnEngine::open_with(
        base.net.clone(),
        base.deadlines.clone(),
        config.clone(),
        &live.join("wal"),
        fs.clone(),
    )
    .map_err(|e| format!("recovery: {e}"))?;
    let open_us = util::us(t_setup.elapsed());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let decoded: Arc<Mutex<Vec<Decoded>>> = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&decoded);
    let decode = move |line: &str| -> Result<Request, String> {
        let at = Instant::now();
        let r = dnc_cli::serve::parse_request_line(line, 0, &names)
            .map_err(|e| format!("ERR     {}", e.message));
        let dur = at.elapsed();
        log.lock().expect("decode log poisoned").push(Decoded {
            at,
            dur,
            line: line.to_string(),
        });
        r
    };
    let cfg = ServerConfig {
        batch: 8,
        queue_capacity: 4096,
        ..ServerConfig::default()
    };
    let server = std::thread::spawn(move || {
        server::run(
            listener,
            engine,
            cfg,
            Arc::new(decode),
            Arc::new(render_line),
            Arc::new(AtomicBool::new(false)),
        )
    });
    let first = serve::ask(addr, "query")?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    if !first.starts_with("QUERY") {
        return Err(format!("first request answered {first:?}"));
    }
    decoded.lock().expect("decode log poisoned").clear();
    fs.events.lock().expect("timing log poisoned").clear();
    let served_from = dnc_telemetry::snapshot();

    let pool = if spec.mix == Mix::Tandem {
        prep.live.iter().map(|(n, _)| n.clone()).collect()
    } else {
        Vec::new()
    };
    let mut gen = Gen::new(spec.mix, seed, "r", pool);
    let mut rss = 0.0;
    let load = loadgen::drive(
        addr,
        &mut gen,
        serve::plan(&spec, Duration::from_secs(seconds)),
        &mut || {
            rss = util::peak_rss_mb("self").unwrap_or(0.0);
        },
    )?;
    let bye = serve::ask(addr, "shutdown")?;
    let (engine, report) = server
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    if !(bye.is_empty() || bye.starts_with("BYE")) {
        return Err(format!("shutdown answered {bye:?}"));
    }
    let served = dnc_telemetry::snapshot();
    let intern_len = dnc_curves::intern::store_len();
    drop(engine);

    let stats = serve::load_stats(&load);
    let mut problems = serve::check(&spec, &prep, &live, &load);
    problems.extend(serve::lag_problem(&load));
    for p in &problems {
        eprintln!("check failed: {p}");
    }

    let mut m = Metrics::new();
    // Counters accumulated while serving (set-up's recovery excluded).
    let counter = |n: &str| {
        served
            .counter_value(n)
            .saturating_sub(served_from.counter_value(n)) as f64
    };
    let span_count = |n: &str| {
        served
            .span_count(n)
            .saturating_sub(served_from.span_count(n)) as f64
    };
    let span_ns = |n: &str| {
        served
            .span_total_ns(n)
            .saturating_sub(served_from.span_total_ns(n)) as f64
    };
    let span_ms = |n: &str| span_ns(n) / 1e6;
    layer_common(&mut m, &counter, &span_count, &span_ms, &span_ns);
    util::put(&mut m, "curves.intern_len", intern_len as f64, "count");

    util::put(&mut m, "loadgen.lag_p99_us", stats.lag_p99_us, "us");
    util::put(&mut m, "ack.samples", stats.samples as f64, "count");
    util::put(&mut m, "ack.tail_pct", stats.tail_q * 100.0, "%");
    util::put(&mut m, "requests", load.records.len() as f64, "count");
    util::put(
        &mut m,
        "fail_ratio",
        ratio(stats.failed as f64, load.records.len() as f64),
        "ratio",
    );

    let decoded = std::mem::take(&mut *decoded.lock().expect("decode log poisoned"));
    let decode_us: Vec<f64> = decoded.iter().map(|d| util::us(d.dur)).collect();
    util::put(
        &mut m,
        "cli.decode_us",
        util::quantile(&decode_us, 0.5),
        "us",
    );
    util::put(
        &mut m,
        "cli.protocol_errors",
        report.protocol_errors as f64,
        "count",
    );

    let events = std::mem::take(&mut *fs.events.lock().expect("timing log poisoned"));
    let fixed: HashSet<(bool, &str)> = load
        .records
        .iter()
        .filter(|r| r.phase == 0)
        .map(|r| (r.kind == Kind::Admit, r.name.as_str()))
        .collect();
    journal_metrics(&mut m, &events, &decoded, &fixed);
    let stats_e = report.stats;
    util::put(
        &mut m,
        "batch.commits",
        stats_e.group_commits as f64,
        "count",
    );
    util::put(
        &mut m,
        "batch.ops_per_commit",
        ratio(stats_e.batched_ops as f64, stats_e.group_commits as f64),
        "ops",
    );
    util::put(&mut m, "batch.sheds", report.sheds as f64, "count");
    util::put(&mut m, "snapshot.count", stats_e.snapshots as f64, "count");
    util::put(&mut m, "recover.open_us", open_us, "us");
    util::put(
        &mut m,
        "recover.ops_replayed",
        info.ops_replayed as f64,
        "count",
    );
    util::put(&mut m, "engine.admits", stats.admits as f64, "count");
    util::put(&mut m, "engine.rejects", stats.rejects as f64, "count");
    certify_replay(&mut m, &base, &prep, &decoded, &load)?;
    let _ = std::fs::remove_dir_all(&live);

    println!(
        "traced {}: {} requests; ack p50 {:.3} ms, p{} {:.3} ms; saturation {:.0} ops/s",
        spec.name,
        load.records.len(),
        stats.p50_ms,
        stats.tail_q * 100.0,
        stats.tail_ms,
        load.sat_ops_s
    );
    let mut e2e = Metrics::new();
    util::put(&mut e2e, "setup_s", setup_s, "s");
    util::put(&mut e2e, "ack_p50_ms", stats.p50_ms, "ms");
    util::put(&mut e2e, "ack_p99_ms", stats.tail_ms, "ms");
    util::put(&mut e2e, "sat_ops_s", load.sat_ops_s, "1/s");
    util::put(&mut e2e, "peak_rss_mb", rss, "MiB");
    Ok((
        Outcome {
            correct: problems.is_empty(),
            attempted: load.records.len() as u64,
            failed: stats.failed,
            e2e,
        },
        m,
    ))
}

/// Journal, group-commit wait and snapshot metrics from the storage log;
/// waits only of the fixed-rate requests in `fixed` (as (is_admit,
/// name)), the ones `ack_p50_ms` and `ack_p99_ms` time.
fn journal_metrics(
    m: &mut Metrics,
    events: &[FsEvent],
    decoded: &[Decoded],
    fixed: &HashSet<(bool, &str)>,
) {
    let appends: Vec<&FsEvent> = events
        .iter()
        .filter(|e| e.kind == FsKind::Write && e.class == WriteClass::Append)
        .collect();
    let write_us: Vec<f64> = appends.iter().map(|e| util::us(e.dur)).collect();
    let fsync_us: Vec<f64> = events
        .iter()
        .filter(|e| e.kind == FsKind::SyncData && e.class == WriteClass::Append)
        .map(|e| util::us(e.dur))
        .collect();
    let ops: usize = appends.iter().map(|e| e.ops.len()).sum();
    let bytes: usize = appends.iter().map(|e| e.bytes).sum();
    let syncs = events
        .iter()
        .filter(|e| matches!(e.kind, FsKind::SyncData | FsKind::SyncDir))
        .count();
    util::put(m, "journal.ops", ops as f64, "count");
    util::put(
        m,
        "journal.write_p50_us",
        util::quantile(&write_us, 0.5),
        "us",
    );
    util::put(
        m,
        "journal.write_p99_us",
        util::quantile(&write_us, 0.99),
        "us",
    );
    util::put(
        m,
        "journal.fsync_p50_us",
        util::quantile(&fsync_us, 0.5),
        "us",
    );
    util::put(
        m,
        "journal.fsync_p99_us",
        util::quantile(&fsync_us, 0.99),
        "us",
    );
    util::put(
        m,
        "journal.bytes_per_op",
        ratio(bytes as f64, ops as f64),
        "B/op",
    );
    util::put(
        m,
        "journal.fsyncs_per_op",
        ratio(syncs as f64, ops as f64),
        "1/op",
    );

    // Decode → first journal write of the op's group commit.
    let mut decoded_at: HashMap<(bool, &str), Instant> = HashMap::new();
    for d in decoded {
        let mut t = d.line.split_whitespace();
        let admit = t.next() == Some("admit");
        if let Some(name) = t.next() {
            decoded_at.entry((admit, name)).or_insert(d.at);
        }
    }
    let mut wait_us = Vec::new();
    for e in &appends {
        for (admit, name) in &e.ops {
            if !fixed.contains(&(*admit, name.as_str())) {
                continue;
            }
            if let Some(at) = decoded_at.get(&(*admit, name.as_str())) {
                wait_us.push(util::us(e.start.saturating_duration_since(*at)));
            }
        }
    }
    util::put(m, "server.wait_p50_us", util::quantile(&wait_us, 0.5), "us");
    util::put(
        m,
        "server.wait_p99_us",
        util::quantile(&wait_us, 0.99),
        "us",
    );

    // Snapshot publish: temp write → the directory fsync after its rename.
    let mut publish_us = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if e.kind != FsKind::Write || e.class != WriteClass::Snapshot {
            continue;
        }
        let renamed = events[i..]
            .iter()
            .position(|x| x.kind == FsKind::Rename && x.to.contains(".snap."));
        if let Some(r) = renamed {
            if let Some(sync) = events[i + r..].iter().find(|x| x.kind == FsKind::SyncDir) {
                publish_us.push(util::us((sync.start + sync.dur) - e.start));
            }
        }
    }
    util::put(m, "snapshot.publish_us", util::median(&publish_us), "us");
}

/// Replay the served requests, in decode order, through an in-memory
/// engine that starts from the prepared state, timing each
/// `process_batch` call: certification cost without decode, queueing or
/// the journal.
fn certify_replay(
    m: &mut Metrics,
    base: &serve::Base,
    prep: &serve::Prepared,
    decoded: &[Decoded],
    load: &loadgen::LoadResult,
) -> Result<(), String> {
    let config = EngineConfig {
        workers: 1,
        queue_capacity: 4096,
        ..EngineConfig::default()
    };
    let mut engine = ChurnEngine::new(base.net.clone(), base.deadlines.clone(), config)
        .map_err(|e| e.to_string())?;
    let parse = |line: &str| dnc_cli::serve::parse_request_line(line, 0, &base.names);
    for (_, line) in &prep.live {
        let req = parse(line).map_err(|e| e.message)?;
        engine.process_batch(vec![req]).map_err(|e| e.to_string())?;
    }
    let served: HashMap<(Kind, &str), loadgen::Fate> = load
        .records
        .iter()
        .map(|r| ((r.kind, r.name.as_str()), r.fate))
        .collect();
    let mut certify_us = Vec::new();
    let mut mismatches = 0u64;
    for d in decoded {
        let Ok(req) = parse(&d.line) else { continue };
        let key = match &req {
            Request::Admit(a) => (Kind::Admit, a.name.clone()),
            Request::Release { name } => (Kind::Release, name.clone()),
            Request::Query { .. } => continue,
        };
        let t = Instant::now();
        let resp = engine.process_batch(vec![req]).map_err(|e| e.to_string())?;
        certify_us.push(util::us(t.elapsed()));
        let admitted = matches!(
            resp.first(),
            Some(Response::Admitted { .. } | Response::Released { .. })
        );
        let was = served.get(&(key.0, key.1.as_str()));
        let served_ok = matches!(was, Some(loadgen::Fate::Admitted | loadgen::Fate::Released));
        if admitted != served_ok {
            mismatches += 1;
        }
    }
    util::put(
        m,
        "engine.certify_p50_us",
        util::quantile(&certify_us, 0.5),
        "us",
    );
    util::put(
        m,
        "engine.certify_p99_us",
        util::quantile(&certify_us, 0.99),
        "us",
    );
    util::put(m, "engine.replay_mismatches", mismatches as f64, "count");
    Ok(())
}
