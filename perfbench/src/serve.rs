//! The two `dnc serve` workloads, run against the stock release binary.
//!
//! A run restores the workload's prepared journal from a pristine copy
//! (untimed), starts `dnc serve --listen` on it several times to time
//! set-up, offers open-loop traffic from [`crate::loadgen`], stops the
//! server with `shutdown`, and then checks every output: one reply per
//! request, a journal that recovers to exactly the acknowledged state,
//! and a from-scratch Integrated re-analysis that meets every admitted
//! deadline. Re-analyzing the prepared network with all four algorithms,
//! in fresh processes, gives the `analyze.*_ms` metrics of these
//! workloads (the recovered network differs from seed to seed).

use crate::loadgen::{self, Fate, Gen, Kind, LoadResult, Mix, Plan};
use crate::util::{self, Metrics};
use dnc_core::admission::Deadline;
use dnc_core::integrated::Integrated;
use dnc_core::DelayAnalysis;
use dnc_net::{FlowId, Network, ServerId};
use dnc_service::{ChurnEngine, EngineConfig, Request, Response};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// What one run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
}

/// A serve workload's fixed parameters.
pub struct Spec {
    pub name: &'static str,
    pub mix: Mix,
    /// Ops in the prepared journal's history.
    prep_ops: usize,
    /// Standing admits made before the prepared churn (commit mix).
    prep_standing: usize,
    /// `--snapshot-every` for preparation and serving.
    pub snapshot_every: Option<u64>,
    /// Offered rate of the fixed-rate phase: half the workload's median
    /// saturated reply rate (README, "Offered rates"), rounded.
    pub rate: f64,
    /// Share of each segment spent at the fixed rate (the rest is the
    /// saturation phase), but never fewer than [`FIXED_MIN_REQUESTS`].
    fixed_share: f64,
    /// Saturation-phase window per connection.
    pub window: usize,
}

pub fn spec(workload: &str) -> Spec {
    match workload {
        "admit-tandem" => Spec {
            name: "admit-tandem",
            mix: Mix::Tandem,
            prep_ops: 3000,
            prep_standing: 0,
            snapshot_every: None,
            rate: 600.0,
            fixed_share: 0.7,
            window: 8,
        },
        _ => Spec {
            name: "admit-commit",
            mix: Mix::Commit,
            prep_ops: 2000,
            prep_standing: 4,
            snapshot_every: Some(200),
            rate: 5000.0,
            fixed_share: 0.5,
            window: 16,
        },
    }
}

/// Seed of the prepared history: fixed, so every run of a workload
/// starts from the same journal whatever `--seed` is.
const PREP_SEED: u64 = 0x00D0_C0DE;

/// Least fixed-rate requests per segment, so that at least ten lie
/// beyond p99 and `ack_p99_ms` is a p99 at any run length.
const FIXED_MIN_REQUESTS: f64 = 1050.0;

/// Extra starts of `dnc serve` per run to time set-up (each segment's
/// start is timed too).
const SETUP_REPS: usize = 5;

/// Fresh server processes per untraced run.
const SEGMENTS: usize = 10;

/// A run's latency figures are this quantile of its segments' ones (the
/// third-lowest of ten), not [`util::typical`]: the lowest is set by one
/// lucky segment and, over twenty runs of each serve workload, spread
/// more from run to run.
const LATENCY_Q: f64 = 0.3;

/// Fresh-process re-analyses of the prepared network after each segment.
const AUDITS_PER_SEGMENT: usize = 2;

/// Least time one re-analysis process spends on each algorithm.
const AUDIT_MIN: Duration = Duration::from_millis(25);

/// A run is rejected when the generator sent its p99 fixed-rate request
/// this late: it could not keep its schedule. (The machine's other
/// tenants stall it for a few milliseconds now and then; that is
/// measured, not rejected.)
const LAG_BOUND_US: f64 = 25_000.0;

/// Send lag (send time − due time) of each fixed-rate request, in µs.
fn lag_us(load: &LoadResult) -> impl Iterator<Item = f64> + '_ {
    load.records
        .iter()
        .filter(|r| r.phase == 0)
        .map(|r| util::us(r.sent.saturating_sub(r.due)))
}

/// The generator-honesty check over a run's fixed-rate requests.
pub fn lag_problem(load: &LoadResult) -> Option<String> {
    lag_check(&lag_us(load).collect::<Vec<_>>())
}

fn lag_check(lags: &[f64]) -> Option<String> {
    let p99 = util::quantile(lags, 0.99);
    (p99 > LAG_BOUND_US)
        .then(|| format!("generator lag p99 {p99:.0} us exceeds the {LAG_BOUND_US} us bound"))
}

pub fn plan(spec: &Spec, total: Duration) -> Plan {
    let fixed = total
        .mul_f64(spec.fixed_share)
        .max(Duration::from_secs_f64(FIXED_MIN_REQUESTS / spec.rate));
    Plan {
        rate: spec.rate,
        fixed,
        sat: total.saturating_sub(fixed).max(loadgen::SAT_BIN),
        window: spec.window,
        drain: Duration::from_secs(10),
    }
}

/// The base network file of a workload.
pub fn base_text(spec: &Spec) -> Result<String, String> {
    match spec.mix {
        Mix::Tandem => {
            let args = [
                "tandem".to_string(),
                loadgen::TANDEM_N.to_string(),
                "3/10".to_string(),
            ];
            dnc_cli::commands::run(&args).map_err(|e| e.message)
        }
        Mix::Commit => Ok("# one unit-rate FIFO server\nserver S0 rate 1 fifo\n".to_string()),
    }
}

/// A parsed base network with its deadlines and server names.
pub struct Base {
    pub net: Network,
    pub deadlines: Vec<Deadline>,
    pub names: HashMap<String, ServerId>,
}

pub fn load_base(text: &str) -> Result<Base, String> {
    let built = dnc_cli::parse::parse_spec(text)
        .map_err(|e| e.to_string())?
        .build()?;
    let deadlines = built
        .deadlines
        .iter()
        .enumerate()
        .filter_map(|(i, d)| {
            d.map(|deadline| Deadline {
                flow: FlowId(i),
                deadline,
            })
        })
        .collect();
    let names = built
        .net
        .servers()
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.clone(), ServerId(i)))
        .collect();
    Ok(Base {
        net: built.net,
        deadlines,
        names,
    })
}

/// The prepared state every run of a workload starts from.
pub struct Prepared {
    pub base_text: String,
    /// The pristine directory (`net.dnc`, `wal`, snapshots).
    pub pristine: PathBuf,
    /// Admit lines of the connections live in the prepared journal, in
    /// admission order.
    pub live: Vec<(String, String)>,
}

/// Build the workload's pristine journal under `root`, through the
/// service library, and return it. It is built once per set of binaries:
/// the directory is named after a hash of `code` (this benchmark, which
/// builds it, and `dnc`, which recovers it), so a tree whose code changed
/// never reuses a journal written by other code.
pub fn prepare(spec: &Spec, root: &Path, code: &[&Path]) -> Result<Prepared, String> {
    let base_text = base_text(spec)?;
    let mut key = util::FNV_OFFSET;
    for file in code {
        let bytes = std::fs::read(file).map_err(|e| format!("{}: {e}", file.display()))?;
        key = util::fnv1a(key, &bytes);
    }
    let pristine = root.join(format!("pristine-{}-{key:016x}", spec.name));
    let live_file = pristine.join("live.txt");
    if !live_file.exists() {
        let tmp = root.join(format!("pristine-{}.tmp{}", spec.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
        build_pristine(spec, &base_text, &tmp)?;
        let _ = std::fs::remove_dir_all(&pristine);
        std::fs::rename(&tmp, &pristine).map_err(|e| e.to_string())?;
    }
    let live = std::fs::read_to_string(&live_file)
        .map_err(|e| format!("{}: {e}", live_file.display()))?
        .lines()
        .filter_map(|l| {
            let name = l.split_whitespace().nth(1)?;
            Some((name.to_string(), l.to_string()))
        })
        .collect();
    Ok(Prepared {
        base_text,
        pristine,
        live,
    })
}

fn build_pristine(spec: &Spec, base_text: &str, dir: &Path) -> Result<(), String> {
    std::fs::write(dir.join("net.dnc"), base_text).map_err(|e| e.to_string())?;
    let base = load_base(base_text)?;
    let config = EngineConfig {
        snapshot_every: spec.snapshot_every.map(|e| e / 4),
        queue_capacity: 1 << 16,
        ..EngineConfig::default()
    };
    let (mut engine, _) = ChurnEngine::open(base.net, base.deadlines, config, &dir.join("wal"))
        .map_err(|e| e.to_string())?;
    let mut lines: HashMap<String, String> = HashMap::new();
    // `pooled = false` keeps the commit mix's standing admits out of the
    // generator's release pools.
    let mut apply = |engine: &mut ChurnEngine,
                     gen: &mut Gen,
                     batch: Vec<(usize, Kind, String, String)>,
                     pooled: bool|
     -> Result<(), String> {
        let reqs = batch
            .iter()
            .map(|(_, _, _, line)| {
                dnc_cli::serve::parse_request_line(line, 0, &base.names).map_err(|e| e.message)
            })
            .collect::<Result<Vec<Request>, _>>()?;
        let resps = engine.process_batch(reqs).map_err(|e| e.to_string())?;
        for ((conn, kind, name, line), resp) in batch.into_iter().zip(resps) {
            if pooled {
                let admitted = matches!(resp, Response::Admitted { .. });
                gen.on_reply(conn, kind, &name, if admitted { "ADMIT " } else { "" });
            }
            lines.insert(name, line);
        }
        Ok(())
    };
    let mut gen = Gen::new(spec.mix, PREP_SEED, "p", Vec::new());
    let standing: Vec<_> = (0..spec.prep_standing)
        .map(|i| {
            let name = format!("s{i}");
            let line = format!("admit {name} route S0 bucket 1 1/4096 deadline 1000");
            (0, Kind::Admit, name, line)
        })
        .collect();
    for chunk in standing.chunks(16) {
        apply(&mut engine, &mut gen, chunk.to_vec(), false)?;
    }
    let mut done = 0;
    while done < spec.prep_ops {
        let batch: Vec<_> = (0..16)
            .map(|i| {
                let conn = i % 2;
                let (kind, name, line) = gen.make(conn);
                (conn, kind, name, line)
            })
            .collect();
        done += batch.len();
        apply(&mut engine, &mut gen, batch, true)?;
    }
    let live: String = engine
        .admitted()
        .map(|e| format!("{}\n", lines[&e.name]))
        .collect();
    std::fs::write(dir.join("live.txt"), live).map_err(|e| e.to_string())
}

/// Replace `live` with a fresh copy of the pristine directory.
pub fn restore(prep: &Prepared, live: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(live);
    std::fs::create_dir_all(live).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(&prep.pristine).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), live.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The benchmark's scratch root inside the checkout.
pub fn work_root() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// A running `dnc serve --listen`.
struct Server {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: SocketAddr,
}

impl Drop for Server {
    /// A run that fails half-way still leaves no server behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn spawn(spec: &Spec, dnc: &Path, live: &Path) -> Result<Server, String> {
    let mut cmd = Command::new(dnc);
    cmd.arg("serve")
        .arg(live.join("net.dnc"))
        .args(["--listen", "127.0.0.1:0", "--journal"])
        .arg(live.join("wal"))
        .args(["--workers", "1", "--queue", "4096"]);
    if let Some(e) = spec.snapshot_every {
        cmd.args(["--snapshot-every", &e.to_string()]);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", dnc.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().ok_or("no stdout")?);
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err("dnc serve exited before listening".into());
        }
        if let Some(rest) = line.strip_prefix("listening on ") {
            let addr = rest
                .split_whitespace()
                .next()
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| format!("bad banner {line:?}"))?;
            return Ok(Server {
                child,
                stdout,
                addr,
            });
        }
    }
}

/// Send one line and read one reply line.
pub fn ask(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    writeln!(s, "{line}").map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(s)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    Ok(reply.trim().to_string())
}

fn stop(mut server: Server) -> Result<(), String> {
    // `dnc serve` may exit before its writer thread sends BYE, so an
    // empty answer is accepted; the exit status below is what counts.
    let bye = ask(server.addr, "shutdown")?;
    if !(bye.is_empty() || bye.starts_with("BYE")) {
        return Err(format!("shutdown answered {bye:?}"));
    }
    let mut rest = String::new();
    let _ = std::io::Read::read_to_string(&mut server.stdout, &mut rest);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match server.child.try_wait().map_err(|e| e.to_string())? {
            Some(status) if status.success() => return Ok(()),
            Some(status) => return Err(format!("dnc serve exited with {status}")),
            None if Instant::now() > deadline => {
                let _ = server.child.kill();
                let _ = server.child.wait();
                return Err("dnc serve did not exit after shutdown".into());
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Latency and generator figures of one load run.
pub struct LoadStats {
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub tail_q: f64,
    pub samples: usize,
    pub lag_p99_us: f64,
    pub failed: u64,
    pub admits: u64,
    pub rejects: u64,
}

pub fn load_stats(load: &LoadResult) -> LoadStats {
    let fixed: Vec<&loadgen::Record> = load.records.iter().filter(|r| r.phase == 0).collect();
    // A request that failed or never got a reply misses every latency
    // limit: count it as infinitely late.
    let lat: Vec<f64> = fixed
        .iter()
        .map(|r| match (r.fate.failed(), r.reply_at) {
            (false, Some(at)) => (at - r.due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        })
        .collect();
    let lag: Vec<f64> = lag_us(load).collect();
    let q = util::tail_quantile(lat.len());
    let count = |f: Fate| load.records.iter().filter(|r| r.fate == f).count() as u64;
    LoadStats {
        p50_ms: util::quantile(&lat, 0.5),
        tail_ms: util::quantile(&lat, q),
        tail_q: q,
        samples: lat.len(),
        lag_p99_us: util::quantile(&lag, 0.99),
        failed: load.records.iter().filter(|r| r.fate.failed()).count() as u64,
        admits: count(Fate::Admitted),
        rejects: count(Fate::Rejected),
    }
}

/// Check a finished run's outputs; returns the problems found (empty =
/// correct).
pub fn check(spec: &Spec, prep: &Prepared, live: &Path, load: &LoadResult) -> Vec<String> {
    let mut problems = Vec::new();
    if load.extra_replies > 0 {
        problems.push(format!(
            "{} reply line(s) with no request",
            load.extra_replies
        ));
    }
    let mismatched = load
        .records
        .iter()
        .filter(|r| r.fate == Fate::Mismatch)
        .count();
    if mismatched > 0 {
        problems.push(format!("{mismatched} reply line(s) answer another request"));
    }
    let unanswered = load
        .records
        .iter()
        .filter(|r| r.fate == Fate::Unanswered)
        .count();
    if unanswered > 0 {
        problems.push(format!("{unanswered} request(s) got no reply"));
    }
    if load.lost_conns > 0 {
        problems.push(format!(
            "the server closed {} connection(s) mid-run",
            load.lost_conns
        ));
    }
    // What the replies allow the journal to hold: a connection whose
    // admit was acknowledged and not released is present; one whose
    // release was acknowledged, or whose admit was rejected, is absent;
    // an unanswered admit or release may have gone either way.
    let mut must: BTreeSet<String> = prep.live.iter().map(|(n, _)| n.clone()).collect();
    let mut may: BTreeSet<String> = BTreeSet::new();
    for r in &load.records {
        match (r.kind, r.fate) {
            (Kind::Admit, Fate::Admitted) => {
                must.insert(r.name.clone());
            }
            (Kind::Admit, Fate::Unanswered) => {
                may.insert(r.name.clone());
            }
            (Kind::Release, Fate::Released) => {
                must.remove(&r.name);
            }
            (Kind::Release, Fate::Unanswered) if must.remove(&r.name) => {
                may.insert(r.name.clone());
            }
            _ => {}
        }
    }
    let base = match load_base(&prep.base_text) {
        Ok(b) => b,
        Err(e) => {
            problems.push(format!("base network: {e}"));
            return problems;
        }
    };
    let config = EngineConfig {
        snapshot_every: spec.snapshot_every,
        ..EngineConfig::default()
    };
    let engine = match ChurnEngine::open(base.net, base.deadlines, config, &live.join("wal")) {
        Ok((e, _)) => e,
        Err(e) => {
            problems.push(format!("journal does not recover: {e}"));
            return problems;
        }
    };
    let got: BTreeSet<String> = engine.admitted().map(|e| e.name).collect();
    let missing = must.difference(&got).count();
    let phantom = got
        .iter()
        .filter(|n| !must.contains(*n) && !may.contains(*n))
        .count();
    if missing + phantom > 0 {
        problems.push(format!(
            "recovered state differs from the acknowledged one: {missing} acknowledged admit(s) missing, {phantom} unacknowledged present"
        ));
    }
    match Integrated::paper().analyze(engine.network()) {
        Ok(report) => {
            let late = engine
                .deadlines()
                .iter()
                .filter(|d| report.bound(d.flow) > d.deadline)
                .count();
            if late > 0 {
                problems.push(format!(
                    "Integrated re-analysis misses {late} admitted deadline(s)"
                ));
            }
        }
        Err(e) => problems.push(format!("Integrated re-analysis failed: {e}")),
    }
    problems
}

/// Re-analyze `net_file` with all four algorithms in `reps` fresh
/// processes, adding each algorithm's scaled time per analysis to
/// `times` and any failure to `problems`.
fn audit(
    exe: &Path,
    net_file: &Path,
    reps: usize,
    times: &mut BTreeMap<String, Vec<f64>>,
    problems: &mut Vec<String>,
) {
    for _ in 0..reps {
        let out = Command::new(exe)
            .args(["audit-child", "--net"])
            .arg(net_file)
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                problems.push(format!(
                    "re-analysis failed: {}",
                    String::from_utf8_lossy(&o.stderr).trim()
                ));
                continue;
            }
            Err(e) => {
                problems.push(format!("cannot start re-analysis: {e}"));
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let calib_us = text
            .lines()
            .find_map(|l| l.strip_prefix("calib_us "))
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(util::CALIB_REF_US);
        // This process's times at the reference machine speed.
        let scale = util::CALIB_REF_US / calib_us;
        for line in text.lines() {
            if let ["analysis", metric, us, verdict] =
                line.split_whitespace().collect::<Vec<_>>().as_slice()
            {
                times
                    .entry((*metric).to_string())
                    .or_default()
                    .push(us.parse::<f64>().unwrap_or(0.0) / 1000.0 * scale);
                if *verdict != "ok" {
                    problems.push(format!("re-analysis {metric}: {verdict}"));
                }
            }
        }
    }
}

/// The untraced run of a serve workload against the stock binary: the
/// measured time is split into [`SEGMENTS`] segments, each served by a
/// fresh `dnc serve` process started on a fresh copy of the prepared
/// journal, because how fast a process runs on a shared machine depends on
/// the process (its memory layout) as much as on the code.
pub fn run_stock(
    workload: &str,
    seed: u64,
    seconds: u64,
    dnc: &Path,
    exe: &Path,
) -> Result<Outcome, String> {
    let spec = spec(workload);
    let root = work_root();
    std::fs::create_dir_all(&root).map_err(|e| e.to_string())?;
    let prep = prepare(&spec, &root, &[exe, dnc])?;
    let live = root.join(format!("{}-{}", spec.name, std::process::id()));

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        restore(&prep, &live)?;
        let (s, setup) = start(&spec, dnc, &live)?;
        setups.push(setup);
        stop(s)?;
    }
    let names: Vec<String> = prep.live.iter().map(|(n, _)| n.clone()).collect();
    let pool = if spec.mix == Mix::Tandem {
        names
    } else {
        Vec::new()
    };
    let seg_plan = plan(&spec, Duration::from_secs(seconds) / SEGMENTS as u32);
    let mut problems = Vec::new();
    let (mut p50, mut tail, mut sat, mut rss) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed) = (0, 0);
    let prepared = root.join(format!("{}-{}.dnc", spec.name, std::process::id()));
    let mut text = prep.base_text.clone();
    for (_, line) in &prep.live {
        text.push_str(&format!("flow {}\n", line.trim_start_matches("admit ")));
    }
    std::fs::write(&prepared, text).map_err(|e| e.to_string())?;
    let mut audits: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut lags = Vec::new();
    for seg in 0..SEGMENTS {
        restore(&prep, &live)?;
        let (server, setup) = start(&spec, dnc, &live)?;
        setups.push(setup);
        let seg_seed = seed.wrapping_mul(SEGMENTS as u64).wrapping_add(seg as u64);
        let mut gen = Gen::new(spec.mix, seg_seed, "r", pool.clone());
        // Peak memory after the fixed-rate phase, whose work is the same
        // on every run (the saturation phase serves as much as it can).
        let pid = server.child.id().to_string();
        let mut seg_rss = 0.0;
        let load = loadgen::drive(server.addr, &mut gen, seg_plan, &mut || {
            seg_rss = util::peak_rss_mb(&pid).unwrap_or(0.0);
        })?;
        if let Err(e) = stop(server) {
            problems.push(e);
        }
        let stats = load_stats(&load);
        problems.extend(check(&spec, &prep, &live, &load));
        lags.extend(lag_us(&load));
        println!(
            "{} segment {seg}: {} requests ({} admitted, {} rejected, {} failed); ack p50 {:.3} ms, p{} {:.3} ms over {} fixed-rate requests; generator lag p99 {:.0} us; saturation {:.0} ops/s; set-up {:.1} ms",
            spec.name,
            load.records.len(),
            stats.admits,
            stats.rejects,
            stats.failed,
            stats.p50_ms,
            stats.tail_q * 100.0,
            stats.tail_ms,
            stats.samples,
            stats.lag_p99_us,
            load.sat_ops_s,
            setup * 1e3,
        );
        p50.push(stats.p50_ms);
        tail.push(stats.tail_ms);
        sat.push(load.sat_ops_s);
        rss.push(seg_rss);
        attempted += load.records.len() as u64;
        failed += stats.failed;
        // Re-analysis times, spread over the run between segments. They
        // come from the prepared network, which is the same for every
        // seed; the recovered one differs from seed to seed.
        audit(
            exe,
            &prepared,
            AUDITS_PER_SEGMENT,
            &mut audits,
            &mut problems,
        );
    }
    problems.extend(lag_check(&lags));
    let mut analyze = Metrics::new();
    for (name, v) in &audits {
        util::put(&mut analyze, name, util::typical(v), "ms");
    }
    problems.dedup();
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let _ = std::fs::remove_dir_all(&live);
    let _ = std::fs::remove_file(&prepared);

    let mut e2e = analyze;
    util::put(&mut e2e, "setup_s", util::typical(&setups), "s");
    util::put(
        &mut e2e,
        "ack_p50_ms",
        util::quantile(&p50, LATENCY_Q),
        "ms",
    );
    util::put(
        &mut e2e,
        "ack_p99_ms",
        util::quantile(&tail, LATENCY_Q),
        "ms",
    );
    util::put(&mut e2e, "sat_ops_s", util::typical_rate(&sat), "1/s");
    util::put(&mut e2e, "peak_rss_mb", util::median(&rss), "MiB");
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        e2e,
    })
}

/// Start `dnc serve` on `live` and time it until the first request is
/// answered.
fn start(spec: &Spec, dnc: &Path, live: &Path) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let s = spawn(spec, dnc, live)?;
    let first = ask(s.addr, "query")?;
    let setup = t0.elapsed().as_secs_f64();
    if !first.starts_with("QUERY") {
        return Err(format!("first request answered {first:?}"));
    }
    Ok((s, setup))
}

/// `audit-child`: analyze one network file with each of the four
/// algorithms, repeating each until [`AUDIT_MIN`] has passed (at least
/// once), and print the mean time per analysis. The first analysis is
/// cold; later ones reuse this process's memo tables. Integrated is
/// checked against every declared deadline.
pub fn audit_child(net_file: &Path) -> i32 {
    let text = match std::fs::read_to_string(net_file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{}: {e}", net_file.display());
            return 2;
        }
    };
    let base = match load_base(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{}: {e}", net_file.display());
            return 2;
        }
    };
    let calib_before = util::calibrate();
    for (algo, metric) in crate::sweep::ALGOS {
        let alg = crate::sweep::analysis(algo);
        let t = Instant::now();
        let mut runs = 0u32;
        let mut verdict = "ok";
        while runs == 0 || t.elapsed() < AUDIT_MIN {
            runs += 1;
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| alg.analyze(&base.net)));
            verdict = match result {
                Ok(Ok(report)) if algo == "integrated" => {
                    if base
                        .deadlines
                        .iter()
                        .all(|d| report.bound(d.flow) <= d.deadline)
                    {
                        "ok"
                    } else {
                        "deadline-missed"
                    }
                }
                Ok(Ok(_)) => "ok",
                Ok(Err(_)) | Err(_) => "error",
            };
            if verdict != "ok" {
                break;
            }
        }
        println!(
            "analysis {metric} {} {verdict}",
            util::us(t.elapsed()) / f64::from(runs)
        );
    }
    let calib = (calib_before + util::calibrate()) / 2;
    println!("calib_us {}", util::us(calib));
    0
}
