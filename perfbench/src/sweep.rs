//! `analyze-sweep`: the paper's evaluation as a user reruns it.
//!
//! Every algorithm runs in a fixed order (Decomposed, Service Curve,
//! Integrated, FIFO family) over the paper tandem on an n × U grid. Each
//! sweep runs in a fresh child process, so the curve interner and the
//! memo tables start empty; the parent repeats sweeps for the run's
//! duration and reports the 10th percentile of each time across them
//! (the 90th of the analysis rate; see [`util::typical`]), each sweep's
//! times scaled to the reference speed by its own [`util::calibrate`]. Every exact bound is checked
//! against the digests pinned in `sweep_bounds.txt`.

use crate::util::{self, Metrics, Rng};
use dnc_core::decomposed::Decomposed;
use dnc_core::fifo_family::FifoFamily;
use dnc_core::integrated::Integrated;
use dnc_core::service_curve::ServiceCurve;
use dnc_core::DelayAnalysis;
use dnc_net::Network;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Tandem lengths for the three fast algorithms.
const NS: [usize; 8] = [2, 4, 6, 8, 10, 12, 14, 16];
/// Utilizations (tenths) for the three fast algorithms.
const US: [u32; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 9];
/// FIFO family is ~100x slower, so it gets a smaller grid.
const FIFO_NS: [usize; 4] = [2, 4, 6, 8];
const FIFO_US: [u32; 3] = [3, 6, 9];

/// The algorithms in sweep order, with their metric names.
pub const ALGOS: [(&str, &str); 4] = [
    ("decomposed", "analyze.decomposed_ms"),
    ("service-curve", "analyze.service_curve_ms"),
    ("integrated", "analyze.integrated_ms"),
    ("fifo-family", "analyze.fifo_family_ms"),
];

/// Exact-bound digests of every (algorithm, n, U) point.
const PINNED: &str = include_str!("../sweep_bounds.txt");

pub fn analysis(name: &str) -> Box<dyn DelayAnalysis> {
    match name {
        "decomposed" => Box::new(Decomposed::paper()),
        "service-curve" => Box::new(ServiceCurve::paper()),
        "integrated" => Box::new(Integrated::paper()),
        _ => Box::new(FifoFamily::default()),
    }
}

/// The sweep's (algorithm, n, U-tenths) points: algorithm-major in the
/// fixed order, grid points shuffled by `seed` within each algorithm.
fn points(seed: u64) -> Vec<(&'static str, usize, u32)> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for (algo, _) in ALGOS {
        let (ns, us): (&[usize], &[u32]) = if algo == "fifo-family" {
            (&FIFO_NS, &FIFO_US)
        } else {
            (&NS, &US)
        };
        let mut grid: Vec<(usize, u32)> = ns
            .iter()
            .flat_map(|&n| us.iter().map(move |&u| (n, u)))
            .collect();
        for i in (1..grid.len()).rev() {
            grid.swap(i, rng.below(i + 1));
        }
        out.extend(grid.into_iter().map(|(n, u)| (algo, n, u)));
    }
    out
}

fn pinned() -> BTreeMap<String, String> {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut t = l.split_whitespace();
            let key = format!("{} {} {}", t.next()?, t.next()?, t.next()?);
            Some((key, t.next()?.to_string()))
        })
        .collect()
}

/// One fresh-process sweep. Prints one `key value...` line per fact for
/// the parent to aggregate; with `pin`, prints the digest table instead.
pub fn child(seed: u64, pin: bool) -> i32 {
    let calib_before = util::calibrate();
    let pts = points(seed);
    // Generate every topology's text through the CLI's own generator,
    // then time parsing and building them all (the sweep's set-up).
    let mut texts: BTreeMap<(usize, u32), String> = BTreeMap::new();
    for &(_, n, u) in &pts {
        if let std::collections::btree_map::Entry::Vacant(e) = texts.entry((n, u)) {
            let args = ["tandem".to_string(), n.to_string(), format!("{u}/10")];
            match dnc_cli::commands::run(&args) {
                Ok(t) => {
                    e.insert(t);
                }
                Err(err) => {
                    eprintln!("tandem {n} {u}/10: {}", err.message);
                    return 2;
                }
            }
        }
    }
    let t0 = Instant::now();
    let mut nets: BTreeMap<(usize, u32), Network> = BTreeMap::new();
    for (key, text) in &texts {
        let built = dnc_cli::parse::parse_spec(text)
            .map_err(|e| e.to_string())
            .and_then(|spec| spec.build());
        match built {
            Ok(b) => {
                nets.insert(*key, std::hint::black_box(b.net));
            }
            Err(e) => {
                eprintln!("tandem {key:?}: {e}");
                return 2;
            }
        }
    }
    let setup = t0.elapsed();

    dnc_telemetry::reset();
    let pins = pinned();
    let mut out = String::new();
    for (algo, n, u) in pts {
        let net = &nets[&(n, u)];
        let alg = analysis(algo);
        let t = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| alg.analyze(net)));
        let dur = t.elapsed();
        let digest = match &result {
            Ok(Ok(report)) => {
                let mut h = util::FNV_OFFSET;
                for f in &report.flows {
                    h = util::fnv1a(h, format!("{}={};", f.name, f.e2e).as_bytes());
                }
                format!("{h:016x}")
            }
            Ok(Err(_)) | Err(_) => "error".to_string(),
        };
        let key = format!("{algo} {n} {u}/10");
        if pin {
            let _ = writeln!(out, "{key} {digest}");
            continue;
        }
        let verdict = match pins.get(&key) {
            _ if digest == "error" => "error",
            Some(p) if *p == digest => "ok",
            _ => "mismatch",
        };
        let _ = writeln!(out, "analysis {algo} {} {verdict}", util::us(dur));
    }
    if pin {
        print!("{out}");
        return 0;
    }
    let snap = dnc_telemetry::snapshot();
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "counter {name} {v}");
    }
    for (name, s) in &snap.spans {
        let _ = writeln!(out, "span {name} {} {}", s.count, s.total_ns);
    }
    let _ = writeln!(out, "intern_len {}", dnc_curves::intern::store_len());
    let _ = writeln!(out, "setup_us {}", util::us(setup));
    let calib = (calib_before + util::calibrate()) / 2;
    let _ = writeln!(out, "calib_us {}", util::us(calib));
    let _ = writeln!(out, "rss_mb {}", util::peak_rss_mb("self").unwrap_or(0.0));
    print!("{out}");
    0
}

/// What the sweep children reported, pooled.
#[derive(Default)]
pub struct SweepRun {
    pub children: usize,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    /// Per-layer counters and span totals, summed over children.
    pub counters: BTreeMap<String, f64>,
    pub spans: BTreeMap<String, (f64, f64)>,
    pub intern_len: f64,
    /// The percentile `ack_p99_ms` reports (per sweep).
    pub tail_q: f64,
}

/// Run fresh-process sweeps of `exe` for `seconds` (at least three) and
/// aggregate them.
pub fn run(exe: &Path, seed: u64, seconds: u64) -> SweepRun {
    let mut r = SweepRun {
        correct: true,
        ..SweepRun::default()
    };
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut per_algo: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    // Per sweep: the p50 and tail percentile of its analyses.
    let (mut p50s, mut tails, mut tail_q) = (Vec::new(), Vec::new(), 0.5);
    let mut rates = Vec::new();
    let mut interns = Vec::new();
    let start = Instant::now();
    while r.children < 3 || start.elapsed() < Duration::from_secs(seconds) {
        let out = Command::new(exe)
            .args(["sweep-child", "--seed", &seed.to_string()])
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!(
                    "sweep child failed ({}): {}",
                    o.status,
                    String::from_utf8_lossy(&o.stderr)
                );
                r.correct = false;
                r.failed += 1;
                r.attempted += 1;
                r.children += 1;
                continue;
            }
            Err(e) => {
                eprintln!("cannot start sweep child: {e}");
                r.correct = false;
                return r;
            }
        };
        r.children += 1;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
        let mut child_ms = Vec::new();
        let mut busy_us = 0.0;
        let mut done = 0.0;
        let mut setup_us = 0.0;
        let mut calib_us = util::CALIB_REF_US;
        for line in text.lines() {
            let t: Vec<&str> = line.split_whitespace().collect();
            match t.as_slice() {
                ["analysis", algo, us, verdict] => {
                    let us: f64 = us.parse().unwrap_or(0.0);
                    let name = ALGOS
                        .iter()
                        .find(|(a, _)| a == algo)
                        .map_or("?", |(_, m)| m);
                    *totals.entry(name).or_default() += us;
                    child_ms.push(us / 1000.0);
                    busy_us += us;
                    done += 1.0;
                    r.attempted += 1;
                    match *verdict {
                        "ok" => {}
                        "error" => {
                            r.failed += 1;
                            eprintln!("analysis failed: {line}");
                        }
                        _ => {
                            r.correct = false;
                            eprintln!("bound digest mismatch: {line}");
                        }
                    }
                }
                ["counter", name, v] => {
                    *r.counters.entry((*name).to_string()).or_default() +=
                        v.parse::<f64>().unwrap_or(0.0);
                }
                ["span", name, count, ns] => {
                    let e = r.spans.entry((*name).to_string()).or_default();
                    e.0 += count.parse::<f64>().unwrap_or(0.0);
                    e.1 += ns.parse::<f64>().unwrap_or(0.0);
                }
                ["intern_len", v] => interns.push(v.parse().unwrap_or(0.0)),
                ["setup_us", v] => setup_us = v.parse().unwrap_or(0.0),
                ["calib_us", v] => calib_us = v.parse().unwrap_or(util::CALIB_REF_US),
                ["rss_mb", v] => rss.push(v.parse().unwrap_or(0.0)),
                _ => {}
            }
        }
        // This sweep's times at the reference machine speed.
        let scale = util::CALIB_REF_US / calib_us;
        setups.push(setup_us / 1e6 * scale);
        for (name, total) in totals {
            per_algo
                .entry(name)
                .or_default()
                .push(total / 1000.0 * scale);
        }
        if !child_ms.is_empty() {
            tail_q = util::tail_quantile(child_ms.len());
            p50s.push(util::quantile(&child_ms, 0.5) * scale);
            tails.push(util::quantile(&child_ms, tail_q) * scale);
        }
        if busy_us > 0.0 {
            rates.push(done / (busy_us * scale / 1e6));
        }
    }
    if p50s.is_empty() {
        r.correct = false;
    }
    r.tail_q = tail_q;
    let m = &mut r.e2e;
    util::put(m, "setup_s", util::typical(&setups), "s");
    util::put(m, "ack_p50_ms", util::typical(&p50s), "ms");
    util::put(m, "ack_p99_ms", util::typical(&tails), "ms");
    util::put(m, "sat_ops_s", util::typical_rate(&rates), "1/s");
    util::put(m, "peak_rss_mb", util::median(&rss), "MiB");
    for (_, name) in ALGOS {
        let v = per_algo.get(name).map_or(0.0, |v| util::typical(v));
        util::put(m, name, v, "ms");
    }
    r.intern_len = util::median(&interns);
    r
}
