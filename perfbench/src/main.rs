//! The repository benchmark. See `perfbench/README.md` for the
//! workloads, the metrics and the layer each metric belongs to.
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --seconds <s> --dnc <path>
//!               [--trace 1 --plain <untraced perfbench>]
//! perfbench sweep-child --seed <n> [--pin]
//! perfbench audit-child --net <file.dnc>
//! ```
//!
//! `run` prints human-readable notes and, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod loadgen;
mod serve;
mod sweep;
mod traced;
mod util;

use std::path::PathBuf;

/// End-to-end metrics every untraced run reports, in `BENCHMARK.json`
/// order.
pub const E2E: [&str; 9] = [
    "setup_s",
    "ack_p50_ms",
    "ack_p99_ms",
    "sat_ops_s",
    "peak_rss_mb",
    "analyze.decomposed_ms",
    "analyze.service_curve_ms",
    "analyze.integrated_ms",
    "analyze.fifo_family_ms",
];

pub const WORKLOADS: [&str; 3] = ["admit-tandem", "admit-commit", "analyze-sweep"];

struct Args {
    cmd: String,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    pin: bool,
    dnc: Option<PathBuf>,
    plain: Option<PathBuf>,
    net: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        cmd: raw.first().cloned().ok_or("missing command")?,
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        pin: false,
        dnc: None,
        plain: None,
        net: None,
    };
    let mut i = 1;
    while i < raw.len() {
        let val = || {
            raw.get(i + 1)
                .cloned()
                .ok_or(format!("{} needs a value", raw[i]))
        };
        match raw[i].as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => a.seconds = val()?.parse().map_err(|_| "--seconds needs an integer")?,
            "--trace" => a.trace = val()? == "1",
            "--dnc" => a.dnc = Some(PathBuf::from(val()?)),
            "--plain" => a.plain = Some(PathBuf::from(val()?)),
            "--net" => a.net = Some(PathBuf::from(val()?)),
            "--pin" => {
                a.pin = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown option {other}")),
        }
        i += 2;
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = match args.cmd.as_str() {
        "sweep-child" => sweep::child(args.seed, args.pin),
        "audit-child" => match &args.net {
            Some(net) => serve::audit_child(net),
            None => {
                eprintln!("perfbench: audit-child needs --net <file>");
                2
            }
        },
        "run" => run(&args),
        other => {
            eprintln!("perfbench: unknown command {other}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &Args) -> i32 {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return 2;
    }
    if args.seconds == 0 {
        eprintln!("perfbench: --seconds must be positive");
        return 2;
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return 2;
        }
    };
    if args.trace {
        let Some(plain) = &args.plain else {
            eprintln!("perfbench: --trace 1 needs --plain <untraced perfbench>");
            return 2;
        };
        return traced::run(args, &exe, plain);
    }
    let outcome = if args.workload == "analyze-sweep" {
        let r = sweep::run(&exe, args.seed, args.seconds);
        println!(
            "analyze-sweep: {} fresh-process sweep(s), {} analyses",
            r.children, r.attempted
        );
        serve::Outcome {
            correct: r.correct,
            attempted: r.attempted,
            failed: r.failed,
            e2e: r.e2e,
        }
    } else {
        let Some(dnc) = &args.dnc else {
            eprintln!("perfbench: serve workloads need --dnc <path>");
            return 2;
        };
        match serve::run_stock(&args.workload, args.seed, args.seconds, dnc, &exe) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return 1;
            }
        }
    };
    println!("{}", report(&outcome));
    0
}

/// The result line of an untraced run: exactly the end-to-end metrics.
pub fn report(o: &serve::Outcome) -> String {
    let mut m = util::Metrics::new();
    for name in E2E {
        let v = o.e2e.get(name).map_or(0.0, |x| x.value);
        let unit = o.e2e.get(name).map_or("", |x| x.unit);
        util::put(&mut m, name, v, unit);
    }
    util::result_line(o.correct, o.attempted, o.failed, &m)
}
