//! `cargo xtask kernel-bench` — curve-kernel on/off divergence smoke.
//!
//! Runs the pinned profile harness twice: once with the curve kernel
//! (hash-consed interning, shape fast paths, memo tables — DESIGN §18)
//! enabled, once with every fast path disabled so all operations take
//! the always-general algebra. The two runs must produce **Rat-exact**
//! identical bounds for every algorithm; any divergence is a soundness
//! bug in a fast path or memo and fails the task with
//! [`exit::VIOLATION`]. The wall-time ratio is reported for context
//! but never gated here (that is `dnc bench --gate`'s job).
//!
//! The kernel-off pass runs first: the interner's arena and the global
//! memo tables warm monotonically per process, so running the general
//! path first guarantees its results cannot have been produced by a
//! kernel code path.

use dnc_bench::exit;
use dnc_bench::profile::{run_profile, ProfileConfig, ProfileReport};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask kernel-bench [--quick] [--n SERVERS]";

fn as_exit(code: i32) -> ExitCode {
    ExitCode::from(code as u8)
}

fn bound_text(report: &ProfileReport, label: &str) -> String {
    report
        .algos
        .iter()
        .find(|a| a.label == label)
        .and_then(|a| a.bound.as_ref())
        .map(|b| b.to_string())
        .unwrap_or_else(|| "-".to_string())
}

/// Parse flags and run the on/off comparison.
pub fn kernel_bench_cmd(flags: &[String]) -> ExitCode {
    let mut cfg = ProfileConfig::default();
    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            "--quick" => {
                cfg.n = 4;
                cfg.repeats = 1;
            }
            "--n" => {
                i += 1;
                match flags.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => cfg.n = n,
                    None => {
                        eprintln!("xtask kernel-bench: --n needs a number\n{USAGE}");
                        return as_exit(exit::USAGE);
                    }
                }
            }
            other => {
                eprintln!("xtask kernel-bench: unknown flag `{other}`\n{USAGE}");
                return as_exit(exit::USAGE);
            }
        }
        i += 1;
    }

    dnc_curves::intern::set_kernel_enabled(false);
    let off = run_profile(&cfg);
    dnc_curves::intern::set_kernel_enabled(true);
    let on = run_profile(&cfg);

    println!(
        "kernel-bench: n={} U={:.2} repeats={}",
        cfg.n,
        cfg.u.to_f64(),
        cfg.repeats
    );
    println!(
        "{:<16} {:>14} {:>14} {:>10} {:>10} {:>8}",
        "algorithm", "bound(off)", "bound(on)", "off_us", "on_us", "ratio"
    );
    let mut divergences = 0usize;
    for a in &off.algos {
        let off_bound = bound_text(&off, a.label);
        let on_bound = bound_text(&on, a.label);
        let on_wall = on
            .algos
            .iter()
            .find(|b| b.label == a.label)
            .map(|b| b.wall_us)
            .unwrap_or(0);
        let ratio = if on_wall > 0 {
            a.wall_us as f64 / on_wall as f64
        } else {
            0.0
        };
        let diverged = off_bound != on_bound;
        if diverged {
            divergences += 1;
        }
        println!(
            "{:<16} {:>14} {:>14} {:>10} {:>10} {:>7.2}x{}",
            a.label,
            off_bound,
            on_bound,
            a.wall_us,
            on_wall,
            ratio,
            if diverged { "  DIVERGED" } else { "" }
        );
    }
    if on.algos.len() != off.algos.len() {
        eprintln!(
            "kernel-bench: algorithm sets differ ({} on vs {} off)",
            on.algos.len(),
            off.algos.len()
        );
        divergences += 1;
    }
    if divergences > 0 {
        eprintln!("kernel-bench: {divergences} Rat-exact divergence(s) between kernel on and off");
        as_exit(exit::VIOLATION)
    } else {
        println!("kernel on and off produce Rat-exact identical bounds");
        as_exit(exit::OK)
    }
}
