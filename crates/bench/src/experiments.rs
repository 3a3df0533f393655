//! The paper's evaluation (Figures 4–6) and our extensions of it.
//!
//! Each experiment runs a fixed configuration — the one `EXPERIMENTS.md`
//! records — and returns a [`HarnessOutput`]: the printed table, the
//! CSV (and, for the figures, an SVG chart), the `dnc-metrics/v1`
//! series, and a soundness verdict. `dnc figure <4|5|6>`, `dnc modern`,
//! `dnc validate`, `dnc admission`, `dnc tightness` and
//! `dnc disciplines` are thin wrappers over these functions.

use crate::{
    chart, paper_tandem, render_table, sweep, sweep_csv, sweep_series, u_grid, Algo, HarnessOutput,
};
use dnc_core::admission::max_admissible_utilization;
use dnc_core::exact::TwoServerScenario;
use dnc_core::integrated::pair_delay_bound;
use dnc_core::{decomposed::Decomposed, integrated::Integrated, service_curve::ServiceCurve};
use dnc_core::{DelayAnalysis, OutputCap};
use dnc_curves::Curve;
use dnc_net::{Discipline, Flow, FlowId, Network, NetworkError, Server};
use dnc_num::{int, rat, Rat};
use dnc_sim::{all_greedy, batch, simulate, SimConfig};
use dnc_telemetry::export::{Cell, Series};
use dnc_telemetry::schema;
use dnc_traffic::{SourceModel, TrafficSpec};
use std::fmt::Write as _;

/// A two-algorithm tandem sweep over the work-load grid: the table, the
/// CSV, and — for the paper's figures — an SVG chart titled `title`.
fn sweep_harness(
    name: &'static str,
    title: Option<&str>,
    algos: [Algo; 2],
    ns: &[usize],
) -> HarnessOutput {
    // Sweeps are deterministic in their inputs, not in the worker count.
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let pts = sweep(ns, &u_grid(), &algos, workers);
    let mut out = HarnessOutput::new(
        name,
        render_table(&pts, &algos),
        sweep_series(&pts, &algos),
        true,
    )
    .with_file(format!("{name}.csv"), sweep_csv(&pts, &algos));
    if let Some(title) = title {
        let svg = chart::figure_chart(title, &pts, &algos).to_svg();
        out = out.with_file(format!("{name}.svg"), svg);
    }
    out
}

/// The paper's Figures 4–6, for Connection 0 of the tandem over the
/// work-load grid: name, chart title, the compared pair, network sizes.
///
/// * Figure 4 — the service-curve method is far worse than Decomposed
///   for FIFO, the gap growing in load.
/// * Figure 5 — Integrated always beats Decomposed, and up to ~80% load
///   the gain grows with network size.
/// * Figure 6 — large gains over Service Curve, narrowing for large
///   systems under very high load.
#[rustfmt::skip]
pub const FIGURES: [(&str, &str, [Algo; 2], &[usize]); 3] = [
    ("fig4", "Figure 4: Decomposed vs Service Curve", [Algo::ServiceCurve, Algo::Decomposed], &[2, 4, 6, 8]),
    ("fig5", "Figure 5: Integrated vs Decomposed", [Algo::Decomposed, Algo::Integrated], &[2, 4, 8]),
    ("fig6", "Figure 6: Integrated vs Service Curve", [Algo::ServiceCurve, Algo::Integrated], &[2, 4, 6, 8]),
];

/// Figure `number` of the paper; `None` unless it is 4, 5 or 6.
pub fn figure(number: u32) -> Option<HarnessOutput> {
    let name = format!("fig{number}");
    let (name, title, algos, ns) = FIGURES.into_iter().find(|f| f.0 == name)?;
    Some(sweep_harness(name, Some(title), algos, ns))
}

/// Beyond the paper: Algorithm Integrated against the θ-optimized FIFO
/// service-curve family, the direction the field took after 1999
/// (culminating in LUDB).
pub fn modern() -> HarnessOutput {
    sweep_harness(
        "modern",
        None,
        [Algo::FifoFamily, Algo::Integrated],
        &[2, 4, 8],
    )
}

/// Adversarial (greedy) and randomized simulations of the tandem
/// against all three analytic bounds. Every observed delay must stay
/// below every bound; the table also shows how much headroom each
/// method leaves. Unsound on any violation.
pub fn sim_validation() -> HarnessOutput {
    let algos = [Algo::ServiceCurve, Algo::Decomposed, Algo::Integrated];
    let cfg = SimConfig {
        ticks: 16384,
        ..SimConfig::default()
    };
    let mut text = format!(
        "{:>3} {:>5} {:>12} {:>12} {:>12} {:>12}\n",
        "n", "U", "sim_max", "svc_curve", "decomposed", "integrated"
    );
    let mut csv = String::from("n,u,sim_max,service_curve,decomposed,integrated\n");
    let mut series = Series::new(
        "validate",
        vec![
            schema::NETWORK_SIZE,
            schema::WORK_LOAD,
            schema::SIM_MAX_DELAY,
            schema::LABEL,
            schema::bound_column(),
        ],
    );
    let mut violations = 0usize;
    let mut failures = Vec::new();
    for n in [2usize, 4, 8] {
        for u in [rat(1, 4), rat(1, 2), rat(3, 4), rat(9, 10)] {
            let t = paper_tandem(n, u);
            let greedy = simulate(&t.net, &all_greedy(&t.net), &cfg);
            let onoff = vec![
                SourceModel::OnOff {
                    on: 8,
                    off: 8,
                    phase: 3
                };
                t.net.flows().len()
            ];
            let sweep = batch::seed_sweep(&t.net, &onoff, &cfg, &[1, 2, 3], 3);
            let randomized = match batch::collect_reports(sweep) {
                Ok(reports) => reports,
                Err(e) => {
                    failures.push(format!("n = {n}, U = {u}: seed sweep failed: {e}"));
                    continue;
                }
            };
            let observed = greedy.flows[t.conn0.0]
                .max_delay
                .max(batch::worst_delay(&randomized, t.conn0.0));
            let bounds: Vec<Option<Rat>> = algos
                .iter()
                .map(|a| a.analyze(&t.net).ok().map(|r| r.bound(t.conn0)))
                .collect();
            let obs = Rat::from(observed as i64);
            violations += bounds.iter().flatten().filter(|&&b| obs > b).count();
            for (a, b) in algos.iter().zip(&bounds) {
                series.push_row(vec![
                    Cell::int(n as u64),
                    Cell::Num(u.to_f64()),
                    Cell::int(observed),
                    Cell::Text(a.label().to_string()),
                    b.map_or(Cell::Null, |v| Cell::Num(v.to_f64())),
                ]);
            }
            let cells: Vec<String> = bounds
                .iter()
                .map(|b| b.map_or("inf".to_string(), |v| format!("{:.3}", v.to_f64())))
                .collect();
            let _ = write!(text, "{n:>3} {:>5.2} {observed:>12}", u.to_f64());
            let _ = writeln!(text, " {:>12} {:>12} {:>12}", cells[0], cells[1], cells[2]);
            let _ = writeln!(csv, "{n},{:.3},{observed},{}", u.to_f64(), cells.join(","));
        }
    }
    for f in &failures {
        let _ = writeln!(text, "{f}");
    }
    if violations > 0 {
        let _ = writeln!(text, "BOUND VIOLATIONS: {violations}");
    } else if failures.is_empty() {
        let _ = writeln!(text, "all observed delays within all bounds");
    }
    let sound = violations == 0 && failures.is_empty();
    HarnessOutput::new("validate", text, vec![series], sound)
        .with_file("validate.csv".to_string(), csv)
}

/// Admission-control effectiveness (our extension of the evaluation):
/// the largest tandem work load each analysis certifies for a family of
/// Connection-0 deadlines — how many connections each method lets a
/// bounded-delay service carry.
pub fn admission() -> HarnessOutput {
    let deadlines = [int(8), int(16), int(32), int(64)];
    let algos: [(&str, Box<dyn DelayAnalysis>); 3] = [
        ("service_curve", Box::new(ServiceCurve::paper())),
        ("decomposed", Box::new(Decomposed::paper())),
        ("integrated", Box::new(Integrated::paper())),
    ];
    let mut text = format!(
        "{:>3} {:>9} {:>15} {:>15} {:>15}\n",
        "n", "deadline", "service_curve", "decomposed", "integrated"
    );
    let mut csv = String::from("n,deadline,service_curve,decomposed,integrated\n");
    // Long-format mirror of the CSV: one row per (n, deadline, algorithm),
    // with the largest certifiable work load in the WORK_LOAD column.
    let mut series = Series::new(
        "admission",
        vec![
            schema::NETWORK_SIZE,
            schema::DEADLINE,
            schema::LABEL,
            schema::WORK_LOAD,
        ],
    );
    for n in [2usize, 4, 8] {
        for dl in deadlines {
            let mut cells: Vec<String> = Vec::new();
            for (label, alg) in &algos {
                let u = max_admissible_utilization(n, Rat::ONE, dl, alg.as_ref(), 40);
                series.push_row(vec![
                    Cell::int(n as u64),
                    Cell::Num(dl.to_f64()),
                    Cell::Text(label.to_string()),
                    u.map_or(Cell::Null, |u| Cell::Num(u.to_f64())),
                ]);
                cells.push(u.map_or("-".to_string(), |u| format!("{:.3}", u.to_f64())));
            }
            let dl = dl.to_f64();
            let _ = write!(text, "{n:>3} {dl:>9}");
            let _ = writeln!(text, " {:>15} {:>15} {:>15}", cells[0], cells[1], cells[2]);
            let _ = writeln!(csv, "{n},{dl},{}", cells.join(","));
        }
    }
    HarnessOutput::new("admission", text, vec![series], true)
        .with_file("admission.csv".to_string(), csv)
}

/// Tightness of the two-server theorem (our addition): on the paper's
/// Figure-1 subsystem, the exact fluid worst case of the greedy sample
/// path (Lemmas 1–4) against the Theorem-1′ integrated bound and the
/// decomposed bound `d1 + d2`, over a grid of bursts and loads.
/// `exact / bound` measures how much of each bound is real. Unsound
/// unless `exact ≤ integrated ≤ decomposed` on every row.
pub fn tightness() -> HarnessOutput {
    let mut text = format!(
        "{:>4} {:>6} {:>10} {:>12} {:>12} {:>10} {:>10}\n",
        "σ", "ρ", "exact", "integrated", "decomposed", "tight_I", "tight_D"
    );
    let mut csv =
        String::from("sigma,rho,exact,integrated,decomposed,tightness_int,tightness_dec\n");
    // Long-format mirror of the CSV: one row per (σ, ρ, method).
    let mut series = Series::new(
        "tightness",
        vec![
            schema::BURST,
            schema::SUSTAINED_RATE,
            schema::LABEL,
            schema::bound_column(),
            schema::TIGHTNESS,
        ],
    );
    let mut sound = true;
    for s in [1i64, 4, 8] {
        for rho in [rat(1, 8), rat(1, 4), rat(3, 8), rat(7, 16)] {
            let sigma = Rat::from(s);
            // Symmetric subsystem: equal bursts on all three flow sets.
            let mk = || Curve::token_bucket_peak(sigma, rho, Rat::ONE);
            let (f12, f1, f2) = (mk(), mk(), mk());
            let pb = match pair_delay_bound(&f12, &f1, &f2, Rat::ONE, Rat::ONE, OutputCap::Shift) {
                Ok(pb) => pb,
                Err(e) => {
                    let _ = writeln!(text, "{:>4} {:>6.3} analysis failed: {e}", s, rho.to_f64());
                    sound = false;
                    continue;
                }
            };
            let exact = TwoServerScenario {
                a12: f12,
                a1: f1,
                a2: f2,
                c1: Rat::ONE,
                c2: Rat::ONE,
            }
            .max_s12_delay(192);
            let dec = pb.d1 + pb.d2;
            let (tight_i, tight_d) = ((exact / pb.through).to_f64(), (exact / dec).to_f64());
            let (r, e, i, d) = (
                rho.to_f64(),
                exact.to_f64(),
                pb.through.to_f64(),
                dec.to_f64(),
            );
            let _ = writeln!(
                text,
                "{s:>4} {r:>6.3} {e:>10.4} {i:>12.4} {d:>12.4} {tight_i:>10.3} {tight_d:>10.3}"
            );
            let _ = writeln!(
                csv,
                "{s},{r:.4},{e:.6},{i:.6},{d:.6},{tight_i:.4},{tight_d:.4}"
            );
            for (label, delay, tight) in [
                ("exact", exact, 1.0),
                ("integrated", pb.through, tight_i),
                ("decomposed", dec, tight_d),
            ] {
                series.push_row(vec![
                    Cell::int(s as u64),
                    Cell::Num(rho.to_f64()),
                    Cell::Text(label.to_string()),
                    Cell::Num(delay.to_f64()),
                    Cell::Num(tight),
                ]);
            }
            if !ordered(exact, pb.through, dec) {
                let _ = writeln!(
                    text,
                    "ORDER VIOLATION: exact <= integrated <= decomposed fails"
                );
                sound = false;
            }
        }
    }
    HarnessOutput::new("tightness", text, vec![series], sound)
        .with_file("tightness.csv".to_string(), csv)
}

/// The tightness chain every row must satisfy: the exact worst case
/// never exceeds the integrated bound, which never exceeds the
/// decomposed one.
fn ordered(exact: Rat, integrated: Rat, decomposed: Rat) -> bool {
    exact <= integrated && integrated <= decomposed
}

/// One shared unit link carrying two urgent small flows and two relaxed
/// bulk flows under `discipline`; returns the network and the two
/// classes' flow ids.
fn two_class_link(discipline: Discipline) -> Result<(Network, FlowId, FlowId), NetworkError> {
    let mut net = Network::new();
    let s = net.add_server(Server {
        name: "link".into(),
        rate: Rat::ONE,
        discipline,
    });
    let mut first = Vec::new();
    for (class, sigma, rho, priority, local_deadline) in [
        ("urgent", int(1), rat(1, 16), 0, int(3)),
        ("bulk", int(8), rat(1, 4), 4, int(40)),
    ] {
        for k in 0..2 {
            let f = net.add_flow(Flow {
                name: format!("{class}{k}"),
                spec: TrafficSpec::token_bucket(sigma, rho),
                route: vec![s],
                priority,
            })?;
            if discipline == Discipline::Edf {
                net.set_local_deadline(f, s, local_deadline);
            }
            if discipline == Discipline::Gps {
                net.reserve(f, s, rat(1, 4));
            }
            if k == 0 {
                first.push(f);
            }
        }
    }
    Ok((net, first[0], first[1]))
}

/// Discipline comparison (our addition, spanning the paper's intro
/// survey): one two-class traffic mix served FIFO, static-priority, EDF
/// and GPS on one shared unit link, with each class's certified delay
/// bound per discipline — why the 1990s produced this zoo of
/// schedulers, and where the paper's FIFO focus sits in it.
pub fn disciplines() -> HarnessOutput {
    let mut text = format!(
        "{:<16} {:>14} {:>14}\n",
        "discipline", "urgent bound", "bulk bound"
    );
    let mut csv = String::from("discipline,urgent_bound,bulk_bound\n");
    let mut series = Series::new("disciplines", vec![schema::LABEL, schema::bound_column()]);
    for (label, d) in [
        ("fifo", Discipline::Fifo),
        ("static-priority", Discipline::StaticPriority),
        ("edf", Discipline::Edf),
        ("gps", Discipline::Gps),
    ] {
        let analyzed = two_class_link(d)
            .map_err(|e| e.to_string())
            .and_then(|(net, u, b)| {
                let r = Decomposed::paper()
                    .analyze(&net)
                    .map_err(|e| e.to_string())?;
                Ok((r.bound(u), r.bound(b)))
            });
        match analyzed {
            Ok((u, b)) => {
                let _ = writeln!(
                    text,
                    "{label:<16} {:>14.4} {:>14.4}",
                    u.to_f64(),
                    b.to_f64()
                );
                let _ = writeln!(csv, "{label},{:.6},{:.6}", u.to_f64(), b.to_f64());
                for (class, bound) in [("urgent", u), ("bulk", b)] {
                    series.push_row(vec![
                        Cell::Text(format!("{label}/{class}")),
                        Cell::Num(bound.to_f64()),
                    ]);
                }
            }
            Err(e) => {
                let _ = writeln!(text, "{label:<16} {e}");
            }
        }
    }
    HarnessOutput::new("disciplines", text, vec![series], true)
        .with_file("disciplines.csv".to_string(), csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tightness_order_check_flags_a_broken_chain() {
        assert!(ordered(int(1), int(2), int(2)));
        assert!(!ordered(int(3), int(2), int(4)), "exact above integrated");
        assert!(
            !ordered(int(1), int(5), int(4)),
            "integrated above decomposed"
        );
    }
}
