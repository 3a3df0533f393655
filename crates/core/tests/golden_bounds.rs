//! Golden-file test pinning the exact bounds of the analyses that build
//! residual service curves: FIFO family, Service Curve, and Decomposed
//! and Integrated over static-priority servers.
//!
//! Every flow's exact bound on these inputs must equal the lines checked
//! in under `tests/golden/bounds.txt`:
//!
//! * `FifoFamily::default()` and `ServiceCurve::paper()` on the paper
//!   tandem (`dnc tandem n U`, n = 2..=10, U = 1/10..=9/10, with and
//!   without the exit ports), and on one 12-switch tandem with uncapped
//!   token-bucket connections added (like the network the `admit-tandem`
//!   benchmark serves);
//! * both again with `OutputCap::ShiftRateCapped` on the paper tandem,
//!   n = 2..=8;
//! * both on a FIFO chain whose server ids run against the topological
//!   order;
//! * Service Curve on a chain of alternating FIFO and GPS servers;
//! * `Decomposed::paper()` and `Integrated::paper()` on the paper tandem
//!   with static-priority middle links, n = 2..=10. At n = 11, U = 3/10
//!   Integrated panics with `Rat overflow` (exact fractions outgrow
//!   `i128`), so the grid stops at 10.
//!
//! All these analyses are exact, so any change to the convolution kernel,
//! the positive part, the residual curves, the family members or the
//! θ-descent that moves a bound by one bit fails here. If a bound changed
//! on purpose, regenerate the file by running with `UPDATE_GOLDEN=1` and
//! review the diff.

use dnc_core::decomposed::Decomposed;
use dnc_core::fifo_family::FifoFamily;
use dnc_core::integrated::Integrated;
use dnc_core::service_curve::ServiceCurve;
use dnc_core::{DelayAnalysis, OutputCap};
use dnc_net::builders::{tandem, TandemOptions};
use dnc_net::{Discipline, Flow, Network, Server, ServerId};
use dnc_num::Rat;
use dnc_traffic::TrafficSpec;
use std::path::PathBuf;

/// `dnc tandem 12 3/10` with ten token-bucket connections of one or two
/// hops (burst 1–3, rate 1/40–2/40, no peak cap) added.
fn tandem_with_connections() -> Network {
    let t = tandem(12, Rat::ONE, Rat::new(3, 40), TandemOptions::default());
    let mut net = t.net;
    let adds: [(usize, usize, i128, i128); 10] = [
        (0, 2, 1, 1),
        (1, 1, 2, 2),
        (3, 2, 3, 1),
        (4, 1, 1, 2),
        (5, 2, 2, 1),
        (7, 1, 3, 2),
        (8, 2, 1, 1),
        (9, 2, 2, 2),
        (10, 1, 3, 1),
        (10, 2, 1, 2),
    ];
    for (i, &(first, hops, sigma, rho)) in adds.iter().enumerate() {
        let spec = TrafficSpec::token_bucket(Rat::from(sigma), Rat::new(rho, 40));
        add(
            &mut net,
            &format!("tb{i}"),
            spec,
            &t.middle[first..first + hops],
        );
    }
    net
}

fn add(net: &mut Network, name: &str, spec: TrafficSpec, route: &[ServerId]) {
    net.add_flow(Flow {
        name: name.into(),
        spec,
        route: route.to_vec(),
        priority: 0,
    })
    .unwrap();
}

/// Five unit-rate servers of the given disciplines in a chain, with one
/// flow over the whole chain and cross flows of one to three hops.
/// `reversed` adds the servers in the opposite order of the chain, so
/// every flow runs from higher server ids to lower ones.
fn chain(disciplines: [Discipline; 5], reversed: bool) -> Network {
    let mut net = Network::new();
    let mut servers: Vec<ServerId> = (0..5)
        .map(|i| {
            let j = if reversed { 4 - i } else { i };
            net.add_server(Server {
                name: format!("s{j}"),
                rate: Rat::ONE,
                discipline: disciplines[j],
            })
        })
        .collect();
    if reversed {
        servers.reverse();
    }
    // Unit-peak sources of burst `sigma` and rate `rho`/40.
    let spec =
        |sigma: i128, rho: i128| TrafficSpec::paper_source(Rat::from(sigma), Rat::new(rho, 40));
    add(&mut net, "long", spec(2, 3), &servers);
    let cross: [(usize, usize, i128, i128); 6] = [
        (0, 2, 1, 2),
        (1, 1, 3, 4),
        (1, 3, 1, 1),
        (2, 2, 2, 3),
        (3, 2, 1, 5),
        (4, 1, 2, 2),
    ];
    for (i, &(first, hops, sigma, rho)) in cross.iter().enumerate() {
        add(
            &mut net,
            &format!("x{i}"),
            spec(sigma, rho),
            &servers[first..first + hops],
        );
    }
    net
}

fn bounds(alg: &dyn DelayAnalysis, net: &Network) -> String {
    alg.analyze(net)
        .unwrap()
        .flows
        .iter()
        .map(|f| format!("{}={}", f.name, f.e2e))
        .collect::<Vec<_>>()
        .join(" ")
}

fn line(label: &str, alg: &dyn DelayAnalysis, net: &Network) -> String {
    format!("{label} {}: {}", alg.name(), bounds(alg, net))
}

fn lines(label: &str, net: &Network, cap: OutputCap) -> [String; 2] {
    let family = FifoFamily {
        cap,
        ..FifoFamily::default()
    };
    [
        line(label, &family, net),
        line(label, &ServiceCurve { cap }, net),
    ]
}

#[test]
fn bounds_match_the_golden_file() {
    let mut out = Vec::new();
    for exit_ports in [false, true] {
        for n in 2..=10 {
            for u in 1..=9 {
                let opts = TandemOptions {
                    include_exit_ports: exit_ports,
                    ..TandemOptions::default()
                };
                let t = tandem(n, Rat::ONE, Rat::new(u, 40), opts);
                let label = format!("tandem n={n} U={u}/10 exit_ports={exit_ports}");
                out.extend(lines(&label, &t.net, OutputCap::Shift));
            }
        }
    }
    out.extend(lines(
        "tandem n=12 U=3/10 +10 buckets",
        &tandem_with_connections(),
        OutputCap::Shift,
    ));
    for n in 2..=8 {
        for u in 1..=9 {
            let t = tandem(n, Rat::ONE, Rat::new(u, 40), TandemOptions::default());
            let label = format!("tandem n={n} U={u}/10 rate-capped");
            out.extend(lines(&label, &t.net, OutputCap::ShiftRateCapped));
        }
    }
    out.extend(lines(
        "fifo chain, ids reversed",
        &chain([Discipline::Fifo; 5], true),
        OutputCap::Shift,
    ));
    let (fifo, gps) = (Discipline::Fifo, Discipline::Gps);
    out.push(line(
        "fifo/gps chain",
        &ServiceCurve::paper(),
        &chain([fifo, gps, fifo, gps, fifo], false),
    ));
    for n in 2..=10 {
        for u in 1..=9 {
            let opts = TandemOptions {
                discipline: Discipline::StaticPriority,
                ..TandemOptions::default()
            };
            let t = tandem(n, Rat::ONE, Rat::new(u, 40), opts);
            let label = format!("sp tandem n={n} U={u}/10");
            out.push(line(&label, &Decomposed::paper(), &t.net));
            out.push(line(&label, &Integrated::paper(), &t.net));
        }
    }
    let got = out.join("\n") + "\n";

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bounds.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "bound line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
}
