//! Golden-file test pinning the FIFO-family and Service Curve bounds.
//!
//! Every flow's exact bound under `FifoFamily::default()` and
//! `ServiceCurve::paper()` on the paper tandem (`dnc tandem n U`,
//! n = 2..=10, U = 1/10..=9/10, with and without the exit ports) and on
//! one 12-switch tandem with uncapped token-bucket connections added
//! (like the network the `admit-tandem` benchmark serves) must equal the
//! lines checked in under `tests/golden/fifo_family.txt`. Both analyses
//! are exact, so any change to the convolution kernel, the family
//! members or the θ-descent that moves a bound by one bit fails here.
//! If a bound changed on purpose, regenerate the file by running with
//! `UPDATE_GOLDEN=1` and review the diff.

use dnc_core::fifo_family::FifoFamily;
use dnc_core::service_curve::ServiceCurve;
use dnc_core::DelayAnalysis;
use dnc_net::builders::{tandem, TandemOptions};
use dnc_net::{Flow, Network};
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
        net.add_flow(Flow {
            name: format!("tb{i}"),
            spec: TrafficSpec::token_bucket(Rat::from(sigma), Rat::new(rho, 40)),
            route: t.middle[first..first + hops].to_vec(),
            priority: 0,
        })
        .unwrap();
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

fn lines(label: &str, net: &Network) -> [String; 2] {
    [
        format!(
            "{label} fifo-family: {}",
            bounds(&FifoFamily::default(), net)
        ),
        format!(
            "{label} service-curve: {}",
            bounds(&ServiceCurve::paper(), net)
        ),
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
                out.extend(lines(&label, &t.net));
            }
        }
    }
    out.extend(lines(
        "tandem n=12 U=3/10 +10 buckets",
        &tandem_with_connections(),
    ));
    let got = out.join("\n") + "\n";

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fifo_family.txt");
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
