//! Golden-file test pinning the pairing partitions.
//!
//! The `GreedyChain` and `OptimalSmall` partitions of the paper tandem
//! (n = 2..=16, with and without the exit ports) and of 50 seeded random
//! feedforward networks (mixed FIFO/static-priority servers, 1–4-hop
//! routes, server ids not in topological order) must equal, group for
//! group and in evaluation order, the lines checked in under
//! `tests/golden/partitions.txt`. A change to the pairing rule, its
//! tie-breaks or the order of the groups fails here. If the partition
//! changed on purpose, regenerate the file by running with
//! `UPDATE_GOLDEN=1` and review the diff.

use dnc_net::builders::{tandem, TandemOptions};
use dnc_net::pairing::{partition, Group, PairingStrategy};
use dnc_net::{Discipline, Flow, Network, Server, ServerId};
use dnc_num::Rat;
use dnc_traffic::TrafficSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// A random feedforward network: 3–12 servers of random discipline, a
/// random topological rank per server, and up to 3 flows per server,
/// each over 1–4 distinct servers visited in rank order.
fn random_network(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let n: usize = rng.gen_range(3..=12);
    let mut rank: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        rank.swap(i, rng.gen_range(0..=i));
    }
    let mut net = Network::new();
    for i in 0..n {
        let discipline = if rng.gen_bool(0.5) {
            Discipline::Fifo
        } else {
            Discipline::StaticPriority
        };
        net.add_server(Server {
            name: format!("s{i}"),
            rate: Rat::ONE,
            discipline,
        });
    }
    let flows: usize = rng.gen_range(1..=3 * n);
    for f in 0..flows {
        let hops: usize = rng.gen_range(1..=n.min(4));
        let mut picks: Vec<usize> = (0..n).collect();
        for i in 0..hops {
            picks.swap(i, rng.gen_range(i..n));
        }
        let mut route: Vec<usize> = picks.into_iter().take(hops).collect();
        route.sort_by_key(|&s| rank[s]);
        net.add_flow(Flow {
            name: format!("f{f}"),
            spec: TrafficSpec::token_bucket(Rat::ONE, Rat::new(1, 64)),
            route: route.into_iter().map(ServerId).collect(),
            priority: (f % 3) as u8,
        })
        .unwrap();
    }
    net
}

fn render(net: &Network, strategy: PairingStrategy) -> String {
    partition(net, strategy)
        .unwrap()
        .groups
        .iter()
        .map(|g| match *g {
            Group::Single(s) => s.0.to_string(),
            Group::Pair(a, b) => format!("{}+{}", a.0, b.0),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn line(label: &str, net: &Network) -> String {
    format!(
        "{label} greedy: {} | optimal: {}",
        render(net, PairingStrategy::GreedyChain),
        render(net, PairingStrategy::OptimalSmall)
    )
}

#[test]
fn partitions_match_the_golden_file() {
    let mut lines = Vec::new();
    for exit_ports in [false, true] {
        for n in 2..=16 {
            let opts = TandemOptions {
                include_exit_ports: exit_ports,
                ..TandemOptions::default()
            };
            let t = tandem(n, Rat::ONE, Rat::new(3, 40), opts);
            lines.push(line(
                &format!("tandem n={n} exit_ports={exit_ports}"),
                &t.net,
            ));
        }
    }
    for seed in 1..=50 {
        lines.push(line(&format!("random seed={seed}"), &random_network(seed)));
    }
    let got = lines.join("\n") + "\n";

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/partitions.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "partition line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
}
