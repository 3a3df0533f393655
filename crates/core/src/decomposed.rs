//! **Algorithm Decomposed** — the classical Cruz analysis the paper
//! compares against.
//!
//! The network is partitioned into isolated servers. Walking the servers
//! in topological order, the local worst-case delay of each server is
//! computed from the aggregate of the (propagated) per-connection
//! constraint functions, each connection's constraint is re-characterized
//! at the server's output (`b'(I) = b(I + d)`), and a connection's
//! end-to-end bound is the sum of the local bounds along its route. The
//! over-estimation the paper criticizes comes from assuming every packet
//! hits the worst case at *every* hop.
//!
//! That walk is Algorithm Integrated's recipe over single servers instead
//! of pairs, so [`Decomposed`] runs Integrated's analysis with
//! [`PairingStrategy::Singletons`]. Its per-server step,
//! `local_delays`, is the one local-delay dispatch every decomposition
//! shares: Integrated's unpaired servers, [`backlog_bounds`] and
//! time-stopping ([`crate::cyclic`]).

use crate::integrated::Integrated;
use crate::propagate::Propagation;
use crate::{edf, fifo, gps, sp, AnalysisError, AnalysisReport, DelayAnalysis, OutputCap};
use dnc_curves::Curve;
use dnc_net::pairing::PairingStrategy;
use dnc_net::{Discipline, FlowId, Network, ServerId};
use dnc_num::Rat;

/// Algorithm Decomposed, parameterized by the output-propagation model.
#[derive(Clone, Copy, Debug, Default)]
pub struct Decomposed {
    /// Output re-characterization model (paper: [`OutputCap::Shift`]).
    pub cap: OutputCap,
}

impl Decomposed {
    /// The paper's configuration.
    pub fn paper() -> Decomposed {
        Decomposed {
            cap: OutputCap::Shift,
        }
    }
}

impl DelayAnalysis for Decomposed {
    fn name(&self) -> &'static str {
        "decomposed"
    }

    fn analyze(&self, net: &Network) -> Result<AnalysisReport, AnalysisError> {
        let _span = dnc_telemetry::span("algo.decomposed");
        let singletons = Integrated {
            cap: self.cap,
            strategy: PairingStrategy::Singletons,
        };
        let (report, _) = singletons.drive(net)?;
        Ok(AnalysisReport {
            algorithm: self.name(),
            ..report
        })
    }
}

/// Per-flow local delays at `server`, given every incident flow's
/// constraint at the server's entrance (`curves`, nondecreasing arrival
/// curves). A FIFO server gives every flow the local bound `h(G, λ_C)`
/// of the aggregate `G`; static-priority, GPS and EDF servers run their
/// own per-flow analyses.
pub(crate) fn local_delays(
    net: &Network,
    server: ServerId,
    curves: &[(FlowId, Curve)],
) -> Result<Vec<(FlowId, Rat)>, AnalysisError> {
    match net.server(server).discipline {
        Discipline::Fifo => {
            let g = fifo::aggregate_curve(curves.iter().map(|(_, c)| c));
            let d = fifo::local_delay(&g, net.server(server).rate, server)?;
            Ok(curves.iter().map(|(f, _)| (*f, d)).collect())
        }
        Discipline::StaticPriority => sp::local_delays(net, server, curves),
        Discipline::Gps => gps::local_delays(net, server, curves),
        Discipline::Edf => edf::local_delays(net, server, curves),
    }
}

/// Per-server worst-case **backlog** bounds (in cells), computed with the
/// same decomposition walk as the delay analysis — the buffer-sizing
/// companion of the delay bounds (how much memory each output port needs
/// so that no conforming workload ever drops a cell).
pub fn backlog_bounds(net: &Network, cap: OutputCap) -> Result<Vec<Rat>, AnalysisError> {
    net.validate()?;
    let order = net.topological_order()?;
    let mut prop = Propagation::new(net, cap);
    let mut backlog = vec![Rat::ZERO; net.servers().len()];
    for server in order {
        let curves: Vec<(FlowId, Curve)> = net
            .flows_through(server)
            .into_iter()
            .map(|f| (f, prop.curve_at(f, server).clone()))
            .collect();
        if curves.is_empty() {
            continue;
        }
        let g = fifo::aggregate_curve(curves.iter().map(|(_, c)| c));
        backlog[server.0] = fifo::local_backlog(&g, net.server(server).rate, server)?; // audit: allow(index, tables sized to the flow/server count, indexed by FlowId/ServerId of the same network)

        // Propagation still needs delay bounds (discipline-aware).
        for (f, d) in local_delays(net, server, &curves)? {
            prop.advance(f, server, d);
        }
    }
    Ok(backlog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_net::builders;
    use dnc_num::{int, rat};
    use dnc_traffic::TrafficSpec;

    #[test]
    fn single_server_matches_hand_calc() {
        // Two uncapped buckets (σ=2, ρ=1/8) and (σ=3, ρ=1/8) on a unit
        // FIFO server: local delay = total burst = 5.
        let (net, flows, _) = builders::chain(
            1,
            &[
                TrafficSpec::token_bucket(int(2), rat(1, 8)),
                TrafficSpec::token_bucket(int(3), rat(1, 8)),
            ],
        );
        let r = Decomposed::paper().analyze(&net).unwrap();
        assert_eq!(r.bound(flows[0]), int(5));
        assert_eq!(r.bound(flows[1]), int(5));
    }

    #[test]
    fn two_hop_chain_inflates_bursts() {
        // One uncapped bucket (σ=4, ρ=1/4) through two unit servers.
        // Hop 1: d1 = 4. Output: σ' = 4 + 1 = 5. Hop 2: d2 = 5. E2E = 9.
        let (net, flows, _) = builders::chain(2, &[TrafficSpec::token_bucket(int(4), rat(1, 4))]);
        let r = Decomposed::paper().analyze(&net).unwrap();
        assert_eq!(r.bound(flows[0]), int(9));
        let stages = &r.flows[flows[0].0].stages;
        assert_eq!(stages[0].1, int(4));
        assert_eq!(stages[1].1, int(5));
    }

    #[test]
    fn paper_first_link_delay() {
        // The paper's first-switch local delay with peak-capped sources:
        // three connections min{I, σ + ρI} on a unit link give
        // E_1 = 2σ/(1−ρ).
        let sigma = int(1);
        let rho = rat(1, 8); // U = 1/2
        let t = builders::tandem(2, sigma, rho, builders::TandemOptions::default());
        let r = Decomposed::paper().analyze(&t.net).unwrap();
        let first_stage = &r.flows[t.conn0.0].stages[0];
        let expect = (sigma * int(2)) / (int(1) - rho);
        assert_eq!(first_stage.1, expect, "E_1 = 2σ/(1−ρ)");
    }

    #[test]
    fn bounds_grow_with_load() {
        let opts = builders::TandemOptions::default();
        let mut last = Rat::ZERO;
        for u_num in [1i64, 2, 3] {
            let t = builders::tandem(4, int(1), Rat::new(u_num as i128, 16), opts);
            let r = Decomposed::paper().analyze(&t.net).unwrap();
            let b = r.bound(t.conn0);
            assert!(b > last, "bound must grow with load");
            last = b;
        }
    }

    #[test]
    fn rate_cap_never_loosens() {
        let t = builders::tandem(6, int(1), rat(3, 16), builders::TandemOptions::default());
        let plain = Decomposed::paper().analyze(&t.net).unwrap();
        let capped = Decomposed {
            cap: OutputCap::ShiftRateCapped,
        }
        .analyze(&t.net)
        .unwrap();
        for (i, f) in plain.flows.iter().enumerate() {
            assert!(capped.flows[i].e2e <= f.e2e);
        }
    }

    #[test]
    fn backlog_bound_hand_computed() {
        // Two uncapped buckets (σ=2, ρ=1/8) and (σ=3, ρ=1/8) on a unit
        // server: peak backlog = total burst = 5 (slope 1/4 < 1 so the
        // supremum is at t = 0⁺).
        let (net, _, servers) = builders::chain(
            1,
            &[
                TrafficSpec::token_bucket(int(2), rat(1, 8)),
                TrafficSpec::token_bucket(int(3), rat(1, 8)),
            ],
        );
        let b = backlog_bounds(&net, OutputCap::Shift).unwrap();
        assert_eq!(b[servers[0].0], int(5));
    }

    #[test]
    fn backlog_grows_downstream() {
        // Burst inflation makes downstream buffers need more room.
        let t = builders::tandem(4, int(1), rat(3, 16), builders::TandemOptions::default());
        let b = backlog_bounds(&t.net, OutputCap::Shift).unwrap();
        assert!(b[t.middle[1].0] > b[t.middle[0].0]);
        assert!(b[t.middle[3].0] > b[t.middle[1].0]);
    }

    #[test]
    fn overloaded_network_rejected() {
        let t = builders::tandem(2, int(1), rat(1, 4), builders::TandemOptions::default());
        // Interior utilization = 4ρ = 1: overload.
        assert!(matches!(
            Decomposed::paper().analyze(&t.net),
            Err(AnalysisError::Network(_))
        ));
    }
}
