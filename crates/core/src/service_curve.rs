//! **Algorithm Service Curve** — the induced service-curve method the
//! paper shows to be ill-suited for FIFO networks.
//!
//! For a *guaranteed-rate* scheduler, a per-connection service curve is
//! part of the discipline's contract and end-to-end analysis via min-plus
//! convolution is tight. A FIFO server makes no per-connection guarantee;
//! the best per-connection curve derivable from the discipline is the
//! *residual* (blind-multiplexing) curve
//!
//! ```text
//! β_{k,i}(t) = [ C_k · t − α_cross(t) ]⁺ ,
//! ```
//!
//! which charges connection `i` the full burst of all competing traffic at
//! the *residual* rate `C_k − ρ_cross` instead of the full link rate the
//! FIFO aggregate actually drains at. Convolving these curves along the
//! path and taking the horizontal deviation from the source constraint
//! yields the end-to-end bound. As the paper's Figure 4 shows, the
//! residual-rate latency terms blow up with load, making this method far
//! worse than plain decomposition for FIFO — which is precisely the
//! motivation for Algorithm Integrated.
//!
//! Cross-traffic constraints at interior servers are characterized the
//! same way the decomposed analysis characterizes them (local FIFO
//! delays plus the Cruz output shift) — the information a deployed
//! admission controller would actually have.
//!
//! The cross aggregate at a server differs between its flows only by each
//! flow's own curve `c_f`. So the first pass, which already sums every
//! FIFO server's aggregate `G_s` for the local delay, keeps the slack
//! `λ_C − G_s` wherever several flows share the server, and flow `f`'s
//! residual there is `[(λ_C − G_s) + c_f]⁺`. Exact `Rat` arithmetic and
//! unique canonical curves make that the same curve, bit for bit, as
//! `[λ_C − Σ_{g≠f} c_g]⁺` (DESIGN §18.7).

use crate::propagate::Propagation;
use crate::{fifo, AnalysisError, AnalysisReport, DelayAnalysis, FlowReport, OutputCap};
use dnc_curves::{bounds, minplus, Curve};
use dnc_net::{Discipline, FlowId, Network};
use dnc_num::Rat;

/// Algorithm Service Curve (induced FIFO service curves).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceCurve {
    /// Output model used when characterizing cross traffic at interior
    /// servers (paper: [`OutputCap::Shift`]).
    pub cap: OutputCap,
}

impl ServiceCurve {
    /// The paper's configuration.
    pub fn paper() -> ServiceCurve {
        ServiceCurve {
            cap: OutputCap::Shift,
        }
    }
}

impl DelayAnalysis for ServiceCurve {
    fn name(&self) -> &'static str {
        "service-curve"
    }

    fn analyze(&self, net: &Network) -> Result<AnalysisReport, AnalysisError> {
        let _span = dnc_telemetry::span("algo.service_curve");
        net.validate()?;
        for s in net.servers() {
            if !matches!(s.discipline, Discipline::Fifo | Discipline::Gps) {
                return Err(AnalysisError::Unsupported(format!(
                    "service-curve analysis implemented for FIFO/GPS servers only (server {:?})",
                    s.name
                )));
            }
        }
        let order = net.topological_order()?;

        // First pass: decomposed-style propagation to obtain every flow's
        // constraint at every hop (needed to characterize cross traffic),
        // and at each FIFO server several flows share, the slack
        // `λ_C − G_s` its aggregate `G_s` leaves.
        let mut prop = Propagation::new(net, self.cap);
        let mut slack: Vec<Option<Curve>> = vec![None; net.servers().len()];
        for server in &order {
            let incident = net.flows_through(*server);
            if incident.is_empty() {
                continue;
            }
            match net.server(*server).discipline {
                Discipline::Gps => {
                    let curves: Vec<_> = incident
                        .iter()
                        .map(|&f| (f, prop.curve_at(f, *server).clone()))
                        .collect();
                    for (f, d) in crate::gps::local_delays(net, *server, &curves)? {
                        prop.advance(f, *server, d);
                    }
                }
                _ => {
                    let rate = net.server(*server).rate;
                    let g =
                        fifo::aggregate_curve(incident.iter().map(|&f| prop.curve_at(f, *server)));
                    let d = fifo::local_delay(&g, rate, *server)?;
                    for &f in &incident {
                        prop.advance(f, *server, d);
                    }
                    if let Some(slot) = slack.get_mut(server.0) {
                        *slot = (incident.len() > 1).then(|| Curve::rate(rate).sub(&g));
                    }
                }
            }
        }

        let mut flows_out = Vec::with_capacity(net.flows().len());
        for (i, f) in net.flows().iter().enumerate() {
            let id = FlowId(i);
            // Per-server residual curve for this flow.
            let betas: Vec<Curve> = f
                .route
                .iter()
                .map(|&server| {
                    if net.server(server).discipline == Discipline::Gps {
                        // Guaranteed-rate server: the per-flow curve is part
                        // of the discipline's contract — exactly the setting
                        // the service-curve model was made for.
                        return crate::gps::service_curve(net, id, server);
                    }
                    match slack.get(server.0).and_then(Option::as_ref) {
                        // `λ_C − Σ_{g≠f} c_g = (λ_C − G_s) + c_f`.
                        Some(slack) => slack.add(prop.curve_at(id, server)).pos(),
                        // Alone at the server: the whole link.
                        None => Curve::rate(net.server(server).rate),
                    }
                })
                .collect();
            let beta_net = minplus::conv_all(betas.iter());
            let entry = f.route[0]; // audit: allow(index, routes are non-empty: Network::add_flow rejects an empty one)
            let e2e = bounds::hdev(prop.curve_at(id, entry), &beta_net)
                .map_err(|e| AnalysisError::at(entry, e))?;
            flows_out.push(FlowReport {
                flow: id,
                name: f.name.clone(),
                e2e,
                stages: vec![("network service curve".into(), e2e)],
            });
        }

        Ok(AnalysisReport {
            algorithm: self.name(),
            flows: flows_out,
        })
    }
}

/// The residual service curve a single FIFO server induces for one
/// connection against the given (nondecreasing) cross-traffic constraint.
/// The analysis forms the same curve from the server's slack instead; this
/// direct form is the oracle the FIFO-family tests compare the θ = 0
/// member against. The `[·]⁺` clamp keeps the result nondecreasing for
/// concave cross traffic.
pub fn residual_curve(rate: Rat, alpha_cross: &Curve) -> Curve {
    Curve::rate(rate).sub(alpha_cross).pos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_net::builders;
    use dnc_num::{int, rat};
    use dnc_traffic::TrafficSpec;

    #[test]
    fn residual_curve_shape() {
        // C = 1, cross = 2 + t/2: β = [t − 2 − t/2]⁺ = (1/2)(t − 4)⁺.
        let beta = residual_curve(int(1), &Curve::token_bucket(int(2), rat(1, 2)));
        assert_eq!(beta, Curve::rate_latency(rat(1, 2), int(4)));
    }

    #[test]
    fn lone_flow_has_zero_delay() {
        // No cross traffic, peak = rate: the residual curve is the full
        // link and a peak-capped source is never delayed.
        let (net, flows, _) = builders::chain(3, &[TrafficSpec::paper_source(int(1), rat(1, 4))]);
        let r = ServiceCurve::paper().analyze(&net).unwrap();
        assert_eq!(r.bound(flows[0]), int(0));
    }

    #[test]
    fn single_server_hand_computed() {
        // Flow of interest: uncapped (σ=1, ρ=1/8). Cross: (σ=2, ρ=1/4).
        // β = [t − 2 − t/4]⁺ = (3/4)(t − 8/3)⁺; delay = 1/(3/4) + 8/3 = 4.
        let (net, _, b, f12, _, _) = builders::two_server(
            int(1),
            int(1),
            &[TrafficSpec::token_bucket(int(1), rat(1, 8))],
            &[TrafficSpec::token_bucket(int(2), rat(1, 4))],
            &[],
        );
        // Restrict to server 1 only: build via two_server then analyze;
        // flow f12 traverses both servers; server 2 has no cross traffic,
        // so it contributes only the convolution with a full-rate curve.
        let _ = b;
        let r = ServiceCurve::paper().analyze(&net).unwrap();
        assert_eq!(r.bound(f12[0]), int(4));
    }

    #[test]
    fn worse_than_decomposed_at_high_load() {
        // The paper's Figure 4 shape: under high FIFO load the service
        // curve method's bound exceeds the decomposed bound.
        use crate::decomposed::Decomposed;
        let t = builders::tandem(4, int(1), rat(7, 32), builders::TandemOptions::default());
        let d = Decomposed::paper().analyze(&t.net).unwrap();
        let s = ServiceCurve::paper().analyze(&t.net).unwrap();
        assert!(
            s.bound(t.conn0) > d.bound(t.conn0),
            "service curve {} should exceed decomposed {} at U=7/8",
            s.bound(t.conn0),
            d.bound(t.conn0)
        );
    }
}
