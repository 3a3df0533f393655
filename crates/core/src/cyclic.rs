//! Delay analysis for networks **with cycles** — the paper's announced
//! future work ("we are currently working on extending the approach
//! proposed in this paper to general networks", building on the authors'
//! companion work on feedback effects in ATM networks).
//!
//! Algorithm Integrated itself is restricted to cycle-free networks
//! because circular dependencies among connections feed local delays back
//! into themselves. The classical way around (Cruz's *time-stopping*
//! method) is implemented here for the decomposition analysis: treat the
//! per-(flow, hop) traffic characterizations as unknowns, start from the
//! optimistic guess (source constraints everywhere), and iterate the
//! monotone operator
//!
//! ```text
//! delays  =  local-analysis(characterizations)
//! characterizations  =  propagate(source constraints, delays)
//! ```
//!
//! Each iteration can only grow the characterizations and delays, so the
//! sequence either converges to the **least fixed point** — which bounds
//! the real network by the time-stopping argument — or grows without
//! bound (the method's stability region is exceeded; reported as
//! non-convergence, *not* as a valid bound).

use crate::decomposed::local_delays;
use crate::{fifo, AnalysisError, AnalysisReport, FlowReport, OutputCap};
use dnc_curves::{Curve, CurveError};
use dnc_net::{Discipline, FlowId, Network, ServerId};
use dnc_num::Rat;

/// Result of a time-stopping run.
///
/// The per-connection delay table is only a valid bound when the
/// iteration **converged**; the [`CyclicReport::bounds`] accessor
/// enforces that at the type level — the raw (possibly still-growing)
/// iterate is available separately as a diagnostic.
#[derive(Clone, Debug)]
pub struct CyclicReport {
    /// Last iterate (a valid bound only if `converged`; see `bounds()`).
    report: AnalysisReport,
    /// Whether a fixed point was reached.
    pub converged: bool,
    /// Iterations performed.
    pub iterations: usize,
}

impl CyclicReport {
    /// The per-connection delay bounds — `Some` **iff** the fixed-point
    /// iteration converged. A non-converged iterate is not a bound of
    /// anything and is deliberately unreachable through this accessor.
    pub fn bounds(&self) -> Option<&AnalysisReport> {
        self.converged.then_some(&self.report)
    }

    /// Consuming variant of [`CyclicReport::bounds`].
    pub fn into_bounds(self) -> Option<AnalysisReport> {
        self.converged.then_some(self.report)
    }

    /// The raw last iterate regardless of convergence — diagnostic only
    /// (shows *how far* the delays had grown when the budget ran out),
    /// never a valid delay bound unless [`CyclicReport::converged`].
    pub fn last_iterate(&self) -> &AnalysisReport {
        &self.report
    }
}

/// Time-stopping decomposition analysis for general (possibly cyclic)
/// networks.
#[derive(Clone, Copy, Debug)]
pub struct TimeStopping {
    /// Output re-characterization model.
    pub cap: OutputCap,
    /// Iteration budget before declaring divergence.
    pub max_iters: usize,
    /// Delay estimates are rounded **up** to multiples of
    /// `1/grid_denominator` each pass. Rounding up keeps every iterate a
    /// valid over-estimate (the operator is monotone in the delays) while
    /// keeping exact-rational denominators bounded across iterations and
    /// making the fixed point a lattice point the iteration can actually
    /// reach.
    pub grid_denominator: i128,
}

impl Default for TimeStopping {
    fn default() -> Self {
        TimeStopping {
            cap: OutputCap::Shift,
            max_iters: 64,
            grid_denominator: 4096,
        }
    }
}

impl TimeStopping {
    /// Run the fixed-point iteration.
    ///
    /// Unlike the feedforward algorithms this does **not** require a
    /// topological order; it does require every server to be strictly
    /// under-loaded (necessary for any deterministic bound).
    pub fn analyze(&self, net: &Network) -> Result<CyclicReport, AnalysisError> {
        self.analyze_inner(net, None)
    }

    /// Like [`TimeStopping::analyze`], but budgeted: the guard's deadline
    /// and cancellation token are checked cooperatively between passes
    /// (returning [`AnalysisError::Budget`], no unwinding), and the
    /// guard's iteration cap clamps `max_iters`.
    pub fn analyze_guarded(
        &self,
        net: &Network,
        guard: &crate::guard::ArmedGuard,
    ) -> Result<CyclicReport, AnalysisError> {
        self.analyze_inner(net, Some(guard))
    }

    fn analyze_inner(
        &self,
        net: &Network,
        guard: Option<&crate::guard::ArmedGuard>,
    ) -> Result<CyclicReport, AnalysisError> {
        let _span = dnc_telemetry::span("algo.time_stopping");
        // Structural checks without the feedforward requirement.
        for i in 0..net.servers().len() {
            let id = ServerId(i);
            if net.load(id) >= net.server(id).rate {
                return Err(AnalysisError::Network(dnc_net::NetworkError::Overloaded {
                    server: id,
                    name: net.server(id).name.clone(),
                    load: net.load(id).to_string(),
                    rate: net.server(id).rate.to_string(),
                }));
            }
        }

        // delays[flow][hop]: current estimate of the local delay a flow
        // suffers at each hop of its route.
        let mut delays: Vec<Vec<Rat>> = net
            .flows()
            .iter()
            .map(|f| vec![Rat::ZERO; f.route.len()])
            .collect();

        let max_iters = match guard {
            Some(g) => g.effective_iters(self.max_iters),
            None => self.max_iters,
        };
        let mut iterations = 0;
        let mut converged = false;
        while iterations < max_iters {
            if let Some(g) = guard {
                g.check()?;
            }
            iterations += 1;
            let new_delays = {
                let _iter = dnc_telemetry::span("core.time_stopping.pass");
                self.one_pass(net, &delays)?
            };
            // Per-iteration residual: the largest per-hop delay growth this
            // pass (zero exactly at the fixed point).
            dnc_telemetry::observe_rat("core.time_stopping.residual", || {
                new_delays
                    .iter()
                    .zip(delays.iter())
                    .flat_map(|(n, o)| n.iter().zip(o.iter()).map(|(a, b)| *a - *b))
                    .max()
                    .unwrap_or(Rat::ZERO)
            });
            if new_delays == delays {
                converged = true;
                break;
            }
            delays = new_delays;
        }
        dnc_telemetry::counter("core.time_stopping.iterations", iterations as u64);

        let flows = net
            .flows()
            .iter()
            .enumerate()
            .map(|(i, f)| FlowReport {
                flow: FlowId(i),
                name: f.name.clone(),
                e2e: delays[i].iter().copied().sum(), // audit: allow(index, delay tables are sized per flow and route length; i/k/h index the same network)
                stages: f
                    .route
                    .iter()
                    .zip(delays[i].iter()) // audit: allow(index, delay tables are sized per flow and route length; i/k/h index the same network)
                    .map(|(&s, &d)| (net.server(s).name.clone(), d))
                    .collect(),
            })
            .collect();
        Ok(CyclicReport {
            report: AnalysisReport {
                algorithm: "time-stopping",
                flows,
            },
            converged,
            iterations,
        })
    }

    /// One application of the monotone operator: given per-hop delay
    /// estimates, recompute every local delay from the induced
    /// characterizations. Each server's update reads only the previous
    /// iterate and writes its own `(flow, hop)` slots; the pass stops at
    /// the first server that fails.
    fn one_pass(&self, net: &Network, delays: &[Vec<Rat>]) -> Result<Vec<Vec<Rat>>, AnalysisError> {
        // Characterize every flow at every hop of its route by shifting
        // its source curve through the *current* upstream delay
        // estimates: one running fold per flow, so `entries[i][h]` is
        // flow `i`'s arrival curve at hop `h`.
        let entries: Vec<Vec<Curve>> = net
            .flows()
            .iter()
            .zip(delays)
            .map(|(f, d)| {
                let mut c = f.spec.arrival_curve();
                let mut at_hop = vec![c.clone()];
                let upstream = f.route.len().saturating_sub(1);
                for (&srv, &delay) in f.route.iter().zip(d).take(upstream) {
                    c = fifo::propagate_output(&c, delay, net.server(srv).rate, self.cap);
                    at_hop.push(c.clone());
                }
                at_hop
            })
            .collect();

        let mut out: Vec<Vec<Rat>> = delays.to_vec();
        for (s, srv) in net.servers().iter().enumerate() {
            let server = ServerId(s);
            let curves: Vec<(FlowId, Curve)> = net
                .flows_through(server)
                .into_iter()
                .map(|f| {
                    let h = net.hop_index(f, server).expect("incident"); // audit: allow(expect, f is drawn from the flows incident to server, so hop_index is Some)
                    (f, entries[f.0][h].clone()) // audit: allow(index, delay tables are sized per flow and route length; i/k/h index the same network)
                })
                .collect();
            if curves.is_empty() {
                continue;
            }
            let per_flow = local_delays(net, server, &curves).map_err(|e| match e {
                // A FIFO burst grew past the stability region: make the
                // non-convergence explicit by keeping the iteration growing.
                AnalysisError::Curve {
                    source: CurveError::Unstable { .. },
                    ..
                } if srv.discipline == Discipline::Fifo => {
                    AnalysisError::Unsupported("time-stopping diverged (local instability)".into())
                }
                e => e,
            })?;
            for (f, d) in per_flow {
                let h = net.hop_index(f, server).expect("incident"); // audit: allow(expect, f is drawn from the flows incident to server, so hop_index is Some)
                out[f.0][h] = d.ceil_to_denom(self.grid_denominator); // audit: allow(index, delay tables are sized per flow and route length; i/k/h index the same network)
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposed::Decomposed;
    use crate::DelayAnalysis;
    use dnc_net::builders;
    use dnc_net::{Flow, Server};
    use dnc_num::{int, rat};
    use dnc_traffic::TrafficSpec;

    /// A 3-server ring: flow k enters at server k and traverses two
    /// consecutive servers (wrapping), creating a dependency cycle.
    fn ring(rho: Rat, sigma: Rat) -> Network {
        let mut net = Network::new();
        let s: Vec<_> = (0..3)
            .map(|i| net.add_server(Server::unit_fifo(format!("r{i}"))))
            .collect();
        for k in 0..3 {
            net.add_flow(Flow {
                name: format!("f{k}"),
                spec: TrafficSpec::paper_source(sigma, rho),
                route: vec![s[k], s[(k + 1) % 3]],
                priority: 0,
            })
            .unwrap();
        }
        net
    }

    #[test]
    fn ring_is_cyclic() {
        let net = ring(rat(1, 8), int(1));
        assert!(net.topological_order().is_err());
        assert!(Decomposed::paper().analyze(&net).is_err());
    }

    #[test]
    fn time_stopping_converges_on_light_ring() {
        let net = ring(rat(1, 8), int(1));
        let r = TimeStopping::default().analyze(&net).unwrap();
        assert!(r.converged, "light ring must converge");
        assert!(r.iterations > 1, "feedback needs at least two passes");
        let bounds = r.bounds().expect("converged report exposes bounds");
        for f in &bounds.flows {
            assert!(f.e2e.is_positive());
            assert_eq!(f.stages.len(), 2);
        }
        // Symmetry: all three flows see the same bound.
        let b0 = bounds.flows[0].e2e;
        assert!(bounds.flows.iter().all(|f| f.e2e == b0));
    }

    #[test]
    fn matches_decomposed_on_feedforward() {
        let t = builders::tandem(4, int(1), rat(3, 16), builders::TandemOptions::default());
        let fixed = TimeStopping::default().analyze(&t.net).unwrap();
        assert!(fixed.converged);
        let dec = Decomposed::paper().analyze(&t.net).unwrap();
        for (a, b) in fixed.bounds().unwrap().flows.iter().zip(dec.flows.iter()) {
            // The grid rounding makes the fixed point a slight (sound)
            // over-estimate of the exact decomposition.
            assert!(a.e2e >= b.e2e, "flow {}: below decomposed", a.name);
            assert!(
                a.e2e - b.e2e <= rat(1, 64),
                "flow {}: {} vs {}",
                a.name,
                a.e2e,
                b.e2e
            );
        }
    }

    #[test]
    fn long_feedback_ring_reports_divergence() {
        // Five full-circumference flows on a 5-ring: each flow's burst is
        // re-inflated by the sum of all delays around the ring, so the
        // fixed point satisfies d ≈ 5σ + ρ·10·d and runs away once
        // ρ·n(n−1)/2 ≥ 1 — here ρ = 3/20 gives amplification 1.5 at a
        // perfectly stable utilization of 0.75.
        let mut net = Network::new();
        let s: Vec<_> = (0..5)
            .map(|i| net.add_server(Server::unit_fifo(format!("r{i}"))))
            .collect();
        for k in 0..5 {
            let route: Vec<_> = (0..5).map(|j| s[(k + j) % 5]).collect();
            net.add_flow(Flow {
                name: format!("f{k}"),
                spec: TrafficSpec::token_bucket(int(2), rat(3, 20)),
                route,
                priority: 0,
            })
            .unwrap();
        }
        assert!(net.max_utilization() < Rat::ONE);
        let r = TimeStopping {
            max_iters: 40,
            ..TimeStopping::default()
        }
        .analyze(&net);
        match r {
            Ok(rep) => {
                assert!(!rep.converged, "long-feedback ring must not converge");
                assert!(rep.bounds().is_none(), "non-converged bounds must be gated");
                assert!(!rep.last_iterate().flows.is_empty());
            }
            Err(AnalysisError::Unsupported(_)) => {} // diverged explicitly
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn long_feedback_ring_converges_when_light() {
        // Same topology below the amplification threshold
        // (ρ·10 = 0.5 < 1): converges.
        let mut net = Network::new();
        let s: Vec<_> = (0..5)
            .map(|i| net.add_server(Server::unit_fifo(format!("r{i}"))))
            .collect();
        for k in 0..5 {
            let route: Vec<_> = (0..5).map(|j| s[(k + j) % 5]).collect();
            net.add_flow(Flow {
                name: format!("f{k}"),
                spec: TrafficSpec::token_bucket(int(2), rat(1, 20)),
                route,
                priority: 0,
            })
            .unwrap();
        }
        let r = TimeStopping::default().analyze(&net).unwrap();
        assert!(r.converged, "light long-feedback ring must converge");
    }

    #[test]
    fn overloaded_ring_rejected() {
        let net = ring(rat(1, 2) + rat(1, 100), int(1));
        assert!(matches!(
            TimeStopping::default().analyze(&net),
            Err(AnalysisError::Network(_))
        ));
    }

    #[test]
    fn bounds_monotone_in_burst() {
        let a = TimeStopping::default()
            .analyze(&ring(rat(1, 8), int(1)))
            .unwrap();
        let b = TimeStopping::default()
            .analyze(&ring(rat(1, 8), int(3)))
            .unwrap();
        assert!(b.bounds().unwrap().flows[0].e2e > a.bounds().unwrap().flows[0].e2e);
    }
}
