//! A **modern baseline** that post-dates the paper: the θ-parameterized
//! family of per-flow FIFO service curves
//!
//! ```text
//! β_θ(t) = [ C·t − α_cross(t − θ) ]⁺ · 1_{t > θ} ,   θ ≥ 0,
//! ```
//!
//! every member of which is a valid service curve for a flow at a FIFO
//! server with `α_cross`-constrained competing traffic (Cruz 1998; Le
//! Boudec & Thiran, *Network Calculus*, Prop. 6.2.1). Choosing `θ = 0`
//! recovers the blind-multiplexing residual curve used by the paper's
//! Algorithm Service Curve; larger `θ` trades latency for rate and is the
//! basis of the LUDB method (Lenzini, Mingozzi, Stea 2008).
//!
//! This module implements the family with a per-server coordinate-descent
//! search over `θ`, as a *post-1999 comparison point* for the paper's
//! Algorithm Integrated: it shows how far pure service-curve machinery
//! eventually got on FIFO networks (see EXPERIMENTS.md). By construction
//! the result is never worse than Algorithm Service Curve (θ = 0 is in
//! the search space).
//!
//! Implementation notes: `β_θ` has a jump at `θ` and may dip while cross
//! traffic outruns the link; we under-approximate soundly by (i) capping
//! the jump with a steep ramp of slope `K ≫ C` and (ii) monotonizing with
//! [`Curve::future_min`] (any lower bound of a service curve is a service
//! curve). End-to-end bounds use the general-shape horizontal deviation
//! [`dnc_curves::bounds::hdev_general`].

use crate::propagate::Propagation;
use crate::{fifo, AnalysisError, AnalysisReport, DelayAnalysis, FlowReport, OutputCap};
use dnc_curves::cache::{CacheKey, CurveCache};
use dnc_curves::intern::{self, CurveId};
use dnc_curves::{bounds, minplus, Curve};
use dnc_net::{Discipline, FlowId, Network};
use dnc_num::Rat;
use std::sync::LazyLock;

/// Memo for [`family_curve`]: the coordinate descent builds the same
/// `(rate, α_cross, θ)` members again in every pass, and flows that see
/// the same cross aggregate at a server share them, so the construction
/// — two curve subtractions, a min with crossing insertion, and a
/// `future_min` monotonization — is built once per distinct member. Keyed by interned curve id +
/// the two rationals; values are interned ids (pure function of the
/// key, so the global table is sound and bit-identity is preserved).
static FAMILY_MEMO: LazyLock<CurveCache<CurveId>> = LazyLock::new(CurveCache::default);

/// Build the (monotonized, ramp-capped) family member `β_θ` from a
/// nondecreasing cross-traffic constraint; the `future_min` pass makes the
/// returned service curve nondecreasing.
pub fn family_curve(rate: Rat, alpha_cross: &Curve, theta: Rat) -> Curve {
    assert!(rate.is_positive(), "family_curve: rate must be positive");
    assert!(!theta.is_negative(), "family_curve: θ must be non-negative");
    let key = CacheKey::new("core.family_curve")
        .curve(alpha_cross)
        .rat(rate)
        .rat(theta);
    let out = FAMILY_MEMO.get_or_insert_with(key, || {
        intern::intern(&family_curve_core(rate, alpha_cross, theta))
    });
    let out = (*intern::resolve(out)).clone();
    dnc_curves::invariant::same_as_general("family_curve", &out, || {
        family_curve_core(rate, alpha_cross, theta)
    });
    out
}

/// The uncached [`family_curve`] construction (charges no budget, opens
/// no span).
fn family_curve_core(rate: Rat, alpha_cross: &Curve, theta: Rat) -> Curve {
    let base = Curve::rate(rate).sub(&alpha_cross.shift_right_hold(theta));
    // Steep ramp enforcing the `1_{t > θ}` indicator; K > C makes the cap
    // inactive wherever the true curve is below the ramp, so θ = 0
    // reproduces the blind-multiplexing curve exactly.
    let k = (rate + alpha_cross.final_slope() + Rat::ONE) * Rat::from(1i64 << 20);
    let capped = base.min(&Curve::rate_latency(k, theta)).pos();
    capped.future_min()
}

/// `prefix ⊗ m ⊗ rest`, where an absent end is the ⊗ identity.
fn chain(prefix: Option<&Curve>, m: &Curve, rest: Option<&Curve>) -> Curve {
    match (prefix, rest) {
        (Some(p), Some(r)) => minplus::conv(&minplus::conv(p, m), r),
        (Some(p), None) => minplus::conv(p, m),
        (None, Some(r)) => minplus::conv(m, r),
        (None, None) => m.clone(),
    }
}

/// `suffix[k] = members[k] ⊗ … ⊗ members[h−1]` for every hop `k`.
fn suffix_products(members: &[Curve]) -> Vec<Curve> {
    let mut suffix: Vec<Curve> = Vec::with_capacity(members.len());
    for m in members.iter().rev() {
        let next = chain(None, m, suffix.last());
        suffix.push(next);
    }
    suffix.reverse();
    suffix
}

/// The FIFO service-curve family analysis.
#[derive(Clone, Copy, Debug)]
pub struct FifoFamily {
    /// Output model for characterizing cross traffic at interior servers.
    pub cap: OutputCap,
    /// Coordinate-descent passes over the per-server θ values.
    pub passes: usize,
    /// Candidate multipliers per server are derived from the local
    /// aggregate delay scale; this many geometric steps are tried.
    pub grid: usize,
}

impl Default for FifoFamily {
    fn default() -> Self {
        FifoFamily {
            cap: OutputCap::Shift,
            passes: 2,
            grid: 5,
        }
    }
}

impl DelayAnalysis for FifoFamily {
    fn name(&self) -> &'static str {
        "fifo-family"
    }

    fn analyze(&self, net: &Network) -> Result<AnalysisReport, AnalysisError> {
        net.validate()?;
        for s in net.servers() {
            if s.discipline != Discipline::Fifo {
                return Err(AnalysisError::Unsupported(format!(
                    "fifo-family analysis requires FIFO servers (server {:?})",
                    s.name
                )));
            }
        }
        let order = net.topological_order()?;

        // Decomposed-style propagation for cross-traffic characterization
        // (identical to Algorithm Service Curve's first pass), keeping per
        // server the local delay as the θ scale and, where several flows
        // share it, the aggregate `G_s`.
        let mut prop = Propagation::new(net, self.cap);
        let mut at_server: Vec<(Rat, Option<Curve>)> = vec![(Rat::ZERO, None); net.servers().len()];
        for server in &order {
            let incident = net.flows_through(*server);
            if incident.is_empty() {
                continue;
            }
            let g = fifo::aggregate_curve(incident.iter().map(|&f| prop.curve_at(f, *server)));
            let d = fifo::local_delay(&g, net.server(*server).rate, *server)?;
            for &f in &incident {
                prop.advance(f, *server, d);
            }
            if let Some(slot) = at_server.get_mut(server.0) {
                *slot = (d, (incident.len() > 1).then_some(g));
            }
        }

        let mut flows_out = Vec::with_capacity(net.flows().len());
        for (i, f) in net.flows().iter().enumerate() {
            let id = FlowId(i);
            let entry = f.route[0]; // audit: allow(index, routes are non-empty: Network::add_flow rejects an empty one)
            let alpha = prop.curve_at(id, entry);

            // Per hop: the link rate, the cross aggregate `G_s − c_f`
            // (`None` when the flow is alone there) and the θ scale.
            let hops: Vec<(Rat, Option<Curve>, Rat)> = f
                .route
                .iter()
                .map(|&server| {
                    let (scale, aggregate) = at_server
                        .get(server.0)
                        .map_or((Rat::ZERO, None), |(d, g)| (*d, g.as_ref()));
                    let cross = aggregate.map(|g| g.sub(prop.curve_at(id, server)));
                    (net.server(server).rate, cross, scale)
                })
                .collect();

            // Coordinate descent over per-hop θ, one hop's member at a
            // time: a candidate at hop k is `prefix ⊗ member ⊗ suffix[k+1]`,
            // where the prefix folds the current members before k and the
            // suffixes, formed at the start of each pass, fold those after
            // it. ⊗ is exact, associative and commutative and canonical
            // forms are unique, so every candidate's network curve is the
            // one a re-fold of all members would give (DESIGN §18.6).
            let mut members: Vec<Curve> = hops
                .iter()
                .map(|(rate, cross, _)| match cross {
                    Some(c) => family_curve(*rate, c, Rat::ZERO),
                    None => Curve::rate(*rate),
                })
                .collect();
            let delay = |beta: &Curve| {
                bounds::hdev_general(alpha, beta).map_err(|e| AnalysisError::at(entry, e))
            };
            let mut best = delay(&minplus::conv_all(members.iter()))?;
            for _ in 0..self.passes {
                let suffix = suffix_products(&members);
                let mut prefix: Option<Curve> = None;
                for (k, (&(rate, ref cross, scale), current)) in
                    hops.iter().zip(members.iter_mut()).enumerate()
                {
                    let rest = suffix.get(k + 1);
                    if let Some(cross) = cross {
                        let scale = scale.max(Rat::ONE);
                        for step in 1..=self.grid {
                            // Geometric grid: scale · 2^{step - grid/2 - 1}.
                            let exp = step as i32 - (self.grid as i32 / 2) - 1;
                            let cand = family_curve(rate, cross, scale * Rat::TWO.powi(exp));
                            match delay(&chain(prefix.as_ref(), &cand, rest)) {
                                Ok(d) if d < best => {
                                    best = d;
                                    *current = cand;
                                }
                                _ => {}
                            }
                        }
                    }
                    if rest.is_some() {
                        prefix = Some(chain(prefix.as_ref(), current, None));
                    }
                }
            }

            flows_out.push(FlowReport {
                flow: id,
                name: f.name.clone(),
                e2e: best,
                stages: vec![("fifo-family network curve".into(), best)],
            });
        }

        Ok(AnalysisReport {
            algorithm: self.name(),
            flows: flows_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service_curve::ServiceCurve;
    use dnc_net::builders;
    use dnc_num::{int, rat};

    #[test]
    fn family_theta_zero_is_blind_mux() {
        let cross = Curve::token_bucket(int(2), rat(1, 2));
        let blind = crate::service_curve::residual_curve(int(1), &cross);
        assert_eq!(family_curve(int(1), &cross, Rat::ZERO), blind);
    }

    #[test]
    fn family_curve_is_zero_before_theta() {
        let cross = Curve::token_bucket_peak(int(1), rat(1, 4), int(1));
        let beta = family_curve(int(1), &cross, int(3));
        assert_eq!(beta.eval(int(3)), int(0));
        assert!(beta.eval(int(10)).is_positive());
        assert!(beta.is_nondecreasing());
    }

    #[test]
    fn family_curve_below_unconstrained_rate() {
        let cross = Curve::token_bucket(int(3), rat(1, 4));
        let beta = family_curve(int(1), &cross, int(2));
        for k in 0..30 {
            let t = rat(k, 2);
            assert!(beta.eval(t) <= t, "service above the raw link at {t}");
        }
    }

    #[test]
    fn never_worse_than_service_curve_algorithm() {
        for u_num in [2i128, 3] {
            let t = builders::tandem(
                4,
                int(1),
                Rat::new(u_num, 16),
                builders::TandemOptions::default(),
            );
            let sc = ServiceCurve::paper().analyze(&t.net).unwrap();
            let ff = FifoFamily::default().analyze(&t.net).unwrap();
            for (a, b) in ff.flows.iter().zip(sc.flows.iter()) {
                assert!(
                    a.e2e <= b.e2e,
                    "flow {}: family {} > blind {}",
                    a.name,
                    a.e2e,
                    b.e2e
                );
            }
            // And strictly better somewhere for the long connection.
            assert!(ff.bound(t.conn0) < sc.bound(t.conn0));
        }
    }

    #[test]
    fn rejects_static_priority() {
        use dnc_net::Discipline;
        let t = builders::tandem(
            2,
            int(1),
            rat(1, 16),
            builders::TandemOptions {
                discipline: Discipline::StaticPriority,
                ..builders::TandemOptions::default()
            },
        );
        assert!(matches!(
            FifoFamily::default().analyze(&t.net),
            Err(AnalysisError::Unsupported(_))
        ));
    }
}
