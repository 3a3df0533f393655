//! Guarded analysis with graceful degradation.
//!
//! Production analyses cannot take the paper's nominal assumptions on
//! faith: an adversarial topology can blow up the curve algebra
//! (Bouillard's accuracy-vs-tractability trade-off), a cyclic network can
//! sit past the time-stopping stability region, and a single diverging
//! run must not take down a batch. The [`ResilientRunner`] therefore runs
//! a **fallback chain** under one shared [`Guard`] budget:
//!
//! 1. **Integrated** — the paper's algorithm, tightest bounds;
//! 2. **Decomposed** — Cruz decomposition (for cyclic networks: its
//!    time-stopping fixed point), cheaper and more robust;
//! 3. **Unbounded** — the explicit honest answer: *no valid bound was
//!    produced within budget*. Never a silently wrong number.
//!
//! Every attempt runs with the guard's thread-local curve limits
//! installed and is isolated with `catch_unwind`, so both cooperative
//! budget errors and `BudgetBreach` panics (and any genuine algorithm
//! panic) degrade to the next tier instead of propagating. The
//! [`ResilientReport`] records which tier answered and what happened to
//! every tier tried.

use crate::cyclic::TimeStopping;
use crate::decomposed::Decomposed;
use crate::guard::{ArmedGuard, Guard};
use crate::integrated::{GroupTrace, Integrated};
use crate::{AnalysisError, AnalysisReport, DelayAnalysis, OutputCap};
use dnc_curves::limits;
use dnc_net::{Network, ServerId};
use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Degradation tier that produced (or failed to produce) an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The paper's Algorithm Integrated (tightest).
    Integrated,
    /// Cruz decomposition — plain on feedforward networks, time-stopping
    /// fixed point on cyclic ones.
    Decomposed,
    /// No valid bound within budget: the explicit honest answer.
    Unbounded,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::Integrated => write!(f, "integrated"),
            Tier::Decomposed => write!(f, "decomposed"),
            Tier::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// What happened to one tier of the fallback chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The tier produced valid bounds.
    Answered,
    /// The budget ran out (deadline, op/segment/iteration cap, or
    /// cancellation) before the tier finished.
    Budget(String),
    /// The tier failed with a structured analysis error (divergence,
    /// instability, overload, …).
    Failed(String),
    /// The tier panicked (a genuine bug, not a budget breach) and was
    /// isolated by `catch_unwind`.
    Panicked(String),
    /// The tier does not apply to this network (e.g. Integrated on a
    /// cyclic network).
    Inapplicable(String),
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Answered => write!(f, "answered"),
            Outcome::Budget(m) => write!(f, "budget exhausted: {m}"),
            Outcome::Failed(m) => write!(f, "failed: {m}"),
            Outcome::Panicked(m) => write!(f, "panicked: {m}"),
            Outcome::Inapplicable(m) => write!(f, "inapplicable: {m}"),
        }
    }
}

/// One attempted tier: which algorithm ran, how it ended, how long it
/// took (microseconds, saturating).
#[derive(Clone, Debug)]
pub struct Attempt {
    /// The degradation tier.
    pub tier: Tier,
    /// The concrete algorithm that ran at this tier.
    pub algorithm: &'static str,
    /// How the attempt ended.
    pub outcome: Outcome,
    /// Wall time spent in this attempt, in microseconds.
    pub wall_us: u64,
}

/// The structured result of a guarded, degradable analysis run.
#[derive(Clone, Debug)]
pub struct ResilientReport {
    tier: Tier,
    bounds: Option<AnalysisReport>,
    attempts: Vec<Attempt>,
}

impl ResilientReport {
    /// The tier that answered ([`Tier::Unbounded`] when none did).
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// The bounds, `Some` exactly when [`ResilientReport::tier`] is not
    /// [`Tier::Unbounded`].
    pub fn bounds(&self) -> Option<&AnalysisReport> {
        self.bounds.as_ref()
    }

    /// Everything that was tried, in chain order.
    pub fn attempts(&self) -> &[Attempt] {
        &self.attempts
    }

    /// A one-line human summary of the chain, e.g.
    /// `integrated: budget exhausted: … → decomposed: answered`.
    pub fn chain_summary(&self) -> String {
        self.attempts
            .iter()
            .map(|a| format!("{}: {}", a.tier, a.outcome))
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// The result of [`ResilientRunner::analyze_fast`]: the resilient report
/// plus the artifacts the next incremental run needs.
#[derive(Clone, Debug)]
pub struct FastReport {
    /// The guarded, degradable analysis result.
    pub report: ResilientReport,
    /// The per-group trace of the answering Integrated run (`None` when a
    /// decomposition tier answered — incremental splicing must restart
    /// from a full Integrated pass).
    pub trace: Option<GroupTrace>,
    /// `Some((dirty, total))` when the incremental tier answered: how
    /// many pairing groups were re-analyzed out of how many.
    pub dirty_units: Option<(usize, usize)>,
}

impl FastReport {
    /// Pairing units the answering Integrated run computed: the dirty
    /// units of an incremental answer, every unit of a full pass, none
    /// when a decomposition tier answered.
    pub fn units_computed(&self) -> usize {
        match (self.dirty_units, &self.trace) {
            (Some((dirty, _total)), _) => dirty,
            (None, Some(trace)) => trace.unit_count(),
            (None, None) => 0,
        }
    }
}

/// Runs the Integrated → Decomposed → Unbounded fallback chain under a
/// shared [`Guard`].
#[derive(Clone, Debug)]
pub struct ResilientRunner {
    /// The budget shared by the whole chain.
    pub guard: Guard,
    /// Output re-characterization model for the decomposition tiers.
    pub cap: OutputCap,
    /// Iteration budget for the time-stopping fixed point on cyclic
    /// networks (further clamped by the guard's `iter_cap`).
    pub max_iters: usize,
}

impl Default for ResilientRunner {
    fn default() -> Self {
        ResilientRunner {
            guard: Guard::interactive(),
            cap: OutputCap::Shift,
            max_iters: TimeStopping::default().max_iters,
        }
    }
}

impl ResilientRunner {
    /// A runner with the given guard and paper-default curve models.
    pub fn new(guard: Guard) -> ResilientRunner {
        ResilientRunner {
            guard,
            ..ResilientRunner::default()
        }
    }

    /// Run the fallback chain. Never panics and never returns an invalid
    /// bound: the result either carries bounds from the recorded tier or
    /// is an explicit [`Tier::Unbounded`].
    pub fn analyze(&self, net: &Network) -> ResilientReport {
        self.analyze_fast(net, None).report
    }

    /// [`ResilientRunner::analyze`], returning the artifacts the next
    /// incremental run needs. `prev = Some((trace, seed))` adds an extra
    /// **incremental** tier: `trace` is the previous accepted analysis of
    /// this network, `seed` the servers whose inputs changed since (e.g.
    /// the mutated flow's route), and the tier re-analyzes only the
    /// pairing groups those servers affect, splicing the previous bounds
    /// for the rest. It degrades to a full Integrated pass (and onward
    /// down the chain) whenever the pairing partition changed, so it
    /// never alters *what* is answered, only how fast.
    pub fn analyze_fast(
        &self,
        net: &Network,
        prev: Option<(&GroupTrace, &[ServerId])>,
    ) -> FastReport {
        let _span = dnc_telemetry::span("algo.resilient");
        let armed = self.guard.arm();
        let feedforward = net.topological_order().is_ok();
        let mut attempts: Vec<Attempt> = Vec::new();
        let integrated = Integrated::paper();

        // Tier 1a: incremental splice off the previous trace (only when
        // the caller supplied one and the network is still feedforward).
        if feedforward {
            if let Some((prev, seed)) = prev {
                let extras: RefCell<Option<(GroupTrace, usize, usize)>> = RefCell::new(None);
                let ((outcome, wall_us), bounds) = run_attempt(&armed, || {
                    match integrated.analyze_incremental(net, prev, seed)? {
                        Some(out) => {
                            *extras.borrow_mut() =
                                Some((out.trace, out.dirty_units, out.total_units));
                            Ok((out.report, None))
                        }
                        None => Err(AnalysisError::Unsupported(
                            "pairing partition changed; incremental splice inapplicable".into(),
                        )),
                    }
                });
                // A changed partition is not a failure of this network,
                // just of the shortcut — record it as inapplicable.
                let outcome = match outcome {
                    Outcome::Failed(m) if m.contains("incremental splice inapplicable") => {
                        Outcome::Inapplicable(m)
                    }
                    o => o,
                };
                let answered = matches!(outcome, Outcome::Answered);
                attempts.push(Attempt {
                    tier: Tier::Integrated,
                    algorithm: "integrated-incremental",
                    outcome,
                    wall_us,
                });
                if answered {
                    if let Some(b) = bounds {
                        let (trace, dirty, total) = extras
                            .into_inner()
                            .expect("answered incremental has a trace"); // audit: allow(expect, extras is written before every Ok return above)
                        dnc_telemetry::counter("core.resilient.incremental_answers", 1);
                        return FastReport {
                            report: ResilientReport {
                                tier: Tier::Integrated,
                                bounds: Some(b),
                                attempts,
                            },
                            trace: Some(trace),
                            dirty_units: Some((dirty, total)),
                        };
                    }
                }
            }
        }

        // Tier 1: Integrated (feedforward only).
        if feedforward {
            let extras: RefCell<Option<GroupTrace>> = RefCell::new(None);
            let ((outcome, wall_us), bounds) = run_attempt(&armed, || {
                let (report, trace) = integrated.analyze_traced(net)?;
                *extras.borrow_mut() = Some(trace);
                Ok((report, None))
            });
            let answered = matches!(outcome, Outcome::Answered);
            attempts.push(Attempt {
                tier: Tier::Integrated,
                algorithm: "integrated",
                outcome,
                wall_us,
            });
            if answered {
                if let Some(b) = bounds {
                    dnc_telemetry::counter("core.resilient.integrated_answers", 1);
                    return FastReport {
                        report: ResilientReport {
                            tier: Tier::Integrated,
                            bounds: Some(b),
                            attempts,
                        },
                        trace: extras.into_inner(),
                        dirty_units: None,
                    };
                }
            }
        } else {
            attempts.push(Attempt {
                tier: Tier::Integrated,
                algorithm: "integrated",
                outcome: Outcome::Inapplicable("cyclic network (not feedforward)".into()),
                wall_us: 0,
            });
        }

        // Tier 2: Decomposed — plain on feedforward, time-stopping on
        // cyclic networks.
        let (algorithm, result): (&'static str, _) = if feedforward {
            let decomposed = Decomposed { cap: self.cap };
            (
                "decomposed",
                run_attempt(&armed, || decomposed.analyze(net).map(|r| (r, None))),
            )
        } else {
            let ts = TimeStopping {
                cap: self.cap,
                max_iters: self.max_iters,
                ..TimeStopping::default()
            };
            (
                "time-stopping",
                run_attempt(&armed, || {
                    let rep = ts.analyze_guarded(net, &armed)?;
                    let iters = rep.iterations;
                    match rep.into_bounds() {
                        Some(b) => Ok((b, Some(iters))),
                        None => Err(AnalysisError::Unsupported(format!(
                            "time-stopping did not converge after {iters} iterations"
                        ))),
                    }
                }),
            )
        };
        let ((outcome, wall_us), bounds) = result;
        let answered = matches!(outcome, Outcome::Answered);
        attempts.push(Attempt {
            tier: Tier::Decomposed,
            algorithm,
            outcome,
            wall_us,
        });
        if answered {
            if let Some(b) = bounds {
                dnc_telemetry::counter("core.resilient.decomposed_answers", 1);
                return FastReport {
                    report: ResilientReport {
                        tier: Tier::Decomposed,
                        bounds: Some(b),
                        attempts,
                    },
                    trace: None,
                    dirty_units: None,
                };
            }
        }

        // Tier 3: the explicit honest answer.
        dnc_telemetry::counter("core.resilient.unbounded_answers", 1);
        FastReport {
            report: ResilientReport {
                tier: Tier::Unbounded,
                bounds: None,
                attempts,
            },
            trace: None,
            dirty_units: None,
        }
    }
}

/// Run one attempt with the guard's curve limits installed and full
/// panic isolation. The closure returns the bounds plus optional
/// iteration metadata (unused in the outcome, reserved for telemetry).
#[allow(clippy::type_complexity)]
fn run_attempt<F>(armed: &ArmedGuard, f: F) -> ((Outcome, u64), Option<AnalysisReport>)
where
    F: FnOnce() -> Result<(AnalysisReport, Option<usize>), AnalysisError>,
{
    // audit: allow(det-wall-clock, attempt wall-time goes to telemetry only; the certified bound is unaffected)
    let started = Instant::now();
    let result = {
        let _limits = limits::install(armed.limits());
        catch_unwind(AssertUnwindSafe(f))
    };
    let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    let outcome = match result {
        Ok(Ok((bounds, _iters))) => return ((Outcome::Answered, wall_us), Some(bounds)),
        Ok(Err(AnalysisError::Budget(m))) => Outcome::Budget(m),
        Ok(Err(e)) => Outcome::Failed(e.to_string()),
        Err(payload) => match limits::breach_of(payload.as_ref()) {
            Some(breach) => Outcome::Budget(breach.to_string()),
            None => Outcome::Panicked(panic_message(payload.as_ref())),
        },
    };
    ((outcome, wall_us), None)
}

/// Best-effort extraction of a human-readable message from a panic
/// payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_net::builders;
    use dnc_net::{Flow, Network, Server};
    use dnc_num::{int, rat};
    use dnc_traffic::TrafficSpec;
    use std::time::Duration;

    fn tandem_net() -> Network {
        builders::tandem(4, int(1), rat(3, 16), builders::TandemOptions::default()).net
    }

    /// The 5-ring past the time-stopping amplification threshold (same
    /// parameters as cyclic.rs's divergence test).
    fn heavy_ring() -> Network {
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
        net
    }

    #[test]
    fn feedforward_answers_at_integrated_tier() {
        let net = tandem_net();
        let r = ResilientRunner::default().analyze(&net);
        assert_eq!(r.tier(), Tier::Integrated);
        let bounds = r.bounds().expect("integrated tier has bounds");
        let direct = Integrated::paper().analyze(&net).unwrap();
        for (a, b) in bounds.flows.iter().zip(direct.flows.iter()) {
            assert_eq!(a.e2e, b.e2e);
        }
        assert_eq!(r.attempts().len(), 1);
        assert_eq!(r.attempts()[0].outcome, Outcome::Answered);
    }

    #[test]
    fn tiny_op_budget_falls_back_to_decomposed() {
        // Integrated burns curve ops on pair bounds; an op budget that
        // exhausts it mid-run must degrade, and each tier gets a fresh
        // op counter, so the cheaper Decomposed pass can still finish.
        let net = tandem_net();
        let direct = Decomposed::paper().analyze(&net).unwrap();
        let mut found_fallback = false;
        for cap in [4u64, 8, 16, 32, 64] {
            let runner = ResilientRunner::new(Guard::default().with_op_cap(cap));
            let r = runner.analyze(&net);
            assert_ne!(
                r.tier(),
                Tier::Integrated,
                "op cap {cap} unexpectedly let Integrated finish"
            );
            if r.tier() == Tier::Decomposed {
                let bounds = r.bounds().expect("decomposed tier has bounds");
                for (a, b) in bounds.flows.iter().zip(direct.flows.iter()) {
                    assert_eq!(a.e2e, b.e2e, "fallback must equal Decomposed::analyze");
                }
                assert!(matches!(
                    r.attempts()[0].outcome,
                    Outcome::Budget(_) | Outcome::Failed(_)
                ));
                found_fallback = true;
                break;
            }
        }
        assert!(
            found_fallback,
            "some op cap must exhaust Integrated but let Decomposed answer"
        );
    }

    #[test]
    fn heavy_ring_degrades_to_explicit_unbounded() {
        let net = heavy_ring();
        let deadline = Duration::from_secs(10);
        let started = Instant::now();
        let runner = ResilientRunner {
            guard: Guard::default().with_deadline(deadline).with_iter_cap(40),
            ..ResilientRunner::default()
        };
        let r = runner.analyze(&net);
        assert!(started.elapsed() < deadline, "must finish within deadline");
        assert_eq!(r.tier(), Tier::Unbounded);
        assert!(r.bounds().is_none(), "no silent invalid bound");
        assert!(matches!(r.attempts()[0].outcome, Outcome::Inapplicable(_)));
        assert!(matches!(
            r.attempts()[1].outcome,
            Outcome::Failed(_) | Outcome::Budget(_)
        ));
        assert!(!r.chain_summary().is_empty());
    }

    #[test]
    fn light_ring_answers_at_decomposed_tier() {
        let spec = TrafficSpec::paper_source(int(2), rat(1, 8));
        let (net, _, _) = builders::ring(4, 2, &spec);
        let r = ResilientRunner::default().analyze(&net);
        assert_eq!(r.tier(), Tier::Decomposed);
        let bounds = r.bounds().expect("converged ring has bounds");
        let direct = TimeStopping::default().analyze(&net).unwrap();
        let direct = direct.bounds().unwrap();
        for (a, b) in bounds.flows.iter().zip(direct.flows.iter()) {
            assert_eq!(a.e2e, b.e2e);
        }
        assert!(matches!(r.attempts()[0].outcome, Outcome::Inapplicable(_)));
    }

    #[test]
    fn cancellation_degrades_before_finishing() {
        let tok = dnc_curves::limits::CancelToken::new();
        tok.cancel(); // cancelled before we even start
        let runner = ResilientRunner::new(Guard::default().with_cancel(tok));
        let r = runner.analyze(&tandem_net());
        assert_eq!(r.tier(), Tier::Unbounded);
        for a in r.attempts() {
            assert!(
                matches!(a.outcome, Outcome::Budget(_)),
                "expected budget outcome, got {}",
                a.outcome
            );
        }
    }

    #[test]
    fn all_tiers_failing_preserves_order_and_reasons() {
        // Pre-cancelled token: every tier is tried, every tier breaches,
        // and the report must keep the whole story — tier order intact,
        // one attempt per tier, each with its own failure reason.
        let tok = dnc_curves::limits::CancelToken::new();
        tok.cancel();
        let runner = ResilientRunner::new(Guard::default().with_cancel(tok));
        let r = runner.analyze(&tandem_net());
        assert_eq!(r.tier(), Tier::Unbounded);
        assert!(r.bounds().is_none());
        let tiers: Vec<Tier> = r.attempts().iter().map(|a| a.tier).collect();
        assert_eq!(tiers, [Tier::Integrated, Tier::Decomposed]);
        for a in r.attempts() {
            let Outcome::Budget(reason) = &a.outcome else {
                panic!("expected budget breach at {}, got {}", a.tier, a.outcome);
            };
            assert!(!reason.is_empty(), "per-tier reason must be preserved");
        }
        // The chain summary lists the tiers in chain order with their
        // individual reasons, joined by " → ".
        let summary = r.chain_summary();
        let head = summary
            .find("integrated: budget exhausted")
            .unwrap_or(usize::MAX);
        let tail = summary
            .find("decomposed: budget exhausted")
            .unwrap_or(usize::MAX);
        assert!(
            head < tail && tail != usize::MAX,
            "summary must order integrated before decomposed: {summary}"
        );
        assert_eq!(summary.matches(" → ").count(), 1, "{summary}");
    }

    #[test]
    fn fast_path_incremental_answers_and_matches_full() {
        let t = builders::tandem(4, int(1), rat(3, 16), builders::TandemOptions::default());
        let mut net = t.net;
        let runner = ResilientRunner::default();
        let first = runner.analyze_fast(&net, None);
        assert_eq!(first.report.tier(), Tier::Integrated);
        let trace = first.trace.expect("integrated answer carries a trace");

        net.add_flow(Flow {
            name: "extra".into(),
            spec: TrafficSpec::token_bucket(int(1), rat(1, 16)),
            route: vec![t.middle[1]],
            priority: 0,
        })
        .unwrap();
        let seed = [t.middle[1]];
        let second = runner.analyze_fast(&net, Some((&trace, &seed)));
        assert_eq!(second.report.tier(), Tier::Integrated);
        assert_eq!(
            second.report.attempts()[0].algorithm,
            "integrated-incremental"
        );
        assert_eq!(second.report.attempts()[0].outcome, Outcome::Answered);
        let (dirty, total) = second.dirty_units.expect("incremental reports dirty count");
        assert!(0 < dirty && dirty <= total, "dirty {dirty} / total {total}");
        assert!(
            second.trace.is_some(),
            "incremental answer refreshes the trace"
        );

        let full = Integrated::paper().analyze(&net).unwrap();
        let bounds = second.report.bounds().expect("incremental tier has bounds");
        for (a, b) in bounds.flows.iter().zip(full.flows.iter()) {
            assert_eq!(a.e2e, b.e2e, "splice must equal the from-scratch bound");
        }
    }

    #[test]
    fn overloaded_network_fails_cleanly() {
        // Overload is a structured failure at every tier, never a panic.
        let mut net = Network::new();
        let s = net.add_server(Server::unit_fifo("s0"));
        net.add_flow(Flow {
            name: "f0".into(),
            spec: TrafficSpec::token_bucket(int(1), int(2)),
            route: vec![s],
            priority: 0,
        })
        .unwrap();
        let r = ResilientRunner::default().analyze(&net);
        assert_eq!(r.tier(), Tier::Unbounded);
        assert!(r
            .attempts()
            .iter()
            .all(|a| matches!(a.outcome, Outcome::Failed(_))));
    }
}
