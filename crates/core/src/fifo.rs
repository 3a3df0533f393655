//! Single-server FIFO primitives shared by every algorithm: aggregate
//! arrival curves, the local worst-case delay, and output propagation.

use crate::AnalysisError;
use dnc_curves::{bounds, Curve};
use dnc_net::ServerId;
use dnc_num::Rat;

/// How a flow's constraint is transformed when it leaves a server (or a
/// subnetwork) with delay bound `d`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OutputCap {
    /// Cruz's shift only: `b'(I) = b(I + d)` — what the paper's analysis
    /// machinery uses.
    #[default]
    Shift,
    /// Shift, additionally capped by the server's output rate:
    /// `b'(I) = min{ b(I + d), C·I }`. A valid tightening (the server
    /// cannot emit faster than `C`); kept as an ablation option.
    ShiftRateCapped,
}

/// Sum the arrival curves of a set of flows; the zero curve for an empty
/// set. The aggregate is concave and nondecreasing when every input is.
pub fn aggregate_curve<'a, I: IntoIterator<Item = &'a Curve>>(curves: I) -> Curve {
    let mut it = curves.into_iter().peekable();
    if it.peek().is_none() {
        return Curve::zero();
    }
    Curve::sum(it)
}

/// Worst-case delay of *any* bit through a work-conserving FIFO server of
/// rate `rate` whose aggregate arrivals are constrained by `aggregate`:
/// the horizontal deviation `h(G, λ_C)`. `aggregate` must be a
/// nondecreasing arrival curve.
pub fn local_delay(aggregate: &Curve, rate: Rat, server: ServerId) -> Result<Rat, AnalysisError> {
    let _span = dnc_telemetry::span("core.local_delay");
    dnc_telemetry::counter("core.local_delay.calls", 1);
    bounds::hdev(aggregate, &Curve::rate(rate)).map_err(|e| AnalysisError::at(server, e))
}

/// Worst-case backlog of a work-conserving rate-`rate` server with
/// aggregate arrivals constrained by `aggregate` (a nondecreasing arrival
/// curve): the vertical deviation `v(G, λ_C)` (never negative).
pub fn local_backlog(aggregate: &Curve, rate: Rat, server: ServerId) -> Result<Rat, AnalysisError> {
    bounds::vdev(aggregate, &Curve::rate(rate))
        .map(|v| v.max(Rat::ZERO))
        .map_err(|e| AnalysisError::at(server, e))
}

/// A flow's constraint after leaving a stage with delay bound `d`.
/// Preserves concavity and the nondecreasing property of `curve`.
pub fn propagate_output(curve: &Curve, d: Rat, rate: Rat, cap: OutputCap) -> Curve {
    let _span = dnc_telemetry::span("core.propagate_output");
    dnc_telemetry::counter("core.propagate_output.calls", 1);
    let shifted = curve.shift_left(d);
    let out = match cap {
        OutputCap::Shift => shifted,
        OutputCap::ShiftRateCapped => shifted.min(&Curve::rate(rate)),
    };
    propagate_invariant(curve, d, cap, &out);
    out
}

/// `debug-invariants` postcondition of [`propagate_output`]: the output
/// constraint is Cruz's shift `b'(I) = b(I + d)` exactly (uncapped) or at
/// most it (rate-capped), checked at the kinks of both sides.
#[cfg(feature = "debug-invariants")]
fn propagate_invariant(curve: &Curve, d: Rat, cap: OutputCap, out: &Curve) {
    let mut xs: Vec<Rat> = out.breakpoint_xs();
    xs.extend(
        curve
            .breakpoint_xs()
            .into_iter()
            .filter(|&x| x >= d)
            .map(|x| x - d),
    );
    xs.push(out.tail_start().max(curve.tail_start()) + Rat::ONE);
    xs.sort();
    xs.dedup();
    for t in xs {
        let shifted = curve.eval(t + d);
        match cap {
            OutputCap::Shift => assert!(
                out.eval(t) == shifted,
                "invariant[propagate]: b'({t}) = {} differs from b({t}+{d}) = {}",
                out.eval(t),
                shifted
            ),
            OutputCap::ShiftRateCapped => assert!(
                out.eval(t) <= shifted,
                "invariant[propagate]: capped output above the Cruz shift at t={t}"
            ),
        }
    }
}

#[cfg(not(feature = "debug-invariants"))]
#[inline(always)]
fn propagate_invariant(_curve: &Curve, _d: Rat, _cap: OutputCap, _out: &Curve) {}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_num::{int, rat};

    #[test]
    fn aggregate_of_none_is_zero() {
        assert!(aggregate_curve([]).is_zero());
    }

    #[test]
    fn local_delay_hand_computed() {
        // Three capped buckets min{t, 1 + t/8} on a unit link: aggregate
        // climbs at slope 3 until t* = 8/7, so the backlog peak is
        // G(t*) − t* = 2t* = 16/7; the delay equals 16/7.
        let one = Curve::token_bucket_peak(int(1), rat(1, 8), int(1));
        let g = aggregate_curve([&one, &one, &one]);
        let d = local_delay(&g, int(1), ServerId(0)).unwrap();
        assert_eq!(d, rat(16, 7));
    }

    #[test]
    fn local_delay_uncapped_is_total_burst() {
        // Without peak caps the delay is the total burst over the rate.
        let g = aggregate_curve([
            &Curve::token_bucket(int(2), rat(1, 8)),
            &Curve::token_bucket(int(3), rat(1, 8)),
        ]);
        assert_eq!(local_delay(&g, int(1), ServerId(0)).unwrap(), int(5));
    }

    #[test]
    fn propagate_shift_matches_cruz() {
        // b(I) = 1 + I/4 delayed by d = 2: b'(I) = 3/2 + I/4.
        let b = Curve::token_bucket(int(1), rat(1, 4));
        let out = propagate_output(&b, int(2), int(1), OutputCap::Shift);
        assert_eq!(out, Curve::token_bucket(rat(3, 2), rat(1, 4)));
    }

    #[test]
    fn propagate_rate_cap_tightens() {
        let b = Curve::token_bucket(int(4), rat(1, 4));
        let plain = propagate_output(&b, int(2), int(1), OutputCap::Shift);
        let capped = propagate_output(&b, int(2), int(1), OutputCap::ShiftRateCapped);
        assert_eq!(capped.eval(int(0)), int(0));
        for t in 0..10 {
            assert!(capped.eval(int(t)) <= plain.eval(int(t)));
        }
    }
}
