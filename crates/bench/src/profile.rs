//! One profiled analysis per algorithm: the loop behind `dnc profile`
//! and the profile stage of `dnc bench`.
//!
//! [`run_one`] runs one analysis in its own telemetry window — `reset`,
//! run, `snapshot`, `take_trace` — so the window's counters are the work
//! of that analysis alone. The memos are process-global, though: an
//! algorithm profiled after another can hit entries the earlier one
//! left, so counters compare only between runs of the same sequence in
//! a fresh process.

use crate::trajectory::time_micros;
use dnc_core::decomposed::Decomposed;
use dnc_core::fifo_family::FifoFamily;
use dnc_core::integrated::Integrated;
use dnc_core::service_curve::ServiceCurve;
use dnc_core::{AnalysisReport, DelayAnalysis};
use dnc_net::Network;
use dnc_num::Rat;
use dnc_telemetry::{Snapshot, TraceEvent};
use std::fmt::Write as _;

/// One profiled analysis run: the report plus a free-form notes string.
pub type ProfileRun<'a> = dyn Fn(&Network) -> Result<(AnalysisReport, String), String> + 'a;

/// One algorithm's row of a profile.
#[derive(Clone, Debug)]
pub struct ProfileRow {
    /// Algorithm name; `dnc profile` prefixes its telemetry keys with it.
    pub name: &'static str,
    /// The analysis report (`None` when the run failed).
    pub report: Option<AnalysisReport>,
    /// Wall time of the analysis, in microseconds.
    pub wall_us: u64,
    /// The run's telemetry window (empty without `--features telemetry`).
    pub snap: Snapshot,
    /// The window's span events, for `--trace`.
    pub events: Vec<TraceEvent>,
    /// `iters=`/`pairs=` notes, or why the run failed.
    pub notes: String,
}

impl ProfileRow {
    /// Worst end-to-end bound across flows (`None` when the run failed).
    pub fn bound(&self) -> Option<Rat> {
        self.report.as_ref()?.flows.iter().map(|f| f.e2e).max()
    }
}

/// Run one analysis in its own telemetry window.
pub fn run_one(net: &Network, name: &'static str, run: &ProfileRun<'_>) -> ProfileRow {
    dnc_telemetry::reset();
    let (outcome, wall_us) = time_micros(|| run(net));
    let snap = dnc_telemetry::snapshot();
    let events = dnc_telemetry::take_trace();
    let (report, notes) = match outcome {
        Ok((report, mut notes)) => {
            let pairs = snap.counter_value("net.pairing.pairs");
            if pairs > 0 {
                if !notes.is_empty() {
                    notes.push(' ');
                }
                let _ = write!(notes, "pairs={pairs}");
            }
            (Some(report), notes)
        }
        Err(e) => (None, format!("failed: {e}")),
    };
    ProfileRow {
        name,
        report,
        wall_us,
        snap,
        events,
        notes,
    }
}

/// Profile one feedforward analysis under its own name.
pub fn run_analysis(net: &Network, alg: &dyn DelayAnalysis) -> ProfileRow {
    run_one(net, alg.name(), &|net| {
        alg.analyze(net)
            .map(|r| (r, String::new()))
            .map_err(|e| e.to_string())
    })
}

/// The profile stage of `dnc bench`: Service Curve, Decomposed,
/// Integrated and FIFO-family on `net`, in that order.
pub fn profile_all(net: &Network) -> Vec<ProfileRow> {
    let algos: [Box<dyn DelayAnalysis>; 4] = [
        Box::new(ServiceCurve::paper()),
        Box::new(Decomposed::paper()),
        Box::new(Integrated::paper()),
        Box::new(FifoFamily::default()),
    ];
    algos
        .iter()
        .map(|alg| run_analysis(net, alg.as_ref()))
        .collect()
}

/// Fold one run's snapshot into `into`, prefixing every
/// span/counter/histogram name with `prefix/` so runs stay separable.
pub fn merge_namespaced(prefix: &str, snap: Snapshot, into: &mut Snapshot) {
    for (k, v) in snap.spans {
        into.spans.insert(format!("{prefix}/{k}"), v);
    }
    for (k, v) in snap.counters {
        into.counters.insert(format!("{prefix}/{k}"), v);
    }
    for (k, v) in snap.histograms {
        into.histograms.insert(format!("{prefix}/{k}"), v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_all_four_algorithms() {
        let tandem = crate::paper_tandem(3, Rat::new(3, 5));
        let rows = profile_all(&tandem.net);
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            ["service-curve", "decomposed", "integrated", "fifo-family"]
        );
        for r in &rows {
            assert!(r.bound().is_some(), "{} failed: {}", r.name, r.notes);
        }
        let worst = |name: &str| rows.iter().find(|r| r.name == name).unwrap().bound();
        assert!(worst("integrated") <= worst("decomposed"));
    }

    #[test]
    fn failed_runs_have_no_bound_and_say_why() {
        let tandem = crate::paper_tandem(2, Rat::new(1, 2));
        let row = run_one(&tandem.net, "broken", &|_| Err("no bound".to_string()));
        assert_eq!(row.bound(), None);
        assert_eq!(row.notes, "failed: no bound");
    }
}
