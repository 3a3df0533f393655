//! Profile harness as a library: wall-time one analysis of the paper
//! tandem per algorithm, so `dnc bench` can fold algorithm-level
//! cost into the perf trajectory alongside the engine-level throughput
//! numbers. `dnc profile` remains the interactive variant over arbitrary
//! scenario files; this one is deliberately pinned to [`paper_tandem`]
//! so trajectory points are comparable across runs.

use crate::{paper_tandem, Algo};
use dnc_num::Rat;

/// Knobs of a profile run.
#[derive(Clone, Debug)]
pub struct ProfileConfig {
    /// Tandem size.
    pub n: usize,
    /// Work load `U`.
    pub u: Rat,
    /// Analyses of each algorithm, averaged over (cold every time).
    pub repeats: usize,
}

impl Default for ProfileConfig {
    fn default() -> ProfileConfig {
        ProfileConfig {
            n: 8,
            u: Rat::new(6, 20),
            repeats: 3,
        }
    }
}

/// One algorithm's measurement.
#[derive(Clone, Debug)]
pub struct AlgoProfile {
    /// Algorithm label.
    pub label: &'static str,
    /// Mean wall time per analysis, in microseconds.
    pub wall_us: u64,
    /// Connection 0's bound (`None` when the algorithm diverged).
    pub bound: Option<Rat>,
}

/// A full profile run.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Configuration the run used.
    pub cfg: ProfileConfig,
    /// One entry per algorithm, [`Algo`] declaration order.
    pub algos: Vec<AlgoProfile>,
}

/// Time every algorithm on the pinned tandem.
pub fn run_profile(cfg: &ProfileConfig) -> ProfileReport {
    let _span = dnc_telemetry::span("profile.run");
    let tandem = paper_tandem(cfg.n, cfg.u);
    let repeats = cfg.repeats.max(1);
    let algos = [
        Algo::Decomposed,
        Algo::ServiceCurve,
        Algo::Integrated,
        Algo::FifoFamily,
    ]
    .into_iter()
    .map(|algo| {
        let (bound, total_us) = crate::trajectory::time_micros(|| {
            let mut bound = None;
            for _ in 0..repeats {
                bound = algo
                    .analyze(&tandem.net)
                    .ok()
                    .map(|r| r.bound(tandem.conn0));
            }
            bound
        });
        AlgoProfile {
            label: algo.label(),
            wall_us: total_us / repeats as u64,
            bound,
        }
    })
    .collect();
    ProfileReport {
        cfg: cfg.clone(),
        algos,
    }
}

/// The run as `dnc-metrics/v1` series: one row per algorithm.
pub fn profile_series(report: &ProfileReport) -> Vec<dnc_telemetry::export::Series> {
    use dnc_telemetry::export::{Cell, Series};
    use dnc_telemetry::schema;
    let mut s = Series::new(
        "profile",
        vec![
            schema::LABEL,
            schema::NETWORK_SIZE,
            schema::WORK_LOAD,
            schema::WALL_TIME,
            schema::bound_column(),
        ],
    );
    for a in &report.algos {
        s.push_row(vec![
            Cell::Text(a.label.to_string()),
            Cell::int(report.cfg.n as u64),
            Cell::Num(report.cfg.u.to_f64()),
            Cell::int(a.wall_us),
            a.bound.map_or(Cell::Null, |b| Cell::Num(b.to_f64())),
        ]);
    }
    vec![s]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_series_validate_against_schema() {
        let report = run_profile(&ProfileConfig {
            n: 2,
            repeats: 1,
            ..ProfileConfig::default()
        });
        crate::validated_json(profile_series(&report));
    }

    #[test]
    fn profiles_all_four_algorithms() {
        let report = run_profile(&ProfileConfig {
            n: 3,
            repeats: 1,
            ..ProfileConfig::default()
        });
        assert_eq!(report.algos.len(), 4);
        for a in &report.algos {
            assert!(a.bound.is_some(), "{} diverged on a small tandem", a.label);
        }
        assert_eq!(report.algos[0].label, "decomposed");
    }
}
