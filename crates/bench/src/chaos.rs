//! Chaos soundness harness: randomized fault scenarios against the
//! resilience layer.
//!
//! Each scenario draws a paper tandem, a deterministic [`FaultPlan`]
//! (capacity-degradation windows, outages, link jitter, adversarial
//! cross-traffic bursts), and a conforming workload; the simulator then
//! replays the plan while the analysis side constructs the strongest
//! *degraded claim* the plan still supports:
//!
//! * every server's rate is scaled by [`FaultPlan::min_scale`] over the
//!   run horizon — service curves are monotone in the rate, so a
//!   constant-min-scale analysis bounds every sample path the plan
//!   allows;
//! * cross-traffic at a server becomes a σ-only token bucket with
//!   σ = [`FaultPlan::total_cross_cells`] (it dominates the actual
//!   injection, which is a finite set of bursts);
//! * a server driven to scale 0 (an outage) voids the claim — no
//!   finite-capacity statement covers it, and the scenario only checks
//!   that the whole pipeline degrades without panicking.
//!
//! The degraded network runs through the guarded
//! [`ResilientRunner`] chain; whenever the chain *answers* (any tier),
//! the claimed per-flow bounds must dominate every simulated delay.
//! A simulated delay above a claimed bound is a **soundness violation**
//! — the one thing this harness exists to flag.

use crate::{column, paper_tandem, HarnessOutput};
use dnc_core::resilient::{ResilientRunner, Tier};
use dnc_net::{Flow, Network, Server, ServerId};
use dnc_num::Rat;
use dnc_sim::{simulate_with_faults, Fault, FaultPlan, SimConfig};
use dnc_telemetry::export::{Cell, Series};
use dnc_telemetry::schema::{self, ColumnMeta};
use dnc_traffic::{SourceModel, TrafficSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Knobs of a chaos run.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Number of randomized scenarios.
    pub scenarios: usize,
    /// Master seed: the whole run is a pure function of it.
    pub seed: u64,
    /// Simulated ticks per scenario (also the fault-plan horizon).
    pub ticks: u64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            scenarios: 32,
            seed: 1,
            ticks: 2048,
        }
    }
}

/// What the degraded-claim analysis produced for one scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Claim {
    /// The guarded chain answered at `tier`; its bounds were checked
    /// against the simulation.
    Bounded(Tier),
    /// No finite-capacity claim exists (outage to zero, overload after
    /// degradation, or budget exhaustion); nothing to check.
    None(String),
}

/// One scenario's outcome.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scenario index within the run.
    pub id: usize,
    /// Tandem size.
    pub n: usize,
    /// Nominal work load `U` of the tandem.
    pub u: Rat,
    /// Number of faults in the plan (0 = nominal scenario).
    pub fault_count: usize,
    /// Workload label (`greedy`, `onoff`, `bernoulli`).
    pub workload: &'static str,
    /// The degraded claim, if any.
    pub claim: Claim,
    /// Worst simulated end-to-end delay over all flows, in ticks.
    pub worst_observed: u64,
    /// Smallest claimed slack `bound − observed` over all flows
    /// (negative ⇒ violation), `None` without a claim.
    pub min_slack: Option<Rat>,
    /// Soundness violations: flows whose simulated delay exceeded the
    /// claimed bound.
    pub violations: Vec<String>,
}

impl ScenarioOutcome {
    /// Whether the scenario injected no faults at all.
    pub fn nominal(&self) -> bool {
        self.fault_count == 0
    }
}

/// A full chaos run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Configuration the run used.
    pub cfg: ChaosConfig,
    /// One outcome per scenario.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl ChaosReport {
    /// Total soundness violations across all scenarios.
    pub fn violation_count(&self) -> usize {
        self.outcomes.iter().map(|o| o.violations.len()).sum()
    }

    /// Scenarios whose claim was checked (the chain answered).
    pub fn checked_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.claim, Claim::Bounded(_)))
            .count()
    }
}

/// Draw a random fault plan for `net` over `[0, ticks)`. Returns the
/// nominal (empty) plan for roughly a quarter of the draws so every run
/// re-checks the undegraded bounds too.
pub fn generate_plan(rng: &mut StdRng, net: &Network, ticks: u64) -> FaultPlan {
    if rng.gen_ratio(1, 4) {
        return FaultPlan::none();
    }
    let servers = net.servers().len();
    let count = rng.gen_range(1usize..=3);
    let mut faults = Vec::with_capacity(count);
    for _ in 0..count {
        let server = ServerId(rng.gen_range(0..servers));
        match rng.gen_range(0u32..6) {
            // Degrade windows are the most informative fault (a claim
            // usually survives them), so they get the biggest share.
            0..=2 => {
                let from = rng.gen_range(0..ticks / 2);
                let until = from + rng.gen_range(ticks / 8..ticks / 2);
                // Keep the scale off zero; zero is Outage's job.
                let scale = Rat::new(rng.gen_range(5i128..10), 10);
                faults.push(Fault::Degrade {
                    server,
                    from,
                    until,
                    scale,
                });
            }
            3 => {
                let period = 1u64 << rng.gen_range(3u32..8);
                let scale = Rat::new(rng.gen_range(5i128..10), 10);
                faults.push(Fault::Jitter {
                    server,
                    period,
                    scale,
                });
            }
            4 => {
                let at = rng.gen_range(0..ticks / 2);
                let cells = rng.gen_range(4u64..48);
                faults.push(Fault::CrossBurst { server, at, cells });
            }
            _ => {
                let from = rng.gen_range(0..ticks / 2);
                let until = from + rng.gen_range(16..ticks / 4);
                faults.push(Fault::Outage {
                    server,
                    from,
                    until,
                });
            }
        }
    }
    FaultPlan { faults }
}

/// Build the degraded network whose analysis, if it answers, is claimed
/// valid for every sample path of `plan`: rates scaled by the per-server
/// minimum, cross-traffic added as single-hop σ-only token buckets. The
/// original flows keep their ids (cross flows are appended after them).
///
/// # Errors
/// Returns `Err` when some server's minimum scale is zero — an outage
/// voids any finite-capacity claim.
pub fn degraded_claim_network(
    net: &Network,
    plan: &FaultPlan,
    horizon: u64,
) -> Result<Network, String> {
    let mut out = Network::new();
    for (i, s) in net.servers().iter().enumerate() {
        let scale = plan.min_scale(ServerId(i), horizon);
        if scale.is_zero() {
            return Err(format!(
                "server {:?} fully outaged: no finite-capacity claim",
                s.name
            ));
        }
        out.add_server(Server {
            name: s.name.clone(),
            rate: s.rate * scale,
            discipline: s.discipline,
        });
    }
    for f in net.flows() {
        out.add_flow(f.clone()).map_err(|e| e.to_string())?;
    }
    for i in 0..net.servers().len() {
        let total = plan.total_cross_cells(ServerId(i), horizon);
        if total > 0 {
            // The engine injects cross cells at the head of the priority
            // order, so the claim models them at priority 0 too.
            out.add_flow(Flow {
                name: format!("chaos-cross-s{i}"),
                spec: TrafficSpec::token_bucket(Rat::from(total as i64), Rat::ZERO),
                route: vec![ServerId(i)],
                priority: 0,
            })
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(out)
}

fn draw_workload(rng: &mut StdRng, flows: usize) -> (&'static str, Vec<SourceModel>) {
    match rng.gen_range(0u32..3) {
        0 => ("greedy", vec![SourceModel::Greedy; flows]),
        1 => (
            "onoff",
            vec![
                SourceModel::OnOff {
                    on: 6,
                    off: 6,
                    phase: 2
                };
                flows
            ],
        ),
        _ => (
            "bernoulli",
            vec![SourceModel::Bernoulli { num: 2, den: 5 }; flows],
        ),
    }
}

/// Run one scenario: draw a network, plan, and workload from `rng`,
/// simulate under faults, and check the degraded claim.
pub fn run_scenario(id: usize, rng: &mut StdRng, ticks: u64) -> ScenarioOutcome {
    let n = rng.gen_range(2usize..=5);
    let u = Rat::new(rng.gen_range(2i128..=14), 20);
    let t = paper_tandem(n, u);
    let plan = generate_plan(rng, &t.net, ticks);
    let (workload, models) = draw_workload(rng, t.net.flows().len());

    let cfg = SimConfig {
        ticks,
        seed: rng.gen_range(0u64..u64::MAX),
        ..SimConfig::default()
    };
    let sim = simulate_with_faults(&t.net, &models, &cfg, plan.clone());
    let worst_observed = (0..t.net.flows().len())
        .map(|i| sim.flows[i].max_delay)
        .max()
        .unwrap_or(0);

    let (claim, min_slack, violations) = match degraded_claim_network(&t.net, &plan, ticks) {
        Err(reason) => (Claim::None(reason), None, Vec::new()),
        Ok(degraded) => {
            let report = ResilientRunner::default().analyze(&degraded);
            match report.bounds() {
                None => (
                    Claim::None(format!(
                        "chain answered nothing: {}",
                        report.chain_summary()
                    )),
                    None,
                    Vec::new(),
                ),
                Some(bounds) => {
                    let mut min_slack: Option<Rat> = None;
                    let mut violations = Vec::new();
                    for (i, f) in t.net.flows().iter().enumerate() {
                        let bound = bounds.flows[i].e2e;
                        let observed = sim.max_delay(i);
                        let slack = bound - observed;
                        if min_slack.is_none_or(|m| slack < m) {
                            min_slack = Some(slack);
                        }
                        if observed > bound {
                            violations.push(format!(
                                "scenario {id}: flow {:?} simulated {} > claimed {} (tier {})",
                                f.name,
                                sim.flows[i].max_delay,
                                bound,
                                report.tier()
                            ));
                        }
                    }
                    (Claim::Bounded(report.tier()), min_slack, violations)
                }
            }
        }
    };

    dnc_telemetry::counter("chaos.scenarios", 1);
    if !violations.is_empty() {
        dnc_telemetry::counter("chaos.violations", violations.len() as u64);
    }
    if matches!(claim, Claim::None(_)) {
        dnc_telemetry::counter("chaos.no_claim", 1);
    }

    ScenarioOutcome {
        id,
        n,
        u,
        fault_count: plan.faults.len(),
        workload,
        claim,
        worst_observed,
        min_slack,
        violations,
    }
}

/// Per-scenario generator: scenario `id` of master seed `seed` draws
/// from its own stream, so any scenario replays bit-exactly without
/// running the `id − 1` scenarios before it (the Weyl increment keeps
/// neighbouring ids from colliding in seed space).
pub fn scenario_rng(seed: u64, id: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run the whole harness. Deterministic in `cfg`.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let _span = dnc_telemetry::span("chaos.run");
    let outcomes = (0..cfg.scenarios)
        .map(|id| {
            let mut rng = scenario_rng(cfg.seed, id);
            run_scenario(id, &mut rng, cfg.ticks)
        })
        .collect();
    ChaosReport {
        cfg: cfg.clone(),
        outcomes,
    }
}

/// Replay one scenario of the run `cfg` describes: identical draws to
/// `run_chaos(cfg).outcomes[id]`, without running the others.
pub fn replay_scenario(cfg: &ChaosConfig, id: usize) -> ScenarioOutcome {
    let mut rng = scenario_rng(cfg.seed, id);
    run_scenario(id, &mut rng, cfg.ticks)
}

/// Scenario axis for the metrics series.
const SCENARIO: ColumnMeta = column("scenario", "");

/// Fault-count column for the metrics series.
const FAULTS: ColumnMeta = column("faults", "");

/// Claimed-slack column: `min(bound − observed)` over flows.
const MIN_SLACK: ColumnMeta = column("min claimed slack", "ticks");

/// The run as `dnc-metrics/v1` series: one row per scenario.
pub fn chaos_series(report: &ChaosReport) -> Vec<Series> {
    let mut s = Series::new(
        "chaos",
        vec![
            SCENARIO,
            schema::NETWORK_SIZE,
            schema::WORK_LOAD,
            FAULTS,
            schema::LABEL,
            schema::SIM_MAX_DELAY,
            MIN_SLACK,
        ],
    );
    for o in &report.outcomes {
        let claim_label = match &o.claim {
            Claim::Bounded(tier) => format!("{}/{tier}", o.workload),
            Claim::None(_) => format!("{}/no-claim", o.workload),
        };
        s.push_row(vec![
            Cell::int(o.id as u64),
            Cell::int(o.n as u64),
            Cell::Num(o.u.to_f64()),
            Cell::int(o.fault_count as u64),
            Cell::Text(claim_label),
            Cell::int(o.worst_observed),
            o.min_slack.map_or(Cell::Null, |r| Cell::Num(r.to_f64())),
        ]);
    }
    vec![s]
}

/// `dnc chaos`: the whole sweep, or scenario `replay` of it alone
/// (bit-exact, written nowhere). Unsound on any violation.
pub fn harness(cfg: &ChaosConfig, replay: Option<usize>) -> HarnessOutput {
    match replay {
        Some(id) => {
            let outcome = replay_scenario(cfg, id);
            let text = render_scenario(cfg, &outcome);
            HarnessOutput::replay("chaos", text, outcome.violations.is_empty())
        }
        None => {
            let report = run_chaos(cfg);
            let (text, series) = (render_report(&report), chaos_series(&report));
            HarnessOutput::new("chaos", text, series, report.violation_count() == 0)
        }
    }
}

/// Column header shared by the full report and single-scenario replay.
fn render_header(s: &mut String) {
    let _ = writeln!(
        s,
        "{:>4} {:>3} {:>5} {:>7} {:>10} {:>22} {:>9} {:>11}",
        "id", "n", "U", "faults", "workload", "claim", "sim_max", "min_slack"
    );
}

/// One fixed-width row of the report table.
fn render_row(s: &mut String, o: &ScenarioOutcome) {
    let (claim, slack) = match &o.claim {
        Claim::Bounded(tier) => (
            format!("answered ({tier})"),
            o.min_slack
                .map_or("-".to_string(), |r| format!("{:.1}", r.to_f64())),
        ),
        Claim::None(_) => ("no claim".to_string(), "-".to_string()),
    };
    let _ = writeln!(
        s,
        "{:>4} {:>3} {:>5.2} {:>7} {:>10} {:>22} {:>9} {:>11}",
        o.id,
        o.n,
        o.u.to_f64(),
        o.fault_count,
        o.workload,
        claim,
        o.worst_observed,
        slack
    );
}

/// Render the run as a fixed-width text report.
pub fn render_report(report: &ChaosReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "chaos: {} scenarios, seed {}, {} ticks each",
        report.cfg.scenarios, report.cfg.seed, report.cfg.ticks
    );
    render_header(&mut s);
    for o in &report.outcomes {
        render_row(&mut s, o);
    }
    let checked = report.checked_count();
    let _ = writeln!(
        s,
        "{} of {} scenarios carried a checkable claim",
        checked, report.cfg.scenarios
    );
    for o in &report.outcomes {
        for v in &o.violations {
            let _ = writeln!(s, "VIOLATION: {v}");
        }
    }
    match report.violation_count() {
        0 => {
            let _ = writeln!(s, "no soundness violations");
        }
        k => {
            let _ = writeln!(s, "SOUNDNESS VIOLATIONS: {k}");
        }
    }
    s
}

/// Render a single replayed scenario, including the no-claim reason the
/// table elides — the detail a failing sweep sends you here for.
pub fn render_scenario(cfg: &ChaosConfig, o: &ScenarioOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "chaos replay: scenario {} of seed {}, {} ticks",
        o.id, cfg.seed, cfg.ticks
    );
    render_header(&mut s);
    render_row(&mut s, o);
    if let Claim::None(reason) = &o.claim {
        let _ = writeln!(s, "no claim: {reason}");
    }
    for v in &o.violations {
        let _ = writeln!(s, "VIOLATION: {v}");
    }
    if o.violations.is_empty() {
        let _ = writeln!(s, "no soundness violations");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_num::{int, rat};

    #[test]
    fn run_is_deterministic_in_seed() {
        let cfg = ChaosConfig {
            scenarios: 4,
            seed: 7,
            ticks: 512,
        };
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        assert_eq!(a.outcomes.len(), 4);
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            assert_eq!(x.n, y.n);
            assert_eq!(x.u, y.u);
            assert_eq!(x.fault_count, y.fault_count);
            assert_eq!(x.worst_observed, y.worst_observed);
            assert_eq!(x.claim, y.claim);
        }
    }

    #[test]
    fn replay_matches_the_full_run() {
        let cfg = ChaosConfig {
            scenarios: 6,
            seed: 11,
            ticks: 512,
        };
        let full = run_chaos(&cfg);
        for want in &full.outcomes {
            let got = replay_scenario(&cfg, want.id);
            assert_eq!(got.n, want.n);
            assert_eq!(got.u, want.u);
            assert_eq!(got.fault_count, want.fault_count);
            assert_eq!(got.workload, want.workload);
            assert_eq!(got.claim, want.claim);
            assert_eq!(got.worst_observed, want.worst_observed);
            assert_eq!(got.min_slack, want.min_slack);
            assert_eq!(got.violations, want.violations);
            let text = render_scenario(&cfg, &got);
            assert!(
                text.contains(&format!("scenario {} of seed 11", want.id)),
                "{text}"
            );
        }
    }

    #[test]
    fn nominal_scenarios_never_violate() {
        // The acceptance gate: across a real-sized run, every nominal
        // (fault-free) scenario must carry a claim and keep it sound.
        let report = run_chaos(&ChaosConfig {
            scenarios: 16,
            seed: 1,
            ticks: 1024,
        });
        let nominal: Vec<_> = report.outcomes.iter().filter(|o| o.nominal()).collect();
        assert!(!nominal.is_empty(), "seed 1 drew no nominal scenarios");
        for o in nominal {
            assert!(
                matches!(o.claim, Claim::Bounded(_)),
                "nominal scenario {} lost its claim: {:?}",
                o.id,
                o.claim
            );
            assert!(o.violations.is_empty(), "{:?}", o.violations);
        }
    }

    #[test]
    fn faulty_scenarios_stay_sound() {
        let report = run_chaos(&ChaosConfig {
            scenarios: 12,
            seed: 3,
            ticks: 1024,
        });
        assert_eq!(report.violation_count(), 0, "{}", render_report(&report));
        // The sweep must exercise both claim paths somewhere.
        assert!(report.checked_count() > 0, "no scenario was checkable");
    }

    #[test]
    fn outage_voids_the_claim() {
        let t = paper_tandem(2, rat(1, 2));
        let plan = FaultPlan {
            faults: vec![Fault::Outage {
                server: ServerId(0),
                from: 10,
                until: 20,
            }],
        };
        assert!(degraded_claim_network(&t.net, &plan, 1024).is_err());
    }

    #[test]
    fn degraded_network_scales_rates_and_adds_cross_flows() {
        let t = paper_tandem(2, rat(1, 2));
        let plan = FaultPlan {
            faults: vec![
                Fault::Degrade {
                    server: ServerId(0),
                    from: 0,
                    until: 100,
                    scale: rat(3, 4),
                },
                Fault::CrossBurst {
                    server: ServerId(1),
                    at: 5,
                    cells: 12,
                },
            ],
        };
        let d = degraded_claim_network(&t.net, &plan, 1024).unwrap();
        assert_eq!(
            d.server(ServerId(0)).rate,
            t.net.server(ServerId(0)).rate * rat(3, 4)
        );
        assert_eq!(d.server(ServerId(1)).rate, t.net.server(ServerId(1)).rate);
        assert_eq!(d.flows().len(), t.net.flows().len() + 1);
        let cross = d.flows().last().unwrap();
        assert_eq!(cross.spec.burst(), int(12));
        assert!(cross.spec.sustained_rate().is_zero());
    }

    #[test]
    fn series_validate_against_schema() {
        let report = run_chaos(&ChaosConfig {
            scenarios: 3,
            seed: 5,
            ticks: 256,
        });
        crate::validated_json(chaos_series(&report));
        let text = render_report(&report);
        assert!(text.contains("3 scenarios"), "{text}");
    }
}
