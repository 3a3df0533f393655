//! **Algorithm Integrated** — the paper's contribution: analyze pairs of
//! consecutive FIFO servers *jointly*, so that the delay dependency
//! between them ("a packet maximally delayed at server 1 enters server 2
//! inside traffic that server 1 has already smoothed") is captured
//! instead of paying every burst at every hop.
//!
//! # The two-server bound (Theorem 1′)
//!
//! The paper's Theorem 1 is stated in an OCR-corrupted form and proved in
//! an unavailable technical report, so this crate implements a bound
//! re-derived from scratch in the same spirit (see DESIGN.md §5). Setting:
//! FIFO work-conserving servers 1 and 2 with rates `C₁, C₂`; flow sets
//! `S12` (through both), `S1` (server 1 only), `S2` (enters at server 2);
//! entry constraints `F12`, `F1`, `F2`; `Ḡ₁ = F12 + F1`;
//! `D₁ = h(Ḡ₁, λ_{C₁})` the server-1 local bound.
//!
//! Take any S12 bit: it arrives at server 1 at `h`, leaves it at
//! `u = h + δ₁` (with `δ₁ ≤ D₁`), and leaves server 2 at `w`. Let `q ≤ u`
//! start the server-2 busy period containing `u`; server 2 is busy on
//! `[q, w]`, so with `Δ = u − q`:
//!
//! ```text
//! w − u = [G₂(u) − G₂(q)]/C₂ − Δ
//! G₂(u) − G₂(q) ≤ min( C₁·Δ , F12(Δ + D₁) ) + F2(Δ)
//! ```
//!
//! The `C₁·Δ` branch is the server-1 **rate cap** (S12 traffic enters
//! server 2 no faster than server 1 can emit it); the volume branch holds
//! because every S12 bit departing server 1 in `(q, u]` arrived there in
//! `(q − D₁, h] ⊆` a window of length `Δ + D₁ − δ₁ ≤ Δ + D₁`. Hence
//!
//! ```text
//! d_S12 ≤ D₁ + max_{Δ ≥ 0} { [ min(C₁Δ, F12(Δ + D₁)) + F2(Δ) ]/C₂ − Δ }.
//! ```
//!
//! Dropping the `C₁Δ` branch recovers exactly the decomposed bound
//! `D₁ + D₂`, so **Integrated ≤ Decomposed holds by construction**; the
//! strict gain comes from the rate cap, which removes S12's (inflated)
//! burst from the server-2 backlog — the "pay bursts only once"
//! phenomenon. The maximization is a vertical-deviation computation on
//! exact PWL curves, so the bound is exact and cheap (the paper's
//! *efficiency* requirement for on-line admission control).
//!
//! # The fast path
//!
//! The analysis is organized as a list of **units** (pairing groups
//! specialized by discipline) whose per-unit work is split into a pure
//! *compute* step (reads the shared propagation state, returns
//! [`StageEntry`] records) and a deterministic *apply* step (pushes
//! stages and advances propagation in a fixed order). One sequential
//! loop walks the units in order; the split is what enables
//! **incremental re-certification** ([`Integrated::analyze_incremental`])
//! without ever changing a bound (DESIGN.md §13): replay the recorded
//! [`GroupTrace`] for units outside the mutated flow's downstream
//! closure, recompute only the dirty ones. A FIFO pair bound is three
//! horizontal deviations that each take the one-pass form (DESIGN.md
//! §18.2), so it is recomputed rather than memoized.

use crate::decomposed::local_delays;
use crate::propagate::Propagation;
use crate::{fifo, AnalysisError, AnalysisReport, DelayAnalysis, FlowReport, OutputCap};
use dnc_curves::{bounds, Curve, CurveError};
use dnc_net::pairing::{classify_pair_flows, partition, Group, PairingStrategy};
use dnc_net::{Discipline, FlowId, Network, ServerId};
use dnc_num::Rat;
use std::collections::{BTreeMap, BTreeSet};

/// The three delay figures of one analyzed pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairBound {
    /// Local bound at server 1 (applies to S1 flows).
    pub d1: Rat,
    /// Local bound at server 2 (applies to S2 flows).
    pub d2: Rat,
    /// Joint bound through both servers (applies to S12 flows);
    /// guaranteed `≤ d1 + d2`.
    pub through: Rat,
}

/// Compute the two-server bound from aggregate entry constraints, for
/// unit-class (FIFO) servers of rates `c1` and `c2`.
///
/// All aggregate constraints are nondecreasing (concave) arrival curves:
///
/// * `f12` — aggregate constraint of flows traversing server 1 then 2;
/// * `f1` — aggregate of flows leaving after server 1;
/// * `f2` — aggregate of flows entering at server 2;
/// * `c1`, `c2` — server rates;
/// * `cap` — output model used for the S12 constraint at server 2 when
///   computing the (decomposed-style) `d2`.
pub fn pair_delay_bound(
    f12: &Curve,
    f1: &Curve,
    f2: &Curve,
    c1: Rat,
    c2: Rat,
    cap: OutputCap,
) -> Result<PairBound, CurveError> {
    assert!(
        c1.is_positive() && c2.is_positive(),
        "rates must be positive"
    );
    pair_delay_bound_curves(f12, f1, f2, c1, &Curve::rate(c1), &Curve::rate(c2), cap)
}

/// The service-curve generalization of the two-server theorem — the
/// paper's announced static-priority extension.
///
/// The tagged class of traffic (a priority level, or everything at a
/// FIFO server) receives **strict** service curves `beta1` at server 1
/// and `beta2` at server 2 (for FIFO these are the full rates `λ_C`; for
/// static priority the residual curves `[C·t − α_higher(t)]⁺`, which are
/// strict). The derivation of DESIGN.md §5 goes through verbatim with two
/// substitutions:
///
/// * `D₁ = h(F12 + F1, β₁)` — the class's local bound at server 1;
/// * the server-2 busy-period argument uses `β₂` instead of `C₂·t`:
///   `w − u ≤ β₂⁻¹( min(C₁Δ, F12(Δ+D₁)) + F2(Δ) ) − Δ`, whose supremum
///   over `Δ` is exactly the horizontal deviation
///   `h( min(λ_{C₁}, F12(·+D₁)) + F2 , β₂ )`.
///
/// The rate cap keeps the **full** server-1 rate `c1_total` (nothing can
/// leave server 1 faster, whatever the discipline). Order within the
/// class must be FIFO (true per priority level of an SP server). Arrival
/// aggregates are nondecreasing arrival curves; `β₁`, `β₂` are
/// nondecreasing service curves.
pub fn pair_delay_bound_curves(
    f12: &Curve,
    f1: &Curve,
    f2: &Curve,
    c1_total: Rat,
    beta1: &Curve,
    beta2: &Curve,
    cap: OutputCap,
) -> Result<PairBound, CurveError> {
    assert!(c1_total.is_positive(), "server-1 rate must be positive");
    let _span = dnc_telemetry::span("core.pair_bound");
    dnc_telemetry::counter("core.pair_bound.calls", 1);
    let g1 = f12.add(f1);
    let d1 = bounds::hdev(&g1, beta1)?;

    // Decomposed-style local bound at server 2 (needed for S2 flows and as
    // a sanity envelope for the joint bound).
    let f12_at_2 = fifo::propagate_output(f12, d1, c1_total, cap);
    let g2 = f2.add(&f12_at_2);
    let d2 = bounds::hdev(&g2, beta2)?;

    // Joint bound: D1 + sup_{Δ≥0} [ β₂⁻¹(min(C1·Δ, F12(Δ+D1)) + F2(Δ)) − Δ ].
    let m = Curve::rate(c1_total).min(&f12.shift_left(d1)).add(f2);
    let inner = bounds::hdev(&m, beta2)?;
    let through = (d1 + inner).min(d1 + d2);

    Ok(PairBound { d1, d2, through })
}

/// Algorithm Integrated.
#[derive(Clone, Copy, Debug)]
pub struct Integrated {
    /// Output re-characterization model (paper: [`OutputCap::Shift`]).
    pub cap: OutputCap,
    /// How servers are grouped into subnetworks (paper: pairs along the
    /// chain). [`PairingStrategy::Singletons`] is Algorithm Decomposed:
    /// [`Decomposed`](crate::decomposed::Decomposed) runs as exactly this
    /// configuration.
    pub strategy: PairingStrategy,
}

impl Default for Integrated {
    fn default() -> Self {
        Integrated {
            cap: OutputCap::Shift,
            strategy: PairingStrategy::GreedyChain,
        }
    }
}

impl Integrated {
    /// The paper's configuration.
    pub fn paper() -> Integrated {
        Integrated::default()
    }
}

/// One work item: a pairing group specialized by server discipline. A
/// [`Group::Pair`] of two FIFO or two static-priority servers is analyzed
/// jointly; any other pair expands into two sequential singles (correct,
/// no joint gain), matching the historical fallback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Unit {
    Single(ServerId),
    Pair(ServerId, ServerId),
}

impl Unit {
    fn servers(self) -> (ServerId, Option<ServerId>) {
        match self {
            Unit::Single(s) => (s, None),
            Unit::Pair(a, b) => (a, Some(b)),
        }
    }
}

/// How one computed delay advances the propagation state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Advance {
    One(ServerId),
    Pair(ServerId, ServerId),
}

/// One (flow, stage) outcome of analyzing a unit — everything the apply
/// step needs to update the report stages and the propagation tables.
/// The stage's label is its server's name (a pair's two names joined by
/// `+`), taken from `advance` when the entry is applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StageEntry {
    flow: FlowId,
    delay: Rat,
    advance: Advance,
}

/// The replayable outcome of one full Integrated analysis: the unit list
/// and, per unit, the stage entries it produced.
/// [`Integrated::analyze_incremental`] replays the entries of clean
/// units verbatim and recomputes only dirty ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupTrace {
    units: Vec<Unit>,
    entries: Vec<Vec<StageEntry>>,
}

impl GroupTrace {
    /// Number of units (pairing groups after discipline specialization).
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Rewrite the trace for a network about to lose `victim`: the
    /// victim's own entries are dropped and flow ids above it shift down
    /// by one, mirroring [`Network::remove_flow`]'s id compaction.
    pub fn remap_release(&mut self, victim: FlowId) {
        for entries in &mut self.entries {
            entries.retain(|e| e.flow != victim);
            for e in entries.iter_mut() {
                if e.flow.0 > victim.0 {
                    e.flow = FlowId(e.flow.0 - 1);
                }
            }
        }
    }
}

/// A successful incremental re-analysis
/// (see [`Integrated::analyze_incremental`]).
#[derive(Clone, Debug)]
pub struct IncrementalOutcome {
    /// The spliced report — Rat-exact equal to a from-scratch analysis.
    pub report: AnalysisReport,
    /// The refreshed trace for the next churn operation.
    pub trace: GroupTrace,
    /// Units inside the dirty closure (recomputed).
    pub dirty_units: usize,
    /// Total units in the partition.
    pub total_units: usize,
}

/// `unit_of[server] → unit index` plus the forward dependency edges
/// between units (deduplicated successors, from consecutive route hops).
/// `None` when an edge points backwards — the partition guarantees a
/// contracted-topological order so this cannot happen, but
/// [`dirty_flags`] then declines the incremental splice instead of
/// trusting it blindly.
fn unit_graph(net: &Network, units: &[Unit]) -> Option<(Vec<usize>, Vec<BTreeSet<usize>>)> {
    let mut unit_of = vec![usize::MAX; net.servers().len()];
    for (i, u) in units.iter().enumerate() {
        let (a, b) = u.servers();
        unit_of[a.0] = i; // audit: allow(index, unit_of is sized to the server count; ServerId comes from the same network)
        if let Some(b) = b {
            unit_of[b.0] = i; // audit: allow(index, unit_of is sized to the server count; ServerId comes from the same network)
        }
    }
    let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); units.len()];
    for f in net.flows() {
        for w in f.route.windows(2) {
            let (iu, iv) = (unit_of[w[0].0], unit_of[w[1].0]); // audit: allow(index, unit_of is sized to the server count; routes only name servers of this network)
            if iu == usize::MAX || iv == usize::MAX || iu == iv {
                continue;
            }
            if iu > iv {
                return None; // not in contracted-topological order
            }
            succs[iu].insert(iv); // audit: allow(index, iu is a unit index assigned above)
        }
    }
    Some((unit_of, succs))
}

/// Mark every unit whose inputs the mutated flow can reach: seed with the
/// units containing the flow's route servers, then close forward over the
/// dependency edges (one in-order pass suffices — edges only point
/// forward). Everything unmarked provably sees byte-identical inputs
/// (DESIGN.md §13).
fn dirty_flags(net: &Network, units: &[Unit], seed: &[ServerId]) -> Option<Vec<bool>> {
    let (unit_of, succs) = unit_graph(net, units)?;
    let mut dirty = vec![false; units.len()];
    for s in seed {
        let iu = *unit_of.get(s.0)?;
        if iu != usize::MAX {
            dirty[iu] = true; // audit: allow(index, iu is a unit index assigned by unit_graph)
        }
    }
    for u in 0..units.len() {
        // audit: allow(index, u is a unit index below units.len())
        if dirty[u] {
            // audit: allow(index, u is a unit index below units.len())
            for &v in &succs[u] {
                // audit: allow(index, successors are unit indices below units.len())
                dirty[v] = true;
            }
        }
    }
    Some(dirty)
}

/// Replay/record apply step: push report stages and advance propagation,
/// in the entry order the compute step fixed. Every entry of one unit
/// that advances over a pair names the unit's pair, so its label is
/// formatted once.
fn apply(
    net: &Network,
    prop: &mut Propagation<'_>,
    stages: &mut [Vec<(String, Rat)>],
    entries: &[StageEntry],
) {
    let mut pair_label = None;
    for e in entries {
        let label = match e.advance {
            Advance::One(s) => {
                prop.advance(e.flow, s, e.delay);
                net.server(s).name.clone()
            }
            Advance::Pair(a, b) => {
                prop.advance_pair(e.flow, a, b, e.delay);
                let (a, b) = (&net.server(a).name, &net.server(b).name);
                pair_label.get_or_insert_with(|| format!("{a}+{b}")).clone()
            }
        };
        stages[e.flow.0].push((label, e.delay)); // audit: allow(index, stages is sized to the flow count; entries only name flows of the same network)
    }
}

impl DelayAnalysis for Integrated {
    fn name(&self) -> &'static str {
        "integrated"
    }

    fn analyze(&self, net: &Network) -> Result<AnalysisReport, AnalysisError> {
        self.analyze_traced(net).map(|(report, _)| report)
    }
}

impl Integrated {
    /// Like [`DelayAnalysis::analyze`], additionally returning the
    /// [`GroupTrace`] that [`Integrated::analyze_incremental`] replays.
    pub fn analyze_traced(
        &self,
        net: &Network,
    ) -> Result<(AnalysisReport, GroupTrace), AnalysisError> {
        let _span = dnc_telemetry::span("algo.integrated");
        self.drive(net)
    }

    /// [`Integrated::analyze_traced`] without its span, so that
    /// [`Decomposed`](crate::decomposed::Decomposed) runs the same
    /// analysis under its own.
    pub(crate) fn drive(
        &self,
        net: &Network,
    ) -> Result<(AnalysisReport, GroupTrace), AnalysisError> {
        net.validate()?;
        let units = self.units_of(net)?;
        self.run(net, &units, None)
    }

    /// Re-certify after a churn mutation by recomputing only the units
    /// inside the mutated flow's dirty closure (`seed`: the flow's route
    /// servers) and replaying `prev`'s recorded entries for the rest.
    ///
    /// Returns `Ok(None)` when the mutation changed the pairing
    /// partition itself — the caller must fall back to
    /// [`Integrated::analyze_traced`]. On success the report is Rat-exact
    /// equal to a from-scratch analysis (asserted under
    /// `debug-invariants`; argued in DESIGN.md §13).
    pub fn analyze_incremental(
        &self,
        net: &Network,
        prev: &GroupTrace,
        seed: &[ServerId],
    ) -> Result<Option<IncrementalOutcome>, AnalysisError> {
        let _span = dnc_telemetry::span("algo.integrated.incremental");
        net.validate()?;
        let units = self.units_of(net)?;
        if units != prev.units || prev.entries.len() != units.len() {
            return Ok(None); // partition changed: splice targets are gone
        }
        let Some(dirty) = dirty_flags(net, &units, seed) else {
            return Ok(None);
        };
        let dirty_units = dirty.iter().filter(|&&d| d).count();
        let (report, trace) = self.run(net, &units, Some((prev, &dirty)))?;

        #[cfg(feature = "debug-invariants")]
        {
            let (full, _) = self.run(net, &units, None)?;
            assert_eq!(
                report, full,
                "incremental splice diverged from the from-scratch analysis"
            );
        }

        Ok(Some(IncrementalOutcome {
            report,
            trace,
            dirty_units,
            total_units: units.len(),
        }))
    }

    /// The partition specialized into schedulable units.
    fn units_of(&self, net: &Network) -> Result<Vec<Unit>, AnalysisError> {
        let part = partition(net, self.strategy)?;
        let mut units = Vec::with_capacity(part.groups.len());
        for group in &part.groups {
            match *group {
                Group::Single(s) => units.push(Unit::Single(s)),
                Group::Pair(a, b) => {
                    let (da, db) = (net.server(a).discipline, net.server(b).discipline);
                    match (da, db) {
                        (Discipline::Fifo, Discipline::Fifo)
                        | (Discipline::StaticPriority, Discipline::StaticPriority) => {
                            units.push(Unit::Pair(a, b))
                        }
                        // Mixed-discipline pairs fall back to sequential
                        // single-server analysis (still correct, no joint
                        // gain).
                        _ => {
                            units.push(Unit::Single(a));
                            units.push(Unit::Single(b));
                        }
                    }
                }
            }
        }
        Ok(units)
    }

    /// The analysis loop: compute every unit in order, apply its
    /// entries, assemble the report and the trace. `replay` carries the
    /// previous trace plus per-unit dirty flags for the incremental path;
    /// clean units replay their recorded entries instead of computing.
    fn run(
        &self,
        net: &Network,
        units: &[Unit],
        replay: Option<(&GroupTrace, &[bool])>,
    ) -> Result<(AnalysisReport, GroupTrace), AnalysisError> {
        let mut prop = Propagation::new(net, self.cap);
        let mut stages: Vec<Vec<(String, Rat)>> = vec![Vec::new(); net.flows().len()];
        let mut trace_entries: Vec<Vec<StageEntry>> = Vec::with_capacity(units.len());
        for (i, &unit) in units.iter().enumerate() {
            let entries = match (replay, unit) {
                // audit: allow(index, dirty and entries are sized to units — checked by analyze_incremental)
                (Some((prev, dirty)), _) if !dirty[i] => prev.entries[i].clone(),
                (_, Unit::Single(s)) => self.compute_single(net, s, &prop)?,
                (_, Unit::Pair(a, b)) => self.compute_pair(net, a, b, &prop)?,
            };
            apply(net, &mut prop, &mut stages, &entries);
            trace_entries.push(entries);
        }

        let report = AnalysisReport {
            algorithm: self.name(),
            flows: net
                .flows()
                .iter()
                .enumerate()
                .map(|(i, f)| FlowReport {
                    flow: FlowId(i),
                    name: f.name.clone(),
                    e2e: stages[i].iter().map(|(_, d)| *d).sum(), // audit: allow(index, stages is sized to the flow count; f is a FlowId of the same network)
                    stages: std::mem::take(&mut stages[i]), // audit: allow(index, stages is sized to the flow count; f is a FlowId of the same network)
                })
                .collect(),
        };
        let trace = GroupTrace {
            units: units.to_vec(),
            entries: trace_entries,
        };
        Ok((report, trace))
    }

    fn compute_single(
        &self,
        net: &Network,
        server: ServerId,
        prop: &Propagation<'_>,
    ) -> Result<Vec<StageEntry>, AnalysisError> {
        let curves: Vec<(FlowId, Curve)> = net
            .flows_through(server)
            .into_iter()
            .map(|f| (f, prop.curve_at(f, server).clone()))
            .collect();
        if curves.is_empty() {
            return Ok(Vec::new());
        }
        Ok(local_delays(net, server, &curves)?
            .into_iter()
            .map(|(flow, delay)| StageEntry {
                flow,
                delay,
                advance: Advance::One(server),
            })
            .collect())
    }

    /// Joint analysis of a FIFO or static-priority pair, level by level
    /// (lower priority number = more urgent; levels are FIFO internally,
    /// which is what [`pair_delay_bound_curves`] requires, and a FIFO
    /// pair is a single level). Each level gets the residual strict
    /// service curves `[C·t − α_higher(t)]⁺` at both servers — the full
    /// rates `λ_C` for the most urgent level — with the higher-priority
    /// constraint at server 2 taken as its server-1 constraint delayed by
    /// that level's own server-1 bound. Reads only entry curves seeded by
    /// upstream units, so it is a pure compute step: the level recursion
    /// feeds on its own aggregates, never on this unit's applied advances.
    fn compute_pair(
        &self,
        net: &Network,
        a: ServerId,
        b: ServerId,
        prop: &Propagation<'_>,
    ) -> Result<Vec<StageEntry>, AnalysisError> {
        let (s12, s1, s2) = classify_pair_flows(net, a, b);
        let c1 = net.server(a).rate;
        let c2 = net.server(b).rate;
        let mut out = Vec::new();

        // Group every involved flow by priority level.
        let by_priority = net.server(a).discipline == Discipline::StaticPriority;
        let level_of = |f: FlowId| if by_priority { net.flow(f).priority } else { 0 };
        let mut levels: BTreeMap<u8, (Vec<_>, Vec<_>, Vec<_>)> = BTreeMap::new();
        for &f in &s12 {
            levels.entry(level_of(f)).or_default().0.push(f);
        }
        for &f in &s1 {
            levels.entry(level_of(f)).or_default().1.push(f);
        }
        for &f in &s2 {
            levels.entry(level_of(f)).or_default().2.push(f);
        }
        let aggregate = |flows: &[FlowId], at: ServerId| {
            fifo::aggregate_curve(flows.iter().map(|&f| prop.curve_at(f, at)))
        };
        let residual = |rate: Rat, interference: &[Curve]| -> Curve {
            if interference.is_empty() {
                Curve::rate(rate)
            } else {
                Curve::rate(rate)
                    .sub(&fifo::aggregate_curve(interference.iter()))
                    .pos()
            }
        };

        // Higher-priority interference accumulated while walking levels in
        // urgency order.
        let mut higher1: Vec<Curve> = Vec::new(); // at server 1 (S12 ∪ S1)
        let mut higher2: Vec<Curve> = Vec::new(); // at server 2 (S12' ∪ S2)
        let mut levels = levels.into_values().peekable();
        while let Some((l12, l1, l2)) = levels.next() {
            let (f12, f1, f2) = (aggregate(&l12, a), aggregate(&l1, a), aggregate(&l2, b));
            let beta1 = residual(c1, &higher1);
            let beta2 = residual(c2, &higher2);
            let pb = pair_delay_bound_curves(&f12, &f1, &f2, c1, &beta1, &beta2, self.cap)
                .map_err(|e| AnalysisError::at(a, e))?;

            for &f in &l12 {
                out.push(StageEntry {
                    flow: f,
                    delay: pb.through,
                    advance: Advance::Pair(a, b),
                });
            }
            for &f in &l1 {
                out.push(StageEntry {
                    flow: f,
                    delay: pb.d1,
                    advance: Advance::One(a),
                });
            }
            for &f in &l2 {
                out.push(StageEntry {
                    flow: f,
                    delay: pb.d2,
                    advance: Advance::One(b),
                });
            }

            // This level now interferes with everything less urgent.
            if levels.peek().is_some() {
                higher1.push(f12.add(&f1));
                higher2.push(f2.add(&fifo::propagate_output(&f12, pb.d1, c1, self.cap)));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposed::Decomposed;
    use dnc_curves::limits;
    use dnc_net::builders;
    use dnc_num::{int, rat};
    use dnc_traffic::TrafficSpec;

    #[test]
    fn pair_bound_hand_computed() {
        // C1 = C2 = 1, F12 = 2 + t/4, F1 = 1 + t/4, F2 = 3 + t/4.
        // D1 = 3. Joint inner max at Δ = 11/3 gives 47/12,
        // so through = 3 + 47/12 = 83/12. Decomposed d2 = 23/4.
        let f12 = Curve::token_bucket(int(2), rat(1, 4));
        let f1 = Curve::token_bucket(int(1), rat(1, 4));
        let f2 = Curve::token_bucket(int(3), rat(1, 4));
        let pb = pair_delay_bound(&f12, &f1, &f2, int(1), int(1), OutputCap::Shift).unwrap();
        assert_eq!(pb.d1, int(3));
        assert_eq!(pb.d2, rat(23, 4));
        assert_eq!(pb.through, rat(83, 12));
        assert!(pb.through < pb.d1 + pb.d2);
    }

    #[test]
    fn pair_bound_never_exceeds_decomposed_sum() {
        // Over a grid of parameters the joint bound stays within d1 + d2.
        for s12 in 1..4i64 {
            for s2 in 1..4i64 {
                for rho_num in 1..4i64 {
                    let rho = Rat::new(rho_num as i128, 10);
                    let f12 = Curve::token_bucket(int(s12), rho);
                    let f1 = Curve::token_bucket(int(1), rho);
                    let f2 = Curve::token_bucket(int(s2), rho);
                    let pb =
                        pair_delay_bound(&f12, &f1, &f2, int(1), int(1), OutputCap::Shift).unwrap();
                    assert!(pb.through <= pb.d1 + pb.d2);
                    assert!(pb.through >= pb.d1);
                }
            }
        }
    }

    #[test]
    fn pair_bound_empty_cross_sets() {
        // Lone S12 aggregate through two unit servers: D1 = σ, and the
        // rate cap kills any extra queueing at server 2 (C1 = C2).
        let f12 = Curve::token_bucket(int(4), rat(1, 2));
        let zero = Curve::zero();
        let pb = pair_delay_bound(&f12, &zero, &zero, int(1), int(1), OutputCap::Shift).unwrap();
        assert_eq!(pb.d1, int(4));
        assert_eq!(pb.through, int(4), "no second burst to pay");
    }

    #[test]
    fn slower_second_server_queues_again() {
        // C2 < C1: even smoothed S12 traffic backs up at server 2.
        let f12 = Curve::token_bucket(int(4), rat(1, 4));
        let zero = Curve::zero();
        let pb = pair_delay_bound(&f12, &zero, &zero, int(1), rat(1, 2), OutputCap::Shift).unwrap();
        assert!(pb.through > pb.d1);
        assert!(pb.through <= pb.d1 + pb.d2);
    }

    #[test]
    fn integrated_beats_decomposed_on_tandem() {
        for n in [2usize, 4, 8] {
            for u_16 in [4i128, 8, 12] {
                let rho = Rat::new(u_16, 64); // ρ = U/4, U = u_16/16
                let t = builders::tandem(n, int(1), rho, builders::TandemOptions::default());
                let di = Integrated::paper().analyze(&t.net).unwrap();
                let dd = Decomposed::paper().analyze(&t.net).unwrap();
                assert!(
                    di.bound(t.conn0) <= dd.bound(t.conn0),
                    "n={n} U={}/16: integrated {} > decomposed {}",
                    u_16,
                    di.bound(t.conn0),
                    dd.bound(t.conn0)
                );
                // Strict improvement at interior pairs for n >= 2.
                assert!(
                    di.bound(t.conn0) < dd.bound(t.conn0),
                    "expected strict improvement (n={n}, U={}/16)",
                    u_16
                );
            }
        }
    }

    #[test]
    fn singleton_strategy_equals_decomposed() {
        let t = builders::tandem(4, int(1), rat(1, 8), builders::TandemOptions::default());
        let int_single = Integrated {
            strategy: PairingStrategy::Singletons,
            ..Integrated::default()
        }
        .analyze(&t.net)
        .unwrap();
        let dd = Decomposed::paper().analyze(&t.net).unwrap();
        for (a, b) in int_single.flows.iter().zip(dd.flows.iter()) {
            assert_eq!(a.e2e, b.e2e, "flow {}", a.name);
        }
    }

    #[test]
    fn all_flows_get_bounds() {
        let t = builders::tandem(5, int(1), rat(3, 16), builders::TandemOptions::default());
        let r = Integrated::paper().analyze(&t.net).unwrap();
        assert_eq!(r.flows.len(), t.net.flows().len());
        for f in &r.flows {
            assert!(f.e2e.is_positive());
            assert!(!f.stages.is_empty());
        }
    }

    #[test]
    fn sp_pair_matches_fifo_when_single_level() {
        // With every flow on one priority level, the SP pair analysis is
        // the FIFO pair analysis.
        let f12 = Curve::token_bucket(int(2), rat(1, 4));
        let f1 = Curve::token_bucket(int(1), rat(1, 4));
        let f2 = Curve::token_bucket(int(3), rat(1, 4));
        let fifo = pair_delay_bound(&f12, &f1, &f2, int(1), int(1), OutputCap::Shift).unwrap();
        let via_curves = pair_delay_bound_curves(
            &f12,
            &f1,
            &f2,
            int(1),
            &Curve::rate(int(1)),
            &Curve::rate(int(1)),
            OutputCap::Shift,
        )
        .unwrap();
        assert_eq!(fifo, via_curves);
    }

    #[test]
    fn sp_pair_with_residual_curves() {
        // Tagged level behind higher-priority interference 1 + t/4 at
        // both servers: residual β = (3/4)(t − 4/3)⁺.
        let f12 = Curve::token_bucket(int(2), rat(1, 8));
        let zero = Curve::zero();
        let beta = Curve::rate(int(1))
            .sub(&Curve::token_bucket(int(1), rat(1, 4)))
            .pos();
        let pb =
            pair_delay_bound_curves(&f12, &zero, &zero, int(1), &beta, &beta, OutputCap::Shift)
                .unwrap();
        // D1 = h(2 + t/8, (3/4)(t − 4/3)⁺) = 4/3 + (2 + ρ·…) — exact value
        // checked against the standard burst/R + T with the burst evaluated
        // at the deviation point; sandwich properties must hold regardless.
        assert!(pb.d1 > int(2), "residual service must hurt");
        assert!(pb.through >= pb.d1);
        assert!(pb.through <= pb.d1 + pb.d2);
        // The joint bound must beat the naive sum: the rate cap still
        // applies at full C1 = 1.
        assert!(pb.through < pb.d1 + pb.d2);
    }

    #[test]
    fn integrated_beats_decomposed_on_sp_tandem() {
        use dnc_net::Discipline;
        for rho_num in [1i128, 2, 3] {
            let t = builders::tandem(
                4,
                int(1),
                Rat::new(rho_num, 16),
                builders::TandemOptions {
                    discipline: Discipline::StaticPriority,
                    ..builders::TandemOptions::default()
                },
            );
            let di = Integrated::paper().analyze(&t.net).unwrap();
            let dd = Decomposed::paper().analyze(&t.net).unwrap();
            for (a, b) in di.flows.iter().zip(dd.flows.iter()) {
                assert!(
                    a.e2e <= b.e2e,
                    "SP ρ={rho_num}/16 flow {}: integrated {} > decomposed {}",
                    a.name,
                    a.e2e,
                    b.e2e
                );
            }
            // Connection 0 (priority 1, behind the cross flows) must gain
            // strictly from pairing.
            assert!(di.bound(t.conn0) < dd.bound(t.conn0));
        }
    }

    #[test]
    fn two_server_subsystem_all_sets() {
        let sp = |s: i64, d: i128| TrafficSpec::token_bucket(int(s), Rat::new(1, d));
        let (net, _, _, f12, f1, f2) =
            builders::two_server(int(1), int(1), &[sp(2, 4)], &[sp(1, 4)], &[sp(3, 4)]);
        let r = Integrated::paper().analyze(&net).unwrap();
        // Matches pair_bound_hand_computed.
        assert_eq!(r.bound(f12[0]), rat(83, 12));
        assert_eq!(r.bound(f1[0]), int(3));
        assert_eq!(r.bound(f2[0]), rat(23, 4));
    }

    #[test]
    fn pair_bound_charges_the_budget_per_hdev_call() {
        // A pair bound charges its three `hdev` calls to the op budget on
        // every computation, so an op cap trips at the same point however
        // often the process computed the same bound before.
        let f12 = Curve::token_bucket(int(5), rat(1, 7));
        let f1 = Curve::token_bucket(int(2), rat(1, 7));
        let f2 = Curve::token_bucket(int(3), rat(1, 7));
        let bound = || pair_delay_bound(&f12, &f1, &f2, int(1), int(1), OutputCap::Shift);
        let capped = |ops: u64| {
            let _limits = limits::install(limits::Limits {
                op_cap: Some(ops),
                ..limits::Limits::unlimited()
            });
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(bound)).is_ok()
        };
        assert!(bound().is_ok());
        assert!(!capped(2), "a repeat must charge all three hdev calls");
        assert!(capped(3));
    }

    #[test]
    fn incremental_matches_full_after_admit_and_release() {
        let t = builders::tandem(5, int(1), rat(1, 16), builders::TandemOptions::default());
        let alg = Integrated::paper();
        let (_, trace) = alg.analyze_traced(&t.net).unwrap();

        // Admit a new flow over the middle servers.
        let mut grown = t.net.clone();
        let candidate = dnc_net::Flow {
            name: "extra".into(),
            spec: TrafficSpec::token_bucket(int(1), rat(1, 32)),
            route: t.middle.clone(),
            priority: 0,
        };
        let seed = candidate.route.clone();
        grown.add_flow(candidate).unwrap();
        let full = alg.analyze_traced(&grown).unwrap();
        let inc = alg
            .analyze_incremental(&grown, &trace, &seed)
            .unwrap()
            .expect("tandem admit keeps the partition");
        assert_eq!(inc.report, full.0, "spliced report must be Rat-exact");
        assert_eq!(inc.trace, full.1, "refreshed trace must be replayable");
        assert!(inc.dirty_units <= inc.total_units);

        // Release it again: remap the trace and splice back.
        let victim = FlowId(grown.flows().len() - 1);
        let mut shrunk = grown.clone();
        shrunk.remove_flow(victim).unwrap();
        let mut remapped = inc.trace.clone();
        remapped.remap_release(victim);
        let full_back = alg.analyze_traced(&shrunk).unwrap();
        let inc_back = alg
            .analyze_incremental(&shrunk, &remapped, &seed)
            .unwrap()
            .expect("tandem release keeps the partition");
        assert_eq!(inc_back.report, full_back.0);
        assert_eq!(inc_back.trace, full_back.1);
    }
}
