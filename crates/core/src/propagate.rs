//! Hop-by-hop constraint propagation shared by the algorithms.

use crate::fifo::{propagate_output, OutputCap};
use dnc_curves::Curve;
use dnc_net::{FlowId, Network, ServerId};
use dnc_num::Rat;

/// Tracks, for every flow, its traffic-constraint curve at the entrance of
/// each hop of its route, filled in as the analysis walks the network in
/// topological order.
pub(crate) struct Propagation<'a> {
    net: &'a Network,
    cap: OutputCap,
    /// `curves[flow][hop]` — constraint entering hop `hop` of the flow's
    /// route; hop 0 is the source spec, later hops are produced by
    /// [`Propagation::advance`].
    curves: Vec<Vec<Option<Curve>>>,
}

impl<'a> Propagation<'a> {
    pub(crate) fn new(net: &'a Network, cap: OutputCap) -> Propagation<'a> {
        let curves = net
            .flows()
            .iter()
            .map(|f| {
                let mut v: Vec<Option<Curve>> = vec![None; f.route.len()];
                v[0] = Some(f.spec.arrival_curve()); // audit: allow(index, curves[f] has one slot per route hop; hop comes from hop_index on the same route)
                v
            })
            .collect();
        Propagation { net, cap, curves }
    }

    /// The constraint of `flow` entering `server`.
    ///
    /// # Panics
    /// Panics if the flow does not traverse the server or if the upstream
    /// hops have not been processed yet (topological-order violation).
    pub(crate) fn curve_at(&self, flow: FlowId, server: ServerId) -> &Curve {
        let hop = self
            .net
            .hop_index(flow, server)
            .unwrap_or_else(|| panic!("{flow} does not traverse {server}")); // audit: allow(panic, documented panic: topological-order precondition of Propagation)
        self.curves[flow.0][hop] // audit: allow(index, curves[f] has one slot per route hop; hop comes from hop_index on the same route)
            .as_ref()
            // audit: allow(panic, documented panic: topological-order precondition of Propagation)
            .unwrap_or_else(|| panic!("{flow}@{server}: upstream not yet analyzed"))
    }

    /// Record that `flow` cleared `server` within `delay`, installing its
    /// constraint at the next hop. Past the flow's last hop nothing reads
    /// the output constraint, so none is computed.
    pub(crate) fn advance(&mut self, flow: FlowId, server: ServerId, delay: Rat) {
        let hop = self
            .net
            .hop_index(flow, server)
            .unwrap_or_else(|| panic!("{flow} does not traverse {server}")); // audit: allow(panic, documented panic: topological-order precondition of Propagation)
        self.install(flow, hop, hop + 1, delay, self.net.server(server).rate);
    }

    /// Like [`Propagation::advance`] but jumps **two** hops at once (a
    /// paired subnetwork): the constraint after the pair is the entry
    /// constraint shifted by the pair delay.
    pub(crate) fn advance_pair(
        &mut self,
        flow: FlowId,
        first: ServerId,
        second: ServerId,
        delay: Rat,
    ) {
        let hop = self
            .net
            .hop_index(flow, first)
            .unwrap_or_else(|| panic!("{flow} does not traverse {first}")); // audit: allow(panic, documented panic: topological-order precondition of Propagation)
        debug_assert_eq!(
            self.net.flow(flow).route.get(hop + 1),
            Some(&second),
            "advance_pair: servers not consecutive on the route"
        );
        self.install(flow, hop, hop + 2, delay, self.net.server(second).rate);
    }

    /// Install at hop `to` the output constraint of the curve entering
    /// hop `from` after a stage of delay bound `delay` and output rate
    /// `rate`; nothing when `to` is past the end of the route.
    fn install(&mut self, flow: FlowId, from: usize, to: usize, delay: Rat, rate: Rat) {
        let hops = &mut self.curves[flow.0]; // audit: allow(index, curves has one entry per flow; FlowId comes from the same network)
        if to >= hops.len() {
            return;
        }
        let cur = hops
            .get(from)
            .and_then(Option::as_ref)
            .expect("advance past unanalyzed hop"); // audit: allow(expect, documented panic: topological-order precondition of Propagation)
        let next = propagate_output(cur, delay, rate, self.cap);
        if let Some(slot) = hops.get_mut(to) {
            *slot = Some(next);
        }
    }
}
