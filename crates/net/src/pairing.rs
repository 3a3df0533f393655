//! Steps 1–2 of Algorithm Integrated: partition the network into
//! subnetworks of at most two servers and order them topologically.
//!
//! The paper requires that "each input traffic of the (i+1)-th subnetwork
//! can be estimated by all input traffic of subsystems with order less than
//! (i+1)" — i.e. the *contracted* subnetwork graph must be acyclic. Pairing
//! two servers of a DAG can create a contracted cycle (a flow leaving the
//! pair and re-entering it through a third server), so every tentative pair
//! is checked before being accepted.

use crate::{FlowId, Network, NetworkError, ServerId};
use std::collections::VecDeque;

/// One subnetwork of the partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// A single server analyzed in isolation.
    Single(ServerId),
    /// Two servers `first → second` analyzed jointly with the two-server
    /// theorem. Invariant: at least one flow traverses `first` immediately
    /// followed by `second`.
    Pair(ServerId, ServerId),
}

impl Group {
    /// The servers of the group, in traversal order.
    pub fn servers(&self) -> Vec<ServerId> {
        match *self {
            Group::Single(s) => vec![s],
            Group::Pair(a, b) => vec![a, b],
        }
    }

    /// Whether the group contains `s`.
    pub fn contains(&self, s: ServerId) -> bool {
        match *self {
            Group::Single(a) => a == s,
            Group::Pair(a, b) => a == s || b == s,
        }
    }
}

/// A partition of all servers into [`Group`]s, stored in a valid
/// evaluation (topological) order.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Groups in evaluation order.
    pub groups: Vec<Group>,
}

impl Partition {
    /// The group index containing server `s`.
    pub fn group_of(&self, s: ServerId) -> usize {
        self.groups
            .iter()
            .position(|g| g.contains(s))
            .expect("partition covers all servers") // audit: allow(expect, partitions are constructed to cover every server of the network)
    }

    /// Number of paired groups (quality metric: more pairs = more delay
    /// dependencies captured).
    pub fn pair_count(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| matches!(g, Group::Pair(..)))
            .count()
    }
}

/// How to choose the pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairingStrategy {
    /// No pairs at all: Algorithm Integrated degenerates to Algorithm
    /// Decomposed (useful as an ablation baseline).
    Singletons,
    /// Walk the topological order and greedily pair each unassigned server
    /// with the immediate successor sharing the most flows, subject to the
    /// contracted graph staying acyclic.
    GreedyChain,
    /// Exact maximum-weight acyclic pairing by branch-and-bound (weight =
    /// flows shared per pair). Exponential in the worst case; intended for
    /// networks of up to ~16 servers, falling back to
    /// [`PairingStrategy::GreedyChain`] beyond that.
    OptimalSmall,
}

/// Partition `net`'s servers according to `strategy`.
///
/// # Errors
/// Propagates [`NetworkError::NotFeedforward`] from the topological sort.
pub fn partition(net: &Network, strategy: PairingStrategy) -> Result<Partition, NetworkError> {
    let _span = dnc_telemetry::span("net.partition");
    let order = net.topological_order()?;
    let out = match strategy {
        PairingStrategy::Singletons => Ok(Partition {
            groups: order.into_iter().map(Group::Single).collect(),
        }),
        PairingStrategy::OptimalSmall if net.servers().len() <= 16 => {
            optimal_small(net, &order, &transitions(net))
        }
        PairingStrategy::GreedyChain | PairingStrategy::OptimalSmall => {
            greedy_chain(net, &order, &transitions(net))
        }
    };
    if let Ok(p) = &out {
        let pairs = p.pair_count() as u64;
        dnc_telemetry::counter("net.pairing.pairs", pairs);
        dnc_telemetry::counter("net.pairing.singles", p.groups.len() as u64 - pairs);
    }
    out
}

/// One immediate transition `a → b` and the number of flows making it.
type Transition = ((ServerId, ServerId), usize);

/// Every immediate transition of every route, counted once and sorted
/// by `(a, b)`: [`Network::precedence_edges`] with the flows sharing each
/// edge (a route visits a server at most once, so each flow makes a
/// transition at most once).
fn transitions(net: &Network) -> Vec<Transition> {
    let mut hops: Vec<(ServerId, ServerId)> = net
        .flows()
        .iter()
        .flat_map(|f| f.route.iter().copied().zip(f.route.iter().copied().skip(1)))
        .collect();
    hops.sort_unstable();
    let mut out: Vec<Transition> = Vec::new();
    for edge in hops {
        match out.last_mut() {
            Some((last, count)) if *last == edge => *count += 1,
            _ => out.push((edge, 1)),
        }
    }
    out
}

/// The transitions leaving `u` (a contiguous run of the sorted list).
fn transitions_from(edges: &[Transition], u: ServerId) -> &[Transition] {
    let start = edges.partition_point(|&((a, _), _)| a < u);
    let end = edges.partition_point(|&((a, _), _)| a <= u);
    edges.get(start..end).unwrap_or_default()
}

/// `group_of[server] → group index` for groups that cover every server.
fn group_table(n: usize, groups: &[Group]) -> Vec<usize> {
    let mut group_of = vec![usize::MAX; n];
    for (i, g) in groups.iter().enumerate() {
        for s in g.servers() {
            if let Some(slot) = group_of.get_mut(s.0) {
                *slot = i;
            }
        }
    }
    group_of
}

/// Exact maximum-weight pairing: branch-and-bound over the servers in
/// topological order, keeping only assignments whose final contraction is
/// acyclic. Weight of a pair = number of flows making the `a → b`
/// transition (the traffic whose delay dependency the pair captures).
fn optimal_small(
    net: &Network,
    order: &[ServerId],
    edges: &[Transition],
) -> Result<Partition, NetworkError> {
    let n = net.servers().len();
    // The largest outgoing weight of every server, for the search bound.
    let mut best_out = vec![0usize; n];
    for &((a, _), w) in edges {
        if let Some(b) = best_out.get_mut(a.0) {
            *b = (*b).max(w);
        }
    }

    struct Search<'a> {
        n: usize,
        order: &'a [ServerId],
        edges: &'a [Transition],
        best_out: Vec<usize>,
        best_weight: usize,
        best: Option<Vec<Group>>,
    }

    impl Search<'_> {
        fn recurse(&mut self, idx: usize, assigned: u32, groups: &mut Vec<Group>, weight: usize) {
            let Some((&u, rest)) = self.order.get(idx..).and_then(<[ServerId]>::split_first) else {
                if (weight > self.best_weight || self.best.is_none())
                    && contracted_order(self.edges, &group_table(self.n, groups), groups.len())
                        .is_some()
                {
                    self.best_weight = weight;
                    self.best = Some(groups.clone());
                }
                return;
            };
            if assigned & (1 << u.0) != 0 {
                self.recurse(idx + 1, assigned, groups, weight);
                return;
            }
            // Optimistic bound: every remaining server could add the
            // single largest outgoing weight; prune when even that cannot
            // beat the incumbent.
            let optimistic: usize = std::iter::once(&u)
                .chain(rest)
                .filter(|s| assigned & (1 << s.0) == 0)
                .map(|s| self.best_out.get(s.0).copied().unwrap_or(0))
                .sum();
            if self.best.is_some() && weight + optimistic <= self.best_weight {
                return;
            }
            // Try pairing u with each unassigned successor, in id order.
            let edges = self.edges;
            for &((_, v), w) in transitions_from(edges, u) {
                if assigned & (1 << v.0) == 0 {
                    groups.push(Group::Pair(u, v));
                    self.recurse(
                        idx + 1,
                        assigned | (1 << u.0) | (1 << v.0),
                        groups,
                        weight + w,
                    );
                    groups.pop();
                }
            }
            // Or leave u single.
            groups.push(Group::Single(u));
            self.recurse(idx + 1, assigned | (1 << u.0), groups, weight);
            groups.pop();
        }
    }

    let mut search = Search {
        n,
        order,
        edges,
        best_out,
        best_weight: 0,
        best: None,
    };
    search.recurse(0, 0, &mut Vec::new(), 0);
    let groups = search.best.ok_or(NetworkError::NotFeedforward)?;
    in_contracted_order(n, edges, groups)
}

/// Walk the topological order and pair each unassigned server with the
/// unassigned successor that shares its discipline and the most flows,
/// provided the contracted graph stays acyclic. A trial pair is checked
/// on `rep`, which maps every server to a representative: its own id
/// while unassigned, the pair's first server once paired.
fn greedy_chain(
    net: &Network,
    order: &[ServerId],
    edges: &[Transition],
) -> Result<Partition, NetworkError> {
    let n = net.servers().len();
    let set_rep = |rep: &mut [usize], s: ServerId, to: usize| {
        if let Some(slot) = rep.get_mut(s.0) {
            *slot = to;
        }
    };
    let mut rep: Vec<usize> = (0..n).collect();
    let mut assigned = vec![false; n];
    let is_free = |assigned: &[bool], s: ServerId| !assigned.get(s.0).copied().unwrap_or(true);
    let mut groups: Vec<Group> = Vec::new();

    for &u in order {
        if !is_free(&assigned, u) {
            continue;
        }
        // Prefer same-discipline pairs (mixed pairs cannot be analyzed
        // jointly), then the largest shared-flow count, then the lower id.
        let mut cands: Vec<(bool, usize, ServerId)> = transitions_from(edges, u)
            .iter()
            .filter(|&&((_, v), _)| is_free(&assigned, v))
            .map(|&((_, v), w)| (net.server(u).discipline == net.server(v).discipline, w, v))
            .collect();
        cands.sort_by(|x, y| y.0.cmp(&x.0).then(y.1.cmp(&x.1)).then(x.2.cmp(&y.2)));

        let paired = cands.into_iter().map(|(_, _, v)| v).find(|&v| {
            set_rep(&mut rep, v, u.0);
            let acyclic = contracted_order(edges, &rep, n).is_some();
            if !acyclic {
                set_rep(&mut rep, v, v.0);
            }
            acyclic
        });
        for s in std::iter::once(u).chain(paired) {
            if let Some(a) = assigned.get_mut(s.0) {
                *a = true;
            }
        }
        groups.push(match paired {
            Some(v) => Group::Pair(u, v),
            None => Group::Single(u),
        });
    }
    in_contracted_order(n, edges, groups)
}

/// `groups` (covering all `n` servers) in their contracted topological
/// order.
fn in_contracted_order(
    n: usize,
    edges: &[Transition],
    groups: Vec<Group>,
) -> Result<Partition, NetworkError> {
    let order = contracted_order(edges, &group_table(n, &groups), groups.len())
        .ok_or(NetworkError::NotFeedforward)?;
    Ok(Partition {
        groups: order
            .into_iter()
            .filter_map(|i| groups.get(i).copied())
            .collect(),
    })
}

/// Topological order of the nodes `0..nodes` of the graph that contracts
/// every transition `a → b` to `group_of[a] → group_of[b]` (dropping
/// self-loops), or `None` on a cycle. Ties go to the lower index, and
/// successors are released in index order.
fn contracted_order(edges: &[Transition], group_of: &[usize], nodes: usize) -> Option<Vec<usize>> {
    let group = |s: ServerId| group_of.get(s.0).copied();
    let mut contracted: Vec<(usize, usize)> = edges
        .iter()
        .filter_map(|&((a, b), _)| Some((group(a)?, group(b)?)))
        .filter(|&(ga, gb)| ga != gb)
        .collect();
    contracted.sort_unstable();
    contracted.dedup();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    let mut indeg = vec![0usize; nodes];
    for (a, b) in contracted {
        adj.get_mut(a)?.push(b);
        *indeg.get_mut(b)? += 1;
    }
    let mut queue: VecDeque<usize> = (0..nodes).filter(|&i| indeg.get(i) == Some(&0)).collect();
    let mut out = Vec::with_capacity(nodes);
    while let Some(u) = queue.pop_front() {
        out.push(u);
        for &v in adj.get(u)? {
            let d = indeg.get_mut(v)?;
            *d -= 1;
            if *d == 0 {
                queue.push_back(v);
            }
        }
    }
    (out.len() == nodes).then_some(out)
}

/// Classify the flows of a [`Group::Pair`] `(a, b)` into the paper's
/// Section-2 sets: `(S12, S1, S2)` — through both, through `a` only (then
/// leaving the subnetwork), and entering directly at `b`.
pub fn classify_pair_flows(
    net: &Network,
    a: ServerId,
    b: ServerId,
) -> (Vec<FlowId>, Vec<FlowId>, Vec<FlowId>) {
    let mut s12 = Vec::new();
    let mut s1 = Vec::new();
    let mut s2 = Vec::new();
    for (i, f) in net.flows().iter().enumerate() {
        let id = FlowId(i);
        let through_ab = f.route.windows(2).any(|w| w[0] == a && w[1] == b); // audit: allow(index, weight/assignment tables are sized to the server/group count of the same network)
        if through_ab {
            s12.push(id);
        } else if f.route.contains(&a) {
            s1.push(id);
        } else if f.route.contains(&b) {
            s2.push(id);
        }
    }
    (s12, s1, s2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{tandem, TandemOptions};
    use crate::{Flow, Network, Server};
    use dnc_num::{int, rat};
    use dnc_traffic::TrafficSpec;

    fn spec() -> TrafficSpec {
        TrafficSpec::paper_source(int(1), rat(1, 8))
    }

    #[test]
    fn singletons_cover_everything() {
        let t = tandem(4, int(1), rat(1, 8), TandemOptions::default());
        let p = partition(&t.net, PairingStrategy::Singletons).unwrap();
        assert_eq!(p.groups.len(), 4);
        assert_eq!(p.pair_count(), 0);
    }

    #[test]
    fn greedy_pairs_tandem_links() {
        let t = tandem(4, int(1), rat(1, 8), TandemOptions::default());
        let p = partition(&t.net, PairingStrategy::GreedyChain).unwrap();
        assert_eq!(p.pair_count(), 2);
        // Pairs follow the chain: (L0,L1), (L2,L3).
        assert_eq!(p.groups[0], Group::Pair(t.middle[0], t.middle[1]));
        assert_eq!(p.groups[1], Group::Pair(t.middle[2], t.middle[3]));
    }

    #[test]
    fn greedy_odd_chain_leaves_singleton() {
        let t = tandem(5, int(1), rat(1, 8), TandemOptions::default());
        let p = partition(&t.net, PairingStrategy::GreedyChain).unwrap();
        assert_eq!(p.pair_count(), 2);
        assert_eq!(p.groups.len(), 3);
        assert!(matches!(p.groups[2], Group::Single(_)));
    }

    #[test]
    fn pairing_refuses_contracted_cycle() {
        // a -> c -> b and a -> b: pairing (a, b) would create the
        // contracted cycle {a,b} -> {c} -> {a,b}.
        let mut net = Network::new();
        let a = net.add_server(Server::unit_fifo("a"));
        let b = net.add_server(Server::unit_fifo("b"));
        let c = net.add_server(Server::unit_fifo("c"));
        net.add_flow(Flow {
            name: "direct".into(),
            spec: spec(),
            route: vec![a, b],
            priority: 0,
        })
        .unwrap();
        net.add_flow(Flow {
            name: "detour".into(),
            spec: spec(),
            route: vec![a, c, b],
            priority: 0,
        })
        .unwrap();
        let p = partition(&net, PairingStrategy::GreedyChain).unwrap();
        // (a,b) must be rejected; (a,c) is legal.
        assert!(!p.groups.contains(&Group::Pair(a, b)));
        assert!(p.groups.contains(&Group::Pair(a, c)));
    }

    #[test]
    fn classify_pair_flows_tandem() {
        let t = tandem(3, int(1), rat(1, 8), TandemOptions::default());
        let (l0, l1) = (t.middle[0], t.middle[1]);
        let (s12, s1, s2) = classify_pair_flows(&t.net, l0, l1);
        // Through both: conn0 and lower0. Through L0 only: upper0.
        // Entering at L1: upper1 and lower1.
        assert_eq!(s12.len(), 2);
        assert!(s12.contains(&t.conn0) && s12.contains(&t.lower[0]));
        assert_eq!(s1, vec![t.upper[0]]);
        assert_eq!(s2.len(), 2);
        assert!(s2.contains(&t.upper[1]) && s2.contains(&t.lower[1]));
    }

    #[test]
    fn optimal_matches_greedy_on_tandem() {
        // On a plain chain the greedy pairing is already optimal.
        let t = tandem(6, int(1), rat(1, 8), TandemOptions::default());
        let g = partition(&t.net, PairingStrategy::GreedyChain).unwrap();
        let o = partition(&t.net, PairingStrategy::OptimalSmall).unwrap();
        assert_eq!(o.pair_count(), g.pair_count());
    }

    #[test]
    fn optimal_beats_greedy_on_forked_topology() {
        // a feeds b and c; greedy (most shared flows first) can commit to
        // the wrong partner. Build: 1 flow a->b, 1 flow a->c, 2 flows b->c
        // wait — make a clean case: greedy pairs (a,b) by tie-break, but
        // pairing (b,c) and leaving a single carries more weight.
        let mut net = Network::new();
        let a = net.add_server(Server::unit_fifo("a"));
        let b = net.add_server(Server::unit_fifo("b"));
        let c = net.add_server(Server::unit_fifo("c"));
        let mk = |name: &str, route: Vec<ServerId>| Flow {
            name: name.into(),
            spec: TrafficSpec::paper_source(int(1), rat(1, 32)),
            route,
            priority: 0,
        };
        // a->b weight 2, b->c weight 3: optimal = {(b,c), a}; a greedy
        // walk from the topological head pairs (a,b) first and leaves c.
        net.add_flow(mk("ab1", vec![a, b])).unwrap();
        net.add_flow(mk("ab2", vec![a, b])).unwrap();
        net.add_flow(mk("bc1", vec![b, c])).unwrap();
        net.add_flow(mk("bc2", vec![b, c])).unwrap();
        net.add_flow(mk("bc3", vec![b, c])).unwrap();
        let g = partition(&net, PairingStrategy::GreedyChain).unwrap();
        let o = partition(&net, PairingStrategy::OptimalSmall).unwrap();
        assert!(g.groups.contains(&Group::Pair(a, b)));
        assert!(o.groups.contains(&Group::Pair(b, c)));
    }

    #[test]
    fn optimal_respects_acyclicity() {
        // Same cycle trap as the greedy test: (a,b) would contract into a
        // cycle through c; optimal must avoid it too.
        let mut net = Network::new();
        let a = net.add_server(Server::unit_fifo("a"));
        let b = net.add_server(Server::unit_fifo("b"));
        let c = net.add_server(Server::unit_fifo("c"));
        for (name, route) in [("direct", vec![a, b]), ("detour", vec![a, c, b])] {
            net.add_flow(Flow {
                name: name.into(),
                spec: spec(),
                route,
                priority: 0,
            })
            .unwrap();
        }
        let o = partition(&net, PairingStrategy::OptimalSmall).unwrap();
        assert!(!o.groups.contains(&Group::Pair(a, b)));
    }

    #[test]
    fn partition_order_is_topological() {
        let t = tandem(6, int(1), rat(1, 8), TandemOptions::default());
        let p = partition(&t.net, PairingStrategy::GreedyChain).unwrap();
        // Group order must follow the chain.
        let firsts: Vec<ServerId> = p.groups.iter().map(|g| g.servers()[0]).collect();
        let mut sorted = firsts.clone();
        sorted.sort();
        assert_eq!(firsts, sorted);
    }
}
