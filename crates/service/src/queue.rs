//! Bounded request queue with deadline-aware load shedding.
//!
//! Served requests reach the churn engine through this queue, owned by
//! the one [`Batcher`](crate::batch::Batcher). Overload policy:
//!
//! * `Release` and `Query` requests are **never shed** — releases free
//!   capacity (shedding them makes overload worse) and queries are
//!   read-only and cheap.
//! * `Admit` requests compete for the remaining slots. When the queue
//!   is full, the *loosest-deadline* queued admit is compared against
//!   the incoming one: the incoming request displaces it only if the
//!   incoming deadline is strictly tighter; otherwise the incoming
//!   request itself is shed. Under overload the engine therefore keeps
//!   the admits that are hardest to serve later — shedding a tight
//!   deadline and keeping a loose one would throw away exactly the
//!   requests whose value decays fastest.
//!
//! Drain order stays FIFO: shedding changes *membership*, not order, so
//! a script replays deterministically.
//!
//! Every shed decision comes with a **deterministic retry-after hint**
//! (see [`ShedQueue::retry_after`]): a load-proportional base plus
//! seed-derived jitter, so honest clients back off long enough for the
//! queue to drain and do not stampede back in lockstep — yet the same
//! seed and shed history always produce the same hints, keeping scripted
//! runs and falsifiers bit-reproducible.
//!
//! The queue is generic over its item: the batcher queues requests still
//! attached to their reply channels, and the tests queue bare
//! [`Request`]s. Anything [`Sheddable`] works.

use crate::request::Request;
use dnc_num::Rat;
use std::collections::VecDeque;

/// How the queue inspects an item for the shedding policy.
pub trait Sheddable {
    /// `Some(deadline)` when the item is an admit competing for slots
    /// under that end-to-end deadline; `None` for unsheddable work
    /// (releases/queries), which always enqueues.
    fn shed_deadline(&self) -> Option<Rat>;
}

impl Sheddable for Request {
    fn shed_deadline(&self) -> Option<Rat> {
        match self {
            Request::Admit(a) => Some(a.deadline),
            Request::Release { .. } | Request::Query { .. } => None,
        }
    }
}

/// Why a request was dropped instead of enqueued.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Queue full and the incoming admit's deadline was no tighter than
    /// every queued admit's.
    IncomingLoosest,
    /// Queue full of releases/queries (nothing sheddable) — the admit
    /// had no slot to take.
    NoSheddableSlot,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::IncomingLoosest => {
                write!(f, "queue full; deadline looser than all queued admits")
            }
            ShedReason::NoSheddableSlot => {
                write!(f, "queue full of unsheddable requests")
            }
        }
    }
}

/// Outcome of [`ShedQueue::push`].
#[derive(Debug, PartialEq, Eq)]
pub enum Pushed<T = Request> {
    /// Enqueued without displacing anything.
    Enqueued,
    /// Enqueued; the named queued admit was shed to make room.
    Displaced(T),
    /// The incoming request itself was shed (returned to the caller).
    Shed(T, ShedReason),
}

/// A bounded FIFO with deadline-aware shedding of admit requests.
#[derive(Debug)]
pub struct ShedQueue<T = Request> {
    items: VecDeque<T>,
    capacity: usize,
    seed: u64,
    sheds: u64,
}

/// Default seed for [`ShedQueue::new`] — any fixed value works; shared
/// so that two queues given the same shed history hint identically.
pub const DEFAULT_RETRY_SEED: u64 = 0x5EED_0BAC_C0FF_EE01;

impl<T: Sheddable> ShedQueue<T> {
    /// A queue holding at most `capacity` pending requests
    /// (`capacity >= 1`; zero is clamped to one), with the default
    /// retry-after seed.
    pub fn new(capacity: usize) -> ShedQueue<T> {
        ShedQueue::with_seed(capacity, DEFAULT_RETRY_SEED)
    }

    /// Like [`ShedQueue::new`] with an explicit retry-after jitter seed,
    /// so deployments can decorrelate their backoff hints while staying
    /// individually deterministic.
    pub fn with_seed(capacity: usize, seed: u64) -> ShedQueue<T> {
        ShedQueue {
            items: VecDeque::new(),
            capacity: capacity.max(1),
            seed,
            sheds: 0,
        }
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pop the oldest queued request.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Offer a request. Releases/queries always fit (they may push the
    /// queue past `capacity` by at most the number of concurrently
    /// pending releases — bounded in practice by the admitted set);
    /// admits obey the shedding policy above.
    pub fn push(&mut self, req: T) -> Pushed<T> {
        let Some(incoming_deadline) = req.shed_deadline() else {
            self.items.push_back(req);
            return Pushed::Enqueued;
        };
        if self.items.len() < self.capacity {
            self.items.push_back(req);
            return Pushed::Enqueued;
        }
        // Find the loosest-deadline queued admit.
        let loosest = self
            .items
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.shed_deadline().map(|d| (i, d)))
            .max_by(|(_, a), (_, b)| a.cmp(b));
        match loosest {
            Some((idx, loosest_deadline)) if incoming_deadline < loosest_deadline => {
                // Displace: membership changes, order of survivors does not.
                match self.items.remove(idx) {
                    Some(victim) => {
                        self.items.push_back(req);
                        Pushed::Displaced(victim)
                    }
                    None => Pushed::Shed(req, ShedReason::NoSheddableSlot),
                }
            }
            Some(_) => Pushed::Shed(req, ShedReason::IncomingLoosest),
            None => Pushed::Shed(req, ShedReason::NoSheddableSlot),
        }
    }

    /// The retry-after hint (in deadline ticks) to attach to the next
    /// SHED response. Deterministic and seed-derived: the base grows
    /// with the current queue depth (the more backed up we are, the
    /// longer the wait), and per-shed jitter of up to half the base —
    /// drawn from a splitmix64 stream over `(seed, shed counter)` —
    /// spreads retries out so shed clients do not return in lockstep.
    /// The same seed and shed history always yield the same hints.
    pub fn retry_after(&mut self) -> u64 {
        let base = 2 * self.items.len() as u64 + 2;
        let roll = splitmix64(self.seed ^ self.sheds.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.sheds = self.sheds.wrapping_add(1);
        base + roll % (base / 2 + 1)
    }

    /// How many retry-after hints have been issued (== sheds answered).
    pub fn sheds(&self) -> u64 {
        self.sheds
    }
}

/// splitmix64's finalizer: a full-avalanche 64-bit mixer, dependency-
/// free and plenty for de-correlating backoff jitter (not a CSPRNG).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::AdmitRequest;
    use dnc_net::ServerId;
    use dnc_num::{int, Rat};

    fn admit(name: &str, deadline: Rat) -> Request {
        Request::Admit(AdmitRequest {
            name: name.into(),
            route: vec![ServerId(0)],
            buckets: vec![(int(1), int(1))],
            peak: None,
            priority: 0,
            deadline,
        })
    }

    fn names(q: &ShedQueue) -> Vec<String> {
        q.items
            .iter()
            .map(|r| match r {
                Request::Admit(a) => a.name.clone(),
                Request::Release { name } => format!("-{name}"),
                Request::Query { name } => format!("?{}", name.clone().unwrap_or_default()),
            })
            .collect()
    }

    #[test]
    fn fifo_below_capacity() {
        let mut q = ShedQueue::new(4);
        assert_eq!(q.push(admit("a", int(5))), Pushed::Enqueued);
        assert_eq!(q.push(admit("b", int(1))), Pushed::Enqueued);
        assert_eq!(names(&q), ["a", "b"]);
        assert!(matches!(q.pop(), Some(Request::Admit(a)) if a.name == "a"));
    }

    #[test]
    fn tighter_incoming_displaces_loosest_queued_admit() {
        let mut q = ShedQueue::new(2);
        q.push(admit("loose", int(100)));
        q.push(admit("mid", int(10)));
        let out = q.push(admit("tight", int(1)));
        assert!(
            matches!(&out, Pushed::Displaced(Request::Admit(a)) if a.name == "loose"),
            "{out:?}"
        );
        // Survivor order is unchanged; the newcomer goes to the back.
        assert_eq!(names(&q), ["mid", "tight"]);
    }

    #[test]
    fn looser_incoming_is_shed() {
        let mut q = ShedQueue::new(2);
        q.push(admit("a", int(1)));
        q.push(admit("b", int(2)));
        assert!(
            matches!(
                q.push(admit("c", int(2))),
                Pushed::Shed(Request::Admit(a), ShedReason::IncomingLoosest) if a.name == "c"
            ),
            "equal deadline must not displace (strictly tighter only)"
        );
        assert_eq!(names(&q), ["a", "b"]);
    }

    #[test]
    fn releases_and_queries_are_never_shed() {
        let mut q = ShedQueue::new(1);
        q.push(admit("a", int(1)));
        assert_eq!(
            q.push(Request::Release { name: "a".into() }),
            Pushed::Enqueued
        );
        assert_eq!(q.push(Request::Query { name: None }), Pushed::Enqueued);
        assert_eq!(q.len(), 3, "unsheddable requests may exceed capacity");
    }

    #[test]
    fn admit_cannot_displace_unsheddable_requests() {
        let mut q = ShedQueue::new(1);
        q.push(Request::Release { name: "x".into() });
        assert!(matches!(
            q.push(admit("a", int(1))),
            Pushed::Shed(_, ShedReason::NoSheddableSlot)
        ));
    }

    #[test]
    fn retry_after_is_deterministic_in_seed_and_shed_history() {
        let mut a: ShedQueue = ShedQueue::with_seed(2, 7);
        let mut b: ShedQueue = ShedQueue::with_seed(2, 7);
        a.push(admit("x", int(1)));
        b.push(admit("x", int(1)));
        let ha: Vec<u64> = (0..6).map(|_| a.retry_after()).collect();
        let hb: Vec<u64> = (0..6).map(|_| b.retry_after()).collect();
        assert_eq!(ha, hb, "same seed + history must hint identically");
        let mut c: ShedQueue = ShedQueue::with_seed(2, 8);
        c.push(admit("x", int(1)));
        let hc: Vec<u64> = (0..6).map(|_| c.retry_after()).collect();
        assert_ne!(ha, hc, "different seeds must decorrelate the jitter");
        assert_eq!(a.sheds(), 6);
    }

    #[test]
    fn retry_after_grows_with_load_and_jitter_stays_bounded() {
        let mut q: ShedQueue = ShedQueue::with_seed(64, 3);
        let mut shallow = ShedQueue::with_seed(64, 3);
        shallow.push(admit("only", int(5)));
        for i in 0..16 {
            q.push(admit(&format!("f{i}"), int(5)));
        }
        let base = 2 * q.len() as u64 + 2;
        let shallow_cap = {
            let b = 2 * shallow.len() as u64 + 2;
            b + b / 2
        };
        for _ in 0..32 {
            let h = q.retry_after();
            assert!(
                h >= base && h <= base + base / 2,
                "{h} outside the [base, 1.5*base] band at depth 16"
            );
            assert!(h > shallow_cap, "deep-queue hints must exceed shallow ones");
        }
    }

    #[test]
    fn queue_is_generic_over_sheddable_items() {
        struct Tagged(u32, Option<Rat>);
        impl Sheddable for Tagged {
            fn shed_deadline(&self) -> Option<Rat> {
                self.1
            }
        }
        let mut q: ShedQueue<Tagged> = ShedQueue::new(1);
        assert!(matches!(q.push(Tagged(1, Some(int(5)))), Pushed::Enqueued));
        match q.push(Tagged(2, Some(int(1)))) {
            Pushed::Displaced(Tagged(id, _)) => assert_eq!(id, 1, "loosest item displaced"),
            _ => panic!("tighter incoming item must displace the loose one"),
        }
        // Unsheddable items (deadline None) always fit, even past capacity.
        assert!(matches!(q.push(Tagged(3, None)), Pushed::Enqueued));
        assert_eq!(q.len(), 2);
    }
}
