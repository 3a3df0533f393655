//! The churn engine's request vocabulary.

use dnc_net::ServerId;
use dnc_num::Rat;

/// A connection admission request: the traffic contract, the route, and
/// the end-to-end deadline to certify. Once certified it is also the
/// committed record: the journal's [`Op::Admit`](crate::journal::Op),
/// a snapshot's admit lines and the engine's admitted list hold it
/// as is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdmitRequest {
    /// Connection name — the engine's identity for later release
    /// (non-empty, no whitespace, unique among live flows).
    pub name: String,
    /// Route as server indices into the base network.
    pub route: Vec<ServerId>,
    /// Token buckets `(σ, ρ)`; at least one, non-negative.
    pub buckets: Vec<(Rat, Rat)>,
    /// Optional peak-rate cap (positive).
    pub peak: Option<Rat>,
    /// Priority for static-priority servers (lower = more urgent).
    pub priority: u8,
    /// End-to-end deadline, in ticks.
    pub deadline: Rat,
}

/// One request to the churn engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Admit a new connection if every affected deadline certifies.
    Admit(AdmitRequest),
    /// Release a previously admitted connection by name.
    Release {
        /// The name given at admission.
        name: String,
    },
    /// Read-only: report the admitted set (or one connection).
    Query {
        /// `None` lists everything.
        name: Option<String>,
    },
}
