#![warn(missing_docs)]

//! # dnc-core — end-to-end delay analysis for feedforward FIFO networks
//!
//! This crate implements the three delay-analysis algorithms compared in
//! *New Delay Analysis in High Speed Networks* (Li, Bettati, Zhao — ICPP
//! 1999), plus the machinery they share:
//!
//! * [`decomposed`] — **Algorithm Decomposed** (Cruz): per-server local
//!   worst-case delays summed along each route, with per-connection output
//!   characterization `b'(I) = b(I + d_local)` propagated hop by hop. It
//!   runs as Integrated over the singleton partition, so one sequential
//!   analysis loop serves both.
//! * [`service_curve`] — **Algorithm Service Curve** (induced variant): a
//!   per-connection FIFO service curve `β(t) = [C·t − α_cross(t)]⁺` at each
//!   server, min-plus convolved into a network service curve; the delay is
//!   the horizontal deviation from the source arrival curve.
//! * [`integrated`] — **Algorithm Integrated** (the paper's contribution):
//!   partition the network into subnetworks of at most two servers
//!   (`dnc_net::pairing`), bound each pair jointly with the two-server
//!   theorem ([`integrated::pair_delay_bound`]), and run the decomposition
//!   recipe over pairs.
//! * [`exact`] — the paper's Section-2 Lemmas 1–4 applied to *concrete*
//!   arrival functions: exact fluid FIFO outputs via Reich's formula
//!   (`W = G ⊗ λ_C`), used as ground truth in validation tests.
//! * [`sp`] — static-priority local analysis (the paper's announced
//!   extension, following its companion work on SP ATM networks).
//! * [`closed_form`] — hand-derived closed forms for the tandem topology,
//!   cross-checking the generic curve pipeline.
//! * [`admission`] — connection admission control built on any of the
//!   analyses (the paper's motivating application).
//!
//! All three algorithms implement [`DelayAnalysis`] and produce an
//! [`AnalysisReport`] with exact rational per-connection bounds.
//!
//! No analysis takes or owns a cache. Each memoized computation keeps
//! one process-global table beside its function — the pair bound in
//! [`integrated`], [`fifo_family::family_curve`], and `dnc_curves`'
//! conv and deviations — keyed by every input and no network
//! coordinate. Every
//! call path (a one-shot [`DelayAnalysis::analyze`], incremental
//! re-certification, the admission engine) shares those tables, and a
//! hit is bit-identical to recomputation; under `debug-invariants`
//! every table checks its answers against the uncached computation
//! (DESIGN.md §13.1).

mod error;
mod fifo;
mod propagate;
mod report;

pub mod admission;
pub mod closed_form;
pub mod cyclic;
pub mod decomposed;
pub mod edf;
pub mod exact;
pub mod fifo_family;
pub mod gps;
pub mod guard;
pub mod integrated;
pub mod resilient;
pub mod service_curve;
pub mod sp;

pub use error::AnalysisError;
pub use fifo::{aggregate_curve, local_delay, propagate_output, OutputCap};
pub use report::{AnalysisReport, FlowReport};

use dnc_net::Network;

/// A complete end-to-end delay analysis algorithm.
pub trait DelayAnalysis {
    /// Short human-readable algorithm name (used in reports and CSV).
    fn name(&self) -> &'static str;

    /// Analyze the whole network, producing per-connection delay bounds.
    fn analyze(&self, net: &Network) -> Result<AnalysisReport, AnalysisError>;
}
