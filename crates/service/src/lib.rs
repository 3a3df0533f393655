//! Durable online admission: the churn engine.
//!
//! The paper's analysis exists to power admission control — a
//! bounded-delay service admits a connection only when the delay
//! analysis certifies every affected deadline. This crate is the
//! robust online layer over that test: a long-lived engine processing
//! `Admit`/`Release`/`Query` requests against a live [`dnc_net::Network`]
//! with three guarantees:
//!
//! * **Transactional mutation** ([`engine`]): every mutation is staged
//!   on a clone, certified by the [`dnc_core::resilient::ResilientRunner`]
//!   fallback chain, and committed or rolled back atomically.
//! * **Durability** ([`journal`], [`snapshot`]): committed operations
//!   hit a checksummed write-ahead journal before acknowledgment;
//!   periodic snapshots compact the journal so recovery replays only
//!   the tail past the newest snapshot; recovery truncates torn tails
//!   and falls back past torn snapshots. All write-side I/O runs
//!   through the [`fs`] backend trait, so the torture falsifier can
//!   inject storage faults at every enumerated syscall site; a failed
//!   append or publish poisons the journal handle and the server
//!   fail-stops rather than acknowledge an undurable operation.
//! * **Overload control** ([`queue`], [`batch`]): served requests,
//!   scripted or from a socket, reach the engine through the
//!   [`Batcher`]'s one bounded queue, which sheds the loosest-deadline
//!   admits first; certification runs under per-request budgets with
//!   one retry at a cheaper analysis tier.

#![warn(missing_docs)]

pub mod batch;
pub mod engine;
pub mod fs;
pub mod journal;
pub mod queue;
pub mod request;
pub mod server;
pub mod snapshot;

pub use batch::{Batcher, Job, RenderFn, Work, FAIL_STOP_PREFIX};
pub use engine::{ChurnEngine, EngineConfig, EngineError, EngineStats, RecoveryInfo, Response};
pub use fs::{FaultFs, FaultKind, RealFs, StorageFs, StorageHandle, FAULT_KINDS};
pub use journal::{Journal, JournalError, Op, Replay, TailDefect};
pub use queue::{Pushed, ShedQueue, ShedReason, Sheddable};
pub use request::{AdmitRequest, Request};
pub use server::{DecodeFn, ServerConfig, ServerError, ServerReport};
pub use snapshot::{RecoverError, Recovered, Snapshot, SnapshotError};
