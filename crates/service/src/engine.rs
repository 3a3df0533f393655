//! The churn engine: transactional, durable online admission.
//!
//! [`ChurnEngine::process_batch`] is the one commit path. Served
//! requests, scripted and from a socket alike, reach it through the
//! [`Batcher`](crate::batch::Batcher)'s bounded shed queue, which hands
//! surviving requests over in FIFO chunks.
//!
//! Every `Admit`/`Release` is processed transactionally: the mutation
//! is applied to a **staged clone** of the live network, every affected
//! deadline is re-certified on the clone by a [`ResilientRunner`]
//! (Integrated first; a budget-breached pass degrades once to the
//! cheaper Decomposed tier — the retry-with-decay policy — before the
//! request is rejected with an explicit reason), and only then is the
//! clone swapped in. A failed certification never leaves the topology
//! half-mutated: rollback is dropping the clone.
//!
//! Durability: when a journal is attached, the committed operation is
//! appended and flushed **before** the engine acknowledges it.
//! [`ChurnEngine::open`] replays an existing journal to reconstruct the
//! exact committed state, truncating any torn tail. With
//! [`EngineConfig::snapshot_every`] set, the engine periodically
//! publishes a crash-safe snapshot and rotates the journal (see
//! [`crate::snapshot`]), so recovery folds the newest valid snapshot
//! and replays only the journal tail past it. Any storage failure
//! poisons the journal handle: the engine returns
//! [`JournalError::Poisoned`] on every later commit attempt and must
//! fail-stop rather than acknowledge an undurable operation.

use crate::fs::StorageHandle;
use crate::journal::{Journal, JournalError, Op, TailDefect};
use crate::request::{AdmitRequest, Request};
use crate::snapshot::{self, RecoverError, Snapshot};
use dnc_core::admission::Deadline;
use dnc_core::guard::Guard;
use dnc_core::integrated::GroupTrace;
use dnc_core::resilient::{FastReport, Outcome, ResilientReport, ResilientRunner, Tier};
use dnc_net::{Flow, FlowId, Network, NetworkError, ServerId};
use dnc_num::Rat;
use dnc_traffic::{TokenBucket, TrafficSpec};
use std::fmt;
use std::path::Path;

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Per-request analysis budget (deadline, op/segment/iteration
    /// caps), shared by the whole certification chain of one request.
    pub guard: Guard,
    /// Ignored: the one pending-request queue is the
    /// [`Batcher`](crate::batch::Batcher)'s, sized by its caller. Kept
    /// only so that callers which still set it build.
    pub queue_capacity: usize,
    /// Ignored: certification is sequential. Kept only so that callers
    /// which still set it build.
    pub workers: usize,
    /// Re-certify incrementally off the previous accepted analysis
    /// (splicing its bounds for unaffected pairing groups). `false` runs
    /// every certification from scratch — the baseline the throughput
    /// harness compares against. Either way the analysis memo tables are
    /// the process-wide ones every run consults.
    pub incremental: bool,
    /// Publish a snapshot and rotate the journal every N committed
    /// operations (`None` disables compaction). Bounds recovery cost by
    /// churn since the last snapshot instead of lifetime history.
    pub snapshot_every: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            guard: Guard::interactive(),
            queue_capacity: 64,
            workers: 1,
            incremental: true,
            snapshot_every: None,
        }
    }
}

/// Counters the engine maintains about itself (mirrored to telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Committed operations (admits + releases).
    pub commits: u64,
    /// Staged mutations discarded after a failed certification.
    pub rollbacks: u64,
    /// Certifications that breached budget at the Integrated tier and
    /// were answered by the cheaper Decomposed retry.
    pub retries: u64,
    /// Journal recoveries performed.
    pub recoveries: u64,
    /// Operations replayed from the journal during recovery.
    pub recovered_ops: u64,
    /// Group commits: batches whose committed ops shared one journal
    /// record and one fsync (see [`ChurnEngine::process_batch`]).
    pub group_commits: u64,
    /// Committed operations that rode in a group commit.
    pub batched_ops: u64,
    /// Snapshots published (each followed by a journal rotation).
    pub snapshots: u64,
    /// Pairing units Integrated certifications computed: the dirty units
    /// of an incremental answer, every unit of a full pass. A
    /// deterministic measure of certification work (wall time is not).
    pub units_computed: u64,
}

/// What a recovery found in the journal and snapshot directory.
#[derive(Clone, Debug)]
pub struct RecoveryInfo {
    /// Committed operations replayed from the journal tail (past the
    /// snapshot, if one was folded), in order.
    pub ops_replayed: usize,
    /// Torn/corrupt tail that was truncated, with the pre-truncation
    /// file length.
    pub tail: Option<(TailDefect, u64)>,
    /// Byte length of the valid journal prefix.
    pub valid_len: u64,
    /// `(generation, sequence)` of the snapshot recovery folded, if
    /// any.
    pub snapshot: Option<(u64, u64)>,
    /// Snapshots passed over as torn, corrupt, or out of range.
    pub snapshots_skipped: usize,
    /// Total committed operations across the whole history (snapshot
    /// plus tail).
    pub committed_seq: u64,
}

/// One admitted-connection row, as reported by `Query`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryEntry {
    /// The connection's name.
    pub name: String,
    /// Its current flow id in the live network.
    pub flow: FlowId,
    /// The certified end-to-end deadline.
    pub deadline: Rat,
}

/// The engine's answer to one request.
#[derive(Clone, Debug)]
pub enum Response {
    /// The connection was admitted; every affected deadline certified.
    Admitted {
        /// Request name.
        name: String,
        /// Flow id in the live network.
        flow: FlowId,
        /// The certified end-to-end bound for the new connection.
        bound: Rat,
        /// The deadline it was certified against.
        deadline: Rat,
        /// The tier that produced the certificate.
        tier: Tier,
        /// True when the Integrated pass breached its budget and the
        /// Decomposed retry produced the certificate.
        retried: bool,
    },
    /// The admit was rejected (state unchanged); the reason says why.
    Rejected {
        /// Request name.
        name: String,
        /// Explicit reason: validation failure, deadline violations, or
        /// the full degradation chain summary on budget exhaustion.
        reason: String,
    },
    /// The connection was released and the remaining set re-certified.
    Released {
        /// The released connection's name.
        name: String,
    },
    /// The release was refused (state unchanged).
    ReleaseFailed {
        /// Request name.
        name: String,
        /// Why (unknown name, or the shrunk network failed to certify).
        reason: String,
    },
    /// The admitted set (read-only).
    Queried {
        /// One row per matching admitted connection.
        entries: Vec<QueryEntry>,
    },
    /// The request was dropped by the overload policy before processing.
    Shed {
        /// Request name.
        name: String,
        /// The shed reason.
        reason: String,
        /// Deterministic, seed-derived retry-after hint in deadline
        /// ticks: load-proportional base plus jitter, so honest clients
        /// back off without stampeding back together (see
        /// [`ShedQueue::retry_after`](crate::queue::ShedQueue::retry_after)).
        retry_after: u64,
    },
}

impl Response {
    /// True for answers that changed engine state.
    pub fn committed(&self) -> bool {
        matches!(self, Response::Admitted { .. } | Response::Released { .. })
    }
}

/// Hard engine failures — distinct from per-request rejections, which
/// are normal [`Response`]s.
#[derive(Debug)]
pub enum EngineError {
    /// Journal I/O or decode failure: durability can no longer be
    /// guaranteed, so the operation was **not** committed.
    Journal(JournalError),
    /// The base network or base deadlines are structurally invalid.
    Base(NetworkError),
    /// A journal replay did not apply cleanly (the journal belongs to a
    /// different base network, or is internally inconsistent).
    Recovery(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Journal(e) => write!(f, "journal failure: {e}"),
            EngineError::Base(e) => write!(f, "invalid base network: {e}"),
            EngineError::Recovery(m) => write!(f, "recovery failed: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<JournalError> for EngineError {
    fn from(e: JournalError) -> EngineError {
        EngineError::Journal(e)
    }
}

/// The online churn engine. See the module docs for the transaction and
/// durability contracts.
#[derive(Debug)]
pub struct ChurnEngine {
    net: Network,
    base_flows: usize,
    base_deadlines: Vec<Deadline>,
    admitted: Vec<AdmitRequest>,
    journal: Option<Journal>,
    /// Committed operations across the whole history (snapshot + live).
    committed_seq: u64,
    /// Sequence of the last published snapshot (0 = none).
    last_snapshot_seq: u64,
    /// Current snapshot generation (0 = none yet; next publish is +1).
    gen: u64,
    snapshot_every: Option<u64>,
    runner: ResilientRunner,
    stats: EngineStats,
    /// The group trace of the last analysis accepted for the live
    /// network — the splice base for incremental re-certification.
    /// Always in sync with `net`: refreshed on commit, kept on rollback
    /// (the live network did not change), never set after replay-only
    /// mutations (recovery skips certification entirely).
    trace: Option<GroupTrace>,
    incremental: bool,
}

impl ChurnEngine {
    /// A purely in-memory engine over `base` (its flows and deadlines
    /// are the pre-existing, uncontested state — never released).
    pub fn new(
        base: Network,
        base_deadlines: Vec<Deadline>,
        config: EngineConfig,
    ) -> Result<ChurnEngine, EngineError> {
        for d in &base_deadlines {
            if d.flow.0 >= base.flows().len() {
                return Err(EngineError::Base(NetworkError::UnknownFlow(d.flow)));
            }
        }
        Ok(ChurnEngine {
            base_flows: base.flows().len(),
            net: base,
            base_deadlines,
            admitted: Vec::new(),
            journal: None,
            committed_seq: 0,
            last_snapshot_seq: 0,
            gen: 0,
            snapshot_every: config.snapshot_every,
            runner: ResilientRunner::new(config.guard.clone()),
            stats: EngineStats::default(),
            trace: None,
            incremental: config.incremental,
        })
    }

    /// An engine journaling to `path`. A fresh file starts an empty
    /// engine; an existing journal is **recovered**: its committed
    /// operations are replayed (structurally, no re-certification —
    /// they were certified when committed), a torn tail is truncated,
    /// and subsequent commits append after the valid prefix.
    pub fn open(
        base: Network,
        base_deadlines: Vec<Deadline>,
        config: EngineConfig,
        path: &Path,
    ) -> Result<(ChurnEngine, RecoveryInfo), EngineError> {
        ChurnEngine::open_with(base, base_deadlines, config, path, crate::fs::real())
    }

    /// [`ChurnEngine::open`] on an explicit storage backend — the
    /// torture falsifier's entry point for injecting disk faults.
    pub fn open_with(
        base: Network,
        base_deadlines: Vec<Deadline>,
        config: EngineConfig,
        path: &Path,
        fs: StorageHandle,
    ) -> Result<(ChurnEngine, RecoveryInfo), EngineError> {
        let _span = dnc_telemetry::span("service.recover");
        let mut engine = ChurnEngine::new(base, base_deadlines, config)?;
        let plan = snapshot::recover(path, fs).map_err(|e| match e {
            RecoverError::Journal(j) => EngineError::Journal(j),
            RecoverError::Layout(m) => EngineError::Recovery(m),
        })?;
        let snapshot_loaded = plan.snapshot.as_ref().map(|s| (s.gen, s.seq));
        if let Some(s) = &plan.snapshot {
            if s.base_flows != engine.base_flows {
                return Err(EngineError::Recovery(format!(
                    "snapshot was taken over {} base flow(s), this engine has {}",
                    s.base_flows, engine.base_flows
                )));
            }
            for a in &s.admits {
                engine.apply_replayed(&Op::Admit(a.clone())).map_err(|m| {
                    EngineError::Recovery(format!("folding snapshot admit {:?}: {m}", a.name))
                })?;
            }
        }
        let ops_replayed = plan.tail_ops.len();
        for op in &plan.tail_ops {
            engine
                .apply_replayed(op)
                .map_err(|m| EngineError::Recovery(format!("replaying {:?}: {m}", op.encode())))?;
        }
        engine.journal = Some(plan.journal);
        engine.committed_seq = plan.committed_seq;
        engine.last_snapshot_seq = snapshot_loaded.map_or(0, |(_, seq)| seq);
        engine.gen = plan.gen;
        if ops_replayed > 0 || plan.tail.is_some() || plan.snapshot.is_some() {
            engine.stats.recoveries += 1;
            dnc_telemetry::counter("service.recoveries", 1);
        }
        engine.stats.recovered_ops += ops_replayed as u64;
        Ok((
            engine,
            RecoveryInfo {
                ops_replayed,
                tail: plan.tail,
                valid_len: plan.valid_len,
                snapshot: snapshot_loaded,
                snapshots_skipped: plan.snapshots_skipped,
                committed_seq: plan.committed_seq,
            },
        ))
    }

    /// Apply a journaled op structurally (recovery path: certification
    /// already happened when the op was committed).
    fn apply_replayed(&mut self, op: &Op) -> Result<(), String> {
        match op {
            Op::Admit(a) => {
                let flow = build_flow(a)?;
                self.net.add_flow(flow).map_err(|e| e.to_string())?;
                self.admitted.push(a.clone());
                Ok(())
            }
            Op::Release { name } => {
                let idx = self
                    .admitted
                    .iter()
                    .position(|a| a.name == *name)
                    .ok_or_else(|| format!("release of unknown connection {name:?}"))?;
                self.net
                    .remove_flow(FlowId(self.base_flows + idx))
                    .map_err(|e| e.to_string())?;
                self.admitted.remove(idx);
                Ok(())
            }
        }
    }

    /// The live network (base + admitted flows).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Engine self-counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Currently admitted connections, in admission order.
    pub fn admitted(&self) -> impl Iterator<Item = QueryEntry> + '_ {
        self.admitted.iter().enumerate().map(|(i, a)| QueryEntry {
            name: a.name.clone(),
            flow: FlowId(self.base_flows + i),
            deadline: a.deadline,
        })
    }

    /// Every deadline the engine must keep certified, in the live
    /// network's id space.
    pub fn deadlines(&self) -> Vec<Deadline> {
        let mut ds = self.base_deadlines.clone();
        ds.extend(self.admitted.iter().enumerate().map(|(i, a)| Deadline {
            flow: FlowId(self.base_flows + i),
            deadline: a.deadline,
        }));
        ds
    }

    /// Process one request: a group commit of one (see
    /// [`ChurnEngine::process_batch`]), so a committed op gets its own
    /// journal record.
    ///
    /// # Errors
    /// Only journal failures are errors; rejections are [`Response`]s.
    pub fn process(&mut self, req: Request) -> Result<Response, EngineError> {
        // `process_batch` answers every request, in order.
        Ok(self.process_batch(vec![req])?.swap_remove(0))
    }

    /// Process a batch of requests under **group commit**: each request
    /// is staged and certified in arrival order against the evolving
    /// in-memory state, every committed op of the batch lands in *one*
    /// journal record flushed by *one* fsync, and only after that fsync
    /// are the responses produced — acknowledged together, exactly as
    /// they were ordered. A crash therefore preserves the whole
    /// acknowledged batch or none of it (the journal record is atomic
    /// on replay), and acknowledged commits are never reordered:
    /// journal order == staging order == response order.
    ///
    /// # Errors
    /// A journal failure fails the whole batch with **nothing
    /// acknowledged**. The error is fatal to the durability contract and
    /// the engine must be dropped (in-memory state may already include
    /// the batch's staged commits, but no caller ever saw them
    /// acknowledged).
    pub fn process_batch(&mut self, reqs: Vec<Request>) -> Result<Vec<Response>, EngineError> {
        let _span = dnc_telemetry::span("service.batch");
        let mut acks = Vec::with_capacity(reqs.len());
        let mut ops = Vec::new();
        for req in reqs {
            match self.stage(req) {
                Staged::Done(ack) => acks.push(ack),
                Staged::Commit {
                    op,
                    net,
                    trace,
                    ack,
                } => {
                    self.apply_commit(&op, net, trace);
                    ops.push(*op);
                    acks.push(ack);
                }
            }
        }
        if let Some(j) = self.journal.as_mut() {
            j.append_batch(&ops)?;
        }
        if !ops.is_empty() {
            self.stats.group_commits += 1;
            self.stats.batched_ops += ops.len() as u64;
            dnc_telemetry::counter("service.group_commits", 1);
            dnc_telemetry::counter("service.batched_ops", ops.len() as u64);
            self.maybe_snapshot()?;
        }
        Ok(acks.into_iter().map(Ack::into_response).collect())
    }

    /// Certify one request against the current state without mutating
    /// it: the returned [`Staged::Commit`] carries everything a commit
    /// needs (the op to journal, the staged network/trace to swap in,
    /// and the acknowledgment to hand back **after** the journal fsync).
    fn stage(&mut self, req: Request) -> Staged {
        match req {
            Request::Admit(r) => self.stage_admit(r),
            Request::Release { name } => self.stage_release(&name),
            Request::Query { name } => Staged::Done(self.query_ack(name.as_deref())),
        }
    }

    /// Swap a staged, journaled commit into the live state.
    fn apply_commit(&mut self, op: &Op, net: Network, trace: Option<GroupTrace>) {
        match op {
            Op::Admit(a) => self.admitted.push(a.clone()),
            Op::Release { name } => {
                if let Some(idx) = self.admitted.iter().position(|a| a.name == *name) {
                    self.admitted.remove(idx);
                }
            }
        }
        self.net = net;
        self.trace = trace;
        self.committed_seq += 1;
        self.stats.commits += 1;
        dnc_telemetry::counter("service.commits", 1);
    }

    /// Publish a snapshot and rotate the journal once enough ops have
    /// committed since the last one. Called after the commit's journal
    /// record is durable, so a snapshot never precedes its own history.
    ///
    /// # Errors
    /// A failed publish or rotation poisons the journal: the already-
    /// journaled ops stay durable and recoverable, but the engine must
    /// fail-stop (the caller surfaces the error and shuts down).
    fn maybe_snapshot(&mut self) -> Result<(), EngineError> {
        let Some(every) = self.snapshot_every else {
            return Ok(());
        };
        if self.committed_seq - self.last_snapshot_seq < every.max(1) {
            return Ok(());
        }
        let Some(j) = self.journal.as_mut() else {
            return Ok(());
        };
        let _span = dnc_telemetry::span("service.snapshot");
        let gen = self.gen + 1;
        let snap = Snapshot {
            gen,
            seq: self.committed_seq,
            base_flows: self.base_flows,
            admits: self.admitted.clone(),
        };
        let fs = j.storage();
        let path = j.path().to_path_buf();
        if let Err(e) = snapshot::publish_snapshot(fs.as_ref(), &path, &snap) {
            let why = format!("snapshot publish failed: {e}");
            j.poison(&why);
            return Err(EngineError::Journal(JournalError::Poisoned(why)));
        }
        j.rotate(gen, self.committed_seq)?;
        snapshot::prune_snapshots(fs.as_ref(), &path, gen);
        self.gen = gen;
        self.last_snapshot_seq = self.committed_seq;
        self.stats.snapshots += 1;
        dnc_telemetry::counter("service.snapshots", 1);
        Ok(())
    }

    /// Total committed operations across the whole history (snapshot
    /// plus everything journaled since).
    pub fn committed_seq(&self) -> u64 {
        self.committed_seq
    }

    fn query_ack(&self, name: Option<&str>) -> Ack {
        let entries = self
            .admitted()
            .filter(|e| name.is_none_or(|n| e.name == n))
            .collect();
        Ack::Queried { entries }
    }

    /// Run the guarded certification chain on a staged network. When
    /// incremental, and given a splice base, only the pairing groups
    /// reachable from the mutation's `seed` servers are re-analyzed;
    /// otherwise every run is from scratch.
    fn certify(&self, staged: &Network, prev: Option<(&GroupTrace, &[ServerId])>) -> FastReport {
        let prev = if self.incremental { prev } else { None };
        let fast = self.runner.analyze_fast(staged, prev);
        if let Some((dirty, _total)) = fast.dirty_units {
            dnc_telemetry::counter("churn.dirty_groups", dirty as u64);
        }
        fast
    }

    fn stage_admit(&mut self, req: AdmitRequest) -> Staged {
        let _span = dnc_telemetry::span("service.admit");
        let name = req.name.clone();
        if let Err(reason) = self.validate_admit(&req) {
            return Staged::Done(self.reject_ack(name, reason));
        }
        let flow = match build_flow(&req) {
            Ok(f) => f,
            Err(reason) => return Staged::Done(self.reject_ack(name, reason.to_string())),
        };

        // Stage: mutate a clone, never the live network.
        let mut staged = self.net.clone();
        let id = match staged.add_flow(flow) {
            Ok(id) => id,
            Err(e) => return Staged::Done(self.reject_ack(name, format!("invalid flow: {e}"))),
        };
        if let Err(e) = staged.validate() {
            return Staged::Done(self.reject_ack(name, format!("structural rejection: {e}")));
        }

        // Certify: the runner embodies retry-with-decay (Integrated,
        // then the cheaper Decomposed on budget breach). The new flow
        // only changes inputs along its own route, so those servers
        // seed the incremental dirty set.
        let mut deadlines = self.deadlines();
        deadlines.push(Deadline {
            flow: id,
            deadline: req.deadline,
        });
        let seed = req.route.clone();
        let fast = self.certify(&staged, self.trace.as_ref().map(|t| (t, seed.as_slice())));
        self.stats.units_computed += fast.units_computed() as u64;
        let report = fast.report;
        let retried = was_retried(&report);
        if retried {
            self.stats.retries += 1;
            dnc_telemetry::counter("service.retries", 1);
        }
        let Some(bounds) = report.bounds() else {
            return Staged::Done(self.reject_ack(
                name,
                format!("no bound within budget: {}", report.chain_summary()),
            ));
        };
        let violated: Vec<String> = deadlines
            .iter()
            .filter(|d| bounds.bound(d.flow) > d.deadline)
            .map(|d| self.describe_deadline(d, &req.name, id))
            .collect();
        if !violated.is_empty() {
            return Staged::Done(
                self.reject_ack(name, format!("deadline violation: {}", violated.join(", "))),
            );
        }

        // Certified: hand the caller everything the commit needs. The
        // acknowledgment is only released after the journal fsync.
        let bound = bounds.bound(id);
        let tier = report.tier();
        let deadline = req.deadline;
        Staged::Commit {
            op: Box::new(Op::Admit(req)),
            net: staged,
            trace: fast.trace,
            ack: Ack::Admitted {
                name,
                flow: id,
                bound,
                deadline,
                tier,
                retried,
            },
        }
    }

    fn stage_release(&mut self, name: &str) -> Staged {
        let _span = dnc_telemetry::span("service.release");
        let Some(idx) = self.admitted.iter().position(|a| a.name == name) else {
            return Staged::Done(Ack::ReleaseFailed {
                name: name.to_string(),
                reason: "no admitted connection with this name".into(),
            });
        };
        let victim = FlowId(self.base_flows + idx);
        // The removal only changes inputs along the victim's route;
        // those servers seed the incremental dirty set.
        let seed: Vec<ServerId> = self
            .net
            .flows()
            .get(victim.0)
            .map(|f| f.route.clone())
            .unwrap_or_default();
        let mut staged = self.net.clone();
        if let Err(e) = staged.remove_flow(victim) {
            return Staged::Done(Ack::ReleaseFailed {
                name: name.to_string(),
                reason: format!("remove failed: {e}"),
            });
        }
        // Remaining deadlines in the post-removal id space: admitted
        // flows after `idx` shift down by one.
        let mut deadlines = self.base_deadlines.clone();
        for (j, a) in self.admitted.iter().enumerate() {
            if j == idx {
                continue;
            }
            let shifted = if j > idx { j - 1 } else { j };
            deadlines.push(Deadline {
                flow: FlowId(self.base_flows + shifted),
                deadline: a.deadline,
            });
        }
        // Rebase the previous trace into the post-removal id space so
        // the splice can reuse the untouched groups' recorded stages.
        let prev_trace = self.trace.clone().map(|mut t| {
            t.remap_release(victim);
            t
        });
        let fast = self.certify(&staged, prev_trace.as_ref().map(|t| (t, seed.as_slice())));
        self.stats.units_computed += fast.units_computed() as u64;
        let report = fast.report;
        if was_retried(&report) {
            self.stats.retries += 1;
            dnc_telemetry::counter("service.retries", 1);
        }
        let Some(bounds) = report.bounds() else {
            self.stats.rollbacks += 1;
            dnc_telemetry::counter("service.rollbacks", 1);
            return Staged::Done(Ack::ReleaseFailed {
                name: name.to_string(),
                reason: format!(
                    "remaining set no longer certifies within budget: {}",
                    report.chain_summary()
                ),
            });
        };
        if let Some(d) = deadlines.iter().find(|d| bounds.bound(d.flow) > d.deadline) {
            self.stats.rollbacks += 1;
            dnc_telemetry::counter("service.rollbacks", 1);
            return Staged::Done(Ack::ReleaseFailed {
                name: name.to_string(),
                reason: format!(
                    "release breaks a remaining deadline ({} > {} for {})",
                    bounds.bound(d.flow),
                    d.deadline,
                    d.flow
                ),
            });
        }

        Staged::Commit {
            op: Box::new(Op::Release {
                name: name.to_string(),
            }),
            net: staged,
            trace: fast.trace,
            ack: Ack::Released {
                name: name.to_string(),
            },
        }
    }

    fn reject_ack(&mut self, name: String, reason: String) -> Ack {
        self.stats.rollbacks += 1;
        dnc_telemetry::counter("service.rollbacks", 1);
        Ack::Rejected { name, reason }
    }

    fn describe_deadline(&self, d: &Deadline, candidate: &str, candidate_id: FlowId) -> String {
        if d.flow == candidate_id {
            format!("candidate {candidate:?} itself")
        } else {
            match self
                .admitted
                .iter()
                .enumerate()
                .find(|(i, _)| FlowId(self.base_flows + i) == d.flow)
            {
                Some((_, a)) => format!("admitted {:?}", a.name),
                None => format!("base flow {}", d.flow),
            }
        }
    }

    fn validate_admit(&self, req: &AdmitRequest) -> Result<(), String> {
        if req.name.is_empty() || req.name.chars().any(char::is_whitespace) {
            return Err("name must be non-empty without whitespace".into());
        }
        if self.net.flows().iter().any(|f| f.name == req.name) {
            return Err(format!("a live flow is already named {:?}", req.name));
        }
        if req.buckets.is_empty() {
            return Err("at least one (σ, ρ) bucket is required".into());
        }
        if req
            .buckets
            .iter()
            .any(|(s, r)| s.is_negative() || r.is_negative())
        {
            return Err("bucket parameters must be non-negative".into());
        }
        if req.peak.is_some_and(|p| !p.is_positive()) {
            return Err("peak rate must be positive".into());
        }
        if !req.deadline.is_positive() {
            return Err("deadline must be positive".into());
        }
        Ok(())
    }

    /// A deterministic, human-readable rendering of the committed
    /// state: the base-flow count followed by each admitted operation
    /// in admission order. Two engines with equal canonical state hold
    /// identical networks and deadline sets (given the same base).
    pub fn canonical_state(&self) -> String {
        let mut s = format!("base {}\n", self.base_flows);
        for a in &self.admitted {
            s.push_str(&Op::Admit(a.clone()).encode());
            s.push('\n');
        }
        s
    }

    /// FNV-1a 64 digest of [`ChurnEngine::canonical_state`] — cheap
    /// state-identity checks for the kill-point recovery harness.
    pub fn state_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.canonical_state().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// A staged acknowledgment: everything a [`Response`] will say, held
/// back until the journal record that justifies it is durable. The one
/// commit path ([`ChurnEngine::process_batch`]) stages through this
/// type, so no acknowledgment can be handed out before its fsync.
enum Ack {
    /// Mirrors [`Response::Admitted`].
    Admitted {
        name: String,
        flow: FlowId,
        bound: Rat,
        deadline: Rat,
        tier: Tier,
        retried: bool,
    },
    /// Mirrors [`Response::Rejected`].
    Rejected { name: String, reason: String },
    /// Mirrors [`Response::Released`].
    Released { name: String },
    /// Mirrors [`Response::ReleaseFailed`].
    ReleaseFailed { name: String, reason: String },
    /// Mirrors [`Response::Queried`].
    Queried { entries: Vec<QueryEntry> },
}

impl Ack {
    /// Convert into the public response — called only after the group
    /// commit has made the op durable (or determined that no state
    /// changed).
    fn into_response(self) -> Response {
        match self {
            Ack::Admitted {
                name,
                flow,
                bound,
                deadline,
                tier,
                retried,
            } => Response::Admitted {
                name,
                flow,
                bound,
                deadline,
                tier,
                retried,
            },
            Ack::Rejected { name, reason } => Response::Rejected { name, reason },
            Ack::Released { name } => Response::Released { name },
            Ack::ReleaseFailed { name, reason } => Response::ReleaseFailed { name, reason },
            Ack::Queried { entries } => Response::Queried { entries },
        }
    }
}

/// The outcome of staging one request against the current state.
enum Staged {
    /// Certified: commit by swapping `net`/`trace` in and journaling
    /// `op`, releasing `ack` only after the journal fsync. The op is
    /// boxed to keep this transient enum's variants close in size.
    Commit {
        op: Box<Op>,
        net: Network,
        trace: Option<GroupTrace>,
        ack: Ack,
    },
    /// No state change (rejection, failed release, query): answerable
    /// immediately, nothing to journal.
    Done(Ack),
}

/// True when the Integrated tier breached its budget and the Decomposed
/// retry produced the answer — the retry-with-decay path. The fast path
/// may record two Integrated attempts (incremental splice, then full),
/// so any budget breach at that tier counts.
fn was_retried(report: &ResilientReport) -> bool {
    report.tier() == Tier::Decomposed
        && report
            .attempts()
            .iter()
            .any(|a| a.tier == Tier::Integrated && matches!(a.outcome, Outcome::Budget(_)))
}

/// Build the network flow for an admit request. Validation must already
/// have run: this only converts shapes.
fn build_flow(req: &AdmitRequest) -> Result<Flow, String> {
    if req.buckets.is_empty() {
        return Err("no buckets".into());
    }
    let buckets = req
        .buckets
        .iter()
        .map(|&(sigma, rho)| {
            if sigma.is_negative() || rho.is_negative() {
                Err("negative bucket parameter".to_string())
            } else {
                Ok(TokenBucket::new(sigma, rho))
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    if req.peak.is_some_and(|p| !p.is_positive()) {
        return Err("non-positive peak".into());
    }
    Ok(Flow {
        name: req.name.clone(),
        spec: TrafficSpec::new(buckets, req.peak),
        route: req.route.clone(),
        priority: req.priority,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Batcher, Job, Work};
    use crate::fs::ScratchDir;
    use dnc_net::Server;
    use dnc_num::{int, rat};
    use std::path::PathBuf;
    use std::sync::mpsc;

    fn base() -> Network {
        let mut net = Network::new();
        for i in 0..4 {
            net.add_server(Server::unit_fifo(format!("hop{i}")));
        }
        net
    }

    fn admit_req(name: &str, rho: Rat, deadline: Rat) -> Request {
        Request::Admit(AdmitRequest {
            name: name.into(),
            route: (0..4).map(dnc_net::ServerId).collect(),
            // No peak cap: the σ-burst lands at once, so even a lone
            // flow has a strictly positive bound (tests rely on that).
            buckets: vec![(int(1), rho)],
            peak: None,
            priority: 0,
            deadline,
        })
    }

    fn engine() -> ChurnEngine {
        ChurnEngine::new(base(), Vec::new(), EngineConfig::default()).unwrap()
    }

    /// A fresh file path, valid while the returned directory lives.
    fn tmp(name: &str) -> (ScratchDir, PathBuf) {
        let dir = ScratchDir::new("engine");
        let path = dir.join(name);
        (dir, path)
    }

    #[test]
    fn admit_release_round_trip() {
        let mut e = engine();
        let r = e.process(admit_req("a", rat(1, 32), int(50))).unwrap();
        let Response::Admitted {
            bound, deadline, ..
        } = &r
        else {
            panic!("expected admission, got {r:?}");
        };
        assert!(*bound <= *deadline);
        assert_eq!(e.network().flows().len(), 1);
        assert_eq!(e.deadlines().len(), 1);

        let r = e.process(Request::Release { name: "a".into() }).unwrap();
        assert!(matches!(r, Response::Released { .. }), "{r:?}");
        assert_eq!(e.network().flows().len(), 0);
        assert_eq!(e.stats().commits, 2);
    }

    #[test]
    fn impossible_deadline_is_rejected_and_rolled_back() {
        let mut e = engine();
        let r = e.process(admit_req("a", rat(1, 32), rat(1, 100))).unwrap();
        let Response::Rejected { reason, .. } = &r else {
            panic!("expected rejection, got {r:?}");
        };
        assert!(reason.contains("deadline violation"), "{reason}");
        assert_eq!(e.network().flows().len(), 0, "rollback must be total");
        assert_eq!(e.stats().rollbacks, 1);
    }

    #[test]
    fn admission_protects_previously_admitted_deadlines() {
        let mut e = engine();
        // Admit with a deadline exactly at the certified bound: any new
        // contention on the path must then be rejected.
        let first = e.process(admit_req("a", rat(1, 32), int(50))).unwrap();
        let Response::Admitted { bound, .. } = first else {
            panic!("first admit must pass");
        };
        let mut tight = ChurnEngine::new(base(), Vec::new(), EngineConfig::default()).unwrap();
        let r = tight.process(admit_req("a", rat(1, 32), bound)).unwrap();
        assert!(matches!(r, Response::Admitted { .. }));
        let r = tight.process(admit_req("b", rat(1, 4), bound)).unwrap();
        let Response::Rejected { reason, .. } = &r else {
            panic!("expected rejection protecting \"a\", got {r:?}");
        };
        assert!(reason.contains("deadline violation"), "{reason}");
        assert_eq!(tight.network().flows().len(), 1);
    }

    #[test]
    fn duplicate_names_and_bad_requests_are_rejected() {
        let mut e = engine();
        assert!(matches!(
            e.process(admit_req("a", rat(1, 32), int(50))).unwrap(),
            Response::Admitted { .. }
        ));
        for (req, frag) in [
            (admit_req("a", rat(1, 32), int(50)), "already named"),
            (admit_req("bad name", rat(1, 32), int(50)), "whitespace"),
            (admit_req("b", rat(1, 32), int(0)), "deadline"),
            (
                Request::Admit(AdmitRequest {
                    name: "c".into(),
                    route: vec![dnc_net::ServerId(0)],
                    buckets: vec![],
                    peak: None,
                    priority: 0,
                    deadline: int(10),
                }),
                "bucket",
            ),
        ] {
            let r = e.process(req).unwrap();
            let Response::Rejected { reason, .. } = &r else {
                panic!("expected rejection, got {r:?}");
            };
            assert!(reason.contains(frag), "{reason} !~ {frag}");
        }
        // Releasing an unknown name is a failure response, not an error.
        let r = e.process(Request::Release { name: "zz".into() }).unwrap();
        assert!(matches!(r, Response::ReleaseFailed { .. }));
    }

    #[test]
    fn query_reports_the_admitted_set() {
        let mut e = engine();
        e.process(admit_req("a", rat(1, 32), int(50))).unwrap();
        e.process(admit_req("b", rat(1, 32), int(60))).unwrap();
        let Response::Queried { entries } = e.process(Request::Query { name: None }).unwrap()
        else {
            panic!("query");
        };
        assert_eq!(entries.len(), 2);
        let Response::Queried { entries } = e
            .process(Request::Query {
                name: Some("b".into()),
            })
            .unwrap()
        else {
            panic!("query");
        };
        assert_eq!(entries.len(), 1);
        assert_eq!(entries.first().unwrap().deadline, int(60));
    }

    #[test]
    fn journal_recovery_rebuilds_identical_state() {
        let (_scratch, path) = tmp("recover.wal");
        let digest = {
            let (mut e, info) =
                ChurnEngine::open(base(), Vec::new(), EngineConfig::default(), &path).unwrap();
            assert_eq!(info.ops_replayed, 0);
            e.process(admit_req("a", rat(1, 32), int(50))).unwrap();
            e.process(admit_req("b", rat(1, 32), int(60))).unwrap();
            e.process(Request::Release { name: "a".into() }).unwrap();
            e.process(admit_req("c", rat(1, 32), int(70))).unwrap();
            e.state_digest()
        };
        let (recovered, info) =
            ChurnEngine::open(base(), Vec::new(), EngineConfig::default(), &path).unwrap();
        assert_eq!(info.ops_replayed, 4);
        assert_eq!(recovered.state_digest(), digest);
        assert_eq!(recovered.network().flows().len(), 2);
        assert_eq!(recovered.stats().recoveries, 1);
        let names: Vec<_> = recovered.admitted().map(|q| q.name).collect();
        assert_eq!(names, ["b", "c"]);
    }

    #[test]
    fn group_commit_batch_matches_serial_processing_and_recovers() {
        let (_scratch, path) = tmp("batch.wal");
        let reqs = || {
            vec![
                admit_req("a", rat(1, 32), int(50)),
                admit_req("b", rat(1, 32), int(60)),
                Request::Query { name: None },
                Request::Release { name: "a".into() },
                admit_req("c", rat(1, 32), int(70)),
            ]
        };
        let (mut batched, _) =
            ChurnEngine::open(base(), Vec::new(), EngineConfig::default(), &path).unwrap();
        let batch_answers = batched.process_batch(reqs()).unwrap();
        assert_eq!(batch_answers.len(), 5);

        // Bit-identical to serial one-at-a-time processing.
        let mut serial = engine();
        for (i, req) in reqs().into_iter().enumerate() {
            let want = serial.process(req).unwrap();
            assert_eq!(
                format!("{:?}", batch_answers.get(i).unwrap()),
                format!("{want:?}"),
                "response {i} diverged from serial processing"
            );
        }
        assert_eq!(batched.canonical_state(), serial.canonical_state());
        assert_eq!(batched.stats().commits, 4);
        assert_eq!(batched.stats().group_commits, 1);
        assert_eq!(batched.stats().batched_ops, 4);

        // The journal holds the whole batch and recovery lands exactly
        // on the acknowledged state.
        let digest = batched.state_digest();
        drop(batched);
        let replayed = crate::journal::replay(&path).unwrap();
        assert_eq!(replayed.ops.len(), 4);
        assert!(replayed.tail.is_none());
        let (recovered, info) =
            ChurnEngine::open(base(), Vec::new(), EngineConfig::default(), &path).unwrap();
        assert_eq!(info.ops_replayed, 4);
        assert_eq!(recovered.state_digest(), digest);
    }

    #[test]
    fn snapshot_compaction_bounds_recovery_to_the_tail() {
        let dir = ScratchDir::new("engine-compact");
        let path = dir.join("engine.wal");
        let cfg = EngineConfig {
            snapshot_every: Some(2),
            ..EngineConfig::default()
        };
        let digest = {
            let (mut e, _) = ChurnEngine::open(base(), Vec::new(), cfg.clone(), &path).unwrap();
            e.process(admit_req("a", rat(1, 32), int(50))).unwrap();
            e.process(admit_req("b", rat(1, 32), int(60))).unwrap(); // snapshot 1 @ seq 2
            e.process(Request::Release { name: "a".into() }).unwrap();
            e.process(admit_req("c", rat(1, 32), int(70))).unwrap(); // snapshot 2 @ seq 4
            e.process(admit_req("d", rat(1, 32), int(80))).unwrap(); // journal tail
            assert_eq!(e.stats().snapshots, 2);
            assert_eq!(e.committed_seq(), 5);
            e.state_digest()
        };
        let (rec, info) = ChurnEngine::open(base(), Vec::new(), cfg, &path).unwrap();
        assert_eq!(rec.state_digest(), digest);
        assert_eq!(info.snapshot, Some((2, 4)));
        assert_eq!(info.ops_replayed, 1, "recovery must replay only the tail");
        assert_eq!(info.committed_seq, 5);
        assert_eq!(info.snapshots_skipped, 0);
        let names: Vec<_> = rec.admitted().map(|q| q.name).collect();
        assert_eq!(names, ["b", "c", "d"]);
    }

    #[test]
    fn engine_fail_stops_after_a_storage_fault() {
        use crate::fs::{FaultFs, FaultKind};
        use std::sync::Arc;
        let dir = ScratchDir::new("engine-failstop");
        let path = dir.join("engine.wal");
        // Journal creation consumes sites 0..3; site 3 is the first
        // commit's append write.
        let fs: StorageHandle = Arc::new(FaultFs::new(3, FaultKind::Enospc));
        let (mut e, _) =
            ChurnEngine::open_with(base(), Vec::new(), EngineConfig::default(), &path, fs).unwrap();
        let first = e.process(admit_req("a", rat(1, 32), int(50)));
        assert!(
            matches!(first, Err(EngineError::Journal(JournalError::Io(_)))),
            "{first:?}"
        );
        let second = e.process(admit_req("b", rat(1, 32), int(60)));
        assert!(
            matches!(second, Err(EngineError::Journal(JournalError::Poisoned(_)))),
            "fail-stop: every later commit must see the poisoned handle, got {second:?}"
        );
        drop(e);
        // A real-backend recovery sees a consistent, empty history.
        let (rec, info) =
            ChurnEngine::open(base(), Vec::new(), EngineConfig::default(), &path).unwrap();
        assert_eq!(info.committed_seq, 0);
        assert_eq!(rec.network().flows().len(), 0);
    }

    /// Offer `reqs` on one connection to a [`Batcher`] over a fresh
    /// engine that holds `queue_capacity` pending jobs, then flush.
    /// Returns the replies sent before the flush, the replies the flush
    /// sent, and the batcher.
    fn overload(queue_capacity: usize, reqs: Vec<Request>) -> (Vec<String>, Vec<String>, Batcher) {
        fn render(r: &Response) -> String {
            match r {
                Response::Admitted { name, .. } => format!("OK {name}"),
                Response::Shed {
                    name, retry_after, ..
                } => format!("SHED {name} retry {retry_after}"),
                other => format!("{other:?}"),
            }
        }
        let mut b = Batcher::new(engine(), queue_capacity, 8);
        let (tx, rx) = mpsc::channel();
        for req in reqs {
            let job = Job {
                work: Work::Op(req),
                reply: tx.clone(),
            };
            b.enqueue(job, &render);
        }
        let before = rx.try_iter().collect();
        b.flush(&render).unwrap();
        (before, rx.try_iter().collect(), b)
    }

    #[test]
    fn shed_responses_carry_deterministic_retry_after_hints() {
        let hints = || -> Vec<u64> {
            let mut reqs = vec![admit_req("keep", rat(1, 32), int(5))];
            reqs.extend((0..4).map(|i| admit_req(&format!("late{i}"), rat(1, 32), int(90))));
            let (shed, acked, b) = overload(1, reqs);
            assert_eq!(acked, ["OK keep"]);
            assert_eq!(b.sheds(), 4);
            shed.iter()
                .enumerate()
                .map(|(i, line)| {
                    let hint = line
                        .strip_prefix(&format!("SHED late{i} retry "))
                        .unwrap_or_else(|| panic!("expected a shed of late{i}, got {line}"));
                    let hint: u64 = hint.parse().unwrap();
                    assert!(hint > 0);
                    hint
                })
                .collect()
        };
        // The jitter seed is fixed, so equal shed histories hint
        // identically (seed dependence is checked in `queue`).
        assert_eq!(
            hints(),
            hints(),
            "equal shed histories must hint identically"
        );
    }

    #[test]
    fn overload_sheds_loosest_admit_first() {
        let reqs = [("loose", 90), ("mid", 50), ("tight", 10)]
            .into_iter()
            .map(|(name, deadline)| admit_req(name, rat(1, 32), int(deadline)))
            .collect();
        let (shed, acked, b) = overload(2, reqs);
        // `tight` displaces the loosest queued admit, which is answered
        // before any flush.
        assert_eq!(shed.len(), 1, "{shed:?}");
        assert!(shed[0].starts_with("SHED loose retry "), "{shed:?}");
        assert_eq!(b.sheds(), 1);
        // The survivors commit in FIFO order.
        assert_eq!(acked, ["OK mid", "OK tight"]);
        let names: Vec<_> = b.engine().admitted().map(|q| q.name).collect();
        assert_eq!(names, ["mid", "tight"]);
    }
}
