//! Group-commit scheduler: the one way a served request reaches the
//! engine.
//!
//! Front ends turn requests into [`Job`]s — a request (or a
//! pre-rendered reply line) still attached to a reply channel — and hand
//! them to a single [`Batcher`]: the socket server's connection threads
//! (`server.rs`) and scripted `dnc serve` alike. The batcher owns the
//! service's one [`ShedQueue`] as backpressure (sheds and displacements
//! are answered immediately, with the queue's deterministic retry-after
//! hint), then drains the queue in chunks of at most `batch` requests
//! through [`ChurnEngine::process_batch`]: every chunk's committed ops
//! share **one** journal record and **one** fsync, and only after that
//! fsync are the chunk's acknowledgments delivered — in exactly the
//! order the ops were staged, so acknowledged commits are never
//! reordered. With `batch` = 1 every committed op gets its own record.
//!
//! The type is deliberately I/O-free (reply channels are plain `mpsc`
//! senders), so the ordering and shedding contracts are testable
//! without sockets; `server.rs` supplies the TCP plumbing.

use crate::engine::{ChurnEngine, EngineError, Response};
use crate::queue::{Pushed, ShedQueue, Sheddable};
use crate::request::Request;
use dnc_num::Rat;
use std::sync::mpsc::Sender;

/// Renders an engine response into one protocol reply payload. The
/// front end supplies this so the service crate stays
/// presentation-free.
pub type RenderFn = dyn Fn(&Response) -> String + Send + Sync;

/// Prefix of the terminal reply sent to jobs caught behind a storage
/// failure (the failure cause is appended). The one piece of
/// presentation this module owns: when the journal is poisoned there is
/// no engine response to render, but every pending client is still owed
/// a line saying the server is fail-stop.
pub const FAIL_STOP_PREFIX: &str = "ERR     fail-stop: ";

/// One unit of connection work awaiting the commit loop.
pub struct Job {
    /// What to do.
    pub work: Work,
    /// Where the rendered reply goes (the owning connection's writer).
    pub reply: Sender<String>,
}

/// Payload of a [`Job`].
pub enum Work {
    /// A decoded request to stage and group-commit.
    Op(Request),
    /// A pre-rendered reply (protocol error, shutdown acknowledgment)
    /// that rides the queue so a connection's replies keep arrival
    /// order. Never shed, never journaled.
    Line(String),
}

impl Sheddable for Job {
    fn shed_deadline(&self) -> Option<Rat> {
        match &self.work {
            Work::Op(req) => req.shed_deadline(),
            Work::Line(_) => None,
        }
    }
}

/// A bounded shed queue in front of [`ChurnEngine::process_batch`].
pub struct Batcher {
    engine: ChurnEngine,
    queue: ShedQueue<Job>,
    batch: usize,
}

impl Batcher {
    /// A batcher committing at most `batch` ops per journal record
    /// (clamped to ≥ 1), shedding past `queue_capacity` pending jobs.
    pub fn new(engine: ChurnEngine, queue_capacity: usize, batch: usize) -> Batcher {
        Batcher {
            engine,
            queue: ShedQueue::new(queue_capacity),
            batch: batch.max(1),
        }
    }

    /// Queued jobs not yet committed.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Jobs answered with a SHED reply instead of being committed.
    pub fn sheds(&self) -> u64 {
        self.queue.sheds()
    }

    /// The engine behind the queue (read-only).
    pub fn engine(&self) -> &ChurnEngine {
        &self.engine
    }

    /// Tear down, returning the engine (for footers/final state).
    pub fn into_engine(self) -> ChurnEngine {
        self.engine
    }

    /// Offer one job under the overload policy. Sheds and displaced
    /// victims are answered *immediately* with the queue's
    /// deterministic retry-after hint; surviving jobs wait for
    /// [`Batcher::flush`].
    pub fn enqueue(&mut self, job: Job, render: &RenderFn) {
        let (shed, reason) = match self.queue.push(job) {
            Pushed::Enqueued => return,
            Pushed::Displaced(victim) => (victim, "displaced by a tighter-deadline admit".into()),
            Pushed::Shed(incoming, reason) => (incoming, reason.to_string()),
        };
        // Nothing was committed, so this answer owes no fsync (unlike
        // `send_acks`).
        dnc_telemetry::counter("server.sheds", 1);
        let retry_after = self.queue.retry_after();
        let line = match shed.work {
            Work::Op(req) => {
                let name = match req {
                    Request::Admit(a) => a.name,
                    Request::Release { name } => name,
                    Request::Query { name } => name.unwrap_or_default(),
                };
                render(&Response::Shed {
                    name,
                    reason,
                    retry_after,
                })
            }
            // Unreachable in practice (Line jobs are unsheddable), but
            // losing a pre-rendered line would be worse than sending it.
            Work::Line(line) => line,
        };
        let _ = shed.reply.send(line);
    }

    /// Drain the whole backlog in chunks of at most `batch` jobs: each
    /// chunk's ops go through one group commit, then the chunk's reply
    /// lines are delivered in staging order.
    ///
    /// # Errors
    /// A journal failure aborts with nothing from the failed chunk
    /// acknowledged (see [`ChurnEngine::process_batch`]).
    pub fn flush(&mut self, render: &RenderFn) -> Result<u64, EngineError> {
        let mut answered = 0;
        loop {
            let mut chunk = Vec::with_capacity(self.batch);
            while chunk.len() < self.batch {
                match self.queue.pop() {
                    Some(job) => chunk.push(job),
                    None => break,
                }
            }
            if chunk.is_empty() {
                return Ok(answered);
            }
            answered += chunk.len() as u64;
            self.commit_chunk(chunk, render)?;
        }
    }

    fn commit_chunk(&mut self, chunk: Vec<Job>, render: &RenderFn) -> Result<(), EngineError> {
        enum Pending {
            Op(Sender<String>),
            Line(Sender<String>, String),
        }
        let mut reqs = Vec::with_capacity(chunk.len());
        let mut pending = Vec::with_capacity(chunk.len());
        for job in chunk {
            match job.work {
                Work::Op(req) => {
                    reqs.push(req);
                    pending.push(Pending::Op(job.reply));
                }
                Work::Line(line) => pending.push(Pending::Line(job.reply, line)),
            }
        }
        // One journal record, one fsync, for every committed op below.
        let responses = match self.engine.process_batch(reqs) {
            Ok(r) => r,
            Err(e) => {
                // Fail-stop: nothing in this chunk was acknowledged and
                // nothing further ever will be. Tell every waiting
                // client so instead of silently dropping its reply
                // channel (pre-rendered protocol-error lines are still
                // accurate and keep arrival order).
                let line = format!("{FAIL_STOP_PREFIX}{e}");
                for p in pending {
                    let _ = match p {
                        Pending::Op(tx) => tx.send(line.clone()),
                        Pending::Line(tx, l) => tx.send(l),
                    };
                }
                return Err(e);
            }
        };
        let mut rendered = responses.iter().map(render);
        let deliveries: Vec<(Sender<String>, String)> = pending
            .into_iter()
            .map(|p| match p {
                Pending::Op(tx) => (tx, rendered.next().unwrap_or_default()),
                Pending::Line(tx, line) => (tx, line),
            })
            .collect();
        send_acks(deliveries);
        Ok(())
    }

    /// Fail-stop drain: answer every still-queued job with the terminal
    /// `line` and commit nothing. Called after a storage failure has
    /// poisoned the journal — every pending client is owed an answer,
    /// and the only honest one is a refusal (no op here was journaled,
    /// so no durability is being claimed). Returns the number of jobs
    /// answered.
    pub fn fail_pending(&mut self, line: &str) -> u64 {
        let mut answered = 0;
        while let Some(job) = self.queue.pop() {
            answered += 1;
            let reply = match job.work {
                // Pre-rendered lines (protocol errors) are still
                // accurate; everything else gets the terminal ERR.
                Work::Line(l) => l,
                Work::Op(_) => line.to_string(),
            };
            let _ = job.reply.send(reply);
        }
        if answered > 0 {
            dnc_telemetry::counter("server.failed_pending", answered);
        }
        answered
    }
}

/// Deliver one committed chunk's reply lines — the single ack sink.
/// Every call site must be dominated by the journal commit (here:
/// `process_batch` fsyncs the chunk's ops before returning), which the
/// `dur-group-ack` deepcheck lint enforces statically.
fn send_acks(deliveries: Vec<(Sender<String>, String)>) {
    for (tx, line) in deliveries {
        // A vanished client (dropped receiver) is not an error — the
        // commit is already durable; only the courtesy reply is lost.
        let _ = tx.send(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::request::AdmitRequest;
    use dnc_net::{Network, Server, ServerId};
    use dnc_num::{int, rat};
    use std::sync::mpsc;

    fn base() -> Network {
        let mut net = Network::new();
        for i in 0..2 {
            net.add_server(Server::unit_fifo(format!("hop{i}")));
        }
        net
    }

    fn engine() -> ChurnEngine {
        ChurnEngine::new(base(), Vec::new(), EngineConfig::default()).unwrap()
    }

    fn admit(name: &str, deadline: i64) -> Request {
        Request::Admit(AdmitRequest {
            name: name.into(),
            route: vec![ServerId(0), ServerId(1)],
            buckets: vec![(int(1), rat(1, 32))],
            peak: None,
            priority: 0,
            deadline: int(deadline),
        })
    }

    fn render(r: &Response) -> String {
        match r {
            Response::Admitted { name, .. } => format!("OK {name}"),
            Response::Rejected { name, .. } => format!("NO {name}"),
            Response::Released { name } => format!("REL {name}"),
            Response::ReleaseFailed { name, .. } => format!("RELFAIL {name}"),
            Response::Queried { entries } => format!("Q {}", entries.len()),
            Response::Shed {
                name, retry_after, ..
            } => format!("SHED {name} retry {retry_after}"),
        }
    }

    #[test]
    fn replies_keep_per_connection_arrival_order() {
        let mut b = Batcher::new(engine(), 16, 3);
        let (tx, rx) = mpsc::channel();
        for job in [
            Job {
                work: Work::Op(admit("a", 50)),
                reply: tx.clone(),
            },
            Job {
                work: Work::Line("ERR bad line".into()),
                reply: tx.clone(),
            },
            Job {
                work: Work::Op(admit("b", 60)),
                reply: tx.clone(),
            },
            Job {
                work: Work::Op(Request::Release { name: "a".into() }),
                reply: tx.clone(),
            },
            Job {
                work: Work::Op(Request::Query { name: None }),
                reply: tx.clone(),
            },
        ] {
            b.enqueue(job, &render);
        }
        assert_eq!(b.backlog(), 5);
        let answered = b.flush(&render).unwrap();
        assert_eq!(answered, 5);
        drop(tx);
        let got: Vec<String> = rx.iter().collect();
        assert_eq!(got, ["OK a", "ERR bad line", "OK b", "REL a", "Q 1"]);
        // Three ops committed across two chunks of batch=3.
        assert_eq!(b.engine().stats().commits, 3);
        assert_eq!(
            b.engine().stats().group_commits,
            2,
            "one per non-empty chunk"
        );
        assert_eq!(b.engine().stats().batched_ops, 3);
    }

    #[test]
    fn overload_answers_sheds_immediately_with_retry_hint() {
        let mut b = Batcher::new(engine(), 1, 8);
        let (tx, rx) = mpsc::channel();
        b.enqueue(
            Job {
                work: Work::Op(admit("keep", 5)),
                reply: tx.clone(),
            },
            &render,
        );
        b.enqueue(
            Job {
                work: Work::Op(admit("late", 90)),
                reply: tx.clone(),
            },
            &render,
        );
        // The shed reply arrives before any flush.
        let first = rx.try_recv().unwrap();
        assert!(first.starts_with("SHED late retry "), "{first}");
        assert_eq!(b.sheds(), 1);
        b.flush(&render).unwrap();
        assert_eq!(rx.try_recv().unwrap(), "OK keep");
    }
}
