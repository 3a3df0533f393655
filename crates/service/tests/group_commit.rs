//! Property test: under any interleaving of K concurrent socket
//! clients, the journal's committed sequence is a *serial order of
//! exactly the acknowledged operations* —
//!
//! * every acknowledged admit/release appears in the journal exactly
//!   once, and nothing else does (no unacknowledged operation anywhere
//!   in the committed sequence, in particular never ahead of an
//!   acknowledged one);
//! * each client's acknowledged operations appear in the journal in
//!   that client's acknowledgment order (the serial order is consistent
//!   with every per-connection history);
//! * folding the journal into a fresh engine reproduces the served
//!   engine's state bit-for-bit.
//!
//! The interleaving is real: K OS threads pipeline randomized workloads
//! through the TCP front end while the commit loop group-commits
//! whatever arrives together, so batch boundaries shift run to run —
//! the invariants may not depend on them.

use dnc_service::fs::ScratchDir;
use dnc_service::server::{run, ServerConfig};
use dnc_service::{ChurnEngine, EngineConfig, Journal, Op, Request, Response};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

fn base() -> dnc_net::Network {
    let mut net = dnc_net::Network::new();
    net.add_server(dnc_net::Server::unit_fifo("hop0"));
    net
}

fn decode(line: &str) -> Result<Request, String> {
    match Op::decode(line) {
        Ok(Op::Admit(a)) => Ok(Request::Admit(a)),
        Ok(Op::Release { name }) => Ok(Request::Release { name }),
        Err(e) => Err(format!("ERR {e}")),
    }
}

fn render(r: &Response) -> String {
    match r {
        Response::Admitted { name, .. } => format!("ADMIT {name}"),
        Response::Rejected { name, .. } => format!("REJECT {name}"),
        Response::Released { name } => format!("RELEASE {name}"),
        Response::ReleaseFailed { name, .. } => format!("RELFAIL {name}"),
        Response::Queried { entries } => format!("QUERY {}", entries.len()),
        Response::Shed { name, .. } => format!("SHED {name}"),
    }
}

/// One client's randomized workload: admits of its own names (generous
/// deadlines — they certify), releases of its own live names, and the
/// occasional release of a name nobody admitted (refused, and it must
/// stay out of the journal).
fn client_lines(seed: u64, client: usize, ops: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ (client as u64).wrapping_mul(0x9E37_79B9));
    let mut live: Vec<usize> = Vec::new();
    let mut next = 0usize;
    (0..ops)
        .map(|_| {
            if rng.gen_ratio(1, 8) {
                format!("release ghost_c{client}_{}", rng.gen_range(0..1000u32))
            } else if live.is_empty() || rng.gen_ratio(3, 5) {
                next += 1;
                live.push(next);
                format!(
                    "admit c{client}n{next} deadline {} prio 0 peak - route 0 buckets 1 1/4096",
                    rng.gen_range(500..2000u32)
                )
            } else {
                let k = rng.gen_range(0..live.len());
                format!("release c{client}n{}", live.remove(k))
            }
        })
        .collect()
}

/// Pipeline `lines` through one connection; return one reply per line.
fn session(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let mut script = String::new();
    for l in lines {
        script.push_str(l);
        script.push('\n');
    }
    w.write_all(script.as_bytes()).expect("send");
    w.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::with_capacity(lines.len());
    let mut buf = String::new();
    for _ in 0..lines.len() {
        buf.clear();
        let n = reader.read_line(&mut buf).expect("reply");
        assert!(n > 0, "connection closed before all replies arrived");
        replies.push(buf.trim().to_string());
    }
    replies
}

/// The canonical identity of a request line for cross-checking against
/// journal contents: its `Op::encode` form.
fn op_identity(line: &str) -> String {
    Op::decode(line)
        .expect("client lines are valid ops")
        .encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn any_interleaving_replays_as_a_serial_order_of_acknowledged_ops(
        seed in 0u64..1 << 32,
        batch in 1usize..=8,
    ) {
        const CLIENTS: usize = 4;
        const OPS: usize = 10;
        let dir = ScratchDir::new("group-commit");
        let wal = dir.join("wal");
        let (engine, _) = ChurnEngine::open(base(), Vec::new(), EngineConfig::default(), &wal)
            .expect("fresh journal opens");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let cfg = ServerConfig {
            batch,
            queue_capacity: CLIENTS * OPS + 8, // no sheds: every op gets a real answer
            drain_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let server = std::thread::spawn(move || {
            run(
                listener,
                engine,
                cfg,
                Arc::new(decode),
                Arc::new(render),
                Arc::new(AtomicBool::new(false)),
            )
        });

        let workloads: Vec<Vec<String>> =
            (0..CLIENTS).map(|c| client_lines(seed, c, OPS)).collect();
        let clients: Vec<_> = workloads
            .iter()
            .map(|lines| {
                let lines = lines.clone();
                std::thread::spawn(move || session(addr, &lines))
            })
            .collect();
        let replies: Vec<Vec<String>> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();

        // Drain and recover the served state.
        session(addr, &["shutdown".to_string()]);
        let (served, report) = server.join().expect("server thread").expect("serve ok");
        prop_assert!(report.drained_clean, "drain timed out: {report:?}");
        prop_assert_eq!(report.sheds, 0, "queue was sized to never shed");

        // Acknowledged ops per client, in acknowledgment order.
        let mut acked_per_client: Vec<Vec<String>> = Vec::with_capacity(CLIENTS);
        for (lines, replies) in workloads.iter().zip(&replies) {
            let mut acked = Vec::new();
            for (line, reply) in lines.iter().zip(replies) {
                if reply.starts_with("ADMIT ") || reply.starts_with("RELEASE ") {
                    acked.push(op_identity(line));
                } else {
                    prop_assert!(
                        reply.starts_with("RELFAIL ") || reply.starts_with("REJECT "),
                        "unexpected reply {reply:?} to {line:?}"
                    );
                }
            }
            acked_per_client.push(acked);
        }

        // The journal's committed sequence, as op identities.
        let (_, replay) = Journal::resume(&wal).expect("journal replays");
        prop_assert!(replay.tail.is_none(), "clean shutdown left a torn tail");
        let journal: Vec<String> = replay.ops.iter().map(Op::encode).collect();

        // (1) Exactly the acknowledged ops, nothing else: same multiset.
        let mut want: Vec<&String> = acked_per_client.iter().flatten().collect();
        let mut got: Vec<&String> = journal.iter().collect();
        want.sort();
        got.sort();
        prop_assert_eq!(
            got, want,
            "journal is not exactly the acknowledged set (seed {seed}, batch {batch})"
        );

        // (2) Consistent with every per-connection history: client c's
        // ops appear in the journal in c's acknowledgment order.
        for (c, acked) in acked_per_client.iter().enumerate() {
            let prefix = format!("c{c}n");
            let in_journal: Vec<&String> = journal
                .iter()
                .filter(|op| op.split_whitespace().nth(1).is_some_and(|n| n.starts_with(&prefix)))
                .collect();
            let in_acks: Vec<&String> = acked.iter().collect();
            prop_assert_eq!(
                in_journal, in_acks,
                "client {c}'s journal order diverges from its ack order"
            );
        }

        // (3) Folding the journal reproduces the served state.
        let (recovered, _) = ChurnEngine::open(base(), Vec::new(), EngineConfig::default(), &wal)
            .expect("journal recovers");
        prop_assert_eq!(recovered.state_digest(), served.state_digest());
    }
}
