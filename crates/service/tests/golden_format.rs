//! Golden-file test pinning the durable formats byte for byte.
//!
//! A fixed request list runs through a journaled engine that snapshots
//! every two commits, once committing each request alone and once in
//! group commits of two. Every file the run leaves — the active journal
//! segment, the `.prev` segment and the two snapshots — must equal its
//! checked-in copy under `tests/golden/`, and recovery from those copies
//! must land on the state the live engine held. A change to the journal
//! or snapshot encoding, to the framing, or to the snapshot cadence
//! fails here. If the format changed on purpose, regenerate the files by
//! running with `UPDATE_GOLDEN=1` and review the diff.

use dnc_net::{Network, Server};
use dnc_service::fs::ScratchDir;
use dnc_service::{ChurnEngine, EngineConfig, Op, RecoveryInfo, Request};
use std::path::{Path, PathBuf};

/// Five commits (snapshots at sequence 2 and 4, one op in the tail), a
/// rejection and two queries; admits and releases in the journal's own
/// text encoding.
const SCRIPT: &[&str] = &[
    "admit video deadline 60 prio 2 peak 1/2 route 0 1 2 buckets 1 1/8 4 1/32",
    "admit voice deadline 50 prio 0 peak - route 0 1 buckets 1 1/32",
    "query",
    "admit hopeless deadline 1/100 prio 0 peak - route 0 1 2 buckets 1 1/32",
    "release video",
    "admit data deadline 141/2 prio 1 peak - route 1 2 buckets 2 1/16",
    "query voice",
    "admit bulk deadline 40 prio 3 peak - route 2 buckets 1 1/64",
];

const FILES: [&str; 4] = [
    "engine.wal",
    "engine.wal.prev",
    "engine.wal.snap.00000000000000000001",
    "engine.wal.snap.00000000000000000002",
];

fn request(line: &str) -> Request {
    if let Some(name) = line.strip_prefix("query") {
        let name = Some(name.trim()).filter(|n| !n.is_empty());
        return Request::Query {
            name: name.map(String::from),
        };
    }
    match Op::decode(line).unwrap() {
        Op::Admit(a) => Request::Admit(a),
        Op::Release { name } => Request::Release { name },
    }
}

fn open(dir: &Path) -> (ChurnEngine, RecoveryInfo) {
    let mut net = Network::new();
    for i in 0..3 {
        net.add_server(Server::unit_fifo(format!("hop{i}")));
    }
    let config = EngineConfig {
        snapshot_every: Some(2),
        ..EngineConfig::default()
    };
    ChurnEngine::open(net, Vec::new(), config, &dir.join("engine.wal")).unwrap()
}

fn check(label: &str, batch: usize) {
    let live = ScratchDir::new("golden-format");
    let (mut engine, _) = open(&live);
    let requests: Vec<Request> = SCRIPT.iter().map(|l| request(l)).collect();
    for chunk in requests.chunks(batch) {
        assert_eq!(
            engine.process_batch(chunk.to_vec()).unwrap().len(),
            chunk.len()
        );
    }
    let state = engine.canonical_state();
    drop(engine);
    let mut names: Vec<String> = std::fs::read_dir(&*live)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, FILES);

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(label);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&golden).unwrap();
        for name in FILES {
            std::fs::copy(live.join(name), golden.join(name)).unwrap();
        }
        std::fs::write(golden.join("state.txt"), &state).unwrap();
        return;
    }
    for name in FILES {
        assert!(
            std::fs::read(live.join(name)).unwrap() == std::fs::read(golden.join(name)).unwrap(),
            "{label}/{name} drifted from the checked-in bytes"
        );
    }
    assert_eq!(
        state,
        std::fs::read_to_string(golden.join("state.txt")).unwrap()
    );

    // Recover from the checked-in copies, not from the live run.
    let copy = ScratchDir::new("golden-recover");
    for name in FILES {
        std::fs::copy(golden.join(name), copy.join(name)).unwrap();
    }
    let (recovered, info) = open(&copy);
    assert_eq!(recovered.canonical_state(), state);
    assert_eq!(info.snapshot, Some((2, 4)));
    assert_eq!((info.ops_replayed, info.committed_seq), (1, 5));
    assert!(info.tail.is_none());
}

#[test]
fn one_request_per_commit_matches_golden_files() {
    check("batch1", 1);
}

#[test]
fn group_commits_of_two_match_golden_files() {
    check("batch2", 2);
}
