//! Crash-safe snapshots and journal compaction.
//!
//! A snapshot is the engine's canonical committed state — base-flow
//! count plus every currently admitted connection — captured at a
//! committed sequence number `seq` and tagged with a monotonically
//! increasing generation `gen`. Publishing one bounds recovery cost:
//! after a snapshot at `seq`, recovery folds the snapshot and replays
//! only the journal *tail* past `seq`, not lifetime history.
//!
//! ## On-disk format
//!
//! ```text
//! +--------+  "DNCS1\n" magic + version (6 bytes)
//! | record |  u32 LE payload length
//! |        |  u32 LE CRC-32 (IEEE) of the payload bytes
//! |        |  payload:
//! |        |    snapshot gen <g> seq <s> base <b>
//! |        |    admit <name> deadline ...      (one line per admitted)
//! +--------+
//! ```
//!
//! One CRC-framed record, same framing discipline as the journal but a
//! distinct magic: a snapshot is never a journal and vice versa. The
//! admit lines reuse [`Op::encode`], so rationals stay exact.
//!
//! ## Atomic publish
//!
//! [`publish_snapshot`] writes the image to `<final>.tmp`, fsyncs it,
//! atomically renames it to `<journal>.snap.<gen>`, and fsyncs the
//! parent directory. A crash at any point leaves either no new
//! snapshot, an ignorable `.tmp`, or a complete valid snapshot — never
//! a half-written file under the final name. After a publish the
//! journal rotates (see [`Journal::rotate`]): the old segment moves to
//! `<journal>.prev` and a fresh segment opens with an epoch record
//! pointing past the snapshot.
//!
//! ## Recovery
//!
//! [`recover`] inventories the directory — snapshots newest-first, the
//! active journal segment, the `.prev` segment a mid-rotation crash may
//! leave — and picks the newest *valid* snapshot whose `seq` lands
//! inside the surviving segment chain. A torn snapshot (bad CRC, torn
//! frame) is skipped in favor of the previous one or full replay; a
//! tail segment with no covering snapshot is refused rather than
//! replayed into a silently wrong state.

use crate::fs::StorageFs;
use crate::journal::{
    self, frame_record, parent_dir, sibling, Journal, JournalError, Op, Replay, TailDefect,
};
use crate::request::AdmitRequest;
use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// Magic header: snapshot format name + version byte + newline.
const SNAP_MAGIC: &[u8; 6] = b"DNCS1\n";

/// Upper bound on a snapshot payload (a quarter GiB of admit lines is
/// far past any realistic admitted set; larger is corruption).
const MAX_SNAPSHOT: u32 = 1 << 28;

/// Canonical committed state at a point in the commit sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic snapshot generation (1-based; 0 means "none yet").
    pub gen: u64,
    /// Committed operations folded into this snapshot.
    pub seq: u64,
    /// Base-flow count of the network the state was built against —
    /// recovery refuses a snapshot taken over a different base.
    pub base_flows: usize,
    /// Every admitted connection, in admission order.
    pub admits: Vec<AdmitRequest>,
}

/// Errors raised by snapshot encoding, decoding, and publication.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file is not a decodable snapshot (torn, corrupt, or wrong
    /// format) — recoverable by falling back to an older generation.
    Bad(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Bad(m) => write!(f, "invalid snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

impl Snapshot {
    /// Encode the payload text (header line + admit lines).
    pub fn encode(&self) -> String {
        let mut s = format!(
            "snapshot gen {} seq {} base {}",
            self.gen, self.seq, self.base_flows
        );
        for a in &self.admits {
            s.push('\n');
            s.push_str(&Op::Admit(a.clone()).encode());
        }
        s
    }

    /// Decode a payload produced by [`Snapshot::encode`].
    pub fn decode(text: &str) -> Result<Snapshot, SnapshotError> {
        let bad = |m: &str| SnapshotError::Bad(m.to_string());
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| bad("empty payload"))?;
        let mut toks = header.split_whitespace();
        if toks.next() != Some("snapshot") {
            return Err(bad("missing `snapshot` header"));
        }
        let mut field = |kw: &str| -> Result<u64, SnapshotError> {
            if toks.next() != Some(kw) {
                return Err(SnapshotError::Bad(format!("expected `{kw}` in header")));
            }
            toks.next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| SnapshotError::Bad(format!("invalid `{kw}` value")))
        };
        let gen = field("gen")?;
        let seq = field("seq")?;
        let base_flows = field("base")? as usize;
        if toks.next().is_some() {
            return Err(bad("trailing tokens in header"));
        }
        let mut admits = Vec::new();
        for line in lines {
            match Op::decode(line) {
                Ok(Op::Admit(a)) => admits.push(a),
                Ok(Op::Release { .. }) => {
                    return Err(bad("release line in a snapshot (admits only)"))
                }
                Err(e) => return Err(SnapshotError::Bad(format!("bad admit line: {e}"))),
            }
        }
        Ok(Snapshot {
            gen,
            seq,
            base_flows,
            admits,
        })
    }
}

/// The final path of the generation-`gen` snapshot beside
/// `journal_path`. Zero-padded so lexicographic order is generation
/// order.
pub fn snapshot_path(journal_path: &Path, gen: u64) -> PathBuf {
    sibling(journal_path, &format!("snap.{gen:020}"))
}

/// Publish `snap` beside `journal_path` with the atomic-publish
/// protocol: temp-file write → fsync → rename into place → parent-dir
/// fsync. Returns the final path.
///
/// # Errors
/// Any storage failure mid-protocol. The final name is only ever
/// reached by a complete, synced image, so a failure leaves at worst a
/// stale `.tmp` that recovery removes.
pub fn publish_snapshot(
    fs: &dyn StorageFs,
    journal_path: &Path,
    snap: &Snapshot,
) -> Result<PathBuf, SnapshotError> {
    let payload = snap.encode();
    if payload.len() > MAX_SNAPSHOT as usize {
        return Err(SnapshotError::Bad(
            "snapshot payload exceeds the record cap".into(),
        ));
    }
    let final_path = snapshot_path(journal_path, snap.gen);
    let tmp = sibling(&final_path, "tmp");
    let mut buf = SNAP_MAGIC.to_vec();
    buf.extend_from_slice(&frame_record(payload.as_bytes()));
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    fs.write(&mut file, &buf)?;
    fs.sync_data(&file)?;
    fs.rename(&tmp, &final_path)?;
    fs.sync_dir(parent_dir(&final_path))?;
    Ok(final_path)
}

/// Decode the snapshot file at `path`.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, SnapshotError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    decode_snapshot_bytes(&bytes)
}

fn decode_snapshot_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    let bad = |m: &str| SnapshotError::Bad(m.to_string());
    if !bytes.starts_with(SNAP_MAGIC) {
        return Err(bad("bad magic"));
    }
    let rest = bytes.get(SNAP_MAGIC.len()..).unwrap_or(&[]);
    let (Some(len), Some(crc)) = (journal::read_u32(rest, 0), journal::read_u32(rest, 4)) else {
        return Err(bad("torn record frame"));
    };
    if len > MAX_SNAPSHOT {
        return Err(bad("oversized payload length"));
    }
    let payload = rest
        .get(8..8 + len as usize)
        .ok_or_else(|| bad("torn payload"))?;
    if rest.len() != 8 + len as usize {
        return Err(bad("trailing bytes after the record"));
    }
    if journal::crc32(payload) != crc {
        return Err(bad("checksum mismatch"));
    }
    let text = std::str::from_utf8(payload).map_err(|_| bad("payload is not UTF-8"))?;
    Snapshot::decode(text)
}

/// Inventory the snapshots beside `journal_path`, newest generation
/// first, by file name only (no decoding).
pub fn scan_snapshots(journal_path: &Path) -> Vec<(u64, PathBuf)> {
    let dir = parent_dir(journal_path);
    let prefix = {
        let mut p = journal_path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        p.push_str(".snap.");
        p
    };
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(gen_str) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Ok(gen) = gen_str.parse::<u64>() else {
            continue; // e.g. a stale `<gen>.tmp` — not a published snapshot
        };
        found.push((gen, entry.path()));
    }
    found.sort_by_key(|&(gen, _)| std::cmp::Reverse(gen));
    found
}

/// Remove snapshot generations at or below `current_gen - 2`, keeping
/// the current and previous generations as fallback. (Stale publish
/// staging files are removed by [`recover`].) Errors are ignored:
/// pruning is hygiene, and a faulted backend surfaces at the next
/// durability-critical call.
pub fn prune_snapshots(fs: &dyn StorageFs, journal_path: &Path, current_gen: u64) {
    for (gen, path) in scan_snapshots(journal_path) {
        if gen + 2 <= current_gen {
            let _ = fs.remove_file(&path);
        }
    }
}

/// A recovery plan: the reopened journal plus everything needed to
/// rebuild and report the committed state.
#[derive(Debug)]
pub struct Recovered {
    /// The active journal, truncated past any torn tail and positioned
    /// for appends.
    pub journal: Journal,
    /// The snapshot recovery chose to fold, if any.
    pub snapshot: Option<Snapshot>,
    /// Committed operations past the snapshot, in commit order.
    pub tail_ops: Vec<Op>,
    /// Total committed operations across the whole history.
    pub committed_seq: u64,
    /// Highest snapshot generation seen on disk or in the journal
    /// epoch — the next snapshot must use `gen + 1`.
    pub gen: u64,
    /// Valid byte length of the active journal segment.
    pub valid_len: u64,
    /// The active segment's tail defect, if a torn tail was truncated.
    pub tail: Option<(TailDefect, u64)>,
    /// Snapshots passed over because they were torn, corrupt, or did
    /// not land inside the surviving segment chain.
    pub snapshots_skipped: usize,
}

/// Errors raised while planning recovery.
#[derive(Debug)]
pub enum RecoverError {
    /// The journal itself failed to open or replay.
    Journal(JournalError),
    /// The on-disk layout is uninterpretable: replaying it could
    /// silently drop acknowledged operations, so recovery refuses.
    Layout(String),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Journal(e) => write!(f, "{e}"),
            RecoverError::Layout(m) => write!(f, "unrecoverable storage layout: {m}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<JournalError> for RecoverError {
    fn from(e: JournalError) -> RecoverError {
        RecoverError::Journal(e)
    }
}

/// Plan recovery for the journal at `path`: clean publish/rotation
/// staging debris, reopen (or re-create) the active segment, stitch in
/// the `.prev` segment a mid-rotation crash may have left, and choose
/// the newest valid snapshot that lands inside the surviving chain.
pub fn recover(path: &Path, fs: crate::fs::StorageHandle) -> Result<Recovered, RecoverError> {
    // Staging debris is never authoritative: `<journal>.new` only
    // becomes real by renaming over the journal, `*.tmp` only by
    // renaming to a snapshot name. Cleanup runs on the real std::fs —
    // it precedes the replayed fault window. A stale tmp may belong to
    // a generation that was never published, so sweep by name pattern
    // rather than by the published-snapshot inventory.
    let _ = std::fs::remove_file(sibling(path, "new"));
    if let Ok(entries) = std::fs::read_dir(parent_dir(path)) {
        let stem = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let snap_prefix = format!("{stem}.snap.");
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(&snap_prefix) && name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    let candidates = scan_snapshots(path);
    let newest_gen_on_disk = candidates.first().map_or(0, |(g, _)| *g);

    // Reopen the active segment. If it vanished mid-rotation (moved
    // aside, replacement never renamed in), re-create it pointing past
    // the newest snapshot — the rotation protocol publishes the
    // snapshot before touching the journal, so that snapshot covers
    // every op the moved-aside segment held.
    let mut snapshots_skipped = 0usize;
    let (journal, active): (Journal, Replay) = if path.exists() {
        Journal::resume_with(path, fs)?
    } else {
        let mut restart: Option<Snapshot> = None;
        for (_, snap_path) in &candidates {
            match load_snapshot(snap_path) {
                Ok(s) => {
                    restart = Some(s);
                    break;
                }
                Err(_) => snapshots_skipped += 1,
            }
        }
        let prev_exists = sibling(path, "prev").exists();
        match restart {
            Some(s) => {
                let j = Journal::create_at(path, fs, s.gen, s.seq)?;
                let r = journal::replay(path)?;
                (j, r)
            }
            None if prev_exists => {
                return Err(RecoverError::Layout(
                    "active journal segment is missing and no valid snapshot covers the \
                     moved-aside segment"
                        .into(),
                ));
            }
            None => {
                let (j, r) = Journal::resume_with(path, fs)?;
                (j, r)
            }
        }
    };

    let base = active.base_seq;
    let committed_seq = base + active.ops.len() as u64;

    // The `.prev` segment is usable only if its end meets the active
    // segment's base exactly — otherwise ops would be missing between
    // the two and nothing built on it can be trusted.
    let prev_path = sibling(path, "prev");
    let prev: Option<Replay> = if prev_path.exists() {
        journal::replay(&prev_path)
            .ok()
            .filter(|p| p.base_seq + p.ops.len() as u64 == base)
    } else {
        None
    };

    // Newest-first: the first valid snapshot whose seq lands inside the
    // surviving chain wins. Torn and out-of-range snapshots are skipped
    // (counted), falling back toward older generations or full replay.
    let mut chosen: Option<(Snapshot, Vec<Op>)> = None;
    for (_, snap_path) in &candidates {
        let s = match load_snapshot(snap_path) {
            Ok(s) => s,
            Err(_) => {
                snapshots_skipped += 1;
                continue;
            }
        };
        if s.seq >= base && s.seq <= committed_seq {
            let at = (s.seq - base) as usize;
            let tail_ops = active.ops.get(at..).unwrap_or(&[]).to_vec();
            chosen = Some((s, tail_ops));
            break;
        }
        if let Some(p) = &prev {
            if s.seq >= p.base_seq && s.seq < base {
                let at = (s.seq - p.base_seq) as usize;
                let mut tail_ops = p.ops.get(at..).unwrap_or(&[]).to_vec();
                tail_ops.extend(active.ops.iter().cloned());
                chosen = Some((s, tail_ops));
                break;
            }
        }
        snapshots_skipped += 1;
    }

    let (snapshot, tail_ops) = match chosen {
        Some((s, t)) => (Some(s), t),
        None => {
            // Full replay is only sound if the surviving chain starts
            // at sequence zero.
            if base == 0 {
                (None, active.ops.clone())
            } else if let Some(p) = &prev {
                if p.base_seq == 0 {
                    let mut t = p.ops.clone();
                    t.extend(active.ops.iter().cloned());
                    (None, t)
                } else {
                    return Err(RecoverError::Layout(format!(
                        "journal is a tail segment (base seq {}) but no valid snapshot covers \
                         its base",
                        p.base_seq
                    )));
                }
            } else {
                return Err(RecoverError::Layout(format!(
                    "journal is a tail segment (base seq {base}) but no valid snapshot covers \
                     its base"
                )));
            }
        }
    };

    let gen = newest_gen_on_disk
        .max(active.gen)
        .max(snapshot.as_ref().map_or(0, |s| s.gen));

    Ok(Recovered {
        journal,
        snapshot,
        tail_ops,
        committed_seq,
        gen,
        valid_len: active.valid_len,
        tail: active.tail,
        snapshots_skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{FaultFs, ScratchDir, FAULT_KINDS};
    use dnc_net::ServerId;
    use dnc_num::{int, rat};
    use std::sync::Arc;

    fn admit(name: &str) -> AdmitRequest {
        AdmitRequest {
            name: name.into(),
            route: vec![ServerId(0), ServerId(1)],
            buckets: vec![(int(1), rat(1, 8))],
            peak: None,
            priority: 1,
            deadline: rat(31, 2),
        }
    }

    fn sample(gen: u64, seq: u64) -> Snapshot {
        Snapshot {
            gen,
            seq,
            base_flows: 2,
            admits: vec![admit("a"), admit("b")],
        }
    }

    #[test]
    fn snapshot_round_trips_through_publish_and_load() {
        let dir = ScratchDir::new("snap-round");
        let jpath = dir.join("engine.wal");
        let snap = sample(1, 7);
        let path = publish_snapshot(&crate::fs::RealFs, &jpath, &snap).unwrap();
        assert_eq!(path, snapshot_path(&jpath, 1));
        assert_eq!(load_snapshot(&path).unwrap(), snap);
        assert!(!sibling(&path, "tmp").exists(), "tmp must be renamed away");
    }

    #[test]
    fn decode_rejects_damage() {
        let dir = ScratchDir::new("snap-damage");
        let jpath = dir.join("engine.wal");
        let path = publish_snapshot(&crate::fs::RealFs, &jpath, &sample(1, 3)).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Truncations and a flipped payload byte must all be rejected.
        for cut in 0..good.len() {
            assert!(
                decode_snapshot_bytes(&good[..cut]).is_err(),
                "truncation to {cut} must not decode"
            );
        }
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(decode_snapshot_bytes(&flipped).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_snapshot_bytes(&trailing).is_err());
    }

    #[test]
    fn publish_is_atomic_under_every_fault_site() {
        // Whatever site a fault hits, the final name holds either
        // nothing or a complete, decodable snapshot.
        for kind in FAULT_KINDS {
            for site in 0..4u64 {
                let dir = ScratchDir::new("snap-atomic");
                let jpath = dir.join("engine.wal");
                let fs = FaultFs::new(site, kind);
                let snap = sample(1, 5);
                let result = publish_snapshot(&fs, &jpath, &snap);
                let final_path = snapshot_path(&jpath, 1);
                match result {
                    Ok(p) => assert_eq!(load_snapshot(&p).unwrap(), snap),
                    Err(_) => {
                        if final_path.exists() {
                            assert_eq!(
                                load_snapshot(&final_path).unwrap(),
                                snap,
                                "{kind} at site {site}: a file under the final name must be \
                                 complete"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scan_orders_newest_first_and_ignores_debris() {
        let dir = ScratchDir::new("snap-scan");
        let jpath = dir.join("engine.wal");
        for gen in [1u64, 3, 2] {
            publish_snapshot(&crate::fs::RealFs, &jpath, &sample(gen, gen * 10)).unwrap();
        }
        std::fs::write(sibling(&snapshot_path(&jpath, 4), "tmp"), b"junk").unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"junk").unwrap();
        let gens: Vec<u64> = scan_snapshots(&jpath).into_iter().map(|(g, _)| g).collect();
        assert_eq!(gens, vec![3, 2, 1]);
    }

    #[test]
    fn prune_keeps_current_and_previous_generations() {
        let dir = ScratchDir::new("snap-prune");
        let jpath = dir.join("engine.wal");
        for gen in 1..=4u64 {
            publish_snapshot(&crate::fs::RealFs, &jpath, &sample(gen, gen)).unwrap();
        }
        prune_snapshots(&crate::fs::RealFs, &jpath, 4);
        let gens: Vec<u64> = scan_snapshots(&jpath).into_iter().map(|(g, _)| g).collect();
        assert_eq!(gens, vec![4, 3]);
    }

    #[test]
    fn recover_prefers_newest_snapshot_and_replays_only_the_tail() {
        let dir = ScratchDir::new("snap-recover_tail");
        let jpath = dir.join("engine.wal");
        let mut j = Journal::create(&jpath).unwrap();
        j.append_batch(&[Op::Admit(admit("a"))]).unwrap();
        j.append_batch(&[Op::Admit(admit("b"))]).unwrap();
        let snap = Snapshot {
            gen: 1,
            seq: 2,
            base_flows: 0,
            admits: vec![admit("a"), admit("b")],
        };
        publish_snapshot(&crate::fs::RealFs, &jpath, &snap).unwrap();
        j.rotate(1, 2).unwrap();
        j.append_batch(&[Op::Release { name: "a".into() }]).unwrap();
        drop(j);
        let r = recover(&jpath, crate::fs::real()).unwrap();
        assert_eq!(r.snapshot.as_ref().map(|s| (s.gen, s.seq)), Some((1, 2)));
        assert_eq!(r.tail_ops, vec![Op::Release { name: "a".into() }]);
        assert_eq!(r.committed_seq, 3);
        assert_eq!(r.gen, 1);
        assert_eq!(r.snapshots_skipped, 0);
    }

    #[test]
    fn recover_falls_back_past_a_torn_snapshot() {
        let dir = ScratchDir::new("snap-recover_torn");
        let jpath = dir.join("engine.wal");
        let mut j = Journal::create(&jpath).unwrap();
        j.append_batch(&[Op::Admit(admit("a"))]).unwrap();
        publish_snapshot(
            &crate::fs::RealFs,
            &jpath,
            &Snapshot {
                gen: 1,
                seq: 1,
                base_flows: 0,
                admits: vec![admit("a")],
            },
        )
        .unwrap();
        j.append_batch(&[Op::Admit(admit("b"))]).unwrap();
        drop(j);
        // Generation 2 exists but is torn: recovery must fall back to
        // generation 1 and replay the one op past it.
        std::fs::write(snapshot_path(&jpath, 2), b"DNCS1\n torn").unwrap();
        let r = recover(&jpath, crate::fs::real()).unwrap();
        assert_eq!(r.snapshot.as_ref().map(|s| s.gen), Some(1));
        assert_eq!(r.tail_ops, vec![Op::Admit(admit("b"))]);
        assert_eq!(r.snapshots_skipped, 1);
        assert_eq!(r.gen, 2, "the torn generation still reserves its number");
    }

    #[test]
    fn recover_stitches_prev_segment_after_mid_rotation_crash() {
        // Crash window: snapshot published, journal moved aside, fresh
        // segment never renamed in. The active journal is missing; the
        // `.prev` segment plus the snapshot must reconstruct state.
        let dir = ScratchDir::new("snap-recover_stitch");
        let jpath = dir.join("engine.wal");
        let mut j = Journal::create(&jpath).unwrap();
        j.append_batch(&[Op::Admit(admit("a"))]).unwrap();
        j.append_batch(&[Op::Admit(admit("b"))]).unwrap();
        publish_snapshot(
            &crate::fs::RealFs,
            &jpath,
            &Snapshot {
                gen: 1,
                seq: 2,
                base_flows: 0,
                admits: vec![admit("a"), admit("b")],
            },
        )
        .unwrap();
        drop(j);
        std::fs::rename(&jpath, sibling(&jpath, "prev")).unwrap();
        std::fs::write(sibling(&jpath, "new"), b"DNC").unwrap(); // torn staging
        let r = recover(&jpath, crate::fs::real()).unwrap();
        assert_eq!(r.snapshot.as_ref().map(|s| (s.gen, s.seq)), Some((1, 2)));
        assert!(r.tail_ops.is_empty());
        assert_eq!(r.committed_seq, 2);
        assert!(!sibling(&jpath, "new").exists(), "staging must be cleaned");
        // The re-created journal accepts appends and carries the epoch.
        let mut j = r.journal;
        j.append_batch(&[Op::Release { name: "a".into() }]).unwrap();
        drop(j);
        let again = recover(&jpath, crate::fs::real()).unwrap();
        assert_eq!(again.committed_seq, 3);
        assert_eq!(again.tail_ops, vec![Op::Release { name: "a".into() }]);
    }

    #[test]
    fn recover_uses_prev_segment_when_snapshot_lands_inside_it() {
        // Crash window: rotation completed but the *next* snapshot was
        // never taken — the newest snapshot's seq falls inside `.prev`.
        // (Normally the snapshot seq equals the rotation point; this
        // exercises the general stitch.)
        let dir = ScratchDir::new("snap-recover_prev_mid");
        let jpath = dir.join("engine.wal");
        let mut j = Journal::create(&jpath).unwrap();
        j.append_batch(&[Op::Admit(admit("a"))]).unwrap();
        publish_snapshot(
            &crate::fs::RealFs,
            &jpath,
            &Snapshot {
                gen: 1,
                seq: 1,
                base_flows: 0,
                admits: vec![admit("a")],
            },
        )
        .unwrap();
        j.append_batch(&[Op::Admit(admit("b"))]).unwrap();
        j.rotate(2, 2).unwrap();
        j.append_batch(&[Op::Release { name: "a".into() }]).unwrap();
        drop(j);
        // Remove the gen-2 snapshot? There is none: rotate(2, 2) was
        // called without publishing gen 2, so gen 1 must stitch across
        // `.prev` (op "b") into the active tail (release "a").
        let r = recover(&jpath, crate::fs::real()).unwrap();
        assert_eq!(r.snapshot.as_ref().map(|s| s.gen), Some(1));
        assert_eq!(
            r.tail_ops,
            vec![Op::Admit(admit("b")), Op::Release { name: "a".into() },]
        );
        assert_eq!(r.committed_seq, 3);
        assert_eq!(r.gen, 2, "journal epoch advances the generation");
    }

    #[test]
    fn recover_refuses_a_tail_segment_with_no_covering_snapshot() {
        let dir = ScratchDir::new("snap-recover_refuse");
        let jpath = dir.join("engine.wal");
        let mut j = Journal::create_at(&jpath, crate::fs::real(), 3, 40).unwrap();
        j.append_batch(&[Op::Admit(admit("z"))]).unwrap();
        drop(j);
        match recover(&jpath, crate::fs::real()) {
            Err(RecoverError::Layout(_)) => {}
            other => panic!("must refuse, got {other:?}"),
        }
    }

    #[test]
    fn recover_full_replay_when_no_snapshot_exists() {
        let dir = ScratchDir::new("snap-recover_full");
        let jpath = dir.join("engine.wal");
        let mut j = Journal::create(&jpath).unwrap();
        j.append_batch(&[Op::Admit(admit("a"))]).unwrap();
        j.append_batch(&[Op::Release { name: "a".into() }]).unwrap();
        drop(j);
        let r = recover(&jpath, crate::fs::real()).unwrap();
        assert!(r.snapshot.is_none());
        assert_eq!(r.tail_ops.len(), 2);
        assert_eq!(r.committed_seq, 2);
        assert_eq!(r.gen, 0);
    }

    #[test]
    fn faulted_publish_leaves_state_recoverable() {
        // Run publish+rotate under a fault at every site; afterwards a
        // real-backend recovery must still see both committed ops.
        for kind in FAULT_KINDS {
            for site in 0..12u64 {
                let dir = ScratchDir::new("snap-faulted_pub");
                let jpath = dir.join("engine.wal");
                let mut j = Journal::create(&jpath).unwrap();
                j.append_batch(&[Op::Admit(admit("a"))]).unwrap();
                j.append_batch(&[Op::Admit(admit("b"))]).unwrap();
                drop(j);
                let fs: crate::fs::StorageHandle = Arc::new(FaultFs::new(site, kind));
                let (mut j, _) = Journal::resume_with(&jpath, fs.clone()).unwrap();
                let snap = Snapshot {
                    gen: 1,
                    seq: 2,
                    base_flows: 0,
                    admits: vec![admit("a"), admit("b")],
                };
                let published = publish_snapshot(fs.as_ref(), &jpath, &snap);
                if published.is_ok() {
                    let _ = j.rotate(1, 2);
                }
                drop(j);
                let r = recover(&jpath, crate::fs::real())
                    .unwrap_or_else(|e| panic!("{kind} at site {site}: recovery failed: {e}"));
                assert_eq!(
                    r.committed_seq, 2,
                    "{kind} at site {site}: committed ops lost"
                );
                let mut state: Vec<AdmitRequest> = r.snapshot.map(|s| s.admits).unwrap_or_default();
                for op in &r.tail_ops {
                    match op {
                        Op::Admit(a) => state.push(a.clone()),
                        Op::Release { name } => state.retain(|a| &a.name != name),
                    }
                }
                assert_eq!(state, vec![admit("a"), admit("b")], "{kind} at site {site}");
            }
        }
    }

    #[test]
    fn recover_handles_fresh_directory() {
        let dir = ScratchDir::new("snap-recover_fresh");
        let jpath = dir.join("engine.wal");
        let r = recover(&jpath, crate::fs::real()).unwrap();
        assert!(r.snapshot.is_none());
        assert!(r.tail_ops.is_empty());
        assert_eq!(r.committed_seq, 0);
    }
}
