//! Write-ahead journal for the churn engine.
//!
//! Durability contract: every *committed* operation is appended to the
//! journal — length-prefixed, checksummed, and flushed — **before** the
//! engine acknowledges it. Recovery replays the journal against the same
//! base network and reconstructs the exact committed state; a torn or
//! corrupt tail (the bytes a crash left behind mid-append) is detected,
//! reported, and truncated rather than trusted.
//!
//! ## On-disk format
//!
//! ```text
//! +--------+  "DNCJ1\n" magic + version (6 bytes)
//! | header |
//! +--------+
//! | record |  u32 LE payload length
//! |        |  u32 LE CRC-32 (IEEE) of the payload bytes
//! |        |  payload: one or more UTF-8 operation lines (see `Op`)
//! +--------+
//! | ...    |
//! ```
//!
//! The payload is the text encoding produced by [`Op::encode`] /
//! consumed by [`Op::decode`] — human-greppable on purpose, and exact:
//! rationals round-trip through `Rat`'s `Display`/`FromStr`. The format
//! is dependency-free; the CRC-32 implementation lives in this module.
//!
//! A journal created by snapshot rotation additionally carries an
//! **epoch record** as its first record: the single line
//! `epoch <gen> <base_seq>`, marking that this file is the tail segment
//! starting after the `base_seq`-th committed operation, paired with
//! snapshot generation `gen` (see `snapshot.rs`). A journal without an
//! epoch record starts at generation 0, sequence 0 — the pre-rotation
//! format, which stays byte-identical.
//!
//! ## Storage faults and poisoning
//!
//! All write-side I/O goes through a [`StorageFs`](crate::fs::StorageFs)
//! backend (fault-injectable; see `fs.rs`). Once any append, flush, or
//! rotation step fails, the handle is **poisoned**: the in-memory write
//! offset can no longer be trusted to match the file, so every later
//! call fails with [`JournalError::Poisoned`] and the service must
//! fail-stop rather than acknowledge an operation of unknown
//! durability.
//!
//! ## Group commit
//!
//! [`Journal::append`] frames one op per record; the group-commit fast
//! path [`Journal::append_batch`] joins N encoded ops with `'\n'` into
//! a *single* record flushed by a *single* fsync, so a batch of
//! concurrent requests pays one disk round-trip instead of N. Replay
//! treats the record atomically: a torn or corrupt batch contributes
//! none of its ops, which is exactly the acknowledgment boundary — the
//! engine only acks a batch after its record is durable, so recovered
//! state is always a serial prefix of the acknowledged history.

use crate::fs::StorageHandle;
use dnc_net::ServerId;
use dnc_num::Rat;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Magic header: format name + version byte + newline (greppable).
const MAGIC: &[u8; 6] = b"DNCJ1\n";

/// Length of the magic header in bytes — exported so tools that slice
/// raw journal files (e.g. the churn harness's kill-point replayer)
/// stay in sync with the framing instead of hardcoding `6`.
pub const HEADER_LEN: usize = MAGIC.len();

/// Upper bound on one record's payload; anything larger is corruption,
/// not a request (routes and names are small).
const MAX_RECORD: u32 = 1 << 20;

/// An admission request as journaled: everything needed to rebuild the
/// flow deterministically against the base network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdmitOp {
    /// Engine-level connection name (no whitespace; unique while admitted).
    pub name: String,
    /// Route as server indices into the base network.
    pub route: Vec<ServerId>,
    /// Token buckets `(σ, ρ)`.
    pub buckets: Vec<(Rat, Rat)>,
    /// Optional peak-rate cap.
    pub peak: Option<Rat>,
    /// Priority for static-priority servers.
    pub priority: u8,
    /// The end-to-end deadline the admission certified.
    pub deadline: Rat,
}

/// One committed operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// A certified admission.
    Admit(AdmitOp),
    /// A certified release of a previously admitted connection.
    Release {
        /// The connection name as admitted.
        name: String,
    },
}

impl Op {
    /// Encode as one text line (no trailing newline). Stable format:
    ///
    /// `admit <name> deadline <d> prio <p> peak <r|-> route <i>... buckets <σ> <ρ> ...`
    /// `release <name>`
    pub fn encode(&self) -> String {
        match self {
            Op::Admit(a) => {
                use fmt::Write as _;
                let mut s = format!(
                    "admit {} deadline {} prio {} peak {}",
                    a.name,
                    a.deadline,
                    a.priority,
                    a.peak.map_or("-".to_string(), |p| p.to_string()),
                );
                let _ = write!(s, " route");
                for r in &a.route {
                    let _ = write!(s, " {}", r.0);
                }
                let _ = write!(s, " buckets");
                for (sigma, rho) in &a.buckets {
                    let _ = write!(s, " {sigma} {rho}");
                }
                s
            }
            Op::Release { name } => format!("release {name}"),
        }
    }

    /// Decode one line produced by [`Op::encode`].
    pub fn decode(line: &str) -> Result<Op, JournalError> {
        let bad = |m: &str| JournalError::BadRecord(format!("{m}: {line:?}"));
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("release") => {
                let name = toks.next().ok_or_else(|| bad("release without a name"))?;
                if toks.next().is_some() {
                    return Err(bad("trailing tokens after release"));
                }
                Ok(Op::Release {
                    name: name.to_string(),
                })
            }
            Some("admit") => {
                let name = toks
                    .next()
                    .ok_or_else(|| bad("admit without a name"))?
                    .to_string();
                expect_kw(&mut toks, "deadline", line)?;
                let deadline = parse_rat_tok(toks.next(), line)?;
                expect_kw(&mut toks, "prio", line)?;
                let priority: u8 = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("invalid priority"))?;
                expect_kw(&mut toks, "peak", line)?;
                let peak = match toks.next() {
                    Some("-") => None,
                    t => Some(parse_rat_tok(t, line)?),
                };
                expect_kw(&mut toks, "route", line)?;
                let mut route = Vec::new();
                let mut cursor = toks.next();
                while let Some(t) = cursor {
                    if t == "buckets" {
                        break;
                    }
                    let idx: usize = t.parse().map_err(|_| bad("invalid route server index"))?;
                    route.push(ServerId(idx));
                    cursor = toks.next();
                }
                if cursor != Some("buckets") {
                    return Err(bad("expected `buckets`"));
                }
                if route.is_empty() {
                    return Err(bad("empty route"));
                }
                let mut buckets = Vec::new();
                while let Some(sig) = toks.next() {
                    let sigma = parse_rat_tok(Some(sig), line)?;
                    let rho = parse_rat_tok(toks.next(), line)?;
                    buckets.push((sigma, rho));
                }
                if buckets.is_empty() {
                    return Err(bad("admit without buckets"));
                }
                Ok(Op::Admit(AdmitOp {
                    name,
                    route,
                    buckets,
                    peak,
                    priority,
                    deadline,
                }))
            }
            _ => Err(bad("unknown operation")),
        }
    }
}

fn expect_kw(
    toks: &mut std::str::SplitWhitespace<'_>,
    kw: &str,
    line: &str,
) -> Result<(), JournalError> {
    match toks.next() {
        Some(t) if t == kw => Ok(()),
        _ => Err(JournalError::BadRecord(format!(
            "expected `{kw}`: {line:?}"
        ))),
    }
}

fn parse_rat_tok(tok: Option<&str>, line: &str) -> Result<Rat, JournalError> {
    tok.and_then(|t| t.parse::<Rat>().ok())
        .ok_or_else(|| JournalError::BadRecord(format!("invalid rational in {line:?}")))
}

/// Errors raised by journal I/O and decoding.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file exists but does not start with the journal magic — not a
    /// torn tail, a different file entirely; refusing to touch it.
    BadHeader,
    /// A fully framed record failed to decode (programmer error or
    /// interior corruption past the CRC — never silently skipped).
    BadRecord(String),
    /// An earlier append, flush, or rotation failed; the in-memory
    /// offset no longer matches the file, so the handle fails every
    /// call — the fail-stop half of the durability contract.
    Poisoned(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadHeader => {
                write!(f, "not a dnc journal (bad magic); refusing to truncate")
            }
            JournalError::BadRecord(m) => write!(f, "undecodable journal record: {m}"),
            JournalError::Poisoned(why) => write!(
                f,
                "journal poisoned by an earlier storage failure ({why}); fail-stop"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// Why the valid prefix of a journal ended before the file did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TailDefect {
    /// Fewer bytes than one record frame remained.
    TornFrame,
    /// The length prefix exceeded [`MAX_RECORD`] or the remaining bytes.
    TornPayload,
    /// The checksum did not match the payload.
    ChecksumMismatch,
    /// The payload was not valid UTF-8 or not a decodable operation.
    Undecodable,
}

impl fmt::Display for TailDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TailDefect::TornFrame => write!(f, "torn record frame"),
            TailDefect::TornPayload => write!(f, "torn or oversized payload"),
            TailDefect::ChecksumMismatch => write!(f, "checksum mismatch"),
            TailDefect::Undecodable => write!(f, "undecodable payload"),
        }
    }
}

/// The result of replaying a journal file.
#[derive(Debug)]
pub struct Replay {
    /// Every operation in the valid prefix, in commit order.
    pub ops: Vec<Op>,
    /// Byte length of the valid prefix (header + intact records).
    pub valid_len: u64,
    /// The defect that ended the prefix, with the total file length —
    /// `None` when the whole file was intact.
    pub tail: Option<(TailDefect, u64)>,
    /// Snapshot generation from the epoch record (0 when absent).
    pub gen: u64,
    /// Committed operations preceding this file's first op — the
    /// sequence number the segment starts after (0 when absent).
    pub base_seq: u64,
}

impl Replay {
    /// The replay of a freshly created, empty journal.
    fn fresh() -> Replay {
        Replay {
            ops: Vec::new(),
            valid_len: HEADER_LEN as u64,
            tail: None,
            gen: 0,
            base_seq: 0,
        }
    }
}

/// Replay `path` without modifying it: decode the valid prefix, stop at
/// the first torn/corrupt record.
///
/// # Errors
/// I/O failures and a missing/incorrect magic header are errors; a
/// damaged *tail* is not (it is reported in [`Replay::tail`]).
pub fn replay(path: &Path) -> Result<Replay, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    replay_bytes(&bytes)
}

/// Replay an in-memory journal image (see [`replay`]).
fn replay_bytes(bytes: &[u8]) -> Result<Replay, JournalError> {
    if bytes.len() < MAGIC.len() || !bytes.starts_with(MAGIC) {
        return Err(JournalError::BadHeader);
    }
    let total = bytes.len() as u64;
    let mut ops = Vec::new();
    let mut offset = HEADER_LEN;
    let mut tail = None;
    let mut gen = 0u64;
    let mut base_seq = 0u64;
    loop {
        let rest = bytes.get(offset..).unwrap_or(&[]);
        if rest.is_empty() {
            break;
        }
        let defect = 'rec: {
            let (Some(len), Some(crc)) = (read_u32(rest, 0), read_u32(rest, 4)) else {
                break 'rec Some(TailDefect::TornFrame);
            };
            if len > MAX_RECORD {
                break 'rec Some(TailDefect::TornPayload);
            }
            let Some(payload) = rest.get(8..8 + len as usize) else {
                break 'rec Some(TailDefect::TornPayload);
            };
            if crc32(payload) != crc {
                break 'rec Some(TailDefect::ChecksumMismatch);
            }
            let Ok(text) = std::str::from_utf8(payload) else {
                break 'rec Some(TailDefect::Undecodable);
            };
            if offset == HEADER_LEN && text.starts_with("epoch") {
                // The rotation epoch may only ever be the first record;
                // anywhere else, `epoch` fails `Op::decode` below.
                let Some((g, s)) = parse_epoch(text) else {
                    break 'rec Some(TailDefect::Undecodable);
                };
                gen = g;
                base_seq = s;
            } else {
                // A record holds one op line, or a whole group-committed
                // batch of them. Decode all-or-nothing: one bad line
                // poisons the record, never a partial batch.
                let mut batch = Vec::new();
                for line in text.lines() {
                    let Ok(op) = Op::decode(line) else {
                        break 'rec Some(TailDefect::Undecodable);
                    };
                    batch.push(op);
                }
                if batch.is_empty() {
                    break 'rec Some(TailDefect::Undecodable);
                }
                ops.append(&mut batch);
            }
            offset += 8 + len as usize;
            None
        };
        if let Some(d) = defect {
            tail = Some((d, total));
            break;
        }
    }
    Ok(Replay {
        ops,
        valid_len: offset as u64,
        tail,
        gen,
        base_seq,
    })
}

pub(crate) fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    let b = buf.get(at..at + 4)?;
    let arr: [u8; 4] = b.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// The epoch record payload for a rotated journal segment.
fn epoch_payload(gen: u64, base_seq: u64) -> String {
    format!("epoch {gen} {base_seq}")
}

/// Parse `epoch <gen> <base_seq>` — exactly one line, exactly three
/// tokens.
fn parse_epoch(text: &str) -> Option<(u64, u64)> {
    if text.lines().count() != 1 {
        return None;
    }
    let mut toks = text.split_whitespace();
    if toks.next() != Some("epoch") {
        return None;
    }
    let gen = toks.next()?.parse().ok()?;
    let base_seq = toks.next()?.parse().ok()?;
    if toks.next().is_some() {
        return None;
    }
    Some((gen, base_seq))
}

/// Frame one record: u32 LE length, u32 LE CRC-32, payload bytes.
pub(crate) fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// `path`'s sibling named `<file_name>.<suffix>` in the same directory.
pub(crate) fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{suffix}"));
    path.with_file_name(name)
}

/// The directory whose entry table must be flushed for `path`'s
/// creation/rename/truncation to survive a crash.
pub(crate) fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// An append-only journal handle positioned at the end of its valid
/// prefix.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    fs: StorageHandle,
    poisoned: Option<String>,
}

impl Journal {
    /// Create a fresh journal at `path` (truncating any existing file)
    /// and write the header. Uses the production storage backend.
    pub fn create(path: &Path) -> Result<Journal, JournalError> {
        Journal::create_with(path, crate::fs::real())
    }

    /// [`Journal::create`] on an explicit storage backend.
    pub fn create_with(path: &Path, fs: StorageHandle) -> Result<Journal, JournalError> {
        Journal::create_at(path, fs, 0, 0)
    }

    /// Create a journal whose first record is the epoch
    /// `epoch <gen> <base_seq>` — the tail segment started by a
    /// snapshot rotation. Generation 0 / sequence 0 writes the bare
    /// header (the pre-rotation format).
    pub fn create_at(
        path: &Path,
        fs: StorageHandle,
        gen: u64,
        base_seq: u64,
    ) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut buf = MAGIC.to_vec();
        if gen > 0 || base_seq > 0 {
            buf.extend_from_slice(&frame_record(epoch_payload(gen, base_seq).as_bytes()));
        }
        fs.write(&mut file, &buf)?;
        fs.sync_data(&file)?;
        // The file's *data* being durable is not enough: until the
        // directory entry is flushed, a crash can forget the file ever
        // existed and recovery would silently start from nothing.
        fs.sync_dir(parent_dir(path))?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            fs,
            poisoned: None,
        })
    }

    /// Open an existing journal (or create one): replays the valid
    /// prefix, **truncates** any torn/corrupt tail, and positions the
    /// handle for appends. Returns the handle and the replay. Uses the
    /// production storage backend.
    pub fn resume(path: &Path) -> Result<(Journal, Replay), JournalError> {
        Journal::resume_with(path, crate::fs::real())
    }

    /// [`Journal::resume`] on an explicit storage backend.
    pub fn resume_with(path: &Path, fs: StorageHandle) -> Result<(Journal, Replay), JournalError> {
        if !path.exists() {
            let journal = Journal::create_with(path, fs)?;
            return Ok((journal, Replay::fresh()));
        }
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < MAGIC.len() && MAGIC.starts_with(&bytes) {
            // A crash mid-creation: the file holds a proper prefix of
            // the magic (possibly nothing). No record — in particular no
            // acknowledged op — can precede a complete header, so
            // recreating in place is safe. A *non-prefix* short file is
            // still refused as not-a-journal below.
            let journal = Journal::create_with(path, fs)?;
            return Ok((journal, Replay::fresh()));
        }
        let replay = replay_bytes(&bytes)?;
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut journal = Journal {
            file,
            path: path.to_path_buf(),
            fs,
            poisoned: None,
        };
        if replay.tail.is_some() {
            // The damaged tail is dead weight: a future append must not
            // leave it dangling past fresh records. Metadata (the new
            // length) must survive a crash too, or a re-crash during
            // recovery could resurrect the torn tail.
            journal.fs.set_len(&journal.file, replay.valid_len)?;
            journal.fs.sync_data(&journal.file)?;
            journal.fs.sync_dir(parent_dir(path))?;
        }
        journal.file.seek(SeekFrom::Start(replay.valid_len))?;
        Ok((journal, replay))
    }

    /// Append one committed operation and flush it to stable storage.
    /// Returns only after the record is durable.
    pub fn append(&mut self, op: &Op) -> Result<(), JournalError> {
        self.append_payload(&op.encode())
    }

    /// Append a whole batch of committed operations as **one** framed
    /// record flushed by **one** fsync — the group-commit fast path.
    ///
    /// The payload is the newline-joined [`Op::encode`] text of every
    /// op ([`Op::encode`] never emits a newline), so the batch lands in
    /// the journal in slice order — the order the engine certified the
    /// ops — and replays atomically: a torn batch contributes none of
    /// its ops. An empty batch writes nothing.
    pub fn append_batch(&mut self, ops: &[Op]) -> Result<(), JournalError> {
        if ops.is_empty() {
            return Ok(());
        }
        let payload = ops.iter().map(Op::encode).collect::<Vec<_>>().join("\n");
        self.append_payload(&payload)
    }

    /// Frame `payload`, write it, and fsync — the single durability
    /// point every acknowledgment path funnels through. Any storage
    /// failure poisons the handle: the write offset may be out of sync
    /// with the file, so no further append can be trusted.
    fn append_payload(&mut self, payload: &str) -> Result<(), JournalError> {
        if let Some(why) = &self.poisoned {
            return Err(JournalError::Poisoned(why.clone()));
        }
        let bytes = payload.as_bytes();
        let len = u32::try_from(bytes.len())
            .map_err(|_| JournalError::BadRecord("operation payload exceeds u32 length".into()))?;
        if len > MAX_RECORD {
            return Err(JournalError::BadRecord(
                "operation payload exceeds the record cap".into(),
            ));
        }
        let frame = frame_record(bytes);
        let flushed = self
            .fs
            .write(&mut self.file, &frame)
            .and_then(|()| self.fs.sync_data(&self.file));
        match flushed {
            Ok(()) => Ok(()),
            Err(e) => {
                self.poisoned = Some(e.to_string());
                Err(JournalError::Io(e))
            }
        }
    }

    /// Rotate this journal under a just-published snapshot at
    /// (`gen`, `base_seq`): the current file moves aside to
    /// `<path>.prev` and a fresh segment whose epoch record points past
    /// the snapshot takes its place — built complete at `<path>.new`,
    /// flushed, then atomically renamed in, so a crash at any step
    /// leaves either the old segment or a fully formed new one.
    ///
    /// Any failure poisons the handle (the file layout is in an
    /// intermediate state only recovery may interpret).
    pub fn rotate(&mut self, gen: u64, base_seq: u64) -> Result<(), JournalError> {
        if let Some(why) = &self.poisoned {
            return Err(JournalError::Poisoned(why.clone()));
        }
        match self.rotate_inner(gen, base_seq) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.poisoned = Some(e.to_string());
                Err(e)
            }
        }
    }

    fn rotate_inner(&mut self, gen: u64, base_seq: u64) -> Result<(), JournalError> {
        let dir = parent_dir(&self.path).to_path_buf();
        let prev = sibling(&self.path, "prev");
        self.fs.rename(&self.path, &prev)?;
        self.fs.sync_dir(&dir)?;
        let staging = sibling(&self.path, "new");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&staging)?;
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&frame_record(epoch_payload(gen, base_seq).as_bytes()));
        self.fs.write(&mut file, &buf)?;
        self.fs.sync_data(&file)?;
        self.fs.rename(&staging, &self.path)?;
        self.fs.sync_dir(&dir)?;
        // The handle follows the inode through the rename; its cursor
        // already sits at the end of the epoch record.
        self.file = file;
        Ok(())
    }

    /// Poison the handle from outside (e.g. a snapshot publish failed
    /// mid-protocol): every later call returns
    /// [`JournalError::Poisoned`].
    pub fn poison(&mut self, why: &str) {
        if self.poisoned.is_none() {
            self.poisoned = Some(why.to_string());
        }
    }

    /// Why the handle is poisoned, if it is.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// The storage backend this journal writes through.
    pub fn storage(&self) -> StorageHandle {
        self.fs.clone()
    }

    /// The path this journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the
/// classic table-driven implementation, dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = u32::MAX;
    for &b in bytes {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        let entry = TABLE.get(idx).copied().unwrap_or(0);
        crc = (crc >> 8) ^ entry;
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        // audit: allow(index, const-context loop with i < 256 over a [u32; 256]; slice::get is unusable for const assignment)
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{FaultFs, FaultKind, ScratchDir};
    use dnc_num::{int, rat};
    use std::sync::Arc;

    /// A fresh file path, valid while the returned directory lives.
    fn tmp(name: &str) -> (ScratchDir, PathBuf) {
        let dir = ScratchDir::new("journal");
        let path = dir.join(name);
        (dir, path)
    }

    fn sample_admit(name: &str) -> Op {
        Op::Admit(AdmitOp {
            name: name.into(),
            route: vec![ServerId(0), ServerId(2)],
            buckets: vec![(int(1), rat(1, 8)), (int(4), rat(1, 16))],
            peak: Some(int(1)),
            priority: 3,
            deadline: rat(25, 2),
        })
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn ops_round_trip_through_text() {
        for op in [
            sample_admit("video-7"),
            Op::Admit(AdmitOp {
                name: "x".into(),
                route: vec![ServerId(5)],
                buckets: vec![(int(2), rat(3, 7))],
                peak: None,
                priority: 0,
                deadline: int(100),
            }),
            Op::Release {
                name: "video-7".into(),
            },
        ] {
            let text = op.encode();
            assert_eq!(Op::decode(&text).unwrap(), op, "{text}");
        }
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        for bad in [
            "",
            "frobnicate x",
            "release",
            "epoch 1 2", // the epoch record is framing metadata, not an op
            "admit f deadline 3 prio 0 peak - route buckets 1 1/8", // empty route
            "admit f deadline 3 prio 0 peak - route 0 buckets", // no buckets
            "admit f deadline 3 prio 0 peak - route 0 buckets 1", // odd bucket
            "admit f deadline x prio 0 peak - route 0 buckets 1 1", // bad rat
        ] {
            assert!(Op::decode(bad).is_err(), "{bad:?} must not decode");
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let (_scratch, path) = tmp("round_trip.wal");
        let ops = vec![
            sample_admit("a"),
            sample_admit("b"),
            Op::Release { name: "a".into() },
        ];
        let mut j = Journal::create(&path).unwrap();
        for op in &ops {
            j.append(op).unwrap();
        }
        drop(j);
        let r = replay(&path).unwrap();
        assert_eq!(r.ops, ops);
        assert!(r.tail.is_none());
        assert_eq!((r.gen, r.base_seq), (0, 0));
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_at_every_offset() {
        let (_scratch, path) = tmp("torn.wal");
        let ops = vec![sample_admit("a"), Op::Release { name: "a".into() }];
        let mut j = Journal::create(&path).unwrap();
        for op in &ops {
            j.append(op).unwrap();
        }
        drop(j);
        let full = std::fs::read(&path).unwrap();
        // Truncating anywhere must recover a (possibly empty) prefix of
        // the committed ops, never garbage.
        for cut in MAGIC.len()..full.len() {
            let (_scratch, torn) = tmp("torn_cut.wal");
            std::fs::write(&torn, &full[..cut]).unwrap();
            let (journal, r) = Journal::resume(&torn).unwrap();
            assert!(r.ops.len() <= ops.len());
            assert_eq!(r.ops.as_slice(), &ops[..r.ops.len()], "cut at {cut}");
            if cut < full.len() {
                assert!(
                    r.tail.is_some() || r.valid_len == cut as u64,
                    "cut at {cut} must either flag a defect or end exactly on a boundary"
                );
            }
            // After truncation the file is the valid prefix, and appends
            // resume cleanly.
            drop(journal);
            assert_eq!(std::fs::metadata(&torn).unwrap().len(), r.valid_len);
            let (mut journal, _) = Journal::resume(&torn).unwrap();
            journal.append(&sample_admit("post-crash")).unwrap();
            let r2 = replay(&torn).unwrap();
            assert!(r2.tail.is_none());
            assert_eq!(r2.ops.last().unwrap(), &sample_admit("post-crash"));
        }
    }

    #[test]
    fn batch_append_replays_in_order_alongside_single_records() {
        let (_scratch, path) = tmp("batch_mix.wal");
        let mut j = Journal::create(&path).unwrap();
        j.append(&sample_admit("solo")).unwrap();
        let batch = vec![
            sample_admit("a"),
            sample_admit("b"),
            Op::Release { name: "a".into() },
        ];
        j.append_batch(&batch).unwrap();
        j.append(&Op::Release { name: "b".into() }).unwrap();
        drop(j);
        let r = replay(&path).unwrap();
        let mut want = vec![sample_admit("solo")];
        want.extend(batch);
        want.push(Op::Release { name: "b".into() });
        assert_eq!(r.ops, want);
        assert!(r.tail.is_none());
    }

    #[test]
    fn empty_batch_writes_nothing() {
        let (_scratch, path) = tmp("batch_empty.wal");
        let mut j = Journal::create(&path).unwrap();
        j.append_batch(&[]).unwrap();
        drop(j);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            MAGIC.len() as u64,
            "an empty batch must not frame an empty record"
        );
        let r = replay(&path).unwrap();
        assert!(r.ops.is_empty());
        assert!(r.tail.is_none());
    }

    #[test]
    fn torn_batch_is_dropped_wholesale() {
        let (_scratch, path) = tmp("batch_torn.wal");
        let mut j = Journal::create(&path).unwrap();
        j.append(&sample_admit("committed")).unwrap();
        let intact_len = std::fs::metadata(&path).unwrap().len();
        j.append_batch(&[sample_admit("x"), sample_admit("y"), sample_admit("z")])
            .unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        // Cut anywhere inside the batch record: either the whole batch
        // survives (no cut) or none of it does — never x without z.
        for cut in intact_len as usize..full.len() {
            let (_scratch, torn) = tmp("batch_torn_cut.wal");
            std::fs::write(&torn, &full[..cut]).unwrap();
            let r = replay(&torn).unwrap();
            assert_eq!(
                r.ops,
                vec![sample_admit("committed")],
                "cut at {cut} leaked a partial batch"
            );
            assert!(
                r.tail.is_some() || cut as u64 == intact_len,
                "cut at {cut} must flag a defect"
            );
            assert_eq!(r.valid_len, intact_len);
        }
    }

    #[test]
    fn batch_with_one_bad_line_is_atomic_poison() {
        let (_scratch, path) = tmp("batch_poison.wal");
        let mut j = Journal::create(&path).unwrap();
        j.append(&sample_admit("good")).unwrap();
        drop(j);
        // Hand-frame a batch whose second line does not decode: the CRC
        // is valid, so only the all-or-nothing decode rule rejects it.
        let payload = b"release good\nfrobnicate nonsense";
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.ops, vec![sample_admit("good")]);
        assert_eq!(
            r.tail.as_ref().map(|(d, _)| d.clone()),
            Some(TailDefect::Undecodable)
        );
    }

    #[test]
    fn empty_payload_record_is_a_defect() {
        let (_scratch, path) = tmp("empty_record.wal");
        let mut j = Journal::create(&path).unwrap();
        j.append(&sample_admit("a")).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&crc32(b"").to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.ops, vec![sample_admit("a")]);
        assert_eq!(
            r.tail.as_ref().map(|(d, _)| d.clone()),
            Some(TailDefect::Undecodable)
        );
    }

    #[test]
    fn corrupt_byte_in_tail_record_is_dropped() {
        let (_scratch, path) = tmp("corrupt.wal");
        let mut j = Journal::create(&path).unwrap();
        j.append(&sample_admit("a")).unwrap();
        j.append(&sample_admit("b")).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3; // inside record b's payload
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.ops, vec![sample_admit("a")]);
        assert_eq!(
            r.tail.as_ref().map(|(d, _)| d.clone()),
            Some(TailDefect::ChecksumMismatch)
        );
    }

    #[test]
    fn non_journal_file_is_refused() {
        let (_scratch, path) = tmp("not_a_journal.txt");
        std::fs::write(&path, b"hello world, definitely not a journal").unwrap();
        assert!(matches!(replay(&path), Err(JournalError::BadHeader)));
        assert!(matches!(
            Journal::resume(&path),
            Err(JournalError::BadHeader)
        ));
        // The impostor file is untouched.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"hello world, definitely not a journal"
        );
        // A short file that is NOT a magic prefix is refused too.
        let (_scratch, short) = tmp("short_impostor.txt");
        std::fs::write(&short, b"DNX").unwrap();
        assert!(matches!(
            Journal::resume(&short),
            Err(JournalError::BadHeader)
        ));
    }

    #[test]
    fn oversized_length_prefix_is_a_torn_payload() {
        let (_scratch, path) = tmp("oversized.wal");
        let mut j = Journal::create(&path).unwrap();
        j.append(&sample_admit("a")).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Append a frame claiming a huge payload.
        bytes.extend_from_slice(&(MAX_RECORD + 1).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.ops.len(), 1);
        assert_eq!(
            r.tail.as_ref().map(|(d, _)| d.clone()),
            Some(TailDefect::TornPayload)
        );
    }

    #[test]
    fn crash_during_creation_resumes_as_a_fresh_journal() {
        // Every proper prefix of the magic — including the empty file a
        // crash-before-first-write leaves — recreates in place.
        for cut in 0..MAGIC.len() {
            let (_scratch, path) = tmp("torn_create.wal");
            std::fs::write(&path, &MAGIC[..cut]).unwrap();
            let (mut j, r) = Journal::resume(&path).unwrap();
            assert!(r.ops.is_empty(), "cut at {cut}");
            assert_eq!(r.valid_len, MAGIC.len() as u64);
            j.append(&sample_admit("a")).unwrap();
            drop(j);
            assert_eq!(replay(&path).unwrap().ops.len(), 1);
        }
    }

    #[test]
    fn failed_append_poisons_the_handle() {
        // Regression: a short write used to leave the in-memory offset
        // out of sync with the file while later appends kept going.
        // Creation consumes sites 0..3 (write, sync_data, sync_dir);
        // site 3 is the first append's write.
        let (_scratch, path) = tmp("poisoned.wal");
        let fs = Arc::new(FaultFs::new(3, FaultKind::ShortWrite));
        let mut j = Journal::create_with(&path, fs).unwrap();
        let first = j.append(&sample_admit("a"));
        assert!(matches!(first, Err(JournalError::Io(_))), "{first:?}");
        assert!(j.poisoned().is_some());
        // Every subsequent call fails without touching the file.
        for _ in 0..2 {
            let again = j.append(&sample_admit("b"));
            assert!(matches!(again, Err(JournalError::Poisoned(_))), "{again:?}");
        }
        let batch = j.append_batch(&[sample_admit("c")]);
        assert!(matches!(batch, Err(JournalError::Poisoned(_))));
        assert!(matches!(j.rotate(1, 1), Err(JournalError::Poisoned(_))));
        drop(j);
        // The torn record is detected and truncated by recovery.
        let (_, r) = Journal::resume(&path).unwrap();
        assert!(r.ops.is_empty());
        assert_eq!(r.valid_len, MAGIC.len() as u64);
    }

    #[test]
    fn failed_fsync_poisons_the_handle_too() {
        // Site 4 is the first append's sync_data: the bytes hit the
        // file but durability is unknown — still fail-stop.
        let (_scratch, path) = tmp("poisoned_sync.wal");
        let fs = Arc::new(FaultFs::new(4, FaultKind::Eio));
        let mut j = Journal::create_with(&path, fs).unwrap();
        assert!(matches!(
            j.append(&sample_admit("a")),
            Err(JournalError::Io(_))
        ));
        assert!(matches!(
            j.append(&sample_admit("b")),
            Err(JournalError::Poisoned(_))
        ));
    }

    #[test]
    fn epoch_record_round_trips_and_survives_appends() {
        let (_scratch, path) = tmp("epoch.wal");
        let mut j = Journal::create_at(&path, crate::fs::real(), 3, 17).unwrap();
        j.append(&sample_admit("a")).unwrap();
        drop(j);
        let r = replay(&path).unwrap();
        assert_eq!((r.gen, r.base_seq), (3, 17));
        assert_eq!(r.ops.len(), 1);
        assert!(r.tail.is_none());
        // Resume lands after the epoch and keeps appending.
        let (mut j, r) = Journal::resume(&path).unwrap();
        assert_eq!((r.gen, r.base_seq), (3, 17));
        j.append(&Op::Release { name: "a".into() }).unwrap();
        drop(j);
        assert_eq!(replay(&path).unwrap().ops.len(), 2);
    }

    #[test]
    fn rotation_moves_the_segment_aside_and_starts_a_fresh_epoch() {
        let (_scratch, path) = tmp("rotate.wal");
        let mut j = Journal::create(&path).unwrap();
        j.append(&sample_admit("a")).unwrap();
        j.append(&sample_admit("b")).unwrap();
        j.rotate(1, 2).unwrap();
        j.append(&Op::Release { name: "a".into() }).unwrap();
        drop(j);
        let prev = replay(&sibling(&path, "prev")).unwrap();
        assert_eq!(prev.ops.len(), 2);
        assert_eq!((prev.gen, prev.base_seq), (0, 0));
        let active = replay(&path).unwrap();
        assert_eq!((active.gen, active.base_seq), (1, 2));
        assert_eq!(active.ops, vec![Op::Release { name: "a".into() }]);
    }

    #[test]
    fn epoch_after_first_record_is_a_defect() {
        let (_scratch, path) = tmp("late_epoch.wal");
        let mut j = Journal::create(&path).unwrap();
        j.append(&sample_admit("a")).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame_record(b"epoch 1 1"));
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.ops.len(), 1);
        assert_eq!(
            r.tail.as_ref().map(|(d, _)| d.clone()),
            Some(TailDefect::Undecodable)
        );
    }
}
