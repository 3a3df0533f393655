//! Open-loop load generator: one thread, two connections.
//!
//! Requests are due on a fixed schedule (`rate` per second, alternating
//! connections) and are sent when due whatever the server is doing, so a
//! stall makes later requests wait; each request's latency is timed from
//! its due time to the arrival of its reply line. A saturation phase
//! follows, in which each connection keeps a fixed window in flight.
//!
//! The thread sleeps in `ppoll(2)` until the next due time or a socket is
//! ready, so it neither spins (the machine has two cores, one of which
//! the server needs) nor quantizes reply times to a sleep granularity.

use crate::util::Rng;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Which traffic a run offers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Admit/release churn over `dnc tandem 12 3/10`: admits cover 1–3
    /// consecutive hops with σ∈1..4, ρ∈{1,2,3}/40, deadline 4..120.
    Tandem,
    /// Each connection alternates `admit … bucket 1 1/4096 deadline
    /// 1000` with the release of its own last admitted name. When a
    /// release is due in the fixed-rate phase but the connection already
    /// has [`COMMIT_CAP`] admits unanswered, it sends a read-only `query`
    /// instead, so a stall cannot snowball into hundreds of live
    /// connections.
    Commit,
}

/// Unanswered admits a commit-mix connection may have outstanding.
pub const COMMIT_CAP: usize = 2;

/// Servers in the `admit-tandem` base network.
pub const TANDEM_N: u64 = 12;

/// Turns the seed into a stream of request intents. A release names
/// only a connection whose `ADMIT` reply has already arrived, so which
/// name it picks depends on replies; the decisions themselves (admit or
/// release, every admit parameter, which pooled name) come from the seed.
pub struct Gen {
    mix: Mix,
    rng: Rng,
    prefix: &'static str,
    next: u64,
    /// Acknowledged, not yet released names (tandem: shared by both
    /// connections; commit: per connection).
    pools: [Vec<String>; 2],
    /// Admits sent and not yet answered, per connection.
    unanswered: [usize; 2],
    /// The commit mix's cap on `unanswered` (lifted in the saturation
    /// phase, whose window already bounds it).
    cap: usize,
}

/// What one request does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Admit,
    Release,
    Query,
}

impl Gen {
    /// `pool` holds already-admitted names the tandem mix may release.
    pub fn new(mix: Mix, seed: u64, prefix: &'static str, pool: Vec<String>) -> Gen {
        Gen {
            mix,
            rng: Rng::new(seed),
            prefix,
            next: 0,
            pools: [pool, Vec::new()],
            unanswered: [0, 0],
            cap: COMMIT_CAP,
        }
    }

    /// The next request for connection `conn`: (kind, name, line).
    pub fn make(&mut self, conn: usize) -> (Kind, String, String) {
        let made = self.pick(conn);
        if made.0 == Kind::Admit {
            self.unanswered[conn] += 1;
        }
        made
    }

    fn pick(&mut self, conn: usize) -> (Kind, String, String) {
        match self.mix {
            Mix::Tandem => {
                let coin = self.rng.below(2);
                let pick = self.rng.next_u64() as usize;
                let pool = &mut self.pools[0];
                if coin == 0 && !pool.is_empty() {
                    let name = pool.swap_remove(pick % pool.len());
                    let line = format!("release {name}");
                    return (Kind::Release, name, line);
                }
                let hops = self.rng.range(1, 3);
                let first = self.rng.range(0, TANDEM_N - hops);
                let route: Vec<String> = (first..first + hops).map(|j| format!("L{j}")).collect();
                let sigma = self.rng.range(1, 4);
                let rho = self.rng.range(1, 3);
                let deadline = self.rng.range(4, 120);
                let name = self.fresh();
                let line = format!(
                    "admit {name} route {} bucket {sigma} {rho}/40 deadline {deadline}",
                    route.join(" ")
                );
                (Kind::Admit, name, line)
            }
            Mix::Commit => {
                let pool = &mut self.pools[conn];
                if !pool.is_empty() {
                    let name = pool.remove(0);
                    let line = format!("release {name}");
                    return (Kind::Release, name, line);
                }
                if self.unanswered[conn] >= self.cap {
                    return (Kind::Query, String::new(), "query".to_string());
                }
                let name = self.fresh();
                let line = format!("admit {name} route S0 bucket 1 1/4096 deadline 1000");
                (Kind::Admit, name, line)
            }
        }
    }

    fn fresh(&mut self) -> String {
        self.next += 1;
        format!("{}{}", self.prefix, self.next)
    }

    /// Learn from a reply: an acknowledged admit becomes releasable.
    pub fn on_reply(&mut self, conn: usize, kind: Kind, name: &str, reply: &str) {
        if kind == Kind::Admit {
            self.unanswered[conn] = self.unanswered[conn].saturating_sub(1);
        }
        if kind == Kind::Admit && reply.starts_with("ADMIT ") {
            let pool = match self.mix {
                Mix::Tandem => 0,
                Mix::Commit => conn,
            };
            self.pools[pool].push(name.to_string());
        }
    }
}

/// How a request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    Admitted,
    Rejected,
    Released,
    Queried,
    Refused,
    Shed,
    Err,
    /// The reply named another request, or a reply came with nothing
    /// outstanding.
    Mismatch,
    Unanswered,
}

impl Fate {
    pub fn failed(self) -> bool {
        !matches!(
            self,
            Fate::Admitted | Fate::Rejected | Fate::Released | Fate::Queried
        )
    }
}

/// One request as the generator saw it. Times are offsets from the
/// run's start.
#[derive(Clone, Debug)]
pub struct Record {
    pub kind: Kind,
    pub name: String,
    /// 0 = fixed-rate phase, 1 = saturation phase.
    pub phase: u8,
    pub due: Duration,
    pub sent: Duration,
    pub reply_at: Option<Duration>,
    pub fate: Fate,
}

/// The run's shape.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Offered rate of the fixed-rate phase, requests per second.
    pub rate: f64,
    pub fixed: Duration,
    pub sat: Duration,
    /// Requests in flight per connection in the saturation phase.
    pub window: usize,
    /// How long to wait for stragglers after the last phase.
    pub drain: Duration,
}

/// What the generator measured.
pub struct LoadResult {
    pub records: Vec<Record>,
    /// Replies per second in the saturation phase: the median over
    /// [`SAT_BIN`]-long bins, so one stall does not swing it.
    pub sat_ops_s: f64,
    /// Stray reply lines with nothing outstanding.
    pub extra_replies: u64,
    /// Connections the server closed or broke before the run ended.
    pub lost_conns: usize,
}

/// Bin width for counting saturation-phase replies.
pub const SAT_BIN: Duration = Duration::from_millis(250);

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // Linux, 64-bit: `nfds_t` is `unsigned long`, `time_t` and `long`
    // are 64-bit, matching `Timespec`.
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

/// Ask the kernel to acknowledge received data at once (`TCP_QUICKACK`)
/// instead of delaying the ACK. `dnc serve` does not set `TCP_NODELAY`,
/// so with delayed ACKs here Nagle's algorithm holds a reply until the
/// connection's next request carries the ACK, and latencies cluster at
/// the per-connection send interval. Linux clears the flag on its own,
/// so it is re-armed after every read.
fn quickack(stream: &TcpStream) {
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: the descriptor is open for the borrow of `stream`, and
    // `on` is a live `int` whose size is passed as the option length.
    // Failure only loses the hint, so the result is ignored.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4);
    }
}

/// Wait until a socket in `fds` is ready or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `PollFd`
    // (layout-compatible with `struct pollfd`) whose length is passed as
    // `nfds`; `ts` outlives the call; a null sigmask means "no change".
    // The result is not needed: readiness is re-checked by nonblocking
    // reads and writes, and EINTR just ends the wait early.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    /// Indices into the records, in send order.
    pending: VecDeque<usize>,
}

fn classify(reply: &str, kind: Kind, name: &str) -> Fate {
    let mut t = reply.split_whitespace();
    let tag = t.next().unwrap_or("");
    let who = t.next().unwrap_or("").trim_end_matches(':');
    match tag {
        "SHED" => return Fate::Shed,
        "ERR" => return Fate::Err,
        _ => {}
    }
    if kind == Kind::Query {
        return if tag == "QUERY" {
            Fate::Queried
        } else {
            Fate::Mismatch
        };
    }
    if who != name {
        return Fate::Mismatch;
    }
    match (kind, tag) {
        (Kind::Admit, "ADMIT") => Fate::Admitted,
        (Kind::Admit, "REJECT") => Fate::Rejected,
        (Kind::Release, "RELEASE") if reply.contains(": refused") => Fate::Refused,
        (Kind::Release, "RELEASE") => Fate::Released,
        _ => Fate::Mismatch,
    }
}

/// Drive `plan` against the server at `addr`, calling `at_fixed_end`
/// once when the fixed-rate phase is over.
///
/// # Errors
/// Connection setup failures. A connection lost mid-run is counted in
/// [`LoadResult::lost_conns`]; its outstanding requests, and every
/// fixed-rate request that falls due on it afterwards, stay `Unanswered`.
pub fn drive(
    addr: SocketAddr,
    gen: &mut Gen,
    plan: Plan,
    at_fixed_end: &mut dyn FnMut(),
) -> Result<LoadResult, String> {
    let mut conns = Vec::new();
    for _ in 0..2 {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        quickack(&stream);
        conns.push(Conn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            pending: VecDeque::new(),
        });
    }
    let mut records: Vec<Record> = Vec::new();
    let mut extra = 0u64;
    let mut alive = [true, true];
    let t0 = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / plan.rate);
    let fixed_end = plan.fixed;
    let sat_end = plan.fixed + plan.sat;
    let mut k: u32 = 0;
    let bins = (plan.sat.as_nanos() / SAT_BIN.as_nanos()).max(1) as usize;
    let mut sat_replies = vec![0u64; bins];
    let mut buf = vec![0u8; 1 << 16];
    let mut fixed_done = false;

    // A request due on a lost connection is still recorded, unsent and
    // `Unanswered`, so lost load shows as failures instead of vanishing.
    let issue = |conns: &mut Vec<Conn>,
                 records: &mut Vec<Record>,
                 gen: &mut Gen,
                 alive: bool,
                 conn: usize,
                 phase: u8,
                 due: Duration| {
        let (kind, name, line) = gen.make(conn);
        let sent = if alive { t0.elapsed() } else { due };
        if alive {
            let c = &mut conns[conn];
            c.out.extend_from_slice(line.as_bytes());
            c.out.push(b'\n');
            c.pending.push_back(records.len());
        }
        records.push(Record {
            kind,
            name,
            phase,
            due,
            sent,
            reply_at: None,
            fate: Fate::Unanswered,
        });
        // Hand the bytes over now, so `sent` is when they left.
        if alive {
            flush(&mut conns[conn]);
        }
    };

    loop {
        let now = t0.elapsed();
        // Fixed-rate phase: everything that has fallen due.
        loop {
            let due = interval * k;
            if due > now || due >= fixed_end {
                break;
            }
            let conn = (k % 2) as usize;
            issue(&mut conns, &mut records, gen, alive[conn], conn, 0, due);
            k += 1;
        }
        if now >= fixed_end && !fixed_done {
            fixed_done = true;
            gen.cap = usize::MAX;
            at_fixed_end();
        }
        // Saturation phase: top every window up.
        if now >= fixed_end && now < sat_end {
            for conn in 0..2 {
                while alive[conn] && conns[conn].pending.len() < plan.window {
                    issue(&mut conns, &mut records, gen, true, conn, 1, now);
                }
            }
        }
        // Read whatever replies have arrived.
        for (ci, c) in conns.iter_mut().enumerate() {
            if !alive[ci] {
                continue;
            }
            flush(c);
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => {
                        alive[ci] = false;
                        break;
                    }
                    Ok(n) => {
                        let at = t0.elapsed();
                        quickack(&c.stream);
                        c.inbuf.extend_from_slice(&buf[..n]);
                        while let Some(pos) = c.inbuf.iter().position(|&b| b == b'\n') {
                            let line: Vec<u8> = c.inbuf.drain(..=pos).collect();
                            let line = String::from_utf8_lossy(&line).trim().to_string();
                            let Some(idx) = c.pending.pop_front() else {
                                extra += 1;
                                continue;
                            };
                            let r = &mut records[idx];
                            r.reply_at = Some(at);
                            r.fate = classify(&line, r.kind, &r.name);
                            gen.on_reply(ci, r.kind, &r.name, &line);
                            if at >= fixed_end && at < sat_end {
                                let bin =
                                    ((at - fixed_end).as_nanos() / SAT_BIN.as_nanos()) as usize;
                                if let Some(b) = sat_replies.get_mut(bin) {
                                    *b += 1;
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        alive[ci] = false;
                        break;
                    }
                }
            }
        }
        let now = t0.elapsed();
        let outstanding: usize = conns.iter().map(|c| c.pending.len()).sum();
        if now >= sat_end && (outstanding == 0 || now >= sat_end + plan.drain) {
            break;
        }
        if !alive.iter().any(|a| *a) {
            // Nothing can be sent any more: the rest of the fixed-rate
            // schedule is lost load.
            while interval * k < fixed_end {
                let conn = (k % 2) as usize;
                issue(&mut conns, &mut records, gen, false, conn, 0, interval * k);
                k += 1;
            }
            break;
        }
        // Sleep until the next due time (fixed phase) or a reply.
        let next = if now < fixed_end {
            (interval * k).saturating_sub(now)
        } else if now < sat_end {
            sat_end - now
        } else {
            (sat_end + plan.drain).saturating_sub(now)
        };
        let mut fds: Vec<PollFd> = conns
            .iter()
            .zip(alive)
            .map(|(c, up)| PollFd {
                // A negative descriptor is ignored, so a closed
                // connection does not wake the poll at once, every time.
                fd: if up { c.stream.as_raw_fd() } else { -1 },
                events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        wait(&mut fds, next.min(Duration::from_millis(50)));
    }
    Ok(LoadResult {
        records,
        sat_ops_s: crate::util::median(
            &sat_replies
                .iter()
                .map(|&n| n as f64 / SAT_BIN.as_secs_f64())
                .collect::<Vec<_>>(),
        ),
        extra_replies: extra,
        lost_conns: alive.iter().filter(|a| !**a).count(),
    })
}

/// Write as much of the connection's outbound buffer as the socket takes.
fn flush(c: &mut Conn) {
    while !c.out.is_empty() {
        match c.stream.write(&c.out) {
            Ok(0) => return,
            Ok(n) => {
                c.out.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}
