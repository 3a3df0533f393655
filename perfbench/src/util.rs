//! Small shared helpers: a seeded generator, order statistics, the
//! result line, and `/proc` readings.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over `bytes`, continuing from `h` (start with [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The per-run statistic of a time measured once per fresh process:
/// its 10th percentile. On a shared machine a process runs either at
/// full speed or, for its whole life, up to 1.8x slower, and slow
/// stretches come and go; interference only ever slows a process down,
/// so a low percentile of a run's repetitions moves least between runs.
pub fn typical(xs: &[f64]) -> f64 {
    quantile(xs, 0.1)
}

/// [`typical`] for a rate, where interference lowers the value: the
/// 90th percentile.
pub fn typical_rate(xs: &[f64]) -> f64 {
    quantile(xs, 0.9)
}

/// Nearest-rank quantile `q` in `[0, 1]`; 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail percentile reported for a sample of `n`: p99, or, when
/// fewer than ten samples lie beyond p99, the highest of p95, p90 and
/// p50 that leaves at least ten beyond it.
pub fn tail_quantile(n: usize) -> f64 {
    for q in [0.99, 0.95, 0.9] {
        if (n as f64) * (1.0 - q) >= 10.0 {
            return q;
        }
    }
    0.5
}

/// One metric of the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics by name, in a stable order.
pub type Metrics = BTreeMap<String, Metric>;

pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), Metric { value, unit });
}

/// Render the result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Read `VmHWM` (peak resident set) of `pid` (`"self"` for this
/// process) in MiB; `None` once the process is gone.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Microseconds in `d`, as a float.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A fixed piece of work that uses none of the repository's code:
/// ordered-map inserts of small boxed values probed in random order, a
/// sort, and 128-bit gcd arithmetic, roughly the mix of allocation,
/// pointer chasing and exact arithmetic the analyses do. Run inside a
/// measuring process, it tells how fast that process runs right now.
pub fn calibrate() -> std::time::Duration {
    let t = std::time::Instant::now();
    let mut rng = Rng::new(0xCA1B);
    let mut map: BTreeMap<u64, Box<(u64, u64)>> = BTreeMap::new();
    for i in 0..60_000u64 {
        map.insert(rng.next_u64(), Box::new((i, i ^ 0x5555)));
    }
    let mut probe = 0u64;
    for _ in 0..60_000 {
        if let Some((_, b)) = map.range(rng.next_u64()..).next() {
            probe = probe.wrapping_add(b.0);
        }
    }
    let mut v: Vec<u64> = (0..40_000).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    let mut acc: i128 = 0;
    for _ in 0..10_000 {
        let (mut a, mut b) = (
            i128::from(rng.next_u64() >> 8) * 3 + 1,
            i128::from(rng.next_u64() >> 20) + 1,
        );
        while b != 0 {
            let r = a % b;
            a = b;
            b = r;
        }
        acc = acc.wrapping_add(a);
    }
    std::hint::black_box((probe, v[v.len() / 2], acc));
    t.elapsed()
}

/// [`calibrate`]'s time, in microseconds, on the reference machine (a
/// 2-CPU VM) when undisturbed. Times measured in a process are scaled by
/// `CALIB_REF_US / <that process's calibrate time>`.
pub const CALIB_REF_US: f64 = 22_000.0;
