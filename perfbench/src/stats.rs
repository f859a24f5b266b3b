//! Small statistics and process helpers shared by the workloads.

use std::time::Instant;

/// Linear-interpolated quantile (`q` in 0..=1) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, secs(t0))
}

/// Adds the wall time of `f` to `acc` when `on` (a traced span); runs it
/// bare otherwise.
pub fn span<T>(on: bool, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    if on {
        let t = Instant::now();
        let out = f();
        *acc += secs(t);
        out
    } else {
        f()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Worker threads the program defaults to (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: the seeded generator behind every drawn input.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_B00C)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Latency histogram with fixed memory: bucket `i` holds values in
/// `[e^(i/R), e^((i+1)/R))` nanoseconds, `R = 1000` (0.1% wide), so the
/// client's own footprint does not grow with the request count.
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

const PER_E: f64 = 1000.0;
/// Buckets up to e^27 ns (~530 s).
const BUCKETS: usize = 27_000;

impl Histogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, secs: f64) {
        let ns = (secs * 1e9).max(1.0);
        let i = ((ns.ln() * PER_E) as usize).min(BUCKETS - 1);
        self.counts[i] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Quantile `q` in seconds, interpolated by rank inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + u64::from(c)) as f64 > rank {
                let frac = (rank - below as f64 + 0.5) / f64::from(c);
                return ((i as f64 + frac) / PER_E).exp() * 1e-9;
            }
            below += u64::from(c);
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Histogram::new();
        for us in 1..=1000 {
            h.record(us as f64 * 1e-6);
        }
        assert_eq!(h.len(), 1000);
        let p50 = h.quantile(0.5);
        assert!((p50 - 500.5e-6).abs() / 500.5e-6 < 0.002, "{p50}");
        let p90 = h.quantile(0.9);
        assert!((p90 - 900.1e-6).abs() / 900.1e-6 < 0.002, "{p90}");
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn draws_repeat_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
    }
}
