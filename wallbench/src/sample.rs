//! Latency samples kept by the benchmark itself.
//!
//! The lock's own `LatencyRecorder` percentiles come from a power-of-two
//! histogram, so they land on bucket edges (131/262/524 µs). The
//! benchmark keeps raw nanosecond samples instead: every sample until a
//! reservoir fills, then a uniform algorithm-R sample of the stream.
//! Percentiles over several reservoirs weight each sample by how much of
//! its stream the reservoir stands for, so a client that ran more ops
//! counts for more.

/// A uniform sample of a stream of `u32` nanosecond values.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    buf: Vec<u32>,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` samples.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            buf: Vec::new(),
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Records one value, saturating at `u32::MAX` ns (4.3 s).
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let v = u32::try_from(ns).unwrap_or(u32::MAX);
        self.seen += 1;
        if self.buf.len() < self.cap {
            self.buf.push(v);
            return;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let slot = self.rng % self.seen;
        if (slot as usize) < self.cap {
            self.buf[slot as usize] = v;
        }
    }

    /// Values recorded, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) over the union of `parts`, in ns; 0 when
/// every part is empty.
pub fn percentile(parts: &[&Reservoir], q: f64) -> f64 {
    let mut v: Vec<(u32, f64)> = Vec::new();
    for r in parts.iter().filter(|r| !r.buf.is_empty()) {
        let w = r.seen as f64 / r.buf.len() as f64;
        v.extend(r.buf.iter().map(|&x| (x, w)));
    }
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by_key(|&(x, _)| x);
    let total: f64 = v.iter().map(|&(_, w)| w).sum();
    let target = q * total;
    let mut acc = 0.0;
    for &(x, w) in &v {
        acc += w;
        if acc >= target {
            return f64::from(x);
        }
    }
    f64::from(v[v.len() - 1].0)
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_until_full_then_uniform() {
        let mut r = Reservoir::new(1000);
        for i in 0..1000 {
            r.record(i);
        }
        assert_eq!(percentile(&[&r], 0.5), 499.0);
        for i in 1000..100_000 {
            r.record(i);
        }
        assert_eq!(r.seen(), 100_000);
        let p50 = percentile(&[&r], 0.5);
        assert!((40_000.0..60_000.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn parts_are_weighted_by_stream_length() {
        // A 10-sample reservoir standing for 10 000 values of 1000 ns
        // outweighs 100 exact samples of 1 ns.
        let mut big = Reservoir::new(10);
        for _ in 0..10_000 {
            big.record(1000);
        }
        let mut small = Reservoir::new(1000);
        for _ in 0..100 {
            small.record(1);
        }
        assert_eq!(percentile(&[&big, &small], 0.5), 1000.0);
        assert_eq!(percentile(&[&big, &small], 0.005), 1.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
