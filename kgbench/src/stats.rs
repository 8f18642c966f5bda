//! Latency summaries: raw samples for low-rate operations and a
//! fixed-memory histogram for the high-rate lookup stream.

/// The `q` quantile (`q` in `[0, 1]`) of `samples`, smoothed: the mean of
/// the samples whose rank fraction lies within `0.2 · min(q, 1 − q)` of `q`
/// (±0.1 around the median, ±0.02 around p90), or the linear interpolation
/// between the two nearest samples when none does. A plain order statistic
/// would jump between modes where a stream mixes fast and slow operations
/// half and half; the window average moves smoothly. 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let half = 0.2 * q.min(1.0 - q);
    let last = (v.len() - 1) as f64;
    let window: Vec<f64> = v
        .iter()
        .enumerate()
        .filter(|&(i, _)| last > 0.0 && (i as f64 / last - q).abs() <= half)
        .map(|(_, &x)| x)
        .collect();
    if !window.is_empty() {
        return window.iter().sum::<f64>() / window.len() as f64;
    }
    let pos = q * last;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Smoothed median of `samples` (see [`quantile`]); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The best of per-slice values: the lowest when lower is better, else the
/// highest; 0 when empty.
///
/// End-to-end metrics are computed per slice of the run and reported as
/// the best slice. On a shared host, memory-bound code runs up to half
/// again as slow for seconds at a time while other tenants load the
/// memory system; a slice-wise best estimates the program's own cost and
/// repeats from run to run, where a run-wide median follows how much of
/// the run the interference happened to cover.
pub fn best(per_slice: &[f64], lower_is_better: bool) -> f64 {
    let pick = if lower_is_better { f64::min } else { f64::max };
    per_slice.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Sub-buckets per power of two: a relative resolution of 1/512.
const SUB: u64 = 512;
const SUB_BITS: u32 = 9;

/// Log-linear histogram of nanosecond latencies. Its memory is fixed, so a
/// faster program that answers more queries does not also grow the
/// benchmark's own resident memory.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; ((64 - SUB_BITS as u64 + 1) * SUB) as usize],
            n: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let shift = e - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
    }

    /// `(lower bound, width)` of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = i / SUB - 1;
        let m = i % SUB;
        (((SUB + m) << shift) as f64, (1u64 << shift) as f64)
    }

    /// Record one latency in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q` quantile in nanoseconds, interpolated inside its bucket; 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.n as f64).max(0.5);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= target {
                let (lo, width) = Self::bucket(i);
                return lo + width * (target - seen as f64) / c as f64;
            }
            seen += c;
        }
        let (lo, width) = Self::bucket(self.counts.len() - 1);
        lo + width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip() {
        for v in [
            0u64,
            1,
            511,
            512,
            513,
            1023,
            1024,
            5000,
            1 << 40,
            (1 << 52) + 7,
        ] {
            let (lo, w) = Hist::bucket(Hist::index(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + w,
                "{v}: [{lo}, {lo}+{w})"
            );
        }
    }

    #[test]
    fn smoothed_quantile_is_exact_on_few_samples_and_stable_on_mixtures() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        // Half fast, half slow: the median averages the ranks around the
        // middle instead of reading one side's extreme.
        let mix: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 10.0 } else { 60.0 })
            .collect();
        assert!((median(&mix) - 35.0).abs() < 1.0, "{}", median(&mix));
    }

    #[test]
    fn hist_quantiles_track_raw_samples() {
        let raw: Vec<f64> = (1..=10_000).map(|i| (i * 37) as f64).collect();
        let mut h = Hist::default();
        raw.iter().for_each(|&v| h.record(v as u64));
        for q in [0.5, 0.9, 0.99] {
            let exact = raw[(q * (raw.len() - 1) as f64) as usize];
            assert!((h.quantile(q) - exact).abs() / exact < 0.01, "q{q}");
        }
    }
}
