//! Latency recording with exact samples.
//!
//! Every timed request keeps its own nanosecond sample, so a reported
//! quantile is an observed value, never a bucket bound. The serve
//! crate's power-of-two `LatencyHistogram` would report a 1.9× change
//! as no change at all, so the benchmark never uses it.

/// Exact latency samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

/// The quantiles a summary may name, lowest first, with their labels.
const LADDER: [(f64, &str); 5] = [
    (0.5, "p50"),
    (0.9, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
];

/// Samples that must lie beyond a quantile before it is reported.
pub const MIN_BEYOND: usize = 10;

impl Samples {
    /// An empty recorder with room for `cap` samples.
    pub fn with_capacity(cap: usize) -> Self {
        Samples {
            ns: Vec::with_capacity(cap),
            sorted: true,
        }
    }

    /// Records one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile in nanoseconds (nearest rank), or `None` when
    /// empty.
    pub fn quantile_ns(&mut self, q: f64) -> Option<u64> {
        self.sort();
        nearest_rank(&self.ns, q)
    }

    /// The `q`-quantile in microseconds; 0 when empty.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile_ns(q).map_or(0.0, |ns| ns as f64 / 1e3)
    }

    /// Arithmetic mean in nanoseconds; 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().map(|&v| v as f64).sum::<f64>() / self.ns.len() as f64
    }

    /// A one-line summary: count, p50 and the highest quantile of the
    /// ladder that has at least [`MIN_BEYOND`] samples beyond it.
    pub fn summary_us(&mut self) -> String {
        let n = self.len();
        let mut out = format!("n={n}");
        if let Some(p50) = self.quantile_ns(0.5) {
            out.push_str(&format!(" p50={:.2}us", p50 as f64 / 1e3));
        }
        if let Some(q) = highest_reportable(n).filter(|&q| q > 0.5) {
            let label = LADDER
                .iter()
                .find(|(l, _)| *l == q)
                .map_or("p?", |(_, s)| s);
            if let Some(v) = self.quantile_ns(q) {
                out.push_str(&format!(" {label}={:.2}us", v as f64 / 1e3));
            }
        }
        out
    }
}

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// such that at least a `q` share of all samples are at or below it.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Number of samples strictly beyond the nearest-rank `q`-quantile's
/// position in a set of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// The highest quantile of the ladder (p50, p90, p99, p99.9, p99.99)
/// with at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn highest_reportable(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .map(|&(q, _)| q)
        .rfind(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Arithmetic mean of a small set of measurements; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of a small set of measurements (mean of the middle two for
/// even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
