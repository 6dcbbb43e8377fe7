//! Open-loop schedule accounting.
//!
//! An open-loop generator sends each request at a time fixed in
//! advance, whether or not earlier replies have arrived. Latency is
//! measured from that intended send time, so a stall also charges the
//! requests that were due while it lasted. The generator itself can
//! run late; lateness is how far the actual send trailed the intended
//! one, and a run whose lateness exceeds [`LatenessLimit`] did not
//! offer the load it claims and is invalid.

use crate::stats::Samples;

/// A fixed-rate stream of send times: `offset + i * period`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// First send, in nanoseconds after the run's start.
    pub offset_ns: u64,
    /// Interval between sends, in nanoseconds.
    pub period_ns: u64,
}

impl Schedule {
    /// The `i`-th intended send time, in nanoseconds after the start.
    pub fn due(&self, i: u64) -> u64 {
        self.offset_ns + i * self.period_ns
    }
}

/// Largest generator lateness a valid run may show.
#[derive(Debug, Clone, Copy)]
pub struct LatenessLimit {
    /// Bound on the 99th-percentile lateness, in nanoseconds.
    pub p99_ns: u64,
    /// Bound on the largest lateness, in nanoseconds.
    pub max_ns: u64,
}

/// Lateness of every send of a run.
#[derive(Debug, Clone, Default)]
pub struct Lateness {
    samples: Samples,
    max_ns: u64,
}

impl Lateness {
    /// Records a send intended at `intended_ns` that happened at
    /// `actual_ns` (both on the run's clock). An early send counts as
    /// on time.
    pub fn record(&mut self, intended_ns: u64, actual_ns: u64) {
        let late = actual_ns.saturating_sub(intended_ns);
        self.max_ns = self.max_ns.max(late);
        self.samples.push(late);
    }

    /// Folds in another generator thread's record.
    pub fn merge(&mut self, other: &Lateness) {
        self.samples.extend(&other.samples);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded sends.
    pub fn sends(&self) -> usize {
        self.samples.len()
    }

    /// 99th-percentile lateness in nanoseconds (0 without sends).
    pub fn p99_ns(&mut self) -> u64 {
        self.samples.quantile_ns(0.99).unwrap_or(0)
    }

    /// Largest lateness in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Whether the run stayed within `limit`.
    pub fn within(&mut self, limit: LatenessLimit) -> bool {
        self.p99_ns() <= limit.p99_ns && self.max_ns <= limit.max_ns
    }
}
