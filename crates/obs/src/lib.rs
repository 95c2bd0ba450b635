//! # psi-obs — always-on metrics for the psi workspace
//!
//! A dependency-free observability substrate sitting at the bottom of
//! the crate graph so every layer (io-model, query, wal, serve) can
//! instrument itself without cycles or feature flags:
//!
//! * [`Counter`] / [`Gauge`] — single relaxed atomic words.
//! * [`Histogram`] — fixed-bucket log-scale (8 linear sub-buckets per
//!   power of two), lock-free to record, mergeable, and
//!   snapshot-consistent: every recorded op lands in exactly one
//!   bucket, so a quiescent snapshot's total equals the number of
//!   recorded ops bit-exactly (pinned by the concurrency proptest in
//!   `tests/concurrency.rs`).
//! * [`Registry`] — named get-or-create instrument handles. Handles are
//!   `Arc`s resolved **once at construction** of the instrumented
//!   component; the hot path then pays one relaxed atomic RMW per
//!   event, never a name lookup or a lock.
//! * [`Snapshot`] — a point-in-time, order-stable rendering of a
//!   registry (plus any caller-injected entries such as per-server
//!   counters or quarantine lists), with a human-readable [`Snapshot::render`].
//! * [`RingLog`] — a bounded, overwrite-oldest ring for structured
//!   records (the slow-query log in psi-serve).
//!
//! ## Hot-path contract
//!
//! Recording is always on: a counter or gauge event is one relaxed
//! atomic RMW, a histogram sample two. With no switch to turn it off, a
//! benchmark reads the same instruments a live server ships in `STATS`,
//! and instrument overhead shows end to end, in perfbench's A/B of
//! parent against change. Per-word decode loops (see
//! `psi_io::IoSession`'s deliberately non-atomic design note) are *not*
//! instrumented here; instruments attach at per-event granularity only
//! (a block fetch, a query completion, a commit), where a relaxed RMW
//! is noise.

mod hist;
mod registry;
mod ring;
mod snapshot;

pub use hist::{HistSnapshot, Histogram, BUCKETS};
pub use registry::{Instrument, Registry};
pub use ring::RingLog;
pub use snapshot::{Snapshot, Value};

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotone event counter: one relaxed `AtomicU64`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (bench/test harnesses only).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A settable signed level: one relaxed `AtomicI64`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh zero gauge.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the gauge (bench/test harnesses only).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
    }
}
