//! The io-model's always-on instruments, resolved once from the global
//! [`psi_obs::Registry`].
//!
//! One static handle set for the whole crate: the buffer pool, the
//! retrying backend, and the scrubber record into these. Granularity is
//! per *event* (a pin, a backend fetch, a scrub probe) — never per
//! decoded word; the per-query hot loops stay on the non-atomic
//! [`crate::IoSession`] counters by design (see the session module's
//! note on the 15–30% cost of atomics there).

use std::sync::{Arc, OnceLock};

use psi_obs::{Counter, Histogram, Registry};

/// Shared instrument handles for the io-model layer.
#[derive(Debug)]
pub struct IoMetrics {
    /// `pool/hits` — block requests served from a resident frame.
    pub pool_hits: Arc<Counter>,
    /// `pool/misses` — block requests that fetched from the backend.
    pub pool_misses: Arc<Counter>,
    /// `pool/evictions` — frames reclaimed by the clock sweep.
    pub pool_evictions: Arc<Counter>,
    /// `pool/grown` — frames allocated past a shard's capacity share
    /// because every frame was pinned.
    pub pool_grown: Arc<Counter>,
    /// `pool/fetch_ns` — wall-clock latency of successful backend
    /// fetches (the *real* read, not the simulated charge).
    pub pool_fetch_ns: Arc<Histogram>,
    /// `pool/verify_failures` — fetches whose integrity trailer did not
    /// check out (class `Corrupt`).
    pub pool_verify_failures: Arc<Counter>,
    /// `io/retries_transient` — extra fetch attempts a
    /// [`crate::RetryStore`] made after a transient failure (the sum of
    /// every store's [`crate::RetryStore::retries`]).
    pub retries_transient: Arc<Counter>,
    /// `io/errors_permanent` — pins abandoned on a permanent failure.
    pub errors_permanent: Arc<Counter>,
    /// `scrub/blocks_scanned` — blocks verified by scrubber ticks.
    pub scrub_scanned: Arc<Counter>,
    /// `scrub/errors` — corrupt or unreadable blocks found by the
    /// scrubber.
    pub scrub_errors: Arc<Counter>,
}

/// The crate's instrument handles, resolved once per process.
pub fn io_metrics() -> &'static IoMetrics {
    static METRICS: OnceLock<IoMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        IoMetrics {
            pool_hits: r.counter("pool/hits"),
            pool_misses: r.counter("pool/misses"),
            pool_evictions: r.counter("pool/evictions"),
            pool_grown: r.counter("pool/grown"),
            pool_fetch_ns: r.histogram("pool/fetch_ns"),
            pool_verify_failures: r.counter("pool/verify_failures"),
            retries_transient: r.counter("io/retries_transient"),
            errors_permanent: r.counter("io/errors_permanent"),
            scrub_scanned: r.counter("scrub/blocks_scanned"),
            scrub_errors: r.counter("scrub/errors"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global instruments are shared by every test in this binary, so
    // assertions are on deltas and monotonicity, never absolute values.
    #[test]
    fn handles_are_stable_and_shared() {
        let a = io_metrics();
        let b = io_metrics();
        assert!(std::ptr::eq(a, b));
        let before = a.pool_hits.get();
        b.pool_hits.inc();
        assert!(a.pool_hits.get() > before);
        assert!(Arc::ptr_eq(
            &a.pool_fetch_ns,
            &Registry::global().histogram("pool/fetch_ns")
        ));
    }
}
