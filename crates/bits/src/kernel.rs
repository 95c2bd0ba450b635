//! Kernel-path counters and switches.
//!
//! The bits crate has several implementations of the same logical
//! operation (window-SWAR vs. lzcnt-accelerated vs. cursor-scalar decode,
//! occupancy block-skipping vs. plain galloping intersection). These
//! process-wide relaxed counters record which path actually ran, so a
//! live server's STATS reply shows the kernel mix and tests can assert a
//! fast path was exercised (not silently skipped by dispatch). Hot loops
//! accumulate locally and flush one `fetch_add` per *operation*, never
//! per element, so the counters cost nothing on the paths they observe.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One named kernel counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` (relaxed; call once per operation with a locally
    /// accumulated total).
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Batch decodes served by the stable SWAR window kernel.
pub static DECODE_SWAR: Counter = Counter::new("kernel/decode_swar");
/// Batch decodes served by the `lzcnt`/BMI-accelerated kernel (requires
/// the `simd` feature and runtime CPU support).
pub static DECODE_SIMD: Counter = Counter::new("kernel/decode_simd");
/// Streams decoded through the scalar cursor decoder (`GapDecoder`).
pub static DECODE_SCALAR: Counter = Counter::new("kernel/decode_scalar");
/// Encodes that ran through the word-accumulating [`crate::BitWriter`].
pub static ENCODE_BULK: Counter = Counter::new("kernel/encode_bulk");
/// Bitset-accumulate re-encodes (`from_words`/`from_words_span`).
pub static REENCODE_BITSET: Counter = Counter::new("kernel/reencode_bitset");
/// Position-disjoint stored covers spliced end to end
/// ([`crate::GapBitmap::concat`]): no decode, no re-encode.
pub static MERGE_CONCAT: Counter = Counter::new("kernel/merge_concat");
/// Intersection probes resolved by decoding the other stream (gallop).
pub static INTERSECT_GALLOP: Counter = Counter::new("kernel/intersect_gallop");
/// Intersection probes resolved by an occupancy word alone — the probed
/// bucket's summary bit was clear, so no codes were decoded.
pub static INTERSECT_BLOCK_SKIP: Counter = Counter::new("kernel/intersect_block_skip");
/// Whole sample blocks skipped because the two sides' occupancy words
/// ANDed to zero (neither block's codes were decoded).
pub static INTERSECT_BLOCK_AND: Counter = Counter::new("kernel/intersect_block_and");
/// Membership probes answered absent by an occupancy word alone.
pub static CONTAINS_BLOCK_SKIP: Counter = Counter::new("kernel/contains_block_skip");

/// All kernel counters, for snapshot surfaces (the serve STATS op).
pub fn counters() -> [&'static Counter; 10] {
    [
        &DECODE_SWAR,
        &DECODE_SIMD,
        &DECODE_SCALAR,
        &ENCODE_BULK,
        &REENCODE_BITSET,
        &MERGE_CONCAT,
        &INTERSECT_GALLOP,
        &INTERSECT_BLOCK_SKIP,
        &INTERSECT_BLOCK_AND,
        &CONTAINS_BLOCK_SKIP,
    ]
}

/// `(name, value)` snapshot of every kernel counter.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    counters().iter().map(|c| (c.name, c.get())).collect()
}

/// Resets every counter to zero (test isolation).
pub fn reset() {
    for c in counters() {
        c.value.store(0, Ordering::Relaxed);
    }
}

static BLOCK_SKIP: AtomicBool = AtomicBool::new(true);

/// Enables or disables occupancy-word block skipping in the intersection
/// and membership kernels. The forced-scalar mode exists for differential
/// tests and the E20 before/after measurement: results and simulated
/// `IoStats` must be identical either way.
pub fn set_block_skip(enabled: bool) {
    BLOCK_SKIP.store(enabled, Ordering::Relaxed);
}

/// Whether occupancy-word block skipping is enabled (default true).
#[inline]
pub fn block_skip_enabled() -> bool {
    BLOCK_SKIP.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        // Deltas only: other tests in the process bump these counters
        // concurrently, so absolute values are not stable.
        let before = INTERSECT_BLOCK_AND.get();
        INTERSECT_BLOCK_AND.add(3);
        INTERSECT_BLOCK_AND.add(0); // no-op, no fetch_add
        assert!(INTERSECT_BLOCK_AND.get() >= before + 3);
        let snap = snapshot();
        assert!(snap.iter().any(|&(n, _)| n == "kernel/intersect_block_and"));
        assert_eq!(snap.len(), counters().len());
    }

    #[test]
    fn block_skip_toggle_roundtrips() {
        assert!(block_skip_enabled());
        set_block_skip(false);
        assert!(!block_skip_enabled());
        set_block_skip(true);
    }
}
