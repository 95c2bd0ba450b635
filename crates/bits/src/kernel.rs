//! Kernel-path counters.
//!
//! The workspace has several implementations of the same logical
//! operation (window-SWAR vs. lzcnt-accelerated vs. cursor-scalar decode,
//! occupancy block-skipping vs. plain galloping vs. word-bitset
//! intersection), chosen only by what the code can observe: the stream's
//! shape, whether its skip directory exists, and the CPU.
//! These [`psi_obs`] registry counters record which path actually ran,
//! so a live server's STATS reply shows the kernel mix and tests can
//! assert a fast path was exercised (not silently skipped by dispatch).
//! Hot loops accumulate locally and record once per *operation*, never
//! per element, so the counters cost nothing on the paths they observe.

use std::sync::{Arc, OnceLock};

use psi_obs::{Counter, Registry};

/// Shared handles for the kernel counters.
#[derive(Debug)]
pub struct KernelMetrics {
    /// `kernel/decode_swar` — batch decodes served by the portable SWAR
    /// window kernel.
    pub decode_swar: Arc<Counter>,
    /// `kernel/decode_simd` — batch decodes served by the `lzcnt`/BMI
    /// clone (x86_64 CPUs that have the instructions).
    pub decode_simd: Arc<Counter>,
    /// `kernel/decode_scalar` — streams decoded through the scalar
    /// cursor decoder (`GapDecoder`).
    pub decode_scalar: Arc<Counter>,
    /// `kernel/encode_bulk` — encodes that ran through the
    /// word-accumulating [`crate::BitWriter`].
    pub encode_bulk: Arc<Counter>,
    /// `kernel/reencode_bitset` — bitset-accumulate re-encodes
    /// (`from_words`/`from_words_span`).
    pub reencode_bitset: Arc<Counter>,
    /// `kernel/lift_words` — stored slots in the words form lifted as a
    /// word copy (no code stream, no decode).
    pub lift_words: Arc<Counter>,
    /// `kernel/merge_concat` — position-disjoint stored covers spliced
    /// end to end ([`crate::GapBitmap::concat`]): no decode, no re-encode.
    pub merge_concat: Arc<Counter>,
    /// `kernel/intersect_gallop` — intersection probes resolved by
    /// decoding the other stream (gallop).
    pub intersect_gallop: Arc<Counter>,
    /// `kernel/intersect_words` — dense intersection operands decoded
    /// once into a word bitset that the other side is filtered through,
    /// instead of galloping their skip directories (one per operand).
    pub intersect_words: Arc<Counter>,
    /// `kernel/intersect_block_skip` — intersection probes resolved by an
    /// occupancy word alone: the probed bucket's summary bit was clear,
    /// so no codes were decoded.
    pub intersect_block_skip: Arc<Counter>,
    /// `kernel/contains_block_skip` — membership probes answered absent
    /// by an occupancy word alone.
    pub contains_block_skip: Arc<Counter>,
    /// `kernel/skip_build` — skip directories built by a decode pass on
    /// first use (one per bitmap, however many elements it holds): a
    /// gamma bitmap that no encoder sampled, such as a stored slot's
    /// lift, meeting its first `contains`, `rank`, `select` or gallop.
    pub skip_build: Arc<Counter>,
}

impl KernelMetrics {
    /// Every counter with its registry name, in declaration order.
    fn named(&self) -> [(&'static str, &Counter); 12] {
        [
            ("kernel/decode_swar", &self.decode_swar),
            ("kernel/decode_simd", &self.decode_simd),
            ("kernel/decode_scalar", &self.decode_scalar),
            ("kernel/encode_bulk", &self.encode_bulk),
            ("kernel/reencode_bitset", &self.reencode_bitset),
            ("kernel/lift_words", &self.lift_words),
            ("kernel/merge_concat", &self.merge_concat),
            ("kernel/intersect_gallop", &self.intersect_gallop),
            ("kernel/intersect_words", &self.intersect_words),
            ("kernel/intersect_block_skip", &self.intersect_block_skip),
            ("kernel/contains_block_skip", &self.contains_block_skip),
            ("kernel/skip_build", &self.skip_build),
        ]
    }
}

/// The kernel counters, resolved together once per process from the
/// global registry (so every one of them shows in a registry snapshot
/// as soon as any kernel has run).
pub fn metrics() -> &'static KernelMetrics {
    static METRICS: OnceLock<KernelMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        KernelMetrics {
            decode_swar: r.counter("kernel/decode_swar"),
            decode_simd: r.counter("kernel/decode_simd"),
            decode_scalar: r.counter("kernel/decode_scalar"),
            encode_bulk: r.counter("kernel/encode_bulk"),
            reencode_bitset: r.counter("kernel/reencode_bitset"),
            lift_words: r.counter("kernel/lift_words"),
            merge_concat: r.counter("kernel/merge_concat"),
            intersect_gallop: r.counter("kernel/intersect_gallop"),
            intersect_words: r.counter("kernel/intersect_words"),
            intersect_block_skip: r.counter("kernel/intersect_block_skip"),
            contains_block_skip: r.counter("kernel/contains_block_skip"),
            skip_build: r.counter("kernel/skip_build"),
        }
    })
}

/// `(name, value)` snapshot of every kernel counter.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    metrics()
        .named()
        .iter()
        .map(|&(name, c)| (name, c.get()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global instruments are shared by every test in this binary, so
    // assertions are on deltas, never absolute values.
    #[test]
    fn counters_are_the_registry_instruments() {
        let m = metrics();
        assert!(std::ptr::eq(m, metrics()));
        let before = m.merge_concat.get();
        m.merge_concat.add(3);
        assert!(Registry::global().counter("kernel/merge_concat").get() >= before + 3);
        let snap = snapshot();
        assert_eq!(snap.len(), m.named().len());
        let registered = Registry::global().snapshot();
        for (name, _) in snap {
            assert!(registered.counter(name).is_some(), "{name} not registered");
        }
    }
}
