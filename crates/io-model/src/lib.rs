//! Simulated [Aggarwal–Vitter I/O model] used throughout the `psi` workspace.
//!
//! Pagh & Rao (PODS 2009) analyze secondary indexes in the I/O model where
//! the cost measure is the number of memory **blocks** read and written, with
//! the block size `B` measured in *bits* (paper §1.4). This crate provides
//! the substrate that makes those costs measurable rather than merely
//! derivable:
//!
//! * [`Disk`] — an in-RAM block device. Every persistent structure in the
//!   workspace lays its bits out in [`ExtentId`]-addressed *extents*, each of
//!   which occupies its own whole blocks of `B` bits.
//! * [`IoSession`] — an accounting scope for a single logical operation
//!   (one query, one update). It counts **distinct blocks touched**, which
//!   models the paper's assumption that internal memory holds
//!   `M = B(σ lg n)^Ω(1)` bits, so within one operation a block is only
//!   fetched once.
//! * [`DiskReader`] / [`DiskWriter`] — bit-granular cursors that charge the
//!   session lazily as they cross block boundaries, so partially-read blocks
//!   are charged exactly once, and unread suffixes are never charged.
//! * [`BufferPool`] — the frame cache in front of a real backend. An opened,
//!   file-backed [`Disk`] reads a non-resident extent only by the bulk lift
//!   [`DiskReader::read_words`], which pins one block at a time and returns
//!   a failed fetch as a typed [`ReadError`]; per-bit cursors serve
//!   resident extents only. A read fault is a value, never an unwind.
//! * [`cost`] — closed-form cost expressions from the paper
//!   (`lg_b n`, `z lg(n/z)/B`, …) used by the experiment harnesses to
//!   overlay theory curves on measurements.
//!
//! The substitution "real disk → counted in-RAM blocks" is documented in
//! `DESIGN.md`; it preserves the quantity the paper's theorems bound.
//!
//! [Aggarwal–Vitter I/O model]: https://doi.org/10.1145/48529.48535

#![warn(missing_docs)]

mod backend;
pub mod cost;
mod disk;
mod error;
pub mod fault;
pub mod metrics;
mod pool;
mod scrub;
mod session;

pub use backend::{classify_io, BlockStore, BlockStoreError, ErrorClass, MemStore};
pub use disk::{Disk, DiskReader, DiskWriter, DiskWriterAt, ExtentId, StoredExtent};
pub use error::ReadError;
pub use fault::{retry_transient_with, Fault, FaultyStore, RetryPolicy, RetryStore};
pub use metrics::{io_metrics, IoMetrics};
pub use pool::{
    BufferPool, PinnedBlock, PoolError, PoolStats, DEFAULT_POOL_SHARDS, GROWTH_CEILING,
};
pub use scrub::{ScrubReport, Scrubber};
pub use session::{IoSession, IoStats};

// The concurrent read path rests on these bounds: a shared `Arc<Disk>`
// (hence `BufferPool` and every `BlockStore`) must be usable from any
// query thread. Compile-time proof, so a stray `Rc`/`RefCell` can never
// silently sneak back into the shared layers. `IoSession` is the one
// deliberate exception: per-query state, `Send` (created wherever, run
// by the worker that owns the query) but not `Sync` — its per-code
// counters are too hot for atomics (see `session.rs`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Disk>();
    assert_send_sync::<BufferPool>();
    assert_send_sync::<MemStore>();
    assert_send_sync::<FaultyStore<MemStore>>();
    assert_send_sync::<RetryStore<MemStore>>();
    assert_send_sync::<IoStats>();
    assert_send_sync::<PoolStats>();
    assert_send_sync::<PinnedBlock>();
    assert_send_sync::<ReadError>();
    assert_send_sync::<Scrubber>();
    assert_send::<IoSession>();
};

/// Default block size in bits: 8192 bits = 1 KiB blocks.
///
/// With `n = 2^20` this gives `b = B / lg n = 8192/20 ≈ 409` "words" per
/// block, comfortably satisfying the paper's standing assumptions
/// `B ≥ lg n` and `b ≥ 2` (§1.4).
pub const DEFAULT_BLOCK_BITS: u64 = 8192;

/// Configuration of the simulated I/O model: the paper's block size `B`.
/// Internal memory is the paper's `M = B(σ lg n)^Ω(1)`, so an
/// [`IoSession`] charges every block at most once per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoConfig {
    /// Block size `B` in bits. Must be a positive multiple of 64.
    pub block_bits: u64,
}

impl Default for IoConfig {
    fn default() -> Self {
        Self {
            block_bits: DEFAULT_BLOCK_BITS,
        }
    }
}

impl IoConfig {
    /// Creates a configuration with the given block size (in bits).
    ///
    /// # Panics
    /// Panics if `block_bits` is zero or not a multiple of 64 (the disk
    /// stores words of 64 bits and requires blocks to be word-aligned).
    pub fn with_block_bits(block_bits: u64) -> Self {
        assert!(
            block_bits > 0 && block_bits.is_multiple_of(64),
            "block_bits must be a positive multiple of 64"
        );
        Self { block_bits }
    }

    /// The paper's `b = Θ(B / lg n)`: the block size in "words" of `lg n`
    /// bits, clamped to the standing assumption `b ≥ 2`.
    pub fn words_per_block(&self, n: u64) -> u64 {
        let lg_n = cost::lg2_ceil(n.max(2));
        (self.block_bits / lg_n.max(1)).max(2)
    }

    /// Number of blocks needed to hold `bits` bits.
    pub fn blocks_for_bits(&self, bits: u64) -> u64 {
        bits.div_ceil(self.block_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_word_aligned() {
        let c = IoConfig::default();
        assert_eq!(c.block_bits % 64, 0);
    }

    #[test]
    fn words_per_block_matches_paper_b() {
        let c = IoConfig::with_block_bits(8192);
        // lg(2^20) = 20, so b = 8192/20 = 409.
        assert_eq!(c.words_per_block(1 << 20), 409);
        // b is clamped to >= 2 even for absurdly small blocks.
        let tiny = IoConfig::with_block_bits(64);
        assert_eq!(tiny.words_per_block(u64::MAX), 2);
    }

    #[test]
    fn blocks_for_bits_rounds_up() {
        let c = IoConfig::with_block_bits(128);
        assert_eq!(c.blocks_for_bits(0), 0);
        assert_eq!(c.blocks_for_bits(1), 1);
        assert_eq!(c.blocks_for_bits(128), 1);
        assert_eq!(c.blocks_for_bits(129), 2);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn misaligned_block_size_rejected() {
        let _ = IoConfig::with_block_bits(100);
    }
}
