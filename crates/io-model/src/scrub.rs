//! Online scrubbing: background integrity verification of a live,
//! pooled [`Disk`] at a bounded blocks-per-tick rate.
//!
//! The offline `psi-store` scrub verifies a closed file in one pass; a
//! production store cannot afford that — it is serving queries. The
//! [`Scrubber`] walks the same pages *through the live store* instead: a
//! resumable cursor over every non-resident extent's blocks, verifying a
//! bounded number per [`Scrubber::tick`] so the scan's cost is an
//! operator-tunable trickle. Reads go to the pool's backend directly
//! (verified, never through the frame cache): a warm frame would mask
//! on-disk rot, and scrubbing must not evict the query working set.
//!
//! Corrupt blocks surface as [`ReadError`]s with class
//! [`crate::ErrorClass::Corrupt`]; callers feed them into the extent
//! quarantine that degraded planning consults.

use crate::disk::{Disk, ExtentId};
use crate::error::ReadError;
use crate::metrics::io_metrics;

/// Outcome of one bounded scrub tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Blocks verified during this tick (≤ the tick's budget).
    pub scanned: u64,
    /// Typed failures found, in scan order. Corrupt pages keep the scan
    /// going — one bad block must not hide the next.
    pub errors: Vec<ReadError>,
    /// Whether the cursor reached the end of the disk.
    pub done: bool,
}

/// A resumable, rate-bounded integrity scan over a pooled [`Disk`].
///
/// Holds only the scan cursor, so one scrubber can outlive many ticks
/// (and be stored next to the opened index it patrols). Extents that
/// are memory-resident or freed are skipped: their authoritative bytes
/// are in RAM, not on the backend.
#[derive(Debug, Clone, Default)]
pub struct Scrubber {
    next_ext: u32,
    next_block: u64,
    done: bool,
}

impl Scrubber {
    /// A scrubber positioned at the first block of the first extent.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a previous tick exhausted the disk.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Rewinds the cursor for another full pass.
    pub fn reset(&mut self) {
        *self = Scrubber::default();
    }

    /// Verifies up to `budget` blocks of `disk`, resuming where the last
    /// tick stopped.
    ///
    /// # Panics
    /// Panics if `disk` has no buffer pool (a fully resident disk has no
    /// backend pages to scrub) or `budget` is zero.
    pub fn tick(&mut self, disk: &Disk, budget: usize) -> ScrubReport {
        assert!(budget > 0, "scrub tick needs a positive block budget");
        let pool = disk.pool().expect("scrubbing needs a pooled disk");
        let store = pool.store();
        let block_words = (disk.block_bits() / 64) as usize;
        let mut buf = vec![0u64; block_words];
        let mut report = ScrubReport {
            scanned: 0,
            errors: Vec::new(),
            done: false,
        };
        if self.done {
            report.done = true;
            return report;
        }
        while (self.next_ext as usize) < disk.num_extents() {
            let ext = ExtentId(self.next_ext);
            let blocks = if disk.is_resident(ext) || disk.is_freed(ext) {
                0
            } else {
                disk.extent_blocks(ext)
            };
            while self.next_block < blocks {
                if report.scanned as usize >= budget {
                    return report;
                }
                let blk = self.next_block;
                self.next_block += 1;
                report.scanned += 1;
                // Scrub progress and findings are visible in the metrics
                // registry (they bypass the pool, so `PoolStats` can
                // never account for them).
                io_metrics().scrub_scanned.inc();
                if let Err(e) = store.read_block_verified(ext, blk, &mut buf) {
                    io_metrics().scrub_errors.inc();
                    report.errors.push(ReadError {
                        class: e.class,
                        extent: ext,
                        block: blk,
                        message: e.message,
                    });
                }
            }
            self.next_ext += 1;
            self.next_block = 0;
        }
        self.done = true;
        report.done = true;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::backend::{BlockStore, BlockStoreError, MemStore};
    use crate::pool::BufferPool;
    use crate::{ErrorClass, IoConfig, IoSession, StoredExtent};

    /// A store whose verified reads report corruption for one scripted
    /// block address.
    #[derive(Debug)]
    struct OneBadBlock {
        inner: MemStore,
        bad: (ExtentId, u64),
    }

    impl BlockStore for OneBadBlock {
        fn read_block(
            &self,
            ext: ExtentId,
            block: u64,
            out: &mut [u64],
        ) -> Result<(), BlockStoreError> {
            self.inner.read_block(ext, block, out)
        }
        fn read_block_verified(
            &self,
            ext: ExtentId,
            block: u64,
            out: &mut [u64],
        ) -> Result<(), BlockStoreError> {
            if (ext, block) == self.bad {
                return Err(BlockStoreError::corrupt("scripted trailer mismatch"));
            }
            self.inner.read_block(ext, block, out)
        }
        fn fetches(&self) -> u64 {
            self.inner.fetches()
        }
        fn kind(&self) -> &'static str {
            "one-bad-block"
        }
    }

    /// Two extents of 4 blocks each (128-bit blocks), opened pooled.
    fn pooled_disk(bad: (ExtentId, u64)) -> Disk {
        let cfg = IoConfig::with_block_bits(128);
        let mut built = Disk::new(cfg);
        let io = IoSession::untracked();
        for _ in 0..2 {
            let ext = built.alloc();
            let mut w = built.writer(ext, &io);
            for j in 0..8u64 {
                w.write_bits(j + 1, 64);
            }
        }
        let store = Arc::new(OneBadBlock {
            inner: MemStore::from_disk(&built),
            bad,
        });
        let stored: Vec<StoredExtent> = (0..2)
            .map(|i| StoredExtent {
                bit_len: built.extent_bits(ExtentId(i)),
                freed: false,
            })
            .collect();
        let pool = Arc::new(BufferPool::new(store, 16, 128));
        Disk::from_stored(cfg, &stored, pool)
    }

    #[test]
    fn scrub_finds_the_corrupt_block_and_respects_the_budget() {
        let disk = pooled_disk((ExtentId(1), 2));
        let mut scrubber = Scrubber::new();
        let mut errors = Vec::new();
        let mut ticks = 0;
        let mut scanned = 0;
        loop {
            let report = scrubber.tick(&disk, 3);
            assert!(report.scanned <= 3, "budget respected");
            scanned += report.scanned;
            errors.extend(report.errors);
            ticks += 1;
            if report.done {
                break;
            }
        }
        // 8 blocks at ≤3 per tick: the full pass is rate-bounded.
        assert_eq!(scanned, 8);
        assert!(ticks >= 3);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].class, ErrorClass::Corrupt);
        assert_eq!((errors[0].extent, errors[0].block), (ExtentId(1), 2));
        assert!(scrubber.is_done());
        // A done scrubber idles until reset.
        assert_eq!(scrubber.tick(&disk, 3).scanned, 0);
        scrubber.reset();
        assert_eq!(scrubber.tick(&disk, 3).scanned, 3);
    }

    #[test]
    fn scrub_does_not_disturb_the_pool_or_count_as_query_io() {
        let disk = pooled_disk((ExtentId(0), 3));
        let pool = disk.pool().expect("pooled").clone();
        // Warm one block via a query-path read.
        let io = IoSession::new();
        let mut first = Vec::new();
        disk.reader(ExtentId(1), 0, &io)
            .read_words(&mut first, 64)
            .unwrap();
        let stats_before = pool.stats();
        let mut scrubber = Scrubber::new();
        while !scrubber.tick(&disk, 4).done {}
        // The scrub bypassed the frame cache entirely.
        assert_eq!(pool.stats(), stats_before);
        // And the warm block still serves hits.
        let io2 = IoSession::new();
        let mut again = Vec::new();
        disk.reader(ExtentId(1), 0, &io2)
            .read_words(&mut again, 64)
            .unwrap();
        assert_eq!(again, first);
        assert_eq!(pool.stats().hits, stats_before.hits + 1);
    }
}
