//! Multi-thread stress tests for the sharded buffer pool.
//!
//! The pool's per-shard invariants (pinned-never-evicted, miss == one
//! fetch, immutable frames) are easy to hold single-threaded; these tests
//! hammer them from 8 threads at once. Debug builds run a reduced
//! iteration count; the CI concurrency job runs the full load under
//! `cargo test --release`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use psi_io::{BlockStore, BufferPool, Disk, ExtentId, IoConfig, IoSession, MemStore, PinnedBlock};

const THREADS: usize = 8;

fn ops_per_thread() -> usize {
    if cfg!(debug_assertions) {
        2_000
    } else {
        10_000
    }
}

/// A disk whose block contents are a known function of their address, so
/// any torn/evicted-under-pin read is detected by value.
fn patterned_store(extents: u32, blocks_per_extent: u64) -> Arc<dyn BlockStore> {
    let mut disk = Disk::new(IoConfig::with_block_bits(128)); // 2 words/block
    let io = IoSession::untracked();
    for e in 0..extents {
        let ext = disk.alloc();
        let mut w = disk.writer(ext, &io);
        for blk in 0..blocks_per_extent {
            w.write_bits(expected_word(e, blk, 0), 64);
            w.write_bits(expected_word(e, blk, 1), 64);
        }
    }
    Arc::new(MemStore::from_disk(&disk))
}

fn expected_word(ext: u32, block: u64, word: u64) -> u64 {
    (u64::from(ext) << 32) ^ (block << 8) ^ word ^ 0x5050_5050_5050_5050
}

/// Tiny deterministic xorshift so the stress mix needs no external RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn stress_pin_evict_promote_races() {
    const EXTENTS: u32 = 4;
    const BLOCKS: u64 = 64;
    let store = patterned_store(EXTENTS, BLOCKS);
    // A pool far smaller than the 256-block working set: every thread
    // constantly evicts the others' unpinned frames, and pinned frames
    // must survive (their word reads stay value-correct throughout).
    // The (global) hard ceiling is unreachable by construction: pinned
    // growth only happens while a shard is fully pinned, which at most
    // 24 live pins can sustain only until each shard holds ~25 frames —
    // far below 2048 — so exhaustion cannot fire spuriously.
    let pool = BufferPool::with_shards(store, 16, 2048, 4, 128);
    let verified = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let pool = &pool;
            let verified = &verified;
            scope.spawn(move || {
                let mut rng = Rng(0x9E37_79B9 ^ (t as u64 + 1));
                // Up to two long-lived pins per thread, repeatedly moved:
                // the promote/evict pressure pattern of real cursors in a
                // k-way merge.
                let mut held: Vec<(u32, u64, PinnedBlock)> = Vec::new();
                let mut checked = 0u64;
                for _ in 0..ops_per_thread() {
                    let r = rng.next();
                    let ext = (r >> 32) as u32 % EXTENTS;
                    let blk = r % BLOCKS;
                    match r % 7 {
                        // Transient access: pin, verify both words, unpin.
                        0..=2 => {
                            let p = pool.pin(ExtentId(ext), blk);
                            assert_eq!(p.words()[0], expected_word(ext, blk, 0));
                            assert_eq!(p.words()[1], expected_word(ext, blk, 1));
                            checked += 1;
                            pool.unpin(p);
                        }
                        // Fetch-without-pin (directory-record charges).
                        3 | 4 => pool.touch(ExtentId(ext), blk),
                        // Acquire a long-lived pin.
                        5 => {
                            if held.len() < 2 {
                                let p = pool.pin(ExtentId(ext), blk);
                                held.push((ext, blk, p));
                            } else {
                                // Re-verify a held pin under pressure: its
                                // frame must still hold the right block.
                                let (e, b, p) = &held[(r >> 16) as usize % held.len()];
                                assert_eq!(p.words()[0], expected_word(*e, *b, 0));
                                checked += 1;
                            }
                        }
                        // Release the oldest held pin.
                        _ => {
                            if !held.is_empty() {
                                let (e, b, p) = held.remove(0);
                                assert_eq!(p.words()[1], expected_word(e, b, 1));
                                pool.unpin(p);
                            }
                        }
                    }
                }
                for (e, b, p) in held {
                    assert_eq!(p.words()[0], expected_word(e, b, 0));
                    pool.unpin(p);
                }
                verified.fetch_add(checked, Ordering::Relaxed);
            });
        }
    });
    let stats = pool.stats();
    assert!(verified.load(Ordering::Relaxed) > 0);
    // Conservation: every request either hit or missed, every miss is
    // exactly one backend fetch, and the pool never exceeded its ceiling.
    assert_eq!(stats.misses, pool.fetches());
    assert!(stats.misses >= 256, "working set must cycle through");
    assert!(stats.evictions > 0, "capacity 16 must evict under pressure");
    assert!(pool.resident() <= pool.hard_cap());
    // All pins released: the whole pool is reclaimable again.
    for blk in 0..BLOCKS {
        pool.touch(ExtentId(0), blk);
    }
}

#[test]
fn concurrent_cold_readers_fetch_each_block_once() {
    // 8 threads scan 8 disjoint extents through one shared pooled Disk,
    // each under its own session: the per-thread charge must equal the
    // per-extent block count, and the pool must fetch every block exactly
    // once — the cold-cache identity the experiments rely on, here at
    // full concurrency.
    const BLOCKS: u64 = 32;
    let cfg = IoConfig::with_block_bits(128);
    let mut build = Disk::new(cfg);
    let io = IoSession::untracked();
    for e in 0..THREADS as u32 {
        let ext = build.alloc();
        let mut w = build.writer(ext, &io);
        for blk in 0..BLOCKS {
            w.write_bits(expected_word(e, blk, 0), 64);
            w.write_bits(expected_word(e, blk, 1), 64);
        }
    }
    let stored: Vec<_> = (0..build.num_extents())
        .map(|i| psi_io::StoredExtent {
            bit_len: build.extent_bits(ExtentId(i as u32)),
            freed: false,
        })
        .collect();
    let pool = Arc::new(BufferPool::new(
        Arc::new(MemStore::from_disk(&build)),
        1024,
        128,
    ));
    let disk = Arc::new(Disk::from_stored(cfg, &stored, Arc::clone(&pool)));
    std::thread::scope(|scope| {
        for t in 0..THREADS as u32 {
            let disk = Arc::clone(&disk);
            scope.spawn(move || {
                let session = IoSession::new();
                let mut words = Vec::new();
                disk.reader(ExtentId(t), 0, &session)
                    .read_words(&mut words, BLOCKS * 128)
                    .unwrap();
                for blk in 0..BLOCKS {
                    assert_eq!(words[2 * blk as usize], expected_word(t, blk, 0));
                    assert_eq!(words[2 * blk as usize + 1], expected_word(t, blk, 1));
                }
                assert_eq!(session.stats().reads, BLOCKS);
            });
        }
    });
    assert_eq!(pool.fetches(), THREADS as u64 * BLOCKS);
    assert_eq!(pool.stats().misses, THREADS as u64 * BLOCKS);
    assert_eq!(pool.stats().evictions, 0, "pool holds the working set");
}

#[test]
fn racing_threads_on_the_same_blocks_fetch_once_and_charge_alike() {
    // All 8 threads scan the *same* extent cold: each session charges the
    // full block count (sessions are per-query state), while the pool
    // fetches each block exactly once — whichever thread misses first
    // fetches under the shard lock, everyone else hits.
    const BLOCKS: u64 = 64;
    let cfg = IoConfig::with_block_bits(128);
    let mut build = Disk::new(cfg);
    let io = IoSession::untracked();
    let ext = build.alloc();
    {
        let mut w = build.writer(ext, &io);
        for blk in 0..BLOCKS {
            w.write_bits(expected_word(0, blk, 0), 64);
            w.write_bits(expected_word(0, blk, 1), 64);
        }
    }
    let stored = [psi_io::StoredExtent {
        bit_len: build.extent_bits(ext),
        freed: false,
    }];
    let pool = Arc::new(BufferPool::new(
        Arc::new(MemStore::from_disk(&build)),
        256,
        128,
    ));
    let disk = Arc::new(Disk::from_stored(cfg, &stored, Arc::clone(&pool)));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let disk = Arc::clone(&disk);
            scope.spawn(move || {
                let session = IoSession::new();
                let mut words = Vec::new();
                disk.reader(ext, 0, &session)
                    .read_words(&mut words, BLOCKS * 128)
                    .unwrap();
                for blk in 0..BLOCKS {
                    assert_eq!(words[2 * blk as usize], expected_word(0, blk, 0));
                    assert_eq!(words[2 * blk as usize + 1], expected_word(0, blk, 1));
                }
                // Charge parity: losing the fetch race must not change
                // what a thread is charged.
                assert_eq!(session.stats().reads, BLOCKS);
                assert_eq!(session.stats().bits_read, BLOCKS * 128);
            });
        }
    });
    assert_eq!(pool.fetches(), BLOCKS, "each block fetched exactly once");
    let stats = pool.stats();
    assert_eq!(stats.misses, BLOCKS);
    assert_eq!(stats.hits + stats.misses, THREADS as u64 * BLOCKS);
}
