//! `io/retries_transient` counts the retries a `RetryStore` really makes.
//!
//! A test binary of its own: the registry is process-global, so no other
//! test may fetch through a retrying store while this one reads deltas.

use std::sync::Arc;
use std::time::Duration;

use psi_io::{
    io_metrics, BufferPool, Disk, Fault, FaultyStore, IoConfig, IoSession, MemStore, RetryPolicy,
    RetryStore, StoredExtent,
};

#[test]
fn retry_store_counts_each_extra_attempt_into_the_registry() {
    // One extent of four 2-word blocks.
    let cfg = IoConfig::with_block_bits(128);
    let mut disk = Disk::new(cfg);
    let ext = disk.alloc();
    let words: Vec<u64> = (1..=8).collect();
    {
        let io = IoSession::untracked();
        let mut w = disk.writer(ext, &io);
        for &v in &words {
            w.write_bits(v, 64);
        }
    }
    // Fetch ordinals 0 and 1 (block 0, twice) and 4 (block 2, once)
    // fail transiently: three extra attempts in all.
    let k = 3;
    let faulty = FaultyStore::new(
        MemStore::from_disk(&disk),
        [
            (0, Fault::Transient),
            (1, Fault::Transient),
            (4, Fault::Transient),
        ],
    );
    let retry = Arc::new(RetryStore::new(
        faulty,
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::ZERO,
        },
    ));
    let pool = Arc::new(BufferPool::new(retry.clone(), 8, cfg.block_bits));
    let opened = Disk::from_stored(
        cfg,
        &[StoredExtent {
            bit_len: 64 * words.len() as u64,
            freed: false,
        }],
        pool,
    );

    let before = io_metrics().retries_transient.get();
    let io = IoSession::new();
    let mut out = Vec::new();
    opened
        .reader(ext, 0, &io)
        .read_words(&mut out, 64 * words.len() as u64)
        .expect("every flake is retried away");
    assert_eq!(out, words);
    assert_eq!(io.stats().reads, 4);
    assert_eq!(retry.retries(), k);
    assert_eq!(
        io_metrics().retries_transient.get() - before,
        retry.retries()
    );
}
