//! Batch execution under pool-budget exhaustion: a query that cannot pin
//! a frame must fail alone, in its own result slot, while sibling
//! queries in the same batch return correct rows (PR 8 satellite).
//!
//! The failing index is a real `OptimalIndex` re-hosted (via the public
//! `PersistIndex` parts API) over a deliberately tiny buffer pool — two
//! frames, hard cap two — whose frames the test pins itself, so the
//! index cannot pin any other block its query needs. Before the fix, the
//! worker thread panicked on `PoolError::Exhausted` and poisoned the
//! whole batch; now the slot settles to a typed `QueryError::Read` with
//! `Transient` class (frames free up once other pins drop) and the pool
//! itself stays serviceable afterwards.

use std::sync::Arc;

use psi::io::{
    BufferPool, Disk, ErrorClass, ExtentId, IoConfig, MemStore, PinnedBlock, StoredExtent,
};
use psi::query::{IndexedColumn, IndexedTable, Predicate, QueryError};
use psi::store::PersistIndex;
use psi::{naive_query, OptimalIndex, SecondaryIndex};

const BLOCK_BITS: u64 = 512;
const N: usize = 4096;
const WIDE_SIGMA: u32 = 64;

/// The wide column: symbols 1..=62 each appear exactly twice, at rows
/// spread far apart (different blocks), everything else is 0. A range
/// query over [1, 62] matches 124 rows from a many-slot cover whose
/// streams live in many blocks; the engine lifts them one pinned block
/// at a time.
fn wide_data() -> Vec<u32> {
    let mut data = vec![0u32; N];
    for s in 1..63u32 {
        data[(s as usize) * 64] = s;
        data[(s as usize) * 64 + 33] = s;
    }
    data
}

fn narrow_data() -> Vec<u32> {
    (0..N as u32).map(|i| i % 8).collect()
}

/// Re-hosts a built index over a fresh pool with the given frame budget,
/// exactly the way `psi_store::open` wires an opened index — but with a
/// hard cap we control. Returns the pool too, so the test can spend its
/// frames.
fn rehost(
    built: &OptimalIndex,
    capacity: usize,
    hard_cap: usize,
) -> (OptimalIndex, Arc<BufferPool>) {
    let mut meta = psi::store::MetaBuf::new();
    built.write_meta(&mut meta);
    let disks = PersistIndex::disks(built);
    let d = disks[0];
    let stored: Vec<StoredExtent> = (0..d.num_extents())
        .map(|i| StoredExtent {
            bit_len: d.extent_bits(ExtentId(i as u32)),
            freed: d.is_freed(ExtentId(i as u32)),
        })
        .collect();
    let store = Arc::new(MemStore::from_disk(d));
    let pool = Arc::new(BufferPool::with_shards(
        store,
        capacity,
        hard_cap,
        1,
        d.block_bits(),
    ));
    let disk = Disk::from_stored(*d.config(), &stored, Arc::clone(&pool));
    let mut cursor = psi::store::MetaCursor::new(meta.bytes());
    let index = OptimalIndex::from_parts(&mut cursor, vec![disk]).expect("re-host built index");
    (index, pool)
}

/// Pins the first `frames` stored blocks of `built`'s volume in `pool`.
fn pin_blocks(built: &OptimalIndex, pool: &BufferPool, frames: usize) -> Vec<PinnedBlock> {
    let d = PersistIndex::disks(built)[0];
    (0..d.num_extents() as u32)
        .map(ExtentId)
        .flat_map(|ext| (0..d.extent_blocks(ext)).map(move |b| (ext, b)))
        .take(frames)
        .map(|(ext, b)| pool.pin(ext, b))
        .collect()
}

fn table_with(wide: OptimalIndex) -> IndexedTable {
    let built_narrow =
        OptimalIndex::build(&narrow_data(), 8, IoConfig::with_block_bits(BLOCK_BITS));
    IndexedTable::from_columns(vec![
        IndexedColumn {
            name: "wide".into(),
            sigma: WIDE_SIGMA,
            index: Box::new(wide),
        },
        IndexedColumn {
            name: "narrow".into(),
            sigma: 8,
            index: Box::new(built_narrow),
        },
    ])
}

#[test]
fn exhausted_pool_fails_one_slot_and_siblings_survive() {
    let data = wide_data();
    let built = OptimalIndex::build(&data, WIDE_SIGMA, IoConfig::with_block_bits(BLOCK_BITS));

    // Sanity: re-hosting over a generous pool answers correctly — the
    // exhaustion below is about the budget, not a broken re-host — and
    // the wide query needs more blocks than the test will leave pinned.
    let (generous, _) = rehost(&built, 1024, 4096);
    let (rows, io) = generous.query_measured(1, 62);
    assert_eq!(rows.to_vec(), naive_query(&data, 1, 62).to_vec());
    assert!(io.reads > 2, "wide query reads only {} blocks", io.reads);

    // Two frames total, hard cap two, both pinned by the test: the wide
    // query cannot pin a block of its own.
    let (tiny, pool) = rehost(&built, 2, 2);
    let t = table_with(tiny);
    let pins = pin_blocks(&built, &pool, 2);
    assert_eq!(pins.len(), 2);

    let batch = vec![
        Predicate::point("narrow", 3).normalize().unwrap(),
        Predicate::range("wide", 1, 62).normalize().unwrap(),
        Predicate::range("narrow", 2, 5).normalize().unwrap(),
    ];
    let narrow = narrow_data();
    let want_point = naive_query(&narrow, 3, 3).to_vec();
    let want_range = naive_query(&narrow, 2, 5).to_vec();

    for threads in [1, 2, 0] {
        let settled = t.execute_batch_settled(&batch, threads);
        assert_eq!(settled.len(), 3);
        let ok0 = settled[0]
            .as_ref()
            .unwrap_or_else(|e| panic!("narrow point must survive ({threads} threads): {e}"));
        assert_eq!(ok0.rows.to_vec(), want_point, "{threads} threads");
        match &settled[1] {
            Err(QueryError::Read(e)) => assert_eq!(
                e.class,
                ErrorClass::Transient,
                "exhaustion is transient (frames free up), got: {e}"
            ),
            other => panic!(
                "wide range must fail typed on a spent 2-frame budget \
                 ({threads} threads), got {other:?}"
            ),
        }
        let ok2 = settled[2]
            .as_ref()
            .unwrap_or_else(|e| panic!("narrow range must survive ({threads} threads): {e}"));
        assert_eq!(ok2.rows.to_vec(), want_range, "{threads} threads");
    }

    // The failed query unpinned everything on abort: once the test's
    // pins drop, the same 2-frame pool serves the wide range itself (the
    // lift pins one block at a time) and single-stream queries.
    for pin in pins {
        pool.unpin(pin);
    }
    let wide = t
        .execute(&Predicate::range("wide", 1, 62))
        .expect("the wide range fits two frames once the pins drop");
    assert_eq!(wide.rows.to_vec(), naive_query(&data, 1, 62).to_vec());
    let after = t
        .execute(&Predicate::point("wide", 5))
        .expect("single-stream query fits two frames after the failed query");
    assert_eq!(after.rows.to_vec(), naive_query(&data, 5, 5).to_vec());
}
