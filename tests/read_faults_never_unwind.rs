//! Read faults travel as values, never as unwinds.
//!
//! Every persisted index family is saved to a real store file and
//! reopened through the production `open_with_wrap` hook with a
//! [`FaultyStore`] that fails every fetch: permanently, as a corrupt page
//! (a torn read that page verification catches), or transiently more
//! often than the retry budget allows. Point and range `try_query` calls
//! and an `IndexedTable` conjunction must each return a typed error of
//! the scheduled class, and a panic hook installed after one healthy
//! query must count no panic at all: a failed fetch is returned by the
//! bulk lift that asked for it, not raised and caught.
//!
//! The binary holds this one test, because the hook is process-wide.
//! `PSI_READ_FAULT_SEED` and `PSI_READ_FAULT_BACKEND` pick the workload
//! and the payload backend, as in `read_fault_injection.rs`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use psi::baselines::*;
use psi::io::{BlockStore, ErrorClass, Fault, FaultyStore, RetryPolicy};
use psi::query::{IndexedColumn, QueryError};
use psi::store::{open_with_wrap, Backend, OpenOptions, PersistIndex, StoreWrap};
use psi::{
    naive_query, FullyDynamicIndex, IndexedTable, IoConfig, IoSession, OptimalIndex, Predicate,
    SecondaryIndex, SemiDynamicIndex, UniformTreeIndex,
};

type SaveFn = fn(&[u32], u32, &Path);
type Injector = Arc<FaultyStore<Arc<dyn BlockStore>>>;
type OpenFn = fn(&Path, &OpenOptions, Option<StoreWrap>) -> Box<dyn SecondaryIndex>;

fn cfg() -> IoConfig {
    IoConfig::with_block_bits(512)
}

fn env_seed() -> u64 {
    std::env::var("PSI_READ_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn env_backend() -> Backend {
    match std::env::var("PSI_READ_FAULT_BACKEND").as_deref() {
        Ok("mmap") => Backend::Mmap,
        _ => Backend::File,
    }
}

fn save<I: PersistIndex>(index: &I, path: &Path) {
    psi::store::save(index, path).expect("save index");
}

fn open<I: PersistIndex + SecondaryIndex + 'static>(
    path: &Path,
    opts: &OpenOptions,
    wrap: Option<StoreWrap>,
) -> Box<dyn SecondaryIndex> {
    Box::new(
        open_with_wrap::<I>(path, opts, wrap)
            .expect("open index")
            .index,
    )
}

/// The twelve persisted families of `read_fault_injection.rs`.
fn families() -> Vec<(&'static str, SaveFn, OpenFn)> {
    vec![
        (
            "optimal",
            |s, g, p| save(&OptimalIndex::build(s, g, cfg()), p),
            open::<OptimalIndex>,
        ),
        (
            "uniform_tree",
            |s, g, p| save(&UniformTreeIndex::build(s, g, cfg()), p),
            open::<UniformTreeIndex>,
        ),
        (
            "semi_dynamic",
            |s, g, p| save(&SemiDynamicIndex::build(s, g, cfg()), p),
            open::<SemiDynamicIndex>,
        ),
        (
            "fully_dynamic",
            |s, g, p| save(&FullyDynamicIndex::build(s, g, cfg()), p),
            open::<FullyDynamicIndex>,
        ),
        (
            "buffered_bitmap",
            |s, g, p| save(&psi::BufferedBitmapIndex::build(s, g, cfg()), p),
            open::<psi::BufferedBitmapIndex>,
        ),
        (
            "position_list",
            |s, g, p| save(&PositionListIndex::build(s, g, cfg()), p),
            open::<PositionListIndex>,
        ),
        (
            "uncompressed",
            |s, g, p| save(&UncompressedBitmapIndex::build(s, g, cfg()), p),
            open::<UncompressedBitmapIndex>,
        ),
        (
            "compressed_scan",
            |s, g, p| save(&CompressedScanIndex::build(s, g, cfg()), p),
            open::<CompressedScanIndex>,
        ),
        (
            "binned_w4",
            |s, g, p| save(&BinnedBitmapIndex::build(s, g, 4, cfg()), p),
            open::<BinnedBitmapIndex>,
        ),
        (
            "multires_w4",
            |s, g, p| save(&MultiResolutionIndex::build(s, g, 4, cfg()), p),
            open::<MultiResolutionIndex>,
        ),
        (
            "range_encoded",
            |s, g, p| save(&RangeEncodedIndex::build(s, g, cfg()), p),
            open::<RangeEncodedIndex>,
        ),
        (
            "interval_encoded",
            |s, g, p| save(&IntervalEncodedIndex::build(s, g, cfg()), p),
            open::<IntervalEncodedIndex>,
        ),
    ]
}

fn test_dir() -> PathBuf {
    let dir = std::env::temp_dir()
        .join("psi_read_faults_never_unwind")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

/// A schedule that fails every fetch the test can make with `fault`.
fn every_fetch(fault: Fault) -> Vec<(u64, Fault)> {
    (0..100_000).map(|i| (i, fault)).collect()
}

#[test]
fn read_faults_are_typed_errors_and_never_unwind() {
    const SIGMA: u32 = 6;
    let seed = env_seed();
    let columns = [
        psi::workloads::uniform(700, SIGMA, seed),
        psi::workloads::zipf(700, SIGMA, 1.0, seed + 1),
    ];
    let dir = test_dir();
    let opts = OpenOptions {
        backend: env_backend(),
        pool_blocks: 64,
        retry: Some(RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::ZERO,
        }),
        verify: true,
    };
    let faults = [
        (Fault::Permanent, ErrorClass::Permanent),
        (Fault::ShortRead { words: 1 }, ErrorClass::Corrupt),
        (Fault::Transient, ErrorClass::Transient),
    ];
    for (name, save, _) in families() {
        for (c, data) in columns.iter().enumerate() {
            save(data, SIGMA, &dir.join(format!("{name}_{c}.psi")));
        }
    }

    // One healthy query first, so that whatever the read path sets up on
    // first use is in place before the counting hook replaces it.
    let (_, _, open_first) = families()[0];
    let healthy = open_first(&dir.join("optimal_0.psi"), &opts, None);
    let io = IoSession::new();
    let rows = healthy.try_query(1, 3, &io).expect("healthy read");
    assert_eq!(rows.to_vec(), naive_query(&columns[0], 1, 3).to_vec());

    let panics = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&panics);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        counted.fetch_add(1, Ordering::SeqCst);
        previous(info);
    }));

    for (name, _, open_fn) in families() {
        for (fault, class) in faults {
            let injectors = std::sync::Mutex::new(Vec::<Injector>::new());
            let wrap_fn = |store: Arc<dyn BlockStore>, _volume: usize| {
                let faulty = Arc::new(FaultyStore::new(store, every_fetch(fault)));
                injectors.lock().unwrap().push(Arc::clone(&faulty));
                faulty as Arc<dyn BlockStore>
            };
            let open_col =
                |c: usize| open_fn(&dir.join(format!("{name}_{c}.psi")), &opts, Some(&wrap_fn));
            let index = open_col(0);
            for (lo, hi) in [(2, 2), (1, 4)] {
                let io = IoSession::new();
                match index.try_query(lo, hi, &io) {
                    Err(e) => {
                        assert_eq!(e.class, class, "{name} [{lo}, {hi}] under {fault:?}: {e}")
                    }
                    Ok(_) => panic!("{name} [{lo}, {hi}] under {fault:?} read no faulty block"),
                }
            }
            let table = IndexedTable::from_columns(
                (0..columns.len())
                    .map(|c| IndexedColumn {
                        name: format!("c{c}"),
                        sigma: SIGMA,
                        index: open_col(c),
                    })
                    .collect(),
            );
            let conjunction =
                Predicate::and([Predicate::range("c0", 1, 4), Predicate::range("c1", 0, 2)]);
            match table.execute(&conjunction) {
                Err(QueryError::Read(e)) => {
                    assert_eq!(e.class, class, "{name} conjunction under {fault:?}: {e}")
                }
                other => panic!("{name} conjunction under {fault:?}: {other:?}"),
            }
            let fired: u64 = injectors.lock().unwrap().iter().map(|f| f.injected()).sum();
            assert!(fired > 0, "{name}: no fault fired under {fault:?}");
        }
    }
    let _ = std::panic::take_hook();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        panics.load(Ordering::SeqCst),
        0,
        "a read fault unwound instead of returning its error"
    );
}
