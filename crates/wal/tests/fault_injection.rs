//! Fault injection on the durable read/write path: transient backend
//! failures are retried away, permanent ones surface typed, and recovery
//! survives arbitrary corruption of its files without panicking.
//!
//! The corruption proptests honor `PSI_WAL_SEED` (default 1) so CI can
//! run a seed matrix over different deterministic workloads.

use std::sync::Arc;

use proptest::prelude::*;
use psi_api::{AppendIndex, MutOp, SecondaryIndex};
use psi_core::SemiDynamicIndex;
use psi_io::{
    BufferPool, Disk, ErrorClass, Fault, FaultyStore, IoConfig, IoSession, MemStore, PoolError,
    RetryPolicy, RetryStore, StoredExtent,
};
use psi_wal::{recover, wal_file_name, Durable, DurableOptions, WalError, CHECKPOINT_FILE};

const SIGMA: u32 = 8;

fn cfg() -> IoConfig {
    IoConfig::with_block_bits(512)
}

fn seed() -> u64 {
    std::env::var("PSI_WAL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn test_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("psi_wal_faults").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

// ----------------------------------------------- retry on the read path

/// A two-extent disk with a deterministic word pattern, served through a
/// fault-injecting, retry-wrapped backend.
fn pooled_disk(
    schedule: &[(u64, Fault)],
    policy: RetryPolicy,
) -> (Disk, Vec<Vec<u64>>, Arc<FaultyStore<MemStore>>) {
    let mut built = Disk::new(IoConfig::with_block_bits(256));
    let io = IoSession::untracked();
    let mut images = Vec::new();
    for e in 0..2u64 {
        let ext = built.alloc();
        {
            let mut w = built.writer(ext, &io);
            for j in 0..96u64 {
                w.write_bits(0xC0FF_EE00_0000_0000 | (e << 32) | j, 64);
            }
        }
        images.push(built.extent_words(ext).to_vec());
    }
    let faulty = Arc::new(FaultyStore::new(
        MemStore::from_disk(&built),
        schedule.iter().copied(),
    ));
    let retry: Arc<dyn psi_io::BlockStore> =
        Arc::new(RetryStore::new(SharedStore(Arc::clone(&faulty)), policy));
    let pool = Arc::new(BufferPool::new(retry, 64, 256));
    let stored: Vec<StoredExtent> = (0..2)
        .map(|i| StoredExtent {
            bit_len: built.extent_bits(psi_io::ExtentId(i)),
            freed: false,
        })
        .collect();
    let disk = Disk::from_stored(*built.config(), &stored, pool);
    (disk, images, faulty)
}

/// Arc wrapper so the test keeps a handle on the injector while the pool
/// owns the store chain.
#[derive(Debug)]
struct SharedStore(Arc<FaultyStore<MemStore>>);

impl psi_io::BlockStore for SharedStore {
    fn read_block(
        &self,
        ext: psi_io::ExtentId,
        block: u64,
        out: &mut [u64],
    ) -> Result<(), psi_io::BlockStoreError> {
        self.0.read_block(ext, block, out)
    }
    fn fetches(&self) -> u64 {
        self.0.fetches()
    }
    fn kind(&self) -> &'static str {
        self.0.kind()
    }
}

#[test]
fn transient_faults_on_lazy_reads_are_invisible_under_retry() {
    // Every third fetch fails transiently; the retry policy absorbs all
    // of it — reads see the exact original words.
    let schedule: Vec<(u64, Fault)> = (0..30).map(|i| (i * 3, Fault::Transient)).collect();
    let (disk, images, faulty) = pooled_disk(
        &schedule,
        RetryPolicy {
            max_attempts: 4,
            base_delay: std::time::Duration::from_micros(10),
        },
    );
    let io = IoSession::new();
    for (e, image) in images.iter().enumerate() {
        let ext = psi_io::ExtentId(e as u32);
        let mut words = Vec::new();
        disk.reader(ext, 0, &io)
            .read_words(&mut words, 64 * image.len() as u64)
            .expect("transient faults are retried");
        for (w, &want) in image.iter().enumerate() {
            assert_eq!(words[w], want, "extent {e} word {w}");
        }
    }
    assert!(faulty.injected() > 0, "the schedule actually fired");
}

#[test]
fn permanent_fault_is_not_retried_and_surfaces_typed() {
    let (disk, _, faulty) = pooled_disk(
        &[(0, Fault::Permanent)],
        RetryPolicy {
            max_attempts: 5,
            base_delay: std::time::Duration::from_micros(10),
        },
    );
    let pool = disk.pool().expect("pooled disk").clone();
    let attempts_before = faulty.attempts();
    match pool.try_pin(psi_io::ExtentId(0), 0) {
        Err(PoolError::Fetch { source }) => {
            assert_eq!(source.class, ErrorClass::Permanent);
        }
        other => panic!("expected typed fetch failure, got {other:?}"),
    }
    assert_eq!(
        faulty.attempts() - attempts_before,
        1,
        "a permanent failure must not burn retry attempts"
    );
    // The next pin (fault consumed) succeeds: the pool frame recovered.
    assert!(pool.try_pin(psi_io::ExtentId(0), 0).is_ok());
}

#[test]
fn transient_budget_exhaustion_surfaces_the_transient_error() {
    // More consecutive transient faults than the budget allows: the
    // caller sees a typed transient error and can decide to retry later.
    let schedule: Vec<(u64, Fault)> = (0..10).map(|i| (i, Fault::Transient)).collect();
    let (disk, _, _) = pooled_disk(
        &schedule,
        RetryPolicy {
            max_attempts: 2,
            base_delay: std::time::Duration::from_micros(10),
        },
    );
    let pool = disk.pool().expect("pooled disk").clone();
    match pool.try_pin(psi_io::ExtentId(0), 0) {
        Err(PoolError::Fetch { source }) => {
            assert_eq!(source.class, ErrorClass::Transient);
        }
        other => panic!("expected exhausted retries, got {other:?}"),
    }
}

#[test]
fn open_with_retry_policy_is_transparent_on_a_healthy_store() {
    // The retry wrapper in the open path must not change results.
    let dir = test_dir("retry_open");
    let mut idx = SemiDynamicIndex::new(SIGMA, cfg());
    let io = IoSession::untracked();
    let mut g = 7u64;
    for _ in 0..500 {
        g = g
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        idx.append(((g >> 33) % SIGMA as u64) as u32, &io);
    }
    let path = dir.join("plain.psi");
    psi_store::save(&idx, &path).expect("save");
    let plain = psi_store::open::<SemiDynamicIndex>(&path, &psi_store::OpenOptions::default())
        .expect("open");
    let retried = psi_store::open::<SemiDynamicIndex>(
        &path,
        &psi_store::OpenOptions {
            retry: Some(RetryPolicy::default()),
            ..psi_store::OpenOptions::default()
        },
    )
    .expect("open with retry");
    for lo in 0..SIGMA {
        for hi in lo..SIGMA {
            let io_a = IoSession::new();
            let io_b = IoSession::new();
            assert_eq!(
                plain.index.query(lo, hi, &io_a).to_vec(),
                retried.index.query(lo, hi, &io_b).to_vec(),
                "range [{lo}, {hi}]"
            );
        }
    }
}

// ------------------------------------- corruption proptests (never panic)

/// Builds a committed durable directory with a known append workload and
/// returns (dir, oracle sets, total ops).
fn durable_fixture(name: &str) -> (std::path::PathBuf, Vec<u32>, u64) {
    let dir = test_dir(name);
    let mut symbols = Vec::new();
    let mut g = seed().wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let idx = SemiDynamicIndex::new(SIGMA, cfg());
    let mut d = Durable::create(
        &dir,
        idx,
        DurableOptions {
            group_commit_ops: 16,
            ..DurableOptions::default()
        },
    )
    .expect("create");
    let io = IoSession::untracked();
    for _ in 0..150 {
        g = g
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let sym = ((g >> 33) % SIGMA as u64) as u32;
        symbols.push(sym);
        d.apply(&MutOp::Append { symbol: sym }, &io).expect("apply");
    }
    d.commit().expect("commit");
    let epoch = d.epoch();
    drop(d);
    (dir, symbols, epoch)
}

/// Recovered state must be an exact prefix of the workload: every query
/// range agrees with the first `n` appended symbols.
fn assert_is_prefix(idx: &SemiDynamicIndex, symbols: &[u32], n: usize) {
    let io = IoSession::new();
    for lo in (0..SIGMA).step_by(3) {
        let got = idx.query(lo, SIGMA - 1, &io).to_vec();
        let want: Vec<u64> = symbols[..n]
            .iter()
            .enumerate()
            .filter(|(_, &s)| s >= lo)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(got, want, "prefix {n}, range [{lo}, {}]", SIGMA - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Arbitrary log corruption — truncation plus up to 6 byte flips —
    // never panics recovery; a successful recovery is always an exact
    // workload prefix covering at least the pre-corruption checkpoint.
    #[test]
    fn log_corruption_never_panics_recovery(
        cut_permille in 0u64..1001,
        flips in proptest::collection::vec((0usize..100_000, 1u8..255), 0..6),
    ) {
        let (dir, symbols, epoch) = durable_fixture("log_corruption");
        let log_path = dir.join(wal_file_name(epoch));
        let mut log = std::fs::read(&log_path).expect("read log");
        let keep = (log.len() as u64 * cut_permille / 1000) as usize;
        log.truncate(keep.min(log.len()));
        for &(at, xor) in &flips {
            if !log.is_empty() {
                let i = at % log.len();
                log[i] ^= xor;
            }
        }
        std::fs::write(&log_path, &log).expect("rewrite log");

        match recover::<SemiDynamicIndex>(&dir, DurableOptions::default()) {
            Ok((rd, report)) => {
                let n = (report.checkpoint_seq + report.replayed as u64) as usize;
                prop_assert!(n <= symbols.len());
                assert_is_prefix(rd.index(), &symbols, n);
            }
            // Typed failure (e.g. the log's header was mangled into
            // another epoch's): acceptable, never a panic.
            Err(WalError::Io { .. } | WalError::Store(_) | WalError::Recovery { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    // Arbitrary superblock-slot corruption and file truncation on the
    // checkpoint: recovery either falls back to a surviving slot (exact
    // state) or fails typed — never panics, never serves garbage.
    #[test]
    fn checkpoint_slot_corruption_never_panics_recovery(
        keep_full in any::<bool>(),
        truncate_to in 0u64..40_000,
        flips in proptest::collection::vec((0usize..8192, 1u8..255), 1..5),
    ) {
        let (dir, symbols, _) = durable_fixture("slot_corruption");
        let ck_path = dir.join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&ck_path).expect("read checkpoint");
        for &(at, xor) in &flips {
            let i = at % bytes.len().min(8192);
            bytes[i] ^= xor;
        }
        if !keep_full {
            bytes.truncate((truncate_to as usize).min(bytes.len()));
        }
        std::fs::write(&ck_path, &bytes).expect("rewrite checkpoint");

        match recover::<SemiDynamicIndex>(&dir, DurableOptions::default()) {
            Ok((rd, report)) => {
                let n = (report.checkpoint_seq + report.replayed as u64) as usize;
                prop_assert!(n <= symbols.len());
                assert_is_prefix(rd.index(), &symbols, n);
            }
            Err(WalError::Io { .. } | WalError::Store(_) | WalError::Recovery { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }
}
