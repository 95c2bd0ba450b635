//! Fault injection and retry for the real-read backends.
//!
//! Robustness is proven, not claimed: [`FaultyStore`] wraps any
//! [`BlockStore`] with a *deterministic* error schedule — the n-th fetch
//! fails transiently, permanently, or returns a short (torn) read — so
//! the durability suite can script exact failure interleavings around a
//! real `FileStore`. [`RetryStore`] is the production-shaped response: it
//! retries [`ErrorClass::Transient`] failures with exponential backoff
//! and surfaces [`ErrorClass::Permanent`] ones unchanged, so a flaky
//! read never reaches the buffer pool but a corrupt page always does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::backend::{BlockStore, BlockStoreError, ErrorClass};
use crate::disk::ExtentId;
use crate::metrics::io_metrics;

/// One scripted failure in a [`FaultyStore`] schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail with a transient error (retry would succeed).
    Transient,
    /// Fail with a permanent error (retry cannot help).
    Permanent,
    /// Return success but only fill the first `words` output words,
    /// leaving the rest stale — a torn read. The checksum layer above
    /// (`VolumeStore`) must catch this and report it as permanent.
    ShortRead {
        /// How many leading words the torn read delivers.
        words: usize,
    },
}

/// Deterministic fault-injecting wrapper around any [`BlockStore`].
///
/// The schedule maps *global fetch ordinals* (0-based, counted across
/// all extents) to faults; fetches not in the schedule pass through.
/// Determinism makes failures reproducible: the same schedule against
/// the same access sequence fails the same reads.
#[derive(Debug)]
pub struct FaultyStore<S> {
    inner: S,
    schedule: Mutex<HashMap<u64, Fault>>,
    attempts: AtomicU64,
    injected: AtomicU64,
}

impl<S: BlockStore> FaultyStore<S> {
    /// Wraps `inner` with a fault schedule keyed by fetch ordinal.
    pub fn new(inner: S, schedule: impl IntoIterator<Item = (u64, Fault)>) -> Self {
        FaultyStore {
            inner,
            schedule: Mutex::new(schedule.into_iter().collect()),
            attempts: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Total fetch attempts seen (including the failed ones).
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// How many faults fired so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: BlockStore> FaultyStore<S> {
    /// Consults (and consumes) the schedule for the next fetch ordinal.
    fn next_fault(&self) -> (u64, Option<Fault>) {
        let ordinal = self.attempts.fetch_add(1, Ordering::SeqCst);
        let fault = self.schedule.lock().unwrap().remove(&ordinal);
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        (ordinal, fault)
    }
}

impl<S: BlockStore> BlockStore for FaultyStore<S> {
    fn read_block(
        &self,
        ext: ExtentId,
        block: u64,
        out: &mut [u64],
    ) -> Result<(), BlockStoreError> {
        let (ordinal, fault) = self.next_fault();
        match fault {
            None => self.inner.read_block(ext, block, out),
            Some(Fault::Transient) => Err(BlockStoreError::transient(format!(
                "injected transient fault at fetch {ordinal} (extent {}, block {block})",
                ext.0
            ))),
            Some(Fault::Permanent) => Err(BlockStoreError::permanent(format!(
                "injected permanent fault at fetch {ordinal} (extent {}, block {block})",
                ext.0
            ))),
            Some(Fault::ShortRead { words }) => {
                self.inner.read_block(ext, block, out)?;
                // Corrupt the tail the way a torn positioned read would:
                // the delivered prefix is real, the rest is garbage.
                for slot in out.iter_mut().skip(words) {
                    *slot = !*slot;
                }
                Ok(())
            }
        }
    }

    fn read_block_verified(
        &self,
        ext: ExtentId,
        block: u64,
        out: &mut [u64],
    ) -> Result<(), BlockStoreError> {
        let (ordinal, fault) = self.next_fault();
        match fault {
            None => self.inner.read_block_verified(ext, block, out),
            Some(Fault::Transient) => Err(BlockStoreError::transient(format!(
                "injected transient fault at fetch {ordinal} (extent {}, block {block})",
                ext.0
            ))),
            Some(Fault::Permanent) => Err(BlockStoreError::permanent(format!(
                "injected permanent fault at fetch {ordinal} (extent {}, block {block})",
                ext.0
            ))),
            // On the verified path a torn read *is caught* by the layer
            // this method models — surface it as corruption rather than
            // silently delivering a mangled page.
            Some(Fault::ShortRead { words }) => Err(BlockStoreError::corrupt(format!(
                "injected torn read ({words} good words) at fetch {ordinal} \
                 (extent {}, block {block})",
                ext.0
            ))),
        }
    }

    fn fetches(&self) -> u64 {
        self.inner.fetches()
    }

    fn kind(&self) -> &'static str {
        "faulty"
    }
}

/// How many times to retry a transient failure, and how long to back off.
///
/// Backoff is exponential from `base_delay` (attempt k sleeps
/// `base_delay * 2^k`); tests use a zero base so injected flakes retry
/// instantly.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum attempts including the first (must be ≥ 1).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles each further retry.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
        }
    }
}

/// Runs `op` under `policy`: transient failures retry with exponential
/// backoff until the attempt budget runs out; permanent and corrupt
/// failures (and the last transient one) surface unchanged.
///
/// The sleeper receives each computed backoff delay (`base_delay * 2^k`)
/// *instead of* the wall clock being consulted, so tests can script and
/// assert the exact backoff sequence without ever sleeping;
/// [`RetryStore`] passes its own.
pub fn retry_transient_with<T, E>(
    policy: RetryPolicy,
    classify: impl Fn(&E) -> ErrorClass,
    mut sleep: impl FnMut(Duration),
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let attempts = policy.max_attempts.max(1);
    let mut delay = policy.base_delay;
    let mut last = None;
    for attempt in 0..attempts {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                // Only transient failures are worth another attempt;
                // permanent *and corrupt* ones surface immediately.
                if classify(&e) != ErrorClass::Transient {
                    return Err(e);
                }
                last = Some(e);
                if attempt + 1 < attempts && !delay.is_zero() {
                    sleep(delay);
                    delay = delay.saturating_mul(2);
                }
            }
        }
    }
    Err(last.expect("at least one attempt"))
}

/// How a [`RetryStore`] spends its backoff delays.
type Sleeper = Box<dyn Fn(Duration) + Send + Sync>;

/// Retry-with-backoff wrapper around any [`BlockStore`].
///
/// Transient fetch failures are retried per [`RetryPolicy`]; permanent
/// and corrupt ones pass through immediately. [`Self::retries`] counts
/// the extra attempts, so tests can assert a scripted flake cost exactly
/// the expected number of re-reads, and each one also counts into the
/// process's `io/retries_transient`. The backoff sleeper is injectable
/// ([`Self::with_sleeper`]) so tests never touch the wall clock.
pub struct RetryStore<S> {
    inner: S,
    policy: RetryPolicy,
    retries: AtomicU64,
    sleeper: Sleeper,
}

impl<S: std::fmt::Debug> std::fmt::Debug for RetryStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryStore")
            .field("inner", &self.inner)
            .field("policy", &self.policy)
            .field("retries", &self.retries)
            .finish_non_exhaustive()
    }
}

impl<S: BlockStore> RetryStore<S> {
    /// Wraps `inner` with `policy`, backing off on the real clock.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        Self::with_sleeper(inner, policy, Box::new(std::thread::sleep))
    }

    /// Wraps `inner` with `policy` and a custom backoff sleeper.
    ///
    /// Tests pass a recording closure (no wall-clock sleeps, scripted
    /// delays become assertable data); production uses [`Self::new`].
    pub fn with_sleeper(inner: S, policy: RetryPolicy, sleeper: Sleeper) -> Self {
        RetryStore {
            inner,
            policy,
            retries: AtomicU64::new(0),
            sleeper,
        }
    }

    /// Extra attempts spent recovering from transient failures.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn run_with_retry(
        &self,
        mut op: impl FnMut() -> Result<(), BlockStoreError>,
    ) -> Result<(), BlockStoreError> {
        let mut first = true;
        retry_transient_with(
            self.policy,
            |e: &BlockStoreError| e.class,
            |d| (self.sleeper)(d),
            || {
                if !first {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    io_metrics().retries_transient.inc();
                }
                first = false;
                op()
            },
        )
    }
}

impl<S: BlockStore> BlockStore for RetryStore<S> {
    fn read_block(
        &self,
        ext: ExtentId,
        block: u64,
        out: &mut [u64],
    ) -> Result<(), BlockStoreError> {
        self.run_with_retry(|| self.inner.read_block(ext, block, out))
    }

    fn read_block_verified(
        &self,
        ext: ExtentId,
        block: u64,
        out: &mut [u64],
    ) -> Result<(), BlockStoreError> {
        self.run_with_retry(|| self.inner.read_block_verified(ext, block, out))
    }

    fn fetches(&self) -> u64 {
        self.inner.fetches()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStore;
    use crate::{Disk, IoConfig, IoSession};

    fn store_with_one_extent() -> MemStore {
        let mut disk = Disk::new(IoConfig::with_block_bits(128));
        let ext = disk.alloc();
        let io = IoSession::untracked();
        {
            let mut w = disk.writer(ext, &io);
            for i in 0..4u64 {
                w.write_bits(i + 1, 64);
            }
        }
        MemStore::from_disk(&disk)
    }

    #[test]
    fn transient_faults_are_retried_away() {
        let faulty = FaultyStore::new(
            store_with_one_extent(),
            [(0, Fault::Transient), (1, Fault::Transient)],
        );
        let retry = RetryStore::new(
            faulty,
            RetryPolicy {
                max_attempts: 4,
                base_delay: Duration::ZERO,
            },
        );
        let mut buf = vec![0u64; 2];
        retry.read_block(ExtentId(0), 0, &mut buf).unwrap();
        assert_eq!(buf, vec![1, 2]);
        assert_eq!(retry.retries(), 2);
        assert_eq!(retry.inner().injected(), 2);
    }

    #[test]
    fn permanent_fault_surfaces_immediately() {
        let faulty = FaultyStore::new(store_with_one_extent(), [(0, Fault::Permanent)]);
        let retry = RetryStore::new(
            faulty,
            RetryPolicy {
                max_attempts: 8,
                base_delay: Duration::ZERO,
            },
        );
        let mut buf = vec![0u64; 2];
        let err = retry.read_block(ExtentId(0), 0, &mut buf).unwrap_err();
        assert_eq!(err.class, ErrorClass::Permanent);
        assert_eq!(retry.retries(), 0, "permanent errors are not retried");
    }

    #[test]
    fn transient_budget_exhaustion_surfaces_last_error() {
        let faulty = FaultyStore::new(
            store_with_one_extent(),
            (0..5).map(|i| (i, Fault::Transient)),
        );
        let retry = RetryStore::new(
            faulty,
            RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::ZERO,
            },
        );
        let mut buf = vec![0u64; 2];
        let err = retry.read_block(ExtentId(0), 0, &mut buf).unwrap_err();
        assert_eq!(err.class, ErrorClass::Transient);
        assert_eq!(retry.retries(), 2);
    }

    #[test]
    fn short_read_corrupts_tail_words() {
        let faulty = FaultyStore::new(
            store_with_one_extent(),
            [(0, Fault::ShortRead { words: 1 })],
        );
        let mut buf = vec![0u64; 2];
        faulty.read_block(ExtentId(0), 0, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "delivered prefix is real");
        assert_ne!(buf[1], 2, "torn tail is garbage");
    }

    #[test]
    fn classify_io_kinds() {
        use std::io::ErrorKind as K;
        assert_eq!(crate::classify_io(K::Interrupted), ErrorClass::Transient);
        assert_eq!(crate::classify_io(K::TimedOut), ErrorClass::Transient);
        assert_eq!(crate::classify_io(K::NotFound), ErrorClass::Permanent);
        assert_eq!(crate::classify_io(K::UnexpectedEof), ErrorClass::Permanent);
    }

    #[test]
    fn injected_sleeper_records_exponential_backoff_without_sleeping() {
        // Three consecutive transient faults under a 4-attempt budget:
        // the injected sleeper sees the exact doubling sequence and no
        // wall-clock time passes.
        let faulty = FaultyStore::new(
            store_with_one_extent(),
            (0..3).map(|i| (i, Fault::Transient)),
        );
        let slept = std::sync::Arc::new(Mutex::new(Vec::new()));
        let recorder = std::sync::Arc::clone(&slept);
        let retry = RetryStore::with_sleeper(
            faulty,
            RetryPolicy {
                max_attempts: 4,
                base_delay: Duration::from_millis(10),
            },
            Box::new(move |d| recorder.lock().unwrap().push(d)),
        );
        let started = std::time::Instant::now();
        let mut buf = vec![0u64; 2];
        retry.read_block(ExtentId(0), 0, &mut buf).unwrap();
        assert_eq!(buf, vec![1, 2]);
        assert_eq!(retry.retries(), 3);
        assert_eq!(
            *slept.lock().unwrap(),
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(40)
            ]
        );
        assert!(
            started.elapsed() < Duration::from_millis(10),
            "no wall-clock sleeps"
        );
    }

    #[test]
    fn corrupt_errors_are_not_retried() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::ZERO,
        };
        let mut calls = 0;
        let out: Result<(), BlockStoreError> = retry_transient_with(
            policy,
            |e: &BlockStoreError| e.class,
            |_| {},
            || {
                calls += 1;
                Err(BlockStoreError::corrupt("trailer mismatch"))
            },
        );
        assert_eq!(out.unwrap_err().class, ErrorClass::Corrupt);
        assert_eq!(calls, 1, "corruption is quarantined, not retried");
    }

    #[test]
    fn verified_reads_pass_through_schedule_and_report_torn_reads_corrupt() {
        let faulty = FaultyStore::new(
            store_with_one_extent(),
            [(0, Fault::ShortRead { words: 1 })],
        );
        let mut buf = vec![0u64; 2];
        let err = faulty
            .read_block_verified(ExtentId(0), 0, &mut buf)
            .unwrap_err();
        assert_eq!(err.class, ErrorClass::Corrupt);
        // Schedule spent: the next verified read is clean.
        faulty
            .read_block_verified(ExtentId(0), 0, &mut buf)
            .unwrap();
        assert_eq!(buf, vec![1, 2]);
    }

    #[test]
    fn retry_helper_counts_attempts() {
        let mut calls = 0;
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::ZERO,
        };
        let out: Result<u32, &str> = retry_transient_with(
            policy,
            |_| ErrorClass::Transient,
            |_| {},
            || {
                calls += 1;
                if calls < 3 {
                    Err("flake")
                } else {
                    Ok(7)
                }
            },
        );
        assert_eq!(out, Ok(7));
        assert_eq!(calls, 3);
    }
}
