//! Typed read failures.
//!
//! A pooled read fails as a value: the bulk lift
//! ([`crate::DiskReader::read_words`]) and the directory charge
//! ([`crate::Disk::charge_read_span`]) return `Err(ReadError)` naming the
//! block that could not be served, and every index's `try_query`
//! propagates it with `?`. Decoding runs only over words already in
//! memory, so it has nothing left to fail. Per-bit cursors serve resident
//! extents only.

use crate::backend::ErrorClass;
use crate::disk::ExtentId;
use crate::metrics::io_metrics;
use crate::pool::{BufferPool, PinnedBlock, PoolError};
use crate::session::IoSession;

/// A typed failure of the fallible read path: which block could not be
/// served, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// Taxonomy class — drives the remedy (retry / give up / quarantine).
    pub class: ErrorClass,
    /// Extent whose block failed.
    pub extent: ExtentId,
    /// Block index within the extent.
    pub block: u64,
    /// Human-readable cause, from the failing layer.
    pub message: String,
}

impl ReadError {
    /// Converts a pool failure at a known block address.
    pub fn from_pool(extent: ExtentId, block: u64, err: PoolError) -> Self {
        let class = match &err {
            PoolError::Fetch { source } => source.class,
            // Frames may free up once other queries unpin; worth a retry.
            PoolError::Exhausted { .. } => ErrorClass::Transient,
            PoolError::Poisoned { .. } => ErrorClass::Permanent,
        };
        ReadError {
            class,
            extent,
            block,
            message: err.to_string(),
        }
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "read of extent {} block {} failed ({:?}): {}",
            self.extent.0, self.block, self.class, self.message
        )
    }
}

impl std::error::Error for ReadError {}

/// Pins `(ext, block)` through `pool`, re-attempting transient failures
/// under the session's armed [`crate::RetryPolicy`] budget (immediately,
/// no backoff — store-level wrappers own the clock) and counting each
/// extra attempt into [`crate::IoStats::retries`].
pub fn pin_retrying(
    pool: &BufferPool,
    ext: ExtentId,
    block: u64,
    io: &IoSession,
) -> Result<PinnedBlock, ReadError> {
    let attempts = io
        .retry_policy()
        .map(|p| p.max_attempts.max(1))
        .unwrap_or(1);
    let mut last = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            io.add_retries(1);
            io_metrics().retries_transient.inc();
        }
        match pool.try_pin(ext, block) {
            Ok(pin) => return Ok(pin),
            Err(e) => {
                let err = ReadError::from_pool(ext, block, e);
                if err.class != ErrorClass::Transient {
                    if err.class == ErrorClass::Permanent {
                        io_metrics().errors_permanent.inc();
                    }
                    return Err(err);
                }
                last = Some(err);
            }
        }
    }
    Err(last.expect("at least one attempt"))
}
