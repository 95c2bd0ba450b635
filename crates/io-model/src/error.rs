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

/// Pins `(ext, block)` through `pool`, returning a failed pin as a
/// [`ReadError`] at that address. Transient faults are retried below the
/// pool, by a [`crate::RetryStore`] backend, so one attempt here is final.
pub(crate) fn pin_block(
    pool: &BufferPool,
    ext: ExtentId,
    block: u64,
) -> Result<PinnedBlock, ReadError> {
    pool.try_pin(ext, block).map_err(|e| {
        let err = ReadError::from_pool(ext, block, e);
        if err.class == ErrorClass::Permanent {
            io_metrics().errors_permanent.inc();
        }
        err
    })
}
