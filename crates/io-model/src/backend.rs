//! Real-read backends behind the simulated block device.
//!
//! The paper's cost model counts *distinct blocks touched*; a [`crate::Disk`]
//! whose extents are fully memory-resident only ever simulates those
//! touches. A `BlockStore` is where simulated charges become **real
//! reads**: it fetches one model block (`B` bits) of one extent into a
//! caller-provided word buffer, counting every fetch it performs. Three
//! backends exist:
//!
//! * the resident RAM image itself (the default `Disk`, no indirection —
//!   [`MemStore`] is its trait-shaped twin, used by pool tests);
//! * a file-backed store doing positioned reads of checksummed pages
//!   (`psi-store`'s `FileStore`);
//! * an mmap-backed store copying out of a shared mapping (`psi-store`'s
//!   `MmapStore`).
//!
//! A [`crate::BufferPool`] sits between [`crate::IoSession`] charging and
//! the backend, so a charge drives a real fetch on miss and a free hit
//! while the block stays pooled.

use crate::disk::ExtentId;

/// Whether an I/O failure is worth retrying.
///
/// The taxonomy every layer above the backends shares: the retry policy
/// in [`crate::fault`] retries [`ErrorClass::Transient`] failures with
/// backoff and surfaces [`ErrorClass::Permanent`] ones immediately as
/// typed errors (mirroring the `PoolError::Exhausted` precedent of
/// structured, matchable failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The same operation may succeed if repeated (interrupted syscall,
    /// momentary resource pressure, injected flake).
    Transient,
    /// Retrying cannot help (missing extent, bad length, lost file).
    Permanent,
    /// The bytes came back but fail their integrity check (XXH64 page
    /// trailer mismatch, torn read). Not retryable either, but kept
    /// distinct from [`ErrorClass::Permanent`] because the *remedy*
    /// differs: corrupt extents are quarantined and rebuilt from source
    /// data, while permanent failures indicate the store itself is gone.
    Corrupt,
}

/// Maps an OS error kind onto the retry taxonomy.
///
/// `Interrupted` (EINTR), `WouldBlock`, and `TimedOut` are the kinds a
/// repeat of the same positioned read can cure; everything else —
/// `NotFound`, `PermissionDenied`, `UnexpectedEof`, … — is permanent.
pub fn classify_io(kind: std::io::ErrorKind) -> ErrorClass {
    use std::io::ErrorKind as K;
    match kind {
        K::Interrupted | K::WouldBlock | K::TimedOut => ErrorClass::Transient,
        _ => ErrorClass::Permanent,
    }
}

/// Error surfaced by a backend fetch (corrupt page, short read).
///
/// Open-time validation in `psi-store` returns typed errors; a fetch
/// failure *during* an operation means the file changed or rotted after
/// open (permanent), or the OS flaked on a read (transient). The buffer
/// pool retries nothing itself — it surfaces the error through
/// `PoolError::Fetch` and lets [`crate::fault::RetryStore`] or the
/// caller decide, guided by [`BlockStoreError::class`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockStoreError {
    /// Human-readable description (extent, block, cause).
    pub message: String,
    /// Retryability of this failure.
    pub class: ErrorClass,
}

impl BlockStoreError {
    /// A failure that retrying cannot cure.
    pub fn permanent(message: impl Into<String>) -> Self {
        BlockStoreError {
            message: message.into(),
            class: ErrorClass::Permanent,
        }
    }

    /// A failure worth retrying.
    pub fn transient(message: impl Into<String>) -> Self {
        BlockStoreError {
            message: message.into(),
            class: ErrorClass::Transient,
        }
    }

    /// An integrity-check failure: the read succeeded but the bytes are
    /// wrong. Quarantine-and-rebuild territory, not retry territory.
    pub fn corrupt(message: impl Into<String>) -> Self {
        BlockStoreError {
            message: message.into(),
            class: ErrorClass::Corrupt,
        }
    }
}

impl std::fmt::Display for BlockStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for BlockStoreError {}

/// A source of real block reads for one volume of extents.
///
/// Implementations count every fetch they perform ([`Self::fetches`]);
/// the experiment harnesses compare that count against the simulated
/// [`crate::IoStats`] charge (equal on a cold pool, `≤` on a warm one).
///
/// Backends are `Send + Sync`: the sharded [`crate::BufferPool`] calls
/// `read_block` from whichever query thread takes the miss, so fetch
/// counters must be atomic and the byte source shareable.
pub trait BlockStore: std::fmt::Debug + Send + Sync {
    /// Reads block `block` of extent `ext` into `out` (exactly
    /// `block_bits / 64` words, MSB-first bit order within each word).
    /// Words past the extent's last valid bit must be zero-filled.
    fn read_block(&self, ext: ExtentId, block: u64, out: &mut [u64])
        -> Result<(), BlockStoreError>;

    /// Like [`Self::read_block`], but additionally verifies whatever
    /// end-to-end integrity check the backend carries (psi-store's
    /// XXH64 page trailer, `psi_store::checksum64`), reporting a mismatch
    /// as [`ErrorClass::Corrupt`].
    ///
    /// The default delegates to `read_block`: backends without a
    /// integrity trailer (RAM snapshots) have nothing extra to check.
    /// Wrapper stores must forward this method so verification reaches
    /// the volume layer; the [`crate::BufferPool`] calls it on fault-in
    /// when its verify mode is on — never on warm hits.
    fn read_block_verified(
        &self,
        ext: ExtentId,
        block: u64,
        out: &mut [u64],
    ) -> Result<(), BlockStoreError> {
        self.read_block(ext, block, out)
    }

    /// Number of real block fetches performed so far.
    fn fetches(&self) -> u64;

    /// Backend name for diagnostics (`"mem"`, `"file"`, `"mmap"`).
    fn kind(&self) -> &'static str;
}

/// Shared handles are stores too: lets a test hold onto a fault
/// injector while the layer above (retry wrapper, buffer pool) owns the
/// same store through an `Arc`. Forwards both read paths so a verified
/// fetch still reaches the inner backend's trailer check.
impl<S: BlockStore + ?Sized> BlockStore for std::sync::Arc<S> {
    fn read_block(
        &self,
        ext: ExtentId,
        block: u64,
        out: &mut [u64],
    ) -> Result<(), BlockStoreError> {
        (**self).read_block(ext, block, out)
    }

    fn read_block_verified(
        &self,
        ext: ExtentId,
        block: u64,
        out: &mut [u64],
    ) -> Result<(), BlockStoreError> {
        (**self).read_block_verified(ext, block, out)
    }

    fn fetches(&self) -> u64 {
        (**self).fetches()
    }

    fn kind(&self) -> &'static str {
        (**self).kind()
    }
}

/// The in-RAM backend: a frozen snapshot of a resident [`crate::Disk`]'s
/// extents, served block by block. This is the degenerate member of the
/// backend family — it exists so the buffer pool and its accounting can
/// be exercised (and differentially tested) without touching the
/// filesystem.
#[derive(Debug)]
pub struct MemStore {
    extents: Vec<Vec<u64>>,
    block_words: usize,
    fetches: std::sync::atomic::AtomicU64,
}

impl MemStore {
    /// Snapshots every extent of a resident disk.
    ///
    /// # Panics
    /// Panics if any extent is non-resident (file-backed disks must be
    /// promoted first).
    pub fn from_disk(disk: &crate::Disk) -> Self {
        let extents = (0..disk.num_extents())
            .map(|i| disk.extent_words(ExtentId(i as u32)).to_vec())
            .collect();
        MemStore {
            extents,
            block_words: (disk.block_bits() / 64) as usize,
            fetches: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl BlockStore for MemStore {
    fn read_block(
        &self,
        ext: ExtentId,
        block: u64,
        out: &mut [u64],
    ) -> Result<(), BlockStoreError> {
        let words = self.extents.get(ext.0 as usize).ok_or_else(|| {
            BlockStoreError::permanent(format!("mem store has no extent {}", ext.0))
        })?;
        let start = block as usize * self.block_words;
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = words.get(start + i).copied().unwrap_or(0);
        }
        self.fetches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    fn fetches(&self) -> u64 {
        self.fetches.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn kind(&self) -> &'static str {
        "mem"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Disk, IoConfig, IoSession};

    #[test]
    fn mem_store_serves_disk_blocks() {
        let mut disk = Disk::new(IoConfig::with_block_bits(128));
        let ext = disk.alloc();
        let io = IoSession::untracked();
        {
            let mut w = disk.writer(ext, &io);
            for i in 0..4u64 {
                w.write_bits(i + 1, 64);
            }
        }
        let store = MemStore::from_disk(&disk);
        let mut buf = vec![0u64; 2];
        store.read_block(ext, 1, &mut buf).unwrap();
        assert_eq!(buf, vec![3, 4]);
        // Partial tail block zero-fills.
        store.read_block(ext, 5, &mut buf).unwrap();
        assert_eq!(buf, vec![0, 0]);
        assert_eq!(store.fetches(), 2);
        assert_eq!(store.kind(), "mem");
    }

    #[test]
    fn unknown_extent_is_an_error() {
        let disk = Disk::new(IoConfig::with_block_bits(128));
        let store = MemStore::from_disk(&disk);
        let mut buf = vec![0u64; 2];
        assert!(store.read_block(ExtentId(3), 0, &mut buf).is_err());
    }
}
