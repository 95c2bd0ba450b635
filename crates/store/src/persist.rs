//! Save/open entry points and the [`PersistIndex`] trait every index
//! family implements.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use psi_io::{BlockStore, BufferPool, Disk, PoolStats, StoredExtent};

use crate::format::{read_header, write_store};
use crate::raw::{RawBytes, RawFile, RawMmap};
use crate::ser::{MetaBuf, MetaCursor};
use crate::volume::VolumeStore;
use crate::StoreError;

/// Which real-read backend an opened store fetches payload through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Positioned `pread`s on the file descriptor.
    File,
    /// A read-only mmap of the whole file.
    Mmap,
}

/// Options for [`open`].
#[derive(Debug, Clone, Copy)]
pub struct OpenOptions {
    /// Payload backend.
    pub backend: Backend,
    /// Buffer-pool capacity in model blocks, per volume.
    pub pool_blocks: usize,
    /// When set, every payload fetch retries transient OS failures under
    /// this policy before surfacing; permanent and corrupt failures
    /// (missing extent, checksum mismatch) surface immediately either way.
    pub retry: Option<psi_io::RetryPolicy>,
    /// Verified fetches: when `true` (the default) every payload page is
    /// checked against its XXH64 trailer as the buffer pool faults it
    /// in — never on warm hits — and a mismatch surfaces as
    /// [`psi_io::ErrorClass::Corrupt`]. Turning it off skips the
    /// checksum on fetch (the E17 overhead ablation; open-time
    /// validation of superblock/meta pages still happens).
    pub verify: bool,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions {
            backend: Backend::File,
            pool_blocks: 1024,
            retry: None,
            verify: true,
        }
    }
}

/// An index family that can round-trip through a store file.
///
/// The contract: `from_parts(write_meta(i), disks(i))` answers every
/// query — `query`, `cardinality_hint`, conjunctive plans — identically
/// to `i`, with identical [`psi_io::IoStats`] charges. Payload lives in
/// the disks (saved verbatim, block by block); everything else the index
/// holds in memory goes through the metadata buffer.
pub trait PersistIndex: Sized {
    /// Family tag recorded in the superblock (checked at open).
    const TAG: &'static str;

    /// Serializes the memory-resident state.
    fn write_meta(&self, out: &mut MetaBuf);

    /// The disks holding payload, in a fixed order (`from_parts` receives
    /// reopened disks in the same order).
    fn disks(&self) -> Vec<&Disk>;

    /// Reconstructs the index from decoded metadata plus reopened disks.
    fn from_parts(meta: &mut MetaCursor, disks: Vec<Disk>) -> Result<Self, StoreError>;
}

/// Pops the single volume a one-disk family expects from an opened
/// store's disks (the shared [`PersistIndex::from_parts`] prologue of
/// every single-volume family).
pub fn single_volume(mut disks: Vec<Disk>, family: &str) -> Result<Disk, StoreError> {
    match (disks.pop(), disks.is_empty()) {
        (Some(d), true) => Ok(d),
        _ => Err(StoreError::Meta {
            what: format!("{family} index expects exactly one volume"),
        }),
    }
}

/// Validates a serialized extent id against a reopened disk's extent
/// table (the shared bounds check of every `from_parts`
/// implementation).
pub fn check_extent(disk: &Disk, id: u32, what: &str) -> Result<psi_io::ExtentId, StoreError> {
    if id as usize >= disk.num_extents() {
        return Err(StoreError::Meta {
            what: format!("{what} extent {id} out of range"),
        });
    }
    Ok(psi_io::ExtentId(id))
}

/// Validates one stored bitmap's serialized metadata against its
/// reopened extent: its `bits` bits at offset `off` lie within the
/// extent, and a bitmap holding elements has its span `first ≤ last`.
/// Readers index the extent, and the merge planners read the span,
/// without checking again. `what` names the bitmap in the error.
pub fn check_bitmap(
    disk: &Disk,
    ext: psi_io::ExtentId,
    (off, bits): (u64, u64),
    count: u64,
    span: (Option<u64>, Option<u64>),
    what: impl FnOnce() -> String,
) -> Result<(), StoreError> {
    let extent_bits = disk.extent_bits(ext);
    let fits = off.checked_add(bits).is_some_and(|end| end <= extent_bits);
    let spanned = count == 0 || matches!(span, (Some(first), Some(last)) if first <= last);
    if fits && spanned {
        return Ok(());
    }
    Err(StoreError::Meta {
        what: format!(
            "{}: {bits} bits at {off} in an extent of {extent_bits}, \
             {count} elements spanning {span:?}",
            what()
        ),
    })
}

/// Statistics returned by [`save`].
#[derive(Debug, Clone, Copy)]
pub struct SaveReport {
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Number of volumes written.
    pub volumes: usize,
}

/// Saves an index to `path`.
///
/// All extents must be resident (true for every built index; an opened,
/// file-backed index must promote its disks first) — otherwise
/// [`StoreError::NotResident`].
pub fn save<I: PersistIndex>(index: &I, path: impl AsRef<Path>) -> Result<SaveReport, StoreError> {
    let mut meta = MetaBuf::new();
    index.write_meta(&mut meta);
    let disks = index.disks();
    let file_bytes = write_store(path.as_ref(), I::TAG, meta.bytes(), &disks)?;
    Ok(SaveReport {
        file_bytes,
        volumes: disks.len(),
    })
}

/// An opened index plus handles onto its real-read machinery.
///
/// `Opened<I>` is `Send + Sync` whenever `I` is (every persisted family
/// is): put it behind an `Arc` and query it from as many threads as you
/// like — each thread brings its own per-query [`psi_io::IoSession`],
/// the sharded per-volume buffer pools handle the rest.
#[derive(Debug)]
pub struct Opened<I> {
    /// The reconstructed index.
    pub index: I,
    /// Total file size in bytes.
    pub file_bytes: u64,
    fetches: Arc<AtomicU64>,
    pools: Vec<Arc<BufferPool>>,
}

impl<I> Opened<I> {
    /// Real payload blocks fetched since open, across all volumes —
    /// the number the cold-cache validation compares against the
    /// simulated [`psi_io::IoStats`] charge.
    pub fn real_fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    /// Summed buffer-pool counters across volumes (hits, misses,
    /// evictions, and pinned-growth events past the capacity target).
    pub fn pool_stats(&self) -> PoolStats {
        self.pools
            .iter()
            .fold(PoolStats::default(), |acc, p| acc.merged(&p.stats()))
    }
}

/// Removes the stale `<path>.tmp` sibling an interrupted atomic save
/// leaves behind (the process died between temp-file create and rename).
/// The temp file is garbage by construction — the rename never happened,
/// so `path` still holds the previous complete store — and sweeping it
/// on open keeps dead multi-gigabyte files from accumulating.
pub fn sweep_stale_tmp(path: &Path) {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    // Best effort: a racing sweep or permission problem must not turn a
    // readable store into an open error.
    let _ = std::fs::remove_file(std::path::PathBuf::from(tmp));
}

/// Opens the store at `path` as index family `I`.
///
/// The superblock, extent table and metadata region are read and
/// verified now; payload pages are fetched lazily, one model block at a
/// time, through a per-volume pinning buffer pool of
/// `opts.pool_blocks` frames.
pub fn open<I: PersistIndex>(
    path: impl AsRef<Path>,
    opts: &OpenOptions,
) -> Result<Opened<I>, StoreError> {
    open_with_wrap(path, opts, None)
}

/// Per-volume store wrapper: receives each volume's fetch chain (the
/// [`VolumeStore`], before any retry wrapper) plus the volume index and
/// returns the store the buffer pool should fetch through. Fault
/// injection hooks in here — tests wrap real file volumes in
/// [`psi_io::FaultyStore`] to script failures against the production
/// open path.
pub type StoreWrap<'a> = &'a dyn Fn(Arc<dyn BlockStore>, usize) -> Arc<dyn BlockStore>;

/// [`open`] with a per-volume store wrapper interposed between the
/// volume reader and the retry/pool layers (testing and fault drills).
pub fn open_with_wrap<I: PersistIndex>(
    path: impl AsRef<Path>,
    opts: &OpenOptions,
    wrap: Option<StoreWrap<'_>>,
) -> Result<Opened<I>, StoreError> {
    if opts.pool_blocks == 0 {
        return Err(StoreError::InvalidOptions {
            what: "pool_blocks must be at least 1".into(),
        });
    }
    sweep_stale_tmp(path.as_ref());
    let (file, header) = read_header(path.as_ref())?;
    if header.tag != I::TAG {
        return Err(StoreError::WrongFamily {
            expected: I::TAG.into(),
            found: header.tag,
        });
    }
    build_opened(
        file,
        &header.volumes,
        &header.meta,
        header.file_bytes,
        opts,
        wrap,
    )
}

/// Builds an [`Opened`] index from an already-validated header: wires a
/// [`VolumeStore`] (optionally wrapped, optionally retry-wrapped) and
/// buffer pool per volume, reconstructs the disks non-resident, and
/// decodes the family metadata. Shared by [`open`] and the checkpoint
/// open path.
pub(crate) fn build_opened<I: PersistIndex>(
    file: std::fs::File,
    volumes: &[crate::format::VolumeDesc],
    meta: &[u8],
    file_bytes: u64,
    opts: &OpenOptions,
    wrap: Option<StoreWrap<'_>>,
) -> Result<Opened<I>, StoreError> {
    let raw: Arc<dyn RawBytes> = match opts.backend {
        Backend::File => Arc::new(RawFile::new(file)),
        Backend::Mmap => Arc::new(RawMmap::new(&file)?),
    };
    let fetches = Arc::new(AtomicU64::new(0));
    let mut disks = Vec::with_capacity(volumes.len());
    let mut pools = Vec::with_capacity(volumes.len());
    for (v, desc) in volumes.iter().enumerate() {
        let stored: Vec<StoredExtent> = desc
            .extents
            .iter()
            .map(|e| StoredExtent {
                bit_len: e.bit_len,
                freed: e.freed,
            })
            .collect();
        let volume: Arc<dyn BlockStore> = Arc::new(VolumeStore::new(
            Arc::clone(&raw),
            Arc::clone(&fetches),
            desc.clone(),
            v,
        ));
        let volume = match wrap {
            Some(w) => w(volume, v),
            None => volume,
        };
        let store: Arc<dyn BlockStore> = match opts.retry {
            Some(policy) => Arc::new(psi_io::RetryStore::new(volume, policy)),
            None => volume,
        };
        let pool = Arc::new(BufferPool::new(
            store,
            opts.pool_blocks,
            desc.config.block_bits,
        ));
        pool.set_verify(opts.verify);
        disks.push(Disk::from_stored(desc.config, &stored, Arc::clone(&pool)));
        pools.push(pool);
    }
    let mut cursor = MetaCursor::new(meta);
    let index = I::from_parts(&mut cursor, disks)?;
    Ok(Opened {
        index,
        file_bytes,
        fetches,
        pools,
    })
}
