//! One volume of an opened store, shaped as a [`BlockStore`]: the
//! bridge between the buffer pool's fetches and the raw file/mmap bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use psi_io::{BlockStore, BlockStoreError, ExtentId};

use crate::format::VolumeDesc;
use crate::raw::RawBytes;
use crate::sum::checksum64;

/// Serves one volume's payload pages out of a shared raw byte source,
/// verifying each page's checksum and counting every real fetch into a
/// store-wide shared atomic counter (fetches arrive from whichever query
/// thread takes the pool miss).
#[derive(Debug)]
pub struct VolumeStore {
    raw: Arc<dyn RawBytes>,
    /// Fetch counter shared across all volumes of one opened store.
    fetches: Arc<AtomicU64>,
    desc: VolumeDesc,
    volume: usize,
}

impl VolumeStore {
    /// Wraps volume `volume` of an opened store.
    pub fn new(
        raw: Arc<dyn RawBytes>,
        fetches: Arc<AtomicU64>,
        desc: VolumeDesc,
        volume: usize,
    ) -> Self {
        VolumeStore {
            raw,
            fetches,
            desc,
            volume,
        }
    }
}

impl VolumeStore {
    /// Shared body of the raw/verified reads: fetches the page, decodes
    /// its words, and — when `verify` — checks the XXH64 trailer
    /// ([`crate::checksum64`]), classifying a mismatch as
    /// [`psi_io::ErrorClass::Corrupt`].
    fn read_page(
        &self,
        ext: ExtentId,
        block: u64,
        out: &mut [u64],
        verify: bool,
    ) -> Result<(), BlockStoreError> {
        // Structural failures (missing extent, out-of-range block) are
        // permanent: retrying the same read cannot change the file. OS
        // read failures carry their own classification; a trailer
        // mismatch is corruption — quarantine-and-rebuild territory.
        let e = self.desc.extents.get(ext.0 as usize).ok_or_else(|| {
            BlockStoreError::permanent(format!("volume {} has no extent {}", self.volume, ext.0))
        })?;
        let blocks = self.desc.config.blocks_for_bits(e.bit_len);
        if e.file_off == u64::MAX || block >= blocks {
            return Err(BlockStoreError::permanent(format!(
                "extent {} block {block} out of range ({} blocks)",
                ext.0, blocks
            )));
        }
        let page_bytes = self.desc.page_bytes() as usize;
        let mut page = vec![0u8; page_bytes];
        self.raw
            .read_at(e.file_off + block * page_bytes as u64, &mut page)
            .map_err(|err| BlockStoreError {
                message: format!("extent {} block {block}: {err}", ext.0),
                class: err.class(),
            })?;
        let data = page_bytes - 8;
        if verify {
            let want = u64::from_le_bytes(page[data..].try_into().expect("8 bytes"));
            if checksum64(&page[..data]) != want {
                return Err(BlockStoreError::corrupt(format!(
                    "checksum mismatch in extent {} block {block}",
                    ext.0
                )));
            }
        }
        for (slot, chunk) in out.iter_mut().zip(page[..data].chunks_exact(8)) {
            *slot = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        }
        self.fetches.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl BlockStore for VolumeStore {
    fn read_block(
        &self,
        ext: ExtentId,
        block: u64,
        out: &mut [u64],
    ) -> Result<(), BlockStoreError> {
        self.read_page(ext, block, out, false)
    }

    fn read_block_verified(
        &self,
        ext: ExtentId,
        block: u64,
        out: &mut [u64],
    ) -> Result<(), BlockStoreError> {
        self.read_page(ext, block, out, true)
    }

    fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    fn kind(&self) -> &'static str {
        self.raw.kind()
    }
}
