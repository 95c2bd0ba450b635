//! The on-disk file layout.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────────┐
//! │ superblock — one 4096-byte page                                    │
//! │   magic "PSISTOR1" · version · volume count · region offsets/      │
//! │   lengths · expected file length · family tag · FNV-1a checksum    │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ extent table — 4096-byte pages (4088 payload + 8 checksum each)    │
//! │   per volume: IoConfig (block bits, memory bound) + per extent:    │
//! │   bit length · freed flag · payload file offset                    │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ index metadata — 4096-byte pages, same checksum trailer            │
//! │   the family's memory-resident state (MetaBuf bytes)               │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ payload — per live extent, one page per model block:               │
//! │   (block_bits/8) data bytes + 8-byte FNV-1a, so every real block   │
//! │   fetch verifies its own checksum                                  │
//! └────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Metadata regions are read (and verified) in full at open time — they
//! are the state the I/O model assumes memory-resident. Payload pages are
//! fetched lazily through the buffer pool, one model block at a time.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use psi_io::{Disk, ExtentId, IoConfig};

use crate::ser::{MetaBuf, MetaCursor};
use crate::sum::fnv1a64;
use crate::StoreError;

/// File magic: the first 8 bytes of every store file.
pub const MAGIC: [u8; 8] = *b"PSISTOR1";
/// Format version written by this build.
/// (9 dropped the memory bound from each volume's model configuration and
/// from the fully dynamic index's metadata. 7 dropped the persisted skip
/// directories: their side extents and the directory fields of slot and
/// catalog metadata. 5 added a codec tag to
/// slot metadata: a slot is gamma codes, or plain words over its span.
/// 3 widened the persisted skip-directory entries to 144 bits. Even
/// versions are reserved for checkpoint files, see
/// [`crate::checkpoint::VERSION_CHECKPOINT`].)
pub const VERSION: u32 = 9;
/// Size of superblock and metadata pages.
pub const META_PAGE: usize = 4096;
/// Payload bytes per metadata page (the rest is the checksum trailer).
pub const META_PAGE_PAYLOAD: usize = META_PAGE - 8;
/// Longest accepted family tag.
pub const MAX_TAG: usize = 64;

/// Placement of one extent's payload in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtPlacement {
    /// Valid bits in the extent.
    pub bit_len: u64,
    /// Whether the extent was freed when saved.
    pub freed: bool,
    /// Byte offset of the extent's first payload page (`u64::MAX` when
    /// the extent stores nothing).
    pub file_off: u64,
}

/// One volume: an [`IoConfig`] plus its extent placements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeDesc {
    /// The model configuration the volume's disk was built with.
    pub config: IoConfig,
    /// Extent placements, in extent-id order.
    pub extents: Vec<ExtPlacement>,
}

impl VolumeDesc {
    /// Payload-page size for this volume: one model block plus checksum.
    pub fn page_bytes(&self) -> u64 {
        self.config.block_bits / 8 + 8
    }
}

/// Everything read and verified at open time.
#[derive(Debug)]
pub struct StoreHeader {
    /// Index-family tag recorded at save time.
    pub tag: String,
    /// Volume descriptors (extent tables).
    pub volumes: Vec<VolumeDesc>,
    /// The family's serialized metadata region.
    pub meta: Vec<u8>,
    /// Expected total file length in bytes.
    pub file_bytes: u64,
}

/// Serializes the volume/extent table.
pub(crate) fn encode_table(volumes: &[VolumeDesc]) -> Vec<u8> {
    let mut b = MetaBuf::new();
    for v in volumes {
        b.put_u64(v.config.block_bits);
        b.put_len(v.extents.len());
        for e in &v.extents {
            b.put_u64(e.bit_len);
            b.put_bool(e.freed);
            b.put_u64(e.file_off);
        }
    }
    b.bytes().to_vec()
}

/// Parses the volume/extent table (`volume_count` from the superblock).
pub(crate) fn decode_table(bytes: &[u8], volume_count: u32) -> Result<Vec<VolumeDesc>, StoreError> {
    let mut c = MetaCursor::new(bytes);
    let mut volumes = Vec::new();
    for _ in 0..volume_count {
        let block_bits = c.get_u64()?;
        if block_bits == 0 || !block_bits.is_multiple_of(64) {
            return Err(StoreError::Meta {
                what: format!("volume block_bits {block_bits}"),
            });
        }
        let n = c.get_len(17)?;
        let mut extents = Vec::with_capacity(n);
        for _ in 0..n {
            extents.push(ExtPlacement {
                bit_len: c.get_u64()?,
                freed: c.get_bool()?,
                file_off: c.get_u64()?,
            });
        }
        volumes.push(VolumeDesc {
            config: IoConfig { block_bits },
            extents,
        });
    }
    Ok(volumes)
}

/// Number of metadata pages a region of `len` bytes occupies.
pub(crate) fn meta_pages(len: usize) -> u64 {
    (len.div_ceil(META_PAGE_PAYLOAD).max(1)) as u64
}

/// Writes a region as checksummed metadata pages.
pub(crate) fn write_paged(out: &mut impl Write, bytes: &[u8]) -> Result<(), StoreError> {
    let pages = meta_pages(bytes.len()) as usize;
    for p in 0..pages {
        let mut page = [0u8; META_PAGE];
        let start = p * META_PAGE_PAYLOAD;
        let end = bytes.len().min(start + META_PAGE_PAYLOAD);
        if start < end {
            page[..end - start].copy_from_slice(&bytes[start..end]);
        }
        let sum = fnv1a64(&page[..META_PAGE_PAYLOAD]);
        page[META_PAGE_PAYLOAD..].copy_from_slice(&sum.to_le_bytes());
        out.write_all(&page)?;
    }
    Ok(())
}

/// Reads and verifies a paged region of logical length `len`.
pub(crate) fn read_paged(
    file: &mut File,
    off: u64,
    len: usize,
    what: &str,
) -> Result<Vec<u8>, StoreError> {
    file.seek(SeekFrom::Start(off))?;
    let pages = meta_pages(len) as usize;
    let mut out = Vec::with_capacity(len);
    let mut page = [0u8; META_PAGE];
    for p in 0..pages {
        file.read_exact(&mut page).map_err(|e| map_eof(e, what))?;
        let want = u64::from_le_bytes(page[META_PAGE_PAYLOAD..].try_into().expect("8 bytes"));
        if fnv1a64(&page[..META_PAGE_PAYLOAD]) != want {
            return Err(StoreError::Corrupt {
                what: format!("{what} page {p}"),
            });
        }
        let take = (len - out.len()).min(META_PAGE_PAYLOAD);
        out.extend_from_slice(&page[..take]);
    }
    Ok(out)
}

pub(crate) fn map_eof(e: std::io::Error, what: &str) -> StoreError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        StoreError::Truncated { what: what.into() }
    } else {
        StoreError::from(e)
    }
}

/// Writes one extent's payload as `blocks` checksummed pages (one page
/// per model block of `block_bits` bits, words LE, 8-byte FNV trailer).
pub(crate) fn write_extent_pages(
    out: &mut impl Write,
    words: &[u64],
    blocks: u64,
    block_bits: u64,
) -> Result<(), StoreError> {
    let block_words = (block_bits / 64) as usize;
    let mut page = vec![0u8; (block_bits / 8 + 8) as usize];
    for blk in 0..blocks as usize {
        let start = blk * block_words;
        for (w, chunk) in page[..block_words * 8].chunks_exact_mut(8).enumerate() {
            let word = words.get(start + w).copied().unwrap_or(0);
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        let sum = fnv1a64(&page[..block_words * 8]);
        let sum_at = block_words * 8;
        page[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
        out.write_all(&page)?;
    }
    Ok(())
}

/// Builds the volume descriptors for a set of resident disks, assigning
/// payload offsets sequentially from `payload_off`.
pub(crate) fn plan_volumes(
    disks: &[&Disk],
    payload_off: u64,
) -> Result<(Vec<VolumeDesc>, u64), StoreError> {
    let mut off = payload_off;
    let mut volumes = Vec::with_capacity(disks.len());
    for disk in disks {
        let page_bytes = disk.block_bits() / 8 + 8;
        let mut extents = Vec::with_capacity(disk.num_extents());
        for i in 0..disk.num_extents() {
            let ext = ExtentId(i as u32);
            if !disk.is_resident(ext) {
                return Err(StoreError::NotResident);
            }
            let bit_len = disk.extent_bits(ext);
            let freed = disk.is_freed(ext);
            let blocks = disk.config().blocks_for_bits(bit_len);
            let file_off = if blocks == 0 { u64::MAX } else { off };
            off += blocks * page_bytes;
            extents.push(ExtPlacement {
                bit_len,
                freed,
                file_off,
            });
        }
        volumes.push(VolumeDesc {
            config: *disk.config(),
            extents,
        });
    }
    Ok((volumes, off))
}

/// Writes a complete store file; returns its size in bytes.
///
/// The write is crash-safe: everything goes to a sibling temp file,
/// which is fsynced and atomically renamed over `path` — a crash
/// mid-save leaves the previous store intact.
pub fn write_store(
    path: &Path,
    tag: &str,
    meta: &[u8],
    disks: &[&Disk],
) -> Result<u64, StoreError> {
    assert!(tag.len() <= MAX_TAG, "family tag too long");
    // Plan the layout: the table's byte length is known before the
    // payload offsets are (17 bytes per extent, fixed per-volume header),
    // so one planning pass suffices.
    let table_len_probe = encode_table(&plan_volumes(disks, 0)?.0).len();
    let table_off = META_PAGE as u64;
    let meta_off = table_off + meta_pages(table_len_probe) * META_PAGE as u64;
    let payload_off = meta_off + meta_pages(meta.len()) * META_PAGE as u64;
    let (volumes, file_bytes) = plan_volumes(disks, payload_off)?;
    let table = encode_table(&volumes);
    debug_assert_eq!(table.len(), table_len_probe);

    let mut sb = [0u8; META_PAGE];
    sb[0..8].copy_from_slice(&MAGIC);
    sb[8..12].copy_from_slice(&VERSION.to_le_bytes());
    sb[12..16].copy_from_slice(&(disks.len() as u32).to_le_bytes());
    sb[16..24].copy_from_slice(&table_off.to_le_bytes());
    sb[24..32].copy_from_slice(&(table.len() as u64).to_le_bytes());
    sb[32..40].copy_from_slice(&meta_off.to_le_bytes());
    sb[40..48].copy_from_slice(&(meta.len() as u64).to_le_bytes());
    sb[48..56].copy_from_slice(&file_bytes.to_le_bytes());
    sb[56..60].copy_from_slice(&(tag.len() as u32).to_le_bytes());
    sb[60..60 + tag.len()].copy_from_slice(tag.as_bytes());
    let sum = fnv1a64(&sb[..META_PAGE_PAYLOAD]);
    sb[META_PAGE_PAYLOAD..].copy_from_slice(&sum.to_le_bytes());

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let file = File::create(&tmp)?;
    let mut out = std::io::BufWriter::new(file);
    out.write_all(&sb)?;
    write_paged(&mut out, &table)?;
    write_paged(&mut out, meta)?;
    // Payload: one checksummed page per model block, in extent order.
    for disk in disks {
        for i in 0..disk.num_extents() {
            let ext = ExtentId(i as u32);
            let blocks = disk.config().blocks_for_bits(disk.extent_bits(ext));
            write_extent_pages(&mut out, disk.extent_words(ext), blocks, disk.block_bits())?;
        }
    }
    out.flush()?;
    out.get_ref().sync_all()?;
    drop(out);
    std::fs::rename(&tmp, path)?;
    Ok(file_bytes)
}

/// Opens a store file and reads + verifies everything except payload:
/// superblock, extent table, index metadata, and the expected length.
pub fn read_header(path: &Path) -> Result<(File, StoreHeader), StoreError> {
    let mut file = File::open(path)?;
    let mut sb = [0u8; META_PAGE];
    file.read_exact(&mut sb)
        .map_err(|e| map_eof(e, "superblock"))?;
    if sb[0..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(sb[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(StoreError::BadVersion { found: version });
    }
    let want = u64::from_le_bytes(sb[META_PAGE_PAYLOAD..].try_into().expect("8 bytes"));
    if fnv1a64(&sb[..META_PAGE_PAYLOAD]) != want {
        return Err(StoreError::Corrupt {
            what: "superblock".into(),
        });
    }
    let volume_count = u32::from_le_bytes(sb[12..16].try_into().expect("4 bytes"));
    let table_off = u64::from_le_bytes(sb[16..24].try_into().expect("8 bytes"));
    let table_len = u64::from_le_bytes(sb[24..32].try_into().expect("8 bytes")) as usize;
    let meta_off = u64::from_le_bytes(sb[32..40].try_into().expect("8 bytes"));
    let meta_len = u64::from_le_bytes(sb[40..48].try_into().expect("8 bytes")) as usize;
    let file_bytes = u64::from_le_bytes(sb[48..56].try_into().expect("8 bytes"));
    let tag_len = u32::from_le_bytes(sb[56..60].try_into().expect("4 bytes")) as usize;
    if tag_len > MAX_TAG {
        return Err(StoreError::Corrupt {
            what: format!("superblock tag length {tag_len}"),
        });
    }
    let tag =
        String::from_utf8(sb[60..60 + tag_len].to_vec()).map_err(|_| StoreError::Corrupt {
            what: "superblock tag".into(),
        })?;
    let table = read_paged(&mut file, table_off, table_len, "extent table")?;
    let volumes = decode_table(&table, volume_count)?;
    let meta = read_paged(&mut file, meta_off, meta_len, "index metadata")?;
    // The payload is fetched lazily; its presence is checked now so a
    // truncated file fails at open, not mid-query.
    let actual = file.metadata()?.len();
    if actual < file_bytes {
        return Err(StoreError::Truncated {
            what: format!("payload region ({actual} of {file_bytes} bytes)"),
        });
    }
    Ok((
        file,
        StoreHeader {
            tag,
            volumes,
            meta,
            file_bytes,
        },
    ))
}

/// Verifies every payload page's checksum (a full-file scrub). The
/// metadata regions are verified as part of [`read_header`]; this walks
/// the lazily-fetched payload too, so corruption that would otherwise
/// surface mid-query is caught eagerly.
pub fn scrub(path: &Path) -> Result<(), StoreError> {
    let (mut file, header) = read_header(path)?;
    for (v, vol) in header.volumes.iter().enumerate() {
        let page_bytes = vol.page_bytes() as usize;
        let mut page = vec![0u8; page_bytes];
        for (i, e) in vol.extents.iter().enumerate() {
            if e.file_off == u64::MAX {
                continue;
            }
            let blocks = vol.config.blocks_for_bits(e.bit_len);
            file.seek(SeekFrom::Start(e.file_off))?;
            for blk in 0..blocks {
                let what = format!("volume {v} extent {i} block {blk}");
                file.read_exact(&mut page)
                    .map_err(|err| map_eof(err, &what))?;
                let data = page_bytes - 8;
                let want = u64::from_le_bytes(page[data..].try_into().expect("8 bytes"));
                if fnv1a64(&page[..data]) != want {
                    return Err(StoreError::Corrupt { what });
                }
            }
        }
    }
    Ok(())
}
