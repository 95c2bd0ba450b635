//! Incremental, crash-atomic checkpoints (format version 2).
//!
//! [`crate::format::write_store`] is save-the-world: every byte of every
//! extent is rewritten on every save. The durable write path checkpoints
//! far more often than it rewrites, so this module stores a *checkpoint
//! file* that can absorb an update by writing only what changed:
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────────┐
//! │ superblock slot A — one 4096-byte page (epoch-stamped, checksummed)│
//! ├────────────────────────────────────────────────────────────────────┤
//! │ superblock slot B — the alternate slot                             │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ regions — extent table · metadata · payload pages, located by      │
//! │ whichever slot is live; updates append fresh regions at the end    │
//! │ and never overwrite a live page                                    │
//! └────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The two invariants that make an update crash-atomic:
//!
//! 1. **Never overwrite a live page.** A dirty extent's new payload, the
//!    new extent table, and the new metadata are all *appended* past the
//!    current logical end of file. Until the slot flips, every byte the
//!    live superblock references is untouched — a crash at any append
//!    offset leaves the previous checkpoint fully intact.
//! 2. **Slot flip is the commit point.** After the appended regions are
//!    fsynced, the *other* slot page is written with epoch `e+1` and
//!    fsynced. A reader picks the valid slot with the highest epoch, so
//!    a torn slot write (bad checksum) simply loses the race to the old
//!    slot.
//!
//! Relocated pages leave dead bytes behind; [`CheckpointFile`] accounts
//! them and compacts (a full rewrite through the v1-style temp+fsync+
//! rename dance) once dead exceeds live, so the file stays within 2× of
//! its compact size while updates stay proportional to the dirty set.

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use psi_io::{Disk, ExtentId};

use crate::format::{
    decode_table, encode_table, map_eof, meta_pages, read_paged, write_extent_pages, write_paged,
    ExtPlacement, VolumeDesc, MAGIC, MAX_TAG, META_PAGE, META_PAGE_PAYLOAD,
};
use crate::persist::{build_opened, sweep_stale_tmp, OpenOptions, Opened, PersistIndex};
use crate::sum::fnv1a64;
use crate::StoreError;

/// Format version of checkpoint files (dual-slot superblock). Odd
/// versions are the save-the-world [`crate::format`] layout; the two are
/// told apart by this field, so opening one as the other fails typed.
/// (10 carries the same layout change as format version 9: no memory
/// bound in the model configuration. 8 carried format version 7's drop
/// of persisted skip directories, 6 format version 5's slot codec tag,
/// and 4 format version 3's 144-bit skip-directory entries.)
pub const VERSION_CHECKPOINT: u32 = 10;

/// What one checkpoint (create or update) cost.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport {
    /// Epoch stamped into the committed superblock slot.
    pub epoch: u64,
    /// Logical file size after the checkpoint.
    pub file_bytes: u64,
    /// Bytes physically written by this checkpoint (the incremental
    /// advantage: proportional to the dirty set, not the index).
    pub bytes_written: u64,
    /// Dirty extents flushed.
    pub extents_flushed: usize,
    /// Whether this checkpoint triggered (or was) a full compaction.
    pub compacted: bool,
}

/// The fields of one superblock slot.
#[derive(Debug, Clone)]
struct SlotState {
    volume_count: u32,
    table_off: u64,
    table_len: usize,
    meta_off: u64,
    meta_len: usize,
    file_bytes: u64,
    epoch: u64,
    dead_bytes: u64,
    tag: String,
}

/// Serializes a slot page.
fn encode_slot(state: &SlotState) -> [u8; META_PAGE] {
    let mut sb = [0u8; META_PAGE];
    sb[0..8].copy_from_slice(&MAGIC);
    sb[8..12].copy_from_slice(&VERSION_CHECKPOINT.to_le_bytes());
    sb[12..16].copy_from_slice(&state.volume_count.to_le_bytes());
    sb[16..24].copy_from_slice(&state.table_off.to_le_bytes());
    sb[24..32].copy_from_slice(&(state.table_len as u64).to_le_bytes());
    sb[32..40].copy_from_slice(&state.meta_off.to_le_bytes());
    sb[40..48].copy_from_slice(&(state.meta_len as u64).to_le_bytes());
    sb[48..56].copy_from_slice(&state.file_bytes.to_le_bytes());
    sb[56..64].copy_from_slice(&state.epoch.to_le_bytes());
    sb[64..72].copy_from_slice(&state.dead_bytes.to_le_bytes());
    sb[72..76].copy_from_slice(&(state.tag.len() as u32).to_le_bytes());
    sb[76..76 + state.tag.len()].copy_from_slice(state.tag.as_bytes());
    let sum = fnv1a64(&sb[..META_PAGE_PAYLOAD]);
    sb[META_PAGE_PAYLOAD..].copy_from_slice(&sum.to_le_bytes());
    sb
}

/// Parses one slot page; `None` for anything invalid (wrong magic or
/// version, bad checksum, bad tag) — an invalid slot is simply not a
/// candidate, it is not an error by itself.
fn decode_slot(page: &[u8; META_PAGE]) -> Option<SlotState> {
    if page[0..8] != MAGIC {
        return None;
    }
    if u32::from_le_bytes(page[8..12].try_into().expect("4 bytes")) != VERSION_CHECKPOINT {
        return None;
    }
    let want = u64::from_le_bytes(page[META_PAGE_PAYLOAD..].try_into().expect("8 bytes"));
    if fnv1a64(&page[..META_PAGE_PAYLOAD]) != want {
        return None;
    }
    let tag_len = u32::from_le_bytes(page[72..76].try_into().expect("4 bytes")) as usize;
    if tag_len > MAX_TAG {
        return None;
    }
    let tag = String::from_utf8(page[76..76 + tag_len].to_vec()).ok()?;
    Some(SlotState {
        volume_count: u32::from_le_bytes(page[12..16].try_into().expect("4 bytes")),
        table_off: u64::from_le_bytes(page[16..24].try_into().expect("8 bytes")),
        table_len: u64::from_le_bytes(page[24..32].try_into().expect("8 bytes")) as usize,
        meta_off: u64::from_le_bytes(page[32..40].try_into().expect("8 bytes")),
        meta_len: u64::from_le_bytes(page[40..48].try_into().expect("8 bytes")) as usize,
        file_bytes: u64::from_le_bytes(page[48..56].try_into().expect("8 bytes")),
        epoch: u64::from_le_bytes(page[56..64].try_into().expect("8 bytes")),
        dead_bytes: u64::from_le_bytes(page[64..72].try_into().expect("8 bytes")),
        tag,
    })
}

/// Reads both slots and returns the valid one with the highest epoch,
/// plus its slot number. Fails typed when neither slot is usable.
fn read_slots(file: &mut File) -> Result<(SlotState, u32), StoreError> {
    let mut pages = [[0u8; META_PAGE]; 2];
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut pages[0])
        .map_err(|e| map_eof(e, "checkpoint superblock slot A"))?;
    file.read_exact(&mut pages[1])
        .map_err(|e| map_eof(e, "checkpoint superblock slot B"))?;
    let best = [0u32, 1]
        .into_iter()
        .filter_map(|s| decode_slot(&pages[s as usize]).map(|state| (state, s)))
        .max_by_key(|(state, _)| state.epoch);
    match best {
        Some(found) => Ok(found),
        None => {
            // Neither slot decodes: say why, as precisely as possible.
            if pages[0][0..8] != MAGIC {
                return Err(StoreError::BadMagic);
            }
            let version = u32::from_le_bytes(pages[0][8..12].try_into().expect("4 bytes"));
            if version != VERSION_CHECKPOINT {
                return Err(StoreError::BadVersion { found: version });
            }
            Err(StoreError::Corrupt {
                what: "checkpoint superblock slots".into(),
            })
        }
    }
}

/// Wraps checkpoint metadata: a length-prefixed caller blob (the durable
/// write path stores its applied-sequence watermark here) followed by
/// the family's [`crate::MetaBuf`] bytes.
fn wrap_meta(extra: &[u8], meta: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + extra.len() + meta.len());
    out.extend_from_slice(&(extra.len() as u32).to_le_bytes());
    out.extend_from_slice(extra);
    out.extend_from_slice(meta);
    out
}

/// Splits what [`wrap_meta`] joined.
fn split_meta(joined: &[u8]) -> Result<(&[u8], &[u8]), StoreError> {
    if joined.len() < 4 {
        return Err(StoreError::Meta {
            what: "checkpoint extra length".into(),
        });
    }
    let extra_len = u32::from_le_bytes(joined[..4].try_into().expect("4 bytes")) as usize;
    if 4 + extra_len > joined.len() {
        return Err(StoreError::Meta {
            what: format!("checkpoint extra length {extra_len}"),
        });
    }
    Ok((&joined[4..4 + extra_len], &joined[4 + extra_len..]))
}

/// Payload source for one extent during a full (re)write.
enum PayloadSource<'a> {
    /// Resident words, straight from the index's disk.
    Words(&'a [u64]),
    /// Verbatim page copy out of the existing checkpoint file.
    Copy { file_off: u64 },
}

/// A writable checkpoint file: create once, then absorb incremental
/// updates. See the module docs for the commit protocol.
#[derive(Debug)]
pub struct CheckpointFile {
    path: PathBuf,
    file: File,
    tag: String,
    volumes: Vec<VolumeDesc>,
    file_bytes: u64,
    dead_bytes: u64,
    /// Logical byte length of the live (wrapped) metadata region.
    meta_len: usize,
    epoch: u64,
    /// Slot holding the live superblock; the next commit writes the
    /// other one.
    slot: u32,
}

impl CheckpointFile {
    /// Writes a fresh checkpoint of `index` at `path` (temp + fsync +
    /// rename, like a v1 save), stamped with `epoch`. All extents must
    /// be resident. `extra` is the caller's recovery blob, returned
    /// verbatim by [`open_checkpoint`].
    pub fn create<I: PersistIndex>(
        path: impl AsRef<Path>,
        index: &I,
        extra: &[u8],
        epoch: u64,
    ) -> Result<(Self, CheckpointReport), StoreError> {
        assert!(I::TAG.len() <= MAX_TAG, "family tag too long");
        let mut meta = crate::MetaBuf::new();
        index.write_meta(&mut meta);
        let disks = index.disks();
        let mut cp = CheckpointFile {
            path: path.as_ref().to_path_buf(),
            // Placeholder handle; `write_full` (allow_copy = false, so it
            // never reads it) replaces it with the real one.
            file: File::open("/dev/null")?,
            tag: I::TAG.to_string(),
            volumes: Vec::new(),
            file_bytes: 0,
            dead_bytes: 0,
            meta_len: 0,
            epoch,
            slot: 0,
        };
        let report = cp.write_full(&disks, meta.bytes(), extra, epoch, false)?;
        for d in &disks {
            d.clear_dirty();
        }
        Ok((cp, report))
    }

    /// Reattaches to an existing checkpoint file for further updates
    /// (the recovery path: open, replay, keep checkpointing). The dead
    /// tail past the committed logical length — appends from an update
    /// that never reached its slot flip — is truncated away.
    pub fn attach(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        sweep_stale_tmp(path.as_ref());
        let mut file = File::options().read(true).write(true).open(path.as_ref())?;
        let (state, slot) = read_slots(&mut file)?;
        let table = read_paged(&mut file, state.table_off, state.table_len, "extent table")?;
        let volumes = decode_table(&table, state.volume_count)?;
        if file.metadata()?.len() < state.file_bytes {
            return Err(StoreError::Truncated {
                what: "checkpoint payload region".into(),
            });
        }
        file.set_len(state.file_bytes)?;
        Ok(CheckpointFile {
            path: path.as_ref().to_path_buf(),
            file,
            tag: state.tag,
            volumes,
            file_bytes: state.file_bytes,
            dead_bytes: state.dead_bytes,
            meta_len: state.meta_len,
            epoch: state.epoch,
            slot,
        })
    }

    /// Epoch of the live superblock.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Logical file size (the committed append cursor).
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Bytes referenced by no live region (relocated-away pages).
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes
    }

    /// Family tag recorded at create time.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// Commits the current state of `index`, writing only dirty extents.
    ///
    /// Appends the dirty extents' pages, a fresh extent table, and fresh
    /// metadata past the logical end; fsyncs; then flips the superblock
    /// slot with epoch `+1` and fsyncs again. Falls back to a full
    /// compacting rewrite when the volume shape changed (a global
    /// rebuild replaced the disks) or when dead bytes exceed live ones.
    pub fn update<I: PersistIndex>(
        &mut self,
        index: &I,
        extra: &[u8],
    ) -> Result<CheckpointReport, StoreError> {
        let mut meta = crate::MetaBuf::new();
        index.write_meta(&mut meta);
        let disks = index.disks();
        if self.tag != I::TAG {
            return Err(StoreError::WrongFamily {
                expected: self.tag.clone(),
                found: I::TAG.into(),
            });
        }
        let shape_ok = disks.len() == self.volumes.len()
            && disks
                .iter()
                .zip(&self.volumes)
                .all(|(d, v)| *d.config() == v.config);
        if !shape_ok {
            let epoch = self.epoch + 1;
            let report = self.write_full(&disks, meta.bytes(), extra, epoch, true)?;
            for d in &disks {
                d.clear_dirty();
            }
            return Ok(report);
        }

        // Plan: keep clean placements, relocate dirty extents to appends.
        let mut cursor = self.file_bytes;
        let mut dead = self.dead_bytes;
        let mut flush: Vec<(usize, ExtentId)> = Vec::new();
        let mut new_volumes = Vec::with_capacity(disks.len());
        for (v, disk) in disks.iter().enumerate() {
            let page_bytes = disk.block_bits() / 8 + 8;
            let old = &self.volumes[v];
            // Stale placements past the disk's extent range (a shrink
            // can only come from replacing the disk, which relocates
            // everything) become dead.
            for p in old.extents.iter().skip(disk.num_extents()) {
                if p.file_off != u64::MAX {
                    dead += disk.config().blocks_for_bits(p.bit_len) * page_bytes;
                }
            }
            let mut extents = Vec::with_capacity(disk.num_extents());
            for i in 0..disk.num_extents() {
                let ext = ExtentId(i as u32);
                let old_place = old.extents.get(i).copied();
                if !disk.is_dirty(ext) {
                    if let Some(p) = old_place {
                        extents.push(p);
                        continue;
                    }
                }
                if !disk.is_resident(ext) {
                    return Err(StoreError::NotResident);
                }
                if let Some(p) = old_place {
                    if p.file_off != u64::MAX {
                        dead += disk.config().blocks_for_bits(p.bit_len) * page_bytes;
                    }
                }
                let bit_len = disk.extent_bits(ext);
                let blocks = disk.config().blocks_for_bits(bit_len);
                let file_off = if blocks == 0 { u64::MAX } else { cursor };
                cursor += blocks * page_bytes;
                extents.push(ExtPlacement {
                    bit_len,
                    freed: disk.is_freed(ext),
                    file_off,
                });
                if blocks > 0 {
                    flush.push((v, ext));
                }
            }
            new_volumes.push(VolumeDesc {
                config: *disk.config(),
                extents,
            });
        }
        let extents_flushed = flush.len();

        // Appended regions: payload, then table, then metadata.
        let table = encode_table(&new_volumes);
        let joined = wrap_meta(extra, meta.bytes());
        let table_off = cursor;
        let table_pages = meta_pages(table.len()) * META_PAGE as u64;
        let meta_off = table_off + table_pages;
        let meta_pages_bytes = meta_pages(joined.len()) * META_PAGE as u64;
        let new_file_bytes = meta_off + meta_pages_bytes;
        // The regions the old slot referenced are now garbage.
        dead += meta_pages(self_table_len(&self.volumes)) * META_PAGE as u64;
        dead += self.live_meta_pages_bytes();

        self.file.seek(SeekFrom::Start(self.file_bytes))?;
        {
            let mut out = BufWriter::new(&self.file);
            for &(v, ext) in &flush {
                let disk = &disks[v];
                let blocks = disk.config().blocks_for_bits(disk.extent_bits(ext));
                write_extent_pages(&mut out, disk.extent_words(ext), blocks, disk.block_bits())?;
            }
            write_paged(&mut out, &table)?;
            write_paged(&mut out, &joined)?;
            out.flush()?;
        }
        self.file.sync_all()?;

        // Commit: flip to the other slot with the next epoch.
        let epoch = self.epoch + 1;
        let state = SlotState {
            volume_count: disks.len() as u32,
            table_off,
            table_len: table.len(),
            meta_off,
            meta_len: joined.len(),
            file_bytes: new_file_bytes,
            epoch,
            dead_bytes: dead,
            tag: self.tag.clone(),
        };
        let slot = 1 - self.slot;
        self.file
            .seek(SeekFrom::Start(u64::from(slot) * META_PAGE as u64))?;
        self.file.write_all(&encode_slot(&state))?;
        self.file.sync_all()?;

        let bytes_written = (new_file_bytes - self.file_bytes) + META_PAGE as u64;
        self.volumes = new_volumes;
        self.meta_len = joined.len();
        self.file_bytes = new_file_bytes;
        self.dead_bytes = dead;
        self.epoch = epoch;
        self.slot = slot;
        for d in &disks {
            d.clear_dirty();
        }

        // Compact once relocation garbage outweighs live data.
        if self.dead_bytes > self.live_bytes() {
            let epoch = self.epoch + 1;
            let mut report = self.write_full(&disks, meta.bytes(), extra, epoch, true)?;
            report.bytes_written += bytes_written;
            report.extents_flushed = extents_flushed;
            return Ok(report);
        }
        Ok(CheckpointReport {
            epoch,
            file_bytes: new_file_bytes,
            bytes_written,
            extents_flushed,
            compacted: false,
        })
    }

    /// Live bytes the current slot references (slots + table + meta +
    /// placed payload).
    fn live_bytes(&self) -> u64 {
        let mut live = 2 * META_PAGE as u64;
        live += meta_pages(self_table_len(&self.volumes)) * META_PAGE as u64;
        live += self.live_meta_pages_bytes();
        for v in &self.volumes {
            let page_bytes = v.page_bytes();
            for e in &v.extents {
                if e.file_off != u64::MAX {
                    live += v.config.blocks_for_bits(e.bit_len) * page_bytes;
                }
            }
        }
        live
    }

    fn live_meta_pages_bytes(&self) -> u64 {
        meta_pages(self.meta_len) * META_PAGE as u64
    }

    /// Full rewrite: every extent's payload (resident words, or a
    /// verbatim page copy from the current file when `allow_copy`),
    /// fresh table and metadata, a single live slot — all through the
    /// temp + fsync + rename dance, so either the old or the new
    /// checkpoint survives a crash, never a mixture.
    fn write_full(
        &mut self,
        disks: &[&Disk],
        meta: &[u8],
        extra: &[u8],
        epoch: u64,
        allow_copy: bool,
    ) -> Result<CheckpointReport, StoreError> {
        let joined = wrap_meta(extra, meta);
        // Plan placements and payload sources.
        let shape_ok = allow_copy
            && disks.len() == self.volumes.len()
            && disks
                .iter()
                .zip(&self.volumes)
                .all(|(d, v)| *d.config() == v.config);
        let mut sources: Vec<PayloadSource<'_>> = Vec::new();
        let mut new_volumes = Vec::with_capacity(disks.len());
        // Regions: slots, table, meta, payload.
        let table_len_probe = {
            // Probe with zero offsets: the table length is placement-
            // independent (17 bytes per extent, fixed header per volume).
            let probe: Vec<VolumeDesc> = disks
                .iter()
                .map(|d| VolumeDesc {
                    config: *d.config(),
                    extents: (0..d.num_extents())
                        .map(|_| ExtPlacement {
                            bit_len: 0,
                            freed: false,
                            file_off: 0,
                        })
                        .collect(),
                })
                .collect();
            encode_table(&probe).len()
        };
        let table_off = 2 * META_PAGE as u64;
        let meta_off = table_off + meta_pages(table_len_probe) * META_PAGE as u64;
        let mut cursor = meta_off + meta_pages(joined.len()) * META_PAGE as u64;
        for (v, disk) in disks.iter().enumerate() {
            let page_bytes = disk.block_bits() / 8 + 8;
            let mut extents = Vec::with_capacity(disk.num_extents());
            for i in 0..disk.num_extents() {
                let ext = ExtentId(i as u32);
                let bit_len = disk.extent_bits(ext);
                let blocks = disk.config().blocks_for_bits(bit_len);
                let file_off = if blocks == 0 { u64::MAX } else { cursor };
                cursor += blocks * page_bytes;
                extents.push(ExtPlacement {
                    bit_len,
                    freed: disk.is_freed(ext),
                    file_off,
                });
                if blocks == 0 {
                    continue;
                }
                if disk.is_resident(ext) {
                    sources.push(PayloadSource::Words(disk.extent_words(ext)));
                } else {
                    let old = if shape_ok {
                        self.volumes[v].extents.get(i).copied()
                    } else {
                        None
                    };
                    match old {
                        Some(p) if p.file_off != u64::MAX && p.bit_len == bit_len => {
                            sources.push(PayloadSource::Copy {
                                file_off: p.file_off,
                            });
                        }
                        _ => return Err(StoreError::NotResident),
                    }
                }
            }
            new_volumes.push(VolumeDesc {
                config: *disk.config(),
                extents,
            });
        }
        let file_bytes = cursor;
        let table = encode_table(&new_volumes);
        debug_assert_eq!(table.len(), table_len_probe);

        let state = SlotState {
            volume_count: disks.len() as u32,
            table_off,
            table_len: table.len(),
            meta_off,
            meta_len: joined.len(),
            file_bytes,
            epoch,
            dead_bytes: 0,
            tag: self.tag.clone(),
        };

        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        {
            let mut out = BufWriter::new(&file);
            out.write_all(&encode_slot(&state))?;
            // The alternate slot starts invalid (all zeroes).
            out.write_all(&[0u8; META_PAGE])?;
            write_paged(&mut out, &table)?;
            write_paged(&mut out, &joined)?;
            let mut src = sources.into_iter();
            let mut page_buf = Vec::new();
            for disk in disks {
                let page_bytes = (disk.block_bits() / 8 + 8) as usize;
                for i in 0..disk.num_extents() {
                    let ext = ExtentId(i as u32);
                    let blocks = disk.config().blocks_for_bits(disk.extent_bits(ext));
                    if blocks == 0 {
                        continue;
                    }
                    match src.next().expect("one source per placed extent") {
                        PayloadSource::Words(words) => {
                            write_extent_pages(&mut out, words, blocks, disk.block_bits())?;
                        }
                        PayloadSource::Copy { file_off } => {
                            page_buf.resize(page_bytes * blocks as usize, 0);
                            self.file.seek(SeekFrom::Start(file_off))?;
                            self.file
                                .read_exact(&mut page_buf)
                                .map_err(|e| map_eof(e, "checkpoint payload copy"))?;
                            out.write_all(&page_buf)?;
                        }
                    }
                }
            }
            out.flush()?;
        }
        file.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        // Make the rename itself durable.
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        self.file = file;
        self.volumes = new_volumes;
        self.meta_len = joined.len();
        self.file_bytes = file_bytes;
        self.dead_bytes = 0;
        self.epoch = epoch;
        self.slot = 0;
        Ok(CheckpointReport {
            epoch,
            file_bytes,
            bytes_written: file_bytes,
            extents_flushed: self.volumes.iter().map(|v| v.extents.len()).sum(),
            compacted: true,
        })
    }
}

/// Byte length of the encoded table for `volumes` (17 bytes per extent
/// plus a fixed per-volume header; placement-independent).
fn self_table_len(volumes: &[VolumeDesc]) -> usize {
    encode_table(volumes).len()
}

/// Opens a checkpoint file read-only as index family `I`, returning the
/// reconstructed index (payload lazily fetched, exactly like
/// [`crate::open`]) plus the caller's `extra` recovery blob.
pub fn open_checkpoint<I: PersistIndex>(
    path: impl AsRef<Path>,
    opts: &OpenOptions,
) -> Result<(Opened<I>, Vec<u8>), StoreError> {
    if opts.pool_blocks == 0 {
        return Err(StoreError::InvalidOptions {
            what: "pool_blocks must be at least 1".into(),
        });
    }
    sweep_stale_tmp(path.as_ref());
    let mut file = File::open(path.as_ref())?;
    let (state, _slot) = read_slots(&mut file)?;
    if state.tag != I::TAG {
        return Err(StoreError::WrongFamily {
            expected: I::TAG.into(),
            found: state.tag,
        });
    }
    let table = read_paged(&mut file, state.table_off, state.table_len, "extent table")?;
    let volumes = decode_table(&table, state.volume_count)?;
    let joined = read_paged(&mut file, state.meta_off, state.meta_len, "index metadata")?;
    let (extra, meta) = split_meta(&joined)?;
    let actual = file.metadata()?.len();
    if actual < state.file_bytes {
        return Err(StoreError::Truncated {
            what: format!(
                "checkpoint payload region ({actual} of {} bytes)",
                state.file_bytes
            ),
        });
    }
    let opened = build_opened(file, &volumes, meta, state.file_bytes, opts, None)?;
    Ok((opened, extra.to_vec()))
}

/// Reads just the committed epoch of a checkpoint file (the recovery
/// path decides which log tail to replay from this).
pub fn checkpoint_epoch(path: impl AsRef<Path>) -> Result<u64, StoreError> {
    let mut file = File::open(path.as_ref())?;
    let (state, _) = read_slots(&mut file)?;
    Ok(state.epoch)
}

/// Reads the epoch of **every** valid superblock slot (0, 1 or 2
/// entries, newest first, deduplicated).
///
/// [`checkpoint_epoch`] answers "which checkpoint wins today" — but a
/// slot flip is only durable once its page survives a crash, and a torn
/// write tears it *after* the flipping process has moved on. Anything
/// that garbage-collects state referenced by the superblock (the durable
/// write path's stale-log sweep) must therefore treat every epoch still
/// present in a decodable slot as live: if the newest slot later reads
/// back torn, recovery falls back to the other slot and replays *its*
/// log.
pub fn checkpoint_slot_epochs(path: impl AsRef<Path>) -> Result<Vec<u64>, StoreError> {
    let mut file = File::open(path.as_ref())?;
    let mut pages = [[0u8; META_PAGE]; 2];
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut pages[0])
        .map_err(|e| map_eof(e, "checkpoint superblock slot A"))?;
    file.read_exact(&mut pages[1])
        .map_err(|e| map_eof(e, "checkpoint superblock slot B"))?;
    let mut epochs: Vec<u64> = pages
        .iter()
        .filter_map(decode_slot)
        .map(|s| s.epoch)
        .collect();
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    epochs.dedup();
    Ok(epochs)
}
