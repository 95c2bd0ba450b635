//! Concatenated compressed-bitmap storage.
//!
//! Several structures (the "obvious solution", binning, multi-resolution,
//! and the paper's own tree levels) store a family of gap-compressed
//! bitmaps concatenated in one disk stream, with an in-memory directory of
//! `(offset, length, cardinality)` triples — the paper's "for each node, we
//! also store the position and length of its compressed bitmap" (§2.1).
//!
//! Alongside the payload extent, a side extent persists one **skip
//! directory** per bitmap ([`psi_bits::SKIP_SAMPLE`]-spaced samples; see
//! `psi_bits::skip`): charged reads buy indexed verbatim copies whose
//! results gallop ([`BitmapCatalog::copy_bitmap_indexed`]).

use psi_bits::skip::{SkipDirectory, SkipEntry, SKIP_LIFT_MIN};
use psi_bits::{BitBuf, GapBitmap, GapDecoder, GapEncoder, SKIP_SAMPLE};
use psi_io::{cost, Disk, DiskReader, ExtentId, IoSession};

pub use psi_bits::skip::DIR_MIN_COUNT;

/// Directory entry for one bitmap in a [`BitmapCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Bit offset of the bitmap's code stream within the extent.
    pub bit_off: u64,
    /// Length of the code stream in bits.
    pub bit_len: u64,
    /// Number of positions encoded (the bitmap's cardinality).
    pub count: u64,
    /// Smallest encoded position (with `last_pos`, the bitmap's span —
    /// read by the merge planner before any decode).
    pub first_pos: Option<u64>,
    /// Largest encoded position.
    pub last_pos: Option<u64>,
    /// Bit offset of the skip directory in the side extent.
    pub dir_off: u64,
    /// Persisted skip-directory entries.
    pub dir_entries: u64,
}

/// A family of gap-compressed bitmaps concatenated in one extent.
#[derive(Debug)]
pub struct BitmapCatalog {
    ext: ExtentId,
    /// Side extent holding every bitmap's skip directory.
    dir_ext: ExtentId,
    universe: u64,
    entries: Vec<CatalogEntry>,
}

impl BitmapCatalog {
    /// Builds a catalog over `universe` from an iterator of groups, each a
    /// sorted position iterator. Group order is preserved.
    pub fn build<I, J>(disk: &mut Disk, universe: u64, groups: I) -> Self
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = u64>,
    {
        let ext = disk.alloc();
        let dir_ext = disk.alloc();
        let session = IoSession::untracked();
        let mut entries = Vec::new();
        let mut directories: Vec<Vec<SkipEntry>> = Vec::new();
        {
            let mut writer = disk.writer(ext, &session);
            for group in groups {
                let bit_off = writer.pos();
                let mut samples = Vec::new();
                let mut first_pos = None;
                let mut enc = GapEncoder::new(&mut writer);
                for p in group {
                    enc.push(p);
                    if (enc.count() - 1).is_multiple_of(u64::from(SKIP_SAMPLE)) {
                        samples.push(SkipEntry {
                            pos: p,
                            bit_off: enc.bit_pos() - bit_off,
                            occ: SkipEntry::OCC_SELF,
                        });
                    } else if let Some(last) = samples.last_mut() {
                        last.cover(p);
                    }
                    first_pos.get_or_insert(p);
                }
                let last_pos = enc.last();
                let count = enc.finish();
                if count < DIR_MIN_COUNT {
                    samples.clear();
                }
                entries.push(CatalogEntry {
                    bit_off,
                    bit_len: writer.pos() - bit_off,
                    count,
                    first_pos,
                    last_pos,
                    dir_off: 0, // assigned below
                    dir_entries: samples.len() as u64,
                });
                directories.push(samples);
            }
        }
        let mut dw = disk.writer(dir_ext, &session);
        for (entry, samples) in entries.iter_mut().zip(&directories) {
            entry.dir_off = dw.pos();
            for e in samples {
                e.write_to(&mut dw);
            }
        }
        BitmapCatalog {
            ext,
            dir_ext,
            universe,
            entries,
        }
    }

    /// Number of bitmaps.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog holds no bitmaps.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The universe size shared by all bitmaps.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Directory entry of bitmap `idx`.
    pub fn entry(&self, idx: usize) -> &CatalogEntry {
        &self.entries[idx]
    }

    /// Streaming decoder for bitmap `idx`, charging `io`.
    pub fn decoder<'a>(
        &self,
        disk: &'a Disk,
        idx: usize,
        io: &'a IoSession,
    ) -> GapDecoder<DiskReader<'a>> {
        let e = &self.entries[idx];
        GapDecoder::new(disk.reader(self.ext, e.bit_off, io), e.count)
    }

    /// Lifts bitmap `idx` verbatim into a [`GapBitmap`], charging `io`.
    /// Queries covered by a single stored bitmap return this word copy
    /// instead of decoding and re-encoding the positions.
    pub fn copy_bitmap(&self, disk: &Disk, idx: usize, io: &IoSession) -> GapBitmap {
        let e = &self.entries[idx];
        let bits = BitBuf::lift(&mut disk.reader(self.ext, e.bit_off, io), e.bit_len);
        GapBitmap::from_code_bits(bits, e.count, self.universe)
    }

    /// Reads bitmap `idx`'s persisted skip directory (sequential, charged).
    pub fn read_directory(&self, disk: &Disk, idx: usize, io: &IoSession) -> SkipDirectory {
        let e = &self.entries[idx];
        let mut r = disk.reader(self.dir_ext, e.dir_off, io);
        SkipDirectory::read_from_source(&mut r, SKIP_SAMPLE, e.dir_entries)
    }

    /// [`Self::copy_bitmap`] plus a lift of the persisted skip directory
    /// (charged against the side extent): payload charges are identical,
    /// the directory costs exactly its own blocks, and the returned
    /// bitmap gallops without a decode pass.
    pub fn copy_bitmap_indexed(&self, disk: &Disk, idx: usize, io: &IoSession) -> GapBitmap {
        let e = &self.entries[idx];
        let skip = self.read_directory(disk, idx, io);
        let bits = BitBuf::lift(&mut disk.reader(self.ext, e.bit_off, io), e.bit_len);
        GapBitmap::from_code_bits_indexed(bits, e.count, self.universe, skip)
    }

    /// [`Self::copy_bitmap_indexed`] when the result is large enough for
    /// galloping to repay the directory blocks ([`SKIP_LIFT_MIN`]), else
    /// the plain verbatim copy.
    pub fn copy_bitmap_auto(&self, disk: &Disk, idx: usize, io: &IoSession) -> GapBitmap {
        if self.entries[idx].count >= SKIP_LIFT_MIN {
            self.copy_bitmap_indexed(disk, idx, io)
        } else {
            self.copy_bitmap(disk, idx, io)
        }
    }

    /// Compressed payload size in bits.
    pub fn payload_bits(&self, disk: &Disk) -> u64 {
        disk.extent_bits(self.ext)
    }

    /// Directory overhead: three `⌈lg max(n, payload)⌉`-bit fields per
    /// entry (offset, length, cardinality) — the paper's `O(σ lg n)`
    /// pointer accounting.
    pub fn directory_bits(&self, disk: &Disk) -> u64 {
        let field = cost::lg2_ceil(self.universe.max(2))
            .max(cost::lg2_ceil(disk.extent_bits(self.ext).max(2)));
        3 * field * self.entries.len() as u64
    }

    /// Persisted skip-directory bits (the side extent).
    pub fn skip_directory_bits(&self, disk: &Disk) -> u64 {
        disk.extent_bits(self.dir_ext)
    }

    /// Payload plus directories (pointer fields and skip samples).
    pub fn size_bits(&self, disk: &Disk) -> u64 {
        self.payload_bits(disk) + self.directory_bits(disk) + self.skip_directory_bits(disk)
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl BitmapCatalog {
    /// Serializes the in-memory directory (payload stays on disk).
    pub(crate) fn persist_meta(&self, out: &mut psi_store::MetaBuf) {
        out.put_u32(self.ext.0);
        out.put_u32(self.dir_ext.0);
        out.put_u64(self.universe);
        out.put_len(self.entries.len());
        for e in &self.entries {
            out.put_u64(e.bit_off);
            out.put_u64(e.bit_len);
            out.put_u64(e.count);
            out.put_opt_u64(e.first_pos);
            out.put_opt_u64(e.last_pos);
            out.put_u64(e.dir_off);
            out.put_u64(e.dir_entries);
        }
    }

    /// Rebuilds the catalog over a reopened disk.
    pub(crate) fn restore_meta(
        meta: &mut psi_store::MetaCursor,
        disk: &Disk,
    ) -> Result<Self, psi_store::StoreError> {
        let ext = psi_store::check_extent(disk, meta.get_u32()?, "catalog")?;
        let dir_ext = psi_store::check_extent(disk, meta.get_u32()?, "catalog directory")?;
        let universe = meta.get_u64()?;
        // Minimum encoded entry: 5 u64 fields + two absent options = 42
        // bytes (an empty bitmap omits first/last_pos), so the length
        // bound must use 42, not the fully-populated 58.
        let n = meta.get_len(42)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(CatalogEntry {
                bit_off: meta.get_u64()?,
                bit_len: meta.get_u64()?,
                count: meta.get_u64()?,
                first_pos: meta.get_opt_u64()?,
                last_pos: meta.get_opt_u64()?,
                dir_off: meta.get_u64()?,
                dir_entries: meta.get_u64()?,
            });
        }
        Ok(BitmapCatalog {
            ext,
            dir_ext,
            universe,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_bits::SKIP_ENTRY_BITS;
    use psi_io::IoConfig;

    #[test]
    fn catalog_roundtrips_groups() {
        let mut disk = Disk::new(IoConfig::with_block_bits(256));
        let groups = vec![vec![0u64, 5, 9], vec![], vec![2, 3, 4, 99]];
        let cat = BitmapCatalog::build(&mut disk, 100, groups.clone());
        assert_eq!(cat.len(), 3);
        let io = IoSession::untracked();
        for (i, g) in groups.iter().enumerate() {
            let got: Vec<u64> = cat.decoder(&disk, i, &io).collect();
            assert_eq!(&got, g);
            assert_eq!(cat.entry(i).count as usize, g.len());
        }
    }

    #[test]
    fn empty_groups_use_no_payload() {
        let mut disk = Disk::new(IoConfig::with_block_bits(256));
        let cat = BitmapCatalog::build(&mut disk, 10, vec![Vec::<u64>::new(), vec![]]);
        assert_eq!(cat.payload_bits(&disk), 0);
        assert!(cat.directory_bits(&disk) > 0);
    }

    #[test]
    fn copy_bitmap_is_verbatim_and_charged_like_decode() {
        let mut disk = Disk::new(IoConfig::with_block_bits(256));
        let groups = vec![vec![0u64, 5, 9], vec![2, 3, 4, 99]];
        let cat = BitmapCatalog::build(&mut disk, 100, groups.clone());
        for (i, g) in groups.iter().enumerate() {
            let decode_io = IoSession::new();
            let decoded: Vec<u64> = cat.decoder(&disk, i, &decode_io).collect();
            let copy_io = IoSession::new();
            let copied = cat.copy_bitmap(&disk, i, &copy_io);
            assert_eq!(&decoded, g);
            assert_eq!(copied.to_vec(), decoded);
            assert_eq!(copied.universe(), 100);
            assert_eq!(copied.size_bits(), cat.entry(i).bit_len);
            assert_eq!(copy_io.stats().reads, decode_io.stats().reads);
            assert_eq!(copy_io.stats().bits_read, decode_io.stats().bits_read);
        }
    }

    #[test]
    fn copy_bitmap_indexed_charges_payload_parity_plus_directory() {
        let mut disk = Disk::new(IoConfig::with_block_bits(256));
        let positions: Vec<u64> = (0..600u64).map(|i| i * 4).collect();
        let cat = BitmapCatalog::build(&mut disk, 2400, vec![positions.clone()]);
        let e = *cat.entry(0);
        assert_eq!(e.dir_entries, 600u64.div_ceil(64));
        assert_eq!((e.first_pos, e.last_pos), (Some(0), Some(2396)));
        let plain_io = IoSession::new();
        let plain = cat.copy_bitmap(&disk, 0, &plain_io);
        let indexed_io = IoSession::new();
        let indexed = cat.copy_bitmap_indexed(&disk, 0, &indexed_io);
        assert_eq!(indexed, plain);
        let dir_blocks = {
            let b = 256;
            (e.dir_off + e.dir_entries * SKIP_ENTRY_BITS - 1) / b - e.dir_off / b + 1
        };
        assert_eq!(
            indexed_io.stats().reads,
            plain_io.stats().reads + dir_blocks
        );
        assert_eq!(
            indexed_io.stats().bits_read,
            plain_io.stats().bits_read + e.dir_entries * SKIP_ENTRY_BITS
        );
        assert!(indexed.contains(2396) && !indexed.contains(2395));
        assert_eq!(indexed.rank(1200), 300);
    }

    #[test]
    fn decoding_charges_only_touched_blocks() {
        let mut disk = Disk::new(IoConfig::with_block_bits(128));
        // First group is large (spans blocks), second small.
        let big: Vec<u64> = (0..200).map(|i| i * 31).collect();
        let cat = BitmapCatalog::build(&mut disk, 10_000, vec![big, vec![1u64]]);
        let io = IoSession::new();
        let _: Vec<u64> = cat.decoder(&disk, 1, &io).collect();
        // The small bitmap occupies one or two blocks at the tail.
        assert!(io.stats().reads <= 2, "reads = {}", io.stats().reads);
    }
}
