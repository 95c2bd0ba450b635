//! Concatenated compressed-bitmap storage.
//!
//! Several structures (the "obvious solution", binning, multi-resolution,
//! and the paper's own tree levels) store a family of gap-compressed
//! bitmaps concatenated in one disk stream, with an in-memory directory of
//! `(offset, length, cardinality)` triples — the paper's "for each node, we
//! also store the position and length of its compressed bitmap" (§2.1).
//! The extent holds the code streams and nothing beside them: a copied
//! bitmap builds its skip directory in memory on first use.

#[cfg(test)]
use psi_bits::GapDecoder;
use psi_bits::{merge, BitBuf, GapBitmap, GapEncoder};
#[cfg(test)]
use psi_io::DiskReader;
use psi_io::{cost, Disk, ExtentId, IoSession, ReadError};

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
}

/// A family of gap-compressed bitmaps concatenated in one extent.
#[derive(Debug)]
pub struct BitmapCatalog {
    ext: ExtentId,
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
        let session = IoSession::untracked();
        let mut entries = Vec::new();
        let mut writer = disk.writer(ext, &session);
        for group in groups {
            let bit_off = writer.pos();
            let mut first_pos = None;
            let mut enc = GapEncoder::new(&mut writer);
            for p in group {
                enc.push(p);
                first_pos.get_or_insert(p);
            }
            let last_pos = enc.last();
            let count = enc.finish();
            entries.push(CatalogEntry {
                bit_off,
                bit_len: writer.pos() - bit_off,
                count,
                first_pos,
                last_pos,
            });
        }
        BitmapCatalog {
            ext,
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

    /// Streaming decoder for bitmap `idx`, charging `io` (resident
    /// extents only): the per-code reference of [`Self::copy_bitmap`].
    #[cfg(test)]
    pub fn decoder<'a>(
        &self,
        disk: &'a Disk,
        idx: usize,
        io: &'a IoSession,
    ) -> GapDecoder<DiskReader<'a>> {
        let e = &self.entries[idx];
        GapDecoder::new(disk.reader(self.ext, e.bit_off, io), e.count)
    }

    /// Lifts bitmap `idx` verbatim into a [`GapBitmap`], charging `io`
    /// and returning a failed pooled fetch as its error. Queries covered
    /// by a single stored bitmap return this word copy instead of decoding
    /// and re-encoding the positions; larger covers merge lifted parts
    /// ([`merge_cover`]).
    pub fn copy_bitmap(
        &self,
        disk: &Disk,
        idx: usize,
        io: &IoSession,
    ) -> Result<GapBitmap, ReadError> {
        let e = &self.entries[idx];
        let bits = BitBuf::lift(&mut disk.reader(self.ext, e.bit_off, io), e.bit_len)?;
        Ok(GapBitmap::from_code_bits(bits, e.count, self.universe))
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

    /// Payload plus [`Self::directory_bits`].
    pub fn size_bits(&self, disk: &Disk) -> u64 {
        self.payload_bits(disk) + self.directory_bits(disk)
    }
}

/// The planner inputs `(total, span)` of a cover of non-empty catalog
/// bitmaps, from the in-memory directory alone.
fn cover_stats(parts: &[(&BitmapCatalog, usize)]) -> (u64, Option<(u64, u64)>) {
    merge::cover_stats(parts.iter().map(|&(catalog, idx)| {
        let e = catalog.entry(idx);
        (
            e.count,
            e.first_pos.expect("non-empty"),
            e.last_pos.expect("non-empty"),
        )
    }))
}

/// Unions a cover of non-empty catalog bitmaps over `universe`: each part
/// is lifted whole ([`BitmapCatalog::copy_bitmap`]) and decoded in memory,
/// then merged by [`merge::merge_adaptive`] with the count and span read
/// off the directory before any lift.
pub fn merge_cover(
    disk: &Disk,
    parts: &[(&BitmapCatalog, usize)],
    universe: u64,
    io: &IoSession,
) -> Result<GapBitmap, ReadError> {
    let (total, span) = cover_stats(parts);
    let decoded = parts
        .iter()
        .map(|&(catalog, idx)| Ok(catalog.copy_bitmap(disk, idx, io)?.to_vec().into_iter()))
        .collect::<Result<Vec<_>, ReadError>>()?;
    Ok(merge::merge_adaptive(decoded, universe, total, span))
}

/// [`merge_cover`] with every part decoded code by code from the disk:
/// the reference the lifted merge must match in rows and charge.
#[cfg(test)]
pub(crate) fn merge_cover_per_code(
    disk: &Disk,
    parts: &[(&BitmapCatalog, usize)],
    universe: u64,
    io: &IoSession,
) -> GapBitmap {
    let (total, span) = cover_stats(parts);
    let decoders = parts
        .iter()
        .map(|&(catalog, idx)| catalog.decoder(disk, idx, io))
        .collect();
    merge::merge_adaptive(decoders, universe, total, span)
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl BitmapCatalog {
    /// Serializes the in-memory directory (payload stays on disk).
    pub(crate) fn persist_meta(&self, out: &mut psi_store::MetaBuf) {
        out.put_u32(self.ext.0);
        out.put_u64(self.universe);
        out.put_len(self.entries.len());
        for e in &self.entries {
            out.put_u64(e.bit_off);
            out.put_u64(e.bit_len);
            out.put_u64(e.count);
            out.put_opt_u64(e.first_pos);
            out.put_opt_u64(e.last_pos);
        }
    }

    /// Rebuilds the catalog over a reopened disk.
    pub(crate) fn restore_meta(
        meta: &mut psi_store::MetaCursor,
        disk: &Disk,
    ) -> Result<Self, psi_store::StoreError> {
        let ext = psi_store::check_extent(disk, meta.get_u32()?, "catalog")?;
        let universe = meta.get_u64()?;
        // Minimum encoded entry: 3 u64 fields + two absent options = 26
        // bytes (an empty bitmap omits first/last_pos), so the length
        // bound must use 26, not the fully-populated 42.
        let n = meta.get_len(26)?;
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let e = CatalogEntry {
                bit_off: meta.get_u64()?,
                bit_len: meta.get_u64()?,
                count: meta.get_u64()?,
                first_pos: meta.get_opt_u64()?,
                last_pos: meta.get_opt_u64()?,
            };
            let span = (e.first_pos, e.last_pos);
            psi_store::check_bitmap(disk, ext, (e.bit_off, e.bit_len), e.count, span, || {
                format!("catalog entry {i}")
            })?;
            entries.push(e);
        }
        Ok(BitmapCatalog {
            ext,
            universe,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let groups = vec![
            vec![0u64, 5, 9],
            vec![2, 3, 4, 99],
            (0..600u64).map(|i| i * 4).collect(),
        ];
        let cat = BitmapCatalog::build(&mut disk, 2400, groups.clone());
        assert_eq!(
            (cat.entry(2).first_pos, cat.entry(2).last_pos),
            (Some(0), Some(2396))
        );
        for (i, g) in groups.iter().enumerate() {
            let decode_io = IoSession::new();
            let decoded: Vec<u64> = cat.decoder(&disk, i, &decode_io).collect();
            let copy_io = IoSession::new();
            let copied = cat.copy_bitmap(&disk, i, &copy_io).unwrap();
            assert_eq!(&decoded, g);
            assert_eq!(copied.to_vec(), decoded);
            assert_eq!(copied.universe(), 2400);
            assert_eq!(copied.size_bits(), cat.entry(i).bit_len);
            assert_eq!(copy_io.stats().reads, decode_io.stats().reads);
            assert_eq!(copy_io.stats().bits_read, decode_io.stats().bits_read);
        }
        // The copy builds its directory on first use.
        let copied = cat.copy_bitmap(&disk, 2, &IoSession::new()).unwrap();
        assert!(!copied.has_skip_dir());
        assert!(copied.contains(2396) && !copied.contains(2395));
        assert_eq!(copied.rank(1200), 300);
        assert!(copied.has_skip_dir());
    }

    #[test]
    fn corrupt_entry_metadata_is_a_typed_error() {
        let mut disk = Disk::new(IoConfig::with_block_bits(256));
        let mut cat = BitmapCatalog::build(&mut disk, 2400, vec![(0..600u64).map(|i| i * 4)]);
        let restore = |cat: &BitmapCatalog, disk: &Disk| {
            let mut meta = psi_store::MetaBuf::new();
            cat.persist_meta(&mut meta);
            BitmapCatalog::restore_meta(&mut psi_store::MetaCursor::new(meta.bytes()), disk)
        };
        assert!(restore(&cat, &disk).is_ok());
        // An entry that reaches past the extent, or whose non-empty span
        // is missing or reversed, is rejected: copies would panic on it,
        // not fail.
        let good = cat.entries[0];
        let end = cat.payload_bits(&disk);
        for (i, bad) in [
            CatalogEntry {
                bit_off: end,
                ..good
            },
            CatalogEntry {
                bit_len: good.bit_len + 1,
                ..good
            },
            CatalogEntry {
                bit_off: u64::MAX,
                ..good
            },
            CatalogEntry {
                first_pos: Some(2397),
                ..good
            },
            CatalogEntry {
                first_pos: None,
                ..good
            },
        ]
        .into_iter()
        .enumerate()
        {
            cat.entries[0] = bad;
            assert!(
                matches!(
                    restore(&cat, &disk),
                    Err(psi_store::StoreError::Meta { .. })
                ),
                "case {i} accepted"
            );
        }
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
