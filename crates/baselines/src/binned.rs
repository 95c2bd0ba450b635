//! Binned bitmap index (§1.2, citing Sinha & Winslett [16]).
//!
//! "Divide Σ into bins of `w` characters and represent a compressed bitmap
//! for each bin corresponding to all occurrences of its characters" — plus
//! the per-character bitmaps to resolve partial bins exactly, "so a range
//! query of size ℓ can be answered by combining less than `⌊ℓ/w⌋ + 2w`
//! compressed bitmaps". One step of the space/time trade-off that
//! [`crate::MultiResolutionIndex`] applies recursively.

use psi_api::{check_range, HasDisk, RidSet, SecondaryIndex, Symbol};
use psi_bits::GapBitmap;
use psi_io::{Disk, IoConfig, IoSession, ReadError};

use crate::catalog::{self, BitmapCatalog};

/// A two-resolution bitmap index: bins of `w` characters plus per-character
/// bitmaps for the bin edges.
#[derive(Debug)]
pub struct BinnedBitmapIndex {
    disk: Disk,
    bins: BitmapCatalog,
    chars: BitmapCatalog,
    w: u32,
    n: u64,
    sigma: Symbol,
}

impl BinnedBitmapIndex {
    /// Builds with bin width `w ≥ 1` over `symbols ∈ [0, sigma)ⁿ`.
    pub fn build(symbols: &[Symbol], sigma: Symbol, w: u32, config: IoConfig) -> Self {
        assert!(sigma > 0 && w >= 1);
        let n = symbols.len() as u64;
        let mut disk = Disk::new(config);
        let num_bins = sigma.div_ceil(w);
        // Scanning the string left to right yields sorted positions for
        // both resolutions.
        let mut bin_lists = vec![Vec::new(); num_bins as usize];
        for (i, &c) in symbols.iter().enumerate() {
            assert!(c < sigma, "symbol {c} outside alphabet of size {sigma}");
            bin_lists[(c / w) as usize].push(i as u64);
        }
        let char_lists = crate::per_char_positions(symbols, sigma);
        let bins = BitmapCatalog::build(&mut disk, n.max(1), bin_lists);
        let chars = BitmapCatalog::build(&mut disk, n.max(1), char_lists);
        BinnedBitmapIndex {
            disk,
            bins,
            chars,
            w,
            n,
            sigma,
        }
    }

    /// The bin width `w`.
    pub fn bin_width(&self) -> u32 {
        self.w
    }
}

impl HasDisk for BinnedBitmapIndex {
    fn disk(&self) -> &Disk {
        &self.disk
    }
}

impl SecondaryIndex for BinnedBitmapIndex {
    fn len(&self) -> u64 {
        self.n
    }

    fn sigma(&self) -> Symbol {
        self.sigma
    }

    fn space_bits(&self) -> u64 {
        self.bins.size_bits(&self.disk) + self.chars.size_bits(&self.disk)
    }

    fn try_query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> Result<RidSet, ReadError> {
        check_range(lo, hi, self.sigma);
        if self.n == 0 {
            return Ok(RidSet::from_positions(GapBitmap::empty(0)));
        }
        let parts = self.cover(lo, hi);
        if parts.is_empty() {
            return Ok(RidSet::from_positions(GapBitmap::empty(self.n)));
        }
        // Single-bitmap covers (one bin, or one edge character) come back
        // as a verbatim word copy of the stored stream; larger covers are
        // density-planned over the cover's catalog metadata.
        Ok(RidSet::from_positions(match parts[..] {
            [(catalog, idx)] => catalog.copy_bitmap(&self.disk, idx, io)?,
            _ => catalog::merge_cover(&self.disk, &parts, self.n, io)?,
        }))
    }

    fn cardinality_hint(&self, lo: Symbol, hi: Symbol) -> Option<u64> {
        // Exact, from the per-character catalog directory (no decode).
        Some(
            (lo..=hi)
                .map(|c| self.chars.entry(c as usize).count)
                .sum::<u64>(),
        )
    }
}

impl BinnedBitmapIndex {
    /// The non-empty stored bitmaps covering `[lo, hi]`: whole bins where
    /// they fit, single characters at the edges.
    fn cover(&self, lo: Symbol, hi: Symbol) -> Vec<(&BitmapCatalog, usize)> {
        let w = self.w;
        let mut parts: Vec<(&BitmapCatalog, usize)> = Vec::new();
        // A bin b (covering [b·w, b·w + w − 1] clamped to σ) is usable iff
        // it lies entirely inside [lo, hi].
        let mut c = lo;
        while c <= hi {
            let b = c / w;
            let bin_lo = b * w;
            let bin_hi = ((b + 1) * w - 1).min(self.sigma - 1);
            if bin_lo >= lo && bin_hi <= hi && c == bin_lo {
                parts.push((&self.bins, b as usize));
                c = bin_hi + 1;
            } else {
                parts.push((&self.chars, c as usize));
                c += 1;
            }
            if c == 0 {
                break; // unreachable; guards overflow in release builds
            }
        }
        parts.retain(|&(catalog, idx)| catalog.entry(idx).count > 0);
        parts
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl psi_store::PersistIndex for BinnedBitmapIndex {
    const TAG: &'static str = "binned";

    fn write_meta(&self, out: &mut psi_store::MetaBuf) {
        self.bins.persist_meta(out);
        self.chars.persist_meta(out);
        out.put_u32(self.w);
        out.put_u64(self.n);
        out.put_u32(self.sigma);
    }

    fn disks(&self) -> Vec<&Disk> {
        vec![HasDisk::disk(self)]
    }

    fn from_parts(
        meta: &mut psi_store::MetaCursor,
        disks: Vec<Disk>,
    ) -> Result<Self, psi_store::StoreError> {
        let disk = psi_store::single_volume(disks, "binned bitmap")?;
        Ok(BinnedBitmapIndex {
            bins: BitmapCatalog::restore_meta(meta, &disk)?,
            chars: BitmapCatalog::restore_meta(meta, &disk)?,
            w: meta.get_u32()?,
            n: meta.get_u64()?,
            sigma: meta.get_u32()?,
            disk,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_against_naive;

    #[test]
    fn multi_bitmap_covers_lift_like_per_code_reads() {
        let symbols = psi_workloads::zipf(4000, 16, 1.0, 29);
        let idx = BinnedBitmapIndex::build(&symbols, 16, 4, cfg());
        let ranges = [(0, 1), (2, 9), (3, 14), (0, 15), (5, 5), (1, 12)];
        crate::testutil::assert_lifts_match_per_code(&idx, &ranges, |idx, lo, hi, io| {
            let parts = idx.cover(lo, hi);
            RidSet::from_positions(catalog::merge_cover_per_code(&idx.disk, &parts, idx.n, io))
        });
    }

    fn cfg() -> IoConfig {
        IoConfig::with_block_bits(512)
    }

    #[test]
    fn matches_naive_for_various_bin_widths() {
        let symbols = psi_workloads::uniform(2000, 24, 17);
        for w in [1, 2, 3, 5, 8, 24, 30] {
            let idx = BinnedBitmapIndex::build(&symbols, 24, w, cfg());
            check_against_naive(&idx, &symbols);
        }
    }

    #[test]
    fn aligned_query_reads_only_bins() {
        let n = 1 << 14;
        let sigma = 64;
        let symbols = psi_workloads::uniform(n, sigma, 23);
        let idx = BinnedBitmapIndex::build(&symbols, sigma, 8, IoConfig::default());
        // [8, 23] is two full bins.
        let io = IoSession::new();
        let r = idx.query(8, 23, &io);
        let aligned_bits = io.stats().bits_read;
        // [9, 24] needs 1 bin + 8 edge characters whose bitmaps are sparser
        // and hence larger in total.
        let io2 = IoSession::new();
        let r2 = idx.query(9, 24, &io2);
        assert!(r.cardinality() as usize + r2.cardinality() as usize > 0);
        assert!(
            io2.stats().bits_read > aligned_bits,
            "unaligned query should decode more bits ({} vs {aligned_bits})",
            io2.stats().bits_read
        );
    }

    #[test]
    fn width_one_bins_equal_char_catalog_duplication() {
        let symbols = psi_workloads::uniform(500, 8, 29);
        let idx = BinnedBitmapIndex::build(&symbols, 8, 1, cfg());
        // Bins == chars, so space is exactly twice the char catalog payload
        // (plus directories).
        assert_eq!(
            idx.bins.payload_bits(&idx.disk),
            idx.chars.payload_bits(&idx.disk)
        );
    }

    #[test]
    fn empty_string() {
        let idx = BinnedBitmapIndex::build(&[], 4, 2, cfg());
        let io = IoSession::new();
        assert!(idx.query(0, 3, &io).is_empty());
    }
}
