//! Multi-resolution bitmap index (§1.2, citing Sinha & Winslett [16]).
//!
//! Binning applied recursively with fanout `w`: level `j` holds compressed
//! bitmaps for bins of `wʲ` characters. "Though not analyzed in [16], the
//! worst-case space usage of such an index, when each bitmap is optimally
//! compressed, is `Θ(n lg²(σ)/lg w)` bits. Queries may in the worst case
//! require reading a factor `O(lg w)` more data than the size of the
//! output" — the space/time trade-off that the paper's structure
//! eliminates (experiment E4).
//!
//! With `w = 2` this is exactly the complete-binary-tree layout that §2.1
//! builds on (`psi_core::UniformTreeIndex` adds the paper's prefix-count
//! array and complement trick on top).

use psi_api::{check_range, HasDisk, RidSet, SecondaryIndex, Symbol};
use psi_bits::GapBitmap;
use psi_io::{Disk, IoConfig, IoSession, ReadError};

use crate::catalog::{self, BitmapCatalog};

/// A recursive binned bitmap index with fanout `w`.
#[derive(Debug)]
pub struct MultiResolutionIndex {
    disk: Disk,
    /// `levels[j]` holds bins of width `wʲ`; level 0 is per-character.
    levels: Vec<BitmapCatalog>,
    w: u32,
    n: u64,
    sigma: Symbol,
}

impl MultiResolutionIndex {
    /// Builds with fanout `w ≥ 2` over `symbols ∈ [0, sigma)ⁿ`.
    pub fn build(symbols: &[Symbol], sigma: Symbol, w: u32, config: IoConfig) -> Self {
        assert!(sigma > 0 && w >= 2);
        let n = symbols.len() as u64;
        let mut disk = Disk::new(config);
        let mut levels = Vec::new();
        let mut bin_width: u64 = 1;
        loop {
            let num_bins = u64::from(sigma).div_ceil(bin_width);
            let mut lists = vec![Vec::new(); num_bins as usize];
            for (i, &c) in symbols.iter().enumerate() {
                assert!(c < sigma, "symbol {c} outside alphabet of size {sigma}");
                lists[(u64::from(c) / bin_width) as usize].push(i as u64);
            }
            levels.push(BitmapCatalog::build(&mut disk, n.max(1), lists));
            if num_bins == 1 {
                break;
            }
            bin_width *= u64::from(w);
        }
        MultiResolutionIndex {
            disk,
            levels,
            w,
            n,
            sigma,
        }
    }

    /// The fanout `w`.
    pub fn fanout(&self) -> u32 {
        self.w
    }

    /// Number of resolution levels (`⌈log_w σ⌉ + 1`).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The non-empty bins of [`Self::canonical_cover`], as the catalog
    /// bitmaps a query lifts.
    fn cover(&self, lo: Symbol, hi: Symbol) -> Vec<(&BitmapCatalog, usize)> {
        self.canonical_cover(lo, hi)
            .into_iter()
            .map(|(j, b)| (&self.levels[j], b as usize))
            .filter(|&(catalog, b)| catalog.entry(b).count > 0)
            .collect()
    }

    /// The canonical cover of `[lo, hi]`: maximal `w`-aligned bins, as
    /// `(level, bin_index)` pairs. At most `2(w−1)` bins per level.
    fn canonical_cover(&self, lo: Symbol, hi: Symbol) -> Vec<(usize, u64)> {
        let w = u64::from(self.w);
        let mut cover = Vec::new();
        let mut lo = u64::from(lo);
        let mut hi = u64::from(hi);
        for j in 0..self.levels.len() {
            let bins = self.levels[j].len() as u64;
            if j + 1 == self.levels.len() {
                for b in lo..=hi {
                    cover.push((j, b));
                }
                break;
            }
            // Peel unaligned bins on the left.
            while lo % w != 0 && lo <= hi {
                cover.push((j, lo));
                lo += 1;
            }
            if lo > hi {
                break;
            }
            // Peel unaligned bins on the right; the globally last bin of a
            // level may promote even when unaligned because its parent is
            // clamped to the same right edge.
            while (hi + 1) % w != 0 && hi + 1 != bins && hi >= lo {
                cover.push((j, hi));
                if hi == lo {
                    lo += 1; // signal exhaustion without underflow
                    break;
                }
                hi -= 1;
            }
            if lo > hi {
                break;
            }
            lo /= w;
            hi /= w;
        }
        cover
    }
}

impl HasDisk for MultiResolutionIndex {
    fn disk(&self) -> &Disk {
        &self.disk
    }
}

impl SecondaryIndex for MultiResolutionIndex {
    fn len(&self) -> u64 {
        self.n
    }

    fn sigma(&self) -> Symbol {
        self.sigma
    }

    fn space_bits(&self) -> u64 {
        self.levels.iter().map(|l| l.size_bits(&self.disk)).sum()
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
        // A one-bin cover (aligned ranges, single characters) is already
        // stored in the output encoding: return the word copy directly.
        // Larger covers are density-planned over the catalog metadata.
        Ok(RidSet::from_positions(match parts[..] {
            [(catalog, idx)] => catalog.copy_bitmap(&self.disk, idx, io)?,
            _ => catalog::merge_cover(&self.disk, &parts, self.n, io)?,
        }))
    }

    fn cardinality_hint(&self, lo: Symbol, hi: Symbol) -> Option<u64> {
        // Exact, from level 0's per-character catalog directory.
        Some(
            (lo..=hi)
                .map(|c| self.levels[0].entry(c as usize).count)
                .sum::<u64>(),
        )
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl psi_store::PersistIndex for MultiResolutionIndex {
    const TAG: &'static str = "multires";

    fn write_meta(&self, out: &mut psi_store::MetaBuf) {
        out.put_len(self.levels.len());
        for level in &self.levels {
            level.persist_meta(out);
        }
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
        let disk = psi_store::single_volume(disks, "multi-resolution")?;
        let num_levels = meta.get_len(20)?;
        let mut levels = Vec::with_capacity(num_levels);
        for _ in 0..num_levels {
            levels.push(BitmapCatalog::restore_meta(meta, &disk)?);
        }
        Ok(MultiResolutionIndex {
            levels,
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
    fn multi_bin_covers_lift_like_per_code_reads() {
        let symbols = psi_workloads::zipf(4000, 16, 1.0, 31);
        let idx = MultiResolutionIndex::build(&symbols, 16, 2, cfg());
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
    fn matches_naive_for_various_fanouts() {
        let symbols = psi_workloads::uniform(2000, 37, 31);
        for w in [2, 3, 4, 8, 16, 64] {
            let idx = MultiResolutionIndex::build(&symbols, 37, w, cfg());
            check_against_naive(&idx, &symbols);
        }
    }

    #[test]
    fn matches_naive_power_of_two_alphabet() {
        let symbols = psi_workloads::zipf(3000, 64, 1.0, 37);
        for w in [2, 4, 8] {
            let idx = MultiResolutionIndex::build(&symbols, 64, w, cfg());
            check_against_naive(&idx, &symbols);
        }
    }

    #[test]
    fn cover_is_disjoint_and_exact() {
        let symbols = psi_workloads::uniform(500, 64, 3);
        let idx = MultiResolutionIndex::build(&symbols, 64, 4, cfg());
        for (lo, hi) in [(0u32, 63u32), (1, 62), (5, 5), (0, 31), (17, 48)] {
            let cover = idx.canonical_cover(lo, hi);
            // Expand the cover back to characters; must equal [lo, hi].
            let mut chars = Vec::new();
            for (j, b) in cover {
                let width = 4u64.pow(j as u32);
                let start = b * width;
                let end = ((b + 1) * width).min(64) - 1;
                chars.extend(start..=end);
            }
            chars.sort_unstable();
            let expected: Vec<u64> = (u64::from(lo)..=u64::from(hi)).collect();
            assert_eq!(chars, expected, "cover of [{lo}, {hi}]");
        }
    }

    #[test]
    fn cover_size_bounded_per_level() {
        let symbols = psi_workloads::uniform(500, 256, 3);
        let idx = MultiResolutionIndex::build(&symbols, 256, 4, cfg());
        for (lo, hi) in [(0u32, 255u32), (1, 254), (3, 252), (100, 200)] {
            let cover = idx.canonical_cover(lo, hi);
            for j in 0..idx.num_levels() {
                let at_level = cover.iter().filter(|&&(l, _)| l == j).count();
                assert!(
                    at_level <= 2 * 3 + 1,
                    "level {j} has {at_level} bins for [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn space_decreases_with_fanout() {
        // Θ(n lg²σ / lg w): fewer levels for larger w.
        let symbols = psi_workloads::uniform(1 << 14, 256, 7);
        let s2 = MultiResolutionIndex::build(&symbols, 256, 2, IoConfig::default()).space_bits();
        let s16 = MultiResolutionIndex::build(&symbols, 256, 16, IoConfig::default()).space_bits();
        assert!(
            s16 < s2,
            "fanout 16 ({s16}) should use less space than fanout 2 ({s2})"
        );
    }

    #[test]
    fn single_character_alphabet() {
        let symbols = vec![0u32; 100];
        let idx = MultiResolutionIndex::build(&symbols, 1, 2, cfg());
        let io = IoSession::new();
        assert_eq!(idx.query(0, 0, &io).cardinality(), 100);
    }
}
