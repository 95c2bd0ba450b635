//! The uncompressed bitmap index: the other extreme of §1.3.
//!
//! One explicit `n`-bit bitmap per character (equality encoding). A range
//! query of width `ℓ` reads `ℓ` bitmaps — `ℓ·n` bits, i.e. `O(ℓ·n/B)`
//! I/Os — regardless of the result size. Optimal for tiny alphabets
//! (§1.2's opening observation), hopeless for large ones.

use psi_api::{check_range, HasDisk, RidSet, SecondaryIndex, Symbol};
use psi_bits::GapBitmap;
use psi_io::{Disk, IoConfig, IoSession, ReadError};

use crate::dense::DenseCatalog;

/// An equality-encoded, uncompressed bitmap index.
#[derive(Debug)]
pub struct UncompressedBitmapIndex {
    disk: Disk,
    cat: DenseCatalog,
    n: u64,
    sigma: Symbol,
}

impl UncompressedBitmapIndex {
    /// Builds the index over `symbols ∈ [0, sigma)ⁿ`.
    pub fn build(symbols: &[Symbol], sigma: Symbol, config: IoConfig) -> Self {
        assert!(sigma > 0);
        let n = symbols.len() as u64;
        let mut disk = Disk::new(config);
        let lists = crate::per_char_positions(symbols, sigma);
        let cat = DenseCatalog::build(&mut disk, n.max(1), lists);
        UncompressedBitmapIndex {
            disk,
            cat,
            n,
            sigma,
        }
    }
}

impl HasDisk for UncompressedBitmapIndex {
    fn disk(&self) -> &Disk {
        &self.disk
    }
}

impl SecondaryIndex for UncompressedBitmapIndex {
    fn len(&self) -> u64 {
        self.n
    }

    fn sigma(&self) -> Symbol {
        self.sigma
    }

    fn space_bits(&self) -> u64 {
        self.cat.size_bits(&self.disk)
    }

    fn try_query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> Result<RidSet, ReadError> {
        check_range(lo, hi, self.sigma);
        if self.n == 0 {
            return Ok(RidSet::from_positions(GapBitmap::empty(0)));
        }
        let mut acc = self.cat.new_acc();
        for c in lo..=hi {
            self.cat.or_into(&self.disk, c as usize, &mut acc, io)?;
        }
        let positions = self.cat.acc_positions(&acc);
        Ok(RidSet::from_positions(GapBitmap::from_sorted(
            &positions, self.n,
        )))
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl psi_store::PersistIndex for UncompressedBitmapIndex {
    const TAG: &'static str = "uncompressed";

    fn write_meta(&self, out: &mut psi_store::MetaBuf) {
        self.cat.persist_meta(out);
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
        let disk = psi_store::single_volume(disks, "uncompressed bitmap")?;
        Ok(UncompressedBitmapIndex {
            cat: crate::dense::DenseCatalog::restore_meta(meta, &disk)?,
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
    fn slot_ors_lift_like_per_word_reads() {
        let symbols = psi_workloads::zipf(3000, 16, 1.0, 41);
        let idx = UncompressedBitmapIndex::build(&symbols, 16, cfg());
        let ranges = [(0, 0), (4, 4), (0, 3), (2, 11), (0, 15)];
        crate::testutil::assert_lifts_match_per_code(&idx, &ranges, |idx, lo, hi, io| {
            let mut acc = idx.cat.new_acc();
            for c in lo..=hi {
                idx.cat
                    .combine_per_word(&idx.disk, c as usize, &mut acc, io, |a, w| *a |= w);
            }
            let positions = idx.cat.acc_positions(&acc);
            RidSet::from_positions(GapBitmap::from_sorted(&positions, idx.n))
        });
    }

    fn cfg() -> IoConfig {
        IoConfig::with_block_bits(512)
    }

    #[test]
    fn matches_naive() {
        let symbols = psi_workloads::uniform(1500, 16, 5);
        let idx = UncompressedBitmapIndex::build(&symbols, 16, cfg());
        check_against_naive(&idx, &symbols);
    }

    #[test]
    fn space_is_exactly_sigma_word_rounded_n() {
        let symbols = psi_workloads::uniform(1000, 32, 5);
        let idx = UncompressedBitmapIndex::build(&symbols, 32, cfg());
        // 1000 bits round to 16 words = 1024 bits per character.
        assert_eq!(idx.space_bits(), 32 * 1024);
    }

    #[test]
    fn query_cost_scales_with_range_width_not_result() {
        let n = 1 << 16;
        // Character 0 never occurs: results are empty but reads persist.
        let symbols: Vec<u32> = psi_workloads::uniform(n, 15, 2)
            .iter()
            .map(|&c| c + 1)
            .collect();
        let idx = UncompressedBitmapIndex::build(&symbols, 16, IoConfig::default());
        let (r1, s1) = idx.query_measured(0, 0);
        assert!(r1.is_empty());
        let blocks_per_bitmap = (n as u64).div_ceil(8192);
        assert!(
            s1.reads >= blocks_per_bitmap,
            "even an empty result reads a full bitmap"
        );
        let (_, s8) = idx.query_measured(0, 7);
        assert!(
            s8.reads >= 8 * blocks_per_bitmap - 8,
            "width-8 range reads 8 bitmaps"
        );
    }

    #[test]
    fn empty_string() {
        let idx = UncompressedBitmapIndex::build(&[], 4, cfg());
        let io = IoSession::new();
        assert!(idx.query(0, 3, &io).is_empty());
    }
}
