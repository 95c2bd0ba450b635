//! Range-encoded bitmap index (§1.2, citing O'Neil & Quass [14]).
//!
//! Bitmap `RE_c` marks all positions whose character is `≤ c`. A range
//! query `[lo, hi]` is `RE_hi AND NOT RE_{lo−1}` — **two** bitmap reads
//! regardless of the range width. The price is space: the bitmaps are
//! dense (position `p` is set in `σ − x_p` of them), so compression cannot
//! help and the index occupies `n·σ` bits — the paper's `nσ^{1−o(1)}`
//! class of precomputation schemes.

use psi_api::{check_range, HasDisk, RidSet, SecondaryIndex, Symbol};
use psi_bits::GapBitmap;
use psi_io::{Disk, IoConfig, IoSession, ReadError};

use crate::dense::DenseCatalog;

/// A range-encoded (cumulative) bitmap index.
#[derive(Debug)]
pub struct RangeEncodedIndex {
    disk: Disk,
    cat: DenseCatalog,
    n: u64,
    sigma: Symbol,
}

impl RangeEncodedIndex {
    /// Builds the index over `symbols ∈ [0, sigma)ⁿ`.
    pub fn build(symbols: &[Symbol], sigma: Symbol, config: IoConfig) -> Self {
        assert!(sigma > 0);
        let n = symbols.len() as u64;
        let mut disk = Disk::new(config);
        let lists = crate::per_char_positions(symbols, sigma);
        // RE_c = RE_{c−1} ∪ positions(c): fill cumulatively.
        let cat = DenseCatalog::build_with(&mut disk, n.max(1), sigma as usize, |c, words| {
            for &p in &lists[c] {
                words[(p / 64) as usize] |= 1u64 << (p % 64);
            }
        });
        RangeEncodedIndex {
            disk,
            cat,
            n,
            sigma,
        }
    }
}

impl HasDisk for RangeEncodedIndex {
    fn disk(&self) -> &Disk {
        &self.disk
    }
}

impl SecondaryIndex for RangeEncodedIndex {
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
        self.cat.or_into(&self.disk, hi as usize, &mut acc, io)?;
        if lo > 0 {
            self.cat
                .and_not_into(&self.disk, lo as usize - 1, &mut acc, io)?;
        }
        // The accumulator already is the answer as an LSB-first word
        // array: re-encode it with one `trailing_zeros` word scan instead
        // of materializing a position vector and gamma-encoding it
        // element by element. CPU-only — the blocks read above are the
        // whole I/O story, identical to the scalar path.
        Ok(RidSet::from_positions(GapBitmap::from_words(&acc, self.n)))
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl psi_store::PersistIndex for RangeEncodedIndex {
    const TAG: &'static str = "range_encoded";

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
        let disk = psi_store::single_volume(disks, "range encoded")?;
        Ok(RangeEncodedIndex {
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

    fn cfg() -> IoConfig {
        IoConfig::with_block_bits(512)
    }

    #[test]
    fn matches_naive() {
        let symbols = psi_workloads::uniform(1500, 16, 41);
        let idx = RangeEncodedIndex::build(&symbols, 16, cfg());
        check_against_naive(&idx, &symbols);
    }

    #[test]
    fn matches_naive_skewed() {
        let symbols = psi_workloads::zipf(1000, 8, 1.5, 43);
        let idx = RangeEncodedIndex::build(&symbols, 8, cfg());
        check_against_naive(&idx, &symbols);
    }

    #[test]
    fn query_reads_at_most_two_bitmaps() {
        let n = 1 << 15;
        let symbols = psi_workloads::uniform(n, 64, 47);
        let idx = RangeEncodedIndex::build(&symbols, 64, IoConfig::default());
        let bitmap_blocks = (n as u64).div_ceil(8192);
        for (lo, hi) in [(0u32, 63u32), (0, 0), (5, 60), (63, 63)] {
            let (_, stats) = idx.query_measured(lo, hi);
            let expected = if lo == 0 {
                bitmap_blocks
            } else {
                2 * bitmap_blocks
            };
            assert!(
                stats.reads <= expected + 2,
                "[{lo}, {hi}] read {} blocks, expected about {expected}",
                stats.reads
            );
        }
    }

    /// The query with each slot read word by word from the disk, encoded
    /// element by element: the reference of the lifted read and of the
    /// word-scan encode.
    fn query_per_word(idx: &RangeEncodedIndex, lo: Symbol, hi: Symbol, io: &IoSession) -> RidSet {
        let mut acc = idx.cat.new_acc();
        idx.cat
            .combine_per_word(&idx.disk, hi as usize, &mut acc, io, |a, w| *a |= w);
        if lo > 0 {
            idx.cat
                .combine_per_word(&idx.disk, lo as usize - 1, &mut acc, io, |a, w| *a &= !w);
        }
        RidSet::from_positions(GapBitmap::from_sorted(&idx.cat.acc_positions(&acc), idx.n))
    }

    #[test]
    fn word_scan_encode_matches_scalar_path_with_io_parity() {
        // Same I/O-parity discipline as catalog.rs: the fast path must
        // charge exactly the blocks of the scalar reference, and produce
        // the identical compressed stream.
        let symbols = psi_workloads::zipf(3000, 16, 1.2, 53);
        let idx = RangeEncodedIndex::build(&symbols, 16, cfg());
        let ranges = [(0u32, 0u32), (0, 9), (3, 12), (15, 15)];
        for (lo, hi) in ranges {
            let (fast, fast_io) = idx.query_measured(lo, hi);
            // Scalar reference: same reads, per-element re-encode.
            let ref_io = IoSession::new();
            let reference = query_per_word(&idx, lo, hi, &ref_io);
            assert_eq!(fast.stored(), reference.stored(), "[{lo},{hi}]");
            assert_eq!(fast_io, ref_io.stats(), "[{lo},{hi}] I/O parity");
        }
        crate::testutil::assert_lifts_match_per_code(&idx, &ranges, query_per_word);
    }

    #[test]
    fn space_is_n_times_sigma() {
        let symbols = psi_workloads::uniform(1 << 12, 32, 51);
        let idx = RangeEncodedIndex::build(&symbols, 32, cfg());
        assert_eq!(idx.space_bits(), 32 * (1 << 12));
    }
}
