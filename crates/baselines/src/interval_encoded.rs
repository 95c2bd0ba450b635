//! Interval-encoded bitmap index (§1.2, citing Chan & Ioannidis [9, 10]).
//!
//! Stores `σ − m + 1` bitmaps `I_k` for the sliding intervals
//! `[k, k + m − 1]` with `m = ⌈σ/2⌉`. Any range query is answered with at
//! most **two** bitmap operations:
//!
//! * width `≥ m`: `I_lo ∪ I_{hi−m+1}` (the two intervals overlap and span
//!   exactly `[lo, hi]`);
//! * width `< m`, generic case: `I_lo ∩ I_{hi−m+1}`;
//! * width `< m`, near the bottom (`hi < m − 1`): `I_lo AND NOT I_{hi+1}`;
//! * width `< m`, near the top (`lo > σ − m`): `I_{hi−m+1} AND NOT I_{lo−m}`.
//!
//! Like range encoding, the bitmaps are dense (each position is set in
//! about half of them), so the index needs `≈ n·σ/2` bits — the other
//! member of the paper's `nσ^{1−o(1)}` class.

use psi_api::{check_range, HasDisk, RidSet, SecondaryIndex, Symbol};
use psi_bits::GapBitmap;
use psi_io::{Disk, IoConfig, IoSession, ReadError};

use crate::dense::DenseCatalog;

/// An interval-encoded bitmap index.
#[derive(Debug)]
pub struct IntervalEncodedIndex {
    disk: Disk,
    cat: DenseCatalog,
    n: u64,
    sigma: Symbol,
    /// Interval width `m = ⌈σ/2⌉`.
    m: Symbol,
}

impl IntervalEncodedIndex {
    /// Builds the index over `symbols ∈ [0, sigma)ⁿ`.
    pub fn build(symbols: &[Symbol], sigma: Symbol, config: IoConfig) -> Self {
        assert!(sigma > 0);
        let n = symbols.len() as u64;
        let mut disk = Disk::new(config);
        let m = sigma.div_ceil(2);
        let slots = (sigma - m + 1) as usize;
        let lists = crate::per_char_positions(symbols, sigma);
        // Slide the window: slot k = chars [k, k+m−1]. Adding char k+m−1
        // and removing char k−1 from the persistent accumulator keeps the
        // build at O(slots·n/64 + n) instead of O(slots·n).
        let cat = DenseCatalog::build_with(&mut disk, n.max(1), slots, |k, words| {
            if k == 0 {
                for l in lists.iter().take(m as usize) {
                    for &p in l {
                        words[(p / 64) as usize] |= 1u64 << (p % 64);
                    }
                }
            } else {
                for &p in &lists[k - 1] {
                    words[(p / 64) as usize] &= !(1u64 << (p % 64));
                }
                for &p in &lists[k + m as usize - 1] {
                    words[(p / 64) as usize] |= 1u64 << (p % 64);
                }
            }
        });
        IntervalEncodedIndex {
            disk,
            cat,
            n,
            sigma,
            m,
        }
    }
}

impl HasDisk for IntervalEncodedIndex {
    fn disk(&self) -> &Disk {
        &self.disk
    }
}

impl SecondaryIndex for IntervalEncodedIndex {
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
        let m = self.m;
        let width = hi - lo + 1;
        let mut acc = self.cat.new_acc();
        if width >= m {
            // Union of the two extreme intervals covers [lo, hi] exactly.
            self.cat.or_into(&self.disk, lo as usize, &mut acc, io)?;
            let k = (hi + 1 - m) as usize;
            if k != lo as usize {
                self.cat.or_into(&self.disk, k, &mut acc, io)?;
            }
        } else if hi < m - 1 {
            // Near the bottom: I_lo minus everything above hi.
            self.cat.or_into(&self.disk, lo as usize, &mut acc, io)?;
            self.cat
                .and_not_into(&self.disk, (hi + 1) as usize, &mut acc, io)?;
        } else if lo > self.sigma - m {
            // Near the top: I_{hi−m+1} minus everything below lo.
            self.cat
                .or_into(&self.disk, (hi + 1 - m) as usize, &mut acc, io)?;
            self.cat
                .and_not_into(&self.disk, (lo - m) as usize, &mut acc, io)?;
        } else {
            // Generic: intersection of the two extreme intervals.
            self.cat.or_into(&self.disk, lo as usize, &mut acc, io)?;
            self.cat
                .and_into(&self.disk, (hi + 1 - m) as usize, &mut acc, io)?;
        }
        // Word-scan re-encode of the accumulator (see `range_encoded.rs`):
        // CPU-only, the dense-slot reads above are the whole I/O story.
        Ok(RidSet::from_positions(GapBitmap::from_words(&acc, self.n)))
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl psi_store::PersistIndex for IntervalEncodedIndex {
    const TAG: &'static str = "interval_encoded";

    fn write_meta(&self, out: &mut psi_store::MetaBuf) {
        self.cat.persist_meta(out);
        out.put_u64(self.n);
        out.put_u32(self.sigma);
        out.put_u32(self.m);
    }

    fn disks(&self) -> Vec<&Disk> {
        vec![HasDisk::disk(self)]
    }

    fn from_parts(
        meta: &mut psi_store::MetaCursor,
        disks: Vec<Disk>,
    ) -> Result<Self, psi_store::StoreError> {
        let disk = psi_store::single_volume(disks, "interval encoded")?;
        Ok(IntervalEncodedIndex {
            cat: crate::dense::DenseCatalog::restore_meta(meta, &disk)?,
            n: meta.get_u64()?,
            sigma: meta.get_u32()?,
            m: meta.get_u32()?,
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
    fn matches_naive_even_alphabet() {
        let symbols = psi_workloads::uniform(1500, 16, 61);
        let idx = IntervalEncodedIndex::build(&symbols, 16, cfg());
        check_against_naive(&idx, &symbols);
    }

    #[test]
    fn matches_naive_odd_alphabet() {
        let symbols = psi_workloads::uniform(1500, 17, 67);
        let idx = IntervalEncodedIndex::build(&symbols, 17, cfg());
        check_against_naive(&idx, &symbols);
    }

    #[test]
    fn matches_naive_tiny_alphabets() {
        for sigma in 1..=6u32 {
            let symbols = psi_workloads::uniform(400, sigma, 71);
            let idx = IntervalEncodedIndex::build(&symbols, sigma, cfg());
            check_against_naive(&idx, &symbols);
        }
    }

    #[test]
    fn exhaustive_ranges_small_alphabet() {
        let sigma = 11u32;
        let symbols = psi_workloads::uniform(700, sigma, 73);
        let idx = IntervalEncodedIndex::build(&symbols, sigma, cfg());
        for lo in 0..sigma {
            for hi in lo..sigma {
                let io = IoSession::new();
                let got = idx.query(lo, hi, &io);
                let want = psi_api::naive_query(&symbols, lo, hi);
                assert_eq!(got.to_vec(), want.to_vec(), "range [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn query_reads_at_most_two_bitmaps() {
        let n = 1 << 15;
        let symbols = psi_workloads::uniform(n, 64, 79);
        let idx = IntervalEncodedIndex::build(&symbols, 64, IoConfig::default());
        let bitmap_blocks = (n as u64).div_ceil(8192);
        for (lo, hi) in [(0u32, 63u32), (0, 0), (5, 60), (63, 63), (30, 40)] {
            let (_, stats) = idx.query_measured(lo, hi);
            assert!(
                stats.reads <= 2 * bitmap_blocks + 2,
                "[{lo}, {hi}] read {} blocks, expected <= {}",
                stats.reads,
                2 * bitmap_blocks
            );
        }
    }

    #[test]
    fn word_scan_encode_matches_scalar_path_with_io_parity() {
        // Same discipline as catalog.rs / range_encoded.rs: exercise all
        // four interval-algebra branches; the word-scan encode must
        // return the identical stream for identical block charges.
        let symbols = psi_workloads::uniform(2500, 12, 59);
        let idx = IntervalEncodedIndex::build(&symbols, 12, cfg());
        let branches = [
            (0u32, 11u32), // width ≥ m: union
            (1, 3),        // near the bottom: AND NOT above
            (8, 10),       // near the top: AND NOT below
            (4, 8),        // generic: intersection
        ];
        for (lo, hi) in branches {
            let (fast, fast_io) = idx.query_measured(lo, hi);
            let ref_io = IoSession::new();
            let reference = query_per_word(&idx, lo, hi, &ref_io);
            assert_eq!(fast.stored(), reference.stored(), "[{lo},{hi}]");
            assert_eq!(fast_io, ref_io.stats(), "[{lo},{hi}] I/O parity");
        }
        crate::testutil::assert_lifts_match_per_code(&idx, &branches, query_per_word);
    }

    /// The query with each slot read word by word from the disk, encoded
    /// element by element: the reference of the lifted read and of the
    /// word-scan encode.
    fn query_per_word(
        idx: &IntervalEncodedIndex,
        lo: Symbol,
        hi: Symbol,
        io: &IoSession,
    ) -> RidSet {
        let m = idx.m;
        let or = |a: &mut u64, w: u64| *a |= w;
        let and_not = |a: &mut u64, w: u64| *a &= !w;
        let mut acc = idx.cat.new_acc();
        let mut apply = |slot: u32, op: &dyn Fn(&mut u64, u64)| {
            idx.cat
                .combine_per_word(&idx.disk, slot as usize, &mut acc, io, op)
        };
        if hi - lo + 1 >= m {
            apply(lo, &or);
            if hi + 1 - m != lo {
                apply(hi + 1 - m, &or);
            }
        } else if hi < m - 1 {
            apply(lo, &or);
            apply(hi + 1, &and_not);
        } else if lo > idx.sigma - m {
            apply(hi + 1 - m, &or);
            apply(lo - m, &and_not);
        } else {
            apply(lo, &or);
            apply(hi + 1 - m, &|a: &mut u64, w: u64| *a &= w);
        }
        RidSet::from_positions(GapBitmap::from_sorted(&idx.cat.acc_positions(&acc), idx.n))
    }

    #[test]
    fn space_is_about_half_n_sigma() {
        let n = 1u64 << 12;
        let sigma = 32u32;
        let symbols = psi_workloads::uniform(n as usize, sigma, 83);
        let idx = IntervalEncodedIndex::build(&symbols, sigma, cfg());
        // σ − ⌈σ/2⌉ + 1 = 17 bitmaps of n bits.
        assert_eq!(idx.space_bits(), 17 * n);
    }
}
