//! The compressed bitmap scan: §1.2's "obvious solution" with compression.
//!
//! One gamma-gap compressed bitmap per character; a width-`ℓ` range query
//! decodes and merges all `ℓ` bitmaps. Space is `O(nH₀ + σ lg n)` — within
//! a constant of optimal — but §1.2 shows the *query* reads a factor
//! `Ω(lg σ / lg(σ/ℓ))` more bits than the optimal output size (up to
//! `Ω(lg σ)` when `ℓ = Ω(σ)`): each of the `ℓ` per-character bitmaps pays
//! `lg(n/z_c)` bits per position instead of `lg(n/z)`. Experiment E3
//! measures exactly this gap against the paper's structure.

use psi_api::{check_range, HasDisk, RidSet, SecondaryIndex, Symbol};
use psi_bits::GapBitmap;
use psi_io::{Disk, IoConfig, IoSession, ReadError};

use crate::catalog::{self, BitmapCatalog};

/// A dictionary of per-character compressed bitmaps, scanned per query.
#[derive(Debug)]
pub struct CompressedScanIndex {
    disk: Disk,
    cat: BitmapCatalog,
    n: u64,
    sigma: Symbol,
}

impl CompressedScanIndex {
    /// Builds the index over `symbols ∈ [0, sigma)ⁿ`.
    pub fn build(symbols: &[Symbol], sigma: Symbol, config: IoConfig) -> Self {
        assert!(sigma > 0);
        let n = symbols.len() as u64;
        let mut disk = Disk::new(config);
        let lists = crate::per_char_positions(symbols, sigma);
        let cat = BitmapCatalog::build(&mut disk, n.max(1), lists);
        CompressedScanIndex {
            disk,
            cat,
            n,
            sigma,
        }
    }

    /// Total compressed payload in bits (without the directory), used by
    /// the space experiments.
    pub fn payload_bits(&self) -> u64 {
        self.cat.payload_bits(&self.disk)
    }

    /// The non-empty per-character bitmaps a range query merges.
    fn cover(&self, lo: Symbol, hi: Symbol) -> Vec<(&BitmapCatalog, usize)> {
        (lo..=hi)
            .map(|c| (&self.cat, c as usize))
            .filter(|&(cat, c)| cat.entry(c).count > 0)
            .collect()
    }
}

impl HasDisk for CompressedScanIndex {
    fn disk(&self) -> &Disk {
        &self.disk
    }
}

impl SecondaryIndex for CompressedScanIndex {
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
        // Point queries return the stored per-character bitmap as a
        // verbatim word copy.
        if lo == hi {
            return Ok(RidSet::from_positions(self.cat.copy_bitmap(
                &self.disk,
                lo as usize,
                io,
            )?));
        }
        // Density-planned merge: counts and span come from the in-memory
        // catalog directory, before any lift.
        let parts = self.cover(lo, hi);
        Ok(RidSet::from_positions(catalog::merge_cover(
            &self.disk, &parts, self.n, io,
        )?))
    }

    fn cardinality_hint(&self, lo: Symbol, hi: Symbol) -> Option<u64> {
        // Exact, from the in-memory catalog directory (no decode).
        Some(
            (lo..=hi)
                .map(|c| self.cat.entry(c as usize).count)
                .sum::<u64>(),
        )
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl psi_store::PersistIndex for CompressedScanIndex {
    const TAG: &'static str = "compressed_scan";

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
        let disk = psi_store::single_volume(disks, "compressed scan")?;
        Ok(CompressedScanIndex {
            cat: BitmapCatalog::restore_meta(meta, &disk)?,
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
    fn multi_char_covers_lift_like_per_code_reads() {
        let symbols = psi_workloads::zipf(4000, 16, 1.0, 23);
        let idx = CompressedScanIndex::build(&symbols, 16, cfg());
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
    fn matches_naive_uniform() {
        let symbols = psi_workloads::uniform(2000, 16, 11);
        let idx = CompressedScanIndex::build(&symbols, 16, cfg());
        check_against_naive(&idx, &symbols);
    }

    #[test]
    fn matches_naive_clustered() {
        let symbols = psi_workloads::runs(2000, 8, 20.0, 13);
        let idx = CompressedScanIndex::build(&symbols, 8, cfg());
        check_against_naive(&idx, &symbols);
    }

    #[test]
    fn space_tracks_entropy_not_n_sigma() {
        let n = 1 << 16;
        let sigma = 256;
        let symbols = psi_workloads::uniform(n, sigma, 3);
        let idx = CompressedScanIndex::build(&symbols, sigma, IoConfig::default());
        let nh0 = psi_bits::entropy::nh0_bits(&symbols, sigma);
        let space = idx.payload_bits() as f64;
        // Gamma-gap coding is within a small constant of nH₀ here, and far
        // below the uncompressed n·σ bits.
        assert!(
            space < 3.0 * nh0,
            "space {space} should be O(nH0) = O({nh0})"
        );
        assert!(space < (n as u64 * u64::from(sigma)) as f64 / 10.0);
    }

    #[test]
    fn wide_queries_read_more_than_output() {
        // §1.2's gap: uniform distribution, query of width ℓ = σ reads
        // Θ(n lg σ) bits though the output is O(n) bits (every gap = 1).
        let n = 1 << 16;
        let sigma = 256;
        let symbols = psi_workloads::uniform(n, sigma, 19);
        let idx = CompressedScanIndex::build(&symbols, sigma, IoConfig::default());
        let io = IoSession::new();
        let result = idx.query(0, sigma - 1, &io);
        let bits_read = io.stats().bits_read;
        let output_bits = result.size_bits();
        assert_eq!(result.cardinality(), n as u64);
        assert!(
            bits_read > 4 * output_bits,
            "full-range scan should read far more ({bits_read}) than the output ({output_bits})"
        );
    }

    #[test]
    fn empty_string() {
        let idx = CompressedScanIndex::build(&[], 4, cfg());
        let io = IoSession::new();
        assert!(idx.query(0, 3, &io).is_empty());
    }
}
