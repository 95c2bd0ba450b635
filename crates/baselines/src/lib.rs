//! Baseline secondary indexes from the paper's related-work landscape.
//!
//! Pagh & Rao position their structure against the classical spectrum
//! (§1.2–1.3): "B-trees and uncompressed bitmap indexes at the extremes",
//! with compressed, binned, multi-resolution, range-encoded and
//! interval-encoded bitmap indexes in between. Every one of those
//! comparators is implemented here against the same simulated I/O model and
//! the shared [`psi_api::SecondaryIndex`] trait, so the experiment
//! harnesses can measure the entire spectrum:
//!
//! | Index | Space (bits) | Range query (I/Os) |
//! |---|---|---|
//! | [`PositionListIndex`] ("B-tree") | `O(n lg n)` | `O(log_b n + z/b)` |
//! | [`UncompressedBitmapIndex`] | `n·σ` | `O(ℓ·n/B)` |
//! | [`CompressedScanIndex`] | `O(nH₀ + σ lg n)` | `O(Σ_{c∈range} z_c lg(n/z_c)/B + ℓ)` |
//! | [`BinnedBitmapIndex`] | two resolutions | interior bins + `O(w)` edge chars |
//! | [`MultiResolutionIndex`] | `Θ(n lg²σ / lg w)` | `O(lg w)` × output |
//! | [`RangeEncodedIndex`] | `n·σ` | ≤ 2 bitmap scans (`2n/B`) |
//! | [`IntervalEncodedIndex`] | `n·(⌈σ/2⌉+1)` | ≤ 2 bitmap scans (`2n/B`) |
//!
//! (`ℓ` = range width, `z` = result size, `z_c` = count of character `c`.)

#![warn(missing_docs)]

mod binned;
mod catalog;
mod compressed_scan;
mod dense;
mod interval_encoded;
mod multires;
mod position_list;
mod range_encoded;
mod uncompressed;

pub use binned::BinnedBitmapIndex;
pub use catalog::{BitmapCatalog, CatalogEntry};
pub use compressed_scan::CompressedScanIndex;
pub use dense::DenseCatalog;
pub use interval_encoded::IntervalEncodedIndex;
pub use multires::MultiResolutionIndex;
pub use position_list::PositionListIndex;
pub use range_encoded::RangeEncodedIndex;
pub use uncompressed::UncompressedBitmapIndex;

use psi_api::Symbol;

/// Splits a string into per-character sorted position lists (positions are
/// naturally sorted because the string is scanned left to right).
pub(crate) fn per_char_positions(symbols: &[Symbol], sigma: Symbol) -> Vec<Vec<u64>> {
    let mut lists = vec![Vec::new(); sigma as usize];
    for (i, &c) in symbols.iter().enumerate() {
        assert!(c < sigma, "symbol {c} outside alphabet of size {sigma}");
        lists[c as usize].push(i as u64);
    }
    lists
}

#[cfg(test)]
pub(crate) mod testutil {
    use psi_api::{naive_query, RidSet, SecondaryIndex, Symbol};
    use psi_io::IoSession;

    /// Pins the lifted reads of `index` to its per-code reference on each
    /// range: `per_code` reads the same cover code by code (or word by
    /// word) from the RAM build. Its rows and [`psi_io::IoStats`] must
    /// equal those of `try_query` on the RAM build, and of `try_query` on
    /// the index saved and reopened file-backed, whose every read is a
    /// pooled lift.
    pub fn assert_lifts_match_per_code<I: SecondaryIndex + psi_store::PersistIndex>(
        index: &I,
        ranges: &[(Symbol, Symbol)],
        per_code: impl Fn(&I, Symbol, Symbol, &IoSession) -> RidSet,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "psi_baselines_lift_{}_{}",
            I::TAG,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("index.psi");
        psi_store::save(index, &path).expect("save");
        let opened = psi_store::open::<I>(&path, &psi_store::OpenOptions::default()).expect("open");
        for &(lo, hi) in ranges {
            let reference_io = IoSession::new();
            let reference = per_code(index, lo, hi, &reference_io);
            for (what, idx) in [("ram", index), ("store", &opened.index)] {
                let io = IoSession::new();
                let got = idx.try_query(lo, hi, &io).expect("healthy read");
                assert_eq!(got.to_vec(), reference.to_vec(), "{what} [{lo}, {hi}] rows");
                assert_eq!(
                    io.stats(),
                    reference_io.stats(),
                    "{what} [{lo}, {hi}] charge"
                );
            }
        }
        assert!(opened.real_fetches() > 0, "the opened reads hit the file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Cross-checks an index against the naive scan on a grid of ranges.
    pub fn check_against_naive<I: SecondaryIndex>(index: &I, symbols: &[u32]) {
        let sigma = index.sigma();
        assert_eq!(index.len(), symbols.len() as u64);
        let widths = [1u32, 2, 3, sigma / 2, sigma].map(|w| w.clamp(1, sigma));
        for w in widths {
            for lo in (0..=sigma - w).step_by((sigma as usize / 7).max(1)) {
                let hi = lo + w - 1;
                let io = IoSession::new();
                let got = index.query(lo, hi, &io);
                let want = naive_query(symbols, lo, hi);
                assert_eq!(
                    got.to_vec(),
                    want.to_vec(),
                    "query [{lo}, {hi}] mismatch on n={} sigma={sigma}",
                    symbols.len()
                );
                assert!(
                    io.stats().reads > 0 || symbols.is_empty(),
                    "query charged no I/O"
                );
            }
        }
    }
}
