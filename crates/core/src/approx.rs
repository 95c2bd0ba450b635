//! Approximate range queries (Theorem 3, §3).
//!
//! "Whenever the exact data structure … stores a set of positions S ⊆ [n],
//! the approximate data structure additionally stores a sequence of
//! `k = ⌊lg lg n⌋` hashed sets `h₁(S), …, h_k(S)` … the same k functions
//! are used in each node, and we group the sets according to what hash
//! function was used."
//!
//! A query first computes `z` from the weight-balanced tree (no I/O),
//! picks the smallest `j` with `2^{2ʲ} > z/ε`, and unions the *j-th hashed
//! sets* of the canonical nodes instead of the position sets — reading
//! `O(z lg(1/ε))` bits instead of `O(z lg(n/z))`. The result is returned
//! as the hashed set plus the hash function, whose preimage
//! `h_j⁻¹(h_j(I))` is enumerable lazily; false positives occur with
//! probability at most `z/2^{2ʲ} ≤ ε` by universality.

use psi_api::{check_range, RidSet, SecondaryIndex, Symbol};
use psi_bits::{merge, GapBitmap};
use psi_io::{Disk, IoConfig, IoSession, ReadError};

use crate::cutstream::{CutStream, Slack};
use crate::engine::Engine;
use crate::hashing::{HashFamily, SplitXorHash};
use crate::optimal::OptimalIndex;

/// Theorem 3's approximate secondary index: the exact structure of
/// [`OptimalIndex`] plus `k = ⌊lg lg n⌋` hashed-set families, one per
/// stored bitmap.
///
/// ```
/// use psi_core::ApproximateIndex;
/// use psi_io::{IoConfig, IoSession};
///
/// let symbols = psi_workloads::uniform(10_000, 64, 7);
/// let index = ApproximateIndex::build(&symbols, 64, IoConfig::default(), 42);
/// let io = IoSession::new();
/// let approx = index.query_approx(10, 12, 0.01, &io);
/// // Supersets of the exact result, each non-member kept with prob <= 1%.
/// for i in psi_api::naive_query(&symbols, 10, 12).iter() {
///     assert!(approx.contains(i));
/// }
/// ```
#[derive(Debug)]
pub struct ApproximateIndex {
    engine: Engine,
    family: HashFamily,
    /// `hashed[j-1][cut]` mirrors the engine's cut streams slot-for-slot,
    /// holding `h_j` images of each stored position set.
    hashed: Vec<Vec<CutStream>>,
}

impl ApproximateIndex {
    /// Builds over `symbols ∈ [0, sigma)ⁿ` with hash functions derived
    /// from `seed`.
    pub fn build(symbols: &[Symbol], sigma: Symbol, config: IoConfig, seed: u64) -> Self {
        let exact = OptimalIndex::build(symbols, sigma, config);
        let engine = exact.into_engine();
        let n = engine.n().max(2);
        let family = HashFamily::new(n, seed);
        let io = IoSession::untracked();
        // Group hashed sets by function (j-major), mirroring slot order.
        let mut slots = engine.live_slots();
        slots.sort_unstable();
        let num_cuts = engine.num_cuts();
        let mut hashed: Vec<Vec<CutStream>> = Vec::new();
        // Split borrows: the streams need &mut Disk while reading slot
        // positions needs &engine — decode all positions first.
        let slot_positions: Vec<((u32, u32), Vec<u64>)> = slots
            .iter()
            .map(|&(c, s)| ((c, s), engine.slot_positions(c, s, &io)))
            .collect();
        let mut engine = engine;
        for j in 1..=family.k() {
            let h = *family.level(j);
            let mut per_cut: Vec<CutStream> = (0..num_cuts)
                .map(|c| CutStream::new(engine.disk_mut(), 100 * j + c as u32, Slack::None))
                .collect();
            for ((cut, slot), positions) in &slot_positions {
                let mut image: Vec<u64> = positions.iter().map(|&p| h.hash(p)).collect();
                image.sort_unstable();
                image.dedup();
                let idx = per_cut[*cut as usize].push_bitmap(engine.disk_mut(), image, &io);
                debug_assert_eq!(idx as u32, *slot, "hashed slots must mirror engine slots");
            }
            hashed.push(per_cut);
        }
        ApproximateIndex {
            engine,
            family,
            hashed,
        }
    }

    /// The hash family in use.
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    /// Answers approximately with false-positive probability at most
    /// `epsilon`; falls back to the exact algorithm when even the
    /// coarsest-universe level cannot help (`j > k`) or when the result is
    /// more than half the string.
    ///
    /// # Panics
    /// Panics with the [`psi_io::ReadError`] message when a real read
    /// fails, as [`SecondaryIndex::query`] does.
    pub fn query_approx(
        &self,
        lo: Symbol,
        hi: Symbol,
        epsilon: f64,
        io: &IoSession,
    ) -> ApproxResult {
        self.try_query_approx(lo, hi, epsilon, io)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// [`Self::query_approx`], returning a failed read as its error. Each
    /// hashed stream of the cover is lifted whole, then decoded in memory.
    fn try_query_approx(
        &self,
        lo: Symbol,
        hi: Symbol,
        epsilon: f64,
        io: &IoSession,
    ) -> Result<ApproxResult, ReadError> {
        check_range(lo, hi, self.engine.sigma());
        let n = self.engine.n();
        if n == 0 {
            return Ok(ApproxResult::Exact(RidSet::from_positions(
                GapBitmap::empty(0),
            )));
        }
        let z = self.engine.query_cardinality(lo, hi);
        if z == 0 {
            return Ok(ApproxResult::Exact(RidSet::from_positions(
                GapBitmap::empty(n),
            )));
        }
        let level = if 2 * z > n {
            None
        } else {
            self.family.level_for(z, epsilon)
        };
        let Some(j) = level else {
            return Ok(ApproxResult::Exact(self.engine.try_query(lo, hi, io)?));
        };
        let (ilo, ihi) = self.engine.remap().map_range(lo, hi);
        let (qs, qe) = self.engine.index_range(ilo, ihi);
        let slots = self.engine.canonical_slots(qs, qe, io)?;
        let streams = &self.hashed[(j - 1) as usize];
        let decoded = slots
            .iter()
            .map(|&(cut, slot)| {
                let positions =
                    streams[cut as usize].lift_positions(self.engine.disk(), slot as usize, io)?;
                Ok(positions.into_iter())
            })
            .collect::<Result<Vec<_>, ReadError>>()?;
        // Hashed sets of disjoint position sets may collide: dedup.
        let set: Vec<u64> = merge::union_dedup(decoded).collect();
        let hash = *self.family.level(j);
        Ok(ApproxResult::Hashed(HashedResult { hash, set, n, z }))
    }

    /// Result cardinality `z` (exact, from prefix counts, no I/O).
    pub fn cardinality(&self, lo: Symbol, hi: Symbol) -> u64 {
        self.engine.query_cardinality(lo, hi)
    }
}

impl SecondaryIndex for ApproximateIndex {
    fn len(&self) -> u64 {
        self.engine.n()
    }

    fn sigma(&self) -> Symbol {
        self.engine.sigma()
    }

    fn space_bits(&self) -> u64 {
        self.engine.space_bits()
    }

    fn try_query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> Result<RidSet, ReadError> {
        self.engine.try_query(lo, hi, io)
    }
}

/// The outcome of an approximate query: either an exact compressed result
/// (fallback path) or a hashed set with its hash function.
#[derive(Debug, Clone)]
pub enum ApproxResult {
    /// The exact answer (used when approximation cannot save I/O).
    Exact(RidSet),
    /// The hashed answer `h_j(I)`; the logical result is the preimage
    /// `h_j⁻¹(h_j(I))`.
    Hashed(HashedResult),
}

/// A hashed approximate result.
#[derive(Debug, Clone)]
pub struct HashedResult {
    hash: SplitXorHash,
    /// Sorted distinct hashed values.
    set: Vec<u64>,
    n: u64,
    /// Exact result cardinality (from the tree weights).
    z: u64,
}

impl ApproxResult {
    /// Membership test — exact members always pass; non-members pass with
    /// probability at most ε.
    pub fn contains(&self, i: u64) -> bool {
        match self {
            ApproxResult::Exact(r) => r.contains(i),
            ApproxResult::Hashed(h) => h.set.binary_search(&h.hash.hash(i)).is_ok(),
        }
    }

    /// Whether the fallback exact path was taken.
    pub fn is_exact(&self) -> bool {
        matches!(self, ApproxResult::Exact(_))
    }

    /// The exact result cardinality `z` (known in both cases).
    pub fn exact_cardinality(&self) -> u64 {
        match self {
            ApproxResult::Exact(r) => r.cardinality(),
            ApproxResult::Hashed(h) => h.z,
        }
    }

    /// Size of the returned representation in bits — `O(z lg(1/ε))` for
    /// hashed results (§3, Carter et al. lower bound).
    pub fn size_bits(&self) -> u64 {
        match self {
            ApproxResult::Exact(r) => r.size_bits(),
            ApproxResult::Hashed(h) => {
                GapBitmap::from_sorted_iter(h.set.iter().copied(), h.hash.universe().max(1))
                    .size_bits()
            }
        }
    }

    /// Lazily enumerates the (superset) result positions in increasing
    /// order — the preimage `h⁻¹(h(I))`, generated without further I/O.
    pub fn iter(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        match self {
            ApproxResult::Exact(r) => Box::new(r.iter()),
            ApproxResult::Hashed(h) => {
                let hash = h.hash;
                let n = h.n;
                Box::new((0..hash.high_parts(n)).flat_map(move |i1| {
                    let mut block: Vec<u64> = h
                        .set
                        .iter()
                        .filter_map(|&s| {
                            let i2 = s ^ hash_g(&hash, i1);
                            let i = if hash.out_bits >= 64 {
                                i2
                            } else {
                                (i1 << hash.out_bits) | i2
                            };
                            (i < n).then_some(i)
                        })
                        .collect();
                    block.sort_unstable();
                    block.into_iter()
                }))
            }
        }
    }

    /// Intersects several approximate results (the paper's d-dimensional
    /// RID-intersection use: "Simply compute the preimage of the
    /// intersection"). Enumerates the candidate stream of the most
    /// selective result and filters through the rest.
    pub fn intersect_all(results: &[&ApproxResult]) -> Vec<u64> {
        assert!(!results.is_empty());
        // Prefer an exact result as the driver; otherwise the hashed
        // result with the largest universe (fewest preimage candidates).
        let driver = results
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| match r {
                ApproxResult::Exact(_) => (0u8, 0u64),
                ApproxResult::Hashed(h) => (1, u64::MAX - h.hash.universe()),
            })
            .map(|(i, _)| i)
            .expect("non-empty");
        results[driver]
            .iter()
            .filter(|&i| {
                results
                    .iter()
                    .enumerate()
                    .all(|(k, r)| k == driver || r.contains(i))
            })
            .collect()
    }
}

fn hash_g(h: &SplitXorHash, i1: u64) -> u64 {
    // g_j(i1) is private to SplitXorHash; recover it through the public
    // hash of the block base: h(i1 << out_bits) = g(i1) ^ 0.
    if h.out_bits >= 64 {
        h.hash(0) // single block: g(0)
    } else {
        h.hash(i1 << h.out_bits)
    }
}

impl psi_api::HasDisk for ApproximateIndex {
    fn disk(&self) -> &Disk {
        self.engine.disk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_api::naive_query;

    fn build(n: usize, sigma: u32, seed: u64) -> (Vec<u32>, ApproximateIndex) {
        let symbols = psi_workloads::uniform(n, sigma, seed);
        let idx = ApproximateIndex::build(&symbols, sigma, IoConfig::default(), seed ^ 0xA55A);
        (symbols, idx)
    }

    /// The hashed read of `[lo, hi]` at level `j` with each slot decoded
    /// code by code: the reference the lifted streams must match.
    fn hashed_per_code(
        idx: &ApproximateIndex,
        lo: Symbol,
        hi: Symbol,
        j: u32,
        io: &IoSession,
    ) -> Vec<u64> {
        let (ilo, ihi) = idx.engine.remap().map_range(lo, hi);
        let (qs, qe) = idx.engine.index_range(ilo, ihi);
        let streams = &idx.hashed[(j - 1) as usize];
        let decoders = idx
            .engine
            .canonical_slots(qs, qe, io)
            .unwrap()
            .iter()
            .map(|&(cut, slot)| streams[cut as usize].decoder(idx.engine.disk(), slot as usize, io))
            .collect();
        merge::union_dedup(decoders).collect()
    }

    #[test]
    fn hashed_streams_lift_like_per_code_reads() {
        let (_, idx) = build(70_000, 256, 5);
        let mut hashed = 0;
        for (lo, hi) in [(17, 17), (3, 4), (10, 13), (40, 47), (100, 131)] {
            for epsilon in [0.2, 0.05, 0.01] {
                let z = idx.cardinality(lo, hi);
                let Some(j) = idx.family.level_for(z, epsilon) else {
                    continue;
                };
                let (lifted, per_code) = (IoSession::new(), IoSession::new());
                let ApproxResult::Hashed(got) = idx.query_approx(lo, hi, epsilon, &lifted) else {
                    panic!("[{lo}, {hi}] at {epsilon} took the exact path");
                };
                let want = hashed_per_code(&idx, lo, hi, j, &per_code);
                assert_eq!(got.set, want, "[{lo}, {hi}] at {epsilon}");
                assert_eq!(
                    lifted.stats(),
                    per_code.stats(),
                    "[{lo}, {hi}] at {epsilon}"
                );
                hashed += 1;
            }
        }
        assert!(hashed >= 5, "only {hashed} hashed reads");
    }

    #[test]
    fn approximate_results_are_supersets() {
        let (symbols, idx) = build(20_000, 128, 3);
        for (lo, hi, eps) in [(5u32, 5u32, 0.01), (10, 20, 0.05), (0, 3, 0.001)] {
            let io = IoSession::new();
            let approx = idx.query_approx(lo, hi, eps, &io);
            let exact = naive_query(&symbols, lo, hi);
            for i in exact.iter() {
                assert!(
                    approx.contains(i),
                    "exact member {i} missing, range [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn false_positive_rate_is_bounded() {
        // n >= 2^16 so the family's top level has hashed universe 2^16.
        let (symbols, idx) = build(70_000, 256, 5);
        let io = IoSession::untracked();
        let eps = 0.05;
        let approx = idx.query_approx(17, 17, eps, &io);
        assert!(
            !approx.is_exact(),
            "narrow query should take the hashed path"
        );
        let exact: std::collections::HashSet<u64> = naive_query(&symbols, 17, 17).iter().collect();
        let mut fp = 0u64;
        let mut non_members = 0u64;
        for i in 0..symbols.len() as u64 {
            if !exact.contains(&i) {
                non_members += 1;
                if approx.contains(i) {
                    fp += 1;
                }
            }
        }
        let rate = fp as f64 / non_members as f64;
        assert!(rate <= 3.0 * eps, "false positive rate {rate} >> eps {eps}");
    }

    #[test]
    fn preimage_iteration_matches_contains() {
        let (_symbols, idx) = build(5_000, 64, 7);
        let io = IoSession::untracked();
        let approx = idx.query_approx(3, 4, 0.02, &io);
        let via_iter: Vec<u64> = approx.iter().collect();
        assert!(
            via_iter.windows(2).all(|w| w[0] < w[1]),
            "iter must be sorted"
        );
        for &i in via_iter.iter().take(500) {
            assert!(approx.contains(i));
        }
        let member_count = (0..5_000u64).filter(|&i| approx.contains(i)).count();
        assert_eq!(member_count, via_iter.len());
    }

    #[test]
    fn hashed_result_is_smaller_than_exact() {
        // Regime where Theorem 3 predicts a clear win: lg(n/z) ~ 6 bits
        // per position exactly, while z/eps lands just inside the level-4
        // universe (2^16), so hashed gaps are ~4x denser.
        let (_symbols, idx) = build(300_000, 64, 7);
        let io1 = IoSession::new();
        let approx = idx.query_approx(10, 10, 0.1, &io1);
        let io2 = IoSession::new();
        let exact = idx.query(10, 10, &io2);
        assert!(!approx.is_exact());
        assert!(
            approx.size_bits() < exact.size_bits(),
            "hashed {} bits vs exact {} bits",
            approx.size_bits(),
            exact.size_bits()
        );
        assert!(
            io1.stats().bits_read < io2.stats().bits_read,
            "approx read {} bits vs exact {}",
            io1.stats().bits_read,
            io2.stats().bits_read
        );
    }

    #[test]
    fn tiny_epsilon_falls_back_to_exact() {
        let (symbols, idx) = build(2_000, 16, 11);
        let io = IoSession::new();
        // z/eps far beyond 2^{2^k}: must fall back.
        let approx = idx.query_approx(0, 7, 1e-9, &io);
        assert!(approx.is_exact());
        let exact = naive_query(&symbols, 0, 7);
        let got: Vec<u64> = approx.iter().collect();
        assert_eq!(got, exact.to_vec());
    }

    #[test]
    fn intersection_filters_dimensions() {
        // Two independent attributes; intersect approximate results.
        let a = psi_workloads::uniform(10_000, 32, 13);
        let b = psi_workloads::uniform(10_000, 32, 17);
        let ia = ApproximateIndex::build(&a, 32, IoConfig::default(), 1);
        let ib = ApproximateIndex::build(&b, 32, IoConfig::default(), 2);
        let io = IoSession::untracked();
        let ra = ia.query_approx(4, 6, 0.01, &io);
        let rb = ib.query_approx(20, 22, 0.01, &io);
        let got = ApproxResult::intersect_all(&[&ra, &rb]);
        let want: Vec<u64> = (0..10_000u64)
            .filter(|&i| (4..=6).contains(&a[i as usize]) && (20..=22).contains(&b[i as usize]))
            .collect();
        // Every true match survives; false matches are doubly filtered
        // (≈ ε² of non-members).
        for w in &want {
            assert!(got.contains(w));
        }
        let extras = got.len() - want.len();
        assert!(
            (extras as f64) < 0.01 * 10_000.0,
            "{extras} false intersection survivors"
        );
    }

    #[test]
    fn empty_and_full_ranges() {
        let symbols = vec![1u32; 1000];
        let idx = ApproximateIndex::build(&symbols, 4, IoConfig::default(), 3);
        let io = IoSession::untracked();
        let empty = idx.query_approx(2, 3, 0.1, &io);
        assert!(empty.is_exact());
        assert_eq!(empty.iter().count(), 0);
        let full = idx.query_approx(0, 3, 0.1, &io);
        assert_eq!(full.exact_cardinality(), 1000);
    }
}
