//! Compressed query results (RID sets).
//!
//! Set operations gallop: every [`GapBitmap`] carries (or lazily builds)
//! a skip directory sampled every [`SKIP_SAMPLE`] elements, so
//! membership, rank and select probe the directory and decode at most
//! `K − 1` codes, and intersection leapfrogs both streams through
//! [`psi_bits::GapCursor::next_geq`] instead of scanning `0..universe`.
//! Where galloping cannot skip — a dense operand with no directory yet,
//! or one the other side would probe at least once per sample —
//! intersection decodes the dense operand once into a word bitset
//! instead ([`RidSet::prefers_words`]). A dense operand stored as plain
//! words (dense slots are, see [`GapBitmap::from_plain_words`]) has no
//! directory, so it takes the word bitset, and its words are a copy, not
//! a decode.

use psi_bits::{kernel, merge, GapBitmap, SKIP_SAMPLE};

/// A compressed set of row ids (positions) returned by a range query.
///
/// The paper requires queries to "output the set in compressed format,
/// using `O(lg C(n, z))` bits" (§1.1). A `RidSet` stores the gap-compressed
/// positions — or, implementing §2.1's large-result trick, the
/// gap-compressed *complement* when the answer has more than `n/2`
/// elements (the complement is then the smaller set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RidSet {
    stored: GapBitmap,
    complemented: bool,
}

impl RidSet {
    /// Wraps a compressed position set as-is.
    pub fn from_positions(stored: GapBitmap) -> Self {
        RidSet {
            stored,
            complemented: false,
        }
    }

    /// Wraps a compressed set whose *complement* (within the stored
    /// universe) is the logical result.
    pub fn from_complement(stored: GapBitmap) -> Self {
        RidSet {
            stored,
            complemented: true,
        }
    }

    /// The universe size `n`.
    pub fn universe(&self) -> u64 {
        self.stored.universe()
    }

    /// Number of positions in the logical result (`z` in the paper).
    pub fn cardinality(&self) -> u64 {
        if self.complemented {
            self.stored.universe() - self.stored.count()
        } else {
            self.stored.count()
        }
    }

    /// Whether the logical result is empty.
    pub fn is_empty(&self) -> bool {
        self.cardinality() == 0
    }

    /// Whether the stored representation is the complement of the result.
    pub fn is_complemented(&self) -> bool {
        self.complemented
    }

    /// Size of the compressed representation in bits.
    pub fn size_bits(&self) -> u64 {
        self.stored.size_bits()
    }

    /// The stored compressed bitmap (positions or complement).
    pub fn stored(&self) -> &GapBitmap {
        &self.stored
    }

    /// Membership test: one skip-directory probe plus at most `K − 1`
    /// decoded codes (`O(lg(z/K) + K)`), complement-aware.
    pub fn contains(&self, pos: u64) -> bool {
        self.stored.contains(pos) != self.complemented
    }

    /// Number of logical positions strictly below `pos`.
    ///
    /// # Panics
    /// Panics if `pos` exceeds the universe.
    pub fn rank(&self, pos: u64) -> u64 {
        assert!(pos <= self.universe(), "rank past universe");
        if self.complemented {
            pos - self.stored.rank(pos)
        } else {
            self.stored.rank(pos)
        }
    }

    /// The `k`-th logical position (0-indexed), or `None` when
    /// `k ≥ cardinality`. Plain sets answer from the skip directory;
    /// complemented sets binary-search the monotone complement rank.
    pub fn select(&self, k: u64) -> Option<u64> {
        if !self.complemented {
            return self.stored.select(k);
        }
        if k >= self.cardinality() {
            return None;
        }
        // Smallest p with |complement ∩ [0, p]| = k + 1.
        let (mut lo, mut hi) = (0u64, self.universe() - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if (mid + 1) - self.stored.rank(mid + 1) > k {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        debug_assert!(!self.stored.contains(lo));
        Some(lo)
    }

    /// Iterates the logical positions in increasing order. Plain sets
    /// stream the decoder; complemented sets walk the stored stream and
    /// emit the gaps between its elements (no `0..universe` filter scan).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mut stored_iter = self.stored.iter();
        let mut next_stored = stored_iter.next();
        let universe = self.universe();
        let mut cursor = 0u64;
        let complemented = self.complemented;
        std::iter::from_fn(move || {
            if !complemented {
                let p = next_stored;
                next_stored = stored_iter.next();
                return p;
            }
            loop {
                if cursor >= universe {
                    return None;
                }
                if next_stored == Some(cursor) {
                    cursor += 1;
                    next_stored = stored_iter.next();
                } else {
                    cursor += 1;
                    return Some(cursor - 1);
                }
            }
        })
    }

    /// Materializes the logical positions.
    pub fn to_vec(&self) -> Vec<u64> {
        if self.complemented {
            self.iter().collect()
        } else {
            self.stored.to_vec()
        }
    }

    /// The complement of this result within its universe, in O(1): the
    /// stored bitmap is reused unchanged and only the representation flag
    /// flips. This is how negated predicates are answered without
    /// touching a single payload bit beyond the positive query's.
    pub fn negate(self) -> RidSet {
        RidSet {
            stored: self.stored,
            complemented: !self.complemented,
        }
    }

    /// Whether `probes` membership tests against this set — or filtering a
    /// `probes`-element set through it — should read its word bitset
    /// ([`Self::to_words`]) rather than its skip directory. Decided from
    /// counts, the universe and directory state alone: the set must be
    /// dense (`cardinality · BITSET_MAX_AVG_GAP ≥ universe`, at least one
    /// element per word on average, so the words are no larger than the
    /// decoded elements) and galloping must be unable to skip — either
    /// the stored stream has no materialized directory (the first probe
    /// would build one with the scalar decoder, slower than the SWAR
    /// decode into words; a set stored as plain words never has one, and
    /// its word bitset is a copy), or the probes would land at least once
    /// per [`SKIP_SAMPLE`]-element block anyway. Zero probes never pay for
    /// the words.
    pub fn prefers_words(&self, probes: u64) -> bool {
        let z = self.cardinality();
        probes > 0
            && z.saturating_mul(merge::BITSET_MAX_AVG_GAP) >= self.universe()
            && (!self.stored.has_skip_dir() || probes.saturating_mul(u64::from(SKIP_SAMPLE)) >= z)
    }

    /// The logical set as an LSB-first word bitset over the universe
    /// (bit `p % 64` of word `p / 64`, the layout [`GapBitmap::from_words`]
    /// reads): the stored words copied, or the stored stream decoded once
    /// by the SWAR kernel ([`GapBitmap::or_into_words`]), inverted when
    /// complemented with the bits past the universe cleared. Builds no
    /// skip directory.
    pub fn to_words(&self) -> Vec<u64> {
        let n = self.universe();
        let mut words = vec![0u64; n.div_ceil(64) as usize];
        self.stored.or_into_words(&mut words);
        if self.complemented {
            for w in &mut words {
                *w = !*w;
            }
            if let Some(last) = words.last_mut().filter(|_| !n.is_multiple_of(64)) {
                *last &= (1 << (n % 64)) - 1;
            }
        }
        words
    }

    /// Normalizes to a non-complemented compressed set (materializing the
    /// complement if needed).
    pub fn into_positions(self) -> GapBitmap {
        if self.complemented {
            self.stored.complement()
        } else {
            self.stored
        }
    }

    /// Intersects two results (RID intersection, the paper's §1 motivating
    /// use). Both must share a universe.
    ///
    /// Complement-aware, never the reference implementation's
    /// `O(universe)` scan (kept as [`Self::intersect_reference`]). The arm
    /// depends only on counts, the universe and directory state:
    ///
    /// * when the larger operand [prefers words](Self::prefers_words) for
    ///   the smaller one's cardinality, it becomes a word bitset once
    ///   (`kernel/intersect_words`): a gamma-coded plain smaller operand's
    ///   SWAR-decoded positions are filtered through it, while a
    ///   complemented or words-form one's words are ANDed in and the
    ///   result kept as words where they pay, else re-encoded;
    /// * otherwise plain ∧ plain leapfrogs both skip directories and
    ///   mixed representations leapfrog a difference;
    /// * complement ∧ complement always merges the two (small) stored
    ///   streams and stays complemented.
    pub fn intersect(&self, other: &RidSet) -> RidSet {
        assert_eq!(self.universe(), other.universe(), "universe mismatch");
        let n = self.universe();
        let (small, big) = if self.cardinality() <= other.cardinality() {
            (self, other)
        } else {
            (other, self)
        };
        if !(small.complemented && big.complemented) && big.prefers_words(small.cardinality()) {
            return RidSet::from_positions(words_and(small, big));
        }
        match (self.complemented, other.complemented) {
            (false, false) => RidSet::from_positions(leapfrog_and(&self.stored, &other.stored, n)),
            (false, true) => RidSet::from_positions(leapfrog_diff(&self.stored, &other.stored, n)),
            (true, false) => RidSet::from_positions(leapfrog_diff(&other.stored, &self.stored, n)),
            (true, true) => {
                // ¬A ∩ ¬B = ¬(A ∪ B): union the two stored streams (they
                // may overlap) and keep the complement representation.
                let total = self.stored.count() + other.stored.count();
                let union = GapBitmap::from_sorted_iter_sized(
                    merge::union_dedup(vec![self.stored.iter(), other.stored.iter()]),
                    n,
                    total,
                );
                RidSet::from_complement(union)
            }
        }
    }

    /// The pre-directory reference intersection: co-scan both logical
    /// streams via [`Self::iter`]. `O(universe)` for complemented inputs —
    /// kept as the oracle for the galloping paths (differential tests and
    /// the before/after benchmark).
    pub fn intersect_reference(&self, other: &RidSet) -> RidSet {
        assert_eq!(self.universe(), other.universe(), "universe mismatch");
        let mut b = other.iter().peekable();
        let positions = self.iter().filter(move |&p| {
            while let Some(&q) = b.peek() {
                if q < p {
                    b.next();
                } else {
                    return q == p;
                }
            }
            false
        });
        RidSet::from_positions(GapBitmap::from_sorted_iter(positions, self.universe()))
    }
}

/// Word-bitset intersection: `big` turned once into its logical words
/// ([`RidSet::to_words`]), then a gamma-coded plain `small` operand's
/// SWAR-decoded positions filtered through them; a complemented `small`
/// operand's words, or a words-form one's span, are ANDed in instead, and
/// the result kept as plain words where they pay
/// ([`GapBitmap::from_words_auto`]). Neither operand's skip directory is
/// built.
fn words_and(small: &RidSet, big: &RidSet) -> GapBitmap {
    kernel::metrics().intersect_words.inc();
    let n = big.universe();
    let mut words = big.to_words();
    if small.complemented {
        for (w, s) in words.iter_mut().zip(small.to_words()) {
            *w &= s;
        }
        return GapBitmap::from_words_auto(words, 0, n);
    }
    if let Some((base, span)) = small.stored.plain_words() {
        let at = (base / 64) as usize;
        let and = span.iter().zip(&words[at..]).map(|(s, w)| s & w).collect();
        return GapBitmap::from_words_auto(and, base, n);
    }
    let mut rows = small.stored.to_vec();
    // Branch-free compaction: a kept row advances the write cursor, a
    // dropped one is overwritten by the next (half the rows of a random
    // dense filter miss, which a `retain` branch would mispredict).
    let mut kept = 0;
    for i in 0..rows.len() {
        let p = rows[i];
        rows[kept] = p;
        kept += ((words[(p >> 6) as usize] >> (p & 63)) & 1) as usize;
    }
    rows.truncate(kept);
    GapBitmap::from_sorted(&rows, n)
}

/// Credit gate on per-probe occupancy consultation. Each
/// [`SkipDirectory::rules_out`] call costs a directory binary search —
/// pure overhead on workloads it never rules out (dense-vs-dense
/// leapfrogs, where every bucket is occupied). Successes earn credit,
/// failures spend it; at zero the kernel stops consulting for the rest
/// of the operation and relies on galloping alone. Only the advance
/// mechanism changes, never the result.
const PROBE_CREDIT_START: i32 = 8;
const PROBE_CREDIT_EARN: i32 = 2;
const PROBE_CREDIT_CAP: i32 = 64;

/// Leapfrog intersection of two plain gap streams: alternately seek each
/// cursor to the other's head; matches are emitted, long runs of misses
/// are jumped via the skip directories.
///
/// An occupancy-word kernel rides on top of the gallop: a probe whose
/// bucket the other side's directory proves empty is answered without
/// touching the other stream at all (credit-gated, see
/// [`PROBE_CREDIT_START`]). The result is identical either way; a stream
/// whose directory carries no occupancy information (`occ = 0` entries,
/// as append paths persist them) simply gallops every probe.
fn leapfrog_and(a: &GapBitmap, b: &GapBitmap, universe: u64) -> GapBitmap {
    let mut credit = PROBE_CREDIT_START;
    let (mut galloped, mut probe_skips) = (0u64, 0u64);
    let mut out = Vec::with_capacity(a.count().min(b.count()) as usize);
    let mut ac = a.cursor();
    let mut bc = b.cursor();
    if let Some(mut x) = ac.next() {
        'leapfrog: loop {
            if credit > 0 {
                if b.skip_dir().rules_out(x) {
                    // `x`'s bucket is provably empty in `b`: advance `a`
                    // without galloping (or decoding) `b` at all.
                    credit = (credit + PROBE_CREDIT_EARN).min(PROBE_CREDIT_CAP);
                    probe_skips += 1;
                    match ac.next() {
                        Some(v) => {
                            x = v;
                            continue 'leapfrog;
                        }
                        None => break,
                    }
                }
                credit -= 1;
            }
            galloped += 1;
            match bc.next_geq(x) {
                None => break,
                Some(y) if y == x => {
                    out.push(x);
                    match ac.next() {
                        Some(v) => x = v,
                        None => break,
                    }
                }
                Some(y) => match ac.next_geq(y) {
                    Some(v) => x = v,
                    None => break,
                },
            }
        }
    }
    let m = kernel::metrics();
    m.intersect_gallop.add(galloped);
    m.intersect_block_skip.add(probe_skips);
    GapBitmap::from_sorted(&out, universe)
}

/// Leapfrog difference `a \ b` of two plain gap streams: every element of
/// `a` is checked by galloping `b`'s cursor forward, so runs of `b`
/// between consecutive `a`-elements are skipped, not decoded. An element
/// whose bucket `b`'s occupancy words prove empty is kept without
/// touching `b` (behind the same credit gate as [`leapfrog_and`];
/// identical result either way).
fn leapfrog_diff(a: &GapBitmap, b: &GapBitmap, universe: u64) -> GapBitmap {
    let mut credit = PROBE_CREDIT_START;
    let (mut galloped, mut probe_skips) = (0u64, 0u64);
    let mut out = Vec::with_capacity(a.count() as usize);
    let mut bc = b.cursor();
    for p in a.iter() {
        if credit > 0 {
            if b.skip_dir().rules_out(p) {
                credit = (credit + PROBE_CREDIT_EARN).min(PROBE_CREDIT_CAP);
                probe_skips += 1;
                out.push(p);
                continue;
            }
            credit -= 1;
        }
        galloped += 1;
        match bc.next_geq(p) {
            Some(q) if q == p => {}
            _ => out.push(p),
        }
    }
    let m = kernel::metrics();
    m.intersect_gallop.add(galloped);
    m.intersect_block_skip.add(probe_skips);
    GapBitmap::from_sorted(&out, universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use psi_bits::{SkipDirectory, SkipEntry};

    fn gap(positions: &[u64], n: u64) -> GapBitmap {
        GapBitmap::from_sorted(positions, n)
    }

    #[test]
    fn positions_variant_roundtrip() {
        let r = RidSet::from_positions(gap(&[1, 3, 5], 8));
        assert_eq!(r.cardinality(), 3);
        assert_eq!(r.to_vec(), vec![1, 3, 5]);
        assert!(r.contains(3) && !r.contains(2));
        assert!(!r.is_complemented());
    }

    #[test]
    fn complement_variant_inverts() {
        let r = RidSet::from_complement(gap(&[1, 3, 5], 8));
        assert_eq!(r.cardinality(), 5);
        assert_eq!(r.to_vec(), vec![0, 2, 4, 6, 7]);
        assert!(!r.contains(3) && r.contains(2));
        assert_eq!(r.clone().into_positions().to_vec(), vec![0, 2, 4, 6, 7]);
    }

    #[test]
    fn empty_results() {
        let r = RidSet::from_positions(gap(&[], 4));
        assert!(r.is_empty());
        let full_complement = RidSet::from_complement(gap(&[0, 1, 2, 3], 4));
        assert!(full_complement.is_empty());
    }

    #[test]
    fn intersection_mixed_representations() {
        let a = RidSet::from_positions(gap(&[0, 2, 4, 6], 8));
        let b = RidSet::from_complement(gap(&[0, 1], 8)); // {2..7}
        let i = a.intersect(&b);
        assert_eq!(i.to_vec(), vec![2, 4, 6]);
        // Intersection with itself is identity on positions.
        assert_eq!(a.intersect(&a).to_vec(), a.to_vec());
        // Both complemented: the result stays complemented (¬(A ∪ B)).
        let c = RidSet::from_complement(gap(&[1, 2], 8));
        let bc = b.intersect(&c);
        assert!(bc.is_complemented());
        assert_eq!(bc.to_vec(), vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn negate_flips_representation_without_reencoding() {
        let r = RidSet::from_positions(gap(&[1, 3, 5], 8));
        let not_r = r.clone().negate();
        assert!(not_r.is_complemented());
        assert_eq!(not_r.cardinality(), 5);
        assert_eq!(not_r.to_vec(), vec![0, 2, 4, 6, 7]);
        assert_eq!(not_r.stored(), r.stored());
        // Double negation is the identity.
        assert_eq!(not_r.negate(), r);
    }

    #[test]
    fn iter_is_sorted_and_matches_to_vec() {
        let r = RidSet::from_complement(gap(&[2, 3, 9], 12));
        let v: Vec<u64> = r.iter().collect();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(v, r.to_vec());
    }

    #[test]
    fn rank_select_both_representations() {
        for complemented in [false, true] {
            let stored = gap(&[1, 3, 4, 9], 12);
            let r = if complemented {
                RidSet::from_complement(stored)
            } else {
                RidSet::from_positions(stored)
            };
            let logical = r.to_vec();
            for q in 0..=12u64 {
                let naive = logical.iter().filter(|&&p| p < q).count() as u64;
                assert_eq!(r.rank(q), naive, "rank({q}), comp={complemented}");
            }
            for (k, &p) in logical.iter().enumerate() {
                assert_eq!(r.select(k as u64), Some(p), "select({k})");
            }
            assert_eq!(r.select(logical.len() as u64), None);
        }
    }

    /// `n_clusters` runs of `len` contiguous positions, one every
    /// `stride`, starting at cluster index `first` and stepping `step`
    /// clusters.
    fn clusters(first: u64, step: u64, n_clusters: u64, len: u64, stride: u64) -> Vec<u64> {
        (0..n_clusters)
            .flat_map(|c| {
                let base = (first + c * step) * stride;
                base..base + len
            })
            .collect()
    }

    /// A copy of `r` whose directory entries carry no occupancy
    /// information (`occ = 0`, as append paths persist them): probes
    /// against it can never be ruled out, so every one gallops.
    fn occupancy_free(r: &RidSet) -> RidSet {
        let bm = r.stored();
        let dir = bm.skip_dir();
        let blind = dir
            .entries()
            .iter()
            .map(|&e| SkipEntry { occ: 0, ..e })
            .collect();
        RidSet::from_positions(GapBitmap::from_code_bits_indexed(
            bm.code_bits().clone(),
            bm.count(),
            bm.universe(),
            SkipDirectory::from_entries(dir.k(), blind),
        ))
    }

    #[test]
    fn occupancy_probe_skip_matches_occupancy_free_copy() {
        // B: 1000 clusters of 100 contiguous positions every 4000. A:
        // one probe per cluster, mostly in the inter-cluster dead space
        // (provably empty buckets within the occupancy window), some
        // inside clusters (hits).
        let n = 4000 * 1000 + 1;
        let b = RidSet::from_positions(gap(&clusters(0, 1, 1000, 100, 4000), n));
        let a_pos: Vec<u64> = (0..1000u64)
            .map(|c| c * 4000 + if c % 10 == 0 { c % 100 } else { 2000 + c % 64 })
            .collect();
        let a = RidSet::from_positions(gap(&a_pos, n));
        let blind = occupancy_free(&b);
        assert!(b.stored().skip_dir().rules_out(4000 + 2001));
        assert!(!blind.stored().skip_dir().rules_out(4000 + 2001));
        let skips = || kernel::metrics().intersect_block_skip.get();
        let skips_before = skips();
        let fast = a.intersect(&b);
        assert!(
            skips() > skips_before,
            "occupancy probe skip never fired on the miss-heavy workload"
        );
        // Mixed representation exercises the difference kernel's skip.
        let fast_diff = a.intersect(&b.clone().negate());
        assert_eq!(
            fast,
            a.intersect(&blind),
            "block-skip intersection diverged"
        );
        assert_eq!(
            fast_diff,
            a.intersect(&blind.negate()),
            "block-skip difference diverged"
        );
        assert_eq!(fast.to_vec(), a.intersect_reference(&b).to_vec());
        assert_eq!(fast.cardinality(), 100, "every c % 10 == 0 probe hits");
        assert_eq!(fast_diff.cardinality(), 900);
    }

    #[test]
    fn galloping_intersect_matches_reference_on_large_sets() {
        let n = 1u64 << 16;
        let a = RidSet::from_positions(gap(&(0..n / 3).map(|i| i * 3).collect::<Vec<_>>(), n));
        let b = RidSet::from_positions(gap(&(0..n / 7).map(|i| i * 7).collect::<Vec<_>>(), n));
        assert_eq!(a.intersect(&b).to_vec(), a.intersect_reference(&b).to_vec());
        // Clusters of 256 on alternate slots of 8192 (disjoint), and
        // clusters of 128 on every slot (overlapping the first set).
        let n = 8192 * 400 + 1;
        let even = RidSet::from_positions(gap(&clusters(0, 2, 200, 256, 8192), n));
        let odd = RidSet::from_positions(gap(&clusters(1, 2, 200, 256, 8192), n));
        let every = RidSet::from_positions(gap(&clusters(0, 1, 400, 128, 8192), n));
        let disjoint = even.intersect(&odd);
        assert!(disjoint.is_empty());
        assert_eq!(disjoint, even.intersect_reference(&odd));
        let overlapping = even.intersect(&every);
        assert_eq!(overlapping.cardinality(), 200 * 128);
        assert_eq!(overlapping, even.intersect_reference(&every));
    }

    /// `RidSet` over the positions `i < n` whose hash lands below
    /// `per_1024 / 1024`: an unclustered set of the chosen density.
    fn hashed(n: u64, seed: u64, per_1024: u64, complemented: bool) -> RidSet {
        let stored = GapBitmap::from_sorted_iter(
            (0..n).filter(|&i| {
                let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h >> 54) < per_1024
            }),
            n,
        );
        if complemented {
            RidSet::from_complement(stored)
        } else {
            RidSet::from_positions(stored)
        }
    }

    /// The same set with its directory left to build lazily, as
    /// `GapBitmap::concat` splices leave results.
    fn lazy(r: &RidSet) -> RidSet {
        let bm = r.stored();
        let stored = GapBitmap::from_code_bits(bm.code_bits().clone(), bm.count(), bm.universe());
        if r.is_complemented() {
            RidSet::from_complement(stored)
        } else {
            RidSet::from_positions(stored)
        }
    }

    #[test]
    fn dense_operands_without_a_directory_intersect_through_words() {
        let words_runs = || kernel::metrics().intersect_words.get();
        // Universes on and off a multiple of 64.
        for n in [4096 + 37, 64 * 70, 5000 - 1] {
            for (comp_big, comp_small) in [(false, false), (false, true), (true, false)] {
                // ~47% and ~3% stored (a complemented operand's logical
                // set is the other ~53% / ~97%): the second operand is
                // the smaller logical set unless it is complemented.
                let big = lazy(&hashed(n, 1, 480, comp_big));
                let small = lazy(&hashed(n, 2, if comp_small { 990 } else { 30 }, comp_small));
                assert!(small.cardinality() <= big.cardinality());
                assert!(big.prefers_words(small.cardinality()));
                let before = words_runs();
                for got in [big.intersect(&small), small.intersect(&big)] {
                    assert_eq!(
                        got,
                        big.intersect_reference(&small),
                        "{comp_big} {comp_small}"
                    );
                }
                assert!(words_runs() > before, "word arm never ran");
                assert!(
                    !big.stored().has_skip_dir() && !small.stored().has_skip_dir(),
                    "the word arm built a skip directory"
                );
            }
            // A complemented operand's words stop at the universe.
            let r = hashed(n, 3, 100, true);
            assert_eq!(GapBitmap::from_words(&r.to_words(), n).to_vec(), r.to_vec());
        }
    }

    #[test]
    fn dense_operands_with_a_directory_leapfrog_a_small_probe_side() {
        let gallops = || kernel::metrics().intersect_gallop.get();
        for n in [1 << 14, (1 << 14) + 21] {
            for (comp_big, comp_small) in [(false, false), (true, false), (false, true)] {
                // Encoded sets carry their directory: ~50% dense against
                // ~0.4%, fewer than one probe per sample block.
                let big = hashed(n, 4, 512, comp_big);
                let small = hashed(n, 5, if comp_small { 1020 } else { 4 }, comp_small);
                assert!(big.stored().has_skip_dir());
                assert!(small.cardinality() * u64::from(SKIP_SAMPLE) < big.cardinality());
                assert!(!big.prefers_words(small.cardinality()));
                let before = gallops();
                assert_eq!(big.intersect(&small), big.intersect_reference(&small));
                assert!(gallops() > before, "leapfrog never galloped");
                // Without its directory the same operand takes the words.
                assert!(lazy(&big).prefers_words(small.cardinality()));
            }
        }
    }

    /// The same set with its stored bitmap in the words form.
    fn words(r: &RidSet) -> RidSet {
        let n = r.universe();
        let mut array = vec![0u64; n.div_ceil(64) as usize];
        r.stored().or_into_words(&mut array);
        let stored = GapBitmap::from_plain_words(array, 0, n);
        if r.is_complemented() {
            RidSet::from_complement(stored)
        } else {
            RidSet::from_positions(stored)
        }
    }

    #[test]
    fn dense_words_operands_take_the_word_arm() {
        let words_runs = || kernel::metrics().intersect_words.get();
        let n = 5000 - 3;
        // A tiny operand would gallop a dense gamma operand's directory;
        // a words operand has none, so the tiny one filters through a copy.
        let big = words(&hashed(n, 6, 512, false));
        let small = hashed(n, 7, 4, false);
        assert!(big.stored().plain_words().is_some());
        assert!(big.prefers_words(small.cardinality()));
        assert!(!big.prefers_words(0));
        let before = words_runs();
        assert_eq!(big.intersect(&small), big.intersect_reference(&small));
        assert!(words_runs() > before, "word arm never ran");
        // A words operand sparse over the universe (a dense slot with a
        // narrow span) leapfrogs, as a gamma one would.
        let rows: Vec<u64> = (0..40).map(|i| 3 * i).collect();
        let narrow = words(&RidSet::from_positions(GapBitmap::from_sorted(&rows, n)));
        assert!(!narrow.prefers_words(small.cardinality()));
        let before = words_runs();
        assert_eq!(narrow.intersect(&small), narrow.intersect_reference(&small));
        assert_eq!(words_runs(), before);
        // Two words operands AND directly and stay words where they pay.
        let other = words(&hashed(n, 8, 900, false));
        let both = big.intersect(&other);
        assert_eq!(both, big.intersect_reference(&other));
        assert!(both.stored().plain_words().is_some());
    }

    proptest! {
        #[test]
        fn words_operands_match_the_reference_for_every_operation(
            n in 1u64..3000,
            seeds in (any::<u64>(), any::<u64>()),
            per_1024 in (0usize..7, 0usize..7),
            comp in (any::<bool>(), any::<bool>()),
            forms in (0u8..3, 0u8..3),
        ) {
            // Words, eager gamma and lazy gamma operands in every
            // pairing, every complement combination, universes on and
            // off a multiple of 64, densities from empty to full.
            const DENSITY: [u64; 7] = [0, 4, 16, 256, 512, 900, 1024];
            let mk = |seed, d: usize, c, form| {
                let r = hashed(n, seed, DENSITY[d], c);
                match form {
                    0 => words(&r),
                    1 => lazy(&r),
                    _ => r,
                }
            };
            let a = mk(seeds.0, per_1024.0, comp.0, forms.0);
            let b = mk(seeds.1, per_1024.1, comp.1, forms.1);
            let gamma_a = hashed(n, seeds.0, DENSITY[per_1024.0], comp.0);
            let naive: Vec<u64> = gamma_a.iter().collect();
            prop_assert_eq!(&a, &gamma_a);
            prop_assert_eq!(a.to_vec(), naive.clone());
            prop_assert_eq!(a.iter().collect::<Vec<_>>(), naive.clone());
            prop_assert_eq!(a.cardinality(), naive.len() as u64);
            prop_assert_eq!(a.to_words(), gamma_a.to_words());
            for q in 0..=n {
                prop_assert_eq!(a.rank(q), naive.partition_point(|&p| p < q) as u64);
                if q < n {
                    prop_assert_eq!(a.contains(q), naive.binary_search(&q).is_ok());
                }
            }
            for (k, &p) in naive.iter().enumerate().step_by(7) {
                prop_assert_eq!(a.select(k as u64), Some(p));
            }
            prop_assert_eq!(a.select(naive.len() as u64), None);
            prop_assert_eq!(a.clone().into_positions().to_vec(), naive.clone());
            let not_a = a.clone().negate();
            prop_assert_eq!(not_a.cardinality(), n - naive.len() as u64);
            for (x, y) in [(&a, &b), (&not_a, &b)] {
                let want = x.intersect_reference(y);
                let got = x.intersect(y);
                prop_assert_eq!(got.to_vec(), want.to_vec());
                prop_assert_eq!(got.cardinality(), want.cardinality());
                prop_assert_eq!(y.intersect(x).to_vec(), want.to_vec());
            }
        }

        #[test]
        fn both_intersect_arms_match_the_reference(
            n in 1u64..3000,
            seeds in (any::<u64>(), any::<u64>()),
            per_1024 in (0usize..6, 0usize..6),
            comp in (any::<bool>(), any::<bool>()),
            lazy_dir in (any::<bool>(), any::<bool>()),
        ) {
            // Densities from ~0.4% to ~98%, every complement combination,
            // directories materialized or left lazy.
            const DENSITY: [u64; 6] = [4, 16, 256, 512, 768, 1000];
            let mk = |seed, d: usize, c, l| {
                let r = hashed(n, seed, DENSITY[d], c);
                if l { lazy(&r) } else { r }
            };
            let a = mk(seeds.0, per_1024.0, comp.0, lazy_dir.0);
            let b = mk(seeds.1, per_1024.1, comp.1, lazy_dir.1);
            let want = a.intersect_reference(&b);
            let got = a.intersect(&b);
            prop_assert_eq!(got.to_vec(), want.to_vec());
            prop_assert_eq!(got.cardinality(), want.cardinality());
            let (small, big) = if a.cardinality() <= b.cardinality() { (&a, &b) } else { (&b, &a) };
            if !(comp.0 && comp.1) && big.prefers_words(small.cardinality()) {
                for (r, l) in [(&a, lazy_dir.0), (&b, lazy_dir.1)] {
                    prop_assert!(!l || !r.stored().has_skip_dir(), "word arm built a directory");
                }
            }
        }

        #[test]
        fn set_ops_match_full_decode_reference(
            pos_a in proptest::collection::btree_set(0u64..2048, 0..300),
            pos_b in proptest::collection::btree_set(0u64..2048, 0..300),
            comp_a in any::<bool>(),
            comp_b in any::<bool>(),
        ) {
            let n = 2048u64;
            let mk = |pos: &std::collections::BTreeSet<u64>, comp: bool| {
                let stored = GapBitmap::from_sorted_iter(pos.iter().copied(), n);
                if comp { RidSet::from_complement(stored) } else { RidSet::from_positions(stored) }
            };
            let a = mk(&pos_a, comp_a);
            let b = mk(&pos_b, comp_b);
            // The oracle: fully decoded logical sets.
            let la: Vec<u64> = a.iter().collect();
            let lb: std::collections::BTreeSet<u64> = b.iter().collect();
            prop_assert_eq!(&la, &a.to_vec());
            for q in (0..=n).step_by(97) {
                prop_assert_eq!(a.rank(q), la.iter().filter(|&&p| p < q).count() as u64);
                if q < n {
                    prop_assert_eq!(a.contains(q), la.binary_search(&q).is_ok());
                }
            }
            for (k, &p) in la.iter().enumerate() {
                prop_assert_eq!(a.select(k as u64), Some(p));
            }
            prop_assert_eq!(a.select(la.len() as u64), None);
            let want: Vec<u64> = la.iter().copied().filter(|p| lb.contains(p)).collect();
            let got = a.intersect(&b);
            prop_assert_eq!(got.to_vec(), want.clone());
            prop_assert_eq!(got.cardinality() as usize, want.len());
            prop_assert_eq!(
                a.intersect_reference(&b).to_vec(),
                want
            );
        }
    }
}
