//! Uncompressed bitmaps with rank/select support.
//!
//! This is the representation behind the classical (uncompressed) bitmap
//! index of §1.2: one `n`-bit vector per character, where a range query
//! simply reads and ORs `ℓ` bitmaps. Positions are LSB-first within words
//! (the natural order for broadword popcount arithmetic); this layout is
//! private to the type.

/// An uncompressed fixed-universe bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlainBitmap {
    universe: u64,
    words: Vec<u64>,
    ones: u64,
}

impl PlainBitmap {
    /// An all-zeros bitmap over `[0, universe)`.
    pub fn new(universe: u64) -> Self {
        PlainBitmap {
            universe,
            words: vec![0; (universe as usize).div_ceil(64)],
            ones: 0,
        }
    }

    /// Builds from an iterator of (not necessarily sorted) positions.
    pub fn from_positions<I: IntoIterator<Item = u64>>(positions: I, universe: u64) -> Self {
        let mut b = Self::new(universe);
        for p in positions {
            b.set(p);
        }
        b
    }

    /// The universe size `n`.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Storage size in bits (the paper charges `n` bits per uncompressed
    /// bitmap regardless of content).
    pub fn size_bits(&self) -> u64 {
        64 * self.words.len() as u64
    }

    /// Number of 1s.
    pub fn count_ones(&self) -> u64 {
        self.ones
    }

    /// Sets bit `pos` (idempotent).
    pub fn set(&mut self, pos: u64) {
        assert!(
            pos < self.universe,
            "position {pos} outside universe {}",
            self.universe
        );
        let w = (pos / 64) as usize;
        let mask = 1u64 << (pos % 64);
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.ones += 1;
        }
    }

    /// Clears bit `pos` (idempotent).
    pub fn clear(&mut self, pos: u64) {
        assert!(
            pos < self.universe,
            "position {pos} outside universe {}",
            self.universe
        );
        let w = (pos / 64) as usize;
        let mask = 1u64 << (pos % 64);
        if self.words[w] & mask != 0 {
            self.words[w] &= !mask;
            self.ones -= 1;
        }
    }

    /// Tests bit `pos`.
    pub fn get(&self, pos: u64) -> bool {
        assert!(
            pos < self.universe,
            "position {pos} outside universe {}",
            self.universe
        );
        self.words[(pos / 64) as usize] >> (pos % 64) & 1 == 1
    }

    /// The backing words (LSB-first bit order; tail bits zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of 1s strictly before `pos` (`rank₁`). O(pos/64) scan; use
    /// [`RankDirectory`] for repeated queries.
    pub fn rank1(&self, pos: u64) -> u64 {
        assert!(pos <= self.universe);
        let full_words = (pos / 64) as usize;
        let mut r: u64 = self.words[..full_words]
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        let rem = pos % 64;
        if rem > 0 {
            r += u64::from((self.words[full_words] & ((1u64 << rem) - 1)).count_ones());
        }
        r
    }

    /// Position of the `k`-th one (0-indexed), or `None` if `k ≥ ones`.
    pub fn select1(&self, k: u64) -> Option<u64> {
        if k >= self.ones {
            return None;
        }
        let mut remaining = k;
        for (i, &w) in self.words.iter().enumerate() {
            let c = u64::from(w.count_ones());
            if remaining < c {
                return Some(64 * i as u64 + u64::from(select_in_word(w, remaining as u32)));
            }
            remaining -= c;
        }
        unreachable!("k < ones guarantees a hit");
    }

    /// Iterates the 1-positions in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let base = 64 * i as u64;
            std::iter::successors(if w == 0 { None } else { Some(w) }, |&w| {
                let w = w & (w - 1);
                if w == 0 {
                    None
                } else {
                    Some(w)
                }
            })
            .map(move |w| base + u64::from(w.trailing_zeros()))
        })
    }
}

/// Position (0..64) of the `k`-th set bit of `w`; `k` must be less than
/// `w.count_ones()`.
fn select_in_word(mut w: u64, k: u32) -> u32 {
    for _ in 0..k {
        w &= w - 1;
    }
    w.trailing_zeros()
}

/// An O(1)-rank directory over a frozen [`PlainBitmap`].
///
/// Superblocks of 512 bits (8 words) store cumulative ranks; rank within a
/// superblock is by popcount, select by binary search on superblocks. This
/// is the standard textbook o(n)-overhead design, sufficient for the
/// experiment harnesses.
#[derive(Debug, Clone)]
pub struct RankDirectory {
    /// Cumulative ones before each superblock of 8 words.
    super_ranks: Vec<u64>,
}

const WORDS_PER_SUPER: usize = 8;

impl RankDirectory {
    /// Builds the directory for `bitmap`.
    pub fn build(bitmap: &PlainBitmap) -> Self {
        let mut super_ranks = Vec::with_capacity(bitmap.words.len() / WORDS_PER_SUPER + 1);
        let mut acc = 0u64;
        for (i, w) in bitmap.words.iter().enumerate() {
            if i % WORDS_PER_SUPER == 0 {
                super_ranks.push(acc);
            }
            acc += u64::from(w.count_ones());
        }
        super_ranks.push(acc);
        RankDirectory { super_ranks }
    }

    /// Directory overhead in bits.
    pub fn size_bits(&self) -> u64 {
        64 * self.super_ranks.len() as u64
    }

    /// `rank₁(pos)` using the directory (popcounts at most 8 words).
    pub fn rank1(&self, bitmap: &PlainBitmap, pos: u64) -> u64 {
        assert!(pos <= bitmap.universe);
        let word = (pos / 64) as usize;
        let sb = word / WORDS_PER_SUPER;
        let mut r = self.super_ranks[sb];
        for w in &bitmap.words[sb * WORDS_PER_SUPER..word] {
            r += u64::from(w.count_ones());
        }
        let rem = pos % 64;
        if rem > 0 {
            r += u64::from((bitmap.words[word] & ((1u64 << rem) - 1)).count_ones());
        }
        r
    }

    /// `select₁(k)` via binary search over superblocks.
    pub fn select1(&self, bitmap: &PlainBitmap, k: u64) -> Option<u64> {
        if k >= bitmap.ones {
            return None;
        }
        // Last superblock whose cumulative rank is <= k.
        let sb = self.super_ranks.partition_point(|&r| r <= k) - 1;
        let mut remaining = k - self.super_ranks[sb];
        for (i, &w) in bitmap.words[sb * WORDS_PER_SUPER..].iter().enumerate() {
            let c = u64::from(w.count_ones());
            if remaining < c {
                let word_idx = sb * WORDS_PER_SUPER + i;
                return Some(64 * word_idx as u64 + u64::from(select_in_word(w, remaining as u32)));
            }
            remaining -= c;
        }
        unreachable!("k < ones guarantees a hit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_clear() {
        let mut b = PlainBitmap::new(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 3);
        b.set(64); // idempotent
        assert_eq!(b.count_ones(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn rank_select_naive() {
        let b = PlainBitmap::from_positions([3, 10, 64, 65, 127], 128);
        assert_eq!(b.rank1(0), 0);
        assert_eq!(b.rank1(4), 1);
        assert_eq!(b.rank1(128), 5);
        assert_eq!(b.select1(0), Some(3));
        assert_eq!(b.select1(3), Some(65));
        assert_eq!(b.select1(4), Some(127));
        assert_eq!(b.select1(5), None);
    }

    #[test]
    fn iter_ones_matches_positions() {
        let pos = vec![0u64, 7, 63, 64, 100, 511];
        let b = PlainBitmap::from_positions(pos.iter().copied(), 512);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), pos);
    }

    #[test]
    fn directory_on_empty_and_full() {
        let empty = PlainBitmap::new(1000);
        let dir = RankDirectory::build(&empty);
        assert_eq!(dir.rank1(&empty, 1000), 0);
        assert_eq!(dir.select1(&empty, 0), None);
        let full = PlainBitmap::from_positions(0..1000, 1000);
        let dir = RankDirectory::build(&full);
        assert_eq!(dir.rank1(&full, 777), 777);
        assert_eq!(dir.select1(&full, 777), Some(777));
    }

    proptest! {
        #[test]
        fn directory_matches_naive(pos in proptest::collection::btree_set(0u64..2048, 0..300)) {
            let b = PlainBitmap::from_positions(pos.iter().copied(), 2048);
            let dir = RankDirectory::build(&b);
            for q in (0..=2048).step_by(37) {
                prop_assert_eq!(dir.rank1(&b, q), b.rank1(q));
            }
            for k in 0..b.count_ones() {
                prop_assert_eq!(dir.select1(&b, k), b.select1(k));
            }
            // select is the inverse of rank on the 1-positions.
            for (k, p) in b.iter_ones().enumerate() {
                prop_assert_eq!(b.rank1(p), k as u64);
            }
        }
    }
}
