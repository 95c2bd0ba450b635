//! Skip directories over gap-coded streams.
//!
//! Gamma codes are not addressable: finding one element of a
//! [`GapBitmap`](crate::GapBitmap) means decoding everything before it.
//! A **skip directory** samples every `K`-th decoded element, recording
//! its value and the bit offset just past its codeword, so membership,
//! rank and select restart decoding at the nearest sample — `O(lg(z/K))`
//! for the probe plus at most `K − 1` codes of linear decode, instead of
//! `O(z)`. This is the classical skip-pointer design of inverted indexes
//! (cf. the perlin posting layout), applied to Pagh & Rao's cut streams.
//! The directory lives only in memory, beside the code stream: the
//! encoders fill it while they write the codes, and a bitmap lifted from
//! storage builds it with one decode pass on first use. Storage holds the
//! codes alone, so every bound on the payload is the bound on what is
//! stored.

/// Sampling interval: one directory entry per `SKIP_SAMPLE` elements.
///
/// 64 keeps the directory at `z/64` entries (3 words per entry in
/// memory) while bounding every directory-assisted operation's linear
/// tail at 63 codes.
pub const SKIP_SAMPLE: u32 = 64;

/// One sample: the `(j·K)`-th decoded element (0-indexed) of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipEntry {
    /// The element's value (its position in the encoded set).
    pub pos: u64,
    /// Bit offset just past the element's codeword, relative to the
    /// stream start — decoding resumes here with `prev = pos`.
    pub bit_off: u64,
    /// Occupancy summary of this entry's sample block, LSB-first over the
    /// 64 universe-aligned 64-position buckets starting at the entry's
    /// own bucket: bit `d` set ⟺ some element observed for this entry
    /// lies in positions `[64·(pos/64 + d), 64·(pos/64 + d + 1))`. Block
    /// elements more than 64 buckets past the sample are unsummarized
    /// (they cannot clear lower bits, so the word stays sound). `0` means
    /// *no information* — an exact summary always has bit 0 set (the
    /// sampled element itself). Intersection and membership kernels test
    /// these words to rule out whole buckets without decoding any codes.
    pub occ: u64,
}

impl SkipEntry {
    /// Exact occupancy seed for a freshly sampled element: its own bucket.
    const OCC_SELF: u64 = 1;

    /// Folds a later element of this entry's block into the occupancy
    /// word (no-op for elements past the 64-bucket window, which the
    /// summary cannot describe).
    #[inline]
    fn cover(&mut self, pos: u64) {
        let d = (pos >> 6) - (self.pos >> 6);
        if d < 64 {
            self.occ |= 1 << d;
        }
    }

    /// Whether this entry's occupancy word proves `target` (which must
    /// satisfy `self.pos ≤ target`) is absent from the elements this
    /// entry summarizes. Callers must separately ensure every stream
    /// element `≤ target` was observed by this entry (see
    /// [`SkipDirectory::rules_out`]).
    #[inline]
    pub fn occ_rules_out(&self, target: u64) -> bool {
        if self.occ == 0 {
            return false; // conservative entry: no information
        }
        let d = (target >> 6) - (self.pos >> 6);
        d < 64 && (self.occ >> d) & 1 == 0
    }
}

/// A sampled directory over one gap stream.
///
/// Entry `j` describes element index `j · k`. A directory supplied with
/// [`SkipDirectory::from_entries`] may be *truncated* (fewer entries than
/// `count/k`): operations past the last sample simply decode linearly
/// from there, so truncation affects speed, never correctness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SkipDirectory {
    k: u32,
    entries: Vec<SkipEntry>,
}

impl SkipDirectory {
    /// An empty directory sampling every `k` elements.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: u32) -> Self {
        assert!(k > 0, "sampling interval must be positive");
        SkipDirectory {
            k,
            entries: Vec::new(),
        }
    }

    /// Wraps prepared entries (e.g. an occupancy-free copy of a built
    /// directory, the comparator of the occupancy rule-out).
    pub fn from_entries(k: u32, entries: Vec<SkipEntry>) -> Self {
        assert!(k > 0, "sampling interval must be positive");
        debug_assert!(
            entries.windows(2).all(|w| w[0].pos < w[1].pos),
            "directory positions must be strictly increasing"
        );
        SkipDirectory { k, entries }
    }

    /// The sampling interval `K`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory holds no samples.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw samples (entry `j` = element index `j·k`).
    pub fn entries(&self) -> &[SkipEntry] {
        &self.entries
    }

    /// In-memory footprint in bits (three words per entry).
    pub fn size_bits(&self) -> u64 {
        192 * self.entries.len() as u64
    }

    /// Feeds one decoded/encoded element; call in index order. Records a
    /// sample when `index` is a multiple of `k`, and folds every other
    /// element into the latest sample's occupancy word, so directories
    /// built by the encode and decode passes carry exact summaries.
    #[inline]
    pub fn observe(&mut self, index: u64, pos: u64, bit_off: u64) {
        if index.is_multiple_of(u64::from(self.k)) {
            debug_assert_eq!(index / u64::from(self.k), self.entries.len() as u64);
            self.entries.push(SkipEntry {
                pos,
                bit_off,
                occ: SkipEntry::OCC_SELF,
            });
        } else if let Some(last) = self.entries.last_mut() {
            last.cover(pos);
        }
    }

    /// Folds a position into the latest sample's occupancy word without
    /// recording anything else — for bulk paths (whole-word run appends)
    /// that bypass per-element [`Self::observe`] calls.
    #[inline]
    pub fn cover(&mut self, pos: u64) {
        if let Some(last) = self.entries.last_mut() {
            last.cover(pos);
        }
    }

    /// Whether the directory *proves* `target` is not in the stream, by
    /// the occupancy word of the sample block that would contain it — no
    /// codes decoded. `false` means "unknown": the caller decodes as
    /// usual.
    ///
    /// Sound for every construction path: a nonempty directory's first
    /// entry is the stream's first element, so anything below it is
    /// absent; an interior block is fully summarized by its entry (later
    /// blocks start above `target`, earlier ones end below its bucket);
    /// and the *last* entry is never consulted, because past a truncated
    /// directory's last entry the stream holds elements its word never
    /// observed.
    pub fn rules_out(&self, target: u64) -> bool {
        let j = self.entries.partition_point(|e| e.pos <= target);
        if j == 0 {
            // Entry 0 is element 0: a nonempty directory proves absence
            // of every position below it.
            return !self.entries.is_empty();
        }
        if j >= self.entries.len() {
            return false; // tail block: may run past its summary
        }
        self.entries[j - 1].occ_rules_out(target)
    }

    /// The latest sample with `pos ≤ target`, as `(rank, entry)` where
    /// `rank` is the sampled element's index. `None` when the stream is
    /// empty or its first element exceeds `target`.
    pub fn seek(&self, target: u64) -> Option<(u64, SkipEntry)> {
        let j = self.entries.partition_point(|e| e.pos <= target);
        let j = j.checked_sub(1)?;
        Some((j as u64 * u64::from(self.k), self.entries[j]))
    }

    /// The latest sample at element index `≤ rank`, as `(sample_rank,
    /// entry)` — the restart point for `select(rank)`.
    pub fn seek_rank(&self, rank: u64) -> Option<(u64, SkipEntry)> {
        if self.entries.is_empty() {
            return None;
        }
        let j = (rank / u64::from(self.k)).min(self.entries.len() as u64 - 1);
        Some((j * u64::from(self.k), self.entries[j as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(k: u32, samples: &[(u64, u64)]) -> SkipDirectory {
        let mut d = SkipDirectory::new(k);
        for (j, &(pos, off)) in samples.iter().enumerate() {
            d.observe(j as u64 * u64::from(k), pos, off);
        }
        d
    }

    #[test]
    fn observe_samples_every_kth() {
        let mut d = SkipDirectory::new(4);
        for i in 0..10u64 {
            d.observe(i, 10 * i, 3 * i);
        }
        assert_eq!(d.len(), 3); // indices 0, 4, 8
                                // Entry 1 samples pos 40 (bucket 0) and covers 50, 60 (bucket 0)
                                // and 70 (bucket 1): occupancy 0b11.
        assert_eq!(
            d.entries()[1],
            SkipEntry {
                pos: 40,
                bit_off: 12,
                occ: 0b11,
            }
        );
        assert_eq!(d.size_bits(), 3 * 192);
    }

    #[test]
    fn seek_finds_latest_entry_at_or_before() {
        let d = dir(4, &[(5, 3), (20, 19), (100, 44)]);
        let e = |pos, bit_off| SkipEntry {
            pos,
            bit_off,
            occ: SkipEntry::OCC_SELF,
        };
        assert_eq!(d.seek(4), None);
        assert_eq!(d.seek(5), Some((0, e(5, 3))));
        assert_eq!(d.seek(19), Some((0, e(5, 3))));
        assert_eq!(d.seek(20), Some((4, e(20, 19))));
        assert_eq!(d.seek(u64::MAX), Some((8, e(100, 44))));
    }

    #[test]
    fn occupancy_rules_out_only_provable_absences() {
        // Elements 0..32 step 10 over buckets 0..5, k = 8: entries at
        // indices 0, 8, 16, 24 — positions 0, 80, 160, 240.
        let mut d = SkipDirectory::new(8);
        for i in 0..32u64 {
            d.observe(i, 10 * i, i);
        }
        // Bucket 64..128 holds elements 70..120: block 0 covers 70 only
        // (bucket 1, bit 1); probing 65 (same bucket, present elements
        // 70) cannot be ruled out, but 130's bucket is summarized by
        // entry at pos 80 whose block holds 90..150, bucket 2 = 128..191
        // → bit set, not ruled out. A bucket with no elements at all:
        // none here (10-stride fills every bucket), so check below the
        // first element and a sparse stream instead.
        assert!(!d.rules_out(65));
        let mut sparse = SkipDirectory::new(4);
        for (i, &p) in [5u64, 200, 210, 220, 1000, 2000, 3000, 4000, 9000]
            .iter()
            .enumerate()
        {
            sparse.observe(i as u64, p, i as u64);
        }
        // Entries at indices 0 (pos 5), 4 (pos 1000), 8 (pos 9000).
        assert!(sparse.rules_out(3), "below the first element");
        assert!(
            sparse.rules_out(100),
            "bucket 1 of block 0 is provably empty"
        );
        assert!(!sparse.rules_out(201), "bucket of 200 has elements");
        assert!(!sparse.rules_out(205), "present-bucket probes never skip");
        assert!(
            !sparse.rules_out(9500),
            "tail block is never consulted (may be truncated)"
        );
        // Conservative entries (occ = 0) rule nothing out.
        let blind = SkipDirectory::from_entries(
            4,
            vec![
                SkipEntry {
                    pos: 5,
                    bit_off: 0,
                    occ: 0,
                },
                SkipEntry {
                    pos: 1000,
                    bit_off: 10,
                    occ: 0,
                },
            ],
        );
        assert!(!blind.rules_out(100));
        assert!(blind.rules_out(3), "first-element bound needs no occ");
    }

    #[test]
    fn seek_rank_clamps_to_truncated_directory() {
        let d = dir(4, &[(5, 3), (20, 19)]);
        assert_eq!(d.seek_rank(0).unwrap().0, 0);
        assert_eq!(d.seek_rank(6).unwrap().0, 4);
        // Rank 40 would live at sample 10, but the directory is truncated:
        // fall back to the last available restart point.
        assert_eq!(d.seek_rank(40).unwrap().0, 4);
        assert_eq!(SkipDirectory::new(4).seek_rank(0), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = SkipDirectory::new(0);
    }
}
