//! Dense (uncompressed) bitmap storage.
//!
//! The uncompressed, range-encoded and interval-encoded bitmap indexes all
//! store families of `n`-bit vectors verbatim. A [`DenseCatalog`] lays
//! `slots` such vectors out contiguously on disk, one after another, each
//! occupying `⌈n/64⌉` whole words (LSB-first bit order within each word —
//! private to this type, chosen so word-wise OR/AND-NOT on read-back is a
//! single operation per word).

use psi_io::{Disk, ExtentId, IoSession, ReadError};

/// A family of equal-length uncompressed bitmaps on disk.
#[derive(Debug)]
pub struct DenseCatalog {
    ext: ExtentId,
    universe: u64,
    words_per_slot: u64,
    slots: usize,
}

impl DenseCatalog {
    /// Builds a catalog of `groups.len()` dense bitmaps over `universe`
    /// from sorted position lists.
    pub fn build<I, J>(disk: &mut Disk, universe: u64, groups: I) -> Self
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = u64>,
    {
        let groups: Vec<Vec<u64>> = groups
            .into_iter()
            .map(|g| g.into_iter().collect())
            .collect();
        let slots = groups.len();
        Self::build_with(disk, universe, slots, |idx, words| {
            words.iter_mut().for_each(|w| *w = 0);
            for &p in &groups[idx] {
                assert!(p < universe, "position {p} outside universe {universe}");
                words[(p / 64) as usize] |= 1u64 << (p % 64);
            }
        })
    }

    /// Builds `slots` dense bitmaps by repeatedly mutating one persistent
    /// word accumulator: `fill(slot, words)` edits the accumulator (which
    /// retains the previous slot's contents) and the result is written as
    /// slot `slot`. This supports incremental constructions: cumulative
    /// prefixes (range encoding) and sliding windows (interval encoding)
    /// in `O(slots·n/64 + n)` work instead of `O(slots·n)`.
    pub fn build_with(
        disk: &mut Disk,
        universe: u64,
        slots: usize,
        mut fill: impl FnMut(usize, &mut [u64]),
    ) -> Self {
        let ext = disk.alloc();
        let session = IoSession::untracked();
        let words_per_slot = universe.div_ceil(64).max(1);
        let mut writer = disk.writer(ext, &session);
        let mut words = vec![0u64; words_per_slot as usize];
        for idx in 0..slots {
            fill(idx, &mut words);
            for &w in &words {
                writer.write_bits(w, 64);
            }
        }
        DenseCatalog {
            ext,
            universe,
            words_per_slot,
            slots,
        }
    }

    /// Number of bitmaps.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The universe size `n`.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Reads slot `idx` and ORs it into `acc` (which must have
    /// `words_per_slot` entries), charging `io`.
    pub fn or_into(
        &self,
        disk: &Disk,
        idx: usize,
        acc: &mut [u64],
        io: &IoSession,
    ) -> Result<(), ReadError> {
        self.combine(disk, idx, acc, io, |a, w| *a |= w)
    }

    /// Reads slot `idx` and AND-NOTs it into `acc` (`acc &= !slot`).
    pub fn and_not_into(
        &self,
        disk: &Disk,
        idx: usize,
        acc: &mut [u64],
        io: &IoSession,
    ) -> Result<(), ReadError> {
        self.combine(disk, idx, acc, io, |a, w| *a &= !w)
    }

    /// Reads slot `idx` and ANDs it into `acc`.
    pub fn and_into(
        &self,
        disk: &Disk,
        idx: usize,
        acc: &mut [u64],
        io: &IoSession,
    ) -> Result<(), ReadError> {
        self.combine(disk, idx, acc, io, |a, w| *a &= w)
    }

    /// Lifts slot `idx` whole (one bulk read, returning a failed pooled
    /// fetch as its error), then folds its words into `acc` with `op`.
    fn combine(
        &self,
        disk: &Disk,
        idx: usize,
        acc: &mut [u64],
        io: &IoSession,
        op: impl Fn(&mut u64, u64),
    ) -> Result<(), ReadError> {
        assert!(idx < self.slots, "slot {idx} out of range");
        assert_eq!(acc.len() as u64, self.words_per_slot);
        let mut words = Vec::new();
        disk.reader(self.ext, idx as u64 * self.words_per_slot * 64, io)
            .read_words(&mut words, self.words_per_slot * 64)?;
        for (a, w) in acc.iter_mut().zip(words) {
            op(a, w);
        }
        Ok(())
    }

    /// [`Self::combine`] reading the slot word by word from the disk: the
    /// reference the lifted read must match in result and charge.
    #[cfg(test)]
    pub(crate) fn combine_per_word(
        &self,
        disk: &Disk,
        idx: usize,
        acc: &mut [u64],
        io: &IoSession,
        op: impl Fn(&mut u64, u64),
    ) {
        let mut r = disk.reader(self.ext, idx as u64 * self.words_per_slot * 64, io);
        for a in acc.iter_mut() {
            op(a, r.read_bits(64));
        }
    }

    /// A zeroed accumulator of the right width.
    pub fn new_acc(&self) -> Vec<u64> {
        vec![0; self.words_per_slot as usize]
    }

    /// Extracts the sorted positions set in an accumulator.
    pub fn acc_positions(&self, acc: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for (i, &w) in acc.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let p = 64 * i as u64 + u64::from(w.trailing_zeros());
                if p < self.universe {
                    out.push(p);
                }
                w &= w - 1;
            }
        }
        out
    }

    /// Storage size in bits (`slots · ⌈n/64⌉ · 64`).
    pub fn size_bits(&self, disk: &Disk) -> u64 {
        disk.extent_bits(self.ext)
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl DenseCatalog {
    /// Serializes the catalog's directory (the bitmaps stay on disk).
    pub(crate) fn persist_meta(&self, out: &mut psi_store::MetaBuf) {
        out.put_u32(self.ext.0);
        out.put_u64(self.universe);
        out.put_u64(self.words_per_slot);
        out.put_len(self.slots);
    }

    /// Rebuilds the catalog over a reopened disk.
    pub(crate) fn restore_meta(
        meta: &mut psi_store::MetaCursor,
        disk: &Disk,
    ) -> Result<Self, psi_store::StoreError> {
        let ext = psi_store::check_extent(disk, meta.get_u32()?, "dense catalog")?;
        Ok(DenseCatalog {
            ext,
            universe: meta.get_u64()?,
            words_per_slot: meta.get_u64()?,
            slots: meta.get_u64()? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_io::IoConfig;

    #[test]
    fn build_and_or_roundtrip() {
        let mut disk = Disk::new(IoConfig::with_block_bits(128));
        let cat = DenseCatalog::build(&mut disk, 100, vec![vec![0u64, 64, 99], vec![1, 2]]);
        assert_eq!(cat.slots(), 2);
        let io = IoSession::untracked();
        let mut acc = cat.new_acc();
        cat.or_into(&disk, 0, &mut acc, &io).unwrap();
        assert_eq!(cat.acc_positions(&acc), vec![0, 64, 99]);
        cat.or_into(&disk, 1, &mut acc, &io).unwrap();
        assert_eq!(cat.acc_positions(&acc), vec![0, 1, 2, 64, 99]);
    }

    #[test]
    fn and_not_masks_out() {
        let mut disk = Disk::new(IoConfig::with_block_bits(128));
        let cat = DenseCatalog::build(&mut disk, 10, vec![vec![1u64, 3, 5], vec![3u64]]);
        let io = IoSession::untracked();
        let mut acc = cat.new_acc();
        cat.or_into(&disk, 0, &mut acc, &io).unwrap();
        cat.and_not_into(&disk, 1, &mut acc, &io).unwrap();
        assert_eq!(cat.acc_positions(&acc), vec![1, 5]);
    }

    #[test]
    fn and_intersects() {
        let mut disk = Disk::new(IoConfig::with_block_bits(128));
        let cat = DenseCatalog::build(&mut disk, 10, vec![vec![1u64, 3, 5], vec![3u64, 5, 7]]);
        let io = IoSession::untracked();
        let mut acc = cat.new_acc();
        cat.or_into(&disk, 0, &mut acc, &io).unwrap();
        cat.and_into(&disk, 1, &mut acc, &io).unwrap();
        assert_eq!(cat.acc_positions(&acc), vec![3, 5]);
    }

    #[test]
    fn reading_one_slot_charges_its_blocks_only() {
        // universe 128 bits -> 2 words per slot; block = 128 bits, so one
        // slot = exactly one block.
        let mut disk = Disk::new(IoConfig::with_block_bits(128));
        let cat = DenseCatalog::build(&mut disk, 128, (0..8).map(|i| vec![i as u64]));
        let io = IoSession::new();
        let mut acc = cat.new_acc();
        cat.or_into(&disk, 3, &mut acc, &io).unwrap();
        assert_eq!(io.stats().reads, 1);
        assert_eq!(cat.size_bits(&disk), 8 * 128);
    }
}
