//! Slotted storage for one materialized cut.
//!
//! A materialized cut stores "the bitmaps of all the internal nodes at each
//! materialized level by concatenating them in their left-to-right order"
//! (§2.2). Statically that is a plain concatenation; the dynamic variants
//! (§4.1) additionally need to *append* gamma codes to bitmaps in the
//! middle of the stream, so each bitmap occupies a **slot** with optional
//! tail slack. Slots for rebuilt subtrees are re-allocated at the end of
//! the extent and the old ones tombstoned; when dead bits outweigh live
//! bits the owner compacts the stream (the engine folds this into its
//! rebuild machinery). All reads and writes are charged to the caller's
//! [`IoSession`].
//!
//! Each slot additionally persists a **skip directory** — one
//! `(position, bit offset)` sample per [`SKIP_SAMPLE`] encoded elements —
//! in a side extent, written at build/rebuild time and extended by
//! appends. Directory reads are charged like any other read; they buy
//! indexed verbatim copies ([`CutStream::copy_bitmap_indexed`] lifts the
//! samples with the payload so the returned bitmap supports galloping set
//! operations without a decode pass).

use psi_bits::skip::{self, SkipDirectory, SkipEntry};
use psi_bits::{codes, BitBuf, GapBitmap, GapDecoder, SKIP_ENTRY_BITS, SKIP_SAMPLE};
use psi_io::{Disk, DiskReader, ExtentId, IoSession};

/// Allocation policy for slot slack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slack {
    /// No slack: slots are exactly their payload (static structures).
    None,
    /// Tail slack proportional to the payload plus a constant, so a slot
    /// absorbs appends until weight-balance rebuilds reach it.
    Proportional,
}

impl Slack {
    fn cap_for(self, len: u64) -> u64 {
        match self {
            Slack::None => len,
            Slack::Proportional => 2 * len + 256,
        }
    }

    /// Reserved directory entries for a slot that starts with `entries`
    /// samples (a little slack absorbs appended samples until the owning
    /// subtree is rebuilt; an exhausted reservation merely truncates the
    /// directory — operations past the last sample decode linearly).
    /// Slots too small to earn a directory reserve nothing.
    fn dir_cap_for(self, entries: u64) -> u64 {
        match (self, entries) {
            (_, 0) => 0,
            (Slack::None, e) => e,
            (Slack::Proportional, e) => e + 2,
        }
    }
}

/// Slot-size floor for persisting directories (the entropy bound
/// `O(nH₀ + n)` must absorb them, so they are charged only where they
/// pay: `≤ 1.25` bits per element on slots of 128+ elements).
pub use psi_bits::skip::DIR_MIN_COUNT;

/// One bitmap slot within the cut stream.
#[derive(Debug, Clone)]
pub struct Slot {
    /// Bit offset of the code stream.
    pub off: u64,
    /// Occupied payload bits.
    pub len: u64,
    /// Reserved bits (`≥ len`).
    pub cap: u64,
    /// Number of encoded positions.
    pub count: u64,
    /// First encoded position (with `last_pos`, the slot's span — the
    /// merge planner reads density off this metadata before any decode).
    pub first_pos: Option<u64>,
    /// Last encoded position (needed to append the next gap code).
    pub last_pos: Option<u64>,
    /// Bit offset of the skip directory in the side extent.
    pub dir_off: u64,
    /// Written directory entries.
    pub dir_entries: u64,
    /// Reserved directory entries (`≥ dir_entries`).
    pub dir_cap: u64,
    /// Whether the last persisted directory entry still carries the
    /// *exact* occupancy word written at build time. Appends extend the
    /// stream past that entry's summarized window, so the first append
    /// zeroes the tail entry's occupancy on disk ("no information") and
    /// clears this flag — at most one extra positioned write over the
    /// slot's whole append lifetime.
    pub dir_tail_exact: bool,
    /// Tombstone flag.
    pub dead: bool,
}

/// A cut's slotted bitmap stream.
#[derive(Debug)]
pub struct CutStream {
    /// Tree depth this cut materializes.
    pub level: u32,
    ext: ExtentId,
    /// Side extent holding every slot's skip directory.
    dir_ext: ExtentId,
    slots: Vec<Slot>,
    dead_bits: u64,
    slack: Slack,
}

impl CutStream {
    /// Creates an empty cut stream at tree depth `level`.
    pub fn new(disk: &mut Disk, level: u32, slack: Slack) -> Self {
        CutStream {
            level,
            ext: disk.alloc(),
            dir_ext: disk.alloc(),
            slots: Vec::new(),
            dead_bits: 0,
            slack,
        }
    }

    /// Number of slots ever allocated (including dead ones).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Slot metadata.
    pub fn slot(&self, idx: usize) -> &Slot {
        &self.slots[idx]
    }

    /// Appends a new bitmap slot holding `positions` (strictly increasing)
    /// at the end of the stream, reserving slack per policy. Returns the
    /// slot index. Writes are charged to `io`.
    pub fn push_bitmap<I: IntoIterator<Item = u64>>(
        &mut self,
        disk: &mut Disk,
        positions: I,
        io: &IoSession,
    ) -> usize {
        let off = disk.extent_bits(self.ext);
        let mut w = disk.writer(self.ext, io);
        let mut count = 0u64;
        let mut first_pos = None;
        let mut last_pos = None;
        let mut samples: Vec<SkipEntry> = Vec::new();
        for p in positions {
            match last_pos {
                None => codes::put_gamma(&mut w, p + 1),
                Some(prev) => {
                    assert!(p > prev, "positions must be strictly increasing");
                    codes::put_gamma(&mut w, p - prev);
                }
            }
            if count.is_multiple_of(u64::from(SKIP_SAMPLE)) {
                samples.push(SkipEntry {
                    pos: p,
                    bit_off: w.pos() - off,
                    occ: SkipEntry::OCC_SELF,
                });
            } else if let Some(last) = samples.last_mut() {
                last.cover(p);
            }
            first_pos.get_or_insert(p);
            last_pos = Some(p);
            count += 1;
        }
        let len = w.pos() - off;
        let cap = self.slack.cap_for(len);
        if cap > len {
            w.write_zeros(cap - len);
        }
        // Persist the skip directory in the side extent, with entry slack
        // mirroring the payload's policy. Tiny slots skip it entirely.
        if count < DIR_MIN_COUNT {
            samples.clear();
        }
        let dir_off = disk.extent_bits(self.dir_ext);
        let dir_entries = samples.len() as u64;
        let dir_cap = self.slack.dir_cap_for(dir_entries);
        let mut dw = disk.writer(self.dir_ext, io);
        for e in &samples {
            e.write_to(&mut dw);
        }
        if dir_cap > dir_entries {
            dw.write_zeros((dir_cap - dir_entries) * SKIP_ENTRY_BITS);
        }
        self.slots.push(Slot {
            off,
            len,
            cap,
            count,
            first_pos,
            last_pos,
            dir_off,
            dir_entries,
            dir_cap,
            dir_tail_exact: dir_entries > 0,
            dead: false,
        });
        self.slots.len() - 1
    }

    /// Appends one position to slot `idx` in place. Returns `false`
    /// (without writing) when the slot's slack cannot hold the gap code —
    /// the signal for the engine to rebuild the owning subtree.
    pub fn append_position(
        &mut self,
        disk: &mut Disk,
        idx: usize,
        pos: u64,
        io: &IoSession,
    ) -> bool {
        let slot = &self.slots[idx];
        assert!(!slot.dead, "append to dead slot");
        let code = match slot.last_pos {
            None => pos + 1,
            Some(prev) => {
                assert!(
                    pos > prev,
                    "appended position {pos} not past slot tail {prev}"
                );
                pos - prev
            }
        };
        let need = codes::gamma_len(code);
        if slot.len + need > slot.cap {
            return false;
        }
        let at = slot.off + slot.len;
        let mut w = disk.writer_at(self.ext, at, io);
        codes::put_gamma(&mut w, code);
        // The appended element's index is the old count; when it lands on
        // a sampling boundary, extend the persisted directory (or let it
        // truncate when the reservation is spent — rebuilds re-sample).
        let sample_due = slot.count.is_multiple_of(u64::from(SKIP_SAMPLE));
        let slot = &mut self.slots[idx];
        slot.len += need;
        slot.count += 1;
        slot.first_pos.get_or_insert(pos);
        slot.last_pos = Some(pos);
        // The appended element may fall inside the window summarized by
        // the build-time tail entry, so its exact occupancy word is no
        // longer trustworthy: demote it to "no information" on disk once.
        if slot.dir_tail_exact {
            slot.dir_tail_exact = false;
            let occ_at =
                slot.dir_off + (slot.dir_entries - 1) * SKIP_ENTRY_BITS + skip::SKIP_OCC_OFF;
            let mut dw = disk.writer_at(self.dir_ext, occ_at, io);
            dw.overwrite_bits(0, 64);
        }
        if sample_due && slot.dir_entries < slot.dir_cap {
            let entry = SkipEntry {
                pos,
                bit_off: slot.len,
                // Later appends land in this entry's window without
                // touching the directory, so it can never claim exact
                // coverage.
                occ: 0,
            };
            let at = slot.dir_off + slot.dir_entries * SKIP_ENTRY_BITS;
            slot.dir_entries += 1;
            let mut dw = disk.writer_at(self.dir_ext, at, io);
            entry.write_to(&mut dw);
        }
        true
    }

    /// Reads slot `idx`'s persisted skip directory (sequential, charged).
    pub fn read_directory(&self, disk: &Disk, idx: usize, io: &IoSession) -> SkipDirectory {
        let slot = &self.slots[idx];
        assert!(!slot.dead, "directory read of dead slot");
        let mut r = disk.reader(self.dir_ext, slot.dir_off, io);
        SkipDirectory::read_from_source(&mut r, SKIP_SAMPLE, slot.dir_entries)
    }

    /// Streaming decoder over slot `idx`, charging `io`.
    pub fn decoder<'a>(
        &self,
        disk: &'a Disk,
        idx: usize,
        io: &'a IoSession,
    ) -> GapDecoder<DiskReader<'a>> {
        let slot = &self.slots[idx];
        assert!(!slot.dead, "decode of dead slot");
        GapDecoder::new(disk.reader(self.ext, slot.off, io), slot.count)
    }

    /// Lifts slot `idx` verbatim into a [`GapBitmap`] over `universe`,
    /// charging `io` for the bits read. A query whose canonical cover is a
    /// single stored bitmap already holds its answer in the exact output
    /// encoding, so this replaces decode-merge-reencode with a word copy.
    pub fn copy_bitmap(&self, disk: &Disk, idx: usize, io: &IoSession, universe: u64) -> GapBitmap {
        let slot = &self.slots[idx];
        assert!(!slot.dead, "copy of dead slot");
        let mut r = disk.reader(self.ext, slot.off, io);
        let mut bits = BitBuf::with_capacity(slot.len);
        bits.extend_from_source(&mut r, slot.len);
        GapBitmap::from_code_bits(bits, slot.count, universe)
    }

    /// [`Self::copy_bitmap`] plus a lift of the persisted skip directory
    /// (charged against the side extent), so the returned bitmap answers
    /// membership/rank/select and gallops in `O(lg(z/K) + K)` without a
    /// decode pass. Payload charges are identical to [`Self::copy_bitmap`];
    /// the directory costs exactly its own blocks on top.
    pub fn copy_bitmap_indexed(
        &self,
        disk: &Disk,
        idx: usize,
        io: &IoSession,
        universe: u64,
    ) -> GapBitmap {
        let slot = &self.slots[idx];
        assert!(!slot.dead, "copy of dead slot");
        let skip = self.read_directory(disk, idx, io);
        let mut r = disk.reader(self.ext, slot.off, io);
        let mut bits = BitBuf::with_capacity(slot.len);
        bits.extend_from_source(&mut r, slot.len);
        GapBitmap::from_code_bits_indexed(bits, slot.count, universe, skip)
    }

    /// [`Self::copy_bitmap_indexed`] when the result is large enough for
    /// galloping to repay the directory blocks
    /// ([`psi_bits::skip::SKIP_LIFT_MIN`]), else the plain verbatim copy.
    pub fn copy_bitmap_auto(
        &self,
        disk: &Disk,
        idx: usize,
        io: &IoSession,
        universe: u64,
    ) -> GapBitmap {
        if self.slots[idx].count >= skip::SKIP_LIFT_MIN {
            self.copy_bitmap_indexed(disk, idx, io, universe)
        } else {
            self.copy_bitmap(disk, idx, io, universe)
        }
    }

    /// Tombstones slot `idx` (its bits become dead space until compaction).
    pub fn kill(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        if !slot.dead {
            slot.dead = true;
            self.dead_bits += slot.cap;
        }
    }

    /// Fraction of the extent that is tombstoned.
    pub fn dead_fraction(&self, disk: &Disk) -> f64 {
        let total = disk.extent_bits(self.ext);
        if total == 0 {
            0.0
        } else {
            self.dead_bits as f64 / total as f64
        }
    }

    /// Live payload bits (excluding slack and tombstones).
    pub fn live_bits(&self) -> u64 {
        self.slots.iter().filter(|s| !s.dead).map(|s| s.len).sum()
    }

    /// Total extent bits (live + slack + dead).
    pub fn extent_bits(&self, disk: &Disk) -> u64 {
        disk.extent_bits(self.ext)
    }

    /// Drops all slots and storage (used by engine-level rebuilds, which
    /// recreate cuts from scratch).
    pub fn clear(&mut self, disk: &mut Disk) {
        disk.free(self.ext);
        disk.free(self.dir_ext);
        self.slots.clear();
        self.dead_bits = 0;
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl Slack {
    /// One-byte tag for serialization.
    pub(crate) fn persist_tag(self) -> u8 {
        match self {
            Slack::None => 0,
            Slack::Proportional => 1,
        }
    }

    /// Decodes a serialized tag.
    pub(crate) fn from_persist_tag(tag: u8) -> Result<Slack, psi_store::StoreError> {
        match tag {
            0 => Ok(Slack::None),
            1 => Ok(Slack::Proportional),
            t => Err(psi_store::StoreError::Meta {
                what: format!("slack tag {t}"),
            }),
        }
    }
}

impl CutStream {
    /// Serializes the cut's slot directory (the payload stays on disk).
    pub(crate) fn persist_meta(&self, out: &mut psi_store::MetaBuf) {
        out.put_u32(self.level);
        out.put_u32(self.ext.0);
        out.put_u32(self.dir_ext.0);
        out.put_u64(self.dead_bits);
        out.put_u8(self.slack.persist_tag());
        out.put_len(self.slots.len());
        for s in &self.slots {
            out.put_u64(s.off);
            out.put_u64(s.len);
            out.put_u64(s.cap);
            out.put_u64(s.count);
            out.put_opt_u64(s.first_pos);
            out.put_opt_u64(s.last_pos);
            out.put_u64(s.dir_off);
            out.put_u64(s.dir_entries);
            out.put_u64(s.dir_cap);
            out.put_bool(s.dir_tail_exact);
            out.put_bool(s.dead);
        }
    }

    /// Rebuilds the cut from serialized metadata; extent ids are
    /// validated against the reopened disk.
    pub(crate) fn restore_meta(
        meta: &mut psi_store::MetaCursor,
        disk: &Disk,
    ) -> Result<CutStream, psi_store::StoreError> {
        let level = meta.get_u32()?;
        let ext = psi_store::check_extent(disk, meta.get_u32()?, "cut")?;
        let dir_ext = psi_store::check_extent(disk, meta.get_u32()?, "cut directory")?;
        let dead_bits = meta.get_u64()?;
        let slack = Slack::from_persist_tag(meta.get_u8()?)?;
        // Minimum encoded slot: 7 u64 fields + two absent options + two
        // flags = 60 bytes (an empty slot omits first/last_pos).
        let len = meta.get_len(60)?;
        let mut slots = Vec::with_capacity(len);
        for _ in 0..len {
            slots.push(Slot {
                off: meta.get_u64()?,
                len: meta.get_u64()?,
                cap: meta.get_u64()?,
                count: meta.get_u64()?,
                first_pos: meta.get_opt_u64()?,
                last_pos: meta.get_opt_u64()?,
                dir_off: meta.get_u64()?,
                dir_entries: meta.get_u64()?,
                dir_cap: meta.get_u64()?,
                dir_tail_exact: meta.get_bool()?,
                dead: meta.get_bool()?,
            });
        }
        Ok(CutStream {
            level,
            ext,
            dir_ext,
            slots,
            dead_bits,
            slack,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_io::IoConfig;

    fn setup() -> (Disk, IoSession) {
        (
            Disk::new(IoConfig::with_block_bits(256)),
            IoSession::untracked(),
        )
    }

    #[test]
    fn push_and_decode_roundtrip() {
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 1, Slack::None);
        let a = cut.push_bitmap(&mut disk, vec![0u64, 3, 10], &io);
        let b = cut.push_bitmap(&mut disk, vec![5u64], &io);
        assert_eq!(
            cut.decoder(&disk, a, &io).collect::<Vec<_>>(),
            vec![0, 3, 10]
        );
        assert_eq!(cut.decoder(&disk, b, &io).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn slack_none_packs_tightly() {
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 1, Slack::None);
        let a = cut.push_bitmap(&mut disk, vec![0u64, 1, 2], &io);
        let slot = cut.slot(a);
        assert_eq!(slot.cap, slot.len);
        // gamma(1) + gamma(1) + gamma(1) = 3 bits.
        assert_eq!(slot.len, 3);
    }

    #[test]
    fn append_within_slack_succeeds() {
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 1, Slack::Proportional);
        let a = cut.push_bitmap(&mut disk, vec![10u64], &io);
        assert!(cut.append_position(&mut disk, a, 20, &io));
        assert!(cut.append_position(&mut disk, a, 21, &io));
        assert_eq!(
            cut.decoder(&disk, a, &io).collect::<Vec<_>>(),
            vec![10, 20, 21]
        );
        assert_eq!(cut.slot(a).count, 3);
    }

    #[test]
    fn append_to_empty_slot_starts_stream() {
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 2, Slack::Proportional);
        let a = cut.push_bitmap(&mut disk, Vec::<u64>::new(), &io);
        assert!(cut.append_position(&mut disk, a, 7, &io));
        assert_eq!(cut.decoder(&disk, a, &io).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn append_overflow_reports_false() {
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 1, Slack::None);
        let a = cut.push_bitmap(&mut disk, vec![1u64], &io);
        assert!(!cut.append_position(&mut disk, a, 1000, &io));
        // Slot unchanged.
        assert_eq!(cut.decoder(&disk, a, &io).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn kill_accumulates_dead_bits() {
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 1, Slack::None);
        let a = cut.push_bitmap(&mut disk, (0..64u64).map(|i| i * 3), &io);
        let _b = cut.push_bitmap(&mut disk, vec![0u64], &io);
        assert_eq!(cut.dead_fraction(&disk), 0.0);
        cut.kill(a);
        assert!(cut.dead_fraction(&disk) > 0.9);
        cut.kill(a); // idempotent
        assert!(cut.dead_fraction(&disk) <= 1.0);
    }

    #[test]
    fn copy_bitmap_is_verbatim_and_charged_like_decode() {
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 1, Slack::None);
        let positions: Vec<u64> = (0..200u64).map(|i| i * 7).collect();
        let a = cut.push_bitmap(&mut disk, positions.iter().copied(), &io);
        let decode_io = IoSession::new();
        let decoded: Vec<u64> = cut.decoder(&disk, a, &decode_io).collect();
        let copy_io = IoSession::new();
        let copied = cut.copy_bitmap(&disk, a, &copy_io, 1400);
        assert_eq!(copied.to_vec(), decoded);
        assert_eq!(copied.count(), 200);
        assert_eq!(copied.universe(), 1400);
        assert_eq!(copied.size_bits(), cut.slot(a).len);
        // The copy reads the same stream, so it charges the same blocks.
        assert_eq!(copy_io.stats().reads, decode_io.stats().reads);
        assert_eq!(copy_io.stats().bits_read, decode_io.stats().bits_read);
    }

    #[test]
    fn copy_bitmap_indexed_charges_payload_parity_plus_directory() {
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 1, Slack::None);
        let positions: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
        let a = cut.push_bitmap(&mut disk, positions.iter().copied(), &io);
        let plain_io = IoSession::new();
        let plain = cut.copy_bitmap(&disk, a, &plain_io, 1500);
        let indexed_io = IoSession::new();
        let indexed = cut.copy_bitmap_indexed(&disk, a, &indexed_io, 1500);
        assert_eq!(indexed, plain);
        // Payload parity: the extra charges are exactly the directory's
        // blocks and bits, nothing else.
        let slot = cut.slot(a);
        let dir_blocks = {
            let b = 256; // block bits of setup()
            let first = slot.dir_off / b;
            let last = (slot.dir_off + slot.dir_cap * SKIP_ENTRY_BITS - 1) / b;
            last - first + 1
        };
        assert_eq!(
            indexed_io.stats().reads,
            plain_io.stats().reads + dir_blocks
        );
        assert_eq!(
            indexed_io.stats().bits_read,
            plain_io.stats().bits_read + slot.dir_entries * SKIP_ENTRY_BITS
        );
        // The lifted directory gallops without further decoding.
        assert!(indexed.contains(3 * 499) && !indexed.contains(3 * 499 - 1));
        assert_eq!(indexed.rank(750), 250);
        assert_eq!(indexed.select(499), Some(1497));
    }

    #[test]
    fn appends_extend_the_persisted_directory() {
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 1, Slack::Proportional);
        let a = cut.push_bitmap(&mut disk, (0..180u64).map(|i| 2 * i), &io);
        assert_eq!(cut.slot(a).dir_entries, 3); // samples at 0, 64, 128
                                                // Push the count across the next sampling boundary (index 192).
        for p in 0..30u64 {
            assert!(cut.append_position(&mut disk, a, 400 + p, &io));
        }
        let slot = cut.slot(a);
        assert_eq!(slot.count, 210);
        assert_eq!(slot.dir_entries, 4);
        assert_eq!(slot.first_pos, Some(0));
        let dir = cut.read_directory(&disk, a, &io);
        assert_eq!(dir.len(), 4);
        assert_eq!(dir.entries()[3].pos, 400 + 12); // element index 192
                                                    // The lifted directory agrees with the stream.
        let copied = cut.copy_bitmap_indexed(&disk, a, &io, 4096);
        assert_eq!(copied.to_vec().len(), 210);
        assert!(copied.contains(358) && !copied.contains(359)); // pushed evens
        assert!(copied.contains(429) && !copied.contains(430)); // appended run
    }

    #[test]
    fn tiny_slots_persist_no_directory() {
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 1, Slack::Proportional);
        let a = cut.push_bitmap(&mut disk, 0..(DIR_MIN_COUNT - 1), &io);
        let slot = cut.slot(a);
        assert_eq!((slot.dir_entries, slot.dir_cap), (0, 0));
        // The indexed copy still works: an empty directory means every
        // operation takes the linear path.
        let copied = cut.copy_bitmap_indexed(&disk, a, &io, 1000);
        assert_eq!(copied.count(), DIR_MIN_COUNT - 1);
        assert!(copied.contains(5));
    }

    #[test]
    fn exhausted_directory_slack_truncates_but_stays_correct() {
        // A sparse slot (long codes, few samples) whose payload slack then
        // absorbs a dense run of appends (1-bit codes) out-samples its
        // directory reservation: the directory truncates, correctness
        // survives via the linear tail.
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 1, Slack::Proportional);
        let sparse: Vec<u64> = (0..128u64).map(|i| i * 10_000).collect();
        let a = cut.push_bitmap(&mut disk, sparse.iter().copied(), &io);
        let cap = cut.slot(a).dir_cap;
        assert_eq!(cap, 4); // 2 entries + 2
        let mut next = 128 * 10_000;
        while cut.append_position(&mut disk, a, next, &io) {
            next += 1;
        }
        let slot = cut.slot(a);
        assert!(
            slot.count.div_ceil(u64::from(SKIP_SAMPLE)) > cap,
            "appends must out-sample the reservation (count {})",
            slot.count
        );
        assert_eq!(slot.dir_entries, cap);
        let copied = cut.copy_bitmap_indexed(&disk, a, &io, next + 1);
        assert_eq!(copied.count(), slot.count);
        // Operations past the last sample fall back to linear decode.
        assert_eq!(copied.select(slot.count - 1), Some(next - 1));
        assert!(copied.contains(next - 1) && !copied.contains(next));
    }

    #[test]
    fn writes_are_charged() {
        let mut disk = Disk::new(IoConfig::with_block_bits(128));
        let io = IoSession::new();
        let mut cut = CutStream::new(&mut disk, 1, Slack::None);
        cut.push_bitmap(&mut disk, (0..100u64).map(|i| i * 50), &io);
        assert!(io.stats().writes > 0);
    }
}
