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
//! Each gamma slot additionally persists a **skip directory** — one
//! `(position, bit offset)` sample per [`SKIP_SAMPLE`] encoded elements —
//! in a side extent, written at build/rebuild time and extended by
//! appends. Directory reads are charged like any other read; they buy
//! indexed verbatim copies ([`CutStream::copy_bitmap_indexed`] lifts the
//! samples with the payload so the returned bitmap supports galloping set
//! operations without a decode pass).
//!
//! Each slot of a static stream ([`Slack::None`]) records a **codec**
//! chosen at build time ([`SlotCodec`]): gamma codes plus directory, or
//! plain words over the slot's 64-aligned span when those take fewer
//! bits than the gamma codes alone. Dense slots of low-cardinality
//! columns store as words, which lift as a word copy and need no
//! directory. Every reader dispatches on the codec, so no caller learns
//! the format.

use psi_bits::skip::{self, SkipDirectory, SkipEntry};
use psi_bits::{codes, kernel, BitBuf, GapBitmap, GapDecoder, SKIP_ENTRY_BITS, SKIP_SAMPLE};
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

/// How a slot stores its positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotCodec {
    /// Gamma codes of the gaps (the first element as `gamma(p₀ + 1)`),
    /// with a persisted skip directory once the slot holds
    /// [`DIR_MIN_COUNT`] elements.
    Gamma,
    /// LSB-first 64-bit words covering universe words `⌊first/64⌋` to
    /// `⌊last/64⌋`: bit `j` of the `i`-th stored word set means position
    /// `64(⌊first/64⌋ + i) + j` is in the slot. No directory.
    Words,
}

impl SlotCodec {
    /// The cheaper codec for strictly increasing `positions`, with their
    /// gamma payload bits: words when they take fewer bits than the gamma
    /// codes alone (ties stay gamma). The gamma slot would persist a
    /// directory on top, so a words slot stores fewer bits in every case;
    /// comparing against the codes alone also keeps every lift's charge
    /// from growing, since covers of several slots, and small single-slot
    /// covers, lift the codes without the directory.
    ///
    /// # Panics
    /// Panics if the positions are not strictly increasing.
    fn cheaper(positions: &[u64]) -> (SlotCodec, u64) {
        let (Some(&first), Some(&last)) = (positions.first(), positions.last()) else {
            return (SlotCodec::Gamma, 0);
        };
        let mut gamma_bits = codes::gamma_len(first + 1);
        for w in positions.windows(2) {
            assert!(w[1] > w[0], "positions must be strictly increasing");
            gamma_bits += codes::gamma_len(w[1] - w[0]);
        }
        let word_bits = (last / 64 - first / 64 + 1) * 64;
        let codec = if word_bits < gamma_bits {
            SlotCodec::Words
        } else {
            SlotCodec::Gamma
        };
        (codec, gamma_bits)
    }

    /// One-byte tag for serialization.
    fn persist_tag(self) -> u8 {
        match self {
            SlotCodec::Gamma => 0,
            SlotCodec::Words => 1,
        }
    }

    /// Decodes a serialized tag.
    fn from_persist_tag(tag: u8) -> Result<SlotCodec, psi_store::StoreError> {
        match tag {
            0 => Ok(SlotCodec::Gamma),
            1 => Ok(SlotCodec::Words),
            t => Err(psi_store::StoreError::Meta {
                what: format!("slot codec tag {t}"),
            }),
        }
    }
}

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
    /// How the payload is stored.
    pub codec: SlotCodec,
}

impl Slot {
    /// Position of bit 0 of a words slot's first word.
    fn words_base(&self) -> u64 {
        self.first_pos.expect("a words slot is non-empty") & !63
    }
}

/// Streaming decoder over one slot of either codec, charging its session
/// for exactly the bits it reads: gamma codes, or whole words walked by
/// set bits.
#[derive(Debug)]
pub struct SlotDecoder<'a>(SlotWalk<'a>);

#[derive(Debug)]
enum SlotWalk<'a> {
    Gamma(GapDecoder<DiskReader<'a>>),
    Words {
        src: DiskReader<'a>,
        /// Position of bit 0 of `word`.
        base: u64,
        /// Bits of the current word not yet returned.
        word: u64,
        remaining: u64,
    },
}

impl Iterator for SlotDecoder<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        match &mut self.0 {
            SlotWalk::Gamma(dec) => dec.next(),
            SlotWalk::Words {
                src,
                base,
                word,
                remaining,
            } => {
                if *remaining == 0 {
                    return None;
                }
                while *word == 0 {
                    *word = src.read_bits(64);
                    *base = base.wrapping_add(64);
                }
                let p = *base + u64::from(word.trailing_zeros());
                *word &= *word - 1;
                *remaining -= 1;
                Some(p)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            SlotWalk::Gamma(dec) => dec.size_hint(),
            SlotWalk::Words { remaining, .. } => (*remaining as usize, Some(*remaining as usize)),
        }
    }
}

impl ExactSizeIterator for SlotDecoder<'_> {}

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
    /// Where the next slot, and its directory, would start if every slot
    /// of this static stream were gamma-coded. Slots are placed there
    /// less as many whole blocks as the space saved so far allows (see
    /// [`place`]). Not persisted: a reopened stream continues from its
    /// extent ends.
    gamma_end: u64,
    gamma_dir_end: u64,
}

/// Offset for the next slot of `ext`: `gamma_at`, its offset had every
/// earlier slot been gamma-coded, less as many whole blocks as fit in the
/// gap to the extent's end, which is padded with zeros. Each slot so keeps
/// its offset within a block, and no slot moves back by fewer blocks than
/// one before it. A slot no longer than its gamma codes then touches no
/// more blocks than they would, and two slots that shared a block still
/// do, so no cover reads more blocks than under the all-gamma layout,
/// while every whole block saved is reclaimed.
fn place(disk: &mut Disk, ext: ExtentId, gamma_at: u64, io: &IoSession) {
    let end = disk.extent_bits(ext);
    debug_assert!(gamma_at >= end, "the all-gamma layout is never shorter");
    let pad = gamma_at.saturating_sub(end) % disk.block_bits();
    if pad > 0 {
        disk.writer(ext, io).write_zeros(pad);
    }
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
            gamma_end: 0,
            gamma_dir_end: 0,
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
    ///
    /// A static stream ([`Slack::None`]) writes whichever codec takes
    /// fewer bits ([`SlotCodec`]); a stream with slack always writes
    /// gamma, whose codes appends can extend in place.
    pub fn push_bitmap<I: IntoIterator<Item = u64>>(
        &mut self,
        disk: &mut Disk,
        positions: I,
        io: &IoSession,
    ) -> usize {
        if self.slack == Slack::Proportional {
            return self.push_gamma(disk, positions, io);
        }
        let positions: Vec<u64> = positions.into_iter().collect();
        let (codec, gamma_bits) = SlotCodec::cheaper(&positions);
        let count = positions.len() as u64;
        let gamma_dir_bits = if count >= DIR_MIN_COUNT {
            count.div_ceil(u64::from(SKIP_SAMPLE)) * SKIP_ENTRY_BITS
        } else {
            0
        };
        place(disk, self.ext, self.gamma_end, io);
        self.gamma_end += gamma_bits;
        if codec == SlotCodec::Gamma {
            place(disk, self.dir_ext, self.gamma_dir_end, io);
        }
        self.gamma_dir_end += gamma_dir_bits;
        match codec {
            SlotCodec::Gamma => self.push_gamma(disk, positions, io),
            SlotCodec::Words => self.push_words(disk, &positions, io),
        }
    }

    /// Writes a words slot over the 64-aligned span of `positions`
    /// (non-empty, strictly increasing).
    fn push_words(&mut self, disk: &mut Disk, positions: &[u64], io: &IoSession) -> usize {
        let (first, last) = (positions[0], positions[positions.len() - 1]);
        let base_word = first / 64;
        let mut words = vec![0u64; (last / 64 - base_word + 1) as usize];
        for &p in positions {
            words[(p / 64 - base_word) as usize] |= 1 << (p % 64);
        }
        let off = disk.extent_bits(self.ext);
        let len = 64 * words.len() as u64;
        disk.writer(self.ext, io).write_bulk(&words, len);
        self.slots.push(Slot {
            off,
            len,
            cap: len,
            count: positions.len() as u64,
            first_pos: Some(first),
            last_pos: Some(last),
            dir_off: disk.extent_bits(self.dir_ext),
            dir_entries: 0,
            dir_cap: 0,
            dir_tail_exact: false,
            dead: false,
            codec: SlotCodec::Words,
        });
        self.slots.len() - 1
    }

    /// Writes a gamma slot (plus its directory, once large enough).
    fn push_gamma<I: IntoIterator<Item = u64>>(
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
            codec: SlotCodec::Gamma,
        });
        self.slots.len() - 1
    }

    /// Appends one position to slot `idx` in place. Returns `false`
    /// (without writing) when the slot's slack cannot hold the gap code —
    /// the signal for the engine to rebuild the owning subtree. A words
    /// slot (only static streams have them) never has room.
    pub fn append_position(
        &mut self,
        disk: &mut Disk,
        idx: usize,
        pos: u64,
        io: &IoSession,
    ) -> bool {
        let slot = &self.slots[idx];
        assert!(!slot.dead, "append to dead slot");
        if slot.codec == SlotCodec::Words {
            assert_eq!(self.slack, Slack::None, "streams with slack stay gamma");
            return false;
        }
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
    /// A words slot has none: the empty directory, reading nothing.
    pub fn read_directory(&self, disk: &Disk, idx: usize, io: &IoSession) -> SkipDirectory {
        let slot = &self.slots[idx];
        assert!(!slot.dead, "directory read of dead slot");
        if slot.codec == SlotCodec::Words {
            return SkipDirectory::new(SKIP_SAMPLE);
        }
        let mut r = disk.reader(self.dir_ext, slot.dir_off, io);
        SkipDirectory::read_from_source(&mut r, SKIP_SAMPLE, slot.dir_entries)
    }

    /// Streaming decoder over slot `idx`, charging `io`.
    pub fn decoder<'a>(&self, disk: &'a Disk, idx: usize, io: &'a IoSession) -> SlotDecoder<'a> {
        let slot = &self.slots[idx];
        assert!(!slot.dead, "decode of dead slot");
        let src = disk.reader(self.ext, slot.off, io);
        SlotDecoder(match slot.codec {
            SlotCodec::Gamma => SlotWalk::Gamma(GapDecoder::new(src, slot.count)),
            SlotCodec::Words => SlotWalk::Words {
                src,
                base: slot.words_base().wrapping_sub(64),
                word: 0,
                remaining: slot.count,
            },
        })
    }

    /// Lifts slot `idx` verbatim into a [`GapBitmap`] over `universe`,
    /// charging `io` for the bits read. A query whose canonical cover is a
    /// single stored bitmap already holds its answer in the exact output
    /// encoding, so this replaces decode-merge-reencode with a word copy.
    /// A words slot lifts into the words form (`kernel/lift_words`).
    pub fn copy_bitmap(&self, disk: &Disk, idx: usize, io: &IoSession, universe: u64) -> GapBitmap {
        let slot = &self.slots[idx];
        assert!(!slot.dead, "copy of dead slot");
        let bits = BitBuf::lift(&mut disk.reader(self.ext, slot.off, io), slot.len);
        match slot.codec {
            SlotCodec::Words => {
                kernel::metrics().lift_words.inc();
                GapBitmap::from_plain_words(bits.into_words(), slot.words_base(), universe)
            }
            SlotCodec::Gamma => GapBitmap::from_code_bits(bits, slot.count, universe),
        }
    }

    /// [`Self::copy_bitmap`] plus a lift of the persisted skip directory
    /// (charged against the side extent), so the returned bitmap answers
    /// membership/rank/select and gallops in `O(lg(z/K) + K)` without a
    /// decode pass. Payload charges are identical to [`Self::copy_bitmap`];
    /// the directory costs exactly its own blocks on top. A words slot
    /// has no directory and lifts exactly as [`Self::copy_bitmap`].
    pub fn copy_bitmap_indexed(
        &self,
        disk: &Disk,
        idx: usize,
        io: &IoSession,
        universe: u64,
    ) -> GapBitmap {
        let slot = &self.slots[idx];
        assert!(!slot.dead, "copy of dead slot");
        if slot.codec == SlotCodec::Words {
            return self.copy_bitmap(disk, idx, io, universe);
        }
        let skip = self.read_directory(disk, idx, io);
        let bits = BitBuf::lift(&mut disk.reader(self.ext, slot.off, io), slot.len);
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
        self.gamma_end = 0;
        self.gamma_dir_end = 0;
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
            out.put_u8(s.codec.persist_tag());
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
        // flags + the codec tag = 61 bytes (an empty slot omits
        // first/last_pos).
        let len = meta.get_len(61)?;
        let mut slots = Vec::with_capacity(len);
        for i in 0..len {
            let slot = Slot {
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
                codec: SlotCodec::from_persist_tag(meta.get_u8()?)?,
            };
            if slot.codec == SlotCodec::Words {
                // A words slot holds exactly its span's words, no
                // directory and no room to grow, in a stream that never
                // appends; anything else would mis-decode or panic later.
                let span_words = match (slot.first_pos, slot.last_pos) {
                    (Some(f), Some(l)) if f <= l && slot.count > 0 => l / 64 - f / 64 + 1,
                    _ => 0,
                };
                if span_words == 0
                    || span_words.checked_mul(64) != Some(slot.len)
                    || slot.cap != slot.len
                    || slot.dir_entries != 0
                    || slot.dir_cap != 0
                    || slack != Slack::None
                {
                    return Err(psi_store::StoreError::Meta {
                        what: format!(
                            "words slot {i}: {} of {} bits for span {:?}..{:?}, \
                             {} directory entries, slack {slack:?}",
                            slot.len, slot.cap, slot.first_pos, slot.last_pos, slot.dir_entries
                        ),
                    });
                }
            }
            slots.push(slot);
        }
        Ok(CutStream {
            level,
            ext,
            dir_ext,
            slots,
            dead_bits,
            slack,
            gamma_end: disk.extent_bits(ext),
            gamma_dir_end: disk.extent_bits(dir_ext),
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
        // Gaps of 37: sparse enough that gamma plus directory is smaller
        // than words over the span.
        let positions: Vec<u64> = (0..500u64).map(|i| i * 37).collect();
        let a = cut.push_bitmap(&mut disk, positions.iter().copied(), &io);
        assert_eq!(cut.slot(a).codec, SlotCodec::Gamma);
        let plain_io = IoSession::new();
        let plain = cut.copy_bitmap(&disk, a, &plain_io, 18_500);
        let indexed_io = IoSession::new();
        let indexed = cut.copy_bitmap_indexed(&disk, a, &indexed_io, 18_500);
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
        assert!(indexed.contains(37 * 499) && !indexed.contains(37 * 499 - 1));
        assert_eq!(indexed.rank(37 * 250), 250);
        assert_eq!(indexed.select(499), Some(37 * 499));
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

    /// Gamma payload bits for `positions`, and the persisted directory
    /// bits a gamma slot of a static stream adds.
    fn gamma_and_directory_bits(positions: &[u64]) -> (u64, u64) {
        let mut prev = None;
        let mut bits = 0;
        for &p in positions {
            bits += codes::gamma_len(prev.map_or(p + 1, |q| p - q));
            prev = Some(p);
        }
        let count = positions.len() as u64;
        let dir = if count >= DIR_MIN_COUNT {
            count.div_ceil(u64::from(SKIP_SAMPLE)) * SKIP_ENTRY_BITS
        } else {
            0
        };
        (bits, dir)
    }

    #[test]
    fn dense_static_slots_store_as_words_and_lift_their_span() {
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 1, Slack::None);
        // A 1-bit slot first, so the words slot starts mid-word.
        let _ = cut.push_bitmap(&mut disk, [0u64], &io);
        let positions: Vec<u64> = (100..2100u64).filter(|p| p % 3 != 0).collect();
        let a = cut.push_bitmap(&mut disk, positions.iter().copied(), &io);
        let slot = cut.slot(a).clone();
        assert_eq!(slot.codec, SlotCodec::Words);
        assert_eq!(slot.off % 64, 1);
        assert_eq!(slot.len, (2099 / 64 - 100 / 64 + 1) * 64);
        assert_eq!((slot.dir_entries, slot.dir_cap), (0, 0));
        assert!(slot.len < gamma_and_directory_bits(&positions).0);
        let decode_io = IoSession::new();
        let decoded: Vec<u64> = cut.decoder(&disk, a, &decode_io).collect();
        assert_eq!(decoded, positions);
        let lifts = kernel::metrics().lift_words.get();
        let copy_io = IoSession::new();
        let copied = cut.copy_bitmap(&disk, a, &copy_io, 4096);
        assert!(kernel::metrics().lift_words.get() > lifts, "no words lift");
        assert!(copied.plain_words().is_some());
        assert_eq!(copied.to_vec(), positions);
        assert_eq!(copied.size_bits(), slot.len);
        // A words lift charges exactly its span's blocks and bits, like a
        // full decode of the slot.
        let blocks = (slot.off + slot.len - 1) / 256 - slot.off / 256 + 1;
        assert_eq!(copy_io.stats().reads, blocks);
        assert_eq!(copy_io.stats().bits_read, slot.len);
        assert_eq!(decode_io.stats(), copy_io.stats());
        // No directory to lift: the indexed and automatic copies are the
        // same copy, at the same charge.
        assert!(cut.read_directory(&disk, a, &io).is_empty());
        for copy in [CutStream::copy_bitmap_indexed, CutStream::copy_bitmap_auto] {
            let other_io = IoSession::new();
            assert_eq!(copy(&cut, &disk, a, &other_io, 4096), copied);
            assert_eq!(other_io.stats(), copy_io.stats());
        }
        // A static slot never has room for an append.
        assert!(!cut.append_position(&mut disk, a, 5000, &io));
    }

    #[test]
    fn no_slot_stores_or_lifts_more_than_its_gamma_codes() {
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 1, Slack::None);
        let mut words = 0;
        // Strides and runs from saturated to sparse, with span starts on
        // and off a word boundary.
        for stride in [1u64, 2, 3, 5, 8, 9, 16, 64, 300] {
            for start in [0u64, 1, 63, 64, 1000] {
                for len in [1u64, 2, 127, 128, 1000] {
                    let positions: Vec<u64> = (0..len).map(|i| start + i * stride).collect();
                    let a = cut.push_bitmap(&mut disk, positions.iter().copied(), &io);
                    let slot = cut.slot(a);
                    let stored = slot.len + slot.dir_cap * SKIP_ENTRY_BITS;
                    let (gamma, dir) = gamma_and_directory_bits(&positions);
                    // Stored bits never grow, and neither does a lift
                    // without the directory.
                    let ctx = format!("stride {stride} start {start} len {len}");
                    assert!(stored <= gamma + dir, "{ctx}");
                    assert!(slot.len <= gamma, "{ctx}");
                    assert_eq!(slot.codec == SlotCodec::Words, slot.len < gamma, "{ctx}");
                    words += usize::from(slot.codec == SlotCodec::Words);
                    assert_eq!(cut.decoder(&disk, a, &io).collect::<Vec<_>>(), positions);
                }
            }
        }
        assert!(words > 0, "no slot stored as words");
    }

    #[test]
    fn static_slots_touch_no_more_blocks_than_the_all_gamma_layout() {
        let (mut disk, io) = setup();
        let b = disk.block_bits();
        let mut cut = CutStream::new(&mut disk, 1, Slack::None);
        // Sparse, dense and saturated slots, small and several blocks
        // long, against offsets computed for an all-gamma stream.
        let (mut gamma_off, mut gamma_dir) = (0u64, 0u64);
        let mut layout = Vec::new();
        let mut state = 7u64;
        for _ in 0..300 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let len = 1 + (state >> 33) % 700;
            let stride = [1u64, 2, 3, 9, 40][((state >> 20) % 5) as usize];
            let positions: Vec<u64> = (0..len).map(|k| (state >> 40) % 100 + k * stride).collect();
            let (gamma, dir) = gamma_and_directory_bits(&positions);
            let a = cut.push_bitmap(&mut disk, positions.iter().copied(), &io);
            assert_eq!(cut.decoder(&disk, a, &io).collect::<Vec<_>>(), positions);
            layout.push((gamma_off, gamma, gamma_dir, dir));
            gamma_off += gamma;
            gamma_dir += dir;
        }
        // Every slot keeps its all-gamma offset within a block, never
        // moves later, and moves back no less than the slots before it.
        let mut shift = 0;
        for (i, &(g_off, g_len, g_dir, _)) in layout.iter().enumerate() {
            let slot = cut.slot(i);
            assert!(
                slot.off <= g_off && (g_off - slot.off).is_multiple_of(b),
                "slot {i}"
            );
            assert!((g_off - slot.off) / b >= shift, "slot {i}");
            shift = (g_off - slot.off) / b;
            assert!(slot.len <= g_len, "slot {i}");
            if slot.dir_cap > 0 {
                assert!(slot.dir_off <= g_dir && (g_dir - slot.dir_off).is_multiple_of(b));
            }
        }
        // So no cover of several slots touches more payload or directory
        // blocks.
        let blocks = |spans: &mut dyn Iterator<Item = (u64, u64)>| {
            spans
                .filter(|&(_, len)| len > 0)
                .flat_map(|(off, len)| off / b..=(off + len - 1) / b)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        };
        for width in [1, 2, 3, 5, 8, 13] {
            for step in [1, 2, 7] {
                for first in 0..layout.len() {
                    let cover: Vec<usize> =
                        (first..layout.len()).step_by(step).take(width).collect();
                    let now =
                        blocks(&mut cover.iter().map(|&i| (cut.slot(i).off, cut.slot(i).len)));
                    let before = blocks(&mut cover.iter().map(|&i| (layout[i].0, layout[i].1)));
                    assert!(now <= before, "payload of {cover:?}: {now} > {before}");
                    let now = blocks(&mut cover.iter().map(|&i| {
                        let s = cut.slot(i);
                        (s.dir_off, s.dir_cap * SKIP_ENTRY_BITS)
                    }));
                    let before = blocks(&mut cover.iter().map(|&i| (layout[i].2, layout[i].3)));
                    assert!(now <= before, "directory of {cover:?}: {now} > {before}");
                }
            }
        }
        // Whole blocks saved are reclaimed.
        assert!(cut.extent_bits(&disk) + b <= gamma_off);
    }

    #[test]
    fn streams_with_slack_stay_gamma() {
        let (mut disk, io) = setup();
        let mut cut = CutStream::new(&mut disk, 1, Slack::Proportional);
        let a = cut.push_bitmap(&mut disk, 0..1000u64, &io);
        assert_eq!(cut.slot(a).codec, SlotCodec::Gamma);
        assert!(cut.append_position(&mut disk, a, 1000, &io));
    }

    #[test]
    fn corrupt_codec_metadata_is_a_typed_error() {
        let (mut disk, io) = setup();
        let restore = |bytes: &[u8], disk: &Disk| {
            CutStream::restore_meta(&mut psi_store::MetaCursor::new(bytes), disk)
        };
        // One slot per stream, so the slot's codec tag is the last byte.
        for positions in [
            (0..500u64).map(|i| i * 37).collect::<Vec<_>>(),
            (0..500u64).map(|i| i * 2).collect(),
        ] {
            let mut cut = CutStream::new(&mut disk, 1, Slack::None);
            cut.push_bitmap(&mut disk, positions, &io);
            let mut meta = psi_store::MetaBuf::new();
            cut.persist_meta(&mut meta);
            let bytes = meta.bytes().to_vec();
            assert!(restore(&bytes, &disk).is_ok());
            let at = bytes.len() - 1;
            for tag in 0..=u8::MAX {
                let mut flipped = bytes.clone();
                flipped[at] = tag;
                match tag {
                    // A gamma slot read as words has the wrong length and
                    // a directory; a words slot read as gamma is well-formed
                    // metadata (the payload checksums guard the bits).
                    0 | 1 if tag == bytes[at] => assert!(restore(&flipped, &disk).is_ok()),
                    0 => assert!(restore(&flipped, &disk).is_ok()),
                    _ => assert!(
                        matches!(
                            restore(&flipped, &disk),
                            Err(psi_store::StoreError::Meta { .. })
                        ),
                        "tag {tag} accepted"
                    ),
                }
            }
        }
        // A words slot whose length is not its span, that has room to
        // grow, that claims directory entries, or that sits in a stream
        // with slack is rejected.
        let mut cut = CutStream::new(&mut disk, 1, Slack::None);
        cut.push_bitmap(&mut disk, (0..500u64).map(|i| i * 2), &io);
        assert_eq!(cut.slot(0).codec, SlotCodec::Words);
        let good = cut.slot(0).clone();
        cut.slack = Slack::Proportional;
        let mut meta = psi_store::MetaBuf::new();
        cut.persist_meta(&mut meta);
        assert!(matches!(
            restore(meta.bytes(), &disk),
            Err(psi_store::StoreError::Meta { .. })
        ));
        cut.slack = Slack::None;
        for bad in [
            Slot {
                len: good.len + 64,
                cap: good.cap + 64,
                ..good.clone()
            },
            Slot {
                cap: good.cap + 64,
                ..good.clone()
            },
            Slot {
                dir_entries: 1,
                dir_cap: 1,
                ..good.clone()
            },
            Slot {
                first_pos: None,
                ..good.clone()
            },
            // A span whose length in bits overflows a u64.
            Slot {
                first_pos: Some(0),
                last_pos: Some(u64::MAX),
                len: 0,
                cap: 0,
                ..good.clone()
            },
        ] {
            cut.slots[0] = bad;
            let mut meta = psi_store::MetaBuf::new();
            cut.persist_meta(&mut meta);
            assert!(matches!(
                restore(meta.bytes(), &disk),
                Err(psi_store::StoreError::Meta { .. })
            ));
        }
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
