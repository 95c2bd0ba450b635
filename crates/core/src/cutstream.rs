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
//! The stream stores the slots' payload and nothing beside it. A gamma
//! slot lifted by [`CutStream::copy_bitmap`] builds its skip directory in
//! memory on first use ([`GapBitmap::skip_dir`]).
//!
//! Each slot of a static stream ([`Slack::None`]) records a **codec**
//! chosen at build time ([`SlotCodec`]): gamma codes, or plain words over
//! the slot's 64-aligned span when those take fewer bits. Dense slots of
//! low-cardinality columns store as words, which lift as a word copy.
//! Every reader dispatches on the codec, so no caller learns the format.

#[cfg(test)]
use psi_bits::GapDecoder;
use psi_bits::{codes, kernel, BitBuf, GapBitmap};
#[cfg(test)]
use psi_io::DiskReader;
use psi_io::{Disk, ExtentId, IoSession, ReadError};

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
}

/// How a slot stores its positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotCodec {
    /// Gamma codes of the gaps (the first element as `gamma(p₀ + 1)`).
    Gamma,
    /// LSB-first 64-bit words covering universe words `⌊first/64⌋` to
    /// `⌊last/64⌋`: bit `j` of the `i`-th stored word set means position
    /// `64(⌊first/64⌋ + i) + j` is in the slot.
    Words,
}

impl SlotCodec {
    /// The cheaper codec for strictly increasing `positions`, with their
    /// gamma payload bits: words when they take fewer bits than the gamma
    /// codes (ties stay gamma), so no slot stores, and no lift reads,
    /// more bits than its gamma codes.
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
/// set bits. The per-code reference that every lifted read of a slot
/// ([`CutStream::copy_bitmap`]) must match in rows and charge.
#[cfg(test)]
#[derive(Debug)]
pub struct SlotDecoder<'a>(SlotWalk<'a>);

#[cfg(test)]
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

#[cfg(test)]
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

#[cfg(test)]
impl ExactSizeIterator for SlotDecoder<'_> {}

/// A cut's slotted bitmap stream.
#[derive(Debug)]
pub struct CutStream {
    /// Tree depth this cut materializes.
    pub level: u32,
    ext: ExtentId,
    slots: Vec<Slot>,
    dead_bits: u64,
    slack: Slack,
    /// Where the next slot would start if every slot of this static
    /// stream were gamma-coded. Slots are placed there less as many whole
    /// blocks as the space saved so far allows (see [`place`]). Not
    /// persisted: a reopened stream continues from its extent's end.
    gamma_end: u64,
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
            slots: Vec::new(),
            dead_bits: 0,
            slack,
            gamma_end: 0,
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
        place(disk, self.ext, self.gamma_end, io);
        self.gamma_end += gamma_bits;
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
            dead: false,
            codec: SlotCodec::Words,
        });
        self.slots.len() - 1
    }

    /// Writes a gamma slot.
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
        for p in positions {
            match last_pos {
                None => codes::put_gamma(&mut w, p + 1),
                Some(prev) => {
                    assert!(p > prev, "positions must be strictly increasing");
                    codes::put_gamma(&mut w, p - prev);
                }
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
        self.slots.push(Slot {
            off,
            len,
            cap,
            count,
            first_pos,
            last_pos,
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
        let slot = &mut self.slots[idx];
        slot.len += need;
        slot.count += 1;
        slot.first_pos.get_or_insert(pos);
        slot.last_pos = Some(pos);
        true
    }

    /// Streaming decoder over slot `idx`, charging `io` (resident
    /// extents only: the per-code reference of [`Self::copy_bitmap`]).
    #[cfg(test)]
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
    /// encoding, so this replaces decode-merge-reencode with a word copy;
    /// every other read of a slot lifts it here and decodes in memory.
    /// A words slot lifts into the words form (`kernel/lift_words`); a
    /// gamma slot builds its skip directory in memory on first use.
    pub fn copy_bitmap(
        &self,
        disk: &Disk,
        idx: usize,
        io: &IoSession,
        universe: u64,
    ) -> Result<GapBitmap, ReadError> {
        let slot = &self.slots[idx];
        assert!(!slot.dead, "copy of dead slot");
        let bits = BitBuf::lift(&mut disk.reader(self.ext, slot.off, io), slot.len)?;
        Ok(match slot.codec {
            SlotCodec::Words => {
                kernel::metrics().lift_words.inc();
                GapBitmap::from_plain_words(bits.into_words(), slot.words_base(), universe)
            }
            SlotCodec::Gamma => GapBitmap::from_code_bits(bits, slot.count, universe),
        })
    }

    /// Lifts slot `idx` ([`Self::copy_bitmap`]) and decodes its positions
    /// in memory: the read of a cover member that is merged, hashed or
    /// rebuilt rather than returned as it is stored.
    pub fn lift_positions(
        &self,
        disk: &Disk,
        idx: usize,
        io: &IoSession,
    ) -> Result<Vec<u64>, ReadError> {
        Ok(self.copy_bitmap(disk, idx, io, u64::MAX)?.to_vec())
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
        self.slots.clear();
        self.dead_bits = 0;
        self.gamma_end = 0;
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
        let dead_bits = meta.get_u64()?;
        let slack = Slack::from_persist_tag(meta.get_u8()?)?;
        // Minimum encoded slot: 4 u64 fields + two absent options + the
        // tombstone flag + the codec tag = 36 bytes (an empty slot omits
        // first/last_pos).
        let len = meta.get_len(36)?;
        let mut slots = Vec::with_capacity(len);
        for i in 0..len {
            let slot = Slot {
                off: meta.get_u64()?,
                len: meta.get_u64()?,
                cap: meta.get_u64()?,
                count: meta.get_u64()?,
                first_pos: meta.get_opt_u64()?,
                last_pos: meta.get_opt_u64()?,
                dead: meta.get_bool()?,
                codec: SlotCodec::from_persist_tag(meta.get_u8()?)?,
            };
            // A live slot's reservation lies within the extent and holds
            // its payload.
            if !slot.dead {
                let span = (slot.first_pos, slot.last_pos);
                psi_store::check_bitmap(disk, ext, (slot.off, slot.cap), slot.count, span, || {
                    format!("slot {i}")
                })?;
                if slot.len > slot.cap {
                    return Err(psi_store::StoreError::Meta {
                        what: format!(
                            "slot {i}: {} bits in a reservation of {}",
                            slot.len, slot.cap
                        ),
                    });
                }
            }
            if slot.codec == SlotCodec::Words {
                // A words slot holds exactly its span's words and no room
                // to grow, in a stream that never appends; anything else
                // would mis-decode or panic later.
                let span_words = match (slot.first_pos, slot.last_pos) {
                    (Some(f), Some(l)) if f <= l && slot.count > 0 => l / 64 - f / 64 + 1,
                    _ => 0,
                };
                if span_words == 0
                    || span_words.checked_mul(64) != Some(slot.len)
                    || slot.cap != slot.len
                    || slack != Slack::None
                {
                    return Err(psi_store::StoreError::Meta {
                        what: format!(
                            "words slot {i}: {} of {} bits for span {:?}..{:?}, slack {slack:?}",
                            slot.len, slot.cap, slot.first_pos, slot.last_pos
                        ),
                    });
                }
            }
            slots.push(slot);
        }
        Ok(CutStream {
            level,
            ext,
            slots,
            dead_bits,
            slack,
            gamma_end: disk.extent_bits(ext),
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
        let fixed_positions: Vec<u64> = (0..200u64).map(|i| i * 7).collect();
        let mut fixed = CutStream::new(&mut disk, 1, Slack::None);
        let a = fixed.push_bitmap(&mut disk, fixed_positions.iter().copied(), &io);
        // A stream with slack: a slot under two sampling intervals, and two
        // whose appends run past the sampling boundaries of their pushed
        // elements — 180 evens then a run of 30 (crossing element 192),
        // and 128 sparse positions then a dense run until the slack is
        // spent.
        let mut grown = CutStream::new(&mut disk, 1, Slack::Proportional);
        let tiny: Vec<u64> = (0..127u64).collect();
        let b = grown.push_bitmap(&mut disk, tiny.iter().copied(), &io);
        let mut evens: Vec<u64> = (0..180u64).map(|i| 2 * i).collect();
        let c = grown.push_bitmap(&mut disk, evens.iter().copied(), &io);
        let mut sparse: Vec<u64> = (0..128u64).map(|i| i * 10_000).collect();
        let d = grown.push_bitmap(&mut disk, sparse.iter().copied(), &io);
        for p in 400..430u64 {
            assert!(grown.append_position(&mut disk, c, p, &io));
            evens.push(p);
        }
        let mut next = 128 * 10_000;
        while grown.append_position(&mut disk, d, next, &io) {
            sparse.push(next);
            next += 1;
        }
        assert!(sparse.len() > 3 * 128, "{} elements", sparse.len());
        for (cut, idx, positions) in [
            (&fixed, a, &fixed_positions),
            (&grown, b, &tiny),
            (&grown, c, &evens),
            (&grown, d, &sparse),
        ] {
            let universe = positions[positions.len() - 1] + 2;
            let decode_io = IoSession::new();
            let decoded: Vec<u64> = cut.decoder(&disk, idx, &decode_io).collect();
            let copy_io = IoSession::new();
            let copied = cut.copy_bitmap(&disk, idx, &copy_io, universe).unwrap();
            assert_eq!(&decoded, positions);
            assert_eq!(copied.to_vec(), decoded);
            assert_eq!(copied.count(), positions.len() as u64);
            assert_eq!(copied.universe(), universe);
            assert_eq!(copied.size_bits(), cut.slot(idx).len);
            // The copy reads the same stream, so it charges the same blocks.
            assert_eq!(copy_io.stats().reads, decode_io.stats().reads);
            assert_eq!(copy_io.stats().bits_read, decode_io.stats().bits_read);
            // It carries no directory; the one built on first use answers
            // at and between the samples, through the last element.
            assert!(!copied.has_skip_dir());
            let last = positions.len() - 1;
            for k in (0..last).step_by(13).chain([last]) {
                let p = positions[k];
                assert_eq!(copied.select(k as u64), Some(p));
                assert_eq!(copied.rank(p), k as u64);
                assert!(copied.contains(p));
                assert_eq!(
                    copied.contains(p + 1),
                    positions.get(k + 1) == Some(&(p + 1))
                );
            }
            assert!(copied.has_skip_dir());
        }
    }

    /// Gamma payload bits for `positions`.
    fn gamma_bits(positions: &[u64]) -> u64 {
        let mut prev = None;
        let mut bits = 0;
        for &p in positions {
            bits += codes::gamma_len(prev.map_or(p + 1, |q| p - q));
            prev = Some(p);
        }
        bits
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
        assert!(slot.len < gamma_bits(&positions));
        let decode_io = IoSession::new();
        let decoded: Vec<u64> = cut.decoder(&disk, a, &decode_io).collect();
        assert_eq!(decoded, positions);
        let lifts = kernel::metrics().lift_words.get();
        let copy_io = IoSession::new();
        let copied = cut.copy_bitmap(&disk, a, &copy_io, 4096).unwrap();
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
                    let gamma = gamma_bits(&positions);
                    // Stored bits, and so a lift's, never grow.
                    let ctx = format!("stride {stride} start {start} len {len}");
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
        let mut gamma_off = 0u64;
        let mut layout = Vec::new();
        let mut state = 7u64;
        for _ in 0..300 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let len = 1 + (state >> 33) % 700;
            let stride = [1u64, 2, 3, 9, 40][((state >> 20) % 5) as usize];
            let positions: Vec<u64> = (0..len).map(|k| (state >> 40) % 100 + k * stride).collect();
            let gamma = gamma_bits(&positions);
            let a = cut.push_bitmap(&mut disk, positions.iter().copied(), &io);
            assert_eq!(cut.decoder(&disk, a, &io).collect::<Vec<_>>(), positions);
            layout.push((gamma_off, gamma));
            gamma_off += gamma;
        }
        // Every slot keeps its all-gamma offset within a block, never
        // moves later, and moves back no less than the slots before it.
        let mut shift = 0;
        for (i, &(g_off, g_len)) in layout.iter().enumerate() {
            let slot = cut.slot(i);
            assert!(
                slot.off <= g_off && (g_off - slot.off).is_multiple_of(b),
                "slot {i}"
            );
            assert!((g_off - slot.off) / b >= shift, "slot {i}");
            shift = (g_off - slot.off) / b;
            assert!(slot.len <= g_len, "slot {i}");
        }
        // So no cover of several slots touches more blocks.
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
                    let before = blocks(&mut cover.iter().map(|&i| layout[i]));
                    assert!(now <= before, "{cover:?}: {now} > {before}");
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
                    // A gamma slot read as words has the wrong length; a
                    // words slot read as gamma is well-formed metadata (the
                    // payload checksums guard the bits).
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
        // grow, or that sits in a stream with slack is rejected.
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
        // So is a live slot of either codec that reaches past its extent
        // or its reservation, or whose non-empty span is missing or
        // reversed: readers would panic on it, not fail.
        let mut cut = CutStream::new(&mut disk, 1, Slack::Proportional);
        cut.push_bitmap(&mut disk, (0..500u64).map(|i| i * 37), &io);
        let good = cut.slot(0).clone();
        assert!(good.cap > good.len);
        let end = cut.extent_bits(&disk);
        for (i, bad) in [
            Slot {
                off: end,
                ..good.clone()
            },
            Slot {
                off: end - good.cap + 1,
                ..good.clone()
            },
            Slot {
                off: u64::MAX,
                ..good.clone()
            },
            Slot {
                len: good.cap + 1,
                ..good.clone()
            },
            Slot {
                first_pos: good.last_pos.map(|l| l + 1),
                ..good.clone()
            },
            Slot {
                last_pos: None,
                ..good.clone()
            },
        ]
        .into_iter()
        .enumerate()
        {
            cut.slots[0] = bad;
            let mut meta = psi_store::MetaBuf::new();
            cut.persist_meta(&mut meta);
            assert!(
                matches!(
                    restore(meta.bytes(), &disk),
                    Err(psi_store::StoreError::Meta { .. })
                ),
                "gamma case {i} accepted"
            );
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
