//! In-memory bit buffer.

use crate::{BitSink, BitSource};

/// A growable in-memory bit buffer, MSB-first within 64-bit words.
///
/// `BitBuf` mirrors the on-disk bit layout of [`psi_io::Disk`] extents so
/// that structures can be staged in memory and flushed verbatim.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitBuf {
    words: Vec<u64>,
    bit_len: u64,
}

impl BitBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with room for `bits` bits.
    pub fn with_capacity(bits: u64) -> Self {
        BitBuf {
            words: Vec::with_capacity((bits as usize).div_ceil(64)),
            bit_len: 0,
        }
    }

    /// Length in bits.
    pub fn len(&self) -> u64 {
        self.bit_len
    }

    /// Reserved capacity in bits (whole words). Encoders that pre-reserve
    /// from size hints assert against this in debug builds.
    pub fn capacity_bits(&self) -> u64 {
        64 * self.words.capacity() as u64
    }

    /// Whether the buffer contains no bits.
    pub fn is_empty(&self) -> bool {
        self.bit_len == 0
    }

    /// The underlying words (last word zero-padded).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Appends the low `k ≤ 64` bits of `value`.
    #[inline]
    pub fn push_bits(&mut self, value: u64, k: u32) {
        debug_assert!(k <= 64);
        if k == 0 {
            return;
        }
        debug_assert!(k == 64 || value < (1u64 << k), "value wider than k bits");
        let pos = self.bit_len;
        let end_word = ((pos + u64::from(k) - 1) / 64) as usize;
        if end_word >= self.words.len() {
            self.words.resize(end_word + 1, 0);
        }
        let w = (pos / 64) as usize;
        let off = (pos % 64) as u32;
        let avail = 64 - off;
        if k <= avail {
            self.words[w] |= value << (avail - k);
        } else {
            self.words[w] |= value >> (k - avail);
            self.words[w + 1] |= value << (64 - (k - avail));
        }
        self.bit_len += u64::from(k);
    }

    /// Appends one bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        self.push_bits(u64::from(bit), 1);
    }

    /// Reads `k ≤ 64` bits starting at `pos` without a cursor.
    #[inline]
    pub fn get_bits_at(&self, pos: u64, k: u32) -> u64 {
        debug_assert!(k <= 64);
        if k == 0 {
            return 0;
        }
        assert!(
            pos + u64::from(k) <= self.bit_len,
            "read past end of BitBuf"
        );
        let w = (pos / 64) as usize;
        let off = (pos % 64) as u32;
        let avail = 64 - off;
        if k <= avail {
            (self.words[w] << off) >> (64 - k)
        } else {
            let hi = self.words[w] << off >> (64 - k);
            let lo = self.words[w + 1] >> (64 - (k - avail));
            hi | lo
        }
    }

    /// Reads bit `pos`.
    #[inline]
    pub fn get_bit(&self, pos: u64) -> bool {
        assert!(pos < self.bit_len, "read past end of BitBuf");
        (self.words[(pos / 64) as usize] >> (63 - (pos % 64))) & 1 == 1
    }

    /// Appends the entire contents of `other`.
    ///
    /// When this buffer's length is 64-bit aligned the append is a plain
    /// word copy; otherwise the source words are re-shifted one word at a
    /// time (still far cheaper than per-chunk cursor reads).
    pub fn extend_from(&mut self, other: &BitBuf) {
        self.extend_from_words(&other.words, other.bit_len);
    }

    /// Appends `bit_len` bits stored MSB-first in `words` (bits of the
    /// final word beyond `bit_len` must be zero).
    pub fn extend_from_words(&mut self, words: &[u64], bit_len: u64) {
        if bit_len == 0 {
            return;
        }
        let nwords = (bit_len as usize).div_ceil(64);
        debug_assert!(nwords <= words.len(), "word slice shorter than bit_len");
        if self.bit_len.is_multiple_of(64) {
            // Aligned destination: whole-word copy, no shifting.
            debug_assert_eq!(self.words.len() as u64, self.bit_len / 64);
            self.words.extend_from_slice(&words[..nwords]);
            self.bit_len += bit_len;
        } else {
            crate::copy_words_chunked(self, words, bit_len);
        }
    }

    /// Lifts `bit_len` bits from a disk cursor into a new buffer with one
    /// bulk read ([`psi_io::DiskReader::read_words`]): the blocks and bits
    /// charged are those of reading the same bits field by field. This is
    /// how stored bitmaps are copied into memory verbatim, and the only
    /// way a non-resident extent is read, so a failed pooled fetch comes
    /// back as the error.
    pub fn lift(
        src: &mut psi_io::DiskReader<'_>,
        bit_len: u64,
    ) -> Result<BitBuf, psi_io::ReadError> {
        let mut words = Vec::new();
        src.read_words(&mut words, bit_len)?;
        Ok(BitBuf { words, bit_len })
    }

    /// The buffer's words, MSB-first (bits past [`Self::len`] are zero).
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// Appends `bits` bits drained from `src` (used to lift disk-resident
    /// code streams into memory; the source is charged as it is read).
    pub fn extend_from_source<S: BitSource>(&mut self, src: &mut S, bits: u64) {
        let mut remaining = bits;
        while remaining > 0 {
            let k = remaining.min(64) as u32;
            self.push_bits(src.get_bits(k), k);
            remaining -= u64::from(k);
        }
    }

    /// Clears the buffer, retaining capacity.
    pub fn clear(&mut self) {
        self.words.clear();
        self.bit_len = 0;
    }

    /// A reading cursor from the start.
    pub fn reader(&self) -> BitBufReader<'_> {
        BitBufReader { buf: self, pos: 0 }
    }

    /// A reading cursor from bit `pos`.
    pub fn reader_at(&self, pos: u64) -> BitBufReader<'_> {
        assert!(pos <= self.bit_len);
        BitBufReader { buf: self, pos }
    }
}

impl BitSink for BitBuf {
    fn put_bits(&mut self, value: u64, k: u32) {
        self.push_bits(value, k);
    }

    fn put_bits_bulk(&mut self, words: &[u64], bit_len: u64) {
        self.extend_from_words(words, bit_len);
    }

    fn bit_pos(&self) -> u64 {
        self.bit_len
    }
}

/// A word-accumulating append cursor over a [`BitBuf`] — the bulk encode
/// path.
///
/// [`BitBuf::push_bits`] pays a resize check, a word-index division and a
/// two-word split on every call; a gamma encoder calling it per element
/// spends more time in that bookkeeping than in the code arithmetic. The
/// writer instead packs bits into a 64-bit register and touches the
/// buffer's word vector once per *word*: `put_bits` is an or-shift into
/// the register plus an occasional whole-word push. Dropping the writer
/// (or calling [`Self::finish`]) flushes the partial register word, so
/// the buffer is valid again afterwards; while the writer is live it
/// holds the buffer mutably, so no reader can observe the detached tail.
#[derive(Debug)]
pub struct BitWriter<'a> {
    buf: &'a mut BitBuf,
    /// Pending bits, MSB-aligned: the top `fill` bits are valid, the rest
    /// are zero. Invariant: `fill < 64` between calls.
    acc: u64,
    fill: u32,
}

impl<'a> BitWriter<'a> {
    /// Opens a writer appending at the end of `buf`. A partial final word
    /// is lifted into the accumulator so unaligned tails keep working.
    pub fn new(buf: &'a mut BitBuf) -> Self {
        let fill = (buf.bit_len % 64) as u32;
        let acc = if fill == 0 {
            0
        } else {
            buf.bit_len -= u64::from(fill);
            buf.words.pop().expect("partial bits imply a final word")
        };
        BitWriter { buf, acc, fill }
    }

    /// Appends the low `k ≤ 64` bits of `value`.
    #[inline]
    pub fn push_bits(&mut self, value: u64, k: u32) {
        debug_assert!(k <= 64);
        if k == 0 {
            return;
        }
        debug_assert!(k == 64 || value < (1u64 << k), "value wider than k bits");
        let space = 64 - self.fill; // ≥ 1 by the fill invariant
        if k < space {
            self.acc |= value << (space - k);
            self.fill += k;
        } else {
            // Fills the register exactly or spills: flush one word.
            let word = self.acc | (value >> (k - space));
            self.buf.words.push(word);
            self.buf.bit_len += 64;
            self.fill = k - space;
            self.acc = if self.fill == 0 {
                0
            } else {
                value << (64 - self.fill)
            };
        }
    }

    /// The logical bit length of the buffer, accumulator included.
    #[inline]
    pub fn len(&self) -> u64 {
        self.buf.bit_len + u64::from(self.fill)
    }

    /// Whether nothing has been written (buffer and accumulator empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes the partial word back into the buffer. Equivalent to
    /// dropping the writer; provided for call sites that want the flush
    /// point explicit.
    pub fn finish(self) {}
}

impl Drop for BitWriter<'_> {
    fn drop(&mut self) {
        if self.fill > 0 {
            self.buf.words.push(self.acc);
            self.buf.bit_len += u64::from(self.fill);
            self.fill = 0;
        }
    }
}

impl BitSink for BitWriter<'_> {
    #[inline]
    fn put_bits(&mut self, value: u64, k: u32) {
        self.push_bits(value, k);
    }

    fn put_bits_bulk(&mut self, words: &[u64], bit_len: u64) {
        if self.fill == 0 {
            // Aligned: whole-word copy, then re-lift any partial tail so
            // the accumulator invariant (buffer word-aligned) holds.
            self.buf.extend_from_words(words, bit_len);
            let tail = (self.buf.bit_len % 64) as u32;
            if tail != 0 {
                self.fill = tail;
                self.buf.bit_len -= u64::from(tail);
                self.acc = self
                    .buf
                    .words
                    .pop()
                    .expect("partial bits imply a final word");
            }
        } else {
            let mut remaining = bit_len;
            for &w in words {
                let k = remaining.min(64) as u32;
                if k == 0 {
                    break;
                }
                self.push_bits(w >> (64 - k), k);
                remaining -= u64::from(k);
            }
        }
    }

    #[inline]
    fn bit_pos(&self) -> u64 {
        self.len()
    }
}

/// A reading cursor over a [`BitBuf`].
#[derive(Debug, Clone)]
pub struct BitBufReader<'a> {
    buf: &'a BitBuf,
    pos: u64,
}

impl<'a> BitBufReader<'a> {
    /// Bits remaining.
    pub fn remaining(&self) -> u64 {
        self.buf.bit_len - self.pos
    }
}

impl BitSource for BitBufReader<'_> {
    fn get_bits(&mut self, k: u32) -> u64 {
        let v = self.buf.get_bits_at(self.pos, k);
        self.pos += u64::from(k);
        v
    }

    fn get_unary(&mut self) -> u32 {
        // Word-at-a-time scan, mirroring DiskReader::read_unary.
        let mut zeros = 0u32;
        loop {
            assert!(
                self.pos < self.buf.bit_len,
                "unary code ran past end of BitBuf"
            );
            let w = (self.pos / 64) as usize;
            let off = (self.pos % 64) as u32;
            let chunk = self.buf.words[w] << off;
            let avail = (64 - off).min((self.buf.bit_len - self.pos) as u32);
            let lz = chunk.leading_zeros().min(avail);
            if lz < avail {
                self.pos += u64::from(lz) + 1;
                return zeros + lz;
            }
            zeros += avail;
            self.pos += u64::from(avail);
        }
    }

    #[inline]
    fn peek_word(&self) -> (u64, u32) {
        let remaining = self.buf.bit_len - self.pos;
        if remaining == 0 {
            return (0, 0);
        }
        // One load: only the current word's tail. Codes that straddle into
        // the next word take the decoder's fallback path — rarer than the
        // second load is expensive. Bits past `bit_len` are zero by
        // construction (push only ORs into zeroed words), so no masking.
        let off = (self.pos % 64) as u32;
        let word = self.buf.words[(self.pos / 64) as usize] << off;
        (word, remaining.min(u64::from(64 - off)) as u32)
    }

    #[inline]
    fn skip_bits(&mut self, k: u32) {
        debug_assert!(self.pos + u64::from(k) <= self.buf.bit_len);
        self.pos += u64::from(k);
    }

    fn bit_pos(&self) -> u64 {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut b = BitBuf::new();
        b.push_bits(0b101, 3);
        b.push_bits(0xFFFF, 16);
        b.push_bit(false);
        b.push_bits(u64::MAX, 64);
        assert_eq!(b.len(), 84);
        assert_eq!(b.get_bits_at(0, 3), 0b101);
        assert_eq!(b.get_bits_at(3, 16), 0xFFFF);
        assert!(!b.get_bit(19));
        assert_eq!(b.get_bits_at(20, 64), u64::MAX);
    }

    #[test]
    fn reader_traverses_sequentially() {
        let mut b = BitBuf::new();
        for i in 0..100u64 {
            b.push_bits(i % 16, 4);
        }
        let mut r = b.reader();
        for i in 0..100u64 {
            assert_eq!(r.get_bits(4), i % 16);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn unary_in_buffer() {
        let mut b = BitBuf::new();
        b.push_bits(0, 64);
        b.push_bits(0, 6);
        b.push_bit(true);
        let mut r = b.reader();
        assert_eq!(r.get_unary(), 70);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = BitBuf::new();
        a.push_bits(0b11, 2);
        let mut b = BitBuf::new();
        b.push_bits(0b001, 3);
        a.extend_from(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.get_bits_at(0, 5), 0b11001);
    }

    #[test]
    fn extend_from_word_aligned_is_verbatim() {
        let mut a = BitBuf::new();
        a.push_bits(u64::MAX, 64);
        a.push_bits(0, 64); // aligned destination
        let mut b = BitBuf::new();
        b.push_bits(0xDEAD_BEEF, 33);
        a.extend_from(&b);
        assert_eq!(a.len(), 161);
        assert_eq!(a.get_bits_at(128, 33), 0xDEAD_BEEF);
        // And further appends continue where the copy ended.
        a.push_bit(true);
        assert!(a.get_bit(161));
    }

    #[test]
    fn peek_word_exposes_upcoming_bits_without_consuming() {
        let mut b = BitBuf::new();
        b.push_bits(0b1011, 4);
        b.push_bits(u64::MAX, 64);
        let mut r = b.reader();
        let (word, valid) = r.peek_word();
        assert_eq!(valid, 64);
        assert_eq!(word >> 60, 0b1011);
        assert_eq!(r.bit_pos(), 0, "peek must not consume");
        r.skip_bits(4);
        let (word, valid) = r.peek_word();
        assert_eq!(word, u64::MAX << 4);
        assert_eq!(valid, 60, "one-word lookahead ends at the word boundary");
        r.skip_bits(60);
        let (word, valid) = r.peek_word();
        assert_eq!((word >> 60, valid), (0xF, 4));
        r.skip_bits(4);
        assert_eq!(r.peek_word(), (0, 0), "exhausted reader peeks empty");
    }

    #[test]
    fn zero_width_operations_are_noops() {
        let mut b = BitBuf::new();
        b.push_bits(0, 0);
        assert!(b.is_empty());
        assert_eq!(b.get_bits_at(0, 0), 0);
    }
}
