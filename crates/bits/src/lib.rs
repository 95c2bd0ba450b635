//! Bit-level substrate for the `psi` workspace.
//!
//! Pagh & Rao's structures are built almost entirely out of one primitive:
//! sparse sets of positions stored as **run-length/gap codes with Elias
//! gamma encoding** (paper §1.2, citing Elias, ref 12). This crate provides:
//!
//! * [`BitBuf`] — an in-memory, MSB-first bit buffer with a matching
//!   [`BitBufReader`];
//! * [`BitSink`] / [`BitSource`] — traits abstracting over in-memory buffers
//!   and [`psi_io`] disk cursors, so the same codecs drive both;
//! * [`codes`] — Elias gamma and delta codes;
//! * [`GapBitmap`] — a compressed bitmap: the positions of its 1s encoded
//!   as gamma-coded gaps, within a constant factor of the
//!   information-theoretic minimum `lg C(n, z)` bits (§1.2), or, where
//!   that is smaller ([`words_pay`]), plain words over the set's span;
//! * streaming [`GapEncoder`]/[`GapDecoder`] for encoding to and decoding
//!   from disk without materializing;
//! * [`PlainBitmap`] — an uncompressed bitmap with broadword rank/select
//!   (the baseline bitmap-index representation);
//! * [`merge`] — k-way merges over position streams (the paper's
//!   "compute the compressed bitmap of their union by merging", §2.1),
//!   including the density-driven planner ([`merge::plan`]) and its
//!   bitset-accumulate path for dense covers, and the stored-cover
//!   planner ([`merge::plan_stored`]) that ORs dense covers into plain
//!   words and splices position-disjoint streams without decoding them;
//! * [`skip`] — skip directories: sampled `(position, bit offset,
//!   occupancy word)` entries that make gap streams seekable, powering
//!   galloping set operations, occupancy probe rule-outs and the
//!   dual-chain batch decode;
//! * [`try_decode_gaps`] — the batch decode kernel over an untrusted
//!   stream (a rows frame off the wire): a typed [`DecodeError`] where
//!   the trusted decode would panic;
//! * [`kernel`] — kernel-path counters (which decode / intersect
//!   implementation actually ran);
//! * [`entropy`] — empirical 0th-order entropy of symbol strings.
//!
//! On x86_64 the batch-decode kernel also compiles an `lzcnt`/BMI clone,
//! selected once by runtime CPU detection; the portable SWAR code is
//! always compiled and remains the fallback.

#![warn(missing_docs)]

mod buf;
pub mod codes;
pub mod entropy;
mod gap;
pub mod kernel;
pub mod merge;
mod plain;
pub mod skip;
mod swar;

pub use buf::{BitBuf, BitBufReader, BitWriter};
pub use gap::{words_pay, GapBitmap, GapCursor, GapDecoder, GapEncoder, GapIter};
pub use plain::{PlainBitmap, RankDirectory};
pub use skip::{SkipDirectory, SkipEntry, SKIP_SAMPLE};
pub use swar::{try_decode_gaps, DecodeError};

/// A destination for bits (in-memory buffer or disk writer).
pub trait BitSink {
    /// Appends the low `k ≤ 64` bits of `value`, MSB of the field first.
    fn put_bits(&mut self, value: u64, k: u32);

    /// Appends one bit.
    fn put_bit(&mut self, bit: bool) {
        self.put_bits(u64::from(bit), 1);
    }

    /// Appends `bit_len` bits stored MSB-first in `words`.
    ///
    /// Bits of the final word beyond `bit_len` must be zero (the layout
    /// [`BitBuf`] and disk extents maintain). The default chunks through
    /// [`Self::put_bits`]; sinks with word-addressable storage override
    /// this with a whole-word copy when their write head is 64-bit
    /// aligned.
    fn put_bits_bulk(&mut self, words: &[u64], bit_len: u64) {
        copy_words_chunked(self, words, bit_len);
    }

    /// Current length of the destination in bits.
    fn bit_pos(&self) -> u64;
}

/// The shared per-word fallback for bulk appends to an unaligned sink:
/// full 64-bit words, then the tail field shifted down to the low bits.
/// (`psi_io::DiskWriter::write_bulk` keeps its own copy of this loop —
/// `psi-io` sits below this crate in the dependency order.)
fn copy_words_chunked<S: BitSink + ?Sized>(sink: &mut S, words: &[u64], bit_len: u64) {
    let full = (bit_len / 64) as usize;
    for &w in &words[..full] {
        sink.put_bits(w, 64);
    }
    let tail = (bit_len % 64) as u32;
    if tail > 0 {
        sink.put_bits(words[full] >> (64 - tail), tail);
    }
}

/// A source of bits (in-memory reader or disk reader).
pub trait BitSource {
    /// Reads `k ≤ 64` bits as the low bits of a `u64`.
    fn get_bits(&mut self, k: u32) -> u64;

    /// Reads one bit.
    fn get_bit(&mut self) -> bool {
        self.get_bits(1) == 1
    }

    /// Reads a unary code: the number of 0s before the next 1, consuming
    /// the terminating 1.
    fn get_unary(&mut self) -> u32 {
        let mut zeros = 0;
        while !self.get_bit() {
            zeros += 1;
        }
        zeros
    }

    /// Peeks at the next up-to-64 bits without consuming them.
    ///
    /// Returns `(word, valid)`: the upcoming bits MSB-aligned in `word`,
    /// with `valid ≤ 64` of them meaningful and everything past `valid`
    /// zero. This is the lookahead that lets [`codes::get_gamma`] extract
    /// a whole codeword with one `leading_zeros` + shift instead of a
    /// bit cursor loop. The default returns `(0, 0)` — "no lookahead" —
    /// which makes every decoder fall back to its cursor path, so
    /// third-party sources keep working unmodified.
    fn peek_word(&self) -> (u64, u32) {
        (0, 0)
    }

    /// Consumes `k ≤ 64` bits previously examined via [`Self::peek_word`]
    /// (counted as read, exactly as if they had been fetched with
    /// [`Self::get_bits`]).
    fn skip_bits(&mut self, k: u32) {
        let _ = self.get_bits(k);
    }

    /// Current position in bits.
    fn bit_pos(&self) -> u64;
}

impl BitSink for psi_io::DiskWriter<'_> {
    fn put_bits(&mut self, value: u64, k: u32) {
        self.write_bits(value, k);
    }

    fn put_bits_bulk(&mut self, words: &[u64], bit_len: u64) {
        self.write_bulk(words, bit_len);
    }

    fn bit_pos(&self) -> u64 {
        self.pos()
    }
}

impl BitSink for psi_io::DiskWriterAt<'_> {
    fn put_bits(&mut self, value: u64, k: u32) {
        self.write_bits(value, k);
    }

    fn bit_pos(&self) -> u64 {
        self.pos()
    }
}

impl BitSource for psi_io::DiskReader<'_> {
    fn get_bits(&mut self, k: u32) -> u64 {
        self.read_bits(k)
    }

    fn get_bit(&mut self) -> bool {
        self.read_bit()
    }

    fn get_unary(&mut self) -> u32 {
        self.read_unary()
    }

    fn peek_word(&self) -> (u64, u32) {
        self.peek_word()
    }

    fn skip_bits(&mut self, k: u32) {
        self.consume_bits(k);
    }

    fn bit_pos(&self) -> u64 {
        self.pos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_io::{Disk, IoConfig, IoSession};

    #[test]
    fn disk_cursors_implement_bit_traits() {
        let mut disk = Disk::new(IoConfig::with_block_bits(128));
        let ext = disk.alloc();
        let session = IoSession::untracked();
        {
            let mut w = disk.writer(ext, &session);
            codes::put_gamma(&mut w, 42);
            codes::put_delta(&mut w, 1_000_000);
        }
        let mut r = disk.reader(ext, 0, &session);
        assert_eq!(codes::get_gamma(&mut r), 42);
        assert_eq!(codes::get_delta(&mut r), 1_000_000);
    }
}
