//! Differential tests: every word-level fast path must agree bit-for-bit
//! with the bit-by-bit reference decoders, for random streams at **all 64
//! start-bit alignments**, including codewords straddling word and buffer
//! boundaries.
//!
//! The word-level paths under test:
//! * [`codes::get_gamma`] / [`codes::get_delta`] — `peek_word` +
//!   `leading_zeros` single-shift extraction with cursor fallback;
//! * [`BitSource::get_unary`] — the word-scan overrides of
//!   [`BitBufReader`] and `DiskReader`;
//! * [`GapBitmap::decode_all`] / [`GapDecoder::next_batch`] — batched
//!   decoding (register-resident window, run bursts);
//! * [`BitBuf::extend_from`] / [`GapBitmap::write_codes_to`] /
//!   `DiskWriter::write_bulk` — whole-word copies at every alignment.
//!
//! The references are [`codes::get_gamma_reference`],
//! [`codes::get_delta_reference`] and [`codes::get_unary_reference`],
//! which touch nothing but `get_bit`/`get_bits`.

use proptest::prelude::*;
use psi_bits::{codes, BitBuf, BitSink, BitSource, GapBitmap, GapDecoder};
use psi_io::{Disk, IoConfig, IoSession};

/// Pads a buffer with `align` junk bits (alternating, worst case for
/// accidental run detection) so the stream under test starts mid-word.
fn pad(align: u32) -> BitBuf {
    let mut b = BitBuf::new();
    for i in 0..align {
        b.push_bit(i % 2 == 0);
    }
    b
}

/// Values spanning 1-bit to >64-bit gamma codes, including codewords that
/// straddle word boundaries at every alignment.
fn gamma_values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((0u32..62).prop_map(|shift| 1u64 << shift), 1..40).prop_map(|bases| {
        // Mix exact powers (longest runs of zeros) with offsets around them.
        bases
            .into_iter()
            .enumerate()
            .map(|(i, b)| b + (i as u64 % 3))
            .collect()
    })
}

proptest! {
    #[test]
    fn gamma_fast_equals_reference_at_all_alignments(xs in gamma_values()) {
        for align in 0..64u32 {
            let mut b = pad(align);
            for &x in &xs {
                codes::put_gamma(&mut b, x);
            }
            let mut fast = b.reader_at(u64::from(align));
            let mut reference = b.reader_at(u64::from(align));
            for &x in &xs {
                prop_assert_eq!(codes::get_gamma(&mut fast), x, "align {}", align);
                prop_assert_eq!(codes::get_gamma_reference(&mut reference), x);
                prop_assert_eq!(fast.bit_pos(), reference.bit_pos(), "cursor drift at align {}", align);
            }
            prop_assert_eq!(fast.bit_pos(), b.len());
        }
    }

    #[test]
    fn delta_fast_equals_reference_at_all_alignments(xs in gamma_values()) {
        for align in [0u32, 1, 7, 31, 32, 33, 62, 63] {
            let mut b = pad(align);
            for &x in &xs {
                codes::put_delta(&mut b, x);
            }
            let mut fast = b.reader_at(u64::from(align));
            let mut reference = b.reader_at(u64::from(align));
            for &x in &xs {
                prop_assert_eq!(codes::get_delta(&mut fast), x, "align {}", align);
                prop_assert_eq!(codes::get_delta_reference(&mut reference), x);
                prop_assert_eq!(fast.bit_pos(), reference.bit_pos());
            }
        }
    }

    #[test]
    fn unary_word_scan_equals_reference(runs in proptest::collection::vec(0u32..200, 1..30)) {
        for align in [0u32, 1, 63] {
            let mut b = pad(align);
            for &r in &runs {
                b.push_bits(0, r % 65);
                for _ in 0..r / 65 {
                    b.push_bits(0, 64);
                }
                b.push_bit(true);
            }
            let mut fast = b.reader_at(u64::from(align));
            let mut reference = b.reader_at(u64::from(align));
            for _ in &runs {
                prop_assert_eq!(fast.get_unary(), codes::get_unary_reference(&mut reference));
                prop_assert_eq!(fast.bit_pos(), reference.bit_pos());
            }
        }
    }

    #[test]
    fn disk_fast_paths_equal_buffer_reference(xs in gamma_values(), align in 0u32..64) {
        // The same stream on the simulated disk: DiskReader's peek/consume
        // fast path must agree with the in-memory reference, and the I/O
        // accounting must match the cursor path bit for bit.
        let mut disk = Disk::new(IoConfig::with_block_bits(256));
        let ext = disk.alloc();
        let session = IoSession::untracked();
        let mut b = pad(align);
        {
            let mut w = disk.writer(ext, &session);
            for i in 0..align {
                w.write_bit(i % 2 == 0);
            }
            for &x in &xs {
                codes::put_gamma(&mut w, x);
                codes::put_gamma(&mut b, x);
            }
        }
        let fast_io = IoSession::new();
        let mut fast = disk.reader(ext, u64::from(align), &fast_io);
        let mut reference = b.reader_at(u64::from(align));
        for &x in &xs {
            prop_assert_eq!(codes::get_gamma(&mut fast), x);
            prop_assert_eq!(codes::get_gamma_reference(&mut reference), x);
            prop_assert_eq!(fast.bit_pos(), reference.bit_pos());
        }
        // Same bits consumed ⇒ same bits charged.
        prop_assert_eq!(fast_io.stats().bits_read, b.len() - u64::from(align));
    }

    #[test]
    fn decode_all_equals_reference_decoder(
        gaps in proptest::collection::vec(1u64..5_000, 0..300),
        dense_run in 0u64..200,
    ) {
        // Interleave arbitrary gaps with a dense run (gap-1 burst path).
        let mut positions = Vec::new();
        let mut p = 0u64;
        for (i, &g) in gaps.iter().enumerate() {
            p += g;
            positions.push(p);
            if i == gaps.len() / 2 {
                for _ in 0..dense_run {
                    p += 1;
                    positions.push(p);
                }
            }
        }
        let universe = p + 1;
        let gap_bitmap = GapBitmap::from_sorted(&positions, universe.max(1));
        // Reference: bit-by-bit decode of the same stream.
        let mut reference = Vec::new();
        {
            let mut r = gap_bitmap.code_bits().reader();
            let mut prev: Option<u64> = None;
            for _ in 0..gap_bitmap.count() {
                let code = codes::get_gamma_reference(&mut r);
                let pos = match prev { None => code - 1, Some(q) => q + code };
                prev = Some(pos);
                reference.push(pos);
            }
        }
        let mut batched = Vec::new();
        gap_bitmap.decode_all(&mut batched);
        prop_assert_eq!(&batched, &reference);
        prop_assert_eq!(&batched, &positions);
        // next_batch in uneven chunks agrees too.
        let mut chunked = Vec::new();
        let mut dec = GapDecoder::new(gap_bitmap.code_bits().reader(), gap_bitmap.count());
        let mut buf = [0u64; 7];
        loop {
            let n = dec.next_batch(&mut buf);
            if n == 0 {
                break;
            }
            chunked.extend_from_slice(&buf[..n]);
        }
        prop_assert_eq!(&chunked, &positions);
    }

    #[test]
    fn chained_decode_equals_reference_with_directory(
        small in proptest::collection::vec(1u64..300, 512..600),
        huge in proptest::collection::vec((1u64 << 32)..(1u64 << 55), 2..5),
        huge_at in 1usize..500,
    ) {
        // ≥ 512 elements with a materialized directory: decode_all splits
        // at a recorded resume point and runs interleaved chains, whose
        // windows land at arbitrary bit alignments. The huge gaps force
        // >64-bit codewords (word-scan fallback) straddling word
        // boundaries, placed anywhere relative to the split.
        let mut positions = Vec::with_capacity(small.len() + huge.len());
        let mut p = 0u64;
        for (i, &g) in small.iter().enumerate() {
            p += g;
            positions.push(p);
            if i == huge_at {
                for &h in &huge {
                    p += h;
                    positions.push(p);
                }
            }
        }
        let b = GapBitmap::from_sorted(&positions, p + 1);
        let _ = b.skip_dir(); // materialize → multi-chain decode
        let mut reference = Vec::new();
        {
            let mut r = b.code_bits().reader();
            let mut prev: Option<u64> = None;
            for _ in 0..b.count() {
                let code = codes::get_gamma_reference(&mut r);
                let pos = match prev { None => code - 1, Some(q) => q + code };
                prev = Some(pos);
                reference.push(pos);
            }
        }
        let mut batched = Vec::new();
        b.decode_all(&mut batched);
        prop_assert_eq!(&batched, &reference);
        prop_assert_eq!(&batched, &positions);
    }

    #[test]
    fn wide_code_dual_chain_decode_equals_reference(
        stride in 40_000u64..100_000,
        jitter in 1u64..1000,
        count in 8192u64..8600,
    ) {
        // Wide codes (≥ 16 bits each, no run-of-ones test in the drain)
        // over a long stream split into two chains; the boundary residue
        // must validate.
        let positions: Vec<u64> = (0..count).map(|i| i * stride + (i % jitter)).collect();
        let b = GapBitmap::from_sorted(&positions, count * stride + jitter);
        let _ = b.skip_dir();
        let mut batched = Vec::new();
        b.decode_all(&mut batched);
        prop_assert_eq!(&batched, &positions);
    }

    #[test]
    fn word_copies_equal_bit_copies_at_all_alignments(
        bits in proptest::collection::vec(any::<bool>(), 1..300),
    ) {
        let mut src = BitBuf::new();
        for &bit in &bits {
            src.push_bit(bit);
        }
        for align in 0..64u32 {
            // extend_from after an arbitrary-alignment prefix.
            let mut dst = pad(align);
            dst.extend_from(&src);
            prop_assert_eq!(dst.len(), u64::from(align) + src.len());
            for (i, &bit) in bits.iter().enumerate() {
                prop_assert_eq!(dst.get_bit(u64::from(align) + i as u64), bit, "align {}", align);
            }
        }
        // DiskWriter::write_bulk (via BitSink::put_bits_bulk) at aligned
        // and unaligned extent tails.
        for align in [0u32, 1, 37, 63] {
            let mut disk = Disk::new(IoConfig::with_block_bits(128));
            let ext = disk.alloc();
            let session = IoSession::untracked();
            {
                let mut w = disk.writer(ext, &session);
                for i in 0..align {
                    w.write_bit(i % 2 == 0);
                }
                w.put_bits_bulk(src.words(), src.len());
            }
            let mut r = disk.reader(ext, u64::from(align), &session);
            for &bit in &bits {
                prop_assert_eq!(r.read_bit(), bit);
            }
        }
    }

    #[test]
    fn complement_streams_equal_naive(positions in proptest::collection::btree_set(0u64..600, 0..120)) {
        let universe = 600u64;
        let b = GapBitmap::from_sorted_iter(positions.iter().copied(), universe);
        let complement = b.complement();
        let naive: Vec<u64> = (0..universe).filter(|p| !positions.contains(p)).collect();
        prop_assert_eq!(complement.to_vec(), naive);
        prop_assert_eq!(complement.count(), universe - b.count());
        prop_assert_eq!(complement.complement(), b);
    }

    #[test]
    fn write_codes_roundtrip_through_sinks(positions in proptest::collection::btree_set(0u64..10_000, 1..150)) {
        let b = GapBitmap::from_sorted_iter(positions.iter().copied(), 10_000);
        // Concatenate twice into one buffer (first lands aligned, second
        // lands wherever the first ended) and decode both back.
        let mut stream = BitBuf::new();
        b.write_codes_to(&mut stream);
        b.write_codes_to(&mut stream);
        let want: Vec<u64> = positions.iter().copied().collect();
        let dec1 = GapDecoder::new(stream.reader(), b.count());
        prop_assert_eq!(dec1.collect::<Vec<_>>(), want.clone());
        let dec2 = GapDecoder::new(stream.reader_at(b.size_bits()), b.count());
        prop_assert_eq!(dec2.collect::<Vec<_>>(), want);
    }
}

/// The widest codeword the decoder can meet: `gamma((1 << 62) + 3)` is
/// 125 bits — two full words of unary prefix plus a straddling mantissa.
#[test]
fn maximum_width_gamma_codes_decode() {
    let positions = [5u64, 5 + ((1u64 << 62) + 3), u64::MAX - 2];
    let b = GapBitmap::from_sorted(&positions, u64::MAX);
    assert_eq!(b.to_vec(), positions);
    assert_eq!(b.iter().collect::<Vec<_>>(), positions);
}
