//! SWAR multi-codeword gamma decoding.
//!
//! The batch decode kernel behind [`crate::GapBitmap::decode_all`] and
//! [`crate::GapBitmap::or_into_words`]. The stream is processed through
//! a 64-bit register window: one (pair of) word loads per window, then
//! every gamma codeword that lies entirely inside the register is
//! decoded with a shift, a `leading_zeros` and a shift-extract — no
//! cursor, no per-code memory traffic, and on run-heavy streams runs of
//! unit gaps (leading 1-bits) burst-emitted whole. Codes wider than the
//! window (gaps ≥ 2³², > 64 code bits) take a word-scan unary fallback
//! and re-synchronize the window. One chain loop serves two sinks: the
//! slots of an output vector, or the bits of a word array.
//!
//! Gamma codes chain serially — each codeword's start depends on the
//! previous one's length — so a single decode loop is bound by its
//! `leading_zeros` → shift dependency chain, not by issue width. When
//! the bitmap carries a skip directory, its entries record exact
//! `(element, bit offset)` resume points, which lets the decoder split
//! the stream in two and run **two independent chains interleaved** in
//! one loop: the out-of-order core overlaps them for close to twice the
//! throughput on one thread.
//!
//! Every choice here depends only on what the code can observe. The
//! stream's shape picks the chain count and whether the run-of-ones test
//! is compiled into the drain; the CPU picks the body. On x86_64 an
//! `lzcnt`/BMI-enabled clone of the same `#[inline(always)]` core is
//! selected once per process by runtime detection; the portable SWAR
//! body (baseline x86-64 lowers `leading_zeros` to `bsr`+`cmov`) runs on
//! other CPUs and targets. Every body is differentially tested against
//! the bit-by-bit reference decoders (the tests below and
//! `tests/differential.rs`).
//!
//! The same kernel decodes untrusted streams (a rows frame off the wire)
//! through [`try_decode_gaps`]. Nothing in the hot drains changes for
//! it: a code the word-scan fallback cannot finish stops its chain past
//! the stream's end, and the count check that the trusted entry asserts
//! returns a [`DecodeError`] instead.

use crate::kernel;
use crate::skip::SkipDirectory;

/// Streams shorter than this decode single-chain even when a directory
/// is available: the dual-chain setup is not worth it under a few
/// hundred codes.
const DUAL_MIN_COUNT: u64 = 512;

/// Streams whose mean code is under this many half-bits (1.5 bits) decode
/// with the run-of-ones burst test compiled into the fast drain. A mean
/// under 1.5 bits needs at least three quarters of the codes to be unit
/// gaps (every other gamma code is ≥ 3 bits), so runs average four codes
/// or more and the burst pays for its test. In random dense streams
/// (gaps geometric with mean 2, ~2.3 bits/code) runs average two codes:
/// the test and the burst's variable-length emit loop then mispredict,
/// and plain gamma decoding of the unit gaps is faster (E20's
/// `kernel/decode_dense_random` against `kernel/decode_dense`).
const BURST_MAX_HALF_BITS_PER_CODE: u64 = 3;

/// Decodes `count` gamma gap codes (`bit_len` valid bits of `words`,
/// MSB-first; first code is `gamma(p₀ + 1)`, the rest gaps) into `out`,
/// which is cleared first. `dir`, when present, must be the stream's own
/// skip directory; it enables the dual-chain split (only its exact
/// `pos`/`bit_off` fields are used, never the occupancy words).
///
/// # Panics
/// Panics if the stream holds more or fewer codes than `count`, or does
/// not end exactly at `bit_len`.
pub(crate) fn decode_gaps(
    words: &[u64],
    bit_len: u64,
    count: u64,
    dir: Option<&SkipDirectory>,
    out: &mut Vec<u64>,
) {
    let (pos, len) = decode_into(words, bit_len, count, dir, out);
    if let Err(e) = check_count(len, count, bit_len, pos) {
        panic!("{e}");
    }
}

/// The body of [`decode_gaps`]: clears `out`, decodes into it and
/// returns where decoding stopped and how many elements it emitted.
fn decode_into(
    words: &[u64],
    bit_len: u64,
    count: u64,
    dir: Option<&SkipDirectory>,
    out: &mut Vec<u64>,
) -> (u64, usize) {
    out.clear();
    out.reserve(count as usize);
    let (pos, len) = dispatch(words, bit_len, count, dir, &mut Slots(out.as_mut_ptr()));
    // SAFETY: the chains wrote slots `0..len` (`len` falls back to the
    // leading chain's cursor when its boundary disagrees, so the exposed
    // prefix is always initialized), all within the reserved capacity.
    unsafe { out.set_len(len) };
    (pos, len)
}

/// Why a gap code stream did not decode ([`try_decode_gaps`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// `bit_len` exceeds the words supplied, or `count` exceeds
    /// `bit_len` (every gamma code is at least one bit).
    Lengths {
        /// Claimed stream length in bits.
        bit_len: u64,
        /// Words supplied.
        words: u64,
        /// Claimed number of codes.
        count: u64,
    },
    /// The stream holds more codes than its count: decoding stopped
    /// after the last counted code with bits left over.
    TrailingBits {
        /// Bit offset where the uncounted bits begin.
        at: u64,
        /// Claimed stream length in bits.
        bit_len: u64,
    },
    /// The stream ended after `got` of `count` codes.
    Short {
        /// Codes decoded.
        got: u64,
        /// Claimed number of codes.
        count: u64,
    },
    /// A code runs past the end of the stream, or is wider than any gap
    /// a `u64` can hold.
    Truncated {
        /// Codes decoded before it.
        got: u64,
    },
    /// Element `index` is not above its predecessor (the running sum
    /// wrapped) or lies at or past the universe.
    OutOfOrder {
        /// Index of the offending element.
        index: u64,
        /// Its decoded value.
        value: u64,
        /// The universe bound.
        universe: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DecodeError::Lengths {
                bit_len,
                words,
                count,
            } => write!(
                f,
                "gap stream of {bit_len} bits in {words} words cannot hold {count} codes"
            ),
            DecodeError::TrailingBits { at, bit_len } => write!(
                f,
                "gap stream holds more codes than its count: bits {at}..{bit_len} left over"
            ),
            DecodeError::Short { got, count } => {
                write!(f, "gap stream ended early: {got} of {count} codes")
            }
            DecodeError::Truncated { got } => {
                write!(f, "gap code {got} runs past the end of the stream")
            }
            DecodeError::OutOfOrder {
                index,
                value,
                universe,
            } => write!(
                f,
                "element {index} ({value}) is not increasing or lies outside universe {universe}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes an untrusted gamma gap stream: [`decode_gaps`] on one chain
/// (no directory), returning an error wherever that panics, and then
/// checking that the positions are strictly increasing and below
/// `universe` — a hostile stream can wrap the running sum. The lengths
/// are checked before `out` grows, so its capacity never exceeds one
/// element per bit of the stream.
///
/// On error `out` holds an unspecified prefix of the decode.
pub fn try_decode_gaps(
    words: &[u64],
    bit_len: u64,
    count: u64,
    universe: u64,
    out: &mut Vec<u64>,
) -> Result<(), DecodeError> {
    if bit_len > 64 * words.len() as u64 || count > bit_len {
        return Err(DecodeError::Lengths {
            bit_len,
            words: words.len() as u64,
            count,
        });
    }
    let (pos, len) = decode_into(words, bit_len, count, None, out);
    check_count(len, count, bit_len, pos)?;
    // One branch-free pass over the pairs; the offender is looked for
    // only once the pass failed.
    let ordered = out.len() < 2
        || out[..out.len() - 1]
            .iter()
            .zip(&out[1..])
            .fold(true, |ok, (a, b)| ok & (a < b));
    if ordered && out.last().is_none_or(|&p| p < universe) {
        return Ok(());
    }
    let index = (0..out.len())
        .find(|&i| out[i] >= universe || (i > 0 && out[i - 1] >= out[i]))
        .expect("an element out of order or range");
    Err(DecodeError::OutOfOrder {
        index: index as u64,
        value: out[index],
        universe,
    })
}

/// Decodes the same stream as [`decode_gaps`], but ORs each element `p`
/// into bit `(p − base) % 64` of `bits[(p − base) / 64]` (LSB-first)
/// instead of writing it to a slot: the word bitset of the set over the
/// 64-aligned span starting at `base`, with no element-sized buffer in
/// between. Runs of unit gaps are set as masks.
///
/// # Panics
/// As [`decode_gaps`], and if an element lies outside the span.
pub(crate) fn set_gaps(
    words: &[u64],
    bit_len: u64,
    count: u64,
    dir: Option<&SkipDirectory>,
    bits: &mut [u64],
    base: u64,
) {
    debug_assert!(base.is_multiple_of(64));
    let sink = &mut Bits {
        words: bits,
        base_word: (base / 64) as usize,
    };
    let (pos, len) = dispatch(words, bit_len, count, dir, sink);
    if let Err(e) = check_count(len, count, bit_len, pos) {
        panic!("{e}");
    }
}

/// Picks the chain split, the burst specialization and the body for one
/// decode of `count` codes into `sink`, returning where decoding stopped
/// and how many elements it emitted. An empty stream runs no kernel.
fn dispatch<S: Sink>(
    words: &[u64],
    bit_len: u64,
    count: u64,
    dir: Option<&SkipDirectory>,
    sink: &mut S,
) -> (u64, usize) {
    if count == 0 {
        return (0, 0);
    }
    let split = dir.and_then(|d| split_point(d, bit_len, count));
    // The run-of-ones burst only pays on run-heavy streams; everywhere
    // else the run test is compiled out of the hot drain (see
    // `Chain::step` — a unit gap still decodes correctly through the
    // plain gamma path, the burst is only ever an optimization).
    let burst = 2 * bit_len < BURST_MAX_HALF_BITS_PER_CODE * count;
    let cap = count as usize;
    #[cfg(target_arch = "x86_64")]
    if lzcnt_available() {
        // SAFETY: `lzcnt`, `bmi1` and `bmi2` were runtime-detected above.
        let stop = unsafe {
            if burst {
                decode_core_accel::<true, S>(words, bit_len, sink, cap, split)
            } else {
                decode_core_accel::<false, S>(words, bit_len, sink, cap, split)
            }
        };
        kernel::metrics().decode_simd.inc();
        return stop;
    }
    let stop = if burst {
        decode_core::<true, S>(words, bit_len, sink, cap, split)
    } else {
        decode_core::<false, S>(words, bit_len, sink, cap, split)
    };
    kernel::metrics().decode_swar.inc();
    stop
}

/// Where a decode chain puts its elements. Both methods are told the
/// element's index in the stream; the chains guarantee every index is
/// below the decode's `cap`.
trait Sink {
    /// Element `idx` of the stream, with value `v`.
    ///
    /// # Safety
    /// `idx < cap`.
    unsafe fn one(&mut self, idx: usize, v: u64);

    /// Elements `idx .. idx + ones`, with values `prev + 1 ..= prev + ones`
    /// (a run of `1 ≤ ones ≤ 64` unit gaps).
    ///
    /// # Safety
    /// `idx + ones ≤ cap`.
    unsafe fn run(&mut self, idx: usize, prev: u64, ones: u32);
}

/// Writes element `idx` to slot `idx` of storage with at least `cap`
/// writable slots. A raw pointer, not `Vec::push`, which would reload
/// and store the length through memory on every element — that costs
/// more than the decode itself.
struct Slots(*mut u64);

impl Sink for Slots {
    #[inline(always)]
    unsafe fn one(&mut self, idx: usize, v: u64) {
        // SAFETY: the caller keeps `idx < cap`.
        unsafe { self.0.add(idx).write(v) };
    }

    #[inline(always)]
    unsafe fn run(&mut self, idx: usize, prev: u64, ones: u32) {
        for d in 0..u64::from(ones) {
            // SAFETY: the caller keeps `idx + ones ≤ cap`.
            unsafe { self.0.add(idx + d as usize).write(prev.wrapping_add(d + 1)) };
        }
    }
}

/// Sets bit `v % 64` of word `v / 64 − base_word` for every element `v`;
/// the element index is not needed. Indexing is bounds-checked, so a
/// stream that strays outside the slice panics instead of writing out of
/// bounds.
struct Bits<'a> {
    words: &'a mut [u64],
    base_word: usize,
}

impl Sink for Bits<'_> {
    #[inline(always)]
    unsafe fn one(&mut self, _idx: usize, v: u64) {
        self.words[(v >> 6) as usize - self.base_word] |= 1 << (v & 63);
    }

    #[inline(always)]
    unsafe fn run(&mut self, _idx: usize, prev: u64, ones: u32) {
        debug_assert!((1..=64).contains(&ones));
        // Bits `start .. start + ones` span at most two words.
        let start = prev.wrapping_add(1);
        let (w, b) = ((start >> 6) as usize - self.base_word, (start & 63) as u32);
        let mask = u64::MAX >> (64 - ones);
        self.words[w] |= mask << b;
        if b + ones > 64 {
            self.words[w + 1] |= mask >> (64 - b);
        }
    }
}

/// Plans the chain split for one decode: the directory entry nearest the
/// stream's bit midpoint (balancing decode work, not element counts), as
/// the resuming chain's `(element index, value, resume bit offset)`.
/// `None` — one chain — for streams under [`DUAL_MIN_COUNT`] codes or
/// when no interior entry fits.
fn split_point(dir: &SkipDirectory, bit_len: u64, count: u64) -> Option<(usize, u64, u64)> {
    if count < DUAL_MIN_COUNT {
        return None;
    }
    let entries = dir.entries();
    let j = entries.partition_point(|e| e.bit_off < bit_len / 2);
    // Entry 0 is the first element (offset past its code ≈ 0 bits in):
    // splitting there degenerates the leading chain.
    if j == 0 || j >= entries.len() {
        return None;
    }
    let e = &entries[j];
    let idx = j as u64 * u64::from(dir.k());
    if idx >= count || e.bit_off > bit_len {
        // A directory that disagrees with the count is not split on; the
        // count checks still police the result.
        return None;
    }
    Some((idx as usize, e.pos, e.bit_off))
}

/// The post-decode count check shared by both sinks and both entries:
/// `pos` is where decoding stopped — short of `bit_len` only when an
/// output bound was hit with stream left over, past it only when a code
/// ran off the end ([`Chain::step`]) — and `len` how many elements were
/// emitted.
fn check_count(len: usize, count: u64, bit_len: u64, pos: u64) -> Result<(), DecodeError> {
    let got = len as u64;
    if pos > bit_len {
        Err(DecodeError::Truncated { got })
    } else if pos < bit_len {
        Err(DecodeError::TrailingBits { at: pos, bit_len })
    } else if got != count {
        Err(DecodeError::Short { got, count })
    } else {
        Ok(())
    }
}

/// Whether the accelerated clone may run, detected once per process.
#[cfg(target_arch = "x86_64")]
fn lzcnt_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("lzcnt")
            && std::arch::is_x86_feature_detected!("bmi1")
            && std::arch::is_x86_feature_detected!("bmi2")
    })
}

/// The lzcnt/BMI clone of [`decode_body`]. `leading_zeros` lowers to one
/// `lzcnt`, variable shifts to `shlx`/`shrx` — same source, shorter
/// dependency chain per codeword.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "lzcnt,bmi1,bmi2")]
unsafe fn decode_core_accel<const BURST: bool, S: Sink>(
    words: &[u64],
    bit_len: u64,
    sink: &mut S,
    cap: usize,
    split: Option<(usize, u64, u64)>,
) -> (u64, usize) {
    decode_body::<BURST, S>(words, bit_len, sink, cap, split)
}

/// The portable SWAR entry point.
fn decode_core<const BURST: bool, S: Sink>(
    words: &[u64],
    bit_len: u64,
    sink: &mut S,
    cap: usize,
    split: Option<(usize, u64, u64)>,
) -> (u64, usize) {
    decode_body::<BURST, S>(words, bit_len, sink, cap, split)
}

/// One decode chain: an independent cursor over a half-open bit range of
/// the stream, emitting into its own half-open slot range of the output.
struct Chain {
    /// Next bit to decode.
    pos: u64,
    /// End of this chain's bit range.
    end: u64,
    /// Next output slot.
    idx: usize,
    /// End of this chain's slot range.
    lim: usize,
    /// Running position sum (`u64::MAX` seeds the first chain, since the
    /// stream opens with `gamma(p₀ + 1)`).
    prev: u64,
}

impl Chain {
    #[inline(always)]
    fn live(&self) -> bool {
        self.pos < self.end && self.idx < self.lim
    }

    /// Decodes every codeword inside one 64-bit window at `self.pos`.
    ///
    /// # Safety
    /// `sink` must accept element indices below `self.lim`.
    #[inline(always)]
    unsafe fn step<const BURST: bool, S: Sink>(&mut self, words: &[u64], sink: &mut S) {
        let pos = self.pos;
        let end = self.end;
        let lim = self.lim;
        // Load a 64-bit window at `pos`, then drain every codeword that
        // lies entirely inside it. The drain keeps the *residual* window
        // as its loop state (`rest <<= len`), so the per-code dependency
        // chain is one count-leading-zeros plus one shift.
        let w = (pos >> 6) as usize;
        let off = (pos & 63) as u32;
        let lo = words.get(w + 1).copied().unwrap_or(0);
        // `(lo >> 1) >> (63 − off)` is `lo >> (64 − off)` without the
        // undefined 64-bit shift at off = 0.
        let window = (words[w] << off) | ((lo >> 1) >> (63 - off));
        let valid = (end - pos).min(64) as u32;
        let mut rest = window;
        let mut used = 0u32;
        let mut idx = self.idx;
        let mut prev = self.prev;
        if valid == 64 && lim - idx >= 64 {
            // Fast drain: a full window emits at most 64 elements (every
            // code is ≥ 1 bit), so `lim - idx ≥ 64` clears every output
            // bound up front and the per-code loop carries no capacity
            // checks. The `used ≥ 64` test is only needed after a burst:
            // on the gamma path a fully-consumed `rest` is all zero
            // (`<<=` drained it), the next `lz` reads 64, and the length
            // test breaks — one spare iteration instead of a per-code
            // compare.
            loop {
                let lz = rest.leading_zeros();
                // The run-of-ones burst is an optimization, never a
                // requirement: with `BURST` off a unit gap decodes
                // through the gamma path below (`lz = 0` → `len = 1`,
                // mantissa the 1-bit itself), and the per-code test
                // disappears from streams whose runs are too short to
                // pay for it.
                if BURST && lz == 0 {
                    // Shifted-in zeros cap the run at `64 - used` — no
                    // clamp needed.
                    let ones = (!rest).leading_zeros();
                    // SAFETY: `idx + ones ≤ idx + 64 ≤ lim`.
                    unsafe { sink.run(idx, prev, ones) };
                    idx += ones as usize;
                    prev = prev.wrapping_add(u64::from(ones));
                    used += ones;
                    if used >= 64 {
                        break;
                    }
                    rest = window << used;
                    continue;
                }
                let len = 2 * lz + 1;
                if used + len > 64 {
                    break;
                }
                prev = prev.wrapping_add(rest >> (63 - 2 * lz));
                // SAFETY: `idx < idx₀ + 64 ≤ lim` — at most 64 emits per
                // window.
                unsafe { sink.one(idx, prev) };
                idx += 1;
                used += len;
                rest <<= len;
            }
        } else {
            loop {
                let lz = rest.leading_zeros();
                if lz == 0 {
                    // A leading 1 codes gap 1, and a run of k ones is k
                    // consecutive positions — the dense-bitmap case, emitted
                    // as one burst with no per-element decode at all.
                    let ones = (!rest)
                        .leading_zeros()
                        .min(valid - used)
                        .min((lim - idx) as u32);
                    // SAFETY: `idx + ones ≤ lim` by the clamp above.
                    unsafe { sink.run(idx, prev, ones) };
                    idx += ones as usize;
                    prev = prev.wrapping_add(u64::from(ones));
                    used += ones;
                    if used >= valid || idx >= lim {
                        break;
                    }
                    rest = window << used;
                    continue;
                }
                // A whole gamma code is 2·lz + 1 ≤ 63 bits when it fits the
                // window (lz ≥ 32 forces the fallback below), so the shifts
                // stay in range.
                let len = 2 * lz + 1;
                if used + len > valid {
                    break;
                }
                // Top `lz` bits of `rest` are zero, so no mask is needed.
                prev = prev.wrapping_add(rest >> (63 - 2 * lz));
                // SAFETY: `idx < lim` is a loop invariant (checked on entry
                // and after every emit).
                unsafe { sink.one(idx, prev) };
                idx += 1;
                used += len;
                if used >= valid || idx >= lim {
                    break;
                }
                rest <<= len;
            }
        }
        if used == 0 {
            if idx >= lim {
                self.idx = idx;
                self.prev = prev;
                return;
            }
            // Codeword longer than the window (gap ≥ 2³²), or one cut off
            // by the end of a malformed stream: word-scan the unary
            // prefix, extract the mantissa, re-synchronize. A code that
            // does not fit the chain's range stops the chain one bit past
            // its end, which the count check reports.
            let Some((gap, next)) = long_code(words, end, pos) else {
                self.pos = end + 1;
                self.idx = idx;
                self.prev = prev;
                return;
            };
            prev = prev.wrapping_add(gap);
            // SAFETY: `idx < lim` checked just above.
            unsafe { sink.one(idx, prev) };
            idx += 1;
            self.pos = next;
        } else {
            self.pos = pos + u64::from(used);
        }
        self.idx = idx;
        self.prev = prev;
    }
}

/// Whether chain `c` finished exactly at a split boundary: it emitted
/// its whole slot range, and the residue of its bit range is exactly the
/// split element's own codeword (whose gamma length follows from the gap
/// to the chain's last emitted value).
#[inline(always)]
fn boundary_ok(c: &Chain, split_pos: u64, split_off: u64) -> bool {
    let gap = split_pos.wrapping_sub(c.prev);
    c.idx == c.lim && gap != 0 && c.pos + u64::from(2 * (63 - gap.leading_zeros()) + 1) == split_off
}

/// The decode loop shared by both bodies and both sinks. Each chain
/// emits only element indices inside its own slot range, all below
/// `cap`. A `split` (a directory resume point, see [`split_point`])
/// gives two interleaved chains, none gives one. Returns the bit
/// position where decoding stopped (short of `bit_len` only if an
/// output bound was hit first, i.e. the stream holds more codes than its
/// count) and the number of leading elements emitted.
#[inline(always)]
fn decode_body<const BURST: bool, S: Sink>(
    words: &[u64],
    bit_len: u64,
    sink: &mut S,
    cap: usize,
    split: Option<(usize, u64, u64)>,
) -> (u64, usize) {
    let mut a = Chain {
        pos: 0,
        end: bit_len,
        idx: 0,
        lim: cap,
        prev: u64::MAX,
    };
    match split {
        // The split element's value is recorded in the directory — it is
        // written to its slot directly; the second chain resumes decoding
        // just past its codeword. The interleaved hot loop runs one
        // window per chain per iteration with no dependency between
        // them, so the out-of-order core overlaps the two decode chains.
        Some(s1) if s1.0 < cap => {
            // SAFETY: `s1.0 < cap`.
            unsafe { sink.one(s1.0, s1.1) };
            a.end = s1.2;
            a.lim = s1.0;
            let mut b = Chain {
                pos: s1.2,
                end: bit_len,
                idx: s1.0 + 1,
                lim: cap,
                prev: s1.1,
            };
            while a.live() && b.live() {
                // SAFETY: each chain stays inside its own slot range.
                unsafe {
                    a.step::<BURST, S>(words, sink);
                    b.step::<BURST, S>(words, sink);
                }
            }
            while a.live() {
                // SAFETY: as above.
                unsafe { a.step::<BURST, S>(words, sink) };
            }
            while b.live() {
                // SAFETY: as above.
                unsafe { b.step::<BURST, S>(words, sink) };
            }
            if boundary_ok(&a, s1.1, s1.2) {
                (b.pos, b.idx)
            } else {
                // Chain A's region disagrees with the directory: report
                // its cursor so the count checks fire, and only the
                // prefix it emitted.
                (a.pos.min(s1.2.saturating_sub(1)), a.idx)
            }
        }
        _ => {
            while a.live() {
                // SAFETY: the single chain owns slots `0..cap`.
                unsafe { a.step::<BURST, S>(words, sink) };
            }
            (a.pos, a.idx)
        }
    }
}

/// The gamma code at `pos` through the word-scan path: its value and the
/// bit offset just past it. `None` when the code does not end by `end`,
/// or its unary prefix is 64 zeros or more (a gap no `u64` holds).
/// `end` must not exceed the bits of `words`.
#[inline(always)]
fn long_code(words: &[u64], end: u64, pos: u64) -> Option<(u64, u64)> {
    let n = unary_at(words, end, pos)?;
    let tail = pos + u64::from(n) + 1;
    if n > 63 || tail + u64::from(n) > end {
        return None;
    }
    Some(((1u64 << n) | bits_at(words, tail, n), tail + u64::from(n)))
}

/// Zeros before the next 1-bit at `pos` (the unary prefix), scanning
/// whole words; `None` if no 1-bit comes before `bit_len`, or none
/// within the first 64 zeros.
#[inline(always)]
fn unary_at(words: &[u64], bit_len: u64, mut pos: u64) -> Option<u32> {
    let mut zeros = 0u32;
    while pos < bit_len && zeros < 64 {
        let w = (pos >> 6) as usize;
        let off = (pos & 63) as u32;
        let chunk = words[w] << off;
        let avail = (64 - off).min((bit_len - pos).min(64) as u32);
        let lz = chunk.leading_zeros().min(avail);
        if lz < avail {
            return Some(zeros + lz);
        }
        zeros += avail;
        pos += u64::from(avail);
    }
    None
}

/// Reads `k ≤ 64` bits at `pos` (MSB-first, may straddle two words).
#[inline(always)]
fn bits_at(words: &[u64], pos: u64, k: u32) -> u64 {
    if k == 0 {
        return 0;
    }
    let w = (pos >> 6) as usize;
    let off = (pos & 63) as u32;
    let avail = 64 - off;
    if k <= avail {
        (words[w] << off) >> (64 - k)
    } else {
        let hi = words[w] << off >> (64 - k);
        let lo = words[w + 1] >> (64 - (k - avail));
        hi | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{codes, GapBitmap};
    use proptest::prelude::*;

    type Split = Option<(usize, u64, u64)>;
    type Body<S> = fn(&[u64], u64, &mut S, usize, Split) -> (u64, usize);

    /// Every decode body for one sink: SWAR with and without the run
    /// test, and the clone both ways when the CPU has it.
    fn bodies<S: Sink>() -> Vec<(&'static str, Body<S>)> {
        let mut out: Vec<(&'static str, Body<S>)> = vec![
            ("swar/burst", decode_core::<true, S>),
            ("swar", decode_core::<false, S>),
        ];
        #[cfg(target_arch = "x86_64")]
        if lzcnt_available() {
            // SAFETY: the instructions were runtime-detected.
            out.push(("accel/burst", |w, b, s, c, p| unsafe {
                decode_core_accel::<true, S>(w, b, s, c, p)
            }));
            // SAFETY: as above.
            out.push(("accel", |w, b, s, c, p| unsafe {
                decode_core_accel::<false, S>(w, b, s, c, p)
            }));
        }
        out
    }

    /// Gaps of random widths up to `max_width` bits (0: one long
    /// unit-gap run, the burst path).
    fn gaps(widths: &[u32], max_width: u32, salt: u64) -> Vec<u64> {
        widths
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let w = w.min(max_width);
                (1u64 << w) | (salt.rotate_left(7 * i as u32) & ((1u64 << w) - 1))
            })
            .collect()
    }

    /// The positions `gaps` code (the first gap is `p₀ + 1`).
    fn positions(gaps: &[u64]) -> Vec<u64> {
        let mut prev = u64::MAX;
        gaps.iter()
            .map(|&g| {
                prev = prev.wrapping_add(g);
                prev
            })
            .collect()
    }

    proptest! {
        #[test]
        fn every_body_equals_the_reference_decoder(
            widths in proptest::collection::vec(0u32..24, 1..1500),
            max_width in 0u32..24,
            salt in any::<u64>(),
            wide in proptest::collection::vec((0usize..1500, 32u32..61), 0..3),
        ) {
            // Plus a few gaps ≥ 2³² whose codes outgrow the 64-bit window.
            let mut gaps = gaps(&widths, max_width, salt);
            for &(at, w) in &wide {
                let at = at % gaps.len();
                gaps[at] = (1u64 << w) | (salt >> (64 - w));
            }
            let positions = positions(&gaps);
            let bm = GapBitmap::from_sorted(&positions, positions[positions.len() - 1] + 1);
            let mut r = bm.code_bits().reader();
            let mut p = u64::MAX;
            let reference: Vec<u64> = (0..bm.count())
                .map(|_| {
                    p = p.wrapping_add(codes::get_gamma_reference(&mut r));
                    p
                })
                .collect();
            prop_assert_eq!(&reference, &positions);
            // One chain, and the dual split the directory plans (streams
            // of 512 or more codes).
            let planned = split_point(bm.skip_dir(), bm.size_bits(), bm.count());
            let cap = bm.count() as usize;
            for split in [None, planned] {
                for (body, decode) in bodies::<Slots>() {
                    let mut got = Vec::with_capacity(cap);
                    let (pos, len) = decode(
                        bm.code_bits().words(),
                        bm.size_bits(),
                        &mut Slots(got.as_mut_ptr()),
                        cap,
                        split,
                    );
                    // SAFETY: the body wrote slots `0..len < cap`.
                    unsafe { got.set_len(len) };
                    prop_assert_eq!(&got, &reference, "{} with split {:?}", body, split);
                    prop_assert!(pos >= bm.size_bits(), "{} stopped at {}", body, pos);
                }
            }
        }

        #[test]
        fn fallible_decode_equals_the_trusted_decoders_and_refuses_malformed_streams(
            widths in proptest::collection::vec(0u32..24, 1..1500),
            max_width in 1u32..24,
            burst in any::<bool>(),
            salt in any::<u64>(),
            wide in proptest::collection::vec((0usize..1500, 32u32..61), 0..3),
            cut in any::<u64>(),
        ) {
            // Unit gaps only (the burst drain) or gaps up to `max_width`
            // bits (the plain one), plus a few codes wider than 64 bits.
            let mut gaps = gaps(&widths, if burst { 0 } else { max_width }, salt);
            for &(at, w) in &wide {
                let at = at % gaps.len();
                gaps[at] = (1u64 << w) | (salt >> (64 - w));
            }
            let positions = positions(&gaps);
            let universe = positions[positions.len() - 1] + 1;
            let bm = GapBitmap::from_sorted(&positions, universe);
            let (words, bit_len, count) = (bm.code_bits().words(), bm.size_bits(), bm.count());
            let mut r = bm.code_bits().reader();
            let mut p = u64::MAX;
            let reference: Vec<u64> = (0..count)
                .map(|_| {
                    p = p.wrapping_add(codes::get_gamma_reference(&mut r));
                    p
                })
                .collect();
            let mut got = vec![7];
            prop_assert_eq!(try_decode_gaps(words, bit_len, count, universe, &mut got), Ok(()));
            prop_assert_eq!(&got, &reference);
            prop_assert_eq!(&got, &bm.to_vec());

            let refused = |words: &[u64], bit_len, count, universe| {
                try_decode_gaps(words, bit_len, count, universe, &mut Vec::new()).is_err()
            };
            // Too many codes for the count, too few, a universe the last
            // position reaches, and words short of the claimed length.
            prop_assert!(refused(words, bit_len, count - 1, universe));
            prop_assert!(refused(words, bit_len, count + 1, universe));
            prop_assert!(refused(words, bit_len, count, universe - 1));
            prop_assert!(refused(&words[..words.len() - 1], bit_len, count, universe));
            // A tail cut anywhere inside the last code.
            let last_code = u64::from(2 * (63 - gaps[gaps.len() - 1].leading_zeros()) + 1);
            let short = bit_len - 1 - cut % last_code;
            prop_assert!(refused(words, short, count, universe), "cut to {} of {}", short, bit_len);
        }

        #[test]
        fn every_body_sets_the_reference_bits(
            widths in proptest::collection::vec(0u32..10, 1..1500),
            max_width in 0u32..10,
            salt in any::<u64>(),
            slack in 0u64..130,
        ) {
            // Universes end anywhere in a word, runs straddle word
            // boundaries, and the dual split may start mid-word.
            let positions = positions(&gaps(&widths, max_width, salt));
            let universe = positions.last().unwrap() + 1 + slack;
            let bm = GapBitmap::from_sorted(&positions, universe);
            let mut reference = vec![0u64; universe.div_ceil(64) as usize];
            for &p in &positions {
                reference[(p / 64) as usize] |= 1 << (p % 64);
            }
            let planned = split_point(bm.skip_dir(), bm.size_bits(), bm.count());
            for split in [None, planned] {
                // One list per body: each borrows its own output words.
                for k in 0..bodies::<Bits<'_>>().len() {
                    let mut got = vec![0u64; reference.len()];
                    let (body, decode) = bodies()[k];
                    let (pos, len) = decode(
                        bm.code_bits().words(),
                        bm.size_bits(),
                        &mut Bits {
                            words: &mut got,
                            base_word: 0,
                        },
                        bm.count() as usize,
                        split,
                    );
                    prop_assert_eq!(&got, &reference, "{} with split {:?}", body, split);
                    prop_assert_eq!(len as u64, bm.count());
                    prop_assert!(pos >= bm.size_bits(), "{} stopped at {}", body, pos);
                }
            }
        }
    }

    /// A stream whose codes are each well formed but whose running sum
    /// wraps past `u64::MAX`, back below its first position.
    #[test]
    fn a_wrapping_running_sum_is_refused() {
        let mut b = crate::BitBuf::new();
        codes::put_gamma(&mut b, 6); // p₀ = 5
        codes::put_gamma(&mut b, u64::MAX - 2); // 5 + 2⁶⁴ − 3 wraps to 2
        let err = try_decode_gaps(b.words(), b.len(), 2, 100, &mut Vec::new());
        assert_eq!(
            err,
            Err(DecodeError::OutOfOrder {
                index: 1,
                value: 2,
                universe: 100
            })
        );
    }

    /// Codes the trusted decoder used to panic on: a unary prefix of 64
    /// zeros or more, a prefix that runs off the stream, and a mantissa
    /// cut by the end of the last word.
    #[test]
    fn malformed_long_codes_are_errors_not_panics() {
        let refused = |words: &[u64], bit_len, count| {
            try_decode_gaps(words, bit_len, count, u64::MAX, &mut Vec::new())
        };
        // 64 zeros, then a 1: no u64 gap has so long a prefix.
        assert_eq!(
            refused(&[0, 1 << 63], 65, 1),
            Err(DecodeError::Truncated { got: 0 })
        );
        // Nothing but zeros.
        assert_eq!(
            refused(&[0, 0], 128, 1),
            Err(DecodeError::Truncated { got: 0 })
        );
        // A 40-zero prefix whose 40-bit mantissa the stream ends inside.
        assert_eq!(
            refused(&[1 << 23, 0], 70, 1),
            Err(DecodeError::Truncated { got: 0 })
        );
        // A claimed length past the words supplied.
        assert!(matches!(
            refused(&[u64::MAX], 65, 1),
            Err(DecodeError::Lengths { .. })
        ));
    }
}
