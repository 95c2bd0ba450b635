//! Gap-compressed bitmaps.
//!
//! A set `S ⊆ [0, universe)` is stored as the strictly increasing sequence
//! of its elements, encoded as Elias-gamma codes of the *gaps*: the first
//! element `p₀` as `gamma(p₀ + 1)`, each subsequent element as
//! `gamma(pᵢ − pᵢ₋₁)`. This is the paper's run-length encoding (§1.2): a
//! run of `x` zeros costs `2⌊lg(x+1)⌋ + O(1)` bits, so a bitmap with `m`
//! ones over `[n]` costs `O(m lg(n/m) + m)` bits — within a constant factor
//! of the information-theoretic minimum `lg C(n, m)` (by concavity of `lg`).
//!
//! A set that is dense within its span is smaller as plain words: the
//! storage layers record that choice per slot, and a [`GapBitmap`] can
//! hold either form behind the same API ([`GapBitmap::from_plain_words`]).

use std::sync::OnceLock;

use crate::skip::{SkipDirectory, SKIP_SAMPLE};
use crate::{codes, kernel, swar, BitBuf, BitBufReader, BitSink, BitSource, BitWriter};

/// A compressed bitmap: gamma-coded gaps between consecutive 1-positions,
/// or plain words over the set's span where those are smaller.
///
/// The element count and universe size are carried as plain metadata (the
/// paper stores these as node weights in the tree structures); only the gap
/// codes occupy the compressed payload. A [`SkipDirectory`] sampled every
/// [`SKIP_SAMPLE`] elements rides alongside the code stream in memory —
/// filled for free by the encoding constructors, or built lazily by one
/// decode pass otherwise (a bitmap lifted from storage) — and makes
/// [`Self::contains`], [`Self::rank`], [`Self::select`] and the
/// galloping [`GapCursor`] `O(lg(z/K) + K)` instead of `O(z)`.
///
/// The words form ([`Self::from_plain_words`]) stores bit `p − base` of an
/// LSB-first word array for every element `p`, from the word holding the
/// first element to the word holding the last. It needs no directory:
/// membership is a bit test, rank and select count bits, and
/// [`Self::or_into_words`] is a word copy. Equality is by value across
/// forms.
#[derive(Debug, Clone, Default)]
pub struct GapBitmap {
    universe: u64,
    count: u64,
    form: Form,
}

/// How a [`GapBitmap`] holds its elements.
#[derive(Debug, Clone)]
enum Form {
    /// Gamma codes of the gaps, plus lazily materialized skip samples
    /// (derived data, never part of the bitmap's value).
    Gaps {
        bits: BitBuf,
        skip: OnceLock<SkipDirectory>,
    },
    /// Bit `j` of `words[i]` set means position `base + 64i + j` is an
    /// element. `base` is a multiple of 64, and the first and last words
    /// are non-zero.
    Words { base: u64, words: Vec<u64> },
}

impl Default for Form {
    fn default() -> Self {
        Form::Gaps {
            bits: BitBuf::new(),
            skip: OnceLock::new(),
        }
    }
}

impl PartialEq for GapBitmap {
    fn eq(&self, other: &Self) -> bool {
        if self.universe != other.universe || self.count != other.count {
            return false;
        }
        match (&self.form, &other.form) {
            // Both forms are canonical for a given set.
            (Form::Gaps { bits: a, .. }, Form::Gaps { bits: b, .. }) => a == b,
            (Form::Words { base: a, words: x }, Form::Words { base: b, words: y }) => {
                a == b && x == y
            }
            _ => self.iter().eq(other.iter()),
        }
    }
}

impl Eq for GapBitmap {}

/// The directory of a words-form bitmap: empty, so every directory
/// consumer (occupancy rule-outs, gallops) falls through to the words.
fn no_directory() -> &'static SkipDirectory {
    static EMPTY: OnceLock<SkipDirectory> = OnceLock::new();
    EMPTY.get_or_init(|| SkipDirectory::new(SKIP_SAMPLE))
}

/// Whether plain words over an inclusive position span hold `count`
/// elements in no more bits than their gamma gaps are estimated to take:
/// `⌈span/64⌉·64 ≤ count·(2⌊lg(span/count)⌋ + 1)`, the gamma cost of
/// `count` equal gaps. Metadata only, so covers pick a union's form
/// before decoding anything. A set denser than half its span is estimated
/// at one bit per element, the cost of runs of unit gaps, so clustered
/// runs stay gamma.
pub fn words_pay(count: u64, first: u64, last: u64) -> bool {
    if count == 0 {
        return false;
    }
    let span = last - first + 1;
    let word_bits = (last / 64 - first / 64 + 1) * 64;
    let lg = u64::from(63 - (span / count).max(1).leading_zeros());
    word_bits <= count.saturating_mul(2 * lg + 1)
}

impl GapBitmap {
    /// An empty bitmap over `[0, universe)`.
    pub fn empty(universe: u64) -> Self {
        Self::gaps(universe, 0, BitBuf::new(), OnceLock::new())
    }

    fn gaps(universe: u64, count: u64, bits: BitBuf, skip: OnceLock<SkipDirectory>) -> Self {
        GapBitmap {
            universe,
            count,
            form: Form::Gaps { bits, skip },
        }
    }

    fn gaps_indexed(universe: u64, count: u64, bits: BitBuf, skip: SkipDirectory) -> Self {
        let cell = OnceLock::new();
        let _ = cell.set(skip);
        Self::gaps(universe, count, bits, cell)
    }

    /// Builds from a strictly increasing slice of positions `< universe`.
    ///
    /// # Panics
    /// Panics if positions are not strictly increasing or exceed the
    /// universe.
    pub fn from_sorted(positions: &[u64], universe: u64) -> Self {
        Self::from_sorted_iter(positions.iter().copied(), universe)
    }

    /// Builds from a strictly increasing iterator of positions.
    ///
    /// The payload buffer is pre-reserved from the iterator's size hint
    /// (`Σ gamma_len(gap) ≤ m(2⌈lg(n/m + 1)⌉ + 1)` bits for `m` gaps
    /// summing to at most `n`, by concavity of `lg`), so encoding never
    /// re-allocates when the hint is exact; the skip directory is sampled
    /// during the same pass.
    pub fn from_sorted_iter<I: IntoIterator<Item = u64>>(positions: I, universe: u64) -> Self {
        let iter = positions.into_iter();
        let hint = {
            let (lo, up) = iter.size_hint();
            up.unwrap_or(lo) as u64
        };
        Self::encode_iter(iter, universe, hint)
    }

    /// [`Self::from_sorted_iter`] with an externally known element count
    /// (e.g. the summed slot counts of a canonical cover), for call sites
    /// whose iterators cannot carry an exact size hint.
    pub fn from_sorted_iter_sized<I: IntoIterator<Item = u64>>(
        positions: I,
        universe: u64,
        expected: u64,
    ) -> Self {
        Self::encode_iter(positions.into_iter(), universe, expected)
    }

    /// Worst-case payload bits for `m` gap codes over `[0, universe)`.
    fn reserve_bits(m: u64, universe: u64) -> u64 {
        if m == 0 {
            return 0;
        }
        // ⌈lg(universe/m + 1)⌉ ≤ 64 − leading_zeros(universe/m + 1).
        let lg = u64::from(64 - (universe / m + 1).leading_zeros());
        m * (2 * lg + 1)
    }

    fn encode_iter<I: Iterator<Item = u64>>(iter: I, universe: u64, hint: u64) -> Self {
        let reserved = Self::reserve_bits(hint.min(universe), universe);
        let mut bits = BitBuf::with_capacity(reserved);
        let mut skip = SkipDirectory::new(SKIP_SAMPLE);
        let count = {
            // Word-accumulating writer: each gamma code is one register
            // or-shift, with a word push every ~64 bits, instead of a
            // bounds-checked two-word splice per element.
            let mut w = BitWriter::new(&mut bits);
            let mut enc = GapEncoder::new(&mut w);
            for p in iter {
                assert!(p < universe, "position {p} outside universe {universe}");
                enc.push(p);
                skip.observe(enc.count() - 1, p, enc.bit_pos());
            }
            enc.finish()
        };
        kernel::metrics().encode_bulk.inc();
        // The reservation bound is exact mathematics, not a guess: when
        // the hint matched the stream, encoding must have fit in place.
        debug_assert!(
            count != hint || bits.len() <= reserved,
            "encoded {} bits into a {reserved}-bit reservation for {count} elements",
            bits.len()
        );
        Self::gaps_indexed(universe, count, bits, skip)
    }

    /// Builds from an LSB-first word array: bit `64i + j` of the array
    /// (bit `j` of `words[i]`) set means position `base + 64i + j` is in
    /// the set. This is the re-encode half of the dense merge path: one
    /// `trailing_zeros` scan per word instead of a per-element encoder
    /// round trip, with whole words of unit gaps emitted for saturated
    /// words. `base` must be 64-bit aligned; bits at or beyond
    /// `universe - base` must be zero.
    pub fn from_words(words: &[u64], universe: u64) -> Self {
        Self::from_words_span(words, 0, universe)
    }

    /// [`Self::from_words`] over the word-aligned span starting at `base`.
    pub fn from_words_span(words: &[u64], base: u64, universe: u64) -> Self {
        assert!(base.is_multiple_of(64), "span base must be word-aligned");
        let count: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
        let reserved = Self::reserve_bits(count, universe);
        let mut bits = BitBuf::with_capacity(reserved);
        let mut skip = SkipDirectory::new(SKIP_SAMPLE);
        let mut index = 0u64;
        let mut prev: Option<u64> = None;
        let mut sink = BitWriter::new(&mut bits);
        for (i, &word) in words.iter().enumerate() {
            let word_base = base + 64 * i as u64;
            // Saturated word continuing a run: 64 unit gaps, one append.
            if word == u64::MAX && word_base > 0 && prev == Some(word_base - 1) {
                assert!(
                    word_base + 63 < universe,
                    "position {} outside universe {universe}",
                    word_base + 63
                );
                sink.push_bits(u64::MAX, 64);
                // Runs cover every element index, so the sample due in
                // this word (if any) is a fixed offset into it. A 64-bit
                // word is exactly one occupancy bucket: elements before
                // the sample (if any exist) belong to the previous
                // entry's block, elements from the sample on are bit 0 of
                // the new entry, so the summaries stay exactly equal to a
                // per-element encode of the same set.
                let next_sample = index.next_multiple_of(u64::from(SKIP_SAMPLE));
                if next_sample > index {
                    skip.cover(word_base);
                }
                if next_sample < index + 64 {
                    let d = next_sample - index;
                    skip.observe(next_sample, word_base + d, sink.len() - 63 + d);
                }
                prev = Some(word_base + 63);
                index += 64;
                continue;
            }
            let mut w = word;
            while w != 0 {
                let pos = word_base + u64::from(w.trailing_zeros());
                assert!(pos < universe, "position {pos} outside universe {universe}");
                match prev {
                    None => codes::put_gamma(&mut sink, pos + 1),
                    Some(p) => codes::put_gamma(&mut sink, pos - p),
                }
                skip.observe(index, pos, sink.len());
                prev = Some(pos);
                index += 1;
                w &= w - 1;
            }
        }
        sink.finish();
        kernel::metrics().reencode_bitset.inc();
        debug_assert_eq!(index, count);
        debug_assert!(bits.len() <= reserved.max(64));
        Self::gaps_indexed(universe, count, bits, skip)
    }

    /// Wraps an LSB-first word array as a words-form bitmap, with no
    /// re-encode: bit `j` of `words[i]` set means position `base + 64i + j`
    /// is an element. Zero words at either end are trimmed; an all-zero
    /// array is the empty set.
    ///
    /// # Panics
    /// Panics if `base` is not a multiple of 64 or a set bit lies at or
    /// beyond `universe`.
    pub fn from_plain_words(mut words: Vec<u64>, base: u64, universe: u64) -> Self {
        assert!(base.is_multiple_of(64), "span base must be word-aligned");
        let Some(first) = words.iter().position(|&w| w != 0) else {
            return Self::empty(universe);
        };
        let last = words
            .iter()
            .rposition(|&w| w != 0)
            .expect("a non-zero word");
        words.truncate(last + 1);
        words.drain(..first);
        let base = base + 64 * first as u64;
        let top = base + 64 * (words.len() as u64 - 1) + 63
            - u64::from(words[words.len() - 1].leading_zeros());
        assert!(top < universe, "position {top} outside universe {universe}");
        let count = words.iter().map(|w| u64::from(w.count_ones())).sum();
        GapBitmap {
            universe,
            count,
            form: Form::Words { base, words },
        }
    }

    /// Plain words when [`words_pay`], given the array's element count
    /// and span, says they are no larger than the gamma gaps, else the
    /// gamma re-encode ([`Self::from_words_span`]).
    pub fn from_words_auto(words: Vec<u64>, base: u64, universe: u64) -> Self {
        let count: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
        let first = words.iter().position(|&w| w != 0);
        let last = words.iter().rposition(|&w| w != 0);
        match first.zip(last) {
            Some((f, l))
                if words_pay(
                    count,
                    base + 64 * f as u64 + u64::from(words[f].trailing_zeros()),
                    base + 64 * l as u64 + 63 - u64::from(words[l].leading_zeros()),
                ) =>
            {
                Self::from_plain_words(words, base, universe)
            }
            _ => Self::from_words_span(&words, base, universe),
        }
    }

    /// The words form's `(base, words)`: bit `j` of `words[i]` is position
    /// `base + 64i + j`. `None` for the gamma form.
    pub fn plain_words(&self) -> Option<(u64, &[u64])> {
        match &self.form {
            Form::Words { base, words } => Some((*base, words)),
            Form::Gaps { .. } => None,
        }
    }

    /// Number of 1s (the paper's *cardinality* of a bitmap, §1.4).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The universe size `n`.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Size of the payload in bits: the gamma codes, or the plain words.
    pub fn size_bits(&self) -> u64 {
        match &self.form {
            Form::Gaps { bits, .. } => bits.len(),
            Form::Words { words, .. } => 64 * words.len() as u64,
        }
    }

    /// The raw code stream.
    ///
    /// # Panics
    /// Panics on a words-form bitmap, which has no code stream.
    pub fn code_bits(&self) -> &BitBuf {
        match &self.form {
            Form::Gaps { bits, .. } => bits,
            Form::Words { .. } => panic!("a words-form bitmap has no gap code stream"),
        }
    }

    /// Wraps an already-encoded gap code stream.
    ///
    /// `bits` must hold exactly `count` gamma codes in the gap convention
    /// of this type (first element as `gamma(p₀ + 1)`, then gaps), for
    /// strictly increasing positions below `universe`. This is how query
    /// paths that cover a single stored bitmap return it as a whole-word
    /// copy instead of a decode-reencode round trip; debug builds verify
    /// the stream.
    pub fn from_code_bits(bits: BitBuf, count: u64, universe: u64) -> Self {
        #[cfg(debug_assertions)]
        {
            let mut dec = GapDecoder::new(bits.reader(), count);
            let mut prev = None;
            for p in dec.by_ref() {
                debug_assert!(p < universe, "position {p} outside universe {universe}");
                debug_assert!(prev.is_none_or(|q| q < p), "positions not increasing");
                prev = Some(p);
            }
            debug_assert_eq!(
                dec.into_source().bit_pos(),
                bits.len(),
                "code stream length mismatch"
            );
        }
        Self::gaps(universe, count, bits, OnceLock::new())
    }

    /// [`Self::from_code_bits`] plus a prepared skip directory, which
    /// may be truncated or carry occupancy-free (`occ = 0`) entries — how
    /// tests and the kernel experiments build a stream whose probes are
    /// never ruled out. Debug builds verify every sample against a decode
    /// of the stream.
    pub fn from_code_bits_indexed(
        bits: BitBuf,
        count: u64,
        universe: u64,
        skip: SkipDirectory,
    ) -> Self {
        #[cfg(debug_assertions)]
        {
            let reference = build_skip(&bits, count);
            debug_assert!(
                skip.len() <= reference.len()
                    && skip
                        .entries()
                        .iter()
                        .zip(reference.entries())
                        .all(|(s, r)| {
                            // Position and offset must match exactly; the
                            // occupancy word is either the exact summary or 0
                            // ("no information").
                            s.pos == r.pos
                                && s.bit_off == r.bit_off
                                && (s.occ == 0 || s.occ == r.occ)
                        }),
                "supplied skip directory disagrees with the stream"
            );
        }
        let b = Self::from_code_bits(bits, count, universe);
        let Form::Gaps { skip: cell, .. } = &b.form else {
            unreachable!("from_code_bits builds the gamma form")
        };
        let _ = cell.set(skip);
        b
    }

    /// Splices non-empty bitmaps whose spans ascend without overlap into
    /// one gamma-coded bitmap over `universe`, with no decode and no
    /// re-encode of gamma parts. `spans[i]` is the first and last element
    /// of `parts[i]`, known from storage metadata: each gamma part's first
    /// code (`gamma(first + 1)`) is re-coded as the gap from the previous
    /// part's last element, and the rest of its stream is copied verbatim.
    /// A words-form part is walked by set bits and gamma-coded. The skip
    /// directory is left to build lazily, as for [`Self::from_code_bits`].
    ///
    /// # Panics
    /// Panics if the slices differ in length, a part is empty, or a span
    /// starts at or before the previous span's end.
    pub fn concat(parts: &[GapBitmap], spans: &[(u64, u64)], universe: u64) -> Self {
        assert_eq!(parts.len(), spans.len(), "one span per part");
        // A re-coded first gap is never longer than the code it replaces
        // (`first - prev ≤ first + 1`), so the summed sizes bound the
        // splice of gamma parts.
        let mut bits = BitBuf::with_capacity(parts.iter().map(GapBitmap::size_bits).sum());
        let mut count = 0u64;
        let mut prev: Option<u64> = None;
        for (part, &(first, last)) in parts.iter().zip(spans) {
            assert!(part.count > 0, "spliced parts must be non-empty");
            debug_assert_eq!(part.iter().next(), Some(first), "span start mismatch");
            debug_assert_eq!(part.iter().last(), Some(last), "span end mismatch");
            if let Some(q) = prev {
                assert!(first > q, "spans must ascend without overlap");
            }
            match &part.form {
                Form::Gaps { bits: codes, .. } => {
                    codes::put_gamma(&mut bits, prev.map_or(first + 1, |q| first - q));
                    let head = codes::gamma_len(first + 1);
                    bits.extend_from_source(&mut codes.reader_at(head), codes.len() - head);
                }
                Form::Words { .. } => {
                    let mut sink = BitWriter::new(&mut bits);
                    let mut q = prev;
                    for p in part.iter() {
                        codes::put_gamma(&mut sink, q.map_or(p + 1, |q| p - q));
                        q = Some(p);
                    }
                }
            }
            count += part.count;
            prev = Some(last);
        }
        kernel::metrics().merge_concat.inc();
        Self::from_code_bits(bits, count, universe)
    }

    /// The skip directory, building it with one decode pass if no
    /// constructor supplied it (`kernel/skip_build`). CPU-only: the
    /// payload is already in memory. A words-form bitmap has an empty
    /// directory: its operations never need one.
    pub fn skip_dir(&self) -> &SkipDirectory {
        match &self.form {
            Form::Gaps { bits, skip } => skip.get_or_init(|| {
                kernel::metrics().skip_build.inc();
                build_skip(bits, self.count)
            }),
            Form::Words { .. } => no_directory(),
        }
    }

    /// Whether a gamma-form skip directory is already materialized
    /// (supplied by a constructor, or built by an earlier
    /// [`Self::skip_dir`] call), so using it costs no decode pass.
    /// Always `false` for the words form, which has no directory.
    pub fn has_skip_dir(&self) -> bool {
        match &self.form {
            Form::Gaps { skip, .. } => skip.get().is_some(),
            Form::Words { .. } => false,
        }
    }

    /// A decoder re-seated just past sampled element `rank` (`entry` from
    /// the directory of the gamma stream `bits`), ready to yield element
    /// `rank + 1`.
    fn resume_after<'a>(
        &self,
        bits: &'a BitBuf,
        rank: u64,
        entry: crate::skip::SkipEntry,
    ) -> GapDecoder<BitBufReader<'a>> {
        GapDecoder::resume(
            bits.reader_at(entry.bit_off),
            self.count - rank - 1,
            entry.pos,
        )
    }

    /// Number of elements strictly below `pos` (`rank₁`), in
    /// `O(lg(z/K) + K)` via the skip directory (linear for directory-less
    /// tiny sets), or by counting the words' bits below `pos`.
    pub fn rank(&self, pos: u64) -> u64 {
        let bits = match &self.form {
            Form::Gaps { bits, .. } => bits,
            Form::Words { base, words } => {
                let rel = pos.saturating_sub(*base);
                let full = ((rel / 64) as usize).min(words.len());
                let head: u64 = words[..full]
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum();
                let part = words
                    .get(full)
                    .map_or(0, |w| (w & ((1u64 << (rel % 64)) - 1)).count_ones());
                return head + u64::from(part);
            }
        };
        match self.skip_dir().seek(pos) {
            None => {
                // Either the first element exceeds `pos`, or a supplied
                // directory is empty: scan from the start.
                if self.skip_dir().is_empty() {
                    self.iter().take_while(|&p| p < pos).count() as u64
                } else {
                    0
                }
            }
            Some((r, e)) if e.pos >= pos => r,
            Some((r, e)) => {
                let mut rank = r + 1;
                for p in self.resume_after(bits, r, e) {
                    if p >= pos {
                        break;
                    }
                    rank += 1;
                }
                rank
            }
        }
    }

    /// The `k`-th element (0-indexed), or `None` when `k ≥ count`, in
    /// `O(lg(z/K) + K)` via the skip directory (linear for directory-less
    /// tiny sets), or by counting the words' bits up to the element.
    pub fn select(&self, k: u64) -> Option<u64> {
        if k >= self.count {
            return None;
        }
        let bits = match &self.form {
            Form::Gaps { bits, .. } => bits,
            Form::Words { base, words } => {
                let mut left = k;
                for (i, &w) in words.iter().enumerate() {
                    let ones = u64::from(w.count_ones());
                    if left < ones {
                        let mut w = w;
                        for _ in 0..left {
                            w &= w - 1;
                        }
                        return Some(base + 64 * i as u64 + u64::from(w.trailing_zeros()));
                    }
                    left -= ones;
                }
                unreachable!("count covers every set bit")
            }
        };
        let Some((r, e)) = self.skip_dir().seek_rank(k) else {
            return self.iter().nth(k as usize); // empty supplied directory
        };
        if r == k {
            return Some(e.pos);
        }
        self.resume_after(bits, r, e).nth((k - r - 1) as usize)
    }

    /// The smallest element `≥ from`, for the words form.
    fn words_from(base: u64, words: &[u64], from: u64) -> Option<u64> {
        let rel = from.saturating_sub(base);
        let mut i = (rel / 64) as usize;
        let mut w = words.get(i)? & (u64::MAX << (rel % 64));
        while w == 0 {
            i += 1;
            w = *words.get(i)?;
        }
        Some(base + 64 * i as u64 + u64::from(w.trailing_zeros()))
    }

    /// A galloping cursor over the elements (see [`GapCursor`]).
    pub fn cursor(&self) -> GapCursor<'_> {
        GapCursor {
            bm: self,
            src: match &self.form {
                Form::Gaps { bits, .. } => Some(bits.reader()),
                Form::Words { .. } => None,
            },
            consumed: 0,
            current: None,
        }
    }

    /// Iterates the 1-positions in increasing order.
    pub fn iter(&self) -> GapIter<'_> {
        GapIter(match &self.form {
            Form::Gaps { bits, .. } => Walk::Gaps(GapDecoder::new(bits.reader(), self.count)),
            Form::Words { base, words } => Walk::Words {
                base: *base,
                words,
                idx: 0,
                word: words.first().copied().unwrap_or(0),
                remaining: self.count,
            },
        })
    }

    /// Decodes all positions into `out` (cleared first) — the batch
    /// endpoint for query pipelines that materialize results.
    ///
    /// Runs the SWAR window kernel ([`crate::swar`]): every codeword
    /// inside a register-resident 64-bit window is decoded with a shift,
    /// a `leading_zeros` and a shift-extract — one memory load per *word*
    /// of stream instead of per code, runs of unit gaps burst-emitted as
    /// whole slices on run-heavy streams (mean code under 1.5 bits), and
    /// (on x86_64 CPUs that have the instructions) an
    /// `lzcnt`/BMI-compiled clone of the same loop. Codes longer than 64
    /// bits (gaps ≥ 2³²) take a word-scan fallback and re-synchronize the
    /// window.
    ///
    /// An already-materialized skip directory additionally splits the
    /// stream at a recorded resume point and decodes the two halves as
    /// independent, interleaved chains — gamma codes chain serially, so
    /// two dependency chains nearly double one core's decode throughput.
    /// (A directory is never *built* for this: absent one, the decode is
    /// single-chain.) The words form walks its set bits instead.
    pub fn decode_all(&self, out: &mut Vec<u64>) {
        match &self.form {
            Form::Gaps { bits, skip } => {
                swar::decode_gaps(bits.words(), bits.len(), self.count, skip.get(), out);
            }
            Form::Words { .. } => {
                out.clear();
                out.reserve(self.count as usize);
                out.extend(self.iter());
            }
        }
    }

    /// ORs the positions into `words` as an LSB-first word bitset over
    /// the universe — bit `p % 64` of `words[p / 64]` for every element
    /// `p`, the layout [`Self::from_words`] reads. A gamma stream runs
    /// through the same SWAR kernel as [`Self::decode_all`], with no
    /// element-sized buffer in between: runs of unit gaps set whole masks.
    /// The words form is ORed in word by word, with no shift. Bits already
    /// set in `words` stay set. This never builds a skip directory.
    ///
    /// # Panics
    /// Panics if `words` holds fewer than `⌈universe / 64⌉` words.
    pub fn or_into_words(&self, words: &mut [u64]) {
        assert!(
            words.len() as u64 >= self.universe.div_ceil(64),
            "{} words cannot hold a universe of {}",
            words.len(),
            self.universe
        );
        self.or_into_span(words, 0);
    }

    /// [`Self::or_into_words`] into the word-aligned span starting at
    /// `base`: element `p` sets bit `(p − base) % 64` of
    /// `words[(p − base) / 64]`.
    ///
    /// # Panics
    /// Panics if `base` is not a multiple of 64, or an element lies
    /// outside the span.
    pub fn or_into_span(&self, words: &mut [u64], base: u64) {
        assert!(base.is_multiple_of(64), "span base must be word-aligned");
        match &self.form {
            Form::Gaps { bits, skip } => {
                swar::set_gaps(
                    bits.words(),
                    bits.len(),
                    self.count,
                    skip.get(),
                    words,
                    base,
                );
            }
            Form::Words {
                base: at,
                words: own,
            } => {
                let start = ((at - base) / 64) as usize;
                for (w, &x) in words[start..start + own.len()].iter_mut().zip(own) {
                    *w |= x;
                }
            }
        }
    }

    /// Decodes all positions into a vector.
    pub fn to_vec(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.decode_all(&mut out);
        out
    }

    /// Membership test: a directory probe plus at most `K − 1` decoded
    /// codes (`O(lg(z/K) + K)` instead of the pre-directory `O(z)` scan).
    /// When the probed bucket's occupancy bit is clear the probe is
    /// answered absent from the directory alone — zero codes decoded. The
    /// words form tests one bit.
    pub fn contains(&self, pos: u64) -> bool {
        let bits = match &self.form {
            Form::Gaps { bits, .. } => bits,
            Form::Words { base, words } => {
                return pos >= *base
                    && words
                        .get(((pos - base) / 64) as usize)
                        .is_some_and(|w| (w >> ((pos - base) % 64)) & 1 == 1);
            }
        };
        if self.skip_dir().rules_out(pos) {
            kernel::metrics().contains_block_skip.inc();
            return false;
        }
        match self.skip_dir().seek(pos) {
            None => {
                // Empty supplied directory: linear scan.
                self.skip_dir().is_empty()
                    && self.iter().take_while(|&p| p <= pos).any(|p| p == pos)
            }
            Some((_, e)) if e.pos == pos => true,
            Some((r, e)) => {
                for p in self.resume_after(bits, r, e) {
                    if p >= pos {
                        return p == pos;
                    }
                }
                false
            }
        }
    }

    /// Appends this bitmap's gap code stream to a sink (used when
    /// concatenating per-node bitmaps into a level stream on disk). A
    /// 64-bit-aligned sink receives a whole-word copy of a gamma stream;
    /// the words form is gamma-coded on the way out.
    pub fn write_codes_to<S: BitSink>(&self, sink: &mut S) {
        match &self.form {
            Form::Gaps { bits, .. } => sink.put_bits_bulk(bits.words(), bits.len()),
            Form::Words { .. } => {
                let mut enc = GapEncoder::new(sink);
                for p in self.iter() {
                    enc.push(p);
                }
            }
        }
    }

    /// The complement set over the same universe (used by Theorem 1's
    /// `z > n/2` trick when a materialized complement is required).
    ///
    /// Walks the elements run by run: each 1-position closes a run of
    /// complement elements, whose encoding is one gap code followed by
    /// unit gaps — appended as whole words of 1-bits rather than
    /// re-encoding every element through the generic path.
    pub fn complement(&self) -> GapBitmap {
        let universe = self.universe;
        let mut bits = BitBuf::with_capacity(universe - self.count);
        let mut prev: Option<u64> = None;
        {
            let mut sink = BitWriter::new(&mut bits);
            // Emits the complement run [start, end): one gap code to enter
            // the run, then end − start − 1 unit gaps ("1" bits), 64 at a
            // time.
            let emit_run =
                |sink: &mut BitWriter<'_>, prev: &mut Option<u64>, start: u64, end: u64| {
                    if start >= end {
                        return;
                    }
                    match *prev {
                        None => codes::put_gamma(sink, start + 1),
                        Some(p) => codes::put_gamma(sink, start - p),
                    }
                    let mut ones = end - start - 1;
                    while ones > 0 {
                        let k = ones.min(64) as u32;
                        let chunk = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
                        sink.push_bits(chunk, k);
                        ones -= u64::from(k);
                    }
                    *prev = Some(end - 1);
                };
            let mut next_free = 0u64;
            for p in self.iter() {
                emit_run(&mut sink, &mut prev, next_free, p);
                next_free = p + 1;
            }
            emit_run(&mut sink, &mut prev, next_free, universe);
        }
        Self::gaps(universe, universe - self.count, bits, OnceLock::new())
    }
}

/// Builds the skip directory of `count` gamma codes with one decode pass.
fn build_skip(bits: &BitBuf, count: u64) -> SkipDirectory {
    let mut skip = SkipDirectory::new(SKIP_SAMPLE);
    let mut src = bits.reader();
    let mut prev = u64::MAX;
    for i in 0..count {
        prev = prev.wrapping_add(codes::get_gamma(&mut src));
        skip.observe(i, prev, src.bit_pos());
    }
    skip
}

/// A forward-only cursor with galloping seeks.
///
/// [`Self::next_geq`] is the leapfrog primitive behind RID-set
/// intersection: it returns the smallest element `≥ target` at or after
/// the cursor, using the skip directory to jump over sampled runs of
/// smaller elements (re-seating the decoder at a sample costs one binary
/// search and no decoding), then decoding at most `K − 1` codes linearly.
/// Over the words form, a seek scans words from the target's word.
#[derive(Debug)]
pub struct GapCursor<'a> {
    bm: &'a GapBitmap,
    /// The gamma stream's reader (`None` for the words form).
    src: Option<BitBufReader<'a>>,
    /// Elements decoded so far (index of the next element to decode);
    /// the words form only records whether the cursor has started.
    consumed: u64,
    /// The element most recently returned.
    current: Option<u64>,
}

impl<'a> GapCursor<'a> {
    /// The element most recently returned, if any.
    pub fn current(&self) -> Option<u64> {
        self.current
    }

    /// Moves a words-form cursor to the smallest element `≥ from`.
    fn seek_words(&mut self, from: u64) -> Option<u64> {
        let Form::Words { base, words } = &self.bm.form else {
            unreachable!("gamma cursors decode")
        };
        self.consumed = 1;
        self.current = GapBitmap::words_from(*base, words, from);
        self.current
    }

    /// Advances to the next element.
    #[allow(clippy::should_implement_trait)] // iterator-like, but `next_geq` is the point
    pub fn next(&mut self) -> Option<u64> {
        let Some(src) = self.src.as_mut() else {
            return match self.current {
                Some(p) => self.seek_words(p + 1),
                None if self.consumed == 0 => self.seek_words(0),
                None => None,
            };
        };
        if self.consumed >= self.bm.count {
            self.current = None;
            return None;
        }
        let code = codes::get_gamma(src);
        let pos = match self.current {
            None if self.consumed == 0 => code - 1,
            None => return None, // exhausted earlier
            Some(p) => p + code,
        };
        self.consumed += 1;
        self.current = Some(pos);
        Some(pos)
    }

    /// The smallest element `≥ target` at or after the cursor (the
    /// current element satisfies the bound without advancing). `None`
    /// exhausts the cursor.
    ///
    /// Short advances stay a plain linear decode: one O(1) probe of the
    /// first sample ahead of the cursor decides whether any directory
    /// jump can reach past the target, so the binary search is paid only
    /// when it is guaranteed to skip at least one sample run.
    pub fn next_geq(&mut self, target: u64) -> Option<u64> {
        if let Some(p) = self.current {
            if p >= target {
                return Some(p);
            }
        } else if self.consumed > 0 {
            return None; // exhausted
        }
        let bits = match self.src {
            Some(_) => self.bm.code_bits(),
            None => return self.seek_words(target),
        };
        let dir = self.bm.skip_dir();
        let k = u64::from(dir.k());
        // First sample whose jump would advance the cursor.
        let j0 = (self.consumed.div_ceil(k)) as usize;
        if dir.entries().get(j0).is_some_and(|e| e.pos <= target) {
            // Gallop: the latest sample ≤ target, searched only in the
            // still-ahead suffix.
            let ahead = &dir.entries()[j0..];
            let j = j0 + ahead.partition_point(|e| e.pos <= target) - 1;
            let e = dir.entries()[j];
            self.src = Some(bits.reader_at(e.bit_off));
            self.consumed = j as u64 * k + 1;
            self.current = Some(e.pos);
            if e.pos >= target {
                return Some(e.pos);
            }
        }
        while let Some(p) = self.next() {
            if p >= target {
                return Some(p);
            }
        }
        None
    }
}

/// Iterator over a [`GapBitmap`]'s elements in increasing order: a
/// streaming gamma decode, or a walk over the set bits of the words form.
#[derive(Debug)]
pub struct GapIter<'a>(Walk<'a>);

#[derive(Debug)]
enum Walk<'a> {
    Gaps(GapDecoder<BitBufReader<'a>>),
    Words {
        base: u64,
        words: &'a [u64],
        /// Index of `word` in `words`.
        idx: usize,
        /// The bits of `words[idx]` not yet returned.
        word: u64,
        remaining: u64,
    },
}

impl Iterator for GapIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        match &mut self.0 {
            Walk::Gaps(dec) => dec.next(),
            Walk::Words {
                base,
                words,
                idx,
                word,
                remaining,
            } => {
                while *word == 0 {
                    *idx += 1;
                    *word = *words.get(*idx)?;
                }
                let p = *base + 64 * *idx as u64 + u64::from(word.trailing_zeros());
                *word &= *word - 1;
                *remaining -= 1;
                Some(p)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            Walk::Gaps(dec) => dec.size_hint(),
            Walk::Words { remaining, .. } => (*remaining as usize, Some(*remaining as usize)),
        }
    }

    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, u64) -> B,
    {
        match self.0 {
            Walk::Gaps(dec) => dec.fold(init, f),
            Walk::Words {
                base,
                words,
                idx,
                mut word,
                ..
            } => {
                let mut acc = init;
                for (i, &next) in words.iter().enumerate().skip(idx) {
                    if i > idx {
                        word = next;
                    }
                    let at = base + 64 * i as u64;
                    while word != 0 {
                        acc = f(acc, at + u64::from(word.trailing_zeros()));
                        word &= word - 1;
                    }
                }
                acc
            }
        }
    }
}

impl ExactSizeIterator for GapIter<'_> {}

impl<'a> IntoIterator for &'a GapBitmap {
    type Item = u64;
    type IntoIter = GapIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Streaming gap encoder over any bit sink.
///
/// Feeds strictly increasing positions; encodes the first as
/// `gamma(p + 1)` and the rest as `gamma(gap)`.
#[derive(Debug)]
pub struct GapEncoder<'a, S: BitSink> {
    sink: &'a mut S,
    prev: Option<u64>,
    count: u64,
}

impl<'a, S: BitSink> GapEncoder<'a, S> {
    /// Starts encoding into `sink`.
    pub fn new(sink: &'a mut S) -> Self {
        GapEncoder {
            sink,
            prev: None,
            count: 0,
        }
    }

    /// Appends the next position (must exceed the previous one).
    pub fn push(&mut self, pos: u64) {
        match self.prev {
            None => codes::put_gamma(self.sink, pos + 1),
            Some(prev) => {
                assert!(
                    pos > prev,
                    "positions must be strictly increasing ({prev} then {pos})"
                );
                codes::put_gamma(self.sink, pos - prev);
            }
        }
        self.prev = Some(pos);
        self.count += 1;
    }

    /// Number of positions encoded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sink's current bit position (used by skip-directory samplers,
    /// which record the offset just past each sampled codeword).
    pub fn bit_pos(&self) -> u64 {
        self.sink.bit_pos()
    }

    /// Last position encoded, if any.
    pub fn last(&self) -> Option<u64> {
        self.prev
    }

    /// Finishes, returning the number of positions encoded.
    pub fn finish(self) -> u64 {
        self.count
    }
}

/// Streaming gap decoder over any bit source.
///
/// The element count is external metadata (stored as node weights by the
/// index structures), so the decoder is told how many codes to consume.
#[derive(Debug)]
pub struct GapDecoder<S: BitSource> {
    src: S,
    remaining: u64,
    prev: Option<u64>,
}

impl<S: BitSource> GapDecoder<S> {
    /// Decodes `count` positions from `src`.
    pub fn new(src: S, count: u64) -> Self {
        crate::kernel::metrics().decode_scalar.inc();
        GapDecoder {
            src,
            remaining: count,
            prev: None,
        }
    }

    /// Resumes decoding mid-stream: `src` must sit just past the code of
    /// an element whose value was `prev`, with `remaining` codes left —
    /// exactly what a [`crate::skip::SkipEntry`] records. This is the
    /// directory-assisted seek: the skipped prefix is neither decoded nor
    /// (for charged sources) read.
    pub fn resume(src: S, remaining: u64, prev: u64) -> Self {
        GapDecoder {
            src,
            remaining,
            prev: Some(prev),
        }
    }

    /// Positions not yet decoded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Decodes up to `out.len()` positions into `out`, returning how many
    /// were written. The loop body is a plain gamma decode plus an add —
    /// no `Option`, no per-element trait dispatch — so the compiler keeps
    /// the running position and the source cursor in registers.
    pub fn next_batch(&mut self, out: &mut [u64]) -> usize {
        let n = self.remaining.min(out.len() as u64) as usize;
        let mut prev = match self.prev {
            Some(p) => p,
            None => {
                if n == 0 {
                    return 0;
                }
                out[0] = codes::get_gamma(&mut self.src) - 1;
                out[0]
            }
        };
        let start = usize::from(self.prev.is_none());
        for slot in &mut out[start..n] {
            prev += codes::get_gamma(&mut self.src);
            *slot = prev;
        }
        if n > 0 {
            self.prev = Some(prev);
        }
        self.remaining -= n as u64;
        n
    }

    /// Consumes the decoder, returning the underlying source positioned
    /// just past the last consumed code.
    pub fn into_source(self) -> S {
        self.src
    }
}

impl<S: BitSource> Iterator for GapDecoder<S> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let code = codes::get_gamma(&mut self.src);
        let pos = match self.prev {
            None => code - 1,
            Some(prev) => prev + code,
        };
        self.prev = Some(pos);
        Some(pos)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining as usize;
        (r, Some(r))
    }

    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, u64) -> B,
    {
        // Internal iteration (`sum`, `for_each`, `collect` via extend):
        // the count is known, so decode in a plain counted loop with no
        // per-element `Option` round trip.
        let mut src = self.src;
        let mut acc = init;
        let mut prev = self.prev;
        for _ in 0..self.remaining {
            let code = codes::get_gamma(&mut src);
            let pos = match prev {
                None => code - 1,
                Some(p) => p + code,
            };
            prev = Some(pos);
            acc = f(acc, pos);
        }
        acc
    }
}

impl<S: BitSource> ExactSizeIterator for GapDecoder<S> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_bitmap_has_no_bits() {
        let b = GapBitmap::empty(100);
        assert_eq!(b.count(), 0);
        assert_eq!(b.size_bits(), 0);
        assert_eq!(b.to_vec(), Vec::<u64>::new());
        assert!(!b.contains(5));
    }

    #[test]
    fn roundtrip_simple() {
        let pos = vec![0u64, 1, 5, 100, 101, 8191];
        let b = GapBitmap::from_sorted(&pos, 8192);
        assert_eq!(b.count(), 6);
        assert_eq!(b.to_vec(), pos);
        assert!(b.contains(100));
        assert!(!b.contains(99));
    }

    #[test]
    fn first_position_zero_is_representable() {
        let b = GapBitmap::from_sorted(&[0], 1);
        assert_eq!(b.to_vec(), vec![0]);
        assert_eq!(b.size_bits(), 1); // gamma(1) = "1"
    }

    #[test]
    fn size_tracks_information_bound() {
        // m evenly spaced ones over [n]: size should be O(m lg(n/m) + m).
        let n = 1u64 << 16;
        let m = 1u64 << 8;
        let step = n / m;
        let b = GapBitmap::from_sorted_iter((0..m).map(|i| i * step), n);
        let bound = psi_io::cost::output_bits(n, m); // m lg(n/m)
        assert!(
            b.size_bits() as f64 <= 2.0 * bound + 2.0 * m as f64,
            "size {} exceeds 2*bound {} + 2m",
            b.size_bits(),
            bound
        );
    }

    #[test]
    fn dense_bitmap_is_linear_not_loglinear() {
        // All n positions set: every gap is 1, one bit each.
        let n = 1000u64;
        let b = GapBitmap::from_sorted_iter(0..n, n);
        assert_eq!(b.size_bits(), n); // gamma(1) = 1 bit per element
    }

    #[test]
    fn complement_roundtrip() {
        let b = GapBitmap::from_sorted(&[1, 3, 5], 7);
        assert_eq!(b.complement().to_vec(), vec![0, 2, 4, 6]);
        assert_eq!(b.complement().complement().to_vec(), b.to_vec());
        let full = GapBitmap::from_sorted_iter(0..5, 5);
        assert!(full.complement().is_empty());
    }

    #[test]
    fn write_codes_to_concatenates_verbatim() {
        let a = GapBitmap::from_sorted(&[2, 9], 16);
        let b = GapBitmap::from_sorted(&[0, 15], 16);
        let mut stream = BitBuf::new();
        a.write_codes_to(&mut stream);
        let a_end = stream.len();
        b.write_codes_to(&mut stream);
        // Decode both back out of the concatenated stream.
        let mut dec = GapDecoder::new(stream.reader(), 2);
        assert_eq!(dec.by_ref().collect::<Vec<_>>(), vec![2, 9]);
        let src = dec.into_source();
        assert_eq!(src.bit_pos(), a_end);
        let dec2 = GapDecoder::new(src, 2);
        assert_eq!(dec2.collect::<Vec<_>>(), vec![0, 15]);
    }

    #[test]
    fn huge_gaps_take_the_long_code_path() {
        // Gaps ≥ 2³² produce gamma codes longer than 64 bits, which the
        // word-window decoder must route through the cursor fallback.
        let positions = vec![3u64, 1 << 33, (1 << 33) + 1, 1 << 62];
        let b = GapBitmap::from_sorted(&positions, (1 << 62) + 1);
        assert_eq!(b.to_vec(), positions);
        let mut batch = [0u64; 2];
        let mut dec = GapDecoder::new(b.code_bits().reader(), b.count());
        assert_eq!(dec.next_batch(&mut batch), 2);
        assert_eq!(batch, [3, 1 << 33]);
        assert_eq!(dec.next_batch(&mut batch), 2);
        assert_eq!(batch, [(1 << 33) + 1, 1 << 62]);
        assert_eq!(dec.next_batch(&mut batch), 0);
    }

    #[test]
    fn from_code_bits_wraps_stream_verbatim() {
        let original = GapBitmap::from_sorted(&[1, 4, 9, 100], 128);
        let mut copy = BitBuf::new();
        original.write_codes_to(&mut copy);
        let rebuilt = GapBitmap::from_code_bits(copy, original.count(), original.universe());
        assert_eq!(rebuilt, original);
        assert_eq!(rebuilt.to_vec(), vec![1, 4, 9, 100]);
    }

    #[test]
    fn decode_all_reuses_buffer() {
        let a = GapBitmap::from_sorted(&[5, 10], 20);
        let b = GapBitmap::from_sorted(&[1], 20);
        let mut out = vec![999; 7];
        a.decode_all(&mut out);
        assert_eq!(out, vec![5, 10]);
        b.decode_all(&mut out);
        assert_eq!(out, vec![1]);
        GapBitmap::empty(20).decode_all(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn decode_all_handles_runs_across_word_boundaries() {
        // 120 consecutive positions: the gap-1 burst path must carry runs
        // across 64-bit window reloads.
        let positions: Vec<u64> = (7..127).collect();
        let b = GapBitmap::from_sorted(&positions, 200);
        assert_eq!(b.to_vec(), positions);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_positions_rejected() {
        let _ = GapBitmap::from_sorted(&[5, 5], 10);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn position_outside_universe_rejected() {
        let _ = GapBitmap::from_sorted(&[10], 10);
    }

    #[test]
    fn encode_paths_prefill_the_skip_directory() {
        let positions: Vec<u64> = (0..300u64).map(|i| i * 11).collect();
        let b = GapBitmap::from_sorted(&positions, 4096);
        // 300 elements at K = 64: samples at indices 0, 64, 128, 192, 256.
        assert_eq!(b.skip_dir().len(), 5);
        assert_eq!(b.skip_dir().entries()[0].pos, 0);
        assert_eq!(b.skip_dir().entries()[1].pos, 64 * 11);
        // Lazy build (verbatim wrap drops the directory) agrees exactly.
        let mut copy = BitBuf::new();
        b.write_codes_to(&mut copy);
        let wrapped = GapBitmap::from_code_bits(copy, b.count(), b.universe());
        assert_eq!(wrapped.skip_dir(), b.skip_dir());
    }

    #[test]
    fn rank_select_contains_match_naive() {
        let positions: Vec<u64> = (0..500u64)
            .map(|i| i * i % 9973)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let b = GapBitmap::from_sorted(&positions, 10_000);
        for q in (0..10_000).step_by(131) {
            let naive_rank = positions.iter().filter(|&&p| p < q).count() as u64;
            assert_eq!(b.rank(q), naive_rank, "rank({q})");
            assert_eq!(b.contains(q), positions.binary_search(&q).is_ok());
        }
        for (k, &p) in positions.iter().enumerate() {
            assert_eq!(b.select(k as u64), Some(p));
            assert_eq!(b.rank(p), k as u64);
            assert!(b.contains(p));
        }
        assert_eq!(b.select(positions.len() as u64), None);
        assert_eq!(b.rank(0), 0);
    }

    #[test]
    fn cursor_gallops_and_degrades_to_linear() {
        let positions: Vec<u64> = (0..1000u64).map(|i| i * 7).collect();
        let b = GapBitmap::from_sorted(&positions, 7001);
        let mut c = b.cursor();
        assert_eq!(c.next(), Some(0));
        assert_eq!(c.next_geq(0), Some(0), "current element satisfies bound");
        assert_eq!(c.next_geq(6500), Some(6503), "gallops over ~900 elements");
        assert_eq!(c.next(), Some(6510));
        assert_eq!(c.next_geq(6511), Some(6517), "linear within a sample run");
        assert_eq!(c.next_geq(1), Some(6517), "cursor never rewinds");
        assert_eq!(c.next_geq(99_999), None);
        assert_eq!(c.next(), None, "exhausted cursor stays exhausted");
    }

    #[test]
    fn or_into_words_sets_the_positions_and_builds_no_directory() {
        // Runs of unit gaps across word boundaries, isolated elements,
        // and a universe ending mid-word.
        let positions: Vec<u64> = (0..2000u64)
            .filter(|i| i % 97 < 40 || i % 13 == 0)
            .collect();
        let universe = 2000 + 11;
        let encoded = GapBitmap::from_sorted(&positions, universe);
        assert!(encoded.has_skip_dir(), "encoders pre-fill the directory");
        let wrapped =
            GapBitmap::from_code_bits(encoded.code_bits().clone(), encoded.count(), universe);
        assert!(!wrapped.has_skip_dir());
        let mut words = vec![0u64; universe.div_ceil(64) as usize];
        assert!(positions.binary_search(&50).is_err());
        words[0] = 1 << 50; // not an element: bits already set stay set
        wrapped.or_into_words(&mut words);
        assert!(!wrapped.has_skip_dir(), "the word decode built a directory");
        assert_eq!(words[0] & (1 << 50), 1 << 50);
        words[0] &= !(1 << 50);
        assert_eq!(GapBitmap::from_words(&words, universe), encoded);
        // Other tests share the counter, so only its increase is pinned.
        let builds = kernel::metrics().skip_build.get();
        let _ = wrapped.skip_dir();
        assert!(wrapped.has_skip_dir());
        assert!(
            kernel::metrics().skip_build.get() > builds,
            "build not counted"
        );
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn or_into_words_rejects_a_short_slice() {
        GapBitmap::from_sorted(&[3, 200], 201).or_into_words(&mut [0u64; 3]);
    }

    #[test]
    fn from_words_matches_from_sorted() {
        let positions: Vec<u64> = vec![0, 1, 5, 63, 64, 65, 200, 511];
        let mut words = vec![0u64; 8];
        for &p in &positions {
            words[(p / 64) as usize] |= 1 << (p % 64);
        }
        let b = GapBitmap::from_words(&words, 512);
        assert_eq!(b, GapBitmap::from_sorted(&positions, 512));
        assert_eq!(b.to_vec(), positions);
        assert!(GapBitmap::from_words(&[], 0).is_empty());
    }

    #[test]
    fn from_words_dense_run_takes_word_appends() {
        // 512 consecutive positions: words 1..7 are saturated and must go
        // through the whole-word unit-gap path, samples included.
        let positions: Vec<u64> = (37..549).collect();
        let mut words = vec![0u64; 9];
        for &p in &positions {
            words[(p / 64) as usize] |= 1 << (p % 64);
        }
        let b = GapBitmap::from_words(&words, 576);
        let reference = GapBitmap::from_sorted(&positions, 576);
        assert_eq!(b, reference);
        assert_eq!(b.skip_dir(), reference.skip_dir());
    }

    #[test]
    fn from_words_span_offsets_the_scan() {
        let base = 128u64;
        let positions: Vec<u64> = vec![130, 190, 191, 300];
        let mut words = vec![0u64; 3];
        for &p in &positions {
            words[((p - base) / 64) as usize] |= 1 << ((p - base) % 64);
        }
        let b = GapBitmap::from_words_span(&words, base, 400);
        assert_eq!(b.to_vec(), positions);
        assert_eq!(b.universe(), 400);
    }

    #[test]
    fn from_code_bits_indexed_carries_the_directory() {
        let original = GapBitmap::from_sorted_iter((0..200u64).map(|i| 3 * i), 600);
        let mut copy = BitBuf::new();
        original.write_codes_to(&mut copy);
        let dir = original.skip_dir().clone();
        let rebuilt =
            GapBitmap::from_code_bits_indexed(copy, original.count(), original.universe(), dir);
        assert_eq!(rebuilt, original);
        assert_eq!(rebuilt.skip_dir(), original.skip_dir());
        assert!(rebuilt.contains(597) && !rebuilt.contains(598));
    }

    #[test]
    fn truncated_directory_stays_correct() {
        // A directory cut off mid-stream must still answer correctly via
        // its linear tail.
        let positions: Vec<u64> = (0..400u64).map(|i| 5 * i).collect();
        let full = GapBitmap::from_sorted(&positions, 2000);
        let mut copy = BitBuf::new();
        full.write_codes_to(&mut copy);
        let truncated = crate::skip::SkipDirectory::from_entries(
            crate::SKIP_SAMPLE,
            full.skip_dir().entries()[..2].to_vec(),
        );
        let b = GapBitmap::from_code_bits_indexed(copy, full.count(), full.universe(), truncated);
        assert_eq!(b.select(399), Some(1995));
        assert_eq!(b.rank(1996), 400);
        assert!(b.contains(1000) && !b.contains(1001));
    }

    #[test]
    fn from_sorted_iter_reservation_is_tight() {
        // Exact size hint: the reservation must absorb the whole stream.
        let positions: Vec<u64> = (0..10_000u64).map(|i| i * 97).collect();
        let b = GapBitmap::from_sorted_iter(positions.iter().copied(), 97 * 10_000);
        assert_eq!(b.count(), 10_000);
        assert!(b.code_bits().capacity_bits() >= b.size_bits());
        // Sized constructor with the count known out of band.
        let sized = GapBitmap::from_sorted_iter_sized(
            positions.iter().copied().filter(|_| true),
            97 * 10_000,
            10_000,
        );
        assert_eq!(sized, b);
    }

    /// `positions` in the words form, over the universe's full word range
    /// (the constructor trims it to the set's span).
    fn plain(positions: &[u64], universe: u64) -> GapBitmap {
        let mut words = vec![0u64; universe.div_ceil(64) as usize];
        for &p in positions {
            words[(p / 64) as usize] |= 1 << (p % 64);
        }
        GapBitmap::from_plain_words(words, 0, universe)
    }

    #[test]
    fn plain_words_trim_to_the_span_and_equal_gamma() {
        let positions = vec![130u64, 131, 190, 300];
        let b = plain(&positions, 1000);
        assert_eq!(
            b.plain_words().map(|(base, w)| (base, w.len())),
            Some((128, 3))
        );
        assert_eq!(b.size_bits(), 3 * 64);
        assert_eq!(b.count(), 4);
        assert_eq!(b, GapBitmap::from_sorted(&positions, 1000));
        assert_eq!(GapBitmap::from_sorted(&positions, 1000), b);
        assert_ne!(b, plain(&positions[..3], 1000));
        assert!(plain(&[], 1000).is_empty());
        assert!(plain(&[], 1000).plain_words().is_none());
        assert!(!b.has_skip_dir() && b.skip_dir().is_empty());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn plain_words_reject_bits_past_the_universe() {
        let _ = GapBitmap::from_plain_words(vec![1 << 10], 0, 10);
    }

    #[test]
    fn words_pay_matches_the_span_rule() {
        // Half the positions of a span: 2 bits each as words, 3 as gamma.
        assert!(words_pay(500, 0, 999));
        // One in 16: 16 bits each as words, 9 as gamma.
        assert!(!words_pay(64, 0, 1023));
        assert!(!words_pay(0, 0, 0));
        // A run of 64 fills one word either way; a longer run is one bit
        // per element as gamma.
        assert!(words_pay(64, 64, 127));
        assert!(!words_pay(1500, 1000, 2499));
    }

    #[test]
    fn from_words_auto_picks_the_smaller_form() {
        let dense: Vec<u64> = (0..4000u64).filter(|p| p % 5 < 2).collect();
        let sparse: Vec<u64> = (0..4000u64).step_by(97).collect();
        for (set, words) in [(dense, true), (sparse, false)] {
            let mut array = vec![0u64; 63];
            for &p in &set {
                array[(p / 64) as usize] |= 1 << (p % 64);
            }
            let b = GapBitmap::from_words_auto(array, 0, 4000);
            assert_eq!(b.plain_words().is_some(), words);
            assert_eq!(b, GapBitmap::from_sorted(&set, 4000));
        }
    }

    proptest! {
        #[test]
        fn words_form_agrees_with_gamma_on_every_operation(
            universe in 1u64..3000,
            seed in any::<u64>(),
            per_1024 in 0u64..1025,
            split in any::<u32>(),
        ) {
            // Densities from empty to full, universes on and off a
            // multiple of 64.
            let positions: Vec<u64> = (0..universe)
                .filter(|&i| ((i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) < per_1024)
                .collect();
            let gamma = GapBitmap::from_sorted(&positions, universe);
            let words = plain(&positions, universe);
            prop_assert_eq!(&words, &gamma);
            prop_assert_eq!(words.count(), gamma.count());
            prop_assert_eq!(words.to_vec(), positions.clone());
            prop_assert_eq!(words.iter().collect::<Vec<_>>(), positions.clone());
            prop_assert_eq!(words.iter().len(), positions.len());
            prop_assert_eq!(words.iter().fold(0u64, |a, p| a ^ p), gamma.iter().fold(0u64, |a, p| a ^ p));
            for q in 0..=universe {
                prop_assert_eq!(words.rank(q), gamma.rank(q), "rank({})", q);
                if q < universe {
                    prop_assert_eq!(words.contains(q), gamma.contains(q), "contains({})", q);
                }
            }
            for k in 0..=positions.len() as u64 {
                prop_assert_eq!(words.select(k), gamma.select(k), "select({})", k);
            }
            // Cursors: interleaved steps and seeks.
            let (mut cw, mut cg) = (words.cursor(), gamma.cursor());
            let mut t = 0u64;
            for step in 0..positions.len() + 2 {
                if step % 3 == 0 {
                    prop_assert_eq!(cw.next(), cg.next());
                } else {
                    t += 1 + (seed >> (step % 50)) % 40;
                    prop_assert_eq!(cw.next_geq(t), cg.next_geq(t), "next_geq({})", t);
                }
                prop_assert_eq!(cw.current(), cg.current());
            }
            let mut ww = vec![0u64; universe.div_ceil(64) as usize];
            let mut wg = ww.clone();
            words.or_into_words(&mut ww);
            gamma.or_into_words(&mut wg);
            prop_assert_eq!(&ww, &wg);
            if let (Some(&lo), Some(&hi)) = (positions.first(), positions.last()) {
                let base = lo & !63;
                let mut sw = vec![0u64; (hi / 64 - lo / 64 + 1) as usize];
                let mut sg = sw.clone();
                words.or_into_span(&mut sw, base);
                gamma.or_into_span(&mut sg, base);
                prop_assert_eq!(&sw, &sg);
                prop_assert_eq!(words.size_bits(), 64 * sw.len() as u64);
            }
            prop_assert_eq!(words.complement(), gamma.complement());
            let (mut bw, mut bg) = (BitBuf::new(), BitBuf::new());
            words.write_codes_to(&mut bw);
            gamma.write_codes_to(&mut bg);
            prop_assert_eq!(bw, bg);
            // Splices of mixed forms equal the whole set.
            if positions.len() >= 2 {
                let cut = 1 + split as usize % (positions.len() - 1);
                let (a, b) = positions.split_at(cut);
                for (pa, pb) in [
                    (plain(a, universe), GapBitmap::from_sorted(b, universe)),
                    (GapBitmap::from_sorted(a, universe), plain(b, universe)),
                    (plain(a, universe), plain(b, universe)),
                ] {
                    let spans = [(a[0], a[a.len() - 1]), (b[0], b[b.len() - 1])];
                    let spliced = GapBitmap::concat(&[pa, pb], &spans, universe);
                    prop_assert!(spliced.plain_words().is_none());
                    prop_assert_eq!(&spliced, &gamma);
                }
            }
        }
    }

    fn sorted_unique(max: u64, len: usize) -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::btree_set(0..max, 0..len)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>())
    }

    proptest! {
        #[test]
        fn roundtrip_random_sets(pos in sorted_unique(1 << 20, 300)) {
            let b = GapBitmap::from_sorted(&pos, 1 << 20);
            prop_assert_eq!(b.to_vec(), pos.clone());
            prop_assert_eq!(b.count() as usize, pos.len());
        }

        #[test]
        fn size_within_constant_of_entropy(pos in sorted_unique(1 << 16, 200)) {
            prop_assume!(!pos.is_empty());
            let n = 1u64 << 16;
            let b = GapBitmap::from_sorted(&pos, n);
            let m = pos.len() as u64;
            // lg C(n, m) lower bound; gamma-gap coding is within ~2x + O(m).
            let bound = psi_io::cost::lg_binomial(n, m);
            prop_assert!((b.size_bits() as f64) <= 2.0 * bound + 3.0 * m as f64 + 64.0);
        }

        #[test]
        fn complement_is_involution(pos in sorted_unique(512, 100)) {
            let b = GapBitmap::from_sorted(&pos, 512);
            prop_assert_eq!(b.complement().complement(), b.clone());
            prop_assert_eq!(b.complement().count(), 512 - b.count());
        }

        #[test]
        fn directory_ops_match_full_decode(pos in sorted_unique(1 << 14, 400)) {
            let b = GapBitmap::from_sorted(&pos, 1 << 14);
            for q in (0..(1u64 << 14)).step_by(509) {
                let naive = pos.iter().filter(|&&p| p < q).count() as u64;
                prop_assert_eq!(b.rank(q), naive);
                prop_assert_eq!(b.contains(q), pos.binary_search(&q).is_ok());
            }
            for (k, &p) in pos.iter().enumerate() {
                prop_assert_eq!(b.select(k as u64), Some(p));
            }
            prop_assert_eq!(b.select(pos.len() as u64), None);
            // next_geq sweeps forward exactly like a filtered scan.
            let mut c = b.cursor();
            let mut targets: Vec<u64> = pos.iter().map(|&p| p.saturating_sub(1)).collect();
            targets.sort_unstable();
            let mut expect = pos.iter().copied().peekable();
            for t in targets {
                while expect.peek().is_some_and(|&p| p < t) { expect.next(); }
                prop_assert_eq!(c.next_geq(t), expect.peek().copied());
            }
        }
    }
}
