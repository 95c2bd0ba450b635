//! K-way merges over sorted position streams.
//!
//! Range queries in every structure of the paper end by "merging the
//! bitmaps" of the canonical subtrees (§2.1, §2.2). The inputs are sorted
//! position streams decoded from disjoint sets (each position carries
//! exactly one character), so the common case is a disjoint merge; hashed
//! sets in the approximate index (§3) may collide, so a deduplicating
//! union is also provided.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::{words_pay, GapBitmap};

/// K-way merge of sorted streams into one sorted stream, assuming global
/// distinctness (disjoint inputs). Duplicates are passed through unchanged;
/// use [`union_dedup`] when inputs may overlap.
pub fn merge_disjoint<I>(inputs: Vec<I>) -> KWayMerge<I>
where
    I: Iterator<Item = u64>,
{
    KWayMerge::new(inputs)
}

/// K-way union of sorted streams with duplicate removal.
pub fn union_dedup<I>(inputs: Vec<I>) -> impl Iterator<Item = u64>
where
    I: Iterator<Item = u64>,
{
    let mut last: Option<u64> = None;
    KWayMerge::new(inputs).filter(move |&p| {
        if last == Some(p) {
            false
        } else {
            last = Some(p);
            true
        }
    })
}

/// How a k-way union is executed (chosen by [`plan`] from metadata known
/// *before* any stream is decoded: fan-in, summed element counts, and the
/// position span of the cover).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeStrategy {
    /// No inputs: the empty bitmap.
    Empty,
    /// One input: encode straight through (callers with stored streams
    /// short-circuit earlier to a verbatim copy).
    Passthrough,
    /// Two or more stored streams whose `[first, last]` spans ascend
    /// without overlap, in the order given — one character split over
    /// sibling leaves, or a clustered column. Lifted streams are spliced
    /// end to end ([`GapBitmap::concat`]), re-coding only each stream's
    /// first gap: no decode, no comparisons, no re-encode. Chosen only by
    /// [`plan_stored`]; forced on streaming inputs it runs the k-way
    /// merge.
    Concat,
    /// Two inputs: branch-per-element linear merge.
    Linear,
    /// Three or more sparse inputs: min-heap merge.
    Heap,
    /// Three or more inputs whose union is dense in its span: set bits in
    /// an LSB-first word array (no comparisons, no heap), then re-encode
    /// once with a `trailing_zeros` word scan
    /// ([`GapBitmap::from_words_span`]). Exactly where the complement
    /// trick makes results dense, this turns `O(z lg k)` heap traffic
    /// into straight-line word operations. Stored streams
    /// ([`union_stored`]) OR each part straight into the array, with no
    /// element-sized buffer, and keep the array as the result, in the
    /// words form, when plain words pay for it
    /// ([`GapBitmap::from_words_auto`]).
    Bitset,
}

/// Average gap (span/total) at or below which the bitset path wins: one
/// element per word on average, so the accumulate-and-scan pass touches
/// no more words than the union has elements.
pub const BITSET_MAX_AVG_GAP: u64 = 64;

/// Minimum union size for the bitset path (below this the word array's
/// allocation dominates any heap savings).
pub const BITSET_MIN_TOTAL: u64 = 128;

/// Folds a cover's per-member metadata `(count, first_pos, last_pos)` —
/// non-empty members only — into the planner inputs `(total, span)`.
/// Shared by every index that feeds slot/entry directories to
/// [`merge_adaptive`].
pub fn cover_stats<I: IntoIterator<Item = (u64, u64, u64)>>(
    members: I,
) -> (u64, Option<(u64, u64)>) {
    let mut total = 0u64;
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for (count, first, last) in members {
        debug_assert!(count > 0, "cover members must be non-empty");
        total += count;
        lo = lo.min(first);
        hi = hi.max(last);
    }
    (total, (total > 0).then_some((lo, hi)))
}

/// Picks the strategy for `streams` inputs totalling `total` elements
/// within the inclusive position span `span` (when known).
pub fn plan(streams: usize, total: u64, span: Option<(u64, u64)>) -> MergeStrategy {
    match streams {
        0 => MergeStrategy::Empty,
        1 => MergeStrategy::Passthrough,
        2 => MergeStrategy::Linear,
        _ => match span {
            Some((lo, hi))
                if total >= BITSET_MIN_TOTAL
                    && (hi - lo).saturating_add(1) <= total.saturating_mul(BITSET_MAX_AVG_GAP) =>
            {
                MergeStrategy::Bitset
            }
            _ => MergeStrategy::Heap,
        },
    }
}

/// [`plan`] for stored streams, from their per-member metadata
/// `(count, first_pos, last_pos)` in cover order. Two or more members
/// take [`MergeStrategy::Bitset`] when plain words over the cover's span
/// pay for the union ([`words_pay`]), else [`MergeStrategy::Concat`] when
/// their spans ascend without overlap, else the density rule. Members out
/// of position order never splice, so callers sort the cover by
/// `first_pos` first.
pub fn plan_stored(members: &[(u64, u64, u64)]) -> MergeStrategy {
    let (total, span) = cover_stats(members.iter().copied());
    if members.len() >= 2 {
        if span.is_some_and(|(lo, hi)| words_pay(total, lo, hi)) {
            return MergeStrategy::Bitset;
        }
        if members.windows(2).all(|w| w[0].2 < w[1].1) {
            return MergeStrategy::Concat;
        }
    }
    plan(members.len(), total, span)
}

/// Unions stored streams lifted verbatim (`parts[i]` holds the member
/// described by `members[i]`, in either form) under a strategy from
/// [`plan_stored`]: `Concat` splices the code streams; `Bitset` ORs every
/// part into one span-aligned word array ([`GapBitmap::or_into_span`]:
/// the SWAR kernel, or a word copy) and keeps it as plain words where
/// they pay ([`GapBitmap::from_words_auto`]); every other strategy
/// decodes each part ([`GapBitmap::decode_all`]: the SWAR batch kernel,
/// or a walk over a words part's set bits) and merges the decoded runs.
pub fn union_stored(
    parts: &[GapBitmap],
    members: &[(u64, u64, u64)],
    universe: u64,
    strategy: MergeStrategy,
) -> GapBitmap {
    let (total, span) = cover_stats(members.iter().copied());
    match strategy {
        MergeStrategy::Concat => {
            let spans: Vec<(u64, u64)> = members.iter().map(|&(_, f, l)| (f, l)).collect();
            return GapBitmap::concat(parts, &spans, universe);
        }
        MergeStrategy::Bitset => {
            let (lo, hi) = span.expect("bitset strategy requires a span");
            let base = lo & !63;
            let mut acc = vec![0u64; (hi / 64 - lo / 64 + 1) as usize];
            for part in parts {
                part.or_into_span(&mut acc, base);
            }
            return GapBitmap::from_words_auto(acc, base, universe);
        }
        _ => {}
    }
    let decoded: Vec<std::vec::IntoIter<u64>> =
        parts.iter().map(|p| p.to_vec().into_iter()).collect();
    merge_with_strategy(decoded, universe, total, span, strategy)
}

/// Merges disjoint sorted streams into a [`GapBitmap`] under the planned
/// strategy. `total` is the summed element count (known from slot/entry
/// metadata); `span` bounds every element inclusively. Every strategy
/// consumes each input exactly once in order, so the I/O charged to any
/// underlying reader is identical across strategies by construction.
pub fn merge_adaptive<I>(
    inputs: Vec<I>,
    universe: u64,
    total: u64,
    span: Option<(u64, u64)>,
) -> GapBitmap
where
    I: Iterator<Item = u64>,
{
    let strategy = plan(inputs.len(), total, span);
    merge_with_strategy(inputs, universe, total, span, strategy)
}

/// [`merge_adaptive`] with the strategy forced — the differential-testing
/// and benchmarking hook that pins every branch against the heap merge.
pub fn merge_with_strategy<I>(
    inputs: Vec<I>,
    universe: u64,
    total: u64,
    span: Option<(u64, u64)>,
    strategy: MergeStrategy,
) -> GapBitmap
where
    I: Iterator<Item = u64>,
{
    match strategy {
        MergeStrategy::Empty => GapBitmap::empty(universe),
        MergeStrategy::Bitset => {
            let (lo, hi) = span.expect("bitset strategy requires a span");
            let base = lo & !63;
            let words = ((hi - base) / 64 + 1) as usize;
            let mut acc = vec![0u64; words];
            for input in inputs {
                for p in input {
                    debug_assert!(
                        (lo..=hi).contains(&p),
                        "element {p} outside declared span [{lo}, {hi}]"
                    );
                    acc[((p - base) / 64) as usize] |= 1u64 << ((p - base) % 64);
                }
            }
            GapBitmap::from_words_span(&acc, base, universe)
        }
        _ => GapBitmap::from_sorted_iter_sized(merge_disjoint(inputs), universe, total),
    }
}

/// A k-way merge iterator.
///
/// Fan-in 1 is a passthrough and fan-in 2 a branch-per-element linear
/// merge (the overwhelmingly common shapes in the canonical
/// decompositions, which produce `O(lg n)` streams but usually one or
/// two). Larger fan-ins use a min-heap advanced via
/// [`BinaryHeap::peek_mut`]: replacing the head sifts it in place, one
/// `O(lg k)` walk per element instead of the pop-then-push pair.
#[derive(Debug)]
pub struct KWayMerge<I: Iterator<Item = u64>> {
    inner: Inner<I>,
}

#[derive(Debug)]
enum Inner<I: Iterator<Item = u64>> {
    One(Option<I>),
    Two {
        a: I,
        b: I,
        a_head: Option<u64>,
        b_head: Option<u64>,
    },
    Heap {
        heap: BinaryHeap<Reverse<(u64, usize)>>,
        inputs: Vec<I>,
    },
}

impl<I: Iterator<Item = u64>> KWayMerge<I> {
    fn new(mut inputs: Vec<I>) -> Self {
        let inner = match inputs.len() {
            0 => Inner::One(None),
            1 => Inner::One(inputs.pop()),
            2 => {
                let mut b = inputs.pop().expect("two inputs");
                let mut a = inputs.pop().expect("two inputs");
                let (a_head, b_head) = (a.next(), b.next());
                Inner::Two {
                    a,
                    b,
                    a_head,
                    b_head,
                }
            }
            _ => {
                let mut heap = BinaryHeap::with_capacity(inputs.len());
                for (idx, it) in inputs.iter_mut().enumerate() {
                    if let Some(first) = it.next() {
                        heap.push(Reverse((first, idx)));
                    }
                }
                Inner::Heap { heap, inputs }
            }
        };
        KWayMerge { inner }
    }
}

impl<I: Iterator<Item = u64>> Iterator for KWayMerge<I> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        match &mut self.inner {
            Inner::One(input) => input.as_mut()?.next(),
            Inner::Two {
                a,
                b,
                a_head,
                b_head,
            } => match (*a_head, *b_head) {
                (Some(x), Some(y)) => {
                    if x <= y {
                        *a_head = a.next();
                        Some(x)
                    } else {
                        *b_head = b.next();
                        Some(y)
                    }
                }
                (Some(x), None) => {
                    *a_head = a.next();
                    Some(x)
                }
                (None, Some(y)) => {
                    *b_head = b.next();
                    Some(y)
                }
                (None, None) => None,
            },
            Inner::Heap { heap, inputs } => {
                let mut top = heap.peek_mut()?;
                let Reverse((pos, idx)) = *top;
                match inputs[idx].next() {
                    Some(next) => {
                        debug_assert!(next > pos, "input stream {idx} not strictly increasing");
                        // Sifts the replaced head in place when `top` drops.
                        *top = Reverse((next, idx));
                    }
                    None => {
                        PeekMut::pop(top);
                    }
                }
                Some(pos)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            Inner::One(None) => (0, Some(0)),
            Inner::One(Some(input)) => input.size_hint(),
            _ => (0, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn merge_of_disjoint_streams() {
        let a = vec![1u64, 4, 7];
        let b = vec![2u64, 5];
        let c = vec![0u64, 3, 6, 8];
        let merged: Vec<u64> =
            merge_disjoint(vec![a.into_iter(), b.into_iter(), c.into_iter()]).collect();
        assert_eq!(merged, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn merge_of_empty_inputs() {
        let empty: Vec<std::vec::IntoIter<u64>> = vec![];
        assert_eq!(merge_disjoint(empty).count(), 0);
        let some_empty = vec![
            vec![].into_iter(),
            vec![5u64].into_iter(),
            vec![].into_iter(),
        ];
        assert_eq!(merge_disjoint(some_empty).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn union_removes_duplicates() {
        let a = vec![1u64, 3, 5];
        let b = vec![1u64, 2, 5, 6];
        let u: Vec<u64> = union_dedup(vec![a.into_iter(), b.into_iter()]).collect();
        assert_eq!(u, vec![1, 2, 3, 5, 6]);
    }

    #[test]
    fn plan_picks_by_fanin_and_density() {
        assert_eq!(plan(0, 0, None), MergeStrategy::Empty);
        assert_eq!(plan(1, 10, None), MergeStrategy::Passthrough);
        assert_eq!(plan(2, 10_000, Some((0, 10_000))), MergeStrategy::Linear);
        // Dense: 8 streams, 10k elements across a 20k span.
        assert_eq!(plan(8, 10_000, Some((0, 19_999))), MergeStrategy::Bitset);
        // Sparse: same elements across a 10M span.
        assert_eq!(plan(8, 10_000, Some((0, 9_999_999))), MergeStrategy::Heap);
        // No span known: cannot size a word array.
        assert_eq!(plan(8, 10_000, None), MergeStrategy::Heap);
        // Tiny unions never pay for the allocation.
        assert_eq!(plan(8, 64, Some((0, 63))), MergeStrategy::Heap);
    }

    #[test]
    fn plan_stored_splices_only_ascending_disjoint_spans() {
        let disjoint = [(3, 0, 9), (2, 10, 40), (5, 41, 90)];
        assert_eq!(plan_stored(&disjoint), MergeStrategy::Concat);
        assert_eq!(plan_stored(&disjoint[..2]), MergeStrategy::Concat);
        // Touching or interleaved spans fall back to the density rule.
        assert_eq!(
            plan_stored(&[(3, 0, 10), (2, 10, 40)]),
            MergeStrategy::Linear
        );
        assert_eq!(
            plan_stored(&[(100, 0, 99_999), (100, 1, 99_998), (100, 2, 99_997)]),
            MergeStrategy::Heap
        );
        // A union dense enough for words ORs into them before any splice.
        assert_eq!(
            plan_stored(&[(500, 0, 999), (500, 1000, 1999)]),
            MergeStrategy::Bitset
        );
        assert_eq!(plan_stored(&[(500, 0, 999)]), MergeStrategy::Passthrough);
        // Out of position order never splices.
        assert_eq!(
            plan_stored(&[(2, 10, 40), (3, 0, 9)]),
            MergeStrategy::Linear
        );
        assert_eq!(plan_stored(&disjoint[..1]), MergeStrategy::Passthrough);
    }

    proptest! {
        #[test]
        fn union_stored_agrees_across_strategies(
            set in proptest::collection::btree_set(0u64..1 << 20, 1..600),
            cuts in proptest::collection::vec(any::<u32>(), 1..6),
        ) {
            // Split one sorted set into consecutive non-empty runs: their
            // spans ascend without overlap, so every strategy applies.
            let all: Vec<u64> = set.into_iter().collect();
            let mut bounds: Vec<usize> =
                cuts.iter().map(|&c| 1 + c as usize % all.len()).collect();
            bounds.push(all.len());
            bounds.sort_unstable();
            bounds.dedup();
            let mut runs = Vec::new();
            let mut at = 0;
            for b in bounds {
                if b > at {
                    runs.push(&all[at..b]);
                    at = b;
                }
            }
            let universe = all[all.len() - 1] + 1 + (all.len() as u64 % 3);
            let parts: Vec<GapBitmap> =
                runs.iter().map(|r| GapBitmap::from_sorted(r, universe)).collect();
            let members: Vec<(u64, u64, u64)> = runs
                .iter()
                .map(|r| (r.len() as u64, r[0], r[r.len() - 1]))
                .collect();
            let want = GapBitmap::from_sorted(&all, universe);
            if runs.len() >= 2 {
                prop_assert_eq!(plan_stored(&members), MergeStrategy::Concat);
            }
            // The same parts in the words form, and alternating forms.
            let plain = |r: &[u64]| {
                let mut words = vec![0u64; universe.div_ceil(64) as usize];
                for &p in r {
                    words[(p / 64) as usize] |= 1 << (p % 64);
                }
                GapBitmap::from_plain_words(words, 0, universe)
            };
            let words_parts: Vec<GapBitmap> = runs.iter().map(|r| plain(r)).collect();
            let mixed: Vec<GapBitmap> = runs
                .iter()
                .enumerate()
                .map(|(i, r)| if i % 2 == 0 { plain(r) } else { GapBitmap::from_sorted(r, universe) })
                .collect();
            for parts in [&parts, &words_parts, &mixed] {
                for strategy in [
                    MergeStrategy::Concat,
                    MergeStrategy::Linear,
                    MergeStrategy::Heap,
                    MergeStrategy::Bitset,
                ] {
                    let got = union_stored(parts, &members, universe, strategy);
                    prop_assert_eq!(&got, &want, "{:?}", strategy);
                    prop_assert_eq!(got.to_vec(), all.clone());
                    if strategy == MergeStrategy::Bitset {
                        let pay = words_pay(all.len() as u64, all[0], all[all.len() - 1]);
                        prop_assert_eq!(got.plain_words().is_some(), pay);
                    }
                }
            }
        }
    }

    #[test]
    fn stored_bitset_union_keeps_words_only_where_they_pay() {
        let n = 1 << 16;
        let m = crate::kernel::metrics();
        let bitset = |runs: &[Vec<u64>], words: bool| {
            let parts: Vec<GapBitmap> = runs
                .iter()
                .map(|r| {
                    let g = GapBitmap::from_sorted(r, n);
                    if words {
                        let mut array = vec![0u64; n.div_ceil(64) as usize];
                        g.or_into_words(&mut array);
                        GapBitmap::from_plain_words(array, 0, n)
                    } else {
                        g
                    }
                })
                .collect();
            let members: Vec<_> = runs
                .iter()
                .map(|r| (r.len() as u64, r[0], r[r.len() - 1]))
                .collect();
            let mut all: Vec<u64> = runs.concat();
            all.sort_unstable();
            assert_eq!(plan_stored(&members), MergeStrategy::Bitset);
            let got = union_stored(&parts, &members, n, MergeStrategy::Bitset);
            assert_eq!(got, GapBitmap::from_sorted(&all, n));
            got
        };
        // 1000 elements at gaps alternating between `g` and `g + 1`, dealt
        // round-robin to four interleaved parts.
        let dealt = |g: u64| -> Vec<Vec<u64>> {
            let all: Vec<u64> = (0..1000u64).map(|i| 70 + i * g + i / 2).collect();
            (0..4)
                .map(|k| all.iter().copied().skip(k).step_by(4).collect())
                .collect()
        };
        // Mean gap 4.5: plain words pay, whatever the parts' form, and
        // nothing is re-encoded.
        let dense = dealt(4);
        for words in [false, true] {
            let before = m.reencode_bitset.get();
            assert!(bitset(&dense, words).plain_words().is_some());
            assert_eq!(m.reencode_bitset.get(), before);
        }
        // Mean gap 32.5 is bitset-dense for the planner but cheaper as
        // gamma gaps: the word array is re-encoded.
        let sparse = dealt(32);
        let before = m.reencode_bitset.get();
        assert!(bitset(&sparse, true).plain_words().is_none());
        assert!(m.reencode_bitset.get() > before);
    }

    fn strided(streams: u64, per: u64, stride: u64, offset: u64) -> Vec<Vec<u64>> {
        (0..streams)
            .map(|k| {
                (0..per)
                    .map(|i| offset + i * stride * streams + k * stride)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bitset_path_matches_heap_on_dense_cover() {
        // 8 disjoint dense streams with a word-unaligned span start.
        let streams = strided(8, 1000, 1, 37);
        let universe = 37 + 8 * 1000 + 1;
        let total = 8 * 1000;
        let span = Some((37, 37 + 8 * 1000 - 1));
        let mk = || {
            streams
                .iter()
                .map(|s| s.iter().copied())
                .collect::<Vec<_>>()
        };
        let heap = merge_with_strategy(mk(), universe, total, span, MergeStrategy::Heap);
        let bitset = merge_with_strategy(mk(), universe, total, span, MergeStrategy::Bitset);
        assert_eq!(plan(8, total, span), MergeStrategy::Bitset);
        assert_eq!(bitset, heap);
        assert_eq!(bitset.count(), total);
    }

    proptest! {
        #[test]
        fn adaptive_matches_heap_on_every_branch(
            parts in proptest::collection::vec(
                proptest::collection::btree_set(0u64..5_000, 0..400), 1..6),
            dense in any::<bool>(),
        ) {
            // Disjoint by stride-tagging; `dense` narrows the value range
            // so both planner outcomes are exercised.
            let stride = if dense { 1 } else { 97 };
            let k = parts.len() as u64;
            let streams: Vec<Vec<u64>> = parts
                .iter()
                .enumerate()
                .map(|(i, s)| s.iter().map(|&x| (x * k + i as u64) * stride).collect())
                .collect();
            let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
            let lo = streams.iter().filter_map(|s| s.first()).min().copied();
            let hi = streams.iter().filter_map(|s| s.last()).max().copied();
            let span = lo.zip(hi);
            let universe = hi.map_or(1, |h| h + 1);
            let mk = || streams.iter().map(|s| s.iter().copied()).collect::<Vec<_>>();
            let reference = merge_with_strategy(
                mk(), universe, total, span, MergeStrategy::Heap);
            let adaptive = merge_adaptive(mk(), universe, total, span);
            prop_assert_eq!(&adaptive, &reference);
            if span.is_some() && total > 0 {
                let forced = merge_with_strategy(
                    mk(), universe, total, span, MergeStrategy::Bitset);
                prop_assert_eq!(&forced, &reference);
            }
        }
    }

    proptest! {
        #[test]
        fn merge_equals_sorted_concat(
            parts in proptest::collection::vec(
                proptest::collection::btree_set(0u64..10_000, 0..50), 1..8)
        ) {
            // Make the parts disjoint by tagging with the part index modulo
            // a stride, then check merge == sorted union.
            let streams: Vec<Vec<u64>> = parts
                .iter()
                .enumerate()
                .map(|(i, s)| s.iter().map(|&x| x * parts.len() as u64 + i as u64).collect())
                .collect();
            let mut expected: Vec<u64> = streams.iter().flatten().copied().collect();
            expected.sort_unstable();
            let merged: Vec<u64> =
                merge_disjoint(streams.into_iter().map(|v| v.into_iter()).collect()).collect();
            prop_assert_eq!(merged, expected);
        }

        #[test]
        fn union_equals_set_union(
            parts in proptest::collection::vec(
                proptest::collection::btree_set(0u64..1000, 0..100), 1..6)
        ) {
            let mut expected: Vec<u64> = parts
                .iter()
                .flat_map(|s| s.iter().copied())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            expected.sort_unstable();
            let streams: Vec<_> = parts
                .into_iter()
                .map(|s| s.into_iter().collect::<Vec<_>>().into_iter())
                .collect();
            let got: Vec<u64> = union_dedup(streams).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
