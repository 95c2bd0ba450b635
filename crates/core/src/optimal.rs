//! The optimal static secondary index (Theorem 2).

use psi_api::{HasDisk, RidSet, SecondaryIndex, Symbol};
use psi_io::{Disk, IoConfig, IoSession, ReadError};

use crate::cutstream::Slack;
use crate::engine::{Engine, EngineStats, DEFAULT_C};

/// The paper's main result (Theorem 2): a static secondary index using
/// `O(nH₀ + n + σ lg² n)` bits that answers alphabet range queries in
/// `O(z lg(n/z)/B + log_b n + lg lg n)` I/Os — simultaneously
/// space-optimal and query-optimal, with no trade-off.
///
/// Internally this is the [`Engine`]: a pruned weight-balanced tree over
/// the character multiset with compressed bitmaps materialized at cut
/// levels `1, 2, 4, …, h` plus all leaves, zero slot slack (static
/// packing), the `A` prefix-count array, the heavy-character split and
/// §2.1's complement trick for results larger than `n/2`.
///
/// ```
/// use psi_core::OptimalIndex;
/// use psi_api::SecondaryIndex;
/// use psi_io::IoConfig;
///
/// let symbols = vec![3u32, 1, 4, 1, 5, 2, 6, 5];
/// let index = OptimalIndex::build(&symbols, 8, IoConfig::default());
/// let (result, io) = index.query_measured(1, 4);
/// assert_eq!(result.to_vec(), vec![0, 1, 2, 3, 5]);
/// assert!(io.reads > 0);
/// ```
#[derive(Debug)]
pub struct OptimalIndex {
    engine: Engine,
}

impl OptimalIndex {
    /// Builds the index over `symbols ∈ [0, sigma)ⁿ` with the default
    /// branching parameter.
    pub fn build(symbols: &[Symbol], sigma: Symbol, config: IoConfig) -> Self {
        Self::build_with_branching(symbols, sigma, config, DEFAULT_C)
    }

    /// Builds with an explicit branching parameter `c > 4` (ablations).
    pub fn build_with_branching(
        symbols: &[Symbol],
        sigma: Symbol,
        config: IoConfig,
        c: u32,
    ) -> Self {
        OptimalIndex {
            engine: Engine::build(symbols, sigma, config, c, Slack::None),
        }
    }

    /// The result cardinality `z` without reading any bitmap (from the
    /// memory-resident prefix counts).
    pub fn cardinality(&self, lo: Symbol, hi: Symbol) -> u64 {
        self.engine.query_cardinality(lo, hi)
    }

    /// Compressed payload across all cuts (the `O(nH₀ + n)` part of the
    /// space bound, without directories).
    pub fn payload_bits(&self) -> u64 {
        self.engine.live_payload_bits()
    }

    /// Number of materialized cuts (`O(lg lg n)`).
    pub fn num_cuts(&self) -> usize {
        self.engine.num_cuts()
    }

    /// Engine counters (static builds never rebuild; exposed for symmetry).
    pub fn stats(&self) -> EngineStats {
        self.engine.stats
    }

    /// Consumes the index, returning the engine (approximate layer).
    pub(crate) fn into_engine(self) -> Engine {
        self.engine
    }
}

impl HasDisk for OptimalIndex {
    fn disk(&self) -> &Disk {
        self.engine.disk()
    }
}

impl SecondaryIndex for OptimalIndex {
    fn len(&self) -> u64 {
        self.engine.n()
    }

    fn sigma(&self) -> Symbol {
        self.engine.sigma()
    }

    fn space_bits(&self) -> u64 {
        self.engine.space_bits()
    }

    fn try_query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> Result<RidSet, ReadError> {
        self.engine.try_query(lo, hi, io)
    }

    fn cardinality_hint(&self, lo: Symbol, hi: Symbol) -> Option<u64> {
        // Exact, from the memory-resident prefix counts (the paper's `A`).
        Some(self.engine.query_cardinality(lo, hi))
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl psi_store::PersistIndex for OptimalIndex {
    const TAG: &'static str = "optimal";

    fn write_meta(&self, out: &mut psi_store::MetaBuf) {
        self.engine.persist_meta(out);
    }

    fn disks(&self) -> Vec<&Disk> {
        vec![HasDisk::disk(self)]
    }

    fn from_parts(
        meta: &mut psi_store::MetaCursor,
        disks: Vec<Disk>,
    ) -> Result<Self, psi_store::StoreError> {
        let disk = psi_store::single_volume(disks, "optimal")?;
        Ok(OptimalIndex {
            engine: Engine::restore_meta(meta, disk)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_api::naive_query;
    use psi_io::cost;

    fn cfg() -> IoConfig {
        IoConfig::with_block_bits(512)
    }

    #[test]
    fn matches_naive_on_all_workloads() {
        for (i, symbols) in [
            psi_workloads::uniform(2000, 16, 1),
            psi_workloads::zipf(2000, 16, 1.2, 2),
            psi_workloads::runs(2000, 16, 12.0, 3),
            psi_workloads::sorted(2000, 16),
        ]
        .iter()
        .enumerate()
        {
            let idx = OptimalIndex::build(symbols, 16, cfg());
            for lo in 0..16u32 {
                for hi in lo..16u32 {
                    let io = IoSession::new();
                    let got = idx.query(lo, hi, &io);
                    let want = naive_query(symbols, lo, hi);
                    assert_eq!(
                        got.to_vec(),
                        want.to_vec(),
                        "workload {i} range [{lo}, {hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn query_ios_match_theorem_2_shape() {
        let n = 1usize << 18;
        let sigma = 512u32;
        let symbols = psi_workloads::uniform(n, sigma, 7);
        let idx = OptimalIndex::build(&symbols, sigma, IoConfig::default());
        let b = IoConfig::default().words_per_block(n as u64);
        // Sweep selectivities; measured I/Os should stay within a small
        // constant of the theorem curve.
        for width in [1u32, 4, 16, 64, 200] {
            let (result, stats) = idx.query_measured(10, 10 + width - 1);
            let z = result.cardinality();
            let bound = cost::thm2_query_ios(n as u64, z, 8192, b);
            assert!(
                (stats.reads as f64) <= 12.0 * bound + 16.0,
                "width {width}: {} reads vs bound {bound:.1}",
                stats.reads
            );
        }
    }

    #[test]
    fn space_beats_explicit_representations() {
        let n = 1usize << 16;
        let sigma = 256u32;
        let symbols = psi_workloads::uniform(n, sigma, 9);
        let idx = OptimalIndex::build(&symbols, sigma, IoConfig::default());
        // Theorem 2: O(nH0 + n + σ lg² n). For uniform data H0 = lg σ = 8,
        // so nH0 ≈ 0.5 Mbit; the structure must be within a modest constant
        // of that, and far below the n·σ bits of uncompressed bitmaps.
        let nh0 = psi_bits::entropy::nh0_bits(&symbols, sigma);
        assert!(
            (idx.space_bits() as f64) < 8.0 * nh0,
            "space {} vs nH0 {nh0}",
            idx.space_bits()
        );
        assert!(idx.space_bits() < (n as u64) * u64::from(sigma) / 4);
    }

    #[test]
    fn every_cover_plan_lifts_from_an_opened_store_like_ram() {
        use psi_bits::{kernel, merge::MergeStrategy};
        use psi_store::{open, save, Backend, OpenOptions};
        // n = 8^5, so the root's eight children hold 4096 multiset entries
        // each. Chars 0 and 1 alternate and fill the first two children
        // exactly (one words leaf each: copy, or a bitset union of the
        // pair kept as words); a dense region (chars 2..10, a bitset union
        // re-encoded as gamma), a sparse one (10..1000) and a heavy char
        // 1000 over two children reach the other plans.
        // Char 1 beside char 2 is a position-disjoint cover too sparse for
        // words: it splices. In a second index every char fills one
        // depth-2 leaf at position stride 64, so two chars merge linearly.
        let mut symbols: Vec<u32> = (0..8192u32).map(|i| i % 2).collect();
        let shifted = |len, sigma, seed, base| {
            psi_workloads::uniform(len, sigma, seed)
                .into_iter()
                .map(move |s| s + base)
        };
        symbols.extend(shifted(8192, 8, 51, 2));
        symbols.extend(shifted(8192, 990, 53, 10));
        symbols.extend(std::iter::repeat_n(1000u32, 8192));
        let strided: Vec<u32> = (0..4096u32).map(|i| (i * 29 % 4096) % 64).collect();
        let dir = std::env::temp_dir().join(format!("psi_core_lift_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let opts = OpenOptions {
            backend: Backend::File,
            pool_blocks: 1 << 16,
            retry: None,
            verify: true,
        };
        let mut seen = std::collections::HashSet::new();
        let mut lifted_words = false;
        let mut bitset_forms = Vec::new();
        type Case<'a> = (&'a [u32], u32, &'a [(u32, u32)]);
        let cases: [Case; 2] = [
            (
                &symbols,
                1001,
                &[
                    (0, 0),
                    (0, 1),
                    (1, 2),
                    (3, 6),
                    (100, 103),
                    (1000, 1000),
                    (0, 999),
                ],
            ),
            (&strided, 64, &[(0, 1)]),
        ];
        for (k, (symbols, sigma, queries)) in cases.into_iter().enumerate() {
            let ram = OptimalIndex::build(symbols, sigma, IoConfig::with_block_bits(1024));
            let path = dir.join(format!("optimal_{k}.psi"));
            save(&ram, &path).expect("save");
            for &(lo, hi) in queries {
                // Plans come from metadata alone, identical in both builds.
                let slots = ram.engine.cover_slots(lo, hi, &IoSession::untracked());
                let plan = match slots.len() {
                    1 => MergeStrategy::Passthrough,
                    _ => ram.engine.plan_slots(&slots).1,
                };
                seen.insert(plan);
                // A fresh open per query: the pool starts cold.
                let opened = open::<OptimalIndex>(&path, &opts).expect("open");
                let m = kernel::metrics();
                let concat0 = m.merge_concat.get();
                let io_open = IoSession::new();
                let got = opened.index.query(lo, hi, &io_open);
                let fired = match plan {
                    // A words slot lifts from the store as plain words.
                    MergeStrategy::Passthrough => {
                        let (c, s) = slots[0];
                        let codec = ram.engine.cuts[c as usize].slot(s as usize).codec;
                        lifted_words |= codec == crate::cutstream::SlotCodec::Words;
                        (codec == crate::cutstream::SlotCodec::Words)
                            == got.stored().plain_words().is_some()
                    }
                    MergeStrategy::Concat => m.merge_concat.get() > concat0,
                    // Plain words where they pay, else a gamma re-encode.
                    // Other tests of this binary re-encode in parallel, so
                    // `tests/bitset_reencode.rs`, a binary of its own,
                    // counts the re-encodes of these covers.
                    MergeStrategy::Bitset => {
                        bitset_forms.push(((lo, hi), got.stored().plain_words().is_some()));
                        true
                    }
                    _ => true,
                };
                assert!(fired, "[{lo},{hi}] {plan:?} did not run");
                assert_eq!(got.to_vec(), naive_query(symbols, lo, hi).to_vec());
                let io_ram = IoSession::new();
                assert_eq!(got, ram.query(lo, hi, &io_ram), "[{lo},{hi}] {plan:?}");
                assert_eq!(io_open.stats(), io_ram.stats(), "[{lo},{hi}] {plan:?} io");
                assert_eq!(
                    opened.real_fetches(),
                    io_open.stats().reads,
                    "[{lo},{hi}] {plan:?}: cold real fetches must equal the charge"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert!(lifted_words, "no single-slot cover lifted a words slot");
        // The words union and the gamma union that `tests/bitset_reencode.rs`
        // counts.
        for form in [((0, 1), true), ((3, 6), false)] {
            assert!(
                bitset_forms.contains(&form),
                "{form:?} not in {bitset_forms:?}"
            );
        }
        for plan in [
            MergeStrategy::Passthrough,
            MergeStrategy::Concat,
            MergeStrategy::Linear,
            MergeStrategy::Heap,
            MergeStrategy::Bitset,
        ] {
            assert!(seen.contains(&plan), "{plan:?} never planned: {seen:?}");
        }
    }

    #[test]
    fn reading_is_output_sensitive() {
        // §1.3: reading within a constant of the *compressed result* size.
        let n = 1usize << 18;
        let sigma = 1024u32;
        let symbols = psi_workloads::uniform(n, sigma, 11);
        let idx = OptimalIndex::build(&symbols, sigma, IoConfig::default());
        // Full-ish range: z ≈ n/2, output ~ z lg(n/z) bits.
        let (result, stats) = idx.query_measured(0, sigma / 2 - 1);
        let z = result.cardinality();
        let output = cost::output_bits(n as u64, z).max(1.0);
        let ratio = stats.bits_read as f64 / output;
        assert!(ratio < 8.0, "read {:.1}x the compressed output", ratio);
    }
}
