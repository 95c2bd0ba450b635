//! The warm-up structure (Theorem 1, §2.1): complete binary tree over the
//! alphabet.
//!
//! "Consider the complete binary tree U with σ leaves identified … with
//! the sequence a₁ … a_σ. With the leaf aᵢ we associate the bitmap
//! `I_{aᵢ}(x)`, and with each internal node v … the bitmap of its leaf
//! span." Bitmaps are compressed and stored level by level in left-to-right
//! order; an array `A` of prefix cardinalities drives §2.1's complement
//! trick (`z > n/2` answers the two complementary ranges instead); a query
//! is covered by `O(lg σ)` maximal subtrees whose compressed bitmaps are
//! merged in one pass.
//!
//! Space `O(n lg² σ)` bits, query `O(T/B + lg σ)` I/Os — suboptimal in
//! space (every level repeats the whole multiset), which is exactly what
//! the weight-balanced structure of Theorem 2 fixes.

use psi_api::{check_range, HasDisk, RidSet, SecondaryIndex, Symbol};
use psi_bits::{merge, GapBitmap};
use psi_io::{cost, Disk, IoConfig, IoSession, ReadError};

use crate::cutstream::{CutStream, Slack};

/// Theorem 1's complete-binary-tree index.
#[derive(Debug)]
pub struct UniformTreeIndex {
    disk: Disk,
    /// `levels[k]` holds the nodes of leaf-span `2ᵏ`, left to right;
    /// `levels[0]` are the per-character bitmaps.
    levels: Vec<CutStream>,
    /// Prefix cardinalities: `A[i]` = occurrences of characters `< i`.
    prefix: Vec<u64>,
    n: u64,
    sigma: Symbol,
}

impl UniformTreeIndex {
    /// Builds the index over `symbols ∈ [0, sigma)ⁿ`.
    pub fn build(symbols: &[Symbol], sigma: Symbol, config: IoConfig) -> Self {
        assert!(sigma > 0);
        let n = symbols.len() as u64;
        let sigma_pad = u64::from(sigma).next_power_of_two() as Symbol;
        let mut disk = Disk::new(config);
        let io = IoSession::untracked();
        // Per-character position lists (padding chars stay empty).
        let mut lists: Vec<Vec<u64>> = vec![Vec::new(); sigma_pad as usize];
        for (i, &c) in symbols.iter().enumerate() {
            assert!(c < sigma, "symbol {c} outside alphabet of size {sigma}");
            lists[c as usize].push(i as u64);
        }
        let mut prefix = Vec::with_capacity(sigma as usize + 1);
        let mut acc = 0u64;
        for l in lists.iter().take(sigma as usize) {
            prefix.push(acc);
            acc += l.len() as u64;
        }
        prefix.push(acc);
        // Level 0: characters. Level k: pairwise merges of level k-1 —
        // built by merging position lists bottom-up.
        let mut levels = Vec::new();
        let mut current: Vec<Vec<u64>> = lists;
        loop {
            let mut cut = CutStream::new(&mut disk, levels.len() as u32, Slack::None);
            for node in &current {
                cut.push_bitmap(&mut disk, node.iter().copied(), &io);
            }
            levels.push(cut);
            if current.len() == 1 {
                break;
            }
            current = current
                .chunks(2)
                .map(|pair| {
                    if pair.len() == 1 {
                        pair[0].clone()
                    } else {
                        merge::merge_disjoint(vec![
                            pair[0].iter().copied(),
                            pair[1].iter().copied(),
                        ])
                        .collect()
                    }
                })
                .collect();
        }
        UniformTreeIndex {
            disk,
            levels,
            prefix,
            n,
            sigma,
        }
    }

    /// Result cardinality from the `A` array (no I/O).
    pub fn cardinality(&self, lo: Symbol, hi: Symbol) -> u64 {
        check_range(lo, hi, self.sigma);
        self.prefix[hi as usize + 1] - self.prefix[lo as usize]
    }

    /// Number of levels (`lg σ + 1`).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Maximal aligned subtrees covering `[lo, hi]` as `(level, index)`
    /// pairs — at most two per level.
    fn canonical_cover(&self, lo: Symbol, hi: Symbol) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        let mut lo = u64::from(lo);
        let mut hi = u64::from(hi);
        let mut level = 0usize;
        while lo <= hi {
            if lo % 2 == 1 {
                out.push((level, lo));
                lo += 1;
            }
            if hi % 2 == 0 {
                out.push((level, hi));
                if hi == 0 {
                    break;
                }
                hi -= 1;
            }
            if lo > hi {
                break;
            }
            lo /= 2;
            hi /= 2;
            level += 1;
            if level >= self.levels.len() {
                break;
            }
        }
        out
    }

    /// Merges the cover's bitmaps into a compressed result. A one-subtree
    /// cover is already stored in the output encoding, so it is returned
    /// as a verbatim word copy instead of decode-merge-reencode; larger
    /// covers lift each part, decode it in memory and go through the
    /// density-driven planner (slot counts and the cover's position span
    /// pick linear/heap/bitset).
    fn merge_cover(&self, cover: &[(usize, u64)], io: &IoSession) -> Result<GapBitmap, ReadError> {
        let cover: Vec<(usize, u64)> = cover
            .iter()
            .copied()
            .filter(|&(level, idx)| self.levels[level].slot(idx as usize).count > 0)
            .collect();
        if cover.is_empty() {
            return Ok(GapBitmap::empty(self.n));
        }
        if let [(level, idx)] = cover[..] {
            return self.levels[level].copy_bitmap(&self.disk, idx as usize, io, self.n);
        }
        let (total, span) = merge::cover_stats(cover.iter().map(|&(level, idx)| {
            let s = self.levels[level].slot(idx as usize);
            (
                s.count,
                s.first_pos.expect("non-empty slot"),
                s.last_pos.expect("non-empty slot"),
            )
        }));
        let parts = cover
            .iter()
            .map(|&(level, idx)| {
                let part = self.levels[level].lift_positions(&self.disk, idx as usize, io)?;
                Ok(part.into_iter())
            })
            .collect::<Result<Vec<_>, ReadError>>()?;
        Ok(merge::merge_adaptive(parts, self.n, total, span))
    }

    /// The cover a range query merges: that of `[lo, hi]`, or of its
    /// complement when the result holds more than half the rows (§2.1),
    /// flagged `true`.
    fn query_cover(&self, lo: Symbol, hi: Symbol) -> (Vec<(usize, u64)>, bool) {
        if 2 * self.cardinality(lo, hi) <= self.n {
            return (self.canonical_cover(lo, hi), false);
        }
        let mut cover = Vec::new();
        if lo > 0 {
            cover.extend(self.canonical_cover(0, lo - 1));
        }
        if hi + 1 < self.sigma {
            cover.extend(self.canonical_cover(hi + 1, self.sigma - 1));
        }
        (cover, true)
    }
}

impl HasDisk for UniformTreeIndex {
    fn disk(&self) -> &Disk {
        &self.disk
    }
}

impl SecondaryIndex for UniformTreeIndex {
    fn len(&self) -> u64 {
        self.n
    }

    fn sigma(&self) -> Symbol {
        self.sigma
    }

    fn space_bits(&self) -> u64 {
        // Bitmap payloads plus per-node directory (offset/length/count)
        // plus the A array.
        let lg_n = cost::lg2_ceil(self.n.max(2));
        let payload: u64 = self.levels.iter().map(|l| l.extent_bits(&self.disk)).sum();
        let directory: u64 = self
            .levels
            .iter()
            .map(|l| 3 * lg_n * l.num_slots() as u64)
            .sum();
        payload + directory + (u64::from(self.sigma) + 1) * lg_n
    }

    fn try_query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> Result<RidSet, ReadError> {
        check_range(lo, hi, self.sigma);
        if self.n == 0 {
            return Ok(RidSet::from_positions(GapBitmap::empty(0)));
        }
        if self.cardinality(lo, hi) == 0 {
            return Ok(RidSet::from_positions(GapBitmap::empty(self.n)));
        }
        // §2.1: a result over half the rows is the complement of the union
        // of the two complementary queries.
        Ok(match self.query_cover(lo, hi) {
            (cover, true) => RidSet::from_complement(self.merge_cover(&cover, io)?),
            (cover, false) => RidSet::from_positions(self.merge_cover(&cover, io)?),
        })
    }

    fn cardinality_hint(&self, lo: Symbol, hi: Symbol) -> Option<u64> {
        // Exact, from the memory-resident A array.
        Some(self.cardinality(lo, hi))
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl psi_store::PersistIndex for UniformTreeIndex {
    const TAG: &'static str = "uniform_tree";

    fn write_meta(&self, out: &mut psi_store::MetaBuf) {
        out.put_len(self.levels.len());
        for level in &self.levels {
            level.persist_meta(out);
        }
        out.put_vec_u64(&self.prefix);
        out.put_u64(self.n);
        out.put_u32(self.sigma);
    }

    fn disks(&self) -> Vec<&Disk> {
        vec![HasDisk::disk(self)]
    }

    fn from_parts(
        meta: &mut psi_store::MetaCursor,
        disks: Vec<Disk>,
    ) -> Result<Self, psi_store::StoreError> {
        let disk = psi_store::single_volume(disks, "uniform-tree")?;
        let num_levels = meta.get_len(20)?;
        let mut levels = Vec::with_capacity(num_levels);
        for _ in 0..num_levels {
            levels.push(CutStream::restore_meta(meta, &disk)?);
        }
        Ok(UniformTreeIndex {
            disk,
            levels,
            prefix: meta.get_vec_u64()?,
            n: meta.get_u64()?,
            sigma: meta.get_u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_api::naive_query;

    fn cfg() -> IoConfig {
        IoConfig::with_block_bits(512)
    }

    /// The range query with each part of a multi-part cover decoded code
    /// by code from the disk: the reference the lifted parts must match
    /// in rows and charge.
    fn query_per_code(idx: &UniformTreeIndex, lo: Symbol, hi: Symbol, io: &IoSession) -> RidSet {
        let (cover, complement) = idx.query_cover(lo, hi);
        let cover: Vec<_> = cover
            .into_iter()
            .filter(|&(level, i)| idx.levels[level].slot(i as usize).count > 0)
            .collect();
        let (total, span) = merge::cover_stats(cover.iter().map(|&(level, i)| {
            let s = idx.levels[level].slot(i as usize);
            (s.count, s.first_pos.unwrap(), s.last_pos.unwrap())
        }));
        let decoders = cover
            .iter()
            .map(|&(level, i)| idx.levels[level].decoder(&idx.disk, i as usize, io))
            .collect();
        let union = merge::merge_adaptive(decoders, idx.n, total, span);
        if complement {
            RidSet::from_complement(union)
        } else {
            RidSet::from_positions(union)
        }
    }

    #[test]
    fn multi_part_covers_lift_like_per_code_reads_in_ram_and_from_a_store() {
        let sigma = 16u32;
        let symbols = psi_workloads::zipf(4000, sigma, 1.0, 43);
        let idx = UniformTreeIndex::build(&symbols, sigma, cfg());
        let dir = std::env::temp_dir().join(format!("psi_core_ut_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("uniform_tree.psi");
        psi_store::save(&idx, &path).expect("save");
        let opened = psi_store::open::<UniformTreeIndex>(&path, &psi_store::OpenOptions::default())
            .expect("open");
        let mut multi = 0;
        for lo in 0..sigma {
            for hi in lo..sigma {
                let per_code = IoSession::new();
                let want = query_per_code(&idx, lo, hi, &per_code);
                assert_eq!(want.to_vec(), naive_query(&symbols, lo, hi).to_vec());
                for (what, index) in [("ram", &idx), ("store", &opened.index)] {
                    let io = IoSession::new();
                    let got = index.try_query(lo, hi, &io).expect("healthy read");
                    assert_eq!(got.to_vec(), want.to_vec(), "{what} [{lo}, {hi}]");
                    assert_eq!(io.stats(), per_code.stats(), "{what} [{lo}, {hi}] charge");
                }
                multi += usize::from(idx.canonical_cover(lo, hi).len() > 1);
            }
        }
        assert!(multi > 50, "only {multi} multi-part covers");
        assert!(opened.real_fetches() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn matches_naive_exhaustively() {
        let sigma = 13u32; // non-power-of-two exercises padding
        let symbols = psi_workloads::uniform(1500, sigma, 41);
        let idx = UniformTreeIndex::build(&symbols, sigma, cfg());
        for lo in 0..sigma {
            for hi in lo..sigma {
                let io = IoSession::new();
                assert_eq!(
                    idx.query(lo, hi, &io).to_vec(),
                    naive_query(&symbols, lo, hi).to_vec(),
                    "range [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn cover_has_at_most_two_per_level() {
        let symbols = psi_workloads::uniform(500, 64, 43);
        let idx = UniformTreeIndex::build(&symbols, 64, cfg());
        for (lo, hi) in [(0u32, 63u32), (1, 62), (3, 60), (17, 48), (5, 5)] {
            let cover = idx.canonical_cover(lo, hi);
            for level in 0..idx.num_levels() {
                let count = cover.iter().filter(|&&(l, _)| l == level).count();
                assert!(
                    count <= 2,
                    "level {level} has {count} subtrees for [{lo}, {hi}]"
                );
            }
            // Cover expands exactly to [lo, hi].
            let mut chars: Vec<u64> = cover
                .iter()
                .flat_map(|&(l, i)| (i << l)..((i + 1) << l))
                .collect();
            chars.sort_unstable();
            assert_eq!(chars, (u64::from(lo)..=u64::from(hi)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn complement_trick_for_wide_ranges() {
        let symbols = psi_workloads::uniform(2000, 16, 45);
        let idx = UniformTreeIndex::build(&symbols, 16, cfg());
        let io = IoSession::new();
        let r = idx.query(1, 14, &io);
        assert!(r.is_complemented());
        assert_eq!(r.to_vec(), naive_query(&symbols, 1, 14).to_vec());
    }

    #[test]
    fn space_is_n_lg_squared_sigma() {
        let n = 1u64 << 14;
        let sigma = 64u32;
        let symbols = psi_workloads::uniform(n as usize, sigma, 47);
        let idx = UniformTreeIndex::build(&symbols, sigma, IoConfig::default());
        // lg σ + 1 = 7 levels, each ~n lg(σ/2^k)-ish compressed bits; the
        // total must be well below (lg σ)² n but above n lg σ.
        let lg_sigma = 6u64;
        assert!(idx.space_bits() > n * lg_sigma / 2);
        assert!(idx.space_bits() < 3 * n * lg_sigma * lg_sigma);
    }

    #[test]
    fn query_io_has_additive_lg_sigma_not_output_blowup() {
        let n = 1usize << 16;
        let sigma = 256u32;
        let symbols = psi_workloads::uniform(n, sigma, 49);
        let idx = UniformTreeIndex::build(&symbols, sigma, IoConfig::default());
        let (result, stats) = idx.query_measured(3, 130);
        let t_over_b = result.size_bits() / 8192 + 1;
        assert!(
            stats.reads <= 4 * t_over_b + 2 * 9 + 8,
            "reads {} vs T/B {} + 2 lg sigma",
            stats.reads,
            t_over_b
        );
    }

    #[test]
    fn sigma_one() {
        let symbols = vec![0u32; 300];
        let idx = UniformTreeIndex::build(&symbols, 1, cfg());
        let io = IoSession::new();
        assert_eq!(idx.query(0, 0, &io).cardinality(), 300);
    }
}
