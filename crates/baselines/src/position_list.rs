//! The "B-tree" baseline: per-character position lists behind a static
//! B⁺-tree directory.
//!
//! This is the abstract's "obvious solution, storing a dictionary for the
//! set `⋃ᵢ{xᵢ}` with a position set associated with each character", and
//! one of the paper's two extremes (§1.3): positions are stored explicitly
//! with `⌈lg n⌉` bits each, so a query reads `z lg n` bits — a factor
//! `Ω(lg n)` above the compressed output size when the result is dense —
//! plus a `O(log_b n)` directory descent.

use psi_api::{check_range, HasDisk, RidSet, SecondaryIndex, Symbol};
use psi_bits::{merge, BitBuf, GapBitmap};
#[cfg(test)]
use psi_io::DiskReader;
use psi_io::{cost, Disk, ExtentId, IoConfig, IoSession, ReadError};

/// A secondary index storing explicit, fixed-width position lists per
/// character, with a static B⁺-tree directory mapping characters to data
/// blocks.
#[derive(Debug)]
pub struct PositionListIndex {
    disk: Disk,
    data: ExtentId,
    /// Directory levels, bottom-up; each level holds the first key of every
    /// block of the level below.
    dir_levels: Vec<DirLevel>,
    n: u64,
    sigma: Symbol,
    /// Bits per stored position: `⌈lg n⌉`.
    pos_width: u32,
    /// Bits per directory key: char plus position.
    key_width: u32,
    /// `prefix[c]` = index of the first entry of character `c` in the data
    /// stream (`prefix[σ]` = `n`).
    prefix: Vec<u64>,
}

#[derive(Debug)]
struct DirLevel {
    ext: ExtentId,
    keys: u64,
}

impl PositionListIndex {
    /// Builds the index over `symbols ∈ [0, sigma)ⁿ`.
    pub fn build(symbols: &[Symbol], sigma: Symbol, config: IoConfig) -> Self {
        assert!(sigma > 0);
        let n = symbols.len() as u64;
        let mut disk = Disk::new(config);
        let session = IoSession::untracked();
        let pos_width = cost::lg2_ceil(n.max(2)) as u32;
        let char_width = cost::lg2_ceil(u64::from(sigma).max(2)) as u32;
        let key_width = pos_width + char_width;

        // Data stream: positions grouped by character, fixed width.
        let lists = crate::per_char_positions(symbols, sigma);
        let mut prefix = Vec::with_capacity(sigma as usize + 1);
        let data = disk.alloc();
        {
            let mut w = disk.writer(data, &session);
            let mut written = 0u64;
            for list in &lists {
                prefix.push(written);
                for &p in list {
                    w.write_bits(p, pos_width);
                    written += 1;
                }
            }
            prefix.push(written);
        }

        // Leaf-level directory keys: (char, pos) of the first entry fully
        // contained in each data block.
        let block_bits = config.block_bits;
        let data_blocks = disk.extent_blocks(data);
        let mut level_keys: Vec<u64> = Vec::with_capacity(data_blocks as usize);
        {
            // char_of_entry via prefix array.
            let mut c: usize = 0;
            for blk in 0..data_blocks {
                let entry = (blk * block_bits).div_ceil(u64::from(pos_width));
                if entry >= n {
                    break;
                }
                while prefix[c + 1] <= entry {
                    c += 1;
                }
                let pos = lists[c][(entry - prefix[c]) as usize];
                level_keys.push((c as u64) << pos_width | pos);
            }
        }

        // Build directory levels bottom-up until a level fits in one block.
        let keys_per_block = (block_bits / u64::from(key_width)).max(2);
        let mut dir_levels = Vec::new();
        loop {
            let ext = disk.alloc();
            {
                let mut w = disk.writer(ext, &session);
                for &k in &level_keys {
                    w.write_bits(k, key_width);
                }
            }
            let keys = level_keys.len() as u64;
            dir_levels.push(DirLevel { ext, keys });
            if keys <= keys_per_block {
                break;
            }
            // Parent keys: first key of every block of this level.
            level_keys = level_keys
                .iter()
                .step_by(keys_per_block as usize)
                .copied()
                .collect();
        }

        PositionListIndex {
            disk,
            data,
            dir_levels,
            n,
            sigma,
            pos_width,
            key_width,
            prefix,
        }
    }

    /// Descends the directory for the first entry with character `≥ lo`,
    /// returning the leaf-level key index found. Charges one block per
    /// level, exactly the `O(log_b n)` descent of a B-tree search. Each
    /// key is one lift ([`Self::read_key`]), so the descent reads, and
    /// charges, only up to the first key past `lo`.
    fn descend(&self, lo: Symbol, io: &IoSession) -> Result<u64, ReadError> {
        let target = u64::from(lo) << self.pos_width;
        let keys_per_block = (self.disk.block_bits() / u64::from(self.key_width)).max(2);
        // Start at the root (topmost level, a single block).
        let mut child: u64 = 0;
        for depth in (0..self.dir_levels.len()).rev() {
            let level = &self.dir_levels[depth];
            let start = child * keys_per_block;
            let end = (start + keys_per_block).min(level.keys);
            // Last key <= target within this node (or the node's first key).
            let mut chosen = start;
            for i in start..end {
                if self.read_key(level.ext, i, io)? <= target {
                    chosen = i;
                } else {
                    break;
                }
            }
            child = chosen;
        }
        Ok(child)
    }

    /// Key `i` of the directory level stored in `ext`, read with one lift.
    fn read_key(&self, ext: ExtentId, i: u64, io: &IoSession) -> Result<u64, ReadError> {
        let width = self.key_width;
        let mut word = Vec::with_capacity(1);
        self.disk
            .reader(ext, i * u64::from(width), io)
            .read_words(&mut word, u64::from(width))?;
        Ok(word[0] >> (64 - width))
    }

    /// Lifts character `c`'s run of fixed-width positions whole, then
    /// decodes its fields in memory: the blocks and bits of reading the
    /// run field by field.
    fn char_run(&self, c: Symbol, io: &IoSession) -> Result<Vec<u64>, ReadError> {
        let start = self.prefix[c as usize];
        let count = self.prefix[c as usize + 1] - start;
        let width = u64::from(self.pos_width);
        let run = BitBuf::lift(
            &mut self.disk.reader(self.data, start * width, io),
            count * width,
        )?;
        Ok((0..count)
            .map(|i| run.get_bits_at(i * width, self.pos_width))
            .collect())
    }

    /// The query with every key and position read field by field from
    /// the disk: the reference the lifted reads must match in rows and
    /// charge.
    #[cfg(test)]
    fn query_per_code(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> RidSet {
        // The descent, one cursor per directory node stepped key by key.
        let target = u64::from(lo) << self.pos_width;
        let keys_per_block = (self.disk.block_bits() / u64::from(self.key_width)).max(2);
        let mut child = 0;
        for level in self.dir_levels.iter().rev() {
            let start = child * keys_per_block;
            let end = (start + keys_per_block).min(level.keys);
            let mut r = self
                .disk
                .reader(level.ext, start * u64::from(self.key_width), io);
            child = (start..end)
                .take_while(|_| r.read_bits(self.key_width) <= target)
                .last()
                .unwrap_or(start);
        }
        let total = self.prefix[hi as usize + 1] - self.prefix[lo as usize];
        let streams: Vec<PositionsIter<'_>> =
            (lo..=hi).map(|c| self.char_positions(c, io)).collect();
        let span = (total > 0).then_some((0, self.n - 1));
        RidSet::from_positions(merge::merge_adaptive(streams, self.n, total, span))
    }

    /// Iterates one character's positions from disk, field by field.
    #[cfg(test)]
    fn char_positions<'a>(&'a self, c: Symbol, io: &'a IoSession) -> PositionsIter<'a> {
        let start = self.prefix[c as usize];
        let count = self.prefix[c as usize + 1] - start;
        let reader = self
            .disk
            .reader(self.data, start * u64::from(self.pos_width), io);
        PositionsIter {
            reader,
            remaining: count,
            width: self.pos_width,
        }
    }
}

#[cfg(test)]
struct PositionsIter<'a> {
    reader: DiskReader<'a>,
    remaining: u64,
    width: u32,
}

#[cfg(test)]
impl Iterator for PositionsIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.reader.read_bits(self.width))
    }
}

impl HasDisk for PositionListIndex {
    fn disk(&self) -> &Disk {
        &self.disk
    }
}

impl SecondaryIndex for PositionListIndex {
    fn len(&self) -> u64 {
        self.n
    }

    fn sigma(&self) -> Symbol {
        self.sigma
    }

    fn space_bits(&self) -> u64 {
        // Data + directory extents + the in-memory prefix array (σ+1
        // pointers of ⌈lg n⌉ bits).
        let extents: u64 = self.disk.extent_bits(self.data)
            + self
                .dir_levels
                .iter()
                .map(|l| self.disk.extent_bits(l.ext))
                .sum::<u64>();
        extents + (u64::from(self.sigma) + 1) * u64::from(self.pos_width)
    }

    fn try_query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> Result<RidSet, ReadError> {
        check_range(lo, hi, self.sigma);
        if self.n == 0 {
            return Ok(RidSet::from_positions(GapBitmap::empty(0)));
        }
        // Directory descent (charged); its answer must be consistent with
        // the in-memory prefix array.
        let leaf_key = self.descend(lo, io)?;
        debug_assert!(
            leaf_key * self.disk.block_bits()
                <= self.prefix[lo as usize] * u64::from(self.pos_width) + self.disk.block_bits(),
            "directory descent landed after the first matching entry"
        );
        // Single-character queries encode their lifted run directly — no
        // merge machinery.
        if lo == hi {
            let positions = self.char_run(lo, io)?;
            return Ok(RidSet::from_positions(GapBitmap::from_sorted(
                &positions, self.n,
            )));
        }
        // Lift and merge the per-character lists (runs share blocks at
        // their boundaries; the session deduplicates those charges). The
        // planner sees the summed counts from the prefix array; position
        // lists keep no span metadata, so the universe bounds the span —
        // conservative, but enough to switch dense unions to the bitset
        // path.
        let total = self.prefix[hi as usize + 1] - self.prefix[lo as usize];
        let runs = (lo..=hi)
            .map(|c| Ok(self.char_run(c, io)?.into_iter()))
            .collect::<Result<Vec<_>, ReadError>>()?;
        let span = (total > 0).then_some((0, self.n - 1));
        Ok(RidSet::from_positions(merge::merge_adaptive(
            runs, self.n, total, span,
        )))
    }

    fn cardinality_hint(&self, lo: Symbol, hi: Symbol) -> Option<u64> {
        // Exact, from the in-memory prefix array (no descent, no I/O).
        Some(self.prefix[hi as usize + 1] - self.prefix[lo as usize])
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl psi_store::PersistIndex for PositionListIndex {
    const TAG: &'static str = "position_list";

    fn write_meta(&self, out: &mut psi_store::MetaBuf) {
        out.put_u32(self.data.0);
        out.put_len(self.dir_levels.len());
        for l in &self.dir_levels {
            out.put_u32(l.ext.0);
            out.put_u64(l.keys);
        }
        out.put_u64(self.n);
        out.put_u32(self.sigma);
        out.put_u32(self.pos_width);
        out.put_u32(self.key_width);
        out.put_vec_u64(&self.prefix);
    }

    fn disks(&self) -> Vec<&Disk> {
        vec![HasDisk::disk(self)]
    }

    fn from_parts(
        meta: &mut psi_store::MetaCursor,
        disks: Vec<Disk>,
    ) -> Result<Self, psi_store::StoreError> {
        let disk = psi_store::single_volume(disks, "position list")?;
        let data = psi_store::check_extent(&disk, meta.get_u32()?, "position-list data")?;
        let num_levels = meta.get_len(12)?;
        let mut dir_levels = Vec::with_capacity(num_levels);
        for _ in 0..num_levels {
            dir_levels.push(DirLevel {
                ext: psi_store::check_extent(&disk, meta.get_u32()?, "position-list directory")?,
                keys: meta.get_u64()?,
            });
        }
        Ok(PositionListIndex {
            data,
            dir_levels,
            n: meta.get_u64()?,
            sigma: meta.get_u32()?,
            pos_width: meta.get_u32()?,
            key_width: meta.get_u32()?,
            prefix: meta.get_vec_u64()?,
            disk,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_against_naive;
    use psi_io::IoConfig;

    #[test]
    fn runs_and_descents_lift_like_per_code_reads() {
        // A small block makes the directory three levels deep, so the
        // descent steps keys in several nodes.
        let symbols = psi_workloads::zipf(6000, 16, 1.0, 37);
        let idx = PositionListIndex::build(&symbols, 16, IoConfig::with_block_bits(128));
        assert!(idx.dir_levels.len() >= 3);
        let ranges = [(0, 0), (3, 3), (15, 15), (0, 1), (2, 9), (0, 15), (7, 12)];
        crate::testutil::assert_lifts_match_per_code(&idx, &ranges, |idx, lo, hi, io| {
            idx.query_per_code(lo, hi, io)
        });
    }

    fn cfg() -> IoConfig {
        IoConfig::with_block_bits(512)
    }

    #[test]
    fn matches_naive_on_random_strings() {
        let symbols = psi_workloads::uniform(2000, 16, 42);
        let idx = PositionListIndex::build(&symbols, 16, cfg());
        check_against_naive(&idx, &symbols);
    }

    #[test]
    fn matches_naive_on_skewed_strings() {
        let symbols = psi_workloads::zipf(3000, 32, 1.2, 7);
        let idx = PositionListIndex::build(&symbols, 32, cfg());
        check_against_naive(&idx, &symbols);
    }

    #[test]
    fn empty_string_yields_empty_results() {
        let idx = PositionListIndex::build(&[], 4, cfg());
        let io = IoSession::new();
        assert!(idx.query(0, 3, &io).is_empty());
    }

    #[test]
    fn missing_characters_are_empty() {
        let symbols = vec![1u32; 100];
        let idx = PositionListIndex::build(&symbols, 4, cfg());
        let io = IoSession::new();
        assert!(idx.query(2, 3, &io).is_empty());
        assert_eq!(idx.query(0, 1, &io).cardinality(), 100);
    }

    #[test]
    fn space_is_n_lg_n_plus_directory() {
        let symbols = psi_workloads::uniform(10_000, 64, 1);
        let idx = PositionListIndex::build(&symbols, 64, cfg());
        let n = 10_000f64;
        let lg_n = cost::lg2_ceil(10_000) as f64;
        let space = idx.space_bits() as f64;
        assert!(space >= n * lg_n, "data payload alone is n lg n");
        assert!(
            space <= 1.2 * n * lg_n,
            "directory should be a small overhead, got {space}"
        );
    }

    #[test]
    fn query_ios_scale_with_z_over_b() {
        let n = 1 << 16;
        let symbols = psi_workloads::uniform(n, 256, 3);
        let idx = PositionListIndex::build(&symbols, 256, IoConfig::default());
        let (small, s_small) = idx.query_measured(0, 0);
        let (large, s_large) = idx.query_measured(0, 127);
        assert!(large.cardinality() > 100 * small.cardinality());
        assert!(
            s_large.reads > 10 * s_small.reads,
            "large result should cost much more I/O"
        );
        // Reading z positions of lg n bits each: at least z·lg n / B blocks.
        let z = large.cardinality();
        let floor = z * 16 / 8192;
        assert!(
            s_large.reads >= floor,
            "reads {} below bit floor {floor}",
            s_large.reads
        );
    }

    #[test]
    fn directory_descent_is_logarithmic() {
        let n = 1 << 16;
        let symbols = psi_workloads::uniform(n, 512, 9);
        // Small blocks force a multi-level directory.
        let idx = PositionListIndex::build(&symbols, 512, IoConfig::with_block_bits(512));
        assert!(
            idx.dir_levels.len() >= 2,
            "expected a multi-level directory"
        );
        let (_r, stats) = idx.query_measured(5, 5);
        // Descent reads one block per level plus the data blocks for one
        // character (~n/512 positions of 16 bits in 512-bit blocks).
        let char_blocks = (n as u64 / 512) * 16 / 512 + 2;
        assert!(
            stats.reads <= idx.dir_levels.len() as u64 + char_blocks + 2,
            "reads {} exceed descent+data bound",
            stats.reads
        );
    }
}
