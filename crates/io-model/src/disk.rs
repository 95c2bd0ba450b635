//! The simulated block device.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{pin_block, ReadError};
use crate::pool::BufferPool;
use crate::session::IoSession;
use crate::IoConfig;

/// Handle to an extent on a [`Disk`].
///
/// An extent is a growable bit stream that occupies its own whole blocks;
/// distinct extents never share a block (the paper's structures concatenate
/// many bitmaps *within* one stream precisely so that they share blocks —
/// such a concatenation is one extent here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExtentId(pub u32);

/// Extent metadata recorded in a store file: enough to recreate the
/// extent table of a [`Disk`] without loading any payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredExtent {
    /// Valid bits in the extent.
    pub bit_len: u64,
    /// Whether the extent had been freed when saved.
    pub freed: bool,
}

#[derive(Debug)]
struct Extent {
    /// Bit storage, MSB-first within each word. Authoritative only while
    /// `resident`; non-resident extents are fetched block by block from
    /// the disk's buffer pool.
    words: Vec<u64>,
    /// Number of valid bits.
    bit_len: u64,
    /// Freed extents keep their id but release their storage.
    freed: bool,
    /// Whether `words` holds the extent (the default for built disks).
    /// Opened, file-backed disks start non-resident and read through the
    /// buffer pool; writers promote an extent back to residency.
    resident: bool,
}

impl Default for Extent {
    fn default() -> Self {
        Extent {
            words: Vec::new(),
            bit_len: 0,
            freed: false,
            resident: true,
        }
    }
}

/// An in-RAM simulated block device with bit-granular extents.
///
/// All persistent data of every index structure lives on a `Disk`; all
/// access goes through [`DiskReader`]/[`DiskWriter`] cursors which charge an
/// [`IoSession`] for each distinct block touched. The number of blocks an
/// extent occupies is `ceil(bit_len / B)`, so partially-filled tail blocks
/// are visible both in space accounting and in I/O accounting, exactly as in
/// the paper's model ("the minimum amount of data read is 1 block", §1.2).
///
/// A `Disk` is `Sync`: the read path (`reader`, `charge_read_span`) takes
/// `&self`, so one disk behind an `Arc` serves any number of query
/// threads, each with its own per-query [`IoSession`]. Mutation (`alloc`,
/// `writer`, `promote`, …) still requires `&mut self` — exclusive by
/// construction.
#[derive(Debug)]
pub struct Disk {
    /// The charge space of this disk's blocks, distinct for every disk
    /// (see [`fresh_space`]).
    space: u32,
    config: IoConfig,
    extents: Vec<Extent>,
    /// Buffer pool fronting a real backend; `None` for the fully
    /// resident, in-RAM disk (the default).
    pool: Option<Arc<BufferPool>>,
    /// Extents mutated since the last [`Disk::clear_dirty`] — the
    /// incremental-checkpoint cursor. Behind a mutex so checkpointing,
    /// which reaches disks through `&Disk` (the `PersistIndex::disks`
    /// surface), can clear it without a `&mut` threading change through
    /// every index family.
    dirty: Mutex<HashSet<u32>>,
}

/// A charge space no other disk of this process holds. A session keys
/// charged blocks by `(space, extent, block)` and extent ids restart at 0
/// on every disk, so an operation that spans several disks (a buffered
/// index's log and engine, the fully dynamic index's cuts, a rebuild's
/// fresh disk) is charged every block it touches.
fn fresh_space() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Disk {
    /// Creates an empty disk with the given model configuration.
    pub fn new(config: IoConfig) -> Self {
        Disk {
            space: fresh_space(),
            config,
            extents: Vec::new(),
            pool: None,
            dirty: Mutex::new(HashSet::new()),
        }
    }

    /// Reconstructs a disk from stored extent metadata, reading payload
    /// on demand through `pool`. Extents are recreated with the same ids
    /// (indices) they were saved with; none of them is resident until a
    /// writer promotes it.
    pub fn from_stored(config: IoConfig, extents: &[StoredExtent], pool: Arc<BufferPool>) -> Self {
        Disk {
            space: fresh_space(),
            config,
            extents: extents
                .iter()
                .map(|e| Extent {
                    words: Vec::new(),
                    bit_len: e.bit_len,
                    freed: e.freed,
                    resident: e.freed || e.bit_len == 0,
                })
                .collect(),
            pool: Some(pool),
            // An opened disk starts clean: its file image is the
            // checkpoint baseline.
            dirty: Mutex::new(HashSet::new()),
        }
    }

    /// Marks an extent dirty (mutated since the last checkpoint).
    ///
    /// Takes `&self`: recovery replay and the save path reach disks
    /// through shared references.
    pub fn mark_dirty(&self, ext: ExtentId) {
        self.dirty.lock().unwrap().insert(ext.0);
    }

    /// Whether an extent was mutated since the last [`Disk::clear_dirty`].
    pub fn is_dirty(&self, ext: ExtentId) -> bool {
        self.dirty.lock().unwrap().contains(&ext.0)
    }

    /// Extents mutated since the last [`Disk::clear_dirty`], ascending.
    /// This is what an incremental checkpoint flushes; everything else
    /// is byte-identical to the previous checkpoint.
    pub fn dirty_extents(&self) -> Vec<ExtentId> {
        let mut ids: Vec<u32> = self.dirty.lock().unwrap().iter().copied().collect();
        ids.sort_unstable();
        ids.into_iter().map(ExtentId).collect()
    }

    /// Resets the dirty set — called after a checkpoint has durably
    /// written every dirty extent.
    pub fn clear_dirty(&self) {
        self.dirty.lock().unwrap().clear();
    }

    /// The buffer pool, when this disk reads through one.
    pub fn pool(&self) -> Option<&Arc<BufferPool>> {
        self.pool.as_ref()
    }

    /// Number of extents ever allocated (live and freed).
    pub fn num_extents(&self) -> usize {
        self.extents.len()
    }

    /// Whether an extent's words are memory-resident.
    pub fn is_resident(&self, ext: ExtentId) -> bool {
        self.extents[ext.0 as usize].resident
    }

    /// Whether an extent has been freed.
    pub fn is_freed(&self, ext: ExtentId) -> bool {
        self.extents[ext.0 as usize].freed
    }

    /// The resident word image of an extent (save paths).
    ///
    /// # Panics
    /// Panics when the extent is non-resident; promote it first.
    pub fn extent_words(&self, ext: ExtentId) -> &[u64] {
        let e = &self.extents[ext.0 as usize];
        assert!(
            e.resident,
            "extent {} is not resident; promote before snapshotting",
            ext.0
        );
        &e.words
    }

    /// Loads a non-resident extent's blocks from the backend into RAM,
    /// making `words` authoritative again (writers call this; reads of a
    /// resident extent no longer consult the pool). Each loaded block
    /// counts as a real fetch.
    ///
    /// # Panics
    /// Panics when a block fetch fails — mutating a store whose pages
    /// cannot be read is not recoverable in place. Fallible callers
    /// (scrub/repair paths) use [`Self::try_promote`].
    pub fn promote(&mut self, ext: ExtentId) {
        if let Err(err) = self.try_promote(ext) {
            panic!("promoting extent {}: {err}", ext.0);
        }
    }

    /// Fallible [`Self::promote`]: on a failed fetch the extent stays
    /// non-resident (no partial promotion) and the typed failure names
    /// the block that could not be read.
    pub fn try_promote(&mut self, ext: ExtentId) -> Result<(), crate::ReadError> {
        let e = &mut self.extents[ext.0 as usize];
        if e.resident {
            return Ok(());
        }
        let pool = self
            .pool
            .as_ref()
            .expect("non-resident extent needs a pool");
        let block_words = (self.config.block_bits / 64) as usize;
        let blocks = self.config.blocks_for_bits(e.bit_len);
        let mut words = vec![0u64; (e.bit_len as usize).div_ceil(64)];
        let mut buf = vec![0u64; block_words];
        for blk in 0..blocks {
            pool.store()
                .read_block(ext, blk, &mut buf)
                .map_err(|err| crate::ReadError {
                    class: err.class,
                    extent: ext,
                    block: blk,
                    message: err.message,
                })?;
            let start = blk as usize * block_words;
            let end = (start + block_words).min(words.len());
            words[start..end].copy_from_slice(&buf[..end - start]);
        }
        pool.forget_extent(ext);
        e.words = words;
        e.resident = true;
        Ok(())
    }

    /// Promotes every extent (a full load; used before re-saving an
    /// opened disk).
    pub fn promote_all(&mut self) {
        for i in 0..self.extents.len() {
            self.promote(ExtentId(i as u32));
        }
    }

    /// Charges the blocks covering `[bit_off, bit_off + bit_len)` of
    /// `ext` as reads, and — on a pooled disk — faults each of them, so
    /// directory-record charges drive real fetches exactly like payload
    /// reads do. Zero-length spans charge their single containing block,
    /// matching a one-record read. A failed fetch is returned as a
    /// [`ReadError`].
    pub fn charge_read_span(
        &self,
        ext: ExtentId,
        bit_off: u64,
        bit_len: u64,
        io: &IoSession,
    ) -> Result<(), ReadError> {
        let b = self.config.block_bits;
        let first = bit_off / b;
        let last = (bit_off + bit_len.max(1) - 1) / b;
        let e = &self.extents[ext.0 as usize];
        // Blocks that exist on the backend (a span may legitimately end
        // inside slack that was never written; those blocks are charged
        // but have nothing to fetch).
        let stored = self.config.blocks_for_bits(e.bit_len);
        for blk in first..=last {
            io.charge(self.space, ext, blk, false);
            if !e.resident && blk < stored {
                let pool = self
                    .pool
                    .as_ref()
                    .expect("non-resident extent needs a pool");
                pool.unpin(pin_block(pool, ext, blk)?);
            }
        }
        Ok(())
    }

    /// Charges block `block` of `ext` as written (`write`) or read, moving
    /// no data: for structures that keep a block's contents in memory and
    /// account for its transfer themselves.
    pub fn charge_block(&self, ext: ExtentId, block: u64, write: bool, io: &IoSession) {
        io.charge(self.space, ext, block, write);
    }

    /// The model configuration (block size).
    pub fn config(&self) -> &IoConfig {
        &self.config
    }

    /// Block size `B` in bits.
    pub fn block_bits(&self) -> u64 {
        self.config.block_bits
    }

    /// Allocates a new, empty extent.
    pub fn alloc(&mut self) -> ExtentId {
        let id = ExtentId(u32::try_from(self.extents.len()).expect("extent ids exhausted"));
        self.extents.push(Extent::default());
        self.mark_dirty(id);
        id
    }

    /// Releases an extent's storage. The id remains valid but empty.
    pub fn free(&mut self, ext: ExtentId) {
        self.mark_dirty(ext);
        let e = &mut self.extents[ext.0 as usize];
        e.words = Vec::new();
        e.bit_len = 0;
        e.freed = true;
        // An empty extent needs no backend: it is trivially resident.
        if !e.resident {
            e.resident = true;
            if let Some(pool) = &self.pool {
                pool.forget_extent(ext);
            }
        }
    }

    /// Length of an extent in bits.
    pub fn extent_bits(&self, ext: ExtentId) -> u64 {
        self.extents[ext.0 as usize].bit_len
    }

    /// Number of blocks an extent occupies (`ceil(bits / B)`).
    pub fn extent_blocks(&self, ext: ExtentId) -> u64 {
        self.config.blocks_for_bits(self.extent_bits(ext))
    }

    /// Total bits stored across all live extents (space accounting).
    pub fn used_bits(&self) -> u64 {
        self.extents
            .iter()
            .filter(|e| !e.freed)
            .map(|e| e.bit_len)
            .sum()
    }

    /// Total blocks occupied across all live extents, i.e. space in the
    /// block-granular sense (includes tail-block fragmentation).
    pub fn used_blocks(&self) -> u64 {
        self.extents
            .iter()
            .filter(|e| !e.freed)
            .map(|e| self.config.blocks_for_bits(e.bit_len))
            .sum()
    }

    /// Truncates an extent to `bit_len` bits (must not exceed current).
    pub fn truncate(&mut self, ext: ExtentId, bit_len: u64) {
        self.mark_dirty(ext);
        self.promote(ext);
        let e = &mut self.extents[ext.0 as usize];
        assert!(bit_len <= e.bit_len, "truncate beyond extent length");
        e.bit_len = bit_len;
        let words = (bit_len as usize).div_ceil(64);
        e.words.truncate(words);
        // Clear any stale bits after the new end so appends find zeroes.
        if !bit_len.is_multiple_of(64) {
            if let Some(last) = e.words.last_mut() {
                let keep = bit_len % 64;
                *last &= !0u64 << (64 - keep);
            }
        }
    }

    /// A reading cursor positioned at `bit_off` within `ext`, charging
    /// `session` for each distinct block it touches. Multiple readers over
    /// the same disk and session may coexist. A non-resident extent may
    /// only be lifted ([`DiskReader::read_words`]).
    ///
    /// # Panics
    /// Panics if `bit_off` exceeds the extent length.
    pub fn reader<'a>(
        &'a self,
        ext: ExtentId,
        bit_off: u64,
        session: &'a IoSession,
    ) -> DiskReader<'a> {
        let e = &self.extents[ext.0 as usize];
        assert!(
            bit_off <= e.bit_len,
            "reader offset {bit_off} beyond extent length {}",
            e.bit_len
        );
        let pool = if e.resident {
            None
        } else {
            Some(
                &**self
                    .pool
                    .as_ref()
                    .expect("non-resident extent needs a pool"),
            )
        };
        DiskReader {
            disk: self.space,
            words: &e.words,
            pool,
            bit_len: e.bit_len,
            ext,
            pos: bit_off,
            session,
            block_bits: self.config.block_bits,
            last_block: u64::MAX,
        }
    }

    /// An appending cursor positioned at the end of `ext`. On a pooled
    /// disk the extent is promoted to a resident RAM image first (writes
    /// on opened stores are in-memory overlays; the file is immutable
    /// until the index is saved again).
    pub fn writer<'a>(&'a mut self, ext: ExtentId, session: &'a IoSession) -> DiskWriter<'a> {
        self.mark_dirty(ext);
        self.promote(ext);
        let block_bits = self.config.block_bits;
        let e = &mut self.extents[ext.0 as usize];
        e.freed = false;
        DiskWriter {
            disk: self.space,
            extent: e,
            ext,
            session,
            block_bits,
            last_block: u64::MAX,
        }
    }

    /// A positioned cursor that writes (ORs) bits starting at `bit_off`,
    /// extending the extent if it writes past the current end. The target
    /// region must hold zero bits (freshly reserved slack); this is how
    /// dynamic structures fill pre-allocated slots in place.
    pub fn writer_at<'a>(
        &'a mut self,
        ext: ExtentId,
        bit_off: u64,
        session: &'a IoSession,
    ) -> DiskWriterAt<'a> {
        self.mark_dirty(ext);
        self.promote(ext);
        let block_bits = self.config.block_bits;
        let e = &mut self.extents[ext.0 as usize];
        assert!(
            bit_off <= e.bit_len,
            "writer_at offset {bit_off} beyond extent length {}",
            e.bit_len
        );
        e.freed = false;
        DiskWriterAt {
            disk: self.space,
            extent: e,
            ext,
            session,
            block_bits,
            last_block: u64::MAX,
            pos: bit_off,
        }
    }
}

/// A bit-granular reading cursor over one extent.
///
/// Bits are MSB-first within 64-bit words. Each word access charges the
/// block containing it to the session (deduplicated against the previously
/// charged block, and again inside the session's residency set).
///
/// A non-resident extent (an opened store) is read only by
/// [`Self::read_words`], the bulk lift: it pins each block through the
/// disk's [`BufferPool`], copies the words it needs out of the frame,
/// unpins it, and returns a failed fetch as a [`ReadError`]. The cursor
/// holds no pin between calls. The per-bit reads (`read_bit`,
/// `read_bits`, `read_unary`, `peek_word`/`consume_bits`) serve resident
/// extents only; on a non-resident one they panic, because a read that
/// can fault must go through the lift. The charges are identical in both
/// modes; only the pooled mode turns them into real fetches.
#[derive(Debug)]
pub struct DiskReader<'a> {
    disk: u32,
    words: &'a [u64],
    pool: Option<&'a BufferPool>,
    bit_len: u64,
    ext: ExtentId,
    pos: u64,
    session: &'a IoSession,
    block_bits: u64,
    last_block: u64,
}

impl<'a> DiskReader<'a> {
    #[inline]
    fn charge_word(&mut self, word_idx: u64) {
        // block_bits is a multiple of 64, so a word lies in exactly one block.
        let block = word_idx * 64 / self.block_bits;
        if block != self.last_block {
            self.session.charge(self.disk, self.ext, block, false);
            self.last_block = block;
        }
    }

    /// Reads word `word_idx` of a resident extent's RAM image (the slice
    /// access *is* the dispatch: a non-resident reader holds an empty
    /// slice and lands in the cold panic).
    #[inline]
    fn word(&self, word_idx: u64) -> u64 {
        match self.words.get(word_idx as usize) {
            Some(&w) => w,
            None => self.not_resident(),
        }
    }

    #[cold]
    fn not_resident(&self) -> ! {
        panic!(
            "per-bit read of non-resident extent {}: lift it with read_words",
            self.ext.0
        )
    }

    /// Current bit position.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Bits remaining until the end of the extent.
    pub fn remaining(&self) -> u64 {
        self.bit_len - self.pos
    }

    /// Reads a single bit.
    ///
    /// # Panics
    /// Panics when reading past the end of the extent.
    #[inline]
    pub fn read_bit(&mut self) -> bool {
        assert!(self.pos < self.bit_len, "read past end of extent");
        let w = self.pos / 64;
        self.charge_word(w);
        let bit = (self.word(w) >> (63 - (self.pos % 64))) & 1;
        self.pos += 1;
        self.session.add_bits_read(1);
        bit == 1
    }

    /// Reads `k ≤ 64` bits as the low bits of a `u64` (MSB of the field
    /// first).
    #[inline]
    pub fn read_bits(&mut self, k: u32) -> u64 {
        debug_assert!(k <= 64);
        if k == 0 {
            return 0;
        }
        assert!(
            self.pos + u64::from(k) <= self.bit_len,
            "read past end of extent"
        );
        let w = self.pos / 64;
        let off = (self.pos % 64) as u32;
        self.charge_word(w);
        let avail = 64 - off;
        let value = if k <= avail {
            // Entirely within one word.
            (self.word(w) << off) >> (64 - k)
        } else {
            self.charge_word(w + 1);
            let hi = self.word(w) << off >> (64 - k); // top `avail` bits in place
            let lo = self.word(w + 1) >> (64 - (k - avail));
            hi | lo
        };
        self.pos += u64::from(k);
        self.session.add_bits_read(u64::from(k));
        value
    }

    /// Lifts the next `bit_len` bits (any length) into `out`, appending
    /// `⌈bit_len / 64⌉` words MSB-first, the last one zero-padded past
    /// `bit_len`: the one read of a non-resident extent. Charges the same
    /// blocks and counts the same bits as reading those bits field by
    /// field. A resident extent copies its words (with a two-word shift
    /// when the cursor is not word-aligned). A pooled one pins each block
    /// in turn, copies its words out of the frame and unpins it, so a
    /// failed fetch is returned as a [`ReadError`] and the cursor holds
    /// no pin afterwards.
    ///
    /// # Panics
    /// Panics when reading past the end of the extent.
    pub fn read_words(&mut self, out: &mut Vec<u64>, bit_len: u64) -> Result<(), ReadError> {
        if bit_len == 0 {
            return Ok(());
        }
        assert!(
            self.pos + bit_len <= self.bit_len,
            "read past end of extent"
        );
        let first = self.pos / 64;
        let off = (self.pos % 64) as u32;
        // Raw words touched: one more than the output when the bits straddle.
        let end = (self.pos + bit_len).div_ceil(64);
        let n = bit_len.div_ceil(64) as usize;
        let start = out.len();
        out.reserve((end - first) as usize);
        let per_block = self.block_bits / 64;
        let mut idx = first;
        while idx < end {
            let block = idx / per_block;
            let stop = ((block + 1) * per_block).min(end);
            self.charge_word(idx);
            match self.pool {
                None => out.extend_from_slice(&self.words[idx as usize..stop as usize]),
                Some(pool) => {
                    let pinned = pin_block(pool, self.ext, block)?;
                    let at = (idx - block * per_block) as usize;
                    out.extend_from_slice(&pinned.words()[at..at + (stop - idx) as usize]);
                    pool.unpin(pinned);
                }
            }
            idx = stop;
        }
        if off != 0 {
            // Shift the raw words up by `off`; the last raw word has no
            // successor, and is dropped when the bits straddle one more.
            let raw = &mut out[start..];
            for i in 1..raw.len() {
                raw[i - 1] = (raw[i - 1] << off) | (raw[i] >> (64 - off));
            }
            raw[raw.len() - 1] <<= off;
            out.truncate(start + n);
        }
        let tail = (bit_len % 64) as u32;
        if tail != 0 {
            out[start + n - 1] &= !0u64 << (64 - tail);
        }
        self.pos += bit_len;
        self.session.add_bits_read(bit_len);
        Ok(())
    }

    /// Peeks at the next up-to-64 bits without consuming or charging:
    /// `(word, valid)` with the bits MSB-aligned and everything past
    /// `valid` zero. Pair with [`Self::consume_bits`], which performs the
    /// charging for whatever the caller actually consumed — so lookahead
    /// that is not consumed is never billed, keeping the I/O accounting
    /// identical to the cursor path.
    #[inline]
    pub fn peek_word(&self) -> (u64, u32) {
        let remaining = self.bit_len - self.pos;
        if remaining == 0 {
            return (0, 0);
        }
        // One load: only the current word's tail. Codes that straddle into
        // the next word take the decoder's fallback path — rarer than the
        // second load is expensive. Bits past `bit_len` are zero (writes
        // OR into zeroed words; truncation clears the tail), so no
        // masking is needed.
        //
        // A non-resident reader holds an empty slice and advertises no
        // lookahead; the decoder's cursor fallback then panics, because
        // such an extent is read only by `read_words`.
        let off = (self.pos % 64) as u32;
        match self.words.get((self.pos / 64) as usize) {
            Some(&w) => (w << off, remaining.min(u64::from(64 - off)) as u32),
            None => (0, 0),
        }
    }

    /// Consumes `k ≤ 64` bits previously examined via [`Self::peek_word`],
    /// charging the block(s) they lie in and counting them as read —
    /// exactly what [`Self::read_bits`] would have charged.
    #[inline]
    pub fn consume_bits(&mut self, k: u32) {
        debug_assert!(k <= 64);
        if k == 0 {
            return;
        }
        assert!(
            self.pos + u64::from(k) <= self.bit_len,
            "consume past end of extent"
        );
        let w = self.pos / 64;
        self.charge_word(w);
        let last = (self.pos + u64::from(k) - 1) / 64;
        if last != w {
            self.charge_word(last);
        }
        self.pos += u64::from(k);
        self.session.add_bits_read(u64::from(k));
    }

    /// Advances the cursor without reading (the skipped blocks are *not*
    /// charged; used to jump between concatenated bitmaps).
    pub fn skip_to(&mut self, bit_pos: u64) {
        assert!(bit_pos <= self.bit_len, "skip past end of extent");
        self.pos = bit_pos;
        // Force re-charging at the new position even if it is in the same
        // block: the residency set still deduplicates, this only resets the
        // cheap local cache.
        self.last_block = u64::MAX;
    }

    /// Number of unary zeros before the next 1 bit, consuming the 1 too.
    /// This is the first half of gamma decoding; provided here so decoding
    /// can run word-at-a-time against the disk.
    #[inline]
    pub fn read_unary(&mut self) -> u32 {
        let mut zeros = 0u32;
        loop {
            assert!(self.pos < self.bit_len, "unary code ran past end of extent");
            let w = self.pos / 64;
            let off = (self.pos % 64) as u32;
            self.charge_word(w);
            let chunk = self.word(w) << off;
            let avail = (64 - off).min((self.bit_len - self.pos) as u32);
            let lz = chunk.leading_zeros().min(avail);
            if lz < avail {
                // Found the terminating 1 within this word.
                self.pos += u64::from(lz) + 1;
                self.session.add_bits_read(u64::from(lz) + 1);
                return zeros + lz;
            }
            zeros += avail;
            self.pos += u64::from(avail);
            self.session.add_bits_read(u64::from(avail));
        }
    }
}

/// An appending bit cursor over one extent.
#[derive(Debug)]
pub struct DiskWriter<'a> {
    disk: u32,
    extent: &'a mut Extent,
    ext: ExtentId,
    session: &'a IoSession,
    block_bits: u64,
    last_block: u64,
}

impl<'a> DiskWriter<'a> {
    #[inline]
    fn charge_word(&mut self, word_idx: u64) {
        let block = word_idx * 64 / self.block_bits;
        if block != self.last_block {
            self.session.charge(self.disk, self.ext, block, true);
            self.last_block = block;
        }
    }

    /// Current length of the extent in bits (== append position).
    pub fn pos(&self) -> u64 {
        self.extent.bit_len
    }

    /// Appends the low `k ≤ 64` bits of `value`, MSB of the field first.
    #[inline]
    pub fn write_bits(&mut self, value: u64, k: u32) {
        debug_assert!(k <= 64);
        if k == 0 {
            return;
        }
        debug_assert!(k == 64 || value < (1u64 << k), "value wider than k bits");
        let pos = self.extent.bit_len;
        let end_word = ((pos + u64::from(k) - 1) / 64) as usize;
        if end_word >= self.extent.words.len() {
            self.extent.words.resize(end_word + 1, 0);
        }
        let w = (pos / 64) as usize;
        let off = (pos % 64) as u32;
        self.charge_word(w as u64);
        let avail = 64 - off;
        if k <= avail {
            self.extent.words[w] |= value << (avail - k);
        } else {
            self.charge_word(w as u64 + 1);
            self.extent.words[w] |= value >> (k - avail);
            self.extent.words[w + 1] |= value << (64 - (k - avail));
        }
        self.extent.bit_len += u64::from(k);
        self.session.add_bits_written(u64::from(k));
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Appends `count` zero bits (used for padding/alignment).
    pub fn write_zeros(&mut self, mut count: u64) {
        while count > 0 {
            let k = count.min(64) as u32;
            self.write_bits(0, k);
            count -= u64::from(k);
        }
    }

    /// Appends `bit_len` bits stored MSB-first in `words` (bits of the
    /// final word beyond `bit_len` must be zero). When the extent length
    /// is 64-bit aligned this is a whole-word copy; the charged blocks and
    /// counted bits are the same as the equivalent `write_bits` loop.
    pub fn write_bulk(&mut self, words: &[u64], bit_len: u64) {
        if bit_len == 0 {
            return;
        }
        let nwords = (bit_len as usize).div_ceil(64);
        debug_assert!(nwords <= words.len(), "word slice shorter than bit_len");
        let pos = self.extent.bit_len;
        if pos.is_multiple_of(64) {
            debug_assert_eq!(self.extent.words.len() as u64, pos / 64);
            self.extent.words.extend_from_slice(&words[..nwords]);
            let first_word = pos / 64;
            let last_word = first_word + nwords as u64 - 1;
            for blk in (first_word * 64 / self.block_bits)..=(last_word * 64 / self.block_bits) {
                if blk != self.last_block {
                    self.session.charge(self.disk, self.ext, blk, true);
                    self.last_block = blk;
                }
            }
            self.extent.bit_len += bit_len;
            self.session.add_bits_written(bit_len);
        } else {
            let full = (bit_len / 64) as usize;
            for &w in &words[..full] {
                self.write_bits(w, 64);
            }
            let tail = (bit_len % 64) as u32;
            if tail > 0 {
                self.write_bits(words[full] >> (64 - tail), tail);
            }
        }
    }
}

/// A positioned overwriting cursor (see [`Disk::writer_at`]).
#[derive(Debug)]
pub struct DiskWriterAt<'a> {
    disk: u32,
    extent: &'a mut Extent,
    ext: ExtentId,
    session: &'a IoSession,
    block_bits: u64,
    last_block: u64,
    pos: u64,
}

impl<'a> DiskWriterAt<'a> {
    #[inline]
    fn charge_word(&mut self, word_idx: u64) {
        let block = word_idx * 64 / self.block_bits;
        if block != self.last_block {
            self.session.charge(self.disk, self.ext, block, true);
            self.last_block = block;
        }
    }

    /// Current bit position.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// ORs the low `k ≤ 64` bits of `value` into the stream at the cursor.
    /// The target bits must currently be zero.
    #[inline]
    pub fn write_bits(&mut self, value: u64, k: u32) {
        debug_assert!(k <= 64);
        if k == 0 {
            return;
        }
        debug_assert!(k == 64 || value < (1u64 << k), "value wider than k bits");
        let pos = self.pos;
        let end_word = ((pos + u64::from(k) - 1) / 64) as usize;
        if end_word >= self.extent.words.len() {
            self.extent.words.resize(end_word + 1, 0);
        }
        let w = (pos / 64) as usize;
        let off = (pos % 64) as u32;
        self.charge_word(w as u64);
        let avail = 64 - off;
        if k <= avail {
            debug_assert_eq!(
                self.extent.words[w] & (value << (avail - k)),
                0,
                "overwriting non-zero bits"
            );
            self.extent.words[w] |= value << (avail - k);
        } else {
            self.charge_word(w as u64 + 1);
            self.extent.words[w] |= value >> (k - avail);
            self.extent.words[w + 1] |= value << (64 - (k - avail));
        }
        self.pos += u64::from(k);
        if self.pos > self.extent.bit_len {
            self.extent.bit_len = self.pos;
        }
        self.session.add_bits_written(u64::from(k));
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_disk() -> Disk {
        Disk::new(IoConfig::with_block_bits(128))
    }

    #[test]
    fn roundtrip_bits() {
        let mut disk = small_disk();
        let ext = disk.alloc();
        let s = IoSession::untracked();
        {
            let mut w = disk.writer(ext, &s);
            w.write_bits(0b1011, 4);
            w.write_bits(0xDEADBEEF, 32);
            w.write_bit(true);
            w.write_bits(u64::MAX, 64);
        }
        assert_eq!(disk.extent_bits(ext), 4 + 32 + 1 + 64);
        let s2 = IoSession::new();
        let mut r = disk.reader(ext, 0, &s2);
        assert_eq!(r.read_bits(4), 0b1011);
        assert_eq!(r.read_bits(32), 0xDEADBEEF);
        assert!(r.read_bit());
        assert_eq!(r.read_bits(64), u64::MAX);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn disks_with_equal_extent_ids_are_charged_apart() {
        // One operation over two disks: extent ids restart at 0 on each,
        // yet each disk's block is a block the operation touches.
        let (mut a, mut b) = (small_disk(), small_disk());
        let (ea, eb) = (a.alloc(), b.alloc());
        assert_eq!(ea, eb);
        let s = IoSession::new();
        a.charge_block(ea, 0, true, &s);
        b.charge_block(eb, 0, true, &s);
        a.charge_read_span(ea, 0, 1, &s).expect("resident span");
        b.charge_read_span(eb, 0, 1, &s).expect("resident span");
        let st = s.stats();
        assert_eq!((st.writes, st.reads), (2, 0), "each disk's block once");
    }

    #[test]
    fn reads_charge_distinct_blocks() {
        let mut disk = small_disk(); // 128-bit blocks = 2 words
        let ext = disk.alloc();
        let s = IoSession::untracked();
        {
            let mut w = disk.writer(ext, &s);
            for i in 0..8u64 {
                w.write_bits(i, 64); // 512 bits = 4 blocks
            }
        }
        assert_eq!(disk.extent_blocks(ext), 4);
        let s = IoSession::new();
        let mut r = disk.reader(ext, 0, &s);
        for _ in 0..8 {
            r.read_bits(64);
        }
        assert_eq!(s.stats().reads, 4);
        assert_eq!(s.stats().bits_read, 512);
    }

    #[test]
    fn partial_read_charges_only_touched_blocks() {
        let mut disk = small_disk();
        let ext = disk.alloc();
        let s = IoSession::untracked();
        disk.writer(ext, &s).write_zeros(512); // 4 blocks
        let s = IoSession::new();
        let mut r = disk.reader(ext, 0, &s);
        r.read_bits(10); // only block 0
        assert_eq!(s.stats().reads, 1);
    }

    #[test]
    fn skip_to_does_not_charge_skipped_blocks() {
        let mut disk = small_disk();
        let ext = disk.alloc();
        let s = IoSession::untracked();
        disk.writer(ext, &s).write_zeros(512);
        let s = IoSession::new();
        let mut r = disk.reader(ext, 0, &s);
        r.read_bit(); // block 0
        r.skip_to(300); // into block 2
        r.read_bit(); // block 2
        assert_eq!(s.stats().reads, 2);
    }

    #[test]
    fn straddling_read_charges_both_blocks() {
        let mut disk = small_disk();
        let ext = disk.alloc();
        let s = IoSession::untracked();
        disk.writer(ext, &s).write_zeros(256);
        let s = IoSession::new();
        let mut r = disk.reader(ext, 120, &s);
        r.read_bits(16); // bits 120..136 straddle the 128-bit boundary
        assert_eq!(s.stats().reads, 2);
    }

    #[test]
    fn read_words_matches_read_bits_and_its_charges() {
        let mut disk = small_disk();
        let ext = disk.alloc();
        {
            let s = IoSession::untracked();
            let mut w = disk.writer(ext, &s);
            for i in 0..40u64 {
                w.write_bits(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), 64);
            }
        }
        for (at, bits) in [
            (0u64, 40 * 64),
            (64, 7 * 64),
            (5, 20 * 64),
            (127, 30 * 64),
            (1000, 0),
            (0, 17),
            (3, 64 * 9 + 61),
            (60, 70),
            (2000, 560),
        ] {
            let (bulk_io, each_io) = (IoSession::new(), IoSession::new());
            let mut bulk = vec![7u64];
            disk.reader(ext, at, &bulk_io)
                .read_words(&mut bulk, bits)
                .unwrap();
            let mut r = disk.reader(ext, at, &each_io);
            let mut each: Vec<u64> = (0..bits / 64).map(|_| r.read_bits(64)).collect();
            let tail = (bits % 64) as u32;
            if tail > 0 {
                each.push(r.read_bits(tail) << (64 - tail));
            }
            assert_eq!(bulk[0], 7, "appends after what is there");
            assert_eq!(bulk[1..], each[..], "at {at}");
            assert_eq!(bulk_io.stats(), each_io.stats(), "at {at}");
        }
    }

    #[test]
    fn unary_decoding_across_words() {
        let mut disk = small_disk();
        let ext = disk.alloc();
        let s = IoSession::untracked();
        {
            let mut w = disk.writer(ext, &s);
            w.write_zeros(100);
            w.write_bit(true);
            w.write_bit(true);
            w.write_zeros(3);
            w.write_bit(true);
        }
        let s = IoSession::new();
        let mut r = disk.reader(ext, 0, &s);
        assert_eq!(r.read_unary(), 100);
        assert_eq!(r.read_unary(), 0);
        assert_eq!(r.read_unary(), 3);
        assert_eq!(r.pos(), 106);
    }

    #[test]
    fn peek_and_consume_charge_like_read_bits() {
        let mut disk = small_disk(); // 128-bit blocks
        let ext = disk.alloc();
        let s = IoSession::untracked();
        {
            let mut w = disk.writer(ext, &s);
            for i in 0..8u64 {
                w.write_bits(i | 1 << 60, 64);
            }
        }
        // Cursor path.
        let s_cursor = IoSession::new();
        let mut r = disk.reader(ext, 120, &s_cursor);
        let want = r.read_bits(16); // straddles blocks 0 and 1
                                    // Peek/consume path at the same offset.
        let s_fast = IoSession::new();
        let mut r = disk.reader(ext, 120, &s_fast);
        let (word, valid) = r.peek_word();
        assert_eq!(valid, 8, "peek stops at the word boundary");
        assert_eq!(s_fast.stats().reads, 0, "peeking must not charge");
        r.consume_bits(8);
        let (word2, _) = r.peek_word();
        assert_eq!((word >> 56) << 8 | word2 >> 56, want);
        r.consume_bits(8);
        assert_eq!(s_fast.stats().reads, s_cursor.stats().reads);
        assert_eq!(s_fast.stats().bits_read, s_cursor.stats().bits_read);
    }

    #[test]
    fn write_bulk_matches_write_bits_charges() {
        let words: Vec<u64> = (0..5).map(|i| i * 0x0101_0101_0101_0101).collect();
        let bit_len = 4 * 64 + 17;
        // Aligned bulk append vs bit-cursor append: same bits, same charges.
        let run = |bulk: bool, prefix: u32| {
            let mut disk = small_disk();
            let ext = disk.alloc();
            let setup = IoSession::untracked();
            if prefix > 0 {
                disk.writer(ext, &setup).write_bits(1, prefix);
            }
            let s = IoSession::new();
            let mut w = disk.writer(ext, &s);
            if bulk {
                w.write_bulk(&words, bit_len);
            } else {
                for &word in &words[..4] {
                    w.write_bits(word, 64);
                }
                w.write_bits(words[4] >> (64 - 17), 17);
            }
            let check = IoSession::untracked();
            let mut r = disk.reader(ext, u64::from(prefix), &check);
            for &word in &words[..4] {
                assert_eq!(r.read_bits(64), word);
            }
            assert_eq!(r.read_bits(17), words[4] >> (64 - 17));
            (s.stats().writes, s.stats().bits_written)
        };
        assert_eq!(run(true, 0), run(false, 0), "aligned");
        assert_eq!(run(true, 13), run(false, 13), "unaligned");
    }

    #[test]
    fn writer_charges_written_blocks() {
        let mut disk = small_disk();
        let ext = disk.alloc();
        let s = IoSession::new();
        disk.writer(ext, &s).write_zeros(200); // blocks 0 and 1
        assert_eq!(s.stats().writes, 2);
        assert_eq!(s.stats().bits_written, 200);
    }

    #[test]
    fn append_after_reopen_continues_at_end() {
        let mut disk = small_disk();
        let ext = disk.alloc();
        let s = IoSession::untracked();
        disk.writer(ext, &s).write_bits(0b101, 3);
        disk.writer(ext, &s).write_bits(0b01, 2);
        let s2 = IoSession::untracked();
        let mut r = disk.reader(ext, 0, &s2);
        assert_eq!(r.read_bits(5), 0b10101);
    }

    #[test]
    fn free_releases_space() {
        let mut disk = small_disk();
        let ext = disk.alloc();
        let s = IoSession::untracked();
        disk.writer(ext, &s).write_zeros(1000);
        assert!(disk.used_bits() >= 1000);
        disk.free(ext);
        assert_eq!(disk.used_bits(), 0);
        assert_eq!(disk.used_blocks(), 0);
    }

    #[test]
    fn truncate_clears_tail_bits() {
        let mut disk = small_disk();
        let ext = disk.alloc();
        let s = IoSession::untracked();
        disk.writer(ext, &s).write_bits(u64::MAX, 64);
        disk.truncate(ext, 3);
        assert_eq!(disk.extent_bits(ext), 3);
        // Appending after truncation must not see stale one-bits.
        disk.writer(ext, &s).write_bits(0, 5);
        let mut r = disk.reader(ext, 0, &s);
        assert_eq!(r.read_bits(8), 0b1110_0000);
    }

    #[test]
    fn used_blocks_counts_tail_fragmentation() {
        let mut disk = small_disk();
        let a = disk.alloc();
        let b = disk.alloc();
        let s = IoSession::untracked();
        disk.writer(a, &s).write_bits(1, 1);
        disk.writer(b, &s).write_bits(1, 1);
        // Two one-bit extents still occupy one block each.
        assert_eq!(disk.used_blocks(), 2);
        assert_eq!(disk.used_bits(), 2);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn reading_past_end_panics() {
        let mut disk = small_disk();
        let ext = disk.alloc();
        let s = IoSession::untracked();
        disk.writer(ext, &s).write_bits(0, 8);
        let mut r = disk.reader(ext, 0, &s);
        r.read_bits(9);
    }
}
