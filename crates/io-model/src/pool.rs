//! The pinning, **sharded** buffer pool between [`IoSession`] charging
//! and a real [`BlockStore`] backend.
//!
//! A pool caches up to `capacity` model blocks in fixed-size frames,
//! spread over `shards` independently locked shards keyed by a hash of
//! `(extent, block)`. A read **pins** the frame it copies from for the
//! length of the copy (the bulk lift, `DiskReader::read_words`, pins,
//! copies and unpins one block at a time), so concurrent reads — across
//! query threads — can never have a block evicted mid-copy. Eviction is
//! the classic clock (second-chance) sweep over the unpinned frames of
//! one shard.
//!
//! Concurrency model: each shard is a `Mutex` around its frame table, so
//! cold fetches on blocks that hash to different shards proceed fully in
//! parallel (the backend fetch happens while holding only that shard's
//! lock). A pinned frame's payload is handed out as an `Arc<[u64]>`
//! inside the [`PinnedBlock`] handle, so copying out of it touches **no
//! lock at all** — the pin count guarantees the frame is neither evicted
//! nor rewritten while the handle lives.
//!
//! Invariants (asserted in tests, documented in `DESIGN.md`):
//!
//! * a pinned frame is never evicted or reused — an all-pinned shard
//!   grows past its capacity share rather than evict, drawing on a
//!   **pool-wide** frame budget ([`BufferPool::hard_cap`]) beyond which
//!   pinning fails with the typed [`PoolError::Exhausted`] (the budget
//!   is global, so exhaustion reflects actual memory use, never which
//!   shard a block hashes to);
//! * every miss performs exactly one backend fetch; hits perform none —
//!   so on a cold pool large enough to hold an operation's working set,
//!   real fetches equal the operation's distinct-block charge (at any
//!   thread count: the first thread to want a block fetches it under the
//!   shard lock, every later one hits), and on a warm pool they are at
//!   most that charge;
//! * frame contents are immutable while resident: the pool fronts
//!   read-only opened stores (writers promote extents to RAM instead).
//!
//! [`IoSession`]: crate::IoSession

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::backend::BlockStore;
use crate::disk::ExtentId;
use crate::metrics::io_metrics;

/// Default number of shards (rounded down to the pool capacity when the
/// pool is smaller than this).
pub const DEFAULT_POOL_SHARDS: usize = 8;

/// Default hard-ceiling multiplier: a pool may grow to at most
/// `GROWTH_CEILING ×` its capacity when every frame is pinned.
pub const GROWTH_CEILING: usize = 4;

/// Minimum pinned-growth headroom (frames past capacity) granted by
/// [`BufferPool::new`] regardless of how small the pool is: every
/// concurrent lift holds one pinned block while it copies, and a tiny
/// pool must absorb that without tripping the ceiling (1024 frames of
/// 1 KiB blocks is 1 MiB — negligible next to the leak the ceiling
/// guards against).
pub const MIN_GROWTH_HEADROOM: usize = 1024;

/// Aggregate pool counters (see [`BufferPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Block requests served from a resident frame.
    pub hits: u64,
    /// Block requests that required a backend fetch.
    pub misses: u64,
    /// Frames evicted by the clock sweep.
    pub evictions: u64,
    /// Frames allocated past the capacity target because every frame of
    /// the shard was pinned (growth is bounded by the hard ceiling).
    pub grown: u64,
}

impl PoolStats {
    /// Component-wise sum (used to aggregate per-shard and per-volume
    /// counters).
    pub fn merged(&self, other: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            grown: self.grown + other.grown,
        }
    }
}

/// Typed failure of [`BufferPool::try_pin`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// Every frame of the target shard is pinned and the pool has
    /// already allocated its hard ceiling of frames globally: admitting
    /// one more pin would let pinned memory grow without bound.
    Exhausted {
        /// Shard that could not admit the block.
        shard: usize,
        /// Frames currently allocated across the whole pool.
        frames: usize,
        /// The pool-wide hard frame ceiling.
        hard_frames: usize,
    },
    /// The backend fetch for a missed block failed. The frame is left
    /// empty and evictable; [`crate::BlockStoreError::class`] on the
    /// source says whether retrying the same pin can succeed (transient
    /// OS flake), cannot (the file vanished after open), or found
    /// corruption (verified fetch caught a bad page trailer).
    Fetch {
        /// The backend's error, with its retry classification.
        source: crate::BlockStoreError,
    },
    /// The target shard's lock is poisoned: a thread panicked while
    /// mutating that shard's frame table, so its state cannot be
    /// trusted. Surfaced as a typed error so one crashed query degrades
    /// service instead of cascading panics through every later pin.
    Poisoned {
        /// Shard whose lock is poisoned.
        shard: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Exhausted {
                shard,
                frames,
                hard_frames,
            } => write!(
                f,
                "buffer pool exhausted: every frame of shard {shard} is pinned \
                 and the hard ceiling of {hard_frames} frames is reached \
                 ({frames} allocated)"
            ),
            PoolError::Fetch { source } => write!(f, "block fetch failed after open: {source}"),
            PoolError::Poisoned { shard } => write!(
                f,
                "buffer pool shard {shard} is poisoned (a thread panicked \
                 while updating its frame table)"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

/// A pinned block: the frame's payload plus enough addressing to release
/// the pin. Reading through [`Self::words`] touches no lock — the pin
/// keeps the frame resident and its contents immutable.
///
/// Obtain via [`BufferPool::pin`]/[`BufferPool::try_pin`]; release via
/// [`BufferPool::unpin`]. A handle that is dropped without `unpin` leaks
/// its pin (the frame stays unevictable), so owners unpin it as soon as
/// they have copied what they need, as `DiskReader::read_words` does.
#[derive(Debug)]
pub struct PinnedBlock {
    shard: u32,
    frame: u32,
    data: Arc<[u64]>,
}

impl PinnedBlock {
    /// The pinned frame's words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.data
    }
}

#[derive(Debug)]
struct Frame {
    key: (ExtentId, u64),
    data: Arc<[u64]>,
    pins: u32,
    referenced: bool,
}

/// Sentinel key for an unkeyed (reusable) frame.
const NO_KEY: (ExtentId, u64) = (ExtentId(u32::MAX), u64::MAX);

#[derive(Debug, Default)]
struct Shard {
    frames: Vec<Frame>,
    map: HashMap<(ExtentId, u64), u32>,
    hand: usize,
    stats: PoolStats,
}

/// A clock-eviction, pin-counting, sharded block cache over a
/// [`BlockStore`].
pub struct BufferPool {
    store: Arc<dyn BlockStore>,
    capacity: usize,
    hard_cap: usize,
    block_words: usize,
    shards: Box<[Mutex<Shard>]>,
    /// Capacity target per shard (`ceil(capacity / shards)`).
    cap_per_shard: usize,
    /// Frames allocated across all shards — the global count the hard
    /// ceiling is enforced against. Grows on allocation; shrinks when
    /// `unpin` releases trailing over-target frames back to the budget.
    frames_total: AtomicUsize,
    /// When set, misses fetch via [`BlockStore::read_block_verified`]
    /// so each faulted-in page passes its integrity trailer. Warm hits
    /// never re-verify — they never reach the backend at all.
    verify: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("backend", &self.store.kind())
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("resident", &self.resident())
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool of at most `capacity` blocks (frames of
    /// `block_bits / 64` words each) over `store`, sharded
    /// [`DEFAULT_POOL_SHARDS`] ways (fewer for tiny pools) with a hard
    /// growth ceiling of max([`GROWTH_CEILING`]` × capacity`,
    /// `capacity + `[`MIN_GROWTH_HEADROOM`]) frames — the headroom floor
    /// keeps legitimate transient pinning (one pinned cursor per stream
    /// of a wide k-way merge) working on tiny pools; the ceiling exists
    /// to stop unbounded pin leaks, not to constrain real queries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or `block_bits` is not a positive
    /// multiple of 64.
    pub fn new(store: Arc<dyn BlockStore>, capacity: usize, block_bits: u64) -> Self {
        // Largest power of two ≤ min(DEFAULT_POOL_SHARDS, capacity), so a
        // tiny pool is not split into shards with zero capacity share.
        let want = DEFAULT_POOL_SHARDS.min(capacity.max(1));
        let shards = 1usize << (usize::BITS - 1 - want.leading_zeros());
        Self::with_shards(
            store,
            capacity,
            capacity
                .saturating_mul(GROWTH_CEILING)
                .max(capacity.saturating_add(MIN_GROWTH_HEADROOM)),
            shards,
            block_bits,
        )
    }

    /// [`Self::new`] with explicit shard count (a power of two) and hard
    /// frame ceiling (`≥ capacity`). A single shard gives the exact
    /// global clock order of the pre-sharded pool — tests use it for
    /// deterministic eviction sequences.
    ///
    /// The capacity target is split per shard (`ceil(capacity /
    /// shards)` each, so [`Self::capacity`] reports the rounded-up
    /// steady-state total); the hard ceiling is enforced **globally**
    /// via an atomic frame count, so exhaustion depends on actual
    /// memory use, never on which shard a block hashes to.
    ///
    /// # Panics
    /// Panics if `capacity` is zero, `shards` is not a power of two,
    /// `hard_cap < capacity`, or `block_bits` is not a positive multiple
    /// of 64.
    pub fn with_shards(
        store: Arc<dyn BlockStore>,
        capacity: usize,
        hard_cap: usize,
        shards: usize,
        block_bits: u64,
    ) -> Self {
        assert!(capacity > 0, "pool needs at least one frame");
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two"
        );
        assert!(hard_cap >= capacity, "hard ceiling below capacity");
        assert!(
            block_bits > 0 && block_bits.is_multiple_of(64),
            "block_bits must be a positive multiple of 64"
        );
        let cap_per_shard = capacity.div_ceil(shards);
        BufferPool {
            store,
            capacity: cap_per_shard * shards,
            // The rounded capacity is reachable by per-shard growth, so
            // the global ceiling can never sit below it.
            hard_cap: hard_cap.max(cap_per_shard * shards),
            block_words: (block_bits / 64) as usize,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            cap_per_shard,
            frames_total: AtomicUsize::new(0),
            verify: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Turns verified fetches on or off: with `on`, every miss fetches
    /// through [`BlockStore::read_block_verified`], so pages are
    /// integrity-checked exactly once — on fault-in, never on warm hits.
    pub fn set_verify(&self, on: bool) {
        self.verify.store(on, Ordering::Relaxed);
    }

    /// Whether misses use verified fetches.
    pub fn verify(&self) -> bool {
        self.verify.load(Ordering::Relaxed)
    }

    /// The backend this pool fetches from.
    pub fn store(&self) -> &Arc<dyn BlockStore> {
        &self.store
    }

    /// Target number of frames (the requested capacity rounded up to a
    /// per-shard multiple — the steady-state total the clock sweeps
    /// keep the pool at).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hard frame ceiling: the pool never allocates more than this many
    /// frames in total, and refuses pins that would require it.
    pub fn hard_cap(&self) -> usize {
        self.hard_cap
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of currently allocated frames across all shards.
    ///
    /// Diagnostics stay available on a poisoned shard (its counters are
    /// plain data — the panic cannot have left them torn mid-word).
    pub fn resident(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).frames.len())
            .sum()
    }

    /// Hit/miss/eviction/growth counters, summed over shards (poison
    /// tolerant, like [`Self::resident`]).
    pub fn stats(&self) -> PoolStats {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).stats)
            .fold(PoolStats::default(), |acc, s| acc.merged(&s))
    }

    /// Real fetches performed by the backend on this pool's behalf.
    pub fn fetches(&self) -> u64 {
        self.store.fetches()
    }

    #[inline]
    fn shard_of(&self, ext: ExtentId, block: u64) -> usize {
        // Fibonacci multiplicative hash over the block address; the high
        // bits select the shard (the low bits of `block` alone would put
        // every extent's block 0 in one shard).
        let h = ((u64::from(ext.0) << 40) ^ block).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 48) as usize & (self.shards.len() - 1)
    }

    /// Pins block `block` of extent `ext`, fetching it on miss. The
    /// returned handle reads without locking and keeps the frame
    /// unevictable until [`Self::unpin`].
    ///
    /// # Panics
    /// Panics with the [`PoolError`] message when every frame of the
    /// target shard is pinned and the pool-wide frame budget is spent
    /// (cursor paths cannot propagate errors; use [`Self::try_pin`] to
    /// handle it).
    pub fn pin(&self, ext: ExtentId, block: u64) -> PinnedBlock {
        self.try_pin(ext, block)
            .unwrap_or_else(|e| panic!("pin({}, {block}): {e}", ext.0))
    }

    /// Fallible [`Self::pin`].
    pub fn try_pin(&self, ext: ExtentId, block: u64) -> Result<PinnedBlock, PoolError> {
        let key = (ext, block);
        let si = self.shard_of(ext, block);
        // A poisoned shard (a thread panicked mid-mutation) surfaces as
        // a typed error: its frame table may be inconsistent, and a
        // cascade of panics from every later query helps nobody.
        let mut shard = self.shards[si]
            .lock()
            .map_err(|_| PoolError::Poisoned { shard: si })?;
        if let Some(&idx) = shard.map.get(&key) {
            let f = &mut shard.frames[idx as usize];
            f.pins += 1;
            f.referenced = true;
            let data = Arc::clone(&f.data);
            shard.stats.hits += 1;
            io_metrics().pool_hits.inc();
            return Ok(PinnedBlock {
                shard: si as u32,
                frame: idx,
                data,
            });
        }
        let idx = self.acquire_frame(si, &mut shard)?;
        // The fetch happens under this shard's lock only: a racing thread
        // wanting the same block waits and then hits; threads on other
        // shards are unaffected. An evicted victim's buffer is refilled
        // in place when no stale handle still holds a clone of it.
        let f = &mut shard.frames[idx as usize];
        let mut data = std::mem::replace(&mut f.data, Arc::from(Vec::new()));
        match Arc::get_mut(&mut data) {
            Some(buf) if buf.len() == self.block_words => {}
            _ => data = vec![0u64; self.block_words].into(),
        }
        let buf = Arc::get_mut(&mut data).expect("uniquely owned buffer");
        let fetch_start = std::time::Instant::now();
        let fetched = if self.verify() {
            self.store.read_block_verified(ext, block, buf)
        } else {
            self.store.read_block(ext, block, buf)
        };
        if let Err(e) = fetched {
            if e.class == crate::ErrorClass::Corrupt {
                io_metrics().pool_verify_failures.inc();
            }
            // The file was validated at open; a failing fetch afterwards
            // means it changed or rotted underneath us — or the OS flaked.
            // Leave the frame empty and evictable; the caller classifies
            // the error (retry transient, surface permanent).
            let f = &mut shard.frames[idx as usize];
            f.key = NO_KEY;
            f.data = Arc::from(Vec::new());
            f.pins = 0;
            f.referenced = false;
            return Err(PoolError::Fetch { source: e });
        }
        // Counted only after the fetch succeeds: a rejected or failed pin
        // is not a miss, keeping `misses == fetches` exact across both
        // exhaustion and fetch-failure events.
        shard.stats.misses += 1;
        let m = io_metrics();
        m.pool_misses.inc();
        m.pool_fetch_ns.record_since(fetch_start);
        let f = &mut shard.frames[idx as usize];
        f.key = key;
        f.data = Arc::clone(&data);
        f.pins = 1;
        f.referenced = true;
        shard.map.insert(key, idx);
        Ok(PinnedBlock {
            shard: si as u32,
            frame: idx,
            data,
        })
    }

    /// Releases the pin held by `block`, making its frame evictable once
    /// no other pins remain. Trailing unpinned frames beyond the shard's
    /// capacity share are released back to the pool-wide budget — a
    /// still-pinned frame above them retains them (as usable cache)
    /// until it releases, so over-target budget is held only while some
    /// pin of the spike that grew the shard is live; once the spike's
    /// pins drain, the shard is back at its capacity share and the
    /// budget fully returned. Pins are scoped to cursors (released on
    /// `DiskReader` drop), so a spike can never *permanently* starve
    /// other shards.
    pub fn unpin(&self, block: PinnedBlock) {
        // Poison tolerant: unpin runs from reader drops, often *during*
        // an unwind — panicking here would escalate to an abort. The pin
        // decrement is safe on a poisoned shard (plain counter).
        let mut shard = self.shards[block.shard as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let f = &mut shard.frames[block.frame as usize];
        debug_assert!(f.pins > 0, "unpin of unpinned frame");
        f.pins -= 1;
        while shard.frames.len() > self.cap_per_shard
            && shard.frames.last().expect("non-empty").pins == 0
        {
            let victim = shard.frames.pop().expect("non-empty");
            shard.map.remove(&victim.key);
            self.frames_total.fetch_sub(1, Ordering::Relaxed);
            if shard.hand >= shard.frames.len() {
                shard.hand = 0;
            }
        }
    }

    /// Ensures block `block` of `ext` is resident (fetching on miss)
    /// without holding a pin — used when a *charge* must drive a fetch
    /// even though no payload word is read (directory-record charges).
    ///
    /// # Panics
    /// Panics like [`Self::pin`] on failure.
    pub fn touch(&self, ext: ExtentId, block: u64) {
        let pinned = self.pin(ext, block);
        self.unpin(pinned);
    }

    /// Drops any frames belonging to `ext` (called when the owning disk
    /// promotes the extent to a resident RAM image, making pooled copies
    /// stale).
    ///
    /// # Panics
    /// Panics if one of those frames is still pinned by a live reader.
    pub fn forget_extent(&self, ext: ExtentId) {
        for shard in self.shards.iter() {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            let stale: Vec<(ExtentId, u64)> = shard
                .map
                .keys()
                .filter(|(e, _)| *e == ext)
                .copied()
                .collect();
            for key in stale {
                let idx = shard.map.remove(&key).expect("key just listed");
                let f = &mut shard.frames[idx as usize];
                assert!(f.pins == 0, "promoting an extent with pinned blocks");
                // Leave the frame allocated but unkeyed so the clock
                // reuses it; drop the payload now.
                f.key = NO_KEY;
                f.data = Arc::from(Vec::new());
                f.referenced = false;
            }
        }
    }

    /// Finds a free frame slot in shard `si`: grows up to the shard's
    /// capacity share, then clock-evicts an unpinned frame, then (all
    /// pinned) grows toward the hard ceiling, then fails.
    fn acquire_frame(
        &self,
        si: usize,
        shard: &mut MutexGuard<'_, Shard>,
    ) -> Result<u32, PoolError> {
        let fresh = || Frame {
            key: NO_KEY,
            data: Arc::from(Vec::new()),
            pins: 0,
            referenced: false,
        };
        // Grow toward this shard's capacity share (budget permitting —
        // pinned growth elsewhere may already have spent it).
        if shard.frames.len() < self.cap_per_shard && self.try_reserve_frame() {
            shard.frames.push(fresh());
            return Ok((shard.frames.len() - 1) as u32);
        }
        // Clock sweep: two full revolutions guarantee a victim unless
        // every frame is pinned.
        for _ in 0..2 * shard.frames.len() {
            let idx = shard.hand;
            shard.hand = (shard.hand + 1) % shard.frames.len();
            let f = &mut shard.frames[idx];
            if f.pins > 0 {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            let key = f.key;
            if shard.map.remove(&key).is_some() {
                shard.stats.evictions += 1;
                io_metrics().pool_evictions.inc();
            }
            // The victim's buffer stays in the frame: the caller refills
            // it in place (no per-miss allocation) unless a stale handle
            // still holds a clone.
            return Ok(idx as u32);
        }
        // Every frame pinned: grow past the target rather than evict a
        // pinned frame (the invariant readers rely on) — but only while
        // the *global* frame budget lasts, so exhaustion reflects actual
        // memory use, never which shard the block hashed to.
        if self.try_reserve_frame() {
            shard.stats.grown += 1;
            io_metrics().pool_grown.inc();
            shard.frames.push(fresh());
            return Ok((shard.frames.len() - 1) as u32);
        }
        Err(PoolError::Exhausted {
            shard: si,
            frames: self.frames_total.load(Ordering::Relaxed),
            hard_frames: self.hard_cap,
        })
    }

    /// Claims one frame from the pool-wide budget; `false` when the
    /// hard ceiling is reached. `unpin` returns over-target frames to
    /// the budget as their pins release.
    fn try_reserve_frame(&self) -> bool {
        let mut total = self.frames_total.load(Ordering::Relaxed);
        loop {
            if total >= self.hard_cap {
                return false;
            }
            match self.frames_total.compare_exchange_weak(
                total,
                total + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => total = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStore;
    use crate::{Disk, IoConfig, IoSession};

    fn store_with_blocks(blocks: u64) -> Arc<dyn BlockStore> {
        let mut disk = Disk::new(IoConfig::with_block_bits(128));
        let ext = disk.alloc();
        let io = IoSession::untracked();
        let mut w = disk.writer(ext, &io);
        for i in 0..blocks * 2 {
            w.write_bits(i + 1, 64);
        }
        Arc::new(MemStore::from_disk(&disk))
    }

    /// A single-shard pool: deterministic global clock order.
    fn pool1(blocks: u64, capacity: usize) -> BufferPool {
        BufferPool::with_shards(store_with_blocks(blocks), capacity, 4 * capacity, 1, 128)
    }

    const EXT: ExtentId = ExtentId(0);

    #[test]
    fn hits_do_not_refetch() {
        let pool = pool1(4, 4);
        let a = pool.pin(EXT, 0);
        pool.unpin(a);
        let b = pool.pin(EXT, 0);
        assert_eq!(b.words()[0], 1);
        pool.unpin(b);
        assert_eq!(pool.fetches(), 1);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn failed_fetch_is_typed_and_frame_is_reusable() {
        // Fetch 0 fails permanently, fetch 1 (the retry) succeeds: the
        // error is typed (not a panic), carries the backend's class, and
        // the frame it briefly held is reusable afterwards.
        let mut disk = Disk::new(IoConfig::with_block_bits(128));
        let ext = disk.alloc();
        let io = IoSession::untracked();
        disk.writer(ext, &io).write_bits(7, 64);
        let faulty =
            crate::FaultyStore::new(MemStore::from_disk(&disk), [(0, crate::Fault::Permanent)]);
        let pool = BufferPool::with_shards(Arc::new(faulty), 4, 16, 1, 128);
        let err = pool.try_pin(EXT, 0).expect_err("injected fault");
        match &err {
            PoolError::Fetch { source } => {
                assert_eq!(source.class, crate::ErrorClass::Permanent);
            }
            other => panic!("expected Fetch, got {other}"),
        }
        // A failed pin is not a miss and leaves no pinned frame behind.
        assert_eq!(pool.stats().misses, 0);
        // The schedule is spent: the same pin now succeeds.
        let b = pool.try_pin(EXT, 0).expect("fault schedule spent");
        assert_eq!(b.words()[0], 7);
        pool.unpin(b);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn clock_evicts_unpinned_in_order() {
        let pool = pool1(8, 2);
        for blk in 0..4 {
            let f = pool.pin(EXT, blk);
            pool.unpin(f);
        }
        // Capacity 2: blocks 2 and 3 resident, 0 and 1 evicted.
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.stats().evictions, 2);
        let f = pool.pin(EXT, 0); // re-fetch
        pool.unpin(f);
        assert_eq!(pool.fetches(), 5);
    }

    #[test]
    fn pinned_frames_survive_pressure() {
        let pool = pool1(8, 2);
        let pinned = pool.pin(EXT, 0);
        for blk in 1..6 {
            let f = pool.pin(EXT, blk);
            pool.unpin(f);
        }
        // The pinned frame still holds block 0's data.
        assert_eq!(pinned.words()[0], 1);
        let again = pool.pin(EXT, 0);
        assert_eq!(again.words()[0], 1, "pinned block must hit its own frame");
        assert_eq!(
            pool.fetches(),
            6,
            "block 0 fetched once despite eviction pressure"
        );
        pool.unpin(again);
        pool.unpin(pinned);
    }

    #[test]
    fn all_pinned_grows_past_capacity_and_counts_it() {
        let pool = pool1(8, 2);
        let f0 = pool.pin(EXT, 0);
        let f1 = pool.pin(EXT, 1);
        let f2 = pool.pin(EXT, 2); // both frames pinned: pool must grow
        assert_eq!(pool.resident(), 3);
        assert!(pool.resident() > pool.capacity());
        assert_eq!(pool.stats().grown, 1);
        for f in [f0, f1, f2] {
            pool.unpin(f);
        }
    }

    #[test]
    fn hard_ceiling_is_global_not_per_shard() {
        // 4 shards, capacity 4, ceiling 8: eight pinned blocks must be
        // admitted *wherever they hash* — the budget is pool-wide — and
        // the ninth must fail typed, deterministically.
        let pool = BufferPool::with_shards(store_with_blocks(16), 4, 8, 4, 128);
        let held: Vec<PinnedBlock> = (0..8).map(|b| pool.pin(EXT, b)).collect();
        assert_eq!(pool.resident(), 8);
        let err = pool.try_pin(EXT, 8).expect_err("global ceiling");
        match err {
            PoolError::Exhausted {
                frames,
                hard_frames,
                ..
            } => {
                assert_eq!((frames, hard_frames), (8, 8));
            }
            other => panic!("expected Exhausted, got {other}"),
        }
        for f in held {
            pool.unpin(f);
        }
        // With pins released the same request succeeds by eviction.
        let f = pool.try_pin(EXT, 8).expect("evictable");
        pool.unpin(f);
        assert!(pool.resident() <= pool.hard_cap());
    }

    #[test]
    fn hard_ceiling_fails_typed_when_all_pinned() {
        let pool = BufferPool::with_shards(store_with_blocks(8), 2, 3, 1, 128);
        let held: Vec<PinnedBlock> = (0..3).map(|b| pool.pin(EXT, b)).collect();
        assert_eq!(pool.resident(), 3);
        let err = pool.try_pin(EXT, 3).expect_err("ceiling must refuse");
        assert_eq!(
            err,
            PoolError::Exhausted {
                shard: 0,
                frames: 3,
                hard_frames: 3
            }
        );
        assert!(err.to_string().contains("hard ceiling"));
        // A rejected pin is not a miss: no fetch happened for it.
        assert_eq!(pool.stats().misses, pool.fetches());
        // Releasing a pin pops the over-target frame, returning its
        // budget — the same request then succeeds by regrowth.
        let mut held = held;
        pool.unpin(held.pop().expect("held pin"));
        assert_eq!(pool.resident(), 2, "over-target frame released");
        let f = pool.try_pin(EXT, 3).expect("budget returned");
        pool.unpin(f);
        for f in held {
            pool.unpin(f);
        }
    }

    #[test]
    fn released_budget_cannot_starve_other_shards() {
        // Spend the whole budget growing whichever shards the first
        // eight blocks hash to, release every pin, then touch *every*
        // block of a larger range: each shard — including any that held
        // zero frames during the spike — must be servable again because
        // unpin returned the over-target frames to the global budget.
        let pool = BufferPool::with_shards(store_with_blocks(64), 4, 8, 4, 128);
        let held: Vec<PinnedBlock> = (0..8).map(|b| pool.pin(EXT, b)).collect();
        for f in held {
            pool.unpin(f);
        }
        assert!(pool.resident() <= pool.capacity());
        for blk in 0..64 {
            let f = pool.try_pin(EXT, blk).expect("no shard is starved");
            pool.unpin(f);
        }
    }

    #[test]
    fn touch_fetches_without_leaving_a_pin() {
        let pool = pool1(4, 2);
        pool.touch(EXT, 1);
        assert_eq!(pool.fetches(), 1);
        pool.touch(EXT, 1);
        assert_eq!(pool.fetches(), 1, "second touch hits");
        // No pins left: the frame is evictable.
        pool.touch(EXT, 2);
        pool.touch(EXT, 3);
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn forget_extent_drops_frames() {
        let pool = pool1(4, 4);
        pool.touch(EXT, 0);
        pool.touch(EXT, 1);
        pool.forget_extent(EXT);
        // Both frames are reusable; repinning refetches.
        pool.touch(EXT, 0);
        assert_eq!(pool.fetches(), 3);
    }

    #[test]
    fn shards_spread_blocks_and_isolate_eviction() {
        let pool = BufferPool::with_shards(store_with_blocks(64), 16, 64, 4, 128);
        for blk in 0..32 {
            pool.touch(EXT, blk);
        }
        assert_eq!(pool.num_shards(), 4);
        assert_eq!(pool.stats().misses, 32);
        // Each shard holds at most its share.
        assert!(pool.resident() <= 16);
        // Re-touching everything refetches only what was evicted.
        let before = pool.fetches();
        for blk in 0..32 {
            pool.touch(EXT, blk);
        }
        assert!(pool.fetches() > before, "capacity 16 < 32 working set");
        assert!(pool.fetches() <= before + 32);
    }

    #[test]
    fn poisoned_shard_is_a_typed_error_not_a_cascade_panic() {
        let pool = pool1(4, 4);
        let held = pool.pin(EXT, 0);
        // Poison the single shard: panic while holding its lock.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = pool.shards[0].lock().unwrap();
            panic!("simulated crash while mutating the shard");
        }));
        assert!(poison.is_err());
        // Pins fail typed, not by panicking.
        assert_eq!(
            pool.try_pin(EXT, 1).expect_err("poisoned shard"),
            PoolError::Poisoned { shard: 0 }
        );
        // Diagnostics and unpin still work (unpin often runs mid-unwind).
        assert_eq!(pool.resident(), 1);
        assert_eq!(pool.stats().misses, 1);
        pool.unpin(held);
    }

    #[test]
    fn verify_mode_uses_verified_fetches_on_miss_only() {
        // A store whose verified path always reports corruption: with
        // verify off the pin succeeds; with verify on the *miss* fails
        // Corrupt, while an already-warm block keeps hitting.
        #[derive(Debug)]
        struct AlwaysCorrupt(MemStore);
        impl BlockStore for AlwaysCorrupt {
            fn read_block(
                &self,
                ext: ExtentId,
                block: u64,
                out: &mut [u64],
            ) -> Result<(), crate::BlockStoreError> {
                self.0.read_block(ext, block, out)
            }
            fn read_block_verified(
                &self,
                _ext: ExtentId,
                _block: u64,
                _out: &mut [u64],
            ) -> Result<(), crate::BlockStoreError> {
                Err(crate::BlockStoreError::corrupt("trailer mismatch"))
            }
            fn fetches(&self) -> u64 {
                self.0.fetches()
            }
            fn kind(&self) -> &'static str {
                "always-corrupt"
            }
        }
        let mut disk = Disk::new(IoConfig::with_block_bits(128));
        let ext = disk.alloc();
        let io = IoSession::untracked();
        disk.writer(ext, &io).write_bits(9, 64);
        let store = Arc::new(AlwaysCorrupt(MemStore::from_disk(&disk)));
        let pool = BufferPool::with_shards(store, 4, 16, 1, 128);

        // Unverified miss: block 0 faults in fine.
        let warm = pool.pin(EXT, 0);
        pool.set_verify(true);
        // Warm hit under verify: served from the frame, no verification,
        // no fetch.
        let again = pool.pin(EXT, 0);
        assert_eq!(again.words()[0], 9);
        pool.unpin(again);
        assert_eq!(pool.fetches(), 1);
        // Cold miss under verify: the corrupt trailer surfaces typed.
        match pool.try_pin(EXT, 1) {
            Err(PoolError::Fetch { source }) => {
                assert_eq!(source.class, crate::ErrorClass::Corrupt);
            }
            other => panic!("expected corrupt fetch, got {other:?}"),
        }
        pool.unpin(warm);
    }

    #[test]
    fn default_shard_count_scales_down_for_tiny_pools() {
        assert_eq!(
            BufferPool::new(store_with_blocks(4), 1, 128).num_shards(),
            1
        );
        assert_eq!(
            BufferPool::new(store_with_blocks(4), 3, 128).num_shards(),
            2
        );
        assert_eq!(
            BufferPool::new(store_with_blocks(4), 1024, 128).num_shards(),
            DEFAULT_POOL_SHARDS
        );
    }
}
