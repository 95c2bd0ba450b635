//! I/O accounting sessions.

use std::cell::RefCell;
use std::collections::HashSet;

use crate::disk::ExtentId;

/// Aggregate I/O counters produced by an [`IoSession`].
///
/// `reads`/`writes` count **block** I/Os (the paper's cost measure);
/// `bits_read`/`bits_written` record the useful payload, which the
/// experiment harnesses use to compare against output-size lower bounds
/// such as `z lg(n/z)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Distinct blocks read during the session.
    pub reads: u64,
    /// Distinct blocks written during the session.
    pub writes: u64,
    /// Total bits consumed by readers.
    pub bits_read: u64,
    /// Total bits produced by writers.
    pub bits_written: u64,
}

impl IoStats {
    /// Total block I/Os (reads + writes).
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Component-wise sum of two stat records.
    pub fn merged(&self, other: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            bits_read: self.bits_read + other.bits_read,
            bits_written: self.bits_written + other.bits_written,
        }
    }
}

/// A block address: the charge space of its disk (distinct for every
/// disk), the extent, and the block index within the extent.
type BlockAddr = (u32, ExtentId, u64);

#[derive(Debug, Default)]
struct SessionInner {
    stats: IoStats,
    /// Blocks currently "in memory": charged once, not re-charged.
    resident: HashSet<BlockAddr>,
    tracking: bool,
}

/// An I/O accounting scope for one logical operation.
///
/// A session counts *distinct* blocks read and written, modelling the
/// paper's internal memory `M`: once a block has been fetched it stays
/// resident for the remainder of the operation.
///
/// Sessions use interior mutability so that several [`DiskReader`]s can
/// charge the same session concurrently during k-way merges.
///
/// # Concurrency model
///
/// A session is **per-query state**: the thread that runs a query
/// creates one next to the shared `Arc<Disk>`, drives the whole query
/// under it, and reads the stats — sessions are deliberately never
/// shared *between* threads, which is why the hot counters can stay
/// plain `RefCell` instead of atomics (the per-decoded-code
/// `add_bits_read` call is too hot to pay an atomic RMW on). The type
/// is `Send` (move it to the thread that runs the query) but not
/// `Sync`; everything that *is* shared between query threads — the
/// `Disk`, the sharded `BufferPool`, the backends — is `Sync`, enforced
/// by compile-time asserts in this crate's root.
///
/// [`DiskReader`]: crate::DiskReader
#[derive(Debug)]
pub struct IoSession {
    inner: RefCell<SessionInner>,
}

impl Default for IoSession {
    fn default() -> Self {
        Self::new()
    }
}

impl IoSession {
    /// A tracking session.
    pub fn new() -> Self {
        IoSession {
            inner: RefCell::new(SessionInner {
                tracking: true,
                ..Default::default()
            }),
        }
    }

    /// A session that performs no accounting. Used for bulk builds, whose
    /// cost the experiments report separately (or not at all, for static
    /// structures).
    pub fn untracked() -> Self {
        IoSession {
            inner: RefCell::new(SessionInner {
                tracking: false,
                ..Default::default()
            }),
        }
    }

    fn touch(&self, addr: BlockAddr, write: bool) {
        let mut inner = self.inner.borrow_mut();
        if !inner.tracking {
            return;
        }
        if inner.resident.contains(&addr) {
            return;
        }
        if write {
            inner.stats.writes += 1;
        } else {
            inner.stats.reads += 1;
        }
        inner.resident.insert(addr);
    }

    /// Charges a block write (`write`) or read of a disk in charge space
    /// `space`. Idempotent while the block remains resident.
    pub(crate) fn charge(&self, space: u32, extent: ExtentId, block: u64, write: bool) {
        self.touch((space, extent, block), write);
    }

    /// Records `bits` of useful payload consumed by a reader.
    pub fn add_bits_read(&self, bits: u64) {
        let mut inner = self.inner.borrow_mut();
        if inner.tracking {
            inner.stats.bits_read += bits;
        }
    }

    /// Records `bits` of useful payload produced by a writer.
    pub fn add_bits_written(&self, bits: u64) {
        let mut inner = self.inner.borrow_mut();
        if inner.tracking {
            inner.stats.bits_written += bits;
        }
    }

    /// Snapshot of the counters so far.
    pub fn stats(&self) -> IoStats {
        self.inner.borrow().stats
    }

    /// Resets counters **and** residency, starting a fresh operation scope.
    pub fn reset(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.stats = IoStats::default();
        inner.resident.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(s: &IoSession, ext: ExtentId, block: u64) {
        s.charge(0, ext, block, false);
    }

    fn write(s: &IoSession, ext: ExtentId, block: u64) {
        s.charge(0, ext, block, true);
    }

    const EXT: ExtentId = ExtentId(7);
    const EXT2: ExtentId = ExtentId(9);

    #[test]
    fn distinct_blocks_counted_once() {
        let s = IoSession::new();
        read(&s, EXT, 0);
        read(&s, EXT, 0);
        read(&s, EXT, 1);
        read(&s, EXT2, 0); // same index, different extent
        assert_eq!(s.stats().reads, 3);
    }

    #[test]
    fn reads_and_writes_tracked_separately() {
        let s = IoSession::new();
        read(&s, EXT, 0);
        write(&s, EXT, 1);
        let st = s.stats();
        assert_eq!((st.reads, st.writes), (1, 1));
        assert_eq!(st.total(), 2);
    }

    #[test]
    fn block_written_then_read_counts_once() {
        // A block that is written stays resident, so reading it back within
        // the same operation is free (it is in internal memory).
        let s = IoSession::new();
        write(&s, EXT, 0);
        read(&s, EXT, 0);
        let st = s.stats();
        assert_eq!((st.reads, st.writes), (0, 1));
    }

    #[test]
    fn untracked_session_counts_nothing() {
        let s = IoSession::untracked();
        read(&s, EXT, 0);
        write(&s, EXT, 1);
        s.add_bits_read(100);
        assert_eq!(s.stats(), IoStats::default());
    }

    #[test]
    fn reset_clears_residency() {
        let s = IoSession::new();
        read(&s, EXT, 0);
        assert_eq!(s.stats().reads, 1);
        s.reset();
        read(&s, EXT, 0); // no longer resident after reset
        assert_eq!(s.stats().reads, 1);
    }

    #[test]
    fn sessions_move_to_the_thread_that_runs_the_query() {
        // Per-query sessions are `Send`: created wherever, driven by the
        // worker thread that owns the query.
        let s = IoSession::new();
        let s = std::thread::spawn(move || {
            read(&s, EXT, 0);
            s.add_bits_read(64);
            s
        })
        .join()
        .expect("worker");
        assert_eq!(s.stats().reads, 1);
        assert_eq!(s.stats().bits_read, 64);
    }

    #[test]
    fn merged_stats_add_componentwise() {
        let a = IoStats {
            reads: 1,
            writes: 2,
            bits_read: 3,
            bits_written: 4,
        };
        let b = IoStats {
            reads: 10,
            writes: 20,
            bits_read: 30,
            bits_written: 40,
        };
        let m = a.merged(&b);
        assert_eq!(
            m,
            IoStats {
                reads: 11,
                writes: 22,
                bits_read: 33,
                bits_written: 44,
            }
        );
    }
}
