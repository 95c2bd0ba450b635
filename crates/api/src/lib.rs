//! Common interface of all secondary indexes in the `psi` workspace.
//!
//! The paper's problem (§1.1): given `x = x₁x₂…xₙ ∈ Σⁿ`, answer alphabet
//! range queries `I[al;ar](x) = { i | xᵢ ∈ [al; ar] }`, returning the set
//! *in compressed format* using `O(lg C(n, z))` bits. Every index — the
//! paper's structures in `psi-core` and the baselines in `psi-baselines` —
//! implements [`SecondaryIndex`] against the simulated I/O model, so the
//! experiment harnesses can sweep implementations uniformly.

#![warn(missing_docs)]

use psi_bits::GapBitmap;
use psi_io::{Disk, IoSession, IoStats};

mod rid;

pub use psi_io::ReadError;
pub use rid::RidSet;

/// Symbols are dense character codes in `[0, σ)`; the paper's ordered
/// alphabet `Σ = {a₁ < a₂ < … < a_σ}` maps to `0 < 1 < … < σ−1`.
pub type Symbol = u32;

/// A static secondary index over a string `x ∈ Σⁿ`.
///
/// The read path is **shared-state**: `try_query` and its wrappers take
/// `&self`, and the trait requires `Send + Sync`, so one opened index —
/// typically behind an `Arc` — serves any number of query threads
/// concurrently. Each thread brings its own per-query [`IoSession`];
/// everything the index itself holds is either immutable after
/// construction or guarded (the sharded buffer pool, `OnceLock` skip
/// directories).
pub trait SecondaryIndex: Send + Sync {
    /// Length `n` of the indexed string.
    fn len(&self) -> u64;

    /// Whether the indexed string is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Alphabet size `σ`.
    fn sigma(&self) -> Symbol;

    /// Total space of the data structure in bits (payload plus directory
    /// metadata, as accounted by each implementation).
    fn space_bits(&self) -> u64;

    /// Answers the alphabet range query `I[lo; hi]` (inclusive endpoints,
    /// as in the paper), charging all block accesses to `io`. This is the
    /// one read method a family implements.
    ///
    /// The result is compressed: either the positions themselves or, for
    /// results larger than `n/2` where the structure supports it, the
    /// complement (§2.1's trick).
    ///
    /// A real-read failure (transient faults past the retry budget, a
    /// missing page, a checksum mismatch) is returned as a typed
    /// [`ReadError`]: every pooled read is a bulk lift that returns its
    /// fault, and implementations propagate it with `?` before decoding
    /// the lifted words in memory.
    ///
    /// [`Self::cardinality_hint`] needs no fallible variant: by contract
    /// it reads only memory-resident metadata and charges no I/O, so it
    /// has no real read to fail.
    ///
    /// # Panics
    /// Implementations panic if `lo > hi` or `hi ≥ σ` (caller bugs).
    fn try_query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> Result<RidSet, ReadError>;

    /// Infallible form of [`Self::try_query`], for callers that cannot
    /// degrade (RAM-resident indexes, experiments).
    ///
    /// # Panics
    /// Panics with the [`ReadError`] message when a real read fails, and
    /// where [`Self::try_query`] panics.
    fn query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> RidSet {
        self.try_query(lo, hi, io)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Convenience: runs `query` under a fresh tracking session and
    /// returns the result with its I/O statistics.
    fn query_measured(&self, lo: Symbol, hi: Symbol) -> (RidSet, IoStats) {
        let io = IoSession::new();
        let result = self.query(lo, hi, &io);
        let stats = io.stats();
        (result, stats)
    }

    /// Estimated result cardinality of `I[lo; hi]`, computed from metadata
    /// resident in memory *before any payload bit is decoded* — the
    /// paper's prefix array `A`, catalog directories, or cut-slot counts.
    ///
    /// Structures that keep per-character counts return the exact `z`;
    /// structures without such metadata return `None` and planners fall
    /// back to a uniformity assumption. Implementations must not charge
    /// any I/O: this is what conjunctive planners call to order an
    /// intersection before paying for a single cover.
    fn cardinality_hint(&self, lo: Symbol, hi: Symbol) -> Option<u64> {
        let _ = (lo, hi);
        None
    }
}

/// A semi-dynamic index supporting appends (paper §4.1: "OLAP and
/// scientific data … are typically read and append only").
pub trait AppendIndex: SecondaryIndex {
    /// Appends a character at position `n` (the end of the string).
    fn append(&mut self, symbol: Symbol, io: &IoSession);
}

/// A fully dynamic index additionally supporting in-place character
/// changes (paper §4.3). Deletions are expressible as changes to a
/// reserved `∞` character (§4).
pub trait DynamicIndex: AppendIndex {
    /// Changes the character at position `pos` to `symbol`.
    fn change(&mut self, pos: u64, symbol: Symbol, io: &IoSession);
}

/// One mutation against a dynamic index, in the vocabulary shared by the
/// durable write path (`psi-wal` journals `MutOp`s before they touch RAM
/// and replays them at recovery) and any future replication layer.
///
/// The three operations are exactly the dynamic trait surface:
/// [`AppendIndex::append`], [`DynamicIndex::change`], and deletion via
/// the paper's reserved `∞` character (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutOp {
    /// Append `symbol` at position `n`.
    Append {
        /// The appended character.
        symbol: Symbol,
    },
    /// Change the character at `pos` to `symbol`.
    Change {
        /// Target position (`< n`).
        pos: u64,
        /// The new character.
        symbol: Symbol,
    },
    /// Delete the character at `pos` (a change to `∞`).
    Delete {
        /// Target position (`< n`).
        pos: u64,
    },
}

/// Why a [`MutOp`] could not be applied to an index.
///
/// Replay paths (crash recovery) must never panic on a log whose records
/// are internally valid but inapplicable to the index at hand — a
/// mismatched checkpoint, an out-of-range position, an append-only
/// family asked to replay a change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyError {
    /// What was wrong (op, position, family).
    pub what: String,
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inapplicable operation: {}", self.what)
    }
}

impl std::error::Error for ApplyError {}

/// A dynamic index that can apply journaled [`MutOp`]s — the replay
/// surface of the durable write path.
///
/// Implementations validate before mutating (position in range, symbol
/// in alphabet, op supported by the family) and return [`ApplyError`]
/// instead of panicking, so recovery can surface a typed error on any
/// log/checkpoint mismatch.
pub trait ApplyOp {
    /// Applies one operation, charging I/O to `io`.
    fn apply_op(&mut self, op: &MutOp, io: &IoSession) -> Result<(), ApplyError>;
}

/// Read access to the simulated disk backing an index.
///
/// One trait replaces the per-family "simulated disk (for inspection)"
/// accessors: the experiment harnesses use it to read space and layout,
/// and the `psi-store` save path uses it as the payload source for
/// single-volume families.
pub trait HasDisk {
    /// The simulated disk holding this structure's payload.
    fn disk(&self) -> &Disk;
}

/// Validates query endpoints against an alphabet size. Shared helper for
/// implementations.
pub fn check_range(lo: Symbol, hi: Symbol, sigma: Symbol) {
    assert!(lo <= hi, "empty range [{lo}, {hi}]");
    assert!(
        hi < sigma,
        "range endpoint {hi} outside alphabet of size {sigma}"
    );
}

/// Builds the exact answer to a range query by scanning the string —
/// the reference implementation used in tests and harness validation.
pub fn naive_query(symbols: &[Symbol], lo: Symbol, hi: Symbol) -> RidSet {
    let positions = symbols
        .iter()
        .enumerate()
        .filter(|(_, &s)| (lo..=hi).contains(&s))
        .map(|(i, _)| i as u64);
    RidSet::from_positions(GapBitmap::from_sorted_iter(positions, symbols.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_query_filters_by_range() {
        let s = vec![3u32, 1, 4, 1, 5, 9, 2, 6];
        let r = naive_query(&s, 2, 5);
        assert_eq!(r.to_vec(), vec![0, 2, 4, 6]);
        assert_eq!(r.cardinality(), 4);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn inverted_range_rejected() {
        check_range(5, 4, 10);
    }

    #[test]
    #[should_panic(expected = "outside alphabet")]
    fn oversized_range_rejected() {
        check_range(0, 10, 10);
    }
}
