//! The semi-dynamic (append-only) index (Theorem 4).

use psi_api::{AppendIndex, HasDisk, RidSet, SecondaryIndex, Symbol};
use psi_io::{Disk, IoConfig, IoSession, ReadError};

use crate::cutstream::Slack;
use crate::engine::{Engine, EngineStats, DEFAULT_C};

/// Theorem 4's semi-dynamic index: the structure of [`crate::OptimalIndex`]
/// extended with `append` in amortized `O(lg lg n)` I/Os — "motivated by
/// the fact that OLAP and scientific data … are typically read and append
/// only" (§4.1).
///
/// An append extends one compressed bitmap per materialized cut in place
/// (slots carry proportional slack); weight-balance violations and slot
/// overflows trigger the paper's subtree rebuilds, whose cost is charged
/// to the same session and amortizes to `O(lg lg n)` per append
/// (experiment E6 measures this).
///
/// ```
/// use psi_core::SemiDynamicIndex;
/// use psi_api::{AppendIndex, SecondaryIndex};
/// use psi_io::{IoConfig, IoSession};
///
/// let mut index = SemiDynamicIndex::new(4, IoConfig::default());
/// let io = IoSession::new();
/// for &c in &[0u32, 2, 1, 2, 3] {
///     index.append(c, &io);
/// }
/// assert_eq!(index.query(1, 2, &io).to_vec(), vec![1, 2, 3]);
/// ```
#[derive(Debug)]
pub struct SemiDynamicIndex {
    engine: Engine,
}

impl SemiDynamicIndex {
    /// An empty index over alphabet `[0, sigma)`, ready for appends.
    pub fn new(sigma: Symbol, config: IoConfig) -> Self {
        SemiDynamicIndex {
            engine: Engine::build(&[], sigma, config, DEFAULT_C, Slack::Proportional),
        }
    }

    /// Bulk-builds from an initial string, then accepts appends.
    pub fn build(symbols: &[Symbol], sigma: Symbol, config: IoConfig) -> Self {
        SemiDynamicIndex {
            engine: Engine::build(symbols, sigma, config, DEFAULT_C, Slack::Proportional),
        }
    }

    /// Result cardinality from the prefix counts (no I/O).
    pub fn cardinality(&self, lo: Symbol, hi: Symbol) -> u64 {
        self.engine.query_cardinality(lo, hi)
    }

    /// Rebuild counters (amortization measurements).
    pub fn stats(&self) -> EngineStats {
        self.engine.stats
    }

    /// Live compressed payload bits across cuts.
    pub fn payload_bits(&self) -> u64 {
        self.engine.live_payload_bits()
    }
}

impl HasDisk for SemiDynamicIndex {
    fn disk(&self) -> &Disk {
        self.engine.disk()
    }
}

impl SecondaryIndex for SemiDynamicIndex {
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
        // Exact, from the memory-resident prefix counts (the paper's `A`,
        // Fenwick-maintained under appends).
        Some(self.engine.query_cardinality(lo, hi))
    }
}

impl AppendIndex for SemiDynamicIndex {
    fn append(&mut self, symbol: Symbol, io: &IoSession) {
        self.engine.append(symbol, io);
    }
}

impl psi_api::ApplyOp for SemiDynamicIndex {
    fn apply_op(&mut self, op: &psi_api::MutOp, io: &IoSession) -> Result<(), psi_api::ApplyError> {
        match *op {
            psi_api::MutOp::Append { symbol } => {
                if symbol >= self.sigma() {
                    return Err(psi_api::ApplyError {
                        what: format!("append symbol {symbol} outside alphabet {}", self.sigma()),
                    });
                }
                self.append(symbol, io);
                Ok(())
            }
            // Semi-dynamic is append-only: a change/delete in the log means
            // it was written by a different family.
            psi_api::MutOp::Change { pos, .. } | psi_api::MutOp::Delete { pos } => {
                Err(psi_api::ApplyError {
                    what: format!("semi-dynamic index cannot replay change/delete at {pos}"),
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Persistence (psi-store)

impl psi_store::PersistIndex for SemiDynamicIndex {
    const TAG: &'static str = "semi_dynamic";

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
        let disk = psi_store::single_volume(disks, "semi-dynamic")?;
        Ok(SemiDynamicIndex {
            engine: Engine::restore_meta(meta, disk)?,
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

    #[test]
    fn append_stream_matches_naive() {
        let mut idx = SemiDynamicIndex::new(16, cfg());
        let io = IoSession::untracked();
        let symbols = psi_workloads::zipf(3000, 16, 0.9, 31);
        for &c in &symbols {
            idx.append(c, &io);
        }
        assert_eq!(idx.len(), 3000);
        for lo in (0..16u32).step_by(3) {
            for hi in lo..16u32 {
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
    fn bulk_build_then_append() {
        let mut symbols = psi_workloads::uniform(1000, 8, 33);
        let mut idx = SemiDynamicIndex::build(&symbols, 8, cfg());
        let io = IoSession::untracked();
        for &c in &psi_workloads::runs(1000, 8, 10.0, 35) {
            idx.append(c, &io);
            symbols.push(c);
        }
        let io = IoSession::new();
        assert_eq!(
            idx.query(2, 5, &io).to_vec(),
            naive_query(&symbols, 2, 5).to_vec()
        );
    }

    #[test]
    fn amortized_append_cost_is_small() {
        let mut idx = SemiDynamicIndex::new(32, IoConfig::default());
        let n = 20_000;
        let mut total = 0u64;
        for &c in &psi_workloads::uniform(n, 32, 37) {
            let io = IoSession::new(); // one session per operation
            idx.append(c, &io);
            total += io.stats().total();
        }
        let per_append = total as f64 / n as f64;
        // Theorem 4: amortized O(lg lg n) ≈ 4; allow implementation
        // constants.
        assert!(
            per_append < 40.0,
            "amortized {per_append:.2} I/Os per append"
        );
        assert!(idx.stats().subtree_rebuilds + idx.stats().global_rebuilds > 0);
    }

    #[test]
    fn space_stays_near_entropy_after_appends() {
        let mut idx = SemiDynamicIndex::new(64, IoConfig::default());
        let io = IoSession::untracked();
        let symbols = psi_workloads::uniform(30_000, 64, 39);
        for &c in &symbols {
            idx.append(c, &io);
        }
        let nh0 = psi_bits::entropy::nh0_bits(&symbols, 64);
        // Slack and fragmentation allow a generous constant, but the space
        // must stay within a constant factor of the entropy bound.
        assert!(
            (idx.space_bits() as f64) < 12.0 * (nh0 + symbols.len() as f64),
            "space {} vs nH0 {nh0}",
            idx.space_bits()
        );
    }
}
