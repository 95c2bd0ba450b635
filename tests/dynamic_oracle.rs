//! Dynamic-index oracle suite: random interleavings of insert / delete /
//! change / query on `SemiDynamicIndex` and `FullyDynamicIndex`, pinned
//! against per-character `BTreeSet` oracles — including delete-then-
//! reinsert of the same rid, the case §4's `∞`-character encoding makes
//! subtle (a deleted position must stop matching every range and then
//! match again after reinsertion).

use std::collections::BTreeSet;

use proptest::prelude::*;
use psi::{AppendIndex, DynamicIndex, IoConfig, IoSession, MutOp, SecondaryIndex};

const SIGMA: u32 = 8;

fn cfg() -> IoConfig {
    IoConfig::with_block_bits(512)
}

/// The oracle: one sorted rid set per character, updated in lockstep
/// with the index under test.
struct Oracle {
    sets: Vec<BTreeSet<u64>>,
    /// Mirror of the string; `SIGMA` marks a deleted (`∞`) position.
    mirror: Vec<u32>,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            sets: vec![BTreeSet::new(); SIGMA as usize],
            mirror: Vec::new(),
        }
    }

    fn from_symbols(symbols: &[u32]) -> Oracle {
        let mut o = Oracle::new();
        for &s in symbols {
            o.append(s);
        }
        o
    }

    fn append(&mut self, sym: u32) {
        self.sets[sym as usize].insert(self.mirror.len() as u64);
        self.mirror.push(sym);
    }

    fn change(&mut self, pos: u64, sym: u32) {
        let old = self.mirror[pos as usize];
        if old < SIGMA {
            self.sets[old as usize].remove(&pos);
        }
        if sym < SIGMA {
            self.sets[sym as usize].insert(pos);
        }
        self.mirror[pos as usize] = sym;
    }

    fn delete(&mut self, pos: u64) {
        self.change(pos, SIGMA);
    }

    fn apply_mut_op(&mut self, op: &MutOp) {
        match *op {
            MutOp::Append { symbol } => self.append(symbol),
            MutOp::Change { pos, symbol } => self.change(pos, symbol),
            MutOp::Delete { pos } => self.delete(pos),
        }
    }

    fn expected(&self, lo: u32, hi: u32) -> Vec<u64> {
        let mut all: Vec<u64> = (lo..=hi)
            .flat_map(|c| self.sets[c as usize].iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

fn check_queries<I: SecondaryIndex>(idx: &I, oracle: &Oracle, lo: u32, width: u32) {
    let lo = lo.min(SIGMA - 1);
    let hi = (lo + width).min(SIGMA - 1);
    let io = IoSession::new();
    let got = idx.query(lo, hi, &io).to_vec();
    assert_eq!(got, oracle.expected(lo, hi), "range [{lo}, {hi}]");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Semi-dynamic: any interleaving of appends and queries agrees with
    // the BTreeSet oracle at every query point.
    #[test]
    fn semi_dynamic_append_query_interleaving(
        ops in proptest::collection::vec((0u32..100, 0u32..SIGMA, 0u32..SIGMA), 1..150),
    ) {
        let mut idx = psi::SemiDynamicIndex::new(SIGMA, cfg());
        let mut oracle = Oracle::new();
        let io = IoSession::untracked();
        for (kind, sym, width) in ops {
            if kind < 70 {
                idx.append(sym, &io);
                oracle.append(sym);
            } else {
                check_queries(&idx, &oracle, sym, width);
            }
        }
        // Final exhaustive sweep.
        for lo in 0..SIGMA {
            for hi in lo..SIGMA {
                check_queries(&idx, &oracle, lo, hi - lo);
            }
        }
    }

    // Fully dynamic: random interleavings of append / change / delete /
    // reinsert / query, with delete-then-reinsert of the same rid forced
    // into every history.
    #[test]
    fn fully_dynamic_interleaving_with_reinsertion(
        initial in proptest::collection::vec(0u32..SIGMA, 1..80),
        ops in proptest::collection::vec(
            (0u32..100, any::<proptest::sample::Index>(), 0u32..SIGMA, 0u32..SIGMA),
            1..120,
        ),
    ) {
        let mut idx = psi::FullyDynamicIndex::build(&initial, SIGMA, cfg());
        let mut oracle = Oracle::from_symbols(&initial);
        let io = IoSession::untracked();
        for (kind, pos, sym, width) in ops {
            let len = oracle.mirror.len();
            match kind {
                0..=19 => {
                    idx.append(sym, &io);
                    oracle.append(sym);
                }
                20..=44 => {
                    let p = pos.index(len) as u64;
                    idx.change(p, sym, &io);
                    oracle.change(p, sym);
                }
                45..=64 => {
                    let p = pos.index(len) as u64;
                    idx.delete(p, &io);
                    oracle.delete(p);
                }
                65..=79 => {
                    // Reinsert a deleted rid when one exists (delete-then-
                    // reinsert of the same rid), else change a live one.
                    let p = pos.index(len);
                    let deleted = oracle.mirror.iter().position(|&v| v == SIGMA);
                    let target = deleted.unwrap_or(p) as u64;
                    idx.change(target, sym, &io);
                    oracle.change(target, sym);
                }
                _ => check_queries(&idx, &oracle, sym, width),
            }
        }
        for lo in (0..SIGMA).step_by(2) {
            for hi in lo..SIGMA {
                check_queries(&idx, &oracle, lo, hi - lo);
            }
        }
    }

    // Durability round-trips mid-workload: run the same fully dynamic
    // interleaving through the WAL-journaled handle, and every k-th
    // operation checkpoint + drop + recover from disk. Replay must
    // continue the history exactly — the recovered index agrees with the
    // oracle both right after each reopen and at the end.
    #[test]
    fn fully_dynamic_history_survives_checkpoint_and_reopen(
        initial in proptest::collection::vec(0u32..SIGMA, 1..60),
        ops in proptest::collection::vec(
            (0u32..100, any::<proptest::sample::Index>(), 0u32..SIGMA),
            1..100,
        ),
        every in 7usize..23,
    ) {
        let dir = std::env::temp_dir()
            .join("psi_dynamic_oracle")
            .join("ckpt_reopen");
        let _ = std::fs::remove_dir_all(&dir);
        let idx = psi::FullyDynamicIndex::build(&initial, SIGMA, cfg());
        let mut oracle = Oracle::from_symbols(&initial);
        let mut durable = psi::wal::Durable::create(
            &dir,
            idx,
            psi::wal::DurableOptions { group_commit_ops: 8, ..Default::default() },
        )
        .expect("create durable");
        let io = IoSession::untracked();
        for (k, (kind, pos, sym)) in ops.iter().enumerate() {
            let len = oracle.mirror.len();
            let op = match kind {
                0..=39 => MutOp::Append { symbol: *sym },
                40..=69 => MutOp::Change { pos: pos.index(len) as u64, symbol: *sym },
                _ => MutOp::Delete { pos: pos.index(len) as u64 },
            };
            durable.apply(&op, &io).expect("apply");
            oracle.apply_mut_op(&op);
            if (k + 1) % every == 0 {
                durable.checkpoint().expect("checkpoint");
                drop(durable);
                let (recovered, report) =
                    psi::wal::recover::<psi::FullyDynamicIndex>(&dir, Default::default())
                        .expect("recover");
                prop_assert_eq!(report.replayed, 0, "checkpoint absorbed the log");
                durable = recovered;
                check_queries(durable.index(), &oracle, 0, SIGMA - 1);
                check_queries(durable.index(), &oracle, (k as u32) % SIGMA, 2);
            }
        }
        // One final crash-shaped reopen (no checkpoint first): the
        // committed log tail replays on top of the last checkpoint.
        durable.commit().expect("commit");
        drop(durable);
        let (recovered, _) =
            psi::wal::recover::<psi::FullyDynamicIndex>(&dir, Default::default())
                .expect("final recover");
        for lo in (0..SIGMA).step_by(2) {
            for hi in lo..SIGMA {
                check_queries(recovered.index(), &oracle, lo, hi - lo);
            }
        }
    }
}

/// Deterministic delete-then-reinsert of the same rid: the position must
/// stop matching every range while deleted and match its new character
/// afterwards — even when deleted and reinserted repeatedly.
#[test]
fn delete_then_reinsert_same_rid() {
    let initial = psi::workloads::uniform(600, SIGMA, 51);
    let mut idx = psi::FullyDynamicIndex::build(&initial, SIGMA, cfg());
    let mut oracle = Oracle::from_symbols(&initial);
    let io = IoSession::untracked();
    for &rid in &[0u64, 299, 599] {
        let old = oracle.mirror[rid as usize];
        for round in 0..3 {
            idx.delete(rid, &io);
            oracle.delete(rid);
            let gone = idx.query(old, old, &io).to_vec();
            assert!(
                !gone.contains(&rid),
                "rid {rid} still matches after delete (round {round})"
            );
            let back = (old + round) % SIGMA;
            idx.change(rid, back, &io);
            oracle.change(rid, back);
            let found = idx.query(back, back, &io).to_vec();
            assert!(
                found.contains(&rid),
                "rid {rid} lost after reinsert (round {round})"
            );
        }
    }
    for lo in 0..SIGMA {
        for hi in lo..SIGMA {
            check_queries(&idx, &oracle, lo, hi - lo);
        }
    }
}

/// A durable index created empty answers its appended rows live and
/// after recovery: with no snapshot yet, every row is a pending append.
#[test]
fn empty_durable_index_answers_appends_live_and_after_recovery() {
    type Handle = psi::wal::Durable<psi::FullyDynamicIndex>;
    let dir = std::env::temp_dir()
        .join("psi_dynamic_oracle")
        .join("empty_durable");
    let _ = std::fs::remove_dir_all(&dir);
    let idx = psi::FullyDynamicIndex::build(&[], SIGMA, cfg());
    let mut durable = Handle::create(&dir, idx, Default::default()).expect("create");
    let io = IoSession::untracked();
    let mut mirror: Vec<u32> = Vec::new();
    let check = |durable: &Handle, mirror: &[u32], when: &str| {
        for lo in 0..SIGMA {
            for hi in lo..SIGMA {
                let got = durable.try_query(lo, hi, &IoSession::new()).expect("read");
                assert_eq!(
                    got.to_vec(),
                    psi::naive_query(mirror, lo, hi).to_vec(),
                    "[{lo}, {hi}] over {mirror:?}, {when}"
                );
            }
        }
    };
    let ops = [
        MutOp::Append { symbol: 2 },
        MutOp::Change { pos: 0, symbol: 5 },
        MutOp::Delete { pos: 0 },
        MutOp::Change { pos: 0, symbol: 2 },
        MutOp::Append { symbol: 7 },
        MutOp::Append { symbol: 2 },
    ];
    for op in &ops {
        durable.apply(op, &io).expect("apply");
        match *op {
            MutOp::Append { symbol } => mirror.push(symbol),
            MutOp::Change { pos, symbol } => mirror[pos as usize] = symbol,
            MutOp::Delete { pos } => mirror[pos as usize] = SIGMA,
        }
        check(&durable, &mirror, "live");
        durable.commit().expect("commit");
        drop(durable);
        durable = psi::wal::recover::<psi::FullyDynamicIndex>(&dir, Default::default())
            .expect("recover")
            .0;
        check(&durable, &mirror, "recovered");
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}
