//! Multi-threaded batch execution of conjunctive queries.
//!
//! The per-query read path is shared-state (`&self` all the way down, see
//! `psi_api::SecondaryIndex`), so throughput over a batch of queries is a
//! scheduling problem, not a locking one.
//! [`IndexedTable::execute_batch_settled`] runs a slice of normalized
//! conjunctions on a scoped thread pool
//! (`std::thread::scope` — no extra dependencies, no detached threads):
//!
//! * the batch is **grouped by lead attribute** before being handed to
//!   the pool — queries whose most selective condition probes the same
//!   index run back to back, so on a pooled (file/mmap) backend their
//!   block fetches hit the same buffer-pool shards and frames instead of
//!   ping-ponging the clock across every index in the table;
//! * workers claim queries off a shared atomic cursor (work stealing in
//!   its simplest form), so a straggler query cannot idle the pool;
//! * results land in their input slots — the output is **identical, in
//!   order and in content, to running the queries sequentially**, which
//!   the workspace test `tests/concurrent_read.rs`
//!   (`batch_executor_matches_sequential_for_every_family`) pins for
//!   every index family.
//!
//! Per-query I/O accounting is untouched: each query still runs each of
//! its conditions under a fresh `psi_io::IoSession`, so a batched
//! query's reported cost equals its standalone cost exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::exec::{IndexedTable, QueryOutcome};
use crate::predicate::ConjunctiveQuery;
use crate::QueryError;

/// Execution order for a batch: query indices sorted (stably) so queries
/// sharing a lead attribute are adjacent. The lead attribute is the
/// attribute of the query's first condition — for planned executions the
/// planner probes every condition anyway, but the *first* condition is
/// known without planning and correlates with which index the query was
/// written against.
pub fn grouped_order(queries: &[ConjunctiveQuery]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by(|&a, &b| {
        let lead = |i: usize| queries[i].conditions.first().map(|c| c.attr.as_str());
        lead(a).cmp(&lead(b))
    });
    order
}

impl IndexedTable {
    /// Runs one query with its failure contained to its own result: a
    /// typed error (a read fault included) comes back as `Err`, and an
    /// unwind escaping the query, which only a bug raises, is caught and
    /// reported as [`QueryError::Panicked`] instead of killing the calling
    /// worker thread.
    fn settle_query(&self, query: &ConjunctiveQuery) -> Result<QueryOutcome, QueryError> {
        match catch_unwind(AssertUnwindSafe(|| self.execute_conjunctive(query))) {
            Ok(result) => result,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(QueryError::Panicked(msg))
            }
        }
    }

    /// Executes every query of `batch` and returns one settled result per
    /// query, in input order, using up to `threads` worker threads
    /// (clamped to the batch size; `0` means
    /// [`std::thread::available_parallelism`]).
    ///
    /// Failures stay in their own slot: a query that hits a pool-budget
    /// exhaustion, a failed block read or an unknown attribute yields a
    /// typed `Err` in *its* slot while every sibling query still returns
    /// its correct rows. A panic inside an index implementation is a bug,
    /// not a read fault; it is still contained, as
    /// [`QueryError::Panicked`]. This is the batch entry point for callers
    /// (such as a network server) that must answer each request
    /// independently.
    pub fn execute_batch_settled(
        &self,
        batch: &[ConjunctiveQuery],
        threads: usize,
    ) -> Vec<Result<QueryOutcome, QueryError>> {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            t => t,
        }
        .min(batch.len().max(1));
        if threads <= 1 {
            // Same claim order as the parallel path attempts: pool
            // warmth and fetch counts must not depend on thread count.
            return batch.iter().map(|q| self.settle_query(q)).collect();
        }
        let order = grouped_order(batch);
        let cursor = AtomicUsize::new(0);
        let slots: Vec<OnceLock<Result<QueryOutcome, QueryError>>> =
            (0..batch.len()).map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&qi) = order.get(k) else { break };
                    let outcome = self.settle_query(&batch[qi]);
                    assert!(slots[qi].set(outcome).is_ok(), "slot written once");
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use psi_api::{naive_query, ReadError, RidSet, SecondaryIndex, Symbol};
    use psi_io::IoSession;

    struct ScanIndex {
        data: Vec<Symbol>,
        sigma: u32,
    }

    impl SecondaryIndex for ScanIndex {
        fn len(&self) -> u64 {
            self.data.len() as u64
        }
        fn sigma(&self) -> Symbol {
            self.sigma
        }
        fn space_bits(&self) -> u64 {
            0
        }
        fn try_query(&self, lo: Symbol, hi: Symbol, _io: &IoSession) -> Result<RidSet, ReadError> {
            Ok(naive_query(&self.data, lo, hi))
        }
    }

    fn table() -> IndexedTable {
        let data_a: Vec<Symbol> = (0..512u32).map(|i| i % 7).collect();
        let data_b: Vec<Symbol> = (0..512u32).map(|i| (i * 31) % 13).collect();
        IndexedTable::from_columns(vec![
            crate::exec::IndexedColumn {
                name: "a".into(),
                sigma: 7,
                index: Box::new(ScanIndex {
                    data: data_a,
                    sigma: 7,
                }),
            },
            crate::exec::IndexedColumn {
                name: "b".into(),
                sigma: 13,
                index: Box::new(ScanIndex {
                    data: data_b,
                    sigma: 13,
                }),
            },
        ])
    }

    fn batch() -> Vec<ConjunctiveQuery> {
        let mut qs = Vec::new();
        for v in 0..7u32 {
            qs.push(Predicate::point("a", v).normalize().unwrap());
            qs.push(Predicate::point("b", v).normalize().unwrap());
            qs.push(
                Predicate::and([Predicate::point("a", v), Predicate::range("b", 0, 5)])
                    .normalize()
                    .unwrap(),
            );
        }
        qs
    }

    #[test]
    fn grouped_order_clusters_lead_attributes() {
        let qs = batch();
        let order = grouped_order(&qs);
        assert_eq!(order.len(), qs.len());
        // All "a"-lead queries come before all "b"-lead ones, and the
        // order is a permutation.
        let leads: Vec<&str> = order
            .iter()
            .map(|&i| qs[i].conditions[0].attr.as_str())
            .collect();
        let first_b = leads.iter().position(|&l| l == "b").unwrap();
        assert!(leads[..first_b].iter().all(|&l| l == "a"));
        assert!(leads[first_b..].iter().all(|&l| l == "b"));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..qs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn batch_matches_sequential_at_every_thread_count() {
        let t = table();
        let qs = batch();
        let sequential: Vec<_> = qs
            .iter()
            .map(|q| t.execute_conjunctive(q).unwrap())
            .collect();
        for threads in [1, 2, 3, 8, 0] {
            let parallel: Vec<QueryOutcome> = t
                .execute_batch_settled(&qs, threads)
                .into_iter()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(parallel.len(), sequential.len());
            for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
                assert_eq!(p.rows.to_vec(), s.rows.to_vec(), "query {i} rows");
                assert_eq!(p.io, s.io, "query {i} io");
                assert_eq!(p.plan.order, s.plan.order, "query {i} plan");
            }
        }
    }

    #[test]
    fn batch_surfaces_errors() {
        let t = table();
        let qs = vec![
            Predicate::point("a", 1).normalize().unwrap(),
            Predicate::point("missing", 1).normalize().unwrap(),
        ];
        let settled = t.execute_batch_settled(&qs, 2);
        assert!(settled[0].is_ok());
        assert_eq!(
            settled[1].as_ref().unwrap_err(),
            &QueryError::UnknownAttribute("missing".into())
        );
    }

    /// A panicking index implementation must not kill the worker thread
    /// or poison the batch: its query settles to `Err(Panicked)` and the
    /// sibling queries still return their correct rows — at every thread
    /// count.
    struct PanicIndex;

    impl SecondaryIndex for PanicIndex {
        fn len(&self) -> u64 {
            512
        }
        fn sigma(&self) -> Symbol {
            3
        }
        fn space_bits(&self) -> u64 {
            0
        }
        fn try_query(
            &self,
            _lo: Symbol,
            _hi: Symbol,
            _io: &IoSession,
        ) -> Result<RidSet, ReadError> {
            panic!("boom: injected index bug")
        }
    }

    #[test]
    fn settled_batch_isolates_panics_to_their_slot() {
        let data_a: Vec<Symbol> = (0..512u32).map(|i| i % 7).collect();
        let t = IndexedTable::from_columns(vec![
            crate::exec::IndexedColumn {
                name: "a".into(),
                sigma: 7,
                index: Box::new(ScanIndex {
                    data: data_a.clone(),
                    sigma: 7,
                }),
            },
            crate::exec::IndexedColumn {
                name: "boom".into(),
                sigma: 3,
                index: Box::new(PanicIndex),
            },
        ]);
        let qs = vec![
            Predicate::point("a", 2).normalize().unwrap(),
            Predicate::point("boom", 1).normalize().unwrap(),
            Predicate::range("a", 3, 5).normalize().unwrap(),
        ];
        let direct_first = naive_query(&data_a, 2, 2).to_vec();
        let direct_last = naive_query(&data_a, 3, 5).to_vec();
        for threads in [1, 2, 3, 0] {
            let settled = t.execute_batch_settled(&qs, threads);
            assert_eq!(settled.len(), 3, "{threads} threads");
            let ok0 = settled[0].as_ref().expect("sibling before survives");
            assert_eq!(ok0.rows.to_vec(), direct_first, "{threads} threads");
            match &settled[1] {
                Err(QueryError::Panicked(msg)) => {
                    assert!(msg.contains("boom"), "payload preserved, got: {msg}")
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
            let ok2 = settled[2].as_ref().expect("sibling after survives");
            assert_eq!(ok2.rows.to_vec(), direct_last, "{threads} threads");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let t = table();
        assert!(t.execute_batch_settled(&[], 4).is_empty());
    }
}
