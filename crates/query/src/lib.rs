//! # psi-query — multi-attribute conjunctive queries
//!
//! The reason secondary indexes exist (paper §1): "in a database of
//! people we may want to find all married men of age 33", answered by
//! combining one per-attribute index per predicate through RID
//! intersection — without decompressing every result. This crate is that
//! layer for the `psi` workspace:
//!
//! * [`Predicate`] — the query algebra: point and range predicates on
//!   named attributes, negation, conjunction; normalized into a flat
//!   [`ConjunctiveQuery`].
//! * [`plan_conjunction`] — the cost-based planner: per-condition
//!   cardinality estimates (from
//!   [`psi_api::SecondaryIndex::cardinality_hint`] — prefix counts and
//!   catalog directories, read before any payload decode) order the
//!   intersection ascending and pick a [`CombineStrategy`]: galloping
//!   intersection, a semi-join probing each other result (its skip
//!   directory, or its word bitset when dense), or a linear co-scan for
//!   non-selective conjunctions.
//! * [`IndexedTable`] — the executor: one [`psi_api::SecondaryIndex`]
//!   per attribute (the paper's engine or any baseline), each condition
//!   charged under its own session, every strategy consuming identical
//!   covers so simulated I/O is identical by construction.
//!
//! The `tests/` directory holds the workload-replay differential harness
//! that pins every planner branch, for every index family, against the
//! [`Predicate::naive_rows`] full scan.
//!
//! ```
//! use psi_query::{IndexedTable, Predicate};
//!
//! let table = psi_workloads::people_table(10_000, 42);
//! let indexed = IndexedTable::build(&table, |symbols, sigma| {
//!     Box::new(psi_core_stub::build(symbols, sigma))
//! });
//! # mod psi_core_stub {
//! #     use psi_api::{naive_query, RidSet, SecondaryIndex, Symbol};
//! #     pub struct S(Vec<Symbol>, u32);
//! #     impl SecondaryIndex for S {
//! #         fn len(&self) -> u64 { self.0.len() as u64 }
//! #         fn sigma(&self) -> Symbol { self.1 }
//! #         fn space_bits(&self) -> u64 { 0 }
//! #         fn try_query(
//! #             &self,
//! #             lo: Symbol,
//! #             hi: Symbol,
//! #             _io: &psi_io::IoSession,
//! #         ) -> Result<RidSet, psi_api::ReadError> {
//! #             Ok(naive_query(&self.0, lo, hi))
//! #         }
//! #     }
//! #     pub fn build(s: &[Symbol], sigma: u32) -> S { S(s.to_vec(), sigma) }
//! # }
//! // Married (status 1) men (sex 0) aged 30–35.
//! let married_men_30s = Predicate::and([
//!     Predicate::point("marital_status", 1),
//!     Predicate::point("sex", 0),
//!     Predicate::range("age", 30, 35),
//! ]);
//! let outcome = indexed.execute(&married_men_30s).unwrap();
//! assert_eq!(
//!     outcome.rows.to_vec(),
//!     married_men_30s.naive_rows(&table)
//! );
//! ```

#![warn(missing_docs)]

mod batch;
mod exec;
pub mod metrics;
mod plan;
mod predicate;
mod trace;

pub use batch::grouped_order;
pub use exec::{IndexedColumn, IndexedTable, QueryOutcome};
pub use metrics::{query_metrics, QueryMetrics};
pub use plan::{plan_conjunction, CombineStrategy, Plan, PROBE_RATIO, SCAN_MIN_FRACTION};
pub use predicate::{AttrCondition, ConjunctiveQuery, Predicate, Symbol};
pub use trace::{CondTrace, PlanTrace};

/// Errors surfaced by normalization, planning and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The predicate is not expressible as a conjunction of per-attribute
    /// conditions (a negated multi-term conjunction is a disjunction).
    NotConjunctive,
    /// A predicate names an attribute the indexed table does not have.
    UnknownAttribute(String),
    /// A real block read failed under an index query and the executor
    /// could not degrade around it (the fault was transient-exhausted or
    /// permanent, or it was corruption on an attribute with no attached
    /// source column to scan instead).
    Read(psi_io::ReadError),
    /// The named attribute's index has quarantined extents and no source
    /// column data is attached, so neither the index path nor the
    /// table-scan fallback can answer for it.
    Quarantined(String),
    /// The query's execution panicked, which is only ever a bug in an
    /// index implementation or in this crate: read faults come back as
    /// [`QueryError::Read`] values and never unwind. Batch execution
    /// contains the unwind to the offending query's result slot; the
    /// payload message is preserved here.
    Panicked(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NotConjunctive => {
                write!(
                    f,
                    "predicate is not a conjunction of per-attribute conditions"
                )
            }
            QueryError::UnknownAttribute(a) => write!(f, "unknown attribute `{a}`"),
            QueryError::Read(e) => write!(f, "index read failed: {e}"),
            QueryError::Quarantined(a) => {
                write!(
                    f,
                    "attribute `{a}` is quarantined and has no source data for scan fallback"
                )
            }
            QueryError::Panicked(msg) => write!(f, "query execution panicked: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Read(e) => Some(e),
            _ => None,
        }
    }
}
