//! Execution of conjunctive queries over per-attribute secondary indexes.
//!
//! An [`IndexedTable`] holds one [`SecondaryIndex`] per attribute of a
//! [`Table`]. Executing a [`Predicate`] normalizes it, plans the
//! intersection order from pre-decode cardinality estimates, runs one
//! alphabet range query per condition (each under its own fresh
//! [`IoSession`], so the reported cost is the sum of the per-index
//! operations — including every skip-directory lift those queries
//! charge), and combines the compressed results with the planned
//! strategy. All strategies consume identical covers, so their simulated
//! I/O is identical by construction; `tests/io_parity.rs` asserts it the
//! way PR 2's forced-heap replay pins the merge planner.

use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

use psi_api::{naive_query, RidSet, SecondaryIndex, Symbol};
use psi_bits::GapBitmap;
use psi_io::{ErrorClass, IoSession, IoStats};
use psi_workloads::Table;

use crate::metrics::query_metrics;
use crate::plan::{plan_conjunction, CombineStrategy, Plan};
use crate::predicate::{AttrCondition, ConjunctiveQuery, Predicate};
use crate::trace::{CondTrace, PlanTrace};
use crate::QueryError;

/// One indexed attribute: the column's name and alphabet plus the
/// secondary index built over its values.
pub struct IndexedColumn {
    /// Attribute name (matched by [`AttrCondition::attr`]).
    pub name: String,
    /// Alphabet size of the dictionary-encoded attribute.
    pub sigma: u32,
    /// The per-attribute secondary index.
    pub index: Box<dyn SecondaryIndex>,
}

impl std::fmt::Debug for IndexedColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexedColumn")
            .field("name", &self.name)
            .field("sigma", &self.sigma)
            .field("n", &self.index.len())
            .finish()
    }
}

/// The result of executing one predicate: the compressed row set, the
/// plan that produced it, and the summed per-condition I/O statistics.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Matching rows, compressed (positions or complement).
    pub rows: RidSet,
    /// The plan that was executed.
    pub plan: Plan,
    /// Summed I/O of the per-condition index queries (each condition runs
    /// under its own fresh session, exactly like a standalone
    /// [`SecondaryIndex::query_measured`] call).
    pub io: IoStats,
    /// Attributes answered by the degraded table-scan fallback instead of
    /// their index — either already quarantined at plan time or
    /// quarantined mid-query by a verified-fetch corruption. Empty on a
    /// healthy read path.
    pub degraded: Vec<String>,
    /// The execution trace: per-condition estimates vs. actuals, blocks
    /// read, timings, and the combine summary. Render with
    /// [`PlanTrace::render`].
    pub trace: PlanTrace,
}

/// A multi-attribute table with one secondary index per column.
///
/// Beyond the per-attribute indexes, the table carries the fault-tolerant
/// read path's state: optional **source columns** (the dictionary-encoded
/// values each index was built from — the scan-fallback and rebuild
/// substrate) and the **extent quarantine** (per-attribute sets of extent
/// ids whose pages failed checksum verification). A corrupt fetch
/// quarantines its extent and degrades that attribute to a table scan;
/// [`IndexedTable::rebuild_attribute`] restores the index path.
#[derive(Debug)]
pub struct IndexedTable {
    n: u64,
    columns: Vec<IndexedColumn>,
    /// Source values per attribute, where attached ([`IndexedTable::build`]
    /// captures them; [`IndexedTable::from_columns`] starts empty).
    sources: HashMap<String, Vec<Symbol>>,
    /// Quarantined extent ids per attribute. A non-empty set takes the
    /// whole attribute off its index: one corrupt extent means the
    /// volume's integrity is in question until rebuilt.
    quarantine: Mutex<HashMap<String, BTreeSet<u32>>>,
}

impl IndexedTable {
    /// Builds one index per column of `table` through `build_index`
    /// (called with the column's values and alphabet size) — the hook
    /// that wires the engine indexes and every baseline through the same
    /// executor.
    pub fn build<F>(table: &Table, mut build_index: F) -> IndexedTable
    where
        F: FnMut(&[Symbol], u32) -> Box<dyn SecondaryIndex>,
    {
        let n = table.rows() as u64;
        let columns: Vec<IndexedColumn> = table
            .columns
            .iter()
            .map(|c| {
                let index = build_index(&c.data, c.sigma);
                assert_eq!(index.len(), n, "index length mismatch on {}", c.name);
                IndexedColumn {
                    name: c.name.clone(),
                    sigma: c.sigma,
                    index,
                }
            })
            .collect();
        // Keep the source values: they are the substrate of the degraded
        // scan fallback and of `rebuild_attribute`.
        let sources = table
            .columns
            .iter()
            .map(|c| (c.name.clone(), c.data.clone()))
            .collect();
        IndexedTable {
            n,
            columns,
            sources,
            quarantine: Mutex::new(HashMap::new()),
        }
    }

    /// Wraps pre-built per-attribute indexes (all of the same length).
    ///
    /// No source columns are attached: a corrupt fetch on such a table
    /// surfaces as [`QueryError::Read`] instead of degrading, until
    /// [`IndexedTable::attach_column_data`] supplies the values.
    pub fn from_columns(columns: Vec<IndexedColumn>) -> IndexedTable {
        let n = columns.first().map_or(0, |c| c.index.len());
        for c in &columns {
            assert_eq!(c.index.len(), n, "index length mismatch on {}", c.name);
        }
        IndexedTable {
            n,
            columns,
            sources: HashMap::new(),
            quarantine: Mutex::new(HashMap::new()),
        }
    }

    /// Attaches (or replaces) the source values of one attribute,
    /// enabling the scan fallback and [`IndexedTable::rebuild_attribute`]
    /// for tables assembled via [`IndexedTable::from_columns`].
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the table's row count.
    pub fn attach_column_data(&mut self, attr: &str, data: Vec<Symbol>) -> Result<(), QueryError> {
        self.column(attr)?;
        assert_eq!(
            data.len() as u64,
            self.n,
            "source column length mismatch on {attr}"
        );
        self.sources.insert(attr.to_string(), data);
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.n
    }

    /// The indexed columns.
    pub fn columns(&self) -> &[IndexedColumn] {
        &self.columns
    }

    fn column(&self, name: &str) -> Result<&IndexedColumn, QueryError> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| QueryError::UnknownAttribute(name.to_string()))
    }

    /// The quarantine map, tolerating a poisoned lock: quarantine state
    /// is a plain set of ids, valid under any interleaving, and the read
    /// path must keep degrading even after a panicked peer thread.
    fn quarantine_lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, BTreeSet<u32>>> {
        self.quarantine
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Marks one extent of `attr`'s index as corrupt. Until
    /// [`IndexedTable::rebuild_attribute`] clears it, every query
    /// touching `attr` degrades to the table-scan fallback. Fed by the
    /// executor itself (on a corrupt fetch) and by scrubber reports.
    pub fn quarantine_extent(&self, attr: &str, extent: u32) -> Result<(), QueryError> {
        self.column(attr)?;
        let fresh = self
            .quarantine_lock()
            .entry(attr.to_string())
            .or_default()
            .insert(extent);
        if fresh {
            query_metrics().quarantine_events.inc();
        }
        Ok(())
    }

    /// Every attribute with quarantined extents, with its extent ids
    /// ascending — the registry-snapshot view of the quarantine that the
    /// server's `STATS` op publishes.
    pub fn quarantine_snapshot(&self) -> Vec<(String, Vec<u32>)> {
        let map = self.quarantine_lock();
        let mut out: Vec<(String, Vec<u32>)> = map
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(attr, s)| (attr.clone(), s.iter().copied().collect()))
            .collect();
        out.sort();
        out
    }

    /// Quarantined extent ids of one attribute, ascending (empty when
    /// healthy or unknown).
    pub fn quarantined_extents(&self, attr: &str) -> Vec<u32> {
        self.quarantine_lock()
            .get(attr)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Whether `attr` currently has quarantined extents.
    pub fn is_quarantined(&self, attr: &str) -> bool {
        self.quarantine_lock()
            .get(attr)
            .is_some_and(|s| !s.is_empty())
    }

    /// Clamps a condition's range to the column's alphabet; `None` when
    /// the positive range cannot match anything.
    fn clamp(col: &IndexedColumn, cond: &AttrCondition) -> Option<(Symbol, Symbol)> {
        if cond.lo >= col.sigma || cond.lo > cond.hi {
            return None;
        }
        Some((cond.lo, cond.hi.min(col.sigma - 1)))
    }

    /// Estimated result cardinality of one condition, from index metadata
    /// available before any decode ([`SecondaryIndex::cardinality_hint`]),
    /// falling back to a uniformity assumption when the structure keeps
    /// no counts. Negated conditions estimate `n − z`.
    pub fn estimate_condition(&self, cond: &AttrCondition) -> Result<u64, QueryError> {
        let col = self.column(&cond.attr)?;
        let base = match Self::clamp(col, cond) {
            None => 0,
            Some((lo, hi)) => col.index.cardinality_hint(lo, hi).unwrap_or_else(|| {
                let width = u64::from(hi - lo + 1);
                // max-then-min keeps the estimate positive without
                // tripping on an empty table (clamp(1, 0) would panic).
                (self.n * width / u64::from(col.sigma)).max(1).min(self.n)
            }),
        };
        Ok(if cond.negated { self.n - base } else { base })
    }

    /// Plans a conjunctive query: per-condition estimates, ascending
    /// selectivity order, and the combine strategy. Touches no index
    /// payload.
    pub fn plan_query(&self, query: &ConjunctiveQuery) -> Result<Plan, QueryError> {
        let estimates = query
            .conditions
            .iter()
            .map(|c| self.estimate_condition(c))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(plan_conjunction(self.n, &estimates))
    }

    /// Normalizes, plans and executes a predicate.
    pub fn execute(&self, predicate: &Predicate) -> Result<QueryOutcome, QueryError> {
        let query = predicate.normalize()?;
        self.execute_conjunctive(&query)
    }

    /// Executes `predicate` and renders its [`PlanTrace`] as an
    /// `EXPLAIN ANALYZE`-style report: chosen strategy, per-condition
    /// order with estimate vs. actual cardinality, blocks read, and
    /// degradation flags.
    pub fn explain(&self, predicate: &Predicate) -> Result<String, QueryError> {
        Ok(self.execute(predicate)?.trace.render())
    }

    /// Plans and executes an already-normalized conjunction.
    ///
    /// The planner consults the quarantine: conditions on healthy indexes
    /// keep their ascending-estimate order and run *first* (cheap index
    /// filters shrink the candidate set), quarantined attributes sort
    /// last and are answered by the table-scan fallback. The plan's
    /// degradation is reported in [`QueryOutcome::degraded`].
    pub fn execute_conjunctive(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<QueryOutcome, QueryError> {
        let mut plan = self.plan_query(query)?;
        // Re-sort by (quarantined, estimate, index): a stable refinement
        // of the healthy order that pushes degraded conditions to the
        // back without touching the Plan shape.
        let estimates: HashMap<usize, u64> = plan
            .order
            .iter()
            .zip(&plan.estimates)
            .map(|(&i, &z)| (i, z))
            .collect();
        plan.order.sort_by_key(|&i| {
            (
                self.is_quarantined(&query.conditions[i].attr),
                estimates[&i],
                i,
            )
        });
        plan.estimates = plan.order.iter().map(|&i| estimates[&i]).collect();
        self.run(query, plan)
    }

    /// Replay entry point: executes `query` with a forced condition order
    /// and combine strategy, bypassing the planner. The differential and
    /// I/O-parity suites drive every branch through here.
    pub fn execute_forced(
        &self,
        query: &ConjunctiveQuery,
        order: &[usize],
        strategy: CombineStrategy,
    ) -> Result<QueryOutcome, QueryError> {
        assert_eq!(
            order.len(),
            query.len(),
            "forced order must cover every condition"
        );
        let mut seen = vec![false; query.len()];
        for &i in order {
            assert!(
                i < query.len() && !std::mem::replace(&mut seen[i], true),
                "forced order must be a permutation of 0..{} (got {order:?})",
                query.len()
            );
        }
        let estimates = order
            .iter()
            .map(|&i| self.estimate_condition(&query.conditions[i]))
            .collect::<Result<Vec<_>, _>>()?;
        let plan = Plan {
            order: order.to_vec(),
            estimates,
            strategy,
        };
        self.run(query, plan)
    }

    /// Answers one condition by scanning its attached source column —
    /// the degraded path for quarantined attributes. Charges no
    /// simulated I/O (the scan reads table memory, not index payload).
    fn scan_condition(
        &self,
        col: &IndexedColumn,
        cond: &AttrCondition,
    ) -> Result<RidSet, QueryError> {
        let data = self
            .sources
            .get(&col.name)
            .ok_or_else(|| QueryError::Quarantined(col.name.clone()))?;
        let base = match Self::clamp(col, cond) {
            None => RidSet::from_positions(GapBitmap::empty(self.n)),
            Some((lo, hi)) => naive_query(data, lo, hi),
        };
        Ok(if cond.negated { base.negate() } else { base })
    }

    /// Runs one condition's index query under a fresh session, returning
    /// the (possibly negated) compressed result, the session stats, and
    /// whether the condition was answered degraded.
    ///
    /// Fault handling, per [`ErrorClass`]: a corrupt fetch quarantines
    /// its extent and retries the condition as a table scan (the error
    /// surfaces only if no source column is attached); transient and
    /// permanent failures propagate as [`QueryError::Read`] — by the
    /// time they reach here the store's retries (if it was opened with
    /// any) are spent, and no rebuild would change the outcome.
    fn eval_condition(&self, cond: &AttrCondition) -> Result<(RidSet, IoStats, bool), QueryError> {
        let col = self.column(&cond.attr)?;
        if self.is_quarantined(&cond.attr) {
            let rows = self.scan_condition(col, cond)?;
            return Ok((rows, IoStats::default(), true));
        }
        let io = IoSession::new();
        let base = match Self::clamp(col, cond) {
            None => RidSet::from_positions(GapBitmap::empty(self.n)),
            Some((lo, hi)) => match col.index.try_query(lo, hi, &io) {
                Ok(rows) => rows,
                Err(e) if e.class == ErrorClass::Corrupt => {
                    let fresh = self
                        .quarantine_lock()
                        .entry(cond.attr.clone())
                        .or_default()
                        .insert(e.extent.0);
                    if fresh {
                        query_metrics().quarantine_events.inc();
                    }
                    let rows = self
                        .scan_condition(col, cond)
                        .map_err(|_| QueryError::Read(e))?;
                    return Ok((rows, io.stats(), true));
                }
                Err(e) => return Err(QueryError::Read(e)),
            },
        };
        let rows = if cond.negated { base.negate() } else { base };
        Ok((rows, io.stats(), false))
    }

    fn run(&self, query: &ConjunctiveQuery, plan: Plan) -> Result<QueryOutcome, QueryError> {
        let t0 = std::time::Instant::now();
        let m = query_metrics();
        // The empty conjunction matches every row: the complement of the
        // empty set, produced without touching any index.
        if query.is_empty() {
            let rows = RidSet::from_complement(GapBitmap::empty(self.n));
            let trace = PlanTrace {
                strategy: plan.strategy,
                conditions: Vec::new(),
                result_rows: rows.cardinality(),
                elapsed_ns: t0.elapsed().as_nanos() as u64,
            };
            m.executed.inc();
            m.rows.record(trace.result_rows);
            m.latency_ns.record_since(t0);
            return Ok(QueryOutcome {
                rows,
                plan,
                io: IoStats::default(),
                degraded: Vec::new(),
                trace,
            });
        }
        let mut io = IoStats::default();
        let mut degraded = Vec::new();
        let mut results = Vec::with_capacity(plan.order.len());
        let mut conditions = Vec::with_capacity(plan.order.len());
        for (k, &i) in plan.order.iter().enumerate() {
            let cond = &query.conditions[i];
            let c0 = std::time::Instant::now();
            let (rows, stats, fell_back) = self.eval_condition(cond)?;
            io = io.merged(&stats);
            if fell_back && !degraded.contains(&cond.attr) {
                degraded.push(cond.attr.clone());
            }
            conditions.push(CondTrace {
                attr: cond.attr.clone(),
                negated: cond.negated,
                estimate: plan.estimates[k],
                actual: rows.cardinality(),
                blocks_read: stats.reads,
                elapsed_ns: c0.elapsed().as_nanos() as u64,
                degraded: fell_back,
            });
            results.push(rows);
        }
        degraded.sort();
        let rows = match plan.strategy {
            CombineStrategy::Gallop => {
                let mut iter = results.into_iter();
                let first = iter.next().expect("non-empty conjunction");
                iter.fold(first, |acc, r| acc.intersect(&r))
            }
            CombineStrategy::Probe => probe_combine(&results, self.n),
            CombineStrategy::Scan => coscan_combine(&results, self.n),
        };
        let trace = PlanTrace {
            strategy: plan.strategy,
            conditions,
            result_rows: rows.cardinality(),
            elapsed_ns: t0.elapsed().as_nanos() as u64,
        };
        m.executed.inc();
        m.rows.record(trace.result_rows);
        m.latency_ns.record_since(t0);
        if !degraded.is_empty() {
            m.degraded.inc();
        }
        Ok(QueryOutcome {
            rows,
            plan,
            io,
            degraded,
            trace,
        })
    }

    /// Rebuilds one attribute's index from its attached source column
    /// and clears the attribute's quarantine — the online repair that
    /// restores the index path after corruption.
    ///
    /// The swap is atomic at the table level: queries either see the old
    /// (quarantined, scan-degraded) index or the fresh one, never a
    /// partial rebuild. `build_index` receives the source values and the
    /// column's alphabet, exactly like [`IndexedTable::build`]'s hook.
    pub fn rebuild_attribute<F>(&mut self, attr: &str, build_index: F) -> Result<(), QueryError>
    where
        F: FnOnce(&[Symbol], u32) -> Box<dyn SecondaryIndex>,
    {
        let n = self.n;
        let col = self
            .columns
            .iter_mut()
            .find(|c| c.name == attr)
            .ok_or_else(|| QueryError::UnknownAttribute(attr.to_string()))?;
        let data = self
            .sources
            .get(attr)
            .ok_or_else(|| QueryError::Quarantined(attr.to_string()))?;
        let fresh = build_index(data, col.sigma);
        assert_eq!(fresh.len(), n, "rebuilt index length mismatch on {attr}");
        col.index = fresh;
        self.quarantine_lock().remove(attr);
        Ok(())
    }
}

/// Semi-join combine: decode the first (smallest) result and keep each
/// row that every other result holds, with no intermediate re-encoding.
/// A result that [prefers words](RidSet::prefers_words) for that many
/// probes — dense, and unable to gallop — is decoded once into its word
/// bitset and tested bit by bit (`kernel/intersect_words`); the others
/// answer `contains` from their skip directories, one `O(lg z)` probe
/// per (row, condition).
fn probe_combine(results: &[RidSet], universe: u64) -> RidSet {
    let (first, rest) = results.split_first().expect("non-empty conjunction");
    let probes = first.cardinality();
    let words: Vec<Option<Vec<u64>>> = rest
        .iter()
        .map(|r| {
            r.prefers_words(probes).then(|| {
                psi_bits::kernel::metrics().intersect_words.inc();
                r.to_words()
            })
        })
        .collect();
    let mut rows = first.to_vec();
    rows.retain(|&p| {
        rest.iter().zip(&words).all(|(r, w)| match w {
            Some(w) => (w[(p >> 6) as usize] >> (p & 63)) & 1 != 0,
            None => r.contains(p),
        })
    });
    RidSet::from_positions(GapBitmap::from_sorted(&rows, universe))
}

/// Linear k-way co-scan: advance all logical streams in lockstep,
/// emitting positions present in every one. `O(Σ zᵢ)` — the fallback for
/// dense, non-selective inputs where no gallop can jump.
fn coscan_combine(results: &[RidSet], universe: u64) -> RidSet {
    let mut iters: Vec<_> = results.iter().map(|r| r.iter().peekable()).collect();
    let mut out = Vec::new();
    // `bound` is the smallest position any stream may still contribute;
    // each pass advances every stream to it. A pass either agrees on one
    // position (emitted) or raises the bound — so the scan is linear in
    // the summed logical sizes.
    let mut bound = 0u64;
    'outer: loop {
        let mut max = bound;
        let mut agree = true;
        for it in iters.iter_mut() {
            while it.peek().is_some_and(|&p| p < max) {
                it.next();
            }
            match it.peek() {
                None => break 'outer,
                Some(&p) if p > max => {
                    max = p;
                    agree = false;
                }
                Some(_) => {}
            }
        }
        if agree {
            out.push(max);
            bound = max + 1;
            for it in iters.iter_mut() {
                it.next();
            }
        } else {
            bound = max;
        }
    }
    RidSet::from_positions(GapBitmap::from_sorted(&out, universe))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_api::naive_query;

    /// A toy index for executor unit tests: queries scan an in-memory
    /// string (charging nothing), with an exact hint.
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
        fn try_query(
            &self,
            lo: Symbol,
            hi: Symbol,
            _io: &IoSession,
        ) -> Result<RidSet, psi_api::ReadError> {
            Ok(naive_query(&self.data, lo, hi))
        }
        fn cardinality_hint(&self, lo: Symbol, hi: Symbol) -> Option<u64> {
            Some(
                self.data
                    .iter()
                    .filter(|&&s| (lo..=hi).contains(&s))
                    .count() as u64,
            )
        }
    }

    /// [`ScanIndex`] without the hint: exercises the uniformity fallback.
    struct NoHintIndex(ScanIndex);

    impl SecondaryIndex for NoHintIndex {
        fn len(&self) -> u64 {
            self.0.len()
        }
        fn sigma(&self) -> Symbol {
            self.0.sigma()
        }
        fn space_bits(&self) -> u64 {
            0
        }
        fn try_query(
            &self,
            lo: Symbol,
            hi: Symbol,
            io: &IoSession,
        ) -> Result<RidSet, psi_api::ReadError> {
            self.0.try_query(lo, hi, io)
        }
    }

    fn indexed(cols: &[(&str, u32, Vec<Symbol>)]) -> IndexedTable {
        IndexedTable::from_columns(
            cols.iter()
                .map(|(name, sigma, data)| IndexedColumn {
                    name: (*name).to_string(),
                    sigma: *sigma,
                    index: Box::new(ScanIndex {
                        data: data.clone(),
                        sigma: *sigma,
                    }),
                })
                .collect(),
        )
    }

    #[test]
    fn executes_all_strategies_identically() {
        let t = indexed(&[
            ("a", 4, vec![0, 1, 2, 3, 1, 2, 0, 1]),
            ("b", 3, vec![2, 2, 1, 0, 0, 2, 1, 2]),
        ]);
        let q = Predicate::and([Predicate::range("a", 1, 2), Predicate::point("b", 2)])
            .normalize()
            .unwrap();
        let want = vec![1, 5, 7];
        for strategy in [
            CombineStrategy::Gallop,
            CombineStrategy::Probe,
            CombineStrategy::Scan,
        ] {
            for order in [vec![0, 1], vec![1, 0]] {
                let got = t.execute_forced(&q, &order, strategy).unwrap();
                assert_eq!(got.rows.to_vec(), want, "{strategy:?} {order:?}");
            }
        }
        let auto = t.execute_conjunctive(&q).unwrap();
        assert_eq!(auto.rows.to_vec(), want);
    }

    #[test]
    fn empty_conjunction_matches_all_rows() {
        let t = indexed(&[("a", 2, vec![0, 1, 0])]);
        let out = t.execute(&Predicate::and([])).unwrap();
        assert_eq!(out.rows.to_vec(), vec![0, 1, 2]);
        assert!(out.rows.is_complemented());
        assert_eq!(out.io, IoStats::default());
    }

    #[test]
    fn negation_and_out_of_alphabet_ranges() {
        let t = indexed(&[("a", 4, vec![0, 1, 2, 3, 1])]);
        // ¬(a ∈ [1,2]) = {0, 3}.
        let not_mid = Predicate::not(Predicate::range("a", 1, 2));
        assert_eq!(t.execute(&not_mid).unwrap().rows.to_vec(), vec![0, 3]);
        // A range entirely outside the alphabet matches nothing; its
        // negation matches everything.
        let beyond = Predicate::range("a", 9, 12);
        assert!(t.execute(&beyond).unwrap().rows.is_empty());
        assert_eq!(
            t.execute(&Predicate::not(beyond))
                .unwrap()
                .rows
                .cardinality(),
            5
        );
        // A range straddling the alphabet edge is clamped.
        let straddle = Predicate::range("a", 2, 40);
        assert_eq!(t.execute(&straddle).unwrap().rows.to_vec(), vec![2, 3]);
    }

    #[test]
    fn empty_table_executes_without_hints() {
        // Regression: the uniformity fallback used clamp(1, 0) on n == 0,
        // which panics. Hint-less indexes over an empty table must plan
        // and execute to the empty result instead.
        let t = IndexedTable::from_columns(vec![IndexedColumn {
            name: "a".into(),
            sigma: 4,
            index: Box::new(NoHintIndex(ScanIndex {
                data: vec![],
                sigma: 4,
            })),
        }]);
        let out = t.execute(&Predicate::range("a", 1, 2)).unwrap();
        assert!(out.rows.is_empty());
        // And the fallback estimate is exercised on a non-empty table.
        let t2 = IndexedTable::from_columns(vec![IndexedColumn {
            name: "a".into(),
            sigma: 4,
            index: Box::new(NoHintIndex(ScanIndex {
                data: vec![0, 1, 2, 3, 1, 2],
                sigma: 4,
            })),
        }]);
        let q = Predicate::range("a", 1, 2).normalize().unwrap();
        assert_eq!(t2.estimate_condition(&q.conditions[0]).unwrap(), 3);
        assert_eq!(
            t2.execute_conjunctive(&q).unwrap().rows.to_vec(),
            vec![1, 2, 4, 5]
        );
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let t = indexed(&[("a", 2, vec![0, 1])]);
        let err = t.execute(&Predicate::point("missing", 0)).unwrap_err();
        assert_eq!(err, QueryError::UnknownAttribute("missing".into()));
    }

    /// An index whose reads fail with a scripted [`psi_api::ReadError`]
    /// until `healthy` flips — the unit-level stand-in for a store whose
    /// verified fetches detect corruption.
    struct FailingIndex {
        inner: ScanIndex,
        error: psi_api::ReadError,
        healthy: std::sync::atomic::AtomicBool,
    }

    impl SecondaryIndex for FailingIndex {
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn sigma(&self) -> Symbol {
            self.inner.sigma()
        }
        fn space_bits(&self) -> u64 {
            0
        }
        fn try_query(
            &self,
            lo: Symbol,
            hi: Symbol,
            io: &IoSession,
        ) -> Result<RidSet, psi_api::ReadError> {
            if self.healthy.load(std::sync::atomic::Ordering::Relaxed) {
                Ok(self.inner.query(lo, hi, io))
            } else {
                Err(self.error.clone())
            }
        }
    }

    fn failing_table(class: ErrorClass) -> (IndexedTable, Vec<Symbol>, Vec<Symbol>) {
        let data_a: Vec<Symbol> = vec![0, 1, 2, 3, 1, 2, 0, 1];
        let data_b: Vec<Symbol> = vec![2, 2, 1, 0, 0, 2, 1, 2];
        let table = IndexedTable::from_columns(vec![
            IndexedColumn {
                name: "a".into(),
                sigma: 4,
                index: Box::new(FailingIndex {
                    inner: ScanIndex {
                        data: data_a.clone(),
                        sigma: 4,
                    },
                    error: psi_api::ReadError {
                        class,
                        extent: psi_io::ExtentId(7),
                        block: 3,
                        message: "scripted fault".into(),
                    },
                    healthy: std::sync::atomic::AtomicBool::new(false),
                }),
            },
            IndexedColumn {
                name: "b".into(),
                sigma: 3,
                index: Box::new(ScanIndex {
                    data: data_b.clone(),
                    sigma: 3,
                }),
            },
        ]);
        (table, data_a, data_b)
    }

    #[test]
    fn corrupt_fetch_quarantines_and_degrades_to_scan() {
        let (mut t, data_a, _) = failing_table(ErrorClass::Corrupt);
        t.attach_column_data("a", data_a).unwrap();
        let q = Predicate::and([Predicate::range("a", 1, 2), Predicate::point("b", 2)])
            .normalize()
            .unwrap();
        let out = t.execute_conjunctive(&q).expect("degrades, not errors");
        assert_eq!(out.rows.to_vec(), vec![1, 5, 7]);
        assert_eq!(out.degraded, vec!["a".to_string()]);
        assert_eq!(t.quarantined_extents("a"), vec![7]);
        // The quarantine now reorders planning: the healthy "b" condition
        // filters first even though "a" estimates smaller.
        let out2 = t.execute_conjunctive(&q).unwrap();
        assert_eq!(out2.plan.order, vec![1, 0]);
        assert_eq!(out2.rows.to_vec(), vec![1, 5, 7]);
        assert_eq!(out2.degraded, vec!["a".to_string()]);
    }

    #[test]
    fn corrupt_fetch_without_sources_is_a_typed_error() {
        let (t, _, _) = failing_table(ErrorClass::Corrupt);
        let err = t.execute(&Predicate::point("a", 1)).unwrap_err();
        match err {
            QueryError::Read(e) => assert_eq!(e.class, ErrorClass::Corrupt),
            other => panic!("expected Read error, got {other:?}"),
        }
        // The extent was still quarantined; a later query hits the
        // quarantine first and reports the missing fallback.
        assert_eq!(t.quarantined_extents("a"), vec![7]);
        assert_eq!(
            t.execute(&Predicate::point("a", 1)).unwrap_err(),
            QueryError::Quarantined("a".into())
        );
    }

    #[test]
    fn transient_and_permanent_faults_propagate_without_quarantine() {
        for class in [ErrorClass::Transient, ErrorClass::Permanent] {
            let (mut t, data_a, _) = failing_table(class);
            t.attach_column_data("a", data_a).unwrap();
            let err = t.execute(&Predicate::point("a", 1)).unwrap_err();
            match err {
                QueryError::Read(e) => assert_eq!(e.class, class),
                other => panic!("expected Read error, got {other:?}"),
            }
            // Only corruption quarantines: these faults are not the
            // index's fault, so no degradation state is left behind.
            assert!(!t.is_quarantined("a"));
        }
    }

    #[test]
    fn rebuild_attribute_restores_the_index_path() {
        let (mut t, data_a, _) = failing_table(ErrorClass::Corrupt);
        t.attach_column_data("a", data_a.clone()).unwrap();
        let q = Predicate::range("a", 1, 2).normalize().unwrap();
        let degraded = t.execute_conjunctive(&q).unwrap();
        assert_eq!(degraded.degraded, vec!["a".to_string()]);
        assert!(t.is_quarantined("a"));
        t.rebuild_attribute("a", |symbols, sigma| {
            Box::new(ScanIndex {
                data: symbols.to_vec(),
                sigma,
            })
        })
        .unwrap();
        assert!(!t.is_quarantined("a"));
        let healthy = t.execute_conjunctive(&q).unwrap();
        assert_eq!(healthy.rows.to_vec(), degraded.rows.to_vec());
        assert!(healthy.degraded.is_empty());
        // Rebuilding an unknown attribute is typed.
        assert_eq!(
            t.rebuild_attribute("zzz", |s, sigma| Box::new(ScanIndex {
                data: s.to_vec(),
                sigma
            }))
            .unwrap_err(),
            QueryError::UnknownAttribute("zzz".into())
        );
    }

    #[test]
    fn trace_records_estimates_actuals_and_explain_renders() {
        let t = indexed(&[
            ("a", 4, vec![0, 1, 2, 3, 1, 2, 0, 1]),
            ("b", 3, vec![2, 2, 1, 0, 0, 2, 1, 2]),
        ]);
        let pred = Predicate::and([Predicate::range("a", 1, 2), Predicate::point("b", 2)]);
        let q = pred.normalize().unwrap();
        let out = t.execute_conjunctive(&q).unwrap();
        assert_eq!(out.trace.strategy, out.plan.strategy);
        assert_eq!(out.trace.conditions.len(), 2);
        for (k, &i) in out.plan.order.iter().enumerate() {
            let c = &out.trace.conditions[k];
            assert_eq!(c.attr, q.conditions[i].attr, "trace in execution order");
            assert_eq!(c.estimate, out.plan.estimates[k]);
            // ScanIndex hints are exact, so estimate == actual here.
            assert_eq!(c.actual, c.estimate);
            assert!(!c.degraded);
        }
        assert_eq!(out.trace.result_rows, out.rows.cardinality());
        assert!((out.trace.worst_misestimate() - 1.0).abs() < 1e-9);
        let text = t.explain(&pred).unwrap();
        assert!(text.contains("result: 3 row(s)"), "got: {text}");

        // A degraded condition is flagged in its trace entry.
        let (mut ft, data_a, _) = failing_table(ErrorClass::Corrupt);
        ft.attach_column_data("a", data_a).unwrap();
        let out = ft.execute_conjunctive(&q).unwrap();
        let a_trace = out
            .trace
            .conditions
            .iter()
            .find(|c| c.attr == "a")
            .expect("condition on a");
        assert!(a_trace.degraded);
    }

    #[test]
    fn quarantine_snapshot_lists_attrs_and_extents_sorted() {
        let t = indexed(&[("a", 4, vec![0, 1, 2, 3]), ("b", 3, vec![2, 2, 1, 0])]);
        assert!(t.quarantine_snapshot().is_empty());
        t.quarantine_extent("b", 9).unwrap();
        t.quarantine_extent("a", 5).unwrap();
        t.quarantine_extent("a", 2).unwrap();
        t.quarantine_extent("a", 5).unwrap(); // duplicate: no new event
        assert_eq!(
            t.quarantine_snapshot(),
            vec![("a".to_string(), vec![2, 5]), ("b".to_string(), vec![9]),]
        );
    }

    #[test]
    fn planner_orders_by_selectivity() {
        // Condition 0 is broad (6/8 rows), condition 1 selective (1/8).
        let t = indexed(&[
            ("broad", 2, vec![0, 0, 0, 0, 1, 0, 0, 1]),
            ("narrow", 8, vec![0, 1, 2, 3, 4, 5, 6, 7]),
        ]);
        let q = Predicate::and([Predicate::point("broad", 0), Predicate::point("narrow", 3)])
            .normalize()
            .unwrap();
        let plan = t.plan_query(&q).unwrap();
        assert_eq!(plan.order, vec![1, 0]);
        assert_eq!(plan.estimates, vec![1, 6]);
        // 1 · PROBE_RATIO > 6, so the gap is not wide enough to probe.
        assert_eq!(plan.strategy, CombineStrategy::Gallop);
        assert_eq!(t.execute_conjunctive(&q).unwrap().rows.to_vec(), vec![3u64]);
    }
}
