//! I/O-accounting invariants of the conjunctive executor.
//!
//! Every combine strategy consumes the same per-condition covers, so for
//! one predicate set all of them must report **identical** `IoSession`
//! block counts — the query-layer analogue of PR 2's forced-heap merge
//! replay. And because each condition runs under its own fresh session,
//! the executor's reported cost must equal the sum of the standalone
//! `query_measured` calls — which is how skip-directory lifts (charged by
//! the underlying indexes for large covers) are proven to be charged
//! through the conjunctive path too.

use psi_api::SecondaryIndex;
use psi_baselines::*;
use psi_core::*;
use psi_io::{IoConfig, IoStats};
use psi_query::{CombineStrategy, IndexedTable, Predicate};
use psi_workloads::{people_table, Column, Table};

type BuildFn = fn(&[u32], u32) -> Box<dyn SecondaryIndex>;

fn cfg() -> IoConfig {
    IoConfig::with_block_bits(1024)
}

fn families() -> Vec<(&'static str, BuildFn)> {
    vec![
        ("optimal", |s, sigma| {
            Box::new(OptimalIndex::build(s, sigma, cfg()))
        }),
        ("uniform_tree", |s, sigma| {
            Box::new(UniformTreeIndex::build(s, sigma, cfg()))
        }),
        ("position_list", |s, sigma| {
            Box::new(PositionListIndex::build(s, sigma, cfg()))
        }),
        ("compressed_scan", |s, sigma| {
            Box::new(CompressedScanIndex::build(s, sigma, cfg()))
        }),
        ("binned_w4", |s, sigma| {
            Box::new(BinnedBitmapIndex::build(s, sigma, 4, cfg()))
        }),
        ("multires_w4", |s, sigma| {
            Box::new(MultiResolutionIndex::build(s, sigma, 4, cfg()))
        }),
        ("range_encoded", |s, sigma| {
            Box::new(RangeEncodedIndex::build(s, sigma, cfg()))
        }),
    ]
}

/// All strategies and all orders charge the same blocks for the same
/// predicate set, and the total equals the sum of the standalone
/// per-condition queries.
#[test]
fn every_strategy_charges_identical_io() {
    let table = people_table(20_000, 7);
    let predicate = Predicate::and([
        Predicate::point("marital_status", 1),
        Predicate::not(Predicate::point("sex", 1)),
        Predicate::range("age", 30, 35),
    ]);
    let query = predicate.normalize().unwrap();
    for (name, build) in families() {
        let indexed = IndexedTable::build(&table, |s, sigma| build(s, sigma));
        let planned = indexed.plan_query(&query).unwrap();
        let reference = indexed
            .execute_forced(&query, &planned.order, CombineStrategy::Gallop)
            .unwrap();
        assert!(reference.io.reads > 0, "{name} charged nothing");
        let left_to_right: Vec<usize> = (0..query.len()).collect();
        let mut reversed = planned.order.clone();
        reversed.reverse();
        for strategy in [
            CombineStrategy::Gallop,
            CombineStrategy::Probe,
            CombineStrategy::Scan,
        ] {
            for order in [
                planned.order.clone(),
                left_to_right.clone(),
                reversed.clone(),
            ] {
                let got = indexed.execute_forced(&query, &order, strategy).unwrap();
                assert_eq!(
                    got.io, reference.io,
                    "{name} {strategy:?} {order:?}: strategies must charge \
                     identical I/O for identical covers"
                );
                assert_eq!(got.rows.to_vec(), reference.rows.to_vec());
            }
        }
        // The conjunctive cost is exactly the sum of the standalone
        // per-condition queries (each condition is its own operation).
        let mut standalone = IoStats::default();
        for cond in &query.conditions {
            let col = table.column(&cond.attr).unwrap();
            let idx = build(&col.data, col.sigma);
            let (_, stats) = idx.query_measured(cond.lo, cond.hi.min(col.sigma - 1));
            standalone = standalone.merged(&stats);
        }
        assert_eq!(
            reference.io, standalone,
            "{name}: conjunctive cost must equal the summed standalone queries"
        );
    }
}

/// Repeated conditions on one attribute collapse to their intersection
/// at normalize time, so the executed plan probes that attribute's index
/// once and charges exactly what the pre-intersected single-condition
/// predicate charges — never a second probe.
#[test]
fn collapsed_same_attribute_conditions_charge_single_probe_io() {
    let table = people_table(20_000, 7);
    let doubled = Predicate::and([
        Predicate::range("age", 28, 40),
        Predicate::point("sex", 0),
        Predicate::range("age", 30, 35),
    ]);
    let single = Predicate::and([Predicate::range("age", 30, 35), Predicate::point("sex", 0)]);
    let q = doubled.normalize().unwrap();
    assert_eq!(q.len(), 2, "same-attribute conditions must collapse");
    for (name, build) in families() {
        let indexed = IndexedTable::build(&table, |s, sigma| build(s, sigma));
        let got = indexed.execute(&doubled).unwrap();
        assert_eq!(got.rows.to_vec(), doubled.naive_rows(&table), "{name} rows");
        let want = indexed.execute(&single).unwrap();
        assert_eq!(
            got.io, want.io,
            "{name}: the collapsed plan must charge the single-condition cost"
        );
    }
    // A conjunction whose same-attribute conditions are disjoint merges
    // into one empty condition: answered without touching that index.
    let impossible = Predicate::and([
        Predicate::range("age", 20, 25),
        Predicate::range("age", 50, 60),
        Predicate::point("sex", 0),
    ]);
    let (indexed_name, build) = families().remove(0);
    let indexed = IndexedTable::build(&table, |s, sigma| build(s, sigma));
    let got = indexed.execute(&impossible).unwrap();
    assert!(
        got.rows.is_empty(),
        "{indexed_name}: disjoint ranges match nothing"
    );
    assert_eq!(got.rows.to_vec(), impossible.naive_rows(&table));
    let sex_only = Predicate::point("sex", 0);
    let sex_cost = indexed.execute(&sex_only).unwrap();
    assert_eq!(
        got.io, sex_cost.io,
        "the empty merged condition must charge nothing on top of the \
         surviving condition"
    );
}

/// A single-cover condition is a verbatim copy of one stored bitmap, and
/// charges exactly that bitmap's payload bits, nothing beside it, through
/// the standalone and the conjunctive path alike — however large the
/// result.
#[test]
fn single_cover_conditions_charge_exactly_their_payload() {
    // A hot value of 6000 occurrences: its point query is a single-cover
    // verbatim copy.
    let n = 12_000usize;
    let hot: Vec<u32> = (0..n)
        .map(|i| if i % 2 == 0 { 3 } else { (i % 3) as u32 })
        .collect();
    let other: Vec<u32> = (0..n).map(|i| (i % 5) as u32).collect();
    let table = Table {
        columns: vec![
            Column {
                name: "hot".into(),
                sigma: 4,
                data: hot.clone(),
            },
            Column {
                name: "other".into(),
                sigma: 5,
                data: other,
            },
        ],
    };
    let hot_index = CompressedScanIndex::build(&hot, 4, cfg());
    let (hot_result, hot_stats) = hot_index.query_measured(3, 3);
    assert_eq!(hot_result.cardinality(), 6000);
    assert_eq!(
        hot_stats.bits_read,
        hot_result.size_bits(),
        "a verbatim copy reads its payload and nothing else"
    );
    // The same charge flows through the conjunctive executor.
    let indexed = IndexedTable::build(&table, |s, sigma| {
        Box::new(CompressedScanIndex::build(s, sigma, cfg()))
    });
    let predicate = Predicate::and([Predicate::point("hot", 3), Predicate::range("other", 1, 2)]);
    let outcome = indexed.execute(&predicate).unwrap();
    let other_index =
        CompressedScanIndex::build(table.column("other").unwrap().data.as_slice(), 5, cfg());
    let (_, other_stats) = other_index.query_measured(1, 2);
    assert_eq!(outcome.io, hot_stats.merged(&other_stats));
    assert_eq!(outcome.rows.to_vec(), predicate.naive_rows(&table));
}

#[test]
fn words_slot_lifts_are_charged_through_the_executor() {
    // `sex` and `marital_status=0` are dense enough that their slots
    // store as plain words: their lifts are word copies, charged like
    // any read of those bits, through the conjunctive path as standalone.
    let table = people_table(20_000, 9);
    let indexed = IndexedTable::build(&table, |s, sigma| {
        Box::new(OptimalIndex::build(s, sigma, cfg()))
    });
    let predicate = Predicate::and([
        Predicate::point("sex", 0),
        Predicate::point("marital_status", 0),
    ]);
    let outcome = indexed.execute(&predicate).unwrap();
    assert_eq!(outcome.rows.to_vec(), predicate.naive_rows(&table));
    let mut standalone = IoStats::default();
    for (attr, value) in [("sex", 0), ("marital_status", 0)] {
        let column = table.column(attr).unwrap();
        let index = OptimalIndex::build(&column.data, column.sigma, cfg());
        let (rows, stats) = index.query_measured(value, value);
        assert!(
            rows.stored().plain_words().is_some(),
            "{attr}={value} did not lift as words"
        );
        standalone = standalone.merged(&stats);
    }
    assert_eq!(outcome.io, standalone);
}

/// Every family's engine path answers the conjunction exactly.
#[test]
fn every_family_executes_to_naive_rows() {
    let table = people_table(20_000, 7);
    let predicate = Predicate::and([
        Predicate::point("marital_status", 1),
        Predicate::not(Predicate::point("sex", 1)),
        Predicate::range("age", 30, 35),
    ]);
    for (name, build) in families() {
        let indexed = IndexedTable::build(&table, |s, sigma| build(s, sigma));
        let outcome = indexed.execute(&predicate).unwrap();
        assert_eq!(
            outcome.rows.to_vec(),
            predicate.naive_rows(&table),
            "{name}"
        );
    }
}

/// The planner's estimates agree with the executed cardinalities for
/// hint-bearing indexes (exact counts), so ordering really is by true
/// selectivity on the engine path.
#[test]
fn estimates_are_exact_for_hint_bearing_indexes() {
    let table = people_table(8_000, 21);
    let indexed = IndexedTable::build(&table, |s, sigma| {
        Box::new(OptimalIndex::build(s, sigma, cfg()))
    });
    let predicate = Predicate::and([
        Predicate::point("sex", 0),
        Predicate::range("age", 30, 35),
        Predicate::point("marital_status", 2),
    ]);
    let query = predicate.normalize().unwrap();
    let plan = indexed.plan_query(&query).unwrap();
    // Each estimate equals the naive per-condition count.
    for (k, &i) in plan.order.iter().enumerate() {
        let cond = &query.conditions[i];
        let col = table.column(&cond.attr).unwrap();
        let true_z = col
            .data
            .iter()
            .filter(|&&v| (cond.lo..=cond.hi).contains(&v))
            .count() as u64;
        assert_eq!(plan.estimates[k], true_z, "estimate for {}", cond.attr);
    }
    // And the order is ascending.
    assert!(plan.estimates.windows(2).all(|w| w[0] <= w[1]));
}
