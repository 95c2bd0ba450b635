//! The concurrent read path, end to end: one opened (or built) index
//! shared by many query threads.
//!
//! Three properties are pinned here, each "asserted in a test, not just
//! the bench" (ISSUE 5):
//!
//! 1. **Cold-cache parity at every thread count.** On a fresh File/Mmap
//!    open, running a query workload split across 1, 2, 4 or 8 threads
//!    performs exactly the same real block fetches as the workload's
//!    distinct-block charge (the union of simulated charges, measured by
//!    replaying the same queries under one shared session). Racing
//!    threads never double-fetch (the shard lock makes the loser hit)
//!    and never skip a charge (sessions are per-query, deduplicating
//!    only within themselves).
//! 2. **Charge parity per query.** A query charges the same `IoStats`
//!    whether it runs alone, cold, warm, or while seven other threads
//!    race it — including the skip-directory lifts whose `OnceLock`
//!    lazy builds race on the same cold slot.
//! 3. **Determinism.** The batch executor returns bit-identical results
//!    to sequential execution for every index family.

use std::sync::Arc;

use psi::baselines::*;
use psi::store::{open, Backend, OpenOptions, PersistIndex};
use psi::{
    naive_query, IoConfig, IoSession, IoStats, OptimalIndex, Predicate, SecondaryIndex,
    UniformTreeIndex,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The fixed query workload: a mix of points, narrow and broad ranges.
fn workload(sigma: u32) -> Vec<(u32, u32)> {
    let mut qs = Vec::new();
    for i in 0..16u32 {
        let lo = (i * 37) % sigma;
        qs.push((lo, lo));
        qs.push((lo, (lo + 5).min(sigma - 1)));
        qs.push((lo / 2, (lo / 2 + sigma / 3).min(sigma - 1)));
    }
    qs
}

fn store_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("psi_concurrent_read");
    std::fs::create_dir_all(&dir).expect("store dir");
    dir
}

/// Distinct-block union charge of the workload: the same queries replayed
/// sequentially under **one** shared session, whose residency set
/// deduplicates across queries — exactly the set of blocks a cold pool
/// must fetch, however many threads later split the work.
fn union_charge<I: SecondaryIndex>(index: &I, queries: &[(u32, u32)]) -> u64 {
    let shared = IoSession::new();
    for &(lo, hi) in queries {
        let _ = index.query(lo, hi, &shared);
    }
    shared.stats().reads
}

fn cold_parity_for<I>(name: &str, index: &I, sigma: u32)
where
    I: PersistIndex + SecondaryIndex,
{
    let path = store_dir().join(format!("{name}.psi"));
    psi::store::save(index, &path).expect("save");
    let queries = workload(sigma);
    // Solo charges (RAM index: charges are backend-independent by
    // construction) — the per-query parity baseline.
    let solo: Vec<IoStats> = queries
        .iter()
        .map(|&(lo, hi)| index.query_measured(lo, hi).1)
        .collect();
    let expected_rows: Vec<Vec<u64>> = queries
        .iter()
        .map(|&(lo, hi)| index.query_measured(lo, hi).0.to_vec())
        .collect();
    for backend in [Backend::File, Backend::Mmap] {
        let opts = OpenOptions {
            backend,
            pool_blocks: 1 << 16,
            retry: None,
            verify: true,
        };
        let union = {
            let opened = open::<I>(&path, &opts).expect("open");
            union_charge(&opened.index, &queries)
        };
        for threads in THREAD_COUNTS {
            let opened = Arc::new(open::<I>(&path, &opts).expect("open"));
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let opened = Arc::clone(&opened);
                    let queries = &queries;
                    let solo = &solo;
                    let expected_rows = &expected_rows;
                    scope.spawn(move || {
                        for qi in (t..queries.len()).step_by(threads) {
                            let (lo, hi) = queries[qi];
                            let io = IoSession::new();
                            let rows = opened.index.query(lo, hi, &io);
                            assert_eq!(rows.to_vec(), expected_rows[qi], "{name} rows q{qi}");
                            assert_eq!(
                                io.stats(),
                                solo[qi],
                                "{name} {backend:?} q{qi} at {threads} threads: \
                                 charge must not depend on contention"
                            );
                        }
                    });
                }
            });
            assert_eq!(
                opened.real_fetches(),
                union,
                "{name} {backend:?}: cold real reads at {threads} threads \
                 must equal the workload's distinct-block charge"
            );
            // Warm replay on the same pool: zero further fetches.
            let before = opened.real_fetches();
            for &(lo, hi) in &queries {
                let io = IoSession::new();
                let _ = opened.index.query(lo, hi, &io);
            }
            assert_eq!(opened.real_fetches(), before, "{name} warm pool fetches");
        }
    }
}

#[test]
fn cold_real_reads_equal_union_charge_at_every_thread_count_optimal() {
    let s = psi::workloads::zipf(1 << 14, 128, 1.1, 7);
    cold_parity_for(
        "optimal_conc",
        &OptimalIndex::build(&s, 128, IoConfig::default()),
        128,
    );
}

#[test]
fn cold_real_reads_equal_union_charge_at_every_thread_count_compressed_scan() {
    let s = psi::workloads::zipf(1 << 14, 128, 1.1, 8);
    cold_parity_for(
        "cscan_conc",
        &CompressedScanIndex::build(&s, 128, IoConfig::default()),
        128,
    );
}

#[test]
fn cold_real_reads_equal_union_charge_at_every_thread_count_position_list() {
    let s = psi::workloads::uniform(1 << 13, 64, 9);
    cold_parity_for(
        "plist_conc",
        &PositionListIndex::build(&s, 64, IoConfig::default()),
        64,
    );
}

/// Eight threads racing the *same* query on the same cold slots: every
/// payload block is fetched once, and each racer is charged exactly what
/// a solo run charges — the shard-lock contract, asserted as charge
/// parity.
#[test]
fn racing_cold_queries_do_the_work_once_and_charge_alike() {
    // A broad range on compressed_scan reads every per-symbol bitmap, so
    // the race covers the whole payload.
    let sigma = 32u32;
    let s = psi::workloads::zipf(1 << 15, sigma, 0.9, 11);
    let index = CompressedScanIndex::build(&s, sigma, IoConfig::default());
    let path = store_dir().join("race_cold.psi");
    psi::store::save(&index, &path).expect("save");
    let (lo, hi) = (0u32, sigma - 1);
    let (want_rows, solo) = index.query_measured(lo, hi);
    let want_rows = want_rows.to_vec();
    for backend in [Backend::File, Backend::Mmap] {
        let opened = Arc::new(
            open::<CompressedScanIndex>(
                &path,
                &OpenOptions {
                    backend,
                    pool_blocks: 1 << 16,
                    retry: None,
                    verify: true,
                },
            )
            .expect("open"),
        );
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let opened = Arc::clone(&opened);
                let want_rows = &want_rows;
                scope.spawn(move || {
                    let io = IoSession::new();
                    let rows = opened.index.query(lo, hi, &io);
                    assert_eq!(&rows.to_vec(), want_rows);
                    assert_eq!(io.stats(), solo, "racer charged like a solo run");
                });
            }
        });
        assert_eq!(
            opened.real_fetches(),
            solo.reads,
            "{backend:?}: 8 racers fetch each block once, not eight times"
        );
    }
}

/// The `GapBitmap` skip-directory `OnceLock` under a thread race: the
/// lazily built directory answers every thread correctly and identically
/// to an eagerly sampled twin.
#[test]
fn skip_directory_lazy_build_race_is_consistent() {
    use psi::bits::GapBitmap;
    let positions: Vec<u64> = (0..50_000u64).map(|i| i * 7 + (i % 5)).collect();
    let universe = positions.last().unwrap() + 1;
    // `from_code_bits` leaves the skip OnceLock cold — the racing path.
    let eager = GapBitmap::from_sorted(&positions, universe);
    let cold = GapBitmap::from_code_bits(eager.code_bits().clone(), eager.count(), universe);
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let cold = &cold;
            let positions = &positions;
            scope.spawn(move || {
                for k in (t..positions.len() as u64).step_by(997) {
                    assert_eq!(cold.select(k), Some(positions[k as usize]));
                    assert!(cold.contains(positions[k as usize]));
                    assert_eq!(cold.rank(positions[k as usize]), k);
                }
            });
        }
    });
    assert_eq!(cold.skip_dir().entries(), eager.skip_dir().entries());
}

/// Batch executor determinism across the full index spectrum: the
/// parallel outcomes (rows, I/O, plans) are identical to sequential
/// execution for every family.
#[test]
fn batch_executor_matches_sequential_for_every_family() {
    use psi::query::{ConjunctiveQuery, IndexedTable};
    let n = 2000usize;
    let table = psi::workloads::Table::generate(
        n,
        &[
            psi::workloads::ColumnSpec {
                name: "a".into(),
                sigma: 16,
                dist: psi::workloads::Dist::Zipf(1.0),
            },
            psi::workloads::ColumnSpec {
                name: "b".into(),
                sigma: 8,
                dist: psi::workloads::Dist::Uniform,
            },
        ],
        23,
    );
    let batch: Vec<ConjunctiveQuery> = (0..8u32)
        .flat_map(|v| {
            [
                Predicate::point("b", v % 8),
                Predicate::range("a", v, (v + 4).min(15)),
                Predicate::and([
                    Predicate::range("a", v, (v + 6).min(15)),
                    Predicate::point("b", (v + 1) % 8),
                ]),
                Predicate::and([
                    Predicate::not(Predicate::point("a", v)),
                    Predicate::range("b", 0, 5),
                ]),
            ]
        })
        .map(|p| p.normalize().expect("conjunctive"))
        .collect();
    let cfg = IoConfig::with_block_bits(1024);
    type BuildFn = Box<dyn Fn(&[u32], u32) -> Box<dyn SecondaryIndex>>;
    let families: Vec<(&'static str, BuildFn)> = vec![
        (
            "optimal",
            Box::new(move |s, g| Box::new(OptimalIndex::build(s, g, cfg))),
        ),
        (
            "uniform_tree",
            Box::new(move |s, g| Box::new(UniformTreeIndex::build(s, g, cfg))),
        ),
        (
            "semi_dynamic",
            Box::new(move |s, g| Box::new(psi::SemiDynamicIndex::build(s, g, cfg))),
        ),
        (
            "buffered",
            Box::new(move |s, g| Box::new(psi::BufferedIndex::build(s, g, cfg))),
        ),
        (
            "buffered_bitmap",
            Box::new(move |s, g| Box::new(psi::BufferedBitmapIndex::build(s, g, cfg))),
        ),
        (
            "fully_dynamic",
            Box::new(move |s, g| Box::new(psi::FullyDynamicIndex::build(s, g, cfg))),
        ),
        (
            "position_list",
            Box::new(move |s, g| Box::new(PositionListIndex::build(s, g, cfg))),
        ),
        (
            "uncompressed",
            Box::new(move |s, g| Box::new(UncompressedBitmapIndex::build(s, g, cfg))),
        ),
        (
            "compressed_scan",
            Box::new(move |s, g| Box::new(CompressedScanIndex::build(s, g, cfg))),
        ),
        (
            "binned_w4",
            Box::new(move |s, g| Box::new(BinnedBitmapIndex::build(s, g, 4, cfg))),
        ),
        (
            "multires_w4",
            Box::new(move |s, g| Box::new(MultiResolutionIndex::build(s, g, 4, cfg))),
        ),
        (
            "range_encoded",
            Box::new(move |s, g| Box::new(RangeEncodedIndex::build(s, g, cfg))),
        ),
        (
            "interval_encoded",
            Box::new(move |s, g| Box::new(IntervalEncodedIndex::build(s, g, cfg))),
        ),
    ];
    // Ground truth once, from the raw table.
    let truth: Vec<Vec<u64>> = batch
        .iter()
        .map(|q| {
            let mut rows: Option<Vec<u64>> = None;
            for c in &q.conditions {
                let col = table.columns.iter().find(|col| col.name == c.attr).unwrap();
                let base = naive_query(&col.data, c.lo.min(col.sigma - 1), c.hi.min(col.sigma - 1));
                let mut set: Vec<u64> = if c.lo >= col.sigma {
                    Vec::new()
                } else {
                    base.to_vec()
                };
                if c.negated {
                    let all: Vec<u64> = (0..n as u64).collect();
                    set = all.into_iter().filter(|p| !set.contains(p)).collect();
                }
                rows = Some(match rows {
                    None => set,
                    Some(prev) => prev.into_iter().filter(|p| set.contains(p)).collect(),
                });
            }
            rows.unwrap_or_else(|| (0..n as u64).collect())
        })
        .collect();
    for (name, build) in &families {
        let indexed = IndexedTable::build(&table, |s, g| build(s, g));
        let sequential: Vec<_> = batch
            .iter()
            .map(|q| indexed.execute_conjunctive(q).expect("sequential"))
            .collect();
        for threads in [2, 4, 8] {
            let parallel = indexed.execute_batch_settled(&batch, threads);
            for (qi, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
                let p = p.as_ref().expect("batch");
                assert_eq!(
                    p.rows.to_vec(),
                    s.rows.to_vec(),
                    "{name} q{qi} at {threads} threads"
                );
                assert_eq!(p.rows.to_vec(), truth[qi], "{name} q{qi} vs naive");
                assert_eq!(p.io, s.io, "{name} q{qi} io at {threads} threads");
                assert_eq!(p.plan.order, s.plan.order, "{name} q{qi} plan");
            }
        }
    }
}
