//! Machine-readable microbenchmark output (`all_experiments --json`).
//!
//! Emits a `BENCH_NNNN.json` snapshot of the hot-path primitives — gamma
//! decode/encode, k-way merge, end-to-end range queries — so successive
//! PRs can diff ns/op numbers instead of prose claims. The snapshot
//! format is a single JSON object:
//!
//! ```json
//! {
//!   "schema": "psi-bench/1",
//!   "results": [
//!     {"bench": "decode/sparse_batch_100k", "ns_per_iter": 332876.9, "per_element_ns": 3.33},
//!     ...
//!   ]
//! }
//! ```
//!
//! Timing uses the same calibrate-then-sample discipline as the criterion
//! benches (median of `SAMPLES` samples, each at least `TARGET_MS` long),
//! without depending on the bench harness so the binary stays a plain
//! `cargo run` target.

use std::io::Write as _;
use std::time::{Duration, Instant};

use psi_api::SecondaryIndex;
use psi_io::{IoConfig, IoSession};

const SAMPLES: usize = 9;
const TARGET_MS: u64 = 5;

/// One measured entry.
#[derive(Default)]
pub struct JsonResult {
    /// Hierarchical bench name (`group/name`).
    pub bench: String,
    /// Median wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Elements processed per iteration (0 when not meaningful).
    pub elements: u64,
    /// In-memory structure size in bits (0 when not meaningful) — the
    /// `SecondaryIndex::space_bits` of the index the row measures.
    pub space_bits: u64,
    /// On-disk store-file size in bytes (0 when not meaningful) — the
    /// psi-store file the index saves to.
    pub file_bytes: u64,
    /// Queries per second (0 when not meaningful) — the `concurrent/*`
    /// throughput rows; `compare_bench` diffs these with
    /// higher-is-better direction.
    pub qps: f64,
    /// Real backend block fetches (0 when not meaningful) — the
    /// cold-cache rows, equal to the workload's distinct-block charge.
    pub real_reads: u64,
    /// Relative sample spread of the timed rows: interquartile range of
    /// the [`SAMPLES`] per-sample readings divided by their median (0
    /// when the row was not `measure`d). `compare_bench` widens a row's
    /// regression bar by this — a noisy measurement cannot prove a
    /// regression smaller than its own scatter.
    pub spread: f64,
}

/// One timed reading: the median of the samples and their relative
/// spread (see [`JsonResult::spread`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Measured {
    /// Median wall-clock nanoseconds per iteration.
    pub ns: f64,
    /// Interquartile range of the samples over their median.
    pub spread: f64,
}

pub(crate) fn measure<O, F: FnMut() -> O>(mut f: F) -> Measured {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(TARGET_MS) || iters >= 1 << 28 {
            break;
        }
        let grow = if elapsed.is_zero() {
            16.0
        } else {
            (Duration::from_millis(TARGET_MS).as_secs_f64() / elapsed.as_secs_f64())
                .clamp(1.5, 16.0)
        };
        iters = ((iters as f64) * grow).ceil() as u64;
    }
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    ns.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let median = ns[ns.len() / 2];
    let iqr = ns[3 * ns.len() / 4] - ns[ns.len() / 4];
    Measured {
        ns: median,
        spread: if median > 0.0 { iqr / median } else { 0.0 },
    }
}

/// Runs the decode / merge / query microbenchmarks and returns the rows.
pub fn run_microbenches() -> Vec<JsonResult> {
    let mut results = Vec::new();
    let mut push = |bench: &str, m: Measured, elements: u64| {
        println!("{bench:<40} {:>14.1} ns/iter", m.ns);
        results.push(JsonResult {
            bench: bench.to_string(),
            ns_per_iter: m.ns,
            spread: m.spread,
            elements,
            ..Default::default()
        });
    };

    // --- decode ---
    use psi_bits::{codes, merge, BitBuf, GapBitmap};
    let sparse: Vec<u64> = (0..100_000u64).map(|i| i * 13).collect();
    let gap_sparse = GapBitmap::from_sorted(&sparse, 13 * 100_000 + 1);
    let mixed: Vec<u64> = {
        let mut v = Vec::new();
        let mut x = 0u64;
        for i in 0..100_000u64 {
            x += 1 + (i.wrapping_mul(2_654_435_761)) % 200;
            v.push(x);
        }
        v
    };
    let gap_mixed = GapBitmap::from_sorted(&mixed, mixed.last().unwrap() + 1);
    let gap_dense = GapBitmap::from_sorted_iter(0..100_000u64, 100_000);
    let mut out = Vec::with_capacity(100_000);
    push(
        "decode/sparse_iter_100k",
        measure(|| gap_sparse.iter().sum::<u64>()),
        100_000,
    );
    push(
        "decode/sparse_batch_100k",
        measure(|| {
            gap_sparse.decode_all(&mut out);
            out.len()
        }),
        100_000,
    );
    push(
        "decode/mixed_batch_100k",
        measure(|| {
            gap_mixed.decode_all(&mut out);
            out.len()
        }),
        100_000,
    );
    push(
        "decode/dense_batch_100k",
        measure(|| {
            gap_dense.decode_all(&mut out);
            out.len()
        }),
        100_000,
    );
    push(
        "decode/sparse_bitwise_reference_100k",
        measure(|| {
            let mut r = gap_sparse.code_bits().reader();
            let mut prev = u64::MAX;
            for _ in 0..gap_sparse.count() {
                prev = prev.wrapping_add(codes::get_gamma_reference(&mut r));
            }
            prev
        }),
        100_000,
    );
    push(
        "encode/gamma_100k",
        measure(|| {
            let mut buf = BitBuf::new();
            for &p in &sparse {
                codes::put_gamma(&mut buf, p + 1);
            }
            buf.len()
        }),
        100_000,
    );

    // --- merge ---
    let streams: Vec<Vec<u64>> = (0..8u64)
        .map(|k| (0..12_500u64).map(|i| i * 8 + k).collect())
        .collect();
    push(
        "merge/kway_8x12k",
        measure(|| {
            merge::merge_disjoint(
                streams
                    .iter()
                    .map(|s| s.iter().copied())
                    .collect::<Vec<_>>(),
            )
            .count()
        }),
        100_000,
    );
    let (evens, odds): (Vec<u64>, Vec<u64>) = (
        (0..50_000u64).map(|i| i * 2).collect(),
        (0..50_000u64).map(|i| i * 2 + 1).collect(),
    );
    push(
        "merge/two_way_2x50k",
        measure(|| {
            merge::merge_disjoint(vec![evens.iter().copied(), odds.iter().copied()]).count()
        }),
        100_000,
    );
    // The same dense 8-way union through the planner's bitset path
    // (word-array accumulate + trailing_zeros re-encode) — the adaptive
    // answer to merge/kway_8x12k's heap traffic.
    push(
        "merge/adaptive_dense_8x12k",
        measure(|| {
            merge::merge_adaptive(
                streams
                    .iter()
                    .map(|s| s.iter().copied())
                    .collect::<Vec<_>>(),
                100_000,
                100_000,
                Some((0, 99_999)),
            )
            .count()
        }),
        100_000,
    );
    // Wide fan-in, sparse: 32 streams over a 17M universe stay on the
    // heap (avg gap 131 > the planner's bitset threshold).
    let streams32: Vec<Vec<u64>> = (0..32u64)
        .map(|k| (0..4096u64).map(|i| (i * 32 + k) * 131).collect())
        .collect();
    push(
        "merge/kway_32x4k",
        measure(|| {
            merge::merge_adaptive(
                streams32
                    .iter()
                    .map(|s| s.iter().copied())
                    .collect::<Vec<_>>(),
                131 * 32 * 4096 + 1,
                32 * 4096,
                Some((0, 131 * (32 * 4096 - 1))),
            )
            .count()
        }),
        32 * 4096,
    );

    // --- RID set operations (galloping vs full-decode reference) ---
    // The paper's conjunctive shape: a selective condition (1k rows)
    // intersected with a broad one (100k rows). The leapfrog jumps the
    // broad stream through its skip directory instead of decoding it.
    use psi_api::RidSet;
    let rid_universe = 13 * 100_000 + 1;
    let rid_a = RidSet::from_positions(GapBitmap::from_sorted_iter(
        (0..1000u64).map(|i| i * 1300),
        rid_universe,
    ));
    let rid_b = RidSet::from_positions(GapBitmap::from_sorted(&sparse, rid_universe));
    push(
        "intersect/rid_gallop_1kx100k",
        measure(|| rid_a.intersect(&rid_b).cardinality()),
        1000,
    );
    push(
        "intersect/rid_reference_1kx100k",
        measure(|| rid_a.intersect_reference(&rid_b).cardinality()),
        1000,
    );
    let comp_a = RidSet::from_complement(GapBitmap::from_sorted_iter(
        (0..10_000u64).map(|i| i * 97),
        rid_universe,
    ));
    push(
        "intersect/rid_complement_10kx100k",
        measure(|| comp_a.intersect(&rid_b).cardinality()),
        100_000,
    );
    push(
        "intersect/rid_complement_reference_10kx100k",
        measure(|| comp_a.intersect_reference(&rid_b).cardinality()),
        100_000,
    );
    push(
        "contains/rid_probe_sweep_100k",
        measure(|| (0..1000u64).filter(|&i| rid_b.contains(i * 1300)).count()),
        1000,
    );

    // --- conjunctive queries (planner vs fixed left-to-right order on a
    // skewed multi-attribute table; identical simulated I/O, the delta is
    // the CPU-side combine order) ---
    {
        use psi_query::{CombineStrategy, IndexedTable, Predicate};
        let n = 1usize << 16;
        let table = psi_workloads::Table::generate(
            n,
            &[
                psi_workloads::ColumnSpec {
                    name: "a".into(),
                    sigma: 256,
                    dist: psi_workloads::Dist::Zipf(1.1),
                },
                psi_workloads::ColumnSpec {
                    name: "b".into(),
                    sigma: 64,
                    dist: psi_workloads::Dist::Zipf(0.9),
                },
                psi_workloads::ColumnSpec {
                    name: "c".into(),
                    sigma: 1024,
                    dist: psi_workloads::Dist::Zipf(1.3),
                },
            ],
            15,
        );
        let indexed = IndexedTable::build(&table, |s, g| {
            Box::new(psi_core::OptimalIndex::build(s, g, IoConfig::default()))
        });
        // Worst-first: broad Zipf-head ranges lead, the selective tail
        // condition is last.
        let query = Predicate::and([
            Predicate::range("a", 0, 3),
            Predicate::range("b", 0, 7),
            Predicate::range("c", 700, 720),
        ])
        .normalize()
        .expect("conjunctive");
        let fixed_order: Vec<usize> = (0..query.len()).collect();
        push(
            "conjunctive/planned_zipf_3cond",
            measure(|| {
                indexed
                    .execute_conjunctive(&query)
                    .expect("planned")
                    .rows
                    .cardinality()
            }),
            0,
        );
        push(
            "conjunctive/fixed_lr_zipf_3cond",
            measure(|| {
                indexed
                    .execute_forced(&query, &fixed_order, CombineStrategy::Gallop)
                    .expect("fixed")
                    .rows
                    .cardinality()
            }),
            0,
        );
        push(
            "conjunctive/probe_zipf_3cond",
            measure(|| {
                let plan = indexed.plan_query(&query).expect("plan");
                indexed
                    .execute_forced(&query, &plan.order, CombineStrategy::Probe)
                    .expect("probe")
                    .rows
                    .cardinality()
            }),
            0,
        );
    }

    // --- query (end to end, wall clock; I/O-model costs are the
    // experiment binaries' domain) ---
    let n = 1usize << 17;
    let sigma = 256u32;
    let s = psi_workloads::uniform(n, sigma, 1);
    let cfg = IoConfig::default();
    let opt = psi_core::OptimalIndex::build(&s, sigma, cfg);
    let scan = psi_baselines::CompressedScanIndex::build(&s, sigma, cfg);
    let pl = psi_baselines::PositionListIndex::build(&s, sigma, cfg);
    let mr = psi_baselines::MultiResolutionIndex::build(&s, sigma, 4, cfg);
    // On-disk footprint per family (the psi-store save of each index),
    // carried as space_bits/file_bytes columns on the query rows.
    let store_dir = std::env::temp_dir().join("psi_bench_store");
    std::fs::create_dir_all(&store_dir).expect("bench store dir");
    let footprint = |name: &str, idx: &dyn StoreBench| {
        let path = store_dir.join(format!("json_{name}.psi"));
        let file_bytes = idx.save_to(&path);
        (idx.space(), file_bytes, path)
    };
    let foot_opt = footprint("optimal", &opt);
    let foot_scan = footprint("compressed_scan", &scan);
    let foot_pl = footprint("position_list", &pl);
    let foot_mr = footprint("multires4", &mr);
    for width in [1u32, 16, 128] {
        let (lo, hi) = (32, 32 + width - 1);
        let mut q =
            |name: &str, idx: &dyn SecondaryIndex, foot: &(u64, u64, std::path::PathBuf)| {
                let m = measure(|| {
                    let io = IoSession::untracked();
                    idx.query(lo, hi, &io).cardinality()
                });
                let bench = format!("query/{name}_w{width}");
                println!("{bench:<40} {:>14.1} ns/iter", m.ns);
                results.push(JsonResult {
                    bench: format!("query/{name}_w{width}"),
                    ns_per_iter: m.ns,
                    spread: m.spread,
                    space_bits: foot.0,
                    file_bytes: foot.1,
                    ..Default::default()
                });
            };
        q("optimal", &opt, &foot_opt);
        q("compressed_scan", &scan, &foot_scan);
        q("position_list", &pl, &foot_pl);
        q("multires4", &mr, &foot_mr);
    }

    // --- store (E14): save/open/warm-pooled-query wall clock ---
    {
        use psi_store::{open, Backend, OpenOptions};
        let mut push = |bench: &str, m: Measured, space_bits: u64, file_bytes: u64| {
            println!("{bench:<40} {:>14.1} ns/iter", m.ns);
            results.push(JsonResult {
                bench: bench.to_string(),
                ns_per_iter: m.ns,
                spread: m.spread,
                space_bits,
                file_bytes,
                ..Default::default()
            });
        };
        let path = &foot_opt.2;
        push(
            "store/save_optimal",
            measure(|| {
                psi_store::save(&opt, store_dir.join("json_save_probe.psi"))
                    .expect("save")
                    .file_bytes
            }),
            foot_opt.0,
            foot_opt.1,
        );
        push(
            "store/open_optimal",
            measure(|| {
                open::<psi_core::OptimalIndex>(path, &OpenOptions::default())
                    .expect("open")
                    .index
                    .len()
            }),
            foot_opt.0,
            foot_opt.1,
        );
        // Warm-pool query cost per backend vs the RAM index: per-word
        // reads through pinned pool frames (the engine lifts whole slots)
        // are the price of real storage; the cold counterpart additionally
        // pays real I/O, measured one-shot in the E14 experiment binary.
        let (lo, hi) = (32u32, 47);
        for (name, backend) in [("file", Backend::File), ("mmap", Backend::Mmap)] {
            let opened = open::<psi_core::OptimalIndex>(
                path,
                &OpenOptions {
                    backend,
                    pool_blocks: 1 << 16,
                    retry: None,
                    verify: true,
                },
            )
            .expect("open");
            let io = IoSession::untracked();
            let _ = opened.index.query(lo, hi, &io); // warm the pool
            push(
                &format!("store/query_warm_{name}_optimal_w16"),
                measure(|| {
                    let io = IoSession::untracked();
                    opened.index.query(lo, hi, &io).cardinality()
                }),
                foot_opt.0,
                foot_opt.1,
            );
        }
        push(
            "store/query_ram_optimal_w16",
            measure(|| {
                let io = IoSession::untracked();
                opt.query(lo, hi, &io).cardinality()
            }),
            foot_opt.0,
            foot_opt.1,
        );
    }

    // --- concurrent (E15): warm-pool QPS thread sweep + cold real reads.
    // QPS rows carry a `qps` field; compare_bench diffs those with
    // higher-is-better direction. Scaling past the machine's cores is
    // not expected — the rows exist so multi-core runners see the curve
    // and single-core ones see "no contention penalty".
    {
        use psi_store::{open, Backend, OpenOptions};
        let path = &foot_opt.2;
        let queries = crate::e15_workload(sigma);
        for (bname, backend) in [("file", Backend::File), ("mmap", Backend::Mmap)] {
            let opened = open::<psi_core::OptimalIndex>(
                path,
                &OpenOptions {
                    backend,
                    pool_blocks: 1 << 16,
                    retry: None,
                    verify: true,
                },
            )
            .expect("open");
            // Cold pass: per-query sessions; the real fetches equal the
            // workload's distinct-block union (asserted in tests).
            let start = std::time::Instant::now();
            for &(lo, hi) in &queries {
                let io = IoSession::new();
                let _ = opened.index.query(lo, hi, &io);
            }
            let cold_ns = start.elapsed().as_nanos() as f64 / queries.len() as f64;
            let bench = format!("concurrent/cold_optimal_{bname}");
            println!(
                "{bench:<40} {cold_ns:>14.1} ns/iter ({} real reads)",
                opened.real_fetches()
            );
            results.push(JsonResult {
                bench,
                ns_per_iter: cold_ns,
                real_reads: opened.real_fetches(),
                ..Default::default()
            });
            // Warm sweep, calibrated against the now-hot pool (a warm
            // query is ~10x a cold one; calibrating off cold_ns would
            // shrink the measurement window well under the target and
            // make the qps rows jitter past the regression threshold).
            let rounds = crate::e15_calibrate(&opened.index, &queries, 120);
            for threads in [1usize, 2, 4, 8] {
                let mut qps = 0f64;
                for _ in 0..3 {
                    qps = qps.max(crate::e15_qps(&opened.index, &queries, threads, rounds));
                }
                let bench = format!("concurrent/qps_optimal_{bname}_t{threads}");
                println!("{bench:<40} {:>14.1} ns/iter ({qps:.0} qps)", 1e9 / qps);
                results.push(JsonResult {
                    bench,
                    ns_per_iter: 1e9 / qps,
                    qps,
                    ..Default::default()
                });
            }
        }
    }

    // --- durability (E16): group-commit latency, incremental checkpoint
    // bytes, recovery time. All plain lower-is-better ns rows; the two
    // checkpoint rows also carry `file_bytes` = bytes written per
    // checkpoint so the incremental-vs-full gap is diffable.
    {
        use psi_api::MutOp;
        use psi_wal::{recover, Durable, DurableOptions};

        let root = std::env::temp_dir().join("psi_bench_json_durable");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("bench durable dir");
        let dsigma = 64u32;
        let io = IoSession::untracked();

        // Group commit: journal `b` appends + one sync, reported per op.
        for b in [1usize, 8, 64] {
            let dir = root.join(format!("commit_b{b}"));
            let idx = psi_core::SemiDynamicIndex::new(dsigma, IoConfig::default());
            let mut d = Durable::create(
                &dir,
                idx,
                DurableOptions {
                    group_commit_ops: usize::MAX,
                    ..DurableOptions::default()
                },
            )
            .expect("create durable");
            let mut x = 0u32;
            let m_batch = measure(|| {
                for _ in 0..b {
                    x = x.wrapping_mul(2_654_435_761).wrapping_add(1);
                    d.apply(
                        &MutOp::Append {
                            symbol: (x >> 16) & (dsigma - 1),
                        },
                        &io,
                    )
                    .expect("apply");
                }
                d.commit().expect("commit")
            });
            let bench = format!("durability/group_commit_b{b}");
            // Per-op cost; spread is scale-invariant so the batch's
            // relative noise carries over unchanged.
            let ns = m_batch.ns / b as f64;
            println!("{bench:<40} {ns:>14.1} ns/iter");
            results.push(JsonResult {
                bench,
                ns_per_iter: ns,
                spread: m_batch.spread,
                ..Default::default()
            });
        }

        // Incremental checkpoint of a sparse dirty set (2 of 64 extents)
        // vs a full rewrite of the same volume. `file_bytes` records the
        // bytes each variant writes per checkpoint, so the gap is
        // diffable alongside the latency.
        let farm_path = root.join("farm.ck");
        let mut farm = crate::farm_build(64, 2000);
        let (mut cp, created) =
            psi_store::CheckpointFile::create(&farm_path, &farm, &[], 1).expect("farm create");
        let mut salt = 0u64;
        let mut inc_bytes = 0u64;
        let m_inc = measure(|| {
            salt = salt.wrapping_add(0x9E37_79B9);
            crate::farm_rewrite(&mut farm, 3, salt);
            crate::farm_rewrite(&mut farm, 40, salt ^ 0x5555);
            let report = cp.update(&farm, &[]).expect("farm update");
            // Dead space from relocation compacts every ~32 rounds; the
            // steady-state incremental cost is the minimum.
            if !report.compacted {
                inc_bytes = if inc_bytes == 0 {
                    report.bytes_written
                } else {
                    inc_bytes.min(report.bytes_written)
                };
            }
            report.bytes_written
        });
        println!(
            "{:<40} {:>14.1} ns/iter",
            "durability/checkpoint_incremental_2of64", m_inc.ns
        );
        results.push(JsonResult {
            bench: "durability/checkpoint_incremental_2of64".into(),
            ns_per_iter: m_inc.ns,
            spread: m_inc.spread,
            file_bytes: inc_bytes,
            ..Default::default()
        });
        let full_path = root.join("farm_full.ck");
        let mut full_bytes = created.bytes_written;
        let m_full = measure(|| {
            let (_, report) = psi_store::CheckpointFile::create(&full_path, &farm, &[], 1)
                .expect("farm full create");
            full_bytes = report.bytes_written;
            full_bytes
        });
        assert!(
            inc_bytes * 4 < full_bytes,
            "sparse checkpoint must write a fraction of the full save"
        );
        println!(
            "{:<40} {:>14.1} ns/iter",
            "durability/checkpoint_full_save", m_full.ns
        );
        results.push(JsonResult {
            bench: "durability/checkpoint_full_save".into(),
            ns_per_iter: m_full.ns,
            spread: m_full.spread,
            file_bytes: full_bytes,
            ..Default::default()
        });

        // Recovery: checkpoint-only open vs a 1000-op committed tail.
        let n = 1usize << 13;
        let s = psi_workloads::zipf(n, dsigma, 1.1, 77);
        for tail in [0usize, 1000] {
            let dir = root.join(format!("recover_t{tail}"));
            let idx = psi_core::FullyDynamicIndex::build(&s, dsigma, IoConfig::default());
            let mut d =
                Durable::create(&dir, idx, DurableOptions::default()).expect("create durable");
            for k in 0..tail {
                d.apply(
                    &MutOp::Change {
                        pos: ((k * 48_271) % n) as u64,
                        symbol: (k as u32).wrapping_mul(69_621) >> 7 & (dsigma - 1),
                    },
                    &io,
                )
                .expect("apply");
            }
            d.commit().expect("commit");
            drop(d);
            let m = measure(|| {
                let (rd, report) =
                    recover::<psi_core::FullyDynamicIndex>(&dir, DurableOptions::default())
                        .expect("recover");
                assert_eq!(report.replayed, tail);
                drop(rd);
                report.epoch
            });
            let bench = format!("durability/recover_tail_{tail}");
            println!("{bench:<40} {:>14.1} ns/iter", m.ns);
            results.push(JsonResult {
                bench,
                ns_per_iter: m.ns,
                spread: m.spread,
                ..Default::default()
            });
        }
    }

    // --- read faults (E17): verified-fetch cold cost vs raw, and the
    // degraded (quarantined, table-scan fallback) conjunctive plan vs
    // healthy and rebuilt. Cold rows follow the E15 single-pass
    // discipline (a cold pool cannot be re-measured); the plan rows are
    // measure()d steady state.
    {
        use psi_query::{IndexedColumn, IndexedTable, Predicate};
        use psi_store::{open, save, Backend, OpenOptions};

        let root = std::env::temp_dir().join("psi_bench_json_read_faults");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("bench read-faults dir");
        let rn = 1usize << 15;
        let rsigma = 256u32;
        let s = psi_workloads::zipf(rn, rsigma, 1.0, 21);
        let idx = psi_core::OptimalIndex::build(&s, rsigma, IoConfig::default());
        let path = root.join("verified.psi");
        save(&idx, &path).expect("save optimal");
        let queries: Vec<(u32, u32)> = (0..16).map(|i| (i * 16, i * 16 + 15)).collect();
        let mut fetch_counts = Vec::new();
        for (mode, verify) in [("raw", false), ("verified", true)] {
            let opened = open::<psi_core::OptimalIndex>(
                &path,
                &OpenOptions {
                    backend: Backend::File,
                    pool_blocks: 1 << 16,
                    retry: None,
                    verify,
                },
            )
            .expect("open optimal");
            let start = std::time::Instant::now();
            for &(lo, hi) in &queries {
                let io = IoSession::new();
                let _ = opened.index.query(lo, hi, &io);
            }
            let blocks = opened.real_fetches();
            let cold_ns = start.elapsed().as_nanos() as f64 / blocks as f64;
            fetch_counts.push(blocks);
            let bench = format!("read_faults/cold_block_{mode}");
            println!("{bench:<40} {cold_ns:>14.1} ns/iter ({blocks} real reads)");
            results.push(JsonResult {
                bench,
                ns_per_iter: cold_ns,
                real_reads: blocks,
                ..Default::default()
            });
        }
        assert_eq!(
            fetch_counts[0], fetch_counts[1],
            "verification must not change cold fetch counts"
        );

        // Healthy plan, degraded plan (age column corrupted on disk,
        // quarantined at first touch), and the rebuilt plan.
        let table = psi_workloads::people_table(2_000, 7);
        let predicate = Predicate::and([
            Predicate::point("marital_status", 1),
            Predicate::point("sex", 0),
            Predicate::range("age", 30, 35),
        ]);
        let want = predicate.naive_rows(&table);
        let healthy = IndexedTable::build(&table, |sy, g| {
            Box::new(psi_core::OptimalIndex::build(sy, g, IoConfig::default()))
                as Box<dyn SecondaryIndex>
        });
        for col in &table.columns {
            save(
                &psi_core::OptimalIndex::build(&col.data, col.sigma, IoConfig::default()),
                root.join(format!("col_{}.psi", col.name)),
            )
            .expect("save column");
        }
        crate::corrupt_store_payload(&root.join("col_age.psi"));
        let columns = table
            .columns
            .iter()
            .map(|col| IndexedColumn {
                name: col.name.clone(),
                sigma: col.sigma,
                index: Box::new(
                    open::<psi_core::OptimalIndex>(
                        &root.join(format!("col_{}.psi", col.name)),
                        &OpenOptions {
                            backend: Backend::File,
                            pool_blocks: 1 << 14,
                            retry: None,
                            verify: true,
                        },
                    )
                    .expect("open column")
                    .index,
                ) as Box<dyn SecondaryIndex>,
            })
            .collect();
        let mut degraded = IndexedTable::from_columns(columns);
        for col in &table.columns {
            degraded
                .attach_column_data(&col.name, col.data.clone())
                .expect("attach source");
        }
        let tripped = degraded.execute(&predicate).expect("degraded execute");
        assert_eq!(tripped.rows.to_vec(), want, "degraded rows must stay exact");
        assert!(
            !tripped.degraded.is_empty(),
            "corrupted column must degrade the plan"
        );
        let mut plan_row = |label: &str, t: &IndexedTable| {
            let m = measure(|| t.execute(&predicate).expect("execute").io.reads);
            let out = t.execute(&predicate).expect("execute");
            assert_eq!(out.rows.to_vec(), want, "{label} rows must stay exact");
            let bench = format!("read_faults/conjunctive_{label}");
            println!(
                "{bench:<40} {:>14.1} ns/iter ({} io reads)",
                m.ns, out.io.reads
            );
            results.push(JsonResult {
                bench,
                ns_per_iter: m.ns,
                spread: m.spread,
                ..Default::default()
            });
        };
        plan_row("healthy", &healthy);
        plan_row("degraded", &degraded);
        degraded
            .rebuild_attribute("age", |sy, g| {
                Box::new(psi_core::OptimalIndex::build(sy, g, IoConfig::default()))
                    as Box<dyn SecondaryIndex>
            })
            .expect("rebuild");
        plan_row("rebuilt", &degraded);
    }

    // --- serve (E18): open-loop completion-latency percentiles and shed
    // rate against a live server. Single-run tail order statistics are
    // noisy; `compare` holds the p999/shed rows to its wider TAIL bar.
    results.extend(crate::e18());

    // --- observability (E19): instrumented-vs-stripped serve throughput
    // and tails, plus the WAL's group-commit histograms. The `obs/*`
    // latency-percentile rows are likewise held to the TAIL bar.
    results.extend(crate::e19());

    // --- kernels (E20): the decode-chain and block-skip kernels vs
    // their forced references, with the correctness gates inline.
    results.extend(crate::e20());

    results
}

/// The save+size surface the footprint rows need, object-safe over the
/// concrete families.
trait StoreBench {
    fn save_to(&self, path: &std::path::Path) -> u64;
    fn space(&self) -> u64;
}

impl<I: psi_store::PersistIndex + SecondaryIndex> StoreBench for I {
    fn save_to(&self, path: &std::path::Path) -> u64 {
        psi_store::save(self, path).expect("save").file_bytes
    }

    fn space(&self) -> u64 {
        self.space_bits()
    }
}

/// Serializes rows to the `psi-bench/1` JSON schema.
pub fn to_json(results: &[JsonResult]) -> String {
    let mut s = String::from("{\n  \"schema\": \"psi-bench/1\",\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let mut extras = String::new();
        if r.elements > 0 {
            extras.push_str(&format!(
                ", \"per_element_ns\": {:.2}",
                r.ns_per_iter / r.elements as f64
            ));
        }
        if r.space_bits > 0 {
            extras.push_str(&format!(", \"space_bits\": {}", r.space_bits));
        }
        if r.file_bytes > 0 {
            extras.push_str(&format!(", \"file_bytes\": {}", r.file_bytes));
        }
        if r.qps > 0.0 {
            extras.push_str(&format!(", \"qps\": {:.1}", r.qps));
        }
        if r.real_reads > 0 {
            extras.push_str(&format!(", \"real_reads\": {}", r.real_reads));
        }
        if r.spread > 0.0 {
            extras.push_str(&format!(", \"spread\": {:.3}", r.spread));
        }
        s.push_str(&format!(
            "    {{\"bench\": \"{}\", \"ns_per_iter\": {:.1}{}}}{}\n",
            r.bench,
            r.ns_per_iter,
            extras,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// First unused `BENCH_NNNN.json` name in the current directory.
pub fn next_bench_path() -> String {
    for i in 1..10_000 {
        let candidate = format!("BENCH_{i:04}.json");
        if !std::path::Path::new(&candidate).exists() {
            return candidate;
        }
    }
    "BENCH_overflow.json".to_string()
}

/// Writes an arbitrary result set as a `psi-bench/1` snapshot (used by
/// `all_experiments --json` and the `e18_serve` latency run).
pub fn write_snapshot(path: &str, results: &[JsonResult]) {
    let json = to_json(results);
    let mut f = std::fs::File::create(path).expect("create bench json");
    f.write_all(json.as_bytes()).expect("write bench json");
    println!("\nwrote {} results to {path}", results.len());
}

/// Entry point for `all_experiments --json [PATH]`.
pub fn emit_json(path: Option<String>) {
    let results = run_microbenches();
    let path = path.unwrap_or_else(next_bench_path);
    write_snapshot(&path, &results);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_parseable() {
        let rows = vec![
            JsonResult {
                bench: "decode/x".into(),
                ns_per_iter: 123.45,
                elements: 100,
                ..Default::default()
            },
            JsonResult {
                bench: "query/y".into(),
                ns_per_iter: 6.0,
                space_bits: 4096,
                file_bytes: 812,
                ..Default::default()
            },
            JsonResult {
                bench: "concurrent/qps_z_t8".into(),
                ns_per_iter: 2000.0,
                qps: 500_000.0,
                real_reads: 42,
                ..Default::default()
            },
        ];
        let s = to_json(&rows);
        assert!(s.contains("\"schema\": \"psi-bench/1\""));
        assert!(
            s.contains("\"bench\": \"decode/x\", \"ns_per_iter\": 123.5, \"per_element_ns\": 1.23")
        );
        assert!(s.contains(
            "\"bench\": \"query/y\", \"ns_per_iter\": 6.0, \"space_bits\": 4096, \"file_bytes\": 812}"
        ));
        assert!(s.contains("\"qps\": 500000.0, \"real_reads\": 42}"));
        // Balanced braces/brackets; trailing comma rules respected.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        assert!(!s.contains("},\n  ]"));
    }
}
