//! Experiment harnesses reproducing every quantitative claim of Pagh &
//! Rao (PODS 2009).
//!
//! The paper is pure theory, so the "tables and figures" to regenerate are
//! its seven theorems, the comparative claims of §1.2–1.3, and the
//! persistence layer's charge-vs-real-read contract. Each `eNN`
//! function prints one experiment's table (measured I/Os / bits / space
//! against the theory curve); `EXPERIMENTS.md` records the paper-vs-
//! measured outcome. Binaries: `cargo run -p psi-bench --release --bin
//! e01_uniform_tree` … or `--bin all_experiments`.
//!
//! Wall-clock performance is measured end to end by `perfbench/` (same-
//! sitting A/B runs, see EXPERIMENTS.md) and, for isolated primitives, by
//! the criterion benches; the tables here keep only the timings their
//! own inline gates need.

use std::time::{Duration, Instant};

use psi_api::{AppendIndex, DynamicIndex, SecondaryIndex};
use psi_baselines::*;
use psi_core::*;
use psi_io::{cost, IoConfig, IoSession, DEFAULT_BLOCK_BITS};
use psi_workloads as wl;
use rand::prelude::*;
use rand::rngs::StdRng;

const B: u64 = DEFAULT_BLOCK_BITS;

fn head(id: &str, claim: &str) {
    println!("\n================================================================");
    println!("{id}: {claim}");
    println!("================================================================");
}

fn row(cells: &[String]) {
    println!(
        "{}",
        cells
            .iter()
            .map(|c| format!("{c:>14}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
}

fn hdr(cols: &[&str]) {
    row(&cols.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(15 * cols.len()));
}

fn f(x: f64) -> String {
    format!("{x:.2}")
}

/// Median wall-clock nanoseconds per call of `f`: calibrate an iteration
/// count until one sample takes at least 5 ms, then take the median of
/// nine such samples.
fn measure<O, F: FnMut() -> O>(mut f: F) -> f64 {
    const SAMPLES: usize = 9;
    const TARGET: Duration = Duration::from_millis(5);
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= TARGET || iters >= 1 << 28 {
            break;
        }
        let grow = if elapsed.is_zero() {
            16.0
        } else {
            (TARGET.as_secs_f64() / elapsed.as_secs_f64()).clamp(1.5, 16.0)
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
    ns[SAMPLES / 2]
}

/// E1 — Theorem 1: `UniformTreeIndex` uses `O(n lg² σ)` bits and answers
/// in `O(T/B + lg σ)` I/Os.
pub fn e01() {
    head(
        "E1",
        "Thm 1: uniform tree — space O(n lg^2 sigma), query O(T/B + lg sigma)",
    );
    hdr(&[
        "n",
        "sigma",
        "bits/n",
        "n lg^2s/n",
        "range",
        "z",
        "I/Os",
        "T/B+lgs",
    ]);
    for &(n, sigma) in &[(1usize << 16, 64u32), (1 << 18, 256), (1 << 20, 1024)] {
        let s = wl::uniform(n, sigma, 1);
        let idx = UniformTreeIndex::build(&s, sigma, IoConfig::default());
        let lg_s = cost::lg2_ceil(u64::from(sigma)) as f64;
        for width in [1u32, sigma / 8, sigma / 2] {
            let lo = sigma / 4;
            let hi = (lo + width - 1).min(sigma - 1);
            let (r, io) = idx.query_measured(lo, hi);
            let bound = r.size_bits() as f64 / B as f64 + lg_s;
            row(&[
                n.to_string(),
                sigma.to_string(),
                f(idx.space_bits() as f64 / n as f64),
                f(lg_s * lg_s),
                format!("[{lo},{hi}]"),
                r.cardinality().to_string(),
                io.reads.to_string(),
                f(bound),
            ]);
        }
    }
}

/// E2 — Theorem 2: `OptimalIndex` space `O(nH₀+n+σlg²n)`, query
/// `O(z lg(n/z)/B + log_b n + lg lg n)` across selectivities and
/// distributions.
pub fn e02() {
    head(
        "E2",
        "Thm 2: optimal index — entropy space, output-sensitive queries",
    );
    let n = 1usize << 20;
    let sigma = 1024u32;
    hdr(&[
        "dist", "H0(bits)", "bits/n", "sel", "z", "I/Os", "thm2", "ratio",
    ]);
    for (name, s) in [
        ("uniform", wl::uniform(n, sigma, 2)),
        ("zipf1.0", wl::zipf(n, sigma, 1.0, 2)),
        ("runs32", wl::runs(n, sigma, 32.0, 2)),
    ] {
        let idx = OptimalIndex::build(&s, sigma, IoConfig::default());
        let h0 = psi_bits::entropy::h0(&s, sigma);
        let counts = psi_bits::entropy::char_counts(&s, sigma);
        let b = IoConfig::default().words_per_block(n as u64);
        for sel in [1e-4, 1e-3, 1e-2, 1e-1, 0.4] {
            let q = wl::ranges_with_selectivity(&counts, sel, 1, 7)[0];
            let (r, io) = idx.query_measured(q.lo, q.hi);
            let z = r.cardinality();
            let bound = cost::thm2_query_ios(n as u64, z, B, b);
            row(&[
                name.into(),
                f(h0),
                f(idx.space_bits() as f64 / n as f64),
                format!("{sel:.0e}"),
                z.to_string(),
                io.reads.to_string(),
                f(bound),
                f(io.reads as f64 / bound.max(1.0)),
            ]);
        }
    }
}

/// E3 — §1.2's gap: the compressed-bitmap scan reads a factor
/// `Ω(lg σ / lg(σ/ℓ))` more bits than the optimal output as the range
/// width `ℓ` grows; the optimal index does not.
pub fn e03() {
    head(
        "E3",
        "sec 1.2: scan reads lg(sigma)/lg(sigma/l) x output; optimal stays flat",
    );
    let n = 1usize << 20;
    let sigma = 1024u32;
    let s = wl::uniform(n, sigma, 3);
    let scan = CompressedScanIndex::build(&s, sigma, IoConfig::default());
    let opt = OptimalIndex::build(&s, sigma, IoConfig::default());
    hdr(&[
        "l",
        "z",
        "out bits",
        "scan bits",
        "scan/out",
        "opt bits",
        "opt/out",
    ]);
    for l in [1u32, 4, 16, 64, 256, 512] {
        let (lo, hi) = (0, l - 1);
        let io_s = IoSession::new();
        let r = scan.query(lo, hi, &io_s);
        let out_bits = r.size_bits().max(1);
        let io_o = IoSession::new();
        let ro = opt.query(lo, hi, &io_o);
        let out_o = ro.size_bits().max(1);
        row(&[
            l.to_string(),
            r.cardinality().to_string(),
            out_bits.to_string(),
            io_s.stats().bits_read.to_string(),
            f(io_s.stats().bits_read as f64 / out_bits as f64),
            io_o.stats().bits_read.to_string(),
            f(io_o.stats().bits_read as f64 / out_o as f64),
        ]);
    }
}

/// E4 — §1.2's trade-off: binning/multi-resolution trade space against
/// query blow-up with `w`; the optimal index sits at the best of both.
pub fn e04() {
    head(
        "E4",
        "sec 1.2: multi-resolution space/time trade-off vs the no-trade-off point",
    );
    let n = 1usize << 18;
    let sigma = 1024u32;
    let s = wl::uniform(n, sigma, 4);
    hdr(&["index", "w", "bits/n", "I/Os", "bits read/out"]);
    let (lo, hi) = (100u32, 355u32);
    for w in [2u32, 4, 8, 16, 32] {
        let idx = MultiResolutionIndex::build(&s, sigma, w, IoConfig::default());
        let io = IoSession::new();
        let r = idx.query(lo, hi, &io);
        row(&[
            "multires".into(),
            w.to_string(),
            f(idx.space_bits() as f64 / n as f64),
            io.stats().reads.to_string(),
            f(io.stats().bits_read as f64 / r.size_bits().max(1) as f64),
        ]);
    }
    let opt = OptimalIndex::build(&s, sigma, IoConfig::default());
    let io = IoSession::new();
    let r = opt.query(lo, hi, &io);
    row(&[
        "optimal".into(),
        "-".into(),
        f(opt.space_bits() as f64 / n as f64),
        io.stats().reads.to_string(),
        f(io.stats().bits_read as f64 / r.size_bits().max(1) as f64),
    ]);
}

/// E5 — Theorem 3: approximate queries read `O(z lg(1/ε))` bits with
/// measured false-positive rate ≤ ε.
pub fn e05() {
    head(
        "E5",
        "Thm 3: approximate queries — bits ~ z lg(1/eps), FP rate <= eps",
    );
    let n = 1usize << 20;
    let sigma = 1024u32;
    let s = wl::uniform(n, sigma, 5);
    let idx = ApproximateIndex::build(&s, sigma, IoConfig::default(), 99);
    let exact_truth: std::collections::HashSet<u64> =
        psi_api::naive_query(&s, 77, 77).iter().collect();
    hdr(&[
        "eps",
        "path",
        "bits read",
        "z lg(1/e)",
        "exact bits",
        "FP rate",
    ]);
    for eps in [0.5, 0.1, 0.05, 0.01, 1e-3, 1e-6] {
        let io = IoSession::new();
        let r = idx.query_approx(77, 77, eps, &io);
        let z = r.exact_cardinality();
        let mut fp = 0u64;
        let sample = 200_000u64;
        for i in 0..sample {
            if !exact_truth.contains(&i) && r.contains(i) {
                fp += 1;
            }
        }
        let io_e = IoSession::new();
        let _ = idx.query(77, 77, &io_e);
        row(&[
            format!("{eps:.0e}"),
            if r.is_exact() {
                "exact".into()
            } else {
                "hashed".to_string()
            },
            io.stats().bits_read.to_string(),
            f(z as f64 * (1.0 / eps).log2()),
            io_e.stats().bits_read.to_string(),
            format!("{:.5}", fp as f64 / sample as f64),
        ]);
    }
}

/// E6 — Theorem 4: amortized append cost of the semi-dynamic index vs
/// `lg lg n`.
pub fn e06() {
    head(
        "E6",
        "Thm 4: semi-dynamic appends — amortized O(lg lg n) I/Os",
    );
    hdr(&[
        "n appended",
        "I/Os/append",
        "lglg n",
        "rebuilds",
        "space bits/n",
    ]);
    let sigma = 256u32;
    let stream = wl::zipf(1 << 18, sigma, 0.9, 6);
    let mut idx = SemiDynamicIndex::new(sigma, IoConfig::default());
    let mut total = 0u64;
    let mut next_report = 1usize << 14;
    for (i, &c) in stream.iter().enumerate() {
        let io = IoSession::new();
        idx.append(c, &io);
        total += io.stats().total();
        if i + 1 == next_report {
            row(&[
                (i + 1).to_string(),
                f(total as f64 / (i + 1) as f64),
                f(cost::lg_lg((i + 1) as u64)),
                (idx.stats().subtree_rebuilds + idx.stats().global_rebuilds).to_string(),
                f(idx.space_bits() as f64 / (i + 1) as f64),
            ]);
            next_report *= 4;
        }
    }
}

/// E7 — Theorem 5: buffered appends cost `O(lg n / b)` ≪ 1 I/O; queries
/// pay an additive `O(lg n)`.
pub fn e07() {
    head(
        "E7",
        "Thm 5: buffered appends — amortized O(lg n / b) << 1 I/O",
    );
    hdr(&[
        "B bits",
        "b",
        "I/Os/append",
        "lg n / b",
        "query I/Os",
        "query+log",
    ]);
    let sigma = 256u32;
    let n = 1usize << 17;
    let stream = wl::uniform(n, sigma, 7);
    for block_bits in [2048u64, 8192, 32768] {
        let cfg = IoConfig::with_block_bits(block_bits);
        let mut idx = BufferedIndex::new(sigma, cfg);
        let mut total = 0u64;
        for &c in &stream {
            let io = IoSession::new();
            idx.append(c, &io);
            total += io.stats().total();
        }
        let b = cfg.words_per_block(n as u64);
        let io_q = IoSession::new();
        let _ = idx.query(10, 20, &io_q);
        row(&[
            block_bits.to_string(),
            b.to_string(),
            format!("{:.4}", total as f64 / n as f64),
            format!("{:.4}", cost::lg2(n as f64) / b as f64),
            io_q.stats().reads.to_string(),
            format!("(pending {})", idx.pending()),
        ]);
    }
}

/// E8 — Theorem 6: buffered bitmap index — point queries `O(T/B + lg n)`,
/// updates `O(lg n / b)`.
pub fn e08() {
    head(
        "E8",
        "Thm 6: buffered bitmap index — point O(T/B + lg n), update O(lg n / b)",
    );
    let sigma = 256u32;
    let n = 1usize << 18;
    let s = wl::uniform(n, sigma, 8);
    let mut idx = BufferedBitmapIndex::build(&s, sigma, IoConfig::default());
    let mut rng = StdRng::seed_from_u64(9);
    let updates = 50_000u64;
    let mut total = 0u64;
    for step in 0..updates {
        let io = IoSession::new();
        let ch = rng.gen_range(0..sigma);
        idx.insert(ch, n as u64 + step, &io);
        total += io.stats().total();
    }
    println!(
        "updates: {:.4} I/Os amortized (lg n / b = {:.4})",
        total as f64 / updates as f64,
        cost::lg2(n as f64) / IoConfig::default().words_per_block(n as u64) as f64
    );
    hdr(&["char", "T (result)", "I/Os", "T/B + lg n"]);
    for ch in [0u32, 63, 200] {
        let io = IoSession::new();
        let r = idx.point_query(ch, &io);
        let t_bits = cost::output_bits(n as u64 + updates, r.len() as u64);
        row(&[
            ch.to_string(),
            r.len().to_string(),
            io.stats().reads.to_string(),
            f(t_bits / B as f64 + cost::lg2(n as f64)),
        ]);
    }
}

/// E9 — Theorem 7: fully dynamic index — changes `O(lg n lg lg n / b)`,
/// queries `O(z lg(n/z)/B + lg n lg lg n)`.
pub fn e09() {
    head(
        "E9",
        "Thm 7: fully dynamic — buffered changes, near-optimal queries",
    );
    let sigma = 128u32;
    let n = 1usize << 17;
    let mut current = wl::uniform(n, sigma, 10);
    let mut idx = FullyDynamicIndex::build(&current, sigma, IoConfig::default());
    let mut rng = StdRng::seed_from_u64(11);
    let updates = 20_000;
    let mut total = 0u64;
    for _ in 0..updates {
        let pos = rng.gen_range(0..n as u64);
        let io = IoSession::new();
        if rng.gen_bool(0.1) {
            idx.delete(pos, &io);
            current[pos as usize] = sigma;
        } else {
            let v = rng.gen_range(0..sigma);
            idx.change(pos, v, &io);
            current[pos as usize] = v;
        }
        total += io.stats().total();
    }
    let b = IoConfig::default().words_per_block(n as u64);
    println!(
        "changes: {:.3} I/Os amortized (lg n lg lg n / b = {:.3}); {} epoch rebuilds",
        total as f64 / f64::from(updates),
        cost::lg2(n as f64) * cost::lg_lg(n as u64) / b as f64,
        idx.global_rebuilds
    );
    hdr(&["range", "z", "I/Os", "z lg(n/z)/B + lgn lglgn"]);
    for (lo, hi) in [(5u32, 5u32), (10, 30), (0, 100)] {
        let io = IoSession::new();
        let r = idx.query(lo, hi, &io);
        let z = r.cardinality();
        let bound =
            cost::output_bits(n as u64, z) / B as f64 + cost::lg2(n as f64) * cost::lg_lg(n as u64);
        row(&[
            format!("[{lo},{hi}]"),
            z.to_string(),
            io.stats().reads.to_string(),
            f(bound),
        ]);
    }
}

/// E10 — §1.3: the whole spectrum ("B-trees and uncompressed bitmap
/// indexes at the extremes") swept across selectivity.
pub fn e10() {
    head(
        "E10",
        "sec 1.3: the spectrum — who wins at which selectivity",
    );
    let n = 1usize << 18;
    let sigma = 512u32;
    let s = wl::uniform(n, sigma, 12);
    let cfg = IoConfig::default();
    let opt = OptimalIndex::build(&s, sigma, cfg);
    let pl = PositionListIndex::build(&s, sigma, cfg);
    let un = UncompressedBitmapIndex::build(&s, sigma, cfg);
    let cs = CompressedScanIndex::build(&s, sigma, cfg);
    let bi = BinnedBitmapIndex::build(&s, sigma, 16, cfg);
    let mr = MultiResolutionIndex::build(&s, sigma, 4, cfg);
    let re = RangeEncodedIndex::build(&s, sigma, cfg);
    let ie = IntervalEncodedIndex::build(&s, sigma, cfg);
    println!("space (bits/value):");
    hdr(&[
        "optimal",
        "poslist",
        "uncomp",
        "compscan",
        "binned16",
        "multires4",
        "rangeenc",
        "intvenc",
    ]);
    row(&[
        f(opt.space_bits() as f64 / n as f64),
        f(pl.space_bits() as f64 / n as f64),
        f(un.space_bits() as f64 / n as f64),
        f(cs.space_bits() as f64 / n as f64),
        f(bi.space_bits() as f64 / n as f64),
        f(mr.space_bits() as f64 / n as f64),
        f(re.space_bits() as f64 / n as f64),
        f(ie.space_bits() as f64 / n as f64),
    ]);
    println!("\nquery I/Os by range width:");
    hdr(&[
        "l", "z", "optimal", "poslist", "uncomp", "compscan", "binned", "multires", "rangeenc",
    ]);
    for l in [1u32, 8, 64, 256, 448] {
        let (lo, hi) = (16, 16 + l - 1);
        let z = psi_api::naive_query(&s, lo, hi).cardinality();
        let ios = |idx: &dyn SecondaryIndex| {
            let io = IoSession::new();
            let _ = idx.query(lo, hi, &io);
            io.stats().reads.to_string()
        };
        row(&[
            l.to_string(),
            z.to_string(),
            ios(&opt),
            ios(&pl),
            ios(&un),
            ios(&cs),
            ios(&bi),
            ios(&mr),
            ios(&re),
        ]);
    }
}

/// E11 — §2.2: space tracks the 0th-order entropy as skew varies.
pub fn e11() {
    head("E11", "sec 2.2: space adapts to entropy (Zipf skew sweep)");
    let n = 1usize << 18;
    let sigma = 256u32;
    hdr(&["zipf s", "H0 (bits)", "payload/n", "space/n", "payload/nH0"]);
    for s_param in [0.0, 0.5, 1.0, 1.5, 2.0] {
        let s = wl::zipf(n, sigma, s_param, 13);
        let h0 = psi_bits::entropy::h0(&s, sigma).max(1e-9);
        let idx = OptimalIndex::build(&s, sigma, IoConfig::default());
        row(&[
            f(s_param),
            f(h0),
            f(idx.payload_bits() as f64 / n as f64),
            f(idx.space_bits() as f64 / n as f64),
            f(idx.payload_bits() as f64 / (n as f64 * h0)),
        ]);
    }
    let s = wl::runs(n, sigma, 64.0, 13);
    let idx = OptimalIndex::build(&s, sigma, IoConfig::default());
    row(&[
        "runs64".into(),
        f(psi_bits::entropy::h0(&s, sigma)),
        f(idx.payload_bits() as f64 / n as f64),
        f(idx.space_bits() as f64 / n as f64),
        "(clustered)".into(),
    ]);
}

/// E12 — §1/§3: d-dimensional RID intersection, exact vs approximate with
/// `ε^{d−k}` survivor decay.
pub fn e12() {
    head(
        "E12",
        "sec 1/3: RID intersection — married men aged 33, exact vs approximate",
    );
    let n = 1usize << 18;
    let table = wl::people_table(n, 14);
    let cols: Vec<_> = table.columns.iter().collect();
    let conds = [(0usize, 1u32, 1u32), (1, 0, 0), (2, 30, 35)];
    let truth: Vec<u64> =
        table.naive_conjunctive_query(&[("marital_status", 1, 1), ("sex", 0, 0), ("age", 30, 35)]);
    let cfg = IoConfig::default();
    // Exact.
    let io = IoSession::new();
    let exact: Vec<psi_api::RidSet> = conds
        .iter()
        .map(|&(c, lo, hi)| {
            OptimalIndex::build(&cols[c].data, cols[c].sigma, cfg).query(lo, hi, &io)
        })
        .collect();
    let best_of = |f: &dyn Fn() -> psi_api::RidSet| {
        let mut best = u128::MAX;
        let mut out = None;
        for _ in 0..5 {
            let t = std::time::Instant::now();
            let r = f();
            best = best.min(t.elapsed().as_micros());
            out = Some(r);
        }
        (out.expect("ran"), best)
    };
    let (result, gallop_us) = best_of(&|| exact[0].intersect(&exact[1]).intersect(&exact[2]));
    let (reference, reference_us) = best_of(&|| {
        exact[0]
            .intersect_reference(&exact[1])
            .intersect_reference(&exact[2])
    });
    assert_eq!(result.to_vec(), reference.to_vec());
    println!(
        "exact: dims z = ({}, {}, {}) -> {} rows (truth {}), {} reads",
        exact[0].cardinality(),
        exact[1].cardinality(),
        exact[2].cardinality(),
        result.cardinality(),
        truth.len(),
        io.stats().reads
    );
    println!(
        "intersection: galloping skip-directory leapfrog {gallop_us} us \
         vs full-decode co-scan {reference_us} us"
    );
    hdr(&["eps", "survivors", "false pos", "bits read", "exact bits"]);
    for eps in [0.1, 0.01, 0.001] {
        let io_a = IoSession::new();
        let approx: Vec<ApproxResult> = conds
            .iter()
            .enumerate()
            .map(|(i, &(c, lo, hi))| {
                ApproximateIndex::build(&cols[c].data, cols[c].sigma, cfg, i as u64)
                    .query_approx(lo, hi, eps, &io_a)
            })
            .collect();
        let refs: Vec<&ApproxResult> = approx.iter().collect();
        let survivors = ApproxResult::intersect_all(&refs);
        let fp = survivors.iter().filter(|p| !truth.contains(p)).count();
        row(&[
            format!("{eps:.0e}"),
            survivors.len().to_string(),
            fp.to_string(),
            io_a.stats().bits_read.to_string(),
            io.stats().bits_read.to_string(),
        ]);
    }
}

/// E13 — the conjunctive query engine: selectivity-ordered intersection
/// vs fixed left-to-right order, across the whole index spectrum, on a
/// skewed (Zipf) multi-attribute workload. Simulated I/O is identical by
/// construction (same covers); the planner's win is ordering the
/// CPU-side combine so every intermediate stays as small as the most
/// selective condition.
pub fn e13() {
    use psi_query::{CombineStrategy, IndexedTable, Predicate};
    head(
        "E13",
        "conjunctive planner: selectivity-ordered vs fixed left-to-right intersection",
    );
    let n = 1usize << 17;
    let table = wl::Table::generate(
        n,
        &[
            wl::ColumnSpec {
                name: "a".into(),
                sigma: 256,
                dist: wl::Dist::Zipf(1.1),
            },
            wl::ColumnSpec {
                name: "b".into(),
                sigma: 64,
                dist: wl::Dist::Zipf(0.9),
            },
            wl::ColumnSpec {
                name: "c".into(),
                sigma: 1024,
                dist: wl::Dist::Zipf(1.3),
            },
        ],
        15,
    );
    // Written worst-first: the broad Zipf-head ranges lead and the
    // selective tail condition comes last, so the fixed order intersects
    // two huge results before ever seeing the small one.
    let predicate = Predicate::and([
        Predicate::range("a", 0, 3),
        Predicate::range("b", 0, 7),
        Predicate::range("c", 700, 720),
    ]);
    let query = predicate.normalize().expect("conjunctive");
    let fixed_order: Vec<usize> = (0..query.len()).collect();
    let cfg = IoConfig::default();
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
            "position_list",
            Box::new(move |s, g| Box::new(PositionListIndex::build(s, g, cfg))),
        ),
        (
            "compressed_scan",
            Box::new(move |s, g| Box::new(CompressedScanIndex::build(s, g, cfg))),
        ),
        (
            "binned_w16",
            Box::new(move |s, g| Box::new(BinnedBitmapIndex::build(s, g, 16, cfg))),
        ),
        (
            "multires_w4",
            Box::new(move |s, g| Box::new(MultiResolutionIndex::build(s, g, 4, cfg))),
        ),
        (
            "range_encoded",
            Box::new(move |s, g| Box::new(RangeEncodedIndex::build(s, g, cfg))),
        ),
    ];
    hdr(&[
        "index",
        "z",
        "I/Os",
        "strategy",
        "planned us",
        "fixed us",
        "speedup",
    ]);
    for (name, build) in &families {
        let indexed = IndexedTable::build(&table, |s, g| build(s, g));
        let best_of = |f: &dyn Fn() -> psi_query::QueryOutcome| {
            let mut best = u128::MAX;
            let mut out = None;
            for _ in 0..5 {
                let t = std::time::Instant::now();
                let r = f();
                best = best.min(t.elapsed().as_micros());
                out = Some(r);
            }
            (out.expect("ran"), best)
        };
        let (planned, planned_us) =
            best_of(&|| indexed.execute_conjunctive(&query).expect("planned"));
        let (fixed, fixed_us) = best_of(&|| {
            indexed
                .execute_forced(&query, &fixed_order, CombineStrategy::Gallop)
                .expect("fixed")
        });
        assert_eq!(
            planned.io, fixed.io,
            "{name}: identical covers must charge identical I/O"
        );
        assert_eq!(planned.rows.to_vec(), fixed.rows.to_vec());
        row(&[
            (*name).into(),
            planned.rows.cardinality().to_string(),
            planned.io.reads.to_string(),
            format!("{:?}", planned.plan.strategy),
            planned_us.to_string(),
            fixed_us.to_string(),
            format!("{:.2}x", fixed_us as f64 / planned_us.max(1) as f64),
        ]);
    }
}

/// E14 — psi-store: cold-cache real block reads equal the simulated
/// charge for every backend, a warm pool reads nothing, and pool
/// capacity controls the fetch count.
pub fn e14() {
    use psi_api::HasDisk;
    use psi_store::{open, Backend, OpenOptions, PersistIndex};
    head(
        "E14",
        "psi-store: cold real reads == simulated charges; warm pool reads nothing",
    );
    let n = 1usize << 16;
    let sigma = 256u32;
    let s = wl::zipf(n, sigma, 1.1, 77);
    let dir = std::env::temp_dir().join("psi_bench_store");
    std::fs::create_dir_all(&dir).expect("bench store dir");
    hdr(&[
        "index",
        "backend",
        "file KiB",
        "sim reads",
        "real reads",
        "warm",
        "verdict",
    ]);
    fn run_family<I: PersistIndex + SecondaryIndex + HasDisk>(
        dir: &std::path::Path,
        name: &str,
        index: &I,
        sigma: u32,
    ) {
        let path = dir.join(format!("{name}.psi"));
        let report = psi_store::save(index, &path).expect("save");
        for backend in [Backend::File, Backend::Mmap] {
            let opened = open::<I>(
                &path,
                &OpenOptions {
                    backend,
                    pool_blocks: 1 << 16,
                    retry: None,
                    verify: true,
                },
            )
            .expect("open");
            // Cold pass: a fixed query set, each under its own session
            // (the pool persists across sessions; the model's residency
            // does not — so real <= sim per query, == summed on first
            // touch of each block).
            let mut sim = 0u64;
            for (lo, hi) in [(0u32, 0u32), (3, 18), (40, sigma - 1), (7, 7)] {
                let io = IoSession::new();
                let _ = opened.index.query(lo, hi, &io);
                sim += io.stats().reads;
            }
            let cold = opened.real_fetches();
            assert!(
                cold <= sim,
                "{name} {backend:?}: real reads {cold} exceed simulated {sim}"
            );
            // Warm pass: same queries, zero new fetches.
            for (lo, hi) in [(0u32, 0u32), (3, 18), (40, sigma - 1), (7, 7)] {
                let io = IoSession::new();
                let _ = opened.index.query(lo, hi, &io);
            }
            let warm_delta = opened.real_fetches() - cold;
            assert_eq!(
                warm_delta, 0,
                "{name} {backend:?}: warm pool must not fetch"
            );
            // Single-query cold equality on a fresh open.
            let fresh = open::<I>(
                &path,
                &OpenOptions {
                    backend,
                    pool_blocks: 1 << 16,
                    retry: None,
                    verify: true,
                },
            )
            .expect("open");
            let io = IoSession::new();
            let _ = fresh.index.query(3, 18, &io);
            assert_eq!(
                fresh.real_fetches(),
                io.stats().reads,
                "{name} {backend:?}: cold query must fetch exactly its charge"
            );
            row(&[
                name.into(),
                format!("{backend:?}"),
                (report.file_bytes / 1024).to_string(),
                sim.to_string(),
                cold.to_string(),
                warm_delta.to_string(),
                "ok".into(),
            ]);
        }
    }
    let cfg = IoConfig::default();
    run_family(&dir, "optimal", &OptimalIndex::build(&s, sigma, cfg), sigma);
    run_family(
        &dir,
        "compressed_scan",
        &CompressedScanIndex::build(&s, sigma, cfg),
        sigma,
    );
    run_family(
        &dir,
        "position_list",
        &PositionListIndex::build(&s, sigma, cfg),
        sigma,
    );
    run_family(
        &dir,
        "multires_w4",
        &MultiResolutionIndex::build(&s, sigma, 4, cfg),
        sigma,
    );
    // Pool sweep: capacity controls refetches under a two-pass replay.
    println!(
        "
pool sweep (optimal, two passes over 6 ranges, File backend):"
    );
    hdr(&["pool blocks", "real reads", "hits", "evictions"]);
    let path = dir.join("optimal.psi");
    for cap in [8usize, 32, 128, 4096] {
        let opened = open::<OptimalIndex>(
            &path,
            &OpenOptions {
                backend: Backend::File,
                pool_blocks: cap,
                retry: None,
                verify: true,
            },
        )
        .expect("open");
        for _ in 0..2 {
            for (lo, hi) in [
                (0u32, 0u32),
                (3, 18),
                (40, 255),
                (7, 7),
                (100, 140),
                (200, 255),
            ] {
                let io = IoSession::new();
                let _ = opened.index.query(lo, hi, &io);
            }
        }
        let st = opened.pool_stats();
        row(&[
            cap.to_string(),
            opened.real_fetches().to_string(),
            st.hits.to_string(),
            st.evictions.to_string(),
        ]);
    }
}

// ---------------------------------------------------------------------------
// E15 — the concurrent read path

/// The E15 query workload: a fixed mix of points, narrow and broad
/// ranges over `[0, sigma)`.
pub fn e15_workload(sigma: u32) -> Vec<(u32, u32)> {
    let mut qs = Vec::new();
    for i in 0..16u32 {
        let lo = (i * 37) % sigma;
        qs.push((lo, lo));
        qs.push((lo, (lo + 15).min(sigma - 1)));
        qs.push((lo / 2, (lo / 2 + sigma / 4).min(sigma - 1)));
    }
    qs
}

/// One throughput measurement: `rounds` passes over `queries`, split
/// across `threads` workers pulling off a shared atomic cursor, each
/// query under its own tracking session (the realistic per-query
/// accounting cost stays in the measured path). Returns queries/second.
pub fn e15_qps<I: SecondaryIndex>(
    index: &I,
    queries: &[(u32, u32)],
    threads: usize,
    rounds: usize,
) -> f64 {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let total = queries.len() * rounds;
    let cursor = AtomicUsize::new(0);
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cursor = &cursor;
            scope.spawn(move || loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= total {
                    break;
                }
                let (lo, hi) = queries[k % queries.len()];
                let io = IoSession::new();
                std::hint::black_box(index.query(lo, hi, &io).cardinality());
            });
        }
    });
    total as f64 / start.elapsed().as_secs_f64()
}

/// Rounds so one single-threaded pass takes roughly `target_ms`. Run it
/// against the pool state (warm) you are about to measure — a cold-pass
/// calibration undershoots the warm measurement window badly.
pub(crate) fn e15_calibrate<I: SecondaryIndex>(
    index: &I,
    queries: &[(u32, u32)],
    target_ms: u64,
) -> usize {
    let start = std::time::Instant::now();
    for &(lo, hi) in queries {
        let io = IoSession::new();
        std::hint::black_box(index.query(lo, hi, &io).cardinality());
    }
    let pass = start.elapsed().max(std::time::Duration::from_micros(50));
    ((target_ms as f64 / 1000.0 / pass.as_secs_f64()).ceil() as usize).clamp(1, 2000)
}

/// One cold + warm sweep of an opened family. Returns rows of
/// `(threads, cold_real, union_charge, warm_qps)`.
fn e15_family<I>(
    name: &str,
    path: &std::path::Path,
    backend: psi_store::Backend,
    sigma: u32,
    threads: &[usize],
) -> Vec<(usize, u64, u64, f64)>
where
    I: psi_store::PersistIndex + SecondaryIndex,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let opts = psi_store::OpenOptions {
        backend,
        pool_blocks: 1 << 16,
        retry: None,
        verify: true,
    };
    let queries = e15_workload(sigma);
    // Distinct-block union of the workload's charges: one shared session
    // replay — what a cold pool must fetch at any thread count.
    let union = {
        let opened = psi_store::open::<I>(path, &opts).expect("open");
        let shared = IoSession::new();
        for &(lo, hi) in &queries {
            let _ = opened.index.query(lo, hi, &shared);
        }
        shared.stats().reads
    };
    let mut rows = Vec::new();
    for &t in threads {
        // Cold pass on a fresh open, partitioned across t threads.
        let opened = Arc::new(psi_store::open::<I>(path, &opts).expect("open"));
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..t {
                let opened = Arc::clone(&opened);
                let cursor = &cursor;
                let queries = &queries;
                scope.spawn(move || loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= queries.len() {
                        break;
                    }
                    let (lo, hi) = queries[k];
                    let io = IoSession::new();
                    let _ = opened.index.query(lo, hi, &io);
                });
            }
        });
        let cold = opened.real_fetches();
        assert_eq!(
            cold, union,
            "{name} {backend:?} at {t} threads: cold real reads must equal \
             the workload's distinct-block charge"
        );
        // Warm QPS on the now-hot pool.
        let rounds = e15_calibrate(&opened.index, &queries, 120);
        let mut best = 0f64;
        for _ in 0..3 {
            best = best.max(e15_qps(&opened.index, &queries, t, rounds));
        }
        let stats = opened.pool_stats();
        assert_eq!(stats.grown, 0, "{name}: ample pool must never grow");
        rows.push((t, cold, union, best));
    }
    rows
}

/// E15 — the concurrent read path: one opened index (File and Mmap
/// backends) shared by 1→8 query threads. Cold-cache real reads equal
/// the workload's distinct-block charge at every thread count (also
/// pinned by `tests/concurrent_read.rs`); warm-pool QPS scales with
/// threads up to the machine's parallelism (this container may have
/// fewer cores than the sweep's top end — the table reports
/// `available_parallelism` so the scaling column is read against it).
pub fn e15() {
    e15_sweep(&[1, 2, 4, 8]);
}

/// [`e15`] with an explicit thread sweep (the CI smoke run caps at 4).
pub fn e15_sweep(threads: &[usize]) {
    use psi_query::{ConjunctiveQuery, IndexedTable, Predicate};
    head(
        "E15",
        "concurrent read path: warm-pool QPS scaling, cold reads == union charge per thread count",
    );
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("available parallelism: {cores} (QPS scales only up to this)");
    let n = 1usize << 16;
    let sigma = 256u32;
    let s = wl::zipf(n, sigma, 1.1, 77);
    let dir = std::env::temp_dir().join("psi_bench_concurrent");
    std::fs::create_dir_all(&dir).expect("bench store dir");
    hdr(&[
        "index",
        "backend",
        "threads",
        "QPS",
        "speedup",
        "cold real",
        "union",
        "verdict",
    ]);
    let sweep = |name: &str, rows: Vec<(usize, u64, u64, f64)>, backend: psi_store::Backend| {
        let base = rows.first().map(|r| r.3).unwrap_or(1.0);
        for (t, cold, union, qps) in rows {
            row(&[
                name.into(),
                format!("{backend:?}"),
                t.to_string(),
                format!("{qps:.0}"),
                format!("{:.2}x", qps / base),
                cold.to_string(),
                union.to_string(),
                "ok".into(),
            ]);
        }
    };
    {
        let index = OptimalIndex::build(&s, sigma, IoConfig::default());
        let path = dir.join("optimal.psi");
        psi_store::save(&index, &path).expect("save");
        for backend in [psi_store::Backend::File, psi_store::Backend::Mmap] {
            sweep(
                "optimal",
                e15_family::<OptimalIndex>("optimal", &path, backend, sigma, threads),
                backend,
            );
        }
    }
    {
        let index = CompressedScanIndex::build(&s, sigma, IoConfig::default());
        let path = dir.join("compressed_scan.psi");
        psi_store::save(&index, &path).expect("save");
        for backend in [psi_store::Backend::File, psi_store::Backend::Mmap] {
            sweep(
                "compressed_scan",
                e15_family::<CompressedScanIndex>(
                    "compressed_scan",
                    &path,
                    backend,
                    sigma,
                    threads,
                ),
                backend,
            );
        }
    }
    // Batch executor: the same parallelism through the conjunctive layer
    // (in-RAM indexes; the scheduling win, decoupled from storage).
    println!("\nbatch executor (psi-query, in-RAM optimal indexes, 3-attribute table):");
    hdr(&["threads", "QPS", "speedup", "determinism"]);
    let table = wl::Table::generate(
        n,
        &[
            wl::ColumnSpec {
                name: "a".into(),
                sigma: 256,
                dist: wl::Dist::Zipf(1.1),
            },
            wl::ColumnSpec {
                name: "b".into(),
                sigma: 64,
                dist: wl::Dist::Zipf(0.9),
            },
            wl::ColumnSpec {
                name: "c".into(),
                sigma: 1024,
                dist: wl::Dist::Zipf(1.3),
            },
        ],
        15,
    );
    let indexed = IndexedTable::build(&table, |sy, g| {
        Box::new(OptimalIndex::build(sy, g, IoConfig::default()))
    });
    let batch: Vec<ConjunctiveQuery> = (0..24u32)
        .map(|i| {
            Predicate::and([
                Predicate::range("a", (i * 11) % 200, (i * 11) % 200 + 30),
                Predicate::range("b", (i * 7) % 48, (i * 7) % 48 + 10),
                Predicate::range("c", (i * 41) % 900, (i * 41) % 900 + 60),
            ])
            .normalize()
            .expect("conjunctive")
        })
        .collect();
    let run = |t: usize| -> Vec<psi_query::QueryOutcome> {
        indexed
            .execute_batch_settled(&batch, t)
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("batch")
    };
    let reference = run(1);
    let mut base = None;
    for &t in threads {
        let start = std::time::Instant::now();
        let rounds = 5usize;
        let mut last = None;
        for _ in 0..rounds {
            last = Some(run(t));
        }
        let qps = (batch.len() * rounds) as f64 / start.elapsed().as_secs_f64();
        let base = *base.get_or_insert(qps);
        let same = last
            .expect("ran")
            .iter()
            .zip(&reference)
            .all(|(p, s)| p.rows.to_vec() == s.rows.to_vec() && p.io == s.io);
        assert!(same, "batch at {t} threads must match sequential");
        row(&[
            t.to_string(),
            format!("{qps:.0}"),
            format!("{:.2}x", qps / base),
            "identical".into(),
        ]);
    }
}

// ---------------------------------------------------------------------------
// E16 — the durable write path

/// Minimal many-extent single-volume family for measuring extent-granular
/// checkpoint cost below the real index families (whose dirty sets are
/// coarse: the semi-dynamic engine keeps all node records in one tree
/// extent, and the fully dynamic family's meta carries its O(n) routing
/// state).
pub struct ExtentFarm {
    /// The payload volume; each extent is independently rewritable.
    pub disk: psi_io::Disk,
}

impl psi_store::PersistIndex for ExtentFarm {
    const TAG: &'static str = "bench_extent_farm";

    fn write_meta(&self, _out: &mut psi_store::MetaBuf) {}

    fn disks(&self) -> Vec<&psi_io::Disk> {
        vec![&self.disk]
    }

    fn from_parts(
        _meta: &mut psi_store::MetaCursor,
        disks: Vec<psi_io::Disk>,
    ) -> Result<Self, psi_store::StoreError> {
        Ok(ExtentFarm {
            disk: psi_store::single_volume(disks, "extent farm")?,
        })
    }
}

/// Builds an [`ExtentFarm`] of `extents` extents, `writes` 48-bit values
/// each.
pub fn farm_build(extents: usize, writes: usize) -> ExtentFarm {
    let mut disk = psi_io::Disk::new(IoConfig::with_block_bits(256));
    let io = IoSession::untracked();
    for i in 0..extents {
        let ext = disk.alloc();
        let mut w = disk.writer(ext, &io);
        for j in 0..writes {
            w.write_bits((i as u64) << 32 | j as u64, 48);
        }
    }
    ExtentFarm { disk }
}

/// Rewrites extent `i` of the farm in place, dirtying exactly it.
pub fn farm_rewrite(farm: &mut ExtentFarm, i: usize, salt: u64) {
    let io = IoSession::untracked();
    let ext = psi_io::ExtentId(i as u32);
    let words = farm.disk.extent_words(ext).len();
    farm.disk.truncate(ext, 0);
    let mut w = farm.disk.writer(ext, &io);
    for j in 0..(words * 64 / 48) {
        w.write_bits(
            (salt ^ ((i as u64) << 32 | j as u64)) & 0xFFFF_FFFF_FFFF,
            48,
        );
    }
}

/// E16 — psi-wal: group commit amortizes the sync, incremental
/// checkpoints write (roughly) the dirty set, recovery time scales with
/// the log tail. Full-size run.
pub fn e16() {
    e16_run(6_000, &[1, 8, 64, 256], &[0, 1_000, 4_000]);
}

/// [`e16`] with explicit sizes (the CI smoke run shrinks all three).
pub fn e16_run(ops: usize, batches: &[usize], tails: &[usize]) {
    use psi_api::MutOp;
    use psi_wal::{recover, Durable, DurableOptions};

    head(
        "E16",
        "durable write path: group commit amortizes fsync; incremental checkpoint < full save; recovery ~ tail length",
    );
    let sigma = 64u32;
    let root = std::env::temp_dir().join("psi_bench_durable");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("bench durable dir");
    let cfg = IoConfig::default();
    let io = IoSession::untracked();

    // --- group-commit latency vs batch size -----------------------------
    // One write + one sync per batch: per-op latency must fall (or at
    // worst flatten) as the batch grows.
    hdr(&["batch", "ops", "commits", "ns/op", "vs batch=1"]);
    let mut per_op = Vec::new();
    for &batch in batches {
        let dir = root.join(format!("commit_b{batch}"));
        let idx = SemiDynamicIndex::new(sigma, cfg);
        let mut d = Durable::create(
            &dir,
            idx,
            DurableOptions {
                group_commit_ops: batch,
                ..DurableOptions::default()
            },
        )
        .expect("create durable");
        let start = std::time::Instant::now();
        for i in 0..ops {
            d.apply(
                &MutOp::Append {
                    symbol: (i as u32 * 2_654_435_761) >> 16 & (sigma - 1),
                },
                &io,
            )
            .expect("apply");
        }
        d.commit().expect("commit");
        let ns = start.elapsed().as_nanos() as f64 / ops as f64;
        let commits = d.wal_commits();
        per_op.push(ns);
        row(&[
            batch.to_string(),
            ops.to_string(),
            commits.to_string(),
            format!("{ns:.0}"),
            format!("{:.2}x", ns / per_op[0]),
        ]);
    }
    if batches.len() > 1 {
        assert!(
            per_op.last().unwrap() < per_op.first().unwrap(),
            "group commit must amortize the per-op sync cost"
        );
    }

    // --- incremental checkpoint vs full save ----------------------------
    // (a) Real family: the checkpoint floor. With an empty dirty set a
    // checkpoint writes only extent table + meta + superblock slot; the
    // burst rounds then show the engine's actual dirty granularity (the
    // semi-dynamic engine keeps all node records in one tree extent, so
    // even a tiny burst dirties most of the payload, and relocated dead
    // space compacts every other round).
    let n = 1usize << 14;
    let s = wl::zipf(n, sigma, 1.1, 77);
    let dir = root.join("ckpt");
    let mut idx = SemiDynamicIndex::new(sigma, cfg);
    for &sym in &s {
        idx.append(sym, &io);
    }
    let mut d = Durable::create(&dir, idx, DurableOptions::default()).expect("create durable");
    let full_bytes = std::fs::metadata(dir.join(psi_wal::CHECKPOINT_FILE))
        .expect("checkpoint meta")
        .len();
    hdr(&["burst", "ckpt bytes", "full bytes", "ratio", "compacted"]);
    for &burst in &[0usize, 4, 4] {
        for i in 0..burst {
            d.apply(
                &MutOp::Append {
                    symbol: (i as u32 * 40_503) >> 4 & (sigma - 1),
                },
                &io,
            )
            .expect("apply");
        }
        let report = d.checkpoint().expect("checkpoint");
        if burst == 0 {
            assert!(
                report.bytes_written < full_bytes,
                "an empty dirty set must checkpoint in fewer bytes than a \
                 full save ({} vs {full_bytes})",
                report.bytes_written
            );
        }
        row(&[
            burst.to_string(),
            report.bytes_written.to_string(),
            full_bytes.to_string(),
            f(report.bytes_written as f64 / full_bytes as f64),
            report.compacted.to_string(),
        ]);
    }
    drop(d);

    // (b) Extent-granular cost, isolated on a many-extent volume: 2 of
    // 64 dirty extents checkpoint in a fraction of the full save.
    hdr(&[
        "dirty extents",
        "ckpt bytes",
        "full bytes",
        "ratio",
        "verdict",
    ]);
    let mut farm = farm_build(64, 2000);
    let farm_path = root.join("farm.ck");
    let (mut cp, created) =
        psi_store::CheckpointFile::create(&farm_path, &farm, &[], 1).expect("farm create");
    for &dirty in &[2usize, 8] {
        for k in 0..dirty {
            farm_rewrite(&mut farm, k * 63 / dirty.max(1), 0x9E37 + k as u64);
        }
        let report = cp.update(&farm, &[]).expect("farm update");
        assert!(
            report.bytes_written * 4 < created.bytes_written,
            "a sparse dirty set must checkpoint in a fraction of the full save \
             ({} vs {})",
            report.bytes_written,
            created.bytes_written
        );
        row(&[
            dirty.to_string(),
            report.bytes_written.to_string(),
            created.bytes_written.to_string(),
            f(report.bytes_written as f64 / created.bytes_written as f64),
            "ok".into(),
        ]);
    }

    // --- recovery time vs log tail length -------------------------------
    hdr(&["tail ops", "replayed", "recover ms", "verdict"]);
    for &tail in tails {
        let dir = root.join(format!("recover_t{tail}"));
        let idx = FullyDynamicIndex::build(&s, sigma, cfg);
        let mut d = Durable::create(&dir, idx, DurableOptions::default()).expect("create durable");
        for i in 0..tail {
            d.apply(
                &MutOp::Change {
                    pos: ((i * 48_271) % n) as u64,
                    symbol: (i as u32).wrapping_mul(69_621) >> 7 & (sigma - 1),
                },
                &io,
            )
            .expect("apply");
        }
        d.commit().expect("commit");
        drop(d);
        let start = std::time::Instant::now();
        let (_, report) =
            recover::<FullyDynamicIndex>(&dir, DurableOptions::default()).expect("recover");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(report.replayed, tail, "the whole committed tail replays");
        row(&[
            tail.to_string(),
            report.replayed.to_string(),
            format!("{ms:.2}"),
            "ok".into(),
        ]);
    }
}

// ---------------------------------------------------------------------------
// E17 — the fault-tolerant read path

/// Flips one payload byte in every block of every live extent of the
/// store file at `path` (header and metadata pages untouched, so the file
/// still opens), guaranteeing that any verified payload fetch detects the
/// damage. Returns the number of blocks corrupted.
pub fn corrupt_store_payload(path: &std::path::Path) -> u64 {
    use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
    let (_, header) = psi_store::format::read_header(path).expect("read store header");
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .expect("open store file for corruption");
    let mut corrupted = 0;
    for volume in &header.volumes {
        let page = volume.page_bytes();
        for ext in &volume.extents {
            if ext.freed || ext.file_off == u64::MAX {
                continue;
            }
            let blocks = ext.bit_len.div_ceil(volume.config.block_bits).max(1);
            for b in 0..blocks {
                let off = ext.file_off + b * page + 3;
                let mut byte = [0u8; 1];
                file.seek(SeekFrom::Start(off)).expect("seek");
                file.read_exact(&mut byte).expect("read payload byte");
                byte[0] ^= 0xFF;
                file.seek(SeekFrom::Start(off)).expect("seek back");
                file.write_all(&byte).expect("flip payload byte");
                corrupted += 1;
            }
        }
    }
    file.sync_all().expect("sync corruption");
    corrupted
}

/// E17 — the fault-tolerant read path: verified fetches are
/// charge-identical to raw ones (the checksum runs only at cold
/// fault-in, never on warm hits), a quarantined attribute degrades to an
/// exact table-scan fallback, and an online rebuild returns the plan to
/// healthy cost. Full-size run.
pub fn e17() {
    e17_run(1 << 16, 4_000);
}

/// [`e17`] with explicit sizes (the CI smoke run shrinks both).
pub fn e17_run(n: usize, people: usize) {
    use psi_query::{IndexedColumn, IndexedTable, Predicate};
    use psi_store::{open, save, Backend, OpenOptions};

    head(
        "E17",
        "fault-tolerant reads: verified fetch charge-identical to raw, checksum only at cold fault-in; degraded plan exact; rebuild restores healthy cost",
    );
    let root = std::env::temp_dir().join("psi_bench_read_faults");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("bench read-faults dir");
    let cfg = IoConfig::default();

    // --- verified-fetch cold cost, ns/block, vs raw ---------------------
    // Simulated charges and real fetch counts must be bit-identical in
    // both modes; the checksum may only show up as cold wall-clock.
    let sigma = 256u32;
    let s = wl::zipf(n, sigma, 1.0, 21);
    let idx = OptimalIndex::build(&s, sigma, cfg);
    let path = root.join("verified.psi");
    save(&idx, &path).expect("save optimal");
    let queries: Vec<(u32, u32)> = (0..16).map(|i| (i * 16, i * 16 + 15)).collect();

    hdr(&["mode", "cold ns/blk", "blocks", "charges", "warm fetches"]);
    let mut per_mode = Vec::new();
    for (mode, verify) in [("raw", false), ("verified", true)] {
        let rounds = 4u32;
        let mut ns_total = 0f64;
        let mut fetches = 0u64;
        let mut charges = 0u64;
        let mut warm_new = 0u64;
        for _ in 0..rounds {
            let opened = open::<OptimalIndex>(
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
                charges += io.stats().reads;
            }
            ns_total += start.elapsed().as_nanos() as f64;
            fetches += opened.real_fetches();
            // Warm replay: every block is pooled, nothing re-verifies.
            let before = opened.real_fetches();
            for &(lo, hi) in &queries {
                let io = IoSession::new();
                let _ = opened.index.query(lo, hi, &io);
            }
            warm_new += opened.real_fetches() - before;
        }
        per_mode.push((fetches, charges, warm_new));
        row(&[
            mode.to_string(),
            f(ns_total / fetches as f64),
            (fetches / u64::from(rounds)).to_string(),
            (charges / u64::from(rounds) / 2).to_string(),
            warm_new.to_string(),
        ]);
    }
    assert_eq!(
        (per_mode[0].0, per_mode[0].1),
        (per_mode[1].0, per_mode[1].1),
        "verification must not change fetch counts or simulated charges"
    );
    assert_eq!(
        per_mode[0].2 + per_mode[1].2,
        0,
        "warm hits must never fault (or re-verify) anything"
    );

    // --- degraded vs healthy conjunctive plan ---------------------------
    let table = wl::people_table(people, 7);
    let predicate = Predicate::and([
        Predicate::point("marital_status", 1),
        Predicate::point("sex", 0),
        Predicate::range("age", 30, 35),
    ]);
    let want = predicate.naive_rows(&table);
    let healthy = IndexedTable::build(&table, |sy, g| {
        Box::new(OptimalIndex::build(sy, g, cfg)) as Box<dyn SecondaryIndex>
    });
    for col in &table.columns {
        save(
            &OptimalIndex::build(&col.data, col.sigma, cfg),
            root.join(format!("col_{}.psi", col.name)),
        )
        .expect("save column");
    }
    corrupt_store_payload(&root.join("col_age.psi"));
    let columns = table
        .columns
        .iter()
        .map(|col| IndexedColumn {
            name: col.name.clone(),
            sigma: col.sigma,
            index: Box::new(
                open::<OptimalIndex>(
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
    // First execution trips the verified fetch and quarantines the age
    // extent; the steady state below plans around it up front.
    let tripped = degraded.execute(&predicate).expect("degraded execute");
    assert_eq!(tripped.rows.to_vec(), want, "degraded rows must stay exact");
    assert!(
        tripped.degraded.contains(&"age".to_string()),
        "corrupted column must degrade"
    );

    hdr(&["plan", "io reads", "ns/query", "degraded", "rows"]);
    let healthy_out = healthy.execute(&predicate).expect("healthy execute");
    let bench_plan = |label: &str, t: &IndexedTable| {
        let rounds = 20u32;
        let start = std::time::Instant::now();
        let mut out = None;
        for _ in 0..rounds {
            out = Some(t.execute(&predicate).expect("execute"));
        }
        let ns = start.elapsed().as_nanos() as f64 / f64::from(rounds);
        let out = out.expect("ran");
        assert_eq!(out.rows.to_vec(), want, "{label} rows must stay exact");
        row(&[
            label.to_string(),
            out.io.reads.to_string(),
            format!("{ns:.0}"),
            out.degraded.len().to_string(),
            out.rows.cardinality().to_string(),
        ]);
        out
    };
    bench_plan("healthy", &healthy);
    bench_plan("degraded", &degraded);

    // --- online rebuild restores healthy cost ---------------------------
    degraded
        .rebuild_attribute("age", |sy, g| {
            Box::new(OptimalIndex::build(sy, g, cfg)) as Box<dyn SecondaryIndex>
        })
        .expect("rebuild");
    let rebuilt = bench_plan("rebuilt", &degraded);
    assert!(rebuilt.degraded.is_empty(), "rebuild must clear quarantine");
    assert_eq!(
        rebuilt.io, healthy_out.io,
        "post-rebuild I/O must equal the healthy baseline"
    );
}

/// E18 — psi-serve under open-loop load: a live server behind the wire
/// protocol, Poisson arrivals at fixed offered rates, completion-time
/// percentiles measured against the *scheduled* arrival (so queueing
/// delay counts), and the typed shed rate from admission control.
///
/// On one core the honest claim is latency under load *shaping*, not
/// thread scaling: admission control bounds the queue, so the tail grows
/// with offered load until shedding kicks in instead of growing without
/// bound.
pub fn e18() {
    e18_run(4_000, &[500, 2_000, 8_000], 3.0)
}

/// [`e18`] with explicit sizes (the CI smoke run shrinks all three).
pub fn e18_run(people: usize, qps_targets: &[u64], seconds: f64) {
    use psi_query::{ConjunctiveQuery, IndexedTable, Predicate};
    use psi_serve::wire::ErrorCode;
    use psi_serve::{Client, ServeConfig, Server};
    use std::sync::Arc;

    head(
        "E18",
        "psi-serve open-loop: Poisson arrivals at fixed offered QPS; p50/p99/p999 completion latency and typed shed rate",
    );
    let cfg = IoConfig::default();
    let table = wl::people_table(people, 7);
    let indexed = IndexedTable::build(&table, |sy, g| {
        Box::new(OptimalIndex::build(sy, g, cfg)) as Box<dyn SecondaryIndex>
    });
    let server = Server::serve(
        Arc::new(indexed),
        ServeConfig {
            batch_window: 16,
            ..ServeConfig::default()
        },
    )
    .expect("serve");
    let addr = server.addr().expect("tcp addr");

    // Deterministic query mix: selective age ranges, sex+age
    // conjunctions, and broad marital-status points.
    let mut rng = StdRng::seed_from_u64(18);
    let pool: Vec<ConjunctiveQuery> = (0..256)
        .map(|_| {
            let p = match rng.gen_range(0..3u32) {
                0 => {
                    let lo = rng.gen_range(0..120u32);
                    Predicate::range("age", lo, (lo + rng.gen_range(0..8u32)).min(127))
                }
                1 => Predicate::and([
                    Predicate::point("sex", rng.gen_range(0..2u32)),
                    Predicate::range("age", 30, 35),
                ]),
                _ => Predicate::point("marital_status", rng.gen_range(0..4u32)),
            };
            p.normalize().expect("normalize")
        })
        .collect();

    hdr(&[
        "offered qps",
        "sent",
        "p50 us",
        "p99 us",
        "p999 us",
        "shed o/oo",
    ]);
    let mut total_sent = 0u64;
    for &qps in qps_targets {
        let n = ((qps as f64) * seconds).round().max(1.0) as usize;
        total_sent += n as u64;
        // Open-loop Poisson arrivals: exponential inter-arrival gaps at
        // rate `qps`, fixed up front so a slow server cannot slow the
        // arrival process down (that would be closed-loop coordination).
        let mut gap_rng = StdRng::seed_from_u64(qps ^ 0x5EED);
        let mut t = 0.0f64;
        let schedule: Arc<Vec<Duration>> = Arc::new(
            (0..n)
                .map(|_| {
                    let u: f64 = gap_rng.gen_range(1e-12..1.0);
                    t += -u.ln() / qps as f64;
                    Duration::from_secs_f64(t)
                })
                .collect(),
        );
        let (mut tx, mut rx) = Client::connect(addr).expect("connect").split();
        let start = Instant::now();
        let sender = std::thread::spawn({
            let schedule = Arc::clone(&schedule);
            let pool = pool.clone();
            move || {
                for (i, due) in schedule.iter().enumerate() {
                    loop {
                        let now = start.elapsed();
                        if now >= *due {
                            break;
                        }
                        // Sleep the bulk, spin the last stretch — a 1 ms
                        // oversleep at 8 kqps is 8 requests of skew.
                        match (*due - now).checked_sub(Duration::from_micros(300)) {
                            Some(bulk) => std::thread::sleep(bulk),
                            None => std::hint::spin_loop(),
                        }
                    }
                    tx.send(i as u64, &pool[i % pool.len()]).expect("send");
                }
            }
        });
        let mut latencies_ns: Vec<f64> = Vec::with_capacity(n);
        let mut shed = 0u64;
        let mut unexpected = 0u64;
        for _ in 0..n {
            let resp = rx
                .recv()
                .expect("recv")
                .expect("server closed with requests outstanding");
            let done = start.elapsed();
            let due = schedule[usize::try_from(resp.id).expect("id fits")];
            match &resp.body {
                Ok(_) => latencies_ns.push(done.saturating_sub(due).as_nanos() as f64),
                Err(e) if e.code == ErrorCode::Overloaded => shed += 1,
                Err(_) => unexpected += 1,
            }
        }
        sender.join().expect("sender thread");
        assert_eq!(unexpected, 0, "only Overloaded errors are expected");
        latencies_ns.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        let pct = |q: f64| -> f64 {
            if latencies_ns.is_empty() {
                return 0.0;
            }
            latencies_ns[((latencies_ns.len() - 1) as f64 * q).round() as usize]
        };
        let (p50, p99, p999) = (pct(0.50), pct(0.99), pct(0.999));
        let shed_permille = 1000.0 * shed as f64 / n as f64;
        row(&[
            qps.to_string(),
            n.to_string(),
            f(p50 / 1e3),
            f(p99 / 1e3),
            f(p999 / 1e3),
            f(shed_permille),
        ]);
    }
    let stats = server.shutdown();
    assert_eq!(
        stats.admitted + stats.shed,
        total_sent,
        "every request must be admitted or shed"
    );
    assert_eq!(
        stats.protocol_errors, 0,
        "load generator speaks the protocol"
    );
}

/// E19 — observability read-back: a durable-write run whose WAL
/// group-commit batch sizes and fsync latencies are read back from the
/// live psi-obs registry, the same instruments `STATS` serves.
///
/// Instrument overhead is not measured here: recording is always on,
/// and perfbench's same-sitting A/B of parent against change is what
/// shows a cost end to end.
pub fn e19() {
    use psi_api::MutOp;
    use psi_wal::{wal_metrics, Durable, DurableOptions};

    head(
        "E19",
        "observability: WAL fsync/batch histograms read back from the live registry after a durable-write run",
    );
    let root = std::env::temp_dir().join("psi_bench_obs_wal");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("bench obs wal dir");
    // Bench-harness reset: isolate this run's samples from whatever
    // the process recorded earlier (the handles stay live).
    let m = wal_metrics();
    m.fsync_ns.reset();
    m.commit_batch.reset();
    let sigma = 64u32;
    let io = IoSession::untracked();
    let mut d = Durable::create(
        root.join("wal"),
        SemiDynamicIndex::new(sigma, IoConfig::default()),
        DurableOptions {
            group_commit_ops: 32,
            ..DurableOptions::default()
        },
    )
    .expect("create durable");
    let ops = 2_048usize;
    for i in 0..ops {
        d.apply(
            &MutOp::Append {
                symbol: (i as u32 * 2_654_435_761) >> 16 & (sigma - 1),
            },
            &io,
        )
        .expect("apply");
    }
    d.commit().expect("commit");
    drop(d);
    let fsync = m.fsync_ns.snapshot();
    let batch = m.commit_batch.snapshot();
    assert_eq!(
        batch.count, fsync.count,
        "one batch-size sample per group commit"
    );
    assert!(
        batch.mean() >= 31.0,
        "group commit of 32 must fill its batches (mean {:.1})",
        batch.mean()
    );
    hdr(&["wal histogram", "n", "mean", "p50", "p99"]);
    for (name, h) in [("fsync_ns", &fsync), ("commit_batch", &batch)] {
        row(&[
            name.to_string(),
            h.count.to_string(),
            f(h.mean()),
            h.quantile(0.50).to_string(),
            h.quantile(0.99).to_string(),
        ]);
    }
}

/// E20 — kernel layer: the dual-chain SWAR/accelerated gamma decoder
/// and the occupancy-word probe rule-out, the latter measured against an
/// occupancy-free copy of the same stream in one process.
pub fn e20() {
    e20_run(100_000, 2_000, 2.0)
}

/// [`e20`] with explicit sizes (the CI smoke run shrinks both and
/// loosens the speedup gate for shared-runner noise).
///
/// Printed rows: `kernel/decode_{sparse13,dense,dense_random}` (batch
/// decode through whatever kernel dispatch picks — one or two chains,
/// run-of-ones test compiled in or out, SWAR or CPU-accelerated) and
/// `kernel/intersect_probe_{skip,occfree}` (one probe workload against
/// the dense stream as built, and against the occupancy-free copy: the
/// same stream and directory with every entry's occupancy word zeroed,
/// the no-information value append paths persist).
///
/// The run is also a correctness gate, not just a stopwatch: every
/// decode is compared against its source positions, both probe arms
/// must return the same elements, the kernel counters must show the
/// fast paths actually ran (dispatch silently falling back to scalar
/// would otherwise read as a mysterious slowdown), and the skip arm must
/// beat the occupancy-free arm by `min_speedup`.
pub fn e20_run(decode_n: usize, clusters: u64, min_speedup: f64) {
    use psi_api::RidSet;
    use psi_bits::{kernel, GapBitmap, SkipDirectory, SkipEntry};

    head(
        "E20",
        "kernel layer: dual-chain gamma decode, run-length burst rule, occupancy probe rule-out vs an occupancy-free copy",
    );
    let print = |bench: String, ns: f64, elements: u64| {
        println!(
            "{bench:<40} {ns:>14.1} ns/iter  ({:.2} ns/element)",
            ns / elements as f64
        );
    };
    let counters = kernel::metrics();
    let decode_kernel_ops =
        || counters.decode_swar.get() + counters.decode_simd.get() + counters.decode_scalar.get();

    // --- batch decode: sparse13 (7-bit codes) takes the dual-chain path
    // with the run-of-ones test compiled out; dense (regular runs of six
    // unit gaps, ~1.3 bits/code) the burst loop; dense_random (gaps
    // geometric with mean 2, ~2.3 bits/code — the shape of a served
    // operand at half density, whose unit-gap runs average two codes)
    // compiles the run test out again.
    let n = decode_n as u64;
    let mut rng = StdRng::seed_from_u64(20);
    let mut at = 0u64;
    let dense_random: Vec<u64> = (0..n)
        .map(|_| {
            let p = at;
            at += 1 + u64::from(rng.gen::<u64>().trailing_zeros());
            p
        })
        .collect();
    let shapes: [(&str, Vec<u64>); 3] = [
        ("sparse13", (0..n).map(|i| i * 13).collect()),
        ("dense", (0..n).map(|i| i + i / 7).collect()),
        ("dense_random", dense_random),
    ];
    let mut buf = Vec::with_capacity(decode_n);
    for (name, positions) in &shapes {
        let bm = GapBitmap::from_sorted(positions, positions.last().unwrap() + 1);
        let ops_before = decode_kernel_ops();
        let ns = measure(|| {
            bm.decode_all(&mut buf);
            buf.len()
        });
        assert_eq!(
            &buf, positions,
            "kernel decode of {name} must reproduce its source positions"
        );
        assert!(
            decode_kernel_ops() > ops_before,
            "no decode kernel counted the {name} batch"
        );
        print(format!("kernel/decode_{name}"), ns, n);
    }

    // --- sparse-probe-vs-dense intersection: B is clusters of 100
    // positions at stride 4000 (well inside one occupancy window), A
    // probes once per cluster — 1 in 10 hits, the misses land in the
    // covered-but-empty gap where `rules_out` answers from the occupancy
    // word alone, skipping B's gallop and tail decode entirely. Against
    // the occupancy-free copy no probe is ruled out, the credit gate
    // stops consulting, and every probe gallops.
    let b_pos: Vec<u64> = (0..clusters)
        .flat_map(|c| (0..100).map(move |j| c * 4000 + j))
        .collect();
    let a_pos: Vec<u64> = (0..clusters)
        .map(|c| c * 4000 + if c % 10 == 0 { c % 100 } else { 2000 + c % 64 })
        .collect();
    let universe = clusters * 4000 + 1;
    let a = RidSet::from_positions(GapBitmap::from_sorted(&a_pos, universe));
    let b = GapBitmap::from_sorted(&b_pos, universe);
    let dir = b.skip_dir();
    let blind = dir
        .entries()
        .iter()
        .map(|&e| SkipEntry { occ: 0, ..e })
        .collect();
    let b_occfree = RidSet::from_positions(GapBitmap::from_code_bits_indexed(
        b.code_bits().clone(),
        b.count(),
        universe,
        SkipDirectory::from_entries(dir.k(), blind),
    ));
    let b = RidSet::from_positions(b);
    let probe = |arm: &str, other: &RidSet| -> (f64, Vec<u64>) {
        let ns = measure(|| a.intersect(other).cardinality());
        let got = a.intersect(other).to_vec();
        print(format!("kernel/intersect_probe_{arm}"), ns, clusters);
        (ns, got)
    };
    let skips_before = counters.intersect_block_skip.get();
    let (fast, fast_got) = probe("skip", &b);
    assert!(
        counters.intersect_block_skip.get() > skips_before,
        "occupancy probe skip never fired on the probe workload"
    );
    let (occfree, occfree_got) = probe("occfree", &b_occfree);
    assert_eq!(
        fast_got, occfree_got,
        "occupancy words changed the intersection"
    );
    assert_eq!(fast_got.len() as u64, clusters.div_ceil(10), "probe hits");
    let speedup = occfree / fast;
    println!("    probe-skip speedup over the occupancy-free arm: {speedup:.2}x");
    assert!(
        speedup >= min_speedup,
        "sparse-probe-vs-dense must be ≥{min_speedup}x with occupancy words (got {speedup:.2}x)"
    );
}

/// Runs every experiment in order.
pub fn all() {
    e01();
    e02();
    e03();
    e04();
    e05();
    e06();
    e07();
    e08();
    e09();
    e10();
    e11();
    e12();
    e13();
    e14();
    e15();
    e16();
    e17();
    e18();
    e19();
    e20();
}
