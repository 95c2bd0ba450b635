//! Integration: measured I/O and space stay within explicit constant
//! factors of each theorem's bound (the repository-level statement of the
//! reproduction; EXPERIMENTS.md records the sweep outputs).

use psi::io::cost;
use psi::{
    AppendIndex, ApproximateIndex, BufferedBitmapIndex, BufferedIndex, DynamicIndex,
    FullyDynamicIndex, IoConfig, IoSession, OptimalIndex, SecondaryIndex, SemiDynamicIndex,
    UniformTreeIndex,
};
use rand::prelude::*;
use rand::rngs::StdRng;

const B: u64 = psi::io::DEFAULT_BLOCK_BITS;

#[test]
fn thm1_uniform_tree_bounds() {
    let n = 1usize << 16;
    let sigma = 256u32;
    let s = psi::workloads::uniform(n, sigma, 1);
    let idx = UniformTreeIndex::build(&s, sigma, IoConfig::default());
    // Space O(n lg^2 sigma): lg^2 sigma = 64 bits per position.
    assert!(idx.space_bits() < 2 * (n as u64) * 64);
    // Query O(T/B + lg sigma).
    for (lo, hi) in [(5u32, 5u32), (0, 63), (17, 200)] {
        let (r, io) = idx.query_measured(lo, hi);
        let bound = r.size_bits() as f64 / B as f64 + 2.0 * 8.0;
        assert!(
            (io.reads as f64) <= 4.0 * bound + 4.0,
            "[{lo},{hi}]: {} reads vs bound {bound:.1}",
            io.reads
        );
    }
}

#[test]
fn thm2_optimal_bounds() {
    let n = 1usize << 18;
    let sigma = 512u32;
    let s = psi::workloads::zipf(n, sigma, 1.0, 2);
    let idx = OptimalIndex::build(&s, sigma, IoConfig::default());
    // Space O(nH0 + n + sigma lg^2 n).
    let nh0 = psi::bits::entropy::nh0_bits(&s, sigma);
    let overhead = f64::from(sigma) * 18.0 * 18.0;
    assert!(
        (idx.space_bits() as f64) < 8.0 * (nh0 + n as f64) + 4.0 * overhead,
        "space {} vs nH0 {nh0}",
        idx.space_bits()
    );
    // Query O(z lg(n/z)/B + log_b n + lg lg n).
    let b = IoConfig::default().words_per_block(n as u64);
    for (lo, hi) in [(3u32, 3u32), (10, 40), (0, 200)] {
        let (r, io) = idx.query_measured(lo, hi);
        let bound = cost::thm2_query_ios(n as u64, r.cardinality(), B, b);
        assert!(
            (io.reads as f64) <= 12.0 * bound + 16.0,
            "[{lo},{hi}]: {} reads vs thm2 {bound:.1}",
            io.reads
        );
    }
}

#[test]
fn thm3_approximate_is_superset_and_cheaper() {
    let n = 1usize << 18;
    let sigma = 512u32;
    let s = psi::workloads::uniform(n, sigma, 3);
    let idx = ApproximateIndex::build(&s, sigma, IoConfig::default(), 7);
    let io_a = IoSession::new();
    let r = idx.query_approx(9, 9, 0.1, &io_a);
    assert!(!r.is_exact());
    let truth = psi::naive_query(&s, 9, 9);
    for p in truth.iter() {
        assert!(r.contains(p), "lost exact member {p}");
    }
    let io_e = IoSession::new();
    let _ = idx.query(9, 9, &io_e);
    assert!(
        io_a.stats().bits_read < io_e.stats().bits_read,
        "approx {} bits vs exact {}",
        io_a.stats().bits_read,
        io_e.stats().bits_read
    );
}

#[test]
fn thm4_appends_preserve_query_bound() {
    let sigma = 128u32;
    let mut idx = SemiDynamicIndex::new(sigma, IoConfig::default());
    let stream = psi::workloads::uniform(1 << 16, sigma, 4);
    let mut total = 0u64;
    for &c in &stream {
        let io = IoSession::new();
        idx.append(c, &io);
        total += io.stats().total();
    }
    let n = stream.len() as u64;
    let per_append = total as f64 / n as f64;
    // Amortized O(lg lg n) with implementation constants.
    assert!(
        per_append < 10.0 * cost::lg_lg(n).max(1.0),
        "{per_append:.2} I/Os per append"
    );
    // Queries still answer correctly and output-sensitively.
    let b = IoConfig::default().words_per_block(n);
    let (r, io) = idx.query_measured(10, 12);
    assert_eq!(r.to_vec(), psi::naive_query(&stream, 10, 12).to_vec());
    let bound = cost::thm2_query_ios(n, r.cardinality(), B, b);
    assert!(
        (io.reads as f64) <= 16.0 * bound + 32.0,
        "{} reads vs {bound:.1}",
        io.reads
    );
}

#[test]
fn thm5_buffered_appends() {
    // E7's stream at a quarter of its length: 2^15 uniform symbols over
    // σ = 256, appended one per session. An empty index drains its log
    // every ~B records, so even B = 32768 drains once.
    let (n, sigma) = (1usize << 15, 256u32);
    let stream = psi::workloads::uniform(n, sigma, 7);
    let lg_n = cost::lg2(n as f64);
    let mut ratios = Vec::new();
    for block_bits in [2048u64, 8192, 32768] {
        let cfg = IoConfig::with_block_bits(block_bits);
        let mut idx = BufferedIndex::new(sigma, cfg);
        let mut total = 0;
        for &c in &stream {
            let io = IoSession::new();
            idx.append(c, &io);
            total += io.stats().total();
        }
        let bound = lg_n / cfg.words_per_block(n as u64) as f64;
        let ratio = total as f64 / n as f64 / bound;
        // Amortized O(lg n / b): the rows read 26.0, 23.9 and 23.6 times
        // lg n / b (E7's full stream 24.6, 21.0 and 20.1), at least 90% of
        // it the engine's writes while a drain appends the log's records.
        assert!(
            ratio <= 27.0,
            "B = {block_bits}: {ratio:.2} x lg n / b per append"
        );
        ratios.push(ratio);
    }
    // The constant does not vanish as B grows: the log's and the engine's
    // blocks are charged apart.
    assert!(
        ratios[2] >= ratios[0] / 2.0,
        "ratio to lg n / b fell from {:.2} at B = 2048 to {:.2} at B = 32768",
        ratios[0],
        ratios[2]
    );
}

#[test]
fn thm6_buffered_bitmap_bounds() {
    // E8: 2^18 uniform symbols over σ = 256, then 50,000 inserts.
    let (n, sigma) = (1usize << 18, 256u32);
    let s = psi::workloads::uniform(n, sigma, 8);
    let mut idx = BufferedBitmapIndex::build(&s, sigma, IoConfig::default());
    let mut rng = StdRng::seed_from_u64(9);
    let updates = 50_000u64;
    let mut total = 0;
    for step in 0..updates {
        let io = IoSession::new();
        idx.insert(rng.gen_range(0..sigma), n as u64 + step, &io);
        total += io.stats().total();
    }
    // Updates: amortized O(lg n / b), here within one I/O of lg n / b.
    let b = IoConfig::default().words_per_block(n as u64);
    let per_update = total as f64 / updates as f64;
    let lg_n = cost::lg2(n as f64);
    assert!(
        per_update <= lg_n / b as f64 + 1.0,
        "{per_update:.4} I/Os per update vs lg n / b = {:.4}",
        lg_n / b as f64
    );
    // Point queries: O(T/B + lg n), here within twice that.
    for ch in [0u32, 63, 200] {
        let io = IoSession::new();
        let r = idx.point_query(ch, &io);
        let bound = cost::output_bits(n as u64 + updates, r.len() as u64) / B as f64 + lg_n;
        assert!(
            (io.stats().reads as f64) <= 2.0 * bound,
            "char {ch}: {} reads vs T/B + lg n = {bound:.1}",
            io.stats().reads
        );
    }
}

#[test]
fn thm7_fully_dynamic_bounds() {
    // E9: 2^17 uniform symbols over σ = 128, then 20,000 changes, about
    // one in ten a delete.
    let (n, sigma) = (1usize << 17, 128u32);
    let mut current = psi::workloads::uniform(n, sigma, 10);
    let mut idx = FullyDynamicIndex::build(&current, sigma, IoConfig::default());
    let mut rng = StdRng::seed_from_u64(11);
    let io = IoSession::untracked();
    for _ in 0..20_000 {
        let pos = rng.gen_range(0..n as u64);
        if rng.gen_bool(0.1) {
            idx.delete(pos, &io);
            current[pos as usize] = sigma;
        } else {
            let v = rng.gen_range(0..sigma);
            idx.change(pos, v, &io);
            current[pos as usize] = v;
        }
    }
    // Range queries: O(z lg(n/z)/B + lg n lg lg n), here within six times
    // that. The widest range reads most over it: its result is dense, so
    // a row costs at least a one-bit gamma code where z lg(n/z) charges
    // about a third of a bit.
    let lg = cost::lg2(n as f64) * cost::lg_lg(n as u64);
    for (lo, hi) in [(5u32, 5u32), (10, 30), (0, 100)] {
        let io = IoSession::new();
        let r = idx.query(lo, hi, &io);
        assert_eq!(r.to_vec(), psi::naive_query(&current, lo, hi).to_vec());
        let bound = cost::output_bits(n as u64, r.cardinality()) / B as f64 + lg;
        assert!(
            (io.stats().reads as f64) <= 6.0 * bound,
            "[{lo},{hi}]: {} reads vs z lg(n/z)/B + lg n lg lg n = {bound:.1}",
            io.stats().reads
        );
    }
}

#[test]
fn uncompressed_and_position_list_are_the_extremes() {
    // The paper's framing (§1.3): position lists read z lg n bits;
    // uncompressed bitmaps read l*n bits; the optimal index beats the
    // worse of the two at both ends of the selectivity spectrum.
    use psi::baselines::{PositionListIndex, UncompressedBitmapIndex};
    let n = 1usize << 16;
    let sigma = 128u32;
    let s = psi::workloads::uniform(n, sigma, 5);
    let cfg = IoConfig::default();
    let opt = OptimalIndex::build(&s, sigma, cfg);
    let pl = PositionListIndex::build(&s, sigma, cfg);
    let un = UncompressedBitmapIndex::build(&s, sigma, cfg);

    // Wide range: position lists pay z lg n, optimal pays z lg(n/z).
    let (_, io_opt) = opt.query_measured(0, 100);
    let (_, io_pl) = pl.query_measured(0, 100);
    assert!(
        io_opt.reads < io_pl.reads,
        "optimal {} vs poslist {}",
        io_opt.reads,
        io_pl.reads
    );

    // Narrow range: uncompressed bitmaps still scan a whole bitmap.
    let (_, io_opt) = opt.query_measured(7, 7);
    let (_, io_un) = un.query_measured(7, 7);
    assert!(
        io_opt.reads <= io_un.reads,
        "optimal {} vs uncompressed {}",
        io_opt.reads,
        io_un.reads
    );
}
