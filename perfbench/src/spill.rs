//! `range_spill`: the storage path, with an index bigger than its pool.
//!
//! One column of 2^22 Zipf(1.0) symbols over σ = 1024, one
//! `OptimalIndex` saved (about 22 MiB) and reopened file-backed with
//! verified fetches and a pool of an eighth of its blocks. Single
//! ranges, selectivities log-uniform over 1e-5..1e-1, go through
//! `IndexedTable` in a closed loop on one thread after a warm-up pass.
//! It is the only workload where the pool evicts and misses; with no
//! server and no intersection it is the control for those layers.
//! Misses are served from the OS page cache: a miss costs a pread and a
//! checksum, not a device read.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use psi::io::IoSession;
use psi::query::{ConjunctiveQuery, IndexedColumn, IndexedTable, Predicate};
use psi::store::Opened;
use psi::{HasDisk, IoConfig, OptimalIndex, SecondaryIndex, Symbol};

use crate::env::{self, Counters, Pooled};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{digest, mean, median, ratio, Digest};
use crate::trace::{self, Tracer};
use crate::Args;

const ROWS: usize = 1 << 22;
const SIGMA: Symbol = 1024;
const POOL: usize = 128;
/// The buffer pool holds this share of the index's blocks.
const POOL_SHARE: usize = 8;
const SETUPS: usize = 3;
/// `recover_s` is the median of reopens timed one every `REOPEN_EVERY`
/// rounds, so that they sample the host across the run rather than in
/// one burst; at least `REOPENS` of them.
const REOPEN_EVERY: usize = 4;
const REOPENS: usize = 9;

struct Inputs {
    symbols: Vec<Symbol>,
    ranges: Vec<(Symbol, Symbol)>,
    queries: Vec<ConjunctiveQuery>,
    oracle: Vec<Digest>,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let symbols = psi::workloads::zipf(ROWS, SIGMA, 1.0, seed);
    let mut counts = vec![0u64; SIGMA as usize];
    for &s in &symbols {
        counts[s as usize] += 1;
    }
    // Stratified log-uniform selectivities, one per 1/POOL slice of
    // [1e-5, 1e-1] in log scale, each paired with a start symbol spread
    // over the alphabet by the golden ratio: every seed asks the same
    // mix of narrow and wide, head and tail ranges.
    let mut rng = Rng::new(seed, 1);
    let ranges: Vec<(Symbol, Symbol)> = (0..POOL)
        .map(|i| {
            let sel = 10f64.powf(-5.0 + 4.0 * (i as f64 + rng.unit()) / POOL as f64);
            let lo = ((i as f64 * 0.618_034).fract() * f64::from(SIGMA)) as Symbol;
            grow(&counts, lo, (sel * ROWS as f64) as u64)
        })
        .collect();
    let queries = ranges
        .iter()
        .map(|&(lo, hi)| {
            Predicate::range("x", lo, hi)
                .normalize()
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let oracle = env::par_map(&ranges, |&(lo, hi)| {
        digest(psi::naive_query(&symbols, lo, hi).iter())
    });
    Ok(Inputs {
        symbols,
        ranges,
        queries,
        oracle,
    })
}

/// The range from `lo` grown one symbol at a time, rightwards while it
/// can, until it holds at least `target` rows.
fn grow(counts: &[u64], lo: Symbol, target: u64) -> (Symbol, Symbol) {
    let (mut lo, mut hi) = (lo, lo);
    let mut rows = counts[lo as usize];
    while rows < target && (hi + 1 < SIGMA || lo > 0) {
        if hi + 1 < SIGMA {
            hi += 1;
            rows += counts[hi as usize];
        } else {
            lo -= 1;
            rows += counts[lo as usize];
        }
    }
    (lo, hi)
}

struct Live {
    table: IndexedTable,
    opened: Arc<Opened<OptimalIndex>>,
    saved: (PathBuf, usize),
    save_ms: f64,
    open_ms: f64,
    file_bytes: u64,
    space_bits: u64,
    /// Simulated blocks charged per pooled query in the warm-up pass.
    warm_blocks: Vec<u64>,
}

/// Build, save, open and warm up; returns the table and the seconds of
/// program work (answer checks excluded).
fn setup(inputs: &Inputs, dir: &Path, report: &mut Report) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let index = OptimalIndex::build(&inputs.symbols, SIGMA, IoConfig::default());
    let blocks = index.disk().used_blocks() as usize / POOL_SHARE;
    let path = dir.join("x.psi");
    let t = Instant::now();
    let file_bytes = psi::store::save(&index, &path)
        .map_err(|e| e.to_string())?
        .file_bytes;
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(index);
    let t = Instant::now();
    let opened = Arc::new(env::open_pooled(&path, blocks)?);
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let table = IndexedTable::from_columns(vec![IndexedColumn {
        name: "x".into(),
        sigma: SIGMA,
        index: Box::new(Pooled(Arc::clone(&opened))),
    }]);
    let mut answers = Vec::with_capacity(POOL);
    for q in &inputs.queries {
        answers.push(table.execute_conjunctive(q).map_err(|e| e.to_string())?);
    }
    let secs = t0.elapsed().as_secs_f64();
    for (k, a) in answers.iter().enumerate() {
        if digest(a.rows.iter()) != inputs.oracle[k] {
            report.wrong(format!("warm-up query {k} disagrees with its oracle"));
        }
    }
    let live = Live {
        space_bits: opened.index.space_bits(),
        table,
        opened,
        saved: (path, blocks),
        save_ms,
        open_ms,
        file_bytes,
        warm_blocks: answers.iter().map(|a| a.io.reads).collect(),
    };
    Ok((live, secs))
}

/// What the closed loop measured.
#[derive(Default)]
struct Loop {
    lat_ns: Vec<f64>,
    busy_s: f64,
    failed: u64,
    /// Per-condition and after-condition executor time, from each
    /// query's `PlanTrace`.
    cond_ns: Vec<f64>,
    combine_ns: Vec<f64>,
    plans: [u64; 3],
    examined: u64,
    answer_rows: u64,
    /// Elements decoded and rows converted by the traced rounds' extra
    /// calls.
    decoded: u64,
    to_vec_rows: u64,
    /// Wall time and queries of untraced and traced rounds.
    by_mode: [(f64, u64); 2],
    /// Timed reopens of the saved index.
    reopen_s: Vec<f64>,
}

/// Runs pooled queries in seeded shuffled rounds until `seconds` pass.
/// Each call into the executor is timed alone; the answer check and the
/// traced run's extra calls sit outside that time. A traced run
/// alternates untraced and traced rounds.
fn closed_loop(
    live: &Live,
    inputs: &Inputs,
    seconds: f64,
    rng: &mut Rng,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Loop, String> {
    let mut out = Loop::default();
    let mut order: Vec<usize> = (0..POOL).collect();
    let mut buf = Vec::new();
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut plain = tracer.off();
    let mut k = 0u64;
    for round in 0.. {
        if Instant::now() >= t_end {
            break;
        }
        let mode = usize::from(tracer.on() && round % 2 == 1);
        let tracer = if mode == 1 { &mut *tracer } else { &mut plain };
        let wall = Instant::now();
        for i in (1..POOL).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &qid in &order {
            if Instant::now() >= t_end {
                break;
            }
            out.by_mode[mode].1 += 1;
            k += 1;
            let s0 = tracer.now();
            let t = Instant::now();
            let result = live.table.execute_conjunctive(&inputs.queries[qid]);
            let dt = t.elapsed();
            tracer.record("query.exec", s0, tracer.now(), None, k);
            out.busy_s += dt.as_secs_f64();
            out.lat_ns.push(dt.as_nanos() as f64);
            let outcome = match result {
                Ok(o) => o,
                Err(e) => {
                    out.failed += 1;
                    report.note(format!("query {qid} failed: {e}"));
                    continue;
                }
            };
            let trace = &outcome.trace;
            let conds: u64 = trace.conditions.iter().map(|c| c.elapsed_ns).sum();
            out.cond_ns
                .extend(trace.conditions.iter().map(|c| c.elapsed_ns as f64));
            out.combine_ns
                .push(trace.elapsed_ns.saturating_sub(conds) as f64);
            out.plans[env::plan_slot(trace.strategy)] += 1;
            out.examined += trace.conditions.iter().map(|c| c.actual).sum::<u64>();
            out.answer_rows += trace.result_rows;
            let got = if tracer.on() {
                let stored = outcome.rows.stored();
                buf.clear();
                tracer.time("bits.decode", None, k, || stored.decode_all(&mut buf));
                out.decoded += stored.count();
                let rows = tracer.time("api.to_vec", None, k, || outcome.rows.to_vec());
                out.to_vec_rows += rows.len() as u64;
                digest(rows)
            } else {
                digest(outcome.rows.iter())
            };
            if got != inputs.oracle[qid] {
                report.wrong(format!(
                    "query {qid} ({:?}) disagrees with its oracle",
                    inputs.ranges[qid]
                ));
            }
        }
        out.by_mode[mode].0 += wall.elapsed().as_secs_f64();
        if round % REOPEN_EVERY == REOPEN_EVERY - 1 {
            out.reopen_s
                .push(env::reopen_s(std::slice::from_ref(&live.saved), 1)?);
        }
    }
    Ok(out)
}

/// Traced run: per pooled query, the calls the executor makes, one at a
/// time: planning and the index query under a fresh session (its
/// simulated cost against Theorem 2).
fn replay(
    live: &Live,
    inputs: &Inputs,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let col = &live.table.columns()[0];
    let (mut bits_read, mut rows) = (0u64, 0u64);
    let mut over = Vec::with_capacity(POOL);
    for (k, q) in inputs.queries.iter().enumerate() {
        let req = k as u64;
        tracer
            .time("query.plan", None, req, || live.table.plan_query(q))
            .map_err(|e| e.to_string())?;
        let (lo, hi) = inputs.ranges[k];
        let io = IoSession::new();
        let answer = col
            .index
            .try_query(lo, hi, &io)
            .map_err(|e| e.to_string())?;
        let st = io.stats();
        bits_read += st.bits_read;
        rows += answer.cardinality();
        over.push(env::over_thm2(st.reads, ROWS as u64, answer.cardinality()));
    }
    report.set(
        "query.plan_us.p50",
        median(&tracer.durations("query.plan")) / 1e3,
    );
    report.set(
        "core.bits_read_per_row",
        ratio(bits_read as f64, rows as f64),
    );
    report.set("core.blocks_over_bound", mean(&over));
    Ok(())
}

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let inputs = inputs(args.seed)?;
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(live.take());
        let (l, secs) = setup(&inputs, dir, &mut report)?;
        setup_s.push(secs);
        live = Some(l);
    }
    let live = live.expect("at least one set-up");
    let mut rng = Rng::new(args.seed, 2);
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let (stats0, fetched0, c0) = (
        live.opened.pool_stats(),
        live.opened.real_fetches(),
        Counters::now(),
    );
    let mut run = closed_loop(
        &live,
        &inputs,
        args.seconds,
        &mut rng,
        &mut tracer,
        &mut report,
    )?;
    let (stats1, fetched1, c1) = (
        live.opened.pool_stats(),
        live.opened.real_fetches(),
        Counters::now(),
    );
    let n = run.lat_ns.len() as f64;
    report.attempted += run.lat_ns.len() as u64;
    report.failed += run.failed;
    let per_query = |(secs, queries): (f64, u64)| ratio(secs, queries as f64);
    let overhead = ratio(per_query(run.by_mode[1]), per_query(run.by_mode[0]));

    report.set_query_latency(&run.lat_ns, args.trace)?;
    report.set("qps", n / run.busy_s);
    report.set("setup_s", median(&setup_s));
    report.set("space_bits_per_row", live.space_bits as f64 / ROWS as f64);
    let warm: Vec<f64> = live.warm_blocks.iter().map(|&b| b as f64).collect();
    report.set("sim_blocks_per_query", mean(&warm));
    report.note(format!(
        "{n} queries, {:.1} s inside the executor; setup_s samples {setup_s:?}",
        run.busy_s
    ));

    let hits = (stats1.hits - stats0.hits) as f64;
    let misses = (stats1.misses - stats0.misses) as f64;
    report.set("io.pool_hit_rate", ratio(hits, hits + misses));
    report.set("io.real_reads_per_query", (fetched1 - fetched0) as f64 / n);
    report.set(
        "io.evictions_per_query",
        (stats1.evictions - stats0.evictions) as f64 / n,
    );
    report.set("io.pool_grown", (stats1.grown - stats0.grown) as f64);
    let fetch = c0.hist_since(&c1, "pool/fetch_ns");
    report.set("io.fetch_us.p50", env::hist_us(&fetch, 0.5));
    report.set("io.fetch_us.p99", env::hist_us(&fetch, 0.99));
    report.set(
        "io.retries",
        c0.counter_since(&c1, "io/retries_transient") as f64,
    );
    c0.report_kernels(&c1, &mut report);
    report.set("store.save_ms", live.save_ms);
    report.set("store.open_ms", live.open_ms);
    report.set(
        "store.file_bytes_per_row",
        live.file_bytes as f64 / ROWS as f64,
    );
    report.set("bench.trace_overhead", overhead);

    if args.trace {
        let total = |name: &str| tracer.durations(name).iter().sum::<f64>();
        report.set_us("query.exec_us", &tracer.durations("query.exec"));
        report.set_us("core.cond_us", &run.cond_ns);
        report.set("query.combine_us.p50", median(&run.combine_ns) / 1e3);
        report.set(
            "query.examined_per_row",
            ratio(run.examined as f64, run.answer_rows as f64),
        );
        report.set("query.plans.gallop", run.plans[0] as f64);
        report.set("query.plans.probe", run.plans[1] as f64);
        report.set("query.plans.scan", run.plans[2] as f64);
        report.set(
            "bits.decode_ns_per_elem",
            ratio(total("bits.decode"), run.decoded as f64),
        );
        report.set(
            "api.to_vec_ns_per_row",
            ratio(total("api.to_vec"), run.to_vec_rows as f64),
        );
        replay(&live, &inputs, &mut tracer, &mut report)?;
        let ram = IndexedTable::from_columns(vec![IndexedColumn {
            name: "x".into(),
            sigma: SIGMA,
            index: Box::new(OptimalIndex::build(
                &inputs.symbols,
                SIGMA,
                IoConfig::default(),
            )),
        }]);
        report.set(
            "io.pool_overhead",
            env::pool_overhead(&live.table, &ram, &inputs.queries)?,
        );
        trace::finish(&tracer, "range_spill", args.seed, &mut report)?;
    } else {
        while run.reopen_s.len() < REOPENS {
            run.reopen_s
                .push(env::reopen_s(std::slice::from_ref(&live.saved), 1)?);
        }
        report.set("recover_s", median(&run.reopen_s));
    }
    Ok(report)
}
