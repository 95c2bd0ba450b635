//! `serve_conjunctive`: the user-facing path, with every index block in
//! the pool.
//!
//! The paper's people table at 2^18 rows, one `OptimalIndex` per column,
//! saved, reopened file-backed with verified fetches, and served by
//! `psi::serve::Server` (default `ServeConfig`) over loopback TCP. A
//! seeded pool of conjunctions — half "married men of age a", a third
//! narrow age ranges, the rest broad — is sent first open loop (Poisson
//! arrivals on one connection: a sender and a receiver thread), then
//! closed loop (`nproc` connections, one thread each, a fixed window).
//! The closed loop gives the end-to-end latency and throughput, the open
//! loop the per-layer split of a request's time. It is the only workload
//! that crosses the server and the only one that intersects.
//!
//! The load speaks the wire protocol through `psi::serve::wire`'s public
//! functions (those `psi::serve::Client` is made of), so the traced run
//! can time the decode apart from the wait.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use psi::io::IoSession;
use psi::query::{ConjunctiveQuery, IndexedColumn, IndexedTable, Predicate};
use psi::serve::wire::{self, FrameIn, Response};
use psi::serve::{Client, ServeConfig, Server};
use psi::store::Opened;
use psi::workloads::Table;
use psi::{HasDisk, IoConfig, OptimalIndex, SecondaryIndex};

use crate::env::{self, Counters, Pooled};
use crate::report::Report;
use crate::rng::{poisson_schedule, Rng};
use crate::stats::{digest, median, quantile, ratio, Digest};
use crate::trace::{self, Tracer};
use crate::Args;

const ROWS: usize = 1 << 18;
/// Distinct queries; each request draws one.
const POOL: usize = 192;
/// Open-loop arrivals per second: about a fifth of the closed-loop
/// capacity of a 2-vCPU host on this mix (150-210/s). Fixed, so that
/// every run and every commit is offered the same load.
const OPEN_RATE: f64 = 35.0;
/// Share of the run given to the open loop; the closed loop gets the
/// rest. The open loop's own p99 over about 1,000 requests swung by a
/// third between runs of one build on a shared 2-vCPU host, so the
/// end-to-end latency is taken from the closed loop's thousands of
/// requests, and the open loop feeds the per-layer split.
const OPEN_SHARE: f64 = 0.3;
/// Requests in flight per closed-loop connection, well under the
/// default `max_inflight_per_conn` (64): a shed is then a bug, not load.
const WINDOW: usize = 2;
/// Served requests the traced run replays in-process: the open loop's,
/// then the closed loop's first, enough for a p99 of each layer call.
const REPLAYS: usize = 1050;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reopens per run; `recover_s` is their median.
const REOPENS: usize = 15;

struct Inputs {
    table: Table,
    queries: Vec<ConjunctiveQuery>,
    oracle: Vec<Digest>,
}

/// The query pool, stratified so that every seed asks the same mix:
/// half "married men of age a" (a marital point, a sex point and 1-4
/// ages), a third single narrow age ranges, and a sixth broad queries (a
/// marital point alone, or with 32-92 ages). Marital and sex values and
/// widths cycle; ages are drawn from the rows' own age distribution,
/// one draw per equal slice of it, so dense ages come up more often.
fn pool(rng: &mut Rng, table: &Table) -> Result<Vec<Predicate>, String> {
    let mut ages = table
        .column("age")
        .ok_or("people table has no age")?
        .data
        .clone();
    ages.sort_unstable();
    let mut age_at = |j: usize, of: usize| {
        let q = (j as f64 + rng.unit()) / of as f64;
        ages[((q * ages.len() as f64) as usize).min(ages.len() - 1)]
    };
    let marital = |j: usize| Predicate::point("marital_status", (j % 4) as u32);
    let ages_from = |a: u32, width: u32| {
        let lo = a.min(128 - width);
        Predicate::range("age", lo, lo + width - 1)
    };
    let (married, narrow, broad) = (POOL / 2, POOL / 3, POOL / 6);
    let mut out = Vec::with_capacity(POOL);
    for j in 0..married {
        let width = 1 + (j / 8 % 4) as u32;
        let sex = Predicate::point("sex", (j / 4 % 2) as u32);
        out.push(Predicate::and([
            marital(j),
            sex,
            ages_from(age_at(j, married), width),
        ]));
    }
    for j in 0..narrow {
        out.push(ages_from(age_at(j, narrow), 1 + (j % 4) as u32));
    }
    for j in 0..broad {
        if j < broad / 2 {
            out.push(marital(j));
        } else {
            let width = 32 + 4 * (j - broad / 2) as u32;
            let centre = age_at(j - broad / 2, broad / 2);
            out.push(Predicate::and([
                marital(j),
                ages_from(centre.saturating_sub(width / 2), width),
            ]));
        }
    }
    Ok(out)
}

/// `count` query ids that visit the pool in seeded shuffled rounds, so
/// that every query is asked equally often.
fn rounds(rng: &mut Rng, count: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..POOL).collect();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend_from_slice(&ids[..ids.len().min(count - out.len())]);
    }
    out
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let table = psi::workloads::people_table(ROWS, seed);
    let predicates = pool(&mut Rng::new(seed, 1), &table)?;
    let queries = predicates
        .iter()
        .map(|p| p.normalize().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let oracle = env::par_map(&predicates, |p| digest(p.naive_rows(&table)));
    Ok(Inputs {
        table,
        queries,
        oracle,
    })
}

/// A running server over freshly built, saved and reopened indexes.
struct Live {
    server: Server,
    table: Arc<IndexedTable>,
    opened: Vec<Arc<Opened<OptimalIndex>>>,
    /// Each saved column with its pool size, for reopening.
    saved: Vec<(PathBuf, usize)>,
    save_ms: f64,
    open_ms: f64,
    file_bytes: u64,
    space_bits: u64,
}

/// Build, save, open, serve and warm up; returns the live server and
/// the seconds of program work (answer checks excluded).
fn setup(inputs: &Inputs, dir: &Path, report: &mut Report) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let (mut save_ms, mut open_ms, mut file_bytes, mut space_bits) = (0.0, 0.0, 0, 0);
    let (mut columns, mut opened, mut saved) = (Vec::new(), Vec::new(), Vec::new());
    for c in &inputs.table.columns {
        let index = OptimalIndex::build(&c.data, c.sigma, IoConfig::default());
        // Twice the blocks: the pool is sharded, and no shard may evict.
        let blocks = 2 * index.disk().used_blocks() as usize;
        let path = dir.join(format!("{}.psi", c.name));
        let t = Instant::now();
        file_bytes += psi::store::save(&index, &path)
            .map_err(|e| e.to_string())?
            .file_bytes;
        save_ms += t.elapsed().as_secs_f64() * 1e3;
        drop(index);
        let t = Instant::now();
        let o = Arc::new(env::open_pooled(&path, blocks)?);
        open_ms += t.elapsed().as_secs_f64() * 1e3;
        space_bits += o.index.space_bits();
        columns.push(IndexedColumn {
            name: c.name.clone(),
            sigma: c.sigma,
            index: Box::new(Pooled(Arc::clone(&o))),
        });
        opened.push(o);
        saved.push((path, blocks));
    }
    let table = Arc::new(IndexedTable::from_columns(columns));
    let server = Server::serve(Arc::clone(&table), ServeConfig::default())
        .map_err(|e| format!("serve: {e}"))?;
    // Warm-up: every pooled query once, so the measured phases find
    // every block they need resident.
    let addr = server.addr().ok_or("server has no TCP address")?;
    let order: Vec<usize> = (0..POOL).collect();
    let warm = closed_conn(addr, inputs, &order, None, 0, &mut Tracer::new(false, t0))?;
    let secs = t0.elapsed().as_secs_f64() - warm.check_ns as f64 / 1e9;
    warm.into_report(report, "warm-up");
    let live = Live {
        server,
        table,
        opened,
        saved,
        save_ms,
        open_ms,
        file_bytes,
        space_bits,
    };
    Ok((live, secs))
}

fn connect(addr: SocketAddr) -> Result<(BufWriter<TcpStream>, BufReader<TcpStream>), String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    // A stalled server fails the run instead of hanging it.
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let r = s.try_clone().map_err(|e| e.to_string())?;
    Ok((BufWriter::new(s), BufReader::new(r)))
}

fn send(w: &mut BufWriter<TcpStream>, id: u64, q: &ConjunctiveQuery) -> Result<(), String> {
    wire::write_frame(w, &wire::encode_request(id, q)).map_err(|e| format!("send: {e}"))
}

fn recv_frame(r: &mut BufReader<TcpStream>) -> Result<Vec<u8>, String> {
    match wire::read_frame_blocking(r, wire::MAX_FRAME_BYTES) {
        Ok(FrameIn::Payload(p)) => Ok(p),
        Ok(other) => Err(format!("response frame: {other:?}")),
        Err(e) => Err(format!("receive: {e}")),
    }
}

fn decode(payload: &[u8]) -> Result<Response, String> {
    wire::decode_response(payload).map_err(|e| format!("decode: {e}"))
}

/// Outcomes of answered requests.
#[derive(Default)]
struct Tally {
    answered: u64,
    rows: u64,
    bytes: u64,
    blocks: u64,
    /// Shed or answered with a typed error.
    errors: u64,
    wrong: Vec<String>,
    /// Time spent checking answers, for phases that must exclude it.
    check_ns: u64,
    /// Send to decoded response, per closed-loop request.
    lat_ns: Vec<f64>,
}

impl Tally {
    fn settle(&mut self, resp: Response, bytes: usize, expect: Digest, what: &str) {
        let t = Instant::now();
        self.answered += 1;
        self.bytes += bytes as u64;
        match resp.body {
            Ok(reply) => {
                let got = digest(reply.rows.iter().copied());
                if got != expect {
                    self.wrong.push(format!(
                        "{what} request {}: {} rows, expected {}",
                        resp.id, got.rows, expect.rows
                    ));
                }
                self.rows += reply.rows.len() as u64;
                self.blocks += reply.blocks_read;
            }
            // A failure, not a wrong answer; the server counts its sheds
            // itself (`serve.shed`).
            Err(_) => self.errors += 1,
        }
        self.check_ns += t.elapsed().as_nanos() as u64;
    }

    fn merge(&mut self, other: Tally) {
        self.answered += other.answered;
        self.rows += other.rows;
        self.bytes += other.bytes;
        self.blocks += other.blocks;
        self.errors += other.errors;
        self.wrong.extend(other.wrong);
        self.check_ns += other.check_ns;
        self.lat_ns.extend(other.lat_ns);
    }

    fn into_report(self, report: &mut Report, phase: &str) {
        report.attempted += self.answered;
        report.failed += self.errors;
        for w in self.wrong {
            report.wrong(format!("{phase}: {w}"));
        }
    }
}

/// What the open-loop sender saw: how late it ran for each request, and
/// (traced) when each send began and ended.
type Sent = (Vec<f64>, Vec<(Instant, Instant)>);

struct OpenPhase {
    lat_ns: Vec<f64>,
    late_ns: Vec<f64>,
    tally: Tally,
}

/// The open loop: one connection, a sender thread that sleeps to each
/// due time of the schedule and a receiver (this thread). Latency runs
/// from the due time to the decoded response.
fn open_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    due_ns: &[u64],
    qids: &[usize],
    tracer: &mut Tracer,
) -> Result<OpenPhase, String> {
    let (mut w, mut r) = connect(addr)?;
    let n = due_ns.len();
    let traced = tracer.on();
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| start + Duration::from_nanos(due_ns[k]);
    let queries = &inputs.queries;
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<Sent, String> {
            let mut late = Vec::with_capacity(n);
            let mut sends = Vec::with_capacity(if traced { n } else { 0 });
            for k in 0..n {
                let now = Instant::now();
                if due(k) > now {
                    std::thread::sleep(due(k) - now);
                }
                let t = Instant::now();
                late.push(t.saturating_duration_since(due(k)).as_nanos() as f64);
                send(&mut w, k as u64, &queries[qids[k]])?;
                if traced {
                    sends.push((t, Instant::now()));
                }
            }
            Ok((late, sends))
        });
        let mut lat = vec![f64::NAN; n];
        let mut stamps = vec![(start, start); if traced { n } else { 0 }];
        let mut tally = Tally::default();
        let received = (|| -> Result<(), String> {
            for _ in 0..n {
                let payload = recv_frame(&mut r)?;
                let framed = if traced { Instant::now() } else { start };
                let resp = decode(&payload)?;
                let done = Instant::now();
                let k = usize::try_from(resp.id)
                    .ok()
                    .filter(|&k| k < n && lat[k].is_nan());
                let k = k.ok_or_else(|| format!("unexpected response id {}", resp.id))?;
                lat[k] = done.saturating_duration_since(due(k)).as_nanos() as f64;
                if traced {
                    stamps[k] = (framed, done);
                }
                let expect = inputs.oracle[qids[k]];
                tally.settle(resp, payload.len(), expect, "open loop");
            }
            Ok(())
        })();
        // Unblock a sender stuck on a dead socket before joining it.
        if received.is_err() {
            let _ = r.get_ref().shutdown(std::net::Shutdown::Both);
        }
        let sent = sender.join().map_err(|_| "open-loop sender panicked")?;
        received?;
        let (late_ns, sends) = sent?;
        for k in 0..sends.len() {
            let (s0, s1) = sends[k];
            let (framed, done) = stamps[k];
            let root = tracer.record(
                "serve.request",
                tracer.ns_at(due(k)),
                tracer.ns_at(done),
                None,
                k as u64,
            );
            tracer.record(
                "serve.send",
                tracer.ns_at(s0),
                tracer.ns_at(s1),
                root,
                k as u64,
            );
            tracer.record(
                "serve.wait",
                tracer.ns_at(s1),
                tracer.ns_at(framed),
                root,
                k as u64,
            );
            tracer.record(
                "serve.decode",
                tracer.ns_at(framed),
                tracer.ns_at(done),
                root,
                k as u64,
            );
        }
        Ok(OpenPhase {
            lat_ns: lat,
            late_ns,
            tally,
        })
    })
}

/// One closed-loop connection: keeps `WINDOW` requests in flight, drawing
/// query ids from `order` (cycled) until `deadline`, then drains.
fn closed_conn(
    addr: SocketAddr,
    inputs: &Inputs,
    order: &[usize],
    deadline: Option<Instant>,
    id_base: u64,
    tracer: &mut Tracer,
) -> Result<Tally, String> {
    let (mut w, mut r) = connect(addr)?;
    let mut tally = Tally::default();
    let mut inflight = std::collections::HashMap::new();
    let mut next = 0usize;
    let more = |next: usize| match deadline {
        Some(d) => Instant::now() < d,
        None => next < order.len(),
    };
    loop {
        while inflight.len() < WINDOW && more(next) {
            let qid = order[next % order.len()];
            let id = id_base + next as u64;
            let sent = Instant::now();
            send(&mut w, id, &inputs.queries[qid])?;
            inflight.insert(id, (qid, sent, tracer.now()));
            next += 1;
        }
        if inflight.is_empty() {
            break;
        }
        let payload = recv_frame(&mut r)?;
        let framed = tracer.now();
        let resp = decode(&payload)?;
        let (done_at, done) = (Instant::now(), tracer.now());
        let (qid, sent, s1) = inflight
            .remove(&resp.id)
            .ok_or_else(|| format!("unexpected response id {}", resp.id))?;
        tally
            .lat_ns
            .push(done_at.duration_since(sent).as_nanos() as f64);
        if tracer.on() {
            let s0 = tracer.ns_at(sent);
            let root = tracer.record("serve.request", s0, done, None, resp.id);
            tracer.record("serve.send", s0, s1, root, resp.id);
            tracer.record("serve.wait", s1, framed, root, resp.id);
            tracer.record("serve.decode", framed, done, root, resp.id);
        }
        tally.settle(resp, payload.len(), inputs.oracle[qid], "closed loop");
    }
    Ok(tally)
}

/// Query ids each closed-loop connection sends, in order.
fn closed_orders(seed: u64) -> Vec<Vec<usize>> {
    (0..env::nproc())
        .map(|c| rounds(&mut Rng::new(seed, 100 + c as u64), 4096))
        .collect()
}

/// First request id of closed-loop connection `c`.
fn id_base(c: usize) -> u64 {
    (c as u64 + 1) << 40
}

/// The closed loop: `nproc` connections, each on its own thread, for
/// `seconds`. Returns answered requests per second and the merged tally.
fn closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    seconds: f64,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(f64, Tally), String> {
    let orders = closed_orders(seed);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let forks: Vec<Tracer> = orders.iter().map(|_| tracer.fork()).collect();
    let results: Vec<Result<(Tally, Tracer), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = orders
            .iter()
            .zip(forks)
            .enumerate()
            .map(|(c, (order, mut t))| {
                s.spawn(move || {
                    closed_conn(addr, inputs, order, Some(deadline), id_base(c), &mut t)
                        .map(|tally| (tally, t))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("closed-loop thread panicked".into()))
            })
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    for r in results {
        let (c, t) = r?;
        tracer.absorb(t);
        tally.merge(c);
    }
    Ok((tally.answered as f64 / elapsed, tally))
}

/// Traced run: replays served requests in-process, linked to their ids,
/// through the public calls the server makes on their behalf: the
/// executor as a whole, then planning, each condition's index query,
/// the decode of its answer stream, the intersections, `to_vec` and the
/// response encoding.
fn replay(
    table: &IndexedTable,
    inputs: &Inputs,
    requests: &[(u64, usize)],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let n = table.rows();
    let (mut examined, mut answer_rows, mut plans) = (0u64, 0u64, [0u64; 3]);
    let (mut bits_read, mut cond_rows, mut decoded, mut intersected) = (0u64, 0u64, 0u64, 0u64);
    let (mut combine_ns, mut over_bound) = (Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for &(req, qid) in requests {
        let q = &inputs.queries[qid];
        let root = tracer.open("replay", None, req);
        let outcome = tracer
            .time("query.exec", root, req, || table.execute_conjunctive(q))
            .map_err(|e| e.to_string())?;
        let plan = tracer
            .time("query.plan", root, req, || table.plan_query(q))
            .map_err(|e| e.to_string())?;
        let mut sets = Vec::with_capacity(plan.order.len());
        for &i in &plan.order {
            let cond = &q.conditions[i];
            let col = table
                .columns()
                .iter()
                .find(|c| c.name == cond.attr)
                .ok_or_else(|| format!("no column {}", cond.attr))?;
            let io = IoSession::new();
            let rows = tracer
                .time("core.cond", root, req, || {
                    col.index.try_query(cond.lo, cond.hi, &io)
                })
                .map_err(|e| e.to_string())?;
            let st = io.stats();
            bits_read += st.bits_read;
            cond_rows += rows.cardinality();
            over_bound.push(env::over_thm2(st.reads, n, rows.cardinality()));
            let stored = rows.stored();
            buf.clear();
            tracer.time("bits.decode", root, req, || stored.decode_all(&mut buf));
            decoded += stored.count();
            sets.push(rows);
        }
        let mut sets = sets.into_iter();
        let mut acc = sets.next().ok_or("empty conjunction")?;
        for s in sets {
            intersected += acc.stored().count() + s.stored().count();
            let next = tracer.time("api.intersect", root, req, || acc.intersect(&s));
            acc = next;
        }
        let rows = tracer.time("api.to_vec", root, req, || acc.to_vec());
        let payload = tracer.time("serve.encode", root, req, || {
            wire::encode_rows(req, &outcome)
        });
        tracer.close(root);
        std::hint::black_box(payload);

        let expect = inputs.oracle[qid];
        if digest(rows.iter().copied()) != expect || digest(outcome.rows.iter()) != expect {
            report.wrong(format!("replay of request {req} disagrees with its oracle"));
        }
        let t = &outcome.trace;
        plans[env::plan_slot(t.strategy)] += 1;
        examined += t.conditions.iter().map(|c| c.actual).sum::<u64>();
        answer_rows += t.result_rows;
        // The executor's own time after its conditions: combining and
        // building the outcome.
        let conds: u64 = t.conditions.iter().map(|c| c.elapsed_ns).sum();
        combine_ns.push(t.elapsed_ns.saturating_sub(conds) as f64);
    }
    let total = |name: &str| tracer.durations(name).iter().sum::<f64>();
    report.set_us("query.exec_us", &tracer.durations("query.exec"));
    report.set(
        "query.plan_us.p50",
        median(&tracer.durations("query.plan")) / 1e3,
    );
    report.set("query.combine_us.p50", median(&combine_ns) / 1e3);
    report.set(
        "query.examined_per_row",
        ratio(examined as f64, answer_rows as f64),
    );
    report.set("query.plans.gallop", plans[0] as f64);
    report.set("query.plans.probe", plans[1] as f64);
    report.set("query.plans.scan", plans[2] as f64);
    report.set(
        "api.intersect_ns_per_elem",
        ratio(total("api.intersect"), intersected as f64),
    );
    report.set(
        "api.to_vec_ns_per_row",
        ratio(total("api.to_vec"), answer_rows as f64),
    );
    report.set_us("core.cond_us", &tracer.durations("core.cond"));
    report.set(
        "core.bits_read_per_row",
        ratio(bits_read as f64, cond_rows as f64),
    );
    report.set("core.blocks_over_bound", crate::stats::mean(&over_bound));
    report.set(
        "bits.decode_ns_per_elem",
        ratio(total("bits.decode"), decoded as f64),
    );
    report.set(
        "serve.encode_ns_per_row",
        ratio(total("serve.encode"), answer_rows as f64),
    );
    Ok(())
}

fn pool_totals(live: &Live) -> (psi::io::PoolStats, u64) {
    live.opened.iter().fold(
        Default::default(),
        |(ps, f): (psi::io::PoolStats, u64), o| (ps.merged(&o.pool_stats()), f + o.real_fetches()),
    )
}

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let inputs = inputs(args.seed)?;
    let open_requests = (OPEN_SHARE * args.seconds * OPEN_RATE).ceil() as usize;
    let due_ns = poisson_schedule(args.seed, OPEN_RATE, open_requests);
    let qids = rounds(&mut Rng::new(args.seed, 2), open_requests);

    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        // One server at a time: the previous set-up is torn down first.
        drop(live.take());
        let (l, secs) = setup(&inputs, dir, &mut report)?;
        setup_s.push(secs);
        live = Some(l);
    }
    let live = live.expect("at least one set-up");
    let addr = live.server.addr().ok_or("server has no TCP address")?;
    let mut control = Client::connect(addr).map_err(|e| format!("control connection: {e}"))?;
    let mut stats = |id| control.stats(id).map_err(|e| format!("STATS: {e}"));

    let mut tracer = Tracer::new(args.trace, Instant::now());
    let (pool0, fetched0) = pool_totals(&live);
    let (c0, s0, serve0) = (Counters::now(), stats(1)?, live.server.stats());
    let open = open_loop(addr, &inputs, &due_ns, &qids, &mut tracer)?;
    let open_decode_ns: f64 = tracer.durations("serve.decode").iter().sum();
    let s1 = stats(2)?;
    let open_s = due_ns.last().map_or(0.0, |&d| d as f64 / 1e9);
    let closed_s = (args.seconds - open_s).max(1.0);
    let (qps, closed, overhead) = if args.trace {
        // Half untraced, half traced: the throughput ratio is the
        // tracing overhead.
        let (plain, t1) =
            closed_loop(addr, &inputs, closed_s / 2.0, args.seed, &mut tracer.fork())?;
        let (traced, mut t2) = closed_loop(addr, &inputs, closed_s / 2.0, args.seed, &mut tracer)?;
        t2.merge(t1);
        (traced, t2, ratio(plain, traced))
    } else {
        let (q, t) = closed_loop(addr, &inputs, closed_s, args.seed, &mut tracer)?;
        (q, t, 0.0)
    };
    let (c1, s2, serve1) = (Counters::now(), stats(3)?, live.server.stats());
    let (pool1, fetched1) = pool_totals(&live);
    drop(control);

    report.set_query_latency(&closed.lat_ns, args.trace)?;
    let lat = &open.lat_ns;
    let p50 = median(lat) / 1e3;
    report.set("qps", qps);
    report.set("setup_s", median(&setup_s));
    report.set("space_bits_per_row", live.space_bits as f64 / ROWS as f64);
    let t = &open.tally;
    report.set(
        "sim_blocks_per_query",
        ratio(t.blocks as f64, t.answered as f64),
    );
    report.note(format!(
        "open loop {} requests at {OPEN_RATE}/s over {open_s:.1} s; \
         closed loop {} conns x window {WINDOW} for {closed_s:.1} s",
        lat.len(),
        env::nproc()
    ));
    report.note(format!("setup_s samples {setup_s:?}"));
    report.note(format!(
        "open loop: p50 {p50:.0} us, p90 {:.0} us",
        quantile(lat, 0.9) / 1e3
    ));

    let server_ns = crate::stats::hist_delta(
        s1.histogram("serve/request_ns"),
        s0.histogram("serve/request_ns"),
    );
    let batches = crate::stats::hist_delta(
        s2.histogram("serve/batch_occupancy"),
        s0.histogram("serve/batch_occupancy"),
    );
    let server_p50 = env::hist_us(&server_ns, 0.5);
    report.set("serve.server_us.p50", server_p50);
    report.set("serve.server_us.p99", env::hist_us(&server_ns, 0.99));
    report.set("serve.outside_us.p50", p50 - server_p50);
    report.set("serve.batch_mean", batches.mean());
    report.set(
        "serve.response_bytes_per_row",
        ratio(t.bytes as f64, t.rows as f64),
    );
    report.set("serve.shed", (serve1.shed - serve0.shed) as f64);
    report.set(
        "serve.decode_ns_per_row",
        ratio(open_decode_ns, t.rows as f64),
    );
    report.set_us("bench.gen_late_us", &open.late_ns);
    report.set("bench.trace_overhead", overhead);

    let queries = (t.answered + closed.answered) as f64;
    let hits = (pool1.hits - pool0.hits) as f64;
    let misses = (pool1.misses - pool0.misses) as f64;
    report.set("io.pool_hit_rate", ratio(hits, hits + misses));
    report.set(
        "io.real_reads_per_query",
        ratio((fetched1 - fetched0) as f64, queries),
    );
    report.set(
        "io.evictions_per_query",
        ratio((pool1.evictions - pool0.evictions) as f64, queries),
    );
    report.set("io.pool_grown", (pool1.grown - pool0.grown) as f64);
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

    if args.trace {
        // The open loop's requests, then the closed loop's first ones,
        // taken round-robin over its connections.
        let orders = closed_orders(args.seed);
        let mut requests: Vec<(u64, usize)> = qids
            .iter()
            .enumerate()
            .map(|(k, &q)| (k as u64, q))
            .collect();
        for i in 0.. {
            if requests.len() >= REPLAYS {
                break;
            }
            requests.extend(
                orders
                    .iter()
                    .enumerate()
                    .map(|(c, o)| (id_base(c) + i, o[i as usize])),
            );
        }
        replay(&live.table, &inputs, &requests, &mut tracer, &mut report)?;
        let ram = IndexedTable::build(&inputs.table, |data, sigma| {
            Box::new(OptimalIndex::build(data, sigma, IoConfig::default()))
        });
        report.set(
            "io.pool_overhead",
            env::pool_overhead(&live.table, &ram, &inputs.queries)?,
        );
        trace::finish(&tracer, "serve_conjunctive", args.seed, &mut report)?;
    }
    let Live { server, saved, .. } = live;
    server.shutdown();
    open.tally.into_report(&mut report, "open loop");
    closed.into_report(&mut report, "closed loop");
    if !args.trace {
        report.set("recover_s", env::reopen_s(&saved, REOPENS)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi::serve::wire::{RowsReply, WireError};

    fn reply(rows: Vec<u64>) -> Response {
        Response {
            id: 7,
            body: Ok(RowsReply {
                rows,
                blocks_read: 2,
                degraded: false,
            }),
        }
    }

    #[test]
    fn gate_trips_on_a_doctored_response() {
        let expect = digest([3, 8, 21]);
        let mut t = Tally::default();
        t.settle(reply(vec![3, 8, 21]), 40, expect, "test");
        assert!(t.wrong.is_empty());
        t.settle(reply(vec![3, 8]), 32, expect, "test");
        t.settle(reply(vec![3, 9, 21]), 40, expect, "test");
        assert_eq!(t.wrong.len(), 2);
        // A shed request is a failure, not a wrong answer.
        let shed = Response {
            id: 8,
            body: Err(WireError::overloaded()),
        };
        t.settle(shed, 10, expect, "test");
        assert_eq!((t.answered, t.errors, t.wrong.len()), (4, 1, 2));
    }

    #[test]
    fn pool_mix_is_the_same_for_every_seed() {
        let table = psi::workloads::people_table(4096, 5);
        let kinds = |seed| {
            let pool = pool(&mut Rng::new(seed, 1), &table).unwrap();
            pool.iter()
                .map(|p| p.normalize().unwrap().conditions.len())
                .collect::<Vec<_>>()
        };
        let k = kinds(1);
        assert_eq!(k, kinds(2));
        assert_eq!(k.len(), POOL);
        assert_eq!(k.iter().filter(|&&n| n == 3).count(), POOL / 2);
        assert_eq!(k.iter().filter(|&&n| n == 1).count(), POOL / 3 + POOL / 12);
        let r = rounds(&mut Rng::new(3, 2), 2 * POOL);
        let mut first: Vec<usize> = r[..POOL].to_vec();
        first.sort_unstable();
        assert!(
            first.iter().copied().eq(0..POOL),
            "each round visits every query once"
        );
        assert_eq!(r, rounds(&mut Rng::new(3, 2), 2 * POOL));
    }
}
