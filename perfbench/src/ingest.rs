//! `durable_ingest`: writes beside reads.
//!
//! A `psi::wal::Durable` over a `FullyDynamicIndex` of 2^18 Zipf(1.0)
//! symbols with σ = 256, in the run's directory inside the checkout. A
//! seeded stream of `MutOp`s (80% appends, 15% changes, 5% deletes) runs
//! in a closed loop on one thread with the shipped group commit (64 ops
//! per fdatasync) and a checkpoint every 128 KiB of log; every 16th step
//! is a narrow range query through `Durable::try_query`. After the loop
//! the handle is dropped and `psi::wal::recover` runs. It is the only
//! workload that crosses the WAL, incremental checkpoints and the
//! dynamic update path; its queries read a RAM-resident index.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use psi::io::IoSession;
use psi::wal::{Durable, DurableOptions};
use psi::{ApplyOp, FullyDynamicIndex, IoConfig, MutOp, RidSet, SecondaryIndex, Symbol};

use crate::env::Counters;
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{digest, mean, median, ratio};
use crate::trace::{self, Tracer};
use crate::Args;

const ROWS: usize = 1 << 18;
const SIGMA: Symbol = 256;
/// The shipped group-commit watermark.
const GROUP_COMMIT_OPS: usize = 64;
/// Small enough that a run completes many checkpoint cycles.
const CHECKPOINT_WAL_BYTES: u64 = 128 << 10;
/// One read per this many steps.
const READ_EVERY: usize = 16;
/// Pre-generated steps; a run that uses them all stops early.
const MAX_STEPS: usize = 3 << 19;
/// `space_bits_per_row` and `sim_blocks_per_query` are taken over the
/// first this many steps, which every run passes, so they repeat exactly
/// for a seed.
const FIXED_OPS: usize = 1 << 16;
/// Answers are checked against the shadow every this many steps, with
/// the clock stopped.
const CHECK_EVERY: usize = 4096;
/// Operations in the log of the copy that `recover_s` recovers: the
/// copy is taken this many operations after the first checkpoint past
/// the fixed mark.
const TAIL_OPS: u64 = 1024;
/// Mutations replayed on a plain index for `core.apply_us`.
const SHADOW_OPS: usize = 1 << 15;
const SETUPS: usize = 3;
/// Recoveries of the copy timed for `recover_s`, one every
/// `RECOVER_EVERY` chunks once the copy exists, so that they sample the
/// host across the run rather than in one burst.
const RECOVERS: usize = 9;
const RECOVER_EVERY: usize = 16;

/// One pre-generated step: a mutation, or a read of `[sym, sym + pos]`.
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: u8,
    sym: u8,
    pos: u32,
}

const APPEND: u8 = 0;
const CHANGE: u8 = 1;
const DELETE: u8 = 2;
const READ: u8 = 3;

impl Step {
    fn op(self) -> MutOp {
        let (pos, symbol) = (u64::from(self.pos), Symbol::from(self.sym));
        match self.kind {
            APPEND => MutOp::Append { symbol },
            CHANGE => MutOp::Change { pos, symbol },
            _ => MutOp::Delete { pos },
        }
    }

    fn range(self) -> (Symbol, Symbol) {
        let lo = Symbol::from(self.sym);
        (lo, (lo + self.pos).min(SIGMA - 1))
    }
}

struct Inputs {
    initial: Vec<Symbol>,
    steps: Vec<Step>,
}

fn inputs(seed: u64) -> Inputs {
    let initial = psi::workloads::zipf(ROWS, SIGMA, 1.0, seed);
    // Written symbols follow the same Zipf(1.0) law as the column.
    let cdf: Vec<f64> = (1..=SIGMA)
        .scan(0.0, |acc, c| {
            *acc += 1.0 / f64::from(c);
            Some(*acc)
        })
        .collect();
    let mut rng = Rng::new(seed, 1);
    let steps = (0..MAX_STEPS)
        .map(|i| {
            if i % READ_EVERY == READ_EVERY - 1 {
                // A narrow range of 1-4 symbols, its start spread over
                // the alphabet by the golden ratio, so every seed asks
                // the same mix of head and tail symbols.
                let k = i / READ_EVERY;
                let start = (k as f64 * 0.618_034).fract() * f64::from(SIGMA);
                return Step {
                    kind: READ,
                    sym: start as u8,
                    pos: (k % 4) as u32,
                };
            }
            let u = rng.unit() * cdf[cdf.len() - 1];
            let sym = cdf.partition_point(|&p| p < u).min(cdf.len() - 1) as u8;
            // Changes and deletes target the initial rows, so every one
            // applies within the index's current snapshot.
            let pos = rng.below(ROWS as u64) as u32;
            let kind = match rng.below(100) {
                0..=79 => APPEND,
                80..=94 => CHANGE,
                _ => DELETE,
            };
            Step { kind, sym, pos }
        })
        .collect();
    Inputs { initial, steps }
}

/// The oracle: the string as the acknowledged operations left it, with
/// each symbol's positions for answering ranges.
struct Shadow {
    symbols: Vec<Option<Symbol>>,
    positions: Vec<BTreeSet<u64>>,
}

impl Shadow {
    fn new(initial: &[Symbol]) -> Shadow {
        let mut positions = vec![BTreeSet::new(); SIGMA as usize];
        for (i, &s) in initial.iter().enumerate() {
            positions[s as usize].insert(i as u64);
        }
        Shadow {
            symbols: initial.iter().map(|&s| Some(s)).collect(),
            positions,
        }
    }

    fn apply(&mut self, op: MutOp) {
        let (pos, new) = match op {
            MutOp::Append { symbol } => {
                self.symbols.push(None);
                (self.symbols.len() as u64 - 1, Some(symbol))
            }
            MutOp::Change { pos, symbol } => (pos, Some(symbol)),
            MutOp::Delete { pos } => (pos, None),
        };
        let slot = &mut self.symbols[pos as usize];
        if let Some(old) = slot.take() {
            self.positions[old as usize].remove(&pos);
        }
        if let Some(s) = new {
            self.positions[s as usize].insert(pos);
        }
        *slot = new;
    }

    /// The rows of `[lo, hi]` in order: a merge of the symbols' sorted
    /// position sets.
    fn answer(&self, lo: Symbol, hi: Symbol) -> impl Iterator<Item = u64> + '_ {
        let mut heads: Vec<_> = (lo..=hi)
            .map(|s| self.positions[s as usize].iter().copied().peekable())
            .collect();
        std::iter::from_fn(move || {
            let next = heads
                .iter_mut()
                .filter_map(|h| h.peek().copied().map(|p| (p, h)))
                .min_by_key(|&(p, _)| p)?;
            next.1.next()
        })
    }
}

/// Every symbol's rows in `index` must be the shadow's: a lost
/// acknowledged write, or one applied twice, shows as a difference.
fn check_state(index: &impl SecondaryIndex, shadow: &Shadow) -> Result<(), String> {
    if index.len() != shadow.symbols.len() as u64 {
        return Err(format!(
            "index holds {} rows, the acknowledged operations {}",
            index.len(),
            shadow.symbols.len()
        ));
    }
    for s in 0..SIGMA {
        let got = index
            .try_query(s, s, &IoSession::untracked())
            .map_err(|e| format!("query of symbol {s}: {e}"))?;
        if digest(got.iter()) != digest(shadow.positions[s as usize].iter().copied()) {
            return Err(format!(
                "symbol {s}: {} rows, the acknowledged operations leave {}",
                got.cardinality(),
                shadow.positions[s as usize].len()
            ));
        }
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let copy = || -> std::io::Result<()> {
        std::fs::create_dir_all(to)?;
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
        Ok(())
    };
    copy().map_err(|e| format!("copy {} to {}: {e}", from.display(), to.display()))
}

/// Recovers the durable directory `dir` and checks that it holds exactly
/// the first `acked` operations, against `shadow`. Returns the seconds
/// recovery took and the operations it replayed.
fn recover_checked(
    dir: &Path,
    acked: u64,
    shadow: &Shadow,
    report: &mut Report,
) -> Result<(f64, usize), String> {
    let t = Instant::now();
    let (recovered, rep) = psi::wal::recover::<FullyDynamicIndex>(dir, options())
        .map_err(|e| format!("recover: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if recovered.last_seq() != acked {
        report.wrong(format!(
            "recovered to seq {} of {}, {acked} were acknowledged",
            recovered.last_seq(),
            dir.display()
        ));
    }
    if let Err(e) = check_state(recovered.index(), shadow) {
        report.wrong(format!("after recovering {}: {e}", dir.display()));
    }
    Ok((secs, rep.replayed))
}

fn options() -> DurableOptions {
    DurableOptions {
        group_commit_ops: GROUP_COMMIT_OPS,
        checkpoint_wal_bytes: Some(CHECKPOINT_WAL_BYTES),
        ..DurableOptions::default()
    }
}

/// Build the index and make it durable in a fresh directory.
fn setup(inputs: &Inputs, dir: &Path) -> Result<Durable<FullyDynamicIndex>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let index = FullyDynamicIndex::build(&inputs.initial, SIGMA, IoConfig::default());
    Durable::create(dir, index, options()).map_err(|e| format!("create: {e}"))
}

/// What the loop measured.
#[derive(Default)]
struct Loop {
    /// Steps taken (mutations and reads).
    next: usize,
    ops: u64,
    reads: u64,
    /// Time in the loop with the clock running (checks excluded).
    active_s: f64,
    /// Clock time and steps of untraced and traced chunks.
    by_mode: [(f64, u64); 2],
    read_ns: Vec<f64>,
    apply_ns: Vec<f64>,
    commit_ns: Vec<f64>,
    checkpoint_ns: Vec<f64>,
    log_bytes: u64,
    /// Ops of the groups committed inside checkpointing calls, whose
    /// log bytes rotate away unseen.
    unseen_ops: u64,
    /// Space per row at each chunk boundary up to the fixed mark (the
    /// buffered updates make single readings jump).
    fixed_space_bits: Vec<f64>,
    fixed_blocks: Vec<f64>,
    /// Past the fixed mark: mutations since the first checkpoint after
    /// it, until the durable directory is copied for `recover_s`.
    since_checkpoint: Option<u64>,
    /// Operations acknowledged in that copy.
    copied_acked: u64,
    /// Timed recoveries of the copy.
    recover_s: Vec<f64>,
    bits_read: u64,
    read_rows: u64,
    /// Elements decoded and rows converted by the traced chunks' extra
    /// calls.
    decoded: u64,
    to_vec_rows: u64,
}

/// Runs steps until `seconds` of clock time pass, in chunks of
/// [`CHECK_EVERY`] steps; between chunks the clock stops and the reads'
/// answers are checked against the shadow. A traced run alternates
/// untraced and traced chunks, so that both see the same index sizes.
fn run_loop(
    durable: &mut Durable<FullyDynamicIndex>,
    inputs: &Inputs,
    shadow: &mut Shadow,
    snapshot_dir: &Path,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Loop, String> {
    let mut state = Loop::default();
    // Writes charge no simulated I/O here, as on a serving write path;
    // each read gets a fresh tracking session for its cost.
    let io = IoSession::untracked();
    let mut plain = tracer.off();
    let mut pending: Vec<(usize, RidSet)> = Vec::with_capacity(CHECK_EVERY / READ_EVERY);
    let mut buf = Vec::new();
    while state.active_s < seconds && state.next < inputs.steps.len() {
        let chunk = state.next..(state.next + CHECK_EVERY).min(inputs.steps.len());
        let mode = usize::from(tracer.on() && chunk.start / CHECK_EVERY % 2 == 1);
        let tr = if mode == 1 { &mut *tracer } else { &mut plain };
        let clock = Instant::now();
        let mut paused = 0.0;
        for i in chunk.clone() {
            let step = inputs.steps[i];
            let req = i as u64;
            if step.kind == READ {
                let (lo, hi) = step.range();
                let session = IoSession::new();
                let s0 = tr.now();
                let t = Instant::now();
                let answer = durable.try_query(lo, hi, &session);
                state.read_ns.push(t.elapsed().as_nanos() as f64);
                tr.record("core.cond", s0, tr.now(), None, req);
                let answer = answer.map_err(|e| format!("read at step {i}: {e}"))?;
                let st = session.stats();
                if i < FIXED_OPS {
                    state.fixed_blocks.push(st.reads as f64);
                }
                state.bits_read += st.bits_read;
                state.read_rows += answer.cardinality();
                if tr.on() {
                    let stored = answer.stored();
                    buf.clear();
                    tr.time("bits.decode", None, req, || stored.decode_all(&mut buf));
                    state.decoded += stored.count();
                }
                state.reads += 1;
                pending.push((i, answer));
            } else {
                let (acked, epoch, bytes) =
                    (durable.acked_seq(), durable.epoch(), durable.wal_bytes());
                let s0 = tr.now();
                let t = Instant::now();
                durable
                    .apply(&step.op(), &io)
                    .map_err(|e| format!("apply at step {i}: {e}"))?;
                let ns = t.elapsed().as_nanos() as f64;
                let kind = if durable.epoch() != epoch {
                    state.checkpoint_ns.push(ns);
                    state.log_bytes += durable.wal_bytes();
                    state.unseen_ops += GROUP_COMMIT_OPS as u64;
                    "wal.checkpoint"
                } else if durable.acked_seq() != acked {
                    state.commit_ns.push(ns);
                    state.log_bytes += durable.wal_bytes() - bytes;
                    "wal.commit"
                } else {
                    state.apply_ns.push(ns);
                    "wal.apply"
                };
                tr.record(kind, s0, tr.now(), None, req);
                state.ops += 1;
                if i >= FIXED_OPS && state.copied_acked == 0 {
                    state.since_checkpoint = match state.since_checkpoint {
                        None if kind == "wal.checkpoint" => Some(0),
                        n => n.map(|n| n + 1),
                    };
                    if state.since_checkpoint == Some(TAIL_OPS) {
                        // The files as they stand between two calls are
                        // what a crash here would leave: recovery must
                        // bring back every op acknowledged so far.
                        let t = Instant::now();
                        copy_dir(durable.dir(), snapshot_dir)?;
                        state.copied_acked = durable.acked_seq();
                        paused += t.elapsed().as_secs_f64();
                    }
                }
            }
        }
        let secs = clock.elapsed().as_secs_f64() - paused;
        state.active_s += secs;
        state.by_mode[mode].0 += secs;
        state.by_mode[mode].1 += chunk.len() as u64;
        state.next = chunk.end;
        if state.next <= FIXED_OPS {
            let index = durable.index();
            state
                .fixed_space_bits
                .push(index.space_bits() as f64 / index.len() as f64);
        }
        state.to_vec_rows += check_reads(inputs, shadow, chunk, &mut pending, tr, report);
        let chunks = state.next / CHECK_EVERY;
        if state.copied_acked != 0
            && chunks.is_multiple_of(RECOVER_EVERY)
            && state.recover_s.len() < RECOVERS
        {
            state.recover_s.push(time_recover(snapshot_dir)?);
        }
    }
    Ok(state)
}

/// Seconds to recover the durable directory `dir`.
fn time_recover(dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let recovered = psi::wal::recover::<FullyDynamicIndex>(dir, options())
        .map_err(|e| format!("recover: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    drop(recovered);
    Ok(secs)
}

/// Replays `steps` onto the shadow and compares each read's answer with
/// the shadow as of that read. Returns the rows converted under a
/// recording tracer.
fn check_reads(
    inputs: &Inputs,
    shadow: &mut Shadow,
    steps: std::ops::Range<usize>,
    pending: &mut Vec<(usize, RidSet)>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> u64 {
    let mut traced_rows = 0;
    let mut answers = pending.drain(..).peekable();
    for i in steps {
        let step = inputs.steps[i];
        if step.kind != READ {
            shadow.apply(step.op());
            continue;
        }
        let Some((j, answer)) = answers.next_if(|&(j, _)| j == i) else {
            continue;
        };
        let (lo, hi) = step.range();
        let rows = tracer.time("api.to_vec", None, j as u64, || answer.to_vec());
        if tracer.on() {
            traced_rows += rows.len() as u64;
        }
        if digest(rows) != digest(shadow.answer(lo, hi)) {
            report.wrong(format!(
                "read at step {j} of [{lo}, {hi}] disagrees with the shadow"
            ));
        }
    }
    traced_rows
}

/// Applies the first `ops` mutations to a plain `FullyDynamicIndex`, so
/// the core update path is timed apart from the log.
fn shadow_apply(inputs: &Inputs, ops: usize, tracer: &mut Tracer) -> Result<(), String> {
    let mut index = FullyDynamicIndex::build(&inputs.initial, SIGMA, IoConfig::default());
    let io = IoSession::untracked();
    let steps = inputs
        .steps
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind != READ)
        .take(ops);
    for (i, step) in steps {
        tracer
            .time("core.apply", None, i as u64, || {
                index.apply_op(&step.op(), &io)
            })
            .map_err(|e| format!("apply at step {i}: {e}"))?;
    }
    Ok(())
}

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let inputs = inputs(args.seed);
    let mut report = Report::default();
    let wal_dir: PathBuf = dir.join("durable");
    let mut setup_s = Vec::new();
    let mut durable = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(durable.take());
        let t = Instant::now();
        durable = Some(setup(&inputs, &wal_dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut durable = durable.expect("at least one set-up");
    let mut shadow = Shadow::new(&inputs.initial);
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let snapshot_dir = dir.join("copy");
    let c0 = Counters::now();
    let state = run_loop(
        &mut durable,
        &inputs,
        &mut shadow,
        &snapshot_dir,
        args.seconds,
        &mut tracer,
        &mut report,
    )?;
    let c1 = Counters::now();
    let per_step = |(secs, steps): (f64, u64)| ratio(secs, steps as f64);
    let overhead = ratio(per_step(state.by_mode[1]), per_step(state.by_mode[0]));
    if state.copied_acked == 0 {
        return Err(format!(
            "only {} steps ran, too few to copy the log for recovery",
            state.next
        ));
    }
    if state.next == inputs.steps.len() {
        report.note(format!(
            "operation stream exhausted after {} steps",
            state.next
        ));
    }
    report.attempted += state.ops + state.reads;

    // The gate: after the last op the handle is dropped (committing any
    // open group) and every applied op must come back.
    let acked = durable.last_seq();
    drop(durable);
    let (end_s, end_replayed) = recover_checked(&wal_dir, acked, &shadow, &mut report)?;
    report.note(format!(
        "end-of-run recovery took {:.1} ms and replayed {end_replayed} ops",
        end_s * 1e3
    ));

    // `recover_s` times recovery of the copy, so every run of a seed
    // recovers the same files, and every seed a log of TAIL_OPS.
    let mut at_copy = Shadow::new(&inputs.initial);
    let mutations = inputs.steps.iter().filter(|s| s.kind != READ);
    for step in mutations.take(state.copied_acked as usize) {
        at_copy.apply(step.op());
    }
    let mut recover_s = state.recover_s.clone();
    let (secs, replayed) =
        recover_checked(&snapshot_dir, state.copied_acked, &at_copy, &mut report)?;
    recover_s.push(secs);
    while recover_s.len() < RECOVERS {
        recover_s.push(time_recover(&snapshot_dir)?);
    }

    report.set_query_latency(&state.read_ns, args.trace)?;
    report.set("qps", state.reads as f64 / state.active_s);
    report.set("setup_s", median(&setup_s));
    report.set("recover_s", median(&recover_s));
    report.set("space_bits_per_row", mean(&state.fixed_space_bits));
    report.set("sim_blocks_per_query", mean(&state.fixed_blocks));
    let write_ops = state.ops as f64 / state.active_s;
    report.set("wal.write_ops_per_s", write_ops);
    report.note(format!(
        "{} ops and {} reads in {:.1} s ({write_ops:.0} ops/s), {} checkpoints; recovery replayed {replayed}",
        state.ops,
        state.reads,
        state.active_s,
        state.checkpoint_ns.len()
    ));
    report.note(format!(
        "setup_s samples {setup_s:?}; recover_s samples {recover_s:?}"
    ));

    report.set_us("wal.apply_us", &state.apply_ns);
    report.set_us("wal.commit_us", &state.commit_ns);
    let fsync = c0.hist_since(&c1, "wal/fsync_ns");
    report.set("wal.fsync_us.p50", crate::env::hist_us(&fsync, 0.5));
    report.set("wal.fsync_us.p99", crate::env::hist_us(&fsync, 0.99));
    report.set(
        "wal.commit_batch_mean",
        c0.hist_since(&c1, "wal/commit_batch").mean(),
    );
    let cp_ms: Vec<f64> = state.checkpoint_ns.iter().map(|ns| ns / 1e6).collect();
    report.set("wal.checkpoint_ms.p50", median(&cp_ms));
    report.set(
        "wal.checkpoint_ms.max",
        cp_ms.iter().copied().fold(0.0, f64::max),
    );
    // The group committed inside a checkpointing call rotates out of the
    // log before it can be seen; it is counted at the mean record size.
    let seen_ops = (state.ops - state.unseen_ops) as f64;
    let log = state.log_bytes as f64 * (1.0 + ratio(state.unseen_ops as f64, seen_ops));
    let checkpoint_bytes = c0.counter_since(&c1, "wal/checkpoint_bytes") as f64;
    report.set(
        "wal.bytes_per_op",
        ratio(log + checkpoint_bytes, state.ops as f64),
    );
    report.set("wal.replayed_ops", replayed as f64);
    report.set("bench.trace_overhead", overhead);
    report.set_us("core.cond_us", &state.read_ns);
    report.set(
        "core.bits_read_per_row",
        ratio(state.bits_read as f64, state.read_rows as f64),
    );
    c0.report_kernels(&c1, &mut report);

    if args.trace {
        let decode: f64 = tracer.durations("bits.decode").iter().sum();
        report.set(
            "bits.decode_ns_per_elem",
            ratio(decode, state.decoded as f64),
        );
        let to_vec: f64 = tracer.durations("api.to_vec").iter().sum();
        report.set(
            "api.to_vec_ns_per_row",
            ratio(to_vec, state.to_vec_rows as f64),
        );
        shadow_apply(&inputs, (state.ops as usize).min(SHADOW_OPS), &mut tracer)?;
        report.set_us("core.apply_us", &tracer.durations("core.apply"));
        trace::finish(&tracer, "durable_ingest", args.seed, &mut report)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_trips_on_a_dropped_acknowledged_write() {
        let inputs = Inputs {
            initial: (0..64).map(|i| i % SIGMA).collect(),
            steps: Vec::new(),
        };
        let mut index = FullyDynamicIndex::build(&inputs.initial, SIGMA, IoConfig::default());
        let mut shadow = Shadow::new(&inputs.initial);
        let io = IoSession::new();
        let ops = [
            MutOp::Append { symbol: 7 },
            MutOp::Change { pos: 3, symbol: 9 },
            MutOp::Delete { pos: 5 },
            MutOp::Change { pos: 5, symbol: 1 },
        ];
        for op in ops {
            index.apply_op(&op, &io).unwrap();
            shadow.apply(op);
        }
        assert_eq!(check_state(&index, &shadow), Ok(()));
        assert!(shadow.answer(9, 9).eq([3, 9]));
        assert!(shadow.answer(6, 9).eq([3, 6, 7, 8, 9, 64]));
        // The index misses one write the shadow saw acknowledged.
        shadow.apply(MutOp::Change { pos: 10, symbol: 2 });
        assert!(check_state(&index, &shadow).is_err());
        shadow.apply(MutOp::Append { symbol: 0 });
        assert!(check_state(&index, &shadow).unwrap_err().contains("rows"));
    }

    #[test]
    fn steps_reproduce_from_their_seed() {
        let (a, b) = (inputs(3), inputs(3));
        assert_eq!(a.initial, b.initial);
        let key = |s: &Step| (s.kind, s.sym, s.pos);
        assert!(a.steps.iter().map(key).eq(b.steps.iter().map(key)));
        let reads = a.steps.iter().filter(|s| s.kind == READ).count();
        assert_eq!(reads, MAX_STEPS / READ_EVERY);
    }
}
