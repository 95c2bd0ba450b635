//! Crash recovery under exhaustive fault injection: kill the write path
//! at every offset and prove recovery reproduces the acknowledged
//! prefix, bit-identical to a `BTreeSet` oracle.
//!
//! The full kill-at-every-offset claim is decomposed into layers, from
//! cheap-and-exhaustive to expensive-and-sampled:
//!
//! 1. **Every-byte scan sweep** — a real log produced by a real workload
//!    is cut at every byte and the scan must keep exactly the records
//!    that fit (`scan_sweep_over_real_log_every_byte`).
//! 2. **Record-boundary recovery sweep** — directory snapshots taken at
//!    every checkpoint let the log be truncated at *every record
//!    boundary of the whole workload*; each truncation is recovered and
//!    compared against the oracle prefix (both index families).
//! 3. **Intra-record byte sweep** — one tail is additionally cut at
//!    non-boundary byte offsets (every byte under `PSI_WAL_SWEEP=full`,
//!    a stride otherwise): recovery lands on the previous boundary.
//! 4. **Real process kills** — a child process (this test binary,
//!    re-exec'd) runs the workload with the crash hook armed and is
//!    `abort()`ed mid-commit at a grid of byte offsets; the parent
//!    recovers and checks nothing acknowledged was lost.
//! 5. **Mid-checkpoint crash** — byte surgery plants a torn superblock
//!    slot flip; recovery falls back to the previous epoch and replays
//!    the old log.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use psi_api::{ApplyOp, MutOp, SecondaryIndex};
use psi_core::{FullyDynamicIndex, SemiDynamicIndex};
use psi_io::{IoConfig, IoSession};
use psi_store::PersistIndex;
use psi_wal::{recover, scan_bytes, wal_file_name, Durable, DurableOptions, WAL_HEADER_BYTES};

const SIGMA: u32 = 8;

fn cfg() -> IoConfig {
    IoConfig::with_block_bits(512)
}

fn full_sweep() -> bool {
    std::env::var("PSI_WAL_SWEEP").ok().as_deref() == Some("full")
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("psi_wal_crash").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("snapshot dir");
    for entry in std::fs::read_dir(from).expect("read dir").flatten() {
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
    }
}

// ---------------------------------------------------------------- oracle

/// Per-character `BTreeSet` oracle, same convention as the workspace's
/// dynamic-oracle suite (`SIGMA` marks a deleted position).
#[derive(Clone)]
struct Oracle {
    sets: Vec<BTreeSet<u64>>,
    mirror: Vec<u32>,
}

impl Oracle {
    fn new(initial: &[u32]) -> Oracle {
        let mut o = Oracle {
            sets: vec![BTreeSet::new(); SIGMA as usize],
            mirror: Vec::new(),
        };
        for &s in initial {
            o.apply(&MutOp::Append { symbol: s });
        }
        o
    }

    fn apply(&mut self, op: &MutOp) {
        match *op {
            MutOp::Append { symbol } => {
                self.sets[symbol as usize].insert(self.mirror.len() as u64);
                self.mirror.push(symbol);
            }
            MutOp::Change { pos, symbol } => {
                let old = self.mirror[pos as usize];
                if old < SIGMA {
                    self.sets[old as usize].remove(&pos);
                }
                self.sets[symbol as usize].insert(pos);
                self.mirror[pos as usize] = symbol;
            }
            MutOp::Delete { pos } => {
                let old = self.mirror[pos as usize];
                if old < SIGMA {
                    self.sets[old as usize].remove(&pos);
                }
                self.mirror[pos as usize] = SIGMA;
            }
        }
    }

    fn expected(&self, lo: u32, hi: u32) -> Vec<u64> {
        let mut all: Vec<u64> = (lo..=hi)
            .flat_map(|c| self.sets[c as usize].iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// Oracle state after the first `prefix` operations.
fn oracle_at(initial: &[u32], ops: &[MutOp], prefix: usize) -> Oracle {
    let mut o = Oracle::new(initial);
    for op in &ops[..prefix] {
        o.apply(op);
    }
    o
}

fn check_ranges<I: SecondaryIndex>(idx: &I, oracle: &Oracle, ranges: &[(u32, u32)], ctx: &str) {
    let io = IoSession::new();
    for &(lo, hi) in ranges {
        let got = idx.query(lo, hi, &io).to_vec();
        assert_eq!(got, oracle.expected(lo, hi), "{ctx}: range [{lo}, {hi}]");
    }
}

fn check_all_ranges<I: SecondaryIndex>(idx: &I, oracle: &Oracle, ctx: &str) {
    let all: Vec<(u32, u32)> = (0..SIGMA)
        .flat_map(|lo| (lo..SIGMA).map(move |hi| (lo, hi)))
        .collect();
    check_ranges(idx, oracle, &all, ctx);
}

// -------------------------------------------------------------- workload

/// Splitmix-style deterministic generator (no external RNG dependency;
/// parent and child processes must derive identical workloads).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn initial_symbols(seed: u64, n: usize) -> Vec<u32> {
    let mut g = Gen(seed ^ 0xA5A5);
    (0..n).map(|_| (g.next() % SIGMA as u64) as u32).collect()
}

/// Deterministic mixed workload (append / change / delete) that is valid
/// against a string of `initial_len` starting symbols.
fn mixed_ops(seed: u64, n: usize, initial_len: usize) -> Vec<MutOp> {
    let mut g = Gen(seed);
    let mut len = initial_len as u64;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let r = g.next();
        let op = if r % 100 < 35 || len == 0 {
            len += 1;
            MutOp::Append {
                symbol: ((r >> 8) % SIGMA as u64) as u32,
            }
        } else if r % 100 < 70 {
            MutOp::Change {
                pos: (r >> 8) % len,
                symbol: ((r >> 40) % SIGMA as u64) as u32,
            }
        } else {
            MutOp::Delete {
                pos: (r >> 8) % len,
            }
        };
        ops.push(op);
    }
    ops
}

fn append_ops(seed: u64, n: usize) -> Vec<MutOp> {
    let mut g = Gen(seed);
    (0..n)
        .map(|_| MutOp::Append {
            symbol: (g.next() % SIGMA as u64) as u32,
        })
        .collect()
}

// ------------------------------------------------- 1. every-byte scan sweep

#[test]
fn scan_sweep_over_real_log_every_byte() {
    let dir = test_dir("scan_sweep");
    let initial = initial_symbols(11, 64);
    let ops = mixed_ops(12, 300, initial.len());
    let idx = FullyDynamicIndex::build(&initial, SIGMA, cfg());
    let mut d = Durable::create(
        &dir,
        idx,
        DurableOptions {
            group_commit_ops: 16,
            ..DurableOptions::default()
        },
    )
    .expect("create");
    let io = IoSession::untracked();
    for op in &ops {
        d.apply(op, &io).expect("apply");
    }
    d.commit().expect("commit");
    let epoch = d.epoch();
    drop(d);

    let log = std::fs::read(dir.join(wal_file_name(epoch))).expect("read log");
    // Record-boundary byte offsets, reconstructed from a parallel scan.
    let full = scan_bytes(&log, 1).expect("header");
    assert_eq!(full.ops.len(), ops.len());
    // Cut at every byte: the scan keeps the longest record prefix that
    // fits, and parsed operations match the workload exactly.
    let mut boundary_count = 0;
    for cut in WAL_HEADER_BYTES..=log.len() {
        let tail = scan_bytes(&log[..cut], 1).expect("header survives any cut");
        let k = tail.ops.len();
        assert!(tail.valid_bytes <= cut as u64, "cut at {cut}");
        for (i, (seq, op)) in tail.ops.iter().enumerate() {
            assert_eq!(*seq, 1 + i as u64, "cut at {cut}");
            assert_eq!(op, &ops[i], "cut at {cut}");
        }
        if tail.valid_bytes == cut as u64 {
            boundary_count += 1;
        } else {
            // Mid-record cut: strictly fewer records than the full log.
            assert!(k < ops.len(), "cut at {cut}");
        }
    }
    assert_eq!(boundary_count, ops.len() + 1, "one boundary per record");

    // Flip every byte (one at a time): never a panic, and whatever still
    // parses is an untouched prefix of the real workload — the checksum
    // kills the flipped record and everything after it.
    let stride = if full_sweep() { 1 } else { 7 };
    for at in (WAL_HEADER_BYTES..log.len()).step_by(stride) {
        let mut mutated = log.clone();
        mutated[at] ^= 0x55;
        let tail = scan_bytes(&mutated, 1).expect("header intact");
        assert!(tail.ops.len() < ops.len(), "flip at {at} went undetected");
        for (i, (_, op)) in tail.ops.iter().enumerate() {
            assert_eq!(op, &ops[i], "flip at {at}");
        }
    }
}

// -------------------------------------- 2+3. record-boundary recovery sweep

/// Runs `ops` through a `Durable`, snapshotting the directory before
/// every checkpoint, then truncates every snapshot's log at every record
/// boundary (and, for torn coverage, at sampled non-boundary bytes),
/// recovers each truncation, and compares against the oracle prefix.
fn recovery_sweep<I, B>(family: &str, build: B, initial: &[u32], ops: &[MutOp], ckpt_every: usize)
where
    I: PersistIndex + ApplyOp + SecondaryIndex,
    B: Fn() -> I,
{
    let master = test_dir(&format!("sweep_master_{family}"));
    let scratch = test_dir(&format!("sweep_scratch_{family}"));
    let io = IoSession::untracked();

    // Snapshots: (directory, sequence number the snapshot's checkpoint
    // covers). Ops are fully committed before every snapshot, so each
    // snapshot's log holds intact records only.
    let mut snapshots: Vec<(PathBuf, u64)> = Vec::new();
    let mut d = Durable::create(
        &master,
        build(),
        DurableOptions {
            group_commit_ops: 32,
            ..DurableOptions::default()
        },
    )
    .expect("create");
    let mut ckpt_seq = 0u64;
    for (k, op) in ops.iter().enumerate() {
        if k % ckpt_every == 0 {
            d.commit().expect("commit");
            let snap = master.with_file_name(format!("sweep_snap_{family}_{k}"));
            copy_dir(&master, &snap);
            snapshots.push((snap, ckpt_seq));
            if k > 0 {
                d.checkpoint().expect("checkpoint");
                ckpt_seq = d.last_seq();
            }
        }
        d.apply(op, &io).expect("apply");
    }
    d.commit().expect("final commit");
    let snap = master.with_file_name(format!("sweep_snap_{family}_end"));
    copy_dir(&master, &snap);
    snapshots.push((snap, ckpt_seq));
    drop(d);

    // Sweep every snapshot: cut its log after 0..=tail records.
    let mut recoveries = 0usize;
    for (snap, ckpt_seq) in &snapshots {
        let epoch =
            psi_store::checkpoint_epoch(snap.join(psi_wal::CHECKPOINT_FILE)).expect("epoch");
        let log_path = snap.join(wal_file_name(epoch));
        let log = std::fs::read(&log_path).expect("read log");
        let tail = scan_bytes(&log, ckpt_seq + 1).expect("header");
        assert!(!tail.truncated, "snapshot logs are fully committed");

        // Byte offset of every record boundary (single forward pass over
        // the framing; checksums were already verified by the scan).
        let mut boundaries = vec![WAL_HEADER_BYTES as u64];
        let mut at = WAL_HEADER_BYTES;
        for _ in 0..tail.ops.len() {
            let body_len =
                u32::from_le_bytes(log[at..at + 4].try_into().expect("4 bytes")) as usize;
            at += 4 + body_len + 8;
            boundaries.push(at as u64);
        }
        assert_eq!(*boundaries.last().expect("nonempty"), log.len() as u64);

        for (k, &cut) in boundaries.iter().enumerate() {
            let trial = scratch.join("trial");
            copy_dir(snap, &trial);
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(trial.join(wal_file_name(epoch)))
                .expect("open log");
            f.set_len(cut).expect("truncate");
            drop(f);
            let (rd, report) = recover::<I>(&trial, DurableOptions::default()).expect("recover");
            assert_eq!(report.checkpoint_seq, *ckpt_seq);
            assert_eq!(report.replayed, k, "cut after {k} records");
            assert!(!report.log_truncated, "boundary cut leaves no garbage");
            let prefix = (*ckpt_seq as usize) + k;
            let oracle = oracle_at(initial, ops, prefix);
            recoveries += 1;
            if recoveries.is_multiple_of(32) || k == boundaries.len() - 1 {
                check_all_ranges(rd.index(), &oracle, &format!("{family} prefix {prefix}"));
            } else {
                check_ranges(
                    rd.index(),
                    &oracle,
                    &[(0, SIGMA - 1), (2, 5), (7, 7)],
                    &format!("{family} prefix {prefix}"),
                );
            }
        }

        // Torn (non-boundary) cuts: recovery lands on the previous
        // boundary. Every byte under PSI_WAL_SWEEP=full, sampled else.
        let stride = if full_sweep() { 1 } else { 37 };
        for cut in ((WAL_HEADER_BYTES as u64 + 1)..log.len() as u64).step_by(stride) {
            if boundaries.binary_search(&cut).is_ok() {
                continue;
            }
            let k = boundaries.partition_point(|&b| b <= cut) - 1;
            let trial = scratch.join("trial");
            copy_dir(snap, &trial);
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(trial.join(wal_file_name(epoch)))
                .expect("open log");
            f.set_len(cut).expect("truncate");
            drop(f);
            let (rd, report) = recover::<I>(&trial, DurableOptions::default()).expect("recover");
            assert_eq!(report.replayed, k, "torn cut at byte {cut}");
            assert!(report.log_truncated, "torn cut leaves garbage");
            let prefix = (*ckpt_seq as usize) + k;
            check_ranges(
                rd.index(),
                &oracle_at(initial, ops, prefix),
                &[(0, SIGMA - 1), (1, 6)],
                &format!("{family} torn byte {cut}"),
            );
        }
    }
    assert!(
        recoveries > ops.len(),
        "sweep exercised every record boundary ({recoveries} recoveries)"
    );

    for (snap, _) in &snapshots {
        let _ = std::fs::remove_dir_all(snap);
    }
}

#[test]
fn kill_at_every_record_boundary_fully_dynamic() {
    let n = if full_sweep() { 1500 } else { 1000 };
    let initial = initial_symbols(21, 128);
    let ops = mixed_ops(22, n, initial.len());
    recovery_sweep(
        "fully",
        || FullyDynamicIndex::build(&initial, SIGMA, cfg()),
        &initial,
        &ops,
        250,
    );
}

#[test]
fn kill_at_every_record_boundary_semi_dynamic() {
    let n = if full_sweep() { 1500 } else { 1000 };
    let ops = append_ops(31, n);
    recovery_sweep(
        "semi",
        || SemiDynamicIndex::new(SIGMA, cfg()),
        &[],
        &ops,
        250,
    );
}

// ------------------------------------------------ 4. real process kills

/// Child half of the subprocess kill harness: runs the deterministic
/// workload with the crash hook armed, recording every acknowledged
/// sequence number crash-atomically (temp + rename) in a side file.
/// A no-op unless spawned by `kill_mid_commit_subprocess_grid`.
#[test]
fn child_writer_entry() {
    if std::env::var("PSI_WAL_CHILD").ok().as_deref() != Some("writer") {
        return;
    }
    let dir = PathBuf::from(std::env::var("PSI_WAL_DIR").expect("dir"));
    let crash_at: u64 = std::env::var("PSI_WAL_CRASH_AT")
        .expect("offset")
        .parse()
        .expect("offset");
    let initial = initial_symbols(41, 96);
    let ops = mixed_ops(42, 400, initial.len());
    let idx = FullyDynamicIndex::build(&initial, SIGMA, cfg());
    let mut d = Durable::create(
        &dir,
        idx,
        DurableOptions {
            group_commit_ops: usize::MAX, // manual commits below
            ..DurableOptions::default()
        },
    )
    .expect("create");
    // `crash_at` counts cumulative log bytes across epochs, so the grid
    // reaches crashes in later epochs' logs too.
    let mut logged: u64 = 0;
    d.set_crash_after_bytes(crash_at);
    let io = IoSession::untracked();
    for (k, op) in ops.iter().enumerate() {
        d.apply(op, &io).expect("apply");
        if (k + 1) % 8 == 0 {
            // The planted crash aborts inside this commit once the log
            // would cross `crash_at` bytes.
            let acked = d.commit().expect("commit");
            let ack_path = dir.join("acked.txt");
            let tmp = dir.join("acked.txt.tmp");
            std::fs::write(&tmp, acked.to_string()).expect("ack tmp");
            std::fs::rename(&tmp, &ack_path).expect("ack rename");
        }
        if (k + 1) % 128 == 0 {
            logged += d.wal_bytes();
            d.checkpoint().expect("checkpoint");
            let remaining = crash_at.saturating_sub(logged);
            if remaining > 0 {
                d.set_crash_after_bytes(remaining); // re-arm the fresh log
            }
        }
    }
    std::mem::forget(d); // a real crash runs no destructors
}

#[test]
fn kill_mid_commit_subprocess_grid() {
    let exe = std::env::current_exe().expect("test binary");
    let offsets: Vec<u64> = if full_sweep() {
        (16..9000).step_by(16).collect()
    } else {
        vec![16, 40, 77, 150, 300, 500, 900, 1300, 1900, 2500, 4500, 7000]
    };
    let initial = initial_symbols(41, 96);
    let ops = mixed_ops(42, 400, initial.len());
    for crash_at in offsets {
        let dir = test_dir(&format!("subprocess_{crash_at}"));
        let status = std::process::Command::new(&exe)
            .args(["child_writer_entry", "--exact", "--test-threads=1", "-q"])
            .env("PSI_WAL_CHILD", "writer")
            .env("PSI_WAL_DIR", &dir)
            .env("PSI_WAL_CRASH_AT", crash_at.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("spawn child");
        // Small offsets abort (SIGABRT), large ones let the child finish.
        let crashed = !status.success();

        let acked: u64 = std::fs::read_to_string(dir.join("acked.txt"))
            .map(|s| s.trim().parse().expect("acked"))
            .unwrap_or(0);
        let (rd, report) = recover::<FullyDynamicIndex>(&dir, DurableOptions::default())
            .expect("recover after kill");
        let recovered = report.checkpoint_seq + report.replayed as u64;
        assert!(
            recovered >= acked,
            "crash at {crash_at} (crashed={crashed}): lost acknowledged ops \
             ({recovered} recovered < {acked} acked)"
        );
        check_all_ranges(
            rd.index(),
            &oracle_at(&initial, &ops, recovered as usize),
            &format!("subprocess crash at {crash_at}"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// --------------------------------------------- 5. mid-checkpoint crashes

#[test]
fn torn_slot_flip_falls_back_to_previous_epoch_and_replays() {
    let dir = test_dir("torn_flip");
    let initial = initial_symbols(51, 3000); // big: keeps dead < live
    let ops = mixed_ops(52, 300, initial.len());
    let idx = FullyDynamicIndex::build(&initial, SIGMA, cfg());
    let mut d = Durable::create(&dir, idx, DurableOptions::default()).expect("create");
    let io = IoSession::untracked();
    for op in &ops {
        d.apply(op, &io).expect("apply");
    }
    d.commit().expect("commit");
    let old_epoch = d.epoch();
    let old_wal = std::fs::read(dir.join(wal_file_name(old_epoch))).expect("old log");
    let report = d.checkpoint().expect("checkpoint");
    assert!(
        !report.compacted,
        "surgery needs an in-place slot flip; grow the initial string"
    );
    let new_epoch = d.epoch();
    assert!(new_epoch > old_epoch);
    drop(d);

    // The checkpoint's stale-log sweep must have spared the old epoch's
    // log: its epoch is still named by a decodable superblock slot, and
    // if the flip write below turns out torn, that log is the only
    // recovery source. (The sweep used to delete it — this test then
    // needed to write the saved bytes back by hand to recover at all.)
    assert!(
        dir.join(wal_file_name(old_epoch)).exists(),
        "sweep deleted the log of a still-decodable superblock slot"
    );
    assert_eq!(
        std::fs::read(dir.join(wal_file_name(old_epoch))).expect("old log"),
        old_wal,
        "surviving old log must be byte-identical, not rewritten"
    );

    // Byte surgery: the crash happened mid slot-flip — the new slot is
    // torn (checksum dead), the new log was never created, the old log
    // never deleted.
    let ck = dir.join(psi_wal::CHECKPOINT_FILE);
    let mut bytes = std::fs::read(&ck).expect("read checkpoint");
    let slot_off = psi_store::format::META_PAGE; // epoch 1 used slot 0; the update flipped slot 1
    bytes[slot_off + 64] ^= 0xFF;
    std::fs::write(&ck, &bytes).expect("tear slot");
    std::fs::remove_file(dir.join(wal_file_name(new_epoch))).expect("drop new log");

    let (rd, report) =
        recover::<FullyDynamicIndex>(&dir, DurableOptions::default()).expect("recover");
    assert_eq!(report.epoch, old_epoch, "fell back to the surviving slot");
    assert_eq!(report.replayed, ops.len(), "replayed the whole old log");
    check_all_ranges(
        rd.index(),
        &oracle_at(&initial, &ops, ops.len()),
        "torn slot flip",
    );

    // The handle keeps working: more ops, a clean checkpoint, recovery.
    let mut rd = rd;
    let more = mixed_ops(53, 50, initial.len()); // appends/changes valid for longer strings too
    for op in &more {
        rd.apply(op, &io).expect("apply after fallback");
    }
    rd.checkpoint().expect("checkpoint after fallback");
    drop(rd);
    let (rd2, _) =
        recover::<FullyDynamicIndex>(&dir, DurableOptions::default()).expect("re-recover");
    let mut oracle = oracle_at(&initial, &ops, ops.len());
    for op in &more {
        oracle.apply(op);
    }
    check_all_ranges(rd2.index(), &oracle, "after fallback continuation");
}

#[test]
fn crash_between_checkpoint_and_new_log_loses_nothing() {
    // Ordering: slot flip commits, then the new log is created. A crash
    // between the two leaves a checkpoint whose log is missing — that
    // checkpoint already covers everything acknowledged.
    let dir = test_dir("no_new_log");
    let initial = initial_symbols(61, 64);
    let ops = mixed_ops(62, 120, initial.len());
    let idx = FullyDynamicIndex::build(&initial, SIGMA, cfg());
    let mut d = Durable::create(&dir, idx, DurableOptions::default()).expect("create");
    let io = IoSession::untracked();
    for op in &ops {
        d.apply(op, &io).expect("apply");
    }
    d.checkpoint().expect("checkpoint");
    let epoch = d.epoch();
    drop(d);
    std::fs::remove_file(dir.join(wal_file_name(epoch))).expect("drop fresh log");

    let (rd, report) =
        recover::<FullyDynamicIndex>(&dir, DurableOptions::default()).expect("recover");
    assert_eq!(report.replayed, 0);
    assert_eq!(report.checkpoint_seq, ops.len() as u64);
    check_all_ranges(
        rd.index(),
        &oracle_at(&initial, &ops, ops.len()),
        "checkpoint-only recovery",
    );
}

// ------------------------------------------------------------ semantics

#[test]
fn uncommitted_tail_is_lost_acknowledged_prefix_is_not() {
    let dir = test_dir("unacked");
    let initial = initial_symbols(71, 32);
    let ops = mixed_ops(72, 100, initial.len());
    let idx = FullyDynamicIndex::build(&initial, SIGMA, cfg());
    let mut d = Durable::create(
        &dir,
        idx,
        DurableOptions {
            group_commit_ops: usize::MAX,
            ..DurableOptions::default()
        },
    )
    .expect("create");
    let io = IoSession::untracked();
    for (k, op) in ops.iter().enumerate() {
        d.apply(op, &io).expect("apply");
        if k == 59 {
            d.commit().expect("commit");
        }
    }
    assert_eq!(d.acked_seq(), 60);
    assert_eq!(d.last_seq(), 100);
    std::mem::forget(d); // crash: ops 61..=100 were never synced

    let (rd, report) =
        recover::<FullyDynamicIndex>(&dir, DurableOptions::default()).expect("recover");
    assert_eq!(report.checkpoint_seq + report.replayed as u64, 60);
    check_all_ranges(rd.index(), &oracle_at(&initial, &ops, 60), "acked prefix");
}

#[test]
fn inapplicable_op_is_rejected_before_journaling() {
    let dir = test_dir("rejected");
    let idx = SemiDynamicIndex::new(SIGMA, cfg());
    let mut d = Durable::create(&dir, idx, DurableOptions::default()).expect("create");
    let io = IoSession::untracked();
    d.apply(&MutOp::Append { symbol: 2 }, &io).expect("valid");
    // Semi-dynamic cannot change; out-of-alphabet append is invalid.
    assert!(d.apply(&MutOp::Change { pos: 0, symbol: 1 }, &io).is_err());
    assert!(d.apply(&MutOp::Append { symbol: SIGMA }, &io).is_err());
    d.apply(&MutOp::Append { symbol: 5 }, &io).expect("valid");
    d.commit().expect("commit");
    drop(d);
    // The log replays cleanly: rejected ops never reached it.
    let (rd, report) =
        recover::<SemiDynamicIndex>(&dir, DurableOptions::default()).expect("recover");
    assert_eq!(report.replayed, 2);
    let io = IoSession::new();
    assert_eq!(rd.index().query(2, 2, &io).to_vec(), vec![0]);
    assert_eq!(rd.index().query(5, 5, &io).to_vec(), vec![1]);
}

#[test]
fn clean_shutdown_recovers_everything() {
    let dir = test_dir("clean");
    let ops = append_ops(81, 200);
    let idx = SemiDynamicIndex::new(SIGMA, cfg());
    let mut d = Durable::create(&dir, idx, DurableOptions::default()).expect("create");
    let io = IoSession::untracked();
    for op in &ops {
        d.apply(op, &io).expect("apply");
    }
    drop(d); // Drop commits the tail
    let (rd, report) =
        recover::<SemiDynamicIndex>(&dir, DurableOptions::default()).expect("recover");
    assert_eq!(report.checkpoint_seq + report.replayed as u64, 200);
    check_all_ranges(rd.index(), &oracle_at(&[], &ops, 200), "clean shutdown");
}

#[test]
fn auto_checkpoint_bounds_log_and_keeps_correctness() {
    let dir = test_dir("auto_ckpt");
    let ops = append_ops(91, 600);
    let idx = SemiDynamicIndex::new(SIGMA, cfg());
    let mut d = Durable::create(
        &dir,
        idx,
        DurableOptions {
            group_commit_ops: 16,
            checkpoint_wal_bytes: Some(1024),
            ..DurableOptions::default()
        },
    )
    .expect("create");
    let io = IoSession::untracked();
    for op in &ops {
        d.apply(op, &io).expect("apply");
        assert!(
            d.wal_bytes() <= 1024 + 16 * 64,
            "auto-checkpoint failed to bound the log"
        );
    }
    assert!(d.epoch() > 1, "the log limit forced checkpoints");
    drop(d);
    let (rd, _) = recover::<SemiDynamicIndex>(&dir, DurableOptions::default()).expect("recover");
    check_all_ranges(rd.index(), &oracle_at(&[], &ops, 600), "auto checkpoint");
}

// ------------------------------------- edits to rows appended since a snapshot

#[test]
fn replayed_edits_to_pending_appends_never_rebuild() {
    // Rows appended after the fully dynamic index's snapshot live in its
    // in-memory tail: changing or deleting them rewrites the tail, with
    // no global rebuild — live, and again when recovery replays the log.
    let dir = test_dir("pending_append_edits");
    let initial = initial_symbols(61, 400);
    let idx = FullyDynamicIndex::build(&initial, SIGMA, cfg());
    let rebuilds = idx.global_rebuilds;
    let mut d = Durable::create(&dir, idx, DurableOptions::default()).expect("create");
    let io = IoSession::untracked();
    let mut g = Gen(67);
    let mut ops = Vec::new();
    let appended = 80u64; // under the n/4 that folds appends in
    for _ in 0..appended {
        ops.push(MutOp::Append {
            symbol: (g.next() % SIGMA as u64) as u32,
        });
    }
    let len = initial.len() as u64 + appended;
    for k in 0..300 {
        let r = g.next();
        let pos = initial.len() as u64 + (r >> 8) % appended;
        ops.push(if k % 4 == 0 {
            MutOp::Delete { pos }
        } else {
            MutOp::Change {
                pos,
                symbol: ((r >> 40) % SIGMA as u64) as u32,
            }
        });
    }
    for op in &ops {
        d.apply(op, &io).expect("apply");
    }
    assert_eq!(
        d.index().global_rebuilds,
        rebuilds,
        "live tail edits rebuilt"
    );
    assert_eq!(d.index().len(), len);
    d.commit().expect("commit");
    drop(d);
    let (rd, report) =
        recover::<FullyDynamicIndex>(&dir, DurableOptions::default()).expect("recover");
    assert_eq!(report.replayed, ops.len());
    assert_eq!(
        rd.index().global_rebuilds,
        rebuilds,
        "replayed tail edits rebuilt"
    );
    check_all_ranges(
        rd.index(),
        &oracle_at(&initial, &ops, ops.len()),
        "replayed tail edits",
    );
}
