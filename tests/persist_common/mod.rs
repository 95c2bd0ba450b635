//! Shared fixtures for the persistence suite.
//!
//! `persistence_save` builds every index family over fixed workloads
//! (including append/change/delete histories for the dynamic ones) and
//! saves one store file per family; `persistence_open` rebuilds the same
//! references in its own process, reopens the files, and replays the
//! cross-index consistency suite against them. CI runs the two test
//! binaries as separate invocations, so the reopen happens in a process
//! that never saw the built structures.

// Shared by two test binaries; each uses a different subset.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::Once;

use psi::baselines::*;
use psi::store::PersistIndex;
use psi::{
    AppendIndex, BufferedBitmapIndex, DynamicIndex as _, FullyDynamicIndex, IoConfig, IoSession,
    OptimalIndex, SemiDynamicIndex, UniformTreeIndex,
};

/// Block size shared by every fixture (multiple blocks per structure at
/// the suite's n, so pooled reads are exercised block by block).
pub fn cfg() -> IoConfig {
    IoConfig::with_block_bits(1024)
}

/// Store directory: `PSI_PERSIST_DIR` when the driver pins one (the CI
/// persistence job does, so save and reopen run in different processes
/// against the same files), else a per-target temp dir. Either way the
/// files live in a subdirectory named for the store format versions, so
/// files an older build left behind (a reused or cached target
/// directory) are never mistaken for this build's and re-saved instead.
pub fn suite_dir() -> PathBuf {
    let root = match std::env::var("PSI_PERSIST_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("psi_persist"),
    };
    let dir = root.join(format!(
        "v{}-{}",
        psi::store::VERSION,
        psi::store::VERSION_CHECKPOINT
    ));
    std::fs::create_dir_all(&dir).expect("create persist dir");
    dir
}

/// Path of one family's store file.
pub fn family_path(tag: &str) -> PathBuf {
    suite_dir().join(format!("{tag}.psi"))
}

/// The static base workload (heavy-character mix exercises the remap).
pub fn base_workload() -> (Vec<u32>, u32) {
    let sigma = 24u32;
    let mut s = psi::workloads::zipf(2400, sigma, 1.2, 41);
    s.extend(std::iter::repeat_n(5u32, 600)); // heavy character
    s.extend(psi::workloads::runs(600, sigma, 12.0, 43));
    (s, sigma)
}

/// The string the semi-dynamic fixture indexes after its append history.
pub fn semi_dynamic_workload() -> (Vec<u32>, u32) {
    let (mut s, sigma) = base_workload();
    s.extend(psi::workloads::zipf(900, sigma, 1.0, 47));
    (s, sigma)
}

/// The (∞-marked) string the fully-dynamic fixture indexes after its
/// change/delete history.
pub fn fully_dynamic_workload() -> (Vec<u32>, u32) {
    let (mut s, sigma) = base_workload();
    for pos in (0..s.len()).step_by(7) {
        s[pos] = sigma; // deleted: the ∞ marker
    }
    for pos in (0..s.len()).step_by(11) {
        s[pos] = (pos % sigma as usize) as u32;
    }
    (s, sigma)
}

pub fn build_optimal() -> OptimalIndex {
    let (s, sigma) = base_workload();
    OptimalIndex::build(&s, sigma, cfg())
}

pub fn build_uniform_tree() -> UniformTreeIndex {
    let (s, sigma) = base_workload();
    UniformTreeIndex::build(&s, sigma, cfg())
}

pub fn build_semi_dynamic() -> SemiDynamicIndex {
    let (s, sigma) = base_workload();
    let mut idx = SemiDynamicIndex::build(&s, sigma, cfg());
    let io = IoSession::untracked();
    for &c in &psi::workloads::zipf(900, sigma, 1.0, 47) {
        idx.append(c, &io);
    }
    idx
}

pub fn build_fully_dynamic() -> FullyDynamicIndex {
    let (s, sigma) = base_workload();
    let mut idx = FullyDynamicIndex::build(&s, sigma, cfg());
    let io = IoSession::untracked();
    for pos in (0..s.len() as u64).step_by(7) {
        idx.delete(pos, &io);
    }
    for pos in (0..s.len() as u64).step_by(11) {
        idx.change(pos, (pos % u64::from(sigma)) as u32, &io);
    }
    idx
}

pub fn build_buffered_bitmap() -> BufferedBitmapIndex {
    let (s, sigma) = base_workload();
    let n = s.len() as u64;
    let mut idx = BufferedBitmapIndex::build(&s, sigma, cfg());
    let io = IoSession::untracked();
    // Leave pending updates in the buffers: inserts past the end and
    // removals of existing positions.
    for i in 0..300u64 {
        idx.insert((i % u64::from(sigma)) as u32, n + i, &io);
    }
    for i in (0..600u64).step_by(13) {
        idx.remove(s[i as usize], i, &io);
    }
    idx
}

pub fn build_position_list() -> PositionListIndex {
    let (s, sigma) = base_workload();
    PositionListIndex::build(&s, sigma, cfg())
}

pub fn build_uncompressed() -> UncompressedBitmapIndex {
    let (s, sigma) = base_workload();
    UncompressedBitmapIndex::build(&s, sigma, cfg())
}

pub fn build_compressed_scan() -> CompressedScanIndex {
    let (s, sigma) = base_workload();
    CompressedScanIndex::build(&s, sigma, cfg())
}

pub fn build_binned() -> BinnedBitmapIndex {
    let (s, sigma) = base_workload();
    BinnedBitmapIndex::build(&s, sigma, 4, cfg())
}

pub fn build_multires() -> MultiResolutionIndex {
    let (s, sigma) = base_workload();
    MultiResolutionIndex::build(&s, sigma, 4, cfg())
}

pub fn build_range_encoded() -> RangeEncodedIndex {
    let (s, sigma) = base_workload();
    RangeEncodedIndex::build(&s, sigma, cfg())
}

pub fn build_interval_encoded() -> IntervalEncodedIndex {
    let (s, sigma) = base_workload();
    IntervalEncodedIndex::build(&s, sigma, cfg())
}

/// The conjunctive fixture: one optimal index per column of the people
/// table, saved as separate store files (`col_<name>.psi`).
pub fn conjunctive_table() -> psi::workloads::Table {
    psi::workloads::people_table(2500, 9)
}

/// Saves every family (and the conjunctive columns). Returns the tags.
pub fn save_all() -> Vec<&'static str> {
    fn one<I: PersistIndex>(index: &I) -> &'static str {
        let report = psi::store::save(index, family_path(I::TAG)).expect("save");
        assert!(report.file_bytes > 0);
        I::TAG
    }
    let mut tags = vec![
        one(&build_optimal()),
        one(&build_uniform_tree()),
        one(&build_semi_dynamic()),
        one(&build_fully_dynamic()),
        one(&build_buffered_bitmap()),
        one(&build_position_list()),
        one(&build_uncompressed()),
        one(&build_compressed_scan()),
        one(&build_binned()),
        one(&build_multires()),
        one(&build_range_encoded()),
        one(&build_interval_encoded()),
    ];
    assert_eq!(tags.len(), 12, "all twelve families persist");
    let table = conjunctive_table();
    for col in &table.columns {
        let idx = OptimalIndex::build(&col.data, col.sigma, cfg());
        psi::store::save(&idx, suite_dir().join(format!("col_{}.psi", col.name)))
            .expect("save column");
        tags.push("optimal");
    }
    tags
}

/// Ensures the store files exist (reopening in the same process when the
/// suite runs standalone; the CI job runs `persistence_save` first in a
/// separate process and pins `PSI_PERSIST_DIR`).
///
/// The check and the save run once per process: the test harness runs
/// tests on parallel threads, and two concurrent saves of one family
/// would race on the same temporary file. Later callers block until the
/// first one has finished saving.
pub fn ensure_saved() {
    static SAVED: Once = Once::new();
    SAVED.call_once(save_missing);
}

fn save_missing() {
    let missing = [
        "optimal",
        "uniform_tree",
        "semi_dynamic",
        "fully_dynamic",
        "buffered_bitmap",
        "position_list",
        "uncompressed",
        "compressed_scan",
        "binned",
        "multires",
        "range_encoded",
        "interval_encoded",
    ]
    .iter()
    .any(|tag| !family_path(tag).exists());
    if missing {
        save_all();
    }
}

/// Query grid shared by every replay: narrow, medium, wide and
/// complement-triggering ranges.
pub fn grid(sigma: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for lo in (0..sigma).step_by((sigma as usize / 6).max(1)) {
        for hi in [
            lo,
            (lo + 2).min(sigma - 1),
            (lo + 9).min(sigma - 1),
            sigma - 1,
        ] {
            if hi >= lo {
                out.push((lo, hi));
            }
        }
    }
    out
}
