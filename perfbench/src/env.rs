//! Process and host facts, program surfaces shared by the workloads, and
//! the run's scratch directory.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use psi::io::ReadError;
use psi::io::{IoConfig, IoSession};
use psi::obs::{HistSnapshot, Registry, Snapshot};
use psi::query::{ConjunctiveQuery, IndexedTable};
use psi::store::{Backend, OpenOptions, Opened};
use psi::{OptimalIndex, RidSet, SecondaryIndex, Symbol};

use crate::report::Report;
use crate::stats::{hist_delta, ratio};

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `f` over `items` on `nproc` threads, results in input order (oracle
/// computation, before any timed phase).
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let chunk = items.len().div_ceil(nproc()).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(|| c.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// The filesystem type holding `path` (longest matching mount point).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    info.lines()
        .filter_map(|l| {
            let mount = l.split(' ').nth(4)?;
            let fstype = l.split(" - ").nth(1)?.split(' ').next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, t)| t)
}

/// The run's scratch directory inside the checkout, removed when the run
/// ends.
pub struct DataDir(PathBuf);

impl DataDir {
    pub fn create(workload: &str) -> Result<DataDir, String> {
        let path = PathBuf::from(".bench_data").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(DataDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while another
        // run still uses it.
        let _ = std::fs::remove_dir(".bench_data");
    }
}

/// An opened, file-backed index shared between the table that queries
/// it and the harness that reads its pool counters.
pub struct Pooled(pub Arc<Opened<OptimalIndex>>);

impl SecondaryIndex for Pooled {
    fn len(&self) -> u64 {
        self.0.index.len()
    }
    fn sigma(&self) -> Symbol {
        self.0.index.sigma()
    }
    fn space_bits(&self) -> u64 {
        self.0.index.space_bits()
    }
    fn query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> RidSet {
        self.0.index.query(lo, hi, io)
    }
    fn try_query(&self, lo: Symbol, hi: Symbol, io: &IoSession) -> Result<RidSet, ReadError> {
        self.0.index.try_query(lo, hi, io)
    }
    fn cardinality_hint(&self, lo: Symbol, hi: Symbol) -> Option<u64> {
        self.0.index.cardinality_hint(lo, hi)
    }
}

/// Opens a saved index through a verified, file-backed pool of
/// `pool_blocks` frames.
pub fn open_pooled(path: &Path, pool_blocks: usize) -> Result<Opened<OptimalIndex>, String> {
    let opts = OpenOptions {
        backend: Backend::File,
        pool_blocks,
        retry: None,
        verify: true,
    };
    psi::store::open(path, &opts).map_err(|e| format!("open {}: {e}", path.display()))
}

/// Median seconds, over `tries`, to reopen every saved index: the
/// restart path.
pub fn reopen_s(saved: &[(PathBuf, usize)], tries: usize) -> Result<f64, String> {
    let mut times = Vec::with_capacity(tries);
    for _ in 0..tries {
        let t = std::time::Instant::now();
        for (path, blocks) in saved {
            std::hint::black_box(open_pooled(path, *blocks)?);
        }
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(crate::stats::median(&times))
}

/// Time for `queries` on the opened table over the same queries on a RAM
/// build of its columns, two rounds, alternating so that drift cancels.
pub fn pool_overhead(
    opened: &IndexedTable,
    ram: &IndexedTable,
    queries: &[ConjunctiveQuery],
) -> Result<f64, String> {
    let (mut pooled, mut resident) = (0.0, 0.0);
    for q in queries.iter().chain(queries) {
        for (table, sum) in [(opened, &mut pooled), (ram, &mut resident)] {
            let start = std::time::Instant::now();
            let out = table.execute_conjunctive(q).map_err(|e| e.to_string())?;
            *sum += start.elapsed().as_secs_f64();
            std::hint::black_box(out);
        }
    }
    Ok(pooled / resident)
}

/// Charged blocks over Theorem 2's bound for an answer of `z` rows out
/// of `n` (unit constants, as `psi::io::cost` states it).
pub fn over_thm2(reads: u64, n: u64, z: u64) -> f64 {
    let block_bits = psi::io::DEFAULT_BLOCK_BITS;
    let b = IoConfig::default().words_per_block(n);
    reads as f64 / psi::io::cost::thm2_query_ios(n, z, block_bits, b)
}

/// Program counters read as deltas between two moments: the global
/// registry and the bits kernel counters.
pub struct Counters {
    registry: Snapshot,
    kernel: Vec<(&'static str, u64)>,
}

impl Counters {
    pub fn now() -> Counters {
        Counters {
            registry: Registry::global().snapshot(),
            kernel: psi::bits::kernel::snapshot(),
        }
    }

    /// What histogram `name` recorded since `self`.
    pub fn hist_since(&self, later: &Counters, name: &str) -> HistSnapshot {
        hist_delta(
            later.registry.histogram(name),
            self.registry.histogram(name),
        )
    }

    pub fn counter_since(&self, later: &Counters, name: &str) -> u64 {
        let at = |s: &Snapshot| s.counter(name).unwrap_or(0);
        at(&later.registry) - at(&self.registry)
    }

    fn kernel_since(&self, later: &Counters) -> Vec<(&'static str, u64)> {
        later
            .kernel
            .iter()
            .zip(&self.kernel)
            .map(|(&(name, b), &(_, a))| (name, b - a))
            .collect()
    }

    /// Each kernel arm's share of its operation (decode or intersect)
    /// since `self`, plus a note naming the arms that fired.
    pub fn report_kernels(&self, later: &Counters, report: &mut Report) {
        let delta = self.kernel_since(later);
        let get = |n: &str| delta.iter().find(|&&(k, _)| k == n).map_or(0, |&(_, v)| v) as f64;
        let decode = [
            "kernel/decode_swar",
            "kernel/decode_simd",
            "kernel/decode_scalar",
        ];
        let intersect = [
            "kernel/intersect_gallop",
            "kernel/intersect_block_skip",
            "kernel/intersect_block_and",
        ];
        let total = |names: &[&str]| names.iter().map(|n| get(n)).sum::<f64>();
        let (d, i) = (total(&decode), total(&intersect));
        report.set("bits.kernel.swar", ratio(get(decode[0]), d));
        report.set("bits.kernel.simd", ratio(get(decode[1]), d));
        report.set("bits.kernel.scalar", ratio(get(decode[2]), d));
        report.set("bits.kernel.gallop", ratio(get(intersect[0]), i));
        report.set("bits.kernel.block_skip", ratio(get(intersect[1]), i));
        report.set("bits.kernel.block_and", ratio(get(intersect[2]), i));
        let fired: Vec<String> = delta
            .iter()
            .filter(|&&(_, v)| v > 0)
            .map(|&(n, v)| format!("{n}={v}"))
            .collect();
        report.note(format!("kernel arms fired: {}", fired.join(" ")));
    }
}

/// Index of a combine strategy in `[gallop, probe, scan]` counts.
pub fn plan_slot(s: psi::query::CombineStrategy) -> usize {
    use psi::query::CombineStrategy::*;
    match s {
        Gallop => 0,
        Probe => 1,
        Scan => 2,
    }
}

/// Quantile of a registry histogram in microseconds.
pub fn hist_us(h: &HistSnapshot, q: f64) -> f64 {
    h.quantile(q) as f64 / 1e3
}
