//! E19 — observability read-back.
//!
//! A 2048-op durable-write run at `group_commit_ops = 32`, then the
//! WAL's group-commit batch-size and fsync-latency histograms read back
//! from the live registry. The run asserts one batch-size sample per
//! fsync and full batches, and exits non-zero on a miss.

fn main() {
    if let Some(other) = std::env::args().nth(1) {
        eprintln!("unknown argument `{other}`; usage: e19_obs");
        std::process::exit(2);
    }
    psi_bench::e19();
}
