//! E19 — observability overhead gate.
//!
//! The full run serves the E18 workload twice in one process —
//! metrics recording on (the shipped default) vs. off via
//! `psi_obs::set_enabled` — and prints closed-loop QPS plus open-loop
//! p50/p99 for each arm, then the WAL's group-commit batch-size and
//! fsync-latency histograms from a durable-write run. The run *asserts*
//! the instrumented arm stays within 20% of stripped throughput, so
//! `--smoke` doubles as the CI overhead gate.

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("--smoke") => {
            // Enough requests per arm (2000) that scheduler noise stays
            // well inside the 20% gate.
            psi_bench::e19_run(800, 2_000, 1.0);
        }
        Some(other) => {
            eprintln!("unknown argument `{other}`; usage: e19_obs [--smoke]");
            std::process::exit(2);
        }
        None => {
            psi_bench::e19();
        }
    }
}
