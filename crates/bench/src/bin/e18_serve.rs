//! E18 — psi-serve open-loop tail latency.
//!
//! The full run drives Poisson arrivals at three offered rates against a
//! live server and prints the p50/p99/p999 + shed-rate table; `--smoke`
//! is the CI-sized run (one low rate, one second). Served latency across
//! changes is measured by perfbench's `serve_conjunctive` workload.

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("--smoke") => {
            psi_bench::e18_run(800, &[500], 1.0);
        }
        Some(other) => {
            eprintln!("unknown argument `{other}`; usage: e18_serve [--smoke]");
            std::process::exit(2);
        }
        None => {
            psi_bench::e18();
        }
    }
}
