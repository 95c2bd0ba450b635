//! E20 — kernel-layer microbenchmarks and their correctness gate.
//!
//! The full run times batch gamma decode in its two dispatch regimes
//! (dual-chain sparse without the run-of-ones test, burst dense) and the
//! occupancy probe rule-out against an occupancy-free copy of the probed
//! stream, asserting along the way that the fast paths actually ran
//! (kernel counters), that both probe arms return the same elements,
//! and that the sparse-probe-vs-dense workload beats the occupancy-free
//! arm by ≥2×. `--smoke` shrinks the workloads and loosens the speedup
//! gate to 1.5× so shared CI runners gate on correctness and gross
//! regressions without flaking on noise.

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("--smoke") => {
            psi_bench::e20_run(20_000, 400, 1.5);
        }
        Some(other) => {
            eprintln!("unknown argument `{other}`; usage: e20_kernels [--smoke]");
            std::process::exit(2);
        }
        None => {
            psi_bench::e20();
        }
    }
}
