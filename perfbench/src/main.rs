//! The psi benchmark: three seeded workloads driven through the
//! program's public crate APIs, every answer checked against an oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_conjunctive --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` re-runs the
//! workload with the same seed and sizes, records spans around every
//! call into a layer, and prints the per-layer metrics. The last line of
//! standard output is the JSON result; the human-readable report goes to
//! standard error. Exit codes: 0 done, 1 a wrong answer or lost write,
//! 2 bad arguments, 3 the harness could not complete the run.

mod env;
mod ingest;
mod report;
mod rng;
mod serve;
mod spill;
mod stats;
mod trace;

use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["serve_conjunctive", "range_spill", "durable_ingest"];

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: psi-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed must be a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be positive")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
    }
}

fn main() {
    let args = parse_args();
    let t0 = Instant::now();
    let result = env::DataDir::create(&args.workload).and_then(|dir| {
        eprintln!(
            "psi-perfbench {} seed={} seconds={} trace={} nproc={} features=default data_dir_fs={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            env::nproc(),
            env::fs_type(dir.path()),
        );
        let mut report = match args.workload.as_str() {
            "serve_conjunctive" => serve::run(&args, dir.path()),
            "range_spill" => spill::run(&args, dir.path()),
            _ => ingest::run(&args, dir.path()),
        }?;
        if !args.trace {
            report.set("peak_rss_mb", env::peak_rss_mb()?);
        }
        Ok(report)
    });
    let report = result.unwrap_or_else(|e| fail(&e));
    eprint!("{}", report.table());
    eprintln!("wall {:.1} s", t0.elapsed().as_secs_f64());
    match report.json(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => fail(&e),
    }
    if !report.wrong.is_empty() {
        eprintln!("{} wrong answers or lost writes", report.wrong.len());
        std::process::exit(1);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(3)
}
