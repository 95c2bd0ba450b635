fn main() {
    if let Some(other) = std::env::args().nth(1) {
        eprintln!("unknown argument `{other}`; usage: all_experiments");
        std::process::exit(2);
    }
    psi_bench::all();
}
