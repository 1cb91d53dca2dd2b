//! Runs every experiment in sequence (tables + figures). Workload sizes
//! scale with the QUETZAL_SCALE environment variable.
//!
//! Experiment tables go to stdout and are deterministic (byte-identical
//! across hosts and `QUETZAL_THREADS` values). The optional
//! `--cpi-stacks` probed-replay summary goes to stderr (it is
//! deterministic too, but keeping stdout's byte-identity contract
//! independent of flags keeps the CI comparison simple). Simulator
//! throughput is `bench_uarch`'s job, not this one's.
fn main() {
    let cpi_stacks = std::env::args().skip(1).any(|a| a == "--cpi-stacks");
    let scale = quetzal_bench::scale_from_env();
    eprintln!("running all experiments at scale {scale} ...");
    for table in quetzal_bench::experiments::run_all(scale) {
        println!("{table}");
    }
    if cpi_stacks {
        eprint!("{}", quetzal_bench::trace::cpi_stacks_summary(scale));
    }
}
