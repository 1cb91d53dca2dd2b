//! Simulator-throughput benchmark: emits the `BENCH_uarch.json`
//! perf-trajectory document on stdout (per-kernel simulated MIPS and
//! wall-clock over the Fig. 3 / Fig. 4 kernels at all four tiers,
//! median of 15 samples) and the human-readable table on stderr.
//! `scripts/ci.sh` redirects stdout to `BENCH_uarch.json` at the
//! repository root.
//!
//! After writing the document, checks the cycle-engine sim-MIPS floor
//! and the functional-tier speedup floor
//! ([`quetzal_bench::throughput::check_floors`]) and exits non-zero if
//! either trips.
fn main() {
    let scale = quetzal_bench::scale_from_env();
    eprintln!("measuring simulator throughput at scale {scale} ...");
    let results = quetzal_bench::throughput::measure_fig_kernels(scale);
    eprint!("{}", quetzal_bench::throughput::summary_table(&results));
    println!("{}", quetzal_bench::throughput::to_json(&results, scale));
    let checks = quetzal_bench::throughput::check_floors(&results);
    for check in &checks {
        eprintln!("{}", check.as_ref().unwrap_or_else(|fail| fail));
    }
    if checks.iter().any(Result::is_err) {
        std::process::exit(1);
    }
}
