//! `qz_align` — a small command-line aligner over the simulated QUETZAL
//! machine, for downstream users who want to drive it on their own
//! data.
//!
//! Usage:
//!   qz_align <pairs.tsv> [--algo wfa|biwfa|ss|sw|nw]
//!            [--tier base|vec|quetzal|quetzal+c] [--threshold E] [--protein]
//!
//! The input file holds one `pattern<TAB>text` pair per line (the
//! SneakySnake pair format; see `quetzal_genomics::fasta::read_pairs`).
//! Prints one line per pair (score or filter verdict) plus aggregate
//! simulated-cycle statistics.
//!
//! Pairs run through the same path as every other front end
//! ([`try_simulate_pair_outcome`] over a [`MachinePool`]): one cold
//! machine per pair, classical DP windowed to [`NW_WINDOW`] /
//! [`SW_WINDOW`] bases, and `QUETZAL_THREADS` workers with output
//! identical at any thread count. A pair that fails twice is reported
//! on stderr and makes the exit status 1.
//!
//! [`NW_WINDOW`]: quetzal_bench::workloads::NW_WINDOW
//! [`SW_WINDOW`]: quetzal_bench::workloads::SW_WINDOW

use quetzal::{BatchRunner, MachineConfig, MachinePool};
use quetzal_algos::Tier;
use quetzal_bench::workloads::{try_simulate_pair_outcome, Algo};
use quetzal_genomics::fasta::read_pairs;
use quetzal_genomics::Alphabet;
use std::io::BufReader;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: qz_align <pairs.tsv> [--algo wfa|biwfa|ss|sw|nw] \
         [--tier base|vec|quetzal|quetzal+c] [--threshold E] [--protein]"
    );
    std::process::exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("qz_align: {msg}");
    std::process::exit(1)
}

/// The next argument, parsed; the usage text when absent or malformed.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn main() -> ExitCode {
    let mut path = None;
    let mut algo = Algo::Wfa;
    let mut tier = Tier::QuetzalC;
    let mut threshold = 10u32;
    let mut alphabet = Alphabet::Dna;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--algo" => algo = value(&mut it),
            "--tier" => tier = value(&mut it),
            "--threshold" => threshold = value(&mut it),
            "--protein" => alphabet = Alphabet::Protein,
            _ if path.is_none() && !arg.starts_with('-') => path = Some(arg),
            _ => usage(),
        }
    }
    let path = path.unwrap_or_else(|| usage());
    let file =
        std::fs::File::open(&path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    let pairs = read_pairs(BufReader::new(file), alphabet).unwrap_or_else(|e| fail(&e.to_string()));

    let runner = BatchRunner::from_env();
    let pool = MachinePool::new(&MachineConfig::default(), runner.exec_mode());
    let report = runner
        .run_machines_report_pooled(&pool, &pairs, |m, _i, pair| {
            try_simulate_pair_outcome(m, algo, alphabet, threshold, pair, tier)
        })
        .unwrap_or_else(|e| fail(&e.to_string()));

    let mut total_cycles = 0u64;
    let mut total_requests = 0u64;
    for (i, out) in report.healthy() {
        total_cycles += out.stats.cycles;
        total_requests += out.stats.mem_requests;
        if algo == Algo::Ss {
            let verdict = if out.value as u32 <= threshold {
                "accept"
            } else {
                "reject"
            };
            println!("pair {i}: bound {} -> {verdict}", out.value);
        } else {
            println!("pair {i}: score {}", out.value);
        }
    }
    for failure in &report.failures {
        eprintln!("qz_align: {failure}");
    }
    eprintln!(
        "{} pairs, {}/{tier}: {total_cycles} simulated cycles, {total_requests} cache requests",
        pairs.len(),
        algo.code()
    );
    if report.results.iter().all(Option::is_some) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
