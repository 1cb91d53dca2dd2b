//! `qz_align` end to end: the binary runs its pairs through the shared
//! pair path, so every printed value and the aggregate statistics equal
//! [`try_simulate_pair_outcome`] on a fresh machine per pair.

use quetzal::{Machine, MachineConfig};
use quetzal_algos::{SimOutcome, Tier};
use quetzal_bench::workloads::{try_simulate_pair_outcome, Algo, SEED};
use quetzal_genomics::dataset::{DatasetSpec, SeqPair};
use quetzal_genomics::fasta::write_pairs;
use quetzal_genomics::Alphabet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `qz_align`'s default `--threshold`.
const THRESHOLD: u32 = 10;

fn pair_file(name: &str, pairs: &[SeqPair]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("qz-align-it-{}-{name}.tsv", std::process::id()));
    write_pairs(std::fs::File::create(&path).unwrap(), pairs).unwrap();
    path
}

/// Runs the binary and returns its stdout and stderr; it must exit 0.
fn qz_align(path: &Path, algo: Algo, tier: Tier) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_qz_align"))
        .arg(path)
        .args(["--algo", algo.code(), "--tier", tier.code()])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{algo} at {tier}: {stderr}");
    (String::from_utf8(out.stdout).unwrap(), stderr)
}

fn fresh(algo: Algo, pair: &SeqPair, tier: Tier) -> SimOutcome {
    let mut machine = Machine::new(MachineConfig::default());
    try_simulate_pair_outcome(&mut machine, algo, Alphabet::Dna, THRESHOLD, pair, tier).unwrap()
}

#[test]
fn classical_dp_on_a_long_pair_is_windowed_at_every_tier() {
    let pairs = DatasetSpec::d10k().generate_n(SEED, 1);
    let path = pair_file("10k", &pairs);
    for algo in [Algo::Nw, Algo::Sw] {
        for tier in Tier::all() {
            let (stdout, _) = qz_align(&path, algo, tier);
            let want = fresh(algo, &pairs[0], tier).value;
            assert_eq!(
                stdout,
                format!("pair 0: score {want}\n"),
                "{algo} at {tier}"
            );
        }
    }
    std::fs::remove_file(path).unwrap();
}

#[test]
fn aggregate_statistics_sum_fresh_machine_runs() {
    let pairs = DatasetSpec::d100().generate_n(SEED, 3);
    let path = pair_file("100bp", &pairs);
    let (algo, tier) = (Algo::Wfa, Tier::QuetzalC);
    let (stdout, stderr) = qz_align(&path, algo, tier);
    let outs: Vec<SimOutcome> = pairs.iter().map(|p| fresh(algo, p, tier)).collect();
    let scores: String = outs
        .iter()
        .enumerate()
        .map(|(i, out)| format!("pair {i}: score {}\n", out.value))
        .collect();
    assert_eq!(stdout, scores);
    let cycles: u64 = outs.iter().map(|out| out.stats.cycles).sum();
    let requests: u64 = outs.iter().map(|out| out.stats.mem_requests).sum();
    assert_eq!(
        stderr,
        format!("3 pairs, wfa/QUETZAL+C: {cycles} simulated cycles, {requests} cache requests\n")
    );
    std::fs::remove_file(path).unwrap();
}
