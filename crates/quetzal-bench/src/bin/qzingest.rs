//! `qzingest` — crash-safe genome-scale ingestion front-end.
//!
//! ```text
//! qzingest stage --dataset NAME --pairs N --out FILE [--seed S]
//! qzingest run   --input FILE --ckpt DIR [--output FILE]
//!                [--algo wfa|biwfa|ss|sw|nw] [--tier base|vec|quetzal|quetzal+c]
//!                [--alphabet dna|rna|protein] [--threshold N]
//!                [--shard N] [--chunk N] [--expect N]
//!                [--deadline-ms N] [--shard-insts N] [--retry-quarantined]
//!                [--heartbeat-ms N] [--quiet]
//!                [--crash-after-shard K] [--crash-mid-manifest K]
//! ```
//!
//! `stage` streams a Table II dataset's generated pairs into a pair
//! file — one pair in memory at a time, so any `--pairs` count stays
//! flat-memory. `run` streams that file (or any pair file) through the
//! sharded, checkpointed pipeline: kill it at any point and re-run the
//! same command against the same `--ckpt` directory to resume from the
//! last committed shard. The final `--output` report of a resumed run
//! is byte-identical to an uninterrupted run at any `QUETZAL_THREADS`.
//!
//! `--deadline-ms N` and `--shard-insts N` are a shard's wall-clock and
//! retired-instruction deadlines, both caller-chosen numbers: a shard
//! that overruns either commits `quarantined`, and
//! `--retry-quarantined` re-runs such shards on resume.
//!
//! The `--crash-*` flags arm the crash-injection plan used by the CI
//! recovery smoke: the process dies with exit code 137 at the chosen
//! shard boundary or mid-manifest-write.

use quetzal::ingest::{self, pair_digest, CrashPlan, IngestConfig, ItemOutput, ShardDeadline};
use quetzal::{BatchRunner, MachineConfig, MachinePool};
use quetzal_algos::Tier;
use quetzal_bench::workloads::{try_simulate_pair_outcome, Algo, SEED};
use quetzal_genomics::fasta::PairReader;
use quetzal_genomics::{Alphabet, DatasetSpec};
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: qzingest <stage|run>\n\
         \x20 stage: --dataset NAME --pairs N --out FILE [--seed S]\n\
         \x20 run:   --input FILE --ckpt DIR [--output FILE] [--algo A] [--tier T]\n\
         \x20        [--alphabet dna|rna|protein] [--threshold N] [--shard N] [--chunk N]\n\
         \x20        [--expect N] [--deadline-ms N] [--shard-insts N] [--retry-quarantined]\n\
         \x20        [--heartbeat-ms N] [--quiet] [--crash-after-shard K] [--crash-mid-manifest K]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("qzingest: {msg}");
    std::process::exit(1);
}

struct Options {
    dataset: String,
    pairs: u64,
    out: Option<PathBuf>,
    seed: u64,
    input: Option<PathBuf>,
    ckpt: Option<PathBuf>,
    output: Option<PathBuf>,
    algo: Algo,
    tier: Tier,
    alphabet: Alphabet,
    threshold: u32,
    shard: usize,
    chunk: usize,
    expect: Option<u64>,
    deadline_ms: Option<u64>,
    shard_insts: Option<u64>,
    retry_quarantined: bool,
    heartbeat_ms: u64,
    quiet: bool,
    crash_after_shard: Option<u64>,
    crash_mid_manifest: Option<u64>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            dataset: "100bp_1".to_string(),
            pairs: 64,
            out: None,
            seed: SEED,
            input: None,
            ckpt: None,
            output: None,
            algo: Algo::Ss,
            tier: Tier::QuetzalC,
            alphabet: Alphabet::Dna,
            threshold: 100,
            shard: 256,
            chunk: 32,
            expect: None,
            deadline_ms: None,
            shard_insts: None,
            retry_quarantined: false,
            heartbeat_ms: 2000,
            quiet: false,
            crash_after_shard: None,
            crash_mid_manifest: None,
        }
    }
}

fn next_arg(iter: &mut impl Iterator<Item = String>, flag: &str) -> String {
    iter.next()
        .unwrap_or_else(|| fail(&format!("{flag} needs an argument")))
}

/// Parses a flag's argument through its type's [`FromStr`](std::str::FromStr) codec.
fn code<T: std::str::FromStr<Err = String>>(
    iter: &mut impl Iterator<Item = String>,
    flag: &str,
) -> T {
    next_arg(iter, flag)
        .parse()
        .unwrap_or_else(|e: String| fail(&e))
}

fn num<T: std::str::FromStr>(iter: &mut impl Iterator<Item = String>, flag: &str) -> T {
    next_arg(iter, flag)
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag} needs a number")))
}

fn parse_options(mut args: impl Iterator<Item = String>) -> Options {
    let mut opts = Options::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dataset" => opts.dataset = next_arg(&mut args, "--dataset"),
            "--pairs" => opts.pairs = num(&mut args, "--pairs"),
            "--out" => opts.out = Some(PathBuf::from(next_arg(&mut args, "--out"))),
            "--seed" => {
                let v = next_arg(&mut args, "--seed");
                opts.seed = v
                    .strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16).ok())
                    .unwrap_or_else(|| v.parse().ok())
                    .unwrap_or_else(|| fail("--seed needs a number"));
            }
            "--input" => opts.input = Some(PathBuf::from(next_arg(&mut args, "--input"))),
            "--ckpt" => opts.ckpt = Some(PathBuf::from(next_arg(&mut args, "--ckpt"))),
            "--output" => opts.output = Some(PathBuf::from(next_arg(&mut args, "--output"))),
            "--algo" => opts.algo = code(&mut args, "--algo"),
            "--tier" => opts.tier = code(&mut args, "--tier"),
            "--alphabet" => opts.alphabet = code(&mut args, "--alphabet"),
            "--threshold" => opts.threshold = num(&mut args, "--threshold"),
            "--shard" => opts.shard = num(&mut args, "--shard"),
            "--chunk" => opts.chunk = num(&mut args, "--chunk"),
            "--expect" => opts.expect = Some(num(&mut args, "--expect")),
            "--deadline-ms" => opts.deadline_ms = Some(num(&mut args, "--deadline-ms")),
            "--shard-insts" => opts.shard_insts = Some(num(&mut args, "--shard-insts")),
            "--retry-quarantined" => opts.retry_quarantined = true,
            "--heartbeat-ms" => opts.heartbeat_ms = num(&mut args, "--heartbeat-ms"),
            "--quiet" => opts.quiet = true,
            "--crash-after-shard" => {
                opts.crash_after_shard = Some(num(&mut args, "--crash-after-shard"))
            }
            "--crash-mid-manifest" => {
                opts.crash_mid_manifest = Some(num(&mut args, "--crash-mid-manifest"))
            }
            "--help" | "-h" => usage(),
            other => fail(&format!("unknown argument '{other}'")),
        }
    }
    opts
}

/// Streams `--pairs` generated pairs into a pair file, one pair in
/// memory at a time.
fn run_stage(opts: &Options) {
    let spec = DatasetSpec::by_name(&opts.dataset).unwrap_or_else(|e| fail(&e));
    let out = opts
        .out
        .as_ref()
        .unwrap_or_else(|| fail("stage needs --out FILE"));
    let file = std::fs::File::create(out)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", out.display())));
    let mut w = BufWriter::new(file);
    for pair in spec.pair_stream(opts.seed).take(opts.pairs as usize) {
        writeln!(w, "{}\t{}", pair.pattern, pair.text)
            .unwrap_or_else(|e| fail(&format!("writing {}: {e}", out.display())));
    }
    w.flush()
        .unwrap_or_else(|e| fail(&format!("flushing {}: {e}", out.display())));
    eprintln!(
        "qzingest: staged {} pair(s) of {} into {}",
        opts.pairs,
        spec.name,
        out.display()
    );
}

fn run_ingest(opts: &Options) {
    let input = opts
        .input
        .as_ref()
        .unwrap_or_else(|| fail("run needs --input FILE"));
    let ckpt = opts
        .ckpt
        .as_ref()
        .unwrap_or_else(|| fail("run needs --ckpt DIR"));
    let config = IngestConfig {
        shard_items: opts.shard.max(1),
        chunk_items: opts.chunk.max(1),
        deadline: ShardDeadline {
            wall: opts.deadline_ms.map(Duration::from_millis),
            instructions: opts.shard_insts,
        },
        heartbeat: if opts.quiet {
            None
        } else {
            Some(Duration::from_millis(opts.heartbeat_ms.max(1)))
        },
        expected_items: opts.expect,
        retry_quarantined: opts.retry_quarantined,
        crash: CrashPlan {
            after_shard: opts.crash_after_shard,
            mid_manifest: opts.crash_mid_manifest,
            exit_process: true,
        },
        ..IngestConfig::new(ckpt)
    };
    let file = std::fs::File::open(input)
        .unwrap_or_else(|e| fail(&format!("cannot open {}: {e}", input.display())));
    let source = PairReader::new(BufReader::new(file), opts.alphabet);
    let runner = BatchRunner::from_env();
    let pool = MachinePool::new(&MachineConfig::default(), runner.exec_mode());
    let (algo, alphabet, threshold, tier) = (opts.algo, opts.alphabet, opts.threshold, opts.tier);
    let summary = ingest::run_ingest(
        &config,
        &runner,
        &pool,
        source,
        pair_digest,
        |m, _g, pair| {
            let out = try_simulate_pair_outcome(m, algo, alphabet, threshold, pair, tier)?;
            Ok(ItemOutput {
                value: out.value,
                cycles: out.stats.cycles,
                instructions: out.stats.instructions,
            })
        },
        |_| {},
    )
    .unwrap_or_else(|e| fail(&e.to_string()));
    if let Some(output) = &opts.output {
        let bytes = ingest::concat_to_path(ckpt, summary.shards, output)
            .unwrap_or_else(|e| fail(&format!("assembling final output: {e}")));
        eprintln!(
            "qzingest: wrote {bytes} byte(s) to {} from {} shard(s)",
            output.display(),
            summary.shards
        );
    }
    let pool_stats = pool.stats();
    eprintln!(
        "qzingest: {} item(s) in {} shard(s) ({} resumed, {} quarantined, {} torn manifest(s)): \
         {} ok, {} failed, {} recovered | pool built {} quarantined {}",
        summary.items,
        summary.shards,
        summary.shards_resumed,
        summary.shards_quarantined,
        summary.manifests_torn,
        summary.ok,
        summary.failed,
        summary.recovered,
        pool_stats.built,
        pool_stats.quarantined,
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { usage() };
    let opts = parse_options(args);
    match command.as_str() {
        "stage" => run_stage(&opts),
        "run" => run_ingest(&opts),
        _ => usage(),
    }
}
