//! `qzclient` — manual smoke client for `qzserved`.
//!
//! ```text
//! qzclient submit  --addr HOST:PORT [--tenant NAME] [--algo A] [--tier T]
//!                  [--dataset D] [--pairs N] [--offline]
//! qzclient ingest  --addr HOST:PORT --input FILE --ckpt DIR [--output FILE]
//!                  [--tenant NAME] [--algo A] [--tier T] [--alphabet X]
//!                  [--threshold N] [--shard N] [--shard-deadline-ms N]
//!                  [--shard-insts N] [--retry-quarantined] [--offline]
//! qzclient fault   --addr HOST:PORT [--tenant NAME] [--seed S] [--cases N]
//!                  [--offline]
//! qzclient ping    --addr HOST:PORT
//! qzclient stats   --addr HOST:PORT
//! qzclient shutdown --addr HOST:PORT
//! ```
//!
//! `submit` stages a Fig. 3 workload slice (a Table II dataset's
//! generated pairs) and prints the daemon's streamed report on stdout —
//! one compact JSON document per item plus the final `done` line.
//! `ingest` points the daemon at a *daemon-local* pair file and
//! checkpoint directory (stage one with `qzingest stage`): the job
//! streams the file in bounded shards, committing a durable manifest
//! per shard, so resubmitting after a daemon crash resumes instead of
//! recomputing. `--offline` runs the identical job through the
//! in-process [`BatchRunner`] instead of a daemon; the CI smoke
//! byte-compares the two outputs.
//!
//! A typed `busy` refusal (tenant quota) is retried up to `--retries`
//! times with jittered exponential backoff, bounded by `--deadline`
//! milliseconds overall; `--retries 0` fails fast instead.

use quetzal::{BatchRunner, MachineConfig, MachinePool};
use quetzal_algos::Tier;
use quetzal_bench::workloads::{Algo, Workload, SEED};
use quetzal_genomics::{Alphabet, DatasetSpec};
use quetzal_served::{job, render_report, Budgets, Client, JobSpec, RetryPolicy, SubmitOutcome};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: qzclient <submit|ingest|fault|ping|stats|shutdown> --addr HOST:PORT\n\
         \x20 submit: [--tenant NAME] [--algo wfa|biwfa|ss|sw|nw] \
         [--tier base|vec|quetzal|quetzal+c] [--dataset NAME] [--pairs N] [--offline]\n\
         \x20 ingest: --input FILE --ckpt DIR [--output FILE] [--tenant NAME] [--algo A]\n\
         \x20         [--tier T] [--alphabet dna|rna|protein] [--threshold N] [--shard N]\n\
         \x20         [--shard-deadline-ms N] [--shard-insts N] [--retry-quarantined] [--offline]\n\
         \x20 fault:  [--tenant NAME] [--seed S] [--cases N] [--offline]\n\
         \x20 common: [--retries N] [--deadline MS]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("qzclient: {msg}");
    std::process::exit(1);
}

struct Options {
    addr: Option<String>,
    tenant: String,
    algo: Algo,
    tier: Tier,
    dataset: String,
    pairs: usize,
    seed: u64,
    cases: u64,
    offline: bool,
    input: Option<String>,
    ckpt: Option<String>,
    output: Option<String>,
    alphabet: Alphabet,
    threshold: u32,
    shard: u64,
    shard_deadline_ms: Option<u64>,
    shard_insts: Option<u64>,
    retry_quarantined: bool,
    retries: u32,
    deadline_ms: Option<u64>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            addr: None,
            tenant: "default".to_string(),
            algo: Algo::Ss,
            tier: Tier::QuetzalC,
            dataset: "100bp_1".to_string(),
            pairs: 4,
            seed: 0xF4417,
            cases: 16,
            offline: false,
            input: None,
            ckpt: None,
            output: None,
            alphabet: Alphabet::Dna,
            threshold: 100,
            shard: 256,
            shard_deadline_ms: None,
            shard_insts: None,
            retry_quarantined: false,
            retries: 5,
            deadline_ms: None,
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

fn parse_options(mut args: impl Iterator<Item = String>) -> Options {
    let mut opts = Options::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => opts.addr = Some(next_arg(&mut args, "--addr")),
            "--tenant" => opts.tenant = next_arg(&mut args, "--tenant"),
            "--algo" => opts.algo = code(&mut args, "--algo"),
            "--tier" => opts.tier = code(&mut args, "--tier"),
            "--dataset" => opts.dataset = next_arg(&mut args, "--dataset"),
            "--pairs" => {
                opts.pairs = next_arg(&mut args, "--pairs")
                    .parse()
                    .unwrap_or_else(|_| fail("--pairs needs a number"))
            }
            "--seed" => {
                let v = next_arg(&mut args, "--seed");
                opts.seed = v
                    .strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16).ok())
                    .unwrap_or_else(|| v.parse().ok())
                    .unwrap_or_else(|| fail("--seed needs a number"));
            }
            "--cases" => {
                opts.cases = next_arg(&mut args, "--cases")
                    .parse()
                    .unwrap_or_else(|_| fail("--cases needs a number"))
            }
            "--offline" => opts.offline = true,
            "--input" => opts.input = Some(next_arg(&mut args, "--input")),
            "--ckpt" => opts.ckpt = Some(next_arg(&mut args, "--ckpt")),
            "--output" => opts.output = Some(next_arg(&mut args, "--output")),
            "--alphabet" => opts.alphabet = code(&mut args, "--alphabet"),
            "--threshold" => {
                opts.threshold = next_arg(&mut args, "--threshold")
                    .parse()
                    .unwrap_or_else(|_| fail("--threshold needs a number"))
            }
            "--shard" => {
                opts.shard = next_arg(&mut args, "--shard")
                    .parse()
                    .unwrap_or_else(|_| fail("--shard needs a number"))
            }
            "--shard-deadline-ms" => {
                opts.shard_deadline_ms = Some(
                    next_arg(&mut args, "--shard-deadline-ms")
                        .parse()
                        .unwrap_or_else(|_| fail("--shard-deadline-ms needs a number")),
                )
            }
            "--shard-insts" => {
                opts.shard_insts = Some(
                    next_arg(&mut args, "--shard-insts")
                        .parse()
                        .unwrap_or_else(|_| fail("--shard-insts needs a number")),
                )
            }
            "--retry-quarantined" => opts.retry_quarantined = true,
            "--retries" => {
                opts.retries = next_arg(&mut args, "--retries")
                    .parse()
                    .unwrap_or_else(|_| fail("--retries needs a number"))
            }
            "--deadline" => {
                opts.deadline_ms = Some(
                    next_arg(&mut args, "--deadline")
                        .parse()
                        .unwrap_or_else(|_| fail("--deadline needs milliseconds")),
                )
            }
            "--help" | "-h" => usage(),
            other => fail(&format!("unknown argument '{other}'")),
        }
    }
    opts
}

/// Stages the Fig. 3 workload slice: `n` generated pairs of the chosen
/// Table II dataset, with the experiment harness's own SS threshold.
fn stage_align_job(opts: &Options) -> JobSpec {
    let spec = DatasetSpec::by_name(&opts.dataset).unwrap_or_else(|e| fail(&e));
    let wl = Workload {
        pairs: spec.generate_n(SEED, opts.pairs.max(1)),
        spec,
    };
    JobSpec::Align {
        algo: opts.algo,
        tier: opts.tier,
        alphabet: wl.spec.alphabet,
        ss_threshold: wl.ss_threshold(),
        budgets: Budgets::default(),
        pairs: wl.pairs,
    }
}

fn run_offline(spec: &JobSpec) -> String {
    let runner = BatchRunner::from_env();
    let config = MachineConfig::default();
    let pool = MachinePool::new(&config, runner.exec_mode());
    let mut frames = Vec::new();
    job::execute(&runner, &pool, spec, 16, &mut |f| frames.push(f));
    render_report(&frames)
}

fn connect(opts: &Options) -> Client<std::net::TcpStream> {
    let addr = opts
        .addr
        .as_deref()
        .unwrap_or_else(|| fail("--addr HOST:PORT is required (or use --offline)"));
    Client::connect(addr).unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")))
}

fn run_submit(opts: &Options, spec: &JobSpec) {
    if opts.offline {
        print!("{}", run_offline(spec));
        return;
    }
    let mut client = connect(opts);
    let policy = RetryPolicy {
        retries: opts.retries,
        deadline: opts.deadline_ms.map(Duration::from_millis),
        seed: opts.seed,
        ..RetryPolicy::default()
    };
    let outcome = client.submit_with_retry(
        &opts.tenant,
        spec,
        &policy,
        |attempt, inflight, max, delay| {
            eprintln!(
                "qzclient: tenant busy ({inflight}/{max} in flight); \
                 retry {attempt}/{retries} in {delay:?}",
                retries = policy.retries
            );
        },
    );
    match outcome {
        Ok(SubmitOutcome::Report(frames)) => {
            print!("{}", render_report(&frames));
            if let Some(quetzal_served::Response::Done(s)) = frames.last() {
                eprintln!(
                    "qzclient: {} item(s): {} ok, {} failed, {} rejected, {} recovered",
                    s.items, s.ok, s.failed, s.rejected, s.recovered
                );
                if s.bounded + s.clean + s.warnings > 0 {
                    eprintln!(
                        "qzclient: admission verdicts: {} bounded, {} clean, {} warnings, \
                         {} rejected",
                        s.bounded, s.clean, s.warnings, s.rejected
                    );
                }
            }
        }
        Ok(SubmitOutcome::Busy { inflight, max }) => fail(&format!(
            "tenant busy ({inflight}/{max} in flight) after {} attempt(s)",
            opts.retries + 1
        )),
        Ok(SubmitOutcome::Draining) => fail("daemon is draining for shutdown"),
        Err(e) => fail(&e.to_string()),
    }
}

/// Stages the crash-safe ingestion job from the `ingest` subcommand's
/// flags. Paths are daemon-local: the daemon, not this client, opens
/// them.
fn stage_ingest_job(opts: &Options) -> JobSpec {
    let input = opts
        .input
        .clone()
        .unwrap_or_else(|| fail("ingest needs --input FILE (daemon-local path)"));
    let checkpoint_dir = opts
        .ckpt
        .clone()
        .unwrap_or_else(|| fail("ingest needs --ckpt DIR (daemon-local path)"));
    JobSpec::Ingest {
        input,
        checkpoint_dir,
        output: opts.output.clone(),
        algo: opts.algo,
        tier: opts.tier,
        alphabet: opts.alphabet,
        ss_threshold: opts.threshold,
        budgets: Budgets::default(),
        shard_items: opts.shard.max(1),
        deadline_ms: opts.shard_deadline_ms,
        shard_insts: opts.shard_insts,
        retry_quarantined: opts.retry_quarantined,
    }
}

/// Renders the human-readable digest of a stats frame on stderr (stdout
/// keeps the raw JSON for scripted consumers): the admission-verdict
/// tallies and each tenant's in-flight load.
fn render_stats_summary(stats: &quetzal_trace::json::Value) {
    let field = |v: &quetzal_trace::json::Value, key: &str| {
        v.get(key).and_then(|f| f.as_u64()).unwrap_or(0)
    };
    if let Some(admission) = stats.get("admission") {
        eprintln!(
            "qzclient: admission verdicts: {} bounded, {} clean, {} warnings, {} rejected",
            field(admission, "bounded"),
            field(admission, "clean"),
            field(admission, "warnings"),
            field(admission, "rejected"),
        );
    }
    if let Some(quetzal_trace::json::Value::Object(tenants)) = stats.get("tenants") {
        for (name, line) in tenants {
            eprintln!(
                "qzclient: tenant '{}': {} in flight (max {})",
                name,
                field(line, "inflight"),
                field(line, "max_inflight"),
            );
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { usage() };
    let opts = parse_options(args);
    match command.as_str() {
        "submit" => {
            let spec = stage_align_job(&opts);
            run_submit(&opts, &spec);
        }
        "ingest" => {
            let spec = stage_ingest_job(&opts);
            run_submit(&opts, &spec);
        }
        "fault" => {
            let spec = JobSpec::Fault {
                seed: opts.seed,
                cases: (0..opts.cases.max(1)).collect(),
            };
            run_submit(&opts, &spec);
        }
        "ping" => {
            let mut client = connect(&opts);
            client.ping().unwrap_or_else(|e| fail(&e.to_string()));
            println!("pong");
        }
        "stats" => {
            let mut client = connect(&opts);
            let stats = client.stats().unwrap_or_else(|e| fail(&e.to_string()));
            println!("{}", stats.dump());
            render_stats_summary(&stats);
        }
        "shutdown" => {
            let mut client = connect(&opts);
            let stats = client.shutdown().unwrap_or_else(|e| fail(&e.to_string()));
            println!("{}", stats.dump());
        }
        _ => usage(),
    }
}
