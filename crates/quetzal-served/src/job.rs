//! Job specifications and the execution core shared by the daemon and
//! the offline path.
//!
//! [`execute`] is the *only* place a job turns into simulations: the
//! daemon drives its chunk-granular core per connection over a tenant's
//! long-lived [`MachinePool`], and `qzclient --offline` (plus the
//! loopback e2e test) drives it over a throwaway pool. Both paths
//! therefore emit byte-identical frame streams for the same job — the
//! equivalence the service's correctness story rests on.
//!
//! Two job kinds exist:
//!
//! * **align** — a batch of encoded sequence pairs run through one of
//!   the five evaluated algorithms at a chosen acceleration tier, with
//!   optional machine [`Budgets`] (the library's type; wire keys
//!   `insts`, `cycles`, `pages`). The in-tree kernels are kept
//!   statically `Clean` by the `qzverify` CI gate, so admission here is
//!   input validation (alphabet, lengths) rather than verification.
//! * **fault** — deterministic mutant programs from the fault-injection
//!   sweep's [`FaultPlan`], replayed by `(seed, case)`. These are the
//!   hostile inputs: every staged program runs through
//!   `quetzal-verify` once, here, and provably-fatal ones are rejected
//!   at admission (an `item_failed` frame with cause `rejected`)
//!   **without being handed to the batch runner**, so they never check
//!   a machine out of the tenant's pool. Admitted mutants are
//!   classified by verdict (`bounded`/`clean`/`warnings`, tallied in
//!   the [`JobSummary`]) and replayed exactly as the sweep does: stage
//!   on the pooled machine, *then* apply the sweep watchdogs
//!   ([`SWEEP_BUDGETS`]). The proof only gates admission; its resource
//!   bound sizes no watchdog (a sound bound can never trip one, and the
//!   fault sweep's soundness corpora check the bounds themselves).
//! * **ingest** — a daemon-local pair file streamed through
//!   [`ingest::run_ingest`]; each committed shard streams back as its
//!   [`ShardReport`](quetzal::ShardReport).
//!
//! Optional fields are parsed strictly: absent means the default, and
//! present-but-malformed is an admission error.

use crate::protocol::Response;
use quetzal::fault::SWEEP_BUDGETS;
use quetzal::ingest::{self, pair_digest, IngestConfig, ItemOutput, ShardDeadline};
use quetzal::uarch::state::DEFAULT_PAGE_BUDGET;
use quetzal::uarch::RunStats;
use quetzal::verify::ResourceBound;
use quetzal::{BatchRunner, FaultPlan, ItemFailure, Machine, MachinePool};
use quetzal_algos::Tier;
use quetzal_bench::workloads::{try_simulate_pair_outcome, Algo};
use quetzal_genomics::dataset::SeqPair;
use quetzal_genomics::fasta::PairReader;
use quetzal_genomics::{Alphabet, Seq};
use quetzal_trace::json::Value;
use std::io::BufReader;
use std::ops::ControlFlow;
use std::path::Path;
use std::time::Duration;

/// Optional per-item machine budgets of align and ingest jobs (wire
/// keys `insts`, `cycles`, `pages`; `pages` is the absolute cap on
/// resident guest pages).
pub use quetzal::Budgets;

/// One batch job, as submitted over the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Align (or filter) a batch of sequence pairs.
    Align {
        /// The algorithm (WFA, BiWFA, SS, SW, NW).
        algo: Algo,
        /// The acceleration tier.
        tier: Tier,
        /// Sequence alphabet of every pair.
        alphabet: Alphabet,
        /// SneakySnake edit threshold (ignored by the other algorithms).
        ss_threshold: u32,
        /// Optional machine budgets applied to every item.
        budgets: Budgets,
        /// The pairs to process.
        pairs: Vec<SeqPair>,
    },
    /// Replay fault-injection sweep cases (hostile mutant programs).
    Fault {
        /// The sweep seed.
        seed: u64,
        /// Case indices to replay.
        cases: Vec<u64>,
    },
    /// Crash-safe streaming ingestion of a daemon-local pair file: the
    /// durable long-running job. Items stream from disk in bounded
    /// shards, every shard commits a checkpoint, and resubmitting the
    /// same job after a crash resumes from the last committed shard
    /// (resumed shards stream back with `resumed:true`).
    Ingest {
        /// Daemon-local pair-file path (one `pattern<TAB>text` per line).
        input: String,
        /// Daemon-local checkpoint directory (created if missing).
        checkpoint_dir: String,
        /// Optional daemon-local path for the final concatenated report.
        output: Option<String>,
        /// The algorithm (WFA, BiWFA, SS, SW, NW).
        algo: Algo,
        /// The acceleration tier.
        tier: Tier,
        /// Sequence alphabet of the pair file.
        alphabet: Alphabet,
        /// SneakySnake edit threshold (ignored by the other algorithms).
        ss_threshold: u32,
        /// Optional machine budgets applied to every item.
        budgets: Budgets,
        /// Items per shard (checkpoint granularity and memory bound).
        shard_items: u64,
        /// Optional per-shard wall-clock deadline in milliseconds
        /// (nondeterministic; quarantines the shard's remainder).
        deadline_ms: Option<u64>,
        /// Optional per-shard retired-instruction budget
        /// (deterministic; quarantines the shard's remainder).
        shard_insts: Option<u64>,
        /// Re-run previously quarantined shards instead of skipping.
        retry_quarantined: bool,
    },
}

fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

/// An optional integer field: absent is `None`, anything but a
/// non-negative integer is an error.
fn opt_u64_field(v: &Value, key: &str) -> Result<Option<u64>, String> {
    v.get(key)
        .map(|n| {
            n.as_u64()
                .ok_or_else(|| format!("'{key}' must be an integer"))
        })
        .transpose()
}

/// The wire keys of [`Budgets`], in [`Budgets`] field order.
const BUDGET_KEYS: [&str; 3] = ["insts", "cycles", "pages"];

/// The fields align and ingest jobs share: algorithm, tier, alphabet,
/// SneakySnake threshold (default 100) and optional budgets.
fn pair_job_fields(v: &Value) -> Result<(Algo, Tier, Alphabet, u32, Budgets), String> {
    let algo = str_field(v, "algo")?.parse()?;
    let tier = str_field(v, "tier")?.parse()?;
    let alphabet = str_field(v, "alphabet")?.parse()?;
    let ss_threshold = match opt_u64_field(v, "ss_threshold")? {
        None => 100,
        Some(t) => u32::try_from(t).map_err(|_| "'ss_threshold' out of range".to_string())?,
    };
    let budgets = match v.get("budgets") {
        None => Budgets::default(),
        Some(b @ Value::Object(keys)) => {
            if let Some(key) = keys.keys().find(|k| !BUDGET_KEYS.contains(&k.as_str())) {
                return Err(format!("unknown budget '{key}' (insts|cycles|pages)"));
            }
            Budgets {
                instructions: opt_u64_field(b, "insts")?,
                cycles: opt_u64_field(b, "cycles")?,
                pages: opt_u64_field(b, "pages")?,
            }
        }
        Some(_) => return Err("'budgets' must be an object".to_string()),
    };
    Ok((algo, tier, alphabet, ss_threshold, budgets))
}

/// The wire form of [`pair_job_fields`]; `budgets` only when set.
fn pair_job_value(
    algo: Algo,
    tier: Tier,
    alphabet: Alphabet,
    ss_threshold: u32,
    budgets: &Budgets,
) -> Vec<(&'static str, Value)> {
    let mut fields = vec![
        ("algo", Value::from(algo.code())),
        ("tier", Value::from(tier.code())),
        ("alphabet", Value::from(alphabet.code())),
        ("ss_threshold", Value::from(u64::from(ss_threshold))),
    ];
    if !budgets.is_default() {
        let b = BUDGET_KEYS
            .into_iter()
            .zip([budgets.instructions, budgets.cycles, budgets.pages])
            .filter_map(|(key, n)| Some((key, Value::from(n?))))
            .collect();
        fields.push(("budgets", b));
    }
    fields
}

impl JobSpec {
    /// Parses a job object (the `job` member of a `submit` frame).
    ///
    /// # Errors
    ///
    /// Returns a human-readable admission error for anything malformed:
    /// unknown kind/algo/tier, symbols outside the declared alphabet,
    /// empty batches, or out-of-range numbers.
    pub fn from_value(v: &Value) -> Result<JobSpec, String> {
        match str_field(v, "kind")? {
            "align" => {
                let (algo, tier, alphabet, ss_threshold, budgets) = pair_job_fields(v)?;
                let raw_pairs = v
                    .get("pairs")
                    .and_then(Value::as_array)
                    .ok_or("missing array field 'pairs'")?;
                if raw_pairs.is_empty() {
                    return Err("empty batch".to_string());
                }
                let mut pairs = Vec::with_capacity(raw_pairs.len());
                for (i, p) in raw_pairs.iter().enumerate() {
                    let pattern = Seq::new(str_field(p, "pattern")?.as_bytes(), alphabet)
                        .map_err(|e| format!("pair {i} pattern: {e}"))?;
                    let text = Seq::new(str_field(p, "text")?.as_bytes(), alphabet)
                        .map_err(|e| format!("pair {i} text: {e}"))?;
                    pairs.push(SeqPair { pattern, text });
                }
                Ok(JobSpec::Align {
                    algo,
                    tier,
                    alphabet,
                    ss_threshold,
                    budgets,
                    pairs,
                })
            }
            "fault" => {
                let seed = u64_field(v, "seed")?;
                let raw = v
                    .get("cases")
                    .and_then(Value::as_array)
                    .ok_or("missing array field 'cases'")?;
                if raw.is_empty() {
                    return Err("empty batch".to_string());
                }
                let cases = raw
                    .iter()
                    .map(|c| c.as_u64().ok_or("'cases' must hold integers".to_string()))
                    .collect::<Result<Vec<u64>, String>>()?;
                Ok(JobSpec::Fault { seed, cases })
            }
            "ingest" => {
                let input = str_field(v, "input")?.to_string();
                if input.is_empty() {
                    return Err("'input' must be a non-empty path".to_string());
                }
                let checkpoint_dir = str_field(v, "checkpoint_dir")?.to_string();
                if checkpoint_dir.is_empty() {
                    return Err("'checkpoint_dir' must be a non-empty path".to_string());
                }
                let output = match v.get("output") {
                    None => None,
                    Some(o) => Some(o.as_str().ok_or("'output' must be a string")?.to_string()),
                };
                let (algo, tier, alphabet, ss_threshold, budgets) = pair_job_fields(v)?;
                let shard_items = opt_u64_field(v, "shard_items")?.unwrap_or(256);
                if shard_items == 0 {
                    return Err("'shard_items' must be at least 1".to_string());
                }
                let retry_quarantined = match v.get("retry_quarantined") {
                    None => false,
                    Some(b) => b.as_bool().ok_or("'retry_quarantined' must be a boolean")?,
                };
                Ok(JobSpec::Ingest {
                    input,
                    checkpoint_dir,
                    output,
                    algo,
                    tier,
                    alphabet,
                    ss_threshold,
                    budgets,
                    shard_items,
                    deadline_ms: opt_u64_field(v, "deadline_ms")?,
                    shard_insts: opt_u64_field(v, "shard_insts")?,
                    retry_quarantined,
                })
            }
            other => Err(format!("unknown job kind '{other}' (align|fault|ingest)")),
        }
    }

    /// Renders the job back to its wire object (what `qzclient` sends).
    pub fn to_value(&self) -> Value {
        match self {
            JobSpec::Align {
                algo,
                tier,
                alphabet,
                ss_threshold,
                budgets,
                pairs,
            } => {
                let pair_values: Vec<Value> = pairs
                    .iter()
                    .map(|p| {
                        Value::from([
                            (
                                "pattern",
                                Value::from(
                                    String::from_utf8_lossy(p.pattern.as_bytes()).into_owned(),
                                ),
                            ),
                            (
                                "text",
                                Value::from(
                                    String::from_utf8_lossy(p.text.as_bytes()).into_owned(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                let mut fields = pair_job_value(*algo, *tier, *alphabet, *ss_threshold, budgets);
                fields.push(("kind", Value::from("align")));
                fields.push(("pairs", Value::Array(pair_values)));
                fields.into_iter().collect()
            }
            JobSpec::Fault { seed, cases } => Value::from([
                ("kind", Value::from("fault")),
                ("seed", Value::from(*seed)),
                (
                    "cases",
                    Value::Array(cases.iter().map(|&c| Value::from(c)).collect()),
                ),
            ]),
            JobSpec::Ingest {
                input,
                checkpoint_dir,
                output,
                algo,
                tier,
                alphabet,
                ss_threshold,
                budgets,
                shard_items,
                deadline_ms,
                shard_insts,
                retry_quarantined,
            } => {
                let mut fields = pair_job_value(*algo, *tier, *alphabet, *ss_threshold, budgets);
                fields.extend([
                    ("kind", Value::from("ingest")),
                    ("input", Value::from(input.clone())),
                    ("checkpoint_dir", Value::from(checkpoint_dir.clone())),
                    ("shard_items", Value::from(*shard_items)),
                ]);
                if let Some(path) = output {
                    fields.push(("output", Value::from(path.clone())));
                }
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms", Value::from(*ms)));
                }
                if let Some(n) = shard_insts {
                    fields.push(("shard_insts", Value::from(*n)));
                }
                if *retry_quarantined {
                    fields.push(("retry_quarantined", Value::from(true)));
                }
                fields.into_iter().collect()
            }
        }
    }

    /// Number of items the job will stream frames for (`0` for ingest
    /// jobs: the input streams from disk, so the count is unknown at
    /// admission — progress arrives as `shard_done` frames instead).
    pub fn items(&self) -> usize {
        match self {
            JobSpec::Align { pairs, .. } => pairs.len(),
            JobSpec::Fault { cases, .. } => cases.len(),
            JobSpec::Ingest { .. } => 0,
        }
    }
}

/// Aggregate of one executed job — the payload of the final `done`
/// frame and the increment applied to the daemon's `/stats` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobSummary {
    /// Items in the job.
    pub items: u64,
    /// Items that produced a result (first attempt or retry).
    pub ok: u64,
    /// Items that failed both attempts at runtime.
    pub failed: u64,
    /// Items rejected at admission by the static verifier.
    pub rejected: u64,
    /// Items that failed once but recovered on the fresh-machine retry.
    pub recovered: u64,
    /// Merged simulated cycles over the healthy items.
    pub cycles: u64,
    /// Merged retired instructions over the healthy items.
    pub instructions: u64,
    /// Admitted items whose program carried an unconditional resource
    /// bound tighter than a default watchdog in at least one component.
    /// Verdict tallies cover verifier-gated (fault) jobs; align/ingest
    /// admission is input validation, so they stay 0.
    pub bounded: u64,
    /// Admitted items verified `Clean` without such a bound.
    pub clean: u64,
    /// Admitted items verified with non-fatal warnings.
    pub warnings: u64,
}

impl JobSummary {
    /// Adds every tally of `other` to `self` (the daemon's `/stats`
    /// totals sum each completed job's summary).
    pub fn absorb(&mut self, other: &JobSummary) {
        self.items += other.items;
        self.ok += other.ok;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.recovered += other.recovered;
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.bounded += other.bounded;
        self.clean += other.clean;
        self.warnings += other.warnings;
    }
}

/// One executed item's frame.
fn slot_frame(
    item: usize,
    (slot, failure): (Option<&(i64, RunStats)>, Option<&ItemFailure>),
    summary: &mut JobSummary,
) -> Response {
    match slot {
        Some((value, stats)) => {
            summary.ok += 1;
            summary.cycles += stats.cycles;
            summary.instructions += stats.instructions;
            let recovered = failure.map(|f| {
                summary.recovered += 1;
                (f.cause.kind(), f.cause.detail())
            });
            Response::Item {
                item,
                value: *value,
                cycles: stats.cycles,
                instructions: stats.instructions,
                recovered,
            }
        }
        None => {
            let cause = &failure.expect("resultless item has a failure entry").cause;
            summary.failed += 1;
            Response::ItemFailed {
                item,
                cause: cause.kind(),
                message: cause.detail(),
            }
        }
    }
}

/// The `bounded` verdict class: an unconditional proof with at least
/// one component tighter than the default watchdog (the instruction
/// budget, the cycle watchdog, which is off, or the page cap).
fn tighter_than_watchdogs(bound: &ResourceBound) -> bool {
    let below = |component: Option<u64>, watchdog: u64| component.is_some_and(|c| c < watchdog);
    let insts = quetzal::Core::<quetzal::NullProbe>::DEFAULT_BUDGET;
    !bound.premised
        && (below(bound.instructions, insts)
            || below(bound.cycles, u64::MAX)
            || below(bound.pages, DEFAULT_PAGE_BUDGET as u64))
}

/// Executes one job over a caller-owned pool, streaming per-item frames
/// through `emit` as chunks complete and finishing with a `done` frame.
///
/// Items run in submission order, `chunk` at a time, through the chunk
/// driver [`BatchRunner::run_chunks`], so the frame stream is
/// **bit-identical for every worker-thread count and chunk size** — the
/// loopback e2e test pins daemon-vs-offline equality on exactly this
/// property. This path never stops a job early.
///
/// Fault-job programs are staged on a scratch (never pooled) machine
/// and statically verified before execution: only admitted mutants pass
/// the driver's admission, so provably-fatal ones are rejected without
/// a pool checkout (a chunk of nothing but rejections checks nothing
/// out). Their `rejected` frames keep their place in item order.
pub fn execute(
    runner: &BatchRunner,
    pool: &MachinePool,
    spec: &JobSpec,
    chunk: usize,
    emit: &mut dyn FnMut(Response),
) -> JobSummary {
    execute_chunks(runner, pool, spec, chunk, &mut |frames| {
        frames.into_iter().for_each(&mut *emit);
        ControlFlow::Continue(())
    })
}

/// [`execute`]'s core, handing `sink` one call per chunk with all of
/// that chunk's item frames, in item order. Each `shard_done`, the
/// terminal `error` and `done` arrive as one-frame calls.
///
/// A [`ControlFlow::Break`] from `sink` stops an align or fault job at
/// the chunk boundary (no later chunk runs), and `sink` is not called
/// again, so a stopped job sends no `done`. Its summary's tallies count
/// only the items that ran. An ingest job runs on to its end: its shard
/// observer has no stop.
pub(crate) fn execute_chunks(
    runner: &BatchRunner,
    pool: &MachinePool,
    spec: &JobSpec,
    chunk: usize,
    sink: &mut dyn FnMut(Vec<Response>) -> ControlFlow<()>,
) -> JobSummary {
    let mut summary = JobSummary {
        items: spec.items() as u64,
        ..JobSummary::default()
    };
    let mut open = true;
    let mut send = |frames: Vec<Response>| {
        open = open && sink(frames).is_continue();
        if open {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    };
    let outcome = match spec {
        JobSpec::Align {
            algo,
            tier,
            alphabet,
            ss_threshold,
            budgets,
            pairs,
        } => runner
            .run_chunks(
                pool,
                pairs,
                chunk,
                |_| true,
                |m, _i, pair| {
                    budgets.apply(m);
                    let out =
                        try_simulate_pair_outcome(m, *algo, *alphabet, *ss_threshold, pair, *tier)?;
                    Ok((out.value, out.stats))
                },
                |base, report| {
                    let frames = report
                        .slots()
                        .enumerate()
                        .map(|(local, slot)| slot_frame(base + local, slot, &mut summary))
                        .collect();
                    send(frames)
                },
            )
            .map(drop)
            .map_err(|e| e.to_string()),
        JobSpec::Fault { seed, cases } => {
            let plan = FaultPlan::new(*seed);
            // Stage each case on a scratch machine (reset ≡ fresh) just
            // to obtain the mutant program for static admission — the
            // tenant pool is untouched until a case is admitted. The
            // same pass classifies each admitted mutant's verdict; a
            // rejected case carries its `rejected` frame message.
            let latencies = quetzal::class_latencies(&pool.config().core);
            let vconfig = quetzal::verify::VerifyConfig {
                latencies,
                ..quetzal::verify::VerifyConfig::default()
            };
            let mut scratch = Machine::new(pool.config().clone());
            let rejections: Vec<Option<String>> = cases
                .iter()
                .map(|&case| {
                    scratch.reset();
                    let (program, _) = plan.stage(case, &mut scratch);
                    let report = quetzal::verify::verify_with(&program, &vconfig);
                    if report.verdict() == quetzal::verify::Verdict::Fatal {
                        return Some(format!(
                            "program '{}' statically rejected with {} diagnostic(s)",
                            report.name(),
                            report.diagnostics().len()
                        ));
                    }
                    if tighter_than_watchdogs(report.bound()) {
                        summary.bounded += 1;
                    } else if report.verdict() == quetzal::verify::Verdict::Warnings {
                        summary.warnings += 1;
                    } else {
                        summary.clean += 1;
                    }
                    None
                })
                .collect();
            runner
                .run_chunks(
                    pool,
                    &rejections,
                    chunk,
                    Option::is_none,
                    |m, i, _| {
                        // Re-stage on the pooled machine: staging seeds
                        // adversarial registers and memory, so the run
                        // reproduces the sweep's outcome exactly. The
                        // machine is at its default watchdogs here, so
                        // staging never trips the sweep caps below.
                        let (program, _) = plan.stage(cases[i], m);
                        SWEEP_BUDGETS.apply(m);
                        let stats = m.run(&program)?;
                        Ok((0i64, stats))
                    },
                    |base, report| {
                        let frames = report
                            .slots()
                            .enumerate()
                            .map(|(local, slot)| {
                                let item = base + local;
                                match &rejections[item] {
                                    None => slot_frame(item, slot, &mut summary),
                                    Some(message) => {
                                        summary.rejected += 1;
                                        Response::ItemFailed {
                                            item,
                                            cause: "rejected",
                                            message: message.clone(),
                                        }
                                    }
                                }
                            })
                            .collect();
                        send(frames)
                    },
                )
                .map(drop)
                .map_err(|e| e.to_string())
        }
        JobSpec::Ingest {
            input,
            checkpoint_dir,
            output,
            algo,
            tier,
            alphabet,
            ss_threshold,
            budgets,
            shard_items,
            deadline_ms,
            shard_insts,
            retry_quarantined,
        } => {
            let config = IngestConfig {
                shard_items: *shard_items as usize,
                chunk_items: chunk,
                deadline: ShardDeadline {
                    wall: deadline_ms.map(Duration::from_millis),
                    instructions: *shard_insts,
                },
                heartbeat: Some(Duration::from_secs(5)),
                retry_quarantined: *retry_quarantined,
                ..IngestConfig::new(checkpoint_dir)
            };
            std::fs::File::open(input)
                .map_err(|e| format!("opening '{input}': {e}"))
                .and_then(|file| {
                    let source = PairReader::new(BufReader::new(file), *alphabet);
                    ingest::run_ingest(
                        &config,
                        runner,
                        pool,
                        source,
                        pair_digest,
                        |m, _g, pair| {
                            budgets.apply(m);
                            let out = try_simulate_pair_outcome(
                                m,
                                *algo,
                                *alphabet,
                                *ss_threshold,
                                pair,
                                *tier,
                            )?;
                            Ok(ItemOutput {
                                value: out.value,
                                cycles: out.stats.cycles,
                                instructions: out.stats.instructions,
                            })
                        },
                        |report| {
                            let _ = send(vec![Response::ShardDone(report.clone())]);
                        },
                    )
                    .map_err(|e| e.to_string())
                })
                .and_then(|ingested| {
                    summary.items = ingested.items;
                    summary.ok = ingested.ok;
                    summary.failed = ingested.failed;
                    summary.recovered = ingested.recovered;
                    summary.cycles = ingested.cycles;
                    summary.instructions = ingested.instructions;
                    let Some(path) = output else { return Ok(()) };
                    let shards = ingested.shards;
                    ingest::concat_to_path(Path::new(checkpoint_dir), shards, Path::new(path))
                        .map(drop)
                        .map_err(|e| format!("assembling '{path}': {e}"))
                })
        }
    };
    if let Err(message) = outcome {
        let _ = send(vec![Response::Error {
            kind: "internal",
            message,
        }]);
    }
    let _ = send(vec![Response::Done(summary)]);
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal::{ExecMode, MachineConfig};
    use quetzal_genomics::dataset::DatasetSpec;

    fn align_spec(n: usize) -> JobSpec {
        let spec = DatasetSpec::d100();
        JobSpec::Align {
            algo: Algo::Ss,
            tier: Tier::QuetzalC,
            alphabet: spec.alphabet,
            ss_threshold: 8,
            budgets: Budgets::default(),
            pairs: spec.generate_n(7, n),
        }
    }

    #[test]
    fn job_specs_round_trip_through_json() {
        let align = align_spec(2);
        let fault = JobSpec::Fault {
            seed: 0xF4417,
            cases: vec![0, 3, 11],
        };
        let ingest = |algo, tier, alphabet, budgets| JobSpec::Ingest {
            input: "pairs.tsv".into(),
            checkpoint_dir: "ck".into(),
            output: Some("out.jsonl".into()),
            algo,
            tier,
            alphabet,
            ss_threshold: 7,
            budgets,
            shard_items: 16,
            deadline_ms: Some(250),
            shard_insts: Some(1 << 20),
            retry_quarantined: true,
        };
        let budgets = Budgets {
            instructions: Some(1000),
            cycles: None,
            pages: Some(64),
        };
        let mut specs = vec![align, fault];
        for (algo, tier) in Algo::all().into_iter().zip(Tier::all().into_iter().cycle()) {
            for alphabet in [Alphabet::Dna, Alphabet::Rna, Alphabet::Protein] {
                specs.push(ingest(algo, tier, alphabet, budgets));
            }
        }
        for spec in &specs {
            let wire = spec.to_value().dump();
            let back = JobSpec::from_value(&Value::parse(&wire).unwrap()).unwrap();
            assert_eq!(&back, spec);
        }
        // The wire spellings, byte for byte.
        let pair = SeqPair {
            pattern: Seq::new(&b"ACGU"[..], Alphabet::Rna).unwrap(),
            text: Seq::new(&b"AGGU"[..], Alphabet::Rna).unwrap(),
        };
        let align = JobSpec::Align {
            algo: Algo::BiWfa,
            tier: Tier::QuetzalC,
            alphabet: Alphabet::Rna,
            ss_threshold: 3,
            budgets,
            pairs: vec![pair],
        };
        assert_eq!(
            align.to_value().dump(),
            r#"{"algo":"biwfa","alphabet":"rna","budgets":{"insts":1000,"pages":64},"kind":"align","pairs":[{"pattern":"ACGU","text":"AGGU"}],"ss_threshold":3,"tier":"quetzal+c"}"#
        );
        assert_eq!(
            ingest(Algo::Nw, Tier::Vec, Alphabet::Protein, Budgets::default())
                .to_value()
                .dump(),
            r#"{"algo":"nw","alphabet":"protein","checkpoint_dir":"ck","deadline_ms":250,"input":"pairs.tsv","kind":"ingest","output":"out.jsonl","retry_quarantined":true,"shard_insts":1048576,"shard_items":16,"ss_threshold":7,"tier":"vec"}"#
        );
    }

    #[test]
    fn malformed_jobs_are_rejected_with_messages() {
        for (doc, needle) in [
            (r#"{"kind":"teleport"}"#, "unknown job kind"),
            (r#"{"kind":"align"}"#, "missing string field 'algo'"),
            (
                r#"{"kind":"align","algo":"blast","tier":"vec","alphabet":"dna","pairs":[]}"#,
                "unknown algo 'blast' (wfa|biwfa|ss|sw|nw)",
            ),
            (
                r#"{"kind":"align","algo":"wfa","tier":"warp","alphabet":"dna","pairs":[]}"#,
                "unknown tier 'warp' (base|vec|quetzal|quetzal+c)",
            ),
            (
                r#"{"kind":"ingest","input":"x","checkpoint_dir":"y","algo":"ss","tier":"vec","alphabet":"amino"}"#,
                "unknown alphabet 'amino' (dna|rna|protein)",
            ),
            (
                r#"{"kind":"align","algo":"wfa","tier":"vec","alphabet":"dna","pairs":[]}"#,
                "empty batch",
            ),
            (
                r#"{"kind":"align","algo":"wfa","tier":"vec","alphabet":"dna","pairs":[{"pattern":"AXGT","text":"ACGT"}]}"#,
                "pattern",
            ),
            (r#"{"kind":"fault","seed":1,"cases":[]}"#, "empty batch"),
            (
                r#"{"kind":"align","algo":"wfa","tier":"vec","alphabet":"dna","budgets":{"insts":"1000"},"pairs":[{"pattern":"A","text":"A"}]}"#,
                "'insts' must be an integer",
            ),
            (
                r#"{"kind":"align","algo":"wfa","tier":"vec","alphabet":"dna","budgets":{"cycles":18446744073709551616},"pairs":[{"pattern":"A","text":"A"}]}"#,
                "'cycles' must be an integer",
            ),
            (
                r#"{"kind":"align","algo":"wfa","tier":"vec","alphabet":"dna","budgets":7,"pairs":[{"pattern":"A","text":"A"}]}"#,
                "'budgets' must be an object",
            ),
            (
                r#"{"kind":"align","algo":"wfa","tier":"vec","alphabet":"dna","budgets":{"instructions":9},"pairs":[{"pattern":"A","text":"A"}]}"#,
                "unknown budget 'instructions' (insts|cycles|pages)",
            ),
            (
                r#"{"kind":"ingest","input":"x","checkpoint_dir":"y","algo":"ss","tier":"vec","alphabet":"dna","deadline_ms":"250"}"#,
                "'deadline_ms' must be an integer",
            ),
            (
                r#"{"kind":"ingest","input":"x","checkpoint_dir":"y","algo":"ss","tier":"vec","alphabet":"dna","shard_insts":-5}"#,
                "'shard_insts' must be an integer",
            ),
            (
                r#"{"kind":"ingest","input":"x","checkpoint_dir":"y","algo":"ss","tier":"vec","alphabet":"dna","retry_quarantined":"yes"}"#,
                "'retry_quarantined' must be a boolean",
            ),
        ] {
            let err = JobSpec::from_value(&Value::parse(doc).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{doc} -> {err}");
        }
    }

    #[test]
    fn execute_streams_items_in_order_at_any_thread_count() {
        let spec = align_spec(3);
        let config = MachineConfig::default();
        let collect = |threads: usize, chunk: usize| {
            let runner = BatchRunner::new(threads);
            let pool = MachinePool::new(&config, runner.exec_mode());
            let mut frames = Vec::new();
            let summary = execute(&runner, &pool, &spec, chunk, &mut |f| frames.push(f));
            (frames, summary)
        };
        let (frames1, summary1) = collect(1, 2);
        let (frames4, summary4) = collect(4, 2);
        assert_eq!(frames1, frames4);
        assert_eq!(summary1, summary4);
        assert_eq!(summary1.ok, 3);
        assert_eq!(summary1.failed + summary1.rejected, 0);
        let items: Vec<usize> = frames1
            .iter()
            .filter_map(|f| match f {
                Response::Item { item, .. } => Some(*item),
                _ => None,
            })
            .collect();
        assert_eq!(items, vec![0, 1, 2]);
        assert!(matches!(frames1.last(), Some(Response::Done(_))));
    }

    #[test]
    fn frame_streams_are_chunk_size_invariant() {
        // Chunks are cut from item order alone and every item runs on a
        // cold machine, so a job streams the same frames in chunks of
        // one item, of five, and of the whole batch or more. The fault
        // window mixes runs, a runtime fault, warnings and rejections.
        let config = MachineConfig::default();
        let fault = JobSpec::Fault {
            seed: 4,
            cases: (0..24).collect(),
        };
        for spec in [align_spec(7), fault] {
            let frames = |chunk: usize| {
                let runner = BatchRunner::new(2);
                let pool = MachinePool::new(&config, runner.exec_mode());
                let mut frames = Vec::new();
                let summary = execute(&runner, &pool, &spec, chunk, &mut |f| frames.push(f));
                (frames, summary)
            };
            let (want, summary) = frames(1);
            assert_eq!(
                want.len(),
                spec.items() + 1,
                "one frame per item, then done"
            );
            assert_eq!(
                summary.ok + summary.failed + summary.rejected,
                summary.items
            );
            if let JobSpec::Fault { .. } = spec {
                assert!(summary.failed > 0 && summary.rejected > 0 && summary.warnings > 0);
            }
            for chunk in [5, spec.items(), spec.items() + 3] {
                assert_eq!(frames(chunk), (want.clone(), summary), "chunk {chunk}");
            }
        }
    }

    #[test]
    fn fault_jobs_reject_fatal_mutants_before_checkout() {
        // Two windows of sweep cases: some run, some fault, and —
        // crucially — statically fatal ones appear as admission
        // rejections, while warning-only verdicts are admitted (the
        // verifier's soundness contract covers only fatal findings).
        // The first window is all-fatal-or-bounded; the second holds a
        // `Warnings` verdict. The verdict tallies
        // `(bounded, clean, warnings, rejected)` are pinned exactly, so
        // a reclassification between classes cannot hide in the sum.
        let config = MachineConfig::default();
        let vconfig = quetzal::verify::VerifyConfig {
            latencies: quetzal::class_latencies(&config.core),
            ..quetzal::verify::VerifyConfig::default()
        };
        for (seed, verdicts) in [(0xF4417, (18, 0, 0, 6)), (3, (12, 0, 1, 11))] {
            let spec = JobSpec::Fault {
                seed,
                cases: (0..24).collect(),
            };
            let runner = BatchRunner::new(2);
            let pool = MachinePool::new(&config, ExecMode::Cycle);
            let mut frames = Vec::new();
            let summary = execute(&runner, &pool, &spec, 8, &mut |f| frames.push(f));
            assert_eq!(summary.items, 24);
            assert_eq!(
                summary.ok + summary.failed + summary.rejected,
                24,
                "every item is accounted for exactly once"
            );
            assert_eq!(
                (
                    summary.bounded,
                    summary.clean,
                    summary.warnings,
                    summary.rejected
                ),
                verdicts,
                "seed {seed:#x} verdict tallies"
            );
            // Per item: a `rejected` frame iff the mutant is fatal.
            let plan = FaultPlan::new(seed);
            let mut scratch = Machine::new(config.clone());
            let mut rejected_frames = 0;
            for frame in &frames {
                let (item, rejected) = match frame {
                    Response::Item { item, .. } => (*item, false),
                    Response::ItemFailed { item, cause, .. } => (*item, *cause == "rejected"),
                    _ => continue,
                };
                scratch.reset();
                let (program, _) = plan.stage(item as u64, &mut scratch);
                let verdict = quetzal::verify::verify_with(&program, &vconfig).verdict();
                assert_eq!(
                    rejected,
                    verdict == quetzal::verify::Verdict::Fatal,
                    "seed {seed:#x} case {item}: {verdict:?}"
                );
                rejected_frames += u64::from(rejected);
            }
            assert_eq!(rejected_frames, summary.rejected);
        }
    }
}
