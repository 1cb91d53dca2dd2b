//! Streaming, crash-safe ingestion: sharded batch execution with
//! durable per-shard checkpoints, resume, heartbeats, and
//! deadline-bounded shards.
//!
//! # Model
//!
//! [`run_ingest`] pulls items from a fallible streaming source (e.g.
//! the pair-file reader in `quetzal-genomics`) **one shard at a time**
//! — memory is bounded by the shard size, never the input size — and
//! runs each shard through the deterministic [`BatchRunner`] merge, so
//! the rendered output is bit-identical at every worker-thread count.
//! Sharding is a pure function of item order and
//! [`IngestConfig::shard_items`]; thread count never moves a shard
//! boundary.
//!
//! Each shard commits one file to the checkpoint directory (see
//! [`manifest`]): a manifest header and the shard's rendered output
//! lines, sealed by one checksum and written atomically — the rename is
//! the commit point. A run killed anywhere resumes from the last
//! committed shard: committed shards are validated (the file's checksum
//! over header and output, then the input checksum) and skipped;
//! anything torn or missing is re-run. The
//! resumed run's final output is byte-identical to an uninterrupted
//! run — the crash-injection tests pin exactly this.
//!
//! # Degradation
//!
//! Failures stay typed and local at two granularities: per *item*, the
//! pool's retry-once-on-a-fresh-machine boundary records a failure line
//! and keeps the shard going; per *shard*, an optional wall-clock
//! deadline or retired-instruction budget quarantines the remainder of
//! the shard — items past the overrun get typed `shard-deadline`
//! failure lines, the manifest records the quarantine cause, and the
//! run continues with the next shard.
//!
//! A shard's items run through [`BatchRunner::run_chunks`], the chunk
//! driver every long item list shares, and both deadlines are stops its
//! per-chunk callback returns. The instruction budget binds on the
//! item-ordered prefix sum of retired instructions: the item that
//! crosses it keeps its result and the rest of its chunk is dropped, so
//! it cuts at the same item on every host, thread count and chunk size.
//! The wall-clock deadline is checked after each chunk; it is inherently
//! nondeterministic and **off by default**.

pub mod manifest;

use crate::batch::{BatchError, BatchRunner, Stopped};
use crate::pool::MachinePool;
use crate::{Machine, SimError};
use manifest::{Fnv64, ManifestState, ShardFile, ShardManifest, ShardStatus};
use quetzal_trace::json::Value;
use std::fmt;
use std::io::{self, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One item's simulation result, as recorded in the shard output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemOutput {
    /// Algorithm result (score / filter verdict).
    pub value: i64,
    /// Simulated cycles the item cost.
    pub cycles: u64,
    /// Instructions the item retired.
    pub instructions: u64,
}

/// Where an injected crash fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// Immediately after shard `n`'s manifest committed (the durable
    /// state is exactly shards `0..=n`).
    ShardBoundary(u64),
    /// Mid-manifest-write of shard `n`: only a torn prefix of the shard
    /// file reached the disk (the adversarial non-atomic-write case —
    /// shard `n` must be re-run).
    MidManifest(u64),
}

impl fmt::Display for CrashSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashSite::ShardBoundary(n) => write!(f, "shard {n} boundary"),
            CrashSite::MidManifest(n) => write!(f, "mid-manifest-write of shard {n}"),
        }
    }
}

/// Crash-injection plan for the recovery tests and the CI smoke. The
/// default plan never fires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashPlan {
    /// Die right after this shard's manifest commits.
    pub after_shard: Option<u64>,
    /// Die mid-manifest-write of this shard, leaving a torn manifest.
    pub mid_manifest: Option<u64>,
    /// `true`: kill the whole process with exit code 137 (the binary /
    /// CI path — a real `SIGKILL`-like death). `false`: return the
    /// typed [`IngestError::CrashInjected`] instead (the in-process
    /// test path).
    pub exit_process: bool,
}

/// Per-shard execution bounds. Both default to unbounded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardDeadline {
    /// Wall-clock bound per shard, checked after every chunk: the
    /// chunks after an overrun are not run. **Nondeterministic** — a
    /// quarantine moves with host load — so off by default and
    /// documented as an operational safety valve, not a
    /// reproducibility feature.
    pub wall: Option<Duration>,
    /// Retired-instruction budget per shard, applied to each chunk's
    /// report in item order, on the prefix sum of retired instructions:
    /// the item whose count crosses the budget keeps its result and
    /// every later item is a `shard-deadline` line. Deterministic: the
    /// same input quarantines at the same item on every host, thread
    /// count and chunk size.
    pub instructions: Option<u64>,
}

/// Configuration of one ingestion run.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Checkpoint directory (created if missing). One file per shard
    /// lives here; resuming means pointing a second run at the same
    /// directory.
    pub checkpoint_dir: PathBuf,
    /// Items per shard — the checkpoint granularity *and* the memory
    /// bound (one shard of items is in memory at a time).
    pub shard_items: usize,
    /// Items per [`BatchRunner`] chunk within a shard; also the
    /// granularity of the deadline checks, and so the most work an
    /// overrun can waste.
    pub chunk_items: usize,
    /// Per-shard execution bounds.
    pub deadline: ShardDeadline,
    /// Minimum interval between heartbeat frames on stderr (`None`
    /// silences them).
    pub heartbeat: Option<Duration>,
    /// Total items expected, when the caller knows it (enables
    /// `done/total` and ETA in heartbeats; purely cosmetic).
    pub expected_items: Option<u64>,
    /// Re-run shards previously committed as quarantined instead of
    /// skipping them.
    pub retry_quarantined: bool,
    /// Crash injection (tests / CI only).
    pub crash: CrashPlan,
}

impl IngestConfig {
    /// Defaults: 256-item shards, 32-item chunks, no deadline, 2 s
    /// heartbeats.
    pub fn new(checkpoint_dir: impl Into<PathBuf>) -> IngestConfig {
        IngestConfig {
            checkpoint_dir: checkpoint_dir.into(),
            shard_items: 256,
            chunk_items: 32,
            deadline: ShardDeadline::default(),
            heartbeat: Some(Duration::from_secs(2)),
            expected_items: None,
            retry_quarantined: false,
            crash: CrashPlan::default(),
        }
    }
}

/// What one shard contributed, streamed to the observer as shards
/// complete (or validate, on resume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u64,
    /// Global index of the first item.
    pub start: u64,
    /// Items in the shard.
    pub count: u64,
    /// Items that produced a result.
    pub ok: u64,
    /// Items that failed (runtime failures plus quarantine-skipped).
    pub failed: u64,
    /// Items recovered by the fresh-machine retry.
    pub recovered: u64,
    /// Simulated cycles over healthy items.
    pub cycles: u64,
    /// Retired instructions over healthy items.
    pub instructions: u64,
    /// `true` when the shard was satisfied from a committed checkpoint
    /// instead of being executed.
    pub resumed: bool,
    /// Quarantine cause, when the shard hit its deadline / budget.
    pub quarantined: Option<String>,
    /// Checksum of the shard's output lines.
    pub output_fnv: u64,
}

impl ShardReport {
    /// The report of a committed shard: `m` is the manifest just
    /// written (`resumed` false) or validated on resume (`resumed`
    /// true).
    fn committed(m: &ShardManifest, resumed: bool) -> ShardReport {
        ShardReport {
            shard: m.shard,
            start: m.start,
            count: m.count,
            ok: m.ok,
            failed: m.failed,
            recovered: m.recovered,
            cycles: m.cycles,
            instructions: m.instructions,
            resumed,
            quarantined: match m.status {
                ShardStatus::Quarantined => Some(m.cause.clone()),
                ShardStatus::Done => None,
            },
            output_fnv: m.output_fnv,
        }
    }
}

/// Aggregate of one ingestion run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestSummary {
    /// Shards processed.
    pub shards: u64,
    /// Shards satisfied from committed checkpoints.
    pub shards_resumed: u64,
    /// Shards quarantined by a deadline / budget.
    pub shards_quarantined: u64,
    /// Torn or damaged shard files (header or output) detected, and
    /// re-run, during resume.
    pub manifests_torn: u64,
    /// Total items.
    pub items: u64,
    /// Items that produced a result.
    pub ok: u64,
    /// Items that failed.
    pub failed: u64,
    /// Items recovered by the fresh-machine retry.
    pub recovered: u64,
    /// Simulated cycles over healthy items.
    pub cycles: u64,
    /// Retired instructions over healthy items.
    pub instructions: u64,
}

/// A typed ingestion failure.
#[derive(Debug)]
pub enum IngestError {
    /// Filesystem failure on a checkpoint file.
    Io {
        /// What was being written / read.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// The streaming source yielded an error (I/O or parse) at `item`.
    Source {
        /// Global index of the offending item.
        item: u64,
        /// The source's error message.
        message: String,
    },
    /// A committed checkpoint disagrees with the current input — the
    /// checkpoint directory belongs to a different run.
    InputMismatch {
        /// The disagreeing shard.
        shard: u64,
        /// What differed.
        detail: String,
    },
    /// Simulation-infrastructure failure (a panic outside the per-item
    /// fault boundary).
    Infra(BatchError),
    /// An injected crash fired with [`CrashPlan::exit_process`] unset.
    CrashInjected(CrashSite),
    /// Concatenation found no committed, checksum-valid file for a
    /// shard.
    MissingShard {
        /// The uncommitted or damaged shard.
        shard: u64,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io { context, source } => write!(f, "{context}: {source}"),
            IngestError::Source { item, message } => {
                write!(f, "input source failed at item {item}: {message}")
            }
            IngestError::InputMismatch { shard, detail } => write!(
                f,
                "checkpoint shard {shard} does not match the input ({detail}); \
                 refusing to mix checkpoints from different runs"
            ),
            IngestError::Infra(e) => write!(f, "batch infrastructure failure: {e}"),
            IngestError::CrashInjected(site) => write!(f, "injected crash at {site}"),
            IngestError::MissingShard { shard } => {
                write!(f, "shard {shard} has no committed manifest")
            }
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io { source, .. } => Some(source),
            IngestError::Infra(e) => Some(e),
            _ => None,
        }
    }
}

fn io_err(context: impl Into<String>, source: io::Error) -> IngestError {
    IngestError::Io {
        context: context.into(),
        source,
    }
}

/// Appends an ok item's line, `{"cycles","instructions","item","value"}`
/// plus `recovered` when the fresh-machine retry saved it.
fn ok_line(lines: &mut String, item: u64, out: &ItemOutput, recovered: Option<&'static str>) {
    let fields = [
        ("item", Value::from(item)),
        ("value", Value::from(out.value)),
        ("cycles", Value::from(out.cycles)),
        ("instructions", Value::from(out.instructions)),
    ];
    let recovered = recovered.map(|kind| ("recovered", Value::from(kind)));
    Value::from_iter(fields.into_iter().chain(recovered)).dump_into(lines);
    lines.push('\n');
}

/// Appends a failed item's line, `{"cause","item","message"}`.
fn failed_line(lines: &mut String, item: u64, cause: &str, message: &str) {
    Value::from([
        ("item", Value::from(item)),
        ("cause", Value::from(cause)),
        ("message", Value::from(message)),
    ])
    .dump_into(lines);
    lines.push('\n');
}

/// Heartbeat state: wall-clock pacing of stderr progress frames.
struct Heartbeat {
    interval: Option<Duration>,
    started: Instant,
    last: Option<Instant>,
}

impl Heartbeat {
    fn new(interval: Option<Duration>) -> Heartbeat {
        Heartbeat {
            interval,
            started: Instant::now(),
            last: None,
        }
    }

    fn beat(
        &mut self,
        summary: &IngestSummary,
        config: &IngestConfig,
        pool: &MachinePool,
        force: bool,
    ) {
        let Some(interval) = self.interval else {
            return;
        };
        let now = Instant::now();
        if !force {
            if let Some(last) = self.last {
                if now.duration_since(last) < interval {
                    return;
                }
            }
        }
        self.last = Some(now);
        let elapsed = now.duration_since(self.started).as_secs_f64().max(1e-9);
        let rate = summary.items as f64 / elapsed;
        let total_shards = config.expected_items.map(|n| {
            let per = config.shard_items.max(1) as u64;
            n.div_ceil(per)
        });
        let shards = match total_shards {
            Some(total) => format!("{}/{}", summary.shards, total.max(summary.shards)),
            None => format!("{}/?", summary.shards),
        };
        let eta = match config.expected_items {
            Some(total) if rate > 0.0 && total > summary.items => {
                format!(", eta {:.0}s", (total - summary.items) as f64 / rate)
            }
            _ => String::new(),
        };
        let pool_stats = pool.stats();
        eprintln!(
            "[ingest] shards {shards} ({} resumed, {} quarantined, {} torn) | \
             items {} (ok {}, failed {}, recovered {}) | {rate:.1} items/s{eta} | \
             pool built {} quarantined {}",
            summary.shards_resumed,
            summary.shards_quarantined,
            summary.manifests_torn,
            summary.items,
            summary.ok,
            summary.failed,
            summary.recovered,
            pool_stats.built,
            pool_stats.quarantined,
        );
    }
}

fn crash(site: CrashSite, exit_process: bool) -> IngestError {
    if exit_process {
        eprintln!("[ingest] injected crash at {site}; dying with exit code 137");
        std::process::exit(137);
    }
    IngestError::CrashInjected(site)
}

/// Validates a committed manifest against the current input slice (its
/// output was already validated by the file's checksum). `Ok(true)`
/// means the checkpoint satisfies the shard; `Ok(false)` means re-run a
/// quarantined shard; `Err` means the checkpoint provably belongs to
/// different input.
fn checkpoint_satisfies(
    m: &ShardManifest,
    shard: u64,
    start: u64,
    count: u64,
    input_fnv: u64,
    retry_quarantined: bool,
) -> Result<bool, IngestError> {
    if m.start != start || m.count != count || m.input_fnv != input_fnv {
        return Err(IngestError::InputMismatch {
            shard,
            detail: format!(
                "manifest has start={} count={} input_fnv={:016x}, \
                 input stream has start={start} count={count} input_fnv={input_fnv:016x}",
                m.start, m.count, m.input_fnv
            ),
        });
    }
    Ok(m.status == ShardStatus::Done || !retry_quarantined)
}

/// Runs one shard's items through the pool, rendering one line per
/// item, honouring the shard deadline, and committing the shard file.
/// Returns the shard's report.
#[allow(clippy::too_many_arguments)]
fn run_shard<T: Sync>(
    config: &IngestConfig,
    runner: &BatchRunner,
    pool: &MachinePool,
    shard: u64,
    start: u64,
    items: &[T],
    input_fnv: u64,
    work: &(impl Fn(&mut Machine, u64, &T) -> Result<ItemOutput, SimError> + Sync),
) -> Result<ShardReport, IngestError> {
    let mut lines = String::new();
    let (mut ok, mut failed, mut recovered) = (0u64, 0u64, 0u64);
    let (mut cycles, mut instructions) = (0u64, 0u64);
    let shard_started = Instant::now();
    let stop = runner
        .run_chunks(
            pool,
            items,
            config.chunk_items,
            |_| true,
            |m, i, item| work(m, start + i as u64, item),
            |base, report| {
                for (local, (slot, failure)) in report.slots().enumerate() {
                    let item = start + (base + local) as u64;
                    match slot {
                        Some(out) => {
                            ok += 1;
                            cycles += out.cycles;
                            instructions += out.instructions;
                            let kind = failure.map(|f| {
                                recovered += 1;
                                f.cause.kind()
                            });
                            ok_line(&mut lines, item, out, kind);
                        }
                        None => {
                            let failure = failure.expect("resultless item has a failure entry");
                            failed += 1;
                            let cause = &failure.cause;
                            failed_line(&mut lines, item, cause.kind(), &cause.to_string());
                        }
                    }
                    // The rest of this chunk ran, but its results are
                    // dropped: the prefix sum in item order is the same
                    // at any thread count or chunk size.
                    if let Some(budget) = config.deadline.instructions.filter(|&b| instructions > b) {
                        let done = base + local + 1;
                        return ControlFlow::Break(format!(
                            "instruction budget {budget} exceeded ({instructions} retired after {done} item(s))"
                        ));
                    }
                }
                match config.deadline.wall.map(|wall| (wall, shard_started.elapsed())) {
                    Some((wall, elapsed)) if elapsed > wall => ControlFlow::Break(format!(
                        "wall deadline {}ms exceeded ({}ms elapsed after {} item(s))",
                        wall.as_millis(),
                        elapsed.as_millis(),
                        base + report.results.len()
                    )),
                    _ => ControlFlow::Continue(()),
                }
            },
        )
        .map_err(IngestError::Infra)?;
    let (status, cause) = match stop {
        ControlFlow::Break(Stopped { reason, .. }) => {
            // Every item from the first one without a line to the end of
            // the shard was cut off by the stop.
            for item in start + ok + failed..start + items.len() as u64 {
                failed_line(&mut lines, item, "shard-deadline", &reason);
                failed += 1;
            }
            (ShardStatus::Quarantined, reason)
        }
        ControlFlow::Continue(()) => (ShardStatus::Done, String::new()),
    };
    let output = lines.into_bytes();
    let manifest = ShardManifest {
        shard,
        start,
        count: items.len() as u64,
        input_fnv,
        status,
        cause,
        ok,
        failed,
        recovered,
        cycles,
        instructions,
        output_len: output.len() as u64,
        output_fnv: manifest::fnv64(&output),
    };
    let file = ShardFile { manifest, output };
    if config.crash.mid_manifest == Some(shard) {
        // Adversarial non-atomic write: a torn prefix lands on the
        // *final* shard path, then the process dies.
        let enc = file.encode();
        let path = manifest::shard_path(&config.checkpoint_dir, shard);
        std::fs::write(&path, &enc[..enc.len() / 2])
            .map_err(|e| io_err(format!("writing torn {}", path.display()), e))?;
        return Err(crash(
            CrashSite::MidManifest(shard),
            config.crash.exit_process,
        ));
    }
    manifest::store(&config.checkpoint_dir, &file)
        .map_err(|e| io_err(format!("committing shard {shard}"), e))?;
    Ok(ShardReport::committed(&file.manifest, false))
}

/// Runs (or resumes) one ingestion: streams items from `source`,
/// executes them shard by shard over `pool`, commits a durable
/// checkpoint per shard, and reports progress.
///
/// `digest` must be a pure function of the item's content — it feeds
/// the per-shard input checksum that protects a checkpoint directory
/// from being resumed against different input. `work` is the per-item
/// simulation; `observe` sees every shard's report in shard order
/// (resumed shards included).
///
/// After a clean return, [`concat_output`] (or [`concat_to_path`])
/// assembles the final report from the shard files.
///
/// # Errors
///
/// Returns a typed [`IngestError`] for source failures, checkpoint I/O
/// failures, input/checkpoint mismatches, infrastructure panics, and
/// in-process injected crashes. Per-item and per-shard-deadline
/// failures are *not* errors — they degrade into failure lines and
/// quarantined shards, and the run keeps going.
pub fn run_ingest<T, E>(
    config: &IngestConfig,
    runner: &BatchRunner,
    pool: &MachinePool,
    source: impl IntoIterator<Item = Result<T, E>>,
    digest: impl Fn(&T) -> u64,
    work: impl Fn(&mut Machine, u64, &T) -> Result<ItemOutput, SimError> + Sync,
    mut observe: impl FnMut(&ShardReport),
) -> Result<IngestSummary, IngestError>
where
    T: Sync,
    E: fmt::Display,
{
    std::fs::create_dir_all(&config.checkpoint_dir).map_err(|e| {
        io_err(
            format!(
                "creating checkpoint dir {}",
                config.checkpoint_dir.display()
            ),
            e,
        )
    })?;
    let shard_items = config.shard_items.max(1);
    let mut source = source.into_iter();
    let mut summary = IngestSummary::default();
    let mut heartbeat = Heartbeat::new(config.heartbeat);
    let mut shard = 0u64;
    let mut start = 0u64;
    let mut items: Vec<T> = Vec::with_capacity(shard_items);
    loop {
        items.clear();
        while items.len() < shard_items {
            match source.next() {
                None => break,
                Some(Ok(item)) => items.push(item),
                Some(Err(e)) => {
                    return Err(IngestError::Source {
                        item: start + items.len() as u64,
                        message: e.to_string(),
                    })
                }
            }
        }
        if items.is_empty() {
            break;
        }
        let mut input_hash = Fnv64::new();
        for item in &items {
            input_hash.update(&digest(item).to_le_bytes());
        }
        let input_fnv = input_hash.digest();
        let count = items.len() as u64;
        let state = manifest::load(&config.checkpoint_dir, shard);
        if let ManifestState::Torn(fault) = &state {
            summary.manifests_torn += 1;
            eprintln!("[ingest] shard {shard}: torn manifest detected ({fault}); re-running");
        }
        let report = match state {
            ManifestState::Committed(f)
                if checkpoint_satisfies(
                    &f.manifest,
                    shard,
                    start,
                    count,
                    input_fnv,
                    config.retry_quarantined,
                )? =>
            {
                ShardReport::committed(&f.manifest, true)
            }
            _ => run_shard(config, runner, pool, shard, start, &items, input_fnv, &work)?,
        };
        summary.shards += 1;
        summary.items += report.count;
        summary.ok += report.ok;
        summary.failed += report.failed;
        summary.recovered += report.recovered;
        summary.cycles += report.cycles;
        summary.instructions += report.instructions;
        if report.resumed {
            summary.shards_resumed += 1;
        }
        if report.quarantined.is_some() {
            summary.shards_quarantined += 1;
        }
        observe(&report);
        heartbeat.beat(&summary, config, pool, false);
        if config.crash.after_shard == Some(shard) {
            return Err(crash(
                CrashSite::ShardBoundary(shard),
                config.crash.exit_process,
            ));
        }
        shard += 1;
        start += count;
    }
    heartbeat.beat(&summary, config, pool, true);
    Ok(summary)
}

/// The canonical content digest of one sequence pair, feeding the
/// per-shard input checksum. Every ingestion front-end (`qzingest`,
/// the `qzserved` ingest job) uses this same digest, so a checkpoint
/// directory written by one can be resumed by the other.
pub fn pair_digest(pair: &crate::genomics::dataset::SeqPair) -> u64 {
    let mut h = Fnv64::new();
    h.update(pair.pattern.as_bytes());
    h.update(&[0xff]);
    h.update(pair.text.as_bytes());
    h.digest()
}

/// Streams the final report — the ordered concatenation of every
/// shard's committed output — into `out`. Each shard file is read once;
/// its checksum covers the output. Returns the byte count.
///
/// # Errors
///
/// Returns [`IngestError::MissingShard`] for a shard with no committed,
/// checksum-valid file, and [`IngestError::Io`] when `out` fails.
pub fn concat_output(dir: &Path, shards: u64, out: &mut dyn Write) -> Result<u64, IngestError> {
    let mut total = 0u64;
    for shard in 0..shards {
        let ManifestState::Committed(file) = manifest::load(dir, shard) else {
            return Err(IngestError::MissingShard { shard });
        };
        out.write_all(&file.output)
            .map_err(|e| io_err("writing concatenated output", e))?;
        total += file.output.len() as u64;
    }
    Ok(total)
}

/// [`concat_output`] to a file, as durably as a shard commit (temp
/// write, fsync, rename, directory fsync); a failed assembly leaves no
/// temp file behind.
///
/// # Errors
///
/// Propagates [`concat_output`] errors and file I/O failures.
pub fn concat_to_path(dir: &Path, shards: u64, path: &Path) -> Result<u64, IngestError> {
    manifest::write_atomic(
        path,
        |f| concat_output(dir, shards, f),
        |e| io_err(format!("writing {}", path.display()), e),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecMode, MachineConfig};
    use quetzal_isa::{ProgramBuilder, X0};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qz-ingest-unit-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Tiny deterministic work item: value = item * 3 via one mov_imm.
    fn tiny_work(m: &mut Machine, _g: u64, item: &u64) -> Result<ItemOutput, SimError> {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, (*item as i64) * 3);
        b.halt();
        let program = b.build().expect("tiny program builds");
        let stats = m.run(&program)?;
        Ok(ItemOutput {
            value: m.core().state().x(X0) as i64,
            cycles: stats.cycles,
            instructions: stats.instructions,
        })
    }

    fn run(
        dir: &Path,
        items: u64,
        threads: usize,
        crash: CrashPlan,
    ) -> Result<IngestSummary, IngestError> {
        let config = IngestConfig {
            shard_items: 4,
            chunk_items: 2,
            heartbeat: None,
            crash,
            ..IngestConfig::new(dir)
        };
        let runner = BatchRunner::new(threads);
        let pool = MachinePool::new(&MachineConfig::default(), ExecMode::Cycle);
        let source = (0..items).map(Ok::<u64, std::convert::Infallible>);
        run_ingest(&config, &runner, &pool, source, |i| *i, tiny_work, |_| {})
    }

    fn concat_string(dir: &Path, shards: u64) -> String {
        let mut buf = Vec::new();
        concat_output(dir, shards, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn is_deadline_line(line: &Value) -> bool {
        line.get("cause").and_then(Value::as_str) == Some("shard-deadline")
    }

    #[test]
    fn clean_run_renders_every_item_in_order() {
        let dir = tmp_dir("clean");
        let summary = run(&dir, 10, 2, CrashPlan::default()).unwrap();
        assert_eq!(summary.shards, 3);
        assert_eq!((summary.items, summary.ok, summary.failed), (10, 10, 0));
        let text = concat_string(&dir, summary.shards);
        let lines: Vec<Value> = text.lines().map(|l| Value::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 10);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line.get("item").and_then(Value::as_u64), Some(i as u64));
            assert_eq!(
                line.get("value").and_then(Value::as_i64),
                Some(3 * i as i64)
            );
            assert!(line.get("cycles").and_then(Value::as_u64).unwrap() > 0);
            assert!(line.get("cause").is_none());
        }
        // One file per shard: no separate output file, no temp file.
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        names.sort();
        let expected: Vec<_> = (0..summary.shards)
            .map(|s| manifest::shard_path(&dir, s))
            .collect();
        assert_eq!(names, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_assembly_leaves_no_temp_file() {
        let dir = tmp_dir("concat-fail");
        let summary = run(&dir, 10, 1, CrashPlan::default()).unwrap();
        let report_dir = tmp_dir("concat-fail-report");
        std::fs::create_dir_all(&report_dir).unwrap();
        let report = report_dir.join("report.txt");
        let err = concat_to_path(&dir, summary.shards + 1, &report).unwrap_err();
        assert!(matches!(err, IngestError::MissingShard { shard: 3 }));
        assert_eq!(
            std::fs::read_dir(&report_dir).unwrap().count(),
            0,
            "neither the report nor its temp file is left behind"
        );
        concat_to_path(&dir, summary.shards, &report).unwrap();
        assert_eq!(
            std::fs::read_to_string(&report).unwrap(),
            concat_string(&dir, summary.shards)
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&report_dir).unwrap();
    }

    #[test]
    fn crash_then_resume_is_byte_identical() {
        let fresh = tmp_dir("fresh");
        let fresh_summary = run(&fresh, 10, 1, CrashPlan::default()).unwrap();
        let baseline = concat_string(&fresh, fresh_summary.shards);

        let crashed = tmp_dir("crashed");
        let err = run(
            &crashed,
            10,
            1,
            CrashPlan {
                after_shard: Some(1),
                ..CrashPlan::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            IngestError::CrashInjected(CrashSite::ShardBoundary(1))
        ));
        let resumed = run(&crashed, 10, 4, CrashPlan::default()).unwrap();
        assert_eq!(resumed.shards_resumed, 2, "shards 0 and 1 were committed");
        assert_eq!(concat_string(&crashed, resumed.shards), baseline);
        std::fs::remove_dir_all(&fresh).unwrap();
        std::fs::remove_dir_all(&crashed).unwrap();
    }

    #[test]
    fn mid_manifest_crash_leaves_torn_state_and_recovers() {
        let fresh = tmp_dir("mm-fresh");
        let fresh_summary = run(&fresh, 10, 1, CrashPlan::default()).unwrap();
        let baseline = concat_string(&fresh, fresh_summary.shards);

        let crashed = tmp_dir("mm-crashed");
        let err = run(
            &crashed,
            10,
            1,
            CrashPlan {
                mid_manifest: Some(1),
                ..CrashPlan::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            IngestError::CrashInjected(CrashSite::MidManifest(1))
        ));
        assert!(
            matches!(manifest::load(&crashed, 1), ManifestState::Torn(_)),
            "the torn manifest is on disk"
        );
        let resumed = run(&crashed, 10, 2, CrashPlan::default()).unwrap();
        assert_eq!(resumed.shards_resumed, 1, "only shard 0 was committed");
        assert_eq!(resumed.manifests_torn, 1, "the torn manifest was counted");
        assert_eq!(concat_string(&crashed, resumed.shards), baseline);
        std::fs::remove_dir_all(&fresh).unwrap();
        std::fs::remove_dir_all(&crashed).unwrap();
    }

    #[test]
    fn input_mismatch_is_refused() {
        let dir = tmp_dir("mismatch");
        run(&dir, 10, 1, CrashPlan::default()).unwrap();
        let config = IngestConfig {
            shard_items: 4,
            chunk_items: 2,
            heartbeat: None,
            ..IngestConfig::new(&dir)
        };
        let runner = BatchRunner::new(1);
        let pool = MachinePool::new(&MachineConfig::default(), ExecMode::Cycle);
        // Same shape, different content: digest disagrees.
        let source = (100..110).map(Ok::<u64, std::convert::Infallible>);
        let err =
            run_ingest(&config, &runner, &pool, source, |i| *i, tiny_work, |_| {}).unwrap_err();
        assert!(matches!(err, IngestError::InputMismatch { shard: 0, .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn instruction_budget_quarantines_the_shard_not_the_run() {
        let dir = tmp_dir("budget");
        let config = IngestConfig {
            shard_items: 4,
            chunk_items: 1,
            deadline: ShardDeadline {
                wall: None,
                instructions: Some(1),
            },
            heartbeat: None,
            ..IngestConfig::new(&dir)
        };
        let runner = BatchRunner::new(1);
        let pool = MachinePool::new(&MachineConfig::default(), ExecMode::Cycle);
        let source = (0..6).map(Ok::<u64, std::convert::Infallible>);
        let mut reports = Vec::new();
        let summary = run_ingest(
            &config,
            &runner,
            &pool,
            source,
            |i| *i,
            tiny_work,
            |r| reports.push(r.clone()),
        )
        .unwrap();
        assert_eq!(summary.shards, 2);
        assert_eq!(summary.shards_quarantined, 2, "both shards exceed 1 inst");
        assert!(summary.failed > 0, "unrun items are recorded as failures");
        assert!(summary.ok > 0, "items before the budget still ran");
        let text = concat_string(&dir, summary.shards);
        assert!(text
            .lines()
            .any(|l| is_deadline_line(&Value::parse(l).unwrap())));
        assert_eq!(
            text.lines().count(),
            6,
            "every item is accounted for exactly once"
        );
        // Quarantined shards are skipped on resume by default...
        let resumed = run_ingest(
            &config,
            &runner,
            &pool,
            (0..6).map(Ok::<u64, std::convert::Infallible>),
            |i| *i,
            tiny_work,
            |_| {},
        )
        .unwrap();
        assert_eq!(resumed.shards_resumed, 2);
        // ...and re-run when asked to retry them.
        let retry_config = IngestConfig {
            retry_quarantined: true,
            deadline: ShardDeadline::default(),
            ..config
        };
        let retried = run_ingest(
            &retry_config,
            &runner,
            &pool,
            (0..6).map(Ok::<u64, std::convert::Infallible>),
            |i| *i,
            tiny_work,
            |_| {},
        )
        .unwrap();
        assert_eq!(retried.shards_resumed, 0);
        assert_eq!(retried.shards_quarantined, 0);
        assert_eq!((retried.ok, retried.failed), (6, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn instruction_budget_binds_inside_a_single_chunk() {
        // Each shard fits in one chunk, so no chunk boundary ever falls
        // inside a shard: the budget must bind after the chunk runs.
        // Shard 1 holds one item, so its overrun is in its last item.
        let mut outputs = Vec::new();
        for threads in [1, 4] {
            let dir = tmp_dir(&format!("budget-one-chunk-{threads}"));
            let config = IngestConfig {
                shard_items: 4,
                chunk_items: 32,
                deadline: ShardDeadline {
                    wall: None,
                    instructions: Some(1),
                },
                heartbeat: None,
                ..IngestConfig::new(&dir)
            };
            let runner = BatchRunner::new(threads);
            let pool = MachinePool::new(&MachineConfig::default(), ExecMode::Cycle);
            let mut reports = Vec::new();
            let summary = run_ingest(
                &config,
                &runner,
                &pool,
                (0..5).map(Ok::<u64, std::convert::Infallible>),
                |i| *i,
                tiny_work,
                |r| reports.push(r.clone()),
            )
            .unwrap();
            assert_eq!(summary.shards_quarantined, 2, "threads={threads}");
            assert!(reports.iter().all(|r| r.quarantined.is_some()));
            // The item that crosses the budget keeps its result; every
            // later item in the shard is a deadline line.
            assert_eq!((summary.ok, summary.failed), (2, 3), "threads={threads}");
            let text = concat_string(&dir, summary.shards);
            let deadline: Vec<_> = text
                .lines()
                .map(|l| Value::parse(l).unwrap())
                .filter(is_deadline_line)
                .collect();
            assert_eq!(deadline.len(), 3);
            assert!(deadline
                .iter()
                .all(|l| l.get("item").and_then(Value::as_u64) != Some(0)));
            outputs.push(text);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert_eq!(outputs[0], outputs[1], "same output at 1 and 4 threads");
    }

    #[test]
    fn source_errors_are_typed_with_the_item_index() {
        let dir = tmp_dir("source-err");
        let config = IngestConfig {
            shard_items: 4,
            heartbeat: None,
            ..IngestConfig::new(&dir)
        };
        let runner = BatchRunner::new(1);
        let pool = MachinePool::new(&MachineConfig::default(), ExecMode::Cycle);
        let source = (0..7).map(|i| {
            if i == 5 {
                Err("bad record".to_string())
            } else {
                Ok(i)
            }
        });
        let err =
            run_ingest(&config, &runner, &pool, source, |i| *i, tiny_work, |_| {}).unwrap_err();
        match err {
            IngestError::Source { item, message } => {
                assert_eq!(item, 5);
                assert!(message.contains("bad record"));
            }
            other => panic!("expected Source error, got {other}"),
        }
        // The first full shard still committed before the error.
        assert!(matches!(
            manifest::load(&dir, 0),
            ManifestState::Committed(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
