//! `ingest-resume`: one op is a full crash-and-resume cycle of
//! checkpointed ingestion on a fresh checkpoint directory — a run that
//! dies mid-manifest-write of its middle shard, a resume to completion,
//! and the assembled report.

use crate::calib::Clock;
use crate::inputs::{self, PairClass};
use crate::report::{self, Outcome};
use crate::trace::{self, Trace};
use quetzal::ingest::{concat_output, pair_digest, run_ingest};
use quetzal::uarch::RunStats;
use quetzal::{
    BatchRunner, CrashPlan, CrashSite, ExecMode, IngestConfig, IngestError, IngestSummary,
    ItemOutput, MachineConfig, MachinePool,
};
use quetzal_algos::Tier;
use quetzal_bench::workloads::{try_simulate_pair_outcome, Algo};
use quetzal_genomics::dataset::{DatasetSpec, SeqPair};
use quetzal_genomics::fasta::PairReader;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Pairs in the staged pair file.
const PAIRS: usize = 1024;
/// Items per shard: the checkpoint granularity. Sixteen shards make an
/// op of 32 shard commits and 8 validations. With 16 items a shard, an
/// op took about 22 ms, and a single slow file sync moved the latency
/// tail by up to half; with 64, simulation is most of an op, and the
/// commits still a fifth of it.
const SHARD_ITEMS: usize = 64;
/// Items per `BatchRunner` chunk within a shard.
const CHUNK_ITEMS: usize = 8;
/// Untimed ops at set-up: the warm-up that settles the allocator and
/// the file system's caches.
const WARM_OPS: usize = 8;
/// The shard whose manifest write the first run dies in.
const CRASH_SHARD: u64 = (PAIRS / SHARD_ITEMS / 2) as u64;

/// A set-up ingestion workload.
pub struct Ingest {
    input: PathBuf,
    root: PathBuf,
    class: PairClass,
    pool: MachinePool,
    runner: BatchRunner,
    /// The uninterrupted run's assembled report.
    reference: Vec<u8>,
    /// Exact simulated counts of the uninterrupted run.
    sim: RunStats,
    ops: usize,
    /// Each op's time (ms at reference speed) in the last measure.
    samples: Vec<f64>,
    /// Tallies of the last op's resume: (shards, resumed, torn).
    last: (u64, u64, u64),
}

/// The pair-file source, timing each `next()` as the genomics layer.
struct Timed<'t, I> {
    inner: I,
    trace: &'t Trace,
}

impl<I: Iterator> Iterator for Timed<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let t = self.trace.start();
        let item = self.inner.next();
        self.trace.add_since("parse_ns", t);
        item
    }
}

impl Ingest {
    /// Stages the pair file, runs the uninterrupted reference ingestion
    /// and one untimed warm-up op.
    pub fn setup(seed: u64, dir: &Path) -> Ingest {
        let class = inputs::generate(&DatasetSpec::d100(), seed, PAIRS, usize::MAX);
        let input = dir.join("ingest.pairs");
        inputs::write_pair_file(&input, &class.pairs).expect("staging the pair file");
        let root = dir.join("checkpoints");
        let _ = std::fs::remove_dir_all(&root);
        let mut w = Ingest {
            input,
            root,
            class,
            pool: MachinePool::new(&MachineConfig::default(), ExecMode::Functional),
            runner: BatchRunner::new(1).with_exec_mode(ExecMode::Functional),
            reference: Vec::new(),
            sim: RunStats::default(),
            ops: 0,
            samples: Vec::new(),
            last: (0, 0, 0),
        };
        let off = Trace::new(false);
        let dir = w.root.join("reference");
        let summary = w
            .ingest(&dir, CrashPlan::default(), &off)
            .expect("reference ingestion");
        concat_output(&dir, summary.shards, &mut w.reference).expect("reference report");
        w.sim.instructions = summary.instructions;
        w.sim.cycles = summary.cycles;
        let _ = std::fs::remove_dir_all(&dir);
        for _ in 0..WARM_OPS {
            w.op(&off).expect("warm-up op");
        }
        w
    }

    fn config(&self, dir: &Path, crash: CrashPlan) -> IngestConfig {
        IngestConfig {
            shard_items: SHARD_ITEMS,
            chunk_items: CHUNK_ITEMS,
            heartbeat: None,
            crash,
            ..IngestConfig::new(dir)
        }
    }

    /// One `run_ingest` over the staged pair file into `dir`.
    fn ingest(
        &self,
        dir: &Path,
        crash: CrashPlan,
        trace: &Trace,
    ) -> Result<IngestSummary, IngestError> {
        let file = std::fs::File::open(&self.input).map_err(|e| IngestError::Io {
            context: "opening the pair file".into(),
            source: e,
        })?;
        let source: Timed<'_, PairReader<_>> = Timed {
            inner: PairReader::new(BufReader::new(file), self.class.alphabet),
            trace,
        };
        let threshold = self.class.ss_threshold;
        let alphabet = self.class.alphabet;
        let start = trace.start();
        let mut last = start;
        let mut parse_seen = trace.get("parse_ns");
        let result = run_ingest(
            &self.config(dir, crash),
            &self.runner,
            &self.pool,
            source,
            pair_digest,
            |m, _g, pair: &SeqPair| {
                let t = trace.start();
                if t.is_some() {
                    trace::mark_stage_start();
                }
                let out = try_simulate_pair_outcome(
                    m,
                    Algo::Ss,
                    alphabet,
                    threshold,
                    pair,
                    Tier::QuetzalC,
                );
                if let Some(t) = t {
                    let end = Instant::now();
                    let built = trace::take_first_build().unwrap_or(t);
                    trace.add("work_ns", (end - t).as_nanos() as f64);
                    trace.add("stage_ns", (built - t).as_nanos() as f64);
                    trace.add("exec_ns", (end - built).as_nanos() as f64);
                    if let Ok(o) = &out {
                        trace.add("insts", o.stats.instructions as f64);
                    }
                }
                out.map(|o| ItemOutput {
                    value: o.value,
                    cycles: o.stats.cycles,
                    instructions: o.stats.instructions,
                })
            },
            |report| {
                if let Some(prev) = last {
                    // A resumed shard's interval is its validation plus
                    // reading its items from the pair file.
                    let now = Instant::now();
                    let parse = trace.get("parse_ns");
                    if report.resumed {
                        let ns = (now - prev).as_nanos() as f64 - (parse - parse_seen);
                        trace.add("validate_ns", ns);
                    }
                    parse_seen = parse;
                    last = Some(now);
                }
            },
        );
        if start.is_some() {
            // Whatever the shards' parse, work and validation leave of
            // the call is the commit path: output and manifest writes,
            // fsyncs and renames (and the torn write of a crash run).
            trace.add_since("ingest_ns", start);
        }
        result
    }

    /// Pairs per second at the median op.
    fn throughput(&self) -> f64 {
        PAIRS as f64 / (report::median(&self.samples) / 1e3)
    }

    /// One op: crash mid-manifest, resume, assemble, compare.
    fn op(&mut self, trace: &Trace) -> Result<(), String> {
        self.ops += 1;
        let dir = self.root.join(format!("op-{}", self.ops));
        let crash = CrashPlan {
            mid_manifest: Some(CRASH_SHARD),
            ..CrashPlan::default()
        };
        match self.ingest(&dir, crash, trace) {
            Err(IngestError::CrashInjected(CrashSite::MidManifest(s))) if s == CRASH_SHARD => {}
            other => return Err(format!("crash run ended with {other:?}")),
        }
        let summary = self
            .ingest(&dir, CrashPlan::default(), trace)
            .map_err(|e| e.to_string())?;
        let t = trace.start();
        let mut bytes = Vec::with_capacity(self.reference.len());
        concat_output(&dir, summary.shards, &mut bytes).map_err(|e| e.to_string())?;
        trace.add_since("concat_ns", t);
        self.last = (
            summary.shards,
            summary.shards_resumed,
            summary.manifests_torn,
        );
        let t = trace.start();
        let ok = bytes == self.reference
            && summary.shards_resumed == CRASH_SHARD
            && summary.manifests_torn == 1;
        trace.add_since("check_ns", t);
        let t = trace.start();
        let _ = std::fs::remove_dir_all(&dir);
        trace.add_since("cleanup_ns", t);
        if ok {
            Ok(())
        } else {
            Err("resumed report differs from the uninterrupted run".into())
        }
    }
}

impl crate::Workload for Ingest {
    fn checks_ok(&self) -> bool {
        !self.reference.is_empty()
    }

    fn measure(
        &mut self,
        seconds: f64,
        trace: &Trace,
        clock: &mut Clock,
        out: &mut Outcome,
    ) -> f64 {
        let mut samples = Vec::new();
        let start = Instant::now();
        while samples.len() < crate::MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            let (result, stamp) = clock.op(|| self.op(trace));
            samples.push(stamp);
            out.attempted += 1;
            if let Err(e) = result {
                eprintln!("ingest-resume op {}: {e}", self.ops);
                out.failed += 1;
            }
        }
        trace.add("ops", samples.len() as f64);
        trace.add("wall_ns", start.elapsed().as_nanos() as f64);
        self.samples = samples.iter().map(|x| clock.ms(x)).collect();
        self.throughput()
    }

    fn end_to_end(&self, out: &mut Outcome) {
        out.push("throughput", self.throughput(), "1/s");
        report::push_latency(out, "latency", &self.samples);
    }

    fn per_layer(&self, trace: &Trace, _clock: &mut Clock, layers: &mut crate::Layers) {
        let ops = trace.get("ops").max(1.0);
        let per_op_ms = |k: &str| trace.get(k) / ops / 1e6;
        let (parse, work, validate) = (
            trace.get("parse_ns"),
            trace.get("work_ns"),
            trace.get("validate_ns"),
        );
        let commit = trace.get("ingest_ns") - parse - work - validate;
        layers.set("genomics.parse_ms", per_op_ms("parse_ns"));
        layers.set("ingest.work_ms", per_op_ms("work_ns"));
        layers.set("ingest.commit_ms", commit / ops / 1e6);
        layers.set("ingest.validate_ms", per_op_ms("validate_ns"));
        layers.set("ingest.concat_ms", per_op_ms("concat_ns"));
        let (shards, resumed, torn) = self.last;
        layers.set("ingest.shards", shards as f64);
        layers.set("ingest.shards_resumed", resumed as f64);
        layers.set("ingest.manifests_torn", torn as f64);
        let exec = trace.get("exec_ns");
        let mips = if exec > 0.0 {
            trace.get("insts") / exec * 1e3
        } else {
            0.0
        };
        layers.set("uarch.functional.exec_ms", per_op_ms("exec_ns"));
        layers.set("uarch.functional.sim_mips", mips);
        layers.set("uarch.functional.sim_mips.quetzal_c", mips);
        layers.set("algos.stage_ms", per_op_ms("stage_ns"));
        let stats = self.pool.stats();
        layers.set("pool.built", stats.built as f64);
        layers.set("pool.quarantined", stats.quarantined as f64);
        layers.sim(&self.sim);
        let attributed = ["ingest_ns", "concat_ns", "check_ns", "cleanup_ns"]
            .iter()
            .map(|k| trace.get(k))
            .sum();
        layers.account(trace.get("wall_ns"), attributed, ops);
    }
}
