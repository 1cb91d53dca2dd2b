//! `kernels-cycle` and `kernels-functional`: WFA, BiWFA and SneakySnake
//! at all four tiers over short and trimmed long read pairs, one
//! reused `MachinePool`, single-threaded `BatchRunner`.

use crate::calib::Clock;
use crate::inputs::{self, PairClass, LONG_READ_TRIM};
use crate::report::{self, Outcome};
use crate::trace::{self, Trace};
use quetzal::uarch::RunStats;
use quetzal::{BatchRunner, ExecMode, MachineConfig, MachinePool};
use quetzal_algos::biwfa::biwfa_edit_align;
use quetzal_algos::sneakysnake::ss_filter;
use quetzal_algos::wfa::wfa_edit_distance;
use quetzal_algos::Tier;
use quetzal_bench::workloads::{try_simulate_pair_outcome, Algo};
use quetzal_genomics::dataset::{DatasetSpec, SeqPair};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Every kernel one op runs its pair through: the three modern
/// algorithms at the four paper tiers.
pub const KERNELS: [(Algo, Tier); 12] = [
    (Algo::Wfa, Tier::Base),
    (Algo::Wfa, Tier::Vec),
    (Algo::Wfa, Tier::Quetzal),
    (Algo::Wfa, Tier::QuetzalC),
    (Algo::BiWfa, Tier::Base),
    (Algo::BiWfa, Tier::Vec),
    (Algo::BiWfa, Tier::Quetzal),
    (Algo::BiWfa, Tier::QuetzalC),
    (Algo::Ss, Tier::Base),
    (Algo::Ss, Tier::Vec),
    (Algo::Ss, Tier::Quetzal),
    (Algo::Ss, Tier::QuetzalC),
];

/// Pairs per class: `100bp_1`, `250bp_1`, trimmed `10Kbp`. The short
/// classes are large enough that the latency median falls well inside
/// the `250bp_1` class, away from a class boundary.
const CLASS_SIZES: [usize; 3] = [32, 64, 16];

/// Long-read candidates drawn per long pair kept (see [`typical`]).
const LONG_CANDIDATES: usize = 4;

/// One kernel's result on one pair: (value, retired instructions).
type KernelResult = (i64, u64);

/// A set-up kernel workload.
pub struct Kernels {
    mode: ExecMode,
    classes: Vec<PairClass>,
    pool: MachinePool,
    runner: BatchRunner,
    /// Per pair (class-major order), per kernel: the warm-up result.
    reference: Vec<Vec<KernelResult>>,
    /// Exact simulated counts of the warm-up pass.
    sim: RunStats,
    /// Whether the warm-up pass matched the host reference algorithms.
    host_ok: bool,
    /// Each pair's latency samples (ms at reference speed) from the
    /// last measure.
    samples: Vec<Vec<f64>>,
}

/// The workload's seeded input classes, staged through pair files.
pub fn inputs(seed: u64, dir: &Path) -> Vec<PairClass> {
    let [short, medium, long] = CLASS_SIZES;
    [
        inputs::generate(&DatasetSpec::d100(), seed, short, usize::MAX),
        inputs::generate(&DatasetSpec::d250(), seed, medium, usize::MAX),
        typical(
            inputs::generate(
                &DatasetSpec::d10k(),
                seed,
                long * LONG_CANDIDATES,
                LONG_READ_TRIM,
            ),
            long,
        ),
    ]
    .into_iter()
    .map(|class| inputs::stage(class, dir))
    .collect()
}

/// Keeps the `n` pairs of `class` whose edit distance lies nearest the
/// class median, in their drawn order.
///
/// A kernel's cost grows with the edit distance, and the long pairs
/// dominate the workload's host time and its latency tail. Drawn
/// freely, sixteen of them moved throughput and tail by 10-16% from
/// one seed to the next; kept near the median, a seed changes the
/// sequences but hardly the work.
fn typical(mut class: PairClass, n: usize) -> PairClass {
    let distance: Vec<i64> = class
        .pairs
        .iter()
        .map(|p| i64::from(wfa_edit_distance(p.pattern.as_bytes(), p.text.as_bytes())))
        .collect();
    let median = report::median(&distance.iter().map(|&d| d as f64).collect::<Vec<_>>());
    let mut keep: Vec<usize> = (0..distance.len()).collect();
    keep.sort_by(|&a, &b| {
        let off = |i: usize| (distance[i] as f64 - median).abs();
        off(a).total_cmp(&off(b)).then(a.cmp(&b))
    });
    keep.truncate(n);
    keep.sort_unstable();
    class.pairs = keep.into_iter().map(|i| class.pairs[i].clone()).collect();
    class
}

/// The host-side reference value of one kernel on one pair.
fn host_value(algo: Algo, class: &PairClass, pair: &SeqPair) -> i64 {
    let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
    match algo {
        Algo::Wfa => i64::from(wfa_edit_distance(p, t)),
        Algo::BiWfa => i64::from(biwfa_edit_align(p, t).score),
        Algo::Ss => i64::from(ss_filter(p, t, class.ss_threshold).bound),
        Algo::Sw | Algo::Nw => unreachable!("not a benchmark kernel"),
    }
}

fn tier_key(tier: Tier) -> usize {
    match tier {
        Tier::Base => 0,
        Tier::Vec => 1,
        Tier::Quetzal => 2,
        Tier::QuetzalC => 3,
    }
}

const EXEC_NS: [&str; 4] = [
    "exec_ns.base",
    "exec_ns.vec",
    "exec_ns.quetzal",
    "exec_ns.quetzal_c",
];
const INSTS: [&str; 4] = [
    "insts.base",
    "insts.vec",
    "insts.quetzal",
    "insts.quetzal_c",
];

impl Kernels {
    /// Builds the pool, stages the inputs and runs the untimed warm-up
    /// pass that fills the predecode/compiled caches and the allocator
    /// and records every kernel's reference result.
    pub fn setup(mode: ExecMode, seed: u64, dir: &Path) -> Kernels {
        let classes = inputs(seed, dir);
        let pool = MachinePool::new(&MachineConfig::default(), mode);
        let runner = BatchRunner::new(1).with_exec_mode(mode);
        let mut k = Kernels {
            mode,
            classes,
            pool,
            runner,
            reference: Vec::new(),
            sim: RunStats::default(),
            host_ok: true,
            samples: Vec::new(),
        };
        let off = Trace::new(false);
        let mut reference = Vec::new();
        let mut sim = RunStats::default();
        let mut host_ok = true;
        for (class, pair) in k.pairs() {
            let results = run_pair(&k.runner, &k.pool, class, pair, &off).expect("warm-up pass");
            for ((algo, _), (value, stats)) in KERNELS.iter().zip(&results) {
                host_ok &= *value == host_value(*algo, class, pair);
                sim.merge(stats);
            }
            reference.push(results.iter().map(|(v, s)| (*v, s.instructions)).collect());
        }
        k.reference = reference;
        k.sim = sim;
        k.host_ok = host_ok;
        k
    }

    fn pairs(&self) -> impl Iterator<Item = (&PairClass, &SeqPair)> {
        self.classes
            .iter()
            .flat_map(|c| c.pairs.iter().map(move |p| (c, p)))
    }

    /// Pairs per second of one pass at each pair's median repetition.
    fn throughput(&self) -> f64 {
        let ms: f64 = report::medians(&self.samples).iter().sum();
        self.samples.len() as f64 / (ms / 1e3)
    }

    /// Checks every warm-up result against the other execution engine.
    /// Untimed, after set-up: it costs a full pass on the other engine.
    pub fn cross_engine_ok(&self) -> bool {
        let other = match self.mode {
            ExecMode::Cycle => ExecMode::Functional,
            ExecMode::Functional => ExecMode::Cycle,
        };
        let pool = MachinePool::new(&MachineConfig::default(), other);
        let runner = BatchRunner::new(1).with_exec_mode(other);
        let off = Trace::new(false);
        self.pairs()
            .zip(&self.reference)
            .all(|((class, pair), want)| {
                run_pair(&runner, &pool, class, pair, &off).is_ok_and(|r| same(&r, want))
            })
    }
}

/// Whether `results` are the `reference` results.
fn same(results: &[(i64, RunStats)], reference: &[KernelResult]) -> bool {
    results
        .iter()
        .map(|(v, s)| (*v, s.instructions))
        .eq(reference.iter().copied())
}

/// Runs one pair through every kernel on `runner` and `pool`: one op.
fn run_pair(
    runner: &BatchRunner,
    pool: &MachinePool,
    class: &PairClass,
    pair: &SeqPair,
    trace: &Trace,
) -> Result<Vec<(i64, RunStats)>, String> {
    let batch_start = trace.start();
    // The first checkout span starts with the batch.
    let last_end = Mutex::new(batch_start);
    let report = runner
        .run_machines_report_pooled(pool, &KERNELS, |m, _i, &(algo, tier)| {
            let start = trace.start();
            if let Some(start) = start {
                let prev = *last_end.lock().expect("last-end lock");
                trace.add(
                    "checkout_ns",
                    prev.map_or(0.0, |p| (start - p).as_nanos() as f64),
                );
                trace.add("checkouts", 1.0);
                trace::mark_stage_start();
            }
            let out =
                try_simulate_pair_outcome(m, algo, class.alphabet, class.ss_threshold, pair, tier);
            if let Some(start) = start {
                let end = Instant::now();
                let built = trace::take_first_build().unwrap_or(start);
                trace.add("closure_ns", (end - start).as_nanos() as f64);
                trace.add("stage_ns", (built - start).as_nanos() as f64);
                trace.add(EXEC_NS[tier_key(tier)], (end - built).as_nanos() as f64);
                if let Ok(o) = &out {
                    trace.add(INSTS[tier_key(tier)], o.stats.instructions as f64);
                    trace.add("sim_cycles", o.stats.cycles as f64);
                }
                *last_end.lock().expect("last-end lock") = Some(end);
            }
            out.map(|o| (o.value, o.stats))
        })
        .map_err(|e| e.to_string())?;
    trace.add_since("batch_ns", batch_start);
    trace.add(
        "recovered",
        report.failures.iter().filter(|f| f.recovered).count() as f64,
    );
    if !report.is_clean() {
        return Err(format!("{} kernel failure(s)", report.failures.len()));
    }
    Ok(report.results.into_iter().flatten().collect())
}

impl crate::Workload for Kernels {
    fn checks_ok(&self) -> bool {
        self.host_ok && self.cross_engine_ok()
    }

    /// Runs passes over every pair until `seconds` have elapsed (at
    /// least [`crate::MIN_PASSES`]), checking each op against the
    /// warm-up pass.
    fn measure(
        &mut self,
        seconds: f64,
        trace: &Trace,
        clock: &mut Clock,
        out: &mut Outcome,
    ) -> f64 {
        let n = self.reference.len();
        let mut samples = vec![Vec::new(); n];
        let start = Instant::now();
        let mut passes = 0;
        while passes < crate::MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            for (i, (class, pair)) in self.pairs().enumerate() {
                let (ok, stamp) = clock.op(|| {
                    let result = run_pair(&self.runner, &self.pool, class, pair, trace);
                    let check = trace.start();
                    let ok = result.is_ok_and(|r| same(&r, &self.reference[i]));
                    trace.add_since("check_ns", check);
                    ok
                });
                samples[i].push(stamp);
                out.attempted += 1;
                out.failed += u64::from(!ok);
            }
            passes += 1;
        }
        trace.add("ops", (passes * n) as f64);
        trace.add("wall_ns", start.elapsed().as_nanos() as f64);
        self.samples = samples
            .iter()
            .map(|s| s.iter().map(|x| clock.ms(x)).collect())
            .collect();
        self.throughput()
    }

    /// Latency percentiles are taken over each pair's median
    /// repetition, so the series has one sample per pair whatever the
    /// run's length.
    fn end_to_end(&self, out: &mut Outcome) {
        out.push("throughput", self.throughput(), "1/s");
        report::push_latency(out, "latency", &report::medians(&self.samples));
    }

    fn per_layer(&self, trace: &Trace, _clock: &mut Clock, layers: &mut crate::Layers) {
        let ops = trace.get("ops").max(1.0);
        let engine = match self.mode {
            ExecMode::Cycle => "cycle",
            ExecMode::Functional => "functional",
        };
        let exec_ns: f64 = EXEC_NS.iter().map(|k| trace.get(k)).sum();
        let insts: f64 = INSTS.iter().map(|k| trace.get(k)).sum();
        let mips = |i: f64, ns: f64| if ns > 0.0 { i / ns * 1e3 } else { 0.0 };
        layers.set(format!("uarch.{engine}.exec_ms"), exec_ns / ops / 1e6);
        layers.set(format!("uarch.{engine}.sim_mips"), mips(insts, exec_ns));
        for (t, tier) in ["base", "vec", "quetzal", "quetzal_c"].iter().enumerate() {
            layers.set(
                format!("uarch.{engine}.sim_mips.{tier}"),
                mips(trace.get(INSTS[t]), trace.get(EXEC_NS[t])),
            );
        }
        if self.mode == ExecMode::Cycle {
            let cycles = trace.get("sim_cycles");
            layers.set(
                "uarch.cycle.host_ns_per_sim_cycle",
                if cycles > 0.0 { exec_ns / cycles } else { 0.0 },
            );
        }
        let stage = trace.get("stage_ns");
        let checkout = trace.get("checkout_ns");
        let overhead = trace.get("batch_ns") - trace.get("closure_ns") - checkout;
        layers.set("algos.stage_ms", stage / ops / 1e6);
        layers.set(
            "pool.checkout_us",
            checkout / trace.get("checkouts").max(1.0) / 1e3,
        );
        let stats = self.pool.stats();
        layers.set("pool.built", stats.built as f64);
        layers.set("pool.quarantined", stats.quarantined as f64);
        layers.set("batch.overhead_ms", overhead / ops / 1e6);
        layers.set("batch.recovered", trace.get("recovered"));
        layers.sim(&self.sim);
        // Top-level spans only: the layers above are their self times.
        let attributed = trace.get("batch_ns") + trace.get("check_ns");
        layers.account(trace.get("wall_ns"), attributed, ops);
    }
}
