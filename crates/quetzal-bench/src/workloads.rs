//! Shared workload construction and algorithm runners for the
//! experiment harness.
//!
//! Simulation here is **deterministically parallel**: every pair of a
//! workload is an independent work item submitted through
//! [`BatchRunner`], and experiment modules batch their independent
//! algorithm/dataset/tier combinations through [`prefetch`]. Both
//! levels inherit the runner's guarantee that results are bit-identical
//! for every `QUETZAL_THREADS` value, so the printed tables never
//! depend on the host's core count.

use quetzal::uarch::RunStats;
use quetzal::{BatchRunner, Machine, MachineConfig, MachinePool, Probe, SimError};
use quetzal_algos::biwfa::biwfa_sim;
use quetzal_algos::dp_sim::LinearCosts;
use quetzal_algos::nw::nw_sim;
use quetzal_algos::sneakysnake::ss_sim;
use quetzal_algos::swg::{default_band, swg_sim};
use quetzal_algos::wfa_sim::wfa_sim;
use quetzal_algos::{SimOutcome, Tier};
use quetzal_genomics::dataset::{DatasetSpec, SeqPair};

/// Deterministic seed for every experiment.
pub const SEED: u64 = 2024;

/// A dataset with generated pairs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The dataset description (lengths, error profile).
    pub spec: DatasetSpec,
    /// The generated pairs.
    pub pairs: Vec<SeqPair>,
}

impl Workload {
    /// Whether this counts as a long-read dataset.
    pub fn is_long(&self) -> bool {
        self.spec.is_long()
    }

    /// SneakySnake threshold for this dataset: twice the nominal edit
    /// count, capped like SneakySnake's long-read configurations.
    pub fn ss_threshold(&self) -> u32 {
        ((2.0 * self.spec.edit_rate * self.spec.read_len as f64).ceil() as u32).clamp(2, 4000)
    }
}

/// Baseline pair counts per dataset, chosen (like the paper's read-count
/// capping, §V-C) so experiments simulate in seconds, scaled by
/// `QUETZAL_SCALE`.
fn pair_count(spec: &DatasetSpec, scale: f64) -> usize {
    let base = match spec.read_len {
        0..=150 => 4,
        151..=500 => 3,
        501..=15_000 => 1,
        _ => 1,
    };
    ((base as f64 * scale).round() as usize).max(1)
}

/// The four Table II DNA workloads.
pub fn table2_workloads(scale: f64) -> Vec<Workload> {
    DatasetSpec::table2()
        .into_iter()
        .map(|spec| {
            let n = pair_count(&spec, scale);
            Workload {
                pairs: spec.generate_n(SEED, n),
                spec,
            }
        })
        .collect()
}

/// A BAliBASE-like protein workload (sequences trimmed for simulation
/// speed; protein pairs are highly divergent, §VII-A.4).
pub fn protein_workload(scale: f64) -> Workload {
    let spec = DatasetSpec::protein();
    let n = ((2.0 * scale).round() as usize).max(1);
    let mut pairs = spec.generate_n(SEED, n);
    for p in &mut pairs {
        let pl = p.pattern.len().min(200);
        let tl = p.text.len().min(200);
        p.pattern = p.pattern.subseq(0, pl);
        p.text = p.text.subseq(0, tl);
    }
    Workload { spec, pairs }
}

/// The evaluated algorithms (paper Fig. 13a x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Wavefront alignment (use case 1).
    Wfa,
    /// Bidirectional WFA (use case 1).
    BiWfa,
    /// SneakySnake filtering (use case 2).
    Ss,
    /// Banded Smith-Waterman, ksw2-style (use case 3).
    Sw,
    /// Full-matrix Needleman-Wunsch, parasail-style (use case 3).
    Nw,
}

impl Algo {
    /// All algorithms in presentation order.
    pub fn all() -> [Algo; 5] {
        [Algo::Wfa, Algo::BiWfa, Algo::Ss, Algo::Sw, Algo::Nw]
    }

    /// The modern (non-classical) algorithms.
    pub fn modern() -> [Algo; 3] {
        [Algo::Wfa, Algo::BiWfa, Algo::Ss]
    }

    /// Display name matching the paper's labels.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Wfa => "WFA",
            Algo::BiWfa => "BiWFA",
            Algo::Ss => "SS",
            Algo::Sw => "SW (ksw2)",
            Algo::Nw => "NW (parasail)",
        }
    }

    /// The algorithm's external name, as spelled on the wire and on
    /// every command line; [`FromStr`](std::str::FromStr) parses it
    /// back.
    pub fn code(self) -> &'static str {
        match self {
            Algo::Wfa => "wfa",
            Algo::BiWfa => "biwfa",
            Algo::Ss => "ss",
            Algo::Sw => "sw",
            Algo::Nw => "nw",
        }
    }
}

impl std::str::FromStr for Algo {
    type Err = String;

    fn from_str(code: &str) -> Result<Algo, String> {
        Algo::all()
            .into_iter()
            .find(|a| a.code() == code)
            .ok_or_else(|| format!("unknown algo '{code}' (wfa|biwfa|ss|sw|nw)"))
    }
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Window length applied to classical DP on long reads (the paper's own
/// prescription for long sequences, §VI: minimap2-style windowing /
/// tiling). Sized so the QUETZAL variant's three diagonal regions fit
/// one QBUFFER (3 × (window + 3) ≤ 1024 64-bit elements).
pub const NW_WINDOW: usize = 320;
/// Banded-SW window (same constraint as [`NW_WINDOW`]).
pub const SW_WINDOW: usize = 320;

fn windowed(seq: &[u8], window: usize) -> &[u8] {
    &seq[..seq.len().min(window)]
}

/// An algorithm/workload/tier combination to simulate on a machine
/// configuration — the coarse work unit experiments batch through
/// [`prefetch`].
pub type AlgoJob<'a> = (&'a MachineConfig, Algo, &'a Workload, Tier);

fn memo() -> &'static std::sync::Mutex<std::collections::HashMap<String, RunStats>> {
    // Experiments share workloads (Fig. 3/4/13a/14a all run the same
    // algorithm/dataset/tier combinations); memoise by configuration so
    // `run_all` simulates each combination once.
    static MEMO: std::sync::OnceLock<
        std::sync::Mutex<std::collections::HashMap<String, RunStats>>,
    > = std::sync::OnceLock::new();
    MEMO.get_or_init(Default::default)
}

fn memo_key(cfg: &MachineConfig, algo: Algo, wl: &Workload, tier: Tier) -> String {
    format!(
        "{cfg:?}|{algo}|{}|{}|{}|{tier}",
        wl.spec.name,
        wl.pairs.len(),
        wl.ss_threshold()
    )
}

/// Simulates every not-yet-memoised combination, in parallel across
/// combinations *and* across each combination's pairs. Experiment
/// modules call this once with all the combinations they are about to
/// read, then read them through [`run_algo`] (which hits the memo) —
/// so the table-building code stays a simple serial loop while the
/// simulation wall-clock scales with `QUETZAL_THREADS`.
pub fn prefetch(jobs: &[AlgoJob<'_>]) {
    let mut todo: Vec<(String, AlgoJob<'_>)> = Vec::new();
    {
        let cache = memo().lock().expect("memo lock");
        for &job in jobs {
            let key = memo_key(job.0, job.1, job.2, job.3);
            if !cache.contains_key(&key) && !todo.iter().any(|(k, _)| *k == key) {
                todo.push((key, job));
            }
        }
    }
    if todo.is_empty() {
        return;
    }
    let runner = BatchRunner::from_env();
    let stats = runner
        .run(
            &todo,
            || (),
            |(), _i, (_key, (cfg, algo, wl, tier))| run_algo_uncached(cfg, *algo, wl, *tier),
        )
        .expect("experiment simulation panicked");
    let mut cache = memo().lock().expect("memo lock");
    for ((key, _), s) in todo.into_iter().zip(stats) {
        cache.insert(key, s);
    }
}

/// Runs `algo` at `tier` over every pair of the workload, returning
/// merged statistics. Pairs are independent work items sharded across
/// `QUETZAL_THREADS` worker threads (each shard on its own fresh
/// machine); the result is bit-identical for every thread count.
///
/// # Panics
///
/// Panics if a simulation fails (experiment harness context).
pub fn run_algo(cfg: &MachineConfig, algo: Algo, wl: &Workload, tier: Tier) -> RunStats {
    let key = memo_key(cfg, algo, wl, tier);
    if let Some(hit) = memo().lock().expect("memo lock").get(&key) {
        return hit.clone();
    }
    let stats = run_algo_uncached(cfg, algo, wl, tier);
    memo().lock().expect("memo lock").insert(key, stats.clone());
    stats
}

fn run_algo_uncached(cfg: &MachineConfig, algo: Algo, wl: &Workload, tier: Tier) -> RunStats {
    RunStats::merged(&run_algo_pairs(
        &BatchRunner::from_env(),
        cfg,
        algo,
        wl,
        tier,
    ))
}

/// Per-pair statistics of `algo` at `tier` over the workload, simulated
/// through `runner`: one shard per pair, one fresh machine per shard,
/// results in pair order. This is the quantity `tests/parallel.rs`
/// asserts is thread-count-invariant.
///
/// Pairs whose simulation fails (typed [`SimError`] or kernel panic,
/// after one retry on a fresh machine) are dropped from the result; the
/// failures are summarised on **stderr** so stdout tables stay
/// byte-identical between fault-free runs at any thread count. The
/// healthy pairs' statistics are bit-identical to a fully healthy run.
///
/// # Panics
///
/// Panics only on simulation-infrastructure failure (a panic outside
/// the per-item fault boundary).
pub fn run_algo_pairs(
    runner: &BatchRunner,
    cfg: &MachineConfig,
    algo: Algo,
    wl: &Workload,
    tier: Tier,
) -> Vec<RunStats> {
    let pool = MachinePool::new(cfg, runner.exec_mode());
    run_algo_pairs_pooled(runner, &pool, algo, wl, tier)
}

/// [`run_algo_pairs`] over a caller-owned [`MachinePool`]: repeated
/// runs of one kernel (e.g. the throughput trajectory's timing samples)
/// reuse the pool's machines instead of rebuilding them per run.
/// Checkout resets every recycled machine to cold-boot state, so the
/// per-pair statistics are bit-identical to a fresh pool.
///
/// # Panics
///
/// Panics only on simulation-infrastructure failure (a panic outside
/// the per-item fault boundary).
pub fn run_algo_pairs_pooled(
    runner: &BatchRunner,
    pool: &MachinePool,
    algo: Algo,
    wl: &Workload,
    tier: Tier,
) -> Vec<RunStats> {
    let threshold = wl.ss_threshold();
    let alphabet = wl.spec.alphabet;
    let report = runner
        .run_machines_report_pooled(pool, &wl.pairs, |machine, _i, pair| {
            try_simulate_pair_outcome(machine, algo, alphabet, threshold, pair, tier)
                .map(|o| o.stats)
        })
        .expect("simulation infrastructure panicked");
    if !report.is_clean() {
        let recovered = report.failures.iter().filter(|f| f.recovered).count();
        let stats = pool.stats();
        eprintln!(
            "warning: {} of {} pairs failed ({algo}, {}, {tier}; \
             {recovered} recovered by retry; pool built {} quarantined {}):",
            report.failures.len(),
            wl.pairs.len(),
            wl.spec.name,
            stats.built,
            stats.quarantined,
        );
        for failure in &report.failures {
            eprintln!("  {failure}");
        }
    }
    report.results.into_iter().flatten().collect()
}

/// Simulates one pair (the per-shard work item of [`run_algo_pairs`]),
/// returning the algorithm's architectural result (alignment score,
/// filter verdict) alongside the statistics.
///
/// Public and generic over the machine's [`Probe`] so observability
/// tooling (`trace_run`, the `--cpi-stacks` summary) can replay exactly
/// the kernels the experiment tables measure on a
/// `Machine<RecordingProbe>` — same staging, same windowing, same
/// thresholds. The differential oracle in `tests/functional_equiv.rs`
/// compares the value between the cycle-level and functional execution
/// tiers.
///
/// # Errors
///
/// Returns [`SimError`] if the simulated kernel faults, so batch callers
/// degrade per pair instead of killing the batch. Algorithm-driver bugs
/// that are not machine faults (a WFA score-cap overflow) panic — they
/// indicate a broken harness, not a misbehaving kernel, and the panic
/// is caught at the same per-item boundary.
pub fn try_simulate_pair_outcome<P: Probe>(
    machine: &mut Machine<P>,
    algo: Algo,
    alphabet: quetzal_genomics::Alphabet,
    ss_threshold: u32,
    pair: &SeqPair,
    tier: Tier,
) -> Result<SimOutcome, SimError> {
    let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
    let outcome = match algo {
        Algo::Wfa => wfa_sim(machine, p, t, alphabet, tier)?,
        Algo::BiWfa => biwfa_sim(machine, p, t, alphabet, tier)?,
        Algo::Ss => ss_sim(machine, p, t, alphabet, ss_threshold, tier)?,
        Algo::Sw => {
            let (pw, tw) = (windowed(p, SW_WINDOW), windowed(t, SW_WINDOW));
            swg_sim(
                machine,
                pw,
                tw,
                LinearCosts::UNIT,
                default_band(pw.len()),
                tier,
            )?
        }
        Algo::Nw => {
            let (pw, tw) = (windowed(p, NW_WINDOW), windowed(t, NW_WINDOW));
            nw_sim(machine, pw, tw, LinearCosts::UNIT, tier)?
        }
    };
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_genomics::Alphabet;

    #[test]
    fn algo_codes_round_trip() {
        let codes: Vec<&str> = Algo::all().iter().map(|a| a.code()).collect();
        assert_eq!(codes, ["wfa", "biwfa", "ss", "sw", "nw"]);
        for algo in Algo::all() {
            assert_eq!(algo.code().parse(), Ok(algo));
        }
        assert_eq!(
            "blast".parse::<Algo>(),
            Err("unknown algo 'blast' (wfa|biwfa|ss|sw|nw)".to_string())
        );
    }

    #[test]
    fn workloads_are_deterministic_and_scaled() {
        let a = table2_workloads(1.0);
        let b = table2_workloads(1.0);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pairs, y.pairs);
        }
        let big = table2_workloads(2.0);
        assert!(big[0].pairs.len() >= a[0].pairs.len());
    }

    #[test]
    fn thresholds_are_sane() {
        for wl in table2_workloads(1.0) {
            let e = wl.ss_threshold();
            assert!((2..=4000).contains(&e), "{e}");
        }
    }

    #[test]
    fn run_algo_smoke_all_algorithms_short() {
        let wl = Workload {
            spec: DatasetSpec::d100(),
            pairs: DatasetSpec::d100().generate_n(SEED, 1),
        };
        let cfg = MachineConfig::default();
        for algo in Algo::all() {
            let s = run_algo(&cfg, algo, &wl, Tier::QuetzalC);
            assert!(s.cycles > 0, "{algo}");
        }
    }

    #[test]
    fn pair_batching_is_thread_invariant() {
        let wl = Workload {
            spec: DatasetSpec::d100(),
            pairs: DatasetSpec::d100().generate_n(SEED, 3),
        };
        let cfg = MachineConfig::default();
        let serial = run_algo_pairs(&BatchRunner::new(1), &cfg, Algo::Wfa, &wl, Tier::Vec);
        let parallel = run_algo_pairs(&BatchRunner::new(4), &cfg, Algo::Wfa, &wl, Tier::Vec);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 3);
        assert_eq!(
            RunStats::merged(&serial),
            RunStats::merged(&parallel),
            "merged totals must match too"
        );
    }

    #[test]
    fn prefetch_then_read_matches_direct_run() {
        let wl = Workload {
            spec: DatasetSpec::d100(),
            pairs: DatasetSpec::d100().generate_n(SEED, 2),
        };
        let cfg = MachineConfig::default();
        prefetch(&[
            (&cfg, Algo::Ss, &wl, Tier::Vec),
            (&cfg, Algo::Ss, &wl, Tier::Vec),
        ]);
        let memoised = run_algo(&cfg, Algo::Ss, &wl, Tier::Vec);
        let direct = RunStats::merged(&run_algo_pairs(
            &BatchRunner::new(2),
            &cfg,
            Algo::Ss,
            &wl,
            Tier::Vec,
        ));
        assert_eq!(memoised, direct);
    }

    #[test]
    fn protein_workload_is_trimmed() {
        let wl = protein_workload(1.0);
        assert!(wl.pairs.iter().all(|p| p.pattern.len() <= 200));
        assert_eq!(wl.spec.alphabet, Alphabet::Protein);
    }
}
