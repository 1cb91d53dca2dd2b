//! Probed kernel replay: CPI stacks, hot-site tables and Chrome traces
//! for the experiment kernels.
//!
//! This module reruns exactly the kernels the experiment tables measure
//! — same [`try_simulate_pair_outcome`] staging, windowing and thresholds — on a
//! `Machine<RecordingProbe>`, and renders what the probe saw. By the
//! probe-neutrality invariant (DESIGN.md §"Pipeline observability";
//! pinned by `tests/probe_neutrality.rs`) the replay's `RunStats` are
//! bit-identical to the unprobed experiment runs, so a CPI stack
//! printed here decomposes precisely the cycle counts the tables
//! report.
//!
//! Replay is intentionally serial: one probed machine, pairs in order,
//! with a [`Machine::reset`] between pairs — the pooled batch runner's
//! fresh-machine-per-shard timing, reproduced on a single machine so
//! one probe aggregates the whole kernel.

use crate::workloads::{table2_workloads, try_simulate_pair_outcome, Algo, Workload};
use quetzal::uarch::RunStats;
use quetzal::{Machine, MachineConfig};
use quetzal_algos::Tier;
use quetzal_trace::{CpiStack, RecordingProbe};

/// Label for one traced kernel, e.g. `wfa/100bp_1/vec`.
pub fn kernel_label(algo: Algo, wl: &Workload, tier: Tier) -> String {
    format!("{}/{}/{}", algo.code(), wl.spec.name, tier.code()).to_lowercase()
}

/// Replays `algo` at `tier` over every pair of the workload on one
/// probed machine and returns the probe plus the merged statistics.
///
/// # Panics
///
/// Panics if a simulation fails (experiment harness context).
pub fn trace_kernel(
    cfg: &MachineConfig,
    algo: Algo,
    wl: &Workload,
    tier: Tier,
    capacity: usize,
) -> (RecordingProbe, RunStats) {
    let mut machine = Machine::with_probe(cfg.clone(), RecordingProbe::new(capacity));
    let threshold = wl.ss_threshold();
    let alphabet = wl.spec.alphabet;
    let mut per_pair = Vec::with_capacity(wl.pairs.len());
    for pair in &wl.pairs {
        machine.reset();
        per_pair.push(
            try_simulate_pair_outcome(&mut machine, algo, alphabet, threshold, pair, tier)
                .expect("pair simulation failed")
                .stats,
        );
    }
    let probe = std::mem::take(machine.probe_mut());
    (probe, RunStats::merged(&per_pair))
}

/// [`trace_kernel`] reduced to its CPI stack.
pub fn cpi_stack(cfg: &MachineConfig, algo: Algo, wl: &Workload, tier: Tier) -> CpiStack {
    let (probe, _) = trace_kernel(cfg, algo, wl, tier, RecordingProbe::DEFAULT_CAPACITY);
    let stack = CpiStack::from_probe(&kernel_label(algo, wl, tier), &probe);
    assert!(
        probe.audit_failures().is_empty(),
        "stall audit failed: {:?}",
        probe.audit_failures()
    );
    stack
}

/// Renders the top-`n` hottest static instructions of a probed replay
/// as an aligned table (stall cycles, executions, class, program, pc).
pub fn hottest_table(probe: &RecordingProbe, n: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>6} {:>12} {:>10} {:>8}",
        "program", "pc", "stall cyc", "execs", "class"
    );
    for ((program, pc), e) in probe.hottest(n) {
        let name = probe.program_name(program).unwrap_or("?");
        let class = e.class.map(quetzal_trace::class_label).unwrap_or("?");
        let _ = writeln!(
            out,
            "{name:<24} {pc:>6} {:>12} {:>10} {class:>8}",
            e.stall_cycles, e.count
        );
    }
    out
}

/// The `run_all --cpi-stacks` summary: the paper's §II-G contrast on
/// the short-read grid. For each short-read dataset and modern
/// algorithm, the hand-vectorised tier (gathers cracked into
/// per-element L1D accesses) is set against `QUETZAL+C` (QBUFFER-fed),
/// with the memory-hierarchy and QUETZAL stall totals side by side —
/// the cycles the paper's 19–22-vs-2-cycle access-latency claim says
/// must move out of the memory bucket.
pub fn cpi_stacks_summary(scale: f64) -> String {
    use std::fmt::Write;
    let cfg = MachineConfig::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== CPI stacks (probed replay; VEC gathers vs QUETZAL+C QBUFFERs)"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>7} {:>10} {:>9} {:>9}",
        "kernel", "cycles", "cpi", "base", "mem", "quetzal"
    );
    for wl in table2_workloads(scale).into_iter().filter(|w| !w.is_long()) {
        for algo in Algo::modern() {
            for tier in [Tier::Vec, Tier::QuetzalC] {
                let s = cpi_stack(&cfg, algo, &wl, tier);
                let _ = writeln!(
                    out,
                    "{:<22} {:>9} {:>7.3} {:>10} {:>9} {:>9}",
                    s.name,
                    s.cycles,
                    s.cpi(),
                    s.base_cycles,
                    s.memory_stall_cycles(),
                    s.quetzal_stall_cycles()
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SEED;
    use quetzal_genomics::dataset::DatasetSpec;

    fn tiny_workload() -> Workload {
        Workload {
            spec: DatasetSpec::d100(),
            pairs: DatasetSpec::d100().generate_n(SEED, 1),
        }
    }

    #[test]
    fn traced_stats_match_unprobed_run() {
        let wl = tiny_workload();
        let cfg = MachineConfig::default();
        let (probe, stats) = trace_kernel(&cfg, Algo::Wfa, &wl, Tier::Vec, 1024);
        let unprobed = quetzal::uarch::RunStats::merged(&crate::workloads::run_algo_pairs(
            &quetzal::BatchRunner::new(1),
            &cfg,
            Algo::Wfa,
            &wl,
            Tier::Vec,
        ));
        assert_eq!(stats, unprobed, "probe must not perturb timing");
        assert!(probe.audit_failures().is_empty());
        assert_eq!(probe.instructions(), stats.instructions);
        assert_eq!(probe.cycles(), stats.cycles);
    }

    #[test]
    fn quetzal_tier_moves_memory_stalls_into_quetzal_bucket() {
        // The §II-G claim, as a testable inequality: on the same pairs,
        // QUETZAL+C spends a smaller share of its cycles in the memory
        // hierarchy than the gather-based VEC tier.
        let wl = tiny_workload();
        let cfg = MachineConfig::default();
        let vec = cpi_stack(&cfg, Algo::Wfa, &wl, Tier::Vec);
        let qzc = cpi_stack(&cfg, Algo::Wfa, &wl, Tier::QuetzalC);
        let share = |s: &CpiStack| s.memory_stall_cycles() as f64 / s.cycles.max(1) as f64;
        assert!(
            share(&qzc) < share(&vec),
            "memory-stall share: qzc {} !< vec {}",
            share(&qzc),
            share(&vec)
        );
        assert!(qzc.quetzal_stall_cycles() > 0);
    }

    #[test]
    fn hottest_table_lists_requested_rows() {
        let wl = tiny_workload();
        let cfg = MachineConfig::default();
        let (probe, _) = trace_kernel(&cfg, Algo::Ss, &wl, Tier::Vec, 1024);
        let table = hottest_table(&probe, 3);
        // Header + 3 rows.
        assert_eq!(table.lines().count(), 4);
    }
}
