//! Probe-neutrality pins.
//!
//! The observation [`Probe`](quetzal::Probe) threaded through the
//! out-of-order engine must be *strictly* timing-neutral: attaching a
//! recording probe may never change a single `RunStats` field, because
//! every observation site is read-only and the engine's control flow is
//! identical whether `P::ENABLED` is true or false. This test replays
//! the same Fig. 3 workload grid that `timing_golden.rs` pins — every
//! Table II dataset, WFA and SneakySnake, three tiers — once on plain
//! machines and once on `Machine<RecordingProbe>`, and asserts per-pair
//! bit-equality.
//!
//! It also pins the probe's *internal* consistency: the fine
//! [`StallKind`](quetzal_trace::StallKind) taxonomy must partition
//! exactly the cycles the engine attributed (the probe audits this
//! against the engine's own coarse accounting at every run end), and a
//! CPI stack built from the probe must sum back to the measured cycle
//! total.

use quetzal::uarch::RunStats;
use quetzal::{BatchRunner, Machine, MachineConfig};
use quetzal_algos::Tier;
use quetzal_bench::workloads::{run_algo_pairs, table2_workloads, try_simulate_pair_outcome, Algo};
use quetzal_trace::{CpiStack, RecordingProbe, StallKind};

/// The replayed grid: every Table II dataset, the two grid algorithms,
/// at the baseline, hand-vectorised and fully accelerated tiers.
const ALGOS: [Algo; 2] = [Algo::Wfa, Algo::Ss];
const TIERS: [Tier; 3] = [Tier::Base, Tier::Vec, Tier::QuetzalC];

#[test]
fn recording_probe_is_timing_neutral_on_fig03_grid() {
    let scale = 0.1;
    let cfg = MachineConfig::default();
    let serial = BatchRunner::new(1);

    let mut combos = 0;
    for wl in table2_workloads(scale) {
        let alphabet = wl.spec.alphabet;
        let threshold = wl.ss_threshold();
        for algo in ALGOS {
            for tier in TIERS {
                combos += 1;
                let unprobed = run_algo_pairs(&serial, &cfg, algo, &wl, tier);

                // Probed replay: one machine, reset between pairs —
                // the batch runner's fresh-machine-per-shard timing.
                let mut machine = Machine::with_probe(cfg.clone(), RecordingProbe::new(4096));
                let mut probed = Vec::with_capacity(wl.pairs.len());
                for pair in &wl.pairs {
                    machine.reset();
                    probed.push(
                        try_simulate_pair_outcome(
                            &mut machine,
                            algo,
                            alphabet,
                            threshold,
                            pair,
                            tier,
                        )
                        .expect("pair simulation failed")
                        .stats,
                    );
                }

                assert_eq!(unprobed.len(), probed.len());
                for (i, (u, p)) in unprobed.iter().zip(&probed).enumerate() {
                    assert_eq!(
                        u, p,
                        "probe perturbed timing: {algo}/{}/{tier}/pair{i}",
                        wl.spec.name
                    );
                }

                check_probe_consistency(
                    machine.probe(),
                    &RunStats::merged(&probed),
                    &format!("{algo}/{}/{tier}", wl.spec.name),
                );
            }
        }
    }
    assert_eq!(combos, 4 * ALGOS.len() * TIERS.len());
}

/// Asserts the probe's aggregates reconcile with the engine's.
fn check_probe_consistency(probe: &RecordingProbe, merged: &RunStats, label: &str) {
    // The per-run audit compares the fine taxonomy, re-coarsened,
    // against the engine's own stall_cycles — any mismatch is recorded.
    assert!(
        probe.audit_failures().is_empty(),
        "{label}: stall audit failed: {:?}",
        probe.audit_failures()
    );
    assert_eq!(
        probe.instructions(),
        merged.instructions,
        "{label}: probe saw a different retire count"
    );
    assert_eq!(probe.cycles(), merged.cycles, "{label}: cycle totals");

    // A CPI stack is a partition: base plus every fine kind sums back
    // to the cycle total, and the kind totals match the probe's cells.
    let stack = CpiStack::from_probe(label, probe);
    let total = stack.base_cycles + stack.by_kind.iter().sum::<u64>();
    assert_eq!(total, stack.cycles, "{label}: CPI stack must sum to cycles");
    for kind in StallKind::ALL {
        assert_eq!(
            stack.kind_cycles(kind),
            probe.stall_of(kind),
            "{label}: stack/probe disagree on {}",
            kind.label()
        );
    }
    let class_insts: u64 = stack.by_class.iter().map(|(_, n, _)| n).sum();
    assert_eq!(
        class_insts, merged.instructions,
        "{label}: per-class instruction counts must cover every retire"
    );
}

/// The engine reports identical results whether observation is compiled
/// out (`NullProbe`), attached and recording, or attached after a
/// [`RecordingProbe::clear`] — the probe has no feedback path into the
/// simulation.
#[test]
fn cleared_probe_keeps_recording_consistently() {
    let cfg = MachineConfig::default();
    let wl = &table2_workloads(0.1)[0];
    let pair = &wl.pairs[0];

    let mut machine = Machine::with_probe(cfg, RecordingProbe::new(512));
    let s1 = try_simulate_pair_outcome(
        &mut machine,
        Algo::Wfa,
        wl.spec.alphabet,
        wl.ss_threshold(),
        pair,
        Tier::Vec,
    )
    .expect("pair simulation failed")
    .stats;
    machine.probe_mut().clear();
    machine.reset();
    let s2 = try_simulate_pair_outcome(
        &mut machine,
        Algo::Wfa,
        wl.spec.alphabet,
        wl.ss_threshold(),
        pair,
        Tier::Vec,
    )
    .expect("pair simulation failed")
    .stats;
    assert_eq!(s1, s2, "clearing the probe must not change timing");
    assert_eq!(machine.probe().instructions(), s2.instructions);
    assert!(machine.probe().audit_failures().is_empty());
}
