//! Functional-tier differential oracle.
//!
//! The compiled functional tier (`quetzal::uarch::functional`) promises
//! *bit-identical architectural results* to the cycle-level out-of-order
//! model: same alignment scores, same register and memory outcomes, same
//! retired-instruction counts, same typed [`SimError`]s — it only drops
//! the clock. This suite replays the full Fig. 3 workload grid — every
//! Table II dataset (both alphabets, short and long reads), the three
//! modern algorithms, at the baseline, hand-vectorised and fully
//! accelerated tiers — once per engine, and asserts per-pair equality of
//! the algorithm's value and the complete architectural machine state.
//!
//! The two engines share one implementation of instruction semantics
//! (`interp::step`) but not dispatch: the interpreter steps one
//! instruction at a time while the functional tier runs flat-step-table
//! superblocks with whole-block budget accounting. Agreement here is a
//! differential check of superblock formation, control flow, budget
//! accounting and fault ordering. Semantics themselves are checked
//! against independent oracles: the 116k-pair host-DP sweep in
//! `tests/properties.rs`, the seeded `proptests` in `interp.rs`, and
//! `tests/accelerator.rs`.

use quetzal::isa::{PReg, VReg, XReg};
use quetzal::uarch::{ExecMode, RunStats};
use quetzal::{BatchRunner, Machine, MachineConfig, Probe};
use quetzal_algos::Tier;
use quetzal_bench::workloads::{run_algo_pairs, table2_workloads, try_simulate_pair_outcome, Algo};

/// The replayed grid: the paper's three modern algorithms at every tier
/// the simulator implements.
const ALGOS: [Algo; 3] = [Algo::Wfa, Algo::BiWfa, Algo::Ss];
const TIERS: [Tier; 3] = [Tier::Base, Tier::Vec, Tier::QuetzalC];
const SCALE: f64 = 0.1;

/// Every architectural fact a kernel can leave behind: the algorithm's
/// numeric result, the retired-instruction count, and the full machine
/// state (scalar/vector/predicate registers, touched memory pages,
/// both QBUFFERs).
#[derive(Debug, PartialEq, Eq)]
struct ArchDigest {
    value: i64,
    instructions: u64,
    x: [u64; 32],
    v: [[u64; 8]; 32],
    p: [u64; 8],
    resident_pages: usize,
    qbuf: [Vec<u64>; 2],
}

fn digest<P: Probe>(machine: &Machine<P>, value: i64, instructions: u64) -> ArchDigest {
    let s = machine.core().state();
    ArchDigest {
        value,
        instructions,
        x: std::array::from_fn(|i| s.x(XReg::new(i as u8))),
        v: std::array::from_fn(|i| s.v_lanes64(VReg::new(i as u8))),
        p: std::array::from_fn(|i| s.p(PReg::new(i as u8))),
        resident_pages: s.mem.resident_pages(),
        qbuf: [s.qz.buf(0).words().to_vec(), s.qz.buf(1).words().to_vec()],
    }
}

#[test]
fn functional_tier_matches_cycle_level_on_fig03_grid() {
    let cfg = MachineConfig::default();
    let mut cycle = Machine::new(cfg.clone());
    let mut functional = Machine::new(cfg);
    functional.set_exec_mode(ExecMode::Functional);

    let mut combos = 0;
    for wl in table2_workloads(SCALE) {
        let alphabet = wl.spec.alphabet;
        let threshold = wl.ss_threshold();
        for algo in ALGOS {
            for tier in TIERS {
                combos += 1;
                for (i, pair) in wl.pairs.iter().enumerate() {
                    let label = format!("{algo}/{}/{tier}/pair{i}", wl.spec.name);

                    cycle.reset();
                    let c = try_simulate_pair_outcome(
                        &mut cycle, algo, alphabet, threshold, pair, tier,
                    )
                    .unwrap_or_else(|e| panic!("{label}: cycle engine faulted: {e}"));

                    functional.reset();
                    functional.set_exec_mode(ExecMode::Functional);
                    let f = try_simulate_pair_outcome(
                        &mut functional,
                        algo,
                        alphabet,
                        threshold,
                        pair,
                        tier,
                    )
                    .unwrap_or_else(|e| panic!("{label}: functional engine faulted: {e}"));

                    assert_eq!(
                        digest(&cycle, c.value, c.stats.instructions),
                        digest(&functional, f.value, f.stats.instructions),
                        "{label}: engines left different architectural state"
                    );
                    // The functional tier has no clock: everything but
                    // the retire count must be zero.
                    assert_eq!(
                        f.stats,
                        RunStats {
                            instructions: f.stats.instructions,
                            ..RunStats::default()
                        },
                        "{label}: functional stats must carry no timing"
                    );
                    assert!(c.stats.cycles > 0, "{label}: cycle engine must tick");
                }
            }
        }
    }
    assert_eq!(combos, 4 * ALGOS.len() * TIERS.len());
}

/// The batch runner drives the functional tier deterministically: the
/// per-pair stats are thread-count-invariant and agree with the cycle
/// engine's retire counts pair by pair.
#[test]
fn batched_functional_runs_are_deterministic_and_retire_identically() {
    let cfg = MachineConfig::default();
    let wl = &table2_workloads(SCALE)[0];
    let serial_cycle = BatchRunner::new(1);
    let serial_fn = BatchRunner::new(1).with_exec_mode(ExecMode::Functional);
    let threaded_fn = BatchRunner::new(4).with_exec_mode(ExecMode::Functional);

    for algo in [Algo::Wfa, Algo::Ss] {
        for tier in TIERS {
            let cycle = run_algo_pairs(&serial_cycle, &cfg, algo, wl, tier);
            let f1 = run_algo_pairs(&serial_fn, &cfg, algo, wl, tier);
            let f4 = run_algo_pairs(&threaded_fn, &cfg, algo, wl, tier);
            assert_eq!(f1, f4, "{algo}/{tier}: thread count changed results");
            assert_eq!(cycle.len(), f1.len());
            for (i, (c, f)) in cycle.iter().zip(&f1).enumerate() {
                assert_eq!(
                    c.instructions, f.instructions,
                    "{algo}/{tier}/pair{i}: retire counts diverged"
                );
                assert_eq!(f.cycles, 0, "{algo}/{tier}/pair{i}: functional ticked");
                assert!(f.instructions > 0, "{algo}/{tier}/pair{i}: empty run");
            }
        }
    }
}

/// `Machine::run_functional` is a one-off: it drives the compiled tier
/// without flipping the machine's configured engine, and `reset`
/// restores the cycle-level default after an explicit mode switch.
#[test]
fn exec_mode_selection_round_trips() {
    let mut m = Machine::default();
    assert_eq!(m.exec_mode(), ExecMode::Cycle);
    m.set_exec_mode(ExecMode::Functional);
    assert_eq!(m.exec_mode(), ExecMode::Functional);
    m.reset();
    assert_eq!(m.exec_mode(), ExecMode::Cycle);

    let mut b = quetzal::isa::ProgramBuilder::new();
    b.mov_imm(quetzal::isa::X0, 7).halt();
    let p = b.build().expect("build");
    let executed = m.run_functional(&p).expect("functional run");
    assert_eq!(executed, 2);
    assert_eq!(m.exec_mode(), ExecMode::Cycle, "one-off must not latch");
    let stats = m.run(&p).expect("cycle run");
    assert_eq!(stats.instructions, executed);
    assert!(stats.cycles > 0);
}
