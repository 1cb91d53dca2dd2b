//! Thread-count invariance of the deterministic batch engine, end to
//! end: the per-pair results and merged statistics an experiment
//! observes must be bit-identical between `QUETZAL_THREADS=1` and any
//! other thread count. A golden snapshot of one canonical kernel's
//! statistics additionally pins the simulator against silent drift.

use quetzal::uarch::RunStats;
use quetzal::{BatchRunner, MachineConfig, MachinePool};
use quetzal_algos::pipeline::{mixed_pairs, pipeline_batch};
use quetzal_algos::Tier;
use quetzal_bench::workloads::{run_algo_pairs, Algo, Workload, SEED};
use quetzal_genomics::dataset::DatasetSpec;
use quetzal_genomics::Alphabet;

fn workload(pairs: usize) -> Workload {
    Workload {
        spec: DatasetSpec::d100(),
        pairs: DatasetSpec::d100().generate_n(SEED, pairs),
    }
}

/// Per-pair results and the merged total are bit-identical between a
/// 1-thread and a 4-thread run, for both a compute-bound aligner (WFA)
/// and the filtering kernel (SneakySnake), at every tier the
/// experiments compare.
#[test]
fn wfa_and_ss_are_thread_invariant() {
    let wl = workload(6);
    let cfg = MachineConfig::default();
    for algo in [Algo::Wfa, Algo::Ss] {
        for tier in [Tier::Vec, Tier::QuetzalC] {
            let serial = run_algo_pairs(&BatchRunner::new(1), &cfg, algo, &wl, tier);
            let parallel = run_algo_pairs(&BatchRunner::new(4), &cfg, algo, &wl, tier);
            assert_eq!(serial.len(), 6);
            assert_eq!(serial, parallel, "{algo} {tier}: per-pair results diverge");
            assert_eq!(
                RunStats::merged(&serial),
                RunStats::merged(&parallel),
                "{algo} {tier}: merged totals diverge"
            );
        }
    }
}

/// The two-stage SS→WFA pipeline (accept set, scores, and merged
/// statistics) is thread-invariant too.
#[test]
fn pipeline_is_thread_invariant() {
    let spec = DatasetSpec::d100();
    let pairs = mixed_pairs(&spec, SEED, 8, 0.5);
    let cfg = MachineConfig::default();
    let threshold = 8;
    let (r1, s1) = pipeline_batch(
        &BatchRunner::new(1),
        &cfg,
        &pairs,
        Alphabet::Dna,
        threshold,
        Tier::QuetzalC,
    )
    .expect("pipeline");
    let (r4, s4) = pipeline_batch(
        &BatchRunner::new(4),
        &cfg,
        &pairs,
        Alphabet::Dna,
        threshold,
        Tier::QuetzalC,
    )
    .expect("pipeline");
    assert_eq!(r1, r4);
    assert_eq!(s1, s4);
    assert_eq!(r1.accepted + r1.rejected, 8);
}

/// Graceful degradation is thread-invariant: with K of N items
/// faulting, the healthy items' per-item `RunStats` and their merged
/// total are bit-identical between 1 and 4 threads, and the failure
/// list is stable, ordered by item index, and carries the typed cause.
#[test]
fn faulting_items_are_thread_invariant() {
    use quetzal::{FailureCause, ItemFailure, SimError};
    use quetzal_isa::{ProgramBuilder, SAluOp, X0};

    let cfg = MachineConfig::default();
    let items: Vec<i64> = (0..12).collect();
    let faulty = |i: usize| i % 5 == 3; // items 3 and 8
    let run = |threads: usize| {
        let runner = BatchRunner::new(threads);
        let pool = MachinePool::new(&cfg, runner.exec_mode());
        runner
            .run_machines_report_pooled(&pool, &items, |m, i, &x| {
                let mut b = ProgramBuilder::new();
                let top = b.label();
                b.mov_imm(X0, x);
                b.alu_ri(SAluOp::Mul, X0, X0, 3);
                if faulty(i) {
                    b.bind(top);
                    b.jump(top); // spin until the instruction budget
                    m.core_mut().set_budget(64);
                }
                b.halt();
                let stats = m.run(&b.build().expect("kernel"))?;
                Ok((m.core().state().x(X0), stats))
            })
            .expect("infrastructure")
    };

    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.results, parallel.results, "per-item results diverge");
    assert_eq!(serial.failures, parallel.failures, "failure lists diverge");

    // Healthy items: present, correct, and merged totals identical.
    let healthy_stats = |report: &quetzal::RunReport<(u64, RunStats)>| {
        report
            .healthy()
            .map(|(_, (_, s))| s.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(serial.healthy().count(), 10);
    for (i, (value, _)) in serial.healthy() {
        assert_eq!(*value, 3 * i as u64, "healthy item {i} result");
    }
    assert_eq!(
        RunStats::merged(&healthy_stats(&serial)),
        RunStats::merged(&healthy_stats(&parallel)),
        "merged healthy totals diverge"
    );

    // Failures: ordered by item index with the typed cause.
    let expect_failure = |item: usize| ItemFailure {
        item,
        cause: FailureCause::Sim(SimError::InstLimit { budget: 64 }),
        recovered: false,
    };
    assert_eq!(serial.failures, vec![expect_failure(3), expect_failure(8)]);
    assert!(serial.results[3].is_none() && serial.results[8].is_none());
}

/// Golden snapshot: every statistic of the canonical kernel (WFA at
/// QUETZAL+C tier, first 100 bp Table II pair, default machine). If an
/// intentional simulator change moves these numbers, re-record them —
/// any *unintentional* diff here means simulation results silently
/// changed.
#[test]
fn canonical_kernel_stats_snapshot() {
    let wl = workload(1);
    let cfg = MachineConfig::default();
    let stats = run_algo_pairs(&BatchRunner::new(1), &cfg, Algo::Wfa, &wl, Tier::QuetzalC);
    let want = RunStats {
        cycles: 750,
        instructions: 398,
        uops: 398,
        mem_requests: 39,
        l1_hits: 44,
        l1_misses: 12,
        l2_misses: 12,
        dram_bytes: 768,
        prefetches: 0,
        branches: 68,
        mispredicts: 16,
        indexed_ops: 0,
        qz_accesses: 11,
        stall_cycles: [34, 67, 35, 198, 410, 6],
    };
    assert_eq!(stats, vec![want]);
}
