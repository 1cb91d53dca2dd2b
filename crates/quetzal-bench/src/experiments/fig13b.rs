//! Fig. 13b — multicore scalability of QUETZAL+C (1–16 cores).
//!
//! Paper: scaling is near-linear while working sets fit the caches and
//! bends when off-chip bandwidth saturates (long reads). We use a
//! surrogate-core model: each core runs a fixed per-core workload
//! against its 1/n share of the L2 and memory bandwidth
//! ([`CoreConfig::share_of`]), so `speedup(n) = n × T(1) / T(n)`
//! (weak-scaling form).

use crate::report::{num, Table};
use crate::workloads::{Workload, SEED};
use quetzal::uarch::CoreConfig;
use quetzal::{BatchRunner, Machine, MachineConfig};
use quetzal_algos::wfa_sim::wfa_sim;
use quetzal_algos::Tier;
use quetzal_genomics::dataset::DatasetSpec;

/// Core counts on the figure's x-axis.
const CORES: [usize; 5] = [1, 2, 4, 8, 16];

/// One surrogate core's cycles for the whole workload: one machine
/// (warm caches across pairs, like a real per-core run) with 1/n of
/// the shared resources.
fn per_core_cycles(cfg: CoreConfig, wl: &Workload) -> u64 {
    let mut machine = Machine::new(MachineConfig { core: cfg });
    let mut total = 0;
    for pair in &wl.pairs {
        let out = wfa_sim(
            &mut machine,
            pair.pattern.as_bytes(),
            pair.text.as_bytes(),
            wl.spec.alphabet,
            Tier::QuetzalC,
        )
        .expect("wfa sim");
        total += out.stats.cycles;
    }
    total
}

/// Runs the experiment.
pub fn run(scale: f64) -> Table {
    let mut t = Table::new(
        "Fig. 13b",
        "multicore scalability of WFA QUETZAL+C (speedup over 1 core)",
        &["dataset", "1", "2", "4", "8", "16"],
    );
    // A fixed per-core workload; memory pressure per core grows with n.
    let workloads: Vec<Workload> = [DatasetSpec::d100(), DatasetSpec::d30k()]
        .into_iter()
        .map(|spec| {
            let n_pairs = if spec.is_long() { 1 } else { 4 };
            let n_pairs = ((n_pairs as f64 * scale).round() as usize).max(1);
            Workload {
                pairs: spec.generate_n(SEED, n_pairs),
                spec,
            }
        })
        .collect();
    // Every (dataset, core-count) cell is an independent simulation —
    // batch all of them.
    let mut items: Vec<(usize, usize)> = Vec::new();
    for w in 0..workloads.len() {
        for n in CORES {
            items.push((w, n));
        }
    }
    let cycles = BatchRunner::from_env()
        .run(
            &items,
            || (),
            |(), _i, &(w, n)| per_core_cycles(CoreConfig::a64fx_like().share_of(n), &workloads[w]),
        )
        .expect("fig13b simulation panicked");
    for (w, wl) in workloads.iter().enumerate() {
        // share_of(1) is the unshared core, so the first cell is T(1).
        let t1 = cycles[w * CORES.len()];
        let mut row = vec![wl.spec.name.to_string()];
        for (j, n) in CORES.into_iter().enumerate() {
            let tn = cycles[w * CORES.len() + j];
            let speedup = n as f64 * t1 as f64 / tn as f64;
            row.push(num(speedup));
        }
        t.row(&row);
    }
    t.note("paper: near-linear for cache-resident working sets; long reads bend as shared L2 capacity and HBM2 bandwidth saturate");
    t
}
