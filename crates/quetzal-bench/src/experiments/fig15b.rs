//! Fig. 15b — QUETZAL beyond genomics: SpMV and histogram speedups
//! over their vectorised implementations (paper: 1.94× and 3.02×).

use crate::report::{ratio, Table};
use quetzal::{BatchRunner, MachineConfig, MachinePool};
use quetzal_algos::histogram::histogram_sim;
use quetzal_algos::spmv::{spmv_sim, CsrMatrix};
use quetzal_algos::Tier;
use quetzal_genomics::dataset::SplitMix64;

/// Runs the experiment.
pub fn run(scale: f64) -> Table {
    let mut t = Table::new(
        "Fig. 15b",
        "other application domains: QUETZAL speedup over VEC",
        &["kernel", "size", "VEC cycles", "QUETZAL cycles", "speedup"],
    );

    // SpMV: dense rows so the staging amortises (typical sparse suites).
    let rows = ((60.0 * scale) as usize).max(20);
    let a = CsrMatrix::random(rows, 512, 160, 23);
    let mut rng = SplitMix64::new(24);
    let x: Vec<i64> = (0..512).map(|_| rng.below(1 << 12) as i64).collect();

    // Histogram.
    let n = ((4000.0 * scale) as usize).max(1000);
    let bins = 128;
    let vals: Vec<u8> = {
        let mut rng = SplitMix64::new(31);
        (0..n).map(|_| rng.below(bins as u64) as u8).collect()
    };

    // The four kernel/tier simulations are independent — batch them.
    let items = [
        ("spmv", Tier::Vec),
        ("spmv", Tier::Quetzal),
        ("hist", Tier::Vec),
        ("hist", Tier::Quetzal),
    ];
    let runner = BatchRunner::from_env();
    let pool = MachinePool::new(&MachineConfig::default(), runner.exec_mode());
    let cycles = runner
        .run(
            &items,
            || pool.checkout(),
            |p, _i, &(kernel, tier)| match kernel {
                "spmv" => {
                    spmv_sim(p.machine(), &a, &x, tier)
                        .expect("spmv sim")
                        .0
                        .stats
                        .cycles
                }
                _ => {
                    histogram_sim(p.machine(), &vals, bins, tier)
                        .expect("hist sim")
                        .0
                        .stats
                        .cycles
                }
            },
        )
        .expect("fig15b simulation panicked");

    t.row(&[
        "SpMV".into(),
        format!("{} nnz", a.nnz()),
        cycles[0].to_string(),
        cycles[1].to_string(),
        ratio(cycles[0] as f64, cycles[1] as f64),
    ]);
    t.row(&[
        "histogram".into(),
        format!("{n} elems / {bins} bins"),
        cycles[2].to_string(),
        cycles[3].to_string(),
        ratio(cycles[2] as f64, cycles[3] as f64),
    ]);

    t.note("paper: SpMV 1.94x, histogram 3.02x");
    t
}
