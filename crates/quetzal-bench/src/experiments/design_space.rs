//! OoO design-space sweep — the Fig. 12 port ablation generalised to a
//! full core grid: dispatch/commit width × QBUFFER read ports × ROB
//! size × store-forwarding window depth.
//!
//! The timing engine's free-slot heaps (see
//! `quetzal-uarch/src/wheel.rs`) keep the per-retire cost nearly
//! independent of the configured widths, so the whole grid batches
//! through one [`BatchRunner`] prefetch and simulates in the time the
//! old linear-scan engine needed for the widest points alone. All numbers are simulated cycles — exact and
//! deterministic — so both the table and the JSON artifact are
//! byte-identical across hosts and `QUETZAL_THREADS` settings.
//!
//! The sweep is *not* part of `run_all` (whose stdout is a pinned CI
//! artifact); it has its own binary, `design_space`, which
//! `scripts/ci.sh` smokes at reduced scale.
//!
//! [`BatchRunner`]: quetzal::BatchRunner

use crate::report::{ratio, Table};
use crate::workloads::{prefetch, run_algo, table2_workloads, Algo, AlgoJob, Workload};
use quetzal::{CoreConfig, MachineConfig, QzConfig};
use quetzal_algos::Tier;
use quetzal_trace::json::Value;

/// One core design point of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPoint {
    /// Dispatch/commit width (FU pools scale proportionally, see
    /// [`CoreConfig::with_issue_width`]).
    pub width: u64,
    /// QUETZAL QBUFFER read-port configuration.
    pub qz: QzConfig,
    /// Reorder-buffer capacity.
    pub rob: usize,
    /// Store-to-load forwarding window depth.
    pub ring: usize,
}

impl GridPoint {
    /// The Table I default system as a grid point (4-wide, QZ_8P,
    /// 128-entry ROB, 40-entry store window) — the normalisation
    /// baseline of the sweep.
    pub fn baseline() -> GridPoint {
        let core = CoreConfig::a64fx_like();
        GridPoint {
            width: core.dispatch_width,
            qz: core.qz,
            rob: core.rob_size,
            ring: core.store_ring_slots,
        }
    }

    /// The [`CoreConfig`] this point describes.
    pub fn core(&self) -> CoreConfig {
        CoreConfig::a64fx_like()
            .with_issue_width(self.width)
            .with_rob(self.rob)
            .with_store_ring(self.ring)
            .with_qz(self.qz)
    }
}

/// Simulated cycles of one grid point over the sweep kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointResult {
    /// The design point.
    pub point: GridPoint,
    /// WFA (QUETZAL tier) cycles over the workload.
    pub wfa_cycles: u64,
    /// SneakySnake (QUETZAL tier) cycles over the workload.
    pub ss_cycles: u64,
}

/// The full sweep grid: 3 widths × 4 port configs × 3 ROB sizes ×
/// 2 store-window depths = 72 points, widths outermost (deterministic
/// order; the Table I baseline is a member).
pub fn grid() -> Vec<GridPoint> {
    let mut points = Vec::new();
    for &width in &[2u64, 4, 8] {
        for &qz in &[
            QzConfig::QZ_1P,
            QzConfig::QZ_2P,
            QzConfig::QZ_4P,
            QzConfig::QZ_8P,
        ] {
            for &rob in &[64usize, 128, 256] {
                for &ring in &[20usize, 40] {
                    points.push(GridPoint {
                        width,
                        qz,
                        rob,
                        ring,
                    });
                }
            }
        }
    }
    points
}

/// The sweep workload: the short-read `100bp_1` dataset (the Fig. 12
/// short-read column), scaled like every other experiment.
fn workload(scale: f64) -> Workload {
    table2_workloads(scale)
        .into_iter()
        .find(|w| w.spec.name == "100bp_1")
        .unwrap_or_else(|| panic!("table2 workloads are missing 100bp_1"))
}

/// Runs the given design points over the sweep kernels (WFA and
/// SneakySnake on `100bp_1`, QUETZAL tier), batching every simulation
/// through one [`prefetch`] so `QUETZAL_THREADS` machines fill the
/// grid in parallel.
pub fn sweep_points(scale: f64, points: &[GridPoint]) -> Vec<PointResult> {
    let cfgs: Vec<MachineConfig> = points
        .iter()
        .map(|p| MachineConfig { core: p.core() })
        .collect();
    let wl = workload(scale);
    let mut jobs: Vec<AlgoJob<'_>> = Vec::new();
    for cfg in &cfgs {
        for algo in [Algo::Wfa, Algo::Ss] {
            jobs.push((cfg, algo, &wl, Tier::Quetzal));
        }
    }
    prefetch(&jobs);
    points
        .iter()
        .zip(&cfgs)
        .map(|(&point, cfg)| PointResult {
            point,
            wfa_cycles: run_algo(cfg, Algo::Wfa, &wl, Tier::Quetzal).cycles,
            ss_cycles: run_algo(cfg, Algo::Ss, &wl, Tier::Quetzal).cycles,
        })
        .collect()
}

/// Runs the full 72-point grid.
pub fn sweep(scale: f64) -> Vec<PointResult> {
    sweep_points(scale, &grid())
}

/// The baseline point's result (panics if the baseline was not swept).
fn baseline_of(results: &[PointResult]) -> PointResult {
    let base = GridPoint::baseline();
    results
        .iter()
        .copied()
        .find(|r| r.point == base)
        .unwrap_or_else(|| panic!("sweep results are missing the Table I baseline point"))
}

/// Renders sweep results as a [`Table`], speedups normalised to the
/// Table I baseline point (values above `1.00x` are faster than the
/// default system).
pub fn table(results: &[PointResult]) -> Table {
    let mut t = Table::new(
        "Sweep",
        "OoO design-space sweep (100bp_1, QUETZAL tier; speedup vs Table I baseline)",
        &[
            "width", "qz", "rob", "ring", "WFA cyc", "SS cyc", "WFA", "SS",
        ],
    );
    let base = baseline_of(results);
    for r in results {
        t.row(&[
            r.point.width.to_string(),
            r.point.qz.ports.to_string(),
            r.point.rob.to_string(),
            r.point.ring.to_string(),
            r.wfa_cycles.to_string(),
            r.ss_cycles.to_string(),
            ratio(base.wfa_cycles as f64, r.wfa_cycles as f64),
            ratio(base.ss_cycles as f64, r.ss_cycles as f64),
        ]);
    }
    t.note(format!(
        "baseline: width {} / {} / rob {} / ring {} (Table I system)",
        base.point.width, base.point.qz.ports, base.point.rob, base.point.ring
    ));
    t
}

/// Renders sweep results as the `design_space.json` artifact.
pub fn to_json(results: &[PointResult], scale: f64) -> String {
    let base = baseline_of(results);
    let speedup = |b: u64, c: u64| {
        if c == 0 {
            0.0
        } else {
            b as f64 / c as f64
        }
    };
    let point = |p: &GridPoint| {
        [
            ("width", Value::from(p.width)),
            ("qz", Value::from(p.qz.ports.to_string())),
            ("rob", Value::from(p.rob)),
            ("ring", Value::from(p.ring)),
        ]
    };
    let points: Vec<Value> = results
        .iter()
        .map(|r| {
            let measured = [
                ("wfa_cycles", Value::from(r.wfa_cycles)),
                ("ss_cycles", Value::from(r.ss_cycles)),
                (
                    "wfa_speedup",
                    Value::from(speedup(base.wfa_cycles, r.wfa_cycles)),
                ),
                (
                    "ss_speedup",
                    Value::from(speedup(base.ss_cycles, r.ss_cycles)),
                ),
            ];
            point(&r.point).into_iter().chain(measured).collect()
        })
        .collect();
    Value::from([
        ("benchmark", Value::from("uarch-design-space")),
        ("scale", Value::from(scale)),
        ("workload", Value::from("100bp_1")),
        ("tier", Value::from("quetzal")),
        ("baseline", Value::from(point(&base.point))),
        ("points", Value::from(points)),
    ])
    .dump()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_72_unique_points_and_contains_the_baseline() {
        let g = grid();
        assert_eq!(g.len(), 3 * 4 * 3 * 2);
        for (i, a) in g.iter().enumerate() {
            for b in &g[i + 1..] {
                assert_ne!(a, b, "duplicate grid point");
            }
        }
        assert!(g.contains(&GridPoint::baseline()));
    }

    #[test]
    fn baseline_matches_table1_system() {
        let b = GridPoint::baseline();
        assert_eq!(b.width, 4);
        assert_eq!(b.qz, QzConfig::QZ_8P);
        assert_eq!(b.rob, 128);
        assert_eq!(b.ring, 40);
        assert_eq!(b.core(), CoreConfig::a64fx_like());
    }

    #[test]
    fn grid_point_core_applies_every_axis() {
        let p = GridPoint {
            width: 8,
            qz: QzConfig::QZ_2P,
            rob: 256,
            ring: 20,
        };
        let core = p.core();
        assert_eq!(core.dispatch_width, 8);
        assert_eq!(core.commit_width, 8);
        assert_eq!(core.qz, QzConfig::QZ_2P);
        assert_eq!(core.rob_size, 256);
        assert_eq!(core.store_ring_slots, 20);
        assert_eq!(core.scalar_alus, 4, "FU pools scale with width");
    }

    fn fake(point: GridPoint, wfa: u64, ss: u64) -> PointResult {
        PointResult {
            point,
            wfa_cycles: wfa,
            ss_cycles: ss,
        }
    }

    #[test]
    fn table_and_json_normalise_to_the_baseline() {
        let base = GridPoint::baseline();
        let wide = GridPoint { width: 8, ..base };
        let results = [fake(base, 1000, 2000), fake(wide, 500, 1000)];
        let t = table(&results);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][6], "1.00x");
        assert_eq!(t.rows[1][6], "2.00x");
        let j = Value::parse(&to_json(&results, 0.25)).expect("valid JSON");
        let baseline = j.get("baseline").unwrap();
        assert_eq!(baseline.get("qz").and_then(Value::as_str), Some("QZ_8P"));
        assert_eq!(baseline.get("width").and_then(Value::as_u64), Some(4));
        let points = j.get("points").and_then(Value::as_array).unwrap();
        let speedups: Vec<_> = points
            .iter()
            .map(|p| p.get("wfa_speedup").and_then(Value::as_f64).unwrap())
            .collect();
        assert_eq!(speedups, [1.0, 2.0]);
        assert_eq!(points[1].get("width").and_then(Value::as_u64), Some(8));
    }

    #[test]
    fn tiny_sweep_is_deterministic_and_orders_results_like_the_points() {
        let base = GridPoint::baseline();
        let narrow = GridPoint {
            width: 2,
            qz: QzConfig::QZ_1P,
            rob: 64,
            ring: 20,
        };
        let points = [narrow, base];
        let a = sweep_points(0.25, &points);
        let b = sweep_points(0.25, &points);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].point, narrow);
        assert_eq!(a[1].point, base);
        assert!(a.iter().all(|r| r.wfa_cycles > 0 && r.ss_cycles > 0));
        // The starved point cannot beat the Table I system.
        assert!(a[0].wfa_cycles >= a[1].wfa_cycles);
    }
}
