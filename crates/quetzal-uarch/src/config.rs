//! Simulated-system configuration (paper Table I).

use quetzal_accel::QzConfig;

/// One cache level's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Load-to-use latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity / (self.ways * self.line)
    }
}

/// Main-memory (HBM2) parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Access latency in cycles (row activation + channel).
    pub latency: u64,
    /// Aggregate bandwidth in bytes per core cycle. The A64FX's 4-channel
    /// HBM2 delivers roughly 256 GB/s per CMG; at 2 GHz that is 128 B per
    /// cycle.
    pub bytes_per_cycle: f64,
}

/// Full single-core configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Front-end dispatch width (instructions per cycle).
    pub dispatch_width: u64,
    /// Commit width (instructions per cycle).
    pub commit_width: u64,
    /// Reorder-buffer capacity.
    pub rob_size: usize,
    /// Number of scalar ALUs.
    pub scalar_alus: usize,
    /// Number of vector execution pipes.
    pub vector_fus: usize,
    /// Number of load ports (AGU + cache port).
    pub load_ports: usize,
    /// Number of store ports.
    pub store_ports: usize,
    /// Scalar ALU latency.
    pub scalar_alu_lat: u64,
    /// Scalar multiply latency.
    pub scalar_mul_lat: u64,
    /// Vector ALU latency.
    pub vector_alu_lat: u64,
    /// Vector multiply latency.
    pub vector_mul_lat: u64,
    /// Cross-lane (reduction / permute) latency.
    pub vector_horiz_lat: u64,
    /// Predicate-op latency.
    pub pred_lat: u64,
    /// Fixed overhead of cracking an indexed memory instruction into
    /// scalar requests (address generation, no LSQ coalescing, §II-G).
    /// Calibrated so an all-L1-hit 8-lane gather costs ≈ 19–22 cycles
    /// end to end, matching the A64FX/Intel numbers the paper cites.
    pub gather_crack_overhead: u64,
    /// Branch misprediction penalty (front-end refill).
    pub mispredict_penalty: u64,
    /// Penalty when a load partially overlaps an in-flight store at a
    /// different alignment (failed store-to-load forwarding — the
    /// hazard Fig. 7 shows QUETZAL removing from classical DP).
    pub store_fwd_penalty: u64,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Shared L2 cache.
    pub l2: CacheConfig,
    /// Main memory.
    pub mem: MemConfig,
    /// QUETZAL accelerator configuration attached to this core.
    pub qz: QzConfig,
    /// Stride-prefetcher aggressiveness (lines prefetched ahead); 0
    /// disables prefetching.
    pub prefetch_degree: usize,
    /// Store-to-load forwarding window depth (entries the timing model
    /// remembers when checking loads against in-flight stores).
    pub store_ring_slots: usize,
    /// QUETZAL read-issue ports on the core side (how many `qzload`s
    /// can start per cycle; the accelerator-internal port count lives
    /// in [`QzConfig`]).
    pub qz_read_ports: usize,
}

impl CoreConfig {
    /// The paper's simulated system (Table I): a 2.0 GHz A64FX-like core
    /// with 512-bit SVE, 64 KB 8-way L1D (4-cycle load-to-use), 8 MB
    /// 16-way shared L2 (37-cycle), 4-channel HBM2, and the QZ_8P
    /// QUETZAL instance.
    pub fn a64fx_like() -> CoreConfig {
        CoreConfig {
            dispatch_width: 4,
            commit_width: 4,
            rob_size: 128,
            scalar_alus: 2,
            vector_fus: 2,
            load_ports: 2,
            store_ports: 1,
            scalar_alu_lat: 1,
            scalar_mul_lat: 3,
            vector_alu_lat: 4,
            vector_mul_lat: 5,
            vector_horiz_lat: 6,
            pred_lat: 1,
            gather_crack_overhead: 12,
            mispredict_penalty: 12,
            store_fwd_penalty: 10,
            l1d: CacheConfig {
                capacity: 64 * 1024,
                ways: 8,
                line: 64,
                latency: 4,
            },
            l2: CacheConfig {
                capacity: 8 * 1024 * 1024,
                ways: 16,
                line: 64,
                latency: 37,
            },
            mem: MemConfig {
                latency: 120,
                bytes_per_cycle: 128.0,
            },
            qz: QzConfig::QZ_8P,
            prefetch_degree: 4,
            store_ring_slots: 40,
            qz_read_ports: 1,
        }
    }

    /// Same core with the dispatch/commit width set to `w` and the
    /// shared FU pools and load/store ports scaled proportionally
    /// (rounding up, minimum one unit). Used by the `design_space`
    /// sweep and the wide-config benchmark series.
    pub fn with_issue_width(mut self, w: u64) -> CoreConfig {
        let old = self.dispatch_width.max(1);
        let scale = |n: usize| (n as u64 * w).div_ceil(old).max(1) as usize;
        self.scalar_alus = scale(self.scalar_alus);
        self.vector_fus = scale(self.vector_fus);
        self.load_ports = scale(self.load_ports);
        self.store_ports = scale(self.store_ports);
        self.dispatch_width = w;
        self.commit_width = w;
        self
    }

    /// Same core with a different reorder-buffer capacity.
    pub fn with_rob(mut self, rob: usize) -> CoreConfig {
        self.rob_size = rob.max(1);
        self
    }

    /// Same core with a different store-forwarding window depth.
    pub fn with_store_ring(mut self, slots: usize) -> CoreConfig {
        self.store_ring_slots = slots.max(1);
        self
    }

    /// The wide 8-issue design point (8-wide dispatch/commit, doubled
    /// FU pools, 256-entry ROB, 80-entry store window, QZ_8P) that
    /// the engine-equivalence and latency tests run at.
    pub fn wide8() -> CoreConfig {
        CoreConfig::a64fx_like()
            .with_issue_width(8)
            .with_rob(256)
            .with_store_ring(80)
    }

    /// Same core with a different QUETZAL port configuration (used by
    /// the Fig. 12 design-space sweep).
    pub fn with_qz(mut self, qz: QzConfig) -> CoreConfig {
        self.qz = qz;
        self
    }

    /// Scales the shared-L2 capacity and memory bandwidth to this core's
    /// share when `n` cores run concurrently: the surrogate core of the
    /// Fig. 13b multicore scaling model.
    pub fn share_of(mut self, n: usize) -> CoreConfig {
        assert!(n > 0, "core count must be positive");
        // Keep at least one way and a sane minimum capacity.
        let cap = (self.l2.capacity / n).max(self.l2.line * self.l2.ways);
        self.l2.capacity = cap;
        self.mem.bytes_per_cycle /= n as f64;
        self
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::a64fx_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameters() {
        let c = CoreConfig::a64fx_like();
        assert_eq!(c.l1d.capacity, 64 * 1024);
        assert_eq!(c.l1d.ways, 8);
        assert_eq!(c.l1d.latency, 4);
        assert_eq!(c.l2.capacity, 8 * 1024 * 1024);
        assert_eq!(c.l2.latency, 37);
        assert_eq!(c.qz, QzConfig::QZ_8P);
    }

    #[test]
    fn cache_sets() {
        let c = CoreConfig::a64fx_like();
        assert_eq!(c.l1d.sets(), 64 * 1024 / (8 * 64));
    }

    #[test]
    fn issue_width_scales_pools() {
        let c = CoreConfig::a64fx_like().with_issue_width(8);
        assert_eq!(c.dispatch_width, 8);
        assert_eq!(c.commit_width, 8);
        assert_eq!(c.scalar_alus, 4);
        assert_eq!(c.vector_fus, 4);
        assert_eq!(c.load_ports, 4);
        assert_eq!(c.store_ports, 2);
        let narrow = CoreConfig::a64fx_like().with_issue_width(1);
        assert_eq!(narrow.store_ports, 1, "pools never scale below one");
        let w = CoreConfig::wide8();
        assert_eq!(w.rob_size, 256);
        assert_eq!(w.store_ring_slots, 80);
    }

    #[test]
    fn share_of_divides_resources() {
        let c = CoreConfig::a64fx_like().share_of(16);
        assert_eq!(c.l2.capacity, 512 * 1024);
        assert!((c.mem.bytes_per_cycle - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn share_of_zero_panics() {
        let _ = CoreConfig::a64fx_like().share_of(0);
    }

    /// Speedup at 1, 2, 4, 8 cores of a workload split into `n` equal
    /// shards, one surrogate core per count running shard 0 against its
    /// `share_of(n)` of the shared resources.
    fn speedups(cfg: &CoreConfig, shard: impl Fn(usize) -> quetzal_isa::Program) -> Vec<f64> {
        let cycles: Vec<u64> = [1, 2, 4, 8]
            .into_iter()
            .map(|n| {
                let mut core = crate::Core::new(cfg.clone().share_of(n));
                core.run(&shard(n)).unwrap().cycles.max(1)
            })
            .collect();
        cycles
            .iter()
            .map(|&c| cycles[0] as f64 / c as f64)
            .collect()
    }

    /// A trivially parallel compute workload: speedup should be ~linear.
    #[test]
    fn compute_bound_workload_scales_linearly() {
        use quetzal_isa::*;
        let s = speedups(&CoreConfig::a64fx_like(), |shards| {
            let iters = 8000 / shards as i64;
            let mut b = ProgramBuilder::new();
            let top = b.label();
            b.mov_imm(X0, 0);
            b.mov_imm(X2, iters);
            b.bind(top);
            b.alu_ri(SAluOp::Add, X0, X0, 1);
            b.branch(BranchCond::Lt, X0, X2, top);
            b.halt();
            b.build().unwrap()
        });
        assert!(s[3] > 5.0, "compute-bound speedup at 8 cores: {}", s[3]);
    }

    /// A streaming workload larger than the L2 share: bandwidth division
    /// must bend the curve away from linear.
    #[test]
    fn bandwidth_bound_workload_saturates() {
        use quetzal_isa::*;
        let mut cfg = CoreConfig::a64fx_like();
        // Make bandwidth scarce so the effect is visible at small scale.
        cfg.mem.bytes_per_cycle = 4.0;
        cfg.prefetch_degree = 0;
        let total_bytes = 4 << 20; // 4 MiB stream
        let s = speedups(&cfg, |shards| {
            let lines = (total_bytes / shards / 64) as i64;
            let mut b = ProgramBuilder::new();
            let top = b.label();
            b.mov_imm(X0, 0);
            b.mov_imm(X1, 1 << 26);
            b.mov_imm(X2, lines);
            b.bind(top);
            b.load(X3, X1, 0, MemSize::B8);
            b.alu_ri(SAluOp::Add, X1, X1, 64);
            b.alu_ri(SAluOp::Add, X0, X0, 1);
            b.branch(BranchCond::Lt, X0, X2, top);
            b.halt();
            b.build().unwrap()
        });
        assert!(
            s[3] < 6.0,
            "bandwidth-bound speedup must be sub-linear at 8 cores: {}",
            s[3]
        );
    }
}
