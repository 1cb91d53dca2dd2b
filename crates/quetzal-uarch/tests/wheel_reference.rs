//! Differential pin of the event-driven timing engine against a
//! verbatim reference model built from the seed's linear-scan
//! structures.
//!
//! `OooTiming` now tracks FU pools as calendar-queue timing wheels, the
//! store-forwarding window behind a granule index, and the ROB as a
//! fixed ring (`quetzal_uarch::wheel`). The golden tests pin it on the
//! in-tree kernels; this suite pins it on *adversarial randomized
//! schedules* — seeded micro-op streams with deliberately colliding
//! addresses (clean and misaligned store-to-load forwarding, replay),
//! predictor-aliasing pcs, huge operand-arrival jumps (wheel rotation
//! and overflow), tiny ROB/store-window configs, and cycle-budget
//! exhaustion edges — by re-implementing the seed engine's exact retire
//! logic over `Vec` min-scans, a scan-everything store ring and a
//! `VecDeque` ROB, and asserting `RunStats` equality retire-for-retire.
//!
//! The RNG is an in-tree SplitMix64 (the repo holds a zero-dependency
//! line); every case is seeded and reproducible.

use std::collections::VecDeque;

use quetzal_isa::{InstClass, Reg};
use quetzal_uarch::cache::MemSystem;
use quetzal_uarch::ooo::{DynInst, OooTiming};
use quetzal_uarch::predecode::{FuClass, MicroOp, NO_DEF};
use quetzal_uarch::{CoreConfig, RunStats, StallCat};

const BPRED_ENTRIES: usize = 4096;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The seed engine, reconstructed verbatim over linear structures.
/// Every method mirrors the corresponding seed `OooTiming` code path
/// line for line; only the data structures differ from the shipped
/// engine.
struct RefEngine {
    cfg: CoreConfig,
    mem: MemSystem,
    reg_ready: [u64; Reg::FLAT_COUNT],
    reg_taint: [StallCat; Reg::FLAT_COUNT],
    front_cycle: u64,
    front_slots: u64,
    fetch_resume: u64,
    fu_scalar: Vec<u64>,
    fu_vector: Vec<u64>,
    load_ports: Vec<u64>,
    store_ports: Vec<u64>,
    gather_pipe: u64,
    qz_ports: Vec<u64>,
    store_slots: Vec<(u64, u32, u64)>,
    store_len: usize,
    store_head: usize,
    rob: VecDeque<u64>,
    commit_cycle: u64,
    commit_slots: u64,
    run_start_cycle: u64,
    cycle_budget: u64,
    bpred: Box<[u8; BPRED_ENTRIES]>,
    stats: RunStats,
}

impl RefEngine {
    fn new(cfg: CoreConfig) -> RefEngine {
        let mem = MemSystem::new(&cfg);
        RefEngine {
            fu_scalar: vec![0; cfg.scalar_alus.max(1)],
            fu_vector: vec![0; cfg.vector_fus.max(1)],
            load_ports: vec![0; cfg.load_ports.max(1)],
            store_ports: vec![0; cfg.store_ports.max(1)],
            gather_pipe: 0,
            qz_ports: vec![0; cfg.qz_read_ports.max(1)],
            store_slots: vec![(0, 0, 0); cfg.store_ring_slots.max(1)],
            store_len: 0,
            store_head: 0,
            mem,
            cfg,
            reg_ready: [0; Reg::FLAT_COUNT],
            reg_taint: [StallCat::Base; Reg::FLAT_COUNT],
            front_cycle: 0,
            front_slots: 0,
            fetch_resume: 0,
            rob: VecDeque::new(),
            commit_cycle: 0,
            commit_slots: 0,
            run_start_cycle: 0,
            cycle_budget: u64::MAX,
            bpred: Box::new([1u8; BPRED_ENTRIES]),
            stats: RunStats::default(),
        }
    }

    fn begin_run(&mut self) {
        self.stats = RunStats::default();
        self.run_start_cycle = self.commit_cycle;
        self.front_cycle = self.front_cycle.max(self.commit_cycle);
        self.front_slots = 0;
        self.fetch_resume = self.fetch_resume.max(self.commit_cycle);
    }

    fn end_run(&mut self) -> RunStats {
        let mut stats = std::mem::take(&mut self.stats);
        stats.cycles = self.commit_cycle - self.run_start_cycle;
        let attributed: u64 = stats.stall_cycles.iter().skip(1).sum();
        stats.stall_cycles[StallCat::Base.index()] = stats.cycles.saturating_sub(attributed);
        stats
    }

    fn budget_exceeded(&self) -> Option<u64> {
        (self.commit_cycle - self.run_start_cycle > self.cycle_budget).then_some(self.cycle_budget)
    }

    fn alloc_unit(units: &mut [u64], at: u64, busy: u64) -> u64 {
        let mut best = 0;
        for (i, &t) in units.iter().enumerate() {
            if t < units[best] {
                best = i;
            }
        }
        let start = units[best].max(at);
        units[best] = start + busy;
        start
    }

    fn dispatch(&mut self) -> u64 {
        let mut floor = self.fetch_resume;
        if self.rob.len() >= self.cfg.rob_size {
            if let Some(oldest) = self.rob.pop_front() {
                floor = floor.max(oldest);
            }
        }
        if floor > self.front_cycle {
            self.front_cycle = floor;
            self.front_slots = 0;
        }
        if self.front_slots >= self.cfg.dispatch_width {
            self.front_cycle += 1;
            self.front_slots = 0;
        }
        self.front_slots += 1;
        self.front_cycle
    }

    fn commit(&mut self, completion: u64, cat: StallCat, extra_commit_busy: u64) {
        if self.commit_slots >= self.cfg.commit_width {
            self.commit_cycle += 1;
            self.commit_slots = 0;
        }
        let ideal = self.commit_cycle;
        let commit_at = ideal.max(completion);
        if commit_at > ideal {
            self.stats.stall_cycles[cat.index()] += commit_at - ideal;
            self.commit_cycle = commit_at;
            self.commit_slots = 0;
        }
        self.commit_slots += 1;
        if extra_commit_busy > 0 {
            self.stats.stall_cycles[StallCat::Quetzal.index()] += extra_commit_busy;
            self.commit_cycle += extra_commit_busy;
            self.commit_slots = 0;
        }
        self.rob.push_back(self.commit_cycle);
        if self.rob.len() > self.cfg.rob_size {
            self.rob.pop_front();
        }
    }

    fn operands_ready(&self, uop: &MicroOp) -> (u64, StallCat) {
        let mut t = 0;
        let mut cat = StallCat::Frontend;
        for &u in uop.uses() {
            let i = u as usize;
            if self.reg_ready[i] >= t {
                t = self.reg_ready[i];
                cat = self.reg_taint[i];
            }
        }
        (t, cat)
    }

    fn set_defs(&mut self, uop: &MicroOp, ready: u64, cat: StallCat) {
        if uop.def != NO_DEF {
            let i = uop.def as usize;
            self.reg_ready[i] = ready;
            self.reg_taint[i] = cat;
        }
    }

    fn forwarding_hazard(&self, addr: u64, size: u32) -> (u64, bool) {
        let mut floor = 0;
        let mut replay = false;
        for &(sa, ss, done) in &self.store_slots[..self.store_len] {
            let overlap =
                addr < sa.saturating_add(ss as u64) && sa < addr.saturating_add(size as u64);
            if !overlap {
                continue;
            }
            if sa == addr && ss == size {
                floor = floor.max(done);
            } else {
                floor = floor.max(done + self.cfg.store_fwd_penalty);
                replay = true;
            }
        }
        (floor, replay)
    }

    fn record_store(&mut self, addr: u64, size: u32, done: u64) {
        let cap = self.store_slots.len();
        self.store_slots[self.store_head] = (addr, size, done);
        self.store_head = (self.store_head + 1) % cap;
        self.store_len = (self.store_len + 1).min(cap);
    }

    fn compute_pool(&mut self, fu: FuClass) -> &mut [u64] {
        match fu {
            FuClass::Scalar => &mut self.fu_scalar,
            FuClass::Vector => &mut self.fu_vector,
            _ => panic!("not a shared compute pool: {fu:?}"),
        }
    }

    fn predict(&mut self, pc: usize, taken: bool) -> bool {
        let idx = pc % BPRED_ENTRIES;
        let predicted = self.bpred[idx] >= 2;
        if taken {
            self.bpred[idx] = (self.bpred[idx] + 1).min(3);
        } else {
            self.bpred[idx] = self.bpred[idx].saturating_sub(1);
        }
        predicted == taken
    }

    fn retire(&mut self, uop: &MicroOp, d: &DynInst) {
        let class = uop.class;
        let dispatched = self.dispatch();
        let (ops_ready, ops_cat) = self.operands_ready(uop);
        let ready_at = dispatched.max(ops_ready);
        self.stats.instructions += 1;
        self.stats.uops += 1;

        let (completion, cat, extra_commit) = match class {
            InstClass::ScalarAlu | InstClass::ScalarMul => {
                let lat = if class == InstClass::ScalarMul {
                    self.cfg.scalar_mul_lat
                } else {
                    self.cfg.scalar_alu_lat
                };
                let start = Self::alloc_unit(self.compute_pool(uop.fu), ready_at, 1);
                let cat = if ops_ready > dispatched {
                    ops_cat
                } else {
                    StallCat::ScalarCompute
                };
                (start + lat, cat, 0)
            }
            InstClass::Branch => {
                self.stats.branches += 1;
                let start = Self::alloc_unit(self.compute_pool(uop.fu), ready_at, 1);
                let completion = start + self.cfg.scalar_alu_lat;
                if uop.is_cond_branch && !self.predict(d.pc, d.taken) {
                    self.stats.mispredicts += 1;
                    self.fetch_resume = completion + self.cfg.mispredict_penalty;
                }
                let cat = if ops_ready > dispatched {
                    ops_cat
                } else {
                    StallCat::Frontend
                };
                (completion, cat, 0)
            }
            InstClass::ScalarLoad | InstClass::VectorLoad => {
                let start = Self::alloc_unit(&mut self.load_ports, ready_at, 1);
                let mut done = start;
                for &(addr, size) in &d.mem {
                    self.stats.mem_requests += 1;
                    done = done.max(self.mem.access(
                        d.pc as u64,
                        addr,
                        size as usize,
                        false,
                        start,
                        &mut self.stats,
                    ));
                    let (floor, replay) = self.forwarding_hazard(addr, size);
                    if replay {
                        let r = Self::alloc_unit(&mut self.load_ports, start, 1);
                        done = done.max(r + self.mem.l1_latency());
                    }
                    done = done.max(floor);
                }
                (done.max(start + 1), StallCat::Memory, 0)
            }
            InstClass::ScalarStore | InstClass::VectorStore => {
                let start = Self::alloc_unit(&mut self.store_ports, ready_at, 1);
                let mut done = start;
                for &(addr, size) in &d.mem {
                    self.stats.mem_requests += 1;
                    done = done.max(self.mem.access(
                        d.pc as u64,
                        addr,
                        size as usize,
                        true,
                        start,
                        &mut self.stats,
                    ));
                }
                for &(addr, size) in &d.mem {
                    self.record_store(addr, size, done);
                }
                (done.max(start + 1), StallCat::Memory, 0)
            }
            InstClass::Gather | InstClass::Scatter => {
                self.stats.indexed_ops += 1;
                let is_store = class == InstClass::Scatter;
                let start = ready_at + self.cfg.gather_crack_overhead;
                let mut done = start;
                for &(addr, size) in &d.mem {
                    let at = self.gather_pipe.max(start);
                    self.gather_pipe = at + 1;
                    self.stats.mem_requests += 1;
                    self.stats.uops += 1;
                    done = done.max(self.mem.access(
                        d.pc as u64,
                        addr,
                        size as usize,
                        is_store,
                        at,
                        &mut self.stats,
                    ));
                }
                (done.max(start + 1), StallCat::Memory, 0)
            }
            InstClass::VectorAlu | InstClass::VectorMul | InstClass::VectorHorizontal => {
                let lat = match class {
                    InstClass::VectorMul => self.cfg.vector_mul_lat,
                    InstClass::VectorHorizontal => self.cfg.vector_horiz_lat,
                    _ => self.cfg.vector_alu_lat,
                };
                let start = Self::alloc_unit(self.compute_pool(uop.fu), ready_at, 1);
                let cat = if ops_ready > dispatched {
                    ops_cat
                } else {
                    StallCat::VectorCompute
                };
                (start + lat, cat, 0)
            }
            InstClass::Predicate => {
                let start = Self::alloc_unit(self.compute_pool(uop.fu), ready_at, 1);
                let cat = if ops_ready > dispatched {
                    ops_cat
                } else {
                    StallCat::ScalarCompute
                };
                (start + self.cfg.pred_lat, cat, 0)
            }
            InstClass::QzRead => {
                self.stats.qz_accesses += 1;
                let start = Self::alloc_unit(&mut self.qz_ports, ready_at, 1);
                (start + d.qz_latency, StallCat::Quetzal, 0)
            }
            InstClass::QzCountOp => {
                let start = Self::alloc_unit(self.compute_pool(uop.fu), ready_at, 1);
                (start + d.qz_latency.max(1), StallCat::VectorCompute, 0)
            }
            InstClass::QzWrite | InstClass::QzConfig => {
                self.stats.qz_accesses += 1;
                (ready_at, StallCat::Quetzal, d.qz_latency.saturating_sub(1))
            }
            InstClass::Halt => (ready_at, StallCat::Frontend, 0),
        };

        self.set_defs(uop, completion, cat);
        self.commit(completion, cat, extra_commit);
    }
}

/// Builds a synthetic micro-op + dynamic record for a weighted-random
/// instruction class. Addresses are drawn from a small arena so loads
/// collide with in-flight stores both cleanly (same address and size)
/// and misaligned (replay path); pcs alias the predictor table.
fn random_inst(rng: &mut Rng) -> (MicroOp, DynInst) {
    let class = match rng.below(20) {
        0..=4 => InstClass::ScalarAlu,
        5 => InstClass::ScalarMul,
        6..=7 => InstClass::Branch,
        8..=10 => InstClass::ScalarLoad,
        11 => InstClass::VectorLoad,
        12..=13 => InstClass::ScalarStore,
        14 => InstClass::VectorStore,
        15 => InstClass::Gather,
        16 => InstClass::VectorAlu,
        17 => InstClass::QzRead,
        18 => InstClass::QzWrite,
        _ => InstClass::Predicate,
    };
    let fu = match class {
        InstClass::ScalarAlu | InstClass::ScalarMul | InstClass::Branch | InstClass::Predicate => {
            FuClass::Scalar
        }
        InstClass::VectorAlu => FuClass::Vector,
        InstClass::ScalarLoad | InstClass::VectorLoad => FuClass::Load,
        InstClass::ScalarStore | InstClass::VectorStore => FuClass::Store,
        InstClass::Gather => FuClass::GatherPipe,
        InstClass::QzRead => FuClass::QzPort,
        _ => FuClass::None,
    };
    let n_uses = rng.below(3) as u8;
    let mut uses = [0u8; 4];
    for u in uses.iter_mut().take(n_uses as usize) {
        *u = rng.below(Reg::FLAT_COUNT as u64 / 2) as u8;
    }
    let def = if rng.below(3) == 0 {
        NO_DEF
    } else {
        rng.below(Reg::FLAT_COUNT as u64 / 2) as u8
    };
    let uop = MicroOp {
        class,
        fu,
        n_uses,
        uses,
        def,
        is_cond_branch: class == InstClass::Branch,
        touches_mem: matches!(
            class,
            InstClass::ScalarLoad
                | InstClass::ScalarStore
                | InstClass::VectorLoad
                | InstClass::VectorStore
                | InstClass::Gather
        ),
    };

    let mut d = DynInst {
        pc: rng.below(2 * BPRED_ENTRIES as u64) as usize,
        ..DynInst::default()
    };
    d.taken = rng.below(2) == 0;
    // Address arena: 64 base slots 8 bytes apart, with occasional ±4
    // jitter and mixed sizes so loads hit clean forwards, misaligned
    // overlaps (replay) and misses against the store window. A rare
    // far-away address lands in cold cache lines (big latency jumps —
    // wheel rotation and overflow stress).
    let gen_access = |rng: &mut Rng| -> (u64, u32) {
        let base = 0x4000 + rng.below(64) * 8;
        let addr = match rng.below(8) {
            0 => base + 4,
            1 => base.saturating_sub(3),
            2 => 0x40_0000 + rng.below(1 << 14) * 64,
            _ => base,
        };
        let size = match rng.below(8) {
            0 => 64,
            1 => 13,
            2 => 4,
            _ => 8,
        };
        (addr, size)
    };
    match class {
        InstClass::ScalarLoad | InstClass::ScalarStore => {
            d.mem.push(gen_access(rng));
        }
        InstClass::VectorLoad | InstClass::VectorStore => {
            for _ in 0..=rng.below(2) {
                d.mem.push(gen_access(rng));
            }
        }
        InstClass::Gather => {
            for _ in 0..8 {
                d.mem.push(gen_access(rng));
            }
        }
        InstClass::QzRead | InstClass::QzWrite => {
            d.qz_latency = rng.below(12);
        }
        _ => {}
    }
    (uop, d)
}

/// Drives the shipped engine and the reference through an identical
/// seeded schedule (two back-to-back runs, warm state in between) and
/// asserts retire-for-retire budget agreement plus `RunStats` equality.
fn assert_engines_agree(cfg: CoreConfig, seed: u64, n: usize, budget: Option<u64>) {
    let mut t = OooTiming::new(cfg.clone());
    let mut r = RefEngine::new(cfg);
    if let Some(b) = budget {
        t.set_cycle_budget(b);
        r.cycle_budget = b;
    }
    for run in 0..2 {
        let mut rng = Rng(seed ^ (run as u64) << 48);
        t.begin_run();
        r.begin_run();
        for i in 0..n {
            let (uop, d) = random_inst(&mut rng);
            t.retire(&uop, &d);
            r.retire(&uop, &d);
            assert_eq!(
                t.cycle_budget_exceeded(),
                r.budget_exceeded(),
                "budget check diverged (seed {seed} run {run} inst {i})"
            );
        }
        let st = t.end_run();
        let sr = r.end_run();
        assert_eq!(st, sr, "RunStats diverged (seed {seed} run {run})");
        assert_eq!(t.now(), r.commit_cycle, "clock diverged (seed {seed})");
    }
}

#[test]
fn default_config_matches_reference() {
    for seed in 0..8 {
        assert_engines_agree(CoreConfig::a64fx_like(), seed, 3000, None);
    }
}

#[test]
fn wide_config_matches_reference() {
    for seed in 0..4 {
        assert_engines_agree(CoreConfig::wide8(), 0x81DE ^ seed, 3000, None);
    }
}

#[test]
fn stress_config_matches_reference() {
    // Tiny structures force constant eviction, ROB backpressure and
    // store-window wraparound; extra QZ ports exercise the multi-unit
    // wheel on the QzRead path.
    let mut cfg = CoreConfig::a64fx_like()
        .with_issue_width(1)
        .with_rob(2)
        .with_store_ring(2);
    cfg.qz_read_ports = 2;
    cfg.store_fwd_penalty = 3;
    for seed in 0..4 {
        assert_engines_agree(cfg.clone(), 0x57E55 ^ seed, 2000, None);
    }
}

#[test]
fn budget_exhaustion_edges_match_reference() {
    // Small budgets so the watchdog fires mid-schedule; both engines
    // must report the identical exceeded state after every retire and
    // identical stats for the completed part.
    for budget in [0, 1, 17, 500] {
        assert_engines_agree(CoreConfig::a64fx_like(), 0xB0D6E7, 600, Some(budget));
    }
}

#[test]
fn reset_replays_bit_identically() {
    // reset() must restore cold boot exactly: the same schedule replayed
    // after reset produces the stats a fresh engine produces.
    let cfg = CoreConfig::a64fx_like();
    let schedule: Vec<(MicroOp, DynInst)> = {
        let mut rng = Rng(0x5EED);
        (0..1500).map(|_| random_inst(&mut rng)).collect()
    };
    let run = |t: &mut OooTiming| {
        t.begin_run();
        for (uop, d) in &schedule {
            t.retire(uop, d);
        }
        t.end_run()
    };
    let mut warm = OooTiming::new(cfg.clone());
    let first = run(&mut warm);
    warm.reset();
    let replay = run(&mut warm);
    assert_eq!(first, replay, "reset engine must replay identically");
    let mut fresh = OooTiming::new(cfg);
    assert_eq!(run(&mut fresh), replay, "reset must equal a fresh engine");
}
