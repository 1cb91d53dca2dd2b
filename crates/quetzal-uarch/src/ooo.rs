//! Out-of-order timing model.
//!
//! The interpreter ([`crate::interp`]) executes instructions functionally
//! and streams [`DynInst`] records into this model, which computes when
//! each instruction would dispatch, issue, complete and commit on an
//! A64FX-like out-of-order core. The model captures exactly the effects
//! the paper's analysis rests on:
//!
//! * **dataflow timing with renaming** — an instruction issues when its
//!   youngest source operand is ready and a functional unit of its class
//!   is free (WAW/WAR hazards are removed, as register renaming would);
//! * **bounded reorder buffer** — dispatch stalls when the ROB is full,
//!   so long-latency memory operations back-pressure the front end;
//! * **limited load/store ports** and **gather/scatter cracking**: an
//!   indexed memory instruction becomes one cache access per active
//!   lane, issued through the load ports with a fixed crack overhead, so
//!   an all-L1-hit 8-lane gather costs ≈ 20 cycles (§II-G cites 19–22);
//! * **commit-time execution of QBUFFER writes** (`qzstore`/`qzencode`,
//!   §IV-E): they occupy the commit stage for their bank-conflict
//!   latency;
//! * **stall attribution** — every cycle of the final run time is
//!   attributed to a [`StallCat`], with memory-ness propagated through
//!   dependence chains, regenerating the Fig. 4 breakdown.

use crate::cache::MemSystem;
use crate::config::CoreConfig;
use crate::predecode::{FuClass, MicroOp, NO_DEF};
use crate::probe::{MemLevelMix, NullProbe, Probe, RetireEvent};
use crate::stats::{RunStats, StallCat};
use crate::wheel::{FreeWheel, RobRing, StoreIndex};
use quetzal_isa::{InstClass, Reg};

/// One dynamic instruction record produced by the functional
/// interpreter.
#[derive(Debug, Clone, Default)]
pub struct DynInst {
    /// Static program counter (instruction index).
    pub pc: usize,
    /// Whether a conditional branch was taken.
    pub taken: bool,
    /// Demand memory accesses: `(address, bytes)`. Unit-stride vector
    /// accesses carry a single entry covering the whole range;
    /// gather/scatter carry one entry per active lane.
    pub mem: Vec<(u64, u32)>,
    /// Latency determined functionally for QUETZAL operations
    /// (port-limited reads, bank-conflict writes, count-ALU depth).
    pub qz_latency: u64,
}

impl DynInst {
    /// Resets the record for reuse (avoids reallocating `mem`).
    pub fn reset(&mut self, pc: usize) {
        self.pc = pc;
        self.taken = false;
        self.mem.clear();
        self.qz_latency = 0;
    }
}

const BPRED_ENTRIES: usize = 4096;

/// The out-of-order timing engine. State (caches, predictor, clock)
/// persists across kernel submissions so a workload composed of many
/// kernels sees warm caches, exactly as consecutive function calls on
/// real hardware would.
///
/// Generic over a [`Probe`]; the default [`NullProbe`] disables every
/// observation site at compile time (see [`crate::probe`]).
#[derive(Debug, Clone)]
pub struct OooTiming<P: Probe = NullProbe> {
    cfg: CoreConfig,
    /// The memory hierarchy.
    pub mem: MemSystem,
    reg_ready: [u64; Reg::FLAT_COUNT],
    reg_taint: [StallCat; Reg::FLAT_COUNT],
    // Front end.
    front_cycle: u64,
    front_slots: u64,
    fetch_resume: u64,
    // Functional units / ports, tracked as timing wheels of "slot free
    // at cycle" events (see [`crate::wheel`]); allocation cost is
    // independent of the configured pool width.
    fu_scalar: FreeWheel,
    fu_vector: FreeWheel,
    load_ports: FreeWheel,
    store_ports: FreeWheel,
    // Dedicated indexed-access (gather/scatter) pipe: the A64FX cracks
    // memory-indexed SVE operations into a serial element stream through
    // a single pipeline, which is why their latency is >= 19 cycles even
    // on L1 hits (paper SII-G).
    gather_pipe: u64,
    qz_port: FreeWheel,
    // Recent stores for the store-to-load forwarding hazard model,
    // granule-indexed so a load consults only the stores near its
    // address instead of the whole window.
    store_buffer: StoreIndex,
    // In-order commit. Capacity rob_size + 1: commit pushes before its
    // conditional pop, so the ring momentarily holds one extra entry.
    rob: RobRing,
    commit_cycle: u64,
    commit_slots: u64,
    run_start_cycle: u64,
    /// Per-run cycle watchdog (see [`OooTiming::cycle_budget_exceeded`]).
    cycle_budget: u64,
    // Branch predictor: 2-bit saturating counters (fixed table, boxed
    // so `OooTiming` itself stays small and clones stay cheap-ish).
    bpred: Box<[u8; BPRED_ENTRIES]>,
    stats: RunStats,
    probe: P,
}

impl OooTiming {
    /// Creates a timing engine for a core configuration (no probe).
    pub fn new(cfg: CoreConfig) -> OooTiming {
        OooTiming::with_probe(cfg, NullProbe)
    }
}

impl<P: Probe> OooTiming<P> {
    /// Creates a timing engine with an attached observation probe.
    pub fn with_probe(cfg: CoreConfig, probe: P) -> OooTiming<P> {
        let mem = MemSystem::new(&cfg);
        // Commit pushes before its conditional pop, so the ring must
        // hold one entry beyond the architectural ROB size.
        let rob = RobRing::new(cfg.rob_size.saturating_add(1));
        OooTiming {
            // Zero-width pools in a hand-built config would deadlock
            // allocation; `FreeWheel` clamps to one unit so any config
            // simulates.
            fu_scalar: FreeWheel::new(cfg.scalar_alus),
            fu_vector: FreeWheel::new(cfg.vector_fus),
            load_ports: FreeWheel::new(cfg.load_ports),
            store_ports: FreeWheel::new(cfg.store_ports),
            gather_pipe: 0,
            qz_port: FreeWheel::new(cfg.qz_read_ports),
            store_buffer: StoreIndex::new(cfg.store_ring_slots),
            mem,
            cfg,
            reg_ready: [0; Reg::FLAT_COUNT],
            reg_taint: [StallCat::Base; Reg::FLAT_COUNT],
            front_cycle: 0,
            front_slots: 0,
            fetch_resume: 0,
            rob,
            commit_cycle: 0,
            commit_slots: 0,
            run_start_cycle: 0,
            cycle_budget: u64::MAX,
            bpred: Box::new([1u8; BPRED_ENTRIES]),
            stats: RunStats::default(),
            probe,
        }
    }

    /// The attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Mutable access to the attached probe (drain recorded data).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Starts accounting a new kernel run (cycle counters continue,
    /// statistics restart).
    pub fn begin_run(&mut self) {
        self.stats = RunStats::default();
        self.run_start_cycle = self.commit_cycle;
        // A kernel submission is a serialising boundary: the new kernel's
        // first instruction cannot dispatch before the previous kernel
        // fully committed.
        self.front_cycle = self.front_cycle.max(self.commit_cycle);
        self.front_slots = 0;
        self.fetch_resume = self.fetch_resume.max(self.commit_cycle);
        if P::ENABLED {
            self.probe.on_run_start(self.run_start_cycle);
        }
    }

    /// Finishes the run: closes the stall attribution and returns the
    /// run's statistics.
    pub fn end_run(&mut self) -> RunStats {
        let mut stats = std::mem::take(&mut self.stats);
        stats.cycles = self.commit_cycle - self.run_start_cycle;
        let attributed: u64 = stats.stall_cycles.iter().skip(1).sum();
        stats.stall_cycles[StallCat::Base.index()] = stats.cycles.saturating_sub(attributed);
        if P::ENABLED {
            self.probe.on_run_end(&stats);
        }
        stats
    }

    /// The current global cycle (monotonic across runs).
    pub fn now(&self) -> u64 {
        self.commit_cycle
    }

    /// Sets the per-run cycle watchdog: once the clock advances more
    /// than `cycles` past the run start, the interpreter terminates the
    /// run with a typed `CycleLimit` error. Defaults to `u64::MAX`
    /// (effectively off); [`reset`](OooTiming::reset) restores that.
    pub fn set_cycle_budget(&mut self, cycles: u64) {
        self.cycle_budget = cycles;
    }

    /// Cold-boots the engine in place: clock back to zero, pipeline and
    /// predictor state cleared, caches invalidated. Timing-equivalent
    /// to a freshly built engine while reusing every allocation (FU
    /// vectors, ROB, predictor table, cache tag arrays). The attached
    /// probe is deliberately *not* cleared — observation spans pool
    /// reuse; its cycle timeline restarts at zero with the engine.
    pub fn reset(&mut self) {
        self.mem.reset();
        self.reg_ready = [0; Reg::FLAT_COUNT];
        self.reg_taint = [StallCat::Base; Reg::FLAT_COUNT];
        self.front_cycle = 0;
        self.front_slots = 0;
        self.fetch_resume = 0;
        self.fu_scalar.reset();
        self.fu_vector.reset();
        self.load_ports.reset();
        self.store_ports.reset();
        self.gather_pipe = 0;
        self.qz_port.reset();
        self.store_buffer.reset();
        self.rob.clear();
        self.commit_cycle = 0;
        self.commit_slots = 0;
        self.run_start_cycle = 0;
        self.cycle_budget = u64::MAX;
        self.bpred.fill(1);
        self.stats = RunStats::default();
    }

    fn dispatch(&mut self) -> u64 {
        let mut floor = self.fetch_resume;
        if self.rob.len() >= self.cfg.rob_size {
            // Oldest in-flight instruction must commit to free a slot.
            // `rob_size >= 1` makes the deque nonempty here, but a pop on
            // an empty deque is just "no backpressure", not a crash.
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

    /// Width-limited, in-order commit. Returns the cycle the
    /// instruction finally committed at and the stall gap charged to
    /// its category (both consumed only by probes; dead values compile
    /// away when no probe is attached).
    fn commit(&mut self, completion: u64, cat: StallCat, extra_commit_busy: u64) -> (u64, u64) {
        if self.commit_slots >= self.cfg.commit_width {
            self.commit_cycle += 1;
            self.commit_slots = 0;
        }
        let ideal = self.commit_cycle;
        let commit_at = ideal.max(completion);
        let mut gap = 0;
        if commit_at > ideal {
            gap = commit_at - ideal;
            self.stats.stall_cycles[cat.index()] += gap;
            self.commit_cycle = commit_at;
            self.commit_slots = 0;
        }
        self.commit_slots += 1;
        if extra_commit_busy > 0 {
            // Commit-time QBUFFER writes occupy the commit stage.
            self.stats.stall_cycles[StallCat::Quetzal.index()] += extra_commit_busy;
            self.commit_cycle += extra_commit_busy;
            self.commit_slots = 0;
        }
        self.rob.push_back(self.commit_cycle);
        if self.rob.len() > self.cfg.rob_size {
            self.rob.pop_front();
        }
        (self.commit_cycle, gap)
    }

    /// Latest source-register ready time and its stall taint. Walks the
    /// predecoded use list, which preserves `for_each_use` operand
    /// order: with the `>=` comparison the taint comes from the *last*
    /// operand tying the maximum, exactly as the seed model behaved.
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

    /// Memory-dependence ordering through the store buffer: a load that
    /// overlaps an older in-flight store cannot complete before that
    /// store's data exists. Same-address same-size overlaps forward from
    /// the store buffer at no extra cost; *misaligned* overlaps cannot
    /// be forwarded and replay after the store drains — the classic
    /// store-to-load forwarding failure that Fig. 7 shows QUETZAL
    /// removing from classical DP.
    /// Returns the earliest completion floor imposed by in-flight
    /// stores, and whether the load must replay (failed forward).
    fn forwarding_hazard(&self, addr: u64, size: u32) -> (u64, bool) {
        let mut floor = 0;
        let mut replay = false;
        let penalty = self.cfg.store_fwd_penalty;
        // The index may visit a store twice when both it and the load
        // straddle a granule boundary; the `max`/`or` fold is duplicate-
        // and order-insensitive, so the result matches a full scan.
        self.store_buffer
            .for_each_candidate(addr, size, |sa, ss, done| {
                // Saturating ends: guest addresses can sit at the top of the
                // address space, and a wrapped end would miss the overlap.
                let overlap =
                    addr < sa.saturating_add(ss as u64) && sa < addr.saturating_add(size as u64);
                if !overlap {
                    return;
                }
                if sa == addr && ss == size {
                    // Clean forward: data available when the store's data is.
                    floor = floor.max(done);
                } else {
                    floor = floor.max(done + penalty);
                    replay = true;
                }
            });
        (floor, replay)
    }

    fn record_store(&mut self, addr: u64, size: u32, done: u64) {
        self.store_buffer.push(addr, size, done);
    }

    /// Compute-unit pool selected by the predecoded [`FuClass`].
    ///
    /// Only `Scalar` and `Vector` name shared pools; the other classes
    /// (load/store ports, gather pipe, QZ port) are dedicated resources
    /// the retire arms address directly, and `MicroOp::decode`'s
    /// `fu_of` mapping only assigns `Scalar`/`Vector` to the compute
    /// classes that reach this function — provably unreachable from any
    /// `Program`, however corrupted, so this is an internal invariant
    /// (`debug_assert!`), not a guest-reachable fault. The release
    /// fallback routes to the scalar pool rather than aborting.
    fn compute_pool(&mut self, fu: FuClass) -> &mut FreeWheel {
        match fu {
            FuClass::Scalar => &mut self.fu_scalar,
            FuClass::Vector => &mut self.fu_vector,
            _ => {
                debug_assert!(false, "not a shared compute pool: {fu:?}");
                &mut self.fu_scalar
            }
        }
    }

    fn predict(&mut self, pc: usize, taken: bool) -> bool {
        let idx = pc % BPRED_ENTRIES;
        let predicted = self.bpred[idx] >= 2;
        // 2-bit saturating update.
        if taken {
            self.bpred[idx] = (self.bpred[idx] + 1).min(3);
        } else {
            self.bpred[idx] = self.bpred[idx].saturating_sub(1);
        }
        predicted == taken
    }

    /// Timing-side watchdog, polled by the interpreter after every
    /// retire. Returns `Some(budget)` once the clock has advanced past
    /// the configured cycle budget, terminating the run with
    /// [`SimError::CycleLimit`](crate::interp::SimError::CycleLimit).
    pub fn cycle_budget_exceeded(&self) -> Option<u64> {
        (self.commit_cycle - self.run_start_cycle > self.cycle_budget).then_some(self.cycle_budget)
    }

    /// Retires one executed instruction, in program order. `uop` is the
    /// instruction's predecoded static record (see [`crate::predecode`]);
    /// `d` carries the dynamic facts of this execution.
    pub fn retire(&mut self, uop: &MicroOp, d: &DynInst) {
        let class = uop.class;
        let dispatched = self.dispatch();
        let (ops_ready, ops_cat) = self.operands_ready(uop);
        let ready_at = dispatched.max(ops_ready);
        self.stats.instructions += 1;
        self.stats.uops += 1;

        // Probe-only capture: counter snapshots (for per-instruction
        // cache-level deltas) and hazard facts the match arms would
        // otherwise discard. All of it folds away for `NullProbe`.
        let (pr_l1h, pr_l1m, pr_l2m, pr_misp) = if P::ENABLED {
            (
                self.stats.l1_hits,
                self.stats.l1_misses,
                self.stats.l2_misses,
                self.stats.mispredicts,
            )
        } else {
            (0, 0, 0, 0)
        };
        let mut pr_store_floor = 0u64;
        let mut pr_store_replay = false;
        let mut pr_qz_wait = 0u64;

        let (completion, cat, extra_commit, issue) = match class {
            InstClass::ScalarAlu | InstClass::ScalarMul => {
                let lat = if class == InstClass::ScalarMul {
                    self.cfg.scalar_mul_lat
                } else {
                    self.cfg.scalar_alu_lat
                };
                let start = self.compute_pool(uop.fu).alloc(ready_at, 1);
                let cat = if ops_ready > dispatched {
                    ops_cat
                } else {
                    StallCat::ScalarCompute
                };
                (start + lat, cat, 0, start)
            }
            InstClass::Branch => {
                self.stats.branches += 1;
                let start = self.compute_pool(uop.fu).alloc(ready_at, 1);
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
                (completion, cat, 0, start)
            }
            InstClass::ScalarLoad | InstClass::VectorLoad => {
                let start = self.load_ports.alloc(ready_at, 1);
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
                        // The replayed access occupies a port slot again.
                        let r = self.load_ports.alloc(start, 1);
                        done = done.max(r + self.mem.l1_latency());
                    }
                    done = done.max(floor);
                    if P::ENABLED {
                        pr_store_floor = pr_store_floor.max(floor);
                        pr_store_replay |= replay;
                    }
                }
                (done.max(start + 1), StallCat::Memory, 0, start)
            }
            InstClass::ScalarStore | InstClass::VectorStore => {
                let start = self.store_ports.alloc(ready_at, 1);
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
                (done.max(start + 1), StallCat::Memory, 0, start)
            }
            InstClass::Gather | InstClass::Scatter => {
                // Cracked into one scalar request per active lane: each
                // element generates its own address and occupies a cache
                // port; no coalescing (paper §II-G).
                self.stats.indexed_ops += 1;
                let is_store = class == InstClass::Scatter;
                let start = ready_at + self.cfg.gather_crack_overhead;
                let mut done = start;
                // Elements drain through the single indexed-access pipe
                // at one address per cycle; concurrent gathers queue.
                // Issue-slot assignment and the cache access are fused
                // into one pass (the cache model never reads the pipe
                // clock, so per-element interleaving cannot change any
                // issue time).
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
                (done.max(start + 1), StallCat::Memory, 0, start)
            }
            InstClass::VectorAlu | InstClass::VectorMul | InstClass::VectorHorizontal => {
                let lat = match class {
                    InstClass::VectorMul => self.cfg.vector_mul_lat,
                    InstClass::VectorHorizontal => self.cfg.vector_horiz_lat,
                    _ => self.cfg.vector_alu_lat,
                };
                let start = self.compute_pool(uop.fu).alloc(ready_at, 1);
                let cat = if ops_ready > dispatched {
                    ops_cat
                } else {
                    StallCat::VectorCompute
                };
                (start + lat, cat, 0, start)
            }
            InstClass::Predicate => {
                let start = self.compute_pool(uop.fu).alloc(ready_at, 1);
                let cat = if ops_ready > dispatched {
                    ops_cat
                } else {
                    StallCat::ScalarCompute
                };
                (start + self.cfg.pred_lat, cat, 0, start)
            }
            InstClass::QzRead => {
                self.stats.qz_accesses += 1;
                let start = self.qz_port.alloc(ready_at, 1);
                if P::ENABLED {
                    pr_qz_wait = start - ready_at;
                }
                (start + d.qz_latency, StallCat::Quetzal, 0, start)
            }
            InstClass::QzCountOp => {
                let start = self.compute_pool(uop.fu).alloc(ready_at, 1);
                (
                    start + d.qz_latency.max(1),
                    StallCat::VectorCompute,
                    0,
                    start,
                )
            }
            InstClass::QzWrite | InstClass::QzConfig => {
                // Executes at commit (paper §IV-E): the value must be
                // ready, then the write occupies commit for any
                // bank-conflict cycles beyond the first (a conflict-free
                // write retires within its commit slot like a normal
                // buffered store).
                self.stats.qz_accesses += 1;
                (
                    ready_at,
                    StallCat::Quetzal,
                    d.qz_latency.saturating_sub(1),
                    ready_at,
                )
            }
            InstClass::Halt => (ready_at, StallCat::Frontend, 0, ready_at),
        };

        self.set_defs(uop, completion, cat);
        let (commit_at, commit_gap) = self.commit(completion, cat, extra_commit);
        if P::ENABLED {
            let ev = RetireEvent {
                pc: d.pc,
                class,
                fu: uop.fu,
                dispatch: dispatched,
                ops_ready,
                issue,
                complete: completion,
                commit: commit_at,
                commit_gap,
                extra_commit,
                cat,
                dep_cat: ops_cat,
                mem: MemLevelMix {
                    l1_hits: self.stats.l1_hits - pr_l1h,
                    l1_misses: self.stats.l1_misses - pr_l1m,
                    l2_misses: self.stats.l2_misses - pr_l2m,
                },
                store_ring_floor: pr_store_floor,
                store_replay: pr_store_replay,
                qz_port_wait: pr_qz_wait,
                qz_latency: d.qz_latency,
                mispredicted: self.stats.mispredicts > pr_misp,
            };
            self.probe.on_retire(&ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_isa::*;

    fn engine() -> OooTiming {
        let mut t = OooTiming::new(CoreConfig::a64fx_like());
        t.begin_run();
        t
    }

    /// Decode-and-retire shorthand for tests built around raw
    /// `Instruction` values.
    fn retire(t: &mut OooTiming, inst: &Instruction, d: &DynInst) {
        t.retire(&MicroOp::decode(inst), d);
    }

    fn dyn_at(pc: usize) -> DynInst {
        DynInst {
            pc,
            ..DynInst::default()
        }
    }

    #[test]
    fn independent_alus_pipeline() {
        let mut t = engine();
        // 8 independent scalar adds on 2 ALUs, width 4: should take only
        // a handful of cycles.
        for pc in 0..8 {
            let inst = Instruction::MovImm {
                rd: XReg::new(pc as u8),
                imm: 1,
            };
            retire(&mut t, &inst, &dyn_at(pc));
        }
        let s = t.end_run();
        assert_eq!(s.instructions, 8);
        assert!(s.cycles <= 10, "cycles = {}", s.cycles);
    }

    #[test]
    fn dependent_chain_serialises() {
        let mut t = engine();
        let inst = Instruction::AluRI {
            op: SAluOp::Add,
            rd: X0,
            rn: X0,
            imm: 1,
        };
        for pc in 0..100 {
            retire(&mut t, &inst, &dyn_at(pc));
        }
        let s = t.end_run();
        assert!(s.cycles >= 100, "chain must be ≥1 cycle/inst: {}", s.cycles);
    }

    #[test]
    fn gather_l1_hit_costs_about_twenty_cycles() {
        let mut t = engine();
        // Warm the line.
        let warm = Instruction::Load {
            rd: X1,
            rn: X0,
            offset: 0,
            size: MemSize::B8,
        };
        let mut d = dyn_at(0);
        d.mem.push((0x1000, 8));
        retire(&mut t, &warm, &d);
        let _ = t.end_run();

        t.begin_run();
        let gather = Instruction::VGather {
            vd: V0,
            rn: X0,
            idx: V1,
            pg: P0,
            esize: ElemSize::B64,
            msize: MemSize::B8,
            scale: 8,
        };
        let mut d = dyn_at(1);
        for i in 0..8u64 {
            d.mem.push((0x1000 + 8 * i, 8));
        }
        retire(&mut t, &gather, &d);
        let s = t.end_run();
        assert!(
            (16..=28).contains(&s.cycles),
            "L1-hit gather should cost ~19-22 cycles, got {}",
            s.cycles
        );
        assert_eq!(s.mem_requests, 8, "one request per lane");
        assert_eq!(s.indexed_ops, 1);
    }

    #[test]
    fn qz_read_beats_gather() {
        let mut t = engine();
        let qzload = Instruction::QzLoad {
            vd: V0,
            idx: V1,
            sel: QBufSel::Q0,
            pg: P0,
        };
        let mut d = dyn_at(0);
        d.qz_latency = 2;
        retire(&mut t, &qzload, &d);
        let s = t.end_run();
        assert!(s.cycles <= 4, "qzload is 2 cycles + commit: {}", s.cycles);
        assert_eq!(s.qz_accesses, 1);
        assert_eq!(s.mem_requests, 0, "no cache traffic");
    }

    #[test]
    fn qz_write_serialises_commit() {
        let mut t = engine();
        let st = Instruction::QzStore {
            val: V0,
            idx: V1,
            sel: QBufSel::Q0,
            pg: P0,
        };
        let mut d = dyn_at(0);
        d.qz_latency = 8; // worst-case bank conflicts
        retire(&mut t, &st, &d);
        let s = t.end_run();
        // Seven conflict cycles beyond the ordinary commit slot.
        assert!(s.cycles >= 7, "cycles = {}", s.cycles);
        assert!(s.stall_cycles[StallCat::Quetzal.index()] >= 7);
    }

    #[test]
    fn mispredicted_branch_pays_penalty() {
        let mut t = engine();
        let br = Instruction::Branch {
            cond: BranchCond::Eq,
            rn: X0,
            rm: X1,
            target: 0,
        };
        // Alternating taken/not-taken defeats the 2-bit predictor.
        for pc in 0..40 {
            let mut d = dyn_at(0); // same pc -> same predictor entry
            d.taken = pc % 2 == 0;
            retire(&mut t, &br, &d);
        }
        let s = t.end_run();
        assert!(s.mispredicts > 10, "mispredicts = {}", s.mispredicts);
        assert!(
            s.cycles > 40 * 2,
            "mispredict penalties must show: {}",
            s.cycles
        );
    }

    #[test]
    fn rob_backpressure_limits_overlap() {
        // A long-latency cold miss at the head plus many independent adds:
        // with a 128-entry ROB, at most ~128 instructions can slip past.
        let mut t = engine();
        let load = Instruction::Load {
            rd: X1,
            rn: X0,
            offset: 0,
            size: MemSize::B8,
        };
        let mut d = dyn_at(0);
        d.mem.push((1 << 30, 8));
        retire(&mut t, &load, &d);
        // 1000 independent single-cycle instructions.
        for pc in 1..=1000 {
            retire(&mut t, &Instruction::MovImm { rd: X2, imm: 0 }, &dyn_at(pc));
        }
        let s = t.end_run();
        // Ideal would be 1000/4 = 250 cycles; the cold miss (≥120) must
        // not be fully hidden because commit is in-order.
        assert!(s.stall_cycles[StallCat::Memory.index()] >= 100);
        assert!(s.cycles >= 250);
    }

    #[test]
    fn million_store_run_holds_peak_memory_flat() {
        // The forwarding window is a fixed-capacity ring and the
        // predictor a fixed table: no structure in the timing engine may
        // grow with dynamic instruction count. Retire a million stores
        // and check every bounded structure is at (not beyond) its cap.
        let mut t = engine();
        let st = Instruction::Store {
            rs: X1,
            rn: X0,
            offset: 0,
            size: MemSize::B8,
        };
        let uop = MicroOp::decode(&st);
        let mut d = DynInst::default();
        for i in 0..1_000_000u64 {
            d.reset((i % 64) as usize);
            d.mem.push((0x4000 + (i % 512) * 8, 8));
            t.retire(&uop, &d);
        }
        assert_eq!(t.store_buffer.len(), t.cfg.store_ring_slots);
        assert!(
            t.store_buffer.index_node_count() <= 2 * t.cfg.store_ring_slots,
            "forwarding index bounded by the live window"
        );
        assert!(t.rob.len() <= t.cfg.rob_size, "rob bounded");
        assert_eq!(t.bpred.len(), BPRED_ENTRIES);
        assert!(
            d.mem.capacity() <= 4,
            "recycled DynInst must not accumulate accesses (capacity {})",
            d.mem.capacity()
        );
        let s = t.end_run();
        assert_eq!(s.instructions, 1_000_000);
        assert_eq!(s.mem_requests, 1_000_000);
    }

    #[test]
    fn store_window_keeps_newest_entries() {
        let depth = CoreConfig::a64fx_like().store_ring_slots;
        let mut r = StoreIndex::new(depth);
        for i in 0..(depth as u64 * 3) {
            r.push(i, 8, i + 100);
        }
        assert_eq!(r.entries().len(), depth);
        let min_addr = (depth as u64) * 2;
        assert!(
            r.entries().iter().all(|&(a, _, _)| a >= min_addr),
            "window must hold exactly the newest {depth} stores"
        );
    }

    #[test]
    fn stall_attribution_sums_to_cycles() {
        let mut t = engine();
        for pc in 0..50 {
            let mut d = dyn_at(pc);
            d.mem.push((0x2000 + (pc as u64) * 8, 8));
            retire(
                &mut t,
                &Instruction::Load {
                    rd: X1,
                    rn: X0,
                    offset: 0,
                    size: MemSize::B8,
                },
                &d,
            );
        }
        let s = t.end_run();
        let total: u64 = s.stall_cycles.iter().sum();
        assert_eq!(total, s.cycles);
    }

    #[test]
    fn memory_taint_propagates_to_dependents() {
        let mut t = engine();
        // Cold load into X1, then a long chain of adds consuming X1.
        let load = Instruction::Load {
            rd: X1,
            rn: X0,
            offset: 0,
            size: MemSize::B8,
        };
        let mut d = dyn_at(0);
        d.mem.push((1 << 25, 8));
        retire(&mut t, &load, &d);
        let add = Instruction::AluRR {
            op: SAluOp::Add,
            rd: X1,
            rn: X1,
            rm: X1,
        };
        retire(&mut t, &add, &dyn_at(1));
        let s = t.end_run();
        // The add's commit gap must be attributed to memory.
        assert!(s.stall_cycles[StallCat::Memory.index()] > 0);
    }
}
