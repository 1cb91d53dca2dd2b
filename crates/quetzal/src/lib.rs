//! # QUETZAL — vector acceleration framework for genome sequence analysis
//!
//! A full-system reproduction of *QUETZAL: Vector Acceleration Framework
//! for Modern Genome Sequence Analysis Algorithms* (ISCA 2024): the
//! QUETZAL ISA extension and accelerator micro-architecture, an
//! A64FX-like out-of-order vector CPU simulator to host it, and the
//! genomics substrate the paper's evaluation uses.
//!
//! This crate is the front door. It re-exports the layered workspace:
//!
//! * [`isa`] — the SVE-like vector ISA plus QUETZAL instructions;
//! * [`uarch`] — the cycle-level out-of-order core and cache hierarchy;
//! * [`accel`] — QBUFFERs, data encoder, count ALU, area model;
//! * [`genomics`] — sequences, datasets, distances, CIGAR;
//!
//! and provides [`Machine`]: one simulated core with a QUETZAL instance,
//! a bump allocator for staging inputs in simulated memory, and kernel
//! submission — plus [`BatchRunner`], the deterministic parallel
//! engine that shards independent work items (alignment pairs,
//! windows) across `QUETZAL_THREADS` host threads with bit-identical
//! output for every thread count.
//!
//! ```
//! use quetzal::{Machine, MachineConfig};
//! use quetzal::isa::*;
//!
//! let mut m = Machine::new(MachineConfig::default());
//! let buf = m.alloc(64);
//! m.write_bytes(buf, b"ACGTACGT");
//!
//! let mut b = ProgramBuilder::new();
//! b.mov_imm(X0, buf as i64);
//! b.load(X1, X0, 0, MemSize::B1);
//! b.halt();
//! let stats = m.run(&b.build()?)?;
//! assert_eq!(m.core().state().x(X1), b'A' as u64);
//! assert!(stats.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub use quetzal_accel as accel;
pub use quetzal_genomics as genomics;
pub use quetzal_isa as isa;
pub use quetzal_uarch as uarch;
pub use quetzal_verify as verify;

pub mod batch;
pub mod fault;
pub mod ingest;
pub mod pool;

pub use batch::{BatchError, BatchRunner, RunReport, Stopped};
pub use fault::{FaultPlan, Mutation};
pub use ingest::{
    CrashPlan, CrashSite, IngestConfig, IngestError, IngestSummary, ItemOutput, ShardDeadline,
    ShardReport,
};
pub use pool::{Budgets, FailureCause, ItemFailure, MachinePool, PoolStats, PooledMachine};
pub use quetzal_accel::{PortCount, QzConfig};
pub use quetzal_isa::Program;
pub use quetzal_uarch::{
    Core, CoreConfig, ExecMode, MemLevelMix, NullProbe, Probe, RetireEvent, RunStats, SimError,
    StallCat,
};

/// Derives the verifier's per-class worst-case retire latencies from a
/// core configuration, for [`verify::ResourceBound`] cycle ceilings
/// that track the machine actually being simulated.
///
/// The derivation is deliberately pessimistic — the point is a ceiling
/// no execution on this core exceeds, not an estimate: every memory
/// access is charged the full L1→L2→DRAM miss path, unit-stride vector
/// accesses are charged two lines, gathers and scatters are charged a
/// fully serialized per-lane miss each on top of the cracking
/// overhead, every branch is charged a mispredict refill, and every
/// class gets a small fixed pipeline margin on top of its FU latency.
/// The startup term covers pipeline fill/drain with one ROB's worth of
/// slack. `ClassLatencies::default()` equals
/// `class_latencies(&CoreConfig::a64fx_like())`; a drift test pins the
/// two together.
pub fn class_latencies(c: &CoreConfig) -> verify::ClassLatencies {
    /// Fixed allowance for dispatch/commit scheduling on top of the
    /// raw FU latency.
    const MARGIN: u64 = 3;
    let miss = c.l1d.latency + c.l2.latency + c.mem.latency;
    let lanes = (isa::VLEN_BYTES / 8) as u64;
    verify::ClassLatencies {
        scalar_alu: c.scalar_alu_lat + MARGIN,
        scalar_mul: c.scalar_mul_lat + MARGIN,
        scalar_load: miss + c.store_fwd_penalty + MARGIN,
        scalar_store: miss + MARGIN,
        branch: c.mispredict_penalty + c.scalar_alu_lat + MARGIN,
        vector_alu: c.vector_alu_lat + MARGIN,
        vector_mul: c.vector_mul_lat + MARGIN,
        vector_load: 2 * miss + MARGIN,
        vector_store: 2 * miss + MARGIN,
        gather: c.gather_crack_overhead + lanes * miss + c.store_fwd_penalty + c.scalar_alu_lat,
        scatter: c.gather_crack_overhead + lanes * miss + c.store_fwd_penalty + c.scalar_alu_lat,
        vector_horizontal: c.vector_horiz_lat + MARGIN,
        predicate: c.pred_lat + MARGIN,
        qz_config: c.vector_alu_lat + MARGIN,
        qz_write: isa::VLEN_BYTES as u64 + MARGIN,
        qz_read: isa::VLEN_BYTES as u64 + MARGIN,
        qz_count: 2 * c.vector_horiz_lat + c.vector_alu_lat,
        halt: c.scalar_alu_lat + MARGIN,
        startup: c.rob_size as u64,
    }
}

/// Configuration of a simulated [`Machine`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// The core (and attached QUETZAL) configuration.
    pub core: CoreConfig,
}

impl MachineConfig {
    /// The paper's evaluated system: A64FX-like core with the QZ_8P
    /// QUETZAL instance (Table I).
    pub fn a64fx_qz8p() -> MachineConfig {
        MachineConfig {
            core: CoreConfig::a64fx_like(),
        }
    }

    /// Same core with a chosen QUETZAL port configuration (for the
    /// Fig. 12 design-space sweep).
    pub fn with_qz(qz: QzConfig) -> MachineConfig {
        MachineConfig {
            core: CoreConfig::a64fx_like().with_qz(qz),
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::a64fx_qz8p()
    }
}

/// Base of the simulated heap. Kernels receive addresses above this.
const HEAP_BASE: u64 = 0x1000_0000;

/// One simulated core with its QUETZAL accelerator, simulated memory and
/// a bump allocator for staging workload data.
///
/// Cache, accelerator and clock state persist across [`run`](Machine::run)
/// calls, so a driver can submit a workload as a sequence of kernels the
/// way the paper's algorithm implementations do.
/// Generic over an observation [`Probe`]; the default [`NullProbe`]
/// compiles all instrumentation out of the timing hot path.
#[derive(Debug, Clone)]
pub struct Machine<P: Probe = NullProbe> {
    core: Core<P>,
    heap: u64,
}

impl Machine {
    /// Creates a machine (no probe).
    pub fn new(config: MachineConfig) -> Machine {
        Machine::with_probe(config, NullProbe)
    }
}

impl<P: Probe> Machine<P> {
    /// Creates a machine with an attached observation probe.
    pub fn with_probe(config: MachineConfig, probe: P) -> Machine<P> {
        Machine {
            core: Core::with_probe(config.core, probe),
            heap: HEAP_BASE,
        }
    }

    /// The attached observation probe.
    pub fn probe(&self) -> &P {
        self.core.probe()
    }

    /// Mutable access to the attached probe (drain recorded data).
    pub fn probe_mut(&mut self) -> &mut P {
        self.core.probe_mut()
    }

    /// Allocates `bytes` of simulated memory (64-byte aligned). The
    /// memory is zero-initialised.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let addr = self.heap;
        self.heap = (self.heap + bytes + 63) & !63;
        addr
    }

    /// Writes bytes into simulated memory.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        self.core.state_mut().mem.write_bytes(addr, bytes);
    }

    /// Reads bytes from simulated memory.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        self.core.state().mem.read_bytes(addr, len)
    }

    /// Writes a little-endian 64-bit word.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.core.state_mut().mem.write_le(addr, value, 8);
    }

    /// Reads a little-endian 64-bit word.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.core.state().mem.read_le(addr, 8)
    }

    /// Submits a kernel for timed execution.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on instruction-budget exhaustion or invalid
    /// `qzconf`.
    pub fn run(&mut self, program: &Program) -> Result<RunStats, SimError> {
        self.core.run(program)
    }

    /// Selects which engine [`run`](Machine::run) drives: the
    /// cycle-level out-of-order model (default) or the functional tier,
    /// which runs the same dispatch loop without the timing model.
    /// [`reset`](Machine::reset) restores the default.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.core.set_exec_mode(mode);
    }

    /// The currently selected execution engine.
    pub fn exec_mode(&self) -> ExecMode {
        self.core.exec_mode()
    }

    /// Cold-boots the machine in place: registers, memory, caches,
    /// QBUFFERs, clock and the heap allocator return to power-on
    /// values, while the big allocations (cache tag arrays, scratch
    /// buffers) are reused. Behaviourally identical to constructing a
    /// fresh machine with the same configuration — the batch runner's
    /// machine pool relies on this, and `tests/parallel.rs` pins it.
    pub fn reset(&mut self) {
        self.core.reset();
        self.heap = HEAP_BASE;
    }

    /// The underlying core.
    pub fn core(&self) -> &Core<P> {
        &self.core
    }

    /// Mutable access to the underlying core.
    pub fn core_mut(&mut self) -> &mut Core<P> {
        &mut self.core
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new(MachineConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_isa::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = Machine::default();
        let a = m.alloc(10);
        let b = m.alloc(100);
        let c = m.alloc(1);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
        assert!(c >= b + 100);
    }

    #[test]
    fn memory_io_round_trip() {
        let mut m = Machine::default();
        let a = m.alloc(64);
        m.write_bytes(a, b"GATTACA");
        assert_eq!(m.read_bytes(a, 7), b"GATTACA");
        m.write_u64(a + 8, 0xFEED);
        assert_eq!(m.read_u64(a + 8), 0xFEED);
    }

    #[test]
    fn run_accumulates_machine_time() {
        let mut m = Machine::default();
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 1).halt();
        let p = b.build().unwrap();
        let s1 = m.run(&p).unwrap();
        let s2 = m.run(&p).unwrap();
        assert!(s1.cycles > 0);
        assert!(s2.cycles > 0);
    }

    #[test]
    fn reset_machine_is_indistinguishable_from_fresh() {
        // A kernel that exercises caches, the branch predictor, vector
        // state and the QBUFFERs, so any state surviving reset would
        // perturb the second run's timing or results.
        let kernel = || {
            let mut b = ProgramBuilder::new();
            let top = b.label();
            b.mov_imm(X0, 0);
            b.mov_imm(X1, 0x2000);
            b.mov_imm(X2, 200);
            b.bind(top);
            b.store(X0, X1, 0, MemSize::B8);
            b.load(X3, X1, 0, MemSize::B8);
            b.alu_ri(SAluOp::Add, X1, X1, 64);
            b.alu_ri(SAluOp::Add, X0, X0, 1);
            b.branch(BranchCond::Lt, X0, X2, top);
            b.mov_imm(X4, 128);
            b.mov_imm(X5, 2);
            b.qzconf(X4, X4, X5);
            b.ptrue(P0, ElemSize::B64);
            b.dup_imm(V0, 3, ElemSize::B64);
            b.dup_imm(V1, 9, ElemSize::B64);
            b.qzupdate(QzOp::Add, V1, V0, QBufSel::Q0, P0);
            b.halt();
            b.build().unwrap()
        };
        let p = kernel();

        let mut pooled = Machine::default();
        let dirty = kernel();
        pooled.alloc(4096);
        pooled.run(&dirty).unwrap();
        pooled.reset();

        let mut fresh = Machine::default();
        let a1 = pooled.alloc(256);
        let a2 = fresh.alloc(256);
        assert_eq!(a1, a2, "heap allocator must restart");
        let s_pooled = pooled.run(&p).unwrap();
        let s_fresh = fresh.run(&p).unwrap();
        assert_eq!(s_pooled, s_fresh, "reset must restore cold-boot timing");
        assert_eq!(
            pooled.core().state().x(X3),
            fresh.core().state().x(X3),
            "architectural results must match"
        );
        assert_eq!(
            pooled.core().state().qz.buf(0).words(),
            fresh.core().state().qz.buf(0).words(),
            "QBUFFER contents must match"
        );
        assert_eq!(
            pooled.core().state().mem.resident_pages(),
            fresh.core().state().mem.resident_pages()
        );
    }

    #[test]
    fn config_presets() {
        let m = MachineConfig::with_qz(QzConfig::QZ_1P);
        assert_eq!(m.core.qz, QzConfig::QZ_1P);
        assert_eq!(MachineConfig::default().core.qz, QzConfig::QZ_8P);
    }

    #[test]
    fn default_class_latencies_track_the_paper_core() {
        // The verifier's baked-in latency table must equal the one
        // derived from the paper's Table-I core; a divergence means
        // bounds computed with the default are no longer ceilings for
        // the machine being simulated.
        assert_eq!(
            class_latencies(&CoreConfig::a64fx_like()),
            verify::ClassLatencies::default()
        );
        // A wider core keeps the same worst-case miss paths.
        let wide = class_latencies(&CoreConfig::wide8());
        assert_eq!(wide.scalar_load, 174);
        assert_eq!(wide.startup, 256);
    }
}
