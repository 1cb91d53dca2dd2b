//! Pipeline observability probes.
//!
//! The timing engine ([`crate::ooo::OooTiming`]) is generic over a
//! [`Probe`] that observes every retired dynamic instruction. The
//! engine is **monomorphized** over the probe type and every
//! observation site is guarded by `if P::ENABLED` on an associated
//! `const`, so with the default [`NullProbe`] the compiler removes the
//! instrumentation entirely — the hot path compiles to the exact same
//! code as before the probe existed. `tests/timing_golden.rs` and the
//! probe-neutrality integration test pin this: golden cycle counts must
//! not move whether a probe is attached or not.
//!
//! # Invariants
//!
//! * **Probes are observers, never participants.** A probe receives
//!   `&RetireEvent` snapshots; nothing it does can feed back into the
//!   timing model. The engine computes every field of the event from
//!   state it already maintained — no extra model state exists for the
//!   probe's benefit.
//! * **Events are stack-only.** [`RetireEvent`] is `Copy` with no heap
//!   indirection, so an enabled probe adds no allocation to the
//!   per-retire path; any buffering strategy (ring buffer, aggregation)
//!   lives in the probe implementation.
//! * **Event ordering is program order.** `on_retire` fires once per
//!   retired instruction in commit order, bracketed by
//!   `on_run_start`/`on_run_end` per kernel submission and preceded by
//!   `on_program` when a driver submits a program.

use crate::predecode::FuClass;
use crate::stats::{RunStats, StallCat};
use quetzal_isa::InstClass;

/// Per-level cache traffic of one dynamic instruction: how many of its
/// demand line accesses hit L1, missed L1 (hit L2), and missed L2 (went
/// to memory). Derived from counter deltas around the instruction's
/// cache accesses, so it is exact and costs nothing when disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemLevelMix {
    /// Line accesses served by the L1.
    pub l1_hits: u64,
    /// Line accesses that missed the L1.
    pub l1_misses: u64,
    /// Line accesses that also missed the L2 (DRAM).
    pub l2_misses: u64,
}

impl MemLevelMix {
    /// Whether the instruction touched the cache hierarchy at all.
    pub fn any(&self) -> bool {
        self.l1_hits + self.l1_misses > 0
    }
}

/// The full lifecycle of one retired dynamic instruction, as the
/// out-of-order model computed it. All cycle fields are in the global
/// monotonic clock (`OooTiming::now`), not run-relative.
#[derive(Debug, Clone, Copy)]
pub struct RetireEvent {
    /// Static program counter (instruction index).
    pub pc: usize,
    /// Timing class.
    pub class: InstClass,
    /// Functional-unit pool the instruction occupied.
    pub fu: FuClass,
    /// Cycle the front end dispatched it into the window.
    pub dispatch: u64,
    /// Cycle its youngest source operand became ready.
    pub ops_ready: u64,
    /// Cycle it began executing (port/unit granted). For commit-time
    /// QBUFFER writes this equals `ops_ready`.
    pub issue: u64,
    /// Cycle its result was produced (writeback).
    pub complete: u64,
    /// Cycle it committed (after any commit-stage busy time).
    pub commit: u64,
    /// Cycles the in-order commit stage stalled waiting for it — the
    /// quantum the engine charged to `cat`.
    pub commit_gap: u64,
    /// Commit-stage busy cycles beyond the first (QBUFFER bank
    /// conflicts, charged to [`StallCat::Quetzal`]).
    pub extra_commit: u64,
    /// Coarse stall category charged for `commit_gap`.
    pub cat: StallCat,
    /// Stall taint of the operand that was ready last (what the
    /// instruction was waiting *on* when operand-bound).
    pub dep_cat: StallCat,
    /// Cache-level mix of the instruction's demand accesses.
    pub mem: MemLevelMix,
    /// Completion floor imposed by in-flight stores (store-to-load
    /// forwarding), 0 if none applied.
    pub store_ring_floor: u64,
    /// Whether a store-to-load forward failed and the access replayed.
    pub store_replay: bool,
    /// Cycles a QBUFFER read waited for the single read port.
    pub qz_port_wait: u64,
    /// Functional QUETZAL latency (port-limited reads, bank-conflict
    /// writes, count-ALU depth); 0 for non-QUETZAL instructions.
    pub qz_latency: u64,
    /// Whether a conditional branch mispredicted.
    pub mispredicted: bool,
}

impl RetireEvent {
    /// Cycles spent waiting for an execution resource after operands
    /// were ready (FU/port busy, gather-crack overhead).
    pub fn resource_wait(&self) -> u64 {
        self.issue.saturating_sub(self.ops_ready.max(self.dispatch))
    }
}

/// Observation hook monomorphized into the out-of-order engine.
///
/// Implementations set `ENABLED = true` to receive events; every call
/// site in the engine is guarded by `if P::ENABLED`, so a probe with
/// `ENABLED = false` (the default [`NullProbe`]) costs nothing.
pub trait Probe {
    /// Whether the engine should emit events to this probe. Guarded at
    /// compile time — `false` removes the instrumentation entirely.
    const ENABLED: bool;

    /// A driver submitted `program` (called once per `Core::run`).
    fn on_program(&mut self, _id: u64, _name: &str) {}

    /// A kernel run began at global cycle `cycle`.
    fn on_run_start(&mut self, _cycle: u64) {}

    /// One dynamic instruction retired.
    fn on_retire(&mut self, _ev: &RetireEvent) {}

    /// The run ended; `stats` is the run's final accounting.
    fn on_run_end(&mut self, _stats: &RunStats) {}
}

/// The default probe: observes nothing, costs nothing. The engine
/// monomorphized over `NullProbe` compiles to the identical hot path
/// the model had before probes existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_disabled() {
        const { assert!(!NullProbe::ENABLED) }
    }

    #[test]
    fn retire_event_derived_waits() {
        let ev = RetireEvent {
            pc: 3,
            class: InstClass::ScalarAlu,
            fu: FuClass::Scalar,
            dispatch: 10,
            ops_ready: 14,
            issue: 16,
            complete: 17,
            commit: 18,
            commit_gap: 2,
            extra_commit: 0,
            cat: StallCat::ScalarCompute,
            dep_cat: StallCat::Memory,
            mem: MemLevelMix::default(),
            store_ring_floor: 0,
            store_replay: false,
            qz_port_wait: 0,
            qz_latency: 0,
            mispredicted: false,
        };
        assert_eq!(ev.resource_wait(), 2);
        assert!(!ev.mem.any());
    }
}
