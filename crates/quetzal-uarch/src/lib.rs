//! Cycle-level out-of-order CPU model — the simulation substrate of the
//! QUETZAL reproduction.
//!
//! The paper evaluates QUETZAL in gem5, modelling a Fujitsu A64FX-like
//! core (Table I). There is no comparable simulator in the Rust
//! ecosystem, so this crate builds one from scratch, with exactly the
//! mechanisms the paper's results hinge on:
//!
//! * an **execution-driven functional interpreter** ([`interp`]) for the
//!   `quetzal-isa` instruction set, including the QUETZAL accelerator
//!   state (QBUFFERs, count ALU);
//! * an **out-of-order timing model** ([`ooo`]) with a reorder buffer,
//!   per-class functional units, limited load/store ports, a branch
//!   predictor, and — crucially — gather/scatter instructions *cracked
//!   into per-element cache accesses* (the §II-G bottleneck: ≥ 19–22
//!   cycles even on L1 hits);
//! * a **two-level cache hierarchy** ([`cache`]) with LRU set-associative
//!   arrays, a stride prefetcher and a bandwidth-limited HBM2 main
//!   memory;
//! * per-cycle **stall attribution** so the paper's execution-time
//!   breakdown (Fig. 4) can be regenerated;
//! * a per-core **share of the shared resources**
//!   ([`CoreConfig::share_of`]: L2 capacity and DRAM bandwidth divided
//!   across `n` cores), from which the bench harness builds the Fig. 13b
//!   multicore scaling curve.
//!
//! The entry point is [`Core`]: load data into [`SimMemory`], run a
//! [`Program`](quetzal_isa::Program), read back results and
//! [`RunStats`].
//!
//! ```
//! use quetzal_isa::*;
//! use quetzal_uarch::{Core, CoreConfig};
//!
//! let mut core = Core::new(CoreConfig::a64fx_like());
//! let mut b = ProgramBuilder::new();
//! b.mov_imm(X0, 21);
//! b.alu_ri(SAluOp::Add, X0, X0, 21);
//! b.halt();
//! let prog = b.build()?;
//! let stats = core.run(&prog)?;
//! assert_eq!(core.state().x(X0), 42);
//! assert!(stats.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Guest-reachable paths must return typed errors, never unwrap (see
// DESIGN.md "Failure model & fault injection"); tests are exempt.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cache;
pub mod config;
pub mod interp;
pub mod ooo;
pub mod predecode;
pub mod probe;
pub mod state;
pub mod stats;
mod wheel;

pub use config::{CacheConfig, CoreConfig, MemConfig};
pub use interp::{Core, ExecMode, SimError};
pub use predecode::{MicroOp, Predecode};
pub use probe::{MemLevelMix, NullProbe, Probe, RetireEvent};
pub use state::{ArchState, SimMemory};
pub use stats::{RunStats, StallCat};
