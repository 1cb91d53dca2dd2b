//! # quetzal-trace — pipeline observability for the QUETZAL uarch model
//!
//! Zero-cost tracing layer over `quetzal-uarch`'s out-of-order timing
//! engine. The engine is monomorphized over a
//! [`Probe`](quetzal_uarch::Probe); this crate provides the recording
//! implementation and everything built on top of it:
//!
//! * [`RecordingProbe`] — bounded event ring plus streaming aggregation
//!   of every retired dynamic instruction;
//! * [`StallKind`] — the fine stall taxonomy (frontend, dependency by
//!   producer class, FU busy, store ring, L1/L2/DRAM, QBUFFER port and
//!   access) that partitions exactly the cycles the engine attributed;
//! * [`CpiStack`] — per-kernel CPI stacks aggregated by `InstClass`,
//!   rendered as text tables;
//! * [`chrome`] — Chrome `trace_event` JSON export loadable in
//!   Perfetto / `chrome://tracing`;
//! * [`json`] — the workspace's one JSON codec: a strict parser and a
//!   sorted-key emitter (zero-external-dependency policy, DESIGN.md §5).
//!
//! The load-bearing invariant: **observation never perturbs timing**.
//! With the default `NullProbe` the instrumentation compiles out
//! entirely; with `RecordingProbe` attached, every `RunStats` field is
//! bit-identical to the unprobed run (`tests/probe_neutrality.rs` in
//! `quetzal` replays the golden grid both ways), and the fine taxonomy
//! audits itself against the engine's coarse accounting at every run
//! end.

#![warn(missing_docs)]

pub mod chrome;
pub mod cpi;
pub mod json;
pub mod recording;
pub mod stall;

pub use cpi::CpiStack;
pub use recording::{HotEntry, RecordingProbe, TraceRecord};
pub use stall::{class_index, class_label, classify, StallKind, CLASSES};
