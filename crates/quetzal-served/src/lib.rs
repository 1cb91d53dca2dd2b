//! # `qzserved` — alignment as a service
//!
//! A long-lived batch-alignment daemon over the QUETZAL simulator
//! stack, holding the workspace's zero-external-dependency line:
//! std-only TCP, the in-tree JSON codec from `quetzal-trace`, and a
//! length-prefixed framed protocol (see [`wire`], DESIGN.md §11).
//!
//! The daemon assembles capabilities the library layers already pin:
//!
//! * **Multi-tenant machine pools** — one long-lived
//!   [`MachinePool`](quetzal::MachinePool) per tenant (checkout /
//!   reset-≡-fresh / quarantine semantics live in `quetzal::pool`,
//!   shared verbatim with the one-shot `BatchRunner` CLI paths).
//! * **Verifier-gated admission** — fault jobs replay hostile mutant
//!   programs; `quetzal-verify` runs before any machine checkout and
//!   provably-fatal programs are rejected with typed
//!   `item_failed {cause:"rejected"}` frames.
//! * **Bounded everything** — per-tenant in-flight quotas answer
//!   `busy` frames instead of queueing; the frame length prefix is
//!   hard-bounded; malformed frames get typed errors, never panics.
//! * **Deterministic streaming** — per-item results stream in item
//!   order through the same [`job::execute`] core the offline path
//!   uses, so a served batch is byte-identical to an offline
//!   `BatchRunner` run at any worker-thread count.
//! * **Observability** — a `/stats` frame with job/item tallies,
//!   per-tenant pool occupancy (quarantine included) and sim-MIPS.
//!
//! Binaries: `qzserved` (the daemon, TCP or stdio) and `qzclient`
//! (submit / fault / stats / shutdown, plus `--offline` to run the
//! identical job without a daemon).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod client;
pub mod job;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod wire;

pub use client::{Client, ClientError, RetryPolicy, SubmitOutcome};
pub use job::{Budgets, JobSpec, JobSummary};
pub use protocol::{render_report, Request, Response};
pub use server::{Daemon, DaemonConfig};
pub use stats::{ServerStats, TenantStats};
pub use wire::{WireError, MAX_FRAME};
