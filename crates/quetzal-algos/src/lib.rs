//! Genome sequence analysis algorithms on the QUETZAL framework.
//!
//! Every algorithm the paper evaluates is implemented three ways:
//!
//! 1. a **scalar reference** in plain Rust — the correctness oracle and
//!    a useful library in its own right;
//! 2. **simulated kernels** at up to four tiers ([`Tier`]):
//!    * [`Tier::Base`] — scalar ISA code, standing in for the paper's
//!      compiler-autovectorised baseline (whose hot loops do not
//!      vectorise, which is exactly why the paper hand-vectorises);
//!    * [`Tier::Vec`] — hand-vectorised SVE-style code using
//!      gather/scatter (the paper's `VEC`);
//!    * [`Tier::Quetzal`] — QBUFFER-accelerated (`qzload`/`qzstore`);
//!    * [`Tier::QuetzalC`] — QBUFFERs plus the count ALU
//!      (`qzmhm<qzcount>`), the paper's `QUETZAL+C`;
//! 3. a **driver** that stages inputs on a [`Machine`](quetzal::Machine),
//!    submits the kernels, and bit-compares the simulated result with
//!    the scalar reference (the paper's validation methodology, §V-B).
//!
//! Algorithms: Wavefront Alignment ([`wfa`]), bidirectional WFA
//! ([`biwfa`]), SneakySnake edit-distance filtering ([`sneakysnake`]),
//! classical DP alignment ([`nw`], [`swg`]), the combined filter+align
//! pipeline ([`pipeline`]), and the two non-genomics kernels of §VII-F
//! ([`histogram`], [`spmv`]).

pub mod biwfa;
pub mod common;
pub mod dp_sim;
pub mod histogram;
pub mod nw;
pub mod pipeline;
pub mod sneakysnake;
pub mod spmv;
pub mod swg;
pub mod wfa;
pub mod wfa_sim;

pub use common::{SimOutcome, Tier};
