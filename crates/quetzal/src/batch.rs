//! Deterministic parallel batch simulation.
//!
//! The paper's evaluation simulates thousands of *independent*
//! alignment pairs per experiment — embarrassing parallelism that the
//! accelerator exploits in hardware and that the host-side experiment
//! harness exploits here. [`BatchRunner`] shards a slice of independent
//! work items across `QUETZAL_THREADS` worker threads, each shard
//! simulated on its own fresh [`Machine`] (core + caches + QBUFFERs).
//!
//! Machine lifecycle — pooling, quarantine, reset ≡ fresh, the
//! retry-on-fresh-machine boundary — lives in [`crate::pool`]; this
//! module owns sharding, deterministic merging, and the report-shaped
//! entry points. The `qzserved` daemon (`quetzal-served`) drives the
//! same two layers over long-lived per-tenant pools.
//!
//! # Determinism guarantee
//!
//! The output is **bit-identical for every thread count**, including 1.
//! This holds by construction:
//!
//! 1. items are split into shards as a pure function of the item count
//!    and the configured shard size — never of the thread count;
//! 2. every shard starts from a cold, identically configured context
//!    (for simulations: a fresh [`Machine`], or a pooled one
//!    [`Machine::reset`] to the indistinguishable cold-boot state), so
//!    a shard's results do not depend on which worker ran it or on
//!    what ran before it;
//! 3. per-item results are written into pre-assigned slots and merged
//!    in shard order, never in completion order;
//! 4. a panicking shard poisons only itself (panic isolation); the
//!    runner reports the failure of the *lowest-numbered* failing
//!    shard, which again does not depend on scheduling.
//!
//! Thread-count invariance is enforced by `tests/parallel.rs`, and the
//! experiment harness (`quetzal-bench`) relies on it: speedup tables
//! must be byte-identical between `QUETZAL_THREADS=1` and `=N` runs.
//!
//! # Graceful degradation
//!
//! The `*_report` entry points ([`run_report`](BatchRunner::run_report),
//! [`run_machines_report`](BatchRunner::run_machines_report)) add a
//! fault boundary *per item*: a work closure that returns a typed
//! [`SimError`] or panics costs only its own item, not the shard or the
//! batch. The failing item is retried once on a brand-new (non-pooled)
//! context; the outcome lands in a [`RunReport`] whose `failures` list
//! is ordered by item index and independent of the thread count, while
//! every healthy item's result stays bit-identical to a fault-free run.
//! A machine that was live during a failure is **quarantined** —
//! counted, dropped, and never returned to the pool — because a panic may
//! have unwound mid-simulation and [`Machine::reset`]'s cold-boot
//! guarantee is only pinned for machines that completed their runs.
//!
//! The `*_verified` variants
//! ([`run_report_verified`](BatchRunner::run_report_verified),
//! [`run_machines_report_verified`](BatchRunner::run_machines_report_verified))
//! put a static gate in front of the fault boundary: each item's guest
//! program is checked by `quetzal-verify` first, and programs the
//! verifier can *prove* will fault are rejected up front
//! ([`FailureCause::Rejected`]) without ever checking a machine out of
//! the pool.
//!
//! Admission also *pre-sizes* the machine: the verifier's proven
//! [`ResourceBound`](quetzal_verify::ResourceBound) — max retired
//! instructions, max distinct touched pages, a cycle ceiling computed
//! against per-class worst-case latencies of the pool's actual core
//! configuration — is installed as the item's instruction/cycle/page
//! budgets ([`crate::pool::Budgets`]) before the work closure runs.
//! Proven bounds are ceilings on *every* dynamic execution of the
//! verified program, so conforming items never feel them (results and
//! timing are bit-identical to unsized runs); what they buy is a tight
//! blast radius — a runaway that would otherwise burn the global
//! two-billion-instruction watchdog dies within the proof's envelope.
//! Programs whose bound is unbounded (or conditional on a staged-data
//! premise) keep the global watchdogs.
//!
//! ```
//! use quetzal::{BatchRunner, Machine, MachineConfig};
//!
//! let runner = BatchRunner::new(4);
//! let items = [3u64, 1, 4, 1, 5, 9, 2, 6];
//! let doubled = runner
//!     .run(&items, || (), |(), _idx, &x| 2 * x)
//!     .unwrap();
//! assert_eq!(doubled, vec![6, 2, 8, 2, 10, 18, 4, 12]);
//! ```

use crate::pool::{panic_message, retry_item, Budgets, PooledMachine};
use crate::{ExecMode, Machine, MachineConfig, SimError};
use quetzal_isa::Program;
use quetzal_verify::{Report as VerifyReport, Verdict, VerifyConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub use crate::pool::{FailureCause, ItemFailure, MachinePool, PoolStats};

/// Environment variable selecting the worker-thread count
/// (`QUETZAL_THREADS`). Unset or invalid values fall back to the host's
/// available parallelism.
pub const THREADS_ENV: &str = "QUETZAL_THREADS";

/// A shard of the batch panicked. The work closure of every other shard
/// still ran to completion (panic isolation); the runner reports the
/// lowest-numbered failing shard so the error, too, is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// Index of the failing shard.
    pub shard: usize,
    /// Range of item indices the shard covered.
    pub items: (usize, usize),
    /// The panic payload, if it was a string.
    pub message: String,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch shard {} (items {}..{}) panicked: {}",
            self.shard, self.items.0, self.items.1, self.message
        )
    }
}

impl std::error::Error for BatchError {}

/// Partial results of a fault-tolerant batch run: one result slot per
/// input item (`None` where the item failed twice), plus the failure
/// log ordered by item index.
///
/// Both halves are deterministic: healthy items are bit-identical to a
/// fault-free run at any thread count, and `failures` depends only on
/// the items, never on scheduling.
#[derive(Debug, Clone)]
pub struct RunReport<R> {
    /// Per-item results, in item order; `None` iff the item failed and
    /// the retry failed too.
    pub results: Vec<Option<R>>,
    /// All failures (including recovered ones), ordered by item index.
    pub failures: Vec<ItemFailure>,
}

impl<R> RunReport<R> {
    /// `true` if every item produced a result on its first attempt.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The healthy results with their item indices.
    pub fn healthy(&self) -> impl Iterator<Item = (usize, &R)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
    }
}

/// One distinct program's admission decision at the verified entry
/// points: a fatal report that rejects every item carrying the program,
/// or the pre-sized [`Budgets`] its proven resource bound justifies.
struct Admission {
    /// `Some` iff the program verified [`Verdict::Fatal`].
    rejected: Option<VerifyReport>,
    /// Budgets derived from the proven [`quetzal_verify::ResourceBound`]
    /// (default watchdogs where the bound is unbounded or premised).
    budgets: Budgets,
}

/// Deterministic parallel executor for slices of independent work items.
///
/// See the [module docs](self) for the determinism guarantee.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    threads: usize,
    shard_size: usize,
    exec_mode: ExecMode,
}

impl BatchRunner {
    /// Creates a runner with an explicit worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> BatchRunner {
        assert!(threads > 0, "at least one worker thread");
        BatchRunner {
            threads,
            shard_size: 1,
            exec_mode: ExecMode::default(),
        }
    }

    /// Creates a runner with the thread count from `QUETZAL_THREADS`,
    /// falling back to the host's available parallelism (then 1).
    pub fn from_env() -> BatchRunner {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        BatchRunner::new(threads)
    }

    /// Sets how many consecutive items share one shard (and therefore
    /// one fresh context / machine). Larger shards amortise context
    /// setup and keep simulated caches warm across a shard's items;
    /// the default of 1 maximises parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_shard_size(mut self, n: usize) -> BatchRunner {
        assert!(n > 0, "shard size must be positive");
        self.shard_size = n;
        self
    }

    /// Selects the execution engine the machine-pooled entry points
    /// drive: the cycle-level timing model (default) or the compiled
    /// functional tier. The pool applies the mode to every machine it
    /// hands out — fresh, recycled and fault-replaced alike — so a
    /// whole batch runs on one engine regardless of sharding.
    #[must_use]
    pub fn with_exec_mode(mut self, mode: ExecMode) -> BatchRunner {
        self.exec_mode = mode;
        self
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The execution engine the machine-pooled entry points drive (see
    /// [`with_exec_mode`](Self::with_exec_mode)) — also the mode to
    /// build a caller-owned [`MachinePool`] with so that
    /// [`run_machines_report_pooled`](Self::run_machines_report_pooled)
    /// matches the per-call entry points.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Runs `work` over every item, in parallel across shards.
    ///
    /// `init` builds one fresh per-shard context (typically a
    /// [`Machine`]); `work(ctx, index, item)` processes item `index`.
    /// Items of one shard are processed in index order on the same
    /// context. Results come back in item order.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] if any shard panicked.
    pub fn run<C, T, R>(
        &self,
        items: &[T],
        init: impl Fn() -> C + Sync,
        work: impl Fn(&mut C, usize, &T) -> R + Sync,
    ) -> Result<Vec<R>, BatchError>
    where
        T: Sync,
        R: Send,
    {
        // One slot per shard: the shard's results, or the panic message.
        type ShardSlot<R> = Mutex<Option<Result<Vec<R>, String>>>;
        let shard_count = items.len().div_ceil(self.shard_size);
        let mut slots: Vec<ShardSlot<R>> = Vec::new();
        slots.resize_with(shard_count, || Mutex::new(None));
        let next = AtomicUsize::new(0);

        let run_shard = |shard: usize| -> Result<Vec<R>, String> {
            let lo = shard * self.shard_size;
            let hi = (lo + self.shard_size).min(items.len());
            catch_unwind(AssertUnwindSafe(|| {
                let mut ctx = init();
                (lo..hi)
                    .map(|i| work(&mut ctx, i, &items[i]))
                    .collect::<Vec<R>>()
            }))
            .map_err(panic_message)
        };

        let worker = || loop {
            let shard = next.fetch_add(1, Ordering::Relaxed);
            if shard >= shard_count {
                break;
            }
            let outcome = run_shard(shard);
            *slots[shard].lock().expect("result slot") = Some(outcome);
        };
        let workers = self.threads.min(shard_count.max(1));
        if workers == 1 {
            // A single worker drains the shards on the calling thread:
            // spawning even one OS thread costs hundreds of
            // microseconds on syscall-intercepting sandboxes, which
            // would dominate short serial batches. Shard claiming,
            // per-shard panic capture and the merge below are shared
            // with the parallel path, so results are bit-identical.
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }

        // Deterministic merge: shard order, first failure wins.
        let mut out = Vec::with_capacity(items.len());
        for (shard, slot) in slots.into_iter().enumerate() {
            let outcome = slot
                .into_inner()
                .expect("result slot")
                .expect("every shard was claimed by a worker");
            match outcome {
                Ok(rs) => out.extend(rs),
                Err(message) => {
                    let lo = shard * self.shard_size;
                    let hi = (lo + self.shard_size).min(items.len());
                    return Err(BatchError {
                        shard,
                        items: (lo, hi),
                        message,
                    });
                }
            }
        }
        Ok(out)
    }

    /// [`run`](Self::run) specialised to simulation work: every shard
    /// starts from a cold [`Machine`] built from `config`, so simulated
    /// caches and QBUFFERs are warm across the items *within* a shard
    /// and cold at every shard boundary — independent of thread count.
    ///
    /// Two run-wide optimisations keep this cheap without touching the
    /// determinism guarantee:
    ///
    /// * machines are **pooled**: a shard checks a machine out of the
    ///   run's pool and [`Machine::reset`]s it to cold-boot state
    ///   instead of reallocating the multi-megabyte cache tag arrays
    ///   per shard (reset ≡ fresh is pinned by `tests/parallel.rs`);
    /// * predecode is **shared**: all machines of the run resolve
    ///   predecode misses through one
    ///   [`PredecodeRegistry`](crate::PredecodeRegistry), so each
    ///   kernel program is decoded once per run, not once per shard
    ///   (sound because predecode is a pure function of the program).
    ///
    /// A shard whose work closure panics quarantines its machine (the
    /// machine is *not* returned to the pool — unwinding mid-run leaves
    /// state `reset` is not pinned against) and the batch fails with
    /// [`BatchError`]; for per-item fault tolerance use
    /// [`run_machines_report`](Self::run_machines_report).
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] if any shard panicked.
    pub fn run_machines<T, R>(
        &self,
        config: &MachineConfig,
        items: &[T],
        work: impl Fn(&mut Machine, usize, &T) -> R + Sync,
    ) -> Result<Vec<R>, BatchError>
    where
        T: Sync,
        R: Send,
    {
        let pool = MachinePool::new(config, self.exec_mode);
        self.run(
            items,
            || pool.checkout(),
            |pooled, i, item| work(pooled.machine(), i, item),
        )
    }

    /// Fault-tolerant [`run`](Self::run): the work closure is fallible,
    /// and a failure (typed [`SimError`] or panic) costs only its item.
    ///
    /// Each failing item is retried **once** on a brand-new context from
    /// `init` — both to rule out contamination from earlier items that
    /// shared the shard's context, and because a panicked closure may
    /// have left the context inconsistent. After the retry the context
    /// is replaced again, so later items of the shard never run on a
    /// context a failure touched. Healthy items are bit-identical to a
    /// fault-free run at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] only for infrastructure panics (e.g. in
    /// `init` itself) — work-closure failures land in the report.
    pub fn run_report<C, T, R>(
        &self,
        items: &[T],
        init: impl Fn() -> C + Sync,
        work: impl Fn(&mut C, usize, &T) -> Result<R, SimError> + Sync,
    ) -> Result<RunReport<R>, BatchError>
    where
        T: Sync,
        R: Send,
    {
        let rows = self.run(items, &init, |ctx, i, item| {
            retry_item(ctx, |c| *c = init(), i, item, &work)
        })?;
        Ok(Self::collect_report(rows))
    }

    /// Fault-tolerant [`run_machines`](Self::run_machines): pooled
    /// machines, per-item fault boundary, one retry per failing item on
    /// a brand-new (never pooled) machine.
    ///
    /// Any machine that was live during a failure — first attempt or
    /// retry — is quarantined and never returned to the pool, so
    /// subsequent shards cannot inherit poisoned state.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] only for infrastructure panics; simulation
    /// failures land in the report.
    pub fn run_machines_report<T, R>(
        &self,
        config: &MachineConfig,
        items: &[T],
        work: impl Fn(&mut Machine, usize, &T) -> Result<R, SimError> + Sync,
    ) -> Result<RunReport<R>, BatchError>
    where
        T: Sync,
        R: Send,
    {
        let pool = MachinePool::new(config, self.exec_mode);
        self.run_machines_report_pooled(&pool, items, work)
    }

    /// [`run_machines_report`](Self::run_machines_report) over a
    /// caller-owned [`MachinePool`]: machines (and the pool's shared
    /// predecode registry) survive across calls, so repeated batches on
    /// one configuration pay machine construction once instead of once
    /// per call. The pool's [`ExecMode`] governs every checkout;
    /// recycled machines are reset to cold-boot state, keeping results
    /// bit-identical to a per-call pool at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] only for infrastructure panics; simulation
    /// failures land in the report.
    pub fn run_machines_report_pooled<T, R>(
        &self,
        pool: &MachinePool,
        items: &[T],
        work: impl Fn(&mut Machine, usize, &T) -> Result<R, SimError> + Sync,
    ) -> Result<RunReport<R>, BatchError>
    where
        T: Sync,
        R: Send,
    {
        let rows = self.run(
            items,
            || pool.checkout(),
            |pooled, i, item| {
                retry_item(
                    pooled,
                    PooledMachine::replace_with_fresh,
                    i,
                    item,
                    |p, i, item| work(p.machine(), i, item),
                )
            },
        )?;
        Ok(Self::collect_report(rows))
    }

    /// [`run_report`](Self::run_report) with a static pre-verification
    /// gate: before any simulation, every item's [`Program`] (extracted
    /// by `program_of`, deduplicated by [`Program::id`]) runs through
    /// [`quetzal_verify::verify`]. Items whose program has a
    /// [`Verdict::Fatal`] report are rejected up front — they land in
    /// the failure log as [`FailureCause::Rejected`] and `work` is never
    /// called for them, so a program the verifier can prove will fault
    /// costs neither a simulation nor a retry.
    ///
    /// Contexts are built lazily: a shard whose items are all rejected
    /// never calls `init`. Warning-only reports do **not** reject — the
    /// verifier's soundness contract covers only its fatal findings.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] only for infrastructure panics; rejections
    /// and simulation failures land in the report.
    pub fn run_report_verified<C, T, R>(
        &self,
        items: &[T],
        program_of: impl Fn(&T) -> &Program + Sync,
        init: impl Fn() -> C + Sync,
        work: impl Fn(&mut C, usize, &T) -> Result<R, SimError> + Sync,
    ) -> Result<RunReport<R>, BatchError>
    where
        T: Sync,
        R: Send,
    {
        let admissions = Self::admission_map(items, &program_of, None);
        let rows = self.run(
            items,
            || None::<C>,
            |slot, i, item| {
                let (rejected, _) = Self::admission_of(&admissions, &program_of, item);
                if let Some(report) = rejected {
                    return (None, Some(Self::rejection(i, report)));
                }
                let ctx = slot.get_or_insert_with(&init);
                retry_item(ctx, |c| *c = init(), i, item, &work)
            },
        )?;
        Ok(Self::collect_report(rows))
    }

    /// [`run_machines_report`](Self::run_machines_report) with the same
    /// static pre-verification gate as
    /// [`run_report_verified`](Self::run_report_verified): statically
    /// fatal programs are rejected before any machine is checked out of
    /// the pool, so they burn neither a simulation nor a pooled machine
    /// (a shard of nothing but rejected items never touches the pool).
    ///
    /// Admitted items additionally get their machine **pre-sized** from
    /// the program's proven resource bound (see the module docs):
    /// `program_of` must return the program the work closure actually
    /// runs — the budgets are ceilings for *that* program's executions,
    /// re-applied on every attempt (including the retry on a fresh
    /// machine). A work closure that tightens budgets itself still
    /// wins: it runs after the pre-sizing.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] only for infrastructure panics; rejections
    /// and simulation failures land in the report.
    pub fn run_machines_report_verified<T, R>(
        &self,
        config: &MachineConfig,
        items: &[T],
        program_of: impl Fn(&T) -> &Program + Sync,
        work: impl Fn(&mut Machine, usize, &T) -> Result<R, SimError> + Sync,
    ) -> Result<RunReport<R>, BatchError>
    where
        T: Sync,
        R: Send,
    {
        let pool = MachinePool::new(config, self.exec_mode);
        self.run_machines_report_verified_pooled(&pool, items, program_of, work)
    }

    /// [`run_machines_report_verified`](Self::run_machines_report_verified)
    /// over a caller-owned [`MachinePool`] — the entry point a
    /// long-lived service drives: verifier-gated admission (statically
    /// fatal programs never check a machine out of the tenant's pool),
    /// pooled machines across jobs, per-item fault boundary with
    /// quarantine + retry-on-fresh.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] only for infrastructure panics; rejections
    /// and simulation failures land in the report.
    pub fn run_machines_report_verified_pooled<T, R>(
        &self,
        pool: &MachinePool,
        items: &[T],
        program_of: impl Fn(&T) -> &Program + Sync,
        work: impl Fn(&mut Machine, usize, &T) -> Result<R, SimError> + Sync,
    ) -> Result<RunReport<R>, BatchError>
    where
        T: Sync,
        R: Send,
    {
        let latencies = crate::class_latencies(&pool.config().core);
        let admissions = Self::admission_map(items, &program_of, Some(latencies));
        let rows = self.run(
            items,
            || None::<PooledMachine<'_>>,
            |slot, i, item| {
                let (rejected, budgets) = Self::admission_of(&admissions, &program_of, item);
                if let Some(report) = rejected {
                    return (None, Some(Self::rejection(i, report)));
                }
                let pooled = slot.get_or_insert_with(|| pool.checkout());
                retry_item(
                    pooled,
                    PooledMachine::replace_with_fresh,
                    i,
                    item,
                    |p, i, item| {
                        // Re-applied per attempt: the machine may have
                        // been reset, fault-replaced, or sized for a
                        // different program by the previous item.
                        budgets.apply(p.machine());
                        work(p.machine(), i, item)
                    },
                )
            },
        )?;
        Ok(Self::collect_report(rows))
    }

    /// Verifies every distinct program among `items` (deduplicated by
    /// [`Program::id`], so a program shared by a thousand items is
    /// analysed once) and folds each report into an admission decision:
    /// [`Verdict::Fatal`] programs are rejected outright, everything
    /// else carries the pre-sized [`Budgets`] its proven resource bound
    /// justifies. `latencies` selects the per-class worst-case retire
    /// latencies the cycle ceiling is computed against — the machine
    /// entry points derive them from the pool's actual core
    /// configuration ([`crate::class_latencies`]) so the ceiling bounds
    /// the machine being simulated, not the paper's default core.
    fn admission_map<T>(
        items: &[T],
        program_of: &(impl Fn(&T) -> &Program + Sync),
        latencies: Option<quetzal_verify::ClassLatencies>,
    ) -> HashMap<u64, Admission> {
        let config = VerifyConfig {
            latencies: latencies.unwrap_or_default(),
            ..VerifyConfig::default()
        };
        let mut admissions: HashMap<u64, Admission> = HashMap::new();
        for item in items {
            let program = program_of(item);
            admissions.entry(program.id()).or_insert_with(|| {
                let report = quetzal_verify::verify_with(program, &config);
                let fatal = report.verdict() == Verdict::Fatal;
                Admission {
                    budgets: if fatal {
                        Budgets::default()
                    } else {
                        Budgets::from_bound(report.bound())
                    },
                    rejected: fatal.then_some(report),
                }
            });
        }
        admissions
    }

    /// Resolves one item's admission from the map. The map covers every
    /// distinct program id among the items by construction, so the
    /// lookup cannot miss; a default (open) admission is the safe
    /// fallback regardless.
    fn admission_of<'a, T>(
        admissions: &'a HashMap<u64, Admission>,
        program_of: &(impl Fn(&T) -> &Program + Sync),
        item: &T,
    ) -> (Option<&'a VerifyReport>, Budgets) {
        match admissions.get(&program_of(item).id()) {
            Some(admission) => (admission.rejected.as_ref(), admission.budgets),
            None => (None, Budgets::default()),
        }
    }

    /// The failure-log entry of a statically rejected item. `recovered`
    /// is always `false`: the verdict is a property of the program, so
    /// a retry could only re-prove it.
    fn rejection(item: usize, report: &VerifyReport) -> ItemFailure {
        ItemFailure {
            item,
            cause: FailureCause::Rejected(report.clone()),
            recovered: false,
        }
    }

    /// Splits per-item `(result, failure)` rows into a [`RunReport`].
    /// Rows arrive in item order (the deterministic merge), so the
    /// failure list is ordered by item index with no extra sort.
    fn collect_report<R>(rows: Vec<(Option<R>, Option<ItemFailure>)>) -> RunReport<R> {
        let mut results = Vec::with_capacity(rows.len());
        let mut failures = Vec::new();
        for (result, failure) in rows {
            results.push(result);
            failures.extend(failure);
        }
        RunReport { results, failures }
    }
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::lock;
    use quetzal_isa::*;

    fn square_batch(runner: &BatchRunner, n: usize) -> Vec<u64> {
        let items: Vec<u64> = (0..n as u64).collect();
        runner
            .run(
                &items,
                || 0u64,
                |acc, _i, &x| {
                    *acc += x;
                    *acc + x * x
                },
            )
            .unwrap()
    }

    #[test]
    fn results_are_in_item_order() {
        let runner = BatchRunner::new(3);
        let items: Vec<usize> = (0..17).collect();
        let got = runner.run(&items, || (), |(), i, &x| (i, x)).unwrap();
        assert_eq!(got, items.iter().map(|&x| (x, x)).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        // Shard-local state (the accumulator) makes scheduling-dependent
        // sharding observable; with shard size fixed, it must not be.
        for shard in [1, 4] {
            let want = square_batch(&BatchRunner::new(1).with_shard_size(shard), 23);
            for threads in [2, 3, 8] {
                let got = square_batch(&BatchRunner::new(threads).with_shard_size(shard), 23);
                assert_eq!(want, got, "threads={threads} shard={shard}");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let runner = BatchRunner::new(4);
        let got: Vec<u64> = runner.run(&[] as &[u64], || (), |(), _, &x| x).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn machines_run_real_kernels_per_shard() {
        let runner = BatchRunner::new(2);
        let items = [1i64, 2, 3, 4, 5];
        let got = runner
            .run_machines(&MachineConfig::default(), &items, |m, _i, &x| {
                let mut b = ProgramBuilder::new();
                b.mov_imm(X0, x);
                b.alu_ri(SAluOp::Mul, X0, X0, 10);
                b.halt();
                m.run(&b.build().unwrap()).unwrap();
                m.core().state().x(X0)
            })
            .unwrap();
        assert_eq!(got, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn pooled_machines_match_fresh_machines_exactly() {
        // One worker, shard size 1: the pool forces every shard after
        // the first onto a reset machine. Results (timing included)
        // must equal per-item fresh machines.
        let items: Vec<i64> = (1..=6).collect();
        let work = |m: &mut Machine, x: i64| {
            let mut b = ProgramBuilder::new();
            let top = b.label();
            b.mov_imm(X0, 0);
            b.mov_imm(X1, 0x3000);
            b.bind(top);
            b.store(X0, X1, 0, MemSize::B8);
            b.alu_ri(SAluOp::Add, X1, X1, 64);
            b.alu_ri(SAluOp::Add, X0, X0, 1);
            b.mov_imm(X2, 40);
            b.branch(BranchCond::Lt, X0, X2, top);
            b.alu_ri(SAluOp::Add, X0, X0, x);
            b.halt();
            let stats = m.run(&b.build().unwrap()).unwrap();
            (m.core().state().x(X0), stats.cycles)
        };
        let pooled = BatchRunner::new(1)
            .run_machines(&MachineConfig::default(), &items, |m, _i, &x| work(m, x))
            .unwrap();
        let fresh: Vec<(u64, u64)> = items
            .iter()
            .map(|&x| work(&mut Machine::new(MachineConfig::default()), x))
            .collect();
        assert_eq!(pooled, fresh);
    }

    #[test]
    fn panic_is_isolated_and_reported_deterministically() {
        let items: Vec<usize> = (0..10).collect();
        for threads in [1, 4] {
            let err = BatchRunner::new(threads)
                .run(
                    &items,
                    || (),
                    |(), i, _| {
                        if i == 3 || i == 7 {
                            panic!("boom at {i}");
                        }
                        i
                    },
                )
                .unwrap_err();
            // Lowest failing shard wins regardless of scheduling.
            assert_eq!(err.shard, 3, "threads={threads}");
            assert_eq!(err.items, (3, 4));
            assert!(err.message.contains("boom at 3"), "{}", err.message);
            assert!(err.to_string().contains("shard 3"));
        }
    }

    #[test]
    fn shard_size_groups_items_on_one_context() {
        let runner = BatchRunner::new(4).with_shard_size(3);
        let items: Vec<u64> = (0..9).collect();
        // Context counts how many items it has seen; with shard size 3
        // the per-item counter pattern must be 1,2,3,1,2,3,1,2,3.
        let got = runner
            .run(
                &items,
                || 0u64,
                |seen, _i, _x| {
                    *seen += 1;
                    *seen
                },
            )
            .unwrap();
        assert_eq!(got, vec![1, 2, 3, 1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn shard_panic_quarantines_the_machine() {
        // Regression: a machine checked out by a panicking shard used to
        // be pushed back to the free pool on drop, mid-run state and
        // all. It must be quarantined, and the next checkout must be a
        // cold-boot-clean machine.
        let config = MachineConfig::default();
        let pool = MachinePool::new(&config, ExecMode::default());
        let heap_base = {
            let mut probe = pool.checkout();
            probe.machine().alloc(8)
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut pooled = pool.checkout();
            pooled.machine().alloc(4096); // dirty mid-run state
            panic!("shard died");
        }));
        assert!(outcome.is_err());
        assert_eq!(
            lock(pool.free_list()).len(),
            0,
            "panicked machine must not return to the free pool"
        );
        assert_eq!(pool.stats().quarantined, 1, "the panicked machine");
        let mut pooled = pool.checkout();
        assert_eq!(
            pooled.machine().alloc(8),
            heap_base,
            "checkout after a shard panic must be cold-boot clean"
        );
    }

    #[test]
    fn faulting_items_degrade_gracefully() {
        // Items 3 and 7 return typed errors; everything else succeeds.
        // The report must carry the healthy results bit-identically at
        // every thread count, with failures ordered by item index.
        let items: Vec<i64> = (0..10).collect();
        let run = |threads: usize| {
            BatchRunner::new(threads)
                .run_machines_report(&MachineConfig::default(), &items, |m, i, &x| {
                    let mut b = ProgramBuilder::new();
                    let top = b.label();
                    b.mov_imm(X0, x);
                    b.alu_ri(SAluOp::Mul, X0, X0, 10);
                    if i == 3 || i == 7 {
                        // Deterministic fault: spin forever under a
                        // tiny instruction budget.
                        b.bind(top);
                        b.jump(top);
                        m.core_mut().set_budget(100);
                    }
                    b.halt();
                    let stats = m.run(&b.build().unwrap())?;
                    Ok((m.core().state().x(X0), stats.cycles))
                })
                .unwrap()
        };
        let single = run(1);
        assert_eq!(single.results.len(), 10);
        assert_eq!(
            single.failures,
            vec![
                ItemFailure {
                    item: 3,
                    cause: FailureCause::Sim(SimError::InstLimit { budget: 100 }),
                    recovered: false,
                },
                ItemFailure {
                    item: 7,
                    cause: FailureCause::Sim(SimError::InstLimit { budget: 100 }),
                    recovered: false,
                },
            ]
        );
        assert!(single.results[3].is_none() && single.results[7].is_none());
        assert_eq!(single.healthy().count(), 8);
        for threads in [2, 4] {
            let multi = run(threads);
            assert_eq!(single.results, multi.results, "threads={threads}");
            assert_eq!(single.failures, multi.failures, "threads={threads}");
        }
    }

    #[test]
    fn panicking_item_is_retried_on_a_fresh_machine() {
        // Item 2 panics on its first attempt only; the retry must
        // succeed (recovered=true) and later items must be unaffected.
        let first_attempt = std::sync::atomic::AtomicBool::new(true);
        let items: Vec<i64> = (0..5).collect();
        let report = BatchRunner::new(1)
            .with_shard_size(5)
            .run_machines_report(&MachineConfig::default(), &items, |m, i, &x| {
                if i == 2 && first_attempt.swap(false, Ordering::Relaxed) {
                    m.alloc(1 << 20); // dirty the machine, then die
                    panic!("transient fault");
                }
                let mut b = ProgramBuilder::new();
                b.mov_imm(X0, x);
                b.halt();
                m.run(&b.build().unwrap())?;
                Ok(m.core().state().x(X0))
            })
            .unwrap();
        assert_eq!(
            report.results,
            vec![Some(0), Some(1), Some(2), Some(3), Some(4)]
        );
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.item, 2);
        assert!(failure.recovered);
        assert_eq!(
            failure.cause,
            FailureCause::Panic("transient fault".to_string())
        );
        assert_eq!(
            failure.to_string(),
            "item 2: panic: transient fault (recovered on retry)"
        );
    }

    #[test]
    fn report_on_clean_batch_matches_run_machines() {
        let items: Vec<i64> = (1..=6).collect();
        let work = |m: &mut Machine, x: i64| {
            let mut b = ProgramBuilder::new();
            b.mov_imm(X0, x);
            b.alu_ri(SAluOp::Mul, X0, X0, 7);
            b.halt();
            let stats = m.run(&b.build().unwrap()).unwrap();
            (m.core().state().x(X0), stats.cycles)
        };
        let plain = BatchRunner::new(2)
            .run_machines(&MachineConfig::default(), &items, |m, _i, &x| work(m, x))
            .unwrap();
        let report = BatchRunner::new(2)
            .run_machines_report(&MachineConfig::default(), &items, |m, _i, &x| {
                Ok(work(m, x))
            })
            .unwrap();
        assert!(report.is_clean());
        let healthy: Vec<(u64, u64)> = report.healthy().map(|(_, r)| *r).collect();
        assert_eq!(healthy, plain);
    }

    #[test]
    fn pre_verification_rejects_fatal_programs_without_simulating() {
        // Item 1's program provably falls off the end of its image; the
        // verifier must reject it before the work closure ever runs,
        // and the healthy neighbours must be unaffected.
        let good = |x: i64| {
            let mut b = ProgramBuilder::new();
            b.mov_imm(X0, x);
            b.halt();
            b.build().unwrap()
        };
        let bad = Program::from_raw(vec![Instruction::MovImm { rd: X0, imm: 7 }], "falls-off");
        let items = [good(1), bad, good(3)];
        for threads in [1, 4] {
            let simulated = AtomicUsize::new(0);
            let report = BatchRunner::new(threads)
                .run_machines_report_verified(
                    &MachineConfig::default(),
                    &items,
                    |p| p,
                    |m, _i, p| {
                        simulated.fetch_add(1, Ordering::Relaxed);
                        m.run(p)?;
                        Ok(m.core().state().x(X0))
                    },
                )
                .unwrap();
            assert_eq!(simulated.load(Ordering::Relaxed), 2, "threads={threads}");
            assert_eq!(report.results, vec![Some(1), None, Some(3)]);
            assert_eq!(report.failures.len(), 1);
            let failure = &report.failures[0];
            assert_eq!(failure.item, 1);
            assert!(!failure.recovered);
            let FailureCause::Rejected(verify) = &failure.cause else {
                panic!("expected a static rejection, got {}", failure.cause);
            };
            assert_eq!(verify.verdict(), Verdict::Fatal);
            assert!(failure.to_string().contains("statically rejected"));
        }
    }

    #[test]
    fn verified_pooled_rejections_never_touch_the_pool() {
        // All items statically fatal: the tenant pool must stay empty —
        // no machine is ever built or checked out for rejected work.
        let bad = Program::from_raw(vec![Instruction::MovImm { rd: X0, imm: 7 }], "falls-off");
        let items = [bad.clone(), bad];
        let config = MachineConfig::default();
        let pool = MachinePool::new(&config, ExecMode::default());
        let report = BatchRunner::new(1)
            .run_machines_report_verified_pooled(
                &pool,
                &items,
                |p| p,
                |m, _i, p| {
                    m.run(p)?;
                    Ok(m.core().state().x(X0))
                },
            )
            .unwrap();
        assert_eq!(report.results, vec![None, None]);
        assert_eq!(report.failures.len(), 2);
        assert_eq!(
            pool.stats(),
            PoolStats::default(),
            "rejected-only batches must not build machines"
        );
    }

    #[test]
    fn warning_only_programs_are_not_rejected() {
        // Reads an uninitialised register: a warning, not a fatal
        // finding — the item must still simulate (registers are
        // architecturally zero at reset, so it runs fine).
        let mut b = ProgramBuilder::new();
        b.alu_ri(SAluOp::Add, X0, X10, 5);
        b.halt();
        let program = b.build().unwrap();
        let report = quetzal_verify::verify(&program);
        assert_eq!(report.verdict(), quetzal_verify::Verdict::Warnings);
        let items = [program];
        let run = BatchRunner::new(1)
            .run_machines_report_verified(
                &MachineConfig::default(),
                &items,
                |p| p,
                |m, _i, p| {
                    m.run(p)?;
                    Ok(m.core().state().x(X0))
                },
            )
            .unwrap();
        assert!(run.is_clean());
        assert_eq!(run.results, vec![Some(5)]);
    }

    #[test]
    fn verified_generic_contexts_are_built_lazily() {
        // Every item is rejected, so `init` must never run: a batch of
        // provably fatal programs costs zero contexts.
        let bad = Program::from_raw(vec![Instruction::MovImm { rd: X0, imm: 7 }], "falls-off");
        let items = [bad.clone(), bad];
        let inits = AtomicUsize::new(0);
        let report = BatchRunner::new(1)
            .with_shard_size(2)
            .run_report_verified(
                &items,
                |p| p,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, _, _| Ok(0u64),
            )
            .unwrap();
        assert_eq!(
            inits.load(Ordering::Relaxed),
            0,
            "no context for rejected-only shards"
        );
        assert_eq!(report.results, vec![None, None]);
        assert_eq!(report.failures.len(), 2);
    }

    #[test]
    fn verified_admission_pre_sizes_budgets_from_the_proven_bound() {
        // The verified gate installs the program's proven resource
        // bound as the machine's budgets before the work closure runs.
        // A conforming item never feels them (the bound is a ceiling on
        // every execution of the verified program), so to observe the
        // sizing the work closure misbehaves: it runs an unbounded spin
        // instead of the verified two-instruction program, and must die
        // within the proof's envelope — not at the global
        // two-billion-instruction watchdog.
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 1);
        b.halt();
        let verified = b.build().unwrap();
        let proven = quetzal_verify::verify(&verified)
            .bound()
            .instructions
            .expect("straight-line program has a finite bound");
        let mut s = ProgramBuilder::new();
        let top = s.label();
        s.bind(top);
        s.jump(top);
        s.halt(); // unreachable, satisfies the builder's halt check
        let spin = s.build().unwrap();
        let items = [verified];
        let report = BatchRunner::new(1)
            .run_machines_report_verified(
                &MachineConfig::default(),
                &items,
                |p| p,
                |m, _i, _p| {
                    m.run(&spin)?;
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(report.failures.len(), 1);
        assert_eq!(
            report.failures[0].cause,
            FailureCause::Sim(SimError::InstLimit { budget: proven }),
            "the runaway must trip the pre-sized budget, not the watchdog"
        );
        assert!(!report.failures[0].recovered, "the retry is sized too");
    }

    #[test]
    fn pre_sized_budgets_are_invisible_to_conforming_items() {
        // Results *and timing* of a verified batch must be
        // bit-identical to the unverified entry point: proven bounds
        // are ceilings, so the tightened budgets never fire, and
        // setting them has no timing side effects.
        let program = {
            let mut b = ProgramBuilder::new();
            let top = b.label();
            b.mov_imm(X0, 0);
            b.mov_imm(X1, 0x3000);
            b.mov_imm(X2, 40);
            b.bind(top);
            b.store(X0, X1, 0, MemSize::B8);
            b.alu_ri(SAluOp::Add, X1, X1, 64);
            b.alu_ri(SAluOp::Add, X0, X0, 1);
            b.branch(BranchCond::Lt, X0, X2, top);
            b.halt();
            b.build().unwrap()
        };
        let bound = *quetzal_verify::verify(&program).bound();
        assert!(bound.is_bounded(), "test premise: the loop is provable");
        let items = vec![program.clone(), program.clone(), program];
        let work = |m: &mut Machine, p: &Program| -> Result<(u64, u64), SimError> {
            let stats = m.run(p)?;
            Ok((m.core().state().x(X0), stats.cycles))
        };
        let plain = BatchRunner::new(1)
            .run_machines_report(&MachineConfig::default(), &items, |m, _i, p| work(m, p))
            .unwrap();
        let verified = BatchRunner::new(1)
            .run_machines_report_verified(
                &MachineConfig::default(),
                &items,
                |p| p,
                |m, _i, p| work(m, p),
            )
            .unwrap();
        assert!(plain.is_clean() && verified.is_clean());
        assert_eq!(plain.results, verified.results);
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_panics() {
        let _ = BatchRunner::new(0);
    }

    #[test]
    #[should_panic(expected = "shard size must be positive")]
    fn zero_shard_size_panics() {
        let _ = BatchRunner::new(1).with_shard_size(0);
    }
}
