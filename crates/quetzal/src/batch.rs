//! Deterministic parallel batch simulation.
//!
//! The paper's evaluation simulates thousands of *independent*
//! alignment pairs per experiment — embarrassing parallelism that the
//! accelerator exploits in hardware and that the host-side experiment
//! harness exploits here. [`BatchRunner`] shards a slice of independent
//! work items across `QUETZAL_THREADS` worker threads, each shard
//! simulated on its own cold [`Machine`] (core + caches + QBUFFERs).
//!
//! The runner has two layers and one driver over them:
//!
//! * [`run`](BatchRunner::run) — the generic shard-and-merge core: every
//!   item is its own shard, with a fresh context from `init` and the
//!   work closure. Simulation callers pass `|| pool.checkout()` over a
//!   [`MachinePool`] built with the runner's
//!   [`exec_mode`](BatchRunner::exec_mode);
//! * [`run_machines_report_pooled`](BatchRunner::run_machines_report_pooled)
//!   — pooled machines with a fault boundary per item;
//! * [`run_chunks`](BatchRunner::run_chunks) — the one chunk driver
//!   over the pooled path, for served align and fault jobs and ingest
//!   shards: each chunk's [`RunReport`] goes to a callback that may stop
//!   the run early ([`Stopped`]).
//!
//! Machine lifecycle — pooling, quarantine, reset ≡ fresh, the
//! retry-on-fresh-machine boundary — lives in [`crate::pool`]; this
//! module owns sharding, chunking and deterministic merging. The
//! `qzserved` daemon (`quetzal-served`) drives the same layers over
//! long-lived per-tenant pools.
//!
//! # Determinism guarantee
//!
//! The output is **bit-identical for every thread count**, including 1.
//! This holds by construction:
//!
//! 1. every item is its own shard, so sharding is a pure function of
//!    the item count — never of the thread count;
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
//! [`run_machines_report_pooled`](BatchRunner::run_machines_report_pooled)
//! adds a fault boundary *per item*: a work closure that returns a
//! typed [`SimError`] or panics costs only its own item, not the shard
//! or the batch. The failing item is retried once on a brand-new
//! (non-pooled) machine; the outcome lands in a [`RunReport`] whose
//! `failures` list is ordered by item index and independent of the
//! thread count, while every healthy item's result stays bit-identical
//! to a fault-free run. A machine that was live during a failure is
//! **quarantined** — counted, dropped, and never returned to the pool —
//! because a panic may have unwound mid-simulation and
//! [`Machine::reset`]'s cold-boot guarantee is only pinned for machines
//! that completed their runs.
//!
//! The runner applies no budgets of its own: a work closure that wants
//! tighter watchdogs sets them on its machine, on every attempt (reset
//! and fault replacement restore the defaults).
//!
//! ```
//! use quetzal::BatchRunner;
//!
//! let runner = BatchRunner::new(4);
//! let items = [3u64, 1, 4, 1, 5, 9, 2, 6];
//! let doubled = runner
//!     .run(&items, || (), |(), _idx, &x| 2 * x)
//!     .unwrap();
//! assert_eq!(doubled, vec![6, 2, 8, 2, 10, 18, 4, 12]);
//! ```

use crate::pool::{panic_message, retry_item};
use crate::{ExecMode, Machine, SimError};
use std::ops::ControlFlow;
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
    /// Index of the failing shard, which is its one item's index.
    pub shard: usize,
    /// The panic payload, if it was a string.
    pub message: String,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch shard {} panicked: {}", self.shard, self.message)
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
    /// the retry failed too, or was never admitted.
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

    /// Per-item `(result, failure)` slots in item order: a healthy item
    /// has a result and no failure, a recovered one both, a failed one
    /// only its failure, and an item [`run_chunks`](BatchRunner::run_chunks)
    /// did not admit neither.
    pub fn slots(&self) -> impl Iterator<Item = (Option<&R>, Option<&ItemFailure>)> {
        let mut failures = self.failures.iter().peekable();
        self.results
            .iter()
            .enumerate()
            .map(move |(i, slot)| (slot.as_ref(), failures.next_if(|f| f.item == i)))
    }
}

/// Where [`BatchRunner::run_chunks`] stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stopped<S> {
    /// Index of the first item the driver never ran: the one after the
    /// chunk whose callback broke.
    pub next: usize,
    /// The reason the callback broke with.
    pub reason: S,
}

/// Deterministic parallel executor for slices of independent work items.
///
/// See the [module docs](self) for the determinism guarantee.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    threads: usize,
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

    /// Selects the execution engine callers build their
    /// [`MachinePool`] with: the cycle-level timing model (default) or
    /// the functional tier. The pool applies the mode to every
    /// machine it hands out — fresh, recycled and fault-replaced alike —
    /// so a whole batch runs on one engine regardless of sharding.
    #[must_use]
    pub fn with_exec_mode(mut self, mode: ExecMode) -> BatchRunner {
        self.exec_mode = mode;
        self
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The runner's execution engine (see
    /// [`with_exec_mode`](Self::with_exec_mode)): the mode callers
    /// build their [`MachinePool`] with, so every batch of one runner
    /// simulates on the same engine.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Runs `work` over every item, in parallel, one item per shard.
    ///
    /// `init` builds one fresh context per item; `work(ctx, index,
    /// item)` processes item `index` on it. Results come back in item
    /// order.
    ///
    /// For simulation work the context is a machine checked out of a
    /// [`MachinePool`] (`init = || pool.checkout()`), so every item
    /// starts from cold simulated caches and QBUFFERs. An item that
    /// panics drops its checkout while unwinding, which quarantines the
    /// machine instead of returning it to the pool.
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
        // One slot per item: its result, or the panic message.
        let mut slots: Vec<Mutex<Option<Result<R, String>>>> = Vec::new();
        slots.resize_with(items.len(), || Mutex::new(None));
        let next = AtomicUsize::new(0);

        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut ctx = init();
                work(&mut ctx, i, &items[i])
            }))
            .map_err(panic_message);
            *slots[i].lock().expect("result slot") = Some(outcome);
        };
        let workers = self.threads.min(items.len().max(1));
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

        // Deterministic merge: item order, first failure wins.
        let mut out = Vec::with_capacity(items.len());
        for (shard, slot) in slots.into_iter().enumerate() {
            let outcome = slot
                .into_inner()
                .expect("result slot")
                .expect("every shard was claimed by a worker");
            match outcome {
                Ok(r) => out.push(r),
                Err(message) => return Err(BatchError { shard, message }),
            }
        }
        Ok(out)
    }

    /// Fault-tolerant [`run`](Self::run) over pooled machines: every
    /// shard checks a machine out of `pool`, and a failing item (typed
    /// [`SimError`] or panic) costs only itself. It is retried **once**
    /// on a brand-new (never pooled) machine; any machine that was live
    /// during a failure — first attempt or retry — is quarantined and
    /// never returned to the pool, so later items and shards cannot
    /// inherit poisoned state.
    ///
    /// Machines (and their cache tag arrays) survive across calls, so
    /// repeated batches on one configuration pay machine construction
    /// once. The pool's [`ExecMode`] governs every
    /// checkout; recycled machines are reset to cold-boot state, keeping
    /// results bit-identical to a fresh pool at any thread count. An
    /// empty `items` slice checks nothing out.
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
            |pooled, i, item| retry_item(pooled, i, item, &work),
        )?;
        Ok(Self::collect_report(rows))
    }

    /// Runs `items` in item order, `chunk` at a time (0 is taken as 1),
    /// through [`run_machines_report_pooled`](Self::run_machines_report_pooled),
    /// handing each chunk's report and first item index `base` to
    /// `each`; report slot `k` is item `base + k`. Chunk boundaries
    /// depend on `chunk` alone, so every report is thread-invariant.
    ///
    /// Items `admit` refuses keep their slot, with neither result nor
    /// failure, and never check a machine out. A [`ControlFlow::Break`]
    /// from `each` stops the run after that chunk.
    ///
    /// # Errors
    ///
    /// Returns the [`BatchError`] of an infrastructure panic; no later
    /// chunk runs.
    pub fn run_chunks<T, R, S>(
        &self,
        pool: &MachinePool,
        items: &[T],
        chunk: usize,
        admit: impl Fn(&T) -> bool,
        work: impl Fn(&mut Machine, usize, &T) -> Result<R, SimError> + Sync,
        mut each: impl FnMut(usize, RunReport<R>) -> ControlFlow<S>,
    ) -> Result<ControlFlow<Stopped<S>>, BatchError>
    where
        T: Sync,
        R: Send,
    {
        let chunk = chunk.max(1);
        for base in (0..items.len()).step_by(chunk) {
            let end = (base + chunk).min(items.len());
            let admitted: Vec<usize> = (base..end).filter(|&i| admit(&items[i])).collect();
            let ran =
                self.run_machines_report_pooled(pool, &admitted, |m, _, &i| work(m, i, &items[i]))?;
            // Spread the admitted items' slots back over the whole chunk.
            let mut results: Vec<Option<R>> = (base..end).map(|_| None).collect();
            for (&i, result) in admitted.iter().zip(ran.results) {
                results[i - base] = result;
            }
            let mut failures = ran.failures;
            for f in &mut failures {
                f.item = admitted[f.item] - base;
            }
            if let ControlFlow::Break(reason) = each(base, RunReport { results, failures }) {
                return Ok(ControlFlow::Break(Stopped { next: end, reason }));
            }
        }
        Ok(ControlFlow::Continue(()))
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
    use crate::MachineConfig;
    use quetzal_isa::*;

    /// A fresh pool over the default configuration, on `runner`'s engine.
    fn pool_for(runner: &BatchRunner) -> MachinePool {
        MachinePool::new(&MachineConfig::default(), runner.exec_mode())
    }

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
        // Shard-local state (the accumulator) would make a shard that
        // spans items observable; one item per shard, it must not be.
        let want = square_batch(&BatchRunner::new(1), 23);
        for threads in [2, 3, 8] {
            let got = square_batch(&BatchRunner::new(threads), 23);
            assert_eq!(want, got, "threads={threads}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let runner = BatchRunner::new(4);
        let got: Vec<u64> = runner.run(&[] as &[u64], || (), |(), _, &x| x).unwrap();
        assert!(got.is_empty());
        // An empty pooled batch never touches the pool: the served
        // fault job relies on this for chunks of only rejected cases.
        let pool = pool_for(&runner);
        let report = runner
            .run_machines_report_pooled(&pool, &[] as &[u64], |_m, _i, &x| Ok(x))
            .unwrap();
        assert!(report.results.is_empty() && report.is_clean());
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn machines_run_real_kernels_per_shard() {
        let runner = BatchRunner::new(2);
        let pool = pool_for(&runner);
        let items = [1i64, 2, 3, 4, 5];
        let got = runner
            .run(
                &items,
                || pool.checkout(),
                |p, _i, &x| {
                    let m = p.machine();
                    let mut b = ProgramBuilder::new();
                    b.mov_imm(X0, x);
                    b.alu_ri(SAluOp::Mul, X0, X0, 10);
                    b.halt();
                    m.run(&b.build().unwrap()).unwrap();
                    m.core().state().x(X0)
                },
            )
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
        let runner = BatchRunner::new(1);
        let pool = pool_for(&runner);
        let pooled = runner
            .run_machines_report_pooled(&pool, &items, |m, _i, &x| Ok(work(m, x)))
            .unwrap();
        assert_eq!(
            pool.stats().built,
            1,
            "every shard after the first recycled"
        );
        let fresh: Vec<Option<(u64, u64)>> = items
            .iter()
            .map(|&x| Some(work(&mut Machine::new(MachineConfig::default()), x)))
            .collect();
        assert!(pooled.is_clean());
        assert_eq!(pooled.results, fresh);
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
            assert!(err.message.contains("boom at 3"), "{}", err.message);
            assert!(err.to_string().contains("shard 3"));
        }
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
            let runner = BatchRunner::new(threads);
            runner
                .run_machines_report_pooled(&pool_for(&runner), &items, |m, i, &x| {
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
        let runner = BatchRunner::new(1);
        let pool = pool_for(&runner);
        let report = runner
            .run_machines_report_pooled(&pool, &items, |m, i, &x| {
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
        let stats = pool.stats();
        assert_eq!(stats.quarantined, 1, "the machine live during the panic");
        // Items 0 and 1 build one machine and recycle it; item 2's retry
        // builds the second, which returns to the pool and serves
        // items 3 and 4.
        assert_eq!(stats.built, 2, "the first checkout plus the retry machine");
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
        let runner = BatchRunner::new(2);
        let pool = pool_for(&runner);
        let plain = runner
            .run(&items, || pool.checkout(), |p, _i, &x| work(p.machine(), x))
            .unwrap();
        let report = runner
            .run_machines_report_pooled(&pool_for(&runner), &items, |m, _i, &x| Ok(work(m, x)))
            .unwrap();
        assert!(report.is_clean());
        let healthy: Vec<(u64, u64)> = report.healthy().map(|(_, r)| *r).collect();
        assert_eq!(healthy, plain);
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_panics() {
        let _ = BatchRunner::new(0);
    }

    /// One traced run of the chunk driver over items `0..10` in chunks
    /// of 3, admitting every item but 4, breaking after the chunk at
    /// `stop_at` (if any): the items the work closure saw, each chunk's
    /// base and slots, the outcome, and the machines quarantined (the
    /// thread-invariant pool tally).
    type DriverTrace = (
        Vec<usize>,
        Vec<(usize, Vec<(Option<u64>, Option<ItemFailure>)>)>,
        ControlFlow<Stopped<&'static str>>,
        usize,
    );

    fn drive(threads: usize, stop_at: Option<usize>) -> DriverTrace {
        let runner = BatchRunner::new(threads);
        let pool = pool_for(&runner);
        let items: Vec<u64> = (0..10).collect();
        let seen = Mutex::new(Vec::new());
        let mut chunks = Vec::new();
        let outcome = runner
            .run_chunks(
                &pool,
                &items,
                3,
                |&x| x != 4,
                |m, i, &x| {
                    seen.lock().unwrap().push(i);
                    let mut b = ProgramBuilder::new();
                    b.mov_imm(X0, x as i64 * 10);
                    if x == 7 {
                        // A deterministic typed fault on both attempts.
                        let top = b.label();
                        b.bind(top);
                        b.jump(top);
                        m.core_mut().set_budget(100);
                    }
                    b.halt();
                    m.run(&b.build().unwrap())?;
                    Ok(m.core().state().x(X0))
                },
                |base, report| {
                    let slots = report.slots().map(|(r, f)| (r.copied(), f.cloned()));
                    chunks.push((base, slots.collect()));
                    match stop_at {
                        Some(stop) if stop == base => ControlFlow::Break("stop"),
                        _ => ControlFlow::Continue(()),
                    }
                },
            )
            .unwrap();
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        (seen, chunks, outcome, pool.stats().quarantined)
    }

    #[test]
    fn chunk_driver_runs_in_order_and_stops_where_told() {
        for threads in [1, 4] {
            // No stop: every admitted item runs once, chunks arrive in
            // order with their bases, slots are chunk-local.
            let (seen, chunks, outcome, quarantined) = drive(threads, None);
            assert_eq!(seen, vec![0, 1, 2, 3, 5, 6, 7, 7, 8, 9], "7 is retried");
            let bases: Vec<usize> = chunks.iter().map(|(base, _)| *base).collect();
            assert_eq!(bases, vec![0, 3, 6, 9]);
            let slots: Vec<_> = chunks.iter().flat_map(|(_, s)| s.clone()).collect();
            for (item, (result, failure)) in slots.iter().enumerate() {
                match item {
                    4 => assert_eq!((result, failure), (&None, &None), "not admitted"),
                    7 => {
                        assert_eq!(*result, None);
                        let failure = failure.as_ref().unwrap();
                        assert_eq!((failure.item, failure.recovered), (1, false));
                        assert_eq!(failure.cause.kind(), "sim");
                    }
                    _ => assert_eq!((*result, failure), (Some(item as u64 * 10), &None)),
                }
            }
            assert_eq!(outcome, ControlFlow::Continue(()));
            assert_eq!(quarantined, 2, "both attempts at item 7");

            // A stop after the second chunk: nothing past it runs, and
            // the driver names the first unrun item.
            let (seen, stopped_chunks, outcome, _) = drive(threads, Some(3));
            assert_eq!(seen, vec![0, 1, 2, 3, 5]);
            assert_eq!(stopped_chunks[..], chunks[..2]);
            assert_eq!(
                outcome,
                ControlFlow::Break(Stopped {
                    next: 6,
                    reason: "stop"
                })
            );
            for stop_at in [None, Some(3)] {
                assert_eq!(
                    drive(threads, stop_at),
                    drive(1, stop_at),
                    "threads={threads} stop_at={stop_at:?}"
                );
            }
        }
    }

    #[test]
    fn chunk_driver_checks_nothing_out_for_unadmitted_items() {
        let runner = BatchRunner::new(2);
        let pool = pool_for(&runner);
        let mut bases = Vec::new();
        let outcome = runner
            .run_chunks(
                &pool,
                &[1u64, 2, 3],
                0,
                |_| false,
                |_m, _i, &x| Ok(x),
                |base, report| {
                    assert_eq!(report.slots().collect::<Vec<_>>(), vec![(None, None)]);
                    bases.push(base);
                    ControlFlow::<()>::Continue(())
                },
            )
            .unwrap();
        assert_eq!(outcome, ControlFlow::Continue(()));
        assert_eq!(bases, vec![0, 1, 2], "a chunk of 0 is taken as 1");
        assert_eq!(pool.stats(), PoolStats::default());
    }
}
