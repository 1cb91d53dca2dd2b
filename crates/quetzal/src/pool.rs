//! Machine lifecycle management: pooling, quarantine, and the
//! retry-on-fresh-machine fault boundary.
//!
//! This module is the **single owner** of `Machine` lifecycle semantics.
//! Both consumers drive it:
//!
//! * one-shot [`BatchRunner`](crate::BatchRunner) callers (experiments,
//!   the pipeline, ingestion) build a pool per batch, or keep one across
//!   repeated batches of one configuration;
//! * the `qzserved` alignment daemon (`quetzal-served`) keeps one
//!   long-lived pool per tenant across jobs.
//!
//! The rules, in one place:
//!
//! * **checkout** hands out a machine [`Machine::reset`] to cold-boot
//!   state, or builds a fresh one — reset ≡ fresh is pinned by
//!   `tests/parallel.rs`, so the two are indistinguishable;
//! * **return** happens on drop of the [`PooledMachine`] guard, back to
//!   the free list — unless the thread is unwinding, in which case the
//!   machine is **quarantined**: a panic mid-run leaves state `reset`
//!   is not pinned against;
//! * a machine live during any per-item failure is quarantined via
//!   [`PooledMachine::replace_with_fresh`] and the item retried **once**
//!   on a brand-new (never pooled) machine — the `retry_item` boundary
//!   behind [`BatchRunner::run_machines_report_pooled`](crate::BatchRunner::run_machines_report_pooled);
//! * quarantined machines are dropped on the spot and only counted
//!   ([`MachinePool::stats`]) — a service surfaces the tally instead of
//!   trying to prove a poisoned machine clean.
//!
//! # Budget ownership
//!
//! [`Budgets`] is the one budget type: a served job's `budgets`
//! object and the fault sweep's watchdogs
//! ([`SWEEP_BUDGETS`](crate::fault::SWEEP_BUDGETS)) are both values of
//! it, set with [`Budgets::apply`]. Static proofs do not size budgets:
//! a sound resource bound can never trip a watchdog, so proofs gate
//! admission and the soundness corpora check them instead.
//!
//! [`Machine::reset`] restores the **default** instruction, cycle and
//! page watchdogs — it deliberately does *not* preserve caller
//! overrides (a recycled machine must be indistinguishable from a
//! fresh one, and a stale tight budget from a previous tenant would be
//! state leaking across checkouts). Every checkout and every
//! fault-replacement machine therefore starts at the default watchdogs,
//! and budgets belong to the work closure: it applies the ones it wants
//! to the machine it is handed, on **every attempt** — the retry runs
//! on a brand-new machine that carries none of the first attempt's
//! settings. Code that calls [`Machine::reset`] directly must likewise
//! re-apply any budget it cares about afterwards.

use crate::{ExecMode, Machine, MachineConfig, Probe, SimError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Best-effort panic payload extraction.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks a pool list, ignoring lock poisoning: the lists are only ever
/// pushed to / popped from, and a panic cannot unwind mid-`Vec`
/// operation in a way that leaves the list structurally broken.
pub(crate) fn lock(list: &Mutex<Vec<Machine>>) -> std::sync::MutexGuard<'_, Vec<Machine>> {
    list.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-run machine budgets: the watchdogs a work closure sets on the
/// machine it is handed ([`apply`](Self::apply)).
///
/// Each component overrides the corresponding global watchdog; `None`
/// keeps the default (the `Core::DEFAULT_BUDGET` instruction watchdog,
/// cycle watchdog off, page cap
/// [`DEFAULT_PAGE_BUDGET`](quetzal_uarch::state::DEFAULT_PAGE_BUDGET)). The
/// instruction and cycle budgets are per run; the page budget is the
/// absolute cap on resident guest pages (simulated memory persists
/// across runs on one machine, so it counts pages staged before the
/// run too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budgets {
    /// Per-run retired-instruction budget (`SimError::InstLimit` beyond
    /// it).
    pub instructions: Option<u64>,
    /// Per-run cycle watchdog (`SimError::CycleLimit` beyond it; timed
    /// runs only — the functional tier has no clock).
    pub cycles: Option<u64>,
    /// Cap on resident guest pages (`SimError::MemoryFault` beyond it).
    pub pages: Option<u64>,
}

impl Budgets {
    /// Sets every component that is `Some` on `machine`; the others
    /// keep the machine's current watchdog.
    pub fn apply<P: Probe>(&self, machine: &mut Machine<P>) {
        let core = machine.core_mut();
        if let Some(n) = self.instructions {
            core.set_budget(n);
        }
        if let Some(n) = self.cycles {
            core.set_cycle_budget(n);
        }
        if let Some(n) = self.pages {
            core.state_mut()
                .mem
                .set_page_budget(usize::try_from(n).unwrap_or(usize::MAX));
        }
    }

    /// `true` if no component overrides its global watchdog.
    pub fn is_default(&self) -> bool {
        *self == Budgets::default()
    }
}

/// Why a single batch item failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The work closure returned a typed simulation error.
    Sim(SimError),
    /// The work closure panicked; the payload, if it was a string.
    Panic(String),
}

impl FailureCause {
    /// The cause's spelling in served frames and ingest lines.
    pub fn kind(&self) -> &'static str {
        match self {
            FailureCause::Sim(_) => "sim",
            FailureCause::Panic(_) => "panic",
        }
    }

    /// The [`SimError`]'s display, or the panic payload.
    pub fn detail(&self) -> String {
        match self {
            FailureCause::Sim(e) => e.to_string(),
            FailureCause::Panic(msg) => msg.clone(),
        }
    }
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Sim(e) => write!(f, "simulation error: {e}"),
            FailureCause::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

/// One failed item of a [`RunReport`](crate::RunReport). The recorded
/// cause is the *first* attempt's failure; `recovered` says whether the
/// retry on a fresh context produced a result after all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemFailure {
    /// Index of the failing item in the input slice.
    pub item: usize,
    /// What the first attempt died of.
    pub cause: FailureCause,
    /// `true` if the one retry on a brand-new context succeeded (the
    /// item's result is present despite the failure entry).
    pub recovered: bool,
}

impl std::fmt::Display for ItemFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "item {}: {}{}",
            self.item,
            self.cause,
            if self.recovered {
                " (recovered on retry)"
            } else {
                ""
            }
        )
    }
}

/// Occupancy counters of a [`MachinePool`] — what a service reports per
/// tenant: how many machines were ever built, how many sit idle, and
/// how many were quarantined by failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Machines ever constructed by this pool (fresh + fault
    /// replacements).
    pub built: u64,
    /// Machines currently idle in the free list.
    pub free: usize,
    /// Machines quarantined by panics or per-item failures.
    pub quarantined: usize,
}

/// A pool of reusable [`Machine`]s over one configuration.
///
/// Machines are recycled through `free` (reset-on-checkout), except
/// machines that were live during a panic or a failed item: those are
/// quarantined (counted, then dropped) and never handed out again — a
/// machine that unwound mid-run may violate the invariants [`Machine::reset`]
/// assumes, and a machine involved in a fault is cheaper to replace
/// than to prove clean.
///
/// [`BatchRunner`](crate::BatchRunner) callers build a pool with the
/// runner's [`exec_mode`](crate::BatchRunner::exec_mode) and hand it to
/// [`run`](crate::BatchRunner::run) (as `|| pool.checkout()`) or to
/// [`run_machines_report_pooled`](crate::BatchRunner::run_machines_report_pooled).
/// Callers that run many batches over the same configuration — repeated
/// timing samples of one kernel, or a long-lived service's per-tenant
/// pools — keep one pool across batches, amortising machine
/// construction (multi-megabyte cache tag arrays). Checkout resets
/// every recycled machine to cold-boot state (reset ≡ fresh is pinned
/// by `tests/parallel.rs`), so results are bit-identical to a fresh
/// pool.
pub struct MachinePool {
    config: MachineConfig,
    /// Engine every pooled machine runs on. Applied after construction
    /// *and* after every reset ([`Machine::reset`] restores the
    /// cold-boot default, [`ExecMode::Cycle`]).
    exec_mode: ExecMode,
    built: AtomicU64,
    free: Mutex<Vec<Machine>>,
    /// Machines quarantined since construction or the last
    /// [`purge_quarantine`](Self::purge_quarantine). The machines
    /// themselves are dropped at quarantine time.
    quarantined: AtomicUsize,
}

impl MachinePool {
    /// Creates an empty pool over `config` (cloned — the pool owns its
    /// configuration, so it can outlive the caller's borrow; a
    /// long-lived daemon keeps pools for the process lifetime). Every
    /// machine it hands out runs on `exec_mode` (applied after
    /// construction and after every reset-on-checkout).
    pub fn new(config: &MachineConfig, exec_mode: ExecMode) -> MachinePool {
        MachinePool {
            config: config.clone(),
            exec_mode,
            built: AtomicU64::new(0),
            free: Mutex::new(Vec::new()),
            quarantined: AtomicUsize::new(0),
        }
    }

    /// The configuration every pooled machine is built from.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The execution engine applied to every checkout.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Current occupancy counters (built / free / quarantined).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            built: self.built.load(Ordering::Relaxed),
            free: lock(&self.free).len(),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Resets the quarantine tally, returning how many machines were
    /// quarantined since the last purge. Quarantined machines are
    /// already dropped, so this reclaims no memory; the tally in
    /// [`stats`](Self::stats) restarts from zero, so services should
    /// accumulate the count before purging.
    pub fn purge_quarantine(&self) -> usize {
        self.quarantined.swap(0, Ordering::Relaxed)
    }

    /// Counts a machine as quarantined; taking it by value drops it.
    fn quarantine(&self, _machine: Machine) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// A brand-new machine (never pooled) on the pool's execution mode.
    fn fresh(&self) -> Machine {
        self.built.fetch_add(1, Ordering::Relaxed);
        let mut machine = Machine::new(self.config.clone());
        machine.set_exec_mode(self.exec_mode);
        machine
    }

    /// Checks a machine out of the free list (reset to cold-boot
    /// state), or builds a fresh one if the list is empty. Either way
    /// the pool's execution mode is re-applied — [`Machine::reset`]
    /// restores the cold-boot default — and the budgets are the default
    /// watchdogs.
    pub fn checkout(&self) -> PooledMachine<'_> {
        let machine = match lock(&self.free).pop() {
            Some(mut machine) => {
                machine.reset();
                machine.set_exec_mode(self.exec_mode);
                machine
            }
            None => self.fresh(),
        };
        PooledMachine {
            machine: Some(machine),
            pool: self,
        }
    }

    #[cfg(test)]
    pub(crate) fn free_list(&self) -> &Mutex<Vec<Machine>> {
        &self.free
    }
}

impl std::fmt::Debug for MachinePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("MachinePool")
            .field("exec_mode", &self.exec_mode)
            .field("built", &stats.built)
            .field("free", &stats.free)
            .field("quarantined", &stats.quarantined)
            .finish_non_exhaustive()
    }
}

/// A machine checked out of a [`MachinePool`]. On drop it returns to
/// the free list — unless the thread is unwinding, in which case it is
/// quarantined (a panic mid-[`Machine::run`] leaves state `reset` is
/// not pinned against).
pub struct PooledMachine<'a> {
    machine: Option<Machine>,
    pool: &'a MachinePool,
}

impl PooledMachine<'_> {
    /// The checked-out machine.
    pub fn machine(&mut self) -> &mut Machine {
        self.machine.as_mut().expect("checked-out machine")
    }

    /// Quarantines the current machine and installs a brand-new one —
    /// the fault-recovery path: never re-pool a machine that was live
    /// during a failure.
    pub fn replace_with_fresh(&mut self) {
        if let Some(old) = self.machine.take() {
            self.pool.quarantine(old);
        }
        self.machine = Some(self.pool.fresh());
    }
}

impl Drop for PooledMachine<'_> {
    fn drop(&mut self) {
        let Some(machine) = self.machine.take() else {
            return;
        };
        if std::thread::panicking() {
            self.pool.quarantine(machine);
        } else {
            lock(&self.pool.free).push(machine);
        }
    }
}

/// Runs one attempt of a fallible work closure inside a panic boundary,
/// folding both failure modes into a [`FailureCause`].
fn attempt<R>(
    machine: &mut Machine,
    work: impl FnOnce(&mut Machine) -> Result<R, SimError>,
) -> Result<R, FailureCause> {
    match catch_unwind(AssertUnwindSafe(|| work(machine))) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(FailureCause::Sim(e)),
        Err(payload) => Err(FailureCause::Panic(panic_message(payload))),
    }
}

/// The per-item fault boundary: try the item, and on failure quarantine
/// the machine, install a brand-new one
/// ([`PooledMachine::replace_with_fresh`]) and retry **once**. After a
/// failed retry the machine is replaced again, so no machine a failure
/// touched ever returns to the pool. Returns the item's
/// result slot plus its failure-log entry.
pub(crate) fn retry_item<T, R>(
    pooled: &mut PooledMachine<'_>,
    i: usize,
    item: &T,
    work: impl Fn(&mut Machine, usize, &T) -> Result<R, SimError>,
) -> (Option<R>, Option<ItemFailure>) {
    match attempt(pooled.machine(), |m| work(m, i, item)) {
        Ok(r) => (Some(r), None),
        Err(cause) => {
            pooled.replace_with_fresh();
            let failure = |recovered| ItemFailure {
                item: i,
                cause: cause.clone(),
                recovered,
            };
            match attempt(pooled.machine(), |m| work(m, i, item)) {
                Ok(r) => (Some(r), Some(failure(true))),
                Err(_) => {
                    pooled.replace_with_fresh();
                    (None, Some(failure(false)))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_sets_only_the_given_watchdogs() {
        let mut m = Machine::new(MachineConfig::default());
        Budgets {
            instructions: Some(3),
            ..Budgets::default()
        }
        .apply(&mut m);
        let mut b = quetzal_isa::ProgramBuilder::new();
        for _ in 0..8 {
            b.alu_ri(
                quetzal_isa::SAluOp::Add,
                quetzal_isa::X1,
                quetzal_isa::X1,
                1,
            );
        }
        b.halt();
        let program = b.build().expect("straight-line program builds");
        assert_eq!(
            m.run(&program),
            Err(SimError::InstLimit { budget: 3 }),
            "the instruction budget was set"
        );
        // A page cap below what the run needs faults the first store.
        let mut m = Machine::new(MachineConfig::default());
        let resident = m.core().state().mem.resident_pages() as u64;
        Budgets {
            pages: Some(resident),
            ..Budgets::default()
        }
        .apply(&mut m);
        let mut b = quetzal_isa::ProgramBuilder::new();
        b.mov_imm(quetzal_isa::X1, crate::HEAP_BASE as i64);
        b.store(
            quetzal_isa::X1,
            quetzal_isa::X1,
            0,
            quetzal_isa::MemSize::B8,
        );
        b.halt();
        let program = b.build().expect("store program builds");
        assert!(matches!(m.run(&program), Err(SimError::MemoryFault { .. })));
    }

    #[test]
    fn pool_counts_built_free_and_quarantined() {
        let config = MachineConfig::default();
        let pool = MachinePool::new(&config, ExecMode::default());
        assert_eq!(pool.stats(), PoolStats::default());
        {
            let mut a = pool.checkout();
            let _ = a.machine();
            let mut b = pool.checkout();
            let _ = b.machine();
            assert_eq!(pool.stats().built, 2);
            b.replace_with_fresh();
            assert_eq!(pool.stats().built, 3);
            assert_eq!(pool.stats().quarantined, 1);
        }
        let stats = pool.stats();
        assert_eq!(stats.free, 2, "both guards returned their machines");
        assert_eq!(pool.purge_quarantine(), 1);
        assert_eq!(pool.stats().quarantined, 0);
        // A checkout after the purge recycles, so nothing new is built.
        let _ = pool.checkout();
        assert_eq!(pool.stats().built, 3);
    }

    #[test]
    fn checkout_prefers_recycled_machines() {
        let config = MachineConfig::default();
        let pool = MachinePool::new(&config, ExecMode::default());
        drop(pool.checkout());
        assert_eq!(pool.stats().built, 1);
        drop(pool.checkout());
        assert_eq!(pool.stats().built, 1, "second checkout reused the first");
    }

    #[test]
    fn retry_item_replaces_context_on_both_failures() {
        // First attempt and retry both fail: the machine must be
        // replaced twice, and the failure must be unrecovered.
        let config = MachineConfig::default();
        let pool = MachinePool::new(&config, ExecMode::default());
        let mut pooled = pool.checkout();
        let (result, failure) = retry_item(&mut pooled, 4, &(), |_m, _i, _item| {
            Err::<u64, _>(SimError::InstLimit { budget: 1 })
        });
        assert!(result.is_none());
        let stats = pool.stats();
        assert_eq!(stats.quarantined, 2, "both failing machines quarantined");
        assert_eq!(stats.built, 3, "the checkout plus two replacements");
        let failure = failure.expect("failure entry");
        assert_eq!(failure.item, 4);
        assert!(!failure.recovered);
        assert_eq!(
            failure.cause,
            FailureCause::Sim(SimError::InstLimit { budget: 1 })
        );
    }
}
