//! Per-layer host-time accounting for the traced run.
//!
//! Spans are taken from the benchmark's own files, around its calls
//! into each module's public functions. A disabled [`Trace`] never
//! reads the clock, so the untraced run pays one branch per span.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Named per-layer sums (nanoseconds or counts), shared by reference
/// with the closures the library runs.
#[derive(Debug, Default)]
pub struct Trace {
    on: bool,
    sums: Mutex<BTreeMap<&'static str, f64>>,
}

impl Trace {
    /// A trace that records only when `on`.
    pub fn new(on: bool) -> Trace {
        if on {
            install_build_observer();
        }
        Trace {
            on,
            sums: Mutex::default(),
        }
    }

    /// A span start: the current instant when tracing, else `None`.
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Adds `value` to the sum `key`.
    pub fn add(&self, key: &'static str, value: f64) {
        if self.on {
            *self
                .sums
                .lock()
                .expect("trace sums lock")
                .entry(key)
                .or_default() += value;
        }
    }

    /// Adds the nanoseconds since `start` to `key`.
    pub fn add_since(&self, key: &'static str, start: Option<Instant>) {
        if let Some(t) = start {
            self.add(key, t.elapsed().as_nanos() as f64);
        }
    }

    /// The sum recorded under `key` (0 if none).
    pub fn get(&self, key: &str) -> f64 {
        self.sums
            .lock()
            .expect("trace sums lock")
            .get(key)
            .copied()
            .unwrap_or(0.0)
    }
}

thread_local! {
    /// When this thread first built a program since the last
    /// [`mark_stage_start`].
    static FIRST_BUILD: Cell<Option<Instant>> = const { Cell::new(None) };
}

fn install_build_observer() {
    // The first observer wins; a second `Trace::new(true)` in one
    // process finds it already installed, which is what it wants.
    let _ = quetzal_isa::set_build_observer(|_| {
        FIRST_BUILD.with(|c| {
            if c.get().is_none() {
                c.set(Some(Instant::now()));
            }
        });
    });
}

/// Forgets the last recorded program build on this thread: call at the
/// start of a `*_sim` call whose staging time is wanted.
pub fn mark_stage_start() {
    FIRST_BUILD.with(|c| c.set(None));
}

/// The instant this thread first built a program since
/// [`mark_stage_start`], if it did.
pub fn take_first_build() -> Option<Instant> {
    FIRST_BUILD.with(Cell::take)
}
