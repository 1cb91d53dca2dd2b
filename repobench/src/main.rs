//! The repository benchmark: four seeded closed-loop workloads over the
//! QUETZAL simulator stack.
//!
//! ```text
//! repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table for people, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `README.md` beside this crate for the workloads and metrics.

mod calib;
mod ingest;
mod inputs;
mod kernels;
mod report;
mod served;
mod trace;

use calib::Clock;
use quetzal::uarch::RunStats;
use quetzal::ExecMode;
use report::Outcome;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use trace::Trace;

/// The allocator environment `scripts/ci.sh` pins, so figures do not
/// depend on the invoking shell: never trim the heap, never serve large
/// allocations from `mmap`. One arena besides: glibc opens a new arena
/// whenever a thread finds the last one locked, which with the daemon
/// and client threads on one CPU (see [`pin_to_one_cpu`]) depends on
/// where the scheduler preempts them. With several arenas, `served-mix`
/// peaked anywhere from 30 to 42 MB for one seed; with one, at 19-20 MB.
const MALLOC_ENV: [(&str, &str); 4] = [
    ("MALLOC_TRIM_THRESHOLD_", "-1"),
    ("MALLOC_MMAP_THRESHOLD_", "1073741824"),
    ("MALLOC_TOP_PAD_", "134217728"),
    ("MALLOC_ARENA_MAX", "1"),
];

/// Panics caught anywhere in the process (fault jobs raise them inside
/// the per-item fault boundary).
static PANICS: AtomicU64 = AtomicU64::new(0);

/// Times each workload is set up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Fewest passes over a workload's op set in one timed region, so every
/// op's median has at least this many samples.
pub const MIN_PASSES: usize = 3;

/// Share of a traced run's wall time the per-layer self times must
/// account for; the rest is reported as `trace.unattributed_ms`.
const MIN_COVERAGE: f64 = 0.90;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "kernels-cycle",
    "kernels-functional",
    "served-mix",
    "ingest-resume",
];

/// End-to-end metrics (`--trace 0`) and their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`) and their units. Times are per op
/// unless the unit says otherwise; counts are per run.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("uarch.cycle.exec_ms", "ms"),
    ("uarch.cycle.sim_mips", "MIPS"),
    ("uarch.cycle.host_ns_per_sim_cycle", "ns"),
    ("uarch.cycle.sim_mips.base", "MIPS"),
    ("uarch.cycle.sim_mips.vec", "MIPS"),
    ("uarch.cycle.sim_mips.quetzal", "MIPS"),
    ("uarch.cycle.sim_mips.quetzal_c", "MIPS"),
    ("uarch.functional.exec_ms", "ms"),
    ("uarch.functional.sim_mips", "MIPS"),
    ("uarch.functional.sim_mips.base", "MIPS"),
    ("uarch.functional.sim_mips.vec", "MIPS"),
    ("uarch.functional.sim_mips.quetzal", "MIPS"),
    ("uarch.functional.sim_mips.quetzal_c", "MIPS"),
    ("algos.stage_ms", "ms"),
    ("pool.checkout_us", "us"),
    ("pool.built", "count"),
    ("pool.quarantined", "count"),
    ("batch.overhead_ms", "ms"),
    ("batch.recovered", "count"),
    ("verify.us_per_program", "us"),
    ("verify.rejected", "count"),
    ("verify.bounded", "count"),
    ("verify.clean", "count"),
    ("verify.warnings", "count"),
    ("served.first_frame_ms", "ms"),
    ("served.overhead_ms", "ms"),
    ("served.encode_us", "us"),
    ("served.decode_us", "us"),
    ("served.frames", "count"),
    ("served.bytes", "B"),
    ("served.busy_frames", "count"),
    ("served.fault_p50_ms", "ms"),
    ("served.fault_tail_ms", "ms"),
    ("genomics.parse_ms", "ms"),
    ("ingest.work_ms", "ms"),
    ("ingest.commit_ms", "ms"),
    ("ingest.validate_ms", "ms"),
    ("ingest.concat_ms", "ms"),
    ("ingest.shards", "count"),
    ("ingest.shards_resumed", "count"),
    ("ingest.manifests_torn", "count"),
    ("sim.instructions", "count"),
    ("sim.cycles", "count"),
    ("sim.qz_accesses", "count"),
    ("sim.indexed_ops", "count"),
    ("sim.l1_misses", "count"),
    ("sim.mem_requests", "count"),
    ("trace.unattributed_ms", "ms"),
    ("trace.coverage", "share"),
    ("trace.overhead_throughput", "1/s"),
    ("trace.untraced_throughput", "1/s"),
    ("trace.traced_throughput", "1/s"),
    ("trace.ops", "count"),
    ("trace.wall_ms", "ms"),
];

/// Per-layer values of one traced run; layers a workload does not
/// exercise read 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
    coverage_ok: bool,
}

impl Layers {
    /// Sets one per-layer value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records the exact simulated counts of a workload's warm-up pass.
    pub fn sim(&mut self, s: &RunStats) {
        self.set("sim.instructions", s.instructions as f64);
        self.set("sim.cycles", s.cycles as f64);
        self.set("sim.qz_accesses", s.qz_accesses as f64);
        self.set("sim.indexed_ops", s.indexed_ops as f64);
        self.set("sim.l1_misses", s.l1_misses as f64);
        self.set("sim.mem_requests", s.mem_requests as f64);
    }

    /// The accounting check: `attributed_ns` of per-layer self time
    /// against `wall_ns` of traced wall time over `ops` ops.
    pub fn account(&mut self, wall_ns: f64, attributed_ns: f64, ops: f64) {
        let coverage = if wall_ns > 0.0 {
            attributed_ns / wall_ns
        } else {
            0.0
        };
        self.set("trace.coverage", coverage);
        self.set(
            "trace.unattributed_ms",
            (wall_ns - attributed_ns) / ops.max(1.0) / 1e6,
        );
        self.set("trace.ops", ops);
        self.set("trace.wall_ms", wall_ns / 1e6);
        self.coverage_ok = coverage >= MIN_COVERAGE;
        if !self.coverage_ok {
            eprintln!(
                "accounting check failed: per-layer self times cover {:.1}% of traced wall time \
                 (need {:.0}%)",
                coverage * 100.0,
                MIN_COVERAGE * 100.0
            );
        }
    }

    /// Records the tracing overhead from an untraced and a traced
    /// timed region of equal length.
    fn overhead(&mut self, untraced: f64, traced: f64) {
        self.set("trace.untraced_throughput", untraced);
        self.set("trace.traced_throughput", traced);
        self.set("trace.overhead_throughput", untraced - traced);
    }

    /// Moves every per-layer metric into the outcome, in table order.
    fn emit(self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            out.push(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
        out.checks_ok &= self.coverage_ok;
    }
}

/// One benchmark workload: set up, measure, report.
pub trait Workload {
    /// Checks made once after set-up (reference agreement).
    fn checks_ok(&self) -> bool;
    /// Runs the closed loop for `seconds`, timing each op on `clock` and
    /// counting it into `out`, and returns the run's throughput in items
    /// per second.
    fn measure(&mut self, seconds: f64, trace: &Trace, clock: &mut Clock, out: &mut Outcome)
        -> f64;
    /// Pushes the end-to-end metrics of the last measure.
    fn end_to_end(&self, out: &mut Outcome);
    /// Fills the per-layer metrics of the last (traced) measure.
    fn per_layer(&self, trace: &Trace, clock: &mut Clock, layers: &mut Layers);
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} ({})",
            WORKLOADS.join("|")
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Re-executes this binary with [`MALLOC_ENV`] unless it is already in
/// place (glibc reads it only at start-up).
fn pin_allocator_env() {
    use std::os::unix::process::CommandExt;
    if MALLOC_ENV
        .iter()
        .all(|(k, v)| std::env::var(k).as_deref() == Ok(*v))
    {
        return;
    }
    let exe = std::env::current_exe().expect("locating the benchmark binary");
    let err = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .envs(MALLOC_ENV)
        .exec();
    eprintln!("re-executing with the pinned allocator environment: {err}");
    std::process::exit(2);
}

/// Pins this process, and the threads it starts later, to the CPU it is
/// running on.
///
/// The probes of `calib.rs` scale an op by the speed of the CPU they ran
/// on, and on a shared host each CPU has its own neighbours; so the ops
/// must run there too. On `served-mix` one job is in flight at a time,
/// so the client and daemon threads rarely want a CPU at once.
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    let mut mask = [0u64; 16];
    let Some(word) = usize::try_from(cpu).ok().filter(|&c| c < 64 * mask.len()) else {
        eprintln!("sched_getcpu failed; running unpinned");
        return;
    };
    mask[word / 64] = 1 << (word % 64);
    // SAFETY: `mask` is a live CPU set of `size_of_val(&mask)` bytes,
    // which the call only reads; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        eprintln!("could not pin to CPU {cpu}; running unpinned");
    }
}

/// Runs `setup` [`SETUP_REPS`] times, dropping all but the last, and
/// returns it with the median set-up time in seconds at reference
/// speed.
fn setups<T>(clock: &mut Clock, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (w, s) = clock.region(&mut setup);
        last = Some(w);
        times.push(s);
    }
    (last.expect("at least one set-up"), report::median(&times))
}

fn boxed<W: Workload + 'static>((w, s): (W, f64)) -> (Box<dyn Workload>, f64) {
    (Box::new(w), s)
}

fn run(args: &Args) -> Outcome {
    let work = inputs::WorkDir::new(&args.workload);
    let dir = work.path();
    let seed = args.seed;
    // Only ingest-resume waits on the disk.
    let clock = &mut if args.workload == "ingest-resume" {
        Clock::with_io(dir)
    } else {
        Clock::new()
    };
    let (mut w, setup_s) = match args.workload.as_str() {
        "kernels-cycle" => boxed(setups(clock, || {
            kernels::Kernels::setup(ExecMode::Cycle, seed, dir)
        })),
        "kernels-functional" => boxed(setups(clock, || {
            kernels::Kernels::setup(ExecMode::Functional, seed, dir)
        })),
        "served-mix" => boxed(setups(clock, || served::Served::setup(seed))),
        "ingest-resume" => boxed(setups(clock, || ingest::Ingest::setup(seed, dir))),
        other => unreachable!("workload {other} passed argument checks"),
    };
    let mut out = Outcome {
        checks_ok: w.checks_ok(),
        ..Outcome::default()
    };
    if args.trace {
        let half = args.seconds / 2.0;
        let untraced = w.measure(half, &Trace::new(false), clock, &mut out);
        let trace = Trace::new(true);
        let traced = w.measure(half, &trace, clock, &mut out);
        let mut layers = Layers::default();
        w.per_layer(&trace, clock, &mut layers);
        layers.overhead(untraced, traced);
        layers.emit(&mut out);
    } else {
        w.measure(args.seconds, &Trace::new(false), clock, &mut out);
        w.end_to_end(&mut out);
        out.push("setup_s", setup_s, "s");
        out.push("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
    clock.notes(&mut out);
    out
}

fn main() {
    pin_allocator_env();
    pin_to_one_cpu();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}"
            );
            std::process::exit(2);
        }
    };
    // Fault jobs panic inside the per-item fault boundary by design;
    // the default hook would print (and with RUST_BACKTRACE, symbolize)
    // every one of them inside the timed region. Count them instead.
    std::panic::set_hook(Box::new(|info| {
        if PANICS.fetch_add(1, Ordering::Relaxed) == 0 {
            eprintln!("first caught panic (fault jobs raise them by design): {info}");
        }
    }));
    let mut out = match std::panic::catch_unwind(|| run(&args)) {
        Ok(out) => out,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            eprintln!("benchmark failed: {msg}");
            std::process::exit(1);
        }
    };
    out.note(
        "caught_panics",
        PANICS.load(Ordering::Relaxed) as f64,
        "count",
    );
    print!("{}", out.table(&args.workload));
    if !out.correct() {
        eprintln!(
            "correctness check failed: {} of {} ops failed (set-up checks {})",
            out.failed,
            out.attempted,
            if out.checks_ok { "passed" } else { "failed" }
        );
    }
    println!("{}", out.json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_trace::json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("reading BENCHMARK.json");
        Value::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn listed(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(report::valid_metric_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let v = benchmark_json();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&v, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn no_timed_path_sleeps() {
        // Host time must never include a deliberate wait: no source file
        // of the benchmark may call a sleep.
        let needle = ["thread", "::", "sleep"].concat();
        for file in [
            "main.rs",
            "calib.rs",
            "kernels.rs",
            "served.rs",
            "ingest.rs",
            "inputs.rs",
            "report.rs",
            "trace.rs",
        ] {
            let path = format!("{}/src/{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("reading source");
            assert!(!text.contains(&needle), "{file} sleeps");
        }
    }

    #[test]
    fn setups_reports_the_median_and_keeps_the_last() {
        let mut n = 0;
        let (last, s) = setups(&mut Clock::new(), || {
            n += 1;
            n
        });
        assert_eq!(last, SETUP_REPS);
        assert!(s >= 0.0);
    }
}
