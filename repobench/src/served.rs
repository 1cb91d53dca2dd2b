//! `served-mix`: an in-process `qzserved` daemon on an ephemeral
//! loopback port with one worker thread per job, driven by two clients
//! on their own connections and tenants — one submitting short-read
//! align jobs, one submitting seeded fault jobs.
//!
//! The clients take turns in one closed loop, so one job is in flight at
//! a time. On a two-CPU host, two concurrent jobs keep both CPUs busy
//! and every served figure then follows the noise on the busier CPU.

use crate::calib::{Clock, Stamp};
use crate::inputs::{self, PairClass};
use crate::report::{self, Outcome};
use crate::trace::Trace;
use quetzal::uarch::RunStats;
use quetzal::verify::{Verdict, VerifyConfig};
use quetzal::{BatchRunner, ExecMode, FaultPlan, Machine, MachineConfig, MachinePool};
use quetzal_algos::Tier;
use quetzal_bench::workloads::Algo;
use quetzal_genomics::dataset::DatasetSpec;
use quetzal_served::job::{self, Budgets, JobSpec};
use quetzal_served::{wire, Daemon, DaemonConfig, Request, Response};
use quetzal_trace::json::Value;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Align jobs per pass; each holds [`ALIGN_PAIRS`] pairs, half
/// `100bp_1`, half `250bp_1`.
const ALIGN_JOBS: usize = 8;
/// Pairs per align job: enough that a job takes tens of milliseconds.
const ALIGN_PAIRS: usize = 128;
/// Fault jobs per pass; each replays [`FAULT_CASES`] sweep cases.
const FAULT_JOBS: usize = 8;
/// Cases per fault job.
const FAULT_CASES: u64 = 96;

/// Longest wait for any daemon frame before the exchange fails.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One job a loop submits, with the frames the offline path emits.
struct Job {
    spec: JobSpec,
    items: usize,
    /// Payload bytes of every frame after `accepted`, from an offline
    /// `job::execute` of the same job.
    reference: Vec<Vec<u8>>,
}

/// One client: a connection, its tenant and its jobs.
struct Loop {
    tenant: &'static str,
    conn: TcpStream,
    jobs: Vec<Job>,
    /// Per-job stamps of the measure under way.
    stamps: Vec<Vec<Stamp>>,
    /// Per-job latency samples (ms at reference speed) of the last
    /// measure.
    samples: Vec<Vec<f64>>,
}

/// A set-up served workload.
pub struct Served {
    /// The pool offline reference runs use.
    offline: MachinePool,
    addr: SocketAddr,
    daemon: Option<JoinHandle<std::io::Result<()>>>,
    align: Loop,
    fault: Loop,
    checks_ok: bool,
    /// Exact simulated counts of the offline reference runs.
    sim: RunStats,
    /// Verifier verdict tallies of one pass over the fault jobs.
    verdicts: [u64; 4],
}

/// The align jobs: WFA over short reads, three QUETZAL+C jobs to one
/// VEC job, so the align latency median lies inside the QUETZAL+C mode.
fn align_specs(seed: u64) -> Vec<JobSpec> {
    let n = ALIGN_JOBS * ALIGN_PAIRS / 2;
    let short = inputs::generate(&DatasetSpec::d100(), seed, n, usize::MAX);
    let long = inputs::generate(&DatasetSpec::d250(), seed, n, usize::MAX);
    let half = ALIGN_PAIRS / 2;
    (0..ALIGN_JOBS)
        .map(|j| {
            let take = |c: &PairClass| c.pairs[j * half..(j + 1) * half].to_vec();
            JobSpec::Align {
                algo: Algo::Wfa,
                tier: if j % 4 == 3 {
                    Tier::Vec
                } else {
                    Tier::QuetzalC
                },
                alphabet: short.alphabet,
                ss_threshold: short.ss_threshold,
                budgets: Budgets::default(),
                pairs: [take(&short), take(&long)].concat(),
            }
        })
        .collect()
}

/// The fault jobs: seeded sweep cases the verifier rejects or that run
/// clean. Cases that fault at run time are left out: the daemon keeps
/// every machine such a case quarantines for its whole lifetime, so a
/// closed loop over them would grow its memory without bound.
fn fault_specs(seed: u64, pool: &MachinePool) -> Vec<JobSpec> {
    let seed = seed ^ 0xF4417;
    let want = FAULT_JOBS * FAULT_CASES as usize;
    let mut kept = Vec::new();
    let mut case = 0u64;
    while kept.len() < want {
        let spec = JobSpec::Fault {
            seed,
            cases: vec![case],
        };
        let clean = offline(pool, &spec).1.iter().any(|f| {
            matches!(
                f,
                Response::Item {
                    recovered: None,
                    ..
                } | Response::ItemFailed {
                    cause: "rejected",
                    ..
                }
            )
        });
        // One case at a time, dropping what it quarantined, keeps the
        // set-up's memory bounded too.
        pool.purge_quarantine();
        if clean {
            kept.push(case);
        }
        case += 1;
    }
    kept.chunks(FAULT_CASES as usize)
        .map(|cases| JobSpec::Fault {
            seed,
            cases: cases.to_vec(),
        })
        .collect()
}

/// Runs `spec` offline over `pool`, returning every frame's payload and
/// the frames.
fn offline(pool: &MachinePool, spec: &JobSpec) -> (Vec<Vec<u8>>, Vec<Response>) {
    let mut frames = Vec::new();
    job::execute(
        &BatchRunner::new(1),
        pool,
        spec,
        DaemonConfig::default().chunk,
        &mut |f| frames.push(f),
    );
    let bytes = frames
        .iter()
        .map(|f| f.to_value().dump().into_bytes())
        .collect();
    (bytes, frames)
}

/// Re-arms `TCP_QUICKACK` on the client socket before a read.
///
/// The daemon writes each frame as a 4-byte length prefix and then the
/// payload, without `TCP_NODELAY`: Nagle's algorithm holds the payload
/// until the prefix is acknowledged, and a receiver that delays its
/// acknowledgement (40 ms on Linux) turns every frame into a timer wait.
/// Acknowledging at once keeps the measured latency the daemon's own.
/// The kernel clears the flag on its own, hence the re-arm per read.
fn quickack(conn: &TcpStream) {
    use std::os::fd::AsRawFd;
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    let on: i32 = 1;
    // SAFETY: `conn` owns an open socket for the duration of the call,
    // and `value` points at a live `i32` whose size is passed as `len`.
    // The return value is ignored: without the option the exchange is
    // only slower, never wrong.
    unsafe {
        setsockopt(conn.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4);
    }
}

/// What one submitted job came back with.
struct Exchange {
    /// Payloads after `accepted`, in order.
    frames: Vec<Vec<u8>>,
    /// Submit to first result frame (ms).
    first_frame_ms: f64,
    busy: bool,
}

/// Submits `job` under `tenant` and reads its frames to `done`, timing
/// encode, decode and the wait for the daemon into `trace`.
fn submit(
    conn: &mut TcpStream,
    tenant: &str,
    job: &Job,
    trace: &Trace,
) -> Result<Exchange, String> {
    let sent = Instant::now();
    let t = trace.start();
    let request = Request::Submit {
        tenant: tenant.to_string(),
        job: job.spec.clone(),
    }
    .to_value()
    .dump();
    trace.add_since("encode_ns", t);
    let t = trace.start();
    wire::write_frame(conn, request.as_bytes()).map_err(|e| e.to_string())?;
    trace.add_since("write_ns", t);
    let mut out = Exchange {
        frames: Vec::new(),
        first_frame_ms: 0.0,
        busy: false,
    };
    loop {
        let t = trace.start();
        quickack(conn);
        let payload = wire::read_frame(conn)
            .map_err(|e| e.to_string())?
            .ok_or("daemon hung up mid-job")?;
        trace.add_since("wait_ns", t);
        let t = trace.start();
        let text = std::str::from_utf8(&payload).map_err(|e| e.to_string())?;
        let value = Value::parse(text).map_err(|e| e.to_string())?;
        let frame = Response::from_value(&value)?;
        trace.add_since("decode_ns", t);
        trace.add("frames", 1.0);
        trace.add("bytes", (payload.len() + 4) as f64);
        match frame {
            Response::Accepted { .. } => continue,
            Response::Busy { .. } => {
                out.busy = true;
                return Ok(out);
            }
            Response::Draining | Response::Error { .. } => {
                return Err(format!("refused: {text}"));
            }
            Response::Done(_) => {
                out.frames.push(payload);
                return Ok(out);
            }
            _ => {
                if out.frames.is_empty() {
                    out.first_frame_ms = sent.elapsed().as_secs_f64() * 1e3;
                }
                out.frames.push(payload);
            }
        }
    }
}

impl Loop {
    fn connect(addr: SocketAddr, tenant: &'static str, jobs: Vec<Job>) -> Loop {
        let conn = TcpStream::connect(addr).expect("connecting to the daemon");
        conn.set_nodelay(true).expect("TCP_NODELAY");
        // A wedged daemon fails the op instead of hanging the run.
        conn.set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        let mut l = Loop {
            tenant,
            conn,
            jobs,
            stamps: Vec::new(),
            samples: Vec::new(),
        };
        wire::write_value(&mut l.conn, &Request::Ping.to_value()).expect("ping");
        let pong = wire::read_value(&mut l.conn)
            .expect("pong")
            .expect("pong frame");
        assert_eq!(
            Response::from_value(&pong),
            Ok(Response::Pong),
            "first ping"
        );
        l
    }

    /// One pass over the loop's jobs without timing: the warm-up.
    /// Returns whether every job's frames matched the offline path.
    fn warm_up(&mut self) -> bool {
        let off = Trace::new(false);
        let mut ok = true;
        for job in &self.jobs {
            ok &= submit(&mut self.conn, self.tenant, job, &off)
                .is_ok_and(|x| !x.busy && x.frames == job.reference);
        }
        ok
    }

    /// Submits job `i`, checks its frames and records its latency.
    /// Returns (ok, busy).
    fn op(&mut self, i: usize, trace: &Trace, clock: &mut Clock) -> (bool, bool) {
        let (conn, tenant, job) = (&mut self.conn, self.tenant, &self.jobs[i]);
        let ((ok, busy), stamp) = clock.op(|| {
            let result = submit(conn, tenant, job, trace);
            let check = trace.start();
            let verdict = match &result {
                Ok(x) => {
                    trace.add("first_frame_ms", x.first_frame_ms);
                    (!x.busy && x.frames == job.reference, x.busy)
                }
                Err(e) => {
                    eprintln!("{tenant} job {i}: {e}");
                    (false, false)
                }
            };
            trace.add_since("check_ns", check);
            verdict
        });
        self.stamps[i].push(stamp);
        (ok, busy)
    }

    /// Every timed repetition of every job in the last measure (ms).
    fn all_ms(&self) -> Vec<f64> {
        self.samples.concat()
    }
}

impl Served {
    /// Generates the jobs, runs each offline for its reference frames,
    /// binds the daemon, connects both clients (first `ping`) and warms
    /// every tenant pool with one pass over its jobs.
    pub fn setup(seed: u64) -> Served {
        let pool = MachinePool::new(&MachineConfig::default(), ExecMode::Cycle);
        let mut sim = RunStats::default();
        let mut verdicts = [0u64; 4];
        let mut jobs = |specs: Vec<JobSpec>| -> Vec<Job> {
            specs
                .into_iter()
                .map(|spec| {
                    let (reference, frames) = offline(&pool, &spec);
                    for f in &frames {
                        match f {
                            Response::Item {
                                cycles,
                                instructions,
                                ..
                            } => {
                                sim.cycles += cycles;
                                sim.instructions += instructions;
                            }
                            Response::Done(s) => {
                                for (v, n) in verdicts
                                    .iter_mut()
                                    .zip([s.rejected, s.bounded, s.clean, s.warnings])
                                {
                                    *v += n;
                                }
                            }
                            _ => {}
                        }
                    }
                    Job {
                        items: spec.items(),
                        spec,
                        reference,
                    }
                })
                .collect()
        };
        let align_jobs = jobs(align_specs(seed));
        let fault_jobs = jobs(fault_specs(seed, &pool));
        let config = DaemonConfig {
            threads: 1,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::bind("127.0.0.1:0", config).expect("binding the daemon");
        let addr = daemon.local_addr().expect("daemon address");
        let handle = std::thread::spawn(move || daemon.run());
        let mut s = Served {
            offline: pool,
            addr,
            daemon: Some(handle),
            align: Loop::connect(addr, "align", align_jobs),
            fault: Loop::connect(addr, "fault", fault_jobs),
            checks_ok: true,
            sim,
            verdicts,
        };
        s.checks_ok = s.align.warm_up() & s.fault.warm_up();
        s
    }

    /// Items per second of one pass over both clients' jobs, each at
    /// its median repetition.
    fn throughput(&self) -> f64 {
        let (mut items, mut ms) = (0.0, 0.0);
        for l in [&self.align, &self.fault] {
            items += l.jobs.iter().map(|j| j.items as f64).sum::<f64>();
            ms += report::medians(&l.samples).iter().sum::<f64>();
        }
        items / ms * 1e3
    }

    /// Pool occupancy summed over the daemon's tenants: (built,
    /// quarantined).
    fn pool_stats(&self) -> (f64, f64) {
        let mut conn = &self.align.conn;
        let ok = wire::write_value(&mut conn, &Request::Stats.to_value()).is_ok();
        let stats = ok
            .then(|| wire::read_value(&mut conn).ok().flatten())
            .flatten()
            .and_then(|v| Response::from_value(&v).ok());
        let Some(Response::Stats(Value::Object(map))) = stats else {
            return (0.0, 0.0);
        };
        let Some(Value::Object(tenants)) = map.get("tenants") else {
            return (0.0, 0.0);
        };
        let sum = |key: &str| {
            tenants
                .values()
                .filter_map(|t| t.get(key).and_then(Value::as_u64))
                .sum::<u64>() as f64
        };
        (sum("built"), sum("quarantined"))
    }

    /// Median host time of `verify_with` over every fault-job program,
    /// staged as the daemon stages them, in µs.
    fn verify_us(&self) -> f64 {
        let config = VerifyConfig {
            latencies: quetzal::class_latencies(&MachineConfig::default().core),
            ..VerifyConfig::default()
        };
        let mut scratch = Machine::new(MachineConfig::default());
        let mut times = Vec::new();
        for job in &self.fault.jobs {
            let JobSpec::Fault { seed, cases } = &job.spec else {
                continue;
            };
            let plan = FaultPlan::new(*seed);
            for &case in cases {
                scratch.reset();
                let (program, _) = plan.stage(case, &mut scratch);
                let t = Instant::now();
                let report = quetzal::verify::verify_with(&program, &config);
                times.push(t.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(report.verdict() == Verdict::Fatal);
            }
        }
        report::median(&times)
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        // Drain and stop the daemon, then join its accept loop.
        if let Ok(mut conn) = TcpStream::connect(self.addr) {
            let _ = conn.set_read_timeout(Some(READ_TIMEOUT));
            let _ = wire::write_value(&mut conn, &Request::Shutdown.to_value());
            let _ = wire::read_value(&mut conn);
        }
        if let Some(h) = self.daemon.take() {
            let _ = h.join();
        }
    }
}

impl crate::Workload for Served {
    fn checks_ok(&self) -> bool {
        self.checks_ok
    }

    fn measure(
        &mut self,
        seconds: f64,
        trace: &Trace,
        clock: &mut Clock,
        out: &mut Outcome,
    ) -> f64 {
        for l in [&mut self.align, &mut self.fault] {
            l.stamps = vec![Vec::new(); l.jobs.len()];
        }
        let start = Instant::now();
        let (mut passes, mut ops, mut busy) = (0, 0u64, 0u64);
        while passes < crate::MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            for i in 0..ALIGN_JOBS.max(FAULT_JOBS) {
                for l in [&mut self.align, &mut self.fault] {
                    if i < l.jobs.len() {
                        let (ok, refused) = l.op(i, trace, clock);
                        ops += 1;
                        out.failed += u64::from(!ok);
                        busy += u64::from(refused);
                    }
                }
            }
            passes += 1;
        }
        out.attempted += ops;
        if busy > 0 {
            // A busy frame means a refused submit: its latency would
            // include no daemon work, and a retry would add backoff.
            eprintln!("steadiness guard: {busy} busy frame(s)");
            out.checks_ok = false;
        }
        trace.add("busy_frames", busy as f64);
        trace.add("wall_ns", start.elapsed().as_nanos() as f64);
        trace.add("ops", ops as f64);
        for l in [&mut self.align, &mut self.fault] {
            l.samples = l
                .stamps
                .iter()
                .map(|s| s.iter().map(|x| clock.ms(x)).collect())
                .collect();
        }
        self.throughput()
    }

    /// Latency percentiles are taken over every timed align job, and
    /// the fault figures over every timed fault job.
    fn end_to_end(&self, out: &mut Outcome) {
        out.push("throughput", self.throughput(), "1/s");
        report::push_latency(out, "latency", &self.align.all_ms());
        let fault = self.fault.all_ms();
        let tail = report::tail(&fault);
        out.note("fault_p50_ms", report::median(&fault), "ms");
        out.note("fault_tail_ms", tail.value, "ms");
        out.note("fault_tail_percentile", tail.percentile, "%");
        out.note("fault_samples", tail.samples as f64, "count");
    }

    fn per_layer(&self, trace: &Trace, clock: &mut Clock, layers: &mut crate::Layers) {
        let ops = trace.get("ops").max(1.0);
        // Offline medians over as many repetitions as the timed loop's
        // fewest, on the warm offline pool.
        let mut offline_ms = |job: &Job| {
            let times: Vec<f64> = (0..crate::MIN_PASSES)
                .map(|_| {
                    let stamp = clock.op(|| offline(&self.offline, &job.spec)).1;
                    clock.ms(&stamp)
                })
                .collect();
            report::median(&times)
        };
        let mut jobs = |l: &Loop| -> (f64, f64) {
            let served: f64 = report::medians(&l.samples).iter().sum();
            let offline: f64 = l.jobs.iter().map(&mut offline_ms).sum();
            (served, offline)
        };
        let (sa, oa) = jobs(&self.align);
        let (sf, of) = jobs(&self.fault);
        let n = (self.align.jobs.len() + self.fault.jobs.len()) as f64;
        layers.set("served.overhead_ms", (sa + sf - oa - of) / n);
        layers.set("served.first_frame_ms", trace.get("first_frame_ms") / ops);
        layers.set("served.encode_us", trace.get("encode_ns") / ops / 1e3);
        layers.set(
            "served.decode_us",
            trace.get("decode_ns") / trace.get("frames").max(1.0) / 1e3,
        );
        layers.set("served.frames", trace.get("frames") / ops);
        layers.set("served.bytes", trace.get("bytes") / ops);
        layers.set("served.busy_frames", trace.get("busy_frames"));
        let fault = self.fault.all_ms();
        layers.set("served.fault_p50_ms", report::median(&fault));
        layers.set("served.fault_tail_ms", report::tail(&fault).value);
        for (name, v) in [
            "verify.rejected",
            "verify.bounded",
            "verify.clean",
            "verify.warnings",
        ]
        .into_iter()
        .zip(self.verdicts)
        {
            layers.set(name, v as f64);
        }
        layers.set("verify.us_per_program", self.verify_us());
        let (built, quarantined) = self.pool_stats();
        layers.set("pool.built", built);
        layers.set("pool.quarantined", quarantined);
        layers.sim(&self.sim);
        // The loop's time: encoding, writing, waiting on the daemon,
        // decoding, and the benchmark's own frame check.
        let attributed = ["encode_ns", "write_ns", "wait_ns", "decode_ns", "check_ns"]
            .iter()
            .map(|k| trace.get(k))
            .sum();
        layers.account(trace.get("wall_ns"), attributed, ops);
    }
}
