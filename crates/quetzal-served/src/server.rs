//! The `qzserved` daemon: connection handling, multi-tenant pools,
//! admission, backpressure, and graceful shutdown.
//!
//! # Scheduling model
//!
//! One OS thread per connection; a connection's `submit` runs
//! synchronously on that thread, writing each completed chunk's frames
//! with one write. A failed write stops the job at that chunk boundary.
//! There is **no unbounded queue anywhere**: admission is gated by a
//! per-tenant in-flight quota, and a saturated tenant answers with a
//! typed [`Response::Busy`] frame — the client resubmits, the daemon
//! buffers nothing.
//!
//! # Tenancy
//!
//! Each tenant owns one long-lived [`MachinePool`]: machines are
//! recycled across that tenant's jobs but never cross tenants, so a
//! hostile tenant's quarantine churn cannot poison or starve another
//! tenant's machines. Pools are created on first use, capped by
//! [`DaemonConfig::max_tenants`].
//!
//! # Shutdown
//!
//! The workspace's zero-dependency line means no `libc`, hence no
//! signal handler: graceful shutdown is a protocol frame (and EOF, in
//! stdio mode). On `shutdown` the daemon stops admitting (`draining`
//! frames), waits for in-flight jobs to finish, answers with a final
//! `bye` frame whose stats include every tenant's quarantine tally,
//! and exits the accept loop.

use crate::job::{self, JobSpec};
use crate::protocol::{Request, Response};
use crate::stats::{ServerStats, TenantStats};
use crate::wire::{self, WireError};
use quetzal::{BatchRunner, ExecMode, MachineConfig, MachinePool};
use quetzal_trace::json::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Poison-tolerant lock: a panicking connection thread must not wedge
/// the registry for everyone else.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads per job (the job's [`BatchRunner`] width).
    pub threads: usize,
    /// Items per streamed chunk (results flush after each chunk).
    pub chunk: usize,
    /// Per-tenant in-flight job quota (beyond it: `busy` frames).
    pub max_inflight: u64,
    /// Maximum distinct tenants (beyond it: `tenant-limit` errors).
    pub max_tenants: usize,
    /// Machine configuration every tenant pool builds from.
    pub machine: MachineConfig,
    /// Execution engine for every pool.
    pub exec_mode: ExecMode,
    /// Idle-connection read deadline (slow-loris guard): a TCP peer
    /// that sends nothing — or dribbles a frame byte-by-byte — for this
    /// long gets a typed `idle-timeout` error frame and its connection
    /// closed. Other connections and in-flight jobs are untouched.
    /// `None` (the default) keeps connections forever.
    pub idle_timeout: Option<Duration>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            threads: 1,
            chunk: 16,
            max_inflight: 2,
            max_tenants: 64,
            machine: MachineConfig::default(),
            exec_mode: ExecMode::Cycle,
            idle_timeout: None,
        }
    }
}

/// One tenant: a long-lived machine pool plus its in-flight tally.
struct Tenant {
    pool: MachinePool,
    inflight: AtomicU64,
}

/// State shared by every connection thread.
struct Shared {
    config: DaemonConfig,
    stats: ServerStats,
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
    /// Set by the shutdown handler before draining: new submissions
    /// answer `draining`.
    shutting_down: AtomicBool,
    /// Set once the drain finished and the `bye` frame went out: the
    /// accept loop exits on its next wake-up.
    exited: AtomicBool,
    /// Jobs currently executing (drain waits for zero).
    inflight_jobs: AtomicU64,
    /// Live connections, by id. The shutdown path closes every one of
    /// these after the drain: a worker idling in a blocking read on a
    /// kept-alive client connection must not stall the daemon's exit.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    /// Connection id allocator.
    next_conn: AtomicU64,
}

/// Decrements the in-flight tallies even if the job unwinds or the
/// connection write fails mid-stream — the drain must never wait on a
/// job that already died.
struct InflightGuard<'a> {
    shared: &'a Shared,
    tenant: &'a Tenant,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.tenant.inflight.fetch_sub(1, Ordering::Relaxed);
        self.shared.inflight_jobs.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How a connection ended.
enum ConnOutcome {
    /// Peer hung up (or the stream broke).
    Closed,
    /// The peer asked for shutdown; the drain already completed.
    Shutdown,
}

impl Shared {
    fn new(config: DaemonConfig) -> Shared {
        Shared {
            config,
            stats: ServerStats::default(),
            tenants: Mutex::new(BTreeMap::new()),
            shutting_down: AtomicBool::new(false),
            exited: AtomicBool::new(false),
            inflight_jobs: AtomicU64::new(0),
            conns: Mutex::new(BTreeMap::new()),
            next_conn: AtomicU64::new(0),
        }
    }

    fn tenant_stats(&self) -> Vec<TenantStats> {
        let map = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        map.iter()
            .map(|(name, t)| TenantStats {
                name: name.clone(),
                pool: t.pool.stats(),
                inflight: t.inflight.load(Ordering::Relaxed),
                max_inflight: self.config.max_inflight,
            })
            .collect()
    }

    fn stats_value(&self) -> Value {
        self.stats.snapshot(&self.tenant_stats())
    }

    /// Gets or creates a tenant's pool.
    fn tenant(&self, name: &str) -> Result<Arc<Tenant>, Response> {
        let mut map = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = map.get(name) {
            return Ok(t.clone());
        }
        if map.len() >= self.config.max_tenants {
            return Err(Response::Error {
                kind: "tenant-limit",
                message: format!("tenant limit reached ({} tenants)", self.config.max_tenants),
            });
        }
        let tenant = Arc::new(Tenant {
            pool: MachinePool::new(&self.config.machine, self.config.exec_mode),
            inflight: AtomicU64::new(0),
        });
        map.insert(name.to_string(), tenant.clone());
        Ok(tenant)
    }

    fn handle_submit(
        &self,
        writer: &mut impl Write,
        tenant_name: &str,
        spec: &JobSpec,
    ) -> Result<(), WireError> {
        if self.shutting_down.load(Ordering::SeqCst) {
            self.stats.jobs_draining.fetch_add(1, Ordering::Relaxed);
            return wire::write_value(writer, &Response::Draining.to_value());
        }
        let tenant = match self.tenant(tenant_name) {
            Ok(t) => t,
            Err(refusal) => {
                self.stats.jobs_invalid.fetch_add(1, Ordering::Relaxed);
                return wire::write_value(writer, &refusal.to_value());
            }
        };
        // Bounded admission: the fetch_add is the whole "queue". Beyond
        // the quota the job is refused immediately with a typed frame —
        // the daemon never buffers work it has no machine budget for.
        let prev = tenant.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= self.config.max_inflight {
            tenant.inflight.fetch_sub(1, Ordering::SeqCst);
            self.stats.jobs_busy.fetch_add(1, Ordering::Relaxed);
            return wire::write_value(
                writer,
                &Response::Busy {
                    tenant: tenant_name.to_string(),
                    inflight: prev,
                    max: self.config.max_inflight,
                }
                .to_value(),
            );
        }
        self.inflight_jobs.fetch_add(1, Ordering::SeqCst);
        let guard = InflightGuard {
            shared: self,
            tenant: &tenant,
        };
        self.stats.jobs_accepted.fetch_add(1, Ordering::Relaxed);
        wire::write_value(
            writer,
            &Response::Accepted {
                tenant: tenant_name.to_string(),
                items: spec.items() as u64,
            }
            .to_value(),
        )?;
        let runner = BatchRunner::new(self.config.threads).with_exec_mode(self.config.exec_mode);
        let start = Instant::now();
        let mut write_err: Option<WireError> = None;
        let (mut bytes, mut text) = (Vec::new(), String::new());
        let summary = job::execute_chunks(
            &runner,
            &tenant.pool,
            spec,
            self.config.chunk,
            &mut |frames| match write_frames(writer, &frames, &mut bytes, &mut text) {
                Ok(()) => ControlFlow::Continue(()),
                // The reader is gone: stop at this chunk boundary rather
                // than hold the tenant's pool and quota for nobody.
                Err(e) => {
                    write_err = Some(e);
                    ControlFlow::Break(())
                }
            },
        );
        self.stats.absorb_job(&summary, start.elapsed());
        drop(guard);
        match write_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Serves one connection until EOF, a fatal framing error, or a
    /// shutdown request. Generic over the stream so the TCP daemon,
    /// stdio mode, and in-memory tests share the exact same logic.
    fn serve_connection(&self, reader: &mut impl Read, writer: &mut impl Write) -> ConnOutcome {
        loop {
            let value = match wire::read_value(reader) {
                Ok(None) => return ConnOutcome::Closed,
                Ok(Some(v)) => v,
                Err(e) if e.is_timeout() => {
                    // Slow-loris guard: the peer idled past the read
                    // deadline (or dribbled a frame too slowly). Tell
                    // it why and hang up; nothing else on the daemon is
                    // affected — the deadline only ever fires on a
                    // connection thread that is waiting for input.
                    self.stats.idle_timeouts.fetch_add(1, Ordering::Relaxed);
                    let _ = wire::write_value(
                        writer,
                        &Response::Error {
                            kind: "idle-timeout",
                            message: "connection idle past the read deadline".to_string(),
                        }
                        .to_value(),
                    );
                    return ConnOutcome::Closed;
                }
                Err(e) => {
                    self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    // Best effort: a peer that truncated a frame is
                    // usually gone, but tell it what happened if the
                    // write half still works.
                    let _ = wire::write_value(
                        writer,
                        &Response::Error {
                            kind: "bad-frame",
                            message: format!("{} ({})", e, e.kind()),
                        }
                        .to_value(),
                    );
                    if e.is_fatal() {
                        return ConnOutcome::Closed;
                    }
                    continue;
                }
            };
            let request = match Request::from_value(&value) {
                Ok(r) => r,
                Err(message) => {
                    self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    if wire::write_value(
                        writer,
                        &Response::Error {
                            kind: "bad-request",
                            message,
                        }
                        .to_value(),
                    )
                    .is_err()
                    {
                        return ConnOutcome::Closed;
                    }
                    continue;
                }
            };
            let io_result = match request {
                Request::Ping => wire::write_value(writer, &Response::Pong.to_value()),
                Request::Stats => {
                    wire::write_value(writer, &Response::Stats(self.stats_value()).to_value())
                }
                Request::Submit { tenant, job } => self.handle_submit(writer, &tenant, &job),
                Request::Shutdown => {
                    self.shutting_down.store(true, Ordering::SeqCst);
                    // Drain: every in-flight job decrements through its
                    // guard, unwind included, so this terminates.
                    while self.inflight_jobs.load(Ordering::SeqCst) > 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let _ =
                        wire::write_value(writer, &Response::Bye(self.stats_value()).to_value());
                    self.exited.store(true, Ordering::SeqCst);
                    return ConnOutcome::Shutdown;
                }
            };
            if io_result.is_err() {
                return ConnOutcome::Closed;
            }
        }
    }
}

/// The `qzserved` daemon over a TCP listener.
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Daemon {
    /// Binds the daemon (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(addr: &str, config: DaemonConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        Ok(Daemon {
            listener,
            shared: Arc::new(Shared::new(config)),
        })
    }

    /// The bound address (the actual port when bound ephemeral).
    ///
    /// # Errors
    ///
    /// Returns the socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept loop: serves until a client's `shutdown` frame drains the
    /// daemon. Every connection gets its own thread; all are joined
    /// before returning, so on exit no job is still running.
    ///
    /// # Errors
    ///
    /// Returns transport errors from the listener itself.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.shared.exited.load(Ordering::SeqCst) {
                drop(stream);
                break;
            }
            let id = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                lock(&self.shared.conns).insert(id, clone);
            }
            let shared = self.shared.clone();
            workers.push(std::thread::spawn(move || {
                serve_tcp(&shared, stream, addr);
                lock(&shared.conns).remove(&id);
            }));
            workers.retain(|w| !w.is_finished());
        }
        // The drain only waits for in-flight *jobs*; a client idling on
        // a kept-alive connection would park its worker in a blocking
        // read forever. Hang up on all of them so every join returns.
        for (_, conn) in lock(&self.shared.conns).iter() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// Serves exactly one protocol session over stdin/stdout (`--stdio`
    /// mode): same frames, no socket. EOF on stdin is the shutdown
    /// signal.
    pub fn serve_stdio(config: DaemonConfig) {
        let shared = Shared::new(config);
        let mut stdin = std::io::stdin().lock();
        let mut stdout = std::io::stdout().lock();
        let _ = shared.serve_connection(&mut stdin, &mut stdout);
    }
}

/// Writes `frames` with one `write_all`, rendering them into the
/// reused `bytes` and `text` buffers.
fn write_frames(
    writer: &mut impl Write,
    frames: &[Response],
    bytes: &mut Vec<u8>,
    text: &mut String,
) -> Result<(), WireError> {
    bytes.clear();
    for frame in frames {
        text.clear();
        frame.to_value().dump_into(text);
        wire::append_frame(bytes, text.as_bytes())?;
    }
    writer.write_all(bytes)?;
    writer.flush()?;
    Ok(())
}

fn serve_tcp(shared: &Shared, stream: TcpStream, listen_addr: SocketAddr) {
    // Every write is whole frames (a job's chunk is one write), but with
    // Nagle on a small write that follows an unacknowledged one (the
    // next chunk, or `done`) waits for the peer's delayed ACK, ~40 ms.
    let _ = stream.set_nodelay(true);
    // The deadline only bounds reads: response streaming on the write
    // half (a long submit's frames) is never cut short by it.
    let _ = stream.set_read_timeout(shared.config.idle_timeout);
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    if let ConnOutcome::Shutdown = shared.serve_connection(&mut reader, &mut writer) {
        // The accept loop is blocked in accept(); poke it awake so it
        // can observe `exited` and wind down.
        let _ = TcpStream::connect(listen_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Budgets;
    use quetzal_algos::Tier;
    use quetzal_bench::workloads::Algo;
    use quetzal_genomics::dataset::DatasetSpec;

    fn shared(config: DaemonConfig) -> Shared {
        Shared::new(config)
    }

    fn parse_frames(mut bytes: &[u8]) -> Vec<Response> {
        let mut frames = Vec::new();
        while let Ok(Some(v)) = wire::read_value(&mut bytes) {
            frames.push(Response::from_value(&v).expect("daemon emits valid frames"));
        }
        frames
    }

    /// Runs raw request bytes through an in-memory connection and
    /// parses the response frames.
    fn roundtrip(shared: &Shared, input: &[u8]) -> Vec<Response> {
        let mut reader = input;
        let mut out = Vec::new();
        let _ = shared.serve_connection(&mut reader, &mut out);
        parse_frames(&out)
    }

    fn frame_bytes(requests: &[Request]) -> Vec<u8> {
        let mut buf = Vec::new();
        for r in requests {
            wire::write_value(&mut buf, &r.to_value()).unwrap();
        }
        buf
    }

    #[test]
    fn ping_stats_and_bad_requests() {
        let s = shared(DaemonConfig::default());
        let mut input = frame_bytes(&[Request::Ping]);
        wire::write_frame(&mut input, br#"{"type":"warp"}"#).unwrap();
        wire::write_frame(&mut input, b"garbage{{").unwrap();
        input.extend_from_slice(&frame_bytes(&[Request::Stats]));
        let frames = roundtrip(&s, &input);
        assert!(matches!(frames[0], Response::Pong));
        assert!(matches!(
            frames[1],
            Response::Error {
                kind: "bad-request",
                ..
            }
        ));
        assert!(matches!(
            frames[2],
            Response::Error {
                kind: "bad-frame",
                ..
            }
        ));
        let Response::Stats(stats) = &frames[3] else {
            panic!("expected stats, got {:?}", frames[3]);
        };
        assert_eq!(stats.get("protocol_errors").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn draining_daemon_refuses_submissions() {
        let s = shared(DaemonConfig::default());
        s.shutting_down.store(true, Ordering::SeqCst);
        let input = frame_bytes(&[Request::Submit {
            tenant: "t".to_string(),
            job: JobSpec::Fault {
                seed: 1,
                cases: vec![0],
            },
        }]);
        let frames = roundtrip(&s, &input);
        assert_eq!(frames, vec![Response::Draining]);
        assert_eq!(s.stats.jobs_draining.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn tenant_quota_answers_busy() {
        let s = shared(DaemonConfig {
            max_inflight: 0, // every submission is over quota
            ..DaemonConfig::default()
        });
        let input = frame_bytes(&[Request::Submit {
            tenant: "t".to_string(),
            job: JobSpec::Fault {
                seed: 1,
                cases: vec![0],
            },
        }]);
        let frames = roundtrip(&s, &input);
        assert_eq!(
            frames,
            vec![Response::Busy {
                tenant: "t".to_string(),
                inflight: 0,
                max: 0,
            }]
        );
    }

    #[test]
    fn tenant_limit_is_enforced() {
        let s = shared(DaemonConfig {
            max_tenants: 1,
            ..DaemonConfig::default()
        });
        assert!(s.tenant("first").is_ok());
        let Err(refusal) = s.tenant("second") else {
            panic!("second tenant should be refused")
        };
        assert!(matches!(
            refusal,
            Response::Error {
                kind: "tenant-limit",
                ..
            }
        ));
        assert!(s.tenant("first").is_ok(), "existing tenants still resolve");
    }

    /// A reader that yields its framed bytes, then reports a read
    /// timeout — like a TCP socket whose read deadline expired.
    struct TimesOut<'a>(&'a [u8]);

    impl Read for TimesOut<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "read deadline elapsed",
                ));
            }
            let n = self.0.len().min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn idle_read_deadline_answers_typed_error_and_closes() {
        let s = shared(DaemonConfig::default());
        let input = frame_bytes(&[Request::Ping]);
        let mut reader = TimesOut(&input);
        let mut out = Vec::new();
        let outcome = s.serve_connection(&mut reader, &mut out);
        assert!(matches!(outcome, ConnOutcome::Closed));
        let frames = parse_frames(&out);
        // The ping before the stall was served normally; the stall gets
        // a typed idle-timeout error, not a generic bad-frame.
        assert!(matches!(frames[0], Response::Pong));
        assert!(matches!(
            frames[1],
            Response::Error {
                kind: "idle-timeout",
                ..
            }
        ));
        assert_eq!(s.stats.idle_timeouts.load(Ordering::Relaxed), 1);
        assert_eq!(
            s.stats.protocol_errors.load(Ordering::Relaxed),
            0,
            "a deadline expiry is not a protocol error"
        );
    }

    /// An in-memory connection writer that counts `write` calls and
    /// fails every call after the first `fail_after`, like a socket
    /// whose reader hung up.
    struct CountingWriter {
        out: Vec<u8>,
        writes: usize,
        fail_after: usize,
    }

    impl CountingWriter {
        fn new(fail_after: usize) -> CountingWriter {
            CountingWriter {
                out: Vec::new(),
                writes: 0,
                fail_after,
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.writes == self.fail_after {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "reader hung up",
                ));
            }
            self.writes += 1;
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A submit frame for a 40-pair align job: three chunks of 16, 16
    /// and 8 at the default chunk size.
    fn submit_40_pairs() -> (JobSpec, Vec<u8>) {
        let dataset = DatasetSpec::d100();
        let job = JobSpec::Align {
            algo: Algo::Ss,
            tier: Tier::QuetzalC,
            alphabet: dataset.alphabet,
            ss_threshold: 8,
            budgets: Budgets::default(),
            pairs: dataset.generate_n(7, 40),
        };
        let input = frame_bytes(&[Request::Submit {
            tenant: "t".to_string(),
            job: job.clone(),
        }]);
        (job, input)
    }

    #[test]
    fn a_served_chunk_is_one_write() {
        let s = shared(DaemonConfig::default());
        assert_eq!(s.config.chunk, 16);
        let (job, input) = submit_40_pairs();
        let mut writer = CountingWriter::new(usize::MAX);
        s.serve_connection(&mut input.as_slice(), &mut writer);
        assert_eq!(writer.writes, 5, "accepted, three chunks and done");
        let frames = parse_frames(&writer.out);
        assert_eq!(
            frames[0],
            Response::Accepted {
                tenant: "t".to_string(),
                items: 40,
            }
        );
        let runner = BatchRunner::new(1);
        let pool = MachinePool::new(&MachineConfig::default(), runner.exec_mode());
        let mut offline = Vec::new();
        job::execute(&runner, &pool, &job, 16, &mut |f| offline.push(f));
        assert_eq!(frames[1..], offline[..]);
    }

    #[test]
    fn an_abandoned_job_stops_at_the_next_chunk_boundary() {
        let s = shared(DaemonConfig::default());
        let (_, input) = submit_40_pairs();
        // `accepted` and the first chunk land; the second chunk's write
        // fails, so the third chunk must never run.
        let mut writer = CountingWriter::new(2);
        let outcome = s.serve_connection(&mut input.as_slice(), &mut writer);
        assert!(matches!(outcome, ConnOutcome::Closed));
        assert_eq!(parse_frames(&writer.out).len(), 1 + 16);
        let totals = *s.stats.totals.lock().unwrap();
        assert_eq!(
            totals.ok + totals.failed,
            32,
            "two chunks ran, the third did not"
        );
        assert_eq!(s.inflight_jobs.load(Ordering::SeqCst), 0);
        let tenants = s.tenant_stats();
        assert_eq!(tenants[0].inflight, 0, "the tenant's quota is free again");
        let pool = tenants[0].pool;
        assert_eq!(
            pool.built,
            (pool.free + pool.quarantined) as u64,
            "every checked-out machine came back: {pool:?}"
        );
    }
}
