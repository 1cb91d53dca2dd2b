//! Framed client for the `qzserved` protocol (used by `qzclient`, the
//! loopback e2e test, and the CI daemon smoke).

use crate::job::JobSpec;
use crate::protocol::{Request, Response};
use crate::wire::{self, WireError};
use quetzal_genomics::rng::SplitMix64;
use quetzal_trace::json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Framing / transport failure.
    Wire(WireError),
    /// The daemon broke protocol (unknown frame, early hangup).
    Protocol(String),
    /// The daemon answered with a typed `error` frame.
    Refused {
        /// Machine-readable kind from the error frame.
        kind: &'static str,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Refused { kind, message } => write!(f, "refused ({kind}): {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

/// What a `submit` came back with.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// Admitted: the full frame stream (`accepted` … `done`).
    Report(Vec<Response>),
    /// Refused on tenant quota — resubmit later.
    Busy {
        /// Jobs in flight for the tenant at refusal time.
        inflight: u64,
        /// The tenant's quota.
        max: u64,
    },
    /// Refused because the daemon is draining for shutdown.
    Draining,
}

/// Backoff schedule for resubmitting after a typed `busy` frame.
///
/// The delay before attempt `k` (1-based) is `base * 2^(k-1)` capped at
/// `cap`, plus up to 50% seeded jitter so a herd of refused clients
/// does not resubmit in lockstep. The jitter stream is [`SplitMix64`],
/// so a given seed always produces the same schedule — tests can
/// assert on it.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Resubmit at most this many times after the first refusal.
    pub retries: u32,
    /// Delay before the first resubmit (doubles each refusal).
    pub base: Duration,
    /// Upper bound on any single delay, pre-jitter.
    pub cap: Duration,
    /// Give up once the whole submit (including waits) has taken this
    /// long, even with retries left.
    pub deadline: Option<Duration>,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            retries: 5,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            deadline: None,
            seed: 0x5eed_1e55,
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before resubmit attempt `attempt` (1-based),
    /// drawing jitter from `rng`.
    fn delay(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let exp = attempt.saturating_sub(1).min(32);
        let scaled = self
            .base
            .checked_mul(1u32 << exp.min(31))
            .unwrap_or(self.cap);
        let capped = scaled.min(self.cap);
        // Up to +50% jitter in 1/1024 steps — deterministic per seed.
        let jitter_per_mille = (rng.next_u64() % 512) as u32;
        capped + capped.mul_f64(f64::from(jitter_per_mille) / 1024.0)
    }
}

/// A framed protocol client over any bidirectional stream.
#[derive(Debug)]
pub struct Client<S> {
    stream: S,
}

impl Client<TcpStream> {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Returns the connection error.
    pub fn connect(addr: &str) -> Result<Client<TcpStream>, ClientError> {
        let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        // Each frame is one write, but without this Nagle holds a request
        // sent while the last one is still unacknowledged until the
        // daemon's delayed ACK (~40 ms).
        stream.set_nodelay(true).map_err(WireError::Io)?;
        Ok(Client { stream })
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an existing stream.
    pub fn new(stream: S) -> Client<S> {
        Client { stream }
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        wire::write_value(&mut self.stream, &request.to_value())?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        let value = wire::read_value(&mut self.stream)?
            .ok_or_else(|| ClientError::Protocol("daemon hung up mid-exchange".to_string()))?;
        Response::from_value(&value).map_err(ClientError::Protocol)
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport or protocol failure.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Fetches the daemon's stats object.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport or protocol failure.
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Response::Stats(v) => Ok(v),
            other => Err(ClientError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Asks the daemon to drain and exit; returns the final stats from
    /// its `bye` frame.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport or protocol failure.
    pub fn shutdown(&mut self) -> Result<Value, ClientError> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Response::Bye(v) => Ok(v),
            other => Err(ClientError::Protocol(format!(
                "expected bye, got {other:?}"
            ))),
        }
    }

    /// Submits a job and collects the streamed report.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Refused`] for typed admission errors and
    /// [`ClientError`] transport/protocol variants otherwise. `Busy`
    /// and `Draining` are *outcomes*, not errors — they are the
    /// protocol's backpressure working as designed.
    pub fn submit(&mut self, tenant: &str, job: &JobSpec) -> Result<SubmitOutcome, ClientError> {
        self.send(&Request::Submit {
            tenant: tenant.to_string(),
            job: job.clone(),
        })?;
        let mut frames = Vec::new();
        match self.recv()? {
            Response::Busy { inflight, max, .. } => {
                return Ok(SubmitOutcome::Busy { inflight, max })
            }
            Response::Draining => return Ok(SubmitOutcome::Draining),
            Response::Error { kind, message } => {
                return Err(ClientError::Refused { kind, message });
            }
            accepted @ Response::Accepted { .. } => frames.push(accepted),
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected accepted, got {other:?}"
                )));
            }
        }
        loop {
            let frame = self.recv()?;
            let is_done = matches!(frame, Response::Done(_));
            frames.push(frame);
            if is_done {
                return Ok(SubmitOutcome::Report(frames));
            }
        }
    }

    /// Submits a job, resubmitting on `busy` frames with jittered
    /// exponential backoff per `policy`.
    ///
    /// `on_busy` is called before each wait with (attempt, inflight,
    /// max, delay) so callers can log the backpressure. Returns the
    /// last refusal as a plain [`SubmitOutcome::Busy`] once retries or
    /// the deadline are exhausted; `Draining` is never retried — a
    /// daemon on its way down will not come back.
    ///
    /// # Errors
    ///
    /// Same as [`Client::submit`].
    pub fn submit_with_retry(
        &mut self,
        tenant: &str,
        job: &JobSpec,
        policy: &RetryPolicy,
        mut on_busy: impl FnMut(u32, u64, u64, Duration),
    ) -> Result<SubmitOutcome, ClientError> {
        let start = Instant::now();
        let mut rng = SplitMix64::new(policy.seed);
        let mut attempt = 0u32;
        loop {
            match self.submit(tenant, job)? {
                SubmitOutcome::Busy { inflight, max } => {
                    attempt += 1;
                    if attempt > policy.retries {
                        return Ok(SubmitOutcome::Busy { inflight, max });
                    }
                    let delay = policy.delay(attempt, &mut rng);
                    if let Some(deadline) = policy.deadline {
                        if start.elapsed() + delay > deadline {
                            return Ok(SubmitOutcome::Busy { inflight, max });
                        }
                    }
                    on_busy(attempt, inflight, max, delay);
                    std::thread::sleep(delay);
                }
                other => return Ok(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_seeded_capped_and_monotone_pre_jitter() {
        let policy = RetryPolicy {
            retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            deadline: None,
            seed: 42,
        };
        let mut a = SplitMix64::new(policy.seed);
        let mut b = SplitMix64::new(policy.seed);
        for attempt in 1..=8 {
            // Same seed, same schedule — deterministic jitter.
            assert_eq!(policy.delay(attempt, &mut a), policy.delay(attempt, &mut b));
        }
        let mut rng = SplitMix64::new(policy.seed);
        for attempt in 1..=8u32 {
            let d = policy.delay(attempt, &mut rng);
            let pre = Duration::from_millis(10)
                .checked_mul(1 << (attempt - 1))
                .unwrap()
                .min(Duration::from_millis(200));
            // Jitter adds at most 50%.
            assert!(d >= pre, "attempt {attempt}: {d:?} < {pre:?}");
            assert!(d <= pre.mul_f64(1.5), "attempt {attempt}: {d:?} too big");
        }
        // Different seeds disagree somewhere in the schedule.
        let other = RetryPolicy {
            seed: 43,
            ..policy.clone()
        };
        let mut x = SplitMix64::new(policy.seed);
        let mut y = SplitMix64::new(other.seed);
        let differs = (1..=8).any(|k| policy.delay(k, &mut x) != other.delay(k, &mut y));
        assert!(differs);
    }
}
