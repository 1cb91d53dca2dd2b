//! Typed request/response frames of the `qzserved` protocol.
//!
//! Every frame is one JSON object with a `type` member (see
//! DESIGN.md §11 for the full table). Parsing is total: anything the
//! grammar does not cover comes back as a typed error, never a panic —
//! the protocol-robustness test feeds this module seeded garbage.

use crate::job::{JobSpec, JobSummary};
use quetzal_trace::json::Value;

/// A client-to-daemon frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Read the daemon's counters.
    Stats,
    /// Drain in-flight jobs and exit.
    Shutdown,
    /// Run a batch job under a tenant.
    Submit {
        /// Tenant name (pools and quotas are per tenant).
        tenant: String,
        /// The job.
        job: JobSpec,
    },
}

impl Request {
    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown types or malformed
    /// bodies.
    pub fn from_value(v: &Value) -> Result<Request, String> {
        match v.get("type").and_then(Value::as_str) {
            Some("ping") => Ok(Request::Ping),
            Some("stats") => Ok(Request::Stats),
            Some("shutdown") => Ok(Request::Shutdown),
            Some("submit") => {
                let tenant = v
                    .get("tenant")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_string();
                if tenant.is_empty() || tenant.len() > 64 {
                    return Err("tenant name must be 1..=64 characters".to_string());
                }
                let job = v.get("job").ok_or("missing object field 'job'")?;
                Ok(Request::Submit {
                    tenant,
                    job: JobSpec::from_value(job)?,
                })
            }
            Some(other) => Err(format!(
                "unknown request type '{other}' (ping|stats|shutdown|submit)"
            )),
            None => Err("missing string field 'type'".to_string()),
        }
    }

    /// Renders the request to its wire object.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Ping => obj([("type", Value::from("ping"))]),
            Request::Stats => obj([("type", Value::from("stats"))]),
            Request::Shutdown => obj([("type", Value::from("shutdown"))]),
            Request::Submit { tenant, job } => obj([
                ("type", Value::from("submit")),
                ("tenant", Value::from(tenant.clone())),
                ("job", job.to_value()),
            ]),
        }
    }
}

/// A daemon-to-client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// The job passed admission; item frames follow.
    Accepted {
        /// The tenant the job was admitted under.
        tenant: String,
        /// Items the daemon will stream frames for.
        items: u64,
    },
    /// Backpressure: the tenant is at its in-flight quota. The typed
    /// alternative to buffering — resubmit later.
    Busy {
        /// The tenant that is saturated.
        tenant: String,
        /// Jobs currently in flight for the tenant.
        inflight: u64,
        /// The tenant's quota.
        max: u64,
    },
    /// The daemon is draining for shutdown and admits nothing new.
    Draining,
    /// One healthy item (streamed in item order).
    Item {
        /// Item index within the job.
        item: usize,
        /// Algorithm result (score / filter verdict; 0 for fault jobs).
        value: i64,
        /// Simulated cycles the item cost.
        cycles: u64,
        /// Instructions the item retired.
        instructions: u64,
        /// Present if the first attempt failed and the fresh-machine
        /// retry recovered: `(cause kind, message)`.
        recovered: Option<(&'static str, String)>,
    },
    /// One failed item (streamed in item order).
    ItemFailed {
        /// Item index within the job.
        item: usize,
        /// Failure kind: `sim`, `panic`, or `rejected`.
        cause: &'static str,
        /// Human-readable detail (typed [`SimError`](quetzal::SimError) display, panic
        /// payload, or the static verifier's summary).
        message: String,
    },
    /// One completed ingestion shard (streamed in shard order by
    /// `submit{kind:"ingest"}` jobs; the durable checkpoint for the
    /// shard is already committed when this frame is sent).
    ShardDone {
        /// Shard index.
        shard: u64,
        /// Global index of the shard's first item.
        start: u64,
        /// Items in the shard.
        count: u64,
        /// Items that produced a result.
        ok: u64,
        /// Items that failed.
        failed: u64,
        /// Items recovered by the fresh-machine retry.
        recovered: u64,
        /// Simulated cycles over healthy items.
        cycles: u64,
        /// Retired instructions over healthy items.
        instructions: u64,
        /// The shard was satisfied from an existing checkpoint.
        resumed: bool,
        /// Quarantine cause when the shard hit its deadline / budget.
        quarantined: Option<String>,
        /// Checksum of the shard's output lines (16-digit hex — full
        /// u64 range, which JSON integers cannot carry exactly).
        output_fnv: String,
    },
    /// Job finished; aggregate counters.
    Done(JobSummary),
    /// Daemon counters (reply to [`Request::Stats`]).
    Stats(Value),
    /// Final frame of a shutdown: the daemon drained and is exiting.
    /// Carries the final stats object (quarantine tallies included).
    Bye(Value),
    /// Typed error: protocol violations, admission failures, internal
    /// faults. `kind` is machine-readable, `message` human-readable.
    Error {
        /// Machine-readable kind (`bad-frame`, `bad-request`, …).
        kind: &'static str,
        /// Human-readable detail.
        message: String,
    },
}

fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Leaks nothing: maps a parsed cause string back to the static strs
/// the enum carries (the cause vocabulary is closed).
fn cause_str(s: &str) -> Result<&'static str, String> {
    match s {
        "sim" => Ok("sim"),
        "panic" => Ok("panic"),
        "rejected" => Ok("rejected"),
        other => Err(format!("unknown cause '{other}'")),
    }
}

fn error_kind_str(s: &str) -> &'static str {
    match s {
        "bad-frame" => "bad-frame",
        "bad-request" => "bad-request",
        "tenant-limit" => "tenant-limit",
        "idle-timeout" => "idle-timeout",
        "internal" => "internal",
        _ => "error",
    }
}

impl Response {
    /// Renders the response to its wire object.
    pub fn to_value(&self) -> Value {
        match self {
            Response::Pong => obj([("type", Value::from("pong"))]),
            Response::Accepted { tenant, items } => obj([
                ("type", Value::from("accepted")),
                ("tenant", Value::from(tenant.clone())),
                ("items", Value::from(*items)),
            ]),
            Response::Busy {
                tenant,
                inflight,
                max,
            } => obj([
                ("type", Value::from("busy")),
                ("tenant", Value::from(tenant.clone())),
                ("inflight", Value::from(*inflight)),
                ("max", Value::from(*max)),
            ]),
            Response::Draining => obj([("type", Value::from("draining"))]),
            Response::Item {
                item,
                value,
                cycles,
                instructions,
                recovered,
            } => {
                let mut fields = vec![
                    ("type", Value::from("item")),
                    ("item", Value::from(*item)),
                    ("value", Value::from(*value)),
                    ("cycles", Value::from(*cycles)),
                    ("instructions", Value::from(*instructions)),
                ];
                if let Some((cause, message)) = recovered {
                    fields.push(("recovered_cause", Value::from(*cause)));
                    fields.push(("recovered_message", Value::from(message.clone())));
                }
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
            }
            Response::ItemFailed {
                item,
                cause,
                message,
            } => obj([
                ("type", Value::from("item_failed")),
                ("item", Value::from(*item)),
                ("cause", Value::from(*cause)),
                ("message", Value::from(message.clone())),
            ]),
            Response::ShardDone {
                shard,
                start,
                count,
                ok,
                failed,
                recovered,
                cycles,
                instructions,
                resumed,
                quarantined,
                output_fnv,
            } => {
                let mut fields = vec![
                    ("type", Value::from("shard_done")),
                    ("shard", Value::from(*shard)),
                    ("start", Value::from(*start)),
                    ("count", Value::from(*count)),
                    ("ok", Value::from(*ok)),
                    ("failed", Value::from(*failed)),
                    ("recovered", Value::from(*recovered)),
                    ("cycles", Value::from(*cycles)),
                    ("instructions", Value::from(*instructions)),
                    ("resumed", Value::from(*resumed)),
                    ("output_fnv", Value::from(output_fnv.clone())),
                ];
                if let Some(cause) = quarantined {
                    fields.push(("quarantined", Value::from(cause.clone())));
                }
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
            }
            Response::Done(s) => {
                let mut fields = vec![
                    ("type", Value::from("done")),
                    ("items", Value::from(s.items)),
                    ("ok", Value::from(s.ok)),
                    ("failed", Value::from(s.failed)),
                    ("rejected", Value::from(s.rejected)),
                    ("recovered", Value::from(s.recovered)),
                    ("cycles", Value::from(s.cycles)),
                    ("instructions", Value::from(s.instructions)),
                ];
                // Admission-verdict tallies ride only on jobs that
                // classify (fault jobs) — align/ingest done lines keep
                // their original shape.
                if s.bounded + s.clean + s.warnings > 0 {
                    fields.push(("bounded", Value::from(s.bounded)));
                    fields.push(("clean", Value::from(s.clean)));
                    fields.push(("warnings", Value::from(s.warnings)));
                }
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
            }
            Response::Stats(v) => obj([("type", Value::from("stats")), ("stats", v.clone())]),
            Response::Bye(v) => obj([("type", Value::from("bye")), ("stats", v.clone())]),
            Response::Error { kind, message } => obj([
                ("type", Value::from("error")),
                ("kind", Value::from(*kind)),
                ("message", Value::from(message.clone())),
            ]),
        }
    }

    /// Parses a response frame (the client side).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown types or malformed
    /// bodies.
    pub fn from_value(v: &Value) -> Result<Response, String> {
        let str_of = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        let u64_of = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing integer field '{key}'"))
        };
        match v.get("type").and_then(Value::as_str) {
            Some("pong") => Ok(Response::Pong),
            Some("accepted") => Ok(Response::Accepted {
                tenant: str_of("tenant")?,
                items: u64_of("items")?,
            }),
            Some("busy") => Ok(Response::Busy {
                tenant: str_of("tenant")?,
                inflight: u64_of("inflight")?,
                max: u64_of("max")?,
            }),
            Some("draining") => Ok(Response::Draining),
            Some("item") => Ok(Response::Item {
                item: u64_of("item")? as usize,
                value: v
                    .get("value")
                    .and_then(Value::as_i64)
                    .ok_or("missing integer field 'value'")?,
                cycles: u64_of("cycles")?,
                instructions: u64_of("instructions")?,
                recovered: match v.get("recovered_cause") {
                    None => None,
                    Some(c) => Some((
                        cause_str(c.as_str().ok_or("'recovered_cause' must be a string")?)?,
                        str_of("recovered_message")?,
                    )),
                },
            }),
            Some("item_failed") => Ok(Response::ItemFailed {
                item: u64_of("item")? as usize,
                cause: cause_str(&str_of("cause")?)?,
                message: str_of("message")?,
            }),
            Some("shard_done") => Ok(Response::ShardDone {
                shard: u64_of("shard")?,
                start: u64_of("start")?,
                count: u64_of("count")?,
                ok: u64_of("ok")?,
                failed: u64_of("failed")?,
                recovered: u64_of("recovered")?,
                cycles: u64_of("cycles")?,
                instructions: u64_of("instructions")?,
                resumed: v
                    .get("resumed")
                    .and_then(Value::as_bool)
                    .ok_or("missing boolean field 'resumed'")?,
                quarantined: match v.get("quarantined") {
                    None => None,
                    Some(c) => Some(
                        c.as_str()
                            .ok_or("'quarantined' must be a string")?
                            .to_string(),
                    ),
                },
                output_fnv: str_of("output_fnv")?,
            }),
            Some("done") => {
                let opt = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
                Ok(Response::Done(JobSummary {
                    items: u64_of("items")?,
                    ok: u64_of("ok")?,
                    failed: u64_of("failed")?,
                    rejected: u64_of("rejected")?,
                    recovered: u64_of("recovered")?,
                    cycles: u64_of("cycles")?,
                    instructions: u64_of("instructions")?,
                    bounded: opt("bounded"),
                    clean: opt("clean"),
                    warnings: opt("warnings"),
                }))
            }
            Some("stats") => Ok(Response::Stats(
                v.get("stats").cloned().ok_or("missing field 'stats'")?,
            )),
            Some("bye") => Ok(Response::Bye(
                v.get("stats").cloned().ok_or("missing field 'stats'")?,
            )),
            Some("error") => Ok(Response::Error {
                kind: error_kind_str(&str_of("kind")?),
                message: str_of("message")?,
            }),
            Some(other) => Err(format!("unknown response type '{other}'")),
            None => Err("missing string field 'type'".to_string()),
        }
    }
}

/// Renders a job's frame stream as deterministic report text: one
/// compact JSON document per line, item frames and the final `done`
/// frame only. Both the daemon-served and offline paths produce their
/// reports through this function, so "byte-identical" is checkable with
/// a plain string compare.
pub fn render_report(frames: &[Response]) -> String {
    let mut out = String::new();
    for frame in frames {
        if matches!(
            frame,
            Response::Item { .. }
                | Response::ItemFailed { .. }
                | Response::ShardDone { .. }
                | Response::Done(_)
        ) {
            out.push_str(&frame.to_value().dump());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Submit {
                tenant: "acme".to_string(),
                job: JobSpec::Fault {
                    seed: 7,
                    cases: vec![1, 2],
                },
            },
        ];
        for req in reqs {
            let wire = req.to_value().dump();
            let back = Request::from_value(&Value::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let frames = [
            Response::Pong,
            Response::Accepted {
                tenant: "t".to_string(),
                items: 3,
            },
            Response::Busy {
                tenant: "t".to_string(),
                inflight: 4,
                max: 4,
            },
            Response::Draining,
            Response::Item {
                item: 2,
                value: -17,
                cycles: 1234,
                instructions: 999,
                recovered: Some(("panic", "boom".to_string())),
            },
            Response::Item {
                item: 3,
                value: 5,
                cycles: 1,
                instructions: 1,
                recovered: None,
            },
            Response::ItemFailed {
                item: 5,
                cause: "sim",
                message: "instruction budget".to_string(),
            },
            Response::ShardDone {
                shard: 2,
                start: 512,
                count: 256,
                ok: 255,
                failed: 1,
                recovered: 0,
                cycles: 99,
                instructions: 42,
                resumed: true,
                quarantined: Some("wall deadline 5ms exceeded".to_string()),
                output_fnv: "cbf29ce484222325".to_string(),
            },
            Response::ShardDone {
                shard: 0,
                start: 0,
                count: 4,
                ok: 4,
                failed: 0,
                recovered: 0,
                cycles: 1,
                instructions: 1,
                resumed: false,
                quarantined: None,
                output_fnv: "0000000000000000".to_string(),
            },
            Response::Done(JobSummary {
                items: 6,
                ok: 4,
                failed: 1,
                rejected: 1,
                recovered: 1,
                cycles: 10,
                instructions: 20,
                bounded: 2,
                clean: 1,
                warnings: 1,
            }),
            Response::Done(JobSummary {
                items: 2,
                ok: 2,
                ..JobSummary::default()
            }),
            Response::Error {
                kind: "bad-request",
                message: "nope".to_string(),
            },
        ];
        for frame in frames {
            let wire = frame.to_value().dump();
            let back = Response::from_value(&Value::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn unknown_frames_are_typed_errors() {
        let v = Value::parse(r#"{"type":"warp"}"#).unwrap();
        assert!(Request::from_value(&v).unwrap_err().contains("unknown"));
        assert!(Response::from_value(&v).unwrap_err().contains("unknown"));
        let v = Value::parse(r#"{"no_type":1}"#).unwrap();
        assert!(Request::from_value(&v).is_err());
    }

    #[test]
    fn report_rendering_is_line_per_frame() {
        let frames = [
            Response::Accepted {
                tenant: "t".to_string(),
                items: 1,
            },
            Response::Item {
                item: 0,
                value: 1,
                cycles: 2,
                instructions: 3,
                recovered: None,
            },
            Response::Done(JobSummary::default()),
        ];
        let report = render_report(&frames);
        assert_eq!(
            report.lines().count(),
            2,
            "accepted is not part of the report"
        );
        assert!(report.starts_with('{') && report.ends_with('\n'));
    }
}
