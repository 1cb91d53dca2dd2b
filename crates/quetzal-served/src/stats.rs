//! Daemon-wide counters behind the `/stats` frame.
//!
//! The job and connection counters (admissions and refusals, protocol
//! errors, idle timeouts, busy time) are relaxed atomics: monotonic
//! tallies read for observability, not synchronisation. The item, verdict, cycle and
//! instruction tallies are one [`JobSummary`] behind a mutex, summed
//! once per completed job by [`JobSummary::absorb`] — the same record
//! each job's `done` frame carries. Simulated-throughput (sim-MIPS) is
//! derived from the cumulative retired instructions and the wall-clock
//! time spent executing jobs, the same quantity the `BENCH_uarch.json`
//! trajectory floors.

use crate::job::JobSummary;
use quetzal::PoolStats;
use quetzal_trace::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotonic daemon counters (see [`ServerStats::snapshot`] for the
/// wire shape).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Jobs that passed admission.
    pub jobs_accepted: AtomicU64,
    /// Jobs refused with a `busy` frame (tenant quota).
    pub jobs_busy: AtomicU64,
    /// Jobs refused with a `draining` frame (shutdown in progress).
    pub jobs_draining: AtomicU64,
    /// Jobs refused at admission (malformed spec, tenant limit).
    pub jobs_invalid: AtomicU64,
    /// Jobs that ran to their `done` frame.
    pub jobs_completed: AtomicU64,
    /// Malformed frames / requests answered with typed errors.
    pub protocol_errors: AtomicU64,
    /// Connections closed for idling past the read deadline
    /// (slow-loris guard).
    pub idle_timeouts: AtomicU64,
    /// Cumulative wall-clock microseconds spent executing jobs.
    pub busy_micros: AtomicU64,
    /// Every completed job's [`JobSummary`], summed: item outcomes,
    /// admission verdicts, and cycles / instructions over healthy
    /// items.
    pub totals: Mutex<JobSummary>,
}

/// One tenant's occupancy line in the stats frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Pool occupancy (built / free / quarantined).
    pub pool: PoolStats,
    /// Jobs currently in flight for the tenant.
    pub inflight: u64,
    /// The tenant's in-flight quota.
    pub max_inflight: u64,
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl ServerStats {
    /// Adds one completed job's aggregate to the item/throughput
    /// counters.
    pub fn absorb_job(&self, summary: &JobSummary, busy: std::time::Duration) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        self.busy_micros
            .fetch_add(busy.as_micros() as u64, Ordering::Relaxed);
        self.totals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .absorb(summary);
    }

    /// Renders the counters plus per-tenant occupancy as the `/stats`
    /// wire object.
    pub fn snapshot(&self, tenants: &[TenantStats]) -> Value {
        let busy_micros = get(&self.busy_micros);
        let t = *self.totals.lock().unwrap_or_else(|e| e.into_inner());
        // Simulated MIPS: retired guest instructions per wall-clock
        // second of job execution (0 until the first job lands).
        let sim_mips = if busy_micros == 0 {
            0.0
        } else {
            t.instructions as f64 / busy_micros as f64
        };
        let jobs = Value::from([
            ("accepted", Value::from(get(&self.jobs_accepted))),
            ("busy", Value::from(get(&self.jobs_busy))),
            ("draining", Value::from(get(&self.jobs_draining))),
            ("invalid", Value::from(get(&self.jobs_invalid))),
            ("completed", Value::from(get(&self.jobs_completed))),
        ]);
        let items = Value::from([
            ("ok", Value::from(t.ok)),
            ("failed", Value::from(t.failed)),
            ("rejected", Value::from(t.rejected)),
            ("recovered", Value::from(t.recovered)),
        ]);
        // Admission-verdict tallies over verifier-gated items: how many
        // admitted programs carried a proven bound tighter than the
        // default watchdogs, verified clean, or drew warnings —
        // `rejected` mirrors the item counter and completes the
        // partition.
        let admission = Value::from([
            ("bounded", Value::from(t.bounded)),
            ("clean", Value::from(t.clean)),
            ("warnings", Value::from(t.warnings)),
            ("rejected", Value::from(t.rejected)),
        ]);
        let totals = Value::from([
            ("cycles", Value::from(t.cycles)),
            ("instructions", Value::from(t.instructions)),
            ("busy_micros", Value::from(busy_micros)),
            ("sim_mips", Value::from(sim_mips)),
        ]);
        let tenant_map: Value = tenants
            .iter()
            .map(|t| {
                let line = Value::from([
                    ("built", Value::from(t.pool.built)),
                    ("free", Value::from(t.pool.free)),
                    ("quarantined", Value::from(t.pool.quarantined)),
                    ("inflight", Value::from(t.inflight)),
                    ("max_inflight", Value::from(t.max_inflight)),
                ]);
                (t.name.clone(), line)
            })
            .collect();
        Value::from([
            ("jobs", jobs),
            ("items", items),
            ("admission", admission),
            ("protocol_errors", Value::from(get(&self.protocol_errors))),
            ("idle_timeouts", Value::from(get(&self.idle_timeouts))),
            ("totals", totals),
            ("tenants", tenant_map),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_pinned_byte_for_byte() {
        let stats = ServerStats::default();
        stats.jobs_accepted.fetch_add(3, Ordering::Relaxed);
        stats.jobs_busy.fetch_add(1, Ordering::Relaxed);
        stats.protocol_errors.fetch_add(2, Ordering::Relaxed);
        stats.absorb_job(
            &JobSummary {
                items: 9,
                ok: 6,
                failed: 1,
                rejected: 2,
                recovered: 1,
                cycles: 12_345,
                instructions: 3_000_000,
                bounded: 4,
                clean: 2,
                warnings: 1,
            },
            std::time::Duration::from_millis(1500),
        );
        let snap = stats.snapshot(&[TenantStats {
            name: "default".to_string(),
            pool: PoolStats {
                built: 2,
                free: 1,
                quarantined: 1,
            },
            inflight: 0,
            max_inflight: 4,
        }]);
        assert_eq!(
            snap.dump(),
            r#"{"admission":{"bounded":4,"clean":2,"rejected":2,"warnings":1},"idle_timeouts":0,"items":{"failed":1,"ok":6,"recovered":1,"rejected":2},"jobs":{"accepted":3,"busy":1,"completed":1,"draining":0,"invalid":0},"protocol_errors":2,"tenants":{"default":{"built":2,"free":1,"inflight":0,"max_inflight":4,"quarantined":1}},"totals":{"busy_micros":1500000,"cycles":12345,"instructions":3000000,"sim_mips":2}}"#
        );
    }

    #[test]
    fn snapshot_carries_tenant_occupancy_and_totals() {
        let stats = ServerStats::default();
        stats.jobs_accepted.fetch_add(2, Ordering::Relaxed);
        stats.absorb_job(
            &JobSummary {
                items: 5,
                ok: 4,
                failed: 1,
                rejected: 0,
                recovered: 1,
                cycles: 100,
                instructions: 2_000_000,
                bounded: 3,
                clean: 1,
                warnings: 1,
            },
            std::time::Duration::from_secs(1),
        );
        let snap = stats.snapshot(&[TenantStats {
            name: "acme".to_string(),
            pool: PoolStats {
                built: 3,
                free: 2,
                quarantined: 1,
            },
            inflight: 1,
            max_inflight: 4,
        }]);
        assert_eq!(
            snap.get("jobs").unwrap().get("accepted").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(
            snap.get("items").unwrap().get("ok").unwrap().as_u64(),
            Some(4)
        );
        let tenant = snap.get("tenants").unwrap().get("acme").unwrap();
        assert_eq!(tenant.get("quarantined").unwrap().as_u64(), Some(1));
        let admission = snap.get("admission").unwrap();
        assert_eq!(admission.get("bounded").unwrap().as_u64(), Some(3));
        assert_eq!(admission.get("clean").unwrap().as_u64(), Some(1));
        assert_eq!(admission.get("warnings").unwrap().as_u64(), Some(1));
        assert_eq!(admission.get("rejected").unwrap().as_u64(), Some(0));
        let mips = snap
            .get("totals")
            .unwrap()
            .get("sim_mips")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((mips - 2.0).abs() < 1e-9, "2M insts / 1s = 2 sim-MIPS");
        // The wire shape is valid JSON end-to-end.
        assert!(Value::parse(&snap.dump()).is_ok());
    }
}
