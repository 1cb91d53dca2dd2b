//! Robust statistics and the result line.
//!
//! Every host-time figure is a median or a tail percentile of times
//! scaled to reference host speed (see `calib.rs`), so a noise burst on
//! a shared host moves few samples and rarely the figure.

use quetzal_trace::json::Value;
use std::fmt::Write as _;

/// The median of `samples` (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Samples that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency series: the highest percentile that still has
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile it sits at (0–100).
    pub percentile: f64,
    /// Samples in the series.
    pub samples: usize,
}

/// The tail of `samples` per [`Tail`]. A series too short to have
/// [`TAIL_BEYOND`] samples above any rank reports its maximum at the
/// 100th percentile.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "tail of no samples");
    let rank = n.saturating_sub(TAIL_BEYOND + 1);
    let rank = if n > TAIL_BEYOND { rank } else { n - 1 };
    Tail {
        value: s[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    }
}

/// The median of each series.
pub fn medians(series: &[Vec<f64>]) -> Vec<f64> {
    series.iter().map(|s| median(s)).collect()
}

/// Pushes `<name>_p50_ms` and `<name>_tail_ms` for a latency series,
/// plus the tail's percentile and sample count as people-only notes.
pub fn push_latency(out: &mut Outcome, name: &str, samples_ms: &[f64]) {
    let t = tail(samples_ms);
    out.push(format!("{name}_p50_ms"), median(samples_ms), "ms");
    out.push(format!("{name}_tail_ms"), t.value, "ms");
    out.note(format!("{name}_tail_percentile"), t.percentile, "%");
    out.note(format!("{name}_samples"), t.samples as f64, "count");
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `true` if `name` is a valid metric name: starts with a letter or
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops timed.
    pub attempted: u64,
    /// Ops that errored, were refused, or failed a correctness check.
    pub failed: u64,
    /// Once-per-run checks passed (reference agreement, accounting).
    pub checks_ok: bool,
    /// Metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Extra figures printed for people only (not in the result line).
    pub notes: Vec<Metric>,
}

impl Outcome {
    /// Appends a result-line metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Appends a people-only figure.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// `true` if every check passed and every op succeeded.
    pub fn correct(&self) -> bool {
        self.checks_ok && self.failed == 0 && self.attempted > 0
    }

    /// The human-readable table printed before the result line.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!("== {workload}\n");
        for m in self.metrics.iter().chain(&self.notes) {
            let _ = writeln!(out, "{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "{:<40} {:>16} ops ({} failed, fail_ratio {:.6})",
            "attempted",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// every result-line metric with its unit.
    pub fn json(&self) -> String {
        let metrics: Value = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                let metric: Value = [
                    ("value".to_string(), Value::from(value)),
                    ("unit".to_string(), Value::from(m.unit)),
                ]
                .into_iter()
                .collect();
                (m.name.clone(), metric)
            })
            .collect();
        let line: Value = [
            ("correct".to_string(), Value::from(self.correct())),
            ("attempted".to_string(), Value::from(self.attempted)),
            ("failed".to_string(), Value::from(self.failed)),
            ("metrics".to_string(), metrics),
        ]
        .into_iter()
        .collect();
        line.dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond_it() {
        // 1..=40: the rank with ten samples above it is the 30th value.
        let s: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.samples, 40);
        assert_eq!(s.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
        // 1000 samples: the 99th percentile.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn short_series_tail_is_the_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.percentile, t.samples), (5.0, 100.0, 3));
        // Eleven samples: the smallest has ten above it.
        let s: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&s).value, 1.0);
    }

    #[test]
    fn metric_names_are_validated() {
        assert!(valid_metric_name("uarch.cycle.sim_mips.quetzal_c"));
        assert!(valid_metric_name("setup_s"));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("quetzal+c"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_is_parseable_json() {
        let mut o = Outcome {
            attempted: 3,
            checks_ok: true,
            ..Outcome::default()
        };
        o.push("latency_p50_ms", 1.25, "ms");
        o.push("setup_s", 0.5, "s");
        let v = Value::parse(&o.json()).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(3));
        let m = v.get("metrics").and_then(|m| m.get("latency_p50_ms"));
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(|x| x.as_f64()),
            Some(1.25)
        );
        assert_eq!(
            m.and_then(|m| m.get("unit")).and_then(|x| x.as_str()),
            Some("ms")
        );
    }
}
