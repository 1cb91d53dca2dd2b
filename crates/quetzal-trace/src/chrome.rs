//! Chrome `trace_event` export.
//!
//! Serialises the probe's event ring into the Chrome trace-event JSON
//! format (the `{"traceEvents": [...]}` object form), loadable in
//! Perfetto / `chrome://tracing`. One timeline row (`tid`) per
//! instruction class, one process (`pid`) per program; each dynamic
//! instruction is a complete ("X") event spanning dispatch→commit with
//! issue/writeback and the stall classification in `args`. Cycles map
//! 1:1 to the viewer's microseconds (`ts` is unitless in the format).
//! The document is built as one [`Value`] and rendered by
//! [`Value::dump`].

use crate::json::Value;
use crate::recording::RecordingProbe;
use crate::stall::{class_index, class_label, classify};

/// Renders the probe's retained events as a Chrome trace JSON document.
pub fn render(probe: &RecordingProbe) -> String {
    let meta = |name: &str, pid: u64, tid: usize, label: &str| {
        Value::from([
            ("name", Value::from(name)),
            ("ph", Value::from("M")),
            ("pid", Value::from(pid)),
            ("tid", Value::from(tid)),
            ("args", Value::from([("name", Value::from(label))])),
        ])
    };
    let mut events = Vec::new();
    // Metadata: process names (programs) and thread names (classes).
    for (id, name) in probe.programs() {
        events.push(meta("process_name", id, 0, name));
        for class in crate::stall::CLASSES {
            events.push(meta(
                "thread_name",
                id,
                class_index(class),
                class_label(class),
            ));
        }
    }
    for rec in probe.events() {
        let ev = &rec.ev;
        let label = class_label(ev.class);
        events.push(Value::from([
            ("name", Value::from(format!("pc {} {label}", ev.pc))),
            ("cat", Value::from(label)),
            ("ph", Value::from("X")),
            ("ts", Value::from(ev.dispatch)),
            (
                "dur",
                Value::from(ev.commit.saturating_sub(ev.dispatch).max(1)),
            ),
            ("pid", Value::from(rec.program)),
            ("tid", Value::from(class_index(ev.class))),
            (
                "args",
                Value::from([
                    ("issue", Value::from(ev.issue)),
                    ("writeback", Value::from(ev.complete)),
                    ("commit_gap", Value::from(ev.commit_gap)),
                    ("stall", Value::from(classify(ev).label())),
                    ("l1_hits", Value::from(ev.mem.l1_hits)),
                    ("l1_misses", Value::from(ev.mem.l1_misses)),
                    ("l2_misses", Value::from(ev.mem.l2_misses)),
                ]),
            ),
        ]));
    }
    Value::from([
        ("traceEvents", Value::from(events)),
        ("displayTimeUnit", Value::from("ns")),
        (
            "otherData",
            Value::from([("dropped_events", Value::from(probe.dropped()))]),
        ),
    ])
    .dump()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_uarch::predecode::FuClass;
    use quetzal_uarch::{MemLevelMix, Probe, RetireEvent, StallCat};

    #[test]
    fn trace_round_trips_through_the_parser() {
        let mut p = RecordingProbe::new(8);
        p.on_program(3, "kernel \"x\"");
        p.on_retire(&RetireEvent {
            pc: 5,
            class: quetzal_isa::InstClass::Gather,
            fu: FuClass::GatherPipe,
            dispatch: 10,
            ops_ready: 10,
            issue: 12,
            complete: 31,
            commit: 31,
            commit_gap: 19,
            extra_commit: 0,
            cat: StallCat::Memory,
            dep_cat: StallCat::Frontend,
            mem: MemLevelMix {
                l1_hits: 8,
                l1_misses: 0,
                l2_misses: 0,
            },
            store_ring_floor: 0,
            store_replay: false,
            qz_port_wait: 0,
            qz_latency: 0,
            mispredicted: false,
        });
        let doc = render(&p);
        let v = Value::parse(&doc).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("one X event");
        assert_eq!(x.get("ts").and_then(Value::as_u64), Some(10));
        assert_eq!(x.get("dur").and_then(Value::as_u64), Some(21));
        assert_eq!(
            x.get("args")
                .and_then(|a| a.get("stall"))
                .and_then(Value::as_str),
            Some("l1")
        );
    }
}
