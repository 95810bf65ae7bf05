//! Perfetto / Chrome trace-event export of `magma-trace` span trees.
//!
//! Converts a [`TraceSnapshot`] into the Chrome trace-event JSON format
//! (the `traceEvents` array flavour) that `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) load directly. The export is
//! byte-deterministic for a given `(scenario, seed)`: every timestamp is
//! virtual microseconds from the simulation clock — no host time ever
//! enters the file — and every collection the snapshot hands us is
//! already ordered (see `magma_sim::trace`).
//!
//! Layout: each retained trace tree becomes one Perfetto *thread* (tid =
//! trace index) under a single synthetic process, named
//! `<label> #<trace_id>` via `thread_name` metadata events. Spans become
//! complete (`"ph":"X"`) duration events whose nesting Perfetto infers
//! from the containment of `[ts, ts+dur)` intervals on a lane. Spans
//! still open at snapshot time (cancelled guard timers, in-flight events)
//! export with `dur: 0` and `"open": true` in `args` rather than
//! inventing an end time.

use magma_sim::{ProcSummary, TraceSnapshot};
use serde_json::{json, Map, Value};
use std::fmt::Write as _;

/// The synthetic process every trace lane lives under.
const TRACE_PID: u64 = 1;

/// Export a snapshot as a Chrome trace-event JSON object
/// (`{"traceEvents": [...], ...}`). Deterministic: virtual time only,
/// stable ordering (traces in retirement order, spans in creation
/// order), no host clocks.
pub fn perfetto_json(snap: &TraceSnapshot) -> Value {
    let mut events: Vec<Value> = vec![json!({
        "name": "process_name",
        "ph": "M",
        "pid": TRACE_PID,
        "tid": 0,
        "args": { "name": "magma-trace" },
    })];
    for (lane, tr) in snap.traces.iter().enumerate() {
        let tid = lane as u64;
        if tr.spans.is_empty() {
            continue;
        }
        events.push(json!({
            "name": "thread_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": tid,
            "args": { "name": format!("{} #{}", tr.label, tr.id) },
        }));
        for (idx, sp) in tr.spans.iter().enumerate() {
            let mut args = Map::new();
            args.insert("trace".into(), json!(tr.id));
            args.insert("span".into(), json!(idx));
            if let Some(p) = sp.parent {
                args.insert("parent".into(), json!(p));
            }
            args.insert("src".into(), json!(sp.src));
            args.insert("dst".into(), json!(sp.dst));
            let dur = match sp.end_us {
                Some(end) => end.saturating_sub(sp.start_us),
                None => {
                    args.insert("open".into(), json!(true));
                    0
                }
            };
            events.push(json!({
                "name": sp.kind,
                "cat": tr.label,
                "ph": "X",
                "ts": sp.start_us,
                "dur": dur,
                "pid": TRACE_PID,
                "tid": tid,
                "args": Value::Object(args),
            }));
        }
    }

    let mut procs = Map::new();
    for p in &snap.procs {
        procs.insert(p.label.clone(), proc_json(p));
    }

    json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "virtual_us",
            "stats": {
                "started_total": snap.stats.started_total,
                "sampled_total": snap.stats.sampled_total,
                "finished_total": snap.stats.finished_total,
                "spans_total": snap.stats.spans_total,
                "span_overflow_total": snap.stats.span_overflow_total,
                "evicted_total": snap.stats.evicted_total,
                "orphan_spans_total": snap.stats.orphan_spans_total,
                "retained_traces": snap.stats.retained_traces,
                "open_spans": snap.stats.open_spans,
            },
            "critical_path": Value::Object(procs),
        },
    })
}

fn proc_json(p: &ProcSummary) -> Value {
    let hops: Vec<Value> = p
        .hops
        .iter()
        .map(|h| {
            json!({
                "kind": h.kind,
                "total_s": h.total_s,
                "count": h.count,
                "share": h.share,
            })
        })
        .collect();
    json!({
        "count": p.count,
        "latency_mean_s": p.latency_mean_s,
        "latency_max_s": p.latency_max_s,
        "dominant_hop": p.dominant_hop,
        "hops": hops,
    })
}

/// Critical-path attribution as its own JSON object — the per-procedure
/// view without the span firehose, for report sidecars.
pub fn critical_path_json(snap: &TraceSnapshot) -> Value {
    let mut procs = Map::new();
    for p in &snap.procs {
        procs.insert(p.label.clone(), proc_json(p));
    }
    json!({ "procedures": Value::Object(procs) })
}

/// Console table: one row per traced procedure, naming the dominant
/// critical-path hop and its share of end-to-end virtual latency.
pub fn render_critical_path(snap: &TraceSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>12} {:>12}  dominant hop",
        "procedure", "count", "mean_ms", "max_ms"
    );
    for p in &snap.procs {
        let dom = match (&p.dominant_hop, p.hops.first()) {
            (Some(kind), Some(h)) => {
                format!("{kind} ({:.0}% of path)", h.share * 100.0)
            }
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<14} {:>7} {:>12.3} {:>12.3}  {}",
            p.label,
            p.count,
            p.latency_mean_s * 1e3,
            p.latency_max_s * 1e3,
            dom
        );
    }
    if snap.procs.is_empty() {
        let _ = writeln!(out, "(no finished traces)");
    }
    out
}

/// Serialize [`perfetto_json`] with a trailing newline — the byte-exact
/// form `scripts/check.sh` golden-diffs for the attach-storm scenario.
pub fn perfetto_string(snap: &TraceSnapshot) -> String {
    let mut s = serde_json::to_string_pretty(&perfetto_json(snap))
        .unwrap_or_else(|_| "{}".to_string());
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_sim::{HopShare, SpanExport, TraceExport, TraceStats};

    fn snap() -> TraceSnapshot {
        TraceSnapshot {
            stats: TraceStats {
                started_total: 2,
                sampled_total: 1,
                finished_total: 1,
                spans_total: 3,
                span_overflow_total: 0,
                evicted_total: 0,
                orphan_spans_total: 0,
                live_traces: 0,
                retained_traces: 1,
                open_spans: 1,
            },
            procs: vec![ProcSummary {
                label: "attach".into(),
                count: 1,
                latency_total_s: 0.010,
                latency_mean_s: 0.010,
                latency_max_s: 0.010,
                dominant_hop: Some("net".into()),
                hops: vec![HopShare {
                    kind: "net".into(),
                    total_s: 0.008,
                    count: 2,
                    share: 0.8,
                }],
            }],
            traces: vec![TraceExport {
                id: 7,
                label: "attach".into(),
                root: "enb0".into(),
                started_us: 100,
                finished_us: Some(10_100),
                overflow: 0,
                spans: vec![
                    SpanExport {
                        parent: None,
                        kind: "root".into(),
                        src: "enb0".into(),
                        dst: "enb0".into(),
                        start_us: 100,
                        end_us: Some(10_100),
                    },
                    SpanExport {
                        parent: Some(0),
                        kind: "net".into(),
                        src: "enb0".into(),
                        dst: "agw0".into(),
                        start_us: 100,
                        end_us: Some(4_100),
                    },
                    SpanExport {
                        parent: Some(0),
                        kind: "timer".into(),
                        src: "enb0".into(),
                        dst: "enb0".into(),
                        start_us: 200,
                        end_us: None,
                    },
                ],
            }],
        }
    }

    #[test]
    fn export_is_deterministic() {
        let s = snap();
        assert_eq!(perfetto_string(&s), perfetto_string(&s));
    }

    #[test]
    fn spans_become_complete_events() {
        let v = perfetto_json(&snap());
        let events = v["traceEvents"].as_array().unwrap();
        // 1 process_name + 1 thread_name + 3 spans.
        assert_eq!(events.len(), 5);
        let root = &events[2];
        assert_eq!(root["ph"], "X");
        assert_eq!(root["ts"], 100u64);
        assert_eq!(root["dur"], 10_000u64);
        assert_eq!(root["cat"], "attach");
        // Open span exports dur 0 and flags itself.
        let open = &events[4];
        assert_eq!(open["dur"], 0u64);
        assert_eq!(open["args"]["open"], true);
    }

    #[test]
    fn critical_path_report_names_dominant_hop() {
        let s = snap();
        let txt = render_critical_path(&s);
        assert!(txt.contains("attach"));
        assert!(txt.contains("net (80% of path)"));
        let v = critical_path_json(&s);
        assert_eq!(v["procedures"]["attach"]["dominant_hop"], "net");
    }
}
