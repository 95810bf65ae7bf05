//! magma-trace: causal tracing across the message-flow graph.
//!
//! The flow layer (`crates/sim/src/flow.rs`) makes every production
//! actor-to-actor edge a typed [`FlowKind`](crate::FlowKind) crossing
//! [`Ctx::send_to`](crate::Ctx::send_to) — which is exactly the hook
//! Dapper-style context propagation needs. A procedure (attach, detach,
//! path switch, 5G register, S6a auth, metricsd push) is rooted with
//! [`Ctx::trace_start`](crate::Ctx::trace_start); from then on the
//! kernel carries a [`TraceCtx`] on every event scheduled through a flow
//! edge (`send_to` / `send_to_in` / `send_self`), through the CPU model
//! (`try_exec` → `CpuDone`, so queue wait is a first-class hop), and
//! through explicitly-opted causal timers
//! ([`Ctx::trace_timer_in`](crate::Ctx::trace_timer_in), e.g. the RAN's
//! radio-delay leg). Each hop is one span: it opens when the event is
//! scheduled and closes when the event is delivered, so a span's
//! duration is the virtual time the hop actually took — link latency,
//! CPU queueing, retry backoff — with zero instrumentation inside
//! handlers (handlers take zero virtual time by construction).
//!
//! The actor that semantically completes the procedure calls
//! [`Ctx::trace_finish`](crate::Ctx::trace_finish): the **critical
//! path** is the chain of spans from the finishing span up to the root,
//! and its per-[`FlowKind`](crate::FlowKind) durations are aggregated
//! into each procedure's [`ProcSummary`], so "attach p99 is 71% S6a
//! round-trip" is a query, not a guess. Pending-but-irrelevant spans (an attach timeout that never
//! fires) stay off the path automatically.
//!
//! Determinism: tracing only observes — it never feeds virtual time or
//! the RNG, so it cannot perturb a seeded run. Every rooted trace is
//! recorded, trace ids are allocated
//! in dispatch order, and every container is a `Vec`/`BTreeMap`, so
//! same-seed runs export byte-identical trace JSON. Disabled, the whole
//! machinery is one cached-bool branch per scheduling call (the same
//! contract as simprof).

use crate::actor::ActorId;
use crate::time::SimTime;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};

/// Sentinel parent index marking a root span.
pub const ROOT_SPAN: u32 = u32::MAX;

/// Per-trace span budget: one procedure tree never grows past this many
/// spans; further hops stop propagating and are counted in
/// [`TraceStats::span_overflow_total`].
pub const DEFAULT_SPAN_BUDGET: usize = 512;

/// Maximum causal depth carried by a context; deeper chains stop
/// propagating (counted as overflow). Guards against accidental
/// self-sustaining chains.
pub const MAX_TRACE_DEPTH: u16 = 192;

/// Live (unfinished) traces retained at once; beyond this the oldest is
/// evicted and counted in [`TraceStats::evicted_total`].
pub const DEFAULT_LIVE_TRACE_CAP: usize = 1024;

/// Finished trace trees retained for export (oldest dropped first; the
/// per-procedure aggregates keep counting regardless).
pub const DEFAULT_RETAINED_TRACE_CAP: usize = 256;

/// The causal context carried on a kernel-scheduled event (and exposed
/// to the dispatched handler): which trace this event belongs to, the
/// span that parents any hop scheduled under it, and the causal depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    pub trace_id: u64,
    pub parent_span: u32,
    pub depth: u16,
}

/// One hop of a procedure: opened when the event was scheduled, closed
/// when it was delivered.
#[derive(Debug)]
struct SpanRec {
    parent: u32,
    /// The flow-edge name (`FlowKind::name`), or `"cpu"` / `"timer"`
    /// for CPU-model and opted-in timer hops.
    kind: &'static str,
    src: ActorId,
    dst: ActorId,
    start: SimTime,
    end: Option<SimTime>,
}

/// A trace being recorded: the span tree plus root bookkeeping.
#[derive(Debug)]
struct TraceBuf {
    id: u64,
    label: &'static str,
    root_actor: ActorId,
    started: SimTime,
    /// Set by `trace_finish`: (virtual end, finishing span index).
    finished: Option<(SimTime, u32)>,
    spans: Vec<SpanRec>,
    overflow: u64,
}

/// Per-(procedure, hop-kind) critical-path aggregate.
#[derive(Debug, Default, Clone, Copy)]
struct HopAgg {
    total: SimTime, // sum of hop durations (µs, stored as SimTime for exactness)
    count: u64,
}

/// Per-procedure aggregate over finished traces.
#[derive(Debug, Default, Clone, Copy)]
struct ProcAgg {
    count: u64,
    latency_total_us: u64,
    latency_max_us: u64,
}

/// The kernel-owned tracer. All methods are cheap and deterministic;
/// none are called when tracing is disabled (the kernel guards every
/// call with a cached bool).
#[derive(Debug)]
pub(crate) struct Tracer {
    next_id: u64,
    span_budget: usize,
    live_cap: usize,
    retained_cap: usize,
    live: BTreeMap<u64, TraceBuf>,
    retained: VecDeque<TraceBuf>,
    started_total: u64,
    finished_total: u64,
    spans_total: u64,
    overflow_total: u64,
    evicted_total: u64,
    orphan_total: u64,
    /// (procedure label, hop kind) → critical-path aggregate.
    crit: BTreeMap<(&'static str, &'static str), HopAgg>,
    procs: BTreeMap<&'static str, ProcAgg>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            next_id: 0,
            span_budget: DEFAULT_SPAN_BUDGET,
            live_cap: DEFAULT_LIVE_TRACE_CAP,
            retained_cap: DEFAULT_RETAINED_TRACE_CAP,
            live: BTreeMap::new(),
            retained: VecDeque::new(),
            started_total: 0,
            finished_total: 0,
            spans_total: 0,
            overflow_total: 0,
            evicted_total: 0,
            orphan_total: 0,
            crit: BTreeMap::new(),
            procs: BTreeMap::new(),
        }
    }

    /// Root a new trace at `actor`. Returns the context the rest of the
    /// dispatch should propagate.
    pub fn start(&mut self, label: &'static str, actor: ActorId, now: SimTime) -> TraceCtx {
        self.next_id += 1;
        let id = self.next_id;
        self.started_total += 1;
        while self.live.len() >= self.live_cap {
            // Evict the oldest live trace: it will never finish.
            let oldest = *self.live.keys().next().unwrap();
            self.live.remove(&oldest);
            self.evicted_total += 1;
        }
        let root = SpanRec {
            parent: ROOT_SPAN,
            kind: label,
            src: actor,
            dst: actor,
            start: now,
            end: None,
        };
        self.live.insert(
            id,
            TraceBuf {
                id,
                label,
                root_actor: actor,
                started: now,
                finished: None,
                spans: vec![root],
                overflow: 0,
            },
        );
        self.spans_total += 1;
        TraceCtx {
            trace_id: id,
            parent_span: 0,
            depth: 0,
        }
    }

    /// Open a span for a hop scheduled under `cur` (a flow-edge send, a
    /// CPU submission, or an opted-in timer). Returns the context to
    /// stamp on the scheduled event, or `None` when the trace is gone or
    /// its span/depth budget is exhausted (propagation stops, counted).
    pub fn child(
        &mut self,
        cur: TraceCtx,
        kind: &'static str,
        src: ActorId,
        dst: ActorId,
        now: SimTime,
    ) -> Option<TraceCtx> {
        let Some(buf) = self.live.get_mut(&cur.trace_id) else {
            self.orphan_total += 1;
            return None;
        };
        if buf.spans.len() >= self.span_budget || cur.depth >= MAX_TRACE_DEPTH {
            buf.overflow += 1;
            self.overflow_total += 1;
            return None;
        }
        let idx = buf.spans.len() as u32;
        buf.spans.push(SpanRec {
            parent: cur.parent_span,
            kind,
            src,
            dst,
            start: now,
            end: None,
        });
        self.spans_total += 1;
        Some(TraceCtx {
            trace_id: cur.trace_id,
            parent_span: idx,
            depth: cur.depth + 1,
        })
    }

    /// Procedure label of a live trace (`None` once retired/evicted).
    pub fn label_of(&self, trace_id: u64) -> Option<&'static str> {
        self.live.get(&trace_id).map(|b| b.label)
    }

    /// A traced event was delivered: close its hop span. The returned
    /// context (same span as parent) becomes the dispatch's current one.
    pub fn deliver(&mut self, ctx: TraceCtx, now: SimTime) -> TraceCtx {
        if let Some(buf) = self.live.get_mut(&ctx.trace_id) {
            if let Some(span) = buf.spans.get_mut(ctx.parent_span as usize) {
                span.end = Some(now);
            }
        } else {
            self.orphan_total += 1;
        }
        ctx
    }

    /// Semantic completion: close the root span, walk the critical path
    /// (finishing span → root), aggregate per-hop durations, and retire
    /// the trace into the bounded export buffer.
    pub fn finish(&mut self, cur: TraceCtx, now: SimTime) {
        let Some(mut buf) = self.live.remove(&cur.trace_id) else {
            self.orphan_total += 1;
            return;
        };
        buf.finished = Some((now, cur.parent_span));
        buf.spans[0].end = Some(now);
        self.finished_total += 1;

        // Critical path: parent chain from the finishing span to the root.
        let latency_us = now.since(buf.started).as_micros();
        let mut idx = cur.parent_span;
        while idx != ROOT_SPAN && idx != 0 {
            let span = &buf.spans[idx as usize];
            let dur = span.end.unwrap_or(now).since(span.start);
            let agg = self.crit.entry((buf.label, span.kind)).or_default();
            agg.total = SimTime(agg.total.0 + dur.as_micros());
            agg.count += 1;
            idx = span.parent;
        }
        let proc = self.procs.entry(buf.label).or_default();
        proc.count += 1;
        proc.latency_total_us += latency_us;
        proc.latency_max_us = proc.latency_max_us.max(latency_us);

        self.retained.push_back(buf);
        while self.retained.len() > self.retained_cap {
            // Evict the trace with the smallest content key — a pure
            // function of the retained set. Insertion order is not:
            // racecheck's permuted window schedules interleave finishes
            // differently, and FIFO eviction would leak that order into
            // the exported snapshot.
            let evict = self
                .retained
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| {
                    (
                        b.finished.map(|(t, _)| t.0).unwrap_or(0),
                        b.started.0,
                        b.label,
                        b.root_actor.0,
                    )
                })
                .map(|(i, _)| i)
                .expect("retained over cap is non-empty");
            self.retained.remove(evict);
        }
    }

    /// Snapshot everything for export; `names` maps `ActorId` → name.
    pub fn snapshot(&self, names: &[&str]) -> TraceSnapshot {
        let name_of = |a: ActorId| -> String {
            names
                .get(a.0 as usize)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("actor#{}", a.0))
        };
        let mut open_spans = 0u64;
        let traces: Vec<TraceExport> = self
            .retained
            .iter()
            .map(|buf| {
                open_spans += buf.spans.iter().filter(|s| s.end.is_none()).count() as u64;
                TraceExport {
                    id: buf.id,
                    label: buf.label.to_string(),
                    root: name_of(buf.root_actor),
                    started_us: buf.started.as_micros(),
                    finished_us: buf.finished.map(|(t, _)| t.as_micros()),
                    overflow: buf.overflow,
                    spans: buf
                        .spans
                        .iter()
                        .map(|s| SpanExport {
                            parent: if s.parent == ROOT_SPAN {
                                None
                            } else {
                                Some(s.parent)
                            },
                            kind: s.kind.to_string(),
                            src: name_of(s.src),
                            dst: name_of(s.dst),
                            start_us: s.start.as_micros(),
                            end_us: s.end.map(|t| t.as_micros()),
                        })
                        .collect(),
                }
            })
            .collect();

        let procs = self
            .procs
            .iter()
            .map(|(label, agg)| {
                let mut hops: Vec<HopShare> = self
                    .crit
                    .iter()
                    .filter(|((l, _), _)| l == label)
                    .map(|((_, kind), h)| HopShare {
                        kind: kind.to_string(),
                        total_s: h.total.as_secs_f64(),
                        count: h.count,
                        share: if agg.latency_total_us > 0 {
                            h.total.0 as f64 / agg.latency_total_us as f64
                        } else {
                            0.0
                        },
                    })
                    .collect();
                hops.sort_by(|a, b| {
                    b.total_s
                        .partial_cmp(&a.total_s)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.kind.cmp(&b.kind))
                });
                ProcSummary {
                    label: label.to_string(),
                    count: agg.count,
                    latency_total_s: agg.latency_total_us as f64 / 1e6,
                    latency_mean_s: if agg.count > 0 {
                        agg.latency_total_us as f64 / 1e6 / agg.count as f64
                    } else {
                        0.0
                    },
                    latency_max_s: agg.latency_max_us as f64 / 1e6,
                    dominant_hop: hops.first().map(|h| h.kind.clone()),
                    hops,
                }
            })
            .collect();

        TraceSnapshot {
            stats: TraceStats {
                started_total: self.started_total,
                sampled_total: self.started_total,
                finished_total: self.finished_total,
                spans_total: self.spans_total,
                span_overflow_total: self.overflow_total,
                evicted_total: self.evicted_total,
                orphan_spans_total: self.orphan_total,
                live_traces: self.live.len() as u64,
                retained_traces: self.retained.len() as u64,
                open_spans,
            },
            procs,
            traces,
        }
    }
}

/// Kernel-level trace counters, all deterministic.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct TraceStats {
    pub started_total: u64,
    pub sampled_total: u64,
    pub finished_total: u64,
    pub spans_total: u64,
    pub span_overflow_total: u64,
    pub evicted_total: u64,
    pub orphan_spans_total: u64,
    pub live_traces: u64,
    pub retained_traces: u64,
    /// Spans never closed among the retained trees (cancelled timers,
    /// in-flight events at snapshot time).
    pub open_spans: u64,
}

/// One hop kind's share of a procedure's critical-path time.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct HopShare {
    pub kind: String,
    pub total_s: f64,
    pub count: u64,
    /// Fraction of the procedure's summed end-to-end latency spent in
    /// this hop kind along the critical path.
    pub share: f64,
}

/// Critical-path attribution for one procedure label, over every
/// finished trace (not just the retained trees).
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct ProcSummary {
    pub label: String,
    pub count: u64,
    pub latency_total_s: f64,
    pub latency_mean_s: f64,
    pub latency_max_s: f64,
    /// The hop kind with the largest critical-path share.
    pub dominant_hop: Option<String>,
    /// All hop kinds, sorted by descending critical-path time.
    pub hops: Vec<HopShare>,
}

/// One exported span; times are virtual microseconds.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct SpanExport {
    pub parent: Option<u32>,
    pub kind: String,
    pub src: String,
    pub dst: String,
    pub start_us: u64,
    pub end_us: Option<u64>,
}

/// One exported trace tree.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct TraceExport {
    pub id: u64,
    pub label: String,
    pub root: String,
    pub started_us: u64,
    pub finished_us: Option<u64>,
    pub overflow: u64,
    pub spans: Vec<SpanExport>,
}

/// Everything the tracer knows, resolved to names and serializable.
/// Byte-deterministic for a given `(scenario, seed)`: contains virtual
/// time only, and every collection is ordered.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct TraceSnapshot {
    pub stats: TraceStats,
    pub procs: Vec<ProcSummary>,
    pub traces: Vec<TraceExport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ActorId = ActorId(0);
    const B: ActorId = ActorId(1);

    fn t(us: u64) -> SimTime {
        SimTime(us)
    }

    #[test]
    fn span_tree_records_hops_and_critical_path() {
        let mut tr = Tracer::new();
        let root = tr.start("attach", A, t(0));
        // Hop A→B taking 100µs, then a CPU hop of 50µs, then finish.
        let hop1 = tr.child(root, "s1ap.ul", A, B, t(0)).unwrap();
        let cur = tr.deliver(hop1, t(100));
        let hop2 = tr.child(cur, "cpu", B, B, t(100)).unwrap();
        let cur = tr.deliver(hop2, t(150));
        // A side branch that never completes (a timeout timer).
        let _side = tr.child(cur, "timer", B, B, t(150)).unwrap();
        tr.finish(cur, t(150));

        let snap = tr.snapshot(&["a", "b"]);
        assert_eq!(snap.stats.finished_total, 1);
        assert_eq!(snap.traces.len(), 1);
        let tree = &snap.traces[0];
        assert_eq!(tree.label, "attach");
        assert_eq!(tree.finished_us, Some(150));
        assert_eq!(tree.spans.len(), 4);
        assert_eq!(tree.spans[1].kind, "s1ap.ul");
        assert_eq!(tree.spans[1].end_us, Some(100));
        // The side timer stayed open and off the critical path.
        assert_eq!(snap.stats.open_spans, 1);
        let proc = &snap.procs[0];
        assert_eq!(proc.label, "attach");
        assert_eq!(proc.count, 1);
        assert_eq!(proc.dominant_hop.as_deref(), Some("s1ap.ul"));
        let s1ap = proc.hops.iter().find(|h| h.kind == "s1ap.ul").unwrap();
        assert!((s1ap.total_s - 100e-6).abs() < 1e-12);
        assert!((s1ap.share - 100.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn span_budget_bounds_the_tree() {
        let mut tr = Tracer::new();
        tr.span_budget = 4;
        let root = tr.start("attach", A, t(0));
        let mut cur = root;
        let mut created = 0;
        for i in 0..10 {
            match tr.child(cur, "hop", A, B, t(i)) {
                Some(next) => {
                    cur = tr.deliver(next, t(i + 1));
                    created += 1;
                }
                None => break,
            }
        }
        assert_eq!(created, 3, "budget of 4 = root + 3 hops");
        assert_eq!(tr.overflow_total, 1);
        tr.finish(cur, t(20));
        let snap = tr.snapshot(&[]);
        assert_eq!(snap.traces[0].overflow, 1);
    }

    #[test]
    fn live_cap_evicts_oldest_unfinished() {
        let mut tr = Tracer::new();
        tr.live_cap = 2;
        let t1 = tr.start("attach", A, t(0));
        let _t2 = tr.start("attach", A, t(1));
        let _t3 = tr.start("attach", A, t(2));
        assert_eq!(tr.evicted_total, 1);
        // The evicted trace's spans become orphans, not panics.
        assert!(tr.child(t1, "hop", A, B, t(3)).is_none());
        assert_eq!(tr.orphan_total, 1);
        tr.finish(t1, t(4));
        assert_eq!(tr.orphan_total, 2);
        assert_eq!(tr.finished_total, 0);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let run = || {
            let mut tr = Tracer::new();
            for i in 0..50 {
                let root = tr.start("attach", A, t(i));
                if let Some(hop) = tr.child(root, "hop", A, B, t(i)) {
                    let cur = tr.deliver(hop, t(i + 10));
                    tr.finish(cur, t(i + 10));
                }
            }
            serde_json::to_string(&tr.snapshot(&["a", "b"])).unwrap()
        };
        assert_eq!(run(), run());
    }
}
