//! `metricsd`: the gateway telemetry daemon.
//!
//! Real Magma runs a `metricsd` service on every AGW that samples the
//! per-service metric registries and streams them to the orchestrator,
//! where operators observe CSR, throughput, and CPU saturation. This
//! actor reproduces that loop in the simulation:
//!
//! - every [`METRICS_INTERVAL`] it samples host CPU utilization into
//!   gauges and snapshots the world registry's `"<agw_id>."` namespace
//!   (stripping the prefix, so instruments merge across gateways at the
//!   orc8r);
//! - snapshot serialization is charged to the gateway's control-plane
//!   cores via [`Ctx::try_exec`], so telemetry competes with attaches
//!   for CPU exactly like the real daemon;
//! - snapshots are pushed over the shared `magma-rpc`/`magma-net` path
//!   (its own RPC stream on the AGW's network stack), consuming modeled
//!   backhaul bandwidth;
//! - pushes are queued FIFO with one in flight; when the orchestrator
//!   is down or the backhaul partitioned, snapshots accumulate (up to
//!   `MAX_QUEUE`, dropping oldest) and drain in order after
//!   reconnection — no telemetry gap across a crash window.

use crate::actor::ORC8R_DEADLINE;
use crate::config::AgwConfig;
use magma_net::SockEvent;
use magma_orc8r::proto::{self as orc8r_proto, METRICS_INTERVAL};
use magma_rpc::{RpcClient, RpcClientEvent};
use magma_sim::{try_downcast, Actor, Ctx, Event, SimDuration};
use std::collections::VecDeque;

// Timer tags.
const T_SAMPLE: u64 = 1;
const T_RPC: u64 = 2;
// CPU tags.
const C_SNAPSHOT: u64 = 1;

/// CPU time to serialize one snapshot.
const SNAPSHOT_COST: SimDuration = SimDuration::from_millis(2);

/// Max snapshots held while the orchestrator is unreachable: 10 minutes
/// of pushes.
const MAX_QUEUE: usize = 120;

/// Max structured events batched into one push; the remainder stays in
/// the kernel ring for the next push.
const MAX_EVENTS_PER_PUSH: usize = 256;

/// The metricsd service actor.
pub struct MetricsdActor {
    /// The gateway's wiring; with no `orc8r` metricsd only samples.
    cfg: AgwConfig,
    orc8r: Option<RpcClient>,
    /// Snapshots awaiting delivery, oldest first.
    queue: VecDeque<orc8r_proto::MetricsPush>,
    /// RPC id of the in-flight push (always the queue front).
    outstanding: Option<u64>,
    next_seq: u64,
    /// Highest event id already batched into a push (the `eventd`
    /// drain cursor over the kernel ring).
    last_event_id: u64,
    /// Ring-eviction count at the previous snapshot, so each push
    /// reports the drops that happened during its interval as a
    /// counter delta instead of re-counting history.
    last_ring_dropped: u64,
}

impl MetricsdActor {
    pub fn new(cfg: &AgwConfig) -> Self {
        MetricsdActor {
            cfg: cfg.clone(),
            orc8r: None,
            queue: VecDeque::new(),
            outstanding: None,
            next_seq: 1,
            last_event_id: 0,
            last_ring_dropped: 0,
        }
    }

    fn metric(&self, suffix: &str) -> String {
        format!("{}.{suffix}", self.cfg.id)
    }

    /// Sample per-group CPU utilization into gauges. Uses the last
    /// *completed* utilization bucket: the in-progress bucket only
    /// integrates busy time at job boundaries and would under-report.
    fn sample_cpu(&mut self, ctx: &mut Ctx<'_>) {
        let groups = ctx.host_groups(self.cfg.host);
        let mut busy_weighted = 0.0;
        let mut cores_total = 0.0;
        for (name, cores) in &groups {
            let Some(rep) = ctx.utilization(self.cfg.host, name) else {
                continue;
            };
            let util = rep
                .series
                .iter()
                .rev()
                .nth(1)
                .or_else(|| rep.series.last())
                .map(|(_, u)| *u)
                .unwrap_or(0.0);
            let gauge = self.metric(&format!("cpu.{name}.percent"));
            ctx.registry().gauge_set(&gauge, util * 100.0);
            busy_weighted += util * *cores as f64;
            cores_total += *cores as f64;
        }
        if cores_total > 0.0 {
            let gauge = self.metric("cpu.percent");
            ctx.registry()
                .gauge_set(&gauge, busy_weighted / cores_total * 100.0);
        }
    }

    /// Snapshot the gateway's registry namespace, drain this gateway's
    /// structured events past the cursor, and enqueue the push.
    fn take_snapshot(&mut self, ctx: &mut Ctx<'_>) {
        let events = ctx
            .events()
            .since(&self.cfg.id, self.last_event_id, MAX_EVENTS_PER_PUSH);
        if let Some(last) = events.last() {
            self.last_event_id = last.id;
        }
        if !events.is_empty() {
            let m = self.metric("metricsd.events_shipped");
            ctx.registry().counter_add(&m, events.len() as f64);
        }
        // The eventd ring overwrites its oldest entries when full —
        // silently, from the operator's point of view, because an
        // evicted event was by definition never shipped. Surface the
        // loss: each snapshot reports how many ring evictions happened
        // since the last one (the ring is gateway-shared kernel state,
        // so the count covers the whole world as observed by this
        // daemon, mirroring how a real metricsd reports its host ring).
        let ring_dropped = ctx.events().dropped();
        let delta = ring_dropped.saturating_sub(self.last_ring_dropped);
        if delta > 0 {
            self.last_ring_dropped = ring_dropped;
            let m = self.metric("metricsd.eventd_dropped_total");
            ctx.registry().counter_add(&m, delta as f64);
        }
        let snapshot = {
            let _snap = ctx.profile_scope("metricsd.snapshot");
            ctx.registry().snapshot_prefixed(&self.cfg.id)
        };
        let push = orc8r_proto::MetricsPush {
            agw_id: self.cfg.id.clone(),
            seq: self.next_seq,
            taken_at_us: ctx.now().0,
            snapshot,
            events,
        };
        self.next_seq += 1;
        if self.queue.len() >= MAX_QUEUE {
            // Shed the oldest snapshot that is not already in flight.
            let victim = usize::from(self.outstanding.is_some());
            if let Some(shed) = self.queue.remove(victim) {
                let m = self.metric("metricsd.dropped");
                ctx.registry().counter_add(&m, 1.0);
                // Its event batch is lost with it: the cursor is already
                // past those ids. Account for them.
                if !shed.events.is_empty() {
                    let m = self.metric("metricsd.events_dropped");
                    ctx.registry().counter_add(&m, shed.events.len() as f64);
                }
            }
        }
        self.queue.push_back(push);
        let m = self.metric("metricsd.snapshots");
        ctx.registry().counter_add(&m, 1.0);
        self.flush(ctx);
    }

    /// Push the queue front if nothing is in flight. One outstanding
    /// call keeps delivery in order; the RPC client re-sends it after a
    /// reconnect, until its deadline.
    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        if self.outstanding.is_some() {
            return;
        }
        let (Some(client), Some(front)) = (self.orc8r.as_mut(), self.queue.front()) else {
            return;
        };
        let id = client.call(ctx, &orc8r_proto::flows::METRICS_PUSH, front);
        self.outstanding = Some(id);
    }

    fn handle_rpc_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<RpcClientEvent>) {
        for ev in events {
            match ev {
                RpcClientEvent::Response { id, .. } => {
                    if self.outstanding == Some(id) {
                        self.outstanding = None;
                        self.queue.pop_front();
                        let m = self.metric("metricsd.push_ok");
                        ctx.registry().counter_add(&m, 1.0);
                        // The orchestrator acked the snapshot: semantic
                        // end of this push (label-guarded; the ack can
                        // arrive under an unrelated dispatch's trace).
                        ctx.trace_finish_as("metricsd_push");
                        self.flush(ctx);
                    }
                }
                RpcClientEvent::Failed { id, .. } => {
                    if self.outstanding == Some(id) {
                        // Keep the snapshot queued; the next sample tick
                        // (or reconnect) re-pushes it.
                        self.outstanding = None;
                        let m = self.metric("metricsd.push_fail");
                        ctx.registry().counter_add(&m, 1.0);
                    }
                }
                RpcClientEvent::Connected => self.flush(ctx),
                RpcClientEvent::Disconnected | RpcClientEvent::Push { .. } => {}
            }
        }
    }
}

impl Actor for MetricsdActor {
    fn dispatch(&self) -> Option<&'static magma_sim::Dispatch> {
        Some(&crate::flows::METRICSD_DISPATCH)
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                if let Some(ep) = self.cfg.orc8r {
                    self.orc8r =
                        Some(RpcClient::new(self.cfg.stack, ep, 1).with_deadline(ORC8R_DEADLINE));
                    ctx.send_self(&crate::flows::METRICSD_RPC_TICK, SimDuration::from_millis(250), T_RPC);
                }
                ctx.timer_in(METRICS_INTERVAL, T_SAMPLE);
            }
            Event::Timer { tag } => match tag {
                T_SAMPLE => {
                    self.sample_cpu(ctx);
                    // One push procedure per sample tick: serialization
                    // CPU, the RPC hop to the orchestrator, and the ack
                    // all record as hops. The tick itself re-arms via a
                    // raw `timer_in`, so the trace cannot chain into the
                    // next interval. Sampling-only daemons (no orc8r)
                    // never finish a push, so don't root one.
                    if self.orc8r.is_some() {
                        ctx.trace_start("metricsd_push");
                    }
                    // Serializing the snapshot costs control-plane CPU;
                    // the snapshot itself is taken when the job
                    // completes. A misconfigured core group degrades to
                    // an immediate (free) snapshot instead of killing
                    // the gateway.
                    let submitted = ctx.try_exec(
                        self.cfg.host,
                        &self.cfg.cp_group,
                        SNAPSHOT_COST,
                        C_SNAPSHOT,
                        Box::new(()),
                    );
                    if submitted.is_err() {
                        let m = self.metric("metricsd.exec_err");
                        ctx.registry().counter_add(&m, 1.0);
                        self.take_snapshot(ctx);
                    }
                    ctx.timer_in(METRICS_INTERVAL, T_SAMPLE);
                }
                T_RPC => {
                    if let Some(client) = self.orc8r.as_mut() {
                        let evs = client.on_tick(ctx);
                        self.handle_rpc_events(ctx, evs);
                    }
                    ctx.send_self(&crate::flows::METRICSD_RPC_TICK, SimDuration::from_millis(250), T_RPC);
                }
                _ => {}
            },
            Event::CpuDone { tag, .. } => {
                if tag == C_SNAPSHOT {
                    self.take_snapshot(ctx);
                }
            }
            Event::Msg { payload, .. } => {
                if let Ok(ev) = try_downcast::<SockEvent>(payload) {
                    if let Some(client) = self.orc8r.as_mut() {
                        if let Ok(events) = client.try_handle(ctx, ev) {
                            self.handle_rpc_events(ctx, events);
                        }
                    }
                }
            }
        }
    }

    fn name(&self) -> String {
        format!("{}-metricsd", self.cfg.id)
    }
}
