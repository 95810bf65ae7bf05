//! The orchestrator actor: serves the southbound RPC interface and pushes
//! desired state to connected gateways — what changed since the version
//! each is known to hold, or everything when that is not known
//! ([`SubscriberDb::sync_since`](magma_subscriber::SubscriberDb::sync_since)).
//!
//! CPU on the orchestrator is deliberately not modeled: the paper's
//! evaluation notes "all machines in the orchestrator deployment were
//! running well under capacity" — the interesting contention is at AGWs.

use crate::proto::*;
use crate::state::Orc8rHandle;
use magma_net::{SockEvent, StreamHandle};
use magma_rpc::{RpcServer, RpcServerEvent};
use magma_sim::{downcast, flow_dispatch, Actor, ActorId, Ctx, Event, SimDuration};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;

const TICK: SimDuration = SimDuration(500_000); // 500ms push cadence

flow_dispatch! {
    /// The orchestrator's ingress surface: socket events from its local
    /// stack plus every southbound RPC method. Same-timestamp requests
    /// from different gateways commute — all per-gateway state (certs,
    /// check-in records, metric stores) is keyed by `agw_id`/connection.
    pub const ORC8R_DISPATCH: actor = "orc8r",
    accepts = [
        magma_net::flows::SOCK_EVENT,
        flows::BOOTSTRAP,
        flows::CHECKIN,
        flows::CHECKPOINT,
        flows::CREDIT_REQUEST,
        flows::CREDIT_REPORT,
        flows::METRICS_PUSH,
    ],
    tie_break = Some("sender agw_id / stream handle (per-gateway state is disjoint)"),
}

/// The orchestrator service actor.
pub struct Orc8rActor {
    state: Orc8rHandle,
    server: RpcServer,
    /// Per connection, the config version the gateway on it holds, once
    /// a check-in has said so: what it reported, then what it was sent.
    conns: BTreeMap<StreamHandle, Option<u64>>,
}

impl Orc8rActor {
    pub fn new(state: Orc8rHandle, stack: ActorId, port: u16) -> Self {
        Orc8rActor {
            state,
            server: RpcServer::new(stack, port),
            conns: BTreeMap::new(),
        }
    }

    fn handle_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: StreamHandle,
        id: u64,
        method: String,
        body: serde_json::Value,
    ) {
        let now = ctx.now();
        match method.as_str() {
            methods::BOOTSTRAP => {
                let Ok(req) = serde_json::from_value::<BootstrapRequest>(body) else {
                    self.server.reply_err(ctx, conn, id, &flows::ORC8R_REPLY, "bad bootstrap request");
                    return;
                };
                let cert = self.state.borrow_mut().bootstrap(&req.agw_id, req.hw_token);
                self.server
                    .reply(ctx, conn, id, &flows::ORC8R_REPLY, BootstrapResponse { cert });
            }
            methods::CHECKIN => {
                let Ok(req) = serde_json::from_value::<CheckinRequest>(body) else {
                    self.server.reply_err(ctx, conn, id, &flows::ORC8R_REPLY, "bad checkin request");
                    return;
                };
                let mut st = self.state.borrow_mut();
                let ok = st.record_checkin(
                    &req.agw_id,
                    req.cert,
                    req.db_version,
                    req.enbs,
                    req.active_sessions,
                    req.metrics,
                    now,
                );
                if !ok {
                    drop(st);
                    self.server.reply_err(ctx, conn, id, &flows::ORC8R_REPLY, "unregistered gateway");
                    return;
                }
                let latest = st.db.version;
                let resp = CheckinResponse {
                    latest_version: latest,
                    sync: st.db.sync_since(req.db_version),
                    checkin_interval_s: CHECKIN_INTERVAL.as_secs_f64() as u64,
                };
                // The reply brings the replica to `latest`, so pushes on
                // this connection start from there.
                if let Some(held) = self.conns.get_mut(&conn) {
                    *held = Some(latest.max(req.db_version));
                }
                drop(st);
                ctx.registry().counter_add("orc8r.checkins", 1.0);
                self.server.reply(ctx, conn, id, &flows::ORC8R_REPLY, resp);
            }
            methods::CHECKPOINT => {
                let Ok(req) = serde_json::from_value::<CheckpointPush>(body) else {
                    self.server.reply_err(ctx, conn, id, &flows::ORC8R_REPLY, "bad checkpoint");
                    return;
                };
                let displaced = self
                    .state
                    .borrow_mut()
                    .store_checkpoint(&req.agw_id, req.state);
                if let Some(state) = displaced {
                    // The next upload is parsed into the tree it displaces.
                    let body = Map::from([
                        ("agw_id".to_string(), Value::String(req.agw_id)),
                        ("state".to_string(), state),
                    ]);
                    self.server
                        .recycle(methods::CHECKPOINT, Value::Object(body));
                }
                self.server.reply(ctx, conn, id, &flows::ORC8R_REPLY, json!({}));
            }
            methods::CREDIT_REQUEST => {
                let Ok(req) = serde_json::from_value::<CreditRequest>(body) else {
                    self.server.reply_err(ctx, conn, id, &flows::ORC8R_REPLY, "bad credit request");
                    return;
                };
                let session = magma_policy::CreditSession {
                    started_us: req.session_started_us,
                    id: req.session_id,
                };
                let answer = self.state.borrow_mut().ocs.request_credit_once(
                    magma_wire::Imsi(req.imsi),
                    session,
                    req.request_number,
                );
                let resp = match answer {
                    magma_policy::CreditAnswer::Granted { bytes, is_final } => CreditResponse {
                        granted: bytes,
                        is_final,
                        denied: false,
                    },
                    magma_policy::CreditAnswer::Denied => CreditResponse {
                        granted: 0,
                        is_final: true,
                        denied: true,
                    },
                };
                self.server.reply(ctx, conn, id, &flows::ORC8R_REPLY, resp);
            }
            methods::CREDIT_REPORT => {
                let Ok(req) = serde_json::from_value::<CreditReport>(body) else {
                    self.server.reply_err(ctx, conn, id, &flows::ORC8R_REPLY, "bad credit report");
                    return;
                };
                let session = magma_policy::CreditSession {
                    started_us: req.session_started_us,
                    id: req.session_id,
                };
                self.state.borrow_mut().ocs.report_usage_once(
                    magma_wire::Imsi(req.imsi),
                    session,
                    req.used_bytes,
                );
                self.server.reply(ctx, conn, id, &flows::ORC8R_REPLY, json!({}));
            }
            methods::METRICS_PUSH => {
                let Ok(req) = serde_json::from_value::<MetricsPush>(body) else {
                    self.server.reply_err(ctx, conn, id, &flows::ORC8R_REPLY, "bad metrics push");
                    return;
                };
                let (accepted, last_seq) = {
                    let mut st = self.state.borrow_mut();
                    let taken_at = magma_sim::SimTime(req.taken_at_us);
                    let accepted = st.metrics_store.ingest(
                        &req.agw_id,
                        req.seq,
                        taken_at,
                        req.snapshot,
                        req.events,
                    );
                    if accepted {
                        // Gateway-metric rules run on the sample's own
                        // clock, so drained backlogs replay faithfully.
                        st.evaluate_alert_rules_on_ingest(&req.agw_id, taken_at);
                    }
                    let last_seq = st
                        .metrics_store
                        .gateway(&req.agw_id)
                        .map(|g| g.last_seq)
                        .unwrap_or(0);
                    (accepted, last_seq)
                };
                self.server
                    .reply(ctx, conn, id, &flows::ORC8R_REPLY, MetricsAck { accepted, last_seq });
            }
            other => {
                self.server
                    .reply_err(ctx, conn, id, &flows::ORC8R_REPLY, &format!("unknown method {other}"));
            }
        }
    }

    /// Push to every connected gateway whose replica is stale what brings
    /// it current (desired-state push, complementing the pull at
    /// check-in): one body, encoded once, per version the stale gateways
    /// hold — normally one, since they were all pushed the last write.
    fn push_stale(&mut self, ctx: &mut Ctx<'_>) {
        let state = self.state.borrow();
        let version = state.db.version;
        let mut by_held: BTreeMap<u64, Vec<StreamHandle>> = BTreeMap::new();
        for (conn, held) in &self.conns {
            if let Some(held) = held {
                by_held.entry(*held).or_default().push(*conn);
            }
        }
        for (held, conns) in by_held {
            let Some(sync) = state.db.sync_since(held) else {
                continue;
            };
            // The stream id is the version pushed to, so every gateway in
            // the group gets the same bytes.
            let pushed = self
                .server
                .push(ctx, &conns, version, &flows::PUSH_SUBSCRIBERS, &sync);
            for conn in pushed {
                self.conns.insert(conn, Some(version));
                ctx.registry().counter_add("orc8r.pushes", 1.0);
            }
        }
    }
}

impl Actor for Orc8rActor {
    fn dispatch(&self) -> Option<&'static magma_sim::Dispatch> {
        Some(&ORC8R_DISPATCH)
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                self.server.listen(ctx);
                ctx.timer_in(TICK, 1);
                ctx.timer_in(METRICS_INTERVAL, 2);
            }
            Event::Timer { tag: 1 } => {
                self.push_stale(ctx);
                ctx.timer_in(TICK, 1);
            }
            Event::Timer { tag: 2 } => {
                let now = ctx.now();
                self.state.borrow_mut().sample_fleet(now);
                ctx.timer_in(METRICS_INTERVAL, 2);
            }
            Event::Timer { .. } => {}
            Event::Msg { payload, .. } => {
                let ev = downcast::<SockEvent>(payload, "orc8r");
                match self.server.try_handle(ctx, ev) {
                    Ok(events) => {
                        for e in events {
                            match e {
                                RpcServerEvent::Request {
                                    conn,
                                    id,
                                    method,
                                    body,
                                } => self.handle_request(ctx, conn, id, method, body),
                                RpcServerEvent::ClientConnected { conn } => {
                                    self.conns.insert(conn, None);
                                }
                                RpcServerEvent::ClientGone { conn } => {
                                    self.conns.remove(&conn);
                                }
                            }
                        }
                    }
                    Err(_other) => {}
                }
            }
            Event::CpuDone { .. } => {}
        }
    }

    fn name(&self) -> String {
        "orc8r".to_string()
    }
}
