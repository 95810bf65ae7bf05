//! RPC client: unary calls with deadlines and transparent reconnection.
//!
//! The stream under the client is the one loss-recovery layer: it
//! retransmits on its own RTO and closes after its retry budget. So the
//! client never re-sends on an open stream — a second copy there could
//! reach nothing the first could not. A call is re-sent only when a new
//! stream opens after the old one closed; the flush then re-sends every
//! outstanding call in id order, because the server may or may not have
//! seen the original before the old stream died. A call that is not
//! answered by its deadline fails.
//!
//! A re-sent call can therefore reach the server twice, so each
//! receiver must make a repeat harmless. Desired-state calls are
//! harmless by construction (§3.4): a check-in re-asks for the changes
//! since a version, a bootstrap with the same hardware token gets the
//! cert already issued, and the orchestrator keeps a checkpoint only if
//! it is not older than the one it holds. Metrics pushes carry a
//! per-gateway sequence number the store dedupes on, and credit calls a
//! per-session request number the OCS answers once (RFC 4006 §8.2).

use crate::codec::{self, Framer};
use crate::msg::RpcKind;
use bytes::Bytes;
use magma_net::{flows, Endpoint, SockCmd, SockEvent, StreamHandle};
use magma_sim::{ActorId, Ctx, FlowKind, Role, SimDuration, SimTime};
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;

/// How long a call waits for its answer unless the client is built
/// [`with_deadline`](RpcClient::with_deadline).
const DEFAULT_DEADLINE: SimDuration = SimDuration::from_secs(18);

/// Events the client surfaces to its owning actor.
#[derive(Debug)]
pub enum RpcClientEvent {
    /// A call completed successfully.
    Response { id: u64, body: Value },
    /// A call failed permanently (deadline passed, or an application
    /// error from the server).
    Failed { id: u64, reason: String },
    /// A server-push frame arrived (desired-state sync stream).
    Push { stream_id: u64, method: String, body: Value },
    /// Transport (re)connected; outstanding calls were flushed.
    Connected,
    /// Transport dropped; client will reconnect on next call/tick.
    Disconnected,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ConnState {
    Idle,
    Opening,
    Open(StreamHandle),
}

struct Pending {
    method: &'static str,
    /// The encoded request. The id is fixed per call, so the reconnect
    /// flush puts these same bytes on the wire; it clones the handle.
    frame: Bytes,
    deadline: SimTime,
}

/// An RPC client bound to one server endpoint. Embed in an actor; forward
/// `SockEvent`s via [`try_handle`](RpcClient::try_handle) and arm a
/// periodic tick calling [`on_tick`](RpcClient::on_tick).
pub struct RpcClient {
    stack: ActorId,
    server: Endpoint,
    cookie: u64,
    /// How long after `call` an unanswered call fails.
    deadline: SimDuration,
    conn: ConnState,
    framer: Framer,
    next_id: u64,
    outstanding: BTreeMap<u64, Pending>,
}

impl RpcClient {
    /// `cookie` must be unique among helpers embedded in the same actor —
    /// it disambiguates `StreamOpened` events.
    pub fn new(stack: ActorId, server: Endpoint, cookie: u64) -> Self {
        RpcClient {
            stack,
            server,
            cookie,
            deadline: DEFAULT_DEADLINE,
            conn: ConnState::Idle,
            framer: Framer::new(),
            next_id: 1,
            outstanding: BTreeMap::new(),
        }
    }

    /// Fail each call that is not answered within `deadline` of `call`.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = deadline;
        self
    }

    pub fn server(&self) -> Endpoint {
        self.server
    }

    pub fn is_connected(&self) -> bool {
        matches!(self.conn, ConnState::Open(_))
    }

    fn ensure_conn(&mut self, ctx: &mut Ctx<'_>) {
        if self.conn == ConnState::Idle {
            self.conn = ConnState::Opening;
            let owner = ctx.id();
            ctx.send_to(
                self.stack,
                &flows::SOCK_CMD,
                Box::new(SockCmd::OpenStream {
                    peer: self.server,
                    owner,
                    user: self.cookie,
                }),
            );
        }
    }

    /// Issue a unary call. Returns the call id; the owner will receive a
    /// `Response` or `Failed` event for it later.
    ///
    /// The flow kind carries the wire method name and declares the edge's
    /// place in the message-flow graph (`docs/MESSAGE_FLOW.md`); every
    /// unary call must be a `Request`-role kind naming its timer in
    /// `retry` — the owner's tick, which expires the call's deadline and
    /// reconnects for it, and never re-sends (`magma_sim::flow::check`,
    /// rule F004, audits the declaration side).
    ///
    /// The body is encoded here, once; the reconnect flush re-sends the
    /// held frame.
    pub fn call(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: &'static FlowKind,
        body: impl Serialize,
    ) -> u64 {
        debug_assert!(
            kind.role == Role::Request && kind.retry.is_some(),
            "RPC calls must use a Request-role flow kind naming the timer that drives its deadline and reconnect, got {}",
            kind.name
        );
        let id = self.next_id;
        self.next_id += 1;
        let frame = {
            let _enc = ctx.profile_scope("rpc.encode");
            codec::encode(RpcKind::Request, id, kind.name, &body)
        };
        let pending = Pending {
            method: kind.name,
            frame,
            deadline: ctx.now() + self.deadline,
        };
        match self.conn {
            ConnState::Open(h) => send(ctx, self.stack, h, &pending),
            // The `StreamOpened` flush sends it.
            _ => self.ensure_conn(ctx),
        }
        self.outstanding.insert(id, pending);
        id
    }

    /// Offer a `SockEvent`; `Err` hands it back if it isn't ours.
    pub fn try_handle(
        &mut self,
        ctx: &mut Ctx<'_>,
        ev: SockEvent,
    ) -> Result<Vec<RpcClientEvent>, SockEvent> {
        match ev {
            SockEvent::StreamOpened { handle, user, .. } if user == self.cookie => {
                self.conn = ConnState::Open(handle);
                // The one re-send path: whatever the old stream carried
                // may never have reached the server.
                for p in self.outstanding.values() {
                    send(ctx, self.stack, handle, p);
                }
                Ok(vec![RpcClientEvent::Connected])
            }
            SockEvent::StreamRecv { handle, bytes }
                if self.conn == ConnState::Open(handle) =>
            {
                let decode = || ctx.profile_scope("rpc.decode");
                let frames = self.framer.push_with(&bytes, &mut None, decode);
                // On `StreamClosed`, outstanding calls are re-sent on a
                // fresh stream.
                self.framer.close_if_poisoned(ctx, self.stack, handle);
                let mut out = Vec::new();
                for f in frames {
                    match f.kind {
                        RpcKind::Response => {
                            if self.outstanding.remove(&f.id).is_some() {
                                out.push(RpcClientEvent::Response {
                                    id: f.id,
                                    body: f.body,
                                });
                            }
                        }
                        RpcKind::Error => {
                            if self.outstanding.remove(&f.id).is_some() {
                                out.push(RpcClientEvent::Failed {
                                    id: f.id,
                                    reason: f.body.as_str().unwrap_or("error").to_string(),
                                });
                            }
                        }
                        RpcKind::Push => out.push(RpcClientEvent::Push {
                            stream_id: f.id,
                            method: f.method,
                            body: f.body,
                        }),
                        RpcKind::Request => {} // clients don't serve
                    }
                }
                Ok(out)
            }
            SockEvent::StreamClosed { handle, .. }
                if self.conn == ConnState::Open(handle) =>
            {
                self.conn = ConnState::Idle;
                self.framer = Framer::new();
                // The next tick reconnects if calls are outstanding.
                Ok(vec![RpcClientEvent::Disconnected])
            }
            other => Err(other),
        }
    }

    /// Periodic maintenance: fail calls past their deadline, and reconnect
    /// while calls are outstanding. The owner should call this every few
    /// hundred milliseconds.
    pub fn on_tick(&mut self, ctx: &mut Ctx<'_>) -> Vec<RpcClientEvent> {
        let now = ctx.now();
        let mut out = Vec::new();
        self.outstanding.retain(|&id, p| {
            let live = now < p.deadline;
            if !live {
                out.push(RpcClientEvent::Failed {
                    id,
                    reason: "deadline exceeded".to_string(),
                });
            }
            live
        });
        if !self.outstanding.is_empty() {
            self.ensure_conn(ctx);
        }
        out
    }
}

/// Hand one call's held frame to the stream.
fn send(ctx: &mut Ctx<'_>, stack: ActorId, handle: StreamHandle, p: &Pending) {
    // The method rides inside the stream payload, so it is counted here,
    // once per send.
    ctx.count_rpc(p.method, p.frame.len());
    let bytes = p.frame.clone();
    ctx.send_to(
        stack,
        &flows::SOCK_CMD,
        Box::new(SockCmd::StreamSend { handle, bytes }),
    );
}
