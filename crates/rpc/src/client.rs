//! RPC client: unary calls with deadlines, retries, and transparent
//! reconnection.
//!
//! Retrying is safe because Magma's interfaces use desired-state semantics
//! (§3.4): re-sending "the set of sessions is X, Y, Z" is idempotent. The
//! client therefore retries aggressively across connection failures, which
//! is what keeps the control plane usable over satellite-grade backhaul.

use crate::codec::{self, Framer};
use crate::msg::RpcKind;
use bytes::Bytes;
use magma_net::{flows, Endpoint, SockCmd, SockEvent, StreamHandle};
use magma_sim::{ActorId, Ctx, FlowKind, Role, SimDuration, SimTime};
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;

/// Events the client surfaces to its owning actor.
#[derive(Debug)]
pub enum RpcClientEvent {
    /// A call completed successfully.
    Response { id: u64, body: Value },
    /// A call failed permanently (deadline + retries exhausted, or an
    /// application error from the server).
    Failed { id: u64, reason: String },
    /// A server-push frame arrived (desired-state sync stream).
    Push { stream_id: u64, method: String, body: Value },
    /// Transport (re)connected; queued calls were flushed.
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
    /// The encoded request. The id is fixed per call, so every attempt
    /// puts these same bytes on the wire; a retry clones the handle.
    frame: Bytes,
    deadline: SimTime,
    retries_left: u32,
    per_try: SimDuration,
    next_retry: SimTime,
}

/// Client configuration.
#[derive(Debug, Clone, Copy)]
pub struct RpcClientConfig {
    /// Per-attempt timeout before a retry.
    pub per_try_timeout: SimDuration,
    /// Total retries after the first attempt.
    pub max_retries: u32,
    /// Overall deadline per call.
    pub total_timeout: SimDuration,
}

impl Default for RpcClientConfig {
    fn default() -> Self {
        RpcClientConfig {
            per_try_timeout: SimDuration::from_secs(3),
            max_retries: 5,
            total_timeout: SimDuration::from_secs(30),
        }
    }
}

/// An RPC client bound to one server endpoint. Embed in an actor; forward
/// `SockEvent`s via [`try_handle`](RpcClient::try_handle) and arm a
/// periodic tick calling [`on_tick`](RpcClient::on_tick).
pub struct RpcClient {
    stack: ActorId,
    server: Endpoint,
    cookie: u64,
    cfg: RpcClientConfig,
    conn: ConnState,
    framer: Framer,
    next_id: u64,
    outstanding: BTreeMap<u64, Pending>,
    /// Calls issued while disconnected, flushed on connect (ids).
    unsent: Vec<u64>,
    pub calls_sent: u64,
    pub retries: u64,
}

impl RpcClient {
    /// `cookie` must be unique among helpers embedded in the same actor —
    /// it disambiguates `StreamOpened` events.
    pub fn new(stack: ActorId, server: Endpoint, cookie: u64) -> Self {
        RpcClient {
            stack,
            server,
            cookie,
            cfg: RpcClientConfig::default(),
            conn: ConnState::Idle,
            framer: Framer::new(),
            next_id: 1,
            outstanding: BTreeMap::new(),
            unsent: Vec::new(),
            calls_sent: 0,
            retries: 0,
        }
    }

    pub fn with_config(mut self, cfg: RpcClientConfig) -> Self {
        self.cfg = cfg;
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
    /// unary call must be a `Request`-role kind with a registered retry
    /// timer, which is exactly what the client's deadline/retry machinery
    /// provides (lint rule F004 audits the declaration side).
    ///
    /// The body is encoded here, once; retries and the reconnect flush
    /// re-send the held frame.
    pub fn call(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: &'static FlowKind,
        body: impl Serialize,
    ) -> u64 {
        debug_assert!(
            kind.role == Role::Request && kind.retry.is_some(),
            "RPC calls must use a Request-role flow kind with a retry edge, got {}",
            kind.name
        );
        let id = self.next_id;
        self.next_id += 1;
        let now = ctx.now();
        let frame = {
            let _enc = ctx.profile_scope("rpc.encode");
            codec::encode(RpcKind::Request, id, kind.name, &body)
        };
        self.outstanding.insert(
            id,
            Pending {
                method: kind.name,
                frame,
                deadline: now + self.cfg.total_timeout,
                retries_left: self.cfg.max_retries,
                per_try: self.cfg.per_try_timeout,
                next_retry: now + self.cfg.per_try_timeout,
            },
        );
        self.ensure_conn(ctx);
        if let ConnState::Open(h) = self.conn {
            self.transmit(ctx, h, id);
        } else {
            self.unsent.push(id);
        }
        id
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_>, handle: StreamHandle, id: u64) {
        let Some(p) = self.outstanding.get(&id) else {
            return;
        };
        self.calls_sent += 1;
        let bytes = p.frame.clone();
        // The method rides inside the stream payload, so it is counted
        // here, once per send.
        ctx.count_rpc(p.method, bytes.len());
        ctx.send_to(
            self.stack,
            &flows::SOCK_CMD,
            Box::new(SockCmd::StreamSend { handle, bytes }),
        );
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
                let ids = std::mem::take(&mut self.unsent);
                for id in ids {
                    self.transmit(ctx, handle, id);
                }
                Ok(vec![RpcClientEvent::Connected])
            }
            SockEvent::StreamRecv { handle, bytes }
                if self.conn == ConnState::Open(handle) =>
            {
                let decode = || ctx.profile_scope("rpc.decode");
                let frames = self.framer.push_with(&bytes, &mut None, decode);
                if self.framer.is_poisoned() {
                    // Framing is lost for good; the close comes back as
                    // `StreamClosed` and outstanding calls retry on a
                    // fresh stream.
                    ctx.send_to(
                        self.stack,
                        &flows::SOCK_CMD,
                        Box::new(SockCmd::StreamClose { handle }),
                    );
                }
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
                // Outstanding calls will be re-sent on reconnect via tick.
                Ok(vec![RpcClientEvent::Disconnected])
            }
            other => Err(other),
        }
    }

    /// Periodic maintenance: expire deadlines, retry slow calls, reconnect.
    /// The owner should call this every few hundred milliseconds while
    /// calls are outstanding.
    pub fn on_tick(&mut self, ctx: &mut Ctx<'_>) -> Vec<RpcClientEvent> {
        let now = ctx.now();
        let mut out = Vec::new();
        let mut to_retry = Vec::new();
        let mut to_fail = Vec::new();
        for (&id, p) in self.outstanding.iter_mut() {
            if now >= p.deadline || (now >= p.next_retry && p.retries_left == 0) {
                to_fail.push(id);
            } else if now >= p.next_retry {
                p.retries_left -= 1;
                p.next_retry = now + p.per_try;
                to_retry.push(id);
            }
        }
        for id in to_fail {
            self.outstanding.remove(&id);
            out.push(RpcClientEvent::Failed {
                id,
                reason: "deadline exceeded".to_string(),
            });
        }
        if !to_retry.is_empty() {
            self.retries += to_retry.len() as u64;
            self.ensure_conn(ctx);
            if let ConnState::Open(h) = self.conn {
                for id in to_retry {
                    self.transmit(ctx, h, id);
                }
            } else {
                for id in to_retry {
                    if !self.unsent.contains(&id) {
                        self.unsent.push(id);
                    }
                }
            }
        }
        out
    }
}
