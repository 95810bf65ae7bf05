//! RPC server: accepts connections on a port, surfaces requests to the
//! owning actor, and sends responses / push frames back.

use crate::codec::{self, Framer, Spare};
use crate::msg::RpcKind;
use bytes::Bytes;
use magma_net::{flows, SockCmd, SockEvent, StreamHandle};
use magma_sim::{ActorId, Ctx, FlowKind, Role};
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;

/// Events the server surfaces to its owning actor.
#[derive(Debug)]
pub enum RpcServerEvent {
    /// A unary request to answer via [`RpcServer::reply`] /
    /// [`RpcServer::reply_err`].
    Request {
        conn: StreamHandle,
        id: u64,
        method: String,
        body: Value,
    },
    /// A client connected (useful for push-stream registration).
    ClientConnected { conn: StreamHandle },
    /// A client connection went away; any push streams to it are dead.
    ClientGone { conn: StreamHandle },
}

/// An RPC server bound to one listening port. Embed in an actor and
/// forward `SockEvent`s through [`try_handle`](RpcServer::try_handle).
pub struct RpcServer {
    stack: ActorId,
    port: u16,
    conns: BTreeMap<StreamHandle, Framer>,
    /// One body tree, for the next request whose method it names.
    spare: Option<Spare>,
    pub requests_served: u64,
}

impl RpcServer {
    pub fn new(stack: ActorId, port: u16) -> Self {
        RpcServer {
            stack,
            port,
            conns: BTreeMap::new(),
            spare: None,
            requests_served: 0,
        }
    }

    /// Register the listening port; call from the owner's `Start` event.
    pub fn listen(&mut self, ctx: &mut Ctx<'_>) {
        let owner = ctx.id();
        ctx.send_to(
            self.stack,
            &flows::SOCK_CMD,
            Box::new(SockCmd::ListenStream {
                port: self.port,
                owner,
            }),
        );
    }

    pub fn port(&self) -> u16 {
        self.port
    }

    /// Offer a `SockEvent`; `Err` hands it back if it isn't ours.
    pub fn try_handle(
        &mut self,
        ctx: &mut Ctx<'_>,
        ev: SockEvent,
    ) -> Result<Vec<RpcServerEvent>, SockEvent> {
        match ev {
            SockEvent::StreamAccepted {
                handle, local_port, ..
            } if local_port == self.port => {
                self.conns.insert(handle, Framer::new());
                Ok(vec![RpcServerEvent::ClientConnected { conn: handle }])
            }
            SockEvent::StreamRecv { handle, bytes } if self.conns.contains_key(&handle) => {
                let mut out = Vec::new();
                if let Some(framer) = self.conns.get_mut(&handle) {
                    let decode = || ctx.profile_scope("rpc.decode");
                    for f in framer.push_with(&bytes, &mut self.spare, decode) {
                        if f.kind == RpcKind::Request {
                            out.push(RpcServerEvent::Request {
                                conn: handle,
                                id: f.id,
                                method: f.method,
                                body: f.body,
                            });
                        }
                    }
                    framer.close_if_poisoned(ctx, self.stack, handle);
                }
                self.requests_served += out.len() as u64;
                Ok(out)
            }
            SockEvent::StreamClosed { handle, .. } if self.conns.contains_key(&handle) => {
                self.conns.remove(&handle);
                Ok(vec![RpcServerEvent::ClientGone { conn: handle }])
            }
            other => Err(other),
        }
    }

    /// Send a successful response. The flow kind declares the reply edge
    /// in the message-flow graph; it must be `Response`-role (responses
    /// are demand-bounded and excluded from zero-delay cycle analysis).
    pub fn reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: StreamHandle,
        id: u64,
        kind: &'static FlowKind,
        body: impl Serialize,
    ) {
        debug_assert!(
            kind.role == Role::Response,
            "RPC replies must use a Response-role flow kind, got {}",
            kind.name
        );
        let frame = Self::encode(ctx, RpcKind::Response, id, "", &body);
        self.send_frame(ctx, conn, kind, frame);
    }

    /// Send an application error (same `Response` edge as [`reply`](Self::reply)).
    pub fn reply_err(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: StreamHandle,
        id: u64,
        kind: &'static FlowKind,
        msg: &str,
    ) {
        debug_assert!(
            kind.role == Role::Response,
            "RPC replies must use a Response-role flow kind, got {}",
            kind.name
        );
        let frame = Self::encode(ctx, RpcKind::Error, id, "", msg);
        self.send_frame(ctx, conn, kind, frame);
    }

    /// Push one unsolicited frame (desired-state sync) to each listed
    /// client that is still connected; the kind's name is the wire
    /// method. The frame is encoded once, however many clients take it —
    /// the stream id is the caller's, so their frames are the same bytes.
    /// Returns the connections it was sent to.
    pub fn push(
        &mut self,
        ctx: &mut Ctx<'_>,
        conns: &[StreamHandle],
        stream_id: u64,
        kind: &'static FlowKind,
        body: impl Serialize,
    ) -> Vec<StreamHandle> {
        let live: Vec<StreamHandle> = conns
            .iter()
            .copied()
            .filter(|c| self.conns.contains_key(c))
            .collect();
        if !live.is_empty() {
            let frame = Self::encode(ctx, RpcKind::Push, stream_id, kind.name, &body);
            for &conn in &live {
                self.send_frame(ctx, conn, kind, frame.clone());
            }
        }
        live
    }

    /// Hand back a spent `method` request body: the next such request is
    /// parsed into its tree. Only the latest one handed back is kept.
    pub fn recycle(&mut self, method: &'static str, body: Value) {
        self.spare = Some(Spare { method, body });
    }

    /// Handles of all live client connections.
    pub fn clients(&self) -> impl Iterator<Item = StreamHandle> + '_ {
        self.conns.keys().copied()
    }

    fn encode<B: Serialize + ?Sized>(
        ctx: &mut Ctx<'_>,
        kind: RpcKind,
        id: u64,
        method: &str,
        body: &B,
    ) -> Bytes {
        let _enc = ctx.profile_scope("rpc.encode");
        codec::encode(kind, id, method, body)
    }

    fn send_frame(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: StreamHandle,
        kind: &'static FlowKind,
        bytes: Bytes,
    ) {
        // Replies and pushes ride inside the stream payload, so they
        // are counted here, once per send.
        ctx.count_rpc(kind.name, bytes.len());
        ctx.send_to(
            self.stack,
            &flows::SOCK_CMD,
            Box::new(SockCmd::StreamSend {
                handle: conn,
                bytes,
            }),
        );
    }
}
