//! RPC server: accepts connections on a port, surfaces requests to the
//! owning actor, and sends responses / push frames back.
//!
//! The accepted streams live in a `magma_net::Acceptor`, which frames
//! them, closes one on a hostile length prefix and forgets it once
//! closed. Each carries the owner's per-connection state `T` (the
//! orchestrator's is the replica version the gateway holds), created
//! with `T::default()` on accept.

use crate::codec::{self, Spare, MAX_FRAME_LEN};
use crate::msg::RpcKind;
use bytes::Bytes;
use magma_net::{flows, Acceptor, Edge, SockEvent, StreamHandle};
use magma_sim::{ActorId, Ctx, FlowKind, Role};
use serde::Serialize;
use serde_json::Value;

/// A unary request for the owning actor to answer via
/// [`RpcServer::reply`] / [`RpcServer::reply_err`].
#[derive(Debug)]
pub struct RpcRequest {
    pub conn: StreamHandle,
    pub id: u64,
    pub method: String,
    pub body: Value,
}

/// An RPC server bound to one listening port, holding a `T` per client
/// connection. Embed in an actor and forward `SockEvent`s through
/// [`try_handle`](RpcServer::try_handle).
pub struct RpcServer<T = ()> {
    port: u16,
    conns: Acceptor<MAX_FRAME_LEN, T>,
    /// One body tree, for the next request whose method it names.
    spare: Option<Spare>,
}

impl<T: Default> RpcServer<T> {
    pub fn new(stack: ActorId, port: u16) -> Self {
        RpcServer {
            port,
            conns: Acceptor::new(stack),
            spare: None,
        }
    }

    /// Register the listening port; call from the owner's `Start` event.
    pub fn listen(&self, ctx: &mut Ctx<'_>) {
        self.conns.listen(ctx, self.port);
    }

    pub fn port(&self) -> u16 {
        self.port
    }

    /// The live client connections and their state, in handle order.
    pub fn conns(&self) -> impl Iterator<Item = (StreamHandle, &T)> {
        self.conns.iter()
    }

    /// The state of a live connection.
    pub fn conn_mut(&mut self, conn: StreamHandle) -> Option<&mut T> {
        self.conns.get_mut(conn)
    }

    /// Offer a `SockEvent`; `Err` hands it back if it isn't ours.
    pub fn try_handle(
        &mut self,
        ctx: &mut Ctx<'_>,
        ev: SockEvent,
    ) -> Result<Vec<RpcRequest>, SockEvent> {
        let port = self.port;
        let spare = &mut self.spare;
        let mut out = Vec::new();
        let edge = self.conns.on_event(
            ctx,
            ev,
            |local_port, _| (local_port == port).then(T::default),
            |ctx, text| {
                let _decode = ctx.profile_scope("rpc.decode");
                out.extend(codec::parse(text, spare).filter(|f| f.kind == RpcKind::Request));
            },
        )?;
        Ok(match edge {
            Edge::Recv(conn) => out
                .into_iter()
                .map(|f| RpcRequest {
                    conn,
                    id: f.id,
                    method: f.method,
                    body: f.body,
                })
                .collect(),
            Edge::Opened(_) | Edge::Closed(..) => Vec::new(),
        })
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
            .filter(|&c| self.conns.get(c).is_some())
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
        self.conns.send(ctx, conn, &flows::SOCK_CMD, bytes);
    }
}
