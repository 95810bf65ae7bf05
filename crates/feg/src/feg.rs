//! The Federation Gateway: terminates Magma's internal RPC on one side
//! and 3GPP Diameter toward the MNO core on the other (§3.6).
//!
//! Unlike AGWs, the FeG is a centralized element: traditional MNOs
//! require a single point of interconnection with "extension" networks.
//! All AGWs' federation traffic funnels through it.

use magma_net::{lp_encode, ports, Endpoint, LpFramer, SockCmd, SockEvent, StreamHandle};
use magma_orc8r::proto::{self as proto, FegAuthRequest, FegAuthResponse, FegVector};
use magma_rpc::{RpcServer, RpcServerEvent};
use crate::flows;
use magma_sim::{downcast, Actor, ActorId, Ctx, Event, SimDuration, SimTime};
use magma_wire::diameter::{DiameterPacket, ResultCode, S6aMessage};
use magma_wire::Imsi;
use std::collections::BTreeMap;

/// A pending proxied request: the AGW-side RPC to answer when the MNO
/// responds.
struct PendingProxy {
    conn: StreamHandle,
    rpc_id: u64,
    /// When the proxy was sent; swept by the S6a expiry tick.
    at: SimTime,
}

const T_S6A: u64 = 1;
/// How long an S6a request may stay unanswered before the FeG gives up
/// and errors the waiting AGW (whose own RPC retry then kicks in).
const S6A_TIMEOUT: SimDuration = SimDuration(10_000_000); // 10s
const S6A_TICK: SimDuration = SimDuration(3_000_000); // 3s

/// The FeG actor.
pub struct FegActor {
    stack: ActorId,
    server: RpcServer,
    mno: Endpoint,
    mno_conn: Option<StreamHandle>,
    mno_framer: LpFramer,
    next_hbh: u32,
    pending: BTreeMap<u32, PendingProxy>,
    tick_armed: bool,
    /// Requests queued while the Diameter connection establishes.
    queued: Vec<(StreamHandle, u64, DiameterPacket)>,
    pub proxied: u64,
}

impl FegActor {
    pub fn new(stack: ActorId, mno: Endpoint) -> Self {
        FegActor {
            stack,
            server: RpcServer::new(stack, ports::FEG),
            mno,
            mno_conn: None,
            mno_framer: LpFramer::new(),
            next_hbh: 1,
            pending: BTreeMap::new(),
            tick_armed: false,
            queued: Vec::new(),
            proxied: 0,
        }
    }

    fn open_mno(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        ctx.send_to(
            self.stack,
            &magma_net::flows::SOCK_CMD,
            Box::new(SockCmd::OpenStream {
                peer: self.mno,
                owner: me,
                user: 77,
            }),
        );
    }

    fn send_diameter(&mut self, ctx: &mut Ctx<'_>, pkt: &DiameterPacket) {
        if let Some(conn) = self.mno_conn {
            ctx.send_to(
                self.stack,
                &flows::FEG_S6A_REQUEST,
                Box::new(SockCmd::StreamSend {
                    handle: conn,
                    bytes: lp_encode(&pkt.encode()),
                }),
            );
        }
    }

    fn proxy(&mut self, ctx: &mut Ctx<'_>, conn: StreamHandle, rpc_id: u64, msg: S6aMessage) {
        let hbh = self.next_hbh;
        self.next_hbh += 1;
        let pkt = DiameterPacket {
            hop_by_hop: hbh,
            end_to_end: hbh,
            message: msg,
        };
        let at = ctx.now();
        self.pending.insert(hbh, PendingProxy { conn, rpc_id, at });
        self.proxied += 1;
        if !self.tick_armed {
            self.tick_armed = true;
            ctx.send_self(&flows::FEG_S6A_TICK, S6A_TICK, T_S6A);
        }
        if self.mno_conn.is_some() {
            self.send_diameter(ctx, &pkt);
        } else {
            self.queued.push((conn, rpc_id, pkt));
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
        match method.as_str() {
            proto::methods::FEG_AUTH => {
                let Ok(req) = serde_json::from_value::<FegAuthRequest>(body) else {
                    self.server.reply_err(ctx, conn, id, &proto::flows::FEG_REPLY, "bad feg auth request");
                    return;
                };
                self.proxy(
                    ctx,
                    conn,
                    id,
                    S6aMessage::AuthInfoRequest {
                        imsi: Imsi(req.imsi),
                        num_vectors: 1,
                    },
                );
            }
            proto::methods::FEG_UPDATE_LOCATION => {
                let Ok(req) = serde_json::from_value::<proto::FegLocationRequest>(body) else {
                    self.server.reply_err(ctx, conn, id, &proto::flows::FEG_REPLY, "bad feg location request");
                    return;
                };
                // Serving-node id derived from the gateway id hash.
                let node = req.agw_id.bytes().map(|b| b as u32).sum::<u32>();
                self.proxy(
                    ctx,
                    conn,
                    id,
                    S6aMessage::UpdateLocationRequest {
                        imsi: Imsi(req.imsi),
                        serving_node: node,
                    },
                );
            }
            other => self
                .server
                .reply_err(ctx, conn, id, &proto::flows::FEG_REPLY, &format!("unknown method {other}")),
        }
    }

    fn handle_diameter_answer(&mut self, ctx: &mut Ctx<'_>, pkt: DiameterPacket) {
        let Some(p) = self.pending.remove(&pkt.hop_by_hop) else {
            return;
        };
        match pkt.message {
            S6aMessage::AuthInfoAnswer { result, vectors } => {
                if result == ResultCode::Success {
                    let resp = FegAuthResponse {
                        vectors: vectors
                            .into_iter()
                            .map(|v| FegVector {
                                rand: v.rand,
                                autn: v.autn,
                                xres: v.xres,
                                kasme: v.kasme,
                            })
                            .collect(),
                    };
                    self.server.reply(ctx, p.conn, p.rpc_id, &proto::flows::FEG_REPLY, resp);
                } else {
                    self.server
                        .reply_err(ctx, p.conn, p.rpc_id, &proto::flows::FEG_REPLY, "subscriber unknown at MNO");
                }
            }
            S6aMessage::UpdateLocationAnswer {
                result,
                ambr_dl_kbps,
                ambr_ul_kbps,
            } => {
                let resp = proto::FegLocationResponse {
                    ok: result == ResultCode::Success,
                    ambr_dl_kbps,
                    ambr_ul_kbps,
                };
                self.server.reply(ctx, p.conn, p.rpc_id, &proto::flows::FEG_REPLY, resp);
            }
            _ => {
                self.server.reply_err(ctx, p.conn, p.rpc_id, &proto::flows::FEG_REPLY, "unexpected answer");
            }
        }
    }
}

impl Actor for FegActor {
    fn dispatch(&self) -> Option<&'static magma_sim::Dispatch> {
        Some(&crate::flows::FEG_DISPATCH)
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                self.server.listen(ctx);
                self.open_mno(ctx);
            }
            Event::Msg { payload, .. } => {
                let ev = downcast::<SockEvent>(payload, "feg");
                // Diameter client connection events first.
                match ev {
                    SockEvent::StreamOpened { handle, user: 77, .. } => {
                        self.mno_conn = Some(handle);
                        let queued = std::mem::take(&mut self.queued);
                        for (_conn, _id, pkt) in queued {
                            self.send_diameter(ctx, &pkt);
                        }
                    }
                    SockEvent::StreamRecv { handle, bytes }
                        if Some(handle) == self.mno_conn =>
                    {
                        let msgs = self.mno_framer.push(&bytes);
                        self.mno_framer.close_if_poisoned(ctx, self.stack, handle);
                        for m in msgs {
                            if let Ok(pkt) = DiameterPacket::decode(&m) {
                                self.handle_diameter_answer(ctx, pkt);
                            }
                        }
                    }
                    SockEvent::StreamClosed { handle, .. }
                        if Some(handle) == self.mno_conn =>
                    {
                        self.mno_conn = None;
                        self.mno_framer = LpFramer::new();
                        // Fail all pending proxies: the AGWs will retry.
                        let pending = std::mem::take(&mut self.pending);
                        for (_, p) in pending {
                            self.server
                                .reply_err(ctx, p.conn, p.rpc_id, &proto::flows::FEG_REPLY, "mno unreachable");
                        }
                        self.open_mno(ctx);
                    }
                    other => {
                        if let Ok(events) = self.server.try_handle(ctx, other) {
                            for e in events {
                                if let RpcServerEvent::Request {
                                    conn,
                                    id,
                                    method,
                                    body,
                                } = e
                                {
                                    self.handle_request(ctx, conn, id, method, body);
                                }
                            }
                        }
                    }
                }
            }
            Event::Timer { tag: T_S6A } => {
                let now = ctx.now();
                let stale: Vec<u32> = self
                    .pending
                    .iter()
                    .filter(|(_, p)| now.since(p.at) >= S6A_TIMEOUT)
                    .map(|(hbh, _)| *hbh)
                    .collect();
                for hbh in stale {
                    if let Some(p) = self.pending.remove(&hbh) {
                        self.server
                            .reply_err(ctx, p.conn, p.rpc_id, &proto::flows::FEG_REPLY, "mno timeout");
                    }
                }
                if self.pending.is_empty() {
                    self.tick_armed = false;
                } else {
                    ctx.send_self(&flows::FEG_S6A_TICK, S6A_TICK, T_S6A);
                }
            }
            Event::Timer { .. } | Event::CpuDone { .. } => {}
        }
    }

    fn name(&self) -> String {
        "feg".to_string()
    }
}
