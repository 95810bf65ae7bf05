//! Simulated MNO core: the external operator network Magma federates
//! with (§3.6). Hosts an HSS speaking Diameter S6a and tracks serving-
//! node registrations.

use magma_net::{lp_encode, ports, LpFramer, SockCmd, SockEvent, StreamHandle};
use crate::flows;
use magma_sim::{downcast, Actor, ActorId, Ctx, Event};
use magma_subscriber::SubscriberDb;
use magma_wire::aka::Rand;
use magma_wire::diameter::{DiameterPacket, ResultCode, S6aMessage, WireAuthVector};
use magma_wire::Imsi;
use rand::RngCore;
use std::collections::BTreeMap;

/// The MNO's HSS (plus location registry) actor.
pub struct MnoCoreActor {
    stack: ActorId,
    pub db: SubscriberDb,
    conns: BTreeMap<StreamHandle, LpFramer>,
    /// IMSI → serving node registered via ULR.
    locations: BTreeMap<Imsi, u32>,
    pub air_served: u64,
    pub ulr_served: u64,
}

impl MnoCoreActor {
    pub fn new(stack: ActorId, db: SubscriberDb) -> Self {
        MnoCoreActor {
            stack,
            db,
            conns: BTreeMap::new(),
            locations: BTreeMap::new(),
            air_served: 0,
            ulr_served: 0,
        }
    }

    fn reply(&mut self, ctx: &mut Ctx<'_>, conn: StreamHandle, pkt: DiameterPacket) {
        ctx.send_to(
            self.stack,
            &flows::MNO_S6A_ANSWER,
            Box::new(SockCmd::StreamSend {
                handle: conn,
                bytes: lp_encode(&pkt.encode()),
            }),
        );
    }

    fn handle_diameter(&mut self, ctx: &mut Ctx<'_>, conn: StreamHandle, pkt: DiameterPacket) {
        let answer = match pkt.message {
            S6aMessage::AuthInfoRequest { imsi, num_vectors } => {
                self.air_served += 1;
                let mut vectors = Vec::new();
                for _ in 0..num_vectors.clamp(1, 4) {
                    let mut rand = [0u8; 16];
                    ctx.rng().fill_bytes(&mut rand);
                    match self.db.generate_auth_vector(imsi, Rand(rand)) {
                        Some(v) => vectors.push(WireAuthVector {
                            rand: v.rand,
                            autn: v.autn,
                            xres: v.xres,
                            kasme: v.kasme,
                        }),
                        None => break,
                    }
                }
                let result = if vectors.is_empty() {
                    ResultCode::UserUnknown
                } else {
                    ResultCode::Success
                };
                S6aMessage::AuthInfoAnswer { result, vectors }
            }
            S6aMessage::UpdateLocationRequest { imsi, serving_node } => {
                self.ulr_served += 1;
                if self.db.get(imsi).is_some() {
                    self.locations.insert(imsi, serving_node);
                    let ambr = self.db.get(imsi).map(|p| p.ambr).unwrap();
                    S6aMessage::UpdateLocationAnswer {
                        result: ResultCode::Success,
                        ambr_dl_kbps: ambr.dl_kbps,
                        ambr_ul_kbps: ambr.ul_kbps,
                    }
                } else {
                    S6aMessage::UpdateLocationAnswer {
                        result: ResultCode::UserUnknown,
                        ambr_dl_kbps: 0,
                        ambr_ul_kbps: 0,
                    }
                }
            }
            S6aMessage::PurgeRequest { imsi } => {
                self.locations.remove(&imsi);
                S6aMessage::PurgeAnswer {
                    result: ResultCode::Success,
                }
            }
            // Answers arriving at a server are protocol errors; ignore.
            _ => return,
        };
        self.reply(
            ctx,
            conn,
            DiameterPacket {
                hop_by_hop: pkt.hop_by_hop,
                end_to_end: pkt.end_to_end,
                message: answer,
            },
        );
    }

    pub fn serving_node(&self, imsi: Imsi) -> Option<u32> {
        self.locations.get(&imsi).copied()
    }
}

impl Actor for MnoCoreActor {
    fn dispatch(&self) -> Option<&'static magma_sim::Dispatch> {
        Some(&crate::flows::MNO_DISPATCH)
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.id();
                ctx.send_to(
                    self.stack,
                    &magma_net::flows::SOCK_CMD,
                    Box::new(SockCmd::ListenStream {
                        port: ports::DIAMETER,
                        owner: me,
                    }),
                );
            }
            Event::Msg { payload, .. } => {
                match downcast::<SockEvent>(payload, "mno-core") {
                    SockEvent::StreamAccepted { handle, .. } => {
                        self.conns.insert(handle, LpFramer::new());
                    }
                    SockEvent::StreamRecv { handle, bytes } => {
                        if let Some(framer) = self.conns.get_mut(&handle) {
                            let msgs = framer.push(&bytes);
                            framer.close_if_poisoned(ctx, self.stack, handle);
                            for m in msgs {
                                if let Ok(pkt) = DiameterPacket::decode(&m) {
                                    self.handle_diameter(ctx, handle, pkt);
                                }
                            }
                        }
                    }
                    SockEvent::StreamClosed { handle, .. } => {
                        self.conns.remove(&handle);
                    }
                    _ => {}
                }
            }
            Event::Timer { .. } | Event::CpuDone { .. } => {}
        }
    }

    fn name(&self) -> String {
        "mno-core".to_string()
    }
}
