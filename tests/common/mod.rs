//! RAN stand-ins shared by the integration tests.

#![allow(dead_code, reason = "each test binary compiles this module for itself and uses part of it")]

use magma::prelude::*;
use magma::sim::{downcast, Actor, ActorId, Ctx, Event};
use magma::testbed::Scenario;
use magma_net::{
    flows, lp_encode, ports, Endpoint, LpFramer, SockCmd, SockEvent, StreamHandle,
};
use magma_wire::s1ap::{EnbUeId, MmeUeId, S1apMessage};
use magma_wire::Teid;

/// The downlink tunnel the target eNodeB asks for.
pub const TARGET_ENB_TEID: Teid = Teid(0xBEEF);

/// A bare-bones target eNodeB: S1-Setup, then a PathSwitchRequest for an
/// already-attached UE.
struct TargetEnb {
    stack: ActorId,
    agw: Endpoint,
    conn: Option<StreamHandle>,
    framer: LpFramer,
    switch_at: SimTime,
    target_ue: MmeUeId,
}

impl Actor for TargetEnb {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.id();
                ctx.send_to(
                    self.stack,
                    &flows::SOCK_CMD,
                    Box::new(SockCmd::OpenStream {
                        peer: self.agw,
                        owner: me,
                        user: 50,
                    }),
                );
            }
            Event::Timer { tag: 1 } => {
                if let Some(conn) = self.conn {
                    let msg = S1apMessage::PathSwitchRequest {
                        mme_ue_id: self.target_ue,
                        new_enb_ue_id: EnbUeId(1),
                        new_enb_teid: TARGET_ENB_TEID,
                    };
                    ctx.send_to(
                        self.stack,
                        &flows::SOCK_CMD,
                        Box::new(SockCmd::StreamSend {
                            handle: conn,
                            bytes: lp_encode(&msg.encode()),
                        }),
                    );
                }
            }
            Event::Msg { payload, .. } => match downcast::<SockEvent>(payload, "target-enb") {
                SockEvent::StreamOpened { handle, .. } => {
                    self.conn = Some(handle);
                    let setup = S1apMessage::S1SetupRequest {
                        enb_id: 99,
                        name: "target-enb".into(),
                    };
                    ctx.send_to(
                        self.stack,
                        &flows::SOCK_CMD,
                        Box::new(SockCmd::StreamSend {
                            handle,
                            bytes: lp_encode(&setup.encode()),
                        }),
                    );
                    let delay = self.switch_at.since(ctx.now());
                    ctx.timer_in(delay, 1);
                }
                SockEvent::StreamRecv { bytes, .. } => {
                    for m in self.framer.push(&bytes) {
                        if let Ok(S1apMessage::PathSwitchAck { mme_ue_id }) =
                            S1apMessage::decode(&m)
                        {
                            let t = ctx.now();
                            ctx.registry()
                                .record("test.path_switch_ack", t, mme_ue_id.0 as f64);
                        }
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
}

/// Put a [`TargetEnb`] on a new node at gateway 0's site; at `switch_at`
/// it asks for `target_ue`'s path.
pub fn add_target_enb(sc: &mut Scenario, switch_at: SimTime, target_ue: MmeUeId) {
    let target_node = sc.net.add_node("target-enb");
    sc.net
        .connect(target_node, sc.agws[0].node, magma_net::LinkProfile::lan());
    let target_stack = sc.net.add_stack(&mut sc.world, target_node);
    sc.world.add_actor(Box::new(TargetEnb {
        stack: target_stack,
        agw: Endpoint::new(sc.agws[0].node, ports::S1AP),
        conn: None,
        framer: LpFramer::new(),
        switch_at,
        target_ue,
    }));
}

/// Sends one datagram from `stack` when started.
pub struct SendOnce {
    pub stack: ActorId,
    pub dst: Endpoint,
    pub bytes: bytes::Bytes,
}

impl Actor for SendOnce {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        if let Event::Start = event {
            ctx.send_to(
                self.stack,
                &flows::SOCK_CMD,
                Box::new(SockCmd::DgramSend {
                    src_port: 20001,
                    dst: self.dst,
                    bytes: self.bytes.clone(),
                }),
            );
        }
    }
}
