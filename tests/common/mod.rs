//! A RAN stand-in shared by the integration tests.

use magma::prelude::*;
use magma::sim::{downcast, Actor, Ctx, Event};
use magma::testbed::Scenario;
use magma_net::{flows, lp_encode, ports, Dialer, Edge, Endpoint, SockEvent, MAX_LP_LEN};
use magma_wire::s1ap::{EnbUeId, MmeUeId, S1apMessage};
use magma_wire::Teid;

/// The downlink tunnel the target eNodeB asks for.
pub const TARGET_ENB_TEID: Teid = Teid(0xBEEF);

/// A bare-bones target eNodeB: S1-Setup, then a PathSwitchRequest for an
/// already-attached UE.
struct TargetEnb {
    s1: Dialer<MAX_LP_LEN>,
    switch_at: SimTime,
    target_ue: MmeUeId,
}

impl TargetEnb {
    fn send(&self, ctx: &mut Ctx<'_>, msg: &S1apMessage) {
        self.s1.send(ctx, &flows::SOCK_CMD, lp_encode(&msg.encode()));
    }
}

impl Actor for TargetEnb {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => self.s1.open(ctx),
            Event::Timer { tag: 1 } => {
                let msg = S1apMessage::PathSwitchRequest {
                    mme_ue_id: self.target_ue,
                    new_enb_ue_id: EnbUeId(1),
                    new_enb_teid: TARGET_ENB_TEID,
                };
                self.send(ctx, &msg);
            }
            Event::Msg { payload, .. } => {
                let ev = downcast::<SockEvent>(payload, "target-enb");
                let edge = self.s1.on_event(ctx, ev, |ctx, m| {
                    if let Ok(S1apMessage::PathSwitchAck { mme_ue_id }) = S1apMessage::decode(m) {
                        let t = ctx.now();
                        ctx.registry()
                            .record("test.path_switch_ack", t, mme_ue_id.0 as f64);
                    }
                });
                if let Ok(Edge::Opened(_)) = edge {
                    let setup = S1apMessage::S1SetupRequest {
                        enb_id: 99,
                        name: "target-enb".into(),
                    };
                    self.send(ctx, &setup);
                    let delay = self.switch_at.since(ctx.now());
                    ctx.timer_in(delay, 1);
                }
            }
            _ => {}
        }
    }
}

/// Put a [`TargetEnb`] on a new node behind gateway 0; at `switch_at` it
/// asks for `target_ue`'s path.
pub fn add_target_enb(sc: &mut Scenario, switch_at: SimTime, target_ue: MmeUeId) {
    let mme = Endpoint::new(sc.agws[0].node, ports::S1AP);
    sc.add_behind(0, "target-enb", |stack| TargetEnb {
        s1: Dialer::new(stack, mme),
        switch_at,
        target_ue,
    });
}
