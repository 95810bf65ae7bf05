//! Server-push streams: the mechanism behind desired-state config sync —
//! the orchestrator pushes what brings connected gateways current without
//! being asked.

use magma_net::{Endpoint, LinkProfile, NetFabric, SockEvent};
use magma_rpc::{RpcClient, RpcClientEvent, RpcServer};
use magma_sim::{downcast, Actor, Ctx, DelayClass, Event, FlowKind, Role, SimDuration, SimTime, World};
use serde_json::json;

// Test-local flow kinds for the pusher/subscriber pair.
const HELLO: FlowKind = FlowKind {
    name: "hello",
    sender: "test.subscriber",
    receiver: "test.pusher",
    class: DelayClass::Transport,
    role: Role::Request,
    retry: Some("test.subscriber.tick"),
};
const HELLO_REPLY: FlowKind = FlowKind {
    name: "hello.reply",
    sender: "test.pusher",
    receiver: "test.subscriber",
    class: DelayClass::Transport,
    role: Role::Response,
    retry: None,
};
const SYNC_TICK: FlowKind = FlowKind {
    name: "sync.Tick",
    sender: "test.pusher",
    receiver: "test.subscriber",
    class: DelayClass::Transport,
    role: Role::Data,
    retry: None,
};

/// Server that pushes a sequence number to every connected client each
/// 100 ms.
struct Pusher {
    server: RpcServer,
    seq: u64,
}

impl Actor for Pusher {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                self.server.listen(ctx);
                ctx.timer_in(SimDuration::from_millis(100), 1);
            }
            Event::Timer { tag: 1 } => {
                self.seq += 1;
                let conns: Vec<_> = self.server.conns().map(|(conn, ())| conn).collect();
                self.server
                    .push(ctx, &conns, 1, &SYNC_TICK, json!({ "seq": self.seq }));
                ctx.timer_in(SimDuration::from_millis(100), 1);
            }
            Event::Timer { .. } => {}
            Event::Msg { payload, .. } => {
                let ev = downcast::<SockEvent>(payload, "pusher");
                if let Ok(requests) = self.server.try_handle(ctx, ev) {
                    for r in requests {
                        self.server.reply(ctx, r.conn, r.id, &HELLO_REPLY, json!("ok"));
                    }
                }
            }
            _ => {}
        }
    }
}

/// Client that connects (one call to open the conn) and records pushes.
struct Subscriber {
    client: RpcClient,
}

impl Actor for Subscriber {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                self.client.call(ctx, &HELLO, json!(null));
                ctx.timer_in(SimDuration::from_millis(250), 1);
            }
            Event::Timer { .. } => {
                let evs = self.client.on_tick(ctx);
                self.pump(ctx, evs);
                ctx.timer_in(SimDuration::from_millis(250), 1);
            }
            Event::Msg { payload, .. } => {
                let ev = downcast::<SockEvent>(payload, "subscriber");
                if let Ok(evs) = self.client.try_handle(ctx, ev) {
                    self.pump(ctx, evs);
                }
            }
            _ => {}
        }
    }
}

impl Subscriber {
    fn pump(&mut self, ctx: &mut Ctx<'_>, evs: Vec<RpcClientEvent>) {
        for e in evs {
            if let RpcClientEvent::Push { method, body, .. } = e {
                assert_eq!(method, "sync.Tick");
                let t = ctx.now();
                let seq = body["seq"].as_f64().unwrap();
                ctx.registry().record("push.seq", t, seq);
            }
        }
    }
}

#[test]
fn pushes_arrive_in_order_over_lossy_link() {
    let mut w = World::new(91);
    let net = NetFabric::new();
    let a = net.add_node("client");
    let b = net.add_node("server");
    net.connect(a, b, LinkProfile::microwave().with_loss(0.05));
    let sa = net.add_stack(&mut w, a);
    let sb = net.add_stack(&mut w, b);
    w.add_actor(Box::new(Pusher {
        server: RpcServer::new(sb, 8443),
        seq: 0,
    }));
    w.add_actor(Box::new(Subscriber {
        client: RpcClient::new(sa, Endpoint::new(b, 8443)),
    }));
    w.run_until(SimTime::from_secs(30));

    let seqs: Vec<f64> = w
        .registry()
        .series("push.seq")
        .map(|s| s.values().collect())
        .unwrap_or_default();
    assert!(seqs.len() > 200, "pushes flowed: {}", seqs.len());
    // Strictly increasing: the reliable stream preserves push order even
    // with 5% frame loss.
    for pair in seqs.windows(2) {
        assert!(pair[1] > pair[0], "out of order: {pair:?}");
    }
    // No gaps: every push is delivered exactly once.
    assert_eq!(seqs[0], 1.0);
    assert_eq!(*seqs.last().unwrap() as usize, seqs.len());
}
