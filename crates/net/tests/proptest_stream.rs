//! Property test on the reliable stream: under arbitrary loss and
//! jitter, every byte sent is delivered exactly once, in order — the
//! invariant the gRPC-analog control plane relies on over bad backhaul.

use bytes::Bytes;
use magma_net::{flows, Endpoint, LinkProfile, NetFabric, SockCmd, SockEvent};
use magma_sim::{downcast, Actor, ActorId, Ctx, Event, SimDuration, SimTime, World};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

struct Server {
    stack: ActorId,
    received: Rc<RefCell<Vec<u8>>>,
}

impl Actor for Server {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.id();
                ctx.send_to(
                    self.stack,
                    &flows::SOCK_CMD,
                    Box::new(SockCmd::ListenStream {
                        port: 8000,
                        owner: me,
                    }),
                );
            }
            Event::Msg { payload, .. } => {
                if let SockEvent::StreamRecv { bytes, .. } =
                    downcast::<SockEvent>(payload, "server")
                {
                    self.received.borrow_mut().extend_from_slice(&bytes);
                }
            }
            _ => {}
        }
    }
}

struct Client {
    stack: ActorId,
    server: Endpoint,
    chunks: Vec<Vec<u8>>,
}

impl Actor for Client {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.id();
                ctx.send_to(
                    self.stack,
                    &flows::SOCK_CMD,
                    Box::new(SockCmd::OpenStream {
                        peer: self.server,
                        owner: me,
                    }),
                );
            }
            Event::Msg { payload, .. } => {
                if let SockEvent::StreamOpened { handle, .. } =
                    downcast::<SockEvent>(payload, "client")
                {
                    for c in &self.chunks {
                        ctx.send_to(
                            self.stack,
                            &flows::SOCK_CMD,
                            Box::new(SockCmd::StreamSend {
                                handle,
                                bytes: Bytes::from(c.clone()),
                            }),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn stream_delivers_exactly_once_in_order(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..4000),
            1..8,
        ),
        loss_pct in 0u32..15,
        jitter_ms in 0u64..30,
        seed in any::<u64>(),
    ) {
        let mut w = World::new(seed);
        let net = NetFabric::new();
        let profile = LinkProfile {
            latency: SimDuration::from_millis(20),
            jitter: SimDuration::from_millis(jitter_ms),
            loss: loss_pct as f64 / 100.0,
            bandwidth_bps: 50_000_000,
            max_backlog: SimDuration::from_secs(2),
        };
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, profile);
        let sa = net.add_stack(&mut w, a);
        let sb = net.add_stack(&mut w, b);
        let received = Rc::new(RefCell::new(Vec::new()));
        w.add_actor(Box::new(Server {
            stack: sb,
            received: received.clone(),
        }));
        w.add_actor(Box::new(Client {
            stack: sa,
            server: Endpoint::new(b, 8000),
            chunks: chunks.clone(),
        }));
        w.run_until(SimTime::from_secs(300));

        let expected: Vec<u8> = chunks.into_iter().flatten().collect();
        let got = received.borrow().clone();
        prop_assert_eq!(
            got.len(),
            expected.len(),
            "byte count under loss={}%",
            loss_pct
        );
        prop_assert_eq!(got, expected, "in-order exactly-once delivery");
    }
}
