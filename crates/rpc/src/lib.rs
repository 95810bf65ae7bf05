//! # magma-rpc — gRPC-analog RPC over the simulated reliable stream
//!
//! All communication between Magma components — RAN-specific modules to
//! generic AGW functions, and AGWs to the orchestrator — uses this layer
//! (§3.1). Because it runs over the loss-recovering stream transport, it
//! inherits TCP's tolerance to loss and delay; combined with client-side
//! deadlines and a re-send of outstanding calls after a reconnect, it keeps
//! the control plane functional over satellite-grade backhaul, in contrast
//! to raw 3GPP protocols.

pub mod client;
pub mod codec;
pub mod msg;
pub mod server;

pub use client::{RpcClient, RpcClientEvent};
pub use codec::{encode_frame, Framer, Spare, MAX_FRAME_LEN};
pub use msg::{RpcFrame, RpcKind};
pub use server::{RpcServer, RpcServerEvent};

#[cfg(test)]
mod tests {
    use super::*;
    use magma_net::{Endpoint, LinkProfile, NetFabric, SockEvent};
    use magma_sim::{downcast, Actor, Ctx, DelayClass, Event, FlowKind, Role, SimDuration, SimTime, World};
    use serde_json::{json, Value};

    // Test-local flow kinds (the real topology declares these in the
    // contract crates; here the caller/echo pair is self-contained).
    const ECHO: FlowKind = FlowKind {
        name: "echo.Echo",
        sender: "test.caller",
        receiver: "test.echo",
        class: DelayClass::Transport,
        role: Role::Request,
        retry: Some("test.caller.tick"),
    };
    const ECHO_NO_SUCH: FlowKind = FlowKind {
        name: "echo.NoSuch",
        sender: "test.caller",
        receiver: "test.echo",
        class: DelayClass::Transport,
        role: Role::Request,
        retry: Some("test.caller.tick"),
    };
    const ECHO_REPLY: FlowKind = FlowKind {
        name: "echo.reply",
        sender: "test.echo",
        receiver: "test.caller",
        class: DelayClass::Transport,
        role: Role::Response,
        retry: None,
    };

    /// Echo RPC server actor: replies to "echo.Echo" with the request
    /// body; errors on anything else.
    struct EchoService {
        server: RpcServer,
    }

    impl Actor for EchoService {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            match event {
                Event::Start => self.server.listen(ctx),
                Event::Msg { payload, .. } => {
                    let ev = downcast::<SockEvent>(payload, "echo-service");
                    if let Ok(events) = self.server.try_handle(ctx, ev) {
                        for e in events {
                            if let RpcServerEvent::Request {
                                conn,
                                id,
                                method,
                                body,
                            } = e
                            {
                                match method.as_str() {
                                    "echo.Echo" => {
                                        self.server.reply(ctx, conn, id, &ECHO_REPLY, body)
                                    }
                                    _ => self.server.reply_err(
                                        ctx,
                                        conn,
                                        id,
                                        &ECHO_REPLY,
                                        "no such method",
                                    ),
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Client actor: sends `n` calls, records responses/failures.
    struct Caller {
        client: RpcClient,
        n: u32,
        interval: SimDuration,
        sent: u32,
    }

    impl Caller {
        fn pump(&mut self, ctx: &mut Ctx<'_>, evs: Vec<RpcClientEvent>) {
            for e in evs {
                match e {
                    RpcClientEvent::Response { body, .. } => {
                        let t = ctx.now();
                        let v = body.get("v").and_then(Value::as_f64).unwrap_or(-1.0);
                        ctx.registry().record("rpc.ok", t, v);
                    }
                    RpcClientEvent::Failed { .. } => {
                        let t = ctx.now();
                        ctx.registry().record("rpc.fail", t, 1.0);
                    }
                    _ => {}
                }
            }
        }
    }

    impl Actor for Caller {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            match event {
                Event::Start => {
                    ctx.timer_in(SimDuration::from_millis(1), 1);
                    ctx.timer_in(SimDuration::from_millis(250), 2);
                }
                Event::Timer { tag: 1 }
                    if self.sent < self.n => {
                        self.sent += 1;
                        let v = self.sent;
                        self.client.call(ctx, &ECHO, json!({ "v": v }));
                        ctx.timer_in(self.interval, 1);
                    }
                Event::Timer { tag: 2 } => {
                    let evs = self.client.on_tick(ctx);
                    self.pump(ctx, evs);
                    ctx.timer_in(SimDuration::from_millis(250), 2);
                }
                Event::Timer { .. } => {}
                Event::Msg { payload, .. } => {
                    let ev = downcast::<SockEvent>(payload, "caller");
                    if let Ok(evs) = self.client.try_handle(ctx, ev) {
                        self.pump(ctx, evs);
                    }
                }
                _ => {}
            }
        }
    }

    fn build(profile: LinkProfile, n: u32) -> World {
        let mut w = World::new(11);
        let net = NetFabric::new();
        let a = net.add_node("client");
        let b = net.add_node("server");
        net.connect(a, b, profile);
        let sa = net.add_stack(&mut w, a);
        let sb = net.add_stack(&mut w, b);
        let server_ep = Endpoint::new(b, 8443);
        w.add_actor(Box::new(EchoService {
            server: RpcServer::new(sb, 8443),
        }));
        w.add_actor(Box::new(Caller {
            client: RpcClient::new(sa, server_ep, 1),
            n,
            interval: SimDuration::from_millis(50),
            sent: 0,
        }));
        w
    }

    #[test]
    fn calls_complete_over_clean_link() {
        let mut w = build(LinkProfile::fiber(), 20);
        w.run_until(SimTime::from_secs(30));
        let ok = w.registry().series("rpc.ok").map(|s| s.len()).unwrap_or(0);
        assert_eq!(ok, 20);
        assert!(w.registry().series("rpc.fail").is_none());
    }

    #[test]
    fn calls_complete_over_satellite_with_loss() {
        // The paper's core transport claim: RPC over the reliable stream
        // survives satellite backhaul (300ms, 2% loss).
        let mut w = build(LinkProfile::satellite(), 30);
        w.run_until(SimTime::from_secs(120));
        let ok = w.registry().series("rpc.ok").map(|s| s.len()).unwrap_or(0);
        assert_eq!(ok, 30, "all calls should eventually succeed");
    }

    #[test]
    fn unknown_method_fails_cleanly() {
        struct BadCaller {
            client: RpcClient,
        }
        impl Actor for BadCaller {
            fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
                match event {
                    Event::Start => {
                        self.client.call(ctx, &ECHO_NO_SUCH, json!(null));
                    }
                    Event::Msg { payload, .. } => {
                        let ev = downcast::<SockEvent>(payload, "bad-caller");
                        if let Ok(evs) = self.client.try_handle(ctx, ev) {
                            for e in evs {
                                if let RpcClientEvent::Failed { reason, .. } = e {
                                    let t = ctx.now();
                                    ctx.registry().record("bad.fail", t, 1.0);
                                    assert!(reason.contains("no such method"));
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut w = World::new(5);
        let net = NetFabric::new();
        let a = net.add_node("c");
        let b = net.add_node("s");
        net.connect(a, b, LinkProfile::lan());
        let sa = net.add_stack(&mut w, a);
        let sb = net.add_stack(&mut w, b);
        w.add_actor(Box::new(EchoService {
            server: RpcServer::new(sb, 8443),
        }));
        w.add_actor(Box::new(BadCaller {
            client: RpcClient::new(sa, Endpoint::new(b, 8443), 1),
        }));
        w.run_until(SimTime::from_secs(5));
        assert_eq!(
            w.registry()
                .series("bad.fail")
                .map(|s| s.len())
                .unwrap_or(0),
            1
        );
    }

    #[test]
    fn calls_fail_after_deadline_when_partitioned() {
        let mut w = World::new(5);
        let net = NetFabric::new();
        let a = net.add_node("c");
        let b = net.add_node("s");
        net.connect(a, b, LinkProfile::lan());
        // Partition immediately.
        net.set_link_up(a, b, false);
        let sa = net.add_stack(&mut w, a);
        net.add_stack(&mut w, b);
        w.add_actor(Box::new(Caller {
            client: RpcClient::new(sa, Endpoint::new(b, 8443), 1),
            n: 1,
            interval: SimDuration::from_millis(50),
            sent: 0,
        }));
        w.run_until(SimTime::from_secs(60));
        let fails = w
            .registry()
            .series("rpc.fail")
            .map(|s| s.len())
            .unwrap_or(0);
        assert_eq!(fails, 1, "partitioned call must fail by deadline");
    }

    #[test]
    fn client_recovers_after_partition_heals() {
        let mut w = World::new(5);
        let net = NetFabric::new();
        let a = net.add_node("c");
        let b = net.add_node("s");
        net.connect(a, b, LinkProfile::lan());
        let sa = net.add_stack(&mut w, a);
        let sb = net.add_stack(&mut w, b);
        w.add_actor(Box::new(EchoService {
            server: RpcServer::new(sb, 8443),
        }));
        w.add_actor(Box::new(Caller {
            client: RpcClient::new(sa, Endpoint::new(b, 8443), 1)
                .with_deadline(SimDuration::from_secs(62)),
            n: 40,
            interval: SimDuration::from_millis(100),
            sent: 0,
        }));
        w.run_until(SimTime::from_secs(1));
        net.set_link_up(a, b, false);
        w.run_until(SimTime::from_secs(10));
        net.set_link_up(a, b, true);
        w.run_until(SimTime::from_secs(140));
        let ok = w.registry().series("rpc.ok").map(|s| s.len()).unwrap_or(0);
        assert!(ok >= 35, "most calls complete after heal, got {ok}");
    }
}
