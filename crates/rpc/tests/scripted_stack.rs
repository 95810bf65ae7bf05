//! What the RPC layer hands the net stack, seen through a scripted
//! stand-in that records every `SockCmd` it is given.
//!
//! A call is encoded once. The request id is fixed when the call is
//! made, so the first send and the flush after a reconnect carry the
//! same bytes — the client holds them and re-sends them. On a stream
//! that stays open the client sends a call once and leaves recovery to
//! the stream; an unanswered call fails at its deadline. Likewise one push to several connections is one encoding — so
//! a sender whose peers have acked different versions pays one encoding
//! per version, not per peer. And a peer whose length prefix cannot be a
//! frame gets its stream closed.

use bytes::Bytes;
use magma_net::{flows, Endpoint, NodeAddr, SockCmd, SockEvent, StreamHandle};
use magma_rpc::{RpcClient, RpcClientEvent, RpcServer, MAX_FRAME_LEN};
use magma_sim::{
    downcast, Actor, ActorId, Ctx, DelayClass, Event, FlowKind, Role, SimDuration, SimTime, World,
};
use serde::Serialize;
use std::cell::RefCell;
use std::rc::Rc;

const REPORT: FlowKind = FlowKind {
    name: "test.Report",
    sender: "test.caller",
    receiver: "test.peer",
    class: DelayClass::Transport,
    role: Role::Request,
    retry: Some("test.caller.tick"),
};
const SYNC: FlowKind = FlowKind {
    name: "test.Sync",
    sender: "test.pusher",
    receiver: "test.peer",
    class: DelayClass::Transport,
    role: Role::Data,
    retry: None,
};

#[derive(Serialize)]
struct Report {
    gateway: String,
    readings: Vec<f64>,
}

#[derive(Default)]
struct Wire {
    opens: u32,
    sends: Vec<(StreamHandle, Bytes)>,
    closes: Vec<StreamHandle>,
}

/// Stands where the net stack would: opens succeed at once, sent bytes
/// go nowhere (a partition), and at `drop_at` the open stream is reset.
struct ScriptedStack {
    wire: Rc<RefCell<Wire>>,
    drop_at: Option<SimDuration>,
    owner: Option<ActorId>,
}

impl Actor for ScriptedStack {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                if let Some(at) = self.drop_at {
                    ctx.timer_in(at, 1);
                }
            }
            Event::Timer { .. } => {
                let handle = StreamHandle(u64::from(self.wire.borrow().opens));
                if let Some(owner) = self.owner {
                    ctx.send_to(
                        owner,
                        &flows::SOCK_EVENT,
                        Box::new(SockEvent::StreamClosed {
                            handle,
                            error: true,
                        }),
                    );
                }
            }
            Event::Msg { payload, .. } => match downcast::<SockCmd>(payload, "scripted-stack") {
                SockCmd::OpenStream { peer, owner, user } => {
                    self.owner = Some(owner);
                    let handle = {
                        let mut wire = self.wire.borrow_mut();
                        wire.opens += 1;
                        StreamHandle(u64::from(wire.opens))
                    };
                    ctx.send_to(
                        owner,
                        &flows::SOCK_EVENT,
                        Box::new(SockEvent::StreamOpened { handle, user, peer }),
                    );
                }
                SockCmd::StreamSend { handle, bytes } => {
                    self.wire.borrow_mut().sends.push((handle, bytes));
                }
                SockCmd::StreamClose { handle } => self.wire.borrow_mut().closes.push(handle),
                _ => {}
            },
            _ => {}
        }
    }
}

struct Caller {
    client: RpcClient,
    /// When each failed call failed.
    failed_at: Rc<RefCell<Vec<SimTime>>>,
}

impl Caller {
    fn note(&self, now: SimTime, evs: Vec<RpcClientEvent>) {
        for e in evs {
            if let RpcClientEvent::Failed { .. } = e {
                self.failed_at.borrow_mut().push(now);
            }
        }
    }
}

impl Actor for Caller {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                let report = Report {
                    gateway: "agw-1".into(),
                    readings: vec![1.0, 2.5],
                };
                self.client.call(ctx, &REPORT, &report);
                ctx.timer_in(SimDuration::from_millis(250), 1);
            }
            Event::Timer { .. } => {
                let evs = self.client.on_tick(ctx);
                self.note(ctx.now(), evs);
                ctx.timer_in(SimDuration::from_millis(250), 1);
            }
            Event::Msg { payload, .. } => {
                let ev = downcast::<SockEvent>(payload, "caller");
                if let Ok(evs) = self.client.try_handle(ctx, ev) {
                    self.note(ctx.now(), evs);
                }
            }
            _ => {}
        }
    }
}

fn encode_scope_count(w: &World) -> u64 {
    w.profile()
        .virt
        .scopes
        .iter()
        .find(|s| s.label == "rpc.encode")
        .map_or(0, |s| s.count)
}

#[test]
fn first_send_and_the_reconnect_flush_carry_one_encoding() {
    let mut w = World::new(3);
    w.enable_profiling(true);
    let wire = Rc::new(RefCell::new(Wire::default()));
    // The call goes out at 0 s on the first stream and is not re-sent
    // while that stream is open; the stream is reset at 2.6 s, so the
    // next tick reopens and the connect flush re-sends it.
    let stack = w.add_actor(Box::new(ScriptedStack {
        wire: wire.clone(),
        drop_at: Some(SimDuration::from_millis(2600)),
        owner: None,
    }));
    let peer = Endpoint::new(NodeAddr(9), 8443);
    w.add_actor(Box::new(Caller {
        client: RpcClient::new(stack, peer, 1),
        failed_at: Rc::default(),
    }));
    w.run_until(SimTime::from_millis(3500));

    let wire = wire.borrow();
    assert_eq!(wire.opens, 2, "one reconnect");
    let handles: Vec<u64> = wire.sends.iter().map(|(h, _)| h.0).collect();
    assert_eq!(handles, [1, 2], "first send, reconnect flush");
    let first = &wire.sends.first().expect("sent at least once").1;
    for (_, bytes) in &wire.sends {
        assert_eq!(bytes, first);
    }
    let text = String::from_utf8_lossy(first.get(4..).expect("length prefix"));
    assert_eq!(
        text,
        r#"{"body":{"gateway":"agw-1","readings":[1.0,2.5]},"id":1,"kind":"Request","method":"test.Report"}"#
    );
    assert_eq!(encode_scope_count(&w), 1, "one call, one encoding");
}

#[test]
fn an_unanswered_call_on_an_open_stream_is_sent_once_and_fails_at_its_deadline() {
    let mut w = World::new(3);
    let wire = Rc::new(RefCell::new(Wire::default()));
    let stack = w.add_actor(Box::new(ScriptedStack {
        wire: wire.clone(),
        drop_at: None,
        owner: None,
    }));
    let failed_at = Rc::new(RefCell::new(Vec::new()));
    w.add_actor(Box::new(Caller {
        client: RpcClient::new(stack, Endpoint::new(NodeAddr(9), 8443), 1)
            .with_deadline(SimDuration::from_secs(12)),
        failed_at: failed_at.clone(),
    }));
    w.run_until(SimTime::from_secs(30));

    let wire = wire.borrow();
    assert_eq!(wire.opens, 1);
    assert_eq!(wire.sends.len(), 1, "no re-send while the stream is open");
    // Made at 0 s; the 250 ms tick at 12 s is the first at or past the
    // deadline.
    assert_eq!(*failed_at.borrow(), [SimTime::from_secs(12)]);
}

/// Accepts three connections, then pushes one body to all of them.
struct Pusher {
    server: RpcServer,
}

impl Actor for Pusher {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        if let Event::Start = event {
            let mut conns = Vec::new();
            for n in 1..=3 {
                let handle = StreamHandle(n);
                let accepted = SockEvent::StreamAccepted {
                    handle,
                    local_port: self.server.port(),
                    peer: Endpoint::new(NodeAddr(n as u32), 40_000),
                };
                assert!(self.server.try_handle(ctx, accepted).is_ok());
                conns.push(handle);
            }
            // A connection the server never saw takes nothing.
            conns.push(StreamHandle(77));
            let sent = self.server.push(ctx, &conns, 5, &SYNC, vec!["a", "b"]);
            assert_eq!(sent, [StreamHandle(1), StreamHandle(2), StreamHandle(3)]);
            assert!(self
                .server
                .push(ctx, &[StreamHandle(77)], 5, &SYNC, 0u8)
                .is_empty());
        }
    }
}

#[test]
fn push_to_three_connections_encodes_once() {
    let mut w = World::new(4);
    w.enable_profiling(true);
    let wire = Rc::new(RefCell::new(Wire::default()));
    let stack = w.add_actor(Box::new(ScriptedStack {
        wire: wire.clone(),
        drop_at: None,
        owner: None,
    }));
    w.add_actor(Box::new(Pusher {
        server: RpcServer::new(stack, 8443),
    }));
    w.run_until(SimTime::from_secs(1));

    let wire = wire.borrow();
    let handles: Vec<u64> = wire.sends.iter().map(|(h, _)| h.0).collect();
    assert_eq!(handles, [1, 2, 3]);
    let first = &wire.sends.first().expect("pushed").1;
    assert!(wire.sends.iter().all(|(_, b)| b == first));
    assert_eq!(
        String::from_utf8_lossy(first.get(4..).expect("length prefix")),
        r#"{"body":["a","b"],"id":5,"kind":"Push","method":"test.Sync"}"#
    );
    // The push to no live connection was not encoded at all.
    assert_eq!(encode_scope_count(&w), 1);
}

/// Accepts four connections whose peers have acked versions 3, 3, 4 and
/// 3 of some state, then brings them all to version 5: each peer needs
/// the changes since *its* version, so peers are grouped by version and
/// each group is one push.
struct VersionedPusher {
    server: RpcServer,
}

impl Actor for VersionedPusher {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        if let Event::Start = event {
            let mut by_acked = std::collections::BTreeMap::<u64, Vec<StreamHandle>>::new();
            for (n, acked) in [(1, 3), (2, 3), (3, 4), (4, 3)] {
                let handle = StreamHandle(n);
                let accepted = SockEvent::StreamAccepted {
                    handle,
                    local_port: self.server.port(),
                    peer: Endpoint::new(NodeAddr(n as u32), 40_000),
                };
                assert!(self.server.try_handle(ctx, accepted).is_ok());
                by_acked.entry(acked).or_default().push(handle);
            }
            for (acked, conns) in by_acked {
                let changes: Vec<u64> = (acked + 1..=5).collect();
                assert_eq!(self.server.push(ctx, &conns, 5, &SYNC, &changes), conns);
            }
        }
    }
}

#[test]
fn push_to_connections_at_two_acked_versions_encodes_once_per_version() {
    let mut w = World::new(4);
    w.enable_profiling(true);
    let wire = Rc::new(RefCell::new(Wire::default()));
    let stack = w.add_actor(Box::new(ScriptedStack {
        wire: wire.clone(),
        drop_at: None,
        owner: None,
    }));
    w.add_actor(Box::new(VersionedPusher {
        server: RpcServer::new(stack, 8443),
    }));
    w.run_until(SimTime::from_secs(1));

    let wire = wire.borrow();
    let body = |bytes: &Bytes| {
        let text = String::from_utf8_lossy(bytes.get(4..).expect("length prefix")).into_owned();
        let end = text.find(",\"id\"").expect("frame text");
        text[..end].to_string()
    };
    let sent: Vec<(u64, String)> = wire.sends.iter().map(|(h, b)| (h.0, body(b))).collect();
    let since = |v: &str| format!(r#"{{"body":{v}"#);
    assert_eq!(
        sent,
        [
            (1, since("[4,5]")),
            (2, since("[4,5]")),
            (4, since("[4,5]")),
            (3, since("[5]")),
        ]
    );
    assert_eq!(encode_scope_count(&w), 2, "four peers, two versions, two encodings");
}

/// Feeds its client and its server a length prefix past `MAX_FRAME_LEN`.
struct Victim {
    client: RpcClient,
    server: RpcServer,
}

impl Actor for Victim {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        if let Event::Start = event {
            let hostile = Bytes::from((MAX_FRAME_LEN as u32 + 1).to_be_bytes().to_vec());

            let handle = StreamHandle(1);
            let opened = SockEvent::StreamOpened {
                handle,
                user: 1,
                peer: self.client.server(),
            };
            assert!(self.client.try_handle(ctx, opened).is_ok());
            let recv = SockEvent::StreamRecv {
                handle,
                bytes: hostile.clone(),
            };
            assert!(self
                .client
                .try_handle(ctx, recv)
                .is_ok_and(|evs| evs.is_empty()));

            let conn = StreamHandle(50);
            let accepted = SockEvent::StreamAccepted {
                handle: conn,
                local_port: self.server.port(),
                peer: Endpoint::new(NodeAddr(2), 40_000),
            };
            assert!(self.server.try_handle(ctx, accepted).is_ok());
            let recv = SockEvent::StreamRecv {
                handle: conn,
                bytes: hostile,
            };
            assert!(self
                .server
                .try_handle(ctx, recv)
                .is_ok_and(|evs| evs.is_empty()));
        }
    }
}

#[test]
fn an_over_long_prefix_gets_the_stream_closed() {
    let mut w = World::new(5);
    let wire = Rc::new(RefCell::new(Wire::default()));
    let stack = w.add_actor(Box::new(ScriptedStack {
        wire: wire.clone(),
        drop_at: None,
        owner: None,
    }));
    w.add_actor(Box::new(Victim {
        client: RpcClient::new(stack, Endpoint::new(NodeAddr(9), 8443), 1),
        server: RpcServer::new(stack, 8443),
    }));
    w.run_until(SimTime::from_secs(1));
    assert_eq!(wire.borrow().closes, [StreamHandle(1), StreamHandle(50)]);
}
