//! Per-node network stack actor.
//!
//! Each simulated machine runs one [`NetStack`] actor. Application actors
//! on the same node talk to it with [`SockCmd`] messages and receive
//! [`SockEvent`] messages back — the simulation analog of the sockets API.
//! The stack multiplexes datagram and stream transports over the shared
//! [`Topology`](crate::topology::Topology), reached through its
//! [`NetFabric`] handle.

use crate::addr::{ports, Endpoint, NodeAddr};
use crate::flows;
use crate::frame::{Frame, FramePayload};
use crate::stream::{ConnKey, RtoOutcome, StreamConfig, StreamFrame, StreamHandle, StreamState};
use crate::fabric::NetFabric;
use bytes::Bytes;
use magma_sim::{downcast, try_downcast, Actor, ActorId, Ctx, Event, SimTime};
use std::collections::BTreeMap;

/// Commands an application actor sends to its node's [`NetStack`].
#[derive(Debug)]
pub enum SockCmd {
    /// Register as the accept handler for stream connections to `port`.
    ListenStream { port: u16, owner: ActorId },
    /// Register as the receiver for datagrams to `port`.
    ListenDgram { port: u16, owner: ActorId },
    /// Open a stream to a remote endpoint; [`SockEvent::StreamOpened`]
    /// names the peer back.
    OpenStream { peer: Endpoint, owner: ActorId },
    /// Send bytes on an open stream.
    StreamSend { handle: StreamHandle, bytes: Bytes },
    /// Close a stream (sends a reset to the peer).
    StreamClose { handle: StreamHandle },
    /// Send an unreliable datagram.
    DgramSend {
        src_port: u16,
        dst: Endpoint,
        bytes: Bytes,
    },
}

/// Notifications a [`NetStack`] sends to application actors.
#[derive(Debug)]
pub enum SockEvent {
    /// An `OpenStream` completed locally; the stream is usable immediately.
    StreamOpened { handle: StreamHandle, peer: Endpoint },
    /// A remote initiator opened a stream to a listening port.
    StreamAccepted {
        handle: StreamHandle,
        local_port: u16,
        peer: Endpoint,
    },
    /// In-order bytes arrived on a stream.
    StreamRecv { handle: StreamHandle, bytes: Bytes },
    /// The stream is gone; `error` is true for retry-budget exhaustion or
    /// a peer reset, false for a local close.
    StreamClosed { handle: StreamHandle, error: bool },
    /// A datagram arrived on a listening port.
    DgramRecv {
        local_port: u16,
        src: Endpoint,
        bytes: Bytes,
    },
}

fn peer_node(key: &ConnKey, is_initiator: bool) -> NodeAddr {
    if is_initiator {
        key.responder.node
    } else {
        key.initiator.node
    }
}

struct Conn {
    state: StreamState,
    handle: StreamHandle,
    owner: ActorId,
    /// Deadline for which a timer is currently armed (earliest).
    armed: Option<SimTime>,
}

/// The network stack actor for one node.
pub struct NetStack {
    node: NodeAddr,
    net: NetFabric,
    conns: BTreeMap<ConnKey, Conn>,
    handles: BTreeMap<StreamHandle, ConnKey>,
    next_handle: u64,
    next_ephemeral: u16,
    stream_listeners: BTreeMap<u16, ActorId>,
    dgram_listeners: BTreeMap<u16, ActorId>,
}

impl NetStack {
    /// A stack for `node`. [`NetFabric::add_stack`] builds and binds a new
    /// one; this is for restarting one in place (`World::restart`).
    pub fn new(node: NodeAddr, net: NetFabric) -> Self {
        NetStack {
            node,
            net,
            conns: BTreeMap::new(),
            handles: BTreeMap::new(),
            next_handle: 1,
            next_ephemeral: ports::EPHEMERAL_BASE,
            stream_listeners: BTreeMap::new(),
            dgram_listeners: BTreeMap::new(),
        }
    }

    fn alloc_handle(&mut self) -> StreamHandle {
        let h = StreamHandle(self.next_handle);
        self.next_handle += 1;
        h
    }

    /// Transmit stream frames toward the peer, scheduling delivery events.
    fn tx_stream(&mut self, ctx: &mut Ctx<'_>, peer: NodeAddr, frames: Vec<StreamFrame>) {
        for sf in frames {
            let frame = Frame {
                src: self.node,
                dst: peer,
                payload: FramePayload::Stream(sf),
            };
            self.tx_frame(ctx, frame);
        }
    }

    fn tx_frame(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
        let now = ctx.now();
        let size = frame.wire_size();
        let dst = frame.dst;
        let src = frame.src;
        if let Some((arrival, stack)) = self.net.transmit(now, src, dst, size) {
            ctx.send_to_in(
                stack,
                &flows::NET_FRAME,
                arrival.since(now),
                Box::new(frame),
            );
        }
    }

    /// Ensure the retransmission timer covers the connection's next
    /// deadline.
    fn arm_timer(ctx: &mut Ctx<'_>, conn: &mut Conn) {
        let Some(deadline) = conn.state.next_deadline() else {
            return;
        };
        let need = match conn.armed {
            Some(armed) => deadline < armed,
            None => true,
        };
        if need {
            conn.armed = Some(deadline);
            let now = ctx.now();
            ctx.send_self(
                &flows::NET_RTO,
                deadline.since(now).max(magma_sim::SimDuration(1)),
                conn.handle.0,
            );
        }
    }

    fn handle_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: SockCmd) {
        match cmd {
            SockCmd::ListenStream { port, owner } => {
                self.stream_listeners.insert(port, owner);
            }
            SockCmd::ListenDgram { port, owner } => {
                self.dgram_listeners.insert(port, owner);
            }
            SockCmd::OpenStream { peer, owner } => {
                let local_port = self.next_ephemeral;
                self.next_ephemeral = self.next_ephemeral.checked_add(1).unwrap_or(ports::EPHEMERAL_BASE);
                let key = ConnKey {
                    initiator: Endpoint::new(self.node, local_port),
                    responder: peer,
                };
                let handle = self.alloc_handle();
                let mut state = StreamState::new(key, true, StreamConfig::default());
                let syn = state.open(ctx.now());
                let conn = Conn {
                    state,
                    handle,
                    owner,
                    armed: None,
                };
                self.conns.insert(key, conn);
                self.handles.insert(handle, key);
                self.tx_stream(ctx, peer.node, vec![syn]);
                if let Some(conn) = self.conns.get_mut(&key) {
                    Self::arm_timer(ctx, conn);
                }
                ctx.send_to(
                    owner,
                    &flows::SOCK_EVENT,
                    Box::new(SockEvent::StreamOpened { handle, peer }),
                );
            }
            SockCmd::StreamSend { handle, bytes } => {
                let Some(key) = self.handles.get(&handle).copied() else {
                    return;
                };
                let now = ctx.now();
                let (frames, peer, dead) = {
                    let conn = self.conns.get_mut(&key).unwrap();
                    if conn.state.dead {
                        (Vec::new(), NodeAddr(0), true)
                    } else {
                        let frames = conn.state.app_send(bytes, now);
                        let peer = peer_node(&key, conn.state.is_initiator);
                        (frames, peer, false)
                    }
                };
                if dead {
                    return;
                }
                self.tx_stream(ctx, peer, frames);
                let conn = self.conns.get_mut(&key).unwrap();
                Self::arm_timer(ctx, conn);
            }
            SockCmd::StreamClose { handle } => {
                let Some(key) = self.handles.remove(&handle) else {
                    return;
                };
                if let Some(conn) = self.conns.remove(&key) {
                    let peer = peer_node(&key, conn.state.is_initiator);
                    let reset = StreamFrame::Reset {
                        key,
                        from_initiator: conn.state.is_initiator,
                    };
                    self.tx_stream(ctx, peer, vec![reset]);
                    ctx.send_to(
                        conn.owner,
                        &flows::SOCK_EVENT,
                        Box::new(SockEvent::StreamClosed {
                            handle,
                            error: false,
                        }),
                    );
                }
            }
            SockCmd::DgramSend {
                src_port,
                dst,
                bytes,
            } => {
                let frame = Frame {
                    src: self.node,
                    dst: dst.node,
                    payload: FramePayload::Dgram {
                        src_port,
                        dst_port: dst.port,
                        bytes,
                    },
                };
                self.tx_frame(ctx, frame);
            }
        }
    }

    fn handle_frame(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
        match frame.payload {
            FramePayload::Dgram {
                src_port,
                dst_port,
                bytes,
            } => {
                if let Some(&owner) = self.dgram_listeners.get(&dst_port) {
                    ctx.send_to(
                        owner,
                        &flows::SOCK_EVENT,
                        Box::new(SockEvent::DgramRecv {
                            local_port: dst_port,
                            src: Endpoint::new(frame.src, src_port),
                            bytes,
                        }),
                    );
                }
            }
            FramePayload::Stream(sf) => self.handle_stream_frame(ctx, sf),
        }
    }

    fn handle_stream_frame(&mut self, ctx: &mut Ctx<'_>, sf: StreamFrame) {
        let key = sf.key();
        let now = ctx.now();
        let we_are_responder = key.responder.node == self.node && sf.from_initiator();

        if !self.conns.contains_key(&key) {
            match (&sf, we_are_responder) {
                (StreamFrame::Syn { .. }, true) => {
                    // Passive open on Syn only (TCP semantics). A listener
                    // must exist; otherwise refuse.
                    let Some(&owner) = self.stream_listeners.get(&key.responder.port) else {
                        let reset = StreamFrame::Reset {
                            key,
                            from_initiator: false,
                        };
                        self.tx_stream(ctx, key.initiator.node, vec![reset]);
                        return;
                    };
                    let handle = self.alloc_handle();
                    self.conns.insert(
                        key,
                        Conn {
                            state: StreamState::new(key, false, StreamConfig::default()),
                            handle,
                            owner,
                            armed: None,
                        },
                    );
                    self.handles.insert(handle, key);
                    ctx.send_to(
                        owner,
                        &flows::SOCK_EVENT,
                        Box::new(SockEvent::StreamAccepted {
                            handle,
                            local_port: key.responder.port,
                            peer: key.initiator,
                        }),
                    );
                }
                _ => {
                    // Data/Ack for a connection we have no state for —
                    // e.g. retransmissions into a restarted stack. Drop
                    // silently: the sender's retry budget will exhaust
                    // and it will reconnect with a fresh Syn. (A reset
                    // here would also kill legitimate reordered opens.)
                    return;
                }
            }
        }

        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        if let StreamFrame::Reset { .. } = sf {
            let handle = conn.handle;
            let owner = conn.owner;
            self.handles.remove(&handle);
            self.conns.remove(&key);
            ctx.send_to(
                owner,
                &flows::SOCK_EVENT,
                Box::new(SockEvent::StreamClosed { handle, error: true }),
            );
            return;
        }
        let (frames, deliver) = conn.state.on_frame(sf, now);
        let handle = conn.handle;
        let owner = conn.owner;
        for bytes in deliver {
            ctx.send_to(
                owner,
                &flows::SOCK_EVENT,
                Box::new(SockEvent::StreamRecv { handle, bytes }),
            );
        }
        let peer = peer_node(&key, conn.state.is_initiator);
        self.tx_stream(ctx, peer, frames);
        if let Some(conn) = self.conns.get_mut(&key) {
            Self::arm_timer(ctx, conn);
        }
    }

    fn handle_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let handle = StreamHandle(tag);
        let Some(key) = self.handles.get(&handle).copied() else {
            return;
        };
        let now = ctx.now();
        let conn = self.conns.get_mut(&key).unwrap();
        conn.armed = None;
        // If the earliest deadline is still in the future, just re-arm.
        if let Some(dl) = conn.state.next_deadline() {
            if dl > now {
                Self::arm_timer(ctx, conn);
                return;
            }
        } else {
            return;
        }
        match conn.state.on_rto(now) {
            RtoOutcome::Retransmit(frames) => {
                let peer = peer_node(&key, conn.state.is_initiator);
                self.tx_stream(ctx, peer, frames);
                if let Some(conn) = self.conns.get_mut(&key) {
                    Self::arm_timer(ctx, conn);
                }
            }
            RtoOutcome::Dead => {
                let owner = conn.owner;
                let is_initiator = conn.state.is_initiator;
                self.handles.remove(&handle);
                self.conns.remove(&key);
                let peer = peer_node(&key, is_initiator);
                let reset = StreamFrame::Reset {
                    key,
                    from_initiator: is_initiator,
                };
                self.tx_stream(ctx, peer, vec![reset]);
                ctx.send_to(
                    owner,
                    &flows::SOCK_EVENT,
                    Box::new(SockEvent::StreamClosed { handle, error: true }),
                );
            }
            RtoOutcome::Idle => {}
        }
    }
}

impl Actor for NetStack {
    fn dispatch(&self) -> Option<&'static magma_sim::Dispatch> {
        Some(&crate::flows::STACK_DISPATCH)
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                // A stack that comes up later (its node was replaced)
                // starts elsewhere in the ephemeral range, one port per
                // millisecond since time zero. Were it to reuse its
                // predecessor's ports, peers that never saw those
                // connections close would take the new stream's frames
                // for the old one's and silently drop its data.
                let range = u64::from(u16::MAX - ports::EPHEMERAL_BASE);
                let offset = ctx.now().as_micros() / 1_000 % range;
                self.next_ephemeral = ports::EPHEMERAL_BASE + offset as u16;
            }
            Event::Timer { tag } => self.handle_timer(ctx, tag),
            Event::Msg { payload, .. } => match try_downcast::<SockCmd>(payload) {
                Ok(cmd) => self.handle_cmd(ctx, cmd),
                Err(payload) => {
                    let frame = downcast::<Frame>(payload, "netstack");
                    self.handle_frame(ctx, frame);
                }
            },
            Event::CpuDone { .. } => {}
        }
    }

    fn name(&self) -> String {
        format!("netstack-{}", self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkProfile;
    use magma_sim::{HostSpec, SimDuration, World};

    /// Test app: echoes received stream bytes back, records datagrams.
    struct EchoServer {
        stack: ActorId,
        port: u16,
    }

    impl Actor for EchoServer {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            match event {
                Event::Start => {
                    let me = ctx.id();
                    ctx.send_to(
                        self.stack,
                        &flows::SOCK_CMD,
                        Box::new(SockCmd::ListenStream {
                            port: self.port,
                            owner: me,
                        }),
                    );
                    ctx.send_to(
                        self.stack,
                        &flows::SOCK_CMD,
                        Box::new(SockCmd::ListenDgram {
                            port: self.port,
                            owner: me,
                        }),
                    );
                }
                Event::Msg { payload, .. } => {
                    match downcast::<SockEvent>(payload, "echo") {
                        SockEvent::StreamRecv { handle, bytes } => {
                            let t = ctx.now();
                            ctx.registry().record("server.rx", t, bytes.len() as f64);
                            let cmd = SockCmd::StreamSend { handle, bytes };
                            ctx.send_to(self.stack, &flows::SOCK_CMD, Box::new(cmd));
                        }
                        SockEvent::DgramRecv { bytes, .. } => {
                            let t = ctx.now();
                            ctx.registry().record("server.dgram", t, bytes.len() as f64);
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
    }

    /// Test client: opens a stream, sends a payload, records the echo.
    struct Client {
        stack: ActorId,
        server: Endpoint,
        payload: usize,
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
                Event::Msg { payload, .. } => match downcast::<SockEvent>(payload, "client") {
                    SockEvent::StreamOpened { handle, peer } => {
                        assert_eq!(peer, self.server);
                        ctx.send_to(
                            self.stack,
                            &flows::SOCK_CMD,
                            Box::new(SockCmd::StreamSend {
                                handle,
                                bytes: Bytes::from(vec![5u8; self.payload]),
                            }),
                        );
                    }
                    SockEvent::StreamRecv { bytes, .. } => {
                        let t = ctx.now();
                        ctx.registry().record("client.echo", t, bytes.len() as f64);
                    }
                    SockEvent::StreamClosed { error, .. } => {
                        let t = ctx.now();
                        ctx.registry()
                            .record("client.closed", t, error as u8 as f64);
                    }
                    _ => {}
                },
                _ => {}
            }
        }
    }

    /// A fresh world with client and server nodes joined by `profile`,
    /// each with its stack.
    fn two_nodes(profile: LinkProfile) -> (World, NetFabric, [(NodeAddr, ActorId); 2]) {
        let mut w = World::new(3);
        let net = NetFabric::new();
        let a = net.add_node("client");
        let b = net.add_node("server");
        net.connect(a, b, profile);
        let sa = net.add_stack(&mut w, a);
        let sb = net.add_stack(&mut w, b);
        (w, net, [(a, sa), (b, sb)])
    }

    fn build(profile: LinkProfile, payload: usize) -> World {
        let (mut w, _, [(_, sa), (b, sb)]) = two_nodes(profile);
        w.add_host(HostSpec::uniform("x", 1, 1.0));
        w.add_actor(Box::new(EchoServer {
            stack: sb,
            port: 8000,
        }));
        w.add_actor(Box::new(Client {
            stack: sa,
            server: Endpoint::new(b, 8000),
            payload,
        }));
        w
    }

    #[test]
    fn stream_echo_over_clean_link() {
        let mut w = build(LinkProfile::lan(), 100);
        w.run_until(SimTime::from_secs(5));
        let echoed: f64 = w.registry().series("client.echo").unwrap().values().sum();
        assert_eq!(echoed, 100.0);
    }

    /// The client's node is replaced (stack and app restart) while the
    /// server still holds the first connection, which never closed. The
    /// replacement's stream must be a new connection to the server, not a
    /// continuation of that one — whose sequence numbers it would fall
    /// behind, so its bytes would be acknowledged and discarded.
    #[test]
    fn a_replaced_node_does_not_reuse_its_predecessors_connection() {
        let (mut w, net, [(a, sa), (b, sb)]) = two_nodes(LinkProfile::lan());
        w.add_actor(Box::new(EchoServer {
            stack: sb,
            port: 8000,
        }));
        let client = || Client {
            stack: sa,
            server: Endpoint::new(b, 8000),
            payload: 100,
        };
        let app = w.add_actor(Box::new(client()));
        w.run_until(SimTime::from_secs(5));
        let echoed = |w: &World| {
            w.registry()
                .series("client.echo")
                .unwrap()
                .values()
                .sum::<f64>()
        };
        assert_eq!(echoed(&w), 100.0);

        w.crash(app);
        w.crash(sa);
        w.run_until(SimTime::from_secs(7));
        w.restart(sa, Box::new(NetStack::new(a, net)));
        w.restart(app, Box::new(client()));
        w.run_until(SimTime::from_secs(12));
        assert_eq!(echoed(&w), 200.0, "the replacement's bytes were echoed too");
    }

    #[test]
    fn large_transfer_over_lossy_satellite_completes() {
        // 2% loss, 300ms latency: raw datagrams would lose ~segments, the
        // stream layer must recover everything.
        let mut w = build(LinkProfile::satellite(), 50_000);
        w.run_until(SimTime::from_secs(120));
        let echoed: f64 = w.registry().series("client.echo").unwrap().values().sum();
        assert_eq!(echoed, 50_000.0, "all bytes echoed despite loss");
    }

    #[test]
    fn stream_to_dead_port_gets_reset() {
        let (mut w, _, [(_, sa), (b, _)]) = two_nodes(LinkProfile::lan());
        w.add_actor(Box::new(Client {
            stack: sa,
            server: Endpoint::new(b, 4444), // nobody listens
            payload: 10,
        }));
        w.run_until(SimTime::from_secs(5));
        let closed = w.registry().series("client.closed").unwrap();
        assert_eq!(closed.values().last(), Some(1.0), "error close");
    }

    #[test]
    fn dgram_delivery_and_loss() {
        let (mut w, _, [(_, sa), (b, sb)]) = two_nodes(LinkProfile::lan().with_loss(0.5));
        w.add_actor(Box::new(EchoServer {
            stack: sb,
            port: 9000,
        }));

        struct Spammer {
            stack: ActorId,
            dst: Endpoint,
        }
        impl Actor for Spammer {
            fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
                if let Event::Start = event {
                    for _ in 0..200 {
                        ctx.send_to(
                            self.stack,
                            &flows::SOCK_CMD,
                            Box::new(SockCmd::DgramSend {
                                src_port: 1111,
                                dst: self.dst,
                                bytes: Bytes::from_static(b"ping"),
                            }),
                        );
                    }
                }
            }
        }
        w.add_actor(Box::new(Spammer {
            stack: sa,
            dst: Endpoint::new(b, 9000),
        }));
        w.run_until(SimTime::from_secs(2));
        let got = w.registry().series("server.dgram").map(|s| s.len()).unwrap_or(0);
        assert!(got > 50 && got < 150, "~50% datagram loss, got {got}/200");
    }

    #[test]
    fn partition_kills_stream_eventually() {
        let (mut w, net, [(a, sa), (b, sb)]) = two_nodes(LinkProfile::lan());
        w.add_actor(Box::new(EchoServer {
            stack: sb,
            port: 8000,
        }));
        // Client that keeps sending every 100ms.
        struct Chatty {
            stack: ActorId,
            server: Endpoint,
            handle: Option<StreamHandle>,
        }
        impl Actor for Chatty {
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
                    Event::Timer { .. } => {
                        if let Some(h) = self.handle {
                            ctx.send_to(
                                self.stack,
                                &flows::SOCK_CMD,
                                Box::new(SockCmd::StreamSend {
                                    handle: h,
                                    bytes: Bytes::from_static(b"hi"),
                                }),
                            );
                            ctx.timer_in(SimDuration::from_millis(100), 0);
                        }
                    }
                    Event::Msg { payload, .. } => match downcast::<SockEvent>(payload, "chatty") {
                        SockEvent::StreamOpened { handle, .. } => {
                            self.handle = Some(handle);
                            ctx.timer_in(SimDuration::from_millis(100), 0);
                        }
                        SockEvent::StreamClosed { error, .. } => {
                            let t = ctx.now();
                            ctx.registry().record("chatty.dead", t, error as u8 as f64);
                            self.handle = None;
                        }
                        _ => {}
                    },
                    _ => {}
                }
            }
        }
        w.add_actor(Box::new(Chatty {
            stack: sa,
            server: Endpoint::new(b, 8000),
            handle: None,
        }));
        w.run_until(SimTime::from_secs(1));
        // Partition forever: retransmissions exhaust and the conn dies.
        net.set_link_up(a, b, false);
        w.run_until(SimTime::from_secs(200));
        let dead = w.registry().series("chatty.dead");
        assert!(dead.is_some(), "stream should die after partition");
    }
}
