//! Framed connections over the stream transport: S1AP and Diameter
//! (which ride SCTP and TCP in 3GPP) as `[u32 length][body]` messages of
//! at most [`MAX_LP_LEN`], and `magma-rpc`'s frames. A client holds its
//! one stream in a [`Dialer`] and a server its accepted streams in an
//! [`Acceptor`]; both reassemble with [`Reassembler`], so every framing
//! and close-on-poison rule lives here.

use crate::addr::Endpoint;
use crate::flows;
use crate::stack::{SockCmd, SockEvent};
use crate::stream::StreamHandle;
use bytes::{BufMut, Bytes, BytesMut};
use magma_sim::{ActorId, Ctx, FlowKind, SimDuration};
use std::collections::BTreeMap;

/// How long a persistent 3GPP link (S1, Diameter) waits after its stream
/// closes before it dials again. Its owner arms the wait with a plain
/// timer; RPC clients do not use it (they redial when a call waits).
pub const REDIAL: SimDuration = SimDuration::from_secs(2);

/// Prefix a message with its u32 length.
pub fn lp_encode(msg: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + msg.len());
    b.put_u32(msg.len() as u32);
    b.put_slice(msg);
    b.freeze()
}

/// Largest message a peer may announce: 128 KiB. S1AP carries its NAS
/// container under a u16 length and an S6a answer at most 255 vectors,
/// so no message these codecs build comes near it. A longer prefix is
/// hostile or corrupt — four bytes must not make the receiver buffer
/// 4 GiB.
pub const MAX_LP_LEN: usize = 128 << 10;

/// Reassembler for `[u32 length][body]` messages of at most `CAP` bytes,
/// over arbitrary segmentation.
///
/// A length prefix beyond `CAP` poisons it: framing is lost for good, so
/// it drops what it holds and ignores further input, and the [`Dialer`]
/// or [`Acceptor`] that owns it closes the stream. The messages ahead of
/// the bad prefix are still delivered.
#[derive(Debug, Default)]
pub struct Reassembler<const CAP: usize> {
    buf: Vec<u8>,
    poisoned: bool,
}

impl<const CAP: usize> Reassembler<CAP> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed bytes; hands each complete message body to `each`, in order.
    /// The buffer is walked once and drained once per call.
    pub fn push_each(&mut self, bytes: &[u8], mut each: impl FnMut(&[u8])) {
        if self.poisoned {
            return;
        }
        self.buf.extend_from_slice(bytes);
        let mut consumed = 0;
        while let Some(&[b0, b1, b2, b3]) = self.buf.get(consumed..consumed + 4) {
            let len = u32::from_be_bytes([b0, b1, b2, b3]) as usize;
            if len > CAP {
                self.poisoned = true;
                self.buf = Vec::new();
                return;
            }
            let Some(body) = self.buf.get(consumed + 4..consumed + 4 + len) else {
                break;
            };
            each(body);
            consumed += 4 + len;
        }
        self.buf.drain(..consumed);
    }

    /// Bytes currently buffered awaiting more data.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True once an over-long prefix was seen; the stream must be closed.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// [`push_each`](Self::push_each) for the stream `handle` on `stack`,
    /// handing `each` the context too; the push that poisons the
    /// reassembler asks the stack to close the stream, whose
    /// `StreamClosed` then comes back to the owner.
    fn feed(
        &mut self,
        ctx: &mut Ctx<'_>,
        stack: ActorId,
        handle: StreamHandle,
        bytes: &[u8],
        mut each: impl FnMut(&mut Ctx<'_>, &[u8]),
    ) {
        if self.poisoned {
            return;
        }
        self.push_each(bytes, |m| each(ctx, m));
        if self.poisoned {
            let close = SockCmd::StreamClose { handle };
            ctx.send_to(stack, &flows::SOCK_CMD, Box::new(close));
        }
    }
}

/// What a [`Dialer`] or an [`Acceptor`] made of one of its own streams'
/// [`SockEvent`]s.
#[derive(Debug, PartialEq)]
pub enum Edge<T = ()> {
    /// The stream opened (a dialer's) or was accepted (an acceptor's).
    Opened(StreamHandle),
    /// Bytes arrived; each whole message went to the callback.
    Recv(StreamHandle),
    /// The stream is gone; an acceptor hands back its state.
    Closed(StreamHandle, T),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Dial {
    Idle,
    Opening,
    Open(StreamHandle),
}

/// One client stream to one peer, framed by a [`Reassembler<CAP>`].
///
/// [`open`](Self::open) dials unless a stream is open or opening; the
/// stack's `StreamOpened` is recognised by the peer dialed, as no actor
/// dials one peer twice. A poisoned stream is closed once, and after a
/// close the next stream starts with an empty reassembler. When to dial
/// again is the owner's: a persistent 3GPP link waits [`REDIAL`], an RPC
/// client dials when a call is waiting.
#[derive(Debug)]
pub struct Dialer<const CAP: usize> {
    stack: ActorId,
    peer: Endpoint,
    state: Dial,
    frames: Reassembler<CAP>,
}

impl<const CAP: usize> Dialer<CAP> {
    pub fn new(stack: ActorId, peer: Endpoint) -> Self {
        Dialer {
            stack,
            peer,
            state: Dial::Idle,
            frames: Reassembler::new(),
        }
    }

    pub fn is_open(&self) -> bool {
        matches!(self.state, Dial::Open(_))
    }

    /// Dial the peer, unless a stream is already open or opening.
    pub fn open(&mut self, ctx: &mut Ctx<'_>) {
        if self.state == Dial::Idle {
            self.state = Dial::Opening;
            let owner = ctx.id();
            let open = SockCmd::OpenStream {
                peer: self.peer,
                owner,
            };
            ctx.send_to(self.stack, &flows::SOCK_CMD, Box::new(open));
        }
    }

    /// Send `bytes` on the open stream as `kind`; dropped if none is open.
    pub fn send(&self, ctx: &mut Ctx<'_>, kind: &'static FlowKind, bytes: Bytes) {
        if let Dial::Open(handle) = self.state {
            ctx.send_to(self.stack, kind, Box::new(SockCmd::StreamSend { handle, bytes }));
        }
    }

    /// Close the open stream; its [`Edge::Closed`] follows.
    pub fn close(&self, ctx: &mut Ctx<'_>) {
        if let Dial::Open(handle) = self.state {
            let close = SockCmd::StreamClose { handle };
            ctx.send_to(self.stack, &flows::SOCK_CMD, Box::new(close));
        }
    }

    /// Offer a `SockEvent`: each whole message that arrived goes to
    /// `each`, in order. `Err` hands back an event that is not this
    /// dialer's — another peer's, or for a stream it no longer holds.
    pub fn on_event(
        &mut self,
        ctx: &mut Ctx<'_>,
        ev: SockEvent,
        each: impl FnMut(&mut Ctx<'_>, &[u8]),
    ) -> Result<Edge, SockEvent> {
        match ev {
            SockEvent::StreamOpened { handle, peer }
                if peer == self.peer && self.state == Dial::Opening =>
            {
                self.state = Dial::Open(handle);
                Ok(Edge::Opened(handle))
            }
            SockEvent::StreamRecv { handle, bytes } if self.state == Dial::Open(handle) => {
                self.frames.feed(ctx, self.stack, handle, &bytes, each);
                Ok(Edge::Recv(handle))
            }
            SockEvent::StreamClosed { handle, .. } if self.state == Dial::Open(handle) => {
                self.state = Dial::Idle;
                self.frames = Reassembler::new();
                Ok(Edge::Closed(handle, ()))
            }
            other => Err(other),
        }
    }
}

/// A server's accepted streams, each framed by a [`Reassembler<CAP>`]
/// and carrying its owner's per-connection state `T`: inserted on
/// accept, closed on poison, removed on close (handing `T` back).
#[derive(Debug)]
pub struct Acceptor<const CAP: usize, T> {
    stack: ActorId,
    conns: BTreeMap<StreamHandle, (Reassembler<CAP>, T)>,
}

impl<const CAP: usize, T> Acceptor<CAP, T> {
    pub fn new(stack: ActorId) -> Self {
        Acceptor {
            stack,
            conns: BTreeMap::new(),
        }
    }

    /// Accept streams to `port`; call from the owner's `Start` event.
    pub fn listen(&self, ctx: &mut Ctx<'_>, port: u16) {
        let owner = ctx.id();
        let listen = SockCmd::ListenStream { port, owner };
        ctx.send_to(self.stack, &flows::SOCK_CMD, Box::new(listen));
    }

    /// Send `bytes` on `handle` as `kind`. The stack drops what is sent
    /// on a stream that has closed.
    pub fn send(&self, ctx: &mut Ctx<'_>, handle: StreamHandle, kind: &'static FlowKind, bytes: Bytes) {
        ctx.send_to(self.stack, kind, Box::new(SockCmd::StreamSend { handle, bytes }));
    }

    pub fn get(&self, handle: StreamHandle) -> Option<&T> {
        self.conns.get(&handle).map(|(_, t)| t)
    }

    pub fn get_mut(&mut self, handle: StreamHandle) -> Option<&mut T> {
        self.conns.get_mut(&handle).map(|(_, t)| t)
    }

    /// The live connections, in handle order.
    pub fn iter(&self) -> impl Iterator<Item = (StreamHandle, &T)> {
        self.conns.iter().map(|(&h, (_, t))| (h, t))
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (StreamHandle, &mut T)> {
        self.conns.iter_mut().map(|(&h, (_, t))| (h, t))
    }

    /// Offer a `SockEvent`. An accepted stream is kept if `accept`, given
    /// its local port and peer, returns its state; each whole message
    /// that arrives goes to `each`, in order. `Err` hands back an event
    /// that is not this acceptor's.
    pub fn on_event(
        &mut self,
        ctx: &mut Ctx<'_>,
        ev: SockEvent,
        accept: impl FnOnce(u16, Endpoint) -> Option<T>,
        each: impl FnMut(&mut Ctx<'_>, &[u8]),
    ) -> Result<Edge<T>, SockEvent> {
        match ev {
            SockEvent::StreamAccepted {
                handle,
                local_port,
                peer,
            } => match accept(local_port, peer) {
                Some(t) => {
                    self.conns.insert(handle, (Reassembler::new(), t));
                    Ok(Edge::Opened(handle))
                }
                None => Err(SockEvent::StreamAccepted {
                    handle,
                    local_port,
                    peer,
                }),
            },
            SockEvent::StreamRecv { handle, bytes } => match self.conns.get_mut(&handle) {
                Some((frames, _)) => {
                    frames.feed(ctx, self.stack, handle, &bytes, each);
                    Ok(Edge::Recv(handle))
                }
                None => Err(SockEvent::StreamRecv { handle, bytes }),
            },
            SockEvent::StreamClosed { handle, error } => match self.conns.remove(&handle) {
                Some((_, t)) => Ok(Edge::Closed(handle, t)),
                None => Err(SockEvent::StreamClosed { handle, error }),
            },
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type LpFramer = Reassembler<MAX_LP_LEN>;

    impl LpFramer {
        fn push(&mut self, bytes: &[u8]) -> Vec<Vec<u8>> {
            let mut out = Vec::new();
            self.push_each(bytes, |m| out.push(m.to_vec()));
            out
        }
    }

    #[test]
    fn roundtrip_and_fragmentation() {
        let m1 = lp_encode(b"hello");
        let m2 = lp_encode(b"world!");
        let mut all = Vec::new();
        all.extend_from_slice(&m1);
        all.extend_from_slice(&m2);
        let mut f = LpFramer::new();
        let mut got = Vec::new();
        for chunk in all.chunks(3) {
            got.extend(f.push(chunk));
        }
        assert_eq!(got.len(), 2);
        assert_eq!(&got[0][..], b"hello");
        assert_eq!(&got[1][..], b"world!");
    }

    #[test]
    fn prefix_beyond_the_cap_poisons_and_drops_what_follows() {
        let mut f = LpFramer::new();
        assert!(f.push(&(MAX_LP_LEN as u32).to_be_bytes()).is_empty());
        assert!(!f.is_poisoned(), "a prefix at the cap waits for its body");
        let mut f = LpFramer::new();
        let mut stream = lp_encode(b"before").to_vec();
        stream.extend_from_slice(&(MAX_LP_LEN as u32 + 1).to_be_bytes());
        let got = f.push(&stream);
        assert_eq!(got.len(), 1, "the message ahead of the prefix is delivered");
        assert_eq!(&got[0][..], b"before");
        assert!(f.is_poisoned());
        assert!(f.push(&lp_encode(b"after")).is_empty());
    }

    #[test]
    fn empty_message_ok() {
        let mut f = LpFramer::new();
        let got = f.push(&lp_encode(b""));
        assert_eq!(got.len(), 1);
        assert!(got[0].is_empty());
    }

    use crate::addr::NodeAddr;
    use magma_sim::{downcast, Actor, Event, SimTime, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Stands where the stack would and writes down each command it is
    /// given: `open <port>` or `close <handle>`.
    struct Recorder(Rc<RefCell<Vec<String>>>);

    impl Actor for Recorder {
        fn handle(&mut self, _: &mut Ctx<'_>, event: Event) {
            if let Event::Msg { payload, .. } = event {
                let line = match downcast::<SockCmd>(payload, "recorder") {
                    SockCmd::OpenStream { peer, .. } => format!("open {}", peer.port),
                    SockCmd::StreamClose { handle } => format!("close {}", handle.0),
                    other => format!("{other:?}"),
                };
                self.0.borrow_mut().push(line);
            }
        }
    }

    /// Runs `script` at start in an actor beside a [`Recorder`] stack;
    /// returns what the stack was told.
    fn run(script: impl FnOnce(&mut Ctx<'_>, ActorId) + 'static) -> Vec<String> {
        type Run = Box<dyn FnOnce(&mut Ctx<'_>)>;
        struct Script(Option<Run>);
        impl Actor for Script {
            fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
                if let (Event::Start, Some(script)) = (event, self.0.take()) {
                    script(ctx);
                }
            }
        }
        let mut w = World::new(1);
        let cmds = Rc::new(RefCell::new(Vec::new()));
        let stack = w.add_actor(Box::new(Recorder(cmds.clone())));
        w.add_actor(Box::new(Script(Some(Box::new(move |ctx| script(ctx, stack))))));
        w.run_until(SimTime::from_secs(1));
        let cmds = cmds.borrow().clone();
        cmds
    }

    const PEER: Endpoint = Endpoint {
        node: NodeAddr(9),
        port: 36412,
    };

    fn opened(h: u64, peer: Endpoint) -> SockEvent {
        SockEvent::StreamOpened {
            handle: StreamHandle(h),
            peer,
        }
    }

    fn recv(h: u64, bytes: &[u8]) -> SockEvent {
        SockEvent::StreamRecv {
            handle: StreamHandle(h),
            bytes: Bytes::copy_from_slice(bytes),
        }
    }

    fn closed(h: u64) -> SockEvent {
        SockEvent::StreamClosed {
            handle: StreamHandle(h),
            error: true,
        }
    }

    /// Feeds `ev` to `d`; returns the edge, or `None` for an `Err`, and
    /// the messages handed over.
    fn offer(d: &mut LpDialer, ctx: &mut Ctx<'_>, ev: SockEvent) -> (Option<Edge>, Vec<Vec<u8>>) {
        let mut got = Vec::new();
        let edge = d.on_event(ctx, ev, |_, m| got.push(m.to_vec())).ok();
        (edge, got)
    }

    type LpDialer = Dialer<MAX_LP_LEN>;

    #[test]
    fn a_poisoned_dialer_closes_once_and_its_next_stream_starts_empty() {
        let cmds = run(|ctx, stack| {
            let mut d = LpDialer::new(stack, PEER);
            d.open(ctx);
            d.open(ctx);
            assert_eq!(offer(&mut d, ctx, opened(1, PEER)).0, Some(Edge::Opened(StreamHandle(1))));
            let mut hostile = lp_encode(b"ahead").to_vec();
            hostile.extend_from_slice(&(MAX_LP_LEN as u32 + 1).to_be_bytes());
            let (edge, got) = offer(&mut d, ctx, recv(1, &hostile));
            assert_eq!(edge, Some(Edge::Recv(StreamHandle(1))));
            assert_eq!(got, [b"ahead".to_vec()], "the message ahead of the prefix");
            // Bytes still in flight before the close lands: taken, unread,
            // and no second close.
            let (edge, got) = offer(&mut d, ctx, recv(1, &lp_encode(b"late")));
            assert_eq!((edge, got.len()), (Some(Edge::Recv(StreamHandle(1))), 0));
            assert_eq!(offer(&mut d, ctx, closed(1)).0, Some(Edge::Closed(StreamHandle(1), ())));
            assert!(!d.is_open());
            // The reopened stream's first bytes are read from scratch.
            d.open(ctx);
            offer(&mut d, ctx, opened(2, PEER));
            let (_, got) = offer(&mut d, ctx, recv(2, &lp_encode(b"fresh")));
            assert_eq!(got, [b"fresh".to_vec()]);
        });
        assert_eq!(cmds, ["open 36412", "close 1", "open 36412"]);
    }

    #[test]
    fn a_dialer_hands_back_what_is_not_its_own() {
        let cmds = run(|ctx, stack| {
            let mut d = LpDialer::new(stack, PEER);
            let other = Endpoint::new(NodeAddr(9), 3868);
            // Not dialed yet, then another peer's open.
            assert_eq!(offer(&mut d, ctx, opened(1, PEER)).0, None);
            d.open(ctx);
            assert_eq!(offer(&mut d, ctx, opened(1, other)).0, None);
            assert!(offer(&mut d, ctx, opened(2, PEER)).0.is_some());
            // Another handle's bytes and close.
            assert_eq!(offer(&mut d, ctx, recv(1, &lp_encode(b"x"))).0, None);
            assert_eq!(offer(&mut d, ctx, closed(1)).0, None);
            // A stream half way through a message, then closed: its
            // events come back from then on.
            let half = &lp_encode(b"half")[..6];
            assert!(offer(&mut d, ctx, recv(2, half)).1.is_empty());
            d.close(ctx);
            assert!(offer(&mut d, ctx, closed(2)).0.is_some());
            assert_eq!(offer(&mut d, ctx, recv(2, &lp_encode(b"x"))).0, None);
            assert_eq!(offer(&mut d, ctx, closed(2)).0, None);
            // The next stream does not see the half message.
            d.open(ctx);
            offer(&mut d, ctx, opened(3, PEER));
            assert_eq!(offer(&mut d, ctx, recv(3, &lp_encode(b"whole"))).1, [b"whole".to_vec()]);
        });
        assert_eq!(cmds, ["open 36412", "close 2", "open 36412"]);
    }

    #[test]
    fn an_acceptor_keeps_state_per_stream_and_hands_it_back_on_close() {
        let cmds = run(|ctx, stack| {
            let mut a = Acceptor::<MAX_LP_LEN, u16>::new(stack);
            let offer = |a: &mut Acceptor<MAX_LP_LEN, u16>, ctx: &mut Ctx<'_>, ev| {
                let mut got = Vec::new();
                let accept = |port, _| (port != 80).then_some(port);
                let edge = a.on_event(ctx, ev, accept, |_, m| got.push(m.to_vec())).ok();
                (edge, got)
            };
            let accepted = |h, local_port| SockEvent::StreamAccepted {
                handle: StreamHandle(h),
                local_port,
                peer: PEER,
            };
            assert_eq!(offer(&mut a, ctx, accepted(1, 36412)).0, Some(Edge::Opened(StreamHandle(1))));
            assert_eq!(offer(&mut a, ctx, accepted(2, 3868)).0, Some(Edge::Opened(StreamHandle(2))));
            // Declined by `accept`, and a stream it never accepted.
            assert_eq!(offer(&mut a, ctx, accepted(3, 80)).0, None);
            assert_eq!(offer(&mut a, ctx, recv(3, &lp_encode(b"x"))).0, None);
            *a.get_mut(StreamHandle(2)).unwrap() += 1;
            let (edge, got) = offer(&mut a, ctx, recv(1, &lp_encode(b"s1")));
            assert_eq!((edge, got), (Some(Edge::Recv(StreamHandle(1))), vec![b"s1".to_vec()]));
            // A poisoned stream is closed once and forgotten on its close.
            let hostile = (MAX_LP_LEN as u32 + 1).to_be_bytes();
            offer(&mut a, ctx, recv(2, &hostile));
            offer(&mut a, ctx, recv(2, &hostile));
            assert_eq!(offer(&mut a, ctx, closed(2)).0, Some(Edge::Closed(StreamHandle(2), 3869)));
            assert_eq!(offer(&mut a, ctx, closed(2)).0, None);
            let live: Vec<_> = a.iter().map(|(h, &port)| (h.0, port)).collect();
            assert_eq!(live, [(1, 36412)]);
        });
        assert_eq!(cmds, ["close 2"]);
    }
}
