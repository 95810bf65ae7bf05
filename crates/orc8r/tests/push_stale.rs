//! What the orchestrator sends down, seen at the socket: each check-in is
//! answered with what brings *that* gateway current, and a push tick
//! sends one body — encoded once — per version the stale gateways hold.
//! A stand-in records the `SockCmd`s where the net stack would be.

use bytes::Bytes;
use magma_net::{Endpoint, NodeAddr, SockCmd, SockEvent, StreamHandle};
use magma_orc8r::{flows, new_orc8r, CheckinRequest, CheckinResponse, Orc8rActor, Orc8rHandle};
use magma_rpc::{codec, Framer, RpcFrame, RpcKind};
use magma_sim::{downcast, Actor, ActorId, Ctx, Event, SimTime, World};
use magma_subscriber::{DbSync, SubscriberProfile};
use magma_wire::Imsi;
use std::cell::RefCell;
use std::rc::Rc;

type Sent = Rc<RefCell<Vec<(StreamHandle, Bytes)>>>;

struct RecordingStack(Sent);

impl Actor for RecordingStack {
    fn handle(&mut self, _: &mut Ctx<'_>, event: Event) {
        if let Event::Msg { payload, .. } = event {
            if let SockCmd::StreamSend { handle, bytes } = downcast::<SockCmd>(payload, "stack") {
                self.0.borrow_mut().push((handle, bytes));
            }
        }
    }
}

const PORT: u16 = 8443;

struct Rig {
    w: World,
    orc8r: ActorId,
    state: Orc8rHandle,
    sent: Sent,
    /// Simulated ms; every step advances it so events stay ordered.
    now_ms: u64,
}

impl Rig {
    fn new() -> Rig {
        let mut w = World::new(5);
        w.enable_profiling(true);
        let sent = Sent::default();
        let stack = w.add_actor(Box::new(RecordingStack(sent.clone())));
        let state = new_orc8r(1_000_000);
        let orc8r = w.add_actor(Box::new(Orc8rActor::new(state.clone(), stack, PORT)));
        Rig {
            w,
            orc8r,
            state,
            sent,
            now_ms: 0,
        }
    }

    fn deliver(&mut self, ev: SockEvent) {
        self.w.inject(self.orc8r, Box::new(ev));
        self.now_ms += 1;
        self.w.run_until(SimTime::from_millis(self.now_ms));
    }

    /// Gateway `n` connects on stream `n` and registers.
    fn connect(&mut self, n: u64) {
        self.deliver(SockEvent::StreamAccepted {
            handle: StreamHandle(n),
            local_port: PORT,
            peer: Endpoint::new(NodeAddr(n as u32), 49_152),
        });
        self.state.borrow_mut().bootstrap(&format!("agw{n}"), 0);
    }

    /// Gateway `n` checks in holding `db_version`; returns the reply.
    fn checkin(&mut self, n: u64, db_version: u64) -> CheckinResponse {
        let agw_id = format!("agw{n}");
        let req = CheckinRequest {
            cert: self.state.borrow().devices[&agw_id].cert,
            agw_id,
            db_version,
            enbs: Vec::new(),
            active_sessions: 0,
            metrics: Default::default(),
        };
        let before = self.sent.borrow().len();
        self.deliver(SockEvent::StreamRecv {
            handle: StreamHandle(n),
            bytes: codec::encode(RpcKind::Request, 1, flows::CHECKIN.name, &req),
        });
        let sent = self.sent.borrow();
        let [(to, bytes)] = sent.get(before..).expect("grew") else {
            panic!("one reply per check-in");
        };
        assert_eq!(*to, StreamHandle(n));
        serde_json::from_value(frame(bytes).body).expect("a check-in response")
    }

    fn write(&mut self, msin: u64) {
        self.state
            .borrow_mut()
            .upsert_subscriber(SubscriberProfile::lte(Imsi::new(310, 26, msin), 7, msin));
    }

    fn encodings(&self) -> u64 {
        self.w
            .profile()
            .virt
            .scopes
            .iter()
            .find(|s| s.label == "rpc.encode")
            .map_or(0, |s| s.count)
    }
}

fn frame(wire: &Bytes) -> RpcFrame {
    let mut frames = Framer::new().push(wire);
    assert_eq!(frames.len(), 1);
    frames.remove(0)
}

fn changes(sync: DbSync) -> (u64, u64, usize) {
    match sync {
        DbSync::Changes(ch) => (ch.from, ch.to, ch.subscribers.len()),
        DbSync::Full(s) => panic!("full snapshot at v{}", s.version),
    }
}

#[test]
fn a_push_is_encoded_once_per_version_the_stale_gateways_hold() {
    let mut rig = Rig::new();
    for msin in 1..=5 {
        rig.write(msin);
    }
    for n in 1..=3 {
        rig.connect(n);
    }
    // A connection that never checks in (metricsd's) is never pushed to.
    rig.deliver(SockEvent::StreamAccepted {
        handle: StreamHandle(9),
        local_port: PORT,
        peer: Endpoint::new(NodeAddr(9), 49_152),
    });

    // Gateways 1 and 2 are current at v5. Gateway 3 checks in one write
    // later, still holding v5, and is answered with that one row.
    assert_eq!(rig.checkin(1, 5).sync, None);
    assert_eq!(rig.checkin(2, 5).sync, None);
    rig.write(6);
    let reply = rig.checkin(3, 5);
    assert_eq!(reply.latest_version, 6);
    assert_eq!(changes(reply.sync.expect("stale")), (5, 6, 1));

    // One more write, then the push tick (500 ms): gateways 1 and 2 hold
    // v5 and share one body, gateway 3 holds v6 and gets its own.
    rig.write(7);
    let (replies, encoded) = (rig.sent.borrow().len(), rig.encodings());
    assert_eq!((replies, encoded), (3, 3));
    rig.w.run_until(SimTime::from_millis(600));
    assert_eq!(rig.encodings() - encoded, 2, "two versions held, two encodings");
    {
        let sent = rig.sent.borrow();
        let pushes = sent.get(replies..).expect("grew");
        let to: Vec<u64> = pushes.iter().map(|(h, _)| h.0).collect();
        assert_eq!(to, [1, 2, 3]);
        assert_eq!(pushes[0].1, pushes[1].1, "same bytes to the same version");
        for ((_, wire), expect) in pushes.iter().zip([(5, 7, 2), (5, 7, 2), (6, 7, 1)]) {
            let f = frame(wire);
            assert_eq!((f.kind, f.id, f.method.as_str()), (RpcKind::Push, 7, "sync.Subscribers"));
            assert_eq!(changes(serde_json::from_value(f.body).unwrap()), expect);
        }
    }

    // Everyone was brought to v7: the next tick has nothing to send.
    let sent = rig.sent.borrow().len();
    rig.w.run_until(SimTime::from_millis(1_100));
    assert_eq!(rig.sent.borrow().len(), sent);
    assert_eq!(rig.w.metrics().counter("orc8r.pushes"), 3.0);
}

#[test]
fn a_checkin_from_further_back_than_the_log_reaches_gets_the_full_snapshot() {
    let mut rig = Rig::new();
    for msin in 1..=300 {
        rig.write(msin);
    }
    rig.connect(1);
    rig.connect(2);
    // 100 versions behind: the rows that changed. 300 behind, or a fresh
    // replica at v0: everything.
    assert_eq!(changes(rig.checkin(1, 200).sync.expect("stale")), (200, 300, 100));
    for held in [0, 40] {
        match rig.checkin(2, held).sync {
            Some(DbSync::Full(snap)) => {
                assert_eq!((snap.version, snap.subscribers.len()), (300, 300));
            }
            other => panic!("v{held}: expected the full snapshot, got {other:?}"),
        }
    }
    // A gateway that reports a version older than it was just sent (its
    // replica did not take the reply) is believed, and sent it again.
    assert_eq!(changes(rig.checkin(1, 200).sync.expect("stale")), (200, 300, 100));
}
