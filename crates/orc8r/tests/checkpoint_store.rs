//! The checkpoint the orchestrator stores, after many uploads that were
//! each parsed into the tree the one before displaced: always what a
//! fresh parse of the last upload gives, whatever shape the tree it was
//! parsed into had, from whichever gateway.

use bytes::Bytes;
use magma_net::{Endpoint, NodeAddr, SockEvent, StreamHandle};
use magma_orc8r::{flows, new_orc8r, CheckpointPush, Orc8rActor, Orc8rHandle};
use magma_rpc::{codec, RpcKind};
use magma_sim::{Actor, ActorId, Ctx, Event, SimTime, World};
use serde_json::{json, Value};

/// Swallows what the orchestrator sends; only what it stores matters here.
struct NullStack;

impl Actor for NullStack {
    fn handle(&mut self, _: &mut Ctx<'_>, _: Event) {}
}

const PORT: u16 = 8443;

struct Rig {
    w: World,
    orc8r: ActorId,
    state: Orc8rHandle,
    now_ms: u64,
}

impl Rig {
    fn new(gateways: u64) -> Rig {
        let mut w = World::new(3);
        let stack = w.add_actor(Box::new(NullStack));
        let state = new_orc8r(1);
        let orc8r = w.add_actor(Box::new(Orc8rActor::new(state.clone(), stack, PORT)));
        let mut rig = Rig {
            w,
            orc8r,
            state,
            now_ms: 0,
        };
        for n in 1..=gateways {
            rig.deliver(SockEvent::StreamAccepted {
                handle: StreamHandle(n),
                local_port: PORT,
                peer: Endpoint::new(NodeAddr(n as u32), 49_152),
            });
        }
        rig
    }

    fn deliver(&mut self, ev: SockEvent) {
        self.w.inject(self.orc8r, Box::new(ev));
        self.now_ms += 1;
        self.w.run_until(SimTime::from_millis(self.now_ms));
    }

    /// Gateway `n` uploads `frame`, split across two stream segments.
    fn upload(&mut self, n: u64, frame: &Bytes) {
        let cut = frame.len() / 3;
        for part in [frame.slice(..cut), frame.slice(cut..)] {
            self.deliver(SockEvent::StreamRecv {
                handle: StreamHandle(n),
                bytes: part,
            });
        }
    }

    fn stored(&self, n: u64) -> Value {
        self.state.borrow().checkpoints[&format!("agw{n}")].clone()
    }
}

/// Upload `i`'s state: sessions come and go, strings change length,
/// arrays grow and shrink, a key appears every third upload.
fn state(i: u64) -> Value {
    let sessions: serde_json::Map<String, Value> = (i..i + 4 + i % 3)
        .map(|s| {
            let rules: Vec<Value> = (0..s % 4)
                .map(|r| json!({"id": format!("rule-{r}")}))
                .collect();
            (
                s.to_string(),
                json!({"imsi": "310260".repeat(1 + s as usize % 3), "ip": s, "rules": rules}),
            )
        })
        .collect();
    let mut st = json!({"sessions": sessions, "taken_at_us": i * 1_000_000, "cert": 7});
    if i.is_multiple_of(3) {
        st.as_object_mut()
            .unwrap()
            .insert("extra".to_string(), json!([i, "x"]));
    }
    st
}

fn frame(id: u64, n: u64, state: Value) -> Bytes {
    let body = CheckpointPush {
        agw_id: format!("agw{n}"),
        state,
    };
    codec::encode(RpcKind::Request, id, flows::CHECKPOINT.name, &body)
}

#[test]
fn every_stored_checkpoint_equals_a_fresh_parse_of_its_upload() {
    let mut rig = Rig::new(2);
    for i in 0..24 {
        let n = 1 + i % 2;
        let wire = frame(i, n, state(i));
        rig.upload(n, &wire);
        let fresh: magma_rpc::RpcFrame = serde_json::from_slice(&wire[4..]).unwrap();
        let push: CheckpointPush = serde_json::from_value(fresh.body).unwrap();
        assert_eq!(rig.stored(n), push.state, "upload {i} from agw{n}");
    }
    // A body that is not a checkpoint is refused and stores nothing; a
    // good upload after it is stored as sent, and an upload taken earlier
    // than the one stored is refused.
    let bad = codec::encode(
        RpcKind::Request,
        99,
        flows::CHECKPOINT.name,
        &json!({"state": 1}),
    );
    rig.upload(1, &bad);
    assert_eq!(rig.stored(1), state(22));
    rig.upload(1, &frame(100, 1, state(26)));
    assert_eq!(rig.stored(1), state(26));
    rig.upload(1, &frame(101, 1, state(5)));
    assert_eq!(rig.stored(1), state(26));
}

/// The displaced tree really is what the next upload is parsed into: a
/// string buffer of gateway 1's first checkpoint turns up, refilled, in
/// the checkpoint stored after gateway 1's second upload displaced it.
#[test]
fn the_next_upload_is_parsed_into_the_displaced_tree() {
    let mut rig = Rig::new(1);
    let long = |tag: &str| json!({"blob": tag.repeat(64)});
    rig.upload(1, &frame(1, 1, long("a")));
    let first = rig.state.borrow().checkpoints["agw1"]["blob"]
        .as_str()
        .unwrap()
        .as_ptr();
    rig.upload(1, &frame(2, 1, long("b")));
    rig.upload(1, &frame(3, 1, long("c")));
    let third = &rig.state.borrow().checkpoints["agw1"];
    assert_eq!(*third, long("c"));
    assert_eq!(third["blob"].as_str().unwrap().as_ptr(), first);
}
