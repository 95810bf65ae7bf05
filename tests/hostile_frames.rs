//! Hostile bytes through the RPC framer, both ways a frame can be parsed:
//! fresh (`Framer::push`) and into a spare body tree (`push_with`, the
//! `codec::parse` path the orchestrator's server takes for checkpoint
//! uploads). The frames are
//! the ones `codec.rs` pins and a real checkpoint upload, with bytes
//! flipped, dropped, inserted and keys duplicated, fed in random chunks.
//! Neither way may panic or buffer past `MAX_FRAME_LEN`, and both must
//! deliver and refuse exactly the same frames, with the same contents.
//! The S1AP and Diameter framers meet a hostile prefix inside a running
//! gateway and inside every other owner of such a stream.

use magma::feg::{FegActor, MnoCoreActor};
use magma::net::{flows as net_flows, ports, Endpoint, LinkProfile, NetFabric, SockCmd, SockEvent};
use magma::orc8r::{flows, methods, CheckpointPush};
use magma::prelude::*;
use magma::ran::{EnbConfig, EnodebActor};
use magma::rpc::{codec, encode_frame, Framer, RpcFrame, RpcKind, Spare, MAX_FRAME_LEN};
use magma::sim::{try_downcast, Actor, ActorId, Ctx, Event, World};
use magma::subscriber::SubscriberDb;
use magma_epc_baseline::EpcCoreActor;
use serde_json::{json, Value};

/// splitmix64, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The methods a spare may be handed back for (`Spare` wants `'static`).
const METHODS: [&str; 3] = [methods::CHECKPOINT, methods::CHECKIN, methods::PUSH_SUBSCRIBERS];

/// The frames `codec.rs` pins byte for byte, plus a real checkpoint
/// upload from a small site, as sent.
fn frames() -> Vec<Vec<u8>> {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 12,
        attach_rate_per_sec: 4.0,
        ..SiteSpec::typical()
    };
    let mut d = magma::deploy(ScenarioConfig::new(5).with_agw(AgwSpec::bare_metal(site)));
    d.world.run_until(SimTime::from_millis(12_500));
    let gw = &d.agws[0].id;
    let state = d.orc8r.borrow().checkpoints[gw].clone();
    assert!(state["sessions"]["sessions"]
        .as_object()
        .is_some_and(|s| s.len() >= 10));
    let upload = CheckpointPush {
        agw_id: gw.clone(),
        state,
    };
    let body = json!({"agw_id": "agw-1", "n": [1, 2.0, null], "s": "q\"\\\n\u{1}é"});
    [
        codec::encode(RpcKind::Request, 4, flows::CHECKPOINT.name, &upload),
        encode_frame(&RpcFrame::request(7, "orc8r.Checkin", body)),
        encode_frame(&RpcFrame::response(7, json!({}))),
        encode_frame(&RpcFrame::error(9, "unregistered gateway")),
        encode_frame(&RpcFrame::push(
            3,
            "sync.Subscribers",
            json!({"version": 3, "subscribers": []}),
        )),
    ]
    .iter()
    .map(|b| b.to_vec())
    .collect()
}

/// A frame's text with one hostile edit, under a prefix that matches it
/// (so the parser, not the framing, meets the edit).
fn mutate_text(rng: &mut Rng, frame: &[u8]) -> Vec<u8> {
    let mut t = frame[4..].to_vec();
    let at = rng.below(t.len() + 1);
    match rng.below(5) {
        0 if at < t.len() => t[at] ^= 1 << rng.below(8),
        1 => t.truncate(at),
        2 => {
            let bytes = b"{}[]\",:\\-0e\xc3\x80\x1f";
            t.insert(at, bytes[rng.below(bytes.len())]);
        }
        3 => {
            // Duplicate a key: the body, the id, or a key of the state.
            let (key, dup): (&[u8], &[u8]) = *[
                (&b"{\"body\":"[..], &b"{\"body\":{\"x\":[1]},\"body\":"[..]),
                (b",\"id\":", b",\"id\":1,\"id\":"),
                (b"\"state\":{", b"\"state\":{\"sessions\":7,"),
                (b"\"sessions\":{", b"\"sessions\":{\"1\":null,"),
            ]
            .get(rng.below(4))
            .unwrap();
            if let Some(p) = t.windows(key.len()).position(|w| w == key) {
                t.splice(p..p + key.len(), dup.iter().copied());
            }
        }
        _ => {
            let end = (at + rng.below(24)).min(t.len());
            let piece = t[at..end].to_vec();
            t.splice(at..at, piece);
        }
    }
    let mut framed = (t.len() as u32).to_be_bytes().to_vec();
    framed.extend(t);
    framed
}

/// What a framer made of a stream: frames, refusals, poisoned.
#[derive(Debug, PartialEq)]
struct Outcome {
    frames: Vec<RpcFrame>,
    rejected: u64,
    poisoned: bool,
}

/// Feed `stream` in the given chunk sizes. With a spare, every delivered
/// body is handed back for its method, so the next frame of that method
/// is parsed into the tree of the one before (the first into `primer`).
fn feed(stream: &[u8], chunks: &[usize], primer: Option<&Value>) -> Outcome {
    let mut framer = Framer::new();
    let mut spare = primer.map(|body| Spare {
        method: flows::CHECKPOINT.name,
        body: body.clone(),
    });
    let mut frames = Vec::new();
    let mut rest = stream;
    for &n in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(n.min(rest.len()));
        rest = tail;
        let got = match primer {
            None => framer.push(chunk),
            Some(_) => framer.push_with(chunk, &mut spare),
        };
        assert!(
            framer.buffered() <= MAX_FRAME_LEN + 4,
            "buffers past the cap"
        );
        for f in got {
            if primer.is_some() {
                if let Some(&method) = METHODS.iter().find(|m| **m == f.method) {
                    spare = Some(Spare {
                        method,
                        body: f.body.clone(),
                    });
                }
            }
            frames.push(f);
        }
    }
    Outcome {
        frames,
        rejected: framer.rejected(),
        poisoned: framer.is_poisoned(),
    }
}

#[test]
fn mutated_frames_meet_the_same_fate_with_and_without_a_spare() {
    let frames = frames();
    // A spare shaped like a checkpoint body, but of another upload.
    let primer = serde_json::from_slice::<RpcFrame>(&mutate_text(&mut Rng(1), &frames[0])[4..])
        .map(|f| f.body)
        .unwrap_or_else(|_| json!({"agw_id": "agw-9", "state": {"sessions": {"1": {}}}}));
    let mut delivered = 0;
    for case in 0..400u64 {
        let rng = &mut Rng(case);
        let mut stream = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let frame = &frames[rng.below(frames.len())];
            match rng.below(3) {
                0 => stream.extend_from_slice(frame),
                _ => stream.extend(mutate_text(rng, frame)),
            }
        }
        // Raw damage too, prefixes included, now and then.
        if rng.below(4) == 0 && !stream.is_empty() {
            let at = rng.below(stream.len());
            stream[at] ^= 1 << rng.below(8);
        }
        stream.extend_from_slice(&frames[2]);
        let chunks: Vec<usize> = (0..1 + rng.below(6)).map(|_| 1 + rng.below(3000)).collect();
        let fresh = feed(&stream, &chunks, None);
        let reused = feed(&stream, &chunks, Some(&primer));
        assert_eq!(fresh, reused, "case {case}");
        delivered += fresh.frames.len();
    }
    assert!(
        delivered > 400,
        "most streams still carry good frames: {delivered}"
    );
}

#[test]
fn only_a_frame_naming_the_spare_method_takes_it_and_a_refused_one_drops_it() {
    let frames = frames();
    let checkpoint = &frames[0];
    let mut framer = Framer::new();
    let mut spare = Some(Spare {
        method: flows::CHECKPOINT.name,
        body: json!({"state": [1, 2]}),
    });
    // Another method's request leaves the spare where it is.
    assert_eq!(framer.push_with(&frames[1], &mut spare).len(), 1);
    assert!(spare.is_some());
    // A checkpoint upload with a garbled state still ends naming the
    // method: it takes the spare, fails, and both are dropped.
    let mut broken = checkpoint.clone();
    let state_at = broken.windows(8).position(|w| w == b"\"state\":").unwrap();
    broken[state_at + 8] = b'!';
    assert!(framer.push_with(&broken, &mut spare).is_empty());
    assert_eq!(framer.rejected(), 1);
    assert!(spare.is_none());
    assert_eq!(
        framer.push_with(checkpoint, &mut spare),
        Framer::new().push(checkpoint)
    );
}

/// Which end of the stream the hostile peer is.
#[derive(Clone, Copy)]
enum Hostile {
    /// Opens a stream to this endpoint.
    Dials(Endpoint),
    /// Accepts streams on this port.
    Listens(u16),
}

/// A peer (its stack, its end) that announces a 4 GiB message on every
/// stream it opens or accepts, and counts the streams opened and closed
/// under it.
struct HostilePeer(ActorId, Hostile);

impl Actor for HostilePeer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        let owner = ctx.id();
        let cmd = match (event, self.1) {
            (Event::Start, Hostile::Dials(peer)) => SockCmd::OpenStream { peer, owner },
            (Event::Start, Hostile::Listens(port)) => SockCmd::ListenStream { port, owner },
            (Event::Msg { payload, .. }, _) => match try_downcast::<SockEvent>(payload) {
                Ok(
                    SockEvent::StreamOpened { handle, .. }
                    | SockEvent::StreamAccepted { handle, .. },
                ) => {
                    ctx.registry().counter_add("test.hostile_opened", 1.0);
                    SockCmd::StreamSend {
                        handle,
                        bytes: vec![0xff; 4].into(),
                    }
                }
                Ok(SockEvent::StreamClosed { .. }) => {
                    return ctx.registry().counter_add("test.hostile_closed", 1.0)
                }
                _ => return,
            },
            _ => return,
        };
        ctx.send_to(self.0, &net_flows::SOCK_CMD, Box::new(cmd));
    }
}

#[test]
fn the_gateway_closes_an_s1ap_stream_announcing_4_gib_and_keeps_attaching() {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 12,
        attach_rate_per_sec: 4.0,
        ..SiteSpec::typical()
    };
    let mut d = magma::deploy(ScenarioConfig::new(5).with_agw(AgwSpec::bare_metal(site)));
    let agw = Endpoint::new(d.agws[0].node, ports::S1AP);
    d.add_behind(0, "hostile-enb", |stack| HostilePeer(stack, Hostile::Dials(agw)));
    d.world.run_until(SimTime::from_secs(20));
    assert_eq!(d.world.registry().counter("test.hostile_closed"), 1.0);
    let gw = d.agws[0].handle.borrow();
    assert_eq!(gw.connected_enbs, 1, "the real eNodeB keeps its S1 link");
    assert_eq!(gw.active_sessions, 12, "every UE of the real eNodeB attached");
}

/// Every other owner of a length-prefixed S1AP or Diameter stream, each
/// against a peer that announces 4 GiB: the eNodeB and the FeG dial
/// theirs, the EPC core and the MNO core accept theirs. Each closes the
/// stream.
#[test]
fn every_lp_stream_owner_closes_a_stream_announcing_4_gib() {
    /// Builds the owner from its stack, the hostile peer's endpoint (for
    /// owners that dial) and the hostile peer's actor.
    type Owner = fn(ActorId, Endpoint, ActorId) -> Box<dyn Actor>;
    let cases: [(&str, u16, bool, Owner); 4] = [
        ("enodeb", ports::S1AP, true, |stack, mme, mme_actor| {
            let cfg = EnbConfig::new(1, stack, mme, mme_actor);
            Box::new(EnodebActor::new(cfg, Vec::new()))
        }),
        ("epc core", ports::S1AP, false, |stack, _, _| {
            Box::new(EpcCoreActor::new(stack, SubscriberDb::new(), 0.0))
        }),
        ("mno core", ports::DIAMETER, false, |stack, _, _| {
            Box::new(MnoCoreActor::new(stack, SubscriberDb::new()))
        }),
        ("feg", ports::DIAMETER, true, |stack, mno, _| {
            Box::new(FegActor::new(stack, mno))
        }),
    ];
    for (name, port, owner_dials, owner) in cases {
        let w = against_hostile(name, port, owner_dials, owner, SimTime::from_secs(1));
        // The owners that dial reconnect, and meet the prefix again.
        let closed = w.registry().counter("test.hostile_closed");
        assert!(closed >= 1.0, "{name} closes the stream");
    }
}

/// Runs `owner` (built from its stack, the hostile peer's endpoint and
/// the hostile peer's actor) on a LAN against a [`HostilePeer`] on
/// `port` until `until`: the peer listens when the owner dials, and
/// dials otherwise.
fn against_hostile(
    name: &str,
    port: u16,
    owner_dials: bool,
    owner: fn(ActorId, Endpoint, ActorId) -> Box<dyn Actor>,
    until: SimTime,
) -> World {
    let mut w = World::new(3);
    let net = NetFabric::new();
    let owner_node = net.add_node(name);
    let hostile_node = net.add_node("hostile");
    net.connect(owner_node, hostile_node, LinkProfile::lan());
    let owner_stack = net.add_stack(&mut w, owner_node);
    let hostile_stack = net.add_stack(&mut w, hostile_node);
    let hostile = if owner_dials {
        Hostile::Listens(port)
    } else {
        Hostile::Dials(Endpoint::new(owner_node, port))
    };
    let hostile = w.add_actor(Box::new(HostilePeer(hostile_stack, hostile)));
    w.add_actor(owner(owner_stack, Endpoint::new(hostile_node, port), hostile));
    w.run_until(until);
    w
}

/// A Diameter peer that poisons every stream gets one dial per redial
/// interval from the FeG, not one per round trip: ten seconds hold the
/// first dial and at most five redials.
#[test]
fn the_feg_waits_before_redialing_a_diameter_peer_that_announces_4_gib() {
    let w = against_hostile(
        "feg",
        ports::DIAMETER,
        true,
        |stack, mno, _| Box::new(FegActor::new(stack, mno)),
        SimTime::from_secs(10),
    );
    let opened = w.registry().counter("test.hostile_opened");
    assert!(opened >= 1.0, "the FeG dials");
    assert!(opened <= 6.0, "the FeG opened {opened} streams in 10 s");
}
