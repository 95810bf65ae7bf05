//! Micro-benchmarks on the hot paths the figures depend on: data-plane
//! packet processing, EPS-AKA vector generation (the attach pipeline's
//! crypto), wire codecs, the RPC frame + body codec, subscriber-database
//! replication (full snapshot vs changes), the event queue, and the
//! reliable stream.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use magma_dataplane::{
    session_rules, DesiredState, FluidEntry, PacketMeta, Pipeline, SessionProgram,
};
use magma_sim::{SimTime, World};
use magma_wire::aka;
use magma_wire::nas::NasMessage;
use magma_wire::s1ap::{EnbUeId, S1apMessage};
use magma_wire::{Imsi, Teid, UeIp};

/// `n` unmetered LTE sessions, keyed by cookie.
fn sessions(n: u64) -> DesiredState {
    let mut desired = DesiredState::default();
    for i in 0..n {
        desired.programs.insert(i, session_program(i, Teid(200 + i as u32)));
    }
    desired
}

fn session_program(i: u64, dl_teid: Teid) -> SessionProgram {
    SessionProgram {
        rules: session_rules(
            i,
            UeIp(1000 + i as u32),
            Teid(100 + i as u32),
            dl_teid,
            None,
            None,
            "default",
        ),
        meters: Vec::new(),
        fluid: Some(FluidEntry {
            cookie: i,
            ul_meter: None,
            dl_meter: None,
            rule_name: "default".to_string(),
        }),
    }
}

fn dataplane(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataplane");
    g.throughput(Throughput::Elements(1));
    g.bench_function("uplink_packet_100_sessions", |b| {
        let mut p = Pipeline::new();
        p.set_desired(&sessions(100));
        let pkt = PacketMeta::uplink(Teid(150), UeIp(1050), 1400);
        b.iter(|| std::hint::black_box(p.process(pkt, SimTime::ZERO)))
    });
    // What one session change costs an AGW holding 500 sessions (the
    // `attach_churn` table): recompile the touched session, hand over the
    // full state with the key named. A path switch flips the dl TEID.
    g.bench_function("reprogram_one_of_500", |b| {
        let mut desired = sessions(500);
        let mut p = Pipeline::new();
        p.set_desired(&desired);
        let mut flip = 0u32;
        b.iter(|| {
            flip ^= 1;
            desired.programs.insert(250, session_program(250, Teid(9000 + flip)));
            p.set_desired_for(&desired, [250]);
            std::hint::black_box(p.reconcile_ops)
        })
    });
    // The same change through the full walk (start/restore, and what the
    // frozen `dataplane.set_desired_us` probe times).
    g.bench_function("set_desired_full_500", |b| {
        let mut desired = sessions(500);
        let mut p = Pipeline::new();
        p.set_desired(&desired);
        let mut flip = 0u32;
        b.iter(|| {
            flip ^= 1;
            desired.programs.insert(250, session_program(250, Teid(9000 + flip)));
            p.set_desired(&desired);
            std::hint::black_box(p.reconcile_ops)
        })
    });
    g.finish();
}

fn crypto(c: &mut Criterion) {
    let (k, opc) = aka::provision(1, 1);
    let mut g = c.benchmark_group("aka");
    g.bench_function("generate_vector", |b| {
        let mut sqn = 0;
        b.iter(|| {
            sqn += 1;
            std::hint::black_box(aka::generate_vector(&k, &opc, sqn, aka::Rand([7; 16])))
        })
    });
    g.bench_function("ue_verify", |b| {
        let v = aka::generate_vector(&k, &opc, 1, aka::Rand([7; 16]));
        b.iter(|| std::hint::black_box(aka::ue_verify(&k, &opc, &v.rand, &v.autn, 0)))
    });
    g.finish();
}

fn codecs(c: &mut Criterion) {
    let nas = NasMessage::AttachRequest {
        imsi: Imsi::new(310, 26, 42),
        capabilities: 3,
    };
    let s1ap = S1apMessage::InitialUeMessage {
        enb_ue_id: EnbUeId(5),
        nas: nas.encode(),
    };
    let enc = s1ap.encode();
    let mut g = c.benchmark_group("codecs");
    g.throughput(Throughput::Bytes(enc.len() as u64));
    g.bench_function("s1ap_encode", |b| {
        b.iter(|| std::hint::black_box(s1ap.encode().len()))
    });
    g.bench_function("s1ap_decode", |b| {
        b.iter(|| std::hint::black_box(S1apMessage::decode(&enc).unwrap()))
    });
    let gtpu = magma_wire::gtp::GtpUPacket::gpdu(Teid(9), Bytes::from(vec![0u8; 1400]));
    let gtpu_enc = gtpu.encode();
    g.throughput(Throughput::Bytes(gtpu_enc.len() as u64));
    g.bench_function("gtpu_roundtrip_1400B", |b| {
        b.iter(|| {
            let e = gtpu.encode();
            std::hint::black_box(magma_wire::gtp::GtpUPacket::decode(&e).unwrap())
        })
    });
    g.finish();
}

/// The RPC layer as the 1 Hz checkpoint and the check-in use it: typed
/// body → frame bytes, and stream segments → frame → typed body.
fn rpc(c: &mut Criterion) {
    use magma::orc8r::{flows, CheckinRequest, CheckpointPush, CheckpointPushRef};
    use magma::prelude::*;
    use magma::rpc::{codec, Framer, RpcKind};
    use magma::subscriber::SubscriberDb;

    // Figure 5's typical site, run until all 288 UEs hold a session; the
    // gateway's own last checkpoint, as uploaded (runtime state only:
    // sessions, leases, cert, SQN marks), is the payload.
    let cfg = ScenarioConfig::new(42).with_agw(AgwSpec::bare_metal(SiteSpec::typical()));
    let mut site = magma::deploy(cfg);
    site.world.run_until(SimTime::from_secs(120));
    let gw = site.agws.first().expect("one gateway");
    let cp = gw
        .handle
        .borrow()
        .checkpoint
        .clone()
        .expect("checkpoint taken");
    assert_eq!(cp.sessions.len(), 288);

    let sqn = {
        let mut replica = SubscriberDb::new();
        replica.apply_snapshot(cp.db.clone());
        replica.sqn_marks()
    };
    let encode_checkpoint = || {
        let push = CheckpointPushRef {
            agw_id: &cp.agw_id,
            state: &cp.wire(&sqn),
        };
        codec::encode(RpcKind::Request, 1, flows::CHECKPOINT.name, &push)
    };
    let wire = encode_checkpoint();
    let mut g = c.benchmark_group("rpc");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("encode_checkpoint_288", |b| {
        b.iter(|| std::hint::black_box(encode_checkpoint().len()))
    });
    g.bench_function("decode_checkpoint_288", |b| {
        let mut framer = Framer::new();
        b.iter(|| {
            // MSS-sized segments, as the stream transport delivers them.
            let mut frames = Vec::new();
            for segment in wire.chunks(1400) {
                frames.extend(framer.push(segment));
            }
            let body = frames.pop().expect("one frame").body;
            std::hint::black_box(serde_json::from_value::<CheckpointPush>(body).unwrap())
        })
    });
    let checkin = CheckinRequest {
        agw_id: cp.agw_id.clone(),
        cert: 7,
        db_version: cp.db.version,
        enbs: vec![1, 2, 3],
        active_sessions: 288,
        metrics: ["attach.start", "attach.accept", "attach.reject"]
            .map(|k| (k.to_string(), 288.0))
            .into(),
    };
    g.throughput(Throughput::Elements(1));
    g.bench_function("small_frame_roundtrip", |b| {
        let mut framer = Framer::new();
        b.iter(|| {
            let wire = codec::encode(RpcKind::Request, 7, flows::CHECKIN.name, &checkin);
            let body = framer.push(&wire).pop().expect("one frame").body;
            std::hint::black_box(serde_json::from_value::<CheckinRequest>(body).unwrap())
        })
    });
    g.finish();
}

/// Replicating one northbound write to a gateway, both ways the
/// orchestrator can send it: `config_push_down`'s database (560 rows),
/// one row rewritten since the replica's version.
fn subscriber(c: &mut Criterion) {
    use magma::subscriber::{DbSync, SubscriberDb, SubscriberProfile};

    let row = |n: u64, ambr: u32| {
        SubscriberProfile::lte(Imsi::new(310, 26, n), 7, n)
            .with_ambr(magma::policy::Ambr::new(ambr, 5_000))
    };
    let mut db = SubscriberDb::new();
    for n in 1..=560 {
        db.upsert(row(n, 20_000));
    }
    let mut replica = SubscriberDb::new();
    replica.apply_snapshot(db.snapshot());
    db.upsert(row(7, 21_000));
    let behind = replica.version;

    let mut g = c.benchmark_group("subscriber");
    g.bench_function("snapshot_560", |b| {
        b.iter(|| std::hint::black_box(db.snapshot()))
    });
    g.bench_function("apply_snapshot_560", |b| {
        let snap = db.snapshot();
        b.iter(|| {
            let mut r = replica.clone();
            r.apply_snapshot(snap.clone());
            std::hint::black_box(r.version)
        })
    });
    g.bench_function("changes_since_1_of_560", |b| {
        b.iter(|| std::hint::black_box(db.changes_since(behind)))
    });
    g.bench_function("apply_changes_1_of_560", |b| {
        let changes = db.changes_since(behind).expect("one version back");
        // The replica clone is in both apply benches, so they compare.
        b.iter(|| {
            let mut r = replica.clone();
            r.apply_sync(DbSync::Changes(changes.clone()));
            std::hint::black_box(r.version)
        })
    });
    g.finish();
}

fn engine(c: &mut Criterion) {
    use magma_sim::{Actor, Ctx, Event, SimDuration};
    /// Self-messaging actor: one event per hop.
    struct Looper {
        hops: u32,
    }
    impl Actor for Looper {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            if let Event::Msg { payload, .. } = event {
                let v = magma_sim::downcast::<u32>(payload, "looper");
                if v < self.hops {
                    let me = ctx.id();
                    ctx.send_in(me, SimDuration::from_micros(1), Box::new(v + 1));
                }
            }
        }
    }
    c.bench_function("engine/100k_events", |b| {
        b.iter(|| {
            let mut w = World::new(1);
            let a = w.add_actor(Box::new(Looper { hops: 100_000 }));
            w.inject(a, Box::new(0u32));
            std::hint::black_box(w.run_to_quiescence(300_000))
        })
    });
}

fn registry(c: &mut Criterion) {
    use magma_sim::{Registry, Span};
    let mut g = c.benchmark_group("registry");
    g.throughput(Throughput::Elements(1));
    g.bench_function("counter_add_hot", |b| {
        let mut reg = Registry::new();
        reg.counter_add("agw0.mme.attach_accept", 1.0);
        b.iter(|| reg.counter_add("agw0.mme.attach_accept", 1.0))
    });
    g.bench_function("histogram_observe", |b| {
        let mut reg = Registry::new();
        let mut v = 0.0f64;
        b.iter(|| {
            v = (v + 0.0137) % 30.0;
            reg.observe("agw0.mme.attach.total_s", v)
        })
    });
    g.bench_function("span_attach_stages", |b| {
        let mut reg = Registry::new();
        b.iter(|| {
            let mut s = Span::begin("mme.attach", SimTime(0));
            s.mark("s1ap", SimTime(1_000));
            s.mark("nas_auth", SimTime(20_000));
            s.mark("session_setup", SimTime(25_000));
            s.mark("bearer_install", SimTime(27_000));
            s.finish(&mut reg);
        })
    });
    g.bench_function("snapshot_200_instruments", |b| {
        let mut reg = Registry::new();
        for i in 0..100 {
            reg.counter_add(&format!("agw0.svc.c{i}"), i as f64);
            reg.gauge_set(&format!("agw0.svc.g{i}"), i as f64);
        }
        for i in 0..1000 {
            reg.observe("agw0.mme.attach.total_s", (i as f64) * 0.003);
        }
        b.iter(|| std::hint::black_box(reg.snapshot_prefixed("agw0")))
    });
    g.bench_function("quantile_p99", |b| {
        let mut reg = Registry::new();
        for i in 0..10_000 {
            reg.observe("h", (i as f64) * 0.0007);
        }
        let h = reg.histogram("h").unwrap().clone();
        b.iter(|| std::hint::black_box(h.quantile(0.99)))
    });
    g.finish();
}

criterion_group!(benches, dataplane, crypto, codecs, rpc, subscriber, engine, registry);
criterion_main!(benches);
