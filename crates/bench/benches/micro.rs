//! Micro-benchmarks for the hot-path kernels the repo benchmark's
//! `layers` probes do not time: the hinted dataplane reprogram, the
//! fluid tick with its demand resolution memoised and rebuilt, the
//! UE side of EPS-AKA, the checkpoint RPC both ways, subscriber
//! replication (full snapshot vs changes), the local checkpoint's
//! in-place replica copy, and registry emission. The
//! rest (kernel ns/event, packet processing, the full `set_desired`
//! walk, AKA vector generation, the wire codecs, the small RPC frame,
//! the registry snapshot) are `layers` rows; see `benchmark/`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use magma::agw::FLUID_TICK;
use magma::dataplane::{session_rules, DesiredState, FluidEntry, Pipeline, SessionProgram};
use magma::prelude::*;
use magma::wire::aka;
use magma::wire::{Teid, UeIp};

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
    // One AGW tick of Figure 5's site: 288 sessions at 1.5 Mbit/s down.
    // `steady` is the usual tick, whose cookie → slot resolution is the
    // last tick's; `after_change` installs or removes a fluid-only
    // session (no rules, no meters) before each tick, so every tick
    // re-resolves its demands. The difference is the rebuild.
    let demands: Vec<(u64, u64, u64)> = (0..288).map(|i| (i, 937, 18_750)).collect();
    let mut now = SimTime::ZERO;
    g.bench_function("fluid_tick_288_steady", |b| {
        let mut p = Pipeline::new();
        p.set_desired(&sessions(288));
        b.iter(|| {
            now += FLUID_TICK;
            std::hint::black_box(p.fluid_tick(now, &demands).total_dl)
        })
    });
    g.bench_function("fluid_tick_288_after_change", |b| {
        let mut desired = sessions(288);
        let mut p = Pipeline::new();
        p.set_desired(&desired);
        let extra = SessionProgram {
            fluid: session_program(288, Teid(0)).fluid,
            ..SessionProgram::default()
        };
        b.iter(|| {
            if desired.programs.remove(&288).is_none() {
                desired.programs.insert(288, extra.clone());
            }
            p.set_desired_for(&desired, [288]);
            now += FLUID_TICK;
            std::hint::black_box(p.fluid_tick(now, &demands).total_dl)
        })
    });
    g.finish();
}

fn crypto(c: &mut Criterion) {
    let (k, opc) = aka::provision(1, 1);
    let mut g = c.benchmark_group("aka");
    g.bench_function("ue_verify", |b| {
        let v = aka::generate_vector(&k, &opc, 1, aka::Rand([7; 16]));
        b.iter(|| std::hint::black_box(aka::ue_verify(&k, &opc, &v.rand, &v.autn, 0)))
    });
    g.finish();
}

/// The checkpoint RPC as the 1 Hz upload uses it: typed body → frame
/// bytes on the gateway, and stream segments → frame on the
/// orchestrator, parsed into the tree the previous upload left behind.
fn rpc(c: &mut Criterion) {
    use magma::orc8r::{flows, CheckpointPushRef};
    use magma::rpc::{codec, Framer, RpcKind, Spare};
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
    // What `RpcServer` does with an upload: MSS-sized segments, as the
    // stream transport delivers them, into the recycled spare tree.
    g.bench_function("decode_checkpoint_288", |b| {
        let mut framer = Framer::new();
        let mut spare = None;
        b.iter(|| {
            let mut frames = Vec::new();
            for segment in wire.chunks(1400) {
                frames.extend(framer.push_with(segment, &mut spare));
            }
            let body = frames.pop().expect("one frame").body;
            spare = Some(Spare {
                method: flows::CHECKPOINT.name,
                body,
            });
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
    // The local checkpoint's copy each second: the held snapshot is
    // refreshed in place, and one attach moved one row's SQN since.
    g.bench_function("snapshot_into_560_one_moved", |b| {
        let mut db = db.clone();
        let mut held = db.snapshot();
        let mut sqn = 0;
        b.iter(|| {
            sqn += 1;
            db.seed_sqn_marks([(Imsi::new(310, 26, 280), sqn)].into());
            db.snapshot_into(&mut held);
            std::hint::black_box(held.version)
        })
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

fn registry(c: &mut Criterion) {
    use magma::sim::{Registry, Span};
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

criterion_group!(benches, dataplane, crypto, rpc, subscriber, registry);
criterion_main!(benches);
