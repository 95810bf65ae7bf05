//! Probes: the benchmark's own spans around one public function per
//! layer row, driven with inputs harvested from the finished workload
//! run (its last checkpoint, session table, subscriber database and
//! registry), so sizes track the workload.
//!
//! Every probe reports the median cost of one call over [`SAMPLES`]
//! timed batches, at least [`MIN_CALLS`] calls in all. Inputs and
//! results pass through `black_box`.

use bytes::Bytes;
use magma::agw::{pipelined, AgwCheckpoint};
use magma::dataplane::{PacketMeta, Pipeline};
use magma::net::stream::{StreamFrame, StreamState};
use magma::net::{ConnKey, Endpoint, Link, LinkProfile, NodeAddr, StreamConfig, MTU};
use magma::orc8r::{methods, CheckinRequest, CheckpointPush, MetricsStore, Orc8rState};
use magma::policy::OcsServer;
use magma::ran::UeSim;
use magma::rpc::{encode_frame, Framer, RpcFrame};
use magma::sim::{
    downcast, Actor, Ctx, Event, HostId, HostSpec, HostStopwatch, RegistrySnapshot, SimDuration,
    SimTime, World,
};
use magma::subscriber::{DbSnapshot, SubscriberDb};
use magma::testbed::scenario::{Scenario, SIM_SEED};
use magma::wire::aka::{self, Rand};
use magma::wire::gtp::GtpUPacket;
use magma::wire::nas::NasMessage;
use magma::wire::s1ap::{EnbUeId, MmeUeId, S1apMessage};
use magma::wire::{Guti, Imsi, Teid, UeIp};
use magma_benchmark::stats::median;
use serde_json::json;
use std::collections::BTreeMap;
use std::hint::black_box;

const SAMPLES: usize = 21;
const MIN_CALLS: usize = 200;
/// Aim for batches of about this long, so clock reads do not matter.
const BATCH_NS: u64 = 2_000_000;

/// Median ns per call of `f`, each call consuming one `input()` that is
/// prepared outside the timed section. What `f` returns is kept alive
/// past the call so the measured work cannot be optimised away.
fn per_call_ns<I, R>(mut input: impl FnMut() -> I, mut f: impl FnMut(I) -> R) -> f64 {
    let clock = HostStopwatch::start();
    black_box(f(input()));
    let once_ns = clock.elapsed_ns().max(1);
    let batch = ((BATCH_NS / once_ns) as usize).clamp(MIN_CALLS.div_ceil(SAMPLES), 100_000);
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let inputs: Vec<I> = (0..batch).map(|_| input()).collect();
        let t0 = clock.elapsed_ns();
        for i in inputs {
            black_box(f(i));
        }
        samples.push((clock.elapsed_ns() - t0) as f64 / batch as f64);
    }
    median(&samples)
}

/// What a finished workload run hands the probes.
pub struct Harvest {
    /// The first gateway's last published checkpoint: session table, IP
    /// pool and subscriber replica at the workload's size.
    pub checkpoint: AgwCheckpoint,
    /// The orchestrator's subscriber database.
    pub db: DbSnapshot,
    /// The first gateway's registry namespace, as metricsd ships it.
    pub registry: RegistrySnapshot,
    /// Mean bytes of one RPC message on the backhaul.
    pub mean_rpc_bytes: usize,
}

impl Harvest {
    pub fn from_run(
        sc: &Scenario,
        backhaul_bytes: u64,
        rpc_messages: u64,
    ) -> Result<Harvest, String> {
        let gw = sc.agws.first().ok_or("world has no gateway")?;
        Ok(Harvest {
            checkpoint: gw
                .handle
                .borrow()
                .checkpoint
                .clone()
                .ok_or("gateway published no checkpoint")?,
            db: sc.orc8r.borrow().db.snapshot(),
            registry: sc.world.registry().snapshot_prefixed(&gw.id),
            mean_rpc_bytes: (backhaul_bytes / rpc_messages.max(1)) as usize,
        })
    }

    fn checkpoint_frame(&self) -> RpcFrame {
        let push = CheckpointPush {
            agw_id: self.checkpoint.agw_id.clone(),
            state: serde_json::to_value(&self.checkpoint).expect("checkpoint serializes"),
        };
        RpcFrame::request(1, methods::CHECKPOINT, json!(push))
    }

    fn db(&self) -> SubscriberDb {
        db_of(&self.db)
    }

    fn first_imsi(&self) -> Imsi {
        self.db
            .subscribers
            .first()
            .map_or(Imsi::new(310, 26, 1), |p| p.imsi)
    }
}

fn db_of(snapshot: &DbSnapshot) -> SubscriberDb {
    let mut db = SubscriberDb::new();
    db.apply_snapshot(snapshot.clone());
    db
}

/// One probe: the per-layer metric it feeds and the function that
/// returns the value in that metric's unit.
pub struct Probe {
    pub metric: &'static str,
    pub run: fn(&Harvest) -> f64,
}

pub const PROBES: [Probe; 24] = [
    Probe {
        metric: "sim.kernel_ns_per_event",
        run: kernel_ns_per_event,
    },
    Probe {
        metric: "sim.cpu_model_ns_per_job",
        run: cpu_model_ns_per_job,
    },
    Probe {
        metric: "sim.registry_snapshot_us",
        run: registry_snapshot_us,
    },
    Probe {
        metric: "net.stream_us_per_msg",
        run: stream_us_per_msg,
    },
    Probe {
        metric: "net.link_ns_per_frame",
        run: link_ns_per_frame,
    },
    Probe {
        metric: "rpc.encode_us_per_frame",
        run: rpc_encode_us,
    },
    Probe {
        metric: "rpc.decode_us_per_frame",
        run: rpc_decode_us,
    },
    Probe {
        metric: "rpc.small_frame_ns",
        run: rpc_small_frame_ns,
    },
    Probe {
        metric: "wire.attach_codec_ns",
        run: attach_codec_ns,
    },
    Probe {
        metric: "wire.gtpu_1400_ns",
        run: gtpu_1400_ns,
    },
    Probe {
        metric: "wire.aka_vector_ns",
        run: aka_vector_ns,
    },
    Probe {
        metric: "dataplane.set_desired_us",
        run: set_desired_us,
    },
    Probe {
        metric: "dataplane.fluid_tick_us",
        run: fluid_tick_us,
    },
    Probe {
        metric: "dataplane.packet_ns",
        run: packet_ns,
    },
    Probe {
        metric: "agw.compile_us",
        run: compile_us,
    },
    Probe {
        metric: "agw.checkpoint_build_us",
        run: checkpoint_build_us,
    },
    Probe {
        metric: "subscriber.snapshot_us",
        run: db_snapshot_us,
    },
    Probe {
        metric: "subscriber.apply_snapshot_us",
        run: db_apply_snapshot_us,
    },
    Probe {
        metric: "subscriber.auth_vector_ns",
        run: auth_vector_ns,
    },
    Probe {
        metric: "policy.ocs_credit_ns",
        run: ocs_credit_ns,
    },
    Probe {
        metric: "orc8r.store_checkpoint_us",
        run: store_checkpoint_us,
    },
    Probe {
        metric: "orc8r.metrics_ingest_us",
        run: metrics_ingest_us,
    },
    Probe {
        metric: "orc8r.push_snapshot_us",
        run: push_snapshot_us,
    },
    Probe {
        metric: "ran.ue_attach_fsm_ns",
        run: ue_attach_fsm_ns,
    },
];

// ---- sim ----

/// Forwards each message to itself until the hop budget is spent.
struct Looper {
    hops: u32,
}

impl Actor for Looper {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        if let Event::Msg { payload, .. } = event {
            let hop = downcast::<u32>(payload, "looper");
            if hop < self.hops {
                let me = ctx.id();
                ctx.send_in(me, SimDuration::from_micros(1), Box::new(hop + 1));
            }
        }
    }
}

fn kernel_ns_per_event(_: &Harvest) -> f64 {
    const ACTORS: u32 = 64;
    const HOPS: u32 = 500;
    let events = f64::from(ACTORS * HOPS);
    per_call_ns(
        || {
            let mut w = World::new(1);
            for _ in 0..ACTORS {
                let a = w.add_actor(Box::new(Looper { hops: HOPS }));
                w.inject(a, Box::new(0u32));
            }
            w
        },
        |mut w| w.run_to_quiescence(u64::MAX),
    ) / events
}

/// Resubmits a CPU job each time one completes.
struct Burner {
    host: HostId,
    jobs: u32,
}

impl Actor for Burner {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        let left = match event {
            Event::Start => self.jobs,
            Event::CpuDone { tag, .. } => tag as u32,
            _ => 0,
        };
        if left > 0 {
            let _ = ctx.try_exec(
                self.host,
                "all",
                SimDuration::from_micros(50),
                u64::from(left - 1),
                Box::new(()),
            );
        }
    }
}

fn cpu_model_ns_per_job(_: &Harvest) -> f64 {
    const JOBS: u32 = 10_000;
    per_call_ns(
        || {
            let mut w = World::new(1);
            let host = w.add_host(HostSpec::uniform("h", 4, 1.0));
            w.add_actor(Box::new(Burner { host, jobs: JOBS }));
            w
        },
        |mut w| w.run_to_quiescence(u64::MAX),
    ) / f64::from(JOBS)
}

fn registry_snapshot_us(h: &Harvest) -> f64 {
    let mut reg = magma::sim::Registry::new();
    for (name, v) in &h.registry.counters {
        reg.counter_add(&format!("gw.{name}"), *v);
    }
    for (name, v) in &h.registry.gauges {
        reg.gauge_set(&format!("gw.{name}"), *v);
    }
    for (name, hist) in &h.registry.histograms {
        reg.observe_with(&format!("gw.{name}"), &hist.bounds, hist.max);
    }
    per_call_ns(|| (), |()| reg.snapshot_prefixed("gw")) / 1e3
}

// ---- net ----

fn stream_us_per_msg(h: &Harvest) -> f64 {
    let key = ConnKey {
        initiator: Endpoint::new(NodeAddr(1), 40_000),
        responder: Endpoint::new(NodeAddr(2), 9_000),
    };
    let now = SimTime::ZERO;
    let mut a = StreamState::new(key, true, StreamConfig::default());
    let mut b = StreamState::new(key, false, StreamConfig::default());
    let syn = a.open(now);
    for synack in b.on_frame(syn, now).0 {
        a.on_frame(synack, now);
    }
    let msg = Bytes::from(vec![0x5a_u8; h.mean_rpc_bytes.max(1)]);
    per_call_ns(
        || msg.clone(),
        |m| {
            // Shuttle frames until the message is delivered and acked.
            let mut to_b: Vec<StreamFrame> = a.app_send(m, now);
            while !to_b.is_empty() {
                let mut to_a = Vec::new();
                for f in to_b.drain(..) {
                    let (acks, delivered) = b.on_frame(f, now);
                    black_box(delivered);
                    to_a.extend(acks);
                }
                for f in to_a {
                    to_b.extend(a.on_frame(f, now).0);
                }
            }
        },
    ) / 1e3
}

fn link_ns_per_frame(_: &Harvest) -> f64 {
    let mut link = Link::new(LinkProfile::microwave());
    let mut now = SimTime::ZERO;
    per_call_ns(
        || (),
        |()| {
            now += SimDuration::from_millis(1);
            link.transmit(now, MTU)
        },
    )
}

// ---- rpc ----

fn rpc_encode_us(h: &Harvest) -> f64 {
    let frame = h.checkpoint_frame();
    per_call_ns(|| (), |()| encode_frame(&frame)) / 1e3
}

fn rpc_decode_us(h: &Harvest) -> f64 {
    let wire = encode_frame(&h.checkpoint_frame());
    let mut framer = Framer::new();
    per_call_ns(
        || (),
        |()| {
            for chunk in wire.chunks(MTU) {
                black_box(framer.push(chunk));
            }
        },
    ) / 1e3
}

fn rpc_small_frame_ns(h: &Harvest) -> f64 {
    let checkin = CheckinRequest {
        agw_id: h.checkpoint.agw_id.clone(),
        cert: 1000,
        db_version: h.db.version,
        enbs: vec![1, 2, 3],
        active_sessions: h.checkpoint.sessions.len() as u64,
        metrics: ["attach.start", "attach.accept", "attach.reject"]
            .iter()
            .map(|k| (k.to_string(), 1.0))
            .collect::<BTreeMap<_, _>>(),
    };
    let frame = RpcFrame::request(7, methods::CHECKIN, json!(checkin));
    let mut framer = Framer::new();
    per_call_ns(
        || (),
        |()| {
            let wire = encode_frame(&frame);
            framer.push(&wire)
        },
    )
}

// ---- wire ----

fn attach_codec_ns(_: &Harvest) -> f64 {
    let (k, opc) = aka::provision(SIM_SEED, 1);
    let v = aka::generate_vector(&k, &opc, 1, Rand([7; 16]));
    let (enb, mme) = (EnbUeId(5), MmeUeId(9));
    let nas = |m: NasMessage| m.encode();
    let accept = NasMessage::AttachAccept {
        guti: Guti(77),
        ue_ip: UeIp(0x0A00_0005),
        ambr_dl_kbps: 20_000,
        ambr_ul_kbps: 5_000,
    };
    // One 4G attach as it crosses S1: eight S1AP messages, seven of
    // them carrying NAS, the post-security ones integrity-protected.
    let sequence = [
        S1apMessage::InitialUeMessage {
            enb_ue_id: enb,
            nas: nas(NasMessage::AttachRequest {
                imsi: Imsi::new(310, 26, 1),
                capabilities: 0,
            }),
        },
        S1apMessage::DownlinkNasTransport {
            enb_ue_id: enb,
            mme_ue_id: mme,
            nas: nas(NasMessage::AuthenticationRequest {
                rand: v.rand,
                autn: v.autn,
            }),
        },
        S1apMessage::UplinkNasTransport {
            enb_ue_id: enb,
            mme_ue_id: mme,
            nas: nas(NasMessage::AuthenticationResponse { res: v.xres }),
        },
        S1apMessage::DownlinkNasTransport {
            enb_ue_id: enb,
            mme_ue_id: mme,
            nas: nas(NasMessage::SecurityModeCommand { algorithm: 1 }),
        },
        S1apMessage::UplinkNasTransport {
            enb_ue_id: enb,
            mme_ue_id: mme,
            nas: nas(NasMessage::SecurityModeComplete.secure(&v.kasme)),
        },
        S1apMessage::InitialContextSetupRequest {
            enb_ue_id: enb,
            mme_ue_id: mme,
            agw_teid: Teid(1000),
            nas: nas(accept.secure(&v.kasme)),
        },
        S1apMessage::InitialContextSetupResponse {
            enb_ue_id: enb,
            mme_ue_id: mme,
            enb_teid: Teid(2000),
        },
        S1apMessage::UplinkNasTransport {
            enb_ue_id: enb,
            mme_ue_id: mme,
            nas: nas(NasMessage::AttachComplete.secure(&v.kasme)),
        },
    ];
    per_call_ns(
        || (),
        |()| {
            for msg in &sequence {
                let wire = msg.encode();
                let nas = match S1apMessage::decode(&wire).expect("own encoding decodes") {
                    S1apMessage::InitialUeMessage { nas, .. }
                    | S1apMessage::DownlinkNasTransport { nas, .. }
                    | S1apMessage::UplinkNasTransport { nas, .. }
                    | S1apMessage::InitialContextSetupRequest { nas, .. } => nas,
                    _ => continue,
                };
                let inner = NasMessage::decode(&nas).expect("own encoding decodes");
                black_box(inner.encode());
            }
        },
    )
}

fn gtpu_1400_ns(_: &Harvest) -> f64 {
    let pkt = GtpUPacket::gpdu(Teid(9), Bytes::from(vec![0u8; 1400]));
    per_call_ns(
        || (),
        |()| {
            let wire = pkt.encode();
            GtpUPacket::decode(&wire).expect("own encoding decodes")
        },
    )
}

fn aka_vector_ns(_: &Harvest) -> f64 {
    let (k, opc) = aka::provision(SIM_SEED, 1);
    let mut sqn = 0;
    per_call_ns(
        || (),
        |()| {
            sqn += 1;
            aka::generate_vector(&k, &opc, sqn, Rand([7; 16]))
        },
    )
}

// ---- dataplane / agw ----

fn set_desired_us(h: &Harvest) -> f64 {
    // The AGW reprograms on every session change, so consecutive desired
    // states differ by one session: alternate between the full table
    // and the table without its last session.
    let full = pipelined::compile(&h.checkpoint.sessions);
    let mut fewer = h.checkpoint.sessions.clone();
    if let Some(last) = fewer.iter().map(|s| s.id).max() {
        fewer.remove(last);
    }
    let states = [pipelined::compile(&fewer), full];
    let mut p = Pipeline::new();
    p.set_desired(&states[1]);
    let mut i = 0;
    per_call_ns(
        || (),
        |()| {
            p.set_desired(&states[i % 2]);
            i += 1;
        },
    ) / 1e3
}

fn fluid_tick_us(h: &Harvest) -> f64 {
    let mut p = Pipeline::new();
    p.set_desired(&pipelined::compile(&h.checkpoint.sessions));
    let demands: Vec<(u64, u64, u64)> = h
        .checkpoint
        .sessions
        .iter()
        .map(|s| (s.id, 937, 18_750))
        .collect();
    let mut now = SimTime::ZERO;
    per_call_ns(
        || (),
        |()| {
            now += SimDuration::from_millis(100);
            p.fluid_tick(now, &demands)
        },
    ) / 1e3
}

fn packet_ns(h: &Harvest) -> f64 {
    let mut p = Pipeline::new();
    p.set_desired(&pipelined::compile(&h.checkpoint.sessions));
    // The median session: a table walk of typical depth.
    let sessions: Vec<_> = h.checkpoint.sessions.iter().collect();
    let Some(s) = sessions.get(sessions.len() / 2) else {
        return 0.0;
    };
    let pkt = PacketMeta::uplink(s.ul_teid, s.ue_ip, 1400);
    per_call_ns(|| (), |()| p.process(pkt, SimTime::ZERO))
}

fn compile_us(h: &Harvest) -> f64 {
    per_call_ns(|| (), |()| pipelined::compile(&h.checkpoint.sessions)) / 1e3
}

fn checkpoint_build_us(h: &Harvest) -> f64 {
    let cp = &h.checkpoint;
    let db = db_of(&cp.db);
    // What `AgwActor::take_checkpoint` does each second.
    per_call_ns(
        || (),
        |()| {
            let built = AgwCheckpoint {
                agw_id: cp.agw_id.clone(),
                taken_at_us: cp.taken_at_us,
                sessions: cp.sessions.clone(),
                pool: cp.pool.clone(),
                db: db.snapshot(),
                cert: cp.cert,
            };
            serde_json::to_value(&built).expect("checkpoint serializes")
        },
    ) / 1e3
}

// ---- subscriber / policy ----

fn db_snapshot_us(h: &Harvest) -> f64 {
    let db = h.db();
    per_call_ns(|| (), |()| db.snapshot()) / 1e3
}

fn db_apply_snapshot_us(h: &Harvest) -> f64 {
    let mut db = SubscriberDb::new();
    per_call_ns(|| h.db.clone(), |snap| db.apply_snapshot(black_box(snap))) / 1e3
}

fn auth_vector_ns(h: &Harvest) -> f64 {
    let mut db = h.db();
    let imsi = h.first_imsi();
    per_call_ns(|| (), |()| db.generate_auth_vector(imsi, Rand([7; 16])))
}

fn ocs_credit_ns(h: &Harvest) -> f64 {
    let mut ocs = OcsServer::new(1_000_000);
    let imsi = h.first_imsi();
    ocs.provision(imsi, u64::MAX / 2);
    per_call_ns(
        || (),
        |()| {
            black_box(ocs.request_credit(imsi));
            ocs.report_usage(imsi, 1_000, 1_000_000);
        },
    )
}

// ---- orc8r ----

fn store_checkpoint_us(h: &Harvest) -> f64 {
    let body = h.checkpoint_frame().body;
    let mut state = Orc8rState::new(1_000_000);
    // What the orchestrator's CHECKPOINT handler does with a request body.
    per_call_ns(
        || body.clone(),
        |body| {
            let req: CheckpointPush = serde_json::from_value(body).expect("own encoding parses");
            state.store_checkpoint(&req.agw_id, req.state);
        },
    ) / 1e3
}

fn metrics_ingest_us(h: &Harvest) -> f64 {
    let mut store = MetricsStore::new();
    let mut seq = 0;
    per_call_ns(
        || h.registry.clone(),
        |snap| {
            seq += 1;
            store.ingest("agw0", seq, SimTime(seq * 5_000_000), snap, Vec::new())
        },
    ) / 1e3
}

fn push_snapshot_us(h: &Harvest) -> f64 {
    let db = h.db();
    // What `Orc8rActor::push_stale` does for one stale gateway.
    per_call_ns(|| (), |()| json!(db.snapshot())) / 1e3
}

// ---- ran ----

fn ue_attach_fsm_ns(_: &Harvest) -> f64 {
    let imsi = Imsi::new(310, 26, 1);
    let (k, opc) = aka::provision(SIM_SEED, 1);
    let v = aka::generate_vector(&k, &opc, 1, Rand([7; 16]));
    let fresh = UeSim::new(imsi, SIM_SEED, 1);
    let accept = NasMessage::AttachAccept {
        guti: Guti(77),
        ue_ip: UeIp(0x0A00_0005),
        ambr_dl_kbps: 20_000,
        ambr_ul_kbps: 5_000,
    }
    .secure(&v.kasme);
    per_call_ns(
        || (fresh.clone(), accept.clone()),
        |(mut ue, accept)| {
            black_box(ue.start_attach());
            black_box(ue.on_nas(NasMessage::AuthenticationRequest {
                rand: v.rand,
                autn: v.autn,
            }));
            black_box(ue.on_nas(NasMessage::SecurityModeCommand { algorithm: 1 }));
            black_box(ue.on_nas(accept));
            assert!(ue.is_attached(), "UE attach FSM did not reach Attached");
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_benchmark::catalog::{Source, PER_LAYER};

    #[test]
    fn every_probe_metric_has_a_probe() {
        let catalogued: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| m.source == Source::Probe && m.name != "testbed.build_s")
            .map(|m| m.name)
            .collect();
        let implemented: Vec<&str> = PROBES.iter().map(|p| p.metric).collect();
        assert_eq!(catalogued, implemented);
    }

    #[test]
    fn per_call_runs_the_minimum_number_of_calls() {
        let mut calls = 0;
        let ns = per_call_ns(
            || (),
            |()| {
                calls += 1;
                std::thread::sleep(std::time::Duration::from_millis(3));
            },
        );
        assert!(calls >= MIN_CALLS, "{calls} calls");
        assert!(ns >= 3e6);
    }
}
