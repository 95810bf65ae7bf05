//! Federation integration (§3.6): an AGW in local-breakout mode
//! authenticates a subscriber it does not know locally by proxying S6a
//! through the Federation Gateway to a simulated MNO HSS.

use magma_agw::{new_agw_handle, AgwActor, AgwConfig};
use magma_feg::{FegActor, MnoCoreActor};
use magma_orc8r::{new_orc8r, Orc8rActor};
use magma_net::{Endpoint, LinkProfile, NetFabric, ports};
use magma_ran::{ue_fleet, EnbConfig, EnodebActor, TrafficModel};
use magma_sim::{HostSpec, SimDuration, SimTime, World};
use magma_subscriber::{SubscriberDb, SubscriberProfile};
use magma_wire::Imsi;

#[test]
fn federated_attach_via_mno_hss() {
    let mut w = World::new(17);
    let net = NetFabric::new();
    let agw_node = net.add_node("agw");
    let feg_node = net.add_node("feg");
    let mno_node = net.add_node("mno");
    let enb_node = net.add_node("enb");
    // AGW reaches the FeG across a WAN; FeG↔MNO is a leased line.
    net.connect(agw_node, feg_node, LinkProfile::fiber());
    net.connect(feg_node, mno_node, LinkProfile::fiber());
    net.connect(enb_node, agw_node, LinkProfile::lan());
    let agw_stack = net.add_stack(&mut w, agw_node);
    let feg_stack = net.add_stack(&mut w, feg_node);
    let mno_stack = net.add_stack(&mut w, mno_node);
    let enb_stack = net.add_stack(&mut w, enb_node);

    // MNO HSS knows the subscribers (SIM seed 7, indices 1..=4).
    let mut mno_db = SubscriberDb::new();
    for i in 1..=4u64 {
        mno_db.upsert(SubscriberProfile::lte(Imsi::new(310, 26, i), 7, i));
    }
    w.add_actor(Box::new(MnoCoreActor::new(mno_stack, mno_db)));
    w.add_actor(Box::new(FegActor::new(
        feg_stack,
        Endpoint::new(mno_node, ports::DIAMETER),
    )));

    // The AGW has an EMPTY local subscriber DB: it must federate.
    let host = w.add_host(HostSpec::uniform("agw", 4, 1.0));
    let cfg = AgwConfig::new("agw0", host, agw_stack)
        .with_feg(Endpoint::new(feg_node, ports::FEG));
    let handle = new_agw_handle();
    let agw = w.add_actor(Box::new(AgwActor::new(cfg, handle)));

    // Four roaming UEs.
    let ues = ue_fleet(7, 1, 4, TrafficModel::http_download());
    let mut enb_cfg = EnbConfig::new(
        1,
        enb_stack,
        Endpoint::new(agw_node, ports::S1AP),
        agw,
    );
    enb_cfg.attach_rate_per_sec = 1.0;
    w.add_actor(Box::new(EnodebActor::new(enb_cfg, ues)));

    w.run_until(SimTime::from_secs(40));
    let rec = w.registry();
    let ok = rec.series("ran.attach_ok_at").map(|s| s.len()).unwrap_or(0);
    assert_eq!(ok, 4, "all roaming UEs attach via the FeG");
    assert_eq!(rec.counter("agw0.mme.attach_accept"), 4.0);

    // Local breakout: traffic flows through the AGW's own data plane.
    let tp: f64 = rec
        .series("agw0.dataplane.tp_bytes")
        .map(|s| s.values().sum())
        .unwrap_or(0.0);
    assert!(tp > 1_000_000.0, "user plane stays local, got {tp}");
}

#[test]
fn federated_attach_fails_for_unknown_roamer() {
    let mut w = World::new(18);
    let net = NetFabric::new();
    let agw_node = net.add_node("agw");
    let feg_node = net.add_node("feg");
    let mno_node = net.add_node("mno");
    let enb_node = net.add_node("enb");
    net.connect(agw_node, feg_node, LinkProfile::fiber());
    net.connect(feg_node, mno_node, LinkProfile::fiber());
    net.connect(enb_node, agw_node, LinkProfile::lan());
    let agw_stack = net.add_stack(&mut w, agw_node);
    let feg_stack = net.add_stack(&mut w, feg_node);
    let mno_stack = net.add_stack(&mut w, mno_node);
    let enb_stack = net.add_stack(&mut w, enb_node);

    // MNO HSS is empty: the roamer is unknown everywhere.
    w.add_actor(Box::new(MnoCoreActor::new(mno_stack, SubscriberDb::new())));
    w.add_actor(Box::new(FegActor::new(
        feg_stack,
        Endpoint::new(mno_node, ports::DIAMETER),
    )));
    let host = w.add_host(HostSpec::uniform("agw", 4, 1.0));
    let cfg = AgwConfig::new("agw0", host, agw_stack)
        .with_feg(Endpoint::new(feg_node, ports::FEG));
    let agw = w.add_actor(Box::new(AgwActor::new(cfg, new_agw_handle())));

    let ues = ue_fleet(7, 1, 2, TrafficModel::idle());
    let mut enb_cfg = EnbConfig::new(1, enb_stack, Endpoint::new(agw_node, ports::S1AP), agw);
    enb_cfg.attach_rate_per_sec = 1.0;
    w.add_actor(Box::new(EnodebActor::new(enb_cfg, ues)));

    w.run_until(SimTime::from_secs(40));
    let rec = w.registry();
    assert_eq!(
        rec.series("ran.attach_ok_at").map(|s| s.len()).unwrap_or(0),
        0
    );
    assert!(rec.counter("agw0.mme.attach_reject") >= 2.0);
}

#[test]
fn idle_traffic_model_generates_nothing() {
    // Sanity on the helper used above.
    let t = TrafficModel::idle();
    assert_eq!(t.demand(1.0), (0, 0));
    let _ = SimDuration::from_secs(1);
}

/// A federated gateway talks to two peers whose RPC clients number their
/// calls independently, both from 1. With the orchestrator behind a slow
/// backhaul, its bootstrap call (id 1) is still in flight when the first
/// roamer's S6a call to the FeG (also id 1) is made; each answer must
/// reach the call it answers.
#[test]
fn orc8r_and_feg_calls_with_equal_ids_each_get_their_own_answer() {
    let mut w = World::new(19);
    let net = NetFabric::new();
    let agw_node = net.add_node("agw");
    let orc8r_node = net.add_node("orc8r");
    let feg_node = net.add_node("feg");
    let mno_node = net.add_node("mno");
    let enb_node = net.add_node("enb");
    let slow = LinkProfile::fiber().with_latency(SimDuration::from_millis(600));
    net.connect(agw_node, orc8r_node, slow);
    net.connect(agw_node, feg_node, LinkProfile::fiber());
    net.connect(feg_node, mno_node, LinkProfile::fiber());
    net.connect(enb_node, agw_node, LinkProfile::lan());
    let agw_stack = net.add_stack(&mut w, agw_node);
    let orc8r_stack = net.add_stack(&mut w, orc8r_node);
    let feg_stack = net.add_stack(&mut w, feg_node);
    let mno_stack = net.add_stack(&mut w, mno_node);
    let enb_stack = net.add_stack(&mut w, enb_node);

    let orc8r = new_orc8r(1 << 30);
    w.add_actor(Box::new(Orc8rActor::new(orc8r.clone(), orc8r_stack, ports::ORC8R)));
    let mut mno_db = SubscriberDb::new();
    for i in 1..=4u64 {
        mno_db.upsert(SubscriberProfile::lte(Imsi::new(310, 26, i), 7, i));
    }
    w.add_actor(Box::new(MnoCoreActor::new(mno_stack, mno_db)));
    w.add_actor(Box::new(FegActor::new(
        feg_stack,
        Endpoint::new(mno_node, ports::DIAMETER),
    )));

    let host = w.add_host(HostSpec::uniform("agw", 4, 1.0));
    let cfg = AgwConfig::new("agw0", host, agw_stack)
        .with_orc8r(Endpoint::new(orc8r_node, ports::ORC8R))
        .with_feg(Endpoint::new(feg_node, ports::FEG));
    let agw = w.add_actor(Box::new(AgwActor::new(cfg, new_agw_handle())));

    let ues = ue_fleet(7, 1, 4, TrafficModel::idle());
    let mut enb_cfg = EnbConfig::new(1, enb_stack, Endpoint::new(agw_node, ports::S1AP), agw);
    enb_cfg.attach_rate_per_sec = 4.0;
    w.add_actor(Box::new(EnodebActor::new(enb_cfg, ues)));

    // Connecting and bootstrapping take two round trips (2.4 s), and the
    // check-in the bootstrap answer starts is received 0.6 s later; the
    // gateway's own retry would not come before its 5 s check-in timer.
    w.run_until(SimTime::from_millis(4_500));
    let rec = w.registry();
    assert_eq!(
        rec.counter("agw0.mme.attach_accept"),
        4.0,
        "the FeG answers reached the attaches"
    );
    assert_eq!(rec.counter("agw0.mme.attach_reject"), 0.0);
    // The bootstrap answer reached the bootstrap call, so the gateway
    // holds its cert and has checked in. Had the FeG call displaced the
    // bootstrap call under their shared id, that answer would have been
    // dropped and the gateway silent until its next retry.
    let st = orc8r.borrow();
    let dev = &st.devices["agw0"];
    assert!(dev.registered);
    assert!(dev.checkins >= 1, "no check-in after bootstrap: {dev:?}");
}
