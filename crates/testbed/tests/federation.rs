//! Federation integration (§3.6): an AGW in local-breakout mode
//! authenticates a subscriber it does not know locally by proxying S6a
//! through the Federation Gateway to a simulated MNO HSS.

use magma_agw::{new_agw_handle, AgwActor, AgwConfig};
use magma_feg::{FegActor, MnoCoreActor};
use magma_net::{new_net, Endpoint, LinkProfile, NetStack, ports};
use magma_ran::{ue_fleet, EnbConfig, EnodebActor, TrafficModel};
use magma_sim::{HostSpec, SimDuration, SimTime, World};
use magma_subscriber::{SubscriberDb, SubscriberProfile};
use magma_wire::Imsi;

#[test]
fn federated_attach_via_mno_hss() {
    let mut w = World::new(17);
    let net = new_net();
    let (agw_node, feg_node, mno_node, enb_node) = {
        let mut t = net.borrow_mut();
        let a = t.add_node("agw");
        let f = t.add_node("feg");
        let m = t.add_node("mno");
        let e = t.add_node("enb");
        // AGW reaches the FeG across a WAN; FeG↔MNO is a leased line.
        t.connect(a, f, LinkProfile::fiber());
        t.connect(f, m, LinkProfile::fiber());
        t.connect(e, a, LinkProfile::lan());
        (a, f, m, e)
    };
    let agw_stack = w.add_actor(Box::new(NetStack::new(agw_node, net.clone())));
    let feg_stack = w.add_actor(Box::new(NetStack::new(feg_node, net.clone())));
    let mno_stack = w.add_actor(Box::new(NetStack::new(mno_node, net.clone())));
    let enb_stack = w.add_actor(Box::new(NetStack::new(enb_node, net.clone())));

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
    let net = new_net();
    let (agw_node, feg_node, mno_node, enb_node) = {
        let mut t = net.borrow_mut();
        let a = t.add_node("agw");
        let f = t.add_node("feg");
        let m = t.add_node("mno");
        let e = t.add_node("enb");
        t.connect(a, f, LinkProfile::fiber());
        t.connect(f, m, LinkProfile::fiber());
        t.connect(e, a, LinkProfile::lan());
        (a, f, m, e)
    };
    let agw_stack = w.add_actor(Box::new(NetStack::new(agw_node, net.clone())));
    let feg_stack = w.add_actor(Box::new(NetStack::new(feg_node, net.clone())));
    let mno_stack = w.add_actor(Box::new(NetStack::new(mno_node, net.clone())));
    let enb_stack = w.add_actor(Box::new(NetStack::new(enb_node, net.clone())));

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
