//! Federation integration (§3.6): an AGW in local-breakout mode
//! authenticates a subscriber it does not know locally by proxying S6a
//! through the Federation Gateway to a simulated MNO HSS.

use magma_net::LinkProfile;
use magma_ran::TrafficModel;
use magma_sim::{SimDuration, SimTime};
use magma_subscriber::{SubscriberDb, SubscriberProfile};
use magma_testbed::scenario::{build, AgwSpec, Scenario, ScenarioConfig, SiteSpec};
use magma_wire::Imsi;

/// An MNO HSS holding MSINs `1..=n` (SIM seed 7): the roamers of gateway
/// 0's site, which the orchestrator does not hold.
fn mno_hss(n: u64) -> SubscriberDb {
    let mut db = SubscriberDb::new();
    for i in 1..=n {
        db.upsert(SubscriberProfile::lte(Imsi::new(310, 26, i), 7, i));
    }
    db
}

/// A gateway at `site` federating through the FeG to an MNO core whose
/// HSS holds `mno`.
fn federated(seed: u64, mno: SubscriberDb, site: SiteSpec, backhaul: LinkProfile) -> Scenario {
    let mut sc = build(ScenarioConfig::new(seed));
    let mut agw = AgwSpec::bare_metal(site);
    agw.feg = Some(sc.add_feg(mno));
    agw.backhaul = backhaul;
    sc.add_agw(&agw);
    sc
}

/// One eNodeB whose `ues` roamers are MSINs `1..=ues`.
fn roamers(ues: usize, rate: f64, traffic: TrafficModel) -> SiteSpec {
    SiteSpec {
        enbs: 1,
        ues_per_enb: ues,
        attach_rate_per_sec: rate,
        traffic,
        ..SiteSpec::typical()
    }
}

#[test]
fn federated_attach_via_mno_hss() {
    // The gateway's replica holds no subscriber: it must federate.
    let site = roamers(4, 1.0, TrafficModel::http_download());
    let mut sc = federated(17, mno_hss(4), site, LinkProfile::fiber());
    let w = &mut sc.world;

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
    // MNO HSS is empty: the roamer is unknown everywhere.
    let site = roamers(2, 1.0, TrafficModel::idle());
    let mut sc = federated(18, mno_hss(0), site, LinkProfile::fiber());
    let w = &mut sc.world;

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
    // Sanity on the traffic model the roamer helper takes.
    let t = TrafficModel::idle();
    assert_eq!(t.demand(1.0), (0, 0));
}

/// A federated gateway talks to two peers whose RPC clients number their
/// calls independently, both from 1. With the orchestrator behind a slow
/// backhaul, its bootstrap call (id 1) is still in flight when the first
/// roamer's S6a call to the FeG (also id 1) is made; each answer must
/// reach the call it answers.
#[test]
fn orc8r_and_feg_calls_with_equal_ids_each_get_their_own_answer() {
    let slow = LinkProfile::fiber().with_latency(SimDuration::from_millis(600));
    let site = roamers(4, 4.0, TrafficModel::idle());
    let mut sc = federated(19, mno_hss(4), site, slow);
    let w = &mut sc.world;

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
    let st = sc.orc8r.borrow();
    let dev = &st.devices["agw0"];
    assert!(dev.registered);
    assert!(dev.checkins >= 1, "no check-in after bootstrap: {dev:?}");
}
