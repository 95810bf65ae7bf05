//! Session churn: UEs attach, hold a session, detach, and re-attach.
//! Verifies the full detach path (NAS Detach → sessiond teardown →
//! data-plane removal → IP release) leaks nothing over many cycles.

use magma_net::{ports, NetStack};
use magma_orc8r::Orc8rActor;
use magma_ran::{SectorModel, TrafficModel};
use magma_sim::{SimDuration, SimTime};
use magma_subscriber::SubscriberProfile;
use magma_testbed::scenario::{build, AgwSpec, Scenario, ScenarioConfig, SiteSpec, SIM_SEED};
use magma_wire::Imsi;

/// 12 UEs cycling attach → 10–20 s session → detach → re-attach.
fn churning_site() -> Scenario {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 12,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel::iot(),
        sector: SectorModel::ideal_enb(),
        ue_attach_timeout: SimDuration::from_secs(10),
        reattach: true,
        session_lifetime_s: Some((10, 20)),
    };
    build(ScenarioConfig::new(19).with_agw(AgwSpec::bare_metal(site)))
}

/// A subscriber no UE in the scenario uses; `k` varies the row.
fn unrelated_subscriber(k: u32) -> SubscriberProfile {
    SubscriberProfile::lte(Imsi::new(310, 26, 9_000_001), SIM_SEED, 9_000_001)
        .with_ambr(magma_policy::Ambr::new(10_000 + k, 5_000))
}

#[test]
fn churn_does_not_leak_sessions_or_ips() {
    let mut sc = churning_site();
    sc.world.run_until(SimTime::from_secs(300));

    let rec = sc.world.registry();
    let attaches = rec.counter("agw0.mme.attach_accept");
    let detaches = rec.counter("agw0.mme.detach");
    // ~12 UEs cycling every ~15s+backoff over 300s ⇒ many full cycles.
    assert!(attaches > 100.0, "many attach cycles: {attaches}");
    assert!(detaches > 90.0, "matching detaches: {detaches}");
    assert!(
        attaches - detaches <= 13.0,
        "every cycle tears down: attaches={attaches} detaches={detaches}"
    );

    // No leaks: active sessions and IP leases bounded by the fleet size.
    let cp = sc.agws[0].handle.borrow().checkpoint.clone().unwrap();
    assert!(cp.sessions.len() <= 12, "sessions leaked: {}", cp.sessions.len());
    assert!(cp.pool.in_use() <= 12, "IP leases leaked: {}", cp.pool.in_use());

    // The data plane sheds rules on detach too.
    assert!(
        sc.agws[0].handle.borrow().active_sessions <= 12,
        "pipeline session count bounded"
    );
}

#[test]
fn detach_is_acknowledged_and_ue_goes_idle() {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 3,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel::iot(),
        sector: SectorModel::ideal_enb(),
        ue_attach_timeout: SimDuration::from_secs(10),
        reattach: false, // single cycle: attach once, detach once, stay idle
        session_lifetime_s: Some((5, 8)),
    };
    let cfg = ScenarioConfig::new(20).with_agw(AgwSpec::bare_metal(site));
    let mut sc = build(cfg);
    sc.world.run_until(SimTime::from_secs(60));
    let rec = sc.world.registry();
    assert_eq!(rec.counter("agw0.mme.attach_accept"), 3.0);
    assert_eq!(rec.counter("agw0.mme.detach"), 3.0);
    assert_eq!(sc.agws[0].handle.borrow().active_sessions, 0);
    // Attached gauge returned to zero.
    let attached_last = rec
        .series("ran.attached")
        .and_then(|s| s.values().last())
        .unwrap_or(0.0);
    assert_eq!(attached_last, 0.0);
}

/// SQN is the gateway's runtime state: every attach advances it in the
/// replica, and the orchestrator's rows all say 0. Configuration arriving
/// from the orchestrator — however it arrives — must not wind it back, or
/// every UE that re-attaches afterwards sees a sequence number it has
/// already used and fails AKA until the counter climbs back (74 failed
/// attaches in this scenario before replication kept the higher SQN).
#[test]
fn a_northbound_write_does_not_fail_later_reattaches() {
    let mut sc = churning_site();
    // Between two check-ins (every 5 s), so the push carries it.
    sc.world.run_until(SimTime::from_secs(101));
    sc.orc8r.borrow_mut().upsert_subscriber(unrelated_subscriber(0));
    // And a churning UE's own row, which arrives with the orchestrator's
    // SQN of 0 in it.
    let own = sc.orc8r.borrow().db.get(sc.imsis[0]).expect("provisioned").clone();
    sc.orc8r
        .borrow_mut()
        .upsert_subscriber(own.with_ambr(magma_policy::Ambr::new(30_000, 5_000)));
    sc.world.run_until(SimTime::from_secs(300));

    let rec = sc.world.registry();
    let pushes = rec.series("agw0.config.push").map(|s| s.len()).unwrap_or(0);
    assert_eq!(pushes, 1, "both writes, one push");
    assert_eq!(
        sc.agws[0].handle.borrow().last_db_version,
        sc.orc8r.borrow().db.version
    );
    assert!(rec.counter("agw0.mme.attach_accept") > 100.0);
    assert_eq!(sc.world.registry().counter("ran.attach_fail"), 0.0);
}

/// The same through the fallback: the orchestrator is down while more
/// writes land than its change log holds, so when the gateway reconnects
/// its check-in is answered with the full snapshot.
#[test]
fn a_checkin_pulled_snapshot_does_not_fail_later_reattaches() {
    let mut sc = churning_site();
    sc.world.run_until(SimTime::from_secs(100));
    let orc8r_stack = sc.net.stack_of(sc.orc8r_node).expect("orc8r stack bound");
    sc.world.crash(sc.orc8r_actor);
    sc.world.crash(orc8r_stack);
    for k in 0..300 {
        sc.orc8r.borrow_mut().upsert_subscriber(unrelated_subscriber(k));
    }
    assert!(sc.orc8r.borrow().db.changes_since(13).is_none(), "past the horizon");
    sc.world.run_until(SimTime::from_secs(110));
    sc.world.restart(
        orc8r_stack,
        Box::new(NetStack::new(sc.orc8r_node, sc.net.handle())),
    );
    sc.world.restart(
        sc.orc8r_actor,
        Box::new(Orc8rActor::new(sc.orc8r.clone(), orc8r_stack, ports::ORC8R)),
    );
    sc.world.run_until(SimTime::from_secs(300));

    let rec = sc.world.registry();
    let syncs = rec.series("agw0.config.sync").map(|s| s.len()).unwrap_or(0);
    assert_eq!(syncs, 1, "pulled at check-in");
    assert_eq!(
        rec.series("agw0.config.push").map(|s| s.len()).unwrap_or(0),
        0
    );
    assert_eq!(
        sc.agws[0].handle.borrow().last_db_version,
        sc.orc8r.borrow().db.version
    );
    assert!(rec.counter("agw0.mme.attach_accept") > 100.0);
    assert_eq!(sc.world.registry().counter("ran.attach_fail"), 0.0);
}
