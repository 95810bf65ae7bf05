//! Device management and telemetry (§3.1, Table 1's "no 3GPP
//! equivalent" rows): the orchestrator tracks the gateway fleet, samples
//! its health, and alerts when a gateway goes dark.

use magma_net::LinkProfile;
use magma_ran::TrafficModel;
use magma_sim::{SimDuration, SimTime};
use magma_testbed::scenario::{build, AgwSpec, ScenarioConfig, SiteSpec};

fn site() -> SiteSpec {
    SiteSpec {
        enbs: 1,
        ues_per_enb: 5,
        attach_rate_per_sec: 1.0,
        traffic: TrafficModel::http_download(),
        ..SiteSpec::typical()
    }
}

#[test]
fn fleet_history_tracks_sessions_and_online_count() {
    let cfg = ScenarioConfig::new(23)
        .with_agw(AgwSpec::bare_metal(site()))
        .with_agw(AgwSpec::bare_metal(site()));
    let mut sc = build(cfg);
    sc.world.run_until(SimTime::from_secs(60));

    let orc8r = sc.orc8r.borrow();
    assert!(orc8r.history.len() >= 10, "5s sampling over 60s");
    let last = orc8r.history.last().unwrap();
    assert_eq!(last.gateways, 2);
    assert_eq!(last.online, 2);
    assert_eq!(last.enbs, 2);
    assert_eq!(last.sessions, 10);
    assert!(orc8r.alerts.is_empty(), "healthy fleet raises no alerts");
    assert!(orc8r.offline_gateways(sc.world.now()).is_empty());
}

#[test]
fn partitioned_gateway_raises_offline_alert_then_recovers() {
    let cfg = ScenarioConfig::new(24).with_agw(AgwSpec::bare_metal(site()));
    let mut sc = build(cfg);
    sc.world.run_until(SimTime::from_secs(30));
    assert!(sc.orc8r.borrow().alerts.is_empty());

    // Partition the gateway's backhaul: check-ins stop.
    let (a, o) = (sc.agws[0].node, sc.orc8r_node);
    sc.net.set_link_up(a, o, false);
    sc.world.run_until(SimTime::from_secs(90));
    {
        let orc8r = sc.orc8r.borrow();
        let offline = orc8r.offline_gateways(sc.world.now());
        assert_eq!(offline, vec!["agw0".to_string()]);
        assert_eq!(orc8r.alerts.len(), 1, "exactly one alert per episode");
        assert_eq!(orc8r.alerts[0].gateway, "agw0");
        let last = orc8r.history.last().unwrap();
        assert_eq!(last.online, 0);
    }

    // Heal: the gateway checks back in and is online again.
    sc.net.set_link_up(a, o, true);
    sc.world.run_for(SimDuration::from_secs(60));
    {
        let orc8r = sc.orc8r.borrow();
        assert!(orc8r.offline_gateways(sc.world.now()).is_empty());
        assert_eq!(orc8r.alerts.len(), 1, "no duplicate alerts after recovery");
        assert_eq!(orc8r.history.last().unwrap().online, 1);
    }
}

/// A gateway behind a backhaul whose round trip is 3 s. The stream is
/// the one loss-recovery layer, so the bootstrap call goes out once and
/// waits for its answer however slow the link; the check-in timer does
/// not ask again while it waits. A bootstrap repeated by
/// the reconnect flush (the only re-send) is answered with the cert
/// already issued, so whichever answer lands is the cert the
/// orchestrator holds and the first check-in is accepted.
#[test]
fn retried_bootstrap_keeps_the_cert_an_earlier_try_delivers() {
    let mut agw = AgwSpec::bare_metal(SiteSpec { enbs: 0, ..site() });
    agw.backhaul = LinkProfile::fiber().with_latency(SimDuration::from_millis(1_500));
    let mut sc = build(ScenarioConfig::new(25).with_agw(agw));
    let w = &mut sc.world;

    w.run_until(SimTime::from_secs(20));
    let rpc = w.shard_snapshot();
    let bootstraps = rpc.edges.iter().find(|e| e.kind == "orc8r.Bootstrap");
    assert_eq!(
        bootstraps.map(|e| e.messages),
        Some(1),
        "one bootstrap sent"
    );
    let mut st = sc.orc8r.borrow_mut();
    let dev = &st.devices["agw0"];
    assert!(dev.checkins >= 1, "no check-in within 20 s: {dev:?}");
    // The orchestrator mints certs from 1000 upward and each mint
    // replaces the device's cert: 1000 means exactly one was issued.
    assert_eq!(
        dev.cert, 1000,
        "a retried bootstrap minted a new cert: {dev:?}"
    );
    // What the orchestrator does with the same bootstrap delivered again.
    let token = dev.hw_token;
    assert_eq!(st.bootstrap("agw0", token), 1000, "a repeat keeps the cert");
}
