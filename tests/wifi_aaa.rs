//! Carrier WiFi: the AGW's AAA terminates RADIUS from APs, maps the
//! credentials onto the shared subscriber database (union schema), and
//! the session rides the same data plane. Accounting Stop tears the
//! session down.

use magma::prelude::*;
use magma::ran::{Logout, WifiApActor, WifiApConfig};
use magma::sim::ActorId;
use magma::testbed::Scenario;
use magma_net::{ports, Endpoint};

/// A gateway without a cell site and one AP behind it, whose user logs
/// in at 500 ms.
fn build(password_ok: bool) -> (Scenario, ActorId) {
    let mut sc = magma::deploy(ScenarioConfig::new(77));
    {
        let mut orc8r = sc.orc8r.borrow_mut();
        orc8r.upsert_policy(PolicyRule::unrestricted("unrestricted"));
        orc8r.upsert_subscriber(SubscriberProfile::wifi(
            Imsi::new(310, 26, 9001),
            "hotspot-1",
            "right-password",
        ));
    }
    sc.add_agw(&AgwSpec::bare_metal(SiteSpec { enbs: 0, ..SiteSpec::typical() }));
    let (agw_node, agw) = (sc.agws[0].node, sc.agws[0].actor);
    let ap = sc.add_behind(0, "ap", |stack| {
        WifiApActor::new(WifiApConfig {
            name: "hotspot-1-session".to_string(),
            stack,
            agw_aaa: Endpoint::new(agw_node, ports::RADIUS_AUTH),
            agw_actor: agw,
            username: "hotspot-1".to_string(),
            password: if password_ok {
                "right-password".to_string()
            } else {
                "wrong".to_string()
            },
            dl_bps: 10_000_000,
            ul_bps: 2_000_000,
            auth_at: SimDuration::from_millis(500),
        })
    });
    (sc, ap)
}

#[test]
fn ap_authenticates_and_traffic_flows() {
    let (mut sc, _) = build(true);
    sc.world.run_until(SimTime::from_secs(30));
    let rec = sc.world.registry();
    assert_eq!(
        rec.series("agw0.wifi.accept").map(|s| s.len()).unwrap_or(0),
        1
    );
    assert_eq!(sc.agws[0].handle.borrow().active_sessions, 1);
    let bytes: f64 = rec
        .series("agw0.dataplane.tp_bytes")
        .map(|s| s.values().sum())
        .unwrap_or(0.0);
    // ~12 Mbit/s for ~29 s.
    assert!(bytes > 20_000_000.0, "hotspot traffic backhauled: {bytes}");

    // The session is a WiFi session (no GTP) in the checkpoint.
    let cp = sc.agws[0].handle.borrow().checkpoint.clone().unwrap();
    assert_eq!(
        cp.sessions.iter().next().unwrap().tech,
        magma_agw::AccessTech::Wifi
    );
}

#[test]
fn wrong_password_rejected() {
    let (mut sc, _) = build(false);
    sc.world.run_until(SimTime::from_secs(10));
    let rec = sc.world.registry();
    assert_eq!(
        rec.series("agw0.wifi.accept").map(|s| s.len()).unwrap_or(0),
        0
    );
    assert!(rec.series("agw0.wifi.reject").map(|s| s.len()).unwrap_or(0) >= 1);
    assert_eq!(sc.agws[0].handle.borrow().active_sessions, 0);
}

#[test]
fn accounting_stop_tears_down_session() {
    let (mut sc, ap) = build(true);
    sc.world.run_until(SimTime::from_secs(10));
    assert_eq!(sc.agws[0].handle.borrow().active_sessions, 1);

    // The captive portal logged the user out: the AP sends Accounting
    // Stop to the AGW's AAA.
    sc.world.inject(ap, Box::new(Logout));
    sc.world.run_until(SimTime::from_secs(15));
    assert_eq!(
        sc.agws[0].handle.borrow().active_sessions,
        0,
        "Accounting Stop removed the session"
    );
}
