//! Carrier WiFi: the AGW's AAA terminates RADIUS from APs, maps the
//! credentials onto the shared subscriber database (union schema), and
//! the session rides the same data plane. Accounting Stop tears the
//! session down.

mod common;

use magma::prelude::*;
use magma::sim::{HostSpec, World};
use magma_agw::{new_agw_handle, AgwActor, AgwConfig};
use magma_net::{Endpoint, LinkProfile, NetFabric, ports};
use magma_ran::{WifiApActor, WifiApConfig};
use magma_subscriber::SubscriberDb;

struct Rig {
    world: World,
    handle: magma_agw::AgwHandle,
}

fn build(password_ok: bool) -> Rig {
    let mut w = World::new(77);
    let net = NetFabric::new();
    let agw_node = net.add_node("agw");
    let ap_node = net.add_node("ap");
    net.connect(ap_node, agw_node, LinkProfile::lan());
    let agw_stack = net.add_stack(&mut w, agw_node);
    let ap_stack = net.add_stack(&mut w, ap_node);

    let mut db = SubscriberDb::new();
    db.upsert_rule(magma_policy::PolicyRule::unrestricted("unrestricted"));
    db.upsert(SubscriberProfile::wifi(
        Imsi::new(310, 26, 9001),
        "hotspot-1",
        "right-password",
    ));
    let host = w.add_host(HostSpec::uniform("agw", 4, 1.0));
    let handle = new_agw_handle();
    let mut agw = AgwActor::new(AgwConfig::new("agw0", host, agw_stack), handle.clone());
    agw.preprovision(db.snapshot());
    let agw = w.add_actor(Box::new(agw));

    w.add_actor(Box::new(WifiApActor::new(WifiApConfig {
        name: "hotspot-1-session".to_string(),
        stack: ap_stack,
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
    })));
    Rig { world: w, handle }
}

#[test]
fn ap_authenticates_and_traffic_flows() {
    let mut rig = build(true);
    rig.world.run_until(SimTime::from_secs(30));
    let rec = rig.world.registry();
    assert_eq!(
        rec.series("agw0.wifi.accept").map(|s| s.len()).unwrap_or(0),
        1
    );
    assert_eq!(rig.handle.borrow().active_sessions, 1);
    let bytes: f64 = rec
        .series("agw0.dataplane.tp_bytes")
        .map(|s| s.values().sum())
        .unwrap_or(0.0);
    // ~12 Mbit/s for ~29 s.
    assert!(bytes > 20_000_000.0, "hotspot traffic backhauled: {bytes}");

    // The session is a WiFi session (no GTP) in the checkpoint.
    let cp = rig.handle.borrow().checkpoint.clone().unwrap();
    assert_eq!(
        cp.sessions.iter().next().unwrap().tech,
        magma_agw::AccessTech::Wifi
    );
}

#[test]
fn wrong_password_rejected() {
    let mut rig = build(false);
    rig.world.run_until(SimTime::from_secs(10));
    let rec = rig.world.registry();
    assert_eq!(
        rec.series("agw0.wifi.accept").map(|s| s.len()).unwrap_or(0),
        0
    );
    assert!(rec.series("agw0.wifi.reject").map(|s| s.len()).unwrap_or(0) >= 1);
    assert_eq!(rig.handle.borrow().active_sessions, 0);
}

#[test]
fn accounting_stop_tears_down_session() {
    let mut rig = build(true);
    rig.world.run_until(SimTime::from_secs(10));
    assert_eq!(rig.handle.borrow().active_sessions, 1);

    // The captive portal logged the user out: an Accounting Stop arrives
    // at the AGW's AAA. Sent via a one-shot actor through the AP's
    // network stack (actor construction order in build(): 0 = agw stack,
    // 1 = ap stack, 2 = agw, 3 = ap).
    use magma_wire::radius::{acct_status, attr, Attribute, RadiusCode, RadiusPacket};
    let stop = RadiusPacket::new(RadiusCode::AccountingRequest, 9)
        .with_attr(Attribute::u32(attr::ACCT_STATUS_TYPE, acct_status::STOP))
        .with_attr(Attribute::string(attr::ACCT_SESSION_ID, "hotspot-1-session"));
    rig.world.add_actor(Box::new(common::SendOnce {
        stack: magma::sim::ActorId(1),
        dst: Endpoint::new(magma_net::NodeAddr(0), ports::RADIUS_ACCT),
        bytes: stop.encode(),
    }));
    rig.world.run_until(SimTime::from_secs(15));
    assert_eq!(
        rig.handle.borrow().active_sessions,
        0,
        "Accounting Stop removed the session"
    );
}
