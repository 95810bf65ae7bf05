//! 5G support (§3.1): a gNB terminates NGAP at the AGW's AMF front; the
//! same generic functions (subscriber management, session/policy
//! management, data-plane configuration) serve the session. In this
//! reproduction NGAP shares the S1AP message shapes on the NGAP port —
//! the point of Magma's design being precisely that the generic side is
//! identical.

use magma::prelude::*;
use magma::sim::{HostSpec, World};
use magma_agw::{new_agw_handle, AccessTech, AgwActor, AgwConfig};
use magma_net::{Endpoint, LinkProfile, NetFabric, ports};
use magma_ran::{ue_fleet, EnbConfig, EnodebActor};
use magma_subscriber::SubscriberDb;

#[test]
fn gnb_attach_over_ngap_creates_5g_session() {
    let mut w = World::new(55);
    let net = NetFabric::new();
    let agw_node = net.add_node("agw");
    let gnb_node = net.add_node("gnb");
    net.connect(gnb_node, agw_node, LinkProfile::lan());
    let agw_stack = net.add_stack(&mut w, agw_node);
    let gnb_stack = net.add_stack(&mut w, gnb_node);

    // Subscribers upgraded to 5G (same SIM, union schema).
    let mut db = SubscriberDb::new();
    for i in 1..=3u64 {
        db.upsert(SubscriberProfile::lte(Imsi::new(310, 26, i), 7, i).with_5g());
    }
    let host = w.add_host(HostSpec::uniform("agw", 4, 1.0));
    let handle = new_agw_handle();
    let mut agw = AgwActor::new(AgwConfig::new("agw0", host, agw_stack), handle.clone());
    agw.preprovision(db.snapshot());
    let agw = w.add_actor(Box::new(agw));

    // The "gNB": identical RAN actor pointed at the NGAP port.
    let ues = ue_fleet(7, 1, 3, TrafficModel::http_download());
    let mut cfg = EnbConfig::new(1, gnb_stack, Endpoint::new(agw_node, ports::NGAP), agw);
    cfg.attach_rate_per_sec = 1.0;
    w.add_actor(Box::new(EnodebActor::new(cfg, ues)));

    w.run_until(SimTime::from_secs(30));
    let rec = w.registry();
    assert_eq!(rec.counter("agw0.mme.attach_accept"), 3.0, "5G attaches accepted");

    // Registrations record under the AMF's span, stage-for-stage
    // comparable with the 4G attach span (docs/OBSERVABILITY.md): the
    // first leg is `ngap`, the generic stages are shared.
    let reg = w.registry();
    let total = reg
        .histogram("agw0.amf.register.total_s")
        .expect("amf.register span recorded");
    assert_eq!(total.count, 3, "every accepted registration finishes its span");
    for stage in ["ngap", "nas_auth", "session_setup", "bearer_install"] {
        let h = reg
            .histogram(&format!("agw0.amf.register.{stage}_s"))
            .unwrap_or_else(|| panic!("missing 5G stage histogram {stage}"));
        assert_eq!(h.count, 3, "stage {stage} marked once per registration");
    }
    // And nothing leaked into the 4G span: this world saw no LTE attach.
    assert!(reg.histogram("agw0.mme.attach.total_s").is_none());

    // Sessions carry the 5G access technology.
    let cp = handle.borrow().checkpoint.clone().unwrap();
    assert_eq!(cp.sessions.len(), 3);
    for s in cp.sessions.iter() {
        assert_eq!(s.tech, AccessTech::Nr5g);
    }

    // Traffic flows through the same data plane.
    let bytes: f64 = rec
        .series("agw0.dataplane.tp_bytes")
        .map(|s| s.values().sum())
        .unwrap_or(0.0);
    assert!(bytes > 5_000_000.0, "5G user plane active: {bytes}");
}

#[test]
fn lte_only_subscriber_rejected_on_5g() {
    let mut w = World::new(56);
    let net = NetFabric::new();
    let agw_node = net.add_node("agw");
    let gnb_node = net.add_node("gnb");
    net.connect(gnb_node, agw_node, LinkProfile::lan());
    let agw_stack = net.add_stack(&mut w, agw_node);
    let gnb_stack = net.add_stack(&mut w, gnb_node);

    // LTE-only subscription: 5G access must be refused.
    let mut db = SubscriberDb::new();
    db.upsert(SubscriberProfile::lte(Imsi::new(310, 26, 1), 7, 1));
    let host = w.add_host(HostSpec::uniform("agw", 4, 1.0));
    let mut agw = AgwActor::new(AgwConfig::new("agw0", host, agw_stack), new_agw_handle());
    agw.preprovision(db.snapshot());
    let agw = w.add_actor(Box::new(agw));

    let ues = ue_fleet(7, 1, 1, TrafficModel::idle());
    let mut cfg = EnbConfig::new(1, gnb_stack, Endpoint::new(agw_node, ports::NGAP), agw);
    cfg.attach_rate_per_sec = 1.0;
    w.add_actor(Box::new(EnodebActor::new(cfg, ues)));

    w.run_until(SimTime::from_secs(20));
    let rec = w.registry();
    assert_eq!(rec.counter("agw0.mme.attach_accept"), 0.0);
    assert!(rec.counter("agw0.mme.attach_reject") >= 1.0);
}
