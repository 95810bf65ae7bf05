//! 5G support (§3.1): a gNB terminates NGAP at the AGW's AMF front; the
//! same generic functions (subscriber management, session/policy
//! management, data-plane configuration) serve the session. In this
//! reproduction NGAP shares the S1AP message shapes on the NGAP port —
//! the point of Magma's design being precisely that the generic side is
//! identical.

use magma::prelude::*;
use magma::testbed::Scenario;
use magma_agw::AccessTech;
use magma_net::{ports, Endpoint};
use magma_ran::{ue_fleet, EnbConfig, EnodebActor};

/// A gateway holding `subscribers` and, behind it, a gNB — the RAN actor
/// an eNodeB is, pointed at the NGAP port — whose UEs are MSINs 1, 2, ….
fn gnb_site(seed: u64, subscribers: &[SubscriberProfile], traffic: TrafficModel) -> Scenario {
    let mut sc = magma::deploy(ScenarioConfig::new(seed));
    for p in subscribers {
        sc.orc8r.borrow_mut().upsert_subscriber(p.clone());
    }
    sc.add_agw(&AgwSpec::bare_metal(SiteSpec { enbs: 0, ..SiteSpec::typical() }));
    let (amf, agw) = (Endpoint::new(sc.agws[0].node, ports::NGAP), sc.agws[0].actor);
    let ues = ue_fleet(7, 1, subscribers.len(), traffic);
    sc.add_behind(0, "gnb", |stack| {
        let mut cfg = EnbConfig::new(1, stack, amf, agw);
        cfg.attach_rate_per_sec = 1.0;
        EnodebActor::new(cfg, ues)
    });
    sc
}

#[test]
fn gnb_attach_over_ngap_creates_5g_session() {
    // Subscribers upgraded to 5G (same SIM, union schema).
    let subscribers: Vec<_> = (1..=3u64)
        .map(|i| SubscriberProfile::lte(Imsi::new(310, 26, i), 7, i).with_5g())
        .collect();
    let mut sc = gnb_site(55, &subscribers, TrafficModel::http_download());
    let (w, handle) = (&mut sc.world, &sc.agws[0].handle);

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
    // LTE-only subscription: 5G access must be refused.
    let lte_only = [SubscriberProfile::lte(Imsi::new(310, 26, 1), 7, 1)];
    let mut sc = gnb_site(56, &lte_only, TrafficModel::idle());
    let w = &mut sc.world;

    w.run_until(SimTime::from_secs(20));
    let rec = w.registry();
    assert_eq!(rec.counter("agw0.mme.attach_accept"), 0.0);
    assert!(rec.counter("agw0.mme.attach_reject") >= 1.0);
}
