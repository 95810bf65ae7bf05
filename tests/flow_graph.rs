//! The message-flow graph, built from the typed dispatch consts every
//! crate exports ([`magma::dispatches`]): `check` finds nothing on it,
//! `docs/MESSAGE_FLOW.md` is its render, and one deployment running
//! every production actor sends every kind in it.
//!
//! `docs/MESSAGE_FLOW.md` is pinned like `scripts/golden/rpc_bodies.txt`:
//! after an intentional graph change, delete it and re-run
//! `cargo test -p magma --test flow_graph`.

use magma::prelude::*;
use magma::policy::UsageTracking;
use magma::sim::flow;
use magma::testbed::scenario::{msin_for, Scenario};
use magma_epc_baseline::EpcCoreActor;
use magma_net::{ports, Endpoint, LinkProfile};
use magma_ran::{ue_fleet, EnbConfig, EnodebActor, Logout, WifiApActor, WifiApConfig};
use magma_subscriber::SubscriberDb;
use std::collections::BTreeSet;
use std::path::PathBuf;

#[test]
fn the_typed_graph_checks_clean() {
    let graph = magma::dispatches();
    assert_eq!(flow::check(&graph), []);
    // The graph covers the real message surface, not a remnant.
    let kinds = flow::kinds(&graph).len();
    assert!(kinds >= 25, "flow graph collapsed: {kinds} kinds");
    assert!(graph.len() >= 8, "flow graph collapsed: {} surfaces", graph.len());
}

#[test]
fn message_flow_doc_is_generated_and_byte_deterministic() {
    let graph = magma::dispatches();
    let doc = flow::render(&graph);
    let reversed: Vec<_> = graph.iter().rev().copied().collect();
    assert_eq!(doc, flow::render(&reversed), "render depends on the surfaces' order");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/MESSAGE_FLOW.md");
    match std::fs::read_to_string(&path) {
        Ok(committed) => assert_eq!(
            committed,
            doc,
            "{} drifted — delete it and re-run `cargo test -p magma --test flow_graph`",
            path.display()
        ),
        Err(_) => std::fs::write(&path, &doc).expect("install docs/MESSAGE_FLOW.md"),
    }
    // The paper's core edge sets are present with their delay classes,
    // and requests with the timer F004 validates.
    for needle in [
        "- out: `ran.s1ap_ul` → `agw` [transport/request, retry `ran.enb.attach_timeout`]",
        "- out: `orc8r.Checkin` → `orc8r` [transport/request, retry `agw.rpc_tick`]",
        "- out: `feg.AuthInfo` → `feg` [transport/request, retry `agw.rpc_tick`]",
        "- out: `sync.Subscribers` → `agw` [transport/data]",
        "- out: `ran.fluid_demand` → `agw` [zero/data]",
    ] {
        assert!(doc.contains(needle), "missing edge line: {needle}");
    }
}

/// One deployment running every production actor: a prepaid gateway
/// under the orchestrator (metricsd, an eNodeB whose sessions end, a
/// WiFi AP that logs out), a gateway federating through the FeG to an
/// MNO core, and the EPC baseline with its own eNodeB.
fn every_actor() -> Scenario {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 4,
        attach_rate_per_sec: 2.0,
        session_lifetime_s: Some((4, 8)),
        ..SiteSpec::typical()
    };
    let mut prepaid = PolicyRule::unrestricted("prepaid");
    prepaid.tracking = UsageTracking::Online;
    let mut cfg = ScenarioConfig::new(7)
        .with_agw(AgwSpec::bare_metal(site))
        .with_policies(vec![prepaid], vec!["prepaid".to_string()]);
    cfg.prepaid_balance = Some(10_000_000);
    let mut sc = magma::deploy(cfg);
    let (agw0, agw0_node, core) = (sc.agws[0].actor, sc.agws[0].node, sc.orc8r_node);
    {
        let mut orc8r = sc.orc8r.borrow_mut();
        orc8r.upsert_policy(PolicyRule::unrestricted("unrestricted"));
        orc8r.upsert_subscriber(SubscriberProfile::wifi(Imsi::new(310, 26, 9001), "ap", "pw"));
    }
    let ap = sc.add_behind(0, "ap", |stack| {
        WifiApActor::new(WifiApConfig {
            name: "ap-session".to_string(),
            stack,
            agw_aaa: Endpoint::new(agw0_node, ports::RADIUS_AUTH),
            agw_actor: agw0,
            username: "ap".to_string(),
            password: "pw".to_string(),
            dl_bps: 1_000_000,
            ul_bps: 200_000,
            auth_at: SimDuration::from_secs(2),
        })
    });

    // Federation: gateway 1 holds no subscriber of its site; the MNO's
    // HSS does.
    let mut mno_db = SubscriberDb::new();
    let mut epc_db = SubscriberDb::new();
    for i in 1..=2u64 {
        let roamer = msin_for(1, 0, i as usize - 1);
        mno_db.upsert(SubscriberProfile::lte(Imsi::new(310, 26, roamer), 7, roamer));
        epc_db.upsert(SubscriberProfile::lte(Imsi::new(310, 26, 100 + i), 7, 100 + i));
    }
    let mut agw1 = AgwSpec::bare_metal(SiteSpec {
        enbs: 1,
        ues_per_enb: 2,
        ..SiteSpec::typical()
    });
    agw1.feg = Some(sc.add_feg(mno_db));
    sc.add_agw(&agw1);

    // The EPC baseline probes its eNodeB's GTP-U path.
    let (core_node, core_stack) = sc.add_node("epc", core, LinkProfile::fiber());
    let epc = sc.world.add_actor(Box::new(EpcCoreActor::new(core_stack, epc_db, 0.0)));
    let (_, enb_stack) = sc.add_node("epc-enb", core_node, LinkProfile::microwave());
    let enb = EnbConfig::new(12, enb_stack, Endpoint::new(core_node, ports::S1AP), epc);
    let ues = ue_fleet(7, 101, 2, TrafficModel::http_download());
    sc.world.add_actor(Box::new(EnodebActor::new(enb, ues)));

    // A northbound write between two check-ins: a desired-state push.
    // Then the station logs out.
    sc.world.run_until(SimTime::from_secs(12));
    let late = SubscriberProfile::lte(Imsi::new(310, 26, 999), 7, 999);
    sc.orc8r.borrow_mut().upsert_subscriber(late);
    sc.world.run_until(SimTime::from_secs(15));
    sc.world.inject(ap, Box::new(Logout));
    sc.world.run_until(SimTime::from_secs(20));
    sc
}

/// A production actor that forgot [`Actor::dispatch`] would skip the
/// run-time send checks silently, so every actor here must name its
/// surface, and together they must be every surface in the graph. In
/// debug builds the run also sent every kind in the graph, and nothing
/// outside it ("declared but never sent", "sent but no arm").
///
/// [`Actor::dispatch`]: magma::sim::Actor::dispatch
#[test]
fn every_actor_declares_its_surface_and_every_kind_is_sent() {
    let sc = every_actor();
    let graph = magma::dispatches();
    let mut seen = BTreeSet::new();
    for (id, surface) in sc.world.surfaces().iter().enumerate() {
        let surface = surface.unwrap_or_else(|| panic!("actor#{id} declares no dispatch surface"));
        seen.insert(surface.ident);
    }
    let all: BTreeSet<&str> = graph.iter().map(|d| d.ident).collect();
    assert_eq!(seen, all);
    if cfg!(debug_assertions) {
        assert_eq!(flow::coverage(&graph, &sc.world.kinds_sent()), []);
    }
}
