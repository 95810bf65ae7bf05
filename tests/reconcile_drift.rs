//! Drift guard for the keyed reconcile (§3.4): the AGW keeps the data
//! plane's full desired state and, after a session change, recompiles
//! only the sessions it names. A call site that forgets to name one
//! would leave the data plane behind the session table for good, so
//! this test drives every kind of session change through one gateway —
//! attach, detach, handover, OCS block → grant → unblock, a tiered
//! limit change, WiFi accept/stop, crash + restore from the checkpoint
//! the orchestrator stores — and then holds the live pipeline against a fresh one given
//! `compile(&sessions)`. (Debug builds also assert the same equality on
//! every checkpoint, see `AgwActor::take_checkpoint`.)

mod common;

use magma::agw::{checkpoint, pipelined, AgwActor, AgwCheckpoint};
use magma::dataplane::{PacketMeta, Pipeline};
use magma::prelude::*;
use magma::subscriber::SubscriberDb;
use magma::sim::{Actor, Ctx, Event};
use magma::testbed::Scenario;
use magma_net::{ports, Endpoint, LinkProfile, NetStack};
use magma_policy::{Qci, UsageTracking};
use magma_ran::{WifiApActor, WifiApConfig};
use magma_wire::radius::{acct_status, attr, Attribute, RadiusCode, RadiusPacket};
use magma_wire::s1ap::MmeUeId;
use magma_wire::Teid;
use std::cell::RefCell;
use std::rc::Rc;

/// An `AgwActor` the test can still see once the world owns it.
struct Watched(Rc<RefCell<AgwActor>>);

impl Actor for Watched {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        self.0.borrow_mut().handle(ctx, event);
    }

    fn name(&self) -> String {
        self.0.borrow().name()
    }
}

const HOTSPOT: &str = "hotspot-1";

/// Swap gateway 0's (crashed) actor slot for a watched instance.
fn install(sc: &mut Scenario, mut agw: AgwActor) -> Rc<RefCell<AgwActor>> {
    agw.set_up_cores(sc.agws[0].up_cores);
    let agw = Rc::new(RefCell::new(agw));
    sc.world
        .restart(sc.agws[0].actor, Box::new(Watched(agw.clone())));
    agw
}

/// What the test saw the session table pass through.
#[derive(Default)]
struct Seen {
    blocked: bool,
    throttled: bool,
    wifi: bool,
    handed_over: bool,
}

fn run_watching(sc: &mut Scenario, agw: &Rc<RefCell<AgwActor>>, until_s: u64, seen: &mut Seen) {
    while sc.world.now() < SimTime::from_secs(until_s) {
        sc.world.run_for(SimDuration::from_millis(100));
        let mut agw = agw.borrow_mut();
        let (sessions, _) = agw.dataplane_view();
        for s in sessions.iter() {
            seen.blocked |= s.blocked;
            seen.throttled |= s.limit.is_some_and(|l| l.dl_kbps == 200);
            seen.wifi |= s.tech == magma::agw::AccessTech::Wifi;
            seen.handed_over |= s.dl_teid == common::TARGET_ENB_TEID;
        }
    }
}

#[test]
fn live_dataplane_equals_a_fresh_compile_after_every_kind_of_change() {
    // Prepaid and tiered at once: the OCS grants 300 kB at a time out of
    // a 1.5 MB balance (block → grant → unblock on every attach, refills,
    // and a final block when the balance is gone), and 1 MB of usage
    // drops the session from 4 Mbit/s to 200 kbit/s.
    let plan = PolicyRule {
        id: "prepaid-tiered".to_string(),
        priority: 10,
        qci: Qci::Default,
        tracking: UsageTracking::Online,
        limit: None,
        tiered: Some(TieredPolicy {
            normal: RateLimit {
                dl_kbps: 4_000,
                ul_kbps: 1_000,
            },
            cap_bytes: 1_000_000,
            window: SimDuration::from_secs(3600),
            throttled: RateLimit {
                dl_kbps: 200,
                ul_kbps: 100,
            },
            penalty: SimDuration::from_secs(300),
        }),
    };
    let site = SiteSpec {
        enbs: 2,
        ues_per_enb: 5,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel {
            dl_bps: 6_000_000,
            ul_bps: 200_000,
        },
        reattach: true,
        session_lifetime_s: Some((12, 25)),
        ..SiteSpec::typical()
    };
    let mut cfg = ScenarioConfig::new(16)
        .with_agw(AgwSpec::bare_metal(site))
        .with_policies(vec![plan.clone()], vec![plan.id.clone()]);
    cfg.quota_bytes = 300_000;
    cfg.prepaid_balance = Some(1_500_000);
    let mut sc = magma::deploy(cfg);
    sc.orc8r.borrow_mut().upsert_subscriber(SubscriberProfile::wifi(
        Imsi::new(310, 26, 9001),
        HOTSPOT,
        "right-password",
    ));

    // Gateway 0 runs as a watched instance from the first event on.
    sc.world.crash(sc.agws[0].actor);
    let mut agw = AgwActor::new(sc.agws[0].cfg.clone(), sc.agws[0].handle.clone());
    agw.preprovision(sc.orc8r.borrow().db.snapshot());
    let agw = install(&mut sc, agw);

    // Handover: the first attached UE moves to a target eNodeB at 6 s.
    common::add_target_enb(&mut sc, SimTime::from_secs(6), MmeUeId(1));

    // WiFi: a hotspot authenticates at 3 s …
    let ap_node = sc.net.add_node("ap");
    sc.net.connect(ap_node, sc.agws[0].node, LinkProfile::lan());
    let ap_stack = sc
        .world
        .add_actor(Box::new(NetStack::new(ap_node, sc.net.handle())));
    sc.net.bind_stack(ap_node, ap_stack);
    sc.world.add_actor(Box::new(WifiApActor::new(WifiApConfig {
        name: "hotspot-1-session".to_string(),
        stack: ap_stack,
        agw_aaa: Endpoint::new(sc.agws[0].node, ports::RADIUS_AUTH),
        agw_actor: sc.agws[0].actor,
        username: HOTSPOT.to_string(),
        password: "right-password".to_string(),
        sector: SectorModel::cbrs_modem(),
        tick: SimDuration::from_millis(100),
        dl_bps: 2_000_000,
        ul_bps: 500_000,
        auth_at: SimDuration::from_secs(3),
    })));

    let mut seen = Seen::default();
    run_watching(&mut sc, &agw, 20, &mut seen);
    assert!(seen.wifi, "hotspot session admitted");

    // … and its captive portal logs the user out at 20 s.
    let stop = RadiusPacket::new(RadiusCode::AccountingRequest, 9)
        .with_attr(Attribute::u32(attr::ACCT_STATUS_TYPE, acct_status::STOP))
        .with_attr(Attribute::string(attr::ACCT_SESSION_ID, "hotspot-1-session"));
    sc.world.add_actor(Box::new(common::SendOnce {
        stack: ap_stack,
        dst: Endpoint::new(sc.agws[0].node, ports::RADIUS_ACCT),
        bytes: stop.encode(),
    }));
    run_watching(&mut sc, &agw, 30, &mut seen);
    assert!(
        !agw.borrow_mut()
            .dataplane_view()
            .0
            .iter()
            .any(|s| s.tech == magma::agw::AccessTech::Wifi),
        "Accounting Stop removed the hotspot session"
    );

    // Crash just after 30 s; 2 s later a backup instance comes up from
    // the copy of the last checkpoint the orchestrator holds (§3.3), and
    // the UEs re-attach onto its restored sessions. That copy is the
    // gateway's sessions, leases and SQN marks as of its last acked
    // checkpoint, and no configuration: the backup's check-in pulls it.
    sc.world.run_for(SimDuration::from_millis(500));
    let local = sc.agws[0]
        .handle
        .borrow()
        .checkpoint
        .clone()
        .expect("checkpoints are taken every second");
    assert!(!local.sessions.is_empty());
    let stored = sc.orc8r.borrow().checkpoints[&sc.agws[0].id].clone();
    let sqn_marks = {
        let mut replica = SubscriberDb::new();
        replica.apply_snapshot(local.db.clone());
        replica.sqn_marks()
    };
    assert!(sqn_marks.len() >= 10, "every UE has authenticated");
    let runtime_only = AgwCheckpoint {
        db: Default::default(),
        ..local
    };
    assert_eq!(
        checkpoint::from_wire(stored.clone()),
        Ok((runtime_only, sqn_marks))
    );
    let attached_before_crash = sc.world.registry().counter("agw0.mme.attach_accept");
    sc.world.crash(sc.agws[0].actor);
    sc.world.crash(sc.agws[0].stack);
    drop(agw);
    sc.world.run_until(SimTime::from_millis(32_500));
    sc.world.restart(
        sc.agws[0].stack,
        Box::new(NetStack::new(sc.agws[0].node, sc.net.handle())),
    );
    let restored =
        AgwActor::restore_from_wire(sc.agws[0].cfg.clone(), sc.agws[0].handle.clone(), stored)
            .expect("the stored checkpoint parses");
    let agw = install(&mut sc, restored);
    run_watching(&mut sc, &agw, 90, &mut seen);
    assert_eq!(
        sc.agws[0].handle.borrow().last_db_version,
        sc.orc8r.borrow().db.version,
        "the backup's check-in pulled the configuration"
    );
    // The backup carried the SQNs on: no UE that re-attached after the
    // failover was refused for a sequence number it had already seen.
    let auth_failures = sc
        .world
        .events()
        .iter()
        .filter(|e| e.at >= SimTime::from_secs(32))
        .filter(|e| e.fields.get("cause").is_some_and(|c| c == "AuthFailure"))
        .count();
    assert_eq!(auth_failures, 0);

    // Every kind of change happened …
    let rec = sc.world.registry();
    assert!(attached_before_crash > 10.0, "attach churn");
    assert!(
        rec.counter("agw0.mme.attach_accept") > attached_before_crash + 10.0,
        "UEs re-attached onto the restored instance"
    );
    assert!(rec.counter("agw0.mme.detach") > 5.0, "detach churn");
    assert_eq!(
        rec.counter("agw0.mme.handover_ok"),
        1.0,
        "path switch handled"
    );
    assert_eq!(
        rec.series("agw0.wifi.accept").map(|s| s.len()).unwrap_or(0),
        1
    );
    assert!(seen.handed_over && seen.blocked && seen.throttled);
    {
        let orc8r = sc.orc8r.borrow();
        assert!(orc8r.ocs.grants_issued > 20, "OCS granted and refilled");
        assert!(orc8r.ocs.denials > 0, "some balance ran out");
    }

    // … and the incrementally programmed data plane is where a fresh one
    // given the full recompile would be.
    let mut agw = agw.borrow_mut();
    let (sessions, live) = agw.dataplane_view();
    assert!(sessions.len() >= 5, "sessions at the end: {}", sessions.len());
    let mut fresh = Pipeline::new();
    fresh.set_desired(&pipelined::compile(sessions));
    assert_eq!(live.rule_count(), fresh.rule_count());
    assert_eq!(live.meter_count(), fresh.meter_count());
    assert_eq!(live.session_count(), fresh.session_count());
    // Empty probes a second on, so no verdict turns on what a live
    // token bucket has left.
    let now = sc.world.now() + SimDuration::from_secs(1);
    for s in sessions.iter() {
        for pkt in [
            PacketMeta::uplink(s.ul_teid, s.ue_ip, 0),
            PacketMeta::uplink(Teid(s.ul_teid.0 + 1), s.ue_ip, 0),
            PacketMeta::downlink(s.ue_ip, 0),
        ] {
            assert_eq!(live.process(pkt, now), fresh.process(pkt, now), "{pkt:?}");
        }
    }
}
