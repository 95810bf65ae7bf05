//! End-to-end policy enforcement: the paper's §2.2 example policy
//! ("rate limit to X until Y bytes in t₁, then Z for t₂") flows from the
//! orchestrator's northbound API through the AGW's sessiond into
//! data-plane meters, and its phase transitions show up in measured
//! throughput.

use magma::prelude::*;
use magma::testbed::{mean_over, throughput_mbps};
use magma_net::LinkProfile;
use magma_policy::{SessionCredit, UsageTracking};

#[test]
fn tiered_policy_throttles_after_cap() {
    let plan = PolicyRule::tiered(
        "tiered",
        TieredPolicy {
            normal: RateLimit {
                dl_kbps: 8_000,
                ul_kbps: 2_000,
            },
            cap_bytes: 20_000_000, // 20 MB
            window: SimDuration::from_secs(3600),
            throttled: RateLimit {
                dl_kbps: 500,
                ul_kbps: 250,
            },
            penalty: SimDuration::from_secs(300),
        },
    );
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 2,
        attach_rate_per_sec: 2.0,
        // Offer more than the plan allows.
        traffic: TrafficModel {
            dl_bps: 20_000_000,
            ul_bps: 0,
        },
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(11)
        .with_agw(AgwSpec::bare_metal(site))
        .with_policies(vec![plan], vec!["tiered".to_string()]);
    let mut sc = magma::deploy(cfg);
    sc.world.run_until(SimTime::from_secs(120));

    let rec = sc.world.registry();
    let tp = throughput_mbps(rec, "agw0.dataplane.tp_bytes", SimDuration::from_secs(1));

    // Phase 1: both UEs at ~8 Mbit/s each (meter-limited, not offered).
    let early = mean_over(&tp, SimTime::from_secs(5), SimTime::from_secs(15));
    assert!(
        (early - 16.0).abs() < 2.5,
        "phase-1 rate ≈ 2×8 Mbit/s, got {early:.1}"
    );

    // Cap: 20 MB at 1 MB/s per UE ⇒ breach at ~20 s; by t=40 throttled.
    let late = mean_over(&tp, SimTime::from_secs(60), SimTime::from_secs(115));
    assert!(
        late < 2.0,
        "phase-2 throttled to ≈ 2×0.5 Mbit/s, got {late:.1}"
    );
    assert!(late > 0.5, "throttled but not blocked, got {late:.1}");
}

#[test]
fn flat_rate_limit_enforced_per_subscriber() {
    let silver = PolicyRule::rate_limited("silver", 2_000, 500);
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 4,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel {
            dl_bps: 50_000_000, // way over the plan
            ul_bps: 0,
        },
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(12)
        .with_agw(AgwSpec::bare_metal(site))
        .with_policies(vec![silver], vec!["silver".to_string()]);
    let mut sc = magma::deploy(cfg);
    sc.world.run_until(SimTime::from_secs(60));
    let rec = sc.world.registry();
    let tp = throughput_mbps(rec, "agw0.dataplane.tp_bytes", SimDuration::from_secs(1));
    let steady = mean_over(&tp, SimTime::from_secs(20), SimTime::from_secs(55));
    // 4 UEs × 2 Mbit/s.
    assert!((steady - 8.0).abs() < 1.5, "metered to plan: {steady:.1}");
}

#[test]
fn policy_update_propagates_and_applies_to_new_sessions() {
    // Start unrestricted; switch the rule to a tight limit mid-run; a UE
    // attaching after the change gets the new limit.
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 2,
        attach_rate_per_sec: 0.02, // second UE attaches ~50s in
        traffic: TrafficModel {
            dl_bps: 30_000_000,
            ul_bps: 0,
        },
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(13)
        .with_agw(AgwSpec::bare_metal(site))
        .with_policies(
            vec![PolicyRule::rate_limited("plan", 30_000, 10_000)],
            vec!["plan".to_string()],
        );
    let mut sc = magma::deploy(cfg);
    sc.world.run_until(SimTime::from_secs(20));

    // Tighten the plan via the northbound API.
    sc.orc8r
        .borrow_mut()
        .upsert_policy(PolicyRule::rate_limited("plan", 1_000, 500));
    sc.world.run_until(SimTime::from_secs(120));

    let rec = sc.world.registry();
    let tp = throughput_mbps(rec, "agw0.dataplane.tp_bytes", SimDuration::from_secs(1));
    // First UE (old limit) ~30 Mbit/s early.
    let early = mean_over(&tp, SimTime::from_secs(5), SimTime::from_secs(15));
    assert!(early > 20.0, "first UE unthrottled early: {early:.1}");
    // After the second UE attaches under the new rule, the delta it adds
    // is ~1 Mbit/s (the first session keeps its compiled limit until it
    // re-attaches — config applies to *new* sessions).
    let late = mean_over(&tp, SimTime::from_secs(80), SimTime::from_secs(115));
    assert!(
        late < 33.0 && late > 28.0,
        "old session at 30, new session at 1: {late:.1}"
    );
    assert_eq!(rec.counter("agw0.mme.attach_accept"), 2.0);
}

#[test]
fn online_credit_refills_keep_prepaid_sessions_served_over_satellite() {
    // Prepaid over a satellite backhaul: a refill request is in flight
    // for about six 100 ms ticks, and each of those ticks finds the
    // session below its refill threshold again. The gateway keeps one
    // request per session in flight (debug builds check its index of
    // in-flight credit calls against the calls on every forwarding
    // batch), and every answer lands before the credit runs out.
    let mut prepaid = PolicyRule::unrestricted("prepaid");
    prepaid.tracking = UsageTracking::Online;
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 3,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel {
            dl_bps: 2_000_000,
            ul_bps: 0,
        },
        ..SiteSpec::typical()
    };
    let quota = 200_000;
    let mut agw = AgwSpec::bare_metal(site);
    agw.backhaul = LinkProfile::satellite();
    let mut cfg = ScenarioConfig::new(14)
        .with_agw(agw)
        .with_policies(vec![prepaid], vec!["prepaid".to_string()]);
    cfg.quota_bytes = quota;
    cfg.prepaid_balance = Some(1_000_000_000);
    let mut sc = magma::deploy(cfg);
    sc.world.run_until(SimTime::from_secs(40));

    let cp = sc.agws[0].handle.borrow().checkpoint.clone().expect("checkpoint taken");
    assert_eq!(cp.sessions.len(), 3);
    let orc8r = sc.orc8r.borrow();
    for s in cp.sessions.iter() {
        let credit = s.credit.as_ref().expect("online session holds credit");
        assert!(credit.used > 20 * quota, "traffic drew many refills: {}", credit.used);
        assert!(!s.blocked, "a refill landed before the credit ran out");
        let reserved = orc8r.ocs.balance(s.imsi).expect("provisioned").reserved_bytes;
        assert!(reserved >= credit.granted, "every grant the gateway holds was reserved");
    }
}

/// The satellite prepaid site above, with a 6 MB balance per subscriber
/// and its backhaul down from 15 s for `partition_s`. Returns, at 60 s,
/// each session's credit as the gateway holds it and the bytes the OCS
/// holds reserved for its subscriber.
fn credit_after_partition(partition_s: u64) -> Vec<(SessionCredit, u64)> {
    let mut prepaid = PolicyRule::unrestricted("prepaid");
    prepaid.tracking = UsageTracking::Online;
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 3,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel {
            dl_bps: 2_000_000,
            ul_bps: 0,
        },
        ..SiteSpec::typical()
    };
    let mut agw = AgwSpec::bare_metal(site);
    agw.backhaul = LinkProfile::satellite();
    let mut cfg = ScenarioConfig::new(14)
        .with_agw(agw)
        .with_policies(vec![prepaid], vec!["prepaid".to_string()]);
    cfg.quota_bytes = 200_000;
    cfg.prepaid_balance = Some(6_000_000);
    let mut sc = magma::deploy(cfg);
    let (a, o) = (sc.agws[0].node, sc.orc8r_node);
    sc.world.run_until(SimTime::from_secs(15));
    sc.net.set_link_up(a, o, false);
    sc.world.run_until(SimTime::from_secs(15 + partition_s));
    sc.net.set_link_up(a, o, true);
    sc.world.run_until(SimTime::from_secs(60));

    let cp = sc.agws[0].handle.borrow().checkpoint.clone().expect("checkpoint taken");
    assert_eq!(cp.sessions.len(), 3);
    let orc8r = sc.orc8r.borrow();
    cp.sessions
        .iter()
        .map(|s| {
            let credit = s.credit.clone().expect("online session holds credit");
            let reserved = orc8r.ocs.balance(s.imsi).expect("provisioned").reserved_bytes;
            (credit, reserved)
        })
        .collect()
}

/// A 5 s partition while refills are in flight: the calls wait on the
/// stream and reach the OCS after the heal. Each must be answered once.
/// Once the balance has run out, every byte the OCS holds reserved for a
/// session is then a byte the gateway was granted.
#[test]
fn a_credit_call_held_up_by_a_partition_is_answered_once() {
    for (credit, reserved) in credit_after_partition(5) {
        assert!(credit.is_final, "the balance ran out: {credit:?}");
        assert_eq!(reserved, credit.granted, "reserved, granted: {credit:?}");
    }
}

/// A 12 s partition: the refill calls pass their deadline at the
/// gateway, and the stream still carries them to the OCS after the heal.
/// The gateway asks again under the same request number, so it takes up
/// what the OCS reserved for the call it gave up on.
#[test]
fn a_credit_call_past_its_deadline_is_taken_up_after_the_heal() {
    for (credit, reserved) in credit_after_partition(12) {
        assert_eq!(reserved, credit.granted, "reserved, granted: {credit:?}");
    }
}

/// A gateway restarted cold numbers its sessions from 1 again, so its one
/// UE re-attaches under the session id it had before the crash. The OCS
/// must still see a new session: it grants and reserves anew, and denies
/// nothing while the balance lasts.
#[test]
fn a_session_id_reused_after_a_cold_restart_is_granted_anew() {
    let mut prepaid = PolicyRule::unrestricted("prepaid");
    prepaid.tracking = UsageTracking::Online;
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 1,
        attach_rate_per_sec: 2.0,
        // 1 kB/s: one 200 kB grant lasts the whole run.
        traffic: TrafficModel {
            dl_bps: 8_000,
            ul_bps: 0,
        },
        reattach: true,
        ..SiteSpec::typical()
    };
    let mut cfg = ScenarioConfig::new(14)
        .with_agw(AgwSpec::bare_metal(site))
        .with_policies(vec![prepaid], vec!["prepaid".to_string()]);
    cfg.quota_bytes = 200_000;
    cfg.prepaid_balance = Some(1_000_000_000);
    let mut sc = magma::deploy(cfg);
    sc.world.run_until(SimTime::from_secs(20));
    let cp = sc.agws[0].handle.borrow().checkpoint.clone().expect("checkpoint taken");
    let s = cp.sessions.iter().next().expect("attached");
    let (imsi, id) = (s.imsi, s.id);
    let reserved = |sc: &magma::testbed::Scenario| {
        sc.orc8r.borrow().ocs.balance(imsi).expect("provisioned").reserved_bytes
    };
    let reserved_before = reserved(&sc);

    sc.crash_agw(0);
    sc.world.run_until(SimTime::from_secs(25));
    let mut fresh = sc.agws[0].fresh();
    fresh.preprovision(sc.orc8r.borrow().db.snapshot());
    sc.restart_agw(0, fresh);
    sc.world.run_until(SimTime::from_secs(120));

    let cp = sc.agws[0].handle.borrow().checkpoint.clone().expect("checkpoint taken");
    let s = cp.sessions.by_imsi(imsi).expect("re-attached");
    assert_eq!(s.id, id, "the same session id again");
    assert_eq!(sc.orc8r.borrow().ocs.denials, 0);
    let credit = s.credit.as_ref().expect("granted after the restart");
    assert_eq!(
        reserved(&sc) - reserved_before,
        credit.granted,
        "reserved since the crash, granted"
    );
}
