//! End-to-end policy enforcement: the paper's §2.2 example policy
//! ("rate limit to X until Y bytes in t₁, then Z for t₂") flows from the
//! orchestrator's northbound API through the AGW's sessiond into
//! data-plane meters, and its phase transitions show up in measured
//! throughput.

use magma::prelude::*;
use magma::testbed::{mean_over, throughput_mbps};

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
