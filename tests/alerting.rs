//! The closed telemetry loop end to end: structured events and metric
//! snapshots ship in-band to the orchestrator, the windowed store feeds
//! the alert engine, and episodes fire/resolve with hysteresis — all
//! observable purely through northbound queries, byte-deterministically.

use magma::orc8r::{AlertRule, Orc8rState, OFFLINE_RULE};
use magma::prelude::*;
use magma::sim::RegistrySnapshot;
use magma::testbed::orc8r_telemetry_json;

/// Synthetic ingest: one CPU gauge sample at `at_s` seconds, evaluated
/// against the configured rules on the gateway's own clock.
fn push_cpu(st: &mut Orc8rState, gw: &str, seq: u64, at_s: u64, cpu: f64) {
    let mut snap = RegistrySnapshot::default();
    snap.gauges.insert("cpu.percent".to_string(), cpu);
    let at = SimTime::from_secs(at_s);
    assert!(st.metrics_store.ingest(gw, seq, at, snap, Vec::new()));
    st.evaluate_alert_rules_on_ingest(gw, at);
}

#[test]
fn short_spike_never_fires() {
    let mut st = Orc8rState::new(0);
    st.alert_rules = vec![AlertRule::cpu_sustained(85.0, SimDuration::from_secs(30))];
    // Two breaching samples spanning 5s — far short of the 30s sustain —
    // then recovery.
    let series = [(95.0), (95.0), (40.0), (40.0), (40.0)];
    for (i, cpu) in series.into_iter().enumerate() {
        push_cpu(&mut st, "agw0", i as u64 + 1, i as u64 * 5, cpu);
    }
    assert!(
        st.alerts_for_rule("cpu_high").is_empty(),
        "a short spike must not open an episode"
    );
}

#[test]
fn sustained_breach_fires_once_per_episode_and_resolves() {
    let mut st = Orc8rState::new(0);
    st.alert_rules = vec![AlertRule::cpu_sustained(85.0, SimDuration::from_secs(30))];

    // Episode 1: breach 0..=40s (sustain satisfied at 30s), recover at 45.
    // Episode 2: breach 60..=100s, recover at 105.
    let mut seq = 0;
    let mut push = |st: &mut Orc8rState, at_s: u64, cpu: f64| {
        seq += 1;
        push_cpu(st, "agw0", seq, at_s, cpu);
    };
    for t in (0..=40).step_by(5) {
        push(&mut st, t, 95.0);
    }
    push(&mut st, 45, 50.0);
    push(&mut st, 50, 50.0);
    for t in (60..=100).step_by(5) {
        push(&mut st, t, 95.0);
    }
    push(&mut st, 105, 50.0);

    let episodes = st.alerts_for_rule("cpu_high");
    assert_eq!(
        episodes.len(),
        2,
        "one alert per sustained episode, not per breaching sample"
    );
    assert_eq!(episodes[0].at, SimTime::from_secs(30), "fires at sustain");
    assert_eq!(episodes[0].resolved_at, Some(SimTime::from_secs(45)));
    assert_eq!(episodes[1].at, SimTime::from_secs(90));
    assert_eq!(episodes[1].resolved_at, Some(SimTime::from_secs(105)));
    assert!(st.firing_alerts().is_empty(), "all episodes closed");
}

#[test]
fn staleness_episode_rearms_after_recovery() {
    // Hysteresis must reset on resolve: a gateway that goes dark,
    // recovers, then goes dark again is two distinct pages, not a
    // suppressed continuation of the first.
    let mut st = Orc8rState::new(0);
    st.alert_rules = vec![AlertRule::push_staleness(3)];

    // Push at t=5, then silence: the 15 s staleness threshold is crossed
    // by the t=25 sweep — episode 1 opens.
    push_cpu(&mut st, "agw0", 1, 5, 40.0);
    st.evaluate_staleness_rules(SimTime::from_secs(10));
    assert!(st.alerts_for_rule("push_stale").is_empty(), "fresh gateway");
    st.evaluate_staleness_rules(SimTime::from_secs(25));
    assert!(st.has_open_alert("agw0", "push_stale"), "episode 1 open");
    // Staying stale is still one episode.
    st.evaluate_staleness_rules(SimTime::from_secs(30));
    assert_eq!(st.alerts_for_rule("push_stale").len(), 1);

    // Recovery: a fresh push resolves episode 1 on the next sweep.
    push_cpu(&mut st, "agw0", 2, 31, 40.0);
    st.evaluate_staleness_rules(SimTime::from_secs(35));
    assert!(!st.has_open_alert("agw0", "push_stale"), "episode 1 closed");

    // Degrade again: silence past the threshold opens a NEW episode —
    // the engine must have re-armed, not stayed latched on the old one.
    st.evaluate_staleness_rules(SimTime::from_secs(50));
    let episodes = st.alerts_for_rule("push_stale");
    assert_eq!(episodes.len(), 2, "recovered-then-degraded = new episode");
    assert_eq!(episodes[0].resolved_at, Some(SimTime::from_secs(35)));
    assert_eq!(episodes[1].at, SimTime::from_secs(50));
    assert_eq!(episodes[1].resolved_at, None, "episode 2 still firing");
    assert!(st.has_open_alert("agw0", "push_stale"));
}

/// The acceptance scenario: partition an AGW's backhaul, drive a
/// CPU-heavy attach storm through the partition, and observe everything
/// through the orchestrator's northbound queries alone.
fn storm_run(seed: u64) -> (String, Vec<(String, Option<u64>)>, usize, usize) {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 180,
        attach_rate_per_sec: 3.0,
        ..SiteSpec::typical()
    };
    // One shared core: the storm demands ~147% of clean attach capacity,
    // so the MME queue grows, attaches time out with cause=Congestion,
    // and CPU pins near 100% for well over the 30s sustain window.
    let mut spec = AgwSpec::bare_metal(site);
    spec.layout = CoreLayout::Shared { cores: 1 };
    let cfg = ScenarioConfig::new(seed).with_agw(spec).with_alert_rules(vec![
        AlertRule::cpu_sustained(85.0, SimDuration::from_secs(30)),
        AlertRule::push_staleness(3),
    ]);
    let mut d = magma::deploy(cfg);

    // Partition the backhaul 20s..70s; the storm runs right through it.
    d.world.run_until(SimTime::from_secs(20));
    let agw0_node = d.agws[0].node;
    d.net.set_link_up(agw0_node, d.orc8r_node, false);
    d.world.run_until(SimTime::from_secs(70));
    d.net.set_link_up(agw0_node, d.orc8r_node, true);
    d.world.run_until(SimTime::from_secs(120));

    let st = d.orc8r.borrow();
    let export = serde_json::to_string(&orc8r_telemetry_json(&st)).unwrap();
    let alerts: Vec<(String, Option<u64>)> = st
        .alerts
        .iter()
        .map(|a| (a.rule.clone(), a.resolved_at.map(|t| t.0)))
        .collect();
    let failures = st.metrics_store.events_of_kind("agw0", "attach_failure");
    let congestion = failures
        .iter()
        .filter(|e| e.fields.get("emm_cause").map(String::as_str) == Some("22"))
        .count();
    (export, alerts, failures.len(), congestion)
}

#[test]
fn partition_storm_is_observable_northbound_and_deterministic() {
    let (export, alerts, failures, congestion) = storm_run(11);

    // The staleness rule fired during the partition and resolved after
    // the queued pushes drained.
    let stale: Vec<_> = alerts.iter().filter(|(r, _)| r == "push_stale").collect();
    assert!(!stale.is_empty(), "staleness alert never fired");
    assert!(
        stale.iter().all(|(_, resolved)| resolved.is_some()),
        "staleness episodes must resolve after the heal"
    );

    // The device-management offline alert (missed check-ins) fired too,
    // independently of the metric rules.
    assert!(
        alerts.iter().any(|(r, _)| r == OFFLINE_RULE),
        "offline alert missing"
    );

    // The CPU storm is one episode: the alert fires exactly once even
    // though dozens of breaching samples arrive (many in a post-heal
    // backlog burst), and resolves once the attach queue drains.
    let cpu: Vec<_> = alerts.iter().filter(|(r, _)| r == "cpu_high").collect();
    assert_eq!(cpu.len(), 1, "cpu episodes: {alerts:?}");
    assert!(cpu[0].1.is_some(), "cpu alert must resolve after the storm");

    // Attach failures surfaced as structured events with NAS cause codes
    // — cause 22 (Congestion) marks the gateway-side timeouts.
    assert!(failures > 20, "only {failures} attach_failure events");
    assert!(congestion > 20, "only {congestion} congestion-cause events");

    // Byte-determinism of the full northbound export.
    let (export2, ..) = storm_run(11);
    assert_eq!(export, export2, "same seed, same exported bytes");
}
