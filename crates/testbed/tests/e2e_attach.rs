//! End-to-end integration: UEs attach through a real eNodeB → AGW → data
//! plane chain with the orchestrator attached, and traffic flows.

use magma_ran::{SectorModel, TrafficModel};
use magma_sim::{SimDuration, SimTime};
use magma_testbed::scenario::{build, AgwSpec, ScenarioConfig, SiteSpec};
use magma_testbed::{overall_csr, throughput_mbps};

fn small_site(ues: usize, rate: f64) -> SiteSpec {
    SiteSpec {
        enbs: 1,
        ues_per_enb: ues,
        attach_rate_per_sec: rate,
        traffic: TrafficModel::http_download(),
        sector: SectorModel::ideal_enb(),
        ue_attach_timeout: SimDuration::from_secs(10),
        reattach: false,
        session_lifetime_s: None,
    }
}

#[test]
fn five_ues_attach_and_push_traffic() {
    let cfg = ScenarioConfig::new(1).with_agw(AgwSpec::bare_metal(small_site(5, 1.0)));
    let mut sc = build(cfg);
    sc.world.run_until(SimTime::from_secs(60));

    let rec = sc.world.registry();
    // All five attach attempts succeed.
    let ok = rec
        .series("ran.attach_ok_at")
        .map(|s| s.len())
        .unwrap_or(0);
    assert_eq!(ok, 5, "all UEs attach; csr={}", overall_csr(rec, "ran"));
    assert_eq!(overall_csr(rec, "ran"), 1.0);

    // The AGW served the attaches.
    assert_eq!(rec.counter("agw0.mme.attach_accept"), 5.0);

    // Traffic flows: 5 UEs × 1.575 Mbit/s ≈ 7.9 Mbit/s steady state.
    let tp = throughput_mbps(rec, "agw0.dataplane.tp_bytes", SimDuration::from_secs(1));
    let late: Vec<f64> = tp
        .iter()
        .filter(|(t, _)| *t >= SimTime::from_secs(30) && *t < SimTime::from_secs(55))
        .map(|(_, v)| *v)
        .collect();
    let mean = late.iter().sum::<f64>() / late.len().max(1) as f64;
    assert!(
        (mean - 7.9).abs() < 1.0,
        "steady-state throughput ≈7.9 Mbit/s, got {mean:.2}"
    );

    // Orchestrator device management saw the gateway and its eNodeB.
    let (gws, enbs, sessions) = sc.orc8r.borrow().fleet_summary();
    assert_eq!(gws, 1);
    assert_eq!(enbs, 1);
    assert_eq!(sessions, 5);

    // Telemetry flowed northbound.
    assert!(sc.orc8r.borrow().gateway_metric("agw0", "attach.accept") >= 5.0);

    // Checkpoints are being taken.
    assert!(sc.agws[0].handle.borrow().checkpoint.is_some());
}

#[test]
fn unknown_subscriber_rejected() {
    // Build a scenario, then wipe the subscriber DB before attaching.
    let cfg = ScenarioConfig::new(2).with_agw(AgwSpec::bare_metal(small_site(3, 1.0)));
    let mut sc = build(cfg);
    let imsis = sc.imsis.clone();
    for imsi in imsis {
        sc.orc8r.borrow_mut().remove_subscriber(imsi);
    }
    // AGWs were preprovisioned; they learn the removal via config sync at
    // first check-in/push, which precedes the first attach at ~500ms only
    // if the push wins the race — run and verify rejects dominate.
    sc.world.run_until(SimTime::from_secs(40));
    let rec = sc.world.registry();
    let rejects = rec.counter("agw0.mme.attach_reject");
    assert!(rejects >= 2.0, "rejects={rejects}");
    // The shipped counter includes admission rejects: it equals the
    // rejects the UEs saw.
    assert_eq!(rejects, rec.counter("ran.attach_fail"));
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let cfg = ScenarioConfig::new(42).with_agw(AgwSpec::bare_metal(small_site(4, 2.0)));
        let mut sc = build(cfg);
        sc.world.run_until(SimTime::from_secs(30));
        (
            sc.world.events_processed(),
            sc.world.registry().counter("agw0.mme.attach_accept"),
        )
    };
    assert_eq!(run(), run());
}
