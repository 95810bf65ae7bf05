//! Observability end to end: two gateways run a typical site while each
//! one's `metricsd` samples its registry (CPU gauges, service counters,
//! attach stage histograms) and pushes snapshots — now with structured
//! events riding along — to the orchestrator over the simulated
//! backhaul. We partition one gateway's backhaul mid-run and answer the
//! operator questions the paper's deployments rely on purely from the
//! orchestrator's store: CPU% and attach quantiles, windowed rate/avg
//! queries over the rolling history, the gateway event log, and the
//! alert firing history (staleness fires during the partition and
//! resolves after it heals). A same-seed rerun exports byte-identical
//! JSON.
//!
//! Run with: `cargo run --release --example observability`
//!
//! Set `OBS_EXPORT_PATH=/path/out.json` to also write the telemetry
//! export to disk (used by `scripts/check.sh` for golden-file diffing).

use magma::orc8r::AlertRule;
use magma::prelude::*;
use magma::testbed::{
    orc8r_telemetry_json, render_orc8r_alerts, render_orc8r_events, render_orc8r_metrics,
};

fn run(seed: u64) -> (String, String) {
    let site = SiteSpec {
        enbs: 2,
        ues_per_enb: 24,
        attach_rate_per_sec: 4.0,
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(seed)
        .with_agw(AgwSpec::bare_metal(site.clone()))
        .with_agw(AgwSpec::vm(site, CoreLayout::Pinned { cp: 2, up: 2 }))
        .with_alert_rules(vec![
            AlertRule::cpu_sustained(85.0, SimDuration::from_secs(30)),
            AlertRule::push_staleness(3),
        ]);
    let mut d = magma::deploy(cfg);

    // Partition agw0's backhaul from t=30s to t=60s: its metricsd queues
    // snapshots, the orchestrator's staleness rule fires, and the queue
    // drains in order after the heal (seq-dedupe keeps it exactly-once).
    d.world.run_until(SimTime::from_secs(30));
    let agw0_node = d.agws[0].node;
    d.net.set_link_up(agw0_node, d.orc8r_node, false);
    d.world.run_until(SimTime::from_secs(60));
    d.net.set_link_up(agw0_node, d.orc8r_node, true);
    d.world.run_until(SimTime::from_secs(90));

    let st = d.orc8r.borrow();
    let mut table = render_orc8r_metrics(&st);
    table.push('\n');
    table.push_str(&render_orc8r_events(&st));
    table.push('\n');
    table.push_str(&render_orc8r_alerts(&st));
    let js = serde_json::to_string_pretty(&orc8r_telemetry_json(&st)).unwrap();
    (table, js)
}

fn main() {
    let (table, js) = run(42);
    println!("{table}");

    let (_, js2) = run(42);
    assert_eq!(js, js2, "same seed must export identical telemetry");
    println!("same-seed rerun exported identical JSON: OK\n");

    if let Ok(path) = std::env::var("OBS_EXPORT_PATH") {
        std::fs::write(&path, &js).expect("write telemetry export");
        println!("telemetry export written to {path}");
    } else {
        println!("JSON export:\n{js}");
    }
}
