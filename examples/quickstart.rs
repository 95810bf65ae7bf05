//! Quickstart: deploy a one-site Magma network, attach a handful of UEs,
//! and inspect the network through the orchestrator's northbound API.
//!
//! Run with: `cargo run --release --example quickstart`

use magma::prelude::*;
use magma::testbed::{overall_csr, throughput_mbps};

fn main() {
    println!("{}", magma::render_table1());

    // A small rural site: one eNodeB, eight subscribers, HTTP traffic.
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 8,
        attach_rate_per_sec: 1.0,
        traffic: TrafficModel::http_download(),
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(42).with_agw(AgwSpec::bare_metal(site));
    let mut d = magma::deploy(cfg);

    println!("deploying: 1 orchestrator, 1 AGW, 1 eNodeB, 8 UEs…");
    d.world.run_until(SimTime::from_secs(60));

    let rec = d.world.registry();
    println!("\n== results after 60 simulated seconds ==");
    println!("connection success rate : {:.3}", overall_csr(rec, "ran"));
    println!(
        "attaches accepted       : {}",
        rec.counter("agw0.mme.attach_accept")
    );
    let tp = throughput_mbps(rec, "agw0.dataplane.tp_bytes", SimDuration::from_secs(1));
    let steady: f64 =
        tp.iter().rev().take(20).map(|(_, v)| *v).sum::<f64>() / 20.0;
    println!("steady throughput       : {steady:.1} Mbit/s");

    // Northbound view (what an operator's dashboard reads).
    let orc8r = d.orc8r.borrow();
    let (gws, enbs, sessions) = orc8r.fleet_summary();
    println!("\n== orchestrator fleet view ==");
    println!("gateways={gws} enodebs={enbs} active_sessions={sessions}");
    println!(
        "gateway-reported attach.accept = {}",
        orc8r.gateway_metric("agw0", "attach.accept")
    );
    println!(
        "config journal entries = {} (version {})",
        orc8r.journal.len(),
        orc8r.db.version
    );

    let util = d.world.utilization(d.agws[0].host, "all").unwrap();
    println!(
        "\nAGW CPU: mean {:.1}% peak {:.1}% over the run",
        util.mean() * 100.0,
        util.peak() * 100.0
    );
}
