//! The franchised neutral-host deployment (§4.3.2): micro-operators run
//! AGWs + radios; subscribers belong to an incumbent MNO. The AGW has no
//! local record of the roamer, so authentication is proxied through the
//! Federation Gateway (S6a/Diameter) to the MNO's HSS; the user plane
//! breaks out locally.
//!
//! Also demonstrates the GTP Aggregator scaling analysis: home-routed
//! traffic funnels through one GTP-A and saturates, while local breakout
//! scales linearly with AGWs.
//!
//! Run with: `cargo run --release --example neutral_host`

use magma::feg::scaling_comparison;
use magma::prelude::*;
use magma::subscriber::SubscriberDb;

fn main() {
    // The micro-operator's AGW and eNodeB, the FeG, and the incumbent
    // MNO's core. Ten incumbent-MNO subscribers, known only to the MNO's
    // HSS: the gateway's site, whose UEs they are, is added after the
    // orchestrator was provisioned, so its replica holds none of them.
    let mut d = magma::deploy(ScenarioConfig::new(33));
    let mut mno_db = SubscriberDb::new();
    for i in 1..=10u64 {
        mno_db.upsert(SubscriberProfile::lte(Imsi::new(310, 26, i), 7, i));
    }
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 10,
        attach_rate_per_sec: 1.0,
        traffic: TrafficModel::http_download(),
        ..SiteSpec::typical()
    };
    let mut agw = AgwSpec::bare_metal(site);
    agw.feg = Some(d.add_feg(mno_db));
    d.add_agw(&agw);

    println!("neutral host: micro-operator AGW ↔ FeG ↔ incumbent MNO HSS\n");
    d.world.run_until(SimTime::from_secs(45));
    let rec = d.world.registry();
    let accepted = rec.counter("agw0.mme.attach_accept");
    println!("roaming attaches accepted (auth proxied over S6a): {accepted}");
    let proxied: u64 = d
        .world
        .shard_snapshot()
        .edges
        .iter()
        .filter(|e| e.kind == "feg.AuthInfo")
        .map(|e| e.messages)
        .sum();
    println!("S6a authentication requests through the FeG: {proxied}");
    let mb: f64 = rec
        .series("agw0.dataplane.tp_bytes")
        .map(|s| s.values().sum::<f64>() / 1e6)
        .unwrap_or(0.0);
    println!("user traffic broken out locally at the AGW: {mb:.1} MB\n");
    assert_eq!(accepted, 10.0, "every roamer attaches");
    assert!(proxied >= 10, "every roamer's authentication crossed the FeG");
    assert!(mb > 50.0, "the roamers' traffic broke out at the AGW");

    println!("== GTP-A scaling (home routing vs local breakout) ==");
    println!("agws  home-routed(Gbps)  local-breakout(Gbps)");
    for (n, home, local) in scaling_comparison(100_000_000, &[50, 100, 200, 400, 800, 1600]) {
        println!("{n:4} {home:17.1} {local:20.1}");
    }
    println!(
        "\nHome routing saturates at the GTP-A's 20 Gbit/s — the single\n\
         point of interconnection traditional MNOs require — while local\n\
         breakout scales linearly with the AGW fleet."
    );
}
