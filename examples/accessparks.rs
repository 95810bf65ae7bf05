//! The AccessParks deployment (§4.3.1, Figures 9 & 10): LTE/CBRS as
//! *backhaul* for WiFi hotspots. End users associate to ordinary WiFi
//! APs; each AP authenticates to the Magma AGW over RADIUS (carrier
//! WiFi) and its aggregate hotspot traffic rides the cellular link with
//! an unrestricted policy — per-user control stays in the operator's
//! existing captive portal.
//!
//! Run with: `cargo run --release --example accessparks`

use magma::ran::{WifiApActor, WifiApConfig};
use magma::sim::{HostSpec, SimDuration, SimTime, World};
use magma::testbed::trace::{accessparks_trace, summarize, TraceParams};
use magma_agw::{new_agw_handle, AgwActor, AgwConfig};
use magma_net::{Endpoint, LinkProfile, NetFabric, ports};
use magma_subscriber::{SubscriberDb, SubscriberProfile};
use magma_wire::Imsi;

fn main() {
    let mut w = World::new(2022);
    let net = NetFabric::new();

    // One site AGW; four WiFi APs (CBRS fixed-wireless modems) behind it.
    let agw_node = net.add_node("agw");
    let ap_nodes: Vec<_> = (0..4)
        .map(|i| {
            let n = net.add_node(&format!("ap{i}"));
            net.connect(n, agw_node, LinkProfile::lan());
            n
        })
        .collect();
    let agw_stack = net.add_stack(&mut w, agw_node);
    let host = w.add_host(HostSpec::uniform("agw", 4, 1.0));

    // Provision the APs as WiFi subscribers (union schema: no SIM, just
    // RADIUS credentials; unrestricted policy).
    let mut db = SubscriberDb::new();
    db.upsert_rule(magma::policy::PolicyRule::unrestricted("unrestricted"));
    for i in 0..4u64 {
        db.upsert(SubscriberProfile::wifi(
            Imsi::new(310, 26, 9000 + i),
            &format!("ap-{i}@accessparks"),
            "cbrs-modem-psk",
        ));
    }
    let cfg = AgwConfig::new("agw0", host, agw_stack);
    let mut agw = AgwActor::new(cfg, new_agw_handle());
    agw.preprovision(db.snapshot());
    agw.set_up_cores(4);
    let agw = w.add_actor(Box::new(agw));

    for (i, node) in ap_nodes.iter().enumerate() {
        let stack = net.add_stack(&mut w, *node);
        w.add_actor(Box::new(WifiApActor::new(WifiApConfig {
            name: format!("ap-{i}"),
            stack,
            agw_aaa: Endpoint::new(agw_node, ports::RADIUS_AUTH),
            agw_actor: agw,
            username: format!("ap-{i}@accessparks"),
            password: "cbrs-modem-psk".to_string(),
            dl_bps: 25_000_000, // a busy hotspot behind each AP
            ul_bps: 5_000_000,
            auth_at: SimDuration::from_millis(200 + 300 * i as u64),
        })));
    }

    println!("AccessParks-style site: 4 WiFi APs backhauled by one AGW\n");
    w.run_until(SimTime::from_secs(60));

    let rec = w.registry();
    let authed = rec
        .series("ran.wifi.ap_authed")
        .map(|s| s.len())
        .unwrap_or(0);
    println!("APs authenticated via RADIUS : {authed}/4");
    println!(
        "AGW wifi.accept count        : {}",
        rec.series("agw0.wifi.accept").map(|s| s.len()).unwrap_or(0)
    );
    let total_bytes: f64 = rec
        .series("agw0.dataplane.tp_bytes")
        .map(|s| s.values().sum())
        .unwrap_or(0.0);
    println!(
        "backhauled in 60s            : {:.1} MB ({:.0} Mbit/s avg)",
        total_bytes / 1e6,
        total_bytes * 8.0 / 60.0 / 1e6
    );

    // The two-month synthetic usage trace (Figure 9's series).
    println!("\n== Figure 9 (synthetic production trace) ==");
    let trace = accessparks_trace(TraceParams::default());
    let s = summarize(&trace);
    println!(
        "{} hours: peak {} active subs, mean {:.0}; peak {:.1} GB/h; total {:.1} TB; {:.1}x diurnal swing",
        s.hours, s.peak_active, s.mean_active, s.peak_gb_per_hour, s.total_tb, s.diurnal_swing
    );
}
