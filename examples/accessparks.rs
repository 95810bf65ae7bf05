//! The AccessParks deployment (§4.3.1, Figures 9 & 10): LTE/CBRS as
//! *backhaul* for WiFi hotspots. End users associate to ordinary WiFi
//! APs; each AP authenticates to the Magma AGW over RADIUS (carrier
//! WiFi) and its aggregate hotspot traffic rides the cellular link with
//! an unrestricted policy — per-user control stays in the operator's
//! existing captive portal.
//!
//! Run with: `cargo run --release --example accessparks`

use magma::prelude::*;
use magma::ran::{WifiApActor, WifiApConfig};
use magma::testbed::trace::{accessparks_trace, summarize, TraceParams};
use magma_net::{ports, Endpoint};

fn main() {
    // Provision the APs as WiFi subscribers (union schema: no SIM, just
    // RADIUS credentials; unrestricted policy).
    let mut d = magma::deploy(ScenarioConfig::new(2022));
    {
        let mut orc8r = d.orc8r.borrow_mut();
        orc8r.upsert_policy(PolicyRule::unrestricted("unrestricted"));
        for i in 0..4u64 {
            orc8r.upsert_subscriber(SubscriberProfile::wifi(
                Imsi::new(310, 26, 9000 + i),
                &format!("ap-{i}@accessparks"),
                "cbrs-modem-psk",
            ));
        }
    }

    // One site AGW; four WiFi APs (CBRS fixed-wireless modems) behind it.
    d.add_agw(&AgwSpec::bare_metal(SiteSpec { enbs: 0, ..SiteSpec::typical() }));
    let (agw_node, agw) = (d.agws[0].node, d.agws[0].actor);
    for i in 0..4u64 {
        d.add_behind(0, &format!("ap{i}"), |stack| {
            WifiApActor::new(WifiApConfig {
                name: format!("ap-{i}"),
                stack,
                agw_aaa: Endpoint::new(agw_node, ports::RADIUS_AUTH),
                agw_actor: agw,
                username: format!("ap-{i}@accessparks"),
                password: "cbrs-modem-psk".to_string(),
                dl_bps: 25_000_000, // a busy hotspot behind each AP
                ul_bps: 5_000_000,
                auth_at: SimDuration::from_millis(200 + 300 * i),
            })
        });
    }

    println!("AccessParks-style site: 4 WiFi APs backhauled by one AGW\n");
    d.world.run_until(SimTime::from_secs(60));

    let rec = d.world.registry();
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
    let mbps = total_bytes * 8.0 / 60.0 / 1e6;
    println!(
        "backhauled in 60s            : {:.1} MB ({mbps:.0} Mbit/s avg)",
        total_bytes / 1e6
    );
    assert_eq!(authed, 4, "every AP authenticates");
    assert!(mbps > 100.0, "the hotspots' traffic flows through the AGW");

    // The two-month synthetic usage trace (Figure 9's series).
    println!("\n== Figure 9 (synthetic production trace) ==");
    let trace = accessparks_trace(TraceParams::default());
    let s = summarize(&trace);
    println!(
        "{} hours: peak {} active subs, mean {:.0}; peak {:.1} GB/h; total {:.1} TB; {:.1}x diurnal swing",
        s.hours, s.peak_active, s.mean_active, s.peak_gb_per_hour, s.total_tb, s.diurnal_swing
    );
}
