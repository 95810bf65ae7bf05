//! The paper's motivating deployment (Figure 2): a small rural ISP's
//! first cellular site in Peru — one LTE eNodeB, a ruggedized embedded
//! PC as the AGW, and *satellite backhaul* to the world.
//!
//! The demo shows the two properties that make this viable with Magma:
//!
//! 1. The AGW keeps admitting subscribers while the orchestrator is
//!    reachable only over a 300 ms / 2%-loss satellite link — and even
//!    during a full multi-minute backhaul outage (headless operation).
//! 2. Policy still works at the edge: a tiered rate plan ("full speed
//!    until the cap, then throttled") is enforced in the AGW's data
//!    plane with no orchestrator involvement.
//!
//! Run with: `cargo run --release --example rural_isp`

use magma::prelude::*;
use magma::testbed::{overall_csr, throughput_mbps};
use magma_net::LinkProfile;

fn main() {
    // A tiered plan: 4 Mbit/s until 10 MB in any hour, then 512 kbit/s
    // for 10 minutes — the §2.2 example policy.
    let plan = PolicyRule::tiered(
        "village-basic",
        TieredPolicy {
            normal: RateLimit {
                dl_kbps: 4_000,
                ul_kbps: 1_000,
            },
            cap_bytes: 10_000_000,
            window: SimDuration::from_secs(3600),
            throttled: RateLimit {
                dl_kbps: 512,
                ul_kbps: 256,
            },
            penalty: SimDuration::from_secs(600),
        },
    );

    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 30,
        attach_rate_per_sec: 0.5,
        traffic: TrafficModel {
            dl_bps: 6_000_000, // subscribers try to pull more than the plan
            ul_bps: 200_000,
        },
        ..SiteSpec::typical()
    };
    let mut spec = AgwSpec::bare_metal(site);
    spec.backhaul = LinkProfile::satellite();
    let cfg = ScenarioConfig::new(7)
        .with_agw(spec)
        .with_policies(vec![plan], vec!["village-basic".to_string()]);
    let mut d = magma::deploy(cfg);

    println!("rural site: 1 eNodeB + AGW, satellite backhaul to orc8r");
    d.world.run_until(SimTime::from_secs(90));
    let csr_1 = overall_csr(d.world.registry(), "ran");
    println!("phase 1 (satellite backhaul): CSR = {csr_1:.3}");

    // Storm knocks the backhaul out entirely for three minutes.
    println!("\n-- backhaul outage (3 minutes, orchestrator unreachable) --");
    let agw_node = d.agws[0].node;
    let orc8r_node = d.orc8r_node;
    d.net.set_link_up(agw_node, orc8r_node, false);
    d.world.run_until(SimTime::from_secs(90 + 180));
    let csr_2 = overall_csr(d.world.registry(), "ran");
    println!("phase 2 (headless): CSR = {csr_2:.3} — attaches continued");

    d.net.set_link_up(agw_node, orc8r_node, true);
    d.world.run_until(SimTime::from_secs(90 + 180 + 60));

    let rec = d.world.registry();
    println!(
        "\nattaches accepted: {} / rejects: {}",
        rec.counter("agw0.mme.attach_accept"),
        rec.counter("agw0.mme.attach_reject")
    );
    let tp = throughput_mbps(rec, "agw0.dataplane.tp_bytes", SimDuration::from_secs(10));
    println!("\nsite throughput over time (tiered policy in action):");
    println!("t(s)  Mbit/s");
    for (t, v) in tp.iter().step_by(3) {
        println!("{:4} {:7.2}", t.as_micros() / 1_000_000, v);
    }
    println!(
        "\nThe early peak is the 4 Mbit/s phase; once subscribers hit the\n\
         10 MB cap the AGW reprograms its meters to 512 kbit/s — all local,\n\
         no orchestrator round-trip, exactly the §2.2 policy."
    );
}
