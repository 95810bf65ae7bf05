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

use magma::feg::{scaling_comparison, FegActor, MnoCoreActor};
use magma::sim::{HostSpec, SimTime, World};
use magma_agw::{new_agw_handle, AgwActor, AgwConfig};
use magma_net::{Endpoint, LinkProfile, NetFabric, ports};
use magma_ran::{ue_fleet, EnbConfig, EnodebActor, TrafficModel};
use magma_subscriber::{SubscriberDb, SubscriberProfile};
use magma_wire::Imsi;

fn main() {
    let mut w = World::new(33);
    // The micro-operator site, the FeG, and the incumbent MNO core.
    let net = NetFabric::new();
    let agw_node = net.add_node("micro-operator-agw");
    let feg_node = net.add_node("feg");
    let mno_node = net.add_node("incumbent-mno");
    let enb_node = net.add_node("enb");
    net.connect(agw_node, feg_node, LinkProfile::fiber());
    net.connect(feg_node, mno_node, LinkProfile::fiber());
    net.connect(enb_node, agw_node, LinkProfile::lan());
    let agw_stack = net.add_stack(&mut w, agw_node);
    let feg_stack = net.add_stack(&mut w, feg_node);
    let mno_stack = net.add_stack(&mut w, mno_node);
    let enb_stack = net.add_stack(&mut w, enb_node);

    // Ten incumbent-MNO subscribers, known only to the MNO's HSS.
    let mut mno_db = SubscriberDb::new();
    for i in 1..=10u64 {
        mno_db.upsert(SubscriberProfile::lte(Imsi::new(310, 26, i), 7, i));
    }
    w.add_actor(Box::new(MnoCoreActor::new(mno_stack, mno_db)));
    w.add_actor(Box::new(FegActor::new(
        feg_stack,
        Endpoint::new(mno_node, ports::DIAMETER),
    )));

    let host = w.add_host(HostSpec::uniform("agw", 4, 1.0));
    let cfg = AgwConfig::new("agw0", host, agw_stack)
        .with_feg(Endpoint::new(feg_node, ports::FEG));
    let agw = w.add_actor(Box::new(AgwActor::new(cfg, new_agw_handle())));

    let ues = ue_fleet(7, 1, 10, TrafficModel::http_download());
    let mut enb_cfg = EnbConfig::new(1, enb_stack, Endpoint::new(agw_node, ports::S1AP), agw);
    enb_cfg.attach_rate_per_sec = 1.0;
    w.add_actor(Box::new(EnodebActor::new(enb_cfg, ues)));

    println!("neutral host: micro-operator AGW ↔ FeG ↔ incumbent MNO HSS\n");
    w.run_until(SimTime::from_secs(45));
    let rec = w.registry();
    println!(
        "roaming attaches accepted (auth proxied over S6a): {}",
        rec.counter("agw0.mme.attach_accept")
    );
    let mb: f64 = rec
        .series("agw0.dataplane.tp_bytes")
        .map(|s| s.values().sum::<f64>() / 1e6)
        .unwrap_or(0.0);
    println!("user traffic broken out locally at the AGW: {mb:.1} MB\n");

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
