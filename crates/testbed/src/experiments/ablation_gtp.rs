//! **Ablation B** (§3.1): local GTP termination (Magma) vs GTP over the
//! backhaul (traditional EPC) as the backhaul degrades.
//!
//! In the traditional architecture, GTP-U runs from the eNodeB across
//! the backhaul to a centralized SGW; 3GPP path management (echo probes,
//! T3/N3) declares path failures under loss, releasing every session
//! behind the eNodeB — and low-end-baseband UEs never reconnect. Magma
//! terminates GTP at the co-located AGW, so "a UE never sees a dropped
//! GTP connection" regardless of backhaul quality; only orchestrator
//! sync (idempotent RPC) crosses the bad link.

use crate::scenario::SIM_SEED;
use magma_agw::{new_agw_handle, AgwActor, AgwConfig};
use magma_epc_baseline::EpcCoreActor;
use magma_net::{Endpoint, LinkProfile, NetFabric, ports};
use magma_ran::{ue_fleet_with_quirk, EnbConfig, EnodebActor, TrafficModel};
use magma_sim::{HostSpec, SimTime, World};
use magma_subscriber::{SubscriberDb, SubscriberProfile};
use magma_wire::Imsi;
use serde::Serialize;

/// Fraction of UEs with the low-end baseband quirk.
pub const LOW_END_FRAC: f64 = 0.3;
const N_UES: usize = 24;

#[derive(Debug, Clone, Copy, Serialize)]
pub struct GtpPoint {
    pub loss: f64,
    /// Sessions force-released by GTP path management (0 for Magma).
    pub sessions_released: f64,
    /// UEs wedged (low-end baseband, §3.1 quirk) at the end of the run.
    pub stuck_ues: f64,
    /// UEs attached at the end of the run.
    pub attached: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct GtpResult {
    pub magma: Vec<GtpPoint>,
    pub baseline: Vec<GtpPoint>,
}

fn provision_db() -> SubscriberDb {
    let mut db = SubscriberDb::new();
    for i in 1..=N_UES as u64 {
        db.upsert(SubscriberProfile::lte(Imsi::new(310, 26, i), SIM_SEED, i));
    }
    db
}

fn backhaul(loss: f64) -> LinkProfile {
    LinkProfile::microwave().with_loss(loss)
}

/// Run the Magma arm: AGW co-located with the eNB, orchestratorless
/// standalone mode, lossy backhaul carrying only Internet traffic.
pub fn run_magma(seed: u64, loss: f64, duration: SimTime) -> GtpPoint {
    let mut w = World::new(seed);
    let net = NetFabric::new();
    let site = net.add_node("site");
    let enb_node = net.add_node("enb");
    net.connect(enb_node, site, LinkProfile::lan());
    // The lossy backhaul exists (to the Internet) but carries no
    // radio-specific protocol in the Magma architecture.
    let inet = net.add_node("inet");
    net.connect(site, inet, backhaul(loss));
    let site_stack = net.add_stack(&mut w, site);
    let enb_stack = net.add_stack(&mut w, enb_node);
    let host = w.add_host(HostSpec::uniform("agw", 4, 1.0));
    let cfg = AgwConfig::new("agw0", host, site_stack);
    let mut agw = AgwActor::new(cfg, new_agw_handle());
    agw.preprovision(provision_db().snapshot());
    let agw = w.add_actor(Box::new(agw));

    let ues = ue_fleet_with_quirk(SIM_SEED, 1, N_UES, TrafficModel::http_download(), LOW_END_FRAC);
    let mut enb_cfg = EnbConfig::new(1, enb_stack, Endpoint::new(site, ports::S1AP), agw);
    enb_cfg.attach_rate_per_sec = 1.0;
    enb_cfg.reattach = true;
    w.add_actor(Box::new(EnodebActor::new(enb_cfg, ues)));

    w.run_until(duration);
    let rec = w.registry();
    GtpPoint {
        loss,
        sessions_released: rec.counter("ran.session_lost"),
        stuck_ues: rec.series("ran.stuck").map(|s| s.values().last().unwrap_or(0.0)).unwrap_or(0.0),
        attached: rec
            .series("ran.attached")
            .map(|s| s.values().last().unwrap_or(0.0))
            .unwrap_or(0.0),
    }
}

/// Run the baseline arm: centralized EPC across the lossy backhaul,
/// GTP-U path management active.
pub fn run_baseline(seed: u64, loss: f64, duration: SimTime) -> GtpPoint {
    let mut w = World::new(seed);
    let net = NetFabric::new();
    let core = net.add_node("core");
    let enb_node = net.add_node("enb");
    net.connect(enb_node, core, backhaul(loss));
    let core_stack = net.add_stack(&mut w, core);
    let enb_stack = net.add_stack(&mut w, enb_node);
    let epc = w.add_actor(Box::new(EpcCoreActor::new(core_stack, provision_db(), loss)));

    let ues = ue_fleet_with_quirk(SIM_SEED, 1, N_UES, TrafficModel::http_download(), LOW_END_FRAC);
    let mut enb_cfg = EnbConfig::new(1, enb_stack, Endpoint::new(core, ports::S1AP), epc);
    enb_cfg.attach_rate_per_sec = 1.0;
    enb_cfg.reattach = true;
    w.add_actor(Box::new(EnodebActor::new(enb_cfg, ues)));

    w.run_until(duration);
    let rec = w.registry();
    GtpPoint {
        loss,
        sessions_released: rec.counter("epc.sessions_released"),
        stuck_ues: rec
            .series("ran.stuck")
            .map(|s| s.values().last().unwrap_or(0.0))
            .unwrap_or(0.0),
        attached: rec
            .series("ran.attached")
            .map(|s| s.values().last().unwrap_or(0.0))
            .unwrap_or(0.0),
    }
}

/// Sweep both architectures over backhaul loss rates.
pub fn run(seed: u64, losses: &[f64], duration_s: u64) -> GtpResult {
    let d = SimTime::from_secs(duration_s);
    GtpResult {
        magma: losses.iter().map(|&l| run_magma(seed, l, d)).collect(),
        baseline: losses.iter().map(|&l| run_baseline(seed, l, d)).collect(),
    }
}

pub fn render(r: &GtpResult) -> String {
    let mut out = String::from(
        "Ablation B: local GTP termination vs GTP over backhaul (§3.1)\n\
         arch      loss  released  stuck  attached\n",
    );
    for (name, pts) in [("magma", &r.magma), ("baseline", &r.baseline)] {
        for p in pts {
            out.push_str(&format!(
                "{name:9} {:4.2} {:8.0} {:6.0} {:8.0}\n",
                p.loss, p.sessions_released, p.stuck_ues, p.attached
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magma_never_wedges_ues() {
        let p = run_magma(4, 0.25, SimTime::from_secs(300));
        assert_eq!(p.sessions_released, 0.0);
        assert_eq!(p.stuck_ues, 0.0);
        assert!(p.attached >= (N_UES - 1) as f64, "attached {}", p.attached);
    }

    #[test]
    fn baseline_wedges_ues_under_heavy_loss() {
        let p = run_baseline(4, 0.25, SimTime::from_secs(600));
        assert!(
            p.sessions_released > 0.0,
            "path management should have fired: {p:?}"
        );
        assert!(p.stuck_ues > 0.0, "some low-end UEs wedge: {p:?}");
    }

    #[test]
    fn baseline_fine_on_clean_backhaul() {
        let p = run_baseline(4, 0.0, SimTime::from_secs(120));
        assert_eq!(p.sessions_released, 0.0);
        assert_eq!(p.stuck_ues, 0.0);
        assert!(p.attached >= (N_UES - 1) as f64);
    }
}
