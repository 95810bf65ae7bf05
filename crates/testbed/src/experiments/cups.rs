//! **Figures 7 & 8**: control/user plane separation on the VM AGW.
//!
//! The paper statically pins N of 8 vCPUs to the user plane and measures
//! (a) steady-state throughput — rises with user-plane cores until the
//! 2.5 Gbit/s traffic-generator cap (Figure 7) — and (b) median
//! connection success rate under a concurrent attach load — falls as the
//! control plane is starved (Figure 8). Letting the kernel scheduler
//! flex all 8 cores ("flexible") achieves both high throughput and high
//! CSR.

use crate::measure::{mean_over, median_csr, throughput_mbps};
use crate::scenario::{build, AgwSpec, CoreLayout, ScenarioConfig, SiteSpec};
use magma_ran::{SectorModel, TrafficModel};
use magma_sim::{SimDuration, SimTime};
use serde::Serialize;

/// The commercial traffic generator's limit (§4.2).
pub const TRAFFIC_GEN_CAP_MBPS: f64 = 2_500.0;

#[derive(Debug, Clone, Serialize)]
pub struct CupsPoint {
    /// User-plane cores (0 = flexible scheduling across all 8).
    pub up_cores: u32,
    pub flexible: bool,
    pub steady_mbps: f64,
    pub median_csr: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct CupsResult {
    pub points: Vec<CupsPoint>,
}

/// Run one configuration: `layout` on an 8-vCPU VM AGW with offered load
/// at the traffic-generator cap plus a continuous attach workload.
pub fn run_point(seed: u64, layout: CoreLayout) -> CupsPoint {
    let n_ues = 240;
    // Offered: 2.5 Gbit/s spread over the attached UEs.
    let per_ue_dl = (TRAFFIC_GEN_CAP_MBPS * 1e6 / n_ues as f64) as u64;
    let site = SiteSpec {
        enbs: 4,
        ues_per_enb: n_ues / 4,
        attach_rate_per_sec: 5.0,
        traffic: TrafficModel {
            dl_bps: per_ue_dl,
            ul_bps: 0,
        },
        // vRAN-style setup: the radio is not the limit here.
        sector: SectorModel {
            capacity_bps: 10_000_000_000,
            max_active_ues: 1000,
        },
        reattach: true,
        session_lifetime_s: None,
    };
    let cfg = ScenarioConfig::new(seed).with_agw(AgwSpec::vm(site, layout));
    let mut sc = build(cfg);
    sc.world.run_until(SimTime::from_secs(120));

    let rec = sc.world.registry();
    let tp = throughput_mbps(rec, "agw0.dataplane.tp_bytes", SimDuration::from_secs(1));
    let steady = mean_over(&tp, SimTime::from_secs(60), SimTime::from_secs(115));
    let (up_cores, flexible) = match layout {
        CoreLayout::Shared { .. } => (0, true),
        CoreLayout::Pinned { up, .. } => (up, false),
    };
    CupsPoint {
        up_cores,
        flexible,
        steady_mbps: steady,
        median_csr: median_csr(rec, "ran"),
    }
}

/// Full sweep: pinned 1..=7 user-plane cores (of 8) plus flexible.
pub fn run(seed: u64) -> CupsResult {
    let mut points = Vec::new();
    for up in 1..=7u32 {
        points.push(run_point(
            seed.wrapping_add(up as u64),
            CoreLayout::Pinned { cp: 8 - up, up },
        ));
    }
    points.push(run_point(seed, CoreLayout::Shared { cores: 8 }));
    CupsResult { points }
}

pub fn render_fig7(r: &CupsResult) -> String {
    let mut out = String::new();
    out.push_str("Figure 7: steady-state throughput vs user-plane CPUs (VM AGW)\n");
    out.push_str("up_cores  mbps   (traffic-gen cap 2500)\n");
    for p in &r.points {
        let label = if p.flexible {
            "flex(8)".to_string()
        } else {
            format!("{:7}", p.up_cores)
        };
        out.push_str(&format!("{label} {:8.0}\n", p.steady_mbps));
    }
    out
}

pub fn render_fig8(r: &CupsResult) -> String {
    let mut out = String::new();
    out.push_str("Figure 8: median CSR vs user-plane CPUs (VM AGW)\n");
    out.push_str("up_cores  median_csr\n");
    for p in &r.points {
        let label = if p.flexible {
            "flex(8)".to_string()
        } else {
            format!("{:7}", p.up_cores)
        };
        out.push_str(&format!("{label} {:8.3}\n", p.median_csr));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_up_cores_more_throughput() {
        let two = run_point(9, CoreLayout::Pinned { cp: 6, up: 2 });
        let five = run_point(9, CoreLayout::Pinned { cp: 3, up: 5 });
        assert!(
            five.steady_mbps > two.steady_mbps * 1.5,
            "5 cores {:.0} vs 2 cores {:.0}",
            five.steady_mbps,
            two.steady_mbps
        );
    }

    #[test]
    fn flexible_gets_both() {
        let flex = run_point(9, CoreLayout::Shared { cores: 8 });
        assert!(flex.steady_mbps > 1_500.0, "flex tp {:.0}", flex.steady_mbps);
        assert!(flex.median_csr > 0.9, "flex csr {:.3}", flex.median_csr);
    }
}
