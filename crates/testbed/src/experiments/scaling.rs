//! **Ablation F** (§4.2): "the *network* capacity of a Magma network
//! scales linearly with AGWs."
//!
//! N identical sites (one AGW + one eNodeB each) under a fixed per-site
//! workload; aggregate achieved throughput must grow ~linearly in N,
//! while the shared orchestrator stays out of the data path.

use crate::measure::{mean_over, throughput_mbps};
use crate::scenario::{build, AgwSpec, ScenarioConfig, SiteSpec};
use magma_ran::TrafficModel;
use magma_sim::{SimDuration, SimTime};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct ScalingPoint {
    pub agws: usize,
    pub aggregate_mbps: f64,
    pub per_agw_mbps: f64,
    pub orc8r_checkins: f64,
}

pub fn run_point(seed: u64, n_agws: usize) -> ScalingPoint {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 20,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel::http_download(),
        ..SiteSpec::typical()
    };
    let mut cfg = ScenarioConfig::new(seed);
    for _ in 0..n_agws {
        cfg = cfg.with_agw(AgwSpec::bare_metal(site.clone()));
    }
    let mut sc = build(cfg);
    sc.world.run_until(SimTime::from_secs(60));
    let rec = sc.world.registry();
    let mut aggregate = 0.0;
    for a in 0..n_agws {
        let tp = throughput_mbps(
            rec,
            &format!("agw{a}.dataplane.tp_bytes"),
            SimDuration::from_secs(1),
        );
        aggregate += mean_over(&tp, SimTime::from_secs(30), SimTime::from_secs(55));
    }
    ScalingPoint {
        agws: n_agws,
        aggregate_mbps: aggregate,
        per_agw_mbps: aggregate / n_agws as f64,
        orc8r_checkins: rec.counter("orc8r.checkins"),
    }
}

pub fn run(seed: u64, fleet: &[usize]) -> Vec<ScalingPoint> {
    fleet.iter().map(|&n| run_point(seed, n)).collect()
}

pub fn render(points: &[ScalingPoint]) -> String {
    let mut out = String::from(
        "Ablation F: network capacity vs number of AGWs (§4.2)\n\
         agws  aggregate_mbps  per_agw  checkins\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:4} {:14.0} {:8.1} {:9.0}\n",
            p.agws, p.aggregate_mbps, p.per_agw_mbps, p.orc8r_checkins
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_scales_linearly() {
        let one = run_point(6, 1);
        let four = run_point(6, 4);
        assert!(one.per_agw_mbps > 25.0, "{one:?}");
        let ratio = four.aggregate_mbps / one.aggregate_mbps;
        assert!(
            (ratio - 4.0).abs() < 0.4,
            "4 AGWs ≈ 4x capacity, got {ratio:.2}x"
        );
        // Per-AGW throughput is flat: no shared bottleneck.
        assert!((four.per_agw_mbps - one.per_agw_mbps).abs() < 3.0);
    }
}
