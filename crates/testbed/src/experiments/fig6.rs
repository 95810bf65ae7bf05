//! **Figure 6**: maximum supported attach rate on the bare-metal AGW.
//!
//! The paper's "worst case" control-plane workload: a surge of new UEs
//! attaching and then saturating the data plane. Connection success rate
//! stays ≈1.0 up to ~2 UE/s and falls roughly linearly beyond — the MME
//! component of the AGW is the limit.

use crate::measure::overall_csr;
use crate::scenario::{build, AgwSpec, ScenarioConfig, SiteSpec};
use magma_ran::{SectorModel, TrafficModel};
use magma_sim::{SimDuration, SimTime};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct Fig6Point {
    pub attach_rate: f64,
    pub csr: f64,
    pub mean_latency_s: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct Fig6Result {
    pub points: Vec<Fig6Point>,
    /// Largest rate with CSR ≥ 0.95 (the knee).
    pub knee_rate: f64,
}

/// One sweep point: `n_ues` UEs surging at `rate`, each then saturating
/// its share of the radio.
pub fn run_point(seed: u64, rate: f64) -> Fig6Point {
    // Enough UEs for ~60s of surge at the configured rate.
    let n_ues = ((rate * 60.0) as usize).clamp(30, 240);
    let site = SiteSpec {
        enbs: 2,
        ues_per_enb: n_ues / 2,
        attach_rate_per_sec: rate,
        // Each UE saturates the data plane once attached: a few dozen
        // active UEs exceed the AGW's ~1.3 Gbit/s forwarding capacity, so
        // the control plane contends with a saturated user plane for the
        // same four cores — the paper's "worst case" workload.
        traffic: TrafficModel {
            dl_bps: 30_000_000,
            ul_bps: 2_000_000,
        },
        sector: SectorModel {
            capacity_bps: 2_000_000_000,
            max_active_ues: 200,
        },
        ue_attach_timeout: SimDuration::from_secs(10),
        reattach: false,
        session_lifetime_s: None,
    };
    let cfg = ScenarioConfig::new(seed).with_agw(AgwSpec::bare_metal(site));
    let mut sc = build(cfg);
    let duration = 60.0 + 30.0;
    sc.world
        .run_until(SimTime::from_secs(duration as u64));
    let rec = sc.world.registry();
    Fig6Point {
        attach_rate: rate,
        csr: overall_csr(rec, "ran"),
        mean_latency_s: crate::measure::mean_attach_latency(rec, "ran"),
    }
}

/// Full sweep.
pub fn run(seed: u64, rates: &[f64]) -> Fig6Result {
    let points: Vec<Fig6Point> = rates
        .iter()
        .map(|&r| run_point(seed.wrapping_add((r * 10.0) as u64), r))
        .collect();
    let knee_rate = points
        .iter()
        .filter(|p| p.csr >= 0.95)
        .map(|p| p.attach_rate)
        .fold(0.0, f64::max);
    Fig6Result { points, knee_rate }
}

/// Default sweep matching the paper's x-axis.
pub fn default_rates() -> Vec<f64> {
    vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0]
}

pub fn render(r: &Fig6Result) -> String {
    let mut out = String::new();
    out.push_str("Figure 6: CSR vs attach rate (bare-metal AGW)\n");
    out.push_str("rate(UE/s)  CSR   mean_latency_s\n");
    for p in &r.points {
        out.push_str(&format!(
            "{:9.1} {:6.3} {:8.2}\n",
            p.attach_rate, p.csr, p.mean_latency_s
        ));
    }
    out.push_str(&format!("knee at ≈{:.1} UE/s\n", r.knee_rate));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_rate_succeeds_high_rate_degrades() {
        let low = run_point(3, 1.0);
        let high = run_point(3, 5.0);
        assert!(low.csr > 0.95, "low-rate CSR {:.3}", low.csr);
        assert!(
            high.csr < low.csr - 0.2,
            "high-rate CSR should degrade: {:.3} vs {:.3}",
            high.csr,
            low.csr
        );
    }
}
