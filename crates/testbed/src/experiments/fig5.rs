//! **Figure 5**: AGW CPU utilization and achieved throughput under the
//! maximum "typical" cell-site workload.
//!
//! Workload (§4.1): 288 UEs (3 eNodeBs × 96) attach at an aggregate
//! 3 UE/s, then each runs a 1.5 Mbit/s HTTP download, for 432 Mbit/s
//! aggregate offered load. Expected shape: a control-plane-dominated
//! phase while UEs attach (~1.5 minutes), then a steady state where
//! throughput sits at the offered load — the RAN, not the AGW, is the
//! bottleneck.

use crate::measure::{cpu_percent, mean_over, overall_csr, throughput_mbps};
use crate::scenario::{build, AgwSpec, ScenarioConfig, SiteSpec};
use magma_ran::TrafficModel;
use magma_sim::{SimDuration, SimTime};
use serde::Serialize;

/// Result of the Figure 5 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Result {
    /// `(t_us, cpu_percent)` for the AGW host.
    pub cpu: Vec<(u64, f64)>,
    /// `(t_us, mbps)` achieved at the AGW.
    pub throughput: Vec<(u64, f64)>,
    /// Seconds until the last UE attached.
    pub attach_window_s: f64,
    pub attached: usize,
    pub csr: f64,
    /// Steady-state throughput (after the attach window), Mbit/s.
    pub steady_mbps: f64,
    /// Peak CPU utilization during the attach phase, percent.
    pub peak_cpu_percent: f64,
    /// Mean CPU utilization in steady state, percent.
    pub steady_cpu_percent: f64,
}

pub const OFFERED_MBPS: f64 = 432.0;

/// Run the Figure 5 scenario.
pub fn run(seed: u64, duration: SimDuration) -> Fig5Result {
    let site = SiteSpec {
        traffic: TrafficModel {
            dl_bps: 1_500_000,
            ul_bps: 0,
        },
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(seed).with_agw(AgwSpec::bare_metal(site));
    let mut sc = build(cfg);
    let end = SimTime::ZERO + duration;
    sc.world.run_until(end);

    let host = sc.agws[0].host;
    let cpu = cpu_percent(&sc.world, host, "all");
    let rec = sc.world.registry();
    let tp = throughput_mbps(rec, "agw0.dataplane.tp_bytes", SimDuration::from_secs(1));

    // Attach window: last successful attach completion.
    let attach_window_s = rec
        .series("ran.attach_ok_at")
        .map(|s| {
            s.points
                .iter()
                .map(|(t, lat)| *t as f64 / 1e6 + lat)
                .fold(0.0, f64::max)
        })
        .unwrap_or(0.0);
    let attached = rec
        .series("ran.attach_ok_at")
        .map(|s| s.len())
        .unwrap_or(0);

    let steady_from = SimTime::from_secs(attach_window_s.ceil() as u64 + 5);
    let steady_mbps = mean_over(&tp_as_simtime(&tp), steady_from, end);
    let steady_cpu = mean_over(&cpu, steady_from, end);
    let peak_cpu = cpu
        .iter()
        .filter(|(t, _)| *t < steady_from)
        .map(|(_, v)| *v)
        .fold(0.0, f64::max);

    Fig5Result {
        cpu: cpu.iter().map(|(t, v)| (t.as_micros(), *v)).collect(),
        throughput: tp.iter().map(|(t, v)| (t.as_micros(), *v)).collect(),
        attach_window_s,
        attached,
        csr: overall_csr(rec, "ran"),
        steady_mbps,
        peak_cpu_percent: peak_cpu,
        steady_cpu_percent: steady_cpu,
    }
}

fn tp_as_simtime(tp: &[(SimTime, f64)]) -> Vec<(SimTime, f64)> {
    tp.to_vec()
}

/// Render the figure as text rows (time, cpu%, Mbit/s), one per 5 s.
pub fn render(r: &Fig5Result) -> String {
    let mut out = String::new();
    out.push_str("Figure 5: AGW CPU% and throughput under typical site load\n");
    out.push_str(&format!(
        "attached={}/{} csr={:.3} attach_window={:.0}s steady={:.0}Mbps (offered {OFFERED_MBPS:.0})\n",
        r.attached, 288, r.csr, r.attach_window_s, r.steady_mbps
    ));
    out.push_str("t_s  cpu%  mbps\n");
    for (t_us, cpu) in r.cpu.iter().step_by(5) {
        let t_s = t_us / 1_000_000;
        let mbps = r
            .throughput
            .iter()
            .find(|(tt, _)| tt / 1_000_000 == t_s)
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        out.push_str(&format!("{t_s:4} {cpu:5.1} {:7.1}\n", mbps.max(0.0)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scaled-down smoke run (full run lives in the bench harness).
    #[test]
    fn shape_holds_small() {
        // One eNB, 30 UEs at 1 UE/s: attach window ~30s, then steady
        // ~45 Mbit/s, all attached, RAN-limited not AGW-limited.
        let site = SiteSpec {
            enbs: 1,
            ues_per_enb: 30,
            attach_rate_per_sec: 1.0,
            traffic: TrafficModel {
                dl_bps: 1_500_000,
                ul_bps: 0,
            },
            ..SiteSpec::typical()
        };
        let cfg = ScenarioConfig::new(5).with_agw(AgwSpec::bare_metal(site));
        let mut sc = build(cfg);
        sc.world.run_until(SimTime::from_secs(90));
        let rec = sc.world.registry();
        assert_eq!(rec.counter("agw0.mme.attach_accept"), 30.0);
        let tp = throughput_mbps(rec, "agw0.dataplane.tp_bytes", SimDuration::from_secs(1));
        let steady = mean_over(&tp, SimTime::from_secs(50), SimTime::from_secs(85));
        assert!((steady - 45.0).abs() < 5.0, "steady={steady}");
    }
}
