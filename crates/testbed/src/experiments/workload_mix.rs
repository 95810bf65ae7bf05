//! **Ablation G** (§4.2 motivation): different usage patterns stress
//! different planes. A human-broadband workload (few UEs, heavy
//! downloads) is user-plane-bound; an IoT workload (many churning
//! devices, tiny messages) is control-plane-bound. This is the
//! dimensioning asymmetry that motivates control/user plane separation.

use crate::measure::throughput_mbps;
use crate::scenario::{build, AgwSpec, ScenarioConfig, SiteSpec};
use magma_ran::{SectorModel, TrafficModel};
use magma_sim::{SimDuration, SimTime};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct WorkloadPoint {
    pub name: String,
    pub attaches: f64,
    pub mean_mbps: f64,
    /// Fraction of consumed CPU time spent on the control plane.
    pub cp_cpu_share: f64,
    pub total_cpu_busy_s: f64,
}

fn run_site(seed: u64, name: &str, site: SiteSpec, duration_s: u64) -> WorkloadPoint {
    let cfg = ScenarioConfig::new(seed).with_agw(AgwSpec::bare_metal(site));
    let mut sc = build(cfg);
    sc.world.run_until(SimTime::from_secs(duration_s));
    let rec = sc.world.registry();
    let attaches = rec.counter("agw0.mme.attach_accept");
    let tp = throughput_mbps(rec, "agw0.dataplane.tp_bytes", SimDuration::from_secs(1));
    let mean_mbps = if tp.is_empty() {
        0.0
    } else {
        tp.iter().map(|(_, v)| *v).sum::<f64>() / tp.len() as f64
    };
    // CP time ≈ attaches × pipeline cost (plus detaches' NAS handling);
    // total busy from the host report; UP share is the remainder.
    let util = sc.world.utilization(sc.agws[0].host, "all").unwrap();
    let busy_s = util.total_busy.as_secs_f64();
    let profile = magma_agw::CpuProfile::bare_metal();
    let cp_s = attaches * (profile.attach_auth + profile.attach_session).as_secs_f64();
    WorkloadPoint {
        name: name.to_string(),
        attaches,
        mean_mbps,
        cp_cpu_share: (cp_s / busy_s).min(1.0),
        total_cpu_busy_s: busy_s,
    }
}

/// Run both workloads on identical hardware.
pub fn run(seed: u64, duration_s: u64) -> Vec<WorkloadPoint> {
    let broadband = SiteSpec {
        enbs: 1,
        ues_per_enb: 24,
        attach_rate_per_sec: 1.0,
        traffic: TrafficModel::http_download(),
        sector: SectorModel::ideal_enb(),
        reattach: false,
        session_lifetime_s: None,
    };
    let iot = SiteSpec {
        enbs: 1,
        ues_per_enb: 96,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel::iot(),
        sector: SectorModel::ideal_enb(),
        reattach: true,
        // Devices wake, exchange a few messages, detach — and repeat.
        session_lifetime_s: Some((20, 60)),
    };
    vec![
        run_site(seed, "broadband", broadband, duration_s),
        run_site(seed, "iot-churn", iot, duration_s),
    ]
}

pub fn render(points: &[WorkloadPoint]) -> String {
    let mut out = String::from(
        "Ablation G: workload mix — who stresses which plane (§4.2)\n\
         workload   attaches  mean_mbps  cp_cpu_share  busy_core_s\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:10} {:8.0} {:10.1} {:13.2} {:12.1}\n",
            p.name, p.attaches, p.mean_mbps, p.cp_cpu_share, p.total_cpu_busy_s
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iot_is_control_plane_bound_broadband_is_not() {
        let pts = run(14, 240);
        let bb = &pts[0];
        let iot = &pts[1];
        assert!(
            iot.attaches > bb.attaches * 2.0,
            "churn multiplies attaches: {} vs {}",
            iot.attaches,
            bb.attaches
        );
        assert!(
            iot.cp_cpu_share > 0.8,
            "IoT is CP-dominated: {:.2}",
            iot.cp_cpu_share
        );
        assert!(
            bb.cp_cpu_share < 0.5,
            "broadband is UP-dominated: {:.2}",
            bb.cp_cpu_share
        );
        assert!(bb.mean_mbps > 10.0 * iot.mean_mbps.max(0.1));
    }
}
