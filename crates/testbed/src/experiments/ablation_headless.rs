//! **Ablation C** (§3.2): headless operation.
//!
//! Partition the AGW from the orchestrator mid-run. Attaches must keep
//! succeeding from the cached subscriber replica; configuration changes
//! made during the partition take effect only after it heals — the
//! availability-over-consistency trade the CAP discussion describes.

use crate::measure::overall_csr;
use crate::scenario::{build, AgwSpec, Scenario, ScenarioConfig, SiteSpec};
use magma_ran::TrafficModel;
use magma_sim::{SimDuration, SimTime};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct HeadlessResult {
    /// CSR over the whole run (attaches continue through the partition).
    pub csr: f64,
    /// Attaches completed while partitioned.
    pub attaches_during_partition: usize,
    /// Orchestrator config version when the change was made.
    pub version_at_change: u64,
    /// AGW replica version at partition end (still stale).
    pub agw_version_before_heal: u64,
    /// Seconds after heal until the replica caught up.
    pub sync_delay_after_heal_s: f64,
}

/// Partition window in seconds.
pub const PARTITION: (u64, u64) = (20, 80);

pub fn run(seed: u64) -> HeadlessResult {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 90,
        attach_rate_per_sec: 1.0,
        traffic: TrafficModel::http_download(),
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(seed).with_agw(AgwSpec::bare_metal(site));
    let mut sc: Scenario = build(cfg);

    // Warm up; some UEs attach with the orchestrator reachable.
    sc.world.run_until(SimTime::from_secs(PARTITION.0));
    let attached_before = sc
        .world
        .registry()
        .series("ran.attach_ok_at")
        .map(|s| s.len())
        .unwrap_or(0);

    // Partition.
    let agw_node = sc.agws[0].node;
    let orc8r_node = sc.orc8r_node;
    sc.net.set_link_up(agw_node, orc8r_node, false);

    // Make a configuration change while partitioned.
    sc.world.run_until(SimTime::from_secs(PARTITION.0 + 5));
    sc.orc8r
        .borrow_mut()
        .upsert_policy(magma_policy::PolicyRule::rate_limited(
            "partition-era-rule",
            1_000,
            1_000,
        ));
    let version_at_change = sc.orc8r.borrow().db.version;

    // Run through the partition.
    sc.world.run_until(SimTime::from_secs(PARTITION.1));
    let attached_during = sc
        .world
        .registry()
        .series("ran.attach_ok_at")
        .map(|s| s.len())
        .unwrap_or(0)
        - attached_before;
    let agw_version_before_heal = sc.agws[0].handle.borrow().last_db_version;

    // Heal and measure time to config convergence.
    sc.net.set_link_up(agw_node, orc8r_node, true);
    let heal_at = sc.world.now();
    let mut sync_delay = f64::NAN;
    for _ in 0..600 {
        sc.world.run_for(SimDuration::from_millis(500));
        if sc.agws[0].handle.borrow().last_db_version >= version_at_change {
            sync_delay = sc.world.now().since(heal_at).as_secs_f64();
            break;
        }
    }

    HeadlessResult {
        csr: overall_csr(sc.world.registry(), "ran"),
        attaches_during_partition: attached_during,
        version_at_change,
        agw_version_before_heal,
        sync_delay_after_heal_s: sync_delay,
    }
}

pub fn render(r: &HeadlessResult) -> String {
    format!(
        "Ablation C: headless operation (§3.2)\n\
         csr={:.3} attaches_during_partition={} \n\
         config v{} made during partition; AGW still at v{} before heal;\n\
         replica converged {:.1}s after heal\n",
        r.csr,
        r.attaches_during_partition,
        r.version_at_change,
        r.agw_version_before_heal,
        r.sync_delay_after_heal_s
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attaches_survive_partition_and_config_waits() {
        let r = run(21);
        assert!(r.csr > 0.99, "headless attaches succeed: {:.3}", r.csr);
        assert!(
            r.attaches_during_partition > 30,
            "most of the fleet attached while partitioned: {}",
            r.attaches_during_partition
        );
        assert!(
            r.agw_version_before_heal < r.version_at_change,
            "config change must NOT reach the AGW during the partition"
        );
        assert!(
            r.sync_delay_after_heal_s < 30.0,
            "replica converges shortly after heal, took {:.1}s",
            r.sync_delay_after_heal_s
        );
    }
}
