//! **Ablation D** (§3.3): AGW failover via checkpoint/restore.
//!
//! The AGW checkpoints its runtime state every second and uploads it to
//! the orchestrator; on failure, a backup instance is brought up from the
//! copy the orchestrator holds. Sessions, IP leases and SQN marks
//! survive; mid-procedure (volatile) UE contexts are lost, and the
//! configuration replica is not in the copy — the backup's first check-in
//! pulls it. The experiment crashes the AGW (and its host network stack),
//! restores from the orchestrator's copy after an outage window, and
//! measures how many sessions survived and how quickly traffic recovers.

use crate::scenario::{build, AgwSpec, ScenarioConfig, SiteSpec};
use magma_agw::AgwActor;
use magma_net::NetStack;
use magma_ran::TrafficModel;
use magma_sim::{SimDuration, SimTime};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct FailoverResult {
    pub sessions_before_crash: usize,
    pub sessions_restored: usize,
    /// Mean throughput (Mbit/s) in the 10 s before the crash.
    pub tp_before_mbps: f64,
    /// Seconds after restore until throughput recovered to 80% of the
    /// pre-crash level.
    pub recovery_s: f64,
}

pub const CRASH_AT_S: u64 = 60;
pub const OUTAGE_S: u64 = 5;

pub fn run(seed: u64) -> FailoverResult {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 40,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel::http_download(),
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(seed).with_agw(AgwSpec::bare_metal(site));
    let mut sc = build(cfg);

    sc.world.run_until(SimTime::from_secs(CRASH_AT_S));
    let sessions_before = sc.agws[0].handle.borrow().active_sessions;
    let rec = sc.world.registry();
    let tp_before: f64 = rec
        .series("agw0.dataplane.tp_bytes")
        .map(|s| {
            s.points
                .iter()
                .filter(|(t, _)| *t >= (CRASH_AT_S - 10) * 1_000_000)
                .map(|(_, v)| *v)
                .sum::<f64>()
                / 10.0
                * 8.0
                / 1e6
        })
        .unwrap_or(0.0);

    // Crash the AGW and its node's network stack (the machine died): the
    // local checkpoint dies with it, the orchestrator's copy does not.
    let agw = &sc.agws[0];
    let stored = sc
        .orc8r
        .borrow()
        .checkpoints
        .get(&agw.id)
        .cloned()
        .expect("checkpoints are uploaded every second");
    sc.world.crash(agw.actor);
    sc.world.crash(agw.stack);

    // Outage window.
    sc.world
        .run_until(SimTime::from_secs(CRASH_AT_S + OUTAGE_S));

    // Bring up the backup instance from the orchestrator's copy.
    let agw = &sc.agws[0];
    sc.world.restart(
        agw.stack,
        // The node address is stable; the stack rebinds on Start.
        Box::new(NetStack::new(agw.node, sc.net.handle())),
    );
    let mut restored = AgwActor::restore_from_wire(agw.cfg.clone(), agw.handle.clone(), stored)
        .expect("the orchestrator stores what the gateway uploaded");
    restored.set_up_cores(agw.up_cores);
    sc.world.restart(agw.actor, Box::new(restored));

    // Measure recovery.
    let restore_at = sc.world.now();
    let mut recovery_s = f64::NAN;
    for _ in 0..240 {
        sc.world.run_for(SimDuration::from_millis(500));
        let now = sc.world.now();
        let tp_now: f64 = sc
            .world
            .registry()
            .series("agw0.dataplane.tp_bytes")
            .map(|s| {
                s.points
                    .iter()
                    .filter(|(t, _)| {
                        *t >= now.as_micros().saturating_sub(2_000_000)
                    })
                    .map(|(_, v)| *v)
                    .sum::<f64>()
                    / 2.0
                    * 8.0
                    / 1e6
            })
            .unwrap_or(0.0);
        if tp_now >= tp_before * 0.8 && recovery_s.is_nan() {
            recovery_s = now.since(restore_at).as_secs_f64();
            break;
        }
    }
    let sessions_restored = sc.agws[0].handle.borrow().active_sessions;

    FailoverResult {
        sessions_before_crash: sessions_before,
        sessions_restored,
        tp_before_mbps: tp_before,
        recovery_s,
    }
}

pub fn render(r: &FailoverResult) -> String {
    format!(
        "Ablation D: AGW failover via checkpoint/restore from the orchestrator's copy (§3.3)\n\
         sessions: {} before crash, {} restored\n\
         throughput: {:.1} Mbit/s before; recovered to 80% in {:.1}s after restore\n",
        r.sessions_before_crash, r.sessions_restored, r.tp_before_mbps, r.recovery_s
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_preserves_sessions_and_traffic_recovers() {
        let r = run(31);
        assert!(r.sessions_before_crash >= 39, "{r:?}");
        assert_eq!(
            r.sessions_restored, r.sessions_before_crash,
            "the orchestrator's copy carries the whole session table"
        );
        assert!(r.tp_before_mbps > 40.0, "{r:?}");
        assert!(
            r.recovery_s < 20.0,
            "traffic should recover quickly, took {:.1}s",
            r.recovery_s
        );
    }
}
