//! Resilience of the control plane: the orchestrator actor can crash and
//! restart without losing authoritative state (it is durably stored —
//! Postgres in the paper, the shared journaled store here), and gateways
//! reconnect and keep syncing.

use magma::prelude::*;
use magma::testbed::overall_csr;
use magma_orc8r::Orc8rActor;
use magma_net::{ports, NetStack};

#[test]
fn orc8r_crash_and_restart_preserves_state_and_resyncs() {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 40,
        attach_rate_per_sec: 1.0,
        traffic: TrafficModel::http_download(),
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(8).with_agw(AgwSpec::bare_metal(site));
    let mut sc = magma::deploy(cfg);

    sc.world.run_until(SimTime::from_secs(15));
    let version_before = sc.orc8r.borrow().db.version;
    let journal_before = sc.orc8r.borrow().journal.len();

    // Orchestrator process dies (its durable store survives: the handle).
    sc.world.crash(sc.orc8r_actor);
    // Its network stack also restarts (full VM replacement).
    sc.world.crash({
        // The stack is the first actor added in build(); recover it from
        // the topology binding instead of relying on construction order.
        sc.net
            .stack_of(sc.orc8r_node)
            .expect("orc8r stack bound")
    });
    sc.world.run_until(SimTime::from_secs(30));

    // Replacement instances attach to the same durable state.
    let stack_actor = sc.net.stack_of(sc.orc8r_node).unwrap();
    sc.world.restart(
        stack_actor,
        Box::new(NetStack::new(sc.orc8r_node, sc.net.handle())),
    );
    sc.world.restart(
        sc.orc8r_actor,
        Box::new(Orc8rActor::new(
            sc.orc8r.clone(),
            stack_actor,
            ports::ORC8R,
        )),
    );

    // Config change after restart must propagate to the AGW.
    sc.orc8r
        .borrow_mut()
        .upsert_policy(magma_policy::PolicyRule::rate_limited("post-restart", 1, 1));
    let new_version = sc.orc8r.borrow().db.version;
    sc.world.run_until(SimTime::from_secs(120));

    // State preserved across the crash.
    assert!(sc.orc8r.borrow().db.version > version_before);
    assert!(sc.orc8r.borrow().journal.len() > journal_before);

    // Attaches were never disturbed (they are AGW-local).
    assert_eq!(overall_csr(sc.world.registry(), "ran"), 1.0);

    // The AGW resynced to the post-restart config.
    assert!(
        sc.agws[0].handle.borrow().last_db_version >= new_version,
        "agw at v{}, want ≥ v{new_version}",
        sc.agws[0].handle.borrow().last_db_version
    );

    // And the gateway re-registered with the restarted orchestrator.
    let (gws, _, sessions) = sc.orc8r.borrow().fleet_summary();
    assert_eq!(gws, 1);
    assert_eq!(sessions, 40);
}

#[test]
fn metricsd_queues_pushes_across_orc8r_crash_window() {
    // Telemetry keeps flowing after an orchestrator outage: snapshots
    // taken while orc8r is down are queued on the gateway and delivered
    // in order (seq-contiguous) once the replacement comes up.
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 10,
        attach_rate_per_sec: 2.0,
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(11).with_agw(AgwSpec::bare_metal(site));
    let mut sc = magma::deploy(cfg);

    sc.world.run_until(SimTime::from_secs(20));
    let seq_before = sc
        .orc8r
        .borrow()
        .metrics_store
        .gateway("agw0")
        .map(|g| g.last_seq)
        .unwrap_or(0);
    assert!(seq_before > 0, "pushes landed before the crash");

    sc.world.crash(sc.orc8r_actor);
    sc.world.crash(sc.net.stack_of(sc.orc8r_node).unwrap());
    sc.world.run_until(SimTime::from_secs(50));

    // Nothing lands while the orchestrator is down…
    let seq_during = sc
        .orc8r
        .borrow()
        .metrics_store
        .gateway("agw0")
        .map(|g| g.last_seq)
        .unwrap_or(0);
    assert_eq!(seq_during, seq_before);

    let stack_actor = sc.net.stack_of(sc.orc8r_node).unwrap();
    sc.world.restart(
        stack_actor,
        Box::new(NetStack::new(sc.orc8r_node, sc.net.handle())),
    );
    sc.world.restart(
        sc.orc8r_actor,
        Box::new(Orc8rActor::new(
            sc.orc8r.clone(),
            stack_actor,
            ports::ORC8R,
        )),
    );
    sc.world.run_until(SimTime::from_secs(80));

    // …and after restart the queued outage snapshots drain in order:
    // no sequence gaps, and roughly one push per 5s sampling interval
    // over the whole run (16 intervals by t=80s; slack for startup and
    // reconnect backoff).
    let st = sc.orc8r.borrow();
    let gm = st
        .metrics_store
        .gateway("agw0")
        .expect("gateway telemetry present");
    assert!(
        gm.pushes >= 13,
        "queued snapshots delivered after restart: {} pushes",
        gm.pushes
    );
    assert_eq!(
        gm.last_seq, gm.pushes,
        "in-order, gap-free delivery across the outage"
    );
    assert!(gm.last_seq > seq_before);
}

#[test]
fn agw_restart_without_checkpoint_forces_reattach() {
    // Contrast with the failover ablation: restarting with a FRESH AGW
    // (no checkpoint) drops all sessions; well-behaved UEs re-attach.
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 10,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel::http_download(),
        reattach: true,
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(9).with_agw(AgwSpec::bare_metal(site));
    let mut sc = magma::deploy(cfg);
    sc.world.run_until(SimTime::from_secs(20));
    assert_eq!(sc.agws[0].handle.borrow().active_sessions, 10);

    let agw = &sc.agws[0];
    sc.world.crash(agw.actor);
    sc.world.crash(agw.stack);
    sc.world.run_until(SimTime::from_secs(25));
    let agw = &sc.agws[0];
    sc.world
        .restart(agw.stack, Box::new(NetStack::new(agw.node, sc.net.handle())));
    let mut fresh = magma_agw::AgwActor::new(agw.cfg.clone(), agw.handle.clone());
    fresh.preprovision(sc.orc8r.borrow().db.snapshot());
    fresh.set_up_cores(agw.up_cores);
    sc.world.restart(agw.actor, Box::new(fresh));

    // Sessions are gone immediately after the cold restart…
    sc.world.run_until(SimTime::from_secs(26));
    assert_eq!(sc.agws[0].handle.borrow().active_sessions, 0);

    // …but UEs re-attach once the eNodeB reconnects (crash-recovery via
    // reconnection, §3.4).
    sc.world.run_until(SimTime::from_secs(180));
    assert!(
        sc.agws[0].handle.borrow().active_sessions >= 9,
        "UEs re-attached: {}",
        sc.agws[0].handle.borrow().active_sessions
    );
}

/// Attaches advance the HSS SQN in the gateway's replica without moving
/// its config version (`SubscriberDb::generate_auth_vector`), so the
/// local checkpoint's copy of the replica must be taken from the replica
/// as it is, not reused while the version stands still: an instance
/// restored from a copy with stale SQNs fails AKA for every UE that
/// re-attaches. The SQNs the same checkpoint uploads are read from the
/// live replica, so the two must agree.
#[test]
fn local_checkpoint_carries_the_sqn_attaches_advanced() {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 10,
        attach_rate_per_sec: 2.0,
        reattach: true,
        session_lifetime_s: Some((3, 6)),
        ..SiteSpec::typical()
    };
    let mut sc = magma::deploy(ScenarioConfig::new(21).with_agw(AgwSpec::bare_metal(site)));
    let gw = sc.agws[0].id.clone();
    let mut taken = Vec::new();
    for at_ms in [8_500, 20_500] {
        sc.world.run_until(SimTime::from_millis(at_ms));
        let local = sc.agws[0].handle.borrow().checkpoint.clone().expect("checkpointed");
        let stored = sc.orc8r.borrow().checkpoints[&gw].clone();
        let (uploaded, live_sqn) = magma_agw::checkpoint::from_wire(stored).expect("wire form");
        assert_eq!(uploaded.taken_at_us, local.taken_at_us, "the same second's checkpoint");
        let mut replica = magma::subscriber::SubscriberDb::new();
        replica.apply_snapshot(local.db.clone());
        assert_eq!(replica.sqn_marks(), live_sqn, "replica rows carry the live SQN");
        taken.push((local.db.version, live_sqn));
    }
    let [(v1, sqn1), (v2, sqn2)] = &taken[..] else { unreachable!() };
    assert_eq!(v1, v2, "no configuration change in between");
    assert_eq!(sqn1.len(), 10, "every UE has attached");
    assert!(
        sqn2.iter().any(|(imsi, s)| sqn1.get(imsi).is_some_and(|s1| s > s1)),
        "re-attaches moved SQNs while the version stood still"
    );
}
