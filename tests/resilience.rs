//! Resilience of the control plane: the orchestrator actor can crash and
//! restart without losing authoritative state (it is durably stored —
//! Postgres in the paper, the shared journaled store here), and gateways
//! reconnect and keep syncing.

use magma::prelude::*;
use magma::ran::{EnbConfig, EnodebActor};
use magma::sim::{downcast, Actor, Ctx, Event, World};
use magma::testbed::{overall_csr, Scenario};
use magma_agw::AgwActor;
use magma_orc8r::Orc8rActor;
use magma_net::{
    flows, lp_encode, ports, Acceptor, Edge, Endpoint, LinkProfile, NetFabric, NetStack,
    SockEvent, MAX_LP_LEN,
};
use magma_wire::s1ap::S1apMessage;

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
        Box::new(NetStack::new(sc.orc8r_node, sc.net.clone())),
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
        Box::new(NetStack::new(sc.orc8r_node, sc.net.clone())),
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
        .restart(agw.stack, Box::new(NetStack::new(agw.node, sc.net.clone())));
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

/// Headless restart from the checkpoint the gateway published locally
/// (§3.2, §3.3): with the backhaul down, re-attaches move SQNs while the
/// configuration version stands still; then the gateway dies and a backup
/// comes up from its local checkpoint, replica and all, still headless.
/// The backup keeps the sessions, and every UE that re-attaches to it
/// passes AKA. A replica copy reused because the version had not moved
/// would hand the backup stale SQNs, and those UEs would refuse its
/// challenges.
#[test]
fn headless_restart_from_the_local_checkpoint_keeps_sessions_and_sqns() {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 10,
        attach_rate_per_sec: 2.0,
        reattach: true,
        session_lifetime_s: Some((3, 6)),
        ..SiteSpec::typical()
    };
    let mut sc = magma::deploy(ScenarioConfig::new(21).with_agw(AgwSpec::bare_metal(site)));
    let accepted =
        |sc: &magma::testbed::Scenario| sc.world.registry().counter("agw0.mme.attach_accept");
    sc.world.run_until(SimTime::from_secs(8));
    let version = sc.agws[0].handle.borrow().last_db_version;
    assert_eq!(version, sc.orc8r.borrow().db.version, "the replica holds the configuration");
    sc.net.set_link_up(sc.agws[0].node, sc.orc8r_node, false);
    let accepted_connected = accepted(&sc);

    sc.world.run_until(SimTime::from_secs(20));
    // Crash within a millisecond of a checkpoint: a UE challenged between
    // the copy and the crash holds an SQN no checkpoint saw, and would
    // refuse the backup's first challenge whatever the copy.
    let last = sc.agws[0].handle.borrow().checkpoint.as_ref().map(|cp| cp.taken_at_us);
    let local = loop {
        sc.world.run_for(SimDuration::from_millis(1));
        let cp = sc.agws[0].handle.borrow().checkpoint.clone().expect("checkpointed");
        if Some(cp.taken_at_us) != last {
            break cp;
        }
    };
    assert_eq!(local.db.version, version, "no configuration arrives headless");
    assert!(
        accepted(&sc) > accepted_connected + 5.0,
        "headless re-attaches moved SQNs while the version stood still"
    );
    assert!(!local.sessions.is_empty());

    // The machine dies; 2 s later the backup comes up from the local
    // checkpoint, with the backhaul still down.
    let agw = &sc.agws[0];
    sc.world.crash(agw.actor);
    sc.world.crash(agw.stack);
    sc.world.run_for(SimDuration::from_secs(2));
    let agw = &sc.agws[0];
    sc.world
        .restart(agw.stack, Box::new(NetStack::new(agw.node, sc.net.clone())));
    let sessions = local.sessions.len();
    let mut backup = AgwActor::restore(agw.cfg.clone(), agw.handle.clone(), local);
    backup.set_up_cores(agw.up_cores);
    sc.world.restart(agw.actor, Box::new(backup));
    let restored_at = sc.world.now();
    sc.world.run_for(SimDuration::from_millis(100));
    assert_eq!(
        sc.agws[0].handle.borrow().active_sessions,
        sessions,
        "the backup holds the checkpoint's sessions"
    );

    // The eNodeB finds the dead association and reconnects; its UEs then
    // re-attach to the backup, every one of them passing AKA.
    let accepted_restored = accepted(&sc);
    sc.world.run_until(SimTime::from_secs(120));
    assert!(
        accepted(&sc) > accepted_restored + 10.0,
        "UEs re-attached headless to the backup"
    );
    let auth_failures = sc
        .world
        .events()
        .iter()
        .filter(|e| e.at >= restored_at)
        .filter(|e| e.fields.get("cause").is_some_and(|c| c == "AuthFailure"))
        .count();
    assert_eq!(auth_failures, 0, "no re-attach was refused for its SQN");
}

/// A backhaul partition short enough that the gateway's stream survives
/// it queues checkpoint uploads behind one another; the heal drains
/// them. Whatever order the copies arrive in, the checkpoint the
/// orchestrator stores must never go back in time: it is what a standby
/// restores from.
#[test]
fn a_drain_after_a_partition_never_stores_an_older_checkpoint() {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 10,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel::http_download(),
        ..SiteSpec::typical()
    };
    let mut agw = AgwSpec::bare_metal(site);
    agw.backhaul = LinkProfile::satellite();
    let mut sc = magma::deploy(ScenarioConfig::new(42).with_agw(agw));
    let stored_at = |sc: &Scenario| {
        sc.orc8r.borrow().checkpoints.get("agw0").map(|cp| {
            cp.get("taken_at_us")
                .and_then(serde_json::Value::as_u64)
                .expect("a stored checkpoint carries taken_at_us")
        })
    };

    let (a, o) = (sc.agws[0].node, sc.orc8r_node);
    let mut last = 0;
    let mut regressions = Vec::new();
    let mut step = |sc: &mut Scenario, until: u64| {
        while sc.world.now() < SimTime::from_secs(until) {
            sc.world.run_for(SimDuration::from_millis(50));
            if let Some(at) = stored_at(sc) {
                if at < last {
                    regressions.push((sc.world.now(), last, at));
                }
                last = at;
            }
        }
    };
    step(&mut sc, 20);
    sc.net.set_link_up(a, o, false);
    step(&mut sc, 40);
    sc.net.set_link_up(a, o, true);
    step(&mut sc, 80);

    assert!(last >= 70_000_000, "uploads resumed after the heal: {last}");
    assert!(
        regressions.is_empty(),
        "stored checkpoint went back in time (at, held, stored): {regressions:?}"
    );
}

/// With no per-call re-sends, the stream's own retransmissions are what
/// find a healed backhaul, and its backoff ceiling keeps that prompt. A
/// 30 s partition outlasts the stream's retry budget, so the gateway's
/// orchestrator stream closes and reopens inside it; the gateway still
/// checks in within 2 s of the heal.
#[test]
fn a_gateway_checks_in_within_two_seconds_of_a_heal() {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 4,
        attach_rate_per_sec: 1.0,
        ..SiteSpec::typical()
    };
    let mut agw = AgwSpec::bare_metal(site);
    agw.backhaul = LinkProfile::satellite();
    let mut sc = magma::deploy(ScenarioConfig::new(42).with_agw(agw));
    let (a, o) = (sc.agws[0].node, sc.orc8r_node);
    sc.world.run_until(SimTime::from_secs(30));
    sc.net.set_link_up(a, o, false);
    sc.world.run_until(SimTime::from_secs(60));
    sc.net.set_link_up(a, o, true);
    let heal = sc.world.now();
    let checked_in = |sc: &Scenario| {
        let last = sc.orc8r.borrow().devices["agw0"].last_checkin;
        last.is_some_and(|t| t > heal)
    };
    while !checked_in(&sc) && sc.world.now() < SimTime::from_secs(70) {
        sc.world.run_for(SimDuration::from_millis(50));
    }
    let back = sc.world.now().since(heal);
    assert!(
        checked_in(&sc) && back <= SimDuration::from_secs(2),
        "first check-in {back:?} after the heal"
    );
}

/// `orc8r_connected` means the orchestrator answered, not that the
/// local stack opened a stream. Inside a partition the gateway's stream
/// closes and reopens, but nothing reaches the orchestrator, so no
/// connected event may fall inside it; the first one after the heal
/// marks the first answer.
#[test]
fn a_partitioned_gateway_records_no_orc8r_connected_inside_the_partition() {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 4,
        attach_rate_per_sec: 1.0,
        ..SiteSpec::typical()
    };
    let mut agw = AgwSpec::bare_metal(site);
    agw.backhaul = LinkProfile::satellite();
    let mut sc = magma::deploy(ScenarioConfig::new(42).with_agw(agw));
    let (a, o) = (sc.agws[0].node, sc.orc8r_node);
    sc.world.run_until(SimTime::from_secs(30));
    sc.net.set_link_up(a, o, false);
    sc.world.run_until(SimTime::from_secs(60));
    sc.net.set_link_up(a, o, true);
    sc.world.run_until(SimTime::from_secs(70));
    let at = |kind: &str| -> Vec<SimTime> {
        sc.world
            .events()
            .iter()
            .filter(|e| e.gateway == "agw0" && e.kind == kind)
            .map(|e| e.at)
            .collect()
    };
    let (start, heal) = (SimTime::from_secs(30), SimTime::from_secs(60));
    let inside = |t: &SimTime| *t > start && *t <= heal;
    let connected = at("orc8r_connected");
    // Non-vacuity: the partition outlasts the stream, which closes inside it.
    assert!(at("orc8r_disconnected").iter().any(inside), "no close inside the partition");
    assert!(
        !connected.iter().any(inside),
        "orc8r_connected inside the 30-60 s partition: {connected:?}"
    );
    assert!(
        connected.iter().any(|t| *t > heal),
        "no orc8r_connected after the heal: {connected:?}"
    );
}

/// An MME that refuses every S1 Setup, and counts the S1 streams it
/// accepts and sees closed.
struct RefusingMme {
    conns: Acceptor<MAX_LP_LEN, ()>,
}

impl Actor for RefusingMme {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => self.conns.listen(ctx, ports::S1AP),
            Event::Msg { payload, .. } => {
                let ev = downcast::<SockEvent>(payload, "refusing-mme");
                let mut setups = 0;
                let edge = self.conns.on_event(ctx, ev, |_, _| Some(()), |_, m| {
                    if let Ok(S1apMessage::S1SetupRequest { .. }) = S1apMessage::decode(m) {
                        setups += 1;
                    }
                });
                match edge {
                    Ok(Edge::Opened(_)) => ctx.registry().counter_add("test.s1_accepted", 1.0),
                    Ok(Edge::Closed(..)) => ctx.registry().counter_add("test.s1_closed", 1.0),
                    Ok(Edge::Recv(handle)) => {
                        for _ in 0..setups {
                            let refusal = S1apMessage::S1SetupFailure { cause: 1 };
                            let bytes = lp_encode(&refusal.encode());
                            self.conns.send(ctx, handle, &flows::SOCK_CMD, bytes);
                        }
                    }
                    Err(_) => {}
                }
            }
            _ => {}
        }
    }
}

/// An eNodeB whose S1 Setup is refused closes that stream before it
/// dials again, so the MME never holds more than one of its streams.
#[test]
fn a_refused_s1_setup_closes_its_stream_before_the_enodeb_redials() {
    let mut w = World::new(3);
    let net = NetFabric::new();
    let enb_node = net.add_node("enb");
    let mme_node = net.add_node("mme");
    net.connect(enb_node, mme_node, LinkProfile::lan());
    let enb_stack = net.add_stack(&mut w, enb_node);
    let mme_stack = net.add_stack(&mut w, mme_node);
    let mme = w.add_actor(Box::new(RefusingMme {
        conns: Acceptor::new(mme_stack),
    }));
    let mme_ep = Endpoint::new(mme_node, ports::S1AP);
    let cfg = EnbConfig::new(1, enb_stack, mme_ep, mme);
    w.add_actor(Box::new(EnodebActor::new(cfg, Vec::new())));
    w.run_until(SimTime::from_secs(21));
    let accepted = w.registry().counter("test.s1_accepted");
    let closed = w.registry().counter("test.s1_closed");
    assert!(accepted >= 2.0, "the eNodeB dials again after a refusal");
    assert!(
        accepted - closed <= 1.0,
        "{accepted} S1 streams accepted, {closed} closed"
    );
}
