//! Configuration sync below the desired-state interface (§3.4): the
//! orchestrator sends a stale gateway the rows that changed when it knows
//! which version the gateway holds and its change log still reaches back
//! that far, and the complete state otherwise. Whatever mix of the two a
//! gateway sees — lossy links, partitions, more writes than the log
//! holds, a replacement instance that starts from nothing, a push that
//! does not follow from what it holds — its replica ends up equal to the
//! orchestrator's database.

use magma::agw::AgwActor;
use magma::orc8r::{methods, BootstrapResponse, CheckinRequest, CheckinResponse};
use magma::prelude::*;
use magma::rpc::{RpcRequest, RpcServer};
use magma::sim::{downcast, Actor, Ctx, DelayClass, Event, FlowKind, Role};
use magma::subscriber::{DbSnapshot, DbSync, SubscriberDb};
use magma::testbed::scenario::{AgwInstance, Scenario, SIM_SEED};
use magma_net::{ports, LinkProfile, SockEvent, StreamHandle};
use std::cell::RefCell;
use std::rc::Rc;

/// A subscriber no UE uses; `k` picks the row, `salt` varies it.
fn extra_subscriber(k: u64, salt: u32) -> SubscriberProfile {
    let msin = 9_000_000 + k;
    SubscriberProfile::lte(Imsi::new(310, 26, msin), SIM_SEED, msin)
        .with_ambr(Ambr::new(10_000 + salt, 5_000))
}

/// The gateway's replica as of its last local checkpoint, SQNs zeroed
/// (they are the gateway's own; the orchestrator's rows all say 0).
fn replica(gw: &AgwInstance) -> DbSnapshot {
    let mut db = gw
        .handle
        .borrow()
        .checkpoint
        .clone()
        .expect("checkpoints are taken every second")
        .db;
    for cell in db.subscribers.iter_mut().filter_map(|p| p.cellular.as_mut()) {
        cell.sqn = 0;
    }
    db
}

fn assert_replicas_equal_orc8r(sc: &Scenario) {
    let truth = sc.orc8r.borrow().db.snapshot();
    for gw in &sc.agws {
        let held = replica(gw);
        assert!(
            held == truth,
            "{}: replica (v{}, {} rows, {} rules) differs from orc8r's db (v{}, {} rows, {} rules)",
            gw.id,
            held.version,
            held.subscribers.len(),
            held.rules.len(),
            truth.version,
            truth.subscribers.len(),
            truth.rules.len()
        );
    }
}

fn small_site() -> SiteSpec {
    SiteSpec {
        enbs: 1,
        ues_per_enb: 6,
        attach_rate_per_sec: 1.0,
        ..SiteSpec::typical()
    }
}

#[test]
fn writes_under_loss_and_partition_leave_every_replica_equal_to_the_orchestrator() {
    let mut cfg = ScenarioConfig::new(23);
    for backhaul in [
        LinkProfile::microwave().with_loss(0.02),
        LinkProfile::satellite().with_loss(0.01),
        LinkProfile::fiber(),
        LinkProfile::satellite(),
    ] {
        let mut agw = AgwSpec::bare_metal(small_site());
        agw.backhaul = backhaul;
        cfg = cfg.with_agw(agw);
    }
    let mut sc = magma::deploy(cfg);

    // Northbound writes from 5 s to 85 s: one every 500 ms — rewrites,
    // new rows, removals, rule changes — and between 40 s and 43 s a
    // burst of ten per 100 ms, more than the change log holds. Gateways
    // 2 and 3 are cut off from 30 s to 60 s and miss the burst whole.
    let mut writes = 0u64;
    for slice in 0..1100u64 {
        let now_ms = slice * 100;
        if now_ms == 30_000 || now_ms == 60_000 {
            for gw in &sc.agws[2..] {
                sc.net.set_link_up(gw.node, sc.orc8r_node, now_ms == 60_000);
            }
        }
        if now_ms == 59_900 {
            let orc8r = sc.orc8r.borrow();
            for gw in &sc.agws[2..] {
                let held = gw.handle.borrow().last_db_version;
                assert!(
                    orc8r.db.changes_since(held).is_none(),
                    "{} at v{held} is past the log horizon",
                    gw.id
                );
            }
        }
        let burst = (40_000..43_000).contains(&now_ms);
        let n = match now_ms {
            5_000..=85_000 if burst => 10,
            5_000..=85_000 if now_ms % 500 == 0 => 1,
            _ => 0,
        };
        for _ in 0..n {
            let mut orc8r = sc.orc8r.borrow_mut();
            let k = writes % 50;
            match writes % 7 {
                3 => orc8r.remove_subscriber(extra_subscriber(k, 0).imsi),
                5 => orc8r.upsert_policy(PolicyRule::rate_limited(
                    &format!("plan-{}", k % 4),
                    1_000 + writes as u32,
                    500,
                )),
                _ => orc8r.upsert_subscriber(extra_subscriber(k, writes as u32)),
            }
            writes += 1;
        }
        sc.world.run_until(SimTime::from_millis(now_ms + 100));
    }
    assert!(sc.orc8r.borrow().db.version > 400);

    assert_replicas_equal_orc8r(&sc);
    let rec = sc.world.registry();
    for gw in &sc.agws {
        assert!(
            rec.series(&format!("{}.config.push", gw.id))
                .map(|s| s.len())
                .unwrap_or(0)
                > 50,
            "{}: most writes arrive as pushes",
            gw.id
        );
    }
    assert_eq!(magma::testbed::overall_csr(rec, "ran"), 1.0);
}

#[test]
fn a_fresh_gateway_and_a_restored_backup_pull_the_full_snapshot() {
    let cfg = ScenarioConfig::new(29)
        .with_agw(AgwSpec::bare_metal(small_site()))
        .with_agw(AgwSpec::bare_metal(small_site()));
    let mut sc = magma::deploy(cfg);
    for k in 0..300 {
        sc.orc8r.borrow_mut().upsert_subscriber(extra_subscriber(k, 0));
    }
    sc.world.run_until(SimTime::from_millis(20_500));
    assert_replicas_equal_orc8r(&sc);

    // Both machines die. Gateway 0 is replaced by an instance that knows
    // nothing; gateway 1 by a backup restored from the orchestrator's
    // copy of its checkpoint, which carries no configuration either.
    let stored = sc.orc8r.borrow().checkpoints[&sc.agws[1].id].clone();
    let sessions_before = sc.agws[1].handle.borrow().active_sessions;
    assert_eq!(sessions_before, 6);
    sc.crash_agw(0);
    sc.crash_agw(1);
    sc.world.run_until(SimTime::from_secs(22));
    assert!(
        sc.orc8r.borrow().db.changes_since(0).is_none(),
        "version 0 is past the log horizon"
    );
    let fresh = sc.agws[0].fresh();
    let backup = AgwActor::restore_from_wire(
        sc.agws[1].cfg.clone(),
        sc.agws[1].handle.clone(),
        stored,
    )
    .expect("the stored checkpoint parses");
    sc.restart_agw(0, fresh);
    sc.restart_agw(1, backup);
    sc.world.run_until(SimTime::from_millis(30_500));

    assert_replicas_equal_orc8r(&sc);
    assert_eq!(sc.agws[0].handle.borrow().active_sessions, 0);
    assert_eq!(sc.agws[1].handle.borrow().active_sessions, sessions_before);
    let rec = sc.world.registry();
    for gw in &sc.agws {
        assert!(
            rec.series(&format!("{}.config.sync", gw.id))
                .map(|s| s.len())
                .unwrap_or(0)
                >= 1,
            "{}: pulled at check-in",
            gw.id
        );
    }
}

// ---- a push that does not follow from what the gateway holds ----

const REPLY: FlowKind = FlowKind {
    name: "test.reply",
    sender: "test.orc8r",
    receiver: "agw",
    class: DelayClass::Transport,
    role: Role::Response,
    retry: None,
};
const PUSH: FlowKind = FlowKind {
    name: methods::PUSH_SUBSCRIBERS,
    sender: "test.orc8r",
    receiver: "agw",
    class: DelayClass::Transport,
    role: Role::Data,
    retry: None,
};

/// An orchestrator that answers bootstrap and check-in from `db`. At 2 s
/// its database moves 300 versions on and it pushes the last version's
/// changes alone, as if the gateway held all the others. Records the
/// version each check-in reported.
struct GappyOrc8r {
    server: RpcServer,
    db: SubscriberDb,
    conn: Option<StreamHandle>,
    reported: Rc<RefCell<Vec<u64>>>,
}

impl Actor for GappyOrc8r {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                self.server.listen(ctx);
                ctx.timer_in(SimDuration::from_secs(2), 1);
            }
            Event::Timer { .. } => {
                for k in 0..300 {
                    self.db.upsert(extra_subscriber(k % 10, 1 + k as u32));
                }
                let to = self.db.version;
                let last = self.db.sync_since(to - 1).expect("one version back");
                assert!(matches!(&last, DbSync::Changes(ch) if ch.from == to - 1));
                let conns: Vec<StreamHandle> = self.conn.into_iter().collect();
                assert_eq!(self.server.push(ctx, &conns, to, &PUSH, &last).len(), 1);
            }
            Event::Msg { payload, .. } => {
                let ev = downcast::<SockEvent>(payload, "gappy-orc8r");
                for RpcRequest {
                    conn,
                    id,
                    method,
                    body,
                } in self.server.try_handle(ctx, ev).unwrap_or_default()
                {
                    self.conn = Some(conn);
                    match method.as_str() {
                        methods::BOOTSTRAP => {
                            self.server
                                .reply(ctx, conn, id, &REPLY, BootstrapResponse { cert: 1 });
                        }
                        methods::CHECKIN => {
                            let req: CheckinRequest =
                                serde_json::from_value(body).expect("a check-in");
                            self.reported.borrow_mut().push(req.db_version);
                            let resp = CheckinResponse {
                                latest_version: self.db.version,
                                sync: self.db.sync_since(req.db_version),
                                checkin_interval_s: 5,
                            };
                            self.server.reply(ctx, conn, id, &REPLY, resp);
                        }
                        _ => self.server.reply(ctx, conn, id, &REPLY, serde_json::json!({})),
                    }
                }
            }
            Event::CpuDone { .. } => {}
        }
    }
}

#[test]
fn a_gapped_push_is_ignored_and_the_next_checkin_pulls_the_state() {
    // Gateway and orchestrator both start at v3; then the orchestrator's
    // process is a `GappyOrc8r` on the same database.
    let mut sc = magma::deploy(ScenarioConfig::new(31).with_policies(Vec::new(), Vec::new()));
    for k in 0..3 {
        sc.orc8r.borrow_mut().upsert_subscriber(extra_subscriber(k, 0));
    }
    let db = sc.orc8r.borrow().db.clone();
    let provisioned = db.snapshot();
    sc.add_agw(&AgwSpec::bare_metal(SiteSpec { enbs: 0, ..small_site() }));
    let reported = Rc::new(RefCell::new(Vec::new()));
    let server = RpcServer::new(sc.orc8r_stack, ports::ORC8R);
    sc.world.restart(
        sc.orc8r_actor,
        Box::new(GappyOrc8r {
            server,
            db,
            conn: None,
            reported: reported.clone(),
        }),
    );
    let (w, handle) = (&mut sc.world, &sc.agws[0].handle);
    let replica = || handle.borrow().checkpoint.clone().expect("checkpointed").db;

    // The push at 2 s starts at v302; the gateway holds v3. Applying it
    // would leave a replica that claims v303 and misses 299 versions, so
    // the gateway leaves its replica alone …
    w.run_until(SimTime::from_millis(4_500));
    assert_eq!(replica(), provisioned);
    assert_eq!(handle.borrow().last_db_version, 3);
    // … and says so at its next check-in (5 s), which is answered with
    // the full snapshot, v3 being further back than the log reaches.
    w.run_until(SimTime::from_millis(7_500));
    assert_eq!(*reported.borrow(), [3, 3]);
    assert_eq!(handle.borrow().last_db_version, 303);
    assert_eq!(replica().subscribers.len(), 10);
    let events = |name: &str| w.registry().series(name).map(|s| s.len()).unwrap_or(0);
    assert_eq!(events("agw0.config.push"), 0);
    assert_eq!(events("agw0.config.sync"), 1);
}
