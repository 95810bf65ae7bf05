//! Property tests on the subscriber database: snapshot/replication
//! fidelity and version monotonicity under arbitrary mutation sequences,
//! the changeset held against the full snapshot it stands in for, and a
//! snapshot refreshed in place held against a fresh one.

use magma_policy::PolicyRule;
use magma_subscriber::{DbSnapshot, DbSync, SubscriberDb, SubscriberProfile};
use magma_wire::aka::Rand;
use magma_wire::Imsi;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Upsert(u64),
    Remove(u64),
    Rule(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..40).prop_map(Op::Upsert),
        (1u64..40).prop_map(Op::Remove),
        (0u8..5).prop_map(Op::Rule),
    ]
}

/// One northbound write. `salt` varies what an upsert writes, so a
/// rewrite of a row or a rule is a real change.
fn apply(db: &mut SubscriberDb, op: &Op, salt: u32) {
    match *op {
        Op::Upsert(n) => db.upsert(
            SubscriberProfile::lte(Imsi::new(310, 26, n), 7, n)
                .with_ambr(magma_policy::Ambr::new(20_000 + salt, 5_000)),
        ),
        Op::Remove(n) => {
            db.remove(Imsi::new(310, 26, n));
        }
        Op::Rule(r) => db.upsert_rule(PolicyRule::rate_limited(
            &format!("rule-{r}"),
            (r as u32 + 1) * 1000 + salt,
            500,
        )),
    }
}

/// One step in the life of a gateway's replica `db`, fed by `orc8r`.
#[derive(Debug, Clone)]
enum Step {
    /// A northbound write at the orchestrator.
    Orc8r(Op),
    /// A write straight into the replica.
    Local(Op),
    /// What the orchestrator sends the replica: changes or full.
    Sync,
    /// The full snapshot, however close the log reaches.
    SyncFull,
    Attach(u64),
    Seed(u64, u64),
    /// Refresh the held snapshots.
    Refresh,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        arb_op().prop_map(Step::Orc8r),
        arb_op().prop_map(Step::Orc8r),
        arb_op().prop_map(Step::Local),
        Just(Step::Sync),
        Just(Step::SyncFull),
        (1u64..40).prop_map(Step::Attach),
        (1u64..40).prop_map(Step::Attach),
        ((1u64..60), (1u64..20)).prop_map(|(n, sqn)| Step::Seed(n, sqn)),
        Just(Step::Refresh),
    ]
}

fn take(orc8r: &mut SubscriberDb, db: &mut SubscriberDb, step: &Step, salt: u32) {
    match step {
        Step::Orc8r(op) => apply(orc8r, op, salt),
        Step::Local(op) => apply(db, op, salt),
        Step::Sync => {
            if let Some(sync) = orc8r.sync_since(db.version) {
                db.apply_sync(sync);
            }
        }
        Step::SyncFull => {
            db.apply_sync(DbSync::Full(orc8r.snapshot()));
        }
        Step::Attach(n) => {
            db.generate_auth_vector(Imsi::new(310, 26, *n), Rand([*n as u8; 16]));
        }
        Step::Seed(n, sqn) => db.seed_sqn_marks([(Imsi::new(310, 26, *n), *sqn)].into()),
        Step::Refresh => {}
    }
}

/// Refresh each held snapshot in place; each must then be `db`'s own.
fn refresh_all(db: &SubscriberDb, held: &mut [DbSnapshot]) {
    for snap in held {
        db.snapshot_into(snap);
        assert_eq!(*snap, db.snapshot());
    }
}

/// A replica of `db` as it stands, which then served `attaches` attaches
/// (so it holds SQNs the orchestrator never sees).
fn replica_of(db: &SubscriberDb, attaches: u64) -> SubscriberDb {
    let mut replica = SubscriberDb::new();
    replica.apply_snapshot(db.snapshot());
    for n in 1..=attaches {
        replica.generate_auth_vector(Imsi::new(310, 26, n), Rand([n as u8; 16]));
    }
    replica
}

/// `db`'s snapshot with every SQN zeroed, as the orchestrator holds rows.
fn without_sqn(db: &SubscriberDb) -> magma_subscriber::DbSnapshot {
    let mut snap = db.snapshot();
    for p in &mut snap.subscribers {
        if let Some(cell) = p.cellular.as_mut() {
            cell.sqn = 0;
        }
    }
    snap
}

proptest! {
    /// Any history, a replica taken at any earlier point of it: applying
    /// `changes_since` lands exactly where applying the full snapshot
    /// does — rows, rules, version, and the replica's own SQNs — and the
    /// changes exist exactly when the replica is within the log horizon.
    /// Repeated, stale and gapped changesets leave a replica untouched;
    /// one that overlaps what the replica already has still lands right.
    #[test]
    fn changes_are_equivalent_to_the_full_snapshot(
        before in proptest::collection::vec(arb_op(), 0..60),
        middle in proptest::collection::vec(arb_op(), 1..60),
        after in proptest::collection::vec(arb_op(), 1..450),
        attaches in 0u64..40,
    ) {
        let mut db = SubscriberDb::new();
        for (i, op) in before.iter().enumerate() {
            apply(&mut db, op, i as u32);
        }
        let early = replica_of(&db, attaches);
        for (i, op) in middle.iter().enumerate() {
            apply(&mut db, op, 1_000 + i as u32);
        }
        let late = replica_of(&db, attaches);
        let early_to_late = db.sync_since(early.version);
        for (i, op) in after.iter().enumerate() {
            apply(&mut db, op, 2_000 + i as u32);
        }

        for start in [&early, &late] {
            let mut via_snapshot = start.clone();
            via_snapshot.apply_snapshot(db.snapshot());
            // Rows, rules and version are the orchestrator's; SQNs are
            // whatever the replica had reached, so compare with them out.
            let mut plain = SubscriberDb::new();
            plain.apply_snapshot(db.snapshot());
            let mut unsigned = SubscriberDb::new();
            unsigned.apply_snapshot(without_sqn(&via_snapshot));
            prop_assert_eq!(&unsigned, &plain);
            for p in start.iter() {
                if let (Some(was), Some(is)) = (&p.cellular, via_snapshot.get(p.imsi)) {
                    prop_assert_eq!(is.cellular.as_ref().map(|c| c.sqn), Some(was.sqn));
                }
            }

            let behind = db.version - start.version;
            let changes = db.changes_since(start.version);
            prop_assert_eq!(changes.is_some(), behind <= 256, "{} versions behind", behind);
            let Some(changes) = changes else {
                prop_assert!(matches!(db.sync_since(start.version), Some(DbSync::Full(_))));
                continue;
            };
            let mut via_changes = start.clone();
            let moved = via_changes.apply_sync(DbSync::Changes(changes.clone()));
            prop_assert_eq!(moved, behind > 0);
            prop_assert_eq!(&via_changes, &via_snapshot);
            // The same changes again: a duplicate.
            prop_assert!(!via_changes.apply_sync(DbSync::Changes(changes)));
            prop_assert_eq!(&via_changes, &via_snapshot);
        }

        // Out of order: with early→late still in flight, late→now reaches
        // the early replica first and starts past it — a gap. (Past the
        // horizon late→now is the full snapshot, which applies anywhere.)
        let mut replica = early.clone();
        if let Some(late_to_now @ DbSync::Changes(_)) = db.sync_since(late.version) {
            if late.version > early.version {
                prop_assert!(!replica.apply_sync(late_to_now.clone()));
                prop_assert_eq!(&replica, &early);
            }
            if let Some(early_to_late) = early_to_late.clone() {
                prop_assert!(replica.apply_sync(early_to_late));
                prop_assert_eq!(replica.version, late.version);
                prop_assert!(replica.apply_sync(late_to_now));
                prop_assert_eq!(replica.version, db.version);
            }
        }
        // Stale: something older than the replica holds.
        if let Some(stale) = early_to_late {
            let mut current = late.clone();
            current.apply_snapshot(db.snapshot());
            let held = current.clone();
            prop_assert!(!current.apply_sync(stale));
            prop_assert_eq!(&current, &held);
        }
        // Overlap: changes that start before the replica and end after it
        // carry current rows for more keys than it needs, no wrong ones.
        if let (Some(overlap), true) = (db.changes_since(early.version), late.version < db.version) {
            let mut replica = late.clone();
            let mut reference = late.clone();
            reference.apply_snapshot(db.snapshot());
            prop_assert!(replica.apply_sync(DbSync::Changes(overlap)));
            prop_assert_eq!(&replica, &reference);
        }
    }

    /// Any mutation sequence: versions are nondecreasing, and a snapshot
    /// applied to a fresh replica reproduces the database exactly.
    #[test]
    fn replication_is_exact(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut db = SubscriberDb::new();
        let mut last_version = 0;
        for op in &ops {
            apply(&mut db, op, 0);
            prop_assert!(db.version >= last_version, "version monotonic");
            last_version = db.version;
        }
        let mut replica = SubscriberDb::new();
        replica.apply_snapshot(db.snapshot());
        prop_assert_eq!(&replica, &db);
        // Snapshot→JSON→snapshot also survives (the sync wire format).
        let json = serde_json::to_value(db.snapshot()).unwrap();
        let back: magma_subscriber::DbSnapshot = serde_json::from_value(json).unwrap();
        let mut replica2 = SubscriberDb::new();
        replica2.apply_snapshot(back);
        prop_assert_eq!(&replica2, &db);
    }

    /// Any history of writes, syncs, attaches and seeded marks: refreshing a
    /// held snapshot in place yields exactly `snapshot()`, whether it starts
    /// empty, as an earlier snapshot of the same database, or as one of an
    /// unrelated database — including when only SQNs moved since it was
    /// taken, which leaves the version where it was.
    #[test]
    fn snapshot_into_is_the_snapshot(
        unrelated in proptest::collection::vec(arb_op(), 0..40),
        before in proptest::collection::vec(arb_step(), 0..40),
        steps in proptest::collection::vec(arb_step(), 1..120),
        attaches in proptest::collection::vec(1u64..40, 1..20),
    ) {
        let mut other = SubscriberDb::new();
        for (i, op) in unrelated.iter().enumerate() {
            apply(&mut other, op, 7_000 + i as u32);
        }
        let mut orc8r = SubscriberDb::new();
        let mut db = SubscriberDb::new();
        for (i, step) in before.iter().enumerate() {
            take(&mut orc8r, &mut db, step, i as u32);
        }
        let mut held = [DbSnapshot::default(), db.snapshot(), other.snapshot()];
        for (i, step) in steps.iter().enumerate() {
            take(&mut orc8r, &mut db, step, 1_000 + i as u32);
            if matches!(step, Step::Refresh) {
                refresh_all(&db, &mut held);
            }
        }
        refresh_all(&db, &mut held);

        // Only SQNs move: the version stands, the rows do not.
        let version = db.version;
        let mut moved = false;
        for &n in &attaches {
            let imsi = Imsi::new(310, 26, n);
            moved |= db.generate_auth_vector(imsi, Rand([n as u8; 16])).is_some();
        }
        prop_assert_eq!(db.version, version);
        prop_assert_eq!(held[1] != db.snapshot(), moved);
        refresh_all(&db, &mut held);
    }

    /// Auth vectors from a replica verify against UE credentials with the
    /// same provisioning, for any subscriber index.
    #[test]
    fn replica_vectors_verify(idx in 1u64..10_000) {
        let mut db = SubscriberDb::new();
        db.upsert(SubscriberProfile::lte(Imsi::new(310, 26, idx), 7, idx));
        let mut replica = SubscriberDb::new();
        replica.apply_snapshot(db.snapshot());
        let v = replica
            .generate_auth_vector(Imsi::new(310, 26, idx), magma_wire::aka::Rand([3; 16]))
            .unwrap();
        let (k, opc) = magma_wire::aka::provision(7, idx);
        let out = magma_wire::aka::ue_verify(&k, &opc, &v.rand, &v.autn, 0);
        prop_assert!(out.is_ok());
        prop_assert_eq!(out.unwrap().0, v.xres);
    }
}
