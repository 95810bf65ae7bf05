//! The subscriber database (HSS / SubscriberDB analog).
//!
//! The orchestrator owns the authoritative copy (configuration state,
//! §3.4); each AGW holds a cached replica synchronized with the
//! desired-state model, which is what lets an AGW authenticate attaches
//! while disconnected from the orchestrator ("headless" operation, §3.2).
//! The database is versioned: every mutation bumps `version`, and a
//! replica can cheaply ask "am I current?".
//!
//! What a stale replica is sent is decided in one place,
//! [`SubscriberDb::sync_since`]: the rows that changed when the replica's
//! version is known and still in the change log, the complete state
//! otherwise. Either way the replica ends up holding the orchestrator's
//! current state — a changeset carries current rows, never operations —
//! so the full snapshot is both the fallback and the reference the
//! changeset is tested against.

use crate::profile::{RuleCatalog, SubscriberProfile};
use magma_policy::PolicyRule;
use magma_wire::aka::{generate_vector, AuthVector, Rand};
use magma_wire::Imsi;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How many versions back [`SubscriberDb::changes_since`] can answer. A
/// replica further behind than this has missed more than a changeset is
/// worth and is sent the full snapshot.
const LOG_HORIZON: usize = 256;

/// The key one version's mutation touched.
#[derive(Debug, Clone)]
enum Touched {
    Subscriber(Imsi),
    Rule(String),
}

/// Versioned subscriber + policy store.
#[derive(Debug, Clone, Default)]
pub struct SubscriberDb {
    subscribers: BTreeMap<Imsi, SubscriberProfile>,
    catalog: RuleCatalog,
    /// Monotonic version; bumped on every mutation.
    pub version: u64,
    /// What each of the last `log.len()` versions touched, oldest first:
    /// the back entry is `version`'s. Bounded by [`LOG_HORIZON`]; emptied
    /// whenever state arrives by replication, because a replica cannot
    /// describe versions it never saw.
    log: VecDeque<Touched>,
    /// SQN marks seeded for rows this replica does not hold yet (a backup
    /// restored before its configuration arrived).
    sqn_marks: BTreeMap<Imsi, u64>,
}

/// Replication equality: rows, rules and version. The change log and the
/// pending SQN marks are bookkeeping a replica and its source differ in.
impl PartialEq for SubscriberDb {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version
            && self.subscribers == other.subscribers
            && self.catalog == other.catalog
    }
}

/// A full snapshot for desired-state replication to AGWs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DbSnapshot {
    pub version: u64,
    pub subscribers: Vec<SubscriberProfile>,
    pub rules: Vec<PolicyRule>,
}

/// What changed between two versions, as current state: the rows and rule
/// definitions as they stand at `to` for every key touched after `from`.
/// Applied to a replica anywhere in `from..to` it yields the state at
/// `to`, so a repeated or overlapping changeset is harmless.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbChanges {
    pub from: u64,
    pub to: u64,
    pub subscribers: Vec<SubscriberProfile>,
    /// Touched subscribers that no longer exist.
    pub removed: Vec<Imsi>,
    pub rules: Vec<PolicyRule>,
}

/// What the orchestrator sends a stale replica.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DbSync {
    Changes(DbChanges),
    Full(DbSnapshot),
}

impl SubscriberDb {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.subscribers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.subscribers.is_empty()
    }

    /// One mutation happened: bump the version and log what it touched.
    fn bump(&mut self, touched: Touched) {
        self.version += 1;
        if self.log.len() == LOG_HORIZON {
            self.log.pop_front();
        }
        self.log.push_back(touched);
    }

    pub fn upsert(&mut self, profile: SubscriberProfile) {
        let imsi = profile.imsi;
        self.subscribers.insert(imsi, profile);
        self.bump(Touched::Subscriber(imsi));
    }

    pub fn remove(&mut self, imsi: Imsi) -> Option<SubscriberProfile> {
        let removed = self.subscribers.remove(&imsi);
        if removed.is_some() {
            self.bump(Touched::Subscriber(imsi));
        }
        removed
    }

    pub fn get(&self, imsi: Imsi) -> Option<&SubscriberProfile> {
        self.subscribers.get(&imsi)
    }

    pub fn iter(&self) -> impl Iterator<Item = &SubscriberProfile> {
        self.subscribers.values()
    }

    /// Find a subscriber by WiFi username (RADIUS User-Name).
    pub fn by_wifi_username(&self, username: &str) -> Option<&SubscriberProfile> {
        self.subscribers
            .values()
            .find(|p| p.wifi.as_ref().map(|w| w.username.as_str()) == Some(username))
    }

    pub fn upsert_rule(&mut self, rule: PolicyRule) {
        let id = rule.id.clone();
        self.catalog.upsert(rule);
        self.bump(Touched::Rule(id));
    }

    pub fn rule(&self, id: &str) -> Option<&PolicyRule> {
        self.catalog.get(id)
    }

    /// Resolve a subscriber's assigned rules against the catalog.
    pub fn effective_rules(&self, imsi: Imsi) -> Vec<PolicyRule> {
        let Some(p) = self.subscribers.get(&imsi) else {
            return Vec::new();
        };
        p.policy_rules
            .iter()
            .filter_map(|id| self.catalog.get(id).cloned())
            .collect()
    }

    /// HSS operation: generate an EPS-AKA vector, advancing the stored
    /// SQN. `rand` comes from the caller so the simulation stays
    /// deterministic. Returns `None` for unknown, inactive, or
    /// non-cellular subscribers.
    pub fn generate_auth_vector(&mut self, imsi: Imsi, rand: Rand) -> Option<AuthVector> {
        let p = self.subscribers.get_mut(&imsi)?;
        if !p.active {
            return None;
        }
        let cell = p.cellular.as_mut()?;
        cell.sqn += 1;
        // Note: the SQN advance does NOT bump `version`. SQN is
        // per-subscriber *runtime* state (it advances on every attach at
        // the serving replica); the version tracks *configuration*
        // mutations only, so replicas can compare versions against the
        // orchestrator without self-inflation.
        generate_vector(&cell.k, &cell.opc, cell.sqn, rand).into()
    }

    /// Verify a WiFi password (toy PAP).
    pub fn check_wifi_password(&self, username: &str, password: &str) -> bool {
        self.by_wifi_username(username)
            .and_then(|p| p.wifi.as_ref())
            .map(|w| w.password == password)
            .unwrap_or(false)
    }

    /// Full snapshot for replication.
    pub fn snapshot(&self) -> DbSnapshot {
        DbSnapshot {
            version: self.version,
            subscribers: self.subscribers.values().cloned().collect(),
            rules: self.catalog.rules.clone(),
        }
    }

    /// Make `held` equal to [`snapshot`](Self::snapshot), re-cloning only
    /// the rows and rules that differ from what it holds: a copy refreshed
    /// every second mostly finds its rows as they were. Rows are compared,
    /// not versions — an attach moves a row's SQN and not the version.
    pub fn snapshot_into(&self, held: &mut DbSnapshot) {
        held.version = self.version;
        refresh(&mut held.subscribers, self.subscribers.values());
        refresh(&mut held.rules, self.catalog.rules.iter());
    }

    /// What changed after version `v`, or `None` when that cannot be said:
    /// `v` is older than the log reaches, or ahead of this database.
    pub fn changes_since(&self, v: u64) -> Option<DbChanges> {
        let behind = usize::try_from(self.version.checked_sub(v)?).ok()?;
        let first = self.log.len().checked_sub(behind)?;
        let mut imsis = BTreeSet::new();
        let mut rule_ids = BTreeSet::new();
        for touched in self.log.iter().skip(first) {
            match touched {
                Touched::Subscriber(imsi) => {
                    imsis.insert(*imsi);
                }
                Touched::Rule(id) => {
                    rule_ids.insert(id.as_str());
                }
            }
        }
        let mut subscribers = Vec::new();
        let mut removed = Vec::new();
        for imsi in imsis {
            match self.subscribers.get(&imsi) {
                Some(row) => subscribers.push(row.clone()),
                None => removed.push(imsi),
            }
        }
        Some(DbChanges {
            from: v,
            to: self.version,
            subscribers,
            removed,
            // Catalog order, so rules new to the replica are appended in
            // the order this catalog holds them.
            rules: self
                .catalog
                .rules
                .iter()
                .filter(|r| rule_ids.contains(r.id.as_str()))
                .cloned()
                .collect(),
        })
    }

    /// What to send a replica that reports version `have`: nothing when
    /// it is current, the changes when the log still covers `have`, the
    /// full snapshot otherwise. The one place that choice is made, for
    /// the orchestrator's push and its check-in reply alike.
    pub fn sync_since(&self, have: u64) -> Option<DbSync> {
        if have >= self.version {
            return None;
        }
        Some(match self.changes_since(have) {
            Some(changes) => DbSync::Changes(changes),
            None => DbSync::Full(self.snapshot()),
        })
    }

    /// Store a replicated row. SQN is runtime state this replica owns
    /// (it advances on every attach served here), so the incoming row
    /// never lowers it: the higher of the two survives.
    fn store_replicated(&mut self, mut row: SubscriberProfile) {
        let issued = match self.subscribers.get(&row.imsi) {
            Some(held) => held.cellular.as_ref().map_or(0, |c| c.sqn),
            None => self.sqn_marks.remove(&row.imsi).unwrap_or(0),
        };
        if let Some(cell) = row.cellular.as_mut() {
            cell.sqn = cell.sqn.max(issued);
        }
        self.subscribers.insert(row.imsi, row);
    }

    /// Replace local contents with a replicated snapshot (AGW side),
    /// keeping the SQN this replica has reached for each surviving row.
    pub fn apply_snapshot(&mut self, snap: DbSnapshot) {
        let keep: BTreeSet<Imsi> = snap.subscribers.iter().map(|p| p.imsi).collect();
        self.subscribers.retain(|imsi, _| keep.contains(imsi));
        for row in snap.subscribers {
            self.store_replicated(row);
        }
        self.catalog = RuleCatalog { rules: snap.rules };
        self.version = snap.version;
        self.log.clear();
    }

    /// Apply whatever the orchestrator sent (AGW side), push or check-in
    /// reply alike; returns whether the replica moved. Changes apply when
    /// they start at or before this replica's version and end after it;
    /// a snapshot applies when it is newer. Anything else — a duplicate,
    /// something older, or changes that start past this replica (a gap)
    /// — leaves the replica untouched, and its next check-in reports the
    /// version it really holds.
    pub fn apply_sync(&mut self, sync: DbSync) -> bool {
        match sync {
            DbSync::Full(snap) if snap.version > self.version => self.apply_snapshot(snap),
            DbSync::Changes(ch) if ch.from <= self.version && self.version < ch.to => {
                for imsi in ch.removed {
                    self.subscribers.remove(&imsi);
                }
                for row in ch.subscribers {
                    self.store_replicated(row);
                }
                for rule in ch.rules {
                    self.catalog.upsert(rule);
                }
                self.version = ch.to;
                self.log.clear();
            }
            _ => return false,
        }
        true
    }

    /// The SQN every subscriber has reached here, where non-zero: the
    /// part of this replica that is runtime state, and so what a
    /// checkpoint carries of it (§3.3).
    pub fn sqn_marks(&self) -> BTreeMap<Imsi, u64> {
        let mut marks = self.sqn_marks.clone();
        for p in self.subscribers.values() {
            if let Some(cell) = p.cellular.as_ref().filter(|c| c.sqn > 0) {
                marks.insert(p.imsi, cell.sqn);
            }
        }
        marks
    }

    /// Raise SQNs to at least `marks` (a restored backup); a mark whose
    /// row is not here yet waits for it.
    pub fn seed_sqn_marks(&mut self, marks: BTreeMap<Imsi, u64>) {
        for (imsi, sqn) in marks {
            match self.subscribers.get_mut(&imsi) {
                Some(p) => {
                    if let Some(cell) = p.cellular.as_mut() {
                        cell.sqn = cell.sqn.max(sqn);
                    }
                }
                None => {
                    self.sqn_marks.insert(imsi, sqn);
                }
            }
        }
    }
}

/// Make `held` equal to `current`, element by element, cloning only where
/// they differ.
fn refresh<'a, T: Clone + PartialEq + 'a>(
    held: &mut Vec<T>,
    current: impl ExactSizeIterator<Item = &'a T>,
) {
    held.truncate(current.len());
    held.reserve_exact(current.len() - held.len());
    for (i, row) in current.enumerate() {
        match held.get_mut(i) {
            Some(h) if h == row => {}
            Some(h) => *h = row.clone(),
            None => held.push(row.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imsi(n: u64) -> Imsi {
        Imsi::new(310, 26, n)
    }

    #[test]
    fn upsert_get_remove_bump_version() {
        let mut db = SubscriberDb::new();
        assert_eq!(db.version, 0);
        db.upsert(SubscriberProfile::lte(imsi(1), 7, 1));
        assert_eq!(db.version, 1);
        assert!(db.get(imsi(1)).is_some());
        db.remove(imsi(1));
        assert_eq!(db.version, 2);
        // Removing a missing row is not a mutation.
        db.remove(imsi(1));
        assert_eq!(db.version, 2);
    }

    #[test]
    fn auth_vector_advances_sqn_and_verifies() {
        let mut db = SubscriberDb::new();
        db.upsert(SubscriberProfile::lte(imsi(1), 7, 1));
        let version_before = db.version;
        let v1 = db.generate_auth_vector(imsi(1), Rand([1; 16])).unwrap();
        let v2 = db.generate_auth_vector(imsi(1), Rand([1; 16])).unwrap();
        assert_ne!(v1.autn, v2.autn, "SQN advanced");
        assert_eq!(db.version, version_before, "SQN is runtime, not config");
        // UE side can verify with the same credentials.
        let p = db.get(imsi(1)).unwrap().clone();
        let cell = p.cellular.unwrap();
        let (res, _, sqn) =
            magma_wire::aka::ue_verify(&cell.k, &cell.opc, &v2.rand, &v2.autn, 1).unwrap();
        assert_eq!(res, v2.xres);
        assert_eq!(sqn, 2);
    }

    #[test]
    fn auth_vector_denied_for_inactive_or_wifi_only() {
        let mut db = SubscriberDb::new();
        let mut p = SubscriberProfile::lte(imsi(1), 7, 1);
        p.active = false;
        db.upsert(p);
        assert!(db.generate_auth_vector(imsi(1), Rand([0; 16])).is_none());
        db.upsert(SubscriberProfile::wifi(imsi(2), "u", "p"));
        assert!(db.generate_auth_vector(imsi(2), Rand([0; 16])).is_none());
        assert!(db.generate_auth_vector(imsi(99), Rand([0; 16])).is_none());
    }

    #[test]
    fn wifi_lookup_and_password_check() {
        let mut db = SubscriberDb::new();
        db.upsert(SubscriberProfile::wifi(imsi(3), "ap-7", "hunter2"));
        assert_eq!(db.by_wifi_username("ap-7").unwrap().imsi, imsi(3));
        assert!(db.check_wifi_password("ap-7", "hunter2"));
        assert!(!db.check_wifi_password("ap-7", "wrong"));
        assert!(!db.check_wifi_password("ghost", "hunter2"));
    }

    #[test]
    fn snapshot_roundtrip_replicates_everything() {
        let mut db = SubscriberDb::new();
        db.upsert(SubscriberProfile::lte(imsi(1), 7, 1));
        db.upsert_rule(PolicyRule::rate_limited("silver", 5000, 1000));
        let snap = db.snapshot();
        let mut replica = SubscriberDb::new();
        replica.apply_snapshot(snap);
        assert_eq!(replica.version, db.version);
        assert_eq!(replica.get(imsi(1)), db.get(imsi(1)));
        assert_eq!(replica.rule("silver"), db.rule("silver"));
    }

    #[test]
    fn replication_never_lowers_the_sqn_a_replica_reached() {
        let mut orc8r = SubscriberDb::new();
        orc8r.upsert(SubscriberProfile::lte(imsi(1), 7, 1));
        orc8r.upsert(SubscriberProfile::lte(imsi(2), 7, 2));
        let mut replica = SubscriberDb::new();
        replica.apply_snapshot(orc8r.snapshot());
        for _ in 0..3 {
            replica.generate_auth_vector(imsi(1), Rand([1; 16])).unwrap();
        }
        let sqn = |db: &SubscriberDb, n| db.get(imsi(n)).unwrap().cellular.as_ref().unwrap().sqn;

        // An unrelated write, replicated as changes …
        orc8r.upsert(SubscriberProfile::lte(imsi(2), 7, 2).with_rules(&["gold"]));
        let Some(sync @ DbSync::Changes(_)) = orc8r.sync_since(replica.version) else {
            panic!("one version behind is in the log");
        };
        assert!(replica.apply_sync(sync));
        assert_eq!(sqn(&replica, 1), 3);
        // … a rewrite of the very row, and the full snapshot.
        orc8r.upsert(SubscriberProfile::lte(imsi(1), 7, 1).with_rules(&["gold"]));
        assert!(replica.apply_sync(orc8r.sync_since(replica.version).unwrap()));
        assert_eq!(replica.get(imsi(1)).unwrap().policy_rules, ["gold"]);
        assert_eq!(sqn(&replica, 1), 3);
        replica.apply_snapshot(orc8r.snapshot());
        assert_eq!((sqn(&replica, 1), sqn(&replica, 2)), (3, 0));
        assert_eq!(replica.sqn_marks(), [(imsi(1), 3)].into());
    }

    #[test]
    fn changes_hold_current_rows_removals_and_rules() {
        let mut db = SubscriberDb::new();
        db.upsert_rule(PolicyRule::rate_limited("silver", 5000, 1000));
        for n in 1..=4 {
            db.upsert(SubscriberProfile::lte(imsi(n), 7, n));
        }
        let v = db.version;
        db.upsert(SubscriberProfile::lte(imsi(2), 7, 2).with_rules(&["silver"]));
        db.upsert(SubscriberProfile::lte(imsi(2), 7, 2).with_rules(&["gold"]));
        db.remove(imsi(3));
        db.upsert_rule(PolicyRule::rate_limited("gold", 50_000, 10_000));
        let ch = db.changes_since(v).unwrap();
        assert_eq!((ch.from, ch.to), (v, v + 4));
        // One row per touched key, as it stands now.
        assert_eq!(ch.subscribers, [db.get(imsi(2)).unwrap().clone()]);
        assert_eq!(ch.removed, [imsi(3)]);
        assert_eq!(ch.rules, [db.rule("gold").unwrap().clone()]);
        assert_eq!(db.changes_since(db.version).map(|c| c.subscribers.len()), Some(0));
        assert!(db.sync_since(db.version).is_none(), "a current replica is sent nothing");
        assert!(db.changes_since(db.version + 1).is_none(), "ahead of this database");
    }

    #[test]
    fn past_the_log_horizon_the_answer_is_the_full_snapshot() {
        let mut db = SubscriberDb::new();
        db.upsert(SubscriberProfile::lte(imsi(1), 7, 1));
        for n in 0..LOG_HORIZON as u64 {
            db.upsert(SubscriberProfile::lte(imsi(2), 7, n));
        }
        assert!(db.changes_since(1).is_some(), "exactly the horizon back");
        assert!(db.changes_since(0).is_none(), "one past it");
        assert_eq!(db.sync_since(0), Some(DbSync::Full(db.snapshot())));
        // A replica has no log of the versions it was handed.
        let mut replica = SubscriberDb::new();
        replica.apply_snapshot(db.snapshot());
        assert!(replica.changes_since(replica.version - 1).is_none());
    }

    #[test]
    fn duplicates_and_gaps_leave_the_replica_untouched() {
        let mut db = SubscriberDb::new();
        db.upsert(SubscriberProfile::lte(imsi(1), 7, 1));
        let mut replica = SubscriberDb::new();
        replica.apply_snapshot(db.snapshot());
        db.upsert(SubscriberProfile::lte(imsi(2), 7, 2));
        let first = db.sync_since(1).unwrap();
        db.upsert(SubscriberProfile::lte(imsi(3), 7, 3));
        let second = db.sync_since(2).unwrap();

        let before = replica.clone();
        assert!(!replica.apply_sync(second.clone()), "starts past the replica");
        assert_eq!(replica, before);
        assert!(replica.apply_sync(first.clone()));
        assert!(replica.apply_sync(second));
        assert_eq!(replica, db);
        assert!(!replica.apply_sync(first), "older than the replica");
        assert!(!replica.apply_sync(DbSync::Full(before.snapshot())));
        assert_eq!(replica, db);
    }

    #[test]
    fn seeded_sqn_marks_wait_for_their_rows() {
        let mut orc8r = SubscriberDb::new();
        orc8r.upsert(SubscriberProfile::lte(imsi(1), 7, 1));
        orc8r.upsert(SubscriberProfile::lte(imsi(2), 7, 2));
        let mut backup = SubscriberDb::new();
        backup.seed_sqn_marks([(imsi(1), 5)].into());
        assert_eq!(backup.sqn_marks(), [(imsi(1), 5)].into(), "carried before the row is");
        assert!(backup.apply_sync(orc8r.sync_since(0).unwrap()));
        assert_eq!(backup.get(imsi(1)).unwrap().cellular.as_ref().unwrap().sqn, 5);
        assert_eq!(backup.sqn_marks(), [(imsi(1), 5)].into());
        backup.seed_sqn_marks([(imsi(1), 3), (imsi(2), 4)].into());
        assert_eq!(backup.sqn_marks(), [(imsi(1), 5), (imsi(2), 4)].into());
    }

    #[test]
    fn effective_rules_resolve_catalog() {
        let mut db = SubscriberDb::new();
        db.upsert_rule(PolicyRule::rate_limited("gold", 50_000, 10_000));
        db.upsert(
            SubscriberProfile::lte(imsi(1), 7, 1).with_rules(&["gold", "missing-rule"]),
        );
        let rules = db.effective_rules(imsi(1));
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].id, "gold");
        assert!(db.effective_rules(imsi(42)).is_empty());
    }
}
