//! AGW runtime-state checkpointing (§3.3).
//!
//! The checkpoint carries the state needed for a backup instance to take
//! over the AGW's sessions. It has two forms:
//!
//! - [`AgwCheckpoint`], published locally every second
//!   (`AgwHandle.checkpoint`): the session table, IP leases, cert, and
//!   the whole subscriber replica, so an instance restored from it can
//!   serve attaches with the orchestrator unreachable (headless restart).
//! - [`WireCheckpoint`], what the same second's `orc8r.Checkpoint` upload
//!   carries: runtime state only. The replica's rows are the
//!   orchestrator's own configuration and the pool's free list is the
//!   rest of its block, so neither crosses the backhaul; a backup
//!   restored from the orchestrator's copy starts with an empty replica
//!   and its ordinary check-in pulls the configuration. What does ride
//!   along is each subscriber's HSS sequence number where it has moved:
//!   SQN advances with every attach served *here*, so it is this
//!   gateway's runtime state, and a backup that restarted it from zero
//!   would fail AKA for every UE that re-attaches after the failover.
//!
//! Mid-procedure MME state is *not* checkpointed — it is ephemeral and
//! recoverable ("a UE can simply reconnect", §3.4).

use crate::mobilityd::IpPool;
use crate::sessiond::SessionManager;
use magma_subscriber::DbSnapshot;
use magma_wire::Imsi;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;

/// A complete serializable AGW runtime checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgwCheckpoint {
    pub agw_id: String,
    /// Simulated time the checkpoint was taken (microseconds).
    pub taken_at_us: u64,
    pub sessions: SessionManager,
    pub pool: IpPool,
    /// Replicated configuration (survives even if the orchestrator is
    /// unreachable during recovery — headless restart). Empty in a
    /// checkpoint read back from its wire form.
    #[serde(default)]
    pub db: DbSnapshot,
    /// Bootstrap certificate, so the restored instance keeps checking in.
    pub cert: Option<u64>,
}

/// SQN each subscriber has reached at this gateway, where non-zero.
pub type SqnMarks = BTreeMap<Imsi, u64>;

impl AgwCheckpoint {
    /// This checkpoint's wire form, carrying `sqn` in place of the replica.
    pub fn wire<'a>(&'a self, sqn: &'a SqnMarks) -> WireCheckpoint<'a> {
        WireCheckpoint {
            agw_id: &self.agw_id,
            taken_at_us: self.taken_at_us,
            sessions: &self.sessions,
            pool: &self.pool,
            cert: self.cert,
            sqn,
        }
    }
}

/// The checkpoint as uploaded ([`AgwCheckpoint::wire`]): an
/// `AgwCheckpoint` without `db`, plus the `sqn` marks. Borrowed, so the
/// upload streams from the gateway's state as it stands; reads back
/// through [`from_wire`], and — marks aside — as a plain `AgwCheckpoint`.
#[derive(Debug, Clone, Copy)]
pub struct WireCheckpoint<'a> {
    agw_id: &'a str,
    taken_at_us: u64,
    sessions: &'a SessionManager,
    pool: &'a IpPool,
    cert: Option<u64>,
    sqn: &'a SqnMarks,
}

impl Serialize for WireCheckpoint<'_> {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"agw_id\":");
        self.agw_id.write_json(out);
        out.push_str(",\"cert\":");
        self.cert.write_json(out);
        out.push_str(",\"pool\":");
        self.pool.write_json(out);
        out.push_str(",\"sessions\":");
        self.sessions.write_json(out);
        out.push_str(",\"sqn\":");
        self.sqn.write_json(out);
        out.push_str(",\"taken_at_us\":");
        self.taken_at_us.write_json(out);
        out.push('}');
    }
}

/// Read a stored wire checkpoint back: the checkpoint (its `db` empty)
/// and the SQN marks that rode with it.
pub fn from_wire(mut state: Value) -> Result<(AgwCheckpoint, SqnMarks), serde::Error> {
    let sqn = match state.as_object_mut().and_then(|o| o.remove("sqn")) {
        Some(marks) => SqnMarks::from_json(marks)?,
        None => SqnMarks::new(),
    };
    Ok((AgwCheckpoint::from_json(state)?, sqn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_policy::PolicyRule;
    use magma_sim::SimTime;
    use magma_subscriber::{SubscriberDb, SubscriberProfile};
    use magma_wire::{Imsi, Teid, UeIp};

    fn checkpoint() -> AgwCheckpoint {
        let mut sessions = SessionManager::new();
        let ul = sessions.alloc_teid();
        sessions.create(
            Imsi::new(310, 26, 1),
            crate::sessiond::AccessTech::Lte,
            UeIp(0x0A000002),
            ul,
            Teid(700),
            PolicyRule::unrestricted("default"),
            SimTime::from_secs(3),
        );
        let mut pool = IpPool::new(0x0A000002, 100);
        pool.allocate(Imsi::new(310, 26, 1));
        let mut db = SubscriberDb::new();
        db.upsert(SubscriberProfile::lte(Imsi::new(310, 26, 1), 7, 1));

        AgwCheckpoint {
            agw_id: "agw-1".into(),
            taken_at_us: 3_000_000,
            sessions,
            pool,
            db: db.snapshot(),
            cert: Some(1000),
        }
    }

    #[test]
    fn checkpoint_serializes_and_restores() {
        let cp = checkpoint();
        let json = serde_json::to_value(&cp).unwrap();
        let back: AgwCheckpoint = serde_json::from_value(json).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.sessions.len(), 1);
        assert_eq!(back.pool.in_use(), 1);
    }

    #[test]
    fn wire_form_drops_the_db_and_the_free_list_and_still_parses_as_a_checkpoint() {
        let cp = checkpoint();
        let sqn: SqnMarks = [(Imsi::new(310, 26, 1), 4)].into();
        let wire = cp.wire(&sqn);
        let text = serde_json::to_string(&wire).unwrap();
        let stored: Value = serde_json::from_str(&text).unwrap();
        let keys: Vec<&str> = stored.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["agw_id", "cert", "pool", "sessions", "sqn", "taken_at_us"]);
        assert!(stored["pool"].as_object().is_some_and(|p| !p.contains_key("free")));

        // What the benchmark's output check does with the stored value.
        let plain: AgwCheckpoint = serde_json::from_value(stored.clone()).unwrap();
        let expected = AgwCheckpoint {
            db: DbSnapshot::default(),
            ..cp
        };
        assert_eq!(plain, expected);
        assert_eq!(from_wire(stored).unwrap(), (expected, sqn));
    }
}
