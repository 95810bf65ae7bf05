//! sessiond — session and policy management.
//!
//! Owns the runtime session table: one entry per attached UE, carrying its
//! bearer TEIDs, IP, effective policy, usage accounting, tiered-policy
//! state, and (for online-charged subscribers) the OCS credit bucket.
//! Compiles the session set into the data plane's desired state via
//! [`crate::pipelined`].

use magma_policy::{
    PolicyRule, RateLimit, SessionCredit, TieredState, UsageTracking,
};
use magma_sim::SimTime;
use magma_wire::{Imsi, Teid, UeIp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Radio access technology a session arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessTech {
    Lte,
    Nr5g,
    Wifi,
}

/// One active session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Session {
    /// Session cookie; also the data-plane rule cookie.
    pub id: u64,
    pub imsi: Imsi,
    pub tech: AccessTech,
    pub ue_ip: UeIp,
    /// Uplink TEID (RAN → AGW); unused for WiFi.
    pub ul_teid: Teid,
    /// Downlink TEID (AGW → RAN); unused for WiFi.
    pub dl_teid: Teid,
    /// Effective policy rule.
    pub rule: PolicyRule,
    /// Current rate limit (may change as tiered policies trigger).
    pub limit: Option<RateLimit>,
    pub tiered: Option<TieredState>,
    pub credit: Option<SessionCredit>,
    pub ul_bytes: u64,
    pub dl_bytes: u64,
    pub started: SimTime,
    /// Set when online credit is exhausted: traffic blocked until refill.
    pub blocked: bool,
}

/// What changed after applying usage — tells the caller whether the data
/// plane must be reprogrammed or the OCS consulted.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct UsageOutcome {
    /// Rate limit changed (tiered transition) — recompile data plane.
    pub limit_changed: bool,
    /// Session newly blocked (credit exhausted) — recompile data plane.
    pub blocked_changed: bool,
    /// Ask the OCS for another quota.
    pub wants_credit: bool,
}

/// The session table.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionManager {
    sessions: BTreeMap<u64, Session>,
    by_imsi: BTreeMap<Imsi, u64>,
    by_ul_teid: BTreeMap<Teid, u64>,
    next_id: u64,
    next_teid: u32,
    pub attaches: u64,
    pub detaches: u64,
}

impl SessionManager {
    pub fn new() -> Self {
        SessionManager {
            next_id: 1,
            next_teid: 1000,
            ..Default::default()
        }
    }

    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    pub fn get(&self, id: u64) -> Option<&Session> {
        self.sessions.get(&id)
    }

    pub fn get_mut(&mut self, id: u64) -> Option<&mut Session> {
        self.sessions.get_mut(&id)
    }

    pub fn by_imsi(&self, imsi: Imsi) -> Option<&Session> {
        self.by_imsi.get(&imsi).and_then(|id| self.sessions.get(id))
    }

    pub fn by_ul_teid(&self, teid: Teid) -> Option<&Session> {
        self.by_ul_teid
            .get(&teid)
            .and_then(|id| self.sessions.get(id))
    }

    pub fn iter(&self) -> impl Iterator<Item = &Session> {
        self.sessions.values()
    }

    /// Allocate a fresh TEID (AGW side).
    pub fn alloc_teid(&mut self) -> Teid {
        let t = Teid(self.next_teid);
        self.next_teid += 1;
        t
    }

    /// Create a session for an attached UE. `dl_teid` is the RAN-side
    /// TEID (0 until context setup completes for LTE). Returns the new
    /// session's id and the id of the session it replaced, if the IMSI
    /// already had one.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per field the attach procedure fixes for the session"
    )]
    pub fn create(
        &mut self,
        imsi: Imsi,
        tech: AccessTech,
        ue_ip: UeIp,
        ul_teid: Teid,
        dl_teid: Teid,
        rule: PolicyRule,
        now: SimTime,
    ) -> (u64, Option<u64>) {
        // A re-attach replaces the old session (crash-recovery model:
        // the UE reconnecting is the recovery path, §3.4).
        let replaced = self.by_imsi.get(&imsi).copied();
        if let Some(old) = replaced {
            self.remove(old);
        }
        let id = self.next_id;
        self.next_id += 1;
        let limit = rule.limit.or(rule.tiered.map(|t| t.normal));
        let tiered = rule.tiered.map(|t| TieredState::new(t, now));
        let session = Session {
            id,
            imsi,
            tech,
            ue_ip,
            ul_teid,
            dl_teid,
            rule,
            limit,
            tiered,
            credit: None,
            ul_bytes: 0,
            dl_bytes: 0,
            started: now,
            blocked: false,
        };
        self.by_imsi.insert(imsi, id);
        self.by_ul_teid.insert(ul_teid, id);
        self.sessions.insert(id, session);
        self.attaches += 1;
        (id, replaced)
    }

    /// Set the RAN-side downlink TEID once context setup answers.
    pub fn set_dl_teid(&mut self, id: u64, dl_teid: Teid) {
        if let Some(s) = self.sessions.get_mut(&id) {
            s.dl_teid = dl_teid;
        }
    }

    /// Attach an initial OCS credit grant.
    pub fn set_credit(&mut self, id: u64, granted: u64, is_final: bool) {
        if let Some(s) = self.sessions.get_mut(&id) {
            s.credit = Some(SessionCredit::new(granted, is_final));
            s.blocked = false;
        }
    }

    /// Absorb a refill grant.
    pub fn refill_credit(&mut self, id: u64, granted: u64, is_final: bool) {
        if let Some(s) = self.sessions.get_mut(&id) {
            match &mut s.credit {
                Some(c) => c.refill(granted, is_final),
                None => s.credit = Some(SessionCredit::new(granted, is_final)),
            }
            if s.credit.as_ref().map(|c| !c.exhausted()).unwrap_or(false) {
                s.blocked = false;
            }
        }
    }

    pub fn remove(&mut self, id: u64) -> Option<Session> {
        let s = self.sessions.remove(&id)?;
        self.by_imsi.remove(&s.imsi);
        self.by_ul_teid.remove(&s.ul_teid);
        self.detaches += 1;
        Some(s)
    }

    /// Record granted usage for a session; evaluates tiered policies and
    /// credit state.
    pub fn on_usage(&mut self, id: u64, now: SimTime, ul: u64, dl: u64) -> UsageOutcome {
        let mut out = UsageOutcome::default();
        let Some(s) = self.sessions.get_mut(&id) else {
            return out;
        };
        s.ul_bytes += ul;
        s.dl_bytes += dl;
        let total = ul + dl;
        if let Some(tiered) = &mut s.tiered {
            let new_limit = tiered.on_usage(now, total);
            if s.limit != Some(new_limit) {
                s.limit = Some(new_limit);
                out.limit_changed = true;
            }
        }
        if s.rule.tracking == UsageTracking::Online {
            if let Some(credit) = &mut s.credit {
                credit.consume(total);
                if credit.exhausted() && !s.blocked {
                    s.blocked = true;
                    out.blocked_changed = true;
                }
                if credit.needs_refill() {
                    out.wants_credit = true;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_policy::{PolicyRule, TieredPolicy};
    use magma_sim::SimDuration;

    fn imsi(n: u64) -> Imsi {
        Imsi::new(310, 26, n)
    }

    fn mgr_with_session(rule: PolicyRule) -> (SessionManager, u64) {
        let mut m = SessionManager::new();
        let ul = m.alloc_teid();
        let (id, replaced) = m.create(
            imsi(1),
            AccessTech::Lte,
            UeIp(10),
            ul,
            Teid(0),
            rule,
            SimTime::ZERO,
        );
        assert_eq!(replaced, None);
        (m, id)
    }

    #[test]
    fn create_indexes_and_reattach_replaces() {
        let (mut m, id) = mgr_with_session(PolicyRule::unrestricted("default"));
        assert_eq!(m.by_imsi(imsi(1)).unwrap().id, id);
        let ul = m.by_imsi(imsi(1)).unwrap().ul_teid;
        assert_eq!(m.by_ul_teid(ul).unwrap().id, id);
        // Re-attach.
        let ul2 = m.alloc_teid();
        let (id2, replaced) = m.create(
            imsi(1),
            AccessTech::Lte,
            UeIp(10),
            ul2,
            Teid(0),
            PolicyRule::unrestricted("default"),
            SimTime::from_secs(5),
        );
        assert_ne!(id, id2);
        assert_eq!(replaced, Some(id));
        assert_eq!(m.len(), 1, "old session replaced");
        assert!(m.by_ul_teid(ul).is_none(), "old TEID index cleaned");
    }

    #[test]
    fn usage_accumulates() {
        let (mut m, id) = mgr_with_session(PolicyRule::unrestricted("default"));
        let out = m.on_usage(id, SimTime::from_secs(1), 100, 200);
        assert_eq!(out, UsageOutcome::default());
        let s = m.get(id).unwrap();
        assert_eq!((s.ul_bytes, s.dl_bytes), (100, 200));
    }

    #[test]
    fn tiered_transition_flags_limit_change() {
        let rule = PolicyRule::tiered(
            "tier",
            TieredPolicy {
                normal: RateLimit {
                    dl_kbps: 10_000,
                    ul_kbps: 10_000,
                },
                cap_bytes: 1000,
                window: SimDuration::from_secs(3600),
                throttled: RateLimit {
                    dl_kbps: 100,
                    ul_kbps: 100,
                },
                penalty: SimDuration::from_secs(60),
            },
        );
        let (mut m, id) = mgr_with_session(rule);
        assert_eq!(m.get(id).unwrap().limit.unwrap().dl_kbps, 10_000);
        let out = m.on_usage(id, SimTime::from_secs(1), 2000, 0);
        assert!(out.limit_changed);
        assert_eq!(m.get(id).unwrap().limit.unwrap().dl_kbps, 100);
        // Further usage while throttled: no change flag.
        let out2 = m.on_usage(id, SimTime::from_secs(2), 10, 0);
        assert!(!out2.limit_changed);
    }

    #[test]
    fn online_credit_blocks_and_requests_refill() {
        let mut rule = PolicyRule::unrestricted("prepaid");
        rule.tracking = UsageTracking::Online;
        let (mut m, id) = mgr_with_session(rule);
        m.set_credit(id, 1000, false);
        let out = m.on_usage(id, SimTime::from_secs(1), 900, 0);
        assert!(out.wants_credit, "below refill threshold");
        assert!(!out.blocked_changed);
        let out2 = m.on_usage(id, SimTime::from_secs(2), 200, 0);
        assert!(out2.blocked_changed, "credit exhausted");
        assert!(m.get(id).unwrap().blocked);
        // Refill unblocks.
        m.refill_credit(id, 1000, true);
        assert!(!m.get(id).unwrap().blocked);
    }

    #[test]
    fn remove_cleans_indexes() {
        let (mut m, id) = mgr_with_session(PolicyRule::unrestricted("default"));
        let s = m.remove(id).unwrap();
        assert!(m.by_imsi(s.imsi).is_none());
        assert!(m.by_ul_teid(s.ul_teid).is_none());
        assert_eq!(m.detaches, 1);
        assert!(m.remove(id).is_none());
    }
}
