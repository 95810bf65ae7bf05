//! Online charging (OCS) model — volume-based billing with quotas.
//!
//! §3.4: the OCS tracks a user's balance and authorizes small quotas of
//! data to Magma; whether a user *has* a quota is configuration state,
//! while the amount remaining is runtime state local to the serving AGW.
//! A malicious user moving between AGWs can double-spend at most one
//! quota per AGW — a bound this module makes explicit and the ablation
//! benchmark measures.

use magma_wire::Imsi;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Server-side account state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Account {
    pub balance_bytes: u64,
    /// Bytes handed out in not-yet-reconciled quotas.
    pub reserved_bytes: u64,
}

/// Outcome of a credit request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CreditAnswer {
    /// A quota was granted; `is_final` means the balance is exhausted
    /// after this quota.
    Granted { bytes: u64, is_final: bool },
    /// No balance left (or unknown subscriber).
    Denied,
}

/// One credit session as the OCS tells it apart: when its gateway
/// created it (µs of simulated time) and the gateway's id for it. The id
/// alone does not name a session for life, since a gateway restarted cold
/// numbers its sessions from 1 again and one restored from an older
/// checkpoint reuses the ids handed out after it. With the start time it
/// does: a subscriber starts no two sessions in the same microsecond.
/// Ordered by start time first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CreditSession {
    pub started_us: u64,
    pub id: u64,
}

/// What the OCS applied for one credit session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Applied {
    /// The last request number applied.
    number: u64,
    /// What a repeat of that request is answered.
    answer: CreditAnswer,
    /// Every byte granted to the session: what its report releases.
    granted: u64,
    /// The session's report was applied.
    ended: bool,
}

/// One subscriber's credit sessions.
#[derive(Debug, Default, Serialize, Deserialize)]
struct Ledger {
    sessions: BTreeMap<CreditSession, Applied>,
    /// The latest ended session dropped from `sessions`: a call from a
    /// session not held and started no later than this one is a repeat.
    forgotten_through: Option<CreditSession>,
}

/// The online charging server: tracks balances, grants quotas, reconciles
/// actual usage reported by AGWs.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct OcsServer {
    accounts: BTreeMap<Imsi, Account>,
    /// Quota handed out per grant.
    pub quota_bytes: u64,
    pub grants_issued: u64,
    pub denials: u64,
    /// Per subscriber, what was applied for each credit session. An ended
    /// session is dropped once a later session of its subscriber asks for
    /// credit, so a subscriber with one session at a time holds one entry,
    /// plus one per session a gateway lost before reporting it.
    ledgers: BTreeMap<Imsi, Ledger>,
}

impl OcsServer {
    pub fn new(quota_bytes: u64) -> Self {
        OcsServer {
            accounts: BTreeMap::new(),
            quota_bytes,
            grants_issued: 0,
            denials: 0,
            ledgers: BTreeMap::new(),
        }
    }

    pub fn provision(&mut self, imsi: Imsi, balance_bytes: u64) {
        self.accounts.insert(
            imsi,
            Account {
                balance_bytes,
                reserved_bytes: 0,
            },
        );
    }

    pub fn balance(&self, imsi: Imsi) -> Option<&Account> {
        self.accounts.get(&imsi)
    }

    /// An AGW (via sessiond) requests a quota for a session.
    pub fn request_credit(&mut self, imsi: Imsi) -> CreditAnswer {
        let Some(acct) = self.accounts.get_mut(&imsi) else {
            self.denials += 1;
            return CreditAnswer::Denied;
        };
        let available = acct.balance_bytes.saturating_sub(acct.reserved_bytes);
        if available == 0 {
            self.denials += 1;
            return CreditAnswer::Denied;
        }
        let grant = self.quota_bytes.min(available);
        acct.reserved_bytes += grant;
        self.grants_issued += 1;
        CreditAnswer::Granted {
            bytes: grant,
            is_final: grant == available,
        }
    }

    /// An AGW reports actual usage against an earlier grant (on quota
    /// exhaustion, session end, or periodic reconciliation).
    pub fn report_usage(&mut self, imsi: Imsi, used_bytes: u64, released_quota: u64) {
        if let Some(acct) = self.accounts.get_mut(&imsi) {
            // Deduct what was actually used; release the reservation.
            acct.balance_bytes = acct.balance_bytes.saturating_sub(used_bytes);
            acct.reserved_bytes = acct.reserved_bytes.saturating_sub(released_quota);
        }
    }

    /// A session's numbered credit request. Each credit request a gateway
    /// makes for a session carries a request number, as Diameter Gy's
    /// CC-Request-Number does (RFC 4006 §8.2). A number not above the last
    /// one applied is a repeat (the RPC reconnect flush, or the gateway
    /// asking again after a deadline): it gets the stored answer and
    /// reserves nothing. An ended session, or one older than a session its
    /// subscriber already ended and the OCS forgot, is denied.
    pub fn request_credit_once(
        &mut self,
        imsi: Imsi,
        session: CreditSession,
        number: u64,
    ) -> CreditAnswer {
        let ledger = self.ledgers.entry(imsi).or_default();
        match ledger.sessions.get(&session) {
            Some(last) if last.ended || number <= last.number => return last.answer,
            Some(_) => {}
            None if ledger.forgotten_through >= Some(session) => return CreditAnswer::Denied,
            None => {
                // A new session: its subscriber's older ended ones are done.
                let older: Vec<_> = ledger
                    .sessions
                    .range(..session)
                    .filter(|(_, a)| a.ended)
                    .map(|(k, _)| *k)
                    .collect();
                for k in older {
                    ledger.sessions.remove(&k);
                    ledger.forgotten_through = ledger.forgotten_through.max(Some(k));
                }
            }
        }
        let answer = self.request_credit(imsi);
        let granted = match answer {
            CreditAnswer::Granted { bytes, .. } => bytes,
            CreditAnswer::Denied => 0,
        };
        let sessions = &mut self.ledgers.entry(imsi).or_default().sessions;
        let before = sessions.get(&session).map_or(0, |a| a.granted);
        let applied = Applied {
            number,
            answer,
            granted: before + granted,
            ended: false,
        };
        sessions.insert(session, applied);
        answer
    }

    /// A session's usage report, which ends it: debited once, however
    /// often it arrives, and it releases every byte the OCS granted the
    /// session, a grant still on its way to the gateway included. A
    /// session the OCS granted nothing holds nothing to settle.
    pub fn report_usage_once(&mut self, imsi: Imsi, session: CreditSession, used_bytes: u64) {
        let last = self
            .ledgers
            .get_mut(&imsi)
            .and_then(|l| l.sessions.get_mut(&session));
        let Some(last) = last.filter(|last| !last.ended) else {
            return;
        };
        last.ended = true;
        last.answer = CreditAnswer::Denied;
        let granted = last.granted;
        self.report_usage(imsi, used_bytes, granted);
    }

    /// Upper bound on bytes an adversary could consume beyond their
    /// balance by racing quota grants across `n_agws` AGWs (§3.4: "the
    /// maximum amount of double-spend permitted is capped as a business
    /// decision by the quota size").
    pub fn double_spend_bound(&self, n_agws: u64) -> u64 {
        self.quota_bytes * n_agws.saturating_sub(1)
    }
}

/// Client-side (AGW sessiond) credit state for one session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCredit {
    pub granted: u64,
    pub used: u64,
    /// Request a refill when remaining falls below this fraction.
    pub refill_fraction: f64,
    /// No more quota will be granted (balance exhausted).
    pub is_final: bool,
    /// The request number (RFC 4006 §8.2) of the session's next credit
    /// request: one per answer absorbed, the first request (number 0)
    /// being answered by this credit's creation. A request that got no
    /// answer is asked again under its own number. Checkpointed with the
    /// session, so a restored standby continues the sequence.
    pub request_number: u64,
}

impl SessionCredit {
    pub fn new(granted: u64, is_final: bool) -> Self {
        SessionCredit {
            granted,
            used: 0,
            refill_fraction: 0.2,
            is_final,
            request_number: 1,
        }
    }

    pub fn remaining(&self) -> u64 {
        self.granted.saturating_sub(self.used)
    }

    /// Record usage; returns bytes actually chargeable (clamped at the
    /// grant — beyond it the session must block).
    pub fn consume(&mut self, bytes: u64) -> u64 {
        let allowed = bytes.min(self.remaining());
        self.used += allowed;
        allowed
    }

    /// Should the AGW request another quota now?
    pub fn needs_refill(&self) -> bool {
        !self.is_final
            && (self.remaining() as f64) < self.granted as f64 * self.refill_fraction
    }

    /// Is the session out of credit entirely?
    pub fn exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Absorb a refill grant: the answer to request `request_number`.
    pub fn refill(&mut self, bytes: u64, is_final: bool) {
        self.granted += bytes;
        self.is_final = is_final;
        self.request_number += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imsi() -> Imsi {
        Imsi::new(310, 26, 1)
    }

    #[test]
    fn grants_until_balance_exhausted() {
        let mut ocs = OcsServer::new(1_000_000); // 1 MB quotas
        ocs.provision(imsi(), 2_500_000); // 2.5 MB balance
        assert_eq!(
            ocs.request_credit(imsi()),
            CreditAnswer::Granted {
                bytes: 1_000_000,
                is_final: false
            }
        );
        assert_eq!(
            ocs.request_credit(imsi()),
            CreditAnswer::Granted {
                bytes: 1_000_000,
                is_final: false
            }
        );
        // Last 0.5 MB, marked final.
        assert_eq!(
            ocs.request_credit(imsi()),
            CreditAnswer::Granted {
                bytes: 500_000,
                is_final: true
            }
        );
        assert_eq!(ocs.request_credit(imsi()), CreditAnswer::Denied);
    }

    #[test]
    fn unknown_subscriber_denied() {
        let mut ocs = OcsServer::new(1_000_000);
        assert_eq!(ocs.request_credit(imsi()), CreditAnswer::Denied);
        assert_eq!(ocs.denials, 1);
    }

    #[test]
    fn usage_reporting_reconciles_balance() {
        let mut ocs = OcsServer::new(1_000_000);
        ocs.provision(imsi(), 2_000_000);
        let CreditAnswer::Granted { bytes, .. } = ocs.request_credit(imsi()) else {
            panic!()
        };
        // Session used only 300 kB of the 1 MB quota.
        ocs.report_usage(imsi(), 300_000, bytes);
        let acct = ocs.balance(imsi()).unwrap();
        assert_eq!(acct.balance_bytes, 1_700_000);
        assert_eq!(acct.reserved_bytes, 0);
    }

    fn session(started_us: u64, id: u64) -> CreditSession {
        CreditSession { started_us, id }
    }

    #[test]
    fn a_repeated_request_is_answered_from_the_store() {
        let mut ocs = OcsServer::new(1_000_000);
        ocs.provision(imsi(), 2_500_000);
        let first = ocs.request_credit_once(imsi(), session(5, 7), 0);
        assert_eq!(ocs.request_credit_once(imsi(), session(5, 7), 0), first, "repeat");
        assert_eq!(ocs.balance(imsi()).unwrap().reserved_bytes, 1_000_000);
        // Another session of the same subscriber numbers its own calls.
        ocs.request_credit_once(imsi(), session(6, 8), 0);
        ocs.request_credit_once(imsi(), session(5, 7), 1);
        assert_eq!(ocs.balance(imsi()).unwrap().reserved_bytes, 2_500_000);
        let last = CreditAnswer::Granted {
            bytes: 500_000,
            is_final: true,
        };
        assert_eq!(ocs.request_credit_once(imsi(), session(5, 7), 1), last);
        assert_eq!(
            ocs.request_credit_once(imsi(), session(5, 7), 0),
            last,
            "an older number"
        );
        assert_eq!(ocs.grants_issued, 3);
    }

    #[test]
    fn a_repeated_report_is_debited_once_and_ends_the_session() {
        let mut ocs = OcsServer::new(1_000_000);
        ocs.provision(imsi(), 2_000_000);
        ocs.request_credit_once(imsi(), session(5, 7), 0);
        for _ in 0..2 {
            ocs.report_usage_once(imsi(), session(5, 7), 300_000);
        }
        let acct = ocs.balance(imsi()).unwrap();
        assert_eq!((acct.balance_bytes, acct.reserved_bytes), (1_700_000, 0));
        let after = ocs.request_credit_once(imsi(), session(5, 7), 1);
        assert_eq!(after, CreditAnswer::Denied);
        assert_eq!(ocs.balance(imsi()).unwrap().reserved_bytes, 0);
    }

    #[test]
    fn a_report_releases_a_grant_the_gateway_has_not_taken_up() {
        let mut ocs = OcsServer::new(1_000_000);
        ocs.provision(imsi(), 5_000_000);
        ocs.request_credit_once(imsi(), session(5, 7), 0);
        // Request 1 is answered, but the session ends before the answer
        // reaches the gateway.
        ocs.request_credit_once(imsi(), session(5, 7), 1);
        ocs.report_usage_once(imsi(), session(5, 7), 900_000);
        let acct = ocs.balance(imsi()).unwrap();
        assert_eq!((acct.balance_bytes, acct.reserved_bytes), (4_100_000, 0));
    }

    #[test]
    fn a_reused_session_id_is_a_new_session() {
        let mut ocs = OcsServer::new(1_000_000);
        ocs.provision(imsi(), 5_000_000);
        ocs.request_credit_once(imsi(), session(5, 1), 0);
        ocs.report_usage_once(imsi(), session(5, 1), 0);
        // The gateway restarted cold and gave the subscriber id 1 again.
        let answer = ocs.request_credit_once(imsi(), session(90, 1), 0);
        assert!(matches!(answer, CreditAnswer::Granted { .. }));
        assert_eq!(ocs.balance(imsi()).unwrap().reserved_bytes, 1_000_000);
    }

    #[test]
    fn an_ended_session_is_forgotten_once_a_later_one_asks() {
        let mut ocs = OcsServer::new(1_000_000);
        ocs.provision(imsi(), 5_000_000);
        ocs.request_credit_once(imsi(), session(5, 1), 0);
        ocs.report_usage_once(imsi(), session(5, 1), 100_000);
        ocs.request_credit_once(imsi(), session(9, 2), 0);
        assert_eq!(ocs.ledgers[&imsi()].sessions.len(), 1);
        // Repeats of the forgotten session still change nothing.
        assert_eq!(
            ocs.request_credit_once(imsi(), session(5, 1), 0),
            CreditAnswer::Denied
        );
        ocs.report_usage_once(imsi(), session(5, 1), 100_000);
        let acct = ocs.balance(imsi()).unwrap();
        assert_eq!((acct.balance_bytes, acct.reserved_bytes), (4_900_000, 1_000_000));
    }

    #[test]
    fn session_credit_thresholds() {
        let mut c = SessionCredit::new(1_000_000, false);
        assert!(!c.needs_refill());
        assert_eq!(c.consume(850_000), 850_000);
        assert!(c.needs_refill(), "below 20% remaining");
        assert!(!c.exhausted());
        // Over-consumption clamps.
        assert_eq!(c.consume(500_000), 150_000);
        assert!(c.exhausted());
        c.refill(1_000_000, true);
        assert_eq!(c.remaining(), 1_000_000);
        assert!(!c.needs_refill(), "final grant never refills");
    }

    #[test]
    fn double_spend_bound_is_quota_times_extra_agws() {
        let ocs = OcsServer::new(1_000_000);
        assert_eq!(ocs.double_spend_bound(1), 0);
        assert_eq!(ocs.double_spend_bound(4), 3_000_000);
    }

    #[test]
    fn concurrent_reservations_cap_total_outstanding() {
        // The server-side reservation is what bounds double spend when a
        // user attaches at many AGWs at once.
        let mut ocs = OcsServer::new(1_000_000);
        ocs.provision(imsi(), 3_000_000);
        let mut granted = 0;
        // Simulate 10 AGWs racing for quotas without reporting usage.
        for _ in 0..10 {
            if let CreditAnswer::Granted { bytes, .. } = ocs.request_credit(imsi()) {
                granted += bytes;
            }
        }
        assert_eq!(granted, 3_000_000, "outstanding grants never exceed balance");
    }
}
