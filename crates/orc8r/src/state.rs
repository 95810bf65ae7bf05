//! Orchestrator state: the authoritative configuration store plus the
//! operational registries (device fleet, metrics, checkpoints, OCS).
//!
//! The state lives behind a shared handle ([`Orc8rHandle`]) so that the
//! **northbound API** — what an operator's NMS or the paper's "other
//! systems" consume (§3.2) — is directly callable by the test harness
//! while the [`Orc8rActor`](crate::actor::Orc8rActor) serves the
//! southbound RPC interface to gateways.

use crate::alerting::{AlertEngine, AlertRule, AlertTransition};
use crate::metrics::MetricsStore;
use crate::proto::CHECKIN_INTERVAL;
use magma_policy::{OcsServer, PolicyRule};
use magma_sim::{Severity, SimTime};
use magma_subscriber::{SubscriberDb, SubscriberProfile};
use magma_wire::Imsi;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Shared handle to the orchestrator state.
pub type Orc8rHandle = Rc<RefCell<Orc8rState>>;

pub fn new_orc8r(quota_bytes: u64) -> Orc8rHandle {
    Rc::new(RefCell::new(Orc8rState::new(quota_bytes)))
}

/// Device-management record for one gateway.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceRecord {
    pub registered: bool,
    /// Hardware token the current cert was issued against.
    pub hw_token: u64,
    pub cert: u64,
    pub last_checkin: Option<SimTime>,
    pub reported_version: u64,
    pub enbs: Vec<u32>,
    pub active_sessions: u64,
    pub checkins: u64,
}

/// A periodic sample of fleet-wide health (metricsd's aggregate view).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetSample {
    pub at: SimTime,
    pub gateways: usize,
    pub online: usize,
    pub enbs: usize,
    pub sessions: u64,
}

/// Rule name used for device-management offline alerts (the built-in
/// "missed 3 check-ins" episode, predating the declarative rules).
pub const OFFLINE_RULE: &str = "offline";

/// An operational alert raised by the orchestrator. One `Alert` spans a
/// whole episode: raised when its rule starts firing, stamped with
/// `resolved_at` when the breach clears. An episode that never clears
/// stays open (`resolved_at == None`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    pub at: SimTime,
    pub gateway: String,
    pub what: String,
    /// Name of the [`AlertRule`] (or [`OFFLINE_RULE`]) that raised it.
    #[serde(default)]
    pub rule: String,
    #[serde(default)]
    pub severity: Severity,
    /// When the episode resolved; `None` while still firing.
    #[serde(default)]
    pub resolved_at: Option<SimTime>,
}

impl Alert {
    pub fn is_open(&self) -> bool {
        self.resolved_at.is_none()
    }
}

/// A journal entry: every configuration mutation is appended, standing in
/// for the paper's durable Postgres store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    pub version: u64,
    pub what: String,
}

/// The orchestrator's state.
pub struct Orc8rState {
    /// Authoritative subscriber + policy store (configuration state).
    pub db: SubscriberDb,
    /// Online charging service.
    pub ocs: OcsServer,
    /// Device fleet (AGWs seen by the bootstrapper / check-in).
    pub devices: BTreeMap<String, DeviceRecord>,
    /// Best-effort telemetry: per-gateway metric counters from check-ins.
    pub metrics: BTreeMap<String, BTreeMap<String, f64>>,
    /// Typed telemetry pushed in-band by each gateway's `metricsd`:
    /// latest registry snapshot per gateway plus fleet-wide queries.
    pub metrics_store: MetricsStore,
    /// Latest uploaded runtime checkpoints, per gateway (§3.3 backup).
    pub checkpoints: BTreeMap<String, serde_json::Value>,
    /// Append-only configuration journal.
    pub journal: Vec<JournalEntry>,
    /// Periodic fleet-health samples (metricsd history).
    pub history: Vec<FleetSample>,
    /// Alert episodes, in raise order: device-offline alerts plus
    /// everything the declarative `alert_rules` fire.
    pub alerts: Vec<Alert>,
    /// Declarative threshold rules evaluated against `metrics_store`
    /// (empty by default — scenarios opt in).
    pub alert_rules: Vec<AlertRule>,
    /// Hysteresis state for `alert_rules`.
    pub alert_engine: AlertEngine,
    next_cert: u64,
}

impl Orc8rState {
    pub fn new(quota_bytes: u64) -> Self {
        Orc8rState {
            db: SubscriberDb::new(),
            ocs: OcsServer::new(quota_bytes),
            devices: BTreeMap::new(),
            metrics: BTreeMap::new(),
            metrics_store: MetricsStore::new(),
            checkpoints: BTreeMap::new(),
            journal: Vec::new(),
            history: Vec::new(),
            alerts: Vec::new(),
            alert_rules: Vec::new(),
            alert_engine: AlertEngine::new(),
            next_cert: 1000,
        }
    }

    // ---- Northbound API (operator-facing) ----

    /// Add or update a subscriber.
    pub fn upsert_subscriber(&mut self, profile: SubscriberProfile) {
        let imsi = profile.imsi;
        self.db.upsert(profile);
        self.log(format!("upsert_subscriber {imsi}"));
    }

    pub fn remove_subscriber(&mut self, imsi: Imsi) {
        self.db.remove(imsi);
        self.log(format!("remove_subscriber {imsi}"));
    }

    /// Define or update a network-wide policy rule.
    pub fn upsert_policy(&mut self, rule: PolicyRule) {
        let id = rule.id.clone();
        self.db.upsert_rule(rule);
        self.log(format!("upsert_policy {id}"));
    }

    /// Prepaid account provisioning.
    pub fn provision_balance(&mut self, imsi: Imsi, balance_bytes: u64) {
        self.ocs.provision(imsi, balance_bytes);
        self.log(format!("provision_balance {imsi} {balance_bytes}"));
    }

    /// Fleet summary for dashboards.
    pub fn fleet_summary(&self) -> (usize, usize, u64) {
        let gateways = self.devices.len();
        let enbs = self.devices.values().map(|d| d.enbs.len()).sum();
        let sessions = self.devices.values().map(|d| d.active_sessions).sum();
        (gateways, enbs, sessions)
    }

    /// Gateways considered offline: registered but silent for more than
    /// three check-in intervals (device management, §3.1: telemetry and
    /// monitoring as first-class responsibilities).
    pub fn offline_gateways(&self, now: SimTime) -> Vec<String> {
        let horizon = CHECKIN_INTERVAL * 3;
        self.devices
            .iter()
            .filter(|(_, d)| {
                d.registered
                    && d.last_checkin
                        .map(|t| now.since(t) > horizon)
                        .unwrap_or(true)
            })
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Take a fleet-health sample, maintain offline-alert episodes, and
    /// evaluate staleness alert rules (called by the orchestrator actor
    /// on its tick).
    pub fn sample_fleet(&mut self, now: SimTime) {
        let offline = self.offline_gateways(now);
        let (gateways, enbs, sessions) = self.fleet_summary();
        self.history.push(FleetSample {
            at: now,
            gateways,
            online: gateways - offline.len(),
            enbs,
            sessions,
        });
        // One alert per offline episode: open when a gateway goes
        // silent, resolve the open episode when it is heard from again.
        for gw in &offline {
            if !self.has_open_alert(gw, OFFLINE_RULE) {
                self.alerts.push(Alert {
                    at: now,
                    gateway: gw.clone(),
                    what: "gateway offline: missed 3 check-ins".to_string(),
                    rule: OFFLINE_RULE.to_string(),
                    severity: Severity::Critical,
                    resolved_at: None,
                });
            }
        }
        let back_online: Vec<String> = self
            .devices
            .keys()
            .filter(|gw| !offline.contains(gw))
            .cloned()
            .collect();
        for gw in back_online {
            self.resolve_alert(&gw, OFFLINE_RULE, now);
        }
        self.evaluate_staleness_rules(now);
    }

    // ---- Alerting over pushed telemetry ----

    /// Whether (gateway, rule) has an unresolved alert episode.
    pub fn has_open_alert(&self, gateway: &str, rule: &str) -> bool {
        self.alerts
            .iter()
            .any(|a| a.is_open() && a.gateway == gateway && a.rule == rule)
    }

    /// Alerts that are currently firing (unresolved episodes).
    pub fn firing_alerts(&self) -> Vec<&Alert> {
        self.alerts.iter().filter(|a| a.is_open()).collect()
    }

    /// All episodes (fired and resolved) of one rule, in raise order.
    pub fn alerts_for_rule(&self, rule: &str) -> Vec<&Alert> {
        self.alerts.iter().filter(|a| a.rule == rule).collect()
    }

    fn resolve_alert(&mut self, gateway: &str, rule: &str, at: SimTime) {
        for a in self.alerts.iter_mut() {
            if a.is_open() && a.gateway == gateway && a.rule == rule {
                a.resolved_at = Some(at);
            }
        }
    }

    fn apply_transitions(&mut self, transitions: Vec<AlertTransition>) {
        for t in transitions {
            if t.firing {
                if !self.has_open_alert(&t.gateway, &t.rule) {
                    self.alerts.push(Alert {
                        at: t.at,
                        gateway: t.gateway,
                        what: format!("{}: value {:.3} over threshold", t.rule, t.value),
                        rule: t.rule,
                        severity: t.severity,
                        resolved_at: None,
                    });
                }
            } else {
                self.resolve_alert(&t.gateway, &t.rule, t.at);
            }
        }
    }

    /// Evaluate gauge/rate/quantile rules for `gateway` after one of its
    /// pushes was accepted. `clock` is the gateway-side sample time, so
    /// queued pushes draining after a partition replay the episode with
    /// faithful timing.
    pub fn evaluate_alert_rules_on_ingest(&mut self, gateway: &str, clock: SimTime) {
        if self.alert_rules.is_empty() {
            return;
        }
        let transitions =
            self.alert_engine
                .on_ingest(&self.alert_rules, &self.metrics_store, gateway, clock);
        self.apply_transitions(transitions);
    }

    /// Evaluate staleness rules for every known gateway against the
    /// orchestrator clock.
    pub fn evaluate_staleness_rules(&mut self, now: SimTime) {
        if self.alert_rules.is_empty() {
            return;
        }
        let transitions = self
            .alert_engine
            .on_tick(&self.alert_rules, &self.metrics_store, now);
        self.apply_transitions(transitions);
    }

    /// Read a gateway-reported metric.
    pub fn gateway_metric(&self, agw_id: &str, name: &str) -> f64 {
        self.metrics
            .get(agw_id)
            .and_then(|m| m.get(name))
            .copied()
            .unwrap_or(0.0)
    }

    /// Northbound: per-gateway CPU%, from `metricsd` pushes.
    pub fn cpu_percent_by_gateway(&self) -> Vec<(String, f64)> {
        self.metrics_store.cpu_percent_by_gateway()
    }

    // ---- Southbound operations (called by the actor) ----

    /// Register a gateway and return its cert. A repeat from the same
    /// gateway with the same hardware token (the reconnect flush, or the
    /// gateway asking again after a deadline) gets the cert already
    /// issued, since an earlier answer may still be in flight and must
    /// stay valid; a different token mints a fresh cert.
    pub fn bootstrap(&mut self, agw_id: &str, hw_token: u64) -> u64 {
        let rec = self.devices.entry(agw_id.to_string()).or_default();
        if !rec.registered || rec.hw_token != hw_token {
            rec.registered = true;
            rec.hw_token = hw_token;
            rec.cert = self.next_cert;
            self.next_cert += 1;
        }
        rec.cert
    }

    /// Record a check-in; returns whether the gateway's cert is valid.
    #[expect(
        clippy::too_many_arguments,
        reason = "the argument list mirrors the check-in RPC message"
    )]
    pub fn record_checkin(
        &mut self,
        agw_id: &str,
        cert: u64,
        version: u64,
        enbs: Vec<u32>,
        sessions: u64,
        metrics: BTreeMap<String, f64>,
        now: SimTime,
    ) -> bool {
        let Some(rec) = self.devices.get_mut(agw_id) else {
            return false;
        };
        if !rec.registered || rec.cert != cert {
            return false;
        }
        rec.last_checkin = Some(now);
        rec.reported_version = version;
        rec.enbs = enbs;
        rec.active_sessions = sessions;
        rec.checkins += 1;
        self.metrics.insert(agw_id.to_string(), metrics);
        true
    }

    /// Store a gateway's checkpoint unless the one held was taken later;
    /// returns the tree not kept (the displaced one, or `state` itself).
    /// A re-sent upload can arrive after a newer one, and the stored
    /// checkpoint is what a standby restores from, so it never goes back
    /// in time. An equal `taken_at_us` replaces.
    pub fn store_checkpoint(&mut self, agw_id: &str, state: Value) -> Option<Value> {
        let taken_at = |cp: &Value| cp.get("taken_at_us").and_then(Value::as_u64);
        match self.checkpoints.get_mut(agw_id) {
            Some(held) if taken_at(held) > taken_at(&state) => Some(state),
            Some(held) => Some(std::mem::replace(held, state)),
            None => self.checkpoints.insert(agw_id.to_string(), state),
        }
    }

    fn log(&mut self, what: String) {
        self.journal.push(JournalEntry {
            version: self.db.version,
            what,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imsi(n: u64) -> Imsi {
        Imsi::new(310, 26, n)
    }

    #[test]
    fn northbound_mutations_journal_and_version() {
        let h = new_orc8r(1_000_000);
        let mut s = h.borrow_mut();
        s.upsert_subscriber(SubscriberProfile::lte(imsi(1), 7, 1));
        s.upsert_policy(PolicyRule::rate_limited("silver", 5000, 1000));
        assert_eq!(s.journal.len(), 2);
        assert_eq!(s.db.version, 2);
        assert!(s.journal[1].what.contains("silver"));
    }

    #[test]
    fn bootstrap_then_checkin() {
        let mut s = Orc8rState::new(1_000_000);
        let cert = s.bootstrap("agw-1", 99);
        assert!(s.record_checkin(
            "agw-1",
            cert,
            0,
            vec![880],
            12,
            BTreeMap::new(),
            SimTime::from_secs(1)
        ));
        // Wrong cert rejected.
        assert!(!s.record_checkin(
            "agw-1",
            cert + 1,
            0,
            vec![],
            0,
            BTreeMap::new(),
            SimTime::from_secs(2)
        ));
        // Unknown gateway rejected.
        assert!(!s.record_checkin(
            "ghost",
            cert,
            0,
            vec![],
            0,
            BTreeMap::new(),
            SimTime::from_secs(2)
        ));
        let (gws, enbs, sessions) = s.fleet_summary();
        assert_eq!((gws, enbs, sessions), (1, 1, 12));
    }

    #[test]
    fn bootstrap_retry_keeps_the_cert_and_a_new_token_mints_one() {
        let mut s = Orc8rState::new(1);
        let cert = s.bootstrap("agw-1", 7);
        assert_eq!(
            s.bootstrap("agw-1", 7),
            cert,
            "a retry gets the issued cert"
        );
        let fresh = s.bootstrap("agw-1", 8);
        assert_ne!(fresh, cert, "a different hardware token mints a fresh cert");
        assert_ne!(s.bootstrap("agw-2", 7), fresh, "certs are per gateway");
    }

    #[test]
    fn metrics_readable_by_name() {
        let mut s = Orc8rState::new(1);
        let cert = s.bootstrap("agw-1", 1);
        let m: BTreeMap<String, f64> = [("attach.ok".to_string(), 5.0)].into_iter().collect();
        s.record_checkin("agw-1", cert, 0, vec![], 0, m, SimTime::ZERO);
        assert_eq!(s.gateway_metric("agw-1", "attach.ok"), 5.0);
        assert_eq!(s.gateway_metric("agw-1", "missing"), 0.0);
    }

    #[test]
    fn checkpoints_stored_per_gateway() {
        let mut s = Orc8rState::new(1);
        s.store_checkpoint("agw-1", serde_json::json!({"sessions": 3}));
        assert!(s.checkpoints.contains_key("agw-1"));
    }

    #[test]
    fn an_older_checkpoint_is_refused_and_an_equal_one_replaces() {
        let mut s = Orc8rState::new(1);
        let cp = |at: u64, n: u64| serde_json::json!({"taken_at_us": at, "sessions": n});
        assert_eq!(s.store_checkpoint("agw-1", cp(5, 1)), None);
        assert_eq!(
            s.store_checkpoint("agw-1", cp(4, 2)),
            Some(cp(4, 2)),
            "older: refused"
        );
        assert_eq!(
            s.store_checkpoint("agw-1", cp(5, 3)),
            Some(cp(5, 1)),
            "equal: replaces"
        );
        assert_eq!(
            s.store_checkpoint("agw-1", cp(6, 4)),
            Some(cp(5, 3)),
            "newer: replaces"
        );
        assert_eq!(s.checkpoints["agw-1"], cp(6, 4));
    }
}
