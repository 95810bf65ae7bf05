//! Structured events: the `eventd` half of Magma's gateway telemetry.
//!
//! Metrics answer "how much / how fast"; events answer "what happened".
//! Magma's `eventd` service collects discrete, typed occurrences —
//! attach failures with their NAS cause codes, bearer teardowns,
//! service restarts — and ships them to the orchestrator where they
//! land in operator dashboards next to the metric time series.
//!
//! Here one bounded [`EventLog`] lives inside the simulation kernel
//! (reached via `Ctx::events()` / `World::events()`), shared by every
//! actor the same way the metric [`Registry`](crate::Registry) is. Each
//! event is stamped with a *per-gateway* monotonically increasing id,
//! the sim time, and the emitting gateway's namespace prefix (`agw0`,
//! `ran`). Ids are deliberately not kernel-global: a global counter
//! would interleave across racecheck components in kernel dispatch order,
//! which is a window-schedule artifact — magma-racecheck flags exactly
//! that kind of leak, and the northbound export carries the ids. A
//! gateway's `metricsd` drains *its own* events by cursor
//! ([`EventLog::since`]) and ships them in-band alongside metric
//! snapshots; events from prefixes nobody drains (the RAN emulator)
//! stay local, inspectable by the harness.
//!
//! The ring is bounded: when full, the oldest events are dropped and
//! counted, because a misbehaving service must not grow kernel memory
//! without bound — the same reason the metric registry caps instrument
//! cardinality.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

use crate::time::SimTime;

/// Well-known event kinds. Free-form strings are allowed — these
/// constants just keep emitters and tests in agreement.
pub mod kind {
    /// An attach procedure was rejected or timed out. Fields carry the
    /// EMM cause (`emm_cause` numeric, `cause` symbolic) and the IMSI.
    pub const ATTACH_FAILURE: &str = "attach_failure";
    /// An established bearer was torn down abnormally (e.g. the S1
    /// connection to the serving eNB was lost).
    pub const BEARER_DROP: &str = "bearer_drop";
    /// A service (actor) crashed.
    pub const SERVICE_CRASH: &str = "service_crash";
    /// A crashed service was restarted.
    pub const SERVICE_RESTART: &str = "service_restart";
    /// A gateway's control-plane RPC client (re)connected to orc8r.
    pub const ORC8R_CONNECTED: &str = "orc8r_connected";
    /// A gateway's control-plane RPC client lost its orc8r stream.
    pub const ORC8R_DISCONNECTED: &str = "orc8r_disconnected";
    /// The data plane shed bytes because a port backlog overflowed.
    pub const DATAPLANE_OVERLOAD: &str = "dataplane_overload";
    /// RAN-side: a UE lost an established session (context release).
    pub const SESSION_LOST: &str = "session_lost";
    /// RAN-side: a UE found no serving cell with capacity.
    pub const NO_SERVICE: &str = "no_service";
}

/// How urgently an operator should care. Shared by events and alerts.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(rename_all = "lowercase")]
pub enum Severity {
    #[default]
    Info,
    Warning,
    Critical,
}

/// One structured event, as emitted on a gateway and as delivered to
/// the orchestrator. `fields` is a `BTreeMap` so serialized events are
/// byte-stable across same-seed runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructuredEvent {
    /// Per-gateway monotonic id; the ship-by-cursor key. Scoped to the
    /// emitting gateway so two gateways in different racecheck components
    /// never race for the next id (the assignment order would depend on
    /// the kernel schedule, not the scenario).
    pub id: u64,
    /// Sim time at emission.
    pub at: SimTime,
    /// Namespace of the emitter (`agw0`, `ran`), matching the metric
    /// prefix convention.
    pub gateway: String,
    /// Event kind, ideally one of [`kind`]'s constants.
    pub kind: String,
    pub severity: Severity,
    /// Kind-specific payload (cause codes, IMSIs, counts) as strings.
    pub fields: BTreeMap<String, String>,
}

/// Default ring capacity: enough for minutes of failure storms without
/// letting a pathological scenario grow kernel memory unboundedly.
pub const DEFAULT_EVENT_CAP: usize = 4096;

/// A bounded ring of [`StructuredEvent`]s with per-gateway monotonic ids.
#[derive(Debug)]
pub struct EventLog {
    ring: VecDeque<StructuredEvent>,
    cap: usize,
    /// Next-id counter per gateway namespace (see [`StructuredEvent::id`]).
    next_id: BTreeMap<String, u64>,
    total: u64,
    dropped: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(DEFAULT_EVENT_CAP)
    }
}

impl EventLog {
    pub fn new(cap: usize) -> Self {
        EventLog {
            ring: VecDeque::new(),
            cap: cap.max(1),
            next_id: BTreeMap::new(),
            total: 0,
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest when the ring is full.
    /// Returns the assigned id (per gateway, ids start at 1 and never
    /// repeat).
    pub fn emit(
        &mut self,
        at: SimTime,
        gateway: &str,
        kind: &str,
        severity: Severity,
        fields: &[(&str, String)],
    ) -> u64 {
        let id = {
            let n = self.next_id.entry(gateway.to_string()).or_insert(0);
            *n += 1;
            *n
        };
        self.total += 1;
        let ev = StructuredEvent {
            id,
            at,
            gateway: gateway.to_string(),
            kind: kind.to_string(),
            severity,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
        id
    }

    /// Events for `gateway` with id strictly greater than `after_id`,
    /// oldest first, at most `max` of them. This is the metricsd drain
    /// cursor: ship the returned batch, remember the last id, repeat.
    pub fn since(&self, gateway: &str, after_id: u64, max: usize) -> Vec<StructuredEvent> {
        self.ring
            .iter()
            .filter(|e| e.id > after_id && e.gateway == gateway)
            .take(max)
            .cloned()
            .collect()
    }

    /// All retained events, oldest first (harness-side inspection).
    pub fn iter(&self) -> impl Iterator<Item = &StructuredEvent> {
        self.ring.iter()
    }

    /// Retained events currently in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever emitted, across all gateways.
    pub fn total_emitted(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_n(log: &mut EventLog, gw: &str, n: u64) {
        for i in 0..n {
            log.emit(
                SimTime(i),
                gw,
                kind::ATTACH_FAILURE,
                Severity::Warning,
                &[("i", i.to_string())],
            );
        }
    }

    #[test]
    fn ids_are_monotonic_and_ring_is_bounded() {
        let mut log = EventLog::new(4);
        emit_n(&mut log, "agw0", 6);
        assert_eq!(log.len(), 4);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.total_emitted(), 6);
        let ids: Vec<u64> = log.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![3, 4, 5, 6]);
    }

    #[test]
    fn since_filters_by_gateway_and_cursor() {
        let mut log = EventLog::new(16);
        emit_n(&mut log, "agw0", 3); // agw0 ids 1..=3
        emit_n(&mut log, "agw1", 2); // agw1 ids 1..=2 (its own sequence)
        emit_n(&mut log, "agw0", 2); // agw0 ids 4..=5

        let batch = log.since("agw0", 0, 10);
        assert_eq!(
            batch.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        // Cursor resumes after the last shipped id; `max` truncates.
        let batch = log.since("agw0", 3, 1);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 4);
        assert!(log.since("agw1", 2, 10).is_empty());
        // Id sequences are per gateway: interleaved emitters never
        // observe each other's counter (a kernel-global counter would
        // leak dispatch order into the northbound export).
        assert_eq!(
            log.since("agw1", 0, 10)
                .iter()
                .map(|e| e.id)
                .collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(log.total_emitted(), 7);
    }

    #[test]
    fn events_serialize_deterministically() {
        let mut log = EventLog::new(4);
        log.emit(
            SimTime(42),
            "agw0",
            kind::SERVICE_CRASH,
            Severity::Critical,
            &[("service", "mme".to_string()), ("b", "2".to_string())],
        );
        let ev = log.iter().next().unwrap().clone();
        let json = serde_json::to_string(&ev).unwrap();
        let back: StructuredEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
        // BTreeMap fields serialize in key order.
        assert!(json.find("\"b\"").unwrap() < json.find("\"service\"").unwrap());
        assert!(json.contains("\"severity\":\"critical\""));
    }
}
