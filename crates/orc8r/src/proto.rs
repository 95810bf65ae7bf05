//! RPC message contracts between AGWs and the orchestrator.
//!
//! These are the simulation's "protobuf definitions": serde structs
//! carried as JSON by `magma-rpc`.

use magma_sim::SimDuration;
use magma_subscriber::DbSync;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How often a gateway checks in (§3.1). The orchestrator hands it out
/// in [`CheckinResponse::checkin_interval_s`] and counts a gateway
/// offline after three silent intervals.
pub const CHECKIN_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// How often a gateway's metricsd samples its registry and pushes the
/// snapshot. The orchestrator samples fleet health at the same cadence,
/// and staleness alerts count missed pushes in it.
pub const METRICS_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Method names on the orchestrator endpoint.
pub mod methods {
    /// Gateway registration (bootstrapper).
    pub const BOOTSTRAP: &str = "orc8r.Bootstrap";
    /// Periodic gateway check-in: state report + config pull.
    pub const CHECKIN: &str = "orc8r.Checkin";
    /// Runtime-state checkpoint upload (backup AGW instance, §3.3).
    pub const CHECKPOINT: &str = "orc8r.Checkpoint";
    /// Online charging: request a quota.
    pub const CREDIT_REQUEST: &str = "ocs.CreditRequest";
    /// Online charging: report usage / release reservation.
    pub const CREDIT_REPORT: &str = "ocs.CreditReport";
    /// Server-push frame method for subscriber/config sync.
    pub const PUSH_SUBSCRIBERS: &str = "sync.Subscribers";
    /// Federation: fetch auth vectors from the MNO HSS via the FeG.
    pub const FEG_AUTH: &str = "feg.AuthInfo";
    /// Federation: register the serving AGW with the MNO HSS.
    pub const FEG_UPDATE_LOCATION: &str = "feg.UpdateLocation";
    /// Telemetry: a gateway `metricsd` registry snapshot.
    pub const METRICS_PUSH: &str = "metricsd.Push";
}

/// Flow-kind declarations for every RPC edge on the orchestrator and
/// federation interfaces (see `magma_sim::flow` and the generated
/// `docs/MESSAGE_FLOW.md`). Kind names double as wire method names: each
/// request kind takes its name from [`methods`], so server-side match
/// arms and client-side calls can never drift apart.
///
/// All edges here are `Transport` class: they ride the RPC stream over
/// the modeled backhaul. Request kinds name the client tick timer that
/// expires their deadlines and reconnects for them (`RpcClient::on_tick`),
/// which rule F004 (`magma_sim::flow::check`) checks against the
/// declared timer kinds.
pub mod flows {
    use super::methods;
    use magma_sim::{DelayClass, FlowKind, Role};

    /// Gateway registration (bootstrapper).
    pub const BOOTSTRAP: FlowKind = FlowKind {
        name: methods::BOOTSTRAP,
        sender: "agw",
        receiver: "orc8r",
        class: DelayClass::Transport,
        role: Role::Request,
        retry: Some("agw.rpc_tick"),
    };
    /// Periodic gateway check-in: state report + config pull.
    pub const CHECKIN: FlowKind = FlowKind {
        name: methods::CHECKIN,
        sender: "agw",
        receiver: "orc8r",
        class: DelayClass::Transport,
        role: Role::Request,
        retry: Some("agw.rpc_tick"),
    };
    /// Runtime-state checkpoint upload (backup AGW instance, §3.3).
    pub const CHECKPOINT: FlowKind = FlowKind {
        name: methods::CHECKPOINT,
        sender: "agw",
        receiver: "orc8r",
        class: DelayClass::Transport,
        role: Role::Request,
        retry: Some("agw.rpc_tick"),
    };
    /// Online charging: request a quota.
    pub const CREDIT_REQUEST: FlowKind = FlowKind {
        name: methods::CREDIT_REQUEST,
        sender: "agw",
        receiver: "orc8r",
        class: DelayClass::Transport,
        role: Role::Request,
        retry: Some("agw.rpc_tick"),
    };
    /// Online charging: report usage / release reservation.
    pub const CREDIT_REPORT: FlowKind = FlowKind {
        name: methods::CREDIT_REPORT,
        sender: "agw",
        receiver: "orc8r",
        class: DelayClass::Transport,
        role: Role::Request,
        retry: Some("agw.rpc_tick"),
    };
    /// Telemetry: a gateway `metricsd` registry snapshot.
    pub const METRICS_PUSH: FlowKind = FlowKind {
        name: methods::METRICS_PUSH,
        sender: "agw.metricsd",
        receiver: "orc8r",
        class: DelayClass::Transport,
        role: Role::Request,
        retry: Some("agw.metricsd.rpc_tick"),
    };
    /// Server-push frame for subscriber/config sync (desired state flows
    /// downhill unprompted; delivery is best-effort per connection). The
    /// body is a [`DbSync`](magma_subscriber::DbSync).
    pub const PUSH_SUBSCRIBERS: FlowKind = FlowKind {
        name: methods::PUSH_SUBSCRIBERS,
        sender: "orc8r",
        receiver: "agw",
        class: DelayClass::Transport,
        role: Role::Data,
        retry: None,
    };
    /// Any unary response from the orchestrator (success or error). One
    /// kind covers all reply bodies: the response edge is demand-bounded
    /// 1:1 against its request, whatever the payload.
    pub const ORC8R_REPLY: FlowKind = FlowKind {
        name: "orc8r.reply",
        sender: "orc8r",
        receiver: "*",
        class: DelayClass::Transport,
        role: Role::Response,
        retry: None,
    };
    /// Federation: fetch auth vectors from the MNO HSS via the FeG.
    pub const FEG_AUTH: FlowKind = FlowKind {
        name: methods::FEG_AUTH,
        sender: "agw",
        receiver: "feg",
        class: DelayClass::Transport,
        role: Role::Request,
        retry: Some("agw.rpc_tick"),
    };
    /// Any unary response from the federation gateway.
    pub const FEG_REPLY: FlowKind = FlowKind {
        name: "feg.reply",
        sender: "feg",
        receiver: "agw",
        class: DelayClass::Transport,
        role: Role::Response,
        retry: None,
    };
}

/// Federation: authentication-information request (proxied S6a AIR).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FegAuthRequest {
    pub imsi: u64,
}

/// One auth vector as carried over the federation RPC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FegVector {
    pub rand: magma_wire::aka::Rand,
    pub autn: magma_wire::aka::Autn,
    pub xres: magma_wire::aka::Res,
    pub kasme: magma_wire::aka::Kasme,
}

/// Federation: authentication-information answer (proxied S6a AIA).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FegAuthResponse {
    pub vectors: Vec<FegVector>,
}

/// Federation: update-location request (proxied S6a ULR).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FegLocationRequest {
    pub imsi: u64,
    pub agw_id: String,
}

/// Federation: update-location answer (proxied S6a ULA).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FegLocationResponse {
    pub ok: bool,
    pub ambr_dl_kbps: u32,
    pub ambr_ul_kbps: u32,
}

/// Gateway registration request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BootstrapRequest {
    pub agw_id: String,
    /// Hardware-bound identity token (stands in for the challenge-signed
    /// key of the real bootstrapper).
    pub hw_token: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BootstrapResponse {
    /// Session certificate the gateway presents on later calls.
    pub cert: u64,
}

/// Periodic check-in: the gateway reports its state and asks whether its
/// replicated configuration is current.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckinRequest {
    pub agw_id: String,
    pub cert: u64,
    /// Version of the gateway's subscriber/config replica.
    pub db_version: u64,
    /// Connected RAN equipment (device management, §3.1).
    pub enbs: Vec<u32>,
    pub active_sessions: u64,
    /// Gateway-local metric counters (telemetry, best-effort).
    pub metrics: BTreeMap<String, f64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckinResponse {
    /// Latest config version at the orchestrator.
    pub latest_version: u64,
    /// What brings a stale replica to `latest_version` (desired-state
    /// model): the rows that changed when the reported version is still
    /// in the orchestrator's change log, the complete state otherwise.
    pub sync: Option<DbSync>,
    /// Seconds until the next expected check-in.
    pub checkin_interval_s: u64,
}

/// Runtime-state checkpoint upload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointPush {
    pub agw_id: String,
    /// Opaque serialized AGW runtime state: sessions, IP leases, cert and
    /// SQN marks (`magma_agw::checkpoint`). Configuration is not in it —
    /// the orchestrator is that data's source.
    pub state: serde_json::Value,
}

/// A [`CheckpointPush`] the sender streams from state it only borrows:
/// the same JSON, without cloning the id or building the state's tree.
/// Written by hand because the derive takes no lifetimes or type
/// parameters; the orchestrator reads it back as a `CheckpointPush`.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPushRef<'a, S> {
    pub agw_id: &'a str,
    pub state: &'a S,
}

impl<S: Serialize> Serialize for CheckpointPushRef<'_, S> {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"agw_id\":");
        self.agw_id.write_json(out);
        out.push_str(",\"state\":");
        self.state.write_json(out);
        out.push('}');
    }
}

/// OCS quota request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CreditRequest {
    pub imsi: u64,
    pub session_id: u64,
    /// When the gateway created the session: with `session_id`, names
    /// the session for life (`magma_policy::CreditSession`).
    pub session_started_us: u64,
    /// The session's CC-Request-Number (RFC 4006 §8.2): a request whose
    /// number is not above the last one applied is a repeat, answered
    /// from what the OCS stored.
    pub request_number: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CreditResponse {
    pub granted: u64,
    pub is_final: bool,
    pub denied: bool,
}

/// OCS usage report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CreditReport {
    pub imsi: u64,
    pub session_id: u64,
    pub session_started_us: u64,
    /// The report ends the session: the OCS debits it once and releases
    /// every byte it granted the session.
    pub used_bytes: u64,
}

/// Telemetry push: one registry snapshot sampled by a gateway's
/// `metricsd`. Pushes ride the same RPC stream as everything else, so
/// they consume modeled backhaul bandwidth and queue across partitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsPush {
    pub agw_id: String,
    /// Monotonic per-gateway sequence number, starting at 1; lets the
    /// orchestrator drop snapshots the reconnect flush redelivers.
    pub seq: u64,
    /// Sim time (µs) the snapshot was taken on the gateway.
    pub taken_at_us: u64,
    pub snapshot: magma_sim::RegistrySnapshot,
    /// Structured events (`eventd`) emitted on the gateway since the
    /// previous push — shipped in-band with the snapshot and deduped by
    /// the same `seq`, so a re-sent push never double-delivers events.
    #[serde(default)]
    pub events: Vec<magma_sim::StructuredEvent>,
}

/// Acknowledgement for a [`MetricsPush`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsAck {
    /// False when the push was a duplicate (already-seen sequence).
    pub accepted: bool,
    /// Highest sequence the orchestrator has stored for this gateway.
    pub last_seq: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkin_roundtrips_via_json() {
        let req = CheckinRequest {
            agw_id: "agw-1".into(),
            cert: 42,
            db_version: 7,
            enbs: vec![1, 2, 3],
            active_sessions: 96,
            metrics: [("attach.ok".to_string(), 12.0)].into_iter().collect(),
        };
        let v = serde_json::to_value(&req).unwrap();
        let back: CheckinRequest = serde_json::from_value(v).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn metrics_push_roundtrips_via_json() {
        let mut reg = magma_sim::Registry::new();
        reg.counter_add("agw0.mme.attach_accept", 3.0);
        reg.gauge_set("agw0.cpu.percent", 42.5);
        reg.observe("agw0.mme.attach.total_s", 0.21);
        let mut events = magma_sim::EventLog::new(8);
        events.emit(
            magma_sim::SimTime(4_000_000),
            "agw0",
            magma_sim::eventd::kind::ATTACH_FAILURE,
            magma_sim::Severity::Warning,
            &[("emm_cause", "22".to_string())],
        );
        let push = MetricsPush {
            agw_id: "agw0".into(),
            seq: 1,
            taken_at_us: 5_000_000,
            snapshot: reg.snapshot_prefixed("agw0"),
            events: events.since("agw0", 0, 64),
        };
        let v = serde_json::to_value(&push).unwrap();
        let back: MetricsPush = serde_json::from_value(v).unwrap();
        assert_eq!(back, push);
        // Pushes predating the events field still decode (empty batch).
        let mut v = serde_json::to_value(&push).unwrap();
        v.as_object_mut().unwrap().remove("events");
        let old: MetricsPush = serde_json::from_value(v).unwrap();
        assert!(old.events.is_empty());
        // An empty histogram must also survive the trip (min/max are 0.0,
        // never ±inf, which JSON cannot carry).
        let empty = magma_sim::BucketHistogram::default();
        let v = serde_json::to_value(&empty).unwrap();
        assert_eq!(
            serde_json::from_value::<magma_sim::BucketHistogram>(v).unwrap(),
            empty
        );
    }

    #[test]
    fn credit_response_roundtrip() {
        let r = CreditResponse {
            granted: 1_000_000,
            is_final: true,
            denied: false,
        };
        let v = serde_json::to_value(&r).unwrap();
        assert_eq!(serde_json::from_value::<CreditResponse>(v).unwrap(), r);
    }
}
