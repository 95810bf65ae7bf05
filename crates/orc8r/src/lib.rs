//! # magma-orc8r — the Magma orchestrator
//!
//! The central point of control (§3.2): authoritative configuration state
//! (subscribers, policies) in a journaled store, a northbound API for
//! operators, and a southbound gRPC-analog interface that gateways check
//! in to. Configuration flows to gateways with the desired-state model:
//! a stale gateway is brought to the intended state, not told what was
//! done to it — as the rows that changed when its replica's version is
//! known and in the change log, as the complete state otherwise — so
//! lost messages and restarts self-heal (§3.4). Also hosts device
//! management, best-effort telemetry aggregation, gateway bootstrap, the
//! online charging service, and uploaded runtime checkpoints.

pub mod actor;
pub mod alerting;
pub mod metrics;
pub mod proto;
pub mod state;

/// The dispatch surfaces this crate declares (see `magma_sim::flow`).
pub const DISPATCHES: &[&magma_sim::Dispatch] = &[&actor::ORC8R_DISPATCH];

pub use actor::Orc8rActor;
pub use alerting::{AlertEngine, AlertMetric, AlertRule, AlertTransition};
pub use metrics::{
    GatewayMetrics, MetricsStore, ScalarSample, EVENTS_CAP, HISTORY_CAP, WINDOW_10M, WINDOW_1M,
};
pub use proto::*;
pub use state::{
    new_orc8r, Alert, DeviceRecord, FleetSample, JournalEntry, Orc8rHandle, Orc8rState,
    OFFLINE_RULE,
};
