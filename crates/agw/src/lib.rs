//! # magma-agw — the Magma Access Gateway
//!
//! The paper's central artifact (§3): a gateway co-located with RAN
//! equipment that terminates the radio-specific protocols (S1AP/NAS for
//! 4G, NGAP for 5G, RADIUS for WiFi) as close to the radio as possible
//! and maps them onto generic, access-technology-independent functions:
//!
//! | module | generic function | 4G / 5G / WiFi analog |
//! |---|---|---|
//! | [`actor`] (MME/AMF/AAA front) | access control & management | MME / AMF / RADIUS AAA |
//! | local [`magma_subscriber::SubscriberDb`] replica | subscriber management | HSS / UDM+AUSF / AAA |
//! | [`sessiond`] | session & policy management | MME+PCRF / SMF+PCF / AAA |
//! | [`pipelined`] | data-plane configuration | SGW+PGW / SMF / AP config |
//! | [`magma_dataplane::Pipeline`] | data plane | SGW+PGW / UPF / AP |
//! | [`checkpoint`] + check-in | device management & telemetry | (no 3GPP equivalent) |
//! | [`metricsd`] | telemetry export to the orchestrator | (Magma's metricsd/eventd) |
//!
//! An AGW is a small fault domain: it holds the runtime state for the
//! UEs behind its few eNodeBs, checkpoints that state for a backup
//! instance, and keeps admitting UEs while disconnected from the
//! orchestrator (headless operation).

pub mod actor;
pub mod checkpoint;
pub mod config;
pub mod flows;
pub mod metricsd;
pub mod mobilityd;
pub mod msgs;
pub mod pipelined;
pub mod sessiond;

/// The dispatch surfaces this crate declares (see `magma_sim::flow`).
pub const DISPATCHES: &[&magma_sim::Dispatch] = &[&flows::AGW_DISPATCH, &flows::METRICSD_DISPATCH];

pub use actor::AgwActor;
pub use checkpoint::AgwCheckpoint;
pub use config::{AgwConfig, CpuProfile};
pub use metricsd::MetricsdActor;
pub use mobilityd::IpPool;
pub use msgs::{new_agw_handle, AgwHandle, AgwShared, FluidDemand, FluidGrant, FLUID_TICK};
pub use sessiond::{AccessTech, Session, SessionManager, UsageOutcome};
