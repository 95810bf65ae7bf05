//! Message-flow contract for the AGW's access-side interfaces.
//!
//! The AGW terminates the radio-specific protocols, so it owns the
//! ingress contract for everything a RAN node (eNodeB, WiFi AP) or the
//! EPC baseline sends at it: S1AP uplink, RADIUS, fluid demand reports,
//! and the GTP-U path-management echo exchange. The kinds live here —
//! rather than in `magma-ran` — because the dependency arrow points from
//! `ran`/`epc-baseline` *to* `agw`, and the contract must be visible to
//! both ends of each edge.
//!
//! The surfaces here join the workspace message-flow graph through
//! [`crate::DISPATCHES`] (see `magma_sim::flow` and
//! docs/MESSAGE_FLOW.md).

use magma_sim::flow_dispatch;
use magma_sim::{DelayClass, FlowKind, Role};

/// S1AP uplink: eNodeB → AGW initial/uplink NAS transport. Attach is
/// retried from the eNodeB side on a UE attach timeout.
pub const RAN_S1AP_UL: FlowKind = FlowKind {
    name: "ran.s1ap_ul",
    sender: "ran.enb",
    receiver: "agw",
    class: DelayClass::Transport,
    role: Role::Request,
    retry: Some("ran.enb.attach_timeout"),
};

/// S1AP downlink: AGW → eNodeB NAS transport / attach accept.
pub const AGW_S1AP_DL: FlowKind = FlowKind {
    name: "agw.s1ap_dl",
    sender: "agw",
    receiver: "ran.enb",
    class: DelayClass::Transport,
    role: Role::Response,
    retry: None,
};

/// RADIUS Access-Request: WiFi AP → AGW AAA. The AP retransmits on its
/// auth tick until an Access-Accept/Reject arrives.
pub const WIFI_RADIUS_AUTH: FlowKind = FlowKind {
    name: "ran.wifi.radius_auth",
    sender: "ran.wifi",
    receiver: "agw",
    class: DelayClass::Transport,
    role: Role::Request,
    retry: Some("ran.wifi.auth_tick"),
};

/// RADIUS Accounting (Stop): WiFi AP → AGW, fire-and-forget usage report.
pub const WIFI_RADIUS_ACCT: FlowKind = FlowKind {
    name: "ran.wifi.radius_acct",
    sender: "ran.wifi",
    receiver: "agw",
    class: DelayClass::Transport,
    role: Role::Data,
    retry: None,
};

/// RADIUS reply (Access-Accept/Reject): AGW → WiFi AP.
pub const AGW_RADIUS_REPLY: FlowKind = FlowKind {
    name: "agw.radius_reply",
    sender: "agw",
    receiver: "ran.wifi",
    class: DelayClass::Transport,
    role: Role::Response,
    retry: None,
};

/// Fluid uplink demand report: RAN scheduler → AGW, same-host zero-delay
/// message (the fluid model runs co-located with the gateway).
pub const FLUID_DEMAND: FlowKind = FlowKind {
    name: "ran.fluid_demand",
    sender: "ran",
    receiver: "agw",
    class: DelayClass::Zero,
    role: Role::Data,
    retry: None,
};

/// Fluid grant: AGW → RAN answer to a demand report (same host,
/// zero-delay). Response-role: bounded by outstanding demands.
pub const FLUID_GRANT: FlowKind = FlowKind {
    name: "agw.fluid_grant",
    sender: "agw",
    receiver: "ran",
    class: DelayClass::Zero,
    role: Role::Response,
    retry: None,
};

/// GTP-U path-management echo request: EPC baseline → eNodeB. Re-sent on
/// the baseline's echo tick until answered (3GPP path management).
pub const EPC_GTPU_ECHO: FlowKind = FlowKind {
    name: "agw.epc_baseline.gtpu_echo",
    sender: "agw.epc_baseline",
    receiver: "ran.enb",
    class: DelayClass::Transport,
    role: Role::Request,
    retry: Some("agw.epc_baseline.echo_tick"),
};

/// GTP-U echo response: eNodeB → EPC baseline.
pub const ENB_GTPU_ECHO_REPLY: FlowKind = FlowKind {
    name: "ran.enb.gtpu_echo_reply",
    sender: "ran.enb",
    receiver: "agw.epc_baseline",
    class: DelayClass::Transport,
    role: Role::Response,
    retry: None,
};

/// The AGW's northbound RPC deadline/reconnect tick (drives every
/// orchestrator/FeG client in [`crate::actor::AgwActor`]; it never
/// re-sends a call on an open stream).
pub const AGW_RPC_TICK: FlowKind = FlowKind {
    name: "agw.rpc_tick",
    sender: "agw",
    receiver: "agw",
    class: DelayClass::Local,
    role: Role::Timer,
    retry: None,
};

/// metricsd's RPC deadline/reconnect tick (its own client, its own cadence).
pub const METRICSD_RPC_TICK: FlowKind = FlowKind {
    name: "agw.metricsd.rpc_tick",
    sender: "agw.metricsd",
    receiver: "agw.metricsd",
    class: DelayClass::Local,
    role: Role::Timer,
    retry: None,
};

flow_dispatch! {
    /// The AGW's full ingress surface. Same-timestamp events commute:
    /// attach/NAS state is per-UE (keyed by enb_ue_id / IMSI), RADIUS
    /// state is per-station, RPC client state is per-(sender connection,
    /// call-id) — replies from orc8r and the FeG land on disjoint
    /// connections — and fluid demand aggregation folds commutatively
    /// over reporters.
    pub const AGW_DISPATCH: actor = "agw",
    accepts = [
        magma_net::flows::SOCK_EVENT,
        RAN_S1AP_UL,
        WIFI_RADIUS_AUTH,
        WIFI_RADIUS_ACCT,
        FLUID_DEMAND,
        magma_orc8r::proto::flows::ORC8R_REPLY,
        magma_orc8r::proto::flows::PUSH_SUBSCRIBERS,
        magma_orc8r::proto::flows::FEG_REPLY,
        AGW_RPC_TICK,
    ],
    tie_break = Some("UE slot (enb_ue_id/IMSI), RADIUS station, or sender connection + RPC call id — per-key state is disjoint"),
}

flow_dispatch! {
    /// metricsd's ingress: socket events for its private orc8r
    /// connection plus its retry tick. A single upstream FIFO — pushes
    /// are sequenced by `seq`, so ordering within the connection is the
    /// only constraint.
    pub const METRICSD_DISPATCH: actor = "agw.metricsd",
    accepts = [
        magma_net::flows::SOCK_EVENT,
        magma_orc8r::proto::flows::ORC8R_REPLY,
        METRICSD_RPC_TICK,
    ],
    tie_break = Some("single upstream connection; pushes carry a seq and replay in order"),
}
