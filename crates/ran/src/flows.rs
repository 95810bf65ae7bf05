//! RAN-local flow kinds: the self-edges (retry timers) behind the
//! access-side request kinds declared in [`magma_agw::flows`].
//!
//! The cross-host contract (S1AP, RADIUS, fluid, GTP-U echo) lives in
//! the AGW crate because the dependency arrow points ran → agw; what
//! remains here are the eNodeB/AP timer kinds those requests name as
//! their retry edges, plus each RAN actor's dispatch surface.

use magma_sim::flow_dispatch;
use magma_sim::{DelayClass, FlowKind, Role};

/// Per-UE attach timeout on the eNodeB: re-drives the attach state
/// machine when the AGW hasn't answered (the retry edge behind
/// [`magma_agw::flows::RAN_S1AP_UL`]).
pub const ENB_ATTACH_TIMEOUT: FlowKind = FlowKind {
    name: "ran.enb.attach_timeout",
    sender: "ran.enb",
    receiver: "ran.enb",
    class: DelayClass::Local,
    role: Role::Timer,
    retry: None,
};

/// WiFi AP auth retry tick: re-sends the RADIUS Access-Request until an
/// Access-Accept arrives (the retry edge behind
/// [`magma_agw::flows::WIFI_RADIUS_AUTH`]).
pub const WIFI_AUTH_TICK: FlowKind = FlowKind {
    name: "ran.wifi.auth_tick",
    sender: "ran.wifi",
    receiver: "ran.wifi",
    class: DelayClass::Local,
    role: Role::Timer,
    retry: None,
};

flow_dispatch! {
    /// eNodeB ingress: socket events plus the AGW's S1AP downlink, fluid
    /// grants, GTP-U echoes from the EPC baseline, and the attach
    /// timeout. Same-timestamp events commute across UE slots.
    pub const ENB_DISPATCH: actor = "ran.enb",
    accepts = [
        magma_net::flows::SOCK_EVENT,
        magma_agw::flows::AGW_S1AP_DL,
        magma_agw::flows::FLUID_GRANT,
        magma_agw::flows::EPC_GTPU_ECHO,
        ENB_ATTACH_TIMEOUT,
    ],
    tie_break = Some("ue slot index (enb_ue_id); slots are independent"),
}

flow_dispatch! {
    /// WiFi AP ingress: socket events (RADIUS replies arrive as
    /// datagrams), fluid grants, and the auth retry tick.
    pub const WIFI_DISPATCH: actor = "ran.wifi",
    accepts = [
        magma_net::flows::SOCK_EVENT,
        magma_agw::flows::AGW_RADIUS_REPLY,
        magma_agw::flows::FLUID_GRANT,
        WIFI_AUTH_TICK,
    ],
    tie_break = Some("station / acct session id; per-session state is disjoint"),
}
