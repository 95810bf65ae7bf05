//! Flow kinds local to the traditional-EPC baseline core.
//!
//! The baseline serves the AGW-role interfaces (it listens on the S1AP
//! port as the MME), so its dispatch actor is `agw.epc_baseline` — the
//! `agw.`-prefix makes the receiver-side matching of the shared ingress
//! kinds in [`magma_agw::flows`] explicit. The cross-host GTP-U echo
//! kinds live in the AGW crate too (the eNodeB cannot depend on this
//! crate); only the echo cadence self-edge is declared here.

use magma_sim::flow_dispatch;
use magma_sim::{DelayClass, FlowKind, Role};

/// GTP-U path-management cadence: drives periodic echoes and the T3
/// retransmit schedule (the retry edge behind
/// [`magma_agw::flows::EPC_GTPU_ECHO`]).
pub const EPC_ECHO_TICK: FlowKind = FlowKind {
    name: "agw.epc_baseline.echo_tick",
    sender: "agw.epc_baseline",
    receiver: "agw.epc_baseline",
    class: DelayClass::Local,
    role: Role::Timer,
    retry: None,
};

flow_dispatch! {
    /// Baseline-core ingress: the same access-side surface as the AGW
    /// (S1AP uplink, fluid demands) plus GTP-U echo replies and the echo
    /// cadence tick.
    pub const EPC_DISPATCH: actor = "agw.epc_baseline",
    accepts = [
        magma_net::flows::SOCK_EVENT,
        magma_agw::flows::RAN_S1AP_UL,
        magma_agw::flows::FLUID_DEMAND,
        magma_agw::flows::ENB_GTPU_ECHO_REPLY,
        EPC_ECHO_TICK,
    ],
    tie_break = Some("stream handle / mme_ue_id; per-UE state is disjoint"),
}
