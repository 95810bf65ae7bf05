//! Message-flow contract for federation: the Diameter S6a exchange
//! between the FeG and the partner MNO's core.
//!
//! The AGW↔FeG RPC kinds (`FEG_AUTH`, `FEG_REPLY`) live in
//! `magma_orc8r::proto::flows` — that crate is the shared RPC contract
//! both agw and feg depend on. What's declared here is the southbound
//! Diameter leg, visible only to the FeG and the simulated MNO core.

use magma_sim::flow_dispatch;
use magma_sim::{DelayClass, FlowKind, Role};

/// Proxied S6a request (AIR/ULR): FeG → MNO HSS over the Diameter
/// stream. Outstanding requests are expired by the FeG's S6a tick, which
/// answers the waiting AGW with an error so its own RPC retry kicks in.
pub const FEG_S6A_REQUEST: FlowKind = FlowKind {
    name: "feg.s6a_request",
    sender: "feg",
    receiver: "feg.mno",
    class: DelayClass::Transport,
    role: Role::Request,
    retry: Some("feg.s6a_tick"),
};

/// S6a answer (AIA/ULA): MNO HSS → FeG, matched by hop-by-hop id.
pub const MNO_S6A_ANSWER: FlowKind = FlowKind {
    name: "feg.mno.s6a_answer",
    sender: "feg.mno",
    receiver: "feg",
    class: DelayClass::Transport,
    role: Role::Response,
    retry: None,
};

/// The FeG's S6a expiry tick: sweeps pending proxies that the MNO never
/// answered (armed only while requests are outstanding).
pub const FEG_S6A_TICK: FlowKind = FlowKind {
    name: "feg.s6a_tick",
    sender: "feg",
    receiver: "feg",
    class: DelayClass::Local,
    role: Role::Timer,
    retry: None,
};

flow_dispatch! {
    /// FeG ingress: socket events (both the server side toward AGWs and
    /// the Diameter client toward the MNO), the federated-auth RPC, S6a
    /// answers, and the expiry tick. Per-call state is keyed by
    /// hop-by-hop id / RPC call id, so same-timestamp events commute.
    pub const FEG_DISPATCH: actor = "feg",
    accepts = [
        magma_net::flows::SOCK_EVENT,
        magma_orc8r::proto::flows::FEG_AUTH,
        MNO_S6A_ANSWER,
        FEG_S6A_TICK,
    ],
    tie_break = Some("peer connection + hop-by-hop id / rpc call id; per-call state is disjoint"),
}

flow_dispatch! {
    /// MNO core ingress: socket events and proxied S6a requests. The HSS
    /// is stateless per request apart from the location registry, which
    /// is keyed by IMSI.
    pub const MNO_DISPATCH: actor = "feg.mno",
    accepts = [
        magma_net::flows::SOCK_EVENT,
        FEG_S6A_REQUEST,
    ],
    tie_break = Some("stream handle / hop-by-hop id (per-IMSI registry rows are independent)"),
}
