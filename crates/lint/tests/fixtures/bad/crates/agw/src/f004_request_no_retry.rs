//! F004: request kinds without a valid timeout/retry edge — one declares
//! none at all, the other names a kind that does not exist.

use magma_sim::flow_dispatch;
use magma_sim::{DelayClass, FlowKind, Role};

pub const NAKED_REQUEST: FlowKind = FlowKind {
    name: "mme.naked_request",
    sender: "agw",
    receiver: "orc8r",
    class: DelayClass::Transport,
    role: Role::Request,
    retry: None,
};

pub const DANGLING_RETRY: FlowKind = FlowKind {
    name: "mme.dangling_retry",
    sender: "agw",
    receiver: "orc8r",
    class: DelayClass::Transport,
    role: Role::Request,
    retry: Some("mme.missing_tick"),
};

pub struct OrcState {
    pub requests: u64,
}

flow_dispatch! {
    pub const ORC8R_DISPATCH: actor = "orc8r",
    accepts = [NAKED_REQUEST, DANGLING_RETRY],
    tie_break = Some("rpc call id"),
}

pub fn send_sites() {
    let _ = (&NAKED_REQUEST, &DANGLING_RETRY);
}
