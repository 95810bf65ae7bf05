//! A self-contained, consistent mini flow graph: a request with a valid
//! Timer-role retry edge, every kind sent and dispatched, and a
//! single-sender dispatch where `tie_break = None` is legitimate.
//! Must lint clean — including every F rule.

use magma_sim::flow_dispatch;
use magma_sim::{DelayClass, FlowKind, Role};

pub const SYNC_REQUEST: FlowKind = FlowKind {
    name: "mme.sync_request",
    sender: "agw",
    receiver: "orc8r",
    class: DelayClass::Transport,
    role: Role::Request,
    retry: Some("mme.sync_tick"),
};

pub const SYNC_TICK: FlowKind = FlowKind {
    name: "mme.sync_tick",
    sender: "agw",
    receiver: "agw",
    class: DelayClass::Local,
    role: Role::Timer,
    retry: None,
};

pub struct OrcState {
    pub seen: u64,
}

pub struct AgwState {
    pub ticks: u64,
}

flow_dispatch! {
    pub const ORC8R_DISPATCH: actor = "orc8r",
    accepts = [SYNC_REQUEST],
    tie_break = Some("rpc call id"),
}

flow_dispatch! {
    /// Single sender (agw's own tick): no tie-break contract needed.
    pub const AGW_DISPATCH: actor = "agw",
    accepts = [SYNC_TICK],
    tie_break = None,
}

pub fn send_sites() {
    let _ = (&SYNC_REQUEST, &SYNC_TICK);
}
