//! A consistent mini flow graph whose generated doc is stale: the
//! committed `docs/MESSAGE_FLOW.md` in this fixture tree does not match
//! what the extractor renders, so a workspace-mode scan fires F006 (and
//! nothing else).

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
    pub const AGW_DISPATCH: actor = "agw",
    accepts = [SYNC_TICK],
    tie_break = None,
}

pub fn send_sites() {
    let _ = (&SYNC_REQUEST, &SYNC_TICK);
}
