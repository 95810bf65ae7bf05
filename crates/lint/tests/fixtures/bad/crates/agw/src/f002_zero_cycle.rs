//! F002: a cycle of zero-delay edges. Both kinds are sent and dispatched
//! (no F001 noise) and each dispatch has a single sender (no F003), so
//! exactly the cycle rule trips.

use magma_sim::flow_dispatch;
use magma_sim::{DelayClass, FlowKind, Role};

pub const PING: FlowKind = FlowKind {
    name: "mme.ping",
    sender: "agw",
    receiver: "orc8r",
    class: DelayClass::Zero,
    role: Role::Data,
    retry: None,
};

pub const PONG: FlowKind = FlowKind {
    name: "mme.pong",
    sender: "orc8r",
    receiver: "agw",
    class: DelayClass::Zero,
    role: Role::Data,
    retry: None,
};

pub struct AgwState {
    pub pongs: u64,
}

pub struct OrcState {
    pub pings: u64,
}

flow_dispatch! {
    pub const AGW_DISPATCH: actor = "agw",
    accepts = [PONG],
    tie_break = Some("n/a"),
}

flow_dispatch! {
    pub const ORC8R_DISPATCH: actor = "orc8r",
    accepts = [PING],
    tie_break = Some("n/a"),
}

pub fn send_sites() {
    let _ = (&PING, &PONG);
}
