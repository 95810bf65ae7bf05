//! S007: a dispatch accepting transport kinds from two distinct senders
//! whose tie-break key is a constant — it satisfies F003 (a key exists)
//! but never names the sender, so same-window deliveries from distinct
//! components stay ordered by whatever the window schedule picked.

use magma_sim::flow_dispatch;
use magma_sim::{DelayClass, FlowKind, Role};

pub const FROM_RAN: FlowKind = FlowKind {
    name: "mme.from_ran",
    sender: "ran",
    receiver: "agw",
    class: DelayClass::Transport,
    role: Role::Data,
    retry: None,
};

pub const FROM_FEG: FlowKind = FlowKind {
    name: "mme.from_feg",
    sender: "feg",
    receiver: "agw",
    class: DelayClass::Transport,
    role: Role::Data,
    retry: None,
};

pub struct AgwState {
    pub frames: u64,
}

flow_dispatch! {
    pub const AGW_DISPATCH: actor = "agw",
    accepts = [FROM_RAN, FROM_FEG],
    tie_break = Some("round-robin ingress slot"),
}

pub fn send_sites() {
    let _ = (&FROM_RAN, &FROM_FEG);
}
