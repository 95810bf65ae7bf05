//! F001: orphan flow kinds — declared but never sent, no dispatch arm,
//! and a dispatch accepting an ident that is not a declared kind.

use magma_sim::flow_dispatch;
use magma_sim::{DelayClass, FlowKind, Role};

/// Never referenced outside this declaration, and no accepts list names
/// it: two orphan findings.
pub const ORPHAN_KIND: FlowKind = FlowKind {
    name: "mme.orphan",
    sender: "agw",
    receiver: "orc8r",
    class: DelayClass::Transport,
    role: Role::Data,
    retry: None,
};

pub struct AgwState {
    pub seen: u64,
}

flow_dispatch! {
    /// Accepts an ident no kind declares: a third orphan finding.
    pub const BAD_DISPATCH: actor = "agw",
    accepts = [UNKNOWN_KIND],
    tie_break = Some("n/a"),
}
