//! Flow-kind declarations for the network hub (see `magma_sim::flow`
//! and the generated `docs/MESSAGE_FLOW.md`).
//!
//! The stack is the *hub* of the physical topology: every app actor
//! hands it commands at the sending instant ([`SOCK_CMD`]), it answers
//! with events at the delivery instant ([`SOCK_EVENT`]), and frames
//! between stacks ride the modeled link ([`NET_FRAME`]) — the only edge
//! here that advances virtual time, and therefore the only edge that
//! joins two racecheck components. Protocol payloads (S1AP, RADIUS,
//! GTP-U, Diameter, RPC methods) declare their own *logical* end-to-end
//! kinds in their owning crates; the hub kinds describe the physical
//! legs those payloads ride on.

use magma_sim::{flow_dispatch, DelayClass, FlowKind, Role};

/// Any actor handing a [`SockCmd`](crate::SockCmd) to its local stack
/// (listen/open/close and payload sends that carry their own logical
/// kind).
pub const SOCK_CMD: FlowKind = FlowKind {
    name: "net.sock_cmd",
    sender: "*",
    receiver: "net.stack",
    class: DelayClass::Zero,
    role: Role::Data,
    retry: None,
};

/// The stack notifying a socket owner ([`SockEvent`](crate::SockEvent)).
/// `Response` role: every event is a bounded consequence of one command
/// or one inbound frame, so this edge cannot amplify into a
/// same-timestamp loop (rule F002 relies on this).
pub const SOCK_EVENT: FlowKind = FlowKind {
    name: "net.sock_event",
    sender: "net.stack",
    receiver: "*",
    class: DelayClass::Zero,
    role: Role::Response,
    retry: None,
};

/// A wire frame between two stacks over a modeled link — positive,
/// link-dependent latency; loss is covered by the stream ARQ whose
/// retransmission driver is [`NET_RTO`].
pub const NET_FRAME: FlowKind = FlowKind {
    name: "net.frame",
    sender: "net.stack",
    receiver: "net.stack",
    class: DelayClass::Transport,
    role: Role::Data,
    retry: Some("net.stack.rto"),
};

/// Per-connection retransmission timer (sliding-window ARQ deadline).
pub const NET_RTO: FlowKind = FlowKind {
    name: "net.stack.rto",
    sender: "net.stack",
    receiver: "net.stack",
    class: DelayClass::Local,
    role: Role::Timer,
    retry: None,
};

flow_dispatch! {
    /// The stack's dispatch surface. Same-timestamp deliveries from
    /// distinct senders are keyed by connection (stream handle /
    /// `ConnKey`) or listener port; handling across distinct
    /// connections commutes, within one connection kernel schedule
    /// order is FIFO per sender.
    pub const STACK_DISPATCH: actor = "net.stack",
    accepts = [SOCK_CMD, NET_FRAME, NET_RTO],
    tie_break = Some("conn key (local/peer addr pair) / listener port (cross-connection commutes)"),
}
