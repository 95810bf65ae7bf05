//! # magma-net — simulated network substrate
//!
//! Nodes, links, and two transports over them:
//!
//! - **Datagram** (UDP-analog): unreliable, used by GTP — and therefore
//!   sensitive to the backhaul quality, exactly the failure mode the
//!   paper's §3.1 describes for 3GPP protocols over satellite/microwave
//!   links.
//! - **Reliable stream** (TCP-analog): sliding-window ARQ with
//!   retransmission and backoff, the substrate for the gRPC-analog RPC
//!   layer (`magma-rpc`).
//!
//! Links model latency, jitter, random loss, bandwidth serialization, and
//! backlog-based tail drop; profiles for fiber, microwave, and satellite
//! backhaul are provided. The testbed injects faults by taking links down
//! or swapping profiles at runtime.

pub mod addr;
pub mod fabric;
pub mod flows;
pub mod frame;
pub mod link;
pub mod stack;
pub mod stream;
pub mod topology;
pub mod util;

/// The dispatch surfaces this crate declares (see `magma_sim::flow`).
pub const DISPATCHES: &[&magma_sim::Dispatch] = &[&flows::STACK_DISPATCH];

pub use addr::{ports, Endpoint, NodeAddr};
pub use fabric::NetFabric;
pub use frame::{Frame, FramePayload, FRAME_OVERHEAD, MTU};
pub use link::{Link, LinkProfile, TxOutcome};
pub use stack::{NetStack, SockCmd, SockEvent};
pub use stream::{ConnKey, StreamConfig, StreamHandle};
pub use topology::{LinkStats, Topology};
pub use util::{lp_encode, Acceptor, Dialer, Edge, Reassembler, MAX_LP_LEN, REDIAL};
