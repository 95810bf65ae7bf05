//! # magma-dataplane — programmable software data plane (OVS analog)
//!
//! The paper's §3.5: the AGW data plane recognizes flows for active
//! sessions, collects statistics, adds/removes GTP tunnel headers, and
//! enforces per-subscriber policies such as rate limits — implemented
//! entirely in software, programmed by the `pipelined` AGW service through
//! a desired-state interface.
//!
//! Two processing modes share the rule structures:
//! - **packet mode** ([`Pipeline::process`]): per-packet multi-table
//!   match/action walk, used by protocol-level tests and the baseline EPC;
//! - **fluid mode** ([`Pipeline::fluid_tick`]): flow-level byte accounting
//!   per tick, used by the throughput experiments (Figures 5 and 7) where
//!   simulating 36k packets/s individually would be wasteful.

pub mod flow;
pub mod meter;
pub mod pipeline;

pub use flow::{
    Direction, DropReason, FlowAction, FlowMatch, FlowRule, MeterId, PacketMeta, PortId, Verdict,
};
pub use meter::{MeterTable, TokenBucket};
pub use pipeline::{
    session_rules, DesiredState, FluidEntry, FluidTickResult, MeterSpec, Pipeline, RuleStats,
    SessionProgram, Usage, TABLE_CLASSIFIER, TABLE_EGRESS, TABLE_ENFORCEMENT,
};
