//! # magma-epc-baseline — the traditional cellular core baseline
//!
//! What Magma's architecture is compared against: a monolithic,
//! centralized EPC reached across the backhaul, with GTP-U tunnels (and
//! their 3GPP path management) running over that backhaul, and
//! CRUD-style state synchronization. Used by the GTP-termination and
//! sync-model ablations in `magma-testbed`/`magma-bench`.

pub mod core;
pub mod flows;
pub mod sync;

/// The dispatch surfaces this crate declares (see `magma_sim::flow`).
pub const DISPATCHES: &[&magma_sim::Dispatch] = &[&flows::EPC_DISPATCH];

pub use crate::core::EpcCoreActor;
pub use sync::{render as render_sync, run as run_sync, sweep, SyncParams, SyncReport, SyncStrategy};
