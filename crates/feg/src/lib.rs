//! # magma-feg — federation with external MNO cores (§3.6)
//!
//! Magma deploys in three modes: standalone, local-breakout roaming, and
//! home roaming. The [`FegActor`] terminates Magma's internal RPC on one
//! side and 3GPP Diameter (S6a) toward an external operator's HSS on the
//! other; the [`GtpAggregator`] is the centralized user-plane
//! interconnect for home routing. [`MnoCoreActor`] simulates the partner
//! MNO's core so federation paths can be exercised end to end.

pub mod feg;
pub mod flows;
pub mod gtpa;
pub mod mno;

/// The dispatch surfaces this crate declares (see `magma_sim::flow`).
pub const DISPATCHES: &[&magma_sim::Dispatch] = &[&flows::FEG_DISPATCH, &flows::MNO_DISPATCH];

pub use feg::FegActor;
pub use gtpa::{scaling_comparison, GtpAggregator, GtpaTick};
pub use mno::MnoCoreActor;
