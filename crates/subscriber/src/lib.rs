//! # magma-subscriber — subscriber database (HSS / SubscriberDB analog)
//!
//! Authoritative subscriber identity, SIM credentials, QoS profile, and
//! policy-rule assignments, with the union schema across LTE/5G/WiFi that
//! the paper's Table 1 maps onto HSS, UDM/AUSF, and RADIUS AAA. The
//! orchestrator owns the source of truth; AGWs hold versioned replicas.

pub mod db;
pub mod profile;

pub use db::{DbChanges, DbSnapshot, DbSync, SubscriberDb};
pub use profile::{
    AccessTypes, CellularSubscription, RuleCatalog, SubscriberProfile, WifiSubscription,
};
