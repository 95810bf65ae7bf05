//! # magma-policy — network policy engine
//!
//! The policy capabilities that make cellular-style networks financially
//! sustainable for small operators (§2.2): per-user rate limits, usage
//! caps with tiered throttling, QoS classes, and online (prepaid) credit
//! control via an OCS. Policies are declarative; the AGW compiles the
//! currently-effective limits into data-plane meters and re-evaluates as
//! usage accumulates.

pub mod ocs;
pub mod qos;
pub mod rules;

pub use ocs::{Account, CreditAnswer, CreditSession, OcsServer, SessionCredit};
pub use qos::{Ambr, Qci, QosCaps};
pub use rules::{select_rule, PolicyRule, RateLimit, TieredPolicy, TieredState, UsageTracking};
