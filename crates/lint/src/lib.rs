//! `magma-lint`: the workspace's inventory and hygiene pass — what the
//! compiler cannot check. Six rules: the telemetry-name inventory
//! (T001–T003), actor dispatch and hot-path panics (A001, A002), and
//! registry reads across components (S006). The determinism bans are
//! clippy's (`clippy.toml`), and the message-flow graph's rules are typed
//! checks over the dispatch consts (`magma_sim::flow`). See
//! `docs/DETERMINISM.md` for the invariants and `scripts/check.sh` for
//! how it gates CI.
//!
//! Deliberately dependency-free: the gate must always build, even offline
//! (`rustc --edition 2021 crates/lint/src/main.rs` works in a pinch).

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{json_report, lint_files, lint_workspace, parse_docs, workspace_files, Report};
pub use rules::{Finding, ALL_RULES, KNOWN_PREFIXES};
