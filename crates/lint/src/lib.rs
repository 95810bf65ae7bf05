//! `magma-lint`: the workspace's determinism / telemetry / actor-hygiene /
//! schedule-safety static-analysis pass. See `docs/DETERMINISM.md` for the
//! invariants and the full rule list, and `scripts/check.sh` for how it
//! gates CI. The message-flow graph is not lexed here: its rules are typed
//! checks over the dispatch consts (`magma_sim::flow`).
//!
//! Deliberately dependency-free: the gate must always build, even offline
//! (`rustc --edition 2021 crates/lint/src/main.rs` works in a pinch).

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{json_report, lint_files, lint_workspace, parse_docs, workspace_files, Report};
pub use rules::{render_rule_list, Finding, ALL_RULES, KNOWN_PREFIXES, RULE_INFO};
