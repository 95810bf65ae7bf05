//! Regression test for the engine's shared lex/mask cache: a workspace
//! scan runs every rule, but
//! each source file must be lexed exactly once — the `SourceFile` set is
//! built up front and every family reuses it. A second lex of the same
//! file would roughly double the gate's self-time and, worse, invite
//! rules to diverge on skip-range handling.
//!
//! Lives in its own integration-test binary so the process-wide mask
//! counter sees no masking from unrelated tests.

use magma_lint::{lexer, lint_workspace};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn each_file_is_lexed_exactly_once_per_scan() {
    let before = lexer::mask_calls();
    let report = lint_workspace(&repo_root());
    let after = lexer::mask_calls();
    assert!(report.files_scanned > 90, "scan scope collapsed");
    assert_eq!(
        after - before,
        report.files_scanned,
        "a rule family re-lexed sources instead of sharing the masked set"
    );

    // And the single pass really fed the telemetry rules.
    assert!(!report.uses.is_empty());
}
