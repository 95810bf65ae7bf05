//! Rule-by-rule coverage: every lint fires on its known-bad fixture and
//! the real workspace lints clean — so a regression in either the rules
//! or the codebase fails here before it fails `scripts/check.sh`.

use magma_lint::engine::{lint_files, lint_workspace, parse_docs, Report};
use magma_lint::rules::{DocRow, RowType};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The real docs inventory rows.
fn real_docs() -> Vec<DocRow> {
    parse_docs(&repo_root()).expect("docs/OBSERVABILITY.md must exist for T003")
}

/// Lint one fixture against the *real* docs inventory, with the fixture
/// tree as the scan root so rel paths mirror the workspace layout.
fn lint_fixture(kind: &str, rel: &str) -> Report {
    let root = fixtures().join(kind);
    let file = root.join(rel);
    assert!(file.is_file(), "missing fixture {}", file.display());
    lint_files(&root, &[file], Some(&real_docs()))
}

/// (rule, line) of every finding, in report order.
fn rule_lines(report: &Report) -> Vec<(&'static str, u32)> {
    report.findings.iter().map(|f| (f.rule, f.line)).collect()
}

fn rules_fired(report: &Report) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = report.findings.iter().map(|f| f.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn t001_fires_on_bad_grammar() {
    let report = lint_fixture("bad", "crates/agw/src/t001_bad_grammar.rs");
    assert!(rules_fired(&report).contains(&"T001"), "{}", report.summary());
}

#[test]
fn t002_fires_on_unknown_prefix() {
    let report = lint_fixture("bad", "crates/agw/src/t002_unknown_prefix.rs");
    assert!(rules_fired(&report).contains(&"T002"), "{}", report.summary());
}

#[test]
fn t003_fires_on_undocumented_metric() {
    let report = lint_fixture("bad", "crates/agw/src/t003_undocumented.rs");
    // Grammar and prefix are fine — only the docs-membership rule trips.
    assert_eq!(rules_fired(&report), vec!["T003"], "{}", report.summary());
}

#[test]
fn t003_fires_on_undocumented_series() {
    let report = lint_fixture("bad", "crates/agw/src/t003_undocumented_series.rs");
    // `record` names are audited like instrument names.
    assert_eq!(rules_fired(&report), vec!["T003"], "{}", report.summary());
    assert!(
        report.findings[0].msg.contains("mme.totally_new_series"),
        "{}",
        report.summary()
    );
}

#[test]
fn t005_fires_on_undocumented_event_kind() {
    // The eventd kind consts are inventory names of type `event`.
    let report = lint_fixture("bad", "crates/sim/src/eventd.rs");
    assert_eq!(rule_lines(&report), vec![("T003", 2)], "{}", report.summary());
    assert!(report.findings[0].msg.contains("event kind \"phantom_kind_not_in_docs\""));
}

#[test]
fn t006_fires_on_bad_and_undocumented_scope_labels() {
    // Scope labels pass through the same inventory check: the grammar
    // breach is T001, the missing `scope` row T003, each on its line.
    let report = lint_fixture("bad", "crates/agw/src/t006_bad_scope.rs");
    assert_eq!(rule_lines(&report), vec![("T001", 4), ("T003", 5)], "{}", report.summary());
}

#[test]
fn t006_documented_scope_lints_clean() {
    let report = lint_fixture("ok", "crates/rpc/src/documented_scope.rs");
    assert!(report.is_clean(), "{}", report.summary());
    // Non-vacuity: the label really is a `scope` row, and only that.
    let rows: Vec<RowType> =
        real_docs().into_iter().filter(|r| r.name == "rpc.encode").map(|r| r.row).collect();
    assert_eq!(rows, vec![RowType::Scope]);
}

/// T003 findings a workspace-mode scan of the drift fixture reports.
fn drift_findings() -> Vec<(u32, String)> {
    let report = lint_workspace(&fixtures().join("drift"));
    report
        .findings
        .iter()
        .filter(|f| f.rule == "T003")
        .map(|f| (f.line, f.msg.clone()))
        .collect()
}

#[test]
fn t006_stale_docs_scope_fires_in_workspace_mode() {
    // The drift fixture documents a scope no source guards; only the
    // whole-workspace scan can see that direction.
    let stale = drift_findings();
    assert!(
        stale.iter().any(|(line, m)| *line == 11 && m.contains("scope label \"dataplane.ghost_scope\"")),
        "{stale:?}"
    );
}

#[test]
fn t007_fires_on_bad_and_undocumented_trace_labels() {
    let report = lint_fixture("bad", "crates/agw/src/t007_bad_trace.rs");
    assert_eq!(rule_lines(&report), vec![("T001", 6), ("T003", 7)], "{}", report.summary());
}

#[test]
fn t007_documented_trace_labels_lint_clean() {
    // Non-vacuity against the real tree: the production labels are
    // `trace` rows, and never rows of another type.
    let docs = real_docs();
    for label in ["attach", "register_5g", "detach", "path_switch", "s6a_auth"] {
        let rows: Vec<RowType> =
            docs.iter().filter(|r| r.name == label).map(|r| r.row).collect();
        assert_eq!(rows, vec![RowType::Trace], "trace row for {label:?}");
    }
}

#[test]
fn t007_stale_docs_trace_fires_in_workspace_mode() {
    // The drift fixture documents a trace label nothing starts; only
    // the whole-workspace scan can see that direction.
    let stale = drift_findings();
    assert!(
        stale.iter().any(|(line, m)| *line == 12 && m.contains("trace label \"ghost_procedure\"")),
        "{stale:?}"
    );
    assert_eq!(stale.len(), 2, "{stale:?}");
}

#[test]
fn a001_fires_on_catch_all_dispatch() {
    let report = lint_fixture("bad", "crates/agw/src/a001_catch_all.rs");
    assert_eq!(rules_fired(&report), vec!["A001"], "{}", report.summary());
}

#[test]
fn a002_fires_on_hot_path_unwrap() {
    let report = lint_fixture("bad", "crates/rpc/src/a002_hot_unwrap.rs");
    assert_eq!(rules_fired(&report), vec!["A002"], "{}", report.summary());
}

#[test]
fn a002_fires_on_hot_path_expect_and_indexing() {
    let report = lint_fixture("bad", "crates/rpc/src/a002_hot_index.rs");
    assert_eq!(rules_fired(&report), vec!["A002"], "{}", report.summary());
    // The reason-less `.expect(` and the direct `table[idx]` both fire.
    assert_eq!(report.violations(), 2, "{}", report.summary());
}

#[test]
fn s006_fires_on_schedule_dependent_reads() {
    let report = lint_fixture("bad", "crates/agw/src/s006_schedule_read.rs");
    assert_eq!(rules_fired(&report), vec!["S006"], "{}", report.summary());
    // The cross-prefix namespace export and the raw counter read.
    assert_eq!(report.violations(), 2, "{}", report.summary());
    let msgs: Vec<_> = report.findings.iter().map(|f| f.msg.clone()).collect();
    assert!(msgs.iter().any(|m| m.contains("snapshot_prefixed")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("registry().counter(")), "{msgs:?}");
}

#[test]
fn s006_exempts_own_namespace_export() {
    // The metricsd pattern — `snapshot_prefixed(&self.cfg.agw_id)` — is
    // the one legal registry read: an actor exporting its *own*
    // namespace. Lint the real file alone and assert S006 stays silent.
    let root = repo_root();
    let file = root.join("crates/agw/src/metricsd.rs");
    assert!(file.is_file());
    let report = lint_files(&root, &[file], Some(&real_docs()));
    assert!(
        report.findings.iter().all(|f| f.rule != "S006"),
        "{}",
        report.summary()
    );
}

#[test]
fn s006_exempts_own_namespace_counter_read() {
    let report = lint_fixture("ok", "crates/agw/src/s006_own_counter.rs");
    assert!(report.is_clean(), "{}", report.summary());
}

#[test]
fn json_report_has_stable_schema_and_field_order() {
    let report = lint_fixture("bad", "crates/rpc/src/a002_hot_index.rs");
    let json = magma_lint::json_report(&report);
    // Golden field order: downstream CI annotators diff runs
    // byte-for-byte, so a change of keys bumps `schema_version`.
    let keys = [
        "\"schema_version\": 2",
        "\"files_scanned\": 1",
        "\"docs_present\": true",
        "\"violations\": 2",
        "\"findings\": [",
        "{\"rule\": \"A002\", \"file\": \"crates/rpc/src/a002_hot_index.rs\", \"line\":",
    ];
    let mut last = 0;
    for k in keys {
        let at = json[last..]
            .find(k)
            .unwrap_or_else(|| panic!("key {k:?} missing or out of order in:\n{json}"));
        last += at;
    }
    assert!(json.starts_with("{\n  \"schema_version\": 2,\n"), "{json}");
    assert!(json.ends_with("\"}\n  ]\n}\n"), "{json}");
}

#[test]
fn workspace_lints_clean() {
    // The acceptance gate itself: the real tree has zero violations and
    // zero docs drift (stale rows are T003 findings in workspace mode).
    let report = lint_workspace(&repo_root());
    let mut msg = String::new();
    for f in &report.findings {
        msg.push_str(&format!("{} {}:{} {}\n", f.rule, f.file, f.line, f.msg));
    }
    assert!(report.is_clean(), "workspace not lint-clean:\n{msg}");
    assert!(report.files_scanned > 90, "scan scope collapsed: {} files", report.files_scanned);
}

#[test]
fn an_unknown_option_is_a_usage_error_not_a_file() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_magma-lint"))
        .arg("--list-rules")
        .current_dir(repo_root())
        .output()
        .expect("magma-lint runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: magma-lint"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing was linted: {out:?}");
}

#[test]
fn a_named_file_that_cannot_be_read_fails_the_run() {
    let root = fixtures().join("bad");
    let report = lint_files(&root, &[root.join("no/such/file.rs")], Some(&real_docs()));
    assert_eq!(report.files_scanned, 0);
    assert!(!report.is_clean(), "{}", report.summary());
    assert_eq!(report.unreadable.len(), 1);
    assert_eq!(report.unreadable[0].0, "no/such/file.rs");
    assert!(
        report.summary().contains("total: 1 violation"),
        "{}",
        report.summary()
    );

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_magma-lint"))
        .arg("no/such/file.rs")
        .current_dir(repo_root())
        .output()
        .expect("magma-lint runs");
    assert!(!out.status.success(), "a missing file passed the lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no/such/file.rs cannot be read"),
        "{stdout}"
    );
}
