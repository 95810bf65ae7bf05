//! Rule-by-rule coverage: every lint fires on its known-bad fixture, the
//! `lint:allow` mechanism suppresses (and counts) justified hits, and the
//! real workspace lints clean — so a regression in either the rules or
//! the codebase fails here before it fails `scripts/check.sh`.

use magma_lint::engine::{lint_files, lint_workspace, parse_docs, DocsInventory, Report};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lint one fixture against the *real* docs inventory, with the fixture
/// tree as the scan root so rel paths mirror the workspace layout.
fn lint_fixture(kind: &str, rel: &str) -> (Report, DocsInventory) {
    let docs = parse_docs(&repo_root());
    assert!(docs.present, "docs/OBSERVABILITY.md must exist for T rules");
    let root = fixtures().join(kind);
    let file = root.join(rel);
    assert!(file.is_file(), "missing fixture {}", file.display());
    let report = lint_files(&root, &[file], &docs);
    (report, docs)
}

fn rules_fired(report: &Report) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = report.violations().iter().map(|f| f.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn d001_fires_on_hash_collections() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/d001_hash_state.rs");
    assert!(rules_fired(&report).contains(&"D001"), "{}", report.summary());
    // One finding per (line, type): the `use` line plus each field.
    assert!(report.violations().len() >= 3, "{}", report.summary());
}

#[test]
fn d002_fires_on_ambient_entropy_outside_kernel() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/d002_ambient_entropy.rs");
    assert!(rules_fired(&report).contains(&"D002"), "{}", report.summary());
    // Both the clock read and the OS entropy draw are flagged.
    assert_eq!(
        report.violations().iter().filter(|f| f.rule == "D002").count(),
        2,
        "{}",
        report.summary()
    );
}

#[test]
fn d002_is_exempt_inside_the_kernel() {
    let (report, _) = lint_fixture("ok", "crates/sim/src/kernel_clock.rs");
    assert!(report.is_clean(), "{}", report.summary());
}

#[test]
fn t001_fires_on_bad_grammar() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/t001_bad_grammar.rs");
    assert!(rules_fired(&report).contains(&"T001"), "{}", report.summary());
}

#[test]
fn t002_fires_on_unknown_prefix() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/t002_unknown_prefix.rs");
    assert!(rules_fired(&report).contains(&"T002"), "{}", report.summary());
}

#[test]
fn t003_fires_on_undocumented_metric() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/t003_undocumented.rs");
    // Grammar and prefix are fine — only the docs-membership rule trips.
    assert_eq!(rules_fired(&report), vec!["T003"], "{}", report.summary());
}

#[test]
fn t003_fires_on_undocumented_series() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/t003_undocumented_series.rs");
    // `record` names are audited like instrument names.
    assert_eq!(rules_fired(&report), vec!["T003"], "{}", report.summary());
    assert!(
        report.violations()[0]
            .msg
            .contains("mme.totally_new_series"),
        "{}",
        report.summary()
    );
}

#[test]
fn t005_fires_on_undocumented_event_kind() {
    let (report, _) = lint_fixture("bad", "crates/sim/src/eventd.rs");
    assert_eq!(rules_fired(&report), vec!["T005"], "{}", report.summary());
}

#[test]
fn t006_fires_on_bad_and_undocumented_scope_labels() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/t006_bad_scope.rs");
    assert_eq!(rules_fired(&report), vec!["T006"], "{}", report.summary());
    // Both the grammar breach and the missing docs row are flagged.
    assert_eq!(
        report.violations().iter().filter(|f| f.rule == "T006").count(),
        2,
        "{}",
        report.summary()
    );
}

#[test]
fn t006_documented_scope_lints_clean() {
    let (report, docs) = lint_fixture("ok", "crates/rpc/src/documented_scope.rs");
    assert!(report.is_clean(), "{}", report.summary());
    // Non-vacuity: the label really is in the parsed scope inventory,
    // and scope rows never leak into the metric inventory.
    assert!(docs.scopes.iter().any(|(n, _)| n == "rpc.encode"));
    assert!(!docs.metrics.iter().any(|(n, _)| n == "rpc.encode"));
}

#[test]
fn t006_stale_docs_scope_fires_in_workspace_mode() {
    // The drift fixture documents a scope no source guards; only the
    // whole-workspace scan can see that direction.
    let report = lint_workspace(&fixtures().join("drift"));
    let stale: Vec<_> = report
        .violations()
        .iter()
        .filter(|f| f.rule == "T006")
        .map(|f| f.msg.clone())
        .collect();
    assert_eq!(stale.len(), 1, "{}", report.summary());
    assert!(stale[0].contains("dataplane.ghost_scope"), "{stale:?}");
}

#[test]
fn t007_fires_on_bad_and_undocumented_trace_labels() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/t007_bad_trace.rs");
    assert_eq!(rules_fired(&report), vec!["T007"], "{}", report.summary());
    // Both the grammar breach and the missing docs row are flagged.
    assert_eq!(
        report.violations().iter().filter(|f| f.rule == "T007").count(),
        2,
        "{}",
        report.summary()
    );
}

#[test]
fn t007_documented_trace_labels_lint_clean() {
    // Non-vacuity against the real tree: the production labels are in
    // the parsed trace inventory and never leak into the metric rows.
    let docs = parse_docs(&repo_root());
    for label in ["attach", "register_5g", "detach", "path_switch", "s6a_auth"] {
        assert!(
            docs.traces.iter().any(|(n, _)| n == label),
            "missing trace row for {label:?} in docs/OBSERVABILITY.md"
        );
        assert!(!docs.metrics.iter().any(|(n, _)| n == label));
    }
}

#[test]
fn t007_stale_docs_trace_fires_in_workspace_mode() {
    // The drift fixture documents a trace label nothing starts; only
    // the whole-workspace scan can see that direction.
    let report = lint_workspace(&fixtures().join("drift"));
    let stale: Vec<_> = report
        .violations()
        .iter()
        .filter(|f| f.rule == "T007")
        .map(|f| f.msg.clone())
        .collect();
    assert_eq!(stale.len(), 1, "{}", report.summary());
    assert!(stale[0].contains("ghost_procedure"), "{stale:?}");
}

#[test]
fn a001_fires_on_catch_all_dispatch() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/a001_catch_all.rs");
    assert_eq!(rules_fired(&report), vec!["A001"], "{}", report.summary());
}

#[test]
fn a002_fires_on_hot_path_unwrap() {
    let (report, _) = lint_fixture("bad", "crates/rpc/src/a002_hot_unwrap.rs");
    assert_eq!(rules_fired(&report), vec!["A002"], "{}", report.summary());
}

#[test]
fn lint_allow_suppresses_and_is_counted() {
    let (report, _) = lint_fixture("ok", "crates/agw/src/suppressed.rs");
    assert!(report.is_clean(), "{}", report.summary());
    // The hit still exists — it is suppressed, not invisible.
    let allowed: Vec<_> = report.findings.iter().filter(|f| f.allowed).collect();
    assert!(!allowed.is_empty(), "suppressed finding must stay counted");
    assert!(
        allowed.iter().all(|f| f.reason.as_deref().is_some_and(|r| !r.is_empty())),
        "every suppression carries its justification"
    );
    // And the counts surface in the human summary.
    assert!(report.summary().contains("justified allow"), "{}", report.summary());
}

#[test]
fn lint_allow_without_reason_is_malformed_not_suppressing() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/allow_missing_reason.rs");
    assert!(!report.is_clean());
    assert!(
        !report.malformed.is_empty(),
        "reason-less lint:allow must be reported as malformed"
    );
    // The D001 hit it sat next to is NOT suppressed.
    assert!(rules_fired(&report).contains(&"D001"), "{}", report.summary());
}

#[test]
fn f001_fires_on_orphan_kinds() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/f001_orphan.rs");
    assert_eq!(rules_fired(&report), vec!["F001"], "{}", report.summary());
    // Never-sent + no-dispatch-arm on the orphan, plus the unknown
    // ident in the accepts list: three distinct findings.
    assert_eq!(
        report.violations().iter().filter(|f| f.rule == "F001").count(),
        3,
        "{}",
        report.summary()
    );
}

#[test]
fn f002_fires_on_zero_delay_cycle() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/f002_zero_cycle.rs");
    assert_eq!(rules_fired(&report), vec!["F002"], "{}", report.summary());
    let msg = &report.violations()[0].msg;
    assert!(msg.contains("mme.ping") && msg.contains("mme.pong"), "{msg}");
}

#[test]
fn f003_fires_on_multi_sender_dispatch_without_tie_break() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/f003_no_tie_break.rs");
    assert_eq!(rules_fired(&report), vec!["F003"], "{}", report.summary());
}

#[test]
fn f004_fires_on_requests_without_valid_retry_edges() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/f004_request_no_retry.rs");
    assert_eq!(rules_fired(&report), vec!["F004"], "{}", report.summary());
    // One for the missing retry, one for the dangling target.
    assert_eq!(
        report.violations().iter().filter(|f| f.rule == "F004").count(),
        2,
        "{}",
        report.summary()
    );
}

#[test]
fn f005_fires_on_span_leak() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/f005_span_leak.rs");
    assert_eq!(rules_fired(&report), vec!["F005"], "{}", report.summary());
    // The fixture's unrelated `.finish(` on another binding must not
    // vouch for the leaked span (the old same-file check accepted it).
    assert_eq!(report.violations().len(), 1, "{}", report.summary());
}

#[test]
fn f005_pairs_begin_and_finish_across_files() {
    // A span begun in one file and finished in another is clean under
    // the workspace-wide pairing index.
    let docs = parse_docs(&repo_root());
    let root = fixtures().join("ok");
    let files = [
        root.join("crates/agw/src/span_begin.rs"),
        root.join("crates/agw/src/span_finish.rs"),
    ];
    let report = lint_files(&root, &files, &docs);
    assert!(report.is_clean(), "{}", report.summary());
    // Non-vacuity: linting the begin half alone must still fire.
    let alone = lint_files(&root, &files[..1], &docs);
    assert_eq!(rules_fired(&alone), vec!["F005"], "{}", alone.summary());
}

#[test]
fn consistent_flow_graph_lints_clean() {
    let (report, _) = lint_fixture("ok", "crates/agw/src/flow_ok.rs");
    assert!(report.is_clean(), "{}", report.summary());
    // Non-vacuity: the extractor really saw the mini graph.
    assert_eq!(report.flow.kinds.len(), 2, "{:?}", report.flow.kinds);
    assert_eq!(report.flow.dispatches.len(), 2);
    assert_eq!(report.flow.sent.len(), 2);
}

#[test]
fn f006_fires_on_stale_message_flow_doc() {
    // Workspace mode only: the fixture tree commits a doc that does not
    // match what the extractor renders.
    let report = lint_workspace(&fixtures().join("flowdrift"));
    assert_eq!(rules_fired(&report), vec!["F006"], "{}", report.summary());
}

#[test]
fn message_flow_doc_is_generated_and_byte_deterministic() {
    let root = repo_root();
    let d1 = magma_lint::render_flow(&lint_workspace(&root).flow);
    let d2 = magma_lint::render_flow(&lint_workspace(&root).flow);
    assert_eq!(d1, d2, "render is not deterministic across runs");
    let committed = std::fs::read_to_string(root.join("docs/MESSAGE_FLOW.md"))
        .expect("docs/MESSAGE_FLOW.md must exist (regenerate with --write-flow)");
    assert_eq!(
        committed, d1,
        "docs/MESSAGE_FLOW.md drifted — regenerate with `cargo run -p magma-lint -- --write-flow`"
    );
    // The paper's core edge sets are present with their delay classes.
    for needle in [
        "| `ran.s1ap_ul` | `ran.enb` | `agw` | transport | request |",
        "| `orc8r.Checkin` | `agw` | `orc8r` | transport | request |",
        "| `feg.AuthInfo` | `agw` | `feg` | transport | request |",
        "| `sync.Subscribers` | `orc8r` | `agw` | transport | data |",
        "| `ran.fluid_demand` | `ran` | `agw` | zero | data |",
    ] {
        assert!(committed.contains(needle), "missing edge row: {needle}");
    }
}

#[test]
fn a002_fires_on_hot_path_expect_and_indexing() {
    let (report, _) = lint_fixture("bad", "crates/rpc/src/a002_hot_index.rs");
    assert_eq!(rules_fired(&report), vec!["A002"], "{}", report.summary());
    // The reason-less `.expect(` and the direct `table[idx]` both fire.
    assert_eq!(report.violations().len(), 2, "{}", report.summary());
}

#[test]
fn one_allow_covering_two_families_suppresses_only_the_named_rule() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/two_family_allow.rs");
    // The D002 clock read is justified; the A002 unwrap on the same
    // line stays a violation — the allow must not bleed across families.
    assert_eq!(rules_fired(&report), vec!["A002"], "{}", report.summary());
    let allowed: Vec<_> = report.findings.iter().filter(|f| f.allowed).collect();
    assert_eq!(allowed.len(), 1, "{}", report.summary());
    assert_eq!(allowed[0].rule, "D002");
    // And the allow is counted as used, not dangling.
    assert!(report.allows.iter().all(|a| a.used), "allow must be marked used");
    assert!(report.malformed.is_empty(), "nothing malformed here");
}

#[test]
fn s004_fires_on_raw_sends() {
    let (report, _) = lint_fixture("bad", "crates/feg/src/s004_raw_send.rs");
    assert_eq!(rules_fired(&report), vec!["S004"], "{}", report.summary());
    // ctx.send and ctx.send_in: two findings.
    assert_eq!(report.violations().len(), 2, "{}", report.summary());
    let msgs: Vec<_> = report.violations().iter().map(|f| f.msg.clone()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("`ctx.send_in(..)`")),
        "{msgs:?}"
    );
}

#[test]
fn s006_fires_on_schedule_dependent_reads() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/s006_schedule_read.rs");
    assert_eq!(rules_fired(&report), vec!["S006"], "{}", report.summary());
    // heap_stats, events_processed, trace_snapshot, shard_snapshot (the
    // RPC edge counters), the cross-prefix namespace export, and the raw
    // counter read: six.
    assert_eq!(report.violations().len(), 6, "{}", report.summary());
    let msgs: Vec<_> = report.violations().iter().map(|f| f.msg.clone()).collect();
    assert!(msgs.iter().any(|m| m.contains("heap_stats")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("snapshot_prefixed")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("registry().counter(")), "{msgs:?}");
}

#[test]
fn s006_exempts_own_namespace_export() {
    // The metricsd pattern — `snapshot_prefixed(&self.cfg.agw_id)` — is
    // the one legal registry read: an actor exporting its *own*
    // namespace. Lint the real file alone and assert S006 stays silent.
    let docs = parse_docs(&repo_root());
    let root = repo_root();
    let file = root.join("crates/agw/src/metricsd.rs");
    assert!(file.is_file());
    let report = lint_files(&root, &[file], &docs);
    assert!(
        report.findings.iter().all(|f| f.rule != "S006"),
        "{}",
        report.summary()
    );
}

#[test]
fn s006_exempts_own_namespace_counter_read() {
    let (report, _) = lint_fixture("ok", "crates/agw/src/s006_own_counter.rs");
    assert!(report.is_clean(), "{}", report.summary());
}

#[test]
fn s007_fires_on_sender_blind_cut_edge_tie_break() {
    let (report, _) = lint_fixture("bad", "crates/agw/src/s007_constant_tie_break.rs");
    assert_eq!(rules_fired(&report), vec!["S007"], "{}", report.summary());
    assert_eq!(report.violations().len(), 1, "{}", report.summary());
    let msg = &report.violations()[0].msg;
    assert!(msg.contains("never names the sender"), "{msg}");
    assert!(msg.contains("FROM_RAN") && msg.contains("FROM_FEG"), "{msg}");
    // The F003 gap this closes: the same shape with tie_break = None is
    // F003's finding, not S007's (covered by the f003 fixture test).
}

#[test]
fn list_rules_covers_every_rule_with_real_fixtures() {
    // Stable order: RULE_INFO mirrors ALL_RULES exactly.
    let ids: Vec<&str> = magma_lint::RULE_INFO.iter().map(|r| r.0).collect();
    assert_eq!(ids, magma_lint::ALL_RULES, "RULE_INFO must cover ALL_RULES in order");
    let root = repo_root();
    for (id, summary, fixture) in magma_lint::RULE_INFO {
        assert!(!summary.is_empty(), "{id}: empty summary");
        assert!(
            root.join(fixture).exists(),
            "{id}: fixture path {fixture} does not exist"
        );
    }
    // Golden render: `--list-rules` output is byte-pinned so suppression
    // reasons (and docs) can reference a stable inventory.
    let golden = std::fs::read_to_string(root.join("scripts/golden/lint_rules.txt"))
        .expect("scripts/golden/lint_rules.txt must exist (magma-lint --list-rules > it)");
    assert_eq!(
        golden,
        magma_lint::render_rule_list(),
        "rule inventory drifted — regenerate with `cargo run -p magma-lint -- --list-rules`"
    );
}

#[test]
fn json_report_has_stable_schema_and_field_order() {
    let (report, docs) = lint_fixture("ok", "crates/agw/src/suppressed.rs");
    let json = magma_lint::json_report(&report, docs.present);
    // Golden field order: downstream CI annotators diff runs
    // byte-for-byte, so keys may only ever be appended.
    let keys = [
        "\"schema_version\": 1",
        "\"files_scanned\":",
        "\"docs_present\":",
        "\"violations\":",
        "\"allowed\":",
        "\"findings\":",
        "\"malformed\":",
        "\"unused_allows\":",
    ];
    let mut last = 0;
    for k in keys {
        let at = json[last..]
            .find(k)
            .unwrap_or_else(|| panic!("key {k:?} missing or out of order in:\n{json}"));
        last += at;
    }
    assert!(json.starts_with("{\n  \"schema_version\": 1,\n"), "{json}");
}

#[test]
fn workspace_lints_clean() {
    // The acceptance gate itself: the real tree has zero unjustified
    // violations and zero docs drift (T004 runs in workspace mode).
    let report = lint_workspace(&repo_root());
    let mut msg = String::new();
    for f in report.violations() {
        msg.push_str(&format!("{} {}:{} {}\n", f.rule, f.file, f.line, f.msg));
    }
    for (file, line, m) in &report.malformed {
        msg.push_str(&format!("LINT {file}:{line} {m}\n"));
    }
    assert!(report.is_clean(), "workspace not lint-clean:\n{msg}");
    assert!(report.files_scanned > 90, "scan scope collapsed: {} files", report.files_scanned);
    // The flow graph covers the real message surface, not a remnant.
    assert!(
        report.flow.kinds.len() >= 25,
        "flow graph collapsed: {} kinds",
        report.flow.kinds.len()
    );
    assert!(
        report.flow.dispatches.len() >= 8,
        "flow graph collapsed: {} dispatch surfaces",
        report.flow.dispatches.len()
    );
}
