//! Rule implementations. Each rule scans the masked source of one file
//! (see `lexer`) and yields findings; the engine applies `lint:allow`
//! suppressions afterwards.
//!
//! Rule identifiers (stable — used in `lint:allow(...)` comments):
//!
//! - `D001` hash-collections: `HashMap`/`HashSet` in scanned source.
//! - `D002` ambient-entropy: `Instant::now`/`SystemTime::now`/
//!   `thread_rng`/`rand::random` outside the DES kernel (`crates/sim`).
//! - `T001` metric-name-grammar: metric/event name literals must be
//!   dotted snake_case.
//! - `T002` metric-prefix: names must fall under a known cardinality
//!   prefix (service namespace).
//! - `T003` undocumented-metric: name not listed in the
//!   `docs/OBSERVABILITY.md` inventory.
//! - `T004` stale-doc-metric: inventory entry matching no call site
//!   (checked workspace-wide by the engine, not per file).
//! - `T005` undocumented-event-kind: eventd kind const missing from
//!   `docs/OBSERVABILITY.md`.
//! - `T006` scope-label: `profile_scope` label literals must follow the
//!   metric-name grammar and appear in the docs inventory as `scope`
//!   rows; stale scope rows are the reverse direction of the same rule.
//! - `T007` trace-label: `trace_start`/`trace_finish_as` procedure
//!   labels must follow the metric-name grammar and appear in the docs
//!   inventory as `trace` rows; stale trace rows are the reverse
//!   direction of the same rule.
//! - `A001` catch-all-dispatch: `_ =>` arm in an actor's top-level
//!   `match event`.
//! - `A002` hot-path-unwrap: `.unwrap()`/`.expect(`/direct `ident[..]`
//!   indexing in agw/orc8r/rpc.
//! - `F001`–`F006` message-flow graph rules (see `flow`): orphan kinds,
//!   zero-delay send cycles, missing tie-break contracts, requests
//!   without retry edges, span leaks, and `docs/MESSAGE_FLOW.md` drift.
//! - `S004` raw-send: `ctx.send(`/`ctx.send_in(` outside the kernel
//!   bypasses the typed flow layer.
//! - `S006` schedule-state-read: actor code must not read
//!   schedule-dependent kernel-global state (heap shape, dispatch
//!   counter, live traces, RPC edge counters, cross-prefix registry
//!   reads) — those values are artifacts of the window schedule.
//! - `S007` sender-blind tie-break: a dispatch accepting Transport-class
//!   kinds from multiple senders must name the sender in its tie-break
//!   key; a constant key passes F003 but cannot order same-window
//!   deliveries from distinct racecheck components.

use crate::flow::FlowGraph;
use crate::lexer::Masked;
use std::collections::BTreeSet;

/// One rule hit, before suppression.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Path relative to the workspace root, forward slashes.
    pub file: String,
    pub line: u32,
    pub msg: String,
    /// Set by the engine when a `lint:allow` covers this finding.
    pub allowed: bool,
    /// Justification text from the covering allow, if any.
    pub reason: Option<String>,
}

impl Finding {
    pub(crate) fn new(rule: &'static str, file: &str, line: u32, msg: String) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            msg,
            allowed: false,
            reason: None,
        }
    }
}

/// All rule identifiers, for the summary report.
pub const ALL_RULES: &[&str] = &[
    "D001", "D002", "T001", "T002", "T003", "T004", "T005", "T006", "T007", "A001", "A002",
    "F001", "F002", "F003", "F004", "F005", "F006", "S004", "S006", "S007",
];

/// One row per rule for `--list-rules`: (id, one-line summary, fixture
/// demonstrating the violation). Same order as [`ALL_RULES`] — the
/// rendering is golden-tested so suppression reasons can reference a
/// stable, discoverable inventory.
pub const RULE_INFO: &[(&str, &str, &str)] = &[
    (
        "D001",
        "HashMap/HashSet in scanned source — iteration order is nondeterministic",
        "crates/lint/tests/fixtures/bad/crates/agw/src/d001_hash_state.rs",
    ),
    (
        "D002",
        "ambient entropy (Instant/SystemTime/thread_rng) outside the DES kernel",
        "crates/lint/tests/fixtures/bad/crates/agw/src/d002_ambient_entropy.rs",
    ),
    (
        "T001",
        "metric/event name literals must be dotted snake_case",
        "crates/lint/tests/fixtures/bad/crates/agw/src/t001_bad_grammar.rs",
    ),
    (
        "T002",
        "metric names must fall under a known cardinality prefix",
        "crates/lint/tests/fixtures/bad/crates/agw/src/t002_unknown_prefix.rs",
    ),
    (
        "T003",
        "metric name missing from the docs/OBSERVABILITY.md inventory",
        "crates/lint/tests/fixtures/bad/crates/agw/src/t003_undocumented.rs",
    ),
    (
        "T004",
        "stale inventory entry matching no call site (workspace mode)",
        "crates/lint/tests/fixtures/drift",
    ),
    (
        "T005",
        "eventd kind const missing from docs/OBSERVABILITY.md",
        "crates/lint/tests/fixtures/bad/crates/sim/src/eventd.rs",
    ),
    (
        "T006",
        "profile_scope labels must follow the grammar and appear as scope rows",
        "crates/lint/tests/fixtures/bad/crates/agw/src/t006_bad_scope.rs",
    ),
    (
        "T007",
        "trace_start/trace_finish_as labels must follow the grammar and appear as trace rows",
        "crates/lint/tests/fixtures/bad/crates/agw/src/t007_bad_trace.rs",
    ),
    (
        "A001",
        "catch-all `_ =>` arm in an actor's top-level event match",
        "crates/lint/tests/fixtures/bad/crates/agw/src/a001_catch_all.rs",
    ),
    (
        "A002",
        "panicking accessors (unwrap/expect/indexing) on the hot serving path",
        "crates/lint/tests/fixtures/bad/crates/rpc/src/a002_hot_unwrap.rs",
    ),
    (
        "F001",
        "orphan flow kinds: never sent, never accepted, or unknown in accepts",
        "crates/lint/tests/fixtures/bad/crates/agw/src/f001_orphan.rs",
    ),
    (
        "F002",
        "zero-delay send cycle — same-timestamp livelock",
        "crates/lint/tests/fixtures/bad/crates/agw/src/f002_zero_cycle.rs",
    ),
    (
        "F003",
        "multi-sender dispatch without a tie-break contract",
        "crates/lint/tests/fixtures/bad/crates/agw/src/f003_no_tie_break.rs",
    ),
    (
        "F004",
        "request kind without a valid Timer-role retry self-edge",
        "crates/lint/tests/fixtures/bad/crates/agw/src/f004_request_no_retry.rs",
    ),
    (
        "F005",
        "Span::begin without a matching .finish anywhere in the workspace",
        "crates/lint/tests/fixtures/bad/crates/agw/src/f005_span_leak.rs",
    ),
    (
        "F006",
        "docs/MESSAGE_FLOW.md drifted from the extracted flow graph",
        "crates/lint/tests/fixtures/flowdrift",
    ),
    (
        "S004",
        "raw ctx.send / ctx.send_in outside the kernel bypasses the typed flow layer",
        "crates/lint/tests/fixtures/bad/crates/feg/src/s004_raw_send.rs",
    ),
    (
        "S006",
        "actor code reads schedule-dependent kernel-global state",
        "crates/lint/tests/fixtures/bad/crates/agw/src/s006_schedule_read.rs",
    ),
    (
        "S007",
        "multi-sender cut-edge tie-break key never names the sender",
        "crates/lint/tests/fixtures/bad/crates/agw/src/s007_constant_tie_break.rs",
    ),
];

/// Render the `--list-rules` inventory (golden-tested byte-for-byte
/// against `scripts/golden/lint_rules.txt`).
pub fn render_rule_list() -> String {
    let mut out = String::new();
    for (id, summary, fixture) in RULE_INFO {
        out.push_str(&format!("{id}  {summary}\n      fixture: {fixture}\n"));
    }
    out
}

/// Minimal JSON string escaping for the `--json` report (the lint stays
/// dependency-free).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Known first-segment namespaces for metric names — each is a bounded
/// cardinality class (per-service instrument families). Grown only
/// alongside `docs/OBSERVABILITY.md`.
pub const KNOWN_PREFIXES: &[&str] = &[
    // Gateway services (prefixed with the gateway id at runtime).
    "mme", "amf", "sessiond", "mobilityd", "pipelined", "dataplane", "metricsd", "cpu",
    "config", "wifi",
    // Orchestrator-side, kept local.
    "orc8r",
    // RAN-side (emulator-local), the traditional-EPC baseline, and the
    // kernel's own instruments.
    "ran", "epc", "sim",
];

/// Known second-segment families under the kernel's `sim.` prefix —
/// each one observability subsystem (`sim.cpu.*` queueing, `sim.prof.*`
/// simprof, `sim.trace.*` magma-trace). The T002 sub-check keeps new
/// kernel instruments from squatting an unreviewed namespace. Grown only
/// alongside `docs/OBSERVABILITY.md`.
pub const SIM_FAMILIES: &[&str] = &["cpu", "prof", "trace"];

/// A scanned file plus precomputed skip ranges (`#[cfg(test)]` items).
pub struct FileCtx<'a> {
    pub rel: &'a str,
    pub masked: &'a Masked,
    pub skips: Vec<(usize, usize)>,
}

impl<'a> FileCtx<'a> {
    pub fn new(rel: &'a str, masked: &'a Masked) -> Self {
        let skips = cfg_test_ranges(&masked.text);
        FileCtx { rel, masked, skips }
    }

    /// Build from precomputed skip ranges (the engine lexes and scans
    /// each file exactly once and shares the results across rules).
    pub fn with_skips(rel: &'a str, masked: &'a Masked, skips: Vec<(usize, usize)>) -> Self {
        FileCtx { rel, masked, skips }
    }

    pub(crate) fn skipped(&self, offset: usize) -> bool {
        self.skips.iter().any(|&(a, b)| offset >= a && offset < b)
    }

    /// Is this file part of the DES kernel (which owns time and RNG)?
    /// `contains` rather than `starts_with` so fixture trees that mirror
    /// the real layout (tests/fixtures/crates/sim/src/...) classify the
    /// same way regardless of the scan root.
    fn in_kernel(&self) -> bool {
        self.rel.contains("crates/sim/src")
    }

    /// Is this file on a hot serving path (A002 scope)?
    fn hot_path(&self) -> bool {
        self.rel.contains("crates/agw/src")
            || self.rel.contains("crates/orc8r/src")
            || self.rel.contains("crates/rpc/src")
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Find word-boundary occurrences of `needle` in `text`.
pub(crate) fn find_word(text: &str, needle: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        // The needle may end in a non-ident char (`(`, `)`); only apply a
        // boundary check when it ends in an identifier character.
        let last = needle.as_bytes()[needle.len() - 1];
        let after_ok =
            !is_ident_byte(last) || end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

/// Byte ranges covered by `#[cfg(test)]` items (test modules, test-only
/// fns): rules do not apply inside them — tests never feed exports.
pub(crate) fn cfg_test_ranges(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for at in find_word(text, "#[cfg(test)]") {
        let mut j = at + "#[cfg(test)]".len();
        // Skip whitespace and any further attributes.
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'#' {
                // Skip the whole `#[...]`, bracket-matched.
                let mut depth = 0;
                while j < bytes.len() {
                    match bytes[j] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            } else {
                break;
            }
        }
        // The item: ends at the first `;` or the matching `}` of the
        // first `{` encountered.
        let mut k = j;
        let mut found = None;
        while k < bytes.len() {
            match bytes[k] {
                b';' => {
                    found = Some(k + 1);
                    break;
                }
                b'{' => {
                    found = Some(match_brace(bytes, k));
                    break;
                }
                _ => k += 1,
            }
        }
        out.push((at, found.unwrap_or(bytes.len())));
    }
    out
}

/// Given `bytes[open] == b'{'`, return the index just past the matching
/// closing brace (or `bytes.len()` if unbalanced). Operates on masked
/// text, so braces inside strings/comments are already blanked.
pub(crate) fn match_brace(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < bytes.len() {
        match bytes[j] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    bytes.len()
}

// ---------------------------------------------------------------------------
// D rules — determinism
// ---------------------------------------------------------------------------

/// D001: hash-ordered collections anywhere in scanned (non-test) source.
pub fn d001_hash_collections(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let mut seen_lines = Vec::new();
    for name in ["HashMap", "HashSet"] {
        for at in find_word(&ctx.masked.text, name) {
            if ctx.skipped(at) {
                continue;
            }
            let line = ctx.masked.line_of(at);
            if seen_lines.contains(&(line, name)) {
                continue;
            }
            seen_lines.push((line, name));
            out.push(Finding::new(
                "D001",
                ctx.rel,
                line,
                format!(
                    "{name} iterates in hash order — use BTreeMap/BTreeSet (or justify \
                     point-lookup-only use with lint:allow)"
                ),
            ));
        }
    }
}

/// D002: wall-clock time and ambient RNG outside the kernel.
pub fn d002_ambient_entropy(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.in_kernel() {
        return;
    }
    for needle in [
        "Instant::now",
        "SystemTime::now",
        "thread_rng",
        "rand::random",
    ] {
        for at in find_word(&ctx.masked.text, needle) {
            if ctx.skipped(at) {
                continue;
            }
            out.push(Finding::new(
                "D002",
                ctx.rel,
                ctx.masked.line_of(at),
                format!(
                    "{needle} breaks same-seed reproducibility — use ctx.now() / the \
                     kernel-seeded ctx.rng()"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// T rules — telemetry naming
// ---------------------------------------------------------------------------

/// Method-call tokens whose first string argument names a `Registry`
/// instrument or series. Event kinds are consts checked by T005.
const METRIC_CALLS: &[&str] = &[
    ".metric(",      // gateway/enb helper: returns a prefixed name
    ".counter_add(", // Registry
    ".gauge_set(",   // Registry
    ".observe(",     // Registry
    ".observe_with(",
    ".record(", // Registry series
    "Span::begin(",
];

/// A metric name literal captured at a call site.
#[derive(Debug, Clone)]
pub struct NameUse {
    pub file: String,
    pub line: u32,
    /// Literal with `{...}` interpolations normalized to `*`.
    pub name: String,
    /// Captured from the `.metric(` prefixing helper: the registered
    /// name is `<prefix>.<name>`, so docs matching is suffix-based.
    pub via_helper: bool,
}

/// Normalize a format-string literal: each `{...}` hole becomes `*`.
pub fn normalize_name(lit: &str) -> String {
    let mut out = String::new();
    let mut chars = lit.chars();
    while let Some(c) = chars.next() {
        if c == '{' {
            for c2 in chars.by_ref() {
                if c2 == '}' {
                    break;
                }
            }
            out.push('*');
        } else {
            out.push(c);
        }
    }
    out
}

/// Does `name` parse as dotted snake_case (with `*` wildcards)?
pub fn grammar_ok(name: &str) -> bool {
    if name.is_empty() {
        return false;
    }
    name.split('.').all(|seg| {
        !seg.is_empty()
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '*')
            && seg.starts_with(|c: char| c.is_ascii_lowercase() || c == '*')
    })
}

/// Collect metric-name literals at curated call sites.
pub fn collect_name_uses(ctx: &FileCtx<'_>) -> Vec<NameUse> {
    // The registry implementation itself derives instrument names from
    // caller-provided bases (`<span>.<stage>_s`); those format strings
    // are mechanics, not registrations — the base is checked at every
    // `Span::begin` call site instead.
    if ctx.rel.ends_with("sim/src/registry.rs") {
        return Vec::new();
    }
    let text = &ctx.masked.text;
    let bytes = text.as_bytes();
    // (literal offset) -> (call-token offset, via_helper); when the same
    // literal is reachable from nested calls (`.record(&self.metric("x"))`)
    // the innermost call site wins — it is the one that determines how
    // the name is registered.
    let mut captures: Vec<(usize, usize, bool)> = Vec::new();
    for call in METRIC_CALLS {
        let mut from = 0;
        while let Some(pos) = text[from..].find(call) {
            let at = from + pos;
            from = at + call.len();
            if ctx.skipped(at) {
                continue;
            }
            // First string literal anywhere inside the argument list
            // (names built via `format!` still carry their literal).
            let mut depth = 1usize;
            let mut j = at + call.len();
            let mut lit_at = None;
            while j < bytes.len() && depth > 0 {
                match bytes[j] {
                    b'(' => depth += 1,
                    b')' => depth -= 1,
                    b'"' if lit_at.is_none() => lit_at = Some(j),
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = lit_at else { continue };
            match captures.iter_mut().find(|(lit, _, _)| *lit == open) {
                Some(entry) if entry.1 < at => {
                    entry.1 = at;
                    entry.2 = *call == ".metric(";
                }
                Some(_) => {}
                None => captures.push((open, at, *call == ".metric(")),
            }
        }
    }
    let mut uses: Vec<NameUse> = Vec::new();
    for (open, _, via_helper) in captures {
        let Some(lit) = ctx.masked.strings.iter().find(|s| s.start == open) else {
            continue;
        };
        uses.push(NameUse {
            file: ctx.rel.to_string(),
            line: lit.line,
            name: normalize_name(&lit.value),
            via_helper,
        });
    }
    uses.sort_by_key(|u| u.line);
    uses
}

/// T001 + T002 + T003 for one file's captured names, against the docs
/// inventory (None = docs missing; every name is then undocumented).
pub fn t_rules(
    uses: &[NameUse],
    inventory: Option<&[String]>,
    out: &mut Vec<Finding>,
) {
    for u in uses {
        if !grammar_ok(&u.name) {
            out.push(Finding {
                rule: "T001",
                file: u.file.clone(),
                line: u.line,
                msg: format!(
                    "metric name {:?} is not dotted snake_case ([a-z0-9_*] segments)",
                    u.name
                ),
                allowed: false,
                reason: None,
            });
            continue;
        }
        // Docs match: exact, or inventory entry ending in `.<name>` for
        // helper-prefixed call sites.
        let matched: Option<&String> = inventory.and_then(|inv| {
            inv.iter().find(|e| {
                *e == &u.name || (u.via_helper && e.ends_with(&format!(".{}", u.name)))
            })
        });
        // Prefix check on the full registered form when known, else on
        // the literal itself.
        let full = matched.map(|s| s.as_str()).unwrap_or(&u.name);
        let mut segs = full.split('.');
        let first = segs.next().unwrap_or("");
        let prefix_ok = KNOWN_PREFIXES.contains(&first)
            || (first == "*"
                && segs
                    .next()
                    .map(|s| KNOWN_PREFIXES.contains(&s))
                    .unwrap_or(false));
        if !prefix_ok {
            out.push(Finding {
                rule: "T002",
                file: u.file.clone(),
                line: u.line,
                msg: format!(
                    "metric name {:?} is not under a known cardinality prefix ({})",
                    full,
                    KNOWN_PREFIXES.join(", ")
                ),
                allowed: false,
                reason: None,
            });
        }
        // Second tier: kernel instruments must sit in a registered
        // `sim.<family>` namespace (wildcard family literals are
        // resolved through the docs inventory like the first tier).
        if prefix_ok && first == "sim" {
            let family = full.split('.').nth(1).unwrap_or("");
            if family != "*" && !SIM_FAMILIES.contains(&family) {
                out.push(Finding {
                    rule: "T002",
                    file: u.file.clone(),
                    line: u.line,
                    msg: format!(
                        "metric name {:?} is not under a known sim.<family> namespace ({})",
                        full,
                        SIM_FAMILIES.join(", ")
                    ),
                    allowed: false,
                    reason: None,
                });
            }
        }
        if matched.is_none() {
            out.push(Finding {
                rule: "T003",
                file: u.file.clone(),
                line: u.line,
                msg: format!(
                    "metric name {:?} is missing from the docs/OBSERVABILITY.md inventory",
                    u.name
                ),
                allowed: false,
                reason: None,
            });
        }
    }
}

/// A `profile_scope` label literal captured at a call site.
#[derive(Debug, Clone)]
pub struct ScopeUse {
    pub file: String,
    pub line: u32,
    /// Literal with `{...}` interpolations normalized to `*` (labels are
    /// `&'static str`, so holes never appear in practice).
    pub name: String,
}

/// Collect the first string-literal argument of every `call` site into
/// label uses (shared by the T006 scope and T007 trace collectors).
fn collect_label_uses(ctx: &FileCtx<'_>, call: &str, uses: &mut Vec<ScopeUse>) {
    let text = &ctx.masked.text;
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(call) {
        let at = from + pos;
        from = at + call.len();
        if ctx.skipped(at) {
            continue;
        }
        let mut depth = 1usize;
        let mut j = at + call.len();
        let mut lit_at = None;
        while j < bytes.len() && depth > 0 {
            match bytes[j] {
                b'(' => depth += 1,
                b')' => depth -= 1,
                b'"' if lit_at.is_none() => lit_at = Some(j),
                _ => {}
            }
            j += 1;
        }
        let Some(open) = lit_at else { continue };
        let Some(lit) = ctx.masked.strings.iter().find(|s| s.start == open) else {
            continue;
        };
        uses.push(ScopeUse {
            file: ctx.rel.to_string(),
            line: lit.line,
            name: normalize_name(&lit.value),
        });
    }
}

/// Collect `Ctx::profile_scope(...)` label literals. The guard's
/// definition takes no literal, so only call sites are captured.
pub fn collect_scope_uses(ctx: &FileCtx<'_>) -> Vec<ScopeUse> {
    let mut uses = Vec::new();
    collect_label_uses(ctx, ".profile_scope(", &mut uses);
    uses
}

/// Collect `Ctx::trace_start(...)` / `Ctx::trace_finish_as(...)`
/// procedure-label literals (T007). The methods' definitions take no
/// literal, so only call sites are captured.
pub fn collect_trace_uses(ctx: &FileCtx<'_>) -> Vec<ScopeUse> {
    let mut uses = Vec::new();
    collect_label_uses(ctx, ".trace_start(", &mut uses);
    collect_label_uses(ctx, ".trace_finish_as(", &mut uses);
    uses
}

/// T006 (use direction): scope labels must parse under the metric-name
/// grammar and appear in the docs inventory as `scope` rows. Labels are
/// subsystem-local (never gateway-prefixed at registration), so the
/// T002 prefix check deliberately does not apply. The reverse direction
/// — a documented scope with no call site — is checked workspace-wide
/// by the engine under the same rule id.
pub fn t006_scope_labels(
    uses: &[ScopeUse],
    scope_inventory: Option<&[String]>,
    out: &mut Vec<Finding>,
) {
    for u in uses {
        if !grammar_ok(&u.name) {
            out.push(Finding {
                rule: "T006",
                file: u.file.clone(),
                line: u.line,
                msg: format!(
                    "scope label {:?} is not dotted snake_case ([a-z0-9_*] segments)",
                    u.name
                ),
                allowed: false,
                reason: None,
            });
            continue;
        }
        let documented = scope_inventory
            .map(|inv| inv.iter().any(|e| e == &u.name))
            .unwrap_or(false);
        if !documented {
            out.push(Finding {
                rule: "T006",
                file: u.file.clone(),
                line: u.line,
                msg: format!(
                    "scope label {:?} has no `scope` row in the docs/OBSERVABILITY.md \
                     inventory",
                    u.name
                ),
                allowed: false,
                reason: None,
            });
        }
    }
}

/// T007 (use direction): magma-trace procedure labels must parse under
/// the metric-name grammar and appear in the docs inventory as `trace`
/// rows. Labels are single snake_case tokens (`attach`, `path_switch`)
/// keying the `sim.trace.<label>.*` metric family, so the T002 prefix
/// check does not apply. The reverse direction — a documented trace
/// label with no call site — is checked workspace-wide by the engine
/// under the same rule id.
pub fn t007_trace_labels(
    uses: &[ScopeUse],
    trace_inventory: Option<&[String]>,
    out: &mut Vec<Finding>,
) {
    for u in uses {
        if !grammar_ok(&u.name) {
            out.push(Finding {
                rule: "T007",
                file: u.file.clone(),
                line: u.line,
                msg: format!(
                    "trace label {:?} is not dotted snake_case ([a-z0-9_*] segments)",
                    u.name
                ),
                allowed: false,
                reason: None,
            });
            continue;
        }
        let documented = trace_inventory
            .map(|inv| inv.iter().any(|e| e == &u.name))
            .unwrap_or(false);
        if !documented {
            out.push(Finding {
                rule: "T007",
                file: u.file.clone(),
                line: u.line,
                msg: format!(
                    "trace label {:?} has no `trace` row in the docs/OBSERVABILITY.md \
                     inventory",
                    u.name
                ),
                allowed: false,
                reason: None,
            });
        }
    }
}

/// T005: event-kind consts in the kernel's eventd module must appear in
/// the docs (taxonomy table or prose, as `` `kind` ``).
pub fn t005_event_kinds(ctx: &FileCtx<'_>, docs_text: Option<&str>, out: &mut Vec<Finding>) {
    if !ctx.rel.ends_with("sim/src/eventd.rs") {
        return;
    }
    let text = &ctx.masked.text;
    for at in find_word(text, "const") {
        // Only `&str` consts are event kinds.
        let line_end = text[at..].find('\n').map(|p| at + p).unwrap_or(text.len());
        let decl = &text[at..line_end];
        if !decl.contains("&str") {
            continue;
        }
        let Some(lit) = ctx
            .masked
            .strings
            .iter()
            .find(|s| s.start > at && s.start < line_end)
        else {
            continue;
        };
        let documented = docs_text
            .map(|d| d.contains(&format!("`{}`", lit.value)))
            .unwrap_or(false);
        if !documented {
            out.push(Finding::new(
                "T005",
                ctx.rel,
                lit.line,
                format!(
                    "event kind {:?} is not documented in docs/OBSERVABILITY.md",
                    lit.value
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// A rules — actor hygiene
// ---------------------------------------------------------------------------

/// A001: `_ =>` catch-all arms in the top-level `match event` of an
/// `impl Actor for ...` `handle` body. A new `Event` variant must be a
/// compile error at every dispatch site, not silently swallowed.
pub fn a001_catch_all_dispatch(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let text = &ctx.masked.text;
    let bytes = text.as_bytes();
    for impl_at in find_word(text, "impl Actor for") {
        if ctx.skipped(impl_at) {
            continue;
        }
        let Some(impl_open) = text[impl_at..].find('{').map(|p| impl_at + p) else {
            continue;
        };
        let impl_end = match_brace(bytes, impl_open);
        let impl_body = &text[impl_open..impl_end];
        let Some(fn_rel) = impl_body.find("fn handle") else {
            continue;
        };
        let fn_at = impl_open + fn_rel;
        let Some(fn_open) = text[fn_at..impl_end].find('{').map(|p| fn_at + p) else {
            continue;
        };
        let fn_end = match_brace(bytes, fn_open);
        // First `match` whose scrutinee mentions the event binding.
        let mut search = fn_open;
        let mut match_open = None;
        while let Some(m_rel) = text[search..fn_end].find("match ") {
            let m_at = search + m_rel;
            let Some(open) = text[m_at..fn_end].find('{').map(|p| m_at + p) else {
                break;
            };
            let scrutinee = &text[m_at + 6..open];
            if find_word(scrutinee, "event").is_empty() && find_word(scrutinee, "ev").is_empty()
            {
                search = open + 1;
                continue;
            }
            match_open = Some(open);
            break;
        }
        let Some(open) = match_open else { continue };
        let close = match_brace(bytes, open);
        // Scan arms at brace depth 1, paren/bracket depth 0.
        let mut brace = 0i32;
        let mut paren = 0i32;
        let mut j = open;
        while j < close {
            match bytes[j] {
                b'{' => brace += 1,
                b'}' => brace -= 1,
                b'(' | b'[' => paren += 1,
                b')' | b']' => paren -= 1,
                b'_' if brace == 1 && paren == 0 => {
                    let before_ok = !is_ident_byte(bytes[j - 1]);
                    let after = bytes.get(j + 1).copied().unwrap_or(b' ');
                    if before_ok && !is_ident_byte(after) {
                        // `_` token at arm level: catch-all if followed by
                        // `=>` (optionally via a guard `if ... =>`).
                        let rest = text[j + 1..close].trim_start();
                        if rest.starts_with("=>") || rest.starts_with("if ") {
                            out.push(Finding::new(
                                "A001",
                                ctx.rel,
                                ctx.masked.line_of(j),
                                "catch-all `_ =>` in actor event dispatch — enumerate \
                                 Event variants so new ones are a compile error"
                                    .to_string(),
                            ));
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
}

/// A002: panicking accessors on the hot serving path.
pub fn a002_hot_path_unwrap(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.hot_path() {
        return;
    }
    for needle in [".unwrap()", ".expect("] {
        for at in find_word(&ctx.masked.text, needle) {
            if ctx.skipped(at) {
                continue;
            }
            out.push(Finding::new(
                "A002",
                ctx.rel,
                ctx.masked.line_of(at),
                format!(
                    "`{}` on a hot path can panic the gateway — restructure, or \
                     justify the invariant with lint:allow",
                    needle.trim_end_matches('(')
                ),
            ));
        }
    }
    // Direct slice/map indexing (`ident[...]`) panics on out-of-bounds /
    // missing keys just like `.unwrap()`. Lexical net: an ident byte
    // immediately followed by `[` — this skips `#[attr]`, `vec![..]`,
    // array types `[u8; 4]`, and pattern positions (all preceded by a
    // non-ident byte). Chained forms (`)[`, `][`) are out of scope.
    let bytes = ctx.masked.text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 || !is_ident_byte(bytes[i - 1]) || ctx.skipped(i) {
            continue;
        }
        out.push(Finding::new(
            "A002",
            ctx.rel,
            ctx.masked.line_of(i),
            "direct indexing on a hot path can panic the gateway — use \
             `.get(..)` and handle the miss, or justify the bound with \
             lint:allow"
                .to_string(),
        ));
    }
}

/// S004: raw `ctx.send(` / `ctx.send_in(` outside the kernel. The typed
/// `send_to` family carries the edge's declared `FlowKind` — what the
/// flow graph, tracing and the debug delay-class asserts all rely on.
pub fn s004_raw_sends(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.in_kernel() {
        return;
    }
    let text = &ctx.masked.text;
    for needle in ["ctx.send(", "ctx.send_in("] {
        let mut from = 0;
        while let Some(p) = text[from..].find(needle) {
            let at = from + p;
            from = at + 1;
            if ctx.skipped(at) {
                continue;
            }
            out.push(Finding::new(
                "S004",
                ctx.rel,
                ctx.masked.line_of(at),
                format!(
                    "raw `{needle}..)` bypasses the typed flow layer — route through the \
                     `send_to` family so the edge carries its declared FlowKind"
                ),
            ));
        }
    }
}

/// S006: actor code reading schedule-dependent kernel-global state.
///
/// Racecheck's permuted drain makes the component order inside a window
/// a free parameter, so any value an actor derives from kernel-global
/// observability state — the event-heap shape, the global dispatch
/// counter, live trace spans, the RPC edge counters, or another
/// component's registry namespace — depends on the schedule. Folding it
/// into actor state is a logical race even on the single-threaded
/// engine.
///
/// Scope: files that implement a dispatch surface (`impl Actor for`)
/// outside the kernel; helper fns in the same file count, since the
/// dispatch path can reach them. Registry *writes* (`counter_add`,
/// `gauge_set`, `observe`, `record`) stay legal — they are commutative
/// folds — and so do reads of the actor's own namespace: exporting it
/// (`snapshot_prefixed(&self...)`, the metricsd pattern) or reading one
/// of its counters (`counter(&self...)`, the check-in body).
pub fn s006_schedule_state_reads(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.in_kernel() {
        return;
    }
    let text = &ctx.masked.text;
    if !find_word(text, "impl Actor for")
        .iter()
        .any(|&at| !ctx.skipped(at))
    {
        return;
    }
    const GLOBALS: &[(&str, &str)] = &[
        ("heap_stats(", "the event-heap shape"),
        ("events_processed(", "the global dispatch counter"),
        ("trace_snapshot(", "live trace spans"),
        ("shard_snapshot(", "the RPC edge counters"),
    ];
    for (needle, what) in GLOBALS {
        for at in find_word(text, needle) {
            if ctx.skipped(at) {
                continue;
            }
            if text[..at].trim_end().ends_with("fn") {
                continue; // a definition, not a call.
            }
            out.push(Finding::new(
                "S006",
                ctx.rel,
                ctx.masked.line_of(at),
                format!(
                    "actor code reads {what} via `{}` — kernel-global state is an \
                     artifact of the window schedule, so folding it into actor \
                     state is a logical race (racecheck would flag the divergence)",
                    needle.trim_end_matches('('),
                ),
            ));
        }
    }
    // Registry reads: flag read accessors on a `registry()` receiver.
    let bytes = text.as_bytes();
    const READS: &[&str] = &[
        "counter",
        "gauge",
        "histogram",
        "series",
        "snapshot",
        "snapshot_prefixed",
        "counter_names",
        "gauge_names",
        "histogram_names",
        "mutation_count",
    ];
    for at in find_word(text, "registry()") {
        if ctx.skipped(at) {
            continue;
        }
        let mut j = at + "registry()".len();
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if bytes.get(j) != Some(&b'.') {
            continue;
        }
        j += 1;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let start = j;
        while j < bytes.len() && is_ident_byte(bytes[j]) {
            j += 1;
        }
        let method = &text[start..j];
        if !READS.contains(&method) {
            continue;
        }
        if matches!(method, "snapshot_prefixed" | "counter") && bytes.get(j) == Some(&b'(') {
            // Own-namespace read: the prefix or name derives from the
            // actor's own id field, so the argument list mentions `self`.
            let mut depth = 0i32;
            let mut k = j;
            while k < bytes.len() {
                match bytes[k] {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            if !find_word(&text[j..k.min(bytes.len())], "self").is_empty() {
                continue;
            }
        }
        out.push(Finding::new(
            "S006",
            ctx.rel,
            ctx.masked.line_of(at),
            format!(
                "actor code reads the metric registry (`registry().{method}(..)`) — \
                 cross-component registry state depends on which components already \
                 drained this window; actors may only write metrics, or read \
                 their own namespace (`snapshot_prefixed(&self...)`, `counter(&self...)`)",
            ),
        ));
    }
}

/// S007: a dispatch accepting Transport-class kinds — every edge that
/// rides a modelled link, the only edges that may join two racecheck
/// components — from multiple senders must name the sender in its
/// tie-break key. F003 only demands that *a* key exists; a sender-blind
/// one ("round-robin slot") passes it while still letting the window
/// schedule pick which component's delivery wins. Multiple senders means
/// two top-level sender namespaces (`agw.epc_baseline` stands in for
/// `agw`, `ran.enb` and `ran.wifi` are both `ran`), a wildcard, or a hub
/// actor with a transport self-edge (`net.stack`): one name, one instance
/// per node. The check is lexical: the key must mention
/// sender/src/from/peer/source/origin.
pub fn s007_sender_blind_tie_break(g: &FlowGraph, out: &mut Vec<Finding>) {
    const SENDER_TOKENS: &[&str] = &["sender", "src", "from", "peer", "source", "origin"];
    let transport = || g.kinds.iter().filter(|k| k.class == "Transport");
    let hubs: BTreeSet<&str> = transport()
        .filter(|k| k.sender == k.receiver && k.sender != "*")
        .map(|k| k.sender.as_str())
        .collect();
    for d in &g.dispatches {
        let Some(key) = &d.tie_break else {
            continue; // no key at all is F003's finding, not S007's.
        };
        let mut senders: BTreeSet<&str> = BTreeSet::new();
        let mut kinds: Vec<&str> = Vec::new();
        let mut hub = false;
        for k in transport().filter(|k| d.accepts.contains(&k.ident)) {
            kinds.push(&k.ident);
            hub |= hubs.contains(k.sender.as_str());
            senders.extend(k.sender.split('.').next());
        }
        if !hub && senders.len() < 2 && !senders.contains("*") {
            continue;
        }
        let lower = key.to_lowercase();
        if SENDER_TOKENS
            .iter()
            .any(|t| !find_word(&lower, t).is_empty())
        {
            continue;
        }
        out.push(Finding::new(
            "S007",
            &d.file,
            d.line,
            format!(
                "dispatch `{}` (actor {:?}) accepts transport kinds [{}] deliverable \
                 from multiple senders ([{}]) but its tie-break key {:?} never names \
                 the sender — same-window deliveries from distinct components need \
                 sender identity in the commutativity key (mention \
                 sender/src/from/peer/source/origin)",
                d.ident,
                d.actor,
                kinds.join(", "),
                senders.into_iter().collect::<Vec<_>>().join(", "),
                key,
            ),
        ));
    }
}
