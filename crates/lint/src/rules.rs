//! Rule implementations. Each rule scans the masked source of one file
//! (see `lexer`) and yields findings; every finding fails the build.
//!
//! Rule identifiers:
//!
//! - `T001` name-grammar: every captured telemetry name (metric,
//!   series, scope, trace or event) must be dotted snake_case.
//! - `T002` metric-prefix: instrument and series names must fall under a
//!   known cardinality prefix (service namespace).
//! - `T003` inventory: every captured name needs a row of its type in
//!   the `docs/OBSERVABILITY.md` inventory, and (workspace mode only)
//!   every row needs a captured use.
//! - `A001` catch-all-dispatch: `_ =>` arm in an actor's top-level
//!   `match event`.
//! - `A002` hot-path-unwrap: `.unwrap()`/`.expect(`/direct `ident[..]`
//!   indexing in agw/orc8r/rpc.
//! - `S006` registry-read: actor code must not read another
//!   component's metric-registry namespace — which components already
//!   drained a racecheck window is an artifact of the schedule.
//!
//! What the compiler can check is not lexed here. The determinism bans
//! (hash collections, wall clocks, ambient entropy) and the ban on raw
//! `Ctx::send_in` are clippy's `disallowed_types`/`disallowed_methods`
//! (`clippy.toml`). The message-flow graph rules (F001–F004, S007) are
//! typed checks over the dispatch consts, in `magma_sim::flow`.

use crate::lexer::Masked;

/// One rule hit.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Path relative to the workspace root, forward slashes.
    pub file: String,
    pub line: u32,
    pub msg: String,
}

impl Finding {
    pub(crate) fn new(rule: &'static str, file: &str, line: u32, msg: String) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            msg,
        }
    }
}

/// All rule identifiers, for the summary report.
pub const ALL_RULES: &[&str] = &["T001", "T002", "T003", "A001", "A002", "S006"];

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
/// each one observability subsystem (`sim.cpu.*`: CPU-model queueing).
/// The T002 sub-check keeps new kernel instruments from squatting an
/// unreviewed namespace. Grown only alongside `docs/OBSERVABILITY.md`.
pub const SIM_FAMILIES: &[&str] = &["cpu"];

/// A scanned file plus precomputed skip ranges (`#[cfg(test)]` items).
/// The engine lexes and scans each file exactly once and shares the
/// results across rules.
pub struct FileCtx<'a> {
    pub rel: &'a str,
    pub masked: &'a Masked,
    pub skips: &'a [(usize, usize)],
}

impl<'a> FileCtx<'a> {
    fn skipped(&self, offset: usize) -> bool {
        self.skips.iter().any(|&(a, b)| offset >= a && offset < b)
    }

    /// Is this file part of the DES kernel, whose registry reads are
    /// its own? `contains` rather than `starts_with` so fixture trees
    /// that mirror the real layout (tests/fixtures/crates/sim/src/...)
    /// classify the same way regardless of the scan root.
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
fn find_word(text: &str, needle: &str) -> Vec<usize> {
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
fn match_brace(bytes: &[u8], open: usize) -> usize {
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
// T rules — the telemetry-name inventory
// ---------------------------------------------------------------------------

/// The inventory row type a captured name must be documented under.
/// Instruments and series share one type: the docs Type cell (`counter`,
/// `span`, `series`, ...) describes them but does not gate the match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowType {
    Metric,
    /// `Ctx::profile_scope` labels of the simprof layer.
    Scope,
    /// magma-trace procedure labels (`trace_start` / `trace_finish_as`).
    Trace,
    /// `&str` kind consts of the kernel's eventd module.
    Event,
}

impl RowType {
    /// Route a docs Type cell to the row type it documents.
    pub(crate) fn of_cell(cell: &str) -> RowType {
        match cell {
            "scope" => RowType::Scope,
            "trace" => RowType::Trace,
            "event" => RowType::Event,
            _ => RowType::Metric,
        }
    }

    fn noun(self) -> &'static str {
        match self {
            RowType::Metric => "metric name",
            RowType::Scope => "scope label",
            RowType::Trace => "trace label",
            RowType::Event => "event kind",
        }
    }
}

/// Call tokens whose first string argument is a telemetry name, with the
/// row type that documents it.
const NAME_CALLS: &[(&str, RowType)] = &[
    (".metric(", RowType::Metric), // gateway/enb helper: returns a prefixed name
    (".counter_add(", RowType::Metric), // Registry
    (".gauge_set(", RowType::Metric),
    (".observe(", RowType::Metric),
    (".observe_with(", RowType::Metric),
    (".record(", RowType::Metric), // Registry series
    ("Span::begin(", RowType::Metric),
    (".profile_scope(", RowType::Scope),
    (".trace_start(", RowType::Trace),
    (".trace_finish_as(", RowType::Trace),
];

/// A telemetry name captured at a call site (or an eventd kind const).
#[derive(Debug, Clone)]
pub struct NameUse {
    pub file: String,
    pub line: u32,
    /// Literal with `{...}` interpolations normalized to `*`.
    pub name: String,
    /// Captured from the `.metric(` prefixing helper: the registered
    /// name is `<prefix>.<name>`, so docs matching is suffix-based.
    pub via_helper: bool,
    pub row: RowType,
}

impl NameUse {
    /// Does inventory row `r` document this use? Same row type, and the
    /// same name — or, for helper-prefixed names, a row ending `.<name>`.
    fn documented_by(&self, r: &DocRow) -> bool {
        r.row == self.row
            && (r.name == self.name
                || (self.via_helper && r.name.ends_with(&format!(".{}", self.name))))
    }
}

/// One row of the `docs/OBSERVABILITY.md` inventory table.
#[derive(Debug, Clone)]
pub struct DocRow {
    /// Normalized name (`<gw>`/`<stage>` holes become `*`).
    pub name: String,
    pub row: RowType,
    /// Line in the docs file.
    pub line: u32,
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

/// Collect every telemetry name in one file: first string literals at
/// the `NAME_CALLS` sites, plus the `&str` kind consts when the file
/// is the kernel's eventd module.
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
    // (literal offset, call-token offset, via_helper, row type); when the
    // same literal is reachable from nested calls
    // (`.record(&self.metric("x"))`) the innermost call site wins — it
    // determines how the name registers.
    let mut captures: Vec<(usize, usize, bool, RowType)> = Vec::new();
    for &(call, row) in NAME_CALLS {
        let capture = (call == ".metric(", row);
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
            let c = (open, at, capture.0, capture.1);
            match captures.iter_mut().find(|(lit, ..)| *lit == open) {
                Some(prev) if prev.1 < at => *prev = c,
                Some(_) => {}
                None => captures.push(c),
            }
        }
    }
    let mut lits: Vec<(usize, bool, RowType)> =
        captures.into_iter().map(|(open, _, helper, row)| (open, helper, row)).collect();
    if ctx.rel.ends_with("sim/src/eventd.rs") {
        for at in find_word(text, "const") {
            let line_end = text[at..].find('\n').map(|p| at + p).unwrap_or(text.len());
            if ctx.skipped(at) || !text[at..line_end].contains("&str") {
                continue;
            }
            if let Some(lit) = ctx
                .masked
                .strings
                .iter()
                .find(|s| s.start > at && s.start < line_end)
            {
                lits.push((lit.start, false, RowType::Event));
            }
        }
    }
    let mut uses: Vec<NameUse> = Vec::new();
    for (open, via_helper, row) in lits {
        let Some(lit) = ctx.masked.strings.iter().find(|s| s.start == open) else {
            continue;
        };
        uses.push(NameUse {
            file: ctx.rel.to_string(),
            line: lit.line,
            name: normalize_name(&lit.value),
            via_helper,
            row,
        });
    }
    uses.sort_by_key(|u| u.line);
    uses
}

/// T001–T003 for one file's captured names against the docs inventory
/// (None = docs missing; every name is then undocumented). T002 applies
/// to instrument and series names only: scope, trace and event labels
/// are never gateway-prefixed at registration.
pub fn t_rules(uses: &[NameUse], inventory: Option<&[DocRow]>, out: &mut Vec<Finding>) {
    for u in uses {
        if !grammar_ok(&u.name) {
            out.push(Finding::new(
                "T001",
                &u.file,
                u.line,
                format!(
                    "{} {:?} is not dotted snake_case ([a-z0-9_*] segments)",
                    u.row.noun(),
                    u.name
                ),
            ));
            continue;
        }
        let matched = inventory.and_then(|inv| inv.iter().find(|r| u.documented_by(r)));
        if u.row == RowType::Metric {
            // Prefix check on the full registered form when known, else
            // on the literal itself.
            t002_prefix(u, matched.map_or(&u.name, |r| &r.name), out);
        }
        if matched.is_none() {
            out.push(Finding::new(
                "T003",
                &u.file,
                u.line,
                format!(
                    "{} {:?} is missing from the docs/OBSERVABILITY.md inventory",
                    u.row.noun(),
                    u.name
                ),
            ));
        }
    }
}

/// T002: `full` (the registered form of `u`) must sit under a known
/// service prefix and, for kernel instruments, a known `sim.<family>`.
fn t002_prefix(u: &NameUse, full: &str, out: &mut Vec<Finding>) {
    let mut segs = full.split('.');
    let first = segs.next().unwrap_or("");
    let prefix_ok = KNOWN_PREFIXES.contains(&first)
        || (first == "*" && segs.next().is_some_and(|s| KNOWN_PREFIXES.contains(&s)));
    if !prefix_ok {
        out.push(Finding::new(
            "T002",
            &u.file,
            u.line,
            format!(
                "metric name {:?} is not under a known cardinality prefix ({})",
                full,
                KNOWN_PREFIXES.join(", ")
            ),
        ));
    }
    // Second tier: kernel instruments must sit in a registered
    // `sim.<family>` namespace (wildcard family literals are resolved
    // through the docs inventory like the first tier).
    if prefix_ok && first == "sim" {
        let family = full.split('.').nth(1).unwrap_or("");
        if family != "*" && !SIM_FAMILIES.contains(&family) {
            out.push(Finding::new(
                "T002",
                &u.file,
                u.line,
                format!(
                    "metric name {:?} is not under a known sim.<family> namespace ({})",
                    full,
                    SIM_FAMILIES.join(", ")
                ),
            ));
        }
    }
}

/// T003's workspace direction: inventory rows that no captured use
/// matches (stale docs). Only a whole-workspace scan can tell.
pub fn t003_stale_rows(uses: &[NameUse], inventory: &[DocRow], out: &mut Vec<Finding>) {
    for r in inventory {
        if !uses.iter().any(|u| u.documented_by(r)) {
            out.push(Finding::new(
                "T003",
                "docs/OBSERVABILITY.md",
                r.line,
                format!(
                    "documented {} {:?} matches no call site — stale docs entry",
                    r.row.noun(),
                    r.name
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
                    "`{}` on a hot path can panic the gateway — restructure so \
                     the invariant is in the types",
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
             `.get(..)` and handle the miss"
                .to_string(),
        ));
    }
}

/// S006: actor code reading another component's registry namespace.
///
/// Racecheck's permuted drain makes the component order inside a window
/// a free parameter, so a value an actor reads from another component's
/// registry namespace depends on which components already drained this
/// window. Folding it into actor state is a logical race even on the
/// single-threaded engine. (The other kernel-global observability state
/// — heap shape, dispatch counter, live traces, RPC edge counters — is
/// `World`'s alone: `Ctx` exposes none of it.)
///
/// Scope: files that implement a dispatch surface (`impl Actor for`)
/// outside the kernel; helper fns in the same file count, since the
/// dispatch path can reach them. Registry *writes* (`counter_add`,
/// `gauge_set`, `observe`, `record`) stay legal — they are commutative
/// folds — and so do reads of the actor's own namespace: exporting it
/// (`snapshot_prefixed(&self...)`, the metricsd pattern) or reading one
/// of its counters (`counter(&self...)`, the check-in body).
pub fn s006_registry_reads(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
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
