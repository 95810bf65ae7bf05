//! Cross-crate message-flow graph analysis: the F-rule family.
//!
//! `magma-sim` requires every production actor-to-actor edge to be
//! declared as a `pub const` struct literal of the kernel's flow-kind
//! type, and every receiving actor to declare its dispatch surface with
//! the kernel's dispatch macro. Both are flat literal blocks, so this
//! module can extract the full directed graph of
//! `(sender, kind, receiver, delay class)` edges *lexically* — no type
//! checker — and prove the properties the schedule relies on:
//!
//! - `F001` orphan kinds: declared but never sent, sent but no dispatch
//!   arm, arm/receiver mismatches, unknown idents in an accepts list,
//!   and duplicate kind idents/names.
//! - `F002` zero-delay send cycles: a cycle of `Zero`-class edges
//!   (excluding demand-bounded `Response` edges and wildcard endpoints)
//!   can livelock virtual time.
//! - `F003` same-timestamp commutativity hazards: a dispatch that
//!   accepts kinds from two or more distinct senders (or a wildcard
//!   sender) must document its tie-break key.
//! - `F004` request kinds must name a retry edge: `Request`-role kinds
//!   need `retry: Some(t)` where `t` is a declared `Timer`-role kind
//!   with the same sender (any kind naming a retry gets the same
//!   target validation).
//! - `F006` graph drift: `docs/MESSAGE_FLOW.md` is generated from the
//!   extracted graph and must match it byte-for-byte (both directions —
//!   any difference is drift). Regenerate with `--write-flow`.
//!
//! Send-site detection is a word-reference heuristic: a kind counts as
//! "sent" iff its const ident is referenced outside its own declaration
//! and outside every dispatch block. `#[cfg(test)]` ranges are invisible
//! to extraction and reference counting, and integration tests are not
//! scanned at all — test-local kinds do not pollute the graph.

use crate::engine::SourceFile;
use crate::rules::{find_word, match_brace, FileCtx, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// One parsed flow-kind const declaration.
#[derive(Debug, Clone)]
pub struct KindDecl {
    pub ident: String,
    pub name: String,
    pub sender: String,
    pub receiver: String,
    /// `Zero` / `Local` / `Transport` (last path segment, as written).
    pub class: String,
    /// `Data` / `Request` / `Response` / `Timer`.
    pub role: String,
    /// Target kind *name* from `retry: Some("...")`.
    pub retry: Option<String>,
    pub file: String,
    pub line: u32,
}

/// One parsed dispatch declaration.
#[derive(Debug, Clone)]
pub struct DispatchDecl {
    pub ident: String,
    pub actor: String,
    /// Last path segment of each accepts entry.
    pub accepts: Vec<String>,
    pub tie_break: Option<String>,
    pub file: String,
    pub line: u32,
}

/// Flow declarations extracted from one file, plus the byte ranges those
/// declarations span (excluded from send-site detection).
#[derive(Debug, Default)]
pub struct FileFlows {
    pub kinds: Vec<KindDecl>,
    pub dispatches: Vec<DispatchDecl>,
    pub decl_ranges: Vec<(usize, usize)>,
}

/// The assembled workspace message-flow graph.
#[derive(Debug, Default)]
pub struct FlowGraph {
    pub kinds: Vec<KindDecl>,
    pub dispatches: Vec<DispatchDecl>,
    /// Kind idents word-referenced outside declarations and dispatches.
    pub sent: BTreeSet<String>,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn skip_ws(bytes: &[u8], mut j: usize) -> usize {
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    j
}

fn ident_at(bytes: &[u8], j: usize) -> (String, usize) {
    let mut k = j;
    while k < bytes.len() && is_ident_byte(bytes[k]) {
        k += 1;
    }
    (
        String::from_utf8_lossy(&bytes[j..k]).to_string(),
        k,
    )
}

/// Look up the string literal whose opening quote is the first `"` in
/// `text[from..to]`.
fn first_string<'a>(ctx: &'a FileCtx<'_>, from: usize, to: usize) -> Option<&'a str> {
    let text = &ctx.masked.text;
    let at = text[from..to.min(text.len())].find('"').map(|p| from + p)?;
    ctx.masked
        .strings
        .iter()
        .find(|s| s.start == at)
        .map(|s| s.value.as_str())
}

/// Find `field :` inside `text[from..to]` and return the offset just
/// past the colon.
fn field_colon(text: &str, from: usize, to: usize, field: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    for at in find_word(&text[from..to], field) {
        let j = skip_ws(bytes, from + at + field.len());
        if j < to && bytes[j] == b':' && bytes.get(j + 1) != Some(&b':') {
            return Some(j + 1);
        }
    }
    None
}

/// Parse `Path::Segment` after a field colon: the last `::` segment.
fn path_segment(text: &str, from: usize, to: usize) -> Option<String> {
    let bytes = text.as_bytes();
    let mut j = skip_ws(bytes, from);
    let start = j;
    while j < to && (is_ident_byte(bytes[j]) || bytes[j] == b':') {
        j += 1;
    }
    let path = &text[start..j];
    let seg = path.rsplit("::").next()?.trim();
    if seg.is_empty() {
        None
    } else {
        Some(seg.to_string())
    }
}

/// Extract every flow-kind const and dispatch block declared in `ctx`
/// (skipping `#[cfg(test)]` ranges).
pub fn extract_file(ctx: &FileCtx<'_>) -> FileFlows {
    let mut out = FileFlows::default();
    let text = &ctx.masked.text;
    let bytes = text.as_bytes();

    // Kind consts: `const IDENT: ...FlowKind = ...FlowKind { ... };`
    let kind_ty = "FlowKind";
    for at in find_word(text, "const") {
        if ctx.skipped(at) {
            continue;
        }
        let j = skip_ws(bytes, at + "const".len());
        let (ident, j) = ident_at(bytes, j);
        if ident.is_empty() {
            continue;
        }
        let j = skip_ws(bytes, j);
        if j >= bytes.len() || bytes[j] != b':' {
            continue;
        }
        // Type: up to `=` (bail at statement ends — not a const decl).
        let mut eq = j + 1;
        while eq < bytes.len() && !matches!(bytes[eq], b'=' | b';' | b'{' | b'}' | b'(') {
            eq += 1;
        }
        if eq >= bytes.len() || bytes[eq] != b'=' {
            continue;
        }
        if find_word(&text[j..eq], kind_ty).is_empty() {
            continue;
        }
        // Value: path up to the struct-literal `{` must name the type too.
        let Some(open) = text[eq..].find('{').map(|p| eq + p) else {
            continue;
        };
        if find_word(&text[eq..open], kind_ty).is_empty() {
            continue;
        }
        let end = match_brace(bytes, open);
        let get = |field: &str| -> Option<String> {
            let c = field_colon(text, open, end, field)?;
            first_string(ctx, c, end).map(str::to_string)
        };
        let (Some(name), Some(sender), Some(receiver)) =
            (get("name"), get("sender"), get("receiver"))
        else {
            continue;
        };
        let class = field_colon(text, open, end, "class")
            .and_then(|c| path_segment(text, c, end))
            .unwrap_or_default();
        let role = field_colon(text, open, end, "role")
            .and_then(|c| path_segment(text, c, end))
            .unwrap_or_default();
        let some_or_none = |field: &str| {
            field_colon(text, open, end, field).and_then(|c| {
                let j = skip_ws(bytes, c);
                if text[j..end.min(text.len())].starts_with("None") {
                    None
                } else {
                    first_string(ctx, j, end).map(str::to_string)
                }
            })
        };
        let retry = some_or_none("retry");
        out.kinds.push(KindDecl {
            ident,
            name,
            sender,
            receiver,
            class,
            role,
            retry,
            file: ctx.rel.to_string(),
            line: ctx.masked.line_of(at),
        });
        out.decl_ranges.push((at, end));
    }

    // Dispatch blocks: `<macro>! { const IDENT: actor = "...", ... }`.
    let macro_call = "flow_dispatch!";
    let mut from = 0;
    while let Some(pos) = text[from..].find(macro_call) {
        let at = from + pos;
        from = at + macro_call.len();
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        if ctx.skipped(at) {
            continue;
        }
        let j = skip_ws(bytes, at + macro_call.len());
        if j >= bytes.len() || bytes[j] != b'{' {
            continue;
        }
        let end = match_brace(bytes, j);
        let open = j;
        let Some(c) = find_word(&text[open..end], "const").first().copied() else {
            continue;
        };
        let (ident, _) = ident_at(bytes, skip_ws(bytes, open + c + "const".len()));
        let actor = field_colon(text, open, end, "actor")
            .or_else(|| field_eq(text, open, end, "actor"))
            .and_then(|p| first_string(ctx, p, end))
            .unwrap_or_default()
            .to_string();
        let accepts = parse_accepts(text, open, end);
        let tie_break = field_eq(text, open, end, "tie_break").and_then(|p| {
            let j = skip_ws(bytes, p);
            if text[j..end.min(text.len())].starts_with("None") {
                None
            } else {
                first_string(ctx, j, end).map(str::to_string)
            }
        });
        if !ident.is_empty() && !actor.is_empty() {
            out.dispatches.push(DispatchDecl {
                ident,
                actor,
                accepts,
                tie_break,
                file: ctx.rel.to_string(),
                line: ctx.masked.line_of(at),
            });
        }
        out.decl_ranges.push((at, end));
    }
    out
}

/// Find `field =` inside `text[from..to]`, returning the offset just
/// past the `=` (the dispatch macro uses `key = value` syntax).
fn field_eq(text: &str, from: usize, to: usize, field: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    for at in find_word(&text[from..to], field) {
        let j = skip_ws(bytes, from + at + field.len());
        if j < to && bytes[j] == b'=' {
            return Some(j + 1);
        }
    }
    None
}

/// Parse `accepts = [ path, path, ... ]` into last path segments.
fn parse_accepts(text: &str, from: usize, to: usize) -> Vec<String> {
    let bytes = text.as_bytes();
    let Some(p) = field_eq(text, from, to, "accepts") else {
        return Vec::new();
    };
    let j = skip_ws(bytes, p);
    if j >= to || bytes[j] != b'[' {
        return Vec::new();
    }
    let mut k = j + 1;
    let mut depth = 1;
    while k < to && depth > 0 {
        match bytes[k] {
            b'[' => depth += 1,
            b']' => depth -= 1,
            _ => {}
        }
        k += 1;
    }
    text[j + 1..k - 1]
        .split(',')
        .map(str::trim)
        .filter(|e| !e.is_empty())
        .filter_map(|e| e.rsplit("::").next())
        .map(|e| e.trim().to_string())
        .filter(|e| !e.is_empty())
        .collect()
}

/// Assemble the workspace graph: collect declarations and run the
/// send-site reference scan over every source file.
pub fn build_graph(sources: &[SourceFile], per_file: Vec<FileFlows>) -> FlowGraph {
    let mut graph = FlowGraph::default();
    let idents: BTreeSet<String> = per_file
        .iter()
        .flat_map(|f| f.kinds.iter().map(|k| k.ident.clone()))
        .collect();
    for (sf, flows) in sources.iter().zip(&per_file) {
        // Reference scan: one linear token walk per file; a token counts
        // iff it is outside cfg(test) and outside every declaration.
        let bytes = sf.masked.text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if !is_ident_byte(bytes[i]) {
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            if bytes[start].is_ascii_digit() {
                continue;
            }
            let tok = &sf.masked.text[start..i];
            if !idents.contains(tok) {
                continue;
            }
            let excluded = sf.skips.iter().any(|&(a, b)| start >= a && start < b)
                || flows
                    .decl_ranges
                    .iter()
                    .any(|&(a, b)| start >= a && start < b);
            if !excluded {
                graph.sent.insert(tok.to_string());
            }
        }
    }
    for flows in per_file {
        graph.kinds.extend(flows.kinds);
        graph.dispatches.extend(flows.dispatches);
    }
    graph.kinds.sort_by(|a, b| {
        (&a.sender, &a.name, &a.file, a.line).cmp(&(&b.sender, &b.name, &b.file, b.line))
    });
    graph
        .dispatches
        .sort_by(|a, b| (&a.actor, &a.file, a.line).cmp(&(&b.actor, &b.file, b.line)));
    graph
}

/// Does a kind with `receiver` land on a dispatch declaring `actor`?
/// Receivers are dotted hierarchies: `agw` matches `agw.epc_baseline`;
/// `"*"` matches anyone.
fn receiver_matches(receiver: &str, actor: &str) -> bool {
    receiver == "*" || actor == receiver || actor.starts_with(&format!("{receiver}."))
}

/// F001–F004: the graph-consistency rules.
pub fn graph_rules(g: &FlowGraph, out: &mut Vec<Finding>) {
    let by_ident: BTreeMap<&str, Vec<&KindDecl>> = {
        let mut m: BTreeMap<&str, Vec<&KindDecl>> = BTreeMap::new();
        for k in &g.kinds {
            m.entry(&k.ident).or_default().push(k);
        }
        m
    };

    // F001: duplicate idents / names make the graph ambiguous.
    for (ident, decls) in &by_ident {
        for dup in &decls[1..] {
            out.push(Finding::new(
                "F001",
                &dup.file,
                dup.line,
                format!(
                    "flow kind ident `{ident}` is also declared at {}:{} — kind idents \
                     must be workspace-unique for graph extraction",
                    decls[0].file, decls[0].line
                ),
            ));
        }
    }
    let mut by_name: BTreeMap<&str, &KindDecl> = BTreeMap::new();
    for k in &g.kinds {
        if let Some(first) = by_name.get(k.name.as_str()) {
            out.push(Finding::new(
                "F001",
                &k.file,
                k.line,
                format!(
                    "flow kind name {:?} is also declared as `{}` at {}:{} — names are \
                     wire-visible and must be unique",
                    k.name, first.ident, first.file, first.line
                ),
            ));
        } else {
            by_name.insert(&k.name, k);
        }
    }

    for k in &g.kinds {
        // F001: declared but never sent.
        if !g.sent.contains(&k.ident) {
            out.push(Finding::new(
                "F001",
                &k.file,
                k.line,
                format!(
                    "flow kind `{}` ({:?}) is declared but never sent — no reference \
                     outside its declaration and dispatch accepts lists",
                    k.ident, k.name
                ),
            ));
        }
        // F001: no dispatch arm on the declared receiver.
        let arms: Vec<&DispatchDecl> = g
            .dispatches
            .iter()
            .filter(|d| d.accepts.iter().any(|a| a == &k.ident))
            .collect();
        if arms.is_empty() {
            out.push(Finding::new(
                "F001",
                &k.file,
                k.line,
                format!(
                    "flow kind `{}` ({:?}) has no dispatch arm — no `accepts` list \
                     names it",
                    k.ident, k.name
                ),
            ));
        } else if !arms.iter().any(|d| receiver_matches(&k.receiver, &d.actor)) {
            for d in arms {
                out.push(Finding::new(
                    "F001",
                    &d.file,
                    d.line,
                    format!(
                        "dispatch `{}` (actor {:?}) accepts `{}` but the kind's \
                         receiver is {:?} — arm/receiver mismatch",
                        d.ident, d.actor, k.ident, k.receiver
                    ),
                ));
            }
        }
        // F004: retry-edge validation.
        if k.role == "Request" && k.retry.is_none() {
            out.push(Finding::new(
                "F004",
                &k.file,
                k.line,
                format!(
                    "request kind `{}` ({:?}) declares no retry edge — requests must \
                     name the Timer-role kind that drives their timeout/retry path",
                    k.ident, k.name
                ),
            ));
        }
        if let Some(t) = &k.retry {
            match g.kinds.iter().find(|k2| &k2.name == t) {
                None => out.push(Finding::new(
                    "F004",
                    &k.file,
                    k.line,
                    format!(
                        "kind `{}` names retry edge {:?}, which is not a declared kind",
                        k.ident, t
                    ),
                )),
                Some(k2) if k2.role != "Timer" || k2.sender != k.sender => {
                    out.push(Finding::new(
                        "F004",
                        &k.file,
                        k.line,
                        format!(
                            "kind `{}` names retry edge {:?}, but that kind is \
                             role={} sender={:?} — the retry driver must be a \
                             Timer-role self-edge of the same sender ({:?})",
                            k.ident, t, k2.role, k2.sender, k.sender
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
    }

    // F001: accepts entries that resolve to no declared kind.
    for d in &g.dispatches {
        for a in &d.accepts {
            if !by_ident.contains_key(a.as_str()) {
                out.push(Finding::new(
                    "F001",
                    &d.file,
                    d.line,
                    format!(
                        "dispatch `{}` accepts `{a}`, which is not a declared flow kind",
                        d.ident
                    ),
                ));
            }
        }
        // F003: multi-sender dispatch without a tie-break contract.
        let mut senders: BTreeSet<&str> = BTreeSet::new();
        for a in &d.accepts {
            if let Some(decls) = by_ident.get(a.as_str()) {
                senders.insert(&decls[0].sender);
            }
        }
        let hazard = senders.contains("*") || senders.len() >= 2;
        if hazard && d.tie_break.is_none() {
            out.push(Finding::new(
                "F003",
                &d.file,
                d.line,
                format!(
                    "dispatch `{}` (actor {:?}) accepts kinds from senders [{}] but \
                     declares tie_break = None — same-timestamp deliveries from \
                     distinct senders need a documented commutativity key",
                    d.ident,
                    d.actor,
                    senders.iter().copied().collect::<Vec<_>>().join(", ")
                ),
            ));
        }
    }

    // F002: zero-delay cycles (Response edges are demand-bounded and
    // wildcard endpoints are hub fan-in/fan-out, not a closed loop).
    let mut edges: BTreeMap<&str, Vec<(&str, &KindDecl)>> = BTreeMap::new();
    for k in &g.kinds {
        if k.class == "Zero" && k.role != "Response" && k.sender != "*" && k.receiver != "*" {
            edges.entry(&k.sender).or_default().push((&k.receiver, k));
        }
    }
    if let Some(cycle) = find_cycle(&edges) {
        let first = cycle[0].1;
        let path: Vec<String> = cycle
            .iter()
            .map(|(from, k)| format!("{from} -({})-> {}", k.name, k.receiver))
            .collect();
        out.push(Finding::new(
            "F002",
            &first.file,
            first.line,
            format!(
                "zero-delay send cycle: {} — same-instant messages can livelock \
                 virtual time",
                path.join(", ")
            ),
        ));
    }
}

/// DFS for a cycle in the zero-edge graph. Returns the edges of the
/// first cycle found (deterministic: BTreeMap iteration order).
fn find_cycle<'a>(
    edges: &BTreeMap<&'a str, Vec<(&'a str, &'a KindDecl)>>,
) -> Option<Vec<(&'a str, &'a KindDecl)>> {
    #[derive(PartialEq, Clone, Copy)]
    enum Color {
        White,
        Grey,
        Black,
    }
    fn dfs<'a>(
        node: &'a str,
        edges: &BTreeMap<&'a str, Vec<(&'a str, &'a KindDecl)>>,
        colors: &mut BTreeMap<&'a str, Color>,
        path: &mut Vec<(&'a str, &'a KindDecl)>,
    ) -> bool {
        colors.insert(node, Color::Grey);
        for (to, kind) in edges.get(node).map(Vec::as_slice).unwrap_or(&[]) {
            match colors.get(to).copied().unwrap_or(Color::White) {
                Color::Grey => {
                    path.push((node, kind));
                    // Trim the path to the cycle itself.
                    if let Some(at) = path.iter().position(|(n, _)| n == to) {
                        path.drain(..at);
                    }
                    return true;
                }
                Color::White => {
                    path.push((node, kind));
                    if dfs(to, edges, colors, path) {
                        return true;
                    }
                    path.pop();
                }
                Color::Black => {}
            }
        }
        colors.insert(node, Color::Black);
        false
    }
    let mut colors: BTreeMap<&str, Color> = BTreeMap::new();
    let nodes: Vec<&str> = edges.keys().copied().collect();
    for n in nodes {
        if colors.get(n).copied().unwrap_or(Color::White) == Color::White {
            let mut path = Vec::new();
            if dfs(n, edges, &mut colors, &mut path) {
                return Some(path);
            }
        }
    }
    None
}

/// Render the graph as `docs/MESSAGE_FLOW.md`: one section per actor
/// listing its dispatch surfaces and in/out/self edges, with the retry
/// edge (what F004 validates) on the edge that names one.
/// Byte-deterministic: every section iterates sorted structures.
pub fn render(g: &FlowGraph) -> String {
    let mut out = String::new();
    out.push_str("# Message-flow graph\n\n");
    out.push_str(
        "<!-- GENERATED by magma-lint from FlowKind / flow_dispatch! declarations.\n\
         \x20    Do not edit by hand. Regenerate with:\n\
         \x20        cargo run -p magma-lint -- --write-flow\n\
         \x20    Drift fails lint rule F006. -->\n\n",
    );
    out.push_str(
        "Every production actor-to-actor edge, extracted lexically from the\n\
         workspace's flow-kind declarations. Delay classes:\n\n\
         - **zero** — delivered at the sending instant.\n\
         - **local** — positive-delay self-edge (timer); never leaves the actor.\n\
         - **transport** — rides a modeled link with positive latency.\n\n",
    );
    // `[class/role]`, plus the retry edge for the sender's lines.
    let tag = |k: &KindDecl, with_retry: bool| {
        let retry = match (&k.retry, with_retry) {
            (Some(t), true) => format!(", retry `{t}`"),
            _ => String::new(),
        };
        format!(
            "[{}/{}{retry}]",
            k.class.to_lowercase(),
            k.role.to_lowercase()
        )
    };

    out.push_str("## Actors\n\n");
    let mut actors: BTreeSet<&str> = BTreeSet::new();
    for d in &g.dispatches {
        actors.insert(&d.actor);
    }
    for k in &g.kinds {
        if k.sender != "*" {
            actors.insert(&k.sender);
        }
        if k.receiver != "*" {
            actors.insert(&k.receiver);
        }
    }
    let kind_by_ident: BTreeMap<&str, &KindDecl> =
        g.kinds.iter().map(|k| (k.ident.as_str(), k)).collect();
    for actor in actors {
        out.push_str(&format!("### `{actor}`\n\n"));
        let dispatches: Vec<&DispatchDecl> =
            g.dispatches.iter().filter(|d| d.actor == actor).collect();
        for d in &dispatches {
            out.push_str(&format!(
                "- dispatch `{}` ({}), tie-break: {}\n",
                d.ident,
                d.file,
                d.tie_break
                    .as_ref()
                    .map(|t| format!("{t:?}"))
                    .unwrap_or_else(|| "none (single-sender surface)".to_string()),
            ));
        }
        // Inbound edges: what the actor's dispatch surfaces actually
        // accept (minus its own self-edges, listed under `self:`). An
        // actor with no dispatch (a sender-only aggregate) falls back to
        // exact receiver matching.
        let accepted: BTreeSet<&str> = dispatches
            .iter()
            .flat_map(|d| d.accepts.iter().map(String::as_str))
            .collect();
        for k in &g.kinds {
            let inbound = if dispatches.is_empty() {
                k.receiver == *actor
            } else {
                accepted.contains(k.ident.as_str())
                    && kind_by_ident.get(k.ident.as_str()).is_some_and(|k2| k2.name == k.name)
            };
            if inbound && k.sender != *actor {
                out.push_str(&format!(
                    "- in: `{}` ← `{}` {}\n",
                    k.name,
                    k.sender,
                    tag(k, false)
                ));
            }
        }
        for k in &g.kinds {
            if k.sender == actor && k.receiver != *actor {
                out.push_str(&format!(
                    "- out: `{}` → `{}` {}\n",
                    k.name,
                    k.receiver,
                    tag(k, true)
                ));
            }
        }
        for k in &g.kinds {
            if k.sender == actor && k.receiver == *actor {
                out.push_str(&format!("- self: `{}` {}\n", k.name, tag(k, true)));
            }
        }
        out.push('\n');
    }

    out
}
