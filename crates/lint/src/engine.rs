//! The lint engine: walks the workspace, runs every rule, and assembles
//! the report.
//!
//! Scan scope: `crates/*/src/**/*.rs` and `examples/*.rs` — the code
//! that can reach an export. `#[cfg(test)]` items inside scanned files
//! are skipped by the rules themselves. The determinism bans are
//! clippy's, over every target (see `clippy.toml`).

use crate::lexer;
use crate::rules::{self, DocRow, FileCtx, Finding, NameUse, RowType};
use std::fs;
use std::path::{Path, PathBuf};

/// A loaded, masked source file with precomputed `#[cfg(test)]` skip
/// ranges. Each file is read and lexed exactly once per run; every rule
/// shares this buffer instead of re-lexing per rule.
pub struct SourceFile {
    pub rel: String,
    pub masked: lexer::Masked,
    pub skips: Vec<(usize, usize)>,
}

/// Read and mask `files` (paths must be under `root` for clean rel paths).
/// A file that cannot be read goes to `unreadable` with its error.
fn load_sources(
    root: &Path,
    files: &[PathBuf],
    unreadable: &mut Vec<(String, String)>,
) -> Vec<SourceFile> {
    let mut out = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = match fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                unreadable.push((rel, e.to_string()));
                continue;
            }
        };
        let masked = lexer::mask(&src);
        let skips = rules::cfg_test_ranges(&masked.text);
        out.push(SourceFile { rel, masked, skips });
    }
    out
}

/// Full lint results for a run.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    /// Every rule hit: each one fails the build.
    pub findings: Vec<Finding>,
    /// Files to scan that could not be read, with the error: each fails
    /// the run, since a file never read can hide any violation.
    pub unreadable: Vec<(String, String)>,
    /// Every telemetry name captured at a call site (`--names` prints them).
    pub uses: Vec<NameUse>,
    /// Whether `docs/OBSERVABILITY.md` was found (T003 needs it).
    pub docs_present: bool,
    /// Wall-clock self-timing for the run, in milliseconds.
    pub elapsed_ms: Option<f64>,
}

impl Report {
    /// Findings plus unreadable files: what fails the build.
    pub fn violations(&self) -> usize {
        self.findings.len() + self.unreadable.len()
    }

    pub fn is_clean(&self) -> bool {
        self.violations() == 0
    }

    /// Render the human summary printed at the end of `scripts/check.sh`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "magma-lint: {} files scanned, {} rules ({})\n",
            self.files_scanned,
            rules::ALL_RULES.len(),
            rules::ALL_RULES.join(" "),
        ));
        for rule in rules::ALL_RULES {
            let n = self.findings.iter().filter(|f| f.rule == *rule).count();
            if n > 0 {
                out.push_str(&format!("  {rule}: {n} violation{}\n", plural(n)));
            }
        }
        for (file, _) in &self.unreadable {
            out.push_str(&format!("  unreadable: {file}\n"));
        }
        let n = self.violations();
        out.push_str(&format!("  total: {n} violation{}\n", plural(n)));
        if let Some(ms) = self.elapsed_ms {
            out.push_str(&format!(
                "  self-time: {ms:.1} ms (each file lexed once, shared across rules)\n"
            ));
        }
        out
    }
}

/// Normalize a docs entry: `<...>` holes become `*`.
fn normalize_docs_entry(e: &str) -> String {
    let mut out = String::new();
    let mut chars = e.chars();
    while let Some(c) = chars.next() {
        if c == '<' {
            for c2 in chars.by_ref() {
                if c2 == '>' {
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

/// Parse the inventory table between the `lint:metric-inventory` markers
/// into rows (None when the docs file is missing).
pub fn parse_docs(root: &Path) -> Option<Vec<DocRow>> {
    let text = fs::read_to_string(root.join("docs/OBSERVABILITY.md")).ok()?;
    let mut rows = Vec::new();
    let mut inside = false;
    for (idx, line) in text.lines().enumerate() {
        if line.contains("lint:metric-inventory:begin") {
            inside = true;
            continue;
        }
        if line.contains("lint:metric-inventory:end") {
            inside = false;
            continue;
        }
        if !inside || !line.trim_start().starts_with('|') {
            continue;
        }
        // First backticked token in the row is the name; header and
        // separator rows have none.
        let Some(open) = line.find('`') else { continue };
        let rest = &line[open + 1..];
        let Some(close) = rest.find('`') else { continue };
        let name = normalize_docs_entry(&rest[..close]);
        if name.is_empty() {
            continue;
        }
        // The Type cell (second `|` column) gives the row type.
        let cell = line.split('|').nth(2).map(str::trim).unwrap_or("");
        rows.push(DocRow {
            name,
            row: RowType::of_cell(cell),
            line: idx as u32 + 1,
        });
    }
    Some(rows)
}

/// Recursively collect `.rs` files under `dir`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The production scan set for a workspace root.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut members: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        members.sort();
        for member in members {
            walk(&member.join("src"), &mut files);
        }
    }
    walk(&root.join("examples"), &mut files);
    files
}

/// Lint a set of files (paths must be under `root` for clean rel paths)
/// against the docs inventory (None = docs missing). Stale inventory rows
/// (T003's docs direction) are not checked here — only a whole-workspace
/// scan can tell that a documented name has no use.
pub fn lint_files(root: &Path, files: &[PathBuf], docs: Option<&[DocRow]>) -> Report {
    lint_files_inner(root, files, docs, false)
}

fn lint_files_inner(
    root: &Path,
    files: &[PathBuf],
    docs: Option<&[DocRow]>,
    check_drift: bool,
) -> Report {
    #[expect(
        clippy::disallowed_methods,
        reason = "self-timing of the lint tool on the host — not simulation state"
    )]
    let t0 = std::time::Instant::now();
    let mut report = Report {
        docs_present: docs.is_some(),
        ..Report::default()
    };

    let sources = load_sources(root, files, &mut report.unreadable);
    report.files_scanned = sources.len();
    for sf in &sources {
        let ctx = FileCtx {
            rel: &sf.rel,
            masked: &sf.masked,
            skips: &sf.skips,
        };

        let uses = rules::collect_name_uses(&ctx);
        rules::t_rules(&uses, docs, &mut report.findings);
        rules::a001_catch_all_dispatch(&ctx, &mut report.findings);
        rules::a002_hot_path_unwrap(&ctx, &mut report.findings);
        rules::s006_registry_reads(&ctx, &mut report.findings);
        report.uses.extend(uses);
    }

    // Docs drift, workspace scans only: a partial file set would flag
    // every row it does not use.
    if check_drift {
        if let Some(docs) = docs {
            rules::t003_stale_rows(&report.uses, docs, &mut report.findings);
        }
    }

    report.elapsed_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
    report
}

/// Lint the whole workspace rooted at `root`, including docs drift.
pub fn lint_workspace(root: &Path) -> Report {
    let docs = parse_docs(root);
    lint_files_inner(root, &workspace_files(root), docs.as_deref(), true)
}

/// Render the report as JSON with a stable field order, so downstream
/// tooling (CI annotations, dashboards) can diff runs byte-for-byte.
/// Hand-rolled: the lint stays dependency-free. `schema_version` leads
/// and is bumped whenever a field is added, removed, or reordered.
pub fn json_report(report: &Report) -> String {
    let esc = rules::json_escape;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"docs_present\": {},\n", report.docs_present));
    out.push_str(&format!("  \"violations\": {},\n", report.violations()));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"msg\": \"{}\"}}",
            f.rule,
            esc(&f.file),
            f.line,
            esc(&f.msg),
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}
