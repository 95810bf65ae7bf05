//! CLI entry point: `cargo run -p magma-lint [--root DIR] [FILES...]`.
//!
//! With no file arguments, lints the whole workspace (crates/*/src and
//! examples/) against the docs inventory. With explicit files, lints just
//! those (used by the fixture tests). Exit code 0 iff no unjustified
//! violations. `--names` dumps the captured metric-name audit, which is
//! how the OBSERVABILITY.md inventory table is regenerated. `--json`
//! emits the findings as machine-readable JSON (stable field order);
//! `--write-flow` (or `MAGMA_FLOW_ACCEPT=1`) regenerates
//! `docs/MESSAGE_FLOW.md` from the extracted message-flow graph instead
//! of failing on drift. `--list-rules` prints the rule inventory (id,
//! summary, fixture) so `lint:allow` reasons can reference something
//! discoverable.

mod engine;
mod flow;
mod lexer;
mod rules;

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut dump_names = false;
    let mut json = false;
    let mut write_flow = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                root = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--root needs a directory");
                    std::process::exit(2);
                }));
            }
            "--names" => dump_names = true,
            "--json" => json = true,
            "--write-flow" => write_flow = true,
            "--list-rules" => {
                print!("{}", rules::render_rule_list());
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "usage: magma-lint [--root DIR] [--names] [--json] [--list-rules] \
                     [--write-flow] [FILES...]\n\
                     Lints the workspace (or just FILES) for determinism (D),\n\
                     telemetry naming (T), actor hygiene (A), message-flow\n\
                     graph (F), and schedule-safety (S) violations. --json\n\
                     emits findings as JSON; --write-flow (or\n\
                     MAGMA_FLOW_ACCEPT=1) regenerates docs/MESSAGE_FLOW.md\n\
                     instead of failing on F006 drift; --list-rules prints the\n\
                     rule inventory (id, summary, fixture path) in stable order."
                );
                return ExitCode::SUCCESS;
            }
            _ => files.push(PathBuf::from(a)),
        }
    }

    // When invoked via `cargo run -p magma-lint` the cwd is already the
    // workspace root; when invoked from elsewhere, find it by walking up
    // to the first Cargo.toml with a [workspace] table.
    let root = find_workspace_root(&root);

    let docs = engine::parse_docs(&root);
    let mut report = if files.is_empty() {
        engine::lint_workspace(&root)
    } else {
        let files: Vec<PathBuf> = files
            .into_iter()
            .map(|f| if f.is_absolute() { f } else { root.join(f) })
            .collect();
        engine::lint_files(&root, &files, &docs)
    };

    // Re-baseline the generated graph doc instead of failing on drift.
    let accept_flow = write_flow
        || std::env::var("MAGMA_FLOW_ACCEPT").map(|v| v == "1").unwrap_or(false);
    if accept_flow {
        let rendered = flow::render(&report.flow);
        let path = root.join("docs/MESSAGE_FLOW.md");
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("magma-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("magma-lint: wrote docs/MESSAGE_FLOW.md");
        report.findings.retain(|f| f.rule != "F006");
    }

    if dump_names {
        // Re-scan for the audit dump (names only, sorted, deduped).
        let mut names: Vec<String> = Vec::new();
        for path in engine::workspace_files(&root) {
            if let Ok(src) = std::fs::read_to_string(&path) {
                let rel = path
                    .strip_prefix(&root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let masked = lexer::mask(&src);
                let ctx = rules::FileCtx::new(&rel, &masked);
                for u in rules::collect_name_uses(&ctx) {
                    let tag = if u.via_helper { " (helper)" } else { "" };
                    names.push(format!("{}{}  [{}:{}]", u.name, tag, u.file, u.line));
                }
            }
        }
        names.sort();
        names.dedup();
        for n in names {
            println!("{n}");
        }
        return ExitCode::SUCCESS;
    }

    if json {
        print!("{}", engine::json_report(&report, docs.present));
        return if report.is_clean() && docs.present {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for f in report.violations() {
        println!("{} {}:{} {}", f.rule, f.file, f.line, f.msg);
    }
    for (file, line, msg) in &report.malformed {
        println!("LINT {file}:{line} {msg}");
    }
    if !docs.present {
        println!("LINT docs/OBSERVABILITY.md missing — T doc rules cannot run");
    }
    print!("{}", report.summary());

    if report.is_clean() && docs.present {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn find_workspace_root(start: &PathBuf) -> PathBuf {
    let mut dir = std::fs::canonicalize(start).unwrap_or_else(|_| start.clone());
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.clone();
        }
    }
}
