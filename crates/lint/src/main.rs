//! CLI entry point: `cargo run -p magma-lint [--root DIR] [FILES...]`.
//!
//! With no file arguments, lints the whole workspace (crates/*/src and
//! examples/) against the docs inventory. With explicit files, lints just
//! those (used by the fixture tests). Exit code 0 iff no violations.
//! `--names` dumps the telemetry names the run captured, which is how the
//! OBSERVABILITY.md inventory table is regenerated. `--json` emits the
//! findings as machine-readable JSON (stable field order). Any other
//! argument starting with `--` prints the usage text and exits 2.

mod engine;
mod lexer;
mod rules;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: magma-lint [--root DIR] [--names] [--json] [FILES...]\n\
     Lints the workspace (or just FILES) for telemetry naming\n\
     (T), actor hygiene (A) and registry-read (S)\n\
     violations. --json emits findings as JSON; --names\n\
     prints the captured telemetry names. The determinism\n\
     bans are clippy's (clippy.toml).";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut dump_names = false;
    let mut json = false;
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
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("magma-lint: unknown option {other}\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => files.push(PathBuf::from(a)),
        }
    }

    // When invoked via `cargo run -p magma-lint` the cwd is already the
    // workspace root; when invoked from elsewhere, find it by walking up
    // to the first Cargo.toml with a [workspace] table.
    let root = find_workspace_root(&root);

    let report = if files.is_empty() {
        engine::lint_workspace(&root)
    } else {
        let files: Vec<PathBuf> = files
            .into_iter()
            .map(|f| if f.is_absolute() { f } else { root.join(f) })
            .collect();
        engine::lint_files(&root, &files, engine::parse_docs(&root).as_deref())
    };

    if dump_names {
        // The audit dump: names only, sorted, deduped.
        let mut names: Vec<String> = report
            .uses
            .iter()
            .map(|u| {
                let tag = if u.via_helper { " (helper)" } else { "" };
                format!("{}{tag} {:?}  [{}:{}]", u.name, u.row, u.file, u.line)
            })
            .collect();
        names.sort();
        names.dedup();
        for n in names {
            println!("{n}");
        }
        return ExitCode::SUCCESS;
    }

    if json {
        print!("{}", engine::json_report(&report));
        return if report.is_clean() && report.docs_present {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for f in &report.findings {
        println!("{} {}:{} {}", f.rule, f.file, f.line, f.msg);
    }
    for (file, err) in &report.unreadable {
        println!("LINT {file} cannot be read: {err}");
    }
    if !report.docs_present {
        println!("LINT docs/OBSERVABILITY.md missing — T003 cannot run");
    }
    print!("{}", report.summary());

    if report.is_clean() && report.docs_present {
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
