//! The determinism bans are clippy's, not magma-lint's: clippy resolves
//! types and covers every target, but only of a crate that inherits the
//! workspace lints, and a crate that does not escapes them silently.
//! These tests pin that every `crates/*` member opts in, that the lints
//! are denied, and that `clippy.toml` names what they ban.

use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lines of `text` from the one after `header` up to the next table
/// header, with comment lines dropped (none when there is no such table).
fn table(text: &str, header: &str) -> Vec<String> {
    text.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.trim_start().starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// The `path`s listed in `clippy.toml`'s `key = [ ... ]` array.
fn banned(clippy_toml: &str, key: &str) -> Vec<String> {
    let start = format!("{key} = [");
    let mut lines = clippy_toml.lines().skip_while(|l| !l.starts_with(&start));
    assert!(lines.next().is_some(), "clippy.toml has no {key} list");
    lines
        .take_while(|l| !l.starts_with(']'))
        .filter_map(|l| l.trim().strip_prefix("{ path = \""))
        .filter_map(|l| l.split('"').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn every_crate_inherits_the_workspace_lints() {
    let mut members: Vec<PathBuf> = fs::read_dir(repo_root().join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .map(|e| e.path().join("Cargo.toml"))
        .filter(|m| m.is_file())
        .collect();
    members.sort();
    assert!(members.len() >= 17, "crate scan collapsed: {members:?}");
    for manifest in members {
        let lints = table(&read(&manifest), "[lints]");
        assert!(
            lints.iter().any(|l| l == "workspace = true"),
            "{} does not inherit the workspace lints, so clippy's bans skip it",
            manifest.display()
        );
    }
}

#[test]
fn workspace_lints_deny_the_bans_and_reasonless_exceptions() {
    let lints = table(
        &read(&repo_root().join("Cargo.toml")),
        "[workspace.lints.clippy]",
    );
    for lint in [
        "disallowed_types",
        "disallowed_methods",
        "allow_attributes_without_reason",
    ] {
        let want = format!("{lint} = \"deny\"");
        assert!(
            lints.contains(&want),
            "[workspace.lints.clippy] lacks {want}: {lints:?}"
        );
    }
}

fn assert_banned(key: &str, paths: &[&str]) {
    let listed = banned(&read(&repo_root().join("clippy.toml")), key);
    for path in paths {
        assert!(
            listed.iter().any(|l| l == path),
            "{path} not in {key}: {listed:?}"
        );
    }
}

#[test]
fn clippy_toml_bans_hash_collections() {
    assert_banned(
        "disallowed-types",
        &["std::collections::HashMap", "std::collections::HashSet"],
    );
}

#[test]
fn clippy_toml_bans_ambient_entropy() {
    assert_banned(
        "disallowed-methods",
        &[
            "std::time::Instant::now",
            "std::time::SystemTime::now",
            "rand::thread_rng",
            "rand::random",
        ],
    );
}

#[test]
fn clippy_toml_bans_raw_sends() {
    assert_banned("disallowed-methods", &["magma_sim::engine::Ctx::send_in"]);
}
