//! `BENCHMARK.json` is the contract the driver reads; the catalogue in
//! `src/catalog.rs` is what the binaries emit (`magma-benchmark list`
//! prints it, the result lines are built from it). They must be the
//! same set, and the file must stay inside the contract's limits.

use magma_benchmark::catalog::{valid_name, END_TO_END, PER_LAYER};
use magma_benchmark::workloads::WORKLOADS;
use serde_json::Value;
use std::collections::BTreeSet;

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn rows<'a>(doc: &'a Value, key: &str) -> &'a Vec<Value> {
    doc[key]
        .as_array()
        .unwrap_or_else(|| panic!("{key} is not an array"))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn top_level_shape() {
    let doc = contract();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(rows(&doc, "paths"), &[Value::from("benchmark")]);
    let seconds = doc["run_seconds"]
        .as_u64()
        .expect("run_seconds is a whole number");
    assert!((1..=60).contains(&seconds));
    let command = rows(&doc, "command");
    assert!(command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().expect("command strings");
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }
    // The traced pass is reached through this binary, so the contract
    // names only the end-to-end one.
    assert!(command.iter().any(|a| a == "magma-benchmark"));
}

#[test]
fn workloads_match_the_binaries() {
    let doc = contract();
    let listed: Vec<(&str, &str)> = rows(&doc, "workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            (
                w["name"].as_str().expect("name"),
                w["why"].as_str().expect("why"),
            )
        })
        .collect();
    let emitted: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, emitted);
    assert!((2..=8).contains(&listed.len()));
}

#[test]
fn end_to_end_metrics_match_the_binaries() {
    let doc = contract();
    let listed = rows(&doc, "end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (row, m) in listed.iter().zip(&END_TO_END) {
        assert_eq!(keys(row), ["better", "bound", "name", "unit"]);
        assert_eq!(row["name"], m.name);
        assert_eq!(row["unit"], m.unit, "{}", m.name);
        assert_eq!(row["better"], m.better.as_str(), "{}", m.name);
        assert_eq!(row["bound"].as_f64(), Some(m.bound), "{}", m.name);
        assert!((0.0..=0.25).contains(&m.bound));
        assert!(valid_unit(m.unit), "{}", m.unit);
    }
}

#[test]
fn per_layer_metrics_match_the_binaries() {
    let doc = contract();
    let listed = rows(&doc, "per_layer");
    assert_eq!(listed.len(), PER_LAYER.len());
    assert!((1..=128).contains(&listed.len()));
    for (row, m) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(keys(row), ["better", "name", "unit"]);
        assert_eq!(row["name"], m.name);
        assert_eq!(row["unit"], m.unit, "{}", m.name);
        assert_eq!(row["better"], m.better.as_str(), "{}", m.name);
        assert!(valid_unit(m.unit), "{}", m.unit);
    }
}

#[test]
fn every_name_is_valid_and_used_once() {
    let doc = contract();
    let mut seen = BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for row in rows(&doc, key) {
            let name = row["name"].as_str().expect("name");
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.to_string()), "{name} used twice");
        }
    }
}
