//! The bench-report determinism contract (docs/PROFILING.md):
//!
//! - the `virtual` section is a pure function of (scenario, seed) —
//!   same-seed runs serialize to byte-identical JSON;
//! - a report carries nothing else: host-dependent values are measured
//!   by the repo benchmark (`benchmark/`), so no host section exists to
//!   leak into the virtual bytes.

use magma_bench::smoke;

#[test]
fn same_seed_virtual_sections_are_byte_identical() {
    let a = smoke(7).report;
    let b = smoke(7).report;
    let va = serde_json::to_string_pretty(&a.virt).unwrap();
    let vb = serde_json::to_string_pretty(&b.virt).unwrap();
    assert_eq!(va, vb, "virtual sections diverged across same-seed runs");
    // The runs did real work (guards against a vacuous pass on an
    // empty report).
    assert!(a.virt.events_simulated > 0);
    assert!(!a.virt.profile.rows.is_empty());
}

#[test]
fn different_seeds_produce_different_virtual_sections() {
    let a = smoke(7).report;
    let b = smoke(8).report;
    // Seeds drive UE identities and timer jitter, so the event count
    // cannot coincide; this keeps the byte-identity test non-vacuous.
    assert_ne!(
        (a.virt.events_simulated, a.virt.profile.vcpu_total_s.to_bits()),
        (b.virt.events_simulated, b.virt.profile.vcpu_total_s.to_bits()),
        "different seeds produced identical virtual sections"
    );
}

#[test]
fn host_fields_are_segregated_from_virtual_bytes() {
    let report = smoke(7).report;
    let full = serde_json::to_value(&report).unwrap();
    let keys: Vec<&str> = full
        .as_object()
        .expect("a report serializes to an object")
        .keys()
        .map(String::as_str)
        .collect();
    // Object keys render in sorted order.
    assert_eq!(keys, ["scenario", "schema", "seed", "virtual"]);
}
