//! The outside-in layer ledger: every simprof row of a finished run is
//! assigned to one layer (a crate name), and the layers plus the
//! unattributed residual must account for the run's wall time.
//!
//! Nothing here records a span inside the program. The rows come from
//! `World::profile()` after `run_until` returns; in-program layer scopes
//! are a later issue and will be checked against these numbers.

use magma::sim::ProfileSnapshot;
use std::collections::BTreeMap;

/// Layer of a dispatch row, by actor name.
pub fn layer_of_actor(actor: &str) -> &'static str {
    if actor.starts_with("netstack-") {
        "net"
    } else if actor.starts_with("enb-") {
        "ran"
    } else if actor == "orc8r" {
        "orc8r"
    } else if actor.starts_with("agw") {
        // agwN and its telemetry daemon agwN-metricsd.
        "agw"
    } else {
        "other"
    }
}

/// Layer of a `profile_scope` row, by label.
pub fn layer_of_scope(label: &str) -> &'static str {
    match label {
        "rpc.encode" | "rpc.decode" => "rpc",
        "dataplane.fluid_tick" => "dataplane",
        "metricsd.snapshot" => "agw",
        _ => "other",
    }
}

/// Host seconds and work counts attributed to one layer or one scope.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerRow {
    pub busy_s: f64,
    /// Actor dispatches (0 for a scope, or a layer fed only by scopes).
    pub dispatches: u64,
    /// `profile_scope` entries.
    pub scope_entries: u64,
}

impl LayerRow {
    /// The row's unit of work: dispatches where it has any, else scope
    /// entries.
    pub fn count(&self) -> u64 {
        if self.dispatches > 0 {
            self.dispatches
        } else {
            self.scope_entries
        }
    }
}

/// The whole-run profile folded by layer. Dispatch rows contribute their
/// *self* time (scope time is a child of the enclosing dispatch and is
/// counted once, under the scope's own layer).
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub layers: BTreeMap<&'static str, LayerRow>,
    pub scopes: BTreeMap<String, LayerRow>,
}

impl Ledger {
    pub fn from_profile(p: &ProfileSnapshot) -> Ledger {
        let mut ledger = Ledger::default();
        for (h, v) in p.host.rows.iter().zip(&p.virt.rows) {
            let row = ledger.layers.entry(layer_of_actor(&h.actor)).or_default();
            row.busy_s += h.self_wall_s;
            row.dispatches += v.dispatches;
        }
        for (h, v) in p.host.scopes.iter().zip(&p.virt.scopes) {
            let row = LayerRow {
                busy_s: h.wall_s,
                dispatches: 0,
                scope_entries: v.count,
            };
            ledger.scopes.insert(h.label.clone(), row);
            let layer = ledger.layers.entry(layer_of_scope(&h.label)).or_default();
            layer.busy_s += row.busy_s;
            layer.scope_entries += row.scope_entries;
        }
        ledger
    }

    pub fn layer(&self, name: &str) -> LayerRow {
        self.layers.get(name).copied().unwrap_or_default()
    }

    pub fn scope(&self, label: &str) -> LayerRow {
        self.scopes.get(label).copied().unwrap_or_default()
    }

    /// Host seconds attributed to a named layer (everything but `other`).
    pub fn named_s(&self) -> f64 {
        self.layers
            .iter()
            .filter(|(l, _)| **l != "other")
            .map(|(_, r)| r.busy_s)
            .sum()
    }

    /// Host seconds in any row at all.
    pub fn attributed_s(&self) -> f64 {
        self.layers.values().map(|r| r.busy_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma::sim::HostStopwatch;
    use magma_benchmark::workloads::{execute, WORKLOADS};

    #[test]
    fn actor_names_map_to_layers() {
        assert_eq!(layer_of_actor("agw0"), "agw");
        assert_eq!(layer_of_actor("agw11-metricsd"), "agw");
        assert_eq!(layer_of_actor("orc8r"), "orc8r");
        assert_eq!(layer_of_actor("netstack-3"), "net");
        assert_eq!(layer_of_actor("enb-257"), "ran");
        assert_eq!(layer_of_actor("feg"), "other");
        assert_eq!(layer_of_scope("rpc.decode"), "rpc");
        assert_eq!(layer_of_scope("something.new"), "other");
    }

    /// The map must leave no `other` row on any of the four workloads.
    /// Which actors and scopes a world has is fixed by its topology, so
    /// a few simulated seconds past the warm-up show every row.
    #[test]
    fn no_other_row_on_any_workload() {
        for w in &WORKLOADS {
            let clock = HostStopwatch::start();
            let x = execute(w, 42, 2, &clock, |_| {});
            let profile = x.scenario.world.profile();
            for row in &profile.host.rows {
                assert_ne!(
                    layer_of_actor(&row.actor),
                    "other",
                    "{}: actor {}",
                    w.name,
                    row.actor
                );
            }
            for scope in &profile.host.scopes {
                assert_ne!(
                    layer_of_scope(&scope.label),
                    "other",
                    "{}: scope {}",
                    w.name,
                    scope.label
                );
            }
            let ledger = Ledger::from_profile(&profile);
            assert_eq!(ledger.layer("other"), LayerRow::default(), "{}", w.name);
            for layer in ["agw", "orc8r", "net", "ran", "rpc", "dataplane"] {
                assert!(
                    ledger.layer(layer).count() > 0,
                    "{}: layer {layer} is empty",
                    w.name
                );
            }
            assert!((ledger.named_s() - ledger.attributed_s()).abs() < 1e-12);
        }
    }
}
