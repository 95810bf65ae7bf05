//! **Table 1**: Magma's access-technology-independent abstractions and
//! the RAN-specific components they replace.
//!
//! This is the paper's central design artifact encoded as data: every
//! generic function the AGW implements, mapped to its LTE, 5G, and WiFi
//! equivalents, and to the crate/module that implements it here.

use serde::Serialize;

/// The generic functions of the Magma architecture (Figure 4, right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GenericFunction {
    AccessControlManagement,
    SubscriberManagement,
    SessionPolicyManagement,
    DataPlaneConfiguration,
    DataPlane,
    DeviceManagement,
    TelemetryLogging,
}

/// One row of Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct AbstractionRow {
    pub function: GenericFunction,
    pub magma: &'static str,
    pub lte: &'static str,
    pub nr5g: &'static str,
    pub wifi: &'static str,
    /// Where this repository implements it.
    pub implemented_by: &'static str,
}

/// The full mapping.
pub fn table1() -> Vec<AbstractionRow> {
    use GenericFunction::*;
    vec![
        AbstractionRow {
            function: AccessControlManagement,
            magma: "Access Control/Management",
            lte: "MME",
            nr5g: "AMF",
            wifi: "RADIUS AAA",
            implemented_by: "magma-agw::actor (MME/AMF/AAA fronts)",
        },
        AbstractionRow {
            function: SubscriberManagement,
            magma: "Subscriber Management",
            lte: "HSS",
            nr5g: "UDM/AUSF",
            wifi: "RADIUS AAA",
            implemented_by: "magma-subscriber::SubscriberDb (orc8r-replicated)",
        },
        AbstractionRow {
            function: SessionPolicyManagement,
            magma: "Session/Policy Management",
            lte: "MME/PCRF",
            nr5g: "SMF/PCF",
            wifi: "RADIUS AAA",
            implemented_by: "magma-agw::sessiond + magma-policy",
        },
        AbstractionRow {
            function: DataPlaneConfiguration,
            magma: "Data Plane Configuration",
            lte: "SGW/PGW",
            nr5g: "SMF",
            wifi: "WiFi data plane",
            implemented_by: "magma-agw::pipelined (desired-state compiler)",
        },
        AbstractionRow {
            function: DataPlane,
            magma: "Data Plane",
            lte: "SGW/PGW",
            nr5g: "UPF",
            wifi: "WiFi data plane",
            implemented_by: "magma-dataplane::Pipeline (OVS analog)",
        },
        AbstractionRow {
            function: DeviceManagement,
            magma: "Device Management",
            lte: "per-box configuration",
            nr5g: "per-box configuration",
            wifi: "per-box configuration",
            implemented_by: "magma-orc8r device registry + AGW check-in",
        },
        AbstractionRow {
            function: TelemetryLogging,
            magma: "Telemetry and logging",
            lte: "no equivalent defined",
            nr5g: "no equivalent defined",
            wifi: "no equivalent defined",
            implemented_by: "magma-orc8r metrics + magma-sim::Registry",
        },
    ]
}

/// Render the table in the paper's layout.
pub fn render_table1() -> String {
    let mut out = String::from(
        "Table 1: Magma abstractions vs RAN-specific versions\n\
         Magma                      | LTE          | 5G        | WiFi\n",
    );
    for r in table1() {
        out.push_str(&format!(
            "{:26} | {:12} | {:9} | {}\n",
            r.magma, r.lte, r.nr5g, r.wifi
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_all_seven_functions_of_the_paper() {
        let rows = table1();
        assert_eq!(rows.len(), 7);
        // Every generic function appears exactly once.
        let mut fns: Vec<_> = rows.iter().map(|r| r.function).collect();
        fns.dedup();
        assert_eq!(fns.len(), 7);
    }

    #[test]
    fn mme_maps_to_amf_maps_to_radius() {
        let rows = table1();
        let acm = rows
            .iter()
            .find(|r| r.function == GenericFunction::AccessControlManagement)
            .unwrap();
        assert_eq!((acm.lte, acm.nr5g, acm.wifi), ("MME", "AMF", "RADIUS AAA"));
    }

    #[test]
    fn render_is_complete() {
        let s = render_table1();
        for needle in ["MME", "AMF", "UPF", "HSS", "UDM/AUSF", "Telemetry"] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn every_row_names_its_implementation() {
        for r in table1() {
            assert!(r.implemented_by.contains("magma"), "{:?}", r.function);
        }
    }
}
