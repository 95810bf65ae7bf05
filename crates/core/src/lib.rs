//! # Magma — flexible, low-cost wireless access networks
//!
//! A from-scratch Rust reproduction of *"Building Flexible, Low-Cost
//! Wireless Access Networks With Magma"* (NSDI 2023): an open cellular /
//! WiFi core built around **access gateways** that terminate
//! radio-specific protocols at the network edge, a **hierarchical SDN
//! control plane** (central orchestrator + local AGW controllers), a
//! **programmable software data plane**, **desired-state
//! synchronization**, and **federation** with external operator cores.
//!
//! The hardware substrate (CPUs, links, radios, UEs) is a deterministic
//! discrete-event simulation; the protocol logic (NAS, S1AP, GTP,
//! RADIUS, Diameter, EPS-AKA, flow tables, policy, quota management) is
//! implemented for real. See `DESIGN.md` for the substitution table and
//! `EXPERIMENTS.md` for the paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use magma::prelude::*;
//!
//! // One bare-metal AGW serving a small LTE site, orchestrator attached.
//! let site = SiteSpec { enbs: 1, ues_per_enb: 5, ..SiteSpec::typical() };
//! let cfg = ScenarioConfig::new(42).with_agw(AgwSpec::bare_metal(site));
//! let mut deployment = magma::deploy(cfg);
//! deployment.world.run_until(SimTime::from_secs(30));
//!
//! let csr = magma::testbed::overall_csr(deployment.world.registry(), "ran");
//! assert_eq!(csr, 1.0);
//! ```

pub mod abstractions;

pub use abstractions::{render_table1, table1, AbstractionRow, GenericFunction};

// Re-export the subsystem crates under one roof.
pub use magma_agw as agw;
pub use magma_costmodel as costmodel;
pub use magma_dataplane as dataplane;
pub use magma_feg as feg;
pub use magma_net as net;
pub use magma_orc8r as orc8r;
pub use magma_policy as policy;
pub use magma_ran as ran;
pub use magma_rpc as rpc;
pub use magma_sim as sim;
pub use magma_subscriber as subscriber;
pub use magma_testbed as testbed;
pub use magma_wire as wire;

/// Build a deployment (orchestrator + AGWs + RAN + UE fleets) from a
/// scenario configuration. Alias for [`testbed::scenario::build`].
pub fn deploy(cfg: magma_testbed::ScenarioConfig) -> magma_testbed::Scenario {
    magma_testbed::scenario::build(cfg)
}

/// Common imports for deployment construction.
pub mod prelude {
    pub use magma_policy::{Ambr, PolicyRule, RateLimit, TieredPolicy};
    pub use magma_ran::{SectorModel, TrafficModel};
    pub use magma_sim::{SimDuration, SimTime};
    pub use magma_subscriber::SubscriberProfile;
    pub use magma_testbed::{AgwSpec, CoreLayout, ScenarioConfig, SiteSpec};
    pub use magma_wire::Imsi;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn quickstart_deploys_and_attaches() {
        let site = SiteSpec {
            enbs: 1,
            ues_per_enb: 3,
            ..SiteSpec::typical()
        };
        let cfg = ScenarioConfig::new(42).with_agw(AgwSpec::bare_metal(site));
        let mut deployment = crate::deploy(cfg);
        deployment.world.run_until(SimTime::from_secs(30));
        assert_eq!(
            magma_testbed::overall_csr(deployment.world.registry(), "ran"),
            1.0
        );
        assert_eq!(deployment.orc8r.borrow().fleet_summary().0, 1);
    }
}
