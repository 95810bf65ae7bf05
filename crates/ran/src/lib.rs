//! # magma-ran — RAN and UE emulation (the Spirent Landslide analog)
//!
//! eNodeB/gNB actors that terminate the simulated radio side: each hosts
//! a fleet of [`UeSim`] state machines with real SIM credentials,
//! attaches them on a configured schedule, generates traffic subject to
//! the sector's radio capacity, and measures connection success rate and
//! achieved throughput — the measurements behind Figures 5–8. A WiFi
//! access point actor covers the carrier-WiFi/backhaul deployments
//! (§4.3.1) via RADIUS against the AGW's AAA.

pub mod enb;
pub mod flows;
pub mod radio;
pub mod ue;
pub mod wifi;

/// The dispatch surfaces this crate declares (see `magma_sim::flow`).
pub const DISPATCHES: &[&magma_sim::Dispatch] = &[&flows::ENB_DISPATCH, &flows::WIFI_DISPATCH];

pub use enb::{EnbConfig, EnodebActor};
pub use radio::SectorModel;
pub use ue::{TrafficModel, UePhase, UeSim};
pub use wifi::{Logout, WifiApActor, WifiApConfig};

use magma_wire::Imsi;

/// Build a UE fleet whose SIM credentials match
/// `SubscriberProfile::lte(imsi, seed, index)` provisioning with
/// `index = base_msin + i`.
pub fn ue_fleet(seed: u64, base_msin: u64, n: usize, traffic: TrafficModel) -> Vec<UeSim> {
    (0..n as u64)
        .map(|i| {
            UeSim::new(Imsi::new(310, 26, base_msin + i), seed, base_msin + i)
                .with_traffic(traffic)
        })
        .collect()
}

/// Like [`ue_fleet`], but the first `low_end_frac` fraction of UEs carry
/// the low-end-baseband quirk (§3.1): they wedge after an unexpected
/// session loss instead of reconnecting.
pub fn ue_fleet_with_quirk(
    seed: u64,
    base_msin: u64,
    n: usize,
    traffic: TrafficModel,
    low_end_frac: f64,
) -> Vec<UeSim> {
    let n_quirky = (n as f64 * low_end_frac).round() as usize;
    ue_fleet(seed, base_msin, n, traffic)
        .into_iter()
        .enumerate()
        .map(|(i, ue)| if i < n_quirky { ue.with_low_end_baseband() } else { ue })
        .collect()
}
