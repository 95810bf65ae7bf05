//! GTP Aggregator (GTP-A): the centralized user-plane interconnect for
//! home-routed federation (§3.6).
//!
//! The paper runs it on a single bare-metal server (8-core Xeon, 2×10G
//! NICs) co-located with the partner MNO's core. Because it is a single
//! on-path device, its capacity bounds the home-routed user plane — the
//! scaling implication §4.3.2 alludes to, which the ablation bench
//! contrasts with local breakout (which scales with AGWs).

use serde::Serialize;

/// Aggregate forwarding capacity of the GTP-A box (NIC-bound: 2×10G).
const GTPA_CAPACITY_BPS: u64 = 20_000_000_000;

/// Flow-level aggregator: offered per-AGW loads in, granted loads out.
#[derive(Debug, Default)]
pub struct GtpAggregator {
    pub total_offered: u64,
    pub total_granted: u64,
}

/// Result of one aggregation round.
#[derive(Debug, Clone, Serialize)]
pub struct GtpaTick {
    /// Granted bytes per AGW, same order as offered.
    pub grants: Vec<u64>,
    pub clipped: bool,
}

impl GtpAggregator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one tick of offered load (bytes per AGW over `tick_secs`).
    pub fn tick(&mut self, offered: &[u64], tick_secs: f64) -> GtpaTick {
        let total: u64 = offered.iter().sum();
        let cap_bytes = (GTPA_CAPACITY_BPS as f64 / 8.0 * tick_secs) as u64;
        let clipped = total > cap_bytes;
        let scale = if clipped {
            cap_bytes as f64 / total.max(1) as f64
        } else {
            1.0
        };
        let grants: Vec<u64> = offered
            .iter()
            .map(|l| (*l as f64 * scale) as u64)
            .collect();
        self.total_offered += total;
        self.total_granted += grants.iter().sum::<u64>();
        GtpaTick { grants, clipped }
    }
}

/// Network capacity comparison: home routing (through one GTP-A) vs
/// local breakout (per-AGW SGi) as the fleet grows. Returns
/// `(n_agws, home_routed_gbps, local_breakout_gbps)` rows.
pub fn scaling_comparison(
    per_agw_offered_bps: u64,
    fleet_sizes: &[usize],
) -> Vec<(usize, f64, f64)> {
    fleet_sizes
        .iter()
        .map(|&n| {
            let mut gtpa = GtpAggregator::new();
            let offered_bytes = (per_agw_offered_bps as f64 / 8.0) as u64;
            let tick = gtpa.tick(&vec![offered_bytes; n], 1.0);
            let home: u64 = tick.grants.iter().sum();
            let local = per_agw_offered_bps as f64 * n as f64;
            (n, home as f64 * 8.0 / 1e9, local / 1e9)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_capacity_grants_everything() {
        let mut g = GtpAggregator::new();
        let t = g.tick(&[1_000_000, 2_000_000], 0.1);
        assert_eq!(t.grants, vec![1_000_000, 2_000_000]);
        assert!(!t.clipped);
    }

    #[test]
    fn over_capacity_scales_fairly() {
        let mut g = GtpAggregator::new();
        // A 0.4 ms tick of the 20 Gbit/s box carries 1 MB.
        let t = g.tick(&[1_500_000, 500_000], 0.0004);
        assert!(t.clipped);
        let total: u64 = t.grants.iter().sum();
        assert!((total as i64 - 1_000_000).abs() < 10);
        // Proportional: 3:1 ratio preserved.
        assert!((t.grants[0] as f64 / t.grants[1] as f64 - 3.0).abs() < 0.01);
    }

    #[test]
    fn home_routing_saturates_local_breakout_scales() {
        let rows = scaling_comparison(
            100_000_000, // 100 Mbit/s per AGW
            &[10, 100, 200, 400, 1000],
        );
        // Local breakout is linear throughout.
        assert!((rows[4].2 - 100.0).abs() < 1.0);
        // Home routing caps at the GTP-A's 20 Gbit/s.
        assert!(rows[4].1 <= 20.1);
        assert!(rows[1].1 > 9.9, "under capacity still fine");
        // Crossover: beyond 200 AGWs the GTP-A is the bottleneck.
        assert!(rows[3].1 < rows[3].2);
    }
}
