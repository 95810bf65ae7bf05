//! Token-bucket meters — the rate-limiting primitive behind per-user
//! policies ("rate limit customer C to X Mbps…", §2.2).

use crate::flow::MeterId;
use magma_sim::SimTime;
#[expect(
    clippy::disallowed_types,
    reason = "per-packet point lookups only (get_mut/contains_key/remove); the table is never iterated, so hash order cannot leak into exports"
)]
use std::collections::HashMap;

/// One token bucket: sustained rate plus burst allowance.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    pub rate_bps: u64,
    pub burst_bytes: u64,
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    pub fn new(rate_bps: u64, burst_bytes: u64) -> Self {
        TokenBucket {
            rate_bps,
            burst_bytes,
            tokens: burst_bytes as f64,
            last_refill: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.since(self.last_refill).as_secs_f64();
        if dt > 0.0 {
            self.tokens = (self.tokens + dt * self.rate_bps as f64 / 8.0)
                .min(self.burst_bytes as f64);
            self.last_refill = now;
        }
    }

    /// Binary conformance check for a packet of `bytes`.
    pub fn conform(&mut self, now: SimTime, bytes: usize) -> bool {
        self.refill(now);
        if self.tokens >= bytes as f64 {
            self.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }

    /// Fluid-mode grant: how many of `want` bytes may pass right now.
    pub fn grant(&mut self, now: SimTime, want: u64) -> u64 {
        self.refill(now);
        let granted = (want as f64).min(self.tokens) as u64;
        self.tokens -= granted as f64;
        granted
    }

    pub fn available(&mut self, now: SimTime) -> u64 {
        self.refill(now);
        self.tokens as u64
    }
}

/// The data plane's meter table.
#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "point lookups on the per-packet hot path; never iterated"
)]
pub struct MeterTable {
    meters: HashMap<MeterId, TokenBucket>,
    pub dropped_bytes: u64,
    pub dropped_packets: u64,
}

impl MeterTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn install(&mut self, id: MeterId, rate_bps: u64, burst_bytes: u64) {
        self.meters.insert(id, TokenBucket::new(rate_bps, burst_bytes));
    }

    pub fn remove(&mut self, id: MeterId) {
        self.meters.remove(&id);
    }

    pub fn contains(&self, id: MeterId) -> bool {
        self.meters.contains_key(&id)
    }

    pub fn len(&self) -> usize {
        self.meters.len()
    }

    pub fn is_empty(&self) -> bool {
        self.meters.is_empty()
    }

    /// Packet-mode check. Unknown meters pass (fail-open, like OVS when a
    /// meter is missing).
    pub fn conform(&mut self, id: MeterId, now: SimTime, bytes: usize) -> bool {
        match self.meters.get_mut(&id) {
            Some(tb) => {
                let ok = tb.conform(now, bytes);
                if !ok {
                    self.dropped_bytes += bytes as u64;
                    self.dropped_packets += 1;
                }
                ok
            }
            None => true,
        }
    }

    /// Fluid-mode grant.
    pub fn grant(&mut self, id: MeterId, now: SimTime, want: u64) -> u64 {
        match self.meters.get_mut(&id) {
            Some(tb) => {
                let g = tb.grant(now, want);
                self.dropped_bytes += want - g;
                g
            }
            None => want,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_sim::SimDuration;

    #[test]
    fn burst_then_throttle() {
        // 8 kbps = 1000 bytes/s, 500-byte burst.
        let mut tb = TokenBucket::new(8_000, 500);
        let t0 = SimTime::from_secs(1);
        assert!(tb.conform(t0, 400));
        assert!(tb.conform(t0, 100));
        assert!(!tb.conform(t0, 1), "bucket empty");
        // After 100ms, 100 bytes refilled.
        let t1 = t0 + SimDuration::from_millis(100);
        assert!(tb.conform(t1, 100));
        assert!(!tb.conform(t1, 1));
    }

    #[test]
    fn tokens_cap_at_burst() {
        let mut tb = TokenBucket::new(8_000, 500);
        assert_eq!(tb.available(SimTime::from_secs(1000)), 500);
    }

    #[test]
    fn fluid_grant_rate_limits() {
        // 1 Mbps = 125_000 bytes/s, 100ms burst.
        let mut tb = TokenBucket::new(1_000_000, 12_500);
        let mut total = 0;
        for i in 1..=10 {
            let now = SimTime::from_millis(i * 100);
            total += tb.grant(now, 1_000_000);
        }
        // 1s at 125 kB/s (the initial burst is absorbed by the refill cap).
        assert!(
            (total as f64 - 125_000.0).abs() < 1_000.0,
            "total={total}"
        );
    }

    #[test]
    fn zero_burst_bucket_passes_nothing() {
        let mut tb = TokenBucket::new(1_000_000, 0);
        assert_eq!(tb.grant(SimTime::from_secs(5), 1000), 0);
    }

    #[test]
    fn meter_table_fail_open_and_drops() {
        let mut mt = MeterTable::new();
        assert!(mt.conform(MeterId(1), SimTime::ZERO, 1500), "unknown meter passes");
        mt.install(MeterId(1), 8_000, 100);
        let t = SimTime::from_secs(1);
        assert!(mt.conform(MeterId(1), t, 100));
        assert!(!mt.conform(MeterId(1), t, 100));
        assert_eq!(mt.dropped_packets, 1);
        assert_eq!(mt.dropped_bytes, 100);
        mt.remove(MeterId(1));
        assert!(!mt.contains(MeterId(1)));
    }
}
