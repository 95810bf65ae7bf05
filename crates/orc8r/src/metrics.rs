//! Orchestrator-side metrics store: the landing zone for gateway
//! `metricsd` pushes and the northbound query surface over them.
//!
//! The real orc8r feeds gateway metrics into Prometheus and answers
//! operator queries ("CPU% across gateways", "attach p99 by stage");
//! here the store keeps, per gateway, the latest [`RegistrySnapshot`]
//! plus a bounded rolling window of scalar samples and a bounded log of
//! structured events. It answers the same queries by reading gauges per
//! gateway, merging histograms across them (bucket-wise, since every
//! gateway uses the same bounds for a given instrument), and computing
//! `rate()` / `avg_over()` / `max_over()` over the windows — the
//! substrate the alerting engine evaluates rules against.
//!
//! Snapshot names arrive *without* the gateway prefix (`metricsd` strips
//! it before pushing), so `mme.attach.total_s` from `agw0` and `agw1`
//! are the same instrument and merge cleanly.

use magma_sim::{BucketHistogram, RegistrySnapshot, SimDuration, SimTime, StructuredEvent};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Samples retained per gateway: 10 minutes of pushes. Bounds
/// orchestrator memory per gateway.
pub const HISTORY_CAP: usize = 120;

/// Structured events retained per gateway (oldest evicted beyond this).
pub const EVENTS_CAP: usize = 1024;

/// The 1-minute query window, for `rate()` / `avg_over()` / `max_over()`.
pub const WINDOW_1M: SimDuration = SimDuration(60 * 1_000_000);

/// The 10-minute query window — the whole retained history at the
/// push interval.
pub const WINDOW_10M: SimDuration = SimDuration(600 * 1_000_000);

/// The scalar part of one accepted push: gauges and counters, stamped
/// with the gateway-side sample time. Histograms are cumulative and are
/// not kept per-sample (the latest snapshot subsumes them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalarSample {
    pub at: SimTime,
    pub gauges: BTreeMap<String, f64>,
    pub counters: BTreeMap<String, f64>,
}

/// Telemetry state for one gateway.
#[derive(Debug, Clone, Default)]
pub struct GatewayMetrics {
    /// Most recent snapshot (counters/gauges are cumulative, so the
    /// latest one subsumes the history).
    pub latest: RegistrySnapshot,
    /// Rolling window of scalar samples (newest at the back), at most
    /// [`HISTORY_CAP`] — the substrate for `rate()` / `avg_over()` /
    /// `max_over()` northbound queries.
    pub history: VecDeque<ScalarSample>,
    /// Structured events delivered from the gateway's `eventd`, in
    /// id order, at most [`EVENTS_CAP`] retained.
    pub events: Vec<StructuredEvent>,
    /// Events evicted from `events` by the retention cap.
    pub events_dropped: u64,
    /// Highest sequence number stored.
    pub last_seq: u64,
    /// Gateway-side sim time of the latest snapshot.
    pub last_at: Option<SimTime>,
    /// Distinct snapshots accepted.
    pub pushes: u64,
    /// Redelivered snapshots dropped by sequence-number dedupe.
    pub duplicates: u64,
}

/// Windowed-snapshot store keyed by gateway id, plus fleet-wide queries.
#[derive(Debug, Clone, Default)]
pub struct MetricsStore {
    gateways: BTreeMap<String, GatewayMetrics>,
}

impl MetricsStore {
    pub fn new() -> Self {
        MetricsStore::default()
    }

    /// Store a pushed snapshot and its event batch. Returns `false`
    /// (and changes nothing but the duplicate counter) when `seq` is
    /// not newer than what is already stored — the RPC client's reconnect
    /// flush redelivered an old push. Dedupe covers the events too: a
    /// dropped push never double-delivers its events.
    pub fn ingest(
        &mut self,
        agw_id: &str,
        seq: u64,
        taken_at: SimTime,
        snapshot: RegistrySnapshot,
        events: Vec<StructuredEvent>,
    ) -> bool {
        let gm = self.gateways.entry(agw_id.to_string()).or_default();
        if gm.pushes > 0 && seq <= gm.last_seq {
            gm.duplicates += 1;
            return false;
        }
        gm.history.push_back(ScalarSample {
            at: taken_at,
            gauges: snapshot.gauges.clone(),
            counters: snapshot.counters.clone(),
        });
        while gm.history.len() > HISTORY_CAP {
            gm.history.pop_front();
        }
        gm.events.extend(events);
        while gm.events.len() > EVENTS_CAP {
            gm.events.remove(0);
            gm.events_dropped += 1;
        }
        gm.latest = snapshot;
        gm.last_seq = seq;
        gm.last_at = Some(taken_at);
        gm.pushes += 1;
        true
    }

    /// Samples of `agw_id` within `window` of its newest sample, oldest
    /// first. Windows anchor at the gateway's own clock (the newest
    /// `taken_at`), so queued pushes draining after a partition still
    /// window correctly.
    fn window(&self, agw_id: &str, window: SimDuration) -> Vec<&ScalarSample> {
        let Some(gm) = self.gateways.get(agw_id) else {
            return Vec::new();
        };
        let Some(newest) = gm.history.back() else {
            return Vec::new();
        };
        gm.history
            .iter()
            .filter(|s| newest.at.since(s.at) <= window)
            .collect()
    }

    /// Per-second increase of a (cumulative) counter over `window`:
    /// `(last - first) / Δt` across the in-window samples. `None` with
    /// fewer than two samples or when the counter is absent.
    pub fn rate(&self, agw_id: &str, counter: &str, window: SimDuration) -> Option<f64> {
        let samples = self.window(agw_id, window);
        let first = samples.first()?;
        let last = samples.last()?;
        let dt = last.at.since(first.at).as_secs_f64();
        if dt <= 0.0 {
            return None;
        }
        let a = first.counters.get(counter)?;
        let b = last.counters.get(counter)?;
        Some((b - a) / dt)
    }

    /// Mean of a gauge across the in-window samples.
    pub fn avg_over(&self, agw_id: &str, gauge: &str, window: SimDuration) -> Option<f64> {
        let vals: Vec<f64> = self
            .window(agw_id, window)
            .iter()
            .filter_map(|s| s.gauges.get(gauge).copied())
            .collect();
        if vals.is_empty() {
            return None;
        }
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }

    /// Maximum of a gauge across the in-window samples.
    pub fn max_over(&self, agw_id: &str, gauge: &str, window: SimDuration) -> Option<f64> {
        self.window(agw_id, window)
            .iter()
            .filter_map(|s| s.gauges.get(gauge).copied())
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Time since the gateway's last accepted push, by the
    /// orchestrator's clock. `None` before the first push.
    pub fn staleness(&self, agw_id: &str, now: SimTime) -> Option<SimDuration> {
        let gm = self.gateways.get(agw_id)?;
        gm.last_at.map(|t| now.since(t))
    }

    /// The retained structured events of one gateway, in id order.
    pub fn events(&self, agw_id: &str) -> &[StructuredEvent] {
        self.gateways
            .get(agw_id)
            .map(|gm| gm.events.as_slice())
            .unwrap_or(&[])
    }

    /// The retained events of one gateway with the given kind.
    pub fn events_of_kind<'a>(&'a self, agw_id: &str, kind: &'a str) -> Vec<&'a StructuredEvent> {
        self.events(agw_id)
            .iter()
            .filter(|e| e.kind == kind)
            .collect()
    }

    pub fn gateway(&self, agw_id: &str) -> Option<&GatewayMetrics> {
        self.gateways.get(agw_id)
    }

    /// All gateways that have pushed at least once, in id order.
    pub fn gateways(&self) -> impl Iterator<Item = (&str, &GatewayMetrics)> {
        self.gateways.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// A gauge's latest value on every gateway that reports it.
    pub fn gauge_by_gateway(&self, name: &str) -> Vec<(String, f64)> {
        self.gateways
            .iter()
            .filter_map(|(id, gm)| {
                gm.latest.gauges.get(name).map(|v| (id.clone(), *v))
            })
            .collect()
    }

    /// A counter's latest value on every gateway that reports it.
    pub fn counter_by_gateway(&self, name: &str) -> Vec<(String, f64)> {
        self.gateways
            .iter()
            .filter_map(|(id, gm)| {
                gm.latest.counters.get(name).map(|v| (id.clone(), *v))
            })
            .collect()
    }

    /// Sum of a counter across the fleet.
    pub fn counter_total(&self, name: &str) -> f64 {
        self.counter_by_gateway(name).iter().map(|(_, v)| v).sum()
    }

    /// Overall CPU% per gateway — the query behind the paper's CPU
    /// saturation plots (Figures 7/8), served from pushed telemetry.
    pub fn cpu_percent_by_gateway(&self) -> Vec<(String, f64)> {
        self.gauge_by_gateway("cpu.percent")
    }

    /// Merge a histogram instrument across every gateway reporting it.
    /// Gateways whose bucket bounds disagree with the first reporter are
    /// skipped (cannot happen when all run the same code).
    pub fn merged_histogram(&self, name: &str) -> Option<BucketHistogram> {
        let mut merged: Option<BucketHistogram> = None;
        for gm in self.gateways.values() {
            if let Some(h) = gm.latest.histograms.get(name) {
                match &mut merged {
                    None => merged = Some(h.clone()),
                    Some(m) => {
                        m.merge(h);
                    }
                }
            }
        }
        merged
    }

    /// Quantiles (`q` in `[0, 1]`) of a fleet-merged histogram, e.g.
    /// `quantiles("mme.attach.total_s", &[0.5, 0.95, 0.99])` answers
    /// "attach p99 by stage" across the whole deployment.
    pub fn quantiles(&self, name: &str, qs: &[f64]) -> Option<Vec<f64>> {
        let h = self.merged_histogram(name)?;
        if h.is_empty() {
            return None;
        }
        Some(qs.iter().map(|q| h.quantile(*q)).collect())
    }

    /// Union of histogram instrument names across the fleet, sorted.
    pub fn histogram_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .gateways
            .values()
            .flat_map(|gm| gm.latest.histograms.keys().cloned())
            .collect();
        names.sort();
        names.dedup();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_sim::Registry;

    fn snap(accepts: f64, cpu: f64, latency: f64) -> RegistrySnapshot {
        let mut r = Registry::new();
        r.counter_add("mme.attach_accept", accepts);
        r.gauge_set("cpu.percent", cpu);
        r.observe("mme.attach.total_s", latency);
        r.snapshot()
    }

    fn ev(id: u64, kind: &str) -> StructuredEvent {
        StructuredEvent {
            id,
            at: SimTime(id),
            gateway: "agw0".to_string(),
            kind: kind.to_string(),
            severity: magma_sim::Severity::Warning,
            fields: BTreeMap::new(),
        }
    }

    #[test]
    fn ingest_keeps_latest_and_dedupes_by_seq() {
        let mut s = MetricsStore::new();
        assert!(s.ingest(
            "agw0",
            1,
            SimTime(5_000_000),
            snap(1.0, 10.0, 0.1),
            vec![ev(1, "attach_failure")]
        ));
        assert!(s.ingest("agw0", 2, SimTime(10_000_000), snap(3.0, 20.0, 0.2), vec![]));
        // The reconnect flush redelivers seq 2: dropped, events included.
        assert!(!s.ingest(
            "agw0",
            2,
            SimTime(10_000_000),
            snap(9.0, 99.0, 0.9),
            vec![ev(2, "bearer_drop")]
        ));

        let gm = s.gateway("agw0").unwrap();
        assert_eq!(gm.pushes, 2);
        assert_eq!(gm.duplicates, 1);
        assert_eq!(gm.last_seq, 2);
        assert_eq!(gm.latest.counters.get("mme.attach_accept"), Some(&3.0));
        // The duplicate's events were not double-delivered.
        assert_eq!(s.events("agw0").len(), 1);
        assert_eq!(s.events_of_kind("agw0", "attach_failure").len(), 1);
        assert!(s.events_of_kind("agw0", "bearer_drop").is_empty());
        // History kept both accepted samples.
        assert_eq!(gm.history.len(), 2);
    }

    #[test]
    fn window_queries_compute_rate_avg_max_and_staleness() {
        let mut s = MetricsStore::new();
        // One sample every 5 s for 100 s: counter grows 2/s, cpu ramps.
        for i in 0..20u64 {
            let t = SimTime((i + 1) * 5_000_000);
            s.ingest("agw0", i + 1, t, snap(10.0 * (i + 1) as f64, i as f64, 0.1), vec![]);
        }
        // Over the last minute: (i=19 minus i=7) → 120 counts / 60 s.
        let r = s.rate("agw0", "mme.attach_accept", WINDOW_1M).unwrap();
        assert!((r - 2.0).abs() < 1e-9, "rate {r}");
        // Gauge window stats: samples i=7..=19 → cpu 7..=19.
        let avg = s.avg_over("agw0", "cpu.percent", WINDOW_1M).unwrap();
        assert!((avg - 13.0).abs() < 1e-9, "avg {avg}");
        assert_eq!(s.max_over("agw0", "cpu.percent", WINDOW_1M), Some(19.0));
        // The 10-minute window covers everything retained here.
        let r10 = s.rate("agw0", "mme.attach_accept", WINDOW_10M).unwrap();
        assert!((r10 - 2.0).abs() < 1e-9);
        // Staleness against a later clock.
        assert_eq!(
            s.staleness("agw0", SimTime(110_000_000)),
            Some(SimDuration(10_000_000))
        );
        assert!(s.staleness("agw9", SimTime(1)).is_none());
        // Absent counters and single-sample windows answer None.
        assert!(s.rate("agw0", "missing", WINDOW_1M).is_none());
        assert!(s.rate("agw0", "mme.attach_accept", SimDuration(1)).is_none());
    }

    #[test]
    fn history_and_events_are_bounded() {
        let mut s = MetricsStore::new();
        for i in 0..(HISTORY_CAP as u64 + 10) {
            let batch = (0..10).map(|j| ev(i * 10 + j, "attach_failure")).collect();
            s.ingest("agw0", i + 1, SimTime(i * 5_000_000), snap(1.0, 1.0, 0.1), batch);
        }
        let gm = s.gateway("agw0").unwrap();
        assert_eq!(gm.history.len(), HISTORY_CAP);
        assert_eq!(gm.events.len(), EVENTS_CAP);
        assert_eq!(gm.events_dropped, (HISTORY_CAP as u64 + 10) * 10 - EVENTS_CAP as u64);
        // Newest events were kept.
        assert_eq!(gm.events.last().unwrap().id, (HISTORY_CAP as u64 + 10) * 10 - 1);
    }

    #[test]
    fn fleet_queries_read_across_gateways() {
        let mut s = MetricsStore::new();
        s.ingest("agw0", 1, SimTime(1), snap(5.0, 30.0, 0.1), vec![]);
        s.ingest("agw1", 1, SimTime(1), snap(7.0, 80.0, 0.4), vec![]);

        assert_eq!(
            s.cpu_percent_by_gateway(),
            vec![("agw0".to_string(), 30.0), ("agw1".to_string(), 80.0)]
        );
        assert_eq!(s.counter_total("mme.attach_accept"), 12.0);

        let merged = s.merged_histogram("mme.attach.total_s").unwrap();
        assert_eq!(merged.count, 2);
        let qs = s.quantiles("mme.attach.total_s", &[0.5, 0.99]).unwrap();
        assert!(qs[0] <= qs[1]);
        assert!(s.quantiles("missing", &[0.5]).is_none());
        assert_eq!(s.histogram_names(), vec!["mme.attach.total_s".to_string()]);
    }
}
