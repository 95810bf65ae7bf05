//! Typed metric instruments: counters, gauges, fixed-bucket histograms,
//! and procedure spans — the substrate Magma's per-service `metricsd`
//! samples on every gateway — plus raw `(time, value)` series for
//! figure extraction.
//!
//! Counters, gauges and histograms are the operational view: cheap to
//! snapshot, cheap to ship over the modeled network, and mergeable on
//! the orchestrator side. [`Series`] stay local: no snapshot carries
//! them. Instruments are created on first use and addressed by dotted
//! name following the `<service>.<object>[_<unit>]` convention
//! documented in `docs/OBSERVABILITY.md` (e.g. `agw0.mme.attach.s1ap_s`,
//! `ran.attach_ok`).
//!
//! Everything is deterministic: no wall-clock, no randomness, and all
//! maps are `BTreeMap`s so snapshots serialize in a stable order.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::metrics::Series;
use crate::time::{SimDuration, SimTime};

/// Order-independent `f64` accumulation: both operands are quantized to
/// fixed-point microunits (1e-6) before adding, so a sum over any
/// permutation of the same observations lands on the same bits. Plain
/// float addition is not associative, which would make counter and
/// histogram sums depend on dispatch order — exactly the schedule
/// dependence magma-racecheck exists to rule out. The 1e-6 grain
/// matches the kernel's microsecond time base; values above ~2^53/1e6
/// (≈9e9) would lose integer exactness, far beyond any modeled metric.
fn quantized_add(sum: f64, v: f64) -> f64 {
    const SCALE: f64 = 1e6;
    ((sum * SCALE).round() + (v * SCALE).round()) / SCALE
}

/// Default histogram bounds for latency-style observations, in seconds.
///
/// Chosen to bracket the procedure latencies the paper cares about:
/// sub-millisecond data-plane work up through multi-second attach storms.
pub const DEFAULT_SECONDS_BOUNDS: [f64; 14] = [
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0,
];

/// A fixed-bucket histogram (Prometheus-style, cumulative on query).
///
/// `bounds` are inclusive upper bounds; `counts` has one extra slot for
/// overflow. The struct doubles as its own wire snapshot: it is plain
/// data, serde-serializable, and mergeable across gateways when bucket
/// bounds agree. `min`/`max` are `0.0` (not ±∞) when empty so the JSON
/// encoding round-trips.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketHistogram {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts[bounds.len()]` is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value (0.0 while `count == 0`).
    pub min: f64,
    /// Largest observed value (0.0 while `count == 0`).
    pub max: f64,
}

impl Default for BucketHistogram {
    fn default() -> Self {
        BucketHistogram::new(&DEFAULT_SECONDS_BOUNDS)
    }
}

impl BucketHistogram {
    pub fn new(bounds: &[f64]) -> Self {
        BucketHistogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Record one observation. Non-finite values are dropped (they would
    /// poison `sum` and cannot survive a JSON round-trip).
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.count += 1;
        self.sum = quantized_add(self.sum, v);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation within the bucket holding the target rank. The
    /// overflow bucket reports `max`. Empty histograms report 0.0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if cum >= rank && c > 0 {
                if i == self.bounds.len() {
                    return self.max;
                }
                let upper = self.bounds[i];
                let lower = if i == 0 {
                    self.min.min(upper)
                } else {
                    self.bounds[i - 1]
                };
                let frac = (rank - prev) as f64 / c as f64;
                let v = lower + frac * (upper - lower);
                return v.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience: `p` in percent (`percentile(99.0)` = `quantile(0.99)`).
    pub fn percentile(&self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }

    /// Merge another histogram with identical bounds into this one.
    /// Returns `false` (leaving `self` untouched) when bounds differ.
    pub fn merge(&mut self, other: &BucketHistogram) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.sum = quantized_add(self.sum, other.sum);
        true
    }
}

/// A point-in-time copy of a registry, suitable for shipping over the
/// modeled network (`metricsd` → orc8r) and for deterministic export.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    pub counters: BTreeMap<String, f64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, BucketHistogram>,
}

/// Cap on the distinct instruments each namespace prefix (the first
/// dotted segment: `agw0`, `ran`) may create.
pub const DEFAULT_MAX_INSTRUMENTS_PER_PREFIX: usize = 256;

/// Name (under each prefix) of the counter recording registrations the
/// cardinality guard rejected. Exempt from the cap itself, and shipped
/// to the orchestrator like any other counter.
pub const OVERFLOW_COUNTER: &str = "registry_overflow_total";

/// A registry of named instruments. One lives inside the simulation
/// kernel (reachable via `Ctx::registry()`), shared by every actor in
/// the world the way Magma services share a host's metric namespace —
/// name prefixes (`agw0.`, `ran.`) keep services apart.
///
/// Each prefix may create at most [`DEFAULT_MAX_INSTRUMENTS_PER_PREFIX`]
/// distinct instruments; existing ones are never evicted, and excess
/// registrations are dropped and tallied in
/// `<prefix>.registry_overflow_total`, so a service that interpolates
/// unbounded labels into metric names cannot bloat `metricsd` pushes.
/// Series are outside all of this: never snapshotted, never capped,
/// never counted as mutations.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, BucketHistogram>,
    series: BTreeMap<String, Series>,
    prefix_counts: BTreeMap<String, usize>,
    /// Total mutation operations (counter adds, gauge sets, histogram
    /// observations). An order-invariant progress measure folded into
    /// racecheck's per-window digests.
    mutations: u64,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Admit a *new* instrument name, charging it against its prefix's
    /// cardinality budget. Returns `false` (and bumps the prefix's
    /// overflow counter) when the budget is exhausted. Names without a
    /// dotted prefix and the overflow counter itself are exempt.
    fn admit(&mut self, name: &str) -> bool {
        let Some((prefix, rest)) = name.split_once('.') else {
            return true;
        };
        if rest == OVERFLOW_COUNTER {
            return true;
        }
        let n = self.prefix_counts.entry(prefix.to_string()).or_insert(0);
        if *n < DEFAULT_MAX_INSTRUMENTS_PER_PREFIX {
            *n += 1;
            return true;
        }
        let overflow = format!("{prefix}.{OVERFLOW_COUNTER}");
        *self.counters.entry(overflow).or_insert(0.0) += 1.0;
        false
    }

    /// Add to a monotonic counter (created at 0 on first use). Sums are
    /// accumulated in fixed-point microunits (see `quantized_add`), so
    /// the final value is independent of the order contributions arrive.
    pub fn counter_add(&mut self, name: &str, by: f64) {
        self.mutations += 1;
        if let Some(c) = self.counters.get_mut(name) {
            *c = quantized_add(*c, by);
            return;
        }
        if self.admit(name) {
            self.counters
                .insert(name.to_string(), quantized_add(0.0, by));
        }
    }

    /// Set a gauge to its current value.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.mutations += 1;
        if let Some(g) = self.gauges.get_mut(name) {
            *g = v;
            return;
        }
        if self.admit(name) {
            self.gauges.insert(name.to_string(), v);
        }
    }

    /// Observe into a histogram with the default latency bounds.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.observe_with(name, &DEFAULT_SECONDS_BOUNDS, v);
    }

    /// Observe into a histogram created with explicit bounds. Bounds are
    /// fixed on first use; later calls reuse the existing buckets.
    pub fn observe_with(&mut self, name: &str, bounds: &[f64], v: f64) {
        self.mutations += 1;
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
            return;
        }
        if self.admit(name) {
            self.histograms
                .insert(name.to_string(), BucketHistogram::new(bounds));
            self.histograms.get_mut(name).unwrap().observe(v);
        }
    }

    /// Append a point to a local time series (created on first use).
    /// Allocates only when the series is new.
    pub fn record(&mut self, name: &str, t: SimTime, v: f64) {
        match self.series.get_mut(name) {
            Some(s) => s.push(t, v),
            None => self.series.entry(name.to_string()).or_default().push(t, v),
        }
    }

    /// Total mutation operations performed on this registry since
    /// construction (order-invariant; see the field doc).
    pub fn mutation_count(&self) -> u64 {
        self.mutations
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&BucketHistogram> {
        self.histograms.get(name)
    }

    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(|s| s.as_str())
    }

    pub fn gauge_names(&self) -> impl Iterator<Item = &str> {
        self.gauges.keys().map(|s| s.as_str())
    }

    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.keys().map(|s| s.as_str())
    }

    /// Copy every counter, gauge and histogram (series stay local).
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// Copy the instruments under `"<prefix>."`, stripping the prefix —
    /// this is what a gateway's `metricsd` ships: `agw0.mme.attach.s1ap_s`
    /// leaves the box as `mme.attach.s1ap_s`, so the orchestrator can
    /// merge the same instrument across gateways.
    pub fn snapshot_prefixed(&self, prefix: &str) -> RegistrySnapshot {
        let pfx = format!("{prefix}.");
        let mut snap = RegistrySnapshot::default();
        for (k, v) in &self.counters {
            if let Some(rest) = k.strip_prefix(&pfx) {
                snap.counters.insert(rest.to_string(), *v);
            }
        }
        for (k, v) in &self.gauges {
            if let Some(rest) = k.strip_prefix(&pfx) {
                snap.gauges.insert(rest.to_string(), *v);
            }
        }
        for (k, v) in &self.histograms {
            if let Some(rest) = k.strip_prefix(&pfx) {
                snap.histograms.insert(rest.to_string(), v.clone());
            }
        }
        snap
    }
}

/// Times a multi-stage procedure in sim time and feeds each stage's
/// duration into the registry on completion.
///
/// A span is begun when the procedure starts (e.g. an Initial UE
/// Message arriving), [`mark`](Span::mark)ed as each stage completes
/// (S1AP → NAS auth → session setup → GTP bearer install), and
/// [`finish`](Span::finish)ed on success — producing one histogram per
/// stage (`<name>.<stage>_s`) plus `<name>.total_s`. Spans of failed
/// procedures are simply dropped and record nothing, keeping the stage
/// histograms success-conditioned like the paper's attach latency.
#[derive(Debug, Clone)]
pub struct Span {
    name: String,
    last: SimTime,
    stages: Vec<(String, SimDuration)>,
}

impl Span {
    /// Start a span named after the metric base it will record under,
    /// e.g. `agw0.mme.attach`.
    pub fn begin(name: impl Into<String>, now: SimTime) -> Self {
        Span {
            name: name.into(),
            last: now,
            stages: Vec::new(),
        }
    }

    /// Close the current stage: its duration is the sim time elapsed
    /// since the previous mark (or since `begin` for the first stage).
    pub fn mark(&mut self, stage: &str, now: SimTime) {
        let d = now.since(self.last);
        self.stages.push((stage.to_string(), d));
        self.last = now;
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stages marked so far, in order.
    pub fn stages(&self) -> &[(String, SimDuration)] {
        &self.stages
    }

    /// Total time across all marked stages.
    pub fn total(&self) -> SimDuration {
        let us = self.stages.iter().map(|(_, d)| d.0).sum();
        SimDuration(us)
    }

    /// Record each stage into `<name>.<stage>_s` and the sum into
    /// `<name>.total_s`, consuming the span.
    pub fn finish(self, reg: &mut Registry) {
        let mut total = 0u64;
        for (stage, d) in &self.stages {
            reg.observe(&format!("{}.{stage}_s", self.name), d.as_secs_f64());
            total += d.0;
        }
        reg.observe(
            &format!("{}.total_s", self.name),
            SimDuration(total).as_secs_f64(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = BucketHistogram::new(&[1.0, 2.0, 5.0, 10.0]);
        for v in 1..=10 {
            h.observe(v as f64);
        }
        // 1 | 2 | 3,4,5 | 6..10 | overflow
        assert_eq!(h.counts, vec![1, 1, 3, 5, 0]);
        assert_eq!(h.count, 10);
        assert_eq!(h.sum, 55.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 10.0);
        assert_eq!(h.quantile(0.5), 5.0);
        assert_eq!(h.quantile(1.0), 10.0);
        assert_eq!(h.percentile(100.0), 10.0);
        // p10 lands in the first bucket: interpolates from min.
        assert!(h.quantile(0.1) <= 1.0 && h.quantile(0.1) >= h.min);
        // Quantiles are monotone in q.
        let mut prev = 0.0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn histogram_overflow_and_empty() {
        let mut h = BucketHistogram::new(&[1.0]);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        h.observe(100.0);
        assert_eq!(h.counts, vec![0, 1]);
        assert_eq!(h.quantile(0.99), 100.0);
        // Non-finite observations are dropped.
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count, 1);
    }

    #[test]
    fn histogram_merge_requires_equal_bounds() {
        let mut a = BucketHistogram::new(&[1.0, 2.0]);
        let mut b = BucketHistogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        b.observe(1.5);
        b.observe(9.0);
        assert!(a.merge(&b));
        assert_eq!(a.count, 3);
        assert_eq!(a.counts, vec![1, 1, 1]);
        assert_eq!(a.min, 0.5);
        assert_eq!(a.max, 9.0);

        let c = BucketHistogram::new(&[3.0]);
        assert!(!a.merge(&c));
        assert_eq!(a.count, 3);
    }

    #[test]
    fn registry_instruments() {
        let mut r = Registry::new();
        r.counter_add("agw0.mme.attach_start", 1.0);
        r.counter_add("agw0.mme.attach_start", 2.0);
        r.gauge_set("agw0.sessiond.sessions", 40.0);
        r.gauge_set("agw0.sessiond.sessions", 41.0);
        r.observe("agw0.mme.attach.total_s", 0.25);
        assert_eq!(r.counter("agw0.mme.attach_start"), 3.0);
        assert_eq!(r.counter("missing"), 0.0);
        assert_eq!(r.gauge("agw0.sessiond.sessions"), Some(41.0));
        assert_eq!(r.histogram("agw0.mme.attach.total_s").unwrap().count, 1);
    }

    #[test]
    fn snapshot_prefixed_strips_gateway_id() {
        let mut r = Registry::new();
        r.counter_add("agw0.mme.attach_accept", 5.0);
        r.counter_add("agw1.mme.attach_accept", 7.0);
        r.gauge_set("agw0.cpu.percent", 37.5);
        r.observe("agw0.mme.attach.s1ap_s", 0.01);
        r.counter_add("ran.attach_ok", 9.0);

        let snap = r.snapshot_prefixed("agw0");
        assert_eq!(snap.counters.get("mme.attach_accept"), Some(&5.0));
        assert_eq!(snap.gauges.get("cpu.percent"), Some(&37.5));
        assert!(snap.histograms.contains_key("mme.attach.s1ap_s"));
        assert!(!snap.counters.contains_key("ran.attach_ok"));
        assert_eq!(snap.counters.len(), 1);

        let full = r.snapshot();
        assert_eq!(full.counters.len(), 3);
    }

    #[test]
    fn cardinality_guard_drops_excess_and_counts_overflow() {
        let mut r = Registry::new();
        r.counter_add("agw0.mme.a", 1.0);
        r.gauge_set("agw0.mme.b", 2.0);
        for i in 2..DEFAULT_MAX_INSTRUMENTS_PER_PREFIX {
            r.counter_add(&format!("agw0.mme.n{i}"), 1.0);
        }
        assert_eq!(r.counter("agw0.registry_overflow_total"), 0.0);
        // Budget exhausted: new instruments of any type are dropped.
        r.counter_add("agw0.mme.c", 5.0);
        r.observe("agw0.mme.d_s", 0.1);
        assert_eq!(r.counter("agw0.mme.c"), 0.0);
        assert!(r.histogram("agw0.mme.d_s").is_none());
        assert_eq!(r.counter("agw0.registry_overflow_total"), 2.0);
        // Existing instruments keep updating.
        r.counter_add("agw0.mme.a", 1.0);
        r.gauge_set("agw0.mme.b", 3.0);
        assert_eq!(r.counter("agw0.mme.a"), 2.0);
        assert_eq!(r.gauge("agw0.mme.b"), Some(3.0));
        // Other prefixes have their own budget.
        r.counter_add("agw1.mme.a", 1.0);
        assert_eq!(r.counter("agw1.mme.a"), 1.0);
        assert_eq!(r.counter("agw1.registry_overflow_total"), 0.0);
        // The overflow counter ships like any instrument, prefix-stripped.
        let snap = r.snapshot_prefixed("agw0");
        assert_eq!(snap.counters.get(OVERFLOW_COUNTER), Some(&2.0));
    }

    #[test]
    fn series_record_appends_and_reads_back() {
        let mut r = Registry::new();
        r.record("agw0.tp_bytes", SimTime::ZERO, 5.0);
        r.record("agw0.tp_bytes", SimTime::from_secs(1), 7.0);
        let s = r.series("agw0.tp_bytes").unwrap();
        assert_eq!(s.points, vec![(0, 5.0), (1_000_000, 7.0)]);
        assert!(r.series("missing").is_none());
    }

    #[test]
    fn series_never_enter_a_snapshot() {
        let mut r = Registry::new();
        r.counter_add("agw0.mme.attach_accept", 1.0);
        r.record("agw0.config.push", SimTime::ZERO, 1.0);
        for (snap, name) in [
            (r.snapshot_prefixed("agw0"), "mme.attach_accept"),
            (r.snapshot(), "agw0.mme.attach_accept"),
        ] {
            assert_eq!(snap.counters.keys().collect::<Vec<_>>(), [name]);
            assert!(snap.gauges.is_empty() && snap.histograms.is_empty());
        }
    }

    #[test]
    fn series_are_not_mutations() {
        let mut r = Registry::new();
        r.counter_add("agw0.mme.attach_accept", 1.0);
        let before = r.mutation_count();
        r.record("agw0.config.push", SimTime::ZERO, 1.0);
        r.record("agw0.config.push", SimTime::from_secs(1), 1.0);
        assert_eq!(r.mutation_count(), before);
    }

    #[test]
    fn series_do_not_use_up_the_prefix_cap() {
        let mut r = Registry::new();
        for i in 0..2 * DEFAULT_MAX_INSTRUMENTS_PER_PREFIX {
            r.record(&format!("agw0.wifi.s{i}"), SimTime::ZERO, 1.0);
        }
        for i in 0..DEFAULT_MAX_INSTRUMENTS_PER_PREFIX {
            r.counter_add(&format!("agw0.mme.n{i}"), 1.0);
        }
        assert_eq!(r.counter("agw0.registry_overflow_total"), 0.0);
        assert_eq!(
            r.snapshot_prefixed("agw0").counters.len(),
            DEFAULT_MAX_INSTRUMENTS_PER_PREFIX
        );
    }

    #[test]
    fn span_records_stage_and_total_histograms() {
        let mut r = Registry::new();
        let t0 = SimTime(1_000_000);
        let mut span = Span::begin("agw0.mme.attach", t0);
        span.mark("s1ap", SimTime(1_010_000));
        span.mark("nas_auth", SimTime(1_040_000));
        span.mark("session_setup", SimTime(1_045_000));
        span.mark("bearer_install", SimTime(1_060_000));
        assert_eq!(span.total(), SimDuration(60_000));
        span.finish(&mut r);

        let s1ap = r.histogram("agw0.mme.attach.s1ap_s").unwrap();
        assert_eq!(s1ap.count, 1);
        assert!((s1ap.sum - 0.01).abs() < 1e-9);
        let total = r.histogram("agw0.mme.attach.total_s").unwrap();
        assert!((total.sum - 0.06).abs() < 1e-9);
    }
}
