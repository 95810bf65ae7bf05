//! Threshold alerting over the orchestrator's windowed metrics store.
//!
//! Magma operators run their networks off orc8r alert rules — "page me
//! when a gateway's CPU stays above 85% for 30 s", "attach p99 broke
//! the SLO", "a gateway stopped pushing telemetry". This module is that
//! consumption layer: declarative [`AlertRule`]s evaluated against
//! [`MetricsStore`] windows, with sustain-duration hysteresis so a
//! single noisy sample never pages, and one-alert-per-episode semantics
//! so a breach that persists across many evaluations raises exactly one
//! alert until it resolves.
//!
//! Two clocks drive evaluation, mirroring how a pull-based TSDB would
//! see the data:
//!
//! - **Gateway-metric rules** (gauges, counter rates, quantiles) are
//!   evaluated on each accepted push, against the *gateway-side* sample
//!   clock (`taken_at`). Queued pushes draining after a partition
//!   therefore replay the episode faithfully: a sustained breach that
//!   happened while the gateway was unreachable still fires exactly
//!   once, at the sample time it crossed the sustain window.
//! - **Staleness rules** are evaluated on the orchestrator's periodic
//!   fleet sweep against *its own* clock — staleness is precisely the
//!   absence of pushes, so it cannot be push-driven.

use magma_sim::{Severity, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::metrics::MetricsStore;
use crate::proto::METRICS_INTERVAL;

/// What a rule measures, per gateway.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AlertMetric {
    /// Latest pushed value of a gauge (e.g. `cpu.percent`).
    Gauge { name: String },
    /// Per-second increase of a cumulative counter over `window`
    /// ([`MetricsStore::rate`]).
    CounterRate { name: String, window: SimDuration },
    /// A quantile (`q` in `[0, 1]`) of the gateway's latest cumulative
    /// histogram — e.g. attach p99 against an SLO. Cumulative since
    /// gateway start, so this is a lifetime quantile, not a windowed
    /// one (documented limitation; windows hold scalars only).
    Quantile { name: String, q: f64 },
    /// Seconds since the gateway's last accepted push, by the
    /// orchestrator clock ([`MetricsStore::staleness`]).
    Staleness,
}

/// A declarative threshold rule: fire when `metric > threshold` holds
/// continuously for at least `sustain`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRule {
    /// Unique rule name; alert episodes are keyed by (rule, gateway).
    pub name: String,
    pub metric: AlertMetric,
    pub threshold: f64,
    /// How long the breach must persist before firing. Zero fires on
    /// the first breaching evaluation.
    pub sustain: SimDuration,
    pub severity: Severity,
}

impl AlertRule {
    /// CPU% sustained above `threshold` for `sustain` — the classic
    /// gateway-overload page.
    pub fn cpu_sustained(threshold: f64, sustain: SimDuration) -> Self {
        AlertRule {
            name: "cpu_high".to_string(),
            metric: AlertMetric::Gauge {
                name: "cpu.percent".to_string(),
            },
            threshold,
            sustain,
            severity: Severity::Critical,
        }
    }

    /// Attach total-latency p99 above an SLO (seconds).
    pub fn attach_p99_slo(slo_s: f64) -> Self {
        AlertRule {
            name: "attach_p99_slo".to_string(),
            metric: AlertMetric::Quantile {
                name: "mme.attach.total_s".to_string(),
                q: 0.99,
            },
            threshold: slo_s,
            sustain: SimDuration::ZERO,
            severity: Severity::Warning,
        }
    }

    /// Telemetry staleness beyond `intervals` metricsd push intervals
    /// ([`METRICS_INTERVAL`]) — the "gateway went dark" page, analogous
    /// to the device-management 3-missed-check-ins rule.
    pub fn push_staleness(intervals: u32) -> Self {
        AlertRule {
            name: "push_stale".to_string(),
            metric: AlertMetric::Staleness,
            threshold: (METRICS_INTERVAL * u64::from(intervals)).as_secs_f64(),
            sustain: SimDuration::ZERO,
            severity: Severity::Warning,
        }
    }
}

/// Per-(rule, gateway) hysteresis state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RuleState {
    /// Not breaching.
    Idle,
    /// Breaching, but not yet for `sustain`.
    Pending { since: SimTime },
    /// Alert raised; waiting for the breach to clear.
    Firing,
}

/// A fire or resolve edge produced by an evaluation sweep. The caller
/// (Orc8rState) turns these into [`Alert`](crate::Alert) records.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    pub rule: String,
    pub gateway: String,
    pub severity: Severity,
    /// Measured value at the transition edge.
    pub value: f64,
    /// `true` = fire, `false` = resolve.
    pub firing: bool,
    /// Evaluation clock at the edge (gateway clock for metric rules,
    /// orchestrator clock for staleness).
    pub at: SimTime,
}

/// Evaluates rules against the store, tracking hysteresis per
/// (rule, gateway) and emitting only the edges.
#[derive(Debug, Clone, Default)]
pub struct AlertEngine {
    states: BTreeMap<(String, String), RuleState>,
}

impl AlertEngine {
    pub fn new() -> Self {
        AlertEngine::default()
    }

    /// Evaluate the gateway-metric rules (everything but staleness) for
    /// one gateway, called after each accepted push. `clock` is the
    /// gateway-side sample time of that push.
    pub fn on_ingest(
        &mut self,
        rules: &[AlertRule],
        store: &MetricsStore,
        gateway: &str,
        clock: SimTime,
    ) -> Vec<AlertTransition> {
        let mut out = Vec::new();
        for rule in rules {
            if matches!(rule.metric, AlertMetric::Staleness) {
                continue;
            }
            let value = measure(&rule.metric, store, gateway, clock);
            self.step(rule, gateway, value, clock, &mut out);
        }
        out
    }

    /// Evaluate the staleness rules for every known gateway, called on
    /// the orchestrator's periodic fleet sweep with its own clock.
    pub fn on_tick(
        &mut self,
        rules: &[AlertRule],
        store: &MetricsStore,
        now: SimTime,
    ) -> Vec<AlertTransition> {
        let mut out = Vec::new();
        let gateways: Vec<String> = store.gateways().map(|(id, _)| id.to_string()).collect();
        for rule in rules {
            if !matches!(rule.metric, AlertMetric::Staleness) {
                continue;
            }
            for gw in &gateways {
                let value = measure(&rule.metric, store, gw, now);
                self.step(rule, gw, value, now, &mut out);
            }
        }
        out
    }

    /// Advance one (rule, gateway) state machine with a measurement.
    /// An absent measurement (`None`) counts as not breaching.
    fn step(
        &mut self,
        rule: &AlertRule,
        gateway: &str,
        value: Option<f64>,
        clock: SimTime,
        out: &mut Vec<AlertTransition>,
    ) {
        let key = (rule.name.clone(), gateway.to_string());
        let state = self.states.entry(key).or_insert(RuleState::Idle);
        let breaching = value.is_some_and(|v| v > rule.threshold);
        match (*state, breaching) {
            (RuleState::Idle, true) => {
                if rule.sustain.is_zero() {
                    *state = RuleState::Firing;
                    out.push(transition(rule, gateway, value, true, clock));
                } else {
                    *state = RuleState::Pending { since: clock };
                }
            }
            (RuleState::Pending { since }, true) => {
                if clock.since(since) >= rule.sustain {
                    *state = RuleState::Firing;
                    out.push(transition(rule, gateway, value, true, clock));
                }
            }
            (RuleState::Pending { .. }, false) => {
                // Spike shorter than the sustain window: never fires.
                *state = RuleState::Idle;
            }
            (RuleState::Firing, false) => {
                *state = RuleState::Idle;
                out.push(transition(rule, gateway, value, false, clock));
            }
            (RuleState::Idle, false) | (RuleState::Firing, true) => {}
        }
    }
}

fn transition(
    rule: &AlertRule,
    gateway: &str,
    value: Option<f64>,
    firing: bool,
    at: SimTime,
) -> AlertTransition {
    AlertTransition {
        rule: rule.name.clone(),
        gateway: gateway.to_string(),
        severity: rule.severity,
        value: value.unwrap_or(0.0),
        firing,
        at,
    }
}

/// Measure a rule metric for one gateway. `None` when the underlying
/// instrument has not been reported (treated as not breaching).
fn measure(
    metric: &AlertMetric,
    store: &MetricsStore,
    gateway: &str,
    clock: SimTime,
) -> Option<f64> {
    match metric {
        AlertMetric::Gauge { name } => store
            .gateway(gateway)
            .and_then(|gm| gm.latest.gauges.get(name).copied()),
        AlertMetric::CounterRate { name, window } => store.rate(gateway, name, *window),
        AlertMetric::Quantile { name, q } => store
            .gateway(gateway)
            .and_then(|gm| gm.latest.histograms.get(name))
            .filter(|h| !h.is_empty())
            .map(|h| h.quantile(*q)),
        AlertMetric::Staleness => store.staleness(gateway, clock).map(|d| d.as_secs_f64()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_sim::{Registry, RegistrySnapshot};

    fn cpu_snap(cpu: f64) -> RegistrySnapshot {
        let mut r = Registry::new();
        r.gauge_set("cpu.percent", cpu);
        r.snapshot()
    }

    fn push(store: &mut MetricsStore, seq: u64, secs: u64, cpu: f64) -> SimTime {
        let t = SimTime::from_secs(secs);
        store.ingest("agw0", seq, t, cpu_snap(cpu), vec![]);
        t
    }

    fn eval(
        eng: &mut AlertEngine,
        rules: &[AlertRule],
        store: &MetricsStore,
        clock: SimTime,
    ) -> Vec<AlertTransition> {
        eng.on_ingest(rules, store, "agw0", clock)
    }

    #[test]
    fn sustain_window_gates_firing() {
        let rules = vec![AlertRule::cpu_sustained(85.0, SimDuration::from_secs(30))];
        let mut store = MetricsStore::new();
        let mut eng = AlertEngine::new();

        // A single 5 s spike: pending, then back to idle. Never fires.
        for (seq, (secs, cpu)) in [(5u64, 95.0), (10, 40.0), (15, 40.0)].into_iter().enumerate() {
            let t = push(&mut store, seq as u64 + 1, secs, cpu);
            assert!(eval(&mut eng, &rules, &store, t).is_empty());
        }

        // A sustained breach fires exactly once, at the sample where
        // the sustain window elapses, then resolves on recovery.
        let mut fired = Vec::new();
        for (i, cpu) in [95.0, 96.0, 97.0, 95.0, 94.0, 96.0, 95.0, 93.0, 50.0]
            .iter()
            .enumerate()
        {
            let t = push(&mut store, 4 + i as u64, 20 + 5 * (i as u64 + 1), *cpu);
            fired.extend(eval(&mut eng, &rules, &store, t));
        }
        assert_eq!(fired.len(), 2, "{fired:?}");
        assert!(fired[0].firing);
        // Breach began at t=25; sustain 30 s elapses at the t=55 sample.
        assert_eq!(fired[0].at, SimTime::from_secs(55));
        assert_eq!(fired[0].rule, "cpu_high");
        assert!(!fired[1].firing, "recovery resolves");
        assert_eq!(fired[1].at, SimTime::from_secs(65));
    }

    #[test]
    fn zero_sustain_fires_immediately_and_staleness_uses_orc8r_clock() {
        let rules = vec![AlertRule::push_staleness(3)];
        let mut store = MetricsStore::new();
        let mut eng = AlertEngine::new();

        push(&mut store, 1, 5, 10.0);
        // Fresh: 5 s old at t=10, under the 15 s threshold.
        assert!(eng.on_tick(&rules, &store, SimTime::from_secs(10)).is_empty());
        // 20 s old at t=25: fires on the first sweep that sees it.
        let fired = eng.on_tick(&rules, &store, SimTime::from_secs(25));
        assert_eq!(fired.len(), 1);
        assert!(fired[0].firing);
        assert_eq!(fired[0].rule, "push_stale");
        // Staying stale does not re-fire.
        assert!(eng.on_tick(&rules, &store, SimTime::from_secs(30)).is_empty());
        // A fresh push resolves on the next sweep.
        push(&mut store, 2, 31, 10.0);
        let resolved = eng.on_tick(&rules, &store, SimTime::from_secs(35));
        assert_eq!(resolved.len(), 1);
        assert!(!resolved[0].firing);
        // Staleness rules are skipped on the ingest path.
        assert!(eval(&mut eng, &rules, &store, SimTime::from_secs(35)).is_empty());
    }

    #[test]
    fn quantile_and_rate_rules_measure_the_store() {
        let mut store = MetricsStore::new();
        let mut r = Registry::new();
        r.counter_add("mme.attach_reject", 0.0);
        r.observe("mme.attach.total_s", 0.3);
        r.observe("mme.attach.total_s", 4.0);
        store.ingest("agw0", 1, SimTime::from_secs(5), r.snapshot(), vec![]);
        r.counter_add("mme.attach_reject", 30.0);
        store.ingest("agw0", 2, SimTime::from_secs(35), r.snapshot(), vec![]);

        let rules = vec![
            AlertRule::attach_p99_slo(2.0),
            AlertRule {
                name: "reject_rate".to_string(),
                metric: AlertMetric::CounterRate {
                    name: "mme.attach_reject".to_string(),
                    window: SimDuration::from_secs(60),
                },
                threshold: 0.5,
                sustain: SimDuration::ZERO,
                severity: Severity::Warning,
            },
        ];
        let mut eng = AlertEngine::new();
        let fired = eng.on_ingest(&rules, &store, "agw0", SimTime::from_secs(35));
        let names: Vec<&str> = fired.iter().map(|t| t.rule.as_str()).collect();
        assert_eq!(names, vec!["attach_p99_slo", "reject_rate"]);
        // 30 rejects over 30 s = 1/s.
        assert!((fired[1].value - 1.0).abs() < 1e-9);
    }
}
