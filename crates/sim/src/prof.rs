//! # simprof — kernel-level profiling attribution
//!
//! Answers the paper's core evaluation question — *which resource
//! saturates first* — for the simulator itself: every event dispatch and
//! every CPU-model execution is attributed to a `(actor, event-kind)`
//! pair, accumulating four columns:
//!
//! 1. **host wall-clock** spent inside `Actor::handle`,
//! 2. **virtual CPU-seconds** consumed on the modeled cores
//!    (charged at `Ctx::try_exec` submission, once per job),
//! 3. **dispatch count**, and
//! 4. **event-heap stats** (peak depth, total scheduled/cancelled —
//!    tracked unconditionally in the queue; see [`HeapStats`]).
//!
//! Sub-actor hot paths (`fluid_tick`, RPC encode/decode, registry
//! snapshots) are covered by cheap
//! [`Ctx::profile_scope`](crate::Ctx::profile_scope) guards: one
//! branch when profiling is
//! disabled, a scope-row update on drop when enabled.
//!
//! ## Determinism contract
//!
//! The profile is split **by construction** into a `virtual` section
//! (dispatch counts, virtual CPU-seconds, scope entry counts, heap
//! stats — all functions of the seed alone) and a `host` section (wall
//! clock, events/sec, peak RSS). Host-side clocks never feed back into
//! virtual time or any actor-visible state, so enabling the profiler
//! cannot perturb a run. Same-seed runs serialize byte-identical
//! `virtual` sections; `host` is explicitly excluded from byte-identity
//! comparisons.
//!
//! Profiling is **off by default** for library users; the testbed
//! scenario builder and `magma-bench` switch it on via
//! `World::enable_profiling`. Disabled, the kernel pays one boolean
//! branch per dispatch and per guard. The host columns are read by
//! the repo benchmark's `layers` pass (`benchmark/`).

use crate::actor::Event;
use crate::registry::Registry;
use crate::time::SimDuration;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Event kinds an actor can be dispatched with, in `Event` declaration
/// order. Index with `kind_index`.
pub const KIND_NAMES: [&str; 4] = ["start", "timer", "msg", "cpu_done"];

/// Dense kind index for attribution rows.
pub(crate) fn kind_index(ev: &Event) -> usize {
    match ev {
        Event::Start => 0,
        Event::Timer { .. } => 1,
        Event::Msg { .. } => 2,
        Event::CpuDone { .. } => 3,
    }
}

/// Host-side monotonic clock read. Lives here (and only here) so the
/// profiling clock is a single audited exemption: it measures real
/// elapsed time for the `host` profile section and never reaches
/// virtual time, actor state, or any deterministic export.
#[allow(clippy::disallowed_methods)]
pub fn host_now() -> Instant {
    Instant::now()
}

/// Wall-clock stopwatch for host-side phase timing (bench phases, run
/// loops). Kept in the kernel so non-kernel crates need no ambient
/// clock of their own.
#[derive(Debug, Clone, Copy)]
pub struct HostStopwatch {
    t0: Instant,
}

impl HostStopwatch {
    pub fn start() -> Self {
        HostStopwatch { t0: host_now() }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    pub fn elapsed_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where unavailable. Host-section data only.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Event-heap statistics, maintained unconditionally by the event queue
/// (three integer ops per push/cancel — cheap and deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct HeapStats {
    /// High-water mark of the heap length.
    pub peak_depth: u64,
    /// Total events ever scheduled.
    pub scheduled_total: u64,
    /// Total cancellations requested.
    pub cancelled_total: u64,
}

/// Accumulator cell for one `(actor, event-kind)` pair.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    dispatches: u64,
    host_ns: u64,
    /// Host time spent inside `profile_scope` guards during these
    /// dispatches; self time = `host_ns - child_ns`.
    child_ns: u64,
    vcpu_us: u64,
}

/// Accumulator for one `profile_scope` label.
#[derive(Debug, Clone)]
struct ScopeCell {
    label: &'static str,
    count: u64,
    host_ns: u64,
}

/// The kernel-owned profiler. All mutation goes through the kernel's
/// `Rc<RefCell<Profiler>>` handle so scope guards can record on drop
/// without borrowing the kernel.
#[derive(Debug, Default)]
pub struct Profiler {
    enabled: bool,
    /// Indexed by actor id; one cell per event kind.
    rows: Vec<[Cell; 4]>,
    /// Linear by label: the label set is a handful of `&'static str`s.
    scopes: Vec<ScopeCell>,
    /// The `(actor, kind)` currently being dispatched, for vCPU and
    /// scope attribution.
    current: Option<(usize, usize)>,
    /// Virtual CPU-seconds submitted outside any dispatch (harness-side
    /// injections); a non-empty bucket here means attribution is
    /// incomplete, which the bench asserts against.
    unattributed_vcpu_us: u64,
}

/// Shared handle type the kernel stores and guards clone.
pub type ProfHandle = Rc<RefCell<Profiler>>;

impl Profiler {
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Mark the start of a dispatch (only called when enabled).
    pub(crate) fn dispatch_begin(&mut self, actor: usize, kind: usize) {
        if self.rows.len() <= actor {
            self.rows.resize(actor + 1, [Cell::default(); 4]);
        }
        self.current = Some((actor, kind));
    }

    /// Record a finished dispatch (only called when enabled).
    pub(crate) fn dispatch_end(&mut self, actor: usize, kind: usize, elapsed_ns: u64) {
        let cell = &mut self.rows[actor][kind];
        cell.dispatches += 1;
        cell.host_ns += elapsed_ns;
        self.current = None;
    }

    /// Charge a CPU-model job's service time to the dispatch that
    /// submitted it (only called when enabled).
    pub(crate) fn charge_vcpu(&mut self, service: SimDuration) {
        match self.current {
            Some((a, k)) => self.rows[a][k].vcpu_us += service.as_micros(),
            None => self.unattributed_vcpu_us += service.as_micros(),
        }
    }

    /// Record one closed `profile_scope` (only called when enabled).
    pub(crate) fn scope_record(&mut self, label: &'static str, elapsed_ns: u64) {
        if let Some((a, k)) = self.current {
            self.rows[a][k].child_ns += elapsed_ns;
        }
        match self.scopes.iter_mut().find(|s| s.label == label) {
            Some(s) => {
                s.count += 1;
                s.host_ns += elapsed_ns;
            }
            None => self.scopes.push(ScopeCell {
                label,
                count: 1,
                host_ns: elapsed_ns,
            }),
        }
    }

    /// Assemble the snapshot. Rows are aggregated by actor *name* so the
    /// output cardinality is bounded by the set of actor types, not the
    /// fleet size; ordering is lexicographic (deterministic).
    pub(crate) fn snapshot(
        &self,
        names: &[&str],
        heap: HeapStats,
        events_processed: u64,
    ) -> ProfileSnapshot {
        let mut by_name: BTreeMap<(String, usize), Cell> = BTreeMap::new();
        for (idx, kinds) in self.rows.iter().enumerate() {
            let name = names.get(idx).copied().unwrap_or("?");
            for (k, cell) in kinds.iter().enumerate() {
                if cell.dispatches == 0 && cell.vcpu_us == 0 {
                    continue;
                }
                let agg = by_name.entry((name.to_string(), k)).or_default();
                agg.dispatches += cell.dispatches;
                agg.host_ns += cell.host_ns;
                agg.child_ns += cell.child_ns;
                agg.vcpu_us += cell.vcpu_us;
            }
        }

        let mut virt_rows = Vec::with_capacity(by_name.len());
        let mut host_rows = Vec::with_capacity(by_name.len());
        let mut attributed_us = 0u64;
        let mut total_host_ns = 0u64;
        for ((name, k), cell) in &by_name {
            attributed_us += cell.vcpu_us;
            total_host_ns += cell.host_ns;
            virt_rows.push(VirtRow {
                actor: name.clone(),
                kind: KIND_NAMES[*k].to_string(),
                dispatches: cell.dispatches,
                vcpu_s: cell.vcpu_us as f64 / 1e6,
            });
            host_rows.push(HostRow {
                actor: name.clone(),
                kind: KIND_NAMES[*k].to_string(),
                wall_s: cell.host_ns as f64 / 1e9,
                self_wall_s: cell.host_ns.saturating_sub(cell.child_ns) as f64 / 1e9,
            });
        }

        let mut scopes = self.scopes.clone();
        scopes.sort_by_key(|s| s.label);
        let virt_scopes = scopes
            .iter()
            .map(|s| VirtScope {
                label: s.label.to_string(),
                count: s.count,
            })
            .collect();
        let host_scopes = scopes
            .iter()
            .map(|s| HostScope {
                label: s.label.to_string(),
                wall_s: s.host_ns as f64 / 1e9,
            })
            .collect();

        let wall_s = total_host_ns as f64 / 1e9;
        ProfileSnapshot {
            virt: VirtualProfile {
                enabled: self.enabled,
                events_processed,
                vcpu_attributed_s: attributed_us as f64 / 1e6,
                vcpu_total_s: (attributed_us + self.unattributed_vcpu_us) as f64 / 1e6,
                heap,
                rows: virt_rows,
                scopes: virt_scopes,
            },
            host: HostProfile {
                wall_s,
                events_per_sec: if wall_s > 0.0 {
                    events_processed as f64 / wall_s
                } else {
                    0.0
                },
                peak_rss_bytes: peak_rss_bytes(),
                rows: host_rows,
                scopes: host_scopes,
            },
        }
    }
}

/// RAII guard returned by `Ctx::profile_scope`. Inert (a `None`) when
/// profiling is disabled; otherwise records elapsed host time and one
/// deterministic entry count on drop. Guards must not be nested inside
/// one another — scope time also accumulates as the enclosing
/// dispatch's child time, and nesting would double-count it.
pub struct ScopeGuard {
    inner: Option<(ProfHandle, &'static str, Instant)>,
}

impl ScopeGuard {
    pub(crate) fn inert() -> Self {
        ScopeGuard { inner: None }
    }

    pub(crate) fn armed(prof: ProfHandle, label: &'static str) -> Self {
        ScopeGuard {
            inner: Some((prof, label, host_now())),
        }
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some((prof, label, t0)) = self.inner.take() {
            let ns = t0.elapsed().as_nanos() as u64;
            prof.borrow_mut().scope_record(label, ns);
        }
    }
}

/// One `(actor, event-kind)` attribution row — deterministic columns.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct VirtRow {
    pub actor: String,
    pub kind: String,
    pub dispatches: u64,
    pub vcpu_s: f64,
}

/// One `(actor, event-kind)` attribution row — host columns.
#[derive(Debug, Clone, Serialize)]
pub struct HostRow {
    pub actor: String,
    pub kind: String,
    pub wall_s: f64,
    /// Wall time minus time spent under `profile_scope` guards.
    pub self_wall_s: f64,
}

/// One `profile_scope` row — deterministic columns.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct VirtScope {
    pub label: String,
    pub count: u64,
}

/// One `profile_scope` row — host columns.
#[derive(Debug, Clone, Serialize)]
pub struct HostScope {
    pub label: String,
    pub wall_s: f64,
}

/// Seed-determined profile columns. Serializes under the JSON key
/// `"virtual"`; byte-identical across same-seed runs.
#[derive(Debug, Clone, Serialize)]
pub struct VirtualProfile {
    pub enabled: bool,
    pub events_processed: u64,
    /// Virtual CPU-seconds charged to a named `(actor, kind)` row.
    pub vcpu_attributed_s: f64,
    /// All virtual CPU-seconds submitted (attributed + unattributed).
    pub vcpu_total_s: f64,
    pub heap: HeapStats,
    pub rows: Vec<VirtRow>,
    pub scopes: Vec<VirtScope>,
}

impl VirtualProfile {
    /// Fraction of virtual CPU-seconds attributed to a named row. A
    /// run that submitted no CPU work at all reports 0.0 — never NaN —
    /// so empty scenarios stay valid JSON and comparable.
    pub fn attribution_fraction(&self) -> f64 {
        if self.vcpu_total_s <= 0.0 {
            0.0
        } else {
            self.vcpu_attributed_s / self.vcpu_total_s
        }
    }
}

/// Host-side profile columns: wall clock, throughput, memory. Excluded
/// from byte-identity comparisons by construction.
#[derive(Debug, Clone, Serialize)]
pub struct HostProfile {
    /// Total wall time spent inside actor dispatch.
    pub wall_s: f64,
    /// Events dispatched per host second of dispatch time.
    pub events_per_sec: f64,
    pub peak_rss_bytes: u64,
    pub rows: Vec<HostRow>,
    pub scopes: Vec<HostScope>,
}

/// The full profile: a `virtual` section (deterministic) and a `host`
/// section (wall-clock), segregated by construction.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileSnapshot {
    #[serde(rename = "virtual")]
    pub virt: VirtualProfile,
    pub host: HostProfile,
}

impl ProfileSnapshot {
    /// Export the deterministic profile aggregates into the registry so
    /// the standard export/golden-diff machinery audits them. Explicit —
    /// never called automatically — so enabling profiling alone does not
    /// perturb existing registry exports.
    pub fn observe_into(&self, reg: &mut Registry) {
        let dispatches: u64 = self.virt.rows.iter().map(|r| r.dispatches).sum();
        let scope_enters: u64 = self.virt.scopes.iter().map(|s| s.count).sum();
        reg.counter_add("sim.prof.dispatch_total", dispatches as f64);
        reg.counter_add("sim.prof.scope_enter_total", scope_enters as f64);
        reg.gauge_set("sim.prof.vcpu_attributed_s", self.virt.vcpu_attributed_s);
        reg.gauge_set("sim.prof.vcpu_total_s", self.virt.vcpu_total_s);
        reg.gauge_set("sim.prof.heap_peak_depth", self.virt.heap.peak_depth as f64);
        reg.counter_add(
            "sim.prof.heap_scheduled_total",
            self.virt.heap.scheduled_total as f64,
        );
        reg.counter_add(
            "sim.prof.heap_cancelled_total",
            self.virt.heap.cancelled_total as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_rows_aggregate_by_actor_name() {
        let mut p = Profiler::default();
        p.set_enabled(true);
        // Two actors with the same name, one with another.
        p.dispatch_begin(0, 2);
        p.charge_vcpu(SimDuration::from_millis(10));
        p.dispatch_end(0, 2, 1_000);
        p.dispatch_begin(1, 2);
        p.charge_vcpu(SimDuration::from_millis(5));
        p.dispatch_end(1, 2, 2_000);
        p.dispatch_begin(2, 0);
        p.dispatch_end(2, 0, 500);
        let snap = p.snapshot(&["mme", "mme", "enb"], HeapStats::default(), 3);
        assert_eq!(snap.virt.rows.len(), 2);
        let mme = snap
            .virt
            .rows
            .iter()
            .find(|r| r.actor == "mme")
            .expect("mme row");
        assert_eq!(mme.dispatches, 2);
        assert_eq!(mme.kind, "msg");
        assert!((mme.vcpu_s - 0.015).abs() < 1e-12);
        assert!((snap.virt.attribution_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_reports_zero_fraction_not_nan() {
        let p = Profiler::default();
        let snap = p.snapshot(&[], HeapStats::default(), 0);
        assert_eq!(snap.virt.vcpu_total_s, 0.0);
        let frac = snap.virt.attribution_fraction();
        assert!(frac.is_finite());
        assert_eq!(frac, 0.0);
    }

    #[test]
    fn out_of_dispatch_vcpu_lands_in_unattributed() {
        let mut p = Profiler::default();
        p.set_enabled(true);
        p.charge_vcpu(SimDuration::from_millis(10));
        let snap = p.snapshot(&[], HeapStats::default(), 0);
        assert_eq!(snap.virt.vcpu_attributed_s, 0.0);
        assert!((snap.virt.vcpu_total_s - 0.01).abs() < 1e-12);
        assert!(snap.virt.attribution_fraction() < 1e-9);
    }

    #[test]
    fn scope_time_counts_as_child_of_enclosing_dispatch() {
        let mut p = Profiler::default();
        p.set_enabled(true);
        p.dispatch_begin(0, 1);
        p.scope_record("dataplane.fluid_tick", 400);
        p.dispatch_end(0, 1, 1_000);
        let snap = p.snapshot(&["agw"], HeapStats::default(), 1);
        assert_eq!(snap.virt.scopes.len(), 1);
        assert_eq!(snap.virt.scopes[0].count, 1);
        let row = &snap.host.rows[0];
        assert!((row.wall_s - 1e-6).abs() < 1e-15);
        assert!((row.self_wall_s - 0.6e-6).abs() < 1e-15);
    }

    #[test]
    fn virtual_section_serializes_without_host_fields() {
        let p = Profiler::default();
        let snap = p.snapshot(&[], HeapStats::default(), 0);
        let virt = serde_json::to_string(&snap.virt).unwrap();
        for host_key in ["wall_s", "events_per_sec", "peak_rss_bytes"] {
            assert!(
                !virt.contains(host_key),
                "virtual section leaked host field {host_key}: {virt}"
            );
        }
        let whole = serde_json::to_string(&snap).unwrap();
        assert!(whole.contains("\"virtual\""));
        assert!(whole.contains("\"host\""));
    }
}
