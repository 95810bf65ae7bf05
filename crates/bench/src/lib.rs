//! # magma-bench — the determinism harness
//!
//! A fixed set of simulator workloads — an attach storm at the
//! bare-metal knee, a scaling ablation sweep, a mixed attach+traffic
//! site, and a partition/recovery drill — each emitting a
//! `BENCH_<scenario>.json` report whose `virtual` section is
//! byte-identical across same-seed runs (CSR, attach p99, events
//! simulated, the simprof attribution profile, the trace digest), plus
//! a `TRACE_<scenario>.json` Perfetto sidecar. The `magma-bench` binary
//! pins them: a golden diff of the smoke scenario and racecheck's
//! permuted window schedules. Host time is measured by the repo
//! benchmark (`benchmark/`), not here. See docs/PROFILING.md.
//!
//! `benches/micro.rs` times the kernels the benchmark's `layers` probes
//! do not.

use magma_ran::{SectorModel, TrafficModel};
use magma_sim::{
    ProcSummary, ProfileSnapshot, RaceExport, RunSpec, SimDuration, SimTime, TraceSnapshot,
    TraceStats, VirtualProfile, World,
};
use magma_testbed::measure::{mean_over, overall_csr, throughput_mbps};
use magma_testbed::scenario::{build, AgwSpec, Scenario, ScenarioConfig, SiteSpec};
use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Bumped whenever the report layout changes; consumers (the smoke
/// diff) refuse mismatched schemas instead of misreading them.
/// v4 removed the `shard` block v3 added to the virtual section; v5
/// removed the `host` section.
pub const BENCH_SCHEMA_VERSION: u32 = 5;

/// Default seed for the suite; scenario runs derive from it.
pub const BENCH_SEED: u64 = 42;

/// Deterministic half of a report: every field is a pure function of
/// (scenario, seed). The determinism test asserts byte-identity of this
/// section across same-seed runs.
#[derive(Debug, Clone, Serialize)]
pub struct VirtSection {
    /// Simulated duration.
    pub sim_seconds: f64,
    /// Events dispatched by the kernel across the scenario's runs.
    pub events_simulated: u64,
    /// Overall connection success rate (1.0 when no attaches were made).
    pub csr: f64,
    /// p99 of the primary gateway's attach span, seconds (0 when none).
    pub attach_p99_s: f64,
    /// Scenario-specific deterministic values (sweep points etc.);
    /// BTreeMap for stable ordering.
    pub extra: BTreeMap<String, f64>,
    /// simprof virtual columns: per-(actor, event-kind) dispatch counts
    /// and vCPU-seconds, heap stats, scope enter counts.
    pub profile: VirtualProfile,
    /// magma-trace digest: tracer counters plus per-procedure
    /// critical-path attribution (deterministic — virtual time only).
    /// The full span trees land in `TRACE_<scenario>.json` instead.
    pub trace: TraceDigest,
}

/// The deterministic slice of a [`TraceSnapshot`] that belongs in a
/// bench report: aggregates only, no span firehose.
#[derive(Debug, Clone, Serialize)]
pub struct TraceDigest {
    pub stats: TraceStats,
    pub procs: Vec<ProcSummary>,
}

impl TraceDigest {
    fn from_snapshot(snap: &TraceSnapshot) -> Self {
        TraceDigest {
            stats: snap.stats.clone(),
            procs: snap.procs.clone(),
        }
    }
}

/// One scenario's full report, as serialized to `BENCH_<scenario>.json`.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    pub schema: u32,
    pub scenario: String,
    pub seed: u64,
    #[serde(rename = "virtual")]
    pub virt: VirtSection,
}

/// Names of the full scenario suite, in run order.
pub const SCENARIOS: [&str; 4] = [
    "attach_storm",
    "scaling_ablation",
    "mixed",
    "partition_recovery",
];

/// One-line description per suite scenario, for `magma-bench --list`
/// (same order as [`SCENARIOS`]; cross-linked from docs/PROFILING.md).
pub const SCENARIO_DESCRIPTIONS: [(&str, &str); 5] = [
    (
        "smoke",
        "tiny attach storm for CI: schema check, golden diff",
    ),
    (
        "attach_storm",
        "surge attaches at the bare-metal knee (~2 UE/s, Figure 6 worst case)",
    ),
    (
        "scaling_ablation",
        "N in {1,2,4} identical sites: capacity scales linearly with AGWs (S4.2)",
    ),
    (
        "mixed",
        "steady-state attach + HTTP traffic with session churn on a typical site",
    ),
    (
        "partition_recovery",
        "orchestrator unreachable 20s-70s, headless operation, telemetry drain (S3.2)",
    ),
];

/// A scenario run: the serializable report plus the full trace snapshot
/// (span trees included) for the `TRACE_<scenario>.json` sidecar.
pub struct BenchRun {
    pub report: BenchReport,
    pub trace: TraceSnapshot,
}

/// Run a scenario by name; `smoke` is the extra tiny one used by
/// `scripts/check.sh bench-smoke`.
pub fn run_scenario(name: &str, seed: u64) -> Option<BenchRun> {
    match name {
        "smoke" => Some(smoke(seed)),
        "attach_storm" => Some(attach_storm(seed)),
        "scaling_ablation" => Some(scaling_ablation(seed)),
        "mixed" => Some(mixed(seed)),
        "partition_recovery" => Some(partition_recovery(seed)),
        _ => None,
    }
}

thread_local! {
    /// Racecheck plumbing for [`run_scenario_racecheck`]: while armed,
    /// every world a scenario builds runs under the race observer (and
    /// the permuted window schedule when the spec asks for one), and
    /// each world's digest export is collected here in build order.
    static RACECHECK: RefCell<Option<RacecheckState>> = const { RefCell::new(None) };
}

struct RacecheckState {
    spec: RunSpec,
    exports: Vec<RaceExport>,
}

/// Enable the race observer on a freshly built world if a racecheck run
/// is armed. Called right after `build` so the observer sees every
/// dispatch from `Start` onward.
fn rc_arm(world: &mut World) {
    RACECHECK.with(|rc| {
        if let Some(st) = rc.borrow().as_ref() {
            world.enable_racecheck(st.spec.schedule);
            world.set_race_detail_window(st.spec.detail_window);
        }
    });
}

/// Collect a finished world's digest export if a racecheck run is armed.
fn rc_collect(world: &mut World) {
    RACECHECK.with(|rc| {
        if let Some(st) = rc.borrow_mut().as_mut() {
            st.exports.push(world.race_export());
        }
    });
}

/// Run a scenario under the race observer: the returned exports hold one
/// digest stream per world the scenario built (sweeps build several), in
/// deterministic build order. `spec.schedule = None` records the
/// canonical `(time, seq)` order; `Some(seed)` executes the permuted
/// window schedule. See `magma-bench --racecheck` and docs/DETERMINISM.md
/// § "Logical races and the window schedule".
pub fn run_scenario_racecheck(
    name: &str,
    seed: u64,
    spec: RunSpec,
) -> Option<(BenchRun, Vec<RaceExport>)> {
    RACECHECK.with(|rc| {
        *rc.borrow_mut() = Some(RacecheckState {
            spec,
            exports: Vec::new(),
        })
    });
    let run = run_scenario(name, seed);
    let st = RACECHECK
        .with(|rc| rc.borrow_mut().take())
        .expect("racecheck state armed for the whole scenario run");
    run.map(|r| (r, st.exports))
}

/// Accumulates world totals across a scenario's runs (sweeps run
/// several worlds; the report merges them).
#[derive(Default)]
struct RunAccum {
    events: u64,
    /// Profile of the designated primary run (the one the report's
    /// attribution columns describe).
    profile: Option<ProfileSnapshot>,
    /// Trace snapshot of the same primary run.
    trace: Option<TraceSnapshot>,
}

/// Build + run one world to `until`.
fn run_world(acc: &mut RunAccum, cfg: ScenarioConfig, until: SimTime) -> Scenario {
    let mut sc = build(cfg);
    rc_arm(&mut sc.world);
    sc.world.run_until(until);
    rc_collect(&mut sc.world);
    acc.events += sc.world.events_processed();
    sc
}

fn attach_p99(sc: &Scenario) -> f64 {
    // Primary gateway's attach span (4G path; 5G registrations record
    // under `amf.register` instead).
    let name = format!("{}.mme.attach.total_s", sc.agws[0].id);
    sc.world
        .registry()
        .histogram(&name)
        .map(|h| h.quantile(0.99))
        .unwrap_or(0.0)
}

fn finish(
    name: &str,
    seed: u64,
    acc: RunAccum,
    sim_seconds: f64,
    csr: f64,
    attach_p99_s: f64,
    extra: BTreeMap<String, f64>,
) -> BenchRun {
    let snap = acc.profile.expect("scenario records a primary profile");
    let trace = acc.trace.expect("scenario records a primary trace snapshot");
    let report = BenchReport {
        schema: BENCH_SCHEMA_VERSION,
        scenario: name.to_string(),
        seed,
        virt: VirtSection {
            sim_seconds,
            events_simulated: acc.events,
            csr,
            attach_p99_s,
            extra,
            profile: snap.virt,
            trace: TraceDigest::from_snapshot(&trace),
        },
    };
    BenchRun { report, trace }
}

/// The fig6-style "worst case" site: surge attaches while every attached
/// UE saturates its share of the radio.
fn storm_site(rate: f64, n_ues: usize) -> SiteSpec {
    SiteSpec {
        enbs: 2,
        ues_per_enb: n_ues / 2,
        attach_rate_per_sec: rate,
        traffic: TrafficModel {
            dl_bps: 30_000_000,
            ul_bps: 2_000_000,
        },
        sector: SectorModel {
            capacity_bps: 2_000_000_000,
            max_active_ues: 200,
        },
        ue_attach_timeout: SimDuration::from_secs(10),
        reattach: false,
        session_lifetime_s: None,
    }
}

/// Tiny variant of the storm for `bench-smoke`: small
/// enough to finish in seconds, big enough that the profile has rows.
pub fn smoke(seed: u64) -> BenchRun {
    let mut acc = RunAccum::default();
    let sim_s = 30.0;
    let cfg = ScenarioConfig::new(seed).with_agw(AgwSpec::bare_metal(storm_site(2.0, 30)));
    let sc = run_world(&mut acc, cfg, SimTime::from_secs(sim_s as u64));
    acc.profile = Some(sc.world.profile());
    acc.trace = Some(sc.world.trace_snapshot());
    let csr = overall_csr(sc.world.registry(), "ran");
    let p99 = attach_p99(&sc);
    finish("smoke", seed, acc, sim_s, csr, p99, BTreeMap::new())
}

/// Attach storm at the bare-metal knee (~2 UE/s, Figure 6): the paper's
/// worst-case control-plane workload, long enough for the surge plus a
/// saturated steady state.
pub fn attach_storm(seed: u64) -> BenchRun {
    let mut acc = RunAccum::default();
    let sim_s = 90.0;
    let cfg = ScenarioConfig::new(seed).with_agw(AgwSpec::bare_metal(storm_site(2.0, 120)));
    let sc = run_world(&mut acc, cfg, SimTime::from_secs(sim_s as u64));
    acc.profile = Some(sc.world.profile());
    acc.trace = Some(sc.world.trace_snapshot());
    let csr = overall_csr(sc.world.registry(), "ran");
    let p99 = attach_p99(&sc);
    finish("attach_storm", seed, acc, sim_s, csr, p99, BTreeMap::new())
}

/// Scaling ablation sweep (§4.2's "capacity scales linearly with AGWs"):
/// N ∈ {1, 2, 4} identical sites; the report's profile describes the
/// largest point, the sweep lands in `virtual.extra`.
pub fn scaling_ablation(seed: u64) -> BenchRun {
    let mut acc = RunAccum::default();
    let sim_s = 60.0;
    let mut extra = BTreeMap::new();
    let mut last_csr = 1.0;
    for &n in &[1usize, 2, 4] {
        let site = SiteSpec {
            enbs: 1,
            ues_per_enb: 20,
            attach_rate_per_sec: 2.0,
            traffic: TrafficModel::http_download(),
            ..SiteSpec::typical()
        };
        let mut cfg = ScenarioConfig::new(seed);
        for _ in 0..n {
            cfg = cfg.with_agw(AgwSpec::bare_metal(site.clone()));
        }
        let sc = run_world(&mut acc, cfg, SimTime::from_secs(sim_s as u64));
        let rec = sc.world.registry();
        let mut aggregate = 0.0;
        for a in 0..n {
            let tp = throughput_mbps(
                rec,
                &format!("agw{a}.dataplane.tp_bytes"),
                SimDuration::from_secs(1),
            );
            aggregate += mean_over(&tp, SimTime::from_secs(30), SimTime::from_secs(55));
        }
        extra.insert(format!("aggregate_mbps_n{n}"), aggregate);
        extra.insert(format!("per_agw_mbps_n{n}"), aggregate / n as f64);
        last_csr = overall_csr(rec, "ran");
        if n == 4 {
            acc.profile = Some(sc.world.profile());
            acc.trace = Some(sc.world.trace_snapshot());
            let p99 = attach_p99(&sc);
            extra.insert("attach_p99_n4_s".to_string(), p99);
        }
    }
    // Three worlds of sim_s each.
    let p99 = extra.get("attach_p99_n4_s").copied().unwrap_or(0.0);
    finish(
        "scaling_ablation",
        seed,
        acc,
        sim_s * 3.0,
        last_csr,
        p99,
        extra,
    )
}

/// Mixed attach + traffic on a typical site with session churn: the
/// steady-state workload most deployments actually run.
pub fn mixed(seed: u64) -> BenchRun {
    let mut acc = RunAccum::default();
    let sim_s = 120.0;
    let site = SiteSpec {
        enbs: 2,
        ues_per_enb: 30,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel::http_download(),
        reattach: true,
        session_lifetime_s: Some((20, 40)),
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(seed).with_agw(AgwSpec::bare_metal(site));
    let sc = run_world(&mut acc, cfg, SimTime::from_secs(sim_s as u64));
    acc.profile = Some(sc.world.profile());
    acc.trace = Some(sc.world.trace_snapshot());
    let rec = sc.world.registry();
    let csr = overall_csr(rec, "ran");
    let p99 = attach_p99(&sc);
    let mut extra = BTreeMap::new();
    extra.insert("detaches".to_string(), rec.counter("agw0.mme.detach"));
    finish("mixed", seed, acc, sim_s, csr, p99, extra)
}

/// Backhaul partition and recovery: orchestrator unreachable 20s–70s
/// while attaches continue (headless operation, §3.2), then telemetry
/// drains after the link returns.
pub fn partition_recovery(seed: u64) -> BenchRun {
    let mut acc = RunAccum::default();
    let sim_s = 120.0;
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 120,
        attach_rate_per_sec: 2.0,
        traffic: TrafficModel::http_download(),
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(seed).with_agw(AgwSpec::bare_metal(site));
    let mut sc = build(cfg);
    rc_arm(&mut sc.world);
    let agw_node = sc.agws[0].node;
    let orc8r_node = sc.orc8r_node;
    sc.world.run_until(SimTime::from_secs(20));
    sc.net.set_link_up(agw_node, orc8r_node, false);
    sc.world.run_until(SimTime::from_secs(70));
    sc.net.set_link_up(agw_node, orc8r_node, true);
    sc.world.run_until(SimTime::from_secs(sim_s as u64));
    rc_collect(&mut sc.world);
    acc.events += sc.world.events_processed();
    acc.profile = Some(sc.world.profile());
    acc.trace = Some(sc.world.trace_snapshot());
    let rec = sc.world.registry();
    let csr = overall_csr(rec, "ran");
    let p99 = attach_p99(&sc);
    let mut extra = BTreeMap::new();
    extra.insert(
        "metricsd_push_ok".to_string(),
        sc.world.registry().counter("agw0.metricsd.push_ok"),
    );
    extra.insert(
        "metricsd_snapshots".to_string(),
        sc.world.registry().counter("agw0.metricsd.snapshots"),
    );
    finish("partition_recovery", seed, acc, sim_s, csr, p99, extra)
}

/// Structural checks every report must pass: schema version, no host-only
/// key in the virtual section (simprof's `VirtualProfile` sits beside a
/// host half in `ProfileSnapshot`), and a profile that actually
/// attributed work.
pub fn validate(report: &BenchReport) -> Result<(), String> {
    if report.schema != BENCH_SCHEMA_VERSION {
        return Err(format!("schema {} != expected", report.schema));
    }
    let virt =
        serde_json::to_string(&report.virt).map_err(|e| format!("serialize virtual: {e}"))?;
    for host_key in ["wall_s", "events_per_sec", "peak_rss_bytes", "host_ns"] {
        if virt.contains(host_key) {
            return Err(format!("virtual section leaked host field `{host_key}`"));
        }
    }
    if report.virt.events_simulated == 0 {
        return Err("no events simulated".into());
    }
    if !report.virt.profile.enabled {
        return Err("profile was not enabled".into());
    }
    if report.virt.profile.rows.is_empty() {
        return Err("profile attributed no rows".into());
    }
    let frac = report.virt.profile.attribution_fraction();
    if frac < 0.90 {
        return Err(format!(
            "only {:.1}% of vCPU-seconds attributed to named rows",
            frac * 100.0
        ));
    }
    Ok(())
}
