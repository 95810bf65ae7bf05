//! The four workloads and the one way they are executed.
//!
//! The simulator is single-threaded and deterministic, so a workload is
//! a fixed amount of *simulated* work (a batch; arrival schedules inside
//! the simulation are open-loop in simulated time) and host time is the
//! measurement. Worlds are built with `testbed::scenario::build` exactly
//! as `paper_figures` and the examples build them — simprof, magma-trace
//! and shardscope at their testbed defaults, because that is what users
//! pay. `seed` feeds `ScenarioConfig::new(seed)` and nothing else.
//!
//! This module touches only the narrow surface listed in README.md, so
//! the end-to-end binary keeps compiling when a probed function or a
//! snapshot type is reshaped.

use magma::agw::AgwCheckpoint;
use magma::net::LinkProfile;
use magma::prelude::*;
use magma::sim::HostStopwatch;
use magma::testbed::scenario::{build, msin_for, Scenario, SIM_SEED};
use std::collections::{BTreeMap, VecDeque};

/// Simulated warm-up before the timed window: bootstrap, stream open,
/// first check-in and first checkpoint all happen in the first 10 s.
pub const WARMUP_S: u64 = 10;

/// The driver's slice between northbound writes: 100 simulated ms.
const SLICE: SimDuration = SimDuration(100_000);

/// A workload: how to build its world and how to drive the timed window.
pub struct Workload {
    pub name: &'static str,
    /// One line: what it runs and why it is here (also in BENCHMARK.json).
    pub why: &'static str,
    /// Simulated length of the timed window, seconds.
    pub timed_s: u64,
    config: fn(u64) -> ScenarioConfig,
    /// Runs between `build` and the warm-up (still set-up time).
    provision: fn(&mut Scenario),
    /// Advances the world from `WARMUP_S` to `WARMUP_S + timed_s`.
    drive: fn(&mut Scenario, u64, &mut Vec<f64>),
    /// The workload's own end-of-run output check.
    check: fn(&Scenario) -> Result<(), String>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "attach_churn",
        why: "520 churning IoT UEs on one VM AGW: control-plane procedures at scale; AGW handlers, pipelined and dataplane reconcile dominate, RPC does little",
        timed_s: 80,
        config: attach_churn_config,
        provision: |_| {},
        drive: drive_plain,
        check: check_attach_churn,
    },
    Workload {
        name: "site_sync_up",
        why: "Figure 5's typical site (288 UEs, 1.5 Mbit/s each): state flows up, 1 Hz full-state checkpoints plus metricsd pushes; where an RPC/checkpoint change must show",
        timed_s: 400,
        config: site_sync_up_config,
        provision: |_| {},
        drive: drive_plain,
        check: check_site_sync_up,
    },
    Workload {
        name: "config_push_down",
        why: "4 AGWs, northbound writes twice a simulated second: the same rpc/orc8r/subscriber layers used downwards (desired-state push); a checkpoint-only change must not move it",
        timed_s: 50,
        config: config_push_down_config,
        provision: provision_extra_subscribers,
        drive: drive_config_push_down,
        check: check_config_push_down,
    },
    Workload {
        name: "fleet_partition",
        why: "12 AGWs on microwave/satellite backhaul, half lossy, half partitioned 30-60 s: scale-out, retransmission, headless recovery; most events, most memory, largest kernel+net share",
        timed_s: 90,
        config: fleet_partition_config,
        provision: |_| {},
        drive: drive_fleet_partition,
        check: check_fleet_partition,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// ---- attach_churn (§4.2's IoT mix) ----

fn attach_churn_config(seed: u64) -> ScenarioConfig {
    let site = SiteSpec {
        enbs: 4,
        ues_per_enb: 130,
        attach_rate_per_sec: 12.0,
        traffic: TrafficModel::iot(),
        reattach: true,
        session_lifetime_s: Some((40, 80)),
        ..SiteSpec::typical()
    };
    // 8 shared vCPUs sustain ~32 attach/s. The ramp offers 12/s and the
    // churn that follows ~9/s, so the MME queue stays short on every
    // seed: no attach times out and the latency tail does not depend on
    // where the seed puts a burst.
    ScenarioConfig::new(seed).with_agw(AgwSpec::vm(site, CoreLayout::Shared { cores: 8 }))
}

fn check_attach_churn(sc: &Scenario) -> Result<(), String> {
    let reg = sc.world.registry();
    for gw in &sc.agws {
        let gauge = |suffix: &str| reg.gauge(&format!("{}.{suffix}", gw.id)).unwrap_or(-1.0);
        let (sessions, leases, flows) = (
            gauge("sessiond.sessions"),
            gauge("mobilityd.ips_in_use"),
            gauge("dataplane.sessions"),
        );
        if sessions <= 0.0 || sessions != leases || sessions != flows {
            return Err(format!(
                "{}: sessions {sessions} / IP leases {leases} / dataplane sessions {flows} disagree",
                gw.id
            ));
        }
    }
    Ok(())
}

// ---- site_sync_up (Figure 5) ----

fn site_sync_up_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig::new(seed).with_agw(AgwSpec::bare_metal(SiteSpec::typical()))
}

fn check_site_sync_up(sc: &Scenario) -> Result<(), String> {
    let orc8r = sc.orc8r.borrow();
    for gw in &sc.agws {
        let held = gw.handle.borrow().active_sessions;
        let stored = orc8r
            .checkpoints
            .get(&gw.id)
            .ok_or_else(|| format!("{}: no checkpoint stored at orc8r", gw.id))?;
        let cp: AgwCheckpoint = serde_json::from_value(stored.clone())
            .map_err(|e| format!("{}: stored checkpoint does not parse: {e}", gw.id))?;
        if held == 0 || cp.sessions.len() != held {
            return Err(format!(
                "{}: orc8r's checkpoint has {} sessions, the AGW holds {held}",
                gw.id,
                cp.sessions.len()
            ));
        }
    }
    Ok(())
}

// ---- config_push_down (§3.4 desired-state push) ----

const PUSH_AGWS: usize = 4;
const EXTRA_SUBSCRIBERS: u64 = 400;
/// Extra subscribers live under an AGW index no site uses.
const EXTRA_AGW_INDEX: usize = 90;
/// Northbound writes stop this long before the window ends so every
/// replica can converge on the final version.
const QUIET_TAIL_S: u64 = 5;

fn config_push_down_config(seed: u64) -> ScenarioConfig {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 40,
        attach_rate_per_sec: 1.0,
        ..SiteSpec::typical()
    };
    let mut cfg = ScenarioConfig::new(seed);
    for _ in 0..PUSH_AGWS {
        cfg = cfg.with_agw(AgwSpec::bare_metal(site.clone()));
    }
    cfg
}

fn extra_subscriber(k: u64, ambr_dl_kbps: u32) -> SubscriberProfile {
    let msin = msin_for(EXTRA_AGW_INDEX, 0, k as usize);
    let mut p = SubscriberProfile::lte(Imsi::new(310, 26, msin), SIM_SEED, msin);
    p.ambr = Ambr::new(ambr_dl_kbps, 5_000);
    p
}

fn provision_extra_subscribers(sc: &mut Scenario) {
    let mut orc8r = sc.orc8r.borrow_mut();
    for k in 0..EXTRA_SUBSCRIBERS {
        orc8r.upsert_subscriber(extra_subscriber(k, 20_000));
    }
}

/// The driver is the northbound API: between 100 ms slices it rewrites
/// one extra subscriber every 500 ms of simulated time, so every
/// orchestrator tick finds a new version and pushes a full snapshot to
/// all four gateways. Records, per write, the simulated ms until every
/// replica reports that version (polled at the slices).
fn drive_config_push_down(sc: &mut Scenario, timed_s: u64, config_lag_ms: &mut Vec<f64>) {
    /// One write every this many slices: 500 ms.
    const SLICES_PER_WRITE: u64 = 5;
    let slices = timed_s * 10;
    let write_slices = timed_s.saturating_sub(QUIET_TAIL_S) * 10;
    let mut pending: VecDeque<(u64, SimTime)> = VecDeque::new();
    let mut writes = 0u64;
    let mut now = SimTime::from_secs(WARMUP_S);
    for slice in 0..slices {
        if slice < write_slices && slice % SLICES_PER_WRITE == 0 {
            let mut orc8r = sc.orc8r.borrow_mut();
            // Alternate the AMBR so each write is a real change.
            let ambr = 21_000 + 1_000 * (writes / EXTRA_SUBSCRIBERS % 2) as u32;
            orc8r.upsert_subscriber(extra_subscriber(writes % EXTRA_SUBSCRIBERS, ambr));
            pending.push_back((orc8r.db.version, now));
            writes += 1;
        }
        now += SLICE;
        sc.world.run_until(now);
        let replicated = sc
            .agws
            .iter()
            .map(|gw| gw.handle.borrow().last_db_version)
            .min()
            .unwrap_or(0);
        while let Some(&(version, written)) = pending.front() {
            if version > replicated {
                break;
            }
            config_lag_ms.push(now.since(written).as_micros() as f64 / 1e3);
            pending.pop_front();
        }
    }
}

fn check_config_push_down(sc: &Scenario) -> Result<(), String> {
    let version = sc.orc8r.borrow().db.version;
    for gw in &sc.agws {
        let replica = gw.handle.borrow().last_db_version;
        if replica != version {
            return Err(format!(
                "{}: replica at version {replica}, orc8r at {version}",
                gw.id
            ));
        }
    }
    Ok(())
}

// ---- fleet_partition (§4.2 scale-out, §3.2 headless) ----

const FLEET_AGWS: usize = 12;
const PARTITIONED_AGWS: usize = 6;
const PARTITION_FROM_S: u64 = 30;
const PARTITION_TO_S: u64 = 60;

fn fleet_partition_config(seed: u64) -> ScenarioConfig {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 12,
        attach_rate_per_sec: 1.0,
        ..SiteSpec::typical()
    };
    let mut cfg = ScenarioConfig::new(seed);
    for a in 0..FLEET_AGWS {
        // Random loss only where the link stays up. Loss *and* a
        // partition on one link makes what a gateway re-sends after the
        // heal bimodal (6 MB or 14 MB, by seed), which no bound survives.
        let lossy = a >= PARTITIONED_AGWS;
        let mut agw = AgwSpec::bare_metal(site.clone());
        agw.backhaul = if a % 2 == 0 {
            LinkProfile::microwave().with_loss(if lossy { 0.02 } else { 0.0 })
        } else {
            LinkProfile::satellite().with_loss(if lossy { 0.01 } else { 0.0 })
        };
        cfg = cfg.with_agw(agw);
    }
    cfg
}

fn drive_fleet_partition(sc: &mut Scenario, timed_s: u64, _: &mut Vec<f64>) {
    let end = WARMUP_S + timed_s;
    for (until_s, backhaul_up) in [(PARTITION_FROM_S, false), (PARTITION_TO_S, true)] {
        sc.world.run_until(SimTime::from_secs(until_s.min(end)));
        for gw in &sc.agws[..PARTITIONED_AGWS] {
            sc.net.set_link_up(gw.node, sc.orc8r_node, backhaul_up);
        }
    }
    sc.world.run_until(SimTime::from_secs(end));
}

fn check_fleet_partition(sc: &Scenario) -> Result<(), String> {
    let offline = sc.orc8r.borrow().offline_gateways(sc.world.now());
    if !offline.is_empty() {
        return Err(format!("gateways still offline at the end: {offline:?}"));
    }
    let reg = sc.world.registry();
    for gw in &sc.agws {
        let count = |suffix: &str| reg.counter(&format!("{}.metricsd.{suffix}", gw.id));
        // One snapshot may legitimately be in flight when the run stops.
        let backlog = count("snapshots") - count("push_ok") - count("dropped");
        if backlog > 1.0 {
            return Err(format!(
                "{}: metricsd backlog of {backlog} snapshots not drained",
                gw.id
            ));
        }
    }
    Ok(())
}

fn drive_plain(sc: &mut Scenario, timed_s: u64, _: &mut Vec<f64>) {
    sc.world.run_until(SimTime::from_secs(WARMUP_S + timed_s));
}

// ---- execution ----

/// Cumulative simulated quantities read at a point of the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Odometer {
    pub events: u64,
    /// Sum over gateways of `<gw>.dataplane.dl_bytes`.
    pub dl_bytes: f64,
    /// AGW<->orc8r links, both directions, all gateways.
    pub backhaul_bytes: u64,
    pub backhaul_frames: u64,
    pub backhaul_dropped: u64,
}

fn odometer(sc: &Scenario) -> Odometer {
    let mut o = Odometer {
        events: sc.world.events_processed(),
        ..Odometer::default()
    };
    for gw in &sc.agws {
        o.dl_bytes += sc
            .world
            .registry()
            .counter(&format!("{}.dataplane.dl_bytes", gw.id));
        for (a, b) in [(gw.node, sc.orc8r_node), (sc.orc8r_node, gw.node)] {
            let s = sc.net.stats(a, b);
            o.backhaul_bytes += s.bytes;
            o.backhaul_frames += s.delivered;
            o.backhaul_dropped += s.dropped;
        }
    }
    o
}

/// One finished repetition: the world, for harvesting, plus the host
/// clock readings. `phases` are `(name, start_ns, end_ns)` on the clock
/// the caller passed in — `build`, `warmup`, `run`, in that order.
pub struct Execution {
    pub scenario: Scenario,
    pub timed_s: u64,
    pub phases: [(&'static str, u64, u64); 3],
    /// Process CPU seconds consumed by the timed window.
    pub run_cpu_s: f64,
    /// Simulated ms from each northbound write to full replication.
    pub config_lag_ms: Vec<f64>,
    /// Readings at the end of the warm-up and at the end of the run.
    pub at_warm: Odometer,
    pub at_end: Odometer,
}

impl Execution {
    fn phase_s(&self, i: usize) -> f64 {
        (self.phases[i].2 - self.phases[i].1) as f64 / 1e9
    }

    pub fn setup_s(&self) -> f64 {
        self.phase_s(0) + self.phase_s(1)
    }

    pub fn run_wall_s(&self) -> f64 {
        self.phase_s(2)
    }
}

/// The workload's world, provisioned, before any event is dispatched.
pub fn build_world(w: &Workload, seed: u64) -> Scenario {
    let mut scenario = build((w.config)(seed));
    (w.provision)(&mut scenario);
    scenario
}

/// Build, warm up and drive one workload. `after_build` runs on the
/// fresh world before any event is dispatched (the traced pass uses it
/// to switch observers off for the overhead measurement); `timed_s`
/// overrides the workload's window (the self-tests shorten it).
pub fn execute(
    w: &Workload,
    seed: u64,
    timed_s: u64,
    clock: &HostStopwatch,
    after_build: impl FnOnce(&mut Scenario),
) -> Execution {
    let t0 = clock.elapsed_ns();
    let mut scenario = build_world(w, seed);
    after_build(&mut scenario);
    let t1 = clock.elapsed_ns();
    scenario.world.run_until(SimTime::from_secs(WARMUP_S));
    let t2 = clock.elapsed_ns();
    let at_warm = odometer(&scenario);
    let mut config_lag_ms = Vec::new();
    let cpu0 = crate::guard::cpu_s();
    (w.drive)(&mut scenario, timed_s, &mut config_lag_ms);
    let t3 = clock.elapsed_ns();
    let run_cpu_s = crate::guard::cpu_s() - cpu0;
    let at_end = odometer(&scenario);
    Execution {
        scenario,
        timed_s,
        phases: [("build", t0, t1), ("warmup", t1, t2), ("run", t2, t3)],
        run_cpu_s,
        config_lag_ms,
        at_warm,
        at_end,
    }
}

/// The simulated half of a repetition: a pure function of (workload,
/// seed), so it must be identical across repetitions and across commits
/// that change only host-side cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulated {
    pub attach_ok: u64,
    pub attach_fail: u64,
    pub attach_csr: f64,
    pub attach_p99_sim_ms: f64,
    pub agg_dl_mbps_sim: f64,
    pub backhaul_mb_per_sim_s: f64,
    /// Everything countable, by name: the byte-identity check compares
    /// this map rendered as text.
    pub counts: BTreeMap<String, u64>,
}

pub fn simulated(x: &Execution) -> Simulated {
    let sc = &x.scenario;
    let reg = sc.world.registry();
    let attach_ok = reg.counter("ran.attach_ok") as u64;
    let attach_fail = reg.counter("ran.attach_fail") as u64;
    let attempted = attach_ok + attach_fail;
    let window_s = x.timed_s as f64;
    let sum_gw = |suffix: &str| -> u64 {
        sc.agws
            .iter()
            .map(|gw| reg.counter(&format!("{}.{suffix}", gw.id)) as u64)
            .sum()
    };
    // Exact nearest-rank p99 of the UE-observed latencies. The registry
    // histogram `ran.attach.latency_s` holds the same observations, but
    // its bucket interpolation clamps to the largest one whenever all
    // fall into one bucket, and a maximum is no steady statistic.
    let attach_latencies_s: Vec<f64> = sc
        .world
        .metrics()
        .series("ran.attach_ok_at")
        .map(|s| s.values().collect())
        .unwrap_or_default();
    let mut counts = BTreeMap::new();
    for (name, v) in [
        ("events", x.at_end.events),
        ("events_timed", x.at_end.events - x.at_warm.events),
        ("attach_ok", attach_ok),
        ("attach_fail", attach_fail),
        (
            "backhaul_bytes_timed",
            x.at_end.backhaul_bytes - x.at_warm.backhaul_bytes,
        ),
        ("backhaul_frames", x.at_end.backhaul_frames),
        ("backhaul_dropped", x.at_end.backhaul_dropped),
        (
            "dl_bytes_timed",
            (x.at_end.dl_bytes - x.at_warm.dl_bytes) as u64,
        ),
        ("reprograms", sum_gw("pipelined.reprogram")),
        ("detaches", sum_gw("mme.detach")),
        ("metricsd_push_ok", sum_gw("metricsd.push_ok")),
        (
            "orc8r_pushes",
            sc.world.metrics().counter("orc8r.pushes") as u64,
        ),
        (
            "orc8r_checkins",
            sc.world.metrics().counter("orc8r.checkins") as u64,
        ),
        ("orc8r_db_version", sc.orc8r.borrow().db.version),
        ("config_writes_replicated", x.config_lag_ms.len() as u64),
        (
            "config_lag_p99_sim_us",
            (crate::stats::quantile(&x.config_lag_ms, 0.99) * 1e3) as u64,
        ),
    ] {
        counts.insert(name.to_string(), v);
    }
    Simulated {
        attach_ok,
        attach_fail,
        attach_csr: if attempted == 0 {
            0.0
        } else {
            attach_ok as f64 / attempted as f64
        },
        attach_p99_sim_ms: crate::stats::quantile(&attach_latencies_s, 0.99) * 1e3,
        agg_dl_mbps_sim: (x.at_end.dl_bytes - x.at_warm.dl_bytes) * 8.0 / 1e6 / window_s,
        backhaul_mb_per_sim_s: (x.at_end.backhaul_bytes - x.at_warm.backhaul_bytes) as f64
            / 1e6
            / window_s,
        counts,
    }
}

/// Run the workload's own output check plus the checks every workload
/// shares: attaches were made and none failed.
pub fn check(w: &Workload, x: &Execution, sim: &Simulated) -> Result<(), String> {
    if sim.attach_ok == 0 {
        return Err("no attach completed".to_string());
    }
    if sim.attach_fail != 0 {
        return Err(format!(
            "{} of {} attaches failed; the workload is sized below the knee, so none may",
            sim.attach_fail,
            sim.attach_ok + sim.attach_fail
        ));
    }
    (w.check)(&x.scenario)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_resolve_by_name() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(find("nope").is_none());
    }

    /// Same seed, same simulated summary — on a window short enough for
    /// a debug-build test. The full-length identity check runs inside
    /// every benchmark run.
    #[test]
    fn short_run_is_deterministic() {
        let w = find("config_push_down").expect("workload");
        let run = || {
            let clock = HostStopwatch::start();
            let x = execute(w, 7, 3, &clock, |_| {});
            simulated(&x)
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert!(a.counts["events"] > 0);
        assert!(a.counts["orc8r_db_version"] > EXTRA_SUBSCRIBERS);
    }
}
