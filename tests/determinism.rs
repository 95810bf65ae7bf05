//! Same-seed determinism regression: a mixed attach + traffic scenario
//! must export byte-identical telemetry across runs.
//!
//! This pins the property clippy's deny-lists enforce statically (no
//! hash-ordered state on an export-reachable path, no ambient clocks or
//! entropy — see docs/DETERMINISM.md). The scenario deliberately crosses every layer
//! that used to hold a `HashMap`: UE contexts and calls in the AGW,
//! dataplane rule stats/usage and meters under live traffic, RPC client
//! retry state, and the orchestrator's connection table.

use magma::net::LinkProfile;
use magma::prelude::*;
use magma::sim::{
    detect, downcast, first_divergence, Actor, ActorId, Ctx, DelayClass, Event, FlowKind,
    RaceExport, Role, RunSpec, WindowDigest, World,
};
use magma::testbed::orc8r_telemetry_json;

fn mixed_site() -> SiteSpec {
    SiteSpec {
        enbs: 2,
        ues_per_enb: 16,
        attach_rate_per_sec: 4.0,
        // Keep the default HTTP-download traffic model: the point is that
        // attaches and user-plane traffic interleave in the same run.
        ..SiteSpec::typical()
    }
}

/// One full run: (in-band orc8r export, whole-world registry snapshot).
fn run(seed: u64) -> (String, String) {
    let cfg = ScenarioConfig::new(seed)
        .with_agw(AgwSpec::bare_metal(mixed_site()))
        .with_agw(AgwSpec::vm(mixed_site(), CoreLayout::Pinned { cp: 2, up: 2 }));
    let mut d = magma::deploy(cfg);
    d.world.run_until(SimTime::from_secs(75));

    let st = d.orc8r.borrow();
    let northbound = serde_json::to_string(&orc8r_telemetry_json(&st)).unwrap();
    let registry = serde_json::to_string(&d.world.registry().snapshot()).unwrap();
    (northbound, registry)
}

#[test]
fn mixed_attach_and_traffic_is_byte_identical_across_same_seed_runs() {
    let (north_a, reg_a) = run(42);

    // The run is not vacuous: attaches succeeded and traffic moved bytes
    // through the dataplane on both gateways.
    let snap: serde_json::Value = serde_json::from_str(&reg_a).unwrap();
    let counters = &snap["counters"];
    for gw in ["agw0", "agw1"] {
        assert!(
            counters[&format!("{gw}.mme.attach_accept")].as_f64().unwrap_or(0.0) > 0.0,
            "{gw}: no attaches landed"
        );
        assert!(
            counters[&format!("{gw}.dataplane.dl_bytes")].as_f64().unwrap_or(0.0) > 0.0,
            "{gw}: no downlink traffic metered"
        );
    }

    // Byte-for-byte identical on a same-seed re-run — both the in-band
    // (metricsd -> orc8r) view and the raw registry.
    let (north_b, reg_b) = run(42);
    assert_eq!(north_a, north_b, "same seed, same northbound export bytes");
    assert_eq!(reg_a, reg_b, "same seed, same registry snapshot bytes");

    // And a different seed actually perturbs the export, so the equality
    // above is not comparing empty or constant payloads.
    let (north_c, _) = run(43);
    assert_ne!(north_a, north_c, "different seed must perturb the export");
}

/// One racecheck-armed run of the mixed scenario under the given window
/// schedule (`None` = canonical `(time, seq)` order). Returns the same
/// two exports as [`run`] plus the per-window digest stream.
fn run_scheduled(seed: u64, schedule: Option<u64>) -> (String, String, Vec<WindowDigest>) {
    let cfg = ScenarioConfig::new(seed)
        .with_agw(AgwSpec::bare_metal(mixed_site()))
        .with_agw(AgwSpec::vm(mixed_site(), CoreLayout::Pinned { cp: 2, up: 2 }));
    let mut d = magma::deploy(cfg);
    d.world.enable_racecheck(schedule);
    d.world.run_until(SimTime::from_secs(40));

    let export = d.world.race_export();
    assert_eq!(
        export.window_violations, 0,
        "a link beat the racecheck window"
    );
    let st = d.orc8r.borrow();
    let northbound = serde_json::to_string(&orc8r_telemetry_json(&st)).unwrap();
    let registry = serde_json::to_string(&d.world.registry().snapshot()).unwrap();
    (northbound, registry, export.digests)
}

/// Permutation-invariance regression: the mixed scenario is race-free,
/// so draining each conservative window's component sub-queues in a
/// permuted order must not perturb anything observable — the northbound
/// export, the raw registry, and every per-window digest stay
/// byte-identical to the canonical schedule. This is the dynamic twin of
/// the S006/S007 lints: if someone folds schedule-dependent kernel state
/// into actor logic, this test (and `magma-bench --racecheck` in CI) is
/// what goes red.
#[test]
fn mixed_scenario_is_invariant_under_permuted_window_schedules() {
    let (north, reg, digests) = run_scheduled(42, None);
    assert!(
        digests.len() > 1_000,
        "canonical run sealed only {} digest windows — scenario collapsed?",
        digests.len()
    );
    for schedule in [1u64, 2, 3, 4] {
        let (north_p, reg_p, digests_p) = run_scheduled(42, Some(schedule));
        assert_eq!(
            first_divergence(&digests, &digests_p),
            None,
            "schedule {schedule}: window digests diverged from canonical"
        );
        assert_eq!(north, north_p, "schedule {schedule}: northbound export bytes changed");
        assert_eq!(reg, reg_p, "schedule {schedule}: registry snapshot bytes changed");
    }
}

/// The racers' edge to the arbiter.
const RACE: FlowKind = FlowKind {
    name: "test.race",
    sender: "test.racer",
    receiver: "test.arbiter",
    class: DelayClass::Transport,
    role: Role::Data,
    retry: None,
};

/// A deliberately racy actor pair for the divergence fixture below: each
/// racer fires one message at the arbiter, timed to land in the same
/// 10µs window from two different racecheck components.
struct Racer {
    to: ActorId,
    tag: u64,
}

impl Actor for Racer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        if let Event::Start = event {
            ctx.send_to_in(self.to, &RACE, SimDuration::from_micros(1_000), Box::new(self.tag));
        }
    }
    fn name(&self) -> String {
        format!("racer{}", self.tag)
    }
}

/// First-writer-wins: the arbiter latches whichever racer's message the
/// kernel happens to dispatch first and re-emits it as a timer tag — a
/// textbook logical race, since the winner is a schedule artifact the
/// flow contract never promises.
#[derive(Default)]
struct Arbiter {
    winner: Option<u64>,
}

impl Actor for Arbiter {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        if let Event::Msg { payload, .. } = event {
            let tag = downcast::<u64>(payload, "arbiter");
            if self.winner.is_none() {
                self.winner = Some(tag);
                ctx.timer_in(SimDuration::from_micros(50), tag);
            }
        }
    }
    fn name(&self) -> String {
        "arbiter".into()
    }
}

fn racy_world_run(spec: RunSpec) -> RaceExport {
    let mut w = World::new(9);
    let arbiter = w.add_actor(Box::new(Arbiter::default()));
    let a = w.add_actor(Box::new(Racer { to: arbiter, tag: 1 }));
    let b = w.add_actor(Box::new(Racer { to: arbiter, tag: 2 }));
    // The racers live in different components, so a permuted schedule
    // can flip which one's Start (and hence whose message enqueues
    // first) runs first; the arbiter stays unassigned.
    w.set_component(a, "feg[0]");
    w.set_component(b, "orc8r[0]");
    w.enable_racecheck(spec.schedule);
    w.set_race_detail_window(spec.detail_window);
    w.run_until(SimTime::from_millis(2));
    w.race_export()
}

/// Seeded-divergence fixture: racecheck must localize the race to the
/// exact window and name the offending event pair. The racers' messages
/// both land at t=1000µs (window 100) — an order-invariant set, so that
/// window still folds identically — and the divergence surfaces at the
/// arbiter's tag-carrying timer at t=1050µs, window 105.
#[test]
fn racecheck_localizes_a_seeded_divergence_to_window_and_event_pair() {
    let divergent_seed = (1..=64)
        .find(|&s| {
            let canon = racy_world_run(RunSpec { schedule: None, detail_window: None });
            let perm = racy_world_run(RunSpec { schedule: Some(s), detail_window: None });
            first_divergence(&canon.digests, &perm.digests).is_some()
        })
        .expect("some schedule in 1..=64 must flip the racer order");

    let report = detect("seeded-divergence", racy_world_run, divergent_seed);
    assert!(report.divergent, "fixture race went undetected");
    assert_eq!(
        report.first_divergent_window,
        Some(105),
        "divergence must bisect to the arbiter's timer window, not the message window"
    );

    // The offending pair is the arbiter's winner-carrying timer, with the
    // latched tag flipped between the two schedules.
    let c = report.canonical.as_ref().expect("canonical side of the pair");
    let p = report.permuted.as_ref().expect("permuted side of the pair");
    for side in [c, p] {
        assert_eq!(side.kind, "timer");
        assert_eq!(side.actor, "arbiter");
        assert_eq!(side.component, "unassigned");
        assert_eq!(side.time_us, 1_050);
    }
    assert_ne!(c.detail, p.detail, "both schedules latched the same winner");
    let mut tags = [c.detail, p.detail];
    tags.sort_unstable();
    assert_eq!(tags, [1, 2], "the pair must carry the two racer tags");
    assert!(
        report.render().contains("DIVERGENT at window 105"),
        "render must name the bisected window:\n{}",
        report.render()
    );
}

/// Racecheck's precondition end to end: a backhaul faster than one
/// racecheck window lets orchestrator traffic land inside its sender's
/// window, which the permuted drain cannot reorder legally — the run
/// must say so instead of passing as race-free.
#[test]
fn shrunken_latency_backhaul_reports_window_violations() {
    let run = |backhaul: LinkProfile| {
        let mut agw = AgwSpec::bare_metal(mixed_site());
        agw.backhaul = backhaul;
        let mut d = magma::deploy(ScenarioConfig::new(42).with_agw(agw));
        d.world.enable_racecheck(None);
        d.world.run_until(SimTime::from_secs(10));
        d.world.race_export().window_violations
    };
    assert_eq!(run(LinkProfile::fiber()), 0);
    let shrunken = LinkProfile {
        latency: SimDuration::from_micros(2),
        jitter: SimDuration::ZERO,
        ..LinkProfile::fiber()
    };
    assert!(run(shrunken) > 0, "a 2µs backhaul must trip the window check");
}
