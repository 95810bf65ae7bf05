//! Property tests on the data-plane pipeline: no panics on arbitrary
//! rules/packets, desired-state idempotence, meter conservation, the
//! hinted apply ≡ the full apply ≡ the whole-table diff it replaced, and
//! the memoised fluid slots ≡ the per-tick map lookups they replaced.

use magma_dataplane::{
    session_rules, DesiredState, Direction, DropReason, FlowAction, FlowMatch, FlowRule,
    FluidEntry, FluidTickResult, MeterId, MeterSpec, MeterTable, PacketMeta, Pipeline, PortId,
    RuleStats, SessionProgram, Usage, Verdict, TABLE_CLASSIFIER,
};
use magma_sim::SimTime;
use magma_wire::{Teid, UeIp};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Arbitrary rules as a desired state: each rule joins the program of its
/// own cookie. Rules of equal priority in one table match in `(cookie,
/// position in program)` order — the flat interface this replaced kept
/// them in input order.
fn by_cookie(rules: Vec<FlowRule>) -> DesiredState {
    let mut desired = DesiredState::default();
    for r in rules {
        desired.programs.entry(r.cookie).or_default().rules.push(r);
    }
    desired
}

fn arb_match() -> impl Strategy<Value = FlowMatch> {
    (
        proptest::option::of(0u32..4),
        proptest::option::of(0u32..16),
        proptest::option::of(0u32..16),
        proptest::option::of(0u32..16),
        proptest::option::of(prop_oneof![Just(Direction::Uplink), Just(Direction::Downlink)]),
    )
        .prop_map(|(port, tun, src, dst, dir)| FlowMatch {
            in_port: port.map(|p| match p {
                0 => PortId::RAN,
                1 => PortId::SGI,
                2 => PortId::LOCAL,
                _ => PortId(p),
            }),
            tun_id: tun.map(Teid),
            ipv4_src: src.map(UeIp),
            ipv4_dst: dst.map(UeIp),
            direction: dir,
        })
}

fn arb_action() -> impl Strategy<Value = FlowAction> {
    prop_oneof![
        Just(FlowAction::PopGtp),
        (0u32..16).prop_map(|t| FlowAction::PushGtp(Teid(t))),
        Just(FlowAction::SetDirection(Direction::Uplink)),
        Just(FlowAction::SetDirection(Direction::Downlink)),
        (0u32..8).prop_map(|m| FlowAction::Meter(MeterId(m))),
        Just(FlowAction::CountUsage {
            rule: "r".to_string()
        }),
        (0u8..8).prop_map(FlowAction::GotoTable),
        Just(FlowAction::Output(PortId::SGI)),
        Just(FlowAction::Output(PortId::RAN)),
        Just(FlowAction::Drop),
    ]
}

fn arb_rule() -> impl Strategy<Value = FlowRule> {
    (
        0u8..4,
        0u16..100,
        arb_match(),
        proptest::collection::vec(arb_action(), 0..5),
        0u64..32,
    )
        .prop_map(|(table, priority, m, actions, cookie)| FlowRule {
            table,
            priority,
            m,
            actions,
            cookie,
        })
}

fn arb_packet() -> impl Strategy<Value = PacketMeta> {
    (0u32..3, proptest::option::of(0u32..16), 0u32..16, 0u32..16, 1usize..2000).prop_map(
        |(port, tun, src, dst, size)| PacketMeta {
            in_port: match port {
                0 => PortId::RAN,
                1 => PortId::SGI,
                _ => PortId::LOCAL,
            },
            tun_id: tun.map(Teid),
            ipv4_src: Some(UeIp(src)),
            ipv4_dst: Some(UeIp(dst)),
            direction: None,
            size,
        },
    )
}


// ---- hinted apply ≡ full apply ≡ the old whole-table diff ----

/// One session as `pipelined` sees it, with small ids so the arbitrary
/// rules below overlap its addresses and tunnels.
#[derive(Debug, Clone, PartialEq)]
struct Sess {
    dl_teid: u32,
    limit_kbps: Option<u64>,
    blocked: bool,
}

fn ip_of(id: u64) -> UeIp {
    UeIp(id as u32)
}

/// What `pipelined::compile_session` emits for the session.
fn program_of(id: u64, s: &Sess) -> SessionProgram {
    if s.blocked {
        let drop_on = |m: FlowMatch| FlowRule {
            table: TABLE_CLASSIFIER,
            priority: 50,
            m,
            actions: vec![FlowAction::Drop],
            cookie: id,
        };
        return SessionProgram {
            rules: vec![
                drop_on(FlowMatch::any().ipv4_dst(ip_of(id))),
                drop_on(FlowMatch::any().ipv4_src(ip_of(id))),
            ],
            ..Default::default()
        };
    }
    let (ulm, dlm) = (MeterId(id as u32 * 2), MeterId(id as u32 * 2 + 1));
    let metered = s.limit_kbps.is_some();
    SessionProgram {
        rules: session_rules(
            id,
            ip_of(id),
            Teid(id as u32),
            Teid(s.dl_teid),
            metered.then_some(ulm),
            metered.then_some(dlm),
            "default",
        ),
        meters: s
            .limit_kbps
            .iter()
            .flat_map(|k| [ulm, dlm].map(|id| MeterSpec { id, rate_bps: k * 1000, burst_bytes: k * 10 }))
            .collect(),
        fluid: Some(FluidEntry {
            cookie: id,
            ul_meter: metered.then_some(ulm),
            dl_meter: metered.then_some(dlm),
            rule_name: "default".to_string(),
        }),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Upsert(u64, Sess),
    Remove(u64),
    ToggleBlocked(u64),
    SetLimit(u64, Option<u64>),
    SetDlTeid(u64, u32),
    /// Replace every program that is not a session's (keys ≥ 100).
    Extras(Vec<FlowRule>),
}

const SESSIONS: u64 = 10;

fn arb_op() -> impl Strategy<Value = Op> {
    let limit = || proptest::option::of(prop_oneof![Just(64u64), Just(512), Just(4096)]);
    prop_oneof![
        (0..SESSIONS, 0u32..16, limit(), any::<bool>()).prop_map(|(id, dl_teid, limit_kbps, blocked)| {
            Op::Upsert(id, Sess { dl_teid, limit_kbps, blocked })
        }),
        (0..SESSIONS, 0u32..16, limit()).prop_map(|(id, dl_teid, limit_kbps)| {
            Op::Upsert(id, Sess { dl_teid, limit_kbps, blocked: false })
        }),
        (0..SESSIONS).prop_map(Op::Remove),
        (0..SESSIONS).prop_map(Op::ToggleBlocked),
        (0..SESSIONS, limit()).prop_map(|(id, l)| Op::SetLimit(id, l)),
        (0..SESSIONS, 0u32..16).prop_map(|(id, t)| Op::SetDlTeid(id, t)),
        proptest::collection::vec(arb_rule(), 0..12).prop_map(Op::Extras),
    ]
}

/// The reconciliation `Pipeline::set_desired` performed before the state
/// was keyed, kept as the oracle for `reconcile_ops` and for which token
/// buckets survive: flat vectors, whole-table `contains` diff both ways,
/// meters by id. It also keeps the fluid, stats and usage state as
/// `Pipeline` kept it before the dense fluid slots: one `BTreeMap` lookup
/// of each per demand per tick, usage keyed by rule name.
#[derive(Default)]
struct WholeTableDiff {
    /// Per table, in match order (a stable sort by priority keeps the
    /// cookie-then-position order of the walk over the programs).
    tables: Vec<Vec<FlowRule>>,
    meter_specs: BTreeMap<MeterId, MeterSpec>,
    meters: MeterTable,
    fluid: BTreeMap<u64, FluidEntry>,
    stats: BTreeMap<u64, RuleStats>,
    usage: BTreeMap<String, Usage>,
    reconcile_ops: u64,
}

impl WholeTableDiff {
    fn set_desired(&mut self, desired: &DesiredState) {
        let mut new_tables: Vec<Vec<FlowRule>> = vec![Vec::new(); 8];
        for r in desired.programs.values().flat_map(|p| &p.rules) {
            new_tables[(r.table as usize).min(7)].push(r.clone());
        }
        self.tables.resize(8, Vec::new());
        for (old, mut new) in self.tables.iter_mut().zip(new_tables) {
            new.sort_by_key(|r| std::cmp::Reverse(r.priority));
            let removed = old.iter().filter(|r| !new.contains(r)).count();
            let added = new.iter().filter(|r| !old.contains(r)).count();
            self.reconcile_ops += (removed + added) as u64;
            *old = new;
        }
        let desired_meters: BTreeMap<MeterId, MeterSpec> = desired
            .programs
            .values()
            .flat_map(|p| &p.meters)
            .map(|m| (m.id, *m))
            .collect();
        let stale: Vec<MeterId> = self
            .meter_specs
            .keys()
            .filter(|id| !desired_meters.contains_key(id))
            .copied()
            .collect();
        for id in stale {
            self.meters.remove(id);
            self.meter_specs.remove(&id);
            self.reconcile_ops += 1;
        }
        for (id, spec) in &desired_meters {
            if self.meter_specs.get(id) != Some(spec) {
                self.meters.install(*id, spec.rate_bps, spec.burst_bytes);
                self.meter_specs.insert(*id, *spec);
                self.reconcile_ops += 1;
            }
        }
        let new_fluid: BTreeMap<u64, FluidEntry> = desired
            .programs
            .values()
            .filter_map(|p| p.fluid.clone())
            .map(|e| (e.cookie, e))
            .collect();
        self.stats
            .retain(|cookie, _| new_fluid.contains_key(cookie) || !self.fluid.contains_key(cookie));
        self.fluid = new_fluid;
    }

    /// What `Pipeline::fluid_tick` owes for `demands`.
    fn fluid_tick(&mut self, now: SimTime, demands: &[(u64, u64, u64)]) -> FluidTickResult {
        let mut out = FluidTickResult::default();
        for &(cookie, ul, dl) in demands {
            let Some(e) = self.fluid.get(&cookie) else {
                out.grants.push((cookie, 0, 0));
                continue;
            };
            let ul = e.ul_meter.map_or(ul, |m| self.meters.grant(m, now, ul));
            let dl = e.dl_meter.map_or(dl, |m| self.meters.grant(m, now, dl));
            let u = self.usage.entry(e.rule_name.clone()).or_default();
            u.ul_bytes += ul;
            u.dl_bytes += dl;
            self.stats.entry(cookie).or_default().bytes += ul + dl;
            out.grants.push((cookie, ul, dl));
            out.total_ul += ul;
            out.total_dl += dl;
        }
        out
    }

    /// `Pipeline::process`'s walk over the flat tables (the session
    /// programs it is given never loop, so the hop limit is left out).
    fn process(&mut self, mut pkt: PacketMeta, now: SimTime) -> Verdict {
        let (mut table, mut tunnel) = (0, None);
        loop {
            let Some(rule) = self.tables.get(table).and_then(|t| t.iter().find(|r| r.m.matches(&pkt))) else {
                return Verdict::Dropped(DropReason::NoMatch);
            };
            let s = self.stats.entry(rule.cookie).or_default();
            s.packets += 1;
            s.bytes += pkt.size as u64;
            let mut next = None;
            for action in &rule.actions {
                match action {
                    FlowAction::PopGtp => pkt.tun_id = None,
                    FlowAction::PushGtp(t) => tunnel = Some(*t),
                    FlowAction::SetDirection(d) => pkt.direction = Some(*d),
                    FlowAction::Meter(id) => {
                        if !self.meters.conform(*id, now, pkt.size) {
                            return Verdict::Dropped(DropReason::Metered);
                        }
                    }
                    FlowAction::CountUsage { rule } => {
                        let u = self.usage.entry(rule.clone()).or_default();
                        match pkt.direction {
                            Some(Direction::Downlink) => u.dl_bytes += pkt.size as u64,
                            _ => u.ul_bytes += pkt.size as u64,
                        }
                    }
                    FlowAction::GotoTable(t) => next = Some(*t as usize),
                    FlowAction::Output(port) => return Verdict::Out { port: *port, tunnel },
                    FlowAction::Drop => return Verdict::Dropped(DropReason::ExplicitDrop),
                }
            }
            match next {
                Some(t) => table = t,
                None => return Verdict::Dropped(DropReason::NoMatch),
            }
        }
    }
}

/// Packets over the id space sessions and arbitrary rules share. They are
/// empty so that a `Meter` action draws no tokens: the oracle's buckets see
/// fluid ticks only.
fn packet_probes() -> Vec<PacketMeta> {
    let mut probes = Vec::new();
    for id in 0..SESSIONS as u32 {
        probes.push(PacketMeta::uplink(Teid(id), UeIp(id), 0));
        probes.push(PacketMeta::uplink(Teid(id), UeIp((id + 1) % 16), 0));
        probes.push(PacketMeta::downlink(UeIp(id), 0));
    }
    probes
}

proptest! {
    /// Arbitrary rule sets and packets never panic or loop forever.
    #[test]
    fn pipeline_never_panics(
        rules in proptest::collection::vec(arb_rule(), 0..40),
        packets in proptest::collection::vec(arb_packet(), 0..60),
    ) {
        let mut p = Pipeline::new();
        let mut desired = by_cookie(rules);
        desired.programs.entry(1).or_default().meters =
            vec![MeterSpec { id: MeterId(1), rate_bps: 1_000_000, burst_bytes: 10_000 }];
        p.set_desired(&desired);
        for (i, pkt) in packets.into_iter().enumerate() {
            let _ = p.process(pkt, SimTime::from_millis(i as u64 * 10));
        }
    }

    /// Applying the same desired state twice changes nothing (idempotent
    /// reconciliation, the §3.4 invariant).
    #[test]
    fn set_desired_is_idempotent(
        rules in proptest::collection::vec(arb_rule(), 0..30),
        packets in proptest::collection::vec(arb_packet(), 1..20),
    ) {
        let desired = by_cookie(rules);
        let mut a = Pipeline::new();
        a.set_desired(&desired);
        let mut b = Pipeline::new();
        b.set_desired(&desired);
        b.set_desired(&desired);
        b.set_desired(&desired);
        for (i, pkt) in packets.into_iter().enumerate() {
            let t = SimTime::from_millis(i as u64);
            prop_assert_eq!(a.process(pkt, t), b.process(pkt, t));
        }
        prop_assert_eq!(a.rule_count(), b.rule_count());
    }

    /// Fluid grants never exceed demand, and metered grants never exceed
    /// rate × time + burst.
    #[test]
    fn fluid_grants_conserve(
        rate_kbps in 100u64..10_000,
        burst in 1_000u64..100_000,
        demands in proptest::collection::vec(1_000u64..1_000_000, 1..50),
    ) {
        let mut p = Pipeline::new();
        let program = SessionProgram {
            rules: vec![],
            meters: vec![MeterSpec { id: MeterId(1), rate_bps: rate_kbps * 1000, burst_bytes: burst }],
            fluid: Some(FluidEntry {
                cookie: 1,
                ul_meter: None,
                dl_meter: Some(MeterId(1)),
                rule_name: "r".to_string(),
            }),
        };
        p.set_desired(&DesiredState { programs: BTreeMap::from([(1, program)]) });
        let mut total_granted = 0u64;
        let mut total_demand = 0u64;
        let tick_ms = 100u64;
        for (i, d) in demands.iter().enumerate() {
            let now = SimTime::from_millis(i as u64 * tick_ms);
            let r = p.fluid_tick(now, &[(1, 0, *d)]);
            prop_assert!(r.total_dl <= *d, "grant {} > demand {}", r.total_dl, d);
            total_granted += r.total_dl;
            total_demand += *d;
        }
        let elapsed_s = demands.len() as f64 * tick_ms as f64 / 1000.0;
        let cap = (rate_kbps * 1000) as f64 / 8.0 * elapsed_s + burst as f64 + 1.0;
        prop_assert!(total_granted as f64 <= cap, "granted {total_granted} > cap {cap}");
        prop_assert!(total_granted <= total_demand);
        // Usage accounting matches grants exactly.
        prop_assert_eq!(p.usage("r").dl_bytes, total_granted);
    }

    /// A full session rule set always forwards matched traffic in both
    /// directions and never leaks across sessions.
    #[test]
    fn sessions_are_isolated(n in 1usize..20, probe in 0usize..20) {
        prop_assume!(probe < n);
        let desired = by_cookie((0..n as u64).flat_map(|i| session_rules(
            i, UeIp(100 + i as u32), Teid(10 + i as u32), Teid(50 + i as u32),
            None, None, "default",
        )).collect());
        let mut p = Pipeline::new();
        p.set_desired(&desired);
        // Probe session forwards.
        let v = p.process(
            PacketMeta::uplink(Teid(10 + probe as u32), UeIp(100 + probe as u32), 100),
            SimTime::ZERO,
        );
        prop_assert_eq!(v, Verdict::Out { port: PortId::SGI, tunnel: None });
        // A mismatched (teid, ip) pair must not be forwarded.
        if n > 1 {
            let other = (probe + 1) % n;
            let v = p.process(
                PacketMeta::uplink(Teid(10 + probe as u32), UeIp(100 + other as u32), 100),
                SimTime::ZERO,
            );
            prop_assert!(matches!(v, Verdict::Dropped(_)), "cross-session leak: {v:?}");
        }
    }

    /// §3.4 with a hint: handing over the full desired state and naming
    /// the keys that changed leaves the data plane exactly where the full
    /// walk leaves it, and both count the churn the whole-table diff
    /// counted.
    #[test]
    fn hinted_apply_equals_full_apply_equals_old_diff(
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let mut sessions: BTreeMap<u64, Sess> = BTreeMap::new();
        let mut desired = DesiredState::default();
        let (mut hinted, mut full, mut old) =
            (Pipeline::new(), Pipeline::new(), WholeTableDiff::default());
        let demands: Vec<(u64, u64, u64)> = (0..SESSIONS + 1).map(|id| (id, 3_000, 20_000)).collect();
        for (step, op) in ops.into_iter().enumerate() {
            let mut changed = BTreeSet::new();
            match op {
                Op::Upsert(id, s) => {
                    sessions.insert(id, s);
                    changed.insert(id);
                }
                Op::Remove(id) => {
                    sessions.remove(&id);
                    changed.insert(id);
                }
                Op::ToggleBlocked(id) => {
                    if let Some(s) = sessions.get_mut(&id) {
                        s.blocked = !s.blocked;
                        changed.insert(id);
                    }
                }
                Op::SetLimit(id, limit) => {
                    if let Some(s) = sessions.get_mut(&id) {
                        s.limit_kbps = limit;
                        changed.insert(id);
                    }
                }
                Op::SetDlTeid(id, teid) => {
                    if let Some(s) = sessions.get_mut(&id) {
                        s.dl_teid = teid;
                        changed.insert(id);
                    }
                }
                Op::Extras(rules) => {
                    let mut extras = desired.programs.split_off(&100);
                    changed.extend(extras.keys());
                    extras = by_cookie(rules.into_iter().map(|mut r| { r.cookie += 100; r }).collect()).programs;
                    changed.extend(extras.keys());
                    desired.programs.extend(extras);
                }
            }
            for id in changed.iter().filter(|id| **id < 100) {
                match sessions.get(id) {
                    Some(s) => desired.programs.insert(*id, program_of(*id, s)),
                    None => desired.programs.remove(id),
                };
            }

            // A superset of the changed keys is as good as the exact set,
            // in any order.
            if step % 3 == 0 {
                changed.insert(step as u64 % SESSIONS);
            }
            if step % 2 == 0 {
                hinted.set_desired_for(&desired, changed);
            } else {
                hinted.set_desired_for(&desired, changed.into_iter().rev());
            }
            full.set_desired(&desired);
            old.set_desired(&desired);

            prop_assert_eq!(hinted.rule_count(), full.rule_count());
            prop_assert_eq!(hinted.rule_count(), old.tables.iter().map(Vec::len).sum::<usize>());
            prop_assert_eq!(hinted.session_count(), full.session_count());
            prop_assert_eq!(hinted.session_count(), old.fluid.len());
            prop_assert_eq!(hinted.meter_count(), full.meter_count());
            prop_assert_eq!(hinted.meter_count(), old.meter_specs.len());
            prop_assert_eq!(hinted.reconcile_ops, full.reconcile_ops);
            prop_assert_eq!(hinted.reconcile_ops, old.reconcile_ops, "step {}", step);

            let now = SimTime::from_millis(step as u64 * 40);
            for pkt in packet_probes() {
                prop_assert_eq!(hinted.process(pkt, now), full.process(pkt, now));
            }
            // Token buckets: a meter the step did not touch keeps its
            // level and a touched one restarts at its burst, as the old
            // by-id meter diff had it. Every tick drains the buckets, so
            // a wrongly re-installed meter grants its whole burst.
            let granted = hinted.fluid_tick(now, &demands);
            prop_assert_eq!(&granted, &full.fluid_tick(now, &demands));
            prop_assert_eq!(granted.grants, old.fluid_tick(now, &demands).grants, "step {}", step);
            for id in 0..SESSIONS + 1 {
                prop_assert_eq!(hinted.stats(id), full.stats(id));
                prop_assert_eq!(hinted.stats(id).bytes, old.stats.get(&id).map_or(0, |s| s.bytes));
                prop_assert_eq!(hinted.stats(id + 100), full.stats(id + 100));
            }
        }
    }
}

// ---- fluid slots ≡ the per-tick map lookups they replaced ----

const NAMES: [&str; 3] = ["default", "gold", "r"];

/// One session's program as the fluid test installs it: metered or not
/// (two meter id sets, so an install can move its meters), accounted
/// against one of `NAMES`, or blocked (drop rules, no fluid entry).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Install {
    meters: Option<(u32, u64)>,
    name: usize,
    blocked: bool,
}

fn fluid_program(id: u64, at: Install) -> SessionProgram {
    if at.blocked {
        return program_of(id, &Sess { dl_teid: 0, limit_kbps: None, blocked: true });
    }
    let name = NAMES[at.name];
    let ids = at.meters.map(|(set, kbps)| {
        let base = id as u32 * 4 + set * 2;
        ((MeterId(base), MeterId(base + 1)), kbps)
    });
    let (ulm, dlm) = (ids.map(|((u, _), _)| u), ids.map(|((_, d), _)| d));
    SessionProgram {
        rules: session_rules(id, ip_of(id), Teid(id as u32), Teid(100 + id as u32), ulm, dlm, name),
        meters: ids
            .iter()
            .flat_map(|&((u, d), k)| [u, d].map(|id| MeterSpec { id, rate_bps: k * 1000, burst_bytes: k * 10 }))
            .collect(),
        fluid: Some(FluidEntry { cookie: id, ul_meter: ulm, dl_meter: dlm, rule_name: name.to_string() }),
    }
}

#[derive(Debug, Clone)]
enum Demands {
    Repeat,
    Reverse,
    Rotate(usize),
    /// Cookies up to `SESSIONS + 2`: some never installed.
    New(Vec<(u64, u64, u64)>),
}

#[derive(Debug, Clone)]
enum FluidOp {
    Install(u64, Install),
    Remove(u64),
    Tick(Demands),
    Packet(PacketMeta),
    TakeUsage(usize),
}

fn arb_fluid_op() -> impl Strategy<Value = FluidOp> {
    let install = (
        proptest::option::of((0u32..2, prop_oneof![Just(64u64), Just(512), Just(4096)])),
        0..NAMES.len(),
        (0u8..7).prop_map(|b| b == 0),
    )
        .prop_map(|(meters, name, blocked)| Install { meters, name, blocked });
    let demand = (0..SESSIONS + 3, 0u64..30_000, 0u64..60_000);
    let packet = (0..SESSIONS as u32, any::<bool>(), 0usize..2000).prop_map(|(id, up, size)| {
        if up {
            PacketMeta::uplink(Teid(id), UeIp(id), size)
        } else {
            PacketMeta::downlink(UeIp(id), size)
        }
    });
    prop_oneof![
        (0..SESSIONS, install).prop_map(|(id, at)| FluidOp::Install(id, at)),
        (0..SESSIONS).prop_map(FluidOp::Remove),
        Just(FluidOp::Tick(Demands::Repeat)),
        Just(FluidOp::Tick(Demands::Repeat)),
        Just(FluidOp::Tick(Demands::Reverse)),
        (1usize..5).prop_map(|k| FluidOp::Tick(Demands::Rotate(k))),
        proptest::collection::vec(demand, 0..16).prop_map(|d| FluidOp::Tick(Demands::New(d))),
        packet.prop_map(FluidOp::Packet),
        (0..NAMES.len()).prop_map(FluidOp::TakeUsage),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense fluid slots, their memoised demand resolution and the
    /// interned usage counters grant, count and report exactly what the
    /// per-tick `BTreeMap` lookups did, over installs, changes (meters,
    /// rule name) and removals, repeated, reordered and changed demand
    /// vectors with unknown cookies, packets and usage reports.
    #[test]
    fn fluid_slots_equal_the_map_lookups(ops in proptest::collection::vec(arb_fluid_op(), 1..60)) {
        let (mut p, mut old) = (Pipeline::new(), WholeTableDiff::default());
        let mut desired = DesiredState::default();
        let mut demands: Vec<(u64, u64, u64)> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_millis(step as u64 * 100);
            match op {
                FluidOp::Install(id, at) => {
                    desired.programs.insert(id, fluid_program(id, at));
                    p.set_desired_for(&desired, [id]);
                    old.set_desired(&desired);
                }
                FluidOp::Remove(id) => {
                    desired.programs.remove(&id);
                    p.set_desired_for(&desired, [id]);
                    old.set_desired(&desired);
                }
                FluidOp::Tick(shape) => {
                    match shape {
                        Demands::Repeat => {}
                        Demands::Reverse => demands.reverse(),
                        Demands::Rotate(k) => {
                            let k = k % demands.len().max(1);
                            demands.rotate_left(k);
                        }
                        Demands::New(d) => demands = d,
                    }
                    prop_assert_eq!(p.fluid_tick(now, &demands), old.fluid_tick(now, &demands), "step {}", step);
                }
                FluidOp::Packet(pkt) => {
                    prop_assert_eq!(p.process(pkt, now), old.process(pkt, now), "step {}", step);
                }
                FluidOp::TakeUsage(n) => {
                    let taken = old.usage.remove(NAMES[n]).unwrap_or_default();
                    prop_assert_eq!(p.take_usage(NAMES[n]), taken, "step {}", step);
                }
            }
            prop_assert_eq!(p.session_count(), old.fluid.len(), "step {}", step);
            prop_assert_eq!(p.reconcile_ops, old.reconcile_ops, "step {}", step);
            for id in 0..SESSIONS + 3 {
                prop_assert_eq!(p.stats(id), old.stats.get(&id).copied().unwrap_or_default(), "step {}", step);
            }
            for name in NAMES {
                prop_assert_eq!(p.usage(name), old.usage.get(name).copied().unwrap_or_default(), "step {}", step);
            }
        }
    }
}
