//! The multi-table pipeline: Magma's `pipelined`-programmed OVS analog.
//!
//! Table layout mirrors the AGW data plane:
//! - **Table 0 — classifier**: GTP decap for uplink, direction tagging.
//! - **Table 1 — enforcement**: per-session policy (meters, usage
//!   accounting, drops).
//! - **Table 2 — egress**: GTP encap for downlink, output port selection.
//!
//! Programming is **desired-state**: [`Pipeline::set_desired`] is given the
//! full desired state, keyed by session cookie, and reconciles, preserving
//! counters and token-bucket state for unchanged entries (§3.4).
//! [`Pipeline::set_desired_for`] adds a hint — the keys where that full
//! state may differ from what is installed. The hinted converge is a
//! transport of *where*, not *what*: the target is still read from the full
//! state, so no CRUD operation exists to be lost or reordered.

use crate::flow::{
    Direction, DropReason, FlowAction, FlowMatch, FlowRule, MeterId, PacketMeta, PortId, Verdict,
};
use crate::meter::MeterTable;
use magma_sim::SimTime;
use magma_wire::Teid;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeMap;

pub const TABLE_CLASSIFIER: u8 = 0;
pub const TABLE_ENFORCEMENT: u8 = 1;
pub const TABLE_EGRESS: u8 = 2;
const MAX_TABLES: usize = 8;

/// Meter specification in the desired state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeterSpec {
    pub id: MeterId,
    pub rate_bps: u64,
    pub burst_bytes: u64,
}

/// Fluid-mode session entry: flow-level accounting for one UE session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FluidEntry {
    /// Session cookie (matches the rules' cookies).
    pub cookie: u64,
    pub ul_meter: Option<MeterId>,
    pub dl_meter: Option<MeterId>,
    /// Policy rule name usage is accounted against.
    pub rule_name: String,
}

/// One session's slice of the desired state. Every rule carries the
/// program's key as its cookie, and a meter id belongs to one program.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionProgram {
    pub rules: Vec<FlowRule>,
    pub meters: Vec<MeterSpec>,
    /// Absent ⇒ fluid traffic for this cookie gets zero grants.
    pub fluid: Option<FluidEntry>,
}

/// The complete desired data-plane state for one AGW, keyed by session
/// cookie.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DesiredState {
    pub programs: BTreeMap<u64, SessionProgram>,
}

/// Per-rule-name usage accounting (read by sessiond for quota reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Usage {
    pub ul_bytes: u64,
    pub dl_bytes: u64,
}

/// Per-cookie packet/byte counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStats {
    pub packets: u64,
    pub bytes: u64,
}

/// Result of one fluid tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FluidTickResult {
    /// `(cookie, ul_granted, dl_granted)` per demanding session.
    pub grants: Vec<(u64, u64, u64)>,
    pub total_ul: u64,
    pub total_dl: u64,
}

/// Where one cookie's installed program lives: the `(table, priority)`
/// slot of each rule in program order, and its meters.
#[derive(Default)]
struct Installed {
    slots: Vec<(u8, u16)>,
    meters: Vec<MeterSpec>,
}

/// Position of `(priority, cookie, idx)` in a table's match order.
fn slot_of(table: &[(u32, FlowRule)], priority: u16, cookie: u64, idx: u32) -> Result<usize, usize> {
    table.binary_search_by_key(&(Reverse(priority), cookie, idx), |(i, r)| {
        (Reverse(r.priority), r.cookie, *i)
    })
}

fn table_of(r: &FlowRule) -> usize {
    (r.table as usize).min(MAX_TABLES - 1)
}

/// One installed fluid entry with what its tick touches.
struct FluidSlot {
    entry: FluidEntry,
    /// Bytes granted to the entry: the fluid share of its cookie's stats.
    bytes: u64,
    /// `entry.rule_name`'s index in `Pipeline::usage`.
    usage: usize,
}

/// The programmable software data plane.
pub struct Pipeline {
    /// Rules by value in match order: priority descending, then cookie,
    /// then position in the session's program (the `u32`).
    tables: Vec<Vec<(u32, FlowRule)>>,
    installed: BTreeMap<u64, Installed>,
    meters: MeterTable,
    /// Fluid entries by cookie, as indices into the dense `slots`.
    fluid: BTreeMap<u64, usize>,
    slots: Vec<Option<FluidSlot>>,
    free_slots: Vec<usize>,
    /// The last demand vector's cookies, each with its slot. Cleared
    /// whenever a slot is allocated or freed.
    memo: Vec<(u64, Option<usize>)>,
    /// Packet-path counters; the fluid bytes live in the slots.
    stats: BTreeMap<u64, RuleStats>,
    /// Rule names, interned into indices of `usage`.
    usage_ix: BTreeMap<String, usize>,
    usage: Vec<Usage>,
    pub drops_no_match: u64,
    pub drops_metered: u64,
    pub drops_explicit: u64,
    /// Number of rule add/remove operations performed by reconciliation
    /// (observability into desired-state churn).
    pub reconcile_ops: u64,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline {
    pub fn new() -> Self {
        Pipeline {
            tables: vec![Vec::new(); MAX_TABLES],
            installed: BTreeMap::new(),
            meters: MeterTable::new(),
            fluid: BTreeMap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            memo: Vec::new(),
            stats: BTreeMap::new(),
            usage_ix: BTreeMap::new(),
            usage: Vec::new(),
            drops_no_match: 0,
            drops_metered: 0,
            drops_explicit: 0,
            reconcile_ops: 0,
        }
    }

    /// Reconcile toward the given desired state (idempotent): converge
    /// every key that is installed or desired.
    pub fn set_desired(&mut self, desired: &DesiredState) {
        let installed = self.installed.keys().copied();
        let gone: Vec<u64> = installed.filter(|k| !desired.programs.contains_key(k)).collect();
        self.set_desired_for(desired, gone.into_iter().chain(desired.programs.keys().copied()));
    }

    /// [`set_desired`](Self::set_desired) when the caller knows where
    /// `desired` can differ from what is installed: only `keys` are
    /// converged. Naming a key that did not change is harmless.
    pub fn set_desired_for(&mut self, desired: &DesiredState, keys: impl IntoIterator<Item = u64>) {
        // Per table, the slot after the last rule found unchanged: with
        // ascending keys the next rule usually sits there, so a walk over
        // an unchanged state never searches.
        let mut cursor = [0; MAX_TABLES];
        for k in keys {
            self.converge_key(k, desired.programs.get(&k), &mut cursor);
        }
    }

    /// Bring one cookie's installed program to `want` (`None`: remove it).
    fn converge_key(
        &mut self,
        cookie: u64,
        want: Option<&SessionProgram>,
        cursor: &mut [usize; MAX_TABLES],
    ) {
        let none = SessionProgram::default();
        let want = want.unwrap_or(&none);
        debug_assert!(want.rules.iter().all(|r| r.cookie == cookie));
        let had = self.installed.entry(cookie).or_default();

        // Rules: replace the cookie's bucket if any rule moved or changed,
        // counting churn as rules present on one side only.
        let same = had.slots.len() == want.rules.len()
            && want.rules.iter().enumerate().all(|(i, r)| {
                let (t, next) = (&self.tables[table_of(r)], &mut cursor[table_of(r)]);
                let holds = |at: usize| t.get(at).is_some_and(|(j, x)| *j == i as u32 && x == r);
                if !holds(*next) {
                    let Ok(at) = slot_of(t, r.priority, cookie, i as u32) else {
                        return false;
                    };
                    *next = at;
                }
                *next += 1;
                holds(*next - 1)
            });
        if !same {
            let mut old = Vec::with_capacity(had.slots.len());
            for (i, (t, priority)) in had.slots.drain(..).enumerate() {
                let t = &mut self.tables[t as usize];
                if let Ok(at) = slot_of(t, priority, cookie, i as u32) {
                    old.push(t.remove(at).1);
                }
            }
            let removed = old.iter().filter(|r| !want.rules.contains(r)).count();
            let added = want.rules.iter().filter(|r| !old.contains(r)).count();
            self.reconcile_ops += (removed + added) as u64;
            for (i, r) in want.rules.iter().enumerate() {
                let t = &mut self.tables[table_of(r)];
                let at = slot_of(t, r.priority, cookie, i as u32).unwrap_or_else(|at| at);
                t.insert(at, (i as u32, r.clone()));
                had.slots.push((table_of(r) as u8, r.priority));
            }
        }

        // Meters: install new/changed, remove absent; unchanged keep state.
        if had.meters != want.meters {
            for m in had.meters.iter().filter(|m| !want.meters.iter().any(|w| w.id == m.id)) {
                self.meters.remove(m.id);
                self.reconcile_ops += 1;
            }
            for w in want.meters.iter().filter(|w| !had.meters.contains(w)) {
                self.meters.install(w.id, w.rate_bps, w.burst_bytes);
                self.reconcile_ops += 1;
            }
            had.meters.clone_from(&want.meters);
        }

        // Fluid entry; a session that loses it loses its counters too.
        if let Some(e) = &want.fluid {
            match self.fluid.get(&cookie) {
                Some(&i) => {
                    let slot = self.slots[i].as_mut().expect("indexed slot is live");
                    if slot.entry != *e {
                        slot.usage = usage_index(&mut self.usage_ix, &mut self.usage, &e.rule_name);
                        slot.entry.clone_from(e);
                    }
                }
                None => {
                    let usage = usage_index(&mut self.usage_ix, &mut self.usage, &e.rule_name);
                    let i = self.free_slots.pop().unwrap_or_else(|| {
                        self.slots.push(None);
                        self.slots.len() - 1
                    });
                    self.slots[i] = Some(FluidSlot { entry: e.clone(), bytes: 0, usage });
                    self.fluid.insert(cookie, i);
                    self.memo.clear();
                }
            }
        } else {
            if let Some(i) = self.fluid.remove(&cookie) {
                self.slots[i] = None;
                self.free_slots.push(i);
                self.memo.clear();
                self.stats.remove(&cookie);
            }
            if had.slots.is_empty() && had.meters.is_empty() {
                self.installed.remove(&cookie);
            }
        }
    }

    /// Number of installed rules across all tables.
    pub fn rule_count(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }

    pub fn session_count(&self) -> usize {
        self.fluid.len()
    }

    pub fn meter_count(&self) -> usize {
        self.meters.len()
    }

    /// Usage accounted against a policy rule name.
    pub fn usage(&self, rule: &str) -> Usage {
        self.usage_ix.get(rule).map_or_else(Usage::default, |&i| self.usage[i])
    }

    /// Reset usage for a rule (after reporting to the quota manager).
    pub fn take_usage(&mut self, rule: &str) -> Usage {
        self.usage_ix
            .get(rule)
            .map_or_else(Usage::default, |&i| std::mem::take(&mut self.usage[i]))
    }

    pub fn stats(&self, cookie: u64) -> RuleStats {
        let mut s = self.stats.get(&cookie).copied().unwrap_or_default();
        if let Some(slot) = self.fluid.get(&cookie).and_then(|&i| self.slots[i].as_ref()) {
            s.bytes += slot.bytes;
        }
        s
    }

    /// Export the pipeline's operational state into a metric registry
    /// under `<prefix>.dataplane.*` (gauges for table occupancy, the
    /// cumulative drop and reconcile totals as monotone values). Called
    /// by the owning gateway each fluid tick so `metricsd` snapshots
    /// carry the data-plane view.
    pub fn observe_into(&self, reg: &mut magma_sim::Registry, prefix: &str) {
        reg.gauge_set(&format!("{prefix}.dataplane.rules"), self.rule_count() as f64);
        reg.gauge_set(
            &format!("{prefix}.dataplane.sessions"),
            self.session_count() as f64,
        );
        reg.gauge_set(
            &format!("{prefix}.dataplane.meters"),
            self.meter_count() as f64,
        );
        reg.gauge_set(
            &format!("{prefix}.dataplane.reconcile_ops"),
            self.reconcile_ops as f64,
        );
        reg.gauge_set(
            &format!("{prefix}.dataplane.drops_no_match"),
            self.drops_no_match as f64,
        );
        reg.gauge_set(
            &format!("{prefix}.dataplane.drops_metered"),
            self.drops_metered as f64,
        );
    }

    /// Packet-mode processing: walk the tables.
    pub fn process(&mut self, mut pkt: PacketMeta, now: SimTime) -> Verdict {
        let mut table = 0usize;
        let mut tunnel: Option<Teid> = None;
        let mut hops = 0;
        loop {
            hops += 1;
            if hops > MAX_TABLES {
                return Verdict::Dropped(DropReason::TableLimit);
            }
            let Some((_, rule)) = self.tables[table].iter().find(|(_, r)| r.m.matches(&pkt)) else {
                self.drops_no_match += 1;
                return Verdict::Dropped(DropReason::NoMatch);
            };
            {
                let s = self.stats.entry(rule.cookie).or_default();
                s.packets += 1;
                s.bytes += pkt.size as u64;
            }
            let mut next_table: Option<usize> = None;
            for action in &rule.actions {
                match action {
                    FlowAction::PopGtp => {
                        pkt.tun_id = None;
                    }
                    FlowAction::PushGtp(teid) => {
                        tunnel = Some(*teid);
                    }
                    FlowAction::SetDirection(d) => {
                        pkt.direction = Some(*d);
                    }
                    FlowAction::Meter(id) => {
                        if !self.meters.conform(*id, now, pkt.size) {
                            self.drops_metered += 1;
                            return Verdict::Dropped(DropReason::Metered);
                        }
                    }
                    FlowAction::CountUsage { rule: name } => {
                        let i = usage_index(&mut self.usage_ix, &mut self.usage, name);
                        let u = &mut self.usage[i];
                        match pkt.direction {
                            Some(Direction::Downlink) => u.dl_bytes += pkt.size as u64,
                            _ => u.ul_bytes += pkt.size as u64,
                        }
                    }
                    FlowAction::GotoTable(t) => {
                        next_table = Some(*t as usize);
                    }
                    FlowAction::Output(port) => {
                        return Verdict::Out {
                            port: *port,
                            tunnel,
                        };
                    }
                    FlowAction::Drop => {
                        self.drops_explicit += 1;
                        return Verdict::Dropped(DropReason::ExplicitDrop);
                    }
                }
            }
            match next_table {
                Some(t) if t > table && t < MAX_TABLES => table = t,
                Some(_) => return Verdict::Dropped(DropReason::TableLimit),
                None => {
                    self.drops_no_match += 1;
                    return Verdict::Dropped(DropReason::NoMatch);
                }
            }
        }
    }

    /// Fluid-mode processing: apply each session's demanded bytes through
    /// its meters and account usage. Sessions not in the desired state get
    /// nothing (no session ⇒ no bearer).
    ///
    /// A RAN's demand vector changes only when a session comes or goes,
    /// so the cookie → slot resolution is memoised: it is reused while the
    /// cookies are the last call's and no fluid entry came or went.
    pub fn fluid_tick(
        &mut self,
        now: SimTime,
        demands: &[(u64, u64, u64)],
    ) -> FluidTickResult {
        let resolve = |d: &(u64, u64, u64)| (d.0, self.fluid.get(&d.0).copied());
        if !self.memo.iter().map(|m| m.0).eq(demands.iter().map(|d| d.0)) {
            self.memo = demands.iter().map(resolve).collect();
        }
        debug_assert!(self.memo.iter().copied().eq(demands.iter().map(resolve)));
        let mut out = FluidTickResult {
            grants: Vec::with_capacity(demands.len()),
            ..Default::default()
        };
        for (&(cookie, ul_want, dl_want), &(_, slot)) in demands.iter().zip(&self.memo) {
            let Some(slot) = slot.and_then(|i| self.slots[i].as_mut()) else {
                out.grants.push((cookie, 0, 0));
                continue;
            };
            let ul = match slot.entry.ul_meter {
                Some(m) => self.meters.grant(m, now, ul_want),
                None => ul_want,
            };
            let dl = match slot.entry.dl_meter {
                Some(m) => self.meters.grant(m, now, dl_want),
                None => dl_want,
            };
            let u = &mut self.usage[slot.usage];
            u.ul_bytes += ul;
            u.dl_bytes += dl;
            slot.bytes += ul + dl;
            out.grants.push((cookie, ul, dl));
            out.total_ul += ul;
            out.total_dl += dl;
        }
        out
    }
}

/// `name`'s index in `usage`, interning it on first sight.
fn usage_index(ix: &mut BTreeMap<String, usize>, usage: &mut Vec<Usage>, name: &str) -> usize {
    if let Some(&i) = ix.get(name) {
        return i;
    }
    usage.push(Usage::default());
    ix.insert(name.to_string(), usage.len() - 1);
    usage.len() - 1
}

/// Build the standard rule set for one attached UE session.
///
/// This is what the AGW's `pipelined` service compiles from session state:
/// uplink decap + enforcement + SGi output; downlink classify + enforcement
/// + GTP encap toward the eNodeB.
pub fn session_rules(
    cookie: u64,
    ue_ip: magma_wire::UeIp,
    ul_teid: Teid,
    dl_teid: Teid,
    ul_meter: Option<MeterId>,
    dl_meter: Option<MeterId>,
    rule_name: &str,
) -> Vec<FlowRule> {
    let mut rules = Vec::with_capacity(5);
    // Uplink: GTP from RAN, decap, tag, enforce, out SGi. The match pins
    // the tunnel to the session's UE address (anti-spoofing): a UE
    // injecting another subscriber's source IP inside its own tunnel
    // must not have traffic forwarded or billed to the victim.
    rules.push(FlowRule {
        table: TABLE_CLASSIFIER,
        priority: 10,
        m: FlowMatch::any()
            .in_port(PortId::RAN)
            .tun_id(ul_teid)
            .ipv4_src(ue_ip),
        actions: vec![
            FlowAction::PopGtp,
            FlowAction::SetDirection(Direction::Uplink),
            FlowAction::GotoTable(TABLE_ENFORCEMENT),
        ],
        cookie,
    });
    let mut ul_actions = Vec::with_capacity(2 + ul_meter.is_some() as usize);
    if let Some(m) = ul_meter {
        ul_actions.push(FlowAction::Meter(m));
    }
    ul_actions.push(FlowAction::CountUsage {
        rule: rule_name.to_string(),
    });
    ul_actions.push(FlowAction::GotoTable(TABLE_EGRESS));
    rules.push(FlowRule {
        table: TABLE_ENFORCEMENT,
        priority: 10,
        m: FlowMatch::any()
            .ipv4_src(ue_ip)
            .direction(Direction::Uplink),
        actions: ul_actions,
        cookie,
    });
    // Downlink: plain IP to the UE address, tag, enforce, encap, out RAN.
    rules.push(FlowRule {
        table: TABLE_CLASSIFIER,
        priority: 10,
        m: FlowMatch::any().in_port(PortId::SGI).ipv4_dst(ue_ip),
        actions: vec![
            FlowAction::SetDirection(Direction::Downlink),
            FlowAction::GotoTable(TABLE_ENFORCEMENT),
        ],
        cookie,
    });
    let mut dl_actions = Vec::with_capacity(3 + dl_meter.is_some() as usize);
    if let Some(m) = dl_meter {
        dl_actions.push(FlowAction::Meter(m));
    }
    dl_actions.push(FlowAction::CountUsage {
        rule: rule_name.to_string(),
    });
    dl_actions.push(FlowAction::PushGtp(dl_teid));
    dl_actions.push(FlowAction::Output(PortId::RAN));
    rules.push(FlowRule {
        table: TABLE_ENFORCEMENT,
        priority: 10,
        m: FlowMatch::any()
            .ipv4_dst(ue_ip)
            .direction(Direction::Downlink),
        actions: dl_actions,
        cookie,
    });
    // Egress for uplink traffic: out to the Internet.
    rules.push(FlowRule {
        table: TABLE_EGRESS,
        priority: 10,
        m: FlowMatch::any()
            .ipv4_src(ue_ip)
            .direction(Direction::Uplink),
        actions: vec![FlowAction::Output(PortId::SGI)],
        cookie,
    });
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_wire::UeIp;

    fn ue_state(cookie: u64, ip: UeIp, rate_bps: Option<u64>) -> DesiredState {
        let (ulm, dlm, meters) = match rate_bps {
            Some(r) => (
                Some(MeterId(cookie as u32 * 2)),
                Some(MeterId(cookie as u32 * 2 + 1)),
                vec![
                    MeterSpec {
                        id: MeterId(cookie as u32 * 2),
                        rate_bps: r,
                        burst_bytes: r / 8,
                    },
                    MeterSpec {
                        id: MeterId(cookie as u32 * 2 + 1),
                        rate_bps: r,
                        burst_bytes: r / 8,
                    },
                ],
            ),
            None => (None, None, vec![]),
        };
        let program = SessionProgram {
            rules: session_rules(cookie, ip, Teid(100 + cookie as u32), Teid(200 + cookie as u32), ulm, dlm, "default"),
            meters,
            fluid: Some(FluidEntry {
                cookie,
                ul_meter: ulm,
                dl_meter: dlm,
                rule_name: "default".to_string(),
            }),
        };
        DesiredState {
            programs: BTreeMap::from([(cookie, program)]),
        }
    }

    #[test]
    fn observe_into_exports_pipeline_gauges() {
        let mut p = Pipeline::new();
        p.set_desired(&ue_state(1, UeIp(1001), None));
        let mut reg = magma_sim::Registry::new();
        p.observe_into(&mut reg, "agw0");
        assert_eq!(
            reg.gauge("agw0.dataplane.rules"),
            Some(p.rule_count() as f64)
        );
        assert_eq!(reg.gauge("agw0.dataplane.sessions"), Some(1.0));
        assert!(reg.gauge("agw0.dataplane.reconcile_ops").unwrap() > 0.0);
    }

    #[test]
    fn uplink_packet_decap_and_out_sgi() {
        let mut p = Pipeline::new();
        p.set_desired(&ue_state(1, UeIp(10), None));
        let v = p.process(PacketMeta::uplink(Teid(101), UeIp(10), 1400), SimTime::ZERO);
        assert_eq!(
            v,
            Verdict::Out {
                port: PortId::SGI,
                tunnel: None
            }
        );
        assert_eq!(p.usage("default").ul_bytes, 1400);
    }

    #[test]
    fn downlink_packet_encap_toward_ran() {
        let mut p = Pipeline::new();
        p.set_desired(&ue_state(1, UeIp(10), None));
        let v = p.process(PacketMeta::downlink(UeIp(10), 900), SimTime::ZERO);
        assert_eq!(
            v,
            Verdict::Out {
                port: PortId::RAN,
                tunnel: Some(Teid(201))
            }
        );
        assert_eq!(p.usage("default").dl_bytes, 900);
    }

    #[test]
    fn unknown_tunnel_dropped() {
        let mut p = Pipeline::new();
        p.set_desired(&ue_state(1, UeIp(10), None));
        let v = p.process(PacketMeta::uplink(Teid(999), UeIp(10), 100), SimTime::ZERO);
        assert_eq!(v, Verdict::Dropped(DropReason::NoMatch));
        assert_eq!(p.drops_no_match, 1);
    }

    #[test]
    fn metered_packets_drop_when_over_rate() {
        let mut p = Pipeline::new();
        // 8 kbps => 1000 B/s, burst 1000.
        p.set_desired(&ue_state(1, UeIp(10), Some(8_000)));
        let now = SimTime::from_secs(1);
        let v1 = p.process(PacketMeta::downlink(UeIp(10), 1000), now);
        assert!(matches!(v1, Verdict::Out { .. }));
        let v2 = p.process(PacketMeta::downlink(UeIp(10), 1000), now);
        assert_eq!(v2, Verdict::Dropped(DropReason::Metered));
        assert_eq!(p.drops_metered, 1);
    }

    #[test]
    fn desired_state_is_idempotent_and_preserves_counters() {
        let mut p = Pipeline::new();
        let st = ue_state(1, UeIp(10), Some(1_000_000));
        p.set_desired(&st);
        let ops1 = p.reconcile_ops;
        p.process(PacketMeta::downlink(UeIp(10), 500), SimTime::ZERO);
        let usage_before = p.usage("default");
        p.set_desired(&st);
        assert_eq!(p.reconcile_ops, ops1, "re-applying same state is a no-op");
        assert_eq!(p.usage("default"), usage_before, "usage preserved");
    }

    #[test]
    fn removing_session_stops_traffic() {
        let mut p = Pipeline::new();
        p.set_desired(&ue_state(1, UeIp(10), None));
        assert!(matches!(
            p.process(PacketMeta::downlink(UeIp(10), 100), SimTime::ZERO),
            Verdict::Out { .. }
        ));
        p.set_desired(&DesiredState::default());
        assert_eq!(p.rule_count(), 0);
        assert_eq!(
            p.process(PacketMeta::downlink(UeIp(10), 100), SimTime::ZERO),
            Verdict::Dropped(DropReason::NoMatch)
        );
    }

    #[test]
    fn fluid_tick_respects_meters_and_accounts_usage() {
        let mut p = Pipeline::new();
        // 1 Mbps meters.
        p.set_desired(&ue_state(1, UeIp(10), Some(1_000_000)));
        let mut total_dl = 0;
        for i in 1..=10 {
            let now = SimTime::from_millis(i * 100);
            let r = p.fluid_tick(now, &[(1, 0, 1_000_000)]);
            total_dl += r.total_dl;
        }
        // ~1s at 125 kB/s (+burst).
        assert!(total_dl < 300_000, "rate limited, got {total_dl}");
        assert!(total_dl > 100_000, "some traffic flows, got {total_dl}");
        assert_eq!(p.usage("default").dl_bytes, total_dl);
    }

    #[test]
    fn fluid_unknown_session_gets_nothing() {
        let mut p = Pipeline::new();
        let r = p.fluid_tick(SimTime::ZERO, &[(42, 1000, 1000)]);
        assert_eq!(r.grants, vec![(42, 0, 0)]);
        assert_eq!(r.total_ul, 0);
    }

    #[test]
    fn many_sessions_coexist() {
        let mut p = Pipeline::new();
        let mut desired = DesiredState::default();
        for i in 0..50u64 {
            desired.programs.extend(ue_state(i, UeIp(100 + i as u32), None).programs);
        }
        p.set_desired(&desired);
        assert_eq!(p.session_count(), 50);
        for i in 0..50u64 {
            let v = p.process(
                PacketMeta::uplink(Teid(100 + i as u32), UeIp(100 + i as u32), 64),
                SimTime::ZERO,
            );
            assert!(matches!(v, Verdict::Out { port: PortId::SGI, .. }), "session {i}");
        }
    }

    #[test]
    fn higher_priority_rule_wins() {
        let mut p = Pipeline::new();
        let block_all = FlowRule {
            table: TABLE_CLASSIFIER,
            priority: 100,
            m: FlowMatch::any().in_port(PortId::SGI),
            actions: vec![FlowAction::Drop],
            cookie: 9,
        };
        let mut st = ue_state(1, UeIp(10), None);
        st.programs.insert(
            9,
            SessionProgram {
                rules: vec![block_all],
                ..Default::default()
            },
        );
        p.set_desired(&st);
        assert_eq!(
            p.process(PacketMeta::downlink(UeIp(10), 100), SimTime::ZERO),
            Verdict::Dropped(DropReason::ExplicitDrop)
        );
    }
}
