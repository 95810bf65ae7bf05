//! pipelined — data-plane configuration.
//!
//! Compiles the session table into the data plane's complete desired
//! state (§3.4's "the set of sessions is now X, Y, Z" model), keyed by
//! session: per session its rules, its meters from the
//! currently-effective rate limit, and its fluid entry. The AGW keeps
//! that full desired state and, after a session change, re-derives the
//! touched sessions' programs ([`recompile`]) and tells the data plane
//! which keys to look at — a transport of *where* the full state
//! differs, not *what* to do. Recompilation is idempotent; the data
//! plane preserves counters for unchanged entries.

use crate::sessiond::{AccessTech, Session, SessionManager};
use magma_dataplane::{
    session_rules, DesiredState, FluidEntry, FlowAction, FlowMatch, FlowRule, MeterId, MeterSpec,
    PortId, SessionProgram, TABLE_CLASSIFIER,
};
use magma_policy::RateLimit;

/// Burst allowance granted on top of a sustained rate: 100 ms worth.
fn burst_for(rate_bps: u64) -> u64 {
    (rate_bps / 8 / 10).max(1500)
}

fn meter_ids(session_id: u64) -> (MeterId, MeterId) {
    (
        MeterId((session_id as u32) << 1),
        MeterId(((session_id as u32) << 1) | 1),
    )
}

/// Compile one session's program.
pub fn compile_session(s: &Session) -> SessionProgram {
    let mut out = SessionProgram::default();
    if s.blocked {
        // Credit exhausted: install an explicit drop for the UE's traffic
        // (higher priority than the session rules).
        out.rules.push(FlowRule {
            table: TABLE_CLASSIFIER,
            priority: 50,
            m: FlowMatch::any().ipv4_dst(s.ue_ip),
            actions: vec![FlowAction::Drop],
            cookie: s.id,
        });
        out.rules.push(FlowRule {
            table: TABLE_CLASSIFIER,
            priority: 50,
            m: FlowMatch::any().ipv4_src(s.ue_ip),
            actions: vec![FlowAction::Drop],
            cookie: s.id,
        });
        // No fluid entry: fluid traffic gets zero grants.
        return out;
    }

    let (ul_meter, dl_meter) = match s.limit {
        Some(RateLimit { dl_kbps, ul_kbps }) => {
            let (ulm, dlm) = meter_ids(s.id);
            out.meters.push(MeterSpec {
                id: ulm,
                rate_bps: ul_kbps as u64 * 1000,
                burst_bytes: burst_for(ul_kbps as u64 * 1000),
            });
            out.meters.push(MeterSpec {
                id: dlm,
                rate_bps: dl_kbps as u64 * 1000,
                burst_bytes: burst_for(dl_kbps as u64 * 1000),
            });
            (Some(ulm), Some(dlm))
        }
        None => (None, None),
    };

    match s.tech {
        AccessTech::Lte | AccessTech::Nr5g => {
            out.rules = session_rules(
                s.id,
                s.ue_ip,
                s.ul_teid,
                s.dl_teid,
                ul_meter,
                dl_meter,
                &s.rule.id,
            );
        }
        AccessTech::Wifi => {
            // WiFi data plane: no GTP; plain IP in both directions.
            out.rules.push(FlowRule {
                table: TABLE_CLASSIFIER,
                priority: 10,
                m: FlowMatch::any().ipv4_src(s.ue_ip),
                actions: vec![FlowAction::Output(PortId::SGI)],
                cookie: s.id,
            });
            out.rules.push(FlowRule {
                table: TABLE_CLASSIFIER,
                priority: 10,
                m: FlowMatch::any().ipv4_dst(s.ue_ip),
                actions: vec![FlowAction::Output(PortId::RAN)],
                cookie: s.id,
            });
        }
    }
    out.fluid = Some(FluidEntry {
        cookie: s.id,
        ul_meter,
        dl_meter,
        rule_name: s.rule.id.clone(),
    });
    out
}

/// Compile the whole session table into the complete desired state.
pub fn compile(sessions: &SessionManager) -> DesiredState {
    DesiredState {
        programs: sessions.iter().map(|s| (s.id, compile_session(s))).collect(),
    }
}

/// Bring `desired` up to date for the sessions named — created, changed
/// or removed since it was last compiled.
pub fn recompile(desired: &mut DesiredState, sessions: &SessionManager, touched: &[u64]) {
    for &sid in touched {
        match sessions.get(sid) {
            Some(s) => desired.programs.insert(sid, compile_session(s)),
            None => desired.programs.remove(&sid),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_policy::PolicyRule;
    use magma_sim::SimTime;
    use magma_wire::{Imsi, Teid, UeIp};

    fn session(rule: PolicyRule) -> (SessionManager, u64) {
        let mut m = SessionManager::new();
        let ul = m.alloc_teid();
        let (id, _) = m.create(
            Imsi::new(310, 26, 1),
            AccessTech::Lte,
            UeIp(10),
            ul,
            Teid(500),
            rule,
            SimTime::ZERO,
        );
        (m, id)
    }

    #[test]
    fn unrestricted_session_has_no_meters() {
        let (m, id) = session(PolicyRule::unrestricted("default"));
        let d = compile(&m);
        assert_eq!(d.programs.len(), 1);
        let p = &d.programs[&id];
        assert!(p.meters.is_empty());
        assert_eq!(p.fluid.as_ref().map(|e| e.cookie), Some(id));
        assert!(p.rules.len() >= 4);
    }

    #[test]
    fn rate_limited_session_gets_two_meters() {
        let (m, id) = session(PolicyRule::rate_limited("silver", 5_000, 1_000));
        let p = compile_session(m.get(id).unwrap());
        assert_eq!(p.meters.len(), 2);
        let rates: Vec<u64> = p.meters.iter().map(|m| m.rate_bps).collect();
        assert!(rates.contains(&5_000_000));
        assert!(rates.contains(&1_000_000));
        assert!(p.fluid.unwrap().ul_meter.is_some());
    }

    #[test]
    fn blocked_session_compiles_to_drops() {
        let (mut m, id) = session(PolicyRule::unrestricted("default"));
        m.get_mut(id).unwrap().blocked = true;
        let p = compile_session(m.get(id).unwrap());
        assert!(p.fluid.is_none(), "no fluid entry when blocked");
        assert!(p
            .rules
            .iter()
            .all(|r| r.actions == vec![FlowAction::Drop]));
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn wifi_session_has_no_gtp() {
        let mut m = SessionManager::new();
        m.create(
            Imsi::new(310, 26, 2),
            AccessTech::Wifi,
            UeIp(20),
            Teid(0),
            Teid(0),
            PolicyRule::unrestricted("unrestricted"),
            SimTime::ZERO,
        );
        let d = compile(&m);
        assert!(d.programs.values().flat_map(|p| &p.rules).all(|r| !r
            .actions
            .iter()
            .any(|a| matches!(a, FlowAction::PushGtp(_) | FlowAction::PopGtp))));
    }

    #[test]
    fn compile_is_deterministic() {
        let (mut m, _) = session(PolicyRule::rate_limited("x", 1000, 1000));
        let ul = m.alloc_teid();
        m.create(
            Imsi::new(310, 26, 3),
            AccessTech::Lte,
            UeIp(30),
            ul,
            Teid(0),
            PolicyRule::unrestricted("default"),
            SimTime::ZERO,
        );
        assert_eq!(compile(&m), compile(&m));
    }

    #[test]
    fn recompile_of_touched_sessions_equals_full_compile() {
        let (mut m, id) = session(PolicyRule::rate_limited("x", 1000, 1000));
        let mut d = compile(&m);
        // Re-attach replaces the session: both ids are touched.
        let ul = m.alloc_teid();
        let (id2, replaced) = m.create(
            Imsi::new(310, 26, 1),
            AccessTech::Lte,
            UeIp(11),
            ul,
            Teid(0),
            PolicyRule::unrestricted("default"),
            SimTime::ZERO,
        );
        assert_eq!(replaced, Some(id));
        recompile(&mut d, &m, &[id, id2]);
        assert_eq!(d, compile(&m));
        m.get_mut(id2).unwrap().blocked = true;
        recompile(&mut d, &m, &[id2]);
        assert_eq!(d, compile(&m));
    }
}
