//! Intra-AGW mobility (§3.2): the paper supports mobility across radios
//! served by a common AGW. A UE attaches via eNodeB 1; a target eNodeB
//! performs a path switch, and the AGW repoints the downlink tunnel
//! without touching the session.

mod common;

use magma::prelude::*;
use magma_wire::s1ap::MmeUeId;

#[test]
fn path_switch_moves_downlink_tunnel() {
    let site = SiteSpec {
        enbs: 1,
        ues_per_enb: 1,
        attach_rate_per_sec: 1.0,
        traffic: TrafficModel::http_download(),
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(3).with_agw(AgwSpec::bare_metal(site));
    let mut sc = magma::deploy(cfg);

    // A second (target) eNodeB node appears at the same site; the first
    // (and only) attached UE moves to it.
    common::add_target_enb(&mut sc, SimTime::from_secs(20), MmeUeId(1));

    sc.world.run_until(SimTime::from_secs(40));
    let rec = sc.world.registry();
    assert_eq!(
        rec.counter("agw0.mme.attach_accept"),
        1.0,
        "UE attached first"
    );
    assert_eq!(
        rec.counter("agw0.mme.handover_ok"),
        1.0,
        "path switch handled"
    );
    // Every completed handover closes its span: one total_s sample each.
    assert_eq!(
        rec.histogram("agw0.mme.handover.total_s")
            .map(|h| h.count as f64),
        Some(rec.counter("agw0.mme.handover_ok")),
        "handover span finished once per handover"
    );
    assert_eq!(
        rec.series("test.path_switch_ack").map(|s| s.len()),
        Some(1),
        "target eNB received the ack"
    );

    // The session's downlink TEID now points at the target eNodeB.
    let cp = sc.agws[0]
        .handle
        .borrow()
        .checkpoint
        .clone()
        .expect("checkpointing active");
    let session = cp.sessions.iter().next().expect("one session");
    assert_eq!(session.dl_teid, common::TARGET_ENB_TEID, "downlink repointed");
}
