//! Every body that rides the RPC wire, taken from a live deployment: its
//! streamed text is pinned by length and FNV-1a digest in
//! `scripts/golden/rpc_bodies.txt`, so the simulated wire cannot move
//! unnoticed, and the text reads back as the value it was written from.
//!
//! To re-baseline after an intentional wire change, delete the golden and
//! re-run this test: it installs what it computed.

use magma::orc8r::{
    BootstrapRequest, BootstrapResponse, CheckinRequest, CheckinResponse, CheckpointPush,
    CheckpointPushRef, CreditReport, CreditRequest, CreditResponse, FegAuthRequest,
    FegAuthResponse, FegLocationRequest, FegLocationResponse, FegVector, MetricsAck, MetricsPush,
};
use magma::agw::{checkpoint, AgwCheckpoint};
use magma::prelude::*;
use magma::rpc::{encode_frame, Framer, RpcFrame};
use magma::sim::racecheck::fnv_bytes;
use magma::subscriber::{DbSnapshot, DbSync, SubscriberDb};
use magma::wire::aka::{Autn, Kasme, Rand, Res};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::path::PathBuf;

/// One line per checked body, in the order the test checks them.
#[derive(Default)]
struct Pins(Vec<String>);

impl Pins {
    /// Pin `x`'s streamed text and read it back; returns the text.
    fn check<T: Serialize + Deserialize + PartialEq + Debug>(&mut self, x: &T) -> String {
        let name = std::any::type_name::<T>();
        let text = serde_json::to_string(x).expect("serializes");
        self.0.push(format!(
            "{name} {} {:016x}",
            text.len(),
            fnv_bytes(text.as_bytes())
        ));
        assert_eq!(
            serde_json::from_str::<T>(&text).as_ref(),
            Ok(x),
            "{name}: round trip"
        );
        text
    }

    /// Compare with the committed golden, or install it when there is none.
    fn assert_golden(&self) {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../scripts/golden/rpc_bodies.txt");
        let got = self.0.join("\n") + "\n";
        match std::fs::read_to_string(&path) {
            Ok(golden) => {
                for (i, (want, have)) in golden.lines().zip(got.lines()).enumerate() {
                    assert_eq!(have, want, "body {i} drifted from {}", path.display());
                }
                assert_eq!(
                    got.lines().count(),
                    golden.lines().count(),
                    "number of pinned bodies changed ({})",
                    path.display()
                );
            }
            Err(_) => std::fs::write(&path, got).expect("install the golden"),
        }
    }
}

#[test]
fn every_rpc_body_streams_its_pinned_bytes_and_reads_back() {
    let mut pins = Pins::default();
    // A site busy enough that the session table, the IP pool and the
    // subscriber map all hold integer keys of different widths.
    let site = SiteSpec {
        enbs: 2,
        ues_per_enb: 12,
        attach_rate_per_sec: 4.0,
        ..SiteSpec::typical()
    };
    let cfg = ScenarioConfig::new(17).with_agw(AgwSpec::bare_metal(site));
    let mut d = magma::deploy(cfg);
    // Checkpoints are taken on the second; half a second on, the last
    // one has reached the orchestrator.
    d.world.run_until(SimTime::from_millis(40_500));

    let agw = d.agws.first().expect("one gateway");
    let cp = agw
        .handle
        .borrow()
        .checkpoint
        .clone()
        .expect("a checkpoint was taken");
    assert!(
        cp.sessions.len() >= 20,
        "sessions up: {}",
        cp.sessions.len()
    );
    let db = d.orc8r.borrow().db.snapshot();
    let snapshot = d.world.registry().snapshot_prefixed(&agw.id);
    assert!(!snapshot.counters.is_empty() && !snapshot.histograms.is_empty());
    let events = d.world.events().since(&agw.id, 0, 64);
    assert!(!events.is_empty(), "the gateway logged events");

    pins.check(&cp);
    pins.check(&cp.sessions);
    pins.check(&cp.pool);
    pins.check(&db);
    pins.check(&snapshot);
    for e in &events {
        pins.check(e);
    }

    // The checkpoint as uploaded: runtime state only, streamed from a
    // borrowed view. What the orchestrator stores reads back as the
    // checkpoint without its replica, plus the SQN marks.
    let sqn = {
        let mut replica = SubscriberDb::new();
        replica.apply_snapshot(cp.db.clone());
        replica.sqn_marks()
    };
    assert!(sqn.len() >= 20, "every attach advanced an SQN: {}", sqn.len());
    let wire = cp.wire(&sqn);
    let push = CheckpointPush {
        agw_id: cp.agw_id.clone(),
        state: serde_json::from_str(&serde_json::to_string(&wire).unwrap()).unwrap(),
    };
    let pushed = pins.check(&push);
    let view = CheckpointPushRef {
        agw_id: &cp.agw_id,
        state: &wire,
    };
    assert_eq!(serde_json::to_string(&view).unwrap(), pushed);
    let stored = d.orc8r.borrow().checkpoints[&agw.id].clone();
    assert_eq!(
        stored, push.state,
        "what the orchestrator stores is the view the gateway streamed"
    );
    let without_db = AgwCheckpoint {
        db: DbSnapshot::default(),
        ..cp.clone()
    };
    assert_eq!(checkpoint::from_wire(stored), Ok((without_db, sqn)));

    // The push / check-in body, both ways it comes: what changed after a
    // northbound write, and the full state.
    let before = db.version;
    d.orc8r
        .borrow_mut()
        .upsert_subscriber(SubscriberProfile::lte(Imsi::new(310, 26, 77), 7, 77));
    d.orc8r.borrow_mut().remove_subscriber(d.imsis[0]);
    let changes = d.orc8r.borrow().db.sync_since(before).expect("stale");
    match &changes {
        DbSync::Changes(ch) => assert_eq!((ch.subscribers.len(), ch.removed.len()), (1, 1)),
        DbSync::Full(_) => panic!("two versions back is in the log"),
    }
    pins.check(&changes);
    pins.check(&DbSync::Full(db.clone()));

    pins.check(&BootstrapRequest {
        agw_id: agw.id.clone(),
        hw_token: u64::MAX,
    });
    pins.check(&BootstrapResponse { cert: 7 });
    pins.check(&CheckinRequest {
        agw_id: agw.id.clone(),
        cert: 7,
        db_version: db.version,
        enbs: vec![1, 2],
        active_sessions: cp.sessions.len() as u64,
        metrics: [
            ("attach.accept".to_string(), 24.0),
            ("attach.reject".to_string(), 0.0),
        ]
        .into(),
    });
    pins.check(&CheckinResponse {
        latest_version: db.version,
        sync: None,
        checkin_interval_s: 60,
    });
    pins.check(&CheckinResponse {
        latest_version: db.version,
        sync: Some(changes),
        checkin_interval_s: 60,
    });
    pins.check(&CreditRequest {
        imsi: 310_260_000_000_001,
        session_id: 9,
        session_started_us: 12_500_000,
        request_number: 3,
    });
    pins.check(&CreditResponse {
        granted: 1 << 20,
        is_final: false,
        denied: false,
    });
    pins.check(&CreditReport {
        imsi: 310_260_000_000_001,
        session_id: 10,
        session_started_us: 14_000_000,
        used_bytes: 5,
    });
    pins.check(&FegAuthRequest { imsi: 1 });
    pins.check(&FegAuthResponse {
        vectors: vec![FegVector {
            rand: Rand([9; 16]),
            autn: Autn([10; 16]),
            xres: Res([255; 8]),
            kasme: Kasme([0; 16]),
        }],
    });
    pins.check(&FegLocationRequest {
        imsi: 1,
        agw_id: agw.id.clone(),
    });
    pins.check(&FegLocationResponse {
        ok: true,
        ambr_dl_kbps: 100_000,
        ambr_ul_kbps: 9,
    });
    let metrics = MetricsPush {
        agw_id: agw.id.clone(),
        seq: 3,
        taken_at_us: 40_000_000,
        snapshot,
        events,
    };
    pins.check(&metrics);
    pins.check(&MetricsAck {
        accepted: true,
        last_seq: 3,
    });

    // And through the frame layer: a typed body framed by the streaming
    // encoder reads back whole when it arrives in segments.
    let frame = RpcFrame::request(11, "metricsd.Push", serde_json::to_value(&metrics).unwrap());
    pins.check(&frame);
    let wire = encode_frame(&frame);
    let mut framer = Framer::new();
    let mut got = Vec::new();
    for chunk in wire.chunks(1400) {
        got.extend(framer.push(chunk));
    }
    assert_eq!(got, vec![frame]);
    let body = got.pop().expect("one frame").body;
    assert_eq!(
        serde_json::from_value::<MetricsPush>(body).unwrap(),
        metrics
    );
    pins.assert_golden();
}
