//! The Access Gateway actor.
//!
//! One `AgwActor` hosts all of a gateway's services (§3.1's Figure 4):
//! the RAN-specific termination modules (MME for S1AP/4G, AMF for
//! NGAP/5G, AAA for WiFi RADIUS) on the left, and the generic functions
//! (subscriber management, session/policy management, data-plane
//! configuration, device management, telemetry) on the right. Local
//! inter-service communication is modeled as zero-latency calls (in real
//! Magma it is loopback gRPC); everything that crosses a machine boundary
//! — S1AP from eNodeBs, RPC to the orchestrator/FeG, RADIUS from APs —
//! crosses the simulated network with its losses and delays.
//!
//! Control-plane work is charged to the host's CPU: the attach pipeline
//! costs `attach_auth + attach_session` core time gated by the MME's
//! parallelism, and user-plane forwarding costs core time proportional to
//! bytes. These are what saturate in Figures 5–8.

use crate::checkpoint::{self, AgwCheckpoint};
use crate::config::AgwConfig;
use crate::flows;
use crate::mobilityd::IpPool;
use crate::msgs::{AgwHandle, FluidDemand, FluidGrant, FLUID_TICK};
use crate::pipelined;
use crate::sessiond::{AccessTech, SessionManager};
use magma_dataplane::{DesiredState, Pipeline};
use magma_net::{lp_encode, ports, Acceptor, Edge, SockCmd, SockEvent, StreamHandle, MAX_LP_LEN};
use magma_orc8r::proto as orc8r_proto;
use magma_rpc::{RpcClient, RpcClientEvent};
use magma_sim::eventd::kind as event_kind;
use magma_sim::{downcast, try_downcast, Actor, ActorId, Ctx, Event, Severity, SimDuration, Span};
use magma_subscriber::{DbSnapshot, DbSync, SubscriberDb};
use magma_wire::aka::{Kasme, Rand, Res};
use magma_wire::nas::{EmmCause, NasMessage};
use magma_wire::radius::{acct_status, attr, Attribute, RadiusCode, RadiusPacket};
use magma_wire::s1ap::{EnbUeId, MmeUeId, S1apMessage};
use magma_wire::{Guti, Imsi, Teid};
use rand::RngCore;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How long a call to the orchestrator (this actor's and metricsd's)
/// waits for its answer. FeG calls keep the client's default.
pub(crate) const ORC8R_DEADLINE: SimDuration = SimDuration::from_secs(12);

/// Runtime-state checkpoint cadence (§3.3).
const CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Abort an attach procedure stuck longer than this.
const UE_PROC_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// User-plane backlog cap, in ticks of work, before excess is dropped.
const UP_BACKLOG_TICKS: u32 = 3;

// Timer tags.
const T_FLUID: u64 = 1;
const T_CHECKIN: u64 = 2;
const T_RPC: u64 = 3;
const T_CHECKPOINT: u64 = 4;
const T_UE_BASE: u64 = 1_000_000;

// CPU job tags.
const C_AUTH: u64 = 1;
const C_SESSION: u64 = 2;
const C_UP: u64 = 3;
const C_MISC: u64 = 4;
const C_DETACH: u64 = 5;
const C_HANDOVER: u64 = 6;

/// The peer an RPC client talks to. Each client numbers its calls from 1,
/// so a call is known by its peer and its id together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Peer {
    Orc8r,
    Feg,
}

/// Which RPC call an outstanding client request belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CallKind {
    Bootstrap,
    Checkin,
    Checkpoint,
    Credit { session: u64 },
    CreditReport,
    FegAuth { ue: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UeState {
    /// Waiting for the auth CPU stage (or FeG vectors).
    PendingAuth,
    /// Authentication Request sent; awaiting the UE's response.
    AwaitAuthResp,
    /// Security Mode Command sent; awaiting completion.
    AwaitSmc,
    /// Waiting for the session CPU stage.
    PendingSession,
    /// Initial Context Setup sent; awaiting eNB/UE confirmation.
    AwaitCtxSetup,
    Active,
}

struct UeCtx {
    enb_ue_id: EnbUeId,
    conn: StreamHandle,
    imsi: Imsi,
    tech: AccessTech,
    state: UeState,
    xres: Option<Res>,
    kasme: Option<Kasme>,
    /// NAS security established (post Security Mode Complete): downlink
    /// is integrity-protected and uplink must be.
    secured: bool,
    guti: u64,
    session_id: Option<u64>,
    /// Stage timing for the attach procedure (S1AP → NAS auth → session
    /// setup → bearer install); dropped unrecorded if the attach fails.
    span: Option<Span>,
}

enum MmeWork {
    Auth(u32),
    Session(u32),
    Detach(DetachJob),
    PathSwitch(PathSwitchJob),
}

/// CPU-gated detach teardown: the span began when the Detach Request
/// arrived, so MME queue wait counts toward the procedure, mirroring
/// the attach span.
struct DetachJob {
    ue: u32,
    span: Span,
}

/// CPU-gated S1AP Path Switch (X2 handover completion at the MME).
struct PathSwitchJob {
    ue: u32,
    /// Stream to the *target* eNodeB (the path switch requester).
    conn: StreamHandle,
    new_enb_ue_id: EnbUeId,
    new_enb_teid: Teid,
    span: Span,
}

/// What the gateway knows of one eNodeB's (or gNB's) S1/NGAP stream.
struct RanConn {
    enb_id: Option<u32>,
    tech: AccessTech,
}

/// The access gateway.
pub struct AgwActor {
    cfg: AgwConfig,
    shared: AgwHandle,
    // Generic functions.
    db: SubscriberDb,
    pool: IpPool,
    sessions: SessionManager,
    /// pipelined's full desired state, kept equal to
    /// `pipelined::compile(&sessions)` by recompiling touched sessions.
    desired: DesiredState,
    pipeline: Pipeline,
    // MME/AMF.
    ue_ctxs: BTreeMap<u32, UeCtx>,
    by_guti: BTreeMap<u64, u32>,
    next_mme_ue_id: u32,
    next_guti: u64,
    ran_conns: Acceptor<MAX_LP_LEN, RanConn>,
    mme_inflight: u32,
    mme_queue: VecDeque<MmeWork>,
    // User plane.
    pending_demands: Vec<FluidDemand>,
    /// Per RAN element, each TEID it last demanded for with its session
    /// cookie (`u64::MAX`: none). Cleared on every change to the TEID →
    /// session index, so a plan whose TEIDs match a demand resolves it.
    up_plans: BTreeMap<ActorId, Vec<(Teid, u64)>>,
    up_inflight_bytes: u64,
    up_cores: u32,
    /// In-flight per-tick forwarding batches, keyed by batch id. The
    /// per-core chunks reference entries here instead of sharing an
    /// `Rc<RefCell<..>>`.
    up_batches: BTreeMap<u64, UpBatchState>,
    next_up_batch: u64,
    /// Edge trigger for the dataplane-overload event: set on the first
    /// tick that drops bytes, cleared on a drop-free tick.
    up_overloaded: bool,
    // Orchestrator / federation clients.
    orc8r: Option<RpcClient>,
    feg: Option<RpcClient>,
    cert: Option<u64>,
    calls: BTreeMap<(Peer, u64), CallKind>,
    /// Sessions with a `CallKind::Credit` call in `calls` (an orc8r call).
    credit_inflight: BTreeSet<u64>,
    /// Sessions whose last credit call failed, to ask again under the
    /// same request number once the orchestrator answers a call.
    credit_unanswered: BTreeSet<u64>,
    /// The orchestrator stream (re)opened and nothing has come back on
    /// it yet. Its first answer emits `orc8r_connected`: the stack opens
    /// a stream locally, before any frame crosses the backhaul.
    orc8r_unheard: bool,
    // WiFi accounting: session id by RADIUS Acct-Session-Id.
    wifi_sessions: BTreeMap<String, u64>,
}

/// Per-RAN-element grant list: `(tunnel, uplink, downlink)` bytes.
type RanGrants = Vec<(ActorId, Vec<(Teid, u64, u64)>)>;

struct UpBatch {
    grants_by_ran: RanGrants,
    session_usage: Vec<(u64, u64, u64)>,
}

/// One per-core slice of a tick's forwarding work. The batch's grants and
/// accounting fire when the last chunk finishes; batch state lives in
/// `AgwActor::up_batches` keyed by id, so the chunk payload is plain
/// data.
struct UpChunk {
    bytes: u64,
    batch_id: u64,
}

struct UpBatchState {
    remaining: u32,
    batch: UpBatch,
}

impl AgwActor {
    pub fn new(cfg: AgwConfig, shared: AgwHandle) -> Self {
        let pool = IpPool::new(cfg.ip_base, cfg.ip_size);
        Self::build(cfg, shared, SubscriberDb::new(), pool, SessionManager::new(), None)
    }

    /// Restore a backup instance from a checkpoint (§3.3). Sessions, IP
    /// leases, the config replica, and the bootstrap cert survive;
    /// mid-procedure UE contexts do not.
    pub fn restore(cfg: AgwConfig, shared: AgwHandle, cp: AgwCheckpoint) -> Self {
        let mut db = SubscriberDb::new();
        db.apply_snapshot(cp.db);
        Self::build(cfg, shared, db, cp.pool, cp.sessions, cp.cert)
    }

    /// Restore a backup instance from the copy the orchestrator stores
    /// (`Orc8rState::checkpoints`): runtime state only. The replica
    /// starts empty but for the SQN marks, and the instance's ordinary
    /// check-in pulls the configuration.
    pub fn restore_from_wire(
        cfg: AgwConfig,
        shared: AgwHandle,
        stored: serde_json::Value,
    ) -> Result<Self, serde::Error> {
        let (cp, sqn) = checkpoint::from_wire(stored)?;
        let mut agw = Self::restore(cfg, shared, cp);
        agw.db.seed_sqn_marks(sqn);
        Ok(agw)
    }

    fn build(
        cfg: AgwConfig,
        shared: AgwHandle,
        db: SubscriberDb,
        pool: IpPool,
        sessions: SessionManager,
        cert: Option<u64>,
    ) -> Self {
        let ran_conns = Acceptor::new(cfg.stack);
        AgwActor {
            cfg,
            shared,
            db,
            pool,
            sessions,
            desired: DesiredState::default(),
            pipeline: Pipeline::new(),
            ue_ctxs: BTreeMap::new(),
            by_guti: BTreeMap::new(),
            next_mme_ue_id: 1,
            next_guti: 1,
            ran_conns,
            mme_inflight: 0,
            mme_queue: VecDeque::new(),
            pending_demands: Vec::new(),
            up_plans: BTreeMap::new(),
            up_inflight_bytes: 0,
            up_cores: 1,
            up_batches: BTreeMap::new(),
            next_up_batch: 0,
            up_overloaded: false,
            orc8r: None,
            feg: None,
            cert,
            calls: BTreeMap::new(),
            credit_inflight: BTreeSet::new(),
            credit_unanswered: BTreeSet::new(),
            orc8r_unheard: false,
            wifi_sessions: BTreeMap::new(),
        }
    }

    /// The session table and the live data plane, for tests that hold
    /// one against the other.
    pub fn dataplane_view(&mut self) -> (&SessionManager, &mut Pipeline) {
        (&self.sessions, &mut self.pipeline)
    }

    /// Seed the local subscriber replica directly (pre-provisioning, as
    /// the paper's testbed does with emulated SIMs).
    pub fn preprovision(&mut self, snapshot: DbSnapshot) {
        self.db.apply_snapshot(snapshot);
    }

    /// Name of a gateway-prefixed `Registry` instrument: counters,
    /// gauges and histograms ship to orc8r, series stay local. Names
    /// here are audited by `magma-lint` against the docs/OBSERVABILITY.md
    /// inventory.
    fn metric(&self, suffix: &str) -> String {
        format!("{}.{}", self.cfg.id, suffix)
    }

    // ---- MME CPU gating ----

    fn submit_mme(&mut self, ctx: &mut Ctx<'_>, work: MmeWork) {
        self.mme_queue.push_back(work);
        self.pump_mme(ctx);
    }

    fn pump_mme(&mut self, ctx: &mut Ctx<'_>) {
        while self.mme_inflight < self.cfg.profile.mme_parallelism {
            let Some(work) = self.mme_queue.pop_front() else {
                break;
            };
            self.mme_inflight += 1;
            let (tag, cost, payload): (u64, SimDuration, magma_sim::Payload) = match work {
                MmeWork::Auth(ue) => (C_AUTH, self.cfg.profile.attach_auth, Box::new(ue)),
                MmeWork::Session(ue) => (C_SESSION, self.cfg.profile.attach_session, Box::new(ue)),
                MmeWork::Detach(job) => (C_DETACH, self.cfg.profile.nas_msg, Box::new(job)),
                MmeWork::PathSwitch(job) => (C_HANDOVER, self.cfg.profile.nas_msg, Box::new(job)),
            };
            ctx.exec(self.cfg.host, &self.cfg.cp_group, cost, tag, payload);
        }
    }

    fn charge_misc(&mut self, ctx: &mut Ctx<'_>) {
        ctx.exec(
            self.cfg.host,
            &self.cfg.cp_group,
            self.cfg.profile.nas_msg,
            C_MISC,
            Box::new(()),
        );
    }

    // ---- S1AP/NAS handling ----

    fn send_s1ap(&mut self, ctx: &mut Ctx<'_>, conn: StreamHandle, msg: &S1apMessage) {
        let bytes = lp_encode(&msg.encode());
        self.ran_conns.send(ctx, conn, &flows::AGW_S1AP_DL, bytes);
    }

    fn send_nas(&mut self, ctx: &mut Ctx<'_>, ue: u32, nas: NasMessage) {
        let Some(ctx_ue) = self.ue_ctxs.get(&ue) else {
            return;
        };
        // Integrity-protect downlink NAS once security is established.
        let nas = match (&ctx_ue.kasme, ctx_ue.secured) {
            (Some(kasme), true) => nas.secure(kasme),
            _ => nas,
        };
        let msg = S1apMessage::DownlinkNasTransport {
            enb_ue_id: ctx_ue.enb_ue_id,
            mme_ue_id: MmeUeId(ue),
            nas: nas.encode(),
        };
        let conn = ctx_ue.conn;
        self.send_s1ap(ctx, conn, &msg);
    }

    fn handle_s1ap(&mut self, ctx: &mut Ctx<'_>, conn: StreamHandle, msg: S1apMessage) {
        match msg {
            S1apMessage::S1SetupRequest { enb_id, .. } => {
                if let Some(rc) = self.ran_conns.get_mut(conn) {
                    rc.enb_id = Some(enb_id);
                }
                let name = self.cfg.id.clone();
                self.send_s1ap(ctx, conn, &S1apMessage::S1SetupResponse { mme_name: name });
            }
            S1apMessage::InitialUeMessage { enb_ue_id, nas } => {
                self.charge_misc(ctx);
                match NasMessage::decode(&nas) {
                    Ok(NasMessage::AttachRequest { imsi, .. }) => {
                        self.start_attach(ctx, conn, enb_ue_id, imsi);
                    }
                    Ok(NasMessage::ServiceRequest { guti }) => {
                        self.handle_service_request(ctx, conn, enb_ue_id, guti);
                    }
                    _ => {}
                }
            }
            S1apMessage::UplinkNasTransport {
                mme_ue_id, nas, ..
            } => {
                self.charge_misc(ctx);
                if let Ok(nas) = NasMessage::decode(&nas) {
                    self.handle_uplink_nas(ctx, mme_ue_id.0, nas);
                }
            }
            S1apMessage::InitialContextSetupResponse {
                mme_ue_id,
                enb_teid,
                ..
            } => {
                self.handle_ctx_setup_resp(ctx, mme_ue_id.0, enb_teid);
            }
            S1apMessage::UeContextReleaseComplete { mme_ue_id } => {
                self.ue_ctxs.remove(&mme_ue_id.0);
            }
            S1apMessage::PathSwitchRequest {
                mme_ue_id,
                new_enb_ue_id,
                new_enb_teid,
            } => {
                // Intra-AGW mobility: move the UE's S1 context to the
                // target eNodeB and repoint the downlink tunnel. The
                // switch is CPU-gated through the MME queue so handover
                // latency shows congestion, with a span over the wait.
                let ue = mme_ue_id.0;
                if self.ue_ctxs.contains_key(&ue) {
                    // Root the mobility trace at S1AP ingest (the source
                    // eNB has no earlier causal hop for the switch); the
                    // CPU wait and the dataplane repoint become its hops.
                    ctx.trace_start("path_switch");
                    let span = Span::begin(self.metric("mme.handover"), ctx.now());
                    self.submit_mme(
                        ctx,
                        MmeWork::PathSwitch(PathSwitchJob {
                            ue,
                            conn,
                            new_enb_ue_id,
                            new_enb_teid,
                            span,
                        }),
                    );
                }
            }
            _ => {}
        }
    }

    fn start_attach(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: StreamHandle,
        enb_ue_id: EnbUeId,
        imsi: Imsi,
    ) {
        let m = self.metric("mme.attach_start");
        ctx.registry().counter_add(&m, 1.0);
        let tech = self
            .ran_conns
            .get(conn)
            .map(|rc| rc.tech)
            .unwrap_or(AccessTech::Lte);

        // Admission: the subscriber must exist in the local replica (or
        // we must be federated).
        let known = self.db.get(imsi).map(|p| {
            p.active
                && match tech {
                    AccessTech::Lte => p.access.lte,
                    AccessTech::Nr5g => p.access.nr5g,
                    AccessTech::Wifi => p.access.wifi,
                }
        });
        if known != Some(true) && self.cfg.feg.is_none() {
            let cause = if known.is_none() {
                EmmCause::ImsiUnknown
            } else {
                EmmCause::IllegalUe
            };
            let msg = S1apMessage::DownlinkNasTransport {
                enb_ue_id,
                mme_ue_id: MmeUeId(0),
                nas: NasMessage::AttachReject { cause }.encode(),
            };
            self.send_s1ap(ctx, conn, &msg);
            let m = self.metric("mme.attach_reject");
            ctx.registry().counter_add(&m, 1.0);
            let gw = self.cfg.id.clone();
            ctx.emit_event(
                &gw,
                event_kind::ATTACH_FAILURE,
                Severity::Warning,
                &[
                    ("imsi", imsi.0.to_string()),
                    ("emm_cause", u32::from(cause.to_u8()).to_string()),
                    ("cause", format!("{cause:?}")),
                ],
            );
            return;
        }

        let ue = self.next_mme_ue_id;
        self.next_mme_ue_id += 1;
        self.ue_ctxs.insert(
            ue,
            UeCtx {
                enb_ue_id,
                conn,
                imsi,
                tech,
                state: UeState::PendingAuth,
                xres: None,
                kasme: None,
                secured: false,
                guti: 0,
                session_id: None,
                // 4G attaches record under the MME's span; 5G registrations
                // mirror the same stages under the AMF's (§ROADMAP "span
                // taxonomy growth"). Stage sets differ only in the first
                // leg: NGAP ingest for 5G, S1AP for 4G.
                span: Some(Span::begin(
                    if matches!(tech, AccessTech::Nr5g) {
                        self.metric("amf.register")
                    } else {
                        self.metric("mme.attach")
                    },
                    ctx.now(),
                )),
            },
        );
        ctx.timer_in(UE_PROC_TIMEOUT, T_UE_BASE + ue as u64);
        self.submit_mme(ctx, MmeWork::Auth(ue));
    }

    fn handle_service_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: StreamHandle,
        enb_ue_id: EnbUeId,
        guti: Guti,
    ) {
        // Known GUTI with a live session: re-establish the radio context.
        if let Some(&ue) = self.by_guti.get(&guti.0) {
            if let Some(uectx) = self.ue_ctxs.get_mut(&ue) {
                uectx.conn = conn;
                uectx.enb_ue_id = enb_ue_id;
                if let Some(sid) = uectx.session_id {
                    if let Some(s) = self.sessions.get(sid) {
                        let msg = S1apMessage::InitialContextSetupRequest {
                            enb_ue_id,
                            mme_ue_id: MmeUeId(ue),
                            agw_teid: s.ul_teid,
                            nas: NasMessage::AttachAccept {
                                guti,
                                ue_ip: s.ue_ip,
                                ambr_dl_kbps: 0,
                                ambr_ul_kbps: 0,
                            }
                            .encode(),
                        };
                        self.send_s1ap(ctx, conn, &msg);
                        return;
                    }
                }
            }
        }
        // Unknown (e.g., after AGW failover lost the volatile context):
        // tell the UE to re-attach.
        let msg = S1apMessage::DownlinkNasTransport {
            enb_ue_id,
            mme_ue_id: MmeUeId(0),
            nas: NasMessage::AttachReject {
                cause: EmmCause::ImsiUnknown,
            }
            .encode(),
        };
        self.send_s1ap(ctx, conn, &msg);
    }

    /// The auth CPU stage finished: produce a challenge (locally from the
    /// replicated HSS, or via the FeG in federated mode).
    fn auth_stage_done(&mut self, ctx: &mut Ctx<'_>, ue: u32) {
        let now = ctx.now();
        let Some(uectx) = self.ue_ctxs.get_mut(&ue) else {
            return;
        };
        // RAN-signalling stage ends here: initial message ingested, auth
        // vector computed; what follows is the NAS auth round trip. The
        // stage is named for the transport that carried it (NGAP for 5G,
        // S1AP for 4G) so the two spans mirror each other.
        let ran_stage = if matches!(uectx.tech, AccessTech::Nr5g) {
            "ngap"
        } else {
            "s1ap"
        };
        if let Some(span) = uectx.span.as_mut() {
            span.mark(ran_stage, now);
        }
        let imsi = uectx.imsi;
        if let Some(feg) = self.feg.as_mut() {
            if self.db.get(imsi).is_none() {
                // Federated subscriber: fetch vectors from the MNO HSS.
                // Roots a standalone S6a trace when the enclosing attach
                // was not sampled; inside a traced attach this is a no-op
                // and the round trip records as hops of the attach itself.
                ctx.trace_start("s6a_auth");
                let req = orc8r_proto::FegAuthRequest { imsi: imsi.0 };
                let id = feg.call(ctx, &orc8r_proto::flows::FEG_AUTH, req);
                self.calls.insert((Peer::Feg, id), CallKind::FegAuth { ue });
                return;
            }
        }
        let mut rand = [0u8; 16];
        ctx.rng().fill_bytes(&mut rand);
        match self.db.generate_auth_vector(imsi, Rand(rand)) {
            Some(v) => {
                if let Some(uectx) = self.ue_ctxs.get_mut(&ue) {
                    uectx.xres = Some(v.xres);
                    uectx.kasme = Some(v.kasme);
                    uectx.state = UeState::AwaitAuthResp;
                }
                self.send_nas(
                    ctx,
                    ue,
                    NasMessage::AuthenticationRequest {
                        rand: v.rand,
                        autn: v.autn,
                    },
                );
            }
            None => self.fail_attach(ctx, ue, EmmCause::ImsiUnknown),
        }
    }

    fn on_feg_vectors(
        &mut self,
        ctx: &mut Ctx<'_>,
        ue: u32,
        resp: orc8r_proto::FegAuthResponse,
    ) {
        // Vectors are back from the MNO HSS: end of the standalone S6a
        // procedure (label-guarded — inside an attach trace this no-ops
        // and the attach keeps recording through the NAS auth round).
        ctx.trace_finish_as("s6a_auth");
        let Some(v) = resp.vectors.into_iter().next() else {
            self.fail_attach(ctx, ue, EmmCause::AuthFailure);
            return;
        };
        if let Some(uectx) = self.ue_ctxs.get_mut(&ue) {
            uectx.xres = Some(v.xres);
            uectx.kasme = Some(v.kasme);
            uectx.state = UeState::AwaitAuthResp;
        }
        self.send_nas(
            ctx,
            ue,
            NasMessage::AuthenticationRequest {
                rand: v.rand,
                autn: v.autn,
            },
        );
    }

    fn handle_uplink_nas(&mut self, ctx: &mut Ctx<'_>, ue: u32, nas: NasMessage) {
        let Some(uectx) = self.ue_ctxs.get_mut(&ue) else {
            return;
        };
        // Strip (and verify) integrity protection. After security mode,
        // unprotected uplink signalling is rejected (anti-spoofing).
        let nas = match (&uectx.kasme, nas) {
            (Some(kasme), msg @ NasMessage::Secured { .. }) => {
                match msg.unsecure(kasme) {
                    Some(inner) => inner,
                    None => return,
                }
            }
            (None, NasMessage::Secured { .. }) => return,
            (_, msg) => {
                if self.ue_ctxs.get(&ue).map(|u| u.secured).unwrap_or(false) {
                    return;
                }
                msg
            }
        };
        let Some(uectx) = self.ue_ctxs.get_mut(&ue) else {
            return;
        };
        match (uectx.state, nas) {
            (UeState::AwaitAuthResp, NasMessage::AuthenticationResponse { res }) => {
                if uectx.xres == Some(res) {
                    uectx.state = UeState::AwaitSmc;
                    self.send_nas(ctx, ue, NasMessage::SecurityModeCommand { algorithm: 2 });
                } else {
                    self.fail_attach(ctx, ue, EmmCause::AuthFailure);
                }
            }
            (UeState::AwaitAuthResp, NasMessage::AuthenticationFailure { .. }) => {
                self.fail_attach(ctx, ue, EmmCause::AuthFailure);
            }
            (UeState::AwaitSmc, NasMessage::SecurityModeComplete) => {
                uectx.state = UeState::PendingSession;
                uectx.secured = uectx.kasme.is_some();
                // NAS auth stage ends: challenge + security mode round
                // trips are done; session setup begins.
                let now = ctx.now();
                if let Some(span) = uectx.span.as_mut() {
                    span.mark("nas_auth", now);
                }
                self.submit_mme(ctx, MmeWork::Session(ue));
            }
            (UeState::AwaitCtxSetup, NasMessage::AttachComplete) => {
                uectx.state = UeState::Active;
                let now = ctx.now();
                // Bearer install stage ends: the eNodeB confirmed the GTP
                // tunnel and the UE completed the attach.
                let span = uectx.span.take();
                if let Some(mut span) = span {
                    span.mark("bearer_install", now);
                    span.finish(ctx.registry());
                }
                let m = self.metric("mme.attach_accept");
                ctx.registry().counter_add(&m, 1.0);
            }
            (_, NasMessage::DetachRequest { guti }) => {
                self.begin_detach(ctx, ue, guti);
            }
            _ => {}
        }
    }

    /// The session CPU stage finished: allocate resources and wire the
    /// data plane.
    fn session_stage_done(&mut self, ctx: &mut Ctx<'_>, ue: u32) {
        let Some(uectx) = self.ue_ctxs.get(&ue) else {
            return;
        };
        if uectx.state != UeState::PendingSession {
            return;
        }
        let imsi = uectx.imsi;
        let tech = uectx.tech;
        let conn = uectx.conn;
        let enb_ue_id = uectx.enb_ue_id;

        let Some(ue_ip) = self.pool.allocate(imsi) else {
            let m = self.metric("mobilityd.alloc_fail");
            ctx.registry().counter_add(&m, 1.0);
            self.fail_attach(ctx, ue, EmmCause::Congestion);
            return;
        };
        let rule = self
            .db
            .effective_rules(imsi)
            .into_iter()
            .max_by_key(|r| r.priority)
            .unwrap_or_else(|| magma_policy::PolicyRule::unrestricted("default"));
        let online = rule.tracking == magma_policy::UsageTracking::Online;
        let ambr = self
            .db
            .get(imsi)
            .map(|p| p.ambr)
            .unwrap_or(magma_policy::Ambr::UNLIMITED);
        let ul_teid = self.sessions.alloc_teid();
        // A re-attach replaces the IMSI's old session; both are touched.
        let (sid, replaced) = self
            .sessions
            .create(imsi, tech, ue_ip, ul_teid, Teid(0), rule, ctx.now());
        self.up_plans.clear();

        let m = self.metric("sessiond.attach");
        ctx.registry().counter_add(&m, 1.0);

        let guti = self.next_guti;
        self.next_guti += 1;
        let now = ctx.now();
        if let Some(uectx) = self.ue_ctxs.get_mut(&ue) {
            uectx.guti = guti;
            uectx.session_id = Some(sid);
            uectx.state = UeState::AwaitCtxSetup;
            // Session setup stage ends: IP allocated, session created,
            // policy resolved; bearer install (ICS round trip) begins.
            if let Some(span) = uectx.span.as_mut() {
                span.mark("session_setup", now);
            }
        }
        self.by_guti.insert(guti, ue);

        if online {
            // Block traffic until the OCS grants a quota.
            if let Some(s) = self.sessions.get_mut(sid) {
                s.blocked = true;
            }
            self.ask_credit(ctx, sid);
        }
        self.reprogram_dataplane(ctx, &[sid, replaced.unwrap_or(sid)]);

        let accept = NasMessage::AttachAccept {
            guti: Guti(guti),
            ue_ip,
            ambr_dl_kbps: ambr.dl_kbps,
            ambr_ul_kbps: ambr.ul_kbps,
        };
        let accept = match self.ue_ctxs.get(&ue).and_then(|u| u.kasme.as_ref()) {
            Some(kasme) => accept.secure(kasme),
            None => accept,
        };
        let msg = S1apMessage::InitialContextSetupRequest {
            enb_ue_id,
            mme_ue_id: MmeUeId(ue),
            agw_teid: ul_teid,
            nas: accept.encode(),
        };
        self.send_s1ap(ctx, conn, &msg);
    }

    fn handle_ctx_setup_resp(&mut self, ctx: &mut Ctx<'_>, ue: u32, enb_teid: Teid) {
        let Some(uectx) = self.ue_ctxs.get(&ue) else {
            return;
        };
        if let Some(sid) = uectx.session_id {
            self.sessions.set_dl_teid(sid, enb_teid);
            self.reprogram_dataplane(ctx, &[sid]);
        }
    }

    /// Detach Request received: queue the teardown behind the MME's CPU
    /// like the attach stages, with a span covering queue wait + work.
    fn begin_detach(&mut self, ctx: &mut Ctx<'_>, ue: u32, _guti: Guti) {
        if !self.ue_ctxs.contains_key(&ue) {
            return;
        }
        let span = Span::begin(self.metric("mme.detach"), ctx.now());
        self.submit_mme(ctx, MmeWork::Detach(DetachJob { ue, span }));
    }

    /// The detach CPU stage finished: tear down the session, release the
    /// IP, and acknowledge the UE.
    fn finish_detach(&mut self, ctx: &mut Ctx<'_>, mut job: DetachJob) {
        let ue = job.ue;
        if let Some(uectx) = self.ue_ctxs.get(&ue) {
            let imsi = uectx.imsi;
            let guti = uectx.guti;
            let sid = uectx.session_id;
            if let Some(sid) = sid {
                self.finish_session(ctx, sid);
            }
            self.pool.release(imsi);
            self.by_guti.remove(&guti);
            self.send_nas(ctx, ue, NasMessage::DetachAccept);
            self.ue_ctxs.remove(&ue);
            self.reprogram_dataplane(ctx, sid.as_slice());
            let m = self.metric("mme.detach");
            ctx.registry().counter_add(&m, 1.0);
            let now = ctx.now();
            job.span.mark("teardown", now);
            job.span.finish(ctx.registry());
        }
    }

    /// The path-switch CPU stage finished: repoint the S1 context and the
    /// downlink tunnel at the target eNodeB.
    fn path_switch_done(&mut self, ctx: &mut Ctx<'_>, mut job: PathSwitchJob) {
        let ue = job.ue;
        let Some(uectx) = self.ue_ctxs.get_mut(&ue) else {
            // UE detached or was torn down while the switch was queued.
            return;
        };
        uectx.conn = job.conn;
        uectx.enb_ue_id = job.new_enb_ue_id;
        let sid = uectx.session_id;
        if let Some(sid) = sid {
            self.sessions.set_dl_teid(sid, job.new_enb_teid);
            self.reprogram_dataplane(ctx, &[sid]);
        }
        self.send_s1ap(
            ctx,
            job.conn,
            &S1apMessage::PathSwitchAck {
                mme_ue_id: MmeUeId(ue),
            },
        );
        let m = self.metric("mme.handover_ok");
        ctx.registry().counter_add(&m, 1.0);
        let now = ctx.now();
        job.span.mark("path_switch", now);
        job.span.finish(ctx.registry());
        // Ack is on the wire and the tunnel is repointed — semantic end
        // of the switch (guarded: a handover that rode in under an
        // attach trace must not finish the outer procedure).
        ctx.trace_finish_as("path_switch");
    }

    /// Remove a session, reporting any outstanding online credit.
    fn finish_session(&mut self, ctx: &mut Ctx<'_>, sid: u64) {
        if let Some(s) = self.sessions.remove(sid) {
            self.up_plans.clear();
            let m = self.metric("sessiond.closed");
            ctx.registry().counter_add(&m, 1.0);
            if let Some(credit) = &s.credit {
                let report = orc8r_proto::CreditReport {
                    imsi: s.imsi.0,
                    session_id: sid,
                    session_started_us: s.started.as_micros(),
                    used_bytes: credit.used,
                };
                if let Some(client) = self.orc8r.as_mut() {
                    let id = client.call(ctx, &orc8r_proto::flows::CREDIT_REPORT, report);
                    self.calls.insert((Peer::Orc8r, id), CallKind::CreditReport);
                }
            }
        }
    }

    fn fail_attach(&mut self, ctx: &mut Ctx<'_>, ue: u32, cause: EmmCause) {
        self.send_nas(ctx, ue, NasMessage::AttachReject { cause });
        let mut imsi = None;
        if let Some(uectx) = self.ue_ctxs.remove(&ue) {
            imsi = Some(uectx.imsi);
            self.pool.release(uectx.imsi);
            if let Some(sid) = uectx.session_id {
                self.finish_session(ctx, sid);
                self.reprogram_dataplane(ctx, &[sid]);
            }
            self.by_guti.remove(&uectx.guti);
        }
        let m = self.metric("mme.attach_reject");
        ctx.registry().counter_add(&m, 1.0);
        let gw = self.cfg.id.clone();
        let imsi_field = imsi.map(|i| i.0.to_string()).unwrap_or_default();
        ctx.emit_event(
            &gw,
            event_kind::ATTACH_FAILURE,
            Severity::Warning,
            &[
                ("imsi", imsi_field),
                ("emm_cause", u32::from(cause.to_u8()).to_string()),
                ("cause", format!("{cause:?}")),
            ],
        );
    }

    /// Hand the data plane the full desired state after the `touched`
    /// sessions were created, changed or removed (naming a session that
    /// did not change, or one twice, is harmless).
    fn reprogram_dataplane(&mut self, ctx: &mut Ctx<'_>, touched: &[u64]) {
        pipelined::recompile(&mut self.desired, &self.sessions, touched);
        self.pipeline
            .set_desired_for(&self.desired, touched.iter().copied());
        let m = self.metric("pipelined.reprogram");
        ctx.registry().counter_add(&m, 1.0);
    }

    // ---- WiFi AAA (RADIUS) ----

    fn handle_radius(
        &mut self,
        ctx: &mut Ctx<'_>,
        local_port: u16,
        src: magma_net::Endpoint,
        bytes: bytes::Bytes,
    ) {
        let Ok(pkt) = RadiusPacket::decode(&bytes) else {
            return;
        };
        self.charge_misc(ctx);
        match (local_port, pkt.code) {
            (ports::RADIUS_AUTH, RadiusCode::AccessRequest) => {
                let user = pkt
                    .get(attr::USER_NAME)
                    .map(|a| a.as_str())
                    .unwrap_or_default();
                let pass = pkt
                    .get(attr::USER_PASSWORD)
                    .map(|a| a.as_str())
                    .unwrap_or_default();
                let authed_imsi = if self.db.check_wifi_password(&user, &pass) {
                    self.db.by_wifi_username(&user).map(|s| s.imsi)
                } else {
                    None
                };
                let reply = if let Some(imsi) = authed_imsi {
                    let rule = self
                        .db
                        .effective_rules(imsi)
                        .into_iter()
                        .max_by_key(|r| r.priority)
                        .unwrap_or_else(|| magma_policy::PolicyRule::unrestricted("unrestricted"));
                    match self.pool.allocate(imsi) {
                        Some(ip) => {
                            let teid = self.sessions.alloc_teid();
                            let (sid, replaced) = self.sessions.create(
                                imsi,
                                AccessTech::Wifi,
                                ip,
                                teid,
                                Teid(0),
                                rule,
                                ctx.now(),
                            );
                            self.up_plans.clear();
                            if let Some(sess_id) = pkt.get(attr::ACCT_SESSION_ID) {
                                self.wifi_sessions.insert(sess_id.as_str(), sid);
                            } else {
                                self.wifi_sessions.insert(user.clone(), sid);
                            }
                            self.reprogram_dataplane(ctx, &[sid, replaced.unwrap_or(sid)]);
                            let m = self.metric("wifi.accept");
                            let now = ctx.now();
                            ctx.registry().record(&m, now, 1.0);
                            let teid_val = self
                                .sessions
                                .get(sid)
                                .map(|s| s.ul_teid.0)
                                .unwrap_or(0);
                            RadiusPacket::new(RadiusCode::AccessAccept, pkt.identifier)
                                .with_attr(Attribute::u32(attr::FRAMED_IP_ADDRESS, ip.0))
                                // Vendor attribute: tunnel id for the AP's
                                // fluid data path (see magma-ran::wifi).
                                .with_attr(Attribute::u32(200, teid_val))
                        }
                        None => RadiusPacket::new(RadiusCode::AccessReject, pkt.identifier),
                    }
                } else {
                    let m = self.metric("wifi.reject");
                    let now = ctx.now();
                    ctx.registry().record(&m, now, 1.0);
                    RadiusPacket::new(RadiusCode::AccessReject, pkt.identifier)
                };
                ctx.send_to(
                    self.cfg.stack,
                    &flows::AGW_RADIUS_REPLY,
                    Box::new(SockCmd::DgramSend {
                        src_port: local_port,
                        dst: src,
                        bytes: reply.encode(),
                    }),
                );
            }
            (ports::RADIUS_ACCT, RadiusCode::AccountingRequest) => {
                let status = pkt
                    .get(attr::ACCT_STATUS_TYPE)
                    .and_then(|a| a.as_u32())
                    .unwrap_or(0);
                let sess_key = pkt
                    .get(attr::ACCT_SESSION_ID)
                    .map(|a| a.as_str())
                    .unwrap_or_default();
                if status == acct_status::STOP {
                    if let Some(sid) = self.wifi_sessions.remove(&sess_key) {
                        self.finish_session(ctx, sid);
                        self.reprogram_dataplane(ctx, &[sid]);
                    }
                }
                let reply = RadiusPacket::new(RadiusCode::AccountingResponse, pkt.identifier);
                ctx.send_to(
                    self.cfg.stack,
                    &flows::AGW_RADIUS_REPLY,
                    Box::new(SockCmd::DgramSend {
                        src_port: local_port,
                        dst: src,
                        bytes: reply.encode(),
                    }),
                );
            }
            _ => {}
        }
    }

    // ---- User plane ----

    fn fluid_tick(&mut self, ctx: &mut Ctx<'_>) {
        // simprof scope: the user-plane tick is the hot path under load
        // (pipeline walk + capacity gate + telemetry sampling).
        let _fluid_scope = ctx.profile_scope("dataplane.fluid_tick");
        let now = ctx.now();
        let demands = std::mem::take(&mut self.pending_demands);
        if !demands.is_empty() {
            // Map TEIDs to session cookies: a RAN's plan holds while it
            // demands for the same TEIDs and no session came or went.
            let mut by_cookie: Vec<(u64, u64, u64)> = Vec::new();
            for d in &demands {
                let resolve = |&(t, ..): &(Teid, u64, u64)| {
                    (t, self.sessions.by_ul_teid(t).map_or(u64::MAX, |s| s.id))
                };
                let plan = self.up_plans.entry(d.from_ran).or_default();
                if !plan.iter().map(|p| p.0).eq(d.demands.iter().map(|x| x.0)) {
                    *plan = d.demands.iter().map(resolve).collect();
                }
                debug_assert_eq!(*plan, d.demands.iter().map(resolve).collect::<Vec<_>>());
                let plan = plan.iter().zip(&d.demands);
                by_cookie.extend(plan.map(|(&(_, c), &(_, ul, dl))| (c, ul, dl)));
            }
            let result = self.pipeline.fluid_tick(now, &by_cookie);
            let m = self.metric("dataplane.ul_bytes");
            ctx.registry().counter_add(&m, result.total_ul as f64);
            let m = self.metric("dataplane.dl_bytes");
            ctx.registry().counter_add(&m, result.total_dl as f64);

            // Capacity gate: total bytes beyond the backlog cap are
            // dropped (the AGW's NIC/CPU queue overflows).
            let tick_cap = self.cfg.profile.up_bytes_per_core_sec as f64
                * self.up_cores as f64
                * FLUID_TICK.as_secs_f64();
            let backlog_cap = (tick_cap * f64::from(UP_BACKLOG_TICKS)) as u64;
            let mut total: u64 = result.total_ul + result.total_dl;
            let mut scale = 1.0;
            if self.up_inflight_bytes + total > backlog_cap && total > 0 {
                let room = backlog_cap.saturating_sub(self.up_inflight_bytes);
                scale = room as f64 / total as f64;
                let m = self.metric("dataplane.dropped_bytes");
                ctx.registry().counter_add(&m, (total - room) as f64);
                if !self.up_overloaded {
                    self.up_overloaded = true;
                    let gw = self.cfg.id.clone();
                    ctx.emit_event(
                        &gw,
                        event_kind::DATAPLANE_OVERLOAD,
                        Severity::Warning,
                        &[("dropped_bytes", (total - room).to_string())],
                    );
                }
                total = room;
            } else {
                self.up_overloaded = false;
            }
            if total > 0 || !result.grants.is_empty() {
                // Build per-RAN grant lists and session usage; grants come
                // back in demand order.
                let mut grants = result.grants.iter();
                let mut session_usage = Vec::new();
                let grants_by_ran: RanGrants = demands
                    .iter()
                    .map(|d| {
                        let lst = d.demands.iter().zip(grants.by_ref());
                        let lst = lst.map(|(&(teid, ..), &(cookie, ul, dl))| {
                            let ul = (ul as f64 * scale) as u64;
                            let dl = (dl as f64 * scale) as u64;
                            if cookie != u64::MAX && (ul > 0 || dl > 0) {
                                session_usage.push((cookie, ul, dl));
                            }
                            (teid, ul, dl)
                        });
                        (d.from_ran, lst.collect())
                    })
                    .collect();
                let batch = UpBatch {
                    grants_by_ran,
                    session_usage,
                };
                self.up_inflight_bytes += total;
                // Split the tick's forwarding work across the user-plane
                // cores so they can serve it concurrently (one softirq
                // context per core, as OVS does).
                let k = self.up_cores.max(1) as u64;
                let chunk_bytes = total / k;
                let batch_id = self.next_up_batch;
                self.next_up_batch += 1;
                self.up_batches.insert(
                    batch_id,
                    UpBatchState {
                        remaining: k as u32,
                        batch,
                    },
                );
                for i in 0..k {
                    let bytes = if i == k - 1 {
                        total - chunk_bytes * (k - 1)
                    } else {
                        chunk_bytes
                    };
                    let demand = SimDuration::from_secs_f64(
                        bytes as f64 / self.cfg.profile.up_bytes_per_core_sec as f64,
                    );
                    ctx.exec(
                        self.cfg.host,
                        &self.cfg.up_group,
                        demand.max(SimDuration(1)),
                        C_UP,
                        Box::new(UpChunk { bytes, batch_id }),
                    );
                }
            }
        }

        // Telemetry samples.
        let m = self.metric("sessiond.sessions");
        ctx.registry().gauge_set(&m, self.sessions.len() as f64);
        let m = self.metric("mme.cp_queue");
        ctx.registry().gauge_set(&m, self.mme_queue.len() as f64);
        let m = self.metric("mobilityd.ips_in_use");
        ctx.registry().gauge_set(&m, self.pool.in_use() as f64);
        self.pipeline.observe_into(ctx.registry(), &self.cfg.id);
        {
            let mut sh = self.shared.borrow_mut();
            sh.active_sessions = self.sessions.len();
            sh.connected_enbs = self.ran_conns.iter().filter(|(_, c)| c.enb_id.is_some()).count();
            sh.last_db_version = self.db.version;
        }
        ctx.timer_in(FLUID_TICK, T_FLUID);
    }

    fn up_chunk_done(&mut self, ctx: &mut Ctx<'_>, chunk: UpChunk) {
        self.up_inflight_bytes = self.up_inflight_bytes.saturating_sub(chunk.bytes);
        let now = ctx.now();
        let m = self.metric("dataplane.tp_bytes");
        ctx.registry().record(&m, now, chunk.bytes as f64);
        let done = match self.up_batches.get_mut(&chunk.batch_id) {
            Some(st) => {
                st.remaining = st.remaining.saturating_sub(1);
                st.remaining == 0
            }
            None => false,
        };
        if !done {
            return;
        }
        let Some(UpBatchState { batch, .. }) = self.up_batches.remove(&chunk.batch_id) else {
            return;
        };
        for (ran, grants) in batch.grants_by_ran {
            ctx.send_to(ran, &flows::FLUID_GRANT, Box::new(FluidGrant { grants }));
        }
        // Session accounting: tiered policies + online credit.
        let mut reprogram = Vec::new();
        let mut credit_requests = Vec::new();
        for (cookie, ul, dl) in batch.session_usage {
            let outcome = self.sessions.on_usage(cookie, now, ul, dl);
            if outcome.limit_changed || outcome.blocked_changed {
                reprogram.push(cookie);
            }
            if outcome.wants_credit {
                credit_requests.push(cookie);
            }
        }
        let credit = self.calls.iter().filter_map(|(call, kind)| match (call, kind) {
            ((Peer::Orc8r, _), CallKind::Credit { session }) => Some(*session),
            _ => None,
        });
        debug_assert_eq!(self.credit_inflight, credit.collect());
        for sid in credit_requests {
            self.ask_credit(ctx, sid);
        }
        if !reprogram.is_empty() {
            self.reprogram_dataplane(ctx, &reprogram);
        }
    }

    /// Ask the OCS for a session's next quota under the session's request
    /// number, unless a credit call for it is outstanding (one per
    /// session).
    fn ask_credit(&mut self, ctx: &mut Ctx<'_>, sid: u64) {
        let Some(s) = self.sessions.get(sid) else {
            return;
        };
        if self.credit_inflight.contains(&sid) {
            return;
        }
        let req = orc8r_proto::CreditRequest {
            imsi: s.imsi.0,
            session_id: sid,
            session_started_us: s.started.as_micros(),
            request_number: s.credit.as_ref().map_or(0, |c| c.request_number),
        };
        if let Some(client) = self.orc8r.as_mut() {
            let id = client.call(ctx, &orc8r_proto::flows::CREDIT_REQUEST, req);
            self.calls.insert((Peer::Orc8r, id), CallKind::Credit { session: sid });
            self.credit_inflight.insert(sid);
        }
    }

    // ---- Orchestrator sync (magmad) ----

    /// Whether a call of this kind is still waiting for its answer.
    fn awaiting(&self, kind: CallKind) -> bool {
        self.calls.values().any(|k| *k == kind)
    }

    fn do_checkin(&mut self, ctx: &mut Ctx<'_>) {
        let Some(cert) = self.cert else {
            // Not bootstrapped yet: ask again, unless a bootstrap is still
            // waiting for its answer.
            if !self.awaiting(CallKind::Bootstrap) {
                self.do_bootstrap(ctx);
            }
            return;
        };
        let enbs: Vec<u32> = self
            .ran_conns
            .iter()
            .filter_map(|(_, c)| c.enb_id)
            .collect();
        let mut metrics = std::collections::BTreeMap::new();
        for (key, counter) in [
            ("attach.start", "mme.attach_start"),
            ("attach.accept", "mme.attach_accept"),
            ("attach.reject", "mme.attach_reject"),
        ] {
            let v = ctx.registry().counter(&self.metric(counter));
            metrics.insert(key.to_string(), v);
        }
        let req = orc8r_proto::CheckinRequest {
            agw_id: self.cfg.id.clone(),
            cert,
            db_version: self.db.version,
            enbs,
            active_sessions: self.sessions.len() as u64,
            metrics,
        };
        if let Some(client) = self.orc8r.as_mut() {
            let id = client.call(ctx, &orc8r_proto::flows::CHECKIN, req);
            self.calls.insert((Peer::Orc8r, id), CallKind::Checkin);
        }
    }

    fn do_bootstrap(&mut self, ctx: &mut Ctx<'_>) {
        let req = orc8r_proto::BootstrapRequest {
            agw_id: self.cfg.id.clone(),
            hw_token: self.cfg.hw_token,
        };
        if let Some(client) = self.orc8r.as_mut() {
            let id = client.call(ctx, &orc8r_proto::flows::BOOTSTRAP, req);
            self.calls.insert((Peer::Orc8r, id), CallKind::Bootstrap);
        }
    }

    fn take_checkpoint(&mut self, ctx: &mut Ctx<'_>) {
        // Drift guard: a session change that forgot to name its sid.
        debug_assert_eq!(self.desired, pipelined::compile(&self.sessions));
        // The previous checkpoint's replica copy is refreshed in place (rows
        // compared, not versions: attaches move SQNs); the rest of it is
        // dropped first, so one copy of the sessions is alive, not two. No
        // previous checkpoint, or one a reader took, means a full copy.
        let previous = self.shared.borrow_mut().checkpoint.take();
        let mut db = previous.map(|cp| cp.db).unwrap_or_default();
        self.db.snapshot_into(&mut db);
        debug_assert_eq!(db, self.db.snapshot());
        let cp = AgwCheckpoint {
            agw_id: self.cfg.id.clone(),
            taken_at_us: ctx.now().as_micros(),
            sessions: self.sessions.clone(),
            pool: self.pool.clone(),
            db,
            cert: self.cert,
        };
        // Publish locally (the backup instance's source) and upload the
        // runtime state to the orchestrator when connected. One upload is
        // in flight at a time: each carries the full runtime state, so one
        // skipped behind an unanswered upload loses nothing, and a drain
        // after a partition carries one checkpoint, not a backlog.
        let uploading = self.awaiting(CallKind::Checkpoint);
        if let Some(client) = self.orc8r.as_mut() {
            if client.is_connected() && !uploading {
                // Streamed from the checkpoint as it stands; no tree.
                let sqn = self.db.sqn_marks();
                let push = orc8r_proto::CheckpointPushRef {
                    agw_id: &cp.agw_id,
                    state: &cp.wire(&sqn),
                };
                let id = client.call(ctx, &orc8r_proto::flows::CHECKPOINT, push);
                self.calls.insert((Peer::Orc8r, id), CallKind::Checkpoint);
            }
        }
        self.shared.borrow_mut().checkpoint = Some(cp);
        ctx.timer_in(CHECKPOINT_INTERVAL, T_CHECKPOINT);
    }

    fn handle_rpc_events(&mut self, ctx: &mut Ctx<'_>, peer: Peer, events: Vec<RpcClientEvent>) {
        for e in events {
            let answered = matches!(e, RpcClientEvent::Response { .. } | RpcClientEvent::Push { .. });
            if peer == Peer::Orc8r && answered && self.orc8r_unheard {
                self.orc8r_unheard = false;
                let gw = self.cfg.id.clone();
                ctx.emit_event(&gw, event_kind::ORC8R_CONNECTED, Severity::Info, &[]);
            }
            match e {
                RpcClientEvent::Response { id, body } => {
                    let Some(kind) = self.calls.remove(&(peer, id)) else {
                        continue;
                    };
                    if peer == Peer::Orc8r {
                        // The orchestrator answers again: ask once more
                        // for the credit calls that passed their deadline.
                        // The OCS may have granted them anyway, and then
                        // answers the same number from its store.
                        for sid in std::mem::take(&mut self.credit_unanswered) {
                            self.ask_credit(ctx, sid);
                        }
                    }
                    match kind {
                        CallKind::Bootstrap => {
                            if let Ok(resp) =
                                serde_json::from_value::<orc8r_proto::BootstrapResponse>(body)
                            {
                                self.cert = Some(resp.cert);
                                self.do_checkin(ctx);
                            }
                        }
                        CallKind::Checkin => {
                            if let Ok(resp) =
                                serde_json::from_value::<orc8r_proto::CheckinResponse>(body)
                            {
                                if resp.sync.is_some_and(|sync| self.db.apply_sync(sync)) {
                                    let m = self.metric("config.sync");
                                    let now = ctx.now();
                                    ctx.registry().record(&m, now, 1.0);
                                }
                            }
                        }
                        CallKind::Credit { session } => {
                            self.credit_inflight.remove(&session);
                            self.credit_unanswered.remove(&session);
                            if let Ok(resp) =
                                serde_json::from_value::<orc8r_proto::CreditResponse>(body)
                            {
                                if resp.denied {
                                    if let Some(s) = self.sessions.get_mut(session) {
                                        s.blocked = true;
                                    }
                                } else {
                                    self.sessions
                                        .refill_credit(session, resp.granted, resp.is_final);
                                }
                                self.reprogram_dataplane(ctx, &[session]);
                            }
                        }
                        CallKind::FegAuth { ue } => {
                            match serde_json::from_value::<orc8r_proto::FegAuthResponse>(body) {
                                Ok(resp) => self.on_feg_vectors(ctx, ue, resp),
                                Err(_) => self.fail_attach(ctx, ue, EmmCause::AuthFailure),
                            }
                        }
                        CallKind::Checkpoint | CallKind::CreditReport => {}
                    }
                }
                RpcClientEvent::Failed { id, .. } => {
                    let Some(kind) = self.calls.remove(&(peer, id)) else {
                        continue;
                    };
                    match kind {
                        // Headless operation: config sync failures are
                        // tolerated; we keep serving from the replica.
                        CallKind::Checkin | CallKind::Bootstrap => {}
                        CallKind::Credit { session } => {
                            self.credit_inflight.remove(&session);
                            self.credit_unanswered.insert(session);
                            // CAP trade-off (§3.2): allow the session to
                            // run on stale credit rather than blocking on
                            // an unreachable OCS.
                            if let Some(s) = self.sessions.get_mut(session) {
                                if s.blocked {
                                    s.blocked = false;
                                }
                            }
                            self.reprogram_dataplane(ctx, &[session]);
                        }
                        CallKind::FegAuth { ue } => {
                            self.fail_attach(ctx, ue, EmmCause::NetworkFailure)
                        }
                        CallKind::Checkpoint | CallKind::CreditReport => {}
                    }
                }
                RpcClientEvent::Push {
                    method, body, ..
                } => {
                    if method == orc8r_proto::methods::PUSH_SUBSCRIBERS {
                        let sync = serde_json::from_value::<DbSync>(body);
                        if sync.is_ok_and(|sync| self.db.apply_sync(sync)) {
                            let m = self.metric("config.push");
                            let now = ctx.now();
                            ctx.registry().record(&m, now, 1.0);
                        }
                    }
                }
                RpcClientEvent::Connected => {
                    if peer == Peer::Orc8r {
                        self.orc8r_unheard = true;
                    }
                }
                RpcClientEvent::Disconnected => {
                    if peer == Peer::Orc8r {
                        let gw = self.cfg.id.clone();
                        ctx.emit_event(&gw, event_kind::ORC8R_DISCONNECTED, Severity::Warning, &[]);
                    }
                }
            }
        }
    }

    fn handle_sock_event(&mut self, ctx: &mut Ctx<'_>, ev: SockEvent) {
        // Offer to the RPC clients first.
        let ev = if let Some(client) = self.orc8r.as_mut() {
            match client.try_handle(ctx, ev) {
                Ok(events) => {
                    self.handle_rpc_events(ctx, Peer::Orc8r, events);
                    return;
                }
                Err(ev) => ev,
            }
        } else {
            ev
        };
        let ev = if let Some(client) = self.feg.as_mut() {
            match client.try_handle(ctx, ev) {
                Ok(events) => {
                    self.handle_rpc_events(ctx, Peer::Feg, events);
                    return;
                }
                Err(ev) => ev,
            }
        } else {
            ev
        };

        let mut msgs = Vec::new();
        let accept = |port, _| {
            let tech = match port {
                ports::S1AP => AccessTech::Lte,
                ports::NGAP => AccessTech::Nr5g,
                _ => return None,
            };
            Some(RanConn { enb_id: None, tech })
        };
        let edge = self.ran_conns.on_event(ctx, ev, accept, |_, m| {
            msgs.extend(S1apMessage::decode(m).ok());
        });
        match edge {
            Ok(Edge::Opened(_)) => {}
            Ok(Edge::Recv(conn)) => {
                for s1ap in msgs {
                    self.handle_s1ap(ctx, conn, s1ap);
                }
            }
            Ok(Edge::Closed(handle, _)) => {
                // Drop volatile UE contexts riding that connection.
                let mut gone: Vec<u32> = self
                    .ue_ctxs
                    .iter()
                    .filter(|(_, u)| u.conn == handle)
                    .map(|(id, _)| *id)
                    .collect();
                gone.sort_unstable();
                let gw = self.cfg.id.clone();
                for ue in gone {
                    if let Some(uectx) = self.ue_ctxs.remove(&ue) {
                        if let Some(sid) = uectx.session_id {
                            ctx.emit_event(
                                &gw,
                                event_kind::BEARER_DROP,
                                Severity::Warning,
                                &[
                                    ("imsi", uectx.imsi.0.to_string()),
                                    ("session_id", sid.to_string()),
                                    ("reason", "s1_conn_lost".to_string()),
                                ],
                            );
                        }
                    }
                }
            }
            Err(SockEvent::DgramRecv {
                local_port,
                src,
                bytes,
            }) => {
                self.handle_radius(ctx, local_port, src, bytes);
            }
            Err(_) => {}
        }
    }
}

impl Actor for AgwActor {
    fn dispatch(&self) -> Option<&'static magma_sim::Dispatch> {
        Some(&crate::flows::AGW_DISPATCH)
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.id();
                // Discover how many cores serve the user plane (for the
                // backlog cap).
                // The host spec isn't directly readable here; default to
                // a conservative single core and let the utilization
                // report show the truth. Callers can widen via
                // `set_up_cores` before adding the actor.
                for port in [ports::S1AP, ports::NGAP] {
                    self.ran_conns.listen(ctx, port);
                }
                for port in [ports::RADIUS_AUTH, ports::RADIUS_ACCT] {
                    ctx.send_to(
                        self.cfg.stack,
                        &magma_net::flows::SOCK_CMD,
                        Box::new(SockCmd::ListenDgram { port, owner: me }),
                    );
                }
                if let Some(ep) = self.cfg.orc8r {
                    self.orc8r =
                        Some(RpcClient::new(self.cfg.stack, ep).with_deadline(ORC8R_DEADLINE));
                    self.do_bootstrap(ctx);
                    ctx.timer_in(orc8r_proto::CHECKIN_INTERVAL, T_CHECKIN);
                    ctx.send_self(&flows::AGW_RPC_TICK, SimDuration::from_millis(250), T_RPC);
                }
                if let Some(ep) = self.cfg.feg {
                    self.feg = Some(RpcClient::new(self.cfg.stack, ep));
                    if self.cfg.orc8r.is_none() {
                        ctx.send_self(&flows::AGW_RPC_TICK, SimDuration::from_millis(250), T_RPC);
                    }
                }
                // Rebuild the data plane from restored sessions, if any:
                // the one full compile and full walk.
                self.desired = pipelined::compile(&self.sessions);
                self.pipeline.set_desired(&self.desired);
                let m = self.metric("pipelined.reprogram");
                ctx.registry().counter_add(&m, 1.0);
                ctx.timer_in(FLUID_TICK, T_FLUID);
                ctx.timer_in(CHECKPOINT_INTERVAL, T_CHECKPOINT);
            }
            Event::Timer { tag } => match tag {
                T_FLUID => self.fluid_tick(ctx),
                T_CHECKIN => {
                    self.do_checkin(ctx);
                    ctx.timer_in(orc8r_proto::CHECKIN_INTERVAL, T_CHECKIN);
                }
                T_RPC => {
                    if let Some(client) = self.orc8r.as_mut() {
                        let evs = client.on_tick(ctx);
                        self.handle_rpc_events(ctx, Peer::Orc8r, evs);
                    }
                    if let Some(client) = self.feg.as_mut() {
                        let evs = client.on_tick(ctx);
                        self.handle_rpc_events(ctx, Peer::Feg, evs);
                    }
                    ctx.send_self(&flows::AGW_RPC_TICK, SimDuration::from_millis(250), T_RPC);
                }
                T_CHECKPOINT => self.take_checkpoint(ctx),
                t if t >= T_UE_BASE => {
                    let ue = (t - T_UE_BASE) as u32;
                    if let Some(uectx) = self.ue_ctxs.get(&ue) {
                        if uectx.state != UeState::Active {
                            let m = self.metric("mme.attach_timeout");
                            ctx.registry().counter_add(&m, 1.0);
                            self.fail_attach(ctx, ue, EmmCause::Congestion);
                        }
                    }
                }
                _ => {}
            },
            Event::CpuDone { tag, payload, .. } => match tag {
                C_AUTH => {
                    self.mme_inflight = self.mme_inflight.saturating_sub(1);
                    let ue = downcast::<u32>(payload, "agw auth");
                    self.auth_stage_done(ctx, ue);
                    self.pump_mme(ctx);
                }
                C_SESSION => {
                    self.mme_inflight = self.mme_inflight.saturating_sub(1);
                    let ue = downcast::<u32>(payload, "agw session");
                    self.session_stage_done(ctx, ue);
                    self.pump_mme(ctx);
                }
                C_UP => {
                    let chunk = downcast::<UpChunk>(payload, "agw up");
                    self.up_chunk_done(ctx, chunk);
                }
                C_DETACH => {
                    self.mme_inflight = self.mme_inflight.saturating_sub(1);
                    let job = downcast::<DetachJob>(payload, "agw detach");
                    self.finish_detach(ctx, job);
                    self.pump_mme(ctx);
                }
                C_HANDOVER => {
                    self.mme_inflight = self.mme_inflight.saturating_sub(1);
                    let job = downcast::<PathSwitchJob>(payload, "agw handover");
                    self.path_switch_done(ctx, job);
                    self.pump_mme(ctx);
                }
                _ => {}
            },
            Event::Msg { payload, .. } => match try_downcast::<SockEvent>(payload) {
                Ok(ev) => self.handle_sock_event(ctx, ev),
                Err(payload) => {
                    if let Ok(demand) = try_downcast::<FluidDemand>(payload) {
                        self.pending_demands.push(demand);
                    }
                }
            },
        }
    }

    fn name(&self) -> String {
        self.cfg.id.clone()
    }
}

impl AgwActor {
    /// Tell the AGW how many cores serve its user-plane group, so the
    /// backlog cap matches the host. Call before adding the actor.
    pub fn set_up_cores(&mut self, cores: u32) {
        self.up_cores = cores.max(1);
    }
}
