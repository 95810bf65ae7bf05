//! The traditional, centralized EPC baseline.
//!
//! One monolithic MME+SGW+PGW placed *across the backhaul* from the RAN
//! (the architecture Magma's AGW replaces). Control signalling (S1AP)
//! rides the reliable stream, but the user plane is GTP-U over the
//! backhaul with 3GPP path management: GTP Echo probes every 5 s with
//! T3 = 3 s and N3 = 3 retries, and a path failure releases every
//! session behind that eNodeB — the behavior §3.1 blames for wedged
//! low-end UEs on satellite/microwave backhaul.
//!
//! The baseline reuses Magma's generic session table and IP pool — the
//! paper's point is architectural placement and protocol choice, not
//! that a traditional core lacks those functions.

use magma_agw::{AccessTech, FluidDemand, FluidGrant, IpPool, SessionManager, FLUID_TICK};
use magma_net::{
    lp_encode, ports, Acceptor, Edge, Endpoint, NodeAddr, SockCmd, SockEvent, StreamHandle, MAX_LP_LEN,
};
use magma_policy::PolicyRule;
use crate::flows;
use magma_sim::{try_downcast, Actor, ActorId, Ctx, Event, SimDuration};
use magma_subscriber::SubscriberDb;
use magma_wire::aka::Rand;
use magma_wire::gtp::{gtpu_type, GtpUPacket};
use magma_wire::nas::{EmmCause, NasMessage};
use magma_wire::s1ap::{EnbUeId, MmeUeId, S1apMessage};
use magma_wire::aka::{Kasme, Res};
use magma_wire::{Guti, Teid};
use rand::RngCore;
use std::collections::BTreeMap;

const T_ECHO: u64 = 1;
const T_FLUID: u64 = 2;

/// GTP path management (TS 29.281 / 23.007): interval between echo
/// cycles on a healthy path. Rural gear commonly probes aggressively to
/// fail over between backhauls quickly.
const ECHO_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// T3-RESPONSE: wait before a retry.
const T3: SimDuration = SimDuration::from_secs(3);
/// N3-REQUESTS: attempts before declaring path failure.
const N3: u32 = 3;

struct EnbPath {
    node: NodeAddr,
    enb_id: u32,
    /// Outstanding echo attempt count (0 = none outstanding).
    echo_tries: u32,
    echo_seq: u16,
    path_up: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum UeState {
    AwaitAuth,
    AwaitSmc,
    AwaitCtx,
    Active,
}

struct UeCtx {
    enb_ue_id: EnbUeId,
    conn: StreamHandle,
    imsi: magma_wire::Imsi,
    state: UeState,
    xres: Option<Res>,
    kasme: Option<Kasme>,
    session_id: Option<u64>,
}

/// The centralized EPC actor.
pub struct EpcCoreActor {
    stack: ActorId,
    pub db: SubscriberDb,
    pool: IpPool,
    sessions: SessionManager,
    paths: Acceptor<MAX_LP_LEN, EnbPath>,
    ues: BTreeMap<u32, UeCtx>,
    next_ue: u32,
    next_guti: u64,
    /// Effective one-way frame loss on the backhaul (applied to GTP-U
    /// goodput at flow level).
    backhaul_loss: f64,
    pending_demands: Vec<FluidDemand>,
    pub sessions_released: u64,
    pub path_failures: u64,
}

impl EpcCoreActor {
    pub fn new(stack: ActorId, db: SubscriberDb, backhaul_loss: f64) -> Self {
        EpcCoreActor {
            stack,
            db,
            pool: IpPool::new(0x0A80_0002, 65_000),
            sessions: SessionManager::new(),
            paths: Acceptor::new(stack),
            ues: BTreeMap::new(),
            next_ue: 1,
            next_guti: 1,
            backhaul_loss,
            pending_demands: Vec::new(),
            sessions_released: 0,
            path_failures: 0,
        }
    }

    fn send_s1ap(&mut self, ctx: &mut Ctx<'_>, conn: StreamHandle, msg: &S1apMessage) {
        let bytes = lp_encode(&msg.encode());
        self.paths.send(ctx, conn, &magma_agw::flows::AGW_S1AP_DL, bytes);
    }

    fn send_nas(&mut self, ctx: &mut Ctx<'_>, ue: u32, nas: NasMessage) {
        let Some(u) = self.ues.get(&ue) else { return };
        let msg = S1apMessage::DownlinkNasTransport {
            enb_ue_id: u.enb_ue_id,
            mme_ue_id: MmeUeId(ue),
            nas: nas.encode(),
        };
        let conn = u.conn;
        self.send_s1ap(ctx, conn, &msg);
    }

    fn handle_s1ap(&mut self, ctx: &mut Ctx<'_>, conn: StreamHandle, msg: S1apMessage) {
        match msg {
            S1apMessage::S1SetupRequest { enb_id, .. } => {
                // Learn the eNB's node address from the connection peer —
                // the stack doesn't expose it, so we derive the GTP path
                // from the S1AP peer via StreamAccepted (recorded there).
                if let Some(p) = self.paths.get_mut(conn) {
                    p.enb_id = enb_id;
                }
                self.send_s1ap(
                    ctx,
                    conn,
                    &S1apMessage::S1SetupResponse {
                        mme_name: "traditional-epc".to_string(),
                    },
                );
            }
            S1apMessage::InitialUeMessage { enb_ue_id, nas } => {
                if let Ok(NasMessage::AttachRequest { imsi, .. }) = NasMessage::decode(&nas) {
                    let mut rand = [0u8; 16];
                    ctx.rng().fill_bytes(&mut rand);
                    match self.db.generate_auth_vector(imsi, Rand(rand)) {
                        Some(v) => {
                            let ue = self.next_ue;
                            self.next_ue += 1;
                            self.ues.insert(
                                ue,
                                UeCtx {
                                    enb_ue_id,
                                    conn,
                                    imsi,
                                    state: UeState::AwaitAuth,
                                    xres: Some(v.xres),
                                    kasme: Some(v.kasme),
                                    session_id: None,
                                },
                            );
                            self.send_nas(
                                ctx,
                                ue,
                                NasMessage::AuthenticationRequest {
                                    rand: v.rand,
                                    autn: v.autn,
                                },
                            );
                        }
                        None => {
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
                    }
                }
            }
            S1apMessage::UplinkNasTransport { mme_ue_id, nas, .. } => {
                let ue = mme_ue_id.0;
                let Ok(nas) = NasMessage::decode(&nas) else { return };
                let Some(u) = self.ues.get_mut(&ue) else { return };
                // Strip integrity protection (UEs secure their uplink
                // after authenticating).
                let nas = match (&u.kasme, nas) {
                    (Some(kasme), msg @ NasMessage::Secured { .. }) => {
                        match msg.unsecure(kasme) {
                            Some(inner) => inner,
                            None => return,
                        }
                    }
                    (_, msg) => msg,
                };
                match (u.state, nas) {
                    (UeState::AwaitAuth, NasMessage::AuthenticationResponse { res })
                        if u.xres == Some(res) => {
                            u.state = UeState::AwaitSmc;
                            self.send_nas(ctx, ue, NasMessage::SecurityModeCommand {
                                algorithm: 2,
                            });
                        }
                    (UeState::AwaitSmc, NasMessage::SecurityModeComplete) => {
                        // Create the session (SGW/PGW co-located here).
                        let imsi = u.imsi;
                        let conn = u.conn;
                        let enb_ue_id = u.enb_ue_id;
                        let Some(ip) = self.pool.allocate(imsi) else {
                            return;
                        };
                        let ul_teid = self.sessions.alloc_teid();
                        let (sid, _) = self.sessions.create(
                            imsi,
                            AccessTech::Lte,
                            ip,
                            ul_teid,
                            Teid(0),
                            PolicyRule::unrestricted("default"),
                            ctx.now(),
                        );
                        let guti = self.next_guti;
                        self.next_guti += 1;
                        if let Some(u) = self.ues.get_mut(&ue) {
                            u.state = UeState::AwaitCtx;
                            u.session_id = Some(sid);
                        }
                        let msg = S1apMessage::InitialContextSetupRequest {
                            enb_ue_id,
                            mme_ue_id: MmeUeId(ue),
                            agw_teid: ul_teid,
                            nas: NasMessage::AttachAccept {
                                guti: Guti(guti),
                                ue_ip: ip,
                                ambr_dl_kbps: 0,
                                ambr_ul_kbps: 0,
                            }
                            .encode(),
                        };
                        self.send_s1ap(ctx, conn, &msg);
                    }
                    (UeState::AwaitCtx, NasMessage::AttachComplete) => {
                        u.state = UeState::Active;
                    }
                    _ => {}
                }
            }
            S1apMessage::InitialContextSetupResponse {
                mme_ue_id,
                enb_teid,
                ..
            } => {
                if let Some(u) = self.ues.get(&mme_ue_id.0) {
                    if let Some(sid) = u.session_id {
                        self.sessions.set_dl_teid(sid, enb_teid);
                    }
                }
            }
            _ => {}
        }
    }

    /// Send a GTP echo request to an eNB's GTP-U port over the backhaul.
    fn send_echo(&mut self, ctx: &mut Ctx<'_>, conn: StreamHandle) {
        let Some(p) = self.paths.get_mut(conn) else { return };
        p.echo_seq = p.echo_seq.wrapping_add(1);
        let pkt = GtpUPacket::echo_request(p.echo_seq);
        let dst = Endpoint::new(p.node, ports::GTPU);
        ctx.send_to(
            self.stack,
            &magma_agw::flows::EPC_GTPU_ECHO,
            Box::new(SockCmd::DgramSend {
                src_port: ports::GTPU,
                dst,
                bytes: pkt.encode(),
            }),
        );
    }

    /// Path failure: release every session behind the eNB (3GPP TS
    /// 23.007 behavior). UEs see an unexpected context release.
    fn fail_path(&mut self, ctx: &mut Ctx<'_>, conn: StreamHandle) {
        self.path_failures += 1;
        let ues: Vec<u32> = self
            .ues
            .iter()
            .filter(|(_, u)| u.conn == conn && u.state == UeState::Active)
            .map(|(id, _)| *id)
            .collect();
        for ue in ues {
            if let Some(u) = self.ues.remove(&ue) {
                if let Some(sid) = u.session_id {
                    self.sessions.remove(sid);
                    self.pool.release(u.imsi);
                    self.sessions_released += 1;
                    ctx.registry().counter_add("epc.sessions_released", 1.0);
                }
                let msg = S1apMessage::UeContextReleaseCommand {
                    mme_ue_id: MmeUeId(ue),
                    cause: 21, // "path failure"
                };
                self.send_s1ap(ctx, conn, &msg);
            }
        }
        if let Some(p) = self.paths.get_mut(conn) {
            p.path_up = false;
            p.echo_tries = 0;
        }
    }

    fn echo_tick(&mut self, ctx: &mut Ctx<'_>) {
        let conns: Vec<StreamHandle> = self.paths.iter().map(|(conn, _)| conn).collect();
        for conn in conns {
            let (tries, up) = {
                let p = self.paths.get_mut(conn).unwrap();
                p.echo_tries += 1;
                (p.echo_tries, p.path_up)
            };
            if tries > N3 && up {
                self.fail_path(ctx, conn);
                self.send_echo(ctx, conn);
            } else {
                self.send_echo(ctx, conn);
            }
        }
        // Healthy paths probe at ECHO_INTERVAL; a path with outstanding
        // retries probes at T3.
        let any_retrying = self.paths.iter().any(|(_, p)| p.echo_tries > 1);
        let next = if any_retrying { T3 } else { ECHO_INTERVAL };
        ctx.send_self(&flows::EPC_ECHO_TICK, next, T_ECHO);
    }

    fn fluid_tick(&mut self, ctx: &mut Ctx<'_>) {
        let demands = std::mem::take(&mut self.pending_demands);
        // GTP-U goodput across the backhaul: tunneled frames are lost at
        // the link's loss rate in each direction and GTP does not
        // retransmit (the inner end-to-end transport must).
        let good = (1.0 - self.backhaul_loss).clamp(0.0, 1.0);
        for d in demands {
            let mut grants = Vec::with_capacity(d.demands.len());
            for (teid, ul, dl) in d.demands {
                if self.sessions.by_ul_teid(teid).is_some() {
                    let ul = (ul as f64 * good) as u64;
                    let dl = (dl as f64 * good) as u64;
                    grants.push((teid, ul, dl));
                } else {
                    grants.push((teid, 0, 0));
                }
            }
            ctx.send_to(d.from_ran, &magma_agw::flows::FLUID_GRANT, Box::new(FluidGrant { grants }));
        }
        ctx.timer_in(FLUID_TICK, T_FLUID);
    }
}

impl Actor for EpcCoreActor {
    fn dispatch(&self) -> Option<&'static magma_sim::Dispatch> {
        Some(&crate::flows::EPC_DISPATCH)
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                self.paths.listen(ctx, ports::S1AP);
                let me = ctx.id();
                ctx.send_to(
                    self.stack,
                    &magma_net::flows::SOCK_CMD,
                    Box::new(SockCmd::ListenDgram {
                        port: ports::GTPU,
                        owner: me,
                    }),
                );
                ctx.send_self(&flows::EPC_ECHO_TICK, ECHO_INTERVAL, T_ECHO);
                ctx.timer_in(FLUID_TICK, T_FLUID);
            }
            Event::Timer { tag: T_ECHO } => self.echo_tick(ctx),
            Event::Timer { tag: T_FLUID } => self.fluid_tick(ctx),
            Event::Timer { .. } => {}
            Event::Msg { payload, .. } => match try_downcast::<SockEvent>(payload) {
                Ok(ev) => {
                    let mut msgs = Vec::new();
                    let accept = |_, peer: Endpoint| {
                        Some(EnbPath {
                            node: peer.node,
                            enb_id: 0,
                            echo_tries: 0,
                            echo_seq: 0,
                            path_up: true,
                        })
                    };
                    let edge = self.paths.on_event(ctx, ev, accept, |_, m| {
                        msgs.extend(S1apMessage::decode(m).ok());
                    });
                    match edge {
                        Ok(Edge::Recv(conn)) => {
                            for s1ap in msgs {
                                self.handle_s1ap(ctx, conn, s1ap);
                            }
                        }
                        Ok(Edge::Opened(_) | Edge::Closed(..)) => {}
                        Err(SockEvent::DgramRecv { src, bytes, .. }) => {
                            if let Ok(pkt) = GtpUPacket::decode(&bytes) {
                                if pkt.msg_type == gtpu_type::ECHO_RESPONSE {
                                    // Clear the retry counter for the path
                                    // to the responding node.
                                    for (_, p) in self.paths.iter_mut() {
                                        if p.node == src.node {
                                            p.echo_tries = 0;
                                            p.path_up = true;
                                        }
                                    }
                                }
                            }
                        }
                        Err(_) => {}
                    }
                }
                Err(payload) => {
                    if let Ok(d) = try_downcast::<FluidDemand>(payload) {
                        self.pending_demands.push(d);
                    }
                }
            },
            Event::CpuDone { .. } => {}
        }
    }

    fn name(&self) -> String {
        "epc-core".to_string()
    }
}
