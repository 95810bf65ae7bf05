//! The eNodeB/gNB actor: terminates the radio side, hosts its UE fleet,
//! and exchanges S1AP (or NGAP) with the AGW over the co-located LAN.
//!
//! The actor plays the role Spirent Landslide plays in the paper's
//! evaluation: it emulates arbitrary numbers of UEs attaching on a
//! configured schedule and generating traffic, while measuring the
//! connection success rate and achieved throughput from the RAN side.

use crate::flows;
use crate::radio::SectorModel;
use crate::ue::{UePhase, UeSim};
use magma_agw::{FluidDemand, FluidGrant, FLUID_TICK};
use magma_net::{lp_encode, Dialer, Edge, Endpoint, SockCmd, SockEvent, MAX_LP_LEN, REDIAL};
use magma_sim::eventd::kind as event_kind;
use magma_sim::{try_downcast, Actor, ActorId, Ctx, Event, Severity, SimDuration, SimTime};
use magma_wire::nas::NasMessage;
use magma_wire::s1ap::{EnbUeId, MmeUeId, S1apMessage};
use magma_wire::Teid;
use rand::Rng;
use std::collections::VecDeque;

const T_FLUID: u64 = 1;
const T_ATTACH: u64 = 2;
const T_RECONNECT: u64 = 3;
const T_RADIO_BASE: u64 = 1_000_000;
const T_UETO_BASE: u64 = 2_000_000;
const T_REATTACH_BASE: u64 = 3_000_000;
const T_DETACH_BASE: u64 = 4_000_000;
const T_HEARTBEAT: u64 = 4;

/// Consecutive zero-grant fluid ticks (while demanding traffic) before an
/// attached UE declares radio-link failure ("no service").
const NO_SERVICE_TICKS: u32 = 100;

/// UE-side attach timeout: an attach not accepted within it counts as
/// failed (Landslide's success criterion, Figure 6).
const UE_ATTACH_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// Delay after S1 setup before the first attach.
const ATTACH_START: SimDuration = SimDuration::from_millis(500);

/// Uniform radio-leg delay bounds for NAS messages, milliseconds.
const RADIO_DELAY_MS: std::ops::RangeInclusive<u64> = 5..=25;

/// Namespace of the RAN's metrics and events, shared by every eNodeB so
/// the harness can aggregate. The RAN is the emulator, not a managed
/// gateway: nothing under it ships to the orchestrator.
const NAMESPACE: &str = "ran";

/// Configuration for one eNodeB (or gNB, by pointing `agw_ctrl` at the
/// AGW's NGAP port).
#[derive(Debug, Clone)]
pub struct EnbConfig {
    pub enb_id: u32,
    pub name: String,
    /// The node's network stack.
    pub stack: ActorId,
    /// AGW control-plane endpoint (S1AP or NGAP port).
    pub agw_ctrl: Endpoint,
    /// AGW actor for the fluid data path.
    pub agw_actor: ActorId,
    pub sector: SectorModel,
    /// UEs begin attaching at this rate once S1 is up.
    pub attach_rate_per_sec: f64,
    /// Re-attach automatically after failures / unexpected loss.
    pub reattach: bool,
    /// Session churn: once attached, a UE detaches after a uniform-random
    /// lifetime in this range (seconds); with `reattach`, it then
    /// re-attaches — the IoT-style control-plane-heavy workload of §4.2.
    pub session_lifetime_s: Option<(u64, u64)>,
}

impl EnbConfig {
    pub fn new(enb_id: u32, stack: ActorId, agw_ctrl: Endpoint, agw_actor: ActorId) -> Self {
        EnbConfig {
            enb_id,
            name: format!("enb-{enb_id}"),
            stack,
            agw_ctrl,
            agw_actor,
            sector: SectorModel::typical_enb(),
            attach_rate_per_sec: 1.0,
            reattach: false,
            session_lifetime_s: None,
        }
    }
}

struct UeSlot {
    ue: UeSim,
    /// Consecutive fluid ticks with traffic demanded but nothing granted.
    starved_ticks: u32,
    /// MME-side UE id learned from downlink messages.
    mme_ue_id: u32,
    /// AGW-side uplink TEID once the context is set up.
    ul_teid: Option<Teid>,
    /// Pending downlink NAS waiting out the radio delay.
    pending_nas: VecDeque<NasMessage>,
    attempt_started: Option<SimTime>,
}

/// The slot holding `teid`, searched forward from `cursor` and then, on
/// a miss, over all slots; `cursor` moves past the slot found. Grants come
/// back in demand order, which is slot order, so one message's grants
/// cost one pass. With one eNB's TEIDs unique the slot is the one a full
/// scan finds.
fn slot_of(slots: &[UeSlot], cursor: &mut usize, teid: Teid) -> Option<usize> {
    let holds = |s: &UeSlot| s.ul_teid == Some(teid);
    let idx = match slots[*cursor..].iter().position(holds) {
        Some(k) => *cursor + k,
        None => slots.iter().position(holds)?,
    };
    *cursor = idx + 1;
    Some(idx)
}

/// The eNodeB actor.
pub struct EnodebActor {
    cfg: EnbConfig,
    slots: Vec<UeSlot>,
    s1: Dialer<MAX_LP_LEN>,
    s1_ready: bool,
    next_attach: usize,
}

impl EnodebActor {
    pub fn new(cfg: EnbConfig, ues: Vec<UeSim>) -> Self {
        let slots = ues
            .into_iter()
            .map(|ue| UeSlot {
                ue,
                starved_ticks: 0,
                mme_ue_id: 0,
                ul_teid: None,
                pending_nas: VecDeque::new(),
                attempt_started: None,
            })
            .collect();
        let s1 = Dialer::new(cfg.stack, cfg.agw_ctrl);
        EnodebActor {
            cfg,
            slots,
            s1,
            s1_ready: false,
            next_attach: 0,
        }
    }

    /// Name of a RAN-prefixed `Registry` instrument (audited by
    /// `magma-lint` against the docs/OBSERVABILITY.md inventory).
    fn metric(&self, suffix: &str) -> String {
        format!("{NAMESPACE}.{suffix}")
    }

    fn send_s1ap(&mut self, ctx: &mut Ctx<'_>, msg: &S1apMessage) {
        let bytes = lp_encode(&msg.encode());
        self.s1.send(ctx, &magma_agw::flows::RAN_S1AP_UL, bytes);
    }

    fn radio_delay(&self, ctx: &mut Ctx<'_>) -> SimDuration {
        SimDuration::from_millis(ctx.rng().gen_range(RADIO_DELAY_MS))
    }

    /// Queue a downlink NAS for a UE behind the radio delay.
    fn deliver_to_ue(&mut self, ctx: &mut Ctx<'_>, idx: usize, nas: NasMessage) {
        self.slots[idx].pending_nas.push_back(nas);
        let d = self.radio_delay(ctx);
        // The radio leg is a causal hop of the procedure in flight, so
        // the delay timer carries the trace (a plain `timer_in` would
        // drop the downlink out of the span tree).
        ctx.trace_timer_in(d, T_RADIO_BASE + idx as u64);
    }

    /// Root the attach procedure's trace: the control endpoint decides
    /// whether this cell speaks S1AP (4G attach) or NGAP (5G
    /// registration). Labels are audited by lint rule T003, which reads
    /// the literal at each `trace_start` call site.
    fn start_attach_trace(&self, ctx: &mut Ctx<'_>) {
        if self.cfg.agw_ctrl.port == magma_net::ports::NGAP {
            ctx.trace_start("register_5g");
        } else {
            ctx.trace_start("attach");
        }
    }

    fn start_attach_for(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        if !self.s1_ready {
            // S1 is down (e.g., AGW restarting): retry once it is back.
            ctx.timer_in(SimDuration::from_secs(2), T_REATTACH_BASE + idx as u64);
            return;
        }
        let now = ctx.now();
        let slot = &mut self.slots[idx];
        if !matches!(slot.ue.phase, UePhase::Detached | UePhase::Failed) {
            return;
        }
        let attach = slot.ue.start_attach();
        slot.attempt_started = Some(now);
        slot.ul_teid = None;
        let msg = S1apMessage::InitialUeMessage {
            enb_ue_id: EnbUeId(idx as u32 + 1),
            nas: attach.encode(),
        };
        // An uplink radio delay is drawn, but only to advance the RNG: the
        // InitialUeMessage below leaves with no radio delay. Applying it
        // would lengthen every attach; dropping the draw would shift every
        // later radio delay of this eNodeB.
        self.radio_delay(ctx);
        ctx.send_self(
            &flows::ENB_ATTACH_TIMEOUT,
            UE_ATTACH_TIMEOUT,
            T_UETO_BASE + idx as u64,
        );
        // Root the causal trace *after* arming the timeout: the guard
        // timer is not a hop of the procedure, and a timed-out attach
        // simply leaves its trace unfinished (counted, never exported).
        self.start_attach_trace(ctx);
        self.send_s1ap(ctx, &msg);
    }

    fn handle_s1ap(&mut self, ctx: &mut Ctx<'_>, msg: S1apMessage) {
        match msg {
            S1apMessage::S1SetupResponse { .. }
                if !self.s1_ready => {
                    self.s1_ready = true;
                    ctx.timer_in(ATTACH_START, T_ATTACH);
                    ctx.timer_in(SimDuration::from_secs(10), T_HEARTBEAT);
                    // After an S1 (re-)establishment, kick any UEs that
                    // lost service so they re-attach promptly.
                    if self.cfg.reattach {
                        for idx in 0..self.slots.len() {
                            if matches!(
                                self.slots[idx].ue.phase,
                                UePhase::Detached | UePhase::Failed
                            ) && self.slots[idx].ue.attach_attempts > 0
                            {
                                let stagger =
                                    SimDuration::from_millis(ctx.rng().gen_range(100..2000));
                                ctx.timer_in(stagger, T_REATTACH_BASE + idx as u64);
                            }
                        }
                    }
                }
            // Close the refused stream; the redial rule reopens it.
            S1apMessage::S1SetupFailure { .. } => self.s1.close(ctx),
            S1apMessage::DownlinkNasTransport {
                enb_ue_id,
                mme_ue_id,
                nas,
            } => {
                let idx = enb_ue_id.0 as usize;
                if idx >= 1 && idx <= self.slots.len() {
                    let idx = idx - 1;
                    if mme_ue_id.0 != 0 {
                        self.slots[idx].mme_ue_id = mme_ue_id.0;
                    }
                    if let Ok(nas) = NasMessage::decode(&nas) {
                        self.deliver_to_ue(ctx, idx, nas);
                    }
                }
            }
            S1apMessage::InitialContextSetupRequest {
                enb_ue_id,
                mme_ue_id,
                agw_teid,
                nas,
            } => {
                let idx = enb_ue_id.0 as usize;
                if idx >= 1 && idx <= self.slots.len() {
                    let idx = idx - 1;
                    self.slots[idx].mme_ue_id = mme_ue_id.0;
                    self.slots[idx].ul_teid = Some(agw_teid);
                    let enb_teid = Teid((self.cfg.enb_id << 16) | (idx as u32 + 1));
                    let resp = S1apMessage::InitialContextSetupResponse {
                        enb_ue_id,
                        mme_ue_id,
                        enb_teid,
                    };
                    self.send_s1ap(ctx, &resp);
                    if let Ok(nas) = NasMessage::decode(&nas) {
                        self.deliver_to_ue(ctx, idx, nas);
                    }
                }
            }
            S1apMessage::UeContextReleaseCommand { mme_ue_id, .. } => {
                if let Some(idx) = self
                    .slots
                    .iter()
                    .position(|s| s.mme_ue_id == mme_ue_id.0 && s.mme_ue_id != 0)
                {
                    self.slots[idx].ue.on_unexpected_loss();
                    self.slots[idx].ul_teid = None;
                    let m = self.metric("session_lost");
                    ctx.registry().counter_add(&m, 1.0);
                    let imsi = self.slots[idx].ue.imsi.0.to_string();
                    ctx.emit_event(
                        NAMESPACE,
                        event_kind::SESSION_LOST,
                        Severity::Warning,
                        &[("imsi", imsi), ("enb", self.cfg.enb_id.to_string())],
                    );
                    self.send_s1ap(ctx, &S1apMessage::UeContextReleaseComplete { mme_ue_id });
                    if self.cfg.reattach && self.slots[idx].ue.phase == UePhase::Detached {
                        let backoff =
                            SimDuration::from_millis(ctx.rng().gen_range(2000..5000));
                        ctx.timer_in(backoff, T_REATTACH_BASE + idx as u64);
                    }
                }
            }
            _ => {}
        }
    }

    /// A radio-delayed downlink NAS reaches the UE: compute its response.
    fn ue_process(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let Some(nas) = self.slots[idx].pending_nas.pop_front() else {
            return;
        };
        let was_attached = self.slots[idx].ue.is_attached();
        let reject_cause = match &nas {
            NasMessage::AttachReject { cause } => Some(*cause),
            _ => None,
        };
        let resp = self.slots[idx].ue.on_nas(nas);
        let now = ctx.now();
        let phase = self.slots[idx].ue.phase;

        if phase == UePhase::Attached && !was_attached {
            // Semantic end of the attach/registration procedure: the
            // radio-delayed Attach Accept reached the UE.
            ctx.trace_finish();
            if let Some(start) = self.slots[idx].attempt_started.take() {
                let m = self.metric("attach_ok_at");
                ctx.registry().record(&m, start, now.since(start).as_secs_f64());
                let m = self.metric("attach_ok");
                ctx.registry().counter_add(&m, 1.0);
                let m = self.metric("attach.latency_s");
                ctx.registry().observe(&m, now.since(start).as_secs_f64());
            }
            if let Some((lo, hi)) = self.cfg.session_lifetime_s {
                let life = SimDuration::from_secs(ctx.rng().gen_range(lo..=hi.max(lo + 1)));
                ctx.timer_in(life, T_DETACH_BASE + idx as u64);
            }
        }
        if phase == UePhase::Detached && was_attached {
            // Detach Accept made it back across the radio: the detach
            // procedure rooted at the session-lifetime timer is done.
            ctx.trace_finish();
        }
        if phase == UePhase::Failed {
            if let Some(start) = self.slots[idx].attempt_started.take() {
                let m = self.metric("attach_fail_at");
                ctx.registry().record(&m, start, 1.0);
                let m = self.metric("attach_fail");
                ctx.registry().counter_add(&m, 1.0);
            }
            let imsi = self.slots[idx].ue.imsi.0.to_string();
            let cause = reject_cause
                .map(|c| format!("{c:?}"))
                .unwrap_or_else(|| "rejected".to_string());
            ctx.emit_event(
                NAMESPACE,
                event_kind::ATTACH_FAILURE,
                Severity::Warning,
                &[("imsi", imsi), ("cause", cause)],
            );
            if self.cfg.reattach {
                let backoff = SimDuration::from_millis(ctx.rng().gen_range(2000..5000));
                ctx.timer_in(backoff, T_REATTACH_BASE + idx as u64);
            }
        }
        if let Some(resp) = resp {
            let msg = S1apMessage::UplinkNasTransport {
                enb_ue_id: EnbUeId(idx as u32 + 1),
                mme_ue_id: MmeUeId(self.slots[idx].mme_ue_id),
                nas: resp.encode(),
            };
            self.send_s1ap(ctx, &msg);
        }
    }

    fn fluid_tick(&mut self, ctx: &mut Ctx<'_>) {
        let tick_secs = FLUID_TICK.as_secs_f64();
        let mut demands: Vec<(Teid, u64, u64)> = Vec::new();
        let mut total: u64 = 0;
        let mut active = 0usize;
        for slot in &self.slots {
            if !slot.ue.is_attached() {
                continue;
            }
            let Some(teid) = slot.ul_teid else { continue };
            let (ul, dl) = slot.ue.traffic.demand(tick_secs);
            if ul + dl == 0 {
                continue;
            }
            active += 1;
            if active > self.cfg.sector.max_active_ues {
                break; // admission cap on simultaneously active users
            }
            demands.push((teid, ul, dl));
            total += ul + dl;
        }
        if !demands.is_empty() {
            let scale = self.cfg.sector.clip_scale(total, tick_secs);
            if scale < 1.0 {
                for d in &mut demands {
                    d.1 = (d.1 as f64 * scale) as u64;
                    d.2 = (d.2 as f64 * scale) as u64;
                }
            }
            let me = ctx.id();
            ctx.send_to(
                self.cfg.agw_actor,
                &magma_agw::flows::FLUID_DEMAND,
                Box::new(FluidDemand {
                    from_ran: me,
                    demands,
                }),
            );
        }
        // Periodic fleet health gauges.
        let now = ctx.now();
        let attached = self.slots.iter().filter(|s| s.ue.is_attached()).count();
        let stuck = self
            .slots
            .iter()
            .filter(|s| s.ue.phase == UePhase::Stuck)
            .count();
        let m = self.metric("attached");
        ctx.registry().record(&m, now, attached as f64);
        // Gauges are last-writer-wins, so they get a per-eNB namespace
        // (counters and histograms above are shared and accumulate).
        let m = self.metric(&format!("enb{}.attached_ues", self.cfg.enb_id));
        ctx.registry().gauge_set(&m, attached as f64);
        if stuck > 0 {
            let m = self.metric("stuck");
            ctx.registry().record(&m, now, stuck as f64);
        }
        ctx.timer_in(FLUID_TICK, T_FLUID);
    }
}

impl Actor for EnodebActor {
    fn dispatch(&self) -> Option<&'static magma_sim::Dispatch> {
        Some(&crate::flows::ENB_DISPATCH)
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                self.s1.open(ctx);
                // GTP-U endpoint: the traditional-EPC baseline probes the
                // eNB's user-plane path with GTP echo requests.
                let me = ctx.id();
                ctx.send_to(
                    self.cfg.stack,
                    &magma_net::flows::SOCK_CMD,
                    Box::new(SockCmd::ListenDgram {
                        port: magma_net::ports::GTPU,
                        owner: me,
                    }),
                );
                ctx.timer_in(FLUID_TICK, T_FLUID);
            }
            Event::Timer { tag } => match tag {
                T_FLUID => self.fluid_tick(ctx),
                T_ATTACH
                    if self.next_attach < self.slots.len() => {
                        let idx = self.next_attach;
                        self.next_attach += 1;
                        self.start_attach_for(ctx, idx);
                        let gap = SimDuration::from_secs_f64(
                            1.0 / self.cfg.attach_rate_per_sec.max(1e-6),
                        );
                        ctx.timer_in(gap, T_ATTACH);
                    }
                T_RECONNECT => self.s1.open(ctx),
                T_HEARTBEAT
                    // SCTP-heartbeat analog: periodic traffic on the S1
                    // association so a dead AGW is detected even when no
                    // UE signalling is in flight.
                    if self.s1_ready => {
                        let msg = S1apMessage::S1SetupRequest {
                            enb_id: self.cfg.enb_id,
                            name: self.cfg.name.clone(),
                        };
                        self.send_s1ap(ctx, &msg);
                        ctx.timer_in(SimDuration::from_secs(10), T_HEARTBEAT);
                    }
                t if t >= T_DETACH_BASE => {
                    let idx = (t - T_DETACH_BASE) as usize;
                    if idx < self.slots.len() {
                        if let Some(req) = self.slots[idx].ue.start_detach() {
                            ctx.trace_start("detach");
                            self.slots[idx].ul_teid = None;
                            let msg = S1apMessage::UplinkNasTransport {
                                enb_ue_id: EnbUeId(idx as u32 + 1),
                                mme_ue_id: MmeUeId(self.slots[idx].mme_ue_id),
                                nas: req.encode(),
                            };
                            self.send_s1ap(ctx, &msg);
                            if self.cfg.reattach {
                                let backoff = SimDuration::from_millis(
                                    ctx.rng().gen_range(1000..4000),
                                );
                                ctx.timer_in(backoff, T_REATTACH_BASE + idx as u64);
                            }
                        }
                    }
                }
                t if t >= T_REATTACH_BASE => {
                    let idx = (t - T_REATTACH_BASE) as usize;
                    if idx < self.slots.len() {
                        self.start_attach_for(ctx, idx);
                    }
                }
                t if t >= T_UETO_BASE => {
                    let idx = (t - T_UETO_BASE) as usize;
                    if idx < self.slots.len()
                        && self.slots[idx].ue.phase == UePhase::Attaching
                    {
                        self.slots[idx].ue.on_attach_timeout();
                        if let Some(start) = self.slots[idx].attempt_started.take() {
                            let m = self.metric("attach_fail_at");
                            ctx.registry().record(&m, start, 1.0);
                            let m = self.metric("attach_fail");
                            ctx.registry().counter_add(&m, 1.0);
                        }
                        let imsi = self.slots[idx].ue.imsi.0.to_string();
                        ctx.emit_event(
                            NAMESPACE,
                            event_kind::ATTACH_FAILURE,
                            Severity::Warning,
                            &[("imsi", imsi), ("cause", "timeout".to_string())],
                        );
                        if self.cfg.reattach {
                            let backoff =
                                SimDuration::from_millis(ctx.rng().gen_range(2000..5000));
                            ctx.timer_in(backoff, T_REATTACH_BASE + idx as u64);
                        }
                    }
                }
                t if t >= T_RADIO_BASE => {
                    let idx = (t - T_RADIO_BASE) as usize;
                    if idx < self.slots.len() {
                        self.ue_process(ctx, idx);
                    }
                }
                _ => {}
            },
            Event::Msg { payload, .. } => match try_downcast::<SockEvent>(payload) {
                Ok(ev) => {
                    let mut msgs = Vec::new();
                    let edge = self.s1.on_event(ctx, ev, |_, m| {
                        msgs.extend(S1apMessage::decode(m).ok());
                    });
                    match edge {
                        Ok(Edge::Opened(_)) => {
                            let msg = S1apMessage::S1SetupRequest {
                                enb_id: self.cfg.enb_id,
                                name: self.cfg.name.clone(),
                            };
                            self.send_s1ap(ctx, &msg);
                        }
                        Ok(Edge::Recv(_)) => {
                            for s1ap in msgs {
                                self.handle_s1ap(ctx, s1ap);
                            }
                        }
                        Ok(Edge::Closed(..)) => {
                            // The AGW died, the link failed or S1 Setup
                            // was refused: all UE sessions on this eNB are
                            // in doubt.
                            self.s1_ready = false;
                            ctx.timer_in(REDIAL, T_RECONNECT);
                        }
                        Err(SockEvent::DgramRecv { src, bytes, .. }) => {
                            use magma_wire::gtp::{gtpu_type, GtpUPacket};
                            if let Ok(pkt) = GtpUPacket::decode(&bytes) {
                                if pkt.msg_type == gtpu_type::ECHO_REQUEST {
                                    let mut resp = GtpUPacket::echo_request(pkt.seq.unwrap_or(0));
                                    resp.msg_type = gtpu_type::ECHO_RESPONSE;
                                    ctx.send_to(
                                        self.cfg.stack,
                                        &magma_agw::flows::ENB_GTPU_ECHO_REPLY,
                                        Box::new(SockCmd::DgramSend {
                                            src_port: magma_net::ports::GTPU,
                                            dst: src,
                                            bytes: resp.encode(),
                                        }),
                                    );
                                }
                            }
                        }
                        Err(_) => {}
                    }
                }
                Err(payload) => {
                    if let Ok(grant) = try_downcast::<FluidGrant>(payload) {
                        // Per-UE no-service detection: a session whose
                        // demands keep being granted zero bytes has lost
                        // its bearer (e.g., the AGW cold-restarted).
                        let mut cursor = 0;
                        for &(teid, ul, dl) in &grant.grants {
                            if let Some(idx) = slot_of(&self.slots, &mut cursor, teid) {
                                if ul + dl == 0 {
                                    self.slots[idx].starved_ticks += 1;
                                    if self.slots[idx].starved_ticks >= NO_SERVICE_TICKS
                                        && self.slots[idx].ue.is_attached()
                                    {
                                        self.slots[idx].ue.on_unexpected_loss();
                                        self.slots[idx].ul_teid = None;
                                        self.slots[idx].starved_ticks = 0;
                                        if self.cfg.reattach
                                            && self.slots[idx].ue.phase == UePhase::Detached
                                        {
                                            let backoff = SimDuration::from_millis(
                                                ctx.rng().gen_range(2000..5000),
                                            );
                                            ctx.timer_in(backoff, T_REATTACH_BASE + idx as u64);
                                        }
                                    }
                                } else {
                                    self.slots[idx].starved_ticks = 0;
                                }
                            }
                        }
                    }
                }
            },
            Event::CpuDone { .. } => {}
        }
    }

    fn name(&self) -> String {
        self.cfg.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_wire::Imsi;

    /// Slots holding `teids` (`None`: no bearer yet, or lost).
    fn slots(teids: &[Option<u32>]) -> Vec<UeSlot> {
        let slot = |(i, t): (usize, &Option<u32>)| UeSlot {
            ue: UeSim::new(Imsi::new(1, 1, i as u64), 7, i as u64),
            starved_ticks: 0,
            mme_ue_id: 0,
            ul_teid: t.map(Teid),
            pending_nas: VecDeque::new(),
            attempt_started: None,
        };
        teids.iter().enumerate().map(slot).collect()
    }

    /// Each grant's slot, found by the forward pass or by the `position`
    /// scan it replaced. A zero grant drops the slot's bearer on the spot,
    /// as the handler does once a slot has starved long enough, so later
    /// grants in the same message see the cleared TEID.
    fn route(slots: &mut [UeSlot], grants: &[(u32, u64)], forward: bool) -> Vec<Option<usize>> {
        let mut cursor = 0;
        let mut pick = |slots: &[UeSlot], t: Teid| match forward {
            true => slot_of(slots, &mut cursor, t),
            false => slots.iter().position(|s| s.ul_teid == Some(t)),
        };
        grants
            .iter()
            .map(|&(t, bytes)| {
                let idx = pick(slots, Teid(t));
                if let (Some(i), 0) = (idx, bytes) {
                    slots[i].ul_teid = None;
                }
                idx
            })
            .collect()
    }

    #[test]
    fn forward_pass_picks_the_slot_the_scan_picks() {
        let teids = [Some(10), None, Some(11), Some(12), None, Some(13), Some(14)];
        let cases: [&[(u32, u64)]; 5] = [
            // In demand order, which is slot order.
            &[(10, 5), (11, 5), (12, 5), (13, 5), (14, 5)],
            // Interleaved with zero grants, and a TEID asked for again
            // after its bearer was dropped.
            &[(10, 0), (11, 5), (12, 0), (12, 5), (13, 0), (14, 5)],
            // Missing entries and a TEID this eNB never held.
            &[(10, 5), (99, 5), (13, 5), (14, 0)],
            // Out of order: the cursor misses and the full scan answers.
            &[(14, 5), (10, 5), (13, 5), (11, 0), (12, 5), (11, 5)],
            &[],
        ];
        for grants in cases {
            let scan = route(&mut slots(&teids), grants, false);
            assert_eq!(route(&mut slots(&teids), grants, true), scan, "{grants:?}");
        }
    }

    #[test]
    fn a_duplicate_teid_is_routed_in_demand_order() {
        // Slot 2 still holds TEID 10 from before an AGW cold restart, and
        // the restarted AGW issued 10 again to slot 0. Both demand, in
        // slot order, so the grant message answers slot 0, then 1, then 2.
        // The scan gave both TEID-10 grants to slot 0; the forward pass
        // gives each to the slot whose demand it answers.
        let teids = [Some(10), Some(11), Some(10)];
        let grants = [(10, 5), (11, 5), (10, 5)];
        assert_eq!(route(&mut slots(&teids), &grants, false), [Some(0), Some(1), Some(0)]);
        assert_eq!(route(&mut slots(&teids), &grants, true), [Some(0), Some(1), Some(2)]);
    }
}
