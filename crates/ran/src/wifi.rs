//! WiFi access point actor: authenticates against the AGW's AAA over
//! RADIUS and backhauls traffic — the AccessParks deployment shape
//! (§4.3.1, Figure 10), where the "UE" is a fixed wireless modem serving
//! a hotspot.

use crate::flows;
use crate::radio::SectorModel;
use magma_agw::FluidDemand;
use magma_net::{ports, Endpoint, SockCmd, SockEvent};
use magma_sim::{try_downcast, Actor, ActorId, Ctx, Event, SimDuration};
use magma_wire::radius::{acct_status, attr, Attribute, RadiusCode, RadiusPacket};
use magma_wire::{Teid, UeIp};

const T_FLUID: u64 = 1;
const T_AUTH: u64 = 2;

/// Custom RADIUS attribute carrying the AGW-assigned tunnel id so the AP
/// can key its traffic demands (vendor-specific in a real deployment).
pub const ATTR_TUNNEL_ID: u8 = 200;
const LOCAL_PORT: u16 = 20000;

/// Configuration for one WiFi AP (or CBRS backhaul modem).
#[derive(Debug, Clone)]
pub struct WifiApConfig {
    pub name: String,
    pub stack: ActorId,
    /// AGW AAA endpoint (RADIUS auth port).
    pub agw_aaa: Endpoint,
    /// AGW actor for the fluid data path.
    pub agw_actor: ActorId,
    pub username: String,
    pub password: String,
    pub sector: SectorModel,
    pub tick: SimDuration,
    /// Aggregate hotspot demand behind this AP.
    pub dl_bps: u64,
    pub ul_bps: u64,
    /// Delay before first authentication.
    pub auth_at: SimDuration,
}

/// The AP actor.
pub struct WifiApActor {
    cfg: WifiApConfig,
    authed: bool,
    ip: Option<UeIp>,
    teid: Option<Teid>,
    ident: u8,
}

impl WifiApActor {
    pub fn new(cfg: WifiApConfig) -> Self {
        WifiApActor {
            cfg,
            authed: false,
            ip: None,
            teid: None,
            ident: 0,
        }
    }

    fn send_auth(&mut self, ctx: &mut Ctx<'_>) {
        self.ident = self.ident.wrapping_add(1);
        let pkt = RadiusPacket::new(RadiusCode::AccessRequest, self.ident)
            .with_attr(Attribute::string(attr::USER_NAME, &self.cfg.username))
            .with_attr(Attribute::string(attr::USER_PASSWORD, &self.cfg.password))
            .with_attr(Attribute::string(attr::ACCT_SESSION_ID, &self.cfg.name))
            .with_attr(Attribute::string(attr::CALLING_STATION_ID, &self.cfg.name));
        ctx.send_to(
            self.cfg.stack,
            &magma_agw::flows::WIFI_RADIUS_AUTH,
            Box::new(SockCmd::DgramSend {
                src_port: LOCAL_PORT,
                dst: self.cfg.agw_aaa,
                bytes: pkt.encode(),
            }),
        );
    }

    /// Tear down (sends Accounting Stop).
    pub fn stop_session(&mut self, ctx: &mut Ctx<'_>) {
        let pkt = RadiusPacket::new(RadiusCode::AccountingRequest, self.ident)
            .with_attr(Attribute::u32(attr::ACCT_STATUS_TYPE, acct_status::STOP))
            .with_attr(Attribute::string(attr::ACCT_SESSION_ID, &self.cfg.name));
        ctx.send_to(
            self.cfg.stack,
            &magma_agw::flows::WIFI_RADIUS_ACCT,
            Box::new(SockCmd::DgramSend {
                src_port: LOCAL_PORT,
                dst: Endpoint::new(self.cfg.agw_aaa.node, ports::RADIUS_ACCT),
                bytes: pkt.encode(),
            }),
        );
        self.authed = false;
    }
}

impl Actor for WifiApActor {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                let me = ctx.id();
                ctx.send_to(
                    self.cfg.stack,
                    &magma_net::flows::SOCK_CMD,
                    Box::new(SockCmd::ListenDgram {
                        port: LOCAL_PORT,
                        owner: me,
                    }),
                );
                ctx.timer_in(self.cfg.auth_at, T_AUTH);
                ctx.timer_in(self.cfg.tick, T_FLUID);
            }
            Event::Timer { tag: T_AUTH } => {
                if !self.authed {
                    self.send_auth(ctx);
                    // Retry until accepted (RADIUS is datagram-based).
                    ctx.send_self(&flows::WIFI_AUTH_TICK, SimDuration::from_secs(3), T_AUTH);
                }
            }
            Event::Timer { tag: T_FLUID } => {
                if self.authed {
                    if let Some(teid) = self.teid {
                        let tick = self.cfg.tick.as_secs_f64();
                        let mut ul = (self.cfg.ul_bps as f64 / 8.0 * tick) as u64;
                        let mut dl = (self.cfg.dl_bps as f64 / 8.0 * tick) as u64;
                        let scale = self.cfg.sector.clip_scale(ul + dl, tick);
                        ul = (ul as f64 * scale) as u64;
                        dl = (dl as f64 * scale) as u64;
                        let me = ctx.id();
                        ctx.send_to(
                            self.cfg.agw_actor,
                            &magma_agw::flows::FLUID_DEMAND,
                            Box::new(FluidDemand {
                                from_ran: me,
                                demands: vec![(teid, ul, dl)],
                            }),
                        );
                    }
                }
                ctx.timer_in(self.cfg.tick, T_FLUID);
            }
            Event::Timer { .. } => {}
            Event::Msg { payload, .. } => {
                // RADIUS replies arrive as datagrams. Fluid grants need no
                // AP-side bookkeeping: the AGW counts what it forwards.
                if let Ok(SockEvent::DgramRecv { bytes, .. }) = try_downcast::<SockEvent>(payload) {
                    let accept = RadiusPacket::decode(&bytes)
                        .ok()
                        .filter(|pkt| matches!(pkt.code, RadiusCode::AccessAccept));
                    if let Some(pkt) = accept {
                        self.authed = true;
                        self.ip = pkt
                            .get(attr::FRAMED_IP_ADDRESS)
                            .and_then(|a| a.as_u32())
                            .map(UeIp);
                        self.teid = pkt
                            .get(ATTR_TUNNEL_ID)
                            .and_then(|a| a.as_u32())
                            .map(Teid);
                        let t = ctx.now();
                        ctx.registry().record("ran.wifi.ap_authed", t, 1.0);
                    }
                }
            }
            Event::CpuDone { .. } => {}
        }
    }

    fn name(&self) -> String {
        self.cfg.name.clone()
    }
}
