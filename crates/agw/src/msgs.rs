//! Messages on the AGW's data path and the shared inspection handle.
//!
//! RAN elements exchange *fluid* traffic demands with their AGW as direct
//! actor messages: the eNodeB↔AGW link is a co-located LAN (§4.1), and
//! bulk user traffic is modeled at flow level (see `magma-dataplane`).
//! Control-plane traffic (S1AP/NAS, RPC) always crosses the simulated
//! network.

use crate::checkpoint::AgwCheckpoint;
use magma_sim::{ActorId, SimDuration};
use magma_wire::Teid;
use std::cell::RefCell;
use std::rc::Rc;

/// The fluid data path's tick: every RAN element offers one
/// [`FluidDemand`] per tick and its AGW answers with one [`FluidGrant`],
/// so both sides of the exchange must step at this one cadence.
pub const FLUID_TICK: SimDuration = SimDuration::from_millis(100);

/// Per-tick offered load from one RAN element, already clipped to its
/// radio capacity. `(tunnel, uplink_bytes, downlink_bytes)`.
#[derive(Debug, Clone)]
pub struct FluidDemand {
    pub from_ran: ActorId,
    pub demands: Vec<(Teid, u64, u64)>,
}

/// Bytes actually forwarded for each tunnel this tick (after meters,
/// credit blocks, and CPU capacity). One grant per entry of the
/// [`FluidDemand`] it answers, in that demand's order.
#[derive(Debug, Clone)]
pub struct FluidGrant {
    pub grants: Vec<(Teid, u64, u64)>,
}

/// Shared inspection/backup handle for one AGW.
///
/// The periodic runtime-state checkpoint (§3.3: "checkpointed regularly
/// and may be copied to a backup instance") is published here; the
/// testbed's failover injector restores a fresh AGW instance from it.
#[derive(Debug, Default)]
pub struct AgwShared {
    pub checkpoint: Option<AgwCheckpoint>,
    pub active_sessions: usize,
    pub connected_enbs: usize,
    pub last_db_version: u64,
}

pub type AgwHandle = Rc<RefCell<AgwShared>>;

pub fn new_agw_handle() -> AgwHandle {
    Rc::new(RefCell::new(AgwShared::default()))
}
