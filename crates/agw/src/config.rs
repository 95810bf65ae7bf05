//! AGW configuration and CPU cost profiles.
//!
//! The CPU profiles calibrate the simulation to the paper's two test
//! machines (§4.1). The constants are chosen so the *saturation points*
//! match the paper, which is what Figures 5–8 are about:
//!
//! - **Bare metal** (Intel J3160, 4×1.6 GHz): the MME attach pipeline is
//!   effectively single-threaded and costs ~490 ms of core time per
//!   attach ⇒ the knee in Figure 6 sits at ≈2 attaches/s. User-plane
//!   forwarding sustains ~320 Mbit/s per core ⇒ a 3-eNodeB site's
//!   432 Mbit/s uses ~1.3 cores, leaving the RAN as the bottleneck
//!   (Figure 5).
//! - **VM** (Xeon 6126, 2.6 GHz vCPUs): the attach pipeline parallelizes
//!   across vCPUs at ~250 ms per attach ⇒ 4 vCPUs sustain ≈16 attaches/s
//!   (§4.2). User plane sustains ~550 Mbit/s per vCPU ⇒ throughput in
//!   Figure 7 scales with pinned cores until the 2.5 Gbit/s traffic-
//!   generator cap.

use magma_net::Endpoint;
use magma_sim::{ActorId, HostId, SimDuration};

/// Per-operation CPU costs for an AGW host, in core time at the host's
/// reference speed.
#[derive(Debug, Clone, Copy)]
pub struct CpuProfile {
    /// EPS-AKA vector generation + NAS crypto (the expensive stage).
    pub attach_auth: SimDuration,
    /// Session setup: mobilityd, sessiond, pipelined programming.
    pub attach_session: SimDuration,
    /// Miscellaneous per-message control-plane cost.
    pub nas_msg: SimDuration,
    /// User-plane forwarding capacity, bytes per core-second.
    pub up_bytes_per_core_sec: u64,
    /// Maximum concurrent attach-pipeline CPU jobs (MME threading model).
    pub mme_parallelism: u32,
}

impl CpuProfile {
    /// The paper's bare-metal AGW (Intel J3160 quad-core 1.6 GHz).
    pub fn bare_metal() -> Self {
        CpuProfile {
            attach_auth: SimDuration::from_millis(220),
            attach_session: SimDuration::from_millis(270),
            nas_msg: SimDuration::from_millis(2),
            up_bytes_per_core_sec: 40_000_000, // 320 Mbit/s per core
            // The MME pipeline overlaps two requests; clean attach
            // capacity ≈ 2/0.49s ≈ 4/s, degrading to the ~2/s knee of
            // Figure 6 when user-plane work contends for the same cores.
            mme_parallelism: 2,
        }
    }

    /// The paper's virtual AGW (Xeon 6126 vCPUs).
    pub fn vm() -> Self {
        CpuProfile {
            attach_auth: SimDuration::from_millis(110),
            attach_session: SimDuration::from_millis(140),
            nas_msg: SimDuration::from_millis(1),
            up_bytes_per_core_sec: 68_750_000, // 550 Mbit/s per vCPU
            mme_parallelism: 16,
        }
    }
}

/// Static configuration for one AGW instance.
#[derive(Debug, Clone)]
pub struct AgwConfig {
    /// Gateway id (e.g. `"agw-1"`), also the metrics prefix.
    pub id: String,
    /// CPU host this AGW's services run on.
    pub host: HostId,
    /// The node's network-stack actor.
    pub stack: ActorId,
    /// Orchestrator endpoint; `None` runs permanently headless.
    pub orc8r: Option<Endpoint>,
    /// Federation gateway endpoint; `Some` puts the AGW in federated mode
    /// (authentication via the external MNO core).
    pub feg: Option<Endpoint>,
    /// Core group for control-plane jobs (`"all"`, or `"cp"` when pinned).
    pub cp_group: String,
    /// Core group for user-plane jobs (`"all"`, or `"up"` when pinned).
    pub up_group: String,
    pub profile: CpuProfile,
    /// UE IP pool.
    pub ip_base: u32,
    pub ip_size: u32,
    /// Hardware identity token used at bootstrap.
    pub hw_token: u64,
}

impl AgwConfig {
    pub fn new(id: &str, host: HostId, stack: ActorId) -> Self {
        AgwConfig {
            id: id.to_string(),
            host,
            stack,
            orc8r: None,
            feg: None,
            cp_group: "all".to_string(),
            up_group: "all".to_string(),
            profile: CpuProfile::bare_metal(),
            ip_base: 0x0A00_0002, // 10.0.0.2
            ip_size: 4094,
            hw_token: 7,
        }
    }

    pub fn with_orc8r(mut self, ep: Endpoint) -> Self {
        self.orc8r = Some(ep);
        self
    }

    pub fn with_feg(mut self, ep: Endpoint) -> Self {
        self.feg = Some(ep);
        self
    }

    pub fn with_profile(mut self, p: CpuProfile) -> Self {
        self.profile = p;
        self
    }

    /// Statically pin control plane and user plane to separate core
    /// groups (Figures 7/8). The host must have groups `"cp"`/`"up"`.
    pub fn pinned(mut self) -> Self {
        self.cp_group = "cp".to_string();
        self.up_group = "up".to_string();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_metal_clean_capacity_is_four_per_second() {
        let p = CpuProfile::bare_metal();
        let per_attach = p.attach_auth + p.attach_session;
        let rate = p.mme_parallelism as f64 / per_attach.as_secs_f64();
        assert!((rate - 4.08).abs() < 0.1, "rate {rate}");
    }

    #[test]
    fn vm_supports_sixteen_per_second_on_four_vcpus() {
        let p = CpuProfile::vm();
        let per_attach = p.attach_auth + p.attach_session;
        let vcpus = 4.0_f64.min(p.mme_parallelism as f64);
        let rate = vcpus / per_attach.as_secs_f64();
        assert!((rate - 16.0).abs() < 0.1, "rate {rate}");
    }

    #[test]
    fn builder_modes() {
        let cfg = AgwConfig::new("agw-1", HostId(0), ActorId(1)).pinned();
        assert_eq!(cfg.cp_group, "cp");
        assert_eq!(cfg.up_group, "up");
        assert!(cfg.orc8r.is_none());
    }
}
