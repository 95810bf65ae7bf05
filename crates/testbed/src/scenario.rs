//! Scenario construction: wire up an orchestrator, AGWs, RAN elements,
//! and UE fleets into a runnable world — the role of the paper's
//! emulation testbed (§4.1).
//!
//! Emulated SIMs are pre-provisioned into the orchestrator and every AGW
//! replica before the run, "as is typical for network operator
//! deployments of Magma".

use magma_agw::{new_agw_handle, AgwActor, AgwConfig, AgwHandle, CpuProfile, MetricsdActor};
use magma_net::{Endpoint, LinkProfile, NetFabric, NodeAddr, ports};
use magma_orc8r::{new_orc8r, AlertRule, Orc8rActor, Orc8rHandle};
use magma_policy::PolicyRule;
use magma_ran::{ue_fleet, EnbConfig, EnodebActor, SectorModel, TrafficModel, UeSim};
use magma_sim::{ActorId, HostId, HostSpec, World};
use magma_subscriber::SubscriberProfile;
use magma_wire::Imsi;

/// SIM provisioning seed shared by UEs and subscriber profiles.
pub const SIM_SEED: u64 = 7;

/// Description of one cell site behind an AGW.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    pub enbs: usize,
    pub ues_per_enb: usize,
    /// Aggregate attach rate across the site's eNodeBs, UE/s.
    pub attach_rate_per_sec: f64,
    pub traffic: TrafficModel,
    pub sector: SectorModel,
    pub reattach: bool,
    /// Session churn lifetime range (IoT-style workloads).
    pub session_lifetime_s: Option<(u64, u64)>,
}

impl SiteSpec {
    /// The paper's "typical" site: 3 eNodeBs × 96 UEs, 3 UE/s aggregate
    /// attach rate, 1.5 Mbit/s HTTP downloads (Figure 5).
    pub fn typical() -> Self {
        SiteSpec {
            enbs: 3,
            ues_per_enb: 96,
            attach_rate_per_sec: 3.0,
            traffic: TrafficModel::http_download(),
            sector: SectorModel::ideal_enb(),
            reattach: false,
            session_lifetime_s: None,
        }
    }
}

/// CPU arrangement for an AGW host.
#[derive(Debug, Clone, Copy)]
pub enum CoreLayout {
    /// One shared group (the flexible kernel-scheduler configuration).
    Shared { cores: u32 },
    /// Statically pinned control-plane / user-plane groups (Figures 7/8).
    Pinned { cp: u32, up: u32 },
}

/// Description of one AGW and its site.
#[derive(Debug, Clone)]
pub struct AgwSpec {
    pub profile: CpuProfile,
    pub layout: CoreLayout,
    pub site: SiteSpec,
    pub backhaul: LinkProfile,
}

impl AgwSpec {
    /// The paper's bare-metal AGW at a typical site.
    pub fn bare_metal(site: SiteSpec) -> Self {
        AgwSpec {
            profile: CpuProfile::bare_metal(),
            layout: CoreLayout::Shared { cores: 4 },
            site,
            backhaul: LinkProfile::fiber(),
        }
    }

    /// The paper's VM AGW. Its cores run at the reference speed like
    /// every host's; the faster Xeon vCPUs are in [`CpuProfile::vm`]'s
    /// smaller per-operation costs.
    pub fn vm(site: SiteSpec, layout: CoreLayout) -> Self {
        AgwSpec {
            profile: CpuProfile::vm(),
            layout,
            site,
            backhaul: LinkProfile::fiber(),
        }
    }
}

/// Scenario-wide configuration.
pub struct ScenarioConfig {
    pub seed: u64,
    pub agws: Vec<AgwSpec>,
    /// Policy rules defined network-wide.
    pub policies: Vec<PolicyRule>,
    /// Rule names assigned to every subscriber.
    pub subscriber_rules: Vec<String>,
    /// OCS quota size (bytes) and optional per-subscriber balance.
    pub quota_bytes: u64,
    pub prepaid_balance: Option<u64>,
    /// Alert rules evaluated at the orchestrator against the windowed
    /// metric history (empty by default: alerting is opt-in).
    pub alert_rules: Vec<AlertRule>,
}

impl ScenarioConfig {
    pub fn new(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            agws: Vec::new(),
            policies: vec![PolicyRule::unrestricted("default")],
            subscriber_rules: vec!["default".to_string()],
            quota_bytes: 1_000_000,
            prepaid_balance: None,
            alert_rules: Vec::new(),
        }
    }

    pub fn with_agw(mut self, spec: AgwSpec) -> Self {
        self.agws.push(spec);
        self
    }

    pub fn with_policies(mut self, policies: Vec<PolicyRule>, assigned: Vec<String>) -> Self {
        self.policies = policies;
        self.subscriber_rules = assigned;
        self
    }

    pub fn with_alert_rules(mut self, rules: Vec<AlertRule>) -> Self {
        self.alert_rules = rules;
        self
    }
}

/// A wired AGW and its site.
pub struct AgwInstance {
    pub id: String,
    pub actor: ActorId,
    pub host: HostId,
    pub node: NodeAddr,
    pub stack: ActorId,
    pub handle: AgwHandle,
    pub enbs: Vec<ActorId>,
    /// The gateway's metricsd telemetry daemon.
    pub metricsd: ActorId,
    /// Configuration used, for restarts.
    pub cfg: AgwConfig,
    pub up_cores: u32,
}

/// A fully built scenario.
pub struct Scenario {
    pub world: World,
    /// The physical network.
    pub net: NetFabric,
    pub orc8r: Orc8rHandle,
    pub orc8r_node: NodeAddr,
    pub orc8r_actor: ActorId,
    pub agws: Vec<AgwInstance>,
    /// All provisioned IMSIs.
    pub imsis: Vec<Imsi>,
}

/// IMSI numbering: AGW `a`, eNB `e`, UE `u` → MSIN.
pub fn msin_for(agw: usize, enb: usize, ue: usize) -> u64 {
    (agw as u64) * 100_000 + (enb as u64) * 1_000 + ue as u64 + 1
}

/// Build a scenario from its configuration.
pub fn build(cfg: ScenarioConfig) -> Scenario {
    let mut world = World::new(cfg.seed);
    // Experiments want attribution: simprof is on for every testbed world
    // (the library default is off; see docs/PROFILING.md).
    world.enable_profiling(true);
    // Likewise magma-trace: every testbed world records causal span
    // trees so experiments can export Perfetto timelines and the
    // critical-path report (see docs/OBSERVABILITY.md § Tracing).
    world.enable_tracing(true);
    // Every actor below gets a racecheck component: `orc8r[0]` for the
    // orchestrator, `agw[i]` for gateway site i (docs/DETERMINISM.md
    // § Logical races).
    let net = NetFabric::new();
    // Per-link RNG streams derive from (seed, src, dst): loss/jitter
    // draws are schedule-independent under racecheck's permuted runs.
    net.set_seed(cfg.seed);
    let orc8r = new_orc8r(cfg.quota_bytes);
    orc8r.borrow_mut().alert_rules = cfg.alert_rules.clone();

    // Orchestrator node.
    let orc8r_node = net.add_node("orc8r");
    let orc8r_stack = net.add_stack(&mut world, orc8r_node);
    world.set_component(orc8r_stack, "orc8r[0]");
    let orc8r_actor = world.add_actor(Box::new(Orc8rActor::new(
        orc8r.clone(),
        orc8r_stack,
        ports::ORC8R,
    )));
    world.set_component(orc8r_actor, "orc8r[0]");

    // Define policies before computing the snapshot.
    for p in &cfg.policies {
        orc8r.borrow_mut().upsert_policy(p.clone());
    }

    // Provision subscribers for every UE in every site.
    let mut imsis = Vec::new();
    for (a, spec) in cfg.agws.iter().enumerate() {
        for e in 0..spec.site.enbs {
            for u in 0..spec.site.ues_per_enb {
                let msin = msin_for(a, e, u);
                let imsi = Imsi::new(310, 26, msin);
                imsis.push(imsi);
                let rules: Vec<&str> =
                    cfg.subscriber_rules.iter().map(|s| s.as_str()).collect();
                let profile =
                    SubscriberProfile::lte(imsi, SIM_SEED, msin).with_rules(&rules);
                orc8r.borrow_mut().upsert_subscriber(profile);
                if let Some(balance) = cfg.prepaid_balance {
                    orc8r.borrow_mut().provision_balance(imsi, balance);
                }
            }
        }
    }
    let snapshot = orc8r.borrow().db.snapshot();

    // Build AGWs and their sites.
    let mut agws = Vec::new();
    for (a, spec) in cfg.agws.iter().enumerate() {
        let id = format!("agw{a}");
        let host_spec = match spec.layout {
            CoreLayout::Shared { cores } => HostSpec::uniform(&id, cores, 1.0),
            CoreLayout::Pinned { cp, up } => HostSpec::pinned(&id, cp, up, 1.0),
        };
        let host = world.add_host(host_spec);
        let site = format!("agw[{a}]");
        let node = net.add_node(&id);
        net.connect(node, orc8r_node, spec.backhaul);
        let stack = net.add_stack(&mut world, node);
        world.set_component(stack, &site);

        let mut agw_cfg = AgwConfig::new(&id, host, stack)
            .with_orc8r(Endpoint::new(orc8r_node, ports::ORC8R))
            .with_profile(spec.profile);
        agw_cfg.ip_base = 0x0A00_0002 + (a as u32) * 0x0001_0000;
        if matches!(spec.layout, CoreLayout::Pinned { .. }) {
            agw_cfg = agw_cfg.pinned();
        }
        let handle = new_agw_handle();
        let mut actor = AgwActor::new(agw_cfg.clone(), handle.clone());
        actor.preprovision(snapshot.clone());
        let up_cores = match spec.layout {
            CoreLayout::Shared { cores } => cores,
            CoreLayout::Pinned { up, .. } => up,
        };
        actor.set_up_cores(up_cores);
        let agw_actor = world.add_actor(Box::new(actor));
        world.set_component(agw_actor, &site);

        // Telemetry daemon: samples the gateway's registry namespace and
        // pushes it to the orchestrator over the same backhaul (its own
        // stream on the shared network stack).
        let metricsd = world.add_actor(Box::new(MetricsdActor::new(&agw_cfg)));
        world.set_component(metricsd, &site);

        // Per-eNB attach rate splits the site's aggregate rate.
        let per_enb_rate = spec.site.attach_rate_per_sec / spec.site.enbs.max(1) as f64;
        let mut enbs = Vec::new();
        for e in 0..spec.site.enbs {
            let enb_node = net.add_node(&format!("{id}-enb{e}"));
            net.connect(enb_node, node, LinkProfile::lan());
            let enb_stack = net.add_stack(&mut world, enb_node);
            world.set_component(enb_stack, &site);
            let ues: Vec<UeSim> = ue_fleet(
                SIM_SEED,
                msin_for(a, e, 0),
                spec.site.ues_per_enb,
                spec.site.traffic,
            );
            let mut enb_cfg = EnbConfig::new(
                (a as u32) << 8 | e as u32,
                enb_stack,
                Endpoint::new(node, ports::S1AP),
                agw_actor,
            );
            enb_cfg.sector = spec.site.sector;
            enb_cfg.attach_rate_per_sec = per_enb_rate;
            enb_cfg.reattach = spec.site.reattach;
            enb_cfg.session_lifetime_s = spec.site.session_lifetime_s;
            let enb = world.add_actor(Box::new(EnodebActor::new(enb_cfg, ues)));
            world.set_component(enb, &site);
            enbs.push(enb);
        }

        agws.push(AgwInstance {
            id,
            actor: agw_actor,
            host,
            node,
            stack,
            handle,
            enbs,
            metricsd,
            cfg: agw_cfg,
            up_cores,
        });
    }

    Scenario {
        world,
        net,
        orc8r,
        orc8r_node,
        orc8r_actor,
        agws,
        imsis,
    }
}
