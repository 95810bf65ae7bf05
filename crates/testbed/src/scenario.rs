//! Scenario construction: wire up an orchestrator, AGWs, RAN elements,
//! and UE fleets into a runnable world — the role of the paper's
//! emulation testbed (§4.1).
//!
//! Emulated SIMs are pre-provisioned into the orchestrator and every AGW
//! replica before the run, "as is typical for network operator
//! deployments of Magma".
//!
//! Every deployment is composed on a [`Scenario`]. [`build`] adds the
//! orchestrator and the configured gateways with their sites; then
//! [`Scenario::add_agw`] adds a gateway from the orchestrator's database
//! as it stands, [`Scenario::add_node`] a linked node with its stack, and
//! [`Scenario::add_behind`] any actor (a gNB, a WiFi AP, a test peer) on
//! a new node behind a gateway. [`Scenario::crash_agw`] /
//! [`Scenario::restart_agw`] and [`Scenario::crash_orc8r`] /
//! [`Scenario::restart_orc8r`] take a machine down and bring it back.
//! [`Scenario::add_feg`] puts a FeG beside the orchestrator, with the MNO
//! core behind it; a gateway whose [`AgwSpec::feg`] names it federates.

use magma_agw::{new_agw_handle, AgwActor, AgwConfig, AgwHandle, CpuProfile, MetricsdActor};
use magma_feg::{FegActor, MnoCoreActor};
use magma_net::{Endpoint, LinkProfile, NetFabric, NetStack, NodeAddr, ports};
use magma_orc8r::{new_orc8r, AlertRule, Orc8rActor, Orc8rHandle};
use magma_policy::PolicyRule;
use magma_ran::{ue_fleet, EnbConfig, EnodebActor, SectorModel, TrafficModel, UeSim};
use magma_sim::{Actor, ActorId, HostId, HostSpec, World};
use magma_subscriber::{DbSnapshot, SubscriberDb, SubscriberProfile};
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
    /// The FeG a federated gateway authenticates subscribers it does not
    /// hold through (§3.6); [`Scenario::add_agw`] links the gateway to
    /// the FeG's node over fiber.
    pub feg: Option<Endpoint>,
}

impl AgwSpec {
    /// The paper's bare-metal AGW at a typical site.
    pub fn bare_metal(site: SiteSpec) -> Self {
        AgwSpec {
            profile: CpuProfile::bare_metal(),
            layout: CoreLayout::Shared { cores: 4 },
            site,
            backhaul: LinkProfile::fiber(),
            feg: None,
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
            feg: None,
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
}

impl AgwInstance {
    /// A new AGW process for this gateway's machine that holds nothing
    /// yet: no sessions, no replica, no cert.
    pub fn fresh(&self) -> AgwActor {
        AgwActor::new(self.cfg.clone(), self.handle.clone())
    }
}

/// A fully built scenario.
pub struct Scenario {
    pub world: World,
    /// The physical network.
    pub net: NetFabric,
    pub orc8r: Orc8rHandle,
    pub orc8r_node: NodeAddr,
    pub orc8r_stack: ActorId,
    pub orc8r_actor: ActorId,
    pub agws: Vec<AgwInstance>,
    /// All provisioned IMSIs.
    pub imsis: Vec<Imsi>,
}

/// IMSI numbering: AGW `a`, eNB `e`, UE `u` → MSIN.
pub fn msin_for(agw: usize, enb: usize, ue: usize) -> u64 {
    (agw as u64) * 100_000 + (enb as u64) * 1_000 + ue as u64 + 1
}

/// Build a scenario from its configuration: the orchestrator, then every
/// policy and site subscriber, then the gateways in order, all holding
/// one snapshot of the orchestrator's database.
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
    let mut sc = Scenario {
        world,
        net,
        orc8r,
        orc8r_node,
        orc8r_stack,
        orc8r_actor,
        agws: Vec::new(),
        imsis,
    };
    for spec in &cfg.agws {
        sc.push_agw(spec, &snapshot);
    }
    sc
}

impl Scenario {
    /// Add a node named `name`, link it to `peer` over `link`, and put a
    /// network stack on it.
    pub fn add_node(
        &mut self,
        name: &str,
        peer: NodeAddr,
        link: LinkProfile,
    ) -> (NodeAddr, ActorId) {
        let node = self.net.add_node(name);
        self.net.connect(node, peer, link);
        let stack = self.net.add_stack(&mut self.world, node);
        (node, stack)
    }

    /// Add an orchestrated AGW, its metricsd and its site (UEs numbered
    /// by [`msin_for`] under the new gateway's index), holding the
    /// orchestrator's database as it stands: upsert the site's
    /// subscribers first.
    pub fn add_agw(&mut self, spec: &AgwSpec) {
        let snapshot = self.orc8r.borrow().db.snapshot();
        self.push_agw(spec, &snapshot);
    }

    fn push_agw(&mut self, spec: &AgwSpec, snapshot: &DbSnapshot) {
        let a = self.agws.len();
        let id = format!("agw{a}");
        let host_spec = match spec.layout {
            CoreLayout::Shared { cores } => HostSpec::uniform(&id, cores, 1.0),
            CoreLayout::Pinned { cp, up } => HostSpec::pinned(&id, cp, up, 1.0),
        };
        let host = self.world.add_host(host_spec);
        let site = format!("agw[{a}]");
        let (node, stack) = self.add_node(&id, self.orc8r_node, spec.backhaul);
        self.world.set_component(stack, &site);

        let mut agw_cfg = AgwConfig::new(&id, host, stack)
            .with_orc8r(Endpoint::new(self.orc8r_node, ports::ORC8R))
            .with_profile(spec.profile);
        agw_cfg.ip_base = 0x0A00_0002 + (a as u32) * 0x0001_0000;
        if matches!(spec.layout, CoreLayout::Pinned { .. }) {
            agw_cfg = agw_cfg.pinned();
        }
        if let Some(feg) = spec.feg {
            self.net.connect(node, feg.node, LinkProfile::fiber());
            agw_cfg = agw_cfg.with_feg(feg);
        }
        let handle = new_agw_handle();
        let mut actor = AgwActor::new(agw_cfg.clone(), handle.clone());
        actor.preprovision(snapshot.clone());
        let agw_actor = self.world.add_actor(Box::new(actor));
        self.world.set_component(agw_actor, &site);

        // Telemetry daemon: samples the gateway's registry namespace and
        // pushes it to the orchestrator over the same backhaul (its own
        // stream on the shared network stack).
        let metricsd = self.world.add_actor(Box::new(MetricsdActor::new(&agw_cfg)));
        self.world.set_component(metricsd, &site);
        self.agws.push(AgwInstance {
            id: id.clone(),
            actor: agw_actor,
            host,
            node,
            stack,
            handle,
            enbs: Vec::new(),
            metricsd,
            cfg: agw_cfg,
        });

        // Per-eNB attach rate splits the site's aggregate rate.
        let per_enb_rate = spec.site.attach_rate_per_sec / spec.site.enbs.max(1) as f64;
        for e in 0..spec.site.enbs {
            let enb = self.add_behind(a, &format!("{id}-enb{e}"), |enb_stack| {
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
                EnodebActor::new(enb_cfg, ues)
            });
            self.agws[a].enbs.push(enb);
        }
    }

    /// Add a Federation Gateway beside the orchestrator and, behind it,
    /// an MNO core whose HSS holds `mno` (§3.6), both over fiber. Returns
    /// the FeG's endpoint, for [`AgwSpec::feg`].
    pub fn add_feg(&mut self, mno: SubscriberDb) -> Endpoint {
        let (feg_node, feg_stack) = self.add_node("feg", self.orc8r_node, LinkProfile::fiber());
        let (mno_node, mno_stack) = self.add_node("mno", feg_node, LinkProfile::fiber());
        self.world.add_actor(Box::new(MnoCoreActor::new(mno_stack, mno)));
        let diameter = Endpoint::new(mno_node, ports::DIAMETER);
        self.world.add_actor(Box::new(FegActor::new(feg_stack, diameter)));
        Endpoint::new(feg_node, ports::FEG)
    }

    /// Put the actor `make` builds from its stack on a new node behind
    /// gateway `i` (a LAN link), under gateway `i`'s racecheck component.
    pub fn add_behind<A: Actor + 'static>(
        &mut self,
        i: usize,
        name: &str,
        make: impl FnOnce(ActorId) -> A,
    ) -> ActorId {
        let site = format!("agw[{i}]");
        let gateway = self.agws[i].node;
        let (_, stack) = self.add_node(name, gateway, LinkProfile::lan());
        self.world.set_component(stack, &site);
        let actor = self.world.add_actor(Box::new(make(stack)));
        self.world.set_component(actor, &site);
        actor
    }

    /// Crash gateway `i`'s machine: its AGW process and its network
    /// stack. The handle, and the local checkpoint in it, survive.
    pub fn crash_agw(&mut self, i: usize) {
        self.world.crash(self.agws[i].actor);
        self.world.crash(self.agws[i].stack);
    }

    /// Bring gateway `i`'s machine back with a new network stack (same
    /// actor id, so its binding holds) and `agw` as its process: a
    /// [`AgwInstance::fresh`] one, or one from `AgwActor::restore` or
    /// `AgwActor::restore_from_wire`.
    pub fn restart_agw(&mut self, i: usize, agw: impl Actor + 'static) {
        let gw = &self.agws[i];
        let stack = NetStack::new(gw.node, self.net.clone());
        self.world.restart(gw.stack, Box::new(stack));
        self.world.restart(gw.actor, Box::new(agw));
    }

    /// Crash the orchestrator's machine: its process and its network
    /// stack. Its durable store (the handle) survives.
    pub fn crash_orc8r(&mut self) {
        self.world.crash(self.orc8r_actor);
        self.world.crash(self.orc8r_stack);
    }

    /// Bring the orchestrator's machine back: a new stack and a new
    /// process on the same durable store.
    pub fn restart_orc8r(&mut self) {
        let stack = NetStack::new(self.orc8r_node, self.net.clone());
        self.world.restart(self.orc8r_stack, Box::new(stack));
        let process = Orc8rActor::new(self.orc8r.clone(), self.orc8r_stack, ports::ORC8R);
        self.world.restart(self.orc8r_actor, Box::new(process));
    }
}
