//! Network topology: nodes, directed links, and frame forwarding.
//!
//! All node network stacks of a single-threaded simulation world share
//! one topology through [`NetFabric`](crate::NetFabric). The testbed holds
//! the same handle to inject faults: taking a backhaul link down,
//! degrading it to a satellite profile, or partitioning the orchestrator.

use crate::addr::NodeAddr;
use crate::link::{Link, LinkProfile, TxOutcome};
use magma_sim::{ActorId, SimTime};
use std::collections::BTreeMap;

/// Per-link RNG seed: a pure function of `(world seed, src, dst)`, so a
/// link's loss/jitter stream is identical no matter when the link was
/// connected or re-seeded relative to its siblings.
fn link_seed(seed: u64, src: NodeAddr, dst: NodeAddr) -> u64 {
    magma_sim::racecheck::splitmix64(seed ^ ((src.0 as u64) << 32) ^ dst.0 as u64)
}

/// Aggregate delivery statistics for one direction of a link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkStats {
    pub delivered: u64,
    pub dropped: u64,
    pub bytes: u64,
}

/// The set of nodes and links making up the simulated network.
pub struct Topology {
    names: BTreeMap<NodeAddr, String>,
    stacks: BTreeMap<NodeAddr, ActorId>,
    links: BTreeMap<(NodeAddr, NodeAddr), Link>,
    next_addr: u32,
    /// World seed for per-link RNG derivation; see [`Topology::set_seed`].
    seed: u64,
}

impl Topology {
    pub fn new() -> Self {
        Topology {
            names: BTreeMap::new(),
            stacks: BTreeMap::new(),
            links: BTreeMap::new(),
            next_addr: 0,
            seed: 0,
        }
    }

    /// Set the world seed the per-link RNG streams derive from. Existing
    /// links are re-seeded and future connects pick the seed up, so call
    /// order relative to `connect` does not matter.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
        for (&(a, b), l) in self.links.iter_mut() {
            l.reseed(link_seed(seed, a, b));
        }
    }

    /// Allocate a new node address.
    pub fn add_node(&mut self, name: &str) -> NodeAddr {
        let addr = NodeAddr(self.next_addr);
        self.next_addr += 1;
        self.names.insert(addr, name.to_string());
        addr
    }

    /// Associate the node's network-stack actor with its address. Must be
    /// called before frames can be delivered to the node.
    pub fn bind_stack(&mut self, node: NodeAddr, stack: ActorId) {
        self.stacks.insert(node, stack);
    }

    pub fn stack_of(&self, node: NodeAddr) -> Option<ActorId> {
        self.stacks.get(&node).copied()
    }

    pub fn name_of(&self, node: NodeAddr) -> &str {
        self.names.get(&node).map(|s| s.as_str()).unwrap_or("?")
    }

    /// Connect two nodes with symmetric link profiles.
    pub fn connect(&mut self, a: NodeAddr, b: NodeAddr, profile: LinkProfile) {
        self.connect_asym(a, b, profile, profile);
    }

    /// Connect two nodes with asymmetric profiles (e.g., satellite
    /// downlink faster than uplink).
    pub fn connect_asym(
        &mut self,
        a: NodeAddr,
        b: NodeAddr,
        a_to_b: LinkProfile,
        b_to_a: LinkProfile,
    ) {
        let mut fwd = Link::new(a_to_b);
        fwd.reseed(link_seed(self.seed, a, b));
        let mut rev = Link::new(b_to_a);
        rev.reseed(link_seed(self.seed, b, a));
        self.links.insert((a, b), fwd);
        self.links.insert((b, a), rev);
    }

    /// Bring both directions of a link up or down (partition injection).
    pub fn set_link_up(&mut self, a: NodeAddr, b: NodeAddr, up: bool) {
        if let Some(l) = self.links.get_mut(&(a, b)) {
            l.up = up;
        }
        if let Some(l) = self.links.get_mut(&(b, a)) {
            l.up = up;
        }
    }

    /// Replace both directions' profiles (e.g., degrade fiber→satellite).
    pub fn set_profile(&mut self, a: NodeAddr, b: NodeAddr, profile: LinkProfile) {
        if let Some(l) = self.links.get_mut(&(a, b)) {
            l.profile = profile;
        }
        if let Some(l) = self.links.get_mut(&(b, a)) {
            l.profile = profile;
        }
    }

    pub fn link_up(&self, a: NodeAddr, b: NodeAddr) -> bool {
        self.links.get(&(a, b)).map(|l| l.up).unwrap_or(false)
    }

    pub fn stats(&self, a: NodeAddr, b: NodeAddr) -> LinkStats {
        self.links
            .get(&(a, b))
            .map(|l| LinkStats {
                delivered: l.frames_delivered,
                dropped: l.frames_dropped,
                bytes: l.bytes_delivered,
            })
            .unwrap_or_default()
    }

    /// Offer a frame of `size` bytes from `src` to `dst`. On success returns
    /// the arrival time and the destination stack actor. `None` means the
    /// frame was dropped (loss, backlog, link down, or no route).
    pub fn transmit(
        &mut self,
        now: SimTime,
        src: NodeAddr,
        dst: NodeAddr,
        size: usize,
    ) -> Option<(SimTime, ActorId)> {
        let link = self.links.get_mut(&(src, dst))?;
        match link.transmit(now, size) {
            TxOutcome::Delivered { arrival } => {
                let stack = self.stacks.get(&dst).copied()?;
                Some((arrival, stack))
            }
            TxOutcome::Dropped => None,
        }
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_sim::SimDuration;

    #[test]
    fn transmit_requires_route_and_stack() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        // No link yet.
        assert!(t.transmit(SimTime::ZERO, a, b, 100).is_none());
        t.connect(a, b, LinkProfile::lan());
        // Link but no stack bound.
        assert!(t.transmit(SimTime::ZERO, a, b, 100).is_none());
        t.bind_stack(b, ActorId(5));
        let (arrival, stack) = t.transmit(SimTime::ZERO, a, b, 100).unwrap();
        assert_eq!(stack, ActorId(5));
        assert!(arrival > SimTime::ZERO);
    }

    #[test]
    fn partition_drops_frames_and_restores() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.connect(a, b, LinkProfile::lan());
        t.bind_stack(a, ActorId(0));
        t.bind_stack(b, ActorId(1));
        t.set_link_up(a, b, false);
        assert!(t.transmit(SimTime::ZERO, a, b, 100).is_none());
        assert!(t.transmit(SimTime::ZERO, b, a, 100).is_none());
        t.set_link_up(a, b, true);
        assert!(t.transmit(SimTime::ZERO, a, b, 100).is_some());
        assert_eq!(t.stats(a, b).dropped, 1);
    }

    #[test]
    fn asymmetric_profiles() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.connect_asym(
            a,
            b,
            LinkProfile::lan(),
            LinkProfile::lan().with_latency(SimDuration::from_millis(100)),
        );
        t.bind_stack(a, ActorId(0));
        t.bind_stack(b, ActorId(1));
        let (fwd, _) = t.transmit(SimTime::ZERO, a, b, 100).unwrap();
        let (rev, _) = t.transmit(SimTime::ZERO, b, a, 100).unwrap();
        assert!(rev.since(SimTime::ZERO) > fwd.since(SimTime::ZERO));
    }

    #[test]
    fn set_seed_reseeds_existing_and_future_links_identically() {
        // Two topologies: one seeded before connecting, one after. The
        // per-link streams must match — seed derivation is a pure
        // function of (seed, src, dst), not call order.
        let run = |seed_first: bool| {
            let mut t = Topology::new();
            let a = t.add_node("a");
            let b = t.add_node("b");
            if seed_first {
                t.set_seed(9);
                t.connect(a, b, LinkProfile::lan().with_loss(0.5));
            } else {
                t.connect(a, b, LinkProfile::lan().with_loss(0.5));
                t.set_seed(9);
            }
            t.bind_stack(a, ActorId(0));
            t.bind_stack(b, ActorId(1));
            let mut arrivals = Vec::new();
            for i in 0..50u64 {
                let now = SimTime::from_millis(i * 10);
                arrivals.push(t.transmit(now, a, b, 100).map(|(at, _)| at));
            }
            arrivals
        };
        assert_eq!(run(true), run(false));
    }
}
