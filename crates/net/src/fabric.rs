//! The scenario harness's handle on the physical network.
//!
//! [`NetFabric`] owns the one [`Topology`](crate::Topology) of a world
//! and is the facade the harness builds it through and injects faults
//! with (partitions, profile swaps). Every node's
//! [`NetStack`](crate::NetStack) shares the topology through
//! [`NetFabric::handle`].

use crate::addr::NodeAddr;
use crate::link::LinkProfile;
use crate::topology::{new_net, LinkStats, NetHandle};
use magma_sim::ActorId;

/// The world's topology behind a building/fault-injection facade. Owned
/// (not `Rc`-shared) by the scenario harness.
pub struct NetFabric {
    net: NetHandle,
}

impl NetFabric {
    pub fn new() -> Self {
        NetFabric { net: new_net() }
    }

    /// Set the world seed the per-link RNG streams derive from (see
    /// [`crate::Topology::set_seed`]).
    pub fn set_seed(&mut self, seed: u64) {
        self.net.borrow_mut().set_seed(seed);
    }

    /// The shared topology handle — what gets passed to
    /// [`NetStack::new`](crate::NetStack::new).
    pub fn handle(&self) -> NetHandle {
        self.net.clone()
    }

    /// Allocate a node address.
    pub fn add_node(&mut self, name: &str) -> NodeAddr {
        self.net.borrow_mut().add_node(name)
    }

    /// Bind a node's stack actor. Must be re-invoked when a stack actor
    /// is replaced (restart).
    pub fn bind_stack(&mut self, node: NodeAddr, stack: ActorId) {
        self.net.borrow_mut().bind_stack(node, stack);
    }

    pub fn stack_of(&self, node: NodeAddr) -> Option<ActorId> {
        self.net.borrow().stack_of(node)
    }

    /// Connect two nodes symmetrically.
    pub fn connect(&mut self, a: NodeAddr, b: NodeAddr, profile: LinkProfile) {
        self.net.borrow_mut().connect(a, b, profile);
    }

    /// Connect two nodes with asymmetric profiles.
    pub fn connect_asym(
        &mut self,
        a: NodeAddr,
        b: NodeAddr,
        a_to_b: LinkProfile,
        b_to_a: LinkProfile,
    ) {
        self.net.borrow_mut().connect_asym(a, b, a_to_b, b_to_a);
    }

    /// Bring both directions of a link up or down (partition injection).
    pub fn set_link_up(&mut self, a: NodeAddr, b: NodeAddr, up: bool) {
        self.net.borrow_mut().set_link_up(a, b, up);
    }

    /// Replace both directions' profiles (e.g., degrade fiber→satellite).
    pub fn set_profile(&mut self, a: NodeAddr, b: NodeAddr, profile: LinkProfile) {
        self.net.borrow_mut().set_profile(a, b, profile);
    }

    /// Whether the `a → b` direction is up.
    pub fn link_up(&self, a: NodeAddr, b: NodeAddr) -> bool {
        self.net.borrow().link_up(a, b)
    }

    /// Delivery statistics for the `a → b` direction.
    pub fn stats(&self, a: NodeAddr, b: NodeAddr) -> LinkStats {
        self.net.borrow().stats(a, b)
    }
}

impl Default for NetFabric {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_sim::SimTime;

    #[test]
    fn nodes_get_sequential_addresses_and_stack_bindings() {
        let mut f = NetFabric::new();
        let a = f.add_node("a");
        let b = f.add_node("b");
        let c = f.add_node("c");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(f.stack_of(b), None);
        f.bind_stack(b, ActorId(8));
        assert_eq!(f.stack_of(b), Some(ActorId(8)));
        assert_eq!(f.handle().borrow().stack_of(b), Some(ActorId(8)));
    }

    #[test]
    fn fault_injection_reaches_the_shared_topology() {
        let mut f = NetFabric::new();
        let a = f.add_node("a");
        let b = f.add_node("b");
        f.connect(a, b, LinkProfile::lan());
        f.bind_stack(a, ActorId(7));
        f.bind_stack(b, ActorId(8));
        // Stacks transmit through the handle the fabric hands out.
        let net = f.handle();
        assert!(net
            .borrow_mut()
            .transmit(SimTime::ZERO, a, b, 100)
            .is_some());
        assert!(net
            .borrow_mut()
            .transmit(SimTime::ZERO, b, a, 100)
            .is_some());
        // A partition reaches both directions.
        f.set_link_up(a, b, false);
        assert!(!f.link_up(a, b));
        assert!(!f.link_up(b, a));
        assert!(net
            .borrow_mut()
            .transmit(SimTime::ZERO, a, b, 100)
            .is_none());
        f.set_link_up(a, b, true);
        assert_eq!(f.stats(a, b).dropped, 1);
        assert_eq!(f.stats(a, b).delivered, 1);
    }
}
