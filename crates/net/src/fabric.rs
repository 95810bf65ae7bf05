//! The world's network: one [`Topology`] behind a cloneable handle.
//!
//! The scenario harness builds the network through [`NetFabric`] and
//! injects faults with it (partitions, profile swaps).
//! [`NetFabric::add_stack`] puts a node's [`NetStack`] into the world and
//! binds it to the node; every stack transmits through its own clone of
//! the handle.

use crate::addr::NodeAddr;
use crate::link::LinkProfile;
use crate::stack::NetStack;
use crate::topology::{LinkStats, Topology};
use magma_sim::{ActorId, SimTime, World};
use std::cell::RefCell;
use std::rc::Rc;

/// Handle on the world's topology. Clones share it.
#[derive(Clone, Default)]
pub struct NetFabric {
    net: Rc<RefCell<Topology>>,
}

impl NetFabric {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the world seed the per-link RNG streams derive from (see
    /// [`Topology::set_seed`]).
    pub fn set_seed(&self, seed: u64) {
        self.net.borrow_mut().set_seed(seed);
    }

    /// Allocate a node address.
    pub fn add_node(&self, name: &str) -> NodeAddr {
        self.net.borrow_mut().add_node(name)
    }

    /// Add `node`'s network stack to `world` and bind it, so frames
    /// addressed to the node reach it. A stack restarted in place
    /// (`World::restart` with [`NetStack::new`]) keeps its actor id, and
    /// so its binding.
    pub fn add_stack(&self, world: &mut World, node: NodeAddr) -> ActorId {
        let stack = world.add_actor(Box::new(NetStack::new(node, self.clone())));
        self.net.borrow_mut().bind_stack(node, stack);
        stack
    }

    pub fn stack_of(&self, node: NodeAddr) -> Option<ActorId> {
        self.net.borrow().stack_of(node)
    }

    /// Connect two nodes symmetrically.
    pub fn connect(&self, a: NodeAddr, b: NodeAddr, profile: LinkProfile) {
        self.net.borrow_mut().connect(a, b, profile);
    }

    /// Connect two nodes with asymmetric profiles.
    pub fn connect_asym(&self, a: NodeAddr, b: NodeAddr, a_to_b: LinkProfile, b_to_a: LinkProfile) {
        self.net.borrow_mut().connect_asym(a, b, a_to_b, b_to_a);
    }

    /// Bring both directions of a link up or down (partition injection).
    pub fn set_link_up(&self, a: NodeAddr, b: NodeAddr, up: bool) {
        self.net.borrow_mut().set_link_up(a, b, up);
    }

    /// Replace both directions' profiles (e.g., degrade fiber→satellite).
    pub fn set_profile(&self, a: NodeAddr, b: NodeAddr, profile: LinkProfile) {
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

    /// See [`Topology::transmit`].
    pub(crate) fn transmit(
        &self,
        now: SimTime,
        src: NodeAddr,
        dst: NodeAddr,
        size: usize,
    ) -> Option<(SimTime, ActorId)> {
        self.net.borrow_mut().transmit(now, src, dst, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_get_sequential_addresses_and_stack_bindings() {
        let mut w = World::new(1);
        let f = NetFabric::new();
        let a = f.add_node("a");
        let b = f.add_node("b");
        let c = f.add_node("c");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(f.stack_of(b), None);
        let stack = f.add_stack(&mut w, b);
        assert_eq!(f.stack_of(b), Some(stack));
        assert_eq!(
            f.clone().stack_of(b),
            Some(stack),
            "clones share the topology"
        );
    }

    #[test]
    fn fault_injection_reaches_the_shared_topology() {
        let mut w = World::new(1);
        let f = NetFabric::new();
        let a = f.add_node("a");
        let b = f.add_node("b");
        f.connect(a, b, LinkProfile::lan());
        f.add_stack(&mut w, a);
        f.add_stack(&mut w, b);
        // Stacks transmit through clones of the fabric.
        let net = f.clone();
        assert!(net.transmit(SimTime::ZERO, a, b, 100).is_some());
        assert!(net.transmit(SimTime::ZERO, b, a, 100).is_some());
        // A partition reaches both directions.
        f.set_link_up(a, b, false);
        assert!(!f.link_up(a, b));
        assert!(!f.link_up(b, a));
        assert!(net.transmit(SimTime::ZERO, a, b, 100).is_none());
        f.set_link_up(a, b, true);
        assert_eq!(f.stats(a, b).dropped, 1);
        assert_eq!(f.stats(a, b).delivered, 1);
    }
}
