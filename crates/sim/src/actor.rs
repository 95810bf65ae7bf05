//! Actors: event-driven state machines hosted by the simulation [`World`].
//!
//! Every service in the reproduced system — an MME, an eNodeB, the
//! orchestrator's config service, a UE fleet — is an [`Actor`]: a state
//! machine that receives [`Event`]s and reacts by updating state and
//! scheduling further events through the [`Ctx`] handle. This mirrors the
//! "event-driven, poll-based" style of production network stacks (smoltcp,
//! OVS): no async runtime, no hidden concurrency, fully deterministic.
//!
//! [`World`]: crate::engine::World
//! [`Ctx`]: crate::engine::Ctx

use crate::cpu::HostId;
use std::any::Any;
use std::fmt;

/// Identifies an actor within a [`World`](crate::engine::World).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Message payload: any `'static` value, downcast by the receiver.
///
/// Cross-crate actors exchange their own strongly-typed messages; the
/// simulator core stays agnostic of them.
pub type Payload = Box<dyn Any>;

/// An event delivered to an actor.
pub enum Event {
    /// Delivered once when the actor is started (or restarted after a
    /// crash). Actors arm their initial timers here.
    Start,
    /// A timer armed via [`Ctx::timer_in`](crate::engine::Ctx::timer_in)
    /// fired. The `tag` is the caller-chosen discriminator.
    Timer { tag: u64 },
    /// A message from another actor (possibly itself).
    Msg { from: ActorId, payload: Payload },
    /// A CPU job submitted via [`Ctx::exec`](crate::engine::Ctx::exec)
    /// finished executing. `queued` is how long the job waited for a core.
    CpuDone {
        tag: u64,
        payload: Payload,
        host: HostId,
        group: u32,
        queued: crate::time::SimDuration,
    },
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Start => write!(f, "Start"),
            Event::Timer { tag } => write!(f, "Timer({tag})"),
            Event::Msg { from, .. } => write!(f, "Msg(from={from})"),
            Event::CpuDone { tag, queued, .. } => {
                write!(f, "CpuDone(tag={tag}, queued={queued})")
            }
        }
    }
}

/// An event-driven simulation participant.
pub trait Actor {
    /// React to one event. All side effects flow through `ctx`.
    fn handle(&mut self, ctx: &mut crate::engine::Ctx<'_>, event: Event);

    /// Human-readable name used in logs and panics.
    fn name(&self) -> String {
        "actor".to_string()
    }

    /// The actor's declared dispatch surface. Debug builds check every
    /// typed send to and from the actor against it. `None` is for test
    /// actors, which declare none.
    fn dispatch(&self) -> Option<&'static crate::flow::Dispatch> {
        None
    }
}

/// Convenience: downcast a payload to a concrete message type, panicking
/// with a useful message if the sender and receiver disagree on the type.
pub fn downcast<T: 'static>(payload: Payload, receiver: &str) -> T {
    match payload.downcast::<T>() {
        Ok(b) => *b,
        Err(_) => panic!(
            "{receiver}: unexpected message type (wanted {})",
            std::any::type_name::<T>()
        ),
    }
}

/// Convenience: try to downcast, returning the payload back on mismatch.
pub fn try_downcast<T: 'static>(payload: Payload) -> Result<T, Payload> {
    payload.downcast::<T>().map(|b| *b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downcast_roundtrip() {
        let p: Payload = Box::new(42u32);
        assert_eq!(downcast::<u32>(p, "test"), 42);
    }

    #[test]
    fn try_downcast_mismatch_returns_payload() {
        let p: Payload = Box::new("hello".to_string());
        let back = try_downcast::<u32>(p).unwrap_err();
        assert_eq!(downcast::<String>(back, "test"), "hello");
    }

    #[test]
    #[should_panic(expected = "unexpected message type")]
    fn downcast_mismatch_panics() {
        let p: Payload = Box::new(1u8);
        downcast::<u64>(p, "test");
    }
}
