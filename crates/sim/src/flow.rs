//! Declarative message-flow kinds: the statically-analyzable layer over
//! the kernel's raw `send`/`send_in`/`timer_in` primitives.
//!
//! Every production actor-to-actor edge is declared once as a
//! [`FlowKind`] const — a struct literal whose fields (`name`, `sender`,
//! `receiver`, `class`, `role`, `retry`) are all compile-time literals —
//! and every actor declares the kinds it handles with the
//! [`flow_dispatch!`] macro. Because both are plain const items,
//! `magma-lint` can extract the full directed graph of
//! `(sender, kind, receiver, delay class)` edges *lexically*, without a
//! type checker, and prove properties the schedule relies on: no cycle of
//! zero-delay edges, every request carries a retry edge, and every
//! multi-sender receiver documents its same-timestamp tie-break. See
//! `docs/MESSAGE_FLOW.md` (generated) and `docs/DETERMINISM.md` (rules
//! F001–F006, S004, S006, S007).
//!
//! The runtime side is deliberately thin: [`Ctx::send_to`],
//! [`Ctx::send_to_in`], and [`Ctx::send_self`](crate::Ctx::send_self)
//! are pass-throughs to the raw primitives plus debug assertions that
//! keep the declared delay class honest against what the kernel actually
//! schedules — so the static graph is sound, not aspirational.
//!
//! [`Ctx::send_to`]: crate::Ctx::send_to
//! [`Ctx::send_to_in`]: crate::Ctx::send_to_in
//! [`flow_dispatch!`]: crate::flow_dispatch

/// Delay class of a flow edge — its relationship to virtual time.
///
/// - `Zero` edges deliver at the sending instant; a cycle of them could
///   livelock virtual time (lint F002).
/// - `Local` edges are positive-delay self-edges (timers driving
///   retries/timeouts); they never leave the actor.
/// - `Transport` edges cross a modeled network link with positive,
///   link-dependent latency — the only edges that may join two racecheck
///   components (lint S007).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DelayClass {
    /// Same-instant delivery (virtual time does not advance).
    Zero,
    /// Positive-delay self-edge (timer).
    Local,
    /// Crosses a modeled link; positive latency.
    Transport,
}

impl DelayClass {
    pub fn as_str(&self) -> &'static str {
        match self {
            DelayClass::Zero => "zero",
            DelayClass::Local => "local",
            DelayClass::Transport => "transport",
        }
    }
}

/// Protocol role of a flow kind.
///
/// The role feeds two static rules: `Request` kinds must name a retry
/// edge (lint F004), and `Response` kinds are excluded from zero-delay
/// cycle detection (lint F002) because a response is demand-bounded —
/// one per request — and therefore cannot amplify into a same-timestamp
/// livelock loop on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// One-way data / notification edge.
    Data,
    /// Expects a response; must declare `retry: Some("<timer kind>")`.
    Request,
    /// The bounded answer to a `Request` (or to a hub command).
    Response,
    /// A positive-delay self-edge driving retries/timeouts.
    Timer,
}

impl Role {
    pub fn as_str(&self) -> &'static str {
        match self {
            Role::Data => "data",
            Role::Request => "request",
            Role::Response => "response",
            Role::Timer => "timer",
        }
    }
}

/// One declared class of messages: a directed edge in the message-flow
/// graph. Declare as a `pub const` struct literal so `magma-lint` can
/// read every field without type analysis:
///
/// ```
/// use magma_sim::{DelayClass, FlowKind, Role};
///
/// pub const FLUID_DEMAND: FlowKind = FlowKind {
///     name: "ran.fluid_demand",
///     sender: "ran",
///     receiver: "agw",
///     class: DelayClass::Zero,
///     role: Role::Data,
///     retry: None,
/// };
/// ```
///
/// `sender`/`receiver` are *logical* actor names (`agw`, `orc8r`,
/// `ran.enb`, …). A name is a dotted hierarchy: a kind whose receiver is
/// `ran` may be dispatched by `ran.enb` and `ran.wifi`; `"*"` means "any
/// actor" (hub edges). A kind may describe an end-to-end edge (class
/// `Transport`) even when the first physical hop hands the payload to
/// the local network stack at the same instant.
#[derive(Debug)]
pub struct FlowKind {
    /// Stable dotted identifier; for RPC request kinds this doubles as
    /// the wire method string.
    pub name: &'static str,
    /// Logical sending actor (dotted hierarchy, `"*"` = any).
    pub sender: &'static str,
    /// Logical receiving actor (dotted hierarchy, `"*"` = any).
    pub receiver: &'static str,
    pub class: DelayClass,
    pub role: Role,
    /// For `Request` kinds: the `name` of the `Timer`-role kind (same
    /// sender) whose firing drives this request's timeout/retry path.
    pub retry: Option<&'static str>,
}

/// An actor's declared dispatch surface: which kinds it handles, and the
/// key by which same-timestamp deliveries from distinct senders commute
/// (or an explicit statement that kernel FIFO order is relied upon).
/// Produced by [`flow_dispatch!`](crate::flow_dispatch).
#[derive(Debug)]
pub struct Dispatch {
    /// Logical actor name (dotted hierarchy).
    pub actor: &'static str,
    /// Every kind this actor has a handling arm for.
    pub accepts: &'static [&'static FlowKind],
    /// Deterministic tie-break contract for same-timestamp deliveries
    /// from two or more distinct senders (lint F003). `None` is only
    /// acceptable while at most one sender can target the actor.
    pub tie_break: Option<&'static str>,
}

/// Declare an actor's dispatch surface as a `pub const` [`Dispatch`].
///
/// The accepts list holds *paths* to [`FlowKind`] consts, so a typo'd
/// kind is a compile error — while the invocation stays a flat literal
/// block that `magma-lint` parses lexically:
///
/// ```
/// # use magma_sim::flow_dispatch;
/// # pub mod flows {
/// #     use magma_sim::{DelayClass, FlowKind, Role};
/// #     pub const FLUID_DEMAND: FlowKind = FlowKind {
/// #         name: "ran.fluid_demand", sender: "ran", receiver: "agw",
/// #         class: DelayClass::Zero, role: Role::Data, retry: None,
/// #     };
/// # }
/// flow_dispatch! {
///     pub const AGW_DISPATCH: actor = "agw",
///     accepts = [flows::FLUID_DEMAND],
///     tie_break = Some("teid (per-tunnel state; cross-tunnel commutes)"),
/// }
/// ```
#[macro_export]
macro_rules! flow_dispatch {
    (
        $(#[$meta:meta])*
        $vis:vis const $name:ident: actor = $actor:literal,
        accepts = [ $($kind:path),* $(,)? ],
        tie_break = $tb:expr $(,)?
    ) => {
        $(#[$meta])*
        $vis const $name: $crate::flow::Dispatch = $crate::flow::Dispatch {
            actor: $actor,
            accepts: &[ $( & $kind ),* ],
            tie_break: $tb,
        };
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    pub const PING: FlowKind = FlowKind {
        name: "test.ping",
        sender: "a",
        receiver: "b",
        class: DelayClass::Zero,
        role: Role::Data,
        retry: None,
    };

    flow_dispatch! {
        const B_DISPATCH: actor = "b",
        accepts = [PING],
        tie_break = None,
    }

    #[test]
    fn dispatch_macro_expands_to_const_literals() {
        assert_eq!(B_DISPATCH.actor, "b");
        assert_eq!(B_DISPATCH.accepts.len(), 1);
        assert_eq!(B_DISPATCH.accepts[0].name, "test.ping");
        assert_eq!(B_DISPATCH.accepts[0].class, DelayClass::Zero);
        assert!(B_DISPATCH.accepts[0].retry.is_none());
        assert!(B_DISPATCH.tie_break.is_none());
        assert_eq!(PING.class.as_str(), "zero");
        assert_eq!(PING.role.as_str(), "data");
    }
}
