//! Declarative message-flow kinds: the typed layer over the kernel's raw
//! `send`/`send_in`/`timer_in` primitives, and the graph they form.
//!
//! Every production actor-to-actor edge is declared once as a
//! [`FlowKind`] const, and every actor declares the kinds it handles with
//! the [`flow_dispatch!`] macro. Each crate exports its surfaces as a
//! `DISPATCHES` const and `magma` collects them. The graph is the union
//! of their accepts lists: [`check`] proves the properties the schedule
//! relies on — no cycle of zero-delay edges, every request names its
//! timer, every multi-sender receiver documents its same-timestamp
//! tie-break — and [`render`] writes `docs/MESSAGE_FLOW.md`. Both run in
//! `tests/flow_graph.rs`. See `docs/DETERMINISM.md` (rules F001–F004,
//! S007).
//!
//! Completeness is checked at run time. [`Ctx::send_to`],
//! [`Ctx::send_to_in`] and [`Ctx::send_self`](crate::Ctx::send_self)
//! debug-assert that the target's surface takes the kind, that the
//! sender's surface falls under the kind's sender, and that the declared
//! delay class matches what the kernel schedules. Release builds pay
//! nothing for it.
//!
//! [`Ctx::send_to`]: crate::Ctx::send_to
//! [`Ctx::send_to_in`]: crate::Ctx::send_to_in
//! [`flow_dispatch!`]: crate::flow_dispatch

use std::collections::{BTreeMap, BTreeSet};

/// Delay class of a flow edge — its relationship to virtual time.
///
/// - `Zero` edges deliver at the sending instant; a cycle of them could
///   livelock virtual time (rule F002).
/// - `Local` edges are positive-delay self-edges (timers driving
///   deadlines and re-sends); they never leave the actor.
/// - `Transport` edges cross a modeled network link with positive,
///   link-dependent latency — the only edges that may join two racecheck
///   components (rule S007).
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
/// The role feeds two graph rules: `Request` kinds must name their timer
/// (rule F004), and `Response` kinds are excluded from zero-delay cycle
/// detection (rule F002) because a response is demand-bounded — one per
/// request — and therefore cannot amplify into a same-timestamp livelock
/// loop on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// One-way data / notification edge.
    Data,
    /// Expects a response; must declare `retry: Some("<timer kind>")`.
    Request,
    /// The bounded answer to a `Request` (or to a hub command).
    Response,
    /// A positive-delay self-edge driving deadlines and re-sends.
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
/// graph, declared as a `pub const`:
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
#[derive(Debug, PartialEq)]
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
    /// sender) whose firing drives this request's timeout path. For an
    /// RPC call that is the deadline and the reconnect, never a re-send:
    /// the stream under the call is the one loss-recovery layer. For
    /// datagram and S1AP requests the timer re-sends.
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
    /// from two or more distinct senders (rule F003). `None` is only
    /// acceptable while at most one sender can target the actor.
    pub tie_break: Option<&'static str>,
    /// The const's name, as declared.
    pub ident: &'static str,
    /// The file that declares it.
    pub file: &'static str,
}

impl Dispatch {
    /// Whether a send of `kind` may land on this surface: the surface
    /// accepts it, or the surface is a hub — it takes a kind any actor
    /// may send, as the local stack does — and `kind` is a Transport
    /// edge whose first hop hands the payload to that hub.
    pub fn takes(&self, kind: &FlowKind) -> bool {
        let hub = || self.accepts.iter().any(|k| k.sender == "*");
        self.accepts.iter().any(|k| k.name == kind.name)
            || (kind.class == DelayClass::Transport && hub())
    }
}

/// Whether `actor` falls under the dotted name `name`: the name itself,
/// a descendant (`agw` covers `agw.epc_baseline`), or anyone for `"*"`.
pub(crate) fn under(name: &str, actor: &str) -> bool {
    name == "*"
        || actor
            .strip_prefix(name)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

/// Declare an actor's dispatch surface as a `pub const` [`Dispatch`],
/// recording the const's name and declaring file for the rendered graph.
///
/// The accepts list holds *paths* to [`FlowKind`] consts, so a typo'd
/// kind is a compile error:
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
/// assert_eq!(AGW_DISPATCH.ident, "AGW_DISPATCH");
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
            ident: stringify!($name),
            file: file!(),
        };
    };
}

/// One graph property that does not hold, under the rule id
/// `docs/DETERMINISM.md` lists it by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub msg: String,
}

/// Every kind in the graph — the union of the accepts lists — ordered by
/// `(sender, name)`, each declaration once.
pub fn kinds(dispatches: &[&Dispatch]) -> Vec<&'static FlowKind> {
    let mut kinds: Vec<&'static FlowKind> =
        dispatches.iter().flat_map(|d| d.accepts.iter().copied()).collect();
    kinds.sort_by_key(|k| (k.sender, k.name));
    kinds.dedup();
    kinds
}

/// F001–F004 and S007 over the graph the surfaces form.
pub fn check(dispatches: &[&Dispatch]) -> Vec<Finding> {
    let kinds = kinds(dispatches);
    let mut out = Vec::new();
    let mut find = |rule, msg| out.push(Finding { rule, msg });

    // F001: a wire name names one declaration.
    let mut by_name: BTreeMap<&str, &FlowKind> = BTreeMap::new();
    for k in &kinds {
        if let Some(first) = by_name.insert(k.name, k) {
            find(
                "F001",
                format!("flow kind {:?} is declared twice: {first:?} and {k:?}", k.name),
            );
        }
    }
    for k in &kinds {
        // F001: some arm sits on the kind's receiver.
        let arms: Vec<&&Dispatch> =
            dispatches.iter().filter(|d| d.accepts.contains(k)).collect();
        if !arms.iter().any(|d| under(k.receiver, d.actor)) {
            for d in arms {
                find(
                    "F001",
                    format!(
                        "dispatch `{}` ({}) on actor {:?} accepts {:?}, whose receiver is {:?}",
                        d.ident, d.file, d.actor, k.name, k.receiver
                    ),
                );
            }
        }
        // F004: a request names its timer, a Timer self-edge of its sender.
        if k.role == Role::Request && k.retry.is_none() {
            find(
                "F004",
                format!(
                    "request kind {:?} names no timer — a request needs the Timer-role \
                     kind that drives its deadline",
                    k.name
                ),
            );
        }
        if let Some(t) = k.retry {
            match by_name.get(t) {
                Some(timer) if timer.role == Role::Timer && timer.sender == k.sender => {}
                Some(timer) => find(
                    "F004",
                    format!(
                        "kind {:?} names timer {t:?}, which is role {} sender {:?} — it must \
                         be a Timer-role self-edge of {:?}",
                        k.name,
                        timer.role.as_str(),
                        timer.sender,
                        k.sender
                    ),
                ),
                None => find(
                    "F004",
                    format!("kind {:?} names timer {t:?}, which no surface accepts", k.name),
                ),
            }
        }
    }

    // F002: a cycle of zero-delay edges (Response edges are
    // demand-bounded, wildcard endpoints are hub fan-in/fan-out). Drop
    // edges into actors with no zero-delay edge out until nothing
    // changes; what is left lies on a cycle or between two.
    let mut zero: Vec<&FlowKind> = kinds
        .iter()
        .copied()
        .filter(|k| k.class == DelayClass::Zero && k.role != Role::Response)
        .filter(|k| k.sender != "*" && k.receiver != "*")
        .collect();
    loop {
        let senders: BTreeSet<&str> = zero.iter().map(|k| k.sender).collect();
        let before = zero.len();
        zero.retain(|k| senders.contains(k.receiver));
        if zero.len() == before {
            break;
        }
    }
    if !zero.is_empty() {
        let path: Vec<String> = zero
            .iter()
            .map(|k| format!("{} -({})-> {}", k.sender, k.name, k.receiver))
            .collect();
        find(
            "F002",
            format!(
                "zero-delay send cycle: {} — same-instant messages can livelock virtual time",
                path.join(", ")
            ),
        );
    }

    // A hub is an actor with a transport self-edge (`net.stack`): one
    // name, one instance per node, so its frames come from many senders.
    let hubs: BTreeSet<&str> = kinds
        .iter()
        .filter(|k| k.class == DelayClass::Transport && k.sender == k.receiver)
        .map(|k| k.sender)
        .collect();
    for d in dispatches {
        // F003: a multi-sender surface documents its tie-break key.
        let senders: BTreeSet<&str> = d.accepts.iter().map(|k| k.sender).collect();
        let Some(key) = d.tie_break else {
            if senders.contains("*") || senders.len() >= 2 {
                find(
                    "F003",
                    format!(
                        "dispatch `{}` ({}) accepts kinds from senders {senders:?} but declares \
                         no tie_break — same-timestamp deliveries from distinct senders need a \
                         documented commutativity key",
                        d.ident, d.file
                    ),
                );
            }
            continue;
        };
        // S007: a surface taking transport kinds from two top-level
        // sender namespaces, a wildcard or a hub names the sender in its
        // key, or the window schedule picks which component's delivery
        // wins.
        let transport: Vec<&FlowKind> = d
            .accepts
            .iter()
            .copied()
            .filter(|k| k.class == DelayClass::Transport)
            .collect();
        let tops: BTreeSet<&str> =
            transport.iter().filter_map(|k| k.sender.split('.').next()).collect();
        let hub = transport.iter().any(|k| hubs.contains(k.sender));
        if !hub && tops.len() < 2 && !tops.contains("*") {
            continue;
        }
        const SENDER_WORDS: &[&str] = &["sender", "src", "from", "peer", "source", "origin"];
        let lower = key.to_lowercase();
        let mut words = lower.split(|c: char| !c.is_ascii_alphanumeric() && c != '_');
        if !words.any(|w| SENDER_WORDS.contains(&w)) {
            let names: Vec<&str> = transport.iter().map(|k| k.name).collect();
            find(
                "S007",
                format!(
                    "dispatch `{}` ({}) accepts transport kinds {names:?} from senders {tops:?} \
                     but its tie-break key {key:?} never names the sender (mention \
                     sender/src/from/peer/source/origin)",
                    d.ident, d.file
                ),
            );
        }
    }
    out
}

/// F001's run-time half: over the kind names a run handed to the kernel
/// and the RPC layer (`World::kinds_sent`), every kind in the graph was
/// sent, and nothing was sent that no surface accepts.
pub fn coverage(dispatches: &[&Dispatch], sent: &BTreeSet<&str>) -> Vec<Finding> {
    let graph: BTreeSet<&str> = kinds(dispatches).iter().map(|k| k.name).collect();
    let never = graph.difference(sent).map(|n| format!("flow kind {n:?} is never sent"));
    let orphan = sent
        .difference(&graph)
        .map(|n| format!("flow kind {n:?} is sent, but no surface accepts it"));
    never.chain(orphan).map(|msg| Finding { rule: "F001", msg }).collect()
}

/// Render the graph as `docs/MESSAGE_FLOW.md`: one section per actor
/// listing its dispatch surfaces and in/out/self edges, with the timer
/// F004 validates on the edge that names one. Byte-deterministic: every
/// section iterates sorted structures.
pub fn render(dispatches: &[&Dispatch]) -> String {
    let kinds = kinds(dispatches);
    let mut dispatches = dispatches.to_vec();
    dispatches.sort_by_key(|d| (d.actor, d.file));
    let mut out = String::from("# Message-flow graph\n\n");
    out.push_str(
        "<!-- GENERATED by tests/flow_graph.rs from the typed FlowKind / Dispatch consts.\n\
         \x20    Do not edit by hand. Regenerate with:\n\
         \x20        rm docs/MESSAGE_FLOW.md && cargo test -p magma --test flow_graph\n\
         \x20    Drift fails that test. -->\n\n",
    );
    out.push_str(
        "Every production actor-to-actor edge, the union of the workspace's\n\
         typed dispatch surfaces. Delay classes:\n\n\
         - **zero** — delivered at the sending instant.\n\
         - **local** — positive-delay self-edge (timer); never leaves the actor.\n\
         - **transport** — rides a modeled link with positive latency.\n\n",
    );
    // `[class/role]`, plus the timer on the sender's lines.
    let tag = |k: &FlowKind, with_retry: bool| {
        let retry = match (k.retry, with_retry) {
            (Some(t), true) => format!(", retry `{t}`"),
            _ => String::new(),
        };
        format!("[{}/{}{retry}]", k.class.as_str(), k.role.as_str())
    };

    out.push_str("## Actors\n\n");
    let mut actors: BTreeSet<&str> = dispatches.iter().map(|d| d.actor).collect();
    actors.extend(kinds.iter().flat_map(|k| [k.sender, k.receiver]));
    actors.remove("*");
    for actor in actors {
        out.push_str(&format!("### `{actor}`\n\n"));
        let own: Vec<&&Dispatch> = dispatches.iter().filter(|d| d.actor == actor).collect();
        for d in &own {
            let tie = d.tie_break.map_or_else(
                || "none (single-sender surface)".to_string(),
                |t| format!("{t:?}"),
            );
            out.push_str(&format!("- dispatch `{}` ({}), tie-break: {tie}\n", d.ident, d.file));
        }
        // Inbound edges: what the actor's surfaces accept (minus its own
        // self-edges, listed under `self:`). An actor with no surface (a
        // sender-only aggregate) falls back to exact receiver matching.
        for k in &kinds {
            let inbound = if own.is_empty() {
                k.receiver == actor
            } else {
                own.iter().any(|d| d.accepts.contains(k))
            };
            if inbound && k.sender != actor {
                out.push_str(&format!("- in: `{}` ← `{}` {}\n", k.name, k.sender, tag(k, false)));
            }
        }
        for k in kinds.iter().filter(|k| k.sender == actor && k.receiver != actor) {
            out.push_str(&format!("- out: `{}` → `{}` {}\n", k.name, k.receiver, tag(k, true)));
        }
        for k in kinds.iter().filter(|k| k.sender == actor && k.receiver == actor) {
            out.push_str(&format!("- self: `{}` {}\n", k.name, tag(k, true)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Actor, ActorId, Ctx, Event, World};
    use DelayClass::{Local, Transport, Zero};
    use Role::{Data, Request, Timer};

    const fn kind(
        name: &'static str,
        sender: &'static str,
        receiver: &'static str,
        class: DelayClass,
        role: Role,
        retry: Option<&'static str>,
    ) -> FlowKind {
        FlowKind { name, sender, receiver, class, role, retry }
    }

    pub const PING: FlowKind = kind("test.ping", "a", "b", Zero, Data, None);

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
        assert_eq!(B_DISPATCH.ident, "B_DISPATCH");
        assert_eq!(B_DISPATCH.file, "crates/sim/src/flow.rs");
        assert_eq!(PING.class.as_str(), "zero");
        assert_eq!(PING.role.as_str(), "data");
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // Planted bad graphs, one per finding each rule exists for; `check`
    // (or `coverage`) must report each. An accepts entry that names no
    // declared kind cannot be planted: it is a compile error.

    const ORPHAN: FlowKind = kind("mme.orphan", "agw", "orc8r", Transport, Data, None);
    flow_dispatch! {
        const ORPHAN_ARM: actor = "agw",
        accepts = [ORPHAN],
        tie_break = Some("n/a"),
    }
    flow_dispatch! {
        const ORPHAN_HOME: actor = "orc8r",
        accepts = [ORPHAN],
        tie_break = None,
    }

    #[test]
    fn f001_fires_on_orphan_kinds() {
        // An arm on an actor that is not the kind's receiver.
        let found = check(&[&ORPHAN_ARM]);
        assert_eq!(rules(&found), ["F001"], "{found:?}");
        assert!(found[0].msg.contains("`ORPHAN_ARM`") && found[0].msg.contains("\"orc8r\""));
        // Declared but never sent, and sent with no arm: the run-time half.
        let sent = BTreeSet::from(["mme.stray"]);
        let found = coverage(&[&ORPHAN_HOME], &sent);
        assert_eq!(rules(&found), ["F001", "F001"], "{found:?}");
        assert!(found[0].msg.contains("\"mme.orphan\" is never sent"));
        assert!(found[1].msg.contains("\"mme.stray\" is sent, but no surface accepts it"));
        assert!(coverage(&[&ORPHAN_HOME], &BTreeSet::from(["mme.orphan"])).is_empty());
    }

    const DUP_A: FlowKind = kind("mme.dup", "agw", "orc8r", Transport, Data, None);
    const DUP_B: FlowKind = kind("mme.dup", "agw", "orc8r", Zero, Data, None);
    flow_dispatch! {
        const DUP_DISPATCH: actor = "orc8r",
        accepts = [DUP_A, DUP_B],
        tie_break = None,
    }

    #[test]
    fn f001_fires_on_a_wire_name_declared_twice() {
        let found = check(&[&DUP_DISPATCH]);
        assert_eq!(rules(&found), ["F001"], "{found:?}");
        assert!(found[0].msg.contains("\"mme.dup\" is declared twice"));
    }

    const ZPING: FlowKind = kind("mme.ping", "agw", "orc8r", Zero, Data, None);
    const ZPONG: FlowKind = kind("mme.pong", "orc8r", "agw", Zero, Data, None);
    flow_dispatch! {
        const ZAGW: actor = "agw",
        accepts = [ZPONG],
        tie_break = Some("n/a"),
    }
    flow_dispatch! {
        const ZORC8R: actor = "orc8r",
        accepts = [ZPING],
        tie_break = Some("n/a"),
    }

    #[test]
    fn f002_fires_on_zero_delay_cycle() {
        let found = check(&[&ZAGW, &ZORC8R]);
        assert_eq!(rules(&found), ["F002"], "{found:?}");
        assert!(found[0].msg.contains("mme.ping") && found[0].msg.contains("mme.pong"));
        // Either edge alone is no cycle.
        assert!(check(&[&ZAGW]).is_empty());
    }

    const FROM_RAN: FlowKind = kind("mme.from_ran", "ran", "agw", Transport, Data, None);
    const FROM_FEG: FlowKind = kind("mme.from_feg", "feg", "agw", Transport, Data, None);
    flow_dispatch! {
        const NO_KEY: actor = "agw",
        accepts = [FROM_RAN, FROM_FEG],
        tie_break = None,
    }
    flow_dispatch! {
        const CONSTANT_KEY: actor = "agw",
        accepts = [FROM_RAN, FROM_FEG],
        tie_break = Some("round-robin ingress slot"),
    }
    flow_dispatch! {
        const SENDER_KEY: actor = "agw",
        accepts = [FROM_RAN, FROM_FEG],
        tie_break = Some("sender connection + call id"),
    }

    #[test]
    fn f003_fires_on_multi_sender_dispatch_without_tie_break() {
        let found = check(&[&NO_KEY]);
        assert_eq!(rules(&found), ["F003"], "{found:?}");
        assert!(found[0].msg.contains("`NO_KEY`"));
    }

    #[test]
    fn s007_fires_on_sender_blind_cut_edge_tie_break() {
        let found = check(&[&CONSTANT_KEY]);
        assert_eq!(rules(&found), ["S007"], "{found:?}");
        let msg = &found[0].msg;
        assert!(msg.contains("never names the sender"), "{msg}");
        assert!(msg.contains("mme.from_ran") && msg.contains("mme.from_feg"), "{msg}");
        assert!(check(&[&SENDER_KEY]).is_empty());
    }

    const NAKED: FlowKind = kind("mme.naked_request", "agw", "orc8r", Transport, Request, None);
    const DANGLING: FlowKind =
        kind("mme.dangling_retry", "agw", "orc8r", Transport, Request, Some("mme.missing_tick"));
    flow_dispatch! {
        const REQUESTS: actor = "orc8r",
        accepts = [NAKED, DANGLING],
        tie_break = Some("rpc call id"),
    }

    #[test]
    fn f004_fires_on_requests_without_valid_retry_edges() {
        let found = check(&[&REQUESTS]);
        assert_eq!(rules(&found), ["F004", "F004"], "{found:?}");
        assert!(found.iter().any(|f| f.msg.contains("\"mme.naked_request\" names no timer")));
        assert!(found.iter().any(|f| f.msg.contains("\"mme.missing_tick\", which no surface")));
    }

    const SYNC_REQUEST: FlowKind =
        kind("mme.sync_request", "agw", "orc8r", Transport, Request, Some("mme.sync_tick"));
    const SYNC_TICK: FlowKind = kind("mme.sync_tick", "agw", "agw", Local, Timer, None);
    flow_dispatch! {
        const SYNC_ORC8R: actor = "orc8r",
        accepts = [SYNC_REQUEST],
        tie_break = Some("rpc call id"),
    }
    flow_dispatch! {
        /// Single sender (agw's own tick): no tie-break contract needed.
        const SYNC_AGW: actor = "agw",
        accepts = [SYNC_TICK],
        tie_break = None,
    }

    #[test]
    fn consistent_flow_graph_checks_clean() {
        assert!(check(&[&SYNC_ORC8R, &SYNC_AGW]).is_empty());
        assert_eq!(kinds(&[&SYNC_ORC8R, &SYNC_AGW]).len(), 2);
        let sent = BTreeSet::from(["mme.sync_request", "mme.sync_tick"]);
        assert!(coverage(&[&SYNC_ORC8R, &SYNC_AGW], &sent).is_empty());
    }

    #[test]
    fn f006_stale_message_flow_doc_differs_from_the_render() {
        let stale = "# Message-flow graph\n\nStale by design.\n";
        let doc = render(&[&SYNC_ORC8R, &SYNC_AGW]);
        assert_ne!(doc, stale);
        assert_eq!(doc, render(&[&SYNC_AGW, &SYNC_ORC8R]), "order-independent");
        let actors = &doc[doc.find("## Actors").expect("actors section")..];
        assert_eq!(
            actors,
            "## Actors\n\n### `agw`\n\n\
             - dispatch `SYNC_AGW` (crates/sim/src/flow.rs), tie-break: none (single-sender surface)\n\
             - out: `mme.sync_request` → `orc8r` [transport/request, retry `mme.sync_tick`]\n\
             - self: `mme.sync_tick` [local/timer]\n\n\
             ### `orc8r`\n\n\
             - dispatch `SYNC_ORC8R` (crates/sim/src/flow.rs), tie-break: \"rpc call id\"\n\
             - in: `mme.sync_request` ← `agw` [transport/request]\n\n"
        );
    }

    /// An actor with a surface that takes `test.ping` only.
    struct OnlyPing;
    impl Actor for OnlyPing {
        fn dispatch(&self) -> Option<&'static Dispatch> {
            Some(&B_DISPATCH)
        }
        fn handle(&mut self, _: &mut Ctx<'_>, _: Event) {}
    }

    /// A test actor (no surface) that sends `kind` to actor 0 on start.
    struct SendsTo(&'static FlowKind);
    impl Actor for SendsTo {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            if let Event::Start = event {
                ctx.send_to(ActorId(0), self.0, Box::new(()));
            }
        }
    }

    #[test]
    fn a_send_the_target_accepts_passes() {
        let mut w = World::new(1);
        w.add_actor(Box::new(OnlyPing));
        w.add_actor(Box::new(SendsTo(&PING)));
        w.run_until(crate::SimTime::from_secs(1));
        assert!(matches!(w.surfaces(), [Some(_), None]));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "test.pong sent to `B_DISPATCH`, which does not accept it")]
    fn a_send_the_target_does_not_accept_panics_in_debug_builds() {
        const PONG: FlowKind = kind("test.pong", "a", "b", Zero, Data, None);
        let mut w = World::new(1);
        w.add_actor(Box::new(OnlyPing));
        w.add_actor(Box::new(SendsTo(&PONG)));
        w.run_until(crate::SimTime::from_secs(1));
    }
}
