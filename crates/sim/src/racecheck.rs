//! # magma-racecheck — logical-race detection via permuted window schedules
//!
//! Virtual time is cut into fixed windows of [`WINDOW_US`], and every
//! actor belongs to a *component* (`World::set_component`; the testbed
//! labels the orchestrator and each gateway site). A message from one
//! component to another always lands in a strictly later window, so
//! executing the components of one window in a *different order* must
//! yield the same state — the commutativity Magma's control plane leans
//! on when gateways act on eventually-consistent orchestrator state. Code
//! whose output depends on that order is a logical race: deterministic
//! under the canonical event order, yet reading an artifact of it.
//!
//! 1. **Canonical run** — the normal `(time, seq)` event order, with a
//!    kernel-armed observer folding one order-invariant digest per
//!    window ([`crate::World::enable_racecheck`]).
//! 2. **Permuted run** — the same scenario executed window by window,
//!    draining each component's event sub-queue in a per-window
//!    permutation of the components (Fisher–Yates over a splitmix64
//!    stream keyed by `schedule_seed ^ window`), same digest fold.
//! 3. **Compare** — the first window whose digests differ is the race
//!    site. [`detect`] then re-runs both schedules recording per-event
//!    detail for that window only, sorts both record sets by a
//!    schedule-independent key, and names the first differing event
//!    pair: component, actor, kind, virtual time, tie-break key.
//!
//! Digests are commutative folds (wrapping sum + xor of per-event FNV
//! hashes, plus dispatch counts, the registry's mutation count, and the
//! pending-event population at the window boundary), so two schedules
//! that dispatch the same event multiset per window with the same
//! cumulative effects produce byte-identical digest streams — any
//! divergence is a genuine schedule dependence, bisected for free by
//! the per-window granularity.
//!
//! The permuted drain is only a legal reordering if no cross-component
//! message lands inside its sender's window. The observer checks that
//! on every send while armed and counts offenders as
//! [`RaceExport::window_violations`]; a run with any is not a witness.
//!
//! The static half of the gate: magma-lint rule S006 bans actor code
//! from reading another component's registry namespace (`Ctx` exposes
//! no other kernel-global state), and the typed graph check S007
//! (`flow::check`) requires multi-sender transport tie-break keys to
//! incorporate sender identity. See `docs/DETERMINISM.md` § "Logical
//! races and the window schedule".

use crate::actor::{ActorId, Event};
use serde::Serialize;

/// splitmix64: the seed mixer used everywhere racecheck needs cheap
/// deterministic pseudo-randomness (schedule permutations). Matches the
/// constants used by magma-trace's head sampler.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Length of one racecheck window: 10 µs, the latency of
/// `LinkProfile::loopback()`, the fastest link preset. Every
/// cross-component message rides a link, so it arrives at least one
/// window after it was sent (`crates/net` pins every preset at or above
/// this bound).
pub const WINDOW_US: u64 = 10;

/// FNV-1a over a slice of u64 words (little-endian bytes).
pub fn fnv(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over raw bytes (registry snapshot JSON).
pub fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Dense event-kind index, aligned with `prof::KIND_NAMES`.
pub(crate) fn kind_detail(ev: &Event) -> (usize, u64) {
    match ev {
        Event::Start => (0, 0),
        Event::Timer { tag } => (1, *tag),
        Event::Msg { from, .. } => (2, from.0 as u64),
        Event::CpuDone {
            tag,
            host,
            group,
            queued,
            ..
        } => (
            3,
            fnv(&[*tag, host.0 as u64, *group as u64, queued.as_micros()]),
        ),
    }
}

/// Schedule-independent content hash of one scheduled event. Never
/// includes the sequence number — seq assignment order is exactly the
/// schedule-dependent tie-break the detector must see *through*.
pub(crate) fn event_hash(target: ActorId, time_us: u64, ev: &Event) -> u64 {
    let (kind, detail) = kind_detail(ev);
    fnv(&[target.0 as u64, time_us, kind as u64, detail])
}

/// The per-window component visit order: a Fisher–Yates permutation of
/// `0..n` driven by `splitmix64(seed ^ window)`. Component index 0 is
/// the unassigned pseudo-component; labelled components follow in the
/// order their labels were first set.
pub fn permutation(n: usize, seed: u64, window: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut s = splitmix64(seed ^ window.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for i in (1..n).rev() {
        s = splitmix64(s);
        let j = (s % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// One sealed window's order-invariant state digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WindowDigest {
    /// Window index (`time_us / WINDOW_US`); `u64::MAX` marks the
    /// synthetic final digest (resident heap fold + registry hash).
    pub window: u64,
    /// Events dispatched in the window (final digest: whole run).
    pub events: u64,
    /// Wrapping sum of per-event content hashes.
    pub sum: u64,
    /// XOR of per-event content hashes.
    pub xor: u64,
    /// Heap population at the window boundary (final digest: live
    /// resident events).
    pub pending: u64,
    /// Cumulative registry mutation count at the boundary.
    pub registry_mutations: u64,
}

/// Per-event record captured only for the bisected detail window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EventRecord {
    pub time_us: u64,
    pub target: u32,
    pub kind: usize,
    pub detail: u64,
    /// The `(time, seq)` tie-break key under the recording schedule.
    pub seq: u64,
}

/// The kernel-owned digest recorder. Active in both canonical
/// (`schedule_seed == None`) and permuted modes; the fold itself never
/// depends on intra-window dispatch order.
#[derive(Debug)]
pub(crate) struct RaceObserver {
    pub schedule_seed: Option<u64>,
    pub detail_window: Option<u64>,
    /// Cross-component sends that landed inside the sender's window.
    pub window_violations: u64,
    cur_window: Option<u64>,
    acc_events: u64,
    acc_sum: u64,
    acc_xor: u64,
    digests: Vec<WindowDigest>,
    detail: Vec<EventRecord>,
    finalized: bool,
}

impl RaceObserver {
    pub fn new(schedule_seed: Option<u64>) -> Self {
        RaceObserver {
            schedule_seed,
            detail_window: None,
            window_violations: 0,
            cur_window: None,
            acc_events: 0,
            acc_sum: 0,
            acc_xor: 0,
            digests: Vec::new(),
            detail: Vec::new(),
            finalized: false,
        }
    }

    fn seal(&mut self, pending: u64, registry_mutations: u64) {
        let Some(w) = self.cur_window.take() else {
            return;
        };
        self.digests.push(WindowDigest {
            window: w,
            events: self.acc_events,
            sum: self.acc_sum,
            xor: self.acc_xor,
            pending,
            registry_mutations,
        });
        self.acc_events = 0;
        self.acc_sum = 0;
        self.acc_xor = 0;
    }

    /// Seal the open window if the next event's time falls past it.
    /// Returns whether a seal happened (the caller samples the heap
    /// peak at boundaries). Call with the heap population *after* all
    /// of the open window's events have been drained and *before* any
    /// of the next window's — causal closure makes that population a
    /// pure function of the event set.
    pub fn maybe_seal(
        &mut self,
        next_time_us: u64,
        pending: u64,
        registry_mutations: u64,
    ) -> bool {
        let w = next_time_us / WINDOW_US;
        match self.cur_window {
            Some(cw) if cw != w => {
                self.seal(pending, registry_mutations);
                true
            }
            _ => false,
        }
    }

    /// Fold one dispatched event into the open window. `tie_break` is
    /// the `(time, seq)` queue sequence the recording schedule used —
    /// captured in detail records (to name the race) but never hashed.
    pub fn record(&mut self, target: ActorId, time_us: u64, ev: &Event, tie_break: u64) {
        let w = time_us / WINDOW_US;
        if self.cur_window.is_none() {
            self.cur_window = Some(w);
        }
        let h = event_hash(target, time_us, ev);
        self.acc_events += 1;
        self.acc_sum = self.acc_sum.wrapping_add(h);
        self.acc_xor ^= h;
        if self.detail_window == Some(w) {
            let (kind, detail) = kind_detail(ev);
            self.detail.push(EventRecord {
                time_us,
                target: target.0,
                kind,
                detail,
                seq: tie_break,
            });
        }
    }

    /// Check one cross-component send, made at `now_us` and delivered
    /// at `at_us`, against the precondition of the permuted drain.
    pub fn check_send(&mut self, now_us: u64, at_us: u64) {
        if at_us / WINDOW_US == now_us / WINDOW_US {
            self.window_violations += 1;
        }
    }

    /// Seal the trailing window and append the synthetic final digest:
    /// resident-heap fold, registry snapshot hash, and the whole-run
    /// event count. Idempotent.
    pub fn finalize(
        &mut self,
        pending: u64,
        registry_mutations: u64,
        resident: (u64, u64, u64),
        events_processed: u64,
        registry_hash: u64,
    ) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        self.seal(pending, registry_mutations);
        self.digests.push(WindowDigest {
            window: u64::MAX,
            events: events_processed,
            sum: resident.0.wrapping_add(registry_hash),
            xor: resident.1 ^ registry_hash,
            pending: resident.2,
            registry_mutations,
        });
    }

    pub fn digests(&self) -> &[WindowDigest] {
        &self.digests
    }

    pub fn detail_records(&self) -> &[EventRecord] {
        &self.detail
    }
}

/// One side of the offending event pair, fully resolved for the report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RaceEvent {
    /// Component label (`agw[0]`, see `World::set_component`), or
    /// `"unassigned"`.
    pub component: String,
    /// Actor name at dispatch time.
    pub actor: String,
    pub actor_id: u32,
    /// Event kind (`start` / `timer` / `msg` / `cpu_done`).
    pub kind: String,
    pub time_us: u64,
    /// Kind-specific content: timer tag, message sender id, or the
    /// CPU-done content hash.
    pub detail: u64,
    /// The `(time, seq)` tie-break key the recording schedule used.
    pub tie_break: u64,
}

impl RaceEvent {
    fn sort_key(&self) -> (u64, u32, String, u64) {
        (self.time_us, self.actor_id, self.kind.clone(), self.detail)
    }
}

/// Everything one instrumented run exports: the digest stream, the
/// window-violation count, and the detail records of the requested
/// window (empty unless a detail window was set).
#[derive(Debug, Clone, Serialize)]
pub struct RaceExport {
    pub schedule_seed: Option<u64>,
    /// Cross-component messages that landed inside their sender's
    /// window: deliveries the permuted drain cannot reorder legally.
    /// Non-zero means the run proves nothing about races.
    pub window_violations: u64,
    pub digests: Vec<WindowDigest>,
    pub detail: Vec<RaceEvent>,
}

/// How `detect` asks the caller to run the scenario.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// `None` = canonical schedule; `Some(seed)` = permuted windows.
    pub schedule: Option<u64>,
    /// Record per-event detail for this window only.
    pub detail_window: Option<u64>,
}

/// The replayable race report `magma-bench --racecheck` writes as
/// `RACE_<scenario>.json` and CI prints on failure.
#[derive(Debug, Clone, Serialize)]
pub struct RaceReport {
    pub label: String,
    pub schedule_seed: u64,
    pub window_us: u64,
    pub divergent: bool,
    /// First divergent window index (`u64::MAX` = the final state
    /// digest), present only when divergent.
    pub first_divergent_window: Option<u64>,
    /// The offending pair: what the canonical schedule dispatched at
    /// the first divergent position…
    pub canonical: Option<RaceEvent>,
    /// …and what the permuted schedule dispatched there instead.
    pub permuted: Option<RaceEvent>,
    pub windows_compared: u64,
    pub note: String,
}

impl RaceReport {
    /// Human-readable rendering for CI failure messages.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "racecheck[{}] seed={} window={}µs: ",
            self.label, self.schedule_seed, self.window_us
        ));
        if !self.divergent {
            out.push_str(&format!(
                "clean ({} windows byte-identical)\n",
                self.windows_compared
            ));
            return out;
        }
        let w = self.first_divergent_window.unwrap_or(u64::MAX);
        if w == u64::MAX {
            out.push_str("DIVERGENT at the final state digest\n");
        } else {
            out.push_str(&format!(
                "DIVERGENT at window {w} (t = [{}, {})µs)\n",
                w * self.window_us,
                (w + 1) * self.window_us
            ));
        }
        let fmt = |e: &Option<RaceEvent>| match e {
            Some(e) => format!(
                "{} actor '{}' (#{}) kind={} t={}µs detail={:#x} tie_break={}",
                e.component, e.actor, e.actor_id, e.kind, e.time_us, e.detail, e.tie_break
            ),
            None => "<no event at this position>".to_string(),
        };
        out.push_str(&format!("  canonical: {}\n", fmt(&self.canonical)));
        out.push_str(&format!("  permuted:  {}\n", fmt(&self.permuted)));
        out.push_str(&format!("  {}\n", self.note));
        out
    }
}

/// Compare two digest streams; the first mismatching entry names the
/// first divergent window.
pub fn first_divergence(canon: &[WindowDigest], perm: &[WindowDigest]) -> Option<u64> {
    let n = canon.len().max(perm.len());
    for i in 0..n {
        match (canon.get(i), perm.get(i)) {
            (Some(a), Some(b)) if a == b => continue,
            (Some(a), Some(b)) => return Some(a.window.min(b.window)),
            (Some(a), None) => return Some(a.window),
            (None, Some(b)) => return Some(b.window),
            (None, None) => unreachable!(),
        }
    }
    None
}

/// Run the full detector: canonical vs permuted digest streams, then —
/// on divergence — an auto-bisected detail re-run of both schedules
/// that names the offending event pair. The caller supplies a closure
/// that builds and runs the scenario under a [`RunSpec`] and returns
/// its [`RaceExport`] (see `World::enable_racecheck` /
/// `World::race_export`).
pub fn detect<F>(label: &str, mut run: F, schedule_seed: u64) -> RaceReport
where
    F: FnMut(RunSpec) -> RaceExport,
{
    let canon = run(RunSpec {
        schedule: None,
        detail_window: None,
    });
    let perm = run(RunSpec {
        schedule: Some(schedule_seed),
        detail_window: None,
    });
    let windows_compared = canon.digests.len().max(perm.digests.len()) as u64;
    let Some(w) = first_divergence(&canon.digests, &perm.digests) else {
        return RaceReport {
            label: label.to_string(),
            schedule_seed,
            window_us: WINDOW_US,
            divergent: false,
            first_divergent_window: None,
            canonical: None,
            permuted: None,
            windows_compared,
            note: "all window digests identical across schedules".to_string(),
        };
    };

    // Bisection is free: the digest stream is per-window, so the first
    // mismatch IS the first divergent window. Re-run both schedules
    // recording per-event detail there.
    let mut cd = run(RunSpec {
        schedule: None,
        detail_window: Some(w),
    })
    .detail;
    let mut pd = run(RunSpec {
        schedule: Some(schedule_seed),
        detail_window: Some(w),
    })
    .detail;
    cd.sort_by_key(|e| e.sort_key());
    pd.sort_by_key(|e| e.sort_key());
    let mut pair: Option<(Option<RaceEvent>, Option<RaceEvent>)> = None;
    for i in 0..cd.len().max(pd.len()) {
        match (cd.get(i), pd.get(i)) {
            (Some(a), Some(b)) if a.sort_key() == b.sort_key() => continue,
            (a, b) => {
                pair = Some((a.cloned(), b.cloned()));
                break;
            }
        }
    }
    let note = match &pair {
        Some(_) => format!(
            "window {w}: the two schedules dispatched different events — \
             the named pair is the first position where the sorted event \
             sets disagree; its content depends on cross-component order"
        ),
        None => format!(
            "window {w}: same event multiset under both schedules but the \
             boundary state (pending events / registry) diverged — a \
             non-commutative state mutation inside the window"
        ),
    };
    let (canonical, permuted) = pair.unwrap_or((None, None));
    RaceReport {
        label: label.to_string(),
        schedule_seed,
        window_us: WINDOW_US,
        divergent: true,
        first_divergent_window: Some(w),
        canonical,
        permuted,
        windows_compared,
        note,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_deterministic_bijection() {
        let a = permutation(7, 42, 3);
        let b = permutation(7, 42, 3);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        // Different windows and seeds shuffle differently (with 7! = 5040
        // arrangements a collision across these few draws is vanishing).
        assert_ne!(permutation(7, 42, 4), a);
        assert_ne!(permutation(7, 43, 3), a);
        // n = 1 degenerates to the identity.
        assert_eq!(permutation(1, 9, 0), vec![0]);
    }

    #[test]
    fn event_hash_ignores_schedule_only_fields() {
        let a = event_hash(ActorId(3), 1000, &Event::Timer { tag: 7 });
        let b = event_hash(ActorId(3), 1000, &Event::Timer { tag: 7 });
        assert_eq!(a, b);
        assert_ne!(a, event_hash(ActorId(4), 1000, &Event::Timer { tag: 7 }));
        assert_ne!(a, event_hash(ActorId(3), 1001, &Event::Timer { tag: 7 }));
        assert_ne!(a, event_hash(ActorId(3), 1000, &Event::Timer { tag: 8 }));
        assert_ne!(a, event_hash(ActorId(3), 1000, &Event::Start));
    }

    #[test]
    fn observer_folds_windows_order_invariantly() {
        let run = |order: &[(u32, u64, u64)]| {
            let mut ob = RaceObserver::new(None);
            for (i, &(actor, t, tag)) in order.iter().enumerate() {
                ob.maybe_seal(t, 5, 100);
                ob.record(ActorId(actor), t, &Event::Timer { tag }, i as u64);
            }
            ob.finalize(5, 100, (1, 2, 3), order.len() as u64, 9);
            ob.digests().to_vec()
        };
        // Same events, windows intact, intra-window order permuted.
        let a = run(&[(0, 1, 10), (1, 2, 11), (0, 12, 12), (1, 13, 13)]);
        let b = run(&[(1, 2, 11), (0, 1, 10), (1, 13, 13), (0, 12, 12)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3, "two windows + final digest");
        assert_eq!(a[0].window, 0);
        assert_eq!(a[0].events, 2);
        assert_eq!(a[1].window, 1);
        assert_eq!(a[2].window, u64::MAX);
        // A different event diverges.
        let c = run(&[(0, 1, 10), (1, 2, 99), (0, 12, 12), (1, 13, 13)]);
        assert_eq!(first_divergence(&a, &c), Some(0));
        assert_eq!(first_divergence(&a, &b), None);
    }

    #[test]
    fn detect_localizes_the_divergent_window_and_pair() {
        // Synthetic scenario: window 4 contains a schedule-dependent
        // timer tag (7 canonically, 8 permuted); everything else agrees.
        let run = |spec: RunSpec| {
            let permuted = spec.schedule.is_some();
            let mut ob = RaceObserver::new(spec.schedule);
            ob.detail_window = spec.detail_window;
            for w in 0u64..6 {
                let t = w * 10 + 1;
                ob.maybe_seal(t, 3, 50);
                ob.record(ActorId(0), t, &Event::Timer { tag: 1 }, w * 2);
                let tag = if w == 4 && permuted { 8 } else { 7 };
                ob.record(ActorId(1), t, &Event::Timer { tag }, w * 2 + 1);
            }
            ob.finalize(3, 50, (0, 0, 0), 12, 9);
            RaceExport {
                schedule_seed: spec.schedule,
                window_violations: 0,
                digests: ob.digests().to_vec(),
                detail: ob
                    .detail_records()
                    .iter()
                    .map(|r| RaceEvent {
                        component: "c".into(),
                        actor: "a".into(),
                        actor_id: r.target,
                        kind: crate::prof::KIND_NAMES[r.kind].to_string(),
                        time_us: r.time_us,
                        detail: r.detail,
                        tie_break: r.seq,
                    })
                    .collect(),
            }
        };
        let report = detect("synthetic", run, 99);
        assert!(report.divergent);
        assert_eq!(report.first_divergent_window, Some(4));
        let c = report.canonical.as_ref().expect("canonical side");
        let p = report.permuted.as_ref().expect("permuted side");
        assert_eq!(c.kind, "timer");
        assert_eq!(c.actor_id, 1);
        assert_eq!(c.detail, 7);
        assert_eq!(p.detail, 8);
        assert!(report.render().contains("DIVERGENT at window 4"));
    }

    #[test]
    fn detect_reports_clean_when_streams_match() {
        let run = |spec: RunSpec| {
            let mut ob = RaceObserver::new(spec.schedule);
            for w in 0u64..3 {
                ob.maybe_seal(w * 10, 1, 2);
                ob.record(ActorId(0), w * 10, &Event::Start, w);
            }
            ob.finalize(1, 2, (0, 0, 0), 3, 4);
            RaceExport {
                schedule_seed: spec.schedule,
                window_violations: 0,
                digests: ob.digests().to_vec(),
                detail: Vec::new(),
            }
        };
        let report = detect("clean", run, 1);
        assert!(!report.divergent);
        assert!(report.render().contains("clean"));
    }
}
