//! The simulation kernel: world construction, the run loop, and the [`Ctx`]
//! handle through which actors interact with the world.

use crate::actor::{Actor, ActorId, Event, Payload};
use crate::cpu::{self, HostId, HostSpec, HostState, Job, UtilizationReport};
use crate::event::{EventHandle, EventQueue, Scheduled};
use crate::eventd::{self, EventLog, Severity};
use crate::flow::{DelayClass, FlowKind, Role};
use crate::prof::{self, HeapStats, ProfHandle, Profiler, ProfileSnapshot, ScopeGuard};
use crate::racecheck::{self, RaceEvent, RaceExport, RaceObserver};
use crate::registry::Registry;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceCtx, TraceSnapshot, Tracer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

struct Slot {
    actor: Option<Box<dyn Actor>>,
    name: String,
}

enum PendingOp {
    Spawn(ActorId, Box<dyn Actor>),
    Replace(ActorId, Box<dyn Actor>),
    Kill(ActorId),
}

/// Mutable world state shared with actors through [`Ctx`]. Holds everything
/// except the actors themselves (so an actor can be mutably borrowed while
/// it manipulates the kernel).
pub struct Kernel {
    time: SimTime,
    queue: EventQueue,
    /// World seed; every actor derives its own RNG stream from it (see
    /// [`Ctx::rng`]), so draw sequences depend only on `(seed, actor)`,
    /// never on the order actors happen to be dispatched in.
    rng_seed: u64,
    rngs: Vec<SmallRng>,
    registry: Registry,
    events: EventLog,
    hosts: Vec<HostState>,
    /// Per-actor generation; events captured under an older generation are
    /// dropped at dispatch. Bumped on crash/replace so a restarted service
    /// never sees stale in-flight messages.
    gens: Vec<u32>,
    next_actor_id: u32,
    pending: Vec<PendingOp>,
    events_processed: u64,
    /// simprof accumulator, behind an `Rc` so scope guards can record on
    /// drop without borrowing the kernel. `prof_on` mirrors its enabled
    /// flag for a branch-only fast path on every dispatch.
    prof: ProfHandle,
    prof_on: bool,
    /// magma-trace accumulator. `trace_on` switches it, one branch on
    /// every scheduling call; `cur_trace` is
    /// the causal context of the dispatch currently being handled.
    tracer: Tracer,
    trace_on: bool,
    cur_trace: Option<TraceCtx>,
    /// Racecheck component of each actor (index into
    /// `component_labels`, plus one; 0 = unlabelled). Set by
    /// [`World::set_component`] and inherited by spawned children.
    components: Vec<u16>,
    component_labels: Vec<String>,
    /// Per-RPC-method `(messages, wire bytes)`, counted at the encode
    /// sites by [`Ctx::count_rpc`].
    rpc_edges: BTreeMap<&'static str, (u64, u64)>,
    /// magma-racecheck digest observer, armed by
    /// [`World::enable_racecheck`]; `None` costs one branch per step.
    race: Option<RaceObserver>,
}

impl Kernel {
    /// Open a hop span under the current dispatch's trace context (if
    /// any) and return the context to stamp on the scheduled event.
    /// Only called behind the `trace_on` fast-path branch.
    fn trace_child(
        &mut self,
        kind: &'static str,
        src: ActorId,
        dst: ActorId,
    ) -> Option<TraceCtx> {
        let cur = self.cur_trace?;
        self.tracer.child(cur, kind, src, dst, self.time)
    }

    fn component_of(&self, actor: ActorId) -> u16 {
        self.components.get(actor.0 as usize).copied().unwrap_or(0)
    }

    fn put_component(&mut self, actor: ActorId, c: u16) {
        let idx = actor.0 as usize;
        if self.components.len() <= idx {
            self.components.resize(idx + 1, 0);
        }
        self.components[idx] = c;
    }

    /// Queue a message, checking racecheck's precondition on the way:
    /// while armed, a message to another component must not land
    /// inside the sender's current window.
    fn push_msg(
        &mut self,
        from: ActorId,
        dst: ActorId,
        delay: SimDuration,
        payload: Payload,
        trace: Option<TraceCtx>,
    ) {
        let at = self.time + delay;
        if self.race.is_some() && self.component_of(from) != self.component_of(dst) {
            if let Some(ob) = self.race.as_mut() {
                ob.check_send(self.time.as_micros(), at.as_micros());
            }
        }
        let g = self.gens[dst.0 as usize];
        self.queue
            .push(at, dst, g, Event::Msg { from, payload }, trace);
    }
}

/// Messages and wire bytes of one RPC method, as counted at its encode
/// sites (requests, replies and pushes alike).
#[derive(Debug, Clone, PartialEq)]
pub struct RpcEdge {
    pub kind: String,
    pub messages: u64,
    pub bytes: u64,
}

/// Per-RPC-method traffic of a run, in method-name order (see
/// [`World::shard_snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RpcEdgeSnapshot {
    pub edges: Vec<RpcEdge>,
}

/// The simulation world: a set of actors, hosts, and a deterministic event
/// queue, advanced in virtual time.
pub struct World {
    actors: Vec<Slot>,
    kernel: Kernel,
}

impl World {
    /// Create a world with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        World {
            actors: Vec::new(),
            kernel: Kernel {
                time: SimTime::ZERO,
                queue: EventQueue::new(),
                rng_seed: seed,
                rngs: Vec::new(),
                registry: Registry::new(),
                events: EventLog::default(),
                hosts: Vec::new(),
                gens: Vec::new(),
                next_actor_id: 0,
                pending: Vec::new(),
                events_processed: 0,
                prof: Rc::new(RefCell::new(Profiler::default())),
                prof_on: false,
                tracer: Tracer::new(seed),
                trace_on: false,
                cur_trace: None,
                components: Vec::new(),
                component_labels: Vec::new(),
                rpc_edges: BTreeMap::new(),
                race: None,
            },
        }
    }

    /// Switch simprof on or off (off by default). Enabled, every
    /// dispatch is attributed to its `(actor, event-kind)` pair and
    /// `Ctx::profile_scope` guards record; disabled, both cost one
    /// boolean branch. Profiling only observes — it never feeds virtual
    /// time, so it cannot perturb a seeded run.
    pub fn enable_profiling(&mut self, on: bool) {
        self.kernel.prof.borrow_mut().set_enabled(on);
        self.kernel.prof_on = on;
    }

    /// Switch magma-trace on or off (off by default). Enabled, every
    /// procedure rooted by [`Ctx::trace_start`] is recorded as a causal
    /// span tree across flow edges, the CPU model, and opted-in timers;
    /// disabled, every hook costs one boolean branch. Tracing only
    /// observes — it never feeds virtual time or the RNG, so it cannot
    /// perturb a seeded run.
    pub fn enable_tracing(&mut self, on: bool) {
        self.kernel.trace_on = on;
        if !on {
            self.kernel.cur_trace = None;
        }
    }

    /// Does nothing. The observer this switched (shardscope) is gone;
    /// the method stays so existing callers keep compiling.
    pub fn enable_shardscope(&mut self, _on: bool) {}

    /// Label an actor's racecheck component. Within one window the
    /// permuted drain runs components in a shuffled order; actors with
    /// no label share one pseudo-component (`"unassigned"`). Children
    /// an actor spawns inherit its label.
    pub fn set_component(&mut self, id: ActorId, label: &str) {
        let labels = &mut self.kernel.component_labels;
        let c = match labels.iter().position(|l| l == label) {
            Some(i) => i + 1,
            None => {
                labels.push(label.to_string());
                labels.len()
            }
        };
        self.kernel.put_component(id, c as u16);
    }

    /// Per-RPC-method messages and wire bytes so far (the name is kept
    /// for the callers that read checkpoint traffic from it).
    pub fn shard_snapshot(&self) -> RpcEdgeSnapshot {
        RpcEdgeSnapshot {
            edges: self
                .kernel
                .rpc_edges
                .iter()
                .map(|(&kind, &(messages, bytes))| RpcEdge {
                    kind: kind.to_string(),
                    messages,
                    bytes,
                })
                .collect(),
        }
    }

    /// Arm magma-racecheck: fold a per-window state digest as the run
    /// executes (window = [`racecheck::WINDOW_US`]). `schedule = None`
    /// digests the canonical `(time, seq)` order; `Some(seed)` makes
    /// `run_until` drain each window's component sub-queues (see
    /// [`World::set_component`]) in a seed-permuted order instead.
    /// Either way, a message to another component that lands inside
    /// the sender's window is counted as a window violation. Heap
    /// peak-depth tracking switches to window-boundary sampling, which
    /// is schedule-independent. Arm before running; drive the full
    /// detector with [`racecheck::detect`] and [`World::race_export`].
    pub fn enable_racecheck(&mut self, schedule: Option<u64>) {
        self.kernel.race = Some(RaceObserver::new(schedule));
        self.kernel.queue.set_windowed_peak(true);
    }

    /// Record per-event detail for one digest window — the bisection
    /// re-run of [`racecheck::detect`]. No-op unless racecheck is armed.
    pub fn set_race_detail_window(&mut self, window: Option<u64>) {
        if let Some(ob) = self.kernel.race.as_mut() {
            ob.detail_window = window;
        }
    }

    /// Seal the trailing digest window, fold the final state digest
    /// (live resident-event multiset + registry snapshot hash + event
    /// count), and export the digest stream, the window-violation count
    /// and any detail records. Finalization is idempotent; panics if
    /// racecheck was never armed.
    pub fn race_export(&mut self) -> RaceExport {
        let pending = self.kernel.queue.len() as u64;
        let muts = self.kernel.registry.mutation_count();
        let resident = self.kernel.queue.resident_fold();
        let events = self.kernel.events_processed;
        let json = serde_json::to_string(&self.kernel.registry.snapshot())
            .expect("registry snapshot serializes");
        let rhash = racecheck::fnv_bytes(json.as_bytes());
        let ob = self.kernel.race.as_mut().expect("racecheck not enabled");
        ob.finalize(pending, muts, resident, events, rhash);
        let schedule_seed = ob.schedule_seed;
        let window_violations = ob.window_violations;
        let digests = ob.digests().to_vec();
        let records = ob.detail_records().to_vec();
        let detail = records
            .iter()
            .map(|r| RaceEvent {
                component: match self.kernel.component_of(ActorId(r.target)) {
                    0 => "unassigned".to_string(),
                    c => self.kernel.component_labels[c as usize - 1].clone(),
                },
                actor: self
                    .actors
                    .get(r.target as usize)
                    .map(|s| s.name.clone())
                    .unwrap_or_else(|| format!("actor#{}", r.target)),
                actor_id: r.target,
                kind: prof::KIND_NAMES[r.kind].to_string(),
                time_us: r.time_us,
                detail: r.detail,
                tie_break: r.seq,
            })
            .collect();
        RaceExport {
            schedule_seed,
            window_violations,
            digests,
            detail,
        }
    }

    /// Head-sampling rate in [0, 1]: the deterministic seeded-hash
    /// fraction of rooted traces that record spans (default 1.0).
    pub fn set_trace_sample_rate(&mut self, rate: f64) {
        self.kernel.tracer.set_sample_rate(rate);
    }

    /// Snapshot every finished trace tree, the per-procedure
    /// critical-path aggregates, and the tracer counters. Deterministic
    /// for a given `(scenario, seed)` — see `docs/OBSERVABILITY.md`.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        let names: Vec<&str> = self.actors.iter().map(|s| s.name.as_str()).collect();
        self.kernel.tracer.snapshot(&names)
    }

    /// Snapshot the profile accumulated so far: a deterministic
    /// `virtual` section and a wall-clock `host` section (see
    /// [`ProfileSnapshot`]). Meaningful only after
    /// [`enable_profiling`](World::enable_profiling); heap stats and
    /// `events_processed` are filled either way.
    pub fn profile(&self) -> ProfileSnapshot {
        let names: Vec<&str> = self.actors.iter().map(|s| s.name.as_str()).collect();
        self.kernel.prof.borrow().snapshot(
            &names,
            self.kernel.queue.stats(),
            self.kernel.events_processed,
        )
    }

    /// Event-heap statistics (always tracked, deterministic).
    pub fn heap_stats(&self) -> HeapStats {
        self.kernel.queue.stats()
    }

    /// Register a simulated host machine.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        let id = HostId(self.kernel.hosts.len() as u32);
        self.kernel.hosts.push(HostState::new(spec));
        id
    }

    /// Register an actor; its `Start` event fires at the current time.
    pub fn add_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        let id = ActorId(self.kernel.next_actor_id);
        self.kernel.next_actor_id += 1;
        self.kernel.gens.push(0);
        let name = actor.name();
        self.actors.push(Slot {
            actor: Some(actor),
            name,
        });
        let g = self.kernel.gens[id.0 as usize];
        self.kernel.queue.push(self.kernel.time, id, g, Event::Start, None);
        id
    }

    /// Inject a message from "outside" the simulation (tests, harness).
    pub fn inject(&mut self, dst: ActorId, payload: Payload) {
        let g = self.kernel.gens[dst.0 as usize];
        self.kernel.queue.push(
            self.kernel.time,
            dst,
            g,
            Event::Msg { from: dst, payload },
            None,
        );
    }

    /// Crash an actor: its state is dropped and all in-flight events to it
    /// are invalidated. The slot stays allocated for a later
    /// [`restart`](World::restart).
    pub fn crash(&mut self, id: ActorId) {
        self.kernel.gens[id.0 as usize] += 1;
        self.actors[id.0 as usize].actor = None;
        let name = self.actors[id.0 as usize].name.clone();
        self.kernel.events.emit(
            self.kernel.time,
            &name,
            eventd::kind::SERVICE_CRASH,
            Severity::Critical,
            &[("service", name.clone())],
        );
    }

    /// Restart a crashed actor with a fresh instance (typically rebuilt
    /// from a checkpoint). Delivers `Start` at the current time.
    pub fn restart(&mut self, id: ActorId, actor: Box<dyn Actor>) {
        self.kernel.gens[id.0 as usize] += 1;
        let name = actor.name();
        self.actors[id.0 as usize] = Slot {
            actor: Some(actor),
            name: name.clone(),
        };
        let g = self.kernel.gens[id.0 as usize];
        self.kernel.queue.push(self.kernel.time, id, g, Event::Start, None);
        self.kernel.events.emit(
            self.kernel.time,
            &name,
            eventd::kind::SERVICE_RESTART,
            Severity::Warning,
            &[("service", name.clone())],
        );
    }

    /// Whether the actor is currently alive.
    pub fn is_alive(&self, id: ActorId) -> bool {
        self.actors
            .get(id.0 as usize)
            .map(|s| s.actor.is_some())
            .unwrap_or(false)
    }

    pub fn now(&self) -> SimTime {
        self.kernel.time
    }

    /// The same [`Registry`] as [`registry`](World::registry), kept only
    /// because the `benchmark/` package calls it; new code uses
    /// `registry()`.
    pub fn metrics(&self) -> &Registry {
        &self.kernel.registry
    }

    /// The world-wide instrument registry ([`Registry`]): typed counters,
    /// gauges, histograms and local series, namespaced by service prefix.
    pub fn registry(&self) -> &Registry {
        &self.kernel.registry
    }

    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.kernel.registry
    }

    /// The world-wide structured-event log ([`EventLog`]): what the
    /// gateways' `eventd` ships alongside metric snapshots.
    pub fn events(&self) -> &EventLog {
        &self.kernel.events
    }

    pub fn events_mut(&mut self) -> &mut EventLog {
        &mut self.kernel.events
    }

    pub fn events_processed(&self) -> u64 {
        self.kernel.events_processed
    }

    /// Per-group CPU utilization report for a host.
    pub fn utilization(&self, host: HostId, group: &str) -> Option<UtilizationReport> {
        let h = self.kernel.hosts.get(host.0 as usize)?;
        let idx = h.group_index(group)? as usize;
        Some(cpu::build_report(h, idx, self.kernel.time))
    }

    /// Run until the event queue is exhausted or `deadline` is reached.
    /// The clock ends exactly at `deadline` even if the queue drains early.
    /// Under a permuted racecheck schedule this runs the windowed drain
    /// instead of the global `(time, seq)` order.
    pub fn run_until(&mut self, deadline: SimTime) {
        if self
            .kernel
            .race
            .as_ref()
            .is_some_and(|o| o.schedule_seed.is_some())
        {
            return self.run_until_permuted(deadline);
        }
        loop {
            match self.kernel.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.kernel.time < deadline {
            self.kernel.time = deadline;
        }
    }

    /// Racecheck's permuted window schedule: drain events window by
    /// window ([`racecheck::WINDOW_US`]), visiting component
    /// sub-queues in a per-window permuted order instead of global
    /// `(time, seq)` order. Virtual time may regress *within* a window,
    /// never across windows; a cross-component message lands in a
    /// strictly later window (the observer counts any that does not),
    /// so a race-free scenario folds the exact digests the canonical
    /// schedule does.
    fn run_until_permuted(&mut self, deadline: SimTime) {
        let window_us = racecheck::WINDOW_US;
        let seed = self
            .kernel
            .race
            .as_ref()
            .and_then(|o| o.schedule_seed)
            .expect("permuted run without observer");
        let deadline_us = deadline.as_micros();
        let mut deferred: Vec<Scheduled> = Vec::new();
        while let Some(t0) = self.kernel.queue.peek_time() {
            if t0 > deadline {
                break;
            }
            // Seal the previous window: every earlier window is fully
            // drained and nothing of this one dispatched — the same
            // observable point as the canonical pre-pop seal in `step`.
            let pending = self.kernel.queue.len() as u64;
            let muts = self.kernel.registry.mutation_count();
            if let Some(ob) = self.kernel.race.as_mut() {
                if ob.maybe_seal(t0.as_micros(), pending, muts) {
                    self.kernel.queue.sample_peak();
                }
            }
            let w = t0.as_micros() / window_us;
            // Exclusive end of the window, clipped so events exactly at
            // the deadline still run.
            let wend_us = ((w + 1) * window_us).min(deadline_us + 1);
            // Component 0 is the unassigned pseudo-component.
            let ncomp = self.kernel.component_labels.len() + 1;
            let perm = racecheck::permutation(ncomp, seed, w);
            // Multi-pass sweep: a dispatch may schedule same-window
            // work for a component earlier in the permutation (e.g.
            // zero-delay sends through unassigned actors), so keep
            // sweeping until a full pass dispatches nothing.
            loop {
                let mut dispatched = 0u64;
                for &ci in &perm {
                    loop {
                        match self.kernel.queue.peek_time() {
                            Some(t) if t.as_micros() < wend_us => {}
                            _ => break,
                        }
                        let sched = self.kernel.queue.pop().expect("peeked event vanished");
                        if self.kernel.component_of(sched.target) as usize == ci {
                            dispatched += 1;
                            self.dispatch(sched, true);
                        } else {
                            deferred.push(sched);
                        }
                    }
                    for s in deferred.drain(..) {
                        self.kernel.queue.reinsert(s);
                    }
                }
                if dispatched == 0 {
                    break;
                }
            }
        }
        if self.kernel.time < deadline {
            self.kernel.time = deadline;
        }
    }

    /// Run for a duration from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.kernel.time + d;
        self.run_until(deadline);
    }

    /// Run until the queue is fully drained (or `max` events, as a runaway
    /// guard). Returns the number of events processed.
    pub fn run_to_quiescence(&mut self, max: u64) -> u64 {
        let start = self.kernel.events_processed;
        while !self.kernel.queue.is_empty() {
            if self.kernel.events_processed - start >= max {
                break;
            }
            self.step();
        }
        self.kernel.events_processed - start
    }

    /// Process exactly one event. Returns false if the queue was empty.
    pub fn step(&mut self) -> bool {
        // Racecheck canonical mode: seal the digest window before
        // popping the first event past its boundary. `peek_time` has
        // physically flushed cancelled heads, so the resident
        // population here matches the permuted drain's post-window
        // state — the two seal points observe identical queues.
        if self.kernel.race.is_some() {
            if let Some(t) = self.kernel.queue.peek_time() {
                let pending = self.kernel.queue.len() as u64;
                let muts = self.kernel.registry.mutation_count();
                if let Some(ob) = self.kernel.race.as_mut() {
                    if ob.maybe_seal(t.as_micros(), pending, muts) {
                        self.kernel.queue.sample_peak();
                    }
                }
            }
        }
        let Some(sched) = self.kernel.queue.pop() else {
            return false;
        };
        self.dispatch(sched, false);
        true
    }

    /// Deliver one popped event: advance the clock, run bookkeeping and
    /// the target actor's handler, then apply deferred structural ops.
    /// `permuted` relaxes the monotonic-clock assertion — racecheck's
    /// windowed drain may legally regress time within a window.
    fn dispatch(&mut self, sched: Scheduled, permuted: bool) {
        debug_assert!(
            permuted || sched.time >= self.kernel.time,
            "time went backwards"
        );
        self.kernel.time = sched.time;
        self.kernel.events_processed += 1;
        if let Some(ob) = self.kernel.race.as_mut() {
            ob.record(sched.target, sched.time.as_micros(), &sched.event, sched.seq);
        }

        // magma-trace: close the in-flight hop span (its duration is the
        // schedule→delivery virtual time) and make its context current
        // for the dispatch below. One branch when tracing is disabled.
        if self.kernel.trace_on {
            self.kernel.cur_trace = sched
                .trace
                .map(|ctx| self.kernel.tracer.deliver(ctx, sched.time));
        }

        let event = sched.event;

        // CPU bookkeeping happens regardless of whether the owner is alive:
        // the core frees and the next queued job starts.
        if let Event::CpuDone {
            host,
            group,
            queued,
            ..
        } = &event
        {
            let (host, group, queued) = (*host, *group, *queued);
            let hs = &mut self.kernel.hosts[host.0 as usize];
            if let Some((job, done)) = cpu::complete(hs, group, sched.time) {
                let qd = sched.time.since(job.submitted);
                let trace = job.trace;
                self.kernel.queue.push(
                    done,
                    job.owner,
                    job.gen,
                    Event::CpuDone {
                        tag: job.tag,
                        payload: job.payload,
                        host,
                        group,
                        queued: qd,
                    },
                    trace,
                );
            }
            self.kernel
                .registry
                .observe("sim.cpu.queue_delay_s", queued.as_secs_f64());
        }

        let idx = sched.target.0 as usize;
        if self
            .kernel
            .gens
            .get(idx)
            .map(|g| *g != sched.gen)
            .unwrap_or(true)
        {
            // Stale event for an earlier incarnation of the actor.
            return;
        }
        let Some(slot) = self.actors.get_mut(idx) else {
            return;
        };
        let Some(mut actor) = slot.actor.take() else {
            // Crashed / never existed: event is dropped.
            return;
        };

        // simprof attribution: one branch when disabled; when enabled,
        // stamp the (actor, kind) pair so vCPU submissions and scope
        // guards inside this dispatch charge to it, and time the handler.
        let prof_t0 = if self.kernel.prof_on {
            let kind = prof::kind_index(&event);
            self.kernel.prof.borrow_mut().dispatch_begin(idx, kind);
            Some((kind, prof::host_now()))
        } else {
            None
        };
        {
            let mut ctx = Ctx {
                kernel: &mut self.kernel,
                self_id: sched.target,
            };
            actor.handle(&mut ctx, event);
        }
        if let Some((kind, t0)) = prof_t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.kernel.prof.borrow_mut().dispatch_end(idx, kind, ns);
        }
        // The actor may have been replaced/killed by itself (rare) — only
        // put it back if the slot is still empty.
        if self.actors[idx].actor.is_none() {
            self.actors[idx].actor = Some(actor);
        }

        // Apply deferred structural ops.
        let pending = std::mem::take(&mut self.kernel.pending);
        for op in pending {
            match op {
                PendingOp::Spawn(id, actor) => {
                    let name = actor.name();
                    debug_assert_eq!(id.0 as usize, self.actors.len());
                    self.actors.push(Slot {
                        actor: Some(actor),
                        name,
                    });
                    let g = self.kernel.gens[id.0 as usize];
        self.kernel.queue.push(self.kernel.time, id, g, Event::Start, None);
                }
                PendingOp::Replace(id, actor) => {
                    self.kernel.gens[id.0 as usize] += 1;
                    let name = actor.name();
                    self.actors[id.0 as usize] = Slot {
                        actor: Some(actor),
                        name,
                    };
                    let g = self.kernel.gens[id.0 as usize];
        self.kernel.queue.push(self.kernel.time, id, g, Event::Start, None);
                }
                PendingOp::Kill(id) => {
                    self.kernel.gens[id.0 as usize] += 1;
                    self.actors[id.0 as usize].actor = None;
                }
            }
        }
    }

    /// Name of an actor (for diagnostics).
    pub fn actor_name(&self, id: ActorId) -> &str {
        &self.actors[id.0 as usize].name
    }
}

/// Handle through which an actor affects the world while processing an
/// event: scheduling messages and timers, submitting CPU work, recording
/// metrics, and structural operations (spawn/crash).
pub struct Ctx<'a> {
    kernel: &'a mut Kernel,
    self_id: ActorId,
}

impl<'a> Ctx<'a> {
    pub fn now(&self) -> SimTime {
        self.kernel.time
    }

    pub fn id(&self) -> ActorId {
        self.self_id
    }

    /// Send a message delivered at the current instant (after all events
    /// already scheduled for this instant).
    pub fn send(&mut self, dst: ActorId, payload: Payload) {
        self.send_in(dst, SimDuration::ZERO, payload);
    }

    /// Send a message after a delay.
    pub fn send_in(&mut self, dst: ActorId, delay: SimDuration, payload: Payload) {
        self.kernel.push_msg(self.self_id, dst, delay, payload, None);
    }

    /// Schedule a flow-edge message carrying the dispatch's trace
    /// context (if tracing is on and a trace is active).
    fn send_traced(
        &mut self,
        dst: ActorId,
        kind: &'static FlowKind,
        delay: SimDuration,
        payload: Payload,
    ) {
        let trace = if self.kernel.trace_on {
            self.kernel.trace_child(kind.name, self.self_id, dst)
        } else {
            None
        };
        self.kernel.push_msg(self.self_id, dst, delay, payload, trace);
    }

    /// Send on a declared flow edge, delivered at the current instant.
    ///
    /// The thin statically-analyzable wrapper over [`send`](Ctx::send):
    /// `kind` must be a [`FlowKind`] const (see `docs/MESSAGE_FLOW.md`)
    /// whose class is `Zero` (a direct same-instant edge) or `Transport`
    /// (an end-to-end link edge whose first hop hands the payload to the
    /// local network stack at the same instant). A `Local` class here
    /// would misdeclare the edge — use [`send_self`](Ctx::send_self).
    pub fn send_to(&mut self, dst: ActorId, kind: &'static FlowKind, payload: Payload) {
        debug_assert!(
            matches!(kind.class, DelayClass::Zero | DelayClass::Transport),
            "send_to({}) delivers at the current instant; class {:?} needs send_to_in/send_self",
            kind.name,
            kind.class,
        );
        self.send_traced(dst, kind, SimDuration::ZERO, payload);
    }

    /// Send on a declared flow edge after a positive delay (the
    /// link-latency leg of a `Transport` edge, e.g. stack-to-stack frame
    /// delivery). Zero-class kinds must use [`send_to`](Ctx::send_to) so
    /// the static zero-delay cycle analysis (lint F002) stays sound.
    pub fn send_to_in(
        &mut self,
        dst: ActorId,
        kind: &'static FlowKind,
        delay: SimDuration,
        payload: Payload,
    ) {
        debug_assert!(
            kind.class == DelayClass::Transport && delay > SimDuration::ZERO,
            "send_to_in({}) needs a Transport-class kind and a positive delay",
            kind.name,
        );
        self.send_traced(dst, kind, delay, payload);
    }

    /// Count one RPC message (request, reply or push) of `method` and
    /// its encoded size, once per send. Read back through
    /// [`World::shard_snapshot`].
    pub fn count_rpc(&mut self, method: &'static str, wire_bytes: usize) {
        let e = self.kernel.rpc_edges.entry(method).or_default();
        e.0 += 1;
        e.1 += wire_bytes as u64;
    }

    /// Arm a declared self-edge timer: a `Local`-class, `Timer`-role
    /// [`FlowKind`] with `sender == receiver` and a strictly positive
    /// delay — the livelock guard that keeps retry/timeout drivers out
    /// of the zero-delay graph. Fires as `Event::Timer { tag }` exactly
    /// like [`timer_in`](Ctx::timer_in).
    pub fn send_self(
        &mut self,
        kind: &'static FlowKind,
        delay: SimDuration,
        tag: u64,
    ) -> EventHandle {
        debug_assert!(
            kind.class == DelayClass::Local
                && kind.role == Role::Timer
                && kind.sender == kind.receiver
                && delay > SimDuration::ZERO,
            "send_self({}) must be a positive-delay Local/Timer self-edge",
            kind.name,
        );
        let trace = if self.kernel.trace_on {
            self.kernel.trace_child(kind.name, self.self_id, self.self_id)
        } else {
            None
        };
        let g = self.kernel.gens[self.self_id.0 as usize];
        self.kernel.queue.push(
            self.kernel.time + delay,
            self.self_id,
            g,
            Event::Timer { tag },
            trace,
        )
    }

    /// Arm a timer on this actor; fires as `Event::Timer { tag }`.
    /// Never carries trace context — re-arming a periodic tick inside a
    /// traced dispatch must not chain unrelated work into the trace. A
    /// timer that *is* a causal hop of the current procedure (e.g. the
    /// RAN's radio-delay leg) opts in via
    /// [`trace_timer_in`](Ctx::trace_timer_in).
    pub fn timer_in(&mut self, delay: SimDuration, tag: u64) -> EventHandle {
        let g = self.kernel.gens[self.self_id.0 as usize];
        self.kernel.queue.push(
            self.kernel.time + delay,
            self.self_id,
            g,
            Event::Timer { tag },
            None,
        )
    }

    /// [`timer_in`](Ctx::timer_in), but declared to be a causal hop of
    /// the procedure being traced: the timer's delay is recorded as a
    /// `"timer"` span and the trace context rides to the firing
    /// dispatch. Use for modeled legs expressed as raw timers (radio
    /// delay); periodic ticks must use plain `timer_in`.
    pub fn trace_timer_in(&mut self, delay: SimDuration, tag: u64) -> EventHandle {
        let trace = if self.kernel.trace_on {
            self.kernel.trace_child("timer", self.self_id, self.self_id)
        } else {
            None
        };
        let g = self.kernel.gens[self.self_id.0 as usize];
        self.kernel.queue.push(
            self.kernel.time + delay,
            self.self_id,
            g,
            Event::Timer { tag },
            trace,
        )
    }

    /// Root a new causal trace at this dispatch, labelled with the
    /// procedure name (`&'static str`, snake_case, listed as a
    /// `trace`-typed row in the `docs/OBSERVABILITY.md` inventory —
    /// magma-lint rule T007). Everything this dispatch subsequently
    /// schedules through flow edges, the CPU model, or
    /// [`trace_timer_in`](Ctx::trace_timer_in) joins the trace, hop by
    /// hop, until [`trace_finish`](Ctx::trace_finish). If a trace is
    /// already active (this procedure is a sub-step of a larger traced
    /// one, e.g. S6a auth inside an attach), the outer trace wins and
    /// keeps recording. One branch when tracing is disabled.
    pub fn trace_start(&mut self, label: &'static str) {
        if self.kernel.trace_on && self.kernel.cur_trace.is_none() {
            self.kernel.cur_trace =
                self.kernel
                    .tracer
                    .start(label, self.self_id, self.kernel.time);
        }
    }

    /// Mark the semantic completion of the current trace (if any): the
    /// critical path is the span chain from this dispatch back to the
    /// root, and end-to-end latency is now − root start. Clears the
    /// context, so later sends in this dispatch are untraced. Safe to
    /// call from untraced dispatches (one branch).
    pub fn trace_finish(&mut self) {
        if self.kernel.trace_on {
            if let Some(cur) = self.kernel.cur_trace.take() {
                self.kernel.tracer.finish(cur, self.kernel.time);
            }
        }
    }

    /// Finish the current trace only if it was rooted with `label`.
    /// Procedures that may run nested inside a larger traced one (S6a
    /// auth inside an attach, say) use this at their semantic end so
    /// the sub-step never terminates the enclosing trace — when nested,
    /// the outer trace keeps recording and this is a no-op.
    pub fn trace_finish_as(&mut self, label: &'static str) {
        if self.kernel.trace_on {
            if let Some(cur) = self.kernel.cur_trace {
                if self.kernel.tracer.label_of(cur.trace_id) == Some(label) {
                    self.kernel.cur_trace = None;
                    self.kernel.tracer.finish(cur, self.kernel.time);
                }
            }
        }
    }

    /// Whether the current dispatch is part of a sampled trace.
    pub fn trace_active(&self) -> bool {
        self.kernel.cur_trace.is_some()
    }

    /// Cancel a previously armed timer (or a pending send).
    pub fn cancel(&mut self, handle: EventHandle) {
        self.kernel.queue.cancel(handle);
    }

    /// Submit a CPU job on `host` in the named core group. When the job
    /// completes, `Event::CpuDone { tag, payload, .. }` is delivered back
    /// to this actor. Panics if the host/group does not exist: that is a
    /// wiring bug, not a runtime condition. Use [`try_exec`](Ctx::try_exec)
    /// to surface the misconfiguration as an error instead.
    pub fn exec(
        &mut self,
        host: HostId,
        group: &str,
        demand: SimDuration,
        tag: u64,
        payload: Payload,
    ) {
        if let Err(e) = self.try_exec(host, group, demand, tag, payload) {
            panic!("exec: {e}");
        }
    }

    /// Fallible variant of [`exec`](Ctx::exec): reports which host and
    /// core group were misconfigured (and what groups the host actually
    /// has) instead of aborting the simulation.
    pub fn try_exec(
        &mut self,
        host: HostId,
        group: &str,
        demand: SimDuration,
        tag: u64,
        payload: Payload,
    ) -> Result<(), ExecError> {
        // Resolve the host and group in a scoped borrow so the tracer
        // (another `&mut` path into the kernel) can run before submission.
        let (gidx, speed) = {
            let Some(hs) = self.kernel.hosts.get(host.0 as usize) else {
                return Err(ExecError {
                    host: format!("host#{}", host.0),
                    group: group.to_string(),
                    available: Vec::new(),
                });
            };
            let Some(gidx) = hs.group_index(group) else {
                return Err(ExecError {
                    host: hs.spec.name.clone(),
                    group: group.to_string(),
                    available: hs.spec.groups.iter().map(|g| g.name.clone()).collect(),
                });
            };
            (gidx, hs.groups[gidx as usize].spec.speed)
        };
        let service = cpu::scaled_service(demand, speed);
        if self.kernel.prof_on {
            // Charge virtual CPU-seconds to the dispatch that submitted
            // the job, once, at submission.
            self.kernel.prof.borrow_mut().charge_vcpu(service);
        }
        let gen = self.kernel.gens[self.self_id.0 as usize];
        // The CPU model is a causal hop: queue wait + service time of a
        // traced submission shows up as a `"cpu"` span.
        let trace = if self.kernel.trace_on {
            self.kernel.trace_child("cpu", self.self_id, self.self_id)
        } else {
            None
        };
        let job = Job {
            owner: self.self_id,
            gen,
            tag,
            payload,
            service,
            submitted: self.kernel.time,
            trace,
        };
        let hs = &mut self.kernel.hosts[host.0 as usize];
        if let Some((job, done)) = cpu::submit(hs, gidx, self.kernel.time, job) {
            let trace = job.trace;
            self.kernel.queue.push(
                done,
                self.self_id,
                gen,
                Event::CpuDone {
                    tag: job.tag,
                    payload: job.payload,
                    host,
                    group: gidx,
                    queued: SimDuration::ZERO,
                },
                trace,
            );
        }
        Ok(())
    }

    /// Open a simprof scope covering a sub-actor hot path (pipeline
    /// walk, RPC encode/decode, registry snapshot). The label must be a
    /// `&'static str` in dotted snake_case, listed in the
    /// `docs/OBSERVABILITY.md` inventory (magma-lint rule T006), and
    /// scopes must not nest. Returns an inert guard (one branch) when
    /// profiling is disabled.
    pub fn profile_scope(&mut self, label: &'static str) -> ScopeGuard {
        if self.kernel.prof_on {
            ScopeGuard::armed(self.kernel.prof.clone(), label)
        } else {
            ScopeGuard::inert()
        }
    }

    /// This actor's deterministic RNG stream, derived from the world
    /// seed and the actor id. Streams are per-actor (not shared) so the
    /// draw sequence an actor sees depends only on `(seed, actor)` and
    /// its own draw count — never on how dispatches from different
    /// actors interleave, which racecheck's permuted schedules reorder.
    pub fn rng(&mut self) -> &mut SmallRng {
        let idx = self.self_id.0 as usize;
        while self.kernel.rngs.len() <= idx {
            let id = self.kernel.rngs.len() as u64;
            let s = racecheck::splitmix64(
                self.kernel.rng_seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            self.kernel.rngs.push(SmallRng::seed_from_u64(s));
        }
        &mut self.kernel.rngs[idx]
    }

    /// Instrument registry (counters / gauges / histograms / series).
    pub fn registry(&mut self) -> &mut Registry {
        &mut self.kernel.registry
    }

    /// Structured-event log shared by the world (the `eventd` ring).
    pub fn events(&mut self) -> &mut EventLog {
        &mut self.kernel.events
    }

    /// Emit a structured event stamped with the current sim time.
    /// `gateway` is the emitter's namespace prefix (`agw0`, `ran`),
    /// matching the metric naming convention — a gateway's `metricsd`
    /// ships only the events under its own prefix.
    pub fn emit_event(
        &mut self,
        gateway: &str,
        kind: &str,
        severity: Severity,
        fields: &[(&str, String)],
    ) -> u64 {
        let now = self.kernel.time;
        self.kernel.events.emit(now, gateway, kind, severity, fields)
    }

    /// Per-group CPU utilization report for a host, as of the current
    /// sim time (same data [`World::utilization`] exposes, but usable
    /// from inside an actor — this is what `metricsd` samples).
    pub fn utilization(&self, host: HostId, group: &str) -> Option<UtilizationReport> {
        let h = self.kernel.hosts.get(host.0 as usize)?;
        let idx = h.group_index(group)? as usize;
        Some(cpu::build_report(h, idx, self.kernel.time))
    }

    /// The core groups of a host as `(name, cores)`, in declaration
    /// order; empty if the host id is unknown.
    pub fn host_groups(&self, host: HostId) -> Vec<(String, u32)> {
        self.kernel
            .hosts
            .get(host.0 as usize)
            .map(|h| {
                h.spec
                    .groups
                    .iter()
                    .map(|g| (g.name.clone(), g.cores))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Spawn a new actor; `Start` is delivered at the current instant.
    /// The child inherits its spawner's racecheck component.
    pub fn spawn(&mut self, actor: Box<dyn Actor>) -> ActorId {
        let id = ActorId(self.kernel.next_actor_id);
        self.kernel.next_actor_id += 1;
        self.kernel.gens.push(0);
        let c = self.kernel.component_of(self.self_id);
        if c != 0 {
            self.kernel.put_component(id, c);
        }
        self.kernel.pending.push(PendingOp::Spawn(id, actor));
        id
    }

    /// Replace another actor with a fresh instance (restart).
    pub fn replace(&mut self, id: ActorId, actor: Box<dyn Actor>) {
        self.kernel.pending.push(PendingOp::Replace(id, actor));
    }

    /// Crash another actor: state dropped, in-flight events invalidated.
    pub fn kill(&mut self, id: ActorId) {
        self.kernel.pending.push(PendingOp::Kill(id));
    }
}

/// A CPU job was submitted against a host or core group that does not
/// exist — a scenario wiring bug. Reports which host and group were
/// named and which groups the host actually has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Name of the host (or `host#<id>` if the id itself is unknown).
    pub host: String,
    /// The core group that was requested.
    pub group: String,
    /// Core groups the host actually defines (empty for an unknown host).
    pub available: Vec<String>,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "host '{}' has no core group '{}' (available: {})",
            self.host,
            self.group,
            if self.available.is_empty() {
                "none".to_string()
            } else {
                self.available.join(", ")
            }
        )
    }
}

impl std::error::Error for ExecError {}
