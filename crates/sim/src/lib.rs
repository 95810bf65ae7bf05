//! # magma-sim — deterministic discrete-event simulation engine
//!
//! The substrate for the Magma reproduction: a virtual-time, event-driven
//! simulator in the style the paper's evaluation testbed would provide.
//! Every network element (AGW services, eNodeBs, UEs, the orchestrator) is
//! an [`Actor`] registered in a [`World`]; physical resources (CPU cores,
//! later links via `magma-net`) are modeled with explicit costs so that
//! the paper's saturation behaviors (Figures 5–8) reproduce.
//!
//! Design rules:
//! - **Deterministic**: a seed fully determines a run; events at the same
//!   instant fire in schedule order.
//! - **Event-driven**: actors are state machines, no async runtime.
//! - **Small fault domains**: any actor can be crashed and restarted
//!   independently; stale in-flight events are dropped via generations.

pub mod actor;
pub mod cpu;
pub mod engine;
mod event;
pub mod eventd;
pub mod flow;
pub mod metrics;
pub mod prof;
pub mod racecheck;
pub mod registry;
pub mod time;
pub mod trace;

pub use actor::{downcast, try_downcast, Actor, ActorId, Event, Payload};
pub use cpu::{CoreGroupSpec, HostId, HostSpec, UtilizationReport};
pub use engine::{Ctx, ExecError, RpcEdge, RpcEdgeSnapshot, World};
pub use event::EventHandle;
pub use flow::{DelayClass, Dispatch, FlowKind, Role};
pub use prof::{
    HeapStats, HostProfile, HostStopwatch, ProfileSnapshot, ScopeGuard, VirtualProfile,
};
pub use racecheck::{
    detect, first_divergence, permutation, RaceEvent, RaceExport, RaceReport, RunSpec,
    WindowDigest,
};
pub use eventd::{EventLog, Severity, StructuredEvent, DEFAULT_EVENT_CAP};
pub use metrics::Series;
pub use registry::{
    BucketHistogram, Registry, RegistrySnapshot, Span, DEFAULT_MAX_INSTRUMENTS_PER_PREFIX,
    DEFAULT_SECONDS_BOUNDS, OVERFLOW_COUNTER,
};
pub use time::{SimDuration, SimTime};
pub use trace::{
    HopShare, ProcSummary, SpanExport, TraceCtx, TraceExport, TraceSnapshot, TraceStats,
    DEFAULT_SPAN_BUDGET,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The edge between the test actors here, none of which declares a
    /// dispatch surface.
    const TEST_MSG: FlowKind = FlowKind {
        name: "test.msg",
        sender: "test",
        receiver: "test",
        class: DelayClass::Transport,
        role: Role::Data,
        retry: None,
    };

    /// Ping-pong actor pair: exercises send/receive and timers.
    struct Ping {
        peer: Option<ActorId>,
        count: u32,
    }

    struct Pong;

    #[derive(Debug, PartialEq)]
    struct Ball(u32);

    impl Actor for Ping {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            match event {
                Event::Start => {
                    if let Some(peer) = self.peer {
                        let d = SimDuration::from_millis(10);
                        ctx.send_to_in(peer, &TEST_MSG, d, Box::new(Ball(0)));
                    }
                }
                Event::Msg { payload, .. } => {
                    let Ball(n) = downcast::<Ball>(payload, "ping");
                    self.count = n;
                    if n < 10 {
                        if let Some(peer) = self.peer {
                            let d = SimDuration::from_millis(10);
                            ctx.send_to_in(peer, &TEST_MSG, d, Box::new(Ball(n)));
                        }
                    }
                }
                _ => {}
            }
        }
        fn name(&self) -> String {
            "ping".into()
        }
    }

    impl Actor for Pong {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            if let Event::Msg { from, payload } = event {
                let Ball(n) = downcast::<Ball>(payload, "pong");
                let d = SimDuration::from_millis(10);
                ctx.send_to_in(from, &TEST_MSG, d, Box::new(Ball(n + 1)));
            }
        }
        fn name(&self) -> String {
            "pong".into()
        }
    }

    #[test]
    fn ping_pong_converges_and_time_advances() {
        let mut w = World::new(1);
        let pong = w.add_actor(Box::new(Pong));
        let _ping = w.add_actor(Box::new(Ping {
            peer: Some(pong),
            count: 0,
        }));
        w.run_until(SimTime::from_secs(10));
        assert!(w.now() == SimTime::from_secs(10));
        assert!(w.events_processed() > 20);
    }

    /// An actor that burns CPU per request, like an MME attach pipeline.
    struct Worker {
        host: HostId,
        done: u32,
    }

    impl Actor for Worker {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            match event {
                Event::Start => {
                    // Submit 4 jobs of 100ms on a 1-core host: they must
                    // serialize, finishing at 100/200/300/400ms.
                    for i in 0..4 {
                        ctx.exec(
                            self.host,
                            "all",
                            SimDuration::from_millis(100),
                            i,
                            Box::new(()),
                        );
                    }
                }
                Event::CpuDone { tag, .. } => {
                    self.done += 1;
                    let t = ctx.now();
                    ctx.registry().record("done", t, tag as f64);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn cpu_jobs_serialize_on_one_core() {
        let mut w = World::new(1);
        let host = w.add_host(HostSpec::uniform("h", 1, 1.0));
        w.add_actor(Box::new(Worker { host, done: 0 }));
        w.run_until(SimTime::from_secs(1));
        let s = w.registry().series("done").unwrap();
        let times: Vec<u64> = s.points.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![100_000, 200_000, 300_000, 400_000]);
        let rep = w.utilization(host, "all").unwrap();
        assert_eq!(rep.jobs_completed, 4);
        // 400ms busy over 1s bucket.
        assert!((rep.series[0].1 - 0.4).abs() < 1e-9);
    }

    #[test]
    fn two_cores_run_jobs_in_parallel() {
        let mut w = World::new(1);
        let host = w.add_host(HostSpec::uniform("h", 2, 1.0));
        w.add_actor(Box::new(Worker { host, done: 0 }));
        w.run_until(SimTime::from_secs(1));
        let s = w.registry().series("done").unwrap();
        let times: Vec<u64> = s.points.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![100_000, 100_000, 200_000, 200_000]);
    }

    /// Crash/restart drops stale events.
    struct Once {
        got: &'static str,
    }

    impl Actor for Once {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            if let Event::Msg { .. } = event {
                let t = ctx.now();
                let tag = self.got;
                ctx.registry().record(tag, t, 1.0);
            }
        }
    }

    struct Sender {
        dst: ActorId,
    }

    impl Actor for Sender {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            if let Event::Start = event {
                // A message in flight for 1s.
                ctx.send_to_in(self.dst, &TEST_MSG, SimDuration::from_secs(1), Box::new(7u8));
            }
        }
    }

    #[test]
    fn restart_drops_in_flight_events() {
        let mut w = World::new(1);
        let dst = w.add_actor(Box::new(Once { got: "old" }));
        w.add_actor(Box::new(Sender { dst }));
        w.run_until(SimTime::from_millis(500));
        // Crash + restart while the message is in flight.
        w.crash(dst);
        w.restart(dst, Box::new(Once { got: "new" }));
        w.run_until(SimTime::from_secs(2));
        assert!(w.registry().series("old").is_none());
        assert!(w.registry().series("new").is_none());
    }

    #[test]
    fn crashed_actor_drops_messages_but_world_continues() {
        let mut w = World::new(1);
        let dst = w.add_actor(Box::new(Once { got: "x" }));
        w.add_actor(Box::new(Sender { dst }));
        w.crash(dst);
        w.run_until(SimTime::from_secs(2));
        assert!(w.registry().series("x").is_none());
        assert!(!w.is_alive(dst));
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let mut w = World::new(seed);
            let pong = w.add_actor(Box::new(Pong));
            w.add_actor(Box::new(Ping {
                peer: Some(pong),
                count: 0,
            }));
            w.run_until(SimTime::from_secs(5));
            w.events_processed()
        };
        assert_eq!(run(42), run(42));
    }

    /// Probes a deliberately wrong core group via `try_exec` and records
    /// what it saw, so the test can assert on the error without panicking.
    struct GroupProbe {
        host: HostId,
    }

    impl Actor for GroupProbe {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            if let Event::Start = event {
                let err = ctx
                    .try_exec(
                        self.host,
                        "nope",
                        SimDuration::from_millis(1),
                        0,
                        Box::new(()),
                    )
                    .unwrap_err();
                assert_eq!(err.host, "h");
                assert_eq!(err.group, "nope");
                assert_eq!(err.available, vec!["all".to_string()]);
                assert!(err.to_string().contains("no core group 'nope'"));
                ctx.registry().counter_add("probe.bad_group", 1.0);

                // Unknown host id reports too, instead of indexing OOB.
                let err = ctx
                    .try_exec(
                        HostId(99),
                        "all",
                        SimDuration::from_millis(1),
                        0,
                        Box::new(()),
                    )
                    .unwrap_err();
                assert_eq!(err.host, "host#99");
                assert!(err.available.is_empty());

                // A valid submission still goes through the same path.
                ctx.try_exec(
                    self.host,
                    "all",
                    SimDuration::from_millis(1),
                    1,
                    Box::new(()),
                )
                .unwrap();
            } else if let Event::CpuDone { .. } = event {
                ctx.registry().counter_add("probe.done", 1.0);
            }
        }
    }

    #[test]
    fn try_exec_reports_missing_group_instead_of_panicking() {
        let mut w = World::new(1);
        let host = w.add_host(HostSpec::uniform("h", 1, 1.0));
        w.add_actor(Box::new(GroupProbe { host }));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.registry().counter("probe.bad_group"), 1.0);
        assert_eq!(w.registry().counter("probe.done"), 1.0);
    }

    #[test]
    fn registry_snapshots_are_deterministic_across_seeded_runs() {
        let run = |seed| {
            struct R {
                host: HostId,
            }
            impl Actor for R {
                fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
                    match event {
                        Event::Start => {
                            for i in 0..8 {
                                ctx.exec(
                                    self.host,
                                    "all",
                                    SimDuration::from_millis(10 + i),
                                    i,
                                    Box::new(()),
                                );
                            }
                        }
                        Event::CpuDone { queued, .. } => {
                            let now = ctx.now();
                            ctx.registry().counter_add("r.done", 1.0);
                            ctx.registry().gauge_set("r.t_us", now.0 as f64);
                            ctx.registry().observe("r.queued_s", queued.as_secs_f64());
                        }
                        _ => {}
                    }
                }
            }
            let mut w = World::new(seed);
            let host = w.add_host(HostSpec::uniform("h", 2, 1.0));
            w.add_actor(Box::new(R { host }));
            w.run_until(SimTime::from_secs(1));
            w.registry().snapshot()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn timers_fire_with_tags() {
        struct T {
            fired: Vec<u64>,
        }
        impl Actor for T {
            fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
                match event {
                    Event::Start => {
                        ctx.timer_in(SimDuration::from_millis(5), 1);
                        let h = ctx.timer_in(SimDuration::from_millis(6), 2);
                        ctx.cancel(h);
                        ctx.timer_in(SimDuration::from_millis(7), 3);
                    }
                    Event::Timer { tag } => {
                        self.fired.push(tag);
                        let t = ctx.now();
                        ctx.registry().record("fired", t, tag as f64);
                    }
                    _ => {}
                }
            }
        }
        let mut w = World::new(1);
        w.add_actor(Box::new(T { fired: vec![] }));
        w.run_until(SimTime::from_secs(1));
        let vals: Vec<f64> = w
            .registry()
            .series("fired")
            .unwrap()
            .values()
            .collect();
        assert_eq!(vals, vec![1.0, 3.0]);
    }

    #[test]
    fn rpc_edges_count_messages_and_bytes_per_method() {
        struct Rpc;
        impl Actor for Rpc {
            fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
                if let Event::Start = event {
                    ctx.count_rpc("orc8r.Checkpoint", 500);
                    ctx.count_rpc("orc8r.Checkin", 64);
                    ctx.count_rpc("orc8r.Checkpoint", 700);
                }
            }
        }
        let mut w = World::new(1);
        assert!(w.shard_snapshot().edges.is_empty());
        w.add_actor(Box::new(Rpc));
        // The counter does not depend on the retired observer switch.
        w.enable_shardscope(false);
        w.run_until(SimTime::from_millis(1));
        let edges = w.shard_snapshot().edges;
        let row = |kind: &str, messages: u64, bytes: u64| RpcEdge {
            kind: kind.to_string(),
            messages,
            bytes,
        };
        assert_eq!(
            edges,
            vec![
                row("orc8r.Checkin", 1, 64),
                row("orc8r.Checkpoint", 2, 1_200)
            ]
        );
    }

    /// Sends one message to `dst` after `delay`, at t = 1000 µs: the
    /// first instant of racecheck window 100.
    struct Poke {
        dst: ActorId,
        delay: SimDuration,
    }

    impl Actor for Poke {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            match event {
                Event::Start => {
                    ctx.timer_in(SimDuration::from_micros(1_000), 0);
                }
                Event::Timer { .. } => {
                    ctx.send_to_in(self.dst, &TEST_MSG, self.delay, Box::new(()));
                }
                _ => {}
            }
        }
    }

    fn window_violations(delay_us: u64) -> u64 {
        let mut w = World::new(1);
        let dst = w.add_actor(Box::new(Once { got: "poked" }));
        let src = w.add_actor(Box::new(Poke {
            dst,
            delay: SimDuration::from_micros(delay_us),
        }));
        w.set_component(src, "a[0]");
        w.set_component(dst, "b[0]");
        w.enable_racecheck(None);
        w.run_until(SimTime::from_millis(5));
        assert!(w.registry().series("poked").is_some(), "message delivered");
        w.race_export().window_violations
    }

    #[test]
    fn racecheck_counts_cross_component_sends_inside_the_senders_window() {
        let window = racecheck::WINDOW_US;
        // Sent at the start of a window: any shorter delay lands in it.
        assert!(window_violations(2) >= 1);
        assert_eq!(window_violations(window - 1), 1);
        // A full window of delay always lands in a later window.
        assert_eq!(window_violations(window), 0);
        assert_eq!(window_violations(2_000), 0);
    }

    #[test]
    fn same_component_and_spawned_sends_are_never_window_violations() {
        struct Parent;
        impl Actor for Parent {
            fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
                if let Event::Start = event {
                    let child = ctx.spawn(Box::new(Once { got: "child" }));
                    ctx.send_to(child, &TEST_MSG, Box::new(()));
                }
            }
        }
        let mut w = World::new(1);
        let p = w.add_actor(Box::new(Parent));
        w.set_component(p, "a[0]");
        w.enable_racecheck(Some(3));
        w.run_until(SimTime::from_millis(1));
        assert!(w.registry().series("child").is_some(), "child got the message");
        assert_eq!(w.race_export().window_violations, 0);
    }
}
