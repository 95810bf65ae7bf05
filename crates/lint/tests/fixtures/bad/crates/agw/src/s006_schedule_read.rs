//! S006: actor state folded from schedule-dependent kernel-global reads
//! — the event-heap shape, the global dispatch counter, live trace
//! spans, the RPC edge counters, and another gateway's registry
//! namespace are all artifacts of the window schedule.

use magma_sim::{Actor, Ctx, Event, World};

pub struct PeekingState {
    pub seen: u64,
}

impl PeekingState {
    fn kernel_globals(&self, world: &World) -> u64 {
        let heap = world.heap_stats().peak as u64;
        let dispatched = world.events_processed();
        let spans = world.trace_snapshot().stats.started;
        let rpcs = world.shard_snapshot().edges.len() as u64;
        heap + dispatched + spans + rpcs
    }
}

impl Actor for PeekingState {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        if let Event::Start = event {
            // Cross-gateway registry reads: another component's namespace
            // and a raw counter value.
            let other = ctx.registry().snapshot_prefixed("agw1");
            self.seen = other.counters.len() as u64;
            self.seen += ctx.registry().counter("agw1.mme.attach_accept") as u64;
        }
    }

    fn name(&self) -> String {
        "peeking".to_string()
    }
}
