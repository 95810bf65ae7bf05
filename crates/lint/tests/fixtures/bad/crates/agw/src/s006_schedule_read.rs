//! S006: actor state folded from another gateway's registry namespace —
//! which components already drained a window is an artifact of the
//! schedule.

use magma_sim::{Actor, Ctx, Event};

pub struct PeekingState {
    pub seen: u64,
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
