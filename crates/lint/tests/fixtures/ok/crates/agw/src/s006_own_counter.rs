//! Lints clean: an actor reading a counter in its own namespace (the
//! check-in body pattern) is exempt from S006, like metricsd's
//! `snapshot_prefixed(&self...)` export.

use magma_sim::{Actor, Ctx, Event};

pub struct CheckinBody {
    pub id: String,
    pub accepted: f64,
}

impl CheckinBody {
    fn metric(&self, suffix: &str) -> String {
        format!("{}.{}", self.id, suffix)
    }
}

impl Actor for CheckinBody {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        if let Event::Start = event {
            self.accepted = ctx.registry().counter(&self.metric("mme.attach_accept"));
        }
    }

    fn name(&self) -> String {
        "checkin".to_string()
    }
}
