//! S004: raw `ctx.send` / `ctx.send_in` outside the kernel bypass the
//! typed flow layer.

pub struct RogueActor;

impl Actor for RogueActor {
    fn handle(&mut self, ctx: &mut Ctx, ev: Event) {
        // Raw sends carry no declared FlowKind: two findings.
        ctx.send(ev.target, ev.payload);
        ctx.send_in(ev.delay, ev.target, ev.payload);
    }
}
