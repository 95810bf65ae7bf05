//! Known-bad: magma-trace procedure labels that break the name grammar
//! (T001) or have no `trace` row in the docs inventory (T003). Exactly
//! two findings.

pub fn handle(&mut self, ctx: &mut Ctx<'_>) {
    ctx.trace_start("Bad-Label");
    ctx.trace_finish_as("ghost_procedure");
}
