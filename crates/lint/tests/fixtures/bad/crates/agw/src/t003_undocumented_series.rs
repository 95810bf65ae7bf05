//! Known-bad: well-formed series name missing from docs/OBSERVABILITY.md.
pub fn report(reg: &mut magma_sim::Registry, t: magma_sim::SimTime) {
    reg.record("mme.totally_new_series", t, 1.0);
}
