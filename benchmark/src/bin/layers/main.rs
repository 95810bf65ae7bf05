//! `magma-benchmark-layers` — the traced pass.
//!
//! ```text
//! magma-benchmark-layers [--seed N] [--workload W]...
//! magma-benchmark-layers --workload W --seed N --seconds S --trace 1   (the driver's contract)
//! ```
//!
//! For each workload: run it once with the testbed's observers on and
//! fold `World::profile()` into the layer ledger, run it once more with
//! the observers off (their overhead), harvest inputs from the finished
//! world and run the probes. Spans — `{name, layer, start_ns, end_ns,
//! parent, workload}`, one root per workload with `build`, `warmup`,
//! `run` and one child per probe — are kept in memory and written to
//! `benchmark/out/SPANS_<workload>.json` at exit together with the
//! per-layer table. The pass is a fixed amount of work; `--seconds` only
//! selects the contract's one-line output.

mod ledger;
mod probes;

use ledger::Ledger;
use magma::sim::HostStopwatch;
use magma_benchmark::catalog::{layer_of, PER_LAYER};
use magma_benchmark::cli;
use magma_benchmark::report;
use magma_benchmark::stats::{median, quantile};
use magma_benchmark::workloads::{self, Execution, Workload};
use probes::{Harvest, PROBES};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Worlds built for `testbed.build_s`.
const BUILD_SAMPLES: usize = 5;

struct Span {
    name: String,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans of one workload's pass, on one clock. Index 0 is the root.
struct Trace {
    clock: HostStopwatch,
    spans: Vec<Span>,
}

impl Trace {
    fn new(workload: &str) -> Trace {
        let root = Span {
            name: workload.to_string(),
            layer: "benchmark",
            start_ns: 0,
            end_ns: 0,
            parent: None,
        };
        Trace {
            clock: HostStopwatch::start(),
            spans: vec![root],
        }
    }

    fn push(&mut self, name: &str, layer: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns,
            parent: Some(0),
        });
    }

    /// Run `f` under a child span of the root.
    fn span<T>(&mut self, name: &str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.clock.elapsed_ns();
        let out = f();
        self.push(name, layer, start, self.clock.elapsed_ns());
        out
    }

    fn phases(&mut self, prefix: &str, x: &Execution) {
        for (name, start, end) in x.phases {
            self.push(&format!("{prefix}{name}"), "testbed", start, end);
        }
    }

    /// Close the root span and render every span.
    fn finish(mut self, workload: &str) -> Value {
        self.spans[0].end_ns = self.clock.elapsed_ns();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "layer": s.layer,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "workload": workload,
                })
            })
            .collect();
        Value::Array(spans)
    }
}

/// Everything the pass learned about one workload.
struct Pass {
    metrics: BTreeMap<&'static str, f64>,
    ledger: Ledger,
    /// Wall of warm-up plus timed window: what the profile covers.
    profiled_wall_s: f64,
    attempted: u64,
    failed: u64,
    error: Option<String>,
    spans: Value,
}

fn observers_off(sc: &mut magma::testbed::Scenario) {
    sc.world.enable_profiling(false);
    sc.world.enable_tracing(false);
    sc.world.enable_shardscope(false);
}

fn trace_workload(w: &'static Workload, seed: u64) -> Result<Pass, String> {
    let mut trace = Trace::new(w.name);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // ---- the traced run, read through public snapshots ----
    let x = workloads::execute(w, seed, w.timed_s, &trace.clock, |_| {});
    trace.phases("", &x);
    let sim = workloads::simulated(&x);
    let error = workloads::check(w, &x, &sim).err();
    let world = &x.scenario.world;
    let ledger = Ledger::from_profile(&world.profile());
    let timed_s = x.timed_s as f64;
    let profiled_wall_s = (x.phases[2].2 - x.phases[1].1) as f64 / 1e9;
    let events_timed = x.at_end.events - x.at_warm.events;
    m.insert("sim.events", x.at_end.events as f64);
    m.insert(
        "sim.events_per_wall_s",
        events_timed as f64 / x.run_wall_s(),
    );
    m.insert("sim.cpu_s_per_sim_s", x.run_cpu_s / timed_s);
    m.insert("sim.heap_peak_depth", world.heap_stats().peak_depth as f64);
    m.insert("sim.residual_s", profiled_wall_s - ledger.attributed_s());
    m.insert(
        "ledger.coverage_pct",
        ledger.named_s() / profiled_wall_s * 100.0,
    );
    for (layer, busy, dispatches) in [
        ("net", "net.busy_s", "net.dispatches"),
        ("agw", "agw.busy_s", "agw.dispatches"),
        ("orc8r", "orc8r.busy_s", "orc8r.dispatches"),
        ("ran", "ran.busy_s", "ran.dispatches"),
    ] {
        m.insert(busy, ledger.layer(layer).busy_s);
        m.insert(dispatches, ledger.layer(layer).dispatches as f64);
    }
    for (scope, busy, calls) in [
        ("rpc.encode", "rpc.encode_busy_s", "rpc.encode_calls"),
        ("rpc.decode", "rpc.decode_busy_s", "rpc.decode_calls"),
        (
            "dataplane.fluid_tick",
            "dataplane.fluid_busy_s",
            "dataplane.fluid_ticks",
        ),
    ] {
        m.insert(busy, ledger.scope(scope).busy_s);
        m.insert(calls, ledger.scope(scope).scope_entries as f64);
    }
    m.insert("net.backhaul_frames", x.at_end.backhaul_frames as f64);
    m.insert("net.backhaul_dropped", x.at_end.backhaul_dropped as f64);
    m.insert("agw.reprograms", sim.counts["reprograms"] as f64);
    let (cp_messages, cp_bytes) = world
        .shard_snapshot()
        .edges
        .iter()
        .filter(|e| e.kind == magma::orc8r::methods::CHECKPOINT)
        .fold((0, 0), |(n, b), e| (n + e.messages, b + e.bytes));
    m.insert("agw.checkpoints", cp_messages as f64);
    m.insert("agw.checkpoint_bytes", cp_bytes as f64);
    m.insert("orc8r.pushes", sim.counts["orc8r_pushes"] as f64);
    m.insert(
        "orc8r.config_lag_p99_sim_ms",
        quantile(&x.config_lag_ms, 0.99),
    );

    // ---- the same run with the three observers off ----
    let off = workloads::execute(w, seed, w.timed_s, &trace.clock, observers_off);
    trace.phases("observers_off.", &off);
    if off.at_end.events != x.at_end.events {
        return Err(format!(
            "{}: observers changed the run ({} events with, {} without)",
            w.name, x.at_end.events, off.at_end.events
        ));
    }
    m.insert(
        "sim.observer_overhead_pct",
        (x.run_wall_s() / off.run_wall_s() - 1.0) * 100.0,
    );
    drop(off);

    // ---- probes, on inputs harvested from the traced run ----
    let rpc_messages = ledger.scope("rpc.encode").scope_entries;
    let harvest = Harvest::from_run(&x.scenario, x.at_end.backhaul_bytes, rpc_messages)?;
    drop(x);
    for p in &PROBES {
        let value = trace.span(p.metric, layer_of(p.metric), || (p.run)(&harvest));
        m.insert(p.metric, value);
    }
    let builds: Vec<f64> = (0..BUILD_SAMPLES)
        .map(|_| {
            trace.span("testbed.build_s", "testbed", || {
                let t = HostStopwatch::start();
                let world = workloads::build_world(w, seed);
                let built_s = t.elapsed_s();
                drop(world);
                built_s
            })
        })
        .collect();
    m.insert("testbed.build_s", median(&builds));

    Ok(Pass {
        metrics: m,
        ledger,
        profiled_wall_s,
        attempted: sim.attach_ok + sim.attach_fail,
        failed: sim.attach_fail,
        error,
        spans: trace.finish(w.name),
    })
}

/// Per-layer table: busy s, share of wall, count, then the cross-check
/// of `count x probe cost` beside the simprof-attributed time.
fn render(w: &Workload, p: &Pass) -> String {
    let mut out = format!("{}  (profiled wall {:.3} s)\n", w.name, p.profiled_wall_s);
    out.push_str("  layer        busy_s   share   count\n");
    for (layer, row) in &p.ledger.layers {
        out.push_str(&format!(
            "  {:<10} {:>8.3} {:>6.1}% {:>8}\n",
            layer,
            row.busy_s,
            row.busy_s / p.profiled_wall_s * 100.0,
            row.count()
        ));
    }
    let residual = p.metrics["sim.residual_s"];
    out.push_str(&format!(
        "  {:<10} {:>8.3} {:>6.1}%          (wall - every row: queue + dispatch + observers)\n",
        "residual",
        residual,
        residual / p.profiled_wall_s * 100.0
    ));
    out.push_str("  cross-check                 simprof_s    count    probe_us   count*probe_s\n");
    let v = |name: &str| p.metrics[name];
    for (label, simprof_s, count, probe_us) in [
        (
            "rpc.encode (ckpt-sized)",
            v("rpc.encode_busy_s"),
            v("agw.checkpoints"),
            v("rpc.encode_us_per_frame"),
        ),
        (
            "rpc.decode (ckpt-sized)",
            v("rpc.decode_busy_s"),
            v("agw.checkpoints"),
            v("rpc.decode_us_per_frame"),
        ),
        (
            "dataplane.fluid_tick",
            v("dataplane.fluid_busy_s"),
            v("dataplane.fluid_ticks"),
            v("dataplane.fluid_tick_us"),
        ),
        (
            "agw reprogram",
            v("agw.busy_s"),
            v("agw.reprograms"),
            v("agw.compile_us") + v("dataplane.set_desired_us"),
        ),
        (
            "agw checkpoint build",
            v("agw.busy_s"),
            v("agw.checkpoints"),
            v("agw.checkpoint_build_us"),
        ),
        (
            "orc8r store checkpoint",
            v("orc8r.busy_s"),
            v("agw.checkpoints"),
            v("orc8r.store_checkpoint_us"),
        ),
        (
            "orc8r push snapshot",
            v("orc8r.busy_s"),
            v("orc8r.pushes"),
            v("orc8r.push_snapshot_us"),
        ),
    ] {
        out.push_str(&format!(
            "  {:<26} {:>10.3} {:>8} {:>11.2} {:>15.3}\n",
            label,
            simprof_s,
            count,
            probe_us,
            count * probe_us / 1e6
        ));
    }
    out.push_str("  metric                          value            unit\n");
    for def in &PER_LAYER {
        out.push_str(&format!(
            "  {:<30} {:>16.4}  {}\n",
            def.name, p.metrics[def.name], def.unit
        ));
    }
    if let Some(e) = &p.error {
        out.push_str(&format!("  CHECK FAILED: {e}\n"));
    }
    out
}

fn main_inner() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&argv)?;
    let (seed, chosen) = (args.seed, args.workloads);
    // `--seconds` marks the driver's contract form.
    let contract = args.seconds.is_some();
    if contract && chosen.len() != 1 {
        return Err("the contract form takes exactly one --workload".to_string());
    }

    let mut all_ok = true;
    let mut span_files = Vec::new();
    let mut summary = BTreeMap::new();
    let mut last_line = String::new();
    for w in chosen {
        let pass = trace_workload(w, seed)?;
        let table = render(w, &pass);
        if contract {
            eprint!("{table}");
        } else {
            print!("{table}");
        }
        all_ok &= pass.error.is_none();
        let metrics: BTreeMap<&str, Value> = PER_LAYER
            .iter()
            .map(|def| {
                (
                    def.name,
                    json!({ "value": pass.metrics[def.name], "unit": def.unit }),
                )
            })
            .collect();
        span_files.push((
            format!("SPANS_{}.json", w.name),
            json!({ "workload": w.name, "seed": seed, "spans": pass.spans, "table": table }),
        ));
        last_line = json!({
            "correct": pass.error.is_none(),
            "attempted": pass.attempted,
            "failed": pass.failed,
            "metrics": metrics,
        })
        .to_string();
        summary.insert(w.name, json!({ "metrics": metrics, "error": pass.error }));
    }
    // Spans and tables stay in memory until every pass is done.
    let dir = report::out_dir()?;
    for (file, v) in &span_files {
        report::write_json(&dir.join(file), v)?;
    }
    report::write_json(
        &dir.join(format!("LAYERS_seed{seed}.json")),
        &json!({ "seed": seed, "workloads": summary }),
    )?;
    if contract {
        println!("{last_line}");
        return Ok(true);
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("magma-benchmark-layers: {e}");
            ExitCode::from(2)
        }
    }
}
