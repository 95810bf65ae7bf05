//! Names, units, directions and bounds of every metric the benchmark
//! emits. `BENCHMARK.json` at the repo root carries the same list; the
//! self-test `tests/names.rs` fails when the two drift apart.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric, reported for every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Simulated quantity: a function of (workload, seed) alone, so two
    /// commits compare exactly. Host quantities carry run-to-run noise.
    pub simulated: bool,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
        what: "host seconds for scenario::build plus the simulated warm-up 0 -> 10 s",
    },
    EndToEnd {
        name: "wall_s_per_sim_s",
        unit: "s/s",
        better: Better::Lower,
        bound: 0.15,
        simulated: false,
        what: "host seconds of the timed window per simulated second (primary metric)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        simulated: false,
        what: "VmHWM of the child process that ran one repetition, 10^6 bytes",
    },
    EndToEnd {
        name: "attach_csr",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.001,
        simulated: true,
        what: "ran.attach_ok / (ran.attach_ok + ran.attach_fail), whole run",
    },
    EndToEnd {
        name: "attach_p99_sim_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.05,
        simulated: true,
        what:
            "exact p99 of the UE-observed attach latencies (series ran.attach_ok_at), simulated ms",
    },
    EndToEnd {
        name: "agg_dl_mbps_sim",
        unit: "Mbit/s",
        better: Better::Higher,
        bound: 0.01,
        simulated: true,
        what: "sum over gateways of dataplane.dl_bytes in the timed window, simulated Mbit/s",
    },
    EndToEnd {
        name: "backhaul_mb_per_sim_s",
        unit: "MB/s",
        better: Better::Lower,
        bound: 0.02,
        simulated: true,
        what: "bytes delivered AGW<->orc8r, both directions, per simulated second",
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Read from the traced workload run through public snapshots.
    Run,
    /// The benchmark's own span around one public function.
    Probe,
}

/// One per-layer metric. The layer is the part of the name before the
/// first dot and is a crate name (`sim`, `net`, `rpc`, ...).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    pub what: &'static str,
}

const fn run(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Run,
        what,
    }
}

const fn probe(name: &'static str, unit: &'static str, what: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        source: Source::Probe,
        what,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 53] = [
    // ---- run-derived ----
    run("sim.events", "count", Lower, "events dispatched by the kernel in the whole run"),
    run("sim.events_per_wall_s", "1/s", Higher, "events per host second of the timed window"),
    run("sim.cpu_s_per_sim_s", "s/s", Lower, "process utime+stime of the timed window per simulated second"),
    run("sim.heap_peak_depth", "count", Lower, "high-water mark of the event heap"),
    run("sim.residual_s", "s", Lower, "wall minus every attributed row: queue + dispatch + observers"),
    run("sim.observer_overhead_pct", "%", Lower, "timed wall with simprof/trace/shardscope on vs the same run with them off"),
    run("net.busy_s", "s", Lower, "host time in netstack-* dispatches"),
    run("net.dispatches", "count", Lower, "netstack-* dispatches"),
    run("net.backhaul_frames", "count", Lower, "frames delivered AGW<->orc8r, both directions"),
    run("net.backhaul_dropped", "count", Lower, "frames dropped AGW<->orc8r (loss, partition, backlog)"),
    run("rpc.encode_busy_s", "s", Lower, "host time under scope rpc.encode"),
    run("rpc.encode_calls", "count", Lower, "entries of scope rpc.encode"),
    run("rpc.decode_busy_s", "s", Lower, "host time under scope rpc.decode"),
    run("rpc.decode_calls", "count", Lower, "entries of scope rpc.decode"),
    run("agw.busy_s", "s", Lower, "host self time in agw* dispatches (incl. metricsd) outside rpc/dataplane scopes"),
    run("agw.dispatches", "count", Lower, "agw* dispatches"),
    run("agw.reprograms", "count", Lower, "sum of <gw>.pipelined.reprogram"),
    run("agw.checkpoints", "count", Lower, "orc8r.Checkpoint messages sent (shardscope edge)"),
    run("agw.checkpoint_bytes", "B", Lower, "bytes of orc8r.Checkpoint messages (shardscope edge)"),
    run("orc8r.busy_s", "s", Lower, "host self time in orc8r dispatches outside rpc scopes"),
    run("orc8r.dispatches", "count", Lower, "orc8r dispatches"),
    run("orc8r.pushes", "count", Lower, "desired-state snapshots pushed to gateways"),
    run("orc8r.config_lag_p99_sim_ms", "ms", Lower, "northbound write -> every replica at that version, p99, simulated ms (0 where the workload writes nothing)"),
    run("ran.busy_s", "s", Lower, "host time in enb-* dispatches"),
    run("ran.dispatches", "count", Lower, "enb-* dispatches"),
    run("dataplane.fluid_busy_s", "s", Lower, "host time under scope dataplane.fluid_tick"),
    run("dataplane.fluid_ticks", "count", Lower, "entries of scope dataplane.fluid_tick"),
    run("ledger.coverage_pct", "%", Higher, "share of run wall attributed to a named layer row"),
    // ---- probe-derived ----
    probe("sim.kernel_ns_per_event", "ns", "World::run_to_quiescence over 64 self-messaging actors"),
    probe("sim.cpu_model_ns_per_job", "ns", "Ctx::try_exec -> CpuDone round trip"),
    probe("sim.registry_snapshot_us", "us", "Registry::snapshot_prefixed on the finished run's registry"),
    probe("net.stream_us_per_msg", "us", "StreamState::app_send -> peer on_frame -> acks, one mean-sized backhaul RPC"),
    probe("net.link_ns_per_frame", "ns", "Link::transmit of one MSS-sized frame"),
    probe("rpc.encode_us_per_frame", "us", "encode_frame on the run's last checkpoint request"),
    probe("rpc.decode_us_per_frame", "us", "Framer::push fed MSS-sized chunks of that frame"),
    probe("rpc.small_frame_ns", "ns", "encode + decode of a Checkin-sized frame"),
    probe("wire.attach_codec_ns", "ns", "S1AP+NAS encode+decode of one 4G attach's message sequence"),
    probe("wire.gtpu_1400_ns", "ns", "GTP-U encap + decap of a 1400-byte payload"),
    probe("wire.aka_vector_ns", "ns", "one EPS-AKA vector generation"),
    probe("dataplane.set_desired_us", "us", "Pipeline::set_desired at the run's session count"),
    probe("dataplane.fluid_tick_us", "us", "Pipeline::fluid_tick at the run's session count"),
    probe("dataplane.packet_ns", "ns", "Pipeline::process of one uplink packet"),
    probe("agw.compile_us", "us", "pipelined::compile of the run's session table"),
    probe("agw.checkpoint_build_us", "us", "clone sessions + pool + db.snapshot() + to_value(&AgwCheckpoint)"),
    probe("subscriber.snapshot_us", "us", "SubscriberDb::snapshot of the run's database"),
    probe("subscriber.apply_snapshot_us", "us", "SubscriberDb::apply_snapshot of that snapshot"),
    probe("subscriber.auth_vector_ns", "ns", "SubscriberDb::generate_auth_vector"),
    probe("policy.ocs_credit_ns", "ns", "OcsServer::request_credit + report_usage"),
    probe("orc8r.store_checkpoint_us", "us", "from_value::<CheckpointPush> + Orc8rState::store_checkpoint"),
    probe("orc8r.metrics_ingest_us", "us", "MetricsStore::ingest of one gateway registry snapshot"),
    probe("orc8r.push_snapshot_us", "us", "db.snapshot() + json!(snapshot): push_stale's work per stale gateway"),
    probe("ran.ue_attach_fsm_ns", "ns", "UeSim::start_attach .. on_nas through AKA to Attached"),
    probe("testbed.build_s", "s", "testbed::scenario::build of the workload's world"),
];

/// Layer of a per-layer metric: the name up to the first dot.
pub fn layer_of(metric: &str) -> &str {
    metric.split('.').next().unwrap_or(metric)
}

/// The contract's name grammar: starts with a letter or digit, then at
/// most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    first.is_ascii_alphanumeric()
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workloads::WORKLOADS.iter().map(|w| w.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
    }

    #[test]
    fn name_grammar() {
        assert!(valid_name("wall_s_per_sim_s"));
        assert!(valid_name("9p"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn setup_metric_has_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }

    #[test]
    fn layers_are_crate_names() {
        let crates = [
            "sim",
            "net",
            "rpc",
            "wire",
            "dataplane",
            "agw",
            "subscriber",
            "policy",
            "orc8r",
            "ran",
            "testbed",
            "ledger",
        ];
        for m in &PER_LAYER {
            assert!(
                crates.contains(&layer_of(m.name)),
                "{} has no layer",
                m.name
            );
        }
    }
}
