//! # magma-testbed — the emulation testbed (Spirent Landslide analog)
//!
//! Builds runnable scenarios (orchestrator + AGWs + RAN + UE fleets over
//! a simulated network), drives workloads, and extracts the paper's
//! metrics: connection success rate in 5-second bins, achieved
//! throughput, and CPU utilization. The [`experiments`] module contains
//! one runner per paper figure/table plus the ablations from DESIGN.md.

pub mod experiments;
pub mod export;
pub mod measure;
pub mod perfetto;
pub mod scenario;
pub mod trace;

pub use export::{
    orc8r_alerts_json, orc8r_events_json, orc8r_metrics_json, orc8r_telemetry_json,
    render_orc8r_alerts, render_orc8r_events, render_orc8r_metrics, ATTACH_STAGES,
};
pub use measure::{cpu_percent, csr_bins, mean_attach_latency, mean_over, median_csr, overall_csr, throughput_mbps, CsrBin};
pub use perfetto::{critical_path_json, perfetto_json, perfetto_string, render_critical_path};
pub use scenario::{build, AgwInstance, AgwSpec, CoreLayout, Scenario, ScenarioConfig, SiteSpec, SIM_SEED};
