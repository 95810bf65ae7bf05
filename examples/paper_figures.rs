//! Regenerate every table and figure from the paper's evaluation, plus
//! the DESIGN.md ablations, print them in the paper's layout, and
//! assert each one's shape (a panic exits non-zero, so
//! `scripts/check.sh` gates on it). Shapes a `#[test]` already pins at
//! an equal or stronger bound are not repeated here: Figure 9's trace
//! (`testbed::trace`), Table 3's 42.6 % saving (`costmodel::tables`)
//! and ablation E's overspend bound (`ablation_quota`).
//!
//! Run with: `cargo run --release --example paper_figures`
//! (pass a figure name to run just one, e.g.
//! `cargo run --release --example paper_figures fig6`)

use magma::costmodel;
use magma::testbed::experiments::{
    ablation_failover, ablation_gtp, ablation_headless, ablation_quota, cups, fig5, fig6, fig9,
    scaling, workload_mix,
};
use magma::sim::SimDuration;
use magma_epc_baseline as epc;

fn want(args: &[String], name: &str) -> bool {
    args.is_empty() || args.iter().any(|a| a == name)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = 1;

    if want(&args, "table1") {
        println!("{}", magma::render_table1());
    }
    if want(&args, "table2") {
        println!("{}", costmodel::table2(costmodel::SiteParams::default()).render());
        println!();
    }
    if want(&args, "table3") {
        println!("{}", costmodel::render_table3(costmodel::LaborParams::default()));
        println!();
    }
    if want(&args, "fig5") {
        let r = fig5::run(seed, SimDuration::from_secs(300));
        println!("{}", fig5::render(&r));
        assert_eq!(r.attached, 288, "all UEs attach");
        assert!(r.csr > 0.999, "csr {}", r.csr);
        assert!(
            (r.steady_mbps - fig5::OFFERED_MBPS).abs() < 20.0,
            "steady throughput tracks the RAN-limited offered load: {:.0}",
            r.steady_mbps
        );
    }
    if want(&args, "fig6") {
        let r = fig6::run(seed, &fig6::default_rates());
        println!("{}", fig6::render(&r));
        assert!((r.knee_rate - 2.0).abs() < 0.6, "knee at ≈2 UE/s, got {}", r.knee_rate);
        let last = r.points.last().expect("a sweep point");
        assert!(last.csr < 0.5, "heavily degraded at {} UE/s", last.attach_rate);
    }
    if want(&args, "fig7") || want(&args, "fig8") {
        let r = cups::run(seed);
        println!("{}", cups::render_fig7(&r));
        println!("{}", cups::render_fig8(&r));
        let at = |cores: u32| {
            r.points
                .iter()
                .find(|p| !p.flexible && p.up_cores == cores)
                .expect("pinned point in the sweep")
        };
        // Figure 7: ~550 Mbit/s per pinned core until the 2.5G cap.
        assert!((at(1).steady_mbps - 550.0).abs() < 60.0, "1 core: {:.0}", at(1).steady_mbps);
        assert!((at(4).steady_mbps - 2200.0).abs() < 150.0, "4 cores: {:.0}", at(4).steady_mbps);
        assert!(
            (at(6).steady_mbps - cups::TRAFFIC_GEN_CAP_MBPS).abs() < 100.0,
            "6 cores: {:.0}",
            at(6).steady_mbps
        );
        // Figure 8: starving the control plane kills CSR; flexible wins both.
        assert!(at(7).median_csr < 0.5, "7 cores: csr {}", at(7).median_csr);
        let flex = r.points.iter().find(|p| p.flexible).expect("flexible point");
        assert!(
            flex.median_csr > 0.9 && flex.steady_mbps > 2_000.0,
            "flexible: csr {} at {:.0} Mbit/s",
            flex.median_csr,
            flex.steady_mbps
        );
    }
    if want(&args, "fig9") {
        println!("{}", fig9::render(2022));
    }
    if want(&args, "growth") {
        let pts = costmodel::project(
            costmodel::GrowthParams::default(),
            costmodel::Orc8rCostParams::default(),
            36,
        );
        println!("{}", costmodel::deployment::render(&pts));
    }
    if want(&args, "ablation_a") {
        let reports = epc::sweep(&[0.0, 0.02, 0.05, 0.10, 0.20], 5_000, 100, seed);
        println!("{}", epc::render_sync(&reports));
        let at_20 = |strategy| {
            reports
                .iter()
                .find(|r| r.strategy == strategy && r.loss == 0.20)
                .expect("20% loss point")
                .final_divergence
        };
        assert!(at_20(epc::SyncStrategy::Crud) > 20, "CRUD diverges under loss");
        assert_eq!(at_20(epc::SyncStrategy::DesiredState), 0, "desired state converges");
    }
    if want(&args, "ablation_b") {
        let r = ablation_gtp::run(seed, &[0.0, 0.05, 0.10, 0.15, 0.25], 600);
        println!("{}", ablation_gtp::render(&r));
        assert!(r.magma.iter().all(|p| p.stuck_ues == 0.0), "Magma wedges no UE");
        let worst = r.baseline.last().expect("a baseline point");
        assert!(worst.sessions_released > 0.0, "GTP over backhaul drops sessions");
    }
    if want(&args, "ablation_c") {
        let r = ablation_headless::run(seed);
        println!("{}", ablation_headless::render(&r));
        assert!(r.csr > 0.99, "attaches survive the partition: csr {}", r.csr);
    }
    if want(&args, "ablation_d") {
        let r = ablation_failover::run(seed);
        println!("{}", ablation_failover::render(&r));
        assert_eq!(r.sessions_restored, r.sessions_before_crash, "failover keeps sessions");
    }
    if want(&args, "ablation_e") {
        let pts: Vec<_> = [1, 2, 4, 8]
            .iter()
            .map(|&n| ablation_quota::race(n, 10_000_000, 1_000_000))
            .collect();
        println!("{}", ablation_quota::render(&pts));
    }
    if want(&args, "ablation_f") {
        let pts = scaling::run(seed, &[1, 2, 4, 8]);
        println!("{}", scaling::render(&pts));
        let ratio = pts[2].aggregate_mbps / pts[0].aggregate_mbps;
        assert!((ratio - 4.0).abs() < 0.5, "linear scaling to N=4, got {ratio:.2}");
    }
    if want(&args, "ablation_g") {
        let pts = workload_mix::run(seed, 240);
        println!("{}", workload_mix::render(&pts));
    }
}
