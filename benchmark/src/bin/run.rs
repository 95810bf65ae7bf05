//! `magma-benchmark` — the end-to-end command.
//!
//! ```text
//! magma-benchmark run [--seed N] [--reps R] [--workload W]... [--out FILE]
//! magma-benchmark layers [--seed N] [--workload W]...   (delegates to magma-benchmark-layers)
//! magma-benchmark compare A.json B.json
//! magma-benchmark list
//! magma-benchmark --workload W --seed N --seconds S --trace 0|1   (the driver's contract)
//! ```
//!
//! `run` measures every workload, prints every end-to-end metric by name
//! with its unit, checks outputs and exits non-zero on a failed check.
//! The flag-only form is what `BENCHMARK.json` names: one workload, for
//! `--seconds`, one JSON object on the last line of stdout.

use magma::sim::prof::peak_rss_bytes;
use magma::sim::HostStopwatch;
use magma_benchmark::catalog::{END_TO_END, PER_LAYER};
use magma_benchmark::cli::{parse, Args};
use magma_benchmark::guard::Guard;
use magma_benchmark::report::{self, Budget, Rep};
use magma_benchmark::workloads::{self, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One repetition, in this process: build, warm up, drive, check, and
/// print one JSON line for the parent.
fn child(a: &Args) -> Result<(), String> {
    let [w] = a.workloads[..] else {
        return Err("child runs exactly one --workload".to_string());
    };
    let guard = Guard::start();
    let clock = HostStopwatch::start();
    let x = workloads::execute(w, a.seed, w.timed_s, &clock, |_| {});
    let reading = guard.finish();
    let sim = workloads::simulated(&x);
    let mut metrics = BTreeMap::new();
    for (name, v) in [
        ("setup_s", x.setup_s()),
        ("wall_s_per_sim_s", x.run_wall_s() / x.timed_s as f64),
        ("peak_rss_mb", peak_rss_bytes() as f64 / 1e6),
        ("attach_csr", sim.attach_csr),
        ("attach_p99_sim_ms", sim.attach_p99_sim_ms),
        ("agg_dl_mbps_sim", sim.agg_dl_mbps_sim),
        ("backhaul_mb_per_sim_s", sim.backhaul_mb_per_sim_s),
    ] {
        metrics.insert(name.to_string(), v);
    }
    debug_assert!(END_TO_END.iter().all(|m| metrics.contains_key(m.name)));
    let rep = Rep {
        metrics,
        attempted: sim.attach_ok + sim.attach_fail,
        failed: sim.attach_fail,
        guard: reading,
        error: workloads::check(w, &x, &sim)
            .err()
            .map(|e| format!("{}: {e}", w.name)),
        counts: sim.counts,
    };
    println!("{}", rep.render());
    Ok(())
}

fn this_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))
}

/// `run`: all (or the named) workloads, interleaved; table on stdout,
/// run file under `benchmark/out/` (or `--out`).
fn run(a: &Args) -> Result<bool, String> {
    let results = report::measure(&this_exe()?, &a.workloads, a.seed, Budget::Reps(a.reps))?;
    print!("{}", report::render_table(&results));
    let out = match &a.out {
        Some(p) => p.clone(),
        None => report::out_dir()?.join(format!("RUN_seed{}.json", a.seed)),
    };
    report::write_json(&out, &report::run_file(&results, a.seed))?;
    println!("run file: {}", out.display());
    Ok(results.iter().all(|r| r.errors().is_empty()))
}

/// The driver's contract, `--trace 0`: one workload for `--seconds`.
fn contract(a: &Args) -> Result<bool, String> {
    let [w] = a.workloads[..] else {
        return Err("the contract form takes exactly one --workload".to_string());
    };
    let seconds = a.seconds.ok_or("the contract form needs --seconds")?;
    let results = report::measure(&this_exe()?, &[w], a.seed, Budget::Seconds(seconds))?;
    let r = &results[0];
    for e in r.errors() {
        eprintln!("CHECK FAILED: {e}");
    }
    eprintln!(
        "reps={} disturbed_reps={}",
        r.reps.len(),
        r.disturbed_reps()
    );
    println!("{}", report::contract_line(r));
    Ok(true)
}

/// The traced pass lives in the second binary; build (if stale) and run
/// it through cargo so this binary never links the probed functions.
fn layers(forward: &[String]) -> Result<bool, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(report::manifest_dir().join("Cargo.toml"))
        .args(["--bin", "magma-benchmark-layers", "--"])
        .args(forward)
        .status()
        .map_err(|e| format!("cannot start cargo: {e}"))?;
    Ok(status.success())
}

fn compare(a: &Args) -> Result<bool, String> {
    let [pa, pb] = &a.positional[..] else {
        return Err("usage: compare A.json B.json".to_string());
    };
    let load = |p: &String| -> Result<serde_json::Value, String> {
        let text =
            std::fs::read_to_string(Path::new(p)).map_err(|e| format!("cannot read {p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, ok) = report::compare(&load(pa)?, &load(pb)?)?;
    print!("{table}");
    println!("{}", if ok { "all ok" } else { "NOT all ok" });
    Ok(ok)
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("end_to_end:");
    for m in &END_TO_END {
        println!(
            "  {:<30} {:<8} {:<6} bound {:>4.1}%  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("per_layer:");
    for m in &PER_LAYER {
        println!(
            "  {:<30} {:<8} {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first() {
        Some(first) if !first.starts_with("--") => (first.as_str(), &argv[1..]),
        _ => ("contract", &argv[..]),
    };
    let outcome = parse(rest).and_then(|a| match command {
        "run" => run(&a),
        "child" => child(&a).map(|()| true),
        "compare" => compare(&a),
        "list" => {
            list();
            Ok(true)
        }
        "layers" => layers(rest),
        "contract" if a.trace => layers(rest),
        "contract" => contract(&a),
        other => Err(format!(
            "unknown command {other:?} (run, layers, compare, list)"
        )),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("magma-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
