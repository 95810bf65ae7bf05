//! `magma-bench`: the fixed scenario suite, pinned by its virtual bytes.
//!
//! ```text
//! magma-bench                   run the full suite, write BENCH_<name>.json
//! magma-bench --scenario NAME   run one scenario (smoke | attach_storm |
//!                               scaling_ablation | mixed | partition_recovery)
//! magma-bench --smoke           smoke and partition_recovery + schema
//!                               validation + golden diff of each virtual
//!                               section (installs a golden on first run)
//! magma-bench --list            print the scenario suite with descriptions
//! magma-bench --out DIR         where BENCH_*.json and TRACE_*.json land
//!                               (default "."; created if missing)
//! magma-bench --racecheck K     run attach_storm + scaling_ablation (or the
//!                               one named with --scenario) under K permuted
//!                               window schedules; the virtual section and
//!                               per-window digests must match the canonical
//!                               order byte for byte, and no run may count a
//!                               window violation. Writes RACE_<name>.json;
//!                               on divergence prints the bisected race report
//! ```
//!
//! Exit status is non-zero on any validation failure, so the CI job
//! and `scripts/check.sh bench-smoke` can rely on it. See
//! docs/PROFILING.md for the report format and the determinism contract.
//! Host time is the repo benchmark's job (`benchmark/`), not this one's.

use magma_bench::{
    run_scenario, run_scenario_racecheck, validate, BenchReport, BenchRun, BENCH_SEED, SCENARIOS,
    SCENARIO_DESCRIPTIONS,
};
use magma_sim::racecheck::WINDOW_US;
use magma_sim::{RaceReport, RunSpec};
use magma_testbed::{perfetto_string, render_critical_path};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    scenario: Option<String>,
    smoke: bool,
    list: bool,
    out: PathBuf,
    racecheck: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: None,
        smoke: false,
        list: false,
        out: PathBuf::from("."),
        racecheck: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scenario" => {
                args.scenario = Some(it.next().ok_or("--scenario needs a name")?);
            }
            "--smoke" => args.smoke = true,
            "--list" => args.list = true,
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a dir")?),
            "--racecheck" => {
                let k = it.next().ok_or("--racecheck needs a schedule count")?;
                let k: u64 = k
                    .parse()
                    .map_err(|_| format!("--racecheck: not a count: {k}"))?;
                if k == 0 {
                    return Err("--racecheck needs at least one schedule".into());
                }
                args.racecheck = Some(k);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn write_report(out: &Path, report: &BenchReport) -> std::io::Result<PathBuf> {
    let path = out.join(format!("BENCH_{}.json", report.scenario));
    let json = serde_json::to_string_pretty(report).map_err(std::io::Error::other)?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Write the Perfetto sidecar `TRACE_<scenario>.json` next to the
/// BENCH report: the full span trees plus critical-path attribution,
/// loadable in ui.perfetto.dev. Byte-deterministic for a given seed.
fn write_trace(out: &Path, run: &BenchRun) -> std::io::Result<PathBuf> {
    let path = out.join(format!("TRACE_{}.json", run.report.scenario));
    std::fs::write(&path, perfetto_string(&run.trace))?;
    Ok(path)
}

fn run_and_write(name: &str, out: &Path) -> Result<BenchReport, String> {
    let run = run_scenario(name, BENCH_SEED)
        .ok_or_else(|| format!("unknown scenario: {name}"))?;
    let report = &run.report;
    let path = write_report(out, report).map_err(|e| format!("write BENCH json: {e}"))?;
    let trace_path = write_trace(out, &run).map_err(|e| format!("write TRACE json: {e}"))?;
    eprintln!(
        "[{}] csr={:.3} attach_p99={:.2}s events={} -> {} (+ {})",
        report.scenario,
        report.virt.csr,
        report.virt.attach_p99_s,
        report.virt.events_simulated,
        path.display(),
        trace_path.display()
    );
    eprintln!("{}", render_critical_path(&run.trace));
    Ok(run.report)
}

/// Racecheck schedule seeds are small integers (`1..=K`): the report
/// names the seed, and a human re-running `--racecheck` gets the same
/// window permutations back.
fn racecheck_seeds(k: u64) -> impl Iterator<Item = u64> {
    1..=k
}

/// One permuted schedule's outcome within `RACE_<scenario>.json`.
#[derive(serde::Serialize)]
struct RaceScheduleResult {
    schedule_seed: u64,
    /// Whether the virtual BENCH section was byte-identical to the
    /// canonical-order run.
    virt_identical: bool,
    report: RaceReport,
}

/// The `RACE_<scenario>.json` envelope.
#[derive(serde::Serialize)]
struct RaceFile {
    scenario: String,
    seed: u64,
    window_us: u64,
    schedules: u64,
    /// Cross-component messages that landed inside their sender's
    /// window, summed over every run (must be 0).
    window_violations: u64,
    clean: bool,
    results: Vec<RaceScheduleResult>,
}

/// Racecheck one scenario under `k` permuted window schedules: the
/// virtual section and the per-window digest streams must match the
/// canonical `(time, seq)` order byte for byte, and no run may count a
/// window violation. On divergence the detector auto-bisects to the
/// first divergent window and names the offending event pair. Writes
/// `RACE_<scenario>.json` either way.
fn racecheck_scenario(out: &Path, name: &str, k: u64) -> Result<bool, String> {
    let canonical = RunSpec {
        schedule: None,
        detail_window: None,
    };
    let (canon_run, canon_exports) = run_scenario_racecheck(name, BENCH_SEED, canonical)
        .ok_or_else(|| format!("unknown scenario: {name}"))?;
    validate(&canon_run.report)?;
    let canon_virt = serde_json::to_string_pretty(&canon_run.report.virt)
        .map_err(|e| format!("serialize virtual: {e}"))?;
    let windows_total: u64 = canon_exports.iter().map(|e| e.digests.len() as u64).sum();
    let violations = |exports: &[magma_sim::RaceExport]| -> u64 {
        exports.iter().map(|e| e.window_violations).sum()
    };
    let mut window_violations = violations(&canon_exports);

    let mut results = Vec::new();
    let mut clean = true;
    for seed in racecheck_seeds(k) {
        let (run, exports) = run_scenario_racecheck(
            name,
            BENCH_SEED,
            RunSpec {
                schedule: Some(seed),
                detail_window: None,
            },
        )
        .ok_or_else(|| format!("unknown scenario: {name}"))?;
        let virt = serde_json::to_string_pretty(&run.report.virt)
            .map_err(|e| format!("serialize virtual: {e}"))?;
        let virt_identical = virt == canon_virt;
        window_violations += violations(&exports);

        // The first world (in build order) whose digest stream diverges
        // is the one the detector bisects; sweeps build several.
        let divergent_world = canon_exports
            .iter()
            .zip(&exports)
            .position(|(c, p)| magma_sim::first_divergence(&c.digests, &p.digests).is_some());
        let report = match divergent_world {
            None => RaceReport {
                label: name.to_string(),
                schedule_seed: seed,
                window_us: WINDOW_US,
                divergent: false,
                first_divergent_window: None,
                canonical: None,
                permuted: None,
                windows_compared: windows_total,
                note: "all window digests identical across schedules".to_string(),
            },
            Some(widx) => {
                // Feed the detector the two no-detail exports we already
                // have; only the bisected detail re-runs execute fresh.
                let mut canon_cache = Some(canon_exports[widx].clone());
                let mut perm_cache = Some(exports[widx].clone());
                magma_sim::detect(
                    &format!("{name}[world {widx}]"),
                    |spec| match (spec.schedule, spec.detail_window) {
                        (None, None) if canon_cache.is_some() => canon_cache.take().unwrap(),
                        (Some(_), None) if perm_cache.is_some() => perm_cache.take().unwrap(),
                        _ => {
                            let (_, mut ex) = run_scenario_racecheck(name, BENCH_SEED, spec)
                                .expect("scenario ran before");
                            ex.swap_remove(widx)
                        }
                    },
                    seed,
                )
            }
        };
        if report.divergent || !virt_identical {
            clean = false;
            eprintln!("{}", report.render());
            if !virt_identical && !report.divergent {
                eprintln!(
                    "racecheck[{name}] seed={seed}: digests identical but the \
                     virtual section differs byte-wise — a schedule-dependent \
                     value escaped the digest fold"
                );
            }
        }
        results.push(RaceScheduleResult {
            schedule_seed: seed,
            virt_identical,
            report,
        });
    }

    if window_violations > 0 {
        clean = false;
        eprintln!(
            "racecheck[{name}]: {window_violations} cross-component messages landed inside \
             their sender's {WINDOW_US}µs window — the permuted drain cannot reorder those \
             runs legally (a link faster than one window?)"
        );
    }
    let file = RaceFile {
        scenario: name.to_string(),
        seed: BENCH_SEED,
        window_us: WINDOW_US,
        schedules: k,
        window_violations,
        clean,
        results,
    };
    let path = out.join(format!("RACE_{name}.json"));
    let json = serde_json::to_string_pretty(&file).map_err(|e| format!("serialize race: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("write RACE json: {e}"))?;
    eprintln!(
        "racecheck[{name}]: {} under {k} permuted schedules ({} windows) -> {}",
        if clean { "clean" } else { "DIVERGENT" },
        windows_total,
        path.display()
    );
    Ok(clean)
}

/// Racecheck mode: attach_storm + scaling_ablation (or the scenario
/// named with `--scenario`) under `k` permuted window schedules.
fn racecheck_mode(out: &Path, k: u64, only: Option<&str>) -> Result<(), String> {
    let scenarios: Vec<&str> = match only {
        Some(s) => vec![s],
        None => vec!["attach_storm", "scaling_ablation"],
    };
    let mut dirty = Vec::new();
    for name in scenarios {
        if !racecheck_scenario(out, name, k)? {
            dirty.push(name);
        }
    }
    if !dirty.is_empty() {
        return Err(format!(
            "logical race or window violation in: {} (see RACE_*.json \
             for the bisected report)",
            dirty.join(", ")
        ));
    }
    Ok(())
}

/// The scenarios `--smoke` runs, each with the golden its virtual
/// section must match byte for byte. `partition_recovery` pins the RPC
/// clients' reconnect timing across a partition and its heal.
const SMOKE_GOLDENS: [(&str, &str); 2] = [
    ("smoke", "scripts/golden/bench_smoke_virtual.json"),
    ("partition_recovery", "scripts/golden/bench_partition_recovery_virtual.json"),
];

/// Smoke mode: run, validate, and diff each virtual section against its
/// committed golden (installed on first run, like the observability
/// golden in scripts/check.sh).
fn smoke_mode(out: &Path) -> Result<(), String> {
    for (name, golden) in SMOKE_GOLDENS {
        let report = run_and_write(name, out)?;
        validate(&report)?;
        let virt = serde_json::to_string_pretty(&report.virt)
            .map_err(|e| format!("serialize virtual: {e}"))?;
        let golden_path = Path::new(golden);
        if !golden_path.exists() {
            if let Some(dir) = golden_path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("mkdir golden: {e}"))?;
            }
            std::fs::write(golden_path, &virt).map_err(|e| format!("install golden: {e}"))?;
            eprintln!("bench-smoke: installed golden at {golden}");
            continue;
        }
        let pinned =
            std::fs::read_to_string(golden_path).map_err(|e| format!("read golden: {e}"))?;
        if pinned != virt {
            return Err(format!(
                "{name}: virtual section drifted from {golden} — if intended, delete the golden and re-run"
            ));
        }
        eprintln!("bench-smoke: {name} virtual section matches golden");
    }
    Ok(())
}

/// List mode: the scenario suite, one line each (satellite of the
/// tracing PR; docs/PROFILING.md links here).
fn list_mode() {
    for (name, desc) in SCENARIO_DESCRIPTIONS {
        println!("{name:<20} {desc}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("magma-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        list_mode();
        return ExitCode::SUCCESS;
    }
    // Every mode writes its reports after its runs: give them somewhere
    // to land before spending the runs.
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("magma-bench: --out {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let result = if let Some(k) = args.racecheck {
        racecheck_mode(&args.out, k, args.scenario.as_deref())
    } else if args.smoke {
        smoke_mode(&args.out)
    } else if let Some(name) = &args.scenario {
        run_and_write(name, &args.out).and_then(|r| validate(&r))
    } else {
        SCENARIOS.iter().try_for_each(|name| {
            run_and_write(name, &args.out).and_then(|r| validate(&r))
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("magma-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
