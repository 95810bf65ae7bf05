//! Repetitions, their aggregation, and the two report shapes: the run
//! file `compare` reads and the one-line result the driver reads.
//!
//! Each repetition runs in its own child process (so `peak_rss_mb` is
//! per workload and every repetition starts from a cold allocator),
//! children run one at a time, and repetitions are interleaved
//! round-robin across workloads so slow drift of the host hits all of
//! them alike. A reported value is the median over the undisturbed
//! repetitions, with min/max/n and the inter-quartile spread alongside.

use crate::catalog::{Better, END_TO_END};
use crate::guard::Reading;
use crate::stats::{median, summarize};
use crate::workloads::Workload;
use magma::sim::HostStopwatch;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Version of the run-file layout; `compare` refuses a mismatch.
pub const SCHEMA: u64 = 1;

/// Extra repetitions a workload may spend replacing disturbed ones.
pub const MAX_EXTRA_REPS: usize = 2;

/// One repetition as its child process reported it.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Every end-to-end metric by name.
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub guard: Reading,
    /// The failed output check, if one failed.
    pub error: Option<String>,
    pub counts: BTreeMap<String, u64>,
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn object<'a>(v: &'a Value, key: &str) -> Result<&'a BTreeMap<String, Value>, String> {
    v.get(key)
        .and_then(Value::as_object)
        .ok_or_else(|| format!("missing object `{key}`"))
}

impl Rep {
    /// The child's side: render one repetition as a JSON line.
    pub fn render(&self) -> String {
        json!({
            "metrics": self.metrics,
            "counts": self.counts,
            "attempted": self.attempted,
            "failed": self.failed,
            "guard": {
                "wall_s": self.guard.wall_s,
                "runq_wait_s": self.guard.runq_wait_s,
                "steal_s": self.guard.steal_s,
            },
            "error": self.error,
        })
        .to_string()
    }

    /// One progress line on stderr.
    fn log_progress(&self, workload: &str) {
        let metric = |name: &str| self.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!(
            "  {workload:<17} wall/sim {:.5}  setup {:.3} s  rss {:.1} MB  runq+steal {:.3} s{}",
            metric("wall_s_per_sim_s"),
            metric("setup_s"),
            metric("peak_rss_mb"),
            self.guard.runq_wait_s + self.guard.steal_s,
            if self.guard.disturbed() {
                "  DISTURBED"
            } else {
                ""
            },
        );
    }

    /// The simulated metrics and every count, rendered: must be
    /// byte-identical across repetitions of one (workload, seed).
    pub fn simulated_text(&self) -> String {
        let simulated: BTreeMap<&str, Option<f64>> = END_TO_END
            .iter()
            .filter(|m| m.simulated)
            .map(|m| (m.name, self.metrics.get(m.name).copied()))
            .collect();
        json!({ "metrics": simulated, "counts": self.counts }).to_string()
    }

    /// The parent's side: parse what [`render`](Rep::render) printed.
    pub fn parse(line: &str) -> Result<Rep, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("not JSON: {e}"))?;
        let mut metrics = BTreeMap::new();
        for (k, x) in object(&v, "metrics")? {
            metrics.insert(
                k.clone(),
                x.as_f64()
                    .ok_or_else(|| format!("metric `{k}` is not a number"))?,
            );
        }
        let mut counts = BTreeMap::new();
        for (k, x) in object(&v, "counts")? {
            counts.insert(
                k.clone(),
                x.as_u64()
                    .ok_or_else(|| format!("count `{k}` is not a whole number"))?,
            );
        }
        let g = v.get("guard").ok_or("missing object `guard`")?;
        Ok(Rep {
            metrics,
            counts,
            attempted: num(&v, "attempted")? as u64,
            failed: num(&v, "failed")? as u64,
            guard: Reading {
                wall_s: num(g, "wall_s")?,
                runq_wait_s: num(g, "runq_wait_s")?,
                steal_s: num(g, "steal_s")?,
            },
            error: v.get("error").and_then(Value::as_str).map(str::to_string),
        })
    }
}

/// Run one repetition of `workload` in a child process of `exe`.
pub fn run_child(exe: &Path, workload: &str, seed: u64) -> Result<Rep, String> {
    let out = Command::new(exe)
        .args(["child", "--workload", workload, "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("child for {workload} ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    Rep::parse(line).map_err(|e| format!("child for {workload}: {e}"))
}

/// All repetitions of one workload.
pub struct WorkloadResult {
    pub name: &'static str,
    pub reps: Vec<Rep>,
}

impl WorkloadResult {
    pub fn disturbed_reps(&self) -> usize {
        self.reps.iter().filter(|r| r.guard.disturbed()).count()
    }

    /// The repetitions values are taken from: the undisturbed ones, or
    /// all of them when every one was disturbed.
    fn counted(&self) -> Vec<&Rep> {
        let clean: Vec<&Rep> = self.reps.iter().filter(|r| !r.guard.disturbed()).collect();
        if clean.is_empty() {
            self.reps.iter().collect()
        } else {
            clean
        }
    }

    pub fn values(&self, metric: &str) -> Vec<f64> {
        self.counted()
            .iter()
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    }

    /// Every failed check: the workloads' own, plus byte-identity of the
    /// simulated summary across repetitions.
    pub fn errors(&self) -> Vec<String> {
        let mut errs: Vec<String> = self.reps.iter().filter_map(|r| r.error.clone()).collect();
        if let Some(first) = self.reps.first() {
            if self
                .reps
                .iter()
                .any(|r| r.simulated_text() != first.simulated_text())
            {
                errs.push(
                    "simulated summary differs between repetitions of the same seed".to_string(),
                );
            }
        }
        errs.dedup();
        errs
    }

    fn to_json(&self) -> Value {
        let mut metrics = BTreeMap::new();
        for m in &END_TO_END {
            let s = summarize(&self.values(m.name));
            metrics.insert(
                m.name,
                json!({
                    "unit": m.unit,
                    "median": s.median,
                    "min": s.min,
                    "max": s.max,
                    "n": s.n,
                    "spread": s.spread,
                }),
            );
        }
        let last = self.reps.last();
        json!({
            "metrics": metrics,
            "counts": last.map(|r| r.counts.clone()).unwrap_or_default(),
            "attempted": last.map_or(0, |r| r.attempted),
            "failed": last.map_or(0, |r| r.failed),
            "reps": self.reps.len(),
            "disturbed_reps": self.disturbed_reps(),
            "errors": self.errors(),
        })
    }
}

/// How much to measure.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// This many undisturbed repetitions per workload.
    Reps(usize),
    /// Start repetitions until this much host time has passed, and at
    /// least two, so the identity check has something to compare.
    Seconds(f64),
}

/// Measure `workloads` round-robin (A B C D A B C D ...) under `budget`.
/// A disturbed repetition is re-run, at most [`MAX_EXTRA_REPS`] extra
/// per workload.
pub fn measure(
    exe: &Path,
    workloads: &[&'static Workload],
    seed: u64,
    budget: Budget,
) -> Result<Vec<WorkloadResult>, String> {
    let clock = HostStopwatch::start();
    let mut results: Vec<WorkloadResult> = workloads
        .iter()
        .map(|w| WorkloadResult {
            name: w.name,
            reps: Vec::new(),
        })
        .collect();
    loop {
        let mut ran = false;
        for r in &mut results {
            let disturbed = r.disturbed_reps();
            let clean = r.reps.len() - disturbed;
            let wanted = match budget {
                Budget::Reps(n) => clean < n,
                Budget::Seconds(s) => clean < 2 || clock.elapsed_s() < s,
            };
            if wanted && disturbed <= MAX_EXTRA_REPS {
                let rep = run_child(exe, r.name, seed)?;
                rep.log_progress(r.name);
                r.reps.push(rep);
                ran = true;
            }
        }
        if !ran {
            return Ok(results);
        }
    }
}

/// The run file: what `compare` reads and later PR reports quote.
pub fn run_file(results: &[WorkloadResult], seed: u64) -> Value {
    let workloads: BTreeMap<&str, Value> = results.iter().map(|r| (r.name, r.to_json())).collect();
    json!({ "schema": SCHEMA, "seed": seed, "workloads": workloads })
}

/// Human-readable table of a run: every end-to-end metric by name with
/// its unit, per workload.
pub fn render_table(results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!(
            "{}  reps={} disturbed_reps={}\n",
            r.name,
            r.reps.len(),
            r.disturbed_reps()
        ));
        for m in &END_TO_END {
            let s = summarize(&r.values(m.name));
            out.push_str(&format!(
                "  {:<24} {:>14.6} {:<8} min {:<12.6} max {:<12.6} n={} spread {:.2}%\n",
                m.name,
                s.median,
                m.unit,
                s.min,
                s.max,
                s.n,
                s.spread * 100.0,
            ));
        }
        for e in r.errors() {
            out.push_str(&format!("  CHECK FAILED: {e}\n"));
        }
    }
    out
}

/// The driver's result line for one workload: medians of every
/// end-to-end metric.
pub fn contract_line(r: &WorkloadResult) -> String {
    let metrics: BTreeMap<&str, Value> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name,
                json!({ "value": median(&r.values(m.name)), "unit": m.unit }),
            )
        })
        .collect();
    let last = r.reps.last();
    json!({
        "correct": r.errors().is_empty(),
        "attempted": last.map_or(0, |x| x.attempted),
        "failed": last.map_or(0, |x| x.failed),
        "metrics": metrics,
    })
    .to_string()
}

/// `benchmark/out/`, created on demand: where run files, span files and
/// layer tables go.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = manifest_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// `benchmark/`: the manifest directory cargo exports at run time, or
/// failing that the one known at build time.
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

pub fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Verdict of one metric x workload row of `compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Either side's spread is wider than the bound: not "unchanged".
    Unresolved,
    /// A simulated metric or a count differs without being a regression.
    Changed,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }
}

/// Judge one metric: `a` is the base, `b` the candidate.
pub fn verdict(
    better: Better,
    bound: f64,
    simulated: bool,
    (a, a_spread): (f64, f64),
    (b, b_spread): (f64, f64),
) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if simulated {
        if a == b {
            Verdict::Ok
        } else {
            Verdict::Changed
        }
    } else if a_spread > bound || b_spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// One row per metric x workload: both medians, ratio with its base,
/// bound, verdict; then one row per workload for the counts. Returns the
/// table and whether every verdict is `ok`.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    for (label, v) in [("A", a), ("B", b)] {
        if v.get("schema").and_then(Value::as_u64) != Some(SCHEMA) {
            return Err(format!("{label} is not a schema-{SCHEMA} run file"));
        }
    }
    let (wa, wb) = (object(a, "workloads")?, object(b, "workloads")?);
    let mut out = format!(
        "{:<17} {:<22} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut all_ok = true;
    for (name, ra) in wa {
        let Some(rb) = wb.get(name) else {
            out.push_str(&format!("{name:<17} missing from B\n"));
            all_ok = false;
            continue;
        };
        let (ma, mb) = (object(ra, "metrics")?, object(rb, "metrics")?);
        for m in &END_TO_END {
            let side = |ms: &BTreeMap<String, Value>| -> Result<(f64, f64), String> {
                let x = ms
                    .get(m.name)
                    .ok_or_else(|| format!("{name}: no metric {}", m.name))?;
                Ok((num(x, "median")?, num(x, "spread")?))
            };
            let (sa, sb) = (side(ma)?, side(mb)?);
            let v = verdict(m.better, m.bound, m.simulated, sa, sb);
            all_ok &= v == Verdict::Ok;
            out.push_str(&format!(
                "{:<17} {:<22} {:>14.6} {:>14.6} {:>9.4} {:>5.1}%  {}\n",
                name,
                m.name,
                sa.0,
                sb.0,
                sb.0 / sa.0,
                m.bound * 100.0,
                v.as_str()
            ));
        }
        let (ca, cb) = (object(ra, "counts")?, object(rb, "counts")?);
        let differing: Vec<&str> = ca
            .keys()
            .chain(cb.keys())
            .filter(|k| ca.get(*k) != cb.get(*k))
            .map(String::as_str)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let disturbed = |r: &Value| r.get("disturbed_reps").and_then(Value::as_u64).unwrap_or(0);
        all_ok &= differing.is_empty();
        out.push_str(&format!(
            "{:<17} {:<22} {}  (disturbed_reps A={} B={})\n",
            name,
            "counts",
            if differing.is_empty() {
                format!("{} identical", ca.len())
            } else {
                format!("changed: {}", differing.join(", "))
            },
            disturbed(ra),
            disturbed(rb),
        ));
    }
    for name in wb.keys().filter(|k| !wa.contains_key(*k)) {
        out.push_str(&format!("{name:<17} missing from A\n"));
        all_ok = false;
    }
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall: f64, steal: f64) -> Rep {
        let mut metrics = BTreeMap::new();
        for m in &END_TO_END {
            metrics.insert(m.name.to_string(), 1.0);
        }
        metrics.insert("wall_s_per_sim_s".to_string(), wall);
        let mut counts = BTreeMap::new();
        counts.insert("events".to_string(), 10);
        let r = Rep {
            metrics,
            counts,
            attempted: 5,
            failed: 0,
            guard: Reading {
                wall_s: 1.0,
                runq_wait_s: 0.0,
                steal_s: steal,
            },
            error: None,
        };
        Rep::parse(&r.render()).expect("round trip")
    }

    #[test]
    fn rep_round_trips_and_median_skips_disturbed() {
        let r = WorkloadResult {
            name: "w",
            reps: vec![
                rep(0.05, 0.0),
                rep(0.07, 0.0),
                rep(0.50, 0.2),
                rep(0.06, 0.0),
            ],
        };
        assert_eq!(r.disturbed_reps(), 1);
        assert_eq!(r.values("wall_s_per_sim_s"), vec![0.05, 0.07, 0.06]);
        assert!(r.errors().is_empty());
        let line: Value = serde_json::from_str(&contract_line(&r)).expect("json");
        assert_eq!(line["metrics"]["wall_s_per_sim_s"]["value"], 0.06);
        assert_eq!(line["correct"], true);
        assert_eq!(line["attempted"], 5u64);
    }

    #[test]
    fn differing_simulated_summary_is_an_error() {
        let mut other = rep(0.05, 0.0);
        other.counts.insert("events".to_string(), 11);
        let r = WorkloadResult {
            name: "w",
            reps: vec![rep(0.05, 0.0), other],
        };
        assert_eq!(r.errors().len(), 1);
    }

    #[test]
    fn verdicts() {
        use Better::{Higher, Lower};
        let q = 0.001;
        assert_eq!(
            verdict(Lower, 0.05, false, (1.0, q), (1.04, q)),
            Verdict::Ok
        );
        assert_eq!(verdict(Lower, 0.05, false, (1.0, q), (0.5, q)), Verdict::Ok);
        assert_eq!(
            verdict(Lower, 0.05, false, (1.0, q), (1.06, q)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Higher, 0.05, false, (1.0, q), (0.9, q)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Lower, 0.05, false, (1.0, 0.08), (1.0, q)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Higher, 0.0, true, (1.0, 0.0), (1.0, 0.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Higher, 0.0, true, (1.0, 0.0), (0.99, 0.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Lower, 0.02, true, (1.0, 0.0), (0.99, 0.0)),
            Verdict::Changed
        );
    }

    #[test]
    fn compare_two_run_files() {
        let a = WorkloadResult {
            name: "w",
            reps: vec![rep(0.050, 0.0), rep(0.051, 0.0)],
        };
        let b = WorkloadResult {
            name: "w",
            reps: vec![rep(0.051, 0.0), rep(0.052, 0.0)],
        };
        let slow = WorkloadResult {
            name: "w",
            reps: vec![rep(0.080, 0.0), rep(0.081, 0.0)],
        };
        let (fa, fb, fs) = (run_file(&[a], 1), run_file(&[b], 1), run_file(&[slow], 1));
        let (table, ok) = compare(&fa, &fb).expect("compare");
        assert!(ok, "{table}");
        assert!(table.contains("counts") && table.contains("identical"));
        let (table, ok) = compare(&fa, &fs).expect("compare");
        assert!(!ok && table.contains("regressed"), "{table}");
        assert!(compare(&json!({}), &fb).is_err());
    }
}
