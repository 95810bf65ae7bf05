//! The flags both binaries understand. The end-to-end binary forwards
//! its arguments unchanged to the traced pass, so one parser serves both.

use crate::workloads::{self, Workload, WORKLOADS};
use std::path::PathBuf;

const DEFAULT_SEED: u64 = 42;
const DEFAULT_REPS: usize = 3;

/// Flags shared by the subcommands; unknown flags are an error.
pub struct Args {
    pub seed: u64,
    pub reps: usize,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub workloads: Vec<&'static Workload>,
    pub out: Option<PathBuf>,
    pub positional: Vec<String>,
}

pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: DEFAULT_SEED,
        reps: DEFAULT_REPS,
        seconds: None,
        trace: false,
        workloads: Vec::new(),
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let bad = |v: &String| format!("bad value {v:?} for {arg}");
        match arg.as_str() {
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--reps" => a.reps = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => a.seconds = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad value {v:?} for --trace (0 or 1)")),
                }
            }
            "--workload" => {
                let name = value()?;
                a.workloads.push(
                    workloads::find(name)
                        .ok_or_else(|| format!("unknown workload {name:?}; see `list`"))?,
                );
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    if a.reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().collect();
    }
    Ok(a)
}
