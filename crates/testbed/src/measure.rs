//! Measurement extraction: connection success rate in 5-second bins,
//! throughput series, and CPU utilization — the metrics the paper's
//! figures plot.

use magma_sim::{Registry, SimDuration, SimTime, World};

/// The paper's CSR definition (§4.2): connection attempts that succeed
/// over total attempts made, per five-second bin, binned by *attempt*
/// time.
pub const CSR_BIN: SimDuration = SimDuration(5_000_000);

/// One CSR bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsrBin {
    pub start: SimTime,
    pub attempts: usize,
    pub successes: usize,
}

impl CsrBin {
    pub fn rate(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }
}

/// Compute CSR bins from the RAN series (prefix `"ran"` by default),
/// counting each series' points into their attempt-time bins in one pass.
pub fn csr_bins(reg: &Registry, prefix: &str) -> Vec<CsrBin> {
    let w = CSR_BIN.as_micros();
    let mut out: Vec<CsrBin> = Vec::new();
    for (suffix, success) in [("attach_ok_at", 1), ("attach_fail_at", 0)] {
        let Some(s) = reg.series(&format!("{prefix}.{suffix}")) else {
            continue;
        };
        for &(t, _) in &s.points {
            let i = (t / w) as usize;
            while out.len() <= i {
                out.push(CsrBin {
                    start: SimTime(out.len() as u64 * w),
                    attempts: 0,
                    successes: 0,
                });
            }
            out[i].attempts += 1;
            out[i].successes += success;
        }
    }
    out
}

/// Overall CSR across the run.
pub fn overall_csr(reg: &Registry, prefix: &str) -> f64 {
    let ok = reg
        .series(&format!("{prefix}.attach_ok_at"))
        .map(|s| s.len())
        .unwrap_or(0);
    let fail = reg
        .series(&format!("{prefix}.attach_fail_at"))
        .map(|s| s.len())
        .unwrap_or(0);
    if ok + fail == 0 {
        1.0
    } else {
        ok as f64 / (ok + fail) as f64
    }
}

/// Median CSR over non-empty bins (Figure 8's metric).
pub fn median_csr(reg: &Registry, prefix: &str) -> f64 {
    let mut rates: Vec<f64> = csr_bins(reg, prefix)
        .into_iter()
        .filter(|b| b.attempts > 0)
        .map(|b| b.rate())
        .collect();
    if rates.is_empty() {
        return 1.0;
    }
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    rates[rates.len() / 2]
}

/// Throughput series in Mbit/s from a bytes-forwarded series.
pub fn throughput_mbps(reg: &Registry, series: &str, bin: SimDuration) -> Vec<(SimTime, f64)> {
    reg.series(series)
        .map(|s| {
            s.bin_rate_per_sec(bin)
                .into_iter()
                .map(|(t, bps)| (t, bps * 8.0 / 1e6))
                .collect()
        })
        .unwrap_or_default()
}

/// Mean of a series' values over a window, e.g. steady-state throughput.
pub fn mean_over(
    series: &[(SimTime, f64)],
    from: SimTime,
    to: SimTime,
) -> f64 {
    let vals: Vec<f64> = series
        .iter()
        .filter(|(t, _)| *t >= from && *t < to)
        .map(|(_, v)| *v)
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// CPU utilization series for a host group, as percentages.
pub fn cpu_percent(world: &World, host: magma_sim::HostId, group: &str) -> Vec<(SimTime, f64)> {
    world
        .utilization(host, group)
        .map(|rep| rep.series.iter().map(|(t, u)| (*t, u * 100.0)).collect())
        .unwrap_or_default()
}

/// Mean attach latency in seconds.
pub fn mean_attach_latency(reg: &Registry, prefix: &str) -> f64 {
    reg.series(&format!("{prefix}.attach_ok_at"))
        .map(|s| s.mean())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_bins_count_by_attempt_time() {
        let mut rec = Registry::new();
        // Two successes in bin 0, one failure in bin 0, one failure bin 1.
        rec.record("ran.attach_ok_at", SimTime::from_secs(1), 0.5);
        rec.record("ran.attach_ok_at", SimTime::from_secs(2), 0.7);
        rec.record("ran.attach_fail_at", SimTime::from_secs(3), 1.0);
        rec.record("ran.attach_fail_at", SimTime::from_secs(6), 1.0);
        let bins = csr_bins(&rec, "ran");
        assert_eq!(bins[0].attempts, 3);
        assert_eq!(bins[0].successes, 2);
        assert!((bins[0].rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(bins[1].attempts, 1);
        assert_eq!(bins[1].rate(), 0.0);
        assert!((overall_csr(&rec, "ran") - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_registry_is_perfect_csr() {
        let rec = Registry::new();
        assert_eq!(overall_csr(&rec, "ran"), 1.0);
        assert_eq!(median_csr(&rec, "ran"), 1.0);
        assert!(csr_bins(&rec, "ran").is_empty());
    }

    #[test]
    fn throughput_conversion() {
        let mut rec = Registry::new();
        // 1.25 MB in one second = 10 Mbit/s.
        rec.record("tp", SimTime::from_millis(100), 625_000.0);
        rec.record("tp", SimTime::from_millis(600), 625_000.0);
        let tp = throughput_mbps(&rec, "tp", SimDuration::from_secs(1));
        assert_eq!(tp.len(), 1);
        assert!((tp[0].1 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mean_over_window() {
        let series = vec![
            (SimTime::from_secs(1), 10.0),
            (SimTime::from_secs(2), 20.0),
            (SimTime::from_secs(10), 100.0),
        ];
        let m = mean_over(&series, SimTime::ZERO, SimTime::from_secs(5));
        assert_eq!(m, 15.0);
        assert_eq!(mean_over(&series, SimTime::from_secs(50), SimTime::from_secs(60)), 0.0);
    }
}
