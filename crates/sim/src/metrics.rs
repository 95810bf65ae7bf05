//! Time series for experiments.
//!
//! The testbed (our Spirent Landslide analog) measures connection success
//! rate in 5-second bins, achieved throughput over time, and CPU
//! utilization. [`Registry::record`](crate::Registry::record) collects
//! raw observations into a [`Series`] during a run; binning and summary
//! statistics are computed afterwards.

use crate::time::{SimDuration, SimTime};
use serde::Serialize;

/// A named time series of `(time, value)` samples.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Series {
    pub points: Vec<(u64, f64)>,
}

impl Series {
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t.as_micros(), v));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Sum of values per fixed-width bin, as `(bin_start, sum)`.
    pub fn bin_sum(&self, width: SimDuration) -> Vec<(SimTime, f64)> {
        self.bin(width, |vs| vs.iter().sum())
    }

    /// Mean of values per fixed-width bin; empty bins yield 0.
    pub fn bin_mean(&self, width: SimDuration) -> Vec<(SimTime, f64)> {
        self.bin(width, |vs| {
            if vs.is_empty() {
                0.0
            } else {
                vs.iter().sum::<f64>() / vs.len() as f64
            }
        })
    }

    /// Convert event values (e.g., bytes per sample) into a rate per
    /// second over fixed-width bins.
    pub fn bin_rate_per_sec(&self, width: SimDuration) -> Vec<(SimTime, f64)> {
        let secs = width.as_secs_f64().max(1e-9);
        self.bin_sum(width)
            .into_iter()
            .map(|(t, s)| (t, s / secs))
            .collect()
    }

    fn bin(&self, width: SimDuration, f: impl Fn(&[f64]) -> f64) -> Vec<(SimTime, f64)> {
        let w = width.as_micros().max(1);
        if self.points.is_empty() {
            return Vec::new();
        }
        let last = self.points.iter().map(|(t, _)| *t).max().unwrap();
        let n = (last / w) as usize + 1;
        let mut bins: Vec<Vec<f64>> = vec![Vec::new(); n];
        for &(t, v) in &self.points {
            bins[(t / w) as usize].push(v);
        }
        bins.iter()
            .enumerate()
            .map(|(i, vs)| (SimTime(i as u64 * w), f(vs)))
            .collect()
    }

    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|(_, v)| *v)
    }

    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.values().sum::<f64>() / self.points.len() as f64
    }

    pub fn max(&self) -> f64 {
        self.values().fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_binning_sums_and_rates() {
        let mut s = Series::default();
        // 1000 bytes at t=0.2s, 3000 at t=0.7s, 2000 at t=1.1s.
        s.push(SimTime::from_millis(200), 1000.0);
        s.push(SimTime::from_millis(700), 3000.0);
        s.push(SimTime::from_millis(1100), 2000.0);
        let sums = s.bin_sum(SimDuration::from_secs(1));
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].1, 4000.0);
        assert_eq!(sums[1].1, 2000.0);
        let rates = s.bin_rate_per_sec(SimDuration::from_secs(1));
        assert_eq!(rates[0].1, 4000.0);
    }

    #[test]
    fn bin_mean_handles_empty_bins() {
        let mut s = Series::default();
        s.push(SimTime::from_secs(0), 10.0);
        s.push(SimTime::from_secs(2), 20.0);
        let means = s.bin_mean(SimDuration::from_secs(1));
        assert_eq!(means.len(), 3);
        assert_eq!(means[0].1, 10.0);
        assert_eq!(means[1].1, 0.0);
        assert_eq!(means[2].1, 20.0);
    }

    #[test]
    fn series_mean_max() {
        let mut s = Series::default();
        s.push(SimTime::ZERO, 1.0);
        s.push(SimTime::from_secs(1), 3.0);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.max(), 3.0);
    }
}
