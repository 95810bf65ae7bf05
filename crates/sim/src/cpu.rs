//! CPU model: hosts with core groups, FIFO job queues, and busy-time
//! accounting.
//!
//! The paper's evaluation hinges on *which resource saturates first*: the
//! RAN, the AGW's control plane (MME attach pipeline), or its user plane
//! (packet forwarding). We model a host as one or more **core groups**
//! (e.g., "cp" and "up" when statically pinned, or a single "all" group for
//! the flexible kernel-scheduler configuration of Figures 7/8). Each group
//! runs jobs FIFO across `cores` identical cores; a core's speed scales the
//! job's nominal demand.
//!
//! Utilization is tracked by integrating busy-core time into fixed-width
//! buckets, which is what Figure 5's CPU% time series plots.

use crate::actor::ActorId;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Identifies a simulated host machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// Description of one schedulable group of cores on a host.
#[derive(Debug, Clone)]
pub struct CoreGroupSpec {
    /// Name used to look the group up (e.g. `"cp"`, `"up"`, `"all"`).
    pub name: String,
    /// Number of identical cores in the group.
    pub cores: u32,
    /// Speed factor relative to the reference core. A job with nominal
    /// demand `d` occupies a core for `d / speed`.
    pub speed: f64,
}

/// Width of utilization-accounting buckets.
const UTIL_BUCKET: SimDuration = SimDuration::from_secs(1);

/// Description of a host: a named machine with one or more core groups.
#[derive(Debug, Clone)]
pub struct HostSpec {
    pub name: String,
    pub groups: Vec<CoreGroupSpec>,
}

impl HostSpec {
    /// A host with a single core group named `"all"`.
    pub fn uniform(name: &str, cores: u32, speed: f64) -> Self {
        HostSpec {
            name: name.to_string(),
            groups: vec![CoreGroupSpec {
                name: "all".to_string(),
                cores,
                speed,
            }],
        }
    }

    /// A host with separate control-plane and user-plane core groups, the
    /// statically-pinned configuration from Figures 7/8.
    pub fn pinned(name: &str, cp_cores: u32, up_cores: u32, speed: f64) -> Self {
        HostSpec {
            name: name.to_string(),
            groups: vec![
                CoreGroupSpec {
                    name: "cp".to_string(),
                    cores: cp_cores,
                    speed,
                },
                CoreGroupSpec {
                    name: "up".to_string(),
                    cores: up_cores,
                    speed,
                },
            ],
        }
    }
}

pub(crate) struct Job {
    pub owner: ActorId,
    /// Generation of the owner at submit time.
    pub gen: u32,
    pub tag: u64,
    pub payload: crate::actor::Payload,
    /// Remaining wall time on a core (already divided by speed).
    pub service: SimDuration,
    pub submitted: SimTime,
    /// Causal trace context of the submitting dispatch, so CPU queue
    /// wait + service shows up as a hop of the submitting procedure.
    pub trace: Option<crate::trace::TraceCtx>,
}

pub(crate) struct GroupState {
    pub spec: CoreGroupSpec,
    pub busy: u32,
    pub queue: VecDeque<Job>,
    /// Busy-core-microseconds integrated per bucket.
    pub busy_buckets: Vec<f64>,
    pub last_change: SimTime,
    pub jobs_completed: u64,
    pub total_busy: SimDuration,
    pub max_queue_depth: usize,
}

impl GroupState {
    fn new(spec: CoreGroupSpec) -> Self {
        GroupState {
            spec,
            busy: 0,
            queue: VecDeque::new(),
            busy_buckets: Vec::new(),
            last_change: SimTime::ZERO,
            jobs_completed: 0,
            total_busy: SimDuration::ZERO,
            max_queue_depth: 0,
        }
    }

    /// Integrate busy time from `last_change` to `now` into buckets.
    fn account(&mut self, now: SimTime) {
        if now <= self.last_change || self.busy == 0 {
            self.last_change = now;
            return;
        }
        let bw = UTIL_BUCKET.as_micros();
        let mut t = self.last_change.as_micros();
        let end = now.as_micros();
        let busy = self.busy as f64;
        self.total_busy += SimDuration(((end - t) as f64 * busy) as u64);
        while t < end {
            let idx = (t / bw) as usize;
            let bucket_end = (idx as u64 + 1) * bw;
            let span = bucket_end.min(end) - t;
            if self.busy_buckets.len() <= idx {
                self.busy_buckets.resize(idx + 1, 0.0);
            }
            self.busy_buckets[idx] += span as f64 * busy;
            t += span;
        }
        self.last_change = now;
    }
}

pub(crate) struct HostState {
    pub spec: HostSpec,
    pub groups: Vec<GroupState>,
}

impl HostState {
    pub fn new(spec: HostSpec) -> Self {
        let groups = spec.groups.iter().cloned().map(GroupState::new).collect();
        HostState { spec, groups }
    }

    pub fn group_index(&self, name: &str) -> Option<u32> {
        self.groups
            .iter()
            .position(|g| g.spec.name == name)
            .map(|i| i as u32)
    }
}

/// A snapshot of per-group utilization, produced for reporting.
#[derive(Debug, Clone)]
pub struct UtilizationReport {
    pub host: String,
    pub group: String,
    pub cores: u32,
    /// `(bucket_start, utilization_fraction)` pairs; utilization is over
    /// all cores in the group (1.0 == every core busy the whole bucket).
    pub series: Vec<(SimTime, f64)>,
    pub jobs_completed: u64,
    pub total_busy: SimDuration,
    pub max_queue_depth: usize,
}

impl UtilizationReport {
    /// Mean utilization across the series.
    pub fn mean(&self) -> f64 {
        if self.series.is_empty() {
            return 0.0;
        }
        self.series.iter().map(|(_, u)| *u).sum::<f64>() / self.series.len() as f64
    }

    /// Peak bucket utilization.
    pub fn peak(&self) -> f64 {
        self.series.iter().map(|(_, u)| *u).fold(0.0, f64::max)
    }
}

pub(crate) fn build_report(
    host: &HostState,
    group_idx: usize,
    until: SimTime,
) -> UtilizationReport {
    let g = &host.groups[group_idx];
    let bw = UTIL_BUCKET.as_micros();
    let denom = bw as f64 * g.spec.cores.max(1) as f64;
    let n_buckets = (until.as_micros() / bw) as usize + 1;
    let mut series = Vec::with_capacity(n_buckets);
    for i in 0..n_buckets {
        let v = g.busy_buckets.get(i).copied().unwrap_or(0.0);
        series.push((SimTime(i as u64 * bw), v / denom));
    }
    UtilizationReport {
        host: host.spec.name.clone(),
        group: g.spec.name.clone(),
        cores: g.spec.cores,
        series,
        jobs_completed: g.jobs_completed,
        total_busy: g.total_busy,
        max_queue_depth: g.max_queue_depth,
    }
}

pub(crate) use accounting::*;

mod accounting {
    use super::*;

    /// Called by the kernel when a job is submitted. If a core was free the
    /// job starts immediately and is handed back with its completion time;
    /// otherwise it is queued inside the group.
    pub fn submit(host: &mut HostState, group: u32, now: SimTime, job: Job) -> Option<(Job, SimTime)> {
        let g = &mut host.groups[group as usize];
        g.account(now);
        if g.busy < g.spec.cores {
            g.busy += 1;
            let done = now + job_service(&job);
            Some((job, done))
        } else {
            g.queue.push_back(job);
            g.max_queue_depth = g.max_queue_depth.max(g.queue.len());
            None
        }
    }

    /// Called by the kernel when a running job completes. Returns the next
    /// job to start (with its completion time), if any were queued.
    pub fn complete(host: &mut HostState, group: u32, now: SimTime) -> Option<(Job, SimTime)> {
        let g = &mut host.groups[group as usize];
        g.account(now);
        g.jobs_completed += 1;
        if let Some(job) = g.queue.pop_front() {
            // The freed core immediately picks up the next queued job;
            // busy count is unchanged.
            let done = now + job_service(&job);
            Some((job, done))
        } else {
            g.busy = g.busy.saturating_sub(1);
            None
        }
    }

    fn job_service(job: &Job) -> SimDuration {
        job.service
    }
}

/// Convert a nominal demand into wall time on a core of the given speed.
pub(crate) fn scaled_service(demand: SimDuration, speed: f64) -> SimDuration {
    if speed <= 0.0 {
        return demand;
    }
    SimDuration::from_secs_f64(demand.as_secs_f64() / speed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> HostSpec {
        HostSpec::uniform("h", 2, 1.0)
    }

    fn job(service_ms: u64) -> Job {
        Job {
            owner: ActorId(0),
            gen: 0,
            tag: 0,
            payload: Box::new(()),
            service: SimDuration::from_millis(service_ms),
            submitted: SimTime::ZERO,
            trace: None,
        }
    }

    #[test]
    fn jobs_run_immediately_when_core_free() {
        let mut h = HostState::new(spec());
        let done = submit(&mut h, 0, SimTime::ZERO, job(100)).map(|(_, d)| d);
        assert_eq!(done, Some(SimTime::from_millis(100)));
        let done2 = submit(&mut h, 0, SimTime::ZERO, job(100)).map(|(_, d)| d);
        assert_eq!(done2, Some(SimTime::from_millis(100)));
        // Third job queues: both cores busy.
        let done3 = submit(&mut h, 0, SimTime::ZERO, job(100));
        assert!(done3.is_none());
        assert_eq!(h.groups[0].queue.len(), 1);
    }

    #[test]
    fn completion_starts_queued_job() {
        let mut h = HostState::new(HostSpec::uniform("h", 1, 1.0));
        assert!(submit(&mut h, 0, SimTime::ZERO, job(100)).is_some());
        assert!(submit(&mut h, 0, SimTime::ZERO, job(50)).is_none());
        let next = complete(&mut h, 0, SimTime::from_millis(100));
        let (j, done) = next.unwrap();
        assert_eq!(j.service, SimDuration::from_millis(50));
        assert_eq!(done, SimTime::from_millis(150));
        // Queue drained; completing again frees the core.
        assert!(complete(&mut h, 0, SimTime::from_millis(150)).is_none());
        assert_eq!(h.groups[0].busy, 0);
    }

    #[test]
    fn utilization_integrates_busy_time() {
        let mut h = HostState::new(HostSpec::uniform("h", 1, 1.0));
        assert!(submit(&mut h, 0, SimTime::ZERO, job(500)).is_some());
        assert!(complete(&mut h, 0, SimTime::from_millis(500)).is_none());
        let rep = build_report(&h, 0, SimTime::from_secs(1));
        // 500ms busy in a 1s bucket on 1 core => 0.5 utilization.
        assert!((rep.series[0].1 - 0.5).abs() < 1e-9);
        assert_eq!(rep.jobs_completed, 1);
    }

    #[test]
    fn utilization_spans_buckets() {
        let mut h = HostState::new(HostSpec::uniform("h", 1, 1.0));
        assert!(submit(&mut h, 0, SimTime::from_millis(500), job(1000)).is_some());
        assert!(complete(&mut h, 0, SimTime::from_millis(1500)).is_none());
        let rep = build_report(&h, 0, SimTime::from_secs(2));
        assert!((rep.series[0].1 - 0.5).abs() < 1e-9);
        assert!((rep.series[1].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn speed_scales_service_time() {
        assert_eq!(
            scaled_service(SimDuration::from_millis(100), 2.0),
            SimDuration::from_millis(50)
        );
        assert_eq!(
            scaled_service(SimDuration::from_millis(100), 0.0),
            SimDuration::from_millis(100)
        );
    }

    #[test]
    fn pinned_spec_has_two_groups() {
        let h = HostState::new(HostSpec::pinned("agw", 3, 5, 1.6));
        assert_eq!(h.group_index("cp"), Some(0));
        assert_eq!(h.group_index("up"), Some(1));
        assert_eq!(h.groups[1].spec.cores, 5);
    }
}
