//! Disturbance guard: tells a slow program from a busy host.
//!
//! A repetition is *disturbed* when the time its thread sat runnable on
//! a run queue (`/proc/self/schedstat`, second field) plus the time the
//! hypervisor withheld from the guest (`steal` column of `/proc/stat`,
//! all CPUs) exceeds [`THRESHOLD`] of its wall time. On the sandbox this
//! was written on, a noisy spell moved the same binary from 4.2 s to
//! 5.0-6.6 s with user CPU ~= wall: pure steal, invisible to any
//! in-process clock but this one. Where the files are missing the guard
//! reads zero and never flags.

use magma::sim::HostStopwatch;

/// Share of wall above which a repetition is flagged.
pub const THRESHOLD: f64 = 0.05;

/// `/proc/stat` counts in USER_HZ ticks, which Linux fixes at 100.
const TICKS_PER_S: f64 = 100.0;

fn runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?;
            // cpu user nice system idle iowait irq softirq steal ...
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Process CPU seconds so far (utime + stime over all threads).
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, which may
            // itself contain spaces: state is field 3, utime 14, stime 15.
            let rest = &s[s.rfind(')')? + 1..];
            let mut f = rest.split_whitespace().skip(11);
            let utime: u64 = f.next()?.parse().ok()?;
            let stime: u64 = f.next()?.parse().ok()?;
            Some((utime + stime) as f64 / TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// What the guard saw over one repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub wall_s: f64,
    pub runq_wait_s: f64,
    pub steal_s: f64,
}

impl Reading {
    pub fn disturbed(&self) -> bool {
        self.runq_wait_s + self.steal_s > THRESHOLD * self.wall_s
    }
}

/// Open at the start of a repetition, [`finish`](Guard::finish) at its end.
pub struct Guard {
    clock: HostStopwatch,
    runq_ns: u64,
    steal: u64,
}

impl Guard {
    pub fn start() -> Self {
        Guard {
            clock: HostStopwatch::start(),
            runq_ns: runq_wait_ns(),
            steal: steal_ticks(),
        }
    }

    pub fn finish(&self) -> Reading {
        Reading {
            wall_s: self.clock.elapsed_s(),
            runq_wait_s: runq_wait_ns().saturating_sub(self.runq_ns) as f64 / 1e9,
            steal_s: steal_ticks().saturating_sub(self.steal) as f64 / TICKS_PER_S,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_five_percent_of_wall() {
        let quiet = Reading {
            wall_s: 4.0,
            runq_wait_s: 0.05,
            steal_s: 0.1,
        };
        let noisy = Reading {
            wall_s: 4.0,
            runq_wait_s: 0.05,
            steal_s: 0.2,
        };
        assert!(!quiet.disturbed());
        assert!(noisy.disturbed());
    }

    #[test]
    fn guard_reads_without_panicking() {
        let g = Guard::start();
        let r = g.finish();
        assert!(r.wall_s >= 0.0 && r.runq_wait_s >= 0.0 && r.steal_s >= 0.0);
        assert!(cpu_s() >= 0.0);
    }
}
