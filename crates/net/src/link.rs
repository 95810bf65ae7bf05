//! Link models: latency, jitter, loss, and bandwidth with FIFO
//! serialization.
//!
//! The paper's backhaul discussion (§3.1, §3.4) is about *bad links*:
//! satellite and shared microwave backhaul with hundreds of milliseconds
//! of latency and non-trivial loss. Profiles below provide the presets the
//! experiments sweep over.

use magma_sim::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Static characteristics of a unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Uniform random extra delay in `[0, jitter]`.
    pub jitter: SimDuration,
    /// Independent per-frame drop probability in `[0, 1]`.
    pub loss: f64,
    /// Serialization bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Maximum queueing backlog before tail drop.
    pub max_backlog: SimDuration,
}

impl LinkProfile {
    /// Local wired LAN (AGW to co-located eNodeB).
    pub fn lan() -> Self {
        LinkProfile {
            latency: SimDuration::from_micros(100),
            jitter: SimDuration::from_micros(50),
            loss: 0.0,
            bandwidth_bps: 10_000_000_000,
            max_backlog: SimDuration::from_millis(50),
        }
    }

    /// Fiber backhaul: the "good" case traditional cores assume.
    pub fn fiber() -> Self {
        LinkProfile {
            latency: SimDuration::from_millis(2),
            jitter: SimDuration::from_micros(200),
            loss: 0.0001,
            bandwidth_bps: 1_000_000_000,
            max_backlog: SimDuration::from_millis(100),
        }
    }

    /// Shared microwave backhaul common in rural deployments.
    pub fn microwave() -> Self {
        LinkProfile {
            latency: SimDuration::from_millis(8),
            jitter: SimDuration::from_millis(3),
            loss: 0.005,
            bandwidth_bps: 100_000_000,
            max_backlog: SimDuration::from_millis(200),
        }
    }

    /// Geostationary satellite backhaul: the stress case from §3.1.
    pub fn satellite() -> Self {
        LinkProfile {
            latency: SimDuration::from_millis(300),
            jitter: SimDuration::from_millis(20),
            loss: 0.02,
            bandwidth_bps: 20_000_000,
            max_backlog: SimDuration::from_millis(800),
        }
    }

    /// Same-host loopback (services co-located on one AGW).
    pub fn loopback() -> Self {
        LinkProfile {
            latency: SimDuration::from_micros(10),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: 100_000_000_000,
            max_backlog: SimDuration::from_millis(10),
        }
    }

    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    pub fn with_latency(mut self, latency: SimDuration) -> Self {
        self.latency = latency;
        self
    }
}

/// Runtime state of a unidirectional link.
#[derive(Debug, Clone)]
pub struct Link {
    pub profile: LinkProfile,
    pub up: bool,
    /// Time at which the transmitter finishes the last queued frame.
    next_free: SimTime,
    pub frames_delivered: u64,
    pub frames_dropped: u64,
    pub bytes_delivered: u64,
    /// Per-link loss/jitter stream, seeded from `(world seed, src, dst)`
    /// by the topology. A directed link has exactly one sender, so its
    /// draw sequence depends only on that sender's transmit order —
    /// never on how transmissions across links interleave (which
    /// racecheck's permuted schedules reorder).
    rng: SmallRng,
}

/// Outcome of offering a frame to a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TxOutcome {
    /// Frame will arrive at the given time.
    Delivered { arrival: SimTime },
    /// Frame was lost (random loss, backlog overflow, or link down).
    Dropped,
}

impl Link {
    pub fn new(profile: LinkProfile) -> Self {
        Link {
            profile,
            up: true,
            next_free: SimTime::ZERO,
            frames_delivered: 0,
            frames_dropped: 0,
            bytes_delivered: 0,
            rng: SmallRng::seed_from_u64(0),
        }
    }

    /// Re-seed the link's loss/jitter stream (called by the topology
    /// with a per-link derivation of the world seed).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
    }

    /// Offer a frame of `size` bytes at time `now`. Applies serialization
    /// (FIFO behind earlier frames), propagation, jitter, loss, and
    /// backlog-based tail drop.
    pub fn transmit(&mut self, now: SimTime, size: usize) -> TxOutcome {
        if !self.up {
            self.frames_dropped += 1;
            return TxOutcome::Dropped;
        }
        let start = self.next_free.max(now);
        // Tail drop when the queue backlog exceeds the configured bound.
        if start.since(now) > self.profile.max_backlog {
            self.frames_dropped += 1;
            return TxOutcome::Dropped;
        }
        let tx_time =
            SimDuration::from_secs_f64(size as f64 * 8.0 / self.profile.bandwidth_bps as f64);
        let tx_end = start + tx_time;
        self.next_free = tx_end;

        if self.profile.loss > 0.0 && self.rng.gen::<f64>() < self.profile.loss {
            self.frames_dropped += 1;
            return TxOutcome::Dropped;
        }

        let jitter = if self.profile.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(self.rng.gen_range(0..=self.profile.jitter.as_micros()))
        };
        let arrival = tx_end + self.profile.latency + jitter;
        self.frames_delivered += 1;
        self.bytes_delivered += size as u64;
        TxOutcome::Delivered { arrival }
    }

    /// Current queueing backlog as seen by a frame offered at `now`.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.next_free.since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_link_delivers_with_latency() {
        let mut l = Link::new(LinkProfile {
            latency: SimDuration::from_millis(10),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: 8_000_000, // 1 MB/s
            max_backlog: SimDuration::from_secs(1),
        });
        let out = l.transmit(SimTime::ZERO, 1000);
        // 1000 bytes at 1MB/s = 1ms serialization + 10ms latency.
        assert_eq!(
            out,
            TxOutcome::Delivered {
                arrival: SimTime::from_millis(11)
            }
        );
        assert_eq!(l.frames_delivered, 1);
        assert_eq!(l.bytes_delivered, 1000);
    }

    #[test]
    fn frames_serialize_fifo() {
        let mut l = Link::new(LinkProfile {
            latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: 8_000, // 1 KB/s
            max_backlog: SimDuration::from_secs(10),
        });
        let a = l.transmit(SimTime::ZERO, 1000); // 1s tx
        let b = l.transmit(SimTime::ZERO, 1000); // queued behind
        assert_eq!(
            a,
            TxOutcome::Delivered {
                arrival: SimTime::from_secs(1)
            }
        );
        assert_eq!(
            b,
            TxOutcome::Delivered {
                arrival: SimTime::from_secs(2)
            }
        );
    }

    #[test]
    fn backlog_overflow_drops() {
        let mut l = Link::new(LinkProfile {
            latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: 8_000,
            max_backlog: SimDuration::from_millis(1500),
        });
        assert!(matches!(
            l.transmit(SimTime::ZERO, 1000),
            TxOutcome::Delivered { .. }
        ));
        assert!(matches!(
            l.transmit(SimTime::ZERO, 1000),
            TxOutcome::Delivered { .. }
        ));
        // Backlog now 2s > 1.5s cap: dropped.
        assert_eq!(l.transmit(SimTime::ZERO, 1000), TxOutcome::Dropped);
        assert_eq!(l.frames_dropped, 1);
    }

    #[test]
    fn down_link_drops_everything() {
        let mut l = Link::new(LinkProfile::fiber());
        l.up = false;
        assert_eq!(l.transmit(SimTime::ZERO, 100), TxOutcome::Dropped);
    }

    #[test]
    fn lossy_link_drops_about_the_right_fraction() {
        let mut l = Link::new(LinkProfile::lan().with_loss(0.3));
        l.reseed(7);
        let mut dropped = 0;
        for _ in 0..10_000 {
            if l.transmit(SimTime::from_secs(1_000_000), 100) == TxOutcome::Dropped {
                dropped += 1;
            }
        }
        let frac = dropped as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "drop fraction {frac}");
    }

    #[test]
    fn presets_are_ordered_by_quality() {
        assert!(LinkProfile::fiber().latency < LinkProfile::microwave().latency);
        assert!(LinkProfile::microwave().latency < LinkProfile::satellite().latency);
        assert!(LinkProfile::fiber().loss < LinkProfile::satellite().loss);
    }

    /// Racecheck's permuted drain is only legal while every link takes
    /// at least one window to cross; a faster preset must fail here, not
    /// surface later as a phantom race.
    #[test]
    fn every_preset_takes_at_least_one_racecheck_window() {
        let window = SimDuration::from_micros(magma_sim::racecheck::WINDOW_US);
        for (name, p) in [
            ("lan", LinkProfile::lan()),
            ("fiber", LinkProfile::fiber()),
            ("microwave", LinkProfile::microwave()),
            ("satellite", LinkProfile::satellite()),
            ("loopback", LinkProfile::loopback()),
        ] {
            assert!(p.latency >= window, "{name}: {:?} < {window:?}", p.latency);
        }
    }
}
