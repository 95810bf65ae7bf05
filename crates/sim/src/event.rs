//! The event queue at the heart of the simulator.
//!
//! Events are totally ordered by `(time, sequence)`: two events scheduled
//! for the same instant fire in the order they were scheduled, which keeps
//! runs bit-for-bit deterministic.

use crate::actor::{ActorId, Event};
use crate::prof::HeapStats;
use crate::time::SimTime;
use crate::trace::TraceCtx;
use std::cmp::Ordering;
#[expect(
    clippy::disallowed_types,
    reason = "cancellation set is insert/remove/contains only — never iterated, so hash order is unobservable"
)]
use std::collections::{BinaryHeap, HashSet};

/// Opaque handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(pub(crate) u64);

pub(crate) struct Scheduled {
    pub time: SimTime,
    pub seq: u64,
    pub target: ActorId,
    /// Generation of the target actor at schedule time; stale events
    /// (target restarted since) are dropped at dispatch.
    pub gen: u32,
    pub event: Event,
    /// Causal trace context stamped by the sender's dispatch (None for
    /// untraced events and whenever tracing is off).
    pub trace: Option<TraceCtx>,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic priority queue of simulation events.
#[expect(
    clippy::disallowed_types,
    reason = "membership checks on the dispatch hot path; never iterated"
)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    cancelled: HashSet<u64>,
    /// Always-on heap statistics for simprof: three integer ops per
    /// push/cancel, deterministic by construction.
    stats: HeapStats,
    /// Cancelled events still physically resident in the heap. Lets
    /// `sample_peak` report live depth, which is a pure function of the
    /// event set — unlike raw `heap.len()`, which depends on when
    /// cancelled entries happen to be skipped past.
    cancel_outstanding: u64,
    /// Racecheck mode: the per-push high-water mark depends on intra-
    /// window dispatch order, so windowed runs disable it and sample
    /// live depth at window boundaries instead (schedule-independent).
    windowed_peak: bool,
}

impl EventQueue {
    #[expect(
        clippy::disallowed_types,
        reason = "see the field declaration — membership-only set"
    )]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: HashSet::new(),
            stats: HeapStats::default(),
            cancel_outstanding: 0,
            windowed_peak: false,
        }
    }

    /// Switch the peak-depth statistic from per-push tracking to
    /// window-boundary sampling (see `racecheck`).
    pub fn set_windowed_peak(&mut self, on: bool) {
        self.windowed_peak = on;
    }

    pub fn push(
        &mut self,
        time: SimTime,
        target: ActorId,
        gen: u32,
        event: Event,
        trace: Option<TraceCtx>,
    ) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time,
            seq,
            target,
            gen,
            event,
            trace,
        });
        self.stats.scheduled_total += 1;
        if !self.windowed_peak {
            self.stats.peak_depth = self.stats.peak_depth.max(self.heap.len() as u64);
        }
        EventHandle(seq)
    }

    /// Re-insert an event that was popped but not dispatched (the
    /// permuted window drain defers other components' events). Keeps
    /// the original sequence number — FIFO order within a component is
    /// preserved — and touches no statistics.
    pub fn reinsert(&mut self, sched: Scheduled) {
        self.heap.push(sched);
    }

    pub fn cancel(&mut self, handle: EventHandle) {
        self.cancelled.insert(handle.0);
        self.stats.cancelled_total += 1;
        self.cancel_outstanding += 1;
    }

    /// Heap statistics accumulated since construction.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Sample the live heap depth (resident minus cancelled-but-
    /// unremoved) into the peak statistic. Called at window boundaries
    /// in racecheck mode; the live depth at a causally-closed boundary
    /// is a function of the event set alone, not the drain order.
    pub fn sample_peak(&mut self) {
        let len = self.heap.len() as u64;
        let live = len - len.min(self.cancel_outstanding);
        self.stats.peak_depth = self.stats.peak_depth.max(live);
    }

    /// Pop the next non-cancelled event.
    pub fn pop(&mut self) -> Option<Scheduled> {
        while let Some(ev) = self.heap.pop() {
            if self.cancelled.remove(&ev.seq) {
                self.cancel_outstanding = self.cancel_outstanding.saturating_sub(1);
                continue;
            }
            return Some(ev);
        }
        None
    }

    /// Time of the next non-cancelled event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let seq = self.heap.peek()?.seq;
            if self.cancelled.contains(&seq) {
                self.cancelled.remove(&seq);
                self.cancel_outstanding = self.cancel_outstanding.saturating_sub(1);
                self.heap.pop();
                continue;
            }
            return Some(self.heap.peek().unwrap().time);
        }
    }

    /// Commutative fold over the live (non-cancelled) resident events:
    /// `(sum, xor, count)` of each event's content hash. Heap iteration
    /// order is arbitrary, but the fold is order-invariant, so the
    /// result is a pure function of the resident event multiset.
    pub fn resident_fold(&self) -> (u64, u64, u64) {
        let (mut sum, mut xor, mut count) = (0u64, 0u64, 0u64);
        for ev in self.heap.iter() {
            if self.cancelled.contains(&ev.seq) {
                continue;
            }
            let h = crate::racecheck::event_hash(ev.target, ev.time.as_micros(), &ev.event);
            sum = sum.wrapping_add(h);
            xor ^= h;
            count += 1;
        }
        (sum, xor, count)
    }

    /// Number of scheduled (possibly cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Event;

    fn ev() -> Event {
        Event::Start
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), ActorId(0), 0, ev(), None);
        q.push(SimTime::from_secs(1), ActorId(1), 0, ev(), None);
        q.push(SimTime::from_secs(2), ActorId(2), 0, ev(), None);
        assert_eq!(q.pop().unwrap().target, ActorId(1));
        assert_eq!(q.pop().unwrap().target, ActorId(2));
        assert_eq!(q.pop().unwrap().target, ActorId(0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.push(t, ActorId(i), 0, ev(), None);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().target, ActorId(i));
        }
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_secs(1), ActorId(0), 0, ev(), None);
        q.push(SimTime::from_secs(2), ActorId(1), 0, ev(), None);
        q.cancel(h);
        assert_eq!(q.pop().unwrap().target, ActorId(1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_secs(1), ActorId(0), 0, ev(), None);
        q.push(SimTime::from_secs(5), ActorId(1), 0, ev(), None);
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }
}
