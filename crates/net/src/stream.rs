//! Reliable stream transport (TCP-analog) — the substrate under the
//! gRPC-analog RPC layer.
//!
//! The paper's §3.1 argues that running control traffic over TCP (via
//! gRPC) is what lets Magma tolerate lossy, high-latency backhaul where
//! raw 3GPP protocols like GTP fall over. This module implements the
//! loss-recovery machinery that claim rests on: sliding-window ARQ with
//! cumulative + echo acknowledgements, RTT estimation, exponential
//! backoff, and a bounded retry budget.
//!
//! The state machine is pure (no actor dependencies): inputs are
//! application sends, received frames, and timer expirations; outputs are
//! frames to transmit and in-order bytes for the application. The
//! [`NetStack`](crate::stack::NetStack) actor drives it.

use crate::addr::Endpoint;
use crate::frame::MTU;
use bytes::Bytes;
use magma_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Identifies a connection: the initiating endpoint (with its ephemeral
/// port) and the responding (listening) endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnKey {
    pub initiator: Endpoint,
    pub responder: Endpoint,
}

/// Application-visible handle to one side of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamHandle(pub u64);

/// Stream-layer frames.
#[derive(Debug, Clone)]
pub enum StreamFrame {
    /// Connection open (retransmitted with backoff until SynAck).
    Syn { key: ConnKey },
    /// Open accepted by the responder.
    SynAck { key: ConnKey },
    Data {
        key: ConnKey,
        from_initiator: bool,
        seq: u64,
        bytes: Bytes,
    },
    Ack {
        key: ConnKey,
        from_initiator: bool,
        /// All segments with seq < `cum` are acknowledged.
        cum: u64,
        /// The specific segment that triggered this ack.
        echo: u64,
        /// Whether the echoed segment had been retransmitted (Karn's rule:
        /// no RTT sample from retransmissions).
        echo_was_retx: bool,
    },
    Reset {
        key: ConnKey,
        from_initiator: bool,
    },
}

impl StreamFrame {
    pub fn key(&self) -> ConnKey {
        match self {
            StreamFrame::Syn { key }
            | StreamFrame::SynAck { key }
            | StreamFrame::Data { key, .. }
            | StreamFrame::Ack { key, .. }
            | StreamFrame::Reset { key, .. } => *key,
        }
    }

    pub fn from_initiator(&self) -> bool {
        match self {
            StreamFrame::Syn { .. } => true,
            StreamFrame::SynAck { .. } => false,
            StreamFrame::Data { from_initiator, .. }
            | StreamFrame::Ack { from_initiator, .. }
            | StreamFrame::Reset { from_initiator, .. } => *from_initiator,
        }
    }

    pub fn wire_size(&self) -> usize {
        match self {
            StreamFrame::Syn { .. } | StreamFrame::SynAck { .. } => 16,
            StreamFrame::Data { bytes, .. } => 24 + bytes.len(),
            StreamFrame::Ack { .. } => 32,
            StreamFrame::Reset { .. } => 16,
        }
    }
}

/// Tuning parameters for the ARQ.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Maximum unacknowledged segments in flight.
    pub window: usize,
    /// Initial retransmission timeout before any RTT sample.
    pub initial_rto: SimDuration,
    pub min_rto: SimDuration,
    pub max_rto: SimDuration,
    /// Consecutive retransmissions of one segment before the connection
    /// is declared dead.
    pub max_retx: u32,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: 64,
            initial_rto: SimDuration::from_millis(1000),
            min_rto: SimDuration::from_millis(40),
            // The backoff ceiling bounds how long a healed path goes
            // unused: with data or a Syn outstanding, the stream sends a
            // copy at least this often (the RPC client above it never
            // re-sends on an open stream). So a control stream is back
            // within about a second of a heal; an outage past `max_retx`
            // tries (about 8 s) closes it, and the RPC client reopens it.
            max_rto: SimDuration::from_secs(1),
            max_retx: 8,
        }
    }
}

#[derive(Debug)]
struct Segment {
    bytes: Bytes,
    last_sent: SimTime,
    retx: u32,
}

/// Result of a retransmission-timer expiration.
#[derive(Debug)]
pub enum RtoOutcome {
    /// Retransmit these frames; re-arm the timer.
    Retransmit(Vec<StreamFrame>),
    /// Retry budget exhausted: the connection is dead.
    Dead,
    /// Nothing outstanding (spurious timer) — disarm.
    Idle,
}

/// Connection-establishment state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Handshake {
    /// Initiator: Syn sent, awaiting SynAck; data is held back.
    SynPending,
    Established,
}

/// One side of a reliable stream connection.
#[derive(Debug)]
pub struct StreamState {
    pub key: ConnKey,
    pub is_initiator: bool,
    handshake: Handshake,
    syn_last_sent: SimTime,
    syn_retx: u32,
    cfg: StreamConfig,
    // Send side.
    next_seq: u64,
    unacked: BTreeMap<u64, Segment>,
    pending: VecDeque<Bytes>,
    // Receive side.
    recv_next: u64,
    ooo: BTreeMap<u64, Bytes>,
    // RTT estimation (RFC 6298 style).
    srtt_us: Option<f64>,
    rttvar_us: f64,
    rto: SimDuration,
    pub dead: bool,
    /// Total payload bytes acknowledged by the peer.
    pub bytes_acked: u64,
    /// Total retransmissions performed.
    pub retransmissions: u64,
}

impl StreamState {
    pub fn new(key: ConnKey, is_initiator: bool, cfg: StreamConfig) -> Self {
        StreamState {
            key,
            is_initiator,
            handshake: if is_initiator {
                Handshake::SynPending
            } else {
                Handshake::Established
            },
            syn_last_sent: SimTime::ZERO,
            syn_retx: 0,
            rto: cfg.initial_rto,
            cfg,
            next_seq: 0,
            unacked: BTreeMap::new(),
            pending: VecDeque::new(),
            recv_next: 0,
            ooo: BTreeMap::new(),
            srtt_us: None,
            rttvar_us: 0.0,
            dead: false,
        bytes_acked: 0,
            retransmissions: 0,
        }
    }

    /// Initiator: the Syn frame to transmit when opening; records the
    /// send time for retransmission.
    pub fn open(&mut self, now: SimTime) -> StreamFrame {
        self.syn_last_sent = now;
        StreamFrame::Syn { key: self.key }
    }

    /// Queue application bytes; returns the data frames that may be
    /// transmitted now (within the window, once established).
    pub fn app_send(&mut self, bytes: Bytes, now: SimTime) -> Vec<StreamFrame> {
        let mut off = 0;
        while off < bytes.len() {
            let end = (off + MTU).min(bytes.len());
            self.pending.push_back(bytes.slice(off..end));
            off = end;
        }
        self.fill_window(now)
    }

    fn fill_window(&mut self, now: SimTime) -> Vec<StreamFrame> {
        let mut out = Vec::new();
        if self.handshake != Handshake::Established {
            return out;
        }
        while self.unacked.len() < self.cfg.window {
            let Some(chunk) = self.pending.pop_front() else {
                break;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.unacked.insert(
                seq,
                Segment {
                    bytes: chunk.clone(),
                    last_sent: now,
                    retx: 0,
                },
            );
            out.push(StreamFrame::Data {
                key: self.key,
                from_initiator: self.is_initiator,
                seq,
                bytes: chunk,
            });
        }
        out
    }

    /// Process a frame from the peer. Returns `(frames_to_send,
    /// in_order_app_bytes)`.
    pub fn on_frame(&mut self, frame: StreamFrame, now: SimTime) -> (Vec<StreamFrame>, Vec<Bytes>) {
        let mut send = Vec::new();
        let mut deliver = Vec::new();
        match frame {
            StreamFrame::Syn { .. } => {
                // (Responder side; duplicate Syns re-acknowledged.)
                send.push(StreamFrame::SynAck { key: self.key });
            }
            StreamFrame::SynAck { .. } => {
                if self.handshake == Handshake::SynPending {
                    self.handshake = Handshake::Established;
                    // Syn RTT sample seeds the estimator.
                    let sample = now.since(self.syn_last_sent).as_micros() as f64;
                    if self.syn_retx == 0 && sample > 0.0 {
                        self.rtt_sample(sample);
                    }
                    send.extend(self.fill_window(now));
                }
            }
            StreamFrame::Data { seq, bytes, .. } => {
                if seq >= self.recv_next {
                    self.ooo.entry(seq).or_insert(bytes);
                    while let Some(b) = self.ooo.remove(&self.recv_next) {
                        deliver.push(b);
                        self.recv_next += 1;
                    }
                }
                send.push(StreamFrame::Ack {
                    key: self.key,
                    from_initiator: self.is_initiator,
                    cum: self.recv_next,
                    echo: seq,
                    // The receiver cannot know whether the copy it got was a
                    // retransmission; the sender tracks that via `retx`.
                    echo_was_retx: false,
                });
            }
            StreamFrame::Ack { cum, echo, .. } => {
                // RTT sample from the echoed segment, per Karn's algorithm.
                if let Some(seg) = self.unacked.get(&echo) {
                    if seg.retx == 0 {
                        let sample = now.since(seg.last_sent).as_micros() as f64;
                        self.rtt_sample(sample);
                    }
                }
                let before: Vec<u64> = self
                    .unacked
                    .range(..cum)
                    .map(|(s, _)| *s)
                    .collect();
                for s in before {
                    if let Some(seg) = self.unacked.remove(&s) {
                        self.bytes_acked += seg.bytes.len() as u64;
                    }
                }
                if let Some(seg) = self.unacked.remove(&echo) {
                    self.bytes_acked += seg.bytes.len() as u64;
                }
                send.extend(self.fill_window(now));
            }
            StreamFrame::Reset { .. } => {
                self.dead = true;
            }
        }
        (send, deliver)
    }

    fn rtt_sample(&mut self, sample_us: f64) {
        match self.srtt_us {
            None => {
                self.srtt_us = Some(sample_us);
                self.rttvar_us = sample_us / 2.0;
            }
            Some(srtt) => {
                let err = (sample_us - srtt).abs();
                self.rttvar_us = 0.75 * self.rttvar_us + 0.25 * err;
                self.srtt_us = Some(0.875 * srtt + 0.125 * sample_us);
            }
        }
        let rto_us = self.srtt_us.unwrap() + 4.0 * self.rttvar_us.max(1000.0);
        self.rto = SimDuration::from_micros(rto_us as u64)
            .max(self.cfg.min_rto)
            .min(self.cfg.max_rto);
    }

    /// When the retransmission timer should next fire, if anything is
    /// outstanding (data segments or a pending Syn).
    pub fn next_deadline(&self) -> Option<SimTime> {
        let data = self.unacked.values().map(|s| s.last_sent + self.rto).min();
        if self.handshake == Handshake::SynPending {
            let syn = self.syn_last_sent + self.rto;
            Some(data.map_or(syn, |d| d.min(syn)))
        } else {
            data
        }
    }

    /// Handle a retransmission-timer expiration at `now`.
    pub fn on_rto(&mut self, now: SimTime) -> RtoOutcome {
        if self.dead {
            return RtoOutcome::Dead;
        }
        if self.handshake == Handshake::SynPending {
            if self.syn_last_sent + self.rto > now {
                return RtoOutcome::Retransmit(Vec::new());
            }
            self.syn_retx += 1;
            if self.syn_retx > self.cfg.max_retx {
                self.dead = true;
                return RtoOutcome::Dead;
            }
            self.syn_last_sent = now;
            self.retransmissions += 1;
            self.rto = (self.rto * 2).min(self.cfg.max_rto);
            return RtoOutcome::Retransmit(vec![StreamFrame::Syn { key: self.key }]);
        }
        if self.unacked.is_empty() {
            return RtoOutcome::Idle;
        }
        // Retransmit only segments whose timer actually expired.
        let expired: Vec<u64> = self
            .unacked
            .iter()
            .filter(|(_, s)| s.last_sent + self.rto <= now)
            .map(|(seq, _)| *seq)
            .collect();
        if expired.is_empty() {
            return RtoOutcome::Retransmit(Vec::new());
        }
        let mut frames = Vec::new();
        for seq in expired {
            let seg = self.unacked.get_mut(&seq).unwrap();
            seg.retx += 1;
            if seg.retx > self.cfg.max_retx {
                self.dead = true;
                return RtoOutcome::Dead;
            }
            seg.last_sent = now;
            self.retransmissions += 1;
            frames.push(StreamFrame::Data {
                key: self.key,
                from_initiator: self.is_initiator,
                seq,
                bytes: seg.bytes.clone(),
            });
        }
        // Exponential backoff.
        self.rto = (self.rto * 2).min(self.cfg.max_rto);
        RtoOutcome::Retransmit(frames)
    }

    pub fn unacked_count(&self) -> usize {
        self.unacked.len()
    }

    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    pub fn current_rto(&self) -> SimDuration {
        self.rto
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeAddr;

    fn key() -> ConnKey {
        ConnKey {
            initiator: Endpoint::new(NodeAddr(1), 50000),
            responder: Endpoint::new(NodeAddr(2), 8443),
        }
    }

    /// A connected pair: the handshake has completed.
    fn pair() -> (StreamState, StreamState) {
        pair_with(StreamConfig::default())
    }

    fn pair_with(cfg: StreamConfig) -> (StreamState, StreamState) {
        let mut a = StreamState::new(key(), true, cfg);
        let mut b = StreamState::new(key(), false, StreamConfig::default());
        let syn = a.open(SimTime::ZERO);
        let (synack, _) = b.on_frame(syn, SimTime::ZERO);
        for f in synack {
            a.on_frame(f, SimTime::from_millis(1));
        }
        (a, b)
    }

    #[test]
    fn small_send_delivers_in_order() {
        let (mut a, mut b) = pair();
        let t = SimTime::ZERO;
        let frames = a.app_send(Bytes::from_static(b"hello"), t);
        assert_eq!(frames.len(), 1);
        let (acks, data) = b.on_frame(frames.into_iter().next().unwrap(), t);
        assert_eq!(data.len(), 1);
        assert_eq!(&data[0][..], b"hello");
        assert_eq!(acks.len(), 1);
        let (more, _) = a.on_frame(acks.into_iter().next().unwrap(), t);
        assert!(more.is_empty());
        assert_eq!(a.unacked_count(), 0);
        assert_eq!(a.bytes_acked, 5);
    }

    #[test]
    fn large_send_segments_at_mtu() {
        let (mut a, _) = pair();
        let _ = &a;
        let frames = a.app_send(Bytes::from(vec![7u8; MTU * 3 + 10]), SimTime::ZERO);
        assert_eq!(frames.len(), 4);
    }

    #[test]
    fn window_limits_in_flight() {
        let cfg = StreamConfig {
            window: 2,
            ..Default::default()
        };
        let (mut a, _) = pair_with(cfg);
        let frames = a.app_send(Bytes::from(vec![0u8; MTU * 5]), SimTime::ZERO);
        assert_eq!(frames.len(), 2);
        assert_eq!(a.pending_count(), 3);
    }

    #[test]
    fn ack_opens_window() {
        let cfg = StreamConfig {
            window: 2,
            ..Default::default()
        };
        let (mut a, mut b) = pair_with(cfg);
        let t = SimTime::from_millis(2);
        let frames = a.app_send(Bytes::from(vec![0u8; MTU * 5]), t);
        let (acks, _) = b.on_frame(frames.into_iter().next().unwrap(), t);
        let acks: Vec<_> = acks
            .into_iter()
            .filter(|f| matches!(f, StreamFrame::Ack { .. }))
            .collect();
        let (more, _) = a.on_frame(acks.into_iter().next().unwrap(), t);
        // One segment acked -> one new segment released.
        assert_eq!(more.len(), 1);
    }

    #[test]
    fn data_held_until_handshake_completes() {
        let mut a = StreamState::new(key(), true, StreamConfig::default());
        let syn = a.open(SimTime::ZERO);
        assert!(matches!(syn, StreamFrame::Syn { .. }));
        // Data queued before the SynAck is not transmitted.
        let frames = a.app_send(Bytes::from_static(b"early"), SimTime::ZERO);
        assert!(frames.is_empty());
        // SynAck releases it.
        let (frames, _) = a.on_frame(
            StreamFrame::SynAck { key: key() },
            SimTime::from_millis(40),
        );
        assert_eq!(frames.len(), 1);
        assert!(matches!(frames[0], StreamFrame::Data { seq: 0, .. }));
    }

    #[test]
    fn syn_retransmits_then_dies() {
        let cfg = StreamConfig {
            max_retx: 2,
            ..Default::default()
        };
        let mut a = StreamState::new(key(), true, cfg);
        let _ = a.open(SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for _ in 0..2 {
            t = t + a.current_rto() + SimDuration::from_millis(1);
            match a.on_rto(t) {
                RtoOutcome::Retransmit(frames) => {
                    assert!(frames.iter().any(|f| matches!(f, StreamFrame::Syn { .. })))
                }
                other => panic!("expected syn retransmit, got {other:?}"),
            }
        }
        t = t + a.current_rto() + SimDuration::from_millis(1);
        assert!(matches!(a.on_rto(t), RtoOutcome::Dead));
    }

    #[test]
    fn out_of_order_reassembly() {
        let (mut a, mut b) = pair();
        let t = SimTime::ZERO;
        let frames = a.app_send(Bytes::from(vec![1u8; MTU * 2]), t);
        assert_eq!(frames.len(), 2);
        // Deliver second segment first.
        let (_, d1) = b.on_frame(frames[1].clone(), t);
        assert!(d1.is_empty());
        let (_, d2) = b.on_frame(frames[0].clone(), t);
        assert_eq!(d2.len(), 2);
    }

    #[test]
    fn duplicate_data_not_redelivered() {
        let (mut a, mut b) = pair();
        let t = SimTime::ZERO;
        let frames = a.app_send(Bytes::from_static(b"x"), t);
        let f = frames.into_iter().next().unwrap();
        let (_, d1) = b.on_frame(f.clone(), t);
        assert_eq!(d1.len(), 1);
        let (acks, d2) = b.on_frame(f, t);
        assert!(d2.is_empty());
        // Duplicate still acked (ack loss recovery).
        assert_eq!(acks.len(), 1);
    }

    #[test]
    fn rto_retransmits_and_backs_off() {
        let (mut a, _) = pair();
        let t0 = SimTime::ZERO;
        a.app_send(Bytes::from_static(b"x"), t0);
        let rto0 = a.current_rto();
        let t1 = t0 + rto0 + SimDuration::from_millis(1);
        match a.on_rto(t1) {
            RtoOutcome::Retransmit(frames) => assert_eq!(frames.len(), 1),
            other => panic!("expected retransmit, got {other:?}"),
        }
        assert!(a.current_rto() > rto0);
        assert_eq!(a.retransmissions, 1);
    }

    #[test]
    fn connection_dies_after_max_retx() {
        let cfg = StreamConfig {
            max_retx: 2,
            ..Default::default()
        };
        let mut a = StreamState::new(key(), true, cfg);
        let mut t = SimTime::ZERO;
        a.app_send(Bytes::from_static(b"x"), t);
        for _ in 0..2 {
            t = t + a.current_rto() + SimDuration::from_millis(1);
            assert!(matches!(a.on_rto(t), RtoOutcome::Retransmit(_)));
        }
        t = t + a.current_rto() + SimDuration::from_millis(1);
        assert!(matches!(a.on_rto(t), RtoOutcome::Dead));
        assert!(a.dead);
    }

    #[test]
    fn rtt_sample_tightens_rto() {
        let (mut a, mut b) = pair();
        let t0 = SimTime::ZERO;
        let frames = a.app_send(Bytes::from_static(b"x"), t0);
        let t1 = t0 + SimDuration::from_millis(20);
        let (acks, _) = b.on_frame(frames.into_iter().next().unwrap(), t1);
        let t2 = t0 + SimDuration::from_millis(40);
        a.on_frame(acks.into_iter().next().unwrap(), t2);
        // RTO should now reflect the ~40ms RTT rather than the 1s initial.
        assert!(a.current_rto() < SimDuration::from_millis(500));
        assert!(a.current_rto() >= SimDuration::from_millis(40));
    }

    #[test]
    fn reset_kills_connection() {
        let (mut a, _) = pair();
        let (out, _) = a.on_frame(
            StreamFrame::Reset {
                key: key(),
                from_initiator: false,
            },
            SimTime::ZERO,
        );
        assert!(out.is_empty());
        assert!(a.dead);
    }

    #[test]
    fn spurious_rto_is_idle() {
        let (mut a, _) = pair();
        assert!(matches!(a.on_rto(SimTime::from_secs(10)), RtoOutcome::Idle));
    }
}
