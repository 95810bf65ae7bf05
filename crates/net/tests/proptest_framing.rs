//! Property test on length-prefix framing: [`Reassembler`] against two
//! reference loops, the ones the S1AP/Diameter framer and the RPC framer
//! each ran before both shared it. One splits each message off the front
//! of its buffer; the other walks an offset and drains once. Random
//! message streams, cut into random chunks, with a prefix at the cap or
//! one past it now and then, at both caps in use. All three must deliver
//! the same messages, poison alike and keep the same bytes buffered.

use bytes::BytesMut;
use magma_net::{Reassembler, MAX_LP_LEN};
use proptest::prelude::*;

/// `magma_rpc::MAX_FRAME_LEN` (magma-net sits below magma-rpc).
const MAX_FRAME_LEN: usize = 16 << 20;

/// What a framer made of a stream: messages, poisoned, bytes buffered.
type Outcome = (Vec<Vec<u8>>, bool, usize);

/// The split-off-the-front loop of the S1AP and Diameter framer.
struct SplitFront {
    cap: usize,
    buf: BytesMut,
    poisoned: bool,
}

impl SplitFront {
    fn push(&mut self, bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        if self.poisoned {
            return out;
        }
        self.buf.extend_from_slice(bytes);
        loop {
            if self.buf.len() < 4 {
                break;
            }
            let len =
                u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            if len > self.cap {
                self.poisoned = true;
                self.buf = BytesMut::new();
                break;
            }
            if self.buf.len() < 4 + len {
                break;
            }
            let _ = self.buf.split_to(4);
            out.push(self.buf.split_to(len).to_vec());
        }
        out
    }
}

/// The offset walk of the RPC framer, less its JSON parse.
struct OffsetWalk {
    cap: usize,
    buf: Vec<u8>,
    poisoned: bool,
}

impl OffsetWalk {
    fn push(&mut self, bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        if self.poisoned {
            return out;
        }
        self.buf.extend_from_slice(bytes);
        let mut consumed = 0;
        while let Some(rest) = self.buf.get(consumed..) {
            let Some(&[b0, b1, b2, b3]) = rest.get(..4) else {
                break;
            };
            let len = u32::from_be_bytes([b0, b1, b2, b3]) as usize;
            if len > self.cap {
                self.poisoned = true;
                self.buf = Vec::new();
                return out;
            }
            let Some(text) = rest.get(4..4 + len) else {
                break;
            };
            out.push(text.to_vec());
            consumed += 4 + len;
        }
        self.buf.drain(..consumed);
        out
    }
}

/// Cut `stream` into chunks of the given sizes, cycling, and feed each.
fn feed(
    stream: &[u8],
    chunks: &[usize],
    mut push: impl FnMut(&[u8]) -> Vec<Vec<u8>>,
) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    let mut rest = stream;
    for &n in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(n.min(rest.len()));
        rest = tail;
        got.extend(push(chunk));
    }
    got
}

/// Frame `msgs`; before message `at`, `hostile` inserts a prefix at the
/// cap (1, the rest of the stream then counts as its body), one past it
/// (2), or a whole message of the cap's length (3).
fn stream(msgs: &[Vec<u8>], at: usize, hostile: u8, cap: usize) -> Vec<u8> {
    let mut s = Vec::new();
    for (i, m) in msgs.iter().enumerate() {
        if i == at {
            match hostile {
                1 => s.extend_from_slice(&(cap as u32).to_be_bytes()),
                2 => s.extend_from_slice(&(cap as u32 + 1).to_be_bytes()),
                3 => {
                    s.extend_from_slice(&(cap as u32).to_be_bytes());
                    s.resize(s.len() + cap, 0x5a);
                }
                _ => {}
            }
        }
        s.extend_from_slice(&(m.len() as u32).to_be_bytes());
        s.extend_from_slice(m);
    }
    s
}

fn outcomes<const CAP: usize>(stream: &[u8], chunks: &[usize]) -> [Outcome; 3] {
    let mut shared = Reassembler::<CAP>::new();
    let got = feed(stream, chunks, |c| {
        let mut out = Vec::new();
        shared.push_each(c, |m| out.push(m.to_vec()));
        out
    });
    let shared = (got, shared.is_poisoned(), shared.buffered());
    let mut front = SplitFront {
        cap: CAP,
        buf: BytesMut::new(),
        poisoned: false,
    };
    let got = feed(stream, chunks, |c| front.push(c));
    let front = (got, front.poisoned, front.buf.len());
    let mut walk = OffsetWalk {
        cap: CAP,
        buf: Vec::new(),
        poisoned: false,
    };
    let got = feed(stream, chunks, |c| walk.push(c));
    let walk = (got, walk.poisoned, walk.buf.len());
    [shared, front, walk]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn the_reassembler_frames_as_both_reference_loops(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..10),
        at in 0usize..10,
        hostile in 0u8..4,
        chunks in proptest::collection::vec(1usize..2000, 1..6),
    ) {
        let lp = stream(&msgs, at, hostile, MAX_LP_LEN);
        let [shared, front, walk] = outcomes::<MAX_LP_LEN>(&lp, &chunks);
        prop_assert_eq!(&shared, &front);
        prop_assert_eq!(&shared, &walk);
        // A whole 16 MiB message in chunks of at most 2 kB is too slow for
        // a test: at the RPC cap, a prefix at the cap waits for its body.
        let rpc_hostile = if hostile == 3 { 1 } else { hostile };
        let rpc = stream(&msgs, at, rpc_hostile, MAX_FRAME_LEN);
        let [shared, front, walk] = outcomes::<MAX_FRAME_LEN>(&rpc, &chunks);
        prop_assert_eq!(&shared, &front);
        prop_assert_eq!(&shared, &walk);
        if at < msgs.len() {
            prop_assert_eq!(shared.1, hostile == 2, "poisoned exactly by a prefix past the cap");
        }
    }
}
