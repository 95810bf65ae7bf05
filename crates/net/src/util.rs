//! Length-prefix framing for messages carried over the stream transport:
//! S1AP and Diameter (which ride SCTP and TCP in 3GPP) through
//! [`LpFramer`], and `magma-rpc`'s frames through its `Framer`. Both
//! reassemble with [`Reassembler`], so every framing rule lives here.

use crate::flows;
use crate::stack::SockCmd;
use crate::stream::StreamHandle;
use bytes::{BufMut, Bytes, BytesMut};
use magma_sim::{ActorId, Ctx};

/// Prefix a message with its u32 length.
pub fn lp_encode(msg: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + msg.len());
    b.put_u32(msg.len() as u32);
    b.put_slice(msg);
    b.freeze()
}

/// Largest message a peer may announce: 128 KiB. S1AP carries its NAS
/// container under a u16 length and an S6a answer at most 255 vectors,
/// so no message these codecs build comes near it. A longer prefix is
/// hostile or corrupt — four bytes must not make the receiver buffer
/// 4 GiB.
pub const MAX_LP_LEN: usize = 128 << 10;

/// Reassembler for `[u32 length][body]` messages of at most `CAP` bytes,
/// over arbitrary segmentation.
///
/// A length prefix beyond `CAP` poisons it: framing is lost for good, so
/// it drops what it holds and ignores further input, and its owner
/// closes the stream ([`close_if_poisoned`](Self::close_if_poisoned)).
/// The messages ahead of the bad prefix are still delivered.
#[derive(Debug, Default)]
pub struct Reassembler<const CAP: usize> {
    buf: Vec<u8>,
    poisoned: bool,
}

/// The S1AP and Diameter framer.
pub type LpFramer = Reassembler<MAX_LP_LEN>;

impl<const CAP: usize> Reassembler<CAP> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed bytes; returns complete messages.
    pub fn push(&mut self, bytes: &[u8]) -> Vec<Bytes> {
        let mut out = Vec::new();
        self.push_each(bytes, |m| out.push(Bytes::copy_from_slice(m)));
        out
    }

    /// Feed bytes; hands each complete message body to `each`, in order.
    /// The buffer is walked once and drained once per call.
    pub fn push_each(&mut self, bytes: &[u8], mut each: impl FnMut(&[u8])) {
        if self.poisoned {
            return;
        }
        self.buf.extend_from_slice(bytes);
        let mut consumed = 0;
        while let Some(&[b0, b1, b2, b3]) = self.buf.get(consumed..consumed + 4) {
            let len = u32::from_be_bytes([b0, b1, b2, b3]) as usize;
            if len > CAP {
                self.poisoned = true;
                self.buf = Vec::new();
                return;
            }
            let Some(body) = self.buf.get(consumed + 4..consumed + 4 + len) else {
                break;
            };
            each(body);
            consumed += 4 + len;
        }
        self.buf.drain(..consumed);
    }

    /// Bytes currently buffered awaiting more data.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True once an over-long prefix was seen; the stream must be closed.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Once poisoned, ask `stack` to close `handle`. The close comes back
    /// as [`SockEvent::StreamClosed`](crate::SockEvent::StreamClosed),
    /// where the owner drops the stream's state (and a client reconnects).
    pub fn close_if_poisoned(&self, ctx: &mut Ctx<'_>, stack: ActorId, handle: StreamHandle) {
        if self.poisoned {
            let close = SockCmd::StreamClose { handle };
            ctx.send_to(stack, &flows::SOCK_CMD, Box::new(close));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_fragmentation() {
        let m1 = lp_encode(b"hello");
        let m2 = lp_encode(b"world!");
        let mut all = Vec::new();
        all.extend_from_slice(&m1);
        all.extend_from_slice(&m2);
        let mut f = LpFramer::new();
        let mut got = Vec::new();
        for chunk in all.chunks(3) {
            got.extend(f.push(chunk));
        }
        assert_eq!(got.len(), 2);
        assert_eq!(&got[0][..], b"hello");
        assert_eq!(&got[1][..], b"world!");
    }

    #[test]
    fn prefix_beyond_the_cap_poisons_and_drops_what_follows() {
        let mut f = LpFramer::new();
        assert!(f.push(&(MAX_LP_LEN as u32).to_be_bytes()).is_empty());
        assert!(!f.is_poisoned(), "a prefix at the cap waits for its body");
        let mut f = LpFramer::new();
        let mut stream = lp_encode(b"before").to_vec();
        stream.extend_from_slice(&(MAX_LP_LEN as u32 + 1).to_be_bytes());
        let got = f.push(&stream);
        assert_eq!(got.len(), 1, "the message ahead of the prefix is delivered");
        assert_eq!(&got[0][..], b"before");
        assert!(f.is_poisoned());
        assert!(f.push(&lp_encode(b"after")).is_empty());
    }

    #[test]
    fn empty_message_ok() {
        let mut f = LpFramer::new();
        let got = f.push(&lp_encode(b""));
        assert_eq!(got.len(), 1);
        assert!(got[0].is_empty());
    }
}
