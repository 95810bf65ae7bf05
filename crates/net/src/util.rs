//! Length-prefix framing for raw byte protocols carried over the stream
//! transport (e.g., S1AP messages, which ride SCTP in 3GPP).

use bytes::{BufMut, Bytes, BytesMut};

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

/// Reassembler for length-prefixed messages over arbitrary segmentation.
#[derive(Debug, Default)]
pub struct LpFramer {
    buf: BytesMut,
    poisoned: bool,
}

impl LpFramer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed bytes; returns complete messages. A length prefix beyond
    /// [`MAX_LP_LEN`] poisons the framer: framing is lost for good, so it
    /// drops what it holds and ignores further input until the owner
    /// closes the stream.
    pub fn push(&mut self, bytes: &[u8]) -> Vec<Bytes> {
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
            if len > MAX_LP_LEN {
                self.poisoned = true;
                self.buf = BytesMut::new();
                break;
            }
            if self.buf.len() < 4 + len {
                break;
            }
            let _ = self.buf.split_to(4);
            out.push(self.buf.split_to(len).freeze());
        }
        out
    }

    /// True once an over-long prefix was seen; the stream must be closed.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
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
