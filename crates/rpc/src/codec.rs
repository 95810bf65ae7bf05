//! Length-prefixed framing over the byte stream.
//!
//! The stream transport delivers byte chunks with arbitrary segmentation
//! (MTU-sized segments, possibly coalesced); the [`Framer`] reassembles
//! complete `[u32 length][json]` frames with `magma-net`'s
//! [`Reassembler`] and parses each.

use crate::msg::{RpcFrame, RpcKind};
use bytes::Bytes;
use magma_net::Reassembler;
use serde::Serialize;
use serde_json::{Map, Value};
use std::ops::Deref;

/// Largest frame body a peer may announce: 16 MiB, 80× the largest
/// checkpoint any scenario sends. A longer prefix is hostile or corrupt —
/// four bytes must not make the receiver buffer 4 GiB.
pub const MAX_FRAME_LEN: usize = 16 << 20;

const PREFIX_LEN: usize = 4;

/// Lay out one frame, length prefix included, streaming the typed body
/// straight to text. This is the only place frame text is written; it is
/// byte-for-byte what `serde_json::to_vec(&RpcFrame)` renders (object
/// keys in string order: body, id, kind, method), so the wire is the same
/// whichever way a frame was built. [`RpcClient`](crate::RpcClient) and
/// [`RpcServer`](crate::RpcServer) call it with the bodies they are
/// given; it is public for benches and tools that frame without a world.
pub fn encode<B: Serialize + ?Sized>(kind: RpcKind, id: u64, method: &str, body: &B) -> Bytes {
    // The prefix is reserved as four NULs (valid UTF-8) and filled in
    // once the length is known.
    let mut text = String::from("\0\0\0\0{\"body\":");
    body.write_json(&mut text);
    text.push_str(",\"id\":");
    id.write_json(&mut text);
    text.push_str(",\"kind\":");
    kind.write_json(&mut text);
    text.push_str(",\"method\":");
    method.write_json(&mut text);
    text.push('}');
    let mut wire = text.into_bytes();
    debug_assert!(
        wire.len() - PREFIX_LEN <= MAX_FRAME_LEN,
        "peer would refuse this frame"
    );
    let len = (wire.len() - PREFIX_LEN) as u32;
    for (dst, src) in wire.iter_mut().zip(len.to_be_bytes()) {
        *dst = src;
    }
    Bytes::from(wire)
}

/// Encode one frame with its length prefix.
pub fn encode_frame(frame: &RpcFrame) -> Bytes {
    encode(frame.kind, frame.id, &frame.method, &frame.body)
}

/// A spent body tree, for the next frame of `method` to be parsed into.
#[derive(Debug)]
pub struct Spare {
    pub method: &'static str,
    pub body: Value,
}

/// Streaming reassembler for length-prefixed frames. Framing (the
/// [`MAX_FRAME_LEN`] cap, poisoning, [`buffered`](Reassembler::buffered),
/// [`close_if_poisoned`](Reassembler::close_if_poisoned)) is the
/// [`Reassembler`]'s, reached through `Deref`; this adds the parse.
#[derive(Debug, Default)]
pub struct Framer {
    frames: Reassembler<MAX_FRAME_LEN>,
    rejected: u64,
}

impl Deref for Framer {
    type Target = Reassembler<MAX_FRAME_LEN>;

    fn deref(&self) -> &Self::Target {
        &self.frames
    }
}

impl Framer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed received bytes; returns all complete frames now available.
    /// A complete frame that is not a valid `RpcFrame` is skipped and
    /// counted in [`rejected`](Self::rejected). A length prefix beyond
    /// [`MAX_FRAME_LEN`] poisons the framer: framing is lost for good, so
    /// it drops what it holds and ignores further input until the owner
    /// closes the stream.
    pub fn push(&mut self, bytes: &[u8]) -> Vec<RpcFrame> {
        self.push_with(bytes, &mut None, || ())
    }

    /// [`push`](Self::push), holding `scope` around each frame's parse. A
    /// frame ending `,"method":<spare's method>}` (as [`encode`] ends it)
    /// takes the spare and is parsed into its tree: the same frame, reused.
    pub fn push_with<G>(
        &mut self,
        bytes: &[u8],
        spare: &mut Option<Spare>,
        mut scope: impl FnMut() -> G,
    ) -> Vec<RpcFrame> {
        let mut out = Vec::new();
        self.frames.push_each(bytes, |text| {
            let _scope = scope();
            let names = |s: &mut Spare| {
                let t = text
                    .strip_suffix(b"\"}")
                    .and_then(|t| t.strip_suffix(s.method.as_bytes()));
                t.is_some_and(|t| t.ends_with(b",\"method\":\""))
            };
            let mut tree = spare.take_if(names).map_or(Value::Null, |s| {
                Value::Object(Map::from([("body".to_string(), s.body)]))
            });
            match serde_json::from_slice_into(&mut tree, text)
                .and_then(|()| serde_json::from_value::<RpcFrame>(tree))
            {
                Ok(frame) => out.push(frame),
                Err(_) => self.rejected += 1,
            }
        });
        out
    }

    /// Frames refused so far: unparseable bodies plus the over-long
    /// prefix that poisoned the framer, if one did.
    pub fn rejected(&self) -> u64 {
        self.rejected + u64::from(self.frames.is_poisoned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};
    use serde_json::json;

    #[test]
    fn single_frame_roundtrip() {
        let f = RpcFrame::request(7, "svc.Method", json!({"a": true}));
        let enc = encode_frame(&f);
        let mut fr = Framer::new();
        let got = fr.push(&enc);
        assert_eq!(got, vec![f]);
        assert_eq!(fr.buffered(), 0);
    }

    #[test]
    fn fragmented_delivery_reassembles() {
        let f = RpcFrame::request(1, "m", json!({"payload": "x".repeat(100)}));
        let enc = encode_frame(&f);
        let mut fr = Framer::new();
        let mut got = Vec::new();
        for chunk in enc.chunks(7) {
            got.extend(fr.push(chunk));
        }
        assert_eq!(got, vec![f]);
    }

    /// The owner's scope (`rpc.decode`) is held once per completed frame,
    /// not once per pushed segment, refused frames included.
    #[test]
    fn scope_is_entered_once_per_completed_frame() {
        let mut wire = BytesMut::new();
        for f in [
            RpcFrame::request(1, "a", json!({"payload": "x".repeat(50)})),
            RpcFrame::response(1, json!([1, 2, 3])),
        ] {
            wire.extend_from_slice(&encode_frame(&f));
        }
        wire.put_u32(3);
        wire.put_slice(b"???");
        let mut fr = Framer::new();
        let (mut entered, mut got) = (0, 0);
        for chunk in wire.chunks(7) {
            got += fr.push_with(chunk, &mut None, || entered += 1).len();
        }
        assert!(wire.len() / 7 > 3, "more segments than frames");
        assert_eq!((got, fr.rejected(), entered), (2, 1, 3));
    }

    #[test]
    fn coalesced_frames_all_emitted() {
        let f1 = RpcFrame::request(1, "a", json!(1));
        let f2 = RpcFrame::response(1, json!(2));
        let f3 = RpcFrame::push(9, "s", json!(3));
        let mut all = Vec::new();
        all.extend_from_slice(&encode_frame(&f1));
        all.extend_from_slice(&encode_frame(&f2));
        all.extend_from_slice(&encode_frame(&f3));
        let mut fr = Framer::new();
        let got = fr.push(&all);
        assert_eq!(got, vec![f1, f2, f3]);
    }

    #[test]
    fn garbage_json_counted_and_good_frame_after_it_delivered() {
        let mut b = BytesMut::new();
        b.put_u32(3);
        b.put_slice(b"???");
        // Valid JSON that is not a frame is refused the same way.
        b.put_u32(2);
        b.put_slice(b"{}");
        let good = RpcFrame::response(2, json!("ok"));
        b.extend_from_slice(&encode_frame(&good));
        let mut fr = Framer::new();
        let got = fr.push(&b);
        assert_eq!(got, vec![good]);
        assert_eq!(fr.rejected(), 2);
        assert!(!fr.is_poisoned());
        assert_eq!(fr.buffered(), 0);
    }

    #[test]
    fn over_long_prefix_poisons_without_buffering() {
        let good = RpcFrame::response(1, json!("ok"));
        let mut b = BytesMut::new();
        b.extend_from_slice(&encode_frame(&good));
        b.put_u32(MAX_FRAME_LEN as u32 + 1);
        b.put_slice(b"{\"the rest never");
        let mut fr = Framer::new();
        // The frame ahead of the bad prefix is still delivered.
        assert_eq!(fr.push(&b), vec![good.clone()]);
        assert!(fr.is_poisoned());
        assert_eq!(fr.rejected(), 1);
        assert_eq!(fr.buffered(), 0);
        // Nothing is buffered or parsed after that, however well-formed.
        assert!(fr.push(&encode_frame(&good)).is_empty());
        assert_eq!(fr.buffered(), 0);
        assert_eq!(fr.rejected(), 1);
    }

    /// 100 000 `[` fit any frame cap; the parser's depth cap is what
    /// keeps them from recursing the receiver off its stack.
    #[test]
    fn nesting_bomb_is_rejected_like_any_bad_body() {
        let bomb = "[".repeat(100_000);
        let framed = |text: &str| {
            let mut b = BytesMut::new();
            b.put_u32(text.len() as u32);
            b.put_slice(text.as_bytes());
            b
        };
        let mut b = framed(&bomb);
        // The same inside an otherwise well-formed frame.
        b.extend_from_slice(&framed(&format!(
            r#"{{"body":{bomb},"id":1,"kind":"Request","method":"m"}}"#
        )));
        let good = RpcFrame::response(2, json!("ok"));
        b.extend_from_slice(&encode_frame(&good));
        let mut fr = Framer::new();
        let mut got = Vec::new();
        for chunk in b.chunks(1400) {
            got.extend(fr.push(chunk));
        }
        assert_eq!(got, vec![good]);
        assert_eq!(fr.rejected(), 2);
        assert!(!fr.is_poisoned());
    }

    /// A high surrogate escape followed by a non-surrogate one is a bad
    /// body like any other: one rejected frame, the stream stays usable.
    #[test]
    fn bad_surrogate_pair_is_rejected_like_any_bad_body() {
        let text = r#"{"body":"\uD800\u0041","id":1,"kind":"Request","method":"m"}"#;
        let mut b = BytesMut::new();
        b.put_u32(text.len() as u32);
        b.put_slice(text.as_bytes());
        let good = RpcFrame::response(2, json!("ok"));
        b.extend_from_slice(&encode_frame(&good));
        let mut fr = Framer::new();
        assert_eq!(fr.push(&b), vec![good]);
        assert_eq!(fr.rejected(), 1);
        assert!(!fr.is_poisoned());
        assert_eq!(fr.buffered(), 0);
    }

    #[test]
    fn largest_allowed_prefix_is_not_poison() {
        let mut b = BytesMut::new();
        b.put_u32(MAX_FRAME_LEN as u32);
        let mut fr = Framer::new();
        assert!(fr.push(&b).is_empty());
        assert!(!fr.is_poisoned());
        assert_eq!(fr.buffered(), 4);
    }

    /// The encoder, which writes the frame's fields by hand, against the
    /// derived `RpcFrame` writer, one frame of each kind, and against
    /// pinned bytes.
    #[test]
    fn encoder_matches_the_derived_writer_and_the_pinned_wire() {
        let body = json!({"agw_id": "agw-1", "n": [1, 2.0, null], "s": "q\"\\\n\u{1}é"});
        let cases = [
            (
                RpcFrame::request(7, "orc8r.Checkin", body),
                "000000737b22626f6479223a7b226167775f6964223a226167772d31222c226e223a5b312c322e302c\
                 6e756c6c5d2c2273223a22715c225c5c5c6e5c7530303031c3a9227d2c226964223a372c226b696e64\
                 223a2252657175657374222c226d6574686f64223a226f726338722e436865636b696e227d",
            ),
            (
                RpcFrame::response(7, json!({})),
                "000000307b22626f6479223a7b7d2c226964223a372c226b696e64223a22526573706f6e7365222c22\
                 6d6574686f64223a22227d",
            ),
            (
                RpcFrame::error(9, "unregistered gateway"),
                "000000417b22626f6479223a22756e726567697374657265642067617465776179222c226964223a39\
                 2c226b696e64223a224572726f72222c226d6574686f64223a22227d",
            ),
            (
                RpcFrame::push(3, "sync.Subscribers", json!({"version": 3, "subscribers": []})),
                "000000587b22626f6479223a7b227375627363726962657273223a5b5d2c2276657273696f6e223a33\
                 7d2c226964223a332c226b696e64223a2250757368222c226d6574686f64223a2273796e632e537562\
                 7363726962657273227d",
            ),
        ];
        for (frame, pinned_hex) in cases {
            let wire = encode_frame(&frame);
            let derived = serde_json::to_string(&frame).unwrap();
            let (prefix, text) = wire.split_at(PREFIX_LEN);
            assert_eq!(prefix, (derived.len() as u32).to_be_bytes());
            assert_eq!(text, derived.as_bytes());
            let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pinned_hex, "{frame:?}");
        }
    }
}
