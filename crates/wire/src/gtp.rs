//! GTP (GPRS Tunneling Protocol) codecs.
//!
//! - **GTP-U (v1)**: the user-plane encapsulation. Real wire format per TS
//!   29.281: version/flags byte, message type, length, TEID, optional
//!   sequence number. The Magma data plane encapsulates/decapsulates these
//!   at the AGW; the traditional-EPC baseline carries them across the
//!   backhaul (where the paper observes they behave badly).
//! - **GTP-C (v2)**: the control protocol used between SGW/PGW in the
//!   baseline and by the federation GTP aggregator. Subset of TS 29.274
//!   messages with TLV information elements.

use crate::error::{need, WireError};
use crate::ids::{BearerId, Imsi, Teid, UeIp};
use bytes::{BufMut, Bytes, BytesMut};

/// GTP-U message types (TS 29.281 §6).
pub mod gtpu_type {
    pub const ECHO_REQUEST: u8 = 1;
    pub const ECHO_RESPONSE: u8 = 2;
    pub const ERROR_INDICATION: u8 = 26;
    pub const END_MARKER: u8 = 254;
    pub const G_PDU: u8 = 255;
}

/// A GTP-U packet: header plus (for G-PDU) the tunneled user payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GtpUPacket {
    pub msg_type: u8,
    pub teid: Teid,
    /// Optional sequence number (S flag).
    pub seq: Option<u16>,
    pub payload: Bytes,
}

impl GtpUPacket {
    /// Encapsulate a user packet into a G-PDU.
    pub fn gpdu(teid: Teid, payload: Bytes) -> Self {
        GtpUPacket {
            msg_type: gtpu_type::G_PDU,
            teid,
            seq: None,
            payload,
        }
    }

    pub fn echo_request(seq: u16) -> Self {
        GtpUPacket {
            msg_type: gtpu_type::ECHO_REQUEST,
            teid: Teid(0),
            seq: Some(seq),
            payload: Bytes::new(),
        }
    }

    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(12 + self.payload.len());
        // Version 1, PT=1 (GTP), S flag if seq present.
        let mut flags: u8 = 0b0011_0000;
        if self.seq.is_some() {
            flags |= 0b0000_0010;
        }
        b.put_u8(flags);
        b.put_u8(self.msg_type);
        let opt_len = if self.seq.is_some() { 4 } else { 0 };
        b.put_u16((self.payload.len() + opt_len) as u16);
        b.put_u32(self.teid.0);
        if let Some(seq) = self.seq {
            b.put_u16(seq);
            b.put_u8(0); // N-PDU number
            b.put_u8(0); // next extension header type
        }
        b.put_slice(&self.payload);
        b.freeze()
    }

    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        need(buf, 8)?;
        let flags = buf[0];
        if flags >> 5 != 1 {
            return Err(WireError::BadValue {
                field: "gtpu.version",
                value: (flags >> 5) as u64,
            });
        }
        let msg_type = buf[1];
        let length = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        let teid = Teid(u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]));
        need(buf, 8 + length)?;
        let has_opt = flags & 0b0000_0111 != 0;
        let (seq, payload_start) = if has_opt {
            need(buf, 12)?;
            if length < 4 {
                return Err(WireError::BadLength {
                    declared: length,
                    actual: 4,
                });
            }
            let seq = if flags & 0b0000_0010 != 0 {
                Some(u16::from_be_bytes([buf[8], buf[9]]))
            } else {
                None
            };
            (seq, 12)
        } else {
            (None, 8)
        };
        let payload = Bytes::copy_from_slice(&buf[payload_start..8 + length]);
        Ok(GtpUPacket {
            msg_type,
            teid,
            seq,
            payload,
        })
    }

    /// Total encoded size (for link accounting without encoding).
    pub fn wire_size(&self) -> usize {
        8 + if self.seq.is_some() { 4 } else { 0 } + self.payload.len()
    }
}

/// GTP-C v2 message types (TS 29.274 §6.1).
pub mod gtpc_type {
    pub const ECHO_REQUEST: u8 = 1;
    pub const ECHO_RESPONSE: u8 = 2;
    pub const CREATE_SESSION_REQUEST: u8 = 32;
    pub const CREATE_SESSION_RESPONSE: u8 = 33;
    pub const MODIFY_BEARER_REQUEST: u8 = 34;
    pub const MODIFY_BEARER_RESPONSE: u8 = 35;
    pub const DELETE_SESSION_REQUEST: u8 = 36;
    pub const DELETE_SESSION_RESPONSE: u8 = 37;
}

/// GTP-C cause values (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GtpcCause {
    Accepted,
    ContextNotFound,
    NoResourcesAvailable,
    Other(u8),
}

impl GtpcCause {
    fn to_u8(self) -> u8 {
        match self {
            GtpcCause::Accepted => 16,
            GtpcCause::ContextNotFound => 64,
            GtpcCause::NoResourcesAvailable => 73,
            GtpcCause::Other(v) => v,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            16 => GtpcCause::Accepted,
            64 => GtpcCause::ContextNotFound,
            73 => GtpcCause::NoResourcesAvailable,
            other => GtpcCause::Other(other),
        }
    }
}

/// Structured GTP-C messages (subset sufficient for session management
/// between a serving node and a PGW).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GtpcMessage {
    EchoRequest,
    EchoResponse,
    CreateSessionRequest {
        imsi: Imsi,
        /// TEID the sender wants downlink traffic addressed to.
        sender_teid: Teid,
        bearer: BearerId,
        apn: String,
    },
    CreateSessionResponse {
        cause: GtpcCause,
        /// TEID the responder wants uplink traffic addressed to.
        responder_teid: Teid,
        ue_ip: UeIp,
        bearer: BearerId,
    },
    ModifyBearerRequest {
        sender_teid: Teid,
        bearer: BearerId,
    },
    ModifyBearerResponse {
        cause: GtpcCause,
        bearer: BearerId,
    },
    DeleteSessionRequest {
        teid: Teid,
        bearer: BearerId,
    },
    DeleteSessionResponse {
        cause: GtpcCause,
    },
}

// IE type codes (TS 29.274 §8.1).
const IE_IMSI: u8 = 1;
const IE_CAUSE: u8 = 2;
const IE_APN: u8 = 71;
const IE_PAA: u8 = 79;
const IE_BEARER_ID: u8 = 73;
const IE_FTEID: u8 = 87;

fn put_ie(b: &mut BytesMut, ie_type: u8, value: &[u8]) {
    b.put_u8(ie_type);
    b.put_u16(value.len() as u16);
    b.put_u8(0); // spare / instance
    b.put_slice(value);
}

struct IeIter<'a> {
    buf: &'a [u8],
}

impl<'a> Iterator for IeIter<'a> {
    type Item = Result<(u8, &'a [u8]), WireError>;
    fn next(&mut self) -> Option<Self::Item> {
        if self.buf.is_empty() {
            return None;
        }
        if self.buf.len() < 4 {
            return Some(Err(WireError::Truncated {
                need: 4,
                have: self.buf.len(),
            }));
        }
        let t = self.buf[0];
        let len = u16::from_be_bytes([self.buf[1], self.buf[2]]) as usize;
        if self.buf.len() < 4 + len {
            return Some(Err(WireError::Truncated {
                need: 4 + len,
                have: self.buf.len(),
            }));
        }
        let value = &self.buf[4..4 + len];
        self.buf = &self.buf[4 + len..];
        Some(Ok((t, value)))
    }
}

/// A GTP-C packet: sequence-numbered header plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GtpcPacket {
    /// TEID of the receiving tunnel endpoint (0 for initial messages).
    pub teid: Teid,
    pub seq: u32,
    pub message: GtpcMessage,
}

impl GtpcPacket {
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::new();
        let msg_type = match &self.message {
            GtpcMessage::EchoRequest => gtpc_type::ECHO_REQUEST,
            GtpcMessage::EchoResponse => gtpc_type::ECHO_RESPONSE,
            GtpcMessage::CreateSessionRequest {
                imsi,
                sender_teid,
                bearer,
                apn,
            } => {
                put_ie(&mut body, IE_IMSI, &imsi.0.to_be_bytes());
                put_ie(&mut body, IE_FTEID, &sender_teid.0.to_be_bytes());
                put_ie(&mut body, IE_BEARER_ID, &[bearer.0]);
                put_ie(&mut body, IE_APN, apn.as_bytes());
                gtpc_type::CREATE_SESSION_REQUEST
            }
            GtpcMessage::CreateSessionResponse {
                cause,
                responder_teid,
                ue_ip,
                bearer,
            } => {
                put_ie(&mut body, IE_CAUSE, &[cause.to_u8()]);
                put_ie(&mut body, IE_FTEID, &responder_teid.0.to_be_bytes());
                put_ie(&mut body, IE_PAA, &ue_ip.0.to_be_bytes());
                put_ie(&mut body, IE_BEARER_ID, &[bearer.0]);
                gtpc_type::CREATE_SESSION_RESPONSE
            }
            GtpcMessage::ModifyBearerRequest {
                sender_teid,
                bearer,
            } => {
                put_ie(&mut body, IE_FTEID, &sender_teid.0.to_be_bytes());
                put_ie(&mut body, IE_BEARER_ID, &[bearer.0]);
                gtpc_type::MODIFY_BEARER_REQUEST
            }
            GtpcMessage::ModifyBearerResponse { cause, bearer } => {
                put_ie(&mut body, IE_CAUSE, &[cause.to_u8()]);
                put_ie(&mut body, IE_BEARER_ID, &[bearer.0]);
                gtpc_type::MODIFY_BEARER_RESPONSE
            }
            GtpcMessage::DeleteSessionRequest { teid, bearer } => {
                put_ie(&mut body, IE_FTEID, &teid.0.to_be_bytes());
                put_ie(&mut body, IE_BEARER_ID, &[bearer.0]);
                gtpc_type::DELETE_SESSION_REQUEST
            }
            GtpcMessage::DeleteSessionResponse { cause } => {
                put_ie(&mut body, IE_CAUSE, &[cause.to_u8()]);
                gtpc_type::DELETE_SESSION_RESPONSE
            }
        };
        let mut b = BytesMut::with_capacity(12 + body.len());
        b.put_u8(0b0100_1000); // version 2, T flag (TEID present)
        b.put_u8(msg_type);
        b.put_u16((body.len() + 8) as u16); // TEID(4) + seq(3) + spare(1)
        b.put_u32(self.teid.0);
        b.put_slice(&self.seq.to_be_bytes()[1..]); // 3-byte seq
        b.put_u8(0); // spare
        b.put_slice(&body);
        b.freeze()
    }

    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        need(buf, 12)?;
        if buf[0] >> 5 != 2 {
            return Err(WireError::BadValue {
                field: "gtpc.version",
                value: (buf[0] >> 5) as u64,
            });
        }
        let msg_type = buf[1];
        let length = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        // The length counts the TEID, sequence and spare bytes too.
        if length < 8 {
            return Err(WireError::BadValue {
                field: "gtpc.length",
                value: length as u64,
            });
        }
        need(buf, 4 + length)?;
        let teid = Teid(u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]));
        let seq = u32::from_be_bytes([0, buf[8], buf[9], buf[10]]);
        let ies = &buf[12..4 + length];

        let mut imsi = None;
        let mut cause = None;
        let mut fteid = None;
        let mut paa = None;
        let mut bearer = None;
        let mut apn = None;
        for ie in (IeIter { buf: ies }) {
            let (t, v) = ie?;
            match t {
                IE_IMSI if v.len() == 8 => {
                    imsi = Some(Imsi(u64::from_be_bytes(v.try_into().unwrap())))
                }
                IE_CAUSE if v.len() == 1 => cause = Some(GtpcCause::from_u8(v[0])),
                IE_FTEID if v.len() == 4 => {
                    fteid = Some(Teid(u32::from_be_bytes(v.try_into().unwrap())))
                }
                IE_PAA if v.len() == 4 => {
                    paa = Some(UeIp(u32::from_be_bytes(v.try_into().unwrap())))
                }
                IE_BEARER_ID if v.len() == 1 => bearer = Some(BearerId(v[0])),
                IE_APN => apn = Some(String::from_utf8_lossy(v).into_owned()),
                _ => {} // unknown IEs are skipped, per 3GPP comprehension rules
            }
        }

        let missing = || WireError::BadValue {
            field: "gtpc.missing_ie",
            value: msg_type as u64,
        };
        let message = match msg_type {
            gtpc_type::ECHO_REQUEST => GtpcMessage::EchoRequest,
            gtpc_type::ECHO_RESPONSE => GtpcMessage::EchoResponse,
            gtpc_type::CREATE_SESSION_REQUEST => GtpcMessage::CreateSessionRequest {
                imsi: imsi.ok_or_else(missing)?,
                sender_teid: fteid.ok_or_else(missing)?,
                bearer: bearer.ok_or_else(missing)?,
                apn: apn.ok_or_else(missing)?,
            },
            gtpc_type::CREATE_SESSION_RESPONSE => GtpcMessage::CreateSessionResponse {
                cause: cause.ok_or_else(missing)?,
                responder_teid: fteid.ok_or_else(missing)?,
                ue_ip: paa.ok_or_else(missing)?,
                bearer: bearer.ok_or_else(missing)?,
            },
            gtpc_type::MODIFY_BEARER_REQUEST => GtpcMessage::ModifyBearerRequest {
                sender_teid: fteid.ok_or_else(missing)?,
                bearer: bearer.ok_or_else(missing)?,
            },
            gtpc_type::MODIFY_BEARER_RESPONSE => GtpcMessage::ModifyBearerResponse {
                cause: cause.ok_or_else(missing)?,
                bearer: bearer.ok_or_else(missing)?,
            },
            gtpc_type::DELETE_SESSION_REQUEST => GtpcMessage::DeleteSessionRequest {
                teid: fteid.ok_or_else(missing)?,
                bearer: bearer.ok_or_else(missing)?,
            },
            gtpc_type::DELETE_SESSION_RESPONSE => GtpcMessage::DeleteSessionResponse {
                cause: cause.ok_or_else(missing)?,
            },
            other => return Err(WireError::UnknownType(other as u16)),
        };
        Ok(GtpcPacket { teid, seq, message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpdu_roundtrip() {
        let p = GtpUPacket::gpdu(Teid(0xDEADBEEF), Bytes::from_static(b"user payload"));
        let enc = p.encode();
        assert_eq!(enc.len(), p.wire_size());
        let dec = GtpUPacket::decode(&enc).unwrap();
        assert_eq!(dec, p);
    }

    #[test]
    fn gtpu_with_seq_roundtrip() {
        let p = GtpUPacket::echo_request(77);
        let dec = GtpUPacket::decode(&p.encode()).unwrap();
        assert_eq!(dec.seq, Some(77));
        assert_eq!(dec.msg_type, gtpu_type::ECHO_REQUEST);
    }

    /// Shrunk case of `mutated_gtpc_frames_never_panic`: a Delete
    /// Session Response whose length field's low byte is zeroed claims
    /// a body shorter than the 8 header bytes it must count.
    #[test]
    fn gtpc_length_shorter_than_its_header_is_an_error() {
        let p = GtpcPacket {
            teid: Teid(1),
            seq: 42,
            message: GtpcMessage::DeleteSessionResponse {
                cause: GtpcCause::ContextNotFound,
            },
        };
        let mut frame = p.encode().to_vec();
        frame[3] = 0;
        assert!(matches!(
            GtpcPacket::decode(&frame),
            Err(WireError::BadValue { field: "gtpc.length", value: 0 })
        ));
    }

    #[test]
    fn gtpu_rejects_wrong_version() {
        let p = GtpUPacket::gpdu(Teid(1), Bytes::new());
        let mut enc = p.encode().to_vec();
        enc[0] = 0x48; // version 2
        assert!(matches!(
            GtpUPacket::decode(&enc),
            Err(WireError::BadValue { .. })
        ));
    }

    #[test]
    fn gtpu_rejects_truncation() {
        let p = GtpUPacket::gpdu(Teid(1), Bytes::from_static(b"abcdef"));
        let enc = p.encode();
        for cut in 0..enc.len() {
            assert!(GtpUPacket::decode(&enc[..cut]).is_err(), "cut={cut}");
        }
    }

    fn roundtrip(msg: GtpcMessage) {
        let p = GtpcPacket {
            teid: Teid(42),
            seq: 0x00ABCDEF,
            message: msg,
        };
        let dec = GtpcPacket::decode(&p.encode()).unwrap();
        assert_eq!(dec, p);
    }

    #[test]
    fn gtpc_all_messages_roundtrip() {
        roundtrip(GtpcMessage::EchoRequest);
        roundtrip(GtpcMessage::EchoResponse);
        roundtrip(GtpcMessage::CreateSessionRequest {
            imsi: Imsi::new(310, 26, 12345),
            sender_teid: Teid(100),
            bearer: BearerId::DEFAULT,
            apn: "magma.ipv4".to_string(),
        });
        roundtrip(GtpcMessage::CreateSessionResponse {
            cause: GtpcCause::Accepted,
            responder_teid: Teid(200),
            ue_ip: UeIp(0x0A000001),
            bearer: BearerId::DEFAULT,
        });
        roundtrip(GtpcMessage::ModifyBearerRequest {
            sender_teid: Teid(1),
            bearer: BearerId(6),
        });
        roundtrip(GtpcMessage::ModifyBearerResponse {
            cause: GtpcCause::ContextNotFound,
            bearer: BearerId(6),
        });
        roundtrip(GtpcMessage::DeleteSessionRequest {
            teid: Teid(9),
            bearer: BearerId::DEFAULT,
        });
        roundtrip(GtpcMessage::DeleteSessionResponse {
            cause: GtpcCause::NoResourcesAvailable,
        });
    }

    #[test]
    fn gtpc_missing_ie_rejected() {
        // Hand-craft a CreateSessionRequest with no IEs.
        let mut b = BytesMut::new();
        b.put_u8(0b0100_1000);
        b.put_u8(gtpc_type::CREATE_SESSION_REQUEST);
        b.put_u16(8);
        b.put_u32(0);
        b.put_slice(&[0, 0, 1, 0]);
        assert!(matches!(
            GtpcPacket::decode(&b),
            Err(WireError::BadValue { .. })
        ));
    }

    #[test]
    fn gtpc_unknown_type_rejected() {
        let mut b = BytesMut::new();
        b.put_u8(0b0100_1000);
        b.put_u8(200);
        b.put_u16(8);
        b.put_u32(0);
        b.put_slice(&[0, 0, 1, 0]);
        assert_eq!(GtpcPacket::decode(&b), Err(WireError::UnknownType(200)));
    }
}
