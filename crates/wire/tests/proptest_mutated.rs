//! Hostile input that passes the header checks: each case takes a
//! validly encoded frame of one codec, overwrites bytes at a few
//! positions and may drop its tail. Decoding must return `Ok` or `Err`,
//! never panic. Random byte soup (`proptest_roundtrip.rs`) rarely gets
//! past a header; these cases reach the body parsers. A case is a
//! `(frame, edits, cut)` triple of integer ranges and a vec, so a
//! failure shrinks to the fewest, smallest edits.

use bytes::Bytes;
use magma_wire::aka::{Autn, Kasme, Rand, Res};
use magma_wire::diameter::{DiameterPacket, ResultCode, S6aMessage, WireAuthVector};
use magma_wire::gtp::{GtpUPacket, GtpcCause, GtpcMessage, GtpcPacket};
use magma_wire::nas::{EmmCause, NasMessage};
use magma_wire::radius::{attr, Attribute, RadiusCode, RadiusPacket};
use magma_wire::s1ap::{EnbUeId, MmeUeId, S1apMessage};
use magma_wire::{BearerId, Guti, Imsi, Teid, UeIp};
use proptest::prelude::*;

/// `(position, byte)` overwrites; positions wrap at the frame's length.
fn edits() -> impl Strategy<Value = Vec<(usize, u8)>> {
    proptest::collection::vec((0usize..512, 0u8..=255), 1..5)
}

/// Frame `which` of `frames` (wrapping), with `edits` applied and its
/// last `cut` bytes dropped.
fn mutate(frames: &[Bytes], which: usize, edits: &[(usize, u8)], cut: usize) -> Vec<u8> {
    let mut f = frames[which % frames.len()].to_vec();
    for &(at, byte) in edits {
        let len = f.len();
        f[at % len] = byte;
    }
    f.truncate(f.len().saturating_sub(cut));
    f
}

fn imsi() -> Imsi {
    Imsi::new(310, 26, 1_234_567)
}

fn gtpu_frames() -> Vec<Bytes> {
    let packet = |seq, payload: &'static [u8]| GtpUPacket {
        msg_type: 255,
        teid: Teid(0xABCD),
        seq,
        payload: Bytes::from_static(payload),
    };
    vec![
        packet(None, b"user plane payload").encode(),
        packet(Some(7), b"x").encode(),
        packet(Some(1), b"").encode(),
    ]
}

fn gtpc_frames() -> Vec<Bytes> {
    let ok = GtpcCause::Accepted;
    let b = BearerId(5);
    [
        GtpcMessage::EchoRequest,
        GtpcMessage::CreateSessionRequest {
            imsi: imsi(),
            sender_teid: Teid(9),
            bearer: b,
            apn: "magma.ipv4".to_string(),
        },
        GtpcMessage::CreateSessionResponse {
            cause: ok,
            responder_teid: Teid(10),
            ue_ip: UeIp(0x0a00_0001),
            bearer: b,
        },
        GtpcMessage::ModifyBearerRequest { sender_teid: Teid(11), bearer: b },
        GtpcMessage::ModifyBearerResponse { cause: GtpcCause::Other(99), bearer: b },
        GtpcMessage::DeleteSessionRequest { teid: Teid(12), bearer: b },
        GtpcMessage::DeleteSessionResponse { cause: GtpcCause::ContextNotFound },
    ]
    .into_iter()
    .map(|message| GtpcPacket { teid: Teid(1), seq: 42, message }.encode())
    .collect()
}

fn nas_frames() -> Vec<Bytes> {
    let guti = Guti(0x1122_3344_5566);
    let accept = NasMessage::AttachAccept {
        guti,
        ue_ip: UeIp(0x0a00_0002),
        ambr_dl_kbps: 20_000,
        ambr_ul_kbps: 5_000,
    };
    [
        NasMessage::AttachRequest { imsi: imsi(), capabilities: 3 },
        NasMessage::AuthenticationRequest { rand: Rand([1; 16]), autn: Autn([2; 16]) },
        NasMessage::AuthenticationResponse { res: Res([3; 8]) },
        NasMessage::AuthenticationFailure { cause: EmmCause::AuthFailure },
        NasMessage::SecurityModeCommand { algorithm: 2 },
        NasMessage::AttachReject { cause: EmmCause::Other(200) },
        NasMessage::DetachRequest { guti },
        NasMessage::ServiceRequest { guti },
        accept.clone().secure(&Kasme([4; 16])),
        accept,
    ]
    .iter()
    .map(NasMessage::encode)
    .collect()
}

fn s1ap_frames() -> Vec<Bytes> {
    let (enb, mme) = (EnbUeId(3), MmeUeId(4));
    let nas = NasMessage::AttachRequest { imsi: imsi(), capabilities: 1 }.encode();
    [
        S1apMessage::S1SetupRequest { enb_id: 1, name: "enb-1".to_string() },
        S1apMessage::S1SetupResponse { mme_name: "agw".to_string() },
        S1apMessage::InitialUeMessage { enb_ue_id: enb, nas: nas.clone() },
        S1apMessage::UplinkNasTransport { enb_ue_id: enb, mme_ue_id: mme, nas: nas.clone() },
        S1apMessage::InitialContextSetupRequest {
            enb_ue_id: enb,
            mme_ue_id: mme,
            agw_teid: Teid(5),
            nas,
        },
        S1apMessage::InitialContextSetupResponse { enb_ue_id: enb, mme_ue_id: mme, enb_teid: Teid(6) },
        S1apMessage::UeContextReleaseCommand { mme_ue_id: mme, cause: 2 },
        S1apMessage::PathSwitchRequest { mme_ue_id: mme, new_enb_ue_id: enb, new_enb_teid: Teid(7) },
    ]
    .iter()
    .map(S1apMessage::encode)
    .collect()
}

fn radius_frames() -> Vec<Bytes> {
    vec![
        RadiusPacket::new(RadiusCode::AccessRequest, 1)
            .with_attr(Attribute::string(attr::USER_NAME, "hotspot-1"))
            .with_attr(Attribute::string(attr::USER_PASSWORD, "secret"))
            .encode(),
        RadiusPacket::new(RadiusCode::AccessAccept, 2)
            .with_attr(Attribute::u32(attr::FRAMED_IP_ADDRESS, 0x0a00_0003))
            .encode(),
        RadiusPacket::new(RadiusCode::AccountingRequest, 3)
            .with_attr(Attribute::u32(attr::ACCT_INPUT_OCTETS, 1_000))
            .encode(),
    ]
}

fn diameter_frames() -> Vec<Bytes> {
    let (k, opc) = magma_wire::aka::provision(7, 1);
    let v = magma_wire::aka::generate_vector(&k, &opc, 1, Rand([5; 16]));
    let vector = WireAuthVector { rand: v.rand, autn: v.autn, xres: v.xres, kasme: v.kasme };
    [
        S6aMessage::AuthInfoRequest { imsi: imsi(), num_vectors: 2 },
        S6aMessage::AuthInfoAnswer { result: ResultCode::Success, vectors: vec![vector; 2] },
        S6aMessage::UpdateLocationRequest { imsi: imsi(), serving_node: 9 },
        S6aMessage::UpdateLocationAnswer {
            result: ResultCode::Success,
            ambr_dl_kbps: 1,
            ambr_ul_kbps: 2,
        },
        S6aMessage::PurgeRequest { imsi: imsi() },
        S6aMessage::PurgeAnswer { result: ResultCode::UserUnknown },
    ]
    .into_iter()
    .map(|message| DiameterPacket { hop_by_hop: 1, end_to_end: 2, message }.encode())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_gtpu_frames_never_panic(which in 0usize..16, edits in edits(), cut in 0usize..8) {
        let _ = GtpUPacket::decode(&mutate(&gtpu_frames(), which, &edits, cut));
    }

    #[test]
    fn mutated_gtpc_frames_never_panic(which in 0usize..16, edits in edits(), cut in 0usize..8) {
        let _ = GtpcPacket::decode(&mutate(&gtpc_frames(), which, &edits, cut));
    }

    #[test]
    fn mutated_nas_frames_never_panic(which in 0usize..16, edits in edits(), cut in 0usize..8) {
        let _ = NasMessage::decode(&mutate(&nas_frames(), which, &edits, cut));
    }

    #[test]
    fn mutated_s1ap_frames_never_panic(which in 0usize..16, edits in edits(), cut in 0usize..8) {
        let _ = S1apMessage::decode(&mutate(&s1ap_frames(), which, &edits, cut));
    }

    #[test]
    fn mutated_radius_frames_never_panic(which in 0usize..16, edits in edits(), cut in 0usize..8) {
        let _ = RadiusPacket::decode(&mutate(&radius_frames(), which, &edits, cut));
    }

    #[test]
    fn mutated_diameter_frames_never_panic(which in 0usize..16, edits in edits(), cut in 0usize..8) {
        let _ = DiameterPacket::decode(&mutate(&diameter_frames(), which, &edits, cut));
    }
}
