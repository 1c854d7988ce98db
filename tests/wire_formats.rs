//! Property tests on every wire format: roundtrips for arbitrary values,
//! and corruption rejection — §5's fault model assumes corrupt packets
//! are detected and dropped, so the codecs must never panic or
//! mis-decode garbage into something "valid but wrong" silently.

use proptest::prelude::*;

use stripe::core::control::Control;
use stripe::core::marker::{Marker, MARKER_WIRE_LEN};
use stripe::core::sched::{CausalScheduler, ChannelMark, Srr};
use stripe::ip::frag::{fragment, Fragment, Reassembler, ReassemblyEvent};
use stripe::ip::header::{checksum, Ipv4Header, IPV4_HEADER_LEN};
use stripe::link::eth::{EtherFrame, EtherType};
use stripe::link::serial::{hdlc_stuff, hdlc_unstuff};
use stripe::link::{datagram_pair, DatagramLink, Train, TxError};
use stripe::net::bundle;
use stripe::net::frame::{
    self, Body, DecodeError, Frame, FRAME_MAGIC, FRAME_VERSION, KIND_CONTROL, KIND_DATA,
    KIND_DATA_SUMMED,
};
use stripe::net::{FlowDemux, FlowDemuxSnapshot};
use stripe::netsim::{DetRng, SimTime};

fn arb_marker() -> impl Strategy<Value = Marker> {
    (
        0usize..16,
        any::<u64>(),
        any::<i64>(),
        prop::option::of(0u32..u32::MAX),
    )
        .prop_map(|(channel, round, dc, credit)| Marker {
            channel,
            mark: ChannelMark { round, dc },
            credit,
        })
}

fn arb_control() -> impl Strategy<Value = Control> {
    prop_oneof![
        arb_marker().prop_map(Control::Marker),
        any::<u32>().prop_map(|epoch| Control::ResetRequest { epoch }),
        any::<u32>().prop_map(|epoch| Control::ResetAck { epoch }),
        any::<u64>().prop_map(|nonce| Control::Probe { nonce }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(nonce, incarnation)| Control::ProbeAck { nonce, incarnation }),
        any::<u64>().prop_map(|incarnation| Control::DesyncAlert { incarnation }),
        (any::<u32>(), 1u16..=u16::MAX, any::<u64>()).prop_map(
            |(epoch, live_mask, effective_round)| Control::Membership {
                epoch,
                live_mask,
                effective_round,
            }
        ),
        any::<u32>().prop_map(|epoch| Control::MembershipAck { epoch }),
        (
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec(1i64..1 << 40, 1..16)
        )
            .prop_map(
                |(epoch, effective_round, quanta)| Control::QuantumAnnounce {
                    epoch,
                    effective_round,
                    quanta,
                }
            ),
        any::<u32>().prop_map(|epoch| Control::QuantumAck { epoch }),
    ]
}

/// One representative of every `Control` variant. The match in
/// `variant_index` has no wildcard arm, so adding a variant to the enum
/// breaks this test at compile time until the new variant is covered
/// here and in `arb_control`.
fn every_control_variant() -> Vec<Control> {
    vec![
        Control::Marker(Marker {
            channel: 3,
            mark: ChannelMark { round: 77, dc: -12 },
            credit: Some(9000),
        }),
        Control::ResetRequest { epoch: 1 },
        Control::ResetAck { epoch: u32::MAX },
        Control::Probe { nonce: 0xDEAD_BEEF },
        Control::ProbeAck {
            nonce: u64::MAX,
            incarnation: 0xFEED_FACE,
        },
        Control::DesyncAlert {
            incarnation: 0xFEED_FACE,
        },
        Control::Membership {
            epoch: 7,
            live_mask: 0b1011,
            effective_round: 12,
        },
        Control::MembershipAck { epoch: 7 },
        Control::QuantumAnnounce {
            epoch: 11,
            effective_round: 52,
            quanta: vec![6000, 3000, 1500],
        },
        Control::QuantumAck { epoch: 11 },
    ]
}

fn variant_index(c: &Control) -> usize {
    match c {
        Control::Marker(_) => 0,
        Control::ResetRequest { .. } => 1,
        Control::ResetAck { .. } => 2,
        Control::Probe { .. } => 3,
        Control::ProbeAck { .. } => 4,
        Control::Membership { .. } => 5,
        Control::MembershipAck { .. } => 6,
        Control::QuantumAnnounce { .. } => 7,
        Control::QuantumAck { .. } => 8,
        Control::DesyncAlert { .. } => 9,
    }
}

/// `Control::wire_len` must equal the encoded length for EVERY variant —
/// the deficit counters, queue models, and the net path's frame sizing
/// all charge `wire_len` bytes without materializing the message, so a
/// single stale arm would silently desynchronize the two ends.
#[test]
fn control_wire_len_matches_encoding_for_every_variant() {
    let samples = every_control_variant();
    let mut seen = [false; 10];
    for c in &samples {
        seen[variant_index(c)] = true;
        let enc = c.encode();
        assert_eq!(
            c.wire_len(),
            enc.len(),
            "wire_len out of step with encode() for {c:?}"
        );
        assert_eq!(Control::decode(&enc).as_ref(), Some(c));
    }
    assert!(seen.iter().all(|&s| s), "a Control variant lacks a sample");
}

/// Control type byte 4 carried an epoch-less, unacknowledged quantum
/// update that went straight to the scheduler: one well-formed frame
/// naming fewer quanta than channels tripped the scheduler's length
/// assert inside `sweep`. The type is retired and stays reserved, so
/// the same bytes are now counted malformed and change nothing.
#[test]
fn retired_quantum_update_frame_is_dropped_not_applied() {
    let mut body = vec![4u8];
    body.extend_from_slice(&7u64.to_be_bytes()); // effective round
    body.push(1); // one quantum, for a two-channel receiver
    body.extend_from_slice(&9000i64.to_be_bytes());
    assert_eq!(body.len(), 18);
    assert_eq!(Control::decode(&body), None);
    let mut wire = vec![FRAME_MAGIC, FRAME_VERSION, KIND_CONTROL];
    wire.extend_from_slice(&body);

    let (mut a0, b0) = datagram_pair(2048, 64);
    let (_a1, b1) = datagram_pair(2048, 64);
    let mut demux = FlowDemux::builder()
        .scheduler(Srr::equal(2, 1500))
        .links(vec![b0, b1])
        .build();
    assert!(demux.touch_flow(0));
    a0.send_frame(&wire).unwrap();
    assert_eq!(demux.sweep(SimTime::ZERO), 1);

    let stats = demux.net_stats();
    assert_eq!((stats.dropped_malformed, stats.control_frames), (1, 0));
    let sched = demux.flow_receiver(0).unwrap().scheduler();
    assert_eq!((sched.quantum(0), sched.quantum(1)), (1500, 1500));
}

fn arb_header() -> impl Strategy<Value = Ipv4Header> {
    (
        20u16..=u16::MAX,
        any::<u16>(),
        any::<u8>(),
        any::<u8>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(total_len, ident, ttl, protocol, src, dst)| Ipv4Header {
            total_len,
            ident,
            ttl,
            protocol,
            src: src.into(),
            dst: dst.into(),
        })
}

proptest! {
    #[test]
    fn marker_roundtrips(m in arb_marker()) {
        prop_assert_eq!(Marker::decode(&m.encode()), Some(m));
    }

    /// Single-bit corruption of a marker is either detected (None) or at
    /// minimum never panics; flips in the magic are always detected.
    #[test]
    fn marker_bit_flips_never_panic(m in arb_marker(), byte in 0usize..MARKER_WIRE_LEN, bit in 0u8..8) {
        let mut enc = m.encode();
        enc[byte] ^= 1 << bit;
        let _ = Marker::decode(&enc); // must not panic
        if byte < 2 {
            prop_assert_eq!(Marker::decode(&enc), None, "magic flip undetected");
        }
    }

    #[test]
    fn control_roundtrips(c in arb_control()) {
        let enc = c.encode();
        prop_assert_eq!(c.wire_len(), enc.len(), "wire_len must match encoding");
        prop_assert_eq!(Control::decode(&enc), Some(c));
    }

    /// Arbitrary byte soup never panics the control decoder.
    #[test]
    fn control_decode_handles_garbage(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Control::decode(&bytes);
    }

    /// Any truncation of a valid control message is rejected, not
    /// mis-decoded (prefix-freedom of the format).
    #[test]
    fn control_truncations_rejected(c in arb_control(), keep in 0usize..100) {
        let enc = c.encode();
        if keep < enc.len() {
            prop_assert_eq!(Control::decode(&enc[..keep]), None);
        }
    }

    #[test]
    fn ipv4_header_roundtrips(h in arb_header()) {
        prop_assert_eq!(Ipv4Header::decode(&h.encode()), Some(h));
    }

    /// Every single-bit flip anywhere in an IPv4 header is caught by the
    /// Internet checksum.
    #[test]
    fn ipv4_checksum_catches_any_single_bit(h in arb_header(), byte in 0usize..IPV4_HEADER_LEN, bit in 0u8..8) {
        let mut enc = h.encode().to_vec();
        enc[byte] ^= 1 << bit;
        prop_assert_eq!(Ipv4Header::decode(&enc), None);
    }

    /// RFC 1071: a buffer with a correct embedded checksum sums to zero.
    #[test]
    fn checksum_self_verifies(h in arb_header()) {
        prop_assert_eq!(checksum(&h.encode()), 0);
    }

    #[test]
    fn hdlc_roundtrips(payload in prop::collection::vec(any::<u8>(), 0..600)) {
        prop_assert_eq!(hdlc_unstuff(&hdlc_stuff(&payload)), Some(payload));
    }

    /// Stuffed output never contains a bare flag byte in its interior.
    #[test]
    fn hdlc_interior_is_flag_free(payload in prop::collection::vec(any::<u8>(), 0..600)) {
        let wire = hdlc_stuff(&payload);
        for &b in &wire[1..wire.len() - 1] {
            prop_assert_ne!(b, stripe::link::serial::FLAG);
        }
    }

    #[test]
    fn hdlc_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = hdlc_unstuff(&bytes);
    }

    #[test]
    fn ether_frame_roundtrips(
        dst in any::<[u8; 6]>(),
        src in any::<[u8; 6]>(),
        ty in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..1500),
    ) {
        let f = EtherFrame {
            dst,
            src,
            ethertype: EtherType::from_u16(ty),
            payload: bytes::Bytes::from(payload),
        };
        prop_assert_eq!(EtherFrame::decode(f.encode()), Some(f));
    }

    /// Fragmentation/reassembly is the identity for any payload and MTU,
    /// under any arrival permutation.
    #[test]
    fn fragment_reassembly_identity(
        payload in prop::collection::vec(any::<u8>(), 1..6000),
        mtu in 64usize..1501,
        shuffle_seed in any::<u64>(),
    ) {
        let frags = fragment(77, &payload, mtu);
        for f in &frags {
            prop_assert!(f.wire_len() <= mtu);
        }
        // Deterministic shuffle.
        let mut order: Vec<usize> = (0..frags.len()).collect();
        let mut s = shuffle_seed | 1;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut r = Reassembler::new(8);
        let mut got = None;
        for &i in &order {
            if let ReassemblyEvent::Complete(full) = r.push(frags[i].clone()) {
                got = Some(full);
            }
        }
        prop_assert_eq!(got.as_deref(), Some(&payload[..]));
    }

    /// Losing any one fragment of a multi-fragment packet prevents
    /// completion (no silent partial delivery).
    #[test]
    fn fragment_loss_blocks_completion(
        payload in prop::collection::vec(any::<u8>(), 3000..9000),
        drop_choice in any::<u64>(),
    ) {
        let frags = fragment(5, &payload, 1500);
        prop_assume!(frags.len() >= 2);
        let drop = (drop_choice % frags.len() as u64) as usize;
        let mut r = Reassembler::new(8);
        for (i, f) in frags.iter().enumerate() {
            if i == drop {
                continue;
            }
            prop_assert!(!matches!(r.push(f.clone()), ReassemblyEvent::Complete(_)));
        }
    }
}

/// Non-proptest sanity: a fragment stream's offsets cover the payload
/// exactly once (no gaps, no overlap) for a grid of sizes.
#[test]
fn fragment_coverage_grid() {
    for len in [1usize, 7, 8, 1479, 1480, 1481, 4096, 8192] {
        for mtu in [68usize, 576, 1500] {
            let payload = vec![0xAB; len];
            let frags = fragment(1, &payload, mtu);
            let mut covered = 0usize;
            for f in &frags {
                assert_eq!(f.offset(), covered, "gap at len={len} mtu={mtu}");
                covered += f.payload.len();
            }
            assert_eq!(covered, len);
            assert!(!frags.last().unwrap().more);
        }
    }
}

/// Forged fragments with absurd offsets must not corrupt an in-progress
/// reassembly (overlap rejection).
#[test]
fn forged_overlapping_fragment_rejected() {
    let payload: Vec<u8> = (0..4000).map(|i| i as u8).collect();
    let frags = fragment(9, &payload, 1500);
    let mut r = Reassembler::new(8);
    r.push(frags[0].clone());
    // A forged fragment overlapping the first.
    let forged = Fragment {
        ident: 9,
        offset_units: 10, // 80 bytes in: inside fragment 0
        more: true,
        payload: bytes::Bytes::from_static(&[0xFF; 100]),
    };
    assert_eq!(r.push(forged), ReassemblyEvent::Discarded);
    // Legitimate completion still works.
    let mut done = false;
    for f in frags.into_iter().skip(1) {
        if let ReassemblyEvent::Complete(full) = r.push(f) {
            assert_eq!(&full[..], &payload[..]);
            done = true;
        }
    }
    assert!(done);
}

/// The frame decoder as it stood before `frame::parse`: one pass that
/// built a `Frame` for every datagram of versions 1 and 2. Kept verbatim
/// as the reference the layered decoders are compared against — value,
/// flow, and `Malformed` versus `Corrupt`.
mod reference {
    use super::frame::{
        crc8, DecodeError, Frame, FRAME_HEADER_LEN, FRAME_MAGIC, FRAME_VERSION, FRAME_VERSION_FLOW,
        KIND_CONTROL, KIND_CONTROL_PADDED, KIND_DATA, KIND_DATA_SUMMED, MAX_FLOW_ID_LEN,
        PAD_LEN_PREFIX,
    };
    use stripe::core::control::Control;

    pub fn take_flow_id(body: &[u8]) -> Option<(u32, usize)> {
        let mut flow: u32 = 0;
        for (i, &b) in body.iter().enumerate().take(MAX_FLOW_ID_LEN) {
            let payload = (b & 0x7F) as u32;
            if i == MAX_FLOW_ID_LEN - 1 && b & 0xF0 != 0 {
                return None;
            }
            flow |= payload << (7 * i);
            if b & 0x80 == 0 {
                return Some((flow, i + 1));
            }
        }
        None
    }

    fn decode_body(kind: u8, body: &[u8]) -> Result<Frame<'_>, DecodeError> {
        match kind {
            KIND_DATA => Ok(Frame::Data(body)),
            KIND_DATA_SUMMED => {
                let (&trailer, payload) = body.split_last().ok_or(DecodeError::Malformed)?;
                if crc8(payload) != trailer {
                    return Err(DecodeError::Corrupt);
                }
                Ok(Frame::Data(payload))
            }
            KIND_CONTROL => Control::decode(body)
                .map(Frame::Control)
                .ok_or(DecodeError::Malformed),
            KIND_CONTROL_PADDED => {
                let lo = *body.first().ok_or(DecodeError::Malformed)?;
                let hi = *body.get(1).ok_or(DecodeError::Malformed)?;
                let n = u16::from_le_bytes([lo, hi]) as usize;
                let ctl = body
                    .get(PAD_LEN_PREFIX..PAD_LEN_PREFIX + n)
                    .ok_or(DecodeError::Malformed)?;
                Control::decode(ctl)
                    .map(Frame::Control)
                    .ok_or(DecodeError::Malformed)
            }
            _ => Err(DecodeError::Malformed),
        }
    }

    pub fn try_decode(frame: &[u8]) -> Result<Frame<'_>, DecodeError> {
        if frame.len() < FRAME_HEADER_LEN || frame[0] != FRAME_MAGIC || frame[1] != FRAME_VERSION {
            return Err(DecodeError::Malformed);
        }
        decode_body(frame[2], &frame[FRAME_HEADER_LEN..])
    }

    pub fn try_decode_flow(frame: &[u8]) -> Result<(u32, Frame<'_>), DecodeError> {
        if frame.len() < FRAME_HEADER_LEN || frame[0] != FRAME_MAGIC {
            return Err(DecodeError::Malformed);
        }
        match frame[1] {
            FRAME_VERSION => decode_body(frame[2], &frame[FRAME_HEADER_LEN..]).map(|f| (0, f)),
            FRAME_VERSION_FLOW => {
                let (flow, used) =
                    take_flow_id(&frame[FRAME_HEADER_LEN..]).ok_or(DecodeError::Malformed)?;
                decode_body(frame[2], &frame[FRAME_HEADER_LEN + used..]).map(|f| (flow, f))
            }
            _ => Err(DecodeError::Malformed),
        }
    }
}

/// Where a decoded data body starts in its datagram — the demux turns
/// exactly this into a buffer view.
fn data_offset(wire: &[u8], f: &Frame<'_>) -> Option<usize> {
    match f {
        Frame::Data(body) => Some(body.as_ptr() as usize - wire.as_ptr() as usize),
        Frame::Control(_) => None,
    }
}

/// What a version-3 datagram means, written from the wire-format table
/// and not from the parser: flags (bit 0: summed; no other bit), the
/// flow id as version 2 has it, two bytes of round, little-endian, a
/// `dc` varint with the flow id's rules, then the payload — and, summed,
/// a CRC-8 of the number and the payload. Flow, the number as the wire
/// states it (the round's low 16 bits, the `dc`), the payload.
type NumberedSpec<'a> = Result<(u32, (u16, u32), &'a [u8]), DecodeError>;

fn numbered_spec(wire: &[u8]) -> NumberedSpec<'_> {
    use DecodeError::{Corrupt, Malformed};
    let flags = wire[2];
    if flags > 1 {
        return Err(Malformed);
    }
    let (flow, used) = reference::take_flow_id(&wire[3..]).ok_or(Malformed)?;
    let number = &wire[3 + used..];
    let round = number.get(..2).ok_or(Malformed)?;
    let (dc, dc_len) = reference::take_flow_id(&number[2..]).ok_or(Malformed)?;
    let mut payload = &number[2 + dc_len..];
    if flags == 1 {
        let (&trailer, body) = payload.split_last().ok_or(Malformed)?;
        if frame::crc8(&number[..number.len() - 1]) != trailer {
            return Err(Corrupt);
        }
        payload = body;
    }
    Ok((
        flow,
        (u16::from_le_bytes([round[0], round[1]]), dc),
        payload,
    ))
}

/// Whether `wire` is headed as a version-3 frame.
fn is_numbered(wire: &[u8]) -> bool {
    wire.len() >= 3 && wire[0] == FRAME_MAGIC && wire[1] == frame::FRAME_VERSION_NUMBERED
}

/// The layered decoders on a version-3 datagram, which the reference
/// predates (it refuses the version): they decode as `numbered_spec`
/// says, through every entry point, the round resolved near any replica
/// round with the same low 16 bits.
fn assert_numbered_decodes_as_specified(wire: &[u8]) {
    let want = numbered_spec(wire);
    assert_eq!(
        frame::try_decode_flow(wire),
        want.map(|(flow, _, payload)| (flow, Frame::Data(payload))),
        "try_decode_flow on {wire:02x?}"
    );
    match (frame::parse(wire), want) {
        (Ok(p), Ok((flow, (round, dc), payload))) => {
            assert_eq!((p.flow, p.body, p.len), (flow, Body::Data, payload.len()));
            let at = payload.as_ptr() as usize - wire.as_ptr() as usize;
            assert_eq!(p.offset as usize, at, "{wire:02x?}");
            let near = 5 << 16 | round as u64;
            let number = ChannelMark {
                round: near,
                dc: dc as i64,
            };
            assert_eq!(p.number(wire, near), Some(number), "{wire:02x?}");
        }
        (got, want) => assert_eq!(got.err(), want.err(), "parse on {wire:02x?}"),
    }
    // Flow-tagged: to a single-flow receiver it is no frame.
    assert_eq!(frame::try_decode(wire), Err(DecodeError::Malformed));
    assert_eq!(frame::parse_v1(wire), Err(DecodeError::Malformed));
    assert_eq!(frame::decode(wire), None);
    assert_eq!(
        reference::try_decode_flow(wire),
        Err(DecodeError::Malformed)
    );
}

/// Both public decoders against the reference on one datagram: equal
/// results, and data bodies borrowed from the same bytes of it — for
/// every datagram but a version-3 one, which means what `numbered_spec`
/// says.
fn assert_decoders_match_reference(wire: &[u8]) {
    if is_numbered(wire) {
        return assert_numbered_decodes_as_specified(wire);
    }
    let (got, want) = (frame::try_decode(wire), reference::try_decode(wire));
    assert_eq!(got, want, "try_decode on {wire:02x?}");
    if let (Ok(g), Ok(w)) = (&got, &want) {
        assert_eq!(data_offset(wire, g), data_offset(wire, w), "{wire:02x?}");
    }
    let (got, want) = (
        frame::try_decode_flow(wire),
        reference::try_decode_flow(wire),
    );
    assert_eq!(got, want, "try_decode_flow on {wire:02x?}");
    if let (Ok((_, g)), Ok((_, w))) = (&got, &want) {
        assert_eq!(data_offset(wire, g), data_offset(wire, w), "{wire:02x?}");
    }
    assert_eq!(frame::decode(wire), reference::try_decode(wire).ok());
}

/// A marker message: type byte 1, then the 24-byte marker for channel 1,
/// round 7, DC -2, no credit.
const MARKER_MSG: [u8; 25] = [
    0x01, 0x53, 0xA3, 0x00, 0x01, 0, 0, 0, 0, 0, 0, 0, 7, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
    0xFE, 0xFF, 0xFF, 0xFF, 0xFF,
];

fn golden_marker() -> Control {
    Control::Marker(Marker::sync(1, ChannelMark { round: 7, dc: -2 }))
}

/// What a golden datagram must decode to under `try_decode_flow`.
enum Golden {
    Data(u32, &'static [u8]),
    /// Version-3 data stating this number: its round's low 16 bits and
    /// its `dc`.
    Numbered(u32, (u16, u32), &'static [u8]),
    Control(u32, Control),
    Reject(DecodeError),
}

/// The wire format, byte for byte: each version and kind, each varint
/// width, and each way a datagram is refused. These bytes are the
/// protocol; a decoder change that moves any of them is a wire break.
fn golden_vectors() -> Vec<(Vec<u8>, Golden)> {
    use DecodeError::{Corrupt, Malformed};
    let cat = |head: &[u8], tail: &[u8]| [head, tail].concat();
    vec![
        // Version 1: flow 0, body right after the header.
        (vec![0xC5, 1, 0, 0xAA, 0xBB], Golden::Data(0, &[0xAA, 0xBB])),
        (vec![0xC5, 1, 0], Golden::Data(0, &[])),
        // CRC-8/0x07 of "123456789" is 0xF4; the trailer is stripped.
        (
            cat(&[0xC5, 1, 3], b"123456789\xF4"),
            Golden::Data(0, b"123456789"),
        ),
        (vec![0xC5, 1, 3, 0x00], Golden::Data(0, &[])),
        (
            vec![0xC5, 1, 1, 5, 0, 0, 0, 0, 0, 0, 0, 42],
            Golden::Control(0, Control::Probe { nonce: 42 }),
        ),
        (
            cat(&[0xC5, 1, 1], &MARKER_MSG),
            Golden::Control(0, golden_marker()),
        ),
        // Padded: u16 LE length, the message, then bytes nobody reads.
        (
            vec![0xC5, 1, 2, 5, 0, 3, 0, 0, 0, 9, 0xEE, 0xEE, 0xEE],
            Golden::Control(0, Control::ResetAck { epoch: 9 }),
        ),
        // Version 2: LEB128 flow id between header and body.
        (vec![0xC5, 2, 0, 0x05, 0xAA], Golden::Data(5, &[0xAA])),
        (vec![0xC5, 2, 0, 0x7F], Golden::Data(127, &[])),
        (
            vec![0xC5, 2, 0, 0x80, 0x01, 0xAA],
            Golden::Data(128, &[0xAA]),
        ),
        (
            vec![0xC5, 2, 0, 0x80, 0x89, 0x7A, 0xAA],
            Golden::Data(2_000_000, &[0xAA]),
        ),
        (
            vec![0xC5, 2, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0xAA],
            Golden::Data(u32::MAX, &[0xAA]),
        ),
        (
            cat(&[0xC5, 2, 3, 0xA8, 0x46], b"123456789\xF4"),
            Golden::Data(9000, b"123456789"),
        ),
        (
            cat(&[0xC5, 2, 1, 0x89, 0x06], &MARKER_MSG),
            Golden::Control(777, golden_marker()),
        ),
        (
            cat(&cat(&[0xC5, 2, 2, 0x89, 0x06, 25, 0], &MARKER_MSG), &[0; 7]),
            Golden::Control(777, golden_marker()),
        ),
        // Version 3: the flow id, then the number — round 7 (low 16
        // bits, LE) and DC 1500 as a varint — then the payload.
        (
            vec![0xC5, 3, 0, 0x05, 0x07, 0x00, 0xDC, 0x0B, 0xAA, 0xBB],
            Golden::Numbered(5, (7, 1500), &[0xAA, 0xBB]),
        ),
        // A padded DC (what a sender's reserved two bytes hold), and the
        // widest flow id beside the widest round bits.
        (
            vec![0xC5, 3, 0, 0x7F, 0x07, 0x00, 0x82, 0x00],
            Golden::Numbered(127, (7, 2), &[]),
        ),
        (
            vec![
                0xC5, 3, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0xFF, 0xFF, 0x00, 0xAA,
            ],
            Golden::Numbered(u32::MAX, (0xFFFF, 0), &[0xAA]),
        ),
        (
            vec![0xC5, 3, 0, 0x05, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F],
            Golden::Numbered(5, (0, u32::MAX), &[]),
        ),
        // Summed: the CRC-8 covers the number and the payload.
        (
            cat(
                &[0xC5, 3, 1, 0x05, 0x07, 0x00, 0xDC, 0x0B],
                b"123456789\xEB",
            ),
            Golden::Numbered(5, (7, 1500), b"123456789"),
        ),
        // A marker message behind a number is a payload like any other.
        (
            cat(&[0xC5, 3, 0, 0x05, 0x07, 0x00, 0xDC, 0x0B], &MARKER_MSG),
            Golden::Numbered(5, (7, 1500), &MARKER_MSG),
        ),
        // The number cut short: absent, half a round, no DC, a DC that
        // never ends, runs past five bytes, or is too wide for a u32.
        (vec![0xC5, 3, 0, 0x05], Golden::Reject(Malformed)),
        (vec![0xC5, 3, 0, 0x05, 0x07], Golden::Reject(Malformed)),
        (
            vec![0xC5, 3, 0, 0x05, 0x07, 0x00],
            Golden::Reject(Malformed),
        ),
        (
            vec![0xC5, 3, 0, 0x05, 0x07, 0x00, 0x80],
            Golden::Reject(Malformed),
        ),
        (
            vec![
                0xC5, 3, 0, 0x05, 0x07, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
            ],
            Golden::Reject(Malformed),
        ),
        (
            vec![0xC5, 3, 0, 0x05, 0x07, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F],
            Golden::Reject(Malformed),
        ),
        // A flag no version-3 frame has; summed with no room for the
        // trailer; summed with a trailer that disagrees.
        (
            vec![0xC5, 3, 2, 0x05, 0x07, 0x00, 0x00],
            Golden::Reject(Malformed),
        ),
        (
            vec![0xC5, 3, 1, 0x05, 0x07, 0x00, 0x00],
            Golden::Reject(Malformed),
        ),
        (
            cat(
                &[0xC5, 3, 1, 0x05, 0x07, 0x00, 0xDC, 0x0B],
                b"123456789\xEC",
            ),
            Golden::Reject(Corrupt),
        ),
        // A control frame has no number: bytes put where a data frame's
        // number sits are read as the message — here a marker type byte
        // before a marker that is not there. And the retired mark-field
        // kinds: malformed.
        (
            cat(&[0xC5, 2, 1, 0x05, 0x01, 0x00, 0xDC, 0x0B], &MARKER_MSG),
            Golden::Reject(Malformed),
        ),
        (
            cat(&cat(&[0xC5, 2, 4, 0x05], &[0; 16]), &[0xAA]),
            Golden::Reject(Malformed),
        ),
        (
            cat(&cat(&[0xC5, 2, 5, 0x05], &MARKER_MSG[5..21]), &[0xAA]),
            Golden::Reject(Malformed),
        ),
        // Refused as malformed: short, magic, version, kind.
        (vec![], Golden::Reject(Malformed)),
        (vec![0xC5, 1], Golden::Reject(Malformed)),
        (vec![0x00, 1, 0, 1], Golden::Reject(Malformed)),
        (vec![0xC5, 0, 0, 1], Golden::Reject(Malformed)),
        (vec![0xC5, 3, 0, 1], Golden::Reject(Malformed)),
        (vec![0xC5, 1, 4, 1], Golden::Reject(Malformed)),
        (vec![0xC5, 2, 6, 1, 1], Golden::Reject(Malformed)),
        (vec![0xC5, 2, 9, 1, 1], Golden::Reject(Malformed)),
        // The varint: missing, unterminated, too long, too wide for u32.
        (vec![0xC5, 2, 0], Golden::Reject(Malformed)),
        (vec![0xC5, 2, 0, 0x80], Golden::Reject(Malformed)),
        (
            vec![0xC5, 2, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
            Golden::Reject(Malformed),
        ),
        (
            vec![0xC5, 2, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F],
            Golden::Reject(Malformed),
        ),
        // Summed data: no room for the trailer is malformed, a trailer
        // that disagrees is corrupt — also behind a flow id.
        (vec![0xC5, 1, 3], Golden::Reject(Malformed)),
        (vec![0xC5, 2, 3, 0x05], Golden::Reject(Malformed)),
        (
            cat(&[0xC5, 1, 3], b"123456789\xF5"),
            Golden::Reject(Corrupt),
        ),
        (
            cat(&[0xC5, 2, 3, 0x05], b"123456788\xF4"),
            Golden::Reject(Corrupt),
        ),
        // Control bodies: empty, unknown type, the retired type 4,
        // truncated, a marker with the wrong magic.
        (vec![0xC5, 1, 1], Golden::Reject(Malformed)),
        (vec![0xC5, 1, 1, 99, 0, 0, 0, 0], Golden::Reject(Malformed)),
        (
            vec![0xC5, 1, 1, 4, 0, 0, 0, 0, 0, 0, 0, 7, 0],
            Golden::Reject(Malformed),
        ),
        (vec![0xC5, 1, 1, 5, 0, 0, 0], Golden::Reject(Malformed)),
        (
            cat(&[0xC5, 2, 1, 0x05], &MARKER_MSG[..24]),
            Golden::Reject(Malformed),
        ),
        (
            cat(&[0xC5, 1, 1, 0x01, 0x53, 0xA4], &MARKER_MSG[3..]),
            Golden::Reject(Malformed),
        ),
        // The pad prefix: missing, half there, claiming more than came.
        (vec![0xC5, 1, 2], Golden::Reject(Malformed)),
        (vec![0xC5, 1, 2, 5], Golden::Reject(Malformed)),
        (
            vec![0xC5, 1, 2, 6, 0, 3, 0, 0, 0, 9],
            Golden::Reject(Malformed),
        ),
        (
            vec![0xC5, 2, 2, 0x05, 0xFF, 0xFF, 3, 0, 0, 0, 9],
            Golden::Reject(Malformed),
        ),
    ]
}

/// Every golden vector decodes to exactly what the table says, under the
/// layered decoders and — version 3 apart, which it predates — the
/// reference alike; a version-1 decoder refuses every flow-tagged vector
/// as malformed, whatever else is wrong with it.
#[test]
fn golden_vectors_decode_as_specified() {
    for (wire, want) in golden_vectors() {
        assert_decoders_match_reference(&wire);
        let got = frame::try_decode_flow(&wire);
        // The fault layer's peek agrees with the decoder on what is data.
        let is_data = matches!(want, Golden::Data(..) | Golden::Numbered(..));
        assert!(!is_data || frame::is_data_frame(&wire), "{wire:02x?}");
        assert!(!matches!(want, Golden::Control(..)) || !frame::is_data_frame(&wire));
        match want {
            Golden::Data(flow, body) => {
                assert_eq!(got, Ok((flow, Frame::Data(body))), "{wire:02x?}");
                let p = frame::parse(&wire).unwrap();
                assert_eq!((p.body, p.number(&wire, 0)), (Body::Data, None));
            }
            Golden::Numbered(flow, (round, dc), body) => {
                assert_eq!(got, Ok((flow, Frame::Data(body))), "{wire:02x?}");
                let p = frame::parse(&wire).unwrap();
                let number = ChannelMark {
                    round: round as u64,
                    dc: dc as i64,
                };
                assert_eq!(p.number(&wire, round as u64), Some(number), "{wire:02x?}");
            }
            Golden::Control(flow, c) => {
                assert_eq!(got, Ok((flow, Frame::Control(c))), "{wire:02x?}")
            }
            Golden::Reject(e) => assert_eq!(got, Err(e), "{wire:02x?}"),
        }
        if matches!(wire.get(1), Some(2 | 3)) {
            assert_eq!(
                frame::try_decode(&wire),
                Err(DecodeError::Malformed),
                "{wire:02x?}"
            );
        }
    }
}

fn below(rng: &mut DetRng, n: u64) -> u64 {
    rng.range_u64(0, n)
}

/// A version-2 data frame of flow `flow`, as senders of earlier rounds
/// put it on the wire: header, varint flow id, payload, and summed a
/// CRC-8 of the payload.
fn v2_data(flow: u32, payload: &[u8], summed: bool) -> Vec<u8> {
    let kind = if summed { KIND_DATA_SUMMED } else { KIND_DATA };
    let mut wire = vec![FRAME_MAGIC, frame::FRAME_VERSION_FLOW, kind];
    push_leb128(flow, &mut wire);
    wire.extend_from_slice(payload);
    if summed {
        wire.push(frame::crc8(payload));
    }
    wire
}

/// A padded version-2 control frame of flow `flow`, stretched to
/// `wire_len` bytes where the message fits, as senders of earlier rounds
/// stretched markers.
fn padded_control(flow: u32, ctl: &Control, wire_len: usize) -> Vec<u8> {
    let mut wire = vec![
        FRAME_MAGIC,
        frame::FRAME_VERSION_FLOW,
        frame::KIND_CONTROL_PADDED,
    ];
    push_leb128(flow, &mut wire);
    wire.extend_from_slice(&(ctl.wire_len() as u16).to_le_bytes());
    ctl.encode_into(&mut wire);
    if wire.len() < wire_len {
        wire.resize(wire_len, 0);
    }
    wire
}

fn push_leb128(mut v: u32, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// One datagram of the seeded streams below: a clean frame of one of
/// the first `kinds` kinds listed here, then maybe a flipped bit, a
/// truncation, or nothing but noise. (`kinds == 7` is the stream as it
/// was drawn before data frames stated their numbers.)
fn stream_datagram(rng: &mut DetRng, kinds: u64) -> Vec<u8> {
    let mut wire = Vec::new();
    let flow = below(rng, 12) as u32;
    let payload: Vec<u8> = (0..below(rng, 40)).map(|_| rng.next_u64() as u8).collect();
    match below(rng, kinds) {
        0 => wire = v2_data(flow, &payload, false),
        1 | 2 => wire = v2_data(flow, &payload, true),
        3 => {
            let mk = Marker::sync(
                below(rng, 2) as usize,
                ChannelMark {
                    round: below(rng, 4),
                    dc: below(rng, 1500) as i64,
                },
            );
            let ctl = Control::Marker(mk);
            if rng.chance(0.5) {
                frame::encode_control_flow_into(flow, &ctl, &mut wire);
            } else {
                wire = padded_control(flow, &ctl, 60);
            }
        }
        4 => frame::encode_control_into(
            &Control::Probe {
                nonce: rng.next_u64(),
            },
            &mut wire,
        ),
        5 => frame::encode_data_summed_into(&payload, &mut wire),
        6 => {
            wire = (0..1 + below(rng, 24))
                .map(|_| rng.next_u64() as u8)
                .collect()
        }
        7 => frame::encode_data_flow_into(flow, &payload, &mut wire),
        _ => {
            frame::encode_data_flow_into(flow, &payload, &mut wire);
            let number = ChannelMark {
                round: below(rng, 4),
                dc: below(rng, 1500) as i64,
            };
            assert!(frame::write_number(&mut wire, number));
        }
    }
    match below(rng, 4) {
        0 => {
            let bit = below(rng, wire.len() as u64 * 8) as usize;
            wire[bit / 8] ^= 1 << (bit % 8);
        }
        1 => wire.truncate(1 + below(rng, wire.len() as u64) as usize),
        _ => {}
    }
    wire
}

/// What a demux makes of a stream: `(malformed per channel, corrupt per
/// channel, data frames, control frames, refused)`.
type StreamCounts = ([u64; 2], [u64; 2], u64, u64, u64);

/// The bookkeeping a decode outcome feeds, demux-side: flows admitted in
/// stream order up to the cap (and never an id the slab bound refuses).
#[derive(Default)]
struct Tally {
    counts: StreamCounts,
    /// Data frames, of an admitted flow, that stated their number (all
    /// routed with it: a number's reach is judged at the head of its
    /// channel, and nothing below polls).
    stated: u64,
    /// Marker frames refused as out of reach.
    ahead: u64,
    admitted: std::collections::BTreeSet<u32>,
}

impl Tally {
    const MAX_FLOWS: usize = 8;
    /// How far ahead of its round a default-built demux over these links
    /// lets a marker be: ring capacity + 2 packets, at the two rounds a
    /// 2048-byte packet can take a 1500-byte quantum to pay off. Nothing
    /// below polls, so every replica's round stays 1 — which is also
    /// what a number's 16 bits of round are read near.
    const REACH: u64 = ((1 << 14) + 2) * 2;

    fn in_reach(&mut self, mark: ChannelMark) -> bool {
        let ok = mark.round.saturating_sub(1) <= Self::REACH;
        self.ahead += !ok as u64;
        ok
    }

    fn admit(&mut self, flow: u32) -> bool {
        self.admitted.contains(&flow)
            || ((flow as usize) < Self::MAX_FLOWS + 1024
                && self.admitted.len() < Self::MAX_FLOWS
                && self.admitted.insert(flow))
    }

    fn data(&mut self, flow: u32, mark: Option<ChannelMark>) {
        match self.admit(flow) {
            true => {
                self.counts.2 += 1;
                self.stated += mark.is_some() as u64;
            }
            false => self.counts.4 += 1,
        }
    }

    /// What the one-pass decoder makes of `wire` on channel `c`.
    fn reference(&mut self, c: usize, wire: &[u8]) {
        match reference::try_decode_flow(wire) {
            Err(DecodeError::Malformed) => self.counts.0[c] += 1,
            Err(DecodeError::Corrupt) => self.counts.1[c] += 1,
            Ok((flow, Frame::Data(_))) => self.data(flow, None),
            Ok((flow, Frame::Control(Control::Marker(mk)))) => {
                self.counts.3 += 1;
                match self.admit(flow) {
                    true => _ = self.in_reach(mk.mark),
                    false => self.counts.4 += 1,
                }
            }
            Ok((_, Frame::Control(_))) => self.counts.3 += 1,
        }
    }

    /// What the wire format says: the same, version 3 apart.
    fn specified(&mut self, c: usize, wire: &[u8]) {
        if !is_numbered(wire) {
            return self.reference(c, wire);
        }
        match numbered_spec(wire) {
            Ok((flow, (round, dc), _)) => {
                let round = frame::nearest_round(round, 1);
                self.data(
                    flow,
                    Some(ChannelMark {
                        round,
                        dc: dc as i64,
                    }),
                )
            }
            Err(DecodeError::Malformed) => self.counts.0[c] += 1,
            Err(DecodeError::Corrupt) => self.counts.1[c] += 1,
        }
    }
}

/// `kinds`-kind stream number `seed` through `FlowDemux::sweep`: every
/// demux counter a decode outcome feeds comes out as the wire format
/// specifies, channel by channel. Returns that, and what the one-pass
/// reference decoder would have counted on the same datagrams.
fn dirty_stream(kinds: u64, seed: u64) -> (Tally, Tally) {
    let (a0, b0) = datagram_pair(2048, 1 << 13);
    let (a1, b1) = datagram_pair(2048, 1 << 13);
    let mut tx = [a0, a1];
    let mut demux = FlowDemux::builder()
        .scheduler(Srr::equal(2, 1500))
        .links(vec![b0, b1])
        .max_flows(Tally::MAX_FLOWS)
        .build();
    let mut rng = DetRng::new(seed);
    let (mut now, mut then) = (Tally::default(), Tally::default());
    for i in 0..4000 {
        // A flipped varint bit can name a flow far past anything the
        // generator meant; those are the slab-bound tests' business
        // (and the one-pass demux grew its slab to whatever it was told).
        let wire = std::iter::repeat_with(|| stream_datagram(&mut rng, kinds))
            .find(|w| !matches!(reference::try_decode_flow(w), Ok((flow, _)) if flow >= 1024))
            .expect("endless");
        let c = i % 2;
        tx[c].send_frame(&wire).unwrap();
        now.specified(c, &wire);
        then.reference(c, &wire);
        // One at a time, so that flows are admitted in stream order.
        assert_eq!(demux.sweep(SimTime::ZERO), 1);
    }
    let s = demux.net_stats();
    assert_eq!(s.frames, 4000);
    assert_eq!(demux.malformed_by_channel(), &now.counts.0);
    assert_eq!(demux.corrupt_by_channel(), &now.counts.1);
    assert_eq!(
        (s.data_frames, s.control_frames, s.dropped_admission),
        (now.counts.2, now.counts.3, now.counts.4)
    );
    assert_eq!(
        (s.marked_frames, s.dropped_mark_ahead),
        (now.stated, now.ahead)
    );
    (now, then)
}

/// How the layered decoders' counts of a stream moved from the one-pass
/// decoder's: only version-3 datagrams differ — malformed then; data,
/// admitted or refused, corrupt, or still malformed now.
fn assert_only_numbered_moved(now: &Tally, then: &Tally) {
    let moved = |f: fn(&StreamCounts) -> u64| f(&now.counts) as i64 - f(&then.counts) as i64;
    assert_eq!(
        -moved(|c| c.0[0] + c.0[1]),
        moved(|c| c.2) + moved(|c| c.4) + moved(|c| c.1[0] + c.1[1]),
        "what left `malformed` is numbered data, admitted or refused, or corrupt"
    );
    assert_eq!(moved(|c| c.3), 0, "version 3 is never control");
}

/// Seeded streams of clean, bit-flipped, truncated and random datagrams
/// through `FlowDemux::sweep`. The first is the stream recorded on the
/// one-pass decoder, version-2 data only: its totals under that decoder
/// are the literals they always were, and the demux counts it the same
/// but for the datagrams a flipped bit turned into version 3. The second
/// also draws clean numbered frames, blank and stating a number, and its
/// totals differ from what the one-pass decoder would have made of the
/// same datagrams by exactly the version-3 ones.
#[test]
fn seeded_dirty_stream_counts_are_unchanged() {
    let (now, then) = dirty_stream(7, 0x16_D1FF);
    assert_eq!(then.counts, RECORDED_ON_THE_ONE_PASS_DECODER);
    assert_only_numbered_moved(&now, &then);
    assert_eq!((now.counts, now.stated), FLIPPED_INTO_VERSION_3);
    assert_eq!(now.ahead, 11, "flipped marker rounds");

    let (now, then) = dirty_stream(9, 0x17_D1FF);
    assert_eq!(then.counts, NUMBERED_DRAWN_ON_THE_ONE_PASS_DECODER);
    assert_only_numbered_moved(&now, &then);
    assert_eq!((now.counts, now.stated), NUMBERED_DRAWN);
}

/// Condition C1 is bounded. On every channel of a flow, a data frame
/// whose number reads as far ahead as 16 bits of round can say, and a
/// marker frame stating `round = u64::MAX`, into a demux whose rings make
/// both out of reach: a sweep and a poll return — the poll used to skip
/// its way to that round — each mark is refused and counted once (the
/// marker where it enters, the number at the head of its channel), and
/// every payload is delivered, served as it stands.
#[test]
fn a_mark_at_the_end_of_time_is_refused_counted_and_its_payload_delivered() {
    const CHANNELS: usize = 4;
    let (mut tx, rx): (Vec<_>, Vec<_>) = (0..CHANNELS).map(|_| datagram_pair(2048, 64)).unzip();
    let mut demux = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(rx)
        .capacity_per_channel(64)
        .build();
    let far = ChannelMark {
        round: 1 + 0x7FFF,
        dc: 1500,
    };
    let end = ChannelMark {
        round: u64::MAX,
        dc: 1500,
    };
    let mut wire = Vec::new();
    for (c, link) in tx.iter_mut().enumerate() {
        // A quantum's worth each, so the scan visits every channel.
        frame::encode_data_flow_into(3, &[c as u8; 1500], &mut wire);
        assert!(frame::write_number(&mut wire, far));
        link.send_frame(&wire).unwrap();
        let mk = Control::Marker(Marker::sync(c, end));
        frame::encode_control_flow_into(3, &mk, &mut wire);
        link.send_frame(&wire).unwrap();
    }
    assert_eq!(demux.sweep(SimTime::ZERO), 2 * CHANNELS);
    let mut batch = stripe::core::receiver::RxBatch::new();
    assert_eq!(demux.poll_flow_into(3, &mut batch), CHANNELS);
    for (c, pb) in batch.drain().enumerate() {
        assert_eq!(pb.as_slice(), &[c as u8; 1500][..]);
    }
    let (s, r) = (demux.net_stats(), demux.flow_stats(3).unwrap());
    assert_eq!(s.dropped_mark_ahead, 2 * CHANNELS as u64);
    assert_eq!(r.dropped_mark_ahead, 2 * CHANNELS as u64);
    let numbered = CHANNELS as u64;
    assert_eq!((s.data_frames, s.marked_frames), (numbered, numbered));
    assert_eq!((r.skips, r.marks_applied, r.markers_seen), (0, 0, 0));
}

/// Forged `dc`s at both ends of `i64`, in a marker frame and in the
/// numbered frame behind it, on every channel of a flow (a number states
/// them clamped into a `u32`: 0 and `u32::MAX`). Unclamped, `i64::MIN`
/// had `advance` credit quanta for ~2^51 rounds — and overflow `dc -=
/// len` in this debug build — and `i64::MAX` pinned the scan to channel 0
/// for good. Clamped to an honest sender's range, each mark is adopted
/// and counted, at the flow and at the demux, and every payload is
/// delivered, in order.
#[test]
fn a_forged_dc_is_clamped_counted_and_its_payload_delivered() {
    const CHANNELS: usize = 4;
    for dc in [i64::MIN, i64::MAX] {
        let (mut tx, rx): (Vec<_>, Vec<_>) = (0..CHANNELS).map(|_| datagram_pair(2048, 64)).unzip();
        let mut demux = FlowDemux::builder()
            .scheduler(Srr::equal(CHANNELS, 1500))
            .links(rx)
            .build();
        let forged = ChannelMark { round: 1, dc };
        let mut wire = Vec::new();
        for (c, link) in tx.iter_mut().enumerate() {
            let mk = Control::Marker(Marker::sync(c, forged));
            frame::encode_control_flow_into(3, &mk, &mut wire);
            link.send_frame(&wire).unwrap();
            frame::encode_data_flow_into(3, &[c as u8; 1500], &mut wire);
            assert!(frame::write_number(&mut wire, forged));
            link.send_frame(&wire).unwrap();
        }
        assert_eq!(demux.sweep(SimTime::ZERO), 2 * CHANNELS);
        let mut batch = stripe::core::receiver::RxBatch::new();
        assert_eq!(demux.poll_flow_into(3, &mut batch), CHANNELS, "dc {dc}");
        for (c, pb) in batch.drain().enumerate() {
            assert_eq!(pb.as_slice(), &[c as u8; 1500][..]);
        }
        let (s, r) = (demux.net_stats(), demux.flow_stats(3).unwrap());
        let both = 2 * CHANNELS as u64;
        assert_eq!(
            (r.marks_applied, r.marks_clamped, s.marks_clamped),
            (both, both, both)
        );
        assert_eq!((r.skips, s.dropped_mark_ahead), (0, 0));
    }
}

/// Allocations the calling thread has made: the tests of this file run on
/// threads of their own, so a test counts only what it did itself.
struct ThreadCount;

thread_local! {
    static ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(|a| a.get())
}

// SAFETY: defers entirely to `System`; the count is a side effect.
unsafe impl std::alloc::GlobalAlloc for ThreadCount {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
        std::alloc::System.realloc(ptr, layout, size)
    }
}

#[global_allocator]
static ALLOC: ThreadCount = ThreadCount;

/// What one datagram of the number fuzz table did at the demux:
/// `(malformed, data frames, routed numbered, refused ahead, clamped,
/// delivered)`.
type NumberOutcome = [u64; 6];

/// The number's field fuzzed, one datagram at a time, through
/// `FlowDemux::sweep` and a poll, into a flow whose replica reads a
/// number's round near its own (one channel, rings of 64: a number more
/// than 132 rounds ahead is out of reach). Every datagram returns and is
/// counted; a number refused as out of reach leaves its payload delivered
/// unnumbered; a `dc` no honest sender states is adopted clamped; and the
/// sweep and the poll allocate nothing.
#[test]
fn every_extreme_number_returns_is_counted_and_allocates_nothing() {
    let (mut tx, rx) = datagram_pair(2048, 64);
    let mut demux = FlowDemux::builder()
        .scheduler(Srr::equal(1, 1500))
        .link(rx)
        .capacity_per_channel(64)
        .build();
    assert!(demux.touch_flow(3));
    demux.reserve_flow(3, 4);
    let mut batch = stripe::core::receiver::RxBatch::with_capacity(8);
    let numbered = |round: u64, dc: i64| {
        let mut wire = Vec::new();
        frame::encode_data_flow_into(3, &[0xAB; 100], &mut wire);
        assert!(frame::write_number(&mut wire, ChannelMark { round, dc }));
        wire
    };
    // Flow 3's number field starts at byte 4.
    let head = [FRAME_MAGIC, frame::FRAME_VERSION_NUMBERED, 0, 3];
    let cat = |parts: &[&[u8]]| parts.concat();
    // What every case is measured against: the demux's counters and the
    // replica's, summed.
    let counts = |d: &FlowDemux<Srr, stripe::link::TestDatagramLink>| {
        let (s, r) = (d.net_stats(), d.flow_stats(3).unwrap());
        [
            s.dropped_malformed,
            s.data_frames,
            s.marked_frames,
            s.dropped_mark_ahead,
            s.marks_clamped,
            r.delivered,
        ]
    };
    // Warm the path: the first landing and delivery grow what they grow.
    tx.send_frame(&numbered(1, 1500)).unwrap();
    demux.sweep(SimTime::ZERO);
    demux.poll_flow_into(3, &mut batch);
    batch.clear();

    #[allow(clippy::type_complexity)]
    let cases: Vec<(&str, Box<dyn Fn(u64) -> Vec<u8>>, NumberOutcome)> = vec![
        (
            "in sync",
            Box::new(move |g| numbered(g, 1500)),
            [0, 1, 1, 0, 0, 1],
        ),
        (
            "round offset 0",
            Box::new(move |g| numbered(g, 700)),
            [0, 1, 1, 0, 0, 1],
        ),
        (
            "round offset 2^15 - 1",
            Box::new(move |g| numbered(g + 0x7FFF, 1500)),
            [0, 1, 1, 1, 0, 1],
        ),
        (
            "round offset 2^15",
            Box::new(move |g| numbered(g + 0x8000, 1500)),
            [0, 1, 1, 0, 0, 1],
        ),
        (
            "round offset 2^16 - 1",
            Box::new(move |g| numbered(g + 0xFFFF, 1500)),
            [0, 1, 1, 0, 0, 1],
        ),
        (
            "dc 0",
            Box::new(move |g| numbered(g, 0)),
            [0, 1, 1, 0, 1, 1],
        ),
        (
            "dc negative, stated as 0",
            Box::new(move |g| numbered(g, -5)),
            [0, 1, 1, 0, 1, 1],
        ),
        (
            "dc past the quantum",
            Box::new(move |g| numbered(g, 1_000_000)),
            [0, 1, 1, 0, 1, 1],
        ),
        (
            "dc u32::MAX",
            Box::new(move |g| numbered(g, i64::MAX)),
            [0, 1, 1, 0, 1, 1],
        ),
        (
            "dc over-long",
            Box::new(move |_| cat(&[&head, &[1, 0], &[0x80; 5], &[1, 0xAB]])),
            [1, 0, 0, 0, 0, 0],
        ),
        (
            "dc too wide",
            Box::new(move |_| cat(&[&head, &[1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]])),
            [1, 0, 0, 0, 0, 0],
        ),
        (
            "number cut after its round",
            Box::new(move |_| cat(&[&head, &[1, 0]])),
            [1, 0, 0, 0, 0, 0],
        ),
        (
            "number cut in its round",
            Box::new(move |_| cat(&[&head, &[1]])),
            [1, 0, 0, 0, 0, 0],
        ),
        (
            "no number",
            Box::new(move |_| head.to_vec()),
            [1, 0, 0, 0, 0, 0],
        ),
        (
            "dc cut short",
            Box::new(move |_| cat(&[&head, &[1, 0, 0x80]])),
            [1, 0, 0, 0, 0, 0],
        ),
        (
            "a flag no frame has",
            Box::new(move |_| cat(&[&[FRAME_MAGIC, 3, 0x80, 3], &[1, 0, 0x0B]])),
            [1, 0, 0, 0, 0, 0],
        ),
        (
            "a number on a marker frame",
            Box::new(move |g| {
                let mut wire = Vec::new();
                let mk = Control::Marker(Marker::sync(0, ChannelMark { round: g, dc: 1500 }));
                frame::encode_control_flow_into(3, &mk, &mut wire);
                cat(&[&wire[..4], &[1, 0, 0xDC, 0x0B], &wire[4..]])
            }),
            [1, 0, 0, 0, 0, 0],
        ),
        (
            "a number on a control frame",
            Box::new(move |_| {
                let mut wire = Vec::new();
                frame::encode_control_into(&Control::Probe { nonce: 9 }, &mut wire);
                cat(&[&wire[..3], &[1, 0, 0xDC, 0x0B], &wire[3..]])
            }),
            [1, 0, 0, 0, 0, 0],
        ),
        (
            "numbered frames in a bundle",
            Box::new(move |g| {
                let (a, b) = (numbered(g, 1500), numbered(g, 1500));
                let lens = [
                    (a.len() as u16).to_le_bytes(),
                    (b.len() as u16).to_le_bytes(),
                ];
                cat(&[&[bundle::MAGIC, 2], &lens[0], &lens[1], &a, &b])
            }),
            [0, 2, 2, 0, 0, 2],
        ),
    ];
    for (name, make, want) in cases {
        let g = demux.flow_receiver(3).unwrap().scheduler().round();
        tx.send_frame(&make(g)).unwrap();
        let before = counts(&demux);
        let a0 = allocations();
        assert_eq!(
            demux.sweep(SimTime::ZERO),
            1 + (want[1] == 2) as usize,
            "{name}"
        );
        let n = demux.poll_flow_into(3, &mut batch);
        assert!(
            batch.iter().all(|pb| pb.as_slice() == [0xAB; 100]),
            "{name}"
        );
        batch.clear();
        assert_eq!(allocations() - a0, 0, "{name}: the demux allocated");
        let after = counts(&demux);
        let got: NumberOutcome = std::array::from_fn(|k| after[k] - before[k]);
        assert_eq!((got, n as u64), (want, want[5]), "{name}");
    }
    assert_eq!(
        demux.flow_stats(3).unwrap().skips,
        0,
        "no refused number cost a skip"
    );
}

/// A link that lands trains as given — `(bytes, segment size)` — the way
/// a GRO socket hands them over.
struct TrainLink(std::collections::VecDeque<(Vec<u8>, usize)>);

impl DatagramLink for TrainLink {
    fn send_frame(&mut self, _frame: &[u8]) -> Result<(), TxError> {
        Ok(())
    }
    fn recv_frame(&mut self, _buf: &mut [u8]) -> Option<usize> {
        None
    }
    fn mtu(&self) -> usize {
        2048
    }
    fn recv_window(&self) -> usize {
        1 << 16
    }
    fn recv_trains(&mut self, windows: &mut [&mut [u8]], trains: &mut [Train]) -> usize {
        let mut k = 0;
        while let (Some(w), Some((bytes, seg))) = (windows.get_mut(k), self.0.pop_front()) {
            w[..bytes.len()].copy_from_slice(&bytes);
            trains[k] = Train {
                bytes: bytes.len(),
                seg,
            };
            k += 1;
        }
        k
    }
}

/// The bundle format, byte for byte, landed as trains: which frames each
/// decodes to (`bundle::frames_of`), and what the demux counts of them —
/// `(frames, data frames, control frames, malformed, numbered)`. A bundle
/// is opened once: a frame in it that starts with the magic is a frame,
/// which the frame parser refuses; a segment that starts with the magic
/// and is no bundle is one frame, malformed. A numbered frame inside a
/// bundle is routed with its number.
#[test]
fn bundle_golden_vectors_decode_and_count_as_specified() {
    // Data frames of flow 5: five, six and twenty bytes.
    let d1: &[u8] = &[0xC5, 2, 0, 0x05, 0xAA];
    let d2: &[u8] = &[0xC5, 2, 0, 0x05, 0xBB, 0xCC];
    let long = [&[0xC5, 2, 0, 0x05][..], &[0xDD; 16]].concat();
    // Numbered frames of flow 5, round 1, DC 1500: eight and nine bytes.
    let n1: &[u8] = &[0xC5, 3, 0, 0x05, 0x01, 0x00, 0xDC, 0x0B, 0xAA];
    let n2: &[u8] = &[0xC5, 3, 0, 0x05, 0x01, 0x00, 0xDC, 0x0B, 0xBB, 0xCC];
    let cat = |parts: &[&[u8]]| parts.concat();
    #[allow(clippy::type_complexity)]
    let vectors: Vec<(&str, Vec<u8>, usize, Vec<&[u8]>, [u64; 5])> = vec![
        (
            "escape of one",
            vec![0xB5, 1, 2, 0, 0xB5, 0x07],
            6,
            vec![&[0xB5, 0x07]],
            [1, 0, 0, 1, 0],
        ),
        (
            "two frames",
            cat(&[&[0xB5, 2, 5, 0, 6, 0], d1, d2]),
            17,
            vec![d1, d2],
            [2, 2, 0, 0, 0],
        ),
        (
            "two numbered frames",
            cat(&[&[0xB5, 2, 9, 0, 10, 0], n1, n2]),
            25,
            vec![n1, n2],
            [2, 2, 0, 0, 2],
        ),
        (
            "padded, in mid-train",
            cat(&[&long, &[0xB5, 1, 5, 0], d1, &[0; 11], &long]),
            20,
            vec![&long, d1, &long],
            [3, 3, 0, 0, 0],
        ),
        (
            "the shorter last segment",
            cat(&[&long, &[0xB5, 2, 5, 0, 6, 0], d1, d2]),
            20,
            vec![&long, d1, d2],
            [3, 3, 0, 0, 0],
        ),
        (
            "a frame that is no frame, beside one that is",
            cat(&[&[0xB5, 2, 2, 0, 5, 0, 0x00, 0x01], d1]),
            13,
            vec![&[0x00, 0x01], d1],
            [2, 1, 0, 1, 0],
        ),
        // Malformed: count 0, lengths overrunning the segment, a header
        // cut short, the magic alone.
        (
            "count 0",
            cat(&[&[0xB5, 0], d1]),
            7,
            vec![&[0xB5, 0, 0xC5, 2, 0, 0x05, 0xAA]],
            [1, 0, 0, 1, 0],
        ),
        (
            "lengths overrun",
            cat(&[&[0xB5, 1, 6, 0], d1]),
            9,
            vec![&[0xB5, 1, 6, 0, 0xC5, 2, 0, 0x05, 0xAA]],
            [1, 0, 0, 1, 0],
        ),
        (
            "truncated header",
            vec![0xB5, 2, 5],
            3,
            vec![&[0xB5, 2, 5]],
            [1, 0, 0, 1, 0],
        ),
        (
            "the magic alone",
            vec![0xB5],
            1,
            vec![&[0xB5]],
            [1, 0, 0, 1, 0],
        ),
    ];
    for (name, bytes, seg, want, counts) in vectors {
        let t = Train {
            bytes: bytes.len(),
            seg,
        };
        let got: Vec<&[u8]> = bundle::frames_of(&bytes, t)
            .map(|(at, n)| &bytes[at..at + n])
            .collect();
        assert_eq!(got, want, "{name}");
        assert_eq!(bundle::count(&bytes, t), want.len(), "{name}");

        let mut demux = FlowDemux::builder()
            .scheduler(Srr::equal(1, 1500))
            .link(TrainLink([(bytes, seg)].into()))
            .build();
        assert_eq!(demux.sweep(SimTime::ZERO), want.len(), "{name}");
        let FlowDemuxSnapshot {
            frames,
            data_frames,
            control_frames,
            dropped_malformed,
            marked_frames,
            ..
        } = demux.net_stats();
        assert_eq!(
            [
                frames,
                data_frames,
                control_frames,
                dropped_malformed,
                marked_frames
            ],
            counts,
            "{name}"
        );
    }
}

/// `(malformed per channel, corrupt per channel, data frames, control
/// frames, refused)` of the first stream above, as counted by the demux
/// at the commit before `frame::parse` existed.
const RECORDED_ON_THE_ONE_PASS_DECODER: StreamCounts = ([545, 591], [330, 315], 1018, 823, 517);

/// The first stream as the demux counts it, with the number of data
/// frames of admitted flows that stated their number: a flipped bit
/// turned a version-2 frame into version 3 …
const FLIPPED_INTO_VERSION_3: (StreamCounts, u64) = (([544, 589], [331, 316], 1019, 823, 517), 1);

/// … the second stream as the one-pass decoder would count it (every
/// version-3 frame an unknown version) …
const NUMBERED_DRAWN_ON_THE_ONE_PASS_DECODER: StreamCounts =
    ([888, 856], [246, 296], 780, 641, 417);

/// … and as the demux counts it.
const NUMBERED_DRAWN: (StreamCounts, u64) = (([483, 442], [247, 300], 1309, 641, 702), 529);

proptest! {
    /// Arbitrary bytes — raw, and behind a plausible header so the
    /// deeper checks are reached — decode exactly as the reference says,
    /// or, headed as version 3, as `numbered_spec` says.
    #[test]
    fn layered_decoders_match_reference_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        version in 0u8..4,
        kind in 0u8..7,
    ) {
        assert_decoders_match_reference(&bytes);
        let mut headed = vec![FRAME_MAGIC, version, kind];
        headed.extend_from_slice(&bytes);
        assert_decoders_match_reference(&headed);
    }

    /// Version 2 against version 3, for as long as version-2 data
    /// decodes: a version-2 data frame and the numbered frame a server
    /// sends for the same flow and payload decode to the same flow and
    /// the same payload, summed or not; the numbered one alone states a
    /// number — the one written into it — and is exactly its reserved
    /// bytes longer.
    #[test]
    fn version_2_data_decodes_as_its_numbered_twin(
        flow in prop_oneof![0u32..200, any::<u32>()],
        payload in prop::collection::vec(any::<u8>(), 0..300),
        summed in any::<bool>(),
        (round, dc) in (any::<u64>(), 0i64..1 << 14),
    ) {
        let v2 = v2_data(flow, &payload, summed);
        let mut v3 = Vec::new();
        if summed {
            frame::encode_data_summed_flow_into(flow, &payload, &mut v3);
        } else {
            frame::encode_data_flow_into(flow, &payload, &mut v3);
        }
        let number = ChannelMark { round, dc };
        prop_assert!(frame::write_number(&mut v3, number));
        prop_assert_eq!(v3.len(), v2.len() + frame::NUMBER_LEN);
        prop_assert_eq!(frame::try_decode_flow(&v2), frame::try_decode_flow(&v3));
        prop_assert_eq!(frame::try_decode_flow(&v2), Ok((flow, Frame::Data(&payload[..]))));
        let (p2, p3) = (frame::parse(&v2).unwrap(), frame::parse(&v3).unwrap());
        prop_assert_eq!((p2.number(&v2, round), p3.number(&v3, round)), (None, Some(number)));
        prop_assert!(frame::is_data_frame(&v2) && frame::is_data_frame(&v3));
    }
}
