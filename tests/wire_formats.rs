//! Property tests on every wire format: roundtrips for arbitrary values,
//! and corruption rejection — §5's fault model assumes corrupt packets
//! are detected and dropped, so the codecs must never panic or
//! mis-decode garbage into something "valid but wrong" silently.

use std::collections::VecDeque;

use proptest::prelude::*;

use stripe::core::control::Control;
use stripe::core::marker::{Marker, MARKER_WIRE_LEN};
use stripe::core::sched::{CausalScheduler, ChannelMark, Srr};
use stripe::core::sender::{MarkerConfig, StripingSender};
use stripe::ip::frag::{fragment, Fragment, Reassembler, ReassemblyEvent};
use stripe::ip::header::{checksum, Ipv4Header, IPV4_HEADER_LEN};
use stripe::link::eth::{EtherFrame, EtherType};
use stripe::link::serial::{hdlc_stuff, hdlc_unstuff};
use stripe::link::{datagram_pair, DatagramLink, Train, TxError};
use stripe::net::bundle;
use stripe::net::frame::{
    self, Body, DecodeError, Frame, FRAME_MAGIC, FRAME_VERSION, KIND_CONTROL,
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
/// built a `Frame` for every datagram of versions 1 and 2, unnumbered data
/// and padded control included. Kept verbatim as the reference the
/// layered decoders are compared against — value, flow, and `Malformed`
/// versus `Corrupt` — on every datagram but those of the kinds it knew
/// and the wire format has since retired.
mod reference {
    use super::frame::{
        crc8, DecodeError, Frame, FRAME_HEADER_LEN, FRAME_MAGIC, FRAME_VERSION, FRAME_VERSION_FLOW,
        KIND_CONTROL, MAX_FLOW_ID_LEN,
    };
    use stripe::core::control::Control;

    /// The retired kinds of versions 1 and 2, as this decoder knew them:
    /// unnumbered data, padded control (a `u16` LE length, that many
    /// control bytes, then padding) and checksummed unnumbered data (the
    /// payload, then a CRC-8 of it).
    pub const KIND_DATA: u8 = 0;
    pub const KIND_CONTROL_PADDED: u8 = 2;
    pub const KIND_DATA_SUMMED: u8 = 3;
    /// The padded-control length prefix.
    pub const PAD_LEN_PREFIX: usize = 2;

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

/// Whether `wire` is headed as a frame of a retired kind: version 1 or 2,
/// unnumbered data (summed or not) or padded control. The wire format
/// refuses them all as malformed, whatever their bodies; the reference
/// decodes them.
fn is_retired_kind(wire: &[u8]) -> bool {
    use reference::{KIND_CONTROL_PADDED, KIND_DATA, KIND_DATA_SUMMED};
    wire.len() >= 3
        && wire[0] == FRAME_MAGIC
        && matches!(wire[1], 1 | 2)
        && matches!(wire[2], KIND_DATA | KIND_CONTROL_PADDED | KIND_DATA_SUMMED)
}

/// The layered decoders on a datagram of a retired kind: malformed
/// through every entry point, and no data frame to the fault layer.
fn assert_retired_kind_is_malformed(wire: &[u8]) {
    use DecodeError::Malformed;
    assert_eq!(frame::parse(wire).err(), Some(Malformed), "{wire:02x?}");
    assert_eq!(frame::try_decode_flow(wire).err(), Some(Malformed));
    assert_eq!(frame::parse_v1(wire).err(), Some(Malformed));
    assert_eq!(frame::try_decode(wire).err(), Some(Malformed));
    assert_eq!(frame::decode(wire), None);
    assert!(!frame::is_data_frame(wire), "{wire:02x?}");
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
/// says, and one of a retired kind, which is malformed.
fn assert_decoders_match_reference(wire: &[u8]) {
    if is_numbered(wire) {
        return assert_numbered_decodes_as_specified(wire);
    }
    if is_retired_kind(wire) {
        return assert_retired_kind_is_malformed(wire);
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
        // Version 1: flow 0, the control message right after the header.
        (
            vec![0xC5, 1, 1, 5, 0, 0, 0, 0, 0, 0, 0, 42],
            Golden::Control(0, Control::Probe { nonce: 42 }),
        ),
        (
            cat(&[0xC5, 1, 1], &MARKER_MSG),
            Golden::Control(0, golden_marker()),
        ),
        // Version 2: LEB128 flow id between header and message.
        (
            cat(&[0xC5, 2, 1, 0x89, 0x06], &MARKER_MSG),
            Golden::Control(777, golden_marker()),
        ),
        // The retired kinds, as earlier rounds sent them: unnumbered data
        // (kind 0) and summed data (kind 3, CRC-8/0x07 of "123456789" is
        // 0xF4) of flows 0, 5, 127, 128, 2 000 000, 9 000 and `u32::MAX`,
        // and padded control (kind 2: u16 LE length, the message, bytes
        // nobody read). Malformed, every one.
        (vec![0xC5, 1, 0, 0xAA, 0xBB], Golden::Reject(Malformed)),
        (vec![0xC5, 1, 0], Golden::Reject(Malformed)),
        (
            cat(&[0xC5, 1, 3], b"123456789\xF4"),
            Golden::Reject(Malformed),
        ),
        (vec![0xC5, 1, 3, 0x00], Golden::Reject(Malformed)),
        (
            vec![0xC5, 1, 2, 5, 0, 3, 0, 0, 0, 9, 0xEE, 0xEE, 0xEE],
            Golden::Reject(Malformed),
        ),
        (vec![0xC5, 2, 0, 0x05, 0xAA], Golden::Reject(Malformed)),
        (vec![0xC5, 2, 0, 0x7F], Golden::Reject(Malformed)),
        (
            vec![0xC5, 2, 0, 0x80, 0x01, 0xAA],
            Golden::Reject(Malformed),
        ),
        (
            vec![0xC5, 2, 0, 0x80, 0x89, 0x7A, 0xAA],
            Golden::Reject(Malformed),
        ),
        (
            vec![0xC5, 2, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0xAA],
            Golden::Reject(Malformed),
        ),
        (
            cat(&[0xC5, 2, 3, 0xA8, 0x46], b"123456789\xF4"),
            Golden::Reject(Malformed),
        ),
        (
            cat(&cat(&[0xC5, 2, 2, 0x89, 0x06, 25, 0], &MARKER_MSG), &[0; 7]),
            Golden::Reject(Malformed),
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
        // Retired summed data, too short for its trailer or with one
        // that disagrees: malformed like the rest of its kind, never
        // corrupt.
        (vec![0xC5, 1, 3], Golden::Reject(Malformed)),
        (vec![0xC5, 2, 3, 0x05], Golden::Reject(Malformed)),
        (
            cat(&[0xC5, 1, 3], b"123456789\xF5"),
            Golden::Reject(Malformed),
        ),
        (
            cat(&[0xC5, 2, 3, 0x05], b"123456788\xF4"),
            Golden::Reject(Malformed),
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
        // Retired padded control whose prefix is missing, half there, or
        // claims more than came.
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
/// layered decoders and — version 3, which it predates, and the kinds
/// since retired apart — the reference alike; a version-1 decoder refuses
/// every flow-tagged vector as malformed, whatever else is wrong with it.
#[test]
fn golden_vectors_decode_as_specified() {
    for (wire, want) in golden_vectors() {
        assert_decoders_match_reference(&wire);
        let got = frame::try_decode_flow(&wire);
        // The fault layer's peek agrees with the decoder on what is data.
        let is_data = matches!(want, Golden::Numbered(..));
        assert!(!is_data || frame::is_data_frame(&wire), "{wire:02x?}");
        assert!(!matches!(want, Golden::Control(..)) || !frame::is_data_frame(&wire));
        match want {
            Golden::Numbered(flow, (round, dc), body) => {
                assert_eq!(got, Ok((flow, Frame::Data(body))), "{wire:02x?}");
                let p = frame::parse(&wire).unwrap();
                let number = ChannelMark {
                    round: round as u64,
                    dc: dc as i64,
                };
                assert_eq!(p.number(&wire, round as u64), Some(number), "{wire:02x?}");
                assert_eq!(p.body, Body::Data);
            }
            Golden::Control(flow, c) => {
                assert_eq!(got, Ok((flow, Frame::Control(c))), "{wire:02x?}");
                let p = frame::parse(&wire).unwrap();
                assert_eq!(p.number(&wire, 0), None, "control states no number");
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

/// A version-1 or -2 data frame of flow `flow` (0 for version 1), as
/// senders of earlier rounds put it on the wire: header, varint flow id,
/// payload, and summed a CRC-8 of the payload.
fn unnumbered_data(version: u8, flow: u32, payload: &[u8], summed: bool) -> Vec<u8> {
    use reference::{KIND_DATA, KIND_DATA_SUMMED};
    let kind = if summed { KIND_DATA_SUMMED } else { KIND_DATA };
    let mut wire = vec![FRAME_MAGIC, version, kind];
    if version == frame::FRAME_VERSION_FLOW {
        push_leb128(flow, &mut wire);
    }
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
        reference::KIND_CONTROL_PADDED,
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
        0 => wire = unnumbered_data(2, flow, &payload, false),
        1 | 2 => wire = unnumbered_data(2, flow, &payload, true),
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
        5 => wire = unnumbered_data(1, 0, &payload, true),
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
    /// Marker frames refused as out of reach (a data frame's number is
    /// judged at the head of its channel, and nothing below polls).
    ahead: u64,
    /// Datagrams headed as version 3, and as a retired kind.
    numbered: u64,
    retired: u64,
    /// Datagrams counted, each once: malformed, corrupt, data (admitted
    /// or refused) or control.
    datagrams: u64,
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

    fn data(&mut self, flow: u32) {
        match self.admit(flow) {
            true => self.counts.2 += 1,
            false => self.counts.4 += 1,
        }
    }

    /// What the one-pass decoder makes of `wire` on channel `c`.
    fn reference(&mut self, c: usize, wire: &[u8]) {
        self.datagrams += 1;
        match reference::try_decode_flow(wire) {
            Err(DecodeError::Malformed) => self.counts.0[c] += 1,
            Err(DecodeError::Corrupt) => self.counts.1[c] += 1,
            Ok((flow, Frame::Data(_))) => self.data(flow),
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

    /// What the wire format says: the same, but that version 3 means what
    /// `numbered_spec` says and a retired kind is malformed.
    fn specified(&mut self, c: usize, wire: &[u8]) {
        if is_retired_kind(wire) {
            self.retired += 1;
            self.datagrams += 1;
            self.counts.0[c] += 1;
            return;
        }
        if !is_numbered(wire) {
            return self.reference(c, wire);
        }
        self.numbered += 1;
        self.datagrams += 1;
        match numbered_spec(wire) {
            Ok((flow, ..)) => self.data(flow),
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
    assert_eq!(s.dropped_mark_ahead, now.ahead);
    assert_eq!((now.datagrams, then.datagrams), (4000, 4000));
    (now, then)
}

/// What moved between the one-pass decoder's counts of a stream and the
/// wire format's: no datagram but a version-3 one is data now, and what
/// is malformed now and was not then is of a retired kind.
fn assert_moved_as_specified(now: &Tally, then: &Tally) {
    let malformed = |t: &Tally| t.counts.0[0] + t.counts.0[1];
    assert!(now.counts.2 <= now.numbered, "data that is not version 3");
    assert!(malformed(now) <= malformed(then) + now.retired);
    assert!(
        then.counts.2 > 0 && now.retired > 0,
        "the stream draws retired data"
    );
}

/// Seeded streams of clean, bit-flipped, truncated and random datagrams
/// through `FlowDemux::sweep`. The first is the stream recorded on the
/// one-pass decoder, of the kinds since retired; the second also draws
/// clean numbered frames, blank and stating a number. Under the one-pass
/// decoder their totals are the literals they always were. The demux
/// counts each as derived from that decoder, `numbered_spec` and "a
/// retired kind is malformed", channel by channel and datagram by
/// datagram (`dirty_stream`).
#[test]
fn seeded_dirty_stream_counts_are_unchanged() {
    let (now, then) = dirty_stream(7, 0x16_D1FF);
    assert_eq!(then.counts, RECORDED_ON_THE_ONE_PASS_DECODER);
    assert_moved_as_specified(&now, &then);
    assert!(
        now.numbered > 0,
        "a flipped bit turned a frame into version 3"
    );

    let (now, then) = dirty_stream(9, 0x17_D1FF);
    assert_eq!(then.counts, NUMBERED_DRAWN_ON_THE_ONE_PASS_DECODER);
    assert_moved_as_specified(&now, &then);
    assert!(now.counts.2 > 0, "numbered data is delivered");
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
    assert_eq!(s.data_frames, CHANNELS as u64);
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
/// `(malformed, data frames, refused ahead, clamped, delivered)`.
type NumberOutcome = [u64; 5];

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
            [0, 1, 0, 0, 1],
        ),
        (
            "round offset 0",
            Box::new(move |g| numbered(g, 700)),
            [0, 1, 0, 0, 1],
        ),
        (
            "round offset 2^15 - 1",
            Box::new(move |g| numbered(g + 0x7FFF, 1500)),
            [0, 1, 1, 0, 1],
        ),
        (
            "round offset 2^15",
            Box::new(move |g| numbered(g + 0x8000, 1500)),
            [0, 1, 0, 0, 1],
        ),
        (
            "round offset 2^16 - 1",
            Box::new(move |g| numbered(g + 0xFFFF, 1500)),
            [0, 1, 0, 0, 1],
        ),
        ("dc 0", Box::new(move |g| numbered(g, 0)), [0, 1, 0, 1, 1]),
        (
            "dc negative, stated as 0",
            Box::new(move |g| numbered(g, -5)),
            [0, 1, 0, 1, 1],
        ),
        (
            "dc past the quantum",
            Box::new(move |g| numbered(g, 1_000_000)),
            [0, 1, 0, 1, 1],
        ),
        (
            "dc u32::MAX",
            Box::new(move |g| numbered(g, i64::MAX)),
            [0, 1, 0, 1, 1],
        ),
        (
            "dc over-long",
            Box::new(move |_| cat(&[&head, &[1, 0], &[0x80; 5], &[1, 0xAB]])),
            [1, 0, 0, 0, 0],
        ),
        (
            "dc too wide",
            Box::new(move |_| cat(&[&head, &[1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]])),
            [1, 0, 0, 0, 0],
        ),
        (
            "number cut after its round",
            Box::new(move |_| cat(&[&head, &[1, 0]])),
            [1, 0, 0, 0, 0],
        ),
        (
            "number cut in its round",
            Box::new(move |_| cat(&[&head, &[1]])),
            [1, 0, 0, 0, 0],
        ),
        (
            "no number",
            Box::new(move |_| head.to_vec()),
            [1, 0, 0, 0, 0],
        ),
        (
            "dc cut short",
            Box::new(move |_| cat(&[&head, &[1, 0, 0x80]])),
            [1, 0, 0, 0, 0],
        ),
        (
            "a flag no frame has",
            Box::new(move |_| cat(&[&[FRAME_MAGIC, 3, 0x80, 3], &[1, 0, 0x0B]])),
            [1, 0, 0, 0, 0],
        ),
        (
            "a number on a marker frame",
            Box::new(move |g| {
                let mut wire = Vec::new();
                let mk = Control::Marker(Marker::sync(0, ChannelMark { round: g, dc: 1500 }));
                frame::encode_control_flow_into(3, &mk, &mut wire);
                cat(&[&wire[..4], &[1, 0, 0xDC, 0x0B], &wire[4..]])
            }),
            [1, 0, 0, 0, 0],
        ),
        (
            "a number on a control frame",
            Box::new(move |_| {
                let mut wire = Vec::new();
                frame::encode_control_into(&Control::Probe { nonce: 9 }, &mut wire);
                cat(&[&wire[..3], &[1, 0, 0xDC, 0x0B], &wire[3..]])
            }),
            [1, 0, 0, 0, 0],
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
            [0, 2, 0, 0, 2],
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
        assert_eq!((got, n as u64), (want, want[4]), "{name}");
    }
    assert_eq!(
        demux.flow_stats(3).unwrap().skips,
        0,
        "no refused number cost a skip"
    );
}

/// A link that lands trains as given — `(bytes, segment size)` — the way
/// a GRO socket hands them over, from a queue its maker keeps a handle
/// on; what is sent on it goes nowhere.
struct TrainLink(Trains);

type Trains = std::rc::Rc<std::cell::RefCell<VecDeque<(Vec<u8>, usize)>>>;

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
        while k < windows.len() {
            let Some((bytes, seg)) = self.0.borrow_mut().pop_front() else {
                break;
            };
            let w = &mut windows[k];
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
/// `(frames, data frames, control frames, malformed)`. A bundle is opened
/// once: a frame in it that starts with the magic is a frame, which the
/// frame parser refuses; a segment that starts with the magic and is no
/// bundle is one frame, malformed. A numbered frame inside a bundle is
/// routed; one of a retired kind is malformed there as anywhere.
#[test]
fn bundle_golden_vectors_decode_and_count_as_specified() {
    // Frames of a retired kind (version-2 data) of flow 5: five, six and
    // twenty bytes.
    let d1: &[u8] = &[0xC5, 2, 0, 0x05, 0xAA];
    let d2: &[u8] = &[0xC5, 2, 0, 0x05, 0xBB, 0xCC];
    let long = [&[0xC5, 2, 0, 0x05][..], &[0xDD; 16]].concat();
    // Numbered frames of flow 5, round 1, DC 1500: eight and nine bytes.
    let n1: &[u8] = &[0xC5, 3, 0, 0x05, 0x01, 0x00, 0xDC, 0x0B, 0xAA];
    let n2: &[u8] = &[0xC5, 3, 0, 0x05, 0x01, 0x00, 0xDC, 0x0B, 0xBB, 0xCC];
    let cat = |parts: &[&[u8]]| parts.concat();
    #[allow(clippy::type_complexity)]
    let vectors: Vec<(&str, Vec<u8>, usize, Vec<&[u8]>, [u64; 4])> = vec![
        (
            "escape of one",
            vec![0xB5, 1, 2, 0, 0xB5, 0x07],
            6,
            vec![&[0xB5, 0x07]],
            [1, 0, 0, 1],
        ),
        (
            "two frames",
            cat(&[&[0xB5, 2, 5, 0, 6, 0], d1, d2]),
            17,
            vec![d1, d2],
            [2, 0, 0, 2],
        ),
        (
            "two numbered frames",
            cat(&[&[0xB5, 2, 9, 0, 10, 0], n1, n2]),
            25,
            vec![n1, n2],
            [2, 2, 0, 0],
        ),
        (
            "padded, in mid-train",
            cat(&[&long, &[0xB5, 1, 5, 0], d1, &[0; 11], &long]),
            20,
            vec![&long, d1, &long],
            [3, 0, 0, 3],
        ),
        (
            "the shorter last segment",
            cat(&[&long, &[0xB5, 2, 5, 0, 6, 0], d1, d2]),
            20,
            vec![&long, d1, d2],
            [3, 0, 0, 3],
        ),
        (
            "a frame that is no frame, beside one that is",
            cat(&[&[0xB5, 2, 2, 0, 5, 0, 0x00, 0x01], d1]),
            13,
            vec![&[0x00, 0x01], d1],
            [2, 0, 0, 2],
        ),
        // Malformed: count 0, lengths overrunning the segment, a header
        // cut short, the magic alone.
        (
            "count 0",
            cat(&[&[0xB5, 0], d1]),
            7,
            vec![&[0xB5, 0, 0xC5, 2, 0, 0x05, 0xAA]],
            [1, 0, 0, 1],
        ),
        (
            "lengths overrun",
            cat(&[&[0xB5, 1, 6, 0], d1]),
            9,
            vec![&[0xB5, 1, 6, 0, 0xC5, 2, 0, 0x05, 0xAA]],
            [1, 0, 0, 1],
        ),
        (
            "truncated header",
            vec![0xB5, 2, 5],
            3,
            vec![&[0xB5, 2, 5]],
            [1, 0, 0, 1],
        ),
        (
            "the magic alone",
            vec![0xB5],
            1,
            vec![&[0xB5]],
            [1, 0, 0, 1],
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
            .link(TrainLink(Trains::new(
                VecDeque::from([(bytes, seg)]).into(),
            )))
            .build();
        assert_eq!(demux.sweep(SimTime::ZERO), want.len(), "{name}");
        let FlowDemuxSnapshot {
            frames,
            data_frames,
            control_frames,
            dropped_malformed,
            ..
        } = demux.net_stats();
        assert_eq!(
            [frames, data_frames, control_frames, dropped_malformed],
            counts,
            "{name}"
        );
    }
}

/// A quantum announce whose quanta are positive, one per channel, but
/// wider than any `dc` a data frame can state, then numbered frames of a
/// flow with one lost, so that the replica skips. Applied, the forged
/// quantum is credited to the channel the skip passes over and again on
/// its next turn, which overflowed the scheduler's deficit counter inside
/// `poll_flow_into` (it wraps in a release build). Refused at the
/// responder: nothing is acked, the quanta stay as they were, and every
/// survivor is delivered, in order.
#[test]
fn a_forged_quantum_is_refused_before_it_can_overflow_a_replica() {
    const CHANNELS: usize = 2;
    let (mut tx, rx): (Vec<_>, Vec<_>) = (0..CHANNELS).map(|_| datagram_pair(2048, 64)).unzip();
    let mut demux = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(rx)
        .build();
    assert!(demux.touch_flow(3));
    let mut wire = Vec::new();
    let forged = Control::QuantumAnnounce {
        epoch: 1,
        effective_round: 2,
        quanta: vec![i64::MAX; CHANNELS],
    };
    frame::encode_control_into(&forged, &mut wire);
    tx[0].send_frame(&wire).unwrap();
    // An honest sender's five packets: channels 0, 1, 0, 1, 0 over rounds
    // 1 to 3. The third is lost, so the replica meets round 3's number at
    // the head of channel 0 in round 2 and skips it.
    let mut sender = StripingSender::new(Srr::equal(CHANNELS, 1500), MarkerConfig::disabled());
    let (mut chans, mut numbers, mut markers) = (Vec::new(), Vec::new(), Vec::new());
    sender.send_batch_numbered(&[1500; 5], &mut chans, &mut numbers, &mut markers);
    assert_eq!(chans, [0, 1, 0, 1, 0]);
    for (i, (&c, &number)) in chans.iter().zip(&numbers).enumerate() {
        if i != 2 {
            frame::encode_data_flow_into(3, &[i as u8; 1500], &mut wire);
            assert!(frame::write_number(&mut wire, number));
            tx[c].send_frame(&wire).unwrap();
        }
    }
    assert_eq!(demux.sweep(SimTime::ZERO), 5);
    let mut batch = stripe::core::receiver::RxBatch::new();
    assert_eq!(demux.poll_flow_into(3, &mut batch), 4);
    let got: Vec<u8> = batch.drain().map(|pb| pb.as_slice()[0]).collect();
    assert_eq!(got, [0, 1, 3, 4]);
    let (s, r) = (demux.net_stats(), demux.flow_stats(3).unwrap());
    assert_eq!(
        (s.control_frames, s.replies_sent),
        (1, 0),
        "counted, not acked"
    );
    assert!(tx.iter_mut().all(|l| l.recv_frame(&mut [0; 64]).is_none()));
    assert!(r.skips >= 1, "the replica skipped");
    let sched = demux.flow_receiver(3).unwrap().scheduler();
    assert_eq!((sched.quantum(0), sched.quantum(1)), (1500, 1500));
}

/// How one datagram of the control fuzz table is shaped: the frame alone,
/// or inside a bundle — a well-formed bundle of one (the escape), a count
/// of 0, a length that overruns the segment, or an escaped bundle inside
/// a bundle, which is opened one level only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Plain,
    BundleOfOne,
    CountZero,
    Overrun,
    Nested,
}

impl Shape {
    const ALL: [Shape; 5] = [
        Shape::Plain,
        Shape::BundleOfOne,
        Shape::CountZero,
        Shape::Overrun,
        Shape::Nested,
    ];

    fn wrap(self, frame: &[u8]) -> Vec<u8> {
        let bundle = |count: u8, len: usize, body: &[u8]| {
            [
                &[bundle::MAGIC, count][..],
                &(len as u16).to_le_bytes(),
                body,
            ]
            .concat()
        };
        match self {
            Shape::Plain => frame.to_vec(),
            Shape::BundleOfOne => bundle(1, frame.len(), frame),
            Shape::CountZero => [&[bundle::MAGIC, 0][..], frame].concat(),
            Shape::Overrun => bundle(1, frame.len() + 1, frame),
            Shape::Nested => {
                let inner = bundle(1, frame.len(), frame);
                bundle(1, inner.len(), &inner)
            }
        }
    }

    /// Whether the frame inside reaches the parser whole and alone.
    fn opens(self) -> bool {
        matches!(self, Shape::Plain | Shape::BundleOfOne)
    }
}

/// The control half of the fuzz table, through `FlowDemux::sweep` one
/// datagram at a time, round-robin over three channels: every `Control`
/// variant and its extreme values — epochs, rounds, nonces at their
/// largest, a live mask of 0 and of all ones, quanta of `i64::MAX` and
/// none at all, marks at both ends of `i64` and past the last channel —
/// as version 1 and as version 2, clean and cut at every byte; beside
/// them one row per kind versions 1 and 2 no longer have (the retired 0,
/// 2 and 3) or never had (4–255); and each of those in every bundle
/// shape. Every datagram returns, is one frame, and is counted exactly
/// once on its channel: as control if it is a whole message that opens
/// whole, as malformed otherwise. Nothing allocates but a membership or
/// quantum announce that opens whole, and that once: the one vector it
/// carries to the replicas (a decoded announce owns its quanta).
#[test]
fn every_control_frame_in_every_bundle_shape_returns_and_is_counted_once() {
    const CHANNELS: usize = 3;
    let feeds: Vec<Trains> = (0..CHANNELS).map(|_| Trains::default()).collect();
    let mut demux = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(feeds.iter().map(|q| TrainLink(q.clone())).collect())
        .capacity_per_channel(64)
        .build();
    for flow in [0, 3] {
        assert!(demux.touch_flow(flow));
        demux.reserve_flow(flow, 4);
    }
    let mut batch = stripe::core::receiver::RxBatch::with_capacity(8);
    let mut controls = every_control_variant();
    controls.extend([
        Control::Marker(Marker {
            channel: 0,
            mark: ChannelMark {
                round: u64::MAX,
                dc: i64::MAX,
            },
            credit: Some(u32::MAX),
        }),
        Control::Marker(Marker::sync(
            2,
            ChannelMark {
                round: 0,
                dc: i64::MIN,
            },
        )),
        Control::ResetRequest { epoch: u32::MAX },
        Control::ResetAck { epoch: 0 },
        Control::Probe { nonce: 0 },
        Control::ProbeAck {
            nonce: 0,
            incarnation: u64::MAX,
        },
        Control::DesyncAlert {
            incarnation: u64::MAX,
        },
        Control::Membership {
            epoch: 0,
            live_mask: u16::MAX,
            effective_round: u64::MAX,
        },
        Control::Membership {
            epoch: 8,
            live_mask: 0b101,
            effective_round: u64::MAX,
        },
        Control::MembershipAck { epoch: u32::MAX },
        Control::QuantumAnnounce {
            epoch: u32::MAX,
            effective_round: u64::MAX,
            quanta: vec![i64::MAX; CHANNELS],
        },
        Control::QuantumAnnounce {
            epoch: 12,
            effective_round: 0,
            quanta: vec![],
        },
        Control::QuantumAck { epoch: 0 },
    ]);
    let mut messages: Vec<Vec<u8>> = controls.iter().map(Control::encode).collect();
    // A live mask of 0, which no encoder writes.
    let mut no_channel = Control::Membership {
        epoch: u32::MAX,
        live_mask: 1,
        effective_round: u64::MAX,
    }
    .encode();
    no_channel[5..7].fill(0);
    messages.push(no_channel);
    // (frame, a whole message: what it decodes to).
    let mut rows: Vec<(Vec<u8>, Option<Control>)> = Vec::new();
    for msg in &messages {
        let v1 = [&[FRAME_MAGIC, FRAME_VERSION, KIND_CONTROL][..], msg].concat();
        let v2 = [
            &[FRAME_MAGIC, frame::FRAME_VERSION_FLOW, KIND_CONTROL, 3][..],
            msg,
        ]
        .concat();
        for wire in [v1, v2] {
            let clean = Control::decode(msg);
            for cut in 0..wire.len() {
                rows.push((wire[..cut].to_vec(), None));
            }
            rows.push((wire, clean));
        }
    }
    let probe = Control::Probe { nonce: 7 }.encode();
    for version in [FRAME_VERSION, frame::FRAME_VERSION_FLOW] {
        for kind in (0..=u8::MAX).filter(|&k| k != KIND_CONTROL) {
            let mut wire = vec![FRAME_MAGIC, version, kind];
            if version == frame::FRAME_VERSION_FLOW {
                wire.push(3);
            }
            wire.extend_from_slice(&probe);
            rows.push((wire, None));
        }
    }
    // Warm the path: the first reply, membership and quantum change grow
    // what they grow.
    for warm in &controls {
        let mut wire = Vec::new();
        frame::encode_control_into(warm, &mut wire);
        feeds[0].borrow_mut().push_back((wire.clone(), wire.len()));
        demux.sweep(SimTime::ZERO);
    }
    for q in &feeds {
        q.borrow_mut().reserve(4);
    }

    let counts = |d: &FlowDemux<Srr, TrainLink>, c: usize| {
        let s = d.net_stats();
        let (m, k) = (d.malformed_by_channel(), d.corrupt_by_channel());
        let elsewhere: u64 = (0..CHANNELS).filter(|&o| o != c).map(|o| m[o] + k[o]).sum();
        [
            s.frames,
            s.control_frames,
            m[c],
            k[c] + s.data_frames,
            elsewhere,
        ]
    };
    let mut i = 0;
    for (frame, clean) in &rows {
        for shape in Shape::ALL {
            let c = i % CHANNELS;
            i += 1;
            let datagram = shape.wrap(frame);
            let len = datagram.len();
            feeds[c].borrow_mut().push_back((datagram, len));
            let before = counts(&demux, c);
            let a0 = allocations();
            assert_eq!(demux.sweep(SimTime::ZERO), 1, "{shape:?} {frame:02x?}");
            for flow in [0, 3] {
                demux.poll_flow_into(flow, &mut batch);
            }
            let allocated = allocations() - a0;
            assert!(batch.is_empty(), "control delivered data");
            let after = counts(&demux, c);
            let got: [u64; 5] = std::array::from_fn(|k| after[k] - before[k]);
            let acted_on = matches!(
                clean,
                Some(Control::Membership { .. } | Control::QuantumAnnounce { .. })
            );
            let want = match clean.is_some() && shape.opens() {
                true => [1, 1, 0, 0, 0],
                false => [1, 0, 1, 0, 0],
            };
            assert_eq!(got, want, "{shape:?} {frame:02x?}");
            let bound = (acted_on && shape.opens()) as u64;
            assert!(
                allocated <= bound,
                "{shape:?} {frame:02x?}: {allocated} allocations"
            );
        }
    }
}

/// `(malformed per channel, corrupt per channel, data frames, control
/// frames, refused)` of the first stream above, as counted by the demux
/// at the commit before `frame::parse` existed.
const RECORDED_ON_THE_ONE_PASS_DECODER: StreamCounts = ([545, 591], [330, 315], 1018, 823, 517);

/// … and of the second, as the one-pass decoder counts it: every
/// version-3 frame an unknown version.
const NUMBERED_DRAWN_ON_THE_ONE_PASS_DECODER: StreamCounts =
    ([888, 856], [246, 296], 780, 641, 417);

proptest! {
    /// Arbitrary bytes — raw, and behind a plausible header so the
    /// deeper checks are reached — decode exactly as the reference says,
    /// or, headed as version 3, as `numbered_spec` says, or, headed as a
    /// retired kind, not at all.
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
}
