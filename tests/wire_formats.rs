//! Property tests on every wire format: roundtrips for arbitrary values,
//! and corruption rejection — §5's fault model assumes corrupt packets
//! are detected and dropped, so the codecs must never panic or
//! mis-decode garbage into something "valid but wrong" silently.

use proptest::prelude::*;

use stripe::core::control::Control;
use stripe::core::marker::{Marker, MARKER_WIRE_LEN};
use stripe::core::sched::{ChannelMark, Srr};
use stripe::ip::frag::{fragment, Fragment, Reassembler, ReassemblyEvent};
use stripe::ip::header::{checksum, Ipv4Header, IPV4_HEADER_LEN};
use stripe::link::eth::{EtherFrame, EtherType};
use stripe::link::serial::{hdlc_stuff, hdlc_unstuff};
use stripe::link::{datagram_pair, DatagramLink};
use stripe::net::frame::{FRAME_MAGIC, FRAME_VERSION, KIND_CONTROL};
use stripe::net::FlowDemux;
use stripe::netsim::SimTime;

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
