//! Differential properties of the one real-socket send path and its
//! versioned (flow-tagged) wire format.
//!
//! 1. **Datapath equivalence.** A one-flow [`StripeServer`] makes
//!    exactly the striping decisions of a bare [`StripingSender`] fed
//!    the same lengths in one batch — same channels, same marker
//!    schedule — and puts exactly those payloads and markers on each
//!    channel's wire, in order, as flow-0 version-2 frames. The oracle
//!    shares no framing, queueing, DRR, or link code with the server.
//! 2. **Codec coexistence.** A mixed stream of version-1 and version-2
//!    frames decodes under the one shared [`try_decode_flow`] entry:
//!    v1 frames land on flow 0, v2 frames on their tagged flow, and the
//!    body survives byte-for-byte either way.
//!
//! [`try_decode_flow`]: stripe::net::frame::try_decode_flow

use proptest::prelude::*;

use stripe::core::control::Control;
use stripe::core::sched::Srr;
use stripe::core::sender::{MarkerConfig, StripingSender};
use stripe::core::Marker;
use stripe::link::{datagram_pair, DatagramLink, TestDatagramLink};
use stripe::net::frame::{self, Frame, FRAME_VERSION_FLOW};
use stripe::net::{PumpEvent, StripeServer};
use stripe::netsim::SimTime;

/// What one channel carries, in order: packet `i`'s payload or a marker.
#[derive(Debug, PartialEq)]
enum Item {
    Data(usize),
    Marker(Marker),
}

/// Drain every queued frame from a receiver-side link.
fn drain(link: &mut TestDatagramLink) -> Vec<Vec<u8>> {
    let mut buf = [0u8; 4096];
    let mut out = Vec::new();
    while let Some(n) = link.recv_frame(&mut buf) {
        out.push(buf[..n].to_vec());
    }
    out
}

proptest! {
    /// One flow through the server against a bare sender engine:
    /// identical channel and marker sequences in offer order, and on
    /// every channel's wire exactly the oracle's payloads and markers,
    /// flow-tagged to flow 0.
    #[test]
    fn one_flow_server_matches_bare_sender_on_the_wire(
        lens in prop::collection::vec(1usize..1200, 1..120),
        quantum in 300i64..4000,
        marker_rounds in 1u64..8,
    ) {
        let channels = 3;
        let (s0, sr0) = datagram_pair(2048, 1 << 16);
        let (s1, sr1) = datagram_pair(2048, 1 << 16);
        let (s2, sr2) = datagram_pair(2048, 1 << 16);
        let mut server = StripeServer::builder()
            .scheduler(Srr::equal(channels, quantum))
            .markers(MarkerConfig::every_rounds(marker_rounds))
            .links(vec![s0, s1, s2])
            .build();
        let flow = server.open_flow().expect("fresh server admits a flow");
        prop_assert_eq!(flow.id(), 0u32, "the first flow is flow 0");

        let payload = |i: usize| vec![(i % 251) as u8; lens[i]];
        let mut events = Vec::new();
        for i in 0..lens.len() {
            server.enqueue(flow, &payload(i)).expect("unbounded enough");
        }
        server.pump_into(SimTime::ZERO, usize::MAX, &mut events);

        // The oracle: one bare engine, the whole burst in one batch.
        let mut oracle = StripingSender::new(
            Srr::equal(channels, quantum),
            MarkerConfig::every_rounds(marker_rounds),
        );
        let (mut chans, mut marks) = (Vec::new(), Vec::new());
        oracle.send_batch(&lens, &mut chans, &mut marks);
        let mut want_events = Vec::new();
        let mut want_wire: Vec<Vec<Item>> = (0..channels).map(|_| Vec::new()).collect();
        let mut m = marks.iter().peekable();
        for (i, &channel) in chans.iter().enumerate() {
            want_events.push(PumpEvent::Data { flow: 0, channel, error: None });
            want_wire[channel].push(Item::Data(i));
            while let Some(&(_, channel, marker)) = m.next_if(|&&(after, _, _)| after == i) {
                want_events.push(PumpEvent::Marker { flow: 0, channel, marker, error: None });
                want_wire[channel].push(Item::Marker(marker));
            }
        }
        prop_assert_eq!(&events, &want_events, "offer order diverges from the engine");

        for (c, (mut link, want)) in [sr0, sr1, sr2].into_iter().zip(want_wire).enumerate() {
            let frames = drain(&mut link);
            prop_assert_eq!(frames.len(), want.len(), "channel {} frame counts diverge", c);
            for (f, item) in frames.iter().zip(&want) {
                prop_assert_eq!(f[1], FRAME_VERSION_FLOW, "server emits v2");
                let (tag, decoded) = frame::try_decode_flow(f).expect("well-formed frame");
                prop_assert_eq!(tag, 0u32);
                match (decoded, item) {
                    (Frame::Data(body), &Item::Data(i)) => {
                        prop_assert_eq!(body, &payload(i)[..], "bodies byte-identical")
                    }
                    (Frame::Control(Control::Marker(mk)), Item::Marker(w)) => {
                        prop_assert_eq!(&mk, w)
                    }
                    (got, want) => prop_assert!(false, "channel {}: {:?} vs {:?}", c, got, want),
                }
            }
        }
    }

    /// Mixed v1/v2 streams decode under the shared entry point: flow ids
    /// route, bodies survive, and versions never confuse each other.
    #[test]
    fn mixed_version_frames_decode_to_their_flow(
        items in prop::collection::vec(
            (any::<bool>(), 0u32..1 << 21, prop::collection::vec(any::<u8>(), 0..600)),
            1..60
        ),
    ) {
        let mut wire = Vec::new();
        for (tagged, flow, payload) in &items {
            let mut buf = Vec::new();
            if *tagged {
                frame::encode_data_flow_into(*flow, payload, &mut buf);
            } else {
                frame::encode_data_into(payload, &mut buf);
            }
            wire.push(buf);
        }
        for (buf, (tagged, flow, payload)) in wire.iter().zip(items.iter()) {
            let (got_flow, decoded) =
                frame::try_decode_flow(buf).expect("clean frames decode");
            let want_flow = if *tagged { *flow } else { 0 };
            prop_assert_eq!(got_flow, want_flow);
            match decoded {
                Frame::Data(body) => prop_assert_eq!(body, &payload[..]),
                other => prop_assert!(false, "data decoded as {:?}", other),
            }
            // The v1-only entry must reject v2 frames rather than
            // misreading the varint as payload.
            let v1 = frame::try_decode(buf);
            if *tagged {
                prop_assert!(v1.is_err(), "v1 decoder must reject v2 frames");
            } else {
                prop_assert!(v1.is_ok());
            }
        }
    }
}
