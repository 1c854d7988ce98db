//! Differential properties of the one real-socket send path and its
//! versioned (flow-tagged) wire format.
//!
//! 1. **Datapath equivalence.** A one-flow [`StripeServer`] makes
//!    exactly the striping decisions of a bare [`StripingSender`] fed
//!    the same lengths in one batch — same channels, same marker
//!    schedule — and puts exactly those payloads and markers on each
//!    channel's wire, in order, as flow-0 version-2 frames. The oracle
//!    shares no framing, queueing, DRR, or link code with the server.
//! 2. **Regrouping is invisible per flow.** A many-flow server stages
//!    each pump per channel and emits it regrouped by wire length; the
//!    *offer-order emitter* it replaced — DRR turns, each flow's frames
//!    and markers handed to the links as its SRR produces them — lives
//!    on here as the oracle. For every (flow, channel) the wire
//!    subsequence of data *and* markers equals the oracle's; with one
//!    flow or one length the whole wire is byte-identical to it; events
//!    stay in offer order; and a refused frame's error lands on its own
//!    event and its own flow's counters, whichever frames the
//!    regrouping pushed past a full queue.
//! 3. **Codec coexistence.** A mixed stream of version-1 and version-2
//!    frames decodes under the one shared [`try_decode_flow`] entry:
//!    v1 frames land on flow 0, v2 frames on their tagged flow, and the
//!    body survives byte-for-byte either way.
//!
//! [`try_decode_flow`]: stripe::net::frame::try_decode_flow

use std::collections::VecDeque;

use proptest::prelude::*;

use stripe::core::control::Control;
use stripe::core::sched::{Drr, Srr};
use stripe::core::sender::{MarkerConfig, StripingSender};
use stripe::core::Marker;
use stripe::link::{datagram_pair, DatagramLink, TestDatagramLink, TxError};
use stripe::net::frame::{self, Frame, FRAME_VERSION_FLOW};
use stripe::net::{FlowId, PumpEvent, StripeServer};
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

/// An in-memory link that can be dead (`LinkDown` for every frame) and
/// can claim to coalesce (so the server pads its markers).
struct FlakyLink {
    inner: TestDatagramLink,
    down: bool,
    coalesce: bool,
}

impl DatagramLink for FlakyLink {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TxError> {
        if self.down {
            return Err(TxError::LinkDown);
        }
        self.inner.send_frame(frame)
    }

    fn send_run_owned(&mut self, frames: &mut [Vec<u8>], out: &mut Vec<Result<(), TxError>>) {
        if self.down {
            out.extend(frames.iter().map(|_| Err(TxError::LinkDown)));
        } else {
            self.inner.send_run_owned(frames, out);
        }
    }

    fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize> {
        self.inner.recv_frame(buf)
    }

    fn mtu(&self) -> usize {
        self.inner.mtu()
    }

    fn coalesce_hint(&self) -> bool {
        self.coalesce
    }
}

/// The offer-order emitter: the two-level scheduling loop of
/// `StripeServer::pump_into` with nothing behind it — what is offered,
/// by which flow, to which channel, in what order. Shares the DRR and
/// the per-flow striping engine with the server, and nothing else.
struct OfferOrder {
    drr: Drr,
    flows: Vec<OracleFlow>,
}

/// One flow of the oracle: its engine and its queued packets (global
/// index, length).
type OracleFlow = (StripingSender<Srr>, VecDeque<(usize, usize)>);

impl OfferOrder {
    fn new(flows: usize, flow_quantum: i64, proto: &Srr, markers: MarkerConfig) -> Self {
        let mut drr = Drr::new(flow_quantum);
        (0..flows).for_each(|f| drr.register(f));
        let flows = (0..flows)
            .map(|_| (StripingSender::new(proto.clone(), markers), VecDeque::new()))
            .collect();
        Self { drr, flows }
    }

    fn enqueue(&mut self, flow: usize, pkt: usize, len: usize) {
        self.flows[flow].1.push_back((pkt, len));
        self.drr.activate(flow);
    }

    /// One pump of at most `budget` packets: `(flow, channel, item)` in
    /// offer order.
    fn pump(&mut self, budget: usize) -> Vec<(FlowId, usize, Item)> {
        let mut offers = Vec::new();
        let mut served = 0;
        while served < budget {
            let Some(fid) = self.drr.begin_turn() else {
                break;
            };
            let (tx, queue) = &mut self.flows[fid];
            let mut turn = Vec::new();
            while served + turn.len() < budget {
                let Some(&(pkt, len)) = queue.front() else {
                    break;
                };
                if self.drr.deficit(fid) < len as i64 {
                    break;
                }
                self.drr.charge(fid, len as i64);
                queue.pop_front();
                turn.push((pkt, len));
            }
            let lens: Vec<usize> = turn.iter().map(|&(_, len)| len).collect();
            let (mut chans, mut marks) = (Vec::new(), Vec::new());
            tx.send_batch(&lens, &mut chans, &mut marks);
            let mut m = marks.iter().peekable();
            for (i, (&(pkt, _), &channel)) in turn.iter().zip(&chans).enumerate() {
                offers.push((fid as FlowId, channel, Item::Data(pkt)));
                while let Some(&(_, channel, marker)) = m.next_if(|&&(after, _, _)| after == i) {
                    offers.push((fid as FlowId, channel, Item::Marker(marker)));
                }
            }
            served += turn.len();
            self.drr.end_turn(fid, !queue.is_empty());
        }
        offers
    }
}

/// Packet `pkt`'s payload: its index, then a fill the index determines.
fn stamped(pkt: usize, len: usize) -> Vec<u8> {
    let mut p = vec![(pkt % 251) as u8; len];
    p[..4].copy_from_slice(&(pkt as u32).to_be_bytes());
    p
}

proptest! {
    /// Many flows through the staging, regrouping server against the
    /// offer-order emitter, pump by pump, over links that refuse frames
    /// for every reason a link can.
    #[test]
    fn regrouped_wire_is_the_offer_order_per_flow_and_channel(
        (flows, channels) in (1usize..=16, 2usize..=4),
        classes in prop::collection::vec(4usize..1200, 1..=4),
        packets in prop::collection::vec((0usize..16, 0usize..4), 1..240),
        (quantum, flow_quantum) in (300i64..3000, 64i64..4096),
        marker_rounds in 0u64..6,
        budgets in prop::collection::vec(1usize..80, 1..6),
        (queue_cap, small_mtu, coalesce) in (1usize..48, any::<bool>(), any::<bool>()),
        down in prop::option::of(0usize..4),
    ) {
        let markers = match marker_rounds {
            0 => MarkerConfig::disabled(),
            n => MarkerConfig::every_rounds(n),
        };
        // Half the cases cut the MTU under the long classes (`TooBig`);
        // a marker always fits.
        let mtu = if small_mtu { 600 } else { 2048 };
        let (mut tx_links, mut rx_links) = (Vec::new(), Vec::new());
        for c in 0..channels {
            let (a, b) = datagram_pair(mtu, queue_cap);
            tx_links.push(FlakyLink { inner: a, down: down == Some(c), coalesce });
            rx_links.push(b);
        }
        let proto = Srr::equal(channels, quantum);
        let mut server = StripeServer::builder()
            .scheduler(proto.clone())
            .markers(markers)
            .links(tx_links)
            .queue_frames(packets.len())
            .flow_quantum(flow_quantum)
            .build();
        let handles: Vec<_> = (0..flows).map(|_| server.open_flow().expect("admitted")).collect();
        let mut oracle = OfferOrder::new(flows, flow_quantum, &proto, markers);

        let lens: Vec<usize> = packets.iter().map(|&(_, k)| classes[k % classes.len()]).collect();
        for (pkt, &(f, _)) in packets.iter().enumerate() {
            let flow = f % flows;
            server.enqueue(handles[flow], &stamped(pkt, lens[pkt])).expect("queue sized for all");
            oracle.enqueue(flow, pkt, lens[pkt]);
        }
        let uniform = flows == 1 || (classes.len() == 1 && marker_rounds == 0);

        // What every flow's counters must end at, from the events alone.
        let mut want_stats = vec![[0u64; 5]; flows]; // sent, queue, lost, markers, markers lost
        let mut events = Vec::new();
        let mut reference = Vec::new();
        for budget in budgets.into_iter().chain(std::iter::once(usize::MAX)) {
            let served = server.pump_into(SimTime::ZERO, budget, &mut events);
            let offers = oracle.pump(budget);
            prop_assert_eq!(served, offers.iter().filter(|o| matches!(o.2, Item::Data(_))).count());

            // (iii) Events are the offers, in offer order.
            prop_assert_eq!(events.len(), offers.len());
            let mut kept: Vec<Vec<&(FlowId, usize, Item)>> = vec![Vec::new(); channels];
            for (ev, offer) in events.iter().zip(&offers) {
                let (flow, channel, error) = match (*ev, &offer.2) {
                    (PumpEvent::Data { flow, channel, error }, Item::Data(_)) => (flow, channel, error),
                    (PumpEvent::Marker { flow, channel, marker, error }, Item::Marker(want)) => {
                        prop_assert_eq!(&marker, want);
                        (flow, channel, error)
                    }
                    (ev, item) => return Err(TestCaseError::fail(format!("{ev:?} vs {item:?}"))),
                };
                prop_assert_eq!((flow, channel), (offer.0, offer.1), "offer order diverges");
                // The error is the one this very frame must have met.
                let stats = &mut want_stats[flow as usize];
                match (&offer.2, error) {
                    (_, Some(e)) if down == Some(channel) => prop_assert_eq!(e, TxError::LinkDown),
                    (_, None) if down == Some(channel) => prop_assert!(false, "left on a dead link"),
                    (Item::Data(pkt), e) => {
                        let too_big = frame::data_flow_frame_len(flow, lens[*pkt]) > mtu;
                        prop_assert_eq!(e == Some(TxError::TooBig), too_big);
                        prop_assert!(too_big || matches!(e, None | Some(TxError::QueueFull)));
                    }
                    (Item::Marker(_), e) => prop_assert!(matches!(e, None | Some(TxError::QueueFull))),
                }
                match (&offer.2, error) {
                    (Item::Data(_), None) => stats[0] += 1,
                    (Item::Data(_), Some(TxError::QueueFull)) => { stats[0] += 1; stats[1] += 1 }
                    (Item::Data(_), Some(_)) => { stats[0] += 1; stats[2] += 1 }
                    (Item::Marker(_), None) => stats[3] += 1,
                    (Item::Marker(_), Some(_)) => { stats[3] += 1; stats[4] += 1 }
                }
                if error.is_none() {
                    kept[channel].push(offer);
                }
            }

            // (i) Per (flow, channel) the wire is the oracle's — exactly
            // the offers whose events carry no error, in offer order.
            for (c, link) in rx_links.iter_mut().enumerate() {
                let wire = drain(link);
                prop_assert_eq!(wire.len(), kept[c].len(), "channel {} frame count", c);
                let mut cursor = vec![0usize; flows];
                for (at, f) in wire.iter().enumerate() {
                    let (flow, decoded) = frame::try_decode_flow(f).expect("well-formed frame");
                    // This flow's next kept offer on the channel.
                    let mine = &mut cursor[flow as usize];
                    while kept[c].get(*mine).is_some_and(|o| o.0 != flow) {
                        *mine += 1;
                    }
                    let Some(&(_, _, item)) = kept[c].get(*mine) else {
                        return Err(TestCaseError::fail(format!("channel {c}: flow {flow} frame from nowhere")));
                    };
                    if uniform {
                        // (ii) …and then the whole wire is in offer order.
                        prop_assert_eq!(*mine, at, "identity merge reordered channel {}", c);
                    }
                    *mine += 1;
                    reference.clear();
                    match (decoded, item) {
                        (Frame::Data(body), &Item::Data(pkt)) => {
                            prop_assert_eq!(body, &stamped(pkt, lens[pkt])[..]);
                            frame::encode_data_flow_into(flow, body, &mut reference);
                            prop_assert_eq!(f, &reference, "data frame bytes changed");
                        }
                        (Frame::Control(Control::Marker(mk)), Item::Marker(want)) => {
                            prop_assert_eq!(&mk, want);
                            frame::encode_control_flow_into(flow, &Control::Marker(mk), &mut reference);
                            prop_assert!(coalesce || f == &reference, "marker frame bytes changed");
                        }
                        (got, want) => prop_assert!(false, "channel {}: {:?} vs {:?}", c, got, want),
                    }
                }
            }
        }
        prop_assert!(handles.iter().all(|&h| server.queue_len(h) == Ok(0)), "everything was offered");
        let (mut path_queue, mut path_lost, mut path_markers_lost) = (0, 0, 0);
        for (h, want) in handles.iter().zip(&want_stats) {
            let s = server.flow_stats(*h).expect("open");
            let got = [s.sent, s.dropped_queue, s.dropped_lost, s.markers_sent, s.markers_lost];
            prop_assert_eq!(&got, want, "flow {} counters", h.id());
            path_queue += want[1];
            path_lost += want[2];
            path_markers_lost += want[4];
        }
        let path = server.stats().path;
        prop_assert_eq!(
            (path.dropped_queue, path.dropped_lost, path.markers_lost),
            (path_queue, path_lost, path_markers_lost)
        );
    }

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
