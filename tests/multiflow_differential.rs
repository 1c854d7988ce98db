//! Differential properties of the one real-socket send path and its
//! versioned (flow-tagged) wire format.
//!
//! A frame that has the mark field states its own number
//! ([`KIND_DATA_MARKED`], every one of them: the placeholder kind never
//! leaves a server) and reads as that number and then the data. The
//! number must be the one a reference engine gives the packet —
//! `mark_for` its channel, just before it is served — and a mark the
//! flow's SRR offered directly ahead of the packet on that channel *is*
//! that number: it rode, and is no frame of its own. Every property
//! below is stated over this *expanded* sequence — which is what the
//! receiver acts on — and compared with an oracle in which every marker
//! is still a thing of its own and every packet has its number beside it.
//!
//! 1. **Datapath equivalence.** A one-flow [`StripeServer`] makes
//!    exactly the striping decisions of a bare [`StripingSender`] fed
//!    the same lengths in one batch — same channels, same marker
//!    schedule — and each channel's expanded wire is exactly those
//!    payloads and marks, in order, mark for mark, number for number
//!    and byte for byte, as flow-0 version-2 frames. Which frames have
//!    the mark field is the length rule and nothing else. The oracle
//!    shares no framing, queueing, DRR, or link code with the server.
//! 2. **Regrouping and carrying are invisible per flow.** A many-flow
//!    server stages each pump per channel and emits it regrouped by
//!    wire length; the *offer-order emitter* it replaced — DRR turns,
//!    each flow's frames and markers handed to the links as its SRR
//!    produces them — lives on here as the oracle. For every (flow,
//!    channel) the expanded wire subsequence of data *and* marks equals
//!    the oracle's; with one flow, or one length and no markers, the
//!    whole wire is in offer order; events stay one per offer in offer
//!    order; and a refused frame's error lands on its own event — and on
//!    the event of the mark inside it — and on its own flow's counters,
//!    whichever frames the regrouping pushed past a full queue.
//! 3. **Short payloads put the parent's bytes on the wire.** Below
//!    [`MARK_MIN_PAYLOAD`] no frame has the field, so 64-byte traffic is
//!    byte for byte what it was when every marker was a frame.
//! 4. **Loss takes a mark only with its carrier.** Under a seeded
//!    per-frame drop pattern, what [`FlowDemux`] delivers for each flow
//!    is what a bare [`LogicalReceiver`] delivers when fed the oracle's
//!    arrivals — its packets numbered where their frames are — minus the
//!    dropped frames and the marks that rode them.
//! 5. **A thousand backlogged flows share the stripe evenly.** Stopped
//!    mid-rotation with every flow still backlogged, Jain's index over
//!    the bytes each flow had delivered is at least 0.95.
//! 6. **Codec coexistence.** A mixed stream of version-1 and version-2
//!    frames decodes under the one shared [`try_decode_flow`] entry:
//!    v1 frames land on flow 0, v2 frames on their tagged flow, and the
//!    body survives byte-for-byte either way.
//!
//! [`try_decode_flow`]: stripe::net::frame::try_decode_flow
//! [`KIND_DATA_MARKED`]: stripe::net::frame::KIND_DATA_MARKED
//! [`MARK_MIN_PAYLOAD`]: stripe::net::frame::MARK_MIN_PAYLOAD

use std::collections::VecDeque;

use proptest::prelude::*;

use stripe::core::control::Control;
use stripe::core::fairness::ByteAccountant;
use stripe::core::receiver::{Arrival, LogicalReceiver, RxBatch};
use stripe::core::sched::{ChannelMark, Drr, Srr};
use stripe::core::sender::{MarkerConfig, StripingSender};
use stripe::core::types::WireLen;
use stripe::core::Marker;
use stripe::link::{datagram_pair, DatagramLink, TestDatagramLink, TxError};
use stripe::net::frame::{
    self, Body, Frame, FRAME_VERSION_FLOW, KIND_CONTROL, KIND_CONTROL_PADDED, KIND_DATA,
    KIND_DATA_MARKED, KIND_DATA_MARK_EMPTY, KIND_DATA_SUMMED, MARK_FIELD_LEN, MARK_MIN_PAYLOAD,
};
use stripe::net::{FlowDemux, FlowId, PumpEvent, StripeServer};
use stripe::netsim::{DetRng, SimTime};

/// What one channel carries, in order: packet `i`'s payload or a marker.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Item {
    Data(usize),
    Marker(Marker),
}

/// A packet as the oracle's receiver holds it: identity, length, and the
/// number its frame stated, if its frame had the field.
#[derive(Debug, Clone)]
struct Numbered {
    id: u64,
    len: usize,
    number: Option<ChannelMark>,
}

impl WireLen for Numbered {
    fn wire_len(&self) -> usize {
        self.len
    }

    fn number(&self) -> Option<ChannelMark> {
        self.number
    }
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
/// can claim to coalesce (so the server pads its marker frames).
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
/// by which flow, to which channel, in what order, every marker a thing
/// of its own. Shares the DRR and the per-flow striping engine with the
/// server, and nothing else.
struct OfferOrder {
    drr: Drr,
    flows: Vec<OracleFlow>,
    /// Per packet, once offered: the number its flow's engine gave it.
    numbers: Vec<Option<ChannelMark>>,
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
        Self {
            drr,
            flows,
            numbers: Vec::new(),
        }
    }

    fn enqueue(&mut self, flow: usize, pkt: usize, len: usize) {
        self.flows[flow].1.push_back((pkt, len));
        self.drr.activate(flow);
        self.numbers.resize(self.numbers.len().max(pkt + 1), None);
    }

    /// The number the reference engine gave packet `pkt`.
    fn number_of(&self, pkt: usize) -> ChannelMark {
        self.numbers[pkt].expect("offered")
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
            let (mut chans, mut numbers, mut marks) = (Vec::new(), Vec::new(), Vec::new());
            tx.send_batch_numbered(&lens, 0, &mut chans, &mut numbers, &mut marks);
            if numbers.is_empty() {
                // Markers off: nobody reads a number, none is made.
                numbers.resize(lens.len(), ChannelMark { round: 0, dc: 0 });
            }
            let mut m = marks.iter().peekable();
            for (i, (&(pkt, _), &channel)) in turn.iter().zip(&chans).enumerate() {
                self.numbers[pkt] = Some(numbers[i]);
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

/// The length rule: which payloads a server with markers on, integrity
/// off and `mtu`-byte links sends behind a mark field.
fn takes_field(flow: FlowId, len: usize, mtu: usize) -> bool {
    len >= MARK_MIN_PAYLOAD && frame::data_flow_frame_len(flow, len) + MARK_FIELD_LEN <= mtu
}

/// One frame off channel `c`'s wire as the receiver reads it: whose it
/// is, the mark it states (a marker frame's, or a data frame's own
/// number), the payload it delivers. Every byte around those is checked
/// here against the plain encoders: a frame without the field is the
/// bytes it always was, one with the field is the same header, the
/// field, the same payload — and the field is never left empty.
fn read_frame(c: usize, f: &[u8], coalesce: bool) -> (FlowId, Option<Marker>, Option<&[u8]>) {
    assert_eq!(f[1], FRAME_VERSION_FLOW, "server emits v2");
    let p = frame::parse(f).expect("well-formed frame");
    let mut plain = Vec::new();
    match p.body {
        Body::Marker => {
            let mk = p.marker(f).expect("well-formed marker");
            assert_eq!(mk.channel, c, "a marker names the channel it rides");
            frame::encode_control_flow_into(p.flow, &Control::Marker(mk), &mut plain);
            match f[2] {
                KIND_CONTROL => assert_eq!(f, &plain[..], "marker frame bytes changed"),
                KIND_CONTROL_PADDED => assert!(coalesce, "padded for a link that does not ask"),
                kind => panic!("marker in a frame of kind {kind}"),
            }
            (p.flow, Some(mk), None)
        }
        Body::Data | Body::MarkedData => {
            let body = p.body(f);
            assert_eq!(frame::try_decode_flow(f), Ok((p.flow, Frame::Data(body))));
            match f[2] {
                KIND_DATA => {
                    frame::encode_data_flow_into(p.flow, body, &mut plain);
                    assert_eq!(f, &plain[..], "data frame bytes changed");
                }
                KIND_DATA_SUMMED => {
                    frame::encode_data_summed_flow_into(p.flow, body, &mut plain);
                    assert_eq!(f, &plain[..], "summed frame bytes changed");
                }
                KIND_DATA_MARK_EMPTY => panic!("the encode-time placeholder on a wire"),
                KIND_DATA_MARKED => {
                    frame::encode_data_flow_into(p.flow, body, &mut plain);
                    let at = plain.len() - body.len();
                    assert_eq!(f.len(), plain.len() + MARK_FIELD_LEN);
                    assert_eq!((&f[..2], &f[3..at]), (&plain[..2], &plain[3..at]));
                }
                kind => panic!("data in a frame of kind {kind}"),
            }
            let mark = (p.body == Body::MarkedData).then(|| Marker::sync(c, p.mark(f)));
            assert_eq!(mark.is_some(), f[2] == KIND_DATA_MARKED);
            (p.flow, mark, Some(body))
        }
        Body::Control => panic!("global control on the data path"),
    }
}

/// 64-byte payloads are under the length rule, so nothing about their
/// wire changed when marks began to ride. The capture has the
/// yardstick's `small_10kflows_64B` shape — 128-packet bursts dealt
/// round-robin over more flows than that, one pump a burst, links that
/// ask for padding — and per (flow, channel) its bytes are the
/// offer-order emitter's offers run through the encoders that were all
/// there was, frame for frame, byte for byte, padding included: a marker
/// frame directly behind its own flow's data frame on the channel is
/// stretched to that frame's length, any other is plain. No frame has
/// the field and no mark rides.
#[test]
fn sixty_four_byte_payloads_put_the_parents_bytes_on_the_wire() {
    const FLOWS: usize = 256;
    const CHANNELS: usize = 4;
    const BURST: usize = 128;
    let markers = MarkerConfig::every_rounds(4);
    let proto = Srr::equal(CHANNELS, 200);
    let (mut tx_links, mut rx_links) = (Vec::new(), Vec::new());
    for _ in 0..CHANNELS {
        let (a, b) = datagram_pair(2048, 1 << 12);
        tx_links.push(FlakyLink {
            inner: a,
            down: false,
            coalesce: true,
        });
        rx_links.push(b);
    }
    let mut server = StripeServer::builder()
        .scheduler(proto.clone())
        .markers(markers)
        .links(tx_links)
        .build();
    let handles: Vec<_> = (0..FLOWS).map(|_| server.open_flow().unwrap()).collect();
    let mut oracle = OfferOrder::new(FLOWS, 1 << 14, &proto, markers);
    let mut events = Vec::new();
    let (mut pkt, mut marks, mut padded) = (0, 0, 0);
    for _burst in 0..600 {
        for _ in 0..BURST {
            let flow = pkt % FLOWS;
            server.enqueue(handles[flow], &stamped(pkt, 64)).unwrap();
            oracle.enqueue(flow, pkt, 64);
            pkt += 1;
        }
        server.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        let mut want = vec![vec![Vec::new(); CHANNELS]; FLOWS];
        // The channel's latest offer: whose, and how long on the wire.
        let mut latest = [None; CHANNELS];
        for (flow, c, item) in oracle.pump(usize::MAX) {
            let mut f = Vec::new();
            match item {
                Item::Data(pkt) => frame::encode_data_flow_into(flow, &stamped(pkt, 64), &mut f),
                Item::Marker(mk) => {
                    marks += 1;
                    let ctl = Control::Marker(mk);
                    match latest[c] {
                        Some((behind, len)) if behind == flow => {
                            padded += 1;
                            frame::encode_control_padded_flow_into(flow, &ctl, len, &mut f)
                        }
                        _ => frame::encode_control_flow_into(flow, &ctl, &mut f),
                    }
                }
            }
            latest[c] = Some((flow, f.len()));
            want[flow as usize][c].push(f);
        }
        let mut got = vec![vec![Vec::new(); CHANNELS]; FLOWS];
        for (c, link) in rx_links.iter_mut().enumerate() {
            for f in drain(link) {
                let flow = frame::parse(&f).expect("well-formed").flow;
                got[flow as usize][c].push(f);
            }
        }
        assert_eq!(got, want);
    }
    assert!(
        marks >= 2000 && padded >= 500,
        "{marks} markers, {padded} padded"
    );
    assert_eq!(server.stats().path.markers_sent, marks);
    assert_eq!(server.stats().markers_carried, 0);
}

/// A thousand flows of fifty different packet sizes, every one kept
/// backlogged, a pump budget that serves a fraction of them a step, and
/// a stop in mid-rotation: the DRR across flows has to be what evens the
/// service out — had every offer been served, the index would be the
/// offers'. Logical steps over in-memory links, each flow's delivery
/// checked FIFO on the way.
#[test]
fn a_thousand_backlogged_flows_share_the_stripe_evenly() {
    const FLOWS: usize = 1000;
    const CHANNELS: usize = 4;
    /// More 64-byte frames than one DRR quantum serves: a flow's queue
    /// never runs dry inside its turn.
    const QUEUE: usize = 48;
    const BUDGET: usize = 301;
    const STEPS: u64 = 200;
    let proto = Srr::equal(CHANNELS, 1500);
    let (mut tx_links, mut rx_links) = (Vec::new(), Vec::new());
    for _ in 0..CHANNELS {
        let (a, b) = datagram_pair(2048, 1 << 12);
        tx_links.push(a);
        rx_links.push(b);
    }
    let mut server = StripeServer::builder()
        .scheduler(proto.clone())
        .markers(MarkerConfig::every_rounds(4))
        .links(tx_links)
        .max_flows(FLOWS)
        .queue_frames(QUEUE)
        .flow_quantum(2048)
        .build();
    let handles: Vec<_> = (0..FLOWS).map(|_| server.open_flow().unwrap()).collect();
    let mut demux: FlowDemux<Srr, TestDatagramLink> = FlowDemux::builder()
        .scheduler(proto)
        .links(rx_links)
        .pool_buffers(1 << 10)
        .max_flows(FLOWS)
        .build();
    for h in &handles {
        assert!(demux.touch_flow(h.id()));
    }

    let len_of = |flow: usize| 64 + 24 * (flow % 50);
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    let mut offered = vec![0usize; FLOWS];
    // Delivered packets and bytes, one line of the ledger per flow.
    let mut delivered = ByteAccountant::new(FLOWS);
    for step in 0..STEPS {
        let now = SimTime::from_millis(step + 1);
        for (flow, &h) in handles.iter().enumerate() {
            while server.queue_len(h).unwrap() < QUEUE {
                let payload = stamped(offered[flow], len_of(flow));
                server.enqueue(h, &payload).unwrap();
                offered[flow] += 1;
            }
        }
        assert_eq!(server.pump_into(now, BUDGET, &mut events), BUDGET);
        demux.sweep(now);
        for (flow, h) in handles.iter().enumerate() {
            demux.poll_flow_into(h.id(), &mut batch);
            for pb in batch.drain() {
                let want = stamped(delivered.packets(flow) as usize, len_of(flow));
                assert_eq!(pb.as_slice(), &want[..], "flow {flow} out of order");
                delivered.record(flow, want.len() as u64);
            }
        }
    }

    let packets = |f| delivered.packets(f) as usize;
    assert_eq!(
        (0..FLOWS).map(packets).sum::<usize>(),
        BUDGET * STEPS as usize,
        "everything served arrived"
    );
    assert!(
        (0..FLOWS).all(|f| packets(f) > 0 && packets(f) < offered[f]),
        "every flow was served and every flow stayed backlogged"
    );
    let jain = delivered.jain_index(&[1.0; FLOWS]);
    assert!(jain >= 0.95, "Jain's index {jain:.4} over 1000 flows");
}

proptest! {
    /// Many flows through the staging, regrouping, mark-carrying server
    /// against the offer-order emitter, pump by pump, over links that
    /// refuse frames for every reason a link can.
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
        integrity in any::<bool>(),
    ) {
        let markers = match marker_rounds {
            0 => MarkerConfig::disabled(),
            n => MarkerConfig::every_rounds(n),
        };
        // Half the cases cut the MTU under the long classes (`TooBig`,
        // and just below that "fits, but not with the field"); a marker
        // always fits.
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
            .integrity(integrity)
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
        let carrying = marker_rounds != 0 && !integrity;
        let trailer = if integrity { frame::SUM_TRAILER_LEN } else { 0 };

        // What every flow's counters must end at, from the events alone.
        let mut want_stats = vec![[0u64; 5]; flows]; // sent, queue, lost, markers, markers lost
        let mut carried_on_wire = 0u64;
        let mut events = Vec::new();
        for budget in budgets.into_iter().chain(std::iter::once(usize::MAX)) {
            let served = server.pump_into(SimTime::ZERO, budget, &mut events);
            let offers = oracle.pump(budget);
            prop_assert_eq!(served, offers.iter().filter(|o| matches!(o.2, Item::Data(_))).count());

            // (iii) Events are the offers, one each, in offer order.
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
                // The error is the one this very frame must have met — a
                // carried mark's is its carrier's, and a frame takes the
                // field only where that cannot make it too big.
                let stats = &mut want_stats[flow as usize];
                match (&offer.2, error) {
                    (_, Some(e)) if down == Some(channel) => prop_assert_eq!(e, TxError::LinkDown),
                    (_, None) if down == Some(channel) => prop_assert!(false, "left on a dead link"),
                    (Item::Data(pkt), e) => {
                        let too_big = frame::data_flow_frame_len(flow, lens[*pkt]) + trailer > mtu;
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

            // (i) Per (flow, channel) the expanded wire is the oracle's —
            // exactly the offers whose events carry no error, in offer
            // order: so a mark left iff its event says so, alone or as
            // the number of the frame the flow offered next on that
            // channel — and every frame with the field states the number
            // the reference engine gave its packet.
            for (c, link) in rx_links.iter_mut().enumerate() {
                let wire = drain(link);
                let mut cursor = vec![0usize; flows];
                let mut at = 0;
                for f in &wire {
                    let (flow, mark, body) = read_frame(c, f, coalesce);
                    let pkt = body.map(|b| u32::from_be_bytes(b[..4].try_into().unwrap()) as usize);
                    // This flow's next kept offer on the channel.
                    let next_kept = |cursor: &mut [usize]| {
                        let mine = &mut cursor[flow as usize];
                        while kept[c].get(*mine).is_some_and(|o| o.0 != flow) {
                            *mine += 1;
                        }
                        kept[c].get(*mine).copied()
                    };
                    let mut items = [mark.map(Item::Marker), pkt.map(Item::Data)];
                    if let (Some(own), Some(pkt), Some(body)) = (mark, pkt, body) {
                        prop_assert!(carrying && takes_field(flow, body.len(), mtu), "a field against the length rule");
                        prop_assert_eq!(own.mark, oracle.number_of(pkt), "packet {}'s number", pkt);
                        // The number stands for the mark offered directly
                        // ahead of the packet, if one was (and then has
                        // to be that mark, which is checked below).
                        let rode = matches!(next_kept(&mut cursor), Some((_, _, Item::Marker(_))));
                        carried_on_wire += rode as u64;
                        if !rode {
                            items[0] = None;
                        }
                    } else if let Some(body) = body {
                        prop_assert!(!(carrying && takes_field(flow, body.len(), mtu)), "a long frame without its number");
                        prop_assert_eq!(f[2] == KIND_DATA_SUMMED, integrity);
                    }
                    for got in items.into_iter().flatten() {
                        let Some((_, _, want)) = next_kept(&mut cursor) else {
                            return Err(TestCaseError::fail(format!("channel {c}: flow {flow} frame from nowhere")));
                        };
                        let mine = &mut cursor[flow as usize];
                        if uniform {
                            // (ii) …and then the whole wire is in offer order.
                            prop_assert_eq!(*mine, at, "identity merge reordered channel {}", c);
                        }
                        *mine += 1;
                        at += 1;
                        prop_assert_eq!(&got, want, "channel {}", c);
                        if let (Item::Data(pkt), Some(body)) = (&got, body) {
                            prop_assert_eq!(body, &stamped(*pkt, lens[*pkt])[..]);
                        }
                    }
                }
                prop_assert_eq!(at, kept[c].len(), "channel {} lost an offer", c);
            }
        }
        prop_assert!(handles.iter().all(|&h| server.queue_len(h) == Ok(0)), "everything was offered");
        let (mut path_queue, mut path_lost, mut path_markers_lost, mut carried) = (0, 0, 0, 0);
        for (h, want) in handles.iter().zip(&want_stats) {
            let s = server.flow_stats(*h).expect("open");
            let got = [s.sent, s.dropped_queue, s.dropped_lost, s.markers_sent, s.markers_lost];
            prop_assert_eq!(&got, want, "flow {} counters", h.id());
            prop_assert!(s.markers_carried <= s.markers_sent);
            path_queue += want[1];
            path_lost += want[2];
            path_markers_lost += want[4];
            carried += s.markers_carried;
        }
        let path = server.stats().path;
        prop_assert_eq!(
            (path.dropped_queue, path.dropped_lost, path.markers_lost),
            (path_queue, path_lost, path_markers_lost)
        );
        // Every carried mark that left is a marked frame on some wire.
        prop_assert_eq!(server.stats().markers_carried, carried);
        prop_assert!(carried_on_wire <= carried && carried <= carried_on_wire + path_markers_lost);
        prop_assert!(carrying || carried == 0);
    }

    /// One flow through the server against a bare sender engine:
    /// identical channel and marker sequences in offer order, and every
    /// channel's expanded wire exactly the oracle's payloads, marks and
    /// packet numbers, flow-tagged to flow 0 — lengths on both sides of
    /// the field rule, integrity on and off, links that ask for padding
    /// and not.
    #[test]
    fn one_flow_server_matches_bare_sender_on_the_wire(
        lens in prop::collection::vec(1usize..1200, 1..120),
        quantum in 300i64..4000,
        marker_rounds in 1u64..8,
        (integrity, coalesce) in (any::<bool>(), any::<bool>()),
    ) {
        let channels = 3;
        let mtu = 2048;
        let (mut tx_links, mut rx_links) = (Vec::new(), Vec::new());
        for _ in 0..channels {
            let (a, b) = datagram_pair(mtu, 1 << 16);
            tx_links.push(FlakyLink { inner: a, down: false, coalesce });
            rx_links.push(b);
        }
        let mut server = StripeServer::builder()
            .scheduler(Srr::equal(channels, quantum))
            .markers(MarkerConfig::every_rounds(marker_rounds))
            .links(tx_links)
            .integrity(integrity)
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
        let (mut chans, mut numbers, mut marks) = (Vec::new(), Vec::new(), Vec::new());
        oracle.send_batch_numbered(&lens, 0, &mut chans, &mut numbers, &mut marks);
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

        let (mut carried, mut alone) = (0u64, 0u64);
        for (c, (link, want)) in rx_links.iter_mut().zip(want_wire).enumerate() {
            let frames = drain(link);
            let mut want = want.iter().peekable();
            // Marker frames since the channel's last data frame (their
            // wire lengths if padded), and that frame's length: a padded
            // marker frame matches a data frame it sits next to.
            let mut since: Vec<Option<usize>> = Vec::new();
            let mut last_data = None;
            for f in &frames {
                let (tag, mark, body) = read_frame(c, f, coalesce);
                prop_assert_eq!(tag, 0u32);
                match body {
                    Some(body) => {
                        // A frame's number stands for the mark the engine
                        // made directly ahead of the packet, if it made
                        // one, and says what that mark said.
                        let rode = mark.is_some() && matches!(want.peek(), Some(Item::Marker(_)));
                        if rode {
                            prop_assert_eq!(want.next().copied(), mark.map(Item::Marker), "channel {}", c);
                        }
                        let Some(&Item::Data(i)) = want.next() else {
                            return Err(TestCaseError::fail(format!("channel {c}: data from nowhere")));
                        };
                        prop_assert_eq!(body, &payload(i)[..], "bodies byte-identical");
                        // The field is there by the length rule alone,
                        // never empty, and holds the engine's number for
                        // this very packet.
                        let has_field = !integrity && takes_field(0, lens[i], mtu);
                        prop_assert_eq!(mark.map(|mk| mk.mark), has_field.then_some(numbers[i]));
                        prop_assert!(
                            since.is_empty() || !has_field || rode,
                            "a mark left alone ahead of a frame with room"
                        );
                        for len in since.drain(..).flatten() {
                            prop_assert!(len == f.len() || Some(len) == last_data, "padded to no neighbour");
                        }
                        last_data = Some(f.len());
                        carried += rode as u64;
                    }
                    None => {
                        prop_assert_eq!(want.next().copied(), mark.map(Item::Marker), "channel {}", c);
                        alone += 1;
                        since.push((f[2] == KIND_CONTROL_PADDED).then_some(f.len()));
                    }
                }
            }
            prop_assert_eq!(want.next(), None, "channel {} lost an offer", c);
            for len in since.into_iter().flatten() {
                prop_assert_eq!(Some(len), last_data, "a pump's trailing marker frame matches what it trails");
            }
        }
        let s = server.flow_stats(flow).expect("open");
        prop_assert_eq!((s.markers_carried, s.markers_sent), (carried, carried + alone));
        prop_assert_eq!(s.markers_sent, marks.len() as u64);
    }

    /// A mark dies with its carrier and never otherwise. The server's
    /// wire runs through a seeded per-frame drop pattern into a
    /// `FlowDemux`; beside it each flow has a bare `LogicalReceiver` fed
    /// the *oracle's* arrivals — every marker a thing of its own, every
    /// packet whose frame has the field numbered by the reference
    /// engine — except those a dropped frame stood for: its data, and
    /// the mark that rode it if one did. Both see their arrivals in the
    /// same order (a sweep's: channel by channel) and are polled at the
    /// same points, and must deliver the same packets in the same order
    /// and end on the same counters.
    #[test]
    fn loss_takes_a_mark_only_with_its_carrier(
        (flows, channels) in (1usize..=6, 2usize..=4),
        classes in prop::collection::vec(28usize..1200, 1..=3),
        packets in prop::collection::vec((0usize..6, 0usize..3), 40..400),
        (quantum, flow_quantum) in (600i64..3000, 256i64..4096),
        marker_rounds in 1u64..5,
        budgets in prop::collection::vec(4usize..120, 2..8),
        (drop_ppm, seed) in (0u32..300_000, any::<u64>()),
    ) {
        const CAP: usize = 1 << 10;
        let markers = MarkerConfig::every_rounds(marker_rounds);
        let proto = Srr::equal(channels, quantum);
        let (mut tx_links, mut taps, mut feeds, mut rx_links) = (vec![], vec![], vec![], vec![]);
        for _ in 0..channels {
            let (a, tap) = datagram_pair(2048, 1 << 12);
            let (feed, b) = datagram_pair(2048, 1 << 12);
            tx_links.push(a);
            taps.push(tap);
            feeds.push(feed);
            rx_links.push(b);
        }
        let mut server = StripeServer::builder()
            .scheduler(proto.clone())
            .markers(markers)
            .links(tx_links)
            .queue_frames(packets.len())
            .flow_quantum(flow_quantum)
            .build();
        let mut demux = FlowDemux::builder()
            .scheduler(proto.clone())
            .links(rx_links)
            .capacity_per_channel(CAP)
            .build();
        let handles: Vec<_> = (0..flows).map(|_| server.open_flow().expect("admitted")).collect();
        let mut oracle = OfferOrder::new(flows, flow_quantum, &proto, markers);
        let mut bare: Vec<LogicalReceiver<Srr, Numbered>> =
            (0..flows).map(|_| LogicalReceiver::new(proto.clone(), CAP)).collect();

        let lens: Vec<usize> = packets.iter().map(|&(_, k)| classes[k % classes.len()]).collect();
        for (pkt, &(f, _)) in packets.iter().enumerate() {
            let flow = f % flows;
            server.enqueue(handles[flow], &stamped(pkt, lens[pkt])).expect("queue sized for all");
            oracle.enqueue(flow, pkt, lens[pkt]);
        }

        let mut rng = DetRng::new(seed);
        let mut events = Vec::new();
        let (mut got, mut want) = (RxBatch::new(), RxBatch::new());
        let (mut dropped_marks, mut kept_marks, mut numbered, mut delivered) = (0u64, 0u64, 0u64, 0usize);
        for budget in budgets.into_iter().chain(std::iter::once(usize::MAX)) {
            server.pump_into(SimTime::ZERO, budget, &mut events);
            // The oracle's arrivals of this pump, per (flow, channel).
            let mut theirs: Vec<Vec<VecDeque<Item>>> =
                (0..flows).map(|_| (0..channels).map(|_| VecDeque::new()).collect()).collect();
            for (flow, channel, item) in oracle.pump(budget) {
                theirs[flow as usize][channel].push_back(item);
            }
            for c in 0..channels {
                for f in drain(&mut taps[c]) {
                    let (flow, mark, body) = read_frame(c, &f, false);
                    let lost = rng.range_u64(0, 1_000_000) < drop_ppm as u64;
                    let theirs = &mut theirs[flow as usize][c];
                    // A marker frame is the oracle's next arrival on
                    // (flow, c). So is a mark directly ahead of a packet
                    // whose frame states its number: it rode, and what
                    // the oracle's receiver gets of it is that number.
                    let own = mark.filter(|_| body.is_some());
                    if own.is_none() || matches!(theirs.front(), Some(Item::Marker(_))) {
                        if let Some(mk) = mark {
                            prop_assert_eq!(theirs.pop_front(), Some(Item::Marker(mk)));
                            match (own, lost) {
                                (None, false) => _ = bare[flow as usize].push(c, Arrival::Marker(mk)),
                                (Some(_), false) => kept_marks += 1,
                                (Some(_), true) => dropped_marks += 1,
                                (None, true) => {}
                            }
                        }
                    }
                    if body.is_some() {
                        let Some(Item::Data(pkt)) = theirs.pop_front() else {
                            return Err(TestCaseError::fail("a frame the oracle never offered"));
                        };
                        let number = own.map(|_| oracle.number_of(pkt));
                        prop_assert_eq!(own.map(|mk| mk.mark), number, "packet {}'s number", pkt);
                        if !lost {
                            numbered += number.is_some() as u64;
                            let p = Numbered { id: pkt as u64, len: lens[pkt], number };
                            bare[flow as usize].push(c, Arrival::Data(p));
                        }
                    }
                    if !lost {
                        feeds[c].send_frame(&f).expect("room");
                    }
                }
            }
            prop_assert!(theirs.iter().flatten().all(|q| q.is_empty()), "an offer never reached the wire");
            demux.sweep(SimTime::ZERO);
            for (flow, rx) in bare.iter_mut().enumerate() {
                demux.poll_flow_into(flow as FlowId, &mut got);
                rx.poll_into(&mut want);
                let got_ids: Vec<u64> = got
                    .drain()
                    .map(|pb| u32::from_be_bytes(pb.as_slice()[..4].try_into().unwrap()) as u64)
                    .collect();
                let want_ids: Vec<u64> = want.drain().map(|p| p.id).collect();
                prop_assert_eq!(&got_ids, &want_ids, "flow {} delivery diverges", flow);
                delivered += got_ids.len();
            }
        }
        for (flow, rx) in bare.iter().enumerate() {
            if let Some(theirs) = demux.flow_stats(flow as FlowId) {
                prop_assert_eq!(theirs, rx.stats(), "flow {} resequencer counters", flow);
            }
        }
        // Every frame with the field arrived numbered; the marks that
        // rode one are the server's count, lost with their carriers or not.
        prop_assert_eq!(demux.net_stats().marked_frames, numbered);
        prop_assert_eq!(kept_marks + dropped_marks, server.stats().markers_carried);
        prop_assert!(drop_ppm > 0 || delivered == packets.len(), "lossless and incomplete");
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
