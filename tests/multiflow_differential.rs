//! Differential properties of the one real-socket send path and its
//! versioned (flow-tagged) wire format.
//!
//! Every data frame a server sends states its own number (version 3, see
//! [`frame`]): the number a reference engine gives the packet — `mark_for`
//! its channel, just before it is served. A pump sends data frames and
//! nothing else. Every property below compares the wire with an oracle
//! that shares no framing, queueing, regrouping or link code with the
//! server:
//!
//! 1. **Datapath equivalence.** A one-flow [`StripeServer`] makes exactly
//!    the striping decisions of a bare [`StripingSender`] fed the same
//!    lengths in one batch, and each channel's wire is exactly those
//!    payloads, in order, byte for byte as flow-0 frames stating the
//!    engine's numbers, integrity on and off, whatever the marker period.
//! 2. **Regrouping is invisible per flow.** A many-flow server stages
//!    each pump per channel and emits it regrouped by wire length; the
//!    *offer-order emitter* it replaced — DRR turns, each flow's frames
//!    handed to the links as its SRR produces them — lives on here as the
//!    oracle. For every (flow, channel) the wire subsequence equals the
//!    oracle's, number for number; with one flow, or one length, the
//!    whole wire is in offer order; events stay one per offer in offer
//!    order; and a refused frame's error lands on its own event and its
//!    own flow's counters, whichever frames the regrouping pushed past a
//!    full queue.
//! 3. **A 64-byte payload grows by its number alone.** The yardstick's
//!    `small_10kflows_64B` shape puts on the wire, per (flow, channel),
//!    the offer-order emitter's packets as numbered frames, each
//!    [`NUMBER_LEN`] bytes longer than the unnumbered frame it replaces,
//!    and no marker frame.
//! 4. **Loss takes a mark only with its carrier.** Every frame carries its
//!    own mark — its number. Under a seeded per-frame drop pattern, what
//!    [`FlowDemux`] delivers for each flow is what a bare
//!    [`LogicalReceiver`] delivers when fed the oracle's packets, each with
//!    its full 64-bit number, minus the dropped frames — so the 16 bits of
//!    round on the wire resolve to the oracle's round every time — and no
//!    flow delivers a packet behind a later one.
//! 5. **A thousand backlogged flows share the stripe evenly.** Stopped
//!    mid-rotation with every flow still backlogged, Jain's index over
//!    the bytes each flow had delivered is at least 0.95.
//! 6. **Codec coexistence.** A mixed stream of version-1 and numbered
//!    frames decodes under the one shared [`try_decode_flow`] entry: v1
//!    frames land on flow 0, numbered frames on their tagged flow, and the
//!    body survives byte-for-byte either way.
//!
//! [`try_decode_flow`]: stripe::net::frame::try_decode_flow
//! [`NUMBER_LEN`]: stripe::net::frame::NUMBER_LEN

use std::collections::VecDeque;

use proptest::prelude::*;

use stripe::core::control::Control;
use stripe::core::fairness::ByteAccountant;
use stripe::core::marker::Marker;
use stripe::core::receiver::{Arrival, LogicalReceiver, RxBatch};
use stripe::core::sched::{ChannelMark, Drr, Srr};
use stripe::core::sender::{MarkerConfig, StripingSender};
use stripe::core::types::WireLen;
use stripe::link::{datagram_pair, DatagramLink, TestDatagramLink, TxError};
use stripe::net::frame::{self, Body, Frame, FRAME_VERSION_NUMBERED, NUMBER_LEN};
use stripe::net::{FlowDemux, FlowId, PumpEvent, StripeServer};
use stripe::netsim::{DetRng, SimTime};

/// A packet as the oracle's receiver holds it: identity, length, and the
/// number its frame stated.
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

    fn number(&self, _near: u64) -> Option<ChannelMark> {
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

/// An in-memory link that can be dead (`LinkDown` for every frame).
struct FlakyLink {
    inner: TestDatagramLink,
    down: bool,
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

    fn reclaim(&mut self, into: &mut Vec<Vec<u8>>) {
        self.inner.reclaim(into);
    }

    fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize> {
        self.inner.recv_frame(buf)
    }

    fn mtu(&self) -> usize {
        self.inner.mtu()
    }
}

/// The offer-order emitter: the two-level scheduling loop of
/// `StripeServer::pump_into` with nothing behind it — what is offered, by
/// which flow, to which channel, in what order, with what number. Shares
/// the DRR and the per-flow striping engine with the server, and nothing
/// else.
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
    fn new(flows: usize, flow_quantum: i64, proto: &Srr) -> Self {
        let mut drr = Drr::new(flow_quantum);
        (0..flows).for_each(|f| drr.register(f));
        let flows = (0..flows)
            .map(|_| {
                let tx = StripingSender::new(proto.clone(), MarkerConfig::disabled());
                (tx, VecDeque::new())
            })
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

    /// One pump of at most `budget` packets: `(flow, channel, packet)` in
    /// offer order.
    fn pump(&mut self, budget: usize) -> Vec<(FlowId, usize, usize)> {
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
            tx.send_batch_numbered(&lens, &mut chans, &mut numbers, &mut marks);
            assert!(marks.is_empty(), "no cadence");
            for ((&(pkt, _), &channel), &number) in turn.iter().zip(&chans).zip(&numbers) {
                self.numbers[pkt] = Some(number);
                offers.push((fid as FlowId, channel, pkt));
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

/// The frame flow `flow` sends for `payload` stating `number`, built by
/// the encoders alone.
fn numbered_frame(flow: FlowId, payload: &[u8], number: ChannelMark, summed: bool) -> Vec<u8> {
    let mut f = Vec::new();
    if summed {
        frame::encode_data_summed_flow_into(flow, payload, &mut f);
    } else {
        frame::encode_data_flow_into(flow, payload, &mut f);
    }
    assert!(frame::write_number(&mut f, number));
    f
}

/// One frame off a wire as the receiver reads it: whose it is and the
/// payload it delivers. A pump sends numbered data frames and nothing
/// else.
fn read_frame(f: &[u8]) -> (FlowId, &[u8]) {
    assert_eq!(f[1], FRAME_VERSION_NUMBERED, "server emits numbered frames");
    let p = frame::parse(f).expect("well-formed frame");
    assert_eq!(p.body, Body::Data, "a pump sends data only");
    let body = p.body(f);
    assert_eq!(frame::try_decode_flow(f), Ok((p.flow, Frame::Data(body))));
    (p.flow, body)
}

/// The packet index a stamped payload carries.
fn pkt_of(body: &[u8]) -> usize {
    u32::from_be_bytes(body[..4].try_into().unwrap()) as usize
}

/// 64-byte payloads grow by their number and by nothing else. The
/// capture has the yardstick's `small_10kflows_64B` shape — 128-packet
/// bursts dealt round-robin over more flows than that, one pump a burst,
/// markers on — and per (flow, channel) its bytes are the offer-order
/// emitter's packets run through the encoders, each stating the number
/// the reference engine gave it, frame for frame, byte for byte: every
/// one [`NUMBER_LEN`] bytes longer than the unnumbered frame of the same
/// payload, and no marker frame among them.
#[test]
fn sixty_four_byte_payloads_grow_by_their_number_alone() {
    const FLOWS: usize = 256;
    const CHANNELS: usize = 4;
    const BURST: usize = 128;
    let proto = Srr::equal(CHANNELS, 200);
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
        .build();
    let handles: Vec<_> = (0..FLOWS).map(|_| server.open_flow().unwrap()).collect();
    let mut oracle = OfferOrder::new(FLOWS, 1 << 14, &proto);
    let mut events = Vec::new();
    let mut pkt = 0;
    for _burst in 0..600 {
        for _ in 0..BURST {
            let flow = pkt % FLOWS;
            server.enqueue(handles[flow], &stamped(pkt, 64)).unwrap();
            oracle.enqueue(flow, pkt, 64);
            pkt += 1;
        }
        server.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        let mut want = vec![vec![Vec::new(); CHANNELS]; FLOWS];
        for (flow, c, pkt) in oracle.pump(usize::MAX) {
            let f = numbered_frame(flow, &stamped(pkt, 64), oracle.number_of(pkt), false);
            // The unnumbered frame of the same payload: header, varint,
            // payload.
            let plain = frame::FRAME_HEADER_LEN + frame::flow_id_len(flow) + 64;
            assert_eq!(f.len(), plain + NUMBER_LEN);
            want[flow as usize][c].push(f);
        }
        let mut got = vec![vec![Vec::new(); CHANNELS]; FLOWS];
        for (c, link) in rx_links.iter_mut().enumerate() {
            for f in drain(link) {
                let flow = read_frame(&f).0;
                got[flow as usize][c].push(f);
            }
        }
        assert_eq!(got, want);
    }
    assert_eq!(server.stats().path.markers_sent, 0);
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
    /// Many flows through the staging, regrouping, numbering server
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
        (queue_cap, small_mtu) in (1usize..48, any::<bool>()),
        down in prop::option::of(0usize..4),
        integrity in any::<bool>(),
    ) {
        // The period is not read by a server: any one, or none, sends
        // the same wire.
        let markers = match marker_rounds {
            0 => MarkerConfig::disabled(),
            n => MarkerConfig::every_rounds(n),
        };
        // Half the cases cut the MTU under the long classes (`TooBig`).
        let mtu = if small_mtu { 600 } else { 2048 };
        let (mut tx_links, mut rx_links) = (Vec::new(), Vec::new());
        for c in 0..channels {
            let (a, b) = datagram_pair(mtu, queue_cap);
            tx_links.push(FlakyLink { inner: a, down: down == Some(c) });
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
        let mut oracle = OfferOrder::new(flows, flow_quantum, &proto);

        let lens: Vec<usize> = packets.iter().map(|&(_, k)| classes[k % classes.len()]).collect();
        for (pkt, &(f, _)) in packets.iter().enumerate() {
            let flow = f % flows;
            server.enqueue(handles[flow], &stamped(pkt, lens[pkt])).expect("queue sized for all");
            oracle.enqueue(flow, pkt, lens[pkt]);
        }
        let uniform = flows == 1 || classes.len() == 1;
        let trailer = if integrity { frame::SUM_TRAILER_LEN } else { 0 };

        // What every flow's counters must end at, from the events alone.
        let mut want_stats = vec![[0u64; 3]; flows]; // sent, queue, lost
        let mut events = Vec::new();
        for budget in budgets.into_iter().chain(std::iter::once(usize::MAX)) {
            let served = server.pump_into(SimTime::ZERO, budget, &mut events);
            let offers = oracle.pump(budget);
            prop_assert_eq!(served, offers.len());

            // (iii) Events are the offers, one each, in offer order.
            prop_assert_eq!(events.len(), offers.len());
            let mut kept: Vec<Vec<(FlowId, usize)>> = vec![Vec::new(); channels];
            for (ev, &(want_flow, want_channel, pkt)) in events.iter().zip(&offers) {
                let PumpEvent::Data { flow, channel, error } = *ev else {
                    return Err(TestCaseError::fail(format!("a pump offered {ev:?}")));
                };
                prop_assert_eq!((flow, channel), (want_flow, want_channel), "offer order diverges");
                // The error is the one this very frame must have met.
                let too_big = frame::data_flow_frame_len(flow, lens[pkt]) + trailer > mtu;
                if down == Some(channel) {
                    prop_assert_eq!(error, Some(TxError::LinkDown));
                } else {
                    prop_assert_eq!(error == Some(TxError::TooBig), too_big);
                    prop_assert!(too_big || matches!(error, None | Some(TxError::QueueFull)));
                }
                let stats = &mut want_stats[flow as usize];
                stats[0] += 1;
                match error {
                    None => kept[channel].push((flow, pkt)),
                    Some(TxError::QueueFull) => stats[1] += 1,
                    Some(_) => stats[2] += 1,
                }
            }

            // (i) Per (flow, channel) the wire is the oracle's — exactly
            // the offers whose events carry no error, in offer order, each
            // frame the encoders' bytes stating the reference engine's
            // number for its packet.
            for (c, link) in rx_links.iter_mut().enumerate() {
                let wire = drain(link);
                let mut cursor = vec![0usize; flows];
                for (at, f) in wire.iter().enumerate() {
                    let (flow, body) = read_frame(f);
                    let mine = &mut cursor[flow as usize];
                    while kept[c].get(*mine).is_some_and(|o| o.0 != flow) {
                        *mine += 1;
                    }
                    let Some(&(_, pkt)) = kept[c].get(*mine) else {
                        return Err(TestCaseError::fail(format!("channel {c}: flow {flow} frame from nowhere")));
                    };
                    if uniform {
                        // (ii) …and then the whole wire is in offer order.
                        prop_assert_eq!(*mine, at, "identity merge reordered channel {}", c);
                    }
                    *mine += 1;
                    prop_assert_eq!(pkt_of(body), pkt, "channel {}", c);
                    let want = numbered_frame(flow, &stamped(pkt, lens[pkt]), oracle.number_of(pkt), integrity);
                    prop_assert_eq!(f, &want, "packet {}'s frame", pkt);
                }
                prop_assert_eq!(wire.len(), kept[c].len(), "channel {} lost an offer", c);
            }
        }
        prop_assert!(handles.iter().all(|&h| server.queue_len(h) == Ok(0)), "everything was offered");
        let (mut path_queue, mut path_lost) = (0, 0);
        for (h, want) in handles.iter().zip(&want_stats) {
            let s = server.flow_stats(*h).expect("open");
            prop_assert_eq!(&[s.sent, s.dropped_queue, s.dropped_lost], want, "flow {} counters", h.id());
            prop_assert_eq!((s.markers_sent, s.markers_lost), (0, 0));
            path_queue += want[1];
            path_lost += want[2];
        }
        let path = server.stats().path;
        prop_assert_eq!(
            (path.dropped_queue, path.dropped_lost, path.markers_sent),
            (path_queue, path_lost, 0)
        );
    }

    /// One flow through the server against a bare sender engine:
    /// identical channel sequences in offer order, and every channel's
    /// wire exactly the oracle's payloads, each stating the engine's
    /// number, flow-tagged to flow 0, byte for byte — integrity on and
    /// off, whatever the marker period.
    #[test]
    fn one_flow_server_matches_bare_sender_on_the_wire(
        lens in prop::collection::vec(1usize..1200, 1..120),
        quantum in 300i64..4000,
        marker_rounds in 1u64..8,
        integrity in any::<bool>(),
    ) {
        let channels = 3;
        let mtu = 2048;
        let (mut tx_links, mut rx_links) = (Vec::new(), Vec::new());
        for _ in 0..channels {
            let (a, b) = datagram_pair(mtu, 1 << 16);
            tx_links.push(FlakyLink { inner: a, down: false });
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
        let mut oracle = StripingSender::new(Srr::equal(channels, quantum), MarkerConfig::disabled());
        let (mut chans, mut numbers, mut marks) = (Vec::new(), Vec::new(), Vec::new());
        oracle.send_batch_numbered(&lens, &mut chans, &mut numbers, &mut marks);
        let want_events: Vec<_> = chans
            .iter()
            .map(|&channel| PumpEvent::Data { flow: 0, channel, error: None })
            .collect();
        prop_assert_eq!(&events, &want_events, "offer order diverges from the engine");
        for (c, link) in rx_links.iter_mut().enumerate() {
            let want: Vec<Vec<u8>> = (0..lens.len())
                .filter(|&i| chans[i] == c)
                .map(|i| numbered_frame(0, &payload(i), numbers[i], integrity))
                .collect();
            prop_assert_eq!(drain(link), want, "channel {}", c);
        }
        let s = server.flow_stats(flow).expect("open");
        prop_assert_eq!((s.sent, s.markers_sent), (lens.len() as u64, 0));
    }

    /// A mark dies with its carrier and never otherwise: every frame's
    /// number is its own mark. The server's wire runs through a seeded
    /// per-frame drop pattern into a `FlowDemux`; beside it each flow has
    /// a bare `LogicalReceiver` fed the oracle's packets, every one with
    /// the full number the reference engine gave it, except the dropped
    /// ones. Both see their arrivals in the same order (a sweep's:
    /// channel by channel) and are polled at the same points, and must
    /// deliver the same packets in the same order and end on the same
    /// counters — and, every frame numbered, no flow delivers a packet
    /// behind a later one.
    #[test]
    fn loss_takes_a_mark_only_with_its_carrier(
        (flows, channels) in (1usize..=6, 2usize..=4),
        classes in prop::collection::vec(28usize..1200, 1..=3),
        packets in prop::collection::vec((0usize..6, 0usize..3), 40..400),
        (quantum, flow_quantum) in (600i64..3000, 256i64..4096),
        budgets in prop::collection::vec(4usize..120, 2..8),
        (drop_ppm, seed) in (0u32..300_000, any::<u64>()),
    ) {
        const CAP: usize = 1 << 10;
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
            .markers(MarkerConfig::every_rounds(4))
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
        let mut oracle = OfferOrder::new(flows, flow_quantum, &proto);
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
        let (mut arrived, mut delivered) = (0u64, 0usize);
        let mut last = vec![None::<u64>; flows];
        for budget in budgets.into_iter().chain(std::iter::once(usize::MAX)) {
            server.pump_into(SimTime::ZERO, budget, &mut events);
            // The oracle's offers of this pump, per (flow, channel).
            let mut theirs: Vec<Vec<VecDeque<usize>>> =
                (0..flows).map(|_| (0..channels).map(|_| VecDeque::new()).collect()).collect();
            for (flow, channel, pkt) in oracle.pump(budget) {
                theirs[flow as usize][channel].push_back(pkt);
            }
            for c in 0..channels {
                for f in drain(&mut taps[c]) {
                    let (flow, body) = read_frame(&f);
                    let lost = rng.range_u64(0, 1_000_000) < drop_ppm as u64;
                    let pkt = theirs[flow as usize][c].pop_front();
                    prop_assert_eq!(pkt, Some(pkt_of(body)), "a frame the oracle never offered");
                    let pkt = pkt_of(body);
                    if !lost {
                        arrived += 1;
                        let number = Some(oracle.number_of(pkt));
                        let p = Numbered { id: pkt as u64, len: lens[pkt], number };
                        bare[flow as usize].push(c, Arrival::Data(p));
                        feeds[c].send_frame(&f).expect("room");
                    }
                }
            }
            prop_assert!(theirs.iter().flatten().all(|q| q.is_empty()), "an offer never reached the wire");
            demux.sweep(SimTime::ZERO);
            for (flow, rx) in bare.iter_mut().enumerate() {
                demux.poll_flow_into(flow as FlowId, &mut got);
                rx.poll_into(&mut want);
                let got_ids: Vec<u64> = got.drain().map(|pb| pkt_of(pb.as_slice()) as u64).collect();
                let want_ids: Vec<u64> = want.drain().map(|p| p.id).collect();
                prop_assert_eq!(&got_ids, &want_ids, "flow {} delivery diverges", flow);
                for id in got_ids {
                    prop_assert!(last[flow].is_none_or(|l| l < id), "flow {} delivered {} behind {:?}", flow, id, last[flow]);
                    last[flow] = Some(id);
                    delivered += 1;
                }
            }
        }
        for (flow, rx) in bare.iter().enumerate() {
            if let Some(theirs) = demux.flow_stats(flow as FlowId) {
                prop_assert_eq!(theirs, rx.stats(), "flow {} resequencer counters", flow);
            }
        }
        // Every frame that arrived was routed, with its number.
        let s = demux.net_stats();
        prop_assert_eq!((s.data_frames, s.control_frames), (arrived, 0));
        prop_assert!(drop_ppm > 0 || delivered == packets.len(), "lossless and incomplete");
    }

    /// The three versions interleaved decode under the shared entry
    /// point: numbered data and a flow's markers route to their flow id,
    /// untagged control to flow 0, bodies and numbers survive, and
    /// versions never confuse each other.
    #[test]
    fn mixed_version_frames_decode_to_their_flow(
        items in prop::collection::vec(
            (1u8..4, 0u32..1 << 21, prop::collection::vec(any::<u8>(), 0..600), any::<u64>()),
            1..60
        ),
    ) {
        let mut wire = Vec::new();
        for (version, flow, payload, round) in &items {
            let mut buf = Vec::new();
            let mark = ChannelMark { round: *round, dc: payload.len() as i64 + 1 };
            match *version {
                frame::FRAME_VERSION => {
                    frame::encode_control_into(&Control::Probe { nonce: *round }, &mut buf)
                }
                frame::FRAME_VERSION_FLOW => {
                    let mk = Control::Marker(Marker::sync(0, mark));
                    frame::encode_control_flow_into(*flow, &mk, &mut buf)
                }
                _ => {
                    frame::encode_data_flow_into(*flow, payload, &mut buf);
                    prop_assert!(frame::write_number(&mut buf, mark));
                }
            }
            prop_assert_eq!(buf[1], *version);
            wire.push(buf);
        }
        for (buf, (version, flow, payload, round)) in wire.iter().zip(items.iter()) {
            let (got_flow, decoded) =
                frame::try_decode_flow(buf).expect("clean frames decode");
            let mark = ChannelMark { round: *round, dc: payload.len() as i64 + 1 };
            match (*version, decoded) {
                (frame::FRAME_VERSION, Frame::Control(c)) => {
                    prop_assert_eq!((got_flow, c), (0, Control::Probe { nonce: *round }));
                }
                (frame::FRAME_VERSION_FLOW, Frame::Control(c)) => {
                    let mk = Control::Marker(Marker::sync(0, mark));
                    prop_assert_eq!((got_flow, c), (*flow, mk));
                }
                (FRAME_VERSION_NUMBERED, Frame::Data(body)) => {
                    prop_assert_eq!((got_flow, body), (*flow, &payload[..]));
                    let p = frame::parse(buf).unwrap();
                    prop_assert_eq!(p.number(buf, *round), Some(mark));
                }
                (v, other) => prop_assert!(false, "version {} decoded as {:?}", v, other),
            }
            // The v1-only entry must reject flow-tagged frames rather
            // than misreading the varint as a body.
            let v1 = frame::try_decode(buf);
            prop_assert_eq!(v1.is_ok(), *version == frame::FRAME_VERSION);
        }
    }
}
