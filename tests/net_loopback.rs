//! The real-socket datapath over actual kernel UDP sockets on loopback:
//! Theorem 4.1 (exact FIFO without loss), Theorem 5.1 (quasi-FIFO
//! recovery within a marker interval after loss), and a differential
//! check that the net codec carries the sim's control messages
//! byte-identically.
//!
//! These tests move real datagrams through the kernel, so they pace
//! themselves: small bursts, a receive sweep after every burst (loopback
//! receive buffers are finite), and wall-clock deadlines instead of
//! fixed spin counts.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use stripe::core::control::Control;
use stripe::core::marker::Marker;
use stripe::core::receiver::RxBatch;
use stripe::core::sched::{ChannelMark, Srr};
use stripe::core::sender::MarkerConfig;
use stripe::link::{datagram_pair, DatagramLink, Train};
use stripe::net::bundle;
use stripe::net::frame::{self, Frame, FRAME_HEADER_LEN};
use stripe::net::{
    ChaosPlan, DropPolicy, FlowDemux, ImpairedLink, PooledBuf, PumpEvent, StripeServer, UdpChannel,
    WallClock,
};
use stripe::netsim::{DetRng, SimTime};

const QUANTUM: i64 = 1500;

fn id_packet(id: u64, len: usize) -> Vec<u8> {
    let mut payload = vec![0u8; len];
    payload[..8].copy_from_slice(&id.to_be_bytes());
    payload
}

/// `link` with `policy` dropping data frames on the send side and
/// nothing else impaired.
fn dropping(link: UdpChannel, policy: DropPolicy) -> ImpairedLink<UdpChannel> {
    ImpairedLink::new(link, ChaosPlan::none().loss(policy), 0)
}

fn id_of(pb: &PooledBuf) -> u64 {
    u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap())
}

/// Theorem 4.1 over the kernel: four real UDP sockets, varied packet
/// sizes, thousands of packets — delivery is *exact* FIFO with nothing
/// lost, because each connected loopback socket is a FIFO channel and
/// logical reception needs nothing more.
#[test]
fn lossless_fifo_over_real_sockets() {
    const CHANNELS: usize = 4;
    const TOTAL: u64 = 2400;
    const BURST: u64 = 8;

    let mut tx_links = Vec::new();
    let mut rx_links = Vec::new();
    for _ in 0..CHANNELS {
        let (a, b) = UdpChannel::pair(2048, 1 << 12).unwrap();
        tx_links.push(a);
        rx_links.push(b);
    }
    let mut path = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .markers(MarkerConfig::every_rounds(4))
        .links(tx_links)
        .build();
    let flow = path.open_flow().unwrap();
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .links(rx_links)
        .build();

    let clock = WallClock::start();
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    let mut got: Vec<u64> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);

    let mut next_id = 0u64;
    while got.len() < TOTAL as usize {
        assert!(
            Instant::now() < deadline,
            "stalled at {} packets",
            got.len()
        );
        if next_id < TOTAL {
            for _ in 0..BURST.min(TOTAL - next_id) {
                // Sizes sweep 40..~1300 so channel runs vary in length.
                let pkt = id_packet(next_id, 40 + (next_id as usize * 131) % 1260);
                path.enqueue(flow, &pkt).unwrap();
                next_id += 1;
            }
            path.pump_into(clock.now(), usize::MAX, &mut events);
            for ev in &events {
                let (PumpEvent::Data { error, .. } | PumpEvent::Marker { error, .. }) = ev;
                assert!(error.is_none(), "loopback send failed: {ev:?}");
            }
        }
        path.flush();
        rx.sweep(clock.now());
        rx.poll_flow_into(flow.id(), &mut batch);
        for pb in batch.drain() {
            got.push(id_of(&pb));
            rx.recycle(pb);
        }
        std::thread::yield_now();
    }

    assert_eq!(got, (0..TOTAL).collect::<Vec<_>>(), "FIFO violated");
    assert_eq!(rx.net_stats().dropped_malformed, 0);
    assert_eq!(rx.flow_stats(flow.id()).unwrap().dropped_overflow, 0);
    assert_eq!(path.stats().path.dropped_queue, 0);
}

/// Nothing is ever written under a live view. The consumer sits on
/// every delivered payload for three further sweeps of heavy traffic —
/// so the pool has to land those in other buffers, growing when it has
/// none — and only then checks the bytes: each view must still read
/// exactly what was sent, fill and all.
#[test]
fn held_views_keep_their_bytes_across_later_sweeps() {
    const CHANNELS: usize = 4;
    const ROUNDS: u64 = 60;
    const BURST: u64 = 128;
    const HOLD: usize = 3;

    /// Payload `id`: the id, then a fill no other payload shares.
    fn filled(id: u64) -> Vec<u8> {
        let mut p = id_packet(id, 200 + (id as usize * 37) % 1000);
        let mut rng = DetRng::new(id);
        for b in &mut p[8..] {
            *b = rng.range_u64(0, 256) as u8;
        }
        p
    }

    let mut tx_links = Vec::new();
    let mut rx_links = Vec::new();
    for _ in 0..CHANNELS {
        let (a, b) = UdpChannel::builder(2048)
            .queue_cap(1 << 12)
            .rcvbuf(1 << 20)
            .pair()
            .unwrap();
        tx_links.push(a);
        rx_links.push(b);
    }
    let mut path = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .markers(MarkerConfig::every_rounds(4))
        .links(tx_links)
        .build();
    let flow = path.open_flow().unwrap();
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .links(rx_links)
        .build();
    let budget = rx.pool().allocated();

    let clock = WallClock::start();
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    // One entry per sweep: the views it delivered.
    let mut held: std::collections::VecDeque<Vec<PooledBuf>> = Default::default();
    let mut checked = 0u64;
    let mut check = |views: Vec<PooledBuf>| {
        for pb in views {
            assert_eq!(id_of(&pb), checked, "FIFO violated");
            assert_eq!(pb.as_slice(), &filled(checked)[..], "payload {checked}");
            checked += 1;
        }
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut round = 0;
    let mut delivered = 0;
    while delivered < ROUNDS * BURST {
        assert!(Instant::now() < deadline, "stalled at {delivered} packets");
        if round < ROUNDS {
            for id in round * BURST..(round + 1) * BURST {
                path.enqueue(flow, &filled(id)).unwrap();
            }
            path.pump_into(clock.now(), usize::MAX, &mut events);
            round += 1;
        }
        path.flush();
        rx.sweep(clock.now());
        rx.poll_flow_into(flow.id(), &mut batch);
        delivered += batch.len() as u64;
        held.push_back(batch.drain().collect());
        if held.len() > HOLD {
            check(held.pop_front().expect("non-empty"));
        }
    }
    held.into_iter().for_each(&mut check);
    assert_eq!(checked, ROUNDS * BURST);
    assert!(
        rx.pool().allocated() > budget,
        "four sweeps' worth of held payloads cannot fit the default pool"
    );
    assert_eq!(rx.pool().free_count() as u64, rx.pool().allocated());
}

/// Many flows of mixed lengths over the kernel: eight flows, a seeded
/// 50/50 mix of 64 B and 1400 B payloads, four real UDP sockets. Every
/// flow is delivered in exact FIFO order — the server regroups each
/// channel's burst by wire length across flows, which no flow may be
/// able to tell — and where the sockets offload, the short frames ride
/// the long trains in bundles: frames per kernel datagram is at least 24
/// on both sides (≈ 2.7 while frames left in offer order, ≈ 7 while each
/// length class was a train of its own), for at most a tenth more bytes
/// on the wire than the frames hold.
#[test]
fn mixed_length_flows_ride_long_trains_in_per_flow_fifo() {
    const CHANNELS: usize = 4;
    const FLOWS: usize = 8;
    const BURST: usize = 128;
    const BURSTS: usize = 120;

    let mut tx_links = Vec::new();
    let mut rx_links = Vec::new();
    for _ in 0..CHANNELS {
        let (a, b) = UdpChannel::pair(2048, 1 << 12).unwrap();
        tx_links.push(a);
        rx_links.push(b);
    }
    let mut path = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .markers(MarkerConfig::every_rounds(4))
        .links(tx_links)
        .build();
    let flows: Vec<_> = (0..FLOWS).map(|_| path.open_flow().unwrap()).collect();
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .links(rx_links)
        .pool_buffers(1024)
        .build();

    let clock = WallClock::start();
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    let mut next_id = [0u64; FLOWS];
    let mut got = [0u64; FLOWS];
    let mut coin = DetRng::new(7);
    for burst in 0..BURSTS {
        for i in 0..BURST {
            let f = (burst + i) % FLOWS;
            let len = if coin.chance(0.5) { 64 } else { 1400 };
            path.enqueue(flows[f], &id_packet(next_id[f], len)).unwrap();
            next_id[f] += 1;
        }
        path.pump_into(clock.now(), usize::MAX, &mut events);
        for ev in &events {
            let (PumpEvent::Data { error, .. } | PumpEvent::Marker { error, .. }) = ev;
            assert!(error.is_none(), "loopback send failed: {ev:?}");
        }
        // Drain the burst before offering the next one.
        let deadline = Instant::now() + Duration::from_secs(20);
        while got != next_id {
            assert!(Instant::now() < deadline, "stalled: {got:?} of {next_id:?}");
            path.flush();
            rx.sweep(clock.now());
            for (f, h) in flows.iter().enumerate() {
                rx.poll_flow_into(h.id(), &mut batch);
                for pb in batch.drain() {
                    assert_eq!(id_of(&pb), got[f], "flow {f}: FIFO violated");
                    got[f] += 1;
                    rx.recycle(pb);
                }
            }
        }
    }
    assert_eq!(rx.net_stats().dropped_malformed, 0);
    assert_eq!(path.stats().path.dropped_queue, 0);

    for (c, (tx, rx)) in path.links().iter().zip(rx.links()).enumerate() {
        if tx.gso_offload() && rx.gro_offload() {
            let (sent, recv) = (tx.stats().frames_per_train(), rx.stats().frames_per_train());
            assert!(sent >= 24.0, "channel {c}: {sent:.2} frames per GSO train");
            assert!(recv >= 24.0, "channel {c}: {recv:.2} frames per GRO train");
            let bytes = rx.stats().recv_bytes as f64 / tx.stats().sent_bytes as f64;
            assert!(
                bytes <= 1.10,
                "channel {c}: {bytes:.3} datagram bytes per frame byte"
            );
        }
    }
}

/// Theorem 5.1 over the kernel: a burst of data frames vanishes from one
/// channel mid-stream; markers resynchronize the receiver and delivery
/// is strictly in-order again well before the tail — every packet after
/// the recovery horizon arrives exactly once, in order.
#[test]
fn drop_window_recovers_within_marker_interval() {
    const CHANNELS: usize = 2;
    const TOTAL: u64 = 600;
    const BURST: u64 = 10;
    const PAYLOAD: usize = 300;
    // Data frames 50..55 on channel 0 vanish. At 5 packets per channel
    // per round that is mid-round-10; markers fire every 4 rounds, so
    // recovery must complete by round ~14 ≈ global packet 140. Assert
    // with slack: strictly ordered and gap-free from id 300 on.
    const DROP_FROM: u64 = 50;
    const DROP_TO: u64 = 55;
    const RECOVERY_HORIZON: u64 = 300;

    let (a0, b0) = UdpChannel::pair(2048, 1 << 12).unwrap();
    let (a1, b1) = UdpChannel::pair(2048, 1 << 12).unwrap();
    let mut path = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .markers(MarkerConfig::every_rounds(4))
        .links(vec![
            dropping(
                a0,
                DropPolicy::Window {
                    from: DROP_FROM,
                    to: DROP_TO,
                },
            ),
            dropping(a1, DropPolicy::None),
        ])
        .build();
    let flow = path.open_flow().unwrap();
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .links(vec![b0, b1])
        .build();

    let clock = WallClock::start();
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    let mut got: Vec<u64> = Vec::new();
    let expected = TOTAL - (DROP_TO - DROP_FROM);
    let deadline = Instant::now() + Duration::from_secs(20);

    let mut next_id = 0u64;
    while got.len() < expected as usize {
        assert!(
            Instant::now() < deadline,
            "stalled at {} packets",
            got.len()
        );
        if next_id < TOTAL {
            for _ in 0..BURST.min(TOTAL - next_id) {
                path.enqueue(flow, &id_packet(next_id, PAYLOAD)).unwrap();
                next_id += 1;
            }
            path.pump_into(clock.now(), usize::MAX, &mut events);
        }
        path.flush();
        rx.sweep(clock.now());
        rx.poll_flow_into(flow.id(), &mut batch);
        for pb in batch.drain() {
            got.push(id_of(&pb));
            rx.recycle(pb);
        }
        std::thread::yield_now();
    }

    let dropped = path.links()[0].snapshot().dropped_loss;
    assert_eq!(dropped, DROP_TO - DROP_FROM, "drop window must be exact");
    assert_eq!(
        got.len(),
        expected as usize,
        "everything not dropped arrives"
    );

    // Quasi-FIFO: the stream before the loss is exact FIFO…
    let first_disorder = got
        .windows(2)
        .position(|w| w[1] != w[0] + 1)
        .expect("a drop must perturb the sequence") as u64;
    assert!(
        first_disorder >= DROP_FROM,
        "disorder before the drop window (at delivery {first_disorder})"
    );
    // …and from the recovery horizon on it is exact FIFO again: strictly
    // ascending with no gaps all the way to the final id.
    let tail_start = got
        .iter()
        .position(|&id| id >= RECOVERY_HORIZON)
        .expect("tail must be delivered");
    let tail = &got[tail_start..];
    let want: Vec<u64> = (tail[0]..TOTAL).collect();
    assert_eq!(
        tail,
        &want[..],
        "tail not strictly in-order: recovery took longer than a marker interval"
    );
    // The marker machinery, not luck, did this.
    let rx_stats = rx.flow_stats(flow.id()).unwrap();
    assert!(
        rx_stats.marks_applied > 0,
        "recovery must have exercised the marker rules: {rx_stats:?}"
    );
}

/// Steady background loss: every `PERIOD`th data frame on channel 0
/// vanishes for the whole run. The receiver re-syncs on every marker
/// batch, stays quasi-FIFO throughout, and every surviving packet is
/// delivered exactly once — §5's sustained-loss regime, not just a
/// one-shot burst.
#[test]
fn periodic_loss_stays_quasi_fifo_and_resyncs_on_markers() {
    const CHANNELS: usize = 2;
    const TOTAL: u64 = 800;
    const BURST: u64 = 10;
    const PAYLOAD: usize = 300;
    const PERIOD: u64 = 10;
    // 5 frames per channel per round, markers every 4 rounds: one marker
    // interval spans ~40 global packets. Resync bounds displacement to
    // about one interval; assert with slack.
    const MAX_BACKJUMP: u64 = 150;

    let (a0, b0) = UdpChannel::pair(2048, 1 << 12).unwrap();
    let (a1, b1) = UdpChannel::pair(2048, 1 << 12).unwrap();
    let mut path = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .markers(MarkerConfig::every_rounds(4))
        .links(vec![
            dropping(a0, DropPolicy::Periodic { period: PERIOD }),
            dropping(a1, DropPolicy::None),
        ])
        .build();
    let flow = path.open_flow().unwrap();
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .links(vec![b0, b1])
        .build();

    let clock = WallClock::start();
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    let mut got: Vec<u64> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);

    let mut next_id = 0u64;
    loop {
        assert!(
            Instant::now() < deadline,
            "stalled at {} packets",
            got.len()
        );
        if next_id < TOTAL {
            for _ in 0..BURST.min(TOTAL - next_id) {
                path.enqueue(flow, &id_packet(next_id, PAYLOAD)).unwrap();
                next_id += 1;
            }
            path.pump_into(clock.now(), usize::MAX, &mut events);
        } else {
            // Stream over: idle markers heal any loss at the very tail
            // (a dropped final frame must not strand its successors).
            path.send_idle_markers_into(clock.now(), &mut events);
        }
        path.flush();
        rx.sweep(clock.now());
        rx.poll_flow_into(flow.id(), &mut batch);
        for pb in batch.drain() {
            got.push(id_of(&pb));
            rx.recycle(pb);
        }
        if next_id >= TOTAL {
            let expected = TOTAL - path.links()[0].snapshot().dropped_loss;
            if got.len() as u64 >= expected {
                break;
            }
        }
        std::thread::yield_now();
    }

    let dropped = path.links()[0].snapshot().dropped_loss;
    assert!(
        dropped >= TOTAL / (PERIOD * CHANNELS as u64 * 2),
        "the periodic policy must keep firing all run ({dropped} drops)"
    );
    // Conservation: delivered exactly once, nothing invented, nothing
    // lost beyond what the drop policy took.
    let mut uniq = got.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), got.len(), "duplicate deliveries");
    assert_eq!(got.len() as u64 + dropped, TOTAL, "conservation");

    // Quasi-FIFO under sustained loss: reordering happens, but every
    // backward step stays within a marker interval or so of the head —
    // the receiver re-synchronized on each marker instead of drifting.
    let max_backjump = got
        .windows(2)
        .filter(|w| w[1] < w[0])
        .map(|w| w[0] - w[1])
        .max()
        .unwrap_or(0);
    assert!(
        max_backjump <= MAX_BACKJUMP,
        "displacement {max_backjump} exceeds a marker interval bound"
    );
    // And the resync machinery really ran, marker after marker.
    let rx_stats = rx.flow_stats(flow.id()).unwrap();
    assert!(
        rx_stats.marks_applied >= TOTAL / 80,
        "markers must be applied throughout: {rx_stats:?}"
    );
}

fn arb_control() -> impl Strategy<Value = Control> {
    let arb_marker = (
        0usize..16,
        any::<u64>(),
        any::<i64>(),
        prop::option::of(0u32..u32::MAX),
    )
        .prop_map(|(channel, round, dc, credit)| Marker {
            channel,
            mark: ChannelMark { round, dc },
            credit,
        });
    prop_oneof![
        arb_marker.prop_map(Control::Marker),
        any::<u32>().prop_map(|epoch| Control::ResetRequest { epoch }),
        any::<u32>().prop_map(|epoch| Control::ResetAck { epoch }),
        (
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec(1i64..1 << 40, 1..16)
        )
            .prop_map(|(epoch, effective_round, quanta)| {
                Control::QuantumAnnounce {
                    epoch,
                    effective_round,
                    quanta,
                }
            }),
        any::<u32>().prop_map(|epoch| Control::QuantumAck { epoch }),
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
    ]
}

/// One datagram a broken or hostile peer might put on a channel: byte
/// soup, or a well-formed version-2 frame — data, summed data, a marker,
/// or data behind a mark field that is whole, garbage or cut short —
/// naming any flow id at all; or any of those behind the bundle magic,
/// as byte soup or packed into a bundle.
fn arb_datagram() -> impl Strategy<Value = Vec<u8>> {
    let soup = prop::collection::vec(any::<u8>(), 0..64);
    prop_oneof![
        arb_frame(),
        arb_frame(),
        soup.prop_map(|mut bytes| {
            bytes.insert(0, bundle::MAGIC);
            bytes
        }),
        prop::collection::vec(arb_frame(), 1..5).prop_map(|frames| {
            let mut wire = vec![bundle::MAGIC, frames.len() as u8];
            for f in &frames {
                wire.extend_from_slice(&(f.len() as u16).to_le_bytes());
            }
            frames.iter().for_each(|f| wire.extend_from_slice(f));
            wire
        }),
    ]
}

/// One frame of [`arb_datagram`], before any bundling.
fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    let flow = || prop_oneof![0u32..16, 1000u32..1100, any::<u32>()];
    let payload = || prop::collection::vec(any::<u8>(), 0..48);
    // Any round at all, and rounds near a fresh replica's own: a mark
    // further ahead than an honest sender can be is refused where it
    // enters (`dropped_mark_ahead`), so that none can make logical
    // reception skip its way to round 2^60.
    let round = || prop_oneof![any::<u64>(), 0u64..64];
    prop_oneof![
        prop::collection::vec(any::<u8>(), 1..64),
        (flow(), payload(), any::<bool>()).prop_map(|(flow, payload, summed)| {
            let mut wire = Vec::new();
            if summed {
                frame::encode_data_summed_flow_into(flow, &payload, &mut wire);
            } else {
                frame::encode_data_flow_into(flow, &payload, &mut wire);
            }
            wire
        }),
        (flow(), 0usize..2, round(), any::<i64>()).prop_map(|(flow, channel, round, dc)| {
            let mk = Marker::sync(channel, ChannelMark { round, dc });
            let mut wire = Vec::new();
            frame::encode_control_flow_into(flow, &Control::Marker(mk), &mut wire);
            wire
        }),
        // The mark-field kinds. A frame's number is a mark like any
        // other; a field nobody reads (kind 4) may hold anything;
        // `keep < 16` cuts the field short.
        (
            (flow(), payload()),
            prop::option::of((round(), any::<i64>())),
            any::<[u8; 16]>(),
            0usize..24,
        )
            .prop_map(|((flow, payload), mark, garbage, keep)| {
                let mut wire = Vec::new();
                frame::encode_data_markable_flow_into(flow, &payload, &mut wire);
                let field = wire.len() - payload.len() - frame::MARK_FIELD_LEN;
                match mark {
                    Some((round, dc)) => {
                        assert!(frame::write_mark(&mut wire, ChannelMark { round, dc }))
                    }
                    None => wire[field..field + 16].copy_from_slice(&garbage),
                }
                if keep < frame::MARK_FIELD_LEN {
                    wire.truncate(field + keep);
                }
                wire
            }),
    ]
}

proptest! {
    /// The demux behind the codec, fuzzed: whatever arrives — garbage, or
    /// frames of every flow-tagged kind with flow ids drawn up to
    /// `u32::MAX` — a sweep
    /// takes every datagram, never panics, and leaves the flow slab
    /// within its bound. (A flow id is a slab index; unbounded, one
    /// 7-byte frame could grow the slab to gigabytes.)
    #[test]
    fn demux_slab_stays_bounded_under_arbitrary_datagrams(
        datagrams in prop::collection::vec(arb_datagram(), 1..64),
    ) {
        const MAX_FLOWS: usize = 8;
        let (a0, b0) = datagram_pair(2048, 1 << 10);
        let (a1, b1) = datagram_pair(2048, 1 << 10);
        let mut tx = [a0, a1];
        let mut demux = FlowDemux::builder()
            .scheduler(Srr::equal(2, QUANTUM))
            .links(vec![b0, b1])
            .max_flows(MAX_FLOWS)
            .build();
        for (i, d) in datagrams.iter().enumerate() {
            tx[i % 2].send_frame(d).unwrap();
        }
        // A bundle's frames are frames; anything else is one.
        let frames: usize = datagrams
            .iter()
            .map(|d| bundle::count(d, Train::frame(d.len())))
            .sum();
        prop_assert_eq!(demux.sweep(SimTime::ZERO), frames);
        prop_assert!(demux.flow_id_limit() <= MAX_FLOWS + 1024);
        prop_assert!(
            demux.flow_slots() <= demux.flow_id_limit(),
            "slab grew to {} slots", demux.flow_slots()
        );
        let stats = demux.net_stats();
        prop_assert_eq!(stats.frames, frames as u64);
        prop_assert!(stats.flows_active as usize <= MAX_FLOWS);
        // Whatever was admitted drains without a panic.
        let mut batch = RxBatch::new();
        for id in 0..demux.flow_slots() {
            demux.poll_flow_into(id as u32, &mut batch);
        }
    }

    /// Differential: a control frame built by the net codec carries the
    /// sim encoder's bytes verbatim and decodes back to the identical
    /// message — one codec, two transports.
    #[test]
    fn net_frame_carries_sim_control_bytes_verbatim(c in arb_control()) {
        let mut wire = Vec::new();
        frame::encode_control_into(&c, &mut wire);
        prop_assert_eq!(wire.len(), FRAME_HEADER_LEN + c.wire_len());
        prop_assert_eq!(&wire[FRAME_HEADER_LEN..], &c.encode()[..]);
        prop_assert!(!frame::is_data_frame(&wire));
        prop_assert_eq!(frame::decode(&wire), Some(Frame::Control(c)));
    }

    /// Data frames round-trip any payload unchanged, zero-copy.
    #[test]
    fn net_data_frames_roundtrip(payload in prop::collection::vec(any::<u8>(), 0..1500)) {
        let mut wire = Vec::new();
        frame::encode_data_into(&payload, &mut wire);
        prop_assert_eq!(wire.len(), FRAME_HEADER_LEN + payload.len());
        prop_assert!(frame::is_data_frame(&wire));
        prop_assert_eq!(frame::decode(&wire), Some(Frame::Data(&payload[..])));
    }

    /// Arbitrary byte soup never panics the decoder and never decodes
    /// into a frame silently wrong — anything that decodes must
    /// re-encode (in its own wire kind) back to the bytes it came from.
    #[test]
    fn net_decode_is_faithful_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        match frame::try_decode(&bytes) {
            Err(_) => {} // rejected loudly — never delivered
            Ok(Frame::Data(body)) => {
                let mut re = Vec::new();
                if bytes[2] == frame::KIND_DATA_SUMMED {
                    frame::encode_data_summed_into(body, &mut re);
                } else {
                    frame::encode_data_into(body, &mut re);
                }
                prop_assert_eq!(re, bytes);
            }
            Ok(Frame::Control(c)) => {
                // Padded controls carry their message at a fixed offset
                // (the pad bytes are free); plain ones re-encode whole.
                if bytes[2] == frame::KIND_CONTROL_PADDED {
                    let at = FRAME_HEADER_LEN + frame::PAD_LEN_PREFIX;
                    prop_assert_eq!(&c.encode()[..], &bytes[at..at + c.wire_len()]);
                } else {
                    let mut re = Vec::new();
                    frame::encode_control_into(&c, &mut re);
                    prop_assert_eq!(re, bytes);
                }
            }
        }
    }

    /// Fuzz the decoder with damage a real network inflicts: truncation
    /// at any byte and single-bit flips anywhere in a summed data frame.
    /// The decoder must never panic, and a flipped frame must never be
    /// delivered with a wrong payload (CRC-8 catches every single-bit
    /// flip by construction).
    #[test]
    fn net_decoder_survives_truncation_and_bit_flips(
        payload in prop::collection::vec(any::<u8>(), 0..256),
        bit in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let mut wire = Vec::new();
        frame::encode_data_summed_into(&payload, &mut wire);
        // Truncation at any length: a loud error or a clean decode,
        // never a panic.
        let cut = cut % (wire.len() + 1);
        let _ = frame::try_decode(&wire[..cut]);
        // One flipped bit anywhere in the frame: whatever still decodes
        // as data must carry the original payload.
        let bit = bit % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        if let Ok(Frame::Data(body)) = frame::try_decode(&wire) {
            prop_assert_eq!(body, &payload[..]);
        }
    }
}
