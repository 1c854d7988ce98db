//! How far a loss reaches, deterministically: out-of-order deliveries
//! per lost frame on the yardstick's lossy mix, and where order returns
//! once loss stops.
//!
//! The shape is `mixed_lossy_8flows` of `benchmark/`: eight flows, a
//! seeded 64 / 1400-byte mix dealt round-robin in 128-packet bursts, four
//! channels, markers on, 1 % Bernoulli loss on channel 0 through
//! [`ImpairedLink`] — over in-memory links and logical steps, so every
//! count repeats exactly and this is a gate where the wall-clock
//! yardstick can only be a measurement.
//!
//! What is pinned:
//!
//! - **Every frame states its number**, whatever its length and with
//!   integrity on or off, so a flow that lost a frame on channel 0 is put
//!   straight by its very next frame there: at most 0.05 deliveries out of
//!   order per loss on the mix, on the same run with every payload 64
//!   bytes, and with integrity on. (Each loss is itself a gap the oracle
//!   of `benchmark/` smooths in; the figure here is the bare ratio.)
//! - **Theorem 5.1, restated.** Once loss stops, a flow is exactly FIFO
//!   again from its first frame on the lossy channel.
//! - **The idle sweep.** A flow whose last frame on a channel was lost,
//!   and which then fell silent, has no next frame to heal it: one
//!   [`send_idle_markers_into`](StripeServer::send_idle_markers_into)
//!   delivers everything it held back, in order.

use stripe::core::receiver::RxBatch;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::link::{datagram_pair, DatagramLink, TestDatagramLink};
use stripe::net::{ChaosPlan, FlowDemux, ImpairedLink, PumpEvent, StripeServer};
use stripe::netsim::{DetRng, SimTime};

const CHANNELS: usize = 4;
const FLOWS: usize = 8;
const BURST: usize = 128;
/// Bursts under loss, then bursts without.
const LOSSY_BURSTS: usize = 1500;
const CLEAN_BURSTS: usize = 60;
const LOSS_PPM: u32 = 10_000;
const SEED: u64 = 7;
/// The most out-of-order deliveries per loss any run below may read.
const REACH: f64 = 0.05;

/// What one run read.
struct Run {
    lost: u64,
    /// Deliveries behind a later packet of their flow.
    out_of_order: u64,
    /// Per flow: every sequence number in delivery order.
    delivered: Vec<Vec<u64>>,
    /// Per flow: its first packet pumped after loss stopped that went to
    /// channel 0, if there was one.
    first_on_lossy: Vec<Option<u64>>,
    sent: Vec<u64>,
}

/// One run of the shape above with `long`-byte long payloads.
fn run(long: usize, integrity: bool) -> Run {
    let (mut fwd, mut rx_links) = (Vec::new(), Vec::new());
    for c in 0..CHANNELS {
        let (a, b) = datagram_pair(2048, 1 << 12);
        let plan = match c {
            0 => ChaosPlan::none().loss_bernoulli(LOSS_PPM),
            _ => ChaosPlan::none(),
        };
        fwd.push(ImpairedLink::new(a, plan, SEED + c as u64));
        rx_links.push(b);
    }
    let proto = Srr::equal(CHANNELS, 1500);
    let mut server: StripeServer<Srr, ImpairedLink<TestDatagramLink>> = StripeServer::builder()
        .scheduler(proto.clone())
        .markers(MarkerConfig::every_rounds(4))
        .links(fwd)
        .integrity(integrity)
        .build();
    let mut demux: FlowDemux<Srr, TestDatagramLink> = FlowDemux::builder()
        .scheduler(proto)
        .links(rx_links)
        .build();
    let handles: Vec<_> = (0..FLOWS).map(|_| server.open_flow().unwrap()).collect();

    let mut rng = DetRng::new(SEED);
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    // Per flow: how many of its packets the pumps have offered.
    let mut offered = [0u64; FLOWS];
    let mut high = [None::<u64>; FLOWS];
    let mut r = Run {
        lost: 0,
        out_of_order: 0,
        delivered: vec![Vec::new(); FLOWS],
        first_on_lossy: vec![None; FLOWS],
        sent: vec![0; FLOWS],
    };
    let mut enqueued = [0u64; FLOWS];
    for burst in 0..LOSSY_BURSTS + CLEAN_BURSTS {
        let clean = burst >= LOSSY_BURSTS;
        if burst == LOSSY_BURSTS {
            r.lost = server.links()[0].snapshot().dropped_loss;
            server.links_mut()[0].set_plan(ChaosPlan::none());
        }
        for i in 0..BURST {
            let flow = i % FLOWS;
            let len = if rng.next_u64() >> 63 == 0 { 64 } else { long };
            let mut p = vec![flow as u8; len];
            p[..8].copy_from_slice(&enqueued[flow].to_be_bytes());
            enqueued[flow] += 1;
            server.enqueue(handles[flow], &p).expect("a burst fits");
        }
        server.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        for ev in &events {
            let PumpEvent::Data {
                flow,
                channel,
                error,
            } = *ev
            else {
                panic!("a pump offers data only: {ev:?}");
            };
            assert_eq!(error, None, "the loss is the link's, not the queue's");
            let f = flow as usize;
            if clean && channel == 0 && r.first_on_lossy[f].is_none() {
                r.first_on_lossy[f] = Some(offered[f]);
            }
            offered[f] += 1;
        }
        demux.sweep(SimTime::ZERO);
        for (f, h) in handles.iter().enumerate() {
            demux.poll_flow_into(h.id(), &mut batch);
            for pb in batch.drain() {
                let seq = u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap());
                match high[f] {
                    Some(h) if seq < h => r.out_of_order += 1,
                    _ => high[f] = Some(seq),
                }
                r.delivered[f].push(seq);
            }
        }
    }
    assert_eq!(
        server.links()[0].snapshot().dropped_loss,
        r.lost,
        "loss stopped"
    );
    let s = demux.net_stats();
    assert_eq!(
        (s.dropped_mark_ahead, s.marks_clamped, s.control_frames),
        (0, 0, 0),
        "an honest number is never out of reach, nor out of range, and pumps send data only"
    );
    for (f, n) in offered.iter().enumerate() {
        assert_eq!(*n, enqueued[f], "everything enqueued was pumped");
        r.sent[f] = *n;
    }
    r
}

/// `delivered` is exactly `from, from + 1, …, sent - 1` from the point
/// where `from` is delivered.
fn fifo_from(delivered: &[u64], from: u64, sent: u64) -> bool {
    let Some(at) = delivered.iter().position(|&s| s == from) else {
        return false;
    };
    delivered[at..].iter().copied().eq(from..sent)
}

/// Out-of-order deliveries per loss of `r`, which must close its ledger
/// and be FIFO from each flow's first frame on the lossy channel once
/// loss stopped.
fn reach(r: &Run) -> f64 {
    assert!(r.lost >= 400, "only {} losses", r.lost);
    let delivered: u64 = r.delivered.iter().map(|d| d.len() as u64).sum();
    assert_eq!(
        delivered + r.lost,
        r.sent.iter().sum::<u64>(),
        "the ledger closes"
    );
    for f in 0..FLOWS {
        let from =
            r.first_on_lossy[f].expect("sixty bursts put a frame of every flow on channel 0");
        assert!(
            fifo_from(&r.delivered[f], from, r.sent[f]),
            "flow {f} not FIFO from packet {from}"
        );
    }
    r.out_of_order as f64 / r.lost as f64
}

#[test]
fn a_loss_reaches_one_long_frame_not_four_rounds() {
    // The mix: 1.17 per loss when only long frames stated their number.
    let r = run(1400, false);
    let ratio = reach(&r);
    assert!(
        ratio <= REACH,
        "{} out of order over {} losses: {ratio:.3} per loss",
        r.out_of_order,
        r.lost
    );
}

#[test]
fn every_frame_is_numbered_so_no_loss_waits_for_the_cadence() {
    // Integrity on: a checksummed frame states its number under the
    // checksum (4.83 per loss when it stated none).
    let summed = reach(&run(1400, true));
    assert!(summed <= REACH, "{summed:.3} per loss");
    // Short frames only (84.9 per loss when a marker interval was
    // hundreds of packets of a flow).
    let short = reach(&run(64, false));
    assert!(short <= REACH, "{short:.3} per loss");
}

/// A flow loses its last frame on channel 0 and falls silent: the
/// frames it sent after that one on the other channels wait behind the
/// gap, and no next frame on channel 0 will ever state a number to
/// skip it. One idle sweep does: every frame that arrived is then
/// delivered, in order.
#[test]
fn an_idle_sweep_heals_a_flow_that_lost_its_last_frame() {
    const PACKETS: u64 = 40;
    let (mut tx, mut taps, mut feeds, mut rx) = (vec![], vec![], vec![], vec![]);
    for _ in 0..CHANNELS {
        let (a, tap) = datagram_pair(2048, 1 << 10);
        let (feed, b) = datagram_pair(2048, 1 << 10);
        tx.push(a);
        taps.push(tap);
        feeds.push(feed);
        rx.push(b);
    }
    let proto = Srr::equal(CHANNELS, 1500);
    let mut server: StripeServer<Srr, TestDatagramLink> = StripeServer::builder()
        .scheduler(proto.clone())
        .markers(MarkerConfig::every_rounds(4))
        .links(tx)
        .build();
    let mut demux: FlowDemux<Srr, TestDatagramLink> =
        FlowDemux::builder().scheduler(proto).links(rx).build();
    let h = server.open_flow().unwrap();
    for seq in 0..PACKETS {
        let mut p = vec![0u8; 700];
        p[..8].copy_from_slice(&seq.to_be_bytes());
        server.enqueue(h, &p).unwrap();
    }
    let mut events = Vec::new();
    server.pump_into(SimTime::ZERO, usize::MAX, &mut events);
    // The flow's last packet on channel 0, and one it sent later.
    let channel_of: Vec<usize> = events
        .iter()
        .map(|ev| match *ev {
            PumpEvent::Data { channel, .. } => channel,
            _ => unreachable!("a pump offers data only"),
        })
        .collect();
    let lost = channel_of.iter().rposition(|&c| c == 0).unwrap() as u64;
    assert!(lost < PACKETS - 1, "a later packet rides another channel");
    // Every frame crosses but that one.
    let mut buf = [0u8; 2048];
    let mut relay = |taps: &mut Vec<TestDatagramLink>, skip: Option<usize>| {
        for (c, tap) in taps.iter_mut().enumerate() {
            let mut k = 0;
            while let Some(n) = tap.recv_frame(&mut buf) {
                if !(c == 0 && Some(k) == skip) {
                    feeds[c].send_frame(&buf[..n]).unwrap();
                }
                k += 1;
            }
        }
    };
    let on_zero = channel_of.iter().filter(|&&c| c == 0).count();
    relay(&mut taps, Some(on_zero - 1));
    let mut batch = RxBatch::new();
    let mut got = Vec::new();
    let mut drain = |demux: &mut FlowDemux<Srr, TestDatagramLink>, got: &mut Vec<u64>| {
        demux.sweep(SimTime::ZERO);
        demux.poll_flow_into(h.id(), &mut batch);
        got.extend(
            batch
                .drain()
                .map(|pb| u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap())),
        );
    };
    drain(&mut demux, &mut got);
    assert_eq!(got, (0..lost).collect::<Vec<_>>(), "held back at the gap");
    // The flow is idle: one sweep of idle markers, and nothing else.
    server.send_idle_markers_into(SimTime::ZERO, &mut events);
    assert_eq!(events.len(), CHANNELS);
    relay(&mut taps, None);
    drain(&mut demux, &mut got);
    let want: Vec<u64> = (0..PACKETS).filter(|&s| s != lost).collect();
    assert_eq!(got, want, "FIFO after one idle sweep");
}
