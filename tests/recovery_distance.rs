//! How far a loss reaches, deterministically: out-of-order deliveries
//! per lost frame on the yardstick's lossy mix, and where order returns
//! once loss stops.
//!
//! The shape is `mixed_lossy_8flows` of `benchmark/`: eight flows, a
//! seeded 64 / 1400-byte mix dealt round-robin in 128-packet bursts, four
//! channels, a mark every four rounds, 1 % Bernoulli loss on channel 0
//! through [`ImpairedLink`] — over in-memory links and logical steps, so
//! every count repeats exactly and this is a gate where the wall-clock
//! yardstick can only be a measurement.
//!
//! What is pinned:
//!
//! - **The typical case.** Every frame long enough for the mark field
//!   states its own number, so a flow that lost a frame on channel 0 is
//!   put straight by its next long frame there: at most 1.5 deliveries
//!   out of order per loss (each loss is itself a gap the oracle of
//!   `benchmark/` smooths in; the figure here is the bare ratio).
//! - **Theorem 5.1, restated.** Once loss stops, a flow is exactly FIFO
//!   again from its first number-stating frame on the lossy channel —
//!   one long frame or one marker interval, whichever comes first.
//! - **The bypass.** Where no frame has the field, recovery waits for
//!   the marker cadence, as it always did. The same mix with integrity
//!   on (a checksummed frame has no field) reads the old figure, about
//!   five per loss; the same run with every payload 64 bytes, whose four
//!   rounds are some 375 packets of a flow, reads dozens. Both are FIFO
//!   again a marker interval after loss stops: the worst case the
//!   cadence still bounds, and the reason the cadence stays.

use stripe::core::receiver::RxBatch;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::link::{datagram_pair, TestDatagramLink};
use stripe::net::frame::MARK_MIN_PAYLOAD;
use stripe::net::{ChaosPlan, FlowDemux, ImpairedLink, PumpEvent, StripeServer};
use stripe::netsim::{DetRng, SimTime};

const CHANNELS: usize = 4;
const FLOWS: usize = 8;
const BURST: usize = 128;
/// Bursts under loss, then bursts without.
const LOSSY_BURSTS: usize = 1500;
/// Two marker intervals of the all-short run (four rounds of 64-byte
/// frames are 24 of a flow's bursts) and some.
const CLEAN_BURSTS: usize = 60;
const LOSS_PPM: u32 = 10_000;
const SEED: u64 = 7;

/// What one run read.
struct Run {
    lost: u64,
    /// Deliveries behind a later packet of their flow.
    out_of_order: u64,
    /// Per flow: every sequence number in delivery order.
    delivered: Vec<Vec<u64>>,
    /// Per flow: its first packet pumped after loss stopped that went to
    /// channel 0 in a frame with the mark field, if there was one.
    first_numbered: Vec<Option<u64>>,
    /// Per flow: its first packet pumped after the first full marker
    /// interval that followed the end of loss.
    after_interval: Vec<u64>,
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
    // Per flow: the lengths of its packets, by sequence number, and how
    // many of them the pumps have offered.
    let mut lens: Vec<Vec<usize>> = vec![Vec::new(); FLOWS];
    let mut offered = [0usize; FLOWS];
    let mut high = [None::<u64>; FLOWS];
    let mut r = Run {
        lost: 0,
        out_of_order: 0,
        delivered: vec![Vec::new(); FLOWS],
        first_numbered: vec![None; FLOWS],
        after_interval: vec![u64::MAX; FLOWS],
        sent: vec![0; FLOWS],
    };
    // Marker batches (one mark per channel) each flow made since loss
    // stopped.
    let mut batches_since = [0usize; FLOWS];
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
            p[..8].copy_from_slice(&(lens[flow].len() as u64).to_be_bytes());
            lens[flow].push(len);
            server.enqueue(handles[flow], &p).expect("a burst fits");
        }
        server.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        for ev in &events {
            match *ev {
                PumpEvent::Data {
                    flow,
                    channel,
                    error,
                } => {
                    assert_eq!(error, None, "the loss is the link's, not the queue's");
                    let f = flow as usize;
                    let seq = offered[f];
                    offered[f] += 1;
                    if !clean {
                        continue;
                    }
                    let numbered = channel == 0 && !integrity && lens[f][seq] >= MARK_MIN_PAYLOAD;
                    if numbered && r.first_numbered[f].is_none() {
                        r.first_numbered[f] = Some(seq as u64);
                    }
                    // Two batches: the first may have been made before
                    // the last lost frame's successor was offered.
                    if batches_since[f] >= 2 * CHANNELS && r.after_interval[f] == u64::MAX {
                        r.after_interval[f] = seq as u64;
                    }
                }
                PumpEvent::Marker { flow, .. } if clean => batches_since[flow as usize] += 1,
                PumpEvent::Marker { .. } => {}
            }
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
        (s.dropped_mark_ahead, s.marks_clamped),
        (0, 0),
        "an honest mark is never out of reach, nor out of range"
    );
    for (f, n) in offered.iter().enumerate() {
        assert_eq!(*n, lens[f].len(), "everything enqueued was pumped");
        r.sent[f] = *n as u64;
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

#[test]
fn a_loss_reaches_one_long_frame_not_four_rounds() {
    let r = run(1400, false);
    assert!(r.lost >= 400, "only {} losses", r.lost);
    let delivered: u64 = r.delivered.iter().map(|d| d.len() as u64).sum();
    assert_eq!(
        delivered + r.lost,
        r.sent.iter().sum::<u64>(),
        "the ledger closes"
    );
    let ratio = r.out_of_order as f64 / r.lost as f64;
    assert!(
        ratio <= 1.5,
        "{} out of order over {} losses: {ratio:.3} per loss",
        r.out_of_order,
        r.lost
    );
    // Theorem 5.1 as it now reads: loss stopped, order is back by each
    // flow's first number-stating frame on the lossy channel.
    for f in 0..FLOWS {
        let from = r.first_numbered[f].expect("sixty bursts hold a long frame on channel 0");
        assert!(
            fifo_from(&r.delivered[f], from, r.sent[f]),
            "flow {f} not FIFO from packet {from}"
        );
        assert!(
            from <= r.after_interval[f],
            "and that is inside the interval"
        );
    }
}

/// Out-of-order deliveries per loss of a run in which no frame has the
/// field, which must then be FIFO a marker interval after loss stopped.
fn bypassed(r: &Run) -> f64 {
    assert!(r.lost >= 400, "only {} losses", r.lost);
    assert_eq!(
        r.first_numbered,
        vec![None; FLOWS],
        "no frame has the field"
    );
    for f in 0..FLOWS {
        assert!(
            fifo_from(&r.delivered[f], r.after_interval[f], r.sent[f]),
            "flow {f} not FIFO a marker interval after loss stopped"
        );
    }
    r.out_of_order as f64 / r.lost as f64
}

#[test]
fn frames_without_the_field_wait_for_the_cadence() {
    // The old figure, the one this mix read before frames stated their
    // numbers: a loss misorders its flow until the next mark (4.83 here,
    // against 1.17 above).
    let summed = bypassed(&run(1400, true));
    assert!((4.0..=6.0).contains(&summed), "{summed:.3} per loss");
    // Short frames only: a marker interval is hundreds of packets (84.9).
    let short = bypassed(&run(64, false));
    assert!(short >= 20.0, "{short:.3} per loss");
}
