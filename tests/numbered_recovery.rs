//! The numbered-frame rule, exhaustively at small N: a packet that states
//! its own number (§4's "when headers can be added") is its own marker,
//! judged by the receiver's pending-mark rule when it reaches the head of
//! its channel.
//!
//! The sender is the production [`StripingSender`], numbering through
//! [`send_batch_numbered`](StripingSender::send_batch_numbered); the far
//! end is the production [`LogicalReceiver`], which reads a number's round
//! from its low 16 bits as the socket path states it, refuses a number out
//! of its reach ([`bound_marks`](LogicalReceiver::bound_marks), as the
//! socket demux has it) and drains after every arrival. For SRR over two
//! and three channels, every sequence of [`PACKETS`] packets of two lengths
//! is sent once, with every packet numbered and with only the long ones
//! numbered (the harness drops the short ones' numbers); then a deduplicated breadth-first search runs every way the
//! channels can treat it — each channel's packets arrive in order, each
//! one can be lost, and the channels interleave in every order. That is
//! every subset of losses times every per-channel arrival interleaving.
//!
//! The properties, each named in the panic that reports it with the
//! sequence of arrivals and losses that broke it:
//!
//! - **nothing is delivered twice or invented** — every delivery is a
//!   packet that arrived, once;
//! - **when every frame is numbered, no survivor is delivered behind a
//!   later packet** — whatever was lost, delivery order is send order;
//! - **a skipped head keeps its number** — every packet that arrived and
//!   is not yet delivered is still buffered, with the number it was sent
//!   with (a skip passes over a head, it never consumes or rewrites it);
//! - **an honest number is never refused or clamped** — `dropped_mark_ahead`
//!   and `marks_clamped` stay zero, under the tightest reach: each ring just
//!   deep enough for its channel's packets; nor is it ever judged `stale`
//!   (a duplicate's or a straggler's);
//! - **no loss is exact FIFO** (Theorem 4.1) — once every packet arrived,
//!   all of them were delivered, in order.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use stripe::core::receiver::{Arrival, LogicalReceiver, RxBatch};
use stripe::core::sched::{ChannelMark, Srr};
use stripe::core::sender::{MarkerConfig, StripingSender};
use stripe::core::types::{ChannelId, WireLen};
use stripe::net::frame::nearest_round;

/// Packets per sequence in the tier-1 run; the ignored run goes deeper.
const PACKETS: usize = 6;
/// A short and a long payload against a 1000-byte quantum: up to fifteen
/// short packets share a channel's turn, a long one leaves its channel in
/// debt so that the scan passes over it a round.
const LENS: [usize; 2] = [64, 1400];
const QUANTUM: i64 = 1000;

/// A packet as the receiver holds it: its send-order id, its length, and
/// the number its frame states, if any — as the wire states it, the round
/// by its low 16 bits, read near the receiver's own.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pkt {
    id: usize,
    len: usize,
    number: Option<ChannelMark>,
}

impl WireLen for Pkt {
    fn wire_len(&self) -> usize {
        self.len
    }
    fn number(&self, near: u64) -> Option<ChannelMark> {
        self.number.map(|m| ChannelMark {
            round: nearest_round(m.round as u16, near),
            dc: m.dc,
        })
    }
}

/// What a channel does with its next packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrive(ChannelId),
    Lose(ChannelId),
}

/// One sent sequence: per channel, its packets in send order.
struct Sent {
    channels: Vec<Vec<Pkt>>,
    /// Every packet by its id.
    by_id: Vec<Pkt>,
    /// Every packet states a number.
    all_numbered: bool,
    packets: usize,
}

/// Send `lens` through a fresh SRR sender over `n` channels, which numbers
/// every packet; the frames of packets shorter than `number_from` bytes
/// drop their number here, so that the receiver's handling of unnumbered
/// arrivals stays checked.
fn send(n: usize, lens: &[usize], number_from: usize) -> Sent {
    // A cadence too slow to fire within the sequence: marker frames are
    // not what is under test.
    let mut tx = StripingSender::new(Srr::equal(n, QUANTUM), MarkerConfig::every_rounds(1 << 20));
    let (mut chans, mut numbers, mut markers) = (Vec::new(), Vec::new(), Vec::new());
    tx.send_batch_numbered(lens, &mut chans, &mut numbers, &mut markers);
    assert!(markers.is_empty(), "no marker falls due");
    assert_eq!(numbers.len(), lens.len(), "one number a packet");
    let mut channels = vec![Vec::new(); n];
    let mut by_id = Vec::new();
    for (id, ((&c, &len), &number)) in chans.iter().zip(lens).zip(&numbers).enumerate() {
        let number = (len >= number_from).then_some(number);
        channels[c].push(Pkt { id, len, number });
        by_id.push(Pkt { id, len, number });
    }
    Sent {
        channels,
        by_id,
        all_numbered: lens.iter().all(|&len| len >= number_from),
        packets: lens.len(),
    }
}

#[derive(Debug, Clone)]
struct World {
    rx: LogicalReceiver<Srr, Pkt>,
    /// Per channel: how many of its packets have arrived or been lost.
    next: Vec<usize>,
    /// Ids delivered, in delivery order.
    delivered: Vec<usize>,
    /// Ids that arrived.
    arrived: Vec<usize>,
}

type Verdict = Result<(), String>;

impl World {
    fn new(sent: &Sent) -> Self {
        let deepest = sent.channels.iter().map(Vec::len).max().unwrap_or(0);
        let mut rx = LogicalReceiver::new(Srr::equal(sent.channels.len(), QUANTUM), deepest.max(1));
        rx.bound_marks(LENS[1]);
        Self {
            rx,
            next: vec![0; sent.channels.len()],
            delivered: Vec::new(),
            arrived: Vec::new(),
        }
    }

    fn events(&self, sent: &Sent) -> Vec<Event> {
        (0..self.next.len())
            .filter(|&c| self.next[c] < sent.channels[c].len())
            .flat_map(|c| [Event::Arrive(c), Event::Lose(c)])
            .collect()
    }

    fn step(&mut self, sent: &Sent, event: Event, batch: &mut RxBatch<Pkt>) {
        match event {
            Event::Lose(c) => self.next[c] += 1,
            Event::Arrive(c) => {
                let pkt = sent.channels[c][self.next[c]].clone();
                self.next[c] += 1;
                self.arrived.push(pkt.id);
                self.rx.push(c, Arrival::Data(pkt));
                self.rx.poll_into(batch);
                self.delivered.extend(batch.iter().map(|p| p.id));
            }
        }
    }

    fn check(&mut self, sent: &Sent) -> Verdict {
        let mut seen = vec![false; sent.packets];
        for &id in &self.delivered {
            if !self.arrived.contains(&id) || std::mem::replace(&mut seen[id], true) {
                return Err(format!(
                    "nothing is delivered twice or invented: delivered {:?}",
                    self.delivered
                ));
            }
        }
        if sent.all_numbered && self.delivered.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!(
                "when every frame is numbered, no survivor is delivered behind a later packet: delivered {:?}",
                self.delivered
            ));
        }
        let s = self.rx.stats();
        if (
            s.dropped_mark_ahead,
            s.marks_clamped,
            s.stale,
            s.dropped_overflow,
        ) != (0, 0, 0, 0)
        {
            return Err(format!(
                "an honest number is never refused or clamped: {s:?}"
            ));
        }
        // Everything that arrived and is not delivered is still held,
        // with the number it was sent with.
        let mut held = Vec::new();
        self.rx.for_each_buffered_mut(|p| held.push(p.clone()));
        let mut want: Vec<Pkt> = (self.arrived.iter())
            .filter(|&&id| !seen[id])
            .map(|&id| sent.by_id[id].clone())
            .collect();
        held.sort_by_key(|p| p.id);
        want.sort_by_key(|p| p.id);
        if held != want {
            return Err(format!(
                "a skipped head keeps its number: holding {held:?}, want {want:?} ({} skips)",
                s.skips
            ));
        }
        let done = (0..self.next.len()).all(|c| self.next[c] == sent.channels[c].len());
        if done
            && self.arrived.len() == sent.packets
            && self.delivered != (0..sent.packets).collect::<Vec<_>>()
        {
            return Err(format!(
                "no loss is exact FIFO: delivered {:?}",
                self.delivered
            ));
        }
        Ok(())
    }
}

/// Breadth-first over every way the channels can treat `sent`: every
/// state is checked when first reached, and not expanded again. Returns
/// the number of distinct states.
fn explore(sent: &Sent) -> usize {
    // The receiver holds no marks or masks here, and its rings are what
    // arrived less what was delivered (checked at every step), so its
    // scheduler and its counters are the rest of its state.
    let key = |w: &World| {
        let mut h = DefaultHasher::new();
        format!("{:?}", w.rx.scheduler()).hash(&mut h);
        let s = w.rx.stats();
        (s.skips, s.marks_applied).hash(&mut h);
        let mut arrived = w.arrived.clone();
        arrived.sort_unstable();
        (&w.next, &w.delivered, arrived).hash(&mut h);
        h.finish()
    };
    let root = World::new(sent);
    let mut seen = HashSet::from([key(&root)]);
    let mut frontier = vec![(root, Vec::new())];
    let mut batch = RxBatch::new();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for (world, trace) in frontier {
            for event in world.events(sent) {
                let mut trace = trace.clone();
                trace.push(event);
                let mut child = world.clone();
                child.step(sent, event, &mut batch);
                if !seen.insert(key(&child)) {
                    continue;
                }
                if let Err(property) = child.check(sent) {
                    panic!("{property}\n  after {trace:?}");
                }
                next.push((child, trace));
            }
        }
        frontier = next;
    }
    seen.len()
}

/// Every sequence of `packets` packets of the two lengths, over two and
/// three channels, every packet numbered and only the long ones.
fn explore_all(packets: usize) -> usize {
    let mut states = 0;
    for n in [2, 3] {
        for pattern in 0..1u32 << packets {
            let lens: Vec<usize> = (0..packets)
                .map(|i| LENS[(pattern >> i & 1) as usize])
                .collect();
            for number_from in [0, LENS[1]] {
                let sent = send(n, &lens, number_from);
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| explore(&sent)));
                match result {
                    Ok(k) => states += k,
                    Err(e) => {
                        let what = e
                            .downcast_ref::<String>()
                            .cloned()
                            .unwrap_or_else(|| "a panic in the code under test".into());
                        panic!(
                            "{what}\n  {n} channels, lengths {lens:?}, numbered from {number_from}"
                        );
                    }
                }
            }
        }
    }
    states
}

#[test]
fn every_loss_and_interleaving_keeps_numbered_recovery_sound() {
    let states = explore_all(PACKETS);
    assert!(states > 50_000, "explored only {states} states");
}

#[test]
#[ignore = "the deeper bound: eight packets, tens of seconds in a debug build"]
fn every_loss_and_interleaving_to_eight_packets_keeps_numbered_recovery_sound() {
    explore_all(8);
}
