//! Logical reception — the resequencing engine of §4 and §5.
//!
//! The receiver separates *physical* reception (a packet arrives on a
//! channel and is appended to that channel's buffer) from *logical*
//! reception (the packet is removed from a buffer and delivered upward).
//! Logical reception is driven by a simulation of the sender's causal
//! scheduler: the receiver always knows which channel the next packet
//! *logically* arrives on, blocks on that channel's buffer, and services it
//! exactly as the sender's scheduler did. With no loss this reproduces the
//! sender's input order bit-for-bit (Theorem 4.1) — whatever the skew
//! between channels.
//!
//! Loss desynchronizes the simulation; the receiver then delivers a
//! shifted — possibly misordered — sequence until a marker arrives. The §5
//! recovery rule implemented here:
//!
//! - A marker on channel `c` carries `(r, d)`: the round and DC of the next
//!   data packet the sender put on `c` after the marker. The receiver
//!   records it as channel `c`'s *pending mark* (the paper's `r_c`).
//! - **Condition C1**: while `r_c` exceeds the receiver's global round `G`,
//!   the receiver has arrived at `c` "too early" (it lost packets and ran
//!   ahead); it skips `c` in the scan until `G` catches up, then adopts `d`
//!   as the channel's DC and resumes normal service.
//! - A data packet whose frame states the packet's own number
//!   ([`WireLen::number`]) is its own marker: the number is evaluated by
//!   the same rule when the packet reaches the head of its channel, so the
//!   simulation resynchronizes on that packet and not at the next marker.
//!   A marker states where the *next* packet will be and a number where
//!   *this* one was, so a number behind the global round — or ahead of
//!   what a later arrival on the same channel states — proves the packet
//!   is not the one the scan waits for: a duplicate, a straggler its
//!   channel reordered, a frame of an epoch a §5 reset flushed. It is
//!   delivered out of simulation order and the simulation does not move
//!   for it.
//! - **C1 has a reach**: a mark further ahead of `G` than an honest
//!   sender can be ([`LogicalReceiver::bound_marks`]) is refused — a
//!   marker where it enters, a number when its packet reaches the head
//!   of its channel (the packet is then served as it stands) — so that a
//!   forged or bit-flipped round cannot buy an unbounded run of skips.

use std::collections::VecDeque;

use crate::marker::Marker;
use crate::sched::CausalScheduler;
use crate::types::{ChannelId, WireLen};

/// What physically arrives on a channel: an unmodified data packet or a
/// marker (distinguished by a lower-layer codepoint, never by touching the
/// data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arrival<P> {
    /// An application data packet.
    Data(P),
    /// A synchronization marker.
    Marker(Marker),
}

/// Receiver counters, under the workspace-wide snapshot convention: every
/// endpoint exposes `fn stats(&self) -> …Snapshot` whose drop counters are
/// named `dropped_<cause>` (see `PathSnapshot` in `stripe-transport` for
/// the sender-side sibling).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverSnapshot {
    /// Data packets delivered upward.
    pub delivered: u64,
    /// Markers observed (popped from channel buffers).
    pub markers_seen: u64,
    /// Marks adopted into the scheduler state.
    pub marks_applied: u64,
    /// Of those, marks whose DC no honest sender states, adopted clamped
    /// (see [`CausalScheduler::apply_mark`]).
    pub marks_clamped: u64,
    /// Channel visits skipped under condition C1.
    pub skips: u64,
    /// Packets whose number was behind the simulation's round, or ahead
    /// of a later arrival's on the same channel — a duplicate, a
    /// straggler its channel reordered, a frame of a flushed epoch —
    /// delivered out of simulation order without moving it.
    pub stale: u64,
    /// Arrivals dropped because a channel buffer was full.
    pub dropped_overflow: u64,
    /// Marks refused because they promise a round past the receiver's
    /// reach (see [`LogicalReceiver::bound_marks`]); a packet that
    /// carried one is still delivered.
    pub dropped_mark_ahead: u64,
    /// Channel visits skipped because the channel is leaving the striping
    /// set (membership announced, nothing buffered to serve).
    pub membership_skips: u64,
    /// Membership changes applied to the simulation.
    pub memberships_applied: u64,
    /// Data packets salvaged from a dead channel's buffer and delivered
    /// out of simulation order.
    pub drained_dead: u64,
    /// Stall episodes reported by [`LogicalReceiver::stalled`].
    pub stalls: u64,
}

/// The queue whose head packet is the next delivery.
#[derive(Debug, Clone, Copy)]
enum Head {
    /// The salvage queue (data stranded on a masked-out channel).
    Salvaged,
    /// This channel's ring.
    Channel(ChannelId),
}

/// A reusable batch of logically received packets: the receive-side
/// counterpart of the sender's `TxBatch`. Drain the receiver into one with
/// [`LogicalReceiver::poll_into`]; the buffer is cleared on each refill but
/// keeps its capacity, so a steady-state consumer allocates nothing.
#[derive(Debug, Clone)]
pub struct RxBatch<P> {
    pkts: Vec<P>,
}

impl<P> RxBatch<P> {
    /// An empty batch.
    pub fn new() -> Self {
        Self { pkts: Vec::new() }
    }

    /// An empty batch with room for `cap` packets before any growth.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            pkts: Vec::with_capacity(cap),
        }
    }

    /// Packets currently in the batch.
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// The packets, in delivery order.
    pub fn as_slice(&self) -> &[P] {
        &self.pkts
    }

    /// Iterate the packets in delivery order.
    pub fn iter(&self) -> std::slice::Iter<'_, P> {
        self.pkts.iter()
    }

    /// Move the packets out, leaving the capacity in place.
    pub fn drain(&mut self) -> std::vec::Drain<'_, P> {
        self.pkts.drain(..)
    }

    /// Discard the contents, keeping the capacity.
    pub fn clear(&mut self) {
        self.pkts.clear();
    }
}

impl<P> Default for RxBatch<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, P> IntoIterator for &'a RxBatch<P> {
    type Item = &'a P;
    type IntoIter = std::slice::Iter<'a, P>;
    fn into_iter(self) -> Self::IntoIter {
        self.pkts.iter()
    }
}

/// Tracking for one stall episode: how long the receiver has been blocked
/// on a starved channel while other channels have traffic waiting.
#[derive(Debug, Clone, Copy)]
struct StallState {
    channel: ChannelId,
    since_ns: u64,
    reported: bool,
}

/// One channel's share of the receiver state. Kept together so that
/// serving a channel touches one place, not three parallel arrays.
#[derive(Debug, Clone)]
struct RxChannel<P> {
    /// Arrivals awaiting logical reception, oldest first.
    buf: VecDeque<Arrival<P>>,
    /// Pending mark: the paper's `r_c` (plus the DC to adopt).
    pending: Option<crate::sched::ChannelMark>,
    /// The sender's last announced mask keeps this channel in the set.
    /// Leads the scheduler's own mask until the effective round.
    target_live: bool,
}

/// The logical-reception resequencer.
///
/// `push` arrivals as they physically appear on each channel (in per-channel
/// FIFO order — the channel contract), then `poll` until it returns `None`
/// to drain every packet that is logically deliverable so far.
#[derive(Debug, Clone)]
pub struct LogicalReceiver<S: CausalScheduler, P> {
    sched: S,
    chans: Box<[RxChannel<P>]>,
    /// Packets salvaged from dead channels, awaiting delivery.
    drained: VecDeque<P>,
    /// A membership change has been applied since the last reset, so the
    /// scheduler may have masked a channel out (now or at a round yet to
    /// come) and reception has to look for arrivals stranded on one.
    /// Until then every channel is live and that scan is skipped.
    masked: bool,
    cap_per_channel: usize,
    /// The longest packet [`bound_marks`](Self::bound_marks) was told
    /// of; until told, a mark may be any number of rounds ahead.
    max_len: Option<usize>,
    stall_timeout_ns: Option<u64>,
    stall: Option<StallState>,
    stats: ReceiverSnapshot,
}

impl<S: CausalScheduler, P: WireLen> LogicalReceiver<S, P> {
    /// Create a receiver simulating `sched` (which must be an identically
    /// configured, fresh copy of the sender's scheduler), with at most
    /// `cap_per_channel` buffered arrivals per channel.
    pub fn new(sched: S, cap_per_channel: usize) -> Self {
        assert!(cap_per_channel > 0, "buffers must hold at least one packet");
        let chans = (0..sched.channels())
            .map(|_| RxChannel {
                buf: VecDeque::new(),
                pending: None,
                target_live: true,
            })
            .collect::<Box<[_]>>();
        Self {
            masked: (0..chans.len()).any(|c| !sched.live(c)),
            sched,
            chans,
            drained: VecDeque::new(),
            cap_per_channel,
            max_len: None,
            stall_timeout_ns: None,
            stall: None,
            stats: ReceiverSnapshot::default(),
        }
    }

    /// Physical reception: append an arrival to channel `c`'s buffer.
    ///
    /// Returns `false` (and drops the arrival) if the buffer is full —
    /// finite buffers are part of the channel model; the §6.3 credit scheme
    /// exists to prevent exactly this. A marker out of
    /// [reach](Self::bound_marks) is refused the same way, counted
    /// `dropped_mark_ahead`.
    pub fn push(&mut self, c: ChannelId, a: Arrival<P>) -> bool {
        if let Arrival::Marker(mk) = &a {
            if !self.admit_mark(mk.mark) {
                return false;
            }
        }
        let room = self.admit(c);
        if room {
            self.chans[c].buf.push_back(a);
        }
        room
    }

    /// [`push`](Self::push) for the per-packet path: the arrival is built
    /// by `make`, which runs only once the ring has room for it (not at
    /// all if the buffer is full) and whose result is written straight
    /// into its slot.
    ///
    /// An arrival built first and pushed second sits on the stack across
    /// the ring's growth check and is copied into the ring with loads
    /// wider than the stores that wrote it. Such a load cannot be fed
    /// from the store buffer; it waits until every older store has
    /// reached the cache, and the older stores are the previous packets'
    /// writes into rings that are not in the cache.
    ///
    /// Inlined always: out of line `make` is a closure object on the
    /// caller's stack, read back field by field — the same crossing by
    /// another road (the optimizer took that road when the arrival grew
    /// a flag: `small_10kflows_64B` −7 %, 0 of 10, until this line).
    #[inline(always)]
    pub fn push_with(&mut self, c: ChannelId, make: impl FnMut() -> Arrival<P>) -> bool {
        let room = self.admit(c);
        if room {
            // Grows first, then writes what `make` returns in place.
            let buf = &mut self.chans[c].buf;
            buf.resize_with(buf.len() + 1, make);
        }
        room
    }

    /// Whether channel `c`'s buffer can take one more arrival; counts the
    /// arrival as dropped if not.
    #[inline]
    fn admit(&mut self, c: ChannelId) -> bool {
        let room = self.chans[c].buf.len() < self.cap_per_channel;
        if !room {
            self.stats.dropped_overflow += 1;
        }
        room
    }

    /// Bound condition C1, for a sender whose packets are at most
    /// `max_len` bytes: from now on a mark is refused if it is further
    /// ahead of the simulation's round than an honest one can be. Every
    /// round a mark is ahead is one skip of its channel per scan, so
    /// unbounded, one forged or bit-flipped `round` costs up to 2^64
    /// skips inside one [`poll`](Self::poll). The simulation trails the
    /// sender by what is buffered, so an arriving mark is ahead by the
    /// rounds its sender spent on the packets still in that channel's
    /// ring, the one being waited for and the one the mark is about:
    /// capacity + 2 packets, at the scheduler's
    /// [`rounds_per_packet`](CausalScheduler::rounds_per_packet) each,
    /// under the quanta in force or scheduled when the mark arrives.
    /// Unbounded by default: in-process callers make their own marks. An
    /// outage longer than the reach is past what markers heal and needs
    /// the §5 reset.
    pub fn bound_marks(&mut self, max_len: usize) {
        self.max_len = Some(max_len);
    }

    /// Whether mark `m` is within [reach](Self::bound_marks); counts it
    /// `dropped_mark_ahead` if not. A marker is judged where it enters, a
    /// packet's [number](WireLen::number) when the packet reaches the
    /// head of its channel.
    #[inline]
    fn admit_mark(&mut self, m: crate::sched::ChannelMark) -> bool {
        let lead = m.round.saturating_sub(self.sched.round());
        // No scheduler serves a packet in less than a round: up to the
        // ring's capacity ahead needs no look at the quanta.
        lead <= self.cap_per_channel as u64 || self.admit_far_mark(lead)
    }

    /// [`admit_mark`](Self::admit_mark) for a mark `lead` rounds ahead,
    /// further than the ring is deep: what only loss (or a forger) makes.
    #[cold]
    fn admit_far_mark(&mut self, lead: u64) -> bool {
        let ok = self.max_len.is_none_or(|max_len| {
            let packets = self.cap_per_channel as u64 + 2;
            lead <= packets.saturating_mul(self.sched.rounds_per_packet(max_len))
        });
        if !ok {
            self.stats.dropped_mark_ahead += 1;
        }
        ok
    }

    /// Pre-size every channel ring (and the salvage queue) for `per_channel`
    /// arrivals, so steady-state operation below that depth never grows a
    /// buffer. The batch datapath's zero-allocation guarantee assumes a
    /// warmed receiver.
    pub fn reserve(&mut self, per_channel: usize) {
        for ch in self.chans.iter_mut() {
            ch.buf.reserve(per_channel.saturating_sub(ch.buf.len()));
        }
        self.drained.reserve(per_channel);
    }

    /// Logical reception in bulk: deliver every packet that is deliverable
    /// right now into `out` (cleared first, capacity kept) and return how
    /// many were delivered. Equivalent to calling [`poll`](Self::poll)
    /// until it returns `None`.
    pub fn poll_into(&mut self, out: &mut RxBatch<P>) -> usize {
        out.pkts.clear();
        while let Some(at) = self.locate() {
            // Grows first, then moves the packet from its ring slot
            // straight into its batch slot: popped first and pushed
            // second it would cross the stack, over the growth check
            // (see `push_with`).
            let n = out.pkts.len();
            out.pkts.resize_with(n + 1, || self.take(at));
        }
        let n = out.pkts.len();
        if n > 0 {
            self.stats.delivered += n as u64;
            self.stall = None;
        }
        n
    }

    /// Logical reception: deliver the next in-order packet, or `None` if the
    /// receiver is blocked waiting for an arrival on the expected channel.
    ///
    /// Packets salvaged from a channel the scheduler has masked out (see
    /// [`LogicalReceiver::apply_membership`]) are delivered first — out of
    /// simulation order, but quasi-FIFO tolerates that and it beats
    /// dropping data that already arrived.
    pub fn poll(&mut self) -> Option<P> {
        let at = self.locate()?;
        let p = self.take(at);
        self.stats.delivered += 1;
        self.stall = None;
        Some(p)
    }

    /// Find the next packet to deliver — salvaged ones first, then
    /// whatever the simulation says comes next — and step the simulation
    /// over it, leaving it at the head of the queue named for
    /// [`take`](Self::take) to move out, and the delivery bookkeeping to
    /// [`poll`](Self::poll) and [`poll_into`](Self::poll_into). Nothing
    /// holds the packet by value while the scheduler runs.
    fn locate(&mut self) -> Option<Head> {
        if self.masked {
            self.drain_dead();
            if !self.drained.is_empty() {
                return Some(Head::Salvaged);
            }
        }
        loop {
            let c = self.sched.current();
            let ch = &mut self.chans[c];

            // Membership skip: the sender announced `c` is leaving the set,
            // so its in-flight packets for the rounds before the mask takes
            // effect are presumed lost with the channel. Anything already
            // buffered is still served in order; an empty buffer is skipped
            // instead of blocked on.
            if !ch.target_live && ch.buf.is_empty() {
                self.sched.skip_current();
                self.stats.membership_skips += 1;
                continue;
            }

            // Condition C1: honour a pending mark for the expected channel.
            if let Some(m) = ch.pending {
                if m.round > self.sched.round() {
                    // Arrived too early at `c` (losses made us run ahead):
                    // skip it this round.
                    self.sched.skip_current();
                    self.stats.skips += 1;
                    continue;
                }
                self.stats.marks_clamped += !self.sched.apply_mark(c, m) as u64;
                ch.pending = None;
                self.stats.marks_applied += 1;
            }

            match ch.buf.front() {
                None => return None, // block on the expected channel
                Some(Arrival::Marker(mk)) => {
                    self.stats.markers_seen += 1;
                    // Newest marker wins: it reflects fresher sender state.
                    ch.pending = Some(mk.mark);
                    ch.buf.pop_front();
                }
                Some(Arrival::Data(p)) => {
                    // A packet that states its own number is its own
                    // marker, under the same rule. It stays at the head
                    // while it is skipped, number and all; in sync it
                    // costs three compares and stores nothing. A number
                    // behind the simulation's round, or ahead of a later
                    // arrival's on its channel, is no packet the scan is
                    // waiting for — a duplicate, a straggler its channel
                    // reordered, a frame of a flushed epoch — and is
                    // delivered as it is, the simulation unmoved. One
                    // further ahead than an honest sender can be is
                    // refused, and the packet served as it stands.
                    let (g, len) = (self.sched.round(), p.wire_len());
                    if let Some(m) = p.number(g) {
                        if m.round < g || (m.round > g && Self::overtaken(&ch.buf, m.round, g)) {
                            self.stats.stale += 1;
                            return Some(Head::Channel(c));
                        }
                        if m.round > g {
                            if self.admit_mark(m) {
                                self.sched.skip_current();
                                self.stats.skips += 1;
                                continue;
                            }
                        } else if m != self.sched.mark_for(c) {
                            self.stats.marks_clamped += !self.sched.apply_mark(c, m) as u64;
                            self.stats.marks_applied += 1;
                        }
                    }
                    self.sched.advance(len);
                    return Some(Head::Channel(c));
                }
            }
        }
    }

    /// Whether a later arrival in `buf` states a round before `round`, the
    /// one its head states (both read near `g`): its channel carried them
    /// out of order, so the head — a frame of a flushed epoch, or a
    /// straggler — is no packet the scan is waiting for, however far
    /// ahead it says it is.
    #[cold]
    fn overtaken(buf: &VecDeque<Arrival<P>>, round: u64, g: u64) -> bool {
        match buf.back() {
            Some(Arrival::Data(q)) => q.number(g).is_some_and(|n| n.round < round),
            _ => false,
        }
    }

    /// Move out the packet [`locate`](Self::locate) just found.
    #[inline]
    fn take(&mut self, at: Head) -> P {
        let head = match at {
            Head::Salvaged => self.drained.pop_front(),
            Head::Channel(c) => match self.chans[c].buf.pop_front() {
                Some(Arrival::Data(p)) => Some(p),
                _ => None,
            },
        };
        head.expect("locate left a data packet at this head")
    }

    /// Move anything buffered on a channel the scheduler has masked out
    /// into the salvage queue: its data will never be logically scheduled
    /// again, so deliver it out of order rather than strand it. Stale
    /// markers and pending marks for the channel are discarded.
    fn drain_dead(&mut self) {
        for (c, ch) in self.chans.iter_mut().enumerate() {
            if self.sched.live(c) || ch.buf.is_empty() {
                continue;
            }
            for a in ch.buf.drain(..) {
                match a {
                    Arrival::Data(p) => {
                        self.drained.push_back(p);
                        self.stats.drained_dead += 1;
                    }
                    Arrival::Marker(_) => self.stats.markers_seen += 1,
                }
            }
            ch.pending = None;
        }
    }

    /// Apply a received membership change (from a
    /// [`Control::Membership`](crate::control::Control::Membership)): from
    /// `effective_round` the simulation visits exactly the channels with
    /// `live[c] == true`, matching the sender's scheduler. Until that round
    /// the departing channels' buffers are served if non-empty and skipped
    /// if empty (their in-flight packets died with the channel). Safe to
    /// call as soon as the message arrives.
    pub fn apply_membership(&mut self, effective_round: u64, live: &[bool]) {
        assert_eq!(
            live.len(),
            self.chans.len(),
            "membership update must cover every channel"
        );
        for (ch, &l) in self.chans.iter_mut().zip(live) {
            ch.target_live = l;
        }
        self.masked = true;
        self.sched.schedule_mask(effective_round, live);
        self.stats.memberships_applied += 1;
    }

    /// Arm the stall detector: [`LogicalReceiver::stalled`] reports a
    /// channel once the receiver has been blocked on it for `timeout_ns`
    /// while traffic waits on other channels.
    pub fn set_stall_timeout(&mut self, timeout_ns: u64) {
        self.stall_timeout_ns = Some(timeout_ns);
    }

    /// Liveness probe for the layer above: `Some(c)` when the receiver has
    /// been blocked on channel `c`'s empty buffer for at least the
    /// configured timeout *while other channels have arrivals waiting* —
    /// the signature of a dead channel head-of-line blocking the stripe.
    /// Returns `None` when no timeout is configured
    /// ([`LogicalReceiver::set_stall_timeout`]), when delivery is flowing,
    /// or when the whole stripe is simply idle.
    ///
    /// Call periodically with a monotone clock; each stall episode bumps
    /// [`ReceiverSnapshot::stalls`] once.
    pub fn stalled(&mut self, now_ns: u64) -> Option<ChannelId> {
        let timeout = self.stall_timeout_ns?;
        let c = self.sched.current();
        let starved = self.chans[c].buf.is_empty() && self.buffered_total() > 0;
        if !starved {
            self.stall = None;
            return None;
        }
        let st = match &mut self.stall {
            Some(st) if st.channel == c => st,
            _ => {
                self.stall = Some(StallState {
                    channel: c,
                    since_ns: now_ns,
                    reported: false,
                });
                self.stall.as_mut().expect("just set")
            }
        };
        if now_ns.saturating_sub(st.since_ns) >= timeout {
            if !st.reported {
                st.reported = true;
                self.stats.stalls += 1;
            }
            Some(c)
        } else {
            None
        }
    }

    /// Which channel the receiver is currently blocked on (the next logical
    /// arrival), useful for diagnostics.
    pub fn expected_channel(&self) -> ChannelId {
        self.sched.current()
    }

    /// Number of arrivals buffered on channel `c` awaiting logical
    /// reception.
    pub fn buffered(&self, c: ChannelId) -> usize {
        self.chans[c].buf.len()
    }

    /// Total arrivals buffered across all channels.
    pub fn buffered_total(&self) -> usize {
        self.chans.iter().map(|ch| ch.buf.len()).sum()
    }

    /// Visit every data packet held for later delivery — buffered on a
    /// channel or salvaged from a dead one — in a fixed order (channel by
    /// channel, oldest first, then the salvage queue) that is the same on
    /// every call while nothing is pushed or polled in between. For
    /// owners that need to move where a parked payload is stored; `f`
    /// must leave each packet's [`WireLen`] as it found it, because the
    /// simulation will charge that length when the packet is delivered.
    pub fn for_each_buffered_mut(&mut self, mut f: impl FnMut(&mut P)) {
        for a in self.chans.iter_mut().flat_map(|ch| ch.buf.iter_mut()) {
            if let Arrival::Data(p) = a {
                f(p);
            }
        }
        self.drained.iter_mut().for_each(f);
    }

    /// Counters.
    pub fn stats(&self) -> ReceiverSnapshot {
        self.stats
    }

    /// The simulation scheduler (read-only).
    pub fn scheduler(&self) -> &S {
        &self.sched
    }

    /// Apply a received quantum renegotiation: the simulation switches
    /// quanta at the same round the sender does (from a
    /// [`Control::QuantumAnnounce`](crate::control::Control::QuantumAnnounce)).
    /// Safe to call as soon as the message arrives — the round gate inside
    /// the scheduler handles the timing.
    pub fn schedule_quanta(&mut self, effective_round: u64, quanta: &[i64]) {
        self.sched.schedule_quanta(effective_round, quanta);
    }

    /// Reset to initial state, discarding buffers (endpoint restart, §5).
    pub fn reset(&mut self) {
        self.sched.reset();
        for ch in self.chans.iter_mut() {
            ch.buf.clear();
            ch.pending = None;
            ch.target_live = true;
        }
        self.drained.clear();
        self.masked = false;
        self.stall = None;
        self.stats = ReceiverSnapshot::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{ChannelMark, Srr};
    use crate::sender::{MarkerConfig, StripingSender};
    use crate::types::TestPacket;

    fn pump<S: CausalScheduler + Clone>(
        sched: S,
        cfg: MarkerConfig,
        lens: impl IntoIterator<Item = usize>,
        lose: impl Fn(u64, ChannelId) -> bool,
    ) -> (Vec<u64>, ReceiverSnapshot) {
        let mut tx = StripingSender::new(sched.clone(), cfg);
        let mut rx = LogicalReceiver::new(sched, 4096);
        let mut out = Vec::new();
        for (id, len) in lens.into_iter().enumerate() {
            let id = id as u64;
            let d = tx.send(len);
            if !lose(id, d.channel) {
                rx.push(d.channel, Arrival::Data(TestPacket::new(id, len)));
            }
            for (c, mk) in d.markers {
                rx.push(c, Arrival::Marker(mk));
            }
            while let Some(p) = rx.poll() {
                out.push(p.id);
            }
        }
        while let Some(p) = rx.poll() {
            out.push(p.id);
        }
        (out, rx.stats())
    }

    /// Theorem 4.1: without loss, output order equals input order, whatever
    /// the sizes.
    #[test]
    fn lossless_delivery_is_fifo() {
        let lens = (0..500).map(|i| 40 + (i * 97) % 1460);
        let (out, _) = pump(
            Srr::equal(3, 1500),
            MarkerConfig::disabled(),
            lens,
            |_, _| false,
        );
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }

    /// Theorem 4.1 holds for weighted channels too.
    #[test]
    fn lossless_fifo_with_weighted_channels() {
        let lens = (0..500).map(|i| 64 + (i * 131) % 1400);
        let (out, _) = pump(
            Srr::weighted(&[1500, 4500, 3000]),
            MarkerConfig::disabled(),
            lens,
            |_, _| false,
        );
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }

    /// The round-robin loss example of §4: with packet 1 lost and no
    /// markers, delivery is permanently shifted on the lossy channel.
    #[test]
    fn single_loss_without_markers_misorders_forever() {
        // RR over 2 channels; lose the very first packet (id 0, channel 0).
        let (out, _) = pump(
            Srr::rr(2),
            MarkerConfig::disabled(),
            std::iter::repeat_n(100, 12),
            |id, _| id == 0,
        );
        // Receiver pairs packet 2 with channel 0's next arrival: sequence
        // becomes 2,1,4,3,... exactly the paper's permanent reordering.
        assert_eq!(out, vec![2, 1, 4, 3, 6, 5, 8, 7, 10, 9]);
    }

    /// Figures 8–13: two equal channels, unit-size packets, packet 7 (our
    /// id 6) lost; a marker restores synchronization and FIFO delivery.
    #[test]
    fn figure_8_to_13_walkthrough() {
        let (out, stats) = pump(
            Srr::rr(2),
            MarkerConfig::every_rounds(3),
            std::iter::repeat_n(100, 24),
            |id, _| id == 6,
        );
        // Deliveries eventually return to consecutive order.
        let tail = &out[out.len() - 8..];
        let first = tail[0];
        let expect: Vec<u64> = (first..first + 8).collect();
        assert_eq!(tail, &expect[..], "full delivery: {out:?}");
        assert!(stats.skips >= 1, "C1 skip must have fired");
        assert!(stats.marks_applied >= 1);
    }

    /// After losses stop and one marker per channel arrives, delivery is
    /// FIFO again (Theorem 5.1) — bursty loss case.
    #[test]
    fn marker_recovery_after_burst_loss() {
        let lens = (0..2000).map(|i| 60 + (i * 53) % 1200);
        let (out, stats) = pump(
            Srr::equal(4, 1500),
            MarkerConfig::every_rounds(4),
            lens,
            |id, _| (300..420).contains(&id), // a 120-packet burst vanishes
        );
        // The tail after recovery must be strictly consecutive.
        assert!(out.len() > 1700);
        let tail = &out[out.len() - 1000..];
        for w in tail.windows(2) {
            assert_eq!(w[1], w[0] + 1, "tail not FIFO: ...{w:?}...");
        }
        assert!(stats.skips > 0);
    }

    /// Losing *everything* on one channel for a while must not deadlock the
    /// receiver: markers unblock it.
    #[test]
    fn dead_channel_does_not_deadlock() {
        let lens = std::iter::repeat_n(500, 2000);
        let (out, _) = pump(
            Srr::equal(2, 1500),
            MarkerConfig::every_rounds(2),
            lens,
            |id, ch| ch == 1 && id < 1000, // channel 1 black-holes early on
        );
        // Everything sent after the blackout must eventually be delivered.
        assert!(out.iter().any(|&id| id >= 1995), "delivered: {}", out.len());
        let tail = &out[out.len() - 200..];
        for w in tail.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn buffer_overflow_drops_and_counts() {
        let mut rx: LogicalReceiver<_, TestPacket> = LogicalReceiver::new(Srr::rr(2), 2);
        assert!(rx.push(1, Arrival::Data(TestPacket::new(0, 10))));
        assert!(rx.push(1, Arrival::Data(TestPacket::new(1, 10))));
        assert!(!rx.push(1, Arrival::Data(TestPacket::new(2, 10))));
        assert_eq!(rx.stats().dropped_overflow, 1);
    }

    /// `poll_into` drains exactly what repeated `poll` would, reusing the
    /// batch buffer across refills — under loss and markers, and through a
    /// membership shrink and regrow mid-stream: the dying channel's last
    /// arrivals turn up late, so some are served in order while the mask
    /// is pending and the rest are stranded when it bites and salvaged
    /// (with the stale marks behind them discarded) in the middle of a
    /// drain.
    #[test]
    fn poll_into_matches_repeated_poll() {
        let sched = Srr::equal(3, 1000);
        let mut tx = StripingSender::new(sched.clone(), MarkerConfig::every_rounds(2));
        let mut rx_batch = LogicalReceiver::new(sched.clone(), 4096);
        let mut rx_legacy = LogicalReceiver::new(sched, 4096);
        let mut batch = RxBatch::with_capacity(64);
        let mut got_batch = Vec::new();
        let mut got_legacy = Vec::new();
        // Channel 1's arrivals between the shrink's announcement and
        // their late release.
        let mut held = Vec::new();
        let (mut shrunk, mut released, mut regrown) = (None, false, false);
        for id in 0..4000u64 {
            let len = 60 + (id as usize * 113) % 1200;
            let round = tx.scheduler().round();
            if shrunk.is_none() && round >= 20 {
                let eff = round + 3;
                shrunk = Some(eff);
                tx.schedule_mask(eff, &[true, false, true]);
                rx_batch.apply_membership(eff, &[true, false, true]);
                rx_legacy.apply_membership(eff, &[true, false, true]);
            }
            if !regrown && round >= 60 {
                regrown = true;
                tx.schedule_mask(round + 2, &[true, true, true]);
                rx_batch.apply_membership(round + 2, &[true, true, true]);
                rx_legacy.apply_membership(round + 2, &[true, true, true]);
            }
            let d = tx.send(len);
            let mut arrivals = Vec::new();
            if id % 41 != 7 || id >= 3000 {
                arrivals.push((d.channel, Arrival::Data(TestPacket::new(id, len))));
            }
            arrivals.extend(d.markers.iter().map(|&(c, mk)| (c, Arrival::Marker(mk))));
            // Released all at once, a round before the mask bites, the
            // last marker among them twice: the copy ends up behind the
            // stranded data and is discarded with it.
            if shrunk.is_some_and(|eff| round + 1 >= eff) && !released {
                released = true;
                let dup = held.iter().rfind(|(_, a)| matches!(a, Arrival::Marker(_)));
                let dup = dup.cloned();
                arrivals.append(&mut held);
                arrivals.extend(dup);
            }
            for (c, a) in arrivals {
                if c == 1 && shrunk.is_some() && !released {
                    held.push((c, a));
                    continue;
                }
                rx_batch.push(c, a.clone());
                rx_legacy.push(c, a);
            }
            // Drain in bursts, so one drain spans many packets and, once,
            // the round the mask takes effect in.
            if id % 16 == 15 {
                rx_batch.poll_into(&mut batch);
                got_batch.extend(batch.iter().map(|p| p.id));
                while let Some(p) = rx_legacy.poll() {
                    got_legacy.push(p.id);
                }
                assert_eq!(got_batch, got_legacy, "diverged by packet {id}");
                assert_eq!(rx_batch.stats(), rx_legacy.stats());
            }
        }
        let stats = rx_batch.stats();
        assert!(released && regrown);
        assert_eq!(stats.memberships_applied, 2);
        assert!(stats.drained_dead > 0, "nothing was salvaged: {stats:?}");
        assert!(stats.membership_skips > 0 && stats.skips > 0, "{stats:?}");
        assert!(
            stats.marks_applied > 0 && stats.markers_seen > stats.marks_applied,
            "{stats:?}"
        );
        assert_eq!(rx_batch.buffered(1), rx_legacy.buffered(1));
        // Losses stop at packet 3000 and markers resynchronize: the tail
        // is in order, on all three channels again.
        let tail = &got_batch[got_batch.len() - 500..];
        assert!(tail.windows(2).all(|w| w[1] > w[0]), "tail misordered");
        assert!(tx.accountant().bytes(1) > 0);
    }

    #[test]
    fn blocked_receiver_reports_expected_channel() {
        let mut rx: LogicalReceiver<_, TestPacket> = LogicalReceiver::new(Srr::rr(2), 8);
        // Data waiting on channel 1, but channel 0 is logically next.
        rx.push(1, Arrival::Data(TestPacket::new(1, 100)));
        assert_eq!(rx.poll(), None);
        assert_eq!(rx.expected_channel(), 0);
        assert_eq!(rx.buffered(1), 1);
        // The expected packet arrives: both drain in order.
        rx.push(0, Arrival::Data(TestPacket::new(0, 100)));
        assert_eq!(rx.poll().map(|p| p.id), Some(0));
        assert_eq!(rx.poll().map(|p| p.id), Some(1));
        assert_eq!(rx.poll(), None);
    }

    /// Quantum renegotiation mid-stream: both ends switch at the same
    /// round and FIFO delivery holds throughout — no loss, no reorder.
    #[test]
    fn fifo_across_quantum_renegotiation() {
        let sched = Srr::weighted(&[1500, 1500]);
        let mut tx = StripingSender::new(sched.clone(), MarkerConfig::every_rounds(8));
        let mut rx = LogicalReceiver::new(sched, 4096);
        let mut out = Vec::new();
        let mut announced = false;
        for id in 0..2000u64 {
            let len = 100 + (id as usize * 97) % 1300;
            // Partway in, channel 1's rate "triples": renegotiate.
            if !announced && tx.scheduler().round() == 20 {
                announced = true;
                let round = tx.scheduler().round() + 4;
                tx.schedule_quanta(round, &[1500, 4500]);
                rx.schedule_quanta(round, &[1500, 4500]);
            }
            let d = tx.send(len);
            rx.push(d.channel, Arrival::Data(TestPacket::new(id, len)));
            for (c, mk) in d.markers {
                rx.push(c, Arrival::Marker(mk));
            }
            while let Some(p) = rx.poll() {
                out.push(p.id);
            }
        }
        while let Some(p) = rx.poll() {
            out.push(p.id);
        }
        assert!(announced, "renegotiation never triggered");
        assert_eq!(out, (0..2000).collect::<Vec<_>>());
        // And the shares did shift: channel 1 carried ~3x after the change.
        let acct = tx.accountant();
        assert!(acct.bytes(1) > 2 * acct.bytes(0), "{:?}", acct);
    }

    /// Membership shrink mid-stream: channel 1 dies (all its packets are
    /// lost), both ends apply the same mask at the same round, and
    /// delivery continues on the survivors without deadlock — losing only
    /// the in-flight packets that died with the channel.
    #[test]
    fn membership_shrink_degrades_without_deadlock() {
        let sched = Srr::equal(3, 1500);
        let mut tx = StripingSender::new(sched.clone(), MarkerConfig::every_rounds(4));
        let mut rx = LogicalReceiver::new(sched, 4096);
        let mut out = Vec::new();
        let mut dead = false;
        for id in 0..3000u64 {
            let len = 80 + (id as usize * 61) % 1300;
            // At round 30 the sender learns channel 1 died at round 25:
            // everything on channel 1 since then was lost in flight.
            if !dead && tx.scheduler().round() >= 30 {
                dead = true;
                let eff = tx.scheduler().round() + 2;
                tx.schedule_mask(eff, &[true, false, true]);
                rx.apply_membership(eff, &[true, false, true]);
            }
            let d = tx.send(len);
            let lost = d.channel == 1 && dead;
            // Model in-flight loss: once we decide ch1 is dying, its data
            // and markers stop arriving (the scheduler still assigns to it
            // until the mask's effective round).
            if !lost {
                rx.push(d.channel, Arrival::Data(TestPacket::new(id, len)));
            }
            for (c, mk) in d.markers {
                if c != 1 || !dead {
                    rx.push(c, Arrival::Marker(mk));
                }
            }
            while let Some(p) = rx.poll() {
                out.push(p.id);
            }
        }
        while let Some(p) = rx.poll() {
            out.push(p.id);
        }
        assert!(dead);
        let stats = rx.stats();
        assert!(stats.membership_skips > 0, "{stats:?}");
        assert_eq!(stats.memberships_applied, 1);
        // Everything not sent on the dead channel after the cut arrives.
        assert!(out.contains(&2999), "delivered {} packets", out.len());
        // The tail (after degradation settles) is strictly consecutive
        // on the surviving channels: quasi-FIFO holds at N-1.
        let tail = &out[out.len() - 500..];
        for w in tail.windows(2) {
            assert!(w[1] > w[0], "tail misordered: {w:?}");
        }
    }

    /// Growing the set back: after a shrink, the same handshake with the
    /// bit restored reintegrates the channel and exact FIFO resumes.
    #[test]
    fn membership_grow_reintegrates_channel() {
        let sched = Srr::equal(2, 1000);
        let mut tx = StripingSender::new(sched.clone(), MarkerConfig::every_rounds(4));
        let mut rx = LogicalReceiver::new(sched, 4096);
        // Shrink to channel 0 only, effective immediately-ish.
        let eff = tx.scheduler().round() + 1;
        tx.schedule_mask(eff, &[true, false]);
        rx.apply_membership(eff, &[true, false]);
        let mut out = Vec::new();
        for id in 0..200u64 {
            let d = tx.send(500);
            rx.push(d.channel, Arrival::Data(TestPacket::new(id, 500)));
            for (c, mk) in d.markers {
                rx.push(c, Arrival::Marker(mk));
            }
            while let Some(p) = rx.poll() {
                out.push(p.id);
            }
        }
        assert!(out.iter().all(|&id| id < 200));
        // Recover: grow back to both channels.
        let eff = tx.scheduler().round() + 2;
        tx.schedule_mask(eff, &[true, true]);
        rx.apply_membership(eff, &[true, true]);
        for id in 200..1200u64 {
            let d = tx.send(500);
            rx.push(d.channel, Arrival::Data(TestPacket::new(id, 500)));
            for (c, mk) in d.markers {
                rx.push(c, Arrival::Marker(mk));
            }
            while let Some(p) = rx.poll() {
                out.push(p.id);
            }
        }
        while let Some(p) = rx.poll() {
            out.push(p.id);
        }
        // No loss anywhere in this run: exact FIFO end to end.
        assert_eq!(out, (0..1200).collect::<Vec<_>>());
        // And the reintegrated channel is actually carrying load again.
        assert!(tx.accountant().bytes(1) > 0);
    }

    /// Data already buffered on a channel when its mask takes effect is
    /// salvaged (delivered out of order), not stranded.
    #[test]
    fn dead_channel_buffer_is_drained_not_stranded() {
        let mut rx: LogicalReceiver<_, TestPacket> = LogicalReceiver::new(Srr::rr(2), 8);
        // Shrink to channel 0, effective immediately (round clamps
        // internally); serving channel 0 past a wrap makes it bite.
        rx.apply_membership(0, &[true, false]);
        rx.push(0, Arrival::Data(TestPacket::new(0, 100)));
        rx.push(0, Arrival::Data(TestPacket::new(1, 100)));
        let mut out = Vec::new();
        while let Some(p) = rx.poll() {
            out.push(p.id);
        }
        assert_eq!(out, vec![0, 1]);
        // A straggler arrives on the now-dead channel: salvaged, not
        // stranded.
        rx.push(1, Arrival::Data(TestPacket::new(7, 100)));
        assert_eq!(rx.poll().map(|p| p.id), Some(7));
        assert_eq!(rx.stats().drained_dead, 1);
        assert_eq!(rx.buffered_total(), 0);
    }

    /// The stall probe: blocked on an empty channel while others queue up
    /// reports after the timeout, once per episode, and clears on delivery.
    #[test]
    fn stalled_reports_starved_channel_after_timeout() {
        let mut rx: LogicalReceiver<_, TestPacket> = LogicalReceiver::new(Srr::rr(2), 64);
        // No timeout configured: never reports.
        assert_eq!(rx.stalled(1_000_000), None);
        rx.set_stall_timeout(1_000_000); // 1ms
                                         // Idle stripe (nothing buffered anywhere): not a stall.
        assert_eq!(rx.stalled(0), None);
        assert_eq!(rx.stalled(5_000_000), None);
        // Channel 0 is expected but silent; channel 1 queues up.
        rx.push(1, Arrival::Data(TestPacket::new(1, 100)));
        assert_eq!(rx.poll(), None);
        assert_eq!(rx.stalled(10_000_000), None); // episode starts now
        assert_eq!(rx.stalled(10_500_000), None); // not yet
        assert_eq!(rx.stalled(11_000_000), Some(0)); // timed out
        assert_eq!(rx.stalled(12_000_000), Some(0)); // still stalled
        assert_eq!(rx.stats().stalls, 1, "one episode, one count");
        // The missing packet shows up: stall clears.
        rx.push(0, Arrival::Data(TestPacket::new(0, 100)));
        assert!(rx.poll().is_some());
        assert_eq!(rx.stalled(13_000_000), None);
        assert_eq!(rx.stats().stalls, 1);
    }

    #[test]
    fn for_each_buffered_mut_visits_parked_data_in_a_stable_order() {
        let mut rx: LogicalReceiver<_, TestPacket> = LogicalReceiver::new(Srr::rr(2), 8);
        // Shrink to channel 0 and serve it past a wrap, so the mask bites
        // and channel 1 is dead (as in the salvage test above).
        rx.apply_membership(0, &[true, false]);
        rx.push(0, Arrival::Data(TestPacket::new(0, 100)));
        rx.push(0, Arrival::Data(TestPacket::new(1, 100)));
        while rx.poll().is_some() {}
        let mark = crate::sched::ChannelMark { round: 9, dc: 0 };
        rx.push(1, Arrival::Data(TestPacket::new(7, 50)));
        rx.push(1, Arrival::Marker(Marker::sync(1, mark)));
        rx.push(1, Arrival::Data(TestPacket::new(8, 60)));
        rx.push(0, Arrival::Data(TestPacket::new(5, 100)));
        let ids = |rx: &mut LogicalReceiver<Srr, TestPacket>| {
            let mut seen = Vec::new();
            rx.for_each_buffered_mut(|p| seen.push(p.id));
            seen
        };
        assert_eq!(ids(&mut rx), [5, 7, 8], "by channel, markers skipped");
        assert_eq!(ids(&mut rx), [5, 7, 8], "and the same again");
        // Polling salvages the dead channel's backlog and delivers 7.
        assert_eq!(rx.poll().map(|p| p.id), Some(7));
        assert_eq!(ids(&mut rx), [5, 8], "buffered first, then salvaged");
    }

    /// A packet whose frame states its number (`None`: it has none).
    #[derive(Debug, Clone, PartialEq)]
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

    /// One run of a numbering sender: per packet its channel, number,
    /// length and the marker batch due behind it.
    type Sent = Vec<(ChannelId, ChannelMark, usize, Vec<(ChannelId, Marker)>)>;

    fn numbered_run<S: CausalScheduler + Clone>(sched: S, lens: &[usize]) -> Sent {
        let mut tx = StripingSender::new(sched, MarkerConfig::every_rounds(4));
        let (mut channels, mut numbers, mut markers) = (Vec::new(), Vec::new(), Vec::new());
        tx.send_batch_numbered(lens, &mut channels, &mut numbers, &mut markers);
        (0..lens.len())
            .map(|i| {
                let due = markers.iter().filter(|m| m.0 == i);
                let due = due.map(|&(_, c, mk)| (c, mk)).collect();
                (channels[i], numbers[i], lens[i], due)
            })
            .collect()
    }

    proptest::proptest! {
        /// A packet that states its number is delivery-equivalent to a
        /// marker stating it directly ahead of the packet: over random
        /// lengths, random loss (a lost packet takes either form of its
        /// number along) and which packets are numbered at all, both
        /// receivers deliver the same packets in the same order with the
        /// same skips — for SRR and for the randomized striper.
        #[test]
        fn a_number_is_a_marker_directly_ahead_of_its_packet(
            lens in proptest::collection::vec(40usize..1500, 50..400),
            fates in proptest::collection::vec((0u32..100, proptest::arbitrary::any::<bool>()), 400),
            (loss_pct, quantum, sprinkler) in (0u32..30, 500i64..3000, proptest::arbitrary::any::<bool>()),
        ) {
            fn run<S: CausalScheduler + Clone>(
                sched: S,
                lens: &[usize],
                fates: &[(u32, bool)],
                loss_pct: u32,
            ) -> Result<(), proptest::test_runner::TestCaseError> {
                let mut inline = LogicalReceiver::new(sched.clone(), 4096);
                let mut ahead = LogicalReceiver::new(sched.clone(), 4096);
                let (mut got_inline, mut got_ahead) = (Vec::new(), Vec::new());
                let sent = numbered_run(sched, lens);
                for (id, ((c, number, len, due), &(fate, stated))) in sent.into_iter().zip(fates).enumerate() {
                    // Loss stops for the last fifth: both must end in order.
                    let lost = fate < loss_pct && id < lens.len() * 4 / 5;
                    let p = |number| Numbered { id: id as u64, len, number };
                    if !lost {
                        inline.push(c, Arrival::Data(p(stated.then_some(number))));
                        if stated {
                            ahead.push(c, Arrival::Marker(Marker::sync(c, number)));
                        }
                        ahead.push(c, Arrival::Data(p(None)));
                    }
                    for (c, mk) in due {
                        inline.push(c, Arrival::Marker(mk));
                        ahead.push(c, Arrival::Marker(mk));
                    }
                    if id % 7 == 6 {
                        got_inline.extend(std::iter::from_fn(|| inline.poll()).map(|p| p.id));
                        got_ahead.extend(std::iter::from_fn(|| ahead.poll()).map(|p| p.id));
                        proptest::prop_assert_eq!(&got_inline, &got_ahead, "by packet {}", id);
                        proptest::prop_assert_eq!(inline.stats().skips, ahead.stats().skips);
                    }
                }
                let (a, b) = (inline.stats(), ahead.stats());
                proptest::prop_assert_eq!((a.delivered, a.skips), (b.delivered, b.skips));
                // A marker ahead is adopted whatever it says; a number
                // only where it says something new.
                proptest::prop_assert!(a.marks_applied <= b.marks_applied);
                Ok(())
            }
            if sprinkler {
                run(crate::sched::Sprinkler::new(&[4, 2, 1], quantum as u64), &lens, &fates, loss_pct)?;
            } else {
                run(Srr::equal(3, quantum), &lens, &fates, loss_pct)?;
            }
        }
    }

    /// In sync a number is read and nothing is written: the simulation
    /// is, after every delivery, the one that never saw a number.
    #[test]
    fn an_in_sync_number_changes_no_scheduler_state() {
        let sched = Srr::weighted(&[1500, 4500, 3000]);
        let lens: Vec<usize> = (0..600).map(|i| 64 + (i * 131) % 1400).collect();
        let mut numbered = LogicalReceiver::new(sched.clone(), 4096);
        let mut plain = LogicalReceiver::new(sched.clone(), 4096);
        for (id, (c, number, len, _)) in numbered_run(sched, &lens).into_iter().enumerate() {
            let p = |number| Numbered {
                id: id as u64,
                len,
                number,
            };
            numbered.push(c, Arrival::Data(p(Some(number))));
            plain.push(c, Arrival::Data(p(None)));
            assert_eq!(numbered.poll().map(|p| p.id), Some(id as u64));
            assert_eq!(plain.poll().map(|p| p.id), Some(id as u64));
            assert_eq!(numbered.scheduler(), plain.scheduler(), "after packet {id}");
        }
        assert_eq!(numbered.stats(), plain.stats());
        assert_eq!(numbered.stats().marks_applied, 0);
    }

    /// A numbered packet the scan arrives at too early stays at the head
    /// of its channel, number and all, and is judged again at the next
    /// visit: one loss, one skip, and delivery is in order from the very
    /// next packet on the lossy channel.
    #[test]
    fn a_skipped_head_keeps_its_number_for_the_next_visit() {
        // One quantum-sized packet per channel per round.
        let sched = Srr::equal(2, 1000);
        let mut rx = LogicalReceiver::new(sched.clone(), 64);
        for (id, (c, number, len, _)) in numbered_run(sched, &[1000; 12]).into_iter().enumerate() {
            let p = Numbered {
                id: id as u64,
                len,
                number: Some(number),
            };
            if id != 0 {
                rx.push(c, Arrival::Data(p));
            }
        }
        // Packet 2 heads channel 0 and says round 2: in round 1 it is
        // passed over, once, and still there with its number in round 2.
        assert_eq!(rx.poll().map(|p| p.id), Some(1));
        assert_eq!((rx.stats().skips, rx.buffered(0)), (1, 5));
        let rest: Vec<u64> = std::iter::from_fn(|| rx.poll()).map(|p| p.id).collect();
        assert_eq!(rest, (2..12).collect::<Vec<_>>());
        // The number also put right the deficit the skipped visit left
        // credited twice; every later one was in sync.
        let s = rx.stats();
        assert_eq!((s.skips, s.marks_applied), (1, 1), "{s:?}");
    }

    /// A number behind the simulation's round is a duplicate or a
    /// straggler: it is delivered where it comes, counted, and the
    /// simulation does not move for it — the packet the scan waits for in
    /// that slot is still delivered in its place.
    #[test]
    fn a_number_behind_the_scan_is_delivered_without_moving_it() {
        // One quantum-sized packet per channel per round.
        let sched = Srr::equal(2, 1000);
        let sent = numbered_run(sched.clone(), &[1000; 8]);
        let mut rx = LogicalReceiver::new(sched, 64);
        let mut push = |id: usize| {
            let (c, number, len, _) = sent[id];
            let p = Numbered {
                id: id as u64,
                len,
                number: Some(number),
            };
            rx.push(c, Arrival::Data(p));
        };
        // Packet 1 (channel 1, round 1) arrives again behind packet 3.
        (0..4).for_each(&mut push);
        push(1);
        (4..8).for_each(&mut push);
        let got: Vec<u64> = std::iter::from_fn(|| rx.poll()).map(|p| p.id).collect();
        assert_eq!(got, [0, 1, 2, 3, 4, 1, 5, 6, 7]);
        let s = rx.stats();
        assert_eq!((s.stale, s.skips, s.marks_applied), (1, 0, 0), "{s:?}");
    }

    /// A head whose number is ahead, but behind which its channel has
    /// since brought a packet stating an earlier round, arrived out of
    /// its channel's order (here: a frame of an epoch a §5 reset
    /// flushed): it is stale, delivered at once, and the channel is not
    /// skipped for it.
    #[test]
    fn a_head_overtaken_on_its_channel_is_stale_not_skipped_for() {
        let sched = Srr::equal(2, 1000);
        let sent = numbered_run(sched.clone(), &[1000; 4]);
        let mut rx = LogicalReceiver::new(sched, 64);
        let old = Numbered {
            id: 99,
            len: 1000,
            number: Some(ChannelMark {
                round: 2000,
                dc: 1000,
            }),
        };
        rx.push(0, Arrival::Data(old.clone()));
        // Alone it is a number far ahead: the channel is skipped for it.
        assert_eq!(rx.poll().map(|p| p.id), None);
        assert_eq!(rx.stats().skips, 1);
        rx.reset();
        rx.push(0, Arrival::Data(old));
        for (id, &(c, number, len, _)) in sent.iter().enumerate() {
            let p = Numbered {
                id: id as u64,
                len,
                number: Some(number),
            };
            rx.push(c, Arrival::Data(p));
        }
        let got: Vec<u64> = std::iter::from_fn(|| rx.poll()).map(|p| p.id).collect();
        assert_eq!(got, [99, 0, 1, 2, 3]);
        let s = rx.stats();
        assert_eq!((s.stale, s.skips, s.marks_applied), (1, 0, 0), "{s:?}");
    }

    /// Condition C1 has a reach once the longest packet is known: a
    /// marker further ahead is refused by `push`, counted, and costs no
    /// skip; the furthest honest one is let in.
    #[test]
    fn a_marker_out_of_reach_is_refused_at_push() {
        let mut rx: LogicalReceiver<_, TestPacket> = LogicalReceiver::new(Srr::equal(1, 1500), 8);
        let at = |round| Arrival::Marker(Marker::sync(0, ChannelMark { round, dc: 1500 }));
        // Unbounded until told: in-process callers make their own marks.
        assert!(rx.push(0, at(1 << 40)));
        rx.reset();
        rx.bound_marks(2999);
        // (8 + 2) packets, each at most 2999 / 1500 + 1 = 2 rounds.
        let reach = 20;
        assert!(!rx.push(0, at(1 + reach + 1)));
        assert!(!rx.push(0, at(u64::MAX)));
        assert_eq!(rx.stats().dropped_mark_ahead, 2);
        assert_eq!(rx.buffered_total(), 0);
        assert!(rx.push(0, at(1 + reach)));
        // A smaller quantum scheduled: packets take more rounds each, and
        // marks made under it may be further ahead.
        rx.schedule_quanta(5, &[500]);
        assert!(rx.push(0, at(1 + 10 * 6)));
        assert!(!rx.push(0, at(1 + 10 * 6 + 1)));
        // What a mark costs is the skips to its round, and no more.
        rx.push(0, Arrival::Data(TestPacket::new(0, 100)));
        assert_eq!(rx.poll().map(|p| p.id), Some(0));
        assert_eq!(rx.stats().skips, 60);
    }

    #[test]
    fn reset_clears_everything() {
        let mut rx: LogicalReceiver<_, TestPacket> = LogicalReceiver::new(Srr::rr(2), 8);
        rx.push(0, Arrival::Data(TestPacket::new(0, 100)));
        rx.poll();
        rx.reset();
        assert_eq!(rx.stats(), ReceiverSnapshot::default());
        assert_eq!(rx.buffered_total(), 0);
        assert_eq!(rx.expected_channel(), 0);
    }
}
