//! Glue between the striping engines and concrete links: a quasi-FIFO
//! striped datagram path.
//!
//! [`StripedPath`] owns N [`FifoLink`]s and a
//! [`stripe_core::StripingSender`]; each [`send`](StripedPath::send)
//! returns the set of physical transmissions (data + any due markers) with
//! their computed arrival times, ready to be scheduled on the experiment's
//! event queue and pushed into a [`stripe_core::LogicalReceiver`] on
//! arrival. This is the configuration of every §6.3 transport-layer
//! experiment and of the socket examples.
//!
//! The hot path is [`send_batch`](StripedPath::send_batch): it stripes a
//! whole burst at once into a caller-owned [`TxBatch`], reusing internal
//! scratch buffers so a steady-state sender performs no heap allocation
//! per packet. `send` remains as the per-packet legacy engine; the two are
//! decision-for-decision identical (the differential tests pin this).

use stripe_core::control::Control;
use stripe_core::receiver::Arrival;
use stripe_core::sched::CausalScheduler;
use stripe_core::sender::{MarkerConfig, StripingSender};
use stripe_core::types::{ChannelId, WireLen};
use stripe_core::Marker;
use stripe_link::{FifoLink, TxError, TxFate};
use stripe_netsim::SimTime;

/// One physical transmission produced by a send: where it went, whether it
/// arrives, and what it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transmission<P> {
    /// Channel the item was transmitted on.
    pub channel: ChannelId,
    /// Arrival time at the far end, or `None` if it was lost (in flight or
    /// to a full transmit queue — see `error`).
    pub arrival: Option<SimTime>,
    /// The carried item.
    pub item: Arrival<P>,
    /// Why it was lost, if it was.
    pub error: Option<TxError>,
}

/// Loss/overhead accounting for a striped path, under the workspace-wide
/// snapshot convention (`fn stats(&self) -> …Snapshot`, drop counters named
/// `dropped_<cause>` — see `ReceiverSnapshot` in `stripe-core` for the
/// receive-side sibling).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathSnapshot {
    /// Data packets handed to links.
    pub sent: u64,
    /// Data packets lost in flight.
    pub dropped_lost: u64,
    /// Data packets dropped at full transmit queues (congestion loss — the
    /// kind FCVC credit eliminates).
    pub dropped_queue: u64,
    /// Data packets delivered corrupted and therefore discarded by the far
    /// end's checksum (a fault-layer outcome; counted separately from
    /// clean in-flight loss).
    pub dropped_corrupt: u64,
    /// Extra data deliveries produced by fault-layer duplication.
    pub duplicates: u64,
    /// Markers transmitted.
    pub markers_sent: u64,
    /// Markers lost (in flight or queue).
    pub markers_lost: u64,
    /// Control messages (probes, membership, resets) transmitted.
    pub control_sent: u64,
    /// Control messages lost (in flight, queue, or link down).
    pub control_lost: u64,
}

/// One control-plane transmission: what was sent, where, and its fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlTransmission {
    /// Channel the message was transmitted on.
    pub channel: ChannelId,
    /// Arrival time at the far end, or `None` if lost (see `error`).
    pub arrival: Option<SimTime>,
    /// A duplicate arrival injected by the fault layer, if any.
    pub duplicate: Option<SimTime>,
    /// The carried message.
    pub ctl: Control,
    /// Why it was lost, if it was.
    pub error: Option<TxError>,
}

/// A reusable batch of physical transmissions: the caller-owned output
/// buffer of [`StripedPath::send_batch`]. Refilling clears the contents but
/// keeps the capacity, so a steady-state sender allocates nothing.
#[derive(Debug, Clone)]
pub struct TxBatch<P> {
    txs: Vec<Transmission<P>>,
}

impl<P> TxBatch<P> {
    /// An empty batch.
    pub fn new() -> Self {
        Self { txs: Vec::new() }
    }

    /// An empty batch with room for `cap` transmissions before any growth.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            txs: Vec::with_capacity(cap),
        }
    }

    /// Transmissions currently in the batch.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// The transmissions, in the order they were offered to the links.
    pub fn as_slice(&self) -> &[Transmission<P>] {
        &self.txs
    }

    /// Iterate the transmissions in offer order.
    pub fn iter(&self) -> std::slice::Iter<'_, Transmission<P>> {
        self.txs.iter()
    }

    /// Move the transmissions out, leaving the capacity in place.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Transmission<P>> {
        self.txs.drain(..)
    }

    /// Discard the contents, keeping the capacity.
    pub fn clear(&mut self) {
        self.txs.clear();
    }

    /// Append one transmission. This is how alternative datapaths (the
    /// real-socket path in `stripe-net`) fill the same batch type the sim
    /// path uses, so downstream consumers are datapath-agnostic.
    pub fn push(&mut self, t: Transmission<P>) {
        self.txs.push(t);
    }
}

impl<P> Default for TxBatch<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, P> IntoIterator for &'a TxBatch<P> {
    type Item = &'a Transmission<P>;
    type IntoIter = std::slice::Iter<'a, Transmission<P>>;
    fn into_iter(self) -> Self::IntoIter {
        self.txs.iter()
    }
}

/// The control-plane surface a failover/membership driver needs from a
/// striped datapath, independent of whether the channels are simulated
/// [`FifoLink`]s or real sockets.
///
/// [`StripedPath`] implements it over the analytic links; the
/// `stripe-net` crate's `StripeServer` implements it over kernel
/// sockets, which is what lets [`crate::failover::FailoverDriver`] run
/// unchanged on both. On a real path, `arrival` in the returned
/// [`ControlTransmission`] means "handed to the network at this instant"
/// (the far-end arrival is unknowable); `None` still means the message
/// never left.
pub trait ControlPath {
    /// Number of channels in the striping group.
    fn channels(&self) -> usize;

    /// The sender scheduler's current round, for computing effective
    /// rounds of membership/quantum changes.
    fn current_round(&self) -> u64;

    /// Schedule a membership mask on the local scheduler (see
    /// [`stripe_core::sender::StripingSender::schedule_mask`]).
    ///
    /// An **all-dead mask parks the path** (total blackout, §5): data
    /// sends fail fast, schedulers freeze on their last live mask, and
    /// control keeps flowing so probes can observe recovery. A later
    /// non-empty mask unparks. Implementations must never forward an
    /// empty mask to a scheduler — its scan would wedge.
    fn schedule_mask(&mut self, effective_round: u64, live: &[bool]);

    /// Schedule a quantum change on the local scheduler (see
    /// [`stripe_core::sender::StripingSender::schedule_quanta`]). The
    /// default is a no-op for paths whose schedulers carry no per-channel
    /// quanta; paths that support live retuning override it.
    fn schedule_quanta(&mut self, effective_round: u64, quanta: &[i64]) {
        let _ = (effective_round, quanta);
    }

    /// Transmit one control message on channel `c` at `now`. The message
    /// is borrowed: a flood builds it once and hands the same one to every
    /// channel.
    fn transmit_control(
        &mut self,
        now: SimTime,
        c: ChannelId,
        ctl: &Control,
    ) -> ControlTransmission;
}

/// Builder for [`StripedPath`]: names each ingredient instead of the
/// positional `new`, and lets links be added one at a time.
///
/// ```ignore
/// let path = StripedPath::builder()
///     .scheduler(Srr::equal(2, 1500))
///     .markers(MarkerConfig::every_rounds(8))
///     .links(links)
///     .build();
/// ```
#[derive(Debug)]
pub struct StripedPathBuilder<S: CausalScheduler, L: FifoLink> {
    sched: Option<S>,
    markers: MarkerConfig,
    links: Vec<L>,
}

impl<S: CausalScheduler, L: FifoLink> Default for StripedPathBuilder<S, L> {
    fn default() -> Self {
        Self {
            sched: None,
            markers: MarkerConfig::disabled(),
            links: Vec::new(),
        }
    }
}

impl<S: CausalScheduler, L: FifoLink> StripedPathBuilder<S, L> {
    /// The causal scheduler driving channel selection. Required.
    pub fn scheduler(mut self, sched: S) -> Self {
        self.sched = Some(sched);
        self
    }

    /// Marker emission policy. Defaults to [`MarkerConfig::disabled`].
    pub fn markers(mut self, cfg: MarkerConfig) -> Self {
        self.markers = cfg;
        self
    }

    /// The member links, one per scheduler channel. Required.
    pub fn links(mut self, links: Vec<L>) -> Self {
        self.links = links;
        self
    }

    /// Append a single member link.
    pub fn link(mut self, link: L) -> Self {
        self.links.push(link);
        self
    }

    /// Assemble the path.
    ///
    /// # Panics
    /// Panics if no scheduler was supplied or if the link count differs
    /// from the scheduler's channel count.
    pub fn build(self) -> StripedPath<S, L> {
        let sched = self.sched.expect("StripedPathBuilder needs a scheduler");
        assert_eq!(
            self.links.len(),
            sched.channels(),
            "one link per scheduler channel"
        );
        StripedPath {
            links: self.links,
            tx: StripingSender::new(sched, self.markers),
            stats: PathSnapshot::default(),
            parked: false,
            scratch_lens: Vec::new(),
            scratch_channels: Vec::new(),
            scratch_markers: Vec::new(),
            scratch_fates: Vec::new(),
            scratch_idle_markers: Vec::new(),
        }
    }
}

/// A striping sender bound to its channels.
#[derive(Debug)]
pub struct StripedPath<S: CausalScheduler, L: FifoLink> {
    links: Vec<L>,
    tx: StripingSender<S>,
    stats: PathSnapshot,
    /// Total blackout: every channel is dead, so the scheduler must not
    /// run (an all-dead mask would wedge its scan). Data sends fail fast
    /// with [`TxError::LinkDown`]; control still flows (probes must keep
    /// going out so recovery can be observed).
    parked: bool,
    // Scratch buffers for the batch path, all payload-independent so one
    // path instance serves any packet type with zero steady-state allocs.
    scratch_lens: Vec<usize>,
    scratch_channels: Vec<ChannelId>,
    scratch_markers: Vec<(usize, ChannelId, Marker)>,
    scratch_fates: Vec<TxFate>,
    scratch_idle_markers: Vec<(ChannelId, Marker)>,
}

impl<S: CausalScheduler, L: FifoLink> StripedPath<S, L> {
    /// Start building a path: `StripedPath::builder().scheduler(…)
    /// .markers(…).links(…).build()`.
    pub fn builder() -> StripedPathBuilder<S, L> {
        StripedPathBuilder::default()
    }

    /// The striped path MTU: the minimum across members (§6.1: "our model
    /// restricts the MTU of the strIPe interface to the minimum MTU of the
    /// underlying physical interfaces").
    pub fn mtu(&self) -> usize {
        self.links.iter().map(|l| l.mtu()).min().expect("non-empty")
    }

    /// Record one data-packet fate: convert to `Transmission`s (original
    /// first, then any fault-layer duplicate) and bump the counters. Shared
    /// by the per-packet and batch paths so their accounting cannot drift.
    fn record_data_fate<P: Clone>(
        stats: &mut PathSnapshot,
        channel: ChannelId,
        fate: TxFate,
        pkt: P,
        out: &mut Vec<Transmission<P>>,
    ) {
        match fate {
            TxFate::Lost(e) => {
                match e {
                    TxError::QueueFull => stats.dropped_queue += 1,
                    _ => stats.dropped_lost += 1,
                }
                out.push(Transmission {
                    channel,
                    arrival: None,
                    item: Arrival::Data(pkt),
                    error: Some(e),
                });
            }
            TxFate::Delivered { first, duplicate } => {
                let (arrival, error) = if first.corrupted {
                    stats.dropped_corrupt += 1;
                    (None, Some(TxError::LostInFlight))
                } else {
                    (Some(first.arrival), None)
                };
                let dup_item = duplicate.map(|dup| Transmission {
                    channel,
                    arrival: Some(dup.arrival),
                    item: Arrival::Data(pkt.clone()),
                    error: None,
                });
                out.push(Transmission {
                    channel,
                    arrival,
                    item: Arrival::Data(pkt),
                    error,
                });
                if let Some(d) = dup_item {
                    stats.duplicates += 1;
                    out.push(d);
                }
            }
        }
    }

    /// Stripe one packet at `now`; returns every physical transmission
    /// (the data packet first — twice, if the fault layer duplicated it —
    /// then any markers). A corrupted delivery is reported lost: the far
    /// end's checksum discards it before the striping layer sees it.
    ///
    /// This is the legacy per-packet engine; hot paths should use
    /// [`send_batch`](Self::send_batch), which makes identical decisions
    /// without allocating per packet.
    pub fn send<P: WireLen + Clone>(&mut self, now: SimTime, pkt: P) -> Vec<Transmission<P>> {
        if self.parked {
            self.stats.sent += 1;
            self.stats.dropped_lost += 1;
            return vec![Transmission {
                channel: 0,
                arrival: None,
                item: Arrival::Data(pkt),
                error: Some(TxError::LinkDown),
            }];
        }
        let wire_len = pkt.wire_len();
        let decision = self.tx.send(wire_len);
        let mut out = Vec::with_capacity(1 + decision.markers.len());

        self.stats.sent += 1;
        let fate = self.links[decision.channel].transmit_detailed(now, wire_len);
        Self::record_data_fate(&mut self.stats, decision.channel, fate, pkt, &mut out);

        for (c, mk) in decision.markers {
            out.push(self.transmit_marker(now, c, mk));
        }
        out
    }

    /// Stripe a whole burst at `now` into a caller-owned batch, with zero
    /// steady-state heap allocation: `pkts` is drained (its capacity stays
    /// with the caller for refilling) and `out` is cleared and refilled in
    /// offer order — each data packet, its fault-layer duplicate if any,
    /// and each marker batch right after the packet it follows.
    ///
    /// Decisions, link timing, and counters are identical to calling
    /// [`send`](Self::send) once per packet at the same `now`: consecutive
    /// same-channel packets are offered to their link as one run, and runs
    /// break at marker boundaries so every link sees exactly the per-packet
    /// call sequence.
    pub fn send_batch<P: WireLen + Clone>(
        &mut self,
        now: SimTime,
        pkts: &mut Vec<P>,
        out: &mut TxBatch<P>,
    ) {
        out.txs.clear();
        if self.parked {
            self.stats.sent += pkts.len() as u64;
            self.stats.dropped_lost += pkts.len() as u64;
            out.txs.extend(pkts.drain(..).map(|pkt| Transmission {
                channel: 0,
                arrival: None,
                item: Arrival::Data(pkt),
                error: Some(TxError::LinkDown),
            }));
            return;
        }
        self.scratch_lens.clear();
        self.scratch_lens.extend(pkts.iter().map(WireLen::wire_len));
        self.tx.send_batch(
            &self.scratch_lens,
            &mut self.scratch_channels,
            &mut self.scratch_markers,
        );

        let n = pkts.len();
        self.stats.sent += n as u64;
        let mut pkt_iter = pkts.drain(..);
        let mut m = 0; // next marker batch to emit
        let mut i = 0;
        while i < n {
            let ch = self.scratch_channels[i];
            // A run extends while the channel repeats and no marker batch
            // is due inside it: markers due after packet `b` must reach
            // their links before packet `b + 1` does, or the link queues
            // (and hence arrival times) diverge from the per-packet path.
            let boundary = self.scratch_markers.get(m).map(|&(at, _, _)| at);
            let mut j = i + 1;
            while j < n && self.scratch_channels[j] == ch && boundary.is_none_or(|b| j <= b) {
                j += 1;
            }
            self.scratch_fates.clear();
            self.links[ch].transmit_batch(now, &self.scratch_lens[i..j], &mut self.scratch_fates);
            for k in 0..(j - i) {
                let pkt = pkt_iter.next().expect("one packet per fate");
                Self::record_data_fate(
                    &mut self.stats,
                    ch,
                    self.scratch_fates[k],
                    pkt,
                    &mut out.txs,
                );
            }
            while m < self.scratch_markers.len() && self.scratch_markers[m].0 < j {
                let (_, c, mk) = self.scratch_markers[m];
                m += 1;
                let t = self.transmit_marker(now, c, mk);
                out.txs.push(t);
            }
            i = j;
        }
    }

    /// Emit a full marker batch immediately (timer-driven markers during
    /// idle periods).
    pub fn send_markers<P>(&mut self, now: SimTime) -> Vec<Transmission<P>> {
        let mut out = TxBatch::new();
        self.send_markers_into(now, &mut out);
        out.txs
    }

    /// Emit a full marker batch into a caller-owned buffer: the
    /// allocation-free counterpart of [`send_markers`](Self::send_markers).
    /// `out` is cleared first, capacity kept.
    pub fn send_markers_into<P>(&mut self, now: SimTime, out: &mut TxBatch<P>) {
        out.txs.clear();
        if self.parked {
            return;
        }
        self.scratch_idle_markers.clear();
        self.tx.make_markers_into(&mut self.scratch_idle_markers);
        for k in 0..self.scratch_idle_markers.len() {
            let (c, mk) = self.scratch_idle_markers[k];
            let t = self.transmit_marker(now, c, mk);
            out.txs.push(t);
        }
    }

    fn transmit_marker<P>(&mut self, now: SimTime, c: ChannelId, mk: Marker) -> Transmission<P> {
        self.stats.markers_sent += 1;
        let (arrival, error) =
            match self.links[c].transmit(now, stripe_core::marker::MARKER_WIRE_LEN) {
                Ok(t) => (Some(t), None),
                Err(e) => {
                    self.stats.markers_lost += 1;
                    (None, Some(e))
                }
            };
        Transmission {
            channel: c,
            arrival,
            item: Arrival::Marker(mk),
            error,
        }
    }

    /// Transmit one control message on channel `c` at `now`. Control
    /// messages ride the same FIFO links as data (they are just another
    /// codepoint, like markers) and are subject to the same faults —
    /// corrupted control is dropped by the far end's checksum, so it is
    /// reported lost here. The frame is never materialized: only its
    /// [`wire_len`](Control::wire_len) touches the link model, and the
    /// borrowed message is cloned only into the returned report.
    pub fn transmit_control(
        &mut self,
        now: SimTime,
        c: ChannelId,
        ctl: &Control,
    ) -> ControlTransmission {
        let ctl = ctl.clone();
        self.stats.control_sent += 1;
        let wire_len = ctl.wire_len();
        match self.links[c].transmit_detailed(now, wire_len) {
            TxFate::Lost(e) => {
                self.stats.control_lost += 1;
                ControlTransmission {
                    channel: c,
                    arrival: None,
                    duplicate: None,
                    ctl,
                    error: Some(e),
                }
            }
            TxFate::Delivered { first, duplicate } => {
                if first.corrupted {
                    self.stats.control_lost += 1;
                    ControlTransmission {
                        channel: c,
                        arrival: None,
                        duplicate: duplicate.map(|d| d.arrival),
                        ctl,
                        error: Some(TxError::LostInFlight),
                    }
                } else {
                    ControlTransmission {
                        channel: c,
                        arrival: Some(first.arrival),
                        duplicate: duplicate.map(|d| d.arrival),
                        ctl,
                        error: None,
                    }
                }
            }
        }
    }

    /// Transmit one shared control message on every *live* channel,
    /// appending a report per channel to `out` (not cleared). The single
    /// `ctl` is built once by the caller; no per-channel frame is ever
    /// materialized.
    pub fn broadcast_control(
        &mut self,
        now: SimTime,
        ctl: &Control,
        out: &mut Vec<ControlTransmission>,
    ) {
        for c in 0..self.links.len() {
            if self.tx.scheduler().live(c) {
                let t = self.transmit_control(now, c, ctl);
                out.push(t);
            }
        }
    }

    /// Loss/overhead counters.
    pub fn stats(&self) -> PathSnapshot {
        self.stats
    }

    /// The member links (for backlog inspection and pacing).
    pub fn links(&self) -> &[L] {
        &self.links
    }

    /// Mutable access to the member links (e.g. to edit a
    /// [`stripe_link::FaultPlan`] mid-experiment).
    pub fn links_mut(&mut self) -> &mut [L] {
        &mut self.links
    }

    /// Whether the path is parked: every channel dead, scheduler frozen,
    /// data sends failing fast until a non-empty mask is scheduled.
    pub fn parked(&self) -> bool {
        self.parked
    }

    /// The sender engine (for fairness ledgers etc.).
    pub fn sender(&self) -> &StripingSender<S> {
        &self.tx
    }

    /// Mutable access to the sender engine (membership changes, resets).
    pub fn sender_mut(&mut self) -> &mut StripingSender<S> {
        &mut self.tx
    }
}

impl<S: CausalScheduler, L: FifoLink> ControlPath for StripedPath<S, L> {
    fn channels(&self) -> usize {
        self.links.len()
    }

    fn current_round(&self) -> u64 {
        self.tx.scheduler().round()
    }

    fn schedule_mask(&mut self, effective_round: u64, live: &[bool]) {
        // An all-dead mask is the parked state: the scheduler must never
        // see it (its scan would wedge), so the park is held here and the
        // engine keeps its last live mask until recovery unparks it.
        if !live.iter().any(|&l| l) {
            self.parked = true;
            return;
        }
        self.parked = false;
        self.tx.schedule_mask(effective_round, live);
    }

    fn schedule_quanta(&mut self, effective_round: u64, quanta: &[i64]) {
        self.tx.schedule_quanta(effective_round, quanta);
    }

    fn transmit_control(
        &mut self,
        now: SimTime,
        c: ChannelId,
        ctl: &Control,
    ) -> ControlTransmission {
        StripedPath::transmit_control(self, now, c, ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stripe_core::receiver::LogicalReceiver;
    use stripe_core::sched::Srr;
    use stripe_core::types::TestPacket;
    use stripe_link::loss::LossModel;
    use stripe_link::EthLink;
    use stripe_netsim::{Bandwidth, EventQueue, SimDuration};

    fn eth(rate_mbps: u64, seed: u64, loss: LossModel) -> EthLink {
        EthLink::new(
            Bandwidth::mbps(rate_mbps),
            SimDuration::from_micros(100),
            SimDuration::from_micros(30),
            loss,
            seed,
        )
    }

    /// Full pipeline over two lossless links with different rates (skew!):
    /// delivery must be exactly FIFO.
    #[test]
    fn end_to_end_fifo_over_skewed_links() {
        let sched = Srr::equal(2, 1500);
        let mut path = StripedPath::builder()
            .scheduler(sched.clone())
            .markers(MarkerConfig::every_rounds(8))
            .links(vec![
                eth(10, 1, LossModel::None),
                eth(2, 2, LossModel::None),
            ])
            .build();
        let mut rx = LogicalReceiver::new(sched, 8192);
        let mut q: EventQueue<(usize, Arrival<TestPacket>)> = EventQueue::new();

        let mut now = SimTime::ZERO;
        for id in 0..300u64 {
            // Pace roughly to aggregate capacity so queues don't overflow.
            now += SimDuration::from_micros(1100);
            for t in path.send(now, TestPacket::new(id, 400 + (id as usize * 37) % 1000)) {
                if let Some(at) = t.arrival {
                    q.push(at, (t.channel, t.item));
                }
            }
        }
        let mut delivered = Vec::new();
        while let Some((_, (c, item))) = q.pop() {
            rx.push(c, item);
            while let Some(p) = rx.poll() {
                delivered.push(p.id);
            }
        }
        assert_eq!(delivered, (0..300).collect::<Vec<_>>());
        assert_eq!(path.stats().dropped_lost, 0);
    }

    /// With loss on one channel, delivery is quasi-FIFO: the tail after the
    /// last marker recovery is strictly in order.
    #[test]
    fn quasi_fifo_under_loss() {
        let sched = Srr::equal(2, 1500);
        let mut path = StripedPath::builder()
            .scheduler(sched.clone())
            .markers(MarkerConfig::every_rounds(4))
            .links(vec![
                eth(10, 1, LossModel::periodic(40, 3)),
                eth(10, 2, LossModel::None),
            ])
            .build();
        let mut rx = LogicalReceiver::new(sched, 8192);
        let mut q: EventQueue<(usize, Arrival<TestPacket>)> = EventQueue::new();
        let mut now = SimTime::ZERO;
        let total = 2000u64;
        for id in 0..total {
            now += SimDuration::from_micros(1300);
            for t in path.send(now, TestPacket::new(id, 700)) {
                if let Some(at) = t.arrival {
                    q.push(at, (t.channel, t.item));
                }
            }
        }
        let mut delivered: Vec<u64> = Vec::new();
        while let Some((_, (c, item))) = q.pop() {
            rx.push(c, item);
            while let Some(p) = rx.poll() {
                delivered.push(p.id);
            }
        }
        // Most packets arrive despite ~7.5% data loss on one channel.
        assert!(delivered.len() as u64 > total * 8 / 10);
        // Quasi-FIFO: between loss episodes order is restored, so the
        // fraction of adjacent inversions stays small.
        let inversions = delivered.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(
            (inversions as f64) < 0.05 * delivered.len() as f64,
            "{inversions} inversions in {}",
            delivered.len()
        );
    }

    #[test]
    fn mtu_is_minimum_of_members() {
        let sched = Srr::equal(2, 1500);
        let path = StripedPath::builder()
            .scheduler(sched)
            .links(vec![
                eth(10, 1, LossModel::None),
                eth(10, 2, LossModel::None),
            ])
            .build();
        assert_eq!(path.mtu(), 1500);
    }

    #[test]
    fn queue_drops_are_counted_separately() {
        let sched = Srr::equal(2, 1500);
        let mut path = StripedPath::builder()
            .scheduler(sched)
            .links(vec![eth(1, 1, LossModel::None), eth(1, 2, LossModel::None)])
            .build();
        // Blast far beyond 1 Mbps x 2 with no pacing: queues must fill.
        for id in 0..500u64 {
            let _ = path.send(SimTime::ZERO, TestPacket::new(id, 1400));
        }
        let st = path.stats();
        assert!(st.dropped_queue > 0);
        assert_eq!(st.dropped_lost, 0);
        assert_eq!(st.sent, 500);
    }

    #[test]
    fn idle_marker_batch_reaches_all_channels() {
        let sched = Srr::equal(3, 1500);
        let mut path = StripedPath::builder()
            .scheduler(sched)
            .links(vec![
                eth(10, 1, LossModel::None),
                eth(10, 2, LossModel::None),
                eth(10, 3, LossModel::None),
            ])
            .build();
        let out: Vec<Transmission<TestPacket>> = path.send_markers(SimTime::ZERO);
        assert_eq!(out.len(), 3);
        let chans: Vec<_> = out.iter().map(|t| t.channel).collect();
        assert_eq!(chans, vec![0, 1, 2]);
        assert!(out.iter().all(|t| t.arrival.is_some()));
        assert_eq!(path.stats().markers_sent, 3);
    }

    #[test]
    #[should_panic(expected = "one link per scheduler channel")]
    fn link_count_mismatch_panics() {
        let _: StripedPath<_, EthLink> = StripedPath::builder()
            .scheduler(Srr::equal(3, 1500))
            .markers(MarkerConfig::disabled())
            .links(vec![eth(10, 1, LossModel::None)])
            .build();
    }

    #[test]
    #[should_panic(expected = "needs a scheduler")]
    fn builder_without_scheduler_panics() {
        let _: StripedPath<Srr, EthLink> = StripedPath::builder()
            .link(eth(10, 1, LossModel::None))
            .build();
    }

    /// `links` and repeated `link` calls produce identical paths.
    #[test]
    fn builder_link_composes_with_links() {
        let sched = Srr::equal(2, 1500);
        let mut a = StripedPath::builder()
            .scheduler(sched.clone())
            .markers(MarkerConfig::every_rounds(8))
            .links(vec![
                eth(10, 1, LossModel::None),
                eth(10, 2, LossModel::None),
            ])
            .build();
        let mut b = StripedPath::builder()
            .scheduler(sched)
            .markers(MarkerConfig::every_rounds(8))
            .link(eth(10, 1, LossModel::None))
            .link(eth(10, 2, LossModel::None))
            .build();
        let mut now = SimTime::ZERO;
        for id in 0..200u64 {
            now += SimDuration::from_micros(1200);
            let pkt = TestPacket::new(id, 300 + (id as usize * 53) % 1100);
            assert_eq!(a.send(now, pkt), b.send(now, pkt));
        }
        assert_eq!(a.stats(), b.stats());
    }

    /// The batch path must produce the same transmissions — channels,
    /// arrival times, marker interleaving, counters — as per-packet sends
    /// offered at the same instants.
    #[test]
    fn send_batch_matches_per_packet_send() {
        let sched = Srr::equal(2, 1500);
        let mk = || {
            StripedPath::builder()
                .scheduler(Srr::equal(2, 1500))
                .markers(MarkerConfig::every_rounds(4))
                .links(vec![
                    eth(10, 1, LossModel::None),
                    eth(2, 2, LossModel::None),
                ])
                .build()
        };
        let _ = sched;
        let mut batch_path = mk();
        let mut legacy_path = mk();
        let mut batch = TxBatch::new();
        let mut pkts = Vec::new();
        let mut now = SimTime::ZERO;
        let mut id = 0u64;
        for chunk in 0..40 {
            now += SimDuration::from_millis(12);
            let chunk_len = 1 + (chunk % 13);
            let mut legacy_out = Vec::new();
            for _ in 0..chunk_len {
                let pkt = TestPacket::new(id, 200 + (id as usize * 89) % 1200);
                id += 1;
                pkts.push(pkt);
                legacy_out.extend(legacy_path.send(now, pkt));
            }
            batch_path.send_batch(now, &mut pkts, &mut batch);
            assert!(pkts.is_empty(), "send_batch drains its input");
            assert_eq!(batch.as_slice(), &legacy_out[..], "chunk {chunk}");
        }
        assert_eq!(batch_path.stats(), legacy_path.stats());
        assert!(batch_path.stats().markers_sent > 0, "markers must fire");
    }

    /// Shared-control broadcast touches every live channel once and counts
    /// like per-channel sends.
    #[test]
    fn broadcast_control_covers_live_channels() {
        let sched = Srr::equal(3, 1500);
        let mut path = StripedPath::builder()
            .scheduler(sched)
            .links(vec![
                eth(10, 1, LossModel::None),
                eth(10, 2, LossModel::None),
                eth(10, 3, LossModel::None),
            ])
            .build();
        let ctl = Control::Probe { nonce: 42 };
        let mut out = Vec::new();
        path.broadcast_control(SimTime::ZERO, &ctl, &mut out);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|t| t.ctl == ctl && t.arrival.is_some()));
        assert_eq!(path.stats().control_sent, 3);
    }
}
