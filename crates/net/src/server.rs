//! The multi-flow stripe server: thousands of logical flows multiplexed
//! over one shared set of datagram channels.
//!
//! One [`StripeServer`] owns N links and a slab of flows. Each open flow
//! gets its own [`StripingSender`] (per-flow SRR deficit state and
//! marker clock — the receiver simulates each flow independently) and a
//! bounded queue of pre-encoded frames. Two schedulers compose:
//!
//! - **inter-flow**: a [`Drr`] ring picks which flow sends next and for
//!   how many bytes (its quantum), giving backlogged flows a weighted
//!   fair share of the aggregate regardless of packet sizes;
//! - **intra-flow**: the flow's own SRR picks which *channel* carries
//!   each of those frames, exactly as a single-flow path would.
//!
//! On the wire every data frame and marker is a version-2 flow-tagged
//! frame (see [`crate::frame::FRAME_VERSION_FLOW`]), a data frame where
//! it can stating its own §5 number; global control —
//! probes, membership, quantum announces — stays untagged version 1, so
//! failover, lifecycle, and epoch'd membership remain flow-agnostic. A
//! single-flow sender is this type with one flow open: the inter-flow
//! DRR degenerates to strict FIFO and the channel decisions are exactly
//! that flow's SRR.
//!
//! Admission is bounded: past
//! [`max_flows`](StripeServerBuilder::max_flows) new flows are *parked*
//! (open, but not yet allowed to send) until an active flow closes;
//! past [`park_capacity`](StripeServerBuilder::park_capacity) opens are
//! rejected outright. Per-flow queues are bounded too
//! ([`queue_frames`](StripeServerBuilder::queue_frames)), surfacing
//! backpressure to the producer of that one flow instead of letting it
//! starve the rest.
//!
//! **Where a mark travels.** §5 gives every packet an implicit number
//! `(round, dc)`, and this layer owns a header, so a frame that has the
//! mark field (see [`enqueue`](StripeServer::enqueue) and the
//! [`crate::frame`] docs) **states its own number** there — the flow's
//! SRR reads it just before serving the packet, the pump writes it in
//! place: no frame, no copy, no allocation, no byte the frame did not
//! already have. The receiver that loses a frame on channel `c` is put
//! straight by the flow's next such frame on `c`, not at the next
//! marker.
//!
//! The marker cadence is untouched: it is what bounds recovery for
//! traffic whose frames have no field. A marker on channel `c` states
//! the number of the *next* data packet its flow sends on `c`, so that
//! packet's frame is where it belongs. A mark the flow's SRR makes
//! during a pump waits — per (flow, channel), inside that pump only —
//! for the flow's next frame staged on `c`, and then one of three things
//! happens:
//!
//! 1. the frame has the mark field: the number it states *is* the mark
//!    (the same value under SRR; where a retune falls in between, the
//!    frame's is the true one) — the mark rode, and costs nothing;
//! 2. it has none (short payload, integrity on): the mark goes as a
//!    marker frame staged directly ahead of it, padded to its length on
//!    a coalescing link so that the two share a length class;
//! 3. there is no next frame in this pump: the mark goes as a marker
//!    frame behind the flow's last frame on the channel (padded to it,
//!    on a coalescing link, if the mark was made directly behind it) —
//!    at once if the flow's queue is already empty when the mark is
//!    made, when the pump ends otherwise.
//!
//! Per (flow, channel) the wire therefore reads X, M, Y exactly as the
//! SRR offered it — with M inside Y in the first case — and **no mark
//! outlives the pump that made it**, so marker cadence, idle markers and
//! Theorem 5.1's worst-case bound are what they were with every marker a
//! frame; the numbers shorten the typical case to one long frame. A
//! number *leads* its payload on purpose: applied after Y instead, a
//! lost Y would take with it the one mark that heals that very loss at
//! once. [`FlowSnapshot::markers_sent`] counts all three ways;
//! [`FlowSnapshot::markers_carried`] the first; a frame's own number,
//! with no mark waiting for it, is counted nowhere — it is part of the
//! frame.
//!
//! **Wire order within a channel.** The receiver needs FIFO only per
//! channel *of one flow* (§4/§5 run once per flow), so on one channel
//! the frames of different flows commute. A pump therefore *stages*
//! every data frame and marker frame per channel and emits each
//! channel's burst once, at the end, regrouped by wire length: a stable
//! greedy merge over the per-flow chains (largest head length first,
//! drain every flow's head while it has that length) puts equal-length
//! frames of different flows side by side, which is what a GSO/GRO
//! train is made of. Each flow's own per-channel subsequence — data and
//! markers — is never reordered, and with one flow or uniform lengths
//! the merge is the identity. [`PumpEvent`]s stay one per offer in
//! *offer* order — a mark that rode keeps its [`PumpEvent::Marker`], at
//! the point its SRR made it — which across flows is not the wire order.
//!
//! The zero-allocation story: frames are encoded once at
//! [`enqueue`](StripeServer::enqueue) into recycled buffers, handed to
//! links by storage transfer ([`DatagramLink::send_run_owned`]), and the
//! swapped-back recycled storage returns to the server's pool. Steady
//! state allocates nothing per packet.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use stripe_core::control::Control;
use stripe_core::sched::{CausalScheduler, ChannelMark, Drr};
use stripe_core::sender::{MarkerConfig, StripingSender};
use stripe_core::types::ChannelId;
use stripe_core::Marker;
use stripe_link::{DatagramLink, TxError};
use stripe_netsim::SimTime;
use stripe_transport::{ControlPath, ControlTransmission, PathSnapshot};

use crate::frame;

/// Dense flow identifier — the varint that rides every version-2 frame.
/// Slots are recycled on close; a [`FlowHandle`] carries a generation to
/// keep stale handles from touching a reused slot.
pub type FlowId = u32;

/// A capability to send on one open flow. Obtained from
/// [`StripeServer::open_flow`]; invalidated by
/// [`StripeServer::close_flow`] (any later use reports
/// [`FlowError::Closed`], even if the slot was reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowHandle {
    id: FlowId,
    gen: u32,
}

impl FlowHandle {
    /// The wire-visible flow id.
    pub fn id(&self) -> FlowId {
        self.id
    }
}

/// Why a flow operation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowError {
    /// `open_flow` past both the active cap and the parking lot.
    AdmissionRejected,
    /// The flow is parked (admitted but waiting for an active slot);
    /// it cannot send yet.
    Parked,
    /// The flow's bounded frame queue is full — per-flow backpressure.
    Backpressure {
        /// How many of the flow's queued frames must be pumped out before
        /// an enqueue can succeed (always at least 1). A producer can use
        /// it to size its retry: wait until `queue_len` has dropped by
        /// this many, or just until the next pump.
        resume_hint: usize,
    },
    /// The handle does not name an open flow (closed, or never valid).
    Closed,
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::AdmissionRejected => f.write_str("admission rejected: flow caps exhausted"),
            FlowError::Parked => f.write_str("flow is parked awaiting an active slot"),
            FlowError::Backpressure { resume_hint } => {
                write!(f, "flow queue full ({resume_hint} frame(s) must drain)")
            }
            FlowError::Closed => f.write_str("stale flow handle"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Per-flow counters, under the workspace snapshot convention.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowSnapshot {
    /// Frames accepted into the flow queue.
    pub enqueued: u64,
    /// Frames handed to links (errored hand-offs included, as in
    /// [`PathSnapshot::sent`]).
    pub sent: u64,
    /// Enqueues refused because the flow queue was full.
    pub dropped_backpressure: u64,
    /// Frames dropped at a full link transmit queue.
    pub dropped_queue: u64,
    /// Frames the link refused for any other reason.
    pub dropped_lost: u64,
    /// Marks transmitted for this flow, whichever way: as marker frames
    /// or inside data frames.
    pub markers_sent: u64,
    /// Those of them that the flow's next frame on the channel stated
    /// as its own number
    /// ([`KIND_DATA_MARKED`](crate::frame::KIND_DATA_MARKED)) instead of
    /// a frame of their own.
    pub markers_carried: u64,
    /// Markers that never left (a carried one: its carrier did not).
    pub markers_lost: u64,
}

/// Server-wide counters: flow population, admission drops, and the
/// aggregate datapath [`PathSnapshot`] summed over every flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StripeServerSnapshot {
    /// Flows currently open and schedulable.
    pub flows_active: u64,
    /// Flows currently parked (admitted, awaiting an active slot).
    pub flows_parked: u64,
    /// Flows ever opened (parked included).
    pub flows_opened: u64,
    /// Flows closed.
    pub flows_closed: u64,
    /// `open_flow` calls rejected with both caps exhausted.
    pub dropped_admission: u64,
    /// Enqueues refused across all flows (per-flow backpressure).
    pub dropped_backpressure: u64,
    /// Marks that rode inside the data frame they describe, summed over
    /// every flow (a share of `path.markers_sent`).
    pub markers_carried: u64,
    /// Aggregate datapath counters (same shape as the simulated path's).
    pub path: PathSnapshot,
}

/// One event produced by [`StripeServer::pump_into`]: a frame or marker
/// offered to a link. Events are in *offer* order (the inter-flow DRR's
/// turn order); on the wire a channel carries each flow's frames in
/// that order, but frames of different flows may have been regrouped
/// (see the module docs), so offer order is not wire order across flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpEvent {
    /// A data frame left (or failed to leave) on `channel`.
    Data {
        /// The flow it belongs to.
        flow: FlowId,
        /// The channel its SRR chose.
        channel: ChannelId,
        /// Why it never left, if it didn't.
        error: Option<TxError>,
    },
    /// A marker rode (or failed to ride) `channel` — in a frame of its
    /// own or as the number of the flow's next data frame there, whose
    /// fate it then shares.
    Marker {
        /// The flow whose marker clock fired.
        flow: FlowId,
        /// The channel the marker describes.
        channel: ChannelId,
        /// The marker itself.
        marker: Marker,
        /// Why it never left, if it didn't.
        error: Option<TxError>,
    },
}

/// One frame parked in a flow queue: encoded bytes plus the payload
/// length the schedulers account in (the receiver simulates with
/// payload lengths, so the sender must too).
#[derive(Debug)]
struct QueuedFrame {
    buf: Vec<u8>,
    payload_len: usize,
}

/// Per-flow state: the flow's own striping engine and pending frames.
#[derive(Debug)]
struct FlowState<S: CausalScheduler> {
    gen: u32,
    tx: StripingSender<S>,
    queue: VecDeque<QueuedFrame>,
    stats: FlowSnapshot,
    parked: bool,
    /// Channels (bit `c`) a mark of this flow is waiting on, in
    /// [`StripeServer::waiting`]: zero between pumps. Lives here so the
    /// per-frame test reads a line the pump already holds.
    waiting: u16,
}

/// One channel's share of a pump: every data frame and marker frame
/// bound for it, in offer order, emitted in one run when the pump ends.
#[derive(Debug, Default)]
struct ChannelStage {
    bufs: Vec<Vec<u8>>,
    /// `(flow, index of the frame's PumpEvent)`, parallel to `bufs`.
    meta: Vec<(FlowId, u32)>,
    /// The staged frames differ in wire length / in flow: unless both
    /// hold, regrouping is the identity and is skipped.
    mixed_len: bool,
    multi_flow: bool,
}

impl ChannelStage {
    /// Stage the frame in `*buf`, leaving an empty `Vec` behind. Taken
    /// from where it lies, after the slot is secured: passed by value,
    /// the 24-byte header crosses the caller's stack — kept there over
    /// the growth check, which may unwind — and the 16-byte reload of
    /// what `pop_front` just wrote there with 8-byte stores cannot be
    /// forwarded, so it waits for the whole store buffer (the stall of
    /// EXPERIMENTS.md, "Receive fast path", on the send side).
    fn push(&mut self, buf: &mut Vec<u8>, flow: FlowId, event: usize) {
        if let (Some(last), Some(&(last_flow, _))) = (self.bufs.last(), self.meta.last()) {
            self.mixed_len |= last.len() != buf.len();
            self.multi_flow |= last_flow != flow;
        }
        self.bufs.reserve(1);
        self.bufs.push(std::mem::take(buf));
        self.meta.push((flow, event as u32));
    }

    /// Wire length of the last staged frame, if it is `flow`'s.
    fn last_len_of(&self, flow: FlowId) -> Option<usize> {
        match self.meta.last() {
            Some(&(last_flow, _)) if last_flow == flow => self.bufs.last().map(Vec::len),
            _ => None,
        }
    }

    fn clear(&mut self) {
        self.bufs.clear();
        self.meta.clear();
        (self.mixed_len, self.multi_flow) = (false, false);
    }
}

/// A mark its flow's SRR made during this pump, not yet on the wire:
/// it leaves as the number of, or directly ahead of, the flow's next
/// frame on the channel (see the module docs).
#[derive(Debug, Clone, Copy)]
struct WaitingMark {
    mark: ChannelMark,
    /// Index of its [`PumpEvent::Marker`].
    event: u32,
    /// Wire length of the flow's frame the mark was made directly
    /// behind, if that was the channel's latest (0 if not): what a
    /// marker frame that ends up behind it is padded to.
    behind: u32,
}

/// Default [`park_capacity`](StripeServerBuilder::park_capacity): how far
/// past `max_flows` a default-built server's flow ids can reach, and so
/// what a [`FlowDemux`](crate::demux::FlowDemux) allows on top of its own
/// `max_flows` when it bounds the ids it accepts.
pub const DEFAULT_PARK_CAPACITY: usize = 1 << 10;

/// Flows whose idle markers are staged between two emissions in
/// [`send_idle_markers_into`](StripeServer::send_idle_markers_into): one
/// frame per flow and link, so this is the most a link is offered before
/// it is flushed — one default mmsg batch, far below any sensible send
/// queue — and the most buffers the sweep takes from the pool per link.
const IDLE_MARKER_BURST: usize = 32;

/// Absent link in the [`Regroup`] chains.
const NONE: u32 = u32::MAX;

/// The end-of-pump regrouping (see the module docs) and its scratch.
#[derive(Debug, Default)]
struct Regroup {
    /// Per flow slot: the flow's latest frame in the stage being merged
    /// ([`NONE`] between merges). Grows with the flow slab.
    tail: Vec<u32>,
    /// Per staged frame: the same flow's next frame.
    next: Vec<u32>,
    /// One `(wire length, staged index)` per flow chain, its head: the
    /// max is the next class, ties in offer order.
    heads: BinaryHeap<(usize, Reverse<u32>)>,
    /// Heads uncovered in the current class, admitted when it ends: a
    /// longer frame behind a drained one must not cut the class short.
    uncovered: Vec<(usize, Reverse<u32>)>,
    /// The regrouped burst.
    out: ChannelStage,
}

impl Regroup {
    /// Move `st`'s frames into `self.out`: the largest head length is
    /// the class, every flow's chain is drained while its head has that
    /// length, repeat. Each flow's own subsequence keeps its order.
    fn merge(&mut self, st: &mut ChannelStage) {
        self.next.clear();
        self.next.resize(st.bufs.len(), NONE);
        for (k, &(flow, _)) in st.meta.iter().enumerate() {
            match std::mem::replace(&mut self.tail[flow as usize], k as u32) {
                NONE => self.heads.push((st.bufs[k].len(), Reverse(k as u32))),
                prev => self.next[prev as usize] = k as u32,
            }
        }
        while let Some((class, Reverse(mut k))) = self.heads.pop() {
            let flow = st.meta[k as usize].0;
            while k != NONE && st.bufs[k as usize].len() == class {
                self.out.bufs.push(std::mem::take(&mut st.bufs[k as usize]));
                self.out.meta.push(st.meta[k as usize]);
                k = self.next[k as usize];
            }
            match k {
                NONE => self.tail[flow as usize] = NONE,
                k => self.uncovered.push((st.bufs[k as usize].len(), Reverse(k))),
            }
            if self.heads.peek().is_none_or(|h| h.0 != class) {
                self.heads.extend(self.uncovered.drain(..));
            }
        }
        st.clear();
    }
}

/// Builder for [`StripeServer`]: the datapath vocabulary (`scheduler` /
/// `markers` / `links` / `integrity`) plus the flow-admission knobs.
#[derive(Debug)]
pub struct StripeServerBuilder<S: CausalScheduler, L: DatagramLink> {
    proto: Option<S>,
    markers: MarkerConfig,
    links: Vec<L>,
    integrity: bool,
    max_flows: usize,
    park_capacity: usize,
    queue_frames: usize,
    flow_quantum: i64,
}

impl<S: CausalScheduler, L: DatagramLink> Default for StripeServerBuilder<S, L> {
    fn default() -> Self {
        Self {
            proto: None,
            markers: MarkerConfig::disabled(),
            links: Vec::new(),
            integrity: false,
            max_flows: 1 << 16,
            park_capacity: DEFAULT_PARK_CAPACITY,
            queue_frames: 256,
            flow_quantum: 1 << 14,
        }
    }
}

impl<S: CausalScheduler, L: DatagramLink> StripeServerBuilder<S, L> {
    /// The *prototype* channel scheduler: every flow gets an identically
    /// configured fresh clone of it. Required.
    pub fn scheduler(mut self, proto: S) -> Self {
        self.proto = Some(proto);
        self
    }

    /// Per-flow marker emission policy. Defaults to
    /// [`MarkerConfig::disabled`].
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

    /// Emit data frames with a CRC-8 trailer
    /// ([`KIND_DATA_SUMMED`](crate::frame::KIND_DATA_SUMMED)) so the far
    /// end detects payload corruption instead of delivering flipped bits
    /// (§5's "detectable corruption" assumption made literal). Costs one
    /// byte per frame plus the checksum pass; defaults to off, so the
    /// headline datapath pays nothing.
    pub fn integrity(mut self, on: bool) -> Self {
        self.integrity = on;
        self
    }

    /// Active-flow cap: flows opened past it are parked. Defaults to
    /// 65536.
    pub fn max_flows(mut self, n: usize) -> Self {
        self.max_flows = n;
        self
    }

    /// Parking-lot capacity: opens past `max_flows + park_capacity` are
    /// rejected (`dropped_admission`). Defaults to 1024.
    pub fn park_capacity(mut self, n: usize) -> Self {
        self.park_capacity = n;
        self
    }

    /// Per-flow queue bound, in frames; an enqueue past it reports
    /// [`FlowError::Backpressure`]. Defaults to 256.
    pub fn queue_frames(mut self, n: usize) -> Self {
        self.queue_frames = n;
        self
    }

    /// DRR quantum: payload bytes a backlogged flow may send per
    /// inter-flow turn. Defaults to 16 KiB.
    ///
    /// # Panics
    /// Panics (in `build`) if non-positive.
    pub fn flow_quantum(mut self, q: i64) -> Self {
        self.flow_quantum = q;
        self
    }

    /// Assemble the server with no flows open.
    ///
    /// # Panics
    /// Panics if no scheduler was supplied, the link count differs from
    /// the scheduler's channel count, `max_flows` is zero, or the flow
    /// quantum is non-positive.
    pub fn build(self) -> StripeServer<S, L> {
        let proto = self.proto.expect("StripeServerBuilder needs a scheduler");
        assert_eq!(
            self.links.len(),
            proto.channels(),
            "one link per scheduler channel"
        );
        assert!(self.max_flows > 0, "max_flows must be at least 1");
        let channels = self.links.len();
        assert!(
            channels <= u16::BITS as usize,
            "at most 16 channels (as the membership mask has it)"
        );
        // A frame takes the mark field only where the longer frame still
        // fits every link: `max_payload` does not shrink for it.
        let min_mtu = self.links.iter().map(|l| l.mtu()).min().expect("non-empty");
        let carry = self.markers.period_rounds != 0 && !self.integrity;
        StripeServer {
            links: self.links,
            proto,
            markers: self.markers,
            integrity: self.integrity,
            markable_max: if carry {
                min_mtu.saturating_sub(frame::MARK_FIELD_LEN)
            } else {
                0
            },
            max_flows: self.max_flows,
            park_capacity: self.park_capacity,
            queue_frames: self.queue_frames,
            drr: Drr::new(self.flow_quantum),
            flows: Vec::new(),
            gens: Vec::new(),
            free_ids: Vec::new(),
            parked_order: VecDeque::new(),
            mask: vec![true; channels],
            mask_dirty: false,
            path_parked: false,
            last_quanta: Vec::new(),
            quanta_dirty: false,
            stats: StripeServerSnapshot::default(),
            buf_pool: Vec::new(),
            flow_pool: Vec::new(),
            turn_lens: Vec::new(),
            scratch_channels: Vec::new(),
            scratch_numbers: Vec::new(),
            scratch_markers: Vec::new(),
            scratch_idle: Vec::new(),
            waiting: Vec::new(),
            waiting_flows: Vec::new(),
            carried: Vec::new(),
            stage: (0..channels).map(|_| ChannelStage::default()).collect(),
            regroup: Regroup::default(),
            results: Vec::new(),
            ctl_buf: Vec::new(),
        }
    }
}

/// A multi-flow striping server bound to real datagram channels. See the
/// module docs for the architecture.
#[derive(Debug)]
pub struct StripeServer<S: CausalScheduler, L: DatagramLink> {
    links: Vec<L>,
    /// Prototype scheduler, cloned per flow.
    proto: S,
    markers: MarkerConfig,
    integrity: bool,
    /// Longest plain data frame that still gets the mark field: the
    /// smallest link MTU less the field — or 0, no frame does, with
    /// markers off (nothing to carry) or integrity on (a mark inside a
    /// checksummed frame would have to be covered by the checksum).
    markable_max: usize,
    max_flows: usize,
    park_capacity: usize,
    queue_frames: usize,
    /// Inter-flow scheduler over slab indices.
    drr: Drr,
    /// The flow slab: O(1) lookup by flow id, `None` in free slots.
    flows: Vec<Option<FlowState<S>>>,
    /// Per-slot generation, bumped on close so stale handles miss.
    gens: Vec<u32>,
    free_ids: Vec<FlowId>,
    /// FIFO of parked flows awaiting an active slot.
    parked_order: VecDeque<FlowId>,
    /// Latest channel live mask — applied to flows created after an
    /// epoch change (the receiver applies the same mask when it lazily
    /// creates the matching replica, so both simulations agree).
    mask: Vec<bool>,
    mask_dirty: bool,
    /// Path-wide park: every channel is dead (total blackout) or a §5
    /// reset is gating resume. Distinct from per-flow admission parking
    /// — here *no* flow may send, enqueues see backpressure, and the
    /// flows' schedulers freeze on their last live mask (a scheduler
    /// must never scan an empty mask). Control still flows, so probes
    /// can observe recovery. Cleared by the next non-empty mask.
    path_parked: bool,
    /// Latest per-channel quanta — applied to flows created after a live
    /// retune, mirroring `mask`/`mask_dirty` (the receiver replays the
    /// same quanta when it lazily creates the matching replica).
    last_quanta: Vec<i64>,
    quanta_dirty: bool,
    stats: StripeServerSnapshot,
    // Scratch, all recycled: the steady state allocates nothing.
    buf_pool: Vec<Vec<u8>>,
    /// Closed flows' state, reset and reused by the next open: under
    /// open/close churn the slab reaches a high-water mark of engines
    /// and queues and then cycles them without touching the allocator.
    flow_pool: Vec<FlowState<S>>,
    turn_lens: Vec<usize>,
    scratch_channels: Vec<ChannelId>,
    scratch_numbers: Vec<ChannelMark>,
    scratch_markers: Vec<(usize, ChannelId, Marker)>,
    scratch_idle: Vec<(ChannelId, Marker)>,
    /// Per `(flow slot, channel)`, at `slot * channels + channel`: the
    /// mark waiting there, valid while the flow's
    /// [`waiting`](FlowState::waiting) bit is set. One array for the
    /// whole slab, grown with it.
    waiting: Vec<WaitingMark>,
    /// Flows that had a mark waiting at some point of the pump in
    /// progress (empty between pumps).
    waiting_flows: Vec<FlowId>,
    /// `(index of the carrier's PumpEvent::Data, index of the mark's
    /// PumpEvent::Marker)` for every mark of the latest pump that a
    /// frame's own number stood for, in carrier order: how a refused
    /// carrier finds the other event its error belongs on.
    carried: Vec<(u32, u32)>,
    /// The pump in progress, per channel (empty between pumps).
    stage: Vec<ChannelStage>,
    regroup: Regroup,
    results: Vec<Result<(), TxError>>,
    ctl_buf: Vec<u8>,
}

impl<S: CausalScheduler + Clone, L: DatagramLink> StripeServer<S, L> {
    /// Open a new flow: clone the prototype scheduler, apply the current
    /// membership mask, and admit the flow — active if a slot is free,
    /// parked otherwise.
    pub fn open_flow(&mut self) -> Result<FlowHandle, FlowError> {
        let park = self.stats.flows_active as usize >= self.max_flows;
        if park && self.stats.flows_parked as usize >= self.park_capacity {
            self.stats.dropped_admission += 1;
            return Err(FlowError::AdmissionRejected);
        }
        let id = self.free_ids.pop().unwrap_or_else(|| {
            self.flows.push(None);
            self.gens.push(0);
            self.regroup.tail.push(NONE);
            let none = WaitingMark {
                mark: ChannelMark { round: 0, dc: 0 },
                event: NONE,
                behind: 0,
            };
            self.waiting
                .resize(self.flows.len() * self.links.len(), none);
            (self.flows.len() - 1) as FlowId
        });
        // Reuse a closed flow's engine and queue when one is pooled: a
        // reset sender is indistinguishable from a fresh clone, and the
        // churn path (open → traffic → close → open …) stays off the
        // allocator once the slab's high-water mark is reached.
        let mut f = match self.flow_pool.pop() {
            Some(mut f) => {
                f.tx.reset();
                f.stats = FlowSnapshot::default();
                f
            }
            None => FlowState {
                gen: 0,
                tx: StripingSender::new(self.proto.clone(), self.markers),
                queue: VecDeque::new(),
                stats: FlowSnapshot::default(),
                parked: false,
                waiting: 0,
            },
        };
        if self.mask_dirty {
            // Same rule the receiver uses when it lazily creates this
            // flow's replica: schedule the mask one round ahead of the
            // fresh scheduler. Both sides clamp identically, so the
            // simulations stay in lockstep; any race with an in-flight
            // epoch change is healed by markers.
            let eff = f.tx.scheduler().round() + 1;
            f.tx.schedule_mask(eff, &self.mask);
        }
        if self.quanta_dirty {
            // Same replay rule for quanta: a flow born after a retune
            // starts under the tuned quanta from its first full round.
            let eff = f.tx.scheduler().round() + 1;
            f.tx.schedule_quanta(eff, &self.last_quanta);
        }
        f.gen = self.gens[id as usize];
        f.parked = park;
        self.flows[id as usize] = Some(f);
        if park {
            self.parked_order.push_back(id);
            self.stats.flows_parked += 1;
        } else {
            self.drr.register(id as usize);
            self.stats.flows_active += 1;
        }
        self.stats.flows_opened += 1;
        Ok(FlowHandle {
            id,
            gen: self.gens[id as usize],
        })
    }
}

impl<S: CausalScheduler, L: DatagramLink> StripeServer<S, L> {
    /// Start building: `StripeServer::builder().scheduler(…).links(…)
    /// .build()`.
    pub fn builder() -> StripeServerBuilder<S, L> {
        StripeServerBuilder::default()
    }

    fn state_of(&self, h: FlowHandle) -> Result<&FlowState<S>, FlowError> {
        self.flows
            .get(h.id as usize)
            .and_then(|s| s.as_ref())
            .filter(|f| f.gen == h.gen)
            .ok_or(FlowError::Closed)
    }

    /// Close a flow: drop its queued frames, free its slot, and unpark
    /// the oldest waiting flow if this one held an active slot.
    pub fn close_flow(&mut self, h: FlowHandle) -> Result<(), FlowError> {
        self.state_of(h)?;
        let mut f = self.flows[h.id as usize].take().expect("validated");
        for q in f.queue.drain(..) {
            self.buf_pool.push(q.buf);
        }
        self.gens[h.id as usize] = self.gens[h.id as usize].wrapping_add(1);
        self.free_ids.push(h.id);
        self.stats.flows_closed += 1;
        let parked = f.parked;
        self.flow_pool.push(f);
        if parked {
            self.stats.flows_parked -= 1;
            self.parked_order.retain(|&p| p != h.id);
            return Ok(());
        }
        self.drr.unregister(h.id as usize);
        self.stats.flows_active -= 1;
        // Hand the freed slot to the oldest parked flow.
        while let Some(pid) = self.parked_order.pop_front() {
            if let Some(pf) = self.flows[pid as usize].as_mut() {
                if pf.parked {
                    pf.parked = false;
                    self.drr.register(pid as usize);
                    self.stats.flows_parked -= 1;
                    self.stats.flows_active += 1;
                    break;
                }
            }
        }
        Ok(())
    }

    /// Whether the flow is parked (admitted but not yet schedulable).
    pub fn is_parked(&self, h: FlowHandle) -> Result<bool, FlowError> {
        self.state_of(h).map(|f| f.parked)
    }

    /// Frames currently queued on the flow.
    pub fn queue_len(&self, h: FlowHandle) -> Result<usize, FlowError> {
        self.state_of(h).map(|f| f.queue.len())
    }

    /// Whether the next [`enqueue`](Self::enqueue) on this flow would be
    /// refused — parked, or its queue at the bound. Lets a producer probe
    /// backpressure without paying for an encode-and-refuse round trip.
    pub fn would_block(&self, h: FlowHandle) -> Result<bool, FlowError> {
        self.state_of(h)
            .map(|f| self.path_parked || f.parked || f.queue.len() >= self.queue_frames)
    }

    /// Queue one payload on a flow: the frame is encoded here, once,
    /// into a recycled buffer (flow-tagged version 2), and waits
    /// for [`pump_into`](Self::pump_into) to schedule it. A full queue
    /// reports [`FlowError::Backpressure`] without touching the payload.
    ///
    /// The frame gets the mark field — empty here, filled with the
    /// packet's own number when a pump serves it — iff markers are on,
    /// integrity is off, the payload is at least
    /// [`MARK_MIN_PAYLOAD`](frame::MARK_MIN_PAYLOAD) bytes and the longer
    /// frame still fits every link's MTU: all decided here, by length,
    /// so equal payloads are equal frames.
    pub fn enqueue(&mut self, h: FlowHandle, payload: &[u8]) -> Result<(), FlowError> {
        let f = self.state_of(h)?;
        if self.path_parked {
            // Blackout/reset park: bounded buffers stop admitting. The
            // hint is 1 — "try again after the next unpark", there is no
            // queue position to wait out.
            self.stats.dropped_backpressure += 1;
            let f = self.flows[h.id as usize].as_mut().expect("validated");
            f.stats.dropped_backpressure += 1;
            return Err(FlowError::Backpressure { resume_hint: 1 });
        }
        if f.parked {
            return Err(FlowError::Parked);
        }
        if f.queue.len() >= self.queue_frames {
            let resume_hint = f.queue.len() + 1 - self.queue_frames;
            self.stats.dropped_backpressure += 1;
            let f = self.flows[h.id as usize].as_mut().expect("validated");
            f.stats.dropped_backpressure += 1;
            return Err(FlowError::Backpressure { resume_hint });
        }
        let mut buf = self.buf_pool.pop().unwrap_or_default();
        if self.integrity {
            frame::encode_data_summed_flow_into(h.id, payload, &mut buf);
        } else if payload.len() >= frame::MARK_MIN_PAYLOAD
            && frame::data_flow_frame_len(h.id, payload.len()) <= self.markable_max
        {
            frame::encode_data_markable_flow_into(h.id, payload, &mut buf);
        } else {
            frame::encode_data_flow_into(h.id, payload, &mut buf);
        }
        let f = self.flows[h.id as usize].as_mut().expect("validated");
        f.queue.push_back(QueuedFrame {
            buf,
            payload_len: payload.len(),
        });
        f.stats.enqueued += 1;
        self.drr.activate(h.id as usize);
        Ok(())
    }

    /// Drive the two-level scheduler: DRR turns across backlogged flows,
    /// each turn striping up to one quantum of that flow's frames
    /// through its own SRR onto the shared links. At most `budget` data
    /// frames leave. Events land in `events` (cleared first) in offer
    /// order; each link gets its whole burst in one regrouped run (see
    /// the module docs) and one flush. Returns the number of data frames
    /// served.
    pub fn pump_into(&mut self, now: SimTime, budget: usize, events: &mut Vec<PumpEvent>) -> usize {
        let _ = now; // reserved for pacing
        events.clear();
        self.carried.clear();
        if self.path_parked {
            return 0;
        }
        // The length rule of `enqueue`, as the per-flow engines need it.
        let number_from = match self.markable_max {
            0 => usize::MAX,
            _ => frame::MARK_MIN_PAYLOAD,
        };
        let mut served_total = 0usize;
        while served_total < budget {
            let Some(fid) = self.drr.begin_turn() else {
                break;
            };
            let flow_id = fid as FlowId;
            let f = self.flows[fid].as_mut().expect("active flow in ring");
            // Phase 1: charge the affordable prefix of the flow queue.
            self.turn_lens.clear();
            for q in f.queue.iter().take(budget - served_total) {
                let cost = q.payload_len as i64;
                if self.drr.deficit(fid) < cost {
                    break;
                }
                self.drr.charge(fid, cost);
                self.turn_lens.push(q.payload_len);
            }
            // Phase 2: the flow's own SRR assigns channels/markers, and
            // numbers the packets long enough for the mark field.
            f.tx.send_batch_numbered(
                &self.turn_lens,
                number_from,
                &mut self.scratch_channels,
                &mut self.scratch_numbers,
                &mut self.scratch_markers,
            );
            // Phase 3: stage each frame on its channel. One that has the
            // mark field states its own number there. A mark waits for
            // the flow's next frame on its channel and leaves as that
            // number, or directly ahead of a frame that has none: per
            // (flow, channel) the wire order is the offer order, so
            // marker recovery holds per flow.
            let n = self.turn_lens.len();
            let channels = self.links.len();
            let mut m = 0;
            let mut numbers = self.scratch_numbers.iter();
            for (i, &ch) in self.scratch_channels.iter().enumerate() {
                let q = f.queue.front_mut().expect("charged above");
                let stated = q.payload_len >= number_from
                    && numbers
                        .next()
                        .is_some_and(|&own| frame::write_mark(&mut q.buf, own));
                if f.waiting & (1 << ch) != 0 {
                    f.waiting &= !(1 << ch);
                    let w = self.waiting[fid * channels + ch];
                    if stated {
                        // The frame's own number is what the mark
                        // foretold — under SRR to the bit (the one-flow
                        // differential holds the server to it); where a
                        // retune, or a scheduler whose marks state where
                        // it stood when they were made, moves the two
                        // apart, the frame is the one that is right.
                        self.carried.push((events.len() as u32, w.event));
                        self.stats.markers_carried += 1;
                        f.stats.markers_carried += 1;
                    } else {
                        // No field (short payload, integrity): a frame
                        // of its own, of the carrier's length class.
                        Self::stage_marker_frame(
                            &self.links[ch],
                            &mut self.buf_pool,
                            &mut self.stage[ch],
                            flow_id,
                            ch,
                            w,
                            q.buf.len(),
                        );
                    }
                }
                self.stage[ch].push(&mut q.buf, flow_id, events.len());
                f.queue.pop_front();
                events.push(PumpEvent::Data {
                    flow: flow_id,
                    channel: ch,
                    error: None,
                });
                while let Some(&(_, c, mk)) = self.scratch_markers.get(m).filter(|mk| mk.0 <= i) {
                    m += 1;
                    let at = fid * channels + c;
                    if f.waiting & (1 << c) != 0 {
                        // Nothing went on `c` since the flow's last mark
                        // for it: that one leaves alone, ahead of this.
                        f.waiting &= !(1 << c);
                        let w = self.waiting[at];
                        Self::stage_marker_frame(
                            &self.links[c],
                            &mut self.buf_pool,
                            &mut self.stage[c],
                            flow_id,
                            c,
                            w,
                            w.behind as usize,
                        );
                    }
                    let w = WaitingMark {
                        mark: mk.mark,
                        event: events.len() as u32,
                        behind: self.stage[c].last_len_of(flow_id).unwrap_or(0) as u32,
                    };
                    if f.queue.is_empty() {
                        // The flow has nothing left for this pump to
                        // carry it in: it leaves now, not at the end.
                        Self::stage_marker_frame(
                            &self.links[c],
                            &mut self.buf_pool,
                            &mut self.stage[c],
                            flow_id,
                            c,
                            w,
                            w.behind as usize,
                        );
                    } else {
                        if f.waiting == 0 {
                            self.waiting_flows.push(flow_id);
                        }
                        f.waiting |= 1 << c;
                        self.waiting[at] = w;
                    }
                    events.push(PumpEvent::Marker {
                        flow: flow_id,
                        channel: c,
                        marker: mk,
                        error: None,
                    });
                }
            }
            served_total += n;
            self.stats.path.sent += n as u64;
            self.stats.path.markers_sent += m as u64;
            f.stats.sent += n as u64;
            f.stats.markers_sent += m as u64;
            let backlogged = !f.queue.is_empty();
            self.drr.end_turn(fid, backlogged);
        }
        // No mark outlives the pump that made it: what found no carrier
        // leaves as a marker frame behind the flow's last frame on the
        // channel.
        for k in 0..self.waiting_flows.len() {
            let flow = self.waiting_flows[k];
            let f = self.flows[flow as usize]
                .as_mut()
                .expect("flows stay open across a pump");
            while f.waiting != 0 {
                let c = f.waiting.trailing_zeros() as usize;
                f.waiting &= f.waiting - 1;
                let w = self.waiting[flow as usize * self.links.len() + c];
                Self::stage_marker_frame(
                    &self.links[c],
                    &mut self.buf_pool,
                    &mut self.stage[c],
                    flow,
                    c,
                    w,
                    w.behind as usize,
                );
            }
        }
        self.waiting_flows.clear();
        self.emit_stages(events);
        served_total
    }

    /// Stage flow `flow`'s mark `w` for channel `c` as a marker frame of
    /// its own — on a coalescing link padded to `pad_to` bytes where a
    /// marker fits in that, the length of the flow's data frame it is
    /// staged next to, so that it joins that frame's length class
    /// instead of cutting a train.
    fn stage_marker_frame(
        link: &L,
        buf_pool: &mut Vec<Vec<u8>>,
        stage: &mut ChannelStage,
        flow: FlowId,
        c: ChannelId,
        w: WaitingMark,
        pad_to: usize,
    ) {
        // A buffer fresh from an empty pool arrives pre-sized: a
        // zero-capacity one would grow under the encode, in the steady
        // state.
        let mtu = link.mtu();
        let mut buf = buf_pool.pop().unwrap_or_else(|| Vec::with_capacity(mtu));
        let ctl = Control::Marker(Marker::sync(c, w.mark));
        let fits = frame::control_flow_frame_len(flow, &ctl) + frame::PAD_LEN_PREFIX..=mtu;
        if link.coalesce_hint() && fits.contains(&pad_to) {
            frame::encode_control_padded_flow_into(flow, &ctl, pad_to, &mut buf);
        } else {
            frame::encode_control_flow_into(flow, &ctl, &mut buf);
        }
        stage.push(&mut buf, flow, w.event as usize);
    }

    /// Every channel's staged burst to its link, and one flush per link:
    /// deferring links submit their whole accumulated burst as mmsg
    /// batches here.
    fn emit_stages(&mut self, events: &mut [PumpEvent]) {
        for c in 0..self.links.len() {
            self.emit_stage(c, events);
            self.links[c].flush();
        }
    }

    /// Hand channel `c`'s staged burst to its link in one run —
    /// regrouped by wire length when that changes anything — then patch
    /// each refused frame's error onto its own event and counters.
    fn emit_stage(&mut self, c: ChannelId, events: &mut [PumpEvent]) {
        let mut st = &mut self.stage[c];
        if st.bufs.is_empty() {
            return;
        }
        if st.mixed_len && st.multi_flow {
            self.regroup.merge(st);
            st = &mut self.regroup.out;
        }
        self.results.clear();
        self.links[c].send_run_owned(&mut st.bufs, &mut self.results);
        if self.results.iter().any(|r| r.is_err()) {
            for (&(flow, event), r) in st.meta.iter().zip(&self.results) {
                let Err(e) = *r else { continue };
                let f = self.flows[flow as usize]
                    .as_mut()
                    .expect("flows stay open across a pump");
                // A refused carrier takes the mark inside it along.
                let inside = self.carried.binary_search_by_key(&event, |c| c.0);
                let inside = inside.ok().map(|k| self.carried[k].1);
                for event in std::iter::once(event).chain(inside) {
                    match &mut events[event as usize] {
                        PumpEvent::Data { error, .. } => {
                            *error = Some(e);
                            if e == TxError::QueueFull {
                                self.stats.path.dropped_queue += 1;
                                f.stats.dropped_queue += 1;
                            } else {
                                self.stats.path.dropped_lost += 1;
                                f.stats.dropped_lost += 1;
                            }
                        }
                        PumpEvent::Marker { error, .. } => {
                            *error = Some(e);
                            self.stats.path.markers_lost += 1;
                            f.stats.markers_lost += 1;
                        }
                    }
                }
            }
        }
        // Recycle the storage the link swapped back.
        self.buf_pool.append(&mut st.bufs);
        st.clear();
    }

    /// Emit every open active flow's due marker batch immediately
    /// (timer-driven markers during idle periods): staged unpadded —
    /// there is no adjacent data to length-match — and handed to the
    /// links as a pump's burst is, one run and one flush per link for
    /// every [`IDLE_MARKER_BURST`] flows, so that no link is offered
    /// more than that many frames between flushes however many flows
    /// are open. Events land in `events` (cleared first), flow-major,
    /// channel order within a flow.
    pub fn send_idle_markers_into(&mut self, now: SimTime, events: &mut Vec<PumpEvent>) {
        let _ = now;
        events.clear();
        self.carried.clear();
        if self.path_parked {
            return;
        }
        let mut staged_flows = 0;
        for fid in 0..self.flows.len() {
            let Some(f) = self.flows[fid].as_mut() else {
                continue;
            };
            if f.parked {
                continue;
            }
            self.scratch_idle.clear();
            f.tx.make_markers_into(&mut self.scratch_idle);
            f.stats.markers_sent += self.scratch_idle.len() as u64;
            self.stats.path.markers_sent += self.scratch_idle.len() as u64;
            for &(c, mk) in &self.scratch_idle {
                let w = WaitingMark {
                    mark: mk.mark,
                    event: events.len() as u32,
                    behind: 0,
                };
                Self::stage_marker_frame(
                    &self.links[c],
                    &mut self.buf_pool,
                    &mut self.stage[c],
                    fid as FlowId,
                    c,
                    w,
                    0,
                );
                events.push(PumpEvent::Marker {
                    flow: fid as FlowId,
                    channel: c,
                    marker: mk,
                    error: None,
                });
            }
            staged_flows += 1;
            if staged_flows == IDLE_MARKER_BURST {
                staged_flows = 0;
                self.emit_stages(events);
            }
        }
        self.emit_stages(events);
    }

    fn transmit_control_impl(
        &mut self,
        now: SimTime,
        c: ChannelId,
        ctl: &Control,
    ) -> (Option<SimTime>, Option<TxError>) {
        self.stats.path.control_sent += 1;
        // Global control stays untagged version 1: the failover plane is
        // flow-agnostic.
        frame::encode_control_into(ctl, &mut self.ctl_buf);
        match self.links[c].send_frame(&self.ctl_buf) {
            Ok(()) => (Some(now), None),
            Err(e) => {
                self.stats.path.control_lost += 1;
                (None, Some(e))
            }
        }
    }

    /// The striped *payload* MTU: minimum member frame MTU (§6.1's
    /// minimum-MTU rule) net of the worst-case framing overhead — header,
    /// the widest flow id the admission caps allow, and the integrity
    /// trailer when on.
    ///
    /// Flow ids are slab indices and at most `max_flows + park_capacity`
    /// slots are ever occupied, so every id this server puts on the wire
    /// is below that sum. The receiving
    /// [`FlowDemux`](crate::demux::FlowDemux) relies on the same bound to
    /// refuse ids that would blow up its own slab: it accepts ids below
    /// its `max_flows` + [`DEFAULT_PARK_CAPACITY`]
    /// ([`flow_id_limit`](crate::demux::FlowDemux::flow_id_limit)).
    pub fn max_payload(&self) -> usize {
        let min_mtu = self.links.iter().map(|l| l.mtu()).min().expect("non-empty");
        let id_bound = (self.max_flows + self.park_capacity).saturating_sub(1) as u32;
        let mut overhead = frame::FRAME_HEADER_LEN + frame::flow_id_len(id_bound);
        if self.integrity {
            overhead += frame::SUM_TRAILER_LEN;
        }
        min_mtu.saturating_sub(overhead)
    }

    /// Try to drain every link's local backlog. Returns frames flushed.
    pub fn flush(&mut self) -> usize {
        self.links.iter_mut().map(|l| l.flush()).sum()
    }

    /// Frames parked across all link backlogs.
    pub fn backlog(&self) -> usize {
        self.links.iter().map(|l| l.backlog()).sum()
    }

    /// Server-wide counters.
    pub fn stats(&self) -> StripeServerSnapshot {
        self.stats
    }

    /// One flow's counters.
    pub fn flow_stats(&self, h: FlowHandle) -> Result<FlowSnapshot, FlowError> {
        self.state_of(h).map(|f| f.stats)
    }

    /// One flow's striping engine (fairness ledgers, marker counts).
    pub fn flow_sender(&self, h: FlowHandle) -> Result<&StripingSender<S>, FlowError> {
        self.state_of(h).map(|f| &f.tx)
    }

    /// Mutable access to one flow's striping engine.
    pub fn flow_sender_mut(&mut self, h: FlowHandle) -> Result<&mut StripingSender<S>, FlowError> {
        self.state_of(h)?;
        Ok(&mut self.flows[h.id as usize].as_mut().expect("validated").tx)
    }

    /// Is the server path-parked (total blackout, or a §5 reset gating
    /// resume)? While parked, enqueues report backpressure and pumps
    /// serve nothing; control still flows.
    pub fn parked(&self) -> bool {
        self.path_parked
    }

    /// Flush every flow's sender-side engine after a completed §5
    /// reset: schedulers, fairness ledgers, and marker clocks restart
    /// from zero, and pre-reset queued frames are discarded (the
    /// receiver flushed its replicas when it acked — old-epoch state
    /// must not leak into the new one). Flow handles stay valid; the
    /// post-reset re-announce re-teaches the current mask.
    pub fn reset_flows(&mut self) {
        for f in self.flows.iter_mut().flatten() {
            f.tx.reset();
            for q in f.queue.drain(..) {
                f.stats.dropped_lost += 1;
                self.buf_pool.push(q.buf);
            }
        }
        // Fresh engines start all-live on their original quanta, so the
        // replay state for late-opened flows resets with them.
        for m in &mut self.mask {
            *m = true;
        }
        self.mask_dirty = false;
        self.last_quanta.clear();
        self.quanta_dirty = false;
    }

    /// The member links.
    pub fn links(&self) -> &[L] {
        &self.links
    }

    /// Mutable access to the member links.
    pub fn links_mut(&mut self) -> &mut [L] {
        &mut self.links
    }

    /// Take the links back out, consuming the server.
    pub fn into_links(self) -> Vec<L> {
        self.links
    }
}

impl<S: CausalScheduler, L: DatagramLink> ControlPath for StripeServer<S, L> {
    fn channels(&self) -> usize {
        self.links.len()
    }

    fn current_round(&self) -> u64 {
        // The most advanced flow bounds how far any simulation has run;
        // announcing relative to it keeps the effective round in every
        // flow's future (laggards clamp to their own next boundary).
        self.flows
            .iter()
            .flatten()
            .map(|f| f.tx.scheduler().round())
            .max()
            .unwrap_or_else(|| self.proto.round())
    }

    fn schedule_mask(&mut self, effective_round: u64, live: &[bool]) {
        if !live.iter().any(|&l| l) {
            // The park contract (see [`ControlPath::schedule_mask`]):
            // an all-dead mask parks the whole server. The per-flow
            // schedulers never see it — they freeze on their last live
            // mask — and the stored replay mask stays non-empty so a
            // flow opened mid-blackout starts from the last live state.
            self.path_parked = true;
            return;
        }
        self.path_parked = false;
        self.mask.clear();
        self.mask.extend_from_slice(live);
        self.mask_dirty = live.iter().any(|&l| !l);
        for f in self.flows.iter_mut().flatten() {
            f.tx.schedule_mask(effective_round, live);
        }
    }

    fn schedule_quanta(&mut self, effective_round: u64, quanta: &[i64]) {
        self.last_quanta.clear();
        self.last_quanta.extend_from_slice(quanta);
        self.quanta_dirty = true;
        for f in self.flows.iter_mut().flatten() {
            f.tx.schedule_quanta(effective_round, quanta);
        }
    }

    fn transmit_control(
        &mut self,
        now: SimTime,
        c: ChannelId,
        ctl: Control,
    ) -> ControlTransmission {
        let (arrival, error) = self.transmit_control_impl(now, c, &ctl);
        ControlTransmission {
            channel: c,
            arrival,
            duplicate: None,
            ctl,
            error,
        }
    }

    fn transmit_control_ref(
        &mut self,
        now: SimTime,
        c: ChannelId,
        ctl: &Control,
    ) -> ControlTransmission {
        let (arrival, error) = self.transmit_control_impl(now, c, ctl);
        ControlTransmission {
            channel: c,
            arrival,
            duplicate: None,
            ctl: ctl.clone(),
            error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use stripe_core::sched::Srr;
    use stripe_link::{datagram_pair, TestDatagramLink};

    fn server(
        max_flows: usize,
        park: usize,
        queue: usize,
    ) -> (StripeServer<Srr, TestDatagramLink>, Vec<TestDatagramLink>) {
        let (a0, b0) = datagram_pair(2048, 1 << 12);
        let (a1, b1) = datagram_pair(2048, 1 << 12);
        let srv = StripeServer::builder()
            .scheduler(Srr::equal(2, 1500))
            .markers(MarkerConfig::every_rounds(4))
            .links(vec![a0, a1])
            .max_flows(max_flows)
            .park_capacity(park)
            .queue_frames(queue)
            .flow_quantum(2048)
            .build();
        (srv, vec![b0, b1])
    }

    fn drain(link: &mut TestDatagramLink) -> Vec<Vec<u8>> {
        let mut buf = [0u8; 4096];
        let mut out = Vec::new();
        while let Some(n) = link.recv_frame(&mut buf) {
            out.push(buf[..n].to_vec());
        }
        out
    }

    #[test]
    fn frames_carry_their_flow_id() {
        let (mut srv, mut peers) = server(16, 4, 64);
        let f0 = srv.open_flow().unwrap();
        let f1 = srv.open_flow().unwrap();
        assert_ne!(f0.id(), f1.id());
        for _ in 0..6 {
            srv.enqueue(f0, &[0xAA; 200]).unwrap();
            srv.enqueue(f1, &[0xBB; 200]).unwrap();
        }
        let mut events = Vec::new();
        let served = srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        assert_eq!(served, 12);
        let mut by_flow = [0usize; 2];
        for p in &mut peers {
            for f in drain(p) {
                match frame::try_decode_flow(&f).expect("well-formed") {
                    (id, Frame::Data(body)) => {
                        assert_eq!(body.len(), 200);
                        let want = if id == f0.id() { 0xAA } else { 0xBB };
                        assert!(body.iter().all(|&b| b == want), "cross-flow bytes");
                        by_flow[id as usize] += 1;
                    }
                    (_, Frame::Control(Control::Marker(_))) => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(by_flow, [6, 6]);
        assert_eq!(srv.stats().path.sent, 12);
        assert_eq!(srv.flow_stats(f0).unwrap().sent, 6);
    }

    #[test]
    fn admission_parks_then_rejects() {
        let (mut srv, _peers) = server(1, 1, 64);
        let active = srv.open_flow().unwrap();
        let parked = srv.open_flow().unwrap();
        assert!(!srv.is_parked(active).unwrap());
        assert!(srv.is_parked(parked).unwrap());
        assert_eq!(srv.open_flow(), Err(FlowError::AdmissionRejected));
        let s = srv.stats();
        assert_eq!(
            (s.flows_active, s.flows_parked, s.dropped_admission),
            (1, 1, 1)
        );
        // A parked flow cannot send…
        assert_eq!(srv.enqueue(parked, &[1, 2, 3]), Err(FlowError::Parked));
        // …until an active slot frees.
        srv.close_flow(active).unwrap();
        assert!(!srv.is_parked(parked).unwrap());
        srv.enqueue(parked, &[1, 2, 3]).unwrap();
        let s = srv.stats();
        assert_eq!((s.flows_active, s.flows_parked), (1, 0));
    }

    #[test]
    fn queue_bound_backpressures_one_flow_only() {
        let (mut srv, _peers) = server(8, 0, 2);
        let f0 = srv.open_flow().unwrap();
        let f1 = srv.open_flow().unwrap();
        assert_eq!(srv.would_block(f0), Ok(false));
        srv.enqueue(f0, &[0; 10]).unwrap();
        srv.enqueue(f0, &[0; 10]).unwrap();
        assert_eq!(srv.would_block(f0), Ok(true));
        assert_eq!(
            srv.enqueue(f0, &[0; 10]),
            Err(FlowError::Backpressure { resume_hint: 1 })
        );
        // The sibling flow is untouched by f0's backpressure.
        assert_eq!(srv.would_block(f1), Ok(false));
        srv.enqueue(f1, &[0; 10]).unwrap();
        assert_eq!(srv.stats().dropped_backpressure, 1);
        assert_eq!(srv.flow_stats(f0).unwrap().dropped_backpressure, 1);
        assert_eq!(srv.flow_stats(f1).unwrap().dropped_backpressure, 0);
        // Draining the queue clears the signal.
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        assert_eq!(srv.would_block(f0), Ok(false));
        srv.enqueue(f0, &[0; 10]).unwrap();
    }

    /// A retune fans out to every open flow, and flows opened afterwards
    /// inherit the tuned quanta — both simulations (sender and the
    /// receiver's lazily created replica) replay the same schedule.
    #[test]
    fn retune_fans_out_and_late_flows_inherit_quanta() {
        let (mut srv, mut peers) = server(8, 0, 4096);
        let f0 = srv.open_flow().unwrap();
        // 4:1 in channel 0's favour, effective as soon as each flow's
        // clamp allows.
        ControlPath::schedule_quanta(&mut srv, 0, &[4000, 1000]);
        let f1 = srv.open_flow().unwrap(); // born after the retune
        for _ in 0..50 {
            srv.enqueue(f0, &[3; 500]).unwrap();
            srv.enqueue(f1, &[4; 500]).unwrap();
        }
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        let on0 = drain(&mut peers[0]).len();
        let on1 = drain(&mut peers[1]).len();
        // Round 1 still runs under the prototype's equal quanta (the
        // change clamps to the next boundary); everything after splits
        // 4:1, so channel 0 must carry well over half.
        assert!(
            on0 > on1 * 2,
            "channel split {on0}:{on1} does not reflect 4:1 quanta"
        );
    }

    #[test]
    fn stale_handles_miss_recycled_slots() {
        let (mut srv, _peers) = server(4, 0, 8);
        let f0 = srv.open_flow().unwrap();
        srv.close_flow(f0).unwrap();
        assert_eq!(srv.enqueue(f0, &[1]), Err(FlowError::Closed));
        assert_eq!(srv.close_flow(f0), Err(FlowError::Closed));
        // The slot is reused with a new generation; the old handle
        // still misses.
        let f0b = srv.open_flow().unwrap();
        assert_eq!(f0b.id(), f0.id());
        assert_ne!(f0b, f0);
        assert_eq!(srv.enqueue(f0, &[1]), Err(FlowError::Closed));
        srv.enqueue(f0b, &[1]).unwrap();
    }

    /// Two equally weighted backlogged flows split the served bytes
    /// about evenly even with very different packet sizes.
    #[test]
    fn drr_shares_bytes_fairly_across_flows() {
        let (mut srv, _peers) = server(8, 0, 4096);
        let big = srv.open_flow().unwrap();
        let small = srv.open_flow().unwrap();
        for _ in 0..200 {
            srv.enqueue(big, &[7; 1200]).unwrap();
        }
        for _ in 0..2400 {
            srv.enqueue(small, &[8; 100]).unwrap();
        }
        let mut events = Vec::new();
        // Pump a limited budget so both stay backlogged throughout.
        srv.pump_into(SimTime::ZERO, 1000, &mut events);
        let served_big = srv.flow_stats(big).unwrap().sent as i64 * 1200;
        let served_small = srv.flow_stats(small).unwrap().sent as i64 * 100;
        assert!(served_big > 0 && served_small > 0);
        let gap = (served_big - served_small).abs();
        assert!(gap <= 2048 + 1200, "byte gap {gap} past the DRR bound");
    }

    /// The regrouping rule on one channel, two flows, two lengths: the
    /// largest head length is the class, every flow's chain is drained
    /// while its head has it, repeat — equal lengths of different flows
    /// end up adjacent, each flow's own frames keep their order, and
    /// the events stay in offer order.
    #[test]
    fn regrouping_puts_equal_lengths_side_by_side() {
        let (a, mut b) = datagram_pair(2048, 64);
        let mut srv: StripeServer<Srr, TestDatagramLink> = StripeServer::builder()
            .scheduler(Srr::equal(1, 1500))
            .links(vec![a])
            .build();
        let fa = srv.open_flow().unwrap();
        let fb = srv.open_flow().unwrap();
        for (flow, lens) in [(fa, [1000, 100, 1000]), (fb, [100, 1000, 100])] {
            for (seq, len) in lens.into_iter().enumerate() {
                srv.enqueue(flow, &vec![seq as u8; len]).unwrap();
            }
        }
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        let offered: Vec<FlowId> = events
            .iter()
            .map(|ev| match ev {
                PumpEvent::Data {
                    flow, error: None, ..
                } => *flow,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(offered, [0, 0, 0, 1, 1, 1], "events in offer order");
        let wire: Vec<(FlowId, u8, usize)> = drain(&mut b)
            .iter()
            .map(|f| match frame::try_decode_flow(f).expect("well-formed") {
                (flow, Frame::Data(body)) => (flow, body[0], body.len()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            wire,
            [
                (0, 0, 1000), // class 1000: only flow 0 heads with it
                (0, 1, 100),  // class 100: flow 0's next, then flow 1's head
                (1, 0, 100),
                (0, 2, 1000), // class 1000 again: both chains
                (1, 1, 1000),
                (1, 2, 100),
            ]
        );
    }

    /// A one-flow server over two in-memory links of `mtu` bytes and
    /// `cap` frames of queue, flow 0 open.
    fn one_flow(
        markers: MarkerConfig,
        mtu: usize,
        cap: usize,
    ) -> (
        StripeServer<Srr, TestDatagramLink>,
        FlowHandle,
        Vec<TestDatagramLink>,
    ) {
        let (a0, b0) = datagram_pair(mtu, cap);
        let (a1, b1) = datagram_pair(mtu, cap);
        let mut srv = StripeServer::builder()
            .scheduler(Srr::equal(2, 1500))
            .markers(markers)
            .links(vec![a0, a1])
            .build();
        let h = srv.open_flow().unwrap();
        (srv, h, vec![b0, b1])
    }

    /// With one flow open the DRR degenerates to FIFO, so channel
    /// decisions must match a bare scheduler fed the same lengths — the
    /// server shares the simulated path's engine exactly.
    #[test]
    fn one_flow_channel_decisions_match_bare_scheduler() {
        let (mut srv, h, mut peers) = one_flow(MarkerConfig::disabled(), 1510, 1024);
        let mut bare = Srr::equal(2, 1500);
        let lens = [550usize, 200, 1400, 150, 300, 900, 60, 1200];
        for &len in &lens {
            srv.enqueue(h, &vec![0xAA; len]).unwrap();
        }
        let mut events = Vec::new();
        assert_eq!(
            srv.pump_into(SimTime::ZERO, usize::MAX, &mut events),
            lens.len()
        );
        assert_eq!(events.len(), lens.len());
        for (ev, &len) in events.iter().zip(&lens) {
            let expect = bare.current();
            bare.advance(len);
            assert_eq!(
                *ev,
                PumpEvent::Data {
                    flow: h.id(),
                    channel: expect,
                    error: None
                }
            );
        }
        // And the frames really left.
        let arrived: usize = peers.iter_mut().map(|p| drain(p).len()).sum();
        assert_eq!(arrived, lens.len());
    }

    /// Markers interleave at the SRR's emission points, and every marker
    /// the counter reports is a decodable frame on the wire.
    #[test]
    fn markers_on_the_wire_match_the_counter() {
        let (mut srv, h, mut peers) = one_flow(MarkerConfig::every_rounds(2), 1510, 1024);
        // 100 × 100 B = 10000 B ≈ 3.3 rounds of the 2 × 1500 B quantum:
        // comfortably past round 2, where the first marker batch is due.
        for i in 0..100u8 {
            srv.enqueue(h, &[i; 100]).unwrap();
        }
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        assert!(srv.stats().path.markers_sent > 0, "markers must have fired");
        let (mut data, mut markers) = (0u64, 0u64);
        for p in &mut peers {
            for f in drain(p) {
                match frame::try_decode_flow(&f).expect("well-formed frame") {
                    (_, Frame::Data(body)) => {
                        assert_eq!(body.len(), 100);
                        assert!(body.iter().all(|&b| b == body[0]));
                        data += 1;
                    }
                    (_, Frame::Control(Control::Marker(_))) => markers += 1,
                    other => panic!("unexpected frame {other:?}"),
                }
            }
        }
        assert_eq!(data, 100);
        assert_eq!(markers, srv.stats().path.markers_sent);
        assert_eq!(markers, srv.flow_stats(h).unwrap().markers_sent);
    }

    /// What the wire says, on one channel so that wire order is offer
    /// order. A frame with the field states its own number, every one of
    /// them (kind 4 never leaves), and a mark that was waiting for such a
    /// frame is that number: no frame of its own. A mark leaves as a
    /// marker frame directly ahead of a frame without the field, and
    /// behind the last one when the pump ends first. Read that way the
    /// wire is the event sequence.
    #[test]
    fn a_mark_rides_in_or_ahead_of_the_next_frame_and_never_outlives_its_pump() {
        // (payload, integrity) -> does a frame state its number?
        for (len, integrity, rides) in [(300, false, true), (100, false, false), (300, true, false)]
        {
            let (a, mut b) = datagram_pair(2048, 1024);
            let mut srv: StripeServer<Srr, TestDatagramLink> = StripeServer::builder()
                .scheduler(Srr::equal(1, 1500))
                .markers(MarkerConfig::every_rounds(1))
                .links(vec![a])
                .integrity(integrity)
                .build();
            let h = srv.open_flow().unwrap();
            for i in 0..40u8 {
                srv.enqueue(h, &vec![i; len]).unwrap();
            }
            // The numbers a bare scheduler gives the same packets.
            let mut bare = Srr::equal(1, 1500);
            let mut events = Vec::new();
            let (mut tails, mut carried, mut data) = (0, 0, 0);
            // Budgets that end some pumps right behind a fresh mark.
            for budget in [5, 7, 3, 10, usize::MAX] {
                srv.pump_into(SimTime::ZERO, budget, &mut events);
                let wire = drain(&mut b);
                let mut offered = events.iter().peekable();
                type Offers<'a> = std::iter::Peekable<std::slice::Iter<'a, PumpEvent>>;
                let next_mark = |offered: &mut Offers| match offered.peek() {
                    Some(PumpEvent::Marker {
                        marker,
                        error: None,
                        ..
                    }) => {
                        offered.next();
                        Some(marker.mark)
                    }
                    _ => None,
                };
                for f in &wire {
                    assert_ne!(f[2], frame::KIND_DATA_MARK_EMPTY, "a placeholder left");
                    let p = frame::parse(f).expect("well-formed");
                    let case = format!("len {len} integrity {integrity}");
                    match p.body {
                        frame::Body::Marker => {
                            let mark = p.marker(f).unwrap().mark;
                            assert_eq!(next_mark(&mut offered), Some(mark), "{case}");
                            continue;
                        }
                        frame::Body::MarkedData => {
                            assert_eq!(p.mark(f), bare.mark_for(0), "{case}");
                            // The mark that waited for this frame, if
                            // one did, is the frame's own number.
                            if let Some(waited) = next_mark(&mut offered) {
                                assert_eq!(waited, p.mark(f), "{case}");
                                carried += 1;
                            }
                        }
                        frame::Body::Data => assert!(!rides, "a long frame without a number"),
                        frame::Body::Control => panic!("unexpected control"),
                    }
                    let ev = offered.next();
                    assert!(
                        matches!(ev, Some(PumpEvent::Data { error: None, .. })),
                        "{case}: {ev:?}"
                    );
                    assert_eq!(p.body == frame::Body::MarkedData, rides);
                    bare.advance(len);
                    data += 1;
                }
                assert_eq!(offered.next(), None, "an offer that never left");
                // A mark the pump ended on left as a frame of its own.
                if let Some(PumpEvent::Marker { .. }) = events.last() {
                    let last = frame::parse(wire.last().unwrap()).unwrap();
                    assert_eq!(last.body, frame::Body::Marker);
                    tails += 1;
                }
                if rides {
                    // Equal payloads, equal frames.
                    let data = wire.iter().filter(|f| frame::is_data_frame(f));
                    assert!(data.clone().all(|f| f.len() == wire[0].len()));
                }
            }
            assert_eq!(data, 40);
            assert!(tails > 0, "no pump ended on a mark");
            let s = srv.flow_stats(h).unwrap();
            assert_eq!(s.markers_carried, carried);
            assert_eq!(s.markers_carried, srv.stats().markers_carried);
            assert_eq!(carried > 0, rides);
            if rides {
                assert_eq!(s.markers_sent, carried + tails);
            }
        }
    }

    /// Link backpressure surfaces as one `QueueFull` event per refused
    /// packet, counted under `dropped_queue` — same contract as the
    /// simulated path.
    #[test]
    fn queue_full_reported_per_packet() {
        let (mut srv, h, _peers) = one_flow(MarkerConfig::disabled(), 1510, 2);
        for _ in 0..10 {
            srv.enqueue(h, &[0u8; 1400]).unwrap();
        }
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        assert_eq!(events.len(), 10);
        let mut failed = 0u64;
        for ev in &events {
            let PumpEvent::Data { error, .. } = ev else {
                panic!("markers are disabled: {ev:?}");
            };
            if let Some(e) = error {
                assert_eq!(*e, TxError::QueueFull);
                failed += 1;
            }
        }
        assert!(failed > 0, "tiny queues must overflow");
        assert_eq!(srv.stats().path.dropped_queue, failed);
        assert_eq!(srv.flow_stats(h).unwrap().dropped_queue, failed);
    }

    /// Timer-driven markers go out on every live channel, each naming
    /// the channel it describes.
    #[test]
    fn idle_markers_cover_live_channels() {
        let (mut srv, h, mut peers) = one_flow(MarkerConfig::every_rounds(8), 1510, 1024);
        let mut events = Vec::new();
        srv.send_idle_markers_into(SimTime::ZERO, &mut events);
        assert_eq!(events.len(), 2);
        for (c, p) in peers.iter_mut().enumerate() {
            let frames = drain(p);
            assert_eq!(frames.len(), 1);
            match frame::try_decode_flow(&frames[0]) {
                Ok((flow, Frame::Control(Control::Marker(mk)))) => {
                    assert_eq!(flow, h.id());
                    assert_eq!(mk.channel, c);
                }
                other => panic!("expected marker, got {other:?}"),
            }
        }
    }

    /// Idle markers report flow-major, channel order within a flow, and
    /// one a full link refuses is patched onto its own event and counted
    /// on its own flow, as a pump's markers are.
    #[test]
    fn a_refused_idle_marker_lands_on_its_event_and_flow() {
        let (a0, _b0) = datagram_pair(2048, 1);
        let (a1, _b1) = datagram_pair(2048, 1);
        let mut srv: StripeServer<Srr, TestDatagramLink> = StripeServer::builder()
            .scheduler(Srr::equal(2, 1500))
            .markers(MarkerConfig::every_rounds(4))
            .links(vec![a0, a1])
            .build();
        let flows = [srv.open_flow().unwrap(), srv.open_flow().unwrap()];
        let mut events = Vec::new();
        srv.send_idle_markers_into(SimTime::ZERO, &mut events);
        let seen: Vec<_> = events
            .iter()
            .map(|e| match *e {
                PumpEvent::Marker {
                    flow,
                    channel,
                    error,
                    ..
                } => (flow, channel, error),
                PumpEvent::Data { .. } => panic!("idle markers only"),
            })
            .collect();
        // Each link holds one frame: the first flow's.
        let full = Some(TxError::QueueFull);
        assert_eq!(
            seen,
            [(0, 0, None), (0, 1, None), (1, 0, full), (1, 1, full)]
        );
        let path = srv.stats().path;
        assert_eq!((path.markers_sent, path.markers_lost), (4, 2));
        let per_flow = flows.map(|h| srv.flow_stats(h).unwrap());
        assert_eq!(
            per_flow.map(|f| (f.markers_sent, f.markers_lost)),
            [(2, 0), (2, 2)]
        );
    }

    /// A deferring link as `UdpChannel` is one: `send_run_owned` parks
    /// up to `cap` frames and refuses the rest, `flush` puts what is
    /// parked on the (unbounded) wire.
    struct Deferring {
        wire: TestDatagramLink,
        parked: Vec<Vec<u8>>,
        cap: usize,
    }

    impl DatagramLink for Deferring {
        fn send_frame(&mut self, frame: &[u8]) -> Result<(), TxError> {
            self.wire.send_frame(frame)
        }
        fn send_run_owned(&mut self, frames: &mut [Vec<u8>], out: &mut Vec<Result<(), TxError>>) {
            for f in frames.iter_mut() {
                out.push(if self.parked.len() < self.cap {
                    self.parked.push(std::mem::take(f));
                    Ok(())
                } else {
                    Err(TxError::QueueFull)
                });
            }
        }
        fn flush(&mut self) -> usize {
            let n = self.parked.len();
            for f in self.parked.drain(..) {
                self.wire.send_frame(&f).expect("unbounded wire");
            }
            n
        }
        fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize> {
            self.wire.recv_frame(buf)
        }
        fn mtu(&self) -> usize {
            self.wire.mtu()
        }
    }

    /// An idle sweep over more flows than a link's send queue holds
    /// loses nothing: the links are flushed every `IDLE_MARKER_BURST`
    /// flows, so high-numbered flows are not refused sweep after sweep,
    /// and the sweep keeps no more buffers than one burst needs.
    #[test]
    fn idle_markers_outnumbering_the_link_queue_all_arrive() {
        const FLOWS: usize = 10 * IDLE_MARKER_BURST + 7;
        let (links, mut peers): (Vec<_>, Vec<_>) = (0..2)
            .map(|_| {
                let (wire, peer) = datagram_pair(2048, usize::MAX);
                let cap = IDLE_MARKER_BURST;
                let parked = Vec::new();
                (Deferring { wire, parked, cap }, peer)
            })
            .unzip();
        let mut srv: StripeServer<Srr, Deferring> = StripeServer::builder()
            .scheduler(Srr::equal(2, 1500))
            .markers(MarkerConfig::every_rounds(4))
            .links(links)
            .max_flows(FLOWS)
            .build();
        let flows: Vec<_> = (0..FLOWS).map(|_| srv.open_flow().unwrap()).collect();
        let mut events = Vec::new();
        for sweep in 1..=2u64 {
            srv.send_idle_markers_into(SimTime::ZERO, &mut events);
            assert_eq!(events.len(), 2 * FLOWS);
            let want: Vec<_> = (0..FLOWS as FlowId)
                .flat_map(|f| [(f, 0), (f, 1)])
                .collect();
            let seen: Vec<_> = events
                .iter()
                .map(|e| match *e {
                    PumpEvent::Marker {
                        flow,
                        channel,
                        error: None,
                        ..
                    } => (flow, channel),
                    ref other => panic!("a refused or foreign event: {other:?}"),
                })
                .collect();
            assert_eq!(seen, want, "flow-major, channel order within a flow");
            let path = srv.stats().path;
            assert_eq!(
                (path.markers_sent, path.markers_lost),
                (sweep * 2 * FLOWS as u64, 0)
            );
            for (c, p) in peers.iter_mut().enumerate() {
                let mut arrived: Vec<_> = drain(p)
                    .iter()
                    .map(|f| match frame::try_decode_flow(f) {
                        Ok((flow, Frame::Control(Control::Marker(mk)))) if mk.channel == c => flow,
                        other => panic!("expected channel {c}'s marker, got {other:?}"),
                    })
                    .collect();
                arrived.sort_unstable();
                let all: Vec<_> = flows.iter().map(|h| h.id()).collect();
                assert_eq!(arrived, all, "every flow's marker on channel {c}");
            }
            assert!(srv.buf_pool.len() <= 2 * IDLE_MARKER_BURST);
        }
        for h in flows {
            let f = srv.flow_stats(h).unwrap();
            assert_eq!((f.markers_sent, f.markers_lost), (4, 0));
        }
    }

    /// Data and markers ride flow-tagged version-2 frames; global
    /// control stays untagged version 1, decodable by the plain codec.
    #[test]
    fn data_is_flow_tagged_and_global_control_is_untagged_v1() {
        let (mut srv, h, mut peers) = one_flow(MarkerConfig::disabled(), 1510, 1024);
        srv.enqueue(h, &[9; 50]).unwrap();
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        let frames = drain(&mut peers[0]);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0][1], frame::FRAME_VERSION_FLOW);
        assert_eq!(frame::decode(&frames[0]), None, "not a version-1 frame");

        let t = ControlPath::transmit_control(
            &mut srv,
            SimTime::from_nanos(5),
            1,
            Control::Probe { nonce: 77 },
        );
        assert_eq!(t.arrival, Some(SimTime::from_nanos(5)));
        assert_eq!(t.channel, 1);
        let frames = drain(&mut peers[1]);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0][1], frame::FRAME_VERSION);
        assert_eq!(
            frame::decode(&frames[0]),
            Some(Frame::Control(Control::Probe { nonce: 77 }))
        );
        assert_eq!(srv.stats().path.control_sent, 1);
    }

    /// §6.1's minimum-MTU rule, net of framing: header, the widest flow
    /// id the admission caps allow, and the trailer under integrity.
    #[test]
    fn max_payload_subtracts_framing_from_min_mtu() {
        let build = |max_flows: usize, park: usize, integrity: bool| {
            let (a0, _b0) = datagram_pair(1504, 8);
            let (a1, _b1) = datagram_pair(2048, 8);
            StripeServer::<Srr, TestDatagramLink>::builder()
                .scheduler(Srr::equal(2, 1500))
                .links(vec![a0, a1])
                .max_flows(max_flows)
                .park_capacity(park)
                .integrity(integrity)
                .build()
                .max_payload()
        };
        let header = frame::FRAME_HEADER_LEN;
        assert_eq!(build(1, 0, false), 1504 - header - 1);
        assert_eq!(build(1 << 16, 1 << 10, false), 1504 - header - 3);
        assert_eq!(
            build(1, 0, true),
            1504 - header - 1 - frame::SUM_TRAILER_LEN
        );
    }

    /// Integrity mode: every data frame goes out summed, round-trips
    /// through the decoder, and a flipped payload bit is caught as
    /// `Corrupt` rather than delivered.
    #[test]
    fn integrity_mode_emits_summed_frames() {
        let (a0, b0) = datagram_pair(1510, 1024);
        let (a1, b1) = datagram_pair(1510, 1024);
        let mut srv: StripeServer<Srr, TestDatagramLink> = StripeServer::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![a0, a1])
            .integrity(true)
            .build();
        let h = srv.open_flow().unwrap();
        for i in 0..8u8 {
            srv.enqueue(h, &[i; 64]).unwrap();
        }
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        let mut data = 0;
        for p in &mut [b0, b1] {
            for mut f in drain(p) {
                assert_eq!(f[2], frame::KIND_DATA_SUMMED, "summed kind on the wire");
                let Ok((_, Frame::Data(body))) = frame::try_decode_flow(&f) else {
                    panic!("summed frame must decode");
                };
                assert_eq!(body.len(), 64);
                data += 1;
                // One flipped payload bit is detected, not delivered.
                let at = body.as_ptr() as usize - f.as_ptr() as usize;
                f[at] ^= 0x10;
                assert_eq!(frame::try_decode_flow(&f), Err(frame::DecodeError::Corrupt));
            }
        }
        assert_eq!(data, 8);
    }

    /// A flow opened while a channel is masked out must not stripe onto
    /// the dead channel once its first round completes.
    #[test]
    fn late_flow_inherits_membership_mask() {
        let (mut srv, mut peers) = server(8, 0, 4096);
        ControlPath::schedule_mask(&mut srv, 0, &[true, false]);
        let f = srv.open_flow().unwrap();
        for _ in 0..40 {
            srv.enqueue(f, &[3; 500]).unwrap();
        }
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        let on_dead = drain(&mut peers[1]).len();
        // Round 1 may still visit the channel (the mask clamps to the
        // next boundary); everything after must avoid it.
        assert!(on_dead <= 3, "{on_dead} frames on the masked channel");
        assert!(drain(&mut peers[0]).len() >= 37);
    }
}
