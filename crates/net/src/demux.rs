//! The multi-flow receive side: one socket sweep demultiplexing
//! flow-tagged frames into per-flow resequencers.
//!
//! [`FlowDemux`] is the receive-side twin of
//! [`StripeServer`](crate::server::StripeServer). It owns the N links
//! and a slab of per-flow replicas — each an independent
//! [`LogicalReceiver`] whose scheduler is a fresh clone of the shared
//! prototype, exactly as the sender clones its own prototype per flow.
//! Flow lookup on the hot path is one slab index: O(1) per frame.
//!
//! Replicas are created *lazily*, on the first frame naming a flow id
//! (data or marker — both carry the varint tag). A data frame states its
//! own number (every one a [`StripeServer`] sends, see [`frame`]): it is
//! routed as *one* arrival, a numbered view whose number travels with the
//! payload, and the flow's resequencer reads the number when the packet
//! reaches the head of its channel — what a marker frame directly ahead
//! of it would have said, for one ring entry instead of two. A number or
//! a marker that promises a round further ahead than an honest sender
//! can be (see [`LogicalReceiver::bound_marks`]) is refused and counted
//! `dropped_mark_ahead` — a marker as it arrives, a number at the head of
//! its channel — and the payload a refused number rode with is
//! delivered all the same. At creation the demux
//! applies the last announced membership mask one round ahead, the same
//! rule [`StripeServer::open_flow`](crate::server::StripeServer::open_flow)
//! uses, so both fresh simulations start in lockstep. Population is
//! bounded by [`max_flows`](FlowDemuxBuilder::max_flows), and so is the
//! slab: a flow id is an index into it and arrives off the wire, so ids
//! at or past [`flow_id_limit`](FlowDemux::flow_id_limit) are refused
//! before anything grows. Frames naming a flow the demux will not create
//! are counted `dropped_admission` and discarded.
//!
//! Global control (probes, membership, quantum announces, resets) arrives
//! as untagged version-1 frames and is answered once at the demux by one
//! [`ControlResponder`]; what it decides is applied to *every* replica —
//! so the failover plane stays flow-agnostic: an epoch change is one
//! announcement, not one per flow.
//!
//! Reception is by the *train*: a sweep hands each link windows into
//! free buffers of one shared [`TrainPool`], the link lands whatever is
//! ready (on a GRO socket, whole coalesced trains, several per
//! `recvmmsg`), and the demux cuts each train by its segment size and
//! decodes the frames where the kernel put them; a segment that fails
//! the frame-magic test is looked at again, as a [bundle](crate::bundle)
//! of frames, opened once. A data payload goes to
//! its flow's resequencer, and on to the application, as a [`PooledBuf`]
//! view into that same buffer — no byte is copied in user space, and
//! steady state allocates nothing. Dropping the view (which is all
//! [`recycle`](FlowDemux::recycle) does) is what frees the buffer.
//!
//! A payload parked behind a gap keeps its whole buffer shared, so the
//! pool has a byte budget ([`pool_buffers`](FlowDemuxBuilder::pool_buffers)
//! `× mtu`) and, before growing past it, the demux *re-homes*: it copies
//! the payloads parked in the resequencers into one compact buffer and
//! re-points their views, which frees every buffer only they were
//! pinning. Payloads the application holds are never touched.

use std::rc::Rc;
use stripe_core::control::Control;
use stripe_core::handshake::{ControlResponder, Effect};
use stripe_core::receiver::{Arrival, LogicalReceiver, ReceiverSnapshot, RxBatch};
use stripe_core::sched::CausalScheduler;
use stripe_core::types::ChannelId;

use stripe_link::{DatagramLink, Train};
use stripe_netsim::SimTime;

use crate::bundle;
use crate::frame::{self, Body, DecodeError};
use crate::pool::{PooledBuf, TrainPool};
use crate::server::{FlowId, DEFAULT_PARK_CAPACITY};

/// Demux-wide receive counters (per-flow resequencer counters live in
/// each flow's [`ReceiverSnapshot`], see [`FlowDemux::flow_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowDemuxSnapshot {
    /// Frames received across all channels and flows, each of a bundle's
    /// counted.
    pub frames: u64,
    /// Data frames routed into some flow's resequencer, each with the
    /// number it states.
    pub data_frames: u64,
    /// Control frames (markers included) decoded.
    pub control_frames: u64,
    /// Frames that failed to decode (bad magic, version, kind, varint,
    /// or control body).
    pub dropped_malformed: u64,
    /// Summed data frames whose CRC-8 trailer did not match.
    pub dropped_corrupt: u64,
    /// Marks — a data frame's number or a marker frame's — refused as
    /// further ahead than an honest sender can be: the sum of
    /// [`ReceiverSnapshot::dropped_mark_ahead`] over the flows
    /// instantiated now. The data such a frame carried is delivered,
    /// served as it stands.
    pub dropped_mark_ahead: u64,
    /// Marks adopted clamped, their DC out of what an honest sender
    /// states: the sum of [`ReceiverSnapshot::marks_clamped`] over the
    /// flows instantiated now.
    pub marks_clamped: u64,
    /// Frames naming a flow the demux refused to create (population at
    /// [`max_flows`](FlowDemuxBuilder::max_flows), or an id at or past
    /// [`flow_id_limit`](FlowDemux::flow_id_limit)).
    pub dropped_admission: u64,
    /// Flow replicas currently instantiated.
    pub flows_active: u64,
    /// Control replies transmitted on the reverse path.
    pub replies_sent: u64,
    /// Control replies that could not be transmitted (backpressure).
    pub replies_lost: u64,
    /// §5 flushes performed in response to sender reset requests: every
    /// replica reinitialized, remembered mask/quanta forgotten.
    pub resets: u64,
    /// Desync alerts escalated to the sender (armed detector only).
    pub desync_alerts_sent: u64,
    /// Parked payloads copied into a compact buffer so that the sparse
    /// ones they were pinning could be reused (see the module docs).
    pub rehomed: u64,
}

/// Builder for [`FlowDemux`] — same vocabulary as the other builders:
/// `scheduler` / `links` / capacity knobs.
#[derive(Debug)]
pub struct FlowDemuxBuilder<S: CausalScheduler, L: DatagramLink> {
    proto: Option<S>,
    links: Vec<L>,
    cap_per_channel: usize,
    pool_initial: usize,
    stall_timeout_ns: Option<u64>,
    max_flows: usize,
    incarnation: Option<u64>,
    desync: Option<stripe_core::reset::DesyncDetector>,
}

impl<S: CausalScheduler, L: DatagramLink> Default for FlowDemuxBuilder<S, L> {
    fn default() -> Self {
        Self {
            proto: None,
            links: Vec::new(),
            cap_per_channel: 1 << 14,
            pool_initial: 64,
            stall_timeout_ns: None,
            max_flows: 1 << 16,
            incarnation: None,
            desync: None,
        }
    }
}

impl<S: CausalScheduler, L: DatagramLink> FlowDemuxBuilder<S, L> {
    /// The *prototype* simulation scheduler: every flow replica gets an
    /// identically configured fresh clone — matching the sender's
    /// per-flow clones. Required.
    pub fn scheduler(mut self, proto: S) -> Self {
        self.proto = Some(proto);
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

    /// Per-channel resequencer buffer depth, per flow. Defaults to
    /// 16384 (rings grow lazily, so idle flows cost almost nothing).
    pub fn capacity_per_channel(mut self, cap: usize) -> Self {
        self.cap_per_channel = cap;
        self
    }

    /// Size the shared receive pool for `n` MTU-sized frames: `n × mtu`
    /// bytes are pre-allocated (as whole train buffers, and never fewer
    /// than one landing call needs), and that is also the budget past
    /// which the demux re-homes parked payloads before it lets the pool
    /// grow. Defaults to 64.
    pub fn pool_buffers(mut self, n: usize) -> Self {
        self.pool_initial = n;
        self
    }

    /// Arm each flow's head-of-line stall detector (see
    /// [`stripe_core::receiver::LogicalReceiver::set_stall_timeout`]).
    pub fn stall_timeout_ns(mut self, timeout_ns: u64) -> Self {
        self.stall_timeout_ns = Some(timeout_ns);
        self
    }

    /// Cap on instantiated flow replicas; frames naming flows past it
    /// are dropped (`dropped_admission`). Defaults to 65536. Also bounds
    /// the flow ids accepted off the wire, see
    /// [`flow_id_limit`](FlowDemux::flow_id_limit).
    pub fn max_flows(mut self, n: usize) -> Self {
        self.max_flows = n;
        self
    }

    /// Pin the incarnation nonce this endpoint reports in probe acks.
    /// Defaults to a fresh [`fresh_incarnation`] value, so a sender
    /// comparing acks across a process restart sees the change and
    /// drives the §5 reset.
    ///
    /// [`fresh_incarnation`]: stripe_core::reset::fresh_incarnation
    pub fn incarnation(mut self, incarnation: u64) -> Self {
        self.incarnation = Some(incarnation);
        self
    }

    /// Arm the self-stabilization monitor: each sweep samples the total
    /// buffered-arrival backlog into `detector`, and a trip (sustained
    /// backlog growth — the §5 "silent state corruption" symptom on an
    /// opaque-payload path) floods a
    /// [`Control::DesyncAlert`] to the sender on every channel.
    pub fn desync_detector(mut self, detector: stripe_core::reset::DesyncDetector) -> Self {
        self.desync = Some(detector);
        self
    }

    /// Assemble the demux with no flows instantiated. Pool buffers hold
    /// the widest link's landing window.
    ///
    /// # Panics
    /// Panics if no scheduler was supplied or the link count differs
    /// from the scheduler's channel count.
    pub fn build(self) -> FlowDemux<S, L> {
        let proto = self.proto.expect("FlowDemuxBuilder needs a scheduler");
        assert_eq!(
            self.links.len(),
            proto.channels(),
            "one link per scheduler channel"
        );
        let widest = |f: fn(&L) -> usize| self.links.iter().map(f).max().expect("non-empty links");
        let (mtu, window) = (widest(L::mtu), widest(L::recv_window));
        let channels = self.links.len();
        FlowDemux {
            proto,
            links: self.links,
            // Room for one landing call and the re-homing target, at
            // the least.
            pool: TrainPool::new(window, self.pool_initial * mtu, LAND + 1),
            mtu,
            since_rehome: 0,
            rehome_wait: 0,
            cap_per_channel: self.cap_per_channel,
            stall_timeout_ns: self.stall_timeout_ns,
            max_flows: self.max_flows,
            id_limit: self.max_flows.saturating_add(DEFAULT_PARK_CAPACITY),
            flows: Vec::new(),
            flow_pool: Vec::new(),
            last_mask: None,
            last_quanta: None,
            responder: ControlResponder::new(
                self.incarnation
                    .unwrap_or_else(stripe_core::reset::fresh_incarnation),
            ),
            desync: self.desync,
            desync_tick: 0,
            ctl_buf: Vec::new(),
            stats: FlowDemuxSnapshot::default(),
            malformed_by_channel: vec![0; channels],
            corrupt_by_channel: vec![0; channels],
        }
    }
}

/// Trains asked for per landing call on a link that lands whole trains.
const LAND: usize = 4;
/// Most windows offered to a link in one landing call.
const LAND_MAX: usize = 32;
/// Steps of a re-homing scan (a flow or a parked payload visited) that
/// one landing call is taken to pay for.
const SCAN_PER_LANDING: usize = 1024;

/// Per-flow replica: the resequencer, one slab slot. A slot is a whole
/// number of cache lines (seven for SRR), so every replica's fields fall
/// on the same lines and the per-packet memory walk does not depend on
/// the flow id.
#[derive(Debug)]
#[repr(align(64))]
struct RxFlow<S: CausalScheduler> {
    rx: LogicalReceiver<S, PooledBuf>,
}

/// Flow-aware physical reception over real sockets. See the module docs.
#[derive(Debug)]
pub struct FlowDemux<S: CausalScheduler, L: DatagramLink> {
    /// Prototype scheduler, cloned per flow replica.
    proto: S,
    links: Vec<L>,
    pool: TrainPool,
    /// Landing calls that brought something in since the last re-homing,
    /// and how many of them the next one waits for: the last scan's
    /// length over [`SCAN_PER_LANDING`], so that walking every flow is
    /// paid for by the traffic in between however many flows there are.
    since_rehome: usize,
    rehome_wait: usize,
    cap_per_channel: usize,
    /// The widest link's MTU: no payload is longer, which is what bounds
    /// how far ahead a replica lets a mark be.
    mtu: usize,
    stall_timeout_ns: Option<u64>,
    max_flows: usize,
    /// See [`flow_id_limit`](Self::flow_id_limit).
    id_limit: usize,
    /// The flow slab: O(1) lookup by flow id, `None` in untouched slots.
    flows: Vec<Option<RxFlow<S>>>,
    /// Closed flows' replicas, reset and reused by the next
    /// instantiation — the receive half of the sender's flow pool, so
    /// open/close churn cycles replicas without touching the allocator.
    flow_pool: Vec<RxFlow<S>>,
    /// Last applied membership mask, replayed onto replicas created
    /// after an epoch change (mirrors the sender's `open_flow` rule).
    last_mask: Option<Vec<bool>>,
    /// Last applied quanta, replayed onto replicas created after a live
    /// retune (mirrors the sender's `open_flow` rule).
    last_quanta: Option<Vec<i64>>,
    /// The control plane's responder half: one epoch per handshake for
    /// all flows, and the incarnation reported in every probe ack (a
    /// restart produces a fresh one).
    responder: ControlResponder,
    /// The armed self-stabilization monitor, if any.
    desync: Option<stripe_core::reset::DesyncDetector>,
    /// Monotone sweep counter feeding the detector's window clock.
    desync_tick: u64,
    ctl_buf: Vec<u8>,
    stats: FlowDemuxSnapshot,
    /// Per-channel undecodable-frame counts.
    malformed_by_channel: Vec<u64>,
    /// Per-channel checksum-discard counts.
    corrupt_by_channel: Vec<u64>,
}

impl<S: CausalScheduler + Clone, L: DatagramLink> FlowDemux<S, L> {
    /// Instantiate flow `id`'s replica now if absent (it is normally
    /// created lazily by the first tagged frame). Returns `false` when
    /// the population cap or the id bound
    /// ([`flow_id_limit`](Self::flow_id_limit)) refuses it.
    pub fn touch_flow(&mut self, id: FlowId) -> bool {
        self.ensure_flow(id).is_some()
    }

    /// Flow `id`'s resequencer, instantiated now if absent and allowed.
    fn ensure_flow(&mut self, id: FlowId) -> Option<&mut LogicalReceiver<S, PooledBuf>> {
        let idx = id as usize;
        if !matches!(self.flows.get(idx), Some(Some(_))) && !self.instantiate(idx) {
            return None;
        }
        self.flows[idx].as_mut().map(|f| &mut f.rx)
    }

    /// Put a replica in the empty (or not yet existing) slab slot `idx`,
    /// unless the id or the population is out of bounds.
    fn instantiate(&mut self, idx: usize) -> bool {
        // The id came off the wire and the slab is indexed by it: check
        // it before growing anything.
        if idx >= self.id_limit || self.stats.flows_active as usize >= self.max_flows {
            return false;
        }
        if self.flows.len() <= idx {
            self.flows.resize_with(idx + 1, || None);
        }
        // Reuse a closed flow's replica when one is pooled (it was reset
        // at close, so it is indistinguishable from a fresh build).
        let mut rx = match self.flow_pool.pop() {
            Some(f) => f.rx,
            None => {
                let mut rx = LogicalReceiver::new(self.proto.clone(), self.cap_per_channel);
                rx.bound_marks(self.mtu);
                if let Some(t) = self.stall_timeout_ns {
                    rx.set_stall_timeout(t);
                }
                rx
            }
        };
        if let Some(mask) = &self.last_mask {
            // Same rule as the sender's open_flow: a flow born after an
            // epoch change schedules the current mask one round ahead of
            // its fresh scheduler, keeping both simulations in lockstep.
            let eff = rx.scheduler().round() + 1;
            rx.apply_membership(eff, mask);
        }
        if let Some(quanta) = &self.last_quanta {
            // Same replay rule for quanta after a live retune.
            let eff = rx.scheduler().round() + 1;
            rx.schedule_quanta(eff, quanta);
        }
        self.flows[idx] = Some(RxFlow { rx });
        self.stats.flows_active += 1;
        true
    }

    /// One readiness pass at `now`: land every channel's ready trains
    /// in free pool buffers (the `recvmmsg` seam) until the link reports
    /// itself drained, route each frame to its flow in place, answer
    /// global control on the reverse path. Returns the number of frames
    /// received.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let _ = now; // reserved for receive-timestamp plumbing
        let before = self.stats.frames;
        let mut trains = [Train::default(); LAND_MAX];
        let mut homes = [(0, 0); LAND_MAX];
        for c in 0..self.links.len() {
            let window = self.links[c].recv_window();
            assert!(
                window <= self.pool.buf_len(),
                "channel {c} lands wider trains than the pool was built for"
            );
            // Whole trains land one to a buffer, a few per call; frames
            // of a per-frame link share a buffer, a buffer per call.
            let per_buf = self.pool.buf_len() / window;
            let want = per_buf.clamp(LAND, LAND_MAX);
            loop {
                self.make_room(want.div_ceil(per_buf));
                let (offered, got) = {
                    let mut windows: [&mut [u8]; LAND_MAX] = std::array::from_fn(|_| &mut [][..]);
                    let offered = self.pool.claim(window, &mut windows[..want], &mut homes);
                    let got = self.links[c].recv_trains(&mut windows[..offered], &mut trains);
                    (offered, got)
                };
                for (train, &(slot, base)) in trains[..got].iter().zip(&homes) {
                    let buf = Rc::clone(self.pool.handle(slot as usize));
                    for (at, n) in train.frames() {
                        self.stats.frames += 1;
                        self.route_frame(c, &buf, slot as usize, base as usize + at, n);
                    }
                }
                self.since_rehome += (got > 0) as usize;
                if got < offered {
                    break; // drained
                }
            }
        }
        self.sample_desync();
        (self.stats.frames - before) as usize
    }

    /// Have `want` buffers free for a landing call and one more for
    /// re-homing to copy into — by growing the pool while its budget
    /// allows, then by re-homing; only a pool with nothing free at all
    /// grows past the budget.
    fn make_room(&mut self, want: usize) {
        while self.pool.free_upto(want + 1) <= want {
            if self.pool.grow_within_budget() {
                continue;
            }
            if self.since_rehome >= self.rehome_wait {
                self.rehome();
            }
            if self.pool.free_upto(1) == 0 {
                self.pool.grow();
            }
            return;
        }
    }

    /// Copy the payloads parked in the resequencers into one free buffer
    /// and re-point their views at the copies, so that buffers only they
    /// were keeping shared become free. Two passes over the same
    /// payloads in the same order, because the target can be written only
    /// while no view points into it: first every copy, then every swap.
    /// Payloads already packed by an earlier re-homing stay put; what
    /// does not fit stays where it is.
    fn rehome(&mut self) {
        self.since_rehome = 0;
        let Some((target, bytes, packed)) = self.pool.packing_target() else {
            return;
        };
        let (mut fill, mut moved, mut full, mut scanned) = (0, 0u64, false, 0);
        for f in self.flows.iter_mut().flatten() {
            scanned += 1;
            f.rx.for_each_buffered_mut(|pb| {
                scanned += 1;
                if full || packed[pb.slot()] {
                    return;
                }
                let payload = pb.as_slice();
                let Some(room) = bytes.get_mut(fill..fill + payload.len()) else {
                    full = true;
                    return;
                };
                room.copy_from_slice(payload);
                fill += payload.len();
                moved += 1;
            });
        }
        let home = Rc::clone(self.pool.handle(target));
        let (mut at, mut left) = (0, moved);
        for f in self.flows.iter_mut().flatten() {
            f.rx.for_each_buffered_mut(|pb| {
                if left == 0 || self.pool.packed(pb.slot()) {
                    return;
                }
                *pb = pb.moved_to(&home, target, at);
                at += pb.len();
                left -= 1;
            });
        }
        self.pool.set_packed(target, fill);
        self.rehome_wait = scanned / SCAN_PER_LANDING;
        self.stats.rehomed += moved;
    }

    /// Feed the armed desync detector one sweep's worth of evidence: the
    /// total buffered-arrival backlog across every replica. Healthy
    /// backlogs drain to (near) empty every marker interval; a corrupted
    /// simulation consumes channels at the wrong rates and its backlog
    /// floor only climbs. A trip floods a [`Control::DesyncAlert`] on
    /// every channel — the sender deduplicates and drives the §5 reset.
    fn sample_desync(&mut self) {
        let Some(det) = self.desync.as_mut() else {
            return;
        };
        let backlog: u64 = self
            .flows
            .iter()
            .flatten()
            .map(|f| f.rx.buffered_total() as u64)
            .sum();
        self.desync_tick += 1;
        if det.observe(self.desync_tick, backlog) {
            let alert = Control::DesyncAlert {
                incarnation: self.responder.incarnation(),
            };
            for c in 0..self.links.len() {
                self.reply(c, &alert);
            }
            self.stats.desync_alerts_sent += 1;
        }
    }

    /// Route the datagram segment at `buf[at..at + n]` (see
    /// [`route`](Self::route)), counting it against channel `c` if it
    /// does not decode. Only a segment that is no frame is looked at
    /// again, as a bundle: then its frames are routed, each counted.
    fn route_frame(&mut self, c: ChannelId, buf: &Rc<[u8]>, slot: usize, at: usize, n: usize) {
        let routed = match self.route(c, buf, slot, at, n) {
            Err(DecodeError::Malformed) => self.route_bundle(c, buf, slot, at, n),
            routed => routed,
        };
        self.count(c, routed);
    }

    /// Route the frames of the bundle segment at `buf[at..at + n]`, one
    /// level: a frame in it is a frame, whatever its first byte.
    /// `Malformed` if it is no bundle.
    #[cold]
    fn route_bundle(
        &mut self,
        c: ChannelId,
        buf: &Rc<[u8]>,
        slot: usize,
        at: usize,
        n: usize,
    ) -> Result<(), DecodeError> {
        let seg = &buf[at..at + n];
        let frames = bundle::Frames::open(seg)?;
        self.stats.frames += frames.len() as u64 - 1;
        for (off, len) in frames.iter(seg) {
            let routed = self.route(c, buf, slot, at + off, len);
            self.count(c, routed);
        }
        Ok(())
    }

    /// Count a frame that did not decode against channel `c`.
    fn count(&mut self, c: ChannelId, routed: Result<(), DecodeError>) {
        match routed {
            Ok(()) => {}
            Err(DecodeError::Corrupt) => {
                self.stats.dropped_corrupt += 1;
                self.corrupt_by_channel[c] += 1;
            }
            Err(DecodeError::Malformed) => {
                self.stats.dropped_malformed += 1;
                self.malformed_by_channel[c] += 1;
            }
        }
    }

    /// Hand the frame at `buf[at..at + n]` to its flow's resequencer
    /// (data and markers) or to the demux-level responders (global
    /// control). `buf` is pool buffer `slot`; a data payload leaves as a
    /// view into it. Only what the frame turns out to carry is decoded:
    /// the parser names the flow and where the body sits, and a data frame
    /// needs nothing else.
    fn route(
        &mut self,
        c: ChannelId,
        buf: &Rc<[u8]>,
        slot: usize,
        at: usize,
        n: usize,
    ) -> Result<(), DecodeError> {
        let bytes = &buf[at..at + n];
        let p = frame::parse(bytes)?;
        match p.body {
            Body::Data => match self.ensure_flow(p.flow) {
                Some(rx) => {
                    // The view keeps the number as the frame states it:
                    // the resequencer reads it when the packet reaches
                    // the head of its channel. On overflow the
                    // resequencer drops the arrival (counted in that
                    // flow's snapshot): no view is made.
                    let (start, number) = (at + p.offset as usize, p.stated(bytes));
                    rx.push_with(c, || {
                        Arrival::Data(TrainPool::view_of(buf, slot, start, p.len, number))
                    });
                    self.stats.data_frames += 1;
                }
                None => self.stats.dropped_admission += 1,
            },
            Body::Marker => {
                let mk = p.marker(bytes)?;
                self.stats.control_frames += 1;
                match self.ensure_flow(p.flow) {
                    // Refused if out of reach, counted in the flow's
                    // snapshot.
                    Some(rx) => _ = rx.push(c, Arrival::Marker(mk)),
                    None => self.stats.dropped_admission += 1,
                }
            }
            Body::Control => {
                let ctl = p.control(bytes)?;
                self.stats.control_frames += 1;
                self.on_global_control(c, &ctl);
            }
        }
        Ok(())
    }

    /// Handle an untagged control frame once, for every flow: the
    /// responder decides and builds the reply; its verdict is applied to
    /// all replicas and remembered for future ones.
    fn on_global_control(&mut self, c: ChannelId, ctl: &Control) {
        let (effect, reply) = self.responder.on_control(ctl, self.links.len());
        match effect {
            Effect::None => {}
            Effect::Mask { round, live } => {
                for f in self.flows.iter_mut().flatten() {
                    f.rx.apply_membership(round, &live);
                }
                self.last_mask = Some(live);
            }
            Effect::Quanta { round, quanta } => {
                for f in self.flows.iter_mut().flatten() {
                    f.rx.schedule_quanta(round, quanta);
                }
                self.last_quanta = Some(quanta.to_vec());
            }
            Effect::Flush => {
                // §5 flush: every replica restarts its simulation — the
                // sender is (or believes we are) starting over, so
                // remembered masks and quanta are stale.
                for f in self.flows.iter_mut().flatten() {
                    f.rx.reset();
                }
                self.last_mask = None;
                self.last_quanta = None;
                if let Some(det) = self.desync.as_mut() {
                    det.acknowledge_reset();
                }
                self.stats.resets += 1;
            }
        }
        if let Some(reply) = reply {
            self.reply(c, &reply);
        }
    }

    fn reply(&mut self, c: ChannelId, ctl: &Control) {
        frame::encode_control_into(ctl, &mut self.ctl_buf);
        match self.links[c].send_frame(&self.ctl_buf) {
            Ok(()) => self.stats.replies_sent += 1,
            Err(_) => self.stats.replies_lost += 1,
        }
    }
}

impl<S: CausalScheduler, L: DatagramLink> FlowDemux<S, L> {
    /// Start building: `FlowDemux::builder().scheduler(…).links(…)
    /// .build()`.
    pub fn builder() -> FlowDemuxBuilder<S, L> {
        FlowDemuxBuilder::default()
    }

    /// Tear down flow `id`'s replica, freeing its resequencer state.
    /// Call when the application knows the flow is finished (the sender
    /// closed it): the slot becomes reusable, and a later frame naming
    /// the same id instantiates a *fresh* replica instead of continuing
    /// the old simulation — which is what keeps a recycled flow id from
    /// delivering against a stale scheduler state. Undelivered packets
    /// still buffered for the flow are dropped with it. Returns whether
    /// a replica existed.
    pub fn close_flow(&mut self, id: FlowId) -> bool {
        match self.flows.get_mut(id as usize).and_then(|f| f.take()) {
            Some(mut f) => {
                f.rx.reset();
                self.flow_pool.push(f);
                self.stats.flows_active -= 1;
                true
            }
            None => false,
        }
    }

    /// Drain flow `id`'s deliverable packets into `out` (cleared first).
    /// Returns the number delivered; 0 for uninstantiated flows.
    pub fn poll_flow_into(&mut self, id: FlowId, out: &mut RxBatch<PooledBuf>) -> usize {
        match self.flows.get_mut(id as usize).and_then(|f| f.as_mut()) {
            Some(f) => f.rx.poll_into(out),
            None => {
                out.clear();
                0
            }
        }
    }

    /// Deliver flow `id`'s next in-order packet, if any.
    pub fn poll_flow(&mut self, id: FlowId) -> Option<PooledBuf> {
        self.flows
            .get_mut(id as usize)
            .and_then(|f| f.as_mut())?
            .rx
            .poll()
    }

    /// Flow `id`'s head-of-line stall probe (see
    /// [`stripe_core::receiver::LogicalReceiver::stalled`]).
    pub fn flow_stalled(&mut self, id: FlowId, now: SimTime) -> Option<ChannelId> {
        self.flows
            .get_mut(id as usize)
            .and_then(|f| f.as_mut())?
            .rx
            .stalled(now.as_nanos())
    }

    /// Give a consumed packet's storage back: its buffer is reused once
    /// no view points into it, so this is `drop(pkt)` and nothing more.
    pub fn recycle(&mut self, pkt: PooledBuf) {
        drop(pkt);
    }

    /// Pre-size flow `id`'s resequencer rings (see
    /// [`stripe_core::receiver::LogicalReceiver::reserve`]). No-op for
    /// uninstantiated flows.
    pub fn reserve_flow(&mut self, id: FlowId, per_channel: usize) {
        if let Some(f) = self.flows.get_mut(id as usize).and_then(|f| f.as_mut()) {
            f.rx.reserve(per_channel);
        }
    }

    /// Flow `id`'s resequencer counters, if instantiated.
    pub fn flow_stats(&self, id: FlowId) -> Option<ReceiverSnapshot> {
        self.flows
            .get(id as usize)
            .and_then(|f| f.as_ref())
            .map(|f| f.rx.stats())
    }

    /// Flow `id`'s resequencer, if instantiated.
    pub fn flow_receiver(&self, id: FlowId) -> Option<&LogicalReceiver<S, PooledBuf>> {
        self.flows
            .get(id as usize)
            .and_then(|f| f.as_ref())
            .map(|f| &f.rx)
    }

    /// One past the highest instantiated flow id (slab length) — the
    /// iteration bound for per-flow polling. Never more than
    /// [`flow_id_limit`](Self::flow_id_limit).
    pub fn flow_slots(&self) -> usize {
        self.flows.len()
    }

    /// Flow ids at or past this are refused (`dropped_admission`)
    /// without touching the slab: [`max_flows`](FlowDemuxBuilder::max_flows)
    /// plus the sender's default parking lot, which is every id a
    /// [`StripeServer`](crate::server::StripeServer) built with the same
    /// `max_flows` can put on the wire (its ids stay below `max_flows +
    /// park_capacity`, see
    /// [`max_payload`](crate::server::StripeServer::max_payload)). A
    /// sender with a bigger parking lot needs a demux whose `max_flows`
    /// covers it.
    pub fn flow_id_limit(&self) -> usize {
        self.id_limit
    }

    /// Demux-wide counters.
    pub fn net_stats(&self) -> FlowDemuxSnapshot {
        let stats = self.flows.iter().flatten().map(|f| f.rx.stats());
        let (clamped, ahead) = stats.fold((0, 0), |(c, a), s| {
            (c + s.marks_clamped, a + s.dropped_mark_ahead)
        });
        FlowDemuxSnapshot {
            marks_clamped: clamped,
            dropped_mark_ahead: ahead,
            ..self.stats
        }
    }

    /// Per-channel undecodable-frame counts (indexed by channel id).
    pub fn malformed_by_channel(&self) -> &[u64] {
        &self.malformed_by_channel
    }

    /// Per-channel checksum-discard counts (indexed by channel id).
    pub fn corrupt_by_channel(&self) -> &[u64] {
        &self.corrupt_by_channel
    }

    /// The incarnation nonce this demux reports in probe acks.
    pub fn incarnation(&self) -> u64 {
        self.responder.incarnation()
    }

    /// The member links.
    pub fn links(&self) -> &[L] {
        &self.links
    }

    /// Mutable access to the member links.
    pub fn links_mut(&mut self) -> &mut [L] {
        &mut self.links
    }

    /// Take the links back out, consuming the demux — an in-process
    /// endpoint restart keeps its sockets (the kernel side of the
    /// channels survives) while every replica, responder epoch, and the
    /// incarnation die with the old instance.
    pub fn into_links(self) -> Vec<L> {
        self.links
    }

    /// The shared receive buffer pool (for high-water-mark inspection).
    pub fn pool(&self) -> &TrainPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::server::StripeServer;
    use stripe_core::sched::Srr;
    use stripe_core::sender::MarkerConfig;
    use stripe_core::Marker;
    use stripe_link::{datagram_pair, TestDatagramLink};

    fn linked(
        flows_cap: usize,
    ) -> (
        StripeServer<Srr, TestDatagramLink>,
        FlowDemux<Srr, TestDatagramLink>,
    ) {
        let (a0, b0) = datagram_pair(2048, 1 << 12);
        let (a1, b1) = datagram_pair(2048, 1 << 12);
        let srv = StripeServer::builder()
            .scheduler(Srr::equal(2, 1500))
            .markers(MarkerConfig::every_rounds(4))
            .links(vec![a0, a1])
            .build();
        let demux = FlowDemux::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![b0, b1])
            .max_flows(flows_cap)
            .incarnation(7)
            .build();
        (srv, demux)
    }

    /// Interleaved flows arrive FIFO *per flow*, payloads intact and
    /// never cross-delivered.
    #[test]
    fn per_flow_fifo_across_interleaving() {
        let (mut srv, mut demux) = linked(16);
        let flows: Vec<_> = (0..3).map(|_| srv.open_flow().unwrap()).collect();
        let mut events = Vec::new();
        for round in 0..50u64 {
            for (fi, h) in flows.iter().enumerate() {
                let mut payload = vec![fi as u8; 64 + (round as usize % 7) * 100];
                payload[1..9].copy_from_slice(&round.to_be_bytes());
                srv.enqueue(*h, &payload).unwrap();
            }
            srv.pump_into(SimTime::from_millis(round), usize::MAX, &mut events);
            demux.sweep(SimTime::from_millis(round));
        }
        let mut batch = RxBatch::new();
        for (fi, h) in flows.iter().enumerate() {
            let mut seen = Vec::new();
            demux.poll_flow_into(h.id(), &mut batch);
            for pb in batch.drain() {
                let bytes = pb.as_slice();
                assert_eq!(bytes[0] as usize, fi, "cross-flow delivery");
                seen.push(u64::from_be_bytes(bytes[1..9].try_into().unwrap()));
                demux.recycle(pb);
            }
            assert_eq!(seen, (0..50).collect::<Vec<_>>(), "flow {fi} not FIFO");
        }
        assert_eq!(demux.net_stats().flows_active, 3);
        assert_eq!(demux.net_stats().dropped_malformed, 0);
    }

    /// A frame that states its own number is routed as one arrival, its
    /// number with it: every frame a server sends is one, no marker frame
    /// goes with them, and in sync a number changes nothing in the
    /// resequencer.
    #[test]
    fn a_numbered_frame_is_one_arrival_and_in_sync_changes_nothing() {
        let (mut srv, mut demux) = linked(4);
        let f0 = srv.open_flow().unwrap();
        let mut events = Vec::new();
        for round in 0..200u64 {
            let mut payload = vec![0u8; 400];
            payload[..8].copy_from_slice(&round.to_be_bytes());
            srv.enqueue(f0, &payload).unwrap();
            if round % 50 == 49 {
                srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
                // Ring entries and marker frames so far.
                let tally = |d: &FlowDemux<_, _>| {
                    let parked = d.flow_receiver(f0.id()).map_or(0, |rx| rx.buffered_total());
                    (parked as u64, d.net_stats().control_frames)
                };
                let before = tally(&demux);
                demux.sweep(SimTime::ZERO);
                let after = tally(&demux);
                // One ring entry a frame, number or no number.
                assert_eq!(after.0 - before.0, 50 + (after.1 - before.1));
                let mut batch = RxBatch::new();
                demux.poll_flow_into(f0.id(), &mut batch);
                let seen: Vec<u64> = batch
                    .drain()
                    .map(|pb| u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap()))
                    .collect();
                assert_eq!(seen, (round - 49..=round).collect::<Vec<_>>());
            }
        }
        let sent = srv.flow_stats(f0).unwrap();
        let s = demux.net_stats();
        assert_eq!(s.data_frames, 200);
        assert_eq!((s.control_frames, sent.markers_sent), (0, 0));
        let r = demux.flow_stats(f0.id()).unwrap();
        assert_eq!(r.marks_applied, 0, "a number was adopted in sync");
        assert_eq!((r.skips, r.dropped_mark_ahead), (0, 0));
    }

    /// A mark further ahead than an honest sender can be is refused where
    /// it enters — a data frame's number or a marker frame's — counted
    /// once per flow and once at the demux, and the data is delivered.
    #[test]
    fn a_mark_out_of_reach_is_refused_and_its_data_delivered() {
        use stripe_core::sched::ChannelMark;
        const CAP: usize = 64;
        let (a0, b0) = datagram_pair(2048, 1 << 12);
        let (a1, b1) = datagram_pair(2048, 1 << 12);
        let mut tx = [a0, a1];
        let mut demux = FlowDemux::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![b0, b1])
            .capacity_per_channel(CAP)
            .build();
        // CAP + 2 packets of up to 2048 bytes, two rounds apiece.
        let reach = (CAP as u64 + 2) * 2;
        // The farthest a number's 16 bits read ahead, and a marker's
        // round at the end of time.
        let far = ChannelMark {
            round: 1 + 0x7FFF,
            dc: 1500,
        };
        let end = ChannelMark {
            round: u64::MAX,
            dc: 1500,
        };
        let mut wire = Vec::new();
        for (c, link) in tx.iter_mut().enumerate() {
            // A quantum's worth: the scan moves on after each.
            frame::encode_data_flow_into(0, &[c as u8; 1500], &mut wire);
            assert!(frame::write_number(&mut wire, far));
            link.send_frame(&wire).unwrap();
            let mk = Marker::sync(c, end);
            frame::encode_control_flow_into(0, &Control::Marker(mk), &mut wire);
            link.send_frame(&wire).unwrap();
        }
        assert_eq!(demux.sweep(SimTime::ZERO), 4);
        // The markers are refused as they arrive, the numbers at the head.
        assert_eq!(demux.net_stats().dropped_mark_ahead, 2);
        let got: Vec<u8> = std::iter::from_fn(|| demux.poll_flow(0))
            .map(|pb| pb.as_slice()[0])
            .collect();
        assert_eq!(got, [0, 1]);
        let s = demux.net_stats();
        assert_eq!((s.dropped_mark_ahead, s.data_frames), (4, 2));
        let r = demux.flow_stats(0).unwrap();
        assert_eq!((r.dropped_mark_ahead, r.skips, r.marks_applied), (4, 0, 0));
        // The furthest an honest mark can be is let in, either way.
        let near = ChannelMark {
            round: 1 + reach,
            dc: 1500,
        };
        frame::encode_data_flow_into(0, &[9; 10], &mut wire);
        assert!(frame::write_number(&mut wire, near));
        tx[0].send_frame(&wire).unwrap();
        frame::encode_control_flow_into(0, &Control::Marker(Marker::sync(0, near)), &mut wire);
        tx[0].send_frame(&wire).unwrap();
        demux.sweep(SimTime::ZERO);
        demux.poll_flow(0);
        let s = demux.net_stats();
        assert_eq!((s.dropped_mark_ahead, s.data_frames), (4, 3));
    }

    /// A payload parked behind a gap keeps its number through re-homing:
    /// the number moves with it, and what the resequencer reads when the
    /// gap fills is what the sender wrote.
    #[test]
    fn a_rehomed_payload_keeps_its_number() {
        const MTU: usize = 2048;
        const ROUNDS: u64 = 600;
        let (a0, b0) = datagram_pair(MTU, 1 << 12);
        let (a1, b1) = datagram_pair(MTU, 1 << 12);
        let mut srv = StripeServer::builder()
            .scheduler(Srr::equal(2, 1500))
            .markers(MarkerConfig::every_rounds(4))
            .links(vec![a0, a1])
            .build();
        let mut demux = FlowDemux::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![b0, b1])
            .pool_buffers(8 * (1 << 16) / MTU)
            .build();
        let budget = demux.pool().allocated();
        let payload = |flow: u8, round: u64| {
            let mut p = vec![flow; 300];
            p[1..9].copy_from_slice(&round.to_be_bytes());
            p
        };
        let gapped = srv.open_flow().unwrap();
        let busy = srv.open_flow().unwrap();
        let mut events = Vec::new();
        let mut batch = RxBatch::new();
        // Channel 0 delays everything of the first flow; the second
        // flow's traffic keeps the landing buffers turning over.
        let mut late = Vec::new();
        let mut buf = [0u8; MTU];
        for round in 0..ROUNDS {
            srv.enqueue(gapped, &payload(1, round)).unwrap();
            srv.pump_into(SimTime::from_millis(round), usize::MAX, &mut events);
            while let Some(n) = demux.links_mut()[0].recv_frame(&mut buf) {
                late.push(buf[..n].to_vec());
            }
            for _ in 0..8 {
                srv.enqueue(busy, &payload(2, round)).unwrap();
            }
            srv.pump_into(SimTime::from_millis(round), usize::MAX, &mut events);
            demux.sweep(SimTime::from_millis(round));
            assert_eq!(demux.poll_flow_into(gapped.id(), &mut batch), 0, "gapped");
            demux.poll_flow_into(busy.id(), &mut batch);
            batch.clear();
            assert!(demux.pool().allocated() <= budget, "round {round}");
        }
        assert!(demux.net_stats().rehomed > 0);
        for f in &late {
            srv.links_mut()[0].send_frame(f).unwrap();
        }
        demux.sweep(SimTime::from_millis(ROUNDS));
        assert_eq!(demux.poll_flow_into(gapped.id(), &mut batch) as u64, ROUNDS);
        for (round, pb) in batch.drain().enumerate() {
            assert_eq!(pb.as_slice(), &payload(1, round as u64)[..]);
        }
        // Every number read back in sync: none adopted, none skipped on.
        let r = demux.flow_stats(gapped.id()).unwrap();
        assert_eq!((r.skips, r.dropped_mark_ahead, r.marks_applied), (0, 0, 0));
    }

    /// Flows past the demux population cap are counted, dropped, and do
    /// not disturb admitted flows.
    #[test]
    fn admission_cap_bounds_replicas() {
        let (mut srv, mut demux) = linked(2);
        let flows: Vec<_> = (0..4).map(|_| srv.open_flow().unwrap()).collect();
        let mut events = Vec::new();
        for h in &flows {
            srv.enqueue(*h, &[9; 100]).unwrap();
        }
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO);
        let s = demux.net_stats();
        assert_eq!(s.flows_active, 2);
        assert_eq!(s.dropped_admission, 2);
        assert_eq!(s.data_frames, 2);
        let mut batch = RxBatch::new();
        assert_eq!(demux.poll_flow_into(flows[0].id(), &mut batch), 1);
    }

    /// A flow id is a slab index that arrives off the wire: a frame
    /// naming an id at or past the limit is refused and counted before
    /// the slab grows, whatever it carries, and the highest id below the
    /// limit still works.
    #[test]
    fn wire_flow_id_cannot_grow_the_slab() {
        use stripe_core::sched::ChannelMark;
        let (mut srv, mut demux) = linked(8);
        let limit = demux.flow_id_limit();
        assert_eq!(limit, 8 + DEFAULT_PARK_CAPACITY);
        let mut wire = Vec::new();
        for id in [limit as u32, 2_000_000, u32::MAX] {
            frame::encode_data_flow_into(id, &[1, 2, 3], &mut wire);
            srv.links_mut()[0].send_frame(&wire).unwrap();
        }
        let mk = Marker::sync(1, ChannelMark { round: 3, dc: 9 });
        frame::encode_control_flow_into(u32::MAX, &Control::Marker(mk), &mut wire);
        srv.links_mut()[1].send_frame(&wire).unwrap();
        assert_eq!(demux.sweep(SimTime::ZERO), 4);
        assert!(!demux.touch_flow(u32::MAX));
        let s = demux.net_stats();
        assert_eq!(demux.flow_slots(), 0, "the slab grew for a refused id");
        assert_eq!(
            (s.dropped_admission, s.data_frames, s.control_frames),
            (4, 0, 1)
        );
        assert_eq!((s.flows_active, s.dropped_malformed), (0, 0));

        frame::encode_data_flow_into(limit as u32 - 1, &[7; 5], &mut wire);
        srv.links_mut()[0].send_frame(&wire).unwrap();
        demux.sweep(SimTime::ZERO);
        assert_eq!(demux.flow_slots(), limit);
        assert_eq!(demux.net_stats().data_frames, 1);
        assert_eq!(
            demux.poll_flow(limit as u32 - 1).map(|pb| pb.len()),
            Some(5)
        );
    }

    /// A quantum announcement reaching the demux is applied to every
    /// replica, remembered for late-created ones, and acked exactly once
    /// per epoch on the reverse path.
    #[test]
    fn quantum_announce_fans_out_and_acks_once_per_epoch() {
        use stripe_transport::ControlPath;
        let (mut srv, mut demux) = linked(8);
        let f0 = srv.open_flow().unwrap();
        srv.enqueue(f0, &[1; 100]).unwrap();
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO); // replica 0 exists now
        let announce = Control::QuantumAnnounce {
            epoch: 1,
            effective_round: 50,
            quanta: vec![4000, 1000],
        };
        ControlPath::transmit_control(&mut srv, SimTime::ZERO, 0, &announce);
        // The same flood on the other channel: ack only, no re-apply.
        ControlPath::transmit_control(&mut srv, SimTime::ZERO, 1, &announce);
        demux.sweep(SimTime::ZERO);
        assert_eq!(demux.net_stats().replies_sent, 2);
        let mut buf = [0u8; 2048];
        for c in 0..2 {
            let n = srv.links_mut()[c].recv_frame(&mut buf).expect("ack");
            assert_eq!(
                frame::decode(&buf[..n]),
                Some(Frame::Control(Control::QuantumAck { epoch: 1 }))
            );
        }
        // A replica created after the retune inherits the quanta: its
        // simulation must match a sender flow that replayed the same
        // schedule, so frames keep resequencing FIFO. Exercise it by
        // running a fresh flow through the tuned demux.
        ControlPath::schedule_quanta(&mut srv, 50, &[4000, 1000]);
        let f1 = srv.open_flow().unwrap();
        for round in 0..30u64 {
            let mut payload = vec![7u8; 200 + (round as usize % 5) * 137];
            payload[1..9].copy_from_slice(&round.to_be_bytes());
            srv.enqueue(f1, &payload).unwrap();
            srv.pump_into(SimTime::from_millis(round), usize::MAX, &mut events);
            demux.sweep(SimTime::from_millis(round));
        }
        let mut batch = RxBatch::new();
        let mut seen = Vec::new();
        demux.poll_flow_into(f1.id(), &mut batch);
        for pb in batch.drain() {
            seen.push(u64::from_be_bytes(pb.as_slice()[1..9].try_into().unwrap()));
            demux.recycle(pb);
        }
        assert_eq!(seen, (0..30).collect::<Vec<_>>(), "tuned flow not FIFO");
    }

    /// Closing a replica frees its slot; a later frame naming the same
    /// id gets a *fresh* simulation, so a recycled flow id delivers FIFO
    /// from scratch instead of against stale scheduler state.
    #[test]
    fn closed_flow_slot_restarts_fresh() {
        let (mut srv, mut demux) = linked(8);
        let f0 = srv.open_flow().unwrap();
        let mut events = Vec::new();
        for _ in 0..20 {
            srv.enqueue(f0, &[5; 300]).unwrap();
        }
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO);
        let mut batch = RxBatch::new();
        assert_eq!(demux.poll_flow_into(f0.id(), &mut batch), 20);
        for pb in batch.drain() {
            demux.recycle(pb);
        }
        // Sender closes; app tells the demux. The replica (mid-round
        // scheduler state and all) is gone.
        srv.close_flow(f0).unwrap();
        assert!(demux.close_flow(f0.id()));
        assert!(!demux.close_flow(f0.id()), "double close finds nothing");
        assert_eq!(demux.net_stats().flows_active, 0);
        // The same id reused by a fresh sender flow resequences FIFO.
        let f0b = srv.open_flow().unwrap();
        assert_eq!(f0b.id(), f0.id());
        for round in 0..20u64 {
            let mut payload = vec![6u8; 64 + (round as usize % 7) * 100];
            payload[1..9].copy_from_slice(&round.to_be_bytes());
            srv.enqueue(f0b, &payload).unwrap();
        }
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO);
        let mut seen = Vec::new();
        demux.poll_flow_into(f0b.id(), &mut batch);
        for pb in batch.drain() {
            seen.push(u64::from_be_bytes(pb.as_slice()[1..9].try_into().unwrap()));
            demux.recycle(pb);
        }
        assert_eq!(seen, (0..20).collect::<Vec<_>>(), "reused id not FIFO");
    }

    /// A probe reaching the demux is acked on the reverse path of the
    /// same channel, carrying this endpoint's incarnation.
    #[test]
    fn probe_acked_at_demux_level() {
        use stripe_transport::ControlPath;
        let (mut srv, mut demux) = linked(4);
        ControlPath::transmit_control(
            &mut srv,
            SimTime::ZERO,
            1,
            &Control::Probe { nonce: 0xABCD },
        );
        demux.sweep(SimTime::ZERO);
        assert_eq!(demux.net_stats().replies_sent, 1);
        let mut buf = [0u8; 2048];
        let n = srv.links_mut()[1].recv_frame(&mut buf).expect("ack");
        assert_eq!(
            frame::decode(&buf[..n]),
            Some(Frame::Control(Control::ProbeAck {
                nonce: 0xABCD,
                incarnation: 7
            }))
        );
    }

    /// A malformed datagram is counted — against its channel — and
    /// dropped without disturbing the stream around it.
    #[test]
    fn malformed_datagram_counted_without_disturbing_the_stream() {
        let (mut srv, mut demux) = linked(4);
        let f0 = srv.open_flow().unwrap();
        let mut events = Vec::new();
        srv.enqueue(f0, &[0x41; 64]).unwrap();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        // Garbage straight onto channel 1's wire, between two packets.
        srv.links_mut()[1].send_frame(&[1, 2, 3]).unwrap();
        srv.enqueue(f0, &[0x42; 64]).unwrap();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO);
        let s = demux.net_stats();
        assert_eq!(s.frames, 3);
        assert_eq!(s.dropped_malformed, 1);
        assert_eq!(demux.malformed_by_channel(), &[0, 1]);
        assert_eq!(s.data_frames, 2);
        let mut batch = RxBatch::new();
        demux.poll_flow_into(f0.id(), &mut batch);
        let got: Vec<u8> = batch.as_slice().iter().map(|pb| pb.as_slice()[0]).collect();
        assert_eq!(got, [0x41, 0x42]);
    }

    /// A bit-flipped summed frame is caught by its CRC-8 trailer and
    /// dropped — counted per channel, never delivered — while clean
    /// summed frames flow through untouched.
    #[test]
    fn corrupt_summed_frames_are_discarded_not_delivered() {
        let (a0, b0) = datagram_pair(2048, 4096);
        let (a1, b1) = datagram_pair(2048, 4096);
        let mut srv = StripeServer::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![a0, a1])
            .integrity(true)
            .build();
        let mut demux = FlowDemux::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![b0, b1])
            .build();
        let f0 = srv.open_flow().unwrap();
        // A summed frame with one payload bit flipped, injected on
        // channel 0's wire.
        let mut evil = Vec::new();
        frame::encode_data_summed_flow_into(f0.id(), &[0x55u8; 32], &mut evil);
        let Ok((_, Frame::Data(body))) = frame::try_decode_flow(&evil) else {
            unreachable!("just encoded");
        };
        let at = body.as_ptr() as usize - evil.as_ptr() as usize;
        evil[at + 4] ^= 0x01;
        srv.links_mut()[0].send_frame(&evil).unwrap();
        // Followed by clean traffic.
        srv.enqueue(f0, &[0x66u8; 32]).unwrap();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut Vec::new());
        demux.sweep(SimTime::ZERO);

        let s = demux.net_stats();
        assert_eq!(s.dropped_corrupt, 1, "flip caught by the trailer");
        assert_eq!(s.dropped_malformed, 0);
        assert_eq!(demux.corrupt_by_channel(), &[1, 0], "blamed on its channel");
        assert_eq!(s.data_frames, 1, "the clean frame still routed");
        let mut batch = RxBatch::new();
        // Only the clean payload is ever deliverable, trailer stripped.
        assert_eq!(demux.poll_flow_into(f0.id(), &mut batch), 1);
        for pb in batch.drain() {
            assert_eq!(pb.as_slice(), &[0x66u8; 32][..]);
            demux.recycle(pb);
        }
    }

    /// The pool's high-water mark stops growing once the working set is
    /// warm: receive, deliver, recycle, repeat.
    #[test]
    fn pool_stops_growing_in_steady_state() {
        let (mut srv, mut demux) = linked(4);
        let f0 = srv.open_flow().unwrap();
        let mut events = Vec::new();
        let mut batch = RxBatch::new();
        let mut burst = |srv: &mut StripeServer<_, _>, demux: &mut FlowDemux<_, _>, ms: u64| {
            for _ in 0..16 {
                srv.enqueue(f0, &[7u8; 300]).unwrap();
            }
            srv.pump_into(SimTime::from_millis(ms), usize::MAX, &mut events);
            demux.sweep(SimTime::from_millis(ms));
            demux.poll_flow_into(f0.id(), &mut batch);
            for pb in batch.drain() {
                demux.recycle(pb);
            }
        };
        for ms in 0..5 {
            burst(&mut srv, &mut demux, ms);
        }
        let warm = demux.pool().allocated();
        for ms in 5..50 {
            burst(&mut srv, &mut demux, ms);
        }
        assert_eq!(demux.pool().allocated(), warm, "pool grew past warmup");
        // The high-water mark is what was there to begin with: a landing
        // call's worth of buffers and the re-homing spare.
        assert_eq!(warm, LAND as u64 + 1);
        assert_eq!(demux.net_stats().rehomed, 0, "nothing was ever short");
    }

    /// One flow wedged behind a lost frame, markers off, parks every
    /// later payload it receives, one to a landing buffer, while other
    /// traffic streams past. Re-homing keeps the pool inside its budget
    /// throughout, and once the gap is filled the wedged flow delivers
    /// every payload intact and in order.
    #[test]
    fn wedged_flow_is_rehomed_within_the_pool_budget() {
        const MTU: usize = 2048;
        const ROUNDS: u64 = 1200;
        // A flow's first packet uses up channel 0's whole quantum and
        // its next million bytes all ride channel 1: lose that first
        // frame and the receiver waits on channel 0 for good.
        let quanta = [100, 1 << 20];
        let (a0, b0) = datagram_pair(MTU, 1 << 12);
        let (a1, b1) = datagram_pair(MTU, 1 << 12);
        let mut srv = StripeServer::builder()
            .scheduler(Srr::weighted(&quanta))
            .markers(MarkerConfig::disabled())
            .links(vec![a0, a1])
            .build();
        let mut demux = FlowDemux::builder()
            .scheduler(Srr::weighted(&quanta))
            .links(vec![b0, b1])
            .pool_buffers(8 * (1 << 16) / MTU)
            .build();
        let budget = demux.pool().allocated();
        assert_eq!(budget, 8);
        let payload = |flow: u8, round: u64| {
            let mut p = vec![flow; 100];
            p[1..9].copy_from_slice(&round.to_be_bytes());
            p
        };
        let wedged = srv.open_flow().unwrap();
        let busy = srv.open_flow().unwrap();
        let mut events = Vec::new();
        let mut batch = RxBatch::new();

        srv.enqueue(wedged, &payload(1, 0)).unwrap();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        let mut lost = [0u8; MTU];
        let n = demux.links_mut()[0]
            .recv_frame(&mut lost)
            .expect("on the wire");

        let mut busy_seen = 0;
        for round in 1..=ROUNDS {
            srv.enqueue(wedged, &payload(1, round)).unwrap();
            for _ in 0..8 {
                srv.enqueue(busy, &payload(2, round)).unwrap();
            }
            srv.pump_into(SimTime::from_millis(round), usize::MAX, &mut events);
            demux.sweep(SimTime::from_millis(round));
            assert_eq!(demux.poll_flow_into(wedged.id(), &mut batch), 0, "wedged");
            busy_seen += demux.poll_flow_into(busy.id(), &mut batch);
            for pb in batch.drain() {
                assert_eq!(pb.as_slice(), &payload(2, round)[..]);
                demux.recycle(pb);
            }
            assert!(
                demux.pool().allocated() <= budget,
                "round {round}: the pool grew to {} buffers",
                demux.pool().allocated()
            );
        }
        assert_eq!(
            busy_seen as u64,
            8 * ROUNDS,
            "a train of other traffic a round"
        );
        assert!(demux.net_stats().rehomed > 0);

        // The gap is filled: the lost frame turns up on channel 0.
        srv.links_mut()[0].send_frame(&lost[..n]).unwrap();
        demux.sweep(SimTime::from_millis(ROUNDS + 1));
        assert_eq!(
            demux.poll_flow_into(wedged.id(), &mut batch) as u64,
            ROUNDS + 1
        );
        for (round, pb) in batch.drain().enumerate() {
            assert_eq!(
                pb.as_slice(),
                &payload(1, round as u64)[..],
                "round {round}"
            );
        }
    }

    /// A reply the reverse path refuses is counted, not panicked on.
    #[test]
    fn reply_backpressure_counted() {
        use stripe_transport::ControlPath;
        let (a0, b0) = datagram_pair(2048, 2);
        let mut srv = StripeServer::builder()
            .scheduler(Srr::equal(1, 1500))
            .links(vec![a0])
            .build();
        let mut demux = FlowDemux::builder()
            .scheduler(Srr::equal(1, 1500))
            .links(vec![b0])
            .build();
        // Fill the reverse queue so the ack has nowhere to go.
        demux.links_mut()[0].send_frame(&[0]).unwrap();
        demux.links_mut()[0].send_frame(&[0]).unwrap();
        let t =
            ControlPath::transmit_control(&mut srv, SimTime::ZERO, 0, &Control::Probe { nonce: 1 });
        assert_eq!(t.error, None);
        demux.sweep(SimTime::ZERO);
        let s = demux.net_stats();
        assert_eq!(
            (s.control_frames, s.replies_sent, s.replies_lost),
            (1, 0, 1)
        );
    }

    /// A reset request flushes every replica exactly once per epoch,
    /// forgets remembered mask/quanta, and acks on the reverse path —
    /// a retransmitted request acks again without a second flush.
    #[test]
    fn reset_request_flushes_replicas_once_per_epoch() {
        use stripe_transport::ControlPath;
        let (mut srv, mut demux) = linked(8);
        let f0 = srv.open_flow().unwrap();
        let mut events = Vec::new();
        for _ in 0..10 {
            srv.enqueue(f0, &[3; 400]).unwrap();
        }
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO);
        // Packets are buffered/deliverable before the reset…
        let req = Control::ResetRequest { epoch: 1 };
        ControlPath::transmit_control(&mut srv, SimTime::ZERO, 0, &req);
        ControlPath::transmit_control(&mut srv, SimTime::ZERO, 1, &req);
        demux.sweep(SimTime::ZERO);
        // …and gone after it: the flush dropped them with the replica
        // state, and the retransmitted request did not flush twice.
        let mut batch = RxBatch::new();
        assert_eq!(demux.poll_flow_into(f0.id(), &mut batch), 0);
        assert_eq!(demux.net_stats().resets, 1);
        let mut buf = [0u8; 2048];
        let mut acks = 0;
        for c in 0..2 {
            while let Some(n) = srv.links_mut()[c].recv_frame(&mut buf) {
                if let Some(Frame::Control(Control::ResetAck { epoch })) = frame::decode(&buf[..n])
                {
                    assert_eq!(epoch, 1);
                    acks += 1;
                }
            }
        }
        assert_eq!(acks, 2, "one ack per request, flush or no flush");
        // Delivery restarts cleanly under the new epoch.
        for round in 0..12u64 {
            let mut payload = vec![4u8; 120];
            payload[1..9].copy_from_slice(&round.to_be_bytes());
            srv.enqueue(f0, &payload).unwrap();
        }
        // The sender flow's engine must flush too (the reactor does this
        // via reset_flows); mirror it here.
        srv.reset_flows();
        for round in 0..12u64 {
            let mut payload = vec![4u8; 120];
            payload[1..9].copy_from_slice(&round.to_be_bytes());
            srv.enqueue(f0, &payload).unwrap();
        }
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO);
        let mut seen = Vec::new();
        demux.poll_flow_into(f0.id(), &mut batch);
        for pb in batch.drain() {
            seen.push(u64::from_be_bytes(pb.as_slice()[1..9].try_into().unwrap()));
            demux.recycle(pb);
        }
        assert_eq!(seen, (0..12).collect::<Vec<_>>(), "post-reset not FIFO");
    }

    /// A channel going dark mid-burst head-of-line blocks every flow:
    /// each armed stall detector must report the dark channel once the
    /// timeout elapses, and clear once markers walk the replicas past
    /// the hole after the blackout lifts.
    #[test]
    fn every_flow_stall_detector_fires_during_blackout_and_clears() {
        let (a0, b0) = datagram_pair(2048, 1 << 12);
        let (a1, b1) = datagram_pair(2048, 1 << 12);
        let mut srv = StripeServer::builder()
            .scheduler(Srr::equal(2, 1500))
            .markers(MarkerConfig::every_rounds(4))
            .links(vec![a0, a1])
            .build();
        let mut demux = FlowDemux::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![b0, b1])
            .max_flows(8)
            .incarnation(7)
            .stall_timeout_ns(1_000_000)
            .build();
        let flows: Vec<_> = (0..3).map(|_| srv.open_flow().unwrap()).collect();
        let mut events = Vec::new();
        let mut batch = RxBatch::new();

        // Channel 0 goes dark; a burst per flow straddles the hole.
        for h in &flows {
            for round in 0..16u64 {
                let mut payload = vec![0u8; 300];
                payload[1..9].copy_from_slice(&round.to_be_bytes());
                srv.enqueue(*h, &payload).unwrap();
            }
        }
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        let mut buf = [0u8; 2048];
        while demux.links_mut()[0].recv_frame(&mut buf).is_some() {}
        demux.sweep(SimTime::ZERO);
        for h in &flows {
            demux.poll_flow_into(h.id(), &mut batch);
            for pb in batch.drain() {
                demux.recycle(pb);
            }
        }
        // Before the timeout: blocked but silent.
        for h in &flows {
            assert_eq!(
                demux.flow_stalled(h.id(), SimTime::from_micros(500)),
                None,
                "stall reported before the timeout"
            );
        }
        // After it: every flow names the dark channel.
        for h in &flows {
            assert_eq!(
                demux.flow_stalled(h.id(), SimTime::from_micros(1_500)),
                Some(0),
                "flow {} missed the head-of-line stall",
                h.id()
            );
            assert_eq!(demux.flow_stats(h.id()).unwrap().stalls, 1);
        }

        // Blackout over: idle markers walk every replica past the lost
        // frames, the buffered tail delivers, and the stall clears.
        srv.send_idle_markers_into(SimTime::from_micros(2_000), &mut events);
        demux.sweep(SimTime::from_micros(2_000));
        for h in &flows {
            demux.poll_flow_into(h.id(), &mut batch);
            let mut last = None;
            for pb in batch.drain() {
                let round = u64::from_be_bytes(pb.as_slice()[1..9].try_into().unwrap());
                if let Some(prev) = last {
                    assert!(round > prev, "post-recovery inversion on flow {}", h.id());
                }
                last = Some(round);
                demux.recycle(pb);
            }
            assert!(
                last.is_some(),
                "flow {} delivered nothing after recovery",
                h.id()
            );
            assert_eq!(
                demux.flow_stalled(h.id(), SimTime::from_micros(9_000)),
                None,
                "stall must clear once delivery resumes"
            );
        }
    }
}
