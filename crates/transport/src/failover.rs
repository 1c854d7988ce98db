//! Failover orchestration: liveness-driven membership over a striped path.
//!
//! This is where the pieces meet. [`FailoverDriver`] sits beside the
//! sender's datapath — anything implementing
//! [`ControlPath`](crate::stripe_conn::ControlPath): the simulated
//! [`StripedPath`](crate::stripe_conn::StripedPath) or the real-socket
//! `StripeServer` from `stripe-net` — and owns the two control-plane
//! state machines:
//! the [`LivenessTracker`] (per-channel keepalives with exponential
//! backoff) and two [`EpochSender`]s — the shrink/grow mask and the §5
//! reset, both instances of the epoch'd handshake in
//! [`stripe_core::handshake`]. [`StripedSink`] is its receiver-side
//! counterpart: it feeds arrivals into the [`LogicalReceiver`] and carries
//! out what the handshake's [`ControlResponder`] decides.
//!
//! The failure lifecycle, end to end:
//!
//! 1. the driver probes every channel on a timer
//!    ([`FailoverDriver::tick`]); a down link (see
//!    [`stripe_link::FaultPlan`]) swallows probes, so their acks stop;
//! 2. after [`LivenessConfig::dead_after_ns`] of silence the tracker
//!    declares the channel dead; the driver announces a shrunken mask with
//!    an effective round a little ahead of the scan
//!    ([`FailoverConfig::announce_lead_rounds`]) and schedules the same
//!    mask on the local scheduler — the path degrades to N−1 channels;
//! 3. the receiver applies the announcement once per epoch, skips the dying
//!    channel where it has nothing buffered, salvages what it does have,
//!    and delivery continues — only packets in flight on the dead link are
//!    lost;
//! 4. probes keep flowing on the dead channel (backed off); the first ack
//!    after the link comes back triggers the same handshake with the bit
//!    restored, and the channel rejoins the stripe at zero deficit on both
//!    ends.

use stripe_core::control::Control;
use stripe_core::handshake::{ControlResponder, Effect, EpochSender, HandshakeError, Progress};
use stripe_core::liveness::{LivenessConfig, LivenessEvent, LivenessTracker};
use stripe_core::receiver::{Arrival, LogicalReceiver, ReceiverSnapshot};
use stripe_core::sched::CausalScheduler;
use stripe_core::types::{ChannelId, WireLen};
use stripe_netsim::SimTime;

use crate::stripe_conn::{ControlPath, ControlTransmission};

/// Tuning for the failover driver.
#[derive(Debug, Clone, Copy)]
pub struct FailoverConfig {
    /// Keepalive timing (probe interval, dead deadline, backoff cap).
    pub liveness: LivenessConfig,
    /// How many rounds ahead of the current scan a membership change takes
    /// effect — enough for the announcement to cross the path. Too small
    /// and the receiver applies it late (markers repair the skew); too
    /// large and degradation is needlessly delayed.
    pub announce_lead_rounds: u64,
    /// Retransmit an unacked announcement (mask or reset) this often.
    pub retransmit_interval_ns: u64,
}

impl FailoverConfig {
    /// A config derived from a probe interval: death after three silent
    /// intervals, announcements two rounds ahead, retransmit every
    /// interval.
    pub fn with_probe_interval(probe_interval_ns: u64) -> Self {
        Self {
            liveness: LivenessConfig::with_interval(probe_interval_ns),
            announce_lead_rounds: 2,
            retransmit_interval_ns: probe_interval_ns,
        }
    }
}

/// Flood `sender`'s in-flight announcement — one message, borrowed into
/// every transmit, never rebuilt per channel — on each channel still
/// awaiting its ack, and stamp the send time. The one flood/retransmit loop
/// of the epoch'd handshake: call it after a `begin_*` and whenever
/// [`EpochSender::retransmit_due`] holds. A no-op with nothing in flight.
pub fn flood_announcement<P: ControlPath>(
    sender: &mut EpochSender,
    path: &mut P,
    now: SimTime,
    out: &mut Vec<ControlTransmission>,
) {
    let Some(msg) = sender.announcement() else {
        return;
    };
    for c in sender.awaiting_channels() {
        out.push(path.transmit_control_ref(now, c, msg));
    }
    sender.mark_sent(now.as_nanos());
}

/// Sender-side failover orchestrator. Call [`FailoverDriver::tick`] on a
/// timer and [`FailoverDriver::on_control`] for every control message
/// arriving on the reverse path; transmit every [`ControlTransmission`]
/// either returns.
#[derive(Debug)]
pub struct FailoverDriver {
    live: LivenessTracker,
    membership: EpochSender,
    reset: EpochSender,
    cfg: FailoverConfig,
    /// Every channel is dead: the path is parked. Legal, not fatal —
    /// flows see backpressure, probes keep flowing, the first ack
    /// regrows the set.
    blackout: bool,
    /// The receiver's incarnation as last reported in a probe ack.
    /// `None` until the first ack arrives.
    peer_incarnation: Option<u64>,
    /// A completed §5 reset is waiting for the datapath to flush its
    /// per-flow engine state; drained by [`take_pending_engine_reset`].
    ///
    /// [`take_pending_engine_reset`]: FailoverDriver::take_pending_engine_reset
    pending_engine_reset: bool,
    restarts_detected: u64,
    resets_started: u64,
    desync_resets: u64,
    membership_errors: u64,
    last_membership_error: Option<HandshakeError>,
}

impl FailoverDriver {
    /// A driver for `channels` channels, all presumed live at `now`.
    pub fn new(channels: usize, cfg: FailoverConfig, now: SimTime) -> Self {
        Self {
            live: LivenessTracker::new(channels, cfg.liveness, now.as_nanos()),
            membership: EpochSender::new(channels),
            reset: EpochSender::new(channels),
            cfg,
            blackout: false,
            peer_incarnation: None,
            pending_engine_reset: false,
            restarts_detected: 0,
            resets_started: 0,
            desync_resets: 0,
            membership_errors: 0,
            last_membership_error: None,
        }
    }

    /// Park the datapath: an all-dead mask stops data sends fast while
    /// the schedulers hold their last live mask (see
    /// [`ControlPath::schedule_mask`]).
    fn park_path<P: ControlPath>(&self, path: &mut P) {
        let parked = vec![false; self.live.live_mask().len()];
        path.schedule_mask(path.current_round(), &parked);
    }

    /// Record a handshake that could not begin. Cannot happen for masks
    /// derived from our own tracker or quanta from a checked tuner, but a
    /// typed error beats a panic on the datapath: count it and keep the
    /// last good state. The reactor feeds its retune handshake's errors
    /// here too, so one pair of accessors covers all three senders.
    pub fn record_error(&mut self, e: HandshakeError) {
        self.membership_errors += 1;
        self.last_membership_error = Some(e);
    }

    /// A reset handshake moved: on completion both ends have flushed
    /// in-flight state (or nobody is left to ask), and the caller must now
    /// reset the local engines and re-announce to resume data (see
    /// [`take_pending_engine_reset`](Self::take_pending_engine_reset)).
    fn on_reset_progress(&mut self, progress: Progress) {
        if progress == Progress::Complete {
            self.pending_engine_reset = true;
        }
    }

    /// The one place a liveness change is acted on: park on a total
    /// blackout; otherwise stop the in-flight reset waiting on channels
    /// that can no longer ack, and announce the current mask (superseding
    /// any mask handshake still in flight).
    fn announce_current_mask<P: ControlPath>(
        &mut self,
        path: &mut P,
        now: SimTime,
    ) -> Vec<ControlTransmission> {
        let mask = self.live.live_mask();
        self.blackout = !mask.iter().any(|&l| l);
        if self.blackout {
            // Total outage: park. No channel could carry an announcement,
            // so no epoch is spent on one; handshakes already in flight
            // stay in flight. Probes keep flowing (backed off); the first
            // recovered channel re-announces and unparks.
            self.park_path(path);
            return Vec::new();
        }
        for c in (0..mask.len()).filter(|&c| !mask[c]) {
            let progress = self.reset.stop_awaiting(c);
            self.on_reset_progress(progress);
        }
        let eff = path.current_round() + self.cfg.announce_lead_rounds;
        if let Err(e) = self.membership.begin_mask(&mask, eff) {
            self.record_error(e);
            return Vec::new();
        }
        if self.reset.in_progress() {
            // A §5 reset gates data resume: announce the new membership
            // (the receiver needs it) but keep the datapath parked until
            // the reset acks land and the engines are flushed.
            self.park_path(path);
        } else {
            path.schedule_mask(eff, &mask);
        }
        let mut out = Vec::new();
        flood_announcement(&mut self.membership, path, now, &mut out);
        out
    }

    /// Start (or supersede) a §5 two-phase reset: flood `ResetRequest`
    /// on every live channel and park the datapath until the acks land.
    /// During a blackout there is nothing to flood — the park already
    /// holds and the reset is deferred to the restart detection that
    /// fires when the first ack returns.
    pub fn begin_reset<P: ControlPath>(
        &mut self,
        path: &mut P,
        now: SimTime,
    ) -> Vec<ControlTransmission> {
        let mask = self.live.live_mask();
        if !mask.iter().any(|&l| l) {
            return Vec::new();
        }
        if let Err(e) = self.reset.begin_reset(&mask) {
            self.record_error(e);
            return Vec::new();
        }
        self.resets_started += 1;
        self.park_path(path);
        let mut out = Vec::new();
        flood_announcement(&mut self.reset, path, now, &mut out);
        out
    }

    /// Drive timers: emit due probes (dead channels included — that is how
    /// recovery is noticed), declare deaths and announce the shrunken
    /// mask, retransmit unacked announcements.
    pub fn tick<P: ControlPath>(&mut self, path: &mut P, now: SimTime) -> Vec<ControlTransmission> {
        let mut out = Vec::new();
        let mut died = false;
        for ev in self.live.poll(now.as_nanos()) {
            match ev {
                LivenessEvent::ProbeDue { channel, nonce } => {
                    out.push(path.transmit_control(now, channel, Control::Probe { nonce }));
                }
                LivenessEvent::ChannelDead(_) => died = true,
                LivenessEvent::ChannelRecovered(_) => unreachable!("poll never recovers"),
            }
        }
        if died {
            out.extend(self.announce_current_mask(path, now));
        }
        let interval_ns = self.cfg.retransmit_interval_ns;
        for sender in [&mut self.membership, &mut self.reset] {
            if sender.retransmit_due(now.as_nanos(), interval_ns) {
                flood_announcement(sender, path, now, &mut out);
            }
        }
        out
    }

    /// Out-of-band death evidence for `channel` — the link layer itself
    /// reported the channel dead (a connected-UDP socket hard error, a
    /// panicked I/O worker). Declares it dead immediately and announces
    /// the shrunken mask, instead of waiting out the keepalive deadline
    /// the evidence has already made moot. Idempotent: repeated reports
    /// for an already-dead channel return no transmissions. Recovery is
    /// unchanged — probes keep flowing and the first ack regrows the set.
    pub fn on_link_dead<P: ControlPath>(
        &mut self,
        path: &mut P,
        channel: ChannelId,
        now: SimTime,
    ) -> Vec<ControlTransmission> {
        if self.live.force_dead(channel) {
            self.announce_current_mask(path, now)
        } else {
            Vec::new()
        }
    }

    /// A control message arrived on the reverse path of `channel`.
    pub fn on_control<P: ControlPath>(
        &mut self,
        path: &mut P,
        channel: ChannelId,
        ctl: &Control,
        now: SimTime,
    ) -> Vec<ControlTransmission> {
        match ctl {
            Control::ProbeAck { nonce, incarnation } => {
                let recovered = matches!(
                    self.live.on_probe_ack(channel, *nonce, now.as_nanos()),
                    Some(LivenessEvent::ChannelRecovered(_))
                );
                let restarted = match self.peer_incarnation {
                    None => {
                        self.peer_incarnation = Some(*incarnation);
                        false
                    }
                    Some(prev) if prev != *incarnation => {
                        self.peer_incarnation = Some(*incarnation);
                        true
                    }
                    Some(_) => false,
                };
                let mut out = Vec::new();
                if recovered {
                    // Grow the set back: same handshake, bit restored.
                    out.extend(self.announce_current_mask(path, now));
                }
                if restarted {
                    // The peer came back with a different incarnation:
                    // everything it knew — membership epochs, retune
                    // epochs, resequencer state — is gone. Drive the §5
                    // reset; data stays parked until the acks land.
                    self.restarts_detected += 1;
                    out.extend(self.begin_reset(path, now));
                }
                out
            }
            Control::MembershipAck { epoch } => {
                self.membership.on_ack(channel, *epoch);
                Vec::new()
            }
            Control::ResetAck { epoch } => {
                let progress = self.reset.on_ack(channel, *epoch);
                self.on_reset_progress(progress);
                Vec::new()
            }
            Control::DesyncAlert { incarnation } => {
                // The receiver's self-check believes its state diverged.
                // Deduplicate: a reset already in flight will flush it,
                // and an alert from a previous incarnation is moot.
                if self.reset.in_progress() {
                    return Vec::new();
                }
                if let Some(prev) = self.peer_incarnation {
                    if prev != *incarnation {
                        return Vec::new();
                    }
                }
                self.desync_resets += 1;
                self.begin_reset(path, now)
            }
            _ => Vec::new(),
        }
    }

    /// A completed reset is waiting for the engine flush. Returns `true`
    /// at most once per completed reset; on `true` the caller must reset
    /// its datapath engines (sender state, per-flow schedulers) and then
    /// call [`reannounce`](FailoverDriver::reannounce) to re-teach the
    /// receiver the current membership and unpark data.
    pub fn take_pending_engine_reset(&mut self) -> bool {
        core::mem::take(&mut self.pending_engine_reset)
    }

    /// Re-announce the current live mask — the post-reset resume step,
    /// and a recovery hook after a recorded membership error.
    pub fn reannounce<P: ControlPath>(
        &mut self,
        path: &mut P,
        now: SimTime,
    ) -> Vec<ControlTransmission> {
        self.announce_current_mask(path, now)
    }

    /// Is the datapath parked — every channel dead, or a §5 reset still
    /// awaiting acks? Control (probes, announcements) keeps flowing
    /// while parked; data sends fail fast.
    pub fn parked(&self) -> bool {
        self.blackout || self.reset.in_progress()
    }

    /// Is the park specifically a total blackout (all channels dead)?
    pub fn blackout(&self) -> bool {
        self.blackout
    }

    /// Peer restarts detected via incarnation changes in probe acks.
    pub fn restarts_detected(&self) -> u64 {
        self.restarts_detected
    }

    /// §5 resets initiated (restart-driven plus desync-driven).
    pub fn resets_started(&self) -> u64 {
        self.resets_started
    }

    /// §5 resets completed.
    pub fn resets_completed(&self) -> u64 {
        self.reset.completed()
    }

    /// Resets initiated because of a receiver [`Control::DesyncAlert`].
    pub fn desync_resets(&self) -> u64 {
        self.desync_resets
    }

    /// Handshakes (mask, reset, retune) that could not begin and were
    /// rejected with a typed error instead of a panic — a wiring bug, not
    /// a network fault; a blackout is not one.
    pub fn membership_errors(&self) -> u64 {
        self.membership_errors
    }

    /// The most recent handshake error, if any.
    pub fn last_membership_error(&self) -> Option<&HandshakeError> {
        self.last_membership_error.as_ref()
    }

    /// The liveness tracker (health inspection).
    pub fn liveness(&self) -> &LivenessTracker {
        &self.live
    }

    /// The membership handshake (epoch/progress inspection).
    pub fn membership(&self) -> &EpochSender {
        &self.membership
    }

    /// The reset handshake (§5 epoch inspection).
    pub fn reset_state(&self) -> &EpochSender {
        &self.reset
    }
}

/// Builder for [`StripedSink`], mirroring [`StripedPathBuilder`]: name the
/// scheduler and buffering instead of assembling a receiver by hand.
///
/// ```ignore
/// let sink = StripedSink::builder()
///     .scheduler(srr)
///     .capacity_per_channel(8192)
///     .build();
/// ```
///
/// [`StripedPathBuilder`]: crate::stripe_conn::StripedPathBuilder
#[derive(Debug)]
pub struct StripedSinkBuilder<S: CausalScheduler, P> {
    sched: Option<S>,
    cap_per_channel: usize,
    stall_timeout_ns: Option<u64>,
    incarnation: Option<u64>,
    _packet: core::marker::PhantomData<fn() -> P>,
}

impl<S: CausalScheduler, P> Default for StripedSinkBuilder<S, P> {
    fn default() -> Self {
        Self {
            sched: None,
            cap_per_channel: 1 << 14,
            stall_timeout_ns: None,
            incarnation: None,
            _packet: core::marker::PhantomData,
        }
    }
}

impl<S: CausalScheduler, P: WireLen> StripedSinkBuilder<S, P> {
    /// The simulation scheduler — an identically configured, fresh copy of
    /// the sender's. Required.
    pub fn scheduler(mut self, sched: S) -> Self {
        self.sched = Some(sched);
        self
    }

    /// Per-channel arrival buffer depth. Defaults to 16384.
    pub fn capacity_per_channel(mut self, cap: usize) -> Self {
        self.cap_per_channel = cap;
        self
    }

    /// Arm the stall detector (see [`LogicalReceiver::set_stall_timeout`]).
    pub fn stall_timeout_ns(mut self, timeout_ns: u64) -> Self {
        self.stall_timeout_ns = Some(timeout_ns);
        self
    }

    /// Pin the incarnation nonce this endpoint reports in probe acks.
    /// Defaults to a fresh [`fresh_incarnation`] value — the nonce a
    /// restarted process cannot accidentally repeat, which is how the
    /// sender notices the restart.
    ///
    /// [`fresh_incarnation`]: stripe_core::reset::fresh_incarnation
    pub fn incarnation(mut self, incarnation: u64) -> Self {
        self.incarnation = Some(incarnation);
        self
    }

    /// Assemble the sink.
    ///
    /// # Panics
    /// Panics if no scheduler was supplied.
    pub fn build(self) -> StripedSink<S, P> {
        let sched = self.sched.expect("StripedSinkBuilder needs a scheduler");
        let mut rx = LogicalReceiver::new(sched, self.cap_per_channel);
        if let Some(t) = self.stall_timeout_ns {
            rx.set_stall_timeout(t);
        }
        StripedSink {
            rx,
            responder: ControlResponder::new(
                self.incarnation
                    .unwrap_or_else(stripe_core::reset::fresh_incarnation),
            ),
        }
    }
}

/// Receiver-side endpoint: logical reception plus the responder half of
/// the control plane (probes and the three epoch'd handshakes).
#[derive(Debug)]
pub struct StripedSink<S: CausalScheduler, P> {
    rx: LogicalReceiver<S, P>,
    responder: ControlResponder,
}

impl<S: CausalScheduler, P: WireLen> StripedSink<S, P> {
    /// Start building a sink: `StripedSink::builder().scheduler(…)
    /// .capacity_per_channel(…).build()`.
    pub fn builder() -> StripedSinkBuilder<S, P> {
        StripedSinkBuilder::default()
    }

    /// A data packet or marker arrived on `channel`.
    pub fn on_arrival(&mut self, channel: ChannelId, a: Arrival<P>) -> bool {
        self.rx.push(channel, a)
    }

    /// A control message arrived on `channel`; returns the replies to
    /// transmit on the reverse path.
    pub fn on_control(&mut self, channel: ChannelId, ctl: &Control) -> Vec<(ChannelId, Control)> {
        if let Control::Marker(mk) = ctl {
            self.rx.push(channel, Arrival::Marker(*mk));
            return Vec::new();
        }
        let channels = self.rx.scheduler().channels();
        let (effect, reply) = self.responder.on_control(ctl, channels);
        match effect {
            Effect::None => {}
            Effect::Mask { round, live } => self.rx.apply_membership(round, &live),
            Effect::Quanta { round, quanta } => self.rx.schedule_quanta(round, quanta),
            // Buffered packets are dropped and the simulation restarts; a
            // whole-process restart differs in building a new sink, with
            // a new incarnation.
            Effect::Flush => self.rx.reset(),
        }
        reply.into_iter().map(|ack| (channel, ack)).collect()
    }

    /// Deliver the next in-order packet (see [`LogicalReceiver::poll`]).
    pub fn poll(&mut self) -> Option<P> {
        self.rx.poll()
    }

    /// The receiver-side stall probe (see [`LogicalReceiver::stalled`]).
    pub fn stalled(&mut self, now: SimTime) -> Option<ChannelId> {
        self.rx.stalled(now.as_nanos())
    }

    /// Receiver counters.
    pub fn stats(&self) -> ReceiverSnapshot {
        self.rx.stats()
    }

    /// The incarnation nonce this sink reports in probe acks.
    pub fn incarnation(&self) -> u64 {
        self.responder.incarnation()
    }

    /// The wrapped receiver.
    pub fn receiver(&self) -> &LogicalReceiver<S, P> {
        &self.rx
    }
}
