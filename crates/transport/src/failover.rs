//! Failover orchestration: liveness-driven membership over a striped path.
//!
//! This is where the pieces meet. [`FailoverDriver`] sits beside the
//! sender's datapath — anything implementing
//! [`ControlPath`](crate::stripe_conn::ControlPath): the simulated
//! [`StripedPath`](crate::stripe_conn::StripedPath) or the real-socket
//! `StripeServer` from `stripe-net` — and owns the two control-plane
//! state machines:
//! the [`LivenessTracker`] (per-channel keepalives with exponential
//! backoff) and the [`MembershipSender`] (the epoch'd shrink/grow
//! handshake). [`StripedSink`] is its receiver-side counterpart: it feeds
//! arrivals into the [`LogicalReceiver`], answers probes, and applies
//! membership announcements through the [`MembershipResponder`].
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
use stripe_core::liveness::{LivenessConfig, LivenessEvent, LivenessTracker};
use stripe_core::membership::{
    MembershipAction, MembershipError, MembershipResponder, MembershipSender,
};
use stripe_core::receiver::{Arrival, LogicalReceiver, ReceiverSnapshot, RxBatch};
use stripe_core::reset::{ResetProgress, ResetResponder, ResetSender, ResponderAction};
use stripe_core::retune::{RetuneAction, RetuneResponder};
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
    /// Retransmit an unacked membership announcement this often.
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

/// Sender-side failover orchestrator. Call [`FailoverDriver::tick`] on a
/// timer and [`FailoverDriver::on_control`] for every control message
/// arriving on the reverse path; transmit every [`ControlTransmission`]
/// either returns.
#[derive(Debug)]
pub struct FailoverDriver {
    live: LivenessTracker,
    membership: MembershipSender,
    reset: ResetSender,
    cfg: FailoverConfig,
    last_retransmit_ns: u64,
    last_reset_retransmit_ns: u64,
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
    last_membership_error: Option<MembershipError>,
}

impl FailoverDriver {
    /// A driver for `channels` channels, all presumed live at `now`.
    pub fn new(channels: usize, cfg: FailoverConfig, now: SimTime) -> Self {
        Self {
            live: LivenessTracker::new(channels, cfg.liveness, now.as_nanos()),
            membership: MembershipSender::new(channels),
            reset: ResetSender::new(channels),
            cfg,
            last_retransmit_ns: now.as_nanos(),
            last_reset_retransmit_ns: now.as_nanos(),
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

    fn announce_current_mask<P: ControlPath>(
        &mut self,
        path: &mut P,
        now: SimTime,
    ) -> Vec<ControlTransmission> {
        let mask = self.live.live_mask();
        let eff = path.current_round() + self.cfg.announce_lead_rounds;
        if let Err(e) = self.membership.begin_announce(&mask, eff) {
            // Cannot happen for masks derived from our own tracker, but
            // a typed error beats a panic on the datapath: record it and
            // keep the last good membership.
            self.membership_errors += 1;
            self.last_membership_error = Some(e);
            return Vec::new();
        }
        self.blackout = !mask.iter().any(|&l| l);
        if self.blackout {
            // Total outage: park. The epoch bump above keeps the
            // membership history monotone; nothing travels because no
            // channel could carry it. Probes keep flowing (backed off);
            // the first recovered channel re-announces and unparks.
            self.park_path(path);
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
        self.last_retransmit_ns = now.as_nanos();
        // One shared announcement, borrowed into every channel's transmit:
        // the frame is built once, never re-materialized per channel.
        let msg = self.membership.current_announcement().expect("just begun");
        let mut out = Vec::new();
        for c in self.membership.awaiting_channels() {
            out.push(path.transmit_control_ref(now, c, &msg));
        }
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
        let reqs = self.reset.start_reset_masked(&mask);
        if reqs.is_empty() {
            return Vec::new();
        }
        self.resets_started += 1;
        self.last_reset_retransmit_ns = now.as_nanos();
        self.park_path(path);
        reqs.into_iter()
            .map(|(c, ctl)| path.transmit_control(now, c, ctl))
            .collect()
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
            if self.reset.in_progress() {
                // A channel died mid-reset; its ack will never come.
                // Supersede with a fresh reset over the survivors so the
                // handshake cannot wedge on a dead channel.
                out.extend(self.begin_reset(path, now));
            }
        } else if self.membership.in_progress()
            && now.as_nanos().saturating_sub(self.last_retransmit_ns)
                >= self.cfg.retransmit_interval_ns
        {
            self.last_retransmit_ns = now.as_nanos();
            if let Some(msg) = self.membership.current_announcement() {
                for c in self.membership.awaiting_channels() {
                    out.push(path.transmit_control_ref(now, c, &msg));
                }
            }
        }
        if self.reset.in_progress()
            && now.as_nanos().saturating_sub(self.last_reset_retransmit_ns)
                >= self.cfg.retransmit_interval_ns
        {
            self.last_reset_retransmit_ns = now.as_nanos();
            for (c, ctl) in self.reset.retransmit() {
                out.push(path.transmit_control(now, c, ctl));
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
                if let ResetProgress::Complete = self.reset.on_ack(channel, *epoch) {
                    // Both ends have flushed in-flight state; the caller
                    // now resets the local engines and re-announces to
                    // resume data (see `take_pending_engine_reset`).
                    self.pending_engine_reset = true;
                }
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

    /// §5 resets fully acknowledged.
    pub fn resets_completed(&self) -> u64 {
        self.reset.resets_completed()
    }

    /// Resets initiated because of a receiver [`Control::DesyncAlert`].
    pub fn desync_resets(&self) -> u64 {
        self.desync_resets
    }

    /// Membership operations rejected with a typed error instead of a
    /// panic (mask length drift — a wiring bug, not a network fault).
    pub fn membership_errors(&self) -> u64 {
        self.membership_errors
    }

    /// The most recent membership error, if any.
    pub fn last_membership_error(&self) -> Option<&MembershipError> {
        self.last_membership_error.as_ref()
    }

    /// The liveness tracker (health inspection).
    pub fn liveness(&self) -> &LivenessTracker {
        &self.live
    }

    /// The membership sender (epoch/mask inspection).
    pub fn membership(&self) -> &MembershipSender {
        &self.membership
    }

    /// The reset sender (§5 epoch inspection).
    pub fn reset_state(&self) -> &ResetSender {
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
            membership: MembershipResponder::new(),
            retune: RetuneResponder::new(),
            reset_resp: ResetResponder::new(),
            incarnation: self
                .incarnation
                .unwrap_or_else(stripe_core::reset::fresh_incarnation),
        }
    }
}

/// Receiver-side endpoint: logical reception plus the responder halves of
/// the probe, membership, and retune protocols.
#[derive(Debug)]
pub struct StripedSink<S: CausalScheduler, P> {
    rx: LogicalReceiver<S, P>,
    membership: MembershipResponder,
    retune: RetuneResponder,
    /// Survives [`reset`](StripedSink::reset): the §5 epoch must outlive
    /// the flush it gates, or a retransmitted request would flush twice.
    reset_resp: ResetResponder,
    incarnation: u64,
}

impl<S: CausalScheduler, P: WireLen> StripedSink<S, P> {
    /// Start building a sink: `StripedSink::builder().scheduler(…)
    /// .capacity_per_channel(…).build()`.
    pub fn builder() -> StripedSinkBuilder<S, P> {
        StripedSinkBuilder::default()
    }

    /// Reset to the initial state (§5 flush): the resequencer restarts
    /// its simulation and the membership/retune responders forget their
    /// epochs. Buffered packets are dropped. The reset responder's epoch
    /// and the incarnation survive — they distinguish this flush from a
    /// whole-process restart, which builds a new sink. Touches no
    /// allocator state, so a pooled sink can be cycled through
    /// close/reopen churn for free.
    pub fn reset(&mut self) {
        self.rx.reset();
        self.membership = MembershipResponder::new();
        self.retune = RetuneResponder::new();
    }

    /// A data packet or marker arrived on `channel`.
    pub fn on_arrival(&mut self, channel: ChannelId, a: Arrival<P>) -> bool {
        self.rx.push(channel, a)
    }

    /// A control message arrived on `channel`; returns the replies to
    /// transmit on the reverse path.
    pub fn on_control(&mut self, channel: ChannelId, ctl: &Control) -> Vec<(ChannelId, Control)> {
        match ctl {
            Control::Marker(mk) => {
                self.rx.push(channel, Arrival::Marker(*mk));
                Vec::new()
            }
            Control::Probe { nonce } => {
                vec![(
                    channel,
                    Control::ProbeAck {
                        nonce: *nonce,
                        incarnation: self.incarnation,
                    },
                )]
            }
            Control::ResetRequest { epoch } => match self.reset_resp.on_request(channel, *epoch) {
                ResponderAction::FlushAndAck { channel, ack } => {
                    self.reset();
                    vec![(channel, ack)]
                }
                ResponderAction::AckOnly { channel, ack } => vec![(channel, ack)],
                ResponderAction::Ignore => Vec::new(),
            },
            Control::Membership {
                epoch,
                live_mask,
                effective_round,
            } => {
                let n = self.rx.scheduler().channels();
                match self.membership.on_membership(
                    channel,
                    *epoch,
                    *live_mask,
                    *effective_round,
                    n,
                ) {
                    MembershipAction::Apply {
                        channel,
                        effective_round,
                        live,
                        ack,
                    } => {
                        self.rx.apply_membership(effective_round, &live);
                        vec![(channel, ack)]
                    }
                    MembershipAction::AckOnly { channel, ack } => vec![(channel, ack)],
                    MembershipAction::Ignore => Vec::new(),
                }
            }
            Control::QuantumAnnounce {
                epoch,
                effective_round,
                quanta,
            } => {
                let n = self.rx.scheduler().channels();
                match self
                    .retune
                    .on_announce(channel, *epoch, *effective_round, quanta, n)
                {
                    RetuneAction::Apply {
                        channel,
                        effective_round,
                        quanta,
                        ack,
                    } => {
                        self.rx.schedule_quanta(effective_round, &quanta);
                        vec![(channel, ack)]
                    }
                    RetuneAction::AckOnly { channel, ack } => vec![(channel, ack)],
                    RetuneAction::Ignore => Vec::new(),
                }
            }
            _ => Vec::new(),
        }
    }

    /// Deliver the next in-order packet (see [`LogicalReceiver::poll`]).
    pub fn poll(&mut self) -> Option<P> {
        self.rx.poll()
    }

    /// Drain every currently deliverable packet into `out` (see
    /// [`LogicalReceiver::poll_into`]). Returns the number delivered.
    pub fn poll_into(&mut self, out: &mut RxBatch<P>) -> usize {
        self.rx.poll_into(out)
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
        self.incarnation
    }

    /// §5 flushes performed in response to reset requests.
    pub fn reset_flushes(&self) -> u64 {
        self.reset_resp.flushes()
    }

    /// The wrapped receiver.
    pub fn receiver(&self) -> &LogicalReceiver<S, P> {
        &self.rx
    }

    /// Mutable access to the wrapped receiver.
    pub fn receiver_mut(&mut self) -> &mut LogicalReceiver<S, P> {
        &mut self.rx
    }
}
