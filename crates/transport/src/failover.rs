//! Failover orchestration: liveness, membership, §5 reset and live retune
//! over a striped path.
//!
//! This is where the pieces meet. [`FailoverDriver`] sits beside the
//! sender's datapath — anything implementing
//! [`ControlPath`](crate::stripe_conn::ControlPath): the simulated
//! [`StripedPath`](crate::stripe_conn::StripedPath) or the real-socket
//! `StripeServer` from `stripe-net` — and owns the control plane: the
//! [`LivenessTracker`] (per-channel keepalives with exponential backoff)
//! and the three [`EpochSender`]s of the epoch'd handshake in
//! [`stripe_core::handshake`] — the shrink/grow mask, the §5 reset and the
//! quanta retune. Every handshake event, timeout and deadline lives here:
//! one place begins, floods, retransmits, acks and drops carriers for all
//! three, with one [`FailoverConfig::announce_lead_rounds`] and one
//! [`FailoverConfig::retransmit_interval_ns`]. An adaptive tuner only
//! *proposes* quanta ([`FailoverDriver::begin_retune`]); the driver keeps
//! the one copy of the quanta in force. [`StripedSink`] is its
//! receiver-side counterpart: it feeds arrivals into the
//! [`LogicalReceiver`] and carries out what the handshake's
//! [`ControlResponder`] decides.
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
//!
//! A reset or retune whose carriers all die before any of them acks is
//! [`Progress::Unheard`] and is begun again over the live channels (a mask
//! is begun again on every liveness change anyway). The quanta in force
//! are announced again — beside the mask, over the live channels —
//! whenever the far end may no longer hold them: after a §5 reset put
//! both ends back on their initial quanta, when the path leaves a
//! blackout (a reset may have completed inside it, its re-announce
//! carried by nobody), and when a retune went unheard.

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
    /// How many rounds ahead of the current scan a membership or quanta
    /// change takes effect — enough for the announcement to cross the
    /// path. Too small and the receiver applies it late (markers repair
    /// the skew); too large and degradation is needlessly delayed.
    pub announce_lead_rounds: u64,
    /// Retransmit an unacked announcement (mask, reset or retune) this
    /// often.
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
/// of the epoch'd handshake: run after a `begin_*` and whenever
/// [`EpochSender::retransmit_due`] holds. A no-op with nothing in flight.
fn flood_announcement<P: ControlPath>(
    sender: &mut EpochSender,
    path: &mut P,
    now: SimTime,
    out: &mut Vec<ControlTransmission>,
) {
    let Some(msg) = sender.announcement() else {
        return;
    };
    for c in sender.awaiting_channels() {
        out.push(path.transmit_control(now, c, msg));
    }
    sender.mark_sent(now.as_nanos());
}

/// Sender-side control-plane orchestrator. Call [`FailoverDriver::tick`]
/// on a timer and [`FailoverDriver::on_control`] for every control message
/// arriving on the reverse path; every entry point appends the
/// [`ControlTransmission`]s it made to a caller-owned `Vec`, so a caller
/// that reuses one allocates nothing in the steady state.
#[derive(Debug, Clone)]
pub struct FailoverDriver {
    live: LivenessTracker,
    /// Scratch for [`LivenessTracker::poll`], kept between ticks.
    liveness_events: Vec<LivenessEvent>,
    membership: EpochSender,
    reset: EpochSender,
    retune: EpochSender,
    /// The quanta in force on both ends (or being announced); empty until
    /// the first retune — the schedulers' initial quanta are in force.
    quanta: Vec<i64>,
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
    retunes_started: u64,
    retune_acks: u64,
    membership_errors: u64,
    last_membership_error: Option<HandshakeError>,
}

impl FailoverDriver {
    /// A driver for `channels` channels, all presumed live at `now`.
    pub fn new(channels: usize, cfg: FailoverConfig, now: SimTime) -> Self {
        Self {
            live: LivenessTracker::new(channels, cfg.liveness, now.as_nanos()),
            liveness_events: Vec::with_capacity(2 * channels),
            membership: EpochSender::new(channels),
            reset: EpochSender::new(channels),
            retune: EpochSender::new(channels),
            quanta: Vec::new(),
            cfg,
            blackout: false,
            peer_incarnation: None,
            pending_engine_reset: false,
            restarts_detected: 0,
            resets_started: 0,
            desync_resets: 0,
            retunes_started: 0,
            retune_acks: 0,
            membership_errors: 0,
            last_membership_error: None,
        }
    }

    /// Park the datapath: an all-dead mask stops data sends fast while
    /// the schedulers hold their last live mask (see
    /// [`ControlPath::schedule_mask`]).
    fn park_path<P: ControlPath>(path: &mut P) {
        let parked = vec![false; path.channels()];
        path.schedule_mask(path.current_round(), &parked);
    }

    /// Record a handshake that could not begin. Cannot happen for masks
    /// derived from our own tracker or quanta from a checked tuner, but a
    /// typed error beats a panic on the datapath: count it and keep the
    /// last good state.
    fn record_error(&mut self, e: HandshakeError) {
        self.membership_errors += 1;
        self.last_membership_error = Some(e);
    }

    /// The one place a liveness change is acted on: park on a total
    /// blackout; otherwise stop the in-flight handshakes waiting on
    /// channels that can no longer ack, announce the current mask
    /// (superseding any mask handshake still in flight), begin again a
    /// reset nobody heard and, when `reteach` or the far end may have lost
    /// them, announce the quanta in force.
    fn announce_current_mask<P: ControlPath>(
        &mut self,
        path: &mut P,
        now: SimTime,
        mut reteach: bool,
        out: &mut Vec<ControlTransmission>,
    ) {
        let mask = self.live.live_mask();
        // Leaving a blackout: a reset may have completed inside it, and
        // its re-teach reached nobody.
        reteach |= self.blackout;
        self.blackout = !mask.iter().any(|&l| l);
        if self.blackout {
            // Total outage: park. No channel could carry an announcement,
            // so no epoch is spent on one; handshakes already in flight
            // stay in flight. Probes keep flowing (backed off); the first
            // recovered channel re-announces and unparks.
            Self::park_path(path);
            return;
        }
        let mut reset_unheard = false;
        for c in (0..mask.len()).filter(|&c| !mask[c]) {
            match self.reset.stop_awaiting(c) {
                Progress::Complete => self.pending_engine_reset = true,
                Progress::Unheard => reset_unheard = true,
                Progress::Pending | Progress::Ignored => {}
            }
            reteach |= self.retune.stop_awaiting(c) == Progress::Unheard;
        }
        let eff = path.current_round() + self.cfg.announce_lead_rounds;
        if let Err(e) = self.membership.begin_mask(&mask, eff) {
            self.record_error(e);
            return;
        }
        if self.reset.in_progress() || reset_unheard {
            // A §5 reset gates data resume: announce the new membership
            // (the receiver needs it) but keep the datapath parked until
            // the reset acks land and the engines are flushed — whose
            // re-announce re-teaches the quanta.
            Self::park_path(path);
            reteach = false;
        } else {
            path.schedule_mask(eff, &mask);
        }
        flood_announcement(&mut self.membership, path, now, out);
        if reset_unheard {
            self.begin_reset(path, now, out);
        }
        if reteach && !self.quanta.is_empty() {
            self.announce_quanta(path, now, out);
        }
    }

    /// Announce the quanta in force over the live channels, superseding
    /// any retune in flight, and schedule them on the local path at the
    /// same effective round. False (the error recorded) if the handshake
    /// could not begin.
    fn announce_quanta<P: ControlPath>(
        &mut self,
        path: &mut P,
        now: SimTime,
        out: &mut Vec<ControlTransmission>,
    ) -> bool {
        let eff = path.current_round() + self.cfg.announce_lead_rounds;
        let begun = self
            .retune
            .begin_quanta(&self.live.live_mask(), &self.quanta, eff);
        if let Err(e) = begun {
            self.record_error(e);
            return false;
        }
        self.retunes_started += 1;
        path.schedule_quanta(eff, &self.quanta);
        flood_announcement(&mut self.retune, path, now, out);
        true
    }

    /// New quanta proposed (by an adaptive tuner): they become the quanta
    /// in force and are announced exactly like a mask — scheduled locally
    /// at an effective round a little ahead of the scan, flooded over the
    /// live channels, retransmitted until every carrier acks or dies.
    /// Declined, changing nothing, during a blackout, while a §5 reset is
    /// in flight, or while the previous retune is — so both ends never
    /// juggle two pending quanta schedules; the tuner simply proposes
    /// again at its next interval.
    pub fn begin_retune<P: ControlPath>(
        &mut self,
        path: &mut P,
        quanta: &[i64],
        now: SimTime,
        out: &mut Vec<ControlTransmission>,
    ) {
        if self.blackout || self.reset.in_progress() || self.retune.in_progress() {
            return;
        }
        let before = std::mem::replace(&mut self.quanta, quanta.to_vec());
        if !self.announce_quanta(path, now, out) {
            self.quanta = before;
        }
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
        out: &mut Vec<ControlTransmission>,
    ) {
        let mask = self.live.live_mask();
        if !mask.iter().any(|&l| l) {
            return;
        }
        if let Err(e) = self.reset.begin_reset(&mask) {
            self.record_error(e);
            return;
        }
        self.resets_started += 1;
        Self::park_path(path);
        flood_announcement(&mut self.reset, path, now, out);
    }

    /// Drive timers: emit due probes (dead channels included — that is how
    /// recovery is noticed), declare deaths and announce the shrunken
    /// mask, retransmit unacked announcements.
    pub fn tick<P: ControlPath>(
        &mut self,
        path: &mut P,
        now: SimTime,
        out: &mut Vec<ControlTransmission>,
    ) {
        self.liveness_events.clear();
        self.live.poll(now.as_nanos(), &mut self.liveness_events);
        let mut died = false;
        for ev in &self.liveness_events {
            match *ev {
                LivenessEvent::ProbeDue { channel, nonce } => {
                    out.push(path.transmit_control(now, channel, &Control::Probe { nonce }));
                }
                LivenessEvent::ChannelDead(_) => died = true,
            }
        }
        if died {
            self.announce_current_mask(path, now, false, out);
        }
        let interval_ns = self.cfg.retransmit_interval_ns;
        for sender in [&mut self.membership, &mut self.reset, &mut self.retune] {
            if sender.retransmit_due(now.as_nanos(), interval_ns) {
                flood_announcement(sender, path, now, out);
            }
        }
    }

    /// Out-of-band death evidence for `channel` — the link layer itself
    /// reported the channel dead (a connected-UDP socket hard error, a
    /// panicked I/O worker). Declares it dead immediately and announces
    /// the shrunken mask, instead of waiting out the keepalive deadline
    /// the evidence has already made moot. Idempotent: repeated reports
    /// for an already-dead channel transmit nothing. Recovery is
    /// unchanged — probes keep flowing and the first ack regrows the set.
    pub fn on_link_dead<P: ControlPath>(
        &mut self,
        path: &mut P,
        channel: ChannelId,
        now: SimTime,
        out: &mut Vec<ControlTransmission>,
    ) {
        if self.live.force_dead(channel) {
            self.announce_current_mask(path, now, false, out);
        }
    }

    /// A control message arrived on the reverse path of `channel`.
    pub fn on_control<P: ControlPath>(
        &mut self,
        path: &mut P,
        channel: ChannelId,
        ctl: &Control,
        now: SimTime,
        out: &mut Vec<ControlTransmission>,
    ) {
        match ctl {
            Control::ProbeAck { nonce, incarnation } => {
                let recovered = self.live.on_probe_ack(channel, *nonce, now.as_nanos());
                let restarted = self
                    .peer_incarnation
                    .replace(*incarnation)
                    .is_some_and(|prev| prev != *incarnation);
                if recovered {
                    // Grow the set back: same handshake, bit restored.
                    self.announce_current_mask(path, now, false, out);
                }
                if restarted {
                    // The peer came back with a different incarnation:
                    // everything it knew — membership epochs, retune
                    // epochs, resequencer state — is gone. Drive the §5
                    // reset; data stays parked until the acks land.
                    self.restarts_detected += 1;
                    self.begin_reset(path, now, out);
                }
            }
            Control::MembershipAck { epoch } => {
                self.membership.on_ack(channel, *epoch);
            }
            Control::ResetAck { epoch } => {
                // On completion both ends have flushed in-flight state: the
                // caller resets its engines and re-announces to resume
                // data (see `take_pending_engine_reset`).
                self.pending_engine_reset |=
                    self.reset.on_ack(channel, *epoch) == Progress::Complete;
            }
            Control::QuantumAck { epoch } => {
                let moved = self.retune.on_ack(channel, *epoch) != Progress::Ignored;
                self.retune_acks += u64::from(moved);
            }
            Control::DesyncAlert { incarnation } => {
                // The receiver's self-check believes its state diverged.
                // Deduplicate: a reset already in flight will flush it,
                // and an alert from a previous incarnation is moot.
                let moot = self.peer_incarnation.is_some_and(|p| p != *incarnation);
                if !self.reset.in_progress() && !moot {
                    self.desync_resets += 1;
                    self.begin_reset(path, now, out);
                }
            }
            _ => {}
        }
    }

    /// A completed reset is waiting for the engine flush. Returns `true`
    /// at most once per completed reset; on `true` the caller must reset
    /// its datapath engines (sender state, per-flow schedulers) and then
    /// call [`reannounce`](FailoverDriver::reannounce) to re-teach the
    /// receiver the current membership and quanta and unpark data.
    pub fn take_pending_engine_reset(&mut self) -> bool {
        core::mem::take(&mut self.pending_engine_reset)
    }

    /// Re-announce the current live mask and the quanta in force — the
    /// post-reset resume step, and a recovery hook after a recorded
    /// handshake error.
    pub fn reannounce<P: ControlPath>(
        &mut self,
        path: &mut P,
        now: SimTime,
        out: &mut Vec<ControlTransmission>,
    ) {
        self.announce_current_mask(path, now, true, out);
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

    /// Retune handshakes begun: accepted proposals, and the quanta in
    /// force announced again.
    pub fn retunes_started(&self) -> u64 {
        self.retunes_started
    }

    /// Quantum acks that moved a retune handshake.
    pub fn retune_acks(&self) -> u64 {
        self.retune_acks
    }

    /// The quanta in force (or being announced) — empty until the first
    /// retune, while the schedulers' initial quanta are.
    pub fn quanta(&self) -> &[i64] {
        &self.quanta
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

    /// The retune handshake (epoch/progress inspection).
    pub fn retune(&self) -> &EpochSender {
        &self.retune
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

#[cfg(test)]
mod tests {
    use super::*;
    use stripe_core::control::Epoch;

    /// A two-channel path that only records what is scheduled on it.
    #[derive(Debug, Default)]
    struct Recorder {
        quanta: Vec<(u64, Vec<i64>)>,
    }

    impl ControlPath for Recorder {
        fn channels(&self) -> usize {
            2
        }
        fn current_round(&self) -> u64 {
            40
        }
        fn schedule_mask(&mut self, _: u64, _: &[bool]) {}
        fn schedule_quanta(&mut self, effective_round: u64, quanta: &[i64]) {
            self.quanta.push((effective_round, quanta.to_vec()));
        }
        fn transmit_control(
            &mut self,
            now: SimTime,
            c: ChannelId,
            ctl: &Control,
        ) -> ControlTransmission {
            ControlTransmission {
                channel: c,
                arrival: Some(now),
                duplicate: None,
                ctl: ctl.clone(),
                error: None,
            }
        }
    }

    fn driver() -> FailoverDriver {
        let cfg = FailoverConfig::with_probe_interval(10_000_000);
        FailoverDriver::new(2, cfg, SimTime::ZERO)
    }

    fn announced(out: &[ControlTransmission]) -> Vec<(ChannelId, Epoch)> {
        let epoch = |t: &ControlTransmission| match t.ctl {
            Control::QuantumAnnounce { epoch, .. } => Some((t.channel, epoch)),
            _ => None,
        };
        out.iter().filter_map(epoch).collect()
    }

    /// A proposal is scheduled locally and flooded at one effective round,
    /// an ack for another epoch is ignored, and the carriers' acks
    /// complete it.
    #[test]
    fn retune_is_completed_by_its_acks_not_a_stale_one() {
        let (mut d, mut path, mut out) = (driver(), Recorder::default(), Vec::new());
        let now = SimTime::from_millis(1);
        d.begin_retune(&mut path, &[1024, 256], now, &mut out);
        assert_eq!(path.quanta, vec![(42, vec![1024, 256])]);
        let announcement = Control::QuantumAnnounce {
            epoch: 1,
            effective_round: 42,
            quanta: vec![1024, 256],
        };
        assert_eq!(d.retune().announcement(), Some(&announcement));
        assert_eq!(announced(&out), vec![(0, 1), (1, 1)]);
        assert_eq!(d.quanta(), &[1024, 256]);
        d.on_control(
            &mut path,
            0,
            &Control::QuantumAck { epoch: 99 },
            now,
            &mut out,
        );
        assert!(d.retune().in_progress(), "stale epoch: ignored");
        for c in 0..2 {
            d.on_control(
                &mut path,
                c,
                &Control::QuantumAck { epoch: 1 },
                now,
                &mut out,
            );
        }
        assert!(!d.retune().in_progress());
        let counts = (d.retunes_started(), d.retune_acks(), d.retune().completed());
        assert_eq!(counts, (1, 2, 1));
    }

    /// An unacked retune retransmits at the driver's interval on the
    /// channels still awaited; while it is in flight a new proposal is
    /// declined.
    #[test]
    fn unacked_retune_retransmits_and_holds_off_the_next() {
        let (mut d, mut path, mut out) = (driver(), Recorder::default(), Vec::new());
        d.begin_retune(&mut path, &[1024, 256], SimTime::from_millis(10), &mut out);
        let ack = Control::QuantumAck { epoch: 1 };
        d.on_control(&mut path, 0, &ack, SimTime::from_millis(11), &mut out);
        out.clear();
        d.tick(&mut path, SimTime::from_millis(15), &mut out);
        assert_eq!(announced(&out), vec![], "not due yet");
        d.tick(&mut path, SimTime::from_millis(20), &mut out);
        assert_eq!(announced(&out), vec![(1, 1)]);
        d.begin_retune(&mut path, &[256, 1024], SimTime::from_millis(21), &mut out);
        assert_eq!((d.retunes_started(), d.quanta()), (1, &[1024, 256][..]));
    }

    /// No retune begins while every channel is dead or a §5 reset is in
    /// flight: the proposal changes nothing.
    #[test]
    fn no_retune_begins_in_a_blackout_or_under_a_reset() {
        let (mut path, mut out) = (Recorder::default(), Vec::new());
        let now = SimTime::from_millis(1);
        let mut dark = driver();
        dark.on_link_dead(&mut path, 0, now, &mut out);
        dark.on_link_dead(&mut path, 1, now, &mut out);
        let mut resetting = driver();
        resetting.begin_reset(&mut path, now, &mut out);
        for mut d in [dark, resetting] {
            out.clear();
            d.begin_retune(&mut path, &[1024, 256], now, &mut out);
            assert_eq!(announced(&out), vec![]);
            assert_eq!((d.retunes_started(), d.quanta()), (0, &[][..]));
        }
        assert!(path.quanta.is_empty());
    }
}
