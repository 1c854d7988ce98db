//! Adaptive quantum control: estimators + tuner + the retune handshake,
//! bundled for the reactor to drive.
//!
//! The pieces are all elsewhere — per-channel online estimators in
//! [`crate::est`], the rate→quantum objective in
//! [`stripe_core::sched::tuner`], the epoch'd announce/ack protocol in
//! [`stripe_core::handshake`] — and this module is the glue that makes
//! them a control loop:
//!
//! 1. every reactor poll feeds each channel's cumulative
//!    [`TxEvidence`] and probe timestamps into its
//!    [`ChannelEstimator`];
//! 2. on a periodic estimation tick, rate estimates become shares
//!    ([`rate_shares`](crate::est::rate_shares)), shares become a
//!    quantum proposal ([`QuantumTuner::propose_into`]), and a proposal
//!    that clears the deadband becomes an epoch'd
//!    [`Control::QuantumAnnounce`](stripe_core::control::Control::QuantumAnnounce)
//!    flooded over the live channels — while the same quanta are
//!    scheduled on the local scheduler at the same effective round;
//! 3. [`Control::QuantumAck`](stripe_core::control::Control::QuantumAck)s
//!    collected off the reverse path retire the handshake; unacked
//!    announcements retransmit on a timer.
//!
//! At most one retune is in flight at a time: a new proposal waits for
//! the previous handshake to complete (or supersede it on the next
//! tick), so sender and receiver never juggle two pending quanta
//! schedules. The fairness bound holds across every retune because both
//! ends apply the change at the same round boundary — see
//! [`stripe_core::handshake`] for the argument.

use stripe_core::control::Epoch;
use stripe_core::handshake::{EpochSender, HandshakeError, Progress};
use stripe_core::sched::tuner::QuantumTuner;
use stripe_core::types::ChannelId;
use stripe_link::TxEvidence;
use stripe_netsim::{SimDuration, SimTime};

use crate::est::{rate_shares, ChannelEstimator};
use crate::reactor::Periodic;

/// Tuning for the adaptive control loop.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// EWMA gain for the goodput/loss estimators.
    pub gain: f64,
    /// Smallest quantum the tuner may assign (floor of the envelope).
    pub min_quantum: i64,
    /// Largest quantum the tuner may assign (the fairness bound of
    /// Theorem 3.2 scales with the largest quantum, so this caps the
    /// reordering the tuner can introduce).
    pub max_quantum: i64,
    /// Relative deadband in parts-per-million: proposals within this
    /// of the quanta in force are suppressed (no retune churn).
    pub deadband_ppm: u64,
    /// Estimation/retune cadence.
    pub interval: SimDuration,
    /// How many rounds ahead of the scan an announced change takes
    /// effect — same role as the membership lead.
    pub announce_lead_rounds: u64,
    /// Retransmit an unacked announcement this often.
    pub retransmit_interval: SimDuration,
}

impl AdaptiveConfig {
    /// A config derived from the estimation interval: 256..=16384 byte
    /// quantum envelope, 10% deadband, announcements two rounds ahead,
    /// retransmit every interval.
    pub fn with_interval(interval: SimDuration) -> Self {
        Self {
            gain: crate::est::DEFAULT_GAIN,
            min_quantum: 256,
            max_quantum: 16 * 1024,
            deadband_ppm: 100_000,
            interval,
            announce_lead_rounds: 2,
            retransmit_interval: interval,
        }
    }
}

/// Counters for the adaptive loop, under the workspace snapshot
/// convention.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveSnapshot {
    /// Transmit-evidence samples absorbed across all channels.
    pub tx_samples: u64,
    /// RTT samples absorbed across all channels.
    pub rtt_samples: u64,
    /// Retune handshakes begun (announcements flooded).
    pub retunes: u64,
    /// Quantum acks absorbed.
    pub retune_acks: u64,
    /// Retune handshakes fully acked.
    pub retunes_complete: u64,
    /// Announcement retransmissions.
    pub retransmits: u64,
    /// Proposals suppressed by the deadband (loop converged).
    pub suppressed: u64,
}

/// What the reactor should do after an adaptive tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptiveStep {
    /// Nothing due.
    Idle,
    /// A proposal cleared the deadband: commit it with
    /// [`AdaptiveTuner::begin_announce`], schedule the quanta locally at
    /// the same effective round, then flood the announcement.
    Announce,
    /// The in-flight announcement wants retransmission.
    Retransmit,
}

/// The adaptive control loop's state: one estimator per channel, the
/// quantum tuner, and the sender half of the retune handshake. The
/// reactor owns the wiring (see [`ServerReactor::poll`]); this type owns
/// the decisions.
///
/// [`ServerReactor::poll`]: crate::reactor::ServerReactor::poll
#[derive(Debug)]
pub struct AdaptiveTuner {
    cfg: AdaptiveConfig,
    ests: Vec<ChannelEstimator>,
    tuner: QuantumTuner,
    sender: EpochSender,
    /// Quanta in force (or being announced). Starts as the scheduler's
    /// initial quanta so the deadband compares against reality.
    quanta: Vec<i64>,
    /// Scratch: per-channel rate shares.
    shares: Vec<f64>,
    /// Scratch: the tuner's latest proposal.
    proposal: Vec<i64>,
    tick: Periodic,
    /// A §5 reset put both ends back on their initial quanta: the next
    /// step announces the ones in force again, whatever the deadband says.
    reteach: bool,
    stats: AdaptiveSnapshot,
}

impl AdaptiveTuner {
    /// An adaptive loop over `initial_quanta.len()` channels, starting
    /// from the quanta the scheduler was built with (the deadband
    /// measures proposals against them).
    ///
    /// # Panics
    /// Panics on an empty or non-positive initial quanta vector, or a
    /// nonsensical envelope (see [`QuantumTuner::new`]).
    pub fn new(initial_quanta: &[i64], cfg: AdaptiveConfig, now: SimTime) -> Self {
        assert!(!initial_quanta.is_empty(), "at least one channel");
        assert!(
            initial_quanta.iter().all(|&q| q > 0),
            "initial quanta must be positive"
        );
        Self {
            ests: initial_quanta
                .iter()
                .map(|_| ChannelEstimator::new(cfg.gain))
                .collect(),
            tuner: QuantumTuner::new(cfg.min_quantum, cfg.max_quantum, cfg.deadband_ppm),
            sender: EpochSender::new(initial_quanta.len()),
            quanta: initial_quanta.to_vec(),
            shares: Vec::with_capacity(initial_quanta.len()),
            proposal: Vec::with_capacity(initial_quanta.len()),
            tick: Periodic::new(now, cfg.interval),
            reteach: false,
            cfg,
            stats: AdaptiveSnapshot::default(),
        }
    }

    /// Absorb one cumulative transmit-evidence reading for `channel`.
    pub fn on_tx_evidence(&mut self, channel: ChannelId, now_ns: u64, ev: TxEvidence) {
        let before = self.ests[channel].tx_samples();
        self.ests[channel].on_tx_sample(now_ns, ev);
        self.stats.tx_samples += self.ests[channel].tx_samples() - before;
    }

    /// A probe left on `channel` carrying `nonce`.
    pub fn on_probe_sent(&mut self, channel: ChannelId, nonce: u64, now_ns: u64) {
        self.ests[channel].on_probe_sent(nonce, now_ns);
    }

    /// A probe ack arrived on `channel` carrying `nonce`.
    pub fn on_probe_ack(&mut self, channel: ChannelId, nonce: u64, now_ns: u64) {
        let before = self.ests[channel].rtt_samples();
        self.ests[channel].on_probe_ack(nonce, now_ns);
        self.stats.rtt_samples += self.ests[channel].rtt_samples() - before;
    }

    /// A [`Control::QuantumAck`] arrived on `channel`.
    ///
    /// [`Control::QuantumAck`]: stripe_core::control::Control::QuantumAck
    pub fn on_quantum_ack(&mut self, channel: ChannelId, epoch: Epoch) {
        let progress = self.sender.on_ack(channel, epoch);
        if progress != Progress::Ignored {
            self.stats.retune_acks += 1;
        }
        self.on_progress(progress);
    }

    /// `channel` was declared dead: its ack will never come, so the
    /// in-flight retune stops waiting for it — otherwise the loop would
    /// retransmit into the dead link and propose nothing for the whole
    /// outage, exactly when the capacity split changed most.
    pub fn on_channel_dead(&mut self, channel: ChannelId) {
        let progress = self.sender.stop_awaiting(channel);
        self.on_progress(progress);
    }

    fn on_progress(&mut self, progress: Progress) {
        if progress == Progress::Complete {
            self.stats.retunes_complete += 1;
        }
    }

    /// A §5 reset completed: every scheduler on both ends is back on its
    /// initial quanta, so the vector in force must be re-taught exactly
    /// like the live mask is — or the deadband would compare proposals
    /// against quanta that are no longer in force, and suppress them.
    pub fn on_reset(&mut self) {
        self.proposal.clone_from(&self.quanta);
        self.reteach = true;
    }

    /// Decide what is due at `now`. Called once per reactor poll; the
    /// reactor executes the returned step (it owns the path access the
    /// execution needs).
    pub fn step(&mut self, now: SimTime) -> AdaptiveStep {
        if self.reteach || (self.tick.fire(now) && !self.sender.in_progress() && self.propose()) {
            return AdaptiveStep::Announce;
        }
        if self
            .sender
            .retransmit_due(now.as_nanos(), self.cfg.retransmit_interval.as_nanos())
        {
            self.stats.retransmits += 1;
            return AdaptiveStep::Retransmit;
        }
        AdaptiveStep::Idle
    }

    /// Run the estimators through the tuner. True when a retune past
    /// the deadband is warranted (the proposal is parked in scratch for
    /// [`begin_announce`](Self::begin_announce)).
    fn propose(&mut self) -> bool {
        // No retune until every channel has a live rate estimate: the
        // equal-share fallback would otherwise drag all quanta to the
        // envelope floor before the first real measurement.
        if !self.ests.iter().all(|e| e.primed()) {
            return false;
        }
        // An idle path (all rates zero) proposes nothing either: the
        // all-minimum target it would produce says "no information",
        // not "shrink every quantum".
        if !self.ests.iter().any(|e| e.goodput_bps() > 0.0) {
            return false;
        }
        rate_shares(&self.ests, &mut self.shares);
        if self
            .tuner
            .propose_into(&self.shares, &self.quanta, &mut self.proposal)
        {
            true
        } else {
            self.stats.suppressed += 1;
            false
        }
    }

    /// Commit the parked proposal: it becomes the quanta in force and a
    /// new epoch announces it over the `live` channels. The reactor
    /// schedules [`quanta`](Self::quanta) locally at the same
    /// `effective_round` and floods [`handshake_mut`](Self::handshake_mut).
    pub fn begin_announce(
        &mut self,
        effective_round: u64,
        live: &[bool],
    ) -> Result<(), HandshakeError> {
        self.sender
            .begin_quanta(live, &self.proposal, effective_round)?;
        self.quanta.clone_from(&self.proposal);
        self.reteach = false;
        self.stats.retunes += 1;
        Ok(())
    }

    /// The retune handshake, for the reactor's flood/retransmit loop.
    pub fn handshake_mut(&mut self) -> &mut EpochSender {
        &mut self.sender
    }

    /// Channels still awaiting the current announcement's ack.
    pub fn awaiting_channels(&self) -> impl Iterator<Item = ChannelId> + '_ {
        self.sender.awaiting_channels()
    }

    /// Whether a retune handshake is in flight.
    pub fn in_progress(&self) -> bool {
        self.sender.in_progress()
    }

    /// How many rounds ahead of the scan announced changes take effect.
    pub fn announce_lead_rounds(&self) -> u64 {
        self.cfg.announce_lead_rounds
    }

    /// The quanta currently in force (or being announced).
    pub fn quanta(&self) -> &[i64] {
        &self.quanta
    }

    /// The per-channel estimators (inspection).
    pub fn estimators(&self) -> &[ChannelEstimator] {
        &self.ests
    }

    /// Adaptive-loop counters.
    pub fn stats(&self) -> AdaptiveSnapshot {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stripe_core::control::Control;

    fn evidence(frames: u64, bytes: u64) -> TxEvidence {
        TxEvidence {
            frames,
            bytes,
            dropped: 0,
        }
    }

    fn cfg_ms(interval_ms: u64) -> AdaptiveConfig {
        AdaptiveConfig::with_interval(SimDuration::from_millis(interval_ms))
    }

    /// Feed a clean 4:2:1 rate split; the first due tick announces a
    /// proportional retune, acks complete it, and the quanta in force
    /// reflect the split.
    #[test]
    fn converges_to_announced_retune() {
        let mut ad = AdaptiveTuner::new(&[1500, 1500, 1500], cfg_ms(10), SimTime::ZERO);
        // Two samples per channel prime every estimator: rates 4:2:1.
        for step in 0..2u64 {
            let t = step * 1_000_000_000;
            ad.on_tx_evidence(0, t, evidence(step * 400, step * 400_000));
            ad.on_tx_evidence(1, t, evidence(step * 200, step * 200_000));
            ad.on_tx_evidence(2, t, evidence(step * 100, step * 100_000));
        }
        assert_eq!(ad.step(SimTime::from_millis(5)), AdaptiveStep::Idle);
        assert_eq!(ad.step(SimTime::from_millis(10)), AdaptiveStep::Announce);
        ad.begin_announce(7, &[true, true, true]).expect("valid");
        let Some(Control::QuantumAnnounce { epoch, quanta, .. }) =
            ad.handshake_mut().announcement()
        else {
            panic!("not an announcement");
        };
        assert_eq!(*epoch, 1);
        // Proportional: slowest at the floor, others scaled 4:2:1.
        assert_eq!(quanta, &[1024, 512, 256]);
        assert!(ad.in_progress());
        ad.on_quantum_ack(0, 1);
        ad.on_quantum_ack(1, 1);
        ad.on_quantum_ack(2, 1);
        assert!(!ad.in_progress());
        let s = ad.stats();
        assert_eq!((s.retunes, s.retune_acks, s.retunes_complete), (1, 3, 1));
        assert_eq!(ad.quanta(), &[1024, 512, 256]);
        // The loop has converged: the next tick suppresses.
        assert_eq!(ad.step(SimTime::from_millis(20)), AdaptiveStep::Idle);
        assert_eq!(ad.stats().suppressed, 1);
    }

    /// No retune fires while any channel's estimator is unprimed — the
    /// equal-share fallback must not drag quanta to the floor.
    #[test]
    fn unprimed_estimators_hold_fire() {
        let mut ad = AdaptiveTuner::new(&[1500, 1500], cfg_ms(10), SimTime::ZERO);
        // Only channel 0 ever reports.
        ad.on_tx_evidence(0, 0, evidence(0, 0));
        ad.on_tx_evidence(0, 1_000_000_000, evidence(100, 100_000));
        assert_eq!(ad.step(SimTime::from_millis(10)), AdaptiveStep::Idle);
        assert_eq!(ad.stats().retunes, 0);
        assert_eq!(ad.quanta(), &[1500, 1500]);
    }

    /// An unacked announcement retransmits on its timer; a stale ack
    /// does not retire it.
    #[test]
    fn unacked_announcement_retransmits() {
        let mut ad = AdaptiveTuner::new(&[1500, 1500], cfg_ms(10), SimTime::ZERO);
        for step in 0..2u64 {
            let t = step * 1_000_000_000;
            ad.on_tx_evidence(0, t, evidence(step * 400, step * 400_000));
            ad.on_tx_evidence(1, t, evidence(step * 100, step * 100_000));
        }
        assert_eq!(ad.step(SimTime::from_millis(10)), AdaptiveStep::Announce);
        ad.begin_announce(5, &[true, true]).expect("valid");
        ad.handshake_mut().mark_sent(10_000_000); // the reactor's flood
        ad.on_quantum_ack(0, 99); // stale epoch: ignored
        assert!(ad.in_progress());
        assert_eq!(ad.step(SimTime::from_millis(15)), AdaptiveStep::Idle);
        assert_eq!(ad.step(SimTime::from_millis(20)), AdaptiveStep::Retransmit);
        let msg = ad.handshake_mut().announcement().unwrap();
        assert!(matches!(msg, Control::QuantumAnnounce { epoch: 1, .. }));
        ad.handshake_mut().mark_sent(20_000_000);
        assert_eq!(ad.awaiting_channels().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(ad.stats().retransmits, 1);
        // While in flight, ticks do not start a second handshake.
        assert_eq!(ad.step(SimTime::from_millis(30)), AdaptiveStep::Retransmit);
        assert_eq!(ad.stats().retunes, 1);
    }
}
