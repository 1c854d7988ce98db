//! Adaptive quantum control: estimators + tuner + deadband, proposing
//! quanta for the failover driver to announce.
//!
//! The pieces are all elsewhere — per-channel online estimators in
//! [`crate::est`], the rate→quantum objective in
//! [`stripe_core::sched::tuner`], the epoch'd announce/ack protocol in
//! [`stripe_core::handshake`], driven by
//! [`FailoverDriver`](stripe_transport::FailoverDriver) — and this module
//! is the glue that makes them a control loop:
//!
//! 1. every reactor poll feeds each channel's cumulative
//!    [`TxEvidence`] and probe timestamps into its
//!    [`ChannelEstimator`];
//! 2. on a periodic estimation tick, rate estimates become shares
//!    ([`rate_shares`](crate::est::rate_shares)), shares become a
//!    quantum proposal ([`QuantumTuner::propose_into`]), and a proposal
//!    that clears the deadband around the quanta in force is handed to
//!    [`FailoverDriver::begin_retune`](stripe_transport::FailoverDriver::begin_retune);
//! 3. the driver announces it like a mask — scheduled on the local
//!    scheduler at an effective round a little ahead of the scan, flooded
//!    as an epoch'd
//!    [`Control::QuantumAnnounce`](stripe_core::control::Control::QuantumAnnounce)
//!    over the live channels, retired by
//!    [`Control::QuantumAck`](stripe_core::control::Control::QuantumAck)s
//!    and retransmitted on its own timer until then.
//!
//! At most one retune is in flight at a time: the driver declines a
//! proposal while the previous handshake runs (or a §5 reset does, or
//! every channel is dead) and the tuner proposes again at its next
//! interval, so sender and receiver never juggle two pending quanta
//! schedules. The fairness bound holds across every retune because both
//! ends apply the change at the same round boundary — see
//! [`stripe_core::handshake`] for the argument.

use stripe_core::sched::tuner::QuantumTuner;
use stripe_core::types::ChannelId;
use stripe_link::TxEvidence;
use stripe_netsim::{SimDuration, SimTime};

use crate::est::{rate_shares, ChannelEstimator};
use crate::reactor::Periodic;

/// Tuning for the adaptive control loop. How far ahead a retune takes
/// effect and how often it is retransmitted are the failover driver's
/// ([`FailoverConfig`](stripe_transport::FailoverConfig)), as for every
/// other handshake.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// EWMA gain for the goodput estimators.
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
}

impl AdaptiveConfig {
    /// A config derived from the estimation interval: 256..=16384 byte
    /// quantum envelope, 10% deadband.
    pub fn with_interval(interval: SimDuration) -> Self {
        Self {
            gain: crate::est::DEFAULT_GAIN,
            min_quantum: 256,
            max_quantum: 16 * 1024,
            deadband_ppm: 100_000,
            interval,
        }
    }
}

/// Counters for the adaptive loop, under the workspace snapshot
/// convention. The retune handshake's own counters are the failover
/// driver's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveSnapshot {
    /// Transmit-evidence samples absorbed across all channels.
    pub tx_samples: u64,
    /// RTT samples absorbed across all channels.
    pub rtt_samples: u64,
    /// Proposals suppressed by the deadband (loop converged).
    pub suppressed: u64,
}

/// The adaptive control loop's state: one estimator per channel and the
/// quantum tuner. The reactor owns the wiring (see
/// [`ServerReactor::poll`]); the failover driver owns the handshake and
/// the quanta in force; this type only proposes.
///
/// [`ServerReactor::poll`]: crate::reactor::ServerReactor::poll
#[derive(Debug)]
pub struct AdaptiveTuner {
    ests: Vec<ChannelEstimator>,
    tuner: QuantumTuner,
    /// The quanta the schedulers were built with: in force until the
    /// first retune, so the deadband measures the first proposal
    /// against them.
    initial: Vec<i64>,
    /// Scratch: per-channel rate shares.
    shares: Vec<f64>,
    /// Scratch: the tuner's latest proposal.
    proposal: Vec<i64>,
    tick: Periodic,
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
            initial: initial_quanta.to_vec(),
            shares: Vec::with_capacity(initial_quanta.len()),
            proposal: Vec::with_capacity(initial_quanta.len()),
            tick: Periodic::new(now, cfg.interval),
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

    /// Called once per reactor poll: when the estimation interval has
    /// elapsed, run the estimators through the tuner and return quanta
    /// worth announcing — a proposal past the deadband around `in_force`,
    /// the quanta the driver announced last (empty: the initial ones).
    pub fn propose(&mut self, now: SimTime, in_force: &[i64]) -> Option<&[i64]> {
        if !self.tick.fire(now) {
            return None;
        }
        // No retune until every channel has a live rate estimate: the
        // equal-share fallback would otherwise drag all quanta to the
        // envelope floor before the first real measurement.
        if !self.ests.iter().all(|e| e.primed()) {
            return None;
        }
        // An idle path (all rates zero) proposes nothing either: the
        // all-minimum target it would produce says "no information",
        // not "shrink every quantum".
        if !self.ests.iter().any(|e| e.goodput_bps() > 0.0) {
            return None;
        }
        rate_shares(&self.ests, &mut self.shares);
        let in_force = if in_force.is_empty() {
            &self.initial[..]
        } else {
            in_force
        };
        if self
            .tuner
            .propose_into(&self.shares, in_force, &mut self.proposal)
        {
            Some(self.proposal.as_slice())
        } else {
            self.stats.suppressed += 1;
            None
        }
    }

    /// How many channels the loop estimates.
    pub fn channels(&self) -> usize {
        self.ests.len()
    }

    /// Adaptive-loop counters.
    pub fn stats(&self) -> AdaptiveSnapshot {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Feed a clean 4:2:1 rate split; the first due tick proposes a
    /// proportional retune, and once it is in force the next tick is
    /// suppressed by the deadband.
    #[test]
    fn proposes_the_split_then_suppresses() {
        let mut ad = AdaptiveTuner::new(&[1500, 1500, 1500], cfg_ms(10), SimTime::ZERO);
        // Two samples per channel prime every estimator: rates 4:2:1.
        for step in 0..2u64 {
            let t = step * 1_000_000_000;
            ad.on_tx_evidence(0, t, evidence(step * 400, step * 400_000));
            ad.on_tx_evidence(1, t, evidence(step * 200, step * 200_000));
            ad.on_tx_evidence(2, t, evidence(step * 100, step * 100_000));
        }
        assert_eq!(ad.propose(SimTime::from_millis(5), &[]), None, "not due");
        // Proportional: slowest at the floor, others scaled 4:2:1.
        let proposal = ad
            .propose(SimTime::from_millis(10), &[])
            .map(<[i64]>::to_vec);
        assert_eq!(proposal.as_deref(), Some(&[1024, 512, 256][..]));
        // The loop has converged: the next tick suppresses.
        assert_eq!(
            ad.propose(SimTime::from_millis(20), &[1024, 512, 256]),
            None
        );
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
        assert_eq!(ad.propose(SimTime::from_millis(10), &[]), None);
        assert_eq!(ad.stats().suppressed, 0);
    }
}
