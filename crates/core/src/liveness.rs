//! Sender-side channel liveness tracking.
//!
//! The §5 fault model heals *packet* loss with markers, but a channel that
//! goes down entirely (a yanked cable, a failed PVC) starves the receiver's
//! simulation forever: markers for the dead channel are lost along with the
//! data, so condition C1 never fires and the stripe head-of-line blocks.
//! This module provides the missing detector. The sender probes each
//! channel on a fixed interval ([`Control::Probe`] / answering
//! [`Control::ProbeAck`] on the reverse path); a channel whose acks stop
//! for [`LivenessConfig::dead_after_ns`] is declared dead, which the
//! membership layer (see [`crate::handshake`]) turns into a striping-set
//! shrink. Probing continues on the dead channel — with exponential backoff
//! up to [`LivenessConfig::backoff_max_ns`] — so a recovered channel is
//! noticed and reintegrated by the same machinery.
//!
//! Time is plain nanoseconds (`u64`) so the core crate stays independent of
//! any particular clock; the transport layer feeds it simulation time.
//!
//! [`Control::Probe`]: crate::control::Control::Probe
//! [`Control::ProbeAck`]: crate::control::Control::ProbeAck

use crate::types::ChannelId;

/// Timing knobs for the liveness tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessConfig {
    /// Probe each live channel this often.
    pub probe_interval_ns: u64,
    /// Declare a channel dead when no ack has been seen for this long.
    /// Must exceed `probe_interval_ns` plus a round-trip, or healthy
    /// channels flap.
    pub dead_after_ns: u64,
    /// Cap on the probe interval while a channel is dead (the interval
    /// doubles per unanswered probe — exponential backoff — so a dead
    /// channel costs asymptotically little to watch).
    pub backoff_max_ns: u64,
}

impl LivenessConfig {
    /// A config probing every `probe_interval_ns`, declaring death after
    /// three silent intervals, and backing off to 8× the base interval.
    pub fn with_interval(probe_interval_ns: u64) -> Self {
        Self {
            probe_interval_ns,
            dead_after_ns: probe_interval_ns * 3,
            backoff_max_ns: probe_interval_ns * 8,
        }
    }
}

/// Health of one channel as judged by the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelHealth {
    /// Acks are flowing.
    Live,
    /// At least one probe interval has passed without an ack, but the dead
    /// deadline has not — the detection window.
    Suspect,
    /// The dead deadline passed with no ack.
    Dead,
}

/// What a [`LivenessTracker::poll`] wants done, in the order events should
/// be handled. A timer never revives a channel — only an ack does, and
/// [`LivenessTracker::on_probe_ack`] reports that itself — so a recovery
/// is not an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessEvent {
    /// Transmit a [`Control::Probe`](crate::control::Control::Probe) with
    /// `nonce` on `channel`.
    ProbeDue {
        /// Channel to probe.
        channel: ChannelId,
        /// Nonce to carry (channel id in the top 16 bits).
        nonce: u64,
    },
    /// The channel crossed the dead deadline: shrink the striping set.
    ChannelDead(ChannelId),
}

#[derive(Debug, Clone)]
struct ChannelState {
    last_ack_ns: u64,
    next_probe_ns: u64,
    cur_interval_ns: u64,
    health: ChannelHealth,
    nonce_ctr: u64,
}

/// Per-channel keepalive state machine for a striping group.
#[derive(Debug, Clone)]
pub struct LivenessTracker {
    cfg: LivenessConfig,
    chans: Vec<ChannelState>,
    deaths: u64,
    recoveries: u64,
}

impl LivenessTracker {
    /// A tracker for `channels` channels, all presumed live at `now_ns`
    /// (the first probes fall one interval later).
    ///
    /// # Panics
    /// Panics on zero channels, more than 16 channels (the nonce encoding
    /// and wire format cap), or a non-positive probe interval.
    pub fn new(channels: usize, cfg: LivenessConfig, now_ns: u64) -> Self {
        assert!(channels > 0 && channels <= 16, "1..=16 channels");
        assert!(cfg.probe_interval_ns > 0, "probe interval must be positive");
        Self {
            cfg,
            chans: (0..channels)
                .map(|_| ChannelState {
                    last_ack_ns: now_ns,
                    next_probe_ns: now_ns + cfg.probe_interval_ns,
                    cur_interval_ns: cfg.probe_interval_ns,
                    health: ChannelHealth::Live,
                    nonce_ctr: 0,
                })
                .collect(),
            deaths: 0,
            recoveries: 0,
        }
    }

    fn make_nonce(c: ChannelId, ctr: u64) -> u64 {
        ((c as u64) << 48) | (ctr & 0xFFFF_FFFF_FFFF)
    }

    /// The channel a nonce was issued for.
    pub fn nonce_channel(nonce: u64) -> ChannelId {
        (nonce >> 48) as ChannelId
    }

    /// Advance the clock: appends due probes and newly detected deaths to
    /// `out` (not cleared). Call on every timer tick (a fraction of the
    /// probe interval).
    pub fn poll(&mut self, now_ns: u64, out: &mut Vec<LivenessEvent>) {
        for c in 0..self.chans.len() {
            let silent = now_ns.saturating_sub(self.chans[c].last_ack_ns);
            let ch = &mut self.chans[c];
            match ch.health {
                ChannelHealth::Live if silent >= self.cfg.probe_interval_ns => {
                    ch.health = ChannelHealth::Suspect;
                }
                ChannelHealth::Live | ChannelHealth::Suspect | ChannelHealth::Dead => {}
            }
            if ch.health == ChannelHealth::Suspect && silent >= self.cfg.dead_after_ns {
                ch.health = ChannelHealth::Dead;
                self.deaths += 1;
                out.push(LivenessEvent::ChannelDead(c));
            }
            if now_ns >= ch.next_probe_ns {
                ch.nonce_ctr += 1;
                out.push(LivenessEvent::ProbeDue {
                    channel: c,
                    nonce: Self::make_nonce(c, ch.nonce_ctr),
                });
                if ch.health == ChannelHealth::Dead {
                    // Exponential backoff while dead, capped.
                    ch.cur_interval_ns = (ch.cur_interval_ns * 2).min(self.cfg.backoff_max_ns);
                } else {
                    ch.cur_interval_ns = self.cfg.probe_interval_ns;
                }
                ch.next_probe_ns = now_ns + ch.cur_interval_ns;
            }
        }
    }

    /// A probe ack arrived on the reverse path of `channel`. Returns
    /// whether it revived a dead channel (grow the striping set back).
    /// Acks whose nonce names a different channel are ignored (misrouted
    /// traffic must not fake liveness).
    pub fn on_probe_ack(&mut self, channel: ChannelId, nonce: u64, now_ns: u64) -> bool {
        if Self::nonce_channel(nonce) != channel || channel >= self.chans.len() {
            return false;
        }
        let ch = &mut self.chans[channel];
        ch.last_ack_ns = now_ns;
        let was_dead = ch.health == ChannelHealth::Dead;
        ch.health = ChannelHealth::Live;
        ch.cur_interval_ns = self.cfg.probe_interval_ns;
        ch.next_probe_ns = now_ns + self.cfg.probe_interval_ns;
        if was_dead {
            self.recoveries += 1;
        }
        was_dead
    }

    /// Any authenticated traffic from the far end of `channel` (e.g. a
    /// membership ack) also proves liveness; equivalent to a probe ack with
    /// a matching nonce.
    pub fn on_activity(&mut self, channel: ChannelId, now_ns: u64) -> bool {
        let nonce = Self::make_nonce(channel, 0);
        self.on_probe_ack(channel, nonce, now_ns)
    }

    /// Declare `channel` dead immediately, bypassing the silence deadline.
    /// For out-of-band death evidence — a socket-layer hard error, a
    /// panicked I/O worker — where waiting out `dead_after_ns` would only
    /// delay the failover the evidence already justifies. Returns `true`
    /// if the channel was newly declared dead (the caller should announce
    /// a shrunken mask), `false` if it was already dead or out of range.
    /// Probing continues with backoff, so recovery detection is unchanged.
    pub fn force_dead(&mut self, channel: ChannelId) -> bool {
        let Some(ch) = self.chans.get_mut(channel) else {
            return false;
        };
        if ch.health == ChannelHealth::Dead {
            return false;
        }
        ch.health = ChannelHealth::Dead;
        self.deaths += 1;
        true
    }

    /// Current judgement for `channel`.
    pub fn health(&self, channel: ChannelId) -> ChannelHealth {
        self.chans[channel].health
    }

    /// The live mask as judged right now (`true` = not dead).
    pub fn live_mask(&self) -> Vec<bool> {
        self.chans
            .iter()
            .map(|c| c.health != ChannelHealth::Dead)
            .collect()
    }

    /// Total deaths declared.
    pub fn deaths(&self) -> u64 {
        self.deaths
    }

    /// Total recoveries observed.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// The config in force.
    pub fn config(&self) -> LivenessConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn poll(t: &mut LivenessTracker, now_ns: u64) -> Vec<LivenessEvent> {
        let mut out = Vec::new();
        t.poll(now_ns, &mut out);
        out
    }

    fn probes(evs: &[LivenessEvent]) -> Vec<ChannelId> {
        evs.iter()
            .filter_map(|e| match e {
                LivenessEvent::ProbeDue { channel, .. } => Some(*channel),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn healthy_channels_probe_on_the_interval() {
        let mut t = LivenessTracker::new(2, LivenessConfig::with_interval(10 * MS), 0);
        assert_eq!(poll(&mut t, 5 * MS), vec![]);
        let evs = poll(&mut t, 10 * MS);
        assert_eq!(probes(&evs), vec![0, 1]);
        // Acks keep both live.
        for (c, e) in evs.iter().enumerate() {
            let LivenessEvent::ProbeDue { nonce, .. } = e else {
                panic!()
            };
            assert!(!t.on_probe_ack(c, *nonce, 11 * MS));
        }
        assert_eq!(t.health(0), ChannelHealth::Live);
    }

    #[test]
    fn silence_marches_to_death_within_deadline() {
        let cfg = LivenessConfig::with_interval(10 * MS); // dead after 30ms
        let mut t = LivenessTracker::new(2, cfg, 0);
        // Channel 1 answers, channel 0 never does.
        let mut dead_at = None;
        for tick in 1..20u64 {
            let now = tick * 5 * MS;
            for e in poll(&mut t, now) {
                match e {
                    LivenessEvent::ProbeDue { channel: 1, nonce } => {
                        t.on_probe_ack(1, nonce, now);
                    }
                    LivenessEvent::ChannelDead(c) => {
                        assert_eq!(c, 0);
                        dead_at.get_or_insert(now);
                    }
                    _ => {}
                }
            }
        }
        let at = dead_at.expect("channel 0 must die");
        assert!((30 * MS..=40 * MS).contains(&at), "died at {at}");
        assert_eq!(t.health(0), ChannelHealth::Dead);
        assert_eq!(t.health(1), ChannelHealth::Live);
        assert_eq!(t.live_mask(), vec![false, true]);
        assert_eq!(t.deaths(), 1);
    }

    #[test]
    fn dead_channel_probes_back_off_exponentially() {
        let cfg = LivenessConfig::with_interval(10 * MS); // backoff cap 80ms
        let mut t = LivenessTracker::new(1, cfg, 0);
        let mut probe_times = Vec::new();
        for tick in 1..200u64 {
            let now = tick * 5 * MS;
            for e in poll(&mut t, now) {
                if matches!(e, LivenessEvent::ProbeDue { .. }) {
                    probe_times.push(now);
                }
            }
        }
        // Gaps between consecutive probes grow then plateau at the cap.
        let gaps: Vec<u64> = probe_times.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.first().unwrap() <= &(15 * MS));
        assert_eq!(*gaps.last().unwrap(), 80 * MS, "gaps: {gaps:?}");
        let max = gaps.iter().max().unwrap();
        assert_eq!(*max, 80 * MS, "capped at 8x");
    }

    #[test]
    fn recovery_restores_live_and_base_interval() {
        let cfg = LivenessConfig::with_interval(10 * MS);
        let mut t = LivenessTracker::new(1, cfg, 0);
        let mut last_nonce = 0;
        for tick in 1..40u64 {
            for e in poll(&mut t, tick * 5 * MS) {
                if let LivenessEvent::ProbeDue { nonce, .. } = e {
                    last_nonce = nonce;
                }
            }
        }
        assert_eq!(t.health(0), ChannelHealth::Dead);
        assert!(t.on_probe_ack(0, last_nonce, 200 * MS), "recovered");
        assert_eq!(t.health(0), ChannelHealth::Live);
        assert_eq!(t.recoveries(), 1);
        // Next probe one base interval out, not a backed-off one.
        assert_eq!(poll(&mut t, 205 * MS), vec![]);
        assert_eq!(probes(&poll(&mut t, 210 * MS)), vec![0]);
    }

    #[test]
    fn misrouted_ack_does_not_revive() {
        let cfg = LivenessConfig::with_interval(10 * MS);
        let mut t = LivenessTracker::new(2, cfg, 0);
        for tick in 1..40u64 {
            let now = tick * 5 * MS;
            for e in poll(&mut t, now) {
                if let LivenessEvent::ProbeDue { channel: 1, nonce } = e {
                    t.on_probe_ack(1, nonce, now);
                }
            }
        }
        assert_eq!(t.health(0), ChannelHealth::Dead);
        // A channel-1 nonce arriving labelled channel 0 must be ignored.
        let bogus = LivenessTracker::make_nonce(1, 99);
        assert!(!t.on_probe_ack(0, bogus, 300 * MS));
        assert_eq!(t.health(0), ChannelHealth::Dead);
    }

    #[test]
    fn force_dead_skips_the_silence_deadline() {
        let cfg = LivenessConfig::with_interval(10 * MS);
        let mut t = LivenessTracker::new(2, cfg, 0);
        assert!(t.force_dead(0), "newly dead");
        assert!(!t.force_dead(0), "idempotent");
        assert!(!t.force_dead(7), "out of range is a no-op");
        assert_eq!(t.health(0), ChannelHealth::Dead);
        assert_eq!(t.live_mask(), vec![false, true]);
        assert_eq!(t.deaths(), 1);
        // Probing continues on the forced-dead channel; the first ack
        // revives it through the normal recovery path.
        let mut last_nonce = None;
        for tick in 1..40u64 {
            for e in poll(&mut t, tick * 5 * MS) {
                if let LivenessEvent::ProbeDue { channel: 0, nonce } = e {
                    last_nonce = Some(nonce);
                }
            }
        }
        let nonce = last_nonce.expect("dead channel still probed");
        assert!(t.on_probe_ack(0, nonce, 300 * MS), "recovered");
    }

    #[test]
    fn activity_counts_as_life() {
        let cfg = LivenessConfig::with_interval(10 * MS);
        let mut t = LivenessTracker::new(1, cfg, 0);
        for tick in 1..40u64 {
            poll(&mut t, tick * 5 * MS);
        }
        assert_eq!(t.health(0), ChannelHealth::Dead);
        assert!(t.on_activity(0, 300 * MS), "recovered");
    }
}
