//! The epoch'd handshake: one sender, one responder, one dispatcher.
//!
//! Three control exchanges need the same agreement — both ends act on a
//! change exactly once, however the wire loses, duplicates or reorders it:
//! the live mask ([`Control::Membership`]), the per-channel quanta
//! ([`Control::QuantumAnnounce`]) and the §5 reset
//! ([`Control::ResetRequest`]). They differ only in what the announcement
//! carries, so they share one machine. The [`EpochSender`] bumps its epoch
//! and stores the announcement *as the [`Control`] it is sent as*; its
//! driver floods that one borrowed message over the *carriers* (the
//! channels live when it began) and again whenever
//! [`EpochSender::retransmit_due`] holds; the far end's
//! [`ControlResponder`] applies each epoch once and acks on the channel the
//! announcement arrived on; the handshake completes when no carrier is
//! awaited any more. Masks and quanta name an *effective round* a little
//! ahead of the scan and both ends schedule the change there, so every
//! round is played entirely under the old or the new value and the
//! Theorem 3.2 fairness bound holds across the switch.
//!
//! Three rules, each a place where separate copies of this machine once
//! disagreed:
//!
//! - **Acks.** An ack for another epoch, from a channel out of range, or
//!   from a channel not awaited is [`Progress::Ignored`].
//! - **No carrier.** Beginning with no live carrier is
//!   [`HandshakeError::NoCarrier`] and changes nothing — no epoch is spent
//!   on an announcement nothing could carry. A carrier that dies later is
//!   dropped with [`EpochSender::stop_awaiting`]; if every awaited carrier
//!   dies the handshake completes with nobody left to ask, and what the far
//!   end missed is healed by the next announcement or §5 reset.
//! - **First sighting.** A responder applies the first announcement it
//!   ever sees whatever its epoch (it may have restarted under a long-lived
//!   sender), then strictly newer epochs apply, the current one is re-acked
//!   and older ones are dropped. A reset makes the mask and quanta
//!   responders forget — the sender re-teaches both from scratch — but the
//!   reset responder itself outlives the flush it triggers, or a
//!   retransmitted request would flush twice.

use crate::control::{epoch_newer, Control, Epoch};
use crate::membership::{mask_to_vec, vec_to_mask};
use crate::types::ChannelId;

/// Why a handshake could not begin. Every entry point reports one of these
/// instead of panicking: they are reached from timers and liveness edges,
/// where a wiring slip must surface in diagnostics, not take the path down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeError {
    /// More channels than the 16-bit wire mask can carry.
    TooManyChannels {
        /// How many channels were given.
        got: usize,
    },
    /// A live vector that does not cover every channel of the set.
    MaskLength {
        /// The striping-set width.
        expected: usize,
        /// The length of the vector that was given.
        got: usize,
    },
    /// No channel is live to carry the announcement.
    NoCarrier,
    /// A quanta vector that does not cover every channel of the set.
    QuantaArity {
        /// The striping-set width.
        expected: usize,
        /// The length of the vector that was given.
        got: usize,
    },
    /// A quantum the wire codec would reject.
    NonPositiveQuantum {
        /// The offending channel.
        channel: ChannelId,
        /// Its quantum.
        quantum: i64,
    },
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooManyChannels { got } => {
                write!(f, "wire mask holds at most 16 channels, got {got}")
            }
            Self::MaskLength { expected, got } => {
                write!(f, "mask covers {got} channels, the set has {expected}")
            }
            Self::NoCarrier => write!(f, "no live channel to carry the announcement"),
            Self::QuantaArity { expected, got } => {
                write!(f, "quanta cover {got} channels, the set has {expected}")
            }
            Self::NonPositiveQuantum { channel, quantum } => {
                write!(f, "channel {channel} quantum {quantum} is not positive")
            }
        }
    }
}

impl std::error::Error for HandshakeError {}

/// What an ack (or a dropped carrier) did to the in-flight handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// Some carrier is still awaited.
    Pending,
    /// Nothing is awaited any more: the handshake is done.
    Complete,
    /// Nothing changed (see the ack rule in the module docs).
    Ignored,
}

/// Sender half: the epoch, the announcement in flight and who still owes
/// an ack for it. Beginning again supersedes whatever was in flight.
#[derive(Debug, Clone)]
pub struct EpochSender {
    channels: usize,
    epoch: Epoch,
    /// Bit `c` set ⇔ channel `c`'s ack is outstanding.
    awaiting: u16,
    announcement: Option<Control>,
    last_sent_ns: u64,
    completed: u64,
}

impl EpochSender {
    /// A sender for `channels` channels at epoch 0, nothing in flight.
    ///
    /// # Panics
    /// Panics on zero channels or more than 16 (the wire-mask cap). This
    /// is a wiring check at construction, reachable from neither the wire
    /// nor a timer.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0 && channels <= 16, "1..=16 channels");
        Self {
            channels,
            epoch: 0,
            awaiting: 0,
            announcement: None,
            last_sent_ns: 0,
            completed: 0,
        }
    }

    /// Validate `carriers`, then bump the epoch and store what `build`
    /// makes of it and the carrier mask. An error leaves `self` untouched.
    fn begin(
        &mut self,
        carriers: &[bool],
        build: impl FnOnce(Epoch, u16) -> Control,
    ) -> Result<Epoch, HandshakeError> {
        if carriers.len() != self.channels {
            return Err(HandshakeError::MaskLength {
                expected: self.channels,
                got: carriers.len(),
            });
        }
        let mask = vec_to_mask(carriers)?;
        if mask == 0 {
            return Err(HandshakeError::NoCarrier);
        }
        self.epoch = self.epoch.wrapping_add(1);
        self.awaiting = mask;
        self.announcement = Some(build(self.epoch, mask));
        Ok(self.epoch)
    }

    /// Announce a new live mask taking effect at `effective_round`; the
    /// channels live in it are its carriers (dead ones cannot carry the
    /// news).
    pub fn begin_mask(
        &mut self,
        live: &[bool],
        effective_round: u64,
    ) -> Result<Epoch, HandshakeError> {
        self.begin(live, |epoch, live_mask| Control::Membership {
            epoch,
            live_mask,
            effective_round,
        })
    }

    /// Announce new quanta taking effect at `effective_round`, carried by
    /// the channels live in `carriers`.
    pub fn begin_quanta(
        &mut self,
        carriers: &[bool],
        quanta: &[i64],
        effective_round: u64,
    ) -> Result<Epoch, HandshakeError> {
        if quanta.len() != self.channels {
            return Err(HandshakeError::QuantaArity {
                expected: self.channels,
                got: quanta.len(),
            });
        }
        if let Some((channel, &quantum)) = quanta.iter().enumerate().find(|(_, &q)| q <= 0) {
            return Err(HandshakeError::NonPositiveQuantum { channel, quantum });
        }
        self.begin(carriers, |epoch, _| Control::QuantumAnnounce {
            epoch,
            effective_round,
            quanta: quanta.to_vec(),
        })
    }

    /// Request a §5 reset over the channels live in `carriers`. Data must
    /// pause until the handshake completes.
    pub fn begin_reset(&mut self, carriers: &[bool]) -> Result<Epoch, HandshakeError> {
        self.begin(carriers, |epoch, _| Control::ResetRequest { epoch })
    }

    /// The announcement in flight — borrowed, so a flood or retransmission
    /// builds and clones nothing — or `None` when nothing is in flight.
    pub fn announcement(&self) -> Option<&Control> {
        self.announcement.as_ref().filter(|_| self.in_progress())
    }

    /// Channels whose ack is still outstanding.
    pub fn awaiting_channels(&self) -> impl Iterator<Item = ChannelId> + '_ {
        (0..self.channels).filter(|&c| self.awaiting & (1 << c) != 0)
    }

    /// An ack for `epoch` arrived on `channel`.
    pub fn on_ack(&mut self, channel: ChannelId, epoch: Epoch) -> Progress {
        if epoch != self.epoch {
            return Progress::Ignored;
        }
        self.stop_awaiting(channel)
    }

    /// Stop awaiting `channel` — it acked, or it died and never will.
    /// Completes the handshake if it was the last one awaited.
    pub fn stop_awaiting(&mut self, channel: ChannelId) -> Progress {
        if channel >= self.channels || self.awaiting & (1 << channel) == 0 {
            return Progress::Ignored;
        }
        self.awaiting &= !(1 << channel);
        if self.awaiting != 0 {
            return Progress::Pending;
        }
        self.completed += 1;
        Progress::Complete
    }

    /// Whether an announcement is still awaiting acks.
    pub fn in_progress(&self) -> bool {
        self.awaiting != 0
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Handshakes completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Record that the announcement was just flooded at `now_ns`.
    pub fn mark_sent(&mut self, now_ns: u64) {
        self.last_sent_ns = now_ns;
    }

    /// Whether an announcement is in flight and was last flooded at least
    /// `interval_ns` ago — request or ack loss must not wedge a handshake.
    pub fn retransmit_due(&self, now_ns: u64, interval_ns: u64) -> bool {
        self.in_progress() && now_ns.saturating_sub(self.last_sent_ns) >= interval_ns
    }
}

/// What a responder makes of an announced epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// First sighting or strictly newer: act on it, then ack.
    Apply,
    /// The current epoch again (a retransmission, or the same flood on
    /// another channel): re-ack — the first ack may have been lost — but
    /// do not act twice.
    Duplicate,
    /// Older than the current epoch: drop silently.
    Stale,
}

/// Responder half: the newest epoch applied, if any.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochResponder {
    epoch: Epoch,
    seen: bool,
}

impl EpochResponder {
    /// Judge an announcement for `epoch` (see the first-sighting rule in
    /// the module docs).
    pub fn on_announce(&mut self, epoch: Epoch) -> Verdict {
        if !self.seen || epoch_newer(epoch, self.epoch) {
            *self = Self { epoch, seen: true };
            Verdict::Apply
        } else if epoch == self.epoch {
            Verdict::Duplicate
        } else {
            Verdict::Stale
        }
    }
}

/// What the receiving endpoint must do for a control message; the
/// [`ControlResponder`] decides, its owner carries it out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect<'a> {
    /// Nothing to apply.
    None,
    /// Schedule a membership mask.
    Mask {
        /// Round at which the mask takes effect.
        round: u64,
        /// The decoded live vector, one entry per channel.
        live: Vec<bool>,
    },
    /// Schedule new quanta.
    Quanta {
        /// Round at which the quanta take effect.
        round: u64,
        /// One positive quantum per channel.
        quanta: &'a [i64],
    },
    /// §5 flush: drop buffered arrivals, restart every simulation from
    /// `s0`, forget any remembered mask and quanta.
    Flush,
}

/// Receiver-side dispatcher: the responder halves of the three handshakes
/// plus the probe echo, behind one entry point.
#[derive(Debug, Clone)]
pub struct ControlResponder {
    mask: EpochResponder,
    quanta: EpochResponder,
    reset: EpochResponder,
    incarnation: u64,
}

impl ControlResponder {
    /// A responder that has seen nothing, reporting `incarnation` in its
    /// probe acks (see [`crate::reset::fresh_incarnation`]).
    pub fn new(incarnation: u64) -> Self {
        Self {
            mask: EpochResponder::default(),
            quanta: EpochResponder::default(),
            reset: EpochResponder::default(),
            incarnation,
        }
    }

    /// The incarnation nonce reported in probe acks.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// A control message arrived on a striping set `channels` wide: what
    /// to apply, and the reply to send back on the channel it arrived on.
    /// Masks naming channels that do not exist and quanta of the wrong
    /// arity or sign are dropped unanswered; messages this end does not
    /// answer (markers, acks, alerts) yield nothing.
    pub fn on_control<'a>(
        &mut self,
        ctl: &'a Control,
        channels: usize,
    ) -> (Effect<'a>, Option<Control>) {
        let (responder, epoch, ack, effect) = match ctl {
            Control::Probe { nonce } => {
                let ack = Control::ProbeAck {
                    nonce: *nonce,
                    incarnation: self.incarnation,
                };
                return (Effect::None, Some(ack));
            }
            &Control::ResetRequest { epoch } => (
                &mut self.reset,
                epoch,
                Control::ResetAck { epoch },
                Effect::Flush,
            ),
            &Control::Membership {
                epoch,
                live_mask,
                effective_round: round,
            } if live_mask != 0 && (channels >= 16 || live_mask >> channels == 0) => (
                &mut self.mask,
                epoch,
                Control::MembershipAck { epoch },
                Effect::Mask {
                    round,
                    live: mask_to_vec(live_mask, channels),
                },
            ),
            Control::QuantumAnnounce {
                epoch,
                effective_round: round,
                quanta,
            } if quanta.len() == channels && quanta.iter().all(|&q| q > 0) => (
                &mut self.quanta,
                *epoch,
                Control::QuantumAck { epoch: *epoch },
                Effect::Quanta {
                    round: *round,
                    quanta,
                },
            ),
            _ => return (Effect::None, None),
        };
        match responder.on_announce(epoch) {
            Verdict::Apply => {
                if effect == Effect::Flush {
                    self.mask = EpochResponder::default();
                    self.quanta = EpochResponder::default();
                }
                (effect, Some(ack))
            }
            Verdict::Duplicate => (Effect::None, Some(ack)),
            Verdict::Stale => (Effect::None, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row per handshake: how a sender begins it over `carriers`, the
    /// announcement as it reaches a two-channel responder, and its ack.
    /// Every test runs over all rows — the three kinds are one machine.
    struct Kind {
        begin: fn(&mut EpochSender, &[bool]) -> Result<Epoch, HandshakeError>,
        announce: fn(Epoch) -> Control,
        ack: fn(Epoch) -> Control,
    }

    const MASK: Kind = Kind {
        begin: |s, carriers| s.begin_mask(carriers, 42),
        announce: |epoch| Control::Membership {
            epoch,
            live_mask: 0b11,
            effective_round: 42,
        },
        ack: |epoch| Control::MembershipAck { epoch },
    };
    const QUANTA: Kind = Kind {
        begin: |s, carriers| s.begin_quanta(carriers, &vec![600; s.channels], 42),
        announce: |epoch| Control::QuantumAnnounce {
            epoch,
            effective_round: 42,
            quanta: vec![600, 300],
        },
        ack: |epoch| Control::QuantumAck { epoch },
    };
    const RESET: Kind = Kind {
        begin: |s, carriers| s.begin_reset(carriers),
        announce: |epoch| Control::ResetRequest { epoch },
        ack: |epoch| Control::ResetAck { epoch },
    };
    const KINDS: [Kind; 3] = [MASK, QUANTA, RESET];

    fn awaiting(s: &EpochSender) -> Vec<ChannelId> {
        s.awaiting_channels().collect()
    }

    fn applied(r: &mut ControlResponder, ctl: &Control) -> bool {
        r.on_control(ctl, 2).0 != Effect::None
    }

    #[test]
    fn announcement_is_stored_as_the_control_it_is_sent_as() {
        let mut s = EpochSender::new(3);
        s.begin_mask(&[true, false, true], 42).unwrap();
        let mask = Control::Membership {
            epoch: 1,
            live_mask: 0b101,
            effective_round: 42,
        };
        assert_eq!(s.announcement(), Some(&mask));
        s.begin_quanta(&[true; 3], &[6000, 3000, 1500], 43).unwrap();
        let quanta = Control::QuantumAnnounce {
            epoch: 2,
            effective_round: 43,
            quanta: vec![6000, 3000, 1500],
        };
        assert_eq!(s.announcement(), Some(&quanta));
        s.begin_reset(&[true; 3]).unwrap();
        assert_eq!(s.announcement(), Some(&Control::ResetRequest { epoch: 3 }));
    }

    /// Rule (i): flooded on and completed by the carriers alone; an ack
    /// that is idle, stale, duplicate, out of range or from a channel
    /// never awaited is `Ignored`.
    #[test]
    fn completes_on_carrier_acks_and_ignores_the_rest() {
        for kind in &KINDS {
            let mut s = EpochSender::new(3);
            assert_eq!(s.on_ack(0, 0), Progress::Ignored, "nothing in flight");
            assert_eq!(s.announcement(), None);
            assert_eq!((kind.begin)(&mut s, &[true, false, true]), Ok(1));
            assert_eq!(awaiting(&s), vec![0, 2]);
            assert_eq!(s.on_ack(0, 0), Progress::Ignored, "stale epoch");
            assert_eq!(s.on_ack(0, 1), Progress::Pending);
            assert_eq!(s.on_ack(0, 1), Progress::Ignored, "duplicate");
            assert_eq!(s.on_ack(1, 1), Progress::Ignored, "never awaited");
            assert_eq!(s.on_ack(7, 1), Progress::Ignored, "out of range");
            assert_eq!(awaiting(&s), vec![2], "a timer readdresses only these");
            assert_eq!(s.on_ack(2, 1), Progress::Complete);
            assert!(!s.in_progress());
            assert_eq!(s.announcement(), None, "nothing left to retransmit");
            assert_eq!(s.completed(), 1);
        }
    }

    #[test]
    fn superseding_announcement_restarts_the_handshake() {
        for kind in &KINDS {
            let mut s = EpochSender::new(2);
            (kind.begin)(&mut s, &[true, true]).unwrap();
            assert_eq!(s.on_ack(0, 1), Progress::Pending);
            // Begun again before the old one completes: new epoch, both
            // channels awaited again, the old epoch's ack now ignored.
            (kind.begin)(&mut s, &[true, true]).unwrap();
            assert_eq!((s.epoch(), awaiting(&s)), (2, vec![0, 1]));
            assert_eq!(s.on_ack(1, 1), Progress::Ignored);
            assert_eq!(s.on_ack(0, 2), Progress::Pending);
            assert_eq!(s.on_ack(1, 2), Progress::Complete);
        }
    }

    /// Rule (ii) and the typed errors: a begin that cannot proceed reports
    /// why and spends no epoch; the next valid one is epoch 1.
    #[test]
    fn failed_begin_changes_nothing() {
        use HandshakeError::*;
        for kind in &KINDS {
            let mut s = EpochSender::new(2);
            let (expected, got) = (2, 3);
            assert_eq!(
                (kind.begin)(&mut s, &[true, false, true]),
                Err(MaskLength { expected, got })
            );
            assert_eq!((kind.begin)(&mut s, &[false, false]), Err(NoCarrier));
            assert_eq!((s.epoch(), s.in_progress()), (0, false));
            // Recovery: one channel comes back; a normal handshake runs.
            assert_eq!((kind.begin)(&mut s, &[true, false]), Ok(1));
            assert_eq!(s.on_ack(0, 1), Progress::Complete);
        }
        let mut s = EpochSender::new(2);
        let (expected, got, channel, quantum) = (2, 1, 1, 0);
        assert_eq!(
            s.begin_quanta(&[true, true], &[500], 0),
            Err(QuantaArity { expected, got })
        );
        assert_eq!(
            s.begin_quanta(&[true, true], &[500, 0], 0),
            Err(NonPositiveQuantum { channel, quantum })
        );
        assert_eq!(s.epoch(), 0);
    }

    /// A carrier that dies is dropped, completing the handshake if it was
    /// the last one awaited — waiting on it would wedge the sender forever.
    #[test]
    fn dead_carrier_is_not_awaited() {
        for kind in &KINDS {
            let mut s = EpochSender::new(3);
            (kind.begin)(&mut s, &[true; 3]).unwrap();
            assert_eq!(s.on_ack(0, 1), Progress::Pending);
            assert_eq!(s.stop_awaiting(2), Progress::Pending);
            assert_eq!(s.stop_awaiting(2), Progress::Ignored);
            assert_eq!(s.stop_awaiting(1), Progress::Complete);
            assert!(!s.in_progress());
        }
    }

    #[test]
    fn retransmission_is_due_only_in_flight_and_after_the_interval() {
        for kind in &KINDS {
            let mut s = EpochSender::new(1);
            assert!(!s.retransmit_due(1_000, 100), "nothing in flight");
            (kind.begin)(&mut s, &[true]).unwrap();
            s.mark_sent(1_000);
            assert!(!s.retransmit_due(1_099, 100));
            assert!(s.retransmit_due(1_100, 100));
            s.on_ack(0, 1);
            assert!(!s.retransmit_due(9_999, 100), "complete");
        }
    }

    /// A lossy closed loop through the real dispatcher: the announcement
    /// on channel 1 is lost and retransmitted, and the far end acts once
    /// per epoch — not once per channel or per copy — re-acking the rest
    /// (the first ack may have been lost).
    #[test]
    fn lost_announcements_are_retransmitted_and_applied_once() {
        for kind in &KINDS {
            let mut s = EpochSender::new(2);
            let mut r = ControlResponder::new(9);
            (kind.begin)(&mut s, &[true, true]).unwrap();
            let msg = s.announcement().unwrap().clone();
            let (effect, ack) = r.on_control(&msg, 2);
            assert_ne!(effect, Effect::None, "first sighting must apply");
            assert_eq!(ack, Some((kind.ack)(1)));
            assert_eq!(s.on_ack(0, 1), Progress::Pending);
            // A duplicate on channel 0, then the retransmission on 1.
            for _ in 0..2 {
                assert_eq!(r.on_control(&msg, 2), (Effect::None, Some((kind.ack)(1))));
            }
            assert_eq!(s.on_ack(1, 1), Progress::Complete);
        }
    }

    /// Rule (iii): the first announcement ever seen applies whatever its
    /// epoch; then newer applies (circularly), equal re-acks, older drops.
    #[test]
    fn responder_orders_epochs_circularly_from_its_first_sighting() {
        for kind in &KINDS {
            // Far from 0 in either direction: not "newer than a fresh 0".
            let mut r = ControlResponder::new(9);
            assert!(applied(&mut r, &(kind.announce)(u32::MAX / 2 + 7)));
            let mut r = ControlResponder::new(9);
            assert!(applied(&mut r, &(kind.announce)(5)));
            let older = (kind.announce)(4);
            assert_eq!(r.on_control(&older, 2), (Effect::None, None), "silent");
            let mut r = ControlResponder::new(9);
            assert!(applied(&mut r, &(kind.announce)(u32::MAX)));
            assert!(applied(&mut r, &(kind.announce)(0)), "0 follows MAX");
            assert!(!applied(&mut r, &(kind.announce)(u32::MAX)), "now stale");
        }
    }

    /// Effects carry the decoded payload; masks naming absent channels and
    /// quanta of the wrong arity or sign are dropped unanswered and
    /// consume nothing.
    #[test]
    fn payloads_are_decoded_and_malformed_ones_dropped() {
        let mut r = ControlResponder::new(9);
        let mask = |live_mask| Control::Membership {
            epoch: 1,
            live_mask,
            effective_round: 42,
        };
        let quanta = |quanta: &[i64]| Control::QuantumAnnounce {
            epoch: 1,
            effective_round: 42,
            quanta: quanta.to_vec(),
        };
        // Empty mask; bit 3 set but only 2 channels exist; wrong arity
        // either way; non-positive quantum (belt and braces over the codec).
        for bad in [
            mask(0),
            mask(0b1000),
            quanta(&[500]),
            quanta(&[500, 500, 500]),
            quanta(&[500, 0]),
        ] {
            assert_eq!(r.on_control(&bad, 2), (Effect::None, None), "{bad:?}");
        }
        // Epoch 1 is still a first sighting for both.
        let (round, live) = (42, vec![true, false]);
        assert_eq!(r.on_control(&mask(0b01), 2).0, Effect::Mask { round, live });
        let retune = quanta(&[600, 300]);
        let quanta = &[600, 300][..];
        assert_eq!(r.on_control(&retune, 2).0, Effect::Quanta { round, quanta });
    }

    /// The reset responder outlives the flush it triggers; the mask and
    /// quanta responders are forgotten by it.
    #[test]
    fn flush_forgets_mask_and_quanta_but_not_the_reset_epoch() {
        let mut r = ControlResponder::new(9);
        assert!(applied(&mut r, &(MASK.announce)(5)));
        assert!(applied(&mut r, &(QUANTA.announce)(5)));
        let reset = (RESET.announce)(1);
        assert_eq!(r.on_control(&reset, 2).0, Effect::Flush);
        assert_eq!(
            r.on_control(&reset, 2),
            (Effect::None, Some((RESET.ack)(1))),
            "a retransmitted request must not flush twice"
        );
        // Epoch 3 would be stale against 5; after the flush it is a first
        // sighting again — the sender re-teaches from whatever epoch it has.
        assert!(applied(&mut r, &(MASK.announce)(3)));
        assert!(applied(&mut r, &(QUANTA.announce)(3)));
    }

    #[test]
    fn probes_echo_nonce_and_incarnation_and_the_rest_is_ignored() {
        let mut r = ControlResponder::new(9);
        let (nonce, incarnation) = (77, 9);
        assert_eq!(
            r.on_control(&Control::Probe { nonce }, 2),
            (Effect::None, Some(Control::ProbeAck { nonce, incarnation }))
        );
        for other in [(RESET.ack)(1), Control::DesyncAlert { incarnation }] {
            assert_eq!(r.on_control(&other, 2), (Effect::None, None));
        }
    }
}
