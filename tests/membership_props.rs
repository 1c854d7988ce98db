//! Property tests for the epoch'd handshake, run over all three of its
//! uses — membership masks, quantum retunes, §5 resets — through the real
//! receiver-side dispatcher: the protocol must survive duplicated,
//! reordered, and stale announcements (including epoch wraparound)
//! without ever letting the receiver's simulation diverge from the
//! sender's, and no entry point may panic on arbitrary input.

use proptest::prelude::*;

use stripe::core::control::{Control, Epoch};
use stripe::core::handshake::{ControlResponder, Effect, EpochSender};
use stripe::core::membership::mask_to_vec;
use stripe::core::sched::{CausalScheduler, Srr};

const N: usize = 4;
const ALL: [bool; N] = [true; N];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Mask,
    Quanta,
    Reset,
}

const KINDS: [Kind; 3] = [Kind::Mask, Kind::Quanta, Kind::Reset];

/// The quanta vector a 4-bit seed stands for: distinct seeds, distinct
/// vectors.
fn quanta_of(seed: u16) -> Vec<i64> {
    mask_to_vec(seed, N)
        .iter()
        .map(|&hi| if hi { 3000 } else { 1000 })
        .collect()
}

/// Begin change `seed` of `kind` at `eff` and mirror it on the sender's
/// own scheduler the way a driver does (a reset pauses data, so applying
/// it at once is applying it on completion). Returns the flood: one
/// `(channel, announcement)` per carrier.
fn announce(
    kind: Kind,
    sender: &mut EpochSender,
    tx: &mut Srr,
    seed: u16,
    eff: u64,
) -> Vec<(usize, Control)> {
    match kind {
        Kind::Mask => {
            let live = mask_to_vec(seed, N);
            tx.schedule_mask(eff, &live);
            sender.begin_mask(&live, eff)
        }
        Kind::Quanta => {
            tx.schedule_quanta(eff, &quanta_of(seed));
            sender.begin_quanta(&ALL, &quanta_of(seed), eff)
        }
        Kind::Reset => {
            tx.reset();
            sender.begin_reset(&ALL)
        }
    }
    .expect("valid change");
    let msg = sender.announcement().expect("just begun").clone();
    sender
        .awaiting_channels()
        .map(|c| (c, msg.clone()))
        .collect()
}

fn epoch_of(ctl: &Control) -> Epoch {
    match ctl {
        Control::Membership { epoch, .. }
        | Control::QuantumAnnounce { epoch, .. }
        | Control::ResetRequest { epoch } => *epoch,
        other => panic!("not an announcement: {other:?}"),
    }
}

/// Feed one flood (with `extra_copies` duplicates) through the dispatcher,
/// carrying out every effect on the receiver scheduler and recording each
/// announcement that was applied.
fn deliver(
    responder: &mut ControlResponder,
    rx: &mut Srr,
    msgs: &[(usize, Control)],
    extra_copies: usize,
    applied: &mut Vec<Control>,
) {
    for _ in 0..=extra_copies {
        for (_, ctl) in msgs {
            match responder.on_control(ctl, N).0 {
                Effect::None => continue,
                Effect::Mask { round, live } => rx.schedule_mask(round, &live),
                Effect::Quanta { round, quanta } => rx.schedule_quanta(round, quanta),
                Effect::Flush => rx.reset(),
            }
            applied.push(ctl.clone());
        }
    }
}

/// The responder's newest epoch for `ctl`'s kind is `ctl`'s own: hearing it
/// again is a duplicate — re-acked, not applied.
fn is_current(responder: &mut ControlResponder, ctl: &Control) -> bool {
    matches!(responder.on_control(ctl, N), (Effect::None, Some(_)))
}

/// Both schedulers make the same decision for the next packet.
fn assert_lockstep(tx: &Srr, rx: &Srr, i: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(tx.current(), rx.current(), "diverged at packet {}", i);
    prop_assert_eq!(tx.round(), rx.round());
    for c in 0..N {
        prop_assert_eq!(
            CausalScheduler::live(tx, c),
            CausalScheduler::live(rx, c),
            "live mask diverged at packet {}",
            i
        );
    }
    Ok(())
}

fn arb_control() -> impl Strategy<Value = Control> {
    let quanta = prop::collection::vec(-2i64..5000, 0..20);
    prop_oneof![
        (any::<u32>(), any::<u16>(), any::<u64>()).prop_map(|(epoch, live_mask, r)| {
            Control::Membership {
                epoch,
                live_mask,
                effective_round: r,
            }
        }),
        (any::<u32>(), any::<u64>(), quanta).prop_map(|(epoch, r, quanta)| {
            Control::QuantumAnnounce {
                epoch,
                effective_round: r,
                quanta,
            }
        }),
        any::<u32>().prop_map(|epoch| Control::ResetRequest { epoch }),
        any::<u32>().prop_map(|epoch| Control::ResetAck { epoch }),
        any::<u32>().prop_map(|epoch| Control::MembershipAck { epoch }),
        any::<u32>().prop_map(|epoch| Control::QuantumAck { epoch }),
        any::<u64>().prop_map(|nonce| Control::Probe { nonce }),
        any::<u64>().prop_map(|incarnation| Control::DesyncAlert { incarnation }),
    ]
}

proptest! {
    /// Adversarial delivery: every epoch's announcement enters a bag with
    /// duplicates, the bag is arbitrarily reordered (so stale epochs can
    /// arrive *after* newer ones), and the whole bag is delivered. The
    /// responder must apply each epoch at most once, never regress to an
    /// older epoch, and end exactly on the sender's current announcement.
    #[test]
    fn handshake_converges_under_dup_reorder_stale(
        masks in prop::collection::vec(1u16..16, 1..8),
        dup in prop::collection::vec(0usize..3, 8),
        swaps in prop::collection::vec((0usize..128, 0usize..128), 0..48),
    ) {
        for kind in KINDS {
            let mut sender = EpochSender::new(N);
            let mut tx = Srr::equal(N, 1500);
            let mut bag: Vec<(usize, Control)> = Vec::new();
            for (i, &m) in masks.iter().enumerate() {
                let msgs = announce(kind, &mut sender, &mut tx, m, (i as u64 + 1) * 10);
                for _ in 0..=dup[i % dup.len()] {
                    bag.extend(msgs.iter().cloned());
                }
            }
            let current = bag.last().expect("at least one change").1.clone();
            // Arbitrary reorder via index swaps.
            let len = bag.len();
            for &(a, b) in &swaps {
                bag.swap(a % len, b % len);
            }
            let mut responder = ControlResponder::new(1);
            let mut rx = Srr::equal(N, 1500);
            let mut applied: Vec<Control> = Vec::new();
            deliver(&mut responder, &mut rx, &bag, 0, &mut applied);

            // Each epoch applied at most once.
            let mut epochs: Vec<u32> = applied.iter().map(epoch_of).collect();
            let unique = epochs.len();
            epochs.dedup();
            prop_assert_eq!(epochs.len(), unique, "an epoch was applied twice");
            // Applied epochs are strictly increasing: no regression to stale.
            for w in epochs.windows(2) {
                prop_assert!(w[1] > w[0], "epoch regressed: {:?}", applied);
            }
            // Convergence: the responder ends on the sender's current state.
            prop_assert_eq!(epoch_of(&current), sender.epoch());
            prop_assert!(is_current(&mut responder, &current));
            prop_assert_eq!(applied.last(), Some(&current), "newest epoch must apply last");
        }
    }

    /// Epoch wraparound: a sequence of epochs marching through u32::MAX,
    /// delivered with duplicates of each, must keep applying in wrapping
    /// order — the comparison is circular, not magnitude-based.
    #[test]
    fn responder_applies_across_epoch_wrap(
        start_offset in 0u32..6,
        count in 2u32..10,
        masks in prop::collection::vec(1u16..16, 10),
    ) {
        let start = u32::MAX - start_offset;
        for kind in KINDS {
            let mut responder = ControlResponder::new(1);
            let mut applied = Vec::new();
            for i in 0..count {
                let epoch = start.wrapping_add(i);
                let seed = masks[i as usize % masks.len()];
                let ctl = match kind {
                    Kind::Mask => Control::Membership { epoch, live_mask: seed, effective_round: 0 },
                    Kind::Quanta => Control::QuantumAnnounce {
                        epoch,
                        effective_round: 0,
                        quanta: quanta_of(seed),
                    },
                    Kind::Reset => Control::ResetRequest { epoch },
                };
                // Deliver twice: the duplicate must re-ack, not re-apply.
                for attempt in 0..2 {
                    let (effect, ack) = responder.on_control(&ctl, N);
                    prop_assert!(ack.is_some(), "wrap treated as stale");
                    if effect == Effect::None {
                        prop_assert_eq!(attempt, 1, "first sighting not applied");
                    } else {
                        prop_assert_eq!(attempt, 0, "duplicate re-applied");
                        applied.push(epoch);
                    }
                }
            }
            prop_assert_eq!(applied.len(), count as usize);
            prop_assert_eq!(applied.last(), Some(&start.wrapping_add(count - 1)));
        }
    }

    /// The invariant everything else exists for: through a change and its
    /// undoing (a shrink and a grow, a retune and the retune back, two
    /// resets — with duplicated announcements), the receiver's simulation
    /// makes byte-for-byte identical channel decisions to the sender's
    /// scheduler — the live masks never diverge.
    #[test]
    fn simulation_stays_in_lockstep_through_shrink_and_grow(
        shrink_mask in 1u16..15, // at least one bit clear of 0b1111
        lens in prop::collection::vec(40usize..1500, 120..240),
        dup in 0usize..3,
        lead in 1u64..4,
    ) {
        for kind in KINDS {
            let mut tx = Srr::equal(N, 1500);
            let mut rx = Srr::equal(N, 1500);
            let mut sender = EpochSender::new(N);
            let mut responder = ControlResponder::new(1);
            let mut applied = Vec::new();

            let phase = lens.len() / 3;
            for (i, &len) in lens.iter().enumerate() {
                // An arbitrary proper subset at one third, the full set
                // back at two thirds.
                let changes = [(phase, shrink_mask), (2 * phase, 0b1111)];
                if let Some(&(_, seed)) = changes.iter().find(|&&(at, _)| at == i) {
                    let eff = tx.round() + lead;
                    let msgs = announce(kind, &mut sender, &mut tx, seed, eff);
                    deliver(&mut responder, &mut rx, &msgs, dup, &mut applied);
                }
                assert_lockstep(&tx, &rx, i)?;
                tx.advance(len);
                rx.advance(len);
            }
            prop_assert_eq!(applied.len(), 2, "both changes applied exactly once");
        }
    }

    /// The rejoin path: a second change announced while the
    /// first is still in flight (a membership *grow* on top of its own
    /// shrink — the channel flapped faster than the wire). Whatever the
    /// interleaving and however many retransmits, the newer change applies
    /// exactly once per epoch, a retransmit storm after convergence is
    /// pure re-ack, and the responder ends on the sender's epoch and
    /// announcement.
    #[test]
    fn grow_applies_once_against_in_flight_shrink(
        shrink_mask in 1u16..15, // at least one bit clear of 0b1111
        lens in prop::collection::vec(40usize..1500, 60..160),
        dup in 0usize..3,
        retransmits in 1usize..3,
        grow_first in any::<bool>(),
        lead in 1u64..4,
    ) {
        for kind in KINDS {
            let mut tx = Srr::equal(N, 1500);
            let mut rx = Srr::equal(N, 1500);
            let mut sender = EpochSender::new(N);
            let mut responder = ControlResponder::new(1);
            let mut applied: Vec<Control> = Vec::new();

            // A channel dies: shrink announced, applied to the sender's own
            // scheduler, but **not yet delivered**.
            let eff_shrink = tx.round() + lead;
            let shrink_msgs = announce(kind, &mut sender, &mut tx, shrink_mask, eff_shrink);
            let shrink_epoch = sender.epoch();

            // The channel probes back before the shrink lands: grow
            // announced on top, newer epoch, later effective round.
            let eff_grow = eff_shrink + lead;
            let grow_msgs = announce(kind, &mut sender, &mut tx, 0b1111, eff_grow);
            let grow_epoch = sender.epoch();
            let grow = grow_msgs[0].1.clone();
            prop_assert_ne!(grow_epoch, shrink_epoch);

            // Both hit the receiver in either order, each retransmitted.
            let bags = if grow_first {
                [&grow_msgs, &shrink_msgs]
            } else {
                [&shrink_msgs, &grow_msgs]
            };
            for _ in 0..retransmits {
                for bag in bags {
                    deliver(&mut responder, &mut rx, bag, dup, &mut applied);
                }
            }

            // The grow applied exactly once, and as the final word — a
            // shrink arriving after it (reordered or retransmitted) is
            // stale and must not un-apply the rejoin.
            prop_assert_eq!(
                applied.iter().filter(|c| epoch_of(c) == grow_epoch).count(),
                1,
                "grow must apply exactly once"
            );
            prop_assert_eq!(applied.last(), Some(&grow), "stale shrink applied after the grow");
            prop_assert_eq!(grow_epoch, sender.epoch());
            prop_assert!(is_current(&mut responder, &grow));

            // Retransmit storm after convergence: pure re-ack, no re-apply.
            let before = applied.len();
            for bag in bags {
                deliver(&mut responder, &mut rx, bag, dup + 1, &mut applied);
            }
            prop_assert_eq!(applied.len(), before, "retransmit re-applied a change");

            // In the common wire order (shrink heard first), the receiver
            // saw exactly what the sender scheduled and the simulation
            // stays in per-packet lockstep through the two-change window.
            if !grow_first {
                for (i, &len) in lens.iter().enumerate() {
                    assert_lockstep(&tx, &rx, i)?;
                    tx.advance(len);
                    rx.advance(len);
                }
            }
        }
    }

    /// No entry point panics: arbitrary widths, carriers and quanta into
    /// the sender yield a typed error that changes nothing; arbitrary
    /// control messages into the dispatcher yield only effects a scheduler
    /// of that width accepts.
    #[test]
    fn no_entry_point_panics(
        channels in 1usize..=16,
        carriers in prop::collection::vec(any::<bool>(), 0..20),
        quanta in prop::collection::vec(-2i64..5000, 0..20),
        eff in any::<u64>(),
        wire in prop::collection::vec(arb_control(), 1..12),
    ) {
        let mut sender = EpochSender::new(channels);
        for kind in KINDS {
            let before = (sender.epoch(), sender.announcement().cloned());
            let begun = match kind {
                Kind::Mask => sender.begin_mask(&carriers, eff),
                Kind::Quanta => sender.begin_quanta(&carriers, &quanta, eff),
                Kind::Reset => sender.begin_reset(&carriers),
            };
            match begun {
                Ok(epoch) => {
                    prop_assert_eq!(epoch, before.0.wrapping_add(1));
                    prop_assert!(carriers.len() == channels && carriers.contains(&true));
                    let msg = sender.announcement().expect("in flight").clone();
                    prop_assert_eq!(Control::decode(&msg.encode()), Some(msg));
                }
                Err(_) => {
                    prop_assert_eq!((sender.epoch(), sender.announcement().cloned()), before);
                }
            }
        }
        let mut responder = ControlResponder::new(1);
        let mut rx = Srr::equal(channels, 1500);
        for ctl in &wire {
            match responder.on_control(ctl, channels).0 {
                Effect::None => {}
                Effect::Mask { round, live } => rx.schedule_mask(round, &live),
                Effect::Quanta { round, quanta } => rx.schedule_quanta(round, quanta),
                Effect::Flush => rx.reset(),
            }
        }
    }
}
