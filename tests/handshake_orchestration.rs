//! The failover driver's three epoch'd handshakes — the live mask, the §5
//! reset and the quanta retune — against a real responder, for every event
//! sequence up to a small depth.
//!
//! The world is the production [`FailoverDriver`] over a recording
//! [`ControlPath`] (`Wire`), a real [`ControlResponder`] as the far end,
//! and on each of three channels one FIFO of control messages in flight,
//! both directions. Every sequence of up to [`DEPTH`] events (seven in the
//! ignored deeper run) runs from a fresh world, the events being:
//!
//! - `Deliver(c)` / `Drop(c)`: the oldest message in flight on channel `c`
//!   arrives / is lost;
//! - `Die(c)`: the link layer reports `c` dead, and what was in flight on
//!   it is lost;
//! - `Recover(c)`: a probe ack arrives on dead `c`;
//! - `Blackout`: every live channel dies at once;
//! - `Propose`: the tuner proposes quanta (two vectors, taken in turn);
//! - `Desync`: the receiver raises a `DesyncAlert`.
//!
//! No time passes between events. After each one the harness does what
//! `ServerReactor::poll` does with a completed reset: flush the local
//! engines, then `reannounce`. The properties, each named in the panic
//! that reports it with the event sequence that broke it:
//!
//! - **no sender awaits a dead channel outside a blackout** — read off the
//!   mask and retune senders after every event, and off the wire for all
//!   three kinds: one retransmission timer later, no announcement goes to
//!   a dead channel (a completion by attrition must not wedge a sender);
//! - **a completed reset leaves the quanta in force re-announced** — the
//!   schedulers are back on their initial quanta on both ends;
//! - **epochs are monotone per kind** — on the wire, every announcement's
//!   epoch is at least the last one of its kind;
//! - **both ends agree once healed** — from every state reached: every
//!   channel recovers, every message is delivered and retransmission
//!   timers fire until nothing is in flight; then the responder's mask and
//!   quanta, and the local schedulers', equal the driver's;
//! - **nothing panics** — any panic in an entry point reports its trace.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use stripe::core::control::{Control, Epoch};
use stripe::core::handshake::{ControlResponder, Effect};
use stripe::core::liveness::ChannelHealth;
use stripe::core::types::ChannelId;
use stripe::netsim::{SimDuration, SimTime};
use stripe::transport::{ControlPath, ControlTransmission, FailoverConfig, FailoverDriver};

const N: usize = 3;
/// Events per sequence in the tier-1 run; the ignored run goes deeper.
const DEPTH: usize = 5;
const INCARNATION: u64 = 7;
const PROBE_NS: u64 = 1_000_000;
const INITIAL: [i64; N] = [1500; N];
const PROPOSALS: [[i64; N]; 2] = [[3000, 1500, 750], [750, 1500, 3000]];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Deliver(ChannelId),
    Drop(ChannelId),
    Die(ChannelId),
    Recover(ChannelId),
    Blackout,
    Propose,
    Desync,
}

/// A control message in flight: toward the responder, or its reply.
#[derive(Debug, Clone)]
enum Msg {
    Out(Control),
    Back(Control),
}

/// The sender's datapath as the driver sees it: what is scheduled on the
/// local engines, and a queue per channel for what it transmits.
#[derive(Debug, Clone)]
struct Wire {
    queues: [VecDeque<Msg>; N],
    mask: Vec<bool>,
    parked: bool,
    quanta: Vec<i64>,
}

impl ControlPath for Wire {
    fn channels(&self) -> usize {
        N
    }

    fn current_round(&self) -> u64 {
        0
    }

    fn schedule_mask(&mut self, _: u64, live: &[bool]) {
        self.parked = !live.contains(&true);
        if !self.parked {
            self.mask = live.to_vec();
        }
    }

    fn schedule_quanta(&mut self, _: u64, quanta: &[i64]) {
        self.quanta = quanta.to_vec();
    }

    fn transmit_control(
        &mut self,
        now: SimTime,
        c: ChannelId,
        ctl: &Control,
    ) -> ControlTransmission {
        self.queues[c].push_back(Msg::Out(ctl.clone()));
        ControlTransmission {
            channel: c,
            arrival: Some(now),
            duplicate: None,
            ctl: ctl.clone(),
            error: None,
        }
    }
}

/// Which sender an announcement belongs to, and its epoch.
fn announced(ctl: &Control) -> Option<(usize, Epoch)> {
    match *ctl {
        Control::Membership { epoch, .. } => Some((0, epoch)),
        Control::ResetRequest { epoch } => Some((1, epoch)),
        Control::QuantumAnnounce { epoch, .. } => Some((2, epoch)),
        _ => None,
    }
}

#[derive(Debug, Clone)]
struct World {
    driver: FailoverDriver,
    wire: Wire,
    far: ControlResponder,
    far_mask: Vec<bool>,
    far_quanta: Vec<i64>,
    now: SimTime,
    /// The highest epoch transmitted per kind (mask, reset, retune).
    high: [Option<Epoch>; 3],
    out: Vec<ControlTransmission>,
}

type Verdict = Result<(), String>;

impl World {
    fn new() -> Self {
        let cfg = FailoverConfig::with_probe_interval(PROBE_NS);
        Self {
            driver: FailoverDriver::new(N, cfg, SimTime::ZERO),
            wire: Wire {
                queues: Default::default(),
                mask: vec![true; N],
                parked: false,
                quanta: INITIAL.to_vec(),
            },
            far: ControlResponder::new(INCARNATION),
            far_mask: vec![true; N],
            far_quanta: INITIAL.to_vec(),
            now: SimTime::ZERO,
            high: [None; 3],
            out: Vec::new(),
        }
    }

    fn dead(&self, c: ChannelId) -> bool {
        self.driver.liveness().health(c) == ChannelHealth::Dead
    }

    fn events(&self) -> Vec<Event> {
        let mut events = Vec::new();
        for c in 0..N {
            if !self.wire.queues[c].is_empty() {
                events.extend([Event::Deliver(c), Event::Drop(c)]);
            }
            events.push(match self.dead(c) {
                true => Event::Recover(c),
                false => Event::Die(c),
            });
        }
        if (0..N).any(|c| !self.dead(c)) {
            events.push(Event::Blackout);
        }
        events.extend([Event::Propose, Event::Desync]);
        events
    }

    fn deliver_to_driver(&mut self, c: ChannelId, ctl: &Control) {
        let (now, out) = (self.now, &mut self.out);
        self.driver.on_control(&mut self.wire, c, ctl, now, out);
    }

    fn die(&mut self, c: ChannelId) {
        self.wire.queues[c].clear();
        let (now, out) = (self.now, &mut self.out);
        self.driver.on_link_dead(&mut self.wire, c, now, out);
    }

    /// Run `event`, then the reactor's reset step, then the checks every
    /// step makes.
    fn step(&mut self, event: Event) -> Verdict {
        let resets = self.driver.resets_completed();
        match event {
            Event::Deliver(c) => match self.wire.queues[c].pop_front() {
                Some(Msg::Out(ctl)) => {
                    let (effect, reply) = self.far.on_control(&ctl, N);
                    match effect {
                        Effect::None => {}
                        Effect::Mask { live, .. } => self.far_mask = live,
                        Effect::Quanta { quanta, .. } => self.far_quanta = quanta.to_vec(),
                        Effect::Flush => {
                            self.far_mask = vec![true; N];
                            self.far_quanta = INITIAL.to_vec();
                        }
                    }
                    self.wire.queues[c].extend(reply.map(Msg::Back));
                }
                Some(Msg::Back(ctl)) => self.deliver_to_driver(c, &ctl),
                None => {}
            },
            Event::Drop(c) => {
                self.wire.queues[c].pop_front();
            }
            Event::Die(c) => self.die(c),
            Event::Recover(c) => {
                let ack = Control::ProbeAck {
                    nonce: (c as u64) << 48,
                    incarnation: INCARNATION,
                };
                self.deliver_to_driver(c, &ack);
            }
            Event::Blackout => (0..N).for_each(|c| self.die(c)),
            Event::Propose => {
                let next = usize::from(self.driver.quanta() == PROPOSALS[0]);
                let (now, out) = (self.now, &mut self.out);
                self.driver
                    .begin_retune(&mut self.wire, &PROPOSALS[next], now, out);
            }
            Event::Desync => {
                let alert = Control::DesyncAlert {
                    incarnation: INCARNATION,
                };
                self.deliver_to_driver(0, &alert);
            }
        }
        self.reactor_step();
        if self.driver.resets_completed() > resets
            && !self.driver.blackout()
            && !self.driver.quanta().is_empty()
        {
            let retaught = match self.driver.retune().announcement() {
                Some(Control::QuantumAnnounce { quanta, .. }) => quanta == self.driver.quanta(),
                _ => false,
            };
            if !retaught {
                return Err(format!(
                    "a completed reset leaves the quanta in force re-announced: {:?} in force, {:?} in flight",
                    self.driver.quanta(),
                    self.driver.retune().announcement()
                ));
            }
        }
        self.check()
    }

    /// What `ServerReactor::poll` does once the driver has moved.
    fn reactor_step(&mut self) {
        if self.driver.take_pending_engine_reset() {
            self.wire.mask = vec![true; N];
            self.wire.quanta = INITIAL.to_vec();
            let (now, out) = (self.now, &mut self.out);
            self.driver.reannounce(&mut self.wire, now, out);
        }
    }

    /// The checks after every step: epochs on the wire, and the senders
    /// the driver shows await no dead channel outside a blackout.
    fn check(&mut self) -> Verdict {
        for t in self.out.drain(..) {
            let Some((kind, epoch)) = announced(&t.ctl) else {
                continue;
            };
            if self.high[kind].is_some_and(|high| epoch < high) {
                return Err(format!(
                    "epochs are monotone per kind: {:?} after epoch {:?}",
                    t.ctl, self.high[kind]
                ));
            }
            self.high[kind] = Some(epoch);
        }
        if self.driver.blackout() {
            return Ok(());
        }
        for (name, sender) in [
            ("mask", self.driver.membership()),
            ("retune", self.driver.retune()),
        ] {
            if let Some(c) = sender.awaiting_channels().find(|&c| self.dead(c)) {
                return Err(format!(
                    "no sender awaits a dead channel outside a blackout: the {name} sender awaits {c}"
                ));
            }
        }
        Ok(())
    }

    /// One retransmission timer later: outside a blackout no sender — the
    /// reset's included — floods a dead channel.
    fn retransmit(&mut self) -> Verdict {
        self.now += SimDuration::from_nanos(PROBE_NS);
        let (now, out) = (self.now, &mut self.out);
        self.driver.tick(&mut self.wire, now, out);
        self.reactor_step();
        if !self.driver.blackout() {
            let dead = self
                .out
                .iter()
                .find(|t| announced(&t.ctl).is_some() && self.dead(t.channel));
            if let Some(t) = dead {
                return Err(format!(
                    "no sender awaits a dead channel outside a blackout: {:?} retransmitted on dead channel {}",
                    t.ctl, t.channel
                ));
            }
        }
        self.check()
    }

    /// Heal: every channel recovers, every message is delivered, timers
    /// fire until nothing is in flight. Then both ends must agree.
    fn heal(&mut self) -> Verdict {
        self.retransmit()?;
        for c in 0..N {
            if self.dead(c) {
                self.step(Event::Recover(c))?;
            }
        }
        for _ in 0..8 {
            while let Some(c) = (0..N).find(|&c| !self.wire.queues[c].is_empty()) {
                self.step(Event::Deliver(c))?;
            }
            let d = &self.driver;
            if !d.membership().in_progress() && !d.retune().in_progress() && !d.parked() {
                break;
            }
            self.retransmit()?;
        }
        let d = &self.driver;
        let settled = !d.membership().in_progress() && !d.retune().in_progress() && !d.parked();
        let in_force = match d.quanta() {
            [] => &INITIAL[..],
            quanta => quanta,
        };
        let live = d.liveness().live_mask();
        let agree = self.far_mask == live
            && self.wire.mask == live
            && !self.wire.parked
            && self.far_quanta == in_force
            && self.wire.quanta == in_force;
        if settled && agree {
            return Ok(());
        }
        Err(format!(
            "both ends agree once healed: driver mask {live:?} quanta {in_force:?}, \
             responder mask {:?} quanta {:?}, local mask {:?} quanta {:?} parked {}, settled {settled}",
            self.far_mask, self.far_quanta, self.wire.mask, self.wire.quanta, self.wire.parked
        ))
    }
}

/// A property's verdict on `trace`, or a panic inside the code under test.
fn judge(trace: &[Event], what: &str, verdict: std::thread::Result<Verdict>) {
    match verdict {
        Ok(Ok(())) => {}
        Ok(Err(property)) => panic!("{property}\n  after {trace:?}"),
        Err(_) => panic!("nothing panics: {what} panicked\n  after {trace:?}"),
    }
}

/// Breadth-first over every event sequence of up to `depth` events: every
/// transition is run and checked, and a state already reached by a
/// sequence no longer than this one is not expanded again. Returns the
/// number of distinct states.
fn explore(depth: usize) -> usize {
    let key = |w: &World| {
        let mut h = DefaultHasher::new();
        format!("{w:?}").hash(&mut h);
        h.finish()
    };
    let root = World::new();
    let mut seen = HashSet::from([key(&root)]);
    let mut frontier = vec![(root, Vec::new())];
    for level in 0..=depth {
        let mut next = Vec::new();
        for (world, trace) in frontier {
            let healed = catch_unwind(AssertUnwindSafe(|| world.clone().heal()));
            judge(&trace, "healing", healed);
            if level == depth {
                continue;
            }
            for event in world.events() {
                let mut trace = trace.clone();
                trace.push(event);
                let mut child = world.clone();
                let stepped = catch_unwind(AssertUnwindSafe(|| child.step(event)));
                judge(&trace, "an entry point", stepped);
                if seen.insert(key(&child)) {
                    next.push((child, trace));
                }
            }
        }
        frontier = next;
    }
    seen.len()
}

fn run(events: &[Event]) -> World {
    let mut world = World::new();
    for &event in events {
        if let Err(property) = world.step(event) {
            panic!("{property}\n  after {events:?}");
        }
    }
    world
}

#[test]
fn every_event_sequence_keeps_the_handshakes_sound() {
    let states = explore(DEPTH);
    assert!(states > 5_000, "explored only {states} states");
}

#[test]
#[ignore = "the deeper bound: tens of seconds in a debug build"]
fn every_event_sequence_to_depth_seven_keeps_the_handshakes_sound() {
    explore(7);
}

/// Found by the exhaustive run. A reset whose carriers all died before any
/// acked used to count as complete; its request, retransmitted meanwhile
/// into a channel declared dead but still carrying, then landed after the
/// re-teach and flushed the far end back to its initial quanta for good.
/// Such a reset is unheard now, and begun again under a newer epoch that
/// makes the stray request stale.
#[test]
fn a_reset_nobody_heard_is_begun_again() {
    use Event::*;
    let mut world = run(&[Die(2), Propose, Recover(2), Desync, Blackout]);
    if let Err(property) = world.heal() {
        panic!("{property}");
    }
    assert_eq!(world.driver.resets_started(), 2);
    assert_eq!(world.far_quanta, PROPOSALS[0]);
}

/// Beyond the exhaustive bound, so pinned by hand: a reset that completes
/// while every channel is dead (its ack got through; the probe acks did
/// not) re-announces into the blackout, where nothing can carry the quanta
/// — they are taught again when the blackout ends.
#[test]
fn a_reset_completed_inside_a_blackout_is_retaught_when_it_ends() {
    use Event::*;
    // A retune the far end applied and acked on channel 0, then a reset
    // over channel 0 alone, then the blackout.
    let mut world = run(&[
        Propose,
        Deliver(0),
        Deliver(0),
        Die(1),
        Die(2),
        Desync,
        Blackout,
    ]);
    assert!(world.driver.blackout() && !world.driver.retune().in_progress());
    // The timer retransmits into the dark: probe, mask, reset request.
    world.retransmit().unwrap();
    // The probe is lost; mask and request arrive, the far end flushes,
    // and both acks come back while the driver still sees every channel
    // dead.
    for event in [Drop(0), Deliver(0), Deliver(0), Deliver(0), Deliver(0)] {
        world.step(event).unwrap();
    }
    assert_eq!(world.driver.resets_completed(), 1);
    assert!(world.driver.blackout());
    assert_eq!(world.far_quanta, INITIAL);
    if let Err(property) = world.heal() {
        panic!("{property}");
    }
}

/// The retune's counterpart, the shortest sequence the exhaustive run
/// finds without the rule: the one carrier of a retune dies before it
/// acks, while a recovered channel lives. Completing it would leave the
/// far end on the initial quanta with nothing left to teach it; unheard,
/// it is announced again over the survivor.
#[test]
fn a_retune_nobody_heard_is_announced_again() {
    use Event::*;
    let mut world = run(&[Die(0), Die(1), Propose, Recover(0), Die(2)]);
    assert_eq!(world.driver.retunes_started(), 2);
    assert!(world.driver.retune().awaiting_channels().eq([0]));
    if let Err(property) = world.heal() {
        panic!("{property}");
    }
}
