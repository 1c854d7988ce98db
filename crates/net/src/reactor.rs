//! The sender-side poll loop: flush backlogs, sweep the reverse path,
//! drive the failover control plane — no async runtime, no threads.
//!
//! The whole subsystem runs on non-blocking sockets, so somebody has to
//! come back around: retry frames the kernel refused, read probe acks
//! and membership acks off the reverse path, and hand the PR-1
//! [`FailoverDriver`] its periodic tick. [`ServerReactor`] is that
//! somebody. One [`poll`](ServerReactor::poll) is one readiness sweep;
//! the application calls it between send batches (or from a trivial
//! loop when idle). A poll reuses one buffer for the transmissions it
//! reports, so once that buffer has grown a poll allocates nothing.
//! Because every timer-driven component takes `now` as an argument
//! instead of asking a clock, the same reactor code runs under
//! [`WallClock`](crate::clock::WallClock) time in production and under
//! scripted [`SimTime`]s in tests.
//!
//! Since the lifecycle work the reactor is also the recovery
//! *orchestrator*: each channel carries a
//! [`ChannelLifecycle`](crate::lifecycle::ChannelLifecycle) machine, and
//! every poll feeds it death evidence (link flags, liveness verdicts),
//! executes its one side effect (cooldown elapsed →
//! [`DatagramLink::revive`]), and watches the failover driver for the
//! probe ack and membership-grow completion that walk the channel back
//! to live. The driver still owns *what* to announce; the lifecycle
//! owns *when to rebuild sockets* and how hard to back off.
//!
//! With the adaptive loop attached the reactor feeds its estimators and
//! hands each proposal to the driver, which announces retunes exactly as
//! it announces masks and resets: the reactor routes no handshake acks
//! and calls no reset or death hooks of its own.
//!
//! [`FailoverDriver`]: stripe_transport::FailoverDriver

use stripe_core::control::Control;
use stripe_core::liveness::ChannelHealth;
use stripe_core::sched::CausalScheduler;
use stripe_link::{DatagramLink, Train};
use stripe_netsim::{SimDuration, SimTime};
use stripe_transport::{ControlTransmission, FailoverDriver};

use crate::adapt::AdaptiveTuner;
use crate::bundle;
use crate::frame;
use crate::lifecycle::{ChannelLifecycle, LifecycleAction, LifecycleConfig, LifecycleState};
use crate::server::StripeServer;

/// A fixed-interval timer in simulation/wall time.
///
/// `fire(now)` answers "has the interval elapsed?" and, when it has,
/// re-arms past `now` — skipping missed intervals rather than bursting,
/// since a late reactor wants one tick, not a backlog of them.
#[derive(Debug, Clone, Copy)]
pub struct Periodic {
    next: SimTime,
    interval: SimDuration,
}

impl Periodic {
    /// A timer first firing at `start + interval`, then every `interval`.
    pub fn new(start: SimTime, interval: SimDuration) -> Self {
        Self {
            next: start + interval,
            interval,
        }
    }

    /// True when the timer is due at `now`; re-arms for the next interval
    /// strictly after `now`.
    pub fn fire(&mut self, now: SimTime) -> bool {
        if now < self.next {
            return false;
        }
        while self.next <= now {
            self.next += self.interval;
        }
        true
    }

    /// The next due time.
    pub fn next_due(&self) -> SimTime {
        self.next
    }
}

/// Counters for the reactor's own work (the datapath and control plane
/// keep their own snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorSnapshot {
    /// Readiness sweeps performed.
    pub polls: u64,
    /// Backlogged frames drained to the kernel by flushes.
    pub flushed: u64,
    /// Control frames read off the reverse path.
    pub control_in: u64,
    /// Reverse-path frames that failed to decode as untagged control —
    /// data frames among them.
    pub dropped_malformed: u64,
    /// Failover ticks delivered.
    pub ticks: u64,
    /// Channels the link layer reported dead (socket hard errors) that
    /// the failover driver newly declared dead.
    pub link_dead_reports: u64,
    /// Channels observed recovering (first probe ack on a dead channel),
    /// i.e. membership *grow* announcements begun by the driver.
    pub grow_announcements: u64,
    /// Completed die→rejoin cycles: channels walked all the way back to
    /// live through the grow handshake.
    pub rejoins: u64,
    /// Retune handshakes the failover driver began: proposals of the
    /// [`AdaptiveTuner`] it accepted, and the quanta in force announced
    /// again.
    pub retunes: u64,
    /// Quantum acks that moved a retune handshake.
    pub retune_acks: u64,
    /// Retune handshakes fully acked.
    pub retunes_complete: u64,
    /// Is the datapath currently parked (total blackout, or a §5 reset
    /// awaiting acks)? Data sends fail fast; control keeps flowing.
    pub parked: bool,
    /// Transitions into total blackout (every channel dead at once).
    pub blackouts: u64,
    /// Nanoseconds spent parked, accumulated over completed parks.
    pub park_ns: u64,
    /// Peer restarts detected via incarnation changes in probe acks.
    pub restarts_detected: u64,
    /// §5 resets initiated by the failover driver.
    pub resets_started: u64,
    /// §5 resets fully acknowledged and flushed on both ends.
    pub resets_completed: u64,
    /// Receiver desync alerts read off the reverse path.
    pub desync_alerts: u64,
}

/// Whether any control transmission in a poll's report carries a
/// membership announcement — the signal the integration suites (and the
/// reactor's own tests) watch for a shrink or grow hitting the wire.
/// One shared definition so "did failover announce?" means the same
/// thing everywhere.
pub fn membership_announced(reports: &[ControlTransmission]) -> bool {
    reports
        .iter()
        .any(|r| matches!(r.ctl, Control::Membership { .. }))
}

/// Poll-driven harness around a [`StripeServer`] and its failover
/// control plane. Failover and channel lifecycle stay flow-agnostic:
/// they see channels, never flows.
#[derive(Debug)]
pub struct ServerReactor<S: CausalScheduler, L: DatagramLink> {
    path: StripeServer<S, L>,
    driver: Option<FailoverDriver>,
    tick: Periodic,
    /// Landing room for the reverse path, [`REVERSE_WINDOWS`] windows of
    /// the widest link's [`recv_window`](DatagramLink::recv_window).
    recv_room: Vec<u8>,
    /// One recovery state machine per channel (see [`crate::lifecycle`]).
    lifecycle: Vec<ChannelLifecycle>,
    /// The adaptive quantum control loop, when attached (see
    /// [`attach_adaptive`](Self::attach_adaptive)).
    adaptive: Option<AdaptiveTuner>,
    /// When the current park began (blackout or reset), if one is open.
    park_since_ns: Option<u64>,
    /// Edge detector for blackout transitions.
    was_blackout: bool,
    /// This poll's control transmissions; [`poll`](Self::poll) drains it
    /// and keeps the capacity.
    reports: Vec<ControlTransmission>,
    stats: ReactorSnapshot,
}

/// Windows offered per reverse-path landing call. The reverse path
/// carries only low-rate control traffic: two are enough for a call to
/// come back short — drained — whenever one train was waiting.
const REVERSE_WINDOWS: usize = 2;

impl<S: CausalScheduler, L: DatagramLink> ServerReactor<S, L> {
    /// Wrap `path`, ticking `driver` (when present) every
    /// `tick_interval` starting from `now`.
    pub fn new(
        path: StripeServer<S, L>,
        driver: Option<FailoverDriver>,
        now: SimTime,
        tick_interval: SimDuration,
    ) -> Self {
        // The recovery rhythm follows the probe rhythm: cooldowns and
        // probe patience are multiples of the driver's probe interval
        // (see [`LifecycleConfig::with_probe_interval`]).
        let lifecycle_cfg = driver
            .as_ref()
            .map(|d| LifecycleConfig::with_probe_interval(d.liveness().config().probe_interval_ns))
            .unwrap_or_default();
        let channels = path.links().len();
        let window = path
            .links()
            .iter()
            .map(|l| l.recv_window())
            .max()
            .expect("path has at least one link");
        Self {
            path,
            driver,
            tick: Periodic::new(now, tick_interval),
            recv_room: vec![0; REVERSE_WINDOWS * window],
            lifecycle: (0..channels)
                .map(|_| ChannelLifecycle::new(lifecycle_cfg))
                .collect(),
            adaptive: None,
            park_since_ns: None,
            was_blackout: false,
            reports: Vec::new(),
            stats: ReactorSnapshot::default(),
        }
    }

    /// Attach the adaptive quantum control loop: from the next poll on,
    /// every channel's transmit evidence and probe round trips feed its
    /// estimators, and each estimation tick may hand a proposal to the
    /// failover driver, which announces the retune (see [`crate::adapt`]).
    /// The tuner's initial quanta must match the scheduler's, or the
    /// deadband measures against the wrong baseline.
    ///
    /// # Panics
    /// Panics without a failover driver — the retune handshake is the
    /// driver's, so nothing could announce a proposal — or when the tuner
    /// does not have one quantum per channel.
    pub fn attach_adaptive(&mut self, tuner: AdaptiveTuner) {
        assert!(self.driver.is_some(), "the adaptive loop needs a driver");
        assert_eq!(
            tuner.channels(),
            self.path.links().len(),
            "one quantum per channel"
        );
        self.adaptive = Some(tuner);
    }

    /// The adaptive control loop, if attached.
    pub fn adaptive(&self) -> Option<&AdaptiveTuner> {
        self.adaptive.as_ref()
    }

    /// Per-channel recovery machines (state + counters).
    pub fn lifecycle(&self) -> &[ChannelLifecycle] {
        &self.lifecycle
    }

    /// One readiness sweep at `now`:
    ///
    /// 1. flush every channel's parked send backlog toward the kernel;
    /// 2. surface link-layer death reports (socket hard errors) to the
    ///    failover driver, short-circuiting the keepalive deadline;
    /// 3. drain the reverse path, feeding control to the failover driver;
    /// 4. step each channel's recovery lifecycle — cooldowns, socket
    ///    rebuilds ([`DatagramLink::revive`]), and the probe/rejoin
    ///    watches;
    /// 5. deliver the periodic failover tick when due;
    /// 6. feed the adaptive loop, and hand its proposal to the driver.
    ///
    /// Returns the control transmissions the driver made this poll
    /// (probes, announcements, retransmissions), drained from a buffer
    /// the reactor keeps: no poll allocates once that buffer has grown.
    pub fn poll(&mut self, now: SimTime) -> std::vec::Drain<'_, ControlTransmission> {
        self.stats.polls += 1;
        self.stats.flushed += self.path.flush() as u64;
        self.reports.clear();
        for c in 0..self.path.links().len() {
            self.report_link_death(c, now);
            loop {
                // A revived socket may land wider trains than the one it
                // replaces, so the room is sized against the link as it
                // is now (it only ever grows).
                let window = self.path.links()[c].recv_window();
                if self.recv_room.len() < REVERSE_WINDOWS * window {
                    self.recv_room.resize(REVERSE_WINDOWS * window, 0);
                }
                let mut trains = [Train::default(); REVERSE_WINDOWS];
                let got = {
                    let mut room = self.recv_room.chunks_exact_mut(window);
                    let mut windows: [&mut [u8]; REVERSE_WINDOWS] =
                        std::array::from_fn(|_| room.next().expect("sized above"));
                    self.path.links_mut()[c].recv_trains(&mut windows, &mut trains)
                };
                // The reverse path is cold: bundles (`net::bundle`) are
                // opened up front, one level, and their frames handled as
                // any other.
                let room = &self.recv_room;
                let frames = trains[..got].iter().enumerate().flat_map(|(i, &t)| {
                    let w = i * window;
                    bundle::frames_of(&room[w..w + window], t).map(move |(at, n)| (w + at, n))
                });
                for (at, n) in frames {
                    // Untagged control only: the reverse path is
                    // flow-agnostic, like the global control it answers.
                    let bytes = &room[at..at + n];
                    let Ok(ctl) = frame::parse_v1(bytes).and_then(|p| p.control(bytes)) else {
                        self.stats.dropped_malformed += 1;
                        continue;
                    };
                    self.stats.control_in += 1;
                    if let Control::DesyncAlert { .. } = ctl {
                        self.stats.desync_alerts += 1;
                    }
                    if let Some(ad) = self.adaptive.as_mut() {
                        if let Control::ProbeAck { nonce, .. } = ctl {
                            ad.on_probe_ack(c, nonce, now.as_nanos());
                        }
                    }
                    if let Some(driver) = self.driver.as_mut() {
                        driver.on_control(&mut self.path, c, &ctl, now, &mut self.reports);
                    }
                }
                if got < REVERSE_WINDOWS {
                    break;
                }
            }
            // After the reverse sweep, so a probe ack read this very
            // poll advances the machine this very poll.
            self.step_lifecycle(c, now);
            // Sample the channel's cumulative transmit evidence into its
            // estimator (links without evidence keep the loop unprimed).
            if let Some(ad) = self.adaptive.as_mut() {
                if let Some(ev) = self.path.links()[c].tx_evidence() {
                    ad.on_tx_evidence(c, now.as_nanos(), ev);
                }
            }
        }
        if self.tick.fire(now) {
            if let Some(driver) = self.driver.as_mut() {
                self.stats.ticks += 1;
                driver.tick(&mut self.path, now, &mut self.reports);
            }
        }
        if let Some(driver) = self.driver.as_mut() {
            // A completed §5 reset: the receiver has flushed and acked,
            // so flush the sender-side engines and re-announce to
            // unpark — both ends restart the simulation from zero, on
            // their initial quanta, so the driver re-teaches the quanta
            // in force alongside the mask.
            if driver.take_pending_engine_reset() {
                self.path.reset_flows();
                driver.reannounce(&mut self.path, now, &mut self.reports);
            }
            if let Some(ad) = self.adaptive.as_mut() {
                // Probes just sent: their acks become RTT samples.
                for r in &self.reports {
                    if let (Control::Probe { nonce }, None) = (&r.ctl, r.error) {
                        ad.on_probe_sent(r.channel, *nonce, now.as_nanos());
                    }
                }
                if let Some(quanta) = ad.propose(now, driver.quanta()) {
                    driver.begin_retune(&mut self.path, quanta, now, &mut self.reports);
                }
            }
            let (parked, blackout) = (driver.parked(), driver.blackout());
            self.stats.restarts_detected = driver.restarts_detected();
            self.stats.resets_started = driver.resets_started();
            self.stats.resets_completed = driver.resets_completed();
            self.stats.retunes = driver.retunes_started();
            self.stats.retune_acks = driver.retune_acks();
            self.stats.retunes_complete = driver.retune().completed();
            self.observe_park(parked, blackout, now);
        }
        self.reports.drain(..)
    }

    /// Track park state for the snapshot: blackout rising edges count as
    /// blackouts, and completed parks accumulate their duration.
    fn observe_park(&mut self, parked: bool, blackout: bool, now: SimTime) {
        if blackout && !self.was_blackout {
            self.stats.blackouts += 1;
        }
        self.was_blackout = blackout;
        match (parked, self.park_since_ns) {
            (true, None) => self.park_since_ns = Some(now.as_nanos()),
            (false, Some(since)) => {
                self.stats.park_ns += now.as_nanos().saturating_sub(since);
                self.park_since_ns = None;
            }
            _ => {}
        }
        self.stats.parked = parked;
    }

    /// The one dead-channel handling path: surface a link-layer death
    /// flag to the failover driver (a *newly* declared death announces
    /// the shrunken mask immediately, counted in `link_dead_reports`;
    /// repeats are idempotent) and feed the evidence to the channel's
    /// lifecycle machine.
    fn report_link_death(&mut self, c: usize, now: SimTime) {
        if !self.path.links()[c].link_dead() {
            return;
        }
        if let Some(driver) = self.driver.as_mut() {
            let before = driver.liveness().deaths();
            driver.on_link_dead(&mut self.path, c, now, &mut self.reports);
            if driver.liveness().deaths() > before {
                self.stats.link_dead_reports += 1;
            }
        }
        self.lifecycle[c].on_dead(now.as_nanos());
    }

    /// Walk channel `c`'s recovery machine one step: pick up
    /// silence-deaths the liveness tracker declared, execute a due
    /// rebind through [`DatagramLink::revive`], and translate the
    /// driver's observations (probe ack → recovery → grow announced;
    /// grow fully acked → rejoin complete) into lifecycle transitions.
    fn step_lifecycle(&mut self, c: usize, now: SimTime) {
        let now_ns = now.as_nanos();
        // Silence-death: the socket is fine but the liveness deadline
        // passed (e.g. a partition). The link-flag path already fed
        // `on_dead` in `report_link_death`.
        if let Some(driver) = self.driver.as_ref() {
            if driver.liveness().health(c) == ChannelHealth::Dead {
                self.lifecycle[c].on_dead(now_ns);
            }
        }
        if self.lifecycle[c].advance(now_ns) == LifecycleAction::Rebind {
            if self.path.links_mut()[c].revive() {
                self.lifecycle[c].rebind_ok(now_ns);
            } else {
                self.lifecycle[c].rebind_failed(now_ns);
            }
        }
        let Some(driver) = self.driver.as_ref() else {
            return;
        };
        let lc = &mut self.lifecycle[c];
        // Recovery: the driver heard the first probe ack (liveness back
        // to Live) and has begun the epoch'd membership grow.
        let dead_side = matches!(
            lc.state(),
            LifecycleState::Dead | LifecycleState::Cooldown | LifecycleState::Probing
        );
        if dead_side
            && driver.liveness().health(c) == ChannelHealth::Live
            && !self.path.links()[c].link_dead()
        {
            lc.on_recovered(now_ns);
            self.stats.grow_announcements += 1;
        }
        // Rejoin completion: the grow announcement is fully acked (or
        // was superseded) — nothing is awaiting, the cycle closes.
        if lc.state() == LifecycleState::Rejoining && !driver.membership().in_progress() {
            lc.on_rejoin_complete(now_ns);
            self.stats.rejoins += 1;
        }
    }

    /// The wrapped server.
    pub fn path(&self) -> &StripeServer<S, L> {
        &self.path
    }

    /// Mutable access to the wrapped server (to enqueue and pump through).
    pub fn path_mut(&mut self) -> &mut StripeServer<S, L> {
        &mut self.path
    }

    /// The failover driver, if one is attached.
    pub fn driver(&self) -> Option<&FailoverDriver> {
        self.driver.as_ref()
    }

    /// Reactor counters.
    pub fn stats(&self) -> ReactorSnapshot {
        self.stats
    }

    /// Take the server (and driver) back out.
    pub fn into_inner(self) -> (StripeServer<S, L>, Option<FailoverDriver>) {
        (self.path, self.driver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demux::FlowDemux;
    use crate::frame::Frame;
    use stripe_core::control::Control;
    use stripe_core::sched::Srr;
    use stripe_link::{datagram_pair, TestDatagramLink};
    use stripe_transport::FailoverConfig;

    /// A two-channel server behind a reactor ticking a failover driver
    /// every millisecond.
    fn reactor_over<L: DatagramLink>(links: Vec<L>) -> ServerReactor<Srr, L> {
        let path = StripeServer::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(links)
            .build();
        let driver = FailoverDriver::new(
            2,
            FailoverConfig::with_probe_interval(1_000_000),
            SimTime::ZERO,
        );
        ServerReactor::new(
            path,
            Some(driver),
            SimTime::ZERO,
            SimDuration::from_millis(1),
        )
    }

    fn reactor_pair() -> (
        ServerReactor<Srr, TestDatagramLink>,
        FlowDemux<Srr, TestDatagramLink>,
    ) {
        let (a0, b0) = datagram_pair(2048, 4096);
        let (a1, b1) = datagram_pair(2048, 4096);
        let rx = FlowDemux::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![b0, b1])
            .build();
        (reactor_over(vec![a0, a1]), rx)
    }

    #[test]
    fn periodic_fires_once_per_interval_and_skips_missed() {
        let mut p = Periodic::new(SimTime::ZERO, SimDuration::from_millis(10));
        assert!(!p.fire(SimTime::from_millis(9)));
        assert!(p.fire(SimTime::from_millis(10)));
        assert!(!p.fire(SimTime::from_millis(11)));
        // Late by many intervals: one fire, re-armed past now.
        assert!(p.fire(SimTime::from_millis(55)));
        assert_eq!(p.next_due(), SimTime::from_millis(60));
    }

    /// A full probe round trip through real frame bytes: tick emits
    /// probes, the receiver acks them on the reverse path, the next
    /// reactor poll feeds the acks back into the liveness tracker.
    #[test]
    fn probe_round_trip_keeps_channels_live() {
        let (mut reactor, mut rx) = reactor_pair();
        // Walk time far past the dead deadline, polling both ends each
        // probe interval; acked channels must never be declared dead.
        let mut announced_death = false;
        for ms in 1..20u64 {
            let now = SimTime::from_millis(ms);
            announced_death |= membership_announced(reactor.poll(now).as_slice());
            rx.sweep(now);
            reactor.poll(now); // read back this interval's acks
        }
        assert!(reactor.stats().ticks >= 19);
        assert!(reactor.stats().control_in >= 2, "acks flowed back");
        assert!(!announced_death, "acked channels must stay live");
        assert_eq!(rx.net_stats().replies_sent, rx.net_stats().control_frames);
    }

    /// One channel acked, one silent: three silent intervals kill the
    /// quiet channel and a shrunken mask is announced on the live one.
    #[test]
    fn silence_declares_death() {
        let (a0, mut b0) = datagram_pair(2048, 4096);
        let (a1, _silent_peer) = datagram_pair(2048, 4096);
        let mut reactor = reactor_over(vec![a0, a1]);
        let mut buf = [0u8; 2048];
        let mut ctl_buf = Vec::new();
        let mut announced_death = false;
        for ms in 1..10u64 {
            let now = SimTime::from_millis(ms);
            announced_death |= membership_announced(reactor.poll(now).as_slice());
            // Ack channel 0's probes by hand; channel 1 stays silent.
            while let Some(n) = b0.recv_frame(&mut buf) {
                if let Some(Frame::Control(Control::Probe { nonce })) = frame::decode(&buf[..n]) {
                    crate::frame::encode_control_into(
                        &Control::ProbeAck {
                            nonce,
                            incarnation: 1,
                        },
                        &mut ctl_buf,
                    );
                    b0.send_frame(&ctl_buf).unwrap();
                }
            }
        }
        assert!(
            announced_death,
            "a dead channel must announce a shrunken mask"
        );
    }

    /// A link reporting itself dead: the very next poll announces the
    /// shrunken mask — no keepalive deadline, no probes required.
    #[test]
    fn link_dead_report_triggers_immediate_failover() {
        use stripe_link::TxError;

        /// Test link whose deadness can be flipped from outside.
        #[derive(Debug)]
        struct MortalLink {
            inner: TestDatagramLink,
            dead: bool,
        }
        impl DatagramLink for MortalLink {
            fn send_frame(&mut self, frame: &[u8]) -> Result<(), TxError> {
                if self.dead {
                    return Err(TxError::LinkDown);
                }
                self.inner.send_frame(frame)
            }
            fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize> {
                self.inner.recv_frame(buf)
            }
            fn mtu(&self) -> usize {
                self.inner.mtu()
            }
            fn link_dead(&self) -> bool {
                self.dead
            }
        }

        let (a0, _b0) = datagram_pair(2048, 4096);
        let (a1, _b1) = datagram_pair(2048, 4096);
        let links = vec![
            MortalLink {
                inner: a0,
                dead: false,
            },
            MortalLink {
                inner: a1,
                dead: false,
            },
        ];
        let mut reactor = reactor_over(links);

        // Healthy sweep: no death reported.
        reactor.poll(SimTime::from_micros(100));
        assert_eq!(reactor.stats().link_dead_reports, 0);

        // Kill channel 1 at the link layer; the next poll must announce.
        reactor.path_mut().links_mut()[1].dead = true;
        let announced = membership_announced(reactor.poll(SimTime::from_micros(200)).as_slice());
        assert!(
            announced,
            "death evidence must announce a shrunken mask immediately"
        );
        let driver = reactor.driver().expect("driver attached");
        assert_eq!(driver.liveness().deaths(), 1);
        assert_eq!(driver.liveness().live_mask(), vec![true, false]);
        assert_eq!(reactor.stats().link_dead_reports, 1);
        assert_eq!(
            reactor.lifecycle()[1].state(),
            LifecycleState::Cooldown,
            "death is a lifecycle transition now, not a terminal state"
        );

        // Still-dead link on later polls: idempotent, no re-announce spam.
        let again = membership_announced(reactor.poll(SimTime::from_micros(300)).as_slice());
        assert!(
            !again,
            "no duplicate announcements while the link stays dead"
        );
        assert_eq!(reactor.stats().link_dead_reports, 1);
    }

    /// The full recovery arc over in-memory links: a link dies, the
    /// lifecycle waits out the cooldown, revives it, the probe ack
    /// triggers the epoch'd grow, the grow acks complete the rejoin —
    /// and the reactor's counters narrate every step.
    #[test]
    fn revived_link_walks_back_to_live() {
        use stripe_link::TxError;

        /// Link that can die and be revived from outside.
        #[derive(Debug)]
        struct PhoenixLink {
            inner: TestDatagramLink,
            dead: bool,
        }
        impl DatagramLink for PhoenixLink {
            fn send_frame(&mut self, frame: &[u8]) -> Result<(), TxError> {
                if self.dead {
                    return Err(TxError::LinkDown);
                }
                self.inner.send_frame(frame)
            }
            fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize> {
                if self.dead {
                    return None;
                }
                self.inner.recv_frame(buf)
            }
            fn mtu(&self) -> usize {
                self.inner.mtu()
            }
            fn link_dead(&self) -> bool {
                self.dead
            }
            fn revive(&mut self) -> bool {
                self.dead = false;
                true
            }
        }

        let (a0, mut b0) = datagram_pair(2048, 4096);
        let (a1, mut b1) = datagram_pair(2048, 4096);
        let links = vec![
            PhoenixLink {
                inner: a0,
                dead: false,
            },
            PhoenixLink {
                inner: a1,
                dead: false,
            },
        ];
        let mut reactor = reactor_over(links);

        // Kill channel 1 at the link layer; the shrink announces.
        reactor.path_mut().links_mut()[1].dead = true;
        assert!(membership_announced(
            reactor.poll(SimTime::from_micros(100)).as_slice()
        ));
        assert_eq!(reactor.lifecycle()[1].state(), LifecycleState::Cooldown);

        // Drive time forward, answering every probe and acking every
        // membership announcement on both peers by hand.
        let mut buf = [0u8; 2048];
        let mut ctl_buf = Vec::new();
        let mut grow_announced = false;
        for step in 2..120u64 {
            let now = SimTime::from_micros(step * 500);
            let announced = membership_announced(reactor.poll(now).as_slice());
            if reactor.stats().grow_announcements > 0 {
                grow_announced |= announced;
            }
            for b in [&mut b0, &mut b1] {
                while let Some(n) = b.recv_frame(&mut buf) {
                    let reply = match frame::decode(&buf[..n]) {
                        Some(Frame::Control(Control::Probe { nonce })) => Some(Control::ProbeAck {
                            nonce,
                            incarnation: 1,
                        }),
                        Some(Frame::Control(Control::Membership { epoch, .. })) => {
                            Some(Control::MembershipAck { epoch })
                        }
                        _ => None,
                    };
                    if let Some(ctl) = reply {
                        crate::frame::encode_control_into(&ctl, &mut ctl_buf);
                        let _ = b.send_frame(&ctl_buf);
                    }
                }
            }
            if reactor.lifecycle()[1].state() == LifecycleState::Live && reactor.stats().rejoins > 0
            {
                break;
            }
        }

        let stats = reactor.stats();
        assert_eq!(stats.link_dead_reports, 1);
        assert_eq!(stats.grow_announcements, 1, "one recovery, one grow");
        assert_eq!(stats.rejoins, 1, "the cycle closed");
        let driver = reactor.driver().expect("driver attached");
        assert_eq!(
            driver.liveness().live_mask(),
            vec![true, true],
            "full capacity restored"
        );
        assert!(!driver.membership().in_progress(), "grow fully acked");
        assert!(!reactor.path().links()[1].link_dead(), "link was revived");
        let snap = reactor.lifecycle()[1].snapshot();
        assert_eq!(snap.state, LifecycleState::Live);
        assert_eq!(snap.rejoins, 1);
        assert!(snap.rebind_attempts >= 1, "revive went through the link");
        assert!(grow_announced, "the grow rode the wire as a Membership");
    }

    /// The full adaptive arc over shaped in-memory links: token buckets
    /// cap the three channels 4:2:1, the estimators learn the split from
    /// transmit evidence, the tuner floods an epoch'd retune, the
    /// receiver acks and applies it — and delivery stays quasi-FIFO
    /// across the switch.
    #[test]
    fn adaptive_retune_round_trip_over_shaped_links() {
        use crate::adapt::{AdaptiveConfig, AdaptiveTuner};
        use crate::chaos::{ChaosPlan, ImpairedLink};

        let rates = [4000u64, 2000, 1000];
        let mut fwd = Vec::new();
        let mut rev = Vec::new();
        for (i, &r) in rates.iter().enumerate() {
            let (a, b) = datagram_pair(2048, 1 << 12);
            let plan = ChaosPlan::default().shape(r, 2 * r);
            fwd.push(ImpairedLink::new(a, plan, 0xAD0 + i as u64));
            rev.push(b);
        }
        let mut path = StripeServer::builder()
            .scheduler(Srr::equal(3, 1500))
            .markers(stripe_core::sender::MarkerConfig::every_rounds(4))
            .links(fwd)
            .build();
        let flow = path.open_flow().unwrap();
        // The driver owns the retune handshake. Its deadline sits far
        // above the probe interval: the policers bind every millisecond,
        // and only a real partition may kill a channel.
        let mut failover = FailoverConfig::with_probe_interval(1_000_000);
        failover.liveness.dead_after_ns = 10_000_000;
        let driver = FailoverDriver::new(3, failover, SimTime::ZERO);
        let mut reactor = ServerReactor::new(
            path,
            Some(driver),
            SimTime::ZERO,
            SimDuration::from_millis(1),
        );
        let cfg = AdaptiveConfig::with_interval(SimDuration::from_millis(5));
        reactor.attach_adaptive(AdaptiveTuner::new(&[1500, 1500, 1500], cfg, SimTime::ZERO));
        let mut rx = FlowDemux::builder()
            .scheduler(Srr::equal(3, 1500))
            .links(rev)
            .build();
        assert!(rx.touch_flow(flow.id()));

        let mut events = Vec::new();
        let mut batch = stripe_core::receiver::RxBatch::new();
        let mut seq = 0u64;
        let mut delivered = Vec::new();
        for ms in 1..=120u64 {
            let now = SimTime::from_millis(ms);
            // Saturating offered load: well past aggregate capacity, so
            // every channel's policer binds and carried load IS capacity.
            for _ in 0..48 {
                let mut p = [0u8; 500];
                p[..8].copy_from_slice(&seq.to_be_bytes());
                seq += 1;
                reactor.path_mut().enqueue(flow, &p).unwrap();
            }
            reactor.path_mut().pump_into(now, usize::MAX, &mut events);
            reactor.poll(now);
            rx.sweep(now);
            rx.poll_flow_into(flow.id(), &mut batch);
            for pb in batch.drain() {
                delivered.push(u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap()));
                rx.recycle(pb);
            }
        }

        let stats = reactor.stats();
        assert!(stats.retunes >= 1, "a retune must have been announced");
        assert!(
            stats.retunes_complete >= 1,
            "the receiver must have acked the retune (acks {} complete {})",
            stats.retune_acks,
            stats.retunes_complete
        );
        let q = reactor.driver().expect("attached").quanta();
        assert!(
            q[0] > q[1] && q[1] > q[2],
            "tuned quanta {q:?} must order by capacity"
        );
        let ratio = q[0] as f64 / q[2] as f64;
        assert!(
            (2.5..=6.0).contains(&ratio),
            "4:1 capacity split tuned to ratio {ratio} ({q:?})"
        );
        // Quasi-FIFO held across the retune: every id delivered at most
        // once, and any loss-induced backward step stays within a couple
        // of marker intervals of the head — the receiver re-synchronized
        // on markers across the quantum switch instead of drifting.
        assert!(!delivered.is_empty());
        let mut uniq = delivered.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), delivered.len(), "duplicate deliveries");
        let max_backjump = delivered
            .windows(2)
            .filter(|w| w[1] < w[0])
            .map(|w| w[0] - w[1])
            .max()
            .unwrap_or(0);
        assert!(
            max_backjump <= 128,
            "displacement {max_backjump} exceeds a marker-interval bound"
        );
    }

    /// Flush drains frames parked behind kernel/queue backpressure.
    #[test]
    fn poll_flushes_backlog() {
        let (a0, mut b0) = datagram_pair(256, 8);
        // Park frames directly in the link's local queue by filling the
        // peer's in-flight capacity: TestDatagramLink has unbounded
        // in-flight, so emulate by enqueueing via send while "jammed".
        let mut path = StripeServer::builder()
            .scheduler(Srr::equal(1, 1500))
            .links(vec![a0])
            .build();
        let flow = path.open_flow().unwrap();
        path.enqueue(flow, &[5u8; 32]).unwrap();
        path.pump_into(SimTime::ZERO, usize::MAX, &mut Vec::new());
        let mut reactor =
            ServerReactor::new(path, None, SimTime::ZERO, SimDuration::from_millis(1));
        reactor.poll(SimTime::from_millis(1));
        assert_eq!(reactor.stats().polls, 1);
        let mut buf = [0u8; 256];
        assert!(b0.recv_frame(&mut buf).is_some(), "frame reached the peer");
    }
}
