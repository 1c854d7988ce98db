//! The per-channel lifecycle state machine: how a striped channel goes
//! from dead back to carrying traffic.
//!
//! PR 1/5 built the *kill* half of failover — liveness scoring and
//! socket hard errors both end in an epoch'd membership shrink — but
//! death was terminal: a transient outage permanently degraded
//! capacity. This module is the recovery half. Each channel owns one
//! [`ChannelLifecycle`] walking the chain
//!
//! ```text
//!   live → dead → cooldown → probing → rejoining → live
//!                    ↑  ↓ (rebind failed / probe timed out)
//!                    └──┘   exponential backoff, bounded retries
//! ```
//!
//! The machine is a pure clock-driven policy: it never touches sockets
//! or control frames itself. The [`ServerReactor`](crate::ServerReactor)
//! drives it — feeding in death evidence, executing the one side effect
//! the machine requests ([`LifecycleAction::Rebind`] →
//! [`DatagramLink::revive`](stripe_link::DatagramLink::revive)), and
//! reporting back what the failover driver observed (first probe ack,
//! membership-grow completion). Keeping the policy separate from the
//! I/O makes every timing path unit-testable with a synthetic clock.
//!
//! Per-step discipline (the retry-cap/cooldown/timeout shape):
//!
//! - **cooldown** — entered on death, waited out before any rebind.
//!   Doubles per failed round from [`LifecycleConfig::cooldown_base_ns`]
//!   up to [`LifecycleConfig::cooldown_max_ns`].
//! - **bounded retries** — after [`LifecycleConfig::retry_cap`] failed
//!   rebinds the attempt counter resets and the channel parks at the
//!   maximum cooldown. Recovery is never abandoned outright — the
//!   paper's premise is that striping tracks the available channel set,
//!   so a channel that comes back a minute later must still rejoin —
//!   but exhausted rounds are counted so operators can see a flapper.
//! - **probing timeout** — a rebound socket that never hears a probe
//!   ack within [`LifecycleConfig::probe_timeout_ns`] goes back to
//!   cooldown (the rebind "succeeded" but the path is still black).
//! - **rejoining timeout** — the membership-grow handshake retransmits
//!   forever in the failover driver; the lifecycle only *watches* it.
//!   If acks take longer than [`LifecycleConfig::rejoin_timeout_ns`]
//!   the channel is declared live anyway (it is already carrying
//!   traffic — the handshake completes in the background) and the
//!   timeout is counted.

/// Where a channel currently sits in the die/rejoin cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LifecycleState {
    /// Carrying traffic; the steady state.
    #[default]
    Live,
    /// Death evidence just arrived (link flag or liveness silence);
    /// transitions to [`LifecycleState::Cooldown`] on the next step.
    Dead,
    /// Waiting out the exponential backoff before the next rebind.
    Cooldown,
    /// Fresh transport in place; waiting for the first probe ack.
    Probing,
    /// First ack returned; the epoch'd membership grow is in flight.
    Rejoining,
}

impl LifecycleState {
    /// Human-readable name for logs and snapshot tables.
    pub fn as_str(self) -> &'static str {
        match self {
            LifecycleState::Live => "live",
            LifecycleState::Dead => "dead",
            LifecycleState::Cooldown => "cooldown",
            LifecycleState::Probing => "probing",
            LifecycleState::Rejoining => "rejoining",
        }
    }
}

/// Timing policy for one channel's recovery loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleConfig {
    /// First cooldown after a death, in nanoseconds.
    pub cooldown_base_ns: u64,
    /// Cap on the doubled cooldown.
    pub cooldown_max_ns: u64,
    /// How long a rebound socket may wait for its first probe ack
    /// before the round is declared failed.
    pub probe_timeout_ns: u64,
    /// How long to wait for the membership-grow handshake before
    /// declaring the channel live with the handshake still in flight.
    pub rejoin_timeout_ns: u64,
    /// Failed rebind/probe rounds before the attempt counter resets
    /// and the channel parks at `cooldown_max_ns`.
    pub retry_cap: u32,
}

impl Default for LifecycleConfig {
    /// Wall-clock-ish defaults: 50 ms base cooldown doubling to 800 ms,
    /// 200 ms probe patience, 3 rounds per backoff cycle.
    fn default() -> Self {
        Self::with_probe_interval(50_000_000)
    }
}

impl LifecycleConfig {
    /// Derive the whole policy from the failover driver's probe
    /// interval, the one rhythm everything else already follows: the
    /// first rebind waits one probe interval, backs off to 16x, a
    /// rebound socket gets 4 intervals of probe patience (the liveness
    /// tracker re-probes a dead channel at least twice in that span),
    /// and the grow handshake gets 8 before the channel is declared
    /// live regardless.
    pub fn with_probe_interval(probe_interval_ns: u64) -> Self {
        let p = probe_interval_ns.max(1);
        LifecycleConfig {
            cooldown_base_ns: p,
            cooldown_max_ns: p.saturating_mul(16),
            probe_timeout_ns: p.saturating_mul(4),
            rejoin_timeout_ns: p.saturating_mul(8),
            retry_cap: 3,
        }
    }
}

/// What the reactor must do for the machine this step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleAction {
    /// Nothing; keep polling.
    None,
    /// Cooldown has elapsed: rebuild the channel's transport
    /// ([`DatagramLink::revive`](stripe_link::DatagramLink::revive)) and
    /// report the outcome via [`ChannelLifecycle::rebind_ok`] /
    /// [`ChannelLifecycle::rebind_failed`].
    Rebind,
}

/// Counter snapshot for one channel's lifecycle (all cumulative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LifecycleSnapshot {
    /// Current state.
    pub state: LifecycleState,
    /// Completed die→rejoin cycles (transitions back into `Live`
    /// through the grow handshake).
    pub rejoins: u64,
    /// Times the channel entered cooldown (deaths plus failed rounds).
    pub cooldowns: u64,
    /// Rebind attempts handed to the link.
    pub rebind_attempts: u64,
    /// Rebinds the link reported as failed.
    pub rebind_failures: u64,
    /// Probing phases that expired without a probe ack.
    pub probe_timeouts: u64,
    /// Rejoining phases that expired with the handshake unacked.
    pub rejoin_timeouts: u64,
    /// Backoff rounds that hit the retry cap and reset.
    pub retries_exhausted: u64,
}

/// One channel's recovery state machine. Drive it with death evidence
/// ([`on_dead`](Self::on_dead)), clock steps
/// ([`advance`](Self::advance)), rebind outcomes, and driver
/// observations ([`on_recovered`](Self::on_recovered),
/// [`on_rejoin_complete`](Self::on_rejoin_complete)).
#[derive(Debug, Clone)]
pub struct ChannelLifecycle {
    cfg: LifecycleConfig,
    state: LifecycleState,
    /// Current (already escalated) cooldown length.
    cooldown_ns: u64,
    /// Deadline for the current timed state (cooldown end, probe
    /// deadline, rejoin deadline).
    until_ns: u64,
    /// Failed rounds in the current backoff cycle.
    attempts: u32,
    snap: LifecycleSnapshot,
}

impl ChannelLifecycle {
    /// A live channel under `cfg`.
    pub fn new(cfg: LifecycleConfig) -> Self {
        ChannelLifecycle {
            cfg,
            state: LifecycleState::Live,
            cooldown_ns: cfg.cooldown_base_ns,
            until_ns: 0,
            attempts: 0,
            snap: LifecycleSnapshot::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> LifecycleState {
        self.state
    }

    /// Cumulative counters plus the current state.
    pub fn snapshot(&self) -> LifecycleSnapshot {
        let mut s = self.snap;
        s.state = self.state;
        s
    }

    /// Active timing policy.
    pub fn config(&self) -> &LifecycleConfig {
        &self.cfg
    }

    /// Death evidence arrived (link-dead flag or liveness silence).
    /// From any up-phase this (re)enters the dead side of the machine;
    /// already-dead phases ignore it (evidence repeats every poll).
    pub fn on_dead(&mut self, _now_ns: u64) {
        match self.state {
            LifecycleState::Live | LifecycleState::Probing | LifecycleState::Rejoining => {
                self.state = LifecycleState::Dead;
            }
            LifecycleState::Dead | LifecycleState::Cooldown => {}
        }
    }

    /// Clock step: walk timed transitions and return the side effect
    /// the reactor owes the machine (at most one per call).
    pub fn advance(&mut self, now_ns: u64) -> LifecycleAction {
        match self.state {
            LifecycleState::Live => LifecycleAction::None,
            LifecycleState::Dead => {
                // Death → cooldown at the current (escalated) backoff.
                self.state = LifecycleState::Cooldown;
                self.until_ns = now_ns.saturating_add(self.cooldown_ns);
                self.snap.cooldowns += 1;
                LifecycleAction::None
            }
            LifecycleState::Cooldown => {
                if now_ns >= self.until_ns {
                    self.snap.rebind_attempts += 1;
                    LifecycleAction::Rebind
                } else {
                    LifecycleAction::None
                }
            }
            LifecycleState::Probing => {
                if now_ns >= self.until_ns {
                    // Rebind took but the path is still black: the round
                    // failed, escalate and go around again.
                    self.snap.probe_timeouts += 1;
                    self.fail_round(now_ns);
                }
                LifecycleAction::None
            }
            LifecycleState::Rejoining => {
                if now_ns >= self.until_ns {
                    // The grow handshake retransmits in the driver; the
                    // channel is already carrying probes and data, so
                    // declare it live and let the acks land late.
                    self.snap.rejoin_timeouts += 1;
                    self.become_live();
                }
                LifecycleAction::None
            }
        }
    }

    /// The reactor rebuilt the transport: wait [`LifecycleConfig::probe_timeout_ns`]
    /// for the liveness tracker's probe to be answered.
    pub fn rebind_ok(&mut self, now_ns: u64) {
        debug_assert_eq!(self.state, LifecycleState::Cooldown);
        self.state = LifecycleState::Probing;
        self.until_ns = now_ns.saturating_add(self.cfg.probe_timeout_ns);
    }

    /// The transport rebuild failed (port taken, socket error): count
    /// it and go back around the cooldown with escalated backoff.
    pub fn rebind_failed(&mut self, now_ns: u64) {
        debug_assert_eq!(self.state, LifecycleState::Cooldown);
        self.snap.rebind_failures += 1;
        self.fail_round(now_ns);
    }

    /// The failover driver saw the channel recover (first probe ack):
    /// the epoch'd membership grow is now in flight. Valid from any
    /// dead-side phase — an ack can sneak in before our own rebind when
    /// death came from silence rather than a broken socket.
    pub fn on_recovered(&mut self, now_ns: u64) {
        match self.state {
            LifecycleState::Dead | LifecycleState::Cooldown | LifecycleState::Probing => {
                self.state = LifecycleState::Rejoining;
                self.until_ns = now_ns.saturating_add(self.cfg.rejoin_timeout_ns);
            }
            LifecycleState::Live | LifecycleState::Rejoining => {}
        }
    }

    /// The membership grow fully acked: the cycle is complete.
    pub fn on_rejoin_complete(&mut self, _now_ns: u64) {
        if self.state == LifecycleState::Rejoining {
            self.become_live();
        }
    }

    fn become_live(&mut self) {
        self.state = LifecycleState::Live;
        self.snap.rejoins += 1;
        self.cooldown_ns = self.cfg.cooldown_base_ns;
        self.attempts = 0;
    }

    /// A round (rebind or probe wait) failed: escalate the backoff,
    /// honour the retry cap, and re-enter cooldown.
    fn fail_round(&mut self, now_ns: u64) {
        self.attempts += 1;
        self.cooldown_ns = self
            .cooldown_ns
            .saturating_mul(2)
            .min(self.cfg.cooldown_max_ns);
        if self.attempts >= self.cfg.retry_cap {
            // Cap reached: park at max cooldown and start a fresh
            // round-count. Never terminal — a channel that comes back
            // later must still be able to rejoin.
            self.snap.retries_exhausted += 1;
            self.attempts = 0;
            self.cooldown_ns = self.cfg.cooldown_max_ns;
        }
        self.state = LifecycleState::Cooldown;
        self.until_ns = now_ns.saturating_add(self.cooldown_ns);
        self.snap.cooldowns += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LifecycleConfig {
        LifecycleConfig {
            cooldown_base_ns: 100,
            cooldown_max_ns: 800,
            probe_timeout_ns: 400,
            rejoin_timeout_ns: 900,
            retry_cap: 3,
        }
    }

    #[test]
    fn happy_path_walks_the_whole_chain() {
        let mut lc = ChannelLifecycle::new(cfg());
        assert_eq!(lc.state(), LifecycleState::Live);
        lc.on_dead(0);
        assert_eq!(lc.state(), LifecycleState::Dead);
        assert_eq!(lc.advance(0), LifecycleAction::None);
        assert_eq!(lc.state(), LifecycleState::Cooldown);
        // Cooldown not yet elapsed.
        assert_eq!(lc.advance(99), LifecycleAction::None);
        assert_eq!(lc.advance(100), LifecycleAction::Rebind);
        lc.rebind_ok(100);
        assert_eq!(lc.state(), LifecycleState::Probing);
        lc.on_recovered(150);
        assert_eq!(lc.state(), LifecycleState::Rejoining);
        lc.on_rejoin_complete(200);
        assert_eq!(lc.state(), LifecycleState::Live);
        let s = lc.snapshot();
        assert_eq!(s.rejoins, 1);
        assert_eq!(s.cooldowns, 1);
        assert_eq!(s.rebind_attempts, 1);
        assert_eq!(s.rebind_failures, 0);
    }

    #[test]
    fn failed_rebinds_escalate_and_cap() {
        let mut lc = ChannelLifecycle::new(cfg());
        lc.on_dead(0);
        lc.advance(0); // dead → cooldown(100)
        let mut now = 0u64;
        let mut waits = Vec::new();
        for _ in 0..5 {
            // Jump straight past whatever cooldown is pending.
            let before = now;
            while lc.advance(now) != LifecycleAction::Rebind {
                now += 50;
            }
            waits.push(now - before);
            lc.rebind_failed(now);
        }
        // 100, then 200, 400, then cap-reset parks at 800, stays 800.
        assert_eq!(waits, vec![100, 200, 400, 800, 800]);
        let s = lc.snapshot();
        assert_eq!(s.rebind_failures, 5);
        assert_eq!(s.retries_exhausted, 1, "cap of 3 hit once in 5 rounds");
        assert_eq!(s.state, LifecycleState::Cooldown, "never terminal");
    }

    #[test]
    fn probe_timeout_returns_to_cooldown() {
        let mut lc = ChannelLifecycle::new(cfg());
        lc.on_dead(0);
        lc.advance(0);
        assert_eq!(lc.advance(100), LifecycleAction::Rebind);
        lc.rebind_ok(100);
        // Probe window is 400ns: still probing inside it...
        assert_eq!(lc.advance(499), LifecycleAction::None);
        assert_eq!(lc.state(), LifecycleState::Probing);
        // ...failed round at the deadline, with escalated cooldown.
        lc.advance(500);
        assert_eq!(lc.state(), LifecycleState::Cooldown);
        assert_eq!(lc.snapshot().probe_timeouts, 1);
        assert_eq!(lc.advance(699), LifecycleAction::None, "200ns cooldown now");
        assert_eq!(lc.advance(700), LifecycleAction::Rebind);
    }

    #[test]
    fn rejoin_timeout_goes_live_and_counts() {
        let mut lc = ChannelLifecycle::new(cfg());
        lc.on_dead(0);
        lc.advance(0);
        assert_eq!(lc.advance(100), LifecycleAction::Rebind);
        lc.rebind_ok(100);
        lc.on_recovered(200);
        assert_eq!(lc.advance(1_099), LifecycleAction::None);
        assert_eq!(lc.state(), LifecycleState::Rejoining);
        lc.advance(1_100); // 200 + 900 rejoin window
        assert_eq!(lc.state(), LifecycleState::Live);
        let s = lc.snapshot();
        assert_eq!(s.rejoin_timeouts, 1);
        assert_eq!(s.rejoins, 1, "a timed-out rejoin still completes the cycle");
    }

    #[test]
    fn recovery_can_skip_the_rebind() {
        // Silence-death: the socket never broke, an ack arrives while
        // still in cooldown.
        let mut lc = ChannelLifecycle::new(cfg());
        lc.on_dead(0);
        lc.advance(0);
        lc.on_recovered(50);
        assert_eq!(lc.state(), LifecycleState::Rejoining);
        lc.on_rejoin_complete(60);
        assert_eq!(lc.state(), LifecycleState::Live);
        assert_eq!(lc.snapshot().rebind_attempts, 0);
    }

    #[test]
    fn repeated_death_evidence_is_idempotent() {
        let mut lc = ChannelLifecycle::new(cfg());
        lc.on_dead(0);
        lc.advance(0);
        lc.on_dead(10); // evidence repeats every poll while dead
        lc.on_dead(20);
        assert_eq!(lc.state(), LifecycleState::Cooldown);
        assert_eq!(lc.snapshot().cooldowns, 1);
        // A fresh cycle resets the backoff after a completed rejoin.
        assert_eq!(lc.advance(100), LifecycleAction::Rebind);
        lc.rebind_ok(100);
        lc.on_recovered(110);
        lc.on_rejoin_complete(120);
        lc.on_dead(500);
        lc.advance(500);
        assert_eq!(
            lc.advance(600),
            LifecycleAction::Rebind,
            "cooldown restarts at base after a completed cycle"
        );
    }

    #[test]
    fn config_derives_from_probe_interval() {
        let c = LifecycleConfig::with_probe_interval(1_000_000);
        assert_eq!(c.cooldown_base_ns, 1_000_000);
        assert_eq!(c.cooldown_max_ns, 16_000_000);
        assert_eq!(c.probe_timeout_ns, 4_000_000);
        assert_eq!(c.rejoin_timeout_ns, 8_000_000);
        assert_eq!(c.retry_cap, 3);
    }
}
