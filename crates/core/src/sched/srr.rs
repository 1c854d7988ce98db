//! Surplus Round Robin — the paper's flagship CFQ algorithm (§3.5).
//!
//! Each channel has a *quantum* of service and a *deficit counter* (DC).
//! When a channel becomes current its DC is credited with its quantum;
//! packets are served from/to it while the DC is positive, each debit being
//! the packet's cost; once the DC goes non-positive the scan moves on. A
//! channel that overdraws its account (the "surplus") is penalized by
//! exactly that amount on its next visit — this is what makes SRR fair for
//! variable-length packets where plain round robin is not.
//!
//! One parametric implementation covers the paper's whole deterministic
//! family:
//!
//! - **SRR** — cost = bytes, equal quanta ([`Srr::equal`]);
//! - **weighted SRR** — cost = bytes, quanta proportional to channel
//!   bandwidth ([`Srr::weighted`]), the load-sharing analogue of weighted
//!   fair queuing;
//! - **plain round robin (RR)** — cost = one unit per packet, quantum 1
//!   ([`Srr::rr`]);
//! - **generalized round robin (GRR)** — cost = one unit per packet, quantum
//!   `n_i` from the integer bandwidth ratio ([`Srr::grr`]), the packet-counting
//!   scheme Figure 15 compares against.

use super::{CausalScheduler, ChannelMark};
use crate::types::ChannelId;

/// How much a packet debits the deficit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// Debit the packet's wire length — true SRR, fair in bytes.
    Bytes,
    /// Debit one unit per packet — degenerates to RR/GRR, fair only in
    /// packet counts.
    Packets,
}

/// One channel's share of the scheduler state. Kept together so that
/// serving a channel touches one place, and a scheduler is one heap
/// object however many channels it has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Channel {
    /// The deficit counter.
    dc: i64,
    quantum: i64,
    /// The constructor-time quantum: `reset` returns to it (the initial
    /// state `s0` includes the original configuration; renegotiated
    /// quanta do not survive a reset and must be re-announced).
    initial_quantum: i64,
    /// In the striping set; the scan never visits a `false` entry (see
    /// [`CausalScheduler::schedule_mask`]).
    live: bool,
}

/// Surplus Round Robin scheduler state: the `(s0, f, g)` machine.
///
/// Invariant: after construction and after every [`advance`]
/// (but *not* necessarily after [`skip_current`] — see below), the current
/// channel's DC is positive, i.e. the scheduler always points at a channel
/// that is allowed to serve the next packet.
///
/// [`advance`]: CausalScheduler::advance
/// [`skip_current`]: CausalScheduler::skip_current
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Srr {
    cur: ChannelId,
    /// Global round number; 1-based to match the paper's figures.
    g: u64,
    chans: Box<[Channel]>,
    cost: CostModel,
    /// A quantum change waiting for its effective round (weighted-SRR
    /// renegotiation when channel rates change, see
    /// [`CausalScheduler::schedule_quanta`]).
    pending_quanta: Option<(u64, Vec<i64>)>,
    /// A membership change waiting for its effective round.
    pending_mask: Option<(u64, Vec<bool>)>,
}

impl Srr {
    /// Build an SRR scheduler from explicit per-channel quanta and a cost
    /// model.
    ///
    /// # Panics
    /// Panics if `quanta` is empty or any quantum is non-positive (a zero
    /// quantum would starve its channel forever and can livelock the scan).
    pub fn new(quanta: &[i64], cost: CostModel) -> Self {
        assert!(!quanta.is_empty(), "need at least one channel");
        assert!(
            quanta.iter().all(|&q| q > 0),
            "all quanta must be positive, got {quanta:?}"
        );
        let mut s = Self {
            cur: 0,
            g: 1,
            chans: quanta
                .iter()
                .map(|&q| Channel {
                    dc: 0,
                    quantum: q,
                    initial_quantum: q,
                    live: true,
                })
                .collect(),
            cost,
            pending_quanta: None,
            pending_mask: None,
        };
        // Enter channel 0: credit its first quantum.
        s.chans[0].dc += s.chans[0].quantum;
        s
    }

    /// `n` equal-capacity channels with byte accounting — classic SRR.
    pub fn equal(n: usize, quantum: i64) -> Self {
        Self::new(&vec![quantum; n], CostModel::Bytes)
    }

    /// Byte-accounted SRR with quanta proportional to channel bandwidths —
    /// the weighted generalization of §3.5 for dissimilar links.
    pub fn weighted(quanta: &[i64]) -> Self {
        Self::new(quanta, CostModel::Bytes)
    }

    /// Plain round robin over `n` channels: one packet per channel per round.
    pub fn rr(n: usize) -> Self {
        Self::new(&vec![1; n], CostModel::Packets)
    }

    /// Generalized round robin: channel `i` gets `ratio[i]` packets per
    /// round, from the "closest integer ratio of their bandwidths" (§6.2).
    pub fn grr(ratio: &[i64]) -> Self {
        Self::new(ratio, CostModel::Packets)
    }

    /// The quantum assigned to channel `c`.
    pub fn quantum(&self, c: ChannelId) -> i64 {
        self.chans[c].quantum
    }

    /// The largest quantum across channels (the `Quantum` of Theorem 3.2).
    pub fn max_quantum(&self) -> i64 {
        self.chans
            .iter()
            .map(|ch| ch.quantum)
            .max()
            .expect("non-empty")
    }

    /// Current deficit counter of channel `c` (exposed for tests and the
    /// figure-trace reproductions).
    pub fn dc(&self, c: ChannelId) -> i64 {
        self.chans[c].dc
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    fn pkt_cost(&self, wire_len: usize) -> i64 {
        match self.cost {
            CostModel::Bytes => wire_len as i64,
            CostModel::Packets => 1,
        }
    }

    /// Move the scan to the next *live* channel, crediting its quantum;
    /// bumps the round counter on wrap, where any scheduled quantum or
    /// membership change whose effective round has arrived is applied (so
    /// the entire round runs under one set of quanta and one membership at
    /// both ends).
    fn step(&mut self) {
        loop {
            self.cur += 1;
            if self.cur == self.chans.len() {
                self.cur = 0;
                self.g += 1;
                self.apply_due_changes();
            }
            if self.chans[self.cur].live {
                break;
            }
        }
        let ch = &mut self.chans[self.cur];
        ch.dc += ch.quantum;
    }

    /// At a round boundary: switch to the scheduled quanta and membership
    /// whose effective round has arrived.
    fn apply_due_changes(&mut self) {
        if self.pending_quanta.as_ref().is_some_and(|p| self.g >= p.0) {
            let (_, quanta) = self.pending_quanta.take().expect("just checked");
            for (ch, q) in self.chans.iter_mut().zip(quanta) {
                ch.quantum = q;
            }
        }
        if self.pending_mask.as_ref().is_some_and(|p| self.g >= p.0) {
            let (_, mask) = self.pending_mask.take().expect("just checked");
            for (ch, live) in self.chans.iter_mut().zip(mask) {
                // A channel re-entering the set restarts from zero
                // deficit — both ends agree by construction, which
                // keeps the simulations in lockstep across grows.
                if live && !ch.live {
                    ch.dc = 0;
                }
                ch.live = live;
            }
        }
    }
}

impl CausalScheduler for Srr {
    fn channels(&self) -> usize {
        self.chans.len()
    }

    fn current(&self) -> ChannelId {
        self.cur
    }

    fn round(&self) -> u64 {
        self.g
    }

    fn advance(&mut self, wire_len: usize) {
        self.chans[self.cur].dc -= self.pkt_cost(wire_len);
        // A channel so deep in deficit that one quantum does not surface it
        // keeps its credit and is passed over — the Theorem 3.2 accounting.
        while self.chans[self.cur].dc <= 0 {
            self.step();
        }
    }

    fn skip_current(&mut self) {
        // Receiver-only (condition C1). The skipped channel's DC is left as
        // is — stale, but it will be overwritten via `apply_mark` before the
        // channel is served again, because skipping only happens while a
        // marker for the channel is pending.
        self.step();
        while self.chans[self.cur].dc <= 0 {
            self.step();
        }
    }

    fn mark_for(&self, c: ChannelId) -> ChannelMark {
        let Channel { dc, quantum: q, .. } = self.chans[c];
        if c == self.cur {
            // Mid-service: the very next packet on `c` sees today's state.
            return ChannelMark { round: self.g, dc };
        }
        // `c` is not being served, so its DC is non-positive (every service
        // ends that way, and unvisited channels start at 0). Count the
        // quantum credits needed to surface it: it will be served at its
        // k-th future visit.
        debug_assert!(dc <= 0);
        // Smallest k >= 1 with dc + k*q > 0.
        let k = (-dc) / q + 1;
        let first_visit_round = if c > self.cur { self.g } else { self.g + 1 };
        ChannelMark {
            round: first_visit_round + (k - 1) as u64,
            dc: dc + k * q,
        }
    }

    fn apply_mark(&mut self, c: ChannelId, m: ChannelMark) -> bool {
        // An honest mark states the DC a channel is served at: credited
        // from at most 0 by one quantum, so in (0, quantum]. Below, a
        // forged `i64::MIN` would have `advance` credit quanta for ~2^51
        // rounds (and overflow `dc -= len`); above, one forged DC would
        // pin the scan to `c` until its next mark. Either end is clamped
        // to the honest range — by the largest quantum in force or
        // scheduled, which a mark made across a retune may state.
        let pending = self.pending_quanta.as_ref().map_or(0, |p| p.1[c]);
        let dc = m.dc.clamp(1, self.chans[c].quantum.max(pending));
        self.chans[c].dc = dc;
        dc == m.dc
    }

    fn reset(&mut self) {
        // In place: reset runs on every pooled-flow reuse in the churn
        // path and must not touch the allocator.
        self.cur = 0;
        self.g = 1;
        self.pending_quanta = None;
        self.pending_mask = None;
        for ch in self.chans.iter_mut() {
            ch.dc = 0;
            ch.quantum = ch.initial_quantum;
            ch.live = true;
        }
        self.chans[0].dc += self.chans[0].quantum;
    }

    fn schedule_quanta(&mut self, effective_round: u64, quanta: &[i64]) {
        assert_eq!(
            quanta.len(),
            self.chans.len(),
            "quantum update must cover every channel"
        );
        assert!(quanta.iter().all(|&q| q > 0), "all quanta must be positive");
        // Like membership changes, quantum changes can race the scan (a
        // live retune announcement may reach a receiver whose simulation
        // has already passed the nominal round): a round already passed is
        // clamped to the next boundary rather than rejected, and markers
        // mop up any residual skew.
        let round = effective_round.max(self.g + 1);
        self.pending_quanta = Some((round, quanta.to_vec()));
    }

    fn schedule_mask(&mut self, effective_round: u64, live: &[bool]) {
        assert_eq!(
            live.len(),
            self.chans.len(),
            "membership update must cover every channel"
        );
        assert!(
            live.iter().any(|&l| l),
            "membership must keep at least one channel live"
        );
        // Unlike quanta, membership changes can race the scan (the
        // announcing end may be several rounds ahead of the simulating
        // one): a round already passed is clamped to the next boundary
        // rather than rejected, and markers mop up any residual skew.
        let round = effective_round.max(self.g + 1);
        self.pending_mask = Some((round, live.to_vec()));
    }

    fn live(&self, c: ChannelId) -> bool {
        self.chans[c].live
    }

    fn rounds_per_packet(&self, max_len: usize) -> u64 {
        // A packet leaves its channel at most `max_len - 1` in debt, and
        // the channel surfaces once its quantum has been credited more
        // than that: the smallest quantum, in force or scheduled, sets
        // the pace.
        let scheduled = self.pending_quanta.iter().flat_map(|p| p.1.iter().copied());
        let quanta = self.chans.iter().map(|ch| ch.quantum).chain(scheduled);
        let smallest = quanta.min().expect("non-empty");
        self.pkt_cost(max_len) as u64 / smallest as u64 + 1
    }

    /// Amortized-O(1) batch assignment. When nothing is pending (no quantum
    /// or membership change scheduled, every channel live) the scan is pure
    /// arithmetic on the per-channel `dc`/`quantum`, so the whole batch
    /// runs in one tight loop with the state hoisted into locals. Any
    /// pending change falls back to the generic per-packet path, which
    /// applies it with full bookkeeping — decisions are bit-identical
    /// either way.
    fn assign_batch(&mut self, lens: &[usize], out: &mut Vec<ChannelId>) {
        let steady = self.pending_quanta.is_none()
            && self.pending_mask.is_none()
            && self.chans.iter().all(|ch| ch.live);
        if !steady {
            for &len in lens {
                out.push(self.cur);
                self.advance(len);
            }
            return;
        }
        let chans = &mut self.chans[..];
        let per_packet = match self.cost {
            CostModel::Bytes => None,
            CostModel::Packets => Some(1i64),
        };
        let mut cur = self.cur;
        let mut g = self.g;
        out.reserve(lens.len());
        for &len in lens {
            out.push(cur);
            chans[cur].dc -= per_packet.unwrap_or(len as i64);
            while chans[cur].dc <= 0 {
                cur += 1;
                if cur == chans.len() {
                    cur = 0;
                    g += 1;
                }
                chans[cur].dc += chans[cur].quantum;
            }
        }
        self.cur = cur;
        self.g = g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 6 of the paper: packets a(550), d(200), e(400), b(150),
    /// c(300), f(400) striped over two channels with quantum 500. The DC
    /// trace and channel assignment are given explicitly in the figure.
    #[test]
    fn figure6_dc_trace() {
        let mut s = Srr::equal(2, 500);

        // Initialization + start of round 1: DC1 = 500 (paper shows the
        // credited value as the round begins).
        assert_eq!(s.current(), 0);
        assert_eq!(s.round(), 1);
        assert_eq!(s.dc(0), 500);
        assert_eq!(s.dc(1), 0);

        // Packet a (550) -> channel 1 (our index 0). DC1 = -50, move on.
        s.advance(550);
        assert_eq!(s.dc(0), -50);
        assert_eq!(s.current(), 1);
        assert_eq!(s.dc(1), 500); // credited on entry

        // Packet d (200): DC2 = 300, stay.
        s.advance(200);
        assert_eq!(s.dc(1), 300);
        assert_eq!(s.current(), 1);

        // Packet e (400): DC2 = -100, wrap to round 2; DC1 = -50+500 = 450.
        s.advance(400);
        assert_eq!(s.dc(1), -100);
        assert_eq!(s.current(), 0);
        assert_eq!(s.round(), 2);
        assert_eq!(s.dc(0), 450);

        // Packet b (150): DC1 = 300, stay.
        s.advance(150);
        assert_eq!(s.dc(0), 300);
        assert_eq!(s.current(), 0);

        // Packet c (300): DC1 = 0 (non-positive), move to channel 2;
        // DC2 = -100+500 = 400.
        s.advance(300);
        assert_eq!(s.dc(0), 0);
        assert_eq!(s.current(), 1);
        assert_eq!(s.dc(1), 400);

        // Packet f (400): DC2 = 0, wrap to round 3.
        s.advance(400);
        assert_eq!(s.dc(1), 0);
        assert_eq!(s.current(), 0);
        assert_eq!(s.round(), 3);
    }

    /// Figure 6 channel assignment: a->1, d->2, e->2, b->1, c->1, f->2.
    #[test]
    fn figure6_channel_assignment() {
        let mut s = Srr::equal(2, 500);
        let input = [550usize, 200, 400, 150, 300, 400]; // a d e b c f
        let mut got = Vec::new();
        for len in input {
            got.push(s.current());
            s.advance(len);
        }
        assert_eq!(got, vec![0, 1, 1, 0, 0, 1]);
    }

    #[test]
    fn rr_alternates_per_packet_regardless_of_size() {
        let mut s = Srr::rr(3);
        let mut seq = Vec::new();
        for len in [1500usize, 40, 1500, 40, 1500, 40] {
            seq.push(s.current());
            s.advance(len);
        }
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(s.round(), 3);
    }

    #[test]
    fn grr_follows_integer_ratio() {
        // 2:1 ratio -> pattern A A B per round.
        let mut s = Srr::grr(&[2, 1]);
        let mut seq = Vec::new();
        for _ in 0..6 {
            seq.push(s.current());
            s.advance(999);
        }
        assert_eq!(seq, vec![0, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn deep_deficit_channel_is_passed_over_until_credit_recovers() {
        // Quantum 100 but a 250-byte packet: the channel owes 150 after
        // round 1 and must sit out one full visit.
        let mut s = Srr::equal(2, 100);
        s.advance(250); // ch0 dc = -150 -> ch1 credited 100
        assert_eq!(s.current(), 1);
        s.advance(250); // ch1 dc = -150 -> round 2: ch0 dc = -50 (skip) ->
                        // ch1... wait ch0 credited -150+100=-50, still <=0,
                        // step to ch1: -150+100=-50, <=0, wrap round 3:
                        // ch0 -50+100=50 > 0.
        assert_eq!(s.current(), 0);
        assert_eq!(s.round(), 3);
        assert_eq!(s.dc(0), 50);
    }

    #[test]
    fn mark_for_current_channel_is_live_state() {
        let mut s = Srr::equal(2, 500);
        s.advance(100); // ch0 dc 400, still current
        let m = s.mark_for(0);
        assert_eq!(m, ChannelMark { round: 1, dc: 400 });
    }

    #[test]
    fn mark_for_future_channel_predicts_service_start() {
        let mut s = Srr::equal(2, 500);
        // ch1 not yet visited: dc=0, k=1 -> served this round (1 > 0) at
        // dc = 500.
        let m = s.mark_for(1);
        assert_eq!(m, ChannelMark { round: 1, dc: 500 });

        s.advance(550); // ch0 -> -50; now ch1 current with dc 500
                        // ch0: k = (50/500)+1 = 1, first visit next round (0 < 1).
        let m0 = s.mark_for(0);
        assert_eq!(m0, ChannelMark { round: 2, dc: 450 });
    }

    /// The marker prediction must agree with what actually happens: run the
    /// scheduler forward and check the first service of each channel matches
    /// the mark computed beforehand.
    #[test]
    fn mark_predictions_come_true() {
        let lens = [700usize, 1200, 64, 1500, 900, 300, 40, 1500, 800, 256];
        for target in 0..3usize {
            let mut s = Srr::weighted(&[1500, 3000, 1000]);
            // Advance a little so state is non-trivial.
            for &l in &lens[..4] {
                s.advance(l);
            }
            let predicted = s.mark_for(target);
            // Walk forward until `target` is served next.
            let mut guard = 0;
            while s.current() != target {
                s.advance(lens[guard % lens.len()]);
                guard += 1;
                assert!(guard < 10_000, "never reached channel {target}");
            }
            assert_eq!(
                (s.round(), s.dc(target)),
                (predicted.round, predicted.dc),
                "prediction for channel {target} diverged"
            );
            // An honest mark is in range: adopting it changes nothing.
            let mut adopted = s.clone();
            assert!(adopted.apply_mark(target, predicted), "{predicted:?}");
            assert_eq!(adopted, s);
        }
    }

    /// A forged DC at either end of `i64` is adopted clamped to what an
    /// honest mark states, (0, quantum], and the scan goes on: no ~2^51
    /// rounds of credit, no overflow, no channel pinned for good.
    #[test]
    fn forged_dc_is_clamped_to_the_honest_range() {
        for (forged, adopted) in [(i64::MIN, 1), (0, 1), (i64::MAX, 3000)] {
            let mut s = Srr::weighted(&[1500, 3000]);
            s.advance(1600); // channel 1 is current
            assert!(!s.apply_mark(
                1,
                ChannelMark {
                    round: 1,
                    dc: forged
                }
            ));
            assert_eq!(s.dc(1), adopted);
            s.advance(3000);
            assert_eq!(s.current(), 0, "channel 1 let go of the scan");
        }
        // A retune's quanta are honest before they take effect.
        let mut s = Srr::equal(2, 1500);
        s.schedule_quanta(2, &[1500, 4500]);
        assert!(s.apply_mark(1, ChannelMark { round: 1, dc: 4500 }));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut s = Srr::equal(2, 500);
        s.advance(100);
        s.advance(900);
        s.reset();
        assert_eq!(s, Srr::equal(2, 500));
    }

    #[test]
    fn skip_current_moves_on_and_counts_rounds() {
        let mut s = Srr::equal(2, 500);
        assert_eq!(s.round(), 1);
        s.skip_current(); // past ch0
        assert_eq!(s.current(), 1);
        s.skip_current(); // past ch1, wraps
        assert_eq!(s.current(), 0);
        assert_eq!(s.round(), 2);
    }

    #[test]
    fn scheduled_quanta_apply_at_their_round() {
        let mut s = Srr::equal(2, 500);
        s.schedule_quanta(3, &[500, 1500]);
        // Rounds 1-2 run under the old quanta.
        while s.round() < 3 {
            assert_eq!(s.quantum(1), 500);
            s.advance(400);
        }
        // From round 3 the new quantum is credited.
        assert_eq!(s.quantum(1), 1500);
        // Channel 1's service in round 3 gets a 1500 credit: serve three
        // 400s on channel 1 once we reach it.
        while s.current() != 1 {
            s.advance(400);
        }
        let served_start_dc = s.dc(1);
        assert!(
            served_start_dc > 500,
            "new quantum visible: {served_start_dc}"
        );
    }

    #[test]
    fn sender_and_receiver_schedulers_stay_in_lockstep_across_update() {
        let mut a = Srr::weighted(&[1500, 1500]);
        let mut b = Srr::weighted(&[1500, 1500]);
        a.schedule_quanta(5, &[1500, 4500]);
        b.schedule_quanta(5, &[1500, 4500]);
        for i in 0..5000 {
            assert_eq!(a.current(), b.current(), "diverged at packet {i}");
            let len = 64 + (i * 131) % 1400;
            a.advance(len);
            b.advance(len);
        }
        assert_eq!(a, b);
        assert_eq!(a.quantum(1), 4500);
    }

    #[test]
    fn scheduled_mask_applies_at_its_round() {
        let mut s = Srr::equal(3, 500);
        // Kill channel 1 from round 3.
        s.schedule_mask(3, &[true, false, true]);
        let mut visited_by_round: Vec<(u64, ChannelId)> = Vec::new();
        for _ in 0..30 {
            visited_by_round.push((s.round(), s.current()));
            s.advance(500);
        }
        for (round, c) in visited_by_round {
            if round >= 3 {
                assert_ne!(c, 1, "dead channel visited in round {round}");
            }
        }
        assert!(!CausalScheduler::live(&s, 1));
        assert!(CausalScheduler::live(&s, 0));
    }

    #[test]
    fn mask_grow_restarts_channel_at_zero_deficit() {
        let mut a = Srr::equal(3, 500);
        let mut b = Srr::equal(3, 500);
        for s in [&mut a, &mut b] {
            s.schedule_mask(3, &[true, false, true]);
        }
        let lens = [700usize, 300, 550, 420, 1100, 90];
        for i in 0..40 {
            a.advance(lens[i % lens.len()]);
            b.advance(lens[i % lens.len()]);
        }
        // Reintegrate channel 1 at a common future round.
        let round = a.round() + 2;
        a.schedule_mask(round, &[true, true, true]);
        b.schedule_mask(round, &[true, true, true]);
        for i in 0..200 {
            assert_eq!(a.current(), b.current(), "diverged at step {i}");
            assert_eq!(a.round(), b.round());
            a.advance(lens[i % lens.len()]);
            b.advance(lens[i % lens.len()]);
        }
        assert_eq!(a, b);
        assert!(CausalScheduler::live(&a, 1));
    }

    #[test]
    fn mask_with_past_round_is_clamped_not_rejected() {
        let mut s = Srr::equal(2, 500);
        for _ in 0..20 {
            s.advance(400);
        }
        let g = s.round();
        s.schedule_mask(1, &[true, false]); // long past
                                            // Applied at the next wrap, not never and not panicking.
        while s.round() < g + 2 {
            s.advance(400);
        }
        assert!(!CausalScheduler::live(&s, 1));
        assert_eq!(s.current(), 0);
    }

    #[test]
    fn reset_restores_full_membership() {
        let mut s = Srr::equal(2, 500);
        s.schedule_mask(2, &[true, false]);
        while s.round() < 4 {
            s.advance(400);
        }
        assert!(!CausalScheduler::live(&s, 1));
        s.reset();
        assert_eq!(s, Srr::equal(2, 500));
        assert!(CausalScheduler::live(&s, 1));
    }

    #[test]
    #[should_panic(expected = "at least one channel live")]
    fn all_dead_mask_rejected() {
        let mut s = Srr::equal(2, 500);
        s.schedule_mask(3, &[false, false]);
    }

    #[test]
    #[should_panic(expected = "every channel")]
    fn mask_must_cover_all_channels() {
        let mut s = Srr::equal(3, 500);
        s.schedule_mask(3, &[true, false]);
    }

    #[test]
    fn stale_quanta_round_clamps_to_next_boundary() {
        // A retune whose nominal round has already passed (the local scan
        // raced ahead of the announcement) is clamped to the next round
        // boundary, not rejected: a remote announcement must never panic
        // the simulating end.
        let mut s = Srr::equal(2, 500);
        for _ in 0..8 {
            s.advance(500); // g is now well past 1
        }
        let g = s.round();
        s.schedule_quanta(1, &[800, 200]);
        // Still on the old quantum through the rest of this round...
        while s.round() == g {
            assert_eq!(s.quantum(s.current()), 500);
            s.advance(500);
        }
        // ...and on the new quanta from the next round boundary.
        assert_eq!(s.quantum(0), 800);
        assert_eq!(s.quantum(1), 200);
    }

    #[test]
    #[should_panic(expected = "every channel")]
    fn quanta_update_must_cover_all_channels() {
        let mut s = Srr::equal(3, 500);
        s.schedule_quanta(5, &[500, 500]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_quantum_rejected() {
        let _ = Srr::new(&[500, 0], CostModel::Bytes);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn empty_quanta_rejected() {
        let _ = Srr::new(&[], CostModel::Bytes);
    }

    /// The batch fast path must make exactly the decisions the per-packet
    /// path makes and leave identical state — across cost models, weighted
    /// quanta, and ragged batch boundaries.
    #[test]
    fn assign_batch_matches_per_packet_path() {
        let schedulers = [
            Srr::equal(4, 1500),
            Srr::weighted(&[1500, 3000, 1000]),
            Srr::rr(3),
            Srr::grr(&[2, 1]),
        ];
        let lens: Vec<usize> = (0..500).map(|i| 40 + (i * 131) % 1460).collect();
        for proto in schedulers {
            let mut fast = proto.clone();
            let mut slow = proto.clone();
            let mut fast_out = Vec::new();
            let mut slow_out = Vec::new();
            // Ragged chunking so batches straddle round boundaries.
            for chunk in lens.chunks(7) {
                fast.assign_batch(chunk, &mut fast_out);
                for &len in chunk {
                    slow_out.push(slow.current());
                    slow.advance(len);
                }
            }
            assert_eq!(fast_out, slow_out);
            assert_eq!(fast, slow);
        }
    }

    /// With a pending quantum or membership change the fast path must stand
    /// down and still match, applying the change at its round.
    #[test]
    fn assign_batch_matches_with_pending_changes() {
        let mut fast = Srr::equal(3, 500);
        let mut slow = Srr::equal(3, 500);
        for s in [&mut fast, &mut slow] {
            s.schedule_quanta(3, &[500, 1500, 500]);
            s.schedule_mask(5, &[true, false, true]);
        }
        let lens: Vec<usize> = (0..300).map(|i| 64 + (i * 89) % 1400).collect();
        let mut fast_out = Vec::new();
        let mut slow_out = Vec::new();
        for chunk in lens.chunks(11) {
            fast.assign_batch(chunk, &mut fast_out);
            for &len in chunk {
                slow_out.push(slow.current());
                slow.advance(len);
            }
        }
        assert_eq!(fast_out, slow_out);
        assert_eq!(fast, slow);
    }
}
