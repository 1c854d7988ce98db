//! The striping sender engine: channel selection plus marker emission.
//!
//! [`StripingSender`] wraps any [`CausalScheduler`] and drives it in the
//! load-sharing direction (§3.2): for each outgoing packet it applies `f(s)`
//! to pick the channel, then `g(s, p)` to update state. It also implements
//! the sender half of the §5 synchronization protocol: every
//! `period_rounds` rounds, at a configurable position within the round, it
//! emits one [`Marker`] per channel carrying that channel's implicit
//! next-packet number.
//!
//! The marker *position* matters empirically (§6.3 found the fewest
//! out-of-order deliveries with markers at the beginning or end of a round);
//! the `marker_position` bench sweeps it.

use crate::fairness::ByteAccountant;
use crate::marker::Marker;
use crate::sched::{CausalScheduler, ChannelMark};
use crate::types::ChannelId;

/// Where within a round the periodic markers are emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerPosition {
    /// At the round boundary, before any channel is served — the paper's
    /// "beginning of the round" (equivalently the end of the previous one).
    StartOfRound,
    /// Immediately after channel `k`'s service completes within the round.
    /// `AfterChannel(N-1)` coincides with the next round's start.
    AfterChannel(ChannelId),
}

/// Marker emission policy.
///
/// In this engine the period is the §5 cadence: a marker batch every
/// `period_rounds` rounds, which is how every data path that cannot add a
/// header recovers — the simulated paths, the paper-figure benches of
/// `crates/bench`, the in-memory replay cell of the yardstick. Where a
/// data frame states its own number it needs no cadence: the socket
/// path's `StripeServer` numbers every frame, and reads the period only
/// as on or off — on, it sends a marker batch whenever it is asked for an
/// idle sweep; off, it sends none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerConfig {
    /// Emit markers every this many rounds. `0` disables markers entirely
    /// (pure logical reception — FIFO only until the first loss).
    pub period_rounds: u64,
    /// Position within the due round.
    pub position: MarkerPosition,
}

impl MarkerConfig {
    /// Markers at the start of every `period`-th round (the paper's
    /// recommended position).
    pub fn every_rounds(period: u64) -> Self {
        Self {
            period_rounds: period,
            position: MarkerPosition::StartOfRound,
        }
    }

    /// No markers at all.
    pub fn disabled() -> Self {
        Self {
            period_rounds: 0,
            position: MarkerPosition::StartOfRound,
        }
    }
}

/// The outcome of handing one packet to the sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendDecision {
    /// Channel the data packet must be transmitted on.
    pub channel: ChannelId,
    /// Markers to transmit *after* the data packet, each on its own channel.
    /// A marker describes the sender state at this instant, so it must not
    /// overtake the data packet on `channel` (FIFO channels guarantee the
    /// rest).
    pub markers: Vec<(ChannelId, Marker)>,
}

/// Sender-side striping engine.
#[derive(Debug, Clone)]
pub struct StripingSender<S: CausalScheduler> {
    sched: S,
    cfg: MarkerConfig,
    /// Linearized scan index (`round * N + channel`) at which the next
    /// marker batch is due.
    next_marker_at: Option<u64>,
    acct: ByteAccountant,
    markers_sent: u64,
}

impl<S: CausalScheduler> StripingSender<S> {
    /// Create a sender around a scheduler in its initial state. The receiver
    /// must be constructed from an identically configured scheduler.
    pub fn new(sched: S, cfg: MarkerConfig) -> Self {
        let n = sched.channels();
        let mut s = Self {
            acct: ByteAccountant::new(n),
            sched,
            cfg,
            next_marker_at: None,
            markers_sent: 0,
        };
        s.next_marker_at = s.first_marker_target();
        s
    }

    /// Linearized position of the scan: monotone non-decreasing across the
    /// life of the scheduler.
    fn lin(&self) -> u64 {
        self.sched.round() * self.sched.channels() as u64 + self.sched.current() as u64
    }

    fn target_for_round(&self, round: u64) -> u64 {
        let n = self.sched.channels() as u64;
        match self.cfg.position {
            MarkerPosition::StartOfRound => round * n,
            MarkerPosition::AfterChannel(k) => round * n + (k as u64 + 1),
        }
    }

    fn first_marker_target(&self) -> Option<u64> {
        if self.cfg.period_rounds == 0 {
            return None;
        }
        // First batch is due in round (start_round + period).
        Some(self.target_for_round(self.sched.round() + self.cfg.period_rounds))
    }

    /// Schedule the next marker batch `period` rounds after the round the
    /// just-fired `due` point belonged to (not after the current round, so
    /// a long jump cannot silently stretch the period). If the scan has
    /// already passed several periods (bursty advance), catch up without
    /// emitting duplicate batches.
    fn reschedule_after(&mut self, due: u64) {
        let n = self.sched.channels() as u64;
        let due_round = due / n;
        let mut next_round = due_round + self.cfg.period_rounds;
        while self.target_for_round(next_round) <= self.lin() {
            next_round += self.cfg.period_rounds;
        }
        self.next_marker_at = Some(self.target_for_round(next_round));
    }

    /// Stripe one packet of `wire_len` bytes. Returns the channel to send it
    /// on plus any markers that fall due.
    pub fn send(&mut self, wire_len: usize) -> SendDecision {
        let channel = self.sched.current();
        self.acct.record(channel, wire_len as u64);
        self.sched.advance(wire_len);

        let mut markers = Vec::new();
        if let Some(due) = self.next_marker_at {
            if self.lin() >= due {
                markers = self.make_markers();
                self.reschedule_after(due);
            }
        }
        SendDecision { channel, markers }
    }

    /// Stripe a whole batch of packets at once into caller-owned buffers.
    ///
    /// For each wire length in `lens`, the assigned channel is pushed onto
    /// `channels`; any marker batch falling due after packet `i` is pushed
    /// onto `markers` as `(i, channel, marker)`. Both buffers are cleared
    /// first but keep their capacity, so a steady-state caller allocates
    /// nothing. Decisions are identical to calling [`send`](Self::send) per
    /// packet — with markers disabled the scheduler's
    /// [`assign_batch`](CausalScheduler::assign_batch) fast path runs the
    /// whole batch in one sweep; with markers enabled the loop stays
    /// per-packet because a marker must snapshot the scheduler at exactly
    /// the packet it follows.
    pub fn send_batch(
        &mut self,
        lens: &[usize],
        channels: &mut Vec<ChannelId>,
        markers: &mut Vec<(usize, ChannelId, Marker)>,
    ) {
        channels.clear();
        markers.clear();
        if self.next_marker_at.is_some() {
            return self.serve_each(lens, channels, markers, |_, _| {});
        }
        self.sched.assign_batch(lens, channels);
        for (&c, &len) in channels.iter().zip(lens) {
            self.acct.record(c, len as u64);
        }
    }

    /// [`send_batch`](Self::send_batch) for a caller whose frames state
    /// their own number: every packet also gets its implicit number — the
    /// scheduler's [`mark_for`](CausalScheduler::mark_for) its channel,
    /// read just before the packet is served — pushed onto `numbers`
    /// (cleared first), one entry per packet, in order. It is what a
    /// marker directly ahead of the packet would state (§5), so a receiver
    /// that reads it resynchronizes on that packet instead of at the next
    /// marker. Markers or not: the cadence and the numbers are separate
    /// recoveries.
    pub fn send_batch_numbered(
        &mut self,
        lens: &[usize],
        channels: &mut Vec<ChannelId>,
        numbers: &mut Vec<ChannelMark>,
        markers: &mut Vec<(usize, ChannelId, Marker)>,
    ) {
        channels.clear();
        numbers.clear();
        markers.clear();
        self.serve_each(lens, channels, markers, |s, c| numbers.push(s.mark_for(c)));
    }

    /// Serve `lens` packet by packet: `number` sees the scheduler just
    /// before each packet is served, with the packet's channel, and a
    /// marker batch that falls due is tagged with the packet it follows.
    #[inline]
    fn serve_each(
        &mut self,
        lens: &[usize],
        channels: &mut Vec<ChannelId>,
        markers: &mut Vec<(usize, ChannelId, Marker)>,
        mut number: impl FnMut(&S, ChannelId),
    ) {
        for (i, &len) in lens.iter().enumerate() {
            let channel = self.sched.current();
            number(&self.sched, channel);
            self.acct.record(channel, len as u64);
            self.sched.advance(len);
            channels.push(channel);
            if let Some(due) = self.next_marker_at {
                if self.lin() >= due {
                    self.make_markers_tagged(i, markers);
                    self.reschedule_after(due);
                }
            }
        }
    }

    /// Append one marker per live channel, tagged with the packet index the
    /// batch follows. Allocation-free counterpart of
    /// [`make_markers`](Self::make_markers).
    fn make_markers_tagged(&mut self, after: usize, out: &mut Vec<(usize, ChannelId, Marker)>) {
        for c in 0..self.sched.channels() {
            if self.sched.live(c) {
                out.push((after, c, Marker::sync(c, self.sched.mark_for(c))));
                self.markers_sent += 1;
            }
        }
    }

    /// Build a full marker batch (one per channel) describing the current
    /// state. Exposed so callers can also emit markers on a *timer* during
    /// idle periods, when no data is flowing to trigger the round-based
    /// schedule.
    pub fn make_markers(&mut self) -> Vec<(ChannelId, Marker)> {
        let mut batch = Vec::with_capacity(self.sched.channels());
        self.make_markers_into(&mut batch);
        batch
    }

    /// Append a full marker batch to `out` without allocating: the
    /// buffer-reusing counterpart of [`make_markers`](Self::make_markers).
    pub fn make_markers_into(&mut self, out: &mut Vec<(ChannelId, Marker)>) {
        for c in 0..self.sched.channels() {
            if self.sched.live(c) {
                out.push((c, Marker::sync(c, self.sched.mark_for(c))));
                self.markers_sent += 1;
            }
        }
    }

    /// The underlying scheduler (read-only).
    pub fn scheduler(&self) -> &S {
        &self.sched
    }

    /// Bytes sent per channel so far — the fairness ledger.
    pub fn accountant(&self) -> &ByteAccountant {
        &self.acct
    }

    /// Total markers emitted (overhead accounting for the benches).
    pub fn markers_sent(&self) -> u64 {
        self.markers_sent
    }

    /// Reset to the initial state (endpoint restart, §5).
    pub fn reset(&mut self) {
        self.sched.reset();
        self.acct.reset();
        self.next_marker_at = self.first_marker_target();
    }

    /// Schedule a quantum change on the local scheduler: from
    /// `effective_round` the scan credits channels with the new quanta.
    /// The receiver must apply the identical change at the same round —
    /// see [`crate::handshake`] for the epoch'd handshake that carries it.
    /// `effective_round` must be far enough ahead for the announcement to
    /// arrive — a couple of marker periods is a safe margin; markers
    /// emitted before it predict with the *old* quanta, and if the change
    /// lands mid-prediction the next marker batch repairs the residual
    /// skew, exactly like a loss.
    pub fn schedule_quanta(&mut self, effective_round: u64, quanta: &[i64]) {
        self.sched.schedule_quanta(effective_round, quanta);
    }

    /// Schedule a membership change on the local scheduler: from
    /// `effective_round` the scan visits exactly the channels with
    /// `live[c] == true`. The receiver must apply the identical change
    /// (see [`crate::handshake`] for the handshake that carries it);
    /// markers for departing channels stop as soon as the mask takes
    /// effect.
    pub fn schedule_mask(&mut self, effective_round: u64, live: &[bool]) {
        self.sched.schedule_mask(effective_round, live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Srr;

    #[test]
    fn assigns_channels_like_the_bare_scheduler() {
        let mut tx = StripingSender::new(Srr::equal(2, 500), MarkerConfig::disabled());
        let mut bare = Srr::equal(2, 500);
        for len in [550usize, 200, 400, 150, 300, 400] {
            let expect = bare.current();
            bare.advance(len);
            assert_eq!(tx.send(len).channel, expect);
        }
    }

    #[test]
    fn no_markers_when_disabled() {
        let mut tx = StripingSender::new(Srr::equal(2, 500), MarkerConfig::disabled());
        for i in 0..1000 {
            assert!(tx.send(100 + i % 700).markers.is_empty());
        }
        assert_eq!(tx.markers_sent(), 0);
    }

    #[test]
    fn markers_emitted_once_per_period() {
        // RR over 2 channels, unit quanta: each packet is one scan step, a
        // round is 2 packets. Period 5 rounds => markers every 10 packets.
        let mut tx = StripingSender::new(Srr::rr(2), MarkerConfig::every_rounds(5));
        let mut batches = Vec::new();
        for i in 0..60 {
            let d = tx.send(100);
            if !d.markers.is_empty() {
                assert_eq!(d.markers.len(), 2, "one marker per channel");
                batches.push(i);
            }
        }
        // Start round is 1; batches due at rounds 6, 11, 16, ... which the
        // scan reaches after 10, 20, 30, ... packets (0-indexed: 9, 19, ...).
        assert_eq!(batches, vec![9, 19, 29, 39, 49, 59]);
    }

    #[test]
    fn marker_describes_channel_it_travels_on() {
        let mut tx = StripingSender::new(Srr::equal(3, 1500), MarkerConfig::every_rounds(1));
        for _ in 0..200 {
            let d = tx.send(900);
            for (ch, mk) in &d.markers {
                assert_eq!(*ch, mk.channel);
            }
        }
    }

    #[test]
    fn after_channel_position_shifts_emission_point() {
        // With AfterChannel(0) on RR/2, the batch fires right after channel
        // 0's packet of the due round, i.e. one packet earlier than
        // StartOfRound of the following round.
        let cfg = MarkerConfig {
            period_rounds: 5,
            position: MarkerPosition::AfterChannel(0),
        };
        let mut tx = StripingSender::new(Srr::rr(2), cfg);
        let mut first_batch = None;
        for i in 0..40 {
            if !tx.send(100).markers.is_empty() && first_batch.is_none() {
                first_batch = Some(i);
            }
        }
        assert_eq!(first_batch, Some(10)); // round 6's channel-0 packet
    }

    #[test]
    fn accountant_tracks_bytes_per_channel() {
        let mut tx = StripingSender::new(Srr::equal(2, 500), MarkerConfig::disabled());
        for _ in 0..100 {
            tx.send(250);
        }
        let a = tx.accountant();
        assert_eq!(a.total_bytes(), 25_000);
        // Equal quanta, equal sizes: perfectly balanced.
        assert_eq!(a.bytes(0), a.bytes(1));
    }

    /// Once a membership mask takes effect, marker batches cover only the
    /// surviving channels — no point describing a channel nobody serves.
    #[test]
    fn markers_skip_masked_out_channels() {
        let mut tx = StripingSender::new(Srr::equal(3, 500), MarkerConfig::every_rounds(2));
        let eff = tx.scheduler().round() + 1;
        tx.schedule_mask(eff, &[true, false, true]);
        let mut saw_batch = false;
        for _ in 0..60 {
            let d = tx.send(400);
            let settled = tx.scheduler().round() > eff;
            if settled {
                assert_ne!(d.channel, 1, "masked channel must not carry data");
            }
            if settled && !d.markers.is_empty() {
                saw_batch = true;
                let chans: Vec<_> = d.markers.iter().map(|(c, _)| *c).collect();
                assert_eq!(chans, vec![0, 2], "markers only on live channels");
            }
        }
        assert!(saw_batch);
    }

    /// `send_batch` must reproduce `send`'s channel assignments and marker
    /// emission points exactly, markers enabled or not, across ragged batch
    /// boundaries.
    #[test]
    fn send_batch_matches_per_packet_send() {
        for cfg in [MarkerConfig::every_rounds(3), MarkerConfig::disabled()] {
            let mut batch_tx = StripingSender::new(Srr::weighted(&[1500, 3000]), cfg);
            let mut legacy_tx = batch_tx.clone();
            let lens: Vec<usize> = (0..400).map(|i| 64 + (i * 131) % 1400).collect();
            let mut channels = Vec::new();
            let mut markers = Vec::new();
            let mut base = 0usize;
            for chunk in lens.chunks(13) {
                batch_tx.send_batch(chunk, &mut channels, &mut markers);
                let mut marker_iter = markers.iter().peekable();
                for (i, &len) in chunk.iter().enumerate() {
                    let d = legacy_tx.send(len);
                    assert_eq!(d.channel, channels[i], "channel at packet {}", base + i);
                    let mut legacy_markers = d.markers.into_iter();
                    while marker_iter.peek().is_some_and(|(at, _, _)| *at == i) {
                        let (_, c, m) = marker_iter.next().expect("peeked");
                        assert_eq!(legacy_markers.next(), Some((*c, *m)));
                    }
                    assert_eq!(legacy_markers.next(), None, "extra legacy marker");
                }
                assert!(marker_iter.next().is_none(), "extra batch marker");
                base += chunk.len();
            }
            assert_eq!(batch_tx.markers_sent(), legacy_tx.markers_sent());
            assert_eq!(
                batch_tx.accountant().total_bytes(),
                legacy_tx.accountant().total_bytes()
            );
        }
    }

    /// Every packet gets the number the scheduler held for its channel
    /// just before serving it — what a marker directly ahead of it would
    /// state — through a quantum change and a membership change taking
    /// effect mid-run, for SRR and for the randomized striper alike;
    /// channels and markers are `send_batch`'s.
    #[test]
    fn numbers_are_mark_for_the_channel_just_before_the_packet() {
        use crate::sched::Sprinkler;
        fn check<S: CausalScheduler + Clone>(sched: S, quanta: &[i64], live: &[bool]) {
            let cfg = MarkerConfig::every_rounds(3);
            let mut tx = StripingSender::new(sched.clone(), cfg);
            let mut plain = tx.clone();
            let mut bare = sched;
            let (retune_at, mask_at) = (bare.round() + 5, bare.round() + 11);
            tx.schedule_quanta(retune_at, quanta);
            plain.schedule_quanta(retune_at, quanta);
            bare.schedule_quanta(retune_at, quanta);
            let lens: Vec<usize> = (0..900).map(|i| 40 + (i * 211) % 1400).collect();
            let (mut channels, mut numbers, mut markers) = (Vec::new(), Vec::new(), Vec::new());
            let (mut plain_channels, mut plain_markers) = (Vec::new(), Vec::new());
            let mut masked = false;
            for chunk in lens.chunks(23) {
                if !masked && bare.round() >= retune_at + 2 {
                    masked = true;
                    tx.schedule_mask(mask_at, live);
                    plain.schedule_mask(mask_at, live);
                    bare.schedule_mask(mask_at, live);
                }
                tx.send_batch_numbered(chunk, &mut channels, &mut numbers, &mut markers);
                plain.send_batch(chunk, &mut plain_channels, &mut plain_markers);
                assert_eq!((&channels, &markers), (&plain_channels, &plain_markers));
                assert_eq!(numbers.len(), chunk.len(), "one number a packet");
                for ((&len, &c), number) in chunk.iter().zip(&channels).zip(&numbers) {
                    assert_eq!(c, bare.current());
                    assert_eq!(*number, bare.mark_for(c), "round {}", bare.round());
                    bare.advance(len);
                }
            }
            assert!(
                masked && bare.round() > mask_at + 5,
                "both changes took effect"
            );
        }
        check(
            Srr::equal(3, 1500),
            &[1500, 3000, 700],
            &[true, false, true],
        );
        check(
            Srr::weighted(&[1500, 4500, 3000]),
            &[2000, 2000, 2000],
            &[true, true, false],
        );
        check(
            Sprinkler::new(&[4, 2, 1], 0xBEE5),
            &[1000, 2000, 4000],
            &[true, false, true],
        );

        // Markers off: the numbers are asked for all the same.
        let mut tx = StripingSender::new(Srr::equal(2, 1500), MarkerConfig::disabled());
        let mut bare = Srr::equal(2, 1500);
        let (mut channels, mut numbers, mut markers) = (Vec::new(), vec![], Vec::new());
        let lens = [300, 900, 1400];
        tx.send_batch_numbered(&lens, &mut channels, &mut numbers, &mut markers);
        assert_eq!((channels.len(), markers.len()), (3, 0));
        for (&len, number) in lens.iter().zip(numbers) {
            assert_eq!(number, bare.mark_for(bare.current()));
            bare.advance(len);
        }
    }

    #[test]
    fn reset_restarts_marker_schedule() {
        let mut tx = StripingSender::new(Srr::rr(2), MarkerConfig::every_rounds(5));
        for _ in 0..15 {
            tx.send(100);
        }
        tx.reset();
        let mut first = None;
        for i in 0..40 {
            if !tx.send(100).markers.is_empty() {
                first = Some(i);
                break;
            }
        }
        assert_eq!(first, Some(9), "schedule identical to a fresh sender");
    }
}
