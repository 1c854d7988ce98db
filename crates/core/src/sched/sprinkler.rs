//! Sprinklers-style randomized variable-size striping (Ding et al.,
//! arXiv:1407.0006), as a second [`CausalScheduler`] behind the same
//! trait as [`Srr`](super::Srr).
//!
//! Where SRR interleaves channels packet-by-packet within a round,
//! Sprinklers sends each channel a contiguous variable-size *stripe*
//! (the paper's "spray"), sized to the channel's rate so stripes
//! complete in roughly equal time — the basis of its low-reordering
//! claim, which `tests/adaptive_operating_point.rs` tests head-to-head
//! against SRR+markers under identical impairments. The randomness (which
//! channel gets the next stripe, and how long it runs) is seeded into
//! the shared initial state `s0` exactly like [`Rfq`](super::Rfq), so
//! the receiver can simulate the sender and the scheme stays causal.
//!
//! Two deliberate deviations from the paper, both forced by the §4/§5
//! receiver-simulation setting:
//!
//! - **Stripes are counted in packets, not bytes.** The receiver
//!   cannot know the wire length of a packet it never received, so
//!   byte-accounted stripes would desynchronize on first loss;
//!   packet-counted stripes replay exactly. A channel's *weight* is
//!   its mean stripe length in packets.
//! - **Recovery reuses the marker machinery.** The monotone stripe
//!   index plays the role of the round number: a
//!   [`ChannelMark`] carries `(stripe index, packets remaining)`, and
//!   applying one fast-forwards whole stripes (identical RNG draw
//!   counts on both ends) before adopting the remainder.
//!
//! Weighted adaptation rides the same control plane as SRR:
//! [`schedule_quanta`](CausalScheduler::schedule_quanta) reinterprets a
//! byte-quantum vector as stripe-length weights (normalized by the
//! smallest entry), pending until the agreed stripe index — so the
//! tuner can retune a Sprinkler baseline with the very announcements
//! it sends SRR.

use super::{CausalScheduler, ChannelMark};
use crate::types::ChannelId;

/// Cap on a single stripe's packet budget, bounding both burstiness
/// and how long a receiver can be stuck expecting one channel.
const MAX_WEIGHT: u64 = 4096;

/// A small, fast, seedable PRNG (xorshift64*), same shape as
/// [`Rfq`](super::Rfq)'s: both ends hold it in `s0`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15).max(1),
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Randomized variable-size striper: uniform channel pick, stripe
/// length uniform in `[1, 2w−1]` (mean `w`, the channel's weight).
#[derive(Debug, Clone)]
pub struct Sprinkler {
    rng: XorShift64,
    seed: u64,
    /// Mean stripe length per channel, in packets.
    weights: Vec<u64>,
    initial_weights: Vec<u64>,
    live: Vec<bool>,
    /// Channel owning the current stripe.
    cur: ChannelId,
    /// Packets left in the current stripe (≥ 1 — a fresh stripe is
    /// drawn the moment the old one finishes).
    remaining: u64,
    /// Stripes started so far — the monotone "round" analogue.
    stripes: u64,
    pending_weights: Option<(u64, Vec<u64>)>,
    pending_mask: Option<(u64, Vec<bool>)>,
}

impl Sprinkler {
    /// A sprinkler over `weights.len()` channels; `weights[c]` is the
    /// mean stripe length (packets) for channel `c`, so byte shares
    /// are proportional to weights under equal packet sizes. Sender
    /// and receiver must use the same `seed`.
    ///
    /// # Panics
    /// Panics if `weights` is empty or any weight is `0`.
    pub fn new(weights: &[u64], seed: u64) -> Self {
        assert!(!weights.is_empty(), "need at least one channel");
        assert!(
            weights.iter().all(|&w| w > 0),
            "zero-weight channel would never be served: {weights:?}"
        );
        let weights: Vec<u64> = weights.iter().map(|&w| w.min(MAX_WEIGHT)).collect();
        let mut s = Self {
            rng: XorShift64::new(seed),
            seed,
            initial_weights: weights.clone(),
            live: vec![true; weights.len()],
            weights,
            cur: 0,
            remaining: 0,
            stripes: 0,
            pending_weights: None,
            pending_mask: None,
        };
        s.draw_stripe();
        s.stripes = 0; // the first stripe is index 0
        s
    }

    /// Equal weights on `n` channels — the unweighted baseline.
    pub fn equal(n: usize, weight: u64, seed: u64) -> Self {
        Self::new(&vec![weight; n], seed)
    }

    /// Start the next stripe: apply any pending reconfiguration due at
    /// this stripe index, then draw (channel, length) — exactly two
    /// RNG draws, so fast-forward replays are draw-for-draw identical.
    fn draw_stripe(&mut self) {
        if let Some((at, w)) = &self.pending_weights {
            if self.stripes >= *at {
                self.weights.copy_from_slice(w);
                self.pending_weights = None;
            }
        }
        if let Some((at, mask)) = &self.pending_mask {
            if self.stripes >= *at {
                self.live.copy_from_slice(mask);
                self.pending_mask = None;
            }
        }
        let alive = self.live.iter().filter(|&&l| l).count() as u64;
        debug_assert!(alive > 0, "mask validation keeps one channel live");
        let pick = self.rng.next_u64() % alive;
        self.cur = self
            .live
            .iter()
            .enumerate()
            .filter(|(_, &l)| l)
            .nth(pick as usize)
            .map(|(c, _)| c)
            .expect("pick < alive");
        let w = self.weights[self.cur];
        // Uniform on [1, 2w-1]: mean w, never zero. One draw even when
        // w == 1, keeping the draw count independent of the weights in
        // force (a mid-stream retune cannot desynchronize the streams).
        self.remaining = 1 + self.rng.next_u64() % (2 * w - 1).max(1);
        self.stripes += 1;
    }

    /// The weights in force (packets per mean stripe).
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }
}

impl CausalScheduler for Sprinkler {
    fn channels(&self) -> usize {
        self.weights.len()
    }

    fn current(&self) -> ChannelId {
        self.cur
    }

    /// The stripe index — monotone, shared by both ends, advancing
    /// once per stripe (not per packet).
    fn round(&self) -> u64 {
        self.stripes
    }

    fn advance(&mut self, _wire_len: usize) {
        self.remaining -= 1;
        if self.remaining == 0 {
            self.draw_stripe();
        }
    }

    fn skip_current(&mut self) {
        // "Move past the current channel": abandon the rest of the
        // stripe. The receiver burns whole stripes this way when a
        // marker reveals the sender is ahead.
        self.draw_stripe();
    }

    fn mark_for(&self, _c: ChannelId) -> ChannelMark {
        // All channels share one notion of progress: the stripe index,
        // with the in-progress remainder in the dc slot.
        ChannelMark {
            round: self.stripes,
            dc: self.remaining as i64,
        }
    }

    fn apply_mark(&mut self, _c: ChannelId, m: ChannelMark) -> bool {
        // Fast-forward whole stripes (draw-for-draw identical to the
        // sender's own sequence), then adopt the sender's position in
        // the final one. Never rewind.
        while self.stripes < m.round {
            self.draw_stripe();
        }
        if self.stripes == m.round && m.dc > 0 {
            self.remaining = (m.dc as u64).min(self.remaining.max(1)).max(1);
        }
        true
    }

    fn reset(&mut self) {
        *self = Sprinkler::new(&self.initial_weights, self.seed);
    }

    fn schedule_quanta(&mut self, effective_round: u64, quanta: &[i64]) {
        // Reinterpret byte quanta as stripe weights: normalize by the
        // smallest positive entry so 4:2:1 byte quanta become 4:2:1
        // packet weights. Applied at the first stripe boundary at or
        // after `effective_round` — both ends see the same stripe
        // index, so the draw streams stay in lockstep.
        debug_assert_eq!(quanta.len(), self.weights.len());
        let q_min = quanta.iter().copied().filter(|&q| q > 0).min().unwrap_or(1);
        let w: Vec<u64> = quanta
            .iter()
            .map(|&q| {
                let q = q.max(1) as u64;
                ((q + (q_min as u64) / 2) / q_min as u64).clamp(1, MAX_WEIGHT)
            })
            .collect();
        self.pending_weights = Some((effective_round, w));
    }

    fn schedule_mask(&mut self, effective_round: u64, live: &[bool]) {
        debug_assert_eq!(live.len(), self.weights.len());
        if !live.iter().any(|&l| l) {
            return; // an all-dead mask is invalid; keep striping
        }
        self.pending_mask = Some((effective_round, live.to_vec()));
    }

    fn live(&self, c: ChannelId) -> bool {
        self.live[c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stripe_sequence() {
        let mut a = Sprinkler::equal(4, 8, 42);
        let mut b = Sprinkler::equal(4, 8, 42);
        for _ in 0..5000 {
            assert_eq!(a.current(), b.current());
            assert_eq!(a.round(), b.round());
            a.advance(100);
            b.advance(100);
        }
    }

    #[test]
    fn stripes_are_contiguous_runs() {
        let mut s = Sprinkler::equal(3, 6, 7);
        let mut run_lens = Vec::new();
        let mut cur = s.current();
        let mut len = 0u64;
        for _ in 0..10_000 {
            if s.current() == cur {
                len += 1;
            } else {
                run_lens.push(len);
                cur = s.current();
                len = 1;
            }
            s.advance(100);
        }
        // Mean run length ≈ weight (uniform on [1, 11]); same-channel
        // back-to-back stripes merge runs, so the mean lands a bit
        // above 6. The point: far from 1 (SRR would alternate).
        let mean = run_lens.iter().sum::<u64>() as f64 / run_lens.len() as f64;
        assert!((5.0..=11.0).contains(&mean), "mean stripe run {mean}");
    }

    #[test]
    fn byte_share_tracks_weights() {
        let mut s = Sprinkler::new(&[4, 2, 1], 9);
        let mut served = [0u64; 3];
        for _ in 0..200_000 {
            served[s.current()] += 1;
            s.advance(100);
        }
        let total: u64 = served.iter().sum();
        let want = [4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0];
        for (c, (&got, want)) in served.iter().zip(want).enumerate() {
            let share = got as f64 / total as f64;
            assert!(
                (share - want).abs() < 0.02,
                "channel {c}: share {share:.3} vs weight share {want:.3}"
            );
        }
    }

    #[test]
    fn apply_mark_fast_forwards_to_sender_position() {
        let mut tx = Sprinkler::new(&[3, 5, 2], 99);
        let mut rx = Sprinkler::new(&[3, 5, 2], 99);
        for _ in 0..173 {
            tx.advance(100);
        }
        let m = tx.mark_for(0);
        rx.apply_mark(0, m);
        assert_eq!(rx.round(), tx.round());
        assert_eq!(rx.current(), tx.current());
        // And the two stay in lockstep afterwards.
        for _ in 0..500 {
            assert_eq!(rx.current(), tx.current());
            tx.advance(100);
            rx.advance(100);
        }
    }

    #[test]
    fn apply_mark_never_rewinds() {
        let mut rx = Sprinkler::equal(3, 4, 5);
        for _ in 0..50 {
            rx.advance(100);
        }
        let here = (rx.round(), rx.current(), rx.remaining);
        rx.apply_mark(0, ChannelMark { round: 2, dc: 3 });
        assert_eq!((rx.round(), rx.current(), rx.remaining), here);
    }

    #[test]
    fn skip_current_abandons_the_stripe() {
        let mut s = Sprinkler::equal(2, 8, 3);
        let r0 = s.round();
        s.skip_current();
        assert_eq!(s.round(), r0 + 1, "skip burns exactly one stripe");
    }

    #[test]
    fn reset_restores_seeded_start() {
        let mut s = Sprinkler::new(&[2, 3], 11);
        let first = (s.current(), s.remaining);
        for _ in 0..37 {
            s.advance(1);
        }
        s.reset();
        assert_eq!((s.current(), s.remaining), first);
        assert_eq!(s.round(), 0);
    }

    #[test]
    fn masked_channel_gets_no_stripes() {
        let mut s = Sprinkler::equal(3, 4, 17);
        s.schedule_mask(s.round() + 1, &[true, false, true]);
        // Burn past the effective stripe, then observe.
        for _ in 0..20 {
            s.advance(100);
        }
        for _ in 0..2000 {
            assert_ne!(s.current(), 1, "masked channel drew a stripe");
            s.advance(100);
        }
        assert!(!s.live(1));
    }

    #[test]
    fn retune_applies_at_stripe_boundary_in_lockstep() {
        let mut tx = Sprinkler::equal(3, 2, 23);
        let mut rx = Sprinkler::equal(3, 2, 23);
        let eff = tx.round() + 4;
        // 4:2:1 byte quanta → 4:2:1 packet weights on both ends.
        tx.schedule_quanta(eff, &[6000, 3000, 1500]);
        rx.schedule_quanta(eff, &[6000, 3000, 1500]);
        let mut served = [0u64; 3];
        for _ in 0..150_000 {
            assert_eq!(tx.current(), rx.current(), "retune broke lockstep");
            served[tx.current()] += 1;
            tx.advance(100);
            rx.advance(100);
        }
        assert_eq!(tx.weights(), &[4, 2, 1]);
        let total: u64 = served.iter().sum();
        let s0 = served[0] as f64 / total as f64;
        assert!((s0 - 4.0 / 7.0).abs() < 0.03, "share {s0:.3} after retune");
    }

    #[test]
    fn weight_change_cannot_desync_draw_streams() {
        // One end applies a retune the other never heard about — the
        // *pending* change must not consume draws before it applies,
        // and the draw count per stripe is weight-independent, so the
        // streams agree right up to the effective stripe.
        let mut a = Sprinkler::equal(2, 3, 31);
        let mut b = Sprinkler::equal(2, 3, 31);
        let eff = a.round() + 10;
        a.schedule_quanta(eff, &[3000, 1500]);
        while a.round() < eff {
            assert_eq!(a.current(), b.current());
            a.advance(100);
            b.advance(100);
        }
    }
}
