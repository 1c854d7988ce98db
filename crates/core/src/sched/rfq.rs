//! Randomized Fair Queuing, transformed into randomized load sharing (§3.4).
//!
//! The paper offers RFQ — "randomly pick a queue to service" — as the
//! simplest example of the transformation theorem applied to a *randomized*
//! scheme: the expected number of bytes on each channel is equal.
//!
//! Randomness would normally destroy causality (the receiver could not
//! predict the sender's choices), so we make the random sequence part of the
//! shared initial state `s0`: both ends seed an identical deterministic PRNG.
//! Under the paper's definition the algorithm is then causal — the decision
//! is a function of the initial state and the packets already sent.
//!
//! Marker-based recovery (§5) is specified for round-based schedulers; for
//! RFQ we use the natural analogue: the monotone *draw index* plays the role
//! of the round number, a [`ChannelMark`] carries the index of the next
//! draw, and applying a mark fast-forwards the PRNG. Recovery is best-effort
//! (quasi-FIFO), exactly as for SRR.

use super::{CausalScheduler, ChannelMark};
use crate::types::ChannelId;

/// A small, fast, seedable PRNG (xorshift64*). Implemented locally so the
/// sender and receiver state is a plain, portable 8-byte value that can ride
/// in a marker.
#[derive(Debug, Clone, PartialEq, Eq)]
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        // Zero is an absorbing state for xorshift; displace it.
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

/// Randomized load-sharing scheduler with receiver-simulable randomness.
#[derive(Debug, Clone)]
pub struct Rfq {
    rng: XorShift64,
    seed: u64,
    n: usize,
    /// Channel chosen for the next packet (the peeked draw).
    next: ChannelId,
    /// Number of draws committed so far — the monotone "round" analogue.
    draws: u64,
}

impl Rfq {
    /// Create an RFQ scheduler over `n` channels. Sender and receiver must
    /// use the same `seed`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "need at least one channel");
        let mut rng = XorShift64::new(seed);
        let next = (rng.next_u64() % n as u64) as usize;
        Self {
            rng,
            seed,
            n,
            next,
            draws: 0,
        }
    }

    fn redraw(&mut self) {
        self.next = (self.rng.next_u64() % self.n as u64) as usize;
    }
}

impl CausalScheduler for Rfq {
    fn channels(&self) -> usize {
        self.n
    }

    fn current(&self) -> ChannelId {
        self.next
    }

    /// For RFQ the "round" is the draw index — monotone, shared by both
    /// ends, and advancing by one per packet.
    fn round(&self) -> u64 {
        self.draws
    }

    fn advance(&mut self, _wire_len: usize) {
        self.draws += 1;
        self.redraw();
    }

    fn skip_current(&mut self) {
        // Skipping consumes the draw, exactly like serving would; the
        // receiver uses this to burn through draws for lost packets.
        self.draws += 1;
        self.redraw();
    }

    fn mark_for(&self, _c: ChannelId) -> ChannelMark {
        // All channels share the same notion of progress: the next draw.
        ChannelMark {
            round: self.draws,
            dc: 0,
        }
    }

    fn apply_mark(&mut self, _c: ChannelId, m: ChannelMark) -> bool {
        // Fast-forward to the marked draw index; never rewind (a stale
        // marker must not undo progress).
        while self.draws < m.round {
            self.draws += 1;
            self.redraw();
        }
        true
    }

    fn reset(&mut self) {
        *self = Rfq::new(self.n, self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Rfq::new(4, 42);
        let mut b = Rfq::new(4, 42);
        for _ in 0..1000 {
            assert_eq!(a.current(), b.current());
            a.advance(100);
            b.advance(100);
        }
    }

    #[test]
    fn different_seed_diverges() {
        let mut a = Rfq::new(4, 1);
        let mut b = Rfq::new(4, 2);
        let mut same = 0;
        for _ in 0..1000 {
            if a.current() == b.current() {
                same += 1;
            }
            a.advance(100);
            b.advance(100);
        }
        // Pure chance gives ~250 matches; identical streams would give 1000.
        assert!(same < 500, "streams suspiciously correlated: {same}");
    }

    #[test]
    fn choices_are_roughly_uniform() {
        let mut s = Rfq::new(4, 7);
        let mut hist = [0u32; 4];
        for _ in 0..40_000 {
            hist[s.current()] += 1;
            s.advance(100);
        }
        for &h in &hist {
            // Each bucket expects 10_000; allow 5% deviation.
            assert!((9_500..=10_500).contains(&h), "histogram {hist:?}");
        }
    }

    #[test]
    fn apply_mark_fast_forwards_to_sender_position() {
        let mut tx = Rfq::new(3, 99);
        let mut rx = Rfq::new(3, 99);
        for _ in 0..57 {
            tx.advance(100);
        }
        let m = tx.mark_for(0);
        rx.apply_mark(0, m);
        assert_eq!(rx.round(), tx.round());
        assert_eq!(rx.current(), tx.current());
    }

    #[test]
    fn apply_mark_never_rewinds() {
        let mut rx = Rfq::new(3, 5);
        for _ in 0..10 {
            rx.advance(100);
        }
        let here = (rx.round(), rx.current());
        rx.apply_mark(0, ChannelMark { round: 3, dc: 0 });
        assert_eq!((rx.round(), rx.current()), here);
    }

    #[test]
    fn reset_restores_seeded_start() {
        let mut s = Rfq::new(3, 11);
        let first = s.current();
        s.advance(1);
        s.advance(1);
        s.reset();
        assert_eq!(s.current(), first);
        assert_eq!(s.round(), 0);
    }
}
