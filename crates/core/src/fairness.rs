//! Byte accounting and the SRR fairness bound (Theorem 3.2 / Lemma 3.3).
//!
//! The paper's fairness definition: over any backlogged execution, the bytes
//! allocated to any channel may deviate from its entitlement
//! (`K · Quantum_i` after `K` rounds) by at most a constant —
//! `Max + 2·Quantum` for SRR, where `Max` is the maximum packet size and
//! `Quantum` the largest quantum. This module provides the ledger the
//! engines and property tests use to check that bound on real executions.

use crate::types::ChannelId;

/// One channel's line in the ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    bytes: u64,
    packets: u64,
}

/// Per-channel bytes/packets ledger: one array, so recording a packet
/// touches one place and a ledger is one heap object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteAccountant {
    chans: Box<[Tally]>,
}

impl ByteAccountant {
    /// A ledger for `n` channels.
    pub fn new(n: usize) -> Self {
        Self {
            chans: vec![Tally::default(); n].into(),
        }
    }

    /// Record one packet of `len` bytes on channel `c`.
    pub fn record(&mut self, c: ChannelId, len: u64) {
        let t = &mut self.chans[c];
        t.bytes += len;
        t.packets += 1;
    }

    /// Bytes sent on channel `c`.
    pub fn bytes(&self, c: ChannelId) -> u64 {
        self.chans[c].bytes
    }

    /// Packets sent on channel `c`.
    pub fn packets(&self, c: ChannelId) -> u64 {
        self.chans[c].packets
    }

    /// Total bytes across channels.
    pub fn total_bytes(&self) -> u64 {
        self.chans.iter().map(|t| t.bytes).sum()
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.chans.len()
    }

    /// Largest minus smallest per-channel byte count — the spread a fair
    /// equal-quantum scheme must keep bounded.
    pub fn byte_spread(&self) -> u64 {
        let max = self.chans.iter().map(|t| t.bytes).max().unwrap_or(0);
        let min = self.chans.iter().map(|t| t.bytes).min().unwrap_or(0);
        max - min
    }

    /// Jain's fairness index of the per-channel byte shares, each normalized
    /// by `weights[i]` (use equal weights for equal channels). 1.0 is
    /// perfectly fair; `1/n` is maximally unfair.
    ///
    /// # Panics
    /// Panics if `weights` has the wrong length or contains a non-positive
    /// weight.
    pub fn jain_index(&self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.chans.len());
        assert!(weights.iter().all(|&w| w > 0.0));
        let shares: Vec<f64> = self
            .chans
            .iter()
            .zip(weights)
            .map(|(t, &w)| t.bytes as f64 / w)
            .collect();
        let sum: f64 = shares.iter().sum();
        if sum == 0.0 {
            return 1.0; // nothing sent: vacuously fair
        }
        let sumsq: f64 = shares.iter().map(|s| s * s).sum();
        (sum * sum) / (shares.len() as f64 * sumsq)
    }

    /// Reset all counters.
    pub fn reset(&mut self) {
        self.chans.fill(Tally::default());
    }
}

/// The Theorem 3.2 / Lemma 3.3 deviation bound: `Max + 2·Quantum`.
pub fn srr_bound(max_packet: i64, max_quantum: i64) -> i64 {
    max_packet + 2 * max_quantum
}

/// Check Lemma 3.3 on a finished execution: for every channel `i`, the bytes
/// actually sent must be within `srr_bound` of the entitlement
/// `K · Quantum_i` after `K` completed rounds.
pub fn lemma33_holds(
    acct: &ByteAccountant,
    quanta: &[i64],
    completed_rounds: u64,
    max_packet: i64,
) -> bool {
    let max_quantum = quanta.iter().copied().max().unwrap_or(0);
    let bound = srr_bound(max_packet, max_quantum);
    (0..acct.channels()).all(|c| {
        let entitled = completed_rounds as i64 * quanta[c];
        let actual = acct.bytes(c) as i64;
        (actual - entitled).abs() <= bound
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{CausalScheduler, Srr};

    #[test]
    fn ledger_basic_accounting() {
        let mut a = ByteAccountant::new(2);
        a.record(0, 1000);
        a.record(0, 500);
        a.record(1, 200);
        assert_eq!(a.bytes(0), 1500);
        assert_eq!(a.packets(0), 2);
        assert_eq!(a.total_bytes(), 1700);
        assert_eq!(a.byte_spread(), 1300);
    }

    #[test]
    fn jain_index_extremes() {
        let mut a = ByteAccountant::new(4);
        for c in 0..4 {
            a.record(c, 1000);
        }
        assert!((a.jain_index(&[1.0; 4]) - 1.0).abs() < 1e-12);

        let mut b = ByteAccountant::new(4);
        b.record(0, 1000);
        assert!((b.jain_index(&[1.0; 4]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_index_respects_weights() {
        // 3:1 split over channels weighted 3:1 is perfectly fair.
        let mut a = ByteAccountant::new(2);
        a.record(0, 3000);
        a.record(1, 1000);
        assert!((a.jain_index(&[3.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    /// Lemma 3.3 on a live SRR execution with adversarial sizes.
    #[test]
    fn srr_satisfies_lemma33_on_adversarial_input() {
        let quanta = [1500i64, 1500];
        let mut s = Srr::weighted(&quanta);
        let mut acct = ByteAccountant::new(2);
        let max_pkt = 1500usize;
        // Alternating big/small — the pattern that breaks RR (§6.2).
        for i in 0..10_000 {
            let len = if i % 2 == 0 { max_pkt } else { 200 };
            acct.record(s.current(), len as u64);
            s.advance(len);
        }
        let completed = s.round() - 1; // rounds fully finished
        assert!(lemma33_holds(&acct, &quanta, completed, max_pkt as i64));
        // And the spread is tiny relative to total volume.
        assert!(acct.byte_spread() as i64 <= srr_bound(max_pkt as i64, 1500));
    }

    /// Plain RR violates byte fairness on the same adversarial input — the
    /// motivating failure of §2.1.
    #[test]
    fn rr_violates_byte_fairness_on_adversarial_input() {
        let mut s = Srr::rr(2);
        let mut acct = ByteAccountant::new(2);
        for i in 0..10_000u64 {
            let len = if i % 2 == 0 { 1500 } else { 200 };
            acct.record(s.current(), len);
            s.advance(len as usize);
        }
        // All the 1500s land on channel 0: spread grows with the run.
        assert!(acct.byte_spread() > 1_000_000);
    }

    #[test]
    fn reset_zeroes_ledger() {
        let mut a = ByteAccountant::new(2);
        a.record(0, 10);
        a.reset();
        assert_eq!(a.total_bytes(), 0);
        assert_eq!(a.packets(0), 0);
    }
}
