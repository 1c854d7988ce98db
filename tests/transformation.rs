//! Property tests for §3: the CFQ → load-sharing transformation
//! (Theorem 3.1) and the SRR fairness bound (Theorem 3.2 / Lemma 3.3).

use proptest::prelude::*;

use stripe::core::fairness::{lemma33_holds, ByteAccountant};
use stripe::core::fq::duality_check;
use stripe::core::sched::{CausalScheduler, Rfq, Srr};
use stripe::core::types::TestPacket;

fn packet_seq(max_len: usize) -> impl Strategy<Value = Vec<TestPacket>> {
    prop::collection::vec(40..=max_len, 1..400).prop_map(|lens| {
        lens.into_iter()
            .enumerate()
            .map(|(i, l)| TestPacket::new(i as u64, l))
            .collect()
    })
}

proptest! {
    /// Theorem 3.1 correspondence, SRR instance: striping an input and
    /// re-serving the per-channel outputs through the FQ direction
    /// reconstructs the input exactly.
    #[test]
    fn duality_srr(input in packet_seq(1500), n in 2usize..5, q in 1500i64..4000) {
        prop_assert!(duality_check(|| Srr::equal(n, q), &input));
    }

    /// Theorem 3.1, weighted instance.
    #[test]
    fn duality_weighted(input in packet_seq(1500),
                        quanta in prop::collection::vec(1500i64..6000, 2..5)) {
        prop_assert!(duality_check(|| Srr::weighted(&quanta), &input));
    }

    /// Theorem 3.1, packet-counting instances (RR / GRR).
    #[test]
    fn duality_grr(input in packet_seq(1500),
                   ratio in prop::collection::vec(1i64..5, 2..5)) {
        prop_assert!(duality_check(|| Srr::grr(&ratio), &input));
    }

    /// Theorem 3.1, randomized instance (seeded RFQ).
    #[test]
    fn duality_rfq(input in packet_seq(1500), n in 2usize..5, seed: u64) {
        prop_assert!(duality_check(|| Rfq::new(n, seed), &input));
    }

    /// Lemma 3.3: on any backlogged execution the per-channel byte
    /// deviation from entitlement is bounded by Max + 2*Quantum, provided
    /// Quantum >= Max.
    #[test]
    fn srr_fairness_bound(lens in prop::collection::vec(40usize..=1500, 50..2000),
                          n in 2usize..5) {
        let quantum = 1500i64;
        let quanta = vec![quantum; n];
        let mut s = Srr::weighted(&quanta);
        let mut acct = ByteAccountant::new(n);
        let mut max_pkt = 0usize;
        for &len in &lens {
            max_pkt = max_pkt.max(len);
            acct.record(s.current(), len as u64);
            s.advance(len);
        }
        let completed = s.round().saturating_sub(1);
        prop_assert!(lemma33_holds(&acct, &quanta, completed, max_pkt as i64));
    }

    /// The deviation bound holds *at every prefix*, not just at the end —
    /// the stronger statement the proof actually establishes.
    #[test]
    fn srr_fairness_bound_every_prefix(lens in prop::collection::vec(40usize..=1500, 1..600)) {
        let quantum = 1500i64;
        let mut s = Srr::equal(2, quantum);
        let mut acct = ByteAccountant::new(2);
        for &len in &lens {
            acct.record(s.current(), len as u64);
            s.advance(len);
            let k = (s.round() - 1) as i64;
            for c in 0..2 {
                let dev = (acct.bytes(c) as i64 - k * quantum).abs();
                prop_assert!(dev <= 1500 + 2 * quantum,
                    "deviation {dev} beyond bound mid-run");
            }
        }
    }

    /// Weighted SRR divides bytes in proportion to quanta (long-run), the
    /// generalization the paper gives for dissimilar channel capacities.
    #[test]
    fn weighted_shares_follow_quanta(seed: u64, ratio in 2i64..5) {
        let quanta = [1500i64, 1500 * ratio];
        let mut s = Srr::weighted(&quanta);
        let mut acct = ByteAccountant::new(2);
        let mut rng = stripe::netsim::DetRng::new(seed);
        for _ in 0..20_000 {
            let len = rng.range_usize(40, 1501);
            acct.record(s.current(), len as u64);
            s.advance(len);
        }
        let share = acct.bytes(1) as f64 / acct.bytes(0).max(1) as f64;
        prop_assert!((share - ratio as f64).abs() < 0.15 * ratio as f64,
            "share {share} vs quanta ratio {ratio}");
    }
}

/// The marker's implicit numbering matches reality for every channel and
/// every prefix of a random execution (the §5 invariant the recovery
/// protocol rests on).
#[test]
fn marker_predictions_always_come_true() {
    let lens: Vec<usize> = (0..500).map(|i| 40 + (i * 197) % 1400).collect();
    for n in 2..5usize {
        for cut in [3usize, 17, 101, 250] {
            let quanta: Vec<i64> = (0..n).map(|i| 1500 + 700 * i as i64).collect();
            let mut s = Srr::weighted(&quanta);
            for &l in &lens[..cut] {
                s.advance(l);
            }
            for target in 0..n {
                let predicted = s.mark_for(target);
                let mut probe = s.clone();
                let mut guard = 0;
                while probe.current() != target {
                    probe.advance(lens[(cut + guard) % lens.len()]);
                    guard += 1;
                    assert!(guard < 100_000);
                }
                assert_eq!(
                    (probe.round(), probe.dc(target)),
                    (predicted.round, predicted.dc),
                    "n={n} cut={cut} target={target}"
                );
                // An honest mark is in the range a receiver clamps a
                // forged one to: adopting it changes nothing.
                let mut adopted = probe.clone();
                assert!(adopted.apply_mark(target, predicted), "{predicted:?}");
                assert_eq!(adopted, probe, "n={n} cut={cut} target={target}");
            }
        }
    }
}
