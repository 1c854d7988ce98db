//! SRR fairness across mid-stream retunes: the WRR-bounds deviation
//! limit (§3.2, `fairness::srr_bound` = `Max + 2·Quantum`) must hold
//! not just in steady state but *through* every live quantum switch.
//!
//! The adaptive loop retunes by calling
//! [`StripingSender::schedule_quanta`] with a near-future effective
//! round — the same call the epoch'd retune handshake makes on both
//! endpoints. A switch rewrites each channel's per-round credit while
//! the surplus counters carry over, so the thing to check is the
//! *piecewise* entitlement: every completed round credits each channel
//! the quantum in effect **for that round**, and each channel's carried
//! bytes must track that running entitlement within
//! `srr_bound(max_packet, max quantum in effect anywhere in the run)` —
//! checked continuously during the run, not just at the end.
//!
//! Two layers: a proptest over arbitrary packet streams, quanta
//! vectors, and retune placements; and a deterministic multi-seed soak
//! with long streams and chained retunes (the "did proptest just get
//! unlucky and stay tiny" backstop).

use proptest::prelude::*;

use stripe::core::fairness::srr_bound;
use stripe::core::sched::{CausalScheduler, Srr};
use stripe::core::sender::{MarkerConfig, StripingSender};

/// Piecewise entitlement for channel `c` over completed rounds
/// `[1, end_round)`. `epochs` is `[(start_round, quanta)]`, first entry
/// starting at round 1; rounds `[start, next_start)` credit at that
/// epoch's quanta. Epochs scheduled beyond `end_round` contribute
/// nothing (the `min` clamps them away).
fn entitled(epochs: &[(u64, Vec<i64>)], c: usize, end_round: u64) -> i64 {
    let mut total = 0i64;
    for (i, (start, q)) in epochs.iter().enumerate() {
        let stop = epochs
            .get(i + 1)
            .map_or(end_round, |(s, _)| (*s).min(end_round));
        let start = (*start).max(1).min(end_round);
        if stop > start {
            total += (stop - start) as i64 * q[c];
        }
    }
    total
}

/// One retune to apply mid-stream: after `gap` more packets (and once
/// any previous switch has taken effect), schedule `quanta` at
/// `round() + margin`.
#[derive(Debug, Clone)]
struct Retune {
    gap: usize,
    margin: u64,
    quanta: Vec<i64>,
}

/// Drive a [`StripingSender`] over `lens`, applying `retunes` in order,
/// and assert the piecewise deviation bound every `check_every` packets
/// and at the end. Returns the number of retunes that actually took
/// effect (streams can end before a scheduled round arrives — that is
/// fine, the entitlement clamp handles it).
fn drive_and_check(
    initial: &[i64],
    lens: &[usize],
    retunes: &[Retune],
    check_every: usize,
) -> usize {
    let n = initial.len();
    let mut tx = StripingSender::new(Srr::weighted(initial), MarkerConfig::every_rounds(4));
    let mut epochs: Vec<(u64, Vec<i64>)> = vec![(1, initial.to_vec())];
    let mut bytes = vec![0i64; n];
    let max_packet = *lens.iter().max().unwrap() as i64;
    // The bound's quantum term is the largest quantum in effect at any
    // point in the run — a switch carries the old surplus counters into
    // the new credits, so both sides of every switch are in scope.
    let mut max_quantum = initial.iter().copied().max().unwrap();

    let mut pending: Option<u64> = None; // effective round of an unapplied switch
    let mut next_retune = 0usize;
    let mut trigger = retunes.first().map(|r| r.gap);

    let check = |bytes: &[i64], epochs: &[(u64, Vec<i64>)], round: u64, mq: i64, at: usize| {
        let bound = srr_bound(max_packet, mq);
        for (c, &carried) in bytes.iter().enumerate() {
            let e = entitled(epochs, c, round);
            assert!(
                (carried - e).abs() <= bound,
                "channel {c} after packet {at}: carried {carried} vs entitled {e} \
                 (round {round}) breaks |dev| <= {bound}; epochs {epochs:?}",
            );
        }
    };

    for (i, &len) in lens.iter().enumerate() {
        if let Some(eff) = pending {
            if tx.scheduler().round() >= eff {
                pending = None;
            }
        }
        if let Some(t) = trigger {
            // Apply the next retune once its packet trigger has passed
            // and the previous switch has landed (the retune handshake
            // serializes epochs the same way).
            if i >= t && pending.is_none() {
                let r = &retunes[next_retune];
                let eff = tx.scheduler().round() + r.margin;
                tx.schedule_quanta(eff, &r.quanta);
                epochs.push((eff, r.quanta.clone()));
                max_quantum = max_quantum.max(*r.quanta.iter().max().unwrap());
                pending = Some(eff);
                next_retune += 1;
                trigger = retunes.get(next_retune).map(|nx| i + nx.gap);
            }
        }
        let d = tx.send(len);
        bytes[d.channel] += len as i64;
        if (i + 1) % check_every == 0 {
            check(&bytes, &epochs, tx.scheduler().round(), max_quantum, i);
        }
    }
    check(
        &bytes,
        &epochs,
        tx.scheduler().round(),
        max_quantum,
        lens.len(),
    );
    epochs.len() - 1 - usize::from(pending.is_some())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The WRR deviation bound holds continuously across arbitrary
    /// mid-stream retunes, for arbitrary packet-length streams.
    #[test]
    fn deviation_bounded_across_retunes(
        initial in prop::collection::vec(256i64..=4096, 2..=4usize),
        lens in prop::collection::vec(40usize..=1500, 200..800),
        raw_retunes in prop::collection::vec(
            (20usize..=150, 1u64..=3, prop::collection::vec(256i64..=4096, 4)),
            1..=3,
        ),
    ) {
        // Retune quanta are generated at the max width and trimmed to
        // the initial vector's channel count.
        let n = initial.len();
        let retunes: Vec<Retune> = raw_retunes
            .into_iter()
            .map(|(gap, margin, q)| Retune { gap, margin, quanta: q[..n].to_vec() })
            .collect();
        drive_and_check(&initial, &lens, &retunes, 50);
    }
}

/// Long-stream, chained-retune soak at several seeds: the proptest
/// above keeps streams short for shrinkability; this drives tens of
/// thousands of packets through six consecutive switches per seed and
/// requires every switch to actually land.
#[test]
fn multi_seed_soak_holds_bound_through_chained_retunes() {
    // xorshift64* — deterministic, seed-reproducible lengths.
    fn rng(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn quanta(s: &mut u64) -> Vec<i64> {
        (0..4).map(|_| 256 + (rng(s) % 3841) as i64).collect()
    }
    for seed in [1u64, 42, 0xBEEF] {
        let mut s = seed;
        let lens: Vec<usize> = (0..40_000)
            .map(|_| 40 + (rng(&mut s) % 1461) as usize)
            .collect();
        let initial = quanta(&mut s);
        let retunes: Vec<Retune> = (0..6)
            .map(|_| Retune {
                gap: 2_000 + (rng(&mut s) % 3_000) as usize,
                margin: 1 + rng(&mut s) % 3,
                quanta: quanta(&mut s),
            })
            .collect();
        let applied = drive_and_check(&initial, &lens, &retunes, 500);
        assert_eq!(applied, 6, "seed {seed}: every chained retune must land");
    }
}

// ---- The adaptive loop across §5 resets and channel deaths ----

use stripe::core::control::Control;
use stripe::link::{datagram_pair, DatagramLink, TestDatagramLink};
use stripe::net::{
    AdaptiveConfig, AdaptiveTuner, ChaosPlan, FlowDemux, FlowHandle, ImpairedLink, ServerReactor,
    StripeServer,
};
use stripe::netsim::{SimDuration, SimTime};
use stripe::transport::{ControlTransmission, FailoverConfig, FailoverDriver};

const ADAPT_MS: u64 = 5;
const INCARNATION: u64 = 7;

/// Three in-memory channels policed 4:2:1 under saturating load, a
/// failover driver and the adaptive tuner on the sender, one flow.
struct AdaptiveLoop {
    reactor: ServerReactor<Srr, ImpairedLink<TestDatagramLink>>,
    rx: FlowDemux<Srr, ImpairedLink<TestDatagramLink>>,
    flow: FlowHandle,
    now_ms: u64,
    seq: u64,
}

impl AdaptiveLoop {
    fn new() -> Self {
        let (mut fwd, mut rev) = (Vec::new(), Vec::new());
        for (i, r) in [4000u64, 2000, 1000].into_iter().enumerate() {
            let (a, b) = datagram_pair(2048, 1 << 12);
            let shaped = ChaosPlan::default().shape(r, 2 * r);
            fwd.push(ImpairedLink::new(a, shaped, 0xAD0 + i as u64));
            rev.push(ImpairedLink::new(b, ChaosPlan::none(), 0));
        }
        let mut path = StripeServer::builder()
            .scheduler(Srr::equal(3, 1500))
            .markers(MarkerConfig::every_rounds(4))
            .links(fwd)
            .build();
        let flow = path.open_flow().unwrap();
        // A deadline far above the probe interval: only a real partition
        // kills a channel here, never a busy millisecond.
        let mut cfg = FailoverConfig::with_probe_interval(1_000_000);
        cfg.liveness.dead_after_ns = 10_000_000;
        let driver = FailoverDriver::new(3, cfg, SimTime::ZERO);
        let tick = SimDuration::from_millis(1);
        let mut reactor = ServerReactor::new(path, Some(driver), SimTime::ZERO, tick);
        let adapt = AdaptiveConfig::with_interval(SimDuration::from_millis(ADAPT_MS));
        reactor.attach_adaptive(AdaptiveTuner::new(&[1500; 3], adapt, SimTime::ZERO));
        let mut rx = FlowDemux::builder()
            .scheduler(Srr::equal(3, 1500))
            .links(rev)
            .incarnation(INCARNATION)
            .build();
        assert!(rx.touch_flow(flow.id()));
        Self {
            reactor,
            rx,
            flow,
            now_ms: 0,
            seq: 0,
        }
    }

    /// The sender's half of one millisecond: offer well past aggregate
    /// capacity (every policer binds, so carried load IS capacity), pump,
    /// poll. Returns the control it transmitted, not yet seen by the peer.
    fn send_ms(&mut self) -> Vec<ControlTransmission> {
        self.now_ms += 1;
        let now = SimTime::from_millis(self.now_ms);
        for _ in 0..48 {
            let mut p = [0u8; 500];
            p[..8].copy_from_slice(&self.seq.to_be_bytes());
            self.seq += 1;
            // Refused while parked for a reset: fine, the load is open-loop.
            let _ = self.reactor.path_mut().enqueue(self.flow, &p);
        }
        let mut events = Vec::new();
        self.reactor
            .path_mut()
            .pump_into(now, usize::MAX, &mut events);
        self.reactor.poll(now)
    }

    /// The receiver's half: sweep, answer control, drain deliveries.
    fn recv_ms(&mut self) {
        self.rx.sweep(SimTime::from_millis(self.now_ms));
        let mut batch = stripe::core::receiver::RxBatch::new();
        self.rx.poll_flow_into(self.flow.id(), &mut batch);
        for pb in batch.drain() {
            self.rx.recycle(pb);
        }
    }

    fn run_until(&mut self, what: &str, limit_ms: u64, done: impl Fn(&Self) -> bool) {
        for _ in 0..limit_ms {
            if done(self) {
                return;
            }
            self.send_ms();
            self.recv_ms();
        }
        panic!(
            "{what}: not within {limit_ms} ms ({:?})",
            self.reactor.stats()
        );
    }

    fn tuner(&self) -> &AdaptiveTuner {
        self.reactor.adaptive().expect("attached")
    }

    fn sender_quanta(&self) -> Vec<i64> {
        let sched = self.reactor.path().flow_sender(self.flow).unwrap();
        (0..3).map(|c| sched.scheduler().quantum(c)).collect()
    }

    fn receiver_quanta(&self) -> Vec<i64> {
        let replica = self.rx.flow_receiver(self.flow.id()).unwrap();
        (0..3).map(|c| replica.scheduler().quantum(c)).collect()
    }
}

/// A §5 reset restores every scheduler's initial quanta on both ends; the
/// resume step must re-teach the tuned vector like it re-teaches the mask,
/// or the tuner's deadband compares proposals against quanta that are no
/// longer in force and the path stays un-tuned for good.
#[test]
fn reset_does_not_untune_the_path() {
    let mut l = AdaptiveLoop::new();
    l.run_until("first retune", 200, |l| {
        l.reactor.stats().retunes_complete >= 1 && l.sender_quanta() == l.tuner().quanta()
    });
    let tuned = l.tuner().quanta().to_vec();
    assert!(
        tuned[0] > tuned[1] && tuned[1] > tuned[2],
        "tuned {tuned:?}"
    );

    // The receiver's self-check (believes it) diverged: alert the sender.
    let mut alert = Vec::new();
    stripe::net::frame::encode_control_into(
        &Control::DesyncAlert {
            incarnation: INCARNATION,
        },
        &mut alert,
    );
    l.rx.links_mut()[0].send_frame(&alert).unwrap();
    l.run_until("reset", 100, |l| l.reactor.stats().resets_completed == 1);

    // Within two adaptive intervals all three views agree again, tuned.
    l.run_until("re-taught quanta", 2 * ADAPT_MS, |l| {
        let q = l.tuner().quanta();
        q[0] > q[1] && q[1] > q[2] && l.sender_quanta() == q && l.receiver_quanta() == q
    });
}

/// A retune in flight when one of its carriers dies: the dead channel's
/// ack never comes, and the loop must stop waiting for it — otherwise it
/// retransmits into the dead link and proposes nothing for the whole
/// outage, exactly when the capacity split changed most.
#[test]
fn retune_in_flight_survives_a_channel_death() {
    let mut l = AdaptiveLoop::new();
    // Cut channel 2's reverse path the moment the first retune is flooded:
    // channels 0 and 1 ack it, channel 2 never will — nor its probes.
    let flooded = |r: &ControlTransmission| matches!(r.ctl, Control::QuantumAnnounce { .. });
    while !l.send_ms().iter().any(flooded) {
        assert!(l.now_ms < 200, "no retune was ever announced");
        l.recv_ms();
    }
    l.rx.links_mut()[2].partition_now();
    l.recv_ms();
    l.run_until("acks from the survivors", 20, |l| {
        l.tuner().awaiting_channels().eq([2])
    });

    l.run_until("death of channel 2", 50, |l| {
        let driver = l.reactor.driver().unwrap();
        driver.liveness().live_mask() == [true, true, false]
    });
    l.run_until("the handshake to stop waiting", 5, |l| {
        !l.tuner().in_progress()
    });
    // The loop is free again: with channel 2 carrying nothing the split
    // has changed, and the next proposal is announced over the survivors.
    l.run_until("a later retune", 20 * ADAPT_MS, |l| {
        l.reactor.stats().retunes >= 2
    });
}
