//! The adaptive operating point, deterministically: capacity-tuned SRR
//! against the randomized variable-size striper of Sprinklers
//! (arXiv:1407.0006) under one scripted heterogeneous-capacity
//! impairment.
//!
//! Three in-memory channels behind token-bucket policers split 4:2:1 —
//! the stand-in for links of unequal rate — carry a load that fills their
//! aggregate capacity, in logical steps (the policers refill per flush;
//! no wall clock). Three arms stripe the same traffic:
//!
//! - **SRR, equal quanta** — the untuned strawman: its scheduler keeps
//!   offering the slow channel traffic the policer must discard;
//! - **SRR, 4:2:1 quanta** — the operating point the adaptive loop
//!   (estimators → quantum tuner → epoch'd retune) converges to, frozen
//!   so the steady state is what is checked, not the transient
//!   (`examples/adaptive_soak.rs` drives the loop itself);
//! - **Sprinkler** — packet-counted random stripes, weights 4:2:1,
//!   behind the same `CausalScheduler` seam, same marker cadence.
//!
//! Tuned SRR must deliver everything offered with no late delivery,
//! carry each channel's capacity share to within 2 %, and reorder no more
//! than Sprinkler; the untuned arms lose what the policers discard and, every
//! frame stating its own number, deliver the rest in order too.

use stripe::core::receiver::RxBatch;
use stripe::core::sched::{CausalScheduler, Sprinkler, Srr};
use stripe::core::sender::MarkerConfig;
use stripe::link::{datagram_pair, TestDatagramLink};
use stripe::net::{ChaosPlan, FlowDemux, ImpairedLink, StripeServer};
use stripe::netsim::SimTime;

const CHANNELS: usize = 3;
const PAYLOAD: usize = 300;
/// Token-bucket refill per channel, bytes per flush — the hidden 4:2:1.
/// A step flushes twice (the pump's own and the caller's).
const RATES: [u64; CHANNELS] = [4000, 2000, 1000];
/// Offered packets per step: what the three policers together just carry
/// when every channel gets its capacity share, and not otherwise.
const BURST: usize = 40;
const STEPS: u64 = 400;
const SEED: u64 = 0xBEE5;

struct Arm {
    offered: u64,
    delivered: u64,
    dropped: u64,
    /// Deliveries below the delivered high-water mark.
    late: u64,
    /// Worst carried share against capacity share, relative.
    share_err_max: f64,
}

fn run_arm<S: CausalScheduler + Clone>(sched: S) -> Arm {
    let mut fwd = Vec::new();
    let mut rx_links = Vec::new();
    for (i, &r) in RATES.iter().enumerate() {
        let (a, b) = datagram_pair(2048, 1 << 14);
        let plan = ChaosPlan::none().shape(r, 2 * r);
        fwd.push(ImpairedLink::new(a, plan, SEED.wrapping_add(i as u64)));
        rx_links.push(b);
    }
    let mut path: StripeServer<S, ImpairedLink<TestDatagramLink>> = StripeServer::builder()
        .scheduler(sched.clone())
        .markers(MarkerConfig::every_rounds(4))
        .links(fwd)
        .build();
    let flow = path.open_flow().expect("a fresh server admits a flow");
    let mut rx: FlowDemux<S, TestDatagramLink> = FlowDemux::builder()
        .scheduler(sched)
        .links(rx_links)
        .pool_buffers(1 << 10)
        .build();
    assert!(rx.touch_flow(flow.id()));
    rx.reserve_flow(flow.id(), 1 << 12);

    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    let (mut offered, mut delivered, mut late, mut high) = (0u64, 0u64, 0u64, 0u64);
    for step in 0..STEPS {
        let now = SimTime::from_millis(step + 1);
        for _ in 0..BURST {
            let mut p = [0u8; PAYLOAD];
            p[..8].copy_from_slice(&offered.to_be_bytes());
            path.enqueue(flow, &p).expect("burst fits the queue");
            offered += 1;
        }
        path.pump_into(now, usize::MAX, &mut events);
        path.flush();
        rx.sweep(now);
        rx.poll_flow_into(flow.id(), &mut batch);
        for pb in batch.drain() {
            let id = u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap());
            delivered += 1;
            if id < high {
                late += 1;
            } else {
                high = id;
            }
            rx.recycle(pb);
        }
    }

    let snaps: Vec<_> = path.links().iter().map(|l| l.snapshot()).collect();
    let carried_total = snaps.iter().map(|s| s.shaped_bytes).sum::<u64>().max(1);
    let rate_total: u64 = RATES.iter().sum();
    let share_err_max = snaps
        .iter()
        .zip(RATES)
        .map(|(s, r)| {
            let share = s.shaped_bytes as f64 / carried_total as f64;
            (share / (r as f64 / rate_total as f64) - 1.0).abs()
        })
        .fold(0.0f64, f64::max);
    Arm {
        offered,
        delivered,
        dropped: snaps.iter().map(|s| s.dropped_shaped).sum(),
        late,
        share_err_max,
    }
}

#[test]
fn tuned_srr_carries_capacity_shares_in_order_and_sprinkler_does_not_beat_it() {
    let quanta: Vec<i64> = RATES.iter().map(|&r| (r / 4) as i64).collect();
    let weights: Vec<u64> = RATES.iter().map(|&r| r / 1000).collect();
    let equal = run_arm(Srr::equal(CHANNELS, 600));
    let tuned = run_arm(Srr::weighted(&quanta));
    let sprinkler = run_arm(Sprinkler::new(&weights, SEED));

    assert_eq!(
        (tuned.delivered, tuned.dropped),
        (tuned.offered, 0),
        "capacity-matched quanta fit the policers exactly"
    );
    assert_eq!(tuned.late, 0, "and arrive in order");
    assert!(
        tuned.share_err_max <= 0.02,
        "carried shares off capacity shares by {:.4}",
        tuned.share_err_max
    );
    assert!(tuned.late <= sprinkler.late);

    // The impairment binds: the same load, split any other way, is
    // policed — so the tuned arm's clean run is the tuning, not slack.
    assert!(equal.dropped > 0, "equal quanta overrun the slow channel");
    assert!(sprinkler.dropped > 0, "random stripes overrun their shares");
    // What is policed is lost, not reordered: every frame here is long
    // enough to state its own number, so the frame behind a policed one
    // on its channel puts the receiver straight before it is delivered.
    // (With a mark every four rounds only, these read 5 054 and 489.)
    assert_eq!((equal.late, sprinkler.late), (0, 0));
}
