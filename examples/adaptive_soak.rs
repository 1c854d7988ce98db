//! Seeded adaptive-striping soak over the real-socket datapath: the CI
//! smoke job and the README convergence trace in one binary.
//!
//! Three kernel loopback UDP channels, each behind a token-bucket
//! policer with deliberately *heterogeneous* capacity — a 4:2:1 split
//! the sender is never told about. The [`ServerReactor`] carries the
//! full adaptive loop: per-channel estimators fed by transmit evidence,
//! the quantum tuner, and the epoch'd retune handshake that switches
//! sender and receiver quanta at the same stream point.
//!
//! The soak holds the protocol to three claims:
//!
//! - **Convergence.** Starting from equal quanta, the tuned quanta and
//!   the carried per-channel load must converge to the hidden capacity
//!   split: each channel's carried share lands within 10% (relative) of
//!   its capacity share.
//! - **Liveness of the handshake.** At least one retune is announced,
//!   acked on every live channel, and completed.
//! - **Integrity.** Across every mid-stream retune, zero corrupted
//!   deliveries: every payload arrives byte-exact or not at all, and
//!   nothing is delivered twice.
//!
//! Any violation aborts with a non-zero exit, which is what the CI gate
//! keys on (run under both syscall paths via `STRIPE_NET_FALLBACK`).
//!
//! Run with: `cargo run --example adaptive_soak [seed]`

use std::time::{Duration, Instant};

use stripe::core::receiver::RxBatch;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::net::{
    AdaptiveConfig, AdaptiveTuner, ChaosPlan, FlowDemux, ImpairedLink, ServerReactor, StripeServer,
    UdpChannel,
};
use stripe::netsim::{SimDuration, SimTime};
use stripe::transport::failover::{FailoverConfig, FailoverDriver};

const CHANNELS: usize = 3;
const PAYLOAD: usize = 300;
/// Token-bucket refill per channel in bytes per pump — the hidden 4:2:1.
const RATES: [u64; CHANNELS] = [4000, 2000, 1000];
const STEP_US: u64 = 100;
const STEPS: u64 = 3_000;
/// Convergence is judged over the tail, after the loop has settled.
const SETTLE_STEPS: u64 = 2_000;
/// Offered packets per step — far past aggregate policer capacity, so
/// every channel's bucket binds and carried load reveals capacity.
const BURST: usize = 96;

fn main() -> std::io::Result<()> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(0xADA9);

    let mut tx_links = Vec::new();
    let mut rx_links = Vec::new();
    for _ in 0..CHANNELS {
        let (a, b) = UdpChannel::pair(2048, 1 << 12)?;
        tx_links.push(a);
        rx_links.push(b);
    }
    let links: Vec<ImpairedLink<UdpChannel>> = tx_links
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let plan = ChaosPlan::none().shape(RATES[i], 2 * RATES[i]);
            ImpairedLink::new(l, plan, seed.wrapping_add(i as u64))
        })
        .collect();
    let mut path = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .markers(MarkerConfig::every_rounds(4))
        .links(links)
        .integrity(true)
        .build();
    let flow = path.open_flow().expect("a fresh server admits a flow");
    let driver = FailoverDriver::new(
        CHANNELS,
        FailoverConfig::with_probe_interval(1_000_000),
        SimTime::ZERO,
    );
    let mut reactor = ServerReactor::new(
        path,
        Some(driver),
        SimTime::ZERO,
        SimDuration::from_micros(STEP_US),
    );
    reactor.attach_adaptive(AdaptiveTuner::new(
        &[1500; CHANNELS],
        AdaptiveConfig::with_interval(SimDuration::from_millis(5)),
        SimTime::ZERO,
    ));
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(rx_links)
        .pool_buffers(256)
        .build();
    assert!(rx.touch_flow(flow.id()));
    rx.reserve_flow(flow.id(), 1 << 10);

    println!(
        "adaptive soak: {CHANNELS} loopback channels policed {RATES:?} B/pump (hidden 4:2:1), \
         seed {seed}"
    );
    println!("equal quanta at start; the estimator/tuner/retune loop must find the split\n");

    let mut next_id = 0u64;
    let mut got: Vec<u64> = Vec::new();
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut trace: Vec<(u64, Vec<i64>)> = Vec::new();
    let mut last_retunes = 0u64;
    let mut settle_base = [0u64; CHANNELS];

    for step in 0..STEPS {
        assert!(
            Instant::now() < deadline,
            "soak stalled at {} deliveries",
            got.len()
        );
        let now = SimTime::from_micros(STEP_US * (step + 1));
        // Saturating offered load: past aggregate capacity, so every
        // policer binds and carried load IS capacity.
        for _ in 0..BURST {
            let mut payload = [next_id as u8; PAYLOAD];
            payload[..8].copy_from_slice(&next_id.to_be_bytes());
            reactor
                .path_mut()
                .enqueue(flow, &payload)
                .expect("burst fits the queue");
            next_id += 1;
        }
        reactor.path_mut().pump_into(now, usize::MAX, &mut events);
        reactor.poll(now);
        rx.sweep(now);
        rx.poll_flow_into(flow.id(), &mut batch);
        for pb in batch.drain() {
            let id = u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap());
            assert!(id < next_id, "CORRUPT DELIVERY: bogus id {id}");
            assert!(
                pb.as_slice()[8..].iter().all(|&b| b == id as u8),
                "CORRUPT DELIVERY: payload mismatch for id {id}"
            );
            got.push(id);
            rx.recycle(pb);
        }
        // Trace every completed retune for the README.
        let r = reactor.stats().retunes;
        if r != last_retunes {
            last_retunes = r;
            let q = reactor.adaptive().expect("attached").quanta().to_vec();
            println!(
                "  t={:>4}ms retune #{r}: quanta -> {q:?}",
                (step + 1) * STEP_US / 1000
            );
            trace.push((step, q));
        }
        if step == SETTLE_STEPS {
            for (c, base) in settle_base.iter_mut().enumerate() {
                *base = reactor.path().links()[c].snapshot().shaped_bytes;
            }
        }
        std::thread::yield_now();
    }

    let stats = reactor.stats();
    println!("\nReactorSnapshot:");
    println!("  retunes         : {}", stats.retunes);
    println!("  retune_acks     : {}", stats.retune_acks);
    println!("  retunes_complete: {}", stats.retunes_complete);
    assert!(stats.retunes >= 1, "no retune was ever announced");
    assert!(stats.retunes_complete >= 1, "no retune ever completed");

    // Convergence: carried load over the settled tail matches the
    // hidden capacity split within 10% relative, per channel.
    let total_rate: u64 = RATES.iter().sum();
    let carried: Vec<u64> = (0..CHANNELS)
        .map(|c| reactor.path().links()[c].snapshot().shaped_bytes - settle_base[c])
        .collect();
    let carried_total: u64 = carried.iter().sum();
    assert!(carried_total > 0, "nothing carried in the settled tail");
    println!("\nsettled-tail carried load vs hidden capacity:");
    for c in 0..CHANNELS {
        let share = carried[c] as f64 / carried_total as f64;
        let cap_share = RATES[c] as f64 / total_rate as f64;
        let rel = (share / cap_share - 1.0).abs();
        println!(
            "  ch{c}: carried {:>8} B, share {share:.3} vs capacity {cap_share:.3} \
             (rel err {:.1}%)",
            carried[c],
            rel * 100.0
        );
        assert!(
            rel <= 0.10,
            "ch{c} carried share {share:.3} missed capacity share {cap_share:.3} by >10%"
        );
    }
    let q = reactor.adaptive().expect("attached").quanta();
    assert!(
        q[0] > q[1] && q[1] > q[2],
        "tuned quanta {q:?} must order by capacity"
    );

    // Integrity across every retune: exactly-once, byte-exact (checked
    // on arrival above), no duplicates.
    let mut uniq = got.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), got.len(), "duplicate deliveries");

    println!(
        "\nok: {} delivered, {} retunes converged to {q:?}, zero corrupted, seed {seed} \
         reproducible",
        got.len(),
        stats.retunes
    );
    Ok(())
}
