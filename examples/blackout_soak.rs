//! Seeded blackout soak over the real-socket datapath, runnable form:
//! the CI smoke job and a README showcase in one binary.
//!
//! Three kernel loopback UDP channels behind a [`ServerReactor`] with
//! the full failover driver attached, walked through the two §5 fault
//! scenarios the driver must survive:
//!
//! 1. **Total blackout** — every channel goes dark at once (control
//!    included). The silence deadline kills them one by one; when the
//!    last falls the driver *parks* the path — enqueues are refused
//!    with backpressure, schedulers freeze on the last live mask, probes
//!    keep flowing — then healing the dark regrows membership from empty.
//! 2. **Endpoint restart** — the receiver is torn down and rebuilt over
//!    the same sockets with a fresh incarnation. The next probe ack
//!    betrays the restart; the driver floods the §5 two-phase reset,
//!    the new receiver flushes and acks, and data resumes only after
//!    the sender's own engines flush and membership is re-taught.
//!
//! After each scenario the delivery tail must be set-exact and
//! quasi-FIFO (Theorem 5.1) with zero corrupted deliveries; any
//! violation aborts the process with a non-zero exit, which is what
//! the CI gate keys on.
//!
//! Run with: `cargo run --example blackout_soak [seed]`

use std::time::{Duration, Instant};

use stripe::core::receiver::RxBatch;
use stripe::core::reset::DesyncDetector;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::link::{DatagramLink, TxError};
use stripe::net::{
    ChaosPlan, FlowDemux, FlowError, ImpairedLink, PumpEvent, ServerReactor, StripeServer,
    UdpChannel,
};
use stripe::netsim::{SimDuration, SimTime};
use stripe::transport::failover::{FailoverConfig, FailoverDriver};

const CHANNELS: usize = 3;
const PAYLOAD: usize = 300;
const PROBE_NS: u64 = 1_000_000;
const STEP_US: u64 = 100;
const TAIL: u64 = 300;
/// The one flow the soak streams on: the first a fresh server opens, and
/// the replica a rebuilt receiver pre-instantiates.
const FLOW: u32 = 0;

fn build_rx(links: Vec<UdpChannel>, incarnation: u64) -> FlowDemux<Srr, UdpChannel> {
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(links)
        .pool_buffers(256)
        .incarnation(incarnation)
        .desync_detector(DesyncDetector::new(256, 0.5, 8))
        .build();
    assert!(rx.touch_flow(FLOW));
    rx.reserve_flow(FLOW, 1 << 10);
    rx
}

fn main() -> std::io::Result<()> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(0xB1AC);

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
        .map(|(i, l)| ImpairedLink::new(l, ChaosPlan::none(), seed.wrapping_add(i as u64)))
        .collect();
    let mut path = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .markers(MarkerConfig::every_rounds(4))
        .links(links)
        .integrity(true)
        .build();
    let flow = path.open_flow().expect("a fresh server admits a flow");
    assert_eq!(flow.id(), FLOW);
    let driver = FailoverDriver::new(
        CHANNELS,
        FailoverConfig::with_probe_interval(PROBE_NS),
        SimTime::ZERO,
    );
    let mut reactor = ServerReactor::new(
        path,
        Some(driver),
        SimTime::ZERO,
        SimDuration::from_nanos(PROBE_NS),
    );
    let mut rx = Some(build_rx(rx_links, 1));

    println!(
        "blackout soak: total blackout + endpoint restart, \
         {CHANNELS} loopback channels, seed {seed}"
    );
    println!("phase 1: all channels dark -> park   phase 2: receiver restart -> §5 reset\n");

    let mut now_us = 0u64;
    let mut next_id = 0u64;
    let mut rejected = 0u64;
    let mut got: Vec<u64> = Vec::new();
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    let deadline = Instant::now() + Duration::from_secs(60);

    // One driver iteration: a burst in, everything due out, deliveries
    // verified byte-exact, parked rejections ledgered.
    macro_rules! step {
        ($burst:expr) => {{
            assert!(
                Instant::now() < deadline,
                "soak stalled at {} deliveries",
                got.len()
            );
            now_us += STEP_US;
            let now = SimTime::from_micros(now_us);
            let path = reactor.path_mut();
            if $burst > 0 {
                for _ in 0..$burst {
                    let mut payload = [next_id as u8; PAYLOAD];
                    payload[..8].copy_from_slice(&next_id.to_be_bytes());
                    match path.enqueue(flow, &payload) {
                        Ok(()) => {}
                        Err(FlowError::Backpressure { .. }) => rejected += 1,
                        Err(e) => panic!("unexpected enqueue error: {e}"),
                    }
                    next_id += 1;
                }
                path.pump_into(now, usize::MAX, &mut events);
                for ev in &events {
                    if let PumpEvent::Data { error: Some(e), .. } = ev {
                        assert_eq!(*e, TxError::LinkDown, "unexpected send error");
                        rejected += 1;
                    }
                }
            } else {
                path.send_idle_markers_into(now, &mut events);
            }
            reactor.poll(now);
            let rx = rx.as_mut().expect("receiver attached");
            rx.sweep(now);
            rx.poll_flow_into(FLOW, &mut batch);
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
            std::thread::yield_now();
        }};
    }
    macro_rules! run_until {
        ($what:expr, $cond:expr) => {
            while !$cond {
                assert!(Instant::now() < deadline, "timed out waiting for {}", $what);
                step!(4);
            }
        };
    }
    macro_rules! converged {
        () => {{
            let driver = reactor.driver().expect("driver attached");
            driver.liveness().live_mask().iter().all(|&l| l)
                && !driver.membership().in_progress()
                && !driver.parked()
                && reactor.path().links().iter().all(|l| !l.link_dead())
        }};
    }
    macro_rules! clean_tail {
        ($label:expr) => {{
            let mark = next_id;
            while next_id < mark + TAIL {
                step!(4);
            }
            run_until!(
                "tail delivery",
                got.iter().filter(|&&id| id >= mark).count() as u64 >= TAIL
            );
            let tail: Vec<u64> = got.iter().copied().filter(|&id| id >= mark).collect();
            let mut sorted = tail.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (mark..mark + TAIL).collect::<Vec<_>>(),
                "{}: tail has gaps or duplicates",
                $label
            );
            for (pos, &id) in tail.iter().enumerate() {
                let disp = pos as i64 - (id - mark) as i64;
                assert!(disp.abs() <= 30, "{}: id {id} displaced {disp}", $label);
            }
        }};
    }

    run_until!("warm-up", got.len() >= 64);

    // --- Phase 1: total blackout. -------------------------------------
    for link in reactor.path_mut().links_mut() {
        link.partition_now();
    }
    run_until!("total blackout park", {
        let d = reactor.driver().unwrap();
        d.blackout() && d.parked()
    });
    println!(
        "phase 1: all {CHANNELS} channels dark -> parked (rejecting data, probing on cooldown)"
    );
    let before = rejected;
    for _ in 0..200 {
        step!(4);
    }
    assert!(rejected > before, "parked path accepted data");
    for link in reactor.path_mut().links_mut() {
        link.heal();
    }
    run_until!("regrow from empty", converged!());
    clean_tail!("post-blackout");
    let stats = reactor.stats();
    assert!(stats.blackouts >= 1 && stats.park_ns > 0);
    println!(
        "phase 1: healed -> regrown from empty membership, tail set-exact \
         ({} sends refused while parked)\n",
        rejected
    );

    // --- Phase 2: endpoint restart. -----------------------------------
    let links = rx.take().unwrap().into_links();
    rx = Some(build_rx(links, 2));
    run_until!(
        "restart detection",
        reactor.driver().unwrap().restarts_detected() >= 1
    );
    run_until!(
        "§5 reset completion",
        reactor.driver().unwrap().resets_completed() >= 1
    );
    run_until!("post-reset convergence", converged!());
    println!(
        "phase 2: receiver restart detected via incarnation, §5 reset completed over the wire"
    );
    clean_tail!("post-restart");

    let stats = reactor.stats();
    println!("\nReactorSnapshot:");
    println!("  blackouts        : {}", stats.blackouts);
    println!("  park_ns          : {}", stats.park_ns);
    println!("  restarts_detected: {}", stats.restarts_detected);
    println!("  resets_started   : {}", stats.resets_started);
    println!("  resets_completed : {}", stats.resets_completed);
    assert!(stats.blackouts >= 1);
    assert_eq!(stats.restarts_detected, 1);
    assert!(stats.resets_started >= 1 && stats.resets_completed >= 1);
    assert!(!stats.parked);

    let rx = rx.as_ref().unwrap();
    assert_eq!(rx.net_stats().dropped_corrupt, 0);
    assert_eq!(rx.net_stats().dropped_malformed, 0);
    assert!(rx.net_stats().resets >= 1, "receiver never flushed");

    let mut uniq = got.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), got.len(), "duplicate deliveries");
    println!(
        "\nok: {} delivered, {} refused while parked, 1 blackout + 1 restart survived, \
         tails set-exact, seed {seed} reproducible",
        got.len(),
        rejected
    );
    Ok(())
}
