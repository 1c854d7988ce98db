//! Seeded flap soak over the real-socket datapath, runnable form: the
//! CI smoke job and a README showcase in one binary.
//!
//! Three kernel loopback UDP channels behind a [`ServerReactor`] with
//! the full failover driver attached. Each cycle flaps two channels
//! through the complete lifecycle walk — `live → dead → cooldown →
//! probing → rejoining → live` — by two different death paths:
//!
//! - channel 1 loses its *socket* (injected hard death): the lifecycle
//!   machine rebuilds it on the same local port and probes it back in;
//! - channel 2 goes *dark* behind a [`ChaosPlan`] partition: the
//!   silence deadline declares death, and once the partition lifts the
//!   same walk brings it home without touching the socket.
//!
//! After every flap the stripe must converge back to full 3-channel
//! capacity, and after the last one the delivery tail must be set-exact
//! and quasi-FIFO (Theorem 5.1) with zero corrupted deliveries; any
//! violation aborts the process with a non-zero exit, which is what the
//! CI gate keys on.
//!
//! Run with: `cargo run --example flap_soak [seed]`

use std::time::{Duration, Instant};

use stripe::core::receiver::RxBatch;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::net::{
    ChaosPlan, FlowDemux, ImpairedLink, LifecycleState, ServerReactor, StripeServer, UdpChannel,
};
use stripe::netsim::{SimDuration, SimTime};
use stripe::transport::failover::{FailoverConfig, FailoverDriver};

const CHANNELS: usize = 3;
const PAYLOAD: usize = 300;
const CYCLES: u64 = 2;
const PROBE_NS: u64 = 1_000_000;
const STEP_US: u64 = 100;
const TAIL: u64 = 300;

fn main() -> std::io::Result<()> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(0xF1A9);

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
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(rx_links)
        .pool_buffers(256)
        .build();
    assert!(rx.touch_flow(flow.id()));
    rx.reserve_flow(flow.id(), 1 << 10);

    println!(
        "flap soak: {CYCLES} die/rejoin cycles x 2 death paths, \
         {CHANNELS} loopback channels, seed {seed}"
    );
    println!("ch1: socket death + same-port rebuild   ch2: partition silence + no-op rebind\n");

    let mut now_us = 0u64;
    let mut next_id = 0u64;
    let mut got: Vec<u64> = Vec::new();
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    let deadline = Instant::now() + Duration::from_secs(60);

    // One driver iteration: a burst in, everything due out, deliveries
    // verified byte-exact.
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
                    path.enqueue(flow, &payload).expect("burst fits the queue");
                    next_id += 1;
                }
                path.pump_into(now, usize::MAX, &mut events);
            } else {
                path.send_idle_markers_into(now, &mut events);
            }
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
                && reactor
                    .lifecycle()
                    .iter()
                    .all(|lc| lc.state() == LifecycleState::Live)
        }};
    }

    run_until!("warm-up", got.len() >= 64);

    for cycle in 0..CYCLES {
        reactor.path_mut().links_mut()[1]
            .inner_mut()
            .inject_socket_death();
        run_until!(
            "shrink after socket death",
            !reactor.driver().unwrap().liveness().live_mask()[1]
        );
        run_until!("rejoin after socket death", converged!());
        let g = reactor.path().links()[1].inner().stats().generation;
        assert_eq!(g, cycle + 1, "socket not rebuilt on cycle {cycle}");
        println!(
            "cycle {cycle}: ch1 socket death -> rebuilt (generation {g}), back to full capacity"
        );

        let dark_from = reactor.path().links()[2].snapshot().seen_data;
        reactor.path_mut().links_mut()[2]
            .set_plan(ChaosPlan::none().partition(dark_from, u64::MAX));
        run_until!(
            "silence death under partition",
            !reactor.driver().unwrap().liveness().live_mask()[2]
        );
        reactor.path_mut().links_mut()[2].set_plan(ChaosPlan::none());
        run_until!("rejoin after partition", converged!());
        println!("cycle {cycle}: ch2 partition silence -> rejoined, back to full capacity");
    }

    // Theorem 5.1 tail: everything sent after the last rejoin arrives,
    // exactly once, quasi-FIFO.
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
        "tail has gaps or duplicates after the final rejoin"
    );
    for (pos, &id) in tail.iter().enumerate() {
        let disp = pos as i64 - (id - mark) as i64;
        assert!(disp.abs() <= 30, "id {id} displaced {disp} positions");
    }

    let stats = reactor.stats();
    println!("\nReactorSnapshot:");
    println!("  link_dead_reports : {}", stats.link_dead_reports);
    println!("  grow_announcements: {}", stats.grow_announcements);
    println!("  rejoins           : {}", stats.rejoins);
    assert!(stats.link_dead_reports >= CYCLES);
    assert!(stats.grow_announcements >= 2 * CYCLES);
    assert!(stats.rejoins >= 2 * CYCLES);

    println!("\nper-channel lifecycle:");
    for (c, lc) in reactor.lifecycle().iter().enumerate() {
        let snap = lc.snapshot();
        let chan = reactor.path().links()[c].inner().stats();
        println!(
            "  ch{c}: state={:<5} rejoins={} cooldowns={} rebind_attempts={} \
             generation={} socket_rejoins={} revive_attempts={}",
            snap.state.as_str(),
            snap.rejoins,
            snap.cooldowns,
            snap.rebind_attempts,
            chan.generation,
            chan.rejoins,
            chan.revive_attempts,
        );
        assert_eq!(snap.state, LifecycleState::Live);
    }
    let ch1 = reactor.path().links()[1].inner().stats();
    assert_eq!(ch1.generation, CYCLES, "one socket rebuild per cycle");
    assert_eq!(ch1.rejoins, CYCLES);

    let mut uniq = got.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), got.len(), "duplicate deliveries");
    println!(
        "\nok: {} delivered, {} flaps healed, tail set-exact, seed {seed} reproducible",
        got.len(),
        2 * CYCLES
    );
    Ok(())
}
