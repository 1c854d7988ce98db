//! Seeded multi-flow soak over the real-socket datapath: many logical
//! flows sharing one channel set, surviving a full die/rejoin epoch
//! change, with per-flow Theorem 5.1 tails and zero cross-flow leakage.
//!
//! A [`StripeServer`] carries `FLOWS` flows over three kernel loopback
//! UDP channels behind a [`ServerReactor`] with the failover driver
//! attached; a [`FlowDemux`] resequences each flow independently on the
//! far side. Every payload is stamped with its flow id and per-flow
//! sequence number, so two distinct failure modes are separable:
//!
//! - **cross-flow corruption** — a packet polled from flow `f` carrying
//!   flow `g`'s stamp — must never happen, epoch change or not;
//! - **per-flow loss/misorder** — after the last rejoin, each flow's
//!   tail must be set-exact and quasi-FIFO (Theorem 5.1, applied
//!   per flow).
//!
//! Mid-run, channel 1 loses its socket: the failover driver announces
//! the shrunken mask (one membership epoch), the lifecycle machine
//! rebuilds the socket, probes it back in, and the grow announcement
//! (another epoch) restores full capacity — all of it flow-agnostic,
//! with every flow riding through.
//!
//! Any violation aborts with a non-zero exit — the CI gate keys on it.
//!
//! Run with: `cargo run --example multiflow_soak [seed]`

use std::time::{Duration, Instant};

use stripe::core::receiver::RxBatch;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::net::{
    ChaosPlan, FlowDemux, ImpairedLink, LifecycleState, PumpEvent, ServerReactor, StripeServer,
    UdpChannel,
};
use stripe::netsim::{SimDuration, SimTime};
use stripe::transport::failover::{FailoverConfig, FailoverDriver};

const CHANNELS: usize = 3;
const FLOWS: usize = 24;
const PAYLOAD: usize = 300;
const PROBE_NS: u64 = 1_000_000;
const STEP_US: u64 = 100;
/// Per-flow tail length checked set-exact after the final rejoin.
const TAIL: u64 = 40;

fn main() -> std::io::Result<()> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(0x3F10);

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
    let mut server = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .markers(MarkerConfig::every_rounds(4))
        .links(links)
        .integrity(true)
        .max_flows(FLOWS)
        .build();
    let handles: Vec<_> = (0..FLOWS)
        .map(|_| server.open_flow().expect("under the admission cap"))
        .collect();
    let driver = FailoverDriver::new(
        CHANNELS,
        FailoverConfig::with_probe_interval(PROBE_NS),
        SimTime::ZERO,
    );
    let mut reactor = ServerReactor::new(
        server,
        Some(driver),
        SimTime::ZERO,
        SimDuration::from_nanos(PROBE_NS),
    );
    let mut demux: FlowDemux<Srr, UdpChannel> = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(rx_links)
        .pool_buffers(256)
        .max_flows(FLOWS)
        .build();

    println!(
        "multiflow soak: {FLOWS} flows over {CHANNELS} loopback channels, \
         1 socket-death epoch cycle, seed {seed}"
    );

    let mut now_us = 0u64;
    let mut next_seq = vec![0u64; FLOWS];
    let mut got: Vec<Vec<u64>> = vec![Vec::new(); FLOWS];
    let mut events: Vec<PumpEvent> = Vec::new();
    let mut batch = RxBatch::new();
    let deadline = Instant::now() + Duration::from_secs(60);

    // One driver iteration: a burst on every flow, a pump, a sweep, and
    // every delivery verified against its flow stamp.
    macro_rules! step {
        ($burst:expr) => {{
            assert!(
                Instant::now() < deadline,
                "soak stalled at {} deliveries",
                got.iter().map(|g| g.len()).sum::<usize>()
            );
            now_us += STEP_US;
            let now = SimTime::from_micros(now_us);
            for f in 0..FLOWS {
                for _ in 0..$burst {
                    let seq = next_seq[f];
                    let mut payload = vec![(f as u8) ^ (seq as u8); PAYLOAD];
                    payload[..4].copy_from_slice(&(f as u32).to_be_bytes());
                    payload[4..12].copy_from_slice(&seq.to_be_bytes());
                    reactor.path_mut().enqueue(handles[f], &payload).unwrap();
                    next_seq[f] = seq + 1;
                }
            }
            reactor.path_mut().pump_into(now, usize::MAX, &mut events);
            if $burst == 0 {
                reactor.path_mut().send_idle_markers_into(now, &mut events);
            }
            reactor.poll(now);
            demux.sweep(now);
            for f in 0..FLOWS {
                demux.poll_flow_into(f as u32, &mut batch);
                for pb in batch.drain() {
                    let s = pb.as_slice();
                    let flow = u32::from_be_bytes(s[..4].try_into().unwrap()) as usize;
                    let seq = u64::from_be_bytes(s[4..12].try_into().unwrap());
                    assert_eq!(
                        flow, f,
                        "CROSS-FLOW LEAK: flow {f} delivered flow {flow}'s packet"
                    );
                    assert!(seq < next_seq[f], "CORRUPT DELIVERY: bogus seq {seq}");
                    let fill = (f as u8) ^ (seq as u8);
                    assert!(
                        s[12..].iter().all(|&b| b == fill),
                        "CORRUPT DELIVERY: payload mismatch on flow {f} seq {seq}"
                    );
                    got[f].push(seq);
                    demux.recycle(pb);
                }
            }
            std::thread::yield_now();
        }};
    }
    macro_rules! run_until {
        ($what:expr, $cond:expr) => {
            while !$cond {
                assert!(Instant::now() < deadline, "timed out waiting for {}", $what);
                step!(1);
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

    run_until!(
        "warm-up",
        got.iter().all(|g| g.len() >= 8) && demux.flow_slots() >= FLOWS
    );

    // The epoch cycle: channel 1's socket dies, the mask shrinks, the
    // lifecycle rebuilds and rejoins it.
    reactor.path_mut().links_mut()[1]
        .inner_mut()
        .inject_socket_death();
    run_until!(
        "shrink after socket death",
        !reactor.driver().unwrap().liveness().live_mask()[1]
    );
    run_until!("rejoin after socket death", converged!());
    let g = reactor.path().links()[1].inner().stats().generation;
    assert_eq!(g, 1, "socket was not rebuilt");
    println!("epoch cycle: ch1 socket death -> rebuilt (generation {g}), full capacity restored");

    // Per-flow Theorem 5.1 tails: everything sent after the rejoin
    // arrives exactly once, quasi-FIFO, on every flow.
    let marks: Vec<u64> = next_seq.clone();
    while next_seq[0] < marks[0] + TAIL {
        step!(1);
    }
    run_until!(
        "tail delivery on every flow",
        (0..FLOWS).all(|f| got[f].iter().filter(|&&s| s >= marks[f]).count() as u64 >= TAIL)
    );
    for f in 0..FLOWS {
        let tail: Vec<u64> = got[f].iter().copied().filter(|&s| s >= marks[f]).collect();
        let mut sorted = tail.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (marks[f]..marks[f] + TAIL).collect::<Vec<_>>(),
            "flow {f} tail has gaps or duplicates after the rejoin"
        );
        for (pos, &s) in tail.iter().enumerate() {
            let disp = pos as i64 - (s - marks[f]) as i64;
            assert!(
                disp.abs() <= 30,
                "flow {f} seq {s} displaced {disp} positions"
            );
        }
        // Exactly-once across the whole run, not just the tail.
        let mut uniq = got[f].clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), got[f].len(), "flow {f} duplicate deliveries");
    }

    let stats = reactor.stats();
    let snap = reactor.path().stats();
    println!("\nStripeServerSnapshot:");
    println!("  flows_active      : {}", snap.flows_active);
    println!("  dropped_admission : {}", snap.dropped_admission);
    println!("  data sent         : {}", snap.path.sent);
    println!(
        "  markers sent      : {} ({} inside data frames)",
        snap.path.markers_sent, snap.markers_carried
    );
    println!("ReactorSnapshot:");
    println!("  link_dead_reports : {}", stats.link_dead_reports);
    println!("  grow_announcements: {}", stats.grow_announcements);
    println!("  rejoins           : {}", stats.rejoins);
    println!("UdpChannelSnapshot (per channel, sender side):");
    for (c, link) in reactor.path().links().iter().enumerate() {
        let s = link.inner().stats();
        println!(
            "  ch{c}: {:.2} frames/train ({}+{} frames in {}+{} trains, sent+received), \
             {} iovecs sent, {:.2} frames/send syscall",
            s.frames_per_train(),
            s.sent_frames,
            s.recv_frames,
            s.sent_trains,
            s.recv_trains,
            s.sent_iovecs,
            s.send_batch_occupancy(),
        );
    }
    let rx = demux.net_stats();
    println!("FlowDemuxSnapshot:");
    println!("  frames            : {}", rx.frames);
    println!("  marked_frames     : {}", rx.marked_frames);
    println!(
        "  rehomed           : {} (pool: {} buffers of {} B, {} free)",
        rx.rehomed,
        demux.pool().allocated(),
        demux.pool().buf_len(),
        demux.pool().free_count(),
    );
    assert_eq!(snap.flows_active as usize, FLOWS);
    assert_eq!(snap.dropped_admission, 0);
    // Integrity is on: a checksummed frame carries no mark.
    assert_eq!((snap.markers_carried, rx.marked_frames), (0, 0));
    assert!(stats.link_dead_reports >= 1);
    assert!(stats.rejoins >= 1);
    for lc in reactor.lifecycle() {
        assert_eq!(lc.snapshot().state, LifecycleState::Live);
    }

    let total: usize = got.iter().map(|g| g.len()).sum();
    println!(
        "\nok: {total} delivered across {FLOWS} flows, epoch change healed, \
         per-flow tails set-exact, zero cross-flow leaks, seed {seed} reproducible"
    );
    Ok(())
}
