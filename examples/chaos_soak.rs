//! Seeded chaos soak over the real-socket datapath, runnable form: the
//! CI smoke job and a README showcase in one binary.
//!
//! Three kernel loopback UDP channels, each wrapped in a seeded
//! [`ImpairedLink`] with a different impairment mix — probabilistic
//! loss + reordering + duplication, payload corruption + latency
//! jitter, and a deterministic loss burst — with the integrity trailer
//! enabled so corrupted frames are *caught*, never delivered. After the
//! run the conservation ledger must close exactly and every delivered
//! payload must verify byte-for-byte; any violation aborts the process
//! with a non-zero exit, which is what the CI gate keys on.
//!
//! Run with: `cargo run --example chaos_soak [seed]`

use std::time::{Duration, Instant};

use stripe::apps::metrics::analyze;
use stripe::core::receiver::RxBatch;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::net::chaos::DropPolicy;
use stripe::net::{
    ChaosPlan, ChaosSnapshot, FlowDemux, ImpairedLink, StripeServer, UdpChannel, WallClock,
};

const CHANNELS: usize = 3;
const PAYLOAD: usize = 300;
const TOTAL: u64 = 1200;
const BURST: u64 = 10;
/// Impairments cover each link's first 150 data frames, then quiesce so
/// the tail demonstrates recovery.
const ACTIVE_TO: u64 = 150;

fn main() -> std::io::Result<()> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(0xC0FFEE);

    let mut tx_links = Vec::new();
    let mut rx_links = Vec::new();
    for _ in 0..CHANNELS {
        let (a, b) = UdpChannel::pair(2048, 1 << 12)?;
        tx_links.push(a);
        rx_links.push(b);
    }
    let plans = [
        ChaosPlan::none()
            .loss_bernoulli(40_000)
            .reorder(30_000, 4)
            .duplicate(50_000)
            .active(0, ACTIVE_TO),
        ChaosPlan::none()
            .corrupt(40_000)
            .jitter(30_000, 2)
            .active(0, ACTIVE_TO),
        ChaosPlan::none()
            .loss(DropPolicy::Window { from: 20, to: 60 })
            .active(0, ACTIVE_TO),
    ];
    let links: Vec<ImpairedLink<UdpChannel>> = tx_links
        .into_iter()
        .zip(plans)
        .enumerate()
        .map(|(i, (l, p))| ImpairedLink::new(l, p, seed.wrapping_add(i as u64)))
        .collect();
    let mut path = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .markers(MarkerConfig::every_rounds(4))
        .links(links)
        .integrity(true)
        .build();
    let flow = path.open_flow().expect("a fresh server admits a flow");
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(rx_links)
        .pool_buffers(256)
        .build();

    println!("chaos soak: {TOTAL} packets, {CHANNELS} impaired loopback channels, seed {seed:#x}");
    println!(
        "ch0: bernoulli loss + reorder + duplicate   ch1: corrupt + jitter   ch2: loss burst\n"
    );

    let clock = WallClock::start();
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    let mut got: Vec<u64> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut next_id = 0u64;
    loop {
        assert!(
            Instant::now() < deadline,
            "soak stalled at {} deliveries",
            got.len()
        );
        if next_id < TOTAL {
            for _ in 0..BURST.min(TOTAL - next_id) {
                let mut payload = [next_id as u8; PAYLOAD];
                payload[..8].copy_from_slice(&next_id.to_be_bytes());
                path.enqueue(flow, &payload).expect("burst fits the queue");
                next_id += 1;
            }
            path.pump_into(clock.now(), usize::MAX, &mut events);
        } else {
            // Stream over: idle markers heal straggling losses.
            path.send_idle_markers_into(clock.now(), &mut events);
        }
        path.flush(); // also ages the chaos layer's hold queues
        rx.sweep(clock.now());
        rx.poll_flow_into(flow.id(), &mut batch);
        for pb in batch.drain() {
            let id = u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap());
            // The CI gate: a corrupted payload delivered = abort.
            assert!(id < TOTAL, "CORRUPT DELIVERY: bogus id {id}");
            assert!(
                pb.as_slice()[8..].iter().all(|&b| b == id as u8),
                "CORRUPT DELIVERY: payload mismatch for id {id}"
            );
            got.push(id);
            rx.recycle(pb);
        }
        if next_id >= TOTAL {
            let held: usize = path.links().iter().map(|l| l.held_frames()).sum();
            let snaps: Vec<ChaosSnapshot> = path.links().iter().map(|l| l.snapshot()).collect();
            let lost: u64 = snaps.iter().map(|s| s.dropped_total()).sum();
            let corrupted: u64 = snaps.iter().map(|s| s.corrupted).sum();
            let duplicated: u64 = snaps.iter().map(|s| s.duplicated).sum();
            if held == 0 && got.len() as u64 >= TOTAL - lost - corrupted + duplicated {
                break;
            }
        }
        std::thread::yield_now();
    }

    let snaps: Vec<ChaosSnapshot> = path.links().iter().map(|l| l.snapshot()).collect();
    println!("per-channel ChaosSnapshot:");
    for (c, s) in snaps.iter().enumerate() {
        println!(
            "  ch{c}: seen_data={:<4} dropped_loss={:<3} corrupted={:<3} duplicated={:<3} \
             reordered={:<3} jittered={:<3} released={:<3}",
            s.seen_data,
            s.dropped_loss,
            s.corrupted,
            s.duplicated,
            s.reordered,
            s.jittered,
            s.released,
        );
    }

    let lost: u64 = snaps.iter().map(|s| s.dropped_total()).sum();
    let corrupted: u64 = snaps.iter().map(|s| s.corrupted).sum();
    let duplicated: u64 = snaps.iter().map(|s| s.duplicated).sum();
    let mut uniq = got.clone();
    uniq.sort_unstable();
    uniq.dedup();

    println!("\nconservation ledger:");
    println!("  sent               : {TOTAL}");
    println!("  chaos-dropped      : {lost}");
    println!(
        "  corrupt (caught)   : {corrupted} (receiver discarded {})",
        rx.net_stats().dropped_corrupt
    );
    println!("  duplicated         : {duplicated}");
    println!(
        "  delivered          : {} ({} unique)",
        got.len(),
        uniq.len()
    );

    // The gate, part two: the ledger must close exactly.
    assert_eq!(
        uniq.len() as u64 + lost + corrupted,
        TOTAL,
        "conservation violated: sent != delivered + dropped"
    );
    assert_eq!(
        got.len() - uniq.len(),
        duplicated as usize,
        "delivery surplus must equal injected duplicates"
    );
    assert_eq!(
        rx.net_stats().dropped_corrupt,
        corrupted,
        "every injected corruption must die at the receiver checksum"
    );
    assert_eq!(rx.net_stats().dropped_malformed, 0);

    let m = analyze(&got);
    let s = m.stats();
    println!("\nreorder metrics over the delivered sequence (§6.3):");
    println!("  out of order     : {}", s.out_of_order);
    println!("  mean displacement: {:.2}", s.mean_displacement);
    println!("  max displacement : {}", s.max_displacement);
    println!("  longest run      : {}", s.longest_in_order_run);
    let marks_applied = rx.flow_stats(flow.id()).map_or(0, |s| s.marks_applied);
    println!("  marks applied    : {marks_applied}");
    if let Some(idx) = s.last_ooo_index {
        println!(
            "  last disorder at delivery {idx} of {} — the tail is clean (Theorem 5.1)",
            s.delivered
        );
    }

    println!("\nok: zero corrupted deliveries, ledger closed, seed {seed:#x} reproducible");
    Ok(())
}
