//! The real-socket datapath, end to end in one process: striping a
//! numbered stream across four kernel loopback UDP sockets with the
//! `stripe::net` subsystem, inducing a deterministic loss burst, and
//! watching the numbers every frame states restore in-order delivery.
//!
//! This demo uses the production datapath: `StripeServer` (one flow
//! open) for causal striping + wire framing, `ImpairedLink` under a
//! drop-only `ChaosPlan` for reproducible loss, `FlowDemux` for pooled
//! zero-copy reception, and a single-threaded poll loop — no threads, no
//! async runtime. The delivered sequence is scored with the §6.3 reorder
//! metrics.
//!
//! Run with: `cargo run --example udp_loopback`

use std::time::{Duration, Instant};

use stripe::apps::metrics::analyze;
use stripe::core::receiver::RxBatch;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::net::{
    ChaosPlan, DropPolicy, FlowDemux, ImpairedLink, StripeServer, UdpChannel, WallClock,
};

const CHANNELS: usize = 4;
const PACKETS: u64 = 2000;
const PAYLOAD: usize = 512;
const BURST: u64 = 10;
// Data frames 80..85 on channel 0 vanish in flight — a loss burst early
// enough that the tail demonstrates full recovery (Theorem 5.1).
const DROP_FROM: u64 = 80;
const DROP_TO: u64 = 85;

fn main() -> std::io::Result<()> {
    // One connected socket pair per striped channel.
    let mut tx_links = Vec::new();
    let mut rx_links = Vec::new();
    for _ in 0..CHANNELS {
        let (a, b) = UdpChannel::pair(2048, 1 << 12)?;
        tx_links.push(a);
        rx_links.push(b);
    }

    // Sender: SRR striping, every frame numbered (markers on: idle sweeps
    // would send them), loss injected on channel 0.
    let mut path = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .markers(MarkerConfig::every_rounds(4))
        .links(
            tx_links
                .into_iter()
                .enumerate()
                .map(|(i, l)| {
                    let policy = if i == 0 {
                        DropPolicy::Window {
                            from: DROP_FROM,
                            to: DROP_TO,
                        }
                    } else {
                        DropPolicy::None
                    };
                    ImpairedLink::new(l, ChaosPlan::none().loss(policy), 0)
                })
                .collect(),
        )
        .build();
    let flow = path.open_flow().expect("a fresh server admits a flow");

    // Receiver: an identically configured scheduler replays the sender's
    // decisions; payloads are views into the buffers the kernel filled,
    // so reception neither copies nor allocates.
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(rx_links)
        .build();

    println!("striping {PACKETS} packets across {CHANNELS} loopback UDP sockets");
    println!("dropping data frames {DROP_FROM}..{DROP_TO} on channel 0 in flight\n");

    let clock = WallClock::start();
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    let mut got: Vec<u64> = Vec::new();
    let expected = PACKETS - (DROP_TO - DROP_FROM);
    let deadline = Instant::now() + Duration::from_secs(10);

    let mut next_id = 0u64;
    while (got.len() as u64) < expected && Instant::now() < deadline {
        if next_id < PACKETS {
            for _ in 0..BURST.min(PACKETS - next_id) {
                let mut payload = [0u8; PAYLOAD];
                payload[..8].copy_from_slice(&next_id.to_be_bytes());
                path.enqueue(flow, &payload).expect("burst fits the queue");
                next_id += 1;
            }
            path.pump_into(clock.now(), usize::MAX, &mut events);
        }
        path.flush(); // retry anything the kernel pushed back
        rx.sweep(clock.now()); // physical reception off every socket
        rx.poll_flow_into(flow.id(), &mut batch); // logical (resequenced) delivery
        for pb in batch.drain() {
            got.push(u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap()));
            rx.recycle(pb); // drop the view: its buffer can be landed in again
        }
        std::thread::yield_now();
    }

    let dropped: u64 = path.links().iter().map(|l| l.snapshot().dropped_loss).sum();
    let m = analyze(&got);
    let s = m.stats();

    println!("sent        : {PACKETS}");
    println!("dropped     : {dropped} (in flight, channel 0)");
    println!("delivered   : {}", s.delivered);
    let net = rx.net_stats();
    println!("idle markers sent: {}", path.stats().path.markers_sent);
    println!(
        "data frames received: {}, their numbers refused {} and clamped {}",
        net.data_frames, net.dropped_mark_ahead, net.marks_clamped
    );
    let marks_applied = rx.flow_stats(flow.id()).map_or(0, |s| s.marks_applied);
    println!("marks applied: {marks_applied}");
    for (c, link) in path.links().iter().enumerate() {
        let u = link.inner().stats();
        println!(
            "ch{c} sent    : {} frames as {} kernel datagrams in {} iovecs",
            u.sent_frames, u.sent_trains, u.sent_iovecs
        );
    }
    println!();
    println!("reorder metrics over the delivered sequence (§6.3):");
    println!("  out of order     : {}", s.out_of_order);
    println!("  ooo fraction     : {:.4}", s.ooo_fraction);
    println!("  mean displacement: {:.2}", s.mean_displacement);
    println!("  max displacement : {}", s.max_displacement);
    println!("  longest run      : {}", s.longest_in_order_run);
    if let Some(idx) = s.last_ooo_index {
        let frac = idx as f64 / s.delivered as f64;
        println!(
            "  last disorder at delivery {idx} of {} ({:.0}% mark) — the tail is clean:",
            s.delivered,
            frac * 100.0
        );
        println!("  the next frame on the lossy channel resynchronized the receiver (Theorem 5.1)");
    } else {
        println!("  fully in-order delivery (Theorem 4.1)");
    }

    assert_eq!(s.delivered, expected, "every surviving packet must arrive");
    // Every data frame states its number, and an honest sender's number
    // is never out of reach nor out of range.
    if net.dropped_mark_ahead + net.marks_clamped != 0 {
        eprintln!(
            "of {} data frames' numbers, {} were refused and {} clamped",
            net.data_frames, net.dropped_mark_ahead, net.marks_clamped
        );
        std::process::exit(1);
    }
    Ok(())
}
