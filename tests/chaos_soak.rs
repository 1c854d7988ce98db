//! The chaos soak: the full sender/receiver datapath over impaired
//! kernel UDP sockets, for several distinct seeds, asserting after every
//! run the four properties the robustness story rests on:
//!
//! 1. **Theorem 5.1 recovery** — once the impairment window closes, the
//!    delivery tail is strictly in-order and gap-free: markers restored
//!    FIFO within their interval, under combined loss + reorder +
//!    duplication + corruption, not just a single clean burst.
//! 2. **Zero corrupted deliveries** — every delivered payload is
//!    byte-exact; flipped frames die at the CRC-8 trailer, counted,
//!    never surfaced.
//! 3. **Zero steady-state allocations** — after the chaos quiesces, the
//!    datapath (now running *through* the impairment layer) still does
//!    not touch the allocator, measured by the counting global
//!    allocator.
//! 4. **Conservation** — every packet is accounted for exactly:
//!    `sent == delivered_unique + chaos_dropped + corrupt_discarded`,
//!    and the delivery surplus equals the duplication count.
//!
//! Single `#[test]` on purpose: the counting allocator is global, so
//! sibling tests running on other threads would pollute the measured
//! window (same discipline as `alloc_counting_net.rs`).

use std::time::{Duration, Instant};

use stripe_bench::alloc::CountingAlloc;
use stripe_core::receiver::RxBatch;
use stripe_core::sched::Srr;
use stripe_core::sender::MarkerConfig;
use stripe_net::chaos::DropPolicy;
use stripe_net::{
    ChaosPlan, ChaosSnapshot, FlowDemux, ImpairedLink, PooledBuf, StripeServer, UdpChannel,
    WallClock,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CHANNELS: usize = 3;
const QUANTUM: i64 = 1500;
const PAYLOAD: usize = 300;
const TOTAL: u64 = 1200;
const BURST: u64 = 10;
/// Impairments run over each link's first `ACTIVE_TO` data frames
/// (≈ global id 450 at 3 equal channels), then quiesce.
const ACTIVE_TO: u64 = 150;
/// Theorem 5.1 horizon: by this global id the tail must be exact FIFO —
/// several marker intervals past the last possible injected event.
const HORIZON: u64 = 800;

fn id_packet(id: u64) -> [u8; PAYLOAD] {
    let mut payload = [id as u8; PAYLOAD];
    payload[..8].copy_from_slice(&id.to_be_bytes());
    payload
}

fn id_of(pb: &PooledBuf) -> u64 {
    u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap())
}

/// One full soak at `seed`: returns the delivered id sequence and the
/// per-link chaos snapshots for the caller's accounting.
fn soak(seed: u64) -> (Vec<u64>, Vec<ChaosSnapshot>) {
    let mut tx_links = Vec::new();
    let mut rx_links = Vec::new();
    for _ in 0..CHANNELS {
        let (a, b) = UdpChannel::pair(2048, 1 << 12).unwrap();
        tx_links.push(a);
        rx_links.push(b);
    }
    // Three channels, three distinct impairment mixes, all seeded:
    // probabilistic loss + reordering + duplication; corruption + jitter
    // (caught by the integrity trailer); a deterministic loss burst.
    // Deterministic policies ignore the probabilistic active window, so
    // the burst is bounded by its own `Window` — the sustained-Periodic
    // regime has its own test in `net_loopback.rs`.
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
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .markers(MarkerConfig::every_rounds(4))
        .links(links)
        .integrity(true) // corruption must be *caught*, not delivered
        .build();
    let flow = path.open_flow().unwrap();
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .links(rx_links)
        .pool_buffers(256)
        .build();
    assert!(rx.touch_flow(flow.id()));
    rx.reserve_flow(flow.id(), 1 << 10);

    let clock = WallClock::start();
    let mut events = Vec::new();
    let mut batch = RxBatch::new();
    let mut got: Vec<u64> = Vec::with_capacity(2 * TOTAL as usize);
    let deadline = Instant::now() + Duration::from_secs(30);

    let mut next_id = 0u64;
    loop {
        assert!(
            Instant::now() < deadline,
            "seed {seed}: stalled at {} deliveries",
            got.len()
        );
        if next_id < TOTAL {
            for _ in 0..BURST.min(TOTAL - next_id) {
                path.enqueue(flow, &id_packet(next_id)).unwrap();
                next_id += 1;
            }
            path.pump_into(clock.now(), usize::MAX, &mut events);
        } else {
            // Stream over: idle markers heal any straggling loss so the
            // conservation ledger can close.
            path.send_idle_markers_into(clock.now(), &mut events);
        }
        path.flush(); // also ages the chaos layer's hold queues
        rx.sweep(clock.now());
        rx.poll_flow_into(flow.id(), &mut batch);
        for pb in batch.drain() {
            let id = id_of(&pb);
            // Property 2, the strong form: whatever arrives is byte-exact.
            assert!(id < TOTAL, "seed {seed}: corrupt id {id} delivered");
            assert!(
                pb.as_slice()[8..].iter().all(|&b| b == id as u8),
                "seed {seed}: corrupted payload delivered for id {id}"
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

    // Property 1: Theorem 5.1 under sustained mixed chaos. After the
    // impairments quiesce the tail contains every remaining id exactly
    // once, and every delivery sits within a small bounded displacement
    // of exact FIFO. The allowance exists because a duplicated frame
    // leaves a permanent one-slot *surplus* in its channel's FIFO:
    // markers heal loss (missing packets) — the §5 model has no notion
    // of surplus — so delivery stays quasi-FIFO, shifted by at most the
    // duplicate count. What the bound proves is that the 40-frame loss
    // burst and the Bernoulli losses left no lasting shift: an unhealed
    // burst would displace deliveries by ~3x the burst length, far
    // outside the allowance.
    let tail_start = got
        .iter()
        .position(|&id| id >= HORIZON)
        .expect("tail must be delivered");
    let tail = &got[tail_start..];
    let base = *tail.iter().min().unwrap();
    let mut sorted = tail.to_vec();
    sorted.sort_unstable();
    let want: Vec<u64> = (base..TOTAL).collect();
    assert_eq!(sorted, want, "seed {seed}: tail has gaps or duplicates");
    let dup: u64 = path.links().iter().map(|l| l.snapshot().duplicated).sum();
    let bound = (3 * dup + 30) as i64;
    for (pos, &id) in tail.iter().enumerate() {
        let disp = pos as i64 - (id - base) as i64;
        assert!(
            disp.abs() <= bound,
            "seed {seed}: id {id} displaced {disp} positions (bound {bound}) — \
             loss-burst shift not healed by the marker deadline"
        );
    }
    assert!(
        rx.flow_stats(flow.id()).unwrap().marks_applied > 0,
        "seed {seed}: recovery must come from markers"
    );

    let snaps: Vec<ChaosSnapshot> = path.links().iter().map(|l| l.snapshot()).collect();

    // Property 2, the ledger form: every corrupted frame died at the
    // receiver's checksum, none anywhere else.
    let corrupted: u64 = snaps.iter().map(|s| s.corrupted).sum();
    assert_eq!(
        rx.net_stats().dropped_corrupt,
        corrupted,
        "seed {seed}: corrupt discards must match injected corruptions"
    );
    assert_eq!(rx.net_stats().dropped_malformed, 0);

    // Property 3: with chaos quiesced the datapath — still flowing
    // through the impairment layer — allocates nothing per packet.
    std::thread::sleep(Duration::from_millis(50)); // let libtest settle
    let template = [0x5au8; PAYLOAD];
    let mut steady = 0u64;
    let before = CountingAlloc::allocations();
    for _ in 0..32 {
        for _ in 0..BURST {
            path.enqueue(flow, &template).unwrap();
        }
        path.pump_into(clock.now(), usize::MAX, &mut events);
        let mut spins = 0u32;
        loop {
            path.flush();
            rx.sweep(clock.now());
            rx.poll_flow_into(flow.id(), &mut batch);
            if !batch.is_empty() {
                break;
            }
            spins += 1;
            assert!(spins < 1_000_000, "loopback datagrams went missing");
            std::thread::yield_now();
        }
        loop {
            steady += batch.len() as u64;
            for pb in batch.drain() {
                rx.recycle(pb);
            }
            rx.sweep(clock.now());
            rx.poll_flow_into(flow.id(), &mut batch);
            if batch.is_empty() {
                break;
            }
        }
    }
    let allocs = CountingAlloc::allocations() - before;
    assert_eq!(
        allocs, 0,
        "seed {seed}: steady state through the chaos layer must not allocate \
         ({allocs} allocations over {steady} packets)"
    );
    assert!(steady >= 31 * BURST, "steady window barely moved");

    (got, snaps)
}

#[test]
fn seeded_chaos_soak_holds_all_four_invariants() {
    for seed in [0xA11CE, 0xB0B5_EED5, 0xC0FF_EE00u64] {
        let (got, snaps) = soak(seed);

        let lost: u64 = snaps.iter().map(|s| s.dropped_total()).sum();
        let corrupted: u64 = snaps.iter().map(|s| s.corrupted).sum();
        let duplicated: u64 = snaps.iter().map(|s| s.duplicated).sum();

        // The run must actually have been chaotic.
        assert!(lost > 0, "seed {seed}: no loss injected");
        assert!(corrupted > 0, "seed {seed}: no corruption injected");
        assert!(duplicated > 0, "seed {seed}: no duplication injected");
        assert!(
            snaps.iter().map(|s| s.released).sum::<u64>() > 0,
            "seed {seed}: no reorder/jitter holds released"
        );

        // Property 4: conservation, exact. Unique ids account for every
        // packet not destroyed; the surplus is exactly the duplicates.
        let mut uniq = got.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(
            uniq.len() as u64 + lost + corrupted,
            TOTAL,
            "seed {seed}: conservation violated (sent != delivered + dropped)"
        );
        assert_eq!(
            got.len() - uniq.len(),
            duplicated as usize,
            "seed {seed}: delivery surplus must equal injected duplicates"
        );
    }
}
