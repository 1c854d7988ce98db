//! Pins the zero-copy claim for the REAL-SOCKET datapath: sender framing,
//! UDP channels, physical reception, and logical resequencing together
//! perform ZERO heap allocations per packet in steady state.
//!
//! Like `alloc_counting.rs`, this test owns its binary so the counting
//! global allocator sees only this test's traffic (sibling tests in the
//! same binary would run on threads and pollute the counter). The kernel
//! socket calls themselves don't touch the Rust allocator, so the count
//! isolates our datapath exactly.

use stripe_bench::alloc::CountingAlloc;
use stripe_core::receiver::RxBatch;
use stripe_core::sched::Srr;
use stripe_core::sender::MarkerConfig;
use stripe_net::{FlowDemux, PooledBuf, PumpEvent, StripeServer, UdpChannel, WallClock};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CHANNELS: usize = 4;
const CHUNK: usize = 32;

#[test]
fn steady_state_net_datapath_allocates_nothing() {
    let mut tx_links = Vec::new();
    let mut rx_links = Vec::new();
    for _ in 0..CHANNELS {
        let (a, b) = UdpChannel::pair(2048, 1 << 10).unwrap();
        tx_links.push(a);
        rx_links.push(b);
    }
    let mut path = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .markers(MarkerConfig::every_rounds(8))
        .links(tx_links)
        .build();
    let flow = path.open_flow().unwrap();
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(rx_links)
        .pool_buffers(256)
        .build();
    assert!(rx.touch_flow(flow.id()));
    rx.reserve_flow(flow.id(), 1 << 10);

    let payload = [0x5au8; 256];
    let mut events: Vec<PumpEvent> = Vec::with_capacity(CHUNK + 2 * CHANNELS);
    let mut got: RxBatch<PooledBuf> = RxBatch::with_capacity(CHUNK + 2 * CHANNELS);
    let clock = WallClock::start();
    let mut delivered = 0u64;

    let mut spin = |path: &mut StripeServer<Srr, UdpChannel>,
                    rx: &mut FlowDemux<Srr, UdpChannel>,
                    chunks: usize|
     -> u64 {
        let mut n = 0u64;
        for _ in 0..chunks {
            for _ in 0..CHUNK {
                path.enqueue(flow, &payload).unwrap();
            }
            path.pump_into(clock.now(), usize::MAX, &mut events);
            // Sweep until this chunk has fully crossed the kernel, so the
            // next chunk never piles onto a full socket buffer.
            let mut spins = 0u32;
            loop {
                path.flush();
                rx.sweep(clock.now());
                rx.poll_flow_into(flow.id(), &mut got);
                if !got.is_empty() {
                    break;
                }
                spins += 1;
                assert!(spins < 1_000_000, "loopback datagrams went missing");
                std::thread::yield_now();
            }
            loop {
                n += got.len() as u64;
                for pb in got.drain() {
                    rx.recycle(pb);
                }
                rx.sweep(clock.now());
                rx.poll_flow_into(flow.id(), &mut got);
                if got.is_empty() {
                    break;
                }
            }
        }
        n
    };

    // Warm-up: every pool, ring, queue, and scratch buffer reaches its
    // high-water mark.
    delivered += spin(&mut path, &mut rx, 16);

    // Let the libtest harness settle: its main thread lazily allocates an
    // mpmc wait context the first time it blocks on the completion
    // channel, and that init races with the measured window below.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let before = CountingAlloc::allocations();
    delivered += spin(&mut path, &mut rx, 64);
    let allocs = CountingAlloc::allocations() - before;

    assert_eq!(
        allocs, 0,
        "steady-state net datapath must not touch the allocator \
         ({allocs} allocations over 64 chunks of {CHUNK} packets)"
    );
    // Sanity: the loop really moved packets through the kernel.
    assert!(
        delivered >= ((16 + 64) * CHUNK) as u64 - CHUNK as u64,
        "only {delivered} delivered"
    );
    assert_eq!(path.stats().path.dropped_queue, 0);
    assert_eq!(rx.flow_stats(flow.id()).unwrap().dropped_overflow, 0);
}
