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
use stripe_netsim::DetRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CHANNELS: usize = 4;
const FLOWS: usize = 8;
const CHUNK: usize = 32;

/// What a phase offers: one flow of equal 256 B packets, or every flow
/// with a seeded 50/50 mix of 64 B and 1400 B — the mix that makes the
/// server regroup each channel's burst across flows.
#[derive(Clone, Copy)]
enum Traffic {
    OneFlowUniform,
    AllFlowsMixed,
}

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
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(rx_links)
        .pool_buffers(256)
        .build();
    let flows: Vec<_> = (0..FLOWS).map(|_| path.open_flow().unwrap()).collect();
    for flow in &flows {
        assert!(rx.touch_flow(flow.id()));
        rx.reserve_flow(flow.id(), 1 << 10);
    }

    let payload = [0x5au8; 1400];
    let mut events: Vec<PumpEvent> = Vec::with_capacity(2 * CHUNK + CHANNELS * FLOWS);
    let mut got: RxBatch<PooledBuf> = RxBatch::with_capacity(2 * CHUNK);
    let clock = WallClock::start();
    let mut coin = DetRng::new(7);

    let mut spin = |path: &mut StripeServer<Srr, UdpChannel>,
                    rx: &mut FlowDemux<Srr, UdpChannel>,
                    traffic: Traffic,
                    chunks: usize,
                    chunk: usize|
     -> u64 {
        let mut n = 0u64;
        for _ in 0..chunks {
            for i in 0..chunk {
                let (flow, len) = match traffic {
                    Traffic::OneFlowUniform => (flows[0], 256),
                    Traffic::AllFlowsMixed => {
                        (flows[i % FLOWS], if coin.chance(0.5) { 64 } else { 1400 })
                    }
                };
                path.enqueue(flow, &payload[..len]).unwrap();
            }
            path.pump_into(clock.now(), usize::MAX, &mut events);
            // Sweep until this chunk has fully crossed the kernel, so the
            // next chunk never piles onto a full socket buffer.
            let mut left = chunk as u64;
            let mut spins = 0u32;
            while left > 0 {
                path.flush();
                rx.sweep(clock.now());
                for flow in &flows {
                    rx.poll_flow_into(flow.id(), &mut got);
                    left -= got.len() as u64;
                    for pb in got.drain() {
                        rx.recycle(pb);
                    }
                }
                spins += 1;
                assert!(spins < 1_000_000, "loopback datagrams went missing");
                std::thread::yield_now();
            }
            n += chunk as u64;
        }
        n
    };

    let mut delivered = 0u64;
    for traffic in [Traffic::OneFlowUniform, Traffic::AllFlowsMixed] {
        // Warm-up: every pool, ring, queue, and scratch buffer reaches
        // its high-water mark. The chunks are twice the measured size:
        // frame buffers grow to the longest frame they have carried and
        // circulate through LIFO pools, and per-channel scratch grows to
        // the longest burst a channel has seen, both of which vary from
        // pump to pump under mixed lengths — at double depth every
        // buffer and every capacity the measured window can reach has
        // been reached (and each buffer has met a long frame) already.
        delivered += spin(&mut path, &mut rx, traffic, 32, 2 * CHUNK);

        // Let the libtest harness settle: its main thread lazily allocates
        // an mpmc wait context the first time it blocks on the completion
        // channel, and that init races with the measured window below.
        std::thread::sleep(std::time::Duration::from_millis(50));

        let before = CountingAlloc::allocations();
        delivered += spin(&mut path, &mut rx, traffic, 64, CHUNK);
        let allocs = CountingAlloc::allocations() - before;

        assert_eq!(
            allocs, 0,
            "steady-state net datapath must not touch the allocator \
             ({allocs} allocations over 64 chunks of {CHUNK} packets)"
        );
    }
    // Sanity: the loops really moved packets through the kernel.
    assert_eq!(delivered, (2 * (32 * 2 + 64) * CHUNK) as u64);
    assert_eq!(path.stats().path.dropped_queue, 0);
    for flow in &flows {
        assert_eq!(rx.flow_stats(flow.id()).unwrap().dropped_overflow, 0);
    }
}
