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
use stripe_link::{DatagramLink, Train};
use stripe_net::{bundle, FlowDemux, PooledBuf, PumpEvent, StripeServer, UdpChannel, WallClock};
use stripe_netsim::DetRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CHANNELS: usize = 4;
/// Flows open: the many-flows phase goes round all of them, the mixed
/// phase uses the first [`MIXED_FLOWS`].
const FLOWS: usize = 1000;
const MIXED_FLOWS: usize = 8;
const CHUNK: usize = 32;

/// What a phase offers: one flow of equal 256 B packets, eight flows
/// with a seeded 50/50 mix of 64 B and 1400 B — the mix that makes the
/// server regroup each channel's burst across flows — or 64 B packets
/// from a thousand flows in turn, every frame short enough for the
/// channels' send arenas.
#[derive(Clone, Copy)]
enum Traffic {
    OneFlowUniform,
    FewFlowsMixed,
    ManyFlowsSmall,
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
        // A channel never holds more of a flow than one whole chunk.
        rx.reserve_flow(flow.id(), 2 * CHUNK);
    }

    let payload = [0x5au8; 1400];
    let mut events: Vec<PumpEvent> = Vec::with_capacity(2 * CHUNK + CHANNELS * FLOWS);
    let mut got: RxBatch<PooledBuf> = RxBatch::with_capacity(2 * CHUNK);
    let clock = WallClock::start();
    let mut coin = DetRng::new(7);
    let mut turn = 0usize;

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
                    Traffic::FewFlowsMixed => (
                        flows[i % MIXED_FLOWS],
                        if coin.chance(0.5) { 64 } else { 1400 },
                    ),
                    Traffic::ManyFlowsSmall => {
                        turn += 1;
                        (flows[turn % FLOWS], 64)
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
    // With its warm-up chunks: the many-flows phase takes every flow
    // through four packets before it is measured.
    let phases = [
        (Traffic::OneFlowUniform, 32),
        (Traffic::FewFlowsMixed, 32),
        (Traffic::ManyFlowsSmall, 4 * FLOWS / (2 * CHUNK) + 1),
    ];
    let mut expected = 0u64;
    for (traffic, warm_chunks) in phases {
        // Warm-up: every pool, ring, queue, and scratch buffer reaches
        // its high-water mark. The chunks are twice the measured size:
        // frame buffers grow to the longest frame they have carried and
        // circulate through LIFO pools, and per-channel scratch grows to
        // the longest burst a channel has seen, both of which vary from
        // pump to pump under mixed lengths — at double depth every
        // buffer and every capacity the measured window can reach has
        // been reached (and each buffer has met a long frame) already.
        delivered += spin(&mut path, &mut rx, traffic, warm_chunks, 2 * CHUNK);
        expected += ((warm_chunks * 2 + 64) * CHUNK) as u64;

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
    assert_eq!(delivered, expected);
    assert_eq!(path.stats().path.dropped_queue, 0);
    for flow in &flows {
        assert_eq!(rx.flow_stats(flow.id()).unwrap().dropped_overflow, 0);
    }

    send_queue_allocates_nothing_when_a_flush_is_cut_short();
}

/// The channel's send queue alone, bursts of 64 B frames parked and
/// flushed the way a pump does it — and, inside the measured window, one
/// burst with a frame in its middle that the kernel refuses, so that one
/// `sendmmsg` comes back partial and the frames behind the refusal wait,
/// in the arena, for the flush after. (A send buffer does not push back
/// on loopback, whatever its size: the datagram is off the sender's
/// books the moment it is looped. `EMSGSIZE` for a datagram no UDP
/// packet can hold is the refusal this host produces on demand.)
/// Called from the one test: this binary's allocator must see one test
/// at a time.
fn send_queue_allocates_nothing_when_a_flush_is_cut_short() {
    const BURST: usize = 96;
    let (mut tx, mut rx) = UdpChannel::builder(70_000)
        .queue_cap(1 << 10)
        .pair()
        .unwrap();
    let mut frames: Vec<Vec<u8>> = (0..BURST).map(|i| vec![i as u8; 70]).collect();
    let mut huge = vec![0u8; 66_000];
    let mut out = Vec::with_capacity(BURST + 1);
    let window = rx.recv_window();
    let mut room = vec![0u8; 4 * window];
    let mut trains = [Train::default(); 4];
    // One burst parked, flushed until the queue is empty, and read back;
    // the frames that arrived.
    let mut burst = |with_refusal: bool| -> usize {
        let (head, tail) = frames.split_at_mut(BURST / 2);
        out.clear();
        tx.send_run_owned(head, &mut out);
        if with_refusal {
            tx.send_run_owned(std::slice::from_mut(&mut huge), &mut out);
        }
        tx.send_run_owned(tail, &mut out);
        assert!(out.iter().all(|r| r.is_ok()));
        let (mut flushes, mut got, mut spins) = (0, 0, 0u32);
        while got < BURST {
            if tx.backlog() > 0 {
                tx.flush();
                flushes += 1;
            }
            let landed = {
                let mut windows: [&mut [u8]; 4] = {
                    let mut it = room.chunks_exact_mut(window);
                    std::array::from_fn(|_| it.next().expect("four windows"))
                };
                rx.recv_trains(&mut windows, &mut trains)
            };
            got += room
                .chunks_exact(window)
                .zip(&trains[..landed])
                .map(|(w, &t)| bundle::count(w, t))
                .sum::<usize>();
            spins += 1;
            assert!(spins < 1_000_000, "loopback datagrams went missing");
        }
        assert_eq!(got, BURST);
        flushes
    };
    for _ in 0..32 {
        burst(false);
    }
    let before = CountingAlloc::allocations();
    let mut flushes = 0;
    for round in 0..64 {
        flushes += burst(round == 20);
    }
    let allocs = CountingAlloc::allocations() - before;
    assert_eq!(allocs, 0, "the send queue must not touch the allocator");
    let s = tx.stats();
    assert_eq!(s.sent_frames, (96 * BURST) as u64);
    if s.mtu_clamps > 0 && tx.batched_syscalls() {
        assert!(flushes > 64, "the refused frame cut one flush short");
        assert_eq!(s.dropped_error, 1);
    }
}
