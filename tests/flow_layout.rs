//! Pins how many heap objects one flow costs, on both ends.
//!
//! With ten thousand flows the per-packet cost is memory: every object a
//! flow's state is scattered over is another cache line (and another
//! pointer to chase to it) on each packet. The sender's per-flow engine
//! is two — the SRR scheduler's per-channel array and the byte ledger's —
//! and the receive replica is the scheduler's array, the resequencer's
//! per-channel array, one ring per channel and the salvage queue. A
//! per-channel `Vec` added to either creeps back in here. So does a
//! wider resequencer ring: a frame that states its own number is still
//! one ring entry, and the entry is the 40 bytes it was when it did not.
//!
//! The count is taken per open and judged by the median: the few opens
//! during which a flow slab doubles pay for that too, and are not what
//! this pins. This test owns its binary so the counting allocator sees
//! only this workload (see `alloc_counting_net.rs` for the steady-state
//! zero-allocations-per-packet gate, which stays as it is).

use stripe::core::receiver::Arrival;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::link::{datagram_pair, TestDatagramLink};
use stripe::net::{FlowDemux, PooledBuf, StripeServer};
use stripe_bench::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CHANNELS: usize = 4;
const FLOWS: usize = 101;

fn median(mut counts: Vec<u64>) -> u64 {
    counts.sort_unstable();
    counts[counts.len() / 2]
}

#[test]
fn heap_objects_per_flow_are_pinned() {
    let (tx_links, rx_links): (Vec<TestDatagramLink>, Vec<TestDatagramLink>) =
        (0..CHANNELS).map(|_| datagram_pair(2048, 64)).unzip();
    let mut server = StripeServer::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .markers(MarkerConfig::every_rounds(4))
        .links(tx_links)
        .build();
    let mut demux = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(rx_links)
        .build();

    let mut ids = Vec::with_capacity(FLOWS);
    let mut opens = Vec::with_capacity(FLOWS);
    for _ in 0..FLOWS {
        let before = CountingAlloc::allocations();
        let h = server.open_flow().expect("admitted");
        opens.push(CountingAlloc::allocations() - before);
        ids.push(h.id());
    }
    let mut touches = Vec::with_capacity(FLOWS);
    for &id in &ids {
        let before = CountingAlloc::allocations();
        assert!(demux.touch_flow(id));
        demux.reserve_flow(id, 4);
        touches.push(CountingAlloc::allocations() - before);
    }

    let entry = std::mem::size_of::<Arrival<PooledBuf>>();
    assert!(
        entry <= 40,
        "a resequencer ring entry grew to {entry} bytes"
    );

    let (open, touch) = (median(opens), median(touches));
    assert!(
        open <= 2,
        "sender open_flow costs {open} heap objects (scheduler + ledger = 2)"
    );
    assert!(
        touch <= CHANNELS as u64 + 3,
        "receiver touch_flow + reserve_flow costs {touch} heap objects \\
         (scheduler + channel array + {CHANNELS} rings + salvage queue = {})",
        CHANNELS + 3
    );
}
