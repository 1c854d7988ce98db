//! Differential proptests for the syscall-batched datapath: a
//! `send_run_owned` + `flush` / `recv_trains` mmsg round-trip must
//! deliver byte-identical frames with identical `TxError` outcomes
//! compared to the per-frame `send_frame`/`recv_frame` path.
//!
//! Two senders transmit the same generated run over real loopback
//! sockets:
//!
//! - **reference** — a forced-fallback channel driven one `send_frame`
//!   at a time (one syscall per frame);
//! - **deferred batch** — a default channel driven through
//!   `send_run_owned` + `flush` (`sendmmsg` batches where compiled,
//!   fallback otherwise), the path the striping sender uses per burst.
//!
//! Their receivers drain through `recv_frame` and the train-landing
//! `recv_trains` respectively, so both directions of both syscall
//! variants are compared every case; a second property pits the landing
//! call against `recv_frame` over runs shaped to coalesce, on batched and
//! forced-fallback sockets and with the two calls interleaved on one
//! socket. Running the whole suite
//! with `STRIPE_NET_FALLBACK=1` (the CI portable-path job) re-executes
//! these tests with every "default" channel on the per-frame fallback,
//! which keeps the portable path equivalent too.
//!
//! The deferred queue keeps short frames' bytes back to back in the
//! channel's send arena and longer frames' storage, in one order
//! (`net::udp::ARENA_FRAME_MAX`). The `queue_*` tests below drive seeded
//! mixes of the two kinds through `send_run_owned` + `flush` on a
//! batched and on a forced-fallback channel, through every way a queue
//! entry can leave — sent, refused by a full queue, refused as
//! oversized, left behind by a partial `sendmmsg`, dropped by `EMSGSIZE`,
//! drained by a dead socket — and hold the two to the same outcomes, the
//! same datagrams in the same order and the same counters.
//!
//! Where GSO is on, a frame shorter than its train's segments rides it
//! in a bundle segment (`net::bundle`), so the frames a landing call
//! hands over are its segments with every bundle opened. The mixes below
//! are shaped to make bundles — a server's regrouped burst, short frames
//! in long trains — and the mixed pairs hold a bundling sender to a
//! per-frame receiver, and the other way round.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use stripe::link::{DatagramLink, Train, TxError};
use stripe::net::bundle;
use stripe::net::sys::{BatchIo, SendPlanner};
use stripe::net::udp::{UdpChannelBuilder, ARENA_FRAME_MAX};
use stripe::net::UdpChannel;
use stripe::netsim::DetRng;

const MTU: usize = 512;
const QUEUE: usize = 1 << 10;
/// Every case sends its whole run before anything is read.
const RCVBUF: usize = 1 << 20;

/// Frame runs mixing normal, empty, and oversized (> MTU) payloads.
fn arb_frames() -> impl Strategy<Value = Vec<Vec<u8>>> {
    // Lengths up to MTU + 64: roughly one frame in ten is oversized and
    // must come back TooBig on every path.
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..(MTU + 64)), 1..48)
}

fn fallback_pair() -> (UdpChannel, UdpChannel) {
    UdpChannel::builder(MTU)
        .queue_cap(QUEUE)
        .rcvbuf(RCVBUF)
        .force_fallback(true)
        .pair()
        .expect("loopback pair")
}

fn default_pair() -> (UdpChannel, UdpChannel) {
    UdpChannel::builder(MTU)
        .queue_cap(QUEUE)
        .rcvbuf(RCVBUF)
        .pair()
        .expect("loopback pair")
}

/// A sender and a receiver on different syscall paths: a forced-fallback
/// sender to a default receiver, or (`fallback_tx == false`) the other
/// way round.
fn mixed_pair(fallback_tx: bool) -> (UdpChannel, UdpChannel) {
    let builder = UdpChannel::builder(MTU).queue_cap(QUEUE).rcvbuf(RCVBUF);
    let mut tx = builder
        .clone()
        .force_fallback(fallback_tx)
        .bind_loopback()
        .expect("bind");
    let mut rx = builder
        .force_fallback(!fallback_tx)
        .bind_loopback()
        .expect("bind");
    tx.connect(rx.local_addr().unwrap()).unwrap();
    rx.connect(tx.local_addr().unwrap()).unwrap();
    (tx, rx)
}

/// Drain `rx` one frame at a time until `expect` frames arrived or the
/// deadline passes.
fn drain_per_frame(rx: &mut UdpChannel, expect: usize) -> Vec<Vec<u8>> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; MTU];
    let mut got = Vec::new();
    while got.len() < expect && Instant::now() < deadline {
        match rx.recv_frame(&mut buf) {
            Some(n) => got.push(buf[..n].to_vec()),
            None => std::thread::yield_now(),
        }
    }
    got
}

/// Windows per landing call: what a sweep offers a GRO socket.
const LAND: usize = 4;

/// One landing call on `rx`, its frames — bundles opened — copied out in
/// order; `None` when nothing was ready.
fn land_once(rx: &mut UdpChannel, room: &mut Vec<u8>) -> Option<Vec<Vec<u8>>> {
    let window = rx.recv_window();
    room.resize(LAND * window, 0);
    let mut trains = [Train::default(); LAND];
    let landed = {
        let mut windows: Vec<&mut [u8]> = room.chunks_exact_mut(window).collect();
        rx.recv_trains(&mut windows, &mut trains)
    };
    let frames: Vec<Vec<u8>> = room
        .chunks_exact(window)
        .zip(&trains[..landed])
        .flat_map(|(w, &t)| bundle::frames_of(w, t).map(move |(at, n)| w[at..at + n].to_vec()))
        .collect();
    (landed > 0).then_some(frames)
}

/// Drain `rx` through the landing call until `expect` frames arrived or
/// the deadline passes.
fn drain_landed(rx: &mut UdpChannel, expect: usize) -> Vec<Vec<u8>> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut room = Vec::new();
    let mut got = Vec::new();
    while got.len() < expect && Instant::now() < deadline {
        match land_once(rx, &mut room) {
            Some(frames) => got.extend(frames),
            None => std::thread::yield_now(),
        }
    }
    got
}

/// Runs shaped like striped traffic, so that a GRO socket has trains to
/// coalesce: stretches of equal-length frames — empty, tiny, odd and
/// MTU-sized — each optionally closed by one shorter frame, and with up
/// to three runs of short frames in mid-stretch, which ride the train in
/// bundles. Up to ten stretches, so more trains are queued than one
/// landing call takes.
fn arb_trains() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let len = prop_oneof![Just(0), Just(1), Just(MTU), 2..MTU];
    let shorts = prop::collection::vec((0usize..16, 1usize..5), 0..4);
    let stretch = (len, 1usize..16, any::<bool>(), any::<u8>(), shorts);
    prop::collection::vec(stretch, 1..11).prop_map(|stretches| {
        let mut frames = Vec::new();
        for (len, count, tail, fill, shorts) in stretches {
            for i in 0..count {
                frames.push(vec![fill.wrapping_add(i as u8); len]);
                for &(_, k) in shorts.iter().filter(|&&(at, _)| at == i && len > 8) {
                    frames.extend(
                        (0..k).map(|j| vec![!fill ^ j as u8; 1 + (len / 3 + j) % (len / 2)]),
                    );
                }
            }
            if tail && len > 1 {
                frames.push(vec![!fill; len / 2]);
            }
        }
        frames
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Identical outcomes and byte-identical delivery across the
    /// per-frame reference and the `send_run_owned` + `flush` batch.
    #[test]
    fn mmsg_batch_roundtrip_matches_per_frame_path(frames in arb_frames()) {
        let (mut ref_tx, mut ref_rx) = fallback_pair();
        let (mut own_tx, mut own_rx) = default_pair();

        // Reference: one send_frame per frame on the fallback path.
        let mut out_ref = Vec::new();
        for f in &frames {
            out_ref.push(ref_tx.send_frame(f));
        }

        // Batch: send_run_owned takes accepted frames' storage, one
        // flush submits the burst (what StripeServer does per pump).
        let mut owned = frames.clone();
        let mut out_own = Vec::new();
        own_tx.send_run_owned(&mut owned, &mut out_own);
        prop_assert_eq!(own_tx.stats().sent_frames, 0, "owned sends defer");
        own_tx.flush();

        prop_assert_eq!(&out_own, &out_ref);
        // Rejected frames keep their storage on the owning path.
        for (f, r) in owned.iter().zip(&out_own) {
            if r.is_err() {
                prop_assert_eq!(f.len() > MTU, true);
            }
        }

        let expect: Vec<&Vec<u8>> = frames
            .iter()
            .zip(&out_ref)
            .filter(|(_, r)| r.is_ok())
            .map(|(f, _)| f)
            .collect();
        prop_assert_eq!(
            out_ref.iter().filter(|r| r.is_err()).all(|r| *r == Err(TxError::TooBig)),
            true,
            "at these volumes only oversized frames may fail"
        );

        // Byte-identical arrival on both receivers, through two
        // different receive paths.
        let got_ref = drain_per_frame(&mut ref_rx, expect.len());
        let got_own = drain_landed(&mut own_rx, expect.len());
        let expect_owned: Vec<Vec<u8>> = expect.iter().map(|f| (*f).clone()).collect();
        prop_assert_eq!(&got_ref, &expect_owned);
        prop_assert_eq!(&got_own, &expect_owned);

        // And nothing extra trails behind.
        std::thread::yield_now();
        let mut buf = [0u8; MTU];
        prop_assert_eq!(ref_rx.recv_frame(&mut buf).is_none(), true);
        prop_assert_eq!(own_rx.recv_frame(&mut buf).is_none(), true);
    }

    /// The landing call sees the stream `recv_frame` sees: the same
    /// frames sent to four receivers arrive byte-identical and in order
    /// through `recv_frame`, through `recv_trains` on a default and on a
    /// forced-fallback socket, and through a reader that switches
    /// between the two calls mid-train — and mid-bundle: what
    /// `recv_frame` left of a bundle is the first thing landed.
    #[test]
    fn landing_matches_recv_frame(
        frames in arb_trains(),
        switches in prop::collection::vec(1usize..9, 1..8),
    ) {
        let mut pairs = [default_pair(), default_pair(), fallback_pair(), default_pair()];
        for (tx, _) in pairs.iter_mut() {
            // Deferred, so the whole run goes down in as few submissions
            // (and as long trains) as the path allows.
            let mut owned = frames.clone();
            let mut out = Vec::new();
            tx.send_run_owned(&mut owned, &mut out);
            prop_assert_eq!(out.iter().all(|r| r.is_ok()), true);
            while tx.backlog() > 0 {
                tx.flush();
            }
        }
        let [(_, per_frame), (_, landed), (_, fallback), (_, mixed)] = &mut pairs;
        prop_assert_eq!(&drain_per_frame(per_frame, frames.len()), &frames);
        prop_assert_eq!(&drain_landed(landed, frames.len()), &frames);
        prop_assert_eq!(&drain_landed(fallback, frames.len()), &frames);

        // The mixed reader: a few single frames, one landing call, a few
        // single frames, ... — whatever `recv_frame` left staged must
        // come out of the landing call first.
        let deadline = Instant::now() + Duration::from_secs(5);
        let (mut got, mut room, mut buf) = (Vec::new(), Vec::new(), [0u8; MTU]);
        let mut singles = switches.iter().cycle();
        while got.len() < frames.len() && Instant::now() < deadline {
            for _ in 0..*singles.next().expect("non-empty cycle") {
                if let Some(n) = mixed.recv_frame(&mut buf) {
                    got.push(buf[..n].to_vec());
                }
            }
            match land_once(mixed, &mut room) {
                Some(more) => got.extend(more),
                None => std::thread::yield_now(),
            }
        }
        prop_assert_eq!(&got, &frames);
    }
}

/// Syscall accounting sanity outside proptest: on an mmsg-capable build
/// the batch path uses strictly fewer syscalls than frames sent.
#[test]
fn batched_path_actually_batches_when_compiled() {
    let (mut tx, mut rx) = default_pair();
    let mut frames: Vec<Vec<u8>> = (0..24u8).map(|i| vec![i; 64]).collect();
    let mut out = Vec::new();
    tx.send_run_owned(&mut frames, &mut out);
    assert!(out.iter().all(|r| r.is_ok()));
    assert_eq!(tx.flush(), 24);
    let s = tx.stats();
    assert_eq!(s.sent_frames, 24);
    if tx.batched_syscalls() {
        assert!(
            s.send_syscalls < 24,
            "sendmmsg must amortize: {} syscalls for 24 frames",
            s.send_syscalls
        );
    } else {
        assert_eq!(s.send_syscalls, 24, "fallback is per-frame");
    }
    let got = drain_landed(&mut rx, 24);
    assert_eq!(got.len(), 24);
}

/// A seeded run for the deferred queue: stretches of equal-length frames
/// (so that there are trains to plan), each stretch short — at most
/// [`ARENA_FRAME_MAX`], the frames the queue copies into its arena — or
/// long with equal odds, every frame stamped with its index.
fn seeded_mix(seed: u64, frames: usize) -> Vec<Vec<u8>> {
    let mut rng = DetRng::new(seed);
    let mut run = Vec::new();
    while run.len() < frames {
        let len = if rng.chance(0.5) {
            rng.range_usize(2, ARENA_FRAME_MAX + 1)
        } else {
            rng.range_usize(ARENA_FRAME_MAX + 1, MTU + 1)
        };
        for _ in 0..rng.range_usize(1, 12).min(frames - run.len()) {
            let mut f = vec![seed as u8; len];
            f[..2].copy_from_slice(&(run.len() as u16).to_be_bytes());
            run.push(f);
        }
    }
    run
}

/// What one side of a queue differential saw.
#[derive(Debug, PartialEq)]
struct Seen {
    outcomes: Vec<Result<(), TxError>>,
    delivered: Vec<Vec<u8>>,
    /// `sent_frames`, `sent_bytes`, `dropped_queue`, `dropped_error`,
    /// `mtu_clamps`.
    counters: [u64; 5],
}

/// Offer `run` to `tx` the deferred way, flush until the queue is empty
/// (reading `rx` as it goes, so a socket buffer cannot stay full), and
/// report what happened at both ends.
fn offer_and_drain(tx: &mut UdpChannel, rx: &mut UdpChannel, run: &[Vec<u8>]) -> Seen {
    let mut owned = run.to_vec();
    let mut outcomes = Vec::new();
    let sent_before = tx.stats().sent_frames;
    tx.send_run_owned(&mut owned, &mut outcomes);
    for (kept, (sent, r)) in owned.iter().zip(run.iter().zip(&outcomes)) {
        if r.is_err() {
            assert_eq!(kept, sent, "a refused frame is left untouched");
        }
    }
    let mut delivered = Vec::new();
    let mut room = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    while tx.backlog() > 0 && Instant::now() < deadline {
        tx.flush();
        delivered.extend(land_once(rx, &mut room).into_iter().flatten());
    }
    assert_eq!(tx.backlog(), 0, "the queue drains");
    let s = tx.stats();
    let counters = [
        s.sent_frames,
        s.sent_bytes,
        s.dropped_queue,
        s.dropped_error,
        s.mtu_clamps,
    ];
    let sent = (s.sent_frames - sent_before) as usize;
    delivered.extend(drain_landed(rx, sent.saturating_sub(delivered.len())));
    Seen {
        outcomes,
        delivered,
        counters,
    }
}

/// Run `scenario` on a batched and on a forced-fallback pair built by
/// `builder`, check that the two saw the same, that the per-frame path
/// counted a train and an iovec a frame, that the batched one spent no
/// more pieces than its frames and their bundles' headers and padding
/// (a bundle rides a train behind its first frame, so there are at most
/// `frames - trains` of them), and hand back what they saw with the
/// batched sender.
fn queue_differential(
    builder: &UdpChannelBuilder,
    scenario: impl Fn(&mut UdpChannel, &mut UdpChannel) -> Seen,
) -> (Seen, UdpChannel) {
    let (mut tx, mut rx) = builder.pair().expect("loopback pair");
    let (mut ref_tx, mut ref_rx) = builder
        .clone()
        .force_fallback(true)
        .pair()
        .expect("loopback pair");
    let seen = scenario(&mut tx, &mut rx);
    let reference = scenario(&mut ref_tx, &mut ref_rx);
    assert_eq!(seen, reference, "batched (left) against per-frame (right)");
    let (s, r) = (tx.stats(), ref_tx.stats());
    assert_eq!(
        (r.sent_trains, r.sent_iovecs),
        (r.sent_frames, r.sent_frames)
    );
    assert!(s.sent_trains <= s.sent_frames && s.sent_trains <= s.sent_iovecs);
    assert!(s.sent_iovecs <= s.sent_frames + 2 * (s.sent_frames - s.sent_trains));
    (seen, tx)
}

fn queue_builder(mtu: usize, queue_cap: usize) -> UdpChannelBuilder {
    UdpChannel::builder(mtu).queue_cap(queue_cap).rcvbuf(RCVBUF)
}

/// Short and long entries leave in the order they were queued, as the
/// trains the same frames would plan as from storage of their own — the
/// parent commit's queue — and in fewer iovecs.
#[test]
fn queue_keeps_fifo_across_short_and_long_entries() {
    for seed in 0..24 {
        let run = seeded_mix(seed, 200);
        let (seen, tx) = queue_differential(&queue_builder(MTU, QUEUE), |tx, rx| {
            offer_and_drain(tx, rx, &run)
        });
        assert!(seen.outcomes.iter().all(|r| r.is_ok()), "seed {seed}");
        assert_eq!(seen.delivered, run, "seed {seed}");
        let s = tx.stats();
        if tx.batched_syscalls() {
            // The planner cuts trains by length alone, so where the
            // bytes lie changes the iovecs and nothing else: from
            // storage of their own, a frame is a piece, and so is each
            // bundle's header and padding — as the planner, run without
            // a socket, says.
            let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
            let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
            sock.connect(sink.local_addr().unwrap()).unwrap();
            let mut io = BatchIo::new(32, false);
            let plan = io.send_frames(&sock, &run);
            let (mut messages, mut pieces) = (0, 0);
            let ceiling = if io.gso_active() { 128 } else { 1 };
            let frames: Vec<&[u8]> = run.iter().map(|f| &f[..]).collect();
            SendPlanner::new(32, ceiling).each_message(&frames, |m| {
                (messages, pieces) = (messages + 1, pieces + m.pieces.len() as u64);
            });
            assert_eq!(
                (plan.sent, plan.messages, plan.iovecs),
                (run.len(), messages, pieces),
                "seed {seed}"
            );
            assert_eq!(s.sent_trains, plan.messages, "seed {seed}");
            if tx.gso_offload() {
                assert!(s.sent_iovecs < plan.iovecs, "seed {seed}: {s:?}");
            }
        }
    }
}

/// A seeded burst shaped as a server regroups one channel's share of
/// `mixed_8flows`: long frames, the short frames a flow had to keep
/// behind them in runs of one to four, a marker here and there. On the
/// batched path the short runs ride the long train in bundles — one
/// train per flush instead of one per run — and the two paths still see
/// the same outcomes, datagrams and counters.
#[test]
fn regrouped_mix_rides_one_train_per_flush() {
    for seed in 0..16 {
        let mut rng = DetRng::new(900 + seed);
        let mut run = Vec::new();
        while run.len() < 120 {
            run.push(vec![seed as u8; 420]);
            if rng.chance(0.4) {
                for _ in 0..rng.range_usize(1, 5) {
                    run.push(vec![!(seed as u8); rng.range_usize(40, 90)]);
                }
            }
        }
        for (i, f) in run.iter_mut().enumerate() {
            f[..2].copy_from_slice(&(i as u16).to_be_bytes());
        }
        let (seen, tx) = queue_differential(&queue_builder(MTU, QUEUE), |tx, rx| {
            offer_and_drain(tx, rx, &run)
        });
        assert_eq!(seen.delivered, run, "seed {seed}");
        let s = tx.stats();
        if tx.gso_offload() {
            assert_eq!(s.sent_trains, 1, "seed {seed}: {s:?}");
        }
    }
}

/// A bundling sender and a per-frame receiver, and the other way round:
/// the fallback receiver gets each of a train's segments as a datagram
/// and opens the bundles among them, through `recv_frame` and through
/// the landing call alike; a bundle of one — a frame that starts with
/// the magic — crosses from a per-frame sender too.
#[test]
fn mixed_paths_carry_bundles_both_ways() {
    for seed in 0..8 {
        let mut run = seeded_mix(1000 + seed, 150);
        for (i, f) in run.iter_mut().enumerate() {
            if i % 7 == 3 {
                f.truncate(f.len() / 3);
            }
            if i % 31 == 5 && !f.is_empty() {
                f[0] = bundle::MAGIC;
            }
        }
        for fallback_tx in [false, true] {
            for per_frame in [false, true] {
                let (mut tx, mut rx) = mixed_pair(fallback_tx);
                let mut owned = run.clone();
                let mut out = Vec::new();
                tx.send_run_owned(&mut owned, &mut out);
                assert!(out.iter().all(|r| r.is_ok()));
                while tx.backlog() > 0 {
                    tx.flush();
                }
                let got = if per_frame {
                    drain_per_frame(&mut rx, run.len())
                } else {
                    drain_landed(&mut rx, run.len())
                };
                assert_eq!(got, run, "seed {seed}, fallback sender {fallback_tx}");
                assert_eq!(rx.stats().recv_frames, run.len() as u64);
            }
        }
    }
}

/// A run of nothing but short frames of one length is one train and one
/// iovec a flush, however many frames it is.
#[test]
fn queue_hands_a_short_train_over_as_one_iovec() {
    let run: Vec<Vec<u8>> = (0..48u8).map(|i| vec![i; 70]).collect();
    let (seen, tx) = queue_differential(&queue_builder(MTU, QUEUE), |tx, rx| {
        offer_and_drain(tx, rx, &run)
    });
    assert_eq!(seen.delivered, run);
    let s = tx.stats();
    if tx.gso_offload() {
        assert_eq!((s.sent_trains, s.sent_iovecs), (1, 1), "{s:?}");
    } else {
        assert_eq!((s.sent_trains, s.sent_iovecs), (48, 48), "{s:?}");
    }
}

/// `queue_cap` counts frames of both kinds alike: what does not fit is
/// refused `QueueFull` and left untouched, what fits arrives in order.
#[test]
fn queue_overflow_refuses_the_same_frames() {
    for seed in 0..8 {
        let run = seeded_mix(100 + seed, 120);
        let (seen, _) = queue_differential(&queue_builder(MTU, 50), |tx, rx| {
            offer_and_drain(tx, rx, &run)
        });
        assert!(seen.outcomes[..50].iter().all(|r| r.is_ok()));
        assert!(seen.outcomes[50..]
            .iter()
            .all(|r| *r == Err(TxError::QueueFull)));
        assert_eq!(seen.delivered, run[..50]);
        assert_eq!(seen.counters[2], 70, "dropped_queue");
    }
}

/// An oversized frame in the middle of a run is refused `TooBig` and
/// takes no queue slot; its neighbours are unaffected.
#[test]
fn queue_skips_an_oversized_frame_mid_run() {
    for seed in 0..8 {
        let mut run = seeded_mix(200 + seed, 90);
        run.insert(40, vec![0xee; MTU + 1]);
        run.insert(41, vec![0xef; 3 * MTU]);
        let (seen, _) = queue_differential(&queue_builder(MTU, QUEUE), |tx, rx| {
            offer_and_drain(tx, rx, &run)
        });
        let mut want = run.clone();
        want.drain(40..42);
        assert_eq!(seen.outcomes[40..42], [Err(TxError::TooBig); 2]);
        assert_eq!(seen.outcomes.iter().filter(|r| r.is_ok()).count(), 90);
        assert_eq!(seen.delivered, want);
    }
}

/// A send buffer a fraction of the burst: whatever the kernel makes of
/// it — partial `sendmmsg`s on a path that pushes back, nothing at all on
/// loopback, where a datagram leaves the send buffer as it is queued —
/// flushes resume where the last one stopped, arena offsets intact.
#[test]
fn queue_survives_a_tiny_send_buffer() {
    for seed in 0..8 {
        let run = seeded_mix(300 + seed, 400);
        let builder = queue_builder(MTU, QUEUE).sndbuf(1);
        let (seen, _) = queue_differential(&builder, |tx, rx| offer_and_drain(tx, rx, &run));
        assert!(seen.outcomes.iter().all(|r| r.is_ok()));
        assert_eq!(seen.delivered, run, "seed {seed}");
    }
}

/// A frame the kernel answers `EMSGSIZE` in the middle of the queue: on
/// the batched path the `sendmmsg` that meets it comes back partial —
/// the frames ahead of it sent, everything from it on still queued, and
/// the short ones among those still where the arena has them. The next
/// flush drops it at the head, clamps the MTU, and the frames behind it
/// leave in order.
#[test]
fn queue_resumes_after_a_partial_sendmmsg() {
    // No UDP datagram holds 66 000 bytes; a channel that believes its
    // MTU is 70 000 queues one all the same.
    const HUGE: usize = 66_000;
    for seed in 0..8 {
        let mut run = seeded_mix(400 + seed, 120);
        run.insert(60, vec![0xdd; HUGE]);
        let (seen, tx) = queue_differential(&queue_builder(70_000, QUEUE), |tx, rx| {
            let first = tx.stats().send_syscalls;
            let seen = offer_and_drain(tx, rx, &run);
            if tx.batched_syscalls() {
                assert!(
                    tx.stats().send_syscalls - first > 1,
                    "one flush was cut short"
                );
            }
            seen
        });
        if seen.counters[4] == 0 {
            return; // this kernel took it: nothing to compare
        }
        let mut want = run.clone();
        want.remove(60);
        assert!(
            seen.outcomes.iter().all(|r| r.is_ok()),
            "refused by the kernel, not the queue"
        );
        assert_eq!(seen.delivered, want, "seed {seed}");
        assert_eq!(seen.counters[3..], [1, 1], "dropped_error, mtu_clamps");
        assert!(tx.mtu() < HUGE && !tx.link_dead());
    }
}

/// A socket that dies with both kinds of entry queued drops them all,
/// counted, refuses what is offered while dead, and after `revive` the
/// queue and its arena start over.
#[test]
fn queue_drains_on_socket_death_and_starts_over() {
    for seed in 0..8 {
        let (before, lost, after) = (
            seeded_mix(500 + seed, 60),
            seeded_mix(600 + seed, 60),
            seeded_mix(700 + seed, 60),
        );
        let (seen, _) = queue_differential(&queue_builder(MTU, QUEUE), |tx, rx| {
            let mut seen = offer_and_drain(tx, rx, &before);
            let mut parked = lost.clone();
            tx.send_run_owned(&mut parked, &mut seen.outcomes);
            assert_eq!(tx.backlog(), 60);
            tx.inject_socket_death();
            assert_eq!(tx.backlog(), 0);
            let mut refused = after.clone();
            tx.send_run_owned(&mut refused, &mut seen.outcomes);
            assert_eq!(refused, after, "a dead link takes nothing");
            assert!(tx.revive(), "loopback rebind");
            let again = offer_and_drain(tx, rx, &after);
            seen.outcomes.extend(again.outcomes);
            seen.delivered.extend(again.delivered);
            seen.counters = again.counters;
            seen
        });
        assert!(seen.outcomes[..120].iter().all(|r| r.is_ok()));
        assert!(seen.outcomes[120..180]
            .iter()
            .all(|r| *r == Err(TxError::LinkDown)));
        assert!(seen.outcomes[180..].iter().all(|r| r.is_ok()));
        assert_eq!(seen.delivered, [before.clone(), after.clone()].concat());
        assert_eq!(seen.counters[3], 60, "dropped_error");
    }
}
