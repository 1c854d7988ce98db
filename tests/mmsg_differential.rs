//! Differential proptests for the syscall-batched datapath: a
//! `send_run`/`send_run_owned`/`recv_trains` mmsg round-trip must
//! deliver byte-identical frames with identical `TxError` outcomes
//! compared to the per-frame `send_frame`/`recv_frame` path.
//!
//! Three senders transmit the same generated run over real loopback
//! sockets:
//!
//! - **reference** — a forced-fallback channel driven one `send_frame`
//!   at a time (one syscall per frame, the PR-3 behavior);
//! - **eager batch** — a default channel driven through `send_run`
//!   (`sendmmsg` batches where compiled, fallback otherwise);
//! - **deferred batch** — a default channel driven through
//!   `send_run_owned` + `flush`, the zero-copy path the striping sender
//!   uses per burst.
//!
//! Their receivers drain through `recv_frame`, the train-landing
//! `recv_trains`, and `recv_trains` again respectively, so both
//! directions of both syscall variants are compared every case; a second
//! property pits the landing call against `recv_frame` over runs shaped
//! to coalesce, on batched and forced-fallback sockets and with the two
//! calls interleaved on one socket. Running the whole suite
//! with `STRIPE_NET_FALLBACK=1` (the CI portable-path job) re-executes
//! these tests with every "default" channel on the per-frame fallback,
//! which keeps the portable path equivalent too.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use stripe::link::{DatagramLink, Train, TxError};
use stripe::net::UdpChannel;

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

/// One landing call on `rx`, its frames copied out in order; `None` when
/// nothing was ready.
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
        .flat_map(|(w, t)| t.frames().map(move |(at, n)| w[at..at + n].to_vec()))
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
/// MTU-sized — each optionally closed by one shorter frame. Up to ten
/// stretches, so more trains are queued than one landing call takes.
fn arb_trains() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let len = prop_oneof![Just(0), Just(1), Just(MTU), 2..MTU];
    let stretch = (len, 1usize..16, any::<bool>(), any::<u8>());
    prop::collection::vec(stretch, 1..11).prop_map(|stretches| {
        let mut frames = Vec::new();
        for (len, count, tail, fill) in stretches {
            for i in 0..count {
                frames.push(vec![fill.wrapping_add(i as u8); len]);
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
    /// per-frame reference, the eager `send_run` batch, and the
    /// deferred `send_run_owned` + `flush` batch.
    #[test]
    fn mmsg_batch_roundtrip_matches_per_frame_path(frames in arb_frames()) {
        let (mut ref_tx, mut ref_rx) = fallback_pair();
        let (mut run_tx, mut run_rx) = default_pair();
        let (mut own_tx, mut own_rx) = default_pair();

        // Reference: one send_frame per frame on the fallback path.
        let mut out_ref = Vec::new();
        for f in &frames {
            out_ref.push(ref_tx.send_frame(f));
        }

        // Eager batch: the whole run in one send_run call.
        let mut out_run = Vec::new();
        run_tx.send_run(&frames, &mut out_run);

        // Deferred batch: send_run_owned takes accepted frames' storage,
        // one flush submits the burst (what StripeServer does per pump).
        let mut owned = frames.clone();
        let mut out_own = Vec::new();
        own_tx.send_run_owned(&mut owned, &mut out_own);
        prop_assert_eq!(own_tx.stats().sent_frames, 0, "owned sends defer");
        own_tx.flush();

        prop_assert_eq!(&out_run, &out_ref);
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

        // Byte-identical arrival on all three receivers, through three
        // different receive paths.
        let got_ref = drain_per_frame(&mut ref_rx, expect.len());
        let got_run = drain_landed(&mut run_rx, expect.len());
        let got_own = drain_landed(&mut own_rx, expect.len());
        let expect_owned: Vec<Vec<u8>> = expect.iter().map(|f| (*f).clone()).collect();
        prop_assert_eq!(&got_ref, &expect_owned);
        prop_assert_eq!(&got_run, &expect_owned);
        prop_assert_eq!(&got_own, &expect_owned);

        // And nothing extra trails behind.
        std::thread::yield_now();
        let mut buf = [0u8; MTU];
        prop_assert_eq!(ref_rx.recv_frame(&mut buf).is_none(), true);
        prop_assert_eq!(run_rx.recv_frame(&mut buf).is_none(), true);
        prop_assert_eq!(own_rx.recv_frame(&mut buf).is_none(), true);
    }

    /// The landing call sees the stream `recv_frame` sees: the same
    /// frames sent to four receivers arrive byte-identical and in order
    /// through `recv_frame`, through `recv_trains` on a default and on a
    /// forced-fallback socket, and through a reader that switches
    /// between the two calls mid-train.
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
/// the eager batch path uses strictly fewer syscalls than frames sent.
#[test]
fn batched_path_actually_batches_when_compiled() {
    let (mut tx, mut rx) = default_pair();
    let frames: Vec<Vec<u8>> = (0..24u8).map(|i| vec![i; 64]).collect();
    let mut out = Vec::new();
    tx.send_run(&frames, &mut out);
    assert!(out.iter().all(|r| r.is_ok()));
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
