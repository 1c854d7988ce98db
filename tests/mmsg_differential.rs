//! Differential proptests for the syscall-batched datapath: a
//! `send_run`/`send_run_owned`/`recv_run` mmsg round-trip must deliver
//! byte-identical frames with identical `TxError` outcomes compared to
//! the per-frame `send_frame`/`recv_frame` path.
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
//! Their receivers drain through `recv_frame`, batched `recv_run`, and
//! forced-fallback `recv_run` respectively, so both directions of both
//! syscall variants are compared every case. Running the whole suite
//! with `STRIPE_NET_FALLBACK=1` (the CI portable-path job) re-executes
//! these tests with every "default" channel on the per-frame fallback,
//! which keeps the portable path equivalent too.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use stripe::link::{DatagramLink, TxError};
use stripe::net::UdpChannel;

const MTU: usize = 512;
const QUEUE: usize = 1 << 10;

/// Frame runs mixing normal, empty, and oversized (> MTU) payloads.
fn arb_frames() -> impl Strategy<Value = Vec<Vec<u8>>> {
    // Lengths up to MTU + 64: roughly one frame in ten is oversized and
    // must come back TooBig on every path.
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..(MTU + 64)), 1..48)
}

fn fallback_pair() -> (UdpChannel, UdpChannel) {
    UdpChannel::builder(MTU)
        .queue_cap(QUEUE)
        .force_fallback(true)
        .pair()
        .expect("loopback pair")
}

fn default_pair() -> (UdpChannel, UdpChannel) {
    UdpChannel::builder(MTU)
        .queue_cap(QUEUE)
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

/// Drain `rx` through batched `recv_run` until `expect` frames arrived
/// or the deadline passes.
fn drain_batched(rx: &mut UdpChannel, expect: usize) -> Vec<Vec<u8>> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut bufs: Vec<Vec<u8>> = (0..16).map(|_| vec![0u8; MTU]).collect();
    let mut lens = [0usize; 16];
    let mut got = Vec::new();
    while got.len() < expect && Instant::now() < deadline {
        let k = rx.recv_run(&mut bufs, &mut lens);
        if k == 0 {
            std::thread::yield_now();
            continue;
        }
        for i in 0..k {
            got.push(bufs[i][..lens[i]].to_vec());
        }
    }
    got
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
        let got_run = drain_batched(&mut run_rx, expect.len());
        let got_own = drain_batched(&mut own_rx, expect.len());
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

    /// The batched and fallback receive paths see the same stream: one
    /// sender copied to two receivers (one per path) delivers identical
    /// sequences.
    #[test]
    fn recv_run_matches_recv_frame(frames in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..MTU), 1..32))
    {
        let (mut tx_a, mut rx_batched) = default_pair();
        let (mut tx_b, mut rx_fallback) = fallback_pair();
        let mut out = Vec::new();
        tx_a.send_run(&frames, &mut out);
        prop_assert_eq!(out.iter().all(|r| r.is_ok()), true);
        out.clear();
        tx_b.send_run(&frames, &mut out);
        prop_assert_eq!(out.iter().all(|r| r.is_ok()), true);

        let got_batched = drain_batched(&mut rx_batched, frames.len());
        let got_fallback = drain_batched(&mut rx_fallback, frames.len());
        prop_assert_eq!(&got_batched, &frames);
        prop_assert_eq!(&got_fallback, &frames);
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
    let got = drain_batched(&mut rx, 24);
    assert_eq!(got.len(), 24);
}
