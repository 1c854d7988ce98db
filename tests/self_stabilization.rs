//! Self-stabilization: from *any* corrupted receiver state, the
//! detector + reset pipeline restores FIFO delivery — the §5 closing
//! claim ("robust against any error in the state by periodically running
//! a snapshot and then doing a reset; we deal with sender or receiver
//! node crashes by doing a reset").

use proptest::prelude::*;
use stripe::core::control::Control;
use stripe::core::handshake::{ControlResponder, Effect, EpochSender, Progress};
use stripe::core::receiver::{Arrival, LogicalReceiver};
use stripe::core::reset::DesyncDetector;
use stripe::core::sched::{CausalScheduler, Srr};
use stripe::core::sender::{MarkerConfig, StripingSender};
use stripe::core::types::TestPacket;
use stripe::netsim::DetRng;

const N: usize = 3;

/// A full closed loop: data flows; at a chosen point the receiver's state
/// is corrupted in a way markers *cannot* heal — its scheduler quanta are
/// silently replaced, so its simulation of the sender diverges afresh
/// every round no matter how many markers arrive (markers pin the DC at
/// one instant; wrong quanta rebuild the divergence immediately). The
/// detector notices sustained disorder and triggers the reset handshake
/// (whose control messages themselves suffer loss); both ends
/// reinitialize; delivery returns to exact FIFO.
fn run_with_corruption(corrupt_at: u64, control_loss: f64, seed: u64) {
    let quanta = vec![1500i64; N];
    let mut tx = StripingSender::new(Srr::weighted(&quanta), MarkerConfig::every_rounds(4));
    let mut rx = LogicalReceiver::new(Srr::weighted(&quanta), 1 << 14);
    let mut detector = DesyncDetector::new(64, 0.35, 3);
    let mut reset_tx = EpochSender::new(N);
    let mut reset_rx = ControlResponder::new(1);
    let mut rng = DetRng::new(seed);

    let mut delivered: Vec<u64> = Vec::new();
    let mut resets = 0u64;
    let mut flushes = 0u64;
    // Offset of the first delivery after the last completed reset.
    let mut clean_from = 0usize;

    let total = 6000u64;
    let mut id = 0u64;
    while id < total {
        // A reset handshake pauses data (the §5 protocol).
        if reset_tx.in_progress() {
            // Control messages may be lost; retransmit until complete.
            let request = reset_tx.announcement().expect("in flight").clone();
            for c in reset_tx.awaiting_channels().collect::<Vec<_>>() {
                if rng.chance(control_loss) {
                    continue; // request lost
                }
                let (effect, ack) = reset_rx.on_control(&request, N);
                // Receiver reinitializes exactly once per epoch.
                if effect == Effect::Flush {
                    flushes += 1;
                    assert_eq!(flushes, resets + 1, "flushed twice in one epoch");
                    rx.reset();
                    detector.acknowledge_reset();
                }
                if rng.chance(control_loss) {
                    continue; // ack lost; retransmit will retry
                }
                let Some(Control::ResetAck { epoch }) = ack else {
                    panic!("unexpected ack {ack:?}")
                };
                if reset_tx.on_ack(c, epoch) == Progress::Complete {
                    resets += 1;
                    tx.reset();
                    clean_from = delivered.len();
                }
            }
            continue;
        }

        let len = 100 + (id as usize * 131) % 1300;
        let d = tx.send(len);
        rx.push(d.channel, Arrival::Data(TestPacket::new(id, len)));
        for (c, mk) in d.markers {
            rx.push(c, Arrival::Marker(mk));
        }

        // The fault: at `corrupt_at`, the receiver's scheduler quanta are
        // silently corrupted (a memory error in the config, in fault-model
        // terms). Markers cannot repair this — only a reset can.
        if id == corrupt_at {
            let round = rx.scheduler().round() + 1;
            // Severely wrong quanta (alternating far-low / far-high), so
            // the corruption is unambiguous — a near-miss draw would be a
            // mild fault the detector rightly tolerates.
            let garbage: Vec<i64> = (0..N)
                .map(|i| {
                    if i % 2 == 0 {
                        200 + rng.range_u64(0, 100) as i64
                    } else {
                        4000 + rng.range_u64(0, 1000) as i64
                    }
                })
                .collect();
            rx.schedule_quanta(round, &garbage);
        }

        while let Some(p) = rx.poll() {
            let backlog = rx.buffered_total() as u64;
            if detector.observe(p.id, backlog) && !reset_tx.in_progress() {
                reset_tx
                    .begin_reset(&[true; N])
                    .expect("all channels carry");
            }
            delivered.push(p.id);
        }
        id += 1;
    }
    // Drain with end-of-stream markers.
    for (c, mk) in tx.make_markers() {
        rx.push(c, Arrival::Marker(mk));
    }
    while let Some(p) = rx.poll() {
        delivered.push(p.id);
    }

    assert!(resets >= 1, "corruption must have triggered a reset");
    // The post-reset suffix must be strictly FIFO: the receiver was
    // rebuilt from s0, the sender restarted its scheduler, so logical
    // reception is exact again.
    let tail = &delivered[clean_from..];
    assert!(
        tail.len() > 500,
        "too little delivered after reset: {}",
        tail.len()
    );
    for w in tail.windows(2) {
        assert!(w[0] < w[1], "post-reset inversion {w:?}");
    }
}

#[test]
fn recovers_from_forged_marker_state() {
    run_with_corruption(1000, 0.0, 7);
}

#[test]
fn recovers_with_lossy_control_channel() {
    // Even the reset handshake itself runs over lossy channels.
    run_with_corruption(1500, 0.3, 21);
}

#[test]
fn recovers_regardless_of_when_corruption_strikes() {
    for (at, seed) in [(100u64, 1u64), (2500, 2), (4000, 3)] {
        run_with_corruption(at, 0.1, seed);
    }
}

/// The detector alone must not fire on healthy traffic with ordinary loss
/// (markers handle that); resets are for *state* errors.
#[test]
fn no_spurious_resets_under_ordinary_loss() {
    let quanta = vec![1500i64; N];
    let mut tx = StripingSender::new(Srr::weighted(&quanta), MarkerConfig::every_rounds(4));
    let mut rx = LogicalReceiver::new(Srr::weighted(&quanta), 1 << 14);
    let mut detector = DesyncDetector::new(64, 0.35, 3);
    let mut rng = DetRng::new(5);
    let mut trips = 0;
    for id in 0..6000u64 {
        let len = 100 + (id as usize * 131) % 1300;
        let d = tx.send(len);
        if !rng.chance(0.03) {
            rx.push(d.channel, Arrival::Data(TestPacket::new(id, len)));
        }
        for (c, mk) in d.markers {
            rx.push(c, Arrival::Marker(mk));
        }
        while let Some(p) = rx.poll() {
            let backlog = rx.buffered_total() as u64;
            if detector.observe(p.id, backlog) {
                trips += 1;
            }
        }
    }
    assert_eq!(
        trips, 0,
        "3% loss with markers every 4 rounds must not look like corruption"
    );
}

/// Feed one full window with exactly `ooo` out-of-order deliveries (the
/// rest in-order above the running max), returning whether the detector
/// tripped at the window boundary. `hi` carries the in-order id counter
/// across windows.
fn feed_window(det: &mut DesyncDetector, window: u32, ooo: u32, hi: &mut u64) -> bool {
    let mut tripped = false;
    for i in 0..window {
        let fired = if i < ooo {
            det.on_delivery(0)
        } else {
            *hi += 1;
            det.on_delivery(*hi)
        };
        if fired {
            assert_eq!(i, window - 1, "detector fired off a window boundary");
            tripped = true;
        }
    }
    tripped
}

proptest! {
    /// The OOO trip condition is *strictly greater than* the threshold,
    /// evaluated per window, with `patience` consecutive bad windows
    /// required. Pin the threshold between two adjacent representable
    /// fractions — `(bad - 1)/window < threshold < bad/window` — so the
    /// boundary is exact regardless of float rounding, and check every
    /// edge: at-threshold windows never trip, above-threshold windows
    /// trip exactly at the `patience`-th boundary, and a single clean
    /// window resets the consecutive count.
    #[test]
    fn desync_ooo_threshold_boundary(
        window in 4u32..=64,
        patience in 1u32..=4,
        bad_frac in 1u32..=10,
    ) {
        // `bad` OOO per window is the smallest tripping count.
        let bad = (window * bad_frac).div_ceil(10).max(1);
        let threshold = (bad as f64 - 0.5) / window as f64;
        prop_assume!(threshold > 0.0 && threshold < 1.0);
        let mut det = DesyncDetector::new(window, threshold, patience);
        let mut hi = 1_000_000u64;

        // Prime the running max so later `0` ids count out-of-order.
        prop_assert!(!feed_window(&mut det, window, 0, &mut hi));

        // Exactly at the boundary from below: frac == (bad-1)/window <
        // threshold, never bad, never trips — for any number of windows.
        for _ in 0..patience + 2 {
            prop_assert!(!feed_window(&mut det, window, bad - 1, &mut hi));
        }
        prop_assert_eq!(det.trips(), 0);

        // One OOO more per window crosses the strict boundary: silent
        // for `patience - 1` windows, tripping exactly at the next.
        for _ in 0..patience - 1 {
            prop_assert!(!feed_window(&mut det, window, bad, &mut hi));
        }
        prop_assert!(feed_window(&mut det, window, bad, &mut hi));
        prop_assert_eq!(det.trips(), 1);

        // Patience is *consecutive*: one clean window between two
        // almost-complete bad streaks keeps the detector quiet…
        for _ in 0..patience - 1 {
            prop_assert!(!feed_window(&mut det, window, bad, &mut hi));
        }
        prop_assert!(!feed_window(&mut det, window, bad - 1, &mut hi));
        for _ in 0..patience - 1 {
            prop_assert!(!feed_window(&mut det, window, bad, &mut hi));
        }
        prop_assert_eq!(det.trips(), 1);
        // …and completing the streak trips again.
        prop_assert!(feed_window(&mut det, window, bad, &mut hi));
        prop_assert_eq!(det.trips(), 2);
    }

    /// The backlog-growth trip condition is *strictly greater than*
    /// `prev_low + window/4`, with the same consecutive-`patience`
    /// gating: a backlog climbing by exactly `window/4` per window never
    /// trips, one byte more per window trips at the `patience`-th
    /// boundary, and `acknowledge_reset` clears the streak.
    #[test]
    fn desync_backlog_growth_boundary(
        window in 4u32..=64,
        patience in 1u32..=4,
    ) {
        let step = (window / 4) as u64;
        // The threshold is irrelevant here (all deliveries in-order);
        // any valid value do.
        let mut det = DesyncDetector::new(window, 0.5, patience);
        let mut hi = 0u64;
        let mut feed = |det: &mut DesyncDetector, backlog: u64| -> bool {
            let mut tripped = false;
            for _ in 0..window {
                hi += 1;
                if det.observe(hi, backlog) {
                    tripped = true;
                }
            }
            tripped
        };

        // Rising by exactly `window/4` per window: at the boundary, not
        // over it. Never trips.
        let mut backlog = 0u64;
        prop_assert!(!feed(&mut det, backlog)); // baseline window
        for _ in 0..patience + 2 {
            backlog += step;
            prop_assert!(!feed(&mut det, backlog));
        }
        prop_assert_eq!(det.trips(), 0);

        // One over the boundary per window: trips exactly at the
        // `patience`-th consecutive growth window.
        for _ in 0..patience - 1 {
            backlog += step + 1;
            prop_assert!(!feed(&mut det, backlog));
        }
        backlog += step + 1;
        prop_assert!(feed(&mut det, backlog));
        prop_assert_eq!(det.trips(), 1);

        // After the protocol reset the detector is told to forget: the
        // first window only re-establishes the baseline, then the same
        // growth pattern must again need a full `patience` streak.
        det.acknowledge_reset();
        backlog += step + 1;
        prop_assert!(!feed(&mut det, backlog)); // baseline, not growth
        for _ in 0..patience - 1 {
            backlog += step + 1;
            prop_assert!(!feed(&mut det, backlog));
        }
        prop_assert_eq!(det.trips(), 1);
        backlog += step + 1;
        prop_assert!(feed(&mut det, backlog));
        prop_assert_eq!(det.trips(), 2);
    }
}
