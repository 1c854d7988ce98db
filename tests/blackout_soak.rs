//! The blackout soak: the two §5 fault scenarios the failover driver
//! must survive on the real-socket datapath, for several seeds, each
//! alone and then chained in one process, with [`FLOWS`] flows riding
//! through.
//!
//! **Scenario A — total blackout.** Every channel goes dark at once
//! behind a scripted partition ([`ImpairedLink::partition_now`],
//! control included). The silence deadline declares each channel dead;
//! when the last one falls the driver *parks* the path instead of
//! panicking: enqueues are refused with backpressure, pumps serve
//! nothing, the schedulers freeze on their last live mask, and probes
//! keep flowing on cooldown. Healing the partition lets the first probe
//! ack regrow membership from empty through the ordinary epoch'd
//! handshake, back to full capacity — with set-exact, quasi-FIFO
//! Theorem 5.1 tails measured from a post-resume mark.
//!
//! **Scenario B — endpoint restart.** The receiver process "restarts"
//! in place: torn down mid-run ([`FlowDemux::into_links`]) and
//! rebuilt over the same sockets with a fresh incarnation. The next
//! probe ack carries the new incarnation, the driver detects the
//! restart and drives the §5 two-phase reset over the wire — flood
//! `ResetRequest`, receiver flushes and acks, acks gate resume — then
//! flushes its own engines and re-teaches membership. The post-reset
//! tails must again be set-exact and quasi-FIFO under the new epoch.
//!
//! Every run asserts zero corrupted, duplicate and cross-flow
//! deliveries, park/blackout/reset telemetry in [`ReactorSnapshot`],
//! and that the run never panics.
//!
//! [`ImpairedLink::partition_now`]: stripe::net::ImpairedLink::partition_now
//! [`FlowDemux::into_links`]: stripe::net::FlowDemux::into_links
//! [`ReactorSnapshot`]: stripe::net::ReactorSnapshot

mod common;

use common::{stamp, Soak, CHANNELS, FLOWS};
use stripe::net::{ChaosPlan, FlowError};
use stripe::netsim::SimTime;

fn quiet(seed: u64) -> Soak {
    let mut s = Soak::new(seed, std::array::from_fn(|_| ChaosPlan::none()));
    s.warm_up();
    s
}

/// Scenario A: correlated all-channel partition → legal park → heal →
/// regrow from empty → clean tails.
fn blackout(s: &mut Soak) {
    let seed = s.seed;
    let park_ns = s.reactor.stats().park_ns;

    // Lights out on every channel at once — control included, so even
    // probes die in the dark.
    for link in s.reactor.path_mut().links_mut() {
        link.partition_now();
    }
    s.run_until("total blackout park", |s| {
        let d = s.reactor.driver().unwrap();
        d.blackout() && d.parked()
    });
    let stats = s.reactor.stats();
    assert!(stats.parked, "seed {seed}: snapshot must report the park");
    assert!(
        stats.blackouts >= 1,
        "seed {seed}: blackout transition not counted"
    );
    assert!(
        !s.reactor
            .driver()
            .unwrap()
            .liveness()
            .live_mask()
            .iter()
            .any(|&l| l),
        "seed {seed}: park with live channels"
    );

    // While parked, the whole burst fails fast — no panic, no queueing.
    let rejected_before = s.rejected;
    s.step();
    assert!(
        s.rejected >= rejected_before + FLOWS as u64,
        "seed {seed}: parked path accepted data"
    );
    let now = SimTime::from_micros(s.now_us);
    let path = s.reactor.path_mut();
    assert!(path.parked());
    for (f, &h) in s.flows.iter().enumerate() {
        assert_eq!(
            path.enqueue(h, &stamp(f, s.next_seq[f])),
            Err(FlowError::Backpressure { resume_hint: 1 })
        );
        assert_eq!(path.queue_len(h), Ok(0));
        s.next_seq[f] += 1;
        s.rejected += 1;
    }
    assert_eq!(path.pump_into(now, usize::MAX, &mut Vec::new()), 0);

    // Hold the dark for a stretch: probes on cooldown, still parked,
    // still no panic.
    for _ in 0..200 {
        s.step();
    }
    assert!(s.reactor.driver().unwrap().blackout());

    // Heal every channel: the first probe ack regrows membership from
    // empty through the ordinary grow handshake.
    for link in s.reactor.path_mut().links_mut() {
        link.heal();
    }
    s.run_until("regrow from empty", Soak::converged);
    let stats = s.reactor.stats();
    assert!(!stats.parked, "seed {seed}: still parked after recovery");
    assert!(
        stats.park_ns > park_ns,
        "seed {seed}: park time not accounted after resume"
    );
    let recoveries = s.reactor.driver().unwrap().liveness().recoveries();
    assert!(
        recoveries >= CHANNELS as u64,
        "seed {seed}: every channel must recover (and grow back), saw {recoveries}"
    );

    s.assert_clean_tail("post-blackout");
    assert!(s.rejected > 0, "seed {seed}: blackout refused nothing");
}

/// Scenario B: in-process receiver restart → incarnation change in the
/// probe ack → §5 two-phase reset over the wire → clean tails under the
/// new epoch.
fn restart(s: &mut Soak) {
    let seed = s.seed;
    let park_ns = s.reactor.stats().park_ns;
    let delivered_before: usize = s.got.iter().map(Vec::len).sum();

    // Restart the receiver in place: same sockets, fresh incarnation,
    // every resequencer/membership/retune epoch gone. Anything buffered
    // and undelivered at the old endpoint is lost — exactly the §5
    // fault model.
    let links = s.rx.take().unwrap().into_links();
    s.rx = Some(common::build_rx(links, 2));

    s.run_until("restart detection", |s| {
        s.reactor.driver().unwrap().restarts_detected() >= 1
    });
    s.run_until("§5 reset completion", |s| {
        s.reactor.driver().unwrap().resets_completed() >= 1
    });
    s.run_until("post-reset convergence", Soak::converged);

    let stats = s.reactor.stats();
    assert_eq!(
        stats.restarts_detected, 1,
        "seed {seed}: restart must be detected exactly once"
    );
    assert!(
        stats.resets_started >= 1 && stats.resets_completed >= 1,
        "seed {seed}: reset never ran to completion"
    );
    assert!(!stats.parked, "seed {seed}: parked after a completed reset");
    assert!(
        stats.park_ns > park_ns,
        "seed {seed}: the reset must have parked the path while in flight"
    );
    assert_eq!(s.rx().incarnation(), 2);
    assert!(
        s.rx().net_stats().resets >= 1,
        "seed {seed}: receiver never flushed for the reset epoch"
    );

    // Deliveries made before the restart stay valid; the new epoch's
    // tails are set-exact and quasi-FIFO from a fresh mark.
    s.assert_clean_tail("post-restart");
    let delivered: usize = s.got.iter().map(Vec::len).sum();
    assert!(
        delivered > delivered_before,
        "seed {seed}: no deliveries under the new incarnation"
    );
}

#[test]
fn total_blackout_parks_then_recovers_to_full_capacity() {
    for seed in [0xB1AC_u64, 0x00FF_CAFE, 0xDA12_C0DE] {
        let mut s = quiet(seed);
        blackout(&mut s);
        s.assert_whole_run();
    }
}

#[test]
fn receiver_restart_triggers_wire_reset_and_clean_resume() {
    for seed in [0x12E5_u64, 0x5EED_00FF, 0xABAD_CAFE] {
        let mut s = quiet(seed);
        restart(&mut s);
        s.assert_whole_run();
    }
}

/// Both faults in one process: the restart lands on a stack that has
/// already parked, regrown from empty and resumed once.
#[test]
fn blackout_then_receiver_restart_in_one_run() {
    let mut s = quiet(0xB1AC_12E5);
    blackout(&mut s);
    restart(&mut s);
    assert_eq!(s.reactor.stats().blackouts, 1);
    s.assert_whole_run();
}
