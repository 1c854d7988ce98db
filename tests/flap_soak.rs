//! The flap soak: repeated die → revive → probe → grow cycles over
//! impaired kernel loopback, for several seeds, with [`FLOWS`] flows
//! riding through every membership epoch, proving a flapping stripe
//! converges back to full N-channel capacity every time instead of
//! tombstoning flapping channels.
//!
//! Per cycle, two different death paths flap:
//!
//! - channel 1 loses its *socket* ([`UdpChannel::inject_socket_death`]):
//!   the reactor hears `link_dead`, announces a shrink, and one probe
//!   interval later rebuilds the socket on the same port
//!   ([`DatagramLink::revive`]);
//!   the first probe ack grows it back in;
//! - channel 2 goes *dark* behind a [`ChaosPlan`] partition: probes
//!   starve, the silence deadline declares death, and — once the
//!   partition lifts — the first probe ack grows it back in. Its socket
//!   never died, so it is never rebuilt.
//!
//! After every rejoin the suite asserts full capacity (live mask all
//! true, membership handshake settled, no link dead) and bounded SRR
//! fairness (every channel carries a real share of the next window).
//! After the last cycle, every flow's Theorem 5.1 tail must be set-exact
//! and quasi-FIFO, with zero corrupted or cross-flow deliveries across
//! the whole run.
//!
//! [`UdpChannel::inject_socket_death`]: stripe::net::UdpChannel::inject_socket_death
//! [`DatagramLink::revive`]: stripe::link::DatagramLink::revive

mod common;

use common::{Soak, CHANNELS, FLOWS};
use stripe::net::ChaosPlan;

const CYCLES: u64 = 3;
/// Channel 0's corruption window, in *its own* data-frame indices: the
/// integrity trailer must catch flips, and the window must close well
/// before the Theorem 5.1 tail phase.
const CORRUPT_TO: u64 = 150;

/// Post-rejoin SRR fairness: over the next `per_flow` packets on every
/// flow, every channel must carry at least a third of its equal share —
/// a grown channel rejoins the rotation for real, it isn't starved by
/// stale deficit.
fn assert_fair_share(s: &mut Soak, per_flow: u64) {
    let seen = |s: &Soak, c: usize| s.reactor.path().links()[c].snapshot().seen_data;
    let before: Vec<u64> = (0..CHANNELS).map(|c| seen(s, c)).collect();
    for _ in 0..per_flow {
        s.step();
    }
    let total = per_flow * FLOWS as u64;
    let floor = total / CHANNELS as u64 / 3;
    for (c, b) in before.iter().enumerate() {
        let carried = seen(s, c) - b;
        assert!(
            carried >= floor,
            "seed {}: channel {c} carried {carried}/{total} frames after rejoin \
             (floor {floor}) — SRR share not restored",
            s.seed
        );
    }
}

fn flap_soak(seed: u64) {
    // Channel 0 carries seeded corruption (caught by the CRC-8 trailer)
    // so recovery runs under background chaos; channels 1 and 2 start
    // clean and are flapped by the cycle script.
    let plans = [
        ChaosPlan::none().corrupt(60_000).active(0, CORRUPT_TO),
        ChaosPlan::none(),
        ChaosPlan::none(),
    ];
    let mut s = Soak::new(seed, plans);
    s.warm_up();

    for cycle in 0..CYCLES {
        // --- Flap A: channel 1 loses its socket. -----------------------
        s.reactor.path_mut().links_mut()[1]
            .inner_mut()
            .inject_socket_death();
        s.run_until("shrink after socket death", |s| {
            !s.reactor.driver().unwrap().liveness().live_mask()[1]
        });
        // Die → revive (fresh socket, same port) → probe → grow, all
        // reactor-driven.
        s.run_until("rejoin after socket death", Soak::converged);
        let inner = s.reactor.path().links()[1].inner().stats();
        assert_eq!(
            inner.generation,
            cycle + 1,
            "seed {seed}: cycle {cycle}: socket not rebuilt"
        );
        assert_fair_share(&mut s, 40);

        // --- Flap B: channel 2 goes dark behind a partition. -----------
        let dark_from = s.reactor.path().links()[2].snapshot().seen_data;
        s.reactor.path_mut().links_mut()[2]
            .set_plan(ChaosPlan::none().partition(dark_from, u64::MAX));
        s.run_until("silence death under partition", |s| {
            !s.reactor.driver().unwrap().liveness().live_mask()[2]
        });
        // Lift the partition: probes reach the receiver again, and the
        // first ack grows the channel back in (no revive — the socket
        // never died).
        s.reactor.path_mut().links_mut()[2].set_plan(ChaosPlan::none());
        s.run_until("rejoin after partition", Soak::converged);
        assert!(
            !s.reactor.path().links()[2].inner().is_dead(),
            "seed {seed}: partition flap must not kill the socket"
        );
        assert_fair_share(&mut s, 40);

        for f in &s.flows {
            assert!(
                s.rx().flow_stats(f.id()).unwrap().memberships_applied >= 2 * (cycle + 1),
                "seed {seed}: flow {}'s replica missed membership updates",
                f.id()
            );
        }
    }

    // Both flavors of death walked all the way back, every cycle.
    let stats = s.reactor.stats();
    assert!(
        stats.link_dead_reports >= CYCLES,
        "seed {seed}: socket deaths under-reported ({})",
        stats.link_dead_reports
    );
    let recoveries = s.reactor.driver().unwrap().liveness().recoveries();
    assert!(
        recoveries >= 2 * CYCLES,
        "seed {seed}: expected a recovery (and its grow) per flap, saw {recoveries}"
    );
    let ch1 = s.reactor.path().links()[1].inner().stats();
    assert_eq!(ch1.generation, CYCLES, "seed {seed}: one rebuild per cycle");
    assert!(ch1.revive_attempts >= CYCLES);
    let ch2 = s.reactor.path().links()[2].inner().stats();
    assert_eq!(
        (ch2.generation, ch2.revive_attempts),
        (0, 0),
        "seed {seed}: a partition must never rebuild the socket"
    );

    // Make sure channel 0's corruption window actually fired and is
    // fully behind us before measuring the clean tail.
    s.run_until("corruption window closed", |s| {
        s.reactor.path().links()[0].snapshot().seen_data >= CORRUPT_TO
    });
    let corrupted = s.reactor.path().links()[0].snapshot().corrupted;
    assert!(corrupted > 0, "seed {seed}: no corruption injected");

    s.assert_clean_tail("after the final rejoin");
    s.assert_whole_run();
}

#[test]
fn flap_cycles_converge_to_full_capacity() {
    // The seeds share nothing, not even a socket: run them side by side.
    std::thread::scope(|scope| {
        for seed in [0xF1A9u64, 0x5EED_CAFE, 0xD1E_0FF] {
            scope.spawn(move || flap_soak(seed));
        }
    });
}
