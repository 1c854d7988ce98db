//! The flap soak: repeated die → cooldown → probe → grow → rejoin
//! cycles over impaired kernel loopback, for several seeds, proving the
//! lifecycle machine converges back to full N-channel capacity every
//! time instead of tombstoning flapping channels.
//!
//! Per cycle, two different death paths flap:
//!
//! - channel 1 loses its *socket* ([`UdpChannel::inject_socket_death`]):
//!   the reactor hears `link_dead`, announces a shrink, and the
//!   lifecycle machine rebuilds the socket on the same port
//!   ([`DatagramLink::revive`]) before probing back in;
//! - channel 2 goes *dark* behind a [`ChaosPlan`] partition: probes
//!   starve, the silence deadline declares death, and — once the
//!   partition lifts — the very same walk (cooldown → probe → grow →
//!   rejoin) brings it home with a no-op rebind.
//!
//! After every rejoin the suite asserts full capacity (live mask all
//! true, every lifecycle machine `Live`, membership handshake settled)
//! and bounded SRR fairness (every channel carries a real share of the
//! next window). After the last cycle, the Theorem 5.1 tail must be
//! set-exact and quasi-FIFO, with zero corrupted deliveries across the
//! whole run.

use std::time::{Duration, Instant};

use stripe::core::receiver::RxBatch;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::net::{
    ChaosPlan, FlowDemux, FlowHandle, ImpairedLink, LifecycleState, PooledBuf, PumpEvent,
    ServerReactor, StripeServer, UdpChannel,
};
use stripe::netsim::{SimDuration, SimTime};
use stripe::transport::failover::{FailoverConfig, FailoverDriver};

const CHANNELS: usize = 3;
const QUANTUM: i64 = 1500;
const PAYLOAD: usize = 300;
const CYCLES: u64 = 3;
/// Probe cadence; the lifecycle machine derives its cooldown (1×..16×),
/// probe timeout (4×) and rejoin timeout (8×) from it.
const PROBE_NS: u64 = 1_000_000;
/// Logical time per driver iteration.
const STEP_US: u64 = 100;
/// Channel 0's corruption window, in *its own* data-frame indices: the
/// integrity trailer must catch flips, and the window must close well
/// before the Theorem 5.1 tail phase.
const CORRUPT_TO: u64 = 150;

type TxLink = ImpairedLink<UdpChannel>;
type Reactor = ServerReactor<Srr, TxLink>;
type Receiver = FlowDemux<Srr, UdpChannel>;

fn id_packet(id: u64) -> [u8; PAYLOAD] {
    let mut payload = [id as u8; PAYLOAD];
    payload[..8].copy_from_slice(&id.to_be_bytes());
    payload
}

fn id_of(pb: &PooledBuf) -> u64 {
    u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap())
}

/// Everything one driver iteration moves, bundled so the phase loops
/// below stay readable.
struct Soak {
    reactor: Reactor,
    flow: FlowHandle,
    rx: Receiver,
    now_us: u64,
    next_id: u64,
    got: Vec<u64>,
    events: Vec<PumpEvent>,
    batch: RxBatch<PooledBuf>,
    deadline: Instant,
    seed: u64,
}

impl Soak {
    fn new(seed: u64) -> Self {
        let mut tx_links = Vec::new();
        let mut rx_links = Vec::new();
        for _ in 0..CHANNELS {
            let (a, b) = UdpChannel::pair(2048, 1 << 12).unwrap();
            tx_links.push(a);
            rx_links.push(b);
        }
        // Channel 0 carries seeded corruption (caught by the CRC-8
        // trailer) so recovery runs under background chaos; channels 1
        // and 2 start clean and are flapped by the cycle script.
        let plans = [
            ChaosPlan::none().corrupt(60_000).active(0, CORRUPT_TO),
            ChaosPlan::none(),
            ChaosPlan::none(),
        ];
        let links: Vec<TxLink> = tx_links
            .into_iter()
            .zip(plans)
            .enumerate()
            .map(|(i, (l, p))| ImpairedLink::new(l, p, seed.wrapping_add(i as u64)))
            .collect();
        let mut path = StripeServer::builder()
            .scheduler(Srr::equal(CHANNELS, QUANTUM))
            .markers(MarkerConfig::every_rounds(4))
            .links(links)
            .integrity(true)
            .build();
        let flow = path.open_flow().unwrap();
        let driver = FailoverDriver::new(
            CHANNELS,
            FailoverConfig::with_probe_interval(PROBE_NS),
            SimTime::ZERO,
        );
        let reactor = ServerReactor::new(
            path,
            Some(driver),
            SimTime::ZERO,
            SimDuration::from_nanos(PROBE_NS),
        );
        let mut rx = FlowDemux::builder()
            .scheduler(Srr::equal(CHANNELS, QUANTUM))
            .links(rx_links)
            .pool_buffers(256)
            .build();
        assert!(rx.touch_flow(flow.id()));
        rx.reserve_flow(flow.id(), 1 << 10);
        Soak {
            reactor,
            flow,
            rx,
            now_us: 0,
            next_id: 0,
            got: Vec::with_capacity(1 << 13),
            events: Vec::new(),
            batch: RxBatch::new(),
            deadline: Instant::now() + Duration::from_secs(60),
            seed,
        }
    }

    /// One driver iteration: advance logical time, stream a burst (or
    /// idle markers when `burst == 0`), poll the reactor, sweep and
    /// drain the receiver, verify every delivered payload byte-exact.
    fn step(&mut self, burst: u64) {
        assert!(
            Instant::now() < self.deadline,
            "seed {}: soak stalled at {} deliveries ({} sent)",
            self.seed,
            self.got.len(),
            self.next_id
        );
        self.now_us += STEP_US;
        let now = SimTime::from_micros(self.now_us);
        let path = self.reactor.path_mut();
        if burst > 0 {
            for _ in 0..burst {
                path.enqueue(self.flow, &id_packet(self.next_id)).unwrap();
                self.next_id += 1;
            }
            path.pump_into(now, usize::MAX, &mut self.events);
        } else {
            path.send_idle_markers_into(now, &mut self.events);
        }
        self.reactor.poll(now);
        self.rx.sweep(now);
        self.rx.poll_flow_into(self.flow.id(), &mut self.batch);
        for pb in self.batch.drain() {
            let id = id_of(&pb);
            assert!(
                id < self.next_id,
                "seed {}: corrupt id {id} delivered",
                self.seed
            );
            assert!(
                pb.as_slice()[8..].iter().all(|&b| b == id as u8),
                "seed {}: corrupted payload delivered for id {id}",
                self.seed
            );
            self.got.push(id);
            self.rx.recycle(pb);
        }
        std::thread::yield_now();
    }

    /// Whether the stripe is back at full capacity: every channel live,
    /// every lifecycle machine `Live`, no membership handshake pending.
    fn converged(&self) -> bool {
        let driver = self.reactor.driver().expect("driver attached");
        driver.liveness().live_mask().iter().all(|&l| l)
            && !driver.membership().in_progress()
            && self
                .reactor
                .lifecycle()
                .iter()
                .all(|lc| lc.state() == LifecycleState::Live)
    }

    /// Drive until `cond` holds, streaming a light burst so the stripe
    /// stays busy through the membership churn.
    fn run_until(&mut self, what: &str, mut cond: impl FnMut(&Soak) -> bool) {
        while !cond(self) {
            assert!(
                Instant::now() < self.deadline,
                "seed {}: timed out waiting for {what}",
                self.seed
            );
            self.step(4);
        }
    }

    /// Post-rejoin SRR fairness: over the next `total` packets, every
    /// channel must carry at least a third of its equal-share — a grown
    /// channel rejoins the rotation for real, it isn't starved by stale
    /// deficit.
    fn assert_fair_share(&mut self, total: u64) {
        let before: Vec<u64> = self
            .reactor
            .path()
            .links()
            .iter()
            .map(|l| l.snapshot().seen_data)
            .collect();
        for _ in 0..total / 4 {
            self.step(4);
        }
        let floor = total / CHANNELS as u64 / 3;
        for (c, b) in before.iter().enumerate() {
            let carried = self.reactor.path().links()[c].snapshot().seen_data - b;
            assert!(
                carried >= floor,
                "seed {}: channel {c} carried {carried}/{total} frames after rejoin \
                 (floor {floor}) — SRR share not restored",
                self.seed
            );
        }
    }
}

fn flap_soak(seed: u64) {
    let mut s = Soak::new(seed);

    // Warm up at full capacity.
    s.run_until("warm-up deliveries", |s| s.got.len() >= 64);
    assert!(
        s.converged(),
        "seed {seed}: stripe unhealthy before any flap"
    );

    for cycle in 0..CYCLES {
        // --- Flap A: channel 1 loses its socket. -----------------------
        s.reactor.path_mut().links_mut()[1]
            .inner_mut()
            .inject_socket_death();
        s.run_until("shrink after socket death", |s| {
            !s.reactor.driver().unwrap().liveness().live_mask()[1]
        });
        // Die → cooldown → rebind (fresh socket, same port) → probe →
        // grow → rejoin, all reactor-driven.
        s.run_until("rejoin after socket death", Soak::converged);
        let inner = s.reactor.path().links()[1].inner().stats();
        assert_eq!(
            inner.generation,
            cycle + 1,
            "seed {seed}: cycle {cycle}: socket not rebuilt"
        );
        assert_eq!(inner.lifecycle, LifecycleState::Live);
        s.assert_fair_share(120);

        // --- Flap B: channel 2 goes dark behind a partition. -----------
        let dark_from = s.reactor.path().links()[2].snapshot().seen_data;
        s.reactor.path_mut().links_mut()[2]
            .set_plan(ChaosPlan::none().partition(dark_from, u64::MAX));
        s.run_until("silence death under partition", |s| {
            !s.reactor.driver().unwrap().liveness().live_mask()[2]
        });
        // Lift the partition: probes reach the receiver again and the
        // lifecycle machine walks the channel home (the rebind is a
        // no-op — the socket never died).
        s.reactor.path_mut().links_mut()[2].set_plan(ChaosPlan::none());
        s.run_until("rejoin after partition", Soak::converged);
        assert!(
            !s.reactor.path().links()[2].inner().is_dead(),
            "seed {seed}: partition flap must not kill the socket"
        );
        s.assert_fair_share(120);

        assert!(
            s.rx.flow_stats(s.flow.id()).unwrap().memberships_applied >= 2 * (cycle + 1),
            "seed {seed}: receiver missed membership updates"
        );
    }

    // Both flavors of death walked all the way back, every cycle.
    let stats = s.reactor.stats();
    assert!(
        stats.link_dead_reports >= CYCLES,
        "seed {seed}: socket deaths under-reported ({})",
        stats.link_dead_reports
    );
    assert!(
        stats.grow_announcements >= 2 * CYCLES,
        "seed {seed}: expected a grow per flap, saw {}",
        stats.grow_announcements
    );
    assert!(
        stats.rejoins >= 2 * CYCLES,
        "seed {seed}: expected a completed rejoin per flap, saw {}",
        stats.rejoins
    );
    let ch1 = s.reactor.path().links()[1].inner().stats();
    assert_eq!(ch1.generation, CYCLES, "seed {seed}: one rebuild per cycle");
    assert_eq!(ch1.rejoins, CYCLES);
    assert!(ch1.revive_attempts >= CYCLES);

    // Make sure channel 0's corruption window actually fired and is
    // fully behind us before measuring the clean tail.
    s.run_until("corruption window closed", |s| {
        s.reactor.path().links()[0].snapshot().seen_data >= CORRUPT_TO
    });
    let corrupted = s.reactor.path().links()[0].snapshot().corrupted;
    assert!(corrupted > 0, "seed {seed}: no corruption injected");

    // --- Theorem 5.1 tail: set-exact, quasi-FIFO recovery. -------------
    let mark = s.next_id;
    const TAIL: u64 = 300;
    while s.next_id < mark + TAIL {
        s.step(4);
    }
    // Idle markers heal any straggling loss until the whole tail lands.
    s.run_until("tail delivery", |s| {
        s.got.iter().filter(|&&id| id >= mark).count() as u64 >= TAIL
    });

    let tail: Vec<u64> = s.got.iter().copied().filter(|&id| id >= mark).collect();
    let mut sorted = tail.clone();
    sorted.sort_unstable();
    let want: Vec<u64> = (mark..mark + TAIL).collect();
    assert_eq!(
        sorted, want,
        "seed {seed}: tail has gaps or duplicates after the final rejoin"
    );
    for (pos, &id) in tail.iter().enumerate() {
        let disp = pos as i64 - (id - mark) as i64;
        assert!(
            disp.abs() <= 30,
            "seed {seed}: id {id} displaced {disp} positions — flap damage \
             not healed by the marker deadline"
        );
    }

    // Zero corrupted deliveries, the ledger form: every injected flip
    // died at the receiver's checksum (the byte-exact check in `step`
    // already proved none surfaced).
    assert_eq!(
        s.rx.net_stats().dropped_corrupt,
        corrupted,
        "seed {seed}: corrupt discards must match injected corruptions"
    );
    assert_eq!(s.rx.net_stats().dropped_malformed, 0);

    // No id was ever delivered twice across the whole run.
    let mut uniq = s.got.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(
        uniq.len(),
        s.got.len(),
        "seed {seed}: duplicate deliveries without duplication chaos"
    );
}

#[test]
fn flap_cycles_converge_to_full_capacity() {
    for seed in [0xF1A9u64, 0x5EED_CAFE, 0xD1E_0FF] {
        flap_soak(seed);
    }
}
