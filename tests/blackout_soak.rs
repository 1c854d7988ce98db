//! The blackout soak: the two §5 fault scenarios the failover driver
//! must survive on the real-socket datapath, for several seeds.
//!
//! **Scenario A — total blackout.** Every channel goes dark at once
//! behind a scripted partition ([`ImpairedLink::partition_now`],
//! control included). The silence deadline declares each channel dead;
//! when the last one falls the driver *parks* the path instead of
//! panicking: enqueues are refused with backpressure, pumps serve
//! nothing, the schedulers freeze on their last live mask, and probes
//! keep flowing on cooldown. Healing the partition lets the first probe
//! ack regrow membership from empty through the ordinary epoch'd
//! handshake, back to full capacity — with a set-exact, quasi-FIFO
//! Theorem 5.1 tail measured from a post-resume mark.
//!
//! **Scenario B — endpoint restart.** The receiver process "restarts"
//! in place: torn down mid-run ([`FlowDemux::into_links`]) and
//! rebuilt over the same sockets with a fresh incarnation. The next
//! probe ack carries the new incarnation, the driver detects the
//! restart and drives the §5 two-phase reset over the wire — flood
//! `ResetRequest`, receiver flushes and acks, acks gate resume — then
//! flushes its own engines and re-teaches membership. The post-reset
//! tail must again be set-exact and quasi-FIFO under the new epoch.
//!
//! Both scenarios assert zero corrupted deliveries and zero duplicate
//! deliveries across the whole run, park/blackout/reset telemetry in
//! [`ReactorSnapshot`], and that the run never panics.

use std::time::{Duration, Instant};

use stripe::core::receiver::RxBatch;
use stripe::core::reset::DesyncDetector;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::link::DatagramLink;
use stripe::net::{
    ChaosPlan, FlowDemux, FlowError, FlowHandle, ImpairedLink, PooledBuf, PumpEvent, ServerReactor,
    StripeServer, UdpChannel,
};
use stripe::netsim::{SimDuration, SimTime};
use stripe::transport::failover::{FailoverConfig, FailoverDriver};

const CHANNELS: usize = 3;
const QUANTUM: i64 = 1500;
const PAYLOAD: usize = 300;
const PROBE_NS: u64 = 1_000_000;
const STEP_US: u64 = 100;
const TAIL: u64 = 300;

type TxLink = ImpairedLink<UdpChannel>;
type Reactor = ServerReactor<Srr, TxLink>;
type Receiver = FlowDemux<Srr, UdpChannel>;

/// The one flow every scenario streams on: the first a fresh server
/// opens, and the replica a rebuilt receiver pre-instantiates.
const FLOW: u32 = 0;

fn id_packet(id: u64) -> [u8; PAYLOAD] {
    let mut payload = [id as u8; PAYLOAD];
    payload[..8].copy_from_slice(&id.to_be_bytes());
    payload
}

fn id_of(pb: &PooledBuf) -> u64 {
    u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap())
}

/// A receiver endpoint over `links` with a pinned incarnation and the
/// desync self-check armed (conservative thresholds: present on the
/// datapath, silent unless state really diverges).
fn build_rx(links: Vec<UdpChannel>, incarnation: u64) -> Receiver {
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .links(links)
        .pool_buffers(256)
        .incarnation(incarnation)
        .desync_detector(DesyncDetector::new(256, 0.5, 8))
        .build();
    assert!(rx.touch_flow(FLOW));
    rx.reserve_flow(FLOW, 1 << 10);
    rx
}

/// Everything one driver iteration moves (the flap-soak harness, plus a
/// ledger of ids the parked path refused).
struct Soak {
    reactor: Reactor,
    flow: FlowHandle,
    rx: Option<Receiver>,
    now_us: u64,
    next_id: u64,
    got: Vec<u64>,
    /// Ids refused while the path was parked (or errored at a link) —
    /// sent nowhere, so excluded from every delivery expectation.
    rejected: u64,
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
        let links: Vec<TxLink> = tx_links
            .into_iter()
            .enumerate()
            .map(|(i, l)| ImpairedLink::new(l, ChaosPlan::none(), seed.wrapping_add(i as u64)))
            .collect();
        let mut path = StripeServer::builder()
            .scheduler(Srr::equal(CHANNELS, QUANTUM))
            .markers(MarkerConfig::every_rounds(4))
            .links(links)
            .integrity(true)
            .build();
        let flow = path.open_flow().unwrap();
        assert_eq!(flow.id(), FLOW);
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
        Soak {
            reactor,
            flow,
            rx: Some(build_rx(rx_links, 1)),
            now_us: 0,
            next_id: 0,
            got: Vec::with_capacity(1 << 13),
            rejected: 0,
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
            "seed {}: soak stalled at {} deliveries ({} sent, {} rejected)",
            self.seed,
            self.got.len(),
            self.next_id,
            self.rejected
        );
        self.now_us += STEP_US;
        let now = SimTime::from_micros(self.now_us);
        let path = self.reactor.path_mut();
        if burst > 0 {
            for _ in 0..burst {
                match path.enqueue(self.flow, &id_packet(self.next_id)) {
                    Ok(()) => {}
                    Err(FlowError::Backpressure { .. }) => self.rejected += 1,
                    Err(e) => panic!("seed {}: enqueue failed: {e}", self.seed),
                }
                self.next_id += 1;
            }
            path.pump_into(now, usize::MAX, &mut self.events);
            for ev in &self.events {
                if matches!(ev, PumpEvent::Data { error: Some(_), .. }) {
                    self.rejected += 1;
                }
            }
        } else {
            path.send_idle_markers_into(now, &mut self.events);
        }
        self.reactor.poll(now);
        let rx = self.rx.as_mut().expect("receiver attached");
        rx.sweep(now);
        rx.poll_flow_into(FLOW, &mut self.batch);
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
            rx.recycle(pb);
        }
        std::thread::yield_now();
    }

    /// Whether the stripe is back at full capacity: every channel live,
    /// no handshake pending, unparked, no link dead.
    fn converged(&self) -> bool {
        let driver = self.reactor.driver().expect("driver attached");
        driver.liveness().live_mask().iter().all(|&l| l)
            && !driver.membership().in_progress()
            && !driver.parked()
            && self.reactor.path().links().iter().all(|l| !l.link_dead())
    }

    /// Drive until `cond` holds, streaming a light burst so the stripe
    /// stays busy through the churn.
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

    /// Send and confirm a post-recovery tail: every id from a fresh
    /// mark delivered exactly once, quasi-FIFO (Theorem 5.1).
    fn assert_clean_tail(&mut self, label: &str) {
        let mark = self.next_id;
        while self.next_id < mark + TAIL {
            self.step(4);
        }
        self.run_until("tail delivery", |s| {
            s.got.iter().filter(|&&id| id >= mark).count() as u64 >= TAIL
        });
        let tail: Vec<u64> = self.got.iter().copied().filter(|&id| id >= mark).collect();
        let mut sorted = tail.clone();
        sorted.sort_unstable();
        let want: Vec<u64> = (mark..mark + TAIL).collect();
        assert_eq!(
            sorted, want,
            "seed {}: {label}: tail has gaps or duplicates",
            self.seed
        );
        for (pos, &id) in tail.iter().enumerate() {
            let disp = pos as i64 - (id - mark) as i64;
            assert!(
                disp.abs() <= 30,
                "seed {}: {label}: id {id} displaced {disp} positions",
                self.seed
            );
        }
    }

    /// No id was ever delivered twice across the whole run, and every
    /// id the parked path refused stayed undelivered.
    fn assert_no_duplicates(&self) {
        let mut uniq = self.got.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(
            uniq.len(),
            self.got.len(),
            "seed {}: duplicate deliveries",
            self.seed
        );
    }
}

/// Scenario A: correlated all-channel partition → legal park → heal →
/// regrow from empty → clean tail.
fn blackout_soak(seed: u64) {
    let mut s = Soak::new(seed);

    s.run_until("warm-up deliveries", |s| s.got.len() >= 64);
    assert!(s.converged(), "seed {seed}: unhealthy before the blackout");

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
    s.step(4);
    assert!(
        s.rejected >= rejected_before + 4,
        "seed {seed}: parked path accepted data"
    );
    let (flow, now) = (s.flow, SimTime::from_micros(s.now_us));
    let path = s.reactor.path_mut();
    assert!(path.parked());
    assert_eq!(
        path.enqueue(flow, &id_packet(s.next_id)),
        Err(FlowError::Backpressure { resume_hint: 1 })
    );
    assert_eq!(path.queue_len(flow), Ok(0));
    assert_eq!(path.pump_into(now, usize::MAX, &mut s.events), 0);
    s.next_id += 1;
    s.rejected += 1;

    // Hold the dark for a stretch: probes on cooldown, still parked,
    // still no panic.
    for _ in 0..200 {
        s.step(4);
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
        stats.park_ns > 0,
        "seed {seed}: park time not accounted after resume"
    );
    let recoveries = s.reactor.driver().unwrap().liveness().recoveries();
    assert!(
        recoveries >= CHANNELS as u64,
        "seed {seed}: every channel must recover (and grow back), saw {recoveries}"
    );

    s.assert_clean_tail("post-blackout");
    s.assert_no_duplicates();
    assert!(s.rejected > 0, "seed {seed}: blackout refused nothing");
    let rx = s.rx.as_ref().unwrap();
    assert_eq!(rx.net_stats().dropped_corrupt, 0);
    assert_eq!(rx.net_stats().dropped_malformed, 0);
}

/// Scenario B: in-process receiver restart → incarnation change in the
/// probe ack → §5 two-phase reset over the wire → clean tail under the
/// new epoch.
fn restart_soak(seed: u64) {
    let mut s = Soak::new(seed);

    s.run_until("warm-up deliveries", |s| s.got.len() >= 64);
    assert!(s.converged(), "seed {seed}: unhealthy before the restart");
    let delivered_before = s.got.len();

    // Restart the receiver in place: same sockets, fresh incarnation,
    // every resequencer/membership/retune epoch gone. Anything buffered
    // and undelivered at the old endpoint is lost — exactly the §5
    // fault model.
    let links = s.rx.take().unwrap().into_links();
    s.rx = Some(build_rx(links, 2));

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
        stats.park_ns > 0,
        "seed {seed}: the reset must have parked the path while in flight"
    );
    let rx = s.rx.as_ref().unwrap();
    assert_eq!(rx.incarnation(), 2);
    assert!(
        rx.net_stats().resets >= 1,
        "seed {seed}: receiver never flushed for the reset epoch"
    );

    // Deliveries made before the restart stay valid; the new epoch's
    // tail is set-exact and quasi-FIFO from a fresh mark.
    s.assert_clean_tail("post-restart");
    s.assert_no_duplicates();
    assert!(
        s.got.len() > delivered_before,
        "seed {seed}: no deliveries under the new incarnation"
    );
    let rx = s.rx.as_ref().unwrap();
    assert_eq!(rx.net_stats().dropped_corrupt, 0);
    assert_eq!(rx.net_stats().dropped_malformed, 0);
}

#[test]
fn total_blackout_parks_then_recovers_to_full_capacity() {
    for seed in [0xB1AC_u64, 0x00FF_CAFE, 0xDA12_C0DE] {
        blackout_soak(seed);
    }
}

#[test]
fn receiver_restart_triggers_wire_reset_and_clean_resume() {
    for seed in [0x12E5_u64, 0x5EED_00FF, 0xABAD_CAFE] {
        restart_soak(seed);
    }
}
