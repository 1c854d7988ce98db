//! The kernel soak harness `flap_soak` and `blackout_soak` share.
//!
//! A [`StripeServer`] carries [`FLOWS`] flows over three kernel loopback
//! UDP channels, each behind an [`ImpairedLink`], driven by a
//! [`ServerReactor`] with the failover driver attached; a [`FlowDemux`]
//! resequences every flow on the far side. Time is logical: one
//! [`Soak::step`] is 100 µs, one packet offered on every flow.
//!
//! Every payload is stamped with its flow id and its sequence number on
//! that flow, and filled with a byte derived from both. Every delivery is
//! checked against its stamp, so a step fails the moment a flow delivers
//! another flow's packet (cross-flow leakage), a number never sent, or a
//! flipped byte.

use std::time::{Duration, Instant};

use stripe::core::receiver::RxBatch;
use stripe::core::reset::DesyncDetector;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::link::{DatagramLink, TxError};
use stripe::net::{
    ChaosPlan, FlowDemux, FlowError, FlowHandle, ImpairedLink, PooledBuf, PumpEvent, ServerReactor,
    StripeServer, UdpChannel,
};
use stripe::netsim::{SimDuration, SimTime};
use stripe::transport::failover::{FailoverConfig, FailoverDriver};

pub const CHANNELS: usize = 3;
/// Flows sharing the channel set; flow `f` has id `f`.
pub const FLOWS: usize = 8;
const QUANTUM: i64 = 1500;
const PAYLOAD: usize = 300;
/// Probe cadence; the reactor's revive backoff (1×..16×) follows it.
const PROBE_NS: u64 = 1_000_000;
/// Logical time per step.
const STEP_US: u64 = 100;
/// Packets per flow in a post-recovery tail.
const TAIL: u64 = 300;

pub type Reactor = ServerReactor<Srr, ImpairedLink<UdpChannel>>;
pub type Receiver = FlowDemux<Srr, UdpChannel>;

/// Packet `seq` of flow `flow`: the stamp, then the fill.
pub fn stamp(flow: usize, seq: u64) -> [u8; PAYLOAD] {
    let mut payload = [(flow as u8) ^ (seq as u8); PAYLOAD];
    payload[..4].copy_from_slice(&(flow as u32).to_be_bytes());
    payload[4..12].copy_from_slice(&seq.to_be_bytes());
    payload
}

/// A receiver endpoint over `links` with a pinned incarnation, every
/// flow's replica made up front, and the desync self-check armed
/// (conservative thresholds: present on the datapath, silent unless
/// state really diverges).
pub fn build_rx(links: Vec<UdpChannel>, incarnation: u64) -> Receiver {
    let mut rx = FlowDemux::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .links(links)
        .pool_buffers(256)
        .max_flows(FLOWS)
        .incarnation(incarnation)
        .desync_detector(DesyncDetector::new(256, 0.5, 8))
        .build();
    for f in 0..FLOWS as u32 {
        assert!(rx.touch_flow(f));
        rx.reserve_flow(f, 1 << 10);
    }
    rx
}

/// Everything one step moves.
pub struct Soak {
    pub reactor: Reactor,
    pub flows: Vec<FlowHandle>,
    /// `None` only while a restart rebuilds the receiver.
    pub rx: Option<Receiver>,
    pub now_us: u64,
    /// Per flow, the next sequence number to offer.
    pub next_seq: Vec<u64>,
    /// Per flow, the sequence numbers delivered, in delivery order.
    pub got: Vec<Vec<u64>>,
    /// Packets refused by a parked path or failed at a link: sent
    /// nowhere.
    pub rejected: u64,
    events: Vec<PumpEvent>,
    batch: RxBatch<PooledBuf>,
    deadline: Instant,
    pub seed: u64,
}

impl Soak {
    /// A fresh stack, channel `c` impaired by `plans[c]` (seeded from
    /// `seed + c`), integrity trailer on.
    pub fn new(seed: u64, plans: [ChaosPlan; CHANNELS]) -> Self {
        let mut tx_links = Vec::new();
        let mut rx_links = Vec::new();
        for _ in 0..CHANNELS {
            let (a, b) = UdpChannel::pair(2048, 1 << 12).unwrap();
            tx_links.push(a);
            rx_links.push(b);
        }
        let links: Vec<_> = tx_links
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
            .max_flows(FLOWS)
            .build();
        let flows: Vec<FlowHandle> = (0..FLOWS)
            .map(|f| {
                let h = path.open_flow().unwrap();
                assert_eq!(h.id() as usize, f);
                h
            })
            .collect();
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
            flows,
            rx: Some(build_rx(rx_links, 1)),
            now_us: 0,
            next_seq: vec![0; FLOWS],
            got: vec![Vec::new(); FLOWS],
            rejected: 0,
            events: Vec::new(),
            batch: RxBatch::new(),
            deadline: Instant::now() + Duration::from_secs(60),
            seed,
        }
    }

    pub fn rx(&self) -> &Receiver {
        self.rx.as_ref().expect("receiver attached")
    }

    fn delivered(&self) -> usize {
        self.got.iter().map(Vec::len).sum()
    }

    /// One step: advance logical time, offer one packet on every flow,
    /// pump, poll the reactor, sweep the receiver and check every
    /// delivery against its stamp. Only a parked path may refuse a
    /// packet, and only a dead link may fail one.
    pub fn step(&mut self) {
        assert!(
            Instant::now() < self.deadline,
            "seed {}: soak stalled at {} deliveries ({} refused)",
            self.seed,
            self.delivered(),
            self.rejected
        );
        self.now_us += STEP_US;
        let now = SimTime::from_micros(self.now_us);
        let path = self.reactor.path_mut();
        let parked = path.parked();
        for (f, &h) in self.flows.iter().enumerate() {
            let seq = self.next_seq[f];
            match path.enqueue(h, &stamp(f, seq)) {
                Ok(()) => {}
                Err(FlowError::Backpressure { .. }) if parked => self.rejected += 1,
                Err(e) => panic!("seed {}: enqueue failed: {e}", self.seed),
            }
            self.next_seq[f] = seq + 1;
        }
        path.pump_into(now, usize::MAX, &mut self.events);
        for ev in &self.events {
            if let PumpEvent::Data { error: Some(e), .. } = ev {
                assert_eq!(*e, TxError::LinkDown, "seed {}: send failed", self.seed);
                self.rejected += 1;
            }
        }
        self.reactor.poll(now);
        let rx = self.rx.as_mut().expect("receiver attached");
        rx.sweep(now);
        for (f, got) in self.got.iter_mut().enumerate() {
            rx.poll_flow_into(f as u32, &mut self.batch);
            for pb in self.batch.drain() {
                let p = pb.as_slice();
                assert_eq!(
                    p.len(),
                    PAYLOAD,
                    "seed {}: flow {f}: cut payload",
                    self.seed
                );
                let flow = u32::from_be_bytes(p[..4].try_into().unwrap()) as usize;
                let seq = u64::from_be_bytes(p[4..12].try_into().unwrap());
                assert_eq!(
                    flow, f,
                    "seed {}: flow {f} delivered flow {flow}'s packet {seq}",
                    self.seed
                );
                assert!(
                    seq < self.next_seq[f],
                    "seed {}: flow {f}: bogus seq {seq} delivered",
                    self.seed
                );
                assert!(
                    p[12..].iter().all(|&b| b == (f as u8) ^ (seq as u8)),
                    "seed {}: flow {f}: corrupted payload delivered for seq {seq}",
                    self.seed
                );
                got.push(seq);
                rx.recycle(pb);
            }
        }
        std::thread::yield_now();
    }

    /// Whether the stripe is at full capacity: every channel live, no
    /// membership handshake pending, unparked, no link dead.
    pub fn converged(&self) -> bool {
        let driver = self.reactor.driver().expect("driver attached");
        driver.liveness().live_mask().iter().all(|&l| l)
            && !driver.membership().in_progress()
            && !driver.parked()
            && self.reactor.path().links().iter().all(|l| !l.link_dead())
    }

    /// Step until `cond` holds.
    pub fn run_until(&mut self, what: &str, mut cond: impl FnMut(&Soak) -> bool) {
        while !cond(self) {
            assert!(
                Instant::now() < self.deadline,
                "seed {}: timed out waiting for {what}",
                self.seed
            );
            self.step();
        }
    }

    /// Step until every flow has delivered and the sender has heard a
    /// probe ack per channel (so it knows the receiver's incarnation: a
    /// later restart is a change, not a first sighting), then require
    /// full capacity.
    pub fn warm_up(&mut self) {
        self.run_until("warm-up", |s| {
            s.got.iter().all(|g| g.len() >= 8) && s.reactor.stats().control_in >= CHANNELS as u64
        });
        assert!(
            self.converged(),
            "seed {}: unhealthy before any fault",
            self.seed
        );
    }

    /// Send and confirm a post-recovery tail on every flow: each number
    /// from a fresh mark delivered exactly once, and quasi-FIFO
    /// (Theorem 5.1): within 30 positions of its place.
    pub fn assert_clean_tail(&mut self, label: &str) {
        let marks = self.next_seq.clone();
        for _ in 0..TAIL {
            self.step();
        }
        self.run_until("tail delivery", |s| {
            (s.got.iter().zip(&marks))
                .all(|(g, &m)| g.iter().filter(|&&q| q >= m).count() as u64 >= TAIL)
        });
        for (f, &mark) in marks.iter().enumerate() {
            let tail: Vec<u64> = self.got[f].iter().copied().filter(|&q| q >= mark).collect();
            let mut sorted = tail.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (mark..mark + TAIL).collect::<Vec<_>>(),
                "seed {}: {label}: flow {f} tail has gaps or duplicates",
                self.seed
            );
            for (pos, &q) in tail.iter().enumerate() {
                let disp = pos as i64 - (q - mark) as i64;
                assert!(
                    disp.abs() <= 30,
                    "seed {}: {label}: flow {f} seq {q} displaced {disp} positions",
                    self.seed
                );
            }
        }
    }

    /// The whole-run ledger: the stripe ends at full capacity, no flow
    /// delivered a number twice, every injected corruption died at the
    /// receiver's checksum, nothing malformed or out of reach arrived, no
    /// flow was refused, and the receiver's self-check never fired.
    pub fn assert_whole_run(&self) {
        assert!(self.converged(), "seed {}: not at full capacity", self.seed);
        for (f, got) in self.got.iter().enumerate() {
            let mut uniq = got.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(
                uniq.len(),
                got.len(),
                "seed {}: flow {f}: duplicate deliveries",
                self.seed
            );
        }
        let rx = self.rx().net_stats();
        let links = self.reactor.path().links();
        let corrupted: u64 = links.iter().map(|l| l.snapshot().corrupted).sum();
        assert_eq!(
            rx.dropped_corrupt, corrupted,
            "seed {}: corrupt discards must match injected corruptions",
            self.seed
        );
        assert_eq!(rx.dropped_malformed, 0, "seed {}", self.seed);
        assert_eq!(rx.dropped_mark_ahead, 0, "seed {}", self.seed);
        assert_eq!(rx.dropped_admission, 0, "seed {}", self.seed);
        let path = self.reactor.path().stats();
        assert_eq!(path.flows_active, FLOWS as u64, "seed {}", self.seed);
        assert_eq!(path.dropped_admission, 0, "seed {}", self.seed);
        assert_eq!(self.reactor.stats().desync_alerts, 0, "seed {}", self.seed);
    }
}
