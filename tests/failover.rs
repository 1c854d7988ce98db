//! End-to-end failover: one of three links dies mid-stream and later
//! recovers. Liveness probes detect the death, the membership handshake
//! shrinks the striping set to the survivors, delivery continues at N−1,
//! and the recovered link is reintegrated by the same handshake — all
//! deterministic, all driven through the fault-injection layer.

use stripe::core::control::Control;
use stripe::core::receiver::{Arrival, LogicalReceiver};
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::core::types::{ChannelId, TestPacket};
use stripe::link::loss::LossModel;
use stripe::link::{EthLink, FaultPlan, FaultyLink};
use stripe::netsim::{Bandwidth, EventQueue, SimDuration, SimTime};
use stripe::transport::failover::{FailoverConfig, FailoverDriver, StripedSink};
use stripe::transport::stripe_conn::StripedPath;

const MS: u64 = 1_000_000;

fn eth(seed: u64) -> EthLink {
    EthLink::new(
        Bandwidth::mbps(10),
        SimDuration::from_micros(100),
        SimDuration::from_micros(30),
        LossModel::None,
        seed,
    )
}

fn faulty(seed: u64, plan: FaultPlan) -> FaultyLink<EthLink> {
    FaultyLink::new(eth(seed), plan, 1000 + seed)
}

/// What travels on the simulated wires.
enum Ev {
    /// Forward path: data or marker arriving at the receiver.
    Arrival(ChannelId, Arrival<TestPacket>),
    /// Forward path: a control message arriving at the receiver.
    Ctl(ChannelId, Control),
    /// Reverse path: a control reply arriving back at the sender.
    Rev(ChannelId, Control),
}

struct RunResult {
    delivered: Vec<u64>,
    lost_ids: Vec<u64>,
    sent: u64,
    death_announced_at: Option<SimTime>,
    ch1_data_after_recovery: u64,
    stall_seen: bool,
    deaths: u64,
    recoveries: u64,
    memberships_applied: u64,
}

/// Drive a 3-link stripe for `total_ms` of simulated time with channel 1
/// down over [down_from, down_until). Fully deterministic.
fn run_outage(total_ms: u64, down_from: u64, down_until: u64) -> RunResult {
    let sched = Srr::equal(3, 1500);
    let plans = [
        FaultPlan::none(),
        FaultPlan::none().down_window(
            SimTime::from_millis(down_from),
            SimTime::from_millis(down_until),
        ),
        FaultPlan::none(),
    ];
    let links: Vec<_> = plans
        .into_iter()
        .enumerate()
        .map(|(i, p)| faulty(i as u64 + 1, p))
        .collect();
    let mut path = StripedPath::builder()
        .scheduler(sched.clone())
        .markers(MarkerConfig::every_rounds(4))
        .links(links)
        .build();
    // Stall probe armed at the dead-detection timescale.
    let mut sink = StripedSink::builder()
        .scheduler(sched)
        .capacity_per_channel(1 << 14)
        .stall_timeout_ns(5 * MS)
        .build();
    let mut driver = FailoverDriver::new(
        3,
        FailoverConfig::with_probe_interval(5 * MS),
        SimTime::ZERO,
    );

    let mut q: EventQueue<Ev> = EventQueue::new();
    let rev_delay = SimDuration::from_micros(150);
    let step = SimDuration::from_micros(100);
    let data_period = SimDuration::from_micros(300);

    let mut delivered = Vec::new();
    let mut lost_ids = Vec::new();
    let mut next_data = SimTime::ZERO + data_period;
    let mut next_id = 0u64;
    let mut now = SimTime::ZERO;
    let end = SimTime::from_millis(total_ms);
    let recovery = SimTime::from_millis(down_until);
    let mut death_announced_at = None;
    let mut ch1_data_after_recovery = 0u64;
    let mut stall_seen = false;
    let mut txs = Vec::new();

    let queue_ctl = |q: &mut EventQueue<Ev>, t: stripe::transport::ControlTransmission| {
        if let Some(at) = t.arrival {
            q.push(at, Ev::Ctl(t.channel, t.ctl.clone()));
        }
        if let Some(at) = t.duplicate {
            q.push(at, Ev::Ctl(t.channel, t.ctl));
        }
    };

    while now < end {
        now += step;

        // Sender side: timers first, then paced data.
        driver.tick(&mut path, now, &mut txs);
        for t in txs.drain(..) {
            queue_ctl(&mut q, t);
        }
        if death_announced_at.is_none() && driver.membership().epoch() > 0 {
            death_announced_at = Some(now);
        }
        while next_data <= now && next_id < u64::MAX {
            let id = next_id;
            next_id += 1;
            next_data += data_period;
            let len = 400 + (id as usize * 131) % 900;
            for t in path.send(now, TestPacket::new(id, len)) {
                if t.channel == 1 && now >= recovery {
                    if let Arrival::Data(_) = t.item {
                        ch1_data_after_recovery += 1;
                    }
                }
                match (t.arrival, t.item) {
                    (Some(at), item) => q.push(at, Ev::Arrival(t.channel, item)),
                    (None, Arrival::Data(p)) => lost_ids.push(p.id),
                    (None, Arrival::Marker(_)) => {}
                }
            }
        }

        // Deliver everything that has arrived by `now`.
        while q.peek_time().is_some_and(|t| t <= now) {
            let (at, ev) = q.pop().expect("peeked");
            match ev {
                Ev::Arrival(c, item) => {
                    sink.on_arrival(c, item);
                }
                Ev::Ctl(c, ctl) => {
                    for (rc, reply) in sink.on_control(c, &ctl) {
                        q.push(at + rev_delay, Ev::Rev(rc, reply));
                    }
                }
                Ev::Rev(c, ctl) => {
                    driver.on_control(&mut path, c, &ctl, at, &mut txs);
                    for t in txs.drain(..) {
                        queue_ctl(&mut q, t);
                    }
                }
            }
        }
        while let Some(p) = sink.poll() {
            delivered.push(p.id);
        }
        if sink.stalled(now).is_some() {
            stall_seen = true;
        }
    }

    // End of run: flush in-flight arrivals and a final marker batch so the
    // receiver is not left blocked mid-round on the last few packets.
    for t in path.send_markers::<TestPacket>(now) {
        if let Some(at) = t.arrival {
            q.push(at, Ev::Arrival(t.channel, t.item));
        }
    }
    while let Some((at, ev)) = q.pop() {
        match ev {
            Ev::Arrival(c, item) => {
                sink.on_arrival(c, item);
            }
            Ev::Ctl(c, ctl) => {
                for (rc, reply) in sink.on_control(c, &ctl) {
                    q.push(at + rev_delay, Ev::Rev(rc, reply));
                }
            }
            Ev::Rev(c, ctl) => {
                driver.on_control(&mut path, c, &ctl, at, &mut txs);
                for t in txs.drain(..) {
                    queue_ctl(&mut q, t);
                }
            }
        }
        while let Some(p) = sink.poll() {
            delivered.push(p.id);
        }
    }

    RunResult {
        delivered,
        lost_ids,
        sent: next_id,
        death_announced_at,
        ch1_data_after_recovery,
        stall_seen,
        deaths: driver.liveness().deaths(),
        recoveries: driver.liveness().recoveries(),
        memberships_applied: sink.stats().memberships_applied,
    }
}

#[test]
fn link_death_degrades_and_recovery_reintegrates() {
    // 400ms run; channel 1 down from 80ms to 240ms.
    let r = run_outage(400, 80, 240);

    // The control plane saw exactly one death and one recovery, and the
    // receiver applied both membership changes (shrink + grow).
    assert_eq!(r.deaths, 1, "one death");
    assert_eq!(r.recoveries, 1, "one recovery");
    assert_eq!(r.memberships_applied, 2, "shrink + grow applied");

    // Degradation within one detection timeout: probe interval 5ms, dead
    // after 15ms, plus probe/ack round trips and the announce itself.
    let announced = r.death_announced_at.expect("shrink must be announced");
    assert!(
        announced <= SimTime::from_millis(80 + 15 + 12),
        "announced too late: {announced:?}"
    );

    // The receiver-side stall probe fired while the dead channel was
    // head-of-line blocking the stripe.
    assert!(r.stall_seen, "stall probe must fire during the outage");

    // No packet is delivered twice.
    let mut uniq = r.delivered.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), r.delivered.len(), "duplicate deliveries");

    // Only packets in flight on the dead link are lost: everything sent
    // and not dropped by the fault layer is delivered.
    assert_eq!(
        uniq.len() as u64 + r.lost_ids.len() as u64,
        r.sent,
        "every packet is accounted for (delivered or lost on the dead link)"
    );
    assert!(
        !r.lost_ids.is_empty(),
        "the outage must actually cost some in-flight packets"
    );

    // Losses stop once the mask takes effect: lost ids cluster right after
    // the outage starts (detection window), none near the end of the run.
    let max_lost = *r.lost_ids.iter().max().expect("some losses");
    let last_sent = r.sent - 1;
    assert!(
        max_lost < last_sent - 300,
        "losses continued after degradation: max lost id {max_lost} of {last_sent}"
    );

    // The recovered channel carries data again.
    assert!(
        r.ch1_data_after_recovery > 50,
        "channel 1 must rejoin the stripe (carried {})",
        r.ch1_data_after_recovery
    );

    // Quasi-FIFO: the delivery tail (well past recovery) is in order.
    let tail = &r.delivered[r.delivered.len() - 300..];
    for w in tail.windows(2) {
        assert!(w[1] > w[0], "tail misordered: {w:?}");
    }
}

/// Out-of-band death evidence (a socket hard error, a panicked I/O
/// worker) short-circuits the keepalive deadline: `on_link_dead`
/// announces the shrunken mask immediately, idempotently, and leaves the
/// recovery path intact.
#[test]
fn link_dead_report_shrinks_the_mask_without_waiting_for_silence() {
    let sched = Srr::equal(3, 1500);
    let links: Vec<_> = (0..3).map(|i| faulty(i + 1, FaultPlan::none())).collect();
    let mut path = StripedPath::builder()
        .scheduler(sched)
        .markers(MarkerConfig::every_rounds(4))
        .links(links)
        .build();
    let mut driver = FailoverDriver::new(
        3,
        FailoverConfig::with_probe_interval(5 * MS),
        SimTime::ZERO,
    );

    // Well before any probe could even go out, the link layer reports
    // channel 1 dead.
    let now = SimTime::from_millis(1);
    let mut txs = Vec::new();
    driver.on_link_dead(&mut path, 1, now, &mut txs);
    assert!(
        !txs.is_empty(),
        "death evidence must trigger an immediate announcement"
    );
    assert_eq!(driver.liveness().deaths(), 1);
    assert_eq!(driver.liveness().live_mask(), vec![true, false, true]);
    assert_eq!(driver.membership().epoch(), 1, "mask announced");

    // Idempotent: re-reporting the same dead channel is free.
    let mut again = Vec::new();
    driver.on_link_dead(&mut path, 1, SimTime::from_millis(2), &mut again);
    assert!(again.is_empty(), "duplicate evidence must not re-announce");
    assert_eq!(driver.liveness().deaths(), 1);
}

/// Corruption behaves like loss end-to-end: the far end's checksum
/// discards damaged packets, markers resynchronize, quasi-FIFO holds.
#[test]
fn corruption_is_absorbed_like_loss() {
    let sched = Srr::equal(2, 1500);
    let links = vec![
        FaultyLink::new(eth(1), FaultPlan::none().with_corruption(0.05), 7),
        FaultyLink::new(eth(2), FaultPlan::none(), 8),
    ];
    let mut path = StripedPath::builder()
        .scheduler(sched.clone())
        .markers(MarkerConfig::every_rounds(4))
        .links(links)
        .build();
    let mut rx: LogicalReceiver<Srr, TestPacket> = LogicalReceiver::new(sched, 1 << 14);
    let mut q: EventQueue<(ChannelId, Arrival<TestPacket>)> = EventQueue::new();
    let mut now = SimTime::ZERO;
    let total = 3000u64;
    for id in 0..total {
        now += SimDuration::from_micros(1300);
        for t in path.send(now, TestPacket::new(id, 700)) {
            if let Some(at) = t.arrival {
                q.push(at, (t.channel, t.item));
            }
        }
    }
    let mut delivered: Vec<u64> = Vec::new();
    while let Some((_, (c, item))) = q.pop() {
        rx.push(c, item);
        while let Some(p) = rx.poll() {
            delivered.push(p.id);
        }
    }
    let st = path.stats();
    assert!(st.dropped_corrupt > 0, "corruption must have fired");
    assert_eq!(st.dropped_lost, 0, "clean loss and corruption are distinct");
    assert!(delivered.len() as u64 > total * 9 / 10);
    let inversions = delivered.windows(2).filter(|w| w[1] < w[0]).count();
    assert!(
        (inversions as f64) < 0.05 * delivered.len() as f64,
        "{inversions} inversions in {}",
        delivered.len()
    );
}

/// Duplication on the wire produces duplicate *arrivals*; the plain-loss
/// stripe does not dedup (quasi-FIFO tolerates it), but the path layer
/// counts them so experiments can see exactly what the fault layer did.
#[test]
fn duplication_is_counted_at_the_path_layer() {
    let sched = Srr::equal(2, 1500);
    let links = vec![
        FaultyLink::new(eth(1), FaultPlan::none().with_duplication(0.10), 9),
        FaultyLink::new(eth(2), FaultPlan::none(), 10),
    ];
    let mut path = StripedPath::builder()
        .scheduler(sched.clone())
        .markers(MarkerConfig::disabled())
        .links(links)
        .build();
    let mut now = SimTime::ZERO;
    let mut extra = 0u64;
    for id in 0..2000u64 {
        now += SimDuration::from_micros(1300);
        let txs = path.send(now, TestPacket::new(id, 700));
        extra += (txs.len() - 1) as u64;
    }
    let st = path.stats();
    assert!(st.duplicates > 0, "duplication must have fired");
    assert_eq!(
        st.duplicates, extra,
        "every duplicate surfaces as a transmission"
    );
    assert_eq!(st.dropped_lost, 0);
}
