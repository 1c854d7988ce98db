//! Failover sweep: throughput before, during, and after a link failure.
//!
//! A 3×10 Mbps stripe carries a paced stream while channel 1 goes down for
//! a 150 ms window. The liveness/membership machinery detects the death,
//! shrinks the striping set to the survivors, and reintegrates the channel
//! when it recovers. The sweep varies the probe interval (which sets the
//! detection timeout) and reports goodput in each phase: the faster the
//! detection, the less of the outage is spent head-of-line blocked on the
//! dead channel.

use stripe_bench::table::{f2, Table};
use stripe_core::control::Control;
use stripe_core::receiver::Arrival;
use stripe_core::sched::Srr;
use stripe_core::sender::MarkerConfig;
use stripe_core::types::{ChannelId, TestPacket};
use stripe_link::loss::LossModel;
use stripe_link::{EthLink, FaultPlan, FaultyLink};
use stripe_netsim::{Bandwidth, EventQueue, SimDuration, SimTime};
use stripe_transport::failover::{FailoverConfig, FailoverDriver, StripedSink};
use stripe_transport::stripe_conn::{ControlTransmission, StripedPath};

const MS: u64 = 1_000_000;
const PKT_LEN: usize = 1000;
const DOWN_FROM: u64 = 100;
const DOWN_UNTIL: u64 = 250;
const END: u64 = 400;

enum Ev {
    Arrival(ChannelId, Arrival<TestPacket>),
    Ctl(ChannelId, Control),
    Rev(ChannelId, Control),
}

struct Phases {
    before_mbps: f64,
    during_mbps: f64,
    after_mbps: f64,
    detect_ms: f64,
    lost: usize,
}

fn run(probe_interval_ns: u64) -> Phases {
    let sched = Srr::equal(3, 1500);
    let links: Vec<_> = (0..3)
        .map(|i| {
            let plan = if i == 1 {
                FaultPlan::none().down_window(
                    SimTime::from_millis(DOWN_FROM),
                    SimTime::from_millis(DOWN_UNTIL),
                )
            } else {
                FaultPlan::none()
            };
            FaultyLink::new(
                EthLink::new(
                    Bandwidth::mbps(10),
                    SimDuration::from_micros(100),
                    SimDuration::from_micros(30),
                    LossModel::None,
                    i as u64 + 1,
                ),
                plan,
                1000 + i as u64,
            )
        })
        .collect();
    let mut path = StripedPath::builder()
        .scheduler(sched.clone())
        .markers(MarkerConfig::every_rounds(4))
        .links(links)
        .build();
    let mut sink = StripedSink::builder()
        .scheduler(sched)
        .capacity_per_channel(1 << 14)
        .build();
    let mut driver = FailoverDriver::new(
        3,
        FailoverConfig::with_probe_interval(probe_interval_ns),
        SimTime::ZERO,
    );

    let mut q: EventQueue<Ev> = EventQueue::new();
    let rev_delay = SimDuration::from_micros(150);
    let step = SimDuration::from_micros(100);
    let data_period = SimDuration::from_micros(400);
    let queue_ctl = |q: &mut EventQueue<Ev>, t: ControlTransmission| {
        if let Some(at) = t.arrival {
            q.push(at, Ev::Ctl(t.channel, t.ctl.clone()));
        }
        if let Some(at) = t.duplicate {
            q.push(at, Ev::Ctl(t.channel, t.ctl));
        }
    };

    let mut now = SimTime::ZERO;
    let mut next_data = now + data_period;
    let mut next_id = 0u64;
    let mut lost = 0usize;
    let mut detect_at = None;
    let mut txs = Vec::new();
    // Delivered bytes per phase: [before, during, after].
    let mut phase_bytes = [0u64; 3];
    let end = SimTime::from_millis(END);

    while now < end {
        now += step;
        driver.tick(&mut path, now, &mut txs);
        for t in txs.drain(..) {
            queue_ctl(&mut q, t);
        }
        if detect_at.is_none() && driver.membership().epoch() > 0 {
            detect_at = Some(now);
        }
        while next_data <= now {
            let id = next_id;
            next_id += 1;
            next_data += data_period;
            for t in path.send(now, TestPacket::new(id, PKT_LEN)) {
                match (t.arrival, t.item) {
                    (Some(at), item) => q.push(at, Ev::Arrival(t.channel, item)),
                    (None, Arrival::Data(_)) => lost += 1,
                    (None, Arrival::Marker(_)) => {}
                }
            }
        }
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
            let phase = if now < SimTime::from_millis(DOWN_FROM) {
                0
            } else if now < SimTime::from_millis(DOWN_UNTIL) {
                1
            } else {
                2
            };
            phase_bytes[phase] += p.len as u64;
        }
    }

    let mbps = |bytes: u64, window_ms: u64| (bytes * 8) as f64 / (window_ms as f64 * 1e3);
    Phases {
        before_mbps: mbps(phase_bytes[0], DOWN_FROM),
        during_mbps: mbps(phase_bytes[1], DOWN_UNTIL - DOWN_FROM),
        after_mbps: mbps(phase_bytes[2], END - DOWN_UNTIL),
        detect_ms: detect_at
            .map(|t| (t.as_nanos().saturating_sub(DOWN_FROM * MS)) as f64 / MS as f64)
            .unwrap_or(f64::NAN),
        lost,
    }
}

fn main() {
    let mut t = Table::new(&[
        "probe interval",
        "detect+announce",
        "before Mb/s",
        "during Mb/s",
        "after Mb/s",
        "pkts lost",
    ]);
    for probe_ms in [2u64, 5, 10, 20] {
        let r = run(probe_ms * MS);
        t.row_owned(vec![
            format!("{probe_ms} ms"),
            format!("{:.1} ms", r.detect_ms),
            f2(r.before_mbps),
            f2(r.during_mbps),
            f2(r.after_mbps),
            r.lost.to_string(),
        ]);
        assert!(
            r.during_mbps > 0.5 * r.before_mbps,
            "stripe must keep flowing at N-1 during the outage (probe {probe_ms} ms)"
        );
        assert!(
            r.after_mbps > 0.8 * r.before_mbps,
            "throughput must recover after reintegration (probe {probe_ms} ms)"
        );
    }
    t.print("Failover sweep — 3x10 Mb/s stripe, channel 1 down 100-250 ms");
    println!(
        "\nShape check: offered load is constant, so 'during' dips only by the dead\n\
         channel's share plus the detection window; faster probing loses fewer packets."
    );
}
